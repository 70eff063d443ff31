//! # croupier
//!
//! A reproduction of **Croupier**, the NAT-aware gossip peer-sampling service of
//! *Shuffling with a Croupier: NAT-Aware Peer Sampling* (Dowling & Payberah, ICDCS 2012).
//!
//! Croupier provides every node of a peer-to-peer system with a continuous stream of
//! uniformly random node samples even when most nodes sit behind NATs — **without relaying
//! and without hole-punching**. Its three ideas, all implemented here:
//!
//! 1. **Dual views** ([`View`]): each node keeps a bounded *public view* and a bounded
//!    *private view* instead of one mixed view, preventing public nodes from becoming
//!    over-represented.
//! 2. **Croupier shuffling** ([`CroupierNode`]): every node — public or private — sends one
//!    shuffle request per round to the *oldest* descriptor in its public view (tail
//!    selection). Only public nodes ("croupiers") answer, swapping random subsets of both
//!    views (push-pull + swapper policies).
//! 3. **Public/private ratio estimation** ([`RatioEstimator`]): croupiers estimate the
//!    global ratio ω from the relative rate of shuffle requests they receive from public vs
//!    private senders over a sliding window of `α` rounds, and piggy-back their estimates on
//!    shuffle messages; every node averages the estimates it has cached over a `γ`-round
//!    window. Samples are then drawn from the public view with probability ω̂ and from the
//!    private view otherwise ([`sample_from_views`]).
//!
//! The crate also implements the paper's distributed **NAT-type identification protocol**
//! (§V) in [`NatIdentificationNode`], which classifies a node as public or private with three
//! messages and no STUN server.
//!
//! The protocol logic is engine-agnostic: [`CroupierNode`] implements the
//! [`Protocol`](croupier_simulator::Protocol) trait of `croupier-simulator` and talks to
//! the outside world exclusively through the [`Context`](croupier_simulator::Context) it
//! is handed — it never names an engine type. The deterministic discrete-event engine
//! drives it in all tests, examples and benchmarks, exactly as the original implementation
//! was driven by the Kompics simulator; the sharded engine hosts the identical protocol
//! code.
//!
//! ## Quickstart
//!
//! ```
//! use croupier::{CroupierConfig, CroupierNode};
//! use croupier_nat::NatTopologyBuilder;
//! use croupier_simulator::{
//!     NatClass, NodeId, PssNode, Simulation, SimulationConfig, SimulationEngine,
//! };
//!
//! let config = CroupierConfig::default();
//! let topology = NatTopologyBuilder::new(1).build();
//! let mut sim = Simulation::new(SimulationConfig::default().with_seed(1));
//! sim.set_delivery_filter(topology.clone());
//!
//! // 5 public nodes, 20 private nodes.
//! for i in 0..25u64 {
//!     let id = NodeId::new(i);
//!     let class = if i < 5 { NatClass::Public } else { NatClass::Private };
//!     topology.add_node(id, class);
//!     if class.is_public() {
//!         sim.register_public(id);
//!     }
//!     sim.add_node(id, CroupierNode::new(id, class, config.clone()));
//! }
//!
//! sim.run_for_rounds(60);
//!
//! // Every node now has an estimate of the public/private ratio close to 0.2 ...
//! let est = sim.node(NodeId::new(20)).unwrap().ratio_estimate().unwrap();
//! assert!((est - 0.2).abs() < 0.1);
//! // ... and can draw peer samples.
//! assert!(sim.sample_from(NodeId::new(20)).is_some());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod descriptor;
mod estimator;
#[cfg(test)]
mod estimator_reference;
mod messages;
mod nat_identification;
mod protocol;
mod sampler;
mod view;

pub use config::{CroupierConfig, BOOTSTRAP_SIZE, SHUFFLE_SIZE, VIEW_SIZE};
pub use descriptor::{
    Descriptor, DescriptorBatch, DESCRIPTOR_INLINE_CAPACITY, DESCRIPTOR_WIRE_BYTES,
};
pub use estimator::{EstimateBatch, EstimateRecord, RatioEstimator, ESTIMATE_INLINE_CAPACITY};
pub use messages::{CroupierMessage, ShufflePayload, UDP_IP_HEADER_BYTES};
pub use nat_identification::{NatIdMessage, NatIdentificationNode};
pub use protocol::CroupierNode;
pub use sampler::sample_from_views;
pub use view::View;
