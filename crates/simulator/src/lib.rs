//! # croupier-simulator
//!
//! A deterministic discrete-event simulation substrate for gossip protocols, built as a
//! replacement for the Kompics simulator used in the Croupier paper
//! (*Shuffling with a Croupier: NAT-Aware Peer Sampling*, ICDCS 2012).
//!
//! The crate provides:
//!
//! * a [`Simulation`] engine driving per-node [`Protocol`] state machines with periodic
//!   gossip rounds, timers and point-to-point messages,
//! * a [`ShardedSimulation`] engine executing the same protocols phase-parallel over
//!   multiple worker threads (the module documentation of `sharded.rs` gives the
//!   execution model), behind the common [`SimulationEngine`] trait,
//! * pluggable [`LatencyModel`]s (constant and a synthetic King-data-set-like model) and
//!   [`DeliveryFilter`]s (the NAT emulation in `croupier-nat` implements the latter), plus
//!   a [`FaultPlane`] — the one way a message is lost, duplicated, delayed or corrupted,
//! * a [`BootstrapRegistry`] emulating the bootstrap server that hands joining nodes a set
//!   of public nodes, and
//! * a [`TrafficLedger`] that accounts every byte sent and received per node, which the
//!   protocol-overhead experiments build on.
//!
//! Everything is deterministic: a single [`Seed`] fixes the behaviour of the
//! engine and of every node, so experiments regenerate bit-identically.
//!
//! ## Example
//!
//! ```
//! use croupier_simulator::{
//!     Context, NodeId, Protocol, Simulation, SimulationConfig, SimulationEngine, WireSize,
//! };
//!
//! /// A toy protocol: every round each node pings a random bootstrap node.
//! struct Ping {
//!     pings_received: u64,
//! }
//!
//! #[derive(Clone, Debug)]
//! struct PingMsg;
//!
//! impl WireSize for PingMsg {
//!     fn wire_size(&self) -> usize {
//!         28
//!     }
//! }
//!
//! impl Protocol for Ping {
//!     type Message = PingMsg;
//!
//!     fn on_start(&mut self, _ctx: &mut Context<'_, Self::Message>) {}
//!
//!     fn on_round(&mut self, ctx: &mut Context<'_, Self::Message>) {
//!         if let Some(peer) = ctx.bootstrap_sample(1).first().copied() {
//!             if peer != ctx.node_id() {
//!                 ctx.send(peer, PingMsg);
//!             }
//!         }
//!     }
//!
//!     fn on_message(
//!         &mut self,
//!         _from: NodeId,
//!         _msg: Self::Message,
//!         _ctx: &mut Context<'_, Self::Message>,
//!     ) {
//!         self.pings_received += 1;
//!     }
//! }
//!
//! let mut sim = Simulation::new(SimulationConfig::default().with_seed(7));
//! for i in 0..8 {
//!     let id = NodeId::new(i);
//!     sim.register_public(id);
//!     sim.add_node(id, Ping { pings_received: 0 });
//! }
//! sim.run_for_rounds(20);
//! let total: u64 = sim.nodes().map(|(_, p)| p.pings_received).sum();
//! assert!(total > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod arena;
mod bootstrap;
mod delivery;
mod engine;
mod engine_api;
pub mod event;
mod exchange;
mod fasthash;
mod faults;
mod inline;
mod latency;
mod network;
mod protocol;
pub mod rng;
pub mod scheduler;
mod sharded;
mod time;
mod traffic;
mod types;

pub use bootstrap::BootstrapRegistry;
pub use engine::{NetworkStats, Simulation, SimulationConfig};
pub use engine_api::{CompositeRoundHook, HookOps, RoundHook, SimulationEngine};
pub use exchange::{ExchangeTracker, Retry};
pub use fasthash::{FastBuildHasher, FastHashMap};
pub use faults::{
    BurstLoss, FaultDecision, FaultPlane, FaultProfile, FaultReport, FaultSession, RetryPolicy,
};
pub use inline::InlineVec;
pub use latency::{ConstantLatency, LatencyModel};
pub use network::{BatchLink, DeliveryFilter, DeliveryVerdict};
pub use protocol::{Context, ContextParams, Protocol, PssNode, TimerKey, WireSize};
pub use rng::Seed;
pub use sharded::ShardedSimulation;
pub use time::{SimDuration, SimTime};
pub use traffic::{NodeTraffic, TrafficLedger};
pub use types::{NatClass, NodeId};
