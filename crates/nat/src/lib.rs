//! # croupier-nat
//!
//! NAT and firewall emulation for the Croupier reproduction.
//!
//! The Croupier paper (*Shuffling with a Croupier: NAT-Aware Peer Sampling*, ICDCS 2012)
//! evaluates peer-sampling protocols in networks where a large fraction of nodes sit behind
//! Network Address Translation gateways. This crate provides the substrate that makes such
//! networks observable to the simulated protocols:
//!
//! * [`NatGateway`] — a NAT device with a pool of public IPs (one by default, each
//!   internal host paired with one of them), a UDP binding table that only outbound
//!   traffic refreshes and that expires after a configurable timeout, a
//!   [`FilteringPolicy`] (endpoint-independent, address-dependent or
//!   address-and-port-dependent, following the NATCracker classification cited by the
//!   paper), hairpinning on or off, and optional UPnP IGD support.
//! * [`NatTopology`] — the assignment of every node to either a public address or a private
//!   address behind a gateway. It implements the simulator's
//!   [`DeliveryFilter`](croupier_simulator::DeliveryFilter) so the engine consults it for
//!   every packet, and its [`local_ip`](NatTopology::local_ip),
//!   [`observed_ip`](NatTopology::observed_ip) and
//!   [`supports_upnp`](NatTopology::supports_upnp) let protocols observe addresses the
//!   way a real UDP socket would.
//!
//! The emulation is deliberately behavioural: protocols can only observe reachability,
//! source addresses and binding expiry — exactly the observables a deployed protocol has —
//! so substituting it for real NAT devices preserves the phenomena the paper studies
//! (biased views, partition under failure, traversal overhead). Messages are addressed by
//! `NodeId`, never by an external `(ip, port)`, so the gateway keeps no external-endpoint
//! mapping table: nothing could observe it.
//!
//! ## Example
//!
//! ```
//! use croupier_nat::{FilteringPolicy, NatTopologyBuilder};
//! use croupier_simulator::{DeliveryFilter, DeliveryVerdict, NodeId, SimTime};
//!
//! let topology = NatTopologyBuilder::new(7)
//!     .default_filtering(FilteringPolicy::AddressAndPortDependent)
//!     .build();
//! let public = NodeId::new(0);
//! let private = NodeId::new(1);
//! topology.add_public_node(public);
//! topology.add_private_node(private);
//!
//! let mut filter = topology.clone();
//! // Unsolicited traffic towards the private node is dropped...
//! assert_eq!(
//!     filter.can_deliver(public, private, SimTime::ZERO),
//!     DeliveryVerdict::BlockedByNat,
//! );
//! // ...but once the private node has contacted the public node, the reply passes the NAT.
//! filter.on_send(private, public, SimTime::ZERO);
//! assert_eq!(
//!     filter.can_deliver(public, private, SimTime::from_millis(50)),
//!     DeliveryVerdict::Deliver,
//! );
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod address;
mod dynamics;
mod filtering;
mod gateway;
mod topology;

pub use address::Ip;
pub use dynamics::{AppliedEvent, GatewayProfile, NatDynamicsEvent};
pub use filtering::FilteringPolicy;
pub use gateway::{NatGateway, NatGatewayConfig};
pub use topology::{GatewayId, NatTopology, NatTopologyBuilder, TopologyStats};
