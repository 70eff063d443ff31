//! # croupier-baselines
//!
//! The three peer-sampling services the Croupier paper compares against, re-implemented
//! from their published descriptions (as the paper's authors did on Kompics):
//!
//! * [`CyclonNode`] — **Cyclon** (Voulgaris et al., 2005): the classic single-view gossip
//!   PSS with tail selection and swapper merging. NAT-oblivious; the paper uses it as the
//!   randomness baseline on all-public networks.
//! * [`GozarNode`] — **Gozar** (Payberah et al., DAIS 2011): NAT-aware PSS based on
//!   *one-hop relaying*. Private nodes register with a redundant set of public relay nodes,
//!   keep their NAT mappings to those relays alive, and advertise the relays inside their
//!   node descriptors; anyone shuffling with a private node sends the exchange through one
//!   of its relays.
//! * [`NylonNode`] — **Nylon** (Kermarrec et al., ICDCS 2009): NAT-aware PSS based on
//!   *hole punching through chains of rendezvous nodes (RVPs)*. Nodes that have exchanged
//!   views become each other's RVPs; a shuffle with a private node routes a hole-punch
//!   request hop-by-hop through RVPs until it reaches the target, which then punches a
//!   direct connection back to the initiator.
//!
//! All three implement the simulator's [`Protocol`](croupier_simulator::Protocol) and
//! [`PssNode`](croupier_simulator::PssNode) traits against the engine-agnostic
//! [`Context`](croupier_simulator::Context), use the same view size, shuffle length,
//! selection (tail) and merge (swapper) policies as the Croupier implementation, and account
//! message sizes with the same conventions, so the evaluation crate can compare the four
//! systems under identical conditions — exactly the setup of §VII-A of the paper.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod cyclon;
pub mod gozar;
pub mod nylon;

pub use config::BaselineConfig;
pub use cyclon::{CyclonMessage, CyclonNode};
pub use gozar::{GozarMessage, GozarNode};
pub use nylon::{NylonMessage, NylonNode};

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-node state is what `peak_rss_mb` is made of at 100k nodes and beyond: a field
    /// added to a node shows up there times the population.
    #[test]
    fn node_state_stays_compact() {
        assert!(std::mem::size_of::<CyclonNode>() <= 240);
        assert!(std::mem::size_of::<GozarNode>() <= 472);
        assert!(std::mem::size_of::<NylonNode>() <= 384);
    }
}
