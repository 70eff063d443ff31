//! Deterministic random number generation.
//!
//! The whole workspace derives every random decision from a single [`Seed`]. The seed is
//! split into independent per-node and per-subsystem streams with a SplitMix64 hash so that
//! adding a node or reordering subsystem initialisation does not perturb the streams of
//! unrelated components — a property the reproducibility of the experiments relies on.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::types::NodeId;

/// Master seed of a simulation run.
///
/// # Examples
///
/// ```
/// use croupier_simulator::rng::Stream;
/// use croupier_simulator::Seed;
///
/// let seed = Seed::new(42);
/// let mut a = seed.stream_rng(Stream::Workload);
/// let mut b = seed.stream_rng(Stream::Workload);
/// // The same stream always yields the same draws.
/// assert_eq!(rand::Rng::gen::<u64>(&mut a), rand::Rng::gen::<u64>(&mut b));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Seed(u64);

/// Stable labels for engine-internal random streams.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Stream {
    /// Network latency sampling.
    Latency,
    /// Round phase jitter and clock skew.
    Scheduling,
    /// Bootstrap server sampling.
    Bootstrap,
    /// Scenario/workload generation (joins, churn, failures).
    Workload,
    /// Anything an experiment wants outside the predefined streams.
    Custom(u64),
}

impl Stream {
    fn tag(self) -> u64 {
        match self {
            Stream::Latency => 0x4c41_5445,
            Stream::Scheduling => 0x5343_4845,
            Stream::Bootstrap => 0x424f_4f54,
            Stream::Workload => 0x574f_524b,
            Stream::Custom(v) => 0x4355_5354_0000_0000 ^ v,
        }
    }
}

/// SplitMix64 finalizer; fast, well distributed, and good enough for seeding.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Seed {
    /// Creates a master seed from a raw value.
    pub const fn new(raw: u64) -> Self {
        Seed(raw)
    }

    /// Raw value of the seed.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Derives a child seed for a named stream.
    pub(crate) fn derive(self, stream: Stream) -> Seed {
        Seed(splitmix64(self.0 ^ splitmix64(stream.tag())))
    }

    /// Derives a child seed for a node-specific stream.
    pub(crate) fn derive_for_node(self, node: NodeId) -> Seed {
        Seed(splitmix64(
            self.0 ^ splitmix64(node.as_u64().wrapping_add(0x4e4f_4445)),
        ))
    }

    /// Builds the random number generator for a named stream.
    pub fn stream_rng(self, stream: Stream) -> SmallRng {
        SmallRng::seed_from_u64(self.derive(stream).0)
    }

    /// Builds the random number generator owned by a node's protocol instance.
    pub(crate) fn node_rng(self, node: NodeId) -> SmallRng {
        SmallRng::seed_from_u64(self.derive_for_node(node).0)
    }

    /// Builds a generator for a *per-node* engine-internal stream.
    ///
    /// The sharded engine gives every node its own latency/loss and scheduling streams
    /// (instead of the event engine's shared per-subsystem streams) so that the order in
    /// which nodes execute within a phase cannot perturb anyone else's randomness — the
    /// property that makes phase-parallel runs bit-identical across worker counts.
    pub(crate) fn node_stream_rng(self, node: NodeId, stream: Stream) -> SmallRng {
        SmallRng::seed_from_u64(self.derive_for_node(node).derive(stream).0)
    }

    /// Builds a generator directly from the seed; used where only one stream exists.
    pub fn rng(self) -> SmallRng {
        SmallRng::seed_from_u64(self.0)
    }
}

impl Default for Seed {
    fn default() -> Self {
        Seed(0xC0FF_EE00_5EED_1234)
    }
}

impl From<u64> for Seed {
    fn from(raw: u64) -> Self {
        Seed(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn the_same_node_always_receives_the_same_stream() {
        let seed = Seed::new(42);
        let mut a = seed.node_rng(NodeId::new(1));
        let mut b = seed.node_rng(NodeId::new(1));
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn same_seed_same_stream_is_deterministic() {
        let s = Seed::new(1);
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = s.stream_rng(Stream::Latency);
                move |_| r.gen()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = s.stream_rng(Stream::Latency);
                move |_| r.gen()
            })
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_streams_are_independent() {
        let s = Seed::new(1);
        let a: u64 = s.stream_rng(Stream::Latency).gen();
        let b: u64 = s.stream_rng(Stream::Scheduling).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_nodes_get_different_streams() {
        let s = Seed::new(9);
        let a: u64 = s.node_rng(NodeId::new(1)).gen();
        let b: u64 = s.node_rng(NodeId::new(2)).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_master_seeds_diverge() {
        let a: u64 = Seed::new(1).node_rng(NodeId::new(5)).gen();
        let b: u64 = Seed::new(2).node_rng(NodeId::new(5)).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn node_stream_rngs_are_deterministic_and_independent() {
        let s = Seed::new(21);
        let a: u64 = s.node_stream_rng(NodeId::new(3), Stream::Latency).gen();
        let b: u64 = s.node_stream_rng(NodeId::new(3), Stream::Latency).gen();
        assert_eq!(a, b, "same node and stream must reproduce");
        let c: u64 = s.node_stream_rng(NodeId::new(3), Stream::Scheduling).gen();
        let d: u64 = s.node_stream_rng(NodeId::new(4), Stream::Latency).gen();
        assert_ne!(a, c, "streams of one node must differ");
        assert_ne!(a, d, "same stream of different nodes must differ");
        let e: u64 = s.node_rng(NodeId::new(3)).gen();
        assert_ne!(a, e, "node protocol stream must differ from engine streams");
    }

    #[test]
    fn custom_streams_with_distinct_tags_differ() {
        let s = Seed::new(77);
        let a: u64 = s.stream_rng(Stream::Custom(1)).gen();
        let b: u64 = s.stream_rng(Stream::Custom(2)).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn splitmix_is_not_identity() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), 1);
    }

    #[test]
    fn default_seed_is_stable() {
        assert_eq!(Seed::default(), Seed::default());
        assert_eq!(Seed::from(5u64).as_u64(), 5);
    }
}
