//! Network latency models.
//!
//! The paper models pairwise latencies on the King data set (Gummadi et al., 2002). Because
//! the original trace files are not redistributable, [`KingLatencyModel`] synthesises a
//! latency matrix with the same qualitative shape: a heavy-tailed distribution with a median
//! one-way delay of a few tens of milliseconds and a long tail of slow transcontinental
//! paths. The protocols under study only depend on that shape, not on exact host pairs (see
//! the substitution table in `DESIGN.md`).

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::Rng;

use crate::time::SimDuration;
use crate::types::NodeId;

/// A source of one-way message latencies between pairs of nodes.
///
/// Implementations may be stateful (e.g. caching per-node coordinates) and receive a
/// dedicated random stream from the engine.
pub trait LatencyModel {
    /// Samples the one-way latency for a message from `from` to `to`.
    fn sample(&mut self, from: NodeId, to: NodeId, rng: &mut SmallRng) -> SimDuration;

    /// Samples a latency without mutating the model, for phase-parallel engines.
    ///
    /// The sharded engine calls this concurrently from several worker threads, each passing
    /// the *sending node's* private random stream, so implementations must derive any
    /// per-node state deterministically from the node ids (never lazily from `rng`): the
    /// result may depend only on `(from, to)` and on draws from `rng`. The default
    /// implementation panics; every model shipped with this crate overrides it.
    fn sample_shared(&self, from: NodeId, to: NodeId, rng: &mut SmallRng) -> SimDuration {
        let _ = (from, to, rng);
        unimplemented!("this latency model does not support phase-parallel execution")
    }
}

/// Fixed latency for every message; useful in unit tests and micro-benchmarks.
///
/// # Examples
///
/// ```
/// use croupier_simulator::{ConstantLatency, LatencyModel, NodeId, SimDuration};
/// use rand::SeedableRng;
///
/// let mut model = ConstantLatency::new(SimDuration::from_millis(25));
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// let d = model.sample(NodeId::new(0), NodeId::new(1), &mut rng);
/// assert_eq!(d, SimDuration::from_millis(25));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConstantLatency {
    latency: SimDuration,
}

impl ConstantLatency {
    /// Creates a model that always returns `latency`.
    pub fn new(latency: SimDuration) -> Self {
        ConstantLatency { latency }
    }
}

impl Default for ConstantLatency {
    fn default() -> Self {
        ConstantLatency::new(SimDuration::from_millis(50))
    }
}

impl LatencyModel for ConstantLatency {
    fn sample(&mut self, _from: NodeId, _to: NodeId, _rng: &mut SmallRng) -> SimDuration {
        self.latency
    }

    fn sample_shared(&self, _from: NodeId, _to: NodeId, _rng: &mut SmallRng) -> SimDuration {
        self.latency
    }
}

/// Synthetic King-data-set-like latency model.
///
/// Every node is lazily assigned a point in a two-dimensional virtual coordinate space plus
/// a per-node access delay. The one-way latency between two nodes is the Euclidean distance
/// between their coordinates plus both access delays plus per-message jitter. The default
/// parameters give a median one-way delay of roughly 40 ms and a 99th percentile of a few
/// hundred milliseconds, matching the published statistics of the King measurements closely
/// enough for gossip-convergence experiments.
#[derive(Clone, Debug)]
pub struct KingLatencyModel {
    /// Side length of the virtual coordinate square, in milliseconds of propagation delay.
    plane_side_ms: f64,
    /// Maximum per-node access-link delay in milliseconds.
    max_access_ms: f64,
    /// Fractional jitter applied per message (0.1 = +/-10%).
    jitter_frac: f64,
    /// Minimum latency floor in milliseconds.
    floor_ms: f64,
    coords: HashMap<NodeId, (f64, f64, f64)>,
}

impl KingLatencyModel {
    /// Creates the model with the default, King-like parameters.
    pub fn new() -> Self {
        KingLatencyModel {
            plane_side_ms: 90.0,
            max_access_ms: 15.0,
            jitter_frac: 0.15,
            floor_ms: 2.0,
            coords: HashMap::new(),
        }
    }

    /// Overrides the per-message jitter fraction.
    pub fn with_jitter(mut self, jitter_frac: f64) -> Self {
        self.jitter_frac = jitter_frac;
        self
    }

    fn coords_for(&mut self, node: NodeId, rng: &mut SmallRng) -> (f64, f64, f64) {
        let side = self.plane_side_ms;
        let access = self.max_access_ms;
        *self.coords.entry(node).or_insert_with(|| {
            let x = rng.gen_range(0.0..side);
            let y = rng.gen_range(0.0..side);
            // Access delays follow a mildly heavy-tailed distribution: most nodes are on
            // fast links, a few sit behind slow DSL-like links.
            let u: f64 = rng.gen_range(0.0f64..1.0);
            let a = access * u.powi(3);
            (x, y, a)
        })
    }

    /// Order-independent coordinates: derived by hashing the node id rather than by lazily
    /// drawing from the shared latency stream, so every thread (and every sampling order)
    /// sees the same virtual position for a node. Used by [`LatencyModel::sample_shared`].
    fn hashed_coords(&self, node: NodeId) -> (f64, f64, f64) {
        const COORD_SALT: u64 = 0x4b49_4e47_5eed_c0de;
        let h1 = crate::rng::splitmix64(node.as_u64() ^ COORD_SALT);
        let h2 = crate::rng::splitmix64(h1);
        let h3 = crate::rng::splitmix64(h2);
        let unit = |h: u64| (h >> 11) as f64 / (1u64 << 53) as f64;
        let x = unit(h1) * self.plane_side_ms;
        let y = unit(h2) * self.plane_side_ms;
        let a = self.max_access_ms * unit(h3).powi(3);
        (x, y, a)
    }
}

impl Default for KingLatencyModel {
    fn default() -> Self {
        Self::new()
    }
}

impl KingLatencyModel {
    fn combine(&self, c1: (f64, f64, f64), c2: (f64, f64, f64), rng: &mut SmallRng) -> SimDuration {
        let (x1, y1, a1) = c1;
        let (x2, y2, a2) = c2;
        let dist = ((x1 - x2).powi(2) + (y1 - y2).powi(2)).sqrt();
        let base = dist + a1 + a2 + self.floor_ms;
        let jitter = if self.jitter_frac > 0.0 {
            1.0 + rng.gen_range(-self.jitter_frac..self.jitter_frac)
        } else {
            1.0
        };
        SimDuration::from_millis_f64(base * jitter)
    }
}

impl LatencyModel for KingLatencyModel {
    fn sample(&mut self, from: NodeId, to: NodeId, rng: &mut SmallRng) -> SimDuration {
        let c1 = self.coords_for(from, rng);
        let c2 = self.coords_for(to, rng);
        self.combine(c1, c2, rng)
    }

    fn sample_shared(&self, from: NodeId, to: NodeId, rng: &mut SmallRng) -> SimDuration {
        self.combine(self.hashed_coords(from), self.hashed_coords(to), rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xFEED)
    }

    #[test]
    fn constant_latency_is_constant() {
        let mut m = ConstantLatency::new(SimDuration::from_millis(10));
        let mut r = rng();
        for i in 0..20 {
            let d = m.sample(NodeId::new(i), NodeId::new(i + 1), &mut r);
            assert_eq!(d, SimDuration::from_millis(10));
        }
    }

    #[test]
    fn king_latency_is_positive_and_bounded() {
        let mut m = KingLatencyModel::new();
        let mut r = rng();
        for i in 0..100u64 {
            let d = m
                .sample(NodeId::new(i % 10), NodeId::new((i + 1) % 10), &mut r)
                .as_millis();
            assert!(d >= 1, "latency should respect the floor, got {d}");
            assert!(d < 500, "latency unexpectedly large: {d}");
        }
    }

    #[test]
    fn king_latency_reuses_coordinates() {
        let mut m = KingLatencyModel::new().with_jitter(0.0);
        let mut r = rng();
        let d1 = m.sample(NodeId::new(1), NodeId::new(2), &mut r);
        let d2 = m.sample(NodeId::new(1), NodeId::new(2), &mut r);
        assert_eq!(d1, d2, "without jitter the same pair has a stable latency");
    }

    #[test]
    fn king_latency_median_is_realistic() {
        let mut m = KingLatencyModel::new();
        let mut r = rng();
        let mut samples: Vec<u64> = Vec::new();
        for i in 0..200u64 {
            for j in 0..5u64 {
                samples.push(
                    m.sample(NodeId::new(i), NodeId::new(1000 + j), &mut r)
                        .as_millis(),
                );
            }
        }
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        assert!(
            (20..=120).contains(&median),
            "median one-way latency should sit in the tens of milliseconds, got {median}"
        );
    }

    #[test]
    fn shared_sampling_is_order_independent() {
        let m = KingLatencyModel::new().with_jitter(0.0);
        let mut r1 = rng();
        let mut r2 = rng();
        // Sampling pairs in different orders must not change any pair's latency.
        let forward: Vec<_> = (0..20u64)
            .map(|i| m.sample_shared(NodeId::new(i), NodeId::new(i + 20), &mut r1))
            .collect();
        let mut backward: Vec<_> = (0..20u64)
            .rev()
            .map(|i| m.sample_shared(NodeId::new(i), NodeId::new(i + 20), &mut r2))
            .collect();
        backward.reverse();
        assert_eq!(forward, backward);
        assert!(forward.iter().all(|d| d.as_millis() >= 1));
    }

    #[test]
    fn shared_king_sampling_is_realistic() {
        let m = KingLatencyModel::new();
        let mut r = rng();
        let mut samples: Vec<u64> = Vec::new();
        for i in 0..500u64 {
            samples.push(
                m.sample_shared(NodeId::new(i), NodeId::new(i + 500), &mut r)
                    .as_millis(),
            );
        }
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        assert!(
            (20..=120).contains(&median),
            "hash-derived coordinates should keep the King-like shape, got median {median}"
        );
    }

    #[test]
    fn constant_and_uniform_shared_sampling_match_contract() {
        let m = ConstantLatency::new(SimDuration::from_millis(7));
        let mut r = rng();
        assert_eq!(
            m.sample_shared(NodeId::new(0), NodeId::new(1), &mut r),
            SimDuration::from_millis(7)
        );
    }

    #[test]
    fn king_latency_is_heterogeneous() {
        let mut m = KingLatencyModel::new();
        let mut r = rng();
        let mut min = u64::MAX;
        let mut max = 0;
        for i in 0..50u64 {
            let d = m
                .sample(NodeId::new(i), NodeId::new(i + 50), &mut r)
                .as_millis();
            min = min.min(d);
            max = max.max(d);
        }
        assert!(
            max > min * 2,
            "latency matrix should be heterogeneous (min={min}, max={max})"
        );
    }
}
