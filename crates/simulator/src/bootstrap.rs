//! The bootstrap server.
//!
//! The paper assumes a bootstrap server that hands joining nodes a set of public nodes
//! (§V: "a number of public nodes returned by a bootstrap server"). The registry below
//! plays that role: experiments register public nodes as they join, and protocols sample
//! from it through [`Context::bootstrap_sample`](crate::Context::bootstrap_sample) when they
//! initialise their views or run the NAT-type identification protocol.

use std::collections::HashSet;

use rand::rngs::SmallRng;
use rand::seq::index::sample as index_sample;

use crate::types::NodeId;

/// Registry of public nodes known to the bootstrap server.
#[derive(Clone, Debug, Default)]
pub struct BootstrapRegistry {
    public_nodes: Vec<NodeId>,
    members: HashSet<NodeId>,
}

impl BootstrapRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        BootstrapRegistry::default()
    }

    /// Registers `node` as a public node available to joiners. Duplicate registrations are
    /// ignored.
    pub fn register(&mut self, node: NodeId) {
        if self.members.insert(node) {
            self.public_nodes.push(node);
        }
    }

    /// Removes `node` (it failed or left the system).
    pub(crate) fn unregister(&mut self, node: NodeId) {
        if self.members.remove(&node) {
            self.public_nodes.retain(|n| *n != node);
        }
    }

    /// Samples up to `count` distinct public nodes uniformly at random.
    pub(crate) fn sample(&self, count: usize, rng: &mut SmallRng) -> Vec<NodeId> {
        let n = self.public_nodes.len();
        if n == 0 || count == 0 {
            return Vec::new();
        }
        let amount = count.min(n);
        index_sample(rng, n, amount)
            .into_iter()
            .map(|i| self.public_nodes[i])
            .collect()
    }

    /// Samples up to `count` distinct public nodes, never returning `excluded`.
    pub(crate) fn sample_excluding(
        &self,
        count: usize,
        excluded: NodeId,
        rng: &mut SmallRng,
    ) -> Vec<NodeId> {
        // Sample one extra so that filtering out `excluded` still leaves `count` candidates
        // whenever possible.
        let mut candidates = self.sample(count + 1, rng);
        candidates.retain(|n| *n != excluded);
        candidates.truncate(count);
        candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(5)
    }

    #[test]
    fn register_and_unregister() {
        let mut b = BootstrapRegistry::new();
        b.register(NodeId::new(1));
        b.register(NodeId::new(2));
        b.register(NodeId::new(1)); // duplicate ignored
        assert_eq!(b.public_nodes.len(), 2);
        assert!(b.members.contains(&NodeId::new(1)));
        b.unregister(NodeId::new(1));
        assert!(!b.members.contains(&NodeId::new(1)));
        assert_eq!(b.public_nodes.len(), 1);
    }

    #[test]
    fn sample_returns_distinct_members() {
        let mut b = BootstrapRegistry::new();
        for i in 0..20 {
            b.register(NodeId::new(i));
        }
        let mut r = rng();
        let s = b.sample(10, &mut r);
        assert_eq!(s.len(), 10);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10, "samples must be distinct");
        assert!(s.iter().all(|n| b.members.contains(n)));
    }

    #[test]
    fn sample_never_exceeds_population() {
        let mut b = BootstrapRegistry::new();
        b.register(NodeId::new(1));
        b.register(NodeId::new(2));
        let mut r = rng();
        assert_eq!(b.sample(10, &mut r).len(), 2);
        assert!(b.sample(0, &mut r).is_empty());
    }

    #[test]
    fn sample_from_empty_registry_is_empty() {
        let b = BootstrapRegistry::new();
        let mut r = rng();
        assert!(b.sample(3, &mut r).is_empty());
        assert!(b.public_nodes.is_empty());
    }

    #[test]
    fn sample_excluding_filters_the_caller() {
        let mut b = BootstrapRegistry::new();
        for i in 0..5 {
            b.register(NodeId::new(i));
        }
        let mut r = rng();
        for _ in 0..50 {
            let s = b.sample_excluding(4, NodeId::new(0), &mut r);
            assert!(!s.contains(&NodeId::new(0)));
            assert!(s.len() <= 4);
        }
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        let mut b = BootstrapRegistry::new();
        for i in 0..10 {
            b.register(NodeId::new(i));
        }
        let mut r = rng();
        let mut counts = [0u32; 10];
        for _ in 0..5_000 {
            for n in b.sample(1, &mut r) {
                counts[n.as_u64() as usize] += 1;
            }
        }
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(
            max / min < 1.5,
            "bootstrap sampling should be roughly uniform: {counts:?}"
        );
    }
}
