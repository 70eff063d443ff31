//! Bounded partial views: the bootstrap rule every protocol joins with, and the paper's
//! tail selection and swapper merge.

use croupier_simulator::{Context, NatClass, NodeId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::descriptor::{Descriptor, DescriptorBatch, DESCRIPTOR_INLINE_CAPACITY};

/// A bounded partial view: an ordered set of [`Descriptor`]s with at most `capacity`
/// entries and at most one entry per node.
///
/// Croupier keeps two views per node (public and private); the baseline protocols reuse the
/// same type for their single view. The type implements the operations of Algorithm 2 of
/// the paper: bootstrapping, aging, tail (oldest) selection, random subset extraction, and
/// the `updateView` merge with the *swapper* replacement policy.
///
/// # Examples
///
/// ```
/// use croupier::{Descriptor, View};
/// use croupier_simulator::{NatClass, NodeId};
///
/// let mut view = View::new(3);
/// for i in 0..5u64 {
///     view.insert(Descriptor::new(NodeId::new(i), NatClass::Public));
/// }
/// // Bounded at capacity, keeping the first three inserted.
/// assert_eq!(view.len(), 3);
/// assert!(view.iter().all(|d| d.node().as_u64() < 3));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct View {
    capacity: usize,
    entries: Vec<Descriptor>,
}

impl View {
    /// Creates an empty view with the given capacity.
    pub fn new(capacity: usize) -> Self {
        View {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the view holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` when the view is at capacity.
    pub(crate) fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Returns `true` if a descriptor for `node` is present.
    pub fn contains(&self, node: NodeId) -> bool {
        self.entries.iter().any(|d| d.node() == node)
    }

    /// The descriptor for `node`, if present.
    pub fn get(&self, node: NodeId) -> Option<&Descriptor> {
        self.entries.iter().find(|d| d.node() == node)
    }

    /// Iterates over the descriptors in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Descriptor> {
        self.entries.iter()
    }

    /// Ages every descriptor by one round.
    pub fn increment_ages(&mut self) {
        for d in &mut self.entries {
            d.grow_older();
        }
    }

    /// Inserts `descriptor` if its node is absent and there is free space.
    ///
    /// Returns `true` if the descriptor was inserted. Use
    /// `refresh_or_insert` to also update existing entries.
    pub fn insert(&mut self, descriptor: Descriptor) -> bool {
        if self.contains(descriptor.node()) || self.is_full() {
            return false;
        }
        self.entries.push(descriptor);
        true
    }

    /// Inserts `descriptor`, or — if an entry for the same node already exists — replaces
    /// it when `descriptor` is fresher. Returns `true` if the view changed.
    pub(crate) fn refresh_or_insert(&mut self, descriptor: Descriptor) -> bool {
        if let Some(existing) = self
            .entries
            .iter_mut()
            .find(|d| d.node() == descriptor.node())
        {
            if descriptor.is_newer_than(existing) {
                *existing = descriptor;
                return true;
            }
            return false;
        }
        self.insert(descriptor)
    }

    /// Inserts up to `count` public nodes drawn from the bootstrap server, never more than
    /// the view's capacity. The draw excludes the calling node, and it is made even when the
    /// view is full, so the node's random stream advances the same way whatever the view
    /// holds.
    pub fn bootstrap<M>(&mut self, count: usize, ctx: &mut Context<'_, M>) {
        for node in ctx.bootstrap_sample(count.min(self.capacity)) {
            self.insert(Descriptor::new(node, NatClass::Public));
        }
    }

    /// Removes and returns the descriptor for `node`.
    pub fn remove(&mut self, node: NodeId) -> Option<Descriptor> {
        let index = self.entries.iter().position(|d| d.node() == node)?;
        Some(self.entries.remove(index))
    }

    /// The descriptor with the highest age (ties broken by insertion order). This is the
    /// *tail* selection policy of the paper.
    pub fn oldest(&self) -> Option<&Descriptor> {
        self.entries.iter().max_by_key(|d| d.age())
    }

    /// A descriptor chosen uniformly at random.
    pub fn random(&self, rng: &mut SmallRng) -> Option<&Descriptor> {
        self.entries.choose(rng)
    }

    /// Up to `count` distinct descriptors chosen uniformly at random, in random order.
    ///
    /// Implemented as a partial Fisher–Yates over the entries in place: it draws only
    /// `min(count, len)` random numbers, and the subset is returned inline (a
    /// [`DescriptorBatch`]), so a shuffle extracts its subsets with zero
    /// heap allocations. The side effect is that the selected entries are swapped to the
    /// front of the view; entry order carries no protocol meaning (membership, ages and
    /// capacity are unaffected), it only breaks ties in [`oldest`](View::oldest)
    /// deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds [`DESCRIPTOR_INLINE_CAPACITY`], the most a
    /// [`DescriptorBatch`] holds.
    pub fn random_subset(&mut self, count: usize, rng: &mut SmallRng) -> DescriptorBatch {
        assert!(
            count <= DESCRIPTOR_INLINE_CAPACITY,
            "a subset of {count} exceeds the batch capacity of {DESCRIPTOR_INLINE_CAPACITY}"
        );
        let len = self.entries.len();
        let count = count.min(len);
        let mut subset = DescriptorBatch::new();
        for i in 0..count {
            // gen_range panics on an empty range; the final position needs no draw.
            if len - i > 1 {
                let j = rng.gen_range(i..len);
                self.entries.swap(i, j);
            }
            subset.push(self.entries[i]);
        }
        subset
    }

    /// The paper's `updateView` procedure (Algorithm 2, lines 46–58) with the *swapper*
    /// replacement policy.
    ///
    /// For every received descriptor (skipping `self_node` and stale duplicates):
    ///
    /// 1. if the node is already in the view, keep whichever descriptor is fresher;
    /// 2. otherwise, if there is free space, add it;
    /// 3. otherwise, evict one of the descriptors in `sent` (the entries that were shipped
    ///    to the peer in this exchange) and add the received descriptor in its place.
    pub fn apply_exchange_swapper(
        &mut self,
        sent: &[Descriptor],
        received: &[Descriptor],
        self_node: NodeId,
    ) {
        // Eviction candidates are consumed front-to-back straight off `sent`; the cursor
        // replaces the scratch list of node ids the old implementation allocated per
        // exchange.
        let mut next_victim = 0usize;
        for descriptor in received {
            if descriptor.node() == self_node {
                continue;
            }
            if self.contains(descriptor.node()) {
                self.refresh_or_insert(*descriptor);
                continue;
            }
            if !self.is_full() {
                self.insert(*descriptor);
                continue;
            }
            // Swapper: evict an entry we sent to the peer; the peer now knows it, so no
            // information is lost system-wide. If no sent entry is left to swap out, the
            // received descriptor is dropped.
            while next_victim < sent.len() {
                let victim = sent[next_victim].node();
                next_victim += 1;
                if self.remove(victim).is_some() {
                    self.insert(*descriptor);
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use croupier_simulator::{BootstrapRegistry, ContextParams, SimDuration, SimTime};
    use rand::SeedableRng;

    fn d(node: u64, age: u32) -> Descriptor {
        Descriptor::with_age(NodeId::new(node), NatClass::Public, age)
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(77)
    }

    /// A bootstrap server that knows the public nodes `0..n`.
    fn registry(n: u64) -> BootstrapRegistry {
        let mut registry = BootstrapRegistry::new();
        for i in 0..n {
            registry.register(NodeId::new(i));
        }
        registry
    }

    /// Runs `f` with a context for node `caller` on the stream seeded by `seed`, and returns
    /// what `f` returned together with the stream's next `u64`.
    fn with_ctx<T>(
        caller: u64,
        seed: u64,
        registry: &BootstrapRegistry,
        f: impl FnOnce(&mut Context<'_, ()>) -> T,
    ) -> (T, u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let out = f(&mut Context::new(ContextParams {
            node: NodeId::new(caller),
            now: SimTime::ZERO,
            round_period: SimDuration::from_secs(1),
            reply_horizon: SimDuration::ZERO,
            rng: &mut rng,
            bootstrap: registry,
        }));
        (out, rng.gen())
    }

    #[test]
    fn bootstrap_never_inserts_the_caller_and_respects_count_and_capacity() {
        let server = registry(20);
        for seed in 0..50 {
            for (count, expected) in [(0, 0), (4, 4), (10, 10), (30, 10)] {
                let mut v = View::new(10);
                with_ctx(3, seed, &server, |ctx| v.bootstrap(count, ctx));
                assert_eq!(v.len(), expected, "seed {seed} count {count}");
                assert!(
                    !v.contains(NodeId::new(3)),
                    "the caller joined its own view"
                );
                assert!(v.iter().all(|d| d.class().is_public() && d.age() == 0));
            }
        }
        // A server that knows only the caller and one other node yields that one node.
        let mut v = View::new(10);
        with_ctx(0, 1, &registry(2), |ctx| v.bootstrap(5, ctx));
        assert!(v.iter().map(|d| d.node()).eq([NodeId::new(1)]));
    }

    #[test]
    fn bootstrap_leaves_a_full_view_unchanged() {
        let mut v = View::new(3);
        for i in 100..103 {
            v.insert(d(i, 4));
        }
        let before = v.clone();
        with_ctx(7, 2, &registry(20), |ctx| v.bootstrap(3, ctx));
        assert_eq!(v, before);
    }

    #[test]
    fn bootstrap_draws_exactly_what_a_direct_sample_draws() {
        let server = registry(30);
        for seed in 0..20 {
            for (capacity, count, prefill) in [(10, 10, 0), (10, 4, 0), (5, 12, 0), (3, 3, 3)] {
                let mut v = View::new(capacity);
                for i in 0..prefill {
                    v.insert(d(200 + i, 0));
                }
                let before: Vec<NodeId> = v.iter().map(|d| d.node()).collect();
                let ((), next) = with_ctx(5, seed, &server, |ctx| v.bootstrap(count, ctx));
                let (sample, twin_next) = with_ctx(5, seed, &server, |ctx| {
                    ctx.bootstrap_sample(count.min(capacity))
                });
                assert_eq!(next, twin_next, "the twin streams diverged (seed {seed})");
                let mut expected = before;
                expected.extend(sample.into_iter().take(capacity - prefill as usize));
                let after: Vec<NodeId> = v.iter().map(|d| d.node()).collect();
                assert_eq!(after, expected, "seed {seed}");
            }
        }
    }

    #[test]
    fn insert_respects_capacity_and_uniqueness() {
        let mut v = View::new(2);
        assert!(v.insert(d(1, 0)));
        assert!(!v.insert(d(1, 5)), "duplicate node rejected");
        assert!(v.insert(d(2, 0)));
        assert!(!v.insert(d(3, 0)), "capacity reached");
        assert_eq!(v.len(), 2);
        assert!(v.is_full());
    }

    #[test]
    fn refresh_or_insert_keeps_the_freshest() {
        let mut v = View::new(4);
        v.insert(d(1, 5));
        assert!(
            v.refresh_or_insert(d(1, 2)),
            "newer descriptor replaces older"
        );
        assert_eq!(v.get(NodeId::new(1)).unwrap().age(), 2);
        assert!(!v.refresh_or_insert(d(1, 9)), "older descriptor is ignored");
        assert_eq!(v.get(NodeId::new(1)).unwrap().age(), 2);
    }

    #[test]
    fn oldest_implements_tail_selection() {
        let mut v = View::new(4);
        v.insert(d(1, 3));
        v.insert(d(2, 7));
        v.insert(d(3, 1));
        assert_eq!(v.oldest().unwrap().node(), NodeId::new(2));
    }

    #[test]
    fn increment_ages_touches_every_entry() {
        let mut v = View::new(4);
        v.insert(d(1, 0));
        v.insert(d(2, 4));
        v.increment_ages();
        assert_eq!(v.get(NodeId::new(1)).unwrap().age(), 1);
        assert_eq!(v.get(NodeId::new(2)).unwrap().age(), 5);
    }

    #[test]
    fn random_subset_is_bounded_and_distinct() {
        let mut v = View::new(10);
        for i in 0..10 {
            v.insert(d(i, 0));
        }
        let mut r = rng();
        let subset = v.random_subset(4, &mut r);
        assert_eq!(subset.len(), 4);
        let mut nodes: Vec<_> = subset.iter().map(|x| x.node()).collect();
        nodes.sort();
        nodes.dedup();
        assert_eq!(nodes.len(), 4);
        assert!(View::new(3).random_subset(2, &mut r).is_empty());
        assert_eq!(v.len(), 10, "in-place selection must not change membership");

        let mut small = View::new(3);
        for i in 0..3 {
            small.insert(d(i, 0));
        }
        let all = small.random_subset(5, &mut r);
        assert_eq!(
            all.len(),
            3,
            "a count above the view's length takes the whole view"
        );
        let mut nodes: Vec<_> = all.iter().map(|x| x.node()).collect();
        nodes.sort();
        assert_eq!(nodes, [0, 1, 2].map(NodeId::new));
    }

    #[test]
    #[should_panic(expected = "exceeds the batch capacity")]
    fn random_subset_rejects_counts_above_the_batch_capacity() {
        let mut v = View::new(10);
        v.random_subset(DESCRIPTOR_INLINE_CAPACITY + 1, &mut rng());
    }

    #[test]
    fn swapper_adds_when_space_is_free() {
        let mut v = View::new(5);
        v.insert(d(1, 0));
        v.apply_exchange_swapper(&[], &[d(2, 0), d(3, 1)], NodeId::new(99));
        assert_eq!(v.len(), 3);
        assert!(v.contains(NodeId::new(2)));
        assert!(v.contains(NodeId::new(3)));
    }

    #[test]
    fn swapper_never_adds_self() {
        let mut v = View::new(5);
        v.apply_exchange_swapper(&[], &[d(7, 0)], NodeId::new(7));
        assert!(v.is_empty());
    }

    #[test]
    fn swapper_replaces_sent_entries_when_full() {
        let mut v = View::new(3);
        v.insert(d(1, 0));
        v.insert(d(2, 0));
        v.insert(d(3, 0));
        // We sent descriptors 1 and 2 to the peer; the peer sends us 10 and 11.
        v.apply_exchange_swapper(&[d(1, 0), d(2, 0)], &[d(10, 0), d(11, 0)], NodeId::new(99));
        assert_eq!(v.len(), 3);
        assert!(!v.contains(NodeId::new(1)));
        assert!(!v.contains(NodeId::new(2)));
        assert!(v.contains(NodeId::new(3)));
        assert!(v.contains(NodeId::new(10)));
        assert!(v.contains(NodeId::new(11)));
    }

    #[test]
    fn swapper_drops_excess_when_nothing_left_to_swap() {
        let mut v = View::new(2);
        v.insert(d(1, 0));
        v.insert(d(2, 0));
        // Full view, nothing was sent: received descriptors are dropped.
        v.apply_exchange_swapper(&[], &[d(10, 0), d(11, 0)], NodeId::new(99));
        assert_eq!(v.len(), 2);
        assert!(v.contains(NodeId::new(1)));
        assert!(v.contains(NodeId::new(2)));
    }

    #[test]
    fn swapper_updates_age_of_known_nodes() {
        let mut v = View::new(2);
        v.insert(d(1, 8));
        v.insert(d(2, 0));
        v.apply_exchange_swapper(&[d(2, 0)], &[d(1, 1)], NodeId::new(99));
        // Node 1 was already known: only its age is refreshed, node 2 is not evicted.
        assert_eq!(v.get(NodeId::new(1)).unwrap().age(), 1);
        assert!(v.contains(NodeId::new(2)));
    }

    #[test]
    fn remove_returns_the_descriptor() {
        let mut v = View::new(3);
        v.insert(d(1, 4));
        let removed = v.remove(NodeId::new(1)).unwrap();
        assert_eq!(removed.age(), 4);
        assert!(v.remove(NodeId::new(1)).is_none());
        assert!(v.is_empty());
    }

    #[test]
    fn nodes_lists_members() {
        let mut v = View::new(3);
        v.insert(d(5, 0));
        v.insert(d(6, 0));
        let nodes: Vec<NodeId> = v.iter().map(|d| d.node()).collect();
        assert!(nodes.contains(&NodeId::new(5)));
        assert!(nodes.contains(&NodeId::new(6)));
        assert_eq!(nodes.len(), 2);
    }
}
