//! A flat, dense slot arena for per-node state.
//!
//! Both engines used to keep node state in a `HashMap<NodeId, _>`; at large system sizes
//! the hash probing and pointer chasing on every event dominated the hot path. The arena
//! stores slots in a single contiguous `Vec` indexed directly by a small integer (the raw
//! node id in the event engine, the shard-local stripe index in the sharded engine), so a
//! node lookup is one bounds check plus one indexed load and iteration is a linear scan.
//!
//! The arena is sized by the largest index ever inserted, so it assumes **dense indices**:
//! experiments assign node ids sequentially from zero, which is exactly that. Removing a
//! node leaves a vacant slot that a later insert with the same index may reuse.

/// A dense, index-addressed arena of slots.
#[derive(Clone, Debug)]
pub(crate) struct NodeArena<T> {
    slots: Vec<Option<T>>,
    live: usize,
}

/// Upper bound on arena indices; catches accidental use of hash-like (sparse) node ids,
/// which would make the backing `Vec` allocation explode.
pub(crate) const MAX_ARENA_INDEX: usize = 1 << 28;

impl<T> NodeArena<T> {
    /// Creates an empty arena.
    pub(crate) fn new() -> Self {
        NodeArena {
            slots: Vec::new(),
            live: 0,
        }
    }

    /// Inserts `value` at `index`, returning the previous occupant if the slot was full.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds [`MAX_ARENA_INDEX`] — the arena is meant for dense,
    /// sequentially assigned indices, not hash-like identifiers.
    pub(crate) fn insert(&mut self, index: usize, value: T) -> Option<T> {
        assert!(
            index <= MAX_ARENA_INDEX,
            "arena index {index} is too sparse; node ids must be assigned densely"
        );
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        let previous = self.slots[index].replace(value);
        if previous.is_none() {
            self.live += 1;
        }
        previous
    }

    /// Removes and returns the value at `index`, if any.
    pub(crate) fn remove(&mut self, index: usize) -> Option<T> {
        let value = self.slots.get_mut(index).and_then(Option::take);
        if value.is_some() {
            self.live -= 1;
        }
        value
    }

    /// Shared access to the value at `index`.
    pub(crate) fn get(&self, index: usize) -> Option<&T> {
        self.slots.get(index).and_then(Option::as_ref)
    }

    /// Exclusive access to the value at `index`.
    pub(crate) fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        self.slots.get_mut(index).and_then(Option::as_mut)
    }

    /// Returns `true` if the slot at `index` is occupied.
    pub(crate) fn contains(&self, index: usize) -> bool {
        matches!(self.slots.get(index), Some(Some(_)))
    }

    /// Number of occupied slots.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Exclusive upper bound on the indices of occupied slots: every occupied index is
    /// strictly below this value. The bound only grows over the arena's lifetime (removals
    /// leave vacant slots), which makes it a stable size for dense index-addressed side
    /// tables — the metrics pipeline uses it to map node ids to array slots without any
    /// hashing.
    pub(crate) fn slot_upper_bound(&self) -> usize {
        self.slots.len()
    }

    /// Iterates over `(index, &value)` pairs of occupied slots in ascending index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|v| (i, v)))
    }
}

impl<T> Default for NodeArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_order_inserts_are_counted_and_removable() {
        let mut arena: NodeArena<&str> = NodeArena::new();
        arena.insert(2, "c");
        arena.insert(0, "a");
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(2), Some(&"c"));
        assert_eq!(arena.remove(2), Some("c"));
        assert!(!arena.contains(2));
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut arena = NodeArena::new();
        assert_eq!(arena.len(), 0);
        assert_eq!(arena.insert(3, 30), None);
        assert_eq!(arena.insert(1, 10), None);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(3), Some(&30));
        assert_eq!(arena.get(2), None);
        *arena.get_mut(1).unwrap() += 5;
        assert_eq!(arena.remove(1), Some(15));
        assert_eq!(arena.remove(1), None);
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn insert_replaces_and_reports_previous() {
        let mut arena = NodeArena::new();
        arena.insert(0, "old");
        assert_eq!(arena.insert(0, "new"), Some("old"));
        assert_eq!(arena.len(), 1, "replacement must not change the live count");
    }

    #[test]
    fn iteration_is_in_index_order_and_skips_vacant() {
        let mut arena = NodeArena::new();
        for i in [5usize, 0, 9, 2] {
            arena.insert(i, i * 10);
        }
        arena.remove(9);
        let seen: Vec<(usize, usize)> = arena.iter().map(|(i, v)| (i, *v)).collect();
        assert_eq!(seen, vec![(0, 0), (2, 20), (5, 50)]);
        assert_eq!(
            arena.slot_upper_bound(),
            10,
            "the bound covers the highest index ever inserted, vacant or not"
        );
    }

    #[test]
    fn removed_slot_can_be_reused() {
        let mut arena = NodeArena::new();
        arena.insert(4, 'a');
        arena.remove(4);
        assert!(!arena.contains(4));
        arena.insert(4, 'b');
        assert_eq!(arena.get(4), Some(&'b'));
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn churn_reuses_slots_without_growing_the_bound() {
        let mut arena = NodeArena::new();
        for i in 0..16usize {
            arena.insert(i, i);
        }
        let bound = arena.slot_upper_bound();
        // Many remove/re-insert generations over the same index range: the backing
        // storage must not grow, and the live count must track the churn exactly.
        for generation in 1..=50usize {
            for i in (0..16).step_by(3) {
                assert!(arena.remove(i).is_some());
            }
            assert_eq!(arena.len(), 16 - 6);
            for i in (0..16).step_by(3) {
                assert_eq!(arena.insert(i, generation * 100 + i), None);
            }
            assert_eq!(arena.len(), 16);
            assert_eq!(
                arena.slot_upper_bound(),
                bound,
                "slot reuse must not grow the arena"
            );
        }
        assert_eq!(arena.get(3), Some(&5003));
        assert_eq!(arena.get(1), Some(&1), "untouched slots keep their values");
    }

    #[test]
    #[should_panic(expected = "assigned densely")]
    fn sparse_indices_are_rejected() {
        let mut arena = NodeArena::new();
        arena.insert(MAX_ARENA_INDEX + 1, 0u8);
    }
}
