//! The id → dense-rank index shared by [`CsrGraph`](crate::graph::CsrGraph) and the
//! incremental trackers: rank = position in the ascending list of observed ids.

use croupier_simulator::NodeId;

use crate::snapshot::OverlaySnapshot;

/// Marker for "id not observed in this sample" in a rank lookup table.
pub(crate) const NO_RANK: u32 = u32::MAX;

/// A sample is treated as dense when the id range is at most this many times the node
/// count (plus slack for tiny snapshots). Engine captures always qualify — ids are arena
/// slots assigned from zero, and even heavy churn replaces the population a handful of
/// times per run — while hand-built snapshots with huge ids fall back to binary search
/// rather than allocating an id-range-sized table.
const DENSE_RANGE_FACTOR: u64 = 32;

/// Whether `n` nodes with ids below `bound` qualify for an id-indexed lookup table.
pub(crate) fn is_dense(n: usize, bound: u64) -> bool {
    bound <= (n as u64).saturating_mul(DENSE_RANGE_FACTOR) + 1024
}

/// The observed ids of one sample in ascending order, with an O(1) id → rank lookup when
/// the id space is dense. Every buffer is reused from sample to sample.
#[derive(Clone, Debug, Default)]
pub(crate) struct RankTable {
    /// Rank → node id, ascending.
    ids: Vec<NodeId>,
    /// Id-indexed rank table, valid where `lookup_stamp[id] == stamp`. Used only when the
    /// id space is dense; sparse snapshots binary-search `ids` instead.
    lookup: Vec<u32>,
    lookup_stamp: Vec<u32>,
    stamp: u32,
    dense: bool,
}

impl RankTable {
    /// Re-ranks the nodes of `snapshot`.
    pub(crate) fn rebuild(&mut self, snapshot: &OverlaySnapshot) {
        self.ids.clear();
        self.ids.extend(snapshot.nodes.iter().map(|n| n.id));
        // `capture` sorts observations by id; tolerate hand-built snapshots that do not.
        if !self.ids.windows(2).all(|w| w[0] < w[1]) {
            self.ids.sort_unstable();
            self.ids.dedup();
        }
        // Stamp a fresh id → rank epoch. The table is sized by the engine-reported dense
        // id bound (ids double as arena slot indices), falling back to the largest
        // observed id for snapshots assembled by hand.
        let bound = snapshot.id_upper_bound().max(
            self.ids
                .last()
                .map_or(0, |id| id.as_u64().saturating_add(1)),
        );
        self.dense = is_dense(self.ids.len(), bound);
        if !self.dense {
            return;
        }
        let bound = bound as usize;
        if self.lookup.len() < bound {
            self.lookup.resize(bound, NO_RANK);
            self.lookup_stamp.resize(bound, 0);
        }
        self.stamp = match self.stamp.checked_add(1) {
            Some(next) => next,
            None => {
                self.lookup_stamp.fill(0);
                1
            }
        };
        for (rank, id) in self.ids.iter().enumerate() {
            let slot = id.as_u64() as usize;
            self.lookup[slot] = rank as u32;
            self.lookup_stamp[slot] = self.stamp;
        }
    }

    /// The dense rank of `id` in the current sample, if the node was observed.
    #[inline]
    pub(crate) fn rank_of(&self, id: NodeId) -> Option<u32> {
        if self.dense {
            let slot = id.as_u64() as usize;
            if slot < self.lookup.len() && self.lookup_stamp[slot] == self.stamp {
                Some(self.lookup[slot])
            } else {
                None
            }
        } else {
            self.ids.binary_search(&id).ok().map(|rank| rank as u32)
        }
    }

    /// Rank → node id, ascending.
    #[inline]
    pub(crate) fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// Slots allocated for the id-indexed table so far.
    #[cfg(test)]
    pub(crate) fn lookup_len(&self) -> usize {
        self.lookup.len()
    }
}
