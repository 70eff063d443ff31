//! The public/private ratio estimator (§VI, equations 1–9 of the paper).
//!
//! Croupiers (public nodes) count the shuffle requests they receive from public and private
//! senders per round. Over a sliding window of `α` rounds those counts yield a *local*
//! estimate `Eᵢ = Cᵤᵢ / (Cᵤᵢ + Cᵥᵢ)` (equation 6). Local estimates are piggy-backed on
//! shuffle messages and cached by every node for up to `γ` rounds; the node-level estimate
//! of ω averages the cached estimates (plus the node's own, if it is public — equations
//! 8 and 9).

use std::collections::VecDeque;

use croupier_simulator::{InlineVec, NatClass, NodeId};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::config::ESTIMATE_SHARE_SIZE;

/// Serialized size of one piggy-backed estimate, in bytes: two bytes of node identifier,
/// one byte each for the public and private request counts and one byte of timestamp —
/// exactly the encoding the paper charges 5 bytes for (§VII, protocol overhead).
pub(crate) const ESTIMATE_WIRE_BYTES: usize = 5;

/// Capacity of [`EstimateBatch`]: the paper's share size (10 estimates per message) plus
/// the sender's own estimate.
pub const ESTIMATE_INLINE_CAPACITY: usize = ESTIMATE_SHARE_SIZE + 1;

/// A bounded list of piggy-backed ratio estimates as carried in shuffle messages.
pub type EstimateBatch = InlineVec<EstimateRecord, ESTIMATE_INLINE_CAPACITY>;

/// Number of low bits of [`EstimateRecord`]'s packed word holding the origin identifier;
/// the remaining 24 high bits hold the age.
const ORIGIN_BITS: u32 = 40;
/// Mask selecting the origin-identifier bits.
const ORIGIN_MASK: u64 = (1 << ORIGIN_BITS) - 1;
/// The largest age an estimate record can carry (ages saturate here instead of wrapping).
const RECORD_AGE_MAX: u32 = (1u64 << (64 - ORIGIN_BITS)) as u32 - 1;

/// A ratio estimate produced by one croupier, as carried in shuffle messages.
///
/// The origin identifier and the age are bit-packed into one `u64` (origin in bits
/// `0..40`, age in bits `40..64`), shrinking the record from 24 padded bytes to 16 — at
/// a million nodes the pooled [`EstimateBatch`]es and per-node caches built from these
/// records are a first-order memory term. The ratio stays a full `f64`: it feeds float
/// averaging whose outputs the figure tests pin byte-identical, so its precision cannot
/// be reduced. Fields are reached through `origin` and
/// `age`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EstimateRecord {
    /// Origin identifier (low 40 bits) and age (high 24 bits).
    packed: u64,
    /// The estimated public/private ratio (equation 6).
    pub ratio: f64,
}

impl EstimateRecord {
    /// Creates a fresh estimate record.
    ///
    /// # Panics
    ///
    /// Panics if the origin identifier does not fit the packed layout's 40 id bits.
    pub fn new(origin: NodeId, ratio: f64) -> Self {
        EstimateRecord::with_age(origin, ratio, 0)
    }

    /// Creates an estimate record with an explicit age (saturated to the packed field's
    /// 24-bit range).
    ///
    /// # Panics
    ///
    /// Panics if the origin identifier does not fit the packed layout's 40 id bits.
    pub fn with_age(origin: NodeId, ratio: f64, age: u32) -> Self {
        let id = origin.as_u64();
        assert!(
            id <= ORIGIN_MASK,
            "origin id {id} exceeds the estimate record's 40-bit address space"
        );
        EstimateRecord {
            packed: id | ((age.min(RECORD_AGE_MAX) as u64) << ORIGIN_BITS),
            ratio,
        }
    }

    /// The public node that produced the estimate.
    pub(crate) const fn origin(self) -> NodeId {
        NodeId::new(self.packed & ORIGIN_MASK)
    }

    /// Rounds elapsed since the estimate was produced.
    pub(crate) const fn age(self) -> u32 {
        (self.packed >> ORIGIN_BITS) as u32
    }
}

/// Low bits of an `ingest` sort key that hold a record's position in its batch.
const ARRIVAL_BITS: u32 = 4;
/// Mask selecting a sort key's arrival bits.
const ARRIVAL_MASK: u64 = (1 << ARRIVAL_BITS) - 1;
const _: () = assert!(
    ESTIMATE_INLINE_CAPACITY <= 1 << ARRIVAL_BITS && ORIGIN_BITS + ARRIVAL_BITS < 64,
    "a batch position and an origin must fit one sort key below u64::MAX"
);

/// Mask of a birth stamp: the same 24 bits an [`EstimateRecord`] gives its age, so every
/// age a record can carry fits a stamp.
const STAMP_MASK: u64 = RECORD_AGE_MAX as u64;

/// One cached neighbour estimate: 16 bytes, the origin identifier (low 40 bits) packed
/// with the node-local round the estimate was *born* in (high 24 bits, modulo 2²⁴) next
/// to the ratio. Storing the birth round instead of an age means a round passing changes
/// no entry: the age is `current round − stamp` whenever somebody asks. Modular stamps
/// are unambiguous because no cached age ever exceeds [`RECORD_AGE_MAX`] (see
/// `RatioEstimator::max_cached_age`).
#[derive(Clone, Copy, Debug, Default)]
struct CachedEstimate {
    packed: u64,
    ratio: f64,
}

impl CachedEstimate {
    /// An estimate by `origin` that is `age` rounds old in local round `round`.
    fn new(origin: NodeId, ratio: f64, age: u32, round: u64) -> Self {
        let stamp = round.wrapping_sub(age as u64) & STAMP_MASK;
        CachedEstimate {
            packed: origin.as_u64() | (stamp << ORIGIN_BITS),
            ratio,
        }
    }

    fn origin(self) -> NodeId {
        NodeId::new(self.packed & ORIGIN_MASK)
    }

    /// Rounds elapsed since the estimate was produced, as of local round `round`.
    fn age(self, round: u64) -> u32 {
        (round.wrapping_sub(self.packed >> ORIGIN_BITS) & STAMP_MASK) as u32
    }
}

/// The per-node state of the distributed ratio-estimation algorithm.
///
/// # Examples
///
/// ```
/// use croupier::RatioEstimator;
/// use croupier_simulator::{NatClass, NodeId};
///
/// // A croupier that receives one public and four private requests per round converges to
/// // a local estimate of 0.2.
/// let mut est = RatioEstimator::new(NatClass::Public, 25, 50);
/// for _ in 0..30 {
///     est.record_request(NatClass::Public);
///     for _ in 0..4 {
///         est.record_request(NatClass::Private);
///     }
///     est.advance_round();
/// }
/// assert!((est.local_estimate().unwrap() - 0.2).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct RatioEstimator {
    class: NatClass,
    alpha: usize,
    gamma: u32,
    current_public_hits: u32,
    current_private_hits: u32,
    history: VecDeque<(u32, u32)>,
    /// Sums of the public and private hits in `history`, kept in step with every push
    /// and pop so the local estimate costs one division per round, not an α-entry fold.
    window_public_hits: u64,
    window_private_hits: u64,
    local_estimate: Option<f64>,
    /// Rounds this estimator has advanced through; cache stamps are relative to it.
    round: u64,
    // Sorted by origin id. Ascending-id iteration keeps whole simulation runs bit-for-bit
    // reproducible for a fixed seed (this replaced a BTreeMap with the same iteration
    // order); a flat sorted vector additionally makes the cache maintenance
    // allocation-free once its capacity has warmed up, where the tree allocated and freed
    // a node per insert/expiry.
    neighbour_estimates: Vec<CachedEstimate>,
    /// No cached estimate expires before this round (a lower bound: replacing the oldest
    /// entry with a fresher record leaves it early, never late). Until it is due
    /// `advance_round` does not look at the cache.
    next_expiry: u64,
}

impl RatioEstimator {
    /// Creates an estimator for a node of class `class` with a local history of `alpha`
    /// rounds and a neighbour history of `gamma` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is zero.
    pub fn new(class: NatClass, alpha: usize, gamma: u32) -> Self {
        assert!(alpha > 0, "alpha (local history) must be positive");
        RatioEstimator {
            class,
            alpha,
            gamma,
            current_public_hits: 0,
            current_private_hits: 0,
            history: VecDeque::with_capacity(alpha + 1),
            window_public_hits: 0,
            window_private_hits: 0,
            local_estimate: None,
            round: 0,
            neighbour_estimates: Vec::new(),
            next_expiry: u64::MAX,
        }
    }

    /// Records the receipt of one shuffle request from a sender of class `sender`.
    ///
    /// Only croupiers (public nodes) receive shuffle requests; calling this on a private
    /// node's estimator is harmless but has no effect on its estimate, which never uses a
    /// local component (equation 9).
    pub fn record_request(&mut self, sender: NatClass) {
        match sender {
            NatClass::Public => self.current_public_hits += 1,
            NatClass::Private => self.current_private_hits += 1,
        }
    }

    /// The oldest age a cached estimate may reach: `γ`, bounded by the largest age a
    /// record can carry. A larger `γ` still admits every record; it differs from the bound
    /// only for an estimate that has aged 2²⁴ rounds since its croupier produced it.
    fn max_cached_age(&self) -> u32 {
        self.gamma.min(RECORD_AGE_MAX)
    }

    /// Advances the estimator by one gossip round, following the order of Algorithm 2:
    /// cached neighbour estimates age (and expire after `γ` rounds), the local estimate is
    /// recomputed from the hit history of the last `α` rounds, and the current round's hit
    /// counters are pushed into the history.
    pub fn advance_round(&mut self) {
        // Ages are derived from the round counter, so aging is this increment; the cache
        // is walked only in a round where something can expire, and `retain` moves
        // nothing before the first entry it drops.
        self.round += 1;
        if self.round >= self.next_expiry {
            let (round, max_age) = (self.round, self.max_cached_age());
            let mut oldest = 0;
            self.neighbour_estimates.retain(|cached| {
                let age = cached.age(round);
                let live = age <= max_age;
                if live {
                    oldest = oldest.max(age);
                }
                live
            });
            self.next_expiry = if self.neighbour_estimates.is_empty() {
                u64::MAX
            } else {
                round + (max_age - oldest) as u64 + 1
            };
        }

        // Croupiers recompute their local estimate from the hit history (equation 6,
        // evaluated before the current round's counters are appended, as in Algorithm 2).
        if self.class.is_public() {
            if let Some(ratio) = self.hits_ratio() {
                self.local_estimate = Some(ratio);
            }
        }

        // Append the current round's counters and trim the window to α rounds.
        self.history
            .push_back((self.current_public_hits, self.current_private_hits));
        self.window_public_hits += self.current_public_hits as u64;
        self.window_private_hits += self.current_private_hits as u64;
        while self.history.len() > self.alpha {
            if let Some((public, private)) = self.history.pop_front() {
                self.window_public_hits -= public as u64;
                self.window_private_hits -= private as u64;
            }
        }
        self.current_public_hits = 0;
        self.current_private_hits = 0;
    }

    /// The ratio of public hits to total hits over the current history window (the paper's
    /// `CalcHitsRatio`), or `None` if no request has been received in the window.
    pub(crate) fn hits_ratio(&self) -> Option<f64> {
        let total = self.window_public_hits + self.window_private_hits;
        if total == 0 {
            None
        } else {
            Some(self.window_public_hits as f64 / total as f64)
        }
    }

    /// The node's own (local) estimate `Eᵢ`, if it has received any requests yet. Always
    /// `None` for private nodes.
    pub fn local_estimate(&self) -> Option<f64> {
        self.local_estimate
    }

    /// Ingests ratio estimates received from a peer, keeping for every origin the freshest
    /// record and discarding records older than `γ` or produced by `self_node`. Among
    /// equally fresh records the cached one, then the earliest received, is kept.
    pub fn ingest(&mut self, records: &[EstimateRecord], self_node: NodeId) {
        // Taking a batch in pieces keeps the record-by-record result, and a piece fits
        // the stack buffers of `ingest_batch`.
        for batch in records.chunks(ESTIMATE_INLINE_CAPACITY) {
            self.ingest_batch(batch, self_node);
        }
    }

    /// [`ingest`](Self::ingest) for at most [`ESTIMATE_INLINE_CAPACITY`] records, in one
    /// ordered pass. The usable records are ordered by origin and, per origin, the first of
    /// the freshest is kept: the record a record-by-record pass would keep. One forward walk
    /// over the sorted cache finds every kept record's slot and overwrites a strictly
    /// staler entry in place, and the new origins go in with one growth of the vector and
    /// one move of each tail segment, from the back.
    fn ingest_batch(&mut self, records: &[EstimateRecord], self_node: NodeId) {
        let (round, max_age) = (self.round, self.max_cached_age());
        // Each usable record as its origin above its arrival index, so that sorted keys
        // list an origin's records together and in arrival order. Unused keys stay at
        // `u64::MAX`, behind every real one.
        let mut keys = [u64::MAX; ESTIMATE_INLINE_CAPACITY];
        let mut n = 0;
        for (arrival, record) in records.iter().enumerate() {
            if record.origin() == self_node || record.age() > max_age {
                continue;
            }
            if !record.ratio.is_finite() || !(0.0..=1.0).contains(&record.ratio) {
                continue;
            }
            keys[n] = (record.origin().as_u64() << ARRIVAL_BITS) | arrival as u64;
            n += 1;
        }
        // Odd-even transposition sort: it never branches on the keys, so a batch in random
        // order costs no mispredicted branches, which an insertion sort pays at every step.
        // Over the 11 slots of a full message it is 55 comparators.
        for pass in 0..ESTIMATE_INLINE_CAPACITY {
            for i in (pass % 2..ESTIMATE_INLINE_CAPACITY - 1).step_by(2) {
                let (a, b) = (keys[i], keys[i + 1]);
                keys[i] = a.min(b);
                keys[i + 1] = a.max(b);
            }
        }

        // The walk reads the cache in order, which the hardware prefetches: a binary
        // search per record would wait on a chain of cache misses each, as the cache of a
        // node that last ran a while ago is cold.
        let cache = &mut self.neighbour_estimates;
        let mut slot = 0;
        let mut inserts = [(0, CachedEstimate::default()); ESTIMATE_INLINE_CAPACITY];
        let mut m = 0;
        let mut k = 0;
        while k < n {
            let origin = keys[k] >> ARRIVAL_BITS;
            let mut record = records[(keys[k] & ARRIVAL_MASK) as usize];
            k += 1;
            while k < n && keys[k] >> ARRIVAL_BITS == origin {
                let later = records[(keys[k] & ARRIVAL_MASK) as usize];
                if later.age() < record.age() {
                    record = later;
                }
                k += 1;
            }
            let fresh = CachedEstimate::new(record.origin(), record.ratio, record.age(), round);
            while cache
                .get(slot)
                .is_some_and(|c| c.origin() < record.origin())
            {
                slot += 1;
            }
            match cache.get_mut(slot) {
                Some(cached) if cached.origin() == record.origin() => {
                    if cached.age(round) <= record.age() {
                        continue;
                    }
                    *cached = fresh;
                }
                _ => {
                    inserts[m] = (slot, fresh);
                    m += 1;
                }
            }
            // Only records that went into the cache move the bound; it stays below every
            // live entry's expiry, so `advance_round` drops what it always dropped.
            self.next_expiry = self
                .next_expiry
                .min(round + (max_age - record.age()) as u64 + 1);
        }
        if m > 0 {
            self.insert_at_slots(&inserts[..m]);
        }
    }

    /// Inserts `(slot, entry)` pairs, slots ascending and taken in the cache as it stands,
    /// so that the cache stays sorted. The vector ends with the capacity `Vec`'s own
    /// growth reaches one insert at a time (doubling, and at least 4), so the cache's
    /// memory does not depend on how its records were batched.
    fn insert_at_slots(&mut self, inserts: &[(usize, CachedEstimate)]) {
        let cache = &mut self.neighbour_estimates;
        let old_len = cache.len();
        let new_len = old_len + inserts.len();
        let mut capacity = cache.capacity();
        while capacity < new_len {
            capacity = (capacity * 2).max(4);
        }
        cache.reserve_exact(capacity - old_len);
        cache.resize(new_len, CachedEstimate::default());
        // Entry `j` goes in front of the old entry at its slot, so the old entries from
        // that slot up to the next insert's slot move right by `j + 1`.
        let mut end = old_len;
        for (j, &(slot, entry)) in inserts.iter().enumerate().rev() {
            cache.copy_within(slot..end, slot + j + 1);
            cache[slot + j] = entry;
            end = slot;
        }
    }

    /// Returns up to `count` cached neighbour estimates chosen uniformly at random, plus the
    /// node's own estimate (fresh, age zero) if it has one — the payload piggy-backed on a
    /// shuffle message.
    ///
    /// The choice is a partial Fisher–Yates shuffle over cache *positions*: step `i` draws
    /// one position from `i..len`, and only the few positions a draw has displaced are
    /// remembered (inline), so the cost is `min(count, len)` random numbers and as many
    /// cache reads whatever the cache's size, with no copy of the cache and no allocation.
    /// The result is a uniformly random subset in uniformly random order.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds `ESTIMATE_SHARE_SIZE`: an [`EstimateBatch`] holds that
    /// many cached records and the node's own estimate.
    pub(crate) fn share(
        &mut self,
        count: usize,
        self_node: NodeId,
        rng: &mut SmallRng,
    ) -> EstimateBatch {
        assert!(
            count <= ESTIMATE_SHARE_SIZE,
            "a share of {count} exceeds the batch's room for {ESTIMATE_SHARE_SIZE} cached records"
        );
        let len = self.neighbour_estimates.len();
        let mut records = EstimateBatch::new();
        // `(position, the position whose entry now stands there)` for every position a
        // swap has touched; any other position still holds its own entry.
        let mut displaced: InlineVec<(usize, usize), ESTIMATE_INLINE_CAPACITY> = InlineVec::new();
        for i in 0..count.min(len) {
            let j = rng.gen_range(i..len);
            // Position `i` is never drawn again; whatever stands there moves to `j`, and
            // what stood at `j` is picked.
            let moved = displaced
                .iter()
                .find(|(at, _)| *at == i)
                .map_or(i, |(_, standing)| *standing);
            let picked = match displaced.iter_mut().find(|(at, _)| *at == j) {
                Some((_, standing)) => std::mem::replace(standing, moved),
                None => {
                    displaced.push((j, moved));
                    j
                }
            };
            let cached = self.neighbour_estimates[picked];
            records.push(EstimateRecord::with_age(
                cached.origin(),
                cached.ratio,
                cached.age(self.round),
            ));
        }
        if let Some(own) = self.local_estimate {
            if self.class.is_public() {
                records.push(EstimateRecord::new(self_node, own));
            }
        }
        records
    }

    /// The node-level estimate of ω (equations 8 and 9): the average of the cached
    /// neighbour estimates, including the node's own local estimate if it is a croupier.
    ///
    /// Returns `None` while the node has not collected any estimate yet.
    pub fn estimate(&self) -> Option<f64> {
        let mut sum: f64 = self.neighbour_estimates.iter().map(|c| c.ratio).sum();
        let mut count = self.neighbour_estimates.len();
        if self.class.is_public() {
            if let Some(own) = self.local_estimate {
                sum += own;
                count += 1;
            }
        }
        if count == 0 {
            None
        } else {
            Some(sum / count as f64)
        }
    }

    /// Number of cached neighbour estimates.
    pub fn cached_count(&self) -> usize {
        self.neighbour_estimates.len()
    }

    /// The capacity of the cache's vector.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.neighbour_estimates.capacity()
    }

    /// The cache as records, in ascending origin order.
    #[cfg(test)]
    fn contents(&self) -> Vec<EstimateRecord> {
        self.neighbour_estimates
            .iter()
            .map(|c| EstimateRecord::with_age(c.origin(), c.ratio, c.age(self.round)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator_reference::ReferenceEstimator;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(9)
    }

    #[test]
    fn local_estimate_tracks_hit_ratio() {
        let mut est = RatioEstimator::new(NatClass::Public, 10, 20);
        for _ in 0..5 {
            est.record_request(NatClass::Public);
            est.record_request(NatClass::Private);
            est.record_request(NatClass::Private);
            est.record_request(NatClass::Private);
            est.advance_round();
        }
        assert!((est.local_estimate().unwrap() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn local_estimate_uses_only_the_alpha_window() {
        let mut est = RatioEstimator::new(NatClass::Public, 3, 20);
        // Three rounds of only-public requests ...
        for _ in 0..3 {
            est.record_request(NatClass::Public);
            est.advance_round();
        }
        // ... then four rounds of only-private requests push the public rounds out of the
        // window entirely.
        for _ in 0..4 {
            est.record_request(NatClass::Private);
            est.advance_round();
        }
        assert!((est.local_estimate().unwrap() - 0.0).abs() < 1e-9);
        assert_eq!(est.hits_ratio(), Some(0.0));
    }

    #[test]
    fn local_estimate_survives_quiet_rounds() {
        let mut est = RatioEstimator::new(NatClass::Public, 2, 20);
        est.record_request(NatClass::Public);
        est.advance_round();
        // Rounds with no requests at all: the previous estimate is retained rather than
        // replaced by an undefined 0/0 ratio.
        est.advance_round();
        est.advance_round();
        assert_eq!(est.local_estimate(), Some(1.0));
    }

    #[test]
    fn private_nodes_never_have_a_local_estimate() {
        let mut est = RatioEstimator::new(NatClass::Private, 10, 20);
        est.record_request(NatClass::Public);
        est.advance_round();
        assert_eq!(est.local_estimate(), None);
    }

    #[test]
    fn estimate_averages_neighbours_and_self() {
        let mut est = RatioEstimator::new(NatClass::Public, 5, 20);
        // Local estimate becomes 0.5.
        est.record_request(NatClass::Public);
        est.record_request(NatClass::Private);
        est.advance_round();
        est.advance_round();
        est.ingest(
            &[
                EstimateRecord::new(NodeId::new(1), 0.2),
                EstimateRecord::new(NodeId::new(2), 0.3),
            ],
            NodeId::new(0),
        );
        // Equation 8: (0.2 + 0.3 + 0.5) / 3.
        let e = est.estimate().unwrap();
        assert!((e - 1.0 / 3.0).abs() < 1e-9, "estimate was {e}");
    }

    #[test]
    fn private_estimate_averages_only_neighbours() {
        let mut est = RatioEstimator::new(NatClass::Private, 5, 20);
        assert_eq!(est.estimate(), None);
        est.ingest(
            &[
                EstimateRecord::new(NodeId::new(1), 0.2),
                EstimateRecord::new(NodeId::new(2), 0.4),
            ],
            NodeId::new(0),
        );
        assert!((est.estimate().unwrap() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn ingest_keeps_the_freshest_record_per_origin() {
        let mut est = RatioEstimator::new(NatClass::Private, 5, 20);
        est.ingest(
            &[EstimateRecord::with_age(NodeId::new(1), 0.9, 10)],
            NodeId::new(0),
        );
        est.ingest(
            &[EstimateRecord::with_age(NodeId::new(1), 0.1, 2)],
            NodeId::new(0),
        );
        assert!((est.estimate().unwrap() - 0.1).abs() < 1e-9);
        // An older record does not overwrite the fresher one.
        est.ingest(
            &[EstimateRecord::with_age(NodeId::new(1), 0.9, 15)],
            NodeId::new(0),
        );
        assert!((est.estimate().unwrap() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn ingest_rejects_own_stale_and_invalid_records() {
        let mut est = RatioEstimator::new(NatClass::Private, 5, 10);
        est.ingest(
            &[
                EstimateRecord::new(NodeId::new(0), 0.5),          // self
                EstimateRecord::with_age(NodeId::new(1), 0.5, 11), // too old
                EstimateRecord::new(NodeId::new(2), f64::NAN),     // invalid
                EstimateRecord::new(NodeId::new(3), 1.5),          // out of range
            ],
            NodeId::new(0),
        );
        assert_eq!(est.cached_count(), 0);
        assert_eq!(est.estimate(), None);
    }

    #[test]
    fn neighbour_estimates_expire_after_gamma_rounds() {
        let mut est = RatioEstimator::new(NatClass::Private, 5, 3);
        est.ingest(&[EstimateRecord::new(NodeId::new(1), 0.4)], NodeId::new(0));
        for _ in 0..3 {
            est.advance_round();
        }
        assert_eq!(est.cached_count(), 1);
        est.advance_round();
        assert_eq!(est.cached_count(), 0);
        assert_eq!(est.estimate(), None);
    }

    #[test]
    fn share_bounds_the_payload_and_appends_own_estimate() {
        let mut est = RatioEstimator::new(NatClass::Public, 5, 50);
        for i in 1..=20u64 {
            est.ingest(&[EstimateRecord::new(NodeId::new(i), 0.5)], NodeId::new(0));
        }
        est.record_request(NatClass::Public);
        est.advance_round();
        // The local estimate is computed from the history *before* the current round's
        // counters are appended (Algorithm 2), so a second round is needed for the first
        // round's hit to become visible.
        est.advance_round();
        let mut r = rng();
        let shared = est.share(10, NodeId::new(0), &mut r);
        assert_eq!(shared.len(), 11, "10 cached + the node's own estimate");
        assert!(shared
            .iter()
            .any(|rec| rec.origin() == NodeId::new(0) && rec.age() == 0));
    }

    #[test]
    #[should_panic(expected = "exceeds the batch's room for 10 cached records")]
    fn share_rejects_counts_above_the_share_size() {
        let mut est = RatioEstimator::new(NatClass::Private, 5, 50);
        est.share(ESTIMATE_SHARE_SIZE + 1, NodeId::new(0), &mut rng());
    }

    #[test]
    fn share_without_local_estimate_is_only_cached_records() {
        let mut est = RatioEstimator::new(NatClass::Private, 5, 50);
        let mut r = rng();
        assert!(est.share(10, NodeId::new(0), &mut r).is_empty());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn zero_alpha_is_rejected() {
        RatioEstimator::new(NatClass::Public, 0, 10);
    }

    #[test]
    fn accessors_report_parameters() {
        let est = RatioEstimator::new(NatClass::Public, 25, 50);
        assert_eq!(est.alpha, 25);
        assert_eq!(est.gamma, 50);
        assert_eq!(est.class, NatClass::Public);
    }

    #[test]
    fn cache_entry_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<CachedEstimate>(), 16);
    }

    fn bits(records: &[EstimateRecord]) -> Vec<(u64, u64, u32)> {
        records
            .iter()
            .map(|r| (r.origin().as_u64(), r.ratio.to_bits(), r.age()))
            .collect()
    }

    /// One random batch as a peer could send it: ages on both sides of `γ`, repeated
    /// origins, the node's own id and unusable ratios.
    fn random_batch(rng: &mut SmallRng, gamma: u32, origins: u64) -> Vec<EstimateRecord> {
        (0..rng.gen_range(0..=ESTIMATE_INLINE_CAPACITY))
            .map(|_| {
                let ratio = match rng.gen_range(0..12) {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => -0.25,
                    3 => 1.5,
                    _ => rng.gen_range(0.0..=1.0),
                };
                let age = rng.gen_range(0..=gamma.min(1_000) + 5);
                EstimateRecord::with_age(NodeId::new(rng.gen_range(0..origins)), ratio, age)
            })
            .collect()
    }

    #[test]
    fn stamped_cache_matches_the_reference_on_random_traces() {
        let me = NodeId::new(0);
        for (seed, class, alpha, gamma, origins, start_round) in [
            (1, NatClass::Public, 3, 0, 6, 0),
            (2, NatClass::Private, 1, 1, 8, 0),
            (3, NatClass::Public, 5, 7, 40, 0),
            (4, NatClass::Private, 25, 50, 300, 0),
            (5, NatClass::Public, 25, 50, 2_000, 0),
            (6, NatClass::Public, 4, u32::MAX, 30, 0),
            // The 24-bit birth stamps wrap fifty rounds into the trace.
            (7, NatClass::Public, 25, 50, 300, STAMP_MASK - 49),
        ] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut fast = RatioEstimator::new(class, alpha, gamma);
            // The reference stores ages, not stamps: it has no round counter to start.
            fast.round = start_round;
            let mut slow = ReferenceEstimator::new(class, alpha, gamma);
            for step in 0..3_000 {
                match rng.gen_range(0..10) {
                    0..=4 => {
                        let batch = random_batch(&mut rng, gamma, origins);
                        fast.ingest(&batch, me);
                        slow.ingest(&batch, me);
                    }
                    5..=6 => {
                        let sender = if rng.gen_bool(0.2) {
                            NatClass::Public
                        } else {
                            NatClass::Private
                        };
                        fast.record_request(sender);
                        slow.record_request(sender);
                    }
                    7..=8 => {
                        fast.advance_round();
                        slow.advance_round();
                    }
                    // An idle stretch that can outlast the whole cache.
                    _ => {
                        for _ in 0..rng.gen_range(0..=gamma.min(60) + 3) {
                            fast.advance_round();
                            slow.advance_round();
                        }
                    }
                }
                let at = format!("seed {seed}, step {step}");
                assert_eq!(
                    fast.estimate().map(f64::to_bits),
                    slow.estimate().map(f64::to_bits),
                    "{at}"
                );
                assert_eq!(fast.cached_count(), slow.cached_count(), "{at}");
                assert_eq!(fast.capacity(), slow.capacity(), "{at}");
                assert_eq!(fast.local_estimate(), slow.local_estimate(), "{at}");
                assert_eq!(fast.hits_ratio(), slow.hits_ratio(), "{at}");
                assert_eq!(bits(&fast.contents()), bits(&slow.contents()), "{at}");
            }
        }
    }

    #[test]
    fn a_batch_longer_than_the_inline_capacity_matches_the_reference() {
        let me = NodeId::new(0);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut fast = RatioEstimator::new(NatClass::Private, 5, 20);
        let mut slow = ReferenceEstimator::new(NatClass::Private, 5, 20);
        for len in [13, 24, 40, 100] {
            let batch: Vec<EstimateRecord> = (0..len)
                .map(|_| {
                    let origin = NodeId::new(rng.gen_range(0..60));
                    EstimateRecord::with_age(origin, rng.gen_range(0.0..=1.0), rng.gen_range(0..25))
                })
                .collect();
            fast.ingest(&batch, me);
            slow.ingest(&batch, me);
            assert_eq!(bits(&fast.contents()), bits(&slow.contents()), "{len}");
            assert_eq!(fast.capacity(), slow.capacity(), "{len}");
            fast.advance_round();
            slow.advance_round();
        }
    }

    #[test]
    fn an_idle_cache_is_not_walked_until_something_can_expire() {
        let mut est = RatioEstimator::new(NatClass::Private, 5, 10);
        est.ingest(
            &[
                EstimateRecord::with_age(NodeId::new(1), 0.4, 3),
                EstimateRecord::with_age(NodeId::new(2), 0.6, 8),
            ],
            NodeId::new(0),
        );
        assert_eq!(est.next_expiry, 3, "the age-8 record outlives round 2");
        est.advance_round();
        est.advance_round();
        assert_eq!(est.cached_count(), 2);
        est.advance_round();
        assert_eq!(bits(&est.contents()), vec![(1, 0.4f64.to_bits(), 6)]);
        assert_eq!(est.next_expiry, 8);
        for _ in 0..5 {
            est.advance_round();
        }
        assert_eq!(est.cached_count(), 0);
        assert_eq!(est.next_expiry, u64::MAX);
    }

    /// A cache of `n` estimates aged over a few rounds, with a local estimate when public.
    fn warmed(class: NatClass, n: u64) -> RatioEstimator {
        let mut est = RatioEstimator::new(class, 5, 50);
        est.record_request(NatClass::Private);
        est.advance_round();
        for i in 1..=n {
            est.ingest(
                &[EstimateRecord::with_age(
                    NodeId::new(i),
                    0.5,
                    (i % 7) as u32,
                )],
                NodeId::new(0),
            );
        }
        est.advance_round();
        est
    }

    #[test]
    fn share_draws_one_number_per_shared_record() {
        for (n, count) in [
            (0, 10),
            (1, 10),
            (7, 10),
            (10, 10),
            (11, 10),
            (500, 10),
            (30, 0),
        ] {
            let mut est = warmed(NatClass::Public, n);
            let mut rng = SmallRng::seed_from_u64(n + 17);
            let mut twin = rng.clone();
            let shared = est.share(count, NodeId::new(0), &mut rng);
            let k = count.min(n as usize);
            for i in 0..k {
                twin.gen_range(i..n as usize);
            }
            assert_eq!(rng, twin, "{n} cached, {count} asked");

            let (own, cached) = shared.split_last().expect("a croupier's own estimate");
            assert_eq!((own.origin(), own.age()), (NodeId::new(0), 0));
            assert_eq!(cached.len(), k);
            let all = bits(&est.contents());
            let mut seen = bits(cached);
            assert!(
                seen.iter().all(|r| all.contains(r)),
                "ages and ratios as cached"
            );
            seen.sort_unstable();
            seen.dedup_by_key(|r| r.0);
            assert_eq!(seen.len(), k, "no origin twice");
        }
    }

    #[test]
    fn share_includes_every_origin_equally_often_in_every_slot() {
        const N: usize = 40;
        const K: usize = 10;
        const DRAWS: usize = 24_000;
        // Upper 0.1 % point of chi-squared with N − 1 = 39 degrees of freedom.
        const CHI2_BOUND: f64 = 72.06;
        let mut est = warmed(NatClass::Private, N as u64);
        let mut rng = rng();
        let mut included = [0u32; N];
        let mut first = [0u32; N];
        for _ in 0..DRAWS {
            let shared = est.share(K, NodeId::new(0), &mut rng);
            assert_eq!(shared.len(), K);
            for record in shared.iter() {
                included[record.origin().as_u64() as usize - 1] += 1;
            }
            first[shared[0].origin().as_u64() as usize - 1] += 1;
        }
        let chi2 = |observed: &[u32], expected: f64| -> f64 {
            observed
                .iter()
                .map(|&o| (o as f64 - expected).powi(2) / expected)
                .sum()
        };
        // A k-subset includes each origin with probability p = k/n. The inclusion counts
        // covary like multinomial counts whose variances are scaled by (1 − p)·n/(n − 1),
        // so Pearson's statistic divided by that factor is chi-squared with n − 1 degrees
        // of freedom.
        let p = K as f64 / N as f64;
        let scale = (1.0 - p) * N as f64 / (N - 1) as f64;
        let inclusion = chi2(&included, DRAWS as f64 * p) / scale;
        assert!(inclusion < CHI2_BOUND, "inclusion chi-squared {inclusion}");
        let leading = chi2(&first, DRAWS as f64 / N as f64);
        assert!(leading < CHI2_BOUND, "first-slot chi-squared {leading}");
    }
}
