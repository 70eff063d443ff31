//! The event queue at the heart of the discrete-event engine: a time-wheel over one
//! event store.
//!
//! Through PR 3 the queue was a global `BinaryHeap` — `O(log n)` per operation with poor
//! cache locality once millions of deliveries are in flight. The engines' workload is
//! heavily skewed towards the near future (gossip rounds fire every second, network
//! latencies are a few hundred milliseconds), which is the textbook case for a
//! *hierarchical time-wheel*:
//!
//! * a **near wheel** of `WHEEL_SLOTS` millisecond buckets covers a sliding window of
//!   ~8 seconds of virtual time; scheduling into it and popping from it are `O(1)`, and
//!   same-tick events pop in insertion order because each bucket is a FIFO;
//! * a **far wheel** (an ordered map keyed by tick) absorbs anything beyond the window —
//!   far-future timers, mostly — and is drained bucket-by-bucket into the near wheel
//!   whenever the window rotates past the current one.
//!
//! An occupancy bitmap over the near slots lets the cursor skip empty buckets 64 ticks at
//! a time, so advancing virtual time costs `O(slots/64)` per window rotation, amortised
//! `O(1)` per event.
//!
//! # One store
//!
//! Every near-wheel event lives in one `Vec` of cells: a bucket is a `(head, tail)` pair
//! of cell indices, its FIFO a chain through the cells, and a popped event's cell goes
//! onto a free list the next schedule takes from. The store's length is the *high-water
//! count of events in flight* (what dslab's single event heap costs), where a buffer per
//! bucket cost the sum of every bucket's own high-water mark: 66 MB of a 1 000-node
//! run's 133 MB for a few thousand events in flight.
//!
//! A cell is a 48-byte header whatever the message type: time, sequence, kind, nodes and
//! the chain link. A delivery's message waits in a payload slab beside the store — a
//! `Vec<Option<M>>` whose popped slots a LIFO free list hands back — and its cell
//! carries the slot index; round and timer cells never touch the slab. Cells sized for
//! the message wasted most of the store: at the peak of a 100k-node Cyclon run a shard
//! holds ~273k cells, ~125k of them retry timers, 50k rounds and only ~99k deliveries,
//! and every one was a 128-byte cell shaped around Cyclon's 88-byte message.
//!
//! The far wheel holds the same headers, so a message is *parked* in the slab once, when
//! it is scheduled, near or far, and stays in its slot until the delivery pops: a far
//! tick's migration moves headers only. The slab's length is therefore the high-water
//! count of deliveries in flight, near plus far.
//!
//! # Ordering contract
//!
//! Pop order is **bit-identical** to the retained heap implementation (the test-only
//! `reference::ReferenceEventQueue`): ascending `(time, insertion sequence)`. The
//! equivalence is enforced by randomized tests in this module driving both queues through
//! identical mixed schedule/pop workloads (same-tick bursts, far-future timers, window
//! rotations). The one deliberate divergence: scheduling an event *before* the time of the
//! most recently popped event (which no engine does — delays are non-negative) is treated
//! as scheduling at the current instant rather than re-sorting the past.

use std::collections::BTreeMap;

use crate::event::{Event, ScheduledEvent};
use crate::time::SimTime;

/// Number of millisecond buckets in the near wheel (~8 s of virtual time).
///
/// Gossip rounds repeat every ~1 000 ms and the King latency model stays well below one
/// second, so in steady state every delivery and round lands in the near wheel and the far
/// wheel stays empty — the hot path never touches the ordered map.
///
/// The count is divisible by 64 (whole occupancy-bitmap words) and need not be a power of
/// two: `tick % WHEEL_SLOTS` with a constant divisor compiles to a multiply-shift. Being a
/// multiple of the 1 000 ms round period no longer matters for memory — the sharded
/// barrier's same-tick burst reuses the store's cells whichever bucket it lands in.
const WHEEL_SLOTS: u64 = 8_000;
/// Words of the occupancy bitmap (64 slots per word; exact because `64 | WHEEL_SLOTS`).
const WHEEL_WORDS: usize = (WHEEL_SLOTS / 64) as usize;
/// The "no cell" link: end of a chain, an empty bucket, an empty free list.
const NIL: u32 = u32::MAX;

/// One cell of the event store: on a bucket's chain while `event` is `Some`, on the free
/// list while it is `None`; `next` links either chain. A delivery's `msg` is its message's
/// slot in the payload slab.
#[derive(Debug)]
struct Cell {
    event: Option<ScheduledEvent<u32>>,
    next: u32,
}

/// A near-wheel bucket: the first and last cell of its FIFO chain, both [`NIL`] when the
/// bucket is empty.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    head: u32,
    tail: u32,
}

/// A priority queue of [`ScheduledEvent`]s ordered by execution time, with deterministic
/// FIFO tie-breaking for events scheduled at the same instant.
///
/// # Examples
///
/// ```
/// use croupier_simulator::scheduler::EventQueue;
/// use croupier_simulator::event::Event;
/// use croupier_simulator::{NodeId, SimTime};
///
/// let mut q: EventQueue<u32> = EventQueue::new();
/// q.schedule(SimTime::from_millis(20), Event::Round { node: NodeId::new(1) });
/// q.schedule(SimTime::from_millis(10), Event::Round { node: NodeId::new(2) });
/// let first = q.pop().unwrap();
/// assert_eq!(first.at, SimTime::from_millis(10));
/// ```
#[derive(Debug)]
pub struct EventQueue<M> {
    /// The event store: every near-wheel event, queued or popped and free. It grows only
    /// when every cell is queued, so the steady-state hot path allocates nothing.
    cells: Vec<Cell>,
    /// Head of the free list through `cells` (most recently popped first), or [`NIL`].
    free: u32,
    /// The payload slab: the message of every parked delivery, near or far, `None` in a
    /// free slot. Like the store, it grows only when every slot is taken.
    payloads: Vec<Option<M>>,
    /// Free slots of `payloads`, most recently popped last.
    free_payloads: Vec<u32>,
    /// The near wheel: one FIFO chain per millisecond tick of the sliding window
    /// `[cursor, cursor + WHEEL_SLOTS)`, indexed by `tick % WHEEL_SLOTS`. Each bucket
    /// holds events of exactly one in-window tick (older occupants were popped before the
    /// cursor moved past them).
    slots: Box<[Bucket]>,
    /// One bit per slot: set iff the bucket holds unpopped events.
    occupied: Box<[u64; WHEEL_WORDS]>,
    /// The tick currently being drained; the window slides with it. Never moves backwards.
    cursor: u64,
    /// Headers of the events beyond the window horizon, keyed by tick; each bucket
    /// preserves insertion order, so migration into the near wheel preserves the FIFO
    /// tie-break. Migration happens as soon as the cursor advance brings a far tick inside
    /// the horizon — *before* any direct push could target its slot, which keeps sequence
    /// order intact.
    far: BTreeMap<u64, Vec<ScheduledEvent<u32>>>,
    len: usize,
    next_seq: u64,
    scheduled_total: u64,
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        let empty = Bucket {
            head: NIL,
            tail: NIL,
        };
        EventQueue {
            cells: Vec::new(),
            free: NIL,
            payloads: Vec::new(),
            free_payloads: Vec::new(),
            slots: vec![empty; WHEEL_SLOTS as usize].into_boxed_slice(),
            occupied: Box::new([0; WHEEL_WORDS]),
            cursor: 0,
            far: BTreeMap::new(),
            len: 0,
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// Parks a delivery's message in the payload slab, in a recycled slot when one is
    /// free, and returns the slot its header carries until the delivery pops.
    fn park(&mut self, msg: M) -> u32 {
        if let Some(slot) = self.free_payloads.pop() {
            self.payloads[slot as usize] = Some(msg);
            return slot;
        }
        assert!(
            self.payloads.len() < u32::MAX as usize,
            "payload slab is full"
        );
        self.payloads.push(Some(msg));
        (self.payloads.len() - 1) as u32
    }

    /// Appends `scheduled` to the chain of near-wheel bucket `idx`, in a recycled cell
    /// when one is free.
    fn push_near(&mut self, idx: usize, scheduled: ScheduledEvent<u32>) {
        if self.free == NIL {
            assert!(self.cells.len() < NIL as usize, "event store is full");
            self.free = self.cells.len() as u32;
            self.cells.push(Cell {
                event: None,
                next: NIL,
            });
        }
        let cell = self.free;
        let taken = &mut self.cells[cell as usize];
        self.free = std::mem::replace(&mut taken.next, NIL);
        taken.event = Some(scheduled);
        let tail = std::mem::replace(&mut self.slots[idx].tail, cell);
        if tail == NIL {
            self.slots[idx].head = cell;
            self.occupied[idx / 64] |= 1u64 << (idx % 64);
        } else {
            self.cells[tail as usize].next = cell;
        }
    }

    /// Number of slots between the cursor slot and the next occupied slot, scanning the
    /// bitmap as a ring starting at the cursor (ring order equals ascending tick order
    /// within the window). Returns `None` when the near wheel is empty. A distance of
    /// zero means the cursor bucket itself is occupied.
    fn next_occupied_distance(&self) -> Option<u64> {
        let start = (self.cursor % WHEEL_SLOTS) as usize;
        let mut word_idx = start / 64;
        let mut word = self.occupied[word_idx] & (!0u64 << (start % 64));
        let mut scanned = 0usize;
        loop {
            if word != 0 {
                let idx = word_idx * 64 + word.trailing_zeros() as usize;
                return Some(((idx + WHEEL_SLOTS as usize - start) as u64) % WHEEL_SLOTS);
            }
            scanned += 1;
            if scanned > WHEEL_WORDS {
                return None;
            }
            word_idx = (word_idx + 1) % WHEEL_WORDS;
            word = self.occupied[word_idx];
            if word_idx == start / 64 {
                // Wrapped back to the starting word: include the bits below `start` that
                // the first probe masked off (they map to the window's far end).
                word &= !(!0u64 << (start % 64));
            }
        }
    }

    /// Migrates every far bucket whose tick now falls inside the window horizon.
    fn migrate_far(&mut self) {
        while let Some(entry) = self.far.first_entry() {
            let tick = *entry.key();
            if tick - self.cursor >= WHEEL_SLOTS {
                break;
            }
            let idx = (tick % WHEEL_SLOTS) as usize;
            for scheduled in entry.remove() {
                self.push_near(idx, scheduled);
            }
        }
    }

    /// Schedules `event` for execution at `at`.
    ///
    /// Events scheduled for the same instant execute in the order they were scheduled.
    /// Scheduling before the most recently popped event's time (which the engines never
    /// do) executes the event at the current instant instead, preserving the original
    /// timestamp.
    pub fn schedule(&mut self, at: SimTime, event: Event<M>) {
        let event = event.map_msg(|msg| self.park(msg));
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.len += 1;
        debug_assert!(
            at.as_millis() >= self.cursor,
            "event scheduled in the past: at={} cursor={}",
            at.as_millis(),
            self.cursor
        );
        let tick = at.as_millis().max(self.cursor);
        let scheduled = ScheduledEvent { at, seq, event };
        // `tick >= cursor`, so the subtraction is exact.
        if tick - self.cursor < WHEEL_SLOTS {
            self.push_near((tick % WHEEL_SLOTS) as usize, scheduled);
        } else {
            self.far.entry(tick).or_default().push(scheduled);
        }
    }

    /// Removes and returns the next event, or `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<M>> {
        if self.len == 0 {
            return None;
        }
        loop {
            let idx = (self.cursor % WHEEL_SLOTS) as usize;
            let cell = self.slots[idx].head;
            if cell != NIL {
                // Unlink the bucket's first cell and hand it to the free list.
                let freed = &mut self.cells[cell as usize];
                self.slots[idx].head = std::mem::replace(&mut freed.next, self.free);
                self.free = cell;
                if self.slots[idx].head == NIL {
                    self.slots[idx].tail = NIL;
                    self.occupied[idx / 64] &= !(1u64 << (idx % 64));
                }
                self.len -= 1;
                let ScheduledEvent { at, seq, event } = freed.event.take()?;
                let event = event.map_msg(|slot| {
                    self.free_payloads.push(slot);
                    self.payloads[slot as usize]
                        .take()
                        .expect("a queued delivery owns its payload slot")
                });
                return Some(ScheduledEvent { at, seq, event });
            }
            // The cursor bucket is drained: slide to the next occupied bucket, or jump to
            // the earliest far tick when the near wheel is exhausted. Either move widens
            // the horizon, so far buckets that entered it are pulled in immediately.
            match self.next_occupied_distance() {
                Some(distance) => self.cursor += distance,
                None => {
                    self.cursor = *self
                        .far
                        .keys()
                        .next()
                        .expect("len > 0 with an empty near wheel implies far events");
                }
            }
            if !self.far.is_empty() {
                self.migrate_far();
            }
        }
    }

    /// Execution time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if let Some(distance) = self.next_occupied_distance() {
            // Near events always precede far events: every near tick is inside the
            // window, every far tick beyond it.
            let idx = ((self.cursor + distance) % WHEEL_SLOTS) as usize;
            let head = &self.cells[self.slots[idx].head as usize];
            return head.event.as_ref().map(|event| event.at);
        }
        self.far
            .values()
            .next()
            .and_then(|bucket| bucket.first())
            .map(|event| event.at)
    }

    /// Number of events currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events that have ever been scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Deliveries queued, near or far, counted from their headers (not from the slab).
    #[cfg(test)]
    pub(crate) fn queued_deliveries(&self) -> usize {
        let near = self.cells.iter().filter_map(|cell| cell.event.as_ref());
        let far = self.far.values().flatten();
        near.chain(far)
            .filter(|scheduled| matches!(scheduled.event, Event::Deliver { .. }))
            .count()
    }
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use std::rc::Rc;

    use super::reference::ReferenceEventQueue;
    use super::*;
    use crate::types::NodeId;

    fn round(node: u64) -> Event<u32> {
        Event::Round {
            node: NodeId::new(node),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), round(3));
        q.schedule(SimTime::from_millis(10), round(1));
        q.schedule(SimTime::from_millis(20), round(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|ev| ev.event.target().as_u64())
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_in_fifo_order() {
        let mut q = EventQueue::new();
        for node in 0..50u64 {
            q.schedule(SimTime::from_millis(5), round(node));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|ev| ev.event.target().as_u64())
            .collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_reports_earliest_without_removal() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_millis(40), round(1));
        q.schedule(SimTime::from_millis(15), round(2));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(15)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn counters_track_scheduled_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, round(1));
        q.schedule(SimTime::ZERO, round(2));
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn far_future_events_cross_the_window_boundary() {
        let mut q = EventQueue::new();
        // One event per window for many windows ahead, scheduled out of order.
        let ticks: Vec<u64> = (0..20).rev().map(|w| w * WHEEL_SLOTS + 17).collect();
        for (i, &tick) in ticks.iter().enumerate() {
            q.schedule(SimTime::from_millis(tick), round(i as u64));
        }
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(17)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|ev| ev.at.as_millis())
            .collect();
        let mut expected = ticks.clone();
        expected.sort_unstable();
        assert_eq!(order, expected);
    }

    #[test]
    fn events_scheduled_while_draining_the_current_tick_stay_fifo() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), round(1));
        q.schedule(SimTime::from_millis(5), round(2));
        let first = q.pop().unwrap();
        assert_eq!(first.event.target(), NodeId::new(1));
        // A zero-latency reaction to the first event lands behind the tick's backlog.
        q.schedule(SimTime::from_millis(5), round(3));
        assert_eq!(q.pop().unwrap().event.target(), NodeId::new(2));
        assert_eq!(q.pop().unwrap().event.target(), NodeId::new(3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_far_and_near_events_preserve_seq_within_a_tick() {
        let mut q = EventQueue::new();
        let far_tick = 3 * WHEEL_SLOTS + 5;
        // Scheduled while the tick is beyond the window: goes to the far wheel.
        q.schedule(SimTime::from_millis(far_tick), round(1));
        q.schedule(SimTime::from_millis(1), round(0));
        assert_eq!(q.pop().unwrap().event.target(), NodeId::new(0));
        // The pop above exhausted the near wheel; the next pop rotates the window, after
        // which the same tick accepts direct (higher-seq) pushes.
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(far_tick)));
        assert_eq!(q.pop().unwrap().event.target(), NodeId::new(1));
        q.schedule(SimTime::from_millis(far_tick), round(2));
        assert_eq!(q.pop().unwrap().event.target(), NodeId::new(2));
    }

    #[test]
    fn a_far_event_is_in_its_bucket_before_a_direct_push_can_reach_the_tick() {
        let mut q = EventQueue::new();
        let tick = WHEEL_SLOTS + 100;
        // Beyond the horizon while the cursor is at 0: waits in the far map.
        q.schedule(SimTime::from_millis(tick), round(1));
        q.schedule(SimTime::from_millis(200), round(0));
        // Popping tick 200 slides the horizon over `tick`, still most of a window away;
        // the far event must move now, because from here on the tick takes direct pushes.
        assert_eq!(q.pop().unwrap().event.target(), NodeId::new(0));
        q.schedule(SimTime::from_millis(tick), round(2));
        assert_eq!(q.pop().unwrap().event.target(), NodeId::new(1));
        assert_eq!(q.pop().unwrap().event.target(), NodeId::new(2));
        assert!(q.pop().is_none());
    }

    /// Drives the wheel and the reference heap through an identical randomized workload of
    /// schedules and pops — same-tick bursts, far-future timers and deliveries, pop runs
    /// that force window rotations — and asserts bit-identical pop sequences.
    #[test]
    fn randomized_equivalence_with_reference_heap() {
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ seed);
            let mut wheel: EventQueue<u32> = EventQueue::new();
            let mut heap: ReferenceEventQueue<u32> = ReferenceEventQueue::new();
            // `now` tracks the latest popped time so schedules are never in the past,
            // matching the engines' contract.
            let mut now = 0u64;
            let mut payload = 0u32;
            let mut deliver =
                |wheel: &mut EventQueue<u32>, heap: &mut ReferenceEventQueue<u32>, at| {
                    let (from, to) = (NodeId::new(0), NodeId::new(u64::from(payload)));
                    let event = Event::Deliver {
                        from,
                        to,
                        msg: payload,
                    };
                    wheel.schedule(SimTime::from_millis(at), event.clone());
                    heap.schedule(SimTime::from_millis(at), event);
                    payload += 1;
                };
            for _ in 0..4_000 {
                match rng.gen_range(0..11u32) {
                    // Same-tick FIFO burst at a nearby instant.
                    0..=2 => {
                        let at = now + rng.gen_range(0..50u64);
                        for _ in 0..rng.gen_range(1..=8) {
                            deliver(&mut wheel, &mut heap, at);
                        }
                    }
                    // Scattered near-future events (within and just beyond one window).
                    3..=5 => {
                        let at = now + rng.gen_range(0..6_000u64);
                        let ev = round(rng.gen_range(0..1_000));
                        wheel.schedule(SimTime::from_millis(at), ev.clone());
                        heap.schedule(SimTime::from_millis(at), ev);
                    }
                    // Far-future timer, several windows ahead.
                    6 => {
                        let at = now + rng.gen_range(20_000..2_000_000u64);
                        let ev = round(rng.gen_range(0..1_000));
                        wheel.schedule(SimTime::from_millis(at), ev.clone());
                        heap.schedule(SimTime::from_millis(at), ev);
                    }
                    // Far-future delivery: its header waits in the far wheel.
                    7 => deliver(
                        &mut wheel,
                        &mut heap,
                        now + rng.gen_range(WHEEL_SLOTS..60_000),
                    ),
                    // Pop run: drains across ticks and occasionally across windows.
                    _ => {
                        for _ in 0..rng.gen_range(1..=12) {
                            let a = wheel.pop();
                            let b = heap.pop();
                            match (a, b) {
                                (None, None) => break,
                                (Some(x), Some(y)) => {
                                    assert_eq!(x.at, y.at, "pop times diverged");
                                    assert_eq!(x.seq, y.seq, "pop sequences diverged");
                                    assert_eq!(x.event, y.event, "pop events diverged");
                                    now = x.at.as_millis();
                                }
                                (a, b) => panic!(
                                    "queue lengths diverged: wheel={:?} heap={:?}",
                                    a.map(|e| e.at),
                                    b.map(|e| e.at)
                                ),
                            }
                            assert_eq!(wheel.len(), heap.len());
                            assert_eq!(wheel.peek_time(), heap.peek_time());
                        }
                    }
                }
            }
            assert!(
                !wheel.far.is_empty(),
                "the workload must reach the far wheel"
            );
            // Drain both queues completely.
            loop {
                match (wheel.pop(), heap.pop()) {
                    (None, None) => break,
                    (Some(x), Some(y)) => {
                        assert_eq!((x.at, x.seq, x.event), (y.at, y.seq, y.event));
                    }
                    _ => panic!("queues drained to different lengths"),
                }
            }
            assert_eq!(wheel.scheduled_total(), heap.scheduled_total());
        }
    }

    #[test]
    fn steady_state_reuses_bucket_allocations() {
        // Simulates the engine's steady state: schedule/pop churn inside one window. After
        // warm-up popped cells are recycled, so the wheel performs no allocation — the
        // allocation-counter integration test asserts this end-to-end; here we just check
        // the queue stays correct over many window rotations.
        let mut q = EventQueue::new();
        let mut now = 0u64;
        let mut expected = 0u64;
        for step in 0..50_000u64 {
            q.schedule(SimTime::from_millis(now + 1 + (step % 700)), round(step));
            if step % 3 != 0 {
                if let Some(ev) = q.pop() {
                    assert!(ev.at.as_millis() >= now);
                    now = ev.at.as_millis();
                    expected += 1;
                }
            }
        }
        while q.pop().is_some() {
            expected += 1;
        }
        assert_eq!(expected, 50_000);
        assert_eq!(q.scheduled_total(), 50_000);
        assert!(q.is_empty());
    }

    /// Near-wheel events in flight: everything queued that is not waiting in the far map.
    fn near_in_flight(q: &EventQueue<u32>) -> usize {
        q.len() - q.far.values().map(Vec::len).sum::<usize>()
    }

    /// The memory contract of the one-store layout: the store's size is the most
    /// near-wheel events that were ever queued at one instant, no matter how many buckets
    /// the churn has visited (here every one of them, dozens of times over).
    #[test]
    fn store_holds_exactly_the_high_water_of_events_in_flight() {
        const MAX_QUEUED: usize = 300;
        let mut rng = SmallRng::seed_from_u64(0x510B);
        let mut q: EventQueue<u32> = EventQueue::new();
        let (mut now, mut payload, mut high_water, mut migrations) = (0u64, 0u32, 0usize, 0u32);
        // The backlog swings between nearly empty and nearly `MAX_QUEUED`.
        let mut draining = false;
        while now < 40 * WHEEL_SLOTS {
            let room = MAX_QUEUED - q.len();
            draining = if draining { q.len() > 20 } else { room < 12 };
            let (delay, burst) = match rng.gen_range(0..10u32) {
                // Same-tick burst close to the cursor.
                0..=3 => (rng.gen_range(0..40u64), rng.gen_range(1..=12)),
                // Scattered over the window.
                4..=7 => (rng.gen_range(0..WHEEL_SLOTS), 1),
                // Beyond the horizon: waits in the far map, enters the store on migration.
                _ => (rng.gen_range(WHEEL_SLOTS..3 * WHEEL_SLOTS), 2),
            };
            for _ in 0..burst.min(room) {
                q.schedule(SimTime::from_millis(now + delay), round(u64::from(payload)));
                payload += 1;
            }
            high_water = high_water.max(near_in_flight(&q));
            let pops = if draining { 4..=8 } else { 0..=2 };
            for _ in 0..rng.gen_range(pops) {
                let far_before = q.far.len();
                let Some(ev) = q.pop() else { break };
                now = ev.at.as_millis();
                migrations += u32::from(q.far.len() < far_before);
                // A migration fills the store before the popped event's cell is freed.
                high_water = high_water.max(near_in_flight(&q) + 1);
            }
        }
        assert!(migrations > 100, "the churn must cross the far wheel");
        assert!(high_water <= MAX_QUEUED);
        assert_eq!(q.cells.len(), high_water);
        while q.pop().is_some() {}
        assert_eq!(
            q.cells.len(),
            high_water,
            "draining frees cells, never adds any"
        );
    }

    #[test]
    fn a_drained_queue_refills_without_growing() {
        let mut q: EventQueue<u32> = EventQueue::new();
        // A 600-event burst on one tick (the sharded barrier's shape) plus a spread.
        for i in 0..1_000u64 {
            let at = if i < 600 { 1_000 } else { i };
            q.schedule(SimTime::from_millis(at), round(i));
        }
        while q.pop().is_some() {}
        let (cells, capacity) = (q.cells.len(), q.cells.capacity());
        assert_eq!(cells, 1_000);
        // The refill lands on entirely different buckets and in a different shape.
        for i in 0..1_000u64 {
            q.schedule(SimTime::from_millis(5_000 + 7 * i), round(i));
        }
        assert_eq!((q.cells.len(), q.cells.capacity()), (cells, capacity));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|ev| ev.event.target().as_u64())
            .collect();
        assert_eq!(order, (0..1_000).collect::<Vec<_>>());
    }

    /// A cell is a header: the message waits in the slab, so a large `M` costs the store
    /// nothing.
    #[test]
    fn cells_are_48_bytes_whatever_the_message() {
        fn cell_bytes<C>(_: &[C]) -> usize {
            std::mem::size_of::<C>()
        }
        let q: EventQueue<[u8; 256]> = EventQueue::new();
        assert!(cell_bytes(&q.cells) <= 48);
    }

    /// The slab hands each payload out with its popped event and keeps no copy; dropping
    /// the queue drops what is still queued, near or far; and the slab never holds more
    /// slots than the most deliveries ever queued at once, near plus far, through
    /// same-tick bursts and far-wheel migrations.
    #[test]
    fn the_payload_slab_owns_exactly_the_queued_deliveries() {
        const MAX_QUEUED: usize = 400;
        let token = Rc::new(());
        let (from, to) = (NodeId::new(0), NodeId::new(1));
        let mut rng = SmallRng::seed_from_u64(0x51AB);
        let mut q: EventQueue<Rc<()>> = EventQueue::new();
        let (mut now, mut deliveries, mut peak, mut migrations) = (0u64, 0usize, 0usize, 0u32);
        let mut draining = false;
        let deliver = |q: &mut EventQueue<Rc<()>>, at: u64| {
            let msg = Rc::clone(&token);
            q.schedule(SimTime::from_millis(at), Event::Deliver { from, to, msg });
        };
        while now < 30 * WHEEL_SLOTS {
            let room = MAX_QUEUED - q.len();
            draining = if draining { q.len() > 20 } else { room < 40 };
            match rng.gen_range(0..10u32) {
                // A same-tick burst of deliveries close to the cursor.
                0..=3 => {
                    let at = now + rng.gen_range(0..40u64);
                    for _ in 0..rng.gen_range(1..=30usize).min(room) {
                        deliver(&mut q, at);
                        deliveries += 1;
                    }
                }
                // A round: a cell without a payload.
                4..=6 => {
                    let at = now + rng.gen_range(0..WHEEL_SLOTS);
                    let node = NodeId::new(0);
                    q.schedule(SimTime::from_millis(at), Event::Round { node });
                }
                // A delivery beyond the horizon: parked now, its header far until it
                // migrates.
                _ => {
                    let at = now + rng.gen_range(WHEEL_SLOTS..3 * WHEEL_SLOTS);
                    deliver(&mut q, at);
                    deliveries += 1;
                }
            }
            peak = peak.max(deliveries);
            let pops = if draining { 4..=10 } else { 0..=3 };
            for _ in 0..rng.gen_range(pops) {
                let far_before = q.far.len();
                let Some(ev) = q.pop() else { break };
                now = ev.at.as_millis();
                migrations += u32::from(q.far.len() < far_before);
                if let Event::Deliver { msg, .. } = ev.event {
                    deliveries -= 1;
                    drop(msg);
                }
                assert_eq!(Rc::strong_count(&token), 1 + deliveries);
                assert_eq!(q.queued_deliveries(), deliveries);
                assert!(q.payloads.len() <= peak, "the slab outgrew the queued peak");
            }
        }
        assert!(migrations > 50, "the churn must cross the far wheel");
        assert!(
            !q.far.is_empty() && q.len() > q.far.len(),
            "drop near and far payloads"
        );
        assert_eq!(Rc::strong_count(&token), 1 + deliveries);
        drop(q);
        assert_eq!(Rc::strong_count(&token), 1);
    }

    /// The far wheel holds headers too, so a migration moves no payload: a far
    /// delivery's message keeps the slot it was parked in until it pops.
    #[test]
    fn a_far_delivery_keeps_its_slot_through_migration() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let (from, to) = (NodeId::new(3), NodeId::new(4));
        let far = SimTime::from_millis(2 * WHEEL_SLOTS + 9);
        q.schedule(far, Event::Deliver { from, to, msg: 77 });
        let node = NodeId::new(1);
        q.schedule(SimTime::from_millis(5), Event::Round { node });
        assert_eq!(q.payloads, [Some(77)]);
        assert_eq!(q.pop().unwrap().event, Event::Round { node });
        let popped = q.pop().unwrap();
        assert_eq!(
            (popped.at, popped.event),
            (far, Event::Deliver { from, to, msg: 77 })
        );
        assert_eq!(
            (q.payloads.len(), q.free_payloads.as_slice()),
            (1, &[0][..])
        );
    }
}
