//! The original `BinaryHeap`-backed event queue, retained as the executable ordering
//! specification for the time-wheel in [`super`].
//!
//! The heap queue is what the engines shipped with through PR 3. Its pop order —
//! ascending `(time, insertion sequence)` — *defines* the engine's event semantics, so
//! when the hot path moved to the bucketed time-wheel the heap stayed in-tree as the
//! reference implementation: the randomized equivalence tests in the parent module drive
//! both queues through identical schedule/pop workloads and assert bit-identical pop
//! sequences. It is not used by any engine at runtime.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::event::{Event, ScheduledEvent};
use crate::time::SimTime;

/// A priority queue of [`ScheduledEvent`]s ordered by execution time, with deterministic
/// FIFO tie-breaking for events scheduled at the same instant.
#[derive(Debug)]
pub(crate) struct ReferenceEventQueue<M> {
    heap: BinaryHeap<Reverse<ScheduledEvent<M>>>,
    next_seq: u64,
    scheduled_total: u64,
}

impl<M> ReferenceEventQueue<M> {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        ReferenceEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// Schedules `event` for execution at `at`.
    ///
    /// Events scheduled for the same instant execute in the order they were scheduled.
    pub(crate) fn schedule(&mut self, at: SimTime, event: Event<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.heap.push(Reverse(ScheduledEvent { at, seq, event }));
    }

    /// Removes and returns the next event, or `None` when the queue is empty.
    pub(crate) fn pop(&mut self) -> Option<ScheduledEvent<M>> {
        self.heap.pop().map(|Reverse(ev)| ev)
    }

    /// Execution time of the next event without removing it.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(ev)| ev.at)
    }

    /// Number of events currently queued.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no events are queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events that have ever been scheduled on this queue.
    pub(crate) fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }
}

impl<M> Default for ReferenceEventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::NodeId;

    fn round(node: u64) -> Event<u32> {
        Event::Round {
            node: NodeId::new(node),
        }
    }

    #[test]
    fn earlier_event_pops_first() {
        let mut q: ReferenceEventQueue<u32> = ReferenceEventQueue::new();
        q.schedule(
            SimTime::from_millis(20),
            Event::Round {
                node: NodeId::new(1),
            },
        );
        q.schedule(
            SimTime::from_millis(10),
            Event::Round {
                node: NodeId::new(2),
            },
        );
        let first = q.pop().unwrap();
        assert_eq!(first.at, SimTime::from_millis(10));
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = ReferenceEventQueue::new();
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
        let mut q = ReferenceEventQueue::new();
        for node in 0..50u64 {
            q.schedule(SimTime::from_millis(5), round(node));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|ev| ev.event.target().as_u64())
            .collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn counters_track_scheduled_events() {
        let mut q = ReferenceEventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, round(1));
        q.schedule(SimTime::ZERO, round(2));
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::ZERO));
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }
}
