//! Internal event representation used by the scheduler and the engine.

use crate::protocol::TimerKey;
use crate::time::SimTime;
use crate::types::NodeId;

/// A single discrete event queued for execution.
///
/// The type is generic over the protocol message type `M`, so the scheduler and engine are
/// monomorphised per protocol and message payloads never need boxing.
#[derive(Clone, Debug, PartialEq)]
pub enum Event<M> {
    /// Delivery of a message sent by `from` to `to`.
    Deliver {
        /// Sender of the message.
        from: NodeId,
        /// Destination of the message.
        to: NodeId,
        /// The message payload.
        msg: M,
    },
    /// A periodic gossip round fires at `node`.
    Round {
        /// Node whose round fires.
        node: NodeId,
    },
    /// A protocol-requested timer fires at `node`.
    Timer {
        /// Node owning the timer.
        node: NodeId,
        /// Key passed back to the protocol, letting it distinguish its timers.
        key: TimerKey,
    },
}

impl<M> Event<M> {
    /// The same event with its message (if it carries one) replaced by `f(msg)`.
    pub(crate) fn map_msg<N>(self, f: impl FnOnce(M) -> N) -> Event<N> {
        match self {
            Event::Deliver { from, to, msg } => Event::Deliver {
                from,
                to,
                msg: f(msg),
            },
            Event::Round { node } => Event::Round { node },
            Event::Timer { node, key } => Event::Timer { node, key },
        }
    }

    /// The node at which the event executes.
    pub fn target(&self) -> NodeId {
        match self {
            Event::Deliver { to, .. } => *to,
            Event::Round { node } => *node,
            Event::Timer { node, .. } => *node,
        }
    }
}

/// An event stamped with its execution time and a monotone sequence number.
///
/// The sequence number breaks ties between events scheduled for the same instant so that
/// execution order is fully deterministic and insertion-ordered.
#[derive(Clone, Debug)]
pub struct ScheduledEvent<M> {
    /// When the event executes.
    pub at: SimTime,
    /// Tie-breaking sequence number (insertion order).
    pub seq: u64,
    /// The event itself.
    pub event: Event<M>,
}

impl<M> PartialEq for ScheduledEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<M> Eq for ScheduledEvent<M> {}

impl<M> PartialOrd for ScheduledEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for ScheduledEvent<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Earlier times first; for equal times, lower sequence numbers first.
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(at: u64, seq: u64) -> ScheduledEvent<u32> {
        ScheduledEvent {
            at: SimTime::from_millis(at),
            seq,
            event: Event::Deliver {
                from: NodeId::new(0),
                to: NodeId::new(1),
                msg: 0,
            },
        }
    }

    #[test]
    fn ordering_is_time_then_sequence() {
        let a = deliver(10, 5);
        let b = deliver(10, 6);
        let c = deliver(11, 0);
        assert!(a < b);
        assert!(b < c);
        assert!(a < c);
    }

    #[test]
    fn target_reports_the_executing_node() {
        let e: Event<u32> = Event::Round {
            node: NodeId::new(3),
        };
        assert_eq!(e.target(), NodeId::new(3));
        let e: Event<u32> = Event::Timer {
            node: NodeId::new(4),
            key: TimerKey::new(1),
        };
        assert_eq!(e.target(), NodeId::new(4));
        let e: Event<u32> = Event::Deliver {
            from: NodeId::new(1),
            to: NodeId::new(2),
            msg: 9,
        };
        assert_eq!(e.target(), NodeId::new(2));
    }

    #[test]
    fn equality_ignores_payload() {
        // ScheduledEvent equality is positional (time + seq); payloads are compared only
        // through Event's own PartialEq where needed.
        let a = deliver(5, 1);
        let b = deliver(5, 1);
        assert_eq!(a, b);
    }
}
