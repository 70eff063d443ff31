//! The pending-exchange record of a shuffling protocol, with its retry timer.
//!
//! A Cyclon-family shuffle is a request/reply pair, and the initiator must remember three
//! things between the two: whom it asked, what it sent (the swapper merge evicts exactly
//! those descriptors first — the rule the shuffle's randomness rests on) and how often it
//! has retransmitted. [`ExchangeTracker`] holds that record for Croupier, Cyclon and Gozar
//! alike, next to the [`RetryPolicy`](crate::RetryPolicy) whose schedule it runs; the
//! protocol decides what `S`, the sent subset, is and what a request looks like.
//!
//! The tracker is a **single slot**: beginning an exchange displaces an unanswered one.
//! On the sharded engine a reply trails its request by up to two round periods, so the
//! slot is usually displaced before the reply arrives (DESIGN.md §7, "Known gap"); holding
//! `1 + ⌈reply horizon / period⌉` slots keyed by the sequence number is a change to this
//! file alone.

use crate::protocol::{Context, TimerKey};
use crate::types::NodeId;

#[derive(Clone, Debug)]
struct Pending<S> {
    peer: NodeId,
    sent: S,
    /// Requests sent so far minus one (the initial send is attempt zero).
    attempt: u32,
}

/// What a retry timer asks of the protocol; see [`ExchangeTracker::on_timer`].
#[derive(Debug, PartialEq)]
pub enum Retry<'a, S> {
    /// The timer belongs to an exchange that was answered, displaced or abandoned.
    Stale,
    /// The retry budget is spent: the exchange is over (and counted abandoned); here is
    /// what had been sent.
    GaveUp(S),
    /// Send the request to `peer` again. The retry is already counted and the next timer
    /// armed; `sent` is the record itself, so a protocol that reroutes the retry can
    /// update what it stored.
    Resend {
        /// The peer the exchange is with.
        peer: NodeId,
        /// What the original request carried.
        sent: &'a mut S,
    },
}

/// The one in-flight exchange of a node: peer, sent subset `S` and retry state, plus the
/// node's retry/abandonment counters.
///
/// The exchange's sequence number doubles as the retry-timer key, so a timer armed for an
/// exchange that has since been answered or displaced is recognisably stale.
#[derive(Clone, Debug, Default)]
pub struct ExchangeTracker<S> {
    pending: Option<Pending<S>>,
    /// Sequence number of the most recently begun exchange.
    seq: u64,
    retries_fired: u64,
    abandoned: u64,
}

impl<S> ExchangeTracker<S> {
    /// Starts an exchange with `peer` that carried `sent`, and arms its first retry
    /// timer. An exchange still unanswered is displaced and counted abandoned (its timer
    /// becomes stale) rather than leaking without trace.
    pub fn begin<M>(&mut self, peer: NodeId, sent: S, ctx: &mut Context<'_, M>) {
        self.abandon();
        self.seq += 1;
        self.pending = Some(Pending {
            peer,
            sent,
            attempt: 0,
        });
        ctx.set_timer(ctx.retry_policy().backoff(0), TimerKey::new(self.seq));
    }

    /// Ends the exchange if the reply comes from the peer it is with, returning what was
    /// sent. A reply from anyone else leaves the exchange in flight.
    pub fn complete_with(&mut self, from: NodeId) -> Option<S> {
        if self.pending.as_ref()?.peer != from {
            return None;
        }
        self.complete()
    }

    /// Ends the exchange whoever answered (a relayed reply does not come from the peer),
    /// returning what was sent.
    pub fn complete(&mut self) -> Option<S> {
        self.pending.take().map(|pending| pending.sent)
    }

    /// The peer of the exchange in flight, if any.
    pub fn peer(&self) -> Option<NodeId> {
        self.pending.as_ref().map(|pending| pending.peer)
    }

    /// Drops the exchange in flight, if any, and counts it abandoned.
    pub fn abandon(&mut self) {
        if self.pending.take().is_some() {
            self.abandoned += 1;
        }
    }

    /// Handles a retry timer: a key that is not the exchange in flight is
    /// [`Stale`](Retry::Stale); once the retry policy's budget is
    /// spent the exchange ends as [`GaveUp`](Retry::GaveUp); otherwise the retry is
    /// counted, the next timer armed with the capped exponential backoff, and the caller
    /// told to [`Resend`](Retry::Resend).
    pub fn on_timer<M>(&mut self, key: TimerKey, ctx: &mut Context<'_, M>) -> Retry<'_, S> {
        if key.as_u64() != self.seq {
            return Retry::Stale;
        }
        let policy = ctx.retry_policy();
        match self.pending.take() {
            None => Retry::Stale,
            Some(pending) if policy.exhausted(pending.attempt + 1) => {
                self.abandoned += 1;
                Retry::GaveUp(pending.sent)
            }
            Some(pending) => {
                let pending = self.pending.insert(Pending {
                    attempt: pending.attempt + 1,
                    ..pending
                });
                self.retries_fired += 1;
                ctx.set_timer(policy.backoff(pending.attempt), key);
                Retry::Resend {
                    peer: pending.peer,
                    sent: &mut pending.sent,
                }
            }
        }
    }

    /// Retransmissions fired so far.
    pub fn retries_fired(&self) -> u64 {
        self.retries_fired
    }

    /// Exchanges given up on so far: retry budget spent, displaced by a newer exchange,
    /// or [abandoned](Self::abandon) by the protocol.
    pub fn exchanges_abandoned(&self) -> u64 {
        self.abandoned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::BootstrapRegistry;
    use crate::protocol::{ContextParams, TimerRequest};
    use crate::time::{SimDuration, SimTime};
    use crate::RetryPolicy;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const PEER: NodeId = NodeId::new(7);
    const OTHER: NodeId = NodeId::new(8);
    const PERIOD: SimDuration = SimDuration::from_secs(1);

    /// Runs `f` with a context of the given reply horizon and returns the timers it armed.
    fn armed(horizon: SimDuration, f: impl FnOnce(&mut Context<'_, ()>)) -> Vec<TimerRequest> {
        let bootstrap = BootstrapRegistry::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ctx = Context::new(ContextParams {
            node: NodeId::new(1),
            now: SimTime::ZERO,
            round_period: PERIOD,
            reply_horizon: horizon,
            rng: &mut rng,
            bootstrap: &bootstrap,
        });
        f(&mut ctx);
        ctx.into_effects().1
    }

    fn begin(tracker: &mut ExchangeTracker<u32>, peer: NodeId, sent: u32) -> TimerRequest {
        let timers = armed(SimDuration::ZERO, |ctx| tracker.begin(peer, sent, ctx));
        assert_eq!(timers.len(), 1, "one retry timer per exchange");
        timers[0]
    }

    #[test]
    fn a_stale_key_is_ignored() {
        let mut tracker = ExchangeTracker::default();
        let unrelated = TimerKey::new(99);
        let fire = |tracker: &mut ExchangeTracker<u32>, key| {
            armed(SimDuration::ZERO, |ctx| {
                assert_eq!(tracker.on_timer(key, ctx), Retry::Stale);
            })
        };
        assert!(fire(&mut tracker, TimerKey::new(0)).is_empty(), "idle");
        let timer = begin(&mut tracker, PEER, 5);
        assert!(fire(&mut tracker, unrelated).is_empty());
        assert_eq!(tracker.complete_with(PEER), Some(5));
        assert!(fire(&mut tracker, timer.key).is_empty(), "answered");
        assert_eq!(
            (tracker.retries_fired(), tracker.exchanges_abandoned()),
            (0, 0)
        );
    }

    #[test]
    fn begin_over_an_unanswered_exchange_counts_it_and_invalidates_its_timer() {
        let mut tracker = ExchangeTracker::default();
        let first = begin(&mut tracker, PEER, 1);
        let second = begin(&mut tracker, OTHER, 2);
        assert_ne!(first.key, second.key);
        assert_eq!(tracker.exchanges_abandoned(), 1);
        armed(SimDuration::ZERO, |ctx| {
            assert_eq!(tracker.on_timer(first.key, ctx), Retry::Stale);
        });
        assert_eq!(tracker.complete_with(OTHER), Some(2));
        begin(&mut tracker, PEER, 3);
        assert_eq!(
            tracker.exchanges_abandoned(),
            1,
            "an answered exchange is not displaced"
        );
        tracker.abandon();
        tracker.abandon();
        assert_eq!(tracker.exchanges_abandoned(), 2, "abandon counts once");
        assert_eq!(tracker.complete(), None);
    }

    #[test]
    fn a_reply_from_the_wrong_peer_keeps_the_exchange() {
        let mut tracker = ExchangeTracker::default();
        assert_eq!(tracker.peer(), None, "idle");
        begin(&mut tracker, PEER, 4);
        assert_eq!(tracker.complete_with(OTHER), None);
        assert_eq!(tracker.peer(), Some(PEER));
        assert_eq!(tracker.complete_with(PEER), Some(4));
        assert_eq!(tracker.peer(), None, "answered");
        assert_eq!(tracker.complete_with(PEER), None, "answered once");
        begin(&mut tracker, PEER, 6);
        assert_eq!(tracker.complete(), Some(6), "complete() asks no peer");
    }

    #[test]
    fn the_budget_yields_max_retries_resends_then_gives_up() {
        let max_retries = RetryPolicy::for_round_period(PERIOD).max_retries;
        for (horizon, first_ms, second_ms) in [
            (SimDuration::ZERO, 500, 1_000),
            (PERIOD.saturating_mul(2), 2_500, 4_000),
        ] {
            let mut tracker = ExchangeTracker::default();
            let timers = armed(horizon, |ctx| tracker.begin(PEER, 9u32, ctx));
            let key = timers[0].key;
            let mut delays = vec![timers[0].delay.as_millis()];
            for retry in 1..=max_retries {
                let timers = armed(horizon, |ctx| match tracker.on_timer(key, ctx) {
                    Retry::Resend { peer, sent } => assert_eq!((peer, *sent), (PEER, 9)),
                    other => panic!("retry {retry}: expected a resend, got {other:?}"),
                });
                assert_eq!(timers.len(), 1, "a resend re-arms under the same key");
                assert_eq!(timers[0].key, key);
                delays.push(timers[0].delay.as_millis());
            }
            assert_eq!(delays[..2], [first_ms, second_ms]);
            let timers = armed(horizon, |ctx| {
                assert_eq!(tracker.on_timer(key, ctx), Retry::GaveUp(9));
            });
            assert!(timers.is_empty(), "giving up arms nothing");
            assert_eq!(tracker.retries_fired(), u64::from(max_retries));
            assert_eq!(tracker.exchanges_abandoned(), 1);
            assert_eq!(tracker.complete(), None);
        }
    }

    #[test]
    fn a_resend_can_update_the_record() {
        let mut tracker = ExchangeTracker::default();
        let timer = begin(&mut tracker, PEER, 1);
        armed(SimDuration::ZERO, |ctx| {
            if let Retry::Resend { sent, .. } = tracker.on_timer(timer.key, ctx) {
                *sent = 2;
            }
        });
        assert_eq!(tracker.complete(), Some(2));
    }
}
