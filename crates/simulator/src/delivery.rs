//! The delivery plane: the one judgment every protocol message of either engine passes.
//!
//! A [`Delivery`] owns the state that judgment mutates — the [`DeliveryFilter`], the
//! optional [`FaultPlane`], the sender-side [`TrafficLedger`] and the
//! loss/blocked/no-such-destination half of [`NetworkStats`] — and judges a message in
//! two steps:
//!
//! 1. [`depart`](Delivery::depart), at the send instant: the sender's ledger is charged,
//!    the filter hears `on_send` (so a NAT binding is created or refreshed even for a
//!    message that dies right after), then the fault plane's [`judge`] — the only way a
//!    message is lost — may drop it (counted as `lost` and as a ledger drop). A *corrupt*
//!    verdict mutates the payload through [`WireSize::fault_mutate`] on the plane's own
//!    stream. A survivor leaves with the plane's [`FaultDecision`]: the reordering delay
//!    and the duplicate flag the caller applies when it queues the delivery.
//! 2. [`arrive`](Delivery::arrive), at the delivery instant: the filter's `can_deliver`
//!    verdict; `BlockedByNat` and `NoSuchDestination` count into their [`NetworkStats`]
//!    counter and as a ledger drop of the sender.
//!
//! The fault plane is therefore judged *before* the NAT verdict: an injected drop has
//! refreshed the sender's binding but never reaches `can_deliver`.
//!
//! What stays with the engines is everything that differs between them: which RNG stream
//! the latency comes from, where a surviving delivery is queued, and the
//! executor's half of the accounting — whoever runs the delivery (`Simulation::dispatch`,
//! a shard's phase loop) checks that the destination is still alive and counts
//! `delivered` and the receiver's ledger side. The event engine calls *depart* when a
//! callback's effects are applied and *arrive* when the `Deliver` event fires (so both
//! copies of a duplicate get their own verdict). The sharded engine judges a whole round
//! barrier at once: it [`stage`](Delivery::stage)s every message of the canonical merge
//! (the plane's judgment, sequential), has the filter judge the staged links together
//! ([`judge_staged`](Delivery::judge_staged), which is where a filter with partitioned
//! state uses threads) and reads each [`outcome`](Delivery::outcome) back (the
//! accounting, sequential). That is the same judgment — plane before NAT verdict,
//! `on_send` even for a message the plane drops, one verdict at the undelayed delivery
//! instant covering the duplicate too — regrouped: plane and filter share no state, so
//! judging all faults first and all links second draws and decides exactly what the
//! per-message interleaving would. The sender's *sent* side is the one thing the batch
//! leaves to its caller: a shard charges it where the message is emitted.
//!
//! [`judge`]: crate::faults::FaultSession::judge

use crate::engine::NetworkStats;
use crate::faults::{FaultDecision, FaultPlane, FaultReport};
use crate::network::{BatchLink, DeliveryFilter, DeliveryVerdict, OpenInternet};
use crate::protocol::WireSize;
use crate::time::SimTime;
use crate::traffic::TrafficLedger;
use crate::types::NodeId;

/// The delivery plane of one engine; see the [module documentation](self).
pub(crate) struct Delivery {
    filter: Box<dyn DeliveryFilter>,
    faults: Option<FaultPlane>,
    /// Sender side of every message; the engines add what their executors account for
    /// (the event engine its receivers, both engines their hooks' transfers).
    pub(crate) ledger: TrafficLedger,
    stats: NetworkStats,
    /// The sharded barrier's batch — every staged message's link, which is also where the
    /// barrier keeps who sent what to whom and when — and the filter's verdict per link;
    /// recycled, so a barrier allocates nothing once the batch size has peaked.
    links: Vec<BatchLink>,
    verdicts: Vec<DeliveryVerdict>,
    /// The plane's decision per link of that batch, from the first link that drew a
    /// non-default one: empty — every link at the default — whenever the plane is
    /// inactive or injected nothing.
    decisions: Vec<FaultDecision>,
}

impl Delivery {
    /// An open network: no NAT filtering, no fault plane, empty ledger.
    pub(crate) fn new() -> Self {
        Delivery {
            filter: Box::new(OpenInternet),
            faults: None,
            ledger: TrafficLedger::new(),
            stats: NetworkStats::default(),
            links: Vec::new(),
            verdicts: Vec::new(),
            decisions: Vec::new(),
        }
    }

    pub(crate) fn set_filter(&mut self, filter: impl DeliveryFilter + 'static) {
        self.filter = Box::new(filter);
    }

    pub(crate) fn set_fault_plane(&mut self, plane: FaultPlane) {
        self.faults = Some(plane);
    }

    /// The plane's injection counters ([`FaultReport::default`] without a plane).
    pub(crate) fn fault_report(&self) -> FaultReport {
        self.faults
            .as_ref()
            .map(FaultPlane::report)
            .unwrap_or_default()
    }

    pub(crate) fn node_added(&mut self, node: NodeId) {
        self.filter.on_node_added(node);
    }

    pub(crate) fn node_removed(&mut self, node: NodeId) {
        self.filter.on_node_removed(node);
    }

    /// The counters this plane owns: `lost`, `blocked_by_nat` and the filter's share of
    /// `destination_gone`. `delivered` is always zero here.
    pub(crate) fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// Charges an application-level transfer (a [`HookOps`](crate::HookOps) workload's)
    /// to both sides of the ledger.
    pub(crate) fn record_transfer(&mut self, from: NodeId, to: NodeId, bytes: usize) {
        self.ledger.record_sent(from, bytes);
        self.ledger.record_received(to, bytes);
    }

    /// The fault plane's judgment of one message, on the plane's own stream; a *corrupt*
    /// decision mutates `msg` in place. An inactive or absent plane costs one atomic load
    /// and decides the default; an active one is locked for this one message.
    #[inline]
    fn judge_fault<M: WireSize>(&self, from: NodeId, to: NodeId, msg: &mut M) -> FaultDecision {
        let Some(mut session) = self.faults.as_ref().and_then(FaultPlane::begin) else {
            return FaultDecision::default();
        };
        let decision = session.judge(from, to);
        if decision.corrupt {
            msg.fault_mutate(session.rng());
        }
        decision
    }

    /// Accounts for the filter's verdict on a message of `from`: a refusal counts into
    /// its [`NetworkStats`] counter and as a ledger drop of the sender. Returns whether
    /// the message goes on.
    #[inline]
    fn settle(&mut self, from: NodeId, verdict: DeliveryVerdict) -> bool {
        match verdict {
            DeliveryVerdict::Deliver => return true,
            DeliveryVerdict::BlockedByNat => self.stats.blocked_by_nat += 1,
            DeliveryVerdict::NoSuchDestination => self.stats.destination_gone += 1,
        }
        self.ledger.record_dropped(from);
        false
    }

    /// Step 1 of the judgment for a message of `wire` bytes that `from` sent to `to` at
    /// `sent_at`. Returns `None` when the message died (already accounted), else what
    /// the fault plane asks of the delivery.
    #[inline]
    pub(crate) fn depart<M: WireSize>(
        &mut self,
        from: NodeId,
        to: NodeId,
        sent_at: SimTime,
        wire: usize,
        msg: &mut M,
    ) -> Option<FaultDecision> {
        self.ledger.record_sent(from, wire);
        self.filter.on_send(from, to, sent_at);
        let decision = self.judge_fault(from, to, msg);
        if decision.drop {
            self.stats.lost += 1;
            self.ledger.record_dropped(from);
            return None;
        }
        Some(decision)
    }

    /// Step 2 of the judgment for a message arriving at `to` at instant `at`.
    #[inline]
    pub(crate) fn arrive(&mut self, from: NodeId, to: NodeId, at: SimTime) -> DeliveryVerdict {
        let verdict = self.filter.can_deliver(from, to, at);
        self.settle(from, verdict);
        verdict
    }

    /// Opens a new batch: forgets the previous one, keeps its buffers.
    pub(crate) fn begin_batch(&mut self) {
        self.links.clear();
        self.decisions.clear();
    }

    /// Adds the next message, in canonical order, to the open batch: the fault plane
    /// judges it now, on its own stream (a *corrupt* decision mutates `msg` in place, a
    /// *drop* clears the link's `wants_verdict`), and the link is kept for
    /// [`judge_staged`](Self::judge_staged). Nothing is counted yet.
    #[inline]
    pub(crate) fn stage<M: WireSize>(&mut self, mut link: BatchLink, msg: &mut M) {
        let decision = self.judge_fault(link.from, link.to, msg);
        link.wants_verdict &= !decision.drop;
        if !self.decisions.is_empty() || decision != FaultDecision::default() {
            self.decisions
                .resize(self.links.len(), FaultDecision::default());
            self.decisions.push(decision);
        }
        self.links.push(link);
    }

    /// Hands the staged batch to the filter, whole, to judge on up to `workers` threads.
    pub(crate) fn judge_staged(&mut self, workers: usize) {
        self.filter
            .judge_batch(&self.links, &mut self.verdicts, workers);
    }

    /// What became of message `k` of the judged batch, accounting for it on the way:
    /// `None` when it died — dropped by the plane (`lost`) or refused by the filter
    /// (`blocked_by_nat` / `destination_gone`), either way a ledger drop of its sender —
    /// else its link and what the plane asks of its delivery. Call once per message.
    #[inline]
    pub(crate) fn outcome(&mut self, k: usize) -> Option<(BatchLink, FaultDecision)> {
        let link = self.links[k];
        let decision = self.decisions.get(k).copied().unwrap_or_default();
        if decision.drop {
            self.stats.lost += 1;
            self.ledger.record_dropped(link.from);
            return None;
        }
        self.settle(link.from, self.verdicts[k])
            .then_some((link, decision))
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use rand::rngs::SmallRng;

    use super::*;
    use crate::faults::FaultProfile;
    use crate::rng::Seed;
    use crate::time::SimDuration;

    const A: NodeId = NodeId::new(1);
    const B: NodeId = NodeId::new(2);
    const NATTED: NodeId = NodeId::new(3);
    const NOWHERE: NodeId = NodeId::new(4);
    const T: SimTime = SimTime::from_millis(5);

    /// Logs every call and blocks by destination: `NATTED` sits behind a NAT, `NOWHERE`
    /// does not exist.
    struct Scripted(Rc<RefCell<Vec<Call>>>);

    /// One filter call: the method, the link and the instant it was asked about.
    type Call = (&'static str, NodeId, NodeId, SimTime);

    impl DeliveryFilter for Scripted {
        fn on_send(&mut self, from: NodeId, to: NodeId, now: SimTime) {
            self.0.borrow_mut().push(("on_send", from, to, now));
        }

        fn can_deliver(&mut self, from: NodeId, to: NodeId, now: SimTime) -> DeliveryVerdict {
            self.0.borrow_mut().push(("can_deliver", from, to, now));
            match to {
                NATTED => DeliveryVerdict::BlockedByNat,
                NOWHERE => DeliveryVerdict::NoSuchDestination,
                _ => DeliveryVerdict::Deliver,
            }
        }
    }

    /// A payload that records whether the fault plane corrupted it.
    #[derive(Clone, Debug, Default, PartialEq)]
    struct Payload {
        corrupted: bool,
    }

    impl WireSize for Payload {
        fn wire_size(&self) -> usize {
            40
        }

        fn fault_mutate(&mut self, _rng: &mut SmallRng) {
            self.corrupted = true;
        }
    }

    fn scripted() -> (Delivery, Rc<RefCell<Vec<Call>>>) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut delivery = Delivery::new();
        delivery.set_filter(Scripted(Rc::clone(&log)));
        (delivery, log)
    }

    fn with_plane(profile: FaultProfile) -> (Delivery, FaultPlane) {
        let plane = FaultPlane::new(Seed::new(9));
        plane.set_default_profile(profile);
        let mut delivery = Delivery::new();
        delivery.set_fault_plane(plane.clone());
        (delivery, plane)
    }

    /// Departs `count` messages A → B and returns which of them survived.
    fn survivors(delivery: &mut Delivery, count: usize) -> Vec<bool> {
        let mut depart = || delivery.depart(A, B, T, 40, &mut Payload::default());
        (0..count).map(|_| depart().is_some()).collect()
    }

    #[test]
    fn a_fault_drop_counts_as_lost() {
        let (mut delivery, plane) = with_plane(FaultProfile::lossy(1.0));
        assert_eq!(survivors(&mut delivery, 3), [false; 3]);
        assert_eq!(delivery.stats().lost, 3);
        assert_eq!(delivery.stats().total(), 3);
        assert_eq!(plane.report().injected_drops, 3);
        let a = delivery.ledger.node_or_default(A);
        assert_eq!(
            (a.messages_sent, a.bytes_sent, a.messages_dropped),
            (3, 120, 3)
        );
    }

    #[test]
    fn a_survivor_carries_the_planes_delay_and_duplicate_flag() {
        let spike = SimDuration::from_millis(1);
        let (mut delivery, _) = with_plane(
            FaultProfile::default()
                .with_duplicate(1.0)
                .with_reorder(1.0, spike),
        );
        let departure = delivery
            .depart(A, B, T, 40, &mut Payload::default())
            .expect("the profile drops nothing");
        assert_eq!((departure.extra_delay, departure.duplicate), (spike, true));
        assert_eq!(
            delivery.stats().total(),
            0,
            "nothing is counted at departure"
        );
    }

    #[test]
    fn blocked_and_unknown_destinations_hit_their_counter_and_the_senders_ledger() {
        let (mut delivery, _) = scripted();
        assert_eq!(delivery.arrive(A, B, T), DeliveryVerdict::Deliver);
        assert_eq!(
            delivery.stats().total(),
            0,
            "the executor counts deliveries"
        );
        assert_eq!(delivery.arrive(A, NATTED, T), DeliveryVerdict::BlockedByNat);
        assert_eq!(
            delivery.arrive(A, NOWHERE, T),
            DeliveryVerdict::NoSuchDestination
        );
        let stats = delivery.stats();
        assert_eq!(
            (stats.blocked_by_nat, stats.destination_gone, stats.total()),
            (1, 1, 2)
        );
        assert_eq!(delivery.ledger.node_or_default(A).messages_dropped, 2);
    }

    #[test]
    fn corruption_happens_at_departure_before_the_nat_verdict() {
        let (mut delivery, log) = scripted();
        let plane = FaultPlane::new(Seed::new(9));
        plane.set_default_profile(FaultProfile::default().with_corrupt(1.0));
        delivery.set_fault_plane(plane.clone());
        let mut msg = Payload::default();
        let departure = delivery.depart(A, NATTED, T, 40, &mut msg);
        assert!(departure.is_some_and(|d| d.corrupt) && msg.corrupted);
        assert_eq!(*log.borrow(), [("on_send", A, NATTED, T)], "no verdict yet");
        let later = SimTime::from_millis(30);
        assert_eq!(
            delivery.arrive(A, NATTED, later),
            DeliveryVerdict::BlockedByNat
        );
        assert_eq!(log.borrow()[1], ("can_deliver", A, NATTED, later));
        assert_eq!(plane.report().corruptions, 1);
    }

    #[test]
    fn the_batch_is_the_per_message_sequence_with_the_plane_judged_first() {
        const DOOMED: NodeId = NodeId::new(5);
        let (mut delivery, log) = scripted();
        let plane = FaultPlane::new(Seed::new(9));
        plane.set_link_profile(DOOMED, FaultProfile::lossy(1.0));
        plane.set_link_profile(B, FaultProfile::default().with_duplicate(1.0));
        delivery.set_fault_plane(plane);
        let at = |k: usize, ms: u64| SimTime::from_millis(ms + k as u64);
        delivery.begin_batch();
        for (k, to) in [B, DOOMED, NATTED, NOWHERE].into_iter().enumerate() {
            let link = BatchLink {
                from: A,
                to,
                sent_at: at(k, 5),
                arrive_at: at(k, 100),
                wants_verdict: true,
            };
            delivery.stage(link, &mut Payload::default());
        }
        assert!(log.borrow().is_empty(), "staging asks the filter nothing");
        delivery.judge_staged(3);
        assert_eq!(
            *log.borrow(),
            [
                ("on_send", A, B, at(0, 5)),
                // One verdict, at the undelayed instant, although the plane duplicates it.
                ("can_deliver", A, B, at(0, 100)),
                // Dropped by the plane: it left its sender and never arrived.
                ("on_send", A, DOOMED, at(1, 5)),
                ("on_send", A, NATTED, at(2, 5)),
                ("can_deliver", A, NATTED, at(2, 100)),
                ("on_send", A, NOWHERE, at(3, 5)),
                ("can_deliver", A, NOWHERE, at(3, 100)),
            ]
        );
        assert_eq!(
            delivery.stats().total(),
            0,
            "nothing is counted before outcomes"
        );
        let (link, departure) = delivery.outcome(0).expect("A -> B is delivered");
        assert_eq!((link.to, link.arrive_at), (B, at(0, 100)));
        assert!(departure.duplicate);
        assert!((1..4).all(|k| delivery.outcome(k).is_none()));
        let stats = delivery.stats();
        assert_eq!(
            (stats.lost, stats.blocked_by_nat, stats.destination_gone),
            (1, 1, 1)
        );
        let a = delivery.ledger.node_or_default(A);
        assert_eq!(
            (a.messages_sent, a.messages_dropped),
            (0, 3),
            "drops are charged here, the send where the message was emitted"
        );
    }

    #[test]
    fn an_inactive_plane_judges_nothing_and_draws_nothing() {
        let plane = FaultPlane::new(Seed::new(9));
        let mut delivery = Delivery::new();
        delivery.set_fault_plane(plane.clone());
        assert_eq!(survivors(&mut delivery, 20), [true; 20]);
        assert_eq!(delivery.fault_report(), FaultReport::default());
        assert_eq!(delivery.ledger.node_or_default(A).messages_sent, 20);
        plane.set_default_profile(FaultProfile::lossy(0.5));
        let (mut twin, _) = with_plane(FaultProfile::lossy(0.5));
        assert_eq!(survivors(&mut delivery, 64), survivors(&mut twin, 64));
    }
}
