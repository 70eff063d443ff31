//! Deterministic fault injection at the engines' delivery seam.
//!
//! A [`FaultPlane`] sits between a protocol's sends and the engine's delivery queue and
//! injects message-plane faults — probabilistic drops, correlated loss bursts
//! (Gilbert–Elliott two-state chains), duplication, bounded reordering delays and payload
//! corruption — according to per-gateway [`FaultProfile`]s. It is the message-level
//! counterpart of the topology-level NAT dynamics: where the scenario scripts mutate
//! *reachability*, the fault plane degrades the *channel* itself.
//!
//! # Determinism
//!
//! Every fault decision is drawn from one dedicated RNG stream
//! ([`Stream::Custom`]`(`[`FAULT_RNG_STREAM`]`)` off the run seed), and both engines
//! consult the plane only on the coordinating thread, in the canonical message order:
//!
//! * the event engine judges messages as each callback's effects are applied (its event
//!   order is already total), and
//! * the sharded engine judges them inside the barrier's canonical
//!   `(send time, sender, sequence)` merge pass — the same single-threaded pass that runs
//!   the delivery filter.
//!
//! The draw sequence therefore never depends on the worker-thread count, which preserves
//! the sharded engine's bit-identity guarantee with faults enabled. Burst chains are
//! plane state keyed by destination and advance in the same canonical order.
//!
//! # Cost when disabled
//!
//! The plane is shared state behind an `Arc`; each engine's delivery plane holds an
//! `Option<FaultPlane>` and calls [`FaultPlane::begin`] for every message. With no
//! profile installed that is a single relaxed atomic load — the hot path stays
//! branch-predictable and the benchmark's `simulator.fault_inactive_ns` probe measures
//! the overhead.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use rand::rngs::SmallRng;
use rand::Rng;

use crate::fasthash::{FastHashMap, FastHashSet};
use crate::rng::{Seed, Stream};
use crate::time::SimDuration;
use crate::types::NodeId;

/// The [`Stream::Custom`] tag from which the fault plane derives its RNG.
pub(crate) const FAULT_RNG_STREAM: u64 = 0xFA17;

/// Parameters of a Gilbert–Elliott two-state correlated-loss chain.
///
/// Each destination gateway carries its own chain. Messages toward a gateway advance the
/// chain one step (in canonical order): in the *good* state loss is [`good_loss`] and the
/// chain enters the *bad* state with [`enter_probability`]; in the *bad* state loss is
/// [`bad_loss`] and the chain recovers with [`exit_probability`].
///
/// [`good_loss`]: BurstLoss::good_loss
/// [`bad_loss`]: BurstLoss::bad_loss
/// [`enter_probability`]: BurstLoss::enter_probability
/// [`exit_probability`]: BurstLoss::exit_probability
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstLoss {
    /// Probability of transitioning good → bad per message.
    pub enter_probability: f64,
    /// Probability of transitioning bad → good per message.
    pub exit_probability: f64,
    /// Loss probability while the chain is in the good state.
    pub good_loss: f64,
    /// Loss probability while the chain is in the bad state.
    pub bad_loss: f64,
}

impl BurstLoss {
    fn validate(&self) {
        for (name, p) in [
            ("enter_probability", self.enter_probability),
            ("exit_probability", self.exit_probability),
            ("good_loss", self.good_loss),
            ("bad_loss", self.bad_loss),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "BurstLoss::{name} must be within [0, 1], got {p}"
            );
        }
    }
}

/// A fault profile: the per-message fault probabilities applied to a link.
///
/// The default profile injects nothing. The plane is the only way a message is lost:
/// `lossy(p)` as the default profile is uniform loss, per-node
/// [`set_link_profile`](FaultPlane::set_link_profile) overrides bias it by class.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultProfile {
    /// Independent per-message drop probability.
    pub drop_probability: f64,
    /// Correlated loss bursts (Gilbert–Elliott), if any.
    pub burst: Option<BurstLoss>,
    /// Probability that a delivered message arrives twice.
    pub duplicate_probability: f64,
    /// Probability that a delivered message is delayed by a reordering spike.
    pub reorder_probability: f64,
    /// Upper bound of the uniform extra delay drawn for a reordered message.
    pub reorder_max_delay: SimDuration,
    /// Probability that a delivered message's payload is corrupted
    /// (via [`WireSize::fault_mutate`](crate::WireSize::fault_mutate)).
    pub corrupt_probability: f64,
}

impl FaultProfile {
    /// A profile that only drops messages independently with probability `p`.
    pub fn lossy(p: f64) -> Self {
        FaultProfile {
            drop_probability: p,
            ..FaultProfile::default()
        }
    }

    /// The canned correlated-loss profile used by the `burst_loss` scenario: rare
    /// transitions into a heavily lossy bad state, near-clean good state.
    pub fn burst_loss() -> Self {
        FaultProfile {
            burst: Some(BurstLoss {
                enter_probability: 0.05,
                exit_probability: 0.25,
                good_loss: 0.02,
                bad_loss: 0.75,
            }),
            ..FaultProfile::default()
        }
    }

    /// The canned duplication + reordering profile used by the `dup_reorder` scenario;
    /// includes a low corruption rate so the decode-hardening paths are exercised.
    pub fn dup_reorder() -> Self {
        FaultProfile {
            duplicate_probability: 0.15,
            reorder_probability: 0.25,
            reorder_max_delay: SimDuration::from_millis(1_500),
            corrupt_probability: 0.05,
            ..FaultProfile::default()
        }
    }

    /// Sets the independent drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_probability = p;
        self
    }

    /// Sets the duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate_probability = p;
        self
    }

    /// Sets the reordering probability and its maximum extra delay.
    pub fn with_reorder(mut self, p: f64, max_delay: SimDuration) -> Self {
        self.reorder_probability = p;
        self.reorder_max_delay = max_delay;
        self
    }

    /// Sets the corruption probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt_probability = p;
        self
    }

    /// Panics if any probability lies outside `[0, 1]`.
    pub fn validate(&self) {
        for (name, p) in [
            ("drop_probability", self.drop_probability),
            ("duplicate_probability", self.duplicate_probability),
            ("reorder_probability", self.reorder_probability),
            ("corrupt_probability", self.corrupt_probability),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "FaultProfile::{name} must be within [0, 1], got {p}"
            );
        }
        if let Some(burst) = &self.burst {
            burst.validate();
        }
    }
}

/// Counters of everything the fault plane injected plus the protocols' recovery effort.
///
/// The injection counters are filled by the plane itself and deliberately kept separate
/// from [`NetworkStats`](crate::NetworkStats): injected drops *also* count into
/// `NetworkStats::lost` (they are losses), but NAT-filter drops never appear here, so the
/// two failure planes stay distinguishable. The recovery counters (`retries_fired`,
/// `exchanges_abandoned`) are summed from the protocol nodes by the experiment driver.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Messages dropped by the independent drop probability.
    pub injected_drops: u64,
    /// Messages dropped while a Gilbert–Elliott chain was involved (good or bad state).
    pub burst_drops: u64,
    /// Messages duplicated.
    pub duplicates: u64,
    /// Messages delayed by a reordering spike.
    pub reorders: u64,
    /// Messages whose payload was corrupted.
    pub corruptions: u64,
    /// Retransmissions protocols fired after a timeout.
    pub retries_fired: u64,
    /// Exchanges protocols gave up on (timeout budget exhausted or superseded).
    pub exchanges_abandoned: u64,
}

impl FaultReport {
    /// Total number of messages the plane dropped.
    pub fn total_drops(&self) -> u64 {
        self.injected_drops + self.burst_drops
    }

    /// Total number of injection events of any class.
    pub fn total_injected(&self) -> u64 {
        self.total_drops() + self.duplicates + self.reorders + self.corruptions
    }
}

/// The verdict for one message, in canonical draw order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultDecision {
    /// The message is dropped (already counted); skip delivery entirely.
    pub drop: bool,
    /// Deliver a second copy of the message alongside the original.
    pub duplicate: bool,
    /// Extra delay to add to the message's delivery instant ([`SimDuration::ZERO`] when
    /// the message is not reordered).
    pub extra_delay: SimDuration,
    /// The payload must be corrupted via
    /// [`WireSize::fault_mutate`](crate::WireSize::fault_mutate) with the session RNG.
    pub corrupt: bool,
}

#[derive(Debug)]
struct PlaneState {
    default_profile: Option<FaultProfile>,
    /// Per-gateway overrides; the destination's entry wins over the source's, which wins
    /// over the default profile.
    overrides: FastHashMap<NodeId, FaultProfile>,
    /// Destinations whose Gilbert–Elliott chain currently sits in the bad state.
    bad_links: FastHashSet<NodeId>,
    rng: SmallRng,
    report: FaultReport,
}

/// A deterministic fault-injection plane shared between an engine and a scenario script.
///
/// The plane is a cloneable handle over shared state (like
/// [`NatTopology`](https://docs.rs/croupier-nat)'s): the engine holds one clone on its
/// delivery path, the scenario executor holds another and flips profiles mid-run at round
/// barriers. Fresh planes are inactive and cost one atomic load per message; they
/// activate when a profile is installed and deactivate again on [`clear`](Self::clear).
///
/// # Examples
///
/// ```
/// use croupier_simulator::{FaultPlane, FaultProfile, NodeId, Seed};
///
/// let plane = FaultPlane::new(Seed::new(7));
/// assert!(!plane.is_active());
/// plane.set_default_profile(FaultProfile::lossy(1.0));
/// let mut session = plane.begin().expect("active plane");
/// let decision = session.judge(NodeId::new(1), NodeId::new(2));
/// assert!(decision.drop);
/// drop(session);
/// assert_eq!(plane.report().injected_drops, 1);
/// plane.clear();
/// assert!(plane.begin().is_none());
/// ```
#[derive(Clone, Debug)]
pub struct FaultPlane {
    active: Arc<AtomicBool>,
    state: Arc<Mutex<PlaneState>>,
}

impl FaultPlane {
    /// Creates an inactive plane whose RNG stream derives from `seed`.
    pub fn new(seed: Seed) -> Self {
        FaultPlane {
            active: Arc::new(AtomicBool::new(false)),
            state: Arc::new(Mutex::new(PlaneState {
                default_profile: None,
                overrides: FastHashMap::default(),
                bad_links: FastHashSet::default(),
                rng: seed.stream_rng(Stream::Custom(FAULT_RNG_STREAM)),
                report: FaultReport::default(),
            })),
        }
    }

    /// Returns `true` when any profile is installed. One relaxed atomic load — this is
    /// the whole cost of the plane on a fault-free hot path.
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Installs (or replaces) the profile applied to every link without an override, and
    /// activates the plane.
    ///
    /// # Panics
    ///
    /// Panics if `profile` holds a probability outside `[0, 1]`.
    pub fn set_default_profile(&self, profile: FaultProfile) {
        profile.validate();
        self.state
            .lock()
            .expect("fault plane poisoned")
            .default_profile = Some(profile);
        self.active.store(true, Ordering::Relaxed);
    }

    /// Installs (or replaces) a per-gateway override for `node` (consulted for messages
    /// to *and* from it; the destination's override wins), and activates the plane.
    ///
    /// # Panics
    ///
    /// Panics if `profile` holds a probability outside `[0, 1]`.
    pub fn set_link_profile(&self, node: NodeId, profile: FaultProfile) {
        profile.validate();
        self.state
            .lock()
            .expect("fault plane poisoned")
            .overrides
            .insert(node, profile);
        self.active.store(true, Ordering::Relaxed);
    }

    /// Removes every profile and burst chain and deactivates the plane. The injection
    /// counters and the RNG position are kept, so a cleared-then-reactivated plane stays
    /// on its deterministic draw sequence.
    pub fn clear(&self) {
        let mut state = self.state.lock().expect("fault plane poisoned");
        state.default_profile = None;
        state.overrides.clear();
        state.bad_links.clear();
        self.active.store(false, Ordering::Relaxed);
    }

    /// A copy of the injection counters accumulated so far.
    pub fn report(&self) -> FaultReport {
        self.state.lock().expect("fault plane poisoned").report
    }

    /// Opens a judging session for one or more messages in canonical order, or `None`
    /// when the plane is inactive. The session holds the plane lock.
    pub fn begin(&self) -> Option<FaultSession<'_>> {
        if !self.is_active() {
            return None;
        }
        Some(FaultSession {
            state: self.state.lock().expect("fault plane poisoned"),
        })
    }
}

/// An open judging session over the plane (see [`FaultPlane::begin`]).
pub struct FaultSession<'a> {
    state: MutexGuard<'a, PlaneState>,
}

impl FaultSession<'_> {
    /// Judges one message in canonical order. Draw order is fixed — burst-chain
    /// transition, drop, duplication, reordering, corruption — and draws for disabled
    /// fault classes are skipped, so the consumed stream depends only on the installed
    /// profiles and the message sequence.
    pub fn judge(&mut self, from: NodeId, to: NodeId) -> FaultDecision {
        let state = &mut *self.state;
        let Some(profile) = state
            .overrides
            .get(&to)
            .or_else(|| state.overrides.get(&from))
            .or(state.default_profile.as_ref())
            .copied()
        else {
            return FaultDecision::default();
        };

        let mut loss = profile.drop_probability;
        let mut bursty = false;
        if let Some(burst) = profile.burst {
            let was_bad = state.bad_links.contains(&to);
            let toggle = state.rng.gen_bool(if was_bad {
                burst.exit_probability
            } else {
                burst.enter_probability
            });
            let is_bad = was_bad ^ toggle;
            if toggle {
                if is_bad {
                    state.bad_links.insert(to);
                } else {
                    state.bad_links.remove(&to);
                }
            }
            let chain_loss = if is_bad {
                burst.bad_loss
            } else {
                burst.good_loss
            };
            // Survive both the independent and the chain loss to get through.
            loss = 1.0 - (1.0 - loss) * (1.0 - chain_loss);
            // Attribute drops to the burst class only during bad episodes; good-state
            // drops are indistinguishable from independent loss and count as such.
            bursty = is_bad;
        }
        if loss > 0.0 && state.rng.gen_bool(loss) {
            if bursty {
                state.report.burst_drops += 1;
            } else {
                state.report.injected_drops += 1;
            }
            return FaultDecision {
                drop: true,
                ..FaultDecision::default()
            };
        }

        let duplicate = profile.duplicate_probability > 0.0
            && state.rng.gen_bool(profile.duplicate_probability);
        if duplicate {
            state.report.duplicates += 1;
        }

        let mut extra_delay = SimDuration::ZERO;
        if profile.reorder_probability > 0.0 && state.rng.gen_bool(profile.reorder_probability) {
            let cap = profile.reorder_max_delay.as_millis().max(1);
            extra_delay = SimDuration::from_millis(state.rng.gen_range(1..=cap));
            state.report.reorders += 1;
        }

        let corrupt =
            profile.corrupt_probability > 0.0 && state.rng.gen_bool(profile.corrupt_probability);
        if corrupt {
            state.report.corruptions += 1;
        }

        FaultDecision {
            drop: false,
            duplicate,
            extra_delay,
            corrupt,
        }
    }

    /// The plane's RNG, for applying a corruption verdict
    /// ([`WireSize::fault_mutate`](crate::WireSize::fault_mutate)) with draws on the same
    /// deterministic stream.
    pub(crate) fn rng(&mut self) -> &mut SmallRng {
        &mut self.state.rng
    }
}

/// Shared timeout/retry schedule for the protocols' exchange hardening: capped
/// exponential backoff with a bounded retransmission budget.
///
/// # Examples
///
/// ```
/// use croupier_simulator::{RetryPolicy, SimDuration};
///
/// let policy = RetryPolicy::for_round_period(SimDuration::from_secs(1));
/// assert_eq!(policy.base, SimDuration::from_millis(500), "half a round");
/// assert_eq!(policy.cap, SimDuration::from_secs(2), "two rounds");
/// assert_eq!(policy.max_retries, 2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Timeout before the first retransmission.
    pub base: SimDuration,
    /// Upper bound on any backoff interval.
    pub cap: SimDuration,
    /// Maximum number of retransmissions before the exchange is abandoned.
    pub max_retries: u32,
}

impl RetryPolicy {
    /// The schedule the protocol crates share: first timeout at half a gossip round,
    /// doubling per attempt, capped at two rounds, at most two retransmissions.
    pub fn for_round_period(period: SimDuration) -> Self {
        RetryPolicy {
            base: SimDuration::from_millis((period.as_millis() / 2).max(1)),
            cap: SimDuration::from_millis(period.as_millis().saturating_mul(2).max(1)),
            max_retries: 2,
        }
    }

    /// The same schedule on a transport whose replies cannot be executed earlier than
    /// `horizon` after the request was sent: every timeout is pushed out by the horizon
    /// (`base` and `cap` both grow by it), the retransmission budget is unchanged. A
    /// zero horizon returns the schedule as it is.
    pub(crate) fn after_reply_horizon(self, horizon: SimDuration) -> Self {
        RetryPolicy {
            base: self.base + horizon,
            cap: self.cap + horizon,
            ..self
        }
    }

    /// The timeout armed after `attempt` transmissions have already happened
    /// (`attempt = 0` is the initial send): `base * 2^attempt`, capped.
    pub(crate) fn backoff(&self, attempt: u32) -> SimDuration {
        let factor = 1u64 << attempt.min(32);
        SimDuration::from_millis(
            self.base
                .as_millis()
                .saturating_mul(factor)
                .min(self.cap.as_millis()),
        )
    }

    /// Returns `true` once `attempt` transmissions exceed the budget (initial send plus
    /// [`max_retries`](Self::max_retries) retransmissions).
    pub(crate) fn exhausted(&self, attempt: u32) -> bool {
        attempt > self.max_retries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane() -> FaultPlane {
        FaultPlane::new(Seed::new(42))
    }

    #[test]
    fn fresh_plane_is_inactive_and_free() {
        let p = plane();
        assert!(!p.is_active());
        assert!(p.begin().is_none());
        assert_eq!(p.report(), FaultReport::default());
    }

    #[test]
    fn default_profile_drops_at_the_configured_rate() {
        let p = plane();
        p.set_default_profile(FaultProfile::lossy(0.3));
        let mut session = p.begin().unwrap();
        let drops = (0..10_000)
            .filter(|i| session.judge(NodeId::new(*i), NodeId::new(i + 1)).drop)
            .count();
        drop(session);
        let rate = drops as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "observed drop rate {rate}");
        assert_eq!(p.report().injected_drops, drops as u64);
        assert_eq!(p.report().burst_drops, 0);
    }

    #[test]
    fn override_beats_default_and_destination_beats_source() {
        let p = plane();
        p.set_default_profile(FaultProfile::default());
        p.set_link_profile(NodeId::new(7), FaultProfile::lossy(1.0));
        p.set_link_profile(NodeId::new(8), FaultProfile::lossy(0.0));
        let mut s = p.begin().unwrap();
        // Default profile: nothing happens.
        assert!(!s.judge(NodeId::new(1), NodeId::new(2)).drop);
        // Destination override: always drops.
        assert!(s.judge(NodeId::new(1), NodeId::new(7)).drop);
        // Source override applies when the destination has none.
        assert!(s.judge(NodeId::new(7), NodeId::new(2)).drop);
        // Destination's no-op override wins over the source's lossy one.
        assert!(!s.judge(NodeId::new(7), NodeId::new(8)).drop);
    }

    #[test]
    fn burst_chain_correlates_losses() {
        let p = plane();
        p.set_default_profile(FaultProfile {
            burst: Some(BurstLoss {
                enter_probability: 0.02,
                exit_probability: 0.2,
                good_loss: 0.0,
                bad_loss: 1.0,
            }),
            ..FaultProfile::default()
        });
        let mut s = p.begin().unwrap();
        let verdicts: Vec<bool> = (0..20_000)
            .map(|_| s.judge(NodeId::new(0), NodeId::new(1)).drop)
            .collect();
        drop(s);
        let report = p.report();
        assert!(report.burst_drops > 0, "bad state never dropped anything");
        assert_eq!(report.injected_drops, 0, "all drops belong to the chain");
        // Correlation: the probability that a drop is followed by another drop must far
        // exceed the marginal drop rate (0.8 exit leaves runs of mean length 5).
        let marginal = verdicts.iter().filter(|v| **v).count() as f64 / verdicts.len() as f64;
        let pairs = verdicts.windows(2).filter(|w| w[0]).count();
        let after_drop = verdicts.windows(2).filter(|w| w[0] && w[1]).count();
        let conditional = after_drop as f64 / pairs as f64;
        assert!(
            conditional > marginal * 2.0,
            "losses are uncorrelated: P(drop|drop)={conditional:.3} vs marginal {marginal:.3}"
        );
    }

    #[test]
    fn duplication_reordering_and_corruption_are_counted() {
        let p = plane();
        p.set_default_profile(FaultProfile::dup_reorder());
        let mut s = p.begin().unwrap();
        let mut max_delay = SimDuration::ZERO;
        for i in 0..5_000 {
            let d = s.judge(NodeId::new(i), NodeId::new(i + 1));
            assert!(!d.drop, "dup_reorder never drops");
            if d.extra_delay > max_delay {
                max_delay = d.extra_delay;
            }
        }
        drop(s);
        let report = p.report();
        assert!(report.duplicates > 400, "duplicates: {}", report.duplicates);
        assert!(report.reorders > 800, "reorders: {}", report.reorders);
        assert!(
            report.corruptions > 100,
            "corruptions: {}",
            report.corruptions
        );
        assert!(max_delay <= SimDuration::from_millis(1_500));
        assert!(max_delay > SimDuration::ZERO);
    }

    #[test]
    fn identical_seeds_draw_identical_decisions() {
        let run = || {
            let p = plane();
            p.set_default_profile(FaultProfile::lossy(0.5).with_duplicate(0.3));
            let mut s = p.begin().unwrap();
            let seq: Vec<FaultDecision> = (0..500)
                .map(|i| s.judge(NodeId::new(i % 13), NodeId::new(i % 7)))
                .collect();
            drop(s);
            (seq, p.report())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clear_deactivates_but_keeps_counters() {
        let p = plane();
        p.set_default_profile(FaultProfile::lossy(1.0));
        p.begin().unwrap().judge(NodeId::new(1), NodeId::new(2));
        p.clear();
        assert!(!p.is_active());
        assert!(p.begin().is_none());
        assert_eq!(
            p.report().injected_drops,
            1,
            "clear must not reset counters"
        );
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn invalid_probability_is_rejected() {
        plane().set_default_profile(FaultProfile::lossy(1.5));
    }

    #[test]
    fn retry_policy_backoff_doubles_and_caps() {
        let policy = RetryPolicy::for_round_period(SimDuration::from_secs(1));
        assert_eq!(policy.backoff(0).as_millis(), 500);
        assert_eq!(policy.backoff(1).as_millis(), 1_000);
        assert_eq!(policy.backoff(2).as_millis(), 2_000);
        assert_eq!(policy.backoff(3).as_millis(), 2_000, "capped at two rounds");
        assert_eq!(policy.backoff(63).as_millis(), 2_000, "no shift overflow");
        assert!(!policy.exhausted(0));
        assert!(policy.exhausted(policy.max_retries + 1));
    }

    #[test]
    fn report_totals_add_up() {
        let report = FaultReport {
            injected_drops: 3,
            burst_drops: 2,
            duplicates: 4,
            reorders: 5,
            corruptions: 6,
            retries_fired: 7,
            exchanges_abandoned: 8,
        };
        assert_eq!(report.total_drops(), 5);
        assert_eq!(report.total_injected(), 20);
    }
}
