//! The dissemination workload engine: pub-sub chunk streaming measured against SLOs.
//!
//! The paper motivates NAT-aware peer sampling with P2P video streaming, so this module
//! puts an application on top of the sampling service and measures what the application
//! cares about: did every chunk reach (almost) every subscriber, how many rounds did it
//! take, and how much duplicate traffic did the overlay pay for it. A
//! [`WorkloadSpec`] configures publisher nodes that emit sequenced chunks at a target
//! rate; every gossip round, nodes holding a fresh chunk *push* it to a sampled fan-out
//! and nodes missing chunks *pull* from one sampled holder. Each transfer is checked
//! against the same NAT delivery filter and fault-injection plane the protocol's own
//! messages ride, so a reboot storm or a lossy window degrades the stream exactly as it
//! degrades the gossip underneath it.
//!
//! The engine runs as a [`RoundHook`] (installed through
//! [`SimulationEngine::set_sampled_round_hook`](croupier_simulator::SimulationEngine::set_sampled_round_hook)),
//! drawing its peers through [`HookOps::draw_sample`] — the target node's own protocol
//! sampling rule and RNG stream — and recording its traffic into the engine's ledger.
//! Because every step executes at the round barrier on the coordinating thread, in
//! ascending node-id order, a workload run is bit-identical across engine worker counts;
//! see `DESIGN.md` §16 for the full determinism argument.
//!
//! The per-chunk delivery tracker seals each chunk [`WorkloadSpec::coverage_rounds`]
//! rounds after publication and freezes its coverage, so the reported coverage *is*
//! "delivery within K rounds" and the SLO gate ([`WorkloadReport::meets_slo`]) reads
//! directly off the report.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use croupier_nat::NatTopology;
use croupier_simulator::{DeliveryFilter, FaultPlane, HookOps, NodeId, RoundHook, SimTime};

/// Declared service-level objectives for a dissemination workload.
///
/// # Examples
///
/// ```
/// use croupier_experiments::WorkloadSlo;
///
/// let slo = WorkloadSlo::default();
/// assert!(slo.min_coverage >= 0.99);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadSlo {
    /// Minimum fraction of `(chunk, live subscriber)` pairs delivered within the seal
    /// window ([`WorkloadSpec::coverage_rounds`]).
    pub min_coverage: f64,
    /// Maximum acceptable p95 delivery latency, in rounds.
    pub max_p95_latency_rounds: f64,
    /// Maximum acceptable p95 latency *regression* against a no-dynamics control run of
    /// the same cell, in rounds (judged by the workload matrix, which runs the control).
    pub max_p95_regression_rounds: f64,
}

impl Default for WorkloadSlo {
    fn default() -> Self {
        WorkloadSlo {
            min_coverage: 0.99,
            max_p95_latency_rounds: 8.0,
            max_p95_regression_rounds: 2.0,
        }
    }
}

/// Configuration of a dissemination workload (the module documentation of `workload.rs`
/// gives the model).
///
/// # Examples
///
/// ```
/// use croupier_experiments::WorkloadSpec;
///
/// let spec = WorkloadSpec::default().with_rate(1.5).with_window(10, 20);
/// assert_eq!(spec.chunks_per_round, 1.5);
/// assert_eq!(spec.start_round, 10);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Number of publisher nodes (the first live public nodes in ascending id order at
    /// the first publishing barrier; chunks round-robin over them).
    pub publishers: usize,
    /// Aggregate publish rate in chunks per round (fractional rates accumulate and
    /// publish on the rounds where the accumulator crosses an integer).
    pub chunks_per_round: f64,
    /// First round (1-based barrier index) at which chunks are published.
    pub start_round: u64,
    /// Number of consecutive rounds chunks are published for.
    pub publish_rounds: u64,
    /// Push fan-out: how many sampled peers a fresh holder forwards a chunk to.
    pub fanout: usize,
    /// Seal window K, in rounds: a chunk's coverage is frozen K rounds after
    /// publication, so coverage means "delivered within K rounds".
    pub coverage_rounds: u64,
    /// Wire size charged to the traffic ledger per chunk transfer, in bytes.
    pub chunk_bytes: usize,
    /// The SLOs the run is judged against.
    pub slo: WorkloadSlo,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            publishers: 1,
            chunks_per_round: 1.0,
            start_round: 1,
            publish_rounds: 10,
            fanout: 3,
            coverage_rounds: 10,
            chunk_bytes: 1024,
            slo: WorkloadSlo::default(),
        }
    }
}

impl WorkloadSpec {
    /// Sets the aggregate publish rate in chunks per round.
    pub fn with_rate(mut self, chunks_per_round: f64) -> Self {
        self.chunks_per_round = chunks_per_round.max(0.0);
        self
    }

    /// Sets the publishing window: chunks are published from `start_round` for
    /// `publish_rounds` rounds.
    pub fn with_window(mut self, start_round: u64, publish_rounds: u64) -> Self {
        self.start_round = start_round.max(1);
        self.publish_rounds = publish_rounds;
        self
    }

    /// Sets the push fan-out.
    pub fn with_fanout(mut self, fanout: usize) -> Self {
        self.fanout = fanout;
        self
    }

    /// Sets the seal window K (coverage means "delivered within K rounds").
    pub fn with_coverage_rounds(mut self, rounds: u64) -> Self {
        self.coverage_rounds = rounds.max(1);
        self
    }

    /// Sets the SLOs.
    pub(crate) fn with_slo(mut self, slo: WorkloadSlo) -> Self {
        self.slo = slo;
        self
    }

    /// The last round on which this spec publishes a chunk.
    pub(crate) fn last_publish_round(&self) -> u64 {
        self.start_round + self.publish_rounds.saturating_sub(1)
    }
}

/// What a dissemination workload run delivered, against what it promised.
///
/// All fields are either exact integer counters or values computed from them in a fixed
/// order, so two runs of the same seeded experiment produce `==`-identical reports — the
/// bit-identity tests compare whole reports across engine worker counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadReport {
    /// Chunks published over the run.
    pub chunks_published: u64,
    /// Chunks whose seal window closed before the end of the run (the rest are sealed
    /// early, at end-of-run state, when the report is built).
    pub chunks_sealed: u64,
    /// Σ over sealed chunks of the live-subscriber count at seal time.
    pub expected_deliveries: u64,
    /// Σ over sealed chunks of subscribers holding the chunk at seal time.
    pub unique_deliveries: u64,
    /// Every successful chunk transfer, including duplicates to nodes already holding
    /// the chunk.
    pub total_deliveries: u64,
    /// `unique_deliveries / expected_deliveries` — the fraction of `(chunk, live
    /// subscriber)` pairs served within the seal window.
    pub coverage: f64,
    /// The worst single chunk's coverage.
    pub min_chunk_coverage: f64,
    /// Median delivery latency in rounds (0 = delivered on the publishing round).
    pub latency_p50: f64,
    /// 95th-percentile delivery latency in rounds.
    pub latency_p95: f64,
    /// 99th-percentile delivery latency in rounds.
    pub latency_p99: f64,
    /// `total_deliveries / unique_deliveries`: 1.0 means no redundant transfers.
    pub duplicate_factor: f64,
    /// Push transfers attempted (fan-out draws that found a distinct live peer).
    pub pushes_attempted: u64,
    /// Pull requests that found a live peer holding something the puller lacked.
    pub pulls_served: u64,
    /// Transfers blocked by the NAT delivery filter.
    pub nat_blocked: u64,
    /// Transfers dropped by the fault-injection plane.
    pub fault_dropped: u64,
    /// Fraction of first-time deliveries served by a *public* node (publisher
    /// self-deliveries excluded). Compared against the public population share, this
    /// measures how much of the private majority's uplink capacity the overlay actually
    /// uses: direct-only transfer concentrates serving on the public core, because a
    /// push at a private target only lands when a NAT mapping already exists — the
    /// capacity argument for the relaying the paper's Gozar/Nylon baselines implement.
    pub public_serve_share: f64,
}

impl WorkloadReport {
    /// Judges the report against declared SLOs: coverage and absolute p95 latency. (The
    /// p95 *regression* bound needs a control run and is judged by the workload matrix.)
    pub fn meets_slo(&self, slo: &WorkloadSlo) -> bool {
        self.coverage >= slo.min_coverage && self.latency_p95 <= slo.max_p95_latency_rounds
    }
}

/// One published chunk still inside its seal window.
struct ActiveChunk {
    publish_round: u64,
    /// Everyone holding the chunk; queried only (never iterated), so hash order is
    /// unobservable.
    holders: HashSet<NodeId>,
    /// Nodes that received the chunk on the previous round and owe it a push this round,
    /// in canonical (receipt) order.
    pending: Vec<NodeId>,
    /// Nodes that received the chunk this round, promoted to `pending` at the next
    /// barrier.
    fresh: Vec<NodeId>,
}

/// The delivery tracker: all mutable workload state, shared between the hook riding the
/// engine and the driver that builds the final [`WorkloadReport`].
#[derive(Default)]
pub struct WorkloadState {
    publishers: Vec<NodeId>,
    publish_carry: f64,
    chunks_published: u64,
    active: Vec<ActiveChunk>,
    /// Delivery-latency histogram: `latency_hist[r]` counts first-time deliveries `r`
    /// rounds after publication.
    latency_hist: Vec<u64>,
    chunks_sealed: u64,
    expected_deliveries: u64,
    unique_deliveries: u64,
    total_deliveries: u64,
    min_chunk_coverage: f64,
    pushes_attempted: u64,
    pulls_served: u64,
    nat_blocked: u64,
    fault_dropped: u64,
    /// First-time deliveries whose serving node (push holder or pull source) is public.
    served_by_public: u64,
}

impl WorkloadState {
    /// Records a first-time delivery `latency` rounds after publication.
    fn record_delivery(&mut self, latency: u64) {
        let idx = latency as usize;
        if self.latency_hist.len() <= idx {
            self.latency_hist.resize(idx + 1, 0);
        }
        self.latency_hist[idx] += 1;
        self.unique_deliveries += 1;
        self.total_deliveries += 1;
    }

    /// Freezes `chunk`'s coverage against the ascending live-id list.
    fn seal_chunk(&mut self, chunk: ActiveChunk, live: &[NodeId]) {
        let delivered = live.iter().filter(|id| chunk.holders.contains(id)).count() as u64;
        let expected = live.len() as u64;
        self.chunks_sealed += 1;
        self.expected_deliveries += expected;
        // `unique_deliveries` counted at delivery time may exceed the sealed count when
        // a holder has since died; coverage uses the sealed numbers only.
        let coverage = if expected == 0 {
            0.0
        } else {
            delivered as f64 / expected as f64
        };
        if self.chunks_sealed == 1 || coverage < self.min_chunk_coverage {
            self.min_chunk_coverage = coverage;
        }
    }

    /// The exact percentile latency: the smallest latency `L` (in rounds) such that at
    /// least `pct` percent of all recorded deliveries happened within `L` rounds.
    fn latency_percentile(&self, pct: u64) -> f64 {
        let total: u64 = self.latency_hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let need = (total * pct).div_ceil(100);
        let mut cumulative = 0u64;
        for (latency, count) in self.latency_hist.iter().enumerate() {
            cumulative += count;
            if cumulative >= need {
                return latency as f64;
            }
        }
        (self.latency_hist.len().saturating_sub(1)) as f64
    }

    /// Builds the report, force-sealing any chunk whose window is still open (end-of-run
    /// state; matrix specs size their publish window so this never triggers there).
    fn build_report(&mut self, live: &[NodeId]) -> WorkloadReport {
        for chunk in std::mem::take(&mut self.active) {
            self.seal_chunk(chunk, live);
        }
        let coverage = if self.expected_deliveries == 0 {
            0.0
        } else {
            self.unique_deliveries as f64 / self.expected_deliveries as f64
        };
        WorkloadReport {
            chunks_published: self.chunks_published,
            chunks_sealed: self.chunks_sealed,
            expected_deliveries: self.expected_deliveries,
            unique_deliveries: self.unique_deliveries,
            total_deliveries: self.total_deliveries,
            coverage: coverage.min(1.0),
            min_chunk_coverage: self.min_chunk_coverage,
            latency_p50: self.latency_percentile(50),
            latency_p95: self.latency_percentile(95),
            latency_p99: self.latency_percentile(99),
            duplicate_factor: if self.unique_deliveries == 0 {
                1.0
            } else {
                self.total_deliveries as f64 / self.unique_deliveries as f64
            },
            pushes_attempted: self.pushes_attempted,
            pulls_served: self.pulls_served,
            nat_blocked: self.nat_blocked,
            fault_dropped: self.fault_dropped,
            public_serve_share: {
                // Publisher self-deliveries have no serving transfer behind them.
                let served = self.unique_deliveries.saturating_sub(self.chunks_published);
                if served == 0 {
                    0.0
                } else {
                    self.served_by_public as f64 / served as f64
                }
            },
        }
    }
}

/// The workload engine as a [`RoundHook`]: install with
/// [`set_sampled_round_hook`](croupier_simulator::SimulationEngine::set_sampled_round_hook)
/// (the plain `set_round_hook` leaves [`HookOps::draw_sample`] returning `None`, starving
/// the workload of peers). The experiment driver composes it after the scenario executor
/// in a [`CompositeRoundHook`](croupier_simulator::CompositeRoundHook), so workload
/// traffic always sees the post-dynamics NAT world of the closing round.
pub struct WorkloadExecutor {
    spec: WorkloadSpec,
    /// Shares state with the engine's delivery filter, so `can_deliver` answers with the
    /// same bindings and policies protocol messages are filtered by.
    topology: NatTopology,
    /// The run's fault plane (always installed by the driver, possibly inactive); chunk
    /// transfers are judged on the same deterministic stream as protocol messages.
    plane: FaultPlane,
    state: Arc<Mutex<WorkloadState>>,
    /// Ascending live-id scratch, refilled per barrier.
    live: Vec<NodeId>,
}

impl WorkloadExecutor {
    /// Creates the executor and hands back the shared state the driver reads the final
    /// report from.
    pub fn new(
        spec: WorkloadSpec,
        topology: NatTopology,
        plane: FaultPlane,
    ) -> (Self, Arc<Mutex<WorkloadState>>) {
        let state = Arc::new(Mutex::new(WorkloadState::default()));
        (
            WorkloadExecutor {
                spec,
                topology,
                plane,
                state: Arc::clone(&state),
                live: Vec::new(),
            },
            state,
        )
    }

    /// Builds the final report from shared state: force-seals open chunks against the
    /// current live population and computes the percentiles.
    pub fn report(state: &Mutex<WorkloadState>, live: &[NodeId]) -> WorkloadReport {
        state
            .lock()
            .expect("workload state poisoned")
            .build_report(live)
    }

    /// Judges one transfer attempt in request direction `from → to`: NAT filter first,
    /// then the fault plane. Returns `true` when the chunk gets through; a block or drop
    /// is charged to the requester. The caller records the successful bytes against
    /// whichever side actually serves them.
    ///
    /// Deliberately not the engines' delivery plane (`croupier-simulator`'s
    /// `delivery.rs`): a transfer asks whether a request *could* reach `to`, so nothing
    /// is sent (no `on_send`), the NAT verdict precedes the plane and the
    /// plane can only drop. Sharing the engines' code would make it branch on its caller.
    fn admit(
        &mut self,
        state: &mut WorkloadState,
        ops: &mut dyn HookOps,
        from: NodeId,
        to: NodeId,
        now: SimTime,
    ) -> bool {
        if !self.topology.can_deliver(from, to, now).is_delivered() {
            state.nat_blocked += 1;
            ops.record_blocked(from);
            return false;
        }
        if let Some(mut session) = self.plane.begin() {
            if session.judge(from, to).drop {
                state.fault_dropped += 1;
                drop(session);
                ops.record_blocked(from);
                return false;
            }
        }
        true
    }

    /// Whether `node` sits in the open internet (serving from it costs no NAT traversal).
    fn is_public(&self, node: NodeId) -> bool {
        self.topology.class_of(node).is_some_and(|c| c.is_public())
    }
}

impl RoundHook for WorkloadExecutor {
    fn on_round_barrier(&mut self, _round: u64, _now: SimTime) {
        // Reached only when mis-installed via the plain `set_round_hook`; without
        // `HookOps` there are no peers to sample and no ledger to charge, so the
        // workload deliberately does nothing rather than invent its own side channel.
    }

    fn on_round_barrier_with(&mut self, round: u64, now: SimTime, ops: &mut dyn HookOps) {
        if round < self.spec.start_round {
            return;
        }
        let state = Arc::clone(&self.state);
        let mut state = state.lock().expect("workload state poisoned");
        let state = &mut *state;

        let mut live = std::mem::take(&mut self.live);
        live.clear();
        ops.live_node_ids_into(&mut live);

        // 1. Seal chunks whose K-round window closed at this barrier; coverage freezes
        //    against the current live population.
        let mut index = 0;
        while index < state.active.len() {
            if round - state.active[index].publish_round >= self.spec.coverage_rounds {
                let chunk = state.active.remove(index);
                state.seal_chunk(chunk, &live);
            } else {
                index += 1;
            }
        }

        // 2. Publish new chunks (fractional rates carry over), round-robining over the
        //    publisher set fixed at the first publishing barrier.
        if round <= self.spec.last_publish_round() && self.spec.chunks_per_round > 0.0 {
            if state.publishers.is_empty() {
                // Prefer live public nodes (a real CDN ingest point is reachable);
                // ascending-id order keeps the choice canonical.
                state.publishers = self
                    .topology
                    .public_node_ids()
                    .into_iter()
                    .filter(|id| ops.is_live(*id))
                    .take(self.spec.publishers)
                    .collect();
                if state.publishers.is_empty() {
                    state.publishers = live.iter().copied().take(self.spec.publishers).collect();
                }
            }
            state.publish_carry += self.spec.chunks_per_round;
            while state.publish_carry >= 1.0 && !state.publishers.is_empty() {
                state.publish_carry -= 1.0;
                let publisher =
                    state.publishers[(state.chunks_published as usize) % state.publishers.len()];
                state.chunks_published += 1;
                let mut holders = HashSet::new();
                holders.insert(publisher);
                state.record_delivery(0);
                state.active.push(ActiveChunk {
                    publish_round: round,
                    holders,
                    pending: vec![publisher],
                    fresh: Vec::new(),
                });
            }
        }

        // 3. Push phase: every node that received a chunk last round forwards it to a
        //    sampled fan-out, chunk by chunk in publish order, pushers in receipt order.
        for chunk_idx in 0..state.active.len() {
            let pending = std::mem::take(&mut state.active[chunk_idx].pending);
            for holder in &pending {
                if !ops.is_live(*holder) {
                    continue;
                }
                for _ in 0..self.spec.fanout {
                    let Some(peer) = ops.draw_sample(*holder) else {
                        continue;
                    };
                    if peer == *holder || !ops.is_live(peer) {
                        continue;
                    }
                    state.pushes_attempted += 1;
                    if !self.admit(state, ops, *holder, peer, now) {
                        continue;
                    }
                    ops.record_transfer(*holder, peer, self.spec.chunk_bytes);
                    let latency = round - state.active[chunk_idx].publish_round;
                    if state.active[chunk_idx].holders.insert(peer) {
                        state.record_delivery(latency);
                        state.served_by_public += u64::from(self.is_public(*holder));
                        state.active[chunk_idx].fresh.push(peer);
                    } else {
                        state.total_deliveries += 1;
                    }
                }
            }
        }

        // 4. Pull phase: every live node missing at least one active chunk asks one
        //    sampled peer for everything it lacks (anti-entropy; the response rides the
        //    NAT mapping the request opens, so reachability is judged puller → holder).
        if !state.active.is_empty() {
            for node in &live {
                let missing_any = state.active.iter().any(|c| !c.holders.contains(node));
                if !missing_any {
                    continue;
                }
                let Some(peer) = ops.draw_sample(*node) else {
                    continue;
                };
                if peer == *node || !ops.is_live(peer) {
                    continue;
                }
                let serves = state
                    .active
                    .iter()
                    .any(|c| c.holders.contains(&peer) && !c.holders.contains(node));
                if !serves {
                    continue;
                }
                state.pulls_served += 1;
                // Reachability is judged in the request direction (the response rides
                // the NAT mapping the request opens) but the *bytes* are served by the
                // holder, so the ledger charges `peer`.
                if !self.admit(state, ops, *node, peer, now) {
                    continue;
                }
                let peer_public = u64::from(self.is_public(peer));
                let mut chunks_pulled = 0usize;
                for chunk in &mut state.active {
                    if chunk.holders.contains(&peer) && !chunk.holders.contains(node) {
                        chunk.holders.insert(*node);
                        let latency = round - chunk.publish_round;
                        let idx = latency as usize;
                        if state.latency_hist.len() <= idx {
                            state.latency_hist.resize(idx + 1, 0);
                        }
                        state.latency_hist[idx] += 1;
                        state.unique_deliveries += 1;
                        state.total_deliveries += 1;
                        state.served_by_public += peer_public;
                        chunks_pulled += 1;
                        chunk.fresh.push(*node);
                    }
                }
                ops.record_transfer(peer, *node, chunks_pulled * self.spec.chunk_bytes);
            }
        }

        // 5. Promote this round's receipts to next round's pushers.
        for chunk in &mut state.active {
            chunk.pending = std::mem::take(&mut chunk.fresh);
        }

        self.live = live;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_read_off_the_histogram_exactly() {
        // 90 deliveries at 1 round, 10 at 5 rounds.
        let state = WorkloadState {
            latency_hist: vec![0, 90, 0, 0, 0, 10],
            ..WorkloadState::default()
        };
        assert_eq!(state.latency_percentile(50), 1.0);
        assert_eq!(state.latency_percentile(90), 1.0);
        assert_eq!(state.latency_percentile(95), 5.0);
        assert_eq!(state.latency_percentile(99), 5.0);
        assert_eq!(WorkloadState::default().latency_percentile(95), 0.0);
    }

    #[test]
    fn sealing_freezes_coverage_against_the_live_set() {
        let mut state = WorkloadState::default();
        let live: Vec<NodeId> = (0..10).map(NodeId::new).collect();
        let mut holders = HashSet::new();
        for id in 0..9 {
            holders.insert(NodeId::new(id));
        }
        state.seal_chunk(
            ActiveChunk {
                publish_round: 1,
                holders,
                pending: Vec::new(),
                fresh: Vec::new(),
            },
            &live,
        );
        assert_eq!(state.chunks_sealed, 1);
        assert_eq!(state.expected_deliveries, 10);
        assert!((state.min_chunk_coverage - 0.9).abs() < 1e-12);
    }

    #[test]
    fn report_judges_slos() {
        let mut state = WorkloadState {
            chunks_published: 2,
            chunks_sealed: 2,
            expected_deliveries: 100,
            unique_deliveries: 100,
            total_deliveries: 120,
            latency_hist: vec![10, 80, 10],
            min_chunk_coverage: 1.0,
            ..WorkloadState::default()
        };
        let report = state.build_report(&[]);
        assert!((report.coverage - 1.0).abs() < 1e-12);
        assert!((report.duplicate_factor - 1.2).abs() < 1e-12);
        assert!(report.meets_slo(&WorkloadSlo::default()));
        let strict = WorkloadSlo {
            min_coverage: 1.01,
            ..WorkloadSlo::default()
        };
        assert!(!report.meets_slo(&strict));
    }

    #[test]
    fn spec_builders_clamp_degenerate_values() {
        let spec = WorkloadSpec::default()
            .with_rate(-2.0)
            .with_window(0, 5)
            .with_coverage_rounds(0);
        assert_eq!(spec.chunks_per_round, 0.0);
        assert_eq!(spec.start_round, 1);
        assert_eq!(spec.coverage_rounds, 1);
        assert_eq!(spec.last_publish_round(), 5);
    }
}
