//! The four workloads: how their inputs are generated from the seed, how a cell is run
//! (untraced through the real driver, traced through the traced driver), and the oracles
//! that decide whether a cell's output is correct.
//!
//! A *cell* is one complete experiment of a workload — everything a user would wait for.
//! All workloads are closed batch runs (a simulator has no arrival process): a run of the
//! benchmark repeats cells back to back until its time budget is used, never fewer than
//! one. Joins are compressed into the first 10 simulated seconds; the drivers' default
//! inter-arrival times would need 200 rounds to admit 20k nodes.

use std::panic::{catch_unwind, AssertUnwindSafe};

use croupier::CroupierNode;
use croupier_baselines::{CyclonNode, GozarNode, NylonNode};
use croupier_experiments::matrix::{
    cell_params, matrix_rounds, matrix_workload_spec, run_workload_matrix, WorkloadCellReport,
    WorkloadScenarioReport, WORKLOAD_TIER_NAMES,
};
use croupier_experiments::protocols::{run_kind, ProtocolConfigs};
use croupier_experiments::scenario::JoinSchedule;
use croupier_experiments::{
    ChurnSpec, ExperimentParams, ProtocolKind, RunOutput, Scale, ScenarioScript,
};
use croupier_simulator::rng::Stream;
use croupier_simulator::{NetworkStats, Seed};

use crate::digest;
use crate::stats::{median, percentile, supported_percentile};
use crate::trace::Tracer;
use crate::traced_driver::{run_pss_traced, RunTrace};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub(crate) const NAMES: [&str; 4] = [
    "croupier_steady",
    "cyclon_nat_wide",
    "paper_matrix",
    "metrics_every_round",
];

/// Resident set of one full-size cell of workload `name`, rounded up generously from
/// `peak_rss_mb` on this commit: how much memory the harness pre-faults before timing.
/// Too large only costs pre-fault time; too small lets host page-backing noise back
/// into `wall_s`.
pub(crate) fn resident_mb(name: &str) -> usize {
    match name {
        "croupier_steady" => 600,
        "cyclon_nat_wide" => 1_400,
        "paper_matrix" => 200,
        "metrics_every_round" => 450,
        _ => 0,
    }
}

/// `Full` is what the benchmark times; `Tiny` is the same shape at a fortieth of the
/// population, used as the warm-up cell inside `setup_s` and by `--smoke`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Size {
    Full,
    Tiny,
}

/// The generated inputs of one workload: all the program under test ever sees.
#[derive(Clone, Debug)]
pub(crate) enum Inputs {
    /// One `run_kind` call.
    Run {
        kind: ProtocolKind,
        params: Box<ExperimentParams>,
    },
    /// One `run_workload_matrix` call — what `workload_matrix --scale <scale>` runs.
    Matrix {
        scale: Scale,
        seed: u64,
        scripts: Vec<ScenarioScript>,
    },
}

fn compress_joins(mut params: ExperimentParams) -> ExperimentParams {
    params.public_interarrival_ms = 10_000.0 / params.n_public.max(1) as f64;
    params.private_interarrival_ms = 10_000.0 / params.n_private.max(1) as f64;
    params
}

/// Generates the inputs of workload `name` from `seed`; `None` for an unknown name.
pub(crate) fn generate(name: &str, seed: u64, size: Size) -> Option<Inputs> {
    let shrink = |n: usize| match size {
        Size::Full => n,
        Size::Tiny => n / 40,
    };
    let base = ExperimentParams::default().with_seed(seed);
    let run = |kind, params| Inputs::Run {
        kind,
        params: Box::new(compress_joins(params)),
    };
    Some(match name {
        // At least γ + α = 75 rounds, so the run reaches the estimate-cache plateau
        // where a Croupier round costs ~15× what it costs at round 3.
        "croupier_steady" => run(
            ProtocolKind::Croupier,
            base.with_population(shrink(1_600), shrink(6_400))
                .with_rounds(100)
                .with_sample_every(10)
                .with_engine_threads(2),
        ),
        "cyclon_nat_wide" => run(
            ProtocolKind::Cyclon,
            base.with_population(shrink(20_000), shrink(80_000))
                .with_rounds(20)
                .with_sample_every(20)
                .with_engine_threads(2),
        ),
        "paper_matrix" => {
            let scale = match size {
                Size::Full => Scale::Paper,
                Size::Tiny => Scale::Tiny,
            };
            let rounds = matrix_rounds(scale);
            Inputs::Matrix {
                scale,
                seed,
                scripts: WORKLOAD_TIER_NAMES
                    .iter()
                    .map(|name| {
                        ScenarioScript::by_name(name, rounds).expect("workload-tier script exists")
                    })
                    .collect(),
            }
        }
        // Stable membership first (delta fast path of both incremental trackers), then
        // 1 %/round churn (their rebuild path).
        "metrics_every_round" => run(
            ProtocolKind::Cyclon,
            base.with_population(shrink(30_000), 0)
                .with_rounds(40)
                .with_sample_every(1)
                .with_graph_metrics(match size {
                    Size::Full => 64,
                    Size::Tiny => 16,
                })
                .with_incremental_components()
                .with_incremental_indegree()
                .with_churn(ChurnSpec::new(20, 0.01))
                .with_engine_threads(1),
        ),
        _ => return None,
    })
}

/// The verdict on one cell.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct CellOutcome {
    /// Sim digest of everything the cell simulated (0 when it panicked).
    pub(crate) digest: u64,
    /// Operations attempted: `run_kind` calls, or matrix cells.
    pub(crate) attempted: u64,
    /// One line per failed operation.
    pub(crate) failures: Vec<String>,
}

/// Simulated node-rounds of one driver run: live nodes summed over rounds, from the
/// same join schedule the driver draws (churn replaces nodes one for one).
fn node_rounds_of(params: &ExperimentParams) -> u64 {
    let mut rng = Seed::new(params.seed).stream_rng(Stream::Workload);
    let schedule = JoinSchedule::poisson(
        params.n_public,
        params.public_interarrival_ms,
        params.n_private,
        params.private_interarrival_ms,
        &mut rng,
    );
    let events = schedule.events();
    let mut joined = 0usize;
    (1..=params.rounds)
        .map(|round| {
            while joined < events.len() && events[joined].at.as_millis() <= round * 1_000 {
                joined += 1;
            }
            joined as u64
        })
        .sum()
}

impl Inputs {
    /// Operations one cell attempts.
    pub(crate) fn operations(&self) -> u64 {
        match self {
            Inputs::Run { .. } => 1,
            Inputs::Matrix { scripts, .. } => (scripts.len() * ProtocolKind::ALL.len()) as u64,
        }
    }

    /// Simulated node-rounds of one cell (the numerator of `node_rounds_per_s`).
    pub(crate) fn node_rounds(&self) -> u64 {
        match self {
            Inputs::Run { params, .. } => node_rounds_of(params),
            Inputs::Matrix {
                scale,
                seed,
                scripts,
            } => {
                // Every matrix cell is a scenario run plus its control, same schedule.
                let rounds = matrix_rounds(*scale);
                let per_script: u64 = ProtocolKind::ALL
                    .iter()
                    .map(|&kind| 2 * node_rounds_of(&cell_params(kind, *scale, *seed, rounds)))
                    .sum();
                per_script * scripts.len() as u64
            }
        }
    }

    /// One line describing the inputs, for the human-readable output.
    pub(crate) fn describe(&self) -> String {
        match self {
            Inputs::Run { kind, params } => format!(
                "run_kind({kind}): {} public + {} private, {} rounds, engine_threads={}, \
                 sample_every={}",
                params.n_public,
                params.n_private,
                params.rounds,
                params.engine_threads,
                params.sample_every
            ),
            Inputs::Matrix { scale, scripts, .. } => format!(
                "run_workload_matrix: {} scripts x {} protocols at {scale:?} scale, {} rounds",
                scripts.len(),
                ProtocolKind::ALL.len(),
                matrix_rounds(*scale)
            ),
        }
    }

    /// Runs one cell through the real driver, untraced, and judges it.
    pub(crate) fn run(&self, size: Size) -> CellOutcome {
        self.judged(|| match self {
            Inputs::Run { kind, params } => {
                let out = run_kind(*kind, params, &ProtocolConfigs::default());
                (digest::of_run(&out), check_run(*kind, params, &out, size))
            }
            Inputs::Matrix {
                scale,
                seed,
                scripts,
            } => {
                let reports = run_workload_matrix(scripts, &ProtocolKind::ALL, *scale, *seed);
                (digest::of_matrix(&reports), check_matrix(&reports, size))
            }
        })
    }

    /// Runs one cell through the traced driver. The digest is computed exactly as
    /// [`run`](Self::run) computes it, so the two can be compared bit for bit.
    pub(crate) fn run_traced(&self, size: Size, tracer: &mut Tracer) -> (CellOutcome, TraceTotals) {
        let mut totals = TraceTotals::default();
        let outcome = self.judged(|| match self {
            Inputs::Run { kind, params } => {
                let trace = run_kind_traced(*kind, params, tracer, 0);
                let verdict = (
                    digest::of_run(&trace.output),
                    check_run(*kind, params, &trace.output, size),
                );
                totals.absorb(*kind, params, trace);
                verdict
            }
            Inputs::Matrix {
                scale,
                seed,
                scripts,
            } => {
                let reports = traced_matrix(scripts, *scale, *seed, tracer, &mut totals);
                (digest::of_matrix(&reports), check_matrix(&reports, size))
            }
        });
        (outcome, totals)
    }

    /// Runs `cell`, which returns its digest and oracle failures, and turns a panic
    /// into one more failure instead of taking the benchmark down.
    fn judged(&self, cell: impl FnOnce() -> (u64, Vec<String>)) -> CellOutcome {
        let (digest, failures) = catch_unwind(AssertUnwindSafe(cell))
            .unwrap_or_else(|panic| (0, vec![format!("panicked: {}", panic_message(&panic))]));
        CellOutcome {
            digest,
            attempted: self.operations(),
            failures,
        }
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Oracles on one driver run. The statistical ones only mean something at full size
/// (at 25–750 nodes a single straggler moves them), so `Tiny` keeps the exact ones.
fn check_run(
    kind: ProtocolKind,
    params: &ExperimentParams,
    out: &RunOutput,
    size: Size,
) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(last) = out.last_sample() else {
        return vec!["no sample was taken".to_string()];
    };
    if last.node_count != params.total_nodes() {
        failures.push(format!(
            "final node_count {} != {}",
            last.node_count,
            params.total_nodes()
        ));
    }
    if size == Size::Tiny {
        return failures;
    }
    if kind == ProtocolKind::Croupier && last.estimation.maximum > 0.05 {
        failures.push(format!(
            "final Croupier estimation error {} > 0.05",
            last.estimation.maximum
        ));
    }
    if let Some(sample) = out
        .samples
        .iter()
        .find(|s| s.round > 15 && s.largest_component.is_some_and(|c| c < 0.99))
    {
        failures.push(format!(
            "round {}: largest component {:?} < 0.99",
            sample.round, sample.largest_component
        ));
    }
    failures
}

/// Oracles on a workload matrix: every scenario has all its cells, and Croupier's cell
/// meets the absolute delivery SLOs (coverage and p95 latency). The matrix binary's third
/// clause — p95 within 5 rounds of the no-dynamics control — is left out: it is a
/// difference of two small integers and flips on about one seed in thirty (seed 28:
/// +6 rounds), and a benchmark oracle must hold on a healthy tree for any seed.
fn check_matrix(reports: &[WorkloadScenarioReport], size: Size) -> Vec<String> {
    let mut failures = Vec::new();
    for report in reports {
        if report.cells.len() != ProtocolKind::ALL.len() {
            failures.push(format!("{}: {} cells", report.scenario, report.cells.len()));
        }
        let croupier_ok = report
            .cells
            .iter()
            .filter(|cell| cell.protocol == ProtocolKind::Croupier.name())
            .all(|cell| cell.report.meets_slo(&report.spec.slo));
        if size == Size::Full && !croupier_ok {
            failures.push(format!(
                "{}: croupier missed a delivery SLO",
                report.scenario
            ));
        }
    }
    failures
}

/// `run_kind`, through the traced driver: same constructors, same configs.
fn run_kind_traced(
    kind: ProtocolKind,
    params: &ExperimentParams,
    tracer: &mut Tracer,
    run: u32,
) -> RunTrace {
    let configs = ProtocolConfigs::default();
    match kind {
        ProtocolKind::Croupier => {
            let config = configs.croupier;
            run_pss_traced(
                params,
                move |id, class, _| CroupierNode::new(id, class, config.clone()),
                tracer,
                run,
            )
        }
        ProtocolKind::Cyclon => {
            let config = configs.baseline;
            run_pss_traced(
                params,
                move |id, _, _| CyclonNode::new(id, config.clone()),
                tracer,
                run,
            )
        }
        ProtocolKind::Gozar => {
            let config = configs.baseline;
            run_pss_traced(
                params,
                move |id, class, _| GozarNode::new(id, class, config.clone()),
                tracer,
                run,
            )
        }
        ProtocolKind::Nylon => {
            let config = configs.baseline;
            run_pss_traced(
                params,
                move |id, class, _| NylonNode::new(id, class, config.clone()),
                tracer,
                run,
            )
        }
    }
}

/// `run_workload_matrix`, through the traced driver: each cell is the scenario run plus
/// its same-seed no-dynamics control, as `run_workload_cell` builds them.
fn traced_matrix(
    scripts: &[ScenarioScript],
    scale: Scale,
    seed: u64,
    tracer: &mut Tracer,
    totals: &mut TraceTotals,
) -> Vec<WorkloadScenarioReport> {
    let rounds = matrix_rounds(scale);
    let spec = matrix_workload_spec(scale);
    let mut run = 0u32;
    scripts
        .iter()
        .map(|script| WorkloadScenarioReport {
            scenario: script.name().to_string(),
            seed,
            rounds,
            initial_nodes: cell_params(ProtocolKind::Croupier, scale, seed, rounds).total_nodes(),
            spec,
            cells: ProtocolKind::ALL
                .iter()
                .map(|&kind| {
                    let cell_script = if kind.is_nat_aware() {
                        script.clone()
                    } else {
                        script.with_public_flash_crowds()
                    };
                    let mut traced = |params: ExperimentParams| {
                        let trace = run_kind_traced(kind, &params, tracer, run);
                        run += 1;
                        let report = trace
                            .output
                            .workload
                            .clone()
                            .expect("workload was configured");
                        totals.absorb(kind, &params, trace);
                        report
                    };
                    let base = cell_params(kind, scale, seed, rounds).with_workload(spec);
                    WorkloadCellReport {
                        protocol: kind.name().to_string(),
                        report: traced(base.clone().with_scenario(cell_script)),
                        control: traced(base),
                    }
                })
                .collect(),
        })
        .collect()
}

/// Everything the traced runs of one cell measured, summed over its driver runs.
#[derive(Debug, Default)]
pub(crate) struct TraceTotals {
    runs: u64,
    rounds: u64,
    engine_ms: Vec<f64>,
    /// Engine ms of rounds 11–15 (the first five after the compressed join phase) and of
    /// each run's last five rounds, pooled over runs.
    early_engine_ms: Vec<f64>,
    late_engine_ms: Vec<f64>,
    early_callback_ns: u64,
    late_callback_ns: u64,
    stats: NetworkStats,
    on_send: (u64, u64),
    can_deliver: (u64, u64),
    filter_delivered: u64,
    on_round: (u64, u64),
    on_message: (u64, u64),
    callback_ns: u64,
    croupier_callback_ns: u64,
    sim_add: (u64, u64),
    nat_add: (u64, u64),
    join_phase_ns: u64,
    capture_ns: u64,
    analysis_ns: u64,
    hook_scenario_ns: u64,
    hook_workload_ns: u64,
    workload_rounds: u64,
    coverage_sum: f64,
    workload_reports: u64,
    workload_p95_rounds: f64,
    retries_fired: u64,
    exchanges_abandoned: u64,
}

impl TraceTotals {
    fn absorb(&mut self, kind: ProtocolKind, params: &ExperimentParams, trace: RunTrace) {
        use std::sync::atomic::Ordering::Relaxed;
        self.runs += 1;
        self.rounds += params.rounds;
        let rounds = trace.engine_ms.len();
        if rounds >= 20 {
            self.early_engine_ms.extend(&trace.engine_ms[10..15]);
            self.late_engine_ms.extend(&trace.engine_ms[rounds - 5..]);
            self.early_callback_ns += trace.callback_ns[10..15].iter().sum::<u64>();
            self.late_callback_ns += trace.callback_ns[rounds - 5..].iter().sum::<u64>();
        }
        self.engine_ms.extend(&trace.engine_ms);
        self.stats.merge(trace.stats);
        let add = |total: &mut (u64, u64), part: (u64, u64)| {
            total.0 += part.0;
            total.1 += part.1;
        };
        let filter = &trace.filter;
        add(
            &mut self.on_send,
            (
                filter.on_send_ns.load(Relaxed),
                filter.on_send_calls.load(Relaxed),
            ),
        );
        add(
            &mut self.can_deliver,
            (
                filter.can_deliver_ns.load(Relaxed),
                filter.can_deliver_calls.load(Relaxed),
            ),
        );
        self.filter_delivered += filter.delivered.load(Relaxed);
        add(&mut self.on_round, trace.clock.on_round_total());
        add(&mut self.on_message, trace.clock.on_message_total());
        self.callback_ns += trace.clock.total_ns();
        if kind == ProtocolKind::Croupier {
            self.croupier_callback_ns += trace.clock.total_ns();
        }
        add(&mut self.sim_add, trace.sim_add);
        add(&mut self.nat_add, trace.nat_add);
        self.join_phase_ns += trace.join_phase_ns;
        for timing in &trace.output.metrics_timing {
            self.capture_ns += timing.capture_ns;
            self.analysis_ns += timing.analysis_ns;
        }
        self.hook_scenario_ns += trace.hook_scenario_ns;
        self.hook_workload_ns += trace.hook_workload_ns;
        if let Some(report) = &trace.output.workload {
            self.workload_rounds += params.rounds;
            self.coverage_sum += report.coverage;
            self.workload_reports += 1;
            self.workload_p95_rounds = self.workload_p95_rounds.max(report.latency_p95);
        }
        self.retries_fired += trace.output.fault_report.retries_fired;
        self.exchanges_abandoned += trace.output.fault_report.exchanges_abandoned;
    }

    /// The per-layer metrics measured inside the workload. `wall_s` and `cpu_s` are the
    /// traced cell's own; shares are shares of those. The engine's self time comes from
    /// the cell's spans: each round's engine span minus its protocol, filter and hook
    /// children.
    pub(crate) fn metrics(
        &self,
        tracer: &Tracer,
        wall_s: f64,
        cpu_s: f64,
    ) -> Vec<(&'static str, f64)> {
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let per_call =
            |(ns, calls): (u64, u64), unit_ns: f64| ratio(ns as f64 / unit_ns, calls as f64);
        let rounds = self.rounds as f64;
        let engine_s: f64 = self.engine_ms.iter().sum::<f64>() / 1e3;
        let filter_ns = (self.on_send.0 + self.can_deliver.0) as f64;
        let tail = supported_percentile(self.engine_ms.len());
        let self_ms = tracer.total_self_ns("engine") as f64 / 1e6;
        vec![
            ("simulator.round_ms_p50", median(&self.engine_ms)),
            ("simulator.round_ms_tail", percentile(&self.engine_ms, tail)),
            ("simulator.round_tail_percentile", tail),
            (
                "simulator.round_growth_ratio",
                ratio(median(&self.late_engine_ms), median(&self.early_engine_ms)),
            ),
            ("simulator.self_ms_per_round", ratio(self_ms, rounds)),
            ("simulator.self_share", ratio(self_ms / 1e3, wall_s)),
            (
                "simulator.msgs_per_s",
                ratio(self.stats.total() as f64, engine_s),
            ),
            ("simulator.delivered", self.stats.delivered as f64),
            ("simulator.lost", self.stats.lost as f64),
            ("simulator.blocked_by_nat", self.stats.blocked_by_nat as f64),
            (
                "simulator.destination_gone",
                self.stats.destination_gone as f64,
            ),
            ("simulator.add_node_us", per_call(self.sim_add, 1e3)),
            ("nat.on_send_ns", per_call(self.on_send, 1.0)),
            ("nat.can_deliver_ns", per_call(self.can_deliver, 1.0)),
            (
                "nat.calls_per_round",
                ratio((self.on_send.1 + self.can_deliver.1) as f64, rounds),
            ),
            (
                "nat.deliver_share",
                ratio(self.filter_delivered as f64, self.can_deliver.1 as f64),
            ),
            ("nat.ms_per_round", ratio(filter_ns / 1e6, rounds)),
            ("nat.filter_share", ratio(filter_ns / 1e9, wall_s)),
            ("nat.add_node_us", per_call(self.nat_add, 1e3)),
            ("protocol.on_round_us", per_call(self.on_round, 1e3)),
            ("protocol.on_message_us", per_call(self.on_message, 1e3)),
            (
                "protocol.callback_share",
                ratio(self.callback_ns as f64 / 1e9, cpu_s),
            ),
            (
                "protocol.callback_growth_ratio",
                ratio(self.late_callback_ns as f64, self.early_callback_ns as f64),
            ),
            (
                "croupier.callback_share",
                ratio(self.croupier_callback_ns as f64 / 1e9, cpu_s),
            ),
            (
                "baselines.callback_share",
                ratio(
                    (self.callback_ns - self.croupier_callback_ns) as f64 / 1e9,
                    cpu_s,
                ),
            ),
            ("experiments.join_phase_s", self.join_phase_ns as f64 / 1e9),
            ("experiments.driver_capture_s", self.capture_ns as f64 / 1e9),
            (
                "experiments.driver_analysis_s",
                self.analysis_ns as f64 / 1e9,
            ),
            (
                "experiments.metrics_share",
                ratio((self.capture_ns + self.analysis_ns) as f64 / 1e9, wall_s),
            ),
            (
                "experiments.hook_scenario_ms",
                ratio(self.hook_scenario_ns as f64 / 1e6, self.runs as f64),
            ),
            (
                "experiments.hook_workload_ms_per_round",
                ratio(
                    self.hook_workload_ns as f64 / 1e6,
                    self.workload_rounds as f64,
                ),
            ),
            (
                "experiments.workload_coverage",
                ratio(self.coverage_sum, self.workload_reports as f64),
            ),
            ("experiments.workload_p95_rounds", self.workload_p95_rounds),
            ("experiments.retries_fired", self.retries_fired as f64),
            (
                "experiments.exchanges_abandoned",
                self.exchanges_abandoned as f64,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_generates_inputs_from_the_seed() {
        for name in NAMES {
            let a = generate(name, 3, Size::Tiny).unwrap();
            let b = generate(name, 3, Size::Tiny).unwrap();
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{name}: same seed, same inputs"
            );
            let c = generate(name, 4, Size::Tiny).unwrap();
            assert_ne!(
                format!("{a:?}"),
                format!("{c:?}"),
                "{name}: the seed reaches the inputs"
            );
            assert!(a.node_rounds() > 0 && a.operations() >= 1);
        }
        assert!(generate("no_such_workload", 1, Size::Tiny).is_none());
    }

    #[test]
    fn node_rounds_count_live_nodes_per_round() {
        // 10 s of compressed joins: by round 10 everyone is in, so the last 90 rounds of
        // croupier_steady contribute the full population each.
        let Inputs::Run { params, .. } = generate("croupier_steady", 1, Size::Tiny).unwrap() else {
            panic!("croupier_steady is a single run");
        };
        let total = params.total_nodes() as u64;
        let node_rounds = node_rounds_of(&params);
        assert!(node_rounds <= total * params.rounds);
        assert!(node_rounds >= total * (params.rounds - 11));
    }

    #[test]
    fn traced_cells_reproduce_the_untraced_digest_on_every_workload() {
        for name in NAMES {
            let inputs = generate(name, 11, Size::Tiny).unwrap();
            let untraced = inputs.run(Size::Tiny);
            assert_eq!(untraced.failures, Vec::<String>::new(), "{name}");
            assert_eq!(untraced, inputs.run(Size::Tiny), "{name}: reruns agree");
            let mut tracer = Tracer::new();
            let (traced, totals) = inputs.run_traced(Size::Tiny, &mut tracer);
            assert_eq!(
                traced, untraced,
                "{name}: the traced driver is the same simulation"
            );
            assert!(!tracer.spans().is_empty());
            let metrics = totals.metrics(&tracer, 1.0, 1.0);
            let get = |key: &str| metrics.iter().find(|(k, _)| *k == key).unwrap().1;
            assert!(get("simulator.round_ms_p50") > 0.0, "{name}");
            assert!(get("protocol.on_round_us") > 0.0, "{name}");
            assert!(get("nat.calls_per_round") > 0.0, "{name}");
            assert!(metrics.iter().all(|(_, v)| v.is_finite()), "{name}");
        }
    }

    #[test]
    fn a_failing_oracle_is_reported_not_swallowed() {
        let Inputs::Run { kind, params } = generate("croupier_steady", 2, Size::Tiny).unwrap()
        else {
            panic!("croupier_steady is a single run");
        };
        let mut out = run_kind(kind, &params, &ProtocolConfigs::default());
        out.samples.last_mut().unwrap().estimation.maximum = 0.01;
        assert!(check_run(kind, &params, &out, Size::Full).is_empty());
        out.samples.last_mut().unwrap().node_count -= 1;
        out.samples.last_mut().unwrap().estimation.maximum = 0.5;
        assert_eq!(check_run(kind, &params, &out, Size::Full).len(), 2);
        assert_eq!(check_run(kind, &params, &out, Size::Tiny).len(), 1);
    }
}
