//! The scenario-matrix runner: canned NAT-dynamics scripts × the four protocols.
//!
//! Each cell of the matrix runs one [`ScenarioScript`] against one [`ProtocolKind`] and
//! distils the run into a [`CellReport`]: the in-degree distribution of the final
//! overlay, the rounds at which the overlay partitioned and recovered (if it ever
//! dipped), stale-binding send failures caused by scripted gateway reboots, and the
//! final estimation error. Graph metrics come from the per-sample CSR pipeline
//! (`croupier-metrics`), so a matrix run reuses the same parallel BFS machinery as the
//! paper figures.
//!
//! One [`ScenarioReport`] per scenario (all protocol cells inside) serialises to the
//! `SCENARIO_<name>.json` artifacts the CI `scenario-matrix` job uploads; the gate is
//! [`ScenarioReport::all_recovered`] — every protocol must end the run with its overlay
//! connected again.
//!
//! [`run_matrix`] and [`run_workload_matrix`] hand their simulations to the crate's pool
//! (`pool::run_all`) as one flat list, each reduced to its report on the worker that ran
//! it; the workload tier's no-dynamics control is simulated once per protocol, not once
//! per cell. [`run_cell`] and [`run_workload_cell`] are the single-cell entry points and
//! the oracle the flat matrices are tested against.

use std::fmt::Write as _;

use croupier_metrics::{indegree_gini, indegree_histogram, indegree_stats, IndegreeStats};

use crate::output::{Json, Scale};
use crate::pool::run_all;
use crate::protocols::{run_kind, ProtocolConfigs, ProtocolKind};
use crate::runner::{ExperimentParams, RoundSample};
use crate::scenario::ScenarioScript;
use crate::workload::{WorkloadReport, WorkloadSlo, WorkloadSpec};

/// A run counts as recovered when the largest connected component again holds at least
/// this fraction of the sampled nodes.
pub const RECOVERY_THRESHOLD: f64 = 0.95;

/// The recovery bar for fault-tier scenarios (scripts that drive the fault plane):
/// datagram loss, bursts and reordering keep injecting until the scripted clear, so the
/// overlay is given a slightly looser floor than the clean-network tier.
pub const FAULT_RECOVERY_THRESHOLD: f64 = 0.90;

/// How much more croupier's in-degree Gini may *degrade* under injected faults than the
/// best NAT-aware baseline's before the gate fails. Degradation is measured per protocol
/// against a no-fault control run of the same scenario and seed
/// ([`CellReport::gini_degradation`]), so the gate compares how much each protocol's
/// balance suffers from the faults — not the protocols' absolute Gini values, which
/// differ by design even on a clean network.
pub const FAULT_GINI_MARGIN: f64 = 0.05;

/// The recovery threshold a script is judged against: fault-tier scripts get
/// [`FAULT_RECOVERY_THRESHOLD`], everything else [`RECOVERY_THRESHOLD`].
pub fn recovery_threshold_for(script: &ScenarioScript) -> f64 {
    if script.has_fault_actions() {
        FAULT_RECOVERY_THRESHOLD
    } else {
        RECOVERY_THRESHOLD
    }
}

/// The paper-scale population anchoring the matrix (scaled down by [`Scale::nodes`]; the
/// CI job runs `quick`, i.e. 100 nodes — well under its 1k-node budget).
const MATRIX_PAPER_NODES: usize = 1_000;

/// The paper-scale round count anchoring the matrix.
const MATRIX_PAPER_ROUNDS: u64 = 120;

/// The distilled outcome of one scenario × protocol cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellReport {
    /// Protocol name (figure-legend spelling).
    pub protocol: String,
    /// `true` when the final sample's largest component reaches
    /// [`RECOVERY_THRESHOLD`] — the CI gate.
    pub recovered: bool,
    /// Largest-component fraction at the final sample.
    pub final_largest_component: f64,
    /// Smallest largest-component fraction observed at or after the first disruption.
    pub min_largest_component: f64,
    /// First sampled round (at or after the disruption) where the component fraction
    /// dropped below the threshold, if it ever did.
    pub partition_round: Option<u64>,
    /// First sampled round after `partition_round` where the fraction was back at or
    /// above the threshold, if the overlay partitioned and recovered.
    pub recovery_round: Option<u64>,
    /// Average estimation error at the final sample.
    pub final_estimation_error: f64,
    /// Summary statistics of the final overlay's in-degree distribution.
    pub indegree: IndegreeStats,
    /// Full in-degree histogram of the final overlay: `(in-degree, node count)`.
    pub indegree_histogram: Vec<(usize, usize)>,
    /// Messages blocked by NAT filtering over the whole run.
    pub blocked_messages: u64,
    /// Blocked messages attributable to a scripted gateway reboot.
    pub stale_binding_failures: u64,
    /// Live nodes at the end of the run.
    pub node_count: usize,
    /// Gini coefficient of the final overlay's in-degree distribution (0 = perfectly
    /// balanced); the fault-tier gate compares croupier's against the baselines'.
    pub final_indegree_gini: f64,
    /// The same Gini from this cell's no-fault control run (the script with its fault
    /// actions stripped, same seed). Equal to `final_indegree_gini` in clean-network
    /// cells, where the cell is its own control.
    pub clean_indegree_gini: f64,
    /// Total fault-plane injections over the run (drops + duplicates + reorders +
    /// corruptions); zero in clean-network cells.
    pub fault_injected: u64,
    /// Fault-plane drops alone (independent + burst).
    pub fault_drops: u64,
    /// Timeout retries the protocol fired.
    pub retries_fired: u64,
    /// Exchanges the protocol gave up on (expiry or retry exhaustion).
    pub exchanges_abandoned: u64,
}

impl CellReport {
    /// How much the faults unbalanced this protocol's in-degree distribution: final Gini
    /// minus the no-fault control's Gini. Negative when the fault run happened to end
    /// more balanced; zero in clean-network cells.
    pub fn gini_degradation(&self) -> f64 {
        self.final_indegree_gini - self.clean_indegree_gini
    }
}

/// All protocol cells of one scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name (also the report's file-name stem).
    pub scenario: String,
    /// Master seed of every cell in this report.
    pub seed: u64,
    /// Rounds each cell simulated.
    pub rounds: u64,
    /// Initial population of each cell.
    pub initial_nodes: usize,
    /// Round of the first disruptive scripted action, if any.
    pub disruption_round: Option<u64>,
    /// The recovery threshold every cell in this report was judged against
    /// ([`FAULT_RECOVERY_THRESHOLD`] for fault-tier scripts, [`RECOVERY_THRESHOLD`]
    /// otherwise).
    pub recovery_threshold: f64,
    /// `true` when the scenario drives the fault plane — selects the Gini gate.
    pub fault_tier: bool,
    /// The per-protocol cells, in [`ProtocolKind::ALL`] order.
    pub cells: Vec<CellReport>,
}

impl ScenarioReport {
    /// Returns `true` when every protocol ends the run with a connected overlay.
    pub fn all_recovered(&self) -> bool {
        self.cells.iter().all(|c| c.recovered)
    }

    /// The fault-tier in-degree gate: croupier's Gini *degradation* (fault run vs its
    /// own no-fault control, [`CellReport::gini_degradation`]) must be no more than
    /// [`FAULT_GINI_MARGIN`] worse than the best NAT-aware baseline's degradation (gozar
    /// or nylon). Vacuously `true` for clean-network scenarios or when either side is
    /// absent from the protocol selection.
    pub fn croupier_gini_ok(&self) -> bool {
        if !self.fault_tier {
            return true;
        }
        let degradation = |name: &str| {
            self.cells
                .iter()
                .find(|c| c.protocol == name)
                .map(CellReport::gini_degradation)
        };
        let Some(croupier) = degradation("croupier") else {
            return true;
        };
        let best_baseline = [degradation("gozar"), degradation("nylon")]
            .into_iter()
            .flatten()
            .fold(f64::INFINITY, f64::min);
        if !best_baseline.is_finite() {
            return true;
        }
        croupier <= best_baseline + FAULT_GINI_MARGIN
    }

    /// The full CI gate for this scenario: recovery for every protocol, plus the
    /// croupier in-degree Gini bound on fault-tier cells.
    pub fn gates_pass(&self) -> bool {
        self.all_recovered() && self.croupier_gini_ok()
    }

    /// Serialises the report as pretty-printed JSON (hand-emitted, like
    /// [`FigureData::to_json`](crate::output::FigureData::to_json), because the offline
    /// build has no `serde_json`).
    pub fn to_json(&self) -> String {
        let cells = self.cells.iter().map(|cell| {
            let histogram = cell.indegree_histogram.iter();
            Json::Object(vec![
                ("protocol", cell.protocol.as_str().into()),
                ("recovered", cell.recovered.into()),
                (
                    "final_largest_component",
                    cell.final_largest_component.into(),
                ),
                ("min_largest_component", cell.min_largest_component.into()),
                ("partition_round", cell.partition_round.into()),
                ("recovery_round", cell.recovery_round.into()),
                ("final_estimation_error", cell.final_estimation_error.into()),
                (
                    "indegree",
                    Json::inline_object(vec![
                        ("min", cell.indegree.min.into()),
                        ("max", cell.indegree.max.into()),
                        ("mean", cell.indegree.mean.into()),
                        ("std_dev", cell.indegree.std_dev.into()),
                    ]),
                ),
                (
                    "indegree_histogram",
                    Json::inline_array(
                        histogram.map(|&(degree, count)| Json::array([degree, count])),
                    ),
                ),
                ("blocked_messages", cell.blocked_messages.into()),
                ("stale_binding_failures", cell.stale_binding_failures.into()),
                ("final_indegree_gini", cell.final_indegree_gini.into()),
                ("clean_indegree_gini", cell.clean_indegree_gini.into()),
                ("gini_degradation", cell.gini_degradation().into()),
                ("fault_injected", cell.fault_injected.into()),
                ("fault_drops", cell.fault_drops.into()),
                ("retries_fired", cell.retries_fired.into()),
                ("exchanges_abandoned", cell.exchanges_abandoned.into()),
                ("node_count", cell.node_count.into()),
            ])
        });
        Json::Object(vec![
            ("scenario", self.scenario.as_str().into()),
            ("seed", self.seed.into()),
            ("rounds", self.rounds.into()),
            ("initial_nodes", self.initial_nodes.into()),
            ("disruption_round", self.disruption_round.into()),
            ("recovery_threshold", self.recovery_threshold.into()),
            ("fault_tier", self.fault_tier.into()),
            ("all_recovered", self.all_recovered().into()),
            ("croupier_gini_ok", self.croupier_gini_ok().into()),
            ("cells", Json::array(cells)),
        ])
        .render()
    }

    /// Renders a one-line-per-cell summary table for the terminal.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== scenario {} (disruption at round {:?}) ==",
            self.scenario, self.disruption_round
        );
        for cell in &self.cells {
            let _ = writeln!(
                out,
                "  {:<10} {} component={:.3} (min {:.3}) partition={:<6} recovery={:<6} \
                 stale_fails={} err={:.4}",
                cell.protocol,
                if cell.recovered {
                    "ok       "
                } else {
                    "PARTITIONED"
                },
                cell.final_largest_component,
                cell.min_largest_component,
                cell.partition_round
                    .map_or(String::from("-"), |r| r.to_string()),
                cell.recovery_round
                    .map_or(String::from("-"), |r| r.to_string()),
                cell.stale_binding_failures,
                cell.final_estimation_error,
            );
            if self.fault_tier {
                let _ = writeln!(
                    out,
                    "             faults: injected={} drops={} retries={} abandoned={} \
                     gini={:.3} (clean {:.3}, degradation {:+.3})",
                    cell.fault_injected,
                    cell.fault_drops,
                    cell.retries_fired,
                    cell.exchanges_abandoned,
                    cell.final_indegree_gini,
                    cell.clean_indegree_gini,
                    cell.gini_degradation(),
                );
            }
        }
        out
    }
}

/// Scans a run's samples for the partition/recovery pattern: starting from
/// `disruption_round`, the first sample whose largest-component fraction drops below
/// `threshold` and the first later sample back at or above it. Also returns the smallest
/// fraction observed from the disruption onwards (1.0 when no sample qualifies).
pub fn detect_partition_recovery(
    samples: &[RoundSample],
    disruption_round: u64,
    threshold: f64,
) -> (Option<u64>, Option<u64>, f64) {
    let mut partition = None;
    let mut recovery = None;
    let mut min_component = 1.0f64;
    for sample in samples {
        if sample.round < disruption_round {
            continue;
        }
        let Some(fraction) = sample.largest_component else {
            continue;
        };
        min_component = min_component.min(fraction);
        if partition.is_none() && fraction < threshold {
            partition = Some(sample.round);
        } else if partition.is_some() && recovery.is_none() && fraction >= threshold {
            recovery = Some(sample.round);
        }
    }
    (partition, recovery, min_component)
}

/// The experiment parameters for one matrix cell. Cyclon is NAT-oblivious, so — as in
/// the paper's evaluation — it runs on an all-public population of the same size; the
/// NAT-aware protocols get the paper's 1:4 public/private split.
pub fn cell_params(kind: ProtocolKind, scale: Scale, seed: u64, rounds: u64) -> ExperimentParams {
    let total = scale.nodes(MATRIX_PAPER_NODES);
    let (n_public, n_private) = if kind.is_nat_aware() {
        (total / 5, total - total / 5)
    } else {
        (total, 0)
    };
    ExperimentParams::default()
        .with_seed(seed)
        .with_population(n_public, n_private)
        .with_rounds(rounds)
        .with_sample_every(2)
        .with_graph_metrics(16.min(total))
        .with_engine_threads(scale.engine_threads())
}

/// The script one cell runs. NAT-oblivious cells run all-public (see [`cell_params`]);
/// their flash crowds must join all-public too, or the burst would smuggle in exactly the
/// NATed nodes the cell excludes.
fn cell_script(script: &ScenarioScript, kind: ProtocolKind) -> ScenarioScript {
    if kind.is_nat_aware() {
        script.clone()
    } else {
        script.with_public_flash_crowds()
    }
}

/// Runs one scenario × protocol cell.
pub fn run_cell(
    script: &ScenarioScript,
    kind: ProtocolKind,
    scale: Scale,
    seed: u64,
    rounds: u64,
) -> CellReport {
    let cell_script = cell_script(script, kind);
    let params = cell_params(kind, scale, seed, rounds).with_scenario(cell_script.clone());
    let out = run_kind(kind, &params, &ProtocolConfigs::default());
    let final_indegree_gini = indegree_gini(&out.final_snapshot);
    // Fault-tier cells also run a no-fault control (same script minus the fault actions,
    // same seed) so the Gini gate can measure what the faults *changed* rather than
    // comparing protocols' naturally different absolute Gini values.
    let clean_indegree_gini = if cell_script.has_fault_actions() {
        let control_params =
            cell_params(kind, scale, seed, rounds).with_scenario(cell_script.without_faults());
        let control = run_kind(kind, &control_params, &ProtocolConfigs::default());
        indegree_gini(&control.final_snapshot)
    } else {
        final_indegree_gini
    };
    let disruption = script.first_disruption_round().unwrap_or(0);
    let threshold = recovery_threshold_for(script);
    let (partition_round, recovery_round, min_largest_component) =
        detect_partition_recovery(&out.samples, disruption, threshold);
    let last = out.samples.last();
    let final_largest_component = last.and_then(|s| s.largest_component).unwrap_or(0.0);
    CellReport {
        protocol: kind.name().to_string(),
        recovered: final_largest_component >= threshold,
        final_largest_component,
        min_largest_component,
        partition_round,
        recovery_round,
        final_estimation_error: last.map(|s| s.estimation.average).unwrap_or(f64::NAN),
        indegree: indegree_stats(&out.final_snapshot),
        indegree_histogram: indegree_histogram(&out.final_snapshot),
        blocked_messages: out.nat_stats.blocked_messages,
        stale_binding_failures: out.nat_stats.stale_binding_failures,
        node_count: last.map(|s| s.node_count).unwrap_or(0),
        final_indegree_gini,
        clean_indegree_gini,
        fault_injected: out.fault_report.total_injected(),
        fault_drops: out.fault_report.total_drops(),
        retries_fired: out.fault_report.retries_fired,
        exchanges_abandoned: out.fault_report.exchanges_abandoned,
    }
}

/// Runs the full matrix: every script in `scenarios` × every protocol in `protocols`,
/// the cells as one flat list on the crate's pool.
pub fn run_matrix(
    scenarios: &[ScenarioScript],
    protocols: &[ProtocolKind],
    scale: Scale,
    seed: u64,
) -> Vec<ScenarioReport> {
    let rounds = matrix_rounds(scale);
    let cells = scenarios
        .iter()
        .flat_map(|script| protocols.iter().map(move |&kind| (script, kind)))
        .collect();
    let mut cells = run_all(cells, scale.engine_threads(), |(script, kind)| {
        run_cell(script, kind, scale, seed, rounds)
    })
    .into_iter();
    scenarios
        .iter()
        .map(|script| ScenarioReport {
            scenario: script.name().to_string(),
            seed,
            rounds,
            initial_nodes: scale.nodes(MATRIX_PAPER_NODES),
            disruption_round: script.first_disruption_round(),
            recovery_threshold: recovery_threshold_for(script),
            fault_tier: script.has_fault_actions(),
            cells: cells.by_ref().take(protocols.len()).collect(),
        })
        .collect()
}

/// The round count a matrix run uses at `scale` — also the value to hand
/// [`ScenarioScript::by_name`] so canned disruptions land mid-run.
pub fn matrix_rounds(scale: Scale) -> u64 {
    scale.rounds(MATRIX_PAPER_ROUNDS)
}

// ---------------------------------------------------------------------------
// The workload tier: streaming dissemination under NAT dynamics and faults.
// ---------------------------------------------------------------------------

/// The scenarios of the workload tier: a dissemination stream rides each of these
/// scripts for every protocol, and croupier's delivery is gated against the declared
/// SLOs (the `workload-matrix` CI job).
pub const WORKLOAD_TIER_NAMES: [&str; 3] = ["reboot_storm", "mobility_wave", "lossy_10"];

/// The dissemination workload a matrix run drives at `scale`: one chunk per round,
/// published from an eighth of the run before the scripted disruption so chunks are in
/// flight when it hits, with a seal window of two fifths of the run.
///
/// The SLO encodes the CI gate: ≥ 99 % chunk coverage within the seal window and a
/// bounded p95 latency regression against the no-dynamics control. The tiny tier runs
/// the same machinery at 25 nodes — too few for a 99 % floor to be meaningful (a single
/// unreachable subscriber costs 4 % of a chunk), so it gets a looser floor; CI gates at
/// `quick` and above.
pub fn matrix_workload_spec(scale: Scale) -> WorkloadSpec {
    let rounds = matrix_rounds(scale);
    let mid = (rounds / 2).max(1);
    let eighth = (rounds / 8).max(1);
    let seal_window = (rounds * 2 / 5).max(6);
    let slo = WorkloadSlo {
        min_coverage: if matches!(scale, Scale::Tiny) {
            0.85
        } else {
            0.99
        },
        max_p95_latency_rounds: seal_window as f64 * 0.75,
        max_p95_regression_rounds: 5.0,
    };
    WorkloadSpec::default()
        .with_window(mid.saturating_sub(eighth).max(1), (rounds / 5).max(4))
        .with_rate(1.0)
        .with_fanout(6)
        .with_coverage_rounds(seal_window)
        .with_slo(slo)
}

/// One workload-tier cell: the same scenario × protocol run as the connectivity matrix,
/// plus the dissemination stream's delivery report and its no-dynamics control.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadCellReport {
    /// Protocol name (figure-legend spelling).
    pub protocol: String,
    /// Delivery report of the run under the scenario's dynamics.
    pub report: WorkloadReport,
    /// Delivery report of the no-dynamics control: same population, seed, workload and
    /// rounds, no scenario script — what the stream achieves on a calm network.
    pub control: WorkloadReport,
}

impl WorkloadCellReport {
    /// How many rounds of p95 delivery latency the scenario's dynamics cost this
    /// protocol, against its own no-dynamics control. Negative when the disrupted run
    /// happened to deliver faster.
    pub fn p95_regression(&self) -> f64 {
        self.report.latency_p95 - self.control.latency_p95
    }

    /// The full SLO check for this cell: coverage and absolute p95 latency
    /// ([`WorkloadReport::meets_slo`]) plus the bounded p95 regression vs the control.
    pub fn meets_slo(&self, slo: &WorkloadSlo) -> bool {
        self.report.meets_slo(slo) && self.p95_regression() <= slo.max_p95_regression_rounds
    }
}

/// All protocol cells of one workload-tier scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadScenarioReport {
    /// Scenario name (also the report's file-name stem).
    pub scenario: String,
    /// Master seed of every cell in this report.
    pub seed: u64,
    /// Rounds each cell simulated.
    pub rounds: u64,
    /// Initial population of each cell.
    pub initial_nodes: usize,
    /// The workload every cell ran (including the SLOs cells are judged against).
    pub spec: WorkloadSpec,
    /// The per-protocol cells, in [`ProtocolKind::ALL`] order.
    pub cells: Vec<WorkloadCellReport>,
}

impl WorkloadScenarioReport {
    /// The workload-tier CI gate: croupier's cell must meet every declared SLO —
    /// coverage, absolute p95 latency, and bounded p95 regression vs its control.
    /// Baseline cells are reported but not gated (their delivery profiles differ by
    /// design: cyclon runs all-public, nylon relays aggressively). Vacuously `true`
    /// when croupier is not in the protocol selection.
    pub fn croupier_slo_ok(&self) -> bool {
        self.cells
            .iter()
            .filter(|c| c.protocol == "croupier")
            .all(|c| c.meets_slo(&self.spec.slo))
    }

    /// The full CI gate for this scenario (currently just
    /// [`croupier_slo_ok`](Self::croupier_slo_ok)).
    pub fn gates_pass(&self) -> bool {
        self.croupier_slo_ok()
    }

    /// Serialises the report as pretty-printed JSON (hand-emitted, like
    /// [`ScenarioReport::to_json`], because the offline build has no `serde_json`).
    pub fn to_json(&self) -> String {
        let spec = &self.spec;
        let delivery = |report: &WorkloadReport| {
            Json::Object(vec![
                ("chunks_published", report.chunks_published.into()),
                ("chunks_sealed", report.chunks_sealed.into()),
                ("coverage", report.coverage.into()),
                ("min_chunk_coverage", report.min_chunk_coverage.into()),
                ("latency_p50", report.latency_p50.into()),
                ("latency_p95", report.latency_p95.into()),
                ("latency_p99", report.latency_p99.into()),
                ("duplicate_factor", report.duplicate_factor.into()),
                ("unique_deliveries", report.unique_deliveries.into()),
                ("total_deliveries", report.total_deliveries.into()),
                ("nat_blocked", report.nat_blocked.into()),
                ("fault_dropped", report.fault_dropped.into()),
                ("public_serve_share", report.public_serve_share.into()),
            ])
        };
        let cells = self.cells.iter().map(|cell| {
            Json::Object(vec![
                ("protocol", cell.protocol.as_str().into()),
                ("slo_pass", cell.meets_slo(&spec.slo).into()),
                ("report", delivery(&cell.report)),
                ("control", delivery(&cell.control)),
                ("p95_regression", cell.p95_regression().into()),
            ])
        });
        let slo = Json::inline_object(vec![
            ("min_coverage", spec.slo.min_coverage.into()),
            (
                "max_p95_latency_rounds",
                spec.slo.max_p95_latency_rounds.into(),
            ),
            (
                "max_p95_regression_rounds",
                spec.slo.max_p95_regression_rounds.into(),
            ),
        ]);
        Json::Object(vec![
            ("scenario", self.scenario.as_str().into()),
            ("seed", self.seed.into()),
            ("rounds", self.rounds.into()),
            ("initial_nodes", self.initial_nodes.into()),
            (
                "workload",
                Json::Object(vec![
                    ("publishers", spec.publishers.into()),
                    ("chunks_per_round", spec.chunks_per_round.into()),
                    ("start_round", spec.start_round.into()),
                    ("publish_rounds", spec.publish_rounds.into()),
                    ("fanout", spec.fanout.into()),
                    ("coverage_rounds", spec.coverage_rounds.into()),
                    ("chunk_bytes", spec.chunk_bytes.into()),
                    ("slo", slo),
                ]),
            ),
            ("croupier_slo_ok", self.croupier_slo_ok().into()),
            ("cells", Json::array(cells)),
        ])
        .render()
    }

    /// Renders a one-line-per-cell summary table for the terminal.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== workload {} (coverage SLO {:.2} within {} rounds) ==",
            self.scenario, self.spec.slo.min_coverage, self.spec.coverage_rounds
        );
        for cell in &self.cells {
            let _ = writeln!(
                out,
                "  {:<10} {} coverage={:.4} (min {:.4}) p50={} p95={} (control {}, regression {:+.1}) \
                 p99={} dup={:.2} pub_share={:.2} nat_blocked={} fault_dropped={}",
                cell.protocol,
                if cell.meets_slo(&self.spec.slo) {
                    "ok      "
                } else {
                    "SLO MISS"
                },
                cell.report.coverage,
                cell.report.min_chunk_coverage,
                cell.report.latency_p50,
                cell.report.latency_p95,
                cell.control.latency_p95,
                cell.p95_regression(),
                cell.report.latency_p99,
                cell.report.duplicate_factor,
                cell.report.public_serve_share,
                cell.report.nat_blocked,
                cell.report.fault_dropped,
            );
        }
        out
    }
}

/// One workload-tier simulation — under `script`'s dynamics or, with `None`, the
/// no-dynamics control — reduced to the stream's delivery report on the spot.
fn run_workload_once(
    kind: ProtocolKind,
    script: Option<&ScenarioScript>,
    mut params: ExperimentParams,
) -> WorkloadReport {
    if let Some(script) = script {
        params = params.with_scenario(cell_script(script, kind));
    }
    let out = run_kind(kind, &params, &ProtocolConfigs::default());
    out.workload.expect("workload was configured")
}

/// Runs one workload-tier cell: the scenario run with the stream riding it, plus the
/// no-dynamics control (same seed and workload, no script) the regression SLO compares
/// against.
pub fn run_workload_cell(
    script: &ScenarioScript,
    kind: ProtocolKind,
    scale: Scale,
    seed: u64,
    rounds: u64,
    spec: WorkloadSpec,
) -> WorkloadCellReport {
    let params = cell_params(kind, scale, seed, rounds).with_workload(spec);
    WorkloadCellReport {
        protocol: kind.name().to_string(),
        report: run_workload_once(kind, Some(script), params.clone()),
        control: run_workload_once(kind, None, params),
    }
}

/// Runs the workload tier: every script in `scenarios` × every protocol in `protocols`,
/// each cell carrying the scale's canned dissemination stream
/// ([`matrix_workload_spec`]) — one flat list on the crate's pool: a control per
/// protocol (no script in it, so every scenario shares it), then the scenario runs.
pub fn run_workload_matrix(
    scenarios: &[ScenarioScript],
    protocols: &[ProtocolKind],
    scale: Scale,
    seed: u64,
) -> Vec<WorkloadScenarioReport> {
    let rounds = matrix_rounds(scale);
    let spec = matrix_workload_spec(scale);
    let controls = protocols.iter().map(|&kind| (kind, None));
    let cells = scenarios
        .iter()
        .flat_map(|script| protocols.iter().map(move |&kind| (kind, Some(script))));
    let runs = controls.chain(cells).collect();
    let mut reports = run_all(runs, scale.engine_threads(), |(kind, script)| {
        let params = cell_params(kind, scale, seed, rounds).with_workload(spec);
        run_workload_once(kind, script, params)
    })
    .into_iter();
    let controls: Vec<WorkloadReport> = reports.by_ref().take(protocols.len()).collect();
    scenarios
        .iter()
        .map(|script| WorkloadScenarioReport {
            scenario: script.name().to_string(),
            seed,
            rounds,
            initial_nodes: scale.nodes(MATRIX_PAPER_NODES),
            spec,
            cells: protocols
                .iter()
                .zip(&controls)
                .map(|(kind, control)| WorkloadCellReport {
                    protocol: kind.name().to_string(),
                    report: reports.next().expect("one report per listed run"),
                    control: control.clone(),
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use croupier_metrics::EstimationErrors;

    fn sample(round: u64, component: f64) -> RoundSample {
        RoundSample {
            round,
            node_count: 10,
            true_ratio: 0.2,
            estimation: EstimationErrors::default(),
            avg_path_length: Some(2.0),
            clustering: Some(0.1),
            largest_component: Some(component),
            indegree_gini: None,
        }
    }

    #[test]
    fn partition_and_recovery_are_detected_in_order() {
        let samples = vec![
            sample(2, 1.0),
            sample(4, 1.0),
            sample(6, 0.6),
            sample(8, 0.7),
            sample(10, 0.98),
            sample(12, 1.0),
        ];
        let (partition, recovery, min) = detect_partition_recovery(&samples, 5, 0.95);
        assert_eq!(partition, Some(6));
        assert_eq!(recovery, Some(10));
        assert!((min - 0.6).abs() < 1e-9);
    }

    #[test]
    fn samples_before_the_disruption_are_ignored() {
        let samples = vec![sample(2, 0.1), sample(6, 1.0), sample(8, 1.0)];
        let (partition, recovery, min) = detect_partition_recovery(&samples, 4, 0.95);
        assert_eq!(partition, None);
        assert_eq!(recovery, None);
        assert!((min - 1.0).abs() < 1e-9);
    }

    #[test]
    fn an_unrecovered_partition_has_no_recovery_round() {
        let samples = vec![sample(6, 0.5), sample(8, 0.5)];
        let (partition, recovery, _) = detect_partition_recovery(&samples, 5, 0.95);
        assert_eq!(partition, Some(6));
        assert_eq!(recovery, None);
    }

    #[test]
    fn cell_params_give_cyclon_an_all_public_population() {
        let nat_aware = cell_params(ProtocolKind::Croupier, Scale::Tiny, 1, 24);
        let oblivious = cell_params(ProtocolKind::Cyclon, Scale::Tiny, 1, 24);
        assert_eq!(nat_aware.total_nodes(), oblivious.total_nodes());
        assert_eq!(oblivious.n_private, 0);
        assert!(nat_aware.n_private > nat_aware.n_public);
    }

    #[test]
    fn report_json_is_well_formed_and_carries_the_gate() {
        let report = ScenarioReport {
            scenario: String::from("reboot_storm"),
            seed: 42,
            rounds: 24,
            initial_nodes: 25,
            disruption_round: Some(12),
            recovery_threshold: RECOVERY_THRESHOLD,
            fault_tier: false,
            cells: vec![CellReport {
                protocol: String::from("croupier"),
                recovered: true,
                final_largest_component: 1.0,
                min_largest_component: 0.8,
                partition_round: Some(14),
                recovery_round: Some(18),
                final_estimation_error: 0.05,
                indegree: IndegreeStats {
                    min: 1,
                    max: 9,
                    mean: 4.5,
                    std_dev: 1.2,
                },
                indegree_histogram: vec![(1, 2), (4, 10)],
                blocked_messages: 123,
                stale_binding_failures: 45,
                node_count: 25,
                final_indegree_gini: 0.12,
                clean_indegree_gini: 0.12,
                fault_injected: 0,
                fault_drops: 0,
                retries_fired: 0,
                exchanges_abandoned: 0,
            }],
        };
        assert!(report.all_recovered());
        assert!(report.gates_pass());
        let json = report.to_json();
        assert!(json.contains("\"scenario\": \"reboot_storm\""));
        assert!(json.contains("\"all_recovered\": true"));
        assert!(json.contains("\"croupier_gini_ok\": true"));
        assert!(json.contains("\"fault_tier\": false"));
        assert!(json.contains("\"final_indegree_gini\": 0.12"));
        assert!(json.contains("\"clean_indegree_gini\": 0.12"));
        assert!(json.contains("\"gini_degradation\": 0"));
        assert!(json.contains("\"stale_binding_failures\": 45"));
        assert!(json.contains("\"indegree_histogram\": [[1, 2], [4, 10]]"));
        assert!(json.contains("\"partition_round\": 14"));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close} in {json}"
            );
        }
        let table = report.render_table();
        assert!(table.contains("croupier"));
        assert!(table.contains("ok"));
    }

    #[test]
    fn a_matrix_cell_runs_end_to_end_at_tiny_scale() {
        let rounds = matrix_rounds(Scale::Tiny);
        let script = ScenarioScript::reboot_storm(rounds);
        let cell = run_cell(&script, ProtocolKind::Croupier, Scale::Tiny, 7, rounds);
        assert_eq!(cell.protocol, "croupier");
        assert!(cell.node_count > 0);
        assert!(cell.recovered, "croupier should ride out a reboot storm");
        assert!(cell.indegree.mean > 0.0);
        assert!(!cell.indegree_histogram.is_empty());
        assert_eq!(cell.fault_injected, 0, "clean-network cell injects nothing");
    }

    #[test]
    fn a_fault_cell_injects_and_recovers_at_tiny_scale() {
        let rounds = matrix_rounds(Scale::Tiny);
        let script = ScenarioScript::lossy_10(rounds);
        assert!((recovery_threshold_for(&script) - FAULT_RECOVERY_THRESHOLD).abs() < 1e-12);
        let cell = run_cell(&script, ProtocolKind::Croupier, Scale::Tiny, 7, rounds);
        assert!(cell.fault_injected > 0, "the lossy window must inject");
        assert!(cell.fault_drops > 0);
        assert!(cell.recovered, "croupier should recover after the clear");
        assert!(
            cell.clean_indegree_gini > 0.0,
            "the no-fault control run must produce a real overlay"
        );
    }

    #[test]
    fn the_gini_gate_compares_degradation_against_the_best_baseline() {
        let cell = |protocol: &str, fault_gini: f64, clean_gini: f64| CellReport {
            protocol: protocol.to_string(),
            recovered: true,
            final_largest_component: 1.0,
            min_largest_component: 1.0,
            partition_round: None,
            recovery_round: None,
            final_estimation_error: 0.0,
            indegree: IndegreeStats::default(),
            indegree_histogram: Vec::new(),
            blocked_messages: 0,
            stale_binding_failures: 0,
            node_count: 10,
            final_indegree_gini: fault_gini,
            clean_indegree_gini: clean_gini,
            fault_injected: 100,
            fault_drops: 50,
            retries_fired: 10,
            exchanges_abandoned: 2,
        };
        // Gozar degrades by +0.02, nylon by +0.06: the best baseline degradation is 0.02,
        // so the bar for croupier is 0.02 + FAULT_GINI_MARGIN = 0.07.
        let report = |croupier_fault_gini: f64, fault_tier: bool| ScenarioReport {
            scenario: String::from("lossy_10"),
            seed: 1,
            rounds: 24,
            initial_nodes: 25,
            disruption_round: Some(12),
            recovery_threshold: FAULT_RECOVERY_THRESHOLD,
            fault_tier,
            cells: vec![
                // Croupier's clean Gini (0.35) is far above the baselines' — only the
                // delta matters.
                cell("croupier", croupier_fault_gini, 0.35),
                cell("gozar", 0.17, 0.15),
                cell("nylon", 0.26, 0.20),
            ],
        };
        assert!(
            report(0.35, true).croupier_gini_ok(),
            "no degradation is fine"
        );
        assert!(
            report(0.41, true).croupier_gini_ok(),
            "+0.06 is within margin of the best baseline's +0.02"
        );
        assert!(
            !report(0.43, true).croupier_gini_ok(),
            "+0.08 exceeds best baseline degradation + margin"
        );
        assert!(
            report(0.9, false).croupier_gini_ok(),
            "clean-network scenarios skip the Gini gate"
        );
        assert!(!report(0.43, true).gates_pass());
        let improved = report(0.30, true);
        assert!(
            improved.croupier_gini_ok(),
            "a fault run that ends more balanced passes trivially"
        );
        assert!(improved.cells[0].gini_degradation() < 0.0);
    }

    #[test]
    fn workload_report_json_is_well_formed_and_carries_the_gate() {
        let delivery = |p95: f64| WorkloadReport {
            chunks_published: 6,
            chunks_sealed: 6,
            expected_deliveries: 120,
            unique_deliveries: 119,
            total_deliveries: 180,
            coverage: 119.0 / 120.0,
            min_chunk_coverage: 0.95,
            latency_p50: 2.0,
            latency_p95: p95,
            latency_p99: p95 + 1.0,
            duplicate_factor: 180.0 / 119.0,
            pushes_attempted: 200,
            pulls_served: 40,
            nat_blocked: 17,
            fault_dropped: 3,
            public_serve_share: 0.88,
        };
        let report = WorkloadScenarioReport {
            scenario: String::from("reboot_storm"),
            seed: 42,
            rounds: 24,
            initial_nodes: 25,
            spec: matrix_workload_spec(Scale::Tiny),
            cells: vec![WorkloadCellReport {
                protocol: String::from("croupier"),
                report: delivery(5.0),
                control: delivery(4.0),
            }],
        };
        assert!(report.croupier_slo_ok(), "the literal cell meets its SLOs");
        assert!(report.gates_pass());
        let json = report.to_json();
        assert!(json.contains("\"scenario\": \"reboot_storm\""));
        assert!(json.contains("\"croupier_slo_ok\": true"));
        assert!(json.contains("\"slo_pass\": true"));
        assert!(json.contains("\"public_serve_share\": 0.88"));
        assert!(json.contains("\"p95_regression\": 1"));
        assert!(json.contains("\"min_coverage\": 0.85"));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close} in {json}"
            );
        }
        let table = report.render_table();
        assert!(table.contains("croupier"));
        assert!(table.contains("pub_share=0.88"));
        assert!(table.contains("ok"));
    }

    #[test]
    fn a_workload_cell_runs_end_to_end_at_tiny_scale() {
        let rounds = matrix_rounds(Scale::Tiny);
        let script = ScenarioScript::reboot_storm(rounds);
        let spec = matrix_workload_spec(Scale::Tiny);
        let cell = run_workload_cell(
            &script,
            ProtocolKind::Croupier,
            Scale::Tiny,
            7,
            rounds,
            spec,
        );
        assert_eq!(cell.protocol, "croupier");
        assert!(cell.report.chunks_published > 0, "the stream must publish");
        assert!(cell.report.unique_deliveries > 0, "chunks must land");
        assert!(
            cell.control.coverage > 0.0,
            "the no-dynamics control must deliver"
        );
        assert!(
            cell.meets_slo(&spec.slo),
            "tiny croupier cell misses its SLO: {cell:?}"
        );
    }

    #[test]
    fn the_flat_matrix_equals_its_cells() {
        let (scale, seed) = (Scale::Tiny, 11);
        let rounds = matrix_rounds(scale);
        // One clean-network script and one of the fault tier, whose cells add a control.
        let scripts = [
            ScenarioScript::reboot_storm(rounds),
            ScenarioScript::lossy_10(rounds),
        ];
        let reports = run_matrix(&scripts, &ProtocolKind::ALL, scale, seed);
        assert_eq!(reports.len(), scripts.len());
        for (report, script) in reports.iter().zip(&scripts) {
            assert_eq!(report.scenario, script.name());
            assert_eq!(report.fault_tier, script.has_fault_actions());
            let cells: Vec<CellReport> = ProtocolKind::ALL
                .iter()
                .map(|&kind| run_cell(script, kind, scale, seed, rounds))
                .collect();
            assert_eq!(report.cells, cells, "scenario {}", report.scenario);
        }
        let lossy = &reports[1].cells;
        assert!(
            lossy
                .iter()
                .all(|c| c.clean_indegree_gini != c.final_indegree_gini),
            "every fault-tier cell carries its own control's Gini: {lossy:?}"
        );
    }

    #[test]
    fn the_flat_workload_matrix_equals_its_cells() {
        let (scale, seed) = (Scale::Tiny, 11);
        let rounds = matrix_rounds(scale);
        let spec = matrix_workload_spec(scale);
        let scripts: Vec<ScenarioScript> = WORKLOAD_TIER_NAMES
            .iter()
            .map(|name| ScenarioScript::by_name(name, rounds).expect("a canned script"))
            .collect();
        let reports = run_workload_matrix(&scripts, &ProtocolKind::ALL, scale, seed);
        let composed: Vec<WorkloadScenarioReport> = scripts
            .iter()
            .map(|script| WorkloadScenarioReport {
                scenario: script.name().to_string(),
                seed,
                rounds,
                initial_nodes: scale.nodes(MATRIX_PAPER_NODES),
                spec,
                cells: ProtocolKind::ALL
                    .iter()
                    .map(|&kind| run_workload_cell(script, kind, scale, seed, rounds, spec))
                    .collect(),
            })
            .collect();
        assert_eq!(reports, composed);
    }
}
