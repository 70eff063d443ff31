//! The generic experiment driver.
//!
//! The driver is generic over the execution engine: [`ExperimentParams::engine_threads`]
//! selects between the event-driven [`Simulation`] (`0`, the default — exact event
//! interleaving, one thread) and the phase-parallel [`ShardedSimulation`] (`n >= 1` —
//! round-barrier semantics, `n` worker threads). Sharded runs are bit-identical across
//! thread counts for
//! a fixed seed, so `engine_threads = 1` is the reference a parallel run can be checked
//! against.

use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};
use std::thread::ScopedJoinHandle;
use std::time::Instant;

use croupier_metrics::{
    class_overhead, draw_path_sources, estimation_errors, indegree_gini, EstimationErrors,
    IncrementalComponents, IncrementalIndegree, MetricsContext, OverheadReport, OverlaySnapshot,
};
use croupier_nat::{NatTopology, NatTopologyBuilder, TopologyStats};
use croupier_simulator::{
    NatClass, NodeId, Protocol, PssNode, Seed, ShardedSimulation, SimDuration, Simulation,
    SimulationConfig, SimulationEngine, TrafficLedger,
};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::scenario::{ChurnSpec, JoinEvent, JoinSchedule, ScenarioExecutor, ScenarioScript};
use crate::workload::{WorkloadExecutor, WorkloadReport, WorkloadSpec, WorkloadState};

/// Late growth of one class of nodes, used by the dynamic-ratio experiment (Fig. 2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GrowthSpec {
    /// Round at which the growth starts.
    pub start_round: u64,
    /// Number of nodes added.
    pub count: usize,
    /// Inter-arrival time between the added nodes, in milliseconds.
    pub interarrival_ms: f64,
    /// Class of the added nodes.
    pub class: NatClass,
}

/// Parameters of one experiment run.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentParams {
    /// Master seed (drives the topology, the engine and the workload).
    pub seed: u64,
    /// Number of public nodes joining initially.
    pub n_public: usize,
    /// Number of private nodes joining initially.
    pub n_private: usize,
    /// Mean inter-arrival time of public joins in milliseconds (paper: 50 ms).
    pub public_interarrival_ms: f64,
    /// Mean inter-arrival time of private joins in milliseconds (paper: 12.5 ms).
    pub private_interarrival_ms: f64,
    /// Number of one-second gossip rounds to simulate.
    pub rounds: u64,
    /// Sample metrics every this many rounds.
    pub sample_every: u64,
    /// Nodes younger than this many rounds are excluded from metrics (paper: 2).
    pub min_rounds_for_metrics: u64,
    /// If `Some(k)`, graph metrics (path length, clustering, components) are computed each
    /// sample using `k` BFS sources; if `None` they are skipped (estimation-only runs).
    pub graph_metric_sources: Option<usize>,
    /// Track the largest connected component with a union-find over the snapshot's edge
    /// list instead of — or, when combined with
    /// [`graph_metric_sources`](Self::graph_metric_sources), alongside — the per-sample
    /// CSR + BFS pipeline. The value is bit-identical to the CSR one; at the million-node
    /// tier it is what populates the connectivity series without a CSR build per sample.
    pub incremental_components: bool,
    /// Track the in-degree distribution incrementally (dense rank-indexed counts patched
    /// from snapshot edge deltas) and report its Gini coefficient on every sample in
    /// [`RoundSample::indegree_gini`]. The fast path costs O(delta) per sample instead of
    /// O(edges) and is bit-identical to the full recount.
    pub incremental_indegree: bool,
    /// Number of metrics worker threads the driver overlaps full-graph analysis with the
    /// simulation on. `0` (the default) analyses every sample in place on the driver
    /// thread. With `n >= 1` the driver captures a snapshot, runs the incremental
    /// trackers and pre-draws the BFS sources, then analyses a copy of the snapshot on a
    /// scoped thread of its own, so the CSR build, path-length, clustering and estimation
    /// sweeps for sample `k` compute while the engine already simulates toward sample
    /// `k + 1`. At most `n` run at once and they are joined oldest first, so the output
    /// is bit-identical for every worker count.
    pub metrics_workers: usize,
    /// Continuous churn, if any.
    pub churn: Option<ChurnSpec>,
    /// Late growth of one node class, if any.
    pub growth: Option<GrowthSpec>,
    /// Scripted NAT-dynamics scenario, if any: executed at round barriers through the
    /// engine's [`RoundHook`](croupier_simulator::RoundHook); its flash-crowd actions are
    /// expanded into the join schedule.
    ///
    /// Caveat when combined with [`churn`](Self::churn) or an overhead window: the
    /// driver's class bookkeeping (which pool a churned node is drawn from, which class
    /// its replacement joins as, how `class_overhead` buckets traffic) uses *join-time*
    /// classes. Scripted profile upgrades/downgrades change the topology underneath
    /// without updating that bookkeeping — deliberately mirroring the protocols' own
    /// stale self-classification, but it means a churn spec no longer preserves the
    /// *effective* ratio once a scenario rewrites classes mid-run
    /// ([`RoundSample::true_ratio`] stays correct: scripted runs read it from the
    /// topology).
    pub scenario: Option<ScenarioScript>,
    /// Measurement window `(start_round, end_round)` for protocol overhead, if overhead is
    /// to be reported.
    pub overhead_window: Option<(u64, u64)>,
    /// Dissemination workload riding the run, if any: a [`WorkloadExecutor`] is composed
    /// after the scenario executor at the engines' round barriers, pushing and pulling
    /// chunks over the protocol's own peer samples, and the resulting
    /// [`WorkloadReport`] lands in [`RunOutput::workload`].
    pub workload: Option<WorkloadSpec>,
    /// Execution engine selector: `0` runs the event-driven engine (exact event
    /// interleaving, single-threaded); `n >= 1` runs the sharded phase-parallel engine
    /// with `n` worker threads.
    pub engine_threads: usize,
}

impl Default for ExperimentParams {
    fn default() -> Self {
        ExperimentParams {
            seed: 42,
            n_public: 200,
            n_private: 800,
            public_interarrival_ms: 50.0,
            private_interarrival_ms: 12.5,
            rounds: 120,
            sample_every: 2,
            min_rounds_for_metrics: 2,
            graph_metric_sources: None,
            incremental_components: false,
            incremental_indegree: false,
            metrics_workers: 0,
            churn: None,
            growth: None,
            scenario: None,
            overhead_window: None,
            workload: None,
            engine_threads: 0,
        }
    }
}

impl ExperimentParams {
    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the initial population.
    pub fn with_population(mut self, n_public: usize, n_private: usize) -> Self {
        self.n_public = n_public;
        self.n_private = n_private;
        self
    }

    /// Sets the number of rounds.
    pub fn with_rounds(mut self, rounds: u64) -> Self {
        self.rounds = rounds;
        self
    }

    /// Sets the metric sampling period.
    pub fn with_sample_every(mut self, sample_every: u64) -> Self {
        self.sample_every = sample_every.max(1);
        self
    }

    /// Enables graph metrics with the given number of BFS sources per sample.
    pub fn with_graph_metrics(mut self, sources: usize) -> Self {
        self.graph_metric_sources = Some(sources);
        self
    }

    /// Enables union-find largest-component tracking. Populates [`RoundSample::largest_component`] on every sample without
    /// requiring a full CSR + BFS pass, so it composes with — but does not require —
    /// [`with_graph_metrics`](Self::with_graph_metrics).
    pub fn with_incremental_components(mut self) -> Self {
        self.incremental_components = true;
        self
    }

    /// Enables incremental in-degree tracking: populates [`RoundSample::indegree_gini`]
    /// on every sample from O(delta) count updates instead of a full O(edges) recount.
    pub fn with_incremental_indegree(mut self) -> Self {
        self.incremental_indegree = true;
        self
    }

    /// Overlaps per-sample graph analysis with the simulation on `workers` metrics
    /// threads (`0` analyses synchronously on the driver thread). Samples are joined in
    /// order, so the run output is bit-identical for every worker count.
    pub fn with_metrics_workers(mut self, workers: usize) -> Self {
        self.metrics_workers = workers;
        self
    }

    /// Enables continuous churn.
    pub fn with_churn(mut self, churn: ChurnSpec) -> Self {
        self.churn = Some(churn);
        self
    }

    /// Enables late growth (dynamic ratio).
    pub(crate) fn with_growth(mut self, growth: GrowthSpec) -> Self {
        self.growth = Some(growth);
        self
    }

    /// Installs a scripted NAT-dynamics scenario.
    pub fn with_scenario(mut self, scenario: ScenarioScript) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Installs a dissemination workload on the run.
    pub fn with_workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Enables overhead measurement over the given round window.
    pub(crate) fn with_overhead_window(mut self, start_round: u64, end_round: u64) -> Self {
        assert!(end_round > start_round, "overhead window must not be empty");
        self.overhead_window = Some((start_round, end_round));
        self
    }

    /// Selects the execution engine: `0` for the event-driven engine, `n >= 1` for the
    /// sharded phase-parallel engine with `n` worker threads.
    pub fn with_engine_threads(mut self, threads: usize) -> Self {
        self.engine_threads = threads;
        self
    }

    /// Total initial population.
    pub fn total_nodes(&self) -> usize {
        self.n_public + self.n_private
    }
}

/// The metrics captured at one sampling instant.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RoundSample {
    /// Gossip round at which the sample was taken.
    pub round: u64,
    /// Number of live nodes.
    pub node_count: usize,
    /// True public/private ratio among live nodes at sampling time.
    pub true_ratio: f64,
    /// Estimation errors across all nodes with an estimate.
    pub estimation: EstimationErrors,
    /// Average shortest path length (if graph metrics are enabled and defined).
    pub avg_path_length: Option<f64>,
    /// Average clustering coefficient (if graph metrics are enabled).
    pub clustering: Option<f64>,
    /// Fraction of live nodes in the largest connected component (if graph metrics are
    /// enabled).
    pub largest_component: Option<f64>,
    /// Gini coefficient of the in-degree distribution (if graph metrics or
    /// [`ExperimentParams::incremental_indegree`] are enabled): `0` is a perfectly
    /// uniform overlay, values near `1` mean a few hubs hold most of the in-degree.
    pub indegree_gini: Option<f64>,
}

/// Wall-clock cost of one metrics sample, split into the part that must run on the
/// driver thread and the part a metrics worker can take over.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SampleMetricsTiming {
    /// Gossip round of the sample.
    pub round: u64,
    /// Driver-thread nanoseconds: snapshot capture, incremental component/in-degree
    /// updates and the BFS source pre-draw.
    pub capture_ns: u64,
    /// Full-graph analysis nanoseconds: estimation sweep, CSR build, multi-source BFS
    /// and clustering.
    pub analysis_ns: u64,
    /// Whether the analysis ran on a metrics worker, overlapped with the simulation.
    pub offloaded: bool,
}

/// How much full-graph analysis the metrics workers hid behind the simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MetricsOverlapReport {
    /// Number of metrics worker threads.
    pub workers: usize,
    /// Number of samples whose analysis was offloaded.
    pub offloaded_samples: u64,
    /// Total analysis nanoseconds across all offloaded samples.
    pub analysis_ns: u64,
    /// Driver nanoseconds spent blocked joining workers (every slot busy, or the joins at
    /// the end of the run).
    pub blocked_ns: u64,
    /// Fraction of [`analysis_ns`](Self::analysis_ns) that did **not** stall the driver:
    /// `1.0` means the analysis was entirely hidden behind the simulation.
    pub overlap_ratio: f64,
}

/// Everything a run produces.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Per-round samples, in time order.
    pub samples: Vec<RoundSample>,
    /// Overhead report over the configured window, if requested.
    pub overhead: Option<OverheadReport>,
    /// Snapshot of the overlay at the end of the run.
    pub final_snapshot: OverlaySnapshot,
    /// True ratio at the end of the run.
    pub final_true_ratio: f64,
    /// Merged per-node traffic ledger at the end of the run; lets callers compare byte
    /// counts across engines and thread counts.
    pub traffic: TrafficLedger,
    /// Final NAT-topology statistics: blocked messages, stale-binding send failures
    /// (blocks attributable to a scripted gateway reboot), and class counts as the NAT
    /// environment — not the join schedule — sees them.
    pub nat_stats: TopologyStats,
    /// `(full union passes, additions-only updates)` of the connectivity structure, when
    /// [`ExperimentParams::incremental_components`] was enabled; the two sum to the
    /// sample count. A shuffling overlay removes edges every round, so a live run reads
    /// `(samples, 0)` or close to it: the value of the structure is that each pass skips
    /// the CSR build, not that passes are avoided.
    pub incremental_component_updates: Option<(u64, u64)>,
    /// `(full rebuilds, delta fast-path updates)` of the incremental in-degree tracker,
    /// when [`ExperimentParams::incremental_indegree`] was enabled. In a steady overlay
    /// almost every sample should take the O(delta) fast path.
    pub incremental_indegree_updates: Option<(u64, u64)>,
    /// Overlap accounting of the offloaded analysis, when
    /// [`ExperimentParams::metrics_workers`] was nonzero.
    pub metrics_overlap: Option<MetricsOverlapReport>,
    /// Per-sample metrics timing, in time order (one entry per [`RoundSample`]).
    pub metrics_timing: Vec<SampleMetricsTiming>,
    /// Message-plane fault accounting: what the fault plane injected (drops, bursts,
    /// duplicates, reorders, corruptions — distinct from NAT-filter drops, which appear
    /// in [`nat_stats`](Self::nat_stats)) plus what the protocols did about it
    /// (`retries_fired`, `exchanges_abandoned`, summed over surviving nodes). All zeros
    /// for runs whose script never activates the plane.
    pub fault_report: croupier_simulator::FaultReport,
    /// Delivery report of the dissemination workload, when
    /// [`ExperimentParams::workload`] was set.
    pub workload: Option<WorkloadReport>,
}

impl RunOutput {
    /// The last sample, if any.
    pub fn last_sample(&self) -> Option<&RoundSample> {
        self.samples.last()
    }
}

/// Everything the driver thread must produce for one sample before the remaining
/// analysis can run anywhere: the incremental trackers have consumed the snapshot's edge
/// delta, the true ratio is read from the live bookkeeping, and the BFS sources are
/// pre-drawn from the metric RNG (so the analysis stage consumes no randomness and the
/// run is bit-identical wherever the analysis executes).
#[derive(Debug)]
struct SamplePrep {
    round: u64,
    node_count: usize,
    true_ratio: f64,
    capture_ns: u64,
    incremental_component: Option<f64>,
    indegree_gini: Option<f64>,
    graph_metrics: bool,
    sources: Vec<u32>,
}

/// The analysis stage of one sample, timed: everything that is a pure function of the
/// captured snapshot (plus the pre-drawn prep). Runs in place on the driver thread when
/// [`ExperimentParams::metrics_workers`] is `0`, or on a metrics worker (`offloaded`)
/// otherwise.
fn analyze_sample(
    prep: &SamplePrep,
    snapshot: &OverlaySnapshot,
    metrics: &mut MetricsContext,
    offloaded: bool,
) -> (RoundSample, SampleMetricsTiming) {
    let start = Instant::now();
    let estimation = estimation_errors(snapshot, prep.true_ratio);
    let (avg_path_length, clustering, largest_component, gini) = if prep.graph_metrics {
        // One CSR build feeds all graph metrics; dangling edges are filtered during the
        // build, so no separate retain_live_edges pass is needed. The incremental
        // trackers produce values bit-identical to the full sweeps, so when both paths
        // are enabled either answer is valid; the incremental one is preferred because
        // its cost scales with the churn since the previous sample.
        metrics.build(snapshot);
        (
            metrics.average_path_length_with_sources(&prep.sources),
            Some(metrics.average_clustering_coefficient()),
            Some(
                prep.incremental_component
                    .unwrap_or_else(|| metrics.largest_component_fraction()),
            ),
            Some(
                prep.indegree_gini
                    .unwrap_or_else(|| indegree_gini(snapshot)),
            ),
        )
    } else {
        (None, None, prep.incremental_component, prep.indegree_gini)
    };
    let sample = RoundSample {
        round: prep.round,
        node_count: prep.node_count,
        true_ratio: prep.true_ratio,
        estimation,
        avg_path_length,
        clustering,
        largest_component,
        indegree_gini: gini,
    };
    let timing = SampleMetricsTiming {
        round: prep.round,
        capture_ns: prep.capture_ns,
        analysis_ns: start.elapsed().as_nanos() as u64,
        offloaded,
    };
    (sample, timing)
}

/// Per-protocol experiment state shared between [`run_pss`] and [`run_failure`], generic
/// over the execution engine.
struct Driver<P: Protocol + PssNode, E: SimulationEngine<P>, F: FnMut(NodeId, NatClass) -> P> {
    params: ExperimentParams,
    sim: E,
    /// Builds the protocol instance of every joining node from its id and class.
    make_node: F,
    topology: NatTopology,
    alive_public: Vec<NodeId>,
    alive_private: Vec<NodeId>,
    all_classes: HashMap<NodeId, NatClass>,
    next_id: u64,
    churn_carry: f64,
    workload_rng: SmallRng,
    metric_rng: SmallRng,
    /// Reusable snapshot buffer: refilled in place on every sample, so the sampling loop
    /// allocates nothing in steady state.
    sample_snapshot: OverlaySnapshot,
    /// Reusable metrics pipeline: one CSR overlay graph per sample shared by all graph
    /// metrics, with BFS fanned out over the engine's worker-thread count.
    metrics: MetricsContext,
    /// Union-find largest-component tracker, fed every captured snapshot when
    /// [`ExperimentParams::incremental_components`] is set.
    components: IncrementalComponents,
    /// Incremental in-degree tracker, fed by the same edge deltas when
    /// [`ExperimentParams::incremental_indegree`] is set.
    indegree: IncrementalIndegree,
    /// Per-sample metrics timing, accumulated in sample order.
    metrics_timing: Vec<SampleMetricsTiming>,
    /// Delivery tracker shared with the workload hook riding the engine, when
    /// [`ExperimentParams::workload`] is set; the final report is built from it in
    /// [`run`](Self::run).
    workload_state: Option<Arc<Mutex<WorkloadState>>>,
    _protocol: PhantomData<fn() -> P>,
}

impl<P: Protocol + PssNode, E: SimulationEngine<P>, F: FnMut(NodeId, NatClass) -> P>
    Driver<P, E, F>
{
    fn new(params: &ExperimentParams, make_node: F) -> Self {
        let topology = NatTopologyBuilder::new(params.seed ^ 0x004e_4154).build();
        let mut sim = E::from_config(
            SimulationConfig::default()
                .with_seed(params.seed)
                .with_round_period(SimDuration::from_secs(1))
                .with_engine_threads(params.engine_threads),
        );
        sim.set_delivery_filter(topology.clone());
        let seed = Seed::new(params.seed);
        // Every run carries an (initially inactive) fault plane: scripts activate it
        // through fault actions, and the disabled-path overhead is a single relaxed
        // atomic load per delivery (measured by the benchmark's
        // `simulator.fault_inactive_ns` probe).
        let fault_plane = croupier_simulator::FaultPlane::new(seed);
        sim.set_fault_plane(fault_plane.clone());
        // The barrier hooks, in firing order: the scenario first, so the workload always
        // pushes and pulls over the post-dynamics NAT world of the closing round.
        let mut hooks = croupier_simulator::CompositeRoundHook::new();
        if let Some(script) = &params.scenario {
            // The executor shares the topology with the delivery filter and runs at the
            // engines' round barriers on the coordinating thread; its RNG is a dedicated
            // stream of the master seed, so scripted runs are deterministic and (on the
            // sharded engine) bit-identical across worker-thread counts.
            let scenario_rng = seed.stream_rng(croupier_simulator::rng::Stream::Custom(0x5C3A));
            hooks.push(Box::new(
                ScenarioExecutor::new(script, topology.clone(), scenario_rng)
                    .with_fault_plane(fault_plane.clone()),
            ));
        }
        let workload_state = params.workload.map(|spec| {
            let (executor, state) =
                WorkloadExecutor::new(spec, topology.clone(), fault_plane.clone());
            hooks.push(Box::new(executor));
            state
        });
        // The workload draws peer samples, so the hooks need the sampling-aware installer.
        // A hookless run installs nothing: any installed hook stops the sharded engine
        // from skipping ahead.
        if !hooks.is_empty() {
            sim.set_sampled_round_hook(Box::new(hooks));
        }
        let mut sample_snapshot = OverlaySnapshot::default();
        if params.incremental_components || params.incremental_indegree {
            sample_snapshot.enable_delta_tracking();
        }
        Driver {
            params: params.clone(),
            sim,
            make_node,
            topology,
            alive_public: Vec::new(),
            alive_private: Vec::new(),
            all_classes: HashMap::new(),
            next_id: 0,
            churn_carry: 0.0,
            workload_rng: seed.stream_rng(croupier_simulator::rng::Stream::Workload),
            metric_rng: seed.stream_rng(croupier_simulator::rng::Stream::Custom(0xE7)),
            sample_snapshot,
            metrics: MetricsContext::new(params.engine_threads.max(1)),
            components: IncrementalComponents::new(),
            indegree: IncrementalIndegree::new(),
            metrics_timing: Vec::new(),
            workload_state,
            _protocol: PhantomData,
        }
    }

    fn add_node(&mut self, class: NatClass) {
        let id = NodeId::new(self.next_id);
        self.next_id += 1;
        self.topology.add_node(id, class);
        if class.is_public() {
            self.sim.register_public(id);
            self.alive_public.push(id);
        } else {
            self.alive_private.push(id);
        }
        self.all_classes.insert(id, class);
        let node = (self.make_node)(id, class);
        self.sim.add_node(id, node);
    }

    fn remove_random_node(&mut self, class: NatClass) -> Option<NodeId> {
        let pool = match class {
            NatClass::Public => &mut self.alive_public,
            NatClass::Private => &mut self.alive_private,
        };
        if pool.is_empty() {
            return None;
        }
        let index = self.workload_rng.gen_range(0..pool.len());
        let id = pool.swap_remove(index);
        self.sim.remove_node(id);
        Some(id)
    }

    fn apply_churn(&mut self) {
        let Some(churn) = self.params.churn else {
            return;
        };
        let alive = self.alive_public.len() + self.alive_private.len();
        self.churn_carry += churn.fraction_per_round * alive as f64;
        let replacements = self.churn_carry.floor() as usize;
        self.churn_carry -= replacements as f64;
        for _ in 0..replacements {
            // Keep the public/private ratio stable by replacing a node with a new node of
            // the same class.
            let class = self.draw_class();
            if self.remove_random_node(class).is_some() {
                self.add_node(class);
            }
        }
    }

    /// Draws a class with probability proportional to its share of the live nodes.
    fn draw_class(&mut self) -> NatClass {
        let public_fraction = self.alive_public.len() as f64
            / (self.alive_public.len() + self.alive_private.len()).max(1) as f64;
        if self.workload_rng.gen_range(0.0..1.0) < public_fraction {
            NatClass::Public
        } else {
            NatClass::Private
        }
    }

    fn true_ratio(&self) -> f64 {
        if self.params.scenario.is_some() {
            // Scripted upgrades/downgrades change classes behind the driver's back; the
            // topology is the authority on the effective ratio.
            return self.topology.stats().public_private_ratio();
        }
        let total = self.alive_public.len() + self.alive_private.len();
        if total == 0 {
            0.0
        } else {
            self.alive_public.len() as f64 / total as f64
        }
    }

    /// The driver-thread half of one sample: captures the snapshot, feeds the
    /// incremental trackers their edge delta (which must happen before the *next*
    /// capture invalidates it) and pre-draws the BFS sources, so the metric RNG is
    /// consumed in sample order whatever the analysis stage does.
    fn prepare_sample(&mut self, round: u64, mut sources: Vec<u32>) -> SamplePrep {
        let capture_start = Instant::now();
        self.sample_snapshot
            .capture_into(&self.sim, self.params.min_rounds_for_metrics);
        let incremental_component = if self.params.incremental_components {
            self.components.update(&self.sample_snapshot);
            Some(self.components.largest_component_fraction())
        } else {
            None
        };
        let indegree_gini = if self.params.incremental_indegree {
            self.indegree.update(&self.sample_snapshot);
            Some(self.indegree.gini())
        } else {
            None
        };
        let graph_metrics = self.params.graph_metric_sources.is_some();
        if let Some(count) = self.params.graph_metric_sources {
            // The CSR vertex set is exactly the captured node set, so drawing against
            // the snapshot count is bit-identical to drawing against the built graph.
            draw_path_sources(
                self.sample_snapshot.node_count(),
                count,
                &mut self.metric_rng,
                &mut sources,
            );
        } else {
            sources.clear();
        }
        SamplePrep {
            round,
            node_count: self.sim.len(),
            true_ratio: self.true_ratio(),
            capture_ns: capture_start.elapsed().as_nanos() as u64,
            incremental_component,
            indegree_gini,
            graph_metrics,
            sources,
        }
    }

    /// Runs the main phase: joins, rounds, churn, sampling.
    fn run(&mut self) -> RunOutput {
        // One source of truth for the round period: the engine config set in new().
        let round_ms = self.sim.config().round_period.as_millis().max(1);
        let mut schedule = JoinSchedule::poisson(
            self.params.n_public,
            self.params.public_interarrival_ms,
            self.params.n_private,
            self.params.private_interarrival_ms,
            &mut self.workload_rng,
        );
        if let Some(growth) = self.params.growth {
            schedule.append_growth(
                croupier_simulator::SimTime::from_secs(growth.start_round),
                growth.count,
                growth.interarrival_ms,
                growth.class,
            );
        }
        if let Some(script) = &self.params.scenario {
            // Flash crowds are the one scripted event with engine-side effects (new
            // protocol instances), so they join through the ordinary schedule instead of
            // the NAT-mutation hook.
            schedule.extend(script.flash_crowd_joins(self.params.total_nodes(), round_ms));
        }
        let events = schedule.events().to_vec();

        let mut samples = Vec::new();
        let mut overhead = None;
        let metrics_overlap = self.run_rounds(round_ms, &events, &mut overhead, &mut samples);

        let mut final_snapshot =
            OverlaySnapshot::capture(&self.sim, self.params.min_rounds_for_metrics);
        final_snapshot.retain_live_edges();
        // Plane counters say what the network did; node counters say what the protocols
        // did about it. Churned-out nodes take their counters with them, so the sums
        // reflect the surviving population — consistent with every other final metric.
        let mut fault_report = self.sim.fault_report();
        self.sim.for_each_node(&mut |_, node| {
            fault_report.retries_fired += node.retries_fired();
            fault_report.exchanges_abandoned += node.exchanges_abandoned();
        });
        let workload = self.workload_state.as_ref().map(|state| {
            // Open chunks are force-sealed against the end-of-run live population, in
            // the same canonical ascending-id order the hook itself uses.
            let mut live: Vec<NodeId> = Vec::with_capacity(self.sim.len());
            self.sim.for_each_node(&mut |id, _| live.push(id));
            live.sort_unstable();
            WorkloadExecutor::report(state, &live)
        });
        RunOutput {
            samples,
            overhead,
            final_true_ratio: self.true_ratio(),
            final_snapshot,
            traffic: self.sim.traffic_snapshot(),
            nat_stats: self.topology.stats(),
            incremental_component_updates: self.params.incremental_components.then(|| {
                (
                    self.components.rebuild_count(),
                    self.components.sublinear_update_count(),
                )
            }),
            incremental_indegree_updates: self.params.incremental_indegree.then(|| {
                (
                    self.indegree.rebuild_count(),
                    self.indegree.fast_update_count(),
                )
            }),
            metrics_overlap,
            metrics_timing: std::mem::take(&mut self.metrics_timing),
            fault_report,
            workload,
        }
    }

    /// Advances the simulation by one gossip round: join events up to the round
    /// boundary, the round itself, then churn and overhead-window bookkeeping.
    fn step_round(
        &mut self,
        round: u64,
        round_ms: u64,
        events: &[JoinEvent],
        next_event: &mut usize,
        overhead: &mut Option<OverheadReport>,
    ) {
        let boundary = croupier_simulator::SimTime::from_millis(round * round_ms);
        while *next_event < events.len() && events[*next_event].at <= boundary {
            let event = events[*next_event];
            *next_event += 1;
            self.sim.run_until(event.at);
            self.add_node(event.class);
        }
        self.sim.run_until(boundary);

        if let Some(churn) = self.params.churn {
            if round >= churn.start_round {
                self.apply_churn();
            }
        }

        if let Some((start, end)) = self.params.overhead_window {
            if round == start {
                self.sim.reset_traffic_window();
            } else if round == end {
                *overhead = Some(class_overhead(
                    &self.sim.traffic_snapshot(),
                    |id| self.all_classes.get(&id).copied(),
                    (end - start) as f64,
                ));
            }
        }
    }

    /// The run loop. With zero [`metrics_workers`](ExperimentParams::metrics_workers) the
    /// driver thread analyses each sample in place, straight off the live snapshot,
    /// before the next round. Otherwise each sample's analysis runs on a scoped thread of
    /// its own over a copy of the snapshot, at most `metrics_workers` at once, while the
    /// driver simulates on; the driver joins them oldest first, so samples arrive in
    /// sample order.
    ///
    /// Soundness hinges on the split in [`prepare_sample`](Self::prepare_sample): the
    /// capture and both incremental trackers stay on the driver thread (an edge delta is
    /// only valid between *consecutive* captures, so its consumers can never skip a
    /// snapshot), and the metric RNG is fully consumed during prepare. What a worker
    /// computes is a pure function of its prep and snapshot, so the run is bit-identical
    /// for any worker count, zero included.
    fn run_rounds(
        &mut self,
        round_ms: u64,
        events: &[JoinEvent],
        overhead: &mut Option<OverheadReport>,
        samples: &mut Vec<RoundSample>,
    ) -> Option<MetricsOverlapReport> {
        let workers = self.params.metrics_workers;
        // A single worker never competes with a sibling for cores, so it inherits the
        // engine's thread budget for its multi-source BFS; multiple workers each stay
        // single-threaded to avoid oversubscribing the machine.
        let worker_threads = if workers == 1 {
            self.params.engine_threads.max(1)
        } else {
            1
        };
        let mut blocked_ns = 0u64;
        let mut sources = Vec::new();
        let mut next_event = 0usize;
        std::thread::scope(|scope| {
            // Offloaded samples, oldest first.
            let mut in_flight: VecDeque<ScopedJoinHandle<'_, _>> = VecDeque::new();
            for round in 1..=self.params.rounds {
                self.step_round(round, round_ms, events, &mut next_event, overhead);
                if round % self.params.sample_every != 0 {
                    continue;
                }
                let prep = self.prepare_sample(round, std::mem::take(&mut sources));
                if workers == 0 {
                    let (sample, timing) =
                        analyze_sample(&prep, &self.sample_snapshot, &mut self.metrics, false);
                    samples.push(sample);
                    self.metrics_timing.push(timing);
                    sources = prep.sources;
                    continue;
                }
                // Every slot busy: join the oldest sample and reuse its buffers.
                let (mut snapshot, mut metrics) = if in_flight.len() == workers {
                    let oldest = in_flight.pop_front().expect("every slot is busy");
                    let wait = Instant::now();
                    let (sample, timing, snapshot, metrics) =
                        oldest.join().expect("metrics worker panicked");
                    blocked_ns += wait.elapsed().as_nanos() as u64;
                    samples.push(sample);
                    self.metrics_timing.push(timing);
                    (snapshot, metrics)
                } else {
                    (
                        OverlaySnapshot::default(),
                        MetricsContext::new(worker_threads),
                    )
                };
                snapshot.copy_observations_from(&self.sample_snapshot);
                in_flight.push_back(scope.spawn(move || {
                    let (sample, timing) = analyze_sample(&prep, &snapshot, &mut metrics, true);
                    (sample, timing, snapshot, metrics)
                }));
            }
            for oldest in in_flight {
                let wait = Instant::now();
                let (sample, timing, ..) = oldest.join().expect("metrics worker panicked");
                blocked_ns += wait.elapsed().as_nanos() as u64;
                samples.push(sample);
                self.metrics_timing.push(timing);
            }
        });

        (workers > 0).then(|| {
            let analysis_ns: u64 = self.metrics_timing.iter().map(|t| t.analysis_ns).sum();
            let hidden = analysis_ns - blocked_ns.min(analysis_ns);
            MetricsOverlapReport {
                workers,
                offloaded_samples: self.metrics_timing.len() as u64,
                analysis_ns,
                blocked_ns,
                overlap_ratio: if analysis_ns == 0 {
                    0.0
                } else {
                    hidden as f64 / analysis_ns as f64
                },
            }
        })
    }

    /// Fails `fraction` of the live nodes at a single instant and returns the fraction of
    /// survivors still connected in the largest cluster (Fig. 7(b)).
    fn catastrophic_failure(&mut self, fraction: f64) -> f64 {
        let alive: usize = self.alive_public.len() + self.alive_private.len();
        let to_fail = ((alive as f64) * fraction).round() as usize;
        for _ in 0..to_fail {
            let class = self.draw_class();
            if self.remove_random_node(class).is_none() {
                // The chosen class ran out of nodes; fail one of the other class instead.
                let _ = self.remove_random_node(class.opposite());
            }
        }
        // Reuse the driver's snapshot and metrics buffers; the CSR build drops the
        // dangling edges left behind by the failed nodes.
        self.sample_snapshot.capture_into(&self.sim, 0);
        self.metrics.build(&self.sample_snapshot);
        self.metrics.largest_component_fraction()
    }
}

/// Runs a peer-sampling experiment for any protocol implementing [`PssNode`].
///
/// `make_node` constructs the protocol instance for each joining node from the node's
/// identity and connectivity class. The engine is chosen by
/// [`ExperimentParams::engine_threads`].
pub fn run_pss<P, F>(params: &ExperimentParams, make_node: F) -> RunOutput
where
    P: Protocol + PssNode + Send,
    P::Message: Send,
    F: FnMut(NodeId, NatClass) -> P,
{
    if params.engine_threads == 0 {
        Driver::<P, Simulation<P>, F>::new(params, make_node).run()
    } else {
        Driver::<P, ShardedSimulation<P>, F>::new(params, make_node).run()
    }
}

/// Runs a catastrophic-failure experiment: the system is built and run for `params.rounds`
/// rounds, then `failure_fraction` of the nodes crash simultaneously; the return value is
/// the fraction of surviving nodes that remain in the largest connected cluster.
pub(crate) fn run_failure<P, F>(
    params: &ExperimentParams,
    make_node: F,
    failure_fraction: f64,
) -> f64
where
    P: Protocol + PssNode + Send,
    P::Message: Send,
    F: FnMut(NodeId, NatClass) -> P,
{
    assert!(
        (0.0..1.0).contains(&failure_fraction),
        "failure fraction must be within [0, 1)"
    );
    if params.engine_threads == 0 {
        let mut driver = Driver::<P, Simulation<P>, F>::new(params, make_node);
        driver.run();
        driver.catastrophic_failure(failure_fraction)
    } else {
        let mut driver = Driver::<P, ShardedSimulation<P>, F>::new(params, make_node);
        driver.run();
        driver.catastrophic_failure(failure_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use croupier::{CroupierConfig, CroupierNode};
    use croupier_baselines::{BaselineConfig, CyclonNode};

    fn tiny_params() -> ExperimentParams {
        ExperimentParams::default()
            .with_population(8, 32)
            .with_rounds(50)
            .with_sample_every(5)
    }

    #[test]
    fn croupier_run_produces_converging_estimates() {
        let params = tiny_params().with_seed(1);
        let out = run_pss(&params, |id, class| {
            CroupierNode::new(id, class, CroupierConfig::default())
        });
        assert!(!out.samples.is_empty());
        let last = out.last_sample().unwrap();
        assert_eq!(last.node_count, 40);
        assert!((out.final_true_ratio - 0.2).abs() < 1e-9);
        assert!(
            last.estimation.average < 0.1,
            "average estimation error should be small, got {}",
            last.estimation.average
        );
    }

    #[test]
    fn graph_metrics_are_produced_when_enabled() {
        let params = tiny_params().with_seed(2).with_graph_metrics(10);
        let out = run_pss(&params, |id, class| {
            CroupierNode::new(id, class, CroupierConfig::default())
        });
        let last = out.last_sample().unwrap();
        assert!(last.avg_path_length.is_some());
        assert!(last.clustering.is_some());
        assert!(
            (last.largest_component.unwrap() - 1.0).abs() < 1e-9,
            "overlay should be connected"
        );
        assert!(out.final_snapshot.edge_count() > 0);
    }

    #[test]
    fn incremental_components_match_the_csr_pipeline_sample_for_sample() {
        let base = tiny_params()
            .with_seed(11)
            .with_churn(ChurnSpec::new(10, 0.02))
            .with_graph_metrics(10);
        let csr = run_pss(&base, |id, class| {
            CroupierNode::new(id, class, CroupierConfig::default())
        });
        let incremental = run_pss(&base.clone().with_incremental_components(), |id, class| {
            CroupierNode::new(id, class, CroupierConfig::default())
        });
        assert_eq!(csr.samples.len(), incremental.samples.len());
        for (a, b) in csr.samples.iter().zip(&incremental.samples) {
            assert_eq!(
                a.largest_component.map(f64::to_bits),
                b.largest_component.map(f64::to_bits),
                "round {}: incremental largest component must be bit-identical to CSR",
                a.round
            );
            // The rest of the sample must be untouched by the incremental tracker.
            assert_eq!(a, b);
        }
        let (rebuilds, fast) = incremental.incremental_component_updates.unwrap();
        assert_eq!(rebuilds + fast, incremental.samples.len() as u64);
    }

    #[test]
    fn incremental_components_work_without_graph_metrics() {
        let params = tiny_params().with_seed(12).with_incremental_components();
        let out = run_pss(&params, |id, class| {
            CroupierNode::new(id, class, CroupierConfig::default())
        });
        let last = out.last_sample().unwrap();
        assert!(last.avg_path_length.is_none());
        assert!(last.clustering.is_none());
        assert!(
            (last.largest_component.unwrap() - 1.0).abs() < 1e-9,
            "a converged tiny overlay is connected"
        );
        let (rebuilds, fast) = out.incremental_component_updates.unwrap();
        assert!(rebuilds >= 1, "the first sample always rebuilds");
        // A shuffling overlay removes edges between any two samples, so how many take
        // the additions-only shortcut is the traffic's business; every sample takes one
        // path or the other.
        assert_eq!(rebuilds + fast, out.samples.len() as u64);
    }

    #[test]
    fn incremental_indegree_matches_the_full_recount_sample_for_sample() {
        let base = tiny_params()
            .with_seed(14)
            .with_churn(ChurnSpec::new(10, 0.02))
            .with_graph_metrics(10);
        let full = run_pss(&base, |id, class| {
            CroupierNode::new(id, class, CroupierConfig::default())
        });
        let incremental = run_pss(&base.clone().with_incremental_indegree(), |id, class| {
            CroupierNode::new(id, class, CroupierConfig::default())
        });
        assert_eq!(full.samples.len(), incremental.samples.len());
        for (a, b) in full.samples.iter().zip(&incremental.samples) {
            assert_eq!(
                a.indegree_gini.map(f64::to_bits),
                b.indegree_gini.map(f64::to_bits),
                "round {}: incremental in-degree Gini must be bit-identical to the recount",
                a.round
            );
            assert_eq!(a, b);
        }
        let (rebuilds, fast) = incremental.incremental_indegree_updates.unwrap();
        assert_eq!(rebuilds + fast, incremental.samples.len() as u64);
        assert!(
            fast > 0,
            "a stable overlay must take the delta fast path ({rebuilds} rebuilds, {fast} fast)"
        );
        assert!(full.incremental_indegree_updates.is_none());
    }

    #[test]
    fn incremental_indegree_works_without_graph_metrics() {
        let params = tiny_params().with_seed(15).with_incremental_indegree();
        let out = run_pss(&params, |id, class| {
            CroupierNode::new(id, class, CroupierConfig::default())
        });
        let last = out.last_sample().unwrap();
        assert!(last.avg_path_length.is_none());
        assert!(last.clustering.is_none());
        let gini = last.indegree_gini.unwrap();
        assert!((0.0..=1.0).contains(&gini), "Gini out of range: {gini}");
    }

    #[test]
    fn overlapped_metrics_are_bit_identical_for_every_worker_count() {
        let run = |workers: usize| {
            let params = tiny_params()
                .with_seed(16)
                .with_churn(ChurnSpec::new(10, 0.05))
                .with_graph_metrics(10)
                .with_incremental_indegree()
                .with_metrics_workers(workers);
            run_pss(&params, |id, class| {
                CroupierNode::new(id, class, CroupierConfig::default())
            })
        };
        let sync = run(0);
        assert!(sync.metrics_overlap.is_none());
        assert_eq!(sync.metrics_timing.len(), sync.samples.len());
        assert!(sync.metrics_timing.iter().all(|t| !t.offloaded));
        for workers in [1, 2, 4] {
            let overlapped = run(workers);
            assert_eq!(
                sync.samples, overlapped.samples,
                "samples diverged with {workers} metrics workers"
            );
            assert_eq!(sync.final_snapshot, overlapped.final_snapshot);
            let report = overlapped.metrics_overlap.unwrap();
            assert_eq!(report.workers, workers);
            assert_eq!(report.offloaded_samples, overlapped.samples.len() as u64);
            assert!((0.0..=1.0).contains(&report.overlap_ratio));
            assert_eq!(overlapped.metrics_timing.len(), overlapped.samples.len());
            assert!(overlapped.metrics_timing.iter().all(|t| t.offloaded));
            // Joined in sample order: the timing vector mirrors the samples.
            for (timing, sample) in overlapped.metrics_timing.iter().zip(&overlapped.samples) {
                assert_eq!(timing.round, sample.round);
            }
        }
    }

    #[test]
    fn overlapped_metrics_follow_scripted_scenarios() {
        let run = |workers: usize| {
            let params = tiny_params()
                .with_seed(17)
                .with_rounds(60)
                .with_graph_metrics(10)
                .with_scenario(ScenarioScript::croupier_stress(60))
                .with_metrics_workers(workers);
            run_pss(&params, |id, class| {
                CroupierNode::new(id, class, CroupierConfig::default())
            })
        };
        let sync = run(0);
        let overlapped = run(2);
        assert_eq!(sync.samples, overlapped.samples);
        assert_eq!(sync.nat_stats, overlapped.nat_stats);
        assert_eq!(sync.traffic, overlapped.traffic);
    }

    #[test]
    fn more_workers_than_samples_still_join_in_round_order() {
        let run = |workers: usize| {
            let params = tiny_params()
                .with_seed(18)
                .with_rounds(15)
                .with_graph_metrics(10)
                .with_metrics_workers(workers);
            run_pss(&params, |id, class| {
                CroupierNode::new(id, class, CroupierConfig::default())
            })
        };
        let out = run(8);
        let rounds: Vec<u64> = out.samples.iter().map(|s| s.round).collect();
        assert_eq!(rounds, [5, 10, 15]);
        let timed: Vec<u64> = out.metrics_timing.iter().map(|t| t.round).collect();
        assert_eq!(timed, rounds);
        assert!(out.metrics_timing.iter().all(|t| t.offloaded));
        assert_eq!(out.metrics_overlap.unwrap().offloaded_samples, 3);
        assert_eq!(out.samples, run(0).samples);
    }

    #[test]
    fn a_run_without_samples_reports_an_empty_overlap() {
        let params = tiny_params()
            .with_seed(19)
            .with_rounds(10)
            .with_sample_every(20)
            .with_metrics_workers(2);
        let out = run_pss(&params, |id, class| {
            CroupierNode::new(id, class, CroupierConfig::default())
        });
        assert!(out.samples.is_empty());
        assert!(out.metrics_timing.is_empty());
        let report = out.metrics_overlap.expect("a worker count was configured");
        assert_eq!(report.workers, 2);
        assert_eq!(report.offloaded_samples, 0);
        assert_eq!(report.overlap_ratio, 0.0);
    }

    #[test]
    fn churn_keeps_population_and_ratio_stable() {
        let params = tiny_params()
            .with_seed(3)
            .with_rounds(60)
            .with_churn(ChurnSpec::new(20, 0.05));
        let out = run_pss(&params, |id, class| {
            CroupierNode::new(id, class, CroupierConfig::default())
        });
        let last = out.last_sample().unwrap();
        assert_eq!(last.node_count, 40, "churn replaces nodes one for one");
        assert!((out.final_true_ratio - 0.2).abs() < 0.08);
    }

    #[test]
    fn growth_raises_the_true_ratio() {
        let params = tiny_params()
            .with_seed(4)
            .with_rounds(60)
            .with_growth(GrowthSpec {
                start_round: 20,
                count: 10,
                interarrival_ms: 500.0,
                class: NatClass::Public,
            });
        let out = run_pss(&params, |id, class| {
            CroupierNode::new(id, class, CroupierConfig::default())
        });
        assert!(
            out.final_true_ratio > 0.3,
            "ratio should grow, got {}",
            out.final_true_ratio
        );
        assert_eq!(out.last_sample().unwrap().node_count, 50);
    }

    #[test]
    fn overhead_window_produces_a_report() {
        let params = tiny_params().with_seed(5).with_overhead_window(20, 40);
        let out = run_pss(&params, |id, class| {
            CroupierNode::new(id, class, CroupierConfig::default())
        });
        let overhead = out.overhead.expect("overhead report requested");
        assert!(overhead.public.avg_load_bytes_per_sec > 0.0);
        assert!(overhead.private.avg_load_bytes_per_sec > 0.0);
        // Croupiers serve the shuffle requests of everyone, so they carry more load.
        assert!(overhead.public.avg_load_bytes_per_sec > overhead.private.avg_load_bytes_per_sec);
    }

    #[test]
    fn cyclon_runs_on_all_public_populations() {
        let params = ExperimentParams::default()
            .with_seed(6)
            .with_population(30, 0)
            .with_rounds(40)
            .with_sample_every(5)
            .with_graph_metrics(10);
        let out = run_pss(&params, |id, _| CyclonNode::new(id, BaselineConfig));
        let last = out.last_sample().unwrap();
        assert_eq!(last.node_count, 30);
        assert!((last.largest_component.unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn failure_run_reports_surviving_cluster_fraction() {
        let params = tiny_params().with_seed(7).with_rounds(40);
        let connected = run_failure(
            &params,
            |id, class| CroupierNode::new(id, class, CroupierConfig::default()),
            0.5,
        );
        assert!(
            connected > 0.5,
            "half the nodes failing should not shatter the overlay: {connected}"
        );
        assert!(connected <= 1.0);
    }

    #[test]
    fn runs_are_deterministic_for_a_fixed_seed() {
        let params = tiny_params().with_seed(8);
        let run = || {
            run_pss(&params, |id, class| {
                CroupierNode::new(id, class, CroupierConfig::default())
            })
            .samples
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sharded_engine_produces_converging_estimates() {
        let params = tiny_params().with_seed(9).with_engine_threads(2);
        let out = run_pss(&params, |id, class| {
            CroupierNode::new(id, class, CroupierConfig::default())
        });
        let last = out.last_sample().unwrap();
        assert_eq!(last.node_count, 40);
        assert!((out.final_true_ratio - 0.2).abs() < 1e-9);
        assert!(
            last.estimation.average < 0.1,
            "sharded run should converge like the event engine, got {}",
            last.estimation.average
        );
        assert!(out.traffic.total_bytes_sent() > 0);
    }

    #[test]
    fn sharded_runs_are_bit_identical_across_thread_counts() {
        let run = |threads: usize| {
            let params = tiny_params().with_seed(10).with_engine_threads(threads);
            run_pss(&params, |id, class| {
                CroupierNode::new(id, class, CroupierConfig::default())
            })
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.samples, four.samples, "samples diverged");
        assert_eq!(
            one.final_snapshot, four.final_snapshot,
            "snapshots diverged"
        );
        assert_eq!(one.traffic, four.traffic, "traffic ledgers diverged");
    }

    #[test]
    fn sharded_graph_metrics_are_bit_identical_across_thread_counts() {
        // Drives the whole pipeline with graph metrics on: the sharded engine AND the
        // metrics context fan out over `threads` workers, and every sampled metric —
        // including the float outputs of the parallel multi-source BFS — must match the
        // single-worker run bit for bit.
        let run = |threads: usize| {
            let params = tiny_params()
                .with_seed(13)
                .with_engine_threads(threads)
                .with_graph_metrics(10);
            run_pss(&params, |id, class| {
                CroupierNode::new(id, class, CroupierConfig::default())
            })
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.samples, four.samples, "graph-metric samples diverged");
        let last = one.last_sample().unwrap();
        assert!(last.avg_path_length.is_some());
        assert!(last.clustering.is_some());
        assert!((last.largest_component.unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sharded_engine_supports_churn_growth_and_overhead() {
        let params = tiny_params()
            .with_seed(11)
            .with_rounds(60)
            .with_engine_threads(3)
            .with_churn(ChurnSpec::new(20, 0.05))
            .with_overhead_window(30, 50);
        let out = run_pss(&params, |id, class| {
            CroupierNode::new(id, class, CroupierConfig::default())
        });
        assert_eq!(out.last_sample().unwrap().node_count, 40);
        let overhead = out.overhead.expect("overhead report requested");
        assert!(overhead.public.avg_load_bytes_per_sec > 0.0);
        assert!(overhead.public.avg_load_bytes_per_sec > overhead.private.avg_load_bytes_per_sec);
    }

    #[test]
    fn sharded_failure_runs_keep_the_overlay_connected() {
        let params = tiny_params()
            .with_seed(12)
            .with_rounds(40)
            .with_engine_threads(2);
        let connected = run_failure(
            &params,
            |id, class| CroupierNode::new(id, class, CroupierConfig::default()),
            0.5,
        );
        assert!(
            connected > 0.5,
            "sharded overlay should survive 50% failures: {connected}"
        );
    }

    use crate::scenario::{NatDynamicsEvent, ScenarioScript};

    #[test]
    fn scripted_scenario_runs_on_the_event_engine() {
        let params = tiny_params()
            .with_seed(20)
            .with_rounds(60)
            .with_graph_metrics(10)
            .with_scenario(ScenarioScript::croupier_stress(60));
        let out = run_pss(&params, |id, class| {
            CroupierNode::new(id, class, CroupierConfig::default())
        });
        let last = out.last_sample().unwrap();
        assert_eq!(last.node_count, 40);
        assert!(
            out.nat_stats.stale_binding_failures > 0,
            "the reboot storm should produce stale-binding send failures"
        );
        assert_eq!(out.nat_stats.offline_nodes, 0, "outage must be restored");
        assert!(
            (last.largest_component.unwrap() - 1.0).abs() < 1e-9,
            "croupier should recover connectivity after the stress script"
        );
    }

    #[test]
    fn scripted_flash_crowd_grows_the_population() {
        let params = tiny_params()
            .with_seed(21)
            .with_rounds(60)
            .with_scenario(ScenarioScript::flash_crowd(60));
        let out = run_pss(&params, |id, class| {
            CroupierNode::new(id, class, CroupierConfig::default())
        });
        assert_eq!(
            out.last_sample().unwrap().node_count,
            60,
            "half the initial 40 nodes join mid-run"
        );
    }

    #[test]
    fn scripted_profile_changes_move_the_true_ratio() {
        let script = ScenarioScript::new("upgrade_everyone")
            .at(20, NatDynamicsEvent::ProfileUpgrade { fraction: 1.0 });
        let params = tiny_params()
            .with_seed(22)
            .with_rounds(40)
            .with_scenario(script);
        let out = run_pss(&params, |id, class| {
            CroupierNode::new(id, class, CroupierConfig::default())
        });
        assert!(
            (out.final_true_ratio - 1.0).abs() < 1e-9,
            "after a full upgrade every node is effectively public, got {}",
            out.final_true_ratio
        );
        assert_eq!(out.nat_stats.public_nodes, 40);
    }

    #[test]
    fn scripted_scenario_runs_identically_on_repeat() {
        let params = tiny_params()
            .with_seed(23)
            .with_rounds(50)
            .with_engine_threads(2)
            .with_scenario(ScenarioScript::croupier_stress(50));
        let run = || {
            run_pss(&params, |id, class| {
                CroupierNode::new(id, class, CroupierConfig::default())
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.nat_stats, b.nat_stats);
        assert_eq!(a.traffic, b.traffic);
    }

    #[test]
    fn fault_scripts_inject_and_protocols_recover() {
        let params = tiny_params()
            .with_seed(24)
            .with_rounds(60)
            .with_graph_metrics(10)
            .with_scenario(ScenarioScript::lossy_10(60));
        let out = run_pss(&params, |id, class| {
            CroupierNode::new(id, class, CroupierConfig::default())
        });
        assert!(
            out.fault_report.injected_drops > 0,
            "the lossy window must inject drops, got {:?}",
            out.fault_report
        );
        assert!(
            out.fault_report.retries_fired > 0,
            "dropped shuffles must trigger timeout retries"
        );
        let last = out.last_sample().unwrap();
        assert!(
            (last.largest_component.unwrap() - 1.0).abs() < 1e-9,
            "croupier should recover connectivity after the faults clear"
        );
    }

    #[test]
    fn clean_runs_report_zero_fault_injection() {
        let params = tiny_params().with_seed(25).with_rounds(20);
        let out = run_pss(&params, |id, class| {
            CroupierNode::new(id, class, CroupierConfig::default())
        });
        assert_eq!(out.fault_report.total_injected(), 0);
        assert_eq!(out.fault_report.exchanges_abandoned, 0);
    }

    #[test]
    #[should_panic(expected = "failure fraction")]
    fn failure_fraction_must_be_less_than_one() {
        let params = tiny_params();
        run_failure(
            &params,
            |id, class| CroupierNode::new(id, class, CroupierConfig::default()),
            1.0,
        );
    }
}
