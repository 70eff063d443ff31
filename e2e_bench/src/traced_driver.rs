//! The traced driver: the experiment driver's run loop, rebuilt from the crates' public
//! functions with a span around every call into a layer.
//!
//! `croupier_experiments::runner` builds its topology, engine and hooks internally, so
//! from outside it only the protocol can be wrapped. To time the NAT filter, the round
//! hooks, the join path and each engine round as well, this module repeats the driver's
//! sequence — same seeds, same RNG streams, same call order — against the same public
//! API, with [`TimedFilter`], [`TimedHook`] and [`Timed`] in place of the bare objects.
//! It is only trusted because it is checked: every traced cell's sim digest must equal
//! the digest of the untraced cell run through the real driver.
//!
//! It covers what the benchmark's workloads use: joins, churn, synchronous sampling with
//! graph metrics and incremental trackers, scripted scenarios and the dissemination
//! workload, on either engine. Overlapped metrics, late growth and overhead windows are
//! refused rather than silently skipped.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use croupier_experiments::runner::SampleMetricsTiming;
use croupier_experiments::scenario::{JoinEvent, JoinSchedule};
use croupier_experiments::{
    ExperimentParams, RoundSample, RunOutput, ScenarioExecutor, WorkloadExecutor, WorkloadState,
};
use croupier_metrics::{
    draw_path_sources, estimation_errors, indegree_gini, IncrementalComponents,
    IncrementalIndegree, MetricsContext, OverlaySnapshot,
};
use croupier_nat::{NatTopology, NatTopologyBuilder};
use croupier_simulator::rng::Stream;
use croupier_simulator::{
    CompositeRoundHook, FaultPlane, NatClass, NetworkStats, NodeId, Protocol, PssNode, RoundHook,
    Seed, ShardedSimulation, SimDuration, SimTime, Simulation, SimulationConfig, SimulationEngine,
};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::trace::{CallbackClock, FilterClock, SpanId, Timed, TimedFilter, TimedHook, Tracer};

/// What one traced driver run measured, beside its ordinary output.
pub(crate) struct RunTrace {
    pub(crate) output: RunOutput,
    /// Engine wall time of each round (all `run_until` calls of the round), ms.
    pub(crate) engine_ms: Vec<f64>,
    /// Protocol callback nanoseconds of each round, summed over shards.
    pub(crate) callback_ns: Vec<u64>,
    pub(crate) stats: NetworkStats,
    pub(crate) filter: Arc<FilterClock>,
    pub(crate) clock: Arc<CallbackClock>,
    /// `SimulationEngine::add_node` time net of the `on_start` callback, and call count.
    pub(crate) sim_add: (u64, u64),
    /// `NatTopology::add_node` time and call count.
    pub(crate) nat_add: (u64, u64),
    /// Run start to the last scheduled join.
    pub(crate) join_phase_ns: u64,
    pub(crate) hook_scenario_ns: u64,
    pub(crate) hook_workload_ns: u64,
}

/// Nanosecond accumulators of the section of a round being executed.
#[derive(Default)]
struct Section {
    engine_ns: u64,
    engine_filter_ns: u64,
    nat_add_ns: u64,
    sim_add_ns: u64,
    on_start_ns: u64,
    join_filter_ns: u64,
    joins: u64,
}

struct Replica<P: Protocol + PssNode, E: SimulationEngine<Timed<P>>> {
    params: ExperimentParams,
    sim: E,
    topology: NatTopology,
    alive_public: Vec<NodeId>,
    alive_private: Vec<NodeId>,
    next_id: u64,
    churn_carry: f64,
    workload_rng: SmallRng,
    metric_rng: SmallRng,
    sample_snapshot: OverlaySnapshot,
    metrics: MetricsContext,
    components: IncrementalComponents,
    indegree: IncrementalIndegree,
    sources: Vec<u32>,
    workload_state: Option<Arc<Mutex<WorkloadState>>>,
    clock: Arc<CallbackClock>,
    filter: Arc<FilterClock>,
    hook_scenario_ns: Arc<AtomicU64>,
    hook_workload_ns: Arc<AtomicU64>,
    section: Section,
    sim_add_total: (u64, u64),
    nat_add_total: (u64, u64),
    last_join: Instant,
    _protocol: PhantomData<fn() -> P>,
}

impl<P: Protocol + PssNode, E: SimulationEngine<Timed<P>>> Replica<P, E> {
    /// Mirrors `Driver::new`: same seeds and streams, same installation order.
    fn new(params: &ExperimentParams) -> Self {
        assert!(
            params.metrics_workers == 0
                && params.growth.is_none()
                && params.overhead_window.is_none(),
            "the traced driver covers synchronous metrics without growth or overhead windows"
        );
        let topology = NatTopologyBuilder::new(params.seed ^ 0x004e_4154).build();
        let mut sim = E::from_config(
            SimulationConfig::default()
                .with_seed(params.seed)
                .with_round_period(SimDuration::from_secs(1))
                .with_engine_threads(params.engine_threads),
        );
        let filter = Arc::new(FilterClock::default());
        sim.set_delivery_filter(TimedFilter::new(topology.clone(), Arc::clone(&filter)));
        let seed = Seed::new(params.seed);
        let fault_plane = FaultPlane::new(seed);
        sim.set_fault_plane(fault_plane.clone());
        let hook_scenario_ns = Arc::new(AtomicU64::new(0));
        let hook_workload_ns = Arc::new(AtomicU64::new(0));
        let mut workload_state = None;
        let scenario_hook = params.scenario.as_ref().map(|script| {
            let executor = ScenarioExecutor::new(
                script,
                topology.clone(),
                seed.stream_rng(Stream::Custom(0x5C3A)),
            )
            .with_fault_plane(fault_plane.clone());
            Box::new(TimedHook::new(
                Box::new(executor),
                Arc::clone(&hook_scenario_ns),
            )) as Box<dyn RoundHook>
        });
        let workload_hook = params.workload.map(|spec| {
            let (executor, state) =
                WorkloadExecutor::new(spec, topology.clone(), fault_plane.clone());
            workload_state = Some(state);
            Box::new(TimedHook::new(
                Box::new(executor),
                Arc::clone(&hook_workload_ns),
            )) as Box<dyn RoundHook>
        });
        match (scenario_hook, workload_hook) {
            (Some(scenario), Some(workload)) => sim.set_sampled_round_hook(Box::new(
                CompositeRoundHook::new().with(scenario).with(workload),
            )),
            (None, Some(workload)) => sim.set_sampled_round_hook(workload),
            (Some(scenario), None) => sim.set_round_hook(scenario),
            (None, None) => {}
        }
        let mut sample_snapshot = OverlaySnapshot::default();
        if params.incremental_components || params.incremental_indegree {
            sample_snapshot.enable_delta_tracking();
        }
        let round_ms = sim.config().round_period.as_millis();
        Replica {
            params: params.clone(),
            sim,
            topology,
            alive_public: Vec::new(),
            alive_private: Vec::new(),
            next_id: 0,
            churn_carry: 0.0,
            workload_rng: seed.stream_rng(Stream::Workload),
            metric_rng: seed.stream_rng(Stream::Custom(0xE7)),
            sample_snapshot,
            metrics: MetricsContext::new(params.engine_threads.max(1)),
            components: IncrementalComponents::new(),
            indegree: IncrementalIndegree::new(),
            sources: Vec::new(),
            workload_state,
            clock: CallbackClock::new(params.engine_threads, params.rounds, round_ms),
            filter,
            hook_scenario_ns,
            hook_workload_ns,
            section: Section::default(),
            sim_add_total: (0, 0),
            nat_add_total: (0, 0),
            last_join: Instant::now(),
            _protocol: PhantomData,
        }
    }

    fn add_node<F>(&mut self, class: NatClass, make_node: &mut F)
    where
        F: FnMut(NodeId, NatClass, &NatTopology) -> P,
    {
        let id = NodeId::new(self.next_id);
        self.next_id += 1;
        let start = Instant::now();
        self.topology.add_node(id, class);
        self.section.nat_add_ns += start.elapsed().as_nanos() as u64;
        if class.is_public() {
            self.sim.register_public(id);
            self.alive_public.push(id);
        } else {
            self.alive_private.push(id);
        }
        let node = Timed::new(
            make_node(id, class, &self.topology),
            Arc::clone(&self.clock),
        );
        let (filter_before, on_start_before) = (self.filter.total_ns(), self.clock.on_start_ns());
        let start = Instant::now();
        self.sim.add_node(id, node);
        let elapsed = start.elapsed().as_nanos() as u64;
        let filter_ns = self.filter.total_ns() - filter_before;
        let on_start_ns = self.clock.on_start_ns() - on_start_before;
        self.section.join_filter_ns += filter_ns;
        self.section.on_start_ns += on_start_ns;
        self.section.sim_add_ns += elapsed.saturating_sub(filter_ns + on_start_ns);
        self.section.joins += 1;
    }

    fn run_engine_until(&mut self, deadline: SimTime) {
        let filter_before = self.filter.total_ns();
        let start = Instant::now();
        self.sim.run_until(deadline);
        self.section.engine_ns += start.elapsed().as_nanos() as u64;
        self.section.engine_filter_ns += self.filter.total_ns() - filter_before;
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

    fn apply_churn<F>(&mut self, make_node: &mut F)
    where
        F: FnMut(NodeId, NatClass, &NatTopology) -> P,
    {
        let Some(churn) = self.params.churn else {
            return;
        };
        let alive = self.alive_public.len() + self.alive_private.len();
        self.churn_carry += churn.fraction_per_round * alive as f64;
        let replacements = self.churn_carry.floor() as usize;
        self.churn_carry -= replacements as f64;
        for _ in 0..replacements {
            let public_fraction = self.alive_public.len() as f64
                / (self.alive_public.len() + self.alive_private.len()).max(1) as f64;
            let class = if self.workload_rng.gen_range(0.0..1.0) < public_fraction {
                NatClass::Public
            } else {
                NatClass::Private
            };
            if self.remove_random_node(class).is_some() {
                self.add_node(class, make_node);
            }
        }
    }

    fn true_ratio(&self) -> f64 {
        if self.params.scenario.is_some() {
            return self.topology.stats().public_private_ratio();
        }
        let total = self.alive_public.len() + self.alive_private.len();
        if total == 0 {
            0.0
        } else {
            self.alive_public.len() as f64 / total as f64
        }
    }

    /// Mirrors `Driver::sample` (prepare + analyse), one span per half.
    fn sample(
        &mut self,
        round: u64,
        tracer: &mut Tracer,
        parent: SpanId,
        run: u32,
    ) -> (RoundSample, SampleMetricsTiming) {
        let capture = tracer.begin("metrics.capture", Some(parent), run);
        self.sample_snapshot
            .capture_into(&self.sim, self.params.min_rounds_for_metrics);
        let incremental_component = self.params.incremental_components.then(|| {
            self.components.update(&self.sample_snapshot);
            self.components.largest_component_fraction()
        });
        let incremental_gini = self.params.incremental_indegree.then(|| {
            self.indegree.update(&self.sample_snapshot);
            self.indegree.gini()
        });
        if let Some(count) = self.params.graph_metric_sources {
            draw_path_sources(
                self.sample_snapshot.node_count(),
                count,
                &mut self.metric_rng,
                &mut self.sources,
            );
        }
        let node_count = self.sim.len();
        let true_ratio = self.true_ratio();
        tracer.end(capture);

        let analysis = tracer.begin("metrics.analysis", Some(parent), run);
        let estimation = estimation_errors(&self.sample_snapshot, true_ratio);
        let (avg_path_length, clustering, largest_component, gini) =
            if self.params.graph_metric_sources.is_some() {
                self.metrics.build(&self.sample_snapshot);
                (
                    self.metrics.average_path_length_with_sources(&self.sources),
                    Some(self.metrics.average_clustering_coefficient()),
                    Some(
                        incremental_component
                            .unwrap_or_else(|| self.metrics.largest_component_fraction()),
                    ),
                    Some(incremental_gini.unwrap_or_else(|| indegree_gini(&self.sample_snapshot))),
                )
            } else {
                (None, None, incremental_component, incremental_gini)
            };
        tracer.end(analysis);
        let spans = tracer.spans();
        (
            RoundSample {
                round,
                node_count,
                true_ratio,
                estimation,
                avg_path_length,
                clustering,
                largest_component,
                indegree_gini: gini,
            },
            SampleMetricsTiming {
                round,
                capture_ns: spans[capture].duration_ns(),
                analysis_ns: spans[analysis].duration_ns(),
                offloaded: false,
            },
        )
    }

    /// Mirrors `Driver::run` for `metrics_workers == 0`.
    fn run<F>(mut self, make_node: &mut F, tracer: &mut Tracer, run: u32) -> RunTrace
    where
        F: FnMut(NodeId, NatClass, &NatTopology) -> P,
    {
        let root = tracer.begin("run", None, run);
        let started = Instant::now();
        self.last_join = started;
        let round_ms = self.sim.config().round_period.as_millis().max(1);
        let mut schedule = JoinSchedule::poisson(
            self.params.n_public,
            self.params.public_interarrival_ms,
            self.params.n_private,
            self.params.private_interarrival_ms,
            &mut self.workload_rng,
        );
        if let Some(script) = &self.params.scenario {
            schedule.extend(script.flash_crowd_joins(self.params.total_nodes(), round_ms));
        }
        let events: Vec<JoinEvent> = schedule.events().to_vec();
        let mut next_event = 0usize;
        let mut samples = Vec::new();
        let mut metrics_timing = Vec::new();
        let rounds = self.params.rounds as usize;
        let (mut engine_ms, mut callback_ns) =
            (Vec::with_capacity(rounds), Vec::with_capacity(rounds));

        for round in 1..=self.params.rounds {
            let round_span = tracer.begin("round", Some(root), run);
            let (scenario_before, workload_before) = (
                self.hook_scenario_ns.load(Relaxed),
                self.hook_workload_ns.load(Relaxed),
            );
            self.section = Section::default();
            let boundary = SimTime::from_millis(round * round_ms);
            while next_event < events.len() && events[next_event].at <= boundary {
                let event = events[next_event];
                next_event += 1;
                self.run_engine_until(event.at);
                self.add_node(event.class, make_node);
                self.last_join = Instant::now();
            }
            self.run_engine_until(boundary);
            let section = std::mem::take(&mut self.section);
            self.sim_add_total.0 += section.sim_add_ns;
            self.sim_add_total.1 += section.joins;
            self.nat_add_total.0 += section.nat_add_ns;
            self.nat_add_total.1 += section.joins;

            // The engine span's children are what it waited on: the slowest shard's
            // callbacks, the filter and the hooks. What is left is the engine's own time.
            let engine = tracer.aggregate("engine", round_span, section.engine_ns);
            tracer.aggregate("protocol", engine, self.clock.blocking_ns(round));
            tracer.aggregate("nat.filter", engine, section.engine_filter_ns);
            tracer.aggregate(
                "hook.scenario",
                engine,
                self.hook_scenario_ns.load(Relaxed) - scenario_before,
            );
            tracer.aggregate(
                "hook.workload",
                engine,
                self.hook_workload_ns.load(Relaxed) - workload_before,
            );
            if section.joins > 0 {
                let join = tracer.aggregate(
                    "join",
                    round_span,
                    section.nat_add_ns
                        + section.sim_add_ns
                        + section.on_start_ns
                        + section.join_filter_ns,
                );
                tracer.aggregate("nat.add_node", join, section.nat_add_ns);
                tracer.aggregate("simulator.add_node", join, section.sim_add_ns);
                tracer.aggregate("protocol.on_start", join, section.on_start_ns);
                tracer.aggregate("nat.filter", join, section.join_filter_ns);
            }
            engine_ms.push(section.engine_ns as f64 / 1e6);
            callback_ns.push(self.clock.round_total_ns(round));

            if let Some(churn) = self.params.churn {
                if round >= churn.start_round {
                    let span = tracer.begin("churn", Some(round_span), run);
                    self.apply_churn(make_node);
                    tracer.end(span);
                }
            }
            if round % self.params.sample_every == 0 {
                let (sample, timing) = self.sample(round, tracer, round_span, run);
                samples.push(sample);
                metrics_timing.push(timing);
            }
            tracer.end(round_span);
        }

        let mut final_snapshot =
            OverlaySnapshot::capture(&self.sim, self.params.min_rounds_for_metrics);
        final_snapshot.retain_live_edges();
        let mut fault_report = self.sim.fault_report();
        self.sim.for_each_node(&mut |_, node| {
            fault_report.retries_fired += node.retries_fired();
            fault_report.exchanges_abandoned += node.exchanges_abandoned();
        });
        let workload = self.workload_state.as_ref().map(|state| {
            let mut live: Vec<NodeId> = Vec::with_capacity(self.sim.len());
            self.sim.for_each_node(&mut |id, _| live.push(id));
            live.sort_unstable();
            WorkloadExecutor::report(state, &live)
        });
        let output = RunOutput {
            samples,
            overhead: None,
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
            metrics_overlap: None,
            metrics_timing,
            fault_report,
            workload,
        };
        tracer.end(root);
        RunTrace {
            output,
            engine_ms,
            callback_ns,
            stats: self.sim.network_stats(),
            filter: self.filter,
            clock: self.clock,
            sim_add: self.sim_add_total,
            nat_add: self.nat_add_total,
            join_phase_ns: (self.last_join - started).as_nanos() as u64,
            hook_scenario_ns: self.hook_scenario_ns.load(Relaxed),
            hook_workload_ns: self.hook_workload_ns.load(Relaxed),
        }
    }
}

/// Runs `params` through the traced driver on the engine the params select, exactly as
/// `croupier_experiments::runner::run_pss` picks it.
pub(crate) fn run_pss_traced<P, F>(
    params: &ExperimentParams,
    mut make_node: F,
    tracer: &mut Tracer,
    run: u32,
) -> RunTrace
where
    P: Protocol + PssNode + Send,
    P::Message: Send,
    F: FnMut(NodeId, NatClass, &NatTopology) -> P,
{
    if params.engine_threads == 0 {
        Replica::<P, Simulation<Timed<P>>>::new(params).run(&mut make_node, tracer, run)
    } else {
        Replica::<P, ShardedSimulation<Timed<P>>>::new(params).run(&mut make_node, tracer, run)
    }
}
