//! Layer probes: fixed, seeded, workload-independent direct calls into each crate's
//! public functions, for the costs the engine gives no seam to wrap (scheduler, fault
//! plane) and for per-function costs inside a layer (each metrics pass, NAT table
//! writes). They run in every traced pass, at the same size whatever the workload, so
//! their values are comparable across workloads and commits; which end-to-end metric
//! each should move is written down in README.md.

use std::hint::black_box;
use std::time::Instant;

use croupier_baselines::{BaselineConfig, CyclonNode};
use croupier_experiments::matrix::{matrix_rounds, matrix_workload_spec, run_workload_cell};
use croupier_experiments::protocols::{run_kind, ProtocolConfigs};
use croupier_experiments::{ExperimentParams, ProtocolKind, Scale, ScenarioScript};
use croupier_metrics::{
    draw_path_sources, estimation_errors, indegree_gini, IncrementalComponents,
    IncrementalIndegree, MetricsContext, OverlaySnapshot,
};
use croupier_nat::{NatDynamicsEvent, NatTopologyBuilder};
use croupier_simulator::event::Event;
use croupier_simulator::rng::Stream;
use croupier_simulator::scheduler::EventQueue;
use croupier_simulator::{
    DeliveryFilter, FaultPlane, FaultProfile, NatClass, NodeId, Seed, ShardedSimulation, SimTime,
    SimulationConfig,
};
use rand::Rng;

use crate::host;
use crate::stats::median;
use crate::workloads::Size;

/// Milliseconds `work` takes; its result goes through `black_box` so it is computed.
fn time_ms<T>(work: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    black_box(work());
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs every probe. `Tiny` divides the sizes by 20 (for `--smoke` and the unit tests).
pub(crate) fn run_all(seed: u64, size: Size) -> Vec<(&'static str, f64)> {
    let scale = |n: usize| match size {
        Size::Full => n,
        Size::Tiny => (n / 20).max(8),
    };
    let mut out = Vec::new();
    scheduler(seed, scale(400_000), &mut out);
    fault_plane(seed, scale(1_000_000), &mut out);
    thread_speedup(seed, scale(20_000), &mut out);
    nat(seed, scale(20_000), scale(400_000), &mut out);
    metrics(seed, scale(8_000), &mut out);
    overlap(seed, scale(4_000), &mut out);
    protocol_cells(seed, size, &mut out);
    out
}

/// `EventQueue` schedule/pop churn at a steady backlog, timestamps spread over two
/// round periods like message deliveries and round timers are.
fn scheduler(seed: u64, ops: usize, out: &mut Vec<(&'static str, f64)>) {
    let mut rng = Seed::new(seed).stream_rng(Stream::Custom(0xB0));
    let mut queue: EventQueue<()> = EventQueue::new();
    let backlog = (ops / 8).max(1);
    for i in 0..backlog {
        let at = SimTime::from_millis(rng.gen_range(0..2_000u64));
        queue.schedule(
            at,
            Event::Round {
                node: NodeId::new(i as u64),
            },
        );
    }
    let start = Instant::now();
    for _ in 0..ops {
        let event = queue.pop().expect("the backlog never drains");
        let at = SimTime::from_millis(event.at.as_millis() + rng.gen_range(1..2_000u64));
        queue.schedule(at, event.event);
    }
    let seconds = start.elapsed().as_secs_f64();
    black_box(queue.len());
    out.push(("simulator.scheduler_ops_per_s", 2.0 * ops as f64 / seconds));
}

/// The fault plane's per-message cost: the inactive check every clean run pays, and a
/// full judgment under the `lossy_10` profile.
fn fault_plane(seed: u64, messages: usize, out: &mut Vec<(&'static str, f64)>) {
    let plane = FaultPlane::new(Seed::new(seed));
    let start = Instant::now();
    let mut open = 0usize;
    for _ in 0..messages {
        open += usize::from(black_box(&plane).begin().is_some());
    }
    let inactive_ns = start.elapsed().as_nanos() as f64 / messages as f64;
    assert_eq!(open, 0, "a fresh plane is inactive");
    plane.set_default_profile(FaultProfile::lossy(0.1));
    let mut session = plane.begin().expect("the plane is active");
    let start = Instant::now();
    let mut drops = 0usize;
    for i in 0..messages as u64 {
        drops += usize::from(
            session
                .judge(NodeId::new(i % 977), NodeId::new(i % 1009))
                .drop,
        );
    }
    let judge_ns = start.elapsed().as_nanos() as f64 / messages as f64;
    black_box(drops);
    out.push(("simulator.fault_inactive_ns", inactive_ns));
    out.push(("simulator.fault_judge_ns", judge_ns));
}

/// Wall time of a cheap-protocol sharded run at 1 worker ÷ at 2 workers: the share of a
/// round that parallelises when the engine, not the protocol, is the work. Reported as
/// 0 on a single core, where the ratio would say nothing about the engine.
fn thread_speedup(seed: u64, nodes: usize, out: &mut Vec<(&'static str, f64)>) {
    if host::cores() < 2 {
        eprintln!("simulator.thread_speedup_2 skipped: cores < 2");
        out.push(("simulator.thread_speedup_2", 0.0));
        return;
    }
    let timed = |threads: usize| {
        let mut params = ExperimentParams::default()
            .with_seed(seed)
            .with_population(nodes, 0)
            .with_rounds(12)
            .with_sample_every(12)
            .with_engine_threads(threads);
        params.public_interarrival_ms = 2_000.0 / nodes as f64;
        let start = Instant::now();
        black_box(run_kind(
            ProtocolKind::Cyclon,
            &params,
            &ProtocolConfigs::default(),
        ));
        start.elapsed().as_secs_f64()
    };
    // Alternate the sides and keep each side's best: interference only ever adds time.
    let (mut one, mut two) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..2 {
        one = one.min(timed(1));
        two = two.min(timed(2));
    }
    out.push(("simulator.thread_speedup_2", one / two));
}

/// `NatTopology` reads and writes on a 1:4 public/private population: a seeded
/// Cyclon-pattern send/deliver trace (most traffic aimed at the public fifth), then the
/// two scripted mutations the workload tier uses, applied over the live bindings.
fn nat(seed: u64, nodes: usize, messages: usize, out: &mut Vec<(&'static str, f64)>) {
    let mut rng = Seed::new(seed).stream_rng(Stream::Custom(0xB1));
    let mut topology = NatTopologyBuilder::new(seed).build();
    let public = (nodes / 5).max(1) as u64;
    for i in 0..nodes as u64 {
        let class = if i < public {
            NatClass::Public
        } else {
            NatClass::Private
        };
        topology.add_node(NodeId::new(i), class);
    }
    let trace: Vec<(NodeId, NodeId)> = (0..messages)
        .map(|_| {
            let from = rng.gen_range(0..nodes as u64);
            let to = if rng.gen_range(0.0..1.0) < 0.7 {
                rng.gen_range(0..public)
            } else {
                rng.gen_range(0..nodes as u64)
            };
            (NodeId::new(from), NodeId::new(to))
        })
        .collect();
    let start = Instant::now();
    let mut delivered = 0usize;
    for (i, (from, to)) in trace.iter().enumerate() {
        // ~40k messages per simulated second, as in the 8k-node Croupier workload.
        let now = SimTime::from_millis(i as u64 / 40);
        topology.on_send(*from, *to, now);
        // The reply direction is what a NAT binding admits.
        delivered += usize::from(topology.can_deliver(*to, *from, now).is_delivered());
    }
    let replay_ns = start.elapsed().as_nanos() as f64 / messages as f64;
    black_box(delivered);
    let now = SimTime::from_millis(messages as u64 / 40);
    let reboot_ms = time_ms(|| {
        topology.apply(
            &NatDynamicsEvent::GatewayRebootStorm { fraction: 0.5 },
            1,
            now,
            &mut rng,
        )
    });
    let mobility_ms = time_ms(|| {
        topology.apply(
            &NatDynamicsEvent::MobilityWave { fraction: 0.3 },
            2,
            now,
            &mut rng,
        )
    });
    out.push(("nat.replay_ns_per_msg", replay_ns));
    out.push(("nat.reboot_storm_ms", reboot_ms));
    out.push(("nat.mobility_wave_ms", mobility_ms));
}

/// Each metrics pass on its own, over snapshots of a live all-public Cyclon overlay
/// (the `metrics_every_round` shape): capture, CSR build, multi-source BFS, clustering,
/// components, Gini, estimation sweep, and both incremental trackers fed consecutive
/// snapshots one round apart.
fn metrics(seed: u64, nodes: usize, out: &mut Vec<(&'static str, f64)>) {
    let mut sim: ShardedSimulation<CyclonNode> = ShardedSimulation::new(
        SimulationConfig::default()
            .with_seed(seed)
            .with_engine_threads(1),
    );
    for i in 0..nodes as u64 {
        let id = NodeId::new(i);
        sim.register_public(id);
        sim.add_node(id, CyclonNode::new(id, BaselineConfig::default()));
    }
    sim.run_for_rounds(12);

    const SAMPLES: usize = 4;
    let mut snapshot = OverlaySnapshot::default();
    snapshot.enable_delta_tracking();
    let mut context = MetricsContext::new(1);
    let mut components = IncrementalComponents::new();
    let mut indegree = IncrementalIndegree::new();
    let mut rng = Seed::new(seed).stream_rng(Stream::Custom(0xB2));
    let mut sources = Vec::new();
    let mut samples: Vec<[(&'static str, f64); 9]> = Vec::new();
    for _ in 0..SAMPLES {
        sim.run_for_rounds(1);
        let capture = time_ms(|| snapshot.capture_into(&sim, 2));
        let incr_components = time_ms(|| {
            components.update(&snapshot);
            black_box(components.largest_component_fraction());
        });
        let incr_indegree = time_ms(|| {
            indegree.update(&snapshot);
            black_box(indegree.gini());
        });
        let csr_build = time_ms(|| context.build(&snapshot));
        draw_path_sources(snapshot.node_count(), 64, &mut rng, &mut sources);
        samples.push([
            ("metrics.capture_ms", capture),
            ("metrics.incr_components_ms", incr_components),
            ("metrics.incr_indegree_ms", incr_indegree),
            ("metrics.csr_build_ms", csr_build),
            (
                "metrics.apl_ms",
                time_ms(|| context.average_path_length_with_sources(&sources)),
            ),
            (
                "metrics.clustering_ms",
                time_ms(|| context.average_clustering_coefficient()),
            ),
            (
                "metrics.components_ms",
                time_ms(|| context.largest_component_fraction()),
            ),
            ("metrics.gini_ms", time_ms(|| indegree_gini(&snapshot))),
            (
                "metrics.estimation_ms",
                time_ms(|| estimation_errors(&snapshot, 1.0)),
            ),
        ]);
    }
    for column in 0..samples[0].len() {
        let values: Vec<f64> = samples.iter().map(|sample| sample[column].1).collect();
        out.push((samples[0][column].0, median(&values)));
    }
    out.push((
        "metrics.incr_components_sublinear_share",
        components.sublinear_update_count() as f64 / SAMPLES as f64,
    ));
    out.push((
        "metrics.incr_indegree_fast_share",
        indegree.fast_update_count() as f64 / SAMPLES as f64,
    ));
}

/// The overlapped metrics plane: one run with a metrics worker, reporting how much of
/// the analysis hid behind the simulation and how long the driver still waited.
fn overlap(seed: u64, nodes: usize, out: &mut Vec<(&'static str, f64)>) {
    let mut params = ExperimentParams::default()
        .with_seed(seed)
        .with_population(nodes, 0)
        .with_rounds(16)
        .with_sample_every(1)
        .with_graph_metrics(16)
        .with_metrics_workers(1)
        .with_engine_threads(1);
    params.public_interarrival_ms = 2_000.0 / nodes as f64;
    let run = run_kind(ProtocolKind::Cyclon, &params, &ProtocolConfigs::default());
    let report = run
        .metrics_overlap
        .expect("a metrics worker was configured");
    out.push(("experiments.overlap_ratio", report.overlap_ratio));
    out.push((
        "experiments.overlap_blocked_s",
        report.blocked_ns as f64 / 1e9,
    ));
}

/// One workload-tier matrix cell per protocol (scenario run + control): the relative
/// cost of the four protocols on the event-driven engine.
fn protocol_cells(seed: u64, size: Size, out: &mut Vec<(&'static str, f64)>) {
    let scale = match size {
        Size::Full => Scale::Quick,
        Size::Tiny => Scale::Tiny,
    };
    let rounds = matrix_rounds(scale);
    let script = ScenarioScript::reboot_storm(rounds);
    let spec = matrix_workload_spec(scale);
    for (name, kind) in [
        ("croupier.cell_s", ProtocolKind::Croupier),
        ("baselines.cyclon_cell_s", ProtocolKind::Cyclon),
        ("baselines.gozar_cell_s", ProtocolKind::Gozar),
        ("baselines.nylon_cell_s", ProtocolKind::Nylon),
    ] {
        let start = Instant::now();
        black_box(run_workload_cell(&script, kind, scale, seed, rounds, spec));
        out.push((name, start.elapsed().as_secs_f64()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_finite_measurement() {
        let values = run_all(9, Size::Tiny);
        assert_eq!(values.len(), 24);
        for (name, value) in &values {
            assert!(value.is_finite() && *value >= 0.0, "{name} = {value}");
        }
        let get = |key: &str| values.iter().find(|(k, _)| *k == key).unwrap().1;
        assert!(get("simulator.scheduler_ops_per_s") > 0.0);
        assert!(get("nat.replay_ns_per_msg") > 0.0);
        assert!(get("metrics.csr_build_ms") > 0.0);
        assert!(get("croupier.cell_s") > 0.0);
        assert!((0.0..=1.0).contains(&get("metrics.incr_indegree_fast_share")));
        assert!((0.0..=1.0).contains(&get("experiments.overlap_ratio")));
    }
}
