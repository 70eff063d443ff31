//! Micro-benchmarks of Croupier's hot paths: view merging, ratio-estimator bookkeeping,
//! sampling, and a complete simulated gossip round of a mid-sized system.

use criterion::{criterion_group, criterion_main, Criterion};
use croupier::{
    sample_from_views, CroupierConfig, CroupierNode, Descriptor, EstimateRecord, RatioEstimator,
    View,
};
use croupier_nat::NatTopologyBuilder;
use croupier_simulator::{NatClass, NodeId, Simulation, SimulationConfig, SimulationEngine};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn filled_view(capacity: usize, n: u64) -> View {
    let mut view = View::new(capacity);
    for i in 0..n {
        view.insert(Descriptor::with_age(
            NodeId::new(i),
            NatClass::Public,
            (i % 7) as u32,
        ));
    }
    view
}

fn bench_view_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("view");
    let received: Vec<Descriptor> = (100..105u64)
        .map(|i| Descriptor::new(NodeId::new(i), NatClass::Public))
        .collect();
    let sent: Vec<Descriptor> = (0..5u64)
        .map(|i| Descriptor::new(NodeId::new(i), NatClass::Public))
        .collect();
    group.bench_function("swapper_merge_10", |b| {
        b.iter_batched(
            || filled_view(10, 10),
            |mut view| view.apply_exchange_swapper(&sent, &received, NodeId::new(999)),
            criterion::BatchSize::SmallInput,
        )
    });
    let mut rng = SmallRng::seed_from_u64(1);
    let mut view = filled_view(10, 10);
    group.bench_function("random_subset_5_of_10", |b| {
        b.iter(|| view.random_subset(5, &mut rng))
    });
    group.finish();
}

fn bench_estimator(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimator");
    group.bench_function("advance_round_alpha25", |b| {
        b.iter_batched(
            || {
                let mut est = RatioEstimator::new(NatClass::Public, 25, 50);
                for i in 0..20u64 {
                    est.ingest(
                        &[EstimateRecord::new(NodeId::new(i), 0.2)],
                        NodeId::new(999),
                    );
                }
                est.record_request(NatClass::Private);
                est.record_request(NatClass::Public);
                est
            },
            |mut est| est.advance_round(),
            criterion::BatchSize::SmallInput,
        )
    });
    let mut est = RatioEstimator::new(NatClass::Private, 25, 50);
    for i in 0..50u64 {
        est.ingest(
            &[EstimateRecord::new(NodeId::new(i), 0.2)],
            NodeId::new(999),
        );
    }
    group.bench_function("estimate_50_cached", |b| b.iter(|| est.estimate()));
    group.finish();
}

fn bench_sampler(c: &mut Criterion) {
    let public = filled_view(10, 10);
    let private = filled_view(10, 10);
    let mut rng = SmallRng::seed_from_u64(2);
    c.bench_function("sampler/draw", |b| {
        b.iter(|| sample_from_views(&public, &private, Some(0.2), &mut rng))
    });
}

fn bench_simulated_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(20);
    group.bench_function("croupier_100_nodes_one_round", |b| {
        b.iter_batched(
            || {
                let topology = NatTopologyBuilder::new(7).build();
                let mut sim = Simulation::new(SimulationConfig::default().with_seed(7));
                sim.set_delivery_filter(topology.clone());
                for i in 0..100u64 {
                    let id = NodeId::new(i);
                    let class = if i < 20 {
                        NatClass::Public
                    } else {
                        NatClass::Private
                    };
                    topology.add_node(id, class);
                    if class.is_public() {
                        sim.register_public(id);
                    }
                    sim.add_node(id, CroupierNode::new(id, class, CroupierConfig::default()));
                }
                sim.run_for_rounds(5);
                sim
            },
            |mut sim| sim.run_for_rounds(1),
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_view_merge,
    bench_estimator,
    bench_sampler,
    bench_simulated_round
);
criterion_main!(benches);
