//! Randomized property tests of the core data structures and their invariants: bounded
//! views, the ratio estimator, the sampler, the NAT gateway mapping table and simulated
//! time arithmetic.
//!
//! Originally written against `proptest`; the offline build environment cannot fetch it,
//! so the same properties are exercised with a deterministic seeded case generator. Every
//! test runs a few hundred independently generated cases and reports the case seed on
//! failure, so a failing case reproduces exactly.

use croupier_suite::croupier::{
    sample_from_views, Descriptor, EstimateRecord, RatioEstimator, View, DESCRIPTOR_INLINE_CAPACITY,
};
use croupier_suite::metrics::{MetricsContext, NodeObservation, OverlaySnapshot};
use croupier_suite::nat::{FilteringPolicy, HostBindings, Ip, NatGateway, NatGatewayConfig};
use croupier_suite::simulator::{NatClass, NodeId, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Number of random cases per property.
const CASES: u64 = 250;

/// Runs `check` once per case with an independently seeded generator.
fn for_each_case(name: &str, mut check: impl FnMut(&mut SmallRng)) {
    for case in 0..CASES {
        let seed = 0x5eed_0000 + case;
        let mut rng = SmallRng::seed_from_u64(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check(&mut rng);
        }));
        if let Err(panic) = result {
            eprintln!("property `{name}` failed for case seed {seed:#x}");
            std::panic::resume_unwind(panic);
        }
    }
}

fn arb_class(rng: &mut SmallRng) -> NatClass {
    if rng.gen_bool(0.5) {
        NatClass::Public
    } else {
        NatClass::Private
    }
}

fn arb_descriptor(rng: &mut SmallRng) -> Descriptor {
    let id = rng.gen_range(0u64..64);
    let class = arb_class(rng);
    let age = rng.gen_range(0u32..100);
    Descriptor::with_age(NodeId::new(id), class, age)
}

fn arb_descriptors(rng: &mut SmallRng, max_len: usize) -> Vec<Descriptor> {
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| arb_descriptor(rng)).collect()
}

/// A view never exceeds its capacity, never contains duplicates and never contains the
/// owner, no matter what sequence of exchanges it absorbs.
#[test]
fn view_invariants_hold_under_arbitrary_exchanges() {
    for_each_case("view_invariants", |rng| {
        let capacity = rng.gen_range(1usize..12);
        let owner = NodeId::new(1_000);
        let mut view = View::new(capacity);
        let exchange_count = rng.gen_range(0usize..12);
        for _ in 0..exchange_count {
            let sent = arb_descriptors(rng, 7);
            let received = arb_descriptors(rng, 7);
            view.increment_ages();
            view.apply_exchange_swapper(&sent, &received, owner);

            assert!(view.len() <= capacity, "capacity exceeded: {}", view.len());
            assert!(!view.contains(owner), "owner must never enter its own view");
            let mut nodes: Vec<_> = view.iter().map(|d| d.node()).collect();
            nodes.sort();
            let before = nodes.len();
            nodes.dedup();
            assert_eq!(before, nodes.len(), "duplicate descriptors in view");
        }
    });
}

/// The estimator's node-level estimate always stays within [0, 1] and only uses records
/// that are inside the neighbour-history window.
#[test]
fn estimator_estimate_stays_in_unit_interval() {
    for_each_case("estimator_unit_interval", |rng| {
        let class = arb_class(rng);
        let alpha = rng.gen_range(1usize..50);
        let gamma = rng.gen_range(1u32..100);
        let me = NodeId::new(999);
        let mut estimator = RatioEstimator::new(class, alpha, gamma);
        for _ in 0..rng.gen_range(0usize..200) {
            let sender = arb_class(rng);
            estimator.record_request(sender);
        }
        let record_count = rng.gen_range(0usize..64);
        let records: Vec<EstimateRecord> = (0..record_count)
            .map(|_| {
                EstimateRecord::with_age(
                    NodeId::new(rng.gen_range(0u64..32)),
                    rng.gen_range(0.0f64..1.0),
                    rng.gen_range(0u32..150),
                )
            })
            .collect();
        estimator.ingest(&records, me);
        for _ in 0..rng.gen_range(1usize..30) {
            estimator.advance_round();
        }
        if let Some(estimate) = estimator.estimate() {
            assert!(
                (0.0..=1.0).contains(&estimate),
                "estimate out of range: {estimate}"
            );
        }
        if let Some(local) = estimator.local_estimate() {
            assert!(
                class.is_public(),
                "private nodes never have a local estimate"
            );
            assert!((0.0..=1.0).contains(&local));
        }
        // Cached records all respect the gamma window after aging.
        assert!(estimator.cached_count() <= 64);
    });
}

/// Sampling always returns a member of one of the two views (or nothing when both are
/// empty), whatever the estimated ratio.
#[test]
fn sampler_returns_members_of_the_views() {
    for_each_case("sampler_membership", |rng| {
        let mut public_view = View::new(10);
        for _ in 0..rng.gen_range(0usize..10) {
            let id = rng.gen_range(0u64..500);
            public_view.insert(Descriptor::new(NodeId::new(id), NatClass::Public));
        }
        let mut private_view = View::new(10);
        for _ in 0..rng.gen_range(0usize..10) {
            let id = rng.gen_range(500u64..1000);
            private_view.insert(Descriptor::new(NodeId::new(id), NatClass::Private));
        }
        let ratio = if rng.gen_bool(0.5) {
            Some(rng.gen_range(0.0f64..1.0))
        } else {
            None
        };
        let mut draw_rng = SmallRng::seed_from_u64(rng.gen::<u64>());
        match sample_from_views(&public_view, &private_view, ratio, &mut draw_rng) {
            Some(sample) => {
                assert!(
                    public_view.contains(sample) || private_view.contains(sample),
                    "sample {sample} is not a member of either view"
                );
            }
            None => {
                assert!(public_view.is_empty() && private_view.is_empty());
            }
        }
    });
}

/// A NAT gateway only admits inbound traffic that a real NAT with the same filtering
/// policy would admit: there must be a non-expired outbound binding, and for
/// port-dependent filtering it must point at the exact sender.
#[test]
fn gateway_admission_requires_a_matching_binding() {
    let policies = [
        FilteringPolicy::EndpointIndependent,
        FilteringPolicy::AddressDependent,
        FilteringPolicy::AddressAndPortDependent,
    ];
    for_each_case("gateway_admission", |rng| {
        let policy = policies[rng.gen_range(0..policies.len())];
        let timeout_secs = rng.gen_range(1u64..120);
        let mut outbound: Vec<(u64, u64)> = (0..rng.gen_range(0usize..30))
            .map(|_| (rng.gen_range(0u64..8), rng.gen_range(0u64..600)))
            .collect();
        let probe_peer = rng.gen_range(0u64..8);
        let probe_at = rng.gen_range(0u64..700);
        // The probe is the gateway's present: packets stamped after it are not sent yet.
        // (The ones before it arrive in any order; a full list drops what has expired at
        // the time of the packet that would grow it, which only a probe from an earlier
        // time could tell.)
        outbound.retain(|&(_, at)| at <= probe_at);

        let mut internal = HostBindings::default();
        let gateway = NatGateway::new(
            Ip::public(1),
            NatGatewayConfig::with_filtering(policy)
                .mapping_timeout(SimDuration::from_secs(timeout_secs)),
        );
        for (peer, at) in &outbound {
            gateway.record_outbound(
                &mut internal,
                NodeId::new(*peer),
                Ip::public(*peer as u32 + 10),
                SimTime::from_secs(*at),
            );
        }
        let now = SimTime::from_secs(probe_at);
        let sender = NodeId::new(probe_peer);
        let sender_ip = Ip::public(probe_peer as u32 + 10);
        let accepted = gateway.accepts_inbound(&internal, sender, sender_ip, now);

        let fresh = |peer: u64| {
            outbound
                .iter()
                .filter(|(p, _)| *p == peer)
                .map(|(_, at)| *at)
                .max()
                .map(|last| probe_at.saturating_sub(last) <= timeout_secs)
                .unwrap_or(false)
        };
        let expected = match policy {
            FilteringPolicy::EndpointIndependent => (0u64..8).any(fresh),
            // Address-dependent and port-dependent collapse to the same condition here
            // because the emulation assigns one address per peer.
            FilteringPolicy::AddressDependent | FilteringPolicy::AddressAndPortDependent => {
                fresh(probe_peer)
            }
            // `FilteringPolicy` is non-exhaustive; the strategy above only generates the
            // three RFC 4787 policies.
            _ => unreachable!("unknown filtering policy generated"),
        };
        assert_eq!(
            accepted, expected,
            "policy {policy} disagreed with the model"
        );
    });
}

/// Generates an arbitrary overlay snapshot: possibly empty, with isolated nodes, dangling
/// edges to unobserved (departed) ids, duplicate directed edges and self-loops.
fn arb_snapshot(rng: &mut SmallRng) -> OverlaySnapshot {
    arb_snapshot_of(rng, 0..60)
}

/// [`arb_snapshot`] with a node count drawn from `nodes`.
fn arb_snapshot_of(rng: &mut SmallRng, nodes: std::ops::Range<usize>) -> OverlaySnapshot {
    let n = rng.gen_range(nodes);
    let mut ids: Vec<u64> = (0..n as u64 * 2).collect();
    // Non-contiguous ids: keep a random half of a larger id range.
    for i in (1..ids.len()).rev() {
        let j = rng.gen_range(0..=i);
        ids.swap(i, j);
    }
    ids.truncate(n);
    ids.sort_unstable();
    let nodes: Vec<NodeObservation> = ids
        .iter()
        .map(|id| NodeObservation {
            id: NodeId::new(*id),
            class: if rng.gen_bool(0.2) {
                NatClass::Public
            } else {
                NatClass::Private
            },
            ratio_estimate: None,
            rounds_executed: 5,
        })
        .collect();
    let edge_count = rng.gen_range(0usize..(4 * n.max(1)));
    let edges: Vec<(NodeId, NodeId)> = (0..edge_count)
        .map(|_| {
            // Mostly live endpoints, sometimes dangling ids, sometimes self-loops.
            let pick = |rng: &mut SmallRng| {
                if ids.is_empty() || rng.gen_bool(0.15) {
                    NodeId::new(rng.gen_range(0u64..150))
                } else {
                    NodeId::new(ids[rng.gen_range(0..ids.len())])
                }
            };
            let a = pick(rng);
            let b = if rng.gen_bool(0.05) { a } else { pick(rng) };
            (a, b)
        })
        .collect();
    OverlaySnapshot::from_parts(nodes, edges)
}

/// Parallel multi-source BFS returns bit-identical results for every worker-thread count,
/// and consumes the metric RNG identically (so downstream samples cannot diverge either).
#[test]
fn parallel_multi_source_bfs_matches_single_threaded() {
    for_each_case("parallel_bfs_determinism", |rng| {
        let snapshot = arb_snapshot(rng);
        let sources = rng.gen_range(1usize..30);
        let draw_seed = rng.gen::<u64>();
        let run = |threads: usize| {
            let mut ctx = MetricsContext::new(threads);
            ctx.build(&snapshot);
            let mut draw = SmallRng::seed_from_u64(draw_seed);
            let apl = ctx.average_path_length(sources, &mut draw);
            (apl.map(f64::to_bits), draw.gen::<u64>())
        };
        let sequential = run(1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(
                sequential,
                run(threads),
                "threads={threads} diverged from the single-threaded reference"
            );
        }
    });
}

/// `View::random_subset` (the in-place partial Fisher–Yates) always returns distinct
/// members of the view, never mutates membership or ages, and honours the count bound, for
/// every count a `DescriptorBatch` can hold.
#[test]
fn random_subset_is_a_distinct_membership_preserving_sample() {
    for_each_case("random_subset_partial_fisher_yates", |rng| {
        let capacity = rng.gen_range(1usize..24);
        let mut view = View::new(capacity);
        for _ in 0..rng.gen_range(0usize..32) {
            view.insert(arb_descriptor(rng));
        }
        let mut before: Vec<Descriptor> = view.iter().copied().collect();
        let count = rng.gen_range(0..=DESCRIPTOR_INLINE_CAPACITY);
        let subset = view.random_subset(count, rng);
        assert_eq!(subset.len(), count.min(before.len()));
        let mut nodes: Vec<NodeId> = subset.iter().map(|d| d.node()).collect();
        nodes.sort();
        nodes.dedup();
        assert_eq!(nodes.len(), subset.len(), "subset contains duplicates");
        for d in &subset {
            assert_eq!(view.get(d.node()), Some(d), "subset entry not in the view");
        }
        let mut after: Vec<Descriptor> = view.iter().copied().collect();
        before.sort_by_key(|d| d.node());
        after.sort_by_key(|d| d.node());
        assert_eq!(before, after, "selection must only reorder the view");
    });
}

/// Simulated time arithmetic never panics and preserves ordering.
#[test]
fn sim_time_arithmetic_is_monotonic() {
    for_each_case("sim_time_monotonic", |rng| {
        let start = rng.gen_range(0u64..1_000_000);
        let mut t = SimTime::from_millis(start);
        let mut previous = t;
        for _ in 0..rng.gen_range(0usize..50) {
            let d = rng.gen_range(0u64..10_000);
            t += SimDuration::from_millis(d);
            assert!(t >= previous);
            assert_eq!(t - previous, SimDuration::from_millis(d));
            previous = t;
        }
    });
}

/// The union-find connectivity tracker produces bit-identical largest component
/// fractions to the CSR + BFS pipeline on every capture of a live, churning simulation.
/// (A live overlay never presents a removal-free delta; the additions-only shortcut is
/// pinned deterministically by `incremental.rs`'s unit tests.)
#[test]
fn incremental_components_equal_csr_under_membership_and_edge_churn() {
    use croupier_suite::croupier::{CroupierConfig, CroupierNode};
    use croupier_suite::metrics::IncrementalComponents;
    use croupier_suite::simulator::{Simulation, SimulationConfig, SimulationEngine};

    fn add(sim: &mut Simulation<CroupierNode>, alive: &mut Vec<NodeId>, id: u64, class: NatClass) {
        let id = NodeId::new(id);
        if class.is_public() {
            sim.register_public(id);
        }
        sim.add_node(id, CroupierNode::new(id, class, CroupierConfig::default()));
        alive.push(id);
    }

    let mut rebuilds = 0;
    for seed in 0..10u64 {
        let mut rng = SmallRng::seed_from_u64(0xC0_FFEE ^ seed);
        let mut sim: Simulation<CroupierNode> = Simulation::from_config(
            SimulationConfig::default()
                .with_seed(seed)
                .with_round_period(SimDuration::from_secs(1)),
        );
        let mut alive = Vec::new();
        let mut next_id = 0u64;
        for _ in 0..24 {
            let class = if next_id.is_multiple_of(4) {
                NatClass::Public
            } else {
                NatClass::Private
            };
            add(&mut sim, &mut alive, next_id, class);
            next_id += 1;
        }
        let mut snapshot = OverlaySnapshot::default();
        snapshot.enable_delta_tracking();
        let mut incremental = IncrementalComponents::new();
        let mut context = MetricsContext::new(1);
        for round in 1..=30u64 {
            sim.run_until(SimTime::from_secs(round));
            // Membership churn in some rounds, pure view turnover in the others.
            if rng.gen_bool(0.2) && alive.len() > 8 {
                let victim = alive.swap_remove(rng.gen_range(0..alive.len()));
                sim.remove_node(victim);
            }
            if rng.gen_bool(0.15) {
                add(&mut sim, &mut alive, next_id, arb_class(&mut rng));
                next_id += 1;
            }
            snapshot.capture_into(&sim, 2);
            incremental.update(&snapshot);
            context.build(&snapshot);
            assert_eq!(
                incremental.largest_component_fraction().to_bits(),
                context.largest_component_fraction().to_bits(),
                "seed {seed} round {round}: incremental and CSR disagree"
            );
        }
        rebuilds += incremental.rebuild_count();
    }
    assert!(
        rebuilds > 10,
        "membership churn must force rebuilds beyond the initial one per seed"
    );
}

/// Across the scripted NAT-dynamics timelines the driver's incremental in-degree path
/// reports bit-identical per-sample Gini coefficients to the full-recount path — the
/// fallback a run without `incremental_indegree` takes inside the same graph-metrics
/// pipeline.
#[test]
fn incremental_indegree_matches_full_recount_across_scenario_scripts() {
    use croupier_suite::croupier::{CroupierConfig, CroupierNode};
    use croupier_suite::experiments::runner::{run_pss, ExperimentParams};
    use croupier_suite::experiments::scenario::ScenarioScript;

    let scripts = [
        ("reboot_storm", ScenarioScript::reboot_storm(40)),
        ("mobility_wave", ScenarioScript::mobility_wave(40)),
        ("regional_outage", ScenarioScript::regional_outage(40)),
    ];
    for (name, script) in scripts {
        let base = ExperimentParams::default()
            .with_seed(0x5CEA0)
            .with_population(40, 160)
            .with_rounds(40)
            .with_sample_every(4)
            .with_graph_metrics(8)
            .with_scenario(script);
        let full = run_pss(&base.clone(), |id, class| {
            CroupierNode::new(id, class, CroupierConfig::default())
        });
        let incremental = run_pss(&base.with_incremental_indegree(), |id, class| {
            CroupierNode::new(id, class, CroupierConfig::default())
        });
        assert_eq!(
            full.samples.len(),
            incremental.samples.len(),
            "{name}: sampling cadence must not depend on the in-degree path"
        );
        for (a, b) in full.samples.iter().zip(&incremental.samples) {
            assert_eq!(a.round, b.round);
            assert_eq!(
                a.indegree_gini.map(f64::to_bits),
                b.indegree_gini.map(f64::to_bits),
                "{name} round {}: full and incremental Gini diverged",
                a.round
            );
        }
        let (r, f) = incremental
            .incremental_indegree_updates
            .expect("diagnostics reported");
        assert_eq!(
            r + f,
            incremental.samples.len() as u64,
            "{name}: every sample is either a rebuild or a fast update"
        );
    }
}

/// Sweeping independent datagram loss from 0 % to 30 % degrades croupier's overlay
/// monotonically (within a small tolerance for sampling noise): injected drops strictly
/// increase with the loss rate, and the final largest-component fraction never
/// *improves* as the network gets worse. With the timeout/retry hardening the overlay
/// must also stay usable at the top of the sweep.
#[test]
fn croupier_convergence_degrades_monotonically_with_loss() {
    use croupier_suite::croupier::{CroupierConfig, CroupierNode};
    use croupier_suite::experiments::runner::{run_pss, ExperimentParams};
    use croupier_suite::experiments::scenario::{FaultEvent, ScenarioScript};
    use croupier_suite::simulator::FaultProfile;

    let sweep = [0.0f64, 0.1, 0.2, 0.3];
    let mut drops = Vec::new();
    let mut components = Vec::new();
    for &loss in &sweep {
        // Loss from round 1, never cleared: the final sample observes the overlay while
        // the network is still degraded, not after a recovery window.
        let script = ScenarioScript::new("loss_sweep").fault_at(
            1,
            FaultEvent::FaultProfileChange {
                profile: FaultProfile::lossy(loss),
            },
        );
        let params = ExperimentParams::default()
            .with_seed(0x10_55)
            .with_population(10, 30)
            .with_rounds(40)
            .with_sample_every(5)
            .with_graph_metrics(8)
            .with_scenario(script);
        let out = run_pss(&params, |id, class| {
            CroupierNode::new(id, class, CroupierConfig::default())
        });
        drops.push(out.fault_report.injected_drops);
        components.push(out.last_sample().unwrap().largest_component.unwrap());
    }
    for (i, pair) in drops.windows(2).enumerate() {
        assert!(
            pair[0] < pair[1],
            "injected drops must increase with the loss rate: {:?} at steps {i},{}",
            drops,
            i + 1
        );
    }
    assert_eq!(drops[0], 0, "a 0% profile must inject nothing");
    for (i, pair) in components.windows(2).enumerate() {
        assert!(
            pair[1] <= pair[0] + 0.05,
            "connectivity must not improve as loss rises: {components:?} at steps {i},{}",
            i + 1
        );
    }
    assert!(
        components[sweep.len() - 1] >= 0.9,
        "retry hardening should keep the overlay usable at 30% loss, got {components:?}"
    );
}
