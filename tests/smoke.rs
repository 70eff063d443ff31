//! Fast end-to-end guardrail: a tiny 64-node Croupier simulation must produce a fully
//! connected overlay with working ratio estimation. Runs in well under a second, so it
//! catches wiring regressions (engine ↔ protocol ↔ NAT emulation ↔ metrics) long before
//! the heavy paper-claims suites get a chance to.

use croupier_suite::croupier::{CroupierConfig, CroupierNode};
use croupier_suite::metrics::{largest_component_fraction, OverlaySnapshot};
use croupier_suite::nat::NatTopologyBuilder;
use croupier_suite::simulator::SimulationEngine;
use croupier_suite::simulator::{NatClass, NodeId, PssNode, Simulation, SimulationConfig};

const N_PUBLIC: u64 = 13;
const N_PRIVATE: u64 = 51;
const ROUNDS: u64 = 40;

fn run_small_croupier() -> Simulation<CroupierNode> {
    let topology = NatTopologyBuilder::new(64).build();
    let mut sim = Simulation::new(SimulationConfig::default().with_seed(64));
    sim.set_delivery_filter(topology.clone());
    for i in 0..(N_PUBLIC + N_PRIVATE) {
        let id = NodeId::new(i);
        let class = if i < N_PUBLIC {
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
    sim.run_for_rounds(ROUNDS);
    sim
}

#[test]
fn tiny_croupier_simulation_produces_a_connected_overlay() {
    let sim = run_small_croupier();

    // The engine actually moved traffic through the NAT emulation.
    let stats = sim.network_stats();
    assert!(stats.delivered > 0, "no messages were delivered");

    // Every node executed rounds and filled its views.
    for (id, node) in sim.nodes() {
        assert!(node.rounds_executed() > 0, "node {id} never ran a round");
        assert!(
            !node.known_peers().is_empty(),
            "node {id} has an empty view"
        );
    }

    // The overlay built from every partial view is a single connected component.
    let snapshot = OverlaySnapshot::capture(&sim, 1);
    assert_eq!(snapshot.node_count() as u64, N_PUBLIC + N_PRIVATE);
    let connected = largest_component_fraction(&snapshot);
    assert!(
        (connected - 1.0).abs() < 1e-9,
        "overlay must be fully connected, got fraction {connected}"
    );
}

#[test]
fn tiny_croupier_simulation_estimates_the_ratio_and_samples_peers() {
    let mut sim = run_small_croupier();
    let true_ratio = N_PUBLIC as f64 / (N_PUBLIC + N_PRIVATE) as f64;

    // Every node converged to a sane public/private-ratio estimate.
    for (id, node) in sim.nodes() {
        let estimate = node
            .ratio_estimate()
            .unwrap_or_else(|| panic!("node {id} has no ratio estimate"));
        assert!(
            (estimate - true_ratio).abs() < 0.15,
            "node {id} estimate {estimate:.3} is far from the true ratio {true_ratio:.3}"
        );
    }

    // Peer sampling works from an arbitrary private node.
    let witness = NodeId::new(N_PUBLIC + 1);
    let mut drawn = std::collections::HashSet::new();
    for _ in 0..20 {
        if let Some(sample) = sim.sample_from(witness) {
            assert_ne!(sample, witness, "a node must not sample itself");
            drawn.insert(sample);
        }
    }
    assert!(
        drawn.len() >= 3,
        "twenty draws should hit several distinct peers, got {drawn:?}"
    );
}
