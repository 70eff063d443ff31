//! The node-order contract snapshot capture builds on: `SimulationEngine::for_each_node`
//! visits nodes in strictly ascending id order on both engines and every sharded worker
//! count, churn holes included, so `OverlaySnapshot::capture_into` can sort each node's
//! row as it lands and skip the global sorts. A capture must equal the same nodes and
//! edges sorted in full.

use croupier_suite::baselines::{BaselineConfig, CyclonNode};
use croupier_suite::metrics::{NodeObservation, OverlaySnapshot};
use croupier_suite::simulator::{
    NodeId, PssNode, ShardedSimulation, Simulation, SimulationConfig, SimulationEngine,
};

const NODES: u64 = 60;

fn add<E: SimulationEngine<CyclonNode>>(sim: &mut E, id: u64) {
    let id = NodeId::new(id);
    sim.register_public(id);
    sim.add_node(id, CyclonNode::new(id, BaselineConfig));
}

/// Runs a gossiping population through churn that leaves holes in every stripe (and
/// past them, new ids), checking the visit order after each step.
fn churn_and_check<E: SimulationEngine<CyclonNode>>(mut sim: E, label: &str) {
    for i in 0..NODES {
        add(&mut sim, i);
    }
    sim.run_for_rounds(4);
    check_order(&sim, label);
    for i in (0..NODES).step_by(7) {
        sim.remove_node(NodeId::new(i));
    }
    sim.remove_node(NodeId::new(NODES - 1));
    check_order(&sim, label);
    for i in NODES + 3..NODES + 11 {
        add(&mut sim, i);
    }
    sim.run_for_rounds(3);
    check_order(&sim, label);
    check_capture(&sim, label);
}

fn check_order<E: SimulationEngine<CyclonNode>>(sim: &E, label: &str) {
    let mut visited = Vec::new();
    sim.for_each_node(&mut |id, _| visited.push(id));
    assert!(
        visited.windows(2).all(|w| w[0] < w[1]),
        "{label}: for_each_node must visit ids in strictly ascending order: {visited:?}"
    );
    assert_eq!(visited.len(), sim.len(), "{label}: every live node once");
}

/// A capture equals `from_parts` of the same nodes and edges sorted in full, and the
/// fallback sort reproduces it from parts handed in reversed.
fn check_capture<E: SimulationEngine<CyclonNode>>(sim: &E, label: &str) {
    let (mut nodes, mut edges) = (Vec::new(), Vec::new());
    sim.for_each_node(&mut |id, proto| {
        nodes.push(NodeObservation {
            id,
            class: proto.nat_class(),
            ratio_estimate: proto.ratio_estimate(),
            rounds_executed: proto.rounds_executed(),
        });
        proto.for_each_known_peer(&mut |peer| edges.push((id, peer)));
    });
    nodes.sort_unstable_by_key(|n| n.id);
    edges.sort_unstable();
    let expected = OverlaySnapshot::from_parts(nodes.clone(), edges.clone());
    let captured = OverlaySnapshot::capture(sim, 0);
    assert!(
        captured.edge_count() > NODES as usize,
        "{label}: views filled"
    );
    assert_eq!(captured, expected, "{label}");
    for (i, (got, want)) in captured.edges.iter().zip(&expected.edges).enumerate() {
        assert_eq!(got, want, "{label}: edge {i}");
    }
    nodes.reverse();
    edges.reverse();
    let mut unsorted = OverlaySnapshot::default();
    unsorted.replace_from_parts(nodes, edges);
    assert_eq!(
        unsorted, captured,
        "{label}: reversed parts are sorted back"
    );
}

#[test]
fn event_engine_visits_nodes_in_ascending_id_order() {
    let sim = Simulation::new(SimulationConfig::default().with_seed(0x0DE));
    churn_and_check(sim, "event engine");
}

#[test]
fn sharded_engine_visits_nodes_in_ascending_id_order_at_every_worker_count() {
    for threads in 1..=3 {
        let cfg = SimulationConfig::default()
            .with_seed(0x0DE)
            .with_engine_threads(threads);
        churn_and_check(
            ShardedSimulation::new(cfg),
            &format!("sharded, {threads} workers"),
        );
    }
}
