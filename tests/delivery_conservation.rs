//! Every message handed to the network ends in exactly one counter, on both engines.
//!
//! The delivery plane (`crates/simulator/src/delivery.rs`) and the engines' executors
//! split the accounting between them: the plane counts `lost`, `blocked_by_nat` and the
//! filter's `NoSuchDestination`, the executor counts `delivered` and destinations that
//! died in flight. This test drives all of those outcomes at once — a fault profile
//! (drops, reordering spikes, corruption; no duplication, which would deliver one send
//! twice), a `NatTopology` filter and nodes removed mid-run — then lets the network drain
//! and checks that nothing was counted twice or not at all.

use croupier_nat::NatTopologyBuilder;
use croupier_simulator::{
    Context, FaultPlane, FaultProfile, NatClass, NodeId, Protocol, Seed, ShardedSimulation,
    SimDuration, Simulation, SimulationConfig, SimulationEngine, WireSize,
};
use rand::Rng;

const NODES: u64 = 60;
const PRIVATE: u64 = 40;
const TALK_ROUNDS: u64 = 20;

#[derive(Clone, Debug)]
enum Chat {
    Ping,
    Pong,
}

impl WireSize for Chat {
    fn wire_size(&self) -> usize {
        32
    }
}

/// Pings a bootstrap (public) peer and a uniformly random id — often private, sometimes
/// removed — every round until it falls silent after [`TALK_ROUNDS`]; answers pings.
struct Chatter {
    rounds: u64,
}

impl Protocol for Chatter {
    type Message = Chat;

    fn on_start(&mut self, _ctx: &mut Context<'_, Chat>) {}

    fn on_round(&mut self, ctx: &mut Context<'_, Chat>) {
        self.rounds += 1;
        if self.rounds > TALK_ROUNDS {
            return;
        }
        if let Some(peer) = ctx.bootstrap_sample(1).first().copied() {
            ctx.send(peer, Chat::Ping);
        }
        let anyone = NodeId::new(ctx.rng().gen_range(0..NODES));
        ctx.send(anyone, Chat::Ping);
    }

    fn on_message(&mut self, from: NodeId, msg: Chat, ctx: &mut Context<'_, Chat>) {
        if matches!(msg, Chat::Ping) {
            ctx.send(from, Chat::Pong);
        }
    }
}

fn assert_every_message_is_accounted_once<E: SimulationEngine<Chatter>>(threads: usize) {
    let topology = NatTopologyBuilder::new(11).build();
    let plane = FaultPlane::new(Seed::new(11));
    plane.set_default_profile(
        FaultProfile::lossy(0.1)
            .with_reorder(0.3, SimDuration::from_millis(1_500))
            .with_corrupt(0.2),
    );
    let mut sim = E::from_config(
        SimulationConfig::default()
            .with_seed(11)
            .with_engine_threads(threads),
    );
    sim.set_delivery_filter(topology.clone());
    sim.set_fault_plane(plane);
    for i in 0..NODES {
        let (id, private) = (NodeId::new(i), i < PRIVATE);
        let class = if private {
            NatClass::Private
        } else {
            NatClass::Public
        };
        topology.add_node(id, class);
        if !private {
            sim.register_public(id);
        }
        sim.add_node(id, Chatter { rounds: 0 });
    }
    sim.run_for_rounds(TALK_ROUNDS / 2);
    // One private, one public, with traffic to both in flight.
    for gone in [3, NODES - 1] {
        assert!(sim.remove_node(NodeId::new(gone)).is_some());
    }
    // The rest of the talking, then quiet rounds: a pong leaves at most one round (plus
    // the sharded engine's barrier clamp) after the last ping and a reordering spike
    // holds it back for at most 1.5 more.
    sim.run_for_rounds(TALK_ROUNDS / 2 + 8);

    let stats = sim.network_stats();
    for (outcome, count) in [
        ("delivered", stats.delivered),
        ("lost", stats.lost),
        ("blocked_by_nat", stats.blocked_by_nat),
        ("destination_gone", stats.destination_gone),
    ] {
        assert!(count > 0, "the run must exercise `{outcome}`");
    }
    let report = sim.fault_report();
    assert!(report.injected_drops > 0 && report.reorders > 0 && report.corruptions > 0);
    assert_eq!(report.duplicates, 0);

    let ledger = sim.traffic_snapshot();
    assert_eq!(
        ledger.total_messages_sent(),
        stats.total(),
        "every send ends in exactly one NetworkStats counter: {stats:?}"
    );
    let (mut sent, mut received, mut dropped) = (0, 0, 0);
    for (_, node) in ledger.iter() {
        sent += node.messages_sent;
        received += node.messages_received;
        dropped += node.messages_dropped;
    }
    assert_eq!(
        sent,
        received + dropped,
        "ledger: sent = received + dropped"
    );
    assert_eq!(received, stats.delivered);
    assert_eq!(dropped, stats.total() - stats.delivered);
}

#[test]
fn the_event_engine_accounts_every_message_once() {
    assert_every_message_is_accounted_once::<Simulation<Chatter>>(0);
}

#[test]
fn the_sharded_engine_accounts_every_message_once() {
    for threads in [1, 3] {
        assert_every_message_is_accounted_once::<ShardedSimulation<Chatter>>(threads);
    }
}
