//! Seeded fuzz smoke: every protocol survives a hostile message plane.
//!
//! Two layers, both plain seeded `#[test]`s (the offline build has no coverage-guided
//! fuzzer, and none is needed for a smoke tier):
//!
//! 1. **Mutation storm** — hundreds of composed `WireSize::fault_mutate` rounds against
//!    real in-flight messages harvested from each protocol's own send path, checking the
//!    typed-channel damage model keeps messages structurally valid (`wire_size` never
//!    panics or explodes).
//! 2. **End-to-end corruption runs** — full experiment runs for all four protocols under
//!    a fault profile that corrupts *every* datagram while also dropping, duplicating
//!    and reordering; the receive paths must absorb arbitrary mutated payloads without
//!    panicking and the run must still produce a populated overlay.

use croupier_suite::baselines::{BaselineConfig, CyclonNode, GozarNode, NylonNode};
use croupier_suite::croupier::{CroupierConfig, CroupierNode};
use croupier_suite::experiments::protocols::{run_kind, ProtocolConfigs, ProtocolKind};
use croupier_suite::experiments::runner::ExperimentParams;
use croupier_suite::experiments::scenario::{FaultEvent, ScenarioScript};
use croupier_suite::simulator::{
    BootstrapRegistry, Context, ContextParams, FaultProfile, NatClass, NodeId, Protocol,
    SimDuration, SimTime, WireSize,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The profile for the end-to-end runs: every surviving datagram is corrupted, and the
/// plane also drops, duplicates and reorders — the harshest combination the scenario
/// vocabulary can express.
fn hostile_profile() -> FaultProfile {
    FaultProfile::default()
        .with_corrupt(1.0)
        .with_drop(0.2)
        .with_duplicate(0.3)
        .with_reorder(0.3, SimDuration::from_millis(2_000))
}

#[test]
fn all_protocols_survive_a_fully_corrupting_network() {
    let configs = ProtocolConfigs::default();
    for kind in ProtocolKind::ALL {
        for seed in [1u64, 0xF00D, 0xDEAD_BEEF] {
            let script = ScenarioScript::new("fuzz_smoke").fault_at(
                1,
                FaultEvent::FaultProfileChange {
                    profile: hostile_profile(),
                },
            );
            let params = ExperimentParams::default()
                .with_seed(seed)
                .with_population(8, if kind == ProtocolKind::Cyclon { 0 } else { 24 })
                .with_rounds(30)
                .with_sample_every(10)
                .with_scenario(script);
            let out = run_kind(kind, &params, &configs);
            assert!(
                out.fault_report.corruptions > 0,
                "{kind} seed {seed:#x}: the run must actually corrupt messages"
            );
            assert!(
                out.last_sample().is_some_and(|s| s.node_count > 0),
                "{kind} seed {seed:#x}: the run must end with live nodes"
            );
        }
    }
}

/// Runs a freshly bootstrapped `node` for one start + one round against a scratch
/// context and returns every message it tried to send.
fn harvest<P: Protocol>(mut node: P, seed: u64) -> Vec<P::Message> {
    let mut bootstrap = BootstrapRegistry::new();
    for i in 1..=5u64 {
        bootstrap.register(NodeId::new(i));
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ctx = Context::new(ContextParams {
        node: NodeId::new(0),
        now: SimTime::ZERO,
        round_period: SimDuration::from_secs(1),
        reply_horizon: SimDuration::ZERO,
        rng: &mut rng,
        bootstrap: &bootstrap,
    });
    node.on_start(&mut ctx);
    node.on_round(&mut ctx);
    let (outbox, _) = ctx.into_effects();
    outbox.into_iter().map(|out| out.msg).collect()
}

/// Drives `fault_mutate` directly and far harder than any run would: each harvested
/// message is mutated hundreds of times *in sequence* (mutations compose — a truncated
/// list gets scrambled, a scrambled descriptor gets truncated away), and after every
/// step the message must still size itself sanely.
fn storm<M: WireSize>(label: &str, rng: &mut SmallRng, mut msg: M) {
    for step in 0..400 {
        msg.fault_mutate(rng);
        let size = msg.wire_size();
        assert!(size > 0, "{label} step {step}: wire size vanished");
        // A mutation must never grow a message past the UDP payload a real deployment
        // would carry (the paper's messages are all sub-KB).
        assert!(
            size < 65_536,
            "{label} step {step}: wire size {size} exploded"
        );
    }
}

#[test]
fn repeated_mutation_keeps_messages_structurally_valid() {
    let mut rng = SmallRng::seed_from_u64(0xF022);
    let mut harvested = 0usize;
    for _ in 0..25 {
        let seed = rng.gen();
        for msg in harvest(
            CroupierNode::new(NodeId::new(0), NatClass::Private, CroupierConfig::default()),
            seed,
        ) {
            harvested += 1;
            storm("croupier", &mut rng, msg);
        }
        for msg in harvest(
            CyclonNode::new(NodeId::new(0), BaselineConfig::default()),
            seed,
        ) {
            harvested += 1;
            storm("cyclon", &mut rng, msg);
        }
        for msg in harvest(
            GozarNode::new(NodeId::new(0), NatClass::Private, BaselineConfig::default()),
            seed,
        ) {
            harvested += 1;
            storm("gozar", &mut rng, msg);
        }
        for msg in harvest(
            NylonNode::new(NodeId::new(0), NatClass::Private, BaselineConfig::default()),
            seed,
        ) {
            harvested += 1;
            storm("nylon", &mut rng, msg);
        }
    }
    assert!(
        harvested >= 50,
        "the harness must exercise real messages, got {harvested}"
    );
}
