//! Allocation-count instrumentation for the message plane.
//!
//! A counting global allocator (thread-local, so concurrently running tests cannot
//! pollute each other's counters) proves the PR 4 claim end-to-end: once a deployment
//! reaches steady state, executing a full gossip round — payload construction, event
//! scheduling through the time-wheel, outbox/mailbox routing, the barrier merge, traffic
//! accounting — performs **zero heap allocations** on either engine.
//!
//! Two measurement regimes:
//!
//! * The *exact-zero* tests disable clock-skew jitter and use a constant latency, which
//!   makes the event timeline periodic: after the warm-up the event store, every context
//!   buffer and cache has seen its worst-case load, so the assertion can be `== 0`
//!   forever. Randomised latency/jitter would keep producing occasional new in-flight
//!   peaks — amortised-O(1) pool growth, not per-event allocation — which the
//!   *amortised-tail* test pins separately under the realistic King + jitter
//!   configuration with a small bound.
//! * All runs but one use the open-Internet delivery filter: NAT emulation keeps per-flow
//!   binding state whose churn is protocol-level bookkeeping, not message-plane work. The
//!   exception installs a `NatTopology` of public nodes only — no gateway, so no binding
//!   — which leaves exactly the barrier's batch scratch (links, verdicts, the topology's
//!   resolved operations) to be caught if a round fails to recycle it.
//! * All runs use `engine_threads = 1`: the counter is a thread-local `Cell`, so it can
//!   only observe the measuring thread, and the single-worker sharded path runs inline on
//!   it. The multi-worker path executes the *same* `Shard::execute`/barrier code on scoped
//!   workers, so the per-shard pools are covered by these assertions; a worker-side
//!   counter would be needed to pin thread-spawn overhead itself, which is not part of
//!   the message plane.
//!
//! Everything is seeded, so each assertion is exactly reproducible.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use croupier::{CroupierConfig, CroupierNode};
use croupier_simulator::event::Event;
use croupier_simulator::latency::ConstantLatency;
use croupier_simulator::scheduler::EventQueue;
use croupier_simulator::SimulationEngine;
use croupier_simulator::{
    NatClass, NodeId, ShardedSimulation, SimDuration, SimTime, Simulation, SimulationConfig,
};

/// Delegates to the system allocator while counting allocations made by this thread.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: pure delegation to `System`; the counter is a thread-local `Cell` bump with a
// `try_with` guard for TLS teardown.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Number of heap allocations `f` performed on the calling thread.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

const NODES: u64 = 1_000;
/// One node in five is public, the paper's default ratio.
const PUBLIC_EVERY: u64 = 5;
/// Steady state for the periodic (jitter-free, constant-latency) configuration: past the
/// bootstrap transient, views full, the ratio-estimate caches at their γ-bounded working
/// set (γ = 50 rounds), and — because the timeline repeats with the wheel's 8-round
/// period — every bucket and buffer at its worst-case load.
const WARMUP_ROUNDS: u64 = 80;

fn class_of(i: u64) -> NatClass {
    if i.is_multiple_of(PUBLIC_EVERY) {
        NatClass::Public
    } else {
        NatClass::Private
    }
}

/// Jitter-free config: round times are pinned to each node's random phase, so the event
/// timeline (and with it every bucket's load) is periodic.
fn periodic_config(threads: usize) -> SimulationConfig {
    SimulationConfig::default()
        .with_seed(0xA110C)
        .with_round_jitter(0.0)
        .with_engine_threads(threads)
}

fn populate<E>(sim: &mut E)
where
    E: croupier_simulator::SimulationEngine<CroupierNode>,
{
    for i in 0..NODES {
        let id = NodeId::new(i);
        let class = class_of(i);
        if class.is_public() {
            sim.register_public(id);
        }
        sim.add_node(id, CroupierNode::new(id, class, CroupierConfig::default()));
    }
}

#[test]
fn sharded_engine_steady_state_round_allocates_nothing() {
    let mut sim = ShardedSimulation::new(periodic_config(1));
    sim.set_latency_model(ConstantLatency::new(SimDuration::from_millis(150)));
    populate(&mut sim);
    sim.run_for_rounds(WARMUP_ROUNDS);
    let delivered_before = sim.network_stats().delivered;

    let (allocs, ()) = allocations_during(|| sim.run_for_rounds(1));

    let delivered = sim.network_stats().delivered - delivered_before;
    assert!(
        delivered >= NODES,
        "the measured round must be a real round: only {delivered} deliveries"
    );
    assert_eq!(
        allocs, 0,
        "sharded message plane allocated {allocs} times during a steady-state round \
         ({delivered} deliveries)"
    );
}

#[test]
fn sharded_barrier_recycles_its_batch_scratch_under_a_nat_filter() {
    // The protocol keeps the usual class mix (and with it the other tests' periodic
    // timeline); the network behind it is all public.
    let topology = croupier_nat::NatTopologyBuilder::new(1).build();
    for i in 0..NODES {
        topology.add_public_node(NodeId::new(i));
    }
    let mut sim = ShardedSimulation::new(periodic_config(1));
    sim.set_latency_model(ConstantLatency::new(SimDuration::from_millis(150)));
    sim.set_delivery_filter(topology.clone());
    populate(&mut sim);
    sim.run_for_rounds(WARMUP_ROUNDS);
    let delivered_before = sim.network_stats().delivered;

    let (allocs, ()) = allocations_during(|| sim.run_for_rounds(1));

    let delivered = sim.network_stats().delivered - delivered_before;
    assert!(
        delivered >= NODES && topology.stats().blocked_messages == 0,
        "the measured round must be a real round: only {delivered} deliveries"
    );
    assert_eq!(
        allocs, 0,
        "the barrier allocated {allocs} times judging a steady-state round's batch"
    );
}

#[test]
fn event_engine_steady_state_round_allocates_nothing() {
    let mut sim = Simulation::new(periodic_config(1));
    sim.set_latency_model(ConstantLatency::new(SimDuration::from_millis(150)));
    populate(&mut sim);
    sim.run_for_rounds(WARMUP_ROUNDS);
    let delivered_before = sim.network_stats().delivered;

    let (allocs, ()) = allocations_during(|| sim.run_for_rounds(1));

    let delivered = sim.network_stats().delivered - delivered_before;
    assert!(
        delivered >= NODES,
        "the measured round must be a real round: only {delivered} deliveries"
    );
    assert_eq!(
        allocs, 0,
        "event-engine message plane allocated {allocs} times during a steady-state round \
         ({delivered} deliveries)"
    );
}

/// Under the realistic configuration (King latencies, clock-skew jitter) round times keep
/// drifting, so the count of events in flight occasionally sets a new record and a pool —
/// the scheduler's event store, a mailbox — doubles: amortised growth, not per-event work.
/// This pins the tail: across ten rounds with ~2 000 deliveries each, 6 allocations
/// measured (20 while every wheel bucket owned a buffer that grew on its own deepest
/// same-millisecond collision).
#[test]
fn realistic_config_allocation_tail_is_amortised() {
    let mut sim = ShardedSimulation::new(
        SimulationConfig::default()
            .with_seed(0xA110C)
            .with_engine_threads(1),
    );
    populate(&mut sim);
    sim.run_for_rounds(200);
    let (allocs, ()) = allocations_during(|| sim.run_for_rounds(10));
    assert!(
        allocs <= 8,
        "expected an amortised allocation tail (a few pool doublings), got {allocs} \
         allocations over ten rounds"
    );
}

/// Clocked schedule/pop churn over `[start, start + ticks)`: every tick schedules a burst
/// (size cycling through `BURSTS`) at mixed near-future delays, then pops everything due.
/// The whole pattern is a pure function of the tick, with period `lcm(8, 3) = 24` — and
/// 24-tick patterns revisit the same wheel buckets every three ring revolutions — so a
/// warm-up of a few revolutions provably exposes every bucket to its worst-case load and
/// the steady-state assertion can demand exactly zero.
fn churn(queue: &mut EventQueue<u64>, start: u64, ticks: u64) {
    const BURSTS: [u64; 8] = [1, 5, 2, 9, 3, 1, 7, 4];
    const DELAYS: [u64; 3] = [3, 250, 1_999];
    for t in start..start + ticks {
        let burst = BURSTS[(t % 8) as usize];
        for b in 0..burst {
            queue.schedule(
                SimTime::from_millis(t + DELAYS[((t + b) % 3) as usize]),
                Event::Deliver {
                    from: NodeId::new(t),
                    to: NodeId::new(b),
                    msg: t ^ b,
                },
            );
        }
        while queue.peek_time().is_some_and(|due| due.as_millis() <= t) {
            queue.pop();
        }
    }
}

#[test]
fn time_wheel_steady_state_churn_allocates_nothing() {
    let mut queue: EventQueue<u64> = EventQueue::new();
    // Warm-up: four full ring revolutions (the pattern's bucket alignments repeat every
    // three), sizing every bucket to its worst-case load.
    let warm_ticks = 4 * 8_000;
    churn(&mut queue, 0, warm_ticks);
    let (allocs, ()) = allocations_during(|| churn(&mut queue, warm_ticks, 8_000));
    assert_eq!(
        allocs, 0,
        "time-wheel allocated {allocs} times during steady-state schedule/pop churn"
    );
    assert!(queue.scheduled_total() >= 100_000);
    while queue.pop().is_some() {}
    assert!(queue.is_empty());
}
