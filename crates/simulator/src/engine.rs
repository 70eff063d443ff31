//! The discrete-event simulation engine.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::arena::NodeArena;
use crate::bootstrap::BootstrapRegistry;
use crate::delivery::Delivery;
use crate::engine_api::{HookOps, RoundHook, SimulationEngine};
use crate::event::Event;
use crate::faults::{FaultPlane, FaultReport};
use crate::latency::{KingLatencyModel, LatencyModel};
use crate::network::DeliveryFilter;
use crate::protocol::{
    Context, ContextParams, Outgoing, Protocol, PssNode, TimerRequest, WireSize,
};
use crate::rng::{Seed, Stream};
use crate::scheduler::EventQueue;
use crate::sharded::next_round_delay;
use crate::time::{SimDuration, SimTime};
use crate::traffic::TrafficLedger;
use crate::types::NodeId;

/// Configuration of a simulation run.
///
/// # Examples
///
/// ```
/// use croupier_simulator::{SimulationConfig, SimDuration};
///
/// let cfg = SimulationConfig::default()
///     .with_seed(1)
///     .with_round_period(SimDuration::from_secs(1))
///     .with_round_jitter(0.05);
/// assert_eq!(cfg.round_period, SimDuration::from_secs(1));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimulationConfig {
    /// Master seed for all random streams.
    pub seed: Seed,
    /// Gossip round period (the paper uses one second).
    pub round_period: SimDuration,
    /// Clock-skew modelled as a uniform fractional jitter applied to each node's round
    /// period (0.05 means each round fires within ±5 % of the nominal period).
    pub round_jitter: f64,
    /// Whether nodes start their first round at a random phase within one period of their
    /// join time (decorrelates rounds, as on a real deployment).
    pub random_phase: bool,
    /// Number of worker threads used by the sharded engine
    /// ([`ShardedSimulation`](crate::ShardedSimulation)); the event-driven engine ignores
    /// it. Values below one are treated as one.
    pub engine_threads: usize,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            seed: Seed::default(),
            round_period: SimDuration::from_secs(1),
            round_jitter: 0.02,
            random_phase: true,
            engine_threads: 1,
        }
    }
}

impl SimulationConfig {
    /// Replaces the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Seed::new(seed);
        self
    }

    /// Replaces the gossip round period.
    pub fn with_round_period(mut self, period: SimDuration) -> Self {
        self.round_period = period;
        self
    }

    /// Replaces the clock-skew jitter fraction.
    ///
    /// # Panics
    ///
    /// Panics if `jitter` is negative or not finite.
    pub fn with_round_jitter(mut self, jitter: f64) -> Self {
        assert!(
            jitter.is_finite() && jitter >= 0.0,
            "jitter must be a non-negative number"
        );
        self.round_jitter = jitter;
        self
    }

    /// Sets the number of worker threads for the sharded engine.
    pub fn with_engine_threads(mut self, threads: usize) -> Self {
        self.engine_threads = threads;
        self
    }
}

/// Counters describing what happened to the messages handed to the network.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Messages delivered to their destination.
    pub delivered: u64,
    /// Messages dropped by the fault plane.
    pub lost: u64,
    /// Messages filtered by a NAT or firewall.
    pub blocked_by_nat: u64,
    /// Messages whose destination had left the system.
    pub destination_gone: u64,
}

impl NetworkStats {
    /// Total number of messages handed to the network.
    pub fn total(&self) -> u64 {
        self.delivered + self.lost + self.blocked_by_nat + self.destination_gone
    }

    /// Adds the counters of `other` into this one; used to aggregate per-shard statistics.
    pub fn merge(&mut self, other: NetworkStats) {
        self.delivered += other.delivered;
        self.lost += other.lost;
        self.blocked_by_nat += other.blocked_by_nat;
        self.destination_gone += other.destination_gone;
    }
}

struct NodeSlot<P> {
    id: NodeId,
    proto: P,
    rng: SmallRng,
}

/// Arena index of a node id (the raw id itself; ids are dense by convention).
fn slot_index(id: NodeId) -> usize {
    id.as_u64() as usize
}

/// The discrete-event simulation engine.
///
/// The engine owns every node's protocol instance, the event queue, the network models and
/// the traffic ledger. Node state lives in a flat dense `NodeArena` indexed by the raw
/// node id, so the per-event lookup on the hot path is a direct indexed load; node ids
/// should therefore be assigned densely from zero (experiments already do). See the
/// crate-level documentation for a full example.
pub struct Simulation<P: Protocol> {
    cfg: SimulationConfig,
    now: SimTime,
    queue: EventQueue<P::Message>,
    nodes: NodeArena<NodeSlot<P>>,
    latency: Box<dyn LatencyModel>,
    /// Filter, fault plane, loss/NAT statistics and the traffic ledger (both sides: this
    /// engine has one thread, so receivers are charged to the same ledger).
    delivery: Delivery,
    bootstrap: BootstrapRegistry,
    latency_rng: SmallRng,
    sched_rng: SmallRng,
    /// The executor's half of the statistics: `delivered`, and `destination_gone` for
    /// destinations that died while the message was in flight.
    stats: NetworkStats,
    /// Recycled effect buffers threaded through every protocol callback (see
    /// [`Context::with_buffers`]); their capacity persists across events, so the
    /// per-event effect collection allocates nothing in steady state.
    outbox_buf: Vec<Outgoing<P::Message>>,
    timers_buf: Vec<TimerRequest>,
    /// Round-barrier hook, if installed.
    hook: Option<Box<dyn RoundHook>>,
    /// The protocol's peer-sampling rule, captured (monomorphised where `P: PssNode`
    /// holds) by [`set_sampled_round_hook`](SimulationEngine::set_sampled_round_hook) so the
    /// `P: Protocol`-only barrier loop can serve [`HookOps::draw_sample`].
    hook_sampler: Option<fn(&mut P, &mut SmallRng) -> Option<NodeId>>,
    /// Index of the last barrier handed to the hook (barrier `n` fires at `n * period`).
    barriers_fired: u64,
}

impl<P: Protocol> Simulation<P> {
    /// Creates an engine with the given configuration, a King-like latency model, no fault
    /// plane and no NAT filtering. Use the [`SimulationEngine`] `set_*` methods to replace
    /// the network models.
    pub fn new(cfg: SimulationConfig) -> Self {
        Simulation {
            cfg,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            nodes: NodeArena::new(),
            latency: Box::new(KingLatencyModel::new()),
            delivery: Delivery::new(),
            bootstrap: BootstrapRegistry::new(),
            latency_rng: cfg.seed.stream_rng(Stream::Latency),
            sched_rng: cfg.seed.stream_rng(Stream::Scheduling),
            stats: NetworkStats::default(),
            outbox_buf: Vec::new(),
            timers_buf: Vec::new(),
            hook: None,
            hook_sampler: None,
            barriers_fired: 0,
        }
    }

    /// The traffic ledger (bytes and messages per node).
    pub fn traffic(&self) -> &TrafficLedger {
        &self.delivery.ledger
    }

    /// Identifiers of all live nodes, in ascending id order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().map(|(_, slot)| slot.id).collect()
    }

    /// Shared access to the protocol instance of `node`.
    pub fn node(&self, node: NodeId) -> Option<&P> {
        self.nodes.get(slot_index(node)).map(|slot| &slot.proto)
    }

    /// Iterates over `(id, protocol)` pairs of all live nodes, in ascending id order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &P)> {
        self.nodes.iter().map(|(_, slot)| (slot.id, &slot.proto))
    }

    fn dispatch(&mut self, event: Event<P::Message>) {
        match event {
            Event::Round { node } => {
                if self.nodes.contains(slot_index(node)) {
                    self.execute(node, |proto, ctx| proto.on_round(ctx));
                    let next = next_round_delay(&self.cfg, &mut self.sched_rng);
                    self.queue.schedule(self.now + next, Event::Round { node });
                }
            }
            Event::Timer { node, key } => {
                if self.nodes.contains(slot_index(node)) {
                    self.execute(node, |proto, ctx| proto.on_timer(key, ctx));
                }
            }
            Event::Deliver { from, to, msg } => {
                if !self.nodes.contains(slot_index(to)) {
                    self.stats.destination_gone += 1;
                    self.delivery.ledger.record_dropped(from);
                } else if self.delivery.arrive(from, to, self.now).is_delivered() {
                    self.stats.delivered += 1;
                    self.delivery.ledger.record_received(to, msg.wire_size());
                    self.execute(to, |proto, ctx| proto.on_message(from, msg, ctx));
                }
            }
        }
    }

    /// Runs `callback` on the protocol instance of `node` with a [`Context`] collecting
    /// into the engine's recycled effect buffers, then applies the side effects
    /// (messages, timers) the callback produced.
    fn execute<F>(&mut self, node: NodeId, callback: F)
    where
        F: FnOnce(&mut P, &mut Context<'_, P::Message>),
    {
        let outbox_buf = std::mem::take(&mut self.outbox_buf);
        let timers_buf = std::mem::take(&mut self.timers_buf);
        let (mut outgoing, mut timers) = {
            let slot = self
                .nodes
                .get_mut(slot_index(node))
                .expect("execute() requires a live node");
            let mut ctx = Context::with_buffers(
                ContextParams {
                    node,
                    now: self.now,
                    round_period: self.cfg.round_period,
                    // A message is executed at its delivery instant, so a reply can
                    // follow its request by the two latencies alone.
                    reply_horizon: SimDuration::ZERO,
                    rng: &mut slot.rng,
                    bootstrap: &self.bootstrap,
                },
                outbox_buf,
                timers_buf,
            );
            callback(&mut slot.proto, &mut ctx);
            ctx.into_effects()
        };
        self.apply_effects(node, &mut outgoing, &mut timers);
        self.outbox_buf = outgoing;
        self.timers_buf = timers;
    }

    /// Drains the effect buffers into the network and the event queue; the emptied buffers
    /// keep their capacity and return to the engine's pool.
    fn apply_effects(
        &mut self,
        from: NodeId,
        outgoing: &mut Vec<Outgoing<P::Message>>,
        timers: &mut Vec<TimerRequest>,
    ) {
        for Outgoing { to, mut msg } in outgoing.drain(..) {
            let wire = msg.wire_size();
            let Some(departure) = self.delivery.depart(from, to, self.now, wire, &mut msg) else {
                continue;
            };
            let latency = self.latency.sample(from, to, &mut self.latency_rng);
            if departure.duplicate {
                // The copy travels at the base latency; the original may additionally be
                // delayed by a reordering spike.
                self.queue.schedule(
                    self.now + latency,
                    Event::Deliver {
                        from,
                        to,
                        msg: msg.clone(),
                    },
                );
            }
            self.queue.schedule(
                self.now + latency + departure.extra_delay,
                Event::Deliver { from, to, msg },
            );
        }
        for TimerRequest { delay, key } in timers.drain(..) {
            self.queue
                .schedule(self.now + delay, Event::Timer { node: from, key });
        }
    }
}

impl<P: PssNode> Simulation<P> {
    /// Draws a peer sample from `node` using the node's own random stream, following the
    /// protocol's sampling rule.
    pub fn sample_from(&mut self, node: NodeId) -> Option<NodeId> {
        let slot = self.nodes.get_mut(slot_index(node))?;
        slot.proto.draw_sample(&mut slot.rng)
    }
}

impl<P: Protocol> HookOps for Simulation<P> {
    fn draw_sample(&mut self, node: NodeId) -> Option<NodeId> {
        let sampler = self.hook_sampler?;
        let slot = self.nodes.get_mut(slot_index(node))?;
        sampler(&mut slot.proto, &mut slot.rng)
    }

    fn is_live(&self, node: NodeId) -> bool {
        self.contains(node)
    }

    fn live_node_ids_into(&self, out: &mut Vec<NodeId>) {
        out.extend(self.nodes.iter().map(|(_, slot)| slot.id));
    }

    fn record_transfer(&mut self, from: NodeId, to: NodeId, bytes: usize) {
        self.delivery.record_transfer(from, to, bytes);
    }

    fn record_blocked(&mut self, from: NodeId) {
        self.delivery.ledger.record_dropped(from);
    }
}

impl<P: Protocol> SimulationEngine<P> for Simulation<P> {
    fn from_config(cfg: SimulationConfig) -> Self {
        Simulation::new(cfg)
    }

    fn set_latency_model<L: LatencyModel + Send + Sync + 'static>(&mut self, model: L) {
        self.latency = Box::new(model);
    }

    fn set_delivery_filter<D: DeliveryFilter + 'static>(&mut self, filter: D) {
        self.delivery.set_filter(filter);
    }

    /// Barriers at or before the current instant never fire.
    fn set_round_hook(&mut self, hook: Box<dyn RoundHook>) {
        let period = self.cfg.round_period.as_millis().max(1);
        self.barriers_fired = self.now.as_millis() / period;
        self.hook = Some(hook);
        self.hook_sampler = None;
    }

    fn set_sampled_round_hook(&mut self, hook: Box<dyn RoundHook>)
    where
        P: PssNode,
    {
        self.set_round_hook(hook);
        self.hook_sampler = Some(P::draw_sample);
    }

    /// The engine judges every outgoing message against the plane in event order; an
    /// inactive plane costs one atomic load per message.
    fn set_fault_plane(&mut self, plane: FaultPlane) {
        self.delivery.set_fault_plane(plane);
    }

    /// The protocol-side recovery counters stay zero here; the experiment driver fills
    /// them from the nodes.
    fn fault_report(&self) -> FaultReport {
        self.delivery.fault_report()
    }

    fn config(&self) -> &SimulationConfig {
        &self.cfg
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }

    fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(slot_index(node))
    }

    /// Typically called for public nodes only.
    fn register_public(&mut self, node: NodeId) {
        self.bootstrap.register(node);
    }

    /// Invokes the node's [`Protocol::on_start`] callback and schedules its periodic
    /// rounds.
    ///
    /// # Panics
    ///
    /// Panics if a node with the same identifier is already present.
    fn add_node(&mut self, id: NodeId, proto: P) {
        assert!(
            !self.nodes.contains(slot_index(id)),
            "node {id} is already part of the simulation"
        );
        let slot = NodeSlot {
            id,
            proto,
            rng: self.cfg.seed.node_rng(id),
        };
        self.nodes.insert(slot_index(id), slot);
        self.delivery.node_added(id);
        self.execute(id, |proto, ctx| proto.on_start(ctx));
        let phase = if self.cfg.random_phase {
            let period_ms = self.cfg.round_period.as_millis().max(1);
            SimDuration::from_millis(self.sched_rng.gen_range(0..period_ms))
        } else {
            self.cfg.round_period
        };
        self.queue
            .schedule(self.now + phase, Event::Round { node: id });
    }

    /// In-flight messages addressed to the node are silently dropped when they arrive,
    /// which models a crash: no goodbye messages are sent.
    fn remove_node(&mut self, id: NodeId) -> Option<P> {
        let slot = self.nodes.remove(slot_index(id))?;
        self.bootstrap.unregister(id);
        self.delivery.node_removed(id);
        Some(slot.proto)
    }

    /// With a [`RoundHook`] installed the event loop is split at every barrier instant
    /// `n * round_period <= deadline`: the hook fires *before* any event scheduled at or
    /// after the barrier instant dispatches — the same observation point as the sharded
    /// engine's phase barrier, where events at exactly the window edge belong to the next
    /// phase. Without a hook no barrier is ever due.
    fn run_until(&mut self, deadline: SimTime) {
        let period = self.cfg.round_period.as_millis().max(1);
        loop {
            let next_event = self.queue.peek_time();
            let barrier =
                SimTime::from_millis(self.barriers_fired.saturating_add(1).saturating_mul(period));
            if self.hook.is_some()
                && barrier <= deadline
                && next_event.is_none_or(|at| barrier <= at)
            {
                if barrier > self.now {
                    self.now = barrier;
                }
                self.barriers_fired += 1;
                let round = self.barriers_fired;
                // Take/restore so the hook can borrow the engine as `&mut dyn HookOps`.
                if let Some(mut hook) = self.hook.take() {
                    hook.on_round_barrier_with(round, barrier, self);
                    self.hook = Some(hook);
                }
                continue;
            }
            match next_event {
                Some(at) if at <= deadline => {
                    let scheduled = self.queue.pop().expect("peeked event must exist");
                    self.now = scheduled.at;
                    self.dispatch(scheduled.event);
                }
                _ => break,
            }
        }
        if deadline > self.now {
            self.now = deadline;
        }
    }

    fn for_each_node(&self, f: &mut dyn FnMut(NodeId, &P)) {
        // Slots are addressed by the raw node id, so slot order is ascending id order.
        for (id, proto) in self.nodes() {
            f(id, proto);
        }
    }

    fn node_id_upper_bound(&self) -> u64 {
        // Slots are addressed by the raw node id, so the arena bound is the id bound.
        self.nodes.slot_upper_bound() as u64
    }

    fn network_stats(&self) -> NetworkStats {
        let mut stats = self.delivery.stats();
        stats.merge(self.stats);
        stats
    }

    fn traffic_snapshot(&self) -> TrafficLedger {
        self.traffic().clone()
    }

    fn reset_traffic_window(&mut self) {
        self.delivery.ledger.reset_window(self.now);
    }

    fn draw_sample(&mut self, node: NodeId) -> Option<NodeId>
    where
        P: PssNode,
    {
        self.sample_from(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::ConstantLatency;
    use crate::protocol::TimerKey;
    use crate::types::NatClass;

    /// Test protocol: floods a counter to a fixed buddy each round.
    struct Buddy {
        buddy: Option<NodeId>,
        received: Vec<u32>,
        rounds: u64,
        timer_fired: bool,
    }

    impl Buddy {
        fn new(buddy: Option<NodeId>) -> Self {
            Buddy {
                buddy,
                received: Vec::new(),
                rounds: 0,
                timer_fired: false,
            }
        }
    }

    #[derive(Clone, Debug, PartialEq)]
    struct Counter(u32);

    impl WireSize for Counter {
        fn wire_size(&self) -> usize {
            100
        }
    }

    impl Protocol for Buddy {
        type Message = Counter;

        fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
            ctx.set_timer(SimDuration::from_millis(10), TimerKey::new(1));
        }

        fn on_round(&mut self, ctx: &mut Context<'_, Self::Message>) {
            self.rounds += 1;
            if let Some(buddy) = self.buddy {
                ctx.send(buddy, Counter(self.rounds as u32));
            }
        }

        fn on_message(
            &mut self,
            _from: NodeId,
            msg: Self::Message,
            _ctx: &mut Context<'_, Self::Message>,
        ) {
            self.received.push(msg.0);
        }

        fn on_timer(&mut self, key: TimerKey, _ctx: &mut Context<'_, Self::Message>) {
            assert_eq!(key, TimerKey::new(1));
            self.timer_fired = true;
        }
    }

    impl PssNode for Buddy {
        fn nat_class(&self) -> NatClass {
            NatClass::Public
        }

        fn for_each_known_peer(&self, visit: &mut dyn FnMut(NodeId)) {
            self.buddy.into_iter().for_each(visit);
        }

        fn draw_sample(&mut self, _rng: &mut SmallRng) -> Option<NodeId> {
            self.buddy
        }

        fn rounds_executed(&self) -> u64 {
            self.rounds
        }
    }

    fn two_node_sim() -> Simulation<Buddy> {
        let mut sim = Simulation::new(SimulationConfig {
            random_phase: false,
            ..SimulationConfig::default()
                .with_seed(3)
                .with_round_jitter(0.0)
        });
        sim.set_latency_model(ConstantLatency::new(SimDuration::from_millis(10)));
        sim.add_node(NodeId::new(1), Buddy::new(Some(NodeId::new(2))));
        sim.add_node(NodeId::new(2), Buddy::new(Some(NodeId::new(1))));
        sim
    }

    #[test]
    fn rounds_fire_periodically() {
        let mut sim = two_node_sim();
        sim.run_for(SimDuration::from_secs(10));
        for (_, node) in sim.nodes() {
            assert_eq!(node.rounds, 10);
        }
    }

    #[test]
    fn fault_plane_drops_everything_at_full_loss() {
        use crate::faults::{FaultPlane, FaultProfile};
        use crate::rng::Seed;
        let mut sim = two_node_sim();
        let plane = FaultPlane::new(Seed::new(3));
        plane.set_default_profile(FaultProfile::lossy(1.0));
        sim.set_fault_plane(plane);
        sim.run_for(SimDuration::from_secs(5));
        for (_, node) in sim.nodes() {
            assert!(node.received.is_empty(), "a message survived 100% loss");
        }
        let report = sim.fault_report();
        assert!(report.injected_drops > 0);
        let stats = sim.network_stats();
        assert_eq!(stats.delivered, 0);
        assert_eq!(
            stats.lost, report.injected_drops,
            "fault drops count as lost"
        );
    }

    #[test]
    fn fault_plane_duplicates_double_delivery() {
        use crate::faults::{FaultPlane, FaultProfile};
        use crate::rng::Seed;
        let mut sim = two_node_sim();
        let plane = FaultPlane::new(Seed::new(3));
        plane.set_default_profile(FaultProfile::default().with_duplicate(1.0));
        sim.set_fault_plane(plane);
        // Rounds at t = 1..5 s, 10 ms latency; flush the in-flight round-5 copies.
        sim.run_for(SimDuration::from_secs(5));
        sim.run_for(SimDuration::from_millis(20));
        let n1 = sim.node(NodeId::new(1)).unwrap();
        let n2 = sim.node(NodeId::new(2)).unwrap();
        assert_eq!(n1.received.len(), 10);
        assert_eq!(n2.received.len(), 10);
        assert_eq!(sim.fault_report().duplicates, 10);
        assert_eq!(sim.network_stats().delivered, 20);
    }

    #[test]
    fn fault_plane_clear_restores_clean_delivery() {
        use crate::faults::{FaultPlane, FaultProfile};
        use crate::rng::Seed;
        let mut sim = two_node_sim();
        let plane = FaultPlane::new(Seed::new(3));
        plane.set_default_profile(FaultProfile::lossy(1.0));
        sim.set_fault_plane(plane.clone());
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(sim.network_stats().delivered, 0);
        let dropped_so_far = sim.fault_report().injected_drops;
        plane.clear();
        sim.run_for(SimDuration::from_secs(5));
        let stats = sim.network_stats();
        assert!(stats.delivered > 0, "clear() must stop injection");
        assert_eq!(
            sim.fault_report().injected_drops,
            dropped_so_far,
            "counters persist across clear() but must not grow"
        );
    }

    #[test]
    fn messages_are_delivered_with_latency() {
        let mut sim = two_node_sim();
        // Rounds fire at t = 1..5 s; each message takes 10 ms, so the round-5 messages are
        // still in flight when the clock stops at exactly 5 s.
        sim.run_for(SimDuration::from_secs(5));
        let n1 = sim.node(NodeId::new(1)).unwrap();
        let n2 = sim.node(NodeId::new(2)).unwrap();
        assert_eq!(n1.received.len(), 4);
        assert_eq!(n2.received.len(), 4);
        assert_eq!(sim.network_stats().delivered, 8);
        // Running a little longer flushes the in-flight messages.
        sim.run_for(SimDuration::from_millis(20));
        assert_eq!(sim.network_stats().delivered, 10);
        assert_eq!(sim.network_stats().total(), 10);
    }

    #[test]
    fn timers_fire_once() {
        let mut sim = two_node_sim();
        sim.run_for(SimDuration::from_millis(50));
        assert!(sim.node(NodeId::new(1)).unwrap().timer_fired);
        assert!(sim.node(NodeId::new(2)).unwrap().timer_fired);
    }

    #[test]
    fn traffic_ledger_accounts_bytes() {
        let mut sim = two_node_sim();
        // Run slightly past the fourth round so the fourth delivery (at 4 s + 10 ms) lands.
        sim.run_for(SimDuration::from_millis(4_500));
        let t1 = sim.traffic().node_or_default(NodeId::new(1));
        assert_eq!(t1.bytes_sent, 400);
        assert_eq!(t1.bytes_received, 400);
    }

    #[test]
    fn removed_node_stops_receiving() {
        let mut sim = two_node_sim();
        sim.run_for(SimDuration::from_secs(2));
        sim.remove_node(NodeId::new(2)).unwrap();
        sim.run_for(SimDuration::from_secs(3));
        // Node 1 keeps sending to the dead node; those messages count as destination_gone.
        assert!(sim.network_stats().destination_gone > 0);
        assert!(!sim.contains(NodeId::new(2)));
        assert_eq!(sim.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already part of the simulation")]
    fn duplicate_node_panics() {
        let mut sim = two_node_sim();
        sim.add_node(NodeId::new(1), Buddy::new(None));
    }

    #[test]
    fn loss_model_drops_messages() {
        use crate::faults::FaultProfile;
        let mut sim = Simulation::new(SimulationConfig {
            random_phase: false,
            ..SimulationConfig::default()
                .with_seed(4)
                .with_round_jitter(0.0)
        });
        sim.set_latency_model(ConstantLatency::new(SimDuration::from_millis(1)));
        let plane = FaultPlane::new(Seed::new(4));
        plane.set_default_profile(FaultProfile::lossy(1.0));
        sim.set_fault_plane(plane);
        sim.add_node(NodeId::new(1), Buddy::new(Some(NodeId::new(2))));
        sim.add_node(NodeId::new(2), Buddy::new(None));
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(sim.network_stats().delivered, 0);
        assert_eq!(sim.network_stats().lost, 5);
        assert!(sim.node(NodeId::new(2)).unwrap().received.is_empty());
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let mut sim: Simulation<Buddy> = Simulation::new(SimulationConfig::default());
        sim.run_until(SimTime::from_secs(42));
        assert_eq!(sim.now(), SimTime::from_secs(42));
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = || {
            let mut sim = two_node_sim();
            sim.run_for(SimDuration::from_secs(20));
            (
                sim.network_stats(),
                sim.node(NodeId::new(1)).unwrap().received.clone(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sample_from_uses_protocol_rule() {
        let mut sim = two_node_sim();
        assert_eq!(sim.sample_from(NodeId::new(1)), Some(NodeId::new(2)));
        assert_eq!(sim.sample_from(NodeId::new(99)), None);
    }

    use std::cell::RefCell;
    use std::rc::Rc;

    /// Records every barrier the engine hands to the hook.
    struct Recorder(Rc<RefCell<Vec<(u64, SimTime)>>>);

    impl RoundHook for Recorder {
        fn on_round_barrier(&mut self, round: u64, now: SimTime) {
            self.0.borrow_mut().push((round, now));
        }
    }

    #[test]
    fn round_hook_fires_once_per_barrier() {
        let mut sim = two_node_sim();
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.set_round_hook(Box::new(Recorder(Rc::clone(&log))));
        // Split the run across several run_until calls, including one that re-reaches an
        // already-fired barrier: no barrier may fire twice.
        sim.run_until(SimTime::from_millis(2_500));
        sim.run_until(SimTime::from_millis(2_500));
        sim.run_until(SimTime::from_secs(5));
        let fired = log.borrow().clone();
        let expected: Vec<(u64, SimTime)> = (1..=5)
            .map(|n| (n, SimTime::from_secs(n)))
            .collect::<Vec<_>>();
        assert_eq!(fired, expected);
    }

    #[test]
    fn round_hook_fires_before_events_at_the_barrier_instant() {
        // With zero jitter and no random phase, rounds fire exactly at 1 s, 2 s, ... —
        // i.e. exactly at the barrier instants. The hook must run before the round
        // callbacks scheduled at the same instant (events at the barrier belong to the
        // next phase, as in the sharded engine), which a trace shared between a probe
        // protocol and the hook makes observable.
        let trace: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));

        struct Tracer(Rc<RefCell<Vec<&'static str>>>);
        impl Protocol for Tracer {
            type Message = Counter;
            fn on_start(&mut self, _ctx: &mut Context<'_, Self::Message>) {}
            fn on_round(&mut self, _ctx: &mut Context<'_, Self::Message>) {
                self.0.borrow_mut().push("round");
            }
            fn on_message(
                &mut self,
                _from: NodeId,
                _msg: Self::Message,
                _ctx: &mut Context<'_, Self::Message>,
            ) {
            }
        }
        struct BarrierTracer(Rc<RefCell<Vec<&'static str>>>);
        impl RoundHook for BarrierTracer {
            fn on_round_barrier(&mut self, _round: u64, _now: SimTime) {
                self.0.borrow_mut().push("barrier");
            }
        }

        let mut sim = Simulation::new(SimulationConfig {
            random_phase: false,
            ..SimulationConfig::default()
                .with_seed(3)
                .with_round_jitter(0.0)
        });
        sim.add_node(NodeId::new(0), Tracer(Rc::clone(&trace)));
        sim.set_round_hook(Box::new(BarrierTracer(Rc::clone(&trace))));
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(
            trace.borrow().as_slice(),
            &["barrier", "round", "barrier", "round"],
            "each barrier precedes the round callbacks at the same instant"
        );
    }

    #[test]
    fn round_hook_installed_mid_run_skips_past_barriers() {
        let mut sim = two_node_sim();
        sim.run_until(SimTime::from_secs(3));
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.set_round_hook(Box::new(Recorder(Rc::clone(&log))));
        sim.run_until(SimTime::from_secs(5));
        let rounds: Vec<u64> = log.borrow().iter().map(|(r, _)| *r).collect();
        assert_eq!(rounds, vec![4, 5], "barriers 1..3 predate the hook");
    }

    #[test]
    fn round_hook_fires_on_an_empty_queue() {
        let mut sim: Simulation<Buddy> = Simulation::new(SimulationConfig {
            random_phase: false,
            ..SimulationConfig::default().with_round_jitter(0.0)
        });
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.set_round_hook(Box::new(Recorder(Rc::clone(&log))));
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(log.borrow().len(), 3, "barriers fire without any events");
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    /// Probes the `HookOps` seam at each barrier: the live-id walk, liveness queries,
    /// protocol-rule sample draws and ledger charging.
    struct SeamProbe(Rc<RefCell<Vec<Option<NodeId>>>>);

    impl RoundHook for SeamProbe {
        fn on_round_barrier(&mut self, _round: u64, _now: SimTime) {}

        fn on_round_barrier_with(&mut self, _round: u64, _now: SimTime, ops: &mut dyn HookOps) {
            let mut ids = Vec::new();
            ops.live_node_ids_into(&mut ids);
            assert_eq!(ids, vec![NodeId::new(1), NodeId::new(2)]);
            assert!(ops.is_live(NodeId::new(1)));
            assert!(!ops.is_live(NodeId::new(99)));
            self.0.borrow_mut().push(ops.draw_sample(NodeId::new(1)));
            ops.record_transfer(NodeId::new(1), NodeId::new(2), 500);
            ops.record_blocked(NodeId::new(2));
        }
    }

    #[test]
    fn sampled_round_hook_serves_draws_and_charges_the_ledger() {
        let mut sim = two_node_sim();
        let samples = Rc::new(RefCell::new(Vec::new()));
        sim.set_sampled_round_hook(Box::new(SeamProbe(Rc::clone(&samples))));
        sim.run_until(SimTime::from_secs(2));
        // Buddy's sampling rule always returns the buddy.
        assert_eq!(
            samples.borrow().as_slice(),
            &[Some(NodeId::new(2)), Some(NodeId::new(2))]
        );
        let t1 = sim.traffic().node_or_default(NodeId::new(1));
        let t2 = sim.traffic().node_or_default(NodeId::new(2));
        // Two barriers × 500 workload bytes on top of the protocol's own 100-byte sends.
        assert!(t1.bytes_sent >= 1_000, "sent {}", t1.bytes_sent);
        assert!(t2.bytes_received >= 1_000, "received {}", t2.bytes_received);
        assert_eq!(t2.messages_dropped, 2, "one blocked record per barrier");
    }

    #[test]
    fn plain_round_hook_has_no_sampling_rule() {
        struct DrawProbe(Rc<RefCell<Vec<Option<NodeId>>>>);
        impl RoundHook for DrawProbe {
            fn on_round_barrier(&mut self, _round: u64, _now: SimTime) {}
            fn on_round_barrier_with(&mut self, _round: u64, _now: SimTime, ops: &mut dyn HookOps) {
                self.0.borrow_mut().push(ops.draw_sample(NodeId::new(1)));
            }
        }
        let mut sim = two_node_sim();
        let draws = Rc::new(RefCell::new(Vec::new()));
        sim.set_round_hook(Box::new(DrawProbe(Rc::clone(&draws))));
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(
            draws.borrow().as_slice(),
            &[None, None],
            "the plain installer must not capture a sampling rule"
        );
    }
}
