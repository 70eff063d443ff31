//! The sharded, phase-parallel execution engine.
//!
//! [`ShardedSimulation`] trades the event engine's exact event interleaving for
//! round-synchronous parallelism: virtual time is cut into windows of one gossip period
//! ("phases"), nodes are striped over `engine_threads` shards (`shard = id mod S`,
//! stored densely at `id div S` in each shard's [`NodeArena`]), and every phase runs all
//! shards in parallel on scoped worker threads. Messages never cross shard boundaries
//! mid-phase: every worker buffers them in its shard's one outbox and sorts it into the
//! canonical order — `(send time, sender id, per-sender sequence number)` — before the
//! barrier. At the barrier the coordinator k-way merges the pre-sorted runs, has the
//! delivery plane (`delivery.rs`) judge the merged batch — the fault plane
//! sequentially, then the delivery filter over the whole batch, which a filter with
//! partitioned state (`croupier-nat`: one table per gateway) splits over worker threads
//! — and reads the outcomes back in one pass that schedules each survivor on its
//! destination shard's event queue. A payload crosses the barrier once: the merge reads
//! it in its outbox (where a corrupting fault plane mutates it) and the outcome pass
//! moves it from there into the queue it is delivered from. What stays on one thread is
//! the k-way merge, the fault plane's draws (one stream, consumed in canonical order)
//! and the outcome pass (drop accounting and queue insertion); the sort and the filter
//! scale with the worker count.
//!
//! # Determinism across worker counts
//!
//! A run is bit-identical for any `engine_threads` on the same seed because no observable
//! decision depends on shard composition:
//!
//! * **Node state** only changes in the node's own callbacks; within a phase, callbacks of
//!   different nodes are independent (effects are buffered until the barrier), so the order
//!   in which a worker interleaves *different* nodes is invisible.
//! * **Randomness** is per-node: protocol draws come from the node's own stream (as in the
//!   event engine), and latency draws come from a dedicated per-node network stream
//!   ([`Seed::node_stream_rng`](crate::rng::Seed::node_stream_rng)) consumed in the node's
//!   own emission order. The model's [`sample_shared`](LatencyModel::sample_shared) path
//!   is `&self` and derives any per-node state by hashing ids, never lazily from a shared
//!   stream.
//! * **Same-node event ordering** is `(time, insertion order)` in the shard queue, and every
//!   insertion affecting one node happens at a globally fixed point: barrier merges insert
//!   in canonical order, and a node's own callbacks insert its timers/rounds in callback
//!   order. Neither depends on how nodes are distributed over shards.
//! * **Cross-shard mutation** happens at the barrier, over the canonical merge order.
//!   Fault draws and the loss/NAT statistics are single-threaded there. The delivery
//!   filter sees the whole batch in that order
//!   ([`DeliveryFilter::judge_batch`]); its contract is the per-message
//!   `on_send`/`can_deliver` sequence, so however many threads it uses — the engine
//!   offers it `min(shards, available cores)` — the verdicts are those of the sequence.
//!   Traffic counters live in per-shard ledgers (a sender's bytes are charged where the
//!   message is emitted, a receiver's where it executes) and are commutative sums,
//!   merged on demand.
//!
//! # Differences from the event engine
//!
//! The quantisation is observable: a message is never executed in the phase it was sent in
//! (its delivery is clamped to the next round barrier if its sampled latency lands
//! earlier), and the delivery filter is consulted at the barrier rather than at the exact
//! delivery instant. A reply therefore trails its request by up to two round periods, which
//! the engine reports to protocols as its
//! [reply horizon](crate::ContextParams::reply_horizon) so their retry timers wait that
//! much longer. Runs are therefore deterministic and *statistically* equivalent to the
//! event engine, but not bit-identical to it — `tests/determinism.rs` pins down exactly the
//! guarantee that holds: sharded runs are bit-identical to each other across worker counts.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::arena::NodeArena;
use crate::bootstrap::BootstrapRegistry;
use crate::delivery::Delivery;
use crate::engine::{NetworkStats, SimulationConfig};
use crate::engine_api::{HookOps, RoundHook, SimulationEngine};
use crate::event::Event;
use crate::faults::{FaultPlane, FaultReport};
use crate::latency::{KingLatencyModel, LatencyModel};
use crate::network::{BatchLink, DeliveryFilter};
use crate::protocol::{
    Context, ContextParams, Outgoing, Protocol, PssNode, TimerRequest, WireSize,
};
use crate::rng::Stream;
use crate::scheduler::EventQueue;
use crate::time::{SimDuration, SimTime};
use crate::traffic::TrafficLedger;
use crate::types::NodeId;

/// Per-node state owned by a shard.
struct NodeState<P> {
    id: NodeId,
    proto: P,
    /// The node's protocol stream (same derivation as in the event engine).
    rng: SmallRng,
    /// The node's latency stream, consumed once per emitted message.
    net_rng: SmallRng,
    /// The node's round-phase and clock-skew stream.
    sched_rng: SmallRng,
    /// Monotone per-node counter stamped on emitted messages; the canonical merge order
    /// tie-breaker for messages a node sends at the same instant.
    msg_seq: u64,
}

/// A message buffered in a shard outbox between a send and the next round barrier.
struct PendingMessage<M> {
    from: NodeId,
    to: NodeId,
    msg: M,
    sent_at: SimTime,
    deliver_at: SimTime,
    seq: u64,
}

/// An entry of the barrier's k-way merge heap: a run's head message, as its merge key
/// followed by the run and the head's index in it (the run's cursor).
type MergeHead = std::cmp::Reverse<(SimTime, NodeId, u64, usize, usize)>;

/// One shard: a stripe of nodes, their event queue, and this phase's outbox.
struct Shard<P: Protocol> {
    /// Total number of shards (the stripe modulus).
    stride: u64,
    nodes: NodeArena<NodeState<P>>,
    queue: EventQueue<P::Message>,
    /// Outgoing messages buffered during the current phase. Drained (capacity retained)
    /// at every round barrier.
    outbox: Vec<PendingMessage<P::Message>>,
    /// Recycled effect buffers threaded through every protocol callback on this shard
    /// (see [`Context::with_buffers`]); capacity persists across events.
    ctx_outbox: Vec<Outgoing<P::Message>>,
    ctx_timers: Vec<TimerRequest>,
    /// What this shard's nodes sent and received, and drops charged at delivery time.
    traffic: TrafficLedger,
    /// Receiver-side delivery statistics.
    stats: NetworkStats,
}

fn local_index(node: NodeId, stride: u64) -> usize {
    (node.as_u64() / stride) as usize
}

/// The read-only environment every worker shares during a phase: the configuration, the
/// bootstrap registry and the latency model (consulted only through its `sample_shared`,
/// order-independent path).
struct PhaseEnv<'a> {
    cfg: &'a SimulationConfig,
    bootstrap: &'a BootstrapRegistry,
    latency: &'a (dyn LatencyModel + Sync),
}

/// The delay to a node's next round: the period, skewed by the configured jitter drawn
/// from the scheduling stream `rng` (shared with the event engine).
pub(crate) fn next_round_delay(cfg: &SimulationConfig, rng: &mut SmallRng) -> SimDuration {
    let period = cfg.round_period.as_millis() as f64;
    if cfg.round_jitter > 0.0 {
        let jitter = rng.gen_range(-cfg.round_jitter..cfg.round_jitter);
        SimDuration::from_millis_f64((period * (1.0 + jitter)).max(1.0))
    } else {
        cfg.round_period
    }
}

impl<P: Protocol> Shard<P> {
    fn new(stride: u64) -> Self {
        Shard {
            stride,
            nodes: NodeArena::new(),
            queue: EventQueue::new(),
            outbox: Vec::new(),
            ctx_outbox: Vec::new(),
            ctx_timers: Vec::new(),
            traffic: TrafficLedger::new(),
            stats: NetworkStats::default(),
        }
    }

    /// Runs `callback` on one node and converts its effects: timers go straight into this
    /// shard's queue (they are node-local), messages become [`PendingMessage`]s — with
    /// the latency already sampled from the node's private network stream — pushed
    /// into the shard's outbox. The context's effect buffers come from the shard's pool,
    /// so steady-state execution allocates nothing.
    fn execute<F>(&mut self, local: usize, at: SimTime, env: &PhaseEnv<'_>, callback: F)
    where
        F: FnOnce(&mut P, &mut Context<'_, P::Message>),
    {
        let outbox_buf = std::mem::take(&mut self.ctx_outbox);
        let timers_buf = std::mem::take(&mut self.ctx_timers);
        let (id, mut outgoing, mut timers) = {
            let state = self
                .nodes
                .get_mut(local)
                .expect("execute() requires a live node");
            let mut ctx = Context::with_buffers(
                ContextParams {
                    node: state.id,
                    now: at,
                    round_period: env.cfg.round_period,
                    // A request executes no earlier than the next barrier and its reply
                    // no earlier than the barrier after that.
                    reply_horizon: env.cfg.round_period.saturating_mul(2),
                    rng: &mut state.rng,
                    bootstrap: env.bootstrap,
                },
                outbox_buf,
                timers_buf,
            );
            callback(&mut state.proto, &mut ctx);
            let (outgoing, timers) = ctx.into_effects();
            (state.id, outgoing, timers)
        };
        for TimerRequest { delay, key } in timers.drain(..) {
            self.queue
                .schedule(at + delay, Event::Timer { node: id, key });
        }
        let state = self.nodes.get_mut(local).expect("node still live");
        for Outgoing { to, msg } in outgoing.drain(..) {
            // Charged here, where the sender's entry is hot and the work is parallel; the
            // window cannot be reset between a send and its barrier.
            self.traffic.record_sent(id, msg.wire_size());
            let seq = state.msg_seq;
            state.msg_seq += 1;
            let deliver_at = at + env.latency.sample_shared(id, to, &mut state.net_rng);
            self.outbox.push(PendingMessage {
                from: id,
                to,
                msg,
                sent_at: at,
                deliver_at,
                seq,
            });
        }
        self.ctx_outbox = outgoing;
        self.ctx_timers = timers;
    }

    /// Processes every event of this shard scheduled before `window_end`.
    fn run_phase(&mut self, window_end: SimTime, env: &PhaseEnv<'_>) {
        let stride = self.stride;
        while let Some(at) = self.queue.peek_time() {
            if at >= window_end {
                break;
            }
            let scheduled = self.queue.pop().expect("peeked event must exist");
            match scheduled.event {
                Event::Round { node } => {
                    let local = local_index(node, stride);
                    if self.nodes.contains(local) {
                        self.execute(local, scheduled.at, env, |proto, ctx| proto.on_round(ctx));
                        let state = self.nodes.get_mut(local).expect("node still live");
                        let next = next_round_delay(env.cfg, &mut state.sched_rng);
                        self.queue
                            .schedule(scheduled.at + next, Event::Round { node });
                    }
                }
                Event::Timer { node, key } => {
                    let local = local_index(node, stride);
                    if self.nodes.contains(local) {
                        self.execute(local, scheduled.at, env, |proto, ctx| {
                            proto.on_timer(key, ctx)
                        });
                    }
                }
                Event::Deliver { from, to, msg } => {
                    let local = local_index(to, stride);
                    if self.nodes.contains(local) {
                        self.stats.delivered += 1;
                        self.traffic.record_received(to, msg.wire_size());
                        self.execute(local, scheduled.at, env, |proto, ctx| {
                            proto.on_message(from, msg, ctx)
                        });
                    } else {
                        self.stats.destination_gone += 1;
                        self.traffic.record_dropped(from);
                    }
                }
            }
        }
        // Sort this phase's outbox into *descending* canonical order on the worker: the
        // barrier then k-way merges `S` pre-sorted runs instead of sorting the whole
        // batch on the coordinating thread. The sort — the dominant barrier cost at 100k
        // nodes — thus parallelises with the phase itself. Descending order lets the
        // barrier's outcome pass take each run's messages by `Vec::pop`, in merge order,
        // which keeps the outbox's capacity for the next phase.
        self.outbox
            .sort_unstable_by_key(|m| std::cmp::Reverse((m.sent_at, m.from, m.seq)));
    }
}

/// The sharded, phase-parallel simulation engine. The module documentation of
/// `sharded.rs` gives the execution model and the determinism argument.
///
/// # Examples
///
/// ```
/// use croupier_simulator::{
///     Context, NodeId, Protocol, ShardedSimulation, SimulationConfig, WireSize,
/// };
///
/// struct Ping(u64);
///
/// #[derive(Clone, Debug)]
/// struct Msg;
///
/// impl WireSize for Msg {
///     fn wire_size(&self) -> usize {
///         28
///     }
/// }
///
/// impl Protocol for Ping {
///     type Message = Msg;
///     fn on_start(&mut self, _ctx: &mut Context<'_, Msg>) {}
///     fn on_round(&mut self, ctx: &mut Context<'_, Msg>) {
///         if let Some(peer) = ctx.bootstrap_sample(1).first().copied() {
///             ctx.send(peer, Msg);
///         }
///     }
///     fn on_message(&mut self, _from: NodeId, _msg: Msg, _ctx: &mut Context<'_, Msg>) {
///         self.0 += 1;
///     }
/// }
///
/// let cfg = SimulationConfig::default().with_seed(7).with_engine_threads(2);
/// let mut sim = ShardedSimulation::new(cfg);
/// for i in 0..16 {
///     sim.register_public(NodeId::new(i));
///     sim.add_node(NodeId::new(i), Ping(0));
/// }
/// sim.run_for_rounds(10);
/// let received: u64 = sim.nodes().map(|(_, p)| p.0).sum();
/// assert!(received > 0);
/// ```
pub struct ShardedSimulation<P: Protocol> {
    cfg: SimulationConfig,
    now: SimTime,
    /// Index of the next phase to execute; phase `p` covers `[p*T, (p+1)*T)`.
    next_phase: u64,
    shards: Vec<Shard<P>>,
    latency: Box<dyn LatencyModel + Send + Sync>,
    /// Filter, fault plane, loss/NAT statistics and the ledger of barrier-side drops, all
    /// touched only at the barrier, in canonical order.
    delivery: Delivery,
    /// Threads the barrier offers the delivery filter for a large batch: one per shard,
    /// capped at the cores there are, since every extra filter worker rescans the batch.
    barrier_workers: usize,
    bootstrap: BootstrapRegistry,
    /// The run (shard outbox) each message of the barrier batch came from, in canonical
    /// merge order (the delivery plane holds the links, index for index); the payloads
    /// stay in their outboxes until [`merge_batch`](Self::merge_batch) moves them.
    /// Cleared there with its capacity retained, so the barrier allocates nothing once
    /// the per-phase message volume has peaked.
    merge_order: Vec<u32>,
    /// Recycled backing store for the k-way merge's head heap: one entry per unfinished
    /// run.
    heap_buf: Vec<MergeHead>,
    /// Round-barrier hook, if installed; runs on the coordinating thread right after each
    /// phase's canonical merge, so its effects are worker-count independent.
    hook: Option<Box<dyn RoundHook>>,
    /// The protocol's peer-sampling rule, captured (monomorphised where `P: PssNode`
    /// holds) by [`set_sampled_round_hook`](SimulationEngine::set_sampled_round_hook) so the
    /// `P: Protocol`-only barrier loop can serve [`HookOps::draw_sample`].
    hook_sampler: Option<fn(&mut P, &mut SmallRng) -> Option<NodeId>>,
}

impl<P: Protocol + Send> ShardedSimulation<P>
where
    P::Message: Send,
{
    /// Creates a sharded engine with `cfg.engine_threads` worker shards (at least one), a
    /// King-like latency model, no fault plane and no NAT filtering.
    pub fn new(cfg: SimulationConfig) -> Self {
        let workers = cfg.engine_threads.max(1);
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        ShardedSimulation {
            cfg,
            now: SimTime::ZERO,
            next_phase: 0,
            shards: (0..workers).map(|_| Shard::new(workers as u64)).collect(),
            latency: Box::new(KingLatencyModel::new()),
            delivery: Delivery::new(),
            barrier_workers: workers.min(cores),
            bootstrap: BootstrapRegistry::new(),
            merge_order: Vec::new(),
            heap_buf: Vec::new(),
            hook: None,
            hook_sampler: None,
        }
    }

    /// [`SimulationEngine::register_public`], callable without the trait in scope.
    pub fn register_public(&mut self, node: NodeId) {
        SimulationEngine::register_public(self, node);
    }

    /// [`SimulationEngine::add_node`], callable without the trait in scope.
    pub fn add_node(&mut self, id: NodeId, proto: P) {
        SimulationEngine::add_node(self, id, proto);
    }

    /// [`SimulationEngine::run_for_rounds`], callable without the trait in scope.
    pub fn run_for_rounds(&mut self, rounds: u64) {
        SimulationEngine::run_for_rounds(self, rounds);
    }

    fn locate(&self, node: NodeId) -> (usize, usize) {
        let stride = self.shards.len() as u64;
        ((node.as_u64() % stride) as usize, local_index(node, stride))
    }

    /// Identifiers of all live nodes, in ascending id order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        let mut ids = Vec::with_capacity(SimulationEngine::len(self));
        self.live_node_ids_into(&mut ids);
        ids
    }

    /// Shared access to the protocol instance of `node`.
    pub fn node(&self, node: NodeId) -> Option<&P> {
        let (shard, local) = self.locate(node);
        self.shards[shard].nodes.get(local).map(|s| &s.proto)
    }

    /// Iterates over `(id, protocol)` pairs of all live nodes, shard by shard.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &P)> {
        self.shards
            .iter()
            .flat_map(|s| s.nodes.iter().map(|(_, st)| (st.id, &st.proto)))
    }

    /// Visits every live node's state in ascending id order by walking the stripes in
    /// lockstep: shard `s` stores id `local * stride + s` at slot `local`, so ascending
    /// order falls out of the traversal and no sort is needed.
    fn walk_in_id_order<'a>(&'a self, mut visit: impl FnMut(&'a NodeState<P>)) {
        let max_slots = self
            .shards
            .iter()
            .map(|s| s.nodes.slot_upper_bound())
            .max()
            .unwrap_or(0);
        for local in 0..max_slots {
            for shard in &self.shards {
                if let Some(state) = shard.nodes.get(local) {
                    visit(state);
                }
            }
        }
    }

    fn period_ms(&self) -> u64 {
        self.cfg.round_period.as_millis().max(1)
    }

    /// End of phase `p`, i.e. the instant `(p + 1) * round_period`.
    fn phase_end(&self, phase: u64) -> SimTime {
        SimTime::from_millis(self.period_ms().saturating_mul(phase + 1))
    }

    /// Executes one phase: all shards in parallel, then the barrier merge.
    fn run_one_phase(&mut self) {
        let phase = self.next_phase;
        let window_end = self.phase_end(phase);
        let cfg = self.cfg;
        {
            let env = PhaseEnv {
                cfg: &cfg,
                bootstrap: &self.bootstrap,
                latency: self.latency.as_ref(),
            };
            let shards = &mut self.shards;
            if shards.len() == 1 {
                shards[0].run_phase(window_end, &env);
            } else if shards.iter().any(|s| !s.queue.is_empty()) {
                let env = &env;
                std::thread::scope(|scope| {
                    for shard in shards.iter_mut() {
                        scope.spawn(move || shard.run_phase(window_end, env));
                    }
                });
            }
        }
        self.gather_sorted(window_end);
        self.next_phase = phase + 1;
        if window_end > self.now {
            self.now = window_end;
        }
        self.merge_batch();
        // Take/restore so the hook can borrow the engine as `&mut dyn HookOps`.
        if let Some(mut hook) = self.hook.take() {
            // After the canonical merge: the hook observes every effect of the closing
            // phase, and its own effects govern the next phase — for any worker count.
            hook.on_round_barrier_with(phase + 1, window_end, self);
            self.hook = Some(hook);
        }
    }

    /// Stages every shard's outbox as the barrier batch (deliveries no earlier than
    /// `earliest`) in the canonical `(send time, sender, sequence)` order by k-way
    /// merging the `S` runs the workers pre-sorted (descending) at the end of
    /// [`Shard::run_phase`]. The keys are globally unique (the per-sender sequence
    /// number breaks same-instant ties), so merging sorted runs yields exactly the order
    /// a full coordinator-side sort would produce — at O(n log S) comparisons instead of
    /// O(n log n), with the O(n log n) part done in parallel on the workers.
    ///
    /// The merge moves no message: each run is walked by index from its `last()` element
    /// down (the heap entry is the run's cursor; its backing store is recycled in
    /// `heap_buf`), and only the run a message came from is recorded, in `merge_order`.
    /// The fault plane judges each message as it is staged — its draws are one stream
    /// consumed in this order, which is what keeps them sequential — and corrupts the
    /// payload in place, in the outbox, where [`merge_batch`](Self::merge_batch) will
    /// take it from.
    fn gather_sorted(&mut self, earliest: SimTime) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let head = |outbox: &[PendingMessage<P::Message>], run: usize, at: usize| {
            let m = &outbox[at];
            Reverse((m.sent_at, m.from, m.seq, run, at))
        };
        let mut heads = std::mem::take(&mut self.heap_buf);
        heads.clear();
        for (run, shard) in self.shards.iter().enumerate() {
            if let Some(last) = shard.outbox.len().checked_sub(1) {
                heads.push(head(&shard.outbox, run, last));
            }
        }
        let mut heap = BinaryHeap::from(heads);
        self.delivery.begin_batch();
        while let Some(Reverse((_, _, _, run, at))) = heap.pop() {
            let outbox = &mut self.shards[run].outbox;
            if at > 0 {
                heap.push(head(outbox, run, at - 1));
            }
            let message = &mut outbox[at];
            let link = BatchLink {
                from: message.from,
                to: message.to,
                sent_at: message.sent_at,
                // NAT verdicts are judged once, at this undelayed instant: a reorder
                // spike shifts when the datagram arrives, not whether the mapping that
                // admits it exists.
                arrive_at: message.deliver_at.max(earliest),
                wants_verdict: true,
            };
            self.delivery.stage(link, &mut message.msg);
            self.merge_order.push(run as u32);
        }
        self.heap_buf = heap.into_vec();
    }

    /// The barrier: judges the staged batch and schedules the surviving deliveries.
    ///
    /// The judgment is the [delivery plane](crate::delivery)'s: the fault draws happened
    /// at staging; here the filter gets the whole batch (on
    /// [`barrier_workers`](Self::barrier_workers) threads when the batch pays for them),
    /// then one sequential pass reads each outcome back, which counts the drops, and
    /// moves each payload exactly once. Message `k` is the next pop of run
    /// `merge_order[k]`: the merge consumed every run from its end, in the order this
    /// pass replays. A survivor goes straight into its destination shard's event queue
    /// (a duplicate first, as its own clone, then the original); a dead message's payload
    /// is dropped here. Canonical order in, per-message outcomes out: each queue receives
    /// its deliveries in canonical relative order, so its `(time, insertion order)`
    /// tie-breaking — and with it every run — is the same for any worker count.
    fn merge_batch(&mut self) {
        if self.merge_order.is_empty() {
            return;
        }
        let stride = self.shards.len() as u64;
        let workers = if self.merge_order.len() >= PARALLEL_BARRIER_THRESHOLD {
            self.barrier_workers
        } else {
            1
        };
        self.delivery.judge_staged(workers);
        for (k, &run) in self.merge_order.iter().enumerate() {
            let message = self.shards[run as usize].outbox.pop();
            let msg = message.expect("every merged message waits in its run").msg;
            let Some((link, departure)) = self.delivery.outcome(k) else {
                continue;
            };
            let BatchLink {
                from,
                to,
                arrive_at,
                ..
            } = link;
            let queue = &mut self.shards[(to.as_u64() % stride) as usize].queue;
            if departure.duplicate {
                // The duplicate travels at the base latency; only the original can
                // additionally be held back by a reordering spike.
                let msg = msg.clone();
                queue.schedule(arrive_at, Event::Deliver { from, to, msg });
            }
            let at = arrive_at + departure.extra_delay;
            queue.schedule(at, Event::Deliver { from, to, msg });
        }
        self.merge_order.clear();
    }
}

/// Smallest per-barrier message count for which the delivery filter judges the batch on
/// worker threads; smaller batches stay on the coordinating thread, since spawning the
/// scoped threads costs more than judging a few thousand messages. Measured on the NAT
/// filter's batch (2 cores): one thread wins through 4k links and ties at 8k, two take
/// 0.6–0.7x the time from 16k up. The choice only affects wall-clock, never outcomes:
/// the filter's verdicts are those of the per-message sequence on both sides of it.
const PARALLEL_BARRIER_THRESHOLD: usize = 16_384;

impl<P: PssNode + Send> ShardedSimulation<P>
where
    P::Message: Send,
{
    /// Draws a peer sample from `node` using the node's own random stream, following the
    /// protocol's sampling rule.
    pub(crate) fn sample_from(&mut self, node: NodeId) -> Option<NodeId> {
        let (shard, local) = self.locate(node);
        let state = self.shards[shard].nodes.get_mut(local)?;
        state.proto.draw_sample(&mut state.rng)
    }
}

impl<P: Protocol + Send> HookOps for ShardedSimulation<P>
where
    P::Message: Send,
{
    fn draw_sample(&mut self, node: NodeId) -> Option<NodeId> {
        let sampler = self.hook_sampler?;
        let (shard, local) = self.locate(node);
        let state = self.shards[shard].nodes.get_mut(local)?;
        sampler(&mut state.proto, &mut state.rng)
    }

    fn is_live(&self, node: NodeId) -> bool {
        self.contains(node)
    }

    fn live_node_ids_into(&self, out: &mut Vec<NodeId>) {
        self.walk_in_id_order(|state| out.push(state.id));
    }

    fn record_transfer(&mut self, from: NodeId, to: NodeId, bytes: usize) {
        // Both sides go to the barrier ledger: the snapshot merge is a commutative sum
        // over all ledgers, so which ledger holds a counter is unobservable.
        self.delivery.record_transfer(from, to, bytes);
    }

    fn record_blocked(&mut self, from: NodeId) {
        self.delivery.ledger.record_dropped(from);
    }
}

impl<P: Protocol + Send> SimulationEngine<P> for ShardedSimulation<P>
where
    P::Message: Send,
{
    fn from_config(cfg: SimulationConfig) -> Self {
        ShardedSimulation::new(cfg)
    }

    /// Workers sample the model concurrently through [`LatencyModel::sample_shared`].
    fn set_latency_model<L: LatencyModel + Send + Sync + 'static>(&mut self, model: L) {
        self.latency = Box::new(model);
    }

    /// The filter is consulted at the round barriers only, one
    /// [`judge_batch`](DeliveryFilter::judge_batch) per canonical merge (and one per
    /// join, for the `on_start` sends).
    fn set_delivery_filter<D: DeliveryFilter + 'static>(&mut self, filter: D) {
        self.delivery.set_filter(filter);
    }

    /// The hook runs on the coordinating thread, after each phase's canonical cross-shard
    /// merge. Phases that already ran never replay their barriers.
    fn set_round_hook(&mut self, hook: Box<dyn RoundHook>) {
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

    /// The plane is judged per message in the barrier's sequential canonical-order pass,
    /// ahead of the filter's batch, which keeps fault injection bit-identical across
    /// worker counts.
    fn set_fault_plane(&mut self, plane: FaultPlane) {
        self.delivery.set_fault_plane(plane);
    }

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
        self.shards.iter().map(|s| s.nodes.len()).sum()
    }

    fn contains(&self, node: NodeId) -> bool {
        let (shard, local) = self.locate(node);
        self.shards[shard].nodes.contains(local)
    }

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
        let (shard_idx, local) = self.locate(id);
        assert!(
            !self.shards[shard_idx].nodes.contains(local),
            "node {id} is already part of the simulation"
        );
        self.delivery.node_added(id);
        let seed = self.cfg.seed;
        let state = NodeState {
            id,
            proto,
            rng: seed.node_rng(id),
            net_rng: seed.node_stream_rng(id, Stream::Latency),
            sched_rng: seed.node_stream_rng(id, Stream::Scheduling),
            msg_seq: 0,
        };
        self.shards[shard_idx].nodes.insert(local, state);
        let now = self.now;
        let cfg = self.cfg;
        {
            let env = PhaseEnv {
                cfg: &cfg,
                bootstrap: &self.bootstrap,
                latency: self.latency.as_ref(),
            };
            self.shards[shard_idx].execute(local, now, &env, |proto, ctx| proto.on_start(ctx));
        }
        // `on_start`'s messages are alone in the outboxes (barriers drain them) and
        // ascending — one sender, one instant, rising sequence numbers — so reversed
        // they are a run like a phase's, and the barrier's two steps deliver them now
        // like any other send.
        self.shards[shard_idx].outbox.reverse();
        self.gather_sorted(now);
        self.merge_batch();
        let shard = &mut self.shards[shard_idx];
        let state = shard.nodes.get_mut(local).expect("node just inserted");
        let phase = if cfg.random_phase {
            let period_ms = cfg.round_period.as_millis().max(1);
            SimDuration::from_millis(state.sched_rng.gen_range(0..period_ms))
        } else {
            cfg.round_period
        };
        shard.queue.schedule(now + phase, Event::Round { node: id });
    }

    /// In-flight messages addressed to the node are dropped when their delivery fires.
    fn remove_node(&mut self, id: NodeId) -> Option<P> {
        let (shard, local) = self.locate(id);
        let state = self.shards[shard].nodes.remove(local)?;
        self.bootstrap.unregister(id);
        self.delivery.node_removed(id);
        Some(state.proto)
    }

    /// Executes every phase whose window closes at or before `deadline`.
    fn run_until(&mut self, deadline: SimTime) {
        loop {
            let window_end = self.phase_end(self.next_phase);
            if window_end > deadline {
                break;
            }
            if self.hook.is_none() && self.shards.iter().all(|s| s.queue.is_empty()) {
                // Nothing queued anywhere (and rounds self-perpetuate, so nothing ever
                // will be until a node is added): skip ahead instead of spinning phases.
                // With a hook installed the phases must still run one by one, because
                // every barrier owes the hook a callback.
                self.next_phase = deadline.as_millis() / self.period_ms();
                break;
            }
            self.run_one_phase();
        }
        if deadline > self.now {
            self.now = deadline;
        }
    }

    fn for_each_node(&self, f: &mut dyn FnMut(NodeId, &P)) {
        self.walk_in_id_order(|state| f(state.id, &state.proto));
    }

    fn node_id_upper_bound(&self) -> u64 {
        // Shard `s` stores id `i` at local slot `i / stride`, so a shard whose arena has
        // `len` slots has seen ids up to `(len - 1) * stride + s`. The maximum over the
        // shards equals the highest id ever inserted plus one, which makes the bound
        // identical across worker counts for the same population.
        let stride = self.shards.len() as u64;
        self.shards
            .iter()
            .enumerate()
            .map(|(s, shard)| match shard.nodes.slot_upper_bound() as u64 {
                0 => 0,
                len => (len - 1) * stride + s as u64 + 1,
            })
            .max()
            .unwrap_or(0)
    }

    /// Aggregated across the barrier and all shards.
    fn network_stats(&self) -> NetworkStats {
        let mut stats = self.delivery.stats();
        for shard in &self.shards {
            stats.merge(shard.stats);
        }
        stats
    }

    /// Barrier-side drops and hook transfers plus every shard's sent/received counters.
    fn traffic_snapshot(&self) -> TrafficLedger {
        let mut merged = self.delivery.ledger.clone();
        for shard in &self.shards {
            merged.merge_from(&shard.traffic);
        }
        merged
    }

    fn reset_traffic_window(&mut self) {
        let now = self.now;
        self.delivery.ledger.reset_window(now);
        for shard in &mut self.shards {
            shard.traffic.reset_window(now);
        }
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
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Test protocol: each round, sends its round counter to the next node in a ring.
    struct Ring {
        n: u64,
        rounds: u64,
        received: Vec<(NodeId, u32)>,
        timer_fired: bool,
        /// Peers `on_start` sends to, one message each, numbered in list order.
        greet: Vec<NodeId>,
    }

    impl Ring {
        fn new(n: u64) -> Self {
            Ring {
                n,
                rounds: 0,
                received: Vec::new(),
                timer_fired: false,
                greet: Vec::new(),
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

    impl Protocol for Ring {
        type Message = Counter;

        fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
            ctx.set_timer(SimDuration::from_millis(10), TimerKey::new(1));
            for (k, peer) in self.greet.iter().enumerate() {
                ctx.send(*peer, Counter(k as u32));
            }
        }

        fn on_round(&mut self, ctx: &mut Context<'_, Self::Message>) {
            self.rounds += 1;
            let next = NodeId::new((ctx.node_id().as_u64() + 1) % self.n);
            ctx.send(next, Counter(self.rounds as u32));
        }

        fn on_message(
            &mut self,
            from: NodeId,
            msg: Self::Message,
            _ctx: &mut Context<'_, Self::Message>,
        ) {
            self.received.push((from, msg.0));
        }

        fn on_timer(&mut self, key: TimerKey, _ctx: &mut Context<'_, Self::Message>) {
            assert_eq!(key, TimerKey::new(1));
            self.timer_fired = true;
        }
    }

    impl PssNode for Ring {
        fn nat_class(&self) -> NatClass {
            NatClass::Public
        }

        fn known_peers(&self) -> Vec<NodeId> {
            self.received.iter().map(|(from, _)| *from).collect()
        }

        fn draw_sample(&mut self, _rng: &mut SmallRng) -> Option<NodeId> {
            self.received.last().map(|(from, _)| *from)
        }

        fn rounds_executed(&self) -> u64 {
            self.rounds
        }
    }

    fn ring_sim(n: u64, threads: usize) -> ShardedSimulation<Ring> {
        let mut sim = ShardedSimulation::new(
            SimulationConfig::default()
                .with_seed(11)
                .with_engine_threads(threads),
        );
        sim.set_latency_model(ConstantLatency::new(SimDuration::from_millis(10)));
        for i in 0..n {
            sim.add_node(NodeId::new(i), Ring::new(n));
        }
        sim
    }

    /// Per-node observable state: `(id, rounds executed, messages received)`.
    type NodeTrace = (u64, u64, Vec<(NodeId, u32)>);

    /// Everything observable about a run, for bit-identity comparisons.
    type Fingerprint = (Vec<NodeTrace>, NetworkStats, TrafficLedger);

    fn fingerprint(sim: &ShardedSimulation<Ring>) -> Fingerprint {
        let mut nodes: Vec<NodeTrace> = sim
            .nodes()
            .map(|(id, p)| (id.as_u64(), p.rounds, p.received.clone()))
            .collect();
        nodes.sort();
        (nodes, sim.network_stats(), sim.traffic_snapshot())
    }

    #[test]
    fn rounds_fire_and_messages_flow() {
        let mut sim = ring_sim(8, 2);
        sim.run_for_rounds(10);
        for (_, node) in sim.nodes() {
            assert!(node.rounds >= 8, "rounds executed: {}", node.rounds);
            assert!(!node.received.is_empty());
            assert!(node.timer_fired);
        }
        let stats = sim.network_stats();
        assert!(stats.delivered > 0);
        assert_eq!(stats.total(), stats.delivered, "no loss, no NAT, no deaths");
    }

    #[test]
    fn runs_are_bit_identical_across_worker_counts() {
        let run = |threads: usize| {
            let mut sim = ring_sim(13, threads);
            sim.run_for_rounds(25);
            fingerprint(&sim)
        };
        let one = run(1);
        let two = run(2);
        let four = run(4);
        assert_eq!(one, two, "1 vs 2 workers diverged");
        assert_eq!(one, four, "1 vs 4 workers diverged");
        assert!(one.1.delivered > 0);
    }

    #[test]
    fn on_start_sends_across_shards_are_judged_and_delivered_in_sequence_order() {
        use crate::network::DeliveryVerdict;
        use std::rc::Rc;

        /// Logs the order in which the barrier judges messages.
        struct Recorder(Rc<RefCell<Vec<(NodeId, NodeId)>>>);
        impl DeliveryFilter for Recorder {
            fn on_send(&mut self, from: NodeId, to: NodeId, _now: SimTime) {
                self.0.borrow_mut().push((from, to));
            }
            fn can_deliver(&mut self, _: NodeId, _: NodeId, _: SimTime) -> DeliveryVerdict {
                DeliveryVerdict::Deliver
            }
        }

        let greeter = NodeId::new(9);
        // Peers 0..4 stripe onto four (two, one) different shards; each is greeted twice.
        let greet: Vec<NodeId> = (0..8).map(|k| NodeId::new(k % 4)).collect();
        let run = |threads: usize| {
            let mut sim = ring_sim(8, threads);
            let judged = Rc::new(RefCell::new(Vec::new()));
            sim.set_delivery_filter(Recorder(Rc::clone(&judged)));
            let mut node = Ring::new(8);
            node.greet = greet.clone();
            sim.add_node(greeter, node);
            let at_join = judged.borrow().clone();
            sim.run_for_rounds(2);
            (at_join, fingerprint(&sim))
        };
        let one = run(1);
        let expected: Vec<_> = greet.iter().map(|to| (greeter, *to)).collect();
        assert_eq!(one.0, expected, "judged out of send order");
        for (id, _, received) in &one.1 .0[..4] {
            let k = *id as u32;
            assert_eq!(received[..2], [(greeter, k), (greeter, k + 4)]);
        }
        assert_eq!(one, run(2), "1 vs 2 workers diverged");
        assert_eq!(one, run(4), "1 vs 4 workers diverged");
    }

    #[test]
    fn fault_injection_is_bit_identical_across_worker_counts() {
        use crate::faults::FaultProfile;
        use crate::rng::Seed;
        use crate::time::SimDuration;
        let run = |threads: usize| {
            let mut sim = ring_sim(13, threads);
            let plane = FaultPlane::new(Seed::new(11));
            plane.set_default_profile(FaultProfile {
                burst: Some(crate::faults::BurstLoss {
                    enter_probability: 0.05,
                    exit_probability: 0.3,
                    good_loss: 0.0,
                    bad_loss: 0.6,
                }),
                ..FaultProfile::default()
                    .with_drop(0.1)
                    .with_duplicate(0.1)
                    .with_reorder(0.2, SimDuration::from_millis(500))
            });
            sim.set_fault_plane(plane);
            sim.run_for_rounds(25);
            (fingerprint(&sim), sim.fault_report())
        };
        let one = run(1);
        let two = run(2);
        let four = run(4);
        let eight = run(8);
        assert_eq!(one, two, "1 vs 2 workers diverged under faults");
        assert_eq!(one, four, "1 vs 4 workers diverged under faults");
        assert_eq!(one, eight, "1 vs 8 workers diverged under faults");
        let report = one.1;
        assert!(report.injected_drops > 0, "drop class never fired");
        assert!(report.burst_drops > 0, "burst class never fired");
        assert!(report.duplicates > 0, "duplicate class never fired");
        assert!(report.reorders > 0, "reorder class never fired");
        // Fault drops land in the loss counter; totals stay conserved.
        let stats = one.0 .1;
        assert!(stats.lost >= report.total_drops());
    }

    #[test]
    fn node_id_upper_bound_survives_churn_identically_across_worker_counts() {
        let run = |threads: usize| {
            let mut sim = ring_sim(12, threads);
            sim.run_for_rounds(3);
            assert_eq!(sim.node_id_upper_bound(), 12);
            for id in [2u64, 7, 11] {
                sim.remove_node(NodeId::new(id));
            }
            assert_eq!(
                sim.node_id_upper_bound(),
                12,
                "removals leave vacant slots; the bound must not shrink"
            );
            sim.add_node(NodeId::new(7), Ring::new(12)); // reuses the vacant slot
            sim.add_node(NodeId::new(12), Ring::new(12)); // grows the id space
            sim.run_for_rounds(2);
            sim.node_id_upper_bound()
        };
        assert_eq!(run(1), 13);
        assert_eq!(run(2), 13, "the bound must not depend on the shard stride");
        assert_eq!(run(4), 13, "the bound must not depend on the shard stride");
    }

    #[test]
    fn bit_identity_holds_with_default_king_latency_and_loss() {
        use crate::faults::FaultProfile;
        let run = |threads: usize| {
            let cfg = SimulationConfig::default()
                .with_seed(23)
                .with_engine_threads(threads);
            let mut sim = ShardedSimulation::new(cfg);
            let plane = FaultPlane::new(cfg.seed);
            plane.set_default_profile(FaultProfile::lossy(0.2));
            sim.set_fault_plane(plane);
            for i in 0..10 {
                sim.add_node(NodeId::new(i), Ring::new(10));
            }
            sim.run_for_rounds(20);
            fingerprint(&sim)
        };
        let a = run(1);
        let b = run(3);
        assert_eq!(a, b);
        assert!(a.1.lost > 0, "a 20% lossy plane should drop something");
    }

    #[test]
    fn traffic_ledger_accounts_bytes() {
        let mut sim = ring_sim(4, 2);
        sim.run_for_rounds(10);
        let ledger = sim.traffic_snapshot();
        let t = ledger.node_or_default(NodeId::new(1));
        assert!(t.bytes_sent >= 800, "ten rounds of 100-byte sends: {t:?}");
        assert!(t.bytes_received > 0);
        assert_eq!(ledger.total_bytes_sent() % 100, 0);
    }

    #[test]
    fn reset_traffic_window_clears_all_shards() {
        let mut sim = ring_sim(4, 2);
        sim.run_for_rounds(5);
        assert!(!sim.traffic_snapshot().is_empty());
        sim.reset_traffic_window();
        let ledger = sim.traffic_snapshot();
        assert!(ledger.is_empty());
        assert_eq!(ledger.window_start(), sim.now());
    }

    #[test]
    fn removed_node_stops_receiving_and_counts_as_gone() {
        let mut sim = ring_sim(4, 2);
        sim.run_for_rounds(3);
        assert!(sim.remove_node(NodeId::new(2)).is_some());
        assert!(!sim.contains(NodeId::new(2)));
        assert_eq!(sim.len(), 3);
        sim.run_for_rounds(5);
        assert!(sim.network_stats().destination_gone > 0);
    }

    #[test]
    #[should_panic(expected = "already part of the simulation")]
    fn duplicate_node_panics() {
        let mut sim = ring_sim(3, 2);
        sim.add_node(NodeId::new(1), Ring::new(3));
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let mut sim: ShardedSimulation<Ring> =
            ShardedSimulation::new(SimulationConfig::default().with_engine_threads(2));
        sim.run_until(SimTime::from_secs(42));
        assert_eq!(sim.now(), SimTime::from_secs(42));
    }

    #[test]
    fn sample_from_uses_protocol_rule() {
        let mut sim = ring_sim(4, 2);
        sim.run_for_rounds(5);
        assert!(sim.sample_from(NodeId::new(1)).is_some());
        assert_eq!(sim.sample_from(NodeId::new(99)), None);
    }

    use std::rc::Rc;

    /// Records every barrier the engine hands to the hook.
    struct Recorder(Rc<RefCell<Vec<(u64, SimTime)>>>);

    impl RoundHook for Recorder {
        fn on_round_barrier(&mut self, round: u64, now: SimTime) {
            self.0.borrow_mut().push((round, now));
        }
    }

    #[test]
    fn round_hook_fires_once_per_phase_barrier() {
        let mut sim = ring_sim(8, 2);
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.set_round_hook(Box::new(Recorder(Rc::clone(&log))));
        sim.run_for_rounds(3);
        let now = sim.now();
        sim.run_until(now); // a no-op window must not re-fire barriers
        sim.run_for_rounds(2);
        let fired = log.borrow().clone();
        let expected: Vec<(u64, SimTime)> = (1..=5).map(|n| (n, SimTime::from_secs(n))).collect();
        assert_eq!(fired, expected);
    }

    /// Draws one sample from node 0 per barrier and logs it.
    struct DrawProbe(Rc<RefCell<Vec<Option<NodeId>>>>);

    impl RoundHook for DrawProbe {
        fn on_round_barrier(&mut self, _round: u64, _now: SimTime) {}

        fn on_round_barrier_with(&mut self, _round: u64, _now: SimTime, ops: &mut dyn HookOps) {
            self.0.borrow_mut().push(ops.draw_sample(NodeId::new(0)));
        }
    }

    #[test]
    fn sampled_hook_draws_through_the_protocol_rule_and_plain_hook_does_not() {
        // Ring's sampling rule returns the most recent sender; after a couple of rounds
        // node 0's is its ring predecessor.
        let mut sim = ring_sim(4, 2);
        let draws = Rc::new(RefCell::new(Vec::new()));
        sim.set_sampled_round_hook(Box::new(DrawProbe(Rc::clone(&draws))));
        sim.run_for_rounds(4);
        assert_eq!(
            draws.borrow().last(),
            Some(&Some(NodeId::new(3))),
            "the sampled installer must serve protocol-rule draws"
        );
        // Re-installing through the plain entry point must drop the sampling rule.
        draws.borrow_mut().clear();
        sim.set_round_hook(Box::new(DrawProbe(Rc::clone(&draws))));
        sim.run_for_rounds(2);
        assert_eq!(
            draws.borrow().as_slice(),
            &[None, None],
            "set_round_hook must clear the captured sampler"
        );
    }

    #[test]
    fn round_hook_fires_even_with_empty_queues() {
        let mut sim: ShardedSimulation<Ring> =
            ShardedSimulation::new(SimulationConfig::default().with_engine_threads(3));
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.set_round_hook(Box::new(Recorder(Rc::clone(&log))));
        sim.run_until(SimTime::from_secs(4));
        assert_eq!(log.borrow().len(), 4, "no events, but every barrier fires");
        assert_eq!(sim.now(), SimTime::from_secs(4));
    }

    #[test]
    fn round_hook_runs_do_not_perturb_bit_identity() {
        // A hook that only observes must leave the run byte-for-byte unchanged, and the
        // barrier sequence itself must be identical across worker counts.
        let run = |threads: usize| {
            let mut sim = ring_sim(13, threads);
            let log = Rc::new(RefCell::new(Vec::new()));
            sim.set_round_hook(Box::new(Recorder(Rc::clone(&log))));
            sim.run_for_rounds(15);
            let barriers = log.borrow().clone();
            (fingerprint(&sim), barriers)
        };
        let baseline = {
            let mut sim = ring_sim(13, 1);
            sim.run_for_rounds(15);
            fingerprint(&sim)
        };
        let (fp1, log1) = run(1);
        let (fp4, log4) = run(4);
        assert_eq!(fp1, baseline, "observer hook changed the run");
        assert_eq!(fp1, fp4, "1 vs 4 workers diverged under a hook");
        assert_eq!(log1, log4, "barrier sequences diverged");
        assert_eq!(log1.len(), 15);
    }

    #[test]
    fn node_ids_are_sorted_and_accessors_agree() {
        // The id lists seen after each membership step, checked on the way.
        let ids_under_churn = |threads: usize| {
            let mut sim = ring_sim(9, threads);
            assert_eq!(sim.shards.len(), threads);
            let mut seen = Vec::new();
            let mut check = |sim: &ShardedSimulation<Ring>| {
                let ids = sim.node_ids();
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "{threads}: {ids:?}");
                assert_eq!(ids.len(), sim.len());
                let mut walked = Vec::new();
                sim.live_node_ids_into(&mut walked);
                assert_eq!(
                    walked, ids,
                    "{threads} shards: the walk and node_ids disagree"
                );
                seen.push(ids);
            };
            check(&sim);
            assert!(sim.node(NodeId::new(5)).is_some());
            sim.remove_node(NodeId::new(5)).unwrap();
            sim.remove_node(NodeId::new(0)).unwrap();
            check(&sim);
            sim.add_node(NodeId::new(20), Ring::new(9));
            sim.add_node(NodeId::new(5), Ring::new(9));
            check(&sim);
            sim.run_for_rounds(2);
            sim.remove_node(NodeId::new(8)).unwrap();
            check(&sim);
            seen
        };
        let one = ids_under_churn(1);
        assert_eq!(one[0].len(), 9);
        assert!(!one[1].contains(&NodeId::new(5)) && !one[1].contains(&NodeId::new(0)));
        assert!(one[2].contains(&NodeId::new(20)) && one[2].contains(&NodeId::new(5)));
        for threads in 2..=4 {
            assert_eq!(ids_under_churn(threads), one, "{threads} shards");
        }
    }

    /// Counts the live payloads of a run and the clones among them.
    #[derive(Debug, Default)]
    struct Ledger {
        live: AtomicUsize,
        clones: AtomicUsize,
    }

    /// A payload that keeps [`Ledger`]'s counts and remembers a fault-plane corruption.
    #[derive(Debug)]
    struct Tracked {
        ledger: Arc<Ledger>,
        corrupted: bool,
    }

    impl Tracked {
        fn new(ledger: &Arc<Ledger>) -> Self {
            ledger.live.fetch_add(1, Ordering::Relaxed);
            Tracked {
                ledger: Arc::clone(ledger),
                corrupted: false,
            }
        }
    }

    impl Clone for Tracked {
        fn clone(&self) -> Self {
            self.ledger.clones.fetch_add(1, Ordering::Relaxed);
            let mut copy = Tracked::new(&self.ledger);
            copy.corrupted = self.corrupted;
            copy
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.ledger.live.fetch_sub(1, Ordering::Relaxed);
        }
    }

    impl WireSize for Tracked {
        fn wire_size(&self) -> usize {
            64
        }

        fn fault_mutate(&mut self, _rng: &mut SmallRng) {
            self.corrupted = true;
        }
    }

    /// Each round sends a [`Tracked`] to the node's ring successor and to the node five
    /// further on, so most messages cross shards; logs `(sender, corrupted)` of what
    /// arrives.
    struct Relay {
        n: u64,
        ledger: Arc<Ledger>,
        received: Vec<(NodeId, bool)>,
    }

    impl Protocol for Relay {
        type Message = Tracked;

        fn on_start(&mut self, _ctx: &mut Context<'_, Tracked>) {}

        fn on_round(&mut self, ctx: &mut Context<'_, Tracked>) {
            let me = ctx.node_id().as_u64();
            for hop in [1, 6] {
                ctx.send(NodeId::new((me + hop) % self.n), Tracked::new(&self.ledger));
            }
        }

        fn on_message(&mut self, from: NodeId, msg: Tracked, _ctx: &mut Context<'_, Tracked>) {
            self.received.push((from, msg.corrupted));
        }
    }

    const RELAY_NODES: u64 = 24;

    fn relay_sim(threads: usize, ledger: &Arc<Ledger>) -> ShardedSimulation<Relay> {
        let cfg = SimulationConfig::default()
            .with_seed(5)
            .with_engine_threads(threads);
        let mut sim = ShardedSimulation::new(cfg);
        for i in 0..RELAY_NODES {
            let node = Relay {
                n: RELAY_NODES,
                ledger: Arc::clone(ledger),
                received: Vec::new(),
            };
            sim.add_node(NodeId::new(i), node);
        }
        sim
    }

    /// Payloads live only in the event queues between barriers: no outbox keeps one,
    /// whatever the filter refuses and the plane drops or duplicates; the only clones
    /// are the plane's duplicates.
    #[test]
    fn between_barriers_every_payload_waits_in_a_queue() {
        use crate::faults::FaultProfile;
        use crate::network::DeliveryVerdict;

        /// Refuses every message to one node.
        struct BlockOne(NodeId);
        impl DeliveryFilter for BlockOne {
            fn on_send(&mut self, _: NodeId, _: NodeId, _: SimTime) {}
            fn can_deliver(&mut self, _: NodeId, to: NodeId, _: SimTime) -> DeliveryVerdict {
                if to == self.0 {
                    DeliveryVerdict::BlockedByNat
                } else {
                    DeliveryVerdict::Deliver
                }
            }
        }

        for threads in [1, 2, 4] {
            let ledger = Arc::new(Ledger::default());
            let mut sim = relay_sim(threads, &ledger);
            let blocked = NodeId::new(3);
            sim.set_delivery_filter(BlockOne(blocked));
            let plane = FaultPlane::new(sim.config().seed);
            let lossy = FaultProfile::default().with_drop(0.2);
            plane.set_default_profile(
                lossy
                    .with_duplicate(0.3)
                    .with_reorder(0.2, SimDuration::from_millis(1_500)),
            );
            // The plane counts a duplicate when it decides one, the filter may refuse
            // the message after that: only links the filter never refuses duplicate.
            plane.set_link_profile(blocked, lossy);
            sim.set_fault_plane(plane);
            for _ in 0..12 {
                sim.run_for_rounds(1);
                assert!(sim.shards.iter().all(|s| s.outbox.is_empty()), "{threads}");
                let queued: usize = sim.shards.iter().map(|s| s.queue.queued_deliveries()).sum();
                assert_eq!(ledger.live.load(Ordering::Relaxed), queued, "{threads}");
            }
            let (report, stats) = (sim.fault_report(), sim.network_stats());
            assert!(report.injected_drops > 0 && report.duplicates > 0 && report.reorders > 0);
            assert!(stats.blocked_by_nat > 0, "the filter must refuse something");
            let clones = ledger.clones.load(Ordering::Relaxed) as u64;
            assert_eq!(clones, report.duplicates, "{threads}");
        }
    }

    /// The plane corrupts a message in its sender's outbox during the merge, and that
    /// same message is the one the outcome pass moves on: every message to or from the
    /// corrupting node arrives flagged, and no other does.
    #[test]
    fn corruption_lands_on_the_message_that_travels() {
        use crate::faults::FaultProfile;
        let x = NodeId::new(7);
        let run = |threads: usize| {
            let ledger = Arc::new(Ledger::default());
            let mut sim = relay_sim(threads, &ledger);
            let plane = FaultPlane::new(sim.config().seed);
            plane.set_link_profile(x, FaultProfile::default().with_corrupt(1.0));
            sim.set_fault_plane(plane);
            sim.run_for_rounds(6);
            let mut log: Vec<(NodeId, Vec<(NodeId, bool)>)> = sim
                .nodes()
                .map(|(id, relay)| (id, relay.received.clone()))
                .collect();
            log.sort_by_key(|(id, _)| *id);
            log
        };
        let one = run(1);
        let (mut to_x, mut from_x) = (0, 0);
        for (to, received) in &one {
            for &(from, corrupted) in received {
                assert_eq!(corrupted, from == x || *to == x, "{from} -> {to}");
                to_x += usize::from(*to == x);
                from_x += usize::from(from == x);
            }
        }
        assert!(to_x > 0 && from_x > 0, "X must send and receive");
        assert_eq!(one, run(2), "1 vs 2 workers diverged");
        assert_eq!(one, run(4), "1 vs 4 workers diverged");
    }

    /// Every barrier of this run schedules more survivors than
    /// [`PARALLEL_BARRIER_THRESHOLD`], the batch size from which the filter is offered
    /// worker threads; runs on 2 and 4 shards must still be bit-identical to the
    /// one-shard run.
    #[test]
    fn large_barriers_are_bit_identical_across_worker_counts() {
        let run = |threads: usize| {
            let mut sim = ring_sim(20_000, threads);
            for _ in 0..3 {
                sim.run_for_rounds(1);
                let queued: usize = sim.shards.iter().map(|s| s.queue.queued_deliveries()).sum();
                assert!(queued > PARALLEL_BARRIER_THRESHOLD, "{threads}: {queued}");
            }
            fingerprint(&sim)
        };
        let one = run(1);
        assert_eq!(one, run(2), "1 vs 2 workers diverged");
        assert_eq!(one, run(4), "1 vs 4 workers diverged");
    }
}
