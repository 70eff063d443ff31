//! The protocol abstraction driven by the engine.
//!
//! A protocol is a per-node state machine reacting to three kinds of events: the start of
//! its periodic gossip round, the delivery of a message, and the expiry of a timer it set
//! itself. All interaction with the outside world goes through the [`Context`] handed to
//! each callback, which keeps protocols completely deterministic and trivially testable
//! without an engine.

use rand::rngs::SmallRng;

use crate::bootstrap::BootstrapRegistry;
use crate::faults::RetryPolicy;
use crate::time::{SimDuration, SimTime};
use crate::types::{NatClass, NodeId};

/// Identifies a timer set by a protocol so the protocol can tell its timers apart.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TimerKey(u64);

impl TimerKey {
    /// Creates a timer key from a raw value chosen by the protocol.
    pub const fn new(raw: u64) -> Self {
        TimerKey(raw)
    }

    /// The raw value of the key.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

/// Measures the on-the-wire size of a message in bytes.
///
/// The size should include transport headers so that overhead experiments report realistic
/// byte counts; the Croupier crates use 28 bytes of UDP/IPv4 header plus payload.
pub trait WireSize {
    /// Serialized size of the message in bytes, including headers.
    fn wire_size(&self) -> usize;

    /// Corrupts the message in place, as a truncated or bit-flipped datagram would
    /// deserialize (drop list entries, scramble identifiers and enum fields, …), drawing
    /// any randomness from `rng`.
    ///
    /// Called by the engines when the [`FaultPlane`](crate::FaultPlane) decides to
    /// corrupt a payload. The default is a no-op (corruption injection silently does
    /// nothing for message types that opt out); protocol crates override it so the fuzz
    /// and fault scenarios exercise their decode-hardening paths. Implementations must
    /// keep the message *structurally* valid — corruption models damage the engines'
    /// typed channel can express, not arbitrary memory.
    fn fault_mutate(&mut self, rng: &mut SmallRng) {
        let _ = rng;
    }
}

/// A message queued for sending by a protocol callback.
#[derive(Clone, Debug, PartialEq)]
pub struct Outgoing<M> {
    /// Destination node.
    pub to: NodeId,
    /// Message payload.
    pub msg: M,
}

/// A timer requested by a protocol callback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerRequest {
    /// How long from now the timer should fire.
    pub delay: SimDuration,
    /// Key passed back to [`Protocol::on_timer`].
    pub key: TimerKey,
}

/// The inputs a [`Context`] needs for one callback invocation.
///
/// Bundling them in a struct (instead of six same-typed positional arguments) makes the
/// construction sites self-describing and removes the arg-order foot-gun from protocol
/// unit tests.
pub struct ContextParams<'a> {
    /// Identity of the node the callback runs on.
    pub node: NodeId,
    /// Current simulated time.
    pub now: SimTime,
    /// The gossip round period configured on the engine.
    pub round_period: SimDuration,
    /// How long the engine itself can keep the reply to a message sent now from being
    /// executed, on top of the network latencies. Zero on the event engine, which
    /// executes a message the instant it arrives; two round periods on the sharded
    /// engine, where a request and its reply each wait for a barrier (see
    /// [`Context::retry_policy`]).
    pub reply_horizon: SimDuration,
    /// The node's private random stream.
    pub rng: &'a mut SmallRng,
    /// The shared bootstrap service.
    pub bootstrap: &'a BootstrapRegistry,
}

/// The execution context given to every protocol callback, and the collector of the
/// callback's effects.
///
/// Everything a callback may do to the outside world — read its identity and the clock,
/// draw from the node's private random stream, send, arm timers, sample the bootstrap
/// service — goes through this one concrete object, so no engine type appears in a
/// protocol crate. Sends and timers are recorded into two buffers the engine owns and
/// recycles: [`into_effects`](Context::into_effects) hands them back, the engine drains
/// them, and the next callback reuses the retained capacity — zero allocations per event
/// in steady state (pinned by `tests/alloc_counter.rs`). The context draws no randomness
/// of its own (see DESIGN.md §13).
pub struct Context<'a, M> {
    params: ContextParams<'a>,
    outbox: Vec<Outgoing<M>>,
    timers: Vec<TimerRequest>,
}

impl<'a, M> Context<'a, M> {
    /// Creates a context with fresh effect buffers. Used by protocol unit tests; the
    /// engines recycle their buffers through [`Context::with_buffers`] instead.
    pub fn new(params: ContextParams<'a>) -> Self {
        Context::with_buffers(params, Vec::new(), Vec::new())
    }

    /// Creates a context that collects effects into caller-provided buffers.
    ///
    /// The buffers are cleared here, so passing a dirty buffer is harmless.
    pub fn with_buffers(
        params: ContextParams<'a>,
        mut outbox: Vec<Outgoing<M>>,
        mut timers: Vec<TimerRequest>,
    ) -> Self {
        outbox.clear();
        timers.clear();
        Context {
            params,
            outbox,
            timers,
        }
    }

    /// Consumes the context, returning queued messages and timer requests.
    pub fn into_effects(self) -> (Vec<Outgoing<M>>, Vec<TimerRequest>) {
        (self.outbox, self.timers)
    }

    /// Identity of the node executing the callback.
    pub fn node_id(&self) -> NodeId {
        self.params.node
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.params.now
    }

    /// The gossip round period configured on the engine.
    pub fn round_period(&self) -> SimDuration {
        self.params.round_period
    }

    /// The timeout/retry schedule for a request sent now: the shared
    /// [`RetryPolicy::for_round_period`] schedule, shifted past the engine's
    /// [reply horizon](ContextParams::reply_horizon) so no retransmission is armed before
    /// a reply can exist.
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy::for_round_period(self.params.round_period)
            .after_reply_horizon(self.params.reply_horizon)
    }

    /// The node's private random number generator.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.params.rng
    }

    /// Queues `msg` for sending to `to`.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push(Outgoing { to, msg });
    }

    /// Requests a timer that fires after `delay`, identified by `key`.
    pub fn set_timer(&mut self, delay: SimDuration, key: TimerKey) {
        self.timers.push(TimerRequest { delay, key });
    }

    /// Samples up to `count` public nodes from the bootstrap server, excluding the caller.
    pub fn bootstrap_sample(&mut self, count: usize) -> Vec<NodeId> {
        self.params
            .bootstrap
            .sample_excluding(count, self.params.node, self.params.rng)
    }

    /// Messages queued so far (used by tests driving a protocol without the engine).
    pub fn outbox(&self) -> &[Outgoing<M>] {
        &self.outbox
    }
}

/// A per-node protocol state machine.
///
/// Implementations must be deterministic given the context's random stream: they must not
/// consult global state, wall-clock time or thread-local RNGs.
pub trait Protocol: Sized {
    /// The message type exchanged by this protocol.
    type Message: Clone + std::fmt::Debug + WireSize;

    /// Invoked once when the node joins the simulation.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>);

    /// Invoked at the start of each of the node's periodic gossip rounds.
    fn on_round(&mut self, ctx: &mut Context<'_, Self::Message>);

    /// Invoked when a message from `from` is delivered to this node.
    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Message,
        ctx: &mut Context<'_, Self::Message>,
    );

    /// Invoked when a timer set through [`Context::set_timer`] fires.
    fn on_timer(&mut self, _key: TimerKey, _ctx: &mut Context<'_, Self::Message>) {}
}

/// A peer-sampling protocol as seen by the evaluation harness.
///
/// Every PSS in the workspace (Croupier, Cyclon, Nylon, Gozar) implements this trait so the
/// metrics and experiment crates can treat them uniformly.
pub trait PssNode: Protocol {
    /// The node's connectivity class.
    fn nat_class(&self) -> NatClass;

    /// The node identifiers currently present in the node's partial view(s); these are the
    /// outgoing edges of the overlay graph.
    fn known_peers(&self) -> Vec<NodeId>;

    /// Invokes `visit` once per known peer, in the same order as
    /// [`known_peers`](PssNode::known_peers) but without materialising a `Vec`.
    ///
    /// Snapshot capture calls this once per node per metrics sample, so protocols whose
    /// views can be iterated in place should override the default (which delegates to
    /// `known_peers` and therefore still allocates).
    fn for_each_known_peer(&self, visit: &mut dyn FnMut(NodeId)) {
        for peer in self.known_peers() {
            visit(peer);
        }
    }

    /// The node's current estimate of the public/private ratio, if the protocol computes
    /// one (only Croupier does).
    fn ratio_estimate(&self) -> Option<f64> {
        None
    }

    /// Draws one peer sample, following the protocol's sampling rule.
    fn draw_sample(&mut self, rng: &mut SmallRng) -> Option<NodeId>;

    /// Number of gossip rounds this node has executed since it joined.
    fn rounds_executed(&self) -> u64;

    /// Number of exchange retries this node has fired after a timeout. Protocols without
    /// timeout/retry hardening report zero.
    fn retries_fired(&self) -> u64 {
        0
    }

    /// Number of exchanges this node has abandoned: retry budget exhausted, or an
    /// unanswered exchange displaced by a newer one. Protocols without exchange
    /// bookkeeping report zero.
    fn exchanges_abandoned(&self) -> u64 {
        0
    }
}

/// Helper: draw a random subset of `count` distinct elements from `items`.
///
/// The order of the returned subset is random. If `count >= items.len()` a shuffled copy of
/// the whole slice is returned. Implemented as a partial Fisher–Yates over indices, so it
/// draws only `min(count, len)` random numbers and never clones elements beyond the
/// returned subset.
pub fn random_subset<T: Clone>(items: &[T], count: usize, rng: &mut SmallRng) -> Vec<T> {
    let picked = rand::seq::index::sample(rng, items.len(), count.min(items.len()));
    picked.into_iter().map(|i| items[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[derive(Clone, Debug, PartialEq)]
    struct TestMsg(u32);

    impl WireSize for TestMsg {
        fn wire_size(&self) -> usize {
            32
        }
    }

    fn params<'a>(
        node: u64,
        rng: &'a mut SmallRng,
        bootstrap: &'a BootstrapRegistry,
    ) -> ContextParams<'a> {
        ContextParams {
            node: NodeId::new(node),
            now: SimTime::from_millis(10),
            round_period: SimDuration::from_secs(1),
            reply_horizon: SimDuration::ZERO,
            rng,
            bootstrap,
        }
    }

    #[test]
    fn context_collects_messages_and_timers() {
        let bootstrap = BootstrapRegistry::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ctx: Context<'_, TestMsg> = Context::new(params(1, &mut rng, &bootstrap));
        ctx.send(NodeId::new(2), TestMsg(7));
        ctx.set_timer(SimDuration::from_millis(100), TimerKey::new(3));
        assert_eq!(ctx.node_id(), NodeId::new(1));
        assert_eq!(ctx.now(), SimTime::from_millis(10));
        assert_eq!(ctx.round_period(), SimDuration::from_secs(1));
        assert_eq!(ctx.outbox().len(), 1);
        let (outbox, timers) = ctx.into_effects();
        assert_eq!(outbox.len(), 1);
        assert_eq!(outbox[0].to, NodeId::new(2));
        assert_eq!(outbox[0].msg, TestMsg(7));
        assert_eq!(
            timers,
            vec![TimerRequest {
                delay: SimDuration::from_millis(100),
                key: TimerKey::new(3)
            }]
        );
    }

    #[test]
    fn with_buffers_clears_dirty_buffers_and_keeps_capacity() {
        let bootstrap = BootstrapRegistry::new();
        let mut rng = SmallRng::seed_from_u64(10);
        let mut dirty_out: Vec<Outgoing<TestMsg>> = Vec::with_capacity(16);
        dirty_out.push(Outgoing {
            to: NodeId::new(1),
            msg: TestMsg(0),
        });
        let dirty_timers: Vec<TimerRequest> = Vec::with_capacity(8);
        let ctx = Context::with_buffers(params(1, &mut rng, &bootstrap), dirty_out, dirty_timers);
        let (outbox, timers) = ctx.into_effects();
        assert!(outbox.is_empty(), "dirty buffer must be cleared");
        assert!(outbox.capacity() >= 16, "capacity must be retained");
        assert!(timers.is_empty());
    }

    #[test]
    fn retry_policy_follows_the_transports_reply_horizon() {
        let bootstrap = BootstrapRegistry::new();
        let period = SimDuration::from_secs(1);
        let policy_at = |reply_horizon| {
            let mut rng = SmallRng::seed_from_u64(5);
            Context::<TestMsg>::new(ContextParams {
                reply_horizon,
                ..params(1, &mut rng, &bootstrap)
            })
            .retry_policy()
        };
        assert_eq!(
            policy_at(SimDuration::ZERO),
            RetryPolicy::for_round_period(period)
        );
        let sharded = policy_at(period.saturating_mul(2));
        assert_eq!(sharded.backoff(0), SimDuration::from_millis(2_500));
        assert_eq!(
            sharded.backoff(1),
            SimDuration::from_millis(4_000),
            "capped at 2·period + horizon"
        );
        assert!(sharded.exhausted(3) && !sharded.exhausted(2));
    }

    #[test]
    fn bootstrap_sample_excludes_self() {
        let mut bootstrap = BootstrapRegistry::new();
        bootstrap.register(NodeId::new(1));
        bootstrap.register(NodeId::new(2));
        let mut rng = SmallRng::seed_from_u64(2);
        let mut ctx: Context<'_, TestMsg> = Context::new(params(1, &mut rng, &bootstrap));
        let sample = ctx.bootstrap_sample(5);
        assert_eq!(sample, vec![NodeId::new(2)]);
    }

    #[test]
    fn random_subset_respects_count_and_membership() {
        let items: Vec<u32> = (0..20).collect();
        let mut rng = SmallRng::seed_from_u64(3);
        let subset = random_subset(&items, 5, &mut rng);
        assert_eq!(subset.len(), 5);
        assert!(subset.iter().all(|v| items.contains(v)));
        // Distinctness.
        let mut sorted = subset.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
    }

    #[test]
    fn random_subset_larger_than_input_returns_all() {
        let items = vec![1, 2, 3];
        let mut rng = SmallRng::seed_from_u64(4);
        let mut subset = random_subset(&items, 10, &mut rng);
        subset.sort_unstable();
        assert_eq!(subset, vec![1, 2, 3]);
    }

    #[test]
    fn timer_key_roundtrip() {
        assert_eq!(TimerKey::new(9).as_u64(), 9);
    }
}
