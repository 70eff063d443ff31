//! The traced pass: spans kept in memory, and the forwarding wrappers that time every
//! call from the engine into a protocol, the delivery filter or a round hook.
//!
//! Nothing here lives inside the program under test. The wrappers implement the same
//! public traits as the things they wrap and forward every call unchanged, so a traced
//! run simulates exactly what the untraced run does — the benchmark checks that by
//! comparing sim digests.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use croupier_simulator::{
    Context, DeliveryFilter, DeliveryVerdict, HookOps, NatClass, NodeId, Protocol, PssNode,
    RoundHook, SimTime, TimerKey,
};
use rand::rngs::SmallRng;

use crate::json::Value;

pub(crate) type SpanId = usize;

/// One recorded interval. `run` is shared by all spans of one driver run, `parent` is
/// the span that caused this one.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Span {
    pub(crate) name: &'static str,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
    pub(crate) parent: Option<SpanId>,
    pub(crate) run: u32,
}

impl Span {
    pub(crate) fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store; written out once, when the workload ends.
#[derive(Debug)]
pub(crate) struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub(crate) fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`end`](Self::end).
    pub(crate) fn begin(&mut self, name: &'static str, parent: Option<SpanId>, run: u32) -> SpanId {
        let now = self.now_ns();
        self.push(name, parent, run, now, now)
    }

    pub(crate) fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span whose duration was accumulated by a wrapper's clock over many
    /// short calls inside `parent` (one span per protocol callback would be millions);
    /// it is anchored at the parent's start.
    pub(crate) fn aggregate(
        &mut self,
        name: &'static str,
        parent: SpanId,
        duration_ns: u64,
    ) -> SpanId {
        let (start, run) = (self.spans[parent].start_ns, self.spans[parent].run);
        self.push(name, Some(parent), run, start, start + duration_ns)
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            run,
        });
        self.spans.len() - 1
    }

    pub(crate) fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time of all spans called `name`: each span's duration minus what its
    /// direct children cover. One pass over the spans, so it stays linear however many
    /// `name` spans there are.
    pub(crate) fn total_self_ns(&self, name: &str) -> u64 {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.duration_ns().saturating_sub(*c))
            .sum()
    }

    pub(crate) fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::obj(vec![
                        ("id", Value::Num(id as f64)),
                        ("name", Value::str(s.name)),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("run", Value::Num(f64::from(s.run))),
                    ])
                })
                .collect(),
        )
    }
}

/// Callback time of one driver run, binned by shard and by simulated round.
///
/// The sharded engine runs shard `id mod S` on its own worker thread, so binning by the
/// same stripe gives per-thread busy time without thread identity: a phase blocks on its
/// slowest shard, and [`blocking_ns`](Self::blocking_ns) is that maximum. Counters are
/// relaxed atomics: they publish nothing, and each shard's bins are written by one thread
/// at a time.
#[derive(Debug)]
pub(crate) struct CallbackClock {
    shards: usize,
    rounds: usize,
    round_ms: u64,
    on_round_ns: Vec<AtomicU64>,
    on_message_ns: Vec<AtomicU64>,
    on_timer_ns: Vec<AtomicU64>,
    on_round_calls: AtomicU64,
    on_message_calls: AtomicU64,
    on_start_ns: AtomicU64,
}

impl CallbackClock {
    pub(crate) fn new(shards: usize, rounds: u64, round_ms: u64) -> Arc<Self> {
        let shards = shards.max(1);
        // One spare bin: callbacks at exactly the final barrier instant.
        let rounds = rounds as usize + 1;
        let bins = || (0..shards * rounds).map(|_| AtomicU64::new(0)).collect();
        Arc::new(CallbackClock {
            shards,
            rounds,
            round_ms: round_ms.max(1),
            on_round_ns: bins(),
            on_message_ns: bins(),
            on_timer_ns: bins(),
            on_round_calls: AtomicU64::new(0),
            on_message_calls: AtomicU64::new(0),
            on_start_ns: AtomicU64::new(0),
        })
    }

    /// Bin of a callback on `node` at simulated time `now`: round `r` (1-based) covers
    /// `[(r-1)·period, r·period)`.
    fn bin(&self, node: NodeId, now: SimTime) -> usize {
        let shard = (node.as_u64() % self.shards as u64) as usize;
        let round = ((now.as_millis() / self.round_ms) as usize).min(self.rounds - 1);
        shard * self.rounds + round
    }

    /// Callback nanoseconds of round `round` (1-based) on the slowest shard.
    pub(crate) fn blocking_ns(&self, round: u64) -> u64 {
        (0..self.shards)
            .map(|shard| self.shard_round_ns(shard, round))
            .max()
            .unwrap_or(0)
    }

    /// Callback nanoseconds of round `round` (1-based) summed over shards.
    pub(crate) fn round_total_ns(&self, round: u64) -> u64 {
        (0..self.shards)
            .map(|shard| self.shard_round_ns(shard, round))
            .sum()
    }

    fn shard_round_ns(&self, shard: usize, round: u64) -> u64 {
        let index = shard * self.rounds + (round as usize - 1).min(self.rounds - 1);
        self.on_round_ns[index].load(Relaxed)
            + self.on_message_ns[index].load(Relaxed)
            + self.on_timer_ns[index].load(Relaxed)
    }

    fn sum(bins: &[AtomicU64]) -> u64 {
        bins.iter().map(|b| b.load(Relaxed)).sum()
    }

    pub(crate) fn on_round_total(&self) -> (u64, u64) {
        (
            Self::sum(&self.on_round_ns),
            self.on_round_calls.load(Relaxed),
        )
    }

    pub(crate) fn on_message_total(&self) -> (u64, u64) {
        (
            Self::sum(&self.on_message_ns),
            self.on_message_calls.load(Relaxed),
        )
    }

    /// All callback nanoseconds: rounds, messages, timers and `on_start`.
    pub(crate) fn total_ns(&self) -> u64 {
        Self::sum(&self.on_round_ns)
            + Self::sum(&self.on_message_ns)
            + Self::sum(&self.on_timer_ns)
            + self.on_start_ns.load(Relaxed)
    }

    pub(crate) fn on_start_ns(&self) -> u64 {
        self.on_start_ns.load(Relaxed)
    }
}

/// A protocol that forwards every call to `inner` and charges the time to a
/// [`CallbackClock`].
pub(crate) struct Timed<P> {
    inner: P,
    clock: Arc<CallbackClock>,
}

impl<P> Timed<P> {
    pub(crate) fn new(inner: P, clock: Arc<CallbackClock>) -> Self {
        Timed { inner, clock }
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Message = P::Message;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
        let start = Instant::now();
        self.inner.on_start(ctx);
        self.clock
            .on_start_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Self::Message>) {
        let bin = self.clock.bin(ctx.node_id(), ctx.now());
        let start = Instant::now();
        self.inner.on_round(ctx);
        self.clock.on_round_ns[bin].fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        self.clock.on_round_calls.fetch_add(1, Relaxed);
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Message,
        ctx: &mut Context<'_, Self::Message>,
    ) {
        let bin = self.clock.bin(ctx.node_id(), ctx.now());
        let start = Instant::now();
        self.inner.on_message(from, msg, ctx);
        self.clock.on_message_ns[bin].fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        self.clock.on_message_calls.fetch_add(1, Relaxed);
    }

    fn on_timer(&mut self, key: TimerKey, ctx: &mut Context<'_, Self::Message>) {
        let bin = self.clock.bin(ctx.node_id(), ctx.now());
        let start = Instant::now();
        self.inner.on_timer(key, ctx);
        self.clock.on_timer_ns[bin].fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
    }
}

impl<P: PssNode> PssNode for Timed<P> {
    fn nat_class(&self) -> NatClass {
        self.inner.nat_class()
    }

    fn known_peers(&self) -> Vec<NodeId> {
        self.inner.known_peers()
    }

    fn for_each_known_peer(&self, visit: &mut dyn FnMut(NodeId)) {
        self.inner.for_each_known_peer(visit);
    }

    fn ratio_estimate(&self) -> Option<f64> {
        self.inner.ratio_estimate()
    }

    fn draw_sample(&mut self, rng: &mut SmallRng) -> Option<NodeId> {
        self.inner.draw_sample(rng)
    }

    fn rounds_executed(&self) -> u64 {
        self.inner.rounds_executed()
    }

    fn retries_fired(&self) -> u64 {
        self.inner.retries_fired()
    }

    fn exchanges_abandoned(&self) -> u64 {
        self.inner.exchanges_abandoned()
    }
}

/// Time and verdict counts of a [`TimedFilter`]. The engines consult the filter from
/// the coordinating thread only; the atomics are there because the clock is shared with
/// the driver that reads it.
#[derive(Debug, Default)]
pub(crate) struct FilterClock {
    pub(crate) on_send_ns: AtomicU64,
    pub(crate) on_send_calls: AtomicU64,
    pub(crate) can_deliver_ns: AtomicU64,
    pub(crate) can_deliver_calls: AtomicU64,
    pub(crate) delivered: AtomicU64,
}

impl FilterClock {
    pub(crate) fn total_ns(&self) -> u64 {
        self.on_send_ns.load(Relaxed) + self.can_deliver_ns.load(Relaxed)
    }
}

/// A delivery filter that forwards to `inner` and charges the time to a [`FilterClock`].
pub(crate) struct TimedFilter<F> {
    inner: F,
    clock: Arc<FilterClock>,
}

impl<F> TimedFilter<F> {
    pub(crate) fn new(inner: F, clock: Arc<FilterClock>) -> Self {
        TimedFilter { inner, clock }
    }
}

impl<F: DeliveryFilter> DeliveryFilter for TimedFilter<F> {
    fn on_send(&mut self, from: NodeId, to: NodeId, now: SimTime) {
        let start = Instant::now();
        self.inner.on_send(from, to, now);
        self.clock
            .on_send_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        self.clock.on_send_calls.fetch_add(1, Relaxed);
    }

    fn can_deliver(&mut self, from: NodeId, to: NodeId, now: SimTime) -> DeliveryVerdict {
        let start = Instant::now();
        let verdict = self.inner.can_deliver(from, to, now);
        self.clock
            .can_deliver_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        self.clock.can_deliver_calls.fetch_add(1, Relaxed);
        if verdict.is_delivered() {
            self.clock.delivered.fetch_add(1, Relaxed);
        }
        verdict
    }

    fn on_node_removed(&mut self, node: NodeId) {
        self.inner.on_node_removed(node);
    }

    fn on_node_added(&mut self, node: NodeId) {
        self.inner.on_node_added(node);
    }
}

/// A round hook that forwards to `inner` and adds the time to `clock_ns`.
pub(crate) struct TimedHook {
    inner: Box<dyn RoundHook>,
    clock_ns: Arc<AtomicU64>,
}

impl TimedHook {
    pub(crate) fn new(inner: Box<dyn RoundHook>, clock_ns: Arc<AtomicU64>) -> Self {
        TimedHook { inner, clock_ns }
    }
}

impl RoundHook for TimedHook {
    fn on_round_barrier(&mut self, round: u64, now: SimTime) {
        let start = Instant::now();
        self.inner.on_round_barrier(round, now);
        self.clock_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
    }

    fn on_round_barrier_with(&mut self, round: u64, now: SimTime, ops: &mut dyn HookOps) {
        let start = Instant::now();
        self.inner.on_round_barrier_with(round, now, ops);
        self.clock_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut tracer = Tracer::new();
        let root = tracer.push("round", None, 1, 0, 100);
        let engine = tracer.push("engine", Some(root), 1, 10, 70);
        tracer.push("join", Some(root), 1, 70, 90);
        tracer.aggregate("protocol", engine, 25);
        tracer.aggregate("nat.filter", engine, 15);
        assert_eq!(tracer.total_self_ns("engine"), 60 - 25 - 15);
        // Grandchildren do not count against the root.
        assert_eq!(tracer.total_self_ns("round"), 100 - 60 - 20);
        assert_eq!(tracer.total_self_ns("protocol"), 25);
        // An over-full parent clamps at zero instead of going negative.
        let tight = tracer.push("engine", None, 2, 0, 10);
        tracer.aggregate("protocol", tight, 30);
        assert_eq!(tracer.total_self_ns("engine"), 20);
        let aggregated = tracer.spans().last().unwrap();
        assert_eq!((aggregated.run, aggregated.parent), (2, Some(tight)));
    }

    #[test]
    fn spans_serialise_with_parent_and_run() {
        let mut tracer = Tracer::new();
        let root = tracer.begin("run", None, 7);
        let child = tracer.begin("round", Some(root), 7);
        tracer.end(child);
        tracer.end(root);
        let json = tracer.to_json();
        let spans = json.as_arr();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent"), Some(&Value::Null));
        assert_eq!(spans[1].get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(spans[1].get("run").and_then(Value::as_f64), Some(7.0));
        assert!(tracer.spans()[0].end_ns >= tracer.spans()[1].end_ns);
    }

    #[test]
    fn callback_clock_bins_by_stripe_and_round() {
        let clock = CallbackClock::new(2, 3, 1000);
        let add = |node: u64, at_ms: u64, ns: u64| {
            let bin = clock.bin(NodeId::new(node), SimTime::from_millis(at_ms));
            clock.on_round_ns[bin].fetch_add(ns, Relaxed);
        };
        add(0, 10, 5); // shard 0, round 1
        add(2, 999, 7); // shard 0, round 1
        add(1, 500, 4); // shard 1, round 1
        add(1, 1000, 9); // shard 1, round 2
        add(3, 99_000, 2); // beyond the run: clamped into the spare bin
        assert_eq!(clock.blocking_ns(1), 12);
        assert_eq!(clock.round_total_ns(1), 16);
        assert_eq!(clock.blocking_ns(2), 9);
        assert_eq!(clock.total_ns(), 27);
    }
}
