//! The transport seam between protocol logic and the engines.
//!
//! Protocols never talk to an engine directly: every capability a callback may use —
//! sending a message, arming a timer, drawing randomness, reading the clock, sampling the
//! bootstrap service — is expressed by the [`Transport`] trait, and the [`Context`] handed
//! to protocol callbacks is a thin facade over a `&mut dyn Transport`. The engines
//! ([`Simulation`](crate::Simulation) and [`ShardedSimulation`](crate::ShardedSimulation))
//! both back that facade with the same concrete [`SimTransport`], which records effects
//! into recycled buffers; a future deployment can substitute a socket-backed transport
//! without touching a single protocol crate.
//!
//! # Determinism
//!
//! The facade is behavior-preserving by construction: `SimTransport` stores exactly the
//! state the old monolithic `Context` stored (node, clock, round period, the node's
//! private RNG, the bootstrap registry, and the two effect buffers), and every `Context`
//! method forwards to the corresponding `Transport` method without reordering, adding or
//! dropping RNG draws. Seeded runs therefore produce bit-identical results through the
//! seam — the determinism suite and the byte-identical figure-JSON tests pin this.
//!
//! [`Context`]: crate::Context

use rand::rngs::SmallRng;

use crate::bootstrap::BootstrapRegistry;
use crate::protocol::{Outgoing, TimerRequest};
use crate::time::{SimDuration, SimTime};
use crate::types::NodeId;

/// The capabilities a protocol callback may use, abstracted away from any engine.
///
/// The trait is object-safe on purpose: [`Context`](crate::Context) holds a
/// `&mut dyn Transport<M>` so protocol crates compile against this interface only and
/// never name an engine type. Implementations must be deterministic: all randomness comes
/// from the per-node stream returned by [`rng`](Transport::rng), and the clock is whatever
/// the driving engine says it is.
pub trait Transport<M> {
    /// Identity of the node executing the callback.
    fn node_id(&self) -> NodeId;

    /// Current time as observed by this node.
    fn now(&self) -> SimTime;

    /// The gossip round period configured on the engine.
    fn round_period(&self) -> SimDuration;

    /// The node's private random number generator.
    fn rng(&mut self) -> &mut SmallRng;

    /// Queues `msg` for sending to `to`.
    fn send(&mut self, to: NodeId, msg: M);

    /// Requests a timer that fires after `delay`, identified by `key`.
    fn set_timer(&mut self, delay: SimDuration, key: crate::protocol::TimerKey);

    /// Samples up to `count` bootstrap nodes, excluding the caller.
    fn bootstrap_sample(&mut self, count: usize) -> Vec<NodeId>;

    /// Messages queued so far (used by tests driving a protocol without an engine).
    fn outbox(&self) -> &[Outgoing<M>];

    /// How long this transport itself can keep the reply to a message sent now from
    /// being executed, on top of the network latencies. Zero (the default) wherever a
    /// message is executed the instant it arrives; an engine that executes messages only
    /// at fixed barriers reports the two barriers a request and its reply wait for, so
    /// that retry timers cannot fire before a reply can exist (see
    /// [`Context::retry_policy`](crate::Context::retry_policy)).
    fn reply_horizon(&self) -> SimDuration {
        SimDuration::ZERO
    }
}

/// The inputs a [`SimTransport`] needs for one callback invocation.
///
/// Bundling them in a struct (instead of seven same-typed positional arguments) makes the
/// construction sites self-describing and removes the arg-order foot-gun from protocol
/// unit tests.
pub struct ContextParams<'a> {
    /// Identity of the node the callback runs on.
    pub node: NodeId,
    /// Current simulated time.
    pub now: SimTime,
    /// The gossip round period configured on the engine.
    pub round_period: SimDuration,
    /// The engine's reply horizon (see [`Transport::reply_horizon`]): zero on the event
    /// engine, two round periods on the sharded engine.
    pub reply_horizon: SimDuration,
    /// The node's private random stream.
    pub rng: &'a mut SmallRng,
    /// The shared bootstrap service.
    pub bootstrap: &'a BootstrapRegistry,
}

/// The simulated transport backing protocol callbacks in both engines.
///
/// It collects the messages and timers a callback produces into buffers the engine owns
/// and recycles: [`into_effects`](SimTransport::into_effects) hands the buffers back, the
/// engine drains them, and the next callback reuses the retained capacity — zero
/// allocations per event in steady state (pinned by `tests/alloc_counter.rs`).
pub struct SimTransport<'a, M> {
    node: NodeId,
    now: SimTime,
    round_period: SimDuration,
    reply_horizon: SimDuration,
    rng: &'a mut SmallRng,
    bootstrap: &'a BootstrapRegistry,
    outbox: Vec<Outgoing<M>>,
    timers: Vec<TimerRequest>,
}

impl<'a, M> SimTransport<'a, M> {
    /// Creates a transport with fresh effect buffers. Used by protocol unit tests; the
    /// engines recycle their buffers through [`SimTransport::with_buffers`] instead.
    pub fn new(params: ContextParams<'a>) -> Self {
        SimTransport::with_buffers(params, Vec::new(), Vec::new())
    }

    /// Creates a transport that collects effects into caller-provided buffers.
    ///
    /// The buffers are cleared here, so passing a dirty buffer is harmless.
    pub fn with_buffers(
        params: ContextParams<'a>,
        mut outbox: Vec<Outgoing<M>>,
        mut timers: Vec<TimerRequest>,
    ) -> Self {
        outbox.clear();
        timers.clear();
        SimTransport {
            node: params.node,
            now: params.now,
            round_period: params.round_period,
            reply_horizon: params.reply_horizon,
            rng: params.rng,
            bootstrap: params.bootstrap,
            outbox,
            timers,
        }
    }

    /// Consumes the transport, returning queued messages and timer requests.
    pub fn into_effects(self) -> (Vec<Outgoing<M>>, Vec<TimerRequest>) {
        (self.outbox, self.timers)
    }
}

impl<M> Transport<M> for SimTransport<'_, M> {
    fn node_id(&self) -> NodeId {
        self.node
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn round_period(&self) -> SimDuration {
        self.round_period
    }

    fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push(Outgoing { to, msg });
    }

    fn set_timer(&mut self, delay: SimDuration, key: crate::protocol::TimerKey) {
        self.timers.push(TimerRequest { delay, key });
    }

    fn bootstrap_sample(&mut self, count: usize) -> Vec<NodeId> {
        self.bootstrap.sample_excluding(count, self.node, self.rng)
    }

    fn outbox(&self) -> &[Outgoing<M>] {
        &self.outbox
    }

    fn reply_horizon(&self) -> SimDuration {
        self.reply_horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::TimerKey;
    use crate::Context;
    use rand::SeedableRng;

    #[derive(Clone, Debug, PartialEq)]
    struct Msg(u32);

    impl crate::protocol::WireSize for Msg {
        fn wire_size(&self) -> usize {
            32
        }
    }

    #[test]
    fn sim_transport_records_effects() {
        let bootstrap = BootstrapRegistry::new();
        let mut rng = SmallRng::seed_from_u64(9);
        let mut transport: SimTransport<'_, Msg> = SimTransport::new(ContextParams {
            node: NodeId::new(4),
            now: SimTime::from_millis(25),
            round_period: SimDuration::from_secs(2),
            reply_horizon: SimDuration::ZERO,
            rng: &mut rng,
            bootstrap: &bootstrap,
        });
        transport.send(NodeId::new(5), Msg(11));
        transport.set_timer(SimDuration::from_millis(40), TimerKey::new(8));
        assert_eq!(transport.node_id(), NodeId::new(4));
        assert_eq!(transport.now(), SimTime::from_millis(25));
        assert_eq!(transport.round_period(), SimDuration::from_secs(2));
        let (outbox, timers) = transport.into_effects();
        assert_eq!(outbox.len(), 1);
        assert_eq!(outbox[0].to, NodeId::new(5));
        assert_eq!(timers.len(), 1);
        assert_eq!(timers[0].key, TimerKey::new(8));
    }

    #[test]
    fn with_buffers_clears_dirty_buffers_and_keeps_capacity() {
        let bootstrap = BootstrapRegistry::new();
        let mut rng = SmallRng::seed_from_u64(10);
        let mut dirty_out: Vec<Outgoing<Msg>> = Vec::with_capacity(16);
        dirty_out.push(Outgoing {
            to: NodeId::new(1),
            msg: Msg(0),
        });
        let dirty_timers: Vec<TimerRequest> = Vec::with_capacity(8);
        let transport = SimTransport::with_buffers(
            ContextParams {
                node: NodeId::new(1),
                now: SimTime::ZERO,
                round_period: SimDuration::from_secs(1),
                reply_horizon: SimDuration::ZERO,
                rng: &mut rng,
                bootstrap: &bootstrap,
            },
            dirty_out,
            dirty_timers,
        );
        let (outbox, timers) = transport.into_effects();
        assert!(outbox.is_empty(), "dirty buffer must be cleared");
        assert!(outbox.capacity() >= 16, "capacity must be retained");
        assert!(timers.is_empty());
    }

    #[test]
    fn context_is_a_transparent_facade_over_the_transport() {
        let mut bootstrap = BootstrapRegistry::new();
        bootstrap.register(NodeId::new(1));
        bootstrap.register(NodeId::new(2));
        let mut rng = SmallRng::seed_from_u64(11);
        let mut transport: SimTransport<'_, Msg> = SimTransport::new(ContextParams {
            node: NodeId::new(1),
            now: SimTime::from_millis(5),
            round_period: SimDuration::from_secs(1),
            reply_horizon: SimDuration::ZERO,
            rng: &mut rng,
            bootstrap: &bootstrap,
        });
        {
            let mut ctx = Context::new(&mut transport);
            ctx.send(NodeId::new(2), Msg(3));
            assert_eq!(ctx.bootstrap_sample(5), vec![NodeId::new(2)]);
            assert_eq!(ctx.node_id(), NodeId::new(1));
            assert_eq!(ctx.outbox().len(), 1);
        }
        let (outbox, _) = transport.into_effects();
        assert_eq!(outbox[0].msg, Msg(3));
    }
}
