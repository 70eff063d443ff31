//! On the sharded engine a reply trails its request by up to two round periods (a message
//! is never executed in the phase it was sent in). The engine reports that as its reply
//! horizon and `Context::retry_policy` arms the retry timers past it, so a lossless run
//! sends every request once: one request per node-round, one reply per delivered request,
//! nothing from a timer. Before the horizon existed the first retransmission was armed at
//! half a period and every exchange on every sharded run went out twice.

use croupier::{CroupierConfig, CroupierMessage, CroupierNode};
use croupier_baselines::{BaselineConfig, CyclonMessage, CyclonNode, GozarMessage, GozarNode};
use croupier_nat::NatTopologyBuilder;
use croupier_simulator::SimulationEngine;
use croupier_simulator::{
    Context, NatClass, NodeId, Protocol, PssNode, ShardedSimulation, SimulationConfig, TimerKey,
};

const NODES: u64 = 80;
const ROUNDS: u64 = 40;

/// Whether a message is an exchange request, a reply to one, or neither (Gozar's relay
/// registrations and keep-alives).
#[derive(PartialEq)]
enum Kind {
    Request,
    Reply,
    Other,
}

/// Counts what the wrapped protocol queues, by the callback it was queued in.
struct Tally<P: Protocol> {
    inner: P,
    kind: fn(&P::Message) -> Kind,
    rounds: u64,
    requests: u64,
    replies: u64,
    other: u64,
    requests_received: u64,
    from_timers: u64,
}

impl<P: Protocol> Tally<P> {
    fn new(inner: P, kind: fn(&P::Message) -> Kind) -> Self {
        Tally {
            inner,
            kind,
            rounds: 0,
            requests: 0,
            replies: 0,
            other: 0,
            requests_received: 0,
            from_timers: 0,
        }
    }

    /// Classifies the messages queued since the outbox held `before` of them.
    fn count(&mut self, ctx: &Context<'_, P::Message>, before: usize) {
        for outgoing in &ctx.outbox()[before..] {
            match (self.kind)(&outgoing.msg) {
                Kind::Request => self.requests += 1,
                Kind::Reply => self.replies += 1,
                Kind::Other => self.other += 1,
            }
        }
    }
}

impl<P: Protocol> Protocol for Tally<P> {
    type Message = P::Message;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
        let before = ctx.outbox().len();
        self.inner.on_start(ctx);
        self.count(ctx, before);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Self::Message>) {
        let (before, requests) = (ctx.outbox().len(), self.requests);
        self.rounds += 1;
        self.inner.on_round(ctx);
        self.count(ctx, before);
        assert!(self.requests - requests <= 1, "one exchange per round");
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Message,
        ctx: &mut Context<'_, Self::Message>,
    ) {
        let before = ctx.outbox().len();
        if (self.kind)(&msg) == Kind::Request {
            self.requests_received += 1;
        }
        self.inner.on_message(from, msg, ctx);
        self.count(ctx, before);
    }

    fn on_timer(&mut self, key: TimerKey, ctx: &mut Context<'_, Self::Message>) {
        let before = ctx.outbox().len();
        self.inner.on_timer(key, ctx);
        self.from_timers += (ctx.outbox().len() - before) as u64;
    }
}

/// Runs `ROUNDS` lossless rounds of the protocol `make` builds, `private` of its nodes
/// behind the default NAT topology, and checks that every request was sent once.
/// `direct` says that requests and replies travel unrelayed, so that each is counted once
/// and they can be compared with the rounds run and with each other.
fn assert_each_request_is_sent_once<P>(
    threads: usize,
    private: u64,
    make: impl Fn(NodeId, NatClass) -> P,
    kind: fn(&P::Message) -> Kind,
    direct: bool,
) where
    P: PssNode + Send,
    P::Message: Send,
{
    let topology = NatTopologyBuilder::new(7).build();
    let mut sim = ShardedSimulation::new(
        SimulationConfig::default()
            .with_seed(7)
            .with_engine_threads(threads),
    );
    sim.set_delivery_filter(topology.clone());
    for i in 0..NODES {
        let class = if i < private {
            NatClass::Private
        } else {
            NatClass::Public
        };
        let id = NodeId::new(i);
        topology.add_node(id, class);
        if class.is_public() {
            sim.register_public(id);
        }
        sim.add_node(id, Tally::new(make(id, class), kind));
    }
    sim.run_for_rounds(ROUNDS);

    let stats = sim.network_stats();
    assert_eq!(stats.lost, 0, "the run is lossless");
    let sum = |field: fn(&Tally<P>) -> u64| sim.nodes().map(|(_, node)| field(node)).sum::<u64>();
    assert_eq!(sum(|n| n.inner.retries_fired()), 0, "no retry fired");
    assert_eq!(
        sum(|n| n.from_timers),
        0,
        "no message left a timer callback"
    );

    let (rounds, requests, replies) = (sum(|n| n.rounds), sum(|n| n.requests), sum(|n| n.replies));
    assert!(rounds >= NODES * (ROUNDS - 1));
    assert_eq!(
        sim.traffic_snapshot().total_messages_sent(),
        requests + replies + sum(|n| n.other),
        "messages sent = requests + replies (+ relay upkeep)"
    );
    if direct {
        assert!(requests <= rounds && requests >= rounds * 9 / 10);
        assert_eq!(
            replies,
            sum(|n| n.requests_received),
            "one reply per request"
        );
        // The last phase's requests are still on their way when the run stops.
        assert!(replies <= requests && replies >= requests * 9 / 10);
    }
}

fn croupier_kind(msg: &CroupierMessage) -> Kind {
    match msg {
        CroupierMessage::ShuffleRequest(_) => Kind::Request,
        CroupierMessage::ShuffleResponse(_) => Kind::Reply,
    }
}

fn cyclon_kind(msg: &CyclonMessage) -> Kind {
    match msg {
        CyclonMessage::Request(_) => Kind::Request,
        CyclonMessage::Response(_) => Kind::Reply,
    }
}

fn gozar_kind(msg: &GozarMessage) -> Kind {
    match msg {
        GozarMessage::ShuffleRequest { .. } => Kind::Request,
        GozarMessage::ShuffleResponse { .. } => Kind::Reply,
        GozarMessage::Relayed { inner, .. } => gozar_kind(inner),
        _ => Kind::Other,
    }
}

#[test]
fn croupier_sends_each_request_once_on_the_sharded_engine() {
    for threads in [1, 2] {
        assert_each_request_is_sent_once(
            threads,
            60,
            |id, class| CroupierNode::new(id, class, CroupierConfig::default()),
            croupier_kind,
            true,
        );
    }
}

#[test]
fn cyclon_sends_each_request_once_on_the_sharded_engine() {
    for threads in [1, 2] {
        assert_each_request_is_sent_once(
            threads,
            0,
            |id, _| CyclonNode::new(id, BaselineConfig::default()),
            cyclon_kind,
            true,
        );
    }
}

#[test]
fn gozar_sends_each_request_once_on_the_sharded_engine() {
    for threads in [1, 2] {
        assert_each_request_is_sent_once(
            threads,
            60,
            |id, class| GozarNode::new(id, class, BaselineConfig::default()),
            gozar_kind,
            false,
        );
    }
}
