//! Cyclon: the classic single-view gossip peer-sampling service (Voulgaris et al., 2005).
//!
//! Cyclon is the paper's baseline for "true" randomness: on a network without NATs its
//! in-degree distribution, path length and clustering coefficient are those of a random
//! graph. It is NAT-oblivious — on networks with private nodes its views fill with
//! unreachable descriptors and the overlay partitions, which is exactly the failure mode
//! Croupier is designed to avoid.
//!
//! Like every protocol in the workspace, Cyclon interacts with its host only through the
//! [`Context`] facade over the [`Transport`](croupier_simulator::Transport) seam; it has
//! no dependency on either engine type.

use croupier::{Descriptor, DescriptorBatch, View, DESCRIPTOR_WIRE_BYTES, UDP_IP_HEADER_BYTES};
use croupier_simulator::{Context, NatClass, NodeId, Protocol, PssNode, TimerKey, WireSize};
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};

use crate::config::BaselineConfig;

/// Cyclon's shuffle messages: a request carrying a subset of the sender's view (including a
/// fresh descriptor of the sender itself) and the symmetric response.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum CyclonMessage {
    /// Shuffle request with the initiator's descriptor subset.
    Request(DescriptorBatch),
    /// Shuffle response with the recipient's descriptor subset.
    Response(DescriptorBatch),
}

impl CyclonMessage {
    fn descriptors(&self) -> &[Descriptor] {
        match self {
            CyclonMessage::Request(d) | CyclonMessage::Response(d) => d,
        }
    }
}

impl WireSize for CyclonMessage {
    fn wire_size(&self) -> usize {
        UDP_IP_HEADER_BYTES + 2 + self.descriptors().len() * DESCRIPTOR_WIRE_BYTES
    }

    fn fault_mutate(&mut self, rng: &mut SmallRng) {
        use rand::Rng;
        let descriptors = match self {
            CyclonMessage::Request(d) | CyclonMessage::Response(d) => d,
        };
        if rng.gen_bool(0.5) {
            // Truncated datagram: the descriptor list decodes short.
            let keep = rng.gen_range(0..=descriptors.len());
            descriptors.truncate(keep);
        } else if !descriptors.is_empty() {
            // Bit flip: one descriptor decodes to a bogus identity and age.
            let idx = rng.gen_range(0..descriptors.len());
            descriptors.as_mut_slice()[idx] = Descriptor::with_age(
                NodeId::new(rng.gen_range(0..1 << 20)),
                NatClass::Public,
                rng.gen_range(0..1 << 16),
            );
        }
    }
}

/// Bookkeeping for the exchange currently in flight: the peer, the subset we sent it (the
/// swapper's eviction candidates), and the retry state. `seq` doubles as the retry-timer
/// key so timers from superseded exchanges are recognisably stale.
#[derive(Clone, Debug)]
struct PendingExchange {
    peer: NodeId,
    sent: DescriptorBatch,
    seq: u64,
    attempt: u32,
}

/// A node running the Cyclon protocol.
///
/// # Examples
///
/// ```
/// use croupier_baselines::{BaselineConfig, CyclonNode};
/// use croupier_simulator::{NatClass, NodeId, PssNode, Simulation, SimulationConfig};
///
/// let mut sim = Simulation::new(SimulationConfig::default().with_seed(5));
/// for i in 0..20u64 {
///     let id = NodeId::new(i);
///     sim.register_public(id);
///     sim.add_node(id, CyclonNode::new(id, BaselineConfig::default()));
/// }
/// sim.run_for_rounds(30);
/// assert!(sim.node(NodeId::new(3)).unwrap().known_peers().len() > 5);
/// ```
#[derive(Clone, Debug)]
pub struct CyclonNode {
    id: NodeId,
    config: BaselineConfig,
    view: View,
    pending: Option<PendingExchange>,
    rounds: u64,
    exchanges_completed: u64,
    exchange_seq: u64,
    retries_fired: u64,
    abandoned_exchanges: u64,
}

impl CyclonNode {
    /// Creates a Cyclon node. Cyclon has no notion of NAT class; every node behaves the
    /// same way.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent.
    pub fn new(id: NodeId, config: BaselineConfig) -> Self {
        config.validate();
        CyclonNode {
            id,
            view: View::new(config.view_size),
            pending: None,
            rounds: 0,
            exchanges_completed: 0,
            exchange_seq: 0,
            retries_fired: 0,
            abandoned_exchanges: 0,
            config,
        }
    }

    /// The node's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's partial view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Number of completed push-pull exchanges (responses received).
    pub fn exchanges_completed(&self) -> u64 {
        self.exchanges_completed
    }

    fn own_descriptor(&self) -> Descriptor {
        Descriptor::new(self.id, NatClass::Public)
    }

    fn bootstrap(&mut self, ctx: &mut Context<'_, CyclonMessage>) {
        for node in ctx.bootstrap_sample(self.config.bootstrap_size.min(self.config.view_size)) {
            if node != self.id {
                self.view.insert(Descriptor::new(node, NatClass::Public));
            }
        }
    }
}

impl Protocol for CyclonNode {
    type Message = CyclonMessage;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
        self.bootstrap(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Self::Message>) {
        self.rounds += 1;
        self.view.increment_ages();
        if self.view.is_empty() {
            // A node that joined before the bootstrap server knew any public node (or whose
            // whole view died) re-contacts the bootstrap server rather than staying
            // isolated forever.
            self.bootstrap(ctx);
            return;
        }
        let Some(target) = self.view.oldest().map(|d| d.node()) else {
            return;
        };
        self.view.remove(target);
        let mut sent = self
            .view
            .random_subset(self.config.shuffle_size.saturating_sub(1), ctx.rng());
        if self.pending.is_some() {
            // The previous exchange is still unanswered; starting a new one discards it.
            self.abandoned_exchanges += 1;
        }
        self.exchange_seq += 1;
        self.pending = Some(PendingExchange {
            peer: target,
            sent: sent.clone(),
            seq: self.exchange_seq,
            attempt: 0,
        });
        sent.push(self.own_descriptor());
        ctx.send(target, CyclonMessage::Request(sent));
        let policy = ctx.retry_policy();
        ctx.set_timer(policy.backoff(0), TimerKey::new(self.exchange_seq));
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Message,
        ctx: &mut Context<'_, Self::Message>,
    ) {
        match msg {
            CyclonMessage::Request(received) => {
                let reply = self.view.random_subset(self.config.shuffle_size, ctx.rng());
                self.view.apply_exchange_swapper(&reply, &received, self.id);
                ctx.send(from, CyclonMessage::Response(reply));
            }
            CyclonMessage::Response(received) => {
                self.exchanges_completed += 1;
                let sent = match self.pending.take() {
                    Some(pending) if pending.peer == from => pending.sent,
                    other => {
                        self.pending = other;
                        DescriptorBatch::new()
                    }
                };
                self.view.apply_exchange_swapper(&sent, &received, self.id);
            }
        }
    }

    /// Retry timer for the in-flight exchange: resend the same subset with capped
    /// exponential backoff, abandon once the budget is spent. Stale timers (their `seq`
    /// no longer matches the pending exchange) are ignored.
    fn on_timer(&mut self, key: TimerKey, ctx: &mut Context<'_, Self::Message>) {
        let (peer, next_attempt, sent) = match self.pending.as_ref() {
            Some(p) if p.seq == key.as_u64() => (p.peer, p.attempt + 1, p.sent.clone()),
            _ => return,
        };
        let policy = ctx.retry_policy();
        if policy.exhausted(next_attempt) {
            self.pending = None;
            self.abandoned_exchanges += 1;
            return;
        }
        if let Some(p) = self.pending.as_mut() {
            p.attempt = next_attempt;
        }
        let mut resend = sent;
        resend.push(self.own_descriptor());
        self.retries_fired += 1;
        ctx.send(peer, CyclonMessage::Request(resend));
        ctx.set_timer(policy.backoff(next_attempt), key);
    }
}

impl PssNode for CyclonNode {
    fn nat_class(&self) -> NatClass {
        // Cyclon is evaluated on all-public networks in the paper.
        NatClass::Public
    }

    fn known_peers(&self) -> Vec<NodeId> {
        self.view.nodes()
    }

    fn for_each_known_peer(&self, visit: &mut dyn FnMut(NodeId)) {
        for descriptor in self.view.iter() {
            visit(descriptor.node());
        }
    }

    fn draw_sample(&mut self, rng: &mut SmallRng) -> Option<NodeId> {
        self.view.random(rng).map(|d| d.node())
    }

    fn rounds_executed(&self) -> u64 {
        self.rounds
    }

    fn retries_fired(&self) -> u64 {
        self.retries_fired
    }

    fn exchanges_abandoned(&self) -> u64 {
        self.abandoned_exchanges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use croupier_simulator::{Simulation, SimulationConfig};
    use std::collections::HashMap;

    fn build_sim(n: u64, seed: u64) -> Simulation<CyclonNode> {
        let mut sim = Simulation::new(SimulationConfig::default().with_seed(seed));
        for i in 0..n {
            let id = NodeId::new(i);
            sim.register_public(id);
            sim.add_node(id, CyclonNode::new(id, BaselineConfig::default()));
        }
        sim
    }

    #[test]
    fn views_fill_to_capacity() {
        let mut sim = build_sim(50, 1);
        sim.run_for_rounds(30);
        for (_, node) in sim.nodes() {
            // A node that has just initiated a shuffle has temporarily removed the target
            // from its view, so 9 entries is also acceptable at a snapshot instant.
            assert!(
                node.view().len() >= 9,
                "views should be (nearly) full after 30 rounds, got {}",
                node.view().len()
            );
            assert!(!node.view().contains(node.id()), "no self-loops");
        }
    }

    #[test]
    fn exchanges_complete_every_round() {
        let mut sim = build_sim(30, 2);
        sim.run_for_rounds(40);
        for (_, node) in sim.nodes() {
            // Allow some slack for the last in-flight round and occasional collisions.
            assert!(
                node.exchanges_completed() >= 30,
                "node completed only {} exchanges",
                node.exchanges_completed()
            );
        }
    }

    #[test]
    fn indegree_distribution_is_balanced() {
        let mut sim = build_sim(100, 3);
        sim.run_for_rounds(100);
        let mut indegree: HashMap<NodeId, usize> = HashMap::new();
        for (_, node) in sim.nodes() {
            for peer in node.known_peers() {
                *indegree.entry(peer).or_default() += 1;
            }
        }
        let max = indegree.values().copied().max().unwrap();
        let min = sim
            .node_ids()
            .iter()
            .map(|id| indegree.get(id).copied().unwrap_or(0))
            .min()
            .unwrap();
        assert!(max <= 30, "in-degree too concentrated: max {max}");
        assert!(min >= 1, "some node has no in-links");
    }

    #[test]
    fn samples_come_from_the_view() {
        let mut sim = build_sim(20, 4);
        sim.run_for_rounds(20);
        let known = sim.node(NodeId::new(5)).unwrap().known_peers();
        let sample = sim.sample_from(NodeId::new(5)).unwrap();
        assert!(known.contains(&sample));
    }

    #[test]
    fn message_sizes_scale_with_descriptors() {
        let small =
            CyclonMessage::Request(vec![Descriptor::new(NodeId::new(1), NatClass::Public)].into());
        let large = CyclonMessage::Request(
            (0..5u64)
                .map(|i| Descriptor::new(NodeId::new(i), NatClass::Public))
                .collect(),
        );
        assert_eq!(
            large.wire_size() - small.wire_size(),
            4 * DESCRIPTOR_WIRE_BYTES
        );
    }

    #[test]
    fn isolated_node_does_nothing() {
        let mut sim = Simulation::new(SimulationConfig::default().with_seed(5));
        sim.add_node(
            NodeId::new(0),
            CyclonNode::new(NodeId::new(0), BaselineConfig::default()),
        );
        sim.run_for_rounds(5);
        assert_eq!(sim.network_stats().total(), 0);
    }
}
