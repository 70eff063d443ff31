//! Cyclon: the classic single-view gossip peer-sampling service (Voulgaris et al., 2005).
//!
//! Cyclon is the paper's baseline for "true" randomness: on a network without NATs its
//! in-degree distribution, path length and clustering coefficient are those of a random
//! graph. It is NAT-oblivious — on networks with private nodes its views fill with
//! unreachable descriptors and the overlay partitions, which is exactly the failure mode
//! Croupier is designed to avoid.
//!
//! Like every protocol in the workspace, Cyclon interacts with its host only through the
//! [`Context`] it is handed; it has no dependency on either engine type.

use croupier::{Descriptor, DescriptorBatch, View, DESCRIPTOR_WIRE_BYTES, UDP_IP_HEADER_BYTES};
use croupier_simulator::{
    Context, ExchangeTracker, NatClass, NodeId, Protocol, PssNode, Retry, TimerKey, WireSize,
};
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

/// A node running the Cyclon protocol.
///
/// # Examples
///
/// ```
/// use croupier_baselines::{BaselineConfig, CyclonNode};
/// use croupier_simulator::{NodeId, PssNode, Simulation, SimulationConfig, SimulationEngine};
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
    /// The exchange in flight; the subset it sent (without our own descriptor) is the
    /// swapper's eviction candidates when the response arrives.
    exchange: ExchangeTracker<DescriptorBatch>,
    rounds: u64,
    exchanges_completed: u64,
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
            exchange: ExchangeTracker::default(),
            rounds: 0,
            exchanges_completed: 0,
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
        self.exchange.begin(target, sent.clone(), ctx);
        sent.push(self.own_descriptor());
        ctx.send(target, CyclonMessage::Request(sent));
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
                let sent = self.exchange.complete_with(from).unwrap_or_default();
                self.view.apply_exchange_swapper(&sent, &received, self.id);
            }
        }
    }

    /// Retry timer for the in-flight exchange: resend the same subset.
    fn on_timer(&mut self, key: TimerKey, ctx: &mut Context<'_, Self::Message>) {
        if let Retry::Resend { peer, sent } = self.exchange.on_timer(key, ctx) {
            let mut resend = sent.clone();
            resend.push(self.own_descriptor());
            ctx.send(peer, CyclonMessage::Request(resend));
        }
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
        self.exchange.retries_fired()
    }

    fn exchanges_abandoned(&self) -> u64 {
        self.exchange.exchanges_abandoned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use croupier_simulator::{Simulation, SimulationConfig, SimulationEngine};
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
