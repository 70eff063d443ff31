//! The Croupier node state machine (Algorithm 2 of the paper).
//!
//! The state machine is written against the simulator's [`Context`]: sends, timers and
//! randomness go through that one object, and no engine type appears anywhere in this
//! crate.

use croupier_simulator::{
    Context, ExchangeTracker, NatClass, NodeId, Protocol, PssNode, Retry, TimerKey,
};
use rand::rngs::SmallRng;

use crate::config::{CroupierConfig, MergePolicy, SelectionPolicy};
use crate::descriptor::{Descriptor, DescriptorBatch};
use crate::estimator::RatioEstimator;
use crate::messages::{CroupierMessage, ShufflePayload};
use crate::sampler::sample_from_views;
use crate::view::View;

/// Upper bound on recycled payload boxes kept per node. One box circulates per exchange
/// in steady state (a request's box comes back as a response, a croupier rewrites the
/// request's box into its response), so the pool only has to absorb transient imbalance
/// from lost or late messages.
const PAYLOAD_POOL_LIMIT: usize = 4;

/// A node running the Croupier peer-sampling protocol.
///
/// `CroupierNode` keeps two bounded views (public and private), a
/// [`RatioEstimator`], and implements the periodic shuffle of Algorithm 2:
///
/// * every round the node selects the *oldest* entry of its **public** view and sends it a
///   shuffle request carrying random subsets of both views plus piggy-backed ratio
///   estimates;
/// * public nodes ("croupiers") answer shuffle requests with a symmetric response and count
///   the requester's class to feed the ratio estimation;
/// * received descriptors are merged with the *swapper* policy: descriptors that were sent
///   to the peer are the first to be evicted.
///
/// See the crate-level documentation for a complete usage example.
#[derive(Clone, Debug)]
pub struct CroupierNode {
    id: NodeId,
    class: NatClass,
    config: CroupierConfig,
    public_view: View,
    private_view: View,
    estimator: RatioEstimator,
    /// The shuffle request in flight; what it sent from the public and the private view
    /// are the swapper merge's eviction candidates when the response arrives. The subsets
    /// are stored inline, so replacing the exchange every round costs no allocation.
    exchange: ExchangeTracker<(DescriptorBatch, DescriptorBatch)>,
    /// Recycled shuffle-payload boxes (see [`ShufflePayload`] for the discipline).
    /// Boxes are stored as boxes on purpose: they are handed to [`CroupierMessage`]
    /// verbatim, so recycling never re-allocates the payload.
    #[allow(clippy::vec_box)]
    payload_pool: Vec<Box<ShufflePayload>>,
    rounds: u64,
    shuffles_received: u64,
    responses_received: u64,
}

impl CroupierNode {
    /// Creates a Croupier node with identity `id` and connectivity class `class`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent (see [`CroupierConfig::validate`]).
    pub fn new(id: NodeId, class: NatClass, config: CroupierConfig) -> Self {
        config.validate();
        let estimator = RatioEstimator::new(class, config.local_history, config.neighbour_history);
        CroupierNode {
            id,
            class,
            public_view: View::new(config.view_size),
            private_view: View::new(config.view_size),
            estimator,
            exchange: ExchangeTracker::default(),
            payload_pool: Vec::new(),
            rounds: 0,
            shuffles_received: 0,
            responses_received: 0,
            config,
        }
    }

    /// The node's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's connectivity class.
    pub fn class(&self) -> NatClass {
        self.class
    }

    /// The node's configuration.
    pub fn config(&self) -> &CroupierConfig {
        &self.config
    }

    /// The public view.
    pub fn public_view(&self) -> &View {
        &self.public_view
    }

    /// The private view.
    pub fn private_view(&self) -> &View {
        &self.private_view
    }

    /// The ratio estimator.
    pub fn estimator(&self) -> &RatioEstimator {
        &self.estimator
    }

    /// Number of shuffle requests this node has received (non-zero only for croupiers).
    pub fn shuffle_requests_received(&self) -> u64 {
        self.shuffles_received
    }

    /// Number of shuffle responses this node has received.
    pub fn shuffle_responses_received(&self) -> u64 {
        self.responses_received
    }

    /// Seeds the public view from the bootstrap server.
    fn bootstrap(&mut self, ctx: &mut Context<'_, CroupierMessage>) {
        let count = self.config.bootstrap_size.min(self.config.view_size);
        for node in ctx.bootstrap_sample(count) {
            if node != self.id {
                self.public_view
                    .insert(Descriptor::new(node, NatClass::Public));
            }
        }
    }

    /// The descriptor this node advertises about itself (age zero).
    fn own_descriptor(&self) -> Descriptor {
        Descriptor::new(self.id, self.class)
    }

    /// A cleared payload box from the pool, or a fresh one if the pool is empty.
    fn take_payload(&mut self) -> Box<ShufflePayload> {
        match self.payload_pool.pop() {
            Some(mut payload) => {
                payload.public_descriptors.clear();
                payload.private_descriptors.clear();
                payload.estimates.clear();
                payload
            }
            None => Box::default(),
        }
    }

    /// Returns a consumed payload box to the pool (bounded; excess boxes are dropped).
    fn recycle_payload(&mut self, payload: Box<ShufflePayload>) {
        if self.payload_pool.len() < PAYLOAD_POOL_LIMIT {
            self.payload_pool.push(payload);
        }
    }

    /// Splits the shuffle descriptor budget between the two views.
    ///
    /// The paper sends "a random, bounded subset" of each view with an overall exchange
    /// size of 5 descriptors (§VII-A); charging the whole budget to *each* view would make
    /// Croupier's messages systematically larger than the other protocols' and distort the
    /// overhead comparison of Fig. 7(a), so the budget is split — the public view gets the
    /// larger half.
    fn shuffle_budgets(&self) -> (usize, usize) {
        let public = self.config.shuffle_size.div_ceil(2);
        let private = self.config.shuffle_size - public;
        (public, private)
    }

    /// Selects (and removes) the shuffle target from the public view according to the
    /// configured selection policy.
    fn select_target(&mut self, rng: &mut SmallRng) -> Option<NodeId> {
        let target = match self.config.selection {
            SelectionPolicy::Tail => self.public_view.oldest().map(|d| d.node()),
            SelectionPolicy::Random => self.public_view.random(rng).map(|d| d.node()),
        }?;
        self.public_view.remove(target);
        Some(target)
    }

    /// Splits received descriptors by their class, dropping our own descriptor.
    fn split_by_class(&self, payload: &ShufflePayload) -> (DescriptorBatch, DescriptorBatch) {
        let mut public = DescriptorBatch::new();
        let mut private = DescriptorBatch::new();
        for d in payload
            .public_descriptors
            .iter()
            .chain(payload.private_descriptors.iter())
        {
            if d.node() == self.id {
                continue;
            }
            match d.class() {
                NatClass::Public => public.push(*d),
                NatClass::Private => private.push(*d),
            }
        }
        (public, private)
    }

    /// Merges received descriptors into both views using the configured merge policy.
    fn merge(
        &mut self,
        sent_public: &[Descriptor],
        sent_private: &[Descriptor],
        received_public: &[Descriptor],
        received_private: &[Descriptor],
    ) {
        match self.config.merge {
            MergePolicy::Swapper => {
                self.public_view
                    .apply_exchange_swapper(sent_public, received_public, self.id);
                self.private_view
                    .apply_exchange_swapper(sent_private, received_private, self.id);
            }
            MergePolicy::Healer => {
                self.public_view
                    .apply_exchange_healer(received_public, self.id);
                self.private_view
                    .apply_exchange_healer(received_private, self.id);
            }
        }
    }

    /// Sends `peer` a shuffle request carrying the given subsets, this node's own
    /// descriptor and freshly drawn estimates.
    fn send_request(
        &mut self,
        peer: NodeId,
        sent_public: DescriptorBatch,
        sent_private: DescriptorBatch,
        ctx: &mut Context<'_, CroupierMessage>,
    ) {
        let estimates = self
            .estimator
            .share(self.config.estimate_share_size, self.id, ctx.rng());
        let mut request = self.take_payload();
        request.sender_class = self.class;
        request.public_descriptors = sent_public;
        request.private_descriptors = sent_private;
        request.estimates = estimates;
        match self.class {
            NatClass::Public => request.public_descriptors.push(self.own_descriptor()),
            NatClass::Private => request.private_descriptors.push(self.own_descriptor()),
        }
        ctx.send(peer, CroupierMessage::ShuffleRequest(request));
    }

    fn handle_request(
        &mut self,
        from: NodeId,
        mut payload: Box<ShufflePayload>,
        ctx: &mut Context<'_, CroupierMessage>,
    ) {
        if self.class.is_private() {
            // Only croupiers handle shuffle requests. A private node can only receive one
            // through a stale descriptor that mis-states its class; drop it.
            self.recycle_payload(payload);
            return;
        }
        self.shuffles_received += 1;
        self.estimator.record_request(payload.sender_class);

        // Prepare the response subsets *before* merging, exactly as in Algorithm 2
        // (lines 31–33 precede lines 34–36).
        let (public_budget, private_budget) = self.shuffle_budgets();
        let reply_public = self.public_view.random_subset(public_budget, ctx.rng());
        let reply_private = self.private_view.random_subset(private_budget, ctx.rng());
        let reply_estimates =
            self.estimator
                .share(self.config.estimate_share_size, self.id, ctx.rng());

        let (received_public, received_private) = self.split_by_class(&payload);
        self.merge(
            &reply_public,
            &reply_private,
            &received_public,
            &received_private,
        );
        self.estimator.ingest(&payload.estimates, self.id);

        // The request's own box becomes the response: zero pool churn on croupiers.
        payload.sender_class = self.class;
        payload.public_descriptors = reply_public;
        payload.private_descriptors = reply_private;
        payload.estimates = reply_estimates;
        ctx.send(from, CroupierMessage::ShuffleResponse(payload));
    }

    fn handle_response(&mut self, from: NodeId, payload: Box<ShufflePayload>) {
        self.responses_received += 1;
        // An unexpected response, or one from a previous round, is merged anyway but
        // without swapper eviction candidates.
        let (sent_public, sent_private) = self.exchange.complete_with(from).unwrap_or_default();
        let (received_public, received_private) = self.split_by_class(&payload);
        self.merge(
            &sent_public,
            &sent_private,
            &received_public,
            &received_private,
        );
        self.estimator.ingest(&payload.estimates, self.id);
        self.recycle_payload(payload);
    }
}

impl Protocol for CroupierNode {
    type Message = CroupierMessage;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
        self.bootstrap(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Self::Message>) {
        self.rounds += 1;
        self.public_view.increment_ages();
        self.private_view.increment_ages();
        self.estimator.advance_round();

        if self.public_view.is_empty() {
            // A node that joined before any public node was registered (or whose whole
            // public view died) asks the bootstrap server again rather than staying
            // isolated forever. The catastrophic-failure experiment measures connectivity
            // right after the failure, before a re-bootstrap can take effect.
            self.bootstrap(ctx);
            return;
        }
        let Some(target) = self.select_target(ctx.rng()) else {
            return;
        };

        let (public_budget, private_budget) = self.shuffle_budgets();
        let sent_public = self.public_view.random_subset(public_budget, ctx.rng());
        let sent_private = self.private_view.random_subset(private_budget, ctx.rng());
        self.exchange
            .begin(target, (sent_public.clone(), sent_private.clone()), ctx);
        self.send_request(target, sent_public, sent_private, ctx);
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Message,
        ctx: &mut Context<'_, Self::Message>,
    ) {
        match msg {
            CroupierMessage::ShuffleRequest(payload) => self.handle_request(from, payload, ctx),
            CroupierMessage::ShuffleResponse(payload) => self.handle_response(from, payload),
        }
    }

    /// Retry timer for the in-flight shuffle: resend the same subsets (the swapper
    /// bookkeeping must keep describing what the peer would actually receive) with fresh
    /// estimates.
    fn on_timer(&mut self, key: TimerKey, ctx: &mut Context<'_, Self::Message>) {
        if let Retry::Resend { peer, sent } = self.exchange.on_timer(key, ctx) {
            let (sent_public, sent_private) = sent.clone();
            self.send_request(peer, sent_public, sent_private, ctx);
        }
    }
}

impl PssNode for CroupierNode {
    fn nat_class(&self) -> NatClass {
        self.class
    }

    fn known_peers(&self) -> Vec<NodeId> {
        let mut peers = self.public_view.nodes();
        peers.extend(self.private_view.nodes());
        peers
    }

    fn for_each_known_peer(&self, visit: &mut dyn FnMut(NodeId)) {
        for descriptor in self.public_view.iter().chain(self.private_view.iter()) {
            visit(descriptor.node());
        }
    }

    fn ratio_estimate(&self) -> Option<f64> {
        self.estimator.estimate()
    }

    fn draw_sample(&mut self, rng: &mut SmallRng) -> Option<NodeId> {
        sample_from_views(
            &self.public_view,
            &self.private_view,
            self.estimator.estimate(),
            rng,
        )
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
    use croupier_nat::NatTopologyBuilder;
    use croupier_simulator::{
        FaultPlane, FaultProfile, RetryPolicy, Simulation, SimulationConfig, SimulationEngine,
        WireSize,
    };

    /// Builds a simulation of `n_public` + `n_private` Croupier nodes behind a NAT topology.
    fn build_sim(
        n_public: u64,
        n_private: u64,
        config: CroupierConfig,
        seed: u64,
    ) -> Simulation<CroupierNode> {
        let topology = NatTopologyBuilder::new(seed).build();
        let mut sim = Simulation::new(SimulationConfig::default().with_seed(seed));
        sim.set_delivery_filter(topology.clone());
        for i in 0..(n_public + n_private) {
            let id = NodeId::new(i);
            let class = if i < n_public {
                NatClass::Public
            } else {
                NatClass::Private
            };
            topology.add_node(id, class);
            if class.is_public() {
                sim.register_public(id);
            }
            sim.add_node(id, CroupierNode::new(id, class, config.clone()));
        }
        sim
    }

    /// A fault plane on `sim`'s seed that drops every message with probability `p`.
    fn lossy_plane(sim: &Simulation<CroupierNode>, p: f64) -> FaultPlane {
        let plane = FaultPlane::new(sim.config().seed);
        plane.set_default_profile(FaultProfile::lossy(p));
        plane
    }

    #[test]
    fn bootstrap_fills_the_public_view() {
        let mut sim = build_sim(10, 10, CroupierConfig::default(), 1);
        sim.run_for_rounds(1);
        for (id, node) in sim.nodes() {
            assert!(
                !node.public_view().is_empty(),
                "node {id} should know at least one public node after bootstrap"
            );
        }
    }

    #[test]
    fn views_converge_and_respect_class_separation() {
        let mut sim = build_sim(5, 20, CroupierConfig::default(), 2);
        sim.run_for_rounds(50);
        for (_, node) in sim.nodes() {
            for d in node.public_view().iter() {
                assert!(
                    d.class().is_public(),
                    "public view must only hold public nodes"
                );
                assert!(d.node().as_u64() < 5);
            }
            for d in node.private_view().iter() {
                assert!(
                    d.class().is_private(),
                    "private view must only hold private nodes"
                );
                assert!(d.node().as_u64() >= 5);
            }
            assert!(!node.public_view().contains(node.id()), "no self-loop");
            assert!(!node.private_view().contains(node.id()), "no self-loop");
        }
    }

    #[test]
    fn private_nodes_fill_their_private_views_despite_nats() {
        let mut sim = build_sim(5, 20, CroupierConfig::default(), 3);
        sim.run_for_rounds(60);
        let underfilled = sim
            .nodes()
            .filter(|(_, n)| n.private_view().len() < 5)
            .count();
        assert!(
            underfilled <= 2,
            "almost every node should have discovered private nodes, {underfilled} have not"
        );
    }

    #[test]
    fn ratio_estimates_converge_to_the_true_ratio() {
        let mut sim = build_sim(10, 40, CroupierConfig::default(), 4);
        sim.run_for_rounds(80);
        let mut worst: f64 = 0.0;
        for (_, node) in sim.nodes() {
            let est = node
                .ratio_estimate()
                .expect("every node should have an estimate");
            worst = worst.max((est - 0.2).abs());
        }
        assert!(
            worst < 0.08,
            "worst-case estimation error too high: {worst}"
        );
    }

    #[test]
    fn croupiers_receive_requests_private_nodes_do_not() {
        let mut sim = build_sim(5, 20, CroupierConfig::default(), 5);
        sim.run_for_rounds(40);
        for (_, node) in sim.nodes() {
            match node.class() {
                NatClass::Public => assert!(node.shuffle_requests_received() > 0),
                NatClass::Private => assert_eq!(node.shuffle_requests_received(), 0),
            }
            assert!(node.shuffle_responses_received() > 0);
        }
    }

    #[test]
    fn samples_cover_both_classes() {
        let mut sim = build_sim(5, 20, CroupierConfig::default(), 6);
        sim.run_for_rounds(60);
        let mut sampled_public = 0;
        let mut sampled_private = 0;
        for _ in 0..200 {
            for id in sim.node_ids() {
                if let Some(sample) = sim.sample_from(id) {
                    if sample.as_u64() < 5 {
                        sampled_public += 1;
                    } else {
                        sampled_private += 1;
                    }
                }
            }
        }
        assert!(sampled_public > 0);
        assert!(sampled_private > 0);
        let fraction = sampled_public as f64 / (sampled_public + sampled_private) as f64;
        assert!(
            (fraction - 0.2).abs() < 0.1,
            "sampled public fraction {fraction} should approximate the 0.2 ratio"
        );
    }

    #[test]
    fn message_sizes_stay_bounded() {
        let config = CroupierConfig::default();
        let mut sim = build_sim(5, 20, config.clone(), 7);
        sim.run_for_rounds(30);
        // Upper bound: header + framing + (2*shuffle_size + 1) descriptors + (share+1) estimates.
        let bound = 28
            + 6
            + (2 * config.shuffle_size + 1) * crate::DESCRIPTOR_WIRE_BYTES
            + (config.estimate_share_size + 1) * crate::ESTIMATE_WIRE_BYTES;
        let node = sim.node(NodeId::new(3)).unwrap().clone();
        let payload = ShufflePayload {
            sender_class: node.class(),
            public_descriptors: node
                .public_view()
                .iter()
                .copied()
                .take(config.shuffle_size)
                .collect(),
            private_descriptors: node
                .private_view()
                .iter()
                .copied()
                .take(config.shuffle_size)
                .collect(),
            estimates: Default::default(),
        };
        assert!(CroupierMessage::ShuffleRequest(Box::new(payload)).wire_size() <= bound);
    }

    #[test]
    fn healer_and_random_policies_still_converge() {
        let config = CroupierConfig::default()
            .with_selection(SelectionPolicy::Random)
            .with_merge(MergePolicy::Healer);
        let mut sim = build_sim(5, 20, config, 8);
        sim.run_for_rounds(60);
        for (_, node) in sim.nodes() {
            assert!(node.ratio_estimate().is_some());
            assert!(!node.public_view().is_empty());
        }
    }

    #[test]
    fn isolated_node_without_bootstrap_stays_silent() {
        // A single node with nothing in its public view never sends anything.
        let mut sim: Simulation<CroupierNode> =
            Simulation::new(SimulationConfig::default().with_seed(9));
        sim.add_node(
            NodeId::new(0),
            CroupierNode::new(NodeId::new(0), NatClass::Private, CroupierConfig::default()),
        );
        sim.run_for_rounds(10);
        assert_eq!(sim.network_stats().total(), 0);
        assert_eq!(sim.node(NodeId::new(0)).unwrap().rounds_executed(), 10);
    }

    #[test]
    fn timeouts_fire_retries_and_abandon_unanswered_exchanges() {
        let mut sim = build_sim(5, 20, CroupierConfig::default(), 11);
        sim.set_fault_plane(lossy_plane(&sim, 1.0));
        sim.run_for_rounds(10);
        let mut retries = 0;
        let mut abandoned = 0;
        for (_, node) in sim.nodes() {
            assert_eq!(node.shuffle_responses_received(), 0);
            retries += PssNode::retries_fired(node);
            abandoned += PssNode::exchanges_abandoned(node);
        }
        assert!(retries > 0, "no retry fired under 100% loss");
        assert!(abandoned > 0, "no unanswered exchange was abandoned");
        // The retry budget bounds the amplification: at most `max_retries` resends per
        // exchange, and every exchange is either abandoned or still pending at the end.
        let policy = RetryPolicy::for_round_period(sim.config().round_period);
        let exchanges = abandoned + sim.len() as u64;
        assert!(retries <= exchanges * policy.max_retries as u64);
    }

    #[test]
    fn retries_recover_exchanges_under_heavy_loss() {
        let mut sim = build_sim(5, 20, CroupierConfig::default(), 12);
        sim.set_fault_plane(lossy_plane(&sim, 0.4));
        sim.run_for_rounds(40);
        let mut responses = 0;
        let mut retries = 0;
        for (_, node) in sim.nodes() {
            responses += node.shuffle_responses_received();
            retries += PssNode::retries_fired(node);
        }
        assert!(retries > 0, "40% loss must trigger some retries");
        assert!(
            responses > 0,
            "shuffles must still complete despite heavy loss"
        );
    }

    #[test]
    fn known_peers_reports_union_of_views() {
        let mut sim = build_sim(5, 10, CroupierConfig::default(), 10);
        sim.run_for_rounds(30);
        let node = sim.node(NodeId::new(7)).unwrap();
        let peers = node.known_peers();
        assert_eq!(
            peers.len(),
            node.public_view().len() + node.private_view().len()
        );
    }
}
