//! Nylon: NAT-resilient gossip peer sampling through chains of rendezvous nodes
//! (Kermarrec, Pace, Quéma & Schiavoni, ICDCS 2009).
//!
//! Nylon keeps a single Cyclon-style view. Reachability of private nodes is obtained by
//! *hole punching*, coordinated through **rendezvous nodes (RVPs)**: two nodes become each
//! other's RVP whenever they exchange views. To shuffle with a private node, the initiator
//! sends a hole-punch request that is routed hop-by-hop along the chain of RVPs through
//! which the target's descriptor travelled; the node at the end of the chain still has an
//! open NAT mapping to the target and delivers the request; the target then *punches* a
//! direct path back to the initiator and the view exchange proceeds directly.
//!
//! The RVP chains are unbounded in the original protocol; under churn they break, which is
//! why Nylon degrades faster than Gozar and Croupier in the paper's failure experiments.
//! Private nodes also pay keep-alive traffic towards their RVPs to keep NAT mappings open.
//!
//! Hole-punch routing, punching and keep-alives all go through the engine-agnostic
//! [`Context`], so the same state machine runs unchanged on both engines.

use std::collections::HashMap;

use croupier::{
    Descriptor, DescriptorBatch, View, BOOTSTRAP_SIZE, DESCRIPTOR_WIRE_BYTES, SHUFFLE_SIZE,
    UDP_IP_HEADER_BYTES, VIEW_SIZE,
};
use croupier_simulator::{Context, NatClass, NodeId, Protocol, PssNode, WireSize};
use rand::rngs::SmallRng;

use crate::config::BaselineConfig;

/// Rounds between the keep-alives a private node sends its RVPs to refresh the NAT
/// mappings (must stay below the NAT mapping timeout).
const KEEPALIVE_ROUNDS: u64 = 5;

/// Maximum length of a rendezvous chain before a hole-punch request is dropped.
const CHAIN_TTL: u32 = 8;

/// How many rounds a past exchange keeps counting as an "open connection" (bounded by the
/// NAT mapping timeout).
const OPEN_CONNECTION_ROUNDS: u64 = 10;

/// How many rounds an entry may wait for a hole punch before the pending shuffle is
/// abandoned.
const PUNCH_PATIENCE_ROUNDS: u64 = 5;

/// How many rounds a sent shuffle subset may wait for its response before the exchange is
/// abandoned and its swapper bookkeeping released.
const PENDING_PATIENCE_ROUNDS: u64 = 5;

/// Expired hole-punch waits charged against a chain's first hop before the hop is
/// considered dead; routes through a dead hop are invalidated so fresh chains can be
/// learned, instead of feeding more requests into a broken one.
const HOP_SUSPECT_STRIKES: u32 = 2;

/// Maximum number of RVPs a private node keeps alive with periodic traffic. Nylon nodes
/// must keep NAT mappings open towards every rendezvous node that may have to forward
/// hole-punch requests to them, which is most of their recent exchange partners — a key
/// contributor to Nylon's overhead in Fig. 7(a) of the Croupier paper.
const MAX_KEEPALIVE_TARGETS: usize = 10;

/// Nylon's messages.
#[derive(Clone, Debug, PartialEq)]
pub enum NylonMessage {
    /// A view-exchange request, always sent over a direct (possibly hole-punched) path.
    ShuffleRequest {
        /// The initiating node.
        initiator: NodeId,
        /// The initiator's connectivity class.
        initiator_class: NatClass,
        /// Subset of the initiator's view including its own fresh descriptor.
        descriptors: DescriptorBatch,
    },
    /// A view-exchange response, sent directly back to the initiator.
    ShuffleResponse {
        /// Subset of the responder's view.
        descriptors: DescriptorBatch,
    },
    /// A hole-punch request routed along the chain of rendezvous nodes towards `target`.
    HolePunchRequest {
        /// The node that wants to shuffle with `target`.
        initiator: NodeId,
        /// The private node to be reached.
        target: NodeId,
        /// Remaining hops before the request is dropped.
        ttl: u32,
    },
    /// The punch packet a private target sends directly to the initiator; it opens the
    /// target's NAT mapping towards the initiator.
    HolePunch {
        /// The private node that punched.
        target: NodeId,
    },
    /// Keep-alive from a private node to one of its rendezvous nodes.
    KeepAlive,
}

impl NylonMessage {
    /// Corruption helper: truncate a descriptor list (as a short datagram decodes) or
    /// scramble one descriptor into a bogus identity, class and age.
    fn mutate_descriptors(descriptors: &mut DescriptorBatch, rng: &mut SmallRng) {
        use rand::Rng;
        if rng.gen_bool(0.5) {
            let keep = rng.gen_range(0..=descriptors.len());
            descriptors.truncate(keep);
        } else if !descriptors.is_empty() {
            let idx = rng.gen_range(0..descriptors.len());
            descriptors.as_mut_slice()[idx] = Descriptor::with_age(
                NodeId::new(rng.gen_range(0..1 << 20)),
                if rng.gen_bool(0.5) {
                    NatClass::Public
                } else {
                    NatClass::Private
                },
                rng.gen_range(0..1 << 16),
            );
        }
    }
}

impl WireSize for NylonMessage {
    fn wire_size(&self) -> usize {
        let payload = match self {
            NylonMessage::ShuffleRequest { descriptors, .. } => {
                10 + descriptors.len() * DESCRIPTOR_WIRE_BYTES
            }
            NylonMessage::ShuffleResponse { descriptors } => {
                2 + descriptors.len() * DESCRIPTOR_WIRE_BYTES
            }
            NylonMessage::HolePunchRequest { .. } => 18,
            NylonMessage::HolePunch { .. } => 8,
            NylonMessage::KeepAlive => 2,
        };
        UDP_IP_HEADER_BYTES + payload
    }

    fn fault_mutate(&mut self, rng: &mut SmallRng) {
        use rand::Rng;
        match self {
            NylonMessage::ShuffleRequest {
                initiator_class,
                descriptors,
                ..
            } => {
                if rng.gen_bool(0.25) {
                    *initiator_class = match *initiator_class {
                        NatClass::Public => NatClass::Private,
                        NatClass::Private => NatClass::Public,
                    };
                } else {
                    Self::mutate_descriptors(descriptors, rng);
                }
            }
            NylonMessage::ShuffleResponse { descriptors } => {
                Self::mutate_descriptors(descriptors, rng);
            }
            NylonMessage::HolePunchRequest { target, ttl, .. } => {
                if rng.gen_bool(0.5) {
                    // A scrambled target sends the chain hunting for a bogus node.
                    *target = NodeId::new(rng.gen_range(0..1 << 20));
                } else {
                    *ttl = rng.gen_range(0..=*ttl);
                }
            }
            NylonMessage::HolePunch { target } => {
                *target = NodeId::new(rng.gen_range(0..1 << 20));
            }
            NylonMessage::KeepAlive => {}
        }
    }
}

/// A node running the Nylon protocol.
#[derive(Clone, Debug)]
pub struct NylonNode {
    id: NodeId,
    class: NatClass,
    view: View,
    /// Next hop towards each known node: the neighbour from which its descriptor was
    /// learned (the RVP chain).
    next_hop: HashMap<NodeId, NodeId>,
    /// Round of the most recent direct exchange with each peer ("open connection").
    open_connections: HashMap<NodeId, u64>,
    /// Shuffle subsets sent and awaiting a response, keyed by peer and stamped with the
    /// round in which they were sent (entries expire after [`PENDING_PATIENCE_ROUNDS`]).
    /// The subsets are inline, so the per-round insert/remove churn touches no payload
    /// heap memory.
    pending: HashMap<NodeId, (DescriptorBatch, u64)>,
    /// Shuffle subsets prepared and waiting for a hole punch, keyed by target and stamped
    /// with the round in which they were created plus the chain hop the hole-punch
    /// request was routed through (charged with a strike if the punch never arrives).
    awaiting_punch: HashMap<NodeId, (DescriptorBatch, u64, NodeId)>,
    /// Expiry strikes against chain first-hops; a hop at [`HOP_SUSPECT_STRIKES`] is
    /// treated as dead until it sends us anything.
    hop_suspect: HashMap<NodeId, u32>,
    rounds: u64,
    punches_forwarded: u64,
    exchanges_completed: u64,
    abandoned_exchanges: u64,
}

impl NylonNode {
    /// Creates a Nylon node of the given connectivity class.
    pub fn new(id: NodeId, class: NatClass, _config: BaselineConfig) -> Self {
        NylonNode {
            id,
            class,
            view: View::new(VIEW_SIZE),
            next_hop: HashMap::new(),
            open_connections: HashMap::new(),
            pending: HashMap::new(),
            awaiting_punch: HashMap::new(),
            hop_suspect: HashMap::new(),
            rounds: 0,
            punches_forwarded: 0,
            exchanges_completed: 0,
            abandoned_exchanges: 0,
        }
    }

    fn own_descriptor(&self) -> Descriptor {
        Descriptor::new(self.id, self.class)
    }

    fn connection_open(&self, peer: NodeId) -> bool {
        self.open_connections
            .get(&peer)
            .map(|round| self.rounds.saturating_sub(*round) < OPEN_CONNECTION_ROUNDS)
            .unwrap_or(false)
    }

    fn absorb(&mut self, learned_from: NodeId, sent: &[Descriptor], received: &[Descriptor]) {
        for d in received {
            if d.node() != self.id && d.class().is_private() {
                self.next_hop.insert(d.node(), learned_from);
            }
        }
        self.view.apply_exchange_swapper(sent, received, self.id);
    }

    fn send_direct_shuffle(
        &mut self,
        target: NodeId,
        sent: DescriptorBatch,
        ctx: &mut Context<'_, NylonMessage>,
    ) {
        let mut descriptors = sent.clone();
        descriptors.push(self.own_descriptor());
        if self.pending.insert(target, (sent, self.rounds)).is_some() {
            // A new shuffle to the same peer displaces an unanswered one.
            self.abandoned_exchanges += 1;
        }
        ctx.send(
            target,
            NylonMessage::ShuffleRequest {
                initiator: self.id,
                initiator_class: self.class,
                descriptors,
            },
        );
    }

    fn maintain_keepalives(&mut self, ctx: &mut Context<'_, NylonMessage>) {
        // Nylon must keep a NAT mapping open towards *every* rendezvous node that may have
        // to forward a hole-punch request (roughly its whole in-view), whereas Gozar only
        // keeps a couple of dedicated relays alive.
        if self.class.is_public() || !self.rounds.is_multiple_of(KEEPALIVE_ROUNDS) {
            return;
        }
        let mut rvps: Vec<(NodeId, u64)> = self
            .open_connections
            .iter()
            .map(|(node, round)| (*node, *round))
            .collect();
        // Most recently used first; ties broken by identifier for determinism.
        rvps.sort_by_key(|(node, round)| (std::cmp::Reverse(*round), *node));
        for (rvp, _) in rvps.into_iter().take(MAX_KEEPALIVE_TARGETS) {
            ctx.send(rvp, NylonMessage::KeepAlive);
        }
    }

    fn expire_stale_punch_waits(&mut self) {
        let rounds = self.rounds;
        let mut abandoned = 0u64;
        let mut struck_hops: Vec<NodeId> = Vec::new();
        self.awaiting_punch.retain(|_, (_, created, hop)| {
            let keep = rounds.saturating_sub(*created) <= PUNCH_PATIENCE_ROUNDS;
            if !keep {
                abandoned += 1;
                struck_hops.push(*hop);
            }
            keep
        });
        for hop in struck_hops {
            // The punch never arrived: the chain through this hop is broken somewhere.
            *self.hop_suspect.entry(hop).or_insert(0) += 1;
        }
        self.abandoned_exchanges += abandoned;
    }

    /// Expires unanswered direct shuffles so their swapper bookkeeping cannot pile up
    /// forever behind lost responses.
    fn expire_stale_pending(&mut self) {
        let rounds = self.rounds;
        let mut abandoned = 0u64;
        self.pending.retain(|_, (_, sent_round)| {
            let keep = rounds.saturating_sub(*sent_round) <= PENDING_PATIENCE_ROUNDS;
            if !keep {
                abandoned += 1;
            }
            keep
        });
        self.abandoned_exchanges += abandoned;
    }

    /// Returns `true` if `hop` has accumulated enough expiry strikes to be treated as a
    /// dead chain hop.
    fn is_suspected_hop(&self, hop: NodeId) -> bool {
        self.hop_suspect.get(&hop).copied().unwrap_or(0) >= HOP_SUSPECT_STRIKES
    }
}

impl Protocol for NylonNode {
    type Message = NylonMessage;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
        self.view.bootstrap(BOOTSTRAP_SIZE, ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Self::Message>) {
        self.rounds += 1;
        self.view.increment_ages();
        self.expire_stale_punch_waits();
        self.expire_stale_pending();
        self.maintain_keepalives(ctx);
        if self.view.is_empty() {
            // Re-contact the bootstrap server instead of staying isolated (see Cyclon).
            self.view.bootstrap(BOOTSTRAP_SIZE, ctx);
            return;
        }

        let Some(target_descriptor) = self.view.oldest().copied() else {
            return;
        };
        let target = target_descriptor.node();
        self.view.remove(target);
        let sent = self.view.random_subset(SHUFFLE_SIZE - 1, ctx.rng());

        if target_descriptor.class().is_public() || self.connection_open(target) {
            self.send_direct_shuffle(target, sent, ctx);
            return;
        }

        // Private target without an open connection: route a hole-punch request along the
        // RVP chain.
        match self.next_hop.get(&target).copied() {
            Some(next) if !self.is_suspected_hop(next) => {
                if self
                    .awaiting_punch
                    .insert(target, (sent, self.rounds, next))
                    .is_some()
                {
                    // A fresh punch wait displaces an unexpired one for the same target.
                    self.abandoned_exchanges += 1;
                }
                ctx.send(
                    next,
                    NylonMessage::HolePunchRequest {
                        initiator: self.id,
                        target,
                        ttl: CHAIN_TTL,
                    },
                );
            }
            Some(dead_hop) => {
                // The chain's first hop is suspected dead: invalidate the route so the
                // next exchange can learn a fresh chain instead of feeding this one.
                debug_assert!(self.is_suspected_hop(dead_hop));
                self.next_hop.remove(&target);
            }
            // No route to the private target yet: this round's exchange is skipped.
            None => {}
        }
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Message,
        ctx: &mut Context<'_, Self::Message>,
    ) {
        // Any delivered message is proof of life: clear expiry strikes against the
        // sender so a once-congested hop becomes routable again.
        self.hop_suspect.remove(&from);
        match msg {
            NylonMessage::ShuffleRequest {
                initiator,
                initiator_class: _,
                descriptors,
            } => {
                self.open_connections.insert(initiator, self.rounds);
                let reply = self.view.random_subset(SHUFFLE_SIZE, ctx.rng());
                self.absorb(from, &reply, &descriptors);
                ctx.send(
                    initiator,
                    NylonMessage::ShuffleResponse { descriptors: reply },
                );
            }
            NylonMessage::ShuffleResponse { descriptors } => {
                self.exchanges_completed += 1;
                self.open_connections.insert(from, self.rounds);
                let (sent, _) = self.pending.remove(&from).unwrap_or_default();
                self.absorb(from, &sent, &descriptors);
            }
            NylonMessage::HolePunchRequest {
                initiator,
                target,
                ttl,
            } => {
                if target == self.id {
                    // End of the chain: punch a direct path back to the initiator and wait
                    // for its shuffle request.
                    self.open_connections.insert(initiator, self.rounds);
                    ctx.send(initiator, NylonMessage::HolePunch { target: self.id });
                    return;
                }
                if ttl == 0 {
                    return;
                }
                self.punches_forwarded += 1;
                if self.connection_open(target) {
                    // We are the target's RVP: deliver the request straight through the NAT
                    // mapping the target keeps open towards us.
                    ctx.send(
                        target,
                        NylonMessage::HolePunchRequest {
                            initiator,
                            target,
                            ttl: ttl - 1,
                        },
                    );
                } else if let Some(next) = self.next_hop.get(&target).copied() {
                    ctx.send(
                        next,
                        NylonMessage::HolePunchRequest {
                            initiator,
                            target,
                            ttl: ttl - 1,
                        },
                    );
                }
                // No route: the request dies here, as it would in the real protocol.
            }
            NylonMessage::HolePunch { target } => {
                self.open_connections.insert(target, self.rounds);
                if let Some((sent, _, _)) = self.awaiting_punch.remove(&target) {
                    self.send_direct_shuffle(target, sent, ctx);
                }
            }
            NylonMessage::KeepAlive => {
                // Receiving a keep-alive marks the sender as reachable through the mapping
                // it just refreshed, so we can keep acting as its RVP.
                self.open_connections.insert(from, self.rounds);
            }
        }
    }
}

impl PssNode for NylonNode {
    fn nat_class(&self) -> NatClass {
        self.class
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

    fn exchanges_abandoned(&self) -> u64 {
        self.abandoned_exchanges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use croupier_nat::NatTopologyBuilder;
    use croupier_simulator::{Simulation, SimulationConfig, SimulationEngine};

    impl NylonNode {
        /// The node's partial view.
        pub(crate) fn view(&self) -> &View {
            &self.view
        }
    }

    fn build_sim(n_public: u64, n_private: u64, seed: u64) -> Simulation<NylonNode> {
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
            sim.add_node(id, NylonNode::new(id, class, BaselineConfig));
        }
        sim
    }

    #[test]
    fn views_fill_and_contain_private_nodes() {
        let mut sim = build_sim(5, 20, 1);
        sim.run_for_rounds(60);
        let mut with_private = 0;
        for (_, node) in sim.nodes() {
            assert!(!node.view().is_empty());
            if node.view().iter().any(|d| d.class().is_private()) {
                with_private += 1;
            }
        }
        assert!(
            with_private > 12,
            "private nodes should spread through views, got {with_private}"
        );
    }

    #[test]
    fn exchanges_complete_including_private_targets() {
        let mut sim = build_sim(5, 20, 2);
        sim.run_for_rounds(60);
        let total: u64 = sim.nodes().map(|(_, n)| n.exchanges_completed).sum();
        assert!(
            total > 500,
            "expected plenty of completed exchanges, got {total}"
        );
        let punches: u64 = sim.nodes().map(|(_, n)| n.punches_forwarded).sum();
        assert!(punches > 0, "RVP chains should have forwarded hole punches");
    }

    #[test]
    fn hole_punching_opens_direct_paths() {
        let mut sim = build_sim(5, 20, 3);
        sim.run_for_rounds(60);
        // Private-to-private exchanges require punching; count exchanges completed by
        // private nodes as evidence that punching works.
        let private_exchanges: u64 = sim
            .nodes()
            .filter(|(_, n)| n.nat_class().is_private())
            .map(|(_, n)| n.exchanges_completed)
            .sum();
        assert!(
            private_exchanges > 200,
            "private nodes should complete exchanges, got {private_exchanges}"
        );
    }

    #[test]
    fn keepalives_are_sent_by_private_nodes_only() {
        let mut sim = build_sim(3, 10, 4);
        sim.run_for_rounds(60);
        // Keep-alives are the cheapest messages; verify private nodes send more messages
        // than rounds (shuffles + keep-alives) while remaining bounded.
        for (id, node) in sim.nodes() {
            let sent = sim.traffic().node_or_default(id).messages_sent;
            if node.nat_class().is_private() {
                assert!(sent > 0);
            }
        }
    }

    #[test]
    fn lost_exchanges_expire_and_are_counted_abandoned() {
        use croupier_simulator::{FaultPlane, FaultProfile};
        // Total loss: every shuffle and punch wait goes unanswered, so the patience
        // windows must expire them instead of letting the pending maps grow forever.
        let mut sim = build_sim(5, 20, 9);
        let plane = FaultPlane::new(sim.config().seed);
        plane.set_default_profile(FaultProfile::lossy(1.0));
        sim.set_fault_plane(plane);
        sim.run_for_rounds(30);
        let abandoned: u64 = sim.nodes().map(|(_, n)| n.exchanges_abandoned()).sum();
        assert!(abandoned > 0, "expiry should count abandoned exchanges");
        // One shuffle starts per round, so at most one pending entry per round of the
        // patience window can be alive at any instant.
        let cap = PENDING_PATIENCE_ROUNDS as usize + 1;
        for (_, node) in sim.nodes() {
            assert!(
                node.pending.len() <= cap,
                "stale pending entries must expire, got {}",
                node.pending.len()
            );
            assert!(node.awaiting_punch.len() <= cap);
        }
    }

    #[test]
    fn unreachable_targets_are_counted_not_retried_forever() {
        // With zero public nodes, nothing can bootstrap, so no shuffle can ever leave.
        let mut sim = build_sim(0, 5, 5);
        sim.run_for_rounds(10);
        assert_eq!(sim.network_stats().total(), 0);
    }

    #[test]
    fn message_sizes_are_accounted() {
        let req = NylonMessage::ShuffleRequest {
            initiator: NodeId::new(1),
            initiator_class: NatClass::Private,
            descriptors: (0..5u64)
                .map(|i| Descriptor::new(NodeId::new(i), NatClass::Public))
                .collect::<DescriptorBatch>(),
        };
        assert!(req.wire_size() > NylonMessage::KeepAlive.wire_size());
        assert!(
            NylonMessage::HolePunchRequest {
                initiator: NodeId::new(1),
                target: NodeId::new(2),
                ttl: 3,
            }
            .wire_size()
                < req.wire_size()
        );
    }

    #[test]
    fn nylon_sends_more_messages_than_croupier() {
        // Croupier needs exactly one request and one response per node per round; Nylon
        // additionally pays hole-punch chains and keep-alives. (Figure 7(a) of the paper
        // reports the byte-level comparison relative to Cyclon; the message-count ordering
        // tested here is the mechanism behind it.)
        let mut nylon = build_sim(5, 20, 6);
        nylon.run_for_rounds(50);
        let nylon_messages = nylon.traffic().total_messages_sent();

        let topology = NatTopologyBuilder::new(6).build();
        let mut croupier_sim = Simulation::new(SimulationConfig::default().with_seed(6));
        croupier_sim.set_delivery_filter(topology.clone());
        for i in 0..25u64 {
            let id = NodeId::new(i);
            let class = if i < 5 {
                NatClass::Public
            } else {
                NatClass::Private
            };
            topology.add_node(id, class);
            if class.is_public() {
                croupier_sim.register_public(id);
            }
            croupier_sim.add_node(
                id,
                croupier::CroupierNode::new(id, class, croupier::CroupierConfig::default()),
            );
        }
        croupier_sim.run_for_rounds(50);
        assert!(nylon_messages > croupier_sim.traffic().total_messages_sent());
    }
}
