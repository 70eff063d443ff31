//! Gozar: NAT-friendly peer sampling with one-hop distributed relaying
//! (Payberah, Dowling & Haridi, DAIS 2011).
//!
//! Gozar keeps a single Cyclon-style view but makes private nodes reachable by *relaying*:
//!
//! * every private node registers with a small, redundant set of public **relay nodes** and
//!   refreshes its NAT mappings to them with periodic keep-alives;
//! * node descriptors of private nodes carry the addresses of their relays, so anyone who
//!   wants to shuffle with a private node can send the exchange through one of them
//!   (exactly one extra hop);
//! * responses travel the reverse path (or directly, when the initiator is public).
//!
//! Compared with Croupier this costs relay traffic on public nodes, keep-alive traffic on
//! private nodes and larger descriptors — the overhead gap measured in Fig. 7(a) of the
//! Croupier paper.
//!
//! All relay and keep-alive traffic is emitted through the engine-agnostic [`Context`],
//! so the same state machine runs unchanged on both engines.

use std::collections::HashMap;

use croupier::{Descriptor, DescriptorBatch, View, DESCRIPTOR_WIRE_BYTES, UDP_IP_HEADER_BYTES};
use croupier_simulator::{
    Context, ExchangeTracker, InlineVec, NatClass, NodeId, Protocol, PssNode, Retry, TimerKey,
    WireSize,
};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

use crate::config::BaselineConfig;

/// Wire bytes per relay address carried inside a descriptor (IPv4 + port).
const RELAY_ADDR_BYTES: usize = 6;

/// Inline capacity of relay lists: double the default relay redundancy (2); larger
/// redundancy configurations spill to the heap transparently.
pub const RELAY_INLINE_CAPACITY: usize = 4;

/// The relay addresses carried inside a Gozar view entry, stored inline so entries clone
/// without heap allocation on the shuffle hot path.
pub type RelayList = InlineVec<NodeId, RELAY_INLINE_CAPACITY>;

/// Inline capacity of a shuffle's entry list (`shuffle_size + 1` with headroom, like
/// [`croupier::DESCRIPTOR_INLINE_CAPACITY`]).
pub const ENTRY_INLINE_CAPACITY: usize = 8;

/// The entry list carried in Gozar shuffle messages.
pub type EntryBatch = InlineVec<GozarEntry, ENTRY_INLINE_CAPACITY>;

/// A view entry as exchanged by Gozar: a descriptor plus, for private nodes, the addresses
/// of their relay nodes.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct GozarEntry {
    /// The node descriptor.
    pub descriptor: Descriptor,
    /// Relay nodes through which the described node can be reached (empty for public
    /// nodes).
    pub relays: RelayList,
}

impl GozarEntry {
    /// Creates an entry for a public node (no relays).
    pub fn public(descriptor: Descriptor) -> Self {
        GozarEntry {
            descriptor,
            relays: RelayList::new(),
        }
    }

    fn wire_bytes(&self) -> usize {
        DESCRIPTOR_WIRE_BYTES + self.relays.len() * RELAY_ADDR_BYTES
    }
}

/// Gozar's messages.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum GozarMessage {
    /// A view-exchange request. Carries the initiator's identity, class and relays so the
    /// recipient can route the response.
    ShuffleRequest {
        /// The node that initiated the exchange.
        initiator: NodeId,
        /// The initiator's connectivity class.
        initiator_class: NatClass,
        /// The initiator's relay nodes (empty if it is public).
        initiator_relays: RelayList,
        /// Subset of the initiator's view, including its own fresh entry.
        entries: EntryBatch,
    },
    /// A view-exchange response.
    ShuffleResponse {
        /// Subset of the responder's view.
        entries: EntryBatch,
    },
    /// One-hop relaying envelope: the receiving relay forwards `inner` to `dest`.
    Relayed {
        /// Final destination of the inner message.
        dest: NodeId,
        /// The relayed message.
        inner: Box<GozarMessage>,
    },
    /// Private node → public node: request to act as a relay.
    RelayRegister,
    /// Public node → private node: acknowledgement of a registration or keep-alive.
    RelayAccept,
    /// Private node → relay: refreshes the NAT mapping so relayed traffic keeps flowing.
    KeepAlive,
}

impl GozarMessage {
    /// Corruption helper shared by the entry-carrying variants: truncate the list (as a
    /// short datagram decodes) or scramble one entry's descriptor and relays.
    fn mutate_entries(entries: &mut EntryBatch, rng: &mut SmallRng) {
        use rand::Rng;
        if rng.gen_bool(0.5) {
            let keep = rng.gen_range(0..=entries.len());
            entries.truncate(keep);
        } else if !entries.is_empty() {
            let idx = rng.gen_range(0..entries.len());
            let entry = &mut entries.as_mut_slice()[idx];
            entry.descriptor = Descriptor::with_age(
                NodeId::new(rng.gen_range(0..1 << 20)),
                if rng.gen_bool(0.5) {
                    NatClass::Public
                } else {
                    NatClass::Private
                },
                rng.gen_range(0..1 << 16),
            );
            entry.relays.clear();
        }
    }
}

impl WireSize for GozarMessage {
    fn wire_size(&self) -> usize {
        match self {
            GozarMessage::ShuffleRequest {
                initiator_relays,
                entries,
                ..
            } => {
                UDP_IP_HEADER_BYTES
                    + 8
                    + initiator_relays.len() * RELAY_ADDR_BYTES
                    + entries.iter().map(GozarEntry::wire_bytes).sum::<usize>()
            }
            GozarMessage::ShuffleResponse { entries } => {
                UDP_IP_HEADER_BYTES + 2 + entries.iter().map(GozarEntry::wire_bytes).sum::<usize>()
            }
            GozarMessage::Relayed { inner, .. } => 6 + inner.wire_size(),
            GozarMessage::RelayRegister | GozarMessage::RelayAccept | GozarMessage::KeepAlive => {
                UDP_IP_HEADER_BYTES + 2
            }
        }
    }

    fn fault_mutate(&mut self, rng: &mut SmallRng) {
        use rand::Rng;
        match self {
            GozarMessage::ShuffleRequest {
                initiator_class,
                initiator_relays,
                entries,
                ..
            } => match rng.gen_range(0..3u8) {
                0 => Self::mutate_entries(entries, rng),
                // A flipped class bit makes the responder route the reply wrongly.
                1 => {
                    *initiator_class = match *initiator_class {
                        NatClass::Public => NatClass::Private,
                        NatClass::Private => NatClass::Public,
                    };
                }
                // Lost relay list: a private initiator becomes unreachable for replies.
                _ => initiator_relays.clear(),
            },
            GozarMessage::ShuffleResponse { entries } => Self::mutate_entries(entries, rng),
            GozarMessage::Relayed { dest, inner } => {
                if rng.gen_bool(0.5) {
                    // A scrambled destination sends the envelope to a bogus node.
                    *dest = NodeId::new(rng.gen_range(0..1 << 20));
                } else {
                    inner.fault_mutate(rng);
                }
            }
            GozarMessage::RelayRegister | GozarMessage::RelayAccept | GozarMessage::KeepAlive => {}
        }
    }
}

/// Timed-out requests through a relay before the relay is considered dead and excluded
/// from relay selection (until it shows signs of life again).
const RELAY_SUSPECT_STRIKES: u32 = 2;

/// A node running the Gozar protocol.
///
/// See the crate-level documentation for the comparison setup shared with the other
/// protocols.
#[derive(Clone, Debug)]
pub struct GozarNode {
    id: NodeId,
    class: NatClass,
    config: BaselineConfig,
    view: View,
    /// Relays advertised by private nodes we know about.
    relay_cache: HashMap<NodeId, RelayList>,
    /// Our own relays (private nodes only).
    my_relays: RelayList,
    /// Round in which each of our relays last acknowledged us.
    relay_last_ack: HashMap<NodeId, u64>,
    /// Timeout strikes against relays we routed requests through; a relay at
    /// [`RELAY_SUSPECT_STRIKES`] is treated as dead until it sends us anything.
    relay_suspect: HashMap<NodeId, u32>,
    /// The exchange in flight: the subset we sent (the swapper's eviction candidates) and
    /// the relay the request last travelled through (`None` for direct sends).
    exchange: ExchangeTracker<(DescriptorBatch, Option<NodeId>)>,
    rounds: u64,
    messages_relayed: u64,
    exchanges_completed: u64,
    unreachable_targets: u64,
}

impl GozarNode {
    /// Creates a Gozar node of the given connectivity class.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent.
    pub fn new(id: NodeId, class: NatClass, config: BaselineConfig) -> Self {
        config.validate();
        GozarNode {
            id,
            class,
            view: View::new(config.view_size),
            relay_cache: HashMap::new(),
            my_relays: RelayList::new(),
            relay_last_ack: HashMap::new(),
            relay_suspect: HashMap::new(),
            exchange: ExchangeTracker::default(),
            rounds: 0,
            messages_relayed: 0,
            exchanges_completed: 0,
            unreachable_targets: 0,
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

    /// The relays this (private) node is registered with.
    pub fn relays(&self) -> &[NodeId] {
        &self.my_relays
    }

    /// Number of messages this (public) node has forwarded on behalf of private nodes.
    pub fn messages_relayed(&self) -> u64 {
        self.messages_relayed
    }

    /// Number of completed view exchanges.
    pub fn exchanges_completed(&self) -> u64 {
        self.exchanges_completed
    }

    /// Number of shuffle attempts abandoned because no relay was known for a private
    /// target.
    pub fn unreachable_targets(&self) -> u64 {
        self.unreachable_targets
    }

    fn bootstrap(&mut self, ctx: &mut Context<'_, GozarMessage>) {
        for node in ctx.bootstrap_sample(self.config.bootstrap_size.min(self.config.view_size)) {
            if node != self.id {
                self.view.insert(Descriptor::new(node, NatClass::Public));
            }
        }
    }

    fn own_entry(&self) -> GozarEntry {
        GozarEntry {
            descriptor: Descriptor::new(self.id, self.class),
            relays: self.my_relays.clone(),
        }
    }

    fn entries_from(&self, descriptors: &[Descriptor]) -> EntryBatch {
        descriptors
            .iter()
            .map(|d| GozarEntry {
                descriptor: *d,
                relays: self.relay_cache.get(&d.node()).cloned().unwrap_or_default(),
            })
            .collect()
    }

    fn absorb_entries(&mut self, entries: &[GozarEntry], sent: &[Descriptor]) {
        let descriptors: DescriptorBatch = entries.iter().map(|e| e.descriptor).collect();
        for entry in entries {
            if entry.descriptor.class().is_private() && !entry.relays.is_empty() {
                self.relay_cache
                    .insert(entry.descriptor.node(), entry.relays.clone());
            }
        }
        self.view
            .apply_exchange_swapper(sent, &descriptors, self.id);
    }

    /// Maintains this private node's relay set: drops relays that stopped acknowledging and
    /// registers with new public nodes when redundancy falls below the target.
    fn maintain_relays(&mut self, ctx: &mut Context<'_, GozarMessage>) {
        if self.class.is_public() {
            return;
        }
        let stale_after = self.config.keepalive_rounds * 3;
        let rounds = self.rounds;
        let last_ack = &self.relay_last_ack;
        // `retain` via the slice API: InlineVec has no retain, and the list is tiny.
        let mut keep = RelayList::new();
        for relay in self.my_relays.iter().copied() {
            if rounds.saturating_sub(last_ack.get(&relay).copied().unwrap_or(0)) < stale_after {
                keep.push(relay);
            }
        }
        self.my_relays = keep;

        if self.my_relays.len() < self.config.relay_redundancy {
            // Candidate relays: public nodes from our view, then the bootstrap server.
            let mut candidates: Vec<NodeId> = self
                .view
                .iter()
                .filter(|d| d.class().is_public())
                .map(|d| d.node())
                .filter(|n| !self.my_relays.contains(n))
                .collect();
            if candidates.is_empty() {
                candidates = ctx
                    .bootstrap_sample(self.config.relay_redundancy)
                    .into_iter()
                    .filter(|n| !self.my_relays.contains(n) && *n != self.id)
                    .collect();
            }
            candidates.shuffle(ctx.rng());
            while self.my_relays.len() < self.config.relay_redundancy {
                let Some(candidate) = candidates.pop() else {
                    break;
                };
                self.my_relays.push(candidate);
                self.relay_last_ack.insert(candidate, self.rounds);
                ctx.send(candidate, GozarMessage::RelayRegister);
            }
        }

        // Periodic keep-alives refresh both the NAT mappings and the liveness check.
        if self.rounds.is_multiple_of(self.config.keepalive_rounds) {
            for relay in &self.my_relays {
                ctx.send(*relay, GozarMessage::KeepAlive);
            }
        }
    }

    /// Picks a relay for `target`, preferring relays that are neither suspected dead
    /// (at [`RELAY_SUSPECT_STRIKES`]) nor the one a just-timed-out request went through
    /// (`avoid`). Falls back to suspected relays — a possibly-dead path beats no path —
    /// but never returns `avoid` unless it is the only relay advertised. Takes the two
    /// tables rather than `&self` so a retry can reroute while it holds its exchange.
    fn choose_relay(
        relay_cache: &HashMap<NodeId, RelayList>,
        relay_suspect: &HashMap<NodeId, u32>,
        target: NodeId,
        avoid: Option<NodeId>,
        rng: &mut SmallRng,
    ) -> Option<NodeId> {
        let relays = relay_cache.get(&target)?;
        let suspected =
            |r: &NodeId| relay_suspect.get(r).copied().unwrap_or(0) >= RELAY_SUSPECT_STRIKES;
        let healthy: Vec<NodeId> = relays
            .iter()
            .copied()
            .filter(|r| Some(*r) != avoid && !suspected(r))
            .collect();
        if let Some(relay) = healthy.choose(rng) {
            return Some(*relay);
        }
        let fallback: Vec<NodeId> = relays
            .iter()
            .copied()
            .filter(|r| Some(*r) != avoid)
            .collect();
        fallback
            .choose(rng)
            .copied()
            .or_else(|| avoid.filter(|r| relays.contains(r)))
    }

    /// Builds the shuffle request for the exchange's `sent` subset.
    fn build_request(&self, sent: &[Descriptor]) -> GozarMessage {
        let mut entries = self.entries_from(sent);
        entries.push(self.own_entry());
        GozarMessage::ShuffleRequest {
            initiator: self.id,
            initiator_class: self.class,
            initiator_relays: self.my_relays.clone(),
            entries,
        }
    }

    /// Sends `msg` to `dest`, through `relay` if there is one.
    fn send_via(
        relay: Option<NodeId>,
        dest: NodeId,
        msg: GozarMessage,
        ctx: &mut Context<'_, GozarMessage>,
    ) {
        match relay {
            Some(relay) => ctx.send(
                relay,
                GozarMessage::Relayed {
                    dest,
                    inner: Box::new(msg),
                },
            ),
            None => ctx.send(dest, msg),
        }
    }

    fn send_request(&mut self, target: NodeId, ctx: &mut Context<'_, GozarMessage>) {
        let sent = self
            .view
            .random_subset(self.config.shuffle_size.saturating_sub(1), ctx.rng());
        let request = self.build_request(&sent);
        let target_is_private = self
            .view
            .get(target)
            .map(|d| d.class().is_private())
            .unwrap_or_else(|| self.relay_cache.contains_key(&target));
        let relay = if target_is_private {
            let relay = Self::choose_relay(
                &self.relay_cache,
                &self.relay_suspect,
                target,
                None,
                ctx.rng(),
            );
            if relay.is_none() {
                // No relay known for the target: the exchange cannot be carried out (and
                // an unanswered previous one is discarded all the same).
                self.unreachable_targets += 1;
                self.exchange.abandon();
                return;
            }
            relay
        } else {
            None
        };
        self.exchange.begin(target, (sent, relay), ctx);
        Self::send_via(relay, target, request, ctx);
    }

    fn handle_request(
        &mut self,
        initiator: NodeId,
        initiator_class: NatClass,
        initiator_relays: RelayList,
        entries: EntryBatch,
        ctx: &mut Context<'_, GozarMessage>,
    ) {
        let reply_descriptors = self.view.random_subset(self.config.shuffle_size, ctx.rng());
        let reply_entries = self.entries_from(&reply_descriptors);
        if initiator_class.is_private() && !initiator_relays.is_empty() {
            self.relay_cache.insert(initiator, initiator_relays.clone());
        }
        self.absorb_entries(&entries, &reply_descriptors);
        let response = GozarMessage::ShuffleResponse {
            entries: reply_entries,
        };
        if initiator_class.is_public() {
            ctx.send(initiator, response);
        } else if let Some(relay) = initiator_relays.first() {
            ctx.send(
                *relay,
                GozarMessage::Relayed {
                    dest: initiator,
                    inner: Box::new(response),
                },
            );
        }
        // If a private initiator advertised no relays the response is simply lost, as it
        // would be on a real deployment.
    }
}

impl Protocol for GozarNode {
    type Message = GozarMessage;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
        self.bootstrap(ctx);
        self.maintain_relays(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Self::Message>) {
        self.rounds += 1;
        self.view.increment_ages();
        self.maintain_relays(ctx);
        if self.view.is_empty() {
            // Re-contact the bootstrap server instead of staying isolated (see Cyclon).
            self.bootstrap(ctx);
            return;
        }
        let Some(target) = self.view.oldest().map(|d| d.node()) else {
            return;
        };
        // Keep the descriptor until we know the exchange can be routed; `send_request`
        // consults it for the target's class.
        self.send_request(target, ctx);
        self.view.remove(target);
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Message,
        ctx: &mut Context<'_, Self::Message>,
    ) {
        // Any delivered message is proof of life: clear timeout strikes against the
        // sender so a once-congested relay becomes eligible again.
        self.relay_suspect.remove(&from);
        match msg {
            GozarMessage::ShuffleRequest {
                initiator,
                initiator_class,
                initiator_relays,
                entries,
            } => self.handle_request(initiator, initiator_class, initiator_relays, entries, ctx),
            GozarMessage::ShuffleResponse { entries } => {
                self.exchanges_completed += 1;
                // The response may arrive through a relay, so it is not matched by peer.
                let (sent, _) = self.exchange.complete().unwrap_or_default();
                self.absorb_entries(&entries, &sent);
            }
            GozarMessage::Relayed { dest, inner } => {
                self.messages_relayed += 1;
                ctx.send(dest, *inner);
            }
            GozarMessage::RelayRegister | GozarMessage::KeepAlive => {
                // Acknowledge so the private node knows we are alive; the acknowledgement
                // also serves as the liveness signal for relay rotation.
                ctx.send(from, GozarMessage::RelayAccept);
            }
            GozarMessage::RelayAccept => {
                self.relay_last_ack.insert(from, self.rounds);
            }
        }
    }

    /// Retry timer for the in-flight exchange. A timeout on a relayed request counts a
    /// strike against the relay that carried it; the retry fails over to an alternate
    /// relay, so one dead relay cannot starve a private target's exchanges.
    fn on_timer(&mut self, key: TimerKey, ctx: &mut Context<'_, Self::Message>) {
        match self.exchange.on_timer(key, ctx) {
            Retry::Stale | Retry::GaveUp((_, None)) => {}
            Retry::GaveUp((_, Some(relay))) => *self.relay_suspect.entry(relay).or_insert(0) += 1,
            Retry::Resend {
                peer,
                sent: (sent, relay),
            } => {
                let sent = sent.clone();
                if let Some(prior) = *relay {
                    *self.relay_suspect.entry(prior).or_insert(0) += 1;
                    let alternate = Self::choose_relay(
                        &self.relay_cache,
                        &self.relay_suspect,
                        peer,
                        Some(prior),
                        ctx.rng(),
                    );
                    *relay = Some(alternate.expect(
                        "a relayed exchange exists only for a target with a non-empty \
                         relay_cache entry, entries are never removed, and choose_relay \
                         falls back to the prior relay itself",
                    ));
                }
                let relay = *relay;
                let request = self.build_request(&sent);
                Self::send_via(relay, peer, request, ctx);
            }
        }
    }
}

impl PssNode for GozarNode {
    fn nat_class(&self) -> NatClass {
        self.class
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
    use croupier_nat::NatTopologyBuilder;
    use croupier_simulator::{Simulation, SimulationConfig, SimulationEngine};

    fn build_sim(n_public: u64, n_private: u64, seed: u64) -> Simulation<GozarNode> {
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
            sim.add_node(id, GozarNode::new(id, class, BaselineConfig::default()));
        }
        sim
    }

    #[test]
    fn private_nodes_register_with_relays() {
        let mut sim = build_sim(5, 20, 1);
        sim.run_for_rounds(10);
        for (_, node) in sim.nodes() {
            if node.nat_class().is_private() {
                assert!(
                    !node.relays().is_empty(),
                    "private node {} should have relays",
                    node.id()
                );
            } else {
                assert!(node.relays().is_empty());
            }
        }
    }

    #[test]
    fn views_mix_public_and_private_nodes() {
        let mut sim = build_sim(5, 20, 2);
        sim.run_for_rounds(60);
        let mut nodes_knowing_private = 0;
        for (_, node) in sim.nodes() {
            assert!(!node.view().is_empty());
            if node.view().iter().any(|d| d.class().is_private()) {
                nodes_knowing_private += 1;
            }
        }
        assert!(
            nodes_knowing_private > 15,
            "most views should contain private nodes, got {nodes_knowing_private}"
        );
    }

    #[test]
    fn exchanges_with_private_targets_complete_through_relays() {
        let mut sim = build_sim(5, 20, 3);
        sim.run_for_rounds(60);
        let relayed: u64 = sim.nodes().map(|(_, n)| n.messages_relayed()).sum();
        assert!(relayed > 0, "public nodes should relay traffic");
        for (_, node) in sim.nodes() {
            assert!(
                node.exchanges_completed() > 10,
                "node {} completed only {} exchanges",
                node.id(),
                node.exchanges_completed()
            );
        }
    }

    #[test]
    fn only_public_nodes_relay() {
        let mut sim = build_sim(5, 20, 4);
        sim.run_for_rounds(40);
        for (_, node) in sim.nodes() {
            if node.nat_class().is_private() {
                assert_eq!(node.messages_relayed(), 0);
            }
        }
    }

    #[test]
    fn descriptor_entries_carry_relays_and_cost_extra_bytes() {
        let plain = GozarEntry::public(Descriptor::new(NodeId::new(1), NatClass::Public));
        let relayed = GozarEntry {
            descriptor: Descriptor::new(NodeId::new(2), NatClass::Private),
            relays: vec![NodeId::new(3), NodeId::new(4)].into(),
        };
        let req_plain = GozarMessage::ShuffleResponse {
            entries: vec![plain].into(),
        };
        let req_relayed = GozarMessage::ShuffleResponse {
            entries: vec![relayed].into(),
        };
        assert_eq!(
            req_relayed.wire_size() - req_plain.wire_size(),
            2 * RELAY_ADDR_BYTES
        );
    }

    #[test]
    fn relayed_envelope_costs_more_than_the_inner_message() {
        let inner = GozarMessage::KeepAlive;
        let relayed = GozarMessage::Relayed {
            dest: NodeId::new(1),
            inner: Box::new(inner.clone()),
        };
        assert!(relayed.wire_size() > inner.wire_size());
    }

    #[test]
    fn gozar_sends_more_messages_than_a_relay_free_protocol() {
        // Sanity check of the overhead ordering reproduced in Fig. 7(a): with the same view
        // sizes, Gozar needs strictly more messages than Croupier because of relaying
        // envelopes, relay registrations and keep-alives.
        let mut gozar = build_sim(5, 20, 5);
        gozar.run_for_rounds(50);
        let gozar_messages = gozar.traffic().total_messages_sent();

        let topology = NatTopologyBuilder::new(5).build();
        let mut croupier_sim = Simulation::new(SimulationConfig::default().with_seed(5));
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
        let croupier_messages = croupier_sim.traffic().total_messages_sent();
        assert!(
            gozar_messages > croupier_messages,
            "gozar={gozar_messages} should exceed croupier={croupier_messages}"
        );
    }
}
