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

use croupier::{
    Descriptor, DescriptorBatch, View, BOOTSTRAP_SIZE, DESCRIPTOR_INLINE_CAPACITY,
    DESCRIPTOR_WIRE_BYTES, SHUFFLE_SIZE, UDP_IP_HEADER_BYTES, VIEW_SIZE,
};
use croupier_simulator::{
    Context, ExchangeTracker, InlineVec, NatClass, NodeId, Protocol, PssNode, Retry, TimerKey,
    WireSize,
};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

use crate::config::BaselineConfig;

/// Wire bytes per relay address carried inside a descriptor (IPv4 + port).
const RELAY_ADDR_BYTES: usize = 6;

/// Number of redundant relay nodes each private node maintains.
const RELAY_REDUNDANCY: usize = 2;

/// Rounds between the keep-alives a private node sends its relays to refresh the NAT
/// mappings (must stay below the NAT mapping timeout). A relay that has not acknowledged
/// for three periods is dropped.
const KEEPALIVE_ROUNDS: u64 = 5;

/// The relay addresses carried inside a Gozar view entry, stored inline so entries clone
/// without heap allocation on the shuffle hot path. A node keeps at most
/// [`RELAY_REDUNDANCY`] relays, and corruption only truncates or clears a list.
pub type RelayList = InlineVec<NodeId, RELAY_REDUNDANCY>;

/// The entry list carried in Gozar shuffle messages: at most `SHUFFLE_SIZE` entries, so
/// the capacity of a [`DescriptorBatch`] holds it.
pub type EntryBatch = InlineVec<GozarEntry, DESCRIPTOR_INLINE_CAPACITY>;

/// A view entry as exchanged by Gozar: a descriptor plus, for private nodes, the addresses
/// of their relay nodes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GozarEntry {
    /// The node descriptor.
    pub descriptor: Descriptor,
    /// Relay nodes through which the described node can be reached (empty for public
    /// nodes).
    pub relays: RelayList,
}

impl GozarEntry {
    fn wire_bytes(&self) -> usize {
        DESCRIPTOR_WIRE_BYTES + self.relays.len() * RELAY_ADDR_BYTES
    }
}

/// Gozar's messages.
#[derive(Clone, Debug, PartialEq)]
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

/// A [`RelayCache`] slot that holds no relay.
const NO_RELAY: u32 = u32::MAX;

/// The relays advertised by the private nodes a node has heard of, packed to `u32` ids so
/// an entry takes 12 bytes where a `(NodeId, RelayList)` pair takes 32. A list keeps its
/// order; unused slots hold [`NO_RELAY`]. Every round ends by pruning the cache to the
/// nodes whose relays the protocol can still read (see `GozarNode::prune_relay_cache`).
#[derive(Clone, Debug, Default)]
struct RelayCache(HashMap<u32, [u32; RELAY_REDUNDANCY]>);

impl RelayCache {
    /// Records `relays` as `node`'s.
    fn insert(&mut self, node: NodeId, relays: &RelayList) {
        let mut packed = [NO_RELAY; RELAY_REDUNDANCY];
        for (slot, relay) in packed.iter_mut().zip(relays.iter()) {
            *slot = id32(*relay);
        }
        self.0.insert(id32(node), packed);
    }

    /// The relays last recorded for `node`, in the order they were advertised.
    fn get(&self, node: NodeId) -> Option<RelayList> {
        let packed = self.0.get(&id32(node))?;
        Some(
            packed
                .iter()
                .take_while(|&&relay| relay != NO_RELAY)
                .map(|&relay| NodeId::new(u64::from(relay)))
                .collect(),
        )
    }

    /// Keeps only the nodes `keep` accepts.
    fn retain(&mut self, mut keep: impl FnMut(NodeId) -> bool) {
        self.0.retain(|&node, _| keep(NodeId::new(u64::from(node))));
    }
}

/// Narrows a node identifier to the relay cache's `u32` key space ([`NO_RELAY`] excluded).
#[inline]
fn id32(node: NodeId) -> u32 {
    let raw = node.as_u64();
    assert!(
        raw < u64::from(NO_RELAY),
        "node id {raw} exceeds the relay cache's u32 key space"
    );
    raw as u32
}

/// A node running the Gozar protocol.
///
/// See the crate-level documentation for the comparison setup shared with the other
/// protocols.
#[derive(Clone, Debug)]
pub struct GozarNode {
    id: NodeId,
    class: NatClass,
    view: View,
    /// Relays advertised by private nodes we know about.
    relay_cache: RelayCache,
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
}

impl GozarNode {
    /// Creates a Gozar node of the given connectivity class.
    pub fn new(id: NodeId, class: NatClass, _config: BaselineConfig) -> Self {
        GozarNode {
            id,
            class,
            view: View::new(VIEW_SIZE),
            relay_cache: RelayCache::default(),
            my_relays: RelayList::new(),
            relay_last_ack: HashMap::new(),
            relay_suspect: HashMap::new(),
            exchange: ExchangeTracker::default(),
            rounds: 0,
            messages_relayed: 0,
            exchanges_completed: 0,
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
                relays: self.relay_cache.get(d.node()).unwrap_or_default(),
            })
            .collect()
    }

    fn absorb_entries(&mut self, entries: &[GozarEntry], sent: &[Descriptor]) {
        let descriptors: DescriptorBatch = entries.iter().map(|e| e.descriptor).collect();
        for entry in entries {
            if entry.descriptor.class().is_private() && !entry.relays.is_empty() {
                self.relay_cache
                    .insert(entry.descriptor.node(), &entry.relays);
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
        let stale_after = KEEPALIVE_ROUNDS * 3;
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

        if self.my_relays.len() < RELAY_REDUNDANCY {
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
                    .bootstrap_sample(RELAY_REDUNDANCY)
                    .into_iter()
                    .filter(|n| !self.my_relays.contains(n))
                    .collect();
            }
            candidates.shuffle(ctx.rng());
            while self.my_relays.len() < RELAY_REDUNDANCY {
                let Some(candidate) = candidates.pop() else {
                    break;
                };
                self.my_relays.push(candidate);
                self.relay_last_ack.insert(candidate, self.rounds);
                ctx.send(candidate, GozarMessage::RelayRegister);
            }
        }

        // Periodic keep-alives refresh both the NAT mappings and the liveness check.
        if self.rounds.is_multiple_of(KEEPALIVE_ROUNDS) {
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
        relay_cache: &RelayCache,
        relay_suspect: &HashMap<NodeId, u32>,
        target: NodeId,
        avoid: Option<NodeId>,
        rng: &mut SmallRng,
    ) -> Option<NodeId> {
        let relays = relay_cache.get(target)?;
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

    /// Starts an exchange with `target`, which has already left the view, so the subset
    /// drawn here never carries the target's own descriptor.
    fn send_request(&mut self, target: Descriptor, ctx: &mut Context<'_, GozarMessage>) {
        let sent = self.view.random_subset(SHUFFLE_SIZE - 1, ctx.rng());
        let request = self.build_request(&sent);
        let peer = target.node();
        let relay = if target.class().is_private() {
            let relay = Self::choose_relay(
                &self.relay_cache,
                &self.relay_suspect,
                peer,
                None,
                ctx.rng(),
            );
            if relay.is_none() {
                // No relay known for the target: the exchange cannot be carried out (and
                // an unanswered previous one is discarded all the same).
                self.exchange.abandon();
                return;
            }
            relay
        } else {
            None
        };
        self.exchange.begin(peer, (sent, relay), ctx);
        Self::send_via(relay, peer, request, ctx);
    }

    /// Forgets the relays of every node that is neither in the view nor the peer of the
    /// exchange in flight. Those are the only relays read before the cache is next pruned:
    /// `entries_from` describes view members, `send_request` routes to the view's oldest
    /// entry, and a retry reroutes to the in-flight peer, which left the view when its
    /// exchange began. So the cache holds at most `VIEW_SIZE + 1` nodes after a round.
    fn prune_relay_cache(&mut self) {
        let (view, in_flight) = (&self.view, self.exchange.peer());
        self.relay_cache
            .retain(|node| Some(node) == in_flight || view.contains(node));
    }

    fn handle_request(
        &mut self,
        initiator: NodeId,
        initiator_class: NatClass,
        initiator_relays: RelayList,
        entries: EntryBatch,
        ctx: &mut Context<'_, GozarMessage>,
    ) {
        let reply_descriptors = self.view.random_subset(SHUFFLE_SIZE, ctx.rng());
        let reply_entries = self.entries_from(&reply_descriptors);
        if initiator_class.is_private() && !initiator_relays.is_empty() {
            self.relay_cache.insert(initiator, &initiator_relays);
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
        self.view.bootstrap(BOOTSTRAP_SIZE, ctx);
        self.maintain_relays(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Self::Message>) {
        self.rounds += 1;
        self.view.increment_ages();
        self.maintain_relays(ctx);
        if self.view.is_empty() {
            // Re-contact the bootstrap server instead of staying isolated (see Cyclon).
            self.view.bootstrap(BOOTSTRAP_SIZE, ctx);
        } else if let Some(target) = self.view.oldest().copied() {
            self.view.remove(target.node());
            self.send_request(target, ctx);
        }
        self.prune_relay_cache();
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
                         relay_cache entry, pruning keeps the in-flight peer's entry, no \
                         insert empties it, and choose_relay falls back to the prior relay",
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
    use croupier_simulator::{
        BootstrapRegistry, ContextParams, FaultPlane, FaultProfile, SimDuration, SimTime,
        Simulation, SimulationConfig, SimulationEngine,
    };
    use rand::SeedableRng;

    impl RelayCache {
        /// Number of nodes with recorded relays.
        fn len(&self) -> usize {
            self.0.len()
        }
    }

    impl GozarNode {
        /// The node's identity.
        pub(crate) fn id(&self) -> NodeId {
            self.id
        }

        /// The node's partial view.
        pub(crate) fn view(&self) -> &View {
            &self.view
        }
    }

    fn build_sim(n_public: u64, n_private: u64, seed: u64) -> Simulation<GozarNode> {
        build_sim_of(n_public, n_private, seed, |id, class| {
            GozarNode::new(id, class, BaselineConfig)
        })
    }

    fn build_sim_of<P: Protocol>(
        n_public: u64,
        n_private: u64,
        seed: u64,
        node: impl Fn(NodeId, NatClass) -> P,
    ) -> Simulation<P> {
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
            sim.add_node(id, node(id, class));
        }
        sim
    }

    /// A Gozar node that checks, at the end of each of its rounds, that its relay cache
    /// holds at most the view and the peer of the exchange in flight.
    struct Bounded(GozarNode);

    impl Protocol for Bounded {
        type Message = GozarMessage;

        fn on_start(&mut self, ctx: &mut Context<'_, GozarMessage>) {
            self.0.on_start(ctx);
        }

        fn on_round(&mut self, ctx: &mut Context<'_, GozarMessage>) {
            self.0.on_round(ctx);
            let cached = self.0.relay_cache.len();
            assert!(
                cached <= VIEW_SIZE + 1,
                "node {} holds the relays of {cached} nodes after round {}",
                self.0.id,
                self.0.rounds
            );
        }

        fn on_message(
            &mut self,
            from: NodeId,
            msg: GozarMessage,
            ctx: &mut Context<'_, GozarMessage>,
        ) {
            self.0.on_message(from, msg, ctx);
        }

        fn on_timer(&mut self, key: TimerKey, ctx: &mut Context<'_, GozarMessage>) {
            self.0.on_timer(key, ctx);
        }
    }

    #[test]
    fn the_relay_cache_is_bounded_by_the_view_after_every_round() {
        let mut sim = build_sim_of(10, 40, 6, |id, class| {
            Bounded(GozarNode::new(id, class, BaselineConfig))
        });
        // Loss makes retries fire, so the in-flight peer's relays are read after the
        // round that pruned the cache.
        let plane = FaultPlane::new(sim.config().seed);
        plane.set_default_profile(FaultProfile::lossy(0.2));
        sim.set_fault_plane(plane);
        sim.run_for_rounds(80);
        let retries: u64 = sim.nodes().map(|(_, n)| n.0.retries_fired()).sum();
        let relayed: u64 = sim.nodes().map(|(_, n)| n.0.messages_relayed).sum();
        assert!(
            retries > 0 && relayed > 0,
            "{retries} retries, {relayed} relayed"
        );
    }

    /// Runs `f` as a callback of `node` and returns the messages it sent and the keys of
    /// the timers it armed.
    fn effects(
        node: NodeId,
        rng: &mut SmallRng,
        f: impl FnOnce(&mut Context<'_, GozarMessage>),
    ) -> (Vec<(NodeId, GozarMessage)>, Vec<TimerKey>) {
        let bootstrap = BootstrapRegistry::new();
        let mut ctx = Context::new(ContextParams {
            node,
            now: SimTime::ZERO,
            round_period: SimDuration::from_secs(1),
            reply_horizon: SimDuration::ZERO,
            rng,
            bootstrap: &bootstrap,
        });
        f(&mut ctx);
        let (outbox, timers) = ctx.into_effects();
        (
            outbox.into_iter().map(|out| (out.to, out.msg)).collect(),
            timers.into_iter().map(|timer| timer.key).collect(),
        )
    }

    #[test]
    fn a_retry_reroutes_to_a_target_that_has_left_the_view() {
        let me = NodeId::new(1);
        let target = NodeId::new(9);
        let relays: RelayList = [NodeId::new(2), NodeId::new(3)].into_iter().collect();
        let stranger = NodeId::new(50);
        let mut node = GozarNode::new(me, NatClass::Public, BaselineConfig);
        node.view
            .insert(Descriptor::with_age(target, NatClass::Private, 5));
        node.view
            .insert(Descriptor::new(NodeId::new(4), NatClass::Public));
        node.relay_cache.insert(target, &relays);
        node.relay_cache.insert(stranger, &relays);
        let mut rng = SmallRng::seed_from_u64(3);

        let (sent, timers) = effects(me, &mut rng, |ctx| node.on_round(ctx));
        let [(first, GozarMessage::Relayed { dest, inner })] = sent.as_slice() else {
            panic!("one relayed request expected, got {sent:?}");
        };
        assert_eq!(*dest, target);
        assert!(relays.contains(first));
        let GozarMessage::ShuffleRequest { entries, .. } = inner.as_ref() else {
            panic!("a shuffle request expected, got {inner:?}");
        };
        let carried: Vec<NodeId> = entries.iter().map(|e| e.descriptor.node()).collect();
        assert_eq!(
            carried,
            [NodeId::new(4), me],
            "the rest of the view, then us"
        );
        assert!(!node.view.contains(target), "the target left the view");
        assert_eq!(node.relay_cache.get(target), Some(relays.clone()));
        assert_eq!(node.relay_cache.get(stranger), None, "pruned");
        assert_eq!(node.relay_cache.len(), 1);

        let (resent, _) = effects(me, &mut rng, |ctx| node.on_timer(timers[0], ctx));
        let [(second, GozarMessage::Relayed { dest, .. })] = resent.as_slice() else {
            panic!("one relayed retry expected, got {resent:?}");
        };
        assert_eq!(*dest, target);
        assert!(relays.contains(second) && second != first, "rerouted");
        assert_eq!(node.retries_fired(), 1);
    }

    #[test]
    fn relay_cache_round_trips_lists_in_order() {
        let mut cache = RelayCache::default();
        let two: RelayList = [NodeId::new(7), NodeId::new(3)].into_iter().collect();
        let one: RelayList = [NodeId::new(u64::from(u32::MAX) - 1)].into_iter().collect();
        cache.insert(NodeId::new(1), &two);
        cache.insert(NodeId::new(2), &one);
        cache.insert(NodeId::new(5), &RelayList::new());
        assert_eq!(cache.get(NodeId::new(1)), Some(two.clone()));
        assert_eq!(cache.get(NodeId::new(2)), Some(one));
        assert_eq!(cache.get(NodeId::new(5)), Some(RelayList::new()));
        assert_eq!(cache.get(NodeId::new(9)), None);
        // A later advertisement replaces the earlier one, as a truncated list does.
        let truncated: RelayList = two.iter().copied().take(1).collect();
        cache.insert(NodeId::new(1), &truncated);
        assert_eq!(cache.get(NodeId::new(1)), Some(truncated));
    }

    #[test]
    #[should_panic(expected = "u32 key space")]
    fn relay_cache_rejects_ids_outside_u32() {
        let relays: RelayList = [NodeId::new(u64::from(u32::MAX))].into_iter().collect();
        RelayCache::default().insert(NodeId::new(1), &relays);
    }

    #[test]
    fn private_nodes_register_with_relays() {
        let mut sim = build_sim(5, 20, 1);
        sim.run_for_rounds(10);
        for (_, node) in sim.nodes() {
            if node.nat_class().is_private() {
                assert!(
                    !node.my_relays.is_empty(),
                    "private node {} should have relays",
                    node.id()
                );
            } else {
                assert!(node.my_relays.is_empty());
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
        let relayed: u64 = sim.nodes().map(|(_, n)| n.messages_relayed).sum();
        assert!(relayed > 0, "public nodes should relay traffic");
        for (_, node) in sim.nodes() {
            assert!(
                node.exchanges_completed > 10,
                "node {} completed only {} exchanges",
                node.id(),
                node.exchanges_completed
            );
        }
    }

    #[test]
    fn only_public_nodes_relay() {
        let mut sim = build_sim(5, 20, 4);
        sim.run_for_rounds(40);
        for (_, node) in sim.nodes() {
            if node.nat_class().is_private() {
                assert_eq!(node.messages_relayed, 0);
            }
        }
    }

    #[test]
    fn descriptor_entries_carry_relays_and_cost_extra_bytes() {
        let plain = GozarEntry {
            descriptor: Descriptor::new(NodeId::new(1), NatClass::Public),
            relays: RelayList::new(),
        };
        let relayed = GozarEntry {
            descriptor: Descriptor::new(NodeId::new(2), NatClass::Private),
            relays: [NodeId::new(3), NodeId::new(4)].into_iter().collect(),
        };
        let req_plain = GozarMessage::ShuffleResponse {
            entries: [plain].into_iter().collect(),
        };
        let req_relayed = GozarMessage::ShuffleResponse {
            entries: [relayed].into_iter().collect(),
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
