//! Assignment of nodes to public addresses or NAT gateways, and the resulting
//! network-reachability filter.

use std::sync::{Arc, Mutex, MutexGuard};

use croupier_simulator::{
    BatchLink, DeliveryFilter, DeliveryVerdict, NatClass, NodeId, SimDuration, SimTime,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::address::Ip;
use crate::dynamics::{AppliedEvent, NatDynamicsEvent};
use crate::filtering::FilteringPolicy;
use crate::gateway::{NatGateway, NatGatewayConfig};

/// Identifier of a NAT gateway inside a [`NatTopology`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GatewayId(u64);

/// The address situation of one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum NatProfile {
    /// The node owns a globally reachable address.
    Public {
        /// The node's public IP.
        ip: Ip,
    },
    /// The node sits behind a NAT gateway.
    Private {
        /// The gateway in front of the node.
        gateway: GatewayId,
        /// The node's RFC1918-like local address.
        local_ip: Ip,
    },
}

impl NatProfile {
    fn is_private(&self) -> bool {
        matches!(self, NatProfile::Private { .. })
    }
}

/// Aggregate statistics about a topology.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TopologyStats {
    /// Nodes with globally reachable addresses.
    pub public_nodes: usize,
    /// Nodes behind NAT gateways without UPnP.
    pub private_nodes: usize,
    /// Nodes behind UPnP-enabled gateways (they behave as public nodes).
    pub upnp_nodes: usize,
    /// Messages blocked by NAT filtering so far.
    pub blocked_messages: u64,
    /// Subset of `blocked_messages` attributable to a recent gateway reboot: the
    /// destination's gateway rebooted within one mapping timeout before the block, so the
    /// sender was plausibly talking to a binding the reboot wiped.
    pub stale_binding_failures: u64,
    /// Subset of `blocked_messages` dropped because both endpoints sit behind the same
    /// hairpin-incapable gateway (RFC 4787 REQ-9 not met).
    pub hairpin_blocked: u64,
    /// Nodes currently marked offline by a scripted partition/outage.
    pub offline_nodes: usize,
}

impl TopologyStats {
    /// The effective public/private ratio ω = |U| / (|U| + |V|), counting UPnP nodes as
    /// public (they are reachable).
    pub fn public_private_ratio(&self) -> f64 {
        let public = (self.public_nodes + self.upnp_nodes) as f64;
        let total = (self.public_nodes + self.upnp_nodes + self.private_nodes) as f64;
        if total == 0.0 {
            0.0
        } else {
            public / total
        }
    }
}

struct Inner {
    /// Node profiles in a dense slot table indexed by the raw node id (ids are assigned
    /// densely from zero throughout the workspace), so the two profile resolutions on
    /// every delivery are plain indexed loads instead of hash lookups.
    profiles: Vec<Option<NatProfile>>,
    /// Number of `Some` entries in `profiles`.
    profile_count: usize,
    /// Gateways indexed by their sequentially allocated [`GatewayId`].
    gateways: Vec<NatGateway>,
    default_config: NatGatewayConfig,
    filtering_mix: Vec<(FilteringPolicy, f64)>,
    rng: SmallRng,
    next_public_ip: u32,
    next_private_ip: u32,
    blocked_messages: u64,
    /// Blocked messages attributable to a recent gateway reboot (see
    /// [`TopologyStats::stale_binding_failures`]).
    stale_binding_failures: u64,
    /// Blocked messages dropped by a hairpin-incapable gateway (see
    /// [`TopologyStats::hairpin_blocked`]).
    hairpin_blocked: u64,
    /// Offline flags in the same dense slot layout as `profiles`; a scripted regional
    /// outage/partition marks nodes here without touching their NAT state.
    offline: Vec<bool>,
    /// Number of `true` entries in `offline`.
    offline_count: usize,
    /// Recycled scratch of [`DeliveryFilter::judge_batch`]: the resolved gateway
    /// operations of the batch.
    batch_ops: Vec<LinkOps>,
}

/// What one link of a batch asks of which gateways, resolved from the node tables (which
/// no link of the batch changes) before any gateway state is touched. 16 bytes a link.
#[derive(Clone, Copy)]
struct LinkOps {
    /// Index of the gateway that records the outbound packet: the online sender's, or
    /// [`NO_GATEWAY`] for a public or offline sender.
    sender_gateway: u32,
    /// Index of the gateway that filters the inbound packet, or [`NO_GATEWAY`] when no
    /// gateway has a say in the verdict.
    receiver_gateway: u32,
    /// The destination's observed address, which the sender's gateway binds towards.
    to_ip: Ip,
    /// The sender's observed address, which the receiver's gateway filters on.
    from_ip: Ip,
}

/// Gateway indexes fit `u32` with room to spare: a gateway owns at least one public
/// address, and those come out of a 32-bit space that ends below the private range.
const NO_GATEWAY: u32 = u32::MAX;

impl LinkOps {
    /// A link that asks nothing of any gateway.
    const NONE: LinkOps = LinkOps {
        sender_gateway: NO_GATEWAY,
        receiver_gateway: NO_GATEWAY,
        to_ip: Ip::from_raw(0),
        from_ip: Ip::from_raw(0),
    };
}

/// The blocked-message counters one gateway range adds up over a batch.
#[derive(Clone, Copy, Default)]
struct BlockTally {
    blocked: u64,
    hairpin: u64,
    stale: u64,
}

impl std::ops::AddAssign for BlockTally {
    fn add_assign(&mut self, other: BlockTally) {
        self.blocked += other.blocked;
        self.hairpin += other.hairpin;
        self.stale += other.stale;
    }
}

/// Applies, in batch order, every gateway operation of the batch that falls on
/// `gateways` — the contiguous range that starts at gateway index `base` — and reports
/// the index of every link one of them refused to `refuse`. A gateway's operations are
/// all in one range, so the ranges can run concurrently and each gateway still sees
/// exactly the per-message sequence: a link's `record_outbound` before its inbound
/// check, links in order. `records_sends` is `false` only for an arrival whose send the
/// sender's gateway has heard of already ([`DeliveryFilter::can_deliver`]).
fn judge_gateway_range(
    gateways: &mut [NatGateway],
    base: usize,
    links: &[BatchLink],
    ops: &[LinkOps],
    records_sends: bool,
    mut refuse: impl FnMut(usize),
) -> BlockTally {
    let owned = base as u32..(base + gateways.len()) as u32;
    let mut tally = BlockTally::default();
    for (k, (link, op)) in links.iter().zip(ops).enumerate() {
        if records_sends && owned.contains(&op.sender_gateway) {
            gateways[op.sender_gateway as usize - base].record_outbound(
                link.from,
                link.to,
                op.to_ip,
                link.sent_at,
            );
        }
        if owned.contains(&op.receiver_gateway) {
            let gw = &gateways[op.receiver_gateway as usize - base];
            // Hairpinning (RFC 4787 REQ-9): traffic between two hosts behind the same
            // gateway arrives at the gateway's own external address. A hairpin-capable
            // gateway loops it back through the normal filter (the sender's outbound
            // binding towards the shared external IP is what opens it); an incapable
            // one drops it outright.
            if op.sender_gateway == op.receiver_gateway && !gw.hairpinning() {
                tally.hairpin += 1;
            } else if gw.accepts_inbound(link.to, link.from, op.from_ip, link.arrive_at) {
                continue;
            } else if gw.rebooted_within_timeout(link.arrive_at) {
                tally.stale += 1;
            }
            tally.blocked += 1;
            refuse(k);
        }
    }
    tally
}

/// Runs every job, the first on the calling thread and each of the others on a scoped
/// thread of its own, and returns their results in job order.
fn on_threads<T: Send>(mut jobs: impl Iterator<Item = impl FnOnce() -> T + Send>) -> Vec<T> {
    std::thread::scope(|scope| {
        let own = jobs.next();
        let spawned: Vec<_> = jobs.map(|job| scope.spawn(job)).collect();
        let own = own.map(|job| job());
        let spawned = spawned
            .into_iter()
            .map(|job| job.join().expect("a batch worker panicked"));
        own.into_iter().chain(spawned).collect()
    })
}

impl Inner {
    /// Resolves a range of a batch: writes each link's gateway operations and every
    /// verdict no gateway has a say in — an unknown destination, an offline endpoint
    /// (returned as a count: those are blocked messages), a public destination, a link
    /// that wants none. The rest read `Deliver` until a gateway refuses them. Read-only,
    /// so ranges of one batch resolve concurrently.
    fn resolve_links(
        &self,
        links: &[BatchLink],
        ops: &mut [LinkOps],
        verdicts: &mut [DeliveryVerdict],
    ) -> u64 {
        let mut offline_blocked = 0;
        for ((link, slot), verdict) in links.iter().zip(ops).zip(verdicts) {
            let sender_offline = self.is_offline(link.from);
            let mut op = LinkOps::NONE;
            // An offline sender's packets never leave its network, so they cannot
            // create or refresh bindings at its gateway.
            if let (false, Some(NatProfile::Private { gateway, .. })) =
                (sender_offline, self.profile(link.from))
            {
                op.sender_gateway = gateway.0 as u32;
                op.to_ip = self.observed_ip(link.to).unwrap_or_default();
            }
            *verdict = match self.profile(link.to) {
                _ if !link.wants_verdict => DeliveryVerdict::Deliver,
                None => DeliveryVerdict::NoSuchDestination,
                // A scripted partition: one of the endpoints is cut off. Blocked, not
                // gone — the node still exists and will come back.
                Some(_) if sender_offline || self.is_offline(link.to) => {
                    offline_blocked += 1;
                    DeliveryVerdict::BlockedByNat
                }
                Some(NatProfile::Public { .. }) => DeliveryVerdict::Deliver,
                Some(NatProfile::Private { gateway, .. }) => {
                    op.receiver_gateway = gateway.0 as u32;
                    op.from_ip = self.observed_ip(link.from).unwrap_or_default();
                    DeliveryVerdict::Deliver
                }
            };
            *slot = op;
        }
        offline_blocked
    }

    /// The one-link batch behind the per-message methods, on the calling thread: a send
    /// is a link that wants no verdict, an arrival one whose send is not recorded again.
    fn judge_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        at: SimTime,
        arrival: bool,
    ) -> DeliveryVerdict {
        let link = BatchLink {
            from,
            to,
            sent_at: at,
            arrive_at: at,
            wants_verdict: arrival,
        };
        let (mut op, mut verdict) = (LinkOps::NONE, DeliveryVerdict::Deliver);
        let links = std::slice::from_ref(&link);
        let verdicts = std::slice::from_mut(&mut verdict);
        let mut tally = BlockTally {
            blocked: self.resolve_links(links, std::slice::from_mut(&mut op), verdicts),
            ..BlockTally::default()
        };
        let ops = std::slice::from_ref(&op);
        tally += judge_gateway_range(&mut self.gateways, 0, links, ops, !arrival, |_| {
            verdict = DeliveryVerdict::BlockedByNat;
        });
        self.count_blocked(tally);
        verdict
    }

    fn count_blocked(&mut self, tally: BlockTally) {
        self.blocked_messages += tally.blocked;
        self.hairpin_blocked += tally.hairpin;
        self.stale_binding_failures += tally.stale;
    }

    fn allocate_public_ip(&mut self) -> Ip {
        let ip = Ip::public(self.next_public_ip);
        self.next_public_ip += 1;
        ip
    }

    fn allocate_private_ip(&mut self) -> Ip {
        let ip = Ip::private(self.next_private_ip);
        self.next_private_ip += 1;
        ip
    }

    fn pick_filtering(&mut self) -> FilteringPolicy {
        if self.filtering_mix.is_empty() {
            return self.default_config.filtering;
        }
        let total: f64 = self.filtering_mix.iter().map(|(_, w)| *w).sum();
        let mut draw = self.rng.gen_range(0.0..total);
        for (policy, weight) in &self.filtering_mix {
            if draw < *weight {
                return *policy;
            }
            draw -= *weight;
        }
        self.filtering_mix
            .last()
            .map(|(p, _)| *p)
            .unwrap_or(self.default_config.filtering)
    }

    /// Places `node` behind a fresh gateway of its own: `config`, or the builder's with a
    /// filtering policy drawn from the mix.
    fn place_behind_new_gateway(&mut self, node: NodeId, config: Option<NatGatewayConfig>) {
        let config = config.unwrap_or_else(|| NatGatewayConfig {
            filtering: self.pick_filtering(),
            ..self.default_config
        });
        let gateway = self.add_gateway(config);
        let local_ip = self.allocate_private_ip();
        self.set_profile(node, NatProfile::Private { gateway, local_ip });
    }

    fn add_gateway(&mut self, config: NatGatewayConfig) -> GatewayId {
        let id = GatewayId(self.gateways.len() as u64);
        let pool_size = config.pool_size.max(1) as usize;
        let pool = (0..pool_size).map(|_| self.allocate_public_ip()).collect();
        self.gateways.push(NatGateway::with_pool(pool, config));
        id
    }

    fn profile(&self, node: NodeId) -> Option<&NatProfile> {
        self.profiles.get(node.as_u64() as usize)?.as_ref()
    }

    fn set_profile(&mut self, node: NodeId, profile: NatProfile) {
        let slot = node.as_u64() as usize;
        if slot >= self.profiles.len() {
            self.profiles.resize(slot + 1, None);
        }
        if self.profiles[slot].replace(profile).is_none() {
            self.profile_count += 1;
        }
    }

    fn gateway(&self, id: GatewayId) -> Option<&NatGateway> {
        self.gateways.get(id.0 as usize)
    }

    fn gateway_mut(&mut self, id: GatewayId) -> Option<&mut NatGateway> {
        self.gateways.get_mut(id.0 as usize)
    }

    fn observed_ip(&self, node: NodeId) -> Option<Ip> {
        match self.profile(node)? {
            NatProfile::Public { ip } => Some(*ip),
            // The paired pool address: with the default one-address pool this is the
            // gateway's public IP for every node.
            NatProfile::Private { gateway, .. } => {
                self.gateway(*gateway).map(|gw| gw.external_ip_for(node))
            }
        }
    }

    fn is_offline(&self, node: NodeId) -> bool {
        self.offline
            .get(node.as_u64() as usize)
            .copied()
            .unwrap_or(false)
    }

    /// See [`NatTopology::set_offline`]; an unknown node is always left online.
    fn set_offline(&mut self, node: NodeId, offline: bool) -> bool {
        let known = self.profile(node).is_some();
        let offline = offline && known;
        let slot = node.as_u64() as usize;
        if slot >= self.offline.len() {
            if !offline {
                return known;
            }
            self.offline.resize(slot + 1, false);
        }
        if self.offline[slot] != offline {
            self.offline[slot] = offline;
            if offline {
                self.offline_count += 1;
            } else {
                self.offline_count -= 1;
            }
        }
        known
    }

    /// Detaches a private node from its gateway, dropping its bindings there. The (now
    /// possibly empty) gateway stays allocated: gateway ids are dense indexes and other
    /// state (address-dependent indexes on *other* gateways keyed by its public IP) may
    /// still reference it until expiry.
    fn detach_from_gateway(&mut self, node: NodeId, gateway: GatewayId) {
        if let Some(gw) = self.gateway_mut(gateway) {
            gw.remove_internal(node);
        }
    }

    fn gateway_of(&self, node: NodeId) -> Option<GatewayId> {
        match self.profile(node)? {
            NatProfile::Private { gateway, .. } => Some(*gateway),
            NatProfile::Public { .. } => None,
        }
    }

    fn gateway_of_mut(&mut self, node: NodeId) -> Option<&mut NatGateway> {
        let gateway = self.gateway_of(node)?;
        self.gateway_mut(gateway)
    }

    /// Whether `profile` sits behind a UPnP-enabled gateway, which makes the node
    /// effectively public: it can map a port on its gateway.
    fn behind_upnp(&self, profile: &NatProfile) -> bool {
        let NatProfile::Private { gateway, .. } = profile else {
            return false;
        };
        self.gateway(*gateway)
            .is_some_and(|gw| gw.config().upnp_enabled)
    }

    /// Identifiers of the registered nodes whose profile passes `keep`, ascending.
    fn node_ids(&self, keep: impl Fn(&NatProfile) -> bool) -> Vec<NodeId> {
        self.profiles
            .iter()
            .enumerate()
            .filter(|(_, p)| p.as_ref().is_some_and(&keep))
            .map(|(slot, _)| NodeId::new(slot as u64))
            .collect()
    }

    // The per-node mutations: the public methods of the same name and `apply` both run
    // these bodies, one critical section per call.

    fn reboot_gateway_of(&mut self, node: NodeId, now: SimTime) -> bool {
        self.gateway_of_mut(node).map(|gw| gw.reboot(now)).is_some()
    }

    fn migrate_node(&mut self, node: NodeId) -> bool {
        let Some(gateway) = self.gateway_of(node) else {
            return false;
        };
        self.detach_from_gateway(node, gateway);
        self.place_behind_new_gateway(node, None);
        true
    }

    fn promote_to_public(&mut self, node: NodeId) -> bool {
        let Some(gateway) = self.gateway_of(node) else {
            return false;
        };
        self.detach_from_gateway(node, gateway);
        let ip = self.allocate_public_ip();
        self.set_profile(node, NatProfile::Public { ip });
        true
    }

    fn demote_to_private(&mut self, node: NodeId) -> bool {
        let Some(NatProfile::Public { .. }) = self.profile(node) else {
            return false;
        };
        self.place_behind_new_gateway(node, None);
        true
    }

    fn set_filtering_of(&mut self, node: NodeId, policy: FilteringPolicy) -> bool {
        self.gateway_of_mut(node)
            .map(|gw| gw.set_filtering(policy))
            .is_some()
    }

    /// Replaces the whole configuration of the gateway in front of `node` (see
    /// [`NatGateway::set_config`]), allocating any external addresses the new pool size
    /// needs beyond what the gateway already owns (addresses are never taken away — they
    /// are leased).
    fn reconfigure_gateway_of(&mut self, node: NodeId, config: NatGatewayConfig) -> bool {
        let Some(gateway) = self.gateway_of(node) else {
            return false;
        };
        let index = gateway.0 as usize;
        for _ in self.gateways[index].external_ips().len()..config.pool_size.max(1) as usize {
            let ip = self.allocate_public_ip();
            self.gateways[index].extend_pool(ip);
        }
        self.gateways[index].set_config(config);
        true
    }

    fn move_node_behind(&mut self, node: NodeId, gateway: GatewayId) -> bool {
        let (Some(old_gateway), Some(_)) = (self.gateway_of(node), self.gateway(gateway)) else {
            return false;
        };
        if old_gateway != gateway {
            self.detach_from_gateway(node, old_gateway);
        }
        let local_ip = self.allocate_private_ip();
        self.set_profile(node, NatProfile::Private { gateway, local_ip });
        true
    }

    /// The body of [`NatTopology::apply`], under one lock.
    fn apply(
        &mut self,
        event: &NatDynamicsEvent,
        round: u64,
        now: SimTime,
        rng: &mut SmallRng,
    ) -> AppliedEvent {
        use NatDynamicsEvent as Event;
        let (fraction, candidates) = match *event {
            Event::ProfileDowngrade { fraction } => (fraction, self.node_ids(|p| !p.is_private())),
            Event::GatewayRebootStorm { fraction }
            | Event::MobilityWave { fraction }
            | Event::ProfileUpgrade { fraction }
            | Event::FilteringShift { fraction, .. }
            | Event::GatewayReconfig { fraction, .. }
            | Event::CgnConsolidation { fraction, .. } => {
                (fraction, self.node_ids(NatProfile::is_private))
            }
            Event::RegionalOutage {
                region,
                regions,
                outage_rounds,
            } => {
                let mut affected = Vec::new();
                for node in self.node_ids(|_| true) {
                    // A node already dark from an overlapping earlier outage stays
                    // claimed by that outage (and comes back at *its* restore round);
                    // claiming it twice would let the earliest restore cut the later
                    // outage short.
                    if node.as_u64() % regions == region
                        && !self.is_offline(node)
                        && self.set_offline(node, true)
                    {
                        affected.push(node);
                    }
                }
                return AppliedEvent {
                    restore_round: (!affected.is_empty()).then_some(round + outage_rounds),
                    taken_offline: affected,
                };
            }
            // Membership growth cannot happen from inside the engine's hook; the driver
            // expands flash crowds into the join schedule instead.
            Event::FlashCrowd { .. } => return AppliedEvent::done(),
        };
        // One uniform variate per candidate in ascending id order, all drawn before any
        // mutation (mutations draw from the topology's own stream, never from `rng`).
        let selected: Vec<NodeId> = candidates
            .into_iter()
            .filter(|_| rng.gen_range(0.0..1.0) < fraction)
            .collect();
        // The CGN exists only if anyone was selected, so an empty draw burns no gateway
        // id or pool addresses.
        let cgn = match *event {
            Event::CgnConsolidation { pool_size, .. } if !selected.is_empty() => {
                let timeout = self.default_config.mapping_timeout;
                let config = NatGatewayConfig::carrier_grade(pool_size).mapping_timeout(timeout);
                Some(self.add_gateway(config))
            }
            _ => None,
        };
        // A selected node that no longer qualifies is a no-op.
        for node in selected {
            match *event {
                Event::GatewayRebootStorm { .. } => self.reboot_gateway_of(node, now),
                Event::MobilityWave { .. } => self.migrate_node(node),
                Event::ProfileUpgrade { .. } => self.promote_to_public(node),
                Event::ProfileDowngrade { .. } => self.demote_to_private(node),
                Event::FilteringShift { policy, .. } => self.set_filtering_of(node, policy),
                Event::GatewayReconfig { profile, .. } => {
                    self.reconfigure_gateway_of(node, profile.config(&self.default_config))
                }
                _ => cgn.is_some_and(|cgn| self.move_node_behind(node, cgn)),
            };
        }
        AppliedEvent::done()
    }
}

/// The complete NAT topology of a simulated system.
///
/// `NatTopology` is cheap to clone: clones share the same underlying state, so one clone can
/// be installed as the simulation engine's [`DeliveryFilter`] while the experiment keeps
/// another to add nodes as they join or to read statistics.
///
/// See the crate-level documentation for a usage example.
#[derive(Clone)]
pub struct NatTopology {
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for NatTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("NatTopology")
            .field("public_nodes", &stats.public_nodes)
            .field("private_nodes", &stats.private_nodes)
            .field("upnp_nodes", &stats.upnp_nodes)
            .finish()
    }
}

impl NatTopology {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("NAT topology lock poisoned")
    }

    /// Registers `node` as a public node with its own globally reachable address.
    pub fn add_public_node(&self, node: NodeId) {
        let mut inner = self.lock();
        let ip = inner.allocate_public_ip();
        inner.set_profile(node, NatProfile::Public { ip });
    }

    /// Registers `node` behind its own NAT gateway, using the builder's filtering policy
    /// (or policy mix).
    pub fn add_private_node(&self, node: NodeId) {
        self.lock().place_behind_new_gateway(node, None);
    }

    /// Registers `node` behind a NAT gateway with an explicit configuration.
    pub fn add_private_node_with(&self, node: NodeId, config: NatGatewayConfig) {
        self.lock().place_behind_new_gateway(node, Some(config));
    }

    /// Registers `node` behind a UPnP-enabled gateway: topologically private but effectively
    /// public, because it can map a port on its gateway.
    pub fn add_upnp_node(&self, node: NodeId) {
        let mut inner = self.lock();
        let config = inner.default_config.upnp(true);
        inner.place_behind_new_gateway(node, Some(config));
    }

    /// Allocates a gateway not (yet) fronting any node, for explicitly shared
    /// deployments: several private nodes behind one home router or one carrier-grade
    /// NAT. The gateway receives `config.pool_size` fresh external addresses.
    pub fn add_shared_gateway(&self, config: NatGatewayConfig) -> GatewayId {
        self.lock().add_gateway(config)
    }

    /// Registers `node` behind the existing `gateway` (sharing it with whatever other
    /// nodes sit there). Returns `false` for an unknown gateway.
    pub fn add_private_node_behind(&self, node: NodeId, gateway: GatewayId) -> bool {
        let mut inner = self.lock();
        if inner.gateway(gateway).is_none() {
            return false;
        }
        let local_ip = inner.allocate_private_ip();
        inner.set_profile(node, NatProfile::Private { gateway, local_ip });
        true
    }

    /// Moves a private `node` behind the existing `gateway` (ISP consolidation behind a
    /// shared NAT): bindings at the old gateway are dropped and the node gets a fresh
    /// local address behind the new one. Returns `false` if the node is unknown or
    /// public, or the gateway unknown.
    pub fn move_node_behind(&self, node: NodeId, gateway: GatewayId) -> bool {
        self.lock().move_node_behind(node, gateway)
    }

    /// Registers `node` with the connectivity class `class` (public nodes get their own
    /// address, private nodes their own gateway).
    pub fn add_node(&self, node: NodeId, class: NatClass) {
        match class {
            NatClass::Public => self.add_public_node(node),
            NatClass::Private => self.add_private_node(node),
        }
    }

    /// Removes a node and all mapping-table state belonging to it.
    pub fn remove_node(&self, node: NodeId) {
        let mut inner = self.lock();
        let slot = node.as_u64() as usize;
        let removed = inner.profiles.get_mut(slot).and_then(Option::take);
        if removed.is_some() {
            inner.profile_count -= 1;
        }
        inner.set_offline(node, false);
        if let Some(NatProfile::Private { gateway, .. }) = removed {
            inner.detach_from_gateway(node, gateway);
        }
    }

    /// The gateway in front of `node`, if the node is topologically private (behind a
    /// gateway, UPnP or not).
    pub fn gateway_of(&self, node: NodeId) -> Option<GatewayId> {
        self.lock().gateway_of(node)
    }

    /// Number of gateways ever allocated (including gateways whose last node migrated
    /// away or left; gateway ids are dense and never reused).
    pub fn gateway_count(&self) -> usize {
        self.lock().gateways.len()
    }

    /// Power-cycles the gateway in front of `node` at `now`, wiping its whole mapping
    /// table (see [`NatGateway::reboot`]). Returns `false` if the node is unknown or
    /// public.
    pub fn reboot_gateway_of(&self, node: NodeId, now: SimTime) -> bool {
        self.lock().reboot_gateway_of(node, now)
    }

    /// Node mobility: moves a private `node` behind a *fresh* gateway (new public IP, new
    /// local address, filtering drawn from the builder's policy mix), as when a laptop
    /// hops from one network to another. All bindings at the old gateway are dropped; the
    /// node's observed IP changes, so mappings other nodes hold towards its old address
    /// go stale and expire. Returns `false` if the node is unknown or public (use
    /// [`demote_to_private`](Self::demote_to_private) for those).
    pub fn migrate_node(&self, node: NodeId) -> bool {
        self.lock().migrate_node(node)
    }

    /// NAT-profile upgrade: turns a private `node` into a public one with a fresh
    /// globally reachable address (the user enabled port forwarding, or moved onto an
    /// unfirewalled network). Bindings at its old gateway are dropped. Returns `false`
    /// if the node is unknown or already public.
    ///
    /// The *protocols* are not notified: a node keeps advertising the class it detected
    /// when it joined, exactly like a deployed peer whose NAT situation changes under it
    /// — re-running NAT-type identification is the protocol's job, and the resulting
    /// stale self-classification is part of the stress the scripted scenarios apply.
    pub fn promote_to_public(&self, node: NodeId) -> bool {
        self.lock().promote_to_public(node)
    }

    /// NAT-profile downgrade: puts a public `node` behind a fresh NAT gateway (the ISP
    /// moved it behind carrier-grade NAT, or it roamed onto a NATed network). Returns
    /// `false` if the node is unknown or already private. See
    /// [`promote_to_public`](Self::promote_to_public) for the stale-self-classification
    /// caveat, which applies symmetrically.
    pub fn demote_to_private(&self, node: NodeId) -> bool {
        self.lock().demote_to_private(node)
    }

    /// Changes the filtering policy of the gateway in front of `node` at runtime (see
    /// [`NatGateway::set_filtering`]). Returns `false` if the node is unknown or public.
    pub fn set_filtering_of(&self, node: NodeId, policy: FilteringPolicy) -> bool {
        self.lock().set_filtering_of(node, policy)
    }

    /// Applies one scripted [`NatDynamicsEvent`] at round barrier `round` / time `now`,
    /// drawing per-candidate selections from `rng`.
    ///
    /// This is the single dispatcher behind scripted NAT dynamics: the experiments
    /// crate's `ScenarioExecutor` (and any test) calls it instead of duplicating the
    /// event→mutation mapping. It takes the topology lock once for the whole event and
    /// runs the same bodies as the per-node methods
    /// ([`reboot_gateway_of`](Self::reboot_gateway_of),
    /// [`migrate_node`](Self::migrate_node), …). Selection draws one uniform variate per
    /// candidate node in ascending id order, so the draw sequence depends only on the
    /// event and the population, never on engine internals — the determinism contract
    /// the scenario engine's bit-identity gate relies on.
    ///
    /// Returns the caller's follow-up obligations: for
    /// [`RegionalOutage`](NatDynamicsEvent::RegionalOutage), the exact nodes taken
    /// offline and the round at which they must be restored (restoring is scheduling,
    /// which the topology does not do). [`FlashCrowd`](NatDynamicsEvent::FlashCrowd) is
    /// a no-op here — membership growth is engine-side state the experiment driver
    /// expands into the join schedule before the run.
    ///
    /// # Panics
    ///
    /// Panics if the event's parameters are out of range (see
    /// [`NatDynamicsEvent::validate`]).
    pub fn apply(
        &self,
        event: &NatDynamicsEvent,
        round: u64,
        now: SimTime,
        rng: &mut SmallRng,
    ) -> AppliedEvent {
        event.validate();
        self.lock().apply(event, round, now, rng)
    }

    /// Marks `node` offline (scripted partition/regional outage: no packet from or to it
    /// passes the filter) or back online. The node's NAT state is untouched — bindings
    /// keep ageing while it is cut off, exactly as during a real partition. Returns
    /// `false` for an unknown node (the offline flag is still cleared, so restoring a
    /// node that churned out meanwhile is harmless).
    pub fn set_offline(&self, node: NodeId, offline: bool) -> bool {
        self.lock().set_offline(node, offline)
    }

    /// Returns `true` if `node` is currently marked offline.
    pub fn is_offline(&self, node: NodeId) -> bool {
        self.lock().is_offline(node)
    }

    /// Identifiers of all topologically private nodes (behind a gateway, UPnP or not),
    /// in ascending id order.
    pub fn private_node_ids(&self) -> Vec<NodeId> {
        self.lock().node_ids(NatProfile::is_private)
    }

    /// Identifiers of all topologically public nodes, in ascending id order.
    pub fn public_node_ids(&self) -> Vec<NodeId> {
        self.lock().node_ids(|p| !p.is_private())
    }

    /// Identifiers of all registered nodes, in ascending id order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.lock().node_ids(|_| true)
    }

    /// The effective connectivity class of `node`: public nodes and nodes behind
    /// UPnP-enabled gateways count as [`NatClass::Public`]; everything else is private.
    ///
    /// Returns `None` for unknown nodes.
    pub fn class_of(&self, node: NodeId) -> Option<NatClass> {
        let inner = self.lock();
        let profile = inner.profile(node)?;
        Some(if profile.is_private() && !inner.behind_upnp(profile) {
            NatClass::Private
        } else {
            NatClass::Public
        })
    }

    /// Aggregate statistics about the topology.
    pub fn stats(&self) -> TopologyStats {
        let inner = self.lock();
        let mut stats = TopologyStats {
            blocked_messages: inner.blocked_messages,
            stale_binding_failures: inner.stale_binding_failures,
            hairpin_blocked: inner.hairpin_blocked,
            offline_nodes: inner.offline_count,
            ..TopologyStats::default()
        };
        for profile in inner.profiles.iter().flatten() {
            match profile {
                NatProfile::Public { .. } => stats.public_nodes += 1,
                _ if inner.behind_upnp(profile) => stats.upnp_nodes += 1,
                NatProfile::Private { .. } => stats.private_nodes += 1,
            }
        }
        stats
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.lock().profile_count
    }

    /// Returns `true` if no node is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // The addressing facts a deployed node could observe through its sockets, which the
    // NAT-type identification protocol of the paper (§V) reads.

    /// The address the node itself is bound to (a private address behind a NAT).
    pub fn local_ip(&self, node: NodeId) -> Option<Ip> {
        match *self.lock().profile(node)? {
            NatProfile::Public { ip } => Some(ip),
            NatProfile::Private { local_ip, .. } => Some(local_ip),
        }
    }

    /// The source address a remote peer observes on packets sent by `node`.
    pub fn observed_ip(&self, node: NodeId) -> Option<Ip> {
        self.lock().observed_ip(node)
    }

    /// Whether the node can establish a port mapping through UPnP IGD.
    pub fn supports_upnp(&self, node: NodeId) -> bool {
        let inner = self.lock();
        inner.profile(node).is_some_and(|p| inner.behind_upnp(p))
    }
}

impl DeliveryFilter for NatTopology {
    fn on_send(&mut self, from: NodeId, to: NodeId, now: SimTime) {
        self.lock().judge_link(from, to, now, false);
    }

    fn can_deliver(&mut self, from: NodeId, to: NodeId, now: SimTime) -> DeliveryVerdict {
        self.lock().judge_link(from, to, now, true)
    }

    /// The per-message sequence with its two halves pulled apart: what a link asks of
    /// which gateway depends only on the node tables, which no link changes, and what a
    /// gateway answers depends only on the operations that reached *that* gateway, in
    /// order. So the batch is resolved first (read-only, split over link ranges), then
    /// every worker owns a contiguous range of gateways and walks the whole batch
    /// applying the operations that fall on its range. One lock per batch instead of two
    /// per message; with one worker both steps run on the calling thread over one range,
    /// as they do for the one link of `on_send` and `can_deliver`.
    fn judge_batch(
        &mut self,
        links: &[BatchLink],
        verdicts: &mut Vec<DeliveryVerdict>,
        workers: usize,
    ) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        // Both are overwritten link by link below; only growth writes twice.
        let mut ops = std::mem::take(&mut inner.batch_ops);
        ops.resize(links.len(), LinkOps::NONE);
        verdicts.resize(links.len(), DeliveryVerdict::Deliver);
        let mut tally = BlockTally::default();
        // A worker without a gateway or a link of its own would only cost its spawn.
        let workers = workers.min(inner.gateways.len()).min(links.len());
        if workers <= 1 {
            tally.blocked = inner.resolve_links(links, &mut ops, verdicts);
            tally += judge_gateway_range(&mut inner.gateways, 0, links, &ops, true, |k| {
                verdicts[k] = DeliveryVerdict::BlockedByNat;
            });
        } else {
            let per_worker = links.len().div_ceil(workers);
            let tables: &Inner = inner;
            let offline_blocked = on_threads(
                links
                    .chunks(per_worker)
                    .zip(ops.chunks_mut(per_worker))
                    .zip(verdicts.chunks_mut(per_worker))
                    .map(|((links, ops), verdicts)| {
                        move || tables.resolve_links(links, ops, verdicts)
                    }),
            );
            tally.blocked = offline_blocked.into_iter().sum();
            let per_worker = inner.gateways.len().div_ceil(workers);
            let ops = ops.as_slice();
            let judged = on_threads(inner.gateways.chunks_mut(per_worker).enumerate().map(
                |(w, gateways)| {
                    move || {
                        let mut blocked = Vec::new();
                        let base = w * per_worker;
                        let refuse = |k| blocked.push(k);
                        let tally = judge_gateway_range(gateways, base, links, ops, true, refuse);
                        (tally, blocked)
                    }
                },
            ));
            for (range_tally, blocked) in judged {
                tally += range_tally;
                for k in blocked {
                    verdicts[k] = DeliveryVerdict::BlockedByNat;
                }
            }
        }
        inner.count_blocked(tally);
        inner.batch_ops = ops;
    }

    fn on_node_removed(&mut self, node: NodeId) {
        self.remove_node(node);
    }
}

/// Builder for [`NatTopology`].
///
/// # Examples
///
/// ```
/// use croupier_nat::{FilteringPolicy, NatTopologyBuilder};
/// use croupier_simulator::SimDuration;
///
/// let topology = NatTopologyBuilder::new(42)
///     .default_filtering(FilteringPolicy::EndpointIndependent)
///     .mapping_timeout(SimDuration::from_secs(30))
///     .build();
/// assert!(topology.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct NatTopologyBuilder {
    seed: u64,
    default_config: NatGatewayConfig,
    filtering_mix: Vec<(FilteringPolicy, f64)>,
}

impl NatTopologyBuilder {
    /// Creates a builder; `seed` drives the assignment of filtering policies when a mix is
    /// configured.
    pub fn new(seed: u64) -> Self {
        NatTopologyBuilder {
            seed,
            default_config: NatGatewayConfig::default(),
            filtering_mix: Vec::new(),
        }
    }

    /// Sets the filtering policy used for every private node (unless a mix is configured).
    pub fn default_filtering(mut self, filtering: FilteringPolicy) -> Self {
        self.default_config.filtering = filtering;
        self
    }

    /// Sets a weighted mix of filtering policies; each new private node draws its gateway's
    /// policy from this distribution.
    ///
    /// # Panics
    ///
    /// Panics if `mix` is empty or any weight is not a positive finite number.
    pub fn filtering_mix(mut self, mix: &[(FilteringPolicy, f64)]) -> Self {
        assert!(!mix.is_empty(), "filtering mix must not be empty");
        assert!(
            mix.iter().all(|(_, w)| w.is_finite() && *w > 0.0),
            "filtering mix weights must be positive"
        );
        self.filtering_mix = mix.to_vec();
        self
    }

    /// Sets the UDP mapping timeout of every gateway.
    pub fn mapping_timeout(mut self, timeout: SimDuration) -> Self {
        self.default_config.mapping_timeout = timeout;
        self
    }

    /// Builds the (initially empty) topology.
    pub fn build(self) -> NatTopology {
        NatTopology {
            inner: Arc::new(Mutex::new(Inner {
                profiles: Vec::new(),
                profile_count: 0,
                gateways: Vec::new(),
                default_config: self.default_config,
                filtering_mix: self.filtering_mix,
                rng: SmallRng::seed_from_u64(self.seed),
                next_public_ip: 0,
                next_private_ip: 0,
                blocked_messages: 0,
                stale_binding_failures: 0,
                hairpin_blocked: 0,
                offline: Vec::new(),
                offline_count: 0,
                batch_ops: Vec::new(),
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl NatTopology {
        /// The profile of `node`, if registered.
        fn profile(&self, node: NodeId) -> Option<NatProfile> {
            self.lock().profile(node).copied()
        }
    }

    fn topo() -> NatTopology {
        NatTopologyBuilder::new(1)
            .default_filtering(FilteringPolicy::AddressAndPortDependent)
            .mapping_timeout(SimDuration::from_secs(30))
            .build()
    }

    const PUB: NodeId = NodeId::new(0);
    const PRIV: NodeId = NodeId::new(1);
    const OTHER_PUB: NodeId = NodeId::new(2);

    fn populated() -> NatTopology {
        let t = topo();
        t.add_public_node(PUB);
        t.add_private_node(PRIV);
        t.add_public_node(OTHER_PUB);
        t
    }

    #[test]
    fn public_nodes_are_always_reachable() {
        let t = populated();
        let mut f = t.clone();
        assert_eq!(
            f.can_deliver(PRIV, PUB, SimTime::ZERO),
            DeliveryVerdict::Deliver
        );
        assert_eq!(
            f.can_deliver(PUB, OTHER_PUB, SimTime::ZERO),
            DeliveryVerdict::Deliver
        );
    }

    #[test]
    fn private_nodes_block_unsolicited_traffic() {
        let t = populated();
        let mut f = t.clone();
        assert_eq!(
            f.can_deliver(PUB, PRIV, SimTime::ZERO),
            DeliveryVerdict::BlockedByNat
        );
        assert_eq!(t.stats().blocked_messages, 1);
    }

    #[test]
    fn reply_path_opens_after_outbound_and_expires() {
        let t = populated();
        let mut f = t.clone();
        f.on_send(PRIV, PUB, SimTime::ZERO);
        assert_eq!(
            f.can_deliver(PUB, PRIV, SimTime::from_secs(1)),
            DeliveryVerdict::Deliver
        );
        // A different public node still cannot get in (port-dependent filtering).
        assert_eq!(
            f.can_deliver(OTHER_PUB, PRIV, SimTime::from_secs(1)),
            DeliveryVerdict::BlockedByNat
        );
        // The mapping expires after the configured timeout.
        assert_eq!(
            f.can_deliver(PUB, PRIV, SimTime::from_secs(120)),
            DeliveryVerdict::BlockedByNat
        );
    }

    #[test]
    fn unknown_destination_is_reported() {
        let t = populated();
        let mut f = t.clone();
        assert_eq!(
            f.can_deliver(PUB, NodeId::new(99), SimTime::ZERO),
            DeliveryVerdict::NoSuchDestination
        );
    }

    #[test]
    fn classes_and_stats_are_reported() {
        let t = populated();
        t.add_upnp_node(NodeId::new(3));
        assert_eq!(t.class_of(PUB), Some(NatClass::Public));
        assert_eq!(t.class_of(PRIV), Some(NatClass::Private));
        assert_eq!(t.class_of(NodeId::new(3)), Some(NatClass::Public));
        assert_eq!(t.class_of(NodeId::new(42)), None);
        assert!(t.gateway_of(NodeId::new(3)).is_some());
        assert_eq!(t.gateway_of(PUB), None);
        let stats = t.stats();
        assert_eq!(stats.public_nodes, 2);
        assert_eq!(stats.private_nodes, 1);
        assert_eq!(stats.upnp_nodes, 1);
        assert!((stats.public_private_ratio() - 0.75).abs() < 1e-9);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn upnp_nodes_accept_unsolicited_traffic() {
        let t = populated();
        t.add_upnp_node(NodeId::new(3));
        let mut f = t.clone();
        assert_eq!(
            f.can_deliver(PUB, NodeId::new(3), SimTime::ZERO),
            DeliveryVerdict::Deliver
        );
    }

    #[test]
    fn address_info_reports_local_and_observed_ips() {
        let t = populated();
        // A public node observes the same address locally and remotely.
        assert_eq!(t.local_ip(PUB), t.observed_ip(PUB));
        // A private node's local address differs from the address its gateway exposes.
        let local = t.local_ip(PRIV).unwrap();
        let observed = t.observed_ip(PRIV).unwrap();
        assert_ne!(local, observed);
        assert!(local.is_private_range());
        assert!(!observed.is_private_range());
        assert!(!t.supports_upnp(PUB));
        assert!(!t.supports_upnp(PRIV));
        t.add_upnp_node(NodeId::new(3));
        assert!(t.supports_upnp(NodeId::new(3)));
    }

    #[test]
    fn removing_a_node_forgets_its_profile_and_bindings() {
        let t = populated();
        let mut f = t.clone();
        f.on_send(PRIV, PUB, SimTime::ZERO);
        f.on_node_removed(PRIV);
        assert_eq!(t.profile(PRIV), None);
        assert_eq!(
            f.can_deliver(PUB, PRIV, SimTime::from_secs(1)),
            DeliveryVerdict::NoSuchDestination
        );
    }

    #[test]
    fn clones_share_state() {
        let t = topo();
        let clone = t.clone();
        t.add_public_node(PUB);
        assert_eq!(clone.class_of(PUB), Some(NatClass::Public));
        assert_eq!(clone.len(), 1);
    }

    #[test]
    fn filtering_mix_assigns_varied_policies() {
        let t = NatTopologyBuilder::new(3)
            .filtering_mix(&[
                (FilteringPolicy::EndpointIndependent, 0.5),
                (FilteringPolicy::AddressAndPortDependent, 0.5),
            ])
            .build();
        // Register many private nodes, then check that an unsolicited packet passes some
        // (endpoint-independent after an unrelated outbound) but not all.
        let probe = NodeId::new(10_000);
        t.add_public_node(probe);
        let helper = NodeId::new(10_001);
        t.add_public_node(helper);
        let mut f = t.clone();
        let mut accepted = 0;
        let n = 200;
        for i in 0..n {
            let node = NodeId::new(i);
            t.add_private_node(node);
            // The private node contacts `helper`, creating a mapping; whether `probe` can
            // then reach it depends on the gateway's filtering policy.
            f.on_send(node, helper, SimTime::ZERO);
            if f.can_deliver(probe, node, SimTime::from_secs(1))
                .is_delivered()
            {
                accepted += 1;
            }
        }
        assert!(
            accepted > n / 5,
            "some gateways should be endpoint-independent: {accepted}"
        );
        assert!(
            accepted < n,
            "some gateways should be port-dependent: {accepted}"
        );
    }

    #[test]
    fn add_node_uses_class() {
        let t = topo();
        t.add_node(NodeId::new(5), NatClass::Public);
        t.add_node(NodeId::new(6), NatClass::Private);
        assert_eq!(t.class_of(NodeId::new(5)), Some(NatClass::Public));
        assert_eq!(t.class_of(NodeId::new(6)), Some(NatClass::Private));
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_filtering_mix_is_rejected() {
        NatTopologyBuilder::new(0).filtering_mix(&[]);
    }

    #[test]
    fn gateway_reboot_closes_the_reply_path_until_refreshed() {
        let t = populated();
        let mut f = t.clone();
        f.on_send(PRIV, PUB, SimTime::ZERO);
        assert_eq!(
            f.can_deliver(PUB, PRIV, SimTime::from_secs(1)),
            DeliveryVerdict::Deliver
        );
        assert!(t.reboot_gateway_of(PRIV, SimTime::from_secs(2)));
        assert_eq!(
            f.can_deliver(PUB, PRIV, SimTime::from_secs(3)),
            DeliveryVerdict::BlockedByNat
        );
        // The block happened within one mapping timeout of the reboot: it is a
        // stale-binding failure.
        assert_eq!(t.stats().stale_binding_failures, 1);
        // A fresh outbound reopens the path.
        f.on_send(PRIV, PUB, SimTime::from_secs(4));
        assert_eq!(
            f.can_deliver(PUB, PRIV, SimTime::from_secs(5)),
            DeliveryVerdict::Deliver
        );
        // Public nodes have no gateway to reboot.
        assert!(!t.reboot_gateway_of(PUB, SimTime::ZERO));
    }

    #[test]
    fn migration_moves_a_node_behind_a_fresh_gateway() {
        let t = populated();
        let mut f = t.clone();
        f.on_send(PRIV, PUB, SimTime::ZERO);
        let old_gateway = t.gateway_of(PRIV).unwrap();
        let old_observed = t.observed_ip(PRIV).unwrap();
        let gateways_before = t.gateway_count();
        assert!(t.migrate_node(PRIV));
        assert_ne!(t.gateway_of(PRIV).unwrap(), old_gateway);
        assert_ne!(t.observed_ip(PRIV).unwrap(), old_observed, "new public IP");
        assert_eq!(t.gateway_count(), gateways_before + 1);
        // The bindings did not follow the node: the reply path is closed.
        assert_eq!(
            f.can_deliver(PUB, PRIV, SimTime::from_secs(1)),
            DeliveryVerdict::BlockedByNat
        );
        // Public and unknown nodes cannot migrate.
        assert!(!t.migrate_node(PUB));
        assert!(!t.migrate_node(NodeId::new(99)));
    }

    #[test]
    fn promotion_and_demotion_flip_the_effective_class() {
        let t = populated();
        let mut f = t.clone();
        assert!(t.promote_to_public(PRIV));
        assert_eq!(t.class_of(PRIV), Some(NatClass::Public));
        assert_eq!(t.gateway_of(PRIV), None);
        assert_eq!(
            f.can_deliver(PUB, PRIV, SimTime::ZERO),
            DeliveryVerdict::Deliver,
            "a promoted node accepts unsolicited traffic"
        );
        assert!(!t.promote_to_public(PRIV), "already public");
        assert!(t.demote_to_private(PRIV));
        assert_eq!(t.class_of(PRIV), Some(NatClass::Private));
        assert_eq!(
            f.can_deliver(PUB, PRIV, SimTime::from_secs(1)),
            DeliveryVerdict::BlockedByNat,
            "a demoted node filters unsolicited traffic again"
        );
        assert!(!t.demote_to_private(PRIV), "already private");
        let stats = t.stats();
        assert_eq!(stats.public_nodes, 2);
        assert_eq!(stats.private_nodes, 1);
    }

    #[test]
    fn filtering_changes_apply_per_gateway() {
        let t = populated();
        let mut f = t.clone();
        f.on_send(PRIV, PUB, SimTime::ZERO);
        // Port-dependent: only PUB can get back in.
        assert_eq!(
            f.can_deliver(OTHER_PUB, PRIV, SimTime::from_secs(1)),
            DeliveryVerdict::BlockedByNat
        );
        assert!(t.set_filtering_of(PRIV, FilteringPolicy::EndpointIndependent));
        assert_eq!(
            f.can_deliver(OTHER_PUB, PRIV, SimTime::from_secs(2)),
            DeliveryVerdict::Deliver,
            "endpoint-independent lets any remote through the existing mapping"
        );
        assert!(!t.set_filtering_of(PUB, FilteringPolicy::EndpointIndependent));
    }

    #[test]
    fn offline_nodes_are_partitioned_in_both_directions() {
        let t = populated();
        let mut f = t.clone();
        assert!(t.set_offline(PUB, true));
        assert!(t.is_offline(PUB));
        assert_eq!(t.stats().offline_nodes, 1);
        // Traffic to and from the offline node is blocked, even between public nodes.
        assert_eq!(
            f.can_deliver(OTHER_PUB, PUB, SimTime::ZERO),
            DeliveryVerdict::BlockedByNat
        );
        assert_eq!(
            f.can_deliver(PUB, OTHER_PUB, SimTime::ZERO),
            DeliveryVerdict::BlockedByNat
        );
        // An offline private sender does not refresh bindings.
        assert!(t.set_offline(PRIV, true));
        f.on_send(PRIV, OTHER_PUB, SimTime::ZERO);
        assert!(t.set_offline(PRIV, false));
        assert_eq!(
            f.can_deliver(OTHER_PUB, PRIV, SimTime::from_secs(1)),
            DeliveryVerdict::BlockedByNat,
            "the outbound sent while offline must not have opened the NAT"
        );
        // Restoration clears the partition.
        assert!(t.set_offline(PUB, false));
        assert_eq!(t.stats().offline_nodes, 0);
        assert_eq!(
            f.can_deliver(OTHER_PUB, PUB, SimTime::from_secs(1)),
            DeliveryVerdict::Deliver
        );
        // Unknown nodes report false; clearing them is harmless.
        assert!(!t.set_offline(NodeId::new(99), true));
        assert!(!t.is_offline(NodeId::new(99)));
    }

    /// The per-message methods drive the batch functions one link at a time: an arrival
    /// must not replay its send, and a send must not be judged.
    #[test]
    fn an_arrival_records_no_send_and_a_send_draws_no_verdict() {
        let t = populated();
        let other_priv = NodeId::new(3);
        t.add_private_node(other_priv);
        let cgn = t.add_shared_gateway(NatGatewayConfig::symmetric());
        let (left, right) = (NodeId::new(4), NodeId::new(5));
        assert!(t.add_private_node_behind(left, cgn) && t.add_private_node_behind(right, cgn));
        let bindings = |node| {
            let gateway = t.gateway_of(node).unwrap();
            let inner = t.inner.lock().unwrap();
            inner.gateway(gateway).unwrap().binding_count()
        };
        let mut f = t.clone();
        for (from, to) in [(PRIV, other_priv), (left, right), (PRIV, PUB)] {
            f.can_deliver(from, to, SimTime::ZERO);
            assert_eq!(bindings(from), 0, "{from}->{to}");
        }
        assert_eq!(t.stats().blocked_messages, 2);
        // Sends towards a filtering gateway, a hairpin-incapable one, an offline node and
        // nobody: each is recorded, none is refused.
        assert!(t.set_offline(OTHER_PUB, true));
        let sends = [
            (PRIV, other_priv),
            (left, right),
            (PRIV, OTHER_PUB),
            (PRIV, NodeId::new(99)),
        ];
        for (from, to) in sends {
            f.on_send(from, to, SimTime::ZERO);
        }
        assert_eq!((bindings(PRIV), bindings(left)), (3, 1));
        assert_eq!(t.stats().blocked_messages, 2);
    }

    #[test]
    fn offline_flag_is_cleared_when_a_node_is_removed() {
        let t = populated();
        t.set_offline(PRIV, true);
        let mut f = t.clone();
        f.on_node_removed(PRIV);
        assert!(!t.is_offline(PRIV));
        assert_eq!(t.stats().offline_nodes, 0);
    }

    #[test]
    fn node_id_listings_are_ascending_and_class_partitioned() {
        let t = populated();
        assert_eq!(t.public_node_ids(), vec![PUB, OTHER_PUB]);
        assert_eq!(t.private_node_ids(), vec![PRIV]);
        assert_eq!(t.node_ids(), vec![PUB, PRIV, OTHER_PUB]);
        t.add_upnp_node(NodeId::new(3));
        assert_eq!(
            t.private_node_ids(),
            vec![PRIV, NodeId::new(3)],
            "UPnP nodes are topologically private"
        );
    }

    #[test]
    fn stale_binding_failures_require_a_recent_reboot() {
        let t = populated();
        let mut f = t.clone();
        // A plain unsolicited block is not a stale-binding failure.
        assert_eq!(
            f.can_deliver(PUB, PRIV, SimTime::ZERO),
            DeliveryVerdict::BlockedByNat
        );
        assert_eq!(t.stats().stale_binding_failures, 0);
        t.reboot_gateway_of(PRIV, SimTime::from_secs(10));
        // Within one mapping timeout (30 s) of the reboot: counted.
        assert_eq!(
            f.can_deliver(PUB, PRIV, SimTime::from_secs(20)),
            DeliveryVerdict::BlockedByNat
        );
        // Beyond the window: an ordinary block again.
        assert_eq!(
            f.can_deliver(PUB, PRIV, SimTime::from_secs(100)),
            DeliveryVerdict::BlockedByNat
        );
        let stats = t.stats();
        assert_eq!(stats.stale_binding_failures, 1);
        assert_eq!(stats.blocked_messages, 3);
    }

    #[test]
    #[should_panic(expected = "regions must be positive")]
    fn apply_validates_the_event() {
        let event = NatDynamicsEvent::RegionalOutage {
            region: 0,
            regions: 0,
            outage_rounds: 1,
        };
        populated().apply(&event, 1, SimTime::ZERO, &mut SmallRng::seed_from_u64(0));
    }

    /// Ids 0–5 public, 6–19 private behind own gateways (policy mix), 20–21 behind one
    /// shared gateway, 22 behind UPnP; every private node has sent to two others.
    const LIVE_IDS: u64 = 23;

    fn live_topology() -> NatTopology {
        let t = NatTopologyBuilder::new(5)
            .filtering_mix(&FilteringPolicy::ALL.map(|policy| (policy, 1.0)))
            .mapping_timeout(SimDuration::from_secs(30))
            .build();
        for id in 0..6 {
            t.add_public_node(NodeId::new(id));
        }
        for id in 6..20 {
            t.add_private_node(NodeId::new(id));
        }
        let shared = t.add_shared_gateway(NatGatewayConfig::default());
        for id in 20..22 {
            assert!(t.add_private_node_behind(NodeId::new(id), shared));
        }
        t.add_upnp_node(NodeId::new(22));
        let mut f = t.clone();
        for id in 6..LIVE_IDS {
            for to in [id % 6, (id + 5) % LIVE_IDS] {
                f.on_send(NodeId::new(id), NodeId::new(to), SimTime::from_secs(id));
            }
        }
        t
    }

    /// Everything a caller can observe of a topology, ending in a fixed probe trace.
    fn observe(t: &NatTopology) -> impl PartialEq + std::fmt::Debug {
        let ids = || (0..LIVE_IDS).map(NodeId::new);
        let profiles: Vec<_> = ids()
            .map(|node| (t.profile(node), t.observed_ip(node)))
            .collect();
        let (stats, gateways) = (t.stats(), t.gateway_count());
        let mut f = t.clone();
        let mut verdicts = Vec::new();
        for (k, (from, to)) in ids().flat_map(|a| ids().map(move |b| (a, b))).enumerate() {
            let at = SimTime::from_secs(40);
            if k % 3 == 0 {
                f.on_send(from, to, at);
            } else {
                verdicts.push(f.can_deliver(from, to, at));
            }
        }
        (profiles, stats, gateways, verdicts, t.stats())
    }

    /// `apply` against the per-node methods: on a twin topology, the same variates drawn
    /// over the documented candidates (private ids; public ids for the downgrade) and the
    /// per-node method called on each selected node.
    #[test]
    fn apply_equals_the_per_node_methods() {
        let now = SimTime::from_secs(30);
        let events = [
            NatDynamicsEvent::GatewayRebootStorm { fraction: 0.5 },
            NatDynamicsEvent::MobilityWave { fraction: 0.5 },
            NatDynamicsEvent::ProfileUpgrade { fraction: 0.5 },
            NatDynamicsEvent::ProfileDowngrade { fraction: 0.5 },
            NatDynamicsEvent::FilteringShift {
                fraction: 0.5,
                policy: FilteringPolicy::EndpointIndependent,
            },
            NatDynamicsEvent::GatewayReconfig {
                fraction: 0.5,
                profile: crate::GatewayProfile::CarrierGrade,
            },
            NatDynamicsEvent::CgnConsolidation {
                fraction: 0.5,
                pool_size: 3,
            },
        ];
        for event in events {
            let [untouched, applied, by_hand] = [(); 3].map(|()| live_topology());
            let mut rng = SmallRng::seed_from_u64(11);
            applied.apply(&event, 1, now, &mut rng.clone());
            let candidates = match event {
                NatDynamicsEvent::ProfileDowngrade { .. } => by_hand.public_node_ids(),
                _ => by_hand.private_node_ids(),
            };
            let selected: Vec<NodeId> = candidates
                .into_iter()
                .filter(|_| rng.gen_range(0.0..1.0) < 0.5)
                .collect();
            assert!(!selected.is_empty(), "{event:?}");
            let default_config = by_hand.lock().default_config;
            let cgn = match event {
                NatDynamicsEvent::CgnConsolidation { pool_size, .. } => by_hand.add_shared_gateway(
                    NatGatewayConfig::carrier_grade(pool_size)
                        .mapping_timeout(default_config.mapping_timeout),
                ),
                _ => GatewayId(u64::MAX),
            };
            for node in selected {
                match event {
                    NatDynamicsEvent::GatewayRebootStorm { .. } => {
                        by_hand.reboot_gateway_of(node, now)
                    }
                    NatDynamicsEvent::MobilityWave { .. } => by_hand.migrate_node(node),
                    NatDynamicsEvent::ProfileUpgrade { .. } => by_hand.promote_to_public(node),
                    NatDynamicsEvent::ProfileDowngrade { .. } => by_hand.demote_to_private(node),
                    NatDynamicsEvent::FilteringShift { policy, .. } => {
                        by_hand.set_filtering_of(node, policy)
                    }
                    NatDynamicsEvent::GatewayReconfig { profile, .. } => by_hand
                        .lock()
                        .reconfigure_gateway_of(node, profile.config(&default_config)),
                    NatDynamicsEvent::CgnConsolidation { .. } => {
                        by_hand.move_node_behind(node, cgn)
                    }
                    _ => unreachable!(),
                };
            }
            let expected = observe(&by_hand);
            assert_eq!(observe(&applied), expected, "{event:?}");
            assert_ne!(observe(&untouched), expected, "{event:?} changed nothing");
        }
    }
}
