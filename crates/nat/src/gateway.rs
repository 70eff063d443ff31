//! A single NAT gateway (or firewall) and its UDP mapping table.

use croupier_simulator::{FastHashMap, NodeId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::address::Ip;
use crate::filtering::FilteringPolicy;

/// Static configuration of a NAT gateway.
///
/// The gateway models what a `NodeId`-addressed message can observe of a NAT: which
/// inbound packets pass (`filtering`, refreshed by outbound traffic only and expiring
/// after `mapping_timeout`), whether two hosts behind it reach each other
/// (`hairpinning`), which pool address a host surfaces from (`pool_size`, paired) and
/// whether UPnP makes the host public. The defaults — hairpinning supported, a single
/// external address, no UPnP — are the baseline every seeded run is pinned against; the
/// richer behaviours are opt-in per gateway profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NatGatewayConfig {
    /// Inbound filtering policy.
    pub filtering: FilteringPolicy,
    /// How long a UDP binding survives without outbound traffic refreshing it. Refresh is
    /// asymmetric (RFC 4787 REQ-6): only *outbound* packets refresh; inbound never does.
    pub mapping_timeout: SimDuration,
    /// Whether the gateway loops packets addressed to one of its own external addresses
    /// back to the internal host they are meant for (RFC 4787 REQ-9). A
    /// hairpin-incapable gateway drops traffic between two hosts behind it.
    pub hairpinning: bool,
    /// Number of external addresses the gateway owns (carrier-grade NATs own a pool;
    /// consumer routers own one). Clamped to at least 1 when the gateway is built. Each
    /// internal host is *paired* with one pool address (RFC 4787 REQ-2).
    pub pool_size: u8,
    /// Whether the gateway supports the UPnP Internet Gateway Device protocol. Nodes behind
    /// a UPnP gateway can map a public port explicitly and therefore behave as public nodes.
    pub upnp_enabled: bool,
}

impl Default for NatGatewayConfig {
    fn default() -> Self {
        NatGatewayConfig {
            filtering: FilteringPolicy::default(),
            mapping_timeout: SimDuration::from_secs(60),
            hairpinning: true,
            pool_size: 1,
            upnp_enabled: false,
        }
    }
}

impl NatGatewayConfig {
    /// Creates a config with the given filtering policy and the default 60 s mapping
    /// timeout.
    pub fn with_filtering(filtering: FilteringPolicy) -> Self {
        NatGatewayConfig {
            filtering,
            ..NatGatewayConfig::default()
        }
    }

    /// Sets the mapping timeout.
    pub fn mapping_timeout(mut self, timeout: SimDuration) -> Self {
        self.mapping_timeout = timeout;
        self
    }

    /// Enables or disables hairpinning.
    pub fn hairpin(mut self, enabled: bool) -> Self {
        self.hairpinning = enabled;
        self
    }

    /// Sets the size of the external address pool.
    pub fn pool(mut self, size: u8) -> Self {
        self.pool_size = size.max(1);
        self
    }

    /// Enables or disables UPnP IGD support.
    pub fn upnp(mut self, enabled: bool) -> Self {
        self.upnp_enabled = enabled;
        self
    }

    /// The "full-cone" profile: endpoint-independent filtering with hairpinning — the
    /// friendliest NAT RFC 4787 describes (and the only one the paper's `ForwardTest`
    /// traverses unsolicited).
    pub fn full_cone() -> Self {
        NatGatewayConfig {
            filtering: FilteringPolicy::EndpointIndependent,
            ..NatGatewayConfig::default()
        }
    }

    /// The "symmetric" profile: address-and-port-dependent filtering, no hairpinning —
    /// only a peer the host itself contacted gets back in, and two hosts behind the
    /// gateway cannot reach each other.
    pub fn symmetric() -> Self {
        NatGatewayConfig {
            filtering: FilteringPolicy::AddressAndPortDependent,
            hairpinning: false,
            ..NatGatewayConfig::default()
        }
    }

    /// A carrier-grade profile: many customers share one gateway with a pool of
    /// `pool_size` external addresses (paired, per RFC 4787 REQ-2), address-dependent
    /// filtering, hairpinning supported (customers of one CGN must still reach each
    /// other).
    pub fn carrier_grade(pool_size: u8) -> Self {
        NatGatewayConfig {
            filtering: FilteringPolicy::AddressDependent,
            pool_size: pool_size.max(1),
            ..NatGatewayConfig::default()
        }
    }
}

/// One entry of a gateway's UDP mapping table: internal host `internal` has sent traffic to
/// remote node `remote` (whose observed address is `remote_ip`), most recently at
/// `last_refreshed`.
///
/// Node identifiers are stored as `u32` (checked on construction), shrinking the entry
/// from 32 to 24 bytes. At the 1M-node tier every private node owns a gateway and a
/// steady-state table holds tens of bindings, so the mapping tables are one of the
/// largest per-node allocations in the NAT layer; the same `u32` packing also lets the
/// table keys collapse to single `u64`s (see `pair_key`/`index_key`), which hash faster
/// than tuple keys on the per-message filter path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Binding {
    internal: u32,
    remote: u32,
    remote_ip: Ip,
    last_refreshed: SimTime,
}

impl Binding {
    /// Creates a mapping-table entry.
    ///
    /// # Panics
    ///
    /// Panics if either node identifier exceeds the table's `u32` key space.
    pub fn new(internal: NodeId, remote: NodeId, remote_ip: Ip, last_refreshed: SimTime) -> Self {
        Binding {
            internal: id32(internal),
            remote: id32(remote),
            remote_ip,
            last_refreshed,
        }
    }

    /// The internal (private) node that created the mapping.
    pub fn internal(&self) -> NodeId {
        NodeId::new(self.internal as u64)
    }

    /// The remote node the mapping points at.
    pub fn remote(&self) -> NodeId {
        NodeId::new(self.remote as u64)
    }

    /// The remote node's publicly observable IP address.
    pub fn remote_ip(&self) -> Ip {
        self.remote_ip
    }

    /// Last time outbound traffic refreshed the mapping.
    pub fn last_refreshed(&self) -> SimTime {
        self.last_refreshed
    }

    /// Returns `true` if the binding has expired at time `now` under `timeout`.
    pub fn is_expired(&self, now: SimTime, timeout: SimDuration) -> bool {
        now.saturating_since(self.last_refreshed) > timeout
    }
}

/// Narrows a node identifier to the mapping tables' `u32` key space.
#[inline]
fn id32(node: NodeId) -> u32 {
    let raw = node.as_u64();
    assert!(
        raw <= u32::MAX as u64,
        "node id {raw} exceeds the NAT mapping table's u32 key space"
    );
    raw as u32
}

/// Packs an `(internal, remote)` node pair into the exact-match table's `u64` key.
#[inline]
fn pair_key(internal: u32, remote: u32) -> u64 {
    ((internal as u64) << 32) | remote as u64
}

impl NatGatewayConfig {
    /// The newest-binding index key the configured filtering policy files a binding of
    /// `internal` towards `remote_ip` under: the internal host alone
    /// (endpoint-independent), the host and the remote address (address-dependent), or
    /// none — the exact table decides (address-and-port-dependent). The host is the high
    /// half of either key.
    #[inline]
    fn index_key(&self, internal: u32, remote_ip: Ip) -> Option<u64> {
        let remote = match self.filtering {
            FilteringPolicy::EndpointIndependent => 0,
            FilteringPolicy::AddressDependent => remote_ip.as_u32(),
            FilteringPolicy::AddressAndPortDependent => return None,
        };
        Some(pair_key(internal, remote))
    }
}

/// How many mapping-table operations a gateway absorbs between opportunistic purges of
/// expired bindings. Purging is a memory bound, not a correctness mechanism (expiry is
/// checked against timestamps on every query), so the cadence only trades table size
/// against purge work. The counter is per gateway because a sweep over every gateway in
/// the topology dominates the barrier's per-message cost at 100k nodes (one gateway per
/// private node).
const PURGE_EVERY_OPS: u32 = 256;

/// A NAT gateway: a public IP address plus a mapping table shared by the private nodes that
/// sit behind it.
///
/// Inbound-filtering decisions are O(1) for every policy: besides the exact
/// `(internal, remote)` table, the gateway maintains a *newest-binding* index — the most
/// recent refresh time per internal node or per `(internal, remote ip)` pair, whichever
/// the configured policy asks about. "Some unexpired binding exists" is equivalent to
/// "the newest such binding is unexpired" because expiry is monotone in the refresh
/// time, so the endpoint-independent/address-dependent policies query one index entry
/// instead of scanning the table. The address-dependent index additionally relies on
/// addresses never being *reused*, which [`NatTopology`](crate::NatTopology) guarantees
/// (IPs are allocated monotonically, even across scripted profile changes and node
/// migrations — a node that moves or is promoted gets a fresh address, so an index entry
/// keyed on an old observed IP can only ever go stale and expire, never silently
/// authorise a different peer).
///
/// # Examples
///
/// ```
/// use croupier_nat::{FilteringPolicy, Ip, NatGateway, NatGatewayConfig};
/// use croupier_simulator::{NodeId, SimDuration, SimTime};
///
/// let cfg = NatGatewayConfig::with_filtering(FilteringPolicy::AddressAndPortDependent)
///     .mapping_timeout(SimDuration::from_secs(30));
/// let mut gw = NatGateway::new(Ip::public(9), cfg);
/// let inside = NodeId::new(1);
/// let outside = NodeId::new(2);
///
/// // Unsolicited inbound traffic is dropped.
/// assert!(!gw.accepts_inbound(inside, outside, Ip::public(3), SimTime::ZERO));
/// // After the internal node sends out, the reverse path opens until the mapping expires.
/// gw.record_outbound(inside, outside, Ip::public(3), SimTime::ZERO);
/// assert!(gw.accepts_inbound(inside, outside, Ip::public(3), SimTime::from_secs(10)));
/// assert!(!gw.accepts_inbound(inside, outside, Ip::public(3), SimTime::from_secs(100)));
/// ```
#[derive(Clone, Debug)]
pub struct NatGateway {
    /// External address pool; `[0]` is the primary address ([`public_ip`](Self::public_ip)).
    external_ips: Vec<Ip>,
    config: NatGatewayConfig,
    /// Exact-match table, keyed by `pair_key`.
    bindings: FastHashMap<u64, Binding>,
    /// Newest refresh time per [`index_key`](NatGatewayConfig::index_key) of the
    /// configured policy, and of no other: a policy change rebuilds it.
    newest: FastHashMap<u64, SimTime>,
    ops_since_purge: u32,
    /// Time of the most recent [`reboot`](Self::reboot), if any.
    last_reboot: Option<SimTime>,
}

impl NatGateway {
    /// Creates a gateway with the given public address and configuration.
    pub fn new(public_ip: Ip, config: NatGatewayConfig) -> Self {
        NatGateway::with_pool(vec![public_ip], config)
    }

    /// Creates a gateway owning a pool of external addresses; `pool[0]` is the primary
    /// address. Panics if the pool is empty.
    pub fn with_pool(pool: Vec<Ip>, config: NatGatewayConfig) -> Self {
        assert!(
            !pool.is_empty(),
            "a NAT gateway needs at least one external address"
        );
        NatGateway {
            external_ips: pool,
            config,
            bindings: FastHashMap::default(),
            newest: FastHashMap::default(),
            ops_since_purge: 0,
            last_reboot: None,
        }
    }

    /// The gateway's primary public IP address (what remote peers observe as the packet
    /// source when the pool holds a single address).
    pub fn public_ip(&self) -> Ip {
        self.external_ips[0]
    }

    /// The gateway's external address pool.
    pub fn external_ips(&self) -> &[Ip] {
        &self.external_ips
    }

    /// Appends an address to the external pool (topology-side pool growth during a
    /// scripted gateway reconfiguration).
    pub fn extend_pool(&mut self, ip: Ip) {
        self.external_ips.push(ip);
    }

    /// The pool address `internal` is *paired* with (RFC 4787 REQ-2): every packet it
    /// sends surfaces from this address. With the default single-address pool this is
    /// [`public_ip`](Self::public_ip) for every node, which is what keeps pre-pool seeded
    /// runs bit-identical.
    pub fn external_ip_for(&self, internal: NodeId) -> Ip {
        self.external_ips[id32(internal) as usize % self.external_ips.len()]
    }

    /// Whether the gateway loops traffic between two of its own internal hosts.
    pub fn hairpinning(&self) -> bool {
        self.config.hairpinning
    }

    /// The gateway's configuration.
    pub fn config(&self) -> &NatGatewayConfig {
        &self.config
    }

    /// Number of mapping-table entries (including expired ones not yet purged).
    pub fn binding_count(&self) -> usize {
        self.bindings.len()
    }

    /// Records outbound traffic from `internal` towards `remote`, creating or refreshing the
    /// corresponding mapping. Refreshing only ever extends a mapping's lifetime: a packet
    /// carrying an older timestamp (which cannot happen on the engine's monotonic clock but
    /// can in hand-written tests) never shortens it.
    pub fn record_outbound(
        &mut self,
        internal: NodeId,
        remote: NodeId,
        remote_ip: Ip,
        now: SimTime,
    ) {
        let (internal, remote) = (id32(internal), id32(remote));
        let entry = self
            .bindings
            .entry(pair_key(internal, remote))
            .or_insert(Binding {
                internal,
                remote,
                remote_ip,
                last_refreshed: now,
            });
        entry.remote_ip = remote_ip;
        entry.last_refreshed = entry.last_refreshed.max(now);
        // Maintain the newest-binding index the configured policy queries (monotone max,
        // so the same never-shortens rule applies).
        if let Some(key) = self.config.index_key(internal, remote_ip) {
            let newest = self.newest.entry(key).or_insert(now);
            *newest = (*newest).max(now);
        }
        self.ops_since_purge += 1;
        if self.ops_since_purge >= PURGE_EVERY_OPS {
            self.purge_expired(now);
        }
    }

    /// Decides whether an inbound packet from `from` (with observed source address
    /// `from_ip`) addressed to the internal node `internal` passes the gateway at `now`.
    pub fn accepts_inbound(
        &self,
        internal: NodeId,
        from: NodeId,
        from_ip: Ip,
        now: SimTime,
    ) -> bool {
        if self.config.upnp_enabled {
            // An explicitly mapped UPnP port behaves like a public endpoint.
            return true;
        }
        let timeout = self.config.mapping_timeout;
        let fresh = |refreshed: &SimTime| now.saturating_since(*refreshed) <= timeout;
        let internal = id32(internal);
        match self.config.index_key(internal, from_ip) {
            Some(key) => self.newest.get(&key).is_some_and(fresh),
            None => self
                .bindings
                .get(&pair_key(internal, id32(from)))
                .is_some_and(|b| !b.is_expired(now, timeout)),
        }
    }

    /// Removes every binding that has expired at `now`. Called opportunistically to bound
    /// the size of the mapping table in long simulations.
    pub fn purge_expired(&mut self, now: SimTime) {
        let timeout = self.config.mapping_timeout;
        self.bindings.retain(|_, b| !b.is_expired(now, timeout));
        let fresh = |refreshed: &SimTime| now.saturating_since(*refreshed) <= timeout;
        self.newest.retain(|_, t| fresh(t));
        self.ops_since_purge = 0;
    }

    /// Power-cycles the gateway at `now`: the entire mapping table — and with it the
    /// newest-binding index — is lost, exactly as on a consumer router reboot. The
    /// configuration and the public address survive (ISPs commonly hand the same lease
    /// back; a reboot that also changes the address is modelled as a reboot followed by
    /// [`NatTopology::migrate_node`](crate::NatTopology::migrate_node)).
    ///
    /// Clearing the index together with the table keeps the O(1)-filter invariant —
    /// "the newest entry decides" — trivially intact: both sides are empty, so every
    /// inbound packet is unsolicited until new outbound traffic re-creates mappings.
    pub fn reboot(&mut self, now: SimTime) {
        self.bindings.clear();
        self.newest.clear();
        self.ops_since_purge = 0;
        self.last_reboot = Some(now);
    }

    /// Time of the most recent reboot, if the gateway ever rebooted.
    pub fn last_reboot(&self) -> Option<SimTime> {
        self.last_reboot
    }

    /// Returns `true` if the gateway rebooted within one mapping-timeout before `now` —
    /// the window in which an inbound block is plausibly a *stale-binding* failure (the
    /// sender refreshed a mapping recently enough that it would still be alive had the
    /// reboot not wiped it).
    pub fn rebooted_within_timeout(&self, now: SimTime) -> bool {
        self.last_reboot
            .is_some_and(|at| now.saturating_since(at) <= self.config.mapping_timeout)
    }

    /// Changes the inbound filtering policy at runtime (scripted NAT-dynamics: firmware
    /// update, config change, or the ISP swapping CPE behaviour).
    ///
    /// The newest-binding index is policy-specific — [`record_outbound`] files a binding
    /// under the key the *configured* policy queries — so a policy change rebuilds the
    /// index from the exact mapping table. The rebuild carries
    /// expired entries along unfiltered (it has no clock): that is sound because every
    /// index entry records the *newest* refresh time of its key, expiry is monotone in
    /// the refresh time, and [`accepts_inbound`](Self::accepts_inbound) re-checks expiry
    /// against the query instant — an expired newest entry answers exactly as no entry
    /// would.
    ///
    /// [`record_outbound`]: Self::record_outbound
    pub fn set_filtering(&mut self, policy: FilteringPolicy) {
        if policy == self.config.filtering {
            return;
        }
        self.config.filtering = policy;
        self.rebuild_newest_index();
    }

    /// Replaces the whole configuration at runtime (scripted gateway reconfiguration:
    /// firmware swap, CPE replacement, consolidation behind a carrier-grade NAT).
    ///
    /// The exact binding table — and therefore the filtering behaviour towards flows the
    /// new policy still admits — survives, and the newest-binding index the new filtering
    /// policy queries is rebuilt from it (same soundness argument as
    /// [`set_filtering`](Self::set_filtering)). If the new config wants a larger address
    /// pool than the gateway owns, the caller (the topology) must
    /// [`extend_pool`](Self::extend_pool) first — the gateway itself cannot allocate
    /// addresses.
    pub fn set_config(&mut self, config: NatGatewayConfig) {
        self.config = config;
        self.rebuild_newest_index();
    }

    /// Rebuilds the newest-binding index the configured filtering policy queries from the
    /// exact binding table; see [`set_filtering`](Self::set_filtering) for why carrying
    /// expired entries along unfiltered is sound.
    fn rebuild_newest_index(&mut self) {
        self.newest.clear();
        for binding in self.bindings.values() {
            // No key for one binding is no key for any: the policy keeps no index.
            let Some(key) = self.config.index_key(binding.internal, binding.remote_ip) else {
                return;
            };
            let newest = self.newest.entry(key).or_insert(binding.last_refreshed);
            *newest = (*newest).max(binding.last_refreshed);
        }
    }

    /// Removes every binding owned by `internal` (the node left the system).
    pub fn remove_internal(&mut self, internal: NodeId) {
        let internal = id32(internal);
        self.bindings.retain(|_, b| b.internal != internal);
        if self.bindings.is_empty() {
            // `retain` keeps capacity, and the topology keeps a gateway after its last
            // host left (gateway ids are dense and never reused): hand the allocations
            // back instead of stranding them for the rest of the run. Every index entry
            // is derived from a binding, so an empty table means an empty index.
            self.bindings = FastHashMap::default();
            self.newest = FastHashMap::default();
            return;
        }
        self.newest.retain(|key, _| (key >> 32) as u32 != internal);
    }

    /// Iterates over the current mapping-table entries.
    pub fn bindings(&self) -> impl Iterator<Item = &Binding> {
        self.bindings.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gw(policy: FilteringPolicy) -> NatGateway {
        NatGateway::new(
            Ip::public(100),
            NatGatewayConfig::with_filtering(policy).mapping_timeout(SimDuration::from_secs(30)),
        )
    }

    const INSIDE: NodeId = NodeId::new(1);
    const PEER_A: NodeId = NodeId::new(10);
    const PEER_B: NodeId = NodeId::new(11);

    #[test]
    fn unsolicited_inbound_is_blocked_for_all_policies() {
        for policy in FilteringPolicy::ALL {
            let g = gw(policy);
            assert!(
                !g.accepts_inbound(INSIDE, PEER_A, Ip::public(2), SimTime::ZERO),
                "{policy} must block unsolicited traffic"
            );
        }
    }

    #[test]
    fn endpoint_independent_opens_to_everyone_after_any_outbound() {
        let mut g = gw(FilteringPolicy::EndpointIndependent);
        g.record_outbound(INSIDE, PEER_A, Ip::public(2), SimTime::ZERO);
        assert!(g.accepts_inbound(INSIDE, PEER_A, Ip::public(2), SimTime::from_secs(1)));
        // A completely different peer can also get through.
        assert!(g.accepts_inbound(INSIDE, PEER_B, Ip::public(3), SimTime::from_secs(1)));
    }

    #[test]
    fn address_dependent_requires_matching_remote_ip() {
        let mut g = gw(FilteringPolicy::AddressDependent);
        g.record_outbound(INSIDE, PEER_A, Ip::public(2), SimTime::ZERO);
        // Same IP (e.g. another node behind the same remote gateway) passes.
        assert!(g.accepts_inbound(INSIDE, PEER_B, Ip::public(2), SimTime::from_secs(1)));
        // A different IP does not.
        assert!(!g.accepts_inbound(INSIDE, PEER_B, Ip::public(3), SimTime::from_secs(1)));
    }

    #[test]
    fn address_and_port_dependent_requires_exact_peer() {
        let mut g = gw(FilteringPolicy::AddressAndPortDependent);
        g.record_outbound(INSIDE, PEER_A, Ip::public(2), SimTime::ZERO);
        assert!(g.accepts_inbound(INSIDE, PEER_A, Ip::public(2), SimTime::from_secs(1)));
        assert!(!g.accepts_inbound(INSIDE, PEER_B, Ip::public(2), SimTime::from_secs(1)));
    }

    #[test]
    fn mappings_expire_after_timeout() {
        let mut g = gw(FilteringPolicy::AddressAndPortDependent);
        g.record_outbound(INSIDE, PEER_A, Ip::public(2), SimTime::ZERO);
        assert!(g.accepts_inbound(INSIDE, PEER_A, Ip::public(2), SimTime::from_secs(30)));
        assert!(!g.accepts_inbound(INSIDE, PEER_A, Ip::public(2), SimTime::from_secs(31)));
    }

    #[test]
    fn refreshing_outbound_extends_the_mapping() {
        let mut g = gw(FilteringPolicy::AddressAndPortDependent);
        g.record_outbound(INSIDE, PEER_A, Ip::public(2), SimTime::ZERO);
        g.record_outbound(INSIDE, PEER_A, Ip::public(2), SimTime::from_secs(25));
        assert!(g.accepts_inbound(INSIDE, PEER_A, Ip::public(2), SimTime::from_secs(50)));
    }

    #[test]
    fn upnp_gateways_accept_everything() {
        let mut g = NatGateway::new(Ip::public(100), NatGatewayConfig::default().upnp(true));
        assert!(g.accepts_inbound(INSIDE, PEER_A, Ip::public(2), SimTime::ZERO));
        g.purge_expired(SimTime::from_secs(1_000));
        assert!(g.accepts_inbound(INSIDE, PEER_A, Ip::public(2), SimTime::from_secs(2_000)));
    }

    #[test]
    fn purge_and_remove_internal_clean_the_table() {
        let mut g = gw(FilteringPolicy::AddressAndPortDependent);
        g.record_outbound(INSIDE, PEER_A, Ip::public(2), SimTime::ZERO);
        g.record_outbound(
            NodeId::new(2),
            PEER_A,
            Ip::public(2),
            SimTime::from_secs(100),
        );
        assert_eq!(g.binding_count(), 2);
        g.purge_expired(SimTime::from_secs(100));
        assert_eq!(g.binding_count(), 1);
        g.remove_internal(NodeId::new(2));
        assert_eq!(g.binding_count(), 0);
    }

    #[test]
    fn a_gateway_whose_last_host_left_hands_its_tables_back() {
        let other = NodeId::new(2);
        for policy in FilteringPolicy::ALL {
            let mut g = gw(policy);
            for remote in 10..40u64 {
                let ip = Ip::public(remote as u32);
                g.record_outbound(INSIDE, NodeId::new(remote), ip, SimTime::ZERO);
            }
            g.record_outbound(other, PEER_A, Ip::public(10), SimTime::ZERO);
            // A shared gateway that still fronts another host keeps that host's entries.
            g.remove_internal(INSIDE);
            assert_eq!(g.binding_count(), 1, "{policy}");
            assert!(g.accepts_inbound(other, PEER_A, Ip::public(10), SimTime::from_secs(1)));
            assert!(!g.accepts_inbound(INSIDE, PEER_A, Ip::public(10), SimTime::from_secs(1)));
            // Once the last host is gone, so are the allocations.
            g.remove_internal(other);
            assert_eq!(g.bindings.capacity(), 0, "{policy}");
            assert_eq!(g.newest.capacity(), 0, "{policy}");
            assert!(!g.accepts_inbound(other, PEER_A, Ip::public(10), SimTime::from_secs(1)));
        }
    }

    #[test]
    fn reboot_wipes_bindings_for_every_policy() {
        for policy in FilteringPolicy::ALL {
            let mut g = gw(policy);
            g.record_outbound(INSIDE, PEER_A, Ip::public(2), SimTime::ZERO);
            assert!(g.accepts_inbound(INSIDE, PEER_A, Ip::public(2), SimTime::from_secs(1)));
            g.reboot(SimTime::from_secs(2));
            assert_eq!(g.binding_count(), 0);
            assert!(
                !g.accepts_inbound(INSIDE, PEER_A, Ip::public(2), SimTime::from_secs(3)),
                "{policy}: a reboot must drop the reply path even though the binding \
                 would only have expired at t=30s"
            );
            assert_eq!(g.last_reboot(), Some(SimTime::from_secs(2)));
        }
    }

    #[test]
    fn newest_binding_index_is_consistent_after_a_reboot() {
        // The reboot-vs-expiry interaction the O(1) filter rework must survive: a wiped
        // index must not remember pre-reboot refresh times, and post-reboot outbound
        // traffic must rebuild it from scratch with post-reboot times only.
        for policy in [
            FilteringPolicy::EndpointIndependent,
            FilteringPolicy::AddressDependent,
        ] {
            let mut g = gw(policy);
            // Refresh generously before the reboot: without the wipe these mappings
            // would stay alive until t=55s.
            g.record_outbound(INSIDE, PEER_A, Ip::public(2), SimTime::from_secs(25));
            g.reboot(SimTime::from_secs(26));
            // Rebuild with a single early outbound; the newest binding is now t=27s, so
            // the reply path must close at t=57s — NOT at the pre-reboot t=55s horizon,
            // and NOT stay open because a stale index entry survived the wipe.
            g.record_outbound(INSIDE, PEER_A, Ip::public(2), SimTime::from_secs(27));
            assert!(g.accepts_inbound(INSIDE, PEER_A, Ip::public(2), SimTime::from_secs(57)));
            assert!(
                !g.accepts_inbound(INSIDE, PEER_A, Ip::public(2), SimTime::from_secs(58)),
                "{policy}: expiry must be measured from the post-reboot refresh"
            );
        }
    }

    #[test]
    fn reboot_then_purge_then_refresh_keeps_table_and_index_in_lockstep() {
        let mut g = gw(FilteringPolicy::EndpointIndependent);
        g.record_outbound(INSIDE, PEER_A, Ip::public(2), SimTime::ZERO);
        g.record_outbound(NodeId::new(2), PEER_B, Ip::public(3), SimTime::from_secs(5));
        g.reboot(SimTime::from_secs(10));
        // A purge right after the wipe must be a no-op on an empty table.
        g.purge_expired(SimTime::from_secs(10));
        assert_eq!(g.binding_count(), 0);
        assert!(!g.accepts_inbound(INSIDE, PEER_A, Ip::public(2), SimTime::from_secs(10)));
        // Only the re-created mapping opens up again.
        g.record_outbound(INSIDE, PEER_A, Ip::public(2), SimTime::from_secs(11));
        assert!(g.accepts_inbound(INSIDE, PEER_B, Ip::public(9), SimTime::from_secs(12)));
        assert_eq!(g.binding_count(), 1);
    }

    #[test]
    fn rebooted_within_timeout_tracks_the_stale_binding_window() {
        let mut g = gw(FilteringPolicy::AddressAndPortDependent);
        assert!(!g.rebooted_within_timeout(SimTime::from_secs(100)));
        g.reboot(SimTime::from_secs(100));
        assert!(g.rebooted_within_timeout(SimTime::from_secs(100)));
        assert!(g.rebooted_within_timeout(SimTime::from_secs(130)));
        assert!(
            !g.rebooted_within_timeout(SimTime::from_secs(131)),
            "beyond one mapping timeout, a block can no longer be blamed on the reboot"
        );
    }

    #[test]
    fn policy_change_rebuilds_the_index_the_new_policy_needs() {
        // Start port-dependent: record_outbound maintains no newest index at all.
        let mut g = gw(FilteringPolicy::AddressAndPortDependent);
        g.record_outbound(INSIDE, PEER_A, Ip::public(2), SimTime::ZERO);
        g.record_outbound(INSIDE, PEER_A, Ip::public(2), SimTime::from_secs(10));
        assert!(!g.accepts_inbound(INSIDE, PEER_B, Ip::public(2), SimTime::from_secs(11)));
        // Relax to address-dependent: the (internal, remote ip) index must be rebuilt
        // from the table, carrying the *newest* refresh time (t=10s, not t=0).
        g.set_filtering(FilteringPolicy::AddressDependent);
        assert_eq!(g.config().filtering, FilteringPolicy::AddressDependent);
        assert!(g.accepts_inbound(INSIDE, PEER_B, Ip::public(2), SimTime::from_secs(40)));
        assert!(!g.accepts_inbound(INSIDE, PEER_B, Ip::public(2), SimTime::from_secs(41)));
        // Relax further to endpoint-independent: any remote passes until expiry.
        g.set_filtering(FilteringPolicy::EndpointIndependent);
        assert!(g.accepts_inbound(INSIDE, PEER_B, Ip::public(9), SimTime::from_secs(40)));
        // Tighten back to port-dependent: only the exact (internal, remote) binding
        // decides again, and the stale relaxed indexes must not leak through.
        g.set_filtering(FilteringPolicy::AddressAndPortDependent);
        assert!(g.accepts_inbound(INSIDE, PEER_A, Ip::public(2), SimTime::from_secs(40)));
        assert!(!g.accepts_inbound(INSIDE, PEER_B, Ip::public(2), SimTime::from_secs(12)));
    }

    /// The two policies' index keys share one map: a flip must leave nothing of the old
    /// policy's keys behind and file every live binding under the new one's.
    #[test]
    fn a_flipped_gateway_answers_as_a_twin_built_under_the_new_policy() {
        let other = NodeId::new(2);
        let mut trace = Vec::new();
        let mut flipped = gw(FilteringPolicy::EndpointIndependent);
        let flips = [
            FilteringPolicy::EndpointIndependent,
            FilteringPolicy::AddressDependent,
            FilteringPolicy::AddressAndPortDependent,
            FilteringPolicy::EndpointIndependent,
        ];
        for (round, policy) in flips.into_iter().enumerate() {
            flipped.set_filtering(policy);
            let at = SimTime::from_secs(10 * round as u64);
            let sent = [
                (INSIDE, PEER_A, Ip::public(2), at),
                (other, PEER_B, Ip::public(3), at + SimDuration::from_secs(4)),
            ];
            for (internal, remote, ip, at) in sent {
                flipped.record_outbound(internal, remote, ip, at);
                trace.push((internal, remote, ip, at));
            }
            let mut twin = gw(policy);
            for &(internal, remote, ip, at) in &trace {
                twin.record_outbound(internal, remote, ip, at);
            }
            assert_eq!(flipped.newest.len(), twin.newest.len(), "{policy}");
            // `Ip::default()` packs to the key an endpoint-independent entry has.
            for from_ip in [Ip::public(2), Ip::public(3), Ip::default()] {
                for (internal, from) in [(INSIDE, PEER_A), (INSIDE, PEER_B), (other, PEER_A)] {
                    for secs in [9, 31, 35, 70] {
                        let now = at + SimDuration::from_secs(secs);
                        assert_eq!(
                            flipped.accepts_inbound(internal, from, from_ip, now),
                            twin.accepts_inbound(internal, from, from_ip, now),
                            "{policy}: {internal}<-{from}@{from_ip} at {now:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn binding_expiry_is_inclusive_of_timeout() {
        let b = Binding::new(INSIDE, PEER_A, Ip::public(1), SimTime::ZERO);
        assert!(!b.is_expired(SimTime::from_secs(30), SimDuration::from_secs(30)));
        assert!(b.is_expired(SimTime::from_millis(30_001), SimDuration::from_secs(30)));
    }

    #[test]
    fn bindings_are_compact_and_round_trip_their_fields() {
        // The u32-packed entry is 24 bytes; the padded NodeId-based layout was 32. At the
        // 1M-node tier the mapping tables are among the largest NAT-layer allocations.
        assert!(std::mem::size_of::<Binding>() <= 24);
        let b = Binding::new(INSIDE, PEER_A, Ip::public(7), SimTime::from_secs(3));
        assert_eq!(b.internal(), INSIDE);
        assert_eq!(b.remote(), PEER_A);
        assert_eq!(b.remote_ip(), Ip::public(7));
        assert_eq!(b.last_refreshed(), SimTime::from_secs(3));
    }

    /// One gateway per private node: a field nobody reads shows up in `peak_rss_mb` times
    /// the private population (80 000 gateways in the benchmark's `cyclon_nat_wide`).
    #[test]
    fn gateway_state_stays_compact() {
        assert!(std::mem::size_of::<NatGateway>() <= 128);
        assert!(std::mem::size_of::<NatGatewayConfig>() <= 16);
    }

    #[test]
    #[should_panic(expected = "u32 key space")]
    fn oversized_node_ids_are_rejected_by_the_mapping_table() {
        let mut g = gw(FilteringPolicy::EndpointIndependent);
        g.record_outbound(NodeId::new(1 << 32), PEER_A, Ip::public(2), SimTime::ZERO);
    }
}
