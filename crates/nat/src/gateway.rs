//! A NAT gateway (or firewall) and the UDP bindings of each private host behind it.

use croupier_simulator::{NodeId, SimDuration, SimTime};

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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
    pub(crate) fn full_cone() -> Self {
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
    pub(crate) fn carrier_grade(pool_size: u8) -> Self {
        NatGatewayConfig {
            filtering: FilteringPolicy::AddressDependent,
            pool_size: pool_size.max(1),
            ..NatGatewayConfig::default()
        }
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

/// Narrows a refresh time to the mapping tables' `u32` milliseconds (49.7 simulated days).
#[inline]
fn ms32(time: SimTime) -> u32 {
    let raw = time.as_millis();
    assert!(
        raw <= u32::MAX as u64,
        "time {raw} ms exceeds the NAT mapping table's u32 clock"
    );
    raw as u32
}

/// One binding of a private host: the host sent to `remote` (observed at `remote_ip`),
/// most recently at `refreshed_ms`. 12 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Binding {
    remote: u32,
    remote_ip: Ip,
    refreshed_ms: u32,
}

/// The UDP bindings of one private host, which it owns and hands to its gateway's
/// [`record_outbound`](NatGateway::record_outbound) and
/// [`accepts_inbound`](NatGateway::accepts_inbound).
///
/// One entry per remote, sorted by remote id, so the default address-and-port-dependent
/// filter is a binary search over the host's own list. Expired entries are dropped when
/// a full list would otherwise grow. The list records the reboot epoch of the gateway it
/// was filled under: a reboot bumps the gateway's epoch, and a list from an older one
/// counts as empty, which wipes every host behind the gateway at once.
#[derive(Clone, Debug, Default)]
pub struct HostBindings {
    epoch: u32,
    /// Index of the gateway the host sits behind, kept here by the topology (it fills
    /// what would be padding); the gateway's own methods never read it.
    pub(crate) gateway: u32,
    entries: Vec<Binding>,
}

impl HostBindings {
    /// An empty list for a host behind the gateway with index `gateway`.
    pub(crate) fn behind(gateway: u32) -> Self {
        HostBindings {
            gateway,
            ..HostBindings::default()
        }
    }
}

/// A NAT gateway: a pool of public IP addresses, a configuration and a reboot epoch,
/// shared by the private hosts that sit behind it. The bindings are the hosts' own
/// ([`HostBindings`]), so a gateway fronting many hosts holds no table of its own and a
/// host's lookups scan only its own list:
///
/// * address-and-port-dependent filtering is a binary search by remote id;
/// * endpoint-independent filtering asks for any unexpired entry;
/// * address-dependent filtering scans the host's list for the address. It relies on
///   addresses never being *reused*, which [`NatTopology`](crate::NatTopology)
///   guarantees (IPs are allocated monotonically, even across scripted profile changes
///   and node migrations — a node that moves or is promoted gets a fresh address, so an
///   entry naming an old observed IP can only ever go stale and expire, never silently
///   authorise a different peer).
///
/// # Examples
///
/// ```
/// use croupier_nat::{FilteringPolicy, HostBindings, Ip, NatGateway, NatGatewayConfig};
/// use croupier_simulator::{NodeId, SimDuration, SimTime};
///
/// let cfg = NatGatewayConfig::with_filtering(FilteringPolicy::AddressAndPortDependent)
///     .mapping_timeout(SimDuration::from_secs(30));
/// let gw = NatGateway::new(Ip::public(9), cfg);
/// let mut inside = HostBindings::default();
/// let outside = NodeId::new(2);
///
/// // Unsolicited inbound traffic is dropped.
/// assert!(!gw.accepts_inbound(&inside, outside, Ip::public(3), SimTime::ZERO));
/// // After the internal host sends out, the reverse path opens until the mapping expires.
/// gw.record_outbound(&mut inside, outside, Ip::public(3), SimTime::ZERO);
/// assert!(gw.accepts_inbound(&inside, outside, Ip::public(3), SimTime::from_secs(10)));
/// assert!(!gw.accepts_inbound(&inside, outside, Ip::public(3), SimTime::from_secs(100)));
/// ```
#[derive(Clone, Debug)]
pub struct NatGateway {
    /// External address pool; `[0]` is the primary address ([`public_ip`](Self::public_ip)).
    external_ips: Vec<Ip>,
    config: NatGatewayConfig,
    /// Bumped by every [`reboot`](Self::reboot).
    epoch: u32,
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
            epoch: 0,
            last_reboot: None,
        }
    }

    /// The gateway's external address pool.
    pub(crate) fn external_ips(&self) -> &[Ip] {
        &self.external_ips
    }

    /// Appends an address to the external pool (topology-side pool growth during a
    /// scripted gateway reconfiguration).
    pub(crate) fn extend_pool(&mut self, ip: Ip) {
        self.external_ips.push(ip);
    }

    /// The pool address `internal` is *paired* with (RFC 4787 REQ-2): every packet it
    /// sends surfaces from this address. With the default single-address pool this is the
    /// gateway's one public address for every node, which is what keeps pre-pool seeded
    /// runs bit-identical.
    pub fn external_ip_for(&self, internal: NodeId) -> Ip {
        self.external_ips[id32(internal) as usize % self.external_ips.len()]
    }

    /// Whether the gateway loops traffic between two of its own internal hosts.
    pub(crate) fn hairpinning(&self) -> bool {
        self.config.hairpinning
    }

    /// The gateway's configuration.
    pub(crate) fn config(&self) -> &NatGatewayConfig {
        &self.config
    }

    /// The entries of `host` this gateway still holds: none if the gateway rebooted since
    /// they were made.
    fn live<'h>(&self, host: &'h HostBindings) -> &'h [Binding] {
        if host.epoch == self.epoch {
            &host.entries
        } else {
            &[]
        }
    }

    /// Number of bindings `host` holds at this gateway (including expired ones not yet
    /// dropped).
    pub fn binding_count(&self, host: &HostBindings) -> usize {
        self.live(host).len()
    }

    /// Records outbound traffic from the internal `host` towards `remote`, creating or
    /// refreshing the corresponding mapping. Refreshing only ever extends a mapping's
    /// lifetime: a packet carrying an older timestamp (which cannot happen on the engine's
    /// monotonic clock but can in hand-written tests) never shortens it.
    ///
    /// A full list drops the entries that have expired at `now` before it grows, so a
    /// query must not ask about a time before a packet recorded earlier (both engines
    /// query at arrival times no earlier than any send they have recorded).
    pub fn record_outbound(
        &self,
        host: &mut HostBindings,
        remote: NodeId,
        remote_ip: Ip,
        now: SimTime,
    ) {
        let (remote, at) = (id32(remote), ms32(now));
        if host.epoch != self.epoch {
            host.entries.clear();
            host.epoch = self.epoch;
        }
        let entries = &mut host.entries;
        if let Ok(i) = entries.binary_search_by_key(&remote, |b| b.remote) {
            let binding = &mut entries[i];
            binding.remote_ip = remote_ip;
            binding.refreshed_ms = binding.refreshed_ms.max(at);
            return;
        }
        if entries.len() == entries.capacity() {
            // Expiry is checked on every query, so dropping what has expired changes no
            // later answer; doing it only here bounds the list by its live entries.
            let fresh = self.fresh_at(now);
            entries.retain(|b| fresh(b.refreshed_ms));
        }
        let at_slot = entries.partition_point(|b| b.remote < remote);
        entries.insert(
            at_slot,
            Binding {
                remote,
                remote_ip,
                refreshed_ms: at,
            },
        );
    }

    /// Decides whether an inbound packet from `from` (with observed source address
    /// `from_ip`) addressed to the internal `host` passes the gateway at `now`.
    pub fn accepts_inbound(
        &self,
        host: &HostBindings,
        from: NodeId,
        from_ip: Ip,
        now: SimTime,
    ) -> bool {
        if self.config.upnp_enabled {
            // An explicitly mapped UPnP port behaves like a public endpoint.
            return true;
        }
        let fresh = self.fresh_at(now);
        let entries = self.live(host);
        match self.config.filtering {
            FilteringPolicy::EndpointIndependent => entries.iter().any(|b| fresh(b.refreshed_ms)),
            FilteringPolicy::AddressDependent => entries
                .iter()
                .any(|b| b.remote_ip == from_ip && fresh(b.refreshed_ms)),
            FilteringPolicy::AddressAndPortDependent => entries
                .binary_search_by_key(&id32(from), |b| b.remote)
                .is_ok_and(|i| fresh(entries[i].refreshed_ms)),
        }
    }

    /// Whether a binding refreshed at `u32` milliseconds is still alive at `now`.
    #[inline]
    fn fresh_at(&self, now: SimTime) -> impl Fn(u32) -> bool {
        let (now, timeout) = (now.as_millis(), self.config.mapping_timeout.as_millis());
        move |refreshed| now.saturating_sub(refreshed.into()) <= timeout
    }

    /// Power-cycles the gateway at `now`: every host's bindings are lost, exactly as on a
    /// consumer router reboot. The configuration and the public address survive (ISPs
    /// commonly hand the same lease back; a reboot that also changes the address is
    /// modelled as a reboot followed by
    /// [`NatTopology::migrate_node`](crate::NatTopology::migrate_node)).
    ///
    /// The wipe is one epoch bump: a host's list made under an older epoch counts as
    /// empty, and its next outbound packet clears it.
    pub fn reboot(&mut self, now: SimTime) {
        self.epoch += 1;
        self.last_reboot = Some(now);
    }

    /// Returns `true` if the gateway rebooted within one mapping-timeout before `now` —
    /// the window in which an inbound block is plausibly a *stale-binding* failure (the
    /// sender refreshed a mapping recently enough that it would still be alive had the
    /// reboot not wiped it).
    pub(crate) fn rebooted_within_timeout(&self, now: SimTime) -> bool {
        self.last_reboot
            .is_some_and(|at| now.saturating_since(at) <= self.config.mapping_timeout)
    }

    /// Changes the inbound filtering policy at runtime (scripted NAT-dynamics: firmware
    /// update, config change, or the ISP swapping CPE behaviour). The hosts' bindings
    /// survive and are read under the new policy from the next query on.
    pub fn set_filtering(&mut self, policy: FilteringPolicy) {
        self.config.filtering = policy;
    }

    /// Replaces the whole configuration at runtime (scripted gateway reconfiguration:
    /// firmware swap, CPE replacement, consolidation behind a carrier-grade NAT). The
    /// hosts' bindings survive, as with [`set_filtering`](Self::set_filtering). If the new
    /// config wants a larger address pool than the gateway owns, the caller (the
    /// topology) must `extend_pool` first — the gateway itself cannot allocate addresses.
    pub fn set_config(&mut self, config: NatGatewayConfig) {
        self.config = config;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl HostBindings {
        /// How many entries the list has room for without growing.
        pub(crate) fn capacity(&self) -> usize {
            self.entries.capacity()
        }
    }

    fn gw(policy: FilteringPolicy) -> NatGateway {
        NatGateway::new(
            Ip::public(100),
            NatGatewayConfig::with_filtering(policy).mapping_timeout(SimDuration::from_secs(30)),
        )
    }

    fn binding(remote: NodeId, remote_ip: Ip, refreshed: SimTime) -> Binding {
        Binding {
            remote: id32(remote),
            remote_ip,
            refreshed_ms: ms32(refreshed),
        }
    }

    const PEER_A: NodeId = NodeId::new(10);
    const PEER_B: NodeId = NodeId::new(11);

    #[test]
    fn unsolicited_inbound_is_blocked_for_all_policies() {
        for policy in FilteringPolicy::ALL {
            let g = gw(policy);
            assert!(
                !g.accepts_inbound(
                    &HostBindings::default(),
                    PEER_A,
                    Ip::public(2),
                    SimTime::ZERO
                ),
                "{policy} must block unsolicited traffic"
            );
        }
    }

    #[test]
    fn endpoint_independent_opens_to_everyone_after_any_outbound() {
        let g = gw(FilteringPolicy::EndpointIndependent);
        let mut inside = HostBindings::default();
        g.record_outbound(&mut inside, PEER_A, Ip::public(2), SimTime::ZERO);
        assert!(g.accepts_inbound(&inside, PEER_A, Ip::public(2), SimTime::from_secs(1)));
        // A completely different peer can also get through.
        assert!(g.accepts_inbound(&inside, PEER_B, Ip::public(3), SimTime::from_secs(1)));
    }

    #[test]
    fn address_dependent_requires_matching_remote_ip() {
        let g = gw(FilteringPolicy::AddressDependent);
        let mut inside = HostBindings::default();
        g.record_outbound(&mut inside, PEER_A, Ip::public(2), SimTime::ZERO);
        // Same IP (e.g. another node behind the same remote gateway) passes.
        assert!(g.accepts_inbound(&inside, PEER_B, Ip::public(2), SimTime::from_secs(1)));
        // A different IP does not.
        assert!(!g.accepts_inbound(&inside, PEER_B, Ip::public(3), SimTime::from_secs(1)));
    }

    #[test]
    fn address_and_port_dependent_requires_exact_peer() {
        let g = gw(FilteringPolicy::AddressAndPortDependent);
        let mut inside = HostBindings::default();
        g.record_outbound(&mut inside, PEER_A, Ip::public(2), SimTime::ZERO);
        assert!(g.accepts_inbound(&inside, PEER_A, Ip::public(2), SimTime::from_secs(1)));
        assert!(!g.accepts_inbound(&inside, PEER_B, Ip::public(2), SimTime::from_secs(1)));
    }

    #[test]
    fn mappings_expire_after_timeout() {
        let g = gw(FilteringPolicy::AddressAndPortDependent);
        let mut inside = HostBindings::default();
        g.record_outbound(&mut inside, PEER_A, Ip::public(2), SimTime::ZERO);
        assert!(g.accepts_inbound(&inside, PEER_A, Ip::public(2), SimTime::from_secs(30)));
        assert!(!g.accepts_inbound(&inside, PEER_A, Ip::public(2), SimTime::from_secs(31)));
    }

    #[test]
    fn refreshing_outbound_extends_the_mapping() {
        let g = gw(FilteringPolicy::AddressAndPortDependent);
        let mut inside = HostBindings::default();
        g.record_outbound(&mut inside, PEER_A, Ip::public(2), SimTime::ZERO);
        g.record_outbound(&mut inside, PEER_A, Ip::public(2), SimTime::from_secs(25));
        assert!(g.accepts_inbound(&inside, PEER_A, Ip::public(2), SimTime::from_secs(50)));
    }

    #[test]
    fn upnp_gateways_accept_everything() {
        let g = NatGateway::new(Ip::public(100), NatGatewayConfig::default().upnp(true));
        let inside = HostBindings::default();
        assert!(g.accepts_inbound(&inside, PEER_A, Ip::public(2), SimTime::ZERO));
        assert!(g.accepts_inbound(&inside, PEER_A, Ip::public(2), SimTime::from_secs(2_000)));
    }

    /// Expired entries leave a list only when it is full and about to grow: until then
    /// they sit there answering "expired", and a full list with nothing expired grows.
    #[test]
    fn expired_entries_are_dropped_before_a_full_list_grows() {
        let g = gw(FilteringPolicy::AddressAndPortDependent);
        let mut inside = HostBindings::default();
        let peer = |k: u64| (NodeId::new(100 + k), Ip::public(k as u32 + 1));
        for k in 0..4 {
            let (remote, ip) = peer(k);
            g.record_outbound(&mut inside, remote, ip, SimTime::from_secs(k * 20));
        }
        let capacity = inside.capacity();
        assert_eq!((g.binding_count(&inside), capacity), (4, 4));
        // At t=60 s the first two (t=0, t=20 s) have expired: the fifth entry takes the
        // room they leave instead of growing the list.
        let (remote, ip) = peer(4);
        g.record_outbound(&mut inside, remote, ip, SimTime::from_secs(60));
        assert_eq!((g.binding_count(&inside), inside.capacity()), (3, capacity));
        let remotes: Vec<u32> = inside.entries.iter().map(|b| b.remote).collect();
        assert_eq!(remotes, [102, 103, 104], "still sorted by remote id");
        // A refresh never grows the list; a new remote into a full list of live entries
        // does.
        g.record_outbound(&mut inside, remote, ip, SimTime::from_secs(61));
        let (remote, ip) = peer(0);
        g.record_outbound(&mut inside, remote, ip, SimTime::from_secs(61));
        assert_eq!(g.binding_count(&inside), 4);
        let (remote, ip) = peer(5);
        g.record_outbound(&mut inside, remote, ip, SimTime::from_secs(62));
        assert_eq!(g.binding_count(&inside), 5);
        assert!(inside.capacity() > capacity);
    }

    /// A reboot empties every host behind the gateway, whatever the policy; only what a
    /// host sends afterwards opens a path again.
    #[test]
    fn reboot_wipes_bindings_for_every_policy() {
        for policy in FilteringPolicy::ALL {
            let mut g = gw(policy);
            let (mut inside, mut other) = (HostBindings::default(), HostBindings::default());
            g.record_outbound(&mut inside, PEER_A, Ip::public(2), SimTime::ZERO);
            g.record_outbound(&mut other, PEER_B, Ip::public(3), SimTime::from_secs(5));
            assert!(g.accepts_inbound(&inside, PEER_A, Ip::public(2), SimTime::from_secs(1)));
            g.reboot(SimTime::from_secs(2));
            assert_eq!((g.binding_count(&inside), g.binding_count(&other)), (0, 0));
            for (host, from, ip) in [(&inside, PEER_A, 2), (&other, PEER_B, 3)] {
                assert!(
                    !g.accepts_inbound(host, from, Ip::public(ip), SimTime::from_secs(6)),
                    "{policy}: a reboot must drop the reply path even though the binding \
                     would only have expired at t=30s"
                );
            }
            assert_eq!(g.last_reboot, Some(SimTime::from_secs(2)));
            // Only the re-created mapping opens up again.
            g.record_outbound(&mut inside, PEER_A, Ip::public(2), SimTime::from_secs(11));
            assert!(g.accepts_inbound(&inside, PEER_A, Ip::public(2), SimTime::from_secs(12)));
            assert!(!g.accepts_inbound(&other, PEER_B, Ip::public(3), SimTime::from_secs(12)));
            assert_eq!((g.binding_count(&inside), g.binding_count(&other)), (1, 0));
        }
    }

    /// The bindings are the hosts' own, so a host that leaves takes its allocation with
    /// it, a host sharing the gateway keeps its entries, and once the last host is gone
    /// the gateway holds nothing but its address pool.
    #[test]
    fn a_gateway_whose_last_host_left_hands_its_tables_back() {
        for policy in FilteringPolicy::ALL {
            let g = gw(policy);
            let (mut inside, mut other) = (HostBindings::default(), HostBindings::default());
            for remote in 20..50u64 {
                let ip = Ip::public(remote as u32);
                g.record_outbound(&mut inside, NodeId::new(remote), ip, SimTime::ZERO);
            }
            g.record_outbound(&mut other, PEER_A, Ip::public(10), SimTime::ZERO);
            assert_eq!(g.binding_count(&inside), 30, "{policy}");
            assert!(inside.capacity() >= 30, "{policy}");
            // A shared gateway that still fronts another host keeps that host's entries.
            drop(std::mem::take(&mut inside));
            assert_eq!(
                (inside.capacity(), g.binding_count(&inside)),
                (0, 0),
                "{policy}"
            );
            assert_eq!(g.binding_count(&other), 1, "{policy}");
            assert!(g.accepts_inbound(&other, PEER_A, Ip::public(10), SimTime::from_secs(1)));
            assert!(!g.accepts_inbound(&inside, PEER_A, Ip::public(10), SimTime::from_secs(1)));
            // Once the last host is gone, so are the allocations; a newcomer starts empty.
            drop(std::mem::take(&mut other));
            assert_eq!(other.capacity(), 0, "{policy}");
            assert_eq!(g.external_ips().len(), 1, "{policy}");
            let newcomer = HostBindings::default();
            assert!(!g.accepts_inbound(&newcomer, PEER_A, Ip::public(10), SimTime::from_secs(1)));
        }
    }

    /// After a reboot, the first outbound packet clears the host's pre-reboot entries
    /// before it records its own, and dropping expired entries from a full list right
    /// after the wipe leaves only post-reboot ones.
    #[test]
    fn reboot_then_purge_then_refresh_keeps_table_and_index_in_lockstep() {
        let mut g = gw(FilteringPolicy::EndpointIndependent);
        let (mut inside, mut other) = (HostBindings::default(), HostBindings::default());
        g.record_outbound(&mut inside, PEER_A, Ip::public(2), SimTime::ZERO);
        g.record_outbound(&mut other, PEER_B, Ip::public(3), SimTime::from_secs(5));
        g.reboot(SimTime::from_secs(10));
        assert_eq!((g.binding_count(&inside), g.binding_count(&other)), (0, 0));
        assert!(!g.accepts_inbound(&inside, PEER_A, Ip::public(2), SimTime::from_secs(10)));
        assert!(!g.accepts_inbound(&other, PEER_B, Ip::public(3), SimTime::from_secs(10)));
        // Only the re-created mapping opens up again, and the stale entry is gone from
        // the list, not merely hidden.
        g.record_outbound(&mut inside, PEER_A, Ip::public(2), SimTime::from_secs(11));
        assert!(g.accepts_inbound(&inside, PEER_B, Ip::public(9), SimTime::from_secs(12)));
        assert!(!g.accepts_inbound(&other, PEER_B, Ip::public(3), SimTime::from_secs(12)));
        assert_eq!((g.binding_count(&inside), g.binding_count(&other)), (1, 0));
        assert_eq!(
            inside.entries,
            [binding(PEER_A, Ip::public(2), SimTime::from_secs(11))]
        );
        // Fill the list to capacity after the wipe, then add a peer once all of them have
        // expired: the purge keeps exactly the live post-reboot entries.
        let mut k = 0u64;
        while g.binding_count(&inside) < inside.capacity() {
            let remote = NodeId::new(100 + k);
            g.record_outbound(&mut inside, remote, Ip::public(50), SimTime::from_secs(11));
            k += 1;
        }
        g.record_outbound(&mut inside, PEER_B, Ip::public(3), SimTime::from_secs(42));
        g.record_outbound(
            &mut inside,
            NodeId::new(200),
            Ip::public(4),
            SimTime::from_secs(43),
        );
        let remotes: Vec<u32> = inside.entries.iter().map(|b| b.remote).collect();
        assert_eq!(remotes, [11, 200]);
        assert!(g.accepts_inbound(&inside, PEER_A, Ip::public(9), SimTime::from_secs(43)));
    }

    #[test]
    fn a_reboot_forgets_pre_reboot_refresh_times() {
        // A wiped list must not remember pre-reboot refresh times, and post-reboot
        // outbound traffic must rebuild it from scratch with post-reboot times only.
        for policy in FilteringPolicy::ALL {
            let mut g = gw(policy);
            let mut inside = HostBindings::default();
            // Refresh generously before the reboot: without the wipe this mapping would
            // stay alive until t=55s.
            g.record_outbound(&mut inside, PEER_A, Ip::public(2), SimTime::from_secs(25));
            g.reboot(SimTime::from_secs(26));
            // Rebuild with a single packet carrying an older timestamp; the reply path
            // must close at t=50s — NOT at the pre-reboot t=55s horizon, which the
            // never-shortens rule would keep if the stale entry survived the wipe.
            g.record_outbound(&mut inside, PEER_A, Ip::public(2), SimTime::from_secs(20));
            assert!(g.accepts_inbound(&inside, PEER_A, Ip::public(2), SimTime::from_secs(50)));
            assert!(
                !g.accepts_inbound(&inside, PEER_A, Ip::public(2), SimTime::from_secs(51)),
                "{policy}: expiry must be measured from the post-reboot refresh"
            );
        }
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
    fn a_policy_change_reads_the_bindings_made_before_it() {
        let mut g = gw(FilteringPolicy::AddressAndPortDependent);
        let mut inside = HostBindings::default();
        g.record_outbound(&mut inside, PEER_A, Ip::public(2), SimTime::ZERO);
        g.record_outbound(&mut inside, PEER_A, Ip::public(2), SimTime::from_secs(10));
        assert!(!g.accepts_inbound(&inside, PEER_B, Ip::public(2), SimTime::from_secs(11)));
        // Relax to address-dependent: the binding to the address answers, with its
        // *newest* refresh time (t=10s, not t=0).
        g.set_filtering(FilteringPolicy::AddressDependent);
        assert_eq!(g.config().filtering, FilteringPolicy::AddressDependent);
        assert!(g.accepts_inbound(&inside, PEER_B, Ip::public(2), SimTime::from_secs(40)));
        assert!(!g.accepts_inbound(&inside, PEER_B, Ip::public(2), SimTime::from_secs(41)));
        // Relax further to endpoint-independent: any remote passes until expiry.
        g.set_filtering(FilteringPolicy::EndpointIndependent);
        assert!(g.accepts_inbound(&inside, PEER_B, Ip::public(9), SimTime::from_secs(40)));
        // Tighten back to port-dependent: only the exact (internal, remote) binding
        // decides again.
        g.set_filtering(FilteringPolicy::AddressAndPortDependent);
        assert!(g.accepts_inbound(&inside, PEER_A, Ip::public(2), SimTime::from_secs(40)));
        assert!(!g.accepts_inbound(&inside, PEER_B, Ip::public(2), SimTime::from_secs(12)));
    }

    /// A flip must answer from the same bindings as a gateway that had the new policy all
    /// along.
    #[test]
    fn a_flipped_gateway_answers_as_a_twin_built_under_the_new_policy() {
        let mut trace = Vec::new();
        let mut flipped = gw(FilteringPolicy::EndpointIndependent);
        let mut hosts = [HostBindings::default(), HostBindings::default()];
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
                (0, PEER_A, Ip::public(2), at),
                (1, PEER_B, Ip::public(3), at + SimDuration::from_secs(4)),
            ];
            for (host, remote, ip, at) in sent {
                flipped.record_outbound(&mut hosts[host], remote, ip, at);
                trace.push((host, remote, ip, at));
            }
            let twin = gw(policy);
            let mut twin_hosts = [HostBindings::default(), HostBindings::default()];
            for &(host, remote, ip, at) in &trace {
                twin.record_outbound(&mut twin_hosts[host], remote, ip, at);
            }
            for from_ip in [Ip::public(2), Ip::public(3), Ip::default()] {
                for (host, from) in [(0, PEER_A), (0, PEER_B), (1, PEER_A)] {
                    for secs in [9, 31, 35, 70] {
                        let now = at + SimDuration::from_secs(secs);
                        assert_eq!(
                            flipped.accepts_inbound(&hosts[host], from, from_ip, now),
                            twin.accepts_inbound(&twin_hosts[host], from, from_ip, now),
                            "{policy}: host {host}<-{from}@{from_ip} at {now:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn binding_expiry_is_inclusive_of_timeout() {
        let g = gw(FilteringPolicy::AddressAndPortDependent);
        let mut inside = HostBindings::default();
        g.record_outbound(&mut inside, PEER_A, Ip::public(1), SimTime::ZERO);
        assert!(g.accepts_inbound(&inside, PEER_A, Ip::public(1), SimTime::from_secs(30)));
        let late = SimTime::from_millis(30_001);
        assert!(!g.accepts_inbound(&inside, PEER_A, Ip::public(1), late));
    }

    #[test]
    fn bindings_round_trip_their_packed_fields() {
        let g = gw(FilteringPolicy::AddressDependent);
        let mut inside = HostBindings::default();
        // Extremes of every field: the top node id, the top address, the last millisecond
        // the `u32` clock holds.
        let top = NodeId::new(u32::MAX as u64);
        let last_ms = SimTime::from_millis(u32::MAX as u64);
        g.record_outbound(&mut inside, top, Ip::from_raw(u32::MAX), last_ms);
        g.record_outbound(&mut inside, PEER_A, Ip::public(7), SimTime::from_secs(3));
        assert_eq!(
            inside.entries,
            [
                binding(PEER_A, Ip::public(7), SimTime::from_secs(3)),
                binding(top, Ip::from_raw(u32::MAX), last_ms),
            ]
        );
    }

    #[test]
    fn an_older_refresh_never_shortens_a_binding_but_updates_its_address() {
        for policy in FilteringPolicy::ALL {
            let g = gw(policy);
            let mut inside = HostBindings::default();
            g.record_outbound(&mut inside, PEER_A, Ip::public(2), SimTime::from_secs(20));
            // A stale timestamp, and the peer now surfaces from a new address.
            g.record_outbound(&mut inside, PEER_A, Ip::public(5), SimTime::from_secs(5));
            assert_eq!(
                inside.entries,
                [binding(PEER_A, Ip::public(5), SimTime::from_secs(20))],
                "{policy}"
            );
            // Open until t=50s, as the t=20s refresh promised.
            let at = SimTime::from_secs;
            assert!(g.accepts_inbound(&inside, PEER_A, Ip::public(5), at(50)));
            assert!(!g.accepts_inbound(&inside, PEER_A, Ip::public(5), at(51)));
        }
    }

    /// One gateway and one host list per private node: a field nobody reads shows up in
    /// `peak_rss_mb` times the private population (80 000 in the benchmark's
    /// `cyclon_nat_wide`), and a byte of a binding times its 1.2 M bindings.
    #[test]
    fn gateway_state_stays_compact() {
        assert!(std::mem::size_of::<NatGateway>() <= 64);
        assert!(std::mem::size_of::<NatGatewayConfig>() <= 16);
        assert_eq!(std::mem::size_of::<HostBindings>(), 32);
        assert_eq!(std::mem::size_of::<Binding>(), 12);
    }

    #[test]
    #[should_panic(expected = "u32 key space")]
    fn oversized_node_ids_are_rejected_by_the_mapping_table() {
        let g = gw(FilteringPolicy::EndpointIndependent);
        let huge = NodeId::new(1 << 32);
        g.record_outbound(
            &mut HostBindings::default(),
            huge,
            Ip::public(2),
            SimTime::ZERO,
        );
    }

    #[test]
    #[should_panic(expected = "u32 clock")]
    fn refresh_times_past_the_u32_clock_are_rejected_by_the_mapping_table() {
        let g = gw(FilteringPolicy::AddressAndPortDependent);
        let late = SimTime::from_millis(u32::MAX as u64 + 1);
        g.record_outbound(&mut HostBindings::default(), PEER_A, Ip::public(2), late);
    }
}
