//! RFC 4787 conformance matrix for the NAT emulation.
//!
//! Every combination of filtering policy × hairpinning is driven through the same traffic
//! pattern and checked against the behaviour RFC 4787 prescribes for that combination.
//! Targeted tests below the matrix cover the requirements that need a specific traffic
//! shape: asymmetric refresh (REQ-6), paired IP pooling (REQ-2) and the scripted
//! gateway-profile dynamics that reach these behaviours from scenario scripts.

use croupier_nat::{
    AddressInfo, FilteringPolicy, GatewayProfile, Ip, NatDynamicsEvent, NatGateway,
    NatGatewayConfig, NatTopologyBuilder,
};
use croupier_simulator::{DeliveryFilter, DeliveryVerdict, NodeId, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const T0: SimTime = SimTime::ZERO;

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

/// The full 3 × 2 behaviour matrix, one assertion set per combination.
#[test]
fn rfc4787_conformance_matrix() {
    for filtering in FilteringPolicy::ALL {
        for hairpin in [true, false] {
            let config = NatGatewayConfig::with_filtering(filtering).hairpin(hairpin);
            let combo = format!("filtering={filtering} hairpin={hairpin}");
            check_filtering_axis(config, &combo);
            check_hairpin_axis(config, &combo);
        }
    }
}

/// RFC 4787 §5: which inbound packets pass an established mapping?
fn check_filtering_axis(config: NatGatewayConfig, combo: &str) {
    let mut gw = NatGateway::new(Ip::public(1), config);
    let internal = NodeId::new(1);
    let (a, a_ip) = (NodeId::new(10), Ip::public(10));
    gw.record_outbound(internal, a, a_ip, T0);
    let now = t(10);

    // The contacted endpoint always gets back in.
    assert!(
        gw.accepts_inbound(internal, a, a_ip, now),
        "reply from the contacted endpoint must pass: {combo}"
    );
    // A stranger on an uncontacted IP passes only endpoint-independent filtering.
    let stranger = gw.accepts_inbound(internal, NodeId::new(20), Ip::public(20), now);
    assert_eq!(
        stranger,
        config.filtering == FilteringPolicy::EndpointIndependent,
        "unsolicited inbound vs filtering policy: {combo}"
    );
    // A different port on the contacted IP passes everything except APD filtering.
    let same_ip_other_port = gw.accepts_inbound(internal, NodeId::new(12), a_ip, now);
    assert_eq!(
        same_ip_other_port,
        config.filtering != FilteringPolicy::AddressAndPortDependent,
        "same-IP/other-port inbound vs filtering policy: {combo}"
    );
}

/// RFC 4787 REQ-9: traffic between two hosts behind the same gateway is delivered iff
/// the gateway hairpins.
fn check_hairpin_axis(config: NatGatewayConfig, combo: &str) {
    let topology = NatTopologyBuilder::new(7).build();
    let (x, y) = (NodeId::new(0), NodeId::new(1));
    let gw = topology.add_shared_gateway(config);
    assert!(topology.add_private_node_behind(x, gw), "{combo}");
    assert!(topology.add_private_node_behind(y, gw), "{combo}");

    let mut filter = topology.clone();
    // y talks to x first, so x→y afterwards is a reply under every filtering policy.
    filter.on_send(y, x, T0);
    let verdict = filter.can_deliver(x, y, t(10));
    if config.hairpinning {
        assert_eq!(
            verdict,
            DeliveryVerdict::Deliver,
            "hairpin-capable gateway must loop internal traffic: {combo}"
        );
        assert_eq!(topology.stats().hairpin_blocked, 0, "{combo}");
    } else {
        assert_eq!(
            verdict,
            DeliveryVerdict::BlockedByNat,
            "hairpin-incapable gateway must drop internal traffic: {combo}"
        );
        assert_eq!(topology.stats().hairpin_blocked, 1, "{combo}");
    }
}

/// RFC 4787 REQ-6: only outbound traffic refreshes a binding; a peer talking *at* the
/// binding does not keep it alive.
#[test]
fn binding_refresh_is_asymmetric() {
    let config = NatGatewayConfig::default().mapping_timeout(SimDuration::from_secs(60));
    let mut gw = NatGateway::new(Ip::public(1), config);
    let internal = NodeId::new(1);
    let (remote, remote_ip) = (NodeId::new(10), Ip::public(10));
    gw.record_outbound(internal, remote, remote_ip, T0);

    // Inbound checks just before expiry succeed but must not extend the binding.
    assert!(gw.accepts_inbound(internal, remote, remote_ip, t(59_000)));
    assert!(
        !gw.accepts_inbound(internal, remote, remote_ip, t(61_000)),
        "inbound traffic must not have refreshed the binding"
    );

    // Outbound traffic does refresh...
    gw.record_outbound(internal, remote, remote_ip, T0);
    gw.record_outbound(internal, remote, remote_ip, t(50_000));
    assert!(gw.accepts_inbound(internal, remote, remote_ip, t(100_000)));
    // ...and an out-of-order older timestamp never shortens the lifetime.
    gw.record_outbound(internal, remote, remote_ip, t(10_000));
    assert!(gw.accepts_inbound(internal, remote, remote_ip, t(100_000)));
}

/// RFC 4787 REQ-2: with a pool of external addresses, every internal host is paired with
/// one pool address — all its packets surface from it, whatever the destination — and
/// different hosts spread over the pool.
#[test]
fn ip_pooling_is_paired() {
    let config = NatGatewayConfig::default().pool(4);
    let pool: Vec<Ip> = (1..=4).map(Ip::public).collect();
    let gw = NatGateway::with_pool(pool.clone(), config);
    let mut used: Vec<Ip> = (0..8)
        .map(|raw| gw.external_ip_for(NodeId::new(raw)))
        .collect();
    assert!(used.iter().all(|ip| pool.contains(ip)));
    used.sort_unstable();
    used.dedup();
    assert_eq!(used, pool, "hosts must spread over the whole pool");

    // The topology reports the paired address as the observed source, and traffic does
    // not move it.
    let topology = NatTopologyBuilder::new(7).build();
    let shared = topology.add_shared_gateway(config);
    let (host, r1, r2) = (NodeId::new(1), NodeId::new(10), NodeId::new(11));
    assert!(topology.add_private_node_behind(host, shared));
    topology.add_public_node(r1);
    topology.add_public_node(r2);
    let paired = topology.observed_ip(host).expect("observed IP");
    let mut filter = topology.clone();
    filter.on_send(host, r1, T0);
    filter.on_send(host, r2, t(1));
    assert_eq!(topology.observed_ip(host), Some(paired));
}

/// The scripted CGN consolidation event moves the selected nodes behind one shared
/// carrier-grade gateway with a paired address pool — and they can still reach each
/// other through it (hairpinning, REQ-9).
#[test]
fn cgn_consolidation_event_builds_a_shared_pool_gateway() {
    let topology = NatTopologyBuilder::new(7).build();
    let nodes: Vec<NodeId> = (0..4).map(NodeId::new).collect();
    for node in &nodes {
        topology.add_private_node(*node);
    }
    let public = NodeId::new(99);
    topology.add_public_node(public);

    let mut rng = SmallRng::seed_from_u64(42);
    let event = NatDynamicsEvent::CgnConsolidation {
        fraction: 1.0,
        pool_size: 2,
    };
    let applied = topology.apply(&event, 10, t(1_000), &mut rng);
    assert!(applied.taken_offline.is_empty());
    assert!(applied.restore_round.is_none());

    // Everyone selected ended up behind the same gateway...
    let cgn = topology.gateway_of(nodes[0]).expect("behind the CGN");
    for node in &nodes {
        assert_eq!(topology.gateway_of(*node), Some(cgn));
    }
    // ...surfacing from a pool of at most `pool_size` external addresses.
    let mut pool_ips: Vec<Ip> = nodes
        .iter()
        .map(|n| topology.observed_ip(*n).expect("observed IP"))
        .collect();
    pool_ips.sort_unstable();
    pool_ips.dedup();
    assert!(
        (1..=2).contains(&pool_ips.len()),
        "paired pooling over a pool of 2, got {pool_ips:?}"
    );

    // Customers of one CGN still reach each other: the CGN profile hairpins.
    let mut filter = topology.clone();
    filter.on_send(nodes[1], nodes[0], t(2_000));
    assert_eq!(
        filter.can_deliver(nodes[0], nodes[1], t(2_010)),
        DeliveryVerdict::Deliver
    );
}

/// The scripted gateway-reconfig event switches the selected nodes' gateways to the
/// requested profile.
#[test]
fn gateway_reconfig_event_switches_profiles() {
    let topology = NatTopologyBuilder::new(7).build();
    let node = NodeId::new(0);
    topology.add_private_node(node);
    let (r1, r2) = (NodeId::new(10), NodeId::new(11));
    topology.add_public_node(r1);
    topology.add_public_node(r2);

    let mut rng = SmallRng::seed_from_u64(42);
    let event = NatDynamicsEvent::GatewayReconfig {
        fraction: 1.0,
        profile: GatewayProfile::Symmetric,
    };
    topology.apply(&event, 10, t(1_000), &mut rng);

    let mut filter = topology.clone();
    filter.on_send(node, r1, t(2_000));
    filter.on_send(node, r2, t(2_000));
    // The symmetric profile filters address-and-port-dependently: r2's reply passes,
    // a never-contacted node's does not.
    assert_eq!(
        filter.can_deliver(r2, node, t(2_020)),
        DeliveryVerdict::Deliver
    );
    let stranger = NodeId::new(12);
    topology.add_public_node(stranger);
    assert_eq!(
        filter.can_deliver(stranger, node, t(2_030)),
        DeliveryVerdict::BlockedByNat
    );
}
