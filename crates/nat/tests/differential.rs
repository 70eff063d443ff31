//! Differential oracle for the NAT layer's load-bearing invariants.
//!
//! [`NatGateway`] answers inbound-filtering queries from each host's own
//! [`HostBindings`]: a list sorted by remote id that drops expired entries only when it
//! would otherwise grow, and that a reboot empties by bumping the gateway's epoch rather
//! than by touching the list. Both are sound only because "expiry is monotone in the
//! refresh time" and because a list from an older epoch answers as an empty one. The
//! first test drives seeded random traces through one gateway with three hosts and
//! through a deliberately naive model — one `Vec` of entries for the whole gateway, a
//! linear scan and a timestamp comparison on every lookup, nothing sorted, nothing
//! dropped, a reboot that clears the `Vec` — and demands identical verdicts after every
//! step.
//!
//! Address-dependent filtering additionally relies on [`NatTopology`] never handing an
//! address to a second owner; the second test pins that over random topology dynamics.
//!
//! The third and fourth tests are the oracle for [`NatTopology`]'s `judge_batch`
//! override, which judges a batch per host-slot range on worker threads: a twin driven
//! message by message through `on_send`/`can_deliver` must return the same verdicts and
//! end in the same state, for every worker count — also when one gateway fronts hosts
//! in every worker's range and reboots between two batches.
//!
//! What the traces hold fixed, because the gateway's contract does: the clock queries
//! and reboots read is monotone (only outbound packets may carry an older timestamp,
//! which `record_outbound` documents as never shortening a mapping), and the mapping
//! timeout survives reconfiguration. A remote may change its address mid-trace: the
//! binding then names the new one only, in the model as in the gateway.

use std::collections::HashMap;

use croupier_nat::GatewayId;
use croupier_nat::{
    FilteringPolicy, HostBindings, Ip, NatDynamicsEvent, NatGateway, NatGatewayConfig, NatTopology,
    NatTopologyBuilder,
};
use croupier_simulator::{
    BatchLink, DeliveryFilter, DeliveryVerdict, NatClass, NodeId, SimDuration, SimTime,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One row of the naive table: `internal` sent to `remote` (observed at `remote_ip`),
/// most recently at `last_outbound`.
struct Entry {
    internal: NodeId,
    remote: NodeId,
    remote_ip: Ip,
    last_outbound: SimTime,
}

struct NaiveGateway {
    config: NatGatewayConfig,
    entries: Vec<Entry>,
}

impl NaiveGateway {
    fn fresh(&self, refreshed: SimTime, now: SimTime) -> bool {
        now.saturating_since(refreshed) <= self.config.mapping_timeout
    }

    fn record_outbound(&mut self, internal: NodeId, remote: NodeId, remote_ip: Ip, now: SimTime) {
        let found = self
            .entries
            .iter_mut()
            .find(|e| e.internal == internal && e.remote == remote);
        match found {
            Some(entry) => {
                entry.remote_ip = remote_ip;
                entry.last_outbound = entry.last_outbound.max(now);
            }
            None => self.entries.push(Entry {
                internal,
                remote,
                remote_ip,
                last_outbound: now,
            }),
        }
    }

    fn accepts_inbound(&self, internal: NodeId, from: NodeId, from_ip: Ip, now: SimTime) -> bool {
        if self.config.upnp_enabled {
            return true;
        }
        self.entries.iter().any(|e| {
            e.internal == internal
                && self.fresh(e.last_outbound, now)
                && match self.config.filtering {
                    FilteringPolicy::EndpointIndependent => true,
                    FilteringPolicy::AddressDependent => e.remote_ip == from_ip,
                    FilteringPolicy::AddressAndPortDependent => e.remote == from,
                    policy => panic!("the model does not know filtering policy {policy}"),
                }
        })
    }
}

#[derive(Debug)]
enum Op {
    Outbound {
        internal: usize,
        remote: NodeId,
        at: SimTime,
    },
    Readdress {
        remote: usize,
        ip: Ip,
    },
    Reboot,
    SetFiltering(FilteringPolicy),
    SetConfig(NatGatewayConfig),
    RemoveInternal(usize),
}

const INTERNALS: [NodeId; 3] = [NodeId::new(1), NodeId::new(2), NodeId::new(3)];
const REMOTES: [NodeId; 5] = [
    NodeId::new(10),
    NodeId::new(11),
    NodeId::new(12),
    NodeId::new(13),
    NodeId::new(14),
];
const POOL: u8 = 3;
const TRACES: u64 = 240;
const STEPS: usize = 450;

/// Five remotes on three addresses to start with, so address-dependent policies see both
/// "same address, other node" and "other address"; `Readdress` moves one within 50–53.
fn first_ip_of(remote: NodeId) -> Ip {
    Ip::public(50 + (remote.as_u64() as u32 - 10) * 3 / 5)
}

fn pick<T: Copy>(rng: &mut SmallRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

fn random_config(rng: &mut SmallRng, timeout: SimDuration) -> NatGatewayConfig {
    NatGatewayConfig::with_filtering(pick(rng, &FilteringPolicy::ALL))
        .mapping_timeout(timeout)
        .pool(POOL)
        .hairpin(rng.gen_bool(0.5))
        .upnp(rng.gen_bool(0.1))
}

/// Draws the next operation. Every third trace never reboots, so its lists live on
/// through every drop of expired entries a full list makes.
fn random_op(rng: &mut SmallRng, housekeeping: bool, now: SimTime, timeout: SimDuration) -> Op {
    match rng.gen_range(0..100) {
        0..=2 => Op::Readdress {
            remote: rng.gen_range(0..REMOTES.len()),
            ip: Ip::public(rng.gen_range(50..54)),
        },
        3..=5 if housekeeping => Op::Reboot,
        6..=13 => Op::SetFiltering(pick(rng, &FilteringPolicy::ALL)),
        14..=18 => Op::SetConfig(random_config(rng, timeout)),
        19..=21 => Op::RemoveInternal(rng.gen_range(0..INTERNALS.len())),
        _ => {
            // One packet in five carries a timestamp from the past.
            let lag = if rng.gen_bool(0.2) {
                rng.gen_range(0..=2 * timeout.as_millis())
            } else {
                0
            };
            Op::Outbound {
                internal: rng.gen_range(0..INTERNALS.len()),
                remote: pick(rng, &REMOTES),
                at: SimTime::from_millis(now.as_millis().saturating_sub(lag)),
            }
        }
    }
}

#[test]
fn gateway_agrees_with_a_naive_table_walk_on_the_full_policy_grid() {
    for trace in 0..TRACES {
        let mut rng = SmallRng::seed_from_u64(0xD1FF ^ trace);
        // `trace % 3` decides housekeeping below, so the starting policy cycles on
        // `trace / 3`: every policy starts traces with and without it.
        let filtering = FilteringPolicy::ALL[trace as usize / 3 % FilteringPolicy::ALL.len()];
        let timeout = SimDuration::from_secs(pick(&mut rng, &[10, 30, 60]));
        let config = NatGatewayConfig::with_filtering(filtering)
            .mapping_timeout(timeout)
            .pool(POOL);
        let pool = (0..POOL as u32).map(|i| Ip::public(100 + i)).collect();
        let mut real = NatGateway::with_pool(pool, config);
        let mut hosts = INTERNALS.map(|_| HostBindings::default());
        let mut naive = NaiveGateway {
            config,
            entries: Vec::new(),
        };
        let mut addresses = REMOTES.map(first_ip_of);
        let ip_of = |addresses: &[Ip; 5], remote: NodeId| addresses[remote.as_u64() as usize - 10];
        let mut now = SimTime::ZERO;
        for step in 0..STEPS {
            // Mostly second-scale steps, now and then a leap past the timeout.
            let advance = if rng.gen_bool(0.03) {
                timeout.as_millis() + rng.gen_range(1..=timeout.as_millis())
            } else {
                rng.gen_range(0..=3_000)
            };
            now = now.saturating_add(SimDuration::from_millis(advance));
            let op = random_op(&mut rng, trace % 3 != 0, now, timeout);
            match op {
                Op::Outbound {
                    internal,
                    remote,
                    at,
                } => {
                    let ip = ip_of(&addresses, remote);
                    real.record_outbound(&mut hosts[internal], remote, ip, at);
                    naive.record_outbound(INTERNALS[internal], remote, ip, at);
                }
                Op::Readdress { remote, ip } => addresses[remote] = ip,
                Op::Reboot => {
                    real.reboot(now);
                    naive.entries.clear();
                }
                Op::SetFiltering(policy) => {
                    real.set_filtering(policy);
                    naive.config.filtering = policy;
                }
                Op::SetConfig(config) => {
                    real.set_config(config);
                    naive.config = config;
                }
                Op::RemoveInternal(internal) => {
                    hosts[internal] = HostBindings::default();
                    naive.entries.retain(|e| e.internal != INTERNALS[internal]);
                }
            }
            let context = |what: &str| {
                format!(
                    "{what}: trace {trace} step {step} at {now:?} after {op:?}, config {:?}",
                    naive.config
                )
            };
            for (host, internal) in hosts.iter().zip(INTERNALS) {
                for remote in REMOTES {
                    // The sender's own address and, as a stranger, its neighbour's.
                    let neighbour = REMOTES[(step + 1) % REMOTES.len()];
                    for from_ip in [ip_of(&addresses, remote), ip_of(&addresses, neighbour)] {
                        assert_eq!(
                            real.accepts_inbound(host, remote, from_ip, now),
                            naive.accepts_inbound(internal, remote, from_ip, now),
                            "{}",
                            context(&format!("verdict {internal}<-{remote}@{from_ip}"))
                        );
                    }
                }
            }
        }
    }
}

/// Who an address belongs to: a public node, or a gateway's pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Owner {
    Node(NodeId),
    Gateway(GatewayId),
}

#[test]
fn an_address_never_passes_to_a_second_owner() {
    for trace in 0..40u64 {
        let mut rng = SmallRng::seed_from_u64(0x1B ^ trace);
        let topology = NatTopologyBuilder::new(trace).build();
        let mut owners: HashMap<Ip, Owner> = HashMap::new();
        let mut next_id = 0u64;
        for step in 0..300u64 {
            let nodes = topology.node_ids();
            let node = match nodes.len() {
                0 => NodeId::new(0),
                len => nodes[rng.gen_range(0..len)],
            };
            match rng.gen_range(0..100) {
                0..=29 => {
                    let class = if rng.gen_bool(0.3) {
                        NatClass::Public
                    } else {
                        NatClass::Private
                    };
                    topology.add_node(NodeId::new(next_id), class);
                    next_id += 1;
                }
                30..=54 => {
                    topology.migrate_node(node);
                }
                55..=69 => {
                    topology.promote_to_public(node);
                }
                70..=84 => {
                    topology.demote_to_private(node);
                }
                85..=92 => topology.remove_node(node),
                _ => {
                    let event = NatDynamicsEvent::CgnConsolidation {
                        fraction: 0.3,
                        pool_size: rng.gen_range(1..=4),
                    };
                    let now = SimTime::from_secs(step);
                    topology.apply(&event, step, now, &mut rng);
                }
            }
            for node in topology.node_ids() {
                let ip = topology
                    .observed_ip(node)
                    .expect("live nodes have an address");
                let owner = match topology.gateway_of(node) {
                    Some(gateway) => Owner::Gateway(gateway),
                    None => Owner::Node(node),
                };
                let first = *owners.entry(ip).or_insert(owner);
                assert_eq!(
                    first, owner,
                    "trace {trace} step {step}: {ip} passed from {first:?} to {owner:?}"
                );
            }
        }
    }
}

/// Ids the batch traces draw endpoints from: 0–4 public, 5–16 private behind their own
/// gateways (policy mix), 17–20 behind a shared hairpinning gateway, 21–24 behind a
/// shared gateway that does not hairpin, 25 behind UPnP, 26–27 never registered.
const BATCH_IDS: u64 = 28;
const BATCH_TIMEOUT: SimDuration = SimDuration::from_secs(10);

fn batch_topology(seed: u64, rng: &mut SmallRng) -> (NatTopology, [GatewayId; 2]) {
    let topology = NatTopologyBuilder::new(seed)
        .filtering_mix(&FilteringPolicy::ALL.map(|policy| (policy, 1.0)))
        .mapping_timeout(BATCH_TIMEOUT)
        .build();
    for id in 0..17 {
        let class = if id < 5 {
            NatClass::Public
        } else {
            NatClass::Private
        };
        topology.add_node(NodeId::new(id), class);
    }
    let shared = [true, false].map(|hairpin| {
        let config = NatGatewayConfig::with_filtering(pick(rng, &FilteringPolicy::ALL))
            .mapping_timeout(BATCH_TIMEOUT)
            .pool(2)
            .hairpin(hairpin);
        topology.add_shared_gateway(config)
    });
    for id in 17..25 {
        assert!(topology.add_private_node_behind(NodeId::new(id), shared[(id > 20) as usize]));
    }
    topology.add_upnp_node(NodeId::new(25));
    (topology, shared)
}

/// One topology change between two batches, applied to both twins.
fn batch_dynamics(
    topology: &NatTopology,
    shared: [GatewayId; 2],
    now: SimTime,
    rng: &mut SmallRng,
) {
    let node = NodeId::new(rng.gen_range(0..BATCH_IDS));
    match rng.gen_range(0..100) {
        0..=19 => drop(topology.reboot_gateway_of(node, now)),
        20..=29 => drop(topology.migrate_node(node)),
        30..=37 => drop(topology.promote_to_public(node)),
        38..=45 => drop(topology.demote_to_private(node)),
        46..=63 => drop(topology.set_offline(node, !topology.is_offline(node))),
        64..=73 => drop(topology.set_filtering_of(node, pick(rng, &FilteringPolicy::ALL))),
        74..=83 => drop(topology.move_node_behind(node, pick(rng, &shared))),
        84..=86 => topology.remove_node(node),
        _ => {}
    }
}

fn random_batch(now: SimTime, rng: &mut SmallRng) -> Vec<BatchLink> {
    // Empty, fewer links than workers, and enough to fill a busy host's list several
    // times over a trace.
    let len = pick(rng, &[0, 1, 2, 9, 60, 400]);
    let mut links: Vec<BatchLink> = (0..len)
        .map(|_| {
            let sent_at = now + SimDuration::from_millis(rng.gen_range(0..1_000));
            let flight = if rng.gen_bool(0.05) {
                2 * BATCH_TIMEOUT.as_millis()
            } else {
                rng.gen_range(1..800)
            };
            BatchLink {
                from: NodeId::new(rng.gen_range(0..BATCH_IDS)),
                to: NodeId::new(rng.gen_range(0..BATCH_IDS)),
                sent_at,
                arrive_at: sent_at + SimDuration::from_millis(flight),
                wants_verdict: rng.gen_bool(0.9),
            }
        })
        .collect();
    // One link in twenty is a self-send: behind a hairpinning gateway its own `on_send`
    // is what opens the path its `can_deliver` asks about.
    for link in links.iter_mut().step_by(20) {
        link.to = link.from;
    }
    links.sort_by_key(|link| link.sent_at);
    links
}

#[test]
fn judge_batch_equals_the_per_message_sequence_for_every_worker_count() {
    let (mut hairpin_refusals, mut stale_bindings) = (0, 0);
    for trace in 0..10u64 {
        for workers in [1usize, 2, 3, 5, 64] {
            let mut rng = SmallRng::seed_from_u64(0xBA7C ^ trace);
            let (sequential, shared) = batch_topology(trace, &mut rng.clone());
            let (batched, _) = batch_topology(trace, &mut rng);
            let (mut one_by_one, mut in_batches) = (sequential.clone(), batched.clone());
            let mut verdicts = Vec::new();
            let mut now = SimTime::ZERO;
            for batch in 0..40 {
                let leap = if rng.gen_bool(0.05) { 25_000 } else { 1_000 };
                now += SimDuration::from_millis(leap);
                for _ in 0..rng.gen_range(0..4) {
                    batch_dynamics(&sequential, shared, now, &mut rng.clone());
                    batch_dynamics(&batched, shared, now, &mut rng);
                }
                let links = random_batch(now, &mut rng);
                let expected: Vec<DeliveryVerdict> = links
                    .iter()
                    .map(|link| {
                        one_by_one.on_send(link.from, link.to, link.sent_at);
                        if link.wants_verdict {
                            one_by_one.can_deliver(link.from, link.to, link.arrive_at)
                        } else {
                            DeliveryVerdict::Deliver
                        }
                    })
                    .collect();
                in_batches.judge_batch(&links, &mut verdicts, workers);
                let context = format!("trace {trace}, {workers} workers, batch {batch}");
                assert_eq!(verdicts, expected, "verdicts: {context}");
                assert_eq!(batched.stats(), sequential.stats(), "stats: {context}");
            }
            // Equal state, not just equal answers so far: every pair, now and later.
            for at in [now, now + BATCH_TIMEOUT] {
                for from in (0..BATCH_IDS).map(NodeId::new) {
                    for to in (0..BATCH_IDS).map(NodeId::new) {
                        assert_eq!(
                            in_batches.can_deliver(from, to, at),
                            one_by_one.can_deliver(from, to, at),
                            "probe {from}->{to} at {at:?}: trace {trace}, {workers} workers"
                        );
                    }
                }
            }
            assert_eq!(batched.stats(), sequential.stats());
            hairpin_refusals += batched.stats().hairpin_blocked;
            stale_bindings += batched.stats().stale_binding_failures;
        }
    }
    assert!(
        hairpin_refusals > 100 && stale_bindings > 100,
        "the traces must exercise both: {hairpin_refusals} / {stale_bindings}"
    );
}

/// The two cases the host-range split and the lazy reboot wipe must get right together:
/// one gateway fronting many hosts, whose slots the workers split between them, and a
/// reboot of that gateway between two batches, which each of its hosts must see
/// whichever worker owns it. Every batch opens with the late replies to the previous
/// batch's requests (they pass only if the bindings survived), then each host asks a
/// public node and one of its neighbours behind the gateway, and both answer.
#[test]
fn judge_batch_splits_a_shared_gateway_and_wipes_it_on_a_reboot() {
    const PUBLIC: u64 = 4;
    const HOSTS: u64 = 60;
    const REBOOT_BEFORE: u64 = 6;
    let build = |policy| {
        let topology = NatTopologyBuilder::new(3)
            .mapping_timeout(BATCH_TIMEOUT)
            .build();
        for id in 0..PUBLIC {
            topology.add_public_node(NodeId::new(id));
        }
        let config = NatGatewayConfig::with_filtering(policy)
            .mapping_timeout(BATCH_TIMEOUT)
            .pool(3);
        let shared = topology.add_shared_gateway(config);
        for id in PUBLIC..PUBLIC + HOSTS {
            assert!(topology.add_private_node_behind(NodeId::new(id), shared));
        }
        topology
    };
    let link = |from: u64, to: u64, sent_at: SimTime, flight: u64| BatchLink {
        from: NodeId::new(from),
        to: NodeId::new(to),
        sent_at,
        arrive_at: sent_at + SimDuration::from_millis(flight),
        wants_verdict: true,
    };
    for workers in [1usize, 2, 4] {
        for policy in FilteringPolicy::ALL {
            let (sequential, batched) = (build(policy), build(policy));
            let (mut one_by_one, mut in_batches) = (sequential.clone(), batched.clone());
            let mut rng = SmallRng::seed_from_u64(0x5EA7 ^ workers as u64);
            let (mut verdicts, mut late) = (Vec::new(), Vec::new());
            let mut delivered_after_reboot = 0;
            for batch in 0..12u64 {
                let now = SimTime::from_secs(batch + 1);
                if batch == REBOOT_BEFORE {
                    for topology in [&sequential, &batched] {
                        assert!(topology.reboot_gateway_of(NodeId::new(PUBLIC), now));
                    }
                }
                let mut links: Vec<BatchLink> = late
                    .drain(..)
                    .map(|(from, to)| link(from, to, now, rng.gen_range(1..50)))
                    .collect();
                for host in PUBLIC..PUBLIC + HOSTS {
                    let sent_at = now + SimDuration::from_millis(rng.gen_range(50..500));
                    let public = rng.gen_range(0..PUBLIC);
                    let neighbour = PUBLIC + (host - PUBLIC + rng.gen_range(1..HOSTS)) % HOSTS;
                    for to in [public, neighbour] {
                        links.push(link(host, to, sent_at, rng.gen_range(1..100)));
                        let answer_at = sent_at + SimDuration::from_millis(200);
                        links.push(link(to, host, answer_at, rng.gen_range(1..100)));
                        late.push((to, host));
                    }
                }
                links.sort_by_key(|link| link.sent_at);
                let expected: Vec<DeliveryVerdict> = links
                    .iter()
                    .map(|link| {
                        one_by_one.on_send(link.from, link.to, link.sent_at);
                        one_by_one.can_deliver(link.from, link.to, link.arrive_at)
                    })
                    .collect();
                in_batches.judge_batch(&links, &mut verdicts, workers);
                let context = format!("{policy}, {workers} workers, batch {batch}");
                assert_eq!(verdicts, expected, "verdicts: {context}");
                assert_eq!(batched.stats(), sequential.stats(), "stats: {context}");
                if batch >= REBOOT_BEFORE {
                    delivered_after_reboot += verdicts.iter().filter(|v| v.is_delivered()).count();
                }
            }
            let stats = batched.stats();
            assert!(
                stats.stale_binding_failures > HOSTS && delivered_after_reboot > 0,
                "{policy}, {workers} workers: the reboot must refuse late replies and the \
                 fresh requests must reopen the paths: {stats:?}"
            );
        }
    }
}
