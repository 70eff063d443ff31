//! Differential oracle for the NAT layer's two load-bearing invariants.
//!
//! [`NatGateway`] answers every inbound-filtering query in O(1) from *newest-binding*
//! indexes, which is sound only because "expiry is monotone in the refresh time" and
//! because the indexes are cleared or rebuilt wherever the exact table changes under
//! them. The first test drives seeded random traces through the gateway and through a
//! deliberately naive model — one `Vec` of entries, a linear scan and a timestamp
//! comparison on every lookup, no indexes, no purging — and demands identical verdicts
//! after every step.
//!
//! The address-dependent index additionally relies on [`NatTopology`] never handing an
//! address to a second owner; the second test pins that over random topology dynamics.
//!
//! The third test is the oracle for [`NatTopology`]'s `judge_batch` override, which
//! judges a batch per gateway range on worker threads: a twin driven message by message
//! through `on_send`/`can_deliver` must return the same verdicts and end in the same
//! state, for every worker count.
//!
//! What the traces hold fixed, because the gateway's contract does: a remote keeps its
//! address for a whole trace (re-addressing is the topology's business, test two), the
//! clock queries, purges and reboots read is monotone (only outbound packets may carry an
//! older timestamp, which `record_outbound` documents as never shortening a mapping), and
//! the mapping timeout survives reconfiguration.

use std::collections::HashMap;

use croupier_nat::topology::GatewayId;
use croupier_nat::{
    AddressInfo, FilteringPolicy, Ip, NatDynamicsEvent, NatGateway, NatGatewayConfig, NatTopology,
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
        internal: NodeId,
        remote: NodeId,
        at: SimTime,
    },
    Purge,
    Reboot,
    SetFiltering(FilteringPolicy),
    SetConfig(NatGatewayConfig),
    RemoveInternal(NodeId),
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

/// Five remotes on three addresses, so address-dependent policies see both "same address,
/// other node" and "other address".
fn ip_of(remote: NodeId) -> Ip {
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

/// Draws the next operation. Every third trace never purges or reboots, so the gateway's
/// own every-256-operations purge gets to fire against a model that never purges.
fn random_op(rng: &mut SmallRng, housekeeping: bool, now: SimTime, timeout: SimDuration) -> Op {
    match rng.gen_range(0..100) {
        0..=2 if housekeeping => Op::Purge,
        3..=5 if housekeeping => Op::Reboot,
        6..=13 => Op::SetFiltering(pick(rng, &FilteringPolicy::ALL)),
        14..=18 => Op::SetConfig(random_config(rng, timeout)),
        19..=21 => Op::RemoveInternal(pick(rng, &INTERNALS)),
        _ => {
            // One packet in five carries a timestamp from the past.
            let lag = if rng.gen_bool(0.2) {
                rng.gen_range(0..=2 * timeout.as_millis())
            } else {
                0
            };
            Op::Outbound {
                internal: pick(rng, &INTERNALS),
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
        let mut naive = NaiveGateway {
            config,
            entries: Vec::new(),
        };
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
                    real.record_outbound(internal, remote, ip_of(remote), at);
                    naive.record_outbound(internal, remote, ip_of(remote), at);
                }
                // Purging bounds memory and must never change an answer: the model
                // ignores it.
                Op::Purge => real.purge_expired(now),
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
                    real.remove_internal(internal);
                    naive.entries.retain(|e| e.internal != internal);
                }
            }
            let context = |what: &str| {
                format!(
                    "{what}: trace {trace} step {step} at {now:?} after {op:?}, config {:?}",
                    naive.config
                )
            };
            for internal in INTERNALS {
                for remote in REMOTES {
                    // The sender's own address and, as a stranger, its neighbour's.
                    for from_ip in [ip_of(remote), ip_of(REMOTES[(step + 1) % REMOTES.len()])] {
                        assert_eq!(
                            real.accepts_inbound(internal, remote, from_ip, now),
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
    // Empty, fewer links than workers, and enough to overflow the 256-operation purge
    // cadence of a busy gateway several times over a trace.
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
