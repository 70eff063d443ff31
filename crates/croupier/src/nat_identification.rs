//! The distributed NAT-type identification protocol (§V, Algorithm 1 of the paper).
//!
//! A joining node determines whether it is *public* or *private* without a STUN server,
//! using three messages and the help of already-joined public nodes:
//!
//! 1. If the node's gateway answers UPnP IGD requests, it can map a public port and is
//!    immediately classified **public**.
//! 2. Otherwise the node sends a `MatchingIpTest` to a handful of public nodes obtained
//!    from the bootstrap server. Each recipient learns the source address it observed for
//!    the client and forwards it, inside a `ForwardTest`, to a *different* public node —
//!    one the client has **not** contacted (so no NAT binding towards it can exist).
//! 3. That second node sends a `ForwardResponse` carrying the observed address straight to
//!    the client. If the response arrives and the observed address equals the client's
//!    local address, the client is **public**; if it arrives but the addresses differ, the
//!    client sits behind an endpoint-independent-filtering NAT and is **private**; if it
//!    never arrives (the common case for address/port-dependent filtering or firewalls), a
//!    timeout classifies the client as **private**.

use std::fmt;
use std::sync::Arc;

use croupier_nat::{AddressInfo, Ip};
use croupier_simulator::{Context, NatClass, NodeId, Protocol, SimDuration, TimerKey, WireSize};
use serde::{Deserialize, Serialize};

use crate::messages::UDP_IP_HEADER_BYTES;

/// Timer key used for the client-side identification timeout.
const TIMEOUT_TIMER: TimerKey = TimerKey::new(0x4e41_5449);

/// Configuration of the identification protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NatIdentificationConfig {
    /// Number of public nodes probed in parallel (the protocol concludes on the first
    /// response; more probes improve robustness and latency).
    pub parallel_probes: usize,
    /// How long the client waits for a `ForwardResponse` before concluding it is private.
    pub timeout: SimDuration,
}

impl Default for NatIdentificationConfig {
    fn default() -> Self {
        NatIdentificationConfig {
            parallel_probes: 3,
            timeout: SimDuration::from_secs(5),
        }
    }
}

/// Messages of the identification protocol.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum NatIdMessage {
    /// Client → first public node: "what address do you see for me, and please have a node
    /// I did not contact send it back to me". Carries the set of public nodes the client is
    /// probing so the helper avoids choosing one of them as the forwarder.
    MatchingIpTest {
        /// The node under test.
        client: NodeId,
        /// Public nodes the client is probing (must not be chosen as forwarders).
        excluded: Vec<NodeId>,
    },
    /// First public node → second public node: forward the observed client address.
    ForwardTest {
        /// The node under test.
        client: NodeId,
        /// Source address the first public node observed for the client.
        client_observed_ip: Ip,
    },
    /// Second public node → client: the observed address, sent from an endpoint the client
    /// never contacted.
    ForwardResponse {
        /// Source address observed for the client by the first public node.
        observed_ip: Ip,
    },
}

impl WireSize for NatIdMessage {
    fn wire_size(&self) -> usize {
        let payload = match self {
            NatIdMessage::MatchingIpTest { excluded, .. } => 8 + 8 * excluded.len(),
            NatIdMessage::ForwardTest { .. } => 12,
            NatIdMessage::ForwardResponse { .. } => 4,
        };
        UDP_IP_HEADER_BYTES + payload
    }
}

/// Why a node reached its public/private conclusion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClassificationEvidence {
    /// The node's gateway supports UPnP IGD, so it can map a public port.
    UpnpMapping,
    /// A `ForwardResponse` arrived and the observed address matched the local address.
    MatchingAddress,
    /// A `ForwardResponse` arrived but the observed address differed (NATed, but with
    /// endpoint-independent filtering).
    MismatchedAddress,
    /// No `ForwardResponse` arrived before the timeout.
    Timeout,
}

impl fmt::Display for ClassificationEvidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            ClassificationEvidence::UpnpMapping => "UPnP port mapping available",
            ClassificationEvidence::MatchingAddress => "observed address matches local address",
            ClassificationEvidence::MismatchedAddress => {
                "observed address differs from local address"
            }
            ClassificationEvidence::Timeout => "no forward response before timeout",
        };
        f.write_str(text)
    }
}

/// A node participating in the NAT-type identification protocol.
///
/// Every node (public helpers and nodes under test alike) runs the same state machine; only
/// nodes created with [`NatIdentificationNode::new_client`] actively probe their own type.
pub struct NatIdentificationNode {
    id: NodeId,
    address_info: Arc<dyn AddressInfo + Send + Sync>,
    config: NatIdentificationConfig,
    is_client: bool,
    conclusion: Option<(NatClass, ClassificationEvidence)>,
    forwards_handled: u64,
}

impl fmt::Debug for NatIdentificationNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NatIdentificationNode")
            .field("id", &self.id)
            .field("is_client", &self.is_client)
            .field("conclusion", &self.conclusion)
            .finish()
    }
}

impl NatIdentificationNode {
    /// Creates a node that actively determines its own NAT type at start-up.
    pub fn new_client(
        id: NodeId,
        address_info: Arc<dyn AddressInfo + Send + Sync>,
        config: NatIdentificationConfig,
    ) -> Self {
        NatIdentificationNode {
            id,
            address_info,
            config,
            is_client: true,
            conclusion: None,
            forwards_handled: 0,
        }
    }

    /// Creates a helper node that only answers other nodes' probes (an already-joined
    /// public node).
    pub fn new_helper(id: NodeId, address_info: Arc<dyn AddressInfo + Send + Sync>) -> Self {
        NatIdentificationNode {
            id,
            address_info,
            config: NatIdentificationConfig::default(),
            is_client: false,
            conclusion: None,
            forwards_handled: 0,
        }
    }

    /// The node's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's conclusion about its own NAT type, once reached.
    pub fn conclusion(&self) -> Option<NatClass> {
        self.conclusion.map(|(class, _)| class)
    }

    /// The evidence behind the conclusion.
    pub fn evidence(&self) -> Option<ClassificationEvidence> {
        self.conclusion.map(|(_, evidence)| evidence)
    }

    /// Returns `true` once the node has classified itself.
    pub fn is_concluded(&self) -> bool {
        self.conclusion.is_some()
    }

    /// Number of `MatchingIpTest`/`ForwardTest` messages this node has serviced for others.
    pub fn forwards_handled(&self) -> u64 {
        self.forwards_handled
    }

    fn conclude(&mut self, class: NatClass, evidence: ClassificationEvidence) {
        if self.conclusion.is_none() {
            self.conclusion = Some((class, evidence));
        }
    }
}

impl Protocol for NatIdentificationNode {
    type Message = NatIdMessage;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
        if !self.is_client {
            return;
        }
        // UPnP IGD short-circuit (Algorithm 1, lines 4–5).
        if self.address_info.supports_upnp(self.id) {
            self.conclude(NatClass::Public, ClassificationEvidence::UpnpMapping);
            return;
        }
        let probes = ctx.bootstrap_sample(self.config.parallel_probes);
        for node in &probes {
            ctx.send(
                *node,
                NatIdMessage::MatchingIpTest {
                    client: self.id,
                    excluded: probes.clone(),
                },
            );
        }
        ctx.set_timer(self.config.timeout, TIMEOUT_TIMER);
    }

    fn on_round(&mut self, _ctx: &mut Context<'_, Self::Message>) {
        // The identification protocol is not round-based; nothing to do.
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Message,
        ctx: &mut Context<'_, Self::Message>,
    ) {
        match msg {
            NatIdMessage::MatchingIpTest { client, excluded } => {
                self.forwards_handled += 1;
                // A real deployment reads the source address off the UDP packet; the
                // emulation asks the address oracle for the same observable fact.
                let Some(observed) = self.address_info.observed_ip(client) else {
                    return;
                };
                // Pick a forwarder the client has not contacted: not the client, not one of
                // its probed nodes, not ourselves.
                let candidates = ctx.bootstrap_sample(excluded.len() + 4);
                let forwarder = candidates
                    .into_iter()
                    .find(|n| *n != client && *n != self.id && !excluded.contains(n));
                if let Some(forwarder) = forwarder {
                    ctx.send(
                        forwarder,
                        NatIdMessage::ForwardTest {
                            client,
                            client_observed_ip: observed,
                        },
                    );
                }
            }
            NatIdMessage::ForwardTest {
                client,
                client_observed_ip,
            } => {
                self.forwards_handled += 1;
                ctx.send(
                    client,
                    NatIdMessage::ForwardResponse {
                        observed_ip: client_observed_ip,
                    },
                );
            }
            NatIdMessage::ForwardResponse { observed_ip } => {
                let _ = from;
                if !self.is_client || self.is_concluded() {
                    return;
                }
                match self.address_info.local_ip(self.id) {
                    Some(local) if local == observed_ip => {
                        self.conclude(NatClass::Public, ClassificationEvidence::MatchingAddress)
                    }
                    _ => {
                        self.conclude(NatClass::Private, ClassificationEvidence::MismatchedAddress)
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, key: TimerKey, _ctx: &mut Context<'_, Self::Message>) {
        if key == TIMEOUT_TIMER && self.is_client && !self.is_concluded() {
            self.conclude(NatClass::Private, ClassificationEvidence::Timeout);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use croupier_nat::{FilteringPolicy, NatTopology, NatTopologyBuilder};
    use croupier_simulator::{Simulation, SimulationConfig, SimulationEngine};

    /// Builds a world with `n_helpers` established public nodes plus one client with the
    /// given profile, runs the protocol to completion and returns the client's conclusion.
    fn classify(profile: &str) -> (Option<NatClass>, Option<ClassificationEvidence>) {
        let topology: NatTopology = NatTopologyBuilder::new(11)
            .default_filtering(FilteringPolicy::AddressAndPortDependent)
            .build();
        let info: Arc<dyn AddressInfo + Send + Sync> = Arc::new(topology.clone());
        let mut sim = Simulation::new(SimulationConfig::default().with_seed(13));
        sim.set_delivery_filter(topology.clone());

        let n_helpers = 6u64;
        for i in 0..n_helpers {
            let id = NodeId::new(i);
            topology.add_public_node(id);
            sim.register_public(id);
            sim.add_node(id, NatIdentificationNode::new_helper(id, Arc::clone(&info)));
        }

        let client = NodeId::new(100);
        match profile {
            "public" => topology.add_public_node(client),
            "upnp" => topology.add_upnp_node(client),
            "private-ei" => topology.add_private_node_with(
                client,
                croupier_nat::NatGatewayConfig::with_filtering(
                    FilteringPolicy::EndpointIndependent,
                ),
            ),
            "private-apd" => topology.add_private_node_with(
                client,
                croupier_nat::NatGatewayConfig::with_filtering(
                    FilteringPolicy::AddressAndPortDependent,
                ),
            ),
            other => panic!("unknown profile {other}"),
        }
        sim.add_node(
            client,
            NatIdentificationNode::new_client(
                client,
                Arc::clone(&info),
                NatIdentificationConfig::default(),
            ),
        );
        sim.run_for(SimDuration::from_secs(10));
        let node = sim.node(client).unwrap();
        (node.conclusion(), node.evidence())
    }

    #[test]
    fn public_nodes_are_classified_public_via_matching_addresses() {
        let (class, evidence) = classify("public");
        assert_eq!(class, Some(NatClass::Public));
        assert_eq!(evidence, Some(ClassificationEvidence::MatchingAddress));
    }

    #[test]
    fn upnp_nodes_are_classified_public_without_any_messages() {
        let (class, evidence) = classify("upnp");
        assert_eq!(class, Some(NatClass::Public));
        assert_eq!(evidence, Some(ClassificationEvidence::UpnpMapping));
    }

    #[test]
    fn endpoint_independent_nats_are_detected_by_address_mismatch() {
        let (class, evidence) = classify("private-ei");
        assert_eq!(class, Some(NatClass::Private));
        assert_eq!(evidence, Some(ClassificationEvidence::MismatchedAddress));
    }

    #[test]
    fn port_dependent_nats_are_detected_by_timeout() {
        let (class, evidence) = classify("private-apd");
        assert_eq!(class, Some(NatClass::Private));
        assert_eq!(evidence, Some(ClassificationEvidence::Timeout));
    }

    #[test]
    fn protocol_costs_three_messages_per_successful_run() {
        // One MatchingIpTest per probe, but only the full chain of the fastest probe counts:
        // MatchingIpTest + ForwardTest + ForwardResponse = 3 messages on the decisive path.
        let topology = NatTopologyBuilder::new(3).build();
        let info: Arc<dyn AddressInfo + Send + Sync> = Arc::new(topology.clone());
        let mut sim = Simulation::new(SimulationConfig::default().with_seed(17));
        sim.set_delivery_filter(topology.clone());
        for i in 0..4u64 {
            let id = NodeId::new(i);
            topology.add_public_node(id);
            sim.register_public(id);
            sim.add_node(id, NatIdentificationNode::new_helper(id, Arc::clone(&info)));
        }
        let client = NodeId::new(50);
        topology.add_public_node(client);
        sim.add_node(
            client,
            NatIdentificationNode::new_client(
                client,
                Arc::clone(&info),
                NatIdentificationConfig {
                    parallel_probes: 1,
                    timeout: SimDuration::from_secs(5),
                },
            ),
        );
        sim.run_for(SimDuration::from_secs(10));
        assert_eq!(
            sim.node(client).unwrap().conclusion(),
            Some(NatClass::Public)
        );
        // With a single probe the whole run is exactly three messages.
        assert_eq!(sim.network_stats().delivered, 3);
    }

    #[test]
    fn client_without_helpers_times_out_to_private() {
        let topology = NatTopologyBuilder::new(5).build();
        let info: Arc<dyn AddressInfo + Send + Sync> = Arc::new(topology.clone());
        let mut sim = Simulation::new(SimulationConfig::default().with_seed(19));
        sim.set_delivery_filter(topology.clone());
        let client = NodeId::new(0);
        topology.add_public_node(client);
        sim.add_node(
            client,
            NatIdentificationNode::new_client(
                client,
                Arc::clone(&info),
                NatIdentificationConfig::default(),
            ),
        );
        sim.run_for(SimDuration::from_secs(10));
        let node = sim.node(client).unwrap();
        assert_eq!(node.conclusion(), Some(NatClass::Private));
        assert_eq!(node.evidence(), Some(ClassificationEvidence::Timeout));
    }

    #[test]
    fn wire_sizes_are_small() {
        let m = NatIdMessage::MatchingIpTest {
            client: NodeId::new(1),
            excluded: vec![NodeId::new(2), NodeId::new(3)],
        };
        assert!(m.wire_size() < 100);
        assert!(
            NatIdMessage::ForwardResponse {
                observed_ip: Ip::public(1)
            }
            .wire_size()
                < 50
        );
    }

    #[test]
    fn evidence_displays_human_readable_text() {
        assert!(ClassificationEvidence::UpnpMapping
            .to_string()
            .contains("UPnP"));
        assert!(ClassificationEvidence::Timeout
            .to_string()
            .contains("timeout"));
    }
}
