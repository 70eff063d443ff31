//! Runs the paper's distributed NAT-type identification protocol (§V, Algorithm 1) against
//! a variety of gateway configurations and prints each node's conclusion and the evidence
//! behind it — no STUN server involved.
//!
//! ```text
//! cargo run --example nat_identification
//! ```

use croupier::NatIdentificationNode;
use croupier_nat::{FilteringPolicy, NatGatewayConfig, NatTopologyBuilder};
use croupier_simulator::{NodeId, SimDuration, Simulation, SimulationConfig, SimulationEngine};

/// A named gateway profile: the label printed per row and the topology setup for the node
/// under test.
type GatewayProfile<'a> = (&'a str, Box<dyn Fn(NodeId) + 'a>);

fn main() {
    let topology = NatTopologyBuilder::new(7).build();
    let mut sim = Simulation::new(SimulationConfig::default().with_seed(7));
    sim.set_delivery_filter(topology.clone());

    // A handful of already-joined public nodes play the helper role.
    for i in 0..6u64 {
        let id = NodeId::new(i);
        topology.add_public_node(id);
        sim.register_public(id);
        sim.add_node(id, NatIdentificationNode::new_helper(id, topology.clone()));
    }

    // Nodes under test, one per gateway configuration of interest.
    let profiles: Vec<GatewayProfile<'_>> = vec![
        (
            "open internet (public IP)",
            Box::new(|id| topology.add_public_node(id)),
        ),
        (
            "UPnP-enabled NAT",
            Box::new(|id| topology.add_upnp_node(id)),
        ),
        (
            "NAT, endpoint-independent filtering",
            Box::new(|id| {
                topology.add_private_node_with(
                    id,
                    NatGatewayConfig::with_filtering(FilteringPolicy::EndpointIndependent),
                )
            }),
        ),
        (
            "NAT, address-dependent filtering",
            Box::new(|id| {
                topology.add_private_node_with(
                    id,
                    NatGatewayConfig::with_filtering(FilteringPolicy::AddressDependent),
                )
            }),
        ),
        (
            "NAT, address-and-port-dependent filtering",
            Box::new(|id| {
                topology.add_private_node_with(
                    id,
                    NatGatewayConfig::with_filtering(FilteringPolicy::AddressAndPortDependent),
                )
            }),
        ),
    ];

    let mut clients = Vec::new();
    for (index, (label, setup)) in profiles.iter().enumerate() {
        let id = NodeId::new(100 + index as u64);
        setup(id);
        sim.add_node(id, NatIdentificationNode::new_client(id, topology.clone()));
        clients.push((id, *label));
    }

    // Give every probe and timeout time to resolve.
    sim.run_for(SimDuration::from_secs(10));

    println!("{:<45} {:<10} evidence", "gateway configuration", "class");
    println!("{}", "-".repeat(90));
    for (id, label) in clients {
        let node = sim.node(id).expect("client exists");
        println!(
            "{label:<45} {:<10} {}",
            node.conclusion()
                .map(|c| c.to_string())
                .unwrap_or_else(|| "unknown".into()),
            node.evidence().map(|e| e.to_string()).unwrap_or_default(),
        );
    }
    println!(
        "\ntotal identification messages delivered: {}",
        sim.network_stats().delivered
    );
}
