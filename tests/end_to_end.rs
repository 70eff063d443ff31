//! Full-stack integration test: nodes first classify themselves with the distributed
//! NAT-type identification protocol (§V of the paper), then join the Croupier peer-sampling
//! service with the class the protocol determined — exactly the deployment flow the paper
//! describes.

use croupier_suite::croupier::{CroupierConfig, CroupierNode, NatIdentificationNode};
use croupier_suite::nat::{FilteringPolicy, NatTopologyBuilder};
use croupier_suite::simulator::SimulationEngine;
use croupier_suite::simulator::{
    NatClass, NodeId, PssNode, SimDuration, Simulation, SimulationConfig,
};

const N_PUBLIC: u64 = 10;
const N_PRIVATE: u64 = 40;
const N_UPNP: u64 = 5;

#[test]
fn nat_identification_then_peer_sampling() {
    // ---- Phase 1: build the NAT topology and classify every node with Algorithm 1. ----
    let topology = NatTopologyBuilder::new(0xE2E)
        .filtering_mix(&[
            (FilteringPolicy::EndpointIndependent, 0.3),
            (FilteringPolicy::AddressDependent, 0.2),
            (FilteringPolicy::AddressAndPortDependent, 0.5),
        ])
        .build();

    let mut ident_sim = Simulation::new(SimulationConfig::default().with_seed(0xE2E));
    ident_sim.set_delivery_filter(topology.clone());

    let total = N_PUBLIC + N_PRIVATE + N_UPNP;
    for i in 0..total {
        let id = NodeId::new(i);
        if i < N_PUBLIC {
            topology.add_public_node(id);
        } else if i < N_PUBLIC + N_PRIVATE {
            topology.add_private_node(id);
        } else {
            topology.add_upnp_node(id);
        }
    }
    // Seed the bootstrap server with a few long-lived public nodes (as a deployment would),
    // then let everyone run the identification protocol.
    for i in 0..N_PUBLIC {
        ident_sim.register_public(NodeId::new(i));
    }
    for i in 0..total {
        let id = NodeId::new(i);
        ident_sim.add_node(id, NatIdentificationNode::new_client(id, topology.clone()));
    }
    ident_sim.run_for(SimDuration::from_secs(15));

    // Every node reaches a conclusion, and the conclusion matches the topology's effective
    // class (UPnP nodes count as public).
    let mut classified = Vec::new();
    for i in 0..total {
        let id = NodeId::new(i);
        let node = ident_sim.node(id).expect("node exists");
        let conclusion = node.conclusion().expect("identification must conclude");
        assert_eq!(
            conclusion,
            topology.class_of(id).expect("class known"),
            "node {id} misclassified itself"
        );
        classified.push((id, conclusion));
    }

    // ---- Phase 2: run Croupier with the classes the nodes determined themselves. ----
    let mut pss_sim = Simulation::new(SimulationConfig::default().with_seed(0x9A9));
    pss_sim.set_delivery_filter(topology.clone());
    for (id, class) in &classified {
        if class.is_public() {
            pss_sim.register_public(*id);
        }
    }
    for (id, class) in &classified {
        pss_sim.add_node(
            *id,
            CroupierNode::new(*id, *class, CroupierConfig::default()),
        );
    }
    pss_sim.run_for_rounds(80);

    let true_ratio = classified.iter().filter(|(_, c)| c.is_public()).count() as f64 / total as f64;
    let mut worst_error: f64 = 0.0;
    let mut sampled_private = 0usize;
    for (id, _) in &classified {
        let estimate = pss_sim
            .node(*id)
            .unwrap()
            .ratio_estimate()
            .expect("every node estimates the ratio");
        worst_error = worst_error.max((estimate - true_ratio).abs());
        if let Some(sample) = pss_sim.sample_from(*id) {
            if pss_sim.node(sample).map(|n| n.nat_class()) == Some(NatClass::Private) {
                sampled_private += 1;
            }
        }
    }
    assert!(
        worst_error < 0.12,
        "worst ratio-estimation error after 80 rounds should be small, got {worst_error}"
    );
    assert!(
        sampled_private > 0,
        "private nodes must show up in peer samples despite sitting behind NATs"
    );
}
