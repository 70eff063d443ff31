//! NAT packet-filtering policies.
//!
//! The paper's NAT-type identification protocol distinguishes NATs by their filtering
//! behaviour (§V, citing the NATCracker classification of Roverso et al.). The emulation
//! implements the three standard policies of RFC 4787.

use std::fmt;

/// How a NAT filters inbound packets addressed to an existing mapping.
///
/// * [`EndpointIndependent`](FilteringPolicy::EndpointIndependent): once the internal host
///   has created a mapping by sending any packet, inbound packets from *any* remote endpoint
///   are accepted. This is the only policy under which the paper's `ForwardTest` reaches a
///   NATed node.
/// * [`AddressDependent`](FilteringPolicy::AddressDependent): inbound packets are accepted
///   only from remote *IP addresses* the internal host has previously sent to.
/// * [`AddressAndPortDependent`](FilteringPolicy::AddressAndPortDependent): inbound packets
///   are accepted only from remote *endpoints* (IP and port) the internal host has
///   previously sent to. The most restrictive and the most common policy in the wild.
///
/// The variants are declared from the most permissive to the most restrictive, so the
/// derived [`Ord`] orders them by strictness.
///
/// # Examples
///
/// ```
/// use croupier_nat::FilteringPolicy;
///
/// assert!(FilteringPolicy::AddressAndPortDependent > FilteringPolicy::EndpointIndependent);
/// ```
#[non_exhaustive]
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum FilteringPolicy {
    /// Accept inbound traffic from anyone once a mapping exists.
    EndpointIndependent,
    /// Accept inbound traffic only from previously-contacted IP addresses.
    AddressDependent,
    /// Accept inbound traffic only from previously-contacted (IP, port) endpoints.
    #[default]
    AddressAndPortDependent,
}

impl FilteringPolicy {
    /// All policies, from most permissive to most restrictive.
    pub const ALL: [FilteringPolicy; 3] = [
        FilteringPolicy::EndpointIndependent,
        FilteringPolicy::AddressDependent,
        FilteringPolicy::AddressAndPortDependent,
    ];
}

impl fmt::Display for FilteringPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FilteringPolicy::EndpointIndependent => "endpoint-independent",
            FilteringPolicy::AddressDependent => "address-dependent",
            FilteringPolicy::AddressAndPortDependent => "address-and-port-dependent",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strictness_is_a_total_order() {
        use FilteringPolicy::*;
        assert!(AddressDependent > EndpointIndependent);
        assert!(AddressAndPortDependent > AddressDependent);
        assert!(AddressAndPortDependent > EndpointIndependent);
        assert!(EndpointIndependent <= AddressDependent);
        assert!(EndpointIndependent <= EndpointIndependent);
    }

    #[test]
    fn only_endpoint_independent_accepts_unsolicited() {
        use crate::{Ip, NatGateway, NatGatewayConfig};
        use croupier_simulator::{NodeId, SimTime};
        let (inside, contacted, stranger) = (NodeId::new(1), NodeId::new(2), NodeId::new(3));
        for policy in FilteringPolicy::ALL {
            let mut gateway =
                NatGateway::new(Ip::public(1), NatGatewayConfig::with_filtering(policy));
            gateway.record_outbound(inside, contacted, Ip::public(2), SimTime::ZERO);
            let unsolicited =
                gateway.accepts_inbound(inside, stranger, Ip::public(3), SimTime::ZERO);
            assert_eq!(
                unsolicited,
                policy == FilteringPolicy::EndpointIndependent,
                "{policy}"
            );
        }
    }

    #[test]
    fn all_lists_every_variant_in_order() {
        use FilteringPolicy::*;
        assert_eq!(
            FilteringPolicy::ALL,
            [
                EndpointIndependent,
                AddressDependent,
                AddressAndPortDependent
            ]
        );
    }

    #[test]
    fn default_is_most_restrictive() {
        assert_eq!(
            FilteringPolicy::default(),
            FilteringPolicy::AddressAndPortDependent
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(
            FilteringPolicy::EndpointIndependent.to_string(),
            "endpoint-independent"
        );
    }
}
