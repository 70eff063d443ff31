//! Fundamental identifiers shared by every crate in the workspace.

use std::fmt;

/// Logical identity of a node participating in the simulation.
///
/// `NodeId` is a plain 64-bit integer wrapped in a newtype so that node identities cannot
/// accidentally be mixed up with other integer quantities (round numbers, ages, counters).
///
/// # Examples
///
/// ```
/// use croupier_simulator::NodeId;
///
/// let a = NodeId::new(3);
/// let b = NodeId::new(4);
/// assert!(a < b);
/// assert_eq!(a.as_u64(), 3);
/// assert_eq!(format!("{a}"), "n3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(u64);

impl NodeId {
    /// Creates a node identifier from its raw integer value.
    pub const fn new(raw: u64) -> Self {
        NodeId(raw)
    }

    /// Returns the raw integer value of this identifier.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(raw: u64) -> Self {
        NodeId(raw)
    }
}

impl From<NodeId> for u64 {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

/// Connectivity class of a node: either directly reachable (public) or behind a NAT or
/// firewall (private).
///
/// The paper's system model only distinguishes these two classes; the finer-grained NAT
/// behaviour (filtering policy, mapping timeouts, UPnP) lives in the `croupier-nat` crate
/// and collapses onto this classification through the NAT-type identification protocol.
///
/// # Examples
///
/// ```
/// use croupier_simulator::NatClass;
///
/// assert!(NatClass::Public.is_public());
/// assert!(!NatClass::Private.is_public());
/// assert_eq!(NatClass::Public.opposite(), NatClass::Private);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum NatClass {
    /// The node has a globally reachable address (open IP or UPnP-mapped port).
    #[default]
    Public,
    /// The node sits behind at least one NAT or firewall and cannot be contacted unless it
    /// initiated the exchange.
    Private,
}

impl NatClass {
    /// Returns `true` for [`NatClass::Public`].
    pub const fn is_public(self) -> bool {
        matches!(self, NatClass::Public)
    }

    /// Returns `true` for [`NatClass::Private`].
    pub const fn is_private(self) -> bool {
        matches!(self, NatClass::Private)
    }

    /// Returns the other class; handy in tests and when flipping scenarios.
    pub const fn opposite(self) -> Self {
        match self {
            NatClass::Public => NatClass::Private,
            NatClass::Private => NatClass::Public,
        }
    }
}

impl fmt::Display for NatClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NatClass::Public => write!(f, "public"),
            NatClass::Private => write!(f, "private"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn node_id_roundtrips_through_u64() {
        let id = NodeId::new(42);
        assert_eq!(u64::from(id), 42);
        assert_eq!(NodeId::from(42u64), id);
        assert_eq!(id.as_u64(), 42);
    }

    #[test]
    fn node_id_display_is_prefixed() {
        assert_eq!(NodeId::new(7).to_string(), "n7");
    }

    #[test]
    fn node_id_ordering_follows_raw_value() {
        let mut ids = vec![NodeId::new(5), NodeId::new(1), NodeId::new(3)];
        ids.sort();
        assert_eq!(ids, vec![NodeId::new(1), NodeId::new(3), NodeId::new(5)]);
    }

    #[test]
    fn node_id_hashes_distinctly() {
        let set: HashSet<NodeId> = (0..100).map(NodeId::new).collect();
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn nat_class_predicates() {
        assert!(NatClass::Public.is_public());
        assert!(!NatClass::Public.is_private());
        assert!(NatClass::Private.is_private());
        assert!(!NatClass::Private.is_public());
    }

    #[test]
    fn nat_class_opposite_is_involutive() {
        for class in [NatClass::Public, NatClass::Private] {
            assert_eq!(class.opposite().opposite(), class);
        }
    }

    #[test]
    fn nat_class_display() {
        assert_eq!(NatClass::Public.to_string(), "public");
        assert_eq!(NatClass::Private.to_string(), "private");
    }
}
