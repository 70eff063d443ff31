//! Node descriptors: the entries of partial views.

use croupier_simulator::{InlineVec, NatClass, NodeId};

use crate::config::SHUFFLE_SIZE;

/// Serialized size of one descriptor on the wire, in bytes: a 6-byte address (IPv4 + port),
/// a 4-byte node identifier, one byte of NAT type and one byte of age. Matches the compact
/// encodings used in the paper's overhead accounting.
pub const DESCRIPTOR_WIRE_BYTES: usize = 12;

/// Capacity of [`DescriptorBatch`]: the longest descriptor list a shuffle produces, the
/// [`SHUFFLE_SIZE`] view descriptors plus the sender's own. A Croupier request carries
/// `ceil(SHUFFLE_SIZE / 2) + SHUFFLE_SIZE / 2 + 1` = 6 over its two lists, and one list can
/// receive all of them, as a corrupted descriptor can change class. The single-view
/// baselines ship at most `SHUFFLE_SIZE` (a request's `SHUFFLE_SIZE − 1` plus the
/// sender's own, or a reply's `SHUFFLE_SIZE`).
pub const DESCRIPTOR_INLINE_CAPACITY: usize = SHUFFLE_SIZE + 1;

/// A bounded descriptor list as carried in shuffle messages and exchange bookkeeping.
///
/// Backed by [`InlineVec`], so shuffle payloads live inline in the message and the
/// shuffle hot path performs no heap allocation (the `Vec`-based payloads this replaced
/// were the dominant allocation source per exchange). With the packed 8-byte
/// [`Descriptor`] a batch is 56 bytes: six descriptors and the length.
pub type DescriptorBatch = InlineVec<Descriptor, DESCRIPTOR_INLINE_CAPACITY>;

/// Number of low bits of the packed word holding the node identifier.
const NODE_BITS: u32 = 40;
/// Bit position of the NAT-class flag (`0` = public, `1` = private).
const CLASS_BIT: u32 = NODE_BITS;
/// Bit position where the age field starts.
const AGE_SHIFT: u32 = NODE_BITS + 1;
/// Mask selecting the node-identifier bits.
const NODE_MASK: u64 = (1 << NODE_BITS) - 1;

/// The largest age a descriptor can carry: ages occupy the top 23 bits of the packed
/// word and saturate here instead of wrapping. Runs are bounded by round counts orders of
/// magnitude below this, so saturation is unobservable in practice.
pub(crate) const AGE_MAX: u32 = (1 << (64 - AGE_SHIFT)) - 1;

/// A descriptor of a node as carried in partial views and shuffle messages.
///
/// A descriptor records the node's address (its [`NodeId`] in the simulation), its NAT
/// class, and a timestamp expressed as the number of gossip rounds since the descriptor was
/// created (its *age*). Fresh descriptors have age zero; ages increase by one per round and
/// drive both the tail selection policy and descriptor replacement on merge.
///
/// # Memory layout
///
/// The three fields are bit-packed into a single `u64` — node identifier in bits `0..40`,
/// NAT class in bit `40`, age in bits `41..64` — so a descriptor is 8 bytes instead of the
/// 12–16 a padded `(u64, enum, u32)` struct occupies. A [`crate::View`] of descriptors is
/// therefore a flat `u64` array, which is what lets million-node populations hold their
/// views (and the pooled shuffle payloads built from them) comfortably in memory. Other
/// crates read the fields through the [`node`](Descriptor::node) and
/// [`class`](Descriptor::class) accessors.
///
/// # Examples
///
/// ```
/// use croupier::Descriptor;
/// use croupier_simulator::{NatClass, NodeId};
///
/// let d = Descriptor::new(NodeId::new(3), NatClass::Private);
/// assert_eq!((d.node(), d.class()), (NodeId::new(3), NatClass::Private));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Descriptor(u64);

impl Descriptor {
    /// Creates a fresh descriptor (age zero).
    ///
    /// # Panics
    ///
    /// Panics if the node identifier does not fit the packed layout's 40 id bits (a
    /// trillion-node address space; simulation populations sit far below it).
    pub fn new(node: NodeId, class: NatClass) -> Self {
        Descriptor::with_age(node, class, 0)
    }

    /// Creates a descriptor with an explicit age; mostly useful in tests. Ages beyond
    /// `AGE_MAX` saturate, matching `grow_older`.
    ///
    /// # Panics
    ///
    /// Panics if the node identifier does not fit the packed layout's 40 id bits.
    pub fn with_age(node: NodeId, class: NatClass, age: u32) -> Self {
        let id = node.as_u64();
        assert!(
            id <= NODE_MASK,
            "node id {id} exceeds the descriptor's 40-bit address space"
        );
        let class_bit = match class {
            NatClass::Public => 0,
            NatClass::Private => 1u64 << CLASS_BIT,
        };
        let age = age.min(AGE_MAX) as u64;
        Descriptor(id | class_bit | (age << AGE_SHIFT))
    }

    /// The described node.
    pub const fn node(self) -> NodeId {
        NodeId::new(self.0 & NODE_MASK)
    }

    /// The described node's connectivity class.
    pub const fn class(self) -> NatClass {
        if self.0 & (1 << CLASS_BIT) == 0 {
            NatClass::Public
        } else {
            NatClass::Private
        }
    }

    /// Rounds elapsed since the descriptor was created by the described node.
    pub(crate) const fn age(self) -> u32 {
        (self.0 >> AGE_SHIFT) as u32
    }

    /// Increments the descriptor's age by one round (saturating at [`AGE_MAX`]).
    pub(crate) fn grow_older(&mut self) {
        if self.age() < AGE_MAX {
            self.0 += 1 << AGE_SHIFT;
        }
    }

    /// Returns `true` if `self` is strictly fresher (lower age) than `other`.
    pub(crate) fn is_newer_than(&self, other: &Descriptor) -> bool {
        self.age() < other.age()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_descriptors_are_fresh() {
        let d = Descriptor::new(NodeId::new(1), NatClass::Public);
        assert_eq!(d.age(), 0);
        assert_eq!(d.node(), NodeId::new(1));
        assert_eq!(d.class(), NatClass::Public);
    }

    #[test]
    fn packing_round_trips_all_fields() {
        let id = NodeId::new((1 << 40) - 1);
        for class in [NatClass::Public, NatClass::Private] {
            for age in [0, 1, 17, AGE_MAX] {
                let d = Descriptor::with_age(id, class, age);
                assert_eq!(d.node(), id);
                assert_eq!(d.class(), class);
                assert_eq!(d.age(), age);
            }
        }
    }

    #[test]
    fn packed_descriptor_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Descriptor>(), 8);
    }

    #[test]
    fn default_descriptor_is_node_zero_public_fresh() {
        let d = Descriptor::default();
        assert_eq!(d, Descriptor::new(NodeId::new(0), NatClass::Public));
    }

    #[test]
    #[should_panic(expected = "40-bit address space")]
    fn oversized_node_ids_are_rejected() {
        let _ = Descriptor::new(NodeId::new(1 << 40), NatClass::Public);
    }

    #[test]
    fn aging_saturates() {
        let mut d = Descriptor::with_age(NodeId::new(1), NatClass::Public, AGE_MAX - 1);
        d.grow_older();
        assert_eq!(d.age(), AGE_MAX);
        d.grow_older();
        assert_eq!(d.age(), AGE_MAX);
        let clamped = Descriptor::with_age(NodeId::new(1), NatClass::Public, u32::MAX);
        assert_eq!(clamped.age(), AGE_MAX);
    }

    #[test]
    fn freshness_comparison() {
        let old = Descriptor::with_age(NodeId::new(1), NatClass::Public, 5);
        let new = Descriptor::with_age(NodeId::new(1), NatClass::Public, 2);
        assert!(new.is_newer_than(&old));
        assert!(!old.is_newer_than(&new));
        assert!(!new.is_newer_than(&new));
    }

    #[test]
    fn wire_size_is_the_papers_compact_encoding() {
        assert_eq!(DESCRIPTOR_WIRE_BYTES, 12);
    }
}
