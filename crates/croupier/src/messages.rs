//! Croupier's wire messages and their size accounting.

use croupier_simulator::{NatClass, WireSize};
use serde::{Deserialize, Serialize};

use crate::descriptor::{DescriptorBatch, DESCRIPTOR_WIRE_BYTES};
use crate::estimator::{EstimateBatch, ESTIMATE_WIRE_BYTES};

/// Bytes charged per message for UDP and IPv4 headers (8 + 20).
pub const UDP_IP_HEADER_BYTES: usize = 28;

/// Bytes of fixed protocol framing per shuffle message (message type, sender class, vector
/// lengths).
const SHUFFLE_FRAMING_BYTES: usize = 6;

/// The state exchanged in a shuffle request or response: bounded random subsets of the
/// sender's public and private views plus a bounded set of piggy-backed ratio estimates.
///
/// All three lists are [`InlineVec`](croupier_simulator::InlineVec)s sized to the paper's
/// view-subset bounds, so filling, reading and clearing a default-config payload touches
/// no heap memory. The payload itself travels **boxed** inside [`CroupierMessage`]: the
/// inline lists make the struct ~380 bytes even with the bit-packed 8-byte
/// [`Descriptor`](crate::Descriptor)s and 16-byte
/// [`EstimateRecord`](crate::EstimateRecord)s (it was ~600 before packing), and shipping
/// that by value through the
/// engines' queues, outboxes and barrier sorts measurably dominated 100k-node rounds
/// (every move is a full-width memcpy). Boxing shrinks the on-queue message to two words;
/// the box itself is recycled through [`CroupierNode`](crate::CroupierNode)'s payload
/// pool — a croupier answers a request by rewriting the request's own box — so the
/// steady-state message plane still performs zero allocations.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ShufflePayload {
    /// Connectivity class of the sender (drives the receiver's hit counters).
    pub sender_class: NatClass,
    /// Subset of the sender's public view (plus the sender's own descriptor on requests
    /// from public nodes).
    pub public_descriptors: DescriptorBatch,
    /// Subset of the sender's private view (plus the sender's own descriptor on requests
    /// from private nodes).
    pub private_descriptors: DescriptorBatch,
    /// Piggy-backed ratio estimates (the sender's own estimate, if any, is included here
    /// with age zero).
    pub estimates: EstimateBatch,
}

impl ShufflePayload {
    /// Total number of descriptors carried.
    pub fn descriptor_count(&self) -> usize {
        self.public_descriptors.len() + self.private_descriptors.len()
    }

    /// Payload bytes excluding transport headers.
    pub fn payload_bytes(&self) -> usize {
        SHUFFLE_FRAMING_BYTES
            + self.descriptor_count() * DESCRIPTOR_WIRE_BYTES
            + self.estimates.len() * ESTIMATE_WIRE_BYTES
    }
}

/// The two message types of the Croupier protocol (Algorithm 2).
///
/// The payload is boxed so the enum stays two words wide on the event-plane hot paths;
/// see [`ShufflePayload`] for the pooling discipline that keeps the box allocation-free
/// in steady state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum CroupierMessage {
    /// A shuffle request, sent by any node to a croupier (public node).
    ShuffleRequest(Box<ShufflePayload>),
    /// A shuffle response, sent by a croupier back to the requester.
    ShuffleResponse(Box<ShufflePayload>),
}

impl CroupierMessage {
    /// The payload carried by either message type.
    pub fn payload(&self) -> &ShufflePayload {
        match self {
            CroupierMessage::ShuffleRequest(p) | CroupierMessage::ShuffleResponse(p) => p,
        }
    }

    /// Returns `true` for shuffle requests.
    pub fn is_request(&self) -> bool {
        matches!(self, CroupierMessage::ShuffleRequest(_))
    }
}

impl WireSize for CroupierMessage {
    fn wire_size(&self) -> usize {
        UDP_IP_HEADER_BYTES + self.payload().payload_bytes()
    }

    fn fault_mutate(&mut self, rng: &mut rand::rngs::SmallRng) {
        use crate::descriptor::Descriptor;
        use croupier_simulator::NodeId;
        use rand::Rng;
        let payload = match self {
            CroupierMessage::ShuffleRequest(p) | CroupierMessage::ShuffleResponse(p) => p.as_mut(),
        };
        match rng.gen_range(0..4u8) {
            // A truncated datagram decodes to shorter descriptor lists.
            0 => {
                let keep = rng.gen_range(0..=payload.public_descriptors.len());
                payload.public_descriptors.truncate(keep);
            }
            1 => {
                let keep = rng.gen_range(0..=payload.private_descriptors.len());
                payload.private_descriptors.truncate(keep);
                payload.estimates.clear();
            }
            // Bit flips scramble a descriptor into a bogus identity, class and age.
            2 => {
                let descriptors = payload.public_descriptors.as_mut_slice();
                if !descriptors.is_empty() {
                    let idx = rng.gen_range(0..descriptors.len());
                    let class = if rng.gen_bool(0.5) {
                        NatClass::Public
                    } else {
                        NatClass::Private
                    };
                    descriptors[idx] = Descriptor::with_age(
                        NodeId::new(rng.gen_range(0..1 << 20)),
                        class,
                        rng.gen_range(0..1 << 16),
                    );
                }
            }
            // A flipped class bit mis-states the sender's connectivity.
            _ => {
                payload.sender_class = match payload.sender_class {
                    NatClass::Public => NatClass::Private,
                    NatClass::Private => NatClass::Public,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::Descriptor;
    use crate::estimator::EstimateRecord;
    use croupier_simulator::NodeId;

    fn payload(n_pub: usize, n_priv: usize, n_est: usize) -> ShufflePayload {
        ShufflePayload {
            sender_class: NatClass::Public,
            public_descriptors: (0..n_pub as u64)
                .map(|i| Descriptor::new(NodeId::new(i), NatClass::Public))
                .collect(),
            private_descriptors: (0..n_priv as u64)
                .map(|i| Descriptor::new(NodeId::new(100 + i), NatClass::Private))
                .collect(),
            estimates: (0..n_est as u64)
                .map(|i| EstimateRecord::new(NodeId::new(200 + i), 0.2))
                .collect(),
        }
    }

    #[test]
    fn wire_size_matches_the_papers_accounting() {
        // 10 estimates at 5 bytes each add exactly 50 bytes of estimation overhead per
        // message, as stated in §VI of the paper.
        let with = CroupierMessage::ShuffleRequest(Box::new(payload(5, 5, 10)));
        let without = CroupierMessage::ShuffleRequest(Box::new(payload(5, 5, 0)));
        assert_eq!(with.wire_size() - without.wire_size(), 50);
    }

    #[test]
    fn wire_size_scales_with_descriptors() {
        let small = CroupierMessage::ShuffleResponse(Box::new(payload(1, 0, 0)));
        let large = CroupierMessage::ShuffleResponse(Box::new(payload(6, 0, 0)));
        assert_eq!(
            large.wire_size() - small.wire_size(),
            5 * DESCRIPTOR_WIRE_BYTES
        );
        assert!(small.wire_size() > UDP_IP_HEADER_BYTES);
    }

    #[test]
    fn packed_payload_stays_compact() {
        // The bit-packed descriptor (8 bytes) and estimate record (16 bytes) keep the
        // pooled payload under 450 bytes; the pre-packing layout was ~600. A regression
        // here silently doubles the per-message memcpy cost at the 1M-node tier.
        assert_eq!(std::mem::size_of::<crate::Descriptor>(), 8);
        assert_eq!(std::mem::size_of::<EstimateRecord>(), 16);
        assert!(
            std::mem::size_of::<ShufflePayload>() <= 450,
            "ShufflePayload grew to {} bytes",
            std::mem::size_of::<ShufflePayload>()
        );
        // Per-node state times the population is `peak_rss_mb` at 100k nodes and beyond.
        assert!(std::mem::size_of::<crate::CroupierNode>() <= 512);
    }

    #[test]
    fn payload_accessors() {
        let msg = CroupierMessage::ShuffleRequest(Box::new(payload(2, 3, 4)));
        assert!(msg.is_request());
        assert_eq!(msg.payload().descriptor_count(), 5);
        assert_eq!(msg.payload().estimates.len(), 4);
        let resp = CroupierMessage::ShuffleResponse(Box::new(payload(0, 0, 0)));
        assert!(!resp.is_request());
    }
}
