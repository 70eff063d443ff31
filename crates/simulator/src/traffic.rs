//! Per-node traffic accounting.
//!
//! Every message handed to the engine is measured through the [`WireSize`](crate::WireSize)
//! trait and charged to both its sender and (if delivered) its receiver. The overhead
//! experiment (Fig. 7a of the paper) reads average bytes-per-second per connectivity class
//! out of this ledger.

use crate::fasthash::FastHashMap;
use crate::time::SimTime;
use crate::types::NodeId;

/// Cumulative traffic counters for one node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeTraffic {
    /// Bytes this node has put on the wire.
    pub bytes_sent: u64,
    /// Bytes delivered to this node.
    pub bytes_received: u64,
    /// Messages this node has put on the wire.
    pub messages_sent: u64,
    /// Messages delivered to this node.
    pub messages_received: u64,
    /// Messages this node sent that the network dropped (loss or NAT filtering).
    pub messages_dropped: u64,
}

impl NodeTraffic {
    /// Total bytes either sent or received by the node.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }
}

/// Workspace-wide traffic ledger indexed by node.
///
/// The map uses the deterministic [`FastHashMap`] — the ledger is charged once per send
/// and once per delivery, which makes its lookup cost part of the message-plane hot path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrafficLedger {
    per_node: FastHashMap<NodeId, NodeTraffic>,
    window_start: SimTime,
}

impl TrafficLedger {
    /// Creates an empty ledger whose measurement window starts at time zero.
    pub fn new() -> Self {
        TrafficLedger::default()
    }

    /// Records `bytes` sent by `node`.
    pub fn record_sent(&mut self, node: NodeId, bytes: usize) {
        let entry = self.per_node.entry(node).or_default();
        entry.bytes_sent += bytes as u64;
        entry.messages_sent += 1;
    }

    /// Records `bytes` delivered to `node`.
    pub fn record_received(&mut self, node: NodeId, bytes: usize) {
        let entry = self.per_node.entry(node).or_default();
        entry.bytes_received += bytes as u64;
        entry.messages_received += 1;
    }

    /// Records that a message sent by `node` was dropped before delivery.
    pub(crate) fn record_dropped(&mut self, node: NodeId) {
        self.per_node.entry(node).or_default().messages_dropped += 1;
    }

    /// Traffic counters for `node`, if it has ever sent or received anything.
    pub fn node(&self, node: NodeId) -> Option<&NodeTraffic> {
        self.per_node.get(&node)
    }

    /// Traffic counters for `node`, defaulting to zeroes.
    pub fn node_or_default(&self, node: NodeId) -> NodeTraffic {
        self.per_node.get(&node).copied().unwrap_or_default()
    }

    /// Iterates over every node with recorded traffic.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeTraffic)> {
        self.per_node.iter().map(|(id, t)| (*id, t))
    }

    /// Number of nodes with recorded traffic.
    pub fn len(&self) -> usize {
        self.per_node.len()
    }

    /// Returns `true` when no traffic has been recorded.
    pub fn is_empty(&self) -> bool {
        self.per_node.is_empty()
    }

    /// Clears all counters and restarts the measurement window at `now`.
    ///
    /// Overhead experiments call this once the overlay has reached steady state so that the
    /// reported bytes-per-second excludes the join phase.
    pub(crate) fn reset_window(&mut self, now: SimTime) {
        self.per_node.clear();
        self.window_start = now;
    }

    /// Adds every counter of `other` into this ledger.
    ///
    /// The sharded engine keeps one ledger per shard (plus one for barrier-side
    /// accounting) so workers never contend on a shared map; merging the per-shard ledgers
    /// yields the same per-node totals as a single shared ledger would, because every
    /// counter is a commutative sum.
    pub(crate) fn merge_from(&mut self, other: &TrafficLedger) {
        for (node, t) in other.iter() {
            let entry = self.per_node.entry(node).or_default();
            entry.bytes_sent += t.bytes_sent;
            entry.bytes_received += t.bytes_received;
            entry.messages_sent += t.messages_sent;
            entry.messages_received += t.messages_received;
            entry.messages_dropped += t.messages_dropped;
        }
    }

    /// Sum of bytes sent by every node.
    pub fn total_bytes_sent(&self) -> u64 {
        self.per_node.values().map(|t| t.bytes_sent).sum()
    }

    /// Sum of messages sent by every node.
    pub fn total_messages_sent(&self) -> u64 {
        self.per_node.values().map(|t| t.messages_sent).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TrafficLedger {
        /// Instant at which the current measurement window started.
        pub(crate) fn window_start(&self) -> SimTime {
            self.window_start
        }
    }

    #[test]
    fn records_sent_and_received_independently() {
        let mut ledger = TrafficLedger::new();
        ledger.record_sent(NodeId::new(1), 100);
        ledger.record_sent(NodeId::new(1), 50);
        ledger.record_received(NodeId::new(1), 30);
        let t = ledger.node(NodeId::new(1)).unwrap();
        assert_eq!(t.bytes_sent, 150);
        assert_eq!(t.bytes_received, 30);
        assert_eq!(t.messages_sent, 2);
        assert_eq!(t.messages_received, 1);
        assert_eq!(t.bytes_total(), 180);
    }

    #[test]
    fn unknown_node_defaults_to_zero() {
        let ledger = TrafficLedger::new();
        assert!(ledger.node(NodeId::new(9)).is_none());
        assert_eq!(
            ledger.node_or_default(NodeId::new(9)),
            NodeTraffic::default()
        );
    }

    #[test]
    fn reset_window_clears_counters_and_moves_origin() {
        let mut ledger = TrafficLedger::new();
        ledger.record_sent(NodeId::new(1), 10);
        ledger.reset_window(SimTime::from_secs(30));
        assert!(ledger.is_empty());
        assert_eq!(ledger.window_start(), SimTime::from_secs(30));
    }

    #[test]
    fn merge_from_sums_counters_per_node() {
        let mut a = TrafficLedger::new();
        a.record_sent(NodeId::new(1), 10);
        a.record_received(NodeId::new(2), 5);
        let mut b = TrafficLedger::new();
        b.record_sent(NodeId::new(1), 30);
        b.record_dropped(NodeId::new(1));
        b.record_sent(NodeId::new(3), 7);
        a.merge_from(&b);
        let n1 = a.node_or_default(NodeId::new(1));
        assert_eq!(n1.bytes_sent, 40);
        assert_eq!(n1.messages_sent, 2);
        assert_eq!(n1.messages_dropped, 1);
        assert_eq!(a.node_or_default(NodeId::new(2)).bytes_received, 5);
        assert_eq!(a.node_or_default(NodeId::new(3)).bytes_sent, 7);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn ledgers_with_same_counters_compare_equal() {
        let mut a = TrafficLedger::new();
        let mut b = TrafficLedger::new();
        a.record_sent(NodeId::new(1), 10);
        b.record_sent(NodeId::new(1), 10);
        assert_eq!(a, b);
        b.record_dropped(NodeId::new(1));
        assert_ne!(a, b);
    }

    #[test]
    fn totals_aggregate_across_nodes() {
        let mut ledger = TrafficLedger::new();
        ledger.record_sent(NodeId::new(1), 10);
        ledger.record_sent(NodeId::new(2), 20);
        ledger.record_dropped(NodeId::new(2));
        assert_eq!(ledger.total_bytes_sent(), 30);
        assert_eq!(ledger.total_messages_sent(), 2);
        assert_eq!(ledger.node_or_default(NodeId::new(2)).messages_dropped, 1);
        assert_eq!(ledger.len(), 2);
    }
}
