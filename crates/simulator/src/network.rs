//! Reachability filtering for message delivery.
//!
//! The engine asks a [`DeliveryFilter`] two things for every message: it notifies the filter
//! when a packet leaves its sender (so NAT bindings can be created or refreshed) and asks
//! whether the packet can be delivered to its destination (so NAT filtering and firewall
//! rules can be enforced). The `croupier-nat` crate provides the NAT-aware implementation;
//! [`OpenInternet`] is the trivial filter used for NAT-free baselines such as Cyclon.

use crate::time::SimTime;
use crate::types::NodeId;

/// Outcome of a delivery decision, with the reason a message was blocked.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeliveryVerdict {
    /// The message reaches its destination.
    Deliver,
    /// The destination's NAT or firewall filtered the packet.
    BlockedByNat,
    /// The destination does not exist or has left the system.
    NoSuchDestination,
}

impl DeliveryVerdict {
    /// Returns `true` when the verdict allows delivery.
    pub fn is_delivered(self) -> bool {
        matches!(self, DeliveryVerdict::Deliver)
    }
}

/// One message of a round-barrier batch, as [`DeliveryFilter::judge_batch`] sees it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BatchLink {
    /// The sender.
    pub from: NodeId,
    /// The destination.
    pub to: NodeId,
    /// The send instant, which `on_send` hears.
    pub sent_at: SimTime,
    /// The delivery instant, which `can_deliver` is asked about.
    pub arrive_at: SimTime,
    /// `false` for a message that died before it reached the destination's side of the
    /// network (a fault-plane drop): it still leaves its sender, so `on_send` applies, but
    /// `can_deliver` is never asked and its verdict slot reads `Deliver`.
    pub wants_verdict: bool,
}

/// Decides whether messages can traverse the (possibly NAT-ed) network.
///
/// The event engine ([`Simulation`](crate::Simulation)) consults an implementation twice
/// per message, at two different instants:
///
/// 1. [`on_send`](DeliveryFilter::on_send) fires when a message leaves its sender — stateful
///    filters use this to create or refresh NAT bindings keyed on (sender, destination).
/// 2. [`can_deliver`](DeliveryFilter::can_deliver) fires when the message arrives at the
///    destination side of the network — filters decide whether the packet passes the
///    destination's NAT/firewall.
///
/// The sharded engine ([`ShardedSimulation`](crate::ShardedSimulation)) hands a whole
/// round barrier's messages to [`judge_batch`](DeliveryFilter::judge_batch) instead, whose
/// contract is that same pair of calls, message by message.
pub trait DeliveryFilter {
    /// Called when `from` emits a packet addressed to `to` at time `now`.
    fn on_send(&mut self, from: NodeId, to: NodeId, now: SimTime);

    /// Returns the delivery verdict for a packet from `from` arriving at `to` at `now`.
    fn can_deliver(&mut self, from: NodeId, to: NodeId, now: SimTime) -> DeliveryVerdict;

    /// Judges a whole batch: replaces the contents of `verdicts` with one verdict per link,
    /// in link order.
    ///
    /// The contract is this default body — for every link in order, `on_send` and then,
    /// if the link wants one, `can_deliver` — and an override must return the verdicts
    /// and leave the state that sequence would. What an override may exploit is that the
    /// batch is known up front: a filter whose state partitions (a NAT table belongs to
    /// one gateway) can judge the partitions on up to `workers` threads. `workers` only
    /// ever changes wall-clock time; `1` means "stay on the calling thread".
    fn judge_batch(
        &mut self,
        links: &[BatchLink],
        verdicts: &mut Vec<DeliveryVerdict>,
        workers: usize,
    ) {
        let _ = workers;
        verdicts.clear();
        verdicts.extend(links.iter().map(|link| {
            self.on_send(link.from, link.to, link.sent_at);
            if link.wants_verdict {
                self.can_deliver(link.from, link.to, link.arrive_at)
            } else {
                DeliveryVerdict::Deliver
            }
        }));
    }

    /// Called when a node permanently leaves the simulation (failure or churn departure).
    fn on_node_removed(&mut self, _node: NodeId) {}

    /// Called when a node joins the simulation.
    fn on_node_added(&mut self, _node: NodeId) {}
}

/// A filter that lets every packet through: the open Internet without NATs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpenInternet;

impl DeliveryFilter for OpenInternet {
    fn on_send(&mut self, _from: NodeId, _to: NodeId, _now: SimTime) {}

    fn can_deliver(&mut self, _from: NodeId, _to: NodeId, _now: SimTime) -> DeliveryVerdict {
        DeliveryVerdict::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_internet_always_delivers() {
        let mut f = OpenInternet;
        for i in 0..10 {
            f.on_send(NodeId::new(i), NodeId::new(i + 1), SimTime::from_millis(i));
            assert_eq!(
                f.can_deliver(NodeId::new(i), NodeId::new(i + 1), SimTime::from_millis(i)),
                DeliveryVerdict::Deliver
            );
        }
    }

    #[test]
    fn verdict_predicate() {
        assert!(DeliveryVerdict::Deliver.is_delivered());
        assert!(!DeliveryVerdict::BlockedByNat.is_delivered());
        assert!(!DeliveryVerdict::NoSuchDestination.is_delivered());
    }
}
