//! The common surface of the two execution engines.
//!
//! [`SimulationEngine`] abstracts over the event-driven [`Simulation`](crate::Simulation)
//! and the phase-parallel [`ShardedSimulation`](crate::ShardedSimulation) so that the
//! experiment driver and the metrics crate can run any protocol on either engine without
//! special-casing. The trait deliberately exposes *snapshot*-style accessors (owned
//! [`TrafficLedger`], callback-based node iteration) because the sharded engine keeps its
//! state split across shards and has no single borrow to hand out.
//!
//! This trait is the *driver-facing* half of the engine seam. The *protocol-facing* half
//! is [`Context`](crate::Context): both engines hand every protocol callback the same
//! concrete effect collector, so protocol crates depend on neither engine type. See
//! DESIGN.md §13 for the seam's determinism argument.

use crate::engine::{NetworkStats, SimulationConfig};
use crate::faults::{FaultPlane, FaultReport};
use crate::latency::LatencyModel;
use crate::network::DeliveryFilter;
use crate::protocol::{Protocol, PssNode};
use crate::time::{SimDuration, SimTime};
use crate::traffic::TrafficLedger;
use crate::types::NodeId;

/// A callback invoked by an engine at every gossip-round barrier.
///
/// Round barriers are the instants `n * round_period` (`n >= 1`). Both engines guarantee
/// the same observation point: when the hook runs, every event scheduled *strictly
/// before* the barrier instant has executed and no event scheduled *at or after* it has.
/// In the sharded engine the hook additionally runs after the barrier's canonical
/// cross-shard merge, and always on the coordinating thread — so a hook that mutates
/// shared state (the scripted NAT-dynamics executor mutating the `NatTopology` behind the
/// delivery filter) observes and produces the same state for any worker-thread count,
/// preserving the engine's bit-identity guarantee.
///
/// Hooks fire only for barriers after their installation; installing a hook mid-run never
/// replays past rounds.
pub trait RoundHook {
    /// Called at the barrier that closes gossip round `round` (1-based), i.e. at virtual
    /// time `now = round * round_period`.
    fn on_round_barrier(&mut self, round: u64, now: SimTime);

    /// Like [`on_round_barrier`](Self::on_round_barrier), but handed a [`HookOps`] view of
    /// the invoking engine, so the hook can drive application-level traffic (peer-sample
    /// draws, transfer accounting) through the engine it rides on. Both engines call this
    /// entry point; the default implementation ignores `ops` and forwards to
    /// [`on_round_barrier`](Self::on_round_barrier), so existing hooks are unaffected.
    ///
    /// Hooks that override this method and draw samples must be installed via
    /// [`SimulationEngine::set_sampled_round_hook`]; a hook installed with the plain
    /// [`SimulationEngine::set_round_hook`] sees [`HookOps::draw_sample`] return `None`
    /// (the engine has no sampling rule captured for it).
    fn on_round_barrier_with(&mut self, round: u64, now: SimTime, ops: &mut dyn HookOps) {
        let _ = ops;
        self.on_round_barrier(round, now);
    }
}

/// The engine services a [`RoundHook`] may use at a barrier, independent of the concrete
/// engine type (both [`Simulation`](crate::Simulation) and
/// [`ShardedSimulation`](crate::ShardedSimulation) implement it).
///
/// Every method runs on the coordinating thread at the barrier instant, after the
/// barrier's canonical merge — the same synchronisation point as the hook itself — so a
/// hook that only calls these methods observes identical state for any worker-thread
/// count. [`draw_sample`](Self::draw_sample) consumes the *target node's own* RNG stream
/// (the one its protocol callbacks use), which both engines keep canonically positioned
/// across thread counts; a hook draw therefore advances the same stream by the same
/// amount on every configuration, preserving bit-identity.
pub trait HookOps {
    /// Draws a peer sample from `node` via its protocol's sampling rule and its own RNG
    /// stream. Returns `None` when the node is dead, its view is empty, or the hook was
    /// installed without a sampling rule (plain
    /// [`set_round_hook`](SimulationEngine::set_round_hook)).
    fn draw_sample(&mut self, node: NodeId) -> Option<NodeId>;

    /// Returns `true` if `node` is currently alive.
    fn is_live(&self, node: NodeId) -> bool;

    /// Appends the ids of all live nodes to `out` in ascending id order (`out` is not
    /// cleared first).
    fn live_node_ids_into(&self, out: &mut Vec<NodeId>);

    /// Records an application-level transfer of `bytes` from `from` to `to` in the
    /// engine's traffic ledger (sender and receiver sides), so workload traffic shows up
    /// in [`SimulationEngine::traffic_snapshot`] next to protocol traffic.
    fn record_transfer(&mut self, from: NodeId, to: NodeId, bytes: usize);

    /// Records an application-level send by `from` that was blocked before delivery
    /// (NAT-filtered or fault-dropped) in the engine's traffic ledger.
    fn record_blocked(&mut self, from: NodeId);
}

/// A [`RoundHook`] that forwards each barrier to an ordered list of child hooks, so a run
/// can compose (say) a scripted NAT-dynamics executor with a dissemination workload: the
/// children fire in push order at every barrier, which keeps the composition
/// deterministic.
#[derive(Default)]
pub struct CompositeRoundHook {
    hooks: Vec<Box<dyn RoundHook>>,
}

impl CompositeRoundHook {
    /// Creates an empty composite.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `hook`; at each barrier it runs after every previously pushed hook.
    pub fn push(&mut self, hook: Box<dyn RoundHook>) {
        self.hooks.push(hook);
    }

    /// Builder-style [`push`](Self::push).
    #[must_use]
    pub fn with(mut self, hook: Box<dyn RoundHook>) -> Self {
        self.push(hook);
        self
    }

    /// Number of child hooks.
    pub fn len(&self) -> usize {
        self.hooks.len()
    }

    /// Returns `true` when no child hooks are installed.
    pub fn is_empty(&self) -> bool {
        self.hooks.is_empty()
    }
}

impl RoundHook for CompositeRoundHook {
    fn on_round_barrier(&mut self, round: u64, now: SimTime) {
        for hook in &mut self.hooks {
            hook.on_round_barrier(round, now);
        }
    }

    fn on_round_barrier_with(&mut self, round: u64, now: SimTime, ops: &mut dyn HookOps) {
        for hook in &mut self.hooks {
            hook.on_round_barrier_with(round, now, ops);
        }
    }
}

/// An execution engine that can drive [`Protocol`] state machines.
pub trait SimulationEngine<P: Protocol> {
    /// Creates an engine with the given configuration and the default network models.
    fn from_config(cfg: SimulationConfig) -> Self
    where
        Self: Sized;

    /// Replaces the latency model. `Send + Sync` is required because the sharded engine
    /// samples latencies from its worker threads.
    fn set_latency_model<L: LatencyModel + Send + Sync + 'static>(&mut self, model: L);

    /// Replaces the delivery filter (NAT/firewall emulation). Both engines consult the
    /// filter from the coordinating thread only, so `Send`/`Sync` are not needed.
    fn set_delivery_filter<D: DeliveryFilter + 'static>(&mut self, filter: D);

    /// Installs a [`RoundHook`] invoked at every future round barrier. Replaces any
    /// previously installed hook. Like the delivery filter, the hook runs on the
    /// coordinating thread only.
    fn set_round_hook(&mut self, hook: Box<dyn RoundHook>);

    /// Installs a [`RoundHook`] like [`set_round_hook`](Self::set_round_hook), but also
    /// captures the protocol's peer-sampling rule so the hook's
    /// [`HookOps::draw_sample`] calls work. Use this for hooks that override
    /// [`RoundHook::on_round_barrier_with`] and generate application traffic (the
    /// dissemination workload engine); plain scripted hooks can keep the cheaper
    /// [`set_round_hook`](Self::set_round_hook).
    fn set_sampled_round_hook(&mut self, hook: Box<dyn RoundHook>)
    where
        P: PssNode;

    /// Installs a [`FaultPlane`] on the delivery path. Both engines judge messages
    /// against the plane on the coordinating thread, in canonical message order, so
    /// injected faults preserve the engines' determinism guarantees.
    fn set_fault_plane(&mut self, plane: FaultPlane);

    /// The fault plane's injection counters ([`FaultReport::default`] when no plane is
    /// installed).
    fn fault_report(&self) -> FaultReport;

    /// The engine configuration.
    fn config(&self) -> &SimulationConfig;

    /// Current simulated time.
    fn now(&self) -> SimTime;

    /// Number of live nodes.
    fn len(&self) -> usize;

    /// Returns `true` when the engine holds no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if `node` is currently alive.
    fn contains(&self, node: NodeId) -> bool;

    /// Registers `node` with the bootstrap server.
    fn register_public(&mut self, node: NodeId);

    /// Adds a node running `proto`.
    fn add_node(&mut self, id: NodeId, proto: P);

    /// Removes a node, returning its protocol state.
    fn remove_node(&mut self, id: NodeId) -> Option<P>;

    /// Runs the simulation until the virtual clock reaches `deadline`.
    fn run_until(&mut self, deadline: SimTime);

    /// Runs the simulation for `span` of virtual time from the current instant.
    fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now() + span;
        self.run_until(deadline);
    }

    /// Runs the simulation for `rounds` gossip periods from the current instant.
    fn run_for_rounds(&mut self, rounds: u64) {
        self.run_for(self.config().round_period.saturating_mul(rounds));
    }

    /// Invokes `f` once per live node, in ascending node-id order within each storage
    /// stripe (the exact global order is unspecified; callers needing a canonical order
    /// sort what they collect, as [`OverlaySnapshot`] does).
    ///
    /// [`OverlaySnapshot`]: https://docs.rs/croupier-metrics
    fn for_each_node(&self, f: &mut dyn FnMut(NodeId, &P));

    /// Exclusive upper bound on the raw ids of live nodes: every live node's id is
    /// strictly below this value, and the bound only grows over the engine's lifetime.
    ///
    /// This is the dense-index capture path: both engines store node state in
    /// [`NodeArena`](crate::arena::NodeArena) stripes addressed by the raw id, so the
    /// bound is simply the arena's slot count (times the stripe count for the sharded
    /// engine). Snapshot capture and the CSR metrics pipeline use it to size dense
    /// id-indexed side tables, turning every `NodeId → index` resolution into one array
    /// load instead of a hash or tree lookup per edge.
    fn node_id_upper_bound(&self) -> u64;

    /// Aggregated message delivery statistics.
    fn network_stats(&self) -> NetworkStats;

    /// A merged copy of the per-node traffic ledger.
    fn traffic_snapshot(&self) -> TrafficLedger;

    /// Merges the per-node traffic ledger into `out` (cleared first, map capacity
    /// retained). Callers that sample traffic repeatedly should keep one ledger alive and
    /// use this instead of [`traffic_snapshot`](Self::traffic_snapshot), which clones a
    /// fresh ledger per call; both engines override the default with an allocation-free
    /// merge.
    fn traffic_snapshot_into(&self, out: &mut TrafficLedger) {
        *out = self.traffic_snapshot();
    }

    /// Clears all traffic counters and restarts the measurement window at the current time.
    fn reset_traffic_window(&mut self);

    /// Draws a peer sample from `node` using the node's own random stream.
    fn draw_sample(&mut self, node: NodeId) -> Option<NodeId>
    where
        P: PssNode;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A do-nothing engine view, so hook composition is testable without an engine.
    struct NoOps;

    impl HookOps for NoOps {
        fn draw_sample(&mut self, _node: NodeId) -> Option<NodeId> {
            None
        }
        fn is_live(&self, _node: NodeId) -> bool {
            false
        }
        fn live_node_ids_into(&self, _out: &mut Vec<NodeId>) {}
        fn record_transfer(&mut self, _from: NodeId, _to: NodeId, _bytes: usize) {}
        fn record_blocked(&mut self, _from: NodeId) {}
    }

    /// Implements only the plain entry point, so the default `on_round_barrier_with`
    /// forwarding is under test too.
    struct Tag(u32, Rc<RefCell<Vec<u32>>>);

    impl RoundHook for Tag {
        fn on_round_barrier(&mut self, _round: u64, _now: SimTime) {
            self.1.borrow_mut().push(self.0);
        }
    }

    #[test]
    fn composite_fires_children_in_push_order_through_both_entry_points() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut composite = CompositeRoundHook::new()
            .with(Box::new(Tag(1, Rc::clone(&log))))
            .with(Box::new(Tag(2, Rc::clone(&log))));
        assert_eq!(composite.len(), 2);
        assert!(!composite.is_empty());
        composite.on_round_barrier(1, SimTime::from_secs(1));
        composite.on_round_barrier_with(2, SimTime::from_secs(2), &mut NoOps);
        assert_eq!(
            log.borrow().as_slice(),
            &[1, 2, 1, 2],
            "children must fire in push order from both entry points, with the \
             default _with implementation forwarding to the plain hook"
        );
    }

    #[test]
    fn an_empty_composite_is_inert() {
        let mut composite = CompositeRoundHook::new();
        assert!(composite.is_empty());
        assert_eq!(composite.len(), 0);
        composite.on_round_barrier_with(1, SimTime::from_secs(1), &mut NoOps);
    }
}
