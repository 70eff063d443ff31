//! Workload descriptions: join schedules, churn, catastrophic failure, and scripted
//! NAT-dynamics scenarios.
//!
//! The scripted scenarios are the dynamic counterpart of the static `NatTopology`
//! bootstrap: a [`ScenarioScript`] is a deterministic, seeded timeline of NAT-environment
//! events — gateway reboots wiping binding tables, node mobility, NAT-profile
//! upgrades/downgrades, per-gateway filtering-policy shifts, flash-crowd join bursts and
//! correlated regional outages. A [`ScenarioExecutor`] applies the script through the
//! engines' [`RoundHook`] at round barriers, which keeps sharded runs bit-identical
//! across worker-thread counts (see `DESIGN.md` §11).

use croupier_nat::{FilteringPolicy, NatTopology};
use croupier_simulator::{FaultPlane, FaultProfile, NatClass, NodeId, RoundHook, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;

/// Continuous churn, as in §VII-B of the paper: every round a fixed fraction of randomly
/// selected nodes leaves and is immediately replaced by freshly initialised nodes of the
/// same class, keeping the public/private ratio stable.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnSpec {
    /// First round in which churn is applied.
    pub start_round: u64,
    /// Fraction of the population replaced per round (0.001 = 0.1 %).
    pub fraction_per_round: f64,
}

impl ChurnSpec {
    /// Creates a churn specification.
    ///
    /// # Panics
    ///
    /// Panics if `fraction_per_round` is not within `[0, 1]`.
    pub fn new(start_round: u64, fraction_per_round: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction_per_round),
            "churn fraction must be within [0, 1]"
        );
        ChurnSpec {
            start_round,
            fraction_per_round,
        }
    }
}

/// A node arrival: when it joins and with which connectivity class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinEvent {
    /// Join time.
    pub at: SimTime,
    /// Connectivity class of the joining node.
    pub class: NatClass,
}

/// A complete join schedule: a time-ordered list of [`JoinEvent`]s.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JoinSchedule {
    events: Vec<JoinEvent>,
}

impl JoinSchedule {
    /// Builds the paper's join workload: `n_public` public and `n_private` private nodes
    /// join concurrently, each class following a Poisson process with the given mean
    /// inter-arrival time in milliseconds (§VII-B uses 50 ms for public and 12.5 ms for
    /// private nodes).
    pub fn poisson(
        n_public: usize,
        public_interarrival_ms: f64,
        n_private: usize,
        private_interarrival_ms: f64,
        rng: &mut SmallRng,
    ) -> Self {
        let mut events = Vec::with_capacity(n_public + n_private);
        let mut clock = 0.0f64;
        for _ in 0..n_public {
            clock += exponential(public_interarrival_ms, rng);
            events.push(JoinEvent {
                at: SimTime::from_millis(clock.round() as u64),
                class: NatClass::Public,
            });
        }
        clock = 0.0;
        for _ in 0..n_private {
            clock += exponential(private_interarrival_ms, rng);
            events.push(JoinEvent {
                at: SimTime::from_millis(clock.round() as u64),
                class: NatClass::Private,
            });
        }
        events.sort_by_key(|e| e.at);
        JoinSchedule { events }
    }

    /// Appends a burst of `count` joins of `class`, evenly spaced by `interarrival_ms`
    /// starting at `start` — used by the dynamic-ratio experiment (Fig. 2), which adds a new
    /// public node every 42 ms once the system is stable.
    pub(crate) fn append_growth(
        &mut self,
        start: SimTime,
        count: usize,
        interarrival_ms: f64,
        class: NatClass,
    ) {
        for i in 0..count {
            let offset = (i as f64 * interarrival_ms).round() as u64;
            self.events.push(JoinEvent {
                at: SimTime::from_millis(start.as_millis() + offset),
                class,
            });
        }
        self.events.sort_by_key(|e| e.at);
    }

    /// Merges extra join events (e.g. a scripted flash crowd) into the schedule, keeping
    /// it time-ordered.
    pub fn extend(&mut self, events: impl IntoIterator<Item = JoinEvent>) {
        self.events.extend(events);
        self.events.sort_by_key(|e| e.at);
    }

    /// The scheduled events, in time order.
    pub fn events(&self) -> &[JoinEvent] {
        &self.events
    }

    /// Number of scheduled joins.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when no join is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Samples an exponentially distributed inter-arrival time with the given mean.
fn exponential(mean_ms: f64, rng: &mut SmallRng) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -mean_ms * u.ln()
}

// The event vocabulary lives in the nat crate, next to the topology it mutates
// (`NatTopology::apply` is the single event→mutation dispatcher); re-exported here so
// script authors keep importing everything scenario-related from one module.
pub use croupier_nat::{GatewayProfile, NatDynamicsEvent};

/// One scripted event: a change to the NAT environment or to the message-plane fault
/// injector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum ScriptedEvent {
    /// Mutates the topology through [`NatTopology::apply`].
    Nat(NatDynamicsEvent),
    /// Drives the engine's [`FaultPlane`].
    Fault(FaultEvent),
}

impl ScriptedEvent {
    fn is_fault(&self) -> bool {
        matches!(self, ScriptedEvent::Fault(_))
    }
}

/// A [`ScriptedEvent`] scheduled at a round barrier.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct ScenarioAction {
    /// The round barrier (1-based) at which the event applies.
    pub round: u64,
    /// The event.
    pub event: ScriptedEvent,
}

/// A scripted change to the message-plane fault injector — the network-quality
/// counterpart of the NAT-dynamics vocabulary. Fault events mutate the engine's
/// [`FaultPlane`] rather than the topology, so they model datagram-level pathologies
/// (loss, bursts, duplication, reordering, corruption) instead of reachability changes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// Replaces the plane's default profile, applied to every link from this barrier on.
    FaultProfileChange {
        /// The profile every delivery is judged against.
        profile: FaultProfile,
    },
    /// Degrades a random `fraction` of the population: every message *to or from* a
    /// selected node is judged against `profile` instead of the plane's default. Models
    /// congested access links and flaky last-mile gateways.
    LinkDegradation {
        /// Fraction of nodes whose links degrade (each node drawn independently).
        fraction: f64,
        /// The profile applied on degraded links.
        profile: FaultProfile,
    },
    /// Deactivates the plane: injection stops, counters and RNG position are kept.
    FaultClear,
}

/// A deterministic, seeded timeline of NAT-dynamics and fault-plane events.
///
/// Scripts are declarative data: building one performs no randomness and touches no
/// topology. All random choices (which gateways reboot, which nodes migrate) are drawn by
/// the [`ScenarioExecutor`] from a dedicated RNG stream at execution time, so a script is
/// reusable across seeds and scales.
///
/// # Examples
///
/// ```
/// use croupier_experiments::scenario::{FaultEvent, ScenarioScript};
/// use croupier_simulator::FaultProfile;
///
/// let script = ScenarioScript::new("lossy-spell")
///     .fault_at(10, FaultEvent::FaultProfileChange { profile: FaultProfile::lossy(0.1) })
///     .fault_at(15, FaultEvent::FaultProfileChange { profile: FaultProfile::default() });
/// assert_eq!(script.len(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScenarioScript {
    name: String,
    actions: Vec<ScenarioAction>,
}

impl ScenarioScript {
    /// Creates an empty script.
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioScript {
            name: name.into(),
            actions: Vec::new(),
        }
    }

    /// The script's name (used in report file names and figure legends).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds one action, keeping the list sorted by round and, within a round, NAT
    /// dynamics before fault actions, so a fault action draws its degraded links from the
    /// post-dynamics population. The sort is stable: same-kind actions of one round apply
    /// in insertion order.
    fn schedule(&mut self, round: u64, event: ScriptedEvent) {
        self.actions.push(ScenarioAction { round, event });
        self.actions.sort_by_key(|a| (a.round, a.event.is_fault()));
    }

    /// Schedules `event` at round barrier `round` (builder style). Same-round actions
    /// apply in insertion order, before the round's fault-plane actions.
    ///
    /// # Panics
    ///
    /// Panics if the event's parameters are out of range (see
    /// [`NatDynamicsEvent::validate`]).
    pub(crate) fn at(mut self, round: u64, event: NatDynamicsEvent) -> Self {
        event.validate();
        self.schedule(round, ScriptedEvent::Nat(event));
        self
    }

    /// Schedules a fault-plane `event` at round barrier `round` (builder style).
    /// Same-round actions apply in insertion order, after the round's NAT-dynamics
    /// actions.
    ///
    /// # Panics
    ///
    /// Panics if a [`LinkDegradation`](FaultEvent::LinkDegradation) fraction is outside
    /// `[0, 1]` or a profile carries an out-of-range probability.
    pub fn fault_at(mut self, round: u64, event: FaultEvent) -> Self {
        match &event {
            FaultEvent::FaultProfileChange { profile } => profile.validate(),
            FaultEvent::LinkDegradation { fraction, profile } => {
                assert!(
                    (0.0..=1.0).contains(fraction),
                    "link-degradation fraction must be within [0, 1], got {fraction}"
                );
                profile.validate();
            }
            FaultEvent::FaultClear => {}
        }
        self.schedule(round, ScriptedEvent::Fault(event));
        self
    }

    /// The scheduled actions, sorted by round; within a round NAT dynamics come before
    /// fault-plane actions.
    pub(crate) fn actions(&self) -> &[ScenarioAction] {
        &self.actions
    }

    /// Returns `true` when the script drives the fault plane — runners use this to pick
    /// the fault-tier recovery gate instead of the clean-network one.
    pub(crate) fn has_fault_actions(&self) -> bool {
        self.actions.iter().any(|a| a.event.is_fault())
    }

    /// A copy of this script with every fault action stripped (NAT dynamics kept): the
    /// no-fault control run the matrix Gini gate measures degradation against.
    pub(crate) fn without_faults(&self) -> Self {
        let mut script = self.clone();
        script.actions.retain(|a| !a.event.is_fault());
        script
    }

    /// Number of scheduled actions (NAT dynamics and fault plane combined).
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Returns `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Round of the first disruptive action, if any. Flash crowds add capacity rather
    /// than remove it and a [`FaultClear`](FaultEvent::FaultClear) restores a healthy
    /// network, so neither counts as a disruption for recovery detection.
    pub(crate) fn first_disruption_round(&self) -> Option<u64> {
        self.actions
            .iter()
            .find(|a| {
                !matches!(
                    a.event,
                    ScriptedEvent::Nat(NatDynamicsEvent::FlashCrowd { .. })
                        | ScriptedEvent::Fault(FaultEvent::FaultClear)
                )
            })
            .map(|a| a.round)
    }

    /// Round at which the last scripted regional outage has been restored (actions and
    /// restores included), or the last action round for scripts without outages. Runs
    /// should extend beyond this round for recovery to be observable.
    pub fn settled_round(&self) -> Option<u64> {
        self.actions
            .iter()
            .map(|a| match a.event {
                ScriptedEvent::Nat(NatDynamicsEvent::RegionalOutage { outage_rounds, .. }) => {
                    a.round + outage_rounds
                }
                _ => a.round,
            })
            .max()
    }

    /// Expands the script's [`FlashCrowd`](NatDynamicsEvent::FlashCrowd) actions into
    /// join events, spread evenly over the round following each action.
    /// `initial_population` anchors the growth fractions; `round_ms` is the gossip round
    /// period in milliseconds.
    pub fn flash_crowd_joins(&self, initial_population: usize, round_ms: u64) -> Vec<JoinEvent> {
        let mut events = Vec::new();
        for action in &self.actions {
            let ScriptedEvent::Nat(NatDynamicsEvent::FlashCrowd {
                growth,
                public_fraction,
            }) = action.event
            else {
                continue;
            };
            let count = ((initial_population as f64) * growth).round() as usize;
            if count == 0 {
                continue;
            }
            let n_public = ((count as f64) * public_fraction).round() as usize;
            let start = action.round.saturating_mul(round_ms);
            let step = (round_ms as f64) / (count as f64 + 1.0);
            // Clamp offsets to [1, round_ms - 1]: at very large counts the rounded step
            // degenerates to zero (first joiners would land on the action's own barrier)
            // and rounding can push the last joiners onto the *next* barrier — events at
            // a barrier instant belong to the following round in both engines, so either
            // edge would leak joins out of the documented window.
            let max_offset = round_ms.saturating_sub(1).max(1);
            for i in 0..count {
                let offset = (((i as f64 + 1.0) * step).round() as u64).clamp(1, max_offset);
                let at = SimTime::from_millis(start + offset);
                let class = if i < n_public {
                    NatClass::Public
                } else {
                    NatClass::Private
                };
                events.push(JoinEvent { at, class });
            }
        }
        events
    }
}

/// The canned scenario library behind [`run_matrix`](crate::matrix::run_matrix).
/// Disruptions land around the midpoint of a `rounds`-round run so every script leaves
/// room to recover.
impl ScenarioScript {
    /// Names of the scripts in the matrix order. The last three are the
    /// fault tier: they drive the engines' [`FaultPlane`] instead of the topology.
    pub const MATRIX_NAMES: [&'static str; 11] = [
        "reboot_storm",
        "mobility_wave",
        "nat_flux",
        "flash_crowd",
        "regional_outage",
        "croupier_stress",
        "symmetric_shift",
        "cgn_migration",
        "lossy_10",
        "burst_loss",
        "dup_reorder",
    ];

    fn mid(rounds: u64) -> u64 {
        (rounds / 2).max(1)
    }

    /// A reboot storm: every gateway power-cycles at once, and half of them again an
    /// eighth of the run later (modelled on the binding-wiping reboots of the zerotier
    /// NAT-emulation suite).
    pub fn reboot_storm(rounds: u64) -> Self {
        let mid = Self::mid(rounds);
        ScenarioScript::new("reboot_storm")
            .at(mid, NatDynamicsEvent::GatewayRebootStorm { fraction: 1.0 })
            .at(
                mid + (rounds / 8).max(1),
                NatDynamicsEvent::GatewayRebootStorm { fraction: 0.5 },
            )
    }

    /// Two waves of node mobility: 40 % of private nodes hop networks, twice.
    pub fn mobility_wave(rounds: u64) -> Self {
        let mid = Self::mid(rounds);
        ScenarioScript::new("mobility_wave")
            .at(mid, NatDynamicsEvent::MobilityWave { fraction: 0.4 })
            .at(
                mid + (rounds / 8).max(1),
                NatDynamicsEvent::MobilityWave { fraction: 0.4 },
            )
    }

    /// NAT-profile flux: a carrier-grade-NAT rollout demotes 30 % of the public nodes,
    /// an upgrade wave later promotes 30 % of the private ones, and the surviving
    /// gateways tighten to address-and-port-dependent filtering.
    pub(crate) fn nat_flux(rounds: u64) -> Self {
        let mid = Self::mid(rounds);
        let eighth = (rounds / 8).max(1);
        ScenarioScript::new("nat_flux")
            .at(mid, NatDynamicsEvent::ProfileDowngrade { fraction: 0.3 })
            .at(
                mid + eighth,
                NatDynamicsEvent::ProfileUpgrade { fraction: 0.3 },
            )
            .at(
                mid + 2 * eighth,
                NatDynamicsEvent::FilteringShift {
                    fraction: 1.0,
                    policy: FilteringPolicy::AddressAndPortDependent,
                },
            )
    }

    /// A flash crowd: half the initial population joins within one round, 20 % public.
    pub(crate) fn flash_crowd(rounds: u64) -> Self {
        ScenarioScript::new("flash_crowd").at(
            Self::mid(rounds),
            NatDynamicsEvent::FlashCrowd {
                growth: 0.5,
                public_fraction: 0.2,
            },
        )
    }

    /// A correlated regional outage: a quarter of the population (one of four id-striped
    /// regions) goes dark for a tenth of the run, then comes back.
    pub fn regional_outage(rounds: u64) -> Self {
        ScenarioScript::new("regional_outage").at(
            Self::mid(rounds),
            NatDynamicsEvent::RegionalOutage {
                region: 0,
                regions: 4,
                outage_rounds: (rounds / 10).max(2),
            },
        )
    }

    /// The combined stress used by the determinism gate: a reboot storm, a mobility wave
    /// two rounds later, and a regional outage on top.
    pub fn croupier_stress(rounds: u64) -> Self {
        let mid = Self::mid(rounds);
        ScenarioScript::new("croupier_stress")
            .at(mid, NatDynamicsEvent::GatewayRebootStorm { fraction: 0.75 })
            .at(mid + 2, NatDynamicsEvent::MobilityWave { fraction: 0.3 })
            .at(
                mid + (rounds / 8).max(1),
                NatDynamicsEvent::RegionalOutage {
                    region: 1,
                    regions: 4,
                    outage_rounds: (rounds / 10).max(2),
                },
            )
    }

    /// A firmware wave turning half the gateways "symmetric"
    /// ([`GatewayProfile::Symmetric`]: address-and-port-dependent filtering, no
    /// hairpinning), then a partial rollback to full-cone (endpoint-independent
    /// filtering, hairpinning on) an eighth of the run later — mid-run, a reply path opens
    /// only to the exact peer a node contacted.
    pub(crate) fn symmetric_shift(rounds: u64) -> Self {
        let mid = Self::mid(rounds);
        ScenarioScript::new("symmetric_shift")
            .at(
                mid,
                NatDynamicsEvent::GatewayReconfig {
                    fraction: 0.5,
                    profile: GatewayProfile::Symmetric,
                },
            )
            .at(
                mid + (rounds / 8).max(1),
                NatDynamicsEvent::GatewayReconfig {
                    fraction: 0.25,
                    profile: GatewayProfile::FullCone,
                },
            )
    }

    /// An ISP consolidation: 40 % of the private nodes are moved behind one shared
    /// carrier-grade NAT with a four-address pool (address-dependent filtering,
    /// hairpinning on so consolidated customers still reach each other).
    pub(crate) fn cgn_migration(rounds: u64) -> Self {
        ScenarioScript::new("cgn_migration").at(
            Self::mid(rounds),
            NatDynamicsEvent::CgnConsolidation {
                fraction: 0.4,
                pool_size: 4,
            },
        )
    }

    /// Uniform 10 % datagram loss from the midpoint, with a fifth of the population
    /// additionally degraded to 30 % loss (congested access links); the faults clear an
    /// eighth of the run later so recovery is observable.
    pub fn lossy_10(rounds: u64) -> Self {
        let mid = Self::mid(rounds);
        let clear = mid + (rounds / 8).max(2);
        ScenarioScript::new("lossy_10")
            .fault_at(
                mid,
                FaultEvent::FaultProfileChange {
                    profile: FaultProfile::lossy(0.10),
                },
            )
            .fault_at(
                mid,
                FaultEvent::LinkDegradation {
                    fraction: 0.2,
                    profile: FaultProfile::lossy(0.30),
                },
            )
            .fault_at(clear, FaultEvent::FaultClear)
    }

    /// Gilbert–Elliott correlated loss bursts from the midpoint (2 % good-state, 75 %
    /// bad-state loss), cleared an eighth of the run later — the correlated-loss stress
    /// that independent-drop models miss.
    pub fn burst_loss(rounds: u64) -> Self {
        let mid = Self::mid(rounds);
        let clear = mid + (rounds / 8).max(2);
        ScenarioScript::new("burst_loss")
            .fault_at(
                mid,
                FaultEvent::FaultProfileChange {
                    profile: FaultProfile::burst_loss(),
                },
            )
            .fault_at(clear, FaultEvent::FaultClear)
    }

    /// Duplication, bounded reordering delay spikes and payload corruption from the
    /// midpoint, cleared an eighth of the run later — exercises idempotence of the
    /// protocols' receive paths rather than their loss tolerance.
    pub fn dup_reorder(rounds: u64) -> Self {
        let mid = Self::mid(rounds);
        let clear = mid + (rounds / 8).max(2);
        ScenarioScript::new("dup_reorder")
            .fault_at(
                mid,
                FaultEvent::FaultProfileChange {
                    profile: FaultProfile::dup_reorder(),
                },
            )
            .fault_at(clear, FaultEvent::FaultClear)
    }

    /// A copy of this script whose flash crowds join all-public, other events unchanged
    /// — for cells running a NAT-oblivious protocol (Cyclon) on an all-public
    /// population, so a scripted join burst does not smuggle in the NATed nodes the
    /// cell's setup deliberately excludes.
    pub fn with_public_flash_crowds(&self) -> Self {
        let mut script = self.clone();
        for action in &mut script.actions {
            if let ScriptedEvent::Nat(NatDynamicsEvent::FlashCrowd {
                public_fraction, ..
            }) = &mut action.event
            {
                *public_fraction = 1.0;
            }
        }
        script
    }

    /// Builds the canned script `name` for a `rounds`-round run.
    pub fn by_name(name: &str, rounds: u64) -> Option<Self> {
        match name {
            "reboot_storm" => Some(Self::reboot_storm(rounds)),
            "mobility_wave" => Some(Self::mobility_wave(rounds)),
            "nat_flux" => Some(Self::nat_flux(rounds)),
            "flash_crowd" => Some(Self::flash_crowd(rounds)),
            "regional_outage" => Some(Self::regional_outage(rounds)),
            "croupier_stress" => Some(Self::croupier_stress(rounds)),
            "symmetric_shift" => Some(Self::symmetric_shift(rounds)),
            "cgn_migration" => Some(Self::cgn_migration(rounds)),
            "lossy_10" => Some(Self::lossy_10(rounds)),
            "burst_loss" => Some(Self::burst_loss(rounds)),
            "dup_reorder" => Some(Self::dup_reorder(rounds)),
            _ => None,
        }
    }
}

/// Executes a [`ScenarioScript`] against a [`NatTopology`] at round barriers.
///
/// Installed into an engine as its [`RoundHook`]; the engines call it on the
/// coordinating thread only, after the barrier's canonical merge, so every mutation —
/// and every RNG draw deciding who is affected — happens at a globally fixed point and
/// sharded runs stay bit-identical across worker-thread counts. Selection draws one
/// uniform variate per candidate node in ascending id order, so the draw sequence
/// depends only on the script and the population, never on engine internals.
pub struct ScenarioExecutor {
    topology: NatTopology,
    actions: Vec<ScenarioAction>,
    next_action: usize,
    /// Regions awaiting restoration: `(restore_round, nodes taken offline)`.
    pending_restores: Vec<(u64, Vec<NodeId>)>,
    /// Shared handle to the engine's fault plane; fault actions are no-ops without it.
    fault_plane: Option<FaultPlane>,
    rng: SmallRng,
}

impl ScenarioExecutor {
    /// Creates an executor for `script` mutating `topology` (a shared-state clone of the
    /// topology installed as the engine's delivery filter). `rng` drives every selection
    /// draw; derive it from the experiment seed on a dedicated stream.
    pub fn new(script: &ScenarioScript, topology: NatTopology, rng: SmallRng) -> Self {
        ScenarioExecutor {
            topology,
            actions: script.actions().to_vec(),
            next_action: 0,
            pending_restores: Vec::new(),
            fault_plane: None,
            rng,
        }
    }

    /// Attaches a shared handle to the engine's [`FaultPlane`] so the script's
    /// [`FaultEvent`]s have something to drive (builder style). Scripts with fault
    /// actions but no plane apply their selection draws and otherwise do nothing, so
    /// the executor's RNG sequence does not depend on whether a plane is attached.
    pub fn with_fault_plane(mut self, plane: FaultPlane) -> Self {
        self.fault_plane = Some(plane);
        self
    }

    fn apply_fault(&mut self, event: FaultEvent) {
        match event {
            FaultEvent::FaultProfileChange { profile } => {
                if let Some(plane) = &self.fault_plane {
                    plane.set_default_profile(profile);
                }
            }
            FaultEvent::LinkDegradation { fraction, profile } => {
                // One uniform variate per node in ascending id order — the same
                // selection discipline as `NatTopology::apply`, so the draw sequence
                // depends only on the script and the population.
                for node in self.topology.node_ids() {
                    if self.rng.gen_bool(fraction) {
                        if let Some(plane) = &self.fault_plane {
                            plane.set_link_profile(node, profile);
                        }
                    }
                }
            }
            FaultEvent::FaultClear => {
                if let Some(plane) = &self.fault_plane {
                    plane.clear();
                }
            }
        }
    }
}

impl RoundHook for ScenarioExecutor {
    fn on_round_barrier(&mut self, round: u64, now: SimTime) {
        // Restores first, in scheduling order, so an action at the same round observes
        // the region back online.
        let topology = &self.topology;
        self.pending_restores.retain(|(restore_round, nodes)| {
            if *restore_round > round {
                return true;
            }
            for &node in nodes {
                // Nodes that churned out during the outage report false; harmless.
                topology.set_offline(node, false);
            }
            false
        });
        // The script's order already puts a round's NAT dynamics before its fault actions.
        while let Some(&action) = self
            .actions
            .get(self.next_action)
            .filter(|a| a.round <= round)
        {
            self.next_action += 1;
            match action.event {
                // All event→mutation dispatch (and every selection draw) lives in
                // `NatTopology::apply`; the executor only keeps the *scheduling* state the
                // topology cannot — which nodes a regional outage silenced and when to
                // restore them.
                ScriptedEvent::Nat(event) => {
                    let applied = self.topology.apply(&event, round, now, &mut self.rng);
                    if let Some(restore_round) = applied.restore_round {
                        self.pending_restores
                            .push((restore_round, applied.taken_offline));
                    }
                }
                ScriptedEvent::Fault(event) => self.apply_fault(event),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    impl ScenarioScript {
        /// The full canned matrix for a `rounds`-round run, in [`MATRIX_NAMES`] order.
        ///
        /// [`MATRIX_NAMES`]: Self::MATRIX_NAMES
        pub(crate) fn matrix(rounds: u64) -> Vec<Self> {
            Self::MATRIX_NAMES
                .iter()
                .map(|name| Self::by_name(name, rounds).expect("canned script"))
                .collect()
        }
    }

    impl JoinSchedule {
        /// Time of the last join.
        pub(crate) fn last_join(&self) -> Option<SimTime> {
            self.events.last().map(|e| e.at)
        }
    }

    impl ScenarioExecutor {
        /// Returns `true` once every action has applied and every outage is restored.
        fn is_settled(&self) -> bool {
            self.next_action >= self.actions.len() && self.pending_restores.is_empty()
        }
    }

    impl ScenarioScript {
        /// Round of the last scheduled action, if any.
        fn last_action_round(&self) -> Option<u64> {
            self.actions.last().map(|a| a.round)
        }
    }

    impl JoinSchedule {
        /// Builds a schedule where every node joins at time zero; useful for unit tests.
        fn immediate(n_public: usize, n_private: usize) -> Self {
            let mut events = Vec::with_capacity(n_public + n_private);
            for _ in 0..n_public {
                events.push(JoinEvent {
                    at: SimTime::ZERO,
                    class: NatClass::Public,
                });
            }
            for _ in 0..n_private {
                events.push(JoinEvent {
                    at: SimTime::ZERO,
                    class: NatClass::Private,
                });
            }
            JoinSchedule { events }
        }

        /// Counts of (public, private) joins in the schedule.
        fn class_counts(&self) -> (usize, usize) {
            let public = self.events.iter().filter(|e| e.class.is_public()).count();
            (public, self.events.len() - public)
        }
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(3)
    }

    #[test]
    fn poisson_schedule_has_expected_counts_and_order() {
        let schedule = JoinSchedule::poisson(100, 50.0, 400, 12.5, &mut rng());
        assert_eq!(schedule.len(), 500);
        assert_eq!(schedule.class_counts(), (100, 400));
        assert!(
            schedule.events().windows(2).all(|w| w[0].at <= w[1].at),
            "events must be time-ordered"
        );
    }

    #[test]
    fn poisson_mean_interarrival_is_roughly_honoured() {
        let schedule = JoinSchedule::poisson(2_000, 50.0, 0, 12.5, &mut rng());
        let last = schedule.last_join().unwrap().as_millis() as f64;
        let mean = last / 2_000.0;
        assert!(
            (mean - 50.0).abs() < 5.0,
            "observed mean inter-arrival {mean}"
        );
    }

    #[test]
    fn immediate_schedule_puts_everyone_at_time_zero() {
        let schedule = JoinSchedule::immediate(3, 7);
        assert_eq!(schedule.len(), 10);
        assert!(schedule.events().iter().all(|e| e.at == SimTime::ZERO));
        assert_eq!(schedule.class_counts(), (3, 7));
    }

    #[test]
    fn growth_appends_evenly_spaced_public_joins() {
        let mut schedule = JoinSchedule::immediate(1, 1);
        schedule.append_growth(SimTime::from_secs(58), 10, 42.0, NatClass::Public);
        assert_eq!(schedule.len(), 12);
        assert_eq!(schedule.class_counts().0, 11);
        let last = schedule.last_join().unwrap();
        assert_eq!(last.as_millis(), 58_000 + 9 * 42);
    }

    #[test]
    fn churn_spec_validates_fraction() {
        let spec = ChurnSpec::new(61, 0.01);
        assert_eq!(spec.start_round, 61);
        assert!((spec.fraction_per_round - 0.01).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn churn_spec_rejects_out_of_range_fraction() {
        ChurnSpec::new(0, 1.5);
    }

    #[test]
    fn exponential_sampling_is_positive() {
        let mut r = rng();
        for _ in 0..1_000 {
            assert!(exponential(10.0, &mut r) > 0.0);
        }
    }

    use croupier_nat::NatTopologyBuilder;
    use croupier_simulator::DeliveryFilter;

    #[test]
    fn scripts_keep_actions_sorted_by_round() {
        let script = ScenarioScript::new("s")
            .at(20, NatDynamicsEvent::MobilityWave { fraction: 0.5 })
            .at(10, NatDynamicsEvent::GatewayRebootStorm { fraction: 1.0 })
            .at(
                15,
                NatDynamicsEvent::FlashCrowd {
                    growth: 0.1,
                    public_fraction: 0.5,
                },
            );
        let rounds: Vec<u64> = script.actions().iter().map(|a| a.round).collect();
        assert_eq!(rounds, vec![10, 15, 20]);
        assert_eq!(script.name(), "s");
        assert_eq!(script.last_action_round(), Some(20));
        assert_eq!(
            script.first_disruption_round(),
            Some(10),
            "flash crowds do not count as disruptions"
        );
        assert!(!script.is_empty());
    }

    #[test]
    fn settled_round_accounts_for_outage_duration() {
        let script = ScenarioScript::new("s")
            .at(
                10,
                NatDynamicsEvent::RegionalOutage {
                    region: 0,
                    regions: 2,
                    outage_rounds: 7,
                },
            )
            .at(12, NatDynamicsEvent::MobilityWave { fraction: 0.1 });
        assert_eq!(script.settled_round(), Some(17));
        assert_eq!(ScenarioScript::new("empty").settled_round(), None);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn scripts_reject_out_of_range_fractions() {
        let _ = ScenarioScript::new("bad").at(1, NatDynamicsEvent::MobilityWave { fraction: 1.5 });
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn scripts_reject_out_of_range_regions() {
        let _ = ScenarioScript::new("bad").at(
            1,
            NatDynamicsEvent::RegionalOutage {
                region: 4,
                regions: 4,
                outage_rounds: 1,
            },
        );
    }

    #[test]
    fn flash_crowds_expand_into_spread_join_events() {
        let script = ScenarioScript::new("fc").at(
            10,
            NatDynamicsEvent::FlashCrowd {
                growth: 0.5,
                public_fraction: 0.25,
            },
        );
        let joins = script.flash_crowd_joins(40, 1_000);
        assert_eq!(joins.len(), 20);
        let publics = joins.iter().filter(|e| e.class.is_public()).count();
        assert_eq!(publics, 5);
        assert!(joins
            .iter()
            .all(|e| e.at > SimTime::from_secs(10) && e.at < SimTime::from_secs(11)));
        assert!(joins.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(script.flash_crowd_joins(0, 1_000).is_empty());
    }

    #[test]
    fn public_flash_crowd_rewrite_only_touches_crowds() {
        let script = ScenarioScript::new("s")
            .at(5, NatDynamicsEvent::MobilityWave { fraction: 0.4 })
            .at(
                10,
                NatDynamicsEvent::FlashCrowd {
                    growth: 0.5,
                    public_fraction: 0.2,
                },
            );
        let rewritten = script.with_public_flash_crowds();
        assert_eq!(rewritten.name(), "s");
        assert_eq!(rewritten.actions()[0], script.actions()[0]);
        assert_eq!(
            rewritten.actions()[1].event,
            ScriptedEvent::Nat(NatDynamicsEvent::FlashCrowd {
                growth: 0.5,
                public_fraction: 1.0,
            })
        );
        let joins = rewritten.flash_crowd_joins(40, 1_000);
        assert!(joins.iter().all(|e| e.class.is_public()));
    }

    #[test]
    fn canned_matrix_round_trips_by_name() {
        let matrix = ScenarioScript::matrix(40);
        assert_eq!(matrix.len(), ScenarioScript::MATRIX_NAMES.len());
        for (script, name) in matrix.iter().zip(ScenarioScript::MATRIX_NAMES) {
            assert_eq!(script.name(), name);
            assert!(!script.is_empty(), "{name} must schedule something");
            assert_eq!(ScenarioScript::by_name(name, 40).as_ref(), Some(script));
            assert!(
                script.settled_round().unwrap() < 40,
                "{name} must settle before the run ends"
            );
        }
        assert!(ScenarioScript::by_name("bogus", 40).is_none());
    }

    fn scripted_topology() -> NatTopology {
        let t = NatTopologyBuilder::new(7).build();
        for i in 0..4 {
            t.add_public_node(NodeId::new(i));
        }
        for i in 4..12 {
            t.add_private_node(NodeId::new(i));
        }
        t
    }

    #[test]
    fn executor_applies_actions_at_their_barrier() {
        let t = scripted_topology();
        let mut filter = t.clone();
        let priv_node = NodeId::new(4);
        let pub_node = NodeId::new(0);
        filter.on_send(priv_node, pub_node, SimTime::from_secs(4));
        let script =
            ScenarioScript::new("s").at(5, NatDynamicsEvent::GatewayRebootStorm { fraction: 1.0 });
        let mut exec = ScenarioExecutor::new(&script, t.clone(), SmallRng::seed_from_u64(1));
        exec.on_round_barrier(4, SimTime::from_secs(4));
        assert_eq!(
            filter.can_deliver(pub_node, priv_node, SimTime::from_secs(4)),
            croupier_simulator::DeliveryVerdict::Deliver,
            "nothing applies before round 5"
        );
        assert!(!exec.is_settled());
        exec.on_round_barrier(5, SimTime::from_secs(5));
        assert_eq!(
            filter.can_deliver(pub_node, priv_node, SimTime::from_secs(5)),
            croupier_simulator::DeliveryVerdict::BlockedByNat,
            "the storm wiped every binding"
        );
        assert!(exec.is_settled());
    }

    #[test]
    fn executor_restores_regional_outages_on_schedule() {
        let t = scripted_topology();
        let script = ScenarioScript::new("s").at(
            3,
            NatDynamicsEvent::RegionalOutage {
                region: 0,
                regions: 4,
                outage_rounds: 2,
            },
        );
        let mut exec = ScenarioExecutor::new(&script, t.clone(), SmallRng::seed_from_u64(2));
        exec.on_round_barrier(3, SimTime::from_secs(3));
        // Region 0 of 4: ids 0, 4, 8 are offline; others untouched.
        assert!(t.is_offline(NodeId::new(0)));
        assert!(t.is_offline(NodeId::new(4)));
        assert!(t.is_offline(NodeId::new(8)));
        assert!(!t.is_offline(NodeId::new(1)));
        assert_eq!(t.stats().offline_nodes, 3);
        assert!(!exec.is_settled());
        exec.on_round_barrier(4, SimTime::from_secs(4));
        assert_eq!(t.stats().offline_nodes, 3, "outage lasts two rounds");
        exec.on_round_barrier(5, SimTime::from_secs(5));
        assert_eq!(t.stats().offline_nodes, 0, "restored after the outage");
        assert!(exec.is_settled());
    }

    #[test]
    fn overlapping_outages_each_restore_their_own_nodes() {
        // Region 0-of-4 is a subset of region 0-of-2. The wider, longer outage claims
        // its nodes first; the narrower one that fires a round later must not re-claim
        // them, so the earlier restore does not cut the longer outage short.
        let t = scripted_topology();
        let script = ScenarioScript::new("s")
            .at(
                3,
                NatDynamicsEvent::RegionalOutage {
                    region: 0,
                    regions: 2,
                    outage_rounds: 6,
                },
            )
            .at(
                4,
                NatDynamicsEvent::RegionalOutage {
                    region: 0,
                    regions: 4,
                    outage_rounds: 2,
                },
            );
        let mut exec = ScenarioExecutor::new(&script, t.clone(), SmallRng::seed_from_u64(4));
        for round in 3..=6 {
            exec.on_round_barrier(round, SimTime::from_secs(round));
        }
        // The 4-of-4 restore round (4 + 2 = 6) has passed, but ids 0, 4, 8 belong to
        // the 2-region outage and must still be dark until round 9.
        assert!(t.is_offline(NodeId::new(0)));
        assert!(t.is_offline(NodeId::new(4)));
        assert!(t.is_offline(NodeId::new(8)));
        for round in 7..=9 {
            exec.on_round_barrier(round, SimTime::from_secs(round));
        }
        assert_eq!(t.stats().offline_nodes, 0);
        assert!(exec.is_settled());
    }

    #[test]
    fn flash_crowd_joins_never_land_on_the_barrier_instant() {
        // At huge counts the rounded inter-arrival step degenerates to zero; the 1 ms
        // clamp keeps every joiner strictly inside the round after the action.
        let script = ScenarioScript::new("fc").at(
            10,
            NatDynamicsEvent::FlashCrowd {
                growth: 1.0,
                public_fraction: 0.0,
            },
        );
        let joins = script.flash_crowd_joins(5_000, 1_000);
        assert_eq!(joins.len(), 5_000);
        assert!(joins.iter().all(|e| e.at > SimTime::from_secs(10)));
        assert!(
            joins.iter().all(|e| e.at < SimTime::from_secs(11)),
            "the next round's barrier instant already belongs to the round after"
        );
    }

    #[test]
    fn fault_scripts_schedule_and_settle_like_nat_scripts() {
        let script = ScenarioScript::lossy_10(40);
        assert!(script.has_fault_actions());
        assert_eq!(script.len(), 3);
        assert_eq!(script.first_disruption_round(), Some(20));
        assert_eq!(script.settled_round(), Some(25));
        assert!(!ScenarioScript::reboot_storm(40).has_fault_actions());
        // Mixed scripts take the earliest disruption across both vocabularies.
        let mixed = ScenarioScript::new("m")
            .at(12, NatDynamicsEvent::MobilityWave { fraction: 0.1 })
            .fault_at(
                8,
                FaultEvent::FaultProfileChange {
                    profile: FaultProfile::lossy(0.05),
                },
            );
        assert_eq!(mixed.first_disruption_round(), Some(8));
        assert_eq!(mixed.last_action_round(), Some(12));
        assert_eq!(mixed.len(), 2);
    }

    #[test]
    fn executor_drives_the_fault_plane_from_the_script() {
        use croupier_simulator::Seed;
        let t = scripted_topology();
        let script = ScenarioScript::new("f")
            .fault_at(
                2,
                FaultEvent::FaultProfileChange {
                    profile: FaultProfile::lossy(0.5),
                },
            )
            .fault_at(
                3,
                FaultEvent::LinkDegradation {
                    fraction: 1.0,
                    profile: FaultProfile::lossy(1.0),
                },
            )
            .fault_at(5, FaultEvent::FaultClear);
        let plane = FaultPlane::new(Seed::new(9));
        let mut exec = ScenarioExecutor::new(&script, t, SmallRng::seed_from_u64(5))
            .with_fault_plane(plane.clone());
        assert!(!plane.is_active(), "plane starts inactive");
        exec.on_round_barrier(2, SimTime::from_secs(2));
        assert!(plane.is_active(), "profile change activates the plane");
        assert!(!exec.is_settled());
        exec.on_round_barrier(3, SimTime::from_secs(3));
        // Every link now drops everything: a judged delivery must record a drop.
        {
            let mut session = plane.begin().expect("plane is active");
            let decision = session.judge(NodeId::new(4), NodeId::new(0));
            assert!(decision.drop, "degraded link loses every datagram");
        }
        exec.on_round_barrier(5, SimTime::from_secs(5));
        assert!(!plane.is_active(), "FaultClear deactivates the plane");
        assert!(
            plane.report().total_drops() > 0,
            "counters survive the clear"
        );
        assert!(exec.is_settled());
    }

    /// A fault action draws its degraded links from the executor's stream; were it to run
    /// before a same-round mobility wave, the wave would select other nodes.
    #[test]
    fn a_rounds_nat_dynamics_apply_before_its_fault_actions_in_any_builder_order() {
        use croupier_simulator::Seed;
        let wave = NatDynamicsEvent::MobilityWave { fraction: 0.5 };
        let degrade = FaultEvent::LinkDegradation {
            fraction: 0.5,
            profile: FaultProfile::lossy(0.3),
        };
        let gateways_after = |script: ScenarioScript| {
            let t = scripted_topology();
            let plane = FaultPlane::new(Seed::new(9));
            let mut exec = ScenarioExecutor::new(&script, t.clone(), SmallRng::seed_from_u64(6))
                .with_fault_plane(plane);
            exec.on_round_barrier(3, SimTime::from_secs(3));
            let nodes = t.node_ids().into_iter();
            nodes.map(|node| t.gateway_of(node)).collect::<Vec<_>>()
        };
        let nat_first = ScenarioScript::new("s").at(3, wave).fault_at(3, degrade);
        let fault_first = ScenarioScript::new("s").fault_at(3, degrade).at(3, wave);
        assert_eq!(gateways_after(nat_first), gateways_after(fault_first));
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn fault_scripts_reject_out_of_range_fractions() {
        let _ = ScenarioScript::new("bad").fault_at(
            1,
            FaultEvent::LinkDegradation {
                fraction: 1.5,
                profile: FaultProfile::default(),
            },
        );
    }

    #[test]
    fn executor_effects_are_deterministic_for_a_fixed_rng() {
        let run = || {
            let t = scripted_topology();
            let script = ScenarioScript::new("s")
                .at(1, NatDynamicsEvent::MobilityWave { fraction: 0.5 })
                .at(2, NatDynamicsEvent::ProfileUpgrade { fraction: 0.5 });
            let mut exec = ScenarioExecutor::new(&script, t.clone(), SmallRng::seed_from_u64(3));
            exec.on_round_barrier(1, SimTime::from_secs(1));
            exec.on_round_barrier(2, SimTime::from_secs(2));
            (t.public_node_ids(), t.private_node_ids(), t.gateway_count())
        };
        assert_eq!(run(), run());
        let (publics, privates, gateways) = run();
        assert!(publics.len() > 4, "some private nodes should be promoted");
        assert!(!privates.is_empty());
        assert!(gateways > 8, "migrations allocate fresh gateways");
    }
}
