//! Scripted NAT-dynamics events and named gateway profiles.
//!
//! A [`NatDynamicsEvent`] is one mutation of the NAT environment — a reboot storm, a
//! mobility wave, a profile change, a regional outage — expressed as a *fraction* of the
//! affected population so the same script scales from unit tests to 100k-node runs. The
//! enum lives here, next to the topology it mutates, and
//! [`NatTopology::apply`](crate::NatTopology::apply) is the single dispatcher that turns
//! an event into topology mutations; the experiments crate's `ScenarioExecutor` schedules
//! events at round barriers and re-exports the enum for script authors.

use serde::{Deserialize, Serialize};

use crate::filtering::FilteringPolicy;
use crate::gateway::NatGatewayConfig;

/// One scripted NAT-dynamics event. Magnitudes are fractions of the affected population
/// (not absolute counts), so the same script scales from unit tests to 100k-node runs.
///
/// The enum is `#[non_exhaustive]`: scripts are data, and new event kinds are added
/// without a major version bump — downstream matches need a wildcard arm.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum NatDynamicsEvent {
    /// Power-cycles the gateway of each private node independently with probability
    /// `fraction`, wiping the whole mapping table (consumer-router reboot storm after a
    /// power flicker or a coordinated firmware push).
    GatewayRebootStorm {
        /// Probability that any one private node's gateway reboots.
        fraction: f64,
    },
    /// Moves each private node independently with probability `fraction` behind a fresh
    /// gateway with a new public address (laptops hopping networks).
    MobilityWave {
        /// Probability that any one private node migrates.
        fraction: f64,
    },
    /// Promotes each private node independently with probability `fraction` to a public
    /// address. Protocols are *not* notified — the stale self-classification is part of
    /// the stress.
    ProfileUpgrade {
        /// Probability that any one private node becomes public.
        fraction: f64,
    },
    /// Demotes each public node independently with probability `fraction` behind a fresh
    /// NAT gateway (carrier-grade NAT rollout).
    ProfileDowngrade {
        /// Probability that any one public node becomes private.
        fraction: f64,
    },
    /// Switches the filtering policy of each private node's gateway independently with
    /// probability `fraction` to `policy`.
    FilteringShift {
        /// Probability that any one gateway changes policy.
        fraction: f64,
        /// The policy the selected gateways switch to.
        policy: FilteringPolicy,
    },
    /// Replaces the whole configuration of each private node's gateway independently with
    /// probability `fraction` by the named [`GatewayProfile`] (firmware swap or CPE
    /// replacement): filtering policy, hairpinning and pool size all change at once,
    /// while the gateway's exact binding table survives the reconfig.
    GatewayReconfig {
        /// Probability that any one private node's gateway is reconfigured.
        fraction: f64,
        /// The profile the selected gateways switch to.
        profile: GatewayProfile,
    },
    /// Consolidates each private node independently with probability `fraction` behind
    /// one newly created shared carrier-grade gateway
    /// ([`NatGatewayConfig::carrier_grade`]) with `pool_size` external addresses — an ISP
    /// moving customers behind a CGN. Consolidated nodes share the gateway's pool;
    /// hairpinning stays on so they can still reach each other.
    CgnConsolidation {
        /// Probability that any one private node is moved behind the shared CGN.
        fraction: f64,
        /// Number of external addresses the carrier-grade gateway owns.
        pool_size: u8,
    },
    /// Takes every node whose id falls in `region` (of `regions` equal id-striped
    /// regions) offline for `outage_rounds` rounds, then restores exactly those nodes —
    /// a correlated regional gateway outage / network partition.
    RegionalOutage {
        /// The region that goes dark (`0 <= region < regions`).
        region: u64,
        /// Number of id-striped regions the population is divided into.
        regions: u64,
        /// How many rounds the outage lasts before the region is restored.
        outage_rounds: u64,
    },
    /// A join burst: `growth` times the experiment's initial population joins spread
    /// evenly over the round following the action, `public_fraction` of them public.
    /// Expanded by the experiment driver into the join schedule (the only scripted event
    /// that creates engine-side state, so it cannot run inside the NAT-mutation hook).
    FlashCrowd {
        /// New joiners as a fraction of the initial population.
        growth: f64,
        /// Fraction of the joiners that are public.
        public_fraction: f64,
    },
}

impl NatDynamicsEvent {
    /// Checks the event's parameters; both scheduling an event (the experiments crate's
    /// `ScenarioScript::at`) and applying one ([`NatTopology::apply`]) call it.
    ///
    /// # Panics
    ///
    /// Panics if a parameter is out of range: a fraction outside `[0, 1]`, an empty CGN
    /// pool, zero `regions`, `region >= regions`, zero `outage_rounds` or a negative
    /// flash-crowd growth.
    ///
    /// [`NatTopology::apply`]: crate::NatTopology::apply
    pub fn validate(&self) {
        use NatDynamicsEvent as Event;
        let (fraction, what) = match *self {
            Event::GatewayRebootStorm { fraction } => (fraction, "reboot fraction"),
            Event::MobilityWave { fraction } => (fraction, "mobility fraction"),
            Event::ProfileUpgrade { fraction } => (fraction, "upgrade fraction"),
            Event::ProfileDowngrade { fraction } => (fraction, "downgrade fraction"),
            Event::FilteringShift { fraction, .. } => (fraction, "filtering-shift fraction"),
            Event::GatewayReconfig { fraction, .. } => (fraction, "gateway-reconfig fraction"),
            Event::CgnConsolidation {
                fraction,
                pool_size,
            } => {
                assert!(pool_size > 0, "CGN pool must hold at least one address");
                (fraction, "CGN-consolidation fraction")
            }
            Event::RegionalOutage {
                region,
                regions,
                outage_rounds,
            } => {
                assert!(regions > 0, "regions must be positive");
                assert!(region < regions, "region {region} out of {regions}");
                assert!(outage_rounds > 0, "outage must last at least one round");
                return;
            }
            Event::FlashCrowd {
                growth,
                public_fraction,
            } => {
                assert!(
                    growth.is_finite() && growth >= 0.0,
                    "flash-crowd growth must be non-negative"
                );
                (public_fraction, "flash-crowd public fraction")
            }
        };
        assert!(
            (0.0..=1.0).contains(&fraction),
            "{what} must be within [0, 1], got {fraction}"
        );
    }
}

/// A named bundle of RFC-4787 gateway behaviours, used by scripted
/// [`GatewayReconfig`](NatDynamicsEvent::GatewayReconfig) events (an enum rather than an
/// inline [`NatGatewayConfig`] so scripts stay serialisable as compact tags).
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GatewayProfile {
    /// [`NatGatewayConfig::full_cone`]: endpoint-independent filtering, hairpinning on.
    FullCone,
    /// [`NatGatewayConfig::symmetric`]: address-and-port-dependent filtering, no
    /// hairpinning.
    Symmetric,
    /// [`NatGatewayConfig::carrier_grade`] with a 4-address pool: address-dependent
    /// filtering, hairpinning on.
    CarrierGrade,
}

impl GatewayProfile {
    /// The configuration this profile expands to. Only the mapping timeout is inherited
    /// from `base` (it models the deployment-wide UDP timeout, not a per-device trait);
    /// every behavioural axis comes from the profile.
    pub fn config(self, base: &NatGatewayConfig) -> NatGatewayConfig {
        let mut cfg = match self {
            GatewayProfile::FullCone => NatGatewayConfig::full_cone(),
            GatewayProfile::Symmetric => NatGatewayConfig::symmetric(),
            GatewayProfile::CarrierGrade => NatGatewayConfig::carrier_grade(4),
        };
        cfg.mapping_timeout = base.mapping_timeout;
        cfg
    }
}

/// What applying a [`NatDynamicsEvent`] did, as far as the caller must follow up.
///
/// Only [`RegionalOutage`](NatDynamicsEvent::RegionalOutage) needs follow-up — the exact
/// nodes it silenced must be restored `outage_rounds` later — and only
/// [`FlashCrowd`](NatDynamicsEvent::FlashCrowd) is out of scope for the topology (it
/// creates engine-side join state, which the experiment driver expands before the run).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AppliedEvent {
    /// Nodes the event took offline; the caller must restore exactly these.
    pub taken_offline: Vec<croupier_simulator::NodeId>,
    /// Round barrier (1-based) at which `taken_offline` must come back online.
    pub restore_round: Option<u64>,
}

impl AppliedEvent {
    /// An application with no follow-up obligations.
    pub fn done() -> Self {
        AppliedEvent::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use croupier_simulator::SimDuration;

    #[test]
    fn profiles_expand_to_the_documented_configs() {
        let base = NatGatewayConfig::default().mapping_timeout(SimDuration::from_secs(17));
        let fc = GatewayProfile::FullCone.config(&base);
        assert_eq!(fc.filtering, FilteringPolicy::EndpointIndependent);
        assert!(fc.hairpinning);
        assert_eq!(fc.pool_size, 1);
        let sym = GatewayProfile::Symmetric.config(&base);
        assert_eq!(sym.filtering, FilteringPolicy::AddressAndPortDependent);
        assert!(!sym.hairpinning);
        assert_eq!(sym.pool_size, 1);
        let cgn = GatewayProfile::CarrierGrade.config(&base);
        assert_eq!(cgn.filtering, FilteringPolicy::AddressDependent);
        assert!(cgn.hairpinning);
        assert_eq!(cgn.pool_size, 4);
        // All profiles inherit the deployment-wide timeout, nothing else, from the base.
        for cfg in [fc, sym, cgn] {
            assert_eq!(cfg.mapping_timeout, SimDuration::from_secs(17));
        }
    }

    #[test]
    fn applied_event_default_has_no_follow_up() {
        let done = AppliedEvent::done();
        assert!(done.taken_offline.is_empty());
        assert_eq!(done.restore_round, None);
    }
}
