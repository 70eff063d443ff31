//! The four systems under test, behind a common switch.

use croupier::{CroupierConfig, CroupierNode};
use croupier_baselines::{BaselineConfig, CyclonNode, GozarNode, NylonNode};
use croupier_nat::NatTopology;
use croupier_simulator::{NatClass, NodeId};
use serde::{Deserialize, Serialize};

use crate::runner::{run_failure, run_pss, ExperimentParams, RunOutput};

/// The peer-sampling protocols compared in the paper's evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Croupier — the paper's contribution (NAT-aware, no relaying, no hole punching).
    Croupier,
    /// Cyclon — NAT-oblivious baseline for randomness.
    Cyclon,
    /// Gozar — NAT-aware baseline using one-hop relaying.
    Gozar,
    /// Nylon — NAT-aware baseline using hole punching through rendezvous chains.
    Nylon,
}

impl ProtocolKind {
    /// All protocols, in the order the paper lists them.
    pub const ALL: [ProtocolKind; 4] = [
        ProtocolKind::Croupier,
        ProtocolKind::Gozar,
        ProtocolKind::Nylon,
        ProtocolKind::Cyclon,
    ];

    /// The NAT-aware protocols (everything except Cyclon).
    pub const NAT_AWARE: [ProtocolKind; 3] = [
        ProtocolKind::Croupier,
        ProtocolKind::Gozar,
        ProtocolKind::Nylon,
    ];

    /// Lower-case name used in figure legends.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Croupier => "croupier",
            ProtocolKind::Cyclon => "cyclon",
            ProtocolKind::Gozar => "gozar",
            ProtocolKind::Nylon => "nylon",
        }
    }

    /// Parses a protocol name.
    pub fn parse(text: &str) -> Option<ProtocolKind> {
        match text.to_ascii_lowercase().as_str() {
            "croupier" => Some(ProtocolKind::Croupier),
            "cyclon" => Some(ProtocolKind::Cyclon),
            "gozar" => Some(ProtocolKind::Gozar),
            "nylon" => Some(ProtocolKind::Nylon),
            _ => None,
        }
    }

    /// Returns `true` if the protocol handles NATed nodes (Cyclon does not, which is why
    /// the paper evaluates it on all-public populations).
    pub fn is_nat_aware(self) -> bool {
        !matches!(self, ProtocolKind::Cyclon)
    }

    /// The initial `(public, private)` split of `total` nodes: the paper's 20 % public
    /// for the NAT-aware protocols, all public for Cyclon (as in the paper's evaluation).
    pub(crate) fn population(self, total: usize) -> (usize, usize) {
        if !self.is_nat_aware() {
            return (total, 0);
        }
        let public = (total as f64 * 0.2).round() as usize;
        (public, total - public)
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Protocol configurations used by an experiment (identical view and shuffle sizes across
/// systems, per §VII-A).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProtocolConfigs {
    /// Configuration of Croupier nodes.
    pub croupier: CroupierConfig,
    /// Configuration of the baseline protocols.
    pub baseline: BaselineConfig,
}

/// Each protocol's node constructor, as the driver calls it for every joining node.
fn croupier(
    configs: &ProtocolConfigs,
) -> impl FnMut(NodeId, NatClass, &NatTopology) -> CroupierNode {
    let config = configs.croupier.clone();
    move |id, class, _| CroupierNode::new(id, class, config.clone())
}

fn cyclon(configs: &ProtocolConfigs) -> impl FnMut(NodeId, NatClass, &NatTopology) -> CyclonNode {
    let config = configs.baseline.clone();
    move |id, _, _| CyclonNode::new(id, config.clone())
}

fn gozar(configs: &ProtocolConfigs) -> impl FnMut(NodeId, NatClass, &NatTopology) -> GozarNode {
    let config = configs.baseline.clone();
    move |id, class, _| GozarNode::new(id, class, config.clone())
}

fn nylon(configs: &ProtocolConfigs) -> impl FnMut(NodeId, NatClass, &NatTopology) -> NylonNode {
    let config = configs.baseline.clone();
    move |id, class, _| NylonNode::new(id, class, config.clone())
}

/// Runs an experiment with the given protocol.
///
/// For Cyclon the experiment should normally use an all-public population
/// (`params.n_private == 0`), matching the paper's setup; this function does not enforce
/// it so that ablation experiments can also measure how Cyclon degrades behind NATs.
pub fn run_kind(
    kind: ProtocolKind,
    params: &ExperimentParams,
    configs: &ProtocolConfigs,
) -> RunOutput {
    match kind {
        ProtocolKind::Croupier => run_pss(params, croupier(configs)),
        ProtocolKind::Cyclon => run_pss(params, cyclon(configs)),
        ProtocolKind::Gozar => run_pss(params, gozar(configs)),
        ProtocolKind::Nylon => run_pss(params, nylon(configs)),
    }
}

/// Runs a catastrophic-failure experiment with the given protocol, returning the fraction
/// of surviving nodes in the largest connected cluster.
pub fn run_failure_kind(
    kind: ProtocolKind,
    params: &ExperimentParams,
    configs: &ProtocolConfigs,
    failure_fraction: f64,
) -> f64 {
    match kind {
        ProtocolKind::Croupier => run_failure(params, croupier(configs), failure_fraction),
        ProtocolKind::Cyclon => run_failure(params, cyclon(configs), failure_fraction),
        ProtocolKind::Gozar => run_failure(params, gozar(configs), failure_fraction),
        ProtocolKind::Nylon => run_failure(params, nylon(configs), failure_fraction),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentParams {
        ExperimentParams::default()
            .with_population(6, 24)
            .with_rounds(30)
            .with_sample_every(5)
    }

    #[test]
    fn names_and_parsing_round_trip() {
        for kind in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(ProtocolKind::parse("bogus"), None);
        assert!(ProtocolKind::Croupier.is_nat_aware());
        assert!(!ProtocolKind::Cyclon.is_nat_aware());
        assert_eq!(ProtocolKind::NAT_AWARE.len(), 3);
    }

    #[test]
    fn every_protocol_runs_under_the_generic_driver() {
        let configs = ProtocolConfigs::default();
        for kind in ProtocolKind::ALL {
            let params = if kind == ProtocolKind::Cyclon {
                tiny().with_population(30, 0)
            } else {
                tiny()
            };
            let out = run_kind(kind, &params, &configs);
            assert!(!out.samples.is_empty(), "{kind} produced no samples");
            assert_eq!(out.last_sample().unwrap().node_count, 30, "{kind}");
        }
    }

    #[test]
    fn failure_runs_for_every_protocol() {
        let configs = ProtocolConfigs::default();
        for kind in ProtocolKind::NAT_AWARE {
            let fraction = run_failure_kind(kind, &tiny(), &configs, 0.4);
            assert!(
                (0.0..=1.0).contains(&fraction),
                "{kind} returned {fraction}"
            );
        }
    }
}
