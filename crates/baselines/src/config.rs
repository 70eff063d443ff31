//! The baselines' configuration argument.

/// The configuration argument of the baselines' constructors. It carries nothing: the
/// paper runs Cyclon, Gozar and Nylon with Croupier's view, shuffle and bootstrap sizes
/// ([`croupier::VIEW_SIZE`], [`croupier::SHUFFLE_SIZE`], [`croupier::BOOTSTRAP_SIZE`]), and
/// the NAT-traversal parameters of the cited Gozar and Nylon papers are constants of
/// `gozar` and `nylon`. The type exists only because the
/// benchmark package's pinned signatures name it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BaselineConfig;
