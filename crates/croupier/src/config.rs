//! Protocol constants and configuration.

/// Capacity of the public view and of the private view (paper §VII-A: 10). The baselines
/// use the same capacity for their single view.
pub const VIEW_SIZE: usize = 10;

/// Total number of view descriptors included in a shuffle message (paper §VII-A: 5). The
/// sender's own descriptor is added on top of it. Croupier splits it between its two views
/// (see [`CroupierNode`](crate::CroupierNode)); the baselines draw it from their one view.
pub const SHUFFLE_SIZE: usize = 5;

/// Number of public nodes a joining node requests from the bootstrap server.
pub const BOOTSTRAP_SIZE: usize = 10;

/// Maximum number of cached ratio estimates piggy-backed on one shuffle message (paper
/// §VI: 10). The sender's own estimate, if it has one, is added on top of it.
pub(crate) const ESTIMATE_SHARE_SIZE: usize = 10;

/// The configurable part of a [`CroupierNode`](crate::CroupierNode): the two estimation
/// windows that Figs. 1, 2 and 7 of the paper vary. Everything else the paper fixes is a
/// constant ([`VIEW_SIZE`], [`SHUFFLE_SIZE`], [`BOOTSTRAP_SIZE`]).
///
/// The defaults are the paper's (§VII-A): α = 25 rounds and γ = 50 rounds.
///
/// # Examples
///
/// ```
/// use croupier::CroupierConfig;
///
/// let small_windows = CroupierConfig::default()
///     .with_local_history(10)
///     .with_neighbour_history(25);
/// assert_eq!(small_windows.local_history, 10);
/// assert_eq!(small_windows.neighbour_history, 25);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CroupierConfig {
    /// α — length, in rounds, of the local shuffle-request-count history a croupier uses to
    /// compute its own ratio estimate (paper default: 25).
    pub local_history: usize,
    /// γ — maximum age, in rounds, of a cached neighbour estimate before it is discarded
    /// (paper default: 50).
    pub neighbour_history: u32,
}

impl Default for CroupierConfig {
    fn default() -> Self {
        CroupierConfig {
            local_history: 25,
            neighbour_history: 50,
        }
    }
}

impl CroupierConfig {
    /// Sets α, the local history window.
    pub fn with_local_history(mut self, alpha: usize) -> Self {
        self.local_history = alpha;
        self
    }

    /// Sets γ, the neighbour history window.
    pub fn with_neighbour_history(mut self, gamma: u32) -> Self {
        self.neighbour_history = gamma;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = CroupierConfig::default();
        assert_eq!(VIEW_SIZE, 10);
        assert_eq!(SHUFFLE_SIZE, 5);
        assert_eq!(c.local_history, 25);
        assert_eq!(c.neighbour_history, 50);
    }

    #[test]
    fn builder_methods_update_fields() {
        let c = CroupierConfig::default()
            .with_local_history(100)
            .with_neighbour_history(250);
        assert_eq!(c.local_history, 100);
        assert_eq!(c.neighbour_history, 250);
    }
}
