//! Protocol configuration.

use serde::{Deserialize, Serialize};

/// Which neighbour a node selects as the target of its next shuffle.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum SelectionPolicy {
    /// Select the *oldest* descriptor (the paper's choice; called *tail* in the peer
    /// sampling literature). Ensures stale descriptors are refreshed or discarded quickly.
    Tail,
    /// Select a descriptor uniformly at random. Kept for ablation experiments.
    Random,
}

/// How received descriptors are merged into a full view.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum MergePolicy {
    /// Replace the descriptors that were sent to the peer with the descriptors received
    /// from it (the paper's choice; minimises information loss).
    Swapper,
    /// Keep the freshest descriptors among the union of the current view and the received
    /// descriptors. Kept for ablation experiments.
    Healer,
}

/// Configuration of a [`CroupierNode`](crate::CroupierNode).
///
/// The defaults are the values used throughout the paper's evaluation (§VII-A): views of 10
/// entries, shuffle subsets of 5 entries, a local history of α = 25 rounds, a neighbour
/// history of γ = 50 rounds, and at most 10 piggy-backed ratio estimates per message.
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
/// assert_eq!(small_windows.view_size, 10);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CroupierConfig {
    /// Capacity of the public view and of the private view (paper: 10).
    pub view_size: usize,
    /// Total number of view descriptors included in a shuffle message (paper: 5). The
    /// budget is split between the public and the private view, the public view receiving
    /// the larger half; the sender's own descriptor is added on top of the budget.
    pub shuffle_size: usize,
    /// α — length, in rounds, of the local shuffle-request-count history a croupier uses to
    /// compute its own ratio estimate (paper default: 25).
    pub local_history: usize,
    /// γ — maximum age, in rounds, of a cached neighbour estimate before it is discarded
    /// (paper default: 50).
    pub neighbour_history: u32,
    /// Maximum number of ratio estimates piggy-backed on one shuffle message (paper: 10).
    pub estimate_share_size: usize,
    /// Number of public nodes requested from the bootstrap server when joining.
    pub bootstrap_size: usize,
    /// Neighbour selection policy (paper: tail).
    pub selection: SelectionPolicy,
    /// View merge policy (paper: swapper).
    pub merge: MergePolicy,
}

impl Default for CroupierConfig {
    fn default() -> Self {
        CroupierConfig {
            view_size: 10,
            shuffle_size: 5,
            local_history: 25,
            neighbour_history: 50,
            estimate_share_size: 10,
            bootstrap_size: 10,
            selection: SelectionPolicy::Tail,
            merge: MergePolicy::Swapper,
        }
    }
}

impl CroupierConfig {
    /// Validates the configuration, panicking on inconsistent values.
    ///
    /// # Panics
    ///
    /// Panics if `view_size` is zero, `shuffle_size` is zero or exceeds `view_size`, or
    /// `local_history` is zero.
    pub fn validate(&self) {
        assert!(self.view_size > 0, "view_size must be positive");
        assert!(
            self.shuffle_size > 0 && self.shuffle_size <= self.view_size,
            "shuffle_size must be in 1..=view_size"
        );
        assert!(
            self.local_history > 0,
            "local_history (alpha) must be positive"
        );
    }

    /// Sets the view capacity.
    pub fn with_view_size(mut self, view_size: usize) -> Self {
        self.view_size = view_size;
        self
    }

    /// Sets the shuffle subset size.
    pub fn with_shuffle_size(mut self, shuffle_size: usize) -> Self {
        self.shuffle_size = shuffle_size;
        self
    }

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

    /// Sets the number of estimates piggy-backed per shuffle message.
    pub fn with_estimate_share_size(mut self, count: usize) -> Self {
        self.estimate_share_size = count;
        self
    }

    /// Sets the neighbour selection policy.
    pub fn with_selection(mut self, selection: SelectionPolicy) -> Self {
        self.selection = selection;
        self
    }

    /// Sets the view merge policy.
    pub fn with_merge(mut self, merge: MergePolicy) -> Self {
        self.merge = merge;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = CroupierConfig::default();
        assert_eq!(c.view_size, 10);
        assert_eq!(c.shuffle_size, 5);
        assert_eq!(c.local_history, 25);
        assert_eq!(c.neighbour_history, 50);
        assert_eq!(c.estimate_share_size, 10);
        assert_eq!(c.selection, SelectionPolicy::Tail);
        assert_eq!(c.merge, MergePolicy::Swapper);
        c.validate();
    }

    #[test]
    fn builder_methods_update_fields() {
        let c = CroupierConfig::default()
            .with_view_size(20)
            .with_shuffle_size(8)
            .with_local_history(100)
            .with_neighbour_history(250)
            .with_estimate_share_size(5)
            .with_selection(SelectionPolicy::Random)
            .with_merge(MergePolicy::Healer);
        assert_eq!(c.view_size, 20);
        assert_eq!(c.shuffle_size, 8);
        assert_eq!(c.local_history, 100);
        assert_eq!(c.neighbour_history, 250);
        assert_eq!(c.estimate_share_size, 5);
        assert_eq!(c.selection, SelectionPolicy::Random);
        assert_eq!(c.merge, MergePolicy::Healer);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "shuffle_size must be in 1..=view_size")]
    fn validate_rejects_oversized_shuffle() {
        CroupierConfig::default().with_shuffle_size(11).validate();
    }

    #[test]
    #[should_panic(expected = "view_size must be positive")]
    fn validate_rejects_zero_view() {
        CroupierConfig::default().with_view_size(0).validate();
    }
}
