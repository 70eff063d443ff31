//! Ablation of Croupier's design choices called out in `DESIGN.md`: the *tail* neighbour
//! selection policy and the *swapper* merge policy versus their alternatives (*random*
//! selection, *healer* merge). Each combination runs the same small workload and prints
//! its steady-state estimation error, so the quality impact of each choice is visible.
//!
//! ```text
//! cargo run --release --example ablation_policies
//! ```

use croupier::{CroupierConfig, CroupierNode, MergePolicy, SelectionPolicy};
use croupier_experiments::runner::{run_pss, ExperimentParams};

fn main() {
    let params = ExperimentParams::default()
        .with_seed(0xAB1A)
        .with_population(10, 40)
        .with_rounds(60)
        .with_sample_every(10);
    let combos = [
        (
            "tail+swapper (paper)",
            SelectionPolicy::Tail,
            MergePolicy::Swapper,
        ),
        ("tail+healer", SelectionPolicy::Tail, MergePolicy::Healer),
        (
            "random+swapper",
            SelectionPolicy::Random,
            MergePolicy::Swapper,
        ),
        (
            "random+healer",
            SelectionPolicy::Random,
            MergePolicy::Healer,
        ),
    ];
    for (label, selection, merge) in combos {
        let config = CroupierConfig::default()
            .with_selection(selection)
            .with_merge(merge);
        let out = run_pss(&params, move |id, class, _| {
            CroupierNode::new(id, class, config.clone())
        });
        let error = out.tail_avg_error(3).unwrap_or(f64::NAN);
        println!("ablation_policies: {label}: steady-state avg estimation error = {error:.4}");
    }
}
