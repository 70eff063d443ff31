//! Command-line driver that regenerates the paper's figures as plain-text tables.
//!
//! ```text
//! figures [--scale tiny|quick|paper|large|huge] [--json] [fig1 fig2 ... fig7a fig7b | all]
//! ```
//!
//! At the `paper` scale the populations and durations match §VII of the paper; the smaller
//! scales are proportionally reduced for quick runs, and `large` goes 20× beyond the paper
//! on the sharded phase-parallel engine. Output goes to stdout.

use std::env;
use std::process::ExitCode;

use croupier_experiments::figures::{
    fig1_stable_ratio, fig2_dynamic_ratio, fig3_system_size, fig4_ratio_sweep, fig5_churn,
    fig6_randomness, fig7_overhead, fig8_failure,
};
use croupier_experiments::{FigureData, Scale};

const USAGE: &str = "usage: figures [--scale tiny|quick|paper|large|huge] [--json] [FIGURE ...]\n\
                     figures: fig1 fig2 fig3 fig4 fig5 fig6 fig7a fig7b all (default: all)";

fn run_figure(name: &str, scale: Scale) -> Option<Vec<FigureData>> {
    match name {
        "fig1" => Some(fig1_stable_ratio::run(scale)),
        "fig2" => Some(fig2_dynamic_ratio::run(scale)),
        "fig3" => Some(fig3_system_size::run(scale)),
        "fig4" => Some(fig4_ratio_sweep::run(scale)),
        "fig5" => Some(fig5_churn::run(scale)),
        "fig6" => Some(fig6_randomness::run(scale)),
        "fig7a" => Some(fig7_overhead::run(scale)),
        "fig7b" => Some(fig8_failure::run(scale)),
        _ => None,
    }
}

const ALL_FIGURES: [&str; 8] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7a", "fig7b",
];

fn main() -> ExitCode {
    let mut scale = Scale::Quick;
    let mut as_json = false;
    let mut requested: Vec<String> = Vec::new();

    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let Some(value) = args.next() else {
                    eprintln!("--scale requires a value\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                match Scale::parse(&value) {
                    Some(parsed) => scale = parsed,
                    None => {
                        eprintln!("unknown scale '{value}'\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--json" => as_json = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown option '{other}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
            other => requested.push(other.to_string()),
        }
    }

    if requested.is_empty() || requested.iter().any(|r| r == "all") {
        requested = ALL_FIGURES.iter().map(|s| s.to_string()).collect();
    }

    for name in &requested {
        let Some(figures) = run_figure(name, scale) else {
            eprintln!("unknown figure '{name}'\n{USAGE}");
            return ExitCode::FAILURE;
        };
        for figure in figures {
            if as_json {
                println!("{}", figure.to_json());
            } else {
                println!("{}", figure.render_table());
            }
        }
    }
    ExitCode::SUCCESS
}
