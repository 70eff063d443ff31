//! A streaming-dissemination workload on top of the peer-sampling service — the kind of
//! video overlay the paper's introduction motivates and its conclusion plans to
//! integrate with Croupier.
//!
//! This is a thin demo over the `croupier_experiments` workload engine: a publisher
//! emits one chunk per round, holders *push* each chunk to a sampled fan-out the round
//! after receiving it, and nodes missing chunks *pull* from one sampled holder per
//! round. Every transfer is judged by the same NAT delivery filter the protocols' own
//! messages ride.
//!
//! The comparison is deliberately unflattering to naive intuition. Running NAT-oblivious
//! Cyclon on the *same NATed population* does not collapse the stream — it reaches
//! slightly *higher* raw coverage than Croupier, because its views drift onto the
//! directly-reachable public core: pushes almost always land there, and private
//! subscribers pull the backlog from public holders. The price shows up elsewhere: a
//! third more duplicate traffic (the same chunks hammering the same small core) and a
//! view that no longer represents the population. Croupier's samples stay uniform —
//! which is the property the paper is actually after — but under *direct-only* transfer
//! many of those uniform pushes target private nodes no NAT mapping reaches, costing
//! coverage and latency; its successful serves end up even more public-heavy. Either
//! way, the `served by public` row shows both overlays leaning on the 20% public
//! minority for most deliveries: direct-path dissemination cannot tap private uplink
//! capacity, which is exactly the capacity argument for the NAT relaying the paper's
//! Gozar/Nylon baselines implement. It is also why the scenario/workload matrices run
//! Cyclon on an all-public population — on a NATed one its "peer sampling" silently
//! measures the public core, not the population.
//!
//! ```text
//! cargo run --release --example streaming_overlay
//! ```

use croupier::{CroupierConfig, CroupierNode};
use croupier_baselines::{BaselineConfig, CyclonNode};
use croupier_experiments::runner::run_pss;
use croupier_experiments::ExperimentParams;
use croupier_experiments::{WorkloadReport, WorkloadSpec};

const N_PUBLIC: usize = 40;
const N_PRIVATE: usize = 160;
/// Rounds before publishing starts — lets the overlay warm up to steady state.
const WARMUP_ROUNDS: u64 = 20;
const PUBLISH_ROUNDS: u64 = 10;
/// Seal window: a chunk's coverage is frozen this many rounds after publication.
const COVERAGE_ROUNDS: u64 = 16;

fn run<P, F>(make_node: F) -> WorkloadReport
where
    P: croupier_simulator::Protocol + croupier_simulator::PssNode + Send,
    P::Message: Send,
    F: FnMut(croupier_simulator::NodeId, croupier_simulator::NatClass) -> P,
{
    let spec = WorkloadSpec::default()
        .with_window(WARMUP_ROUNDS, PUBLISH_ROUNDS)
        .with_rate(1.0)
        .with_fanout(3)
        .with_coverage_rounds(COVERAGE_ROUNDS);
    let params = ExperimentParams::default()
        .with_seed(11)
        .with_population(N_PUBLIC, N_PRIVATE)
        .with_rounds(WARMUP_ROUNDS + PUBLISH_ROUNDS + COVERAGE_ROUNDS)
        .with_workload(spec);
    run_pss(&params, make_node)
        .workload
        .expect("workload was configured")
}

fn main() {
    println!(
        "Streaming {PUBLISH_ROUNDS} chunks over {} nodes ({N_PUBLIC} public / {N_PRIVATE} private), \
         push fan-out 3 + one pull per round, sealed after {COVERAGE_ROUNDS} rounds\n",
        N_PUBLIC + N_PRIVATE,
    );

    // Croupier: NAT-aware, uniform samples over the whole population.
    let croupier = run(|id, class| CroupierNode::new(id, class, CroupierConfig::default()));
    // Cyclon on the *same NATed population*: views drift onto the reachable public core.
    let cyclon = run(|id, _| CyclonNode::new(id, BaselineConfig));

    println!("{:>24} {:>12} {:>12}", "metric", "croupier", "cyclon/NATs");
    type Row = (&'static str, Box<dyn Fn(&WorkloadReport) -> String>);
    let rows: [Row; 7] = [
        (
            "chunk coverage",
            Box::new(|r| format!("{:.1}%", r.coverage * 100.0)),
        ),
        (
            "worst chunk",
            Box::new(|r| format!("{:.1}%", r.min_chunk_coverage * 100.0)),
        ),
        (
            "latency p50 (rounds)",
            Box::new(|r| format!("{}", r.latency_p50)),
        ),
        (
            "latency p95 (rounds)",
            Box::new(|r| format!("{}", r.latency_p95)),
        ),
        (
            "duplicate factor",
            Box::new(|r| format!("{:.2}", r.duplicate_factor)),
        ),
        (
            "served by public",
            Box::new(|r| format!("{:.1}%", r.public_serve_share * 100.0)),
        ),
        (
            "NAT-blocked transfers",
            Box::new(|r| format!("{}", r.nat_blocked)),
        ),
    ];
    for (label, fmt) in &rows {
        println!("{:>24} {:>12} {:>12}", label, fmt(&croupier), fmt(&cyclon));
    }

    println!(
        "\nBoth overlays deliver the stream off the {:.0}% public minority (croupier \
         {:.0}% / cyclon {:.0}% of deliveries served by public nodes): direct-only \
         transfer cannot tap private uplinks. Cyclon buys its coverage edge by drifting \
         onto that core — paying a {:.2}x duplicate factor against croupier's {:.2}x — \
         while croupier keeps the *samples* uniform and leaves converting blocked \
         private paths into deliveries to NAT relaying (see the gozar/nylon baselines).",
        100.0 * N_PUBLIC as f64 / (N_PUBLIC + N_PRIVATE) as f64,
        croupier.public_serve_share * 100.0,
        cyclon.public_serve_share * 100.0,
        cyclon.duplicate_factor,
        croupier.duplicate_factor,
    );
}
