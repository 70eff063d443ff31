//! The sim digest: one 64-bit hash of everything a run simulated.
//!
//! A change meant only to speed the simulator up must leave every simulated statistic
//! identical. The digest makes that a one-word comparison: it folds the bit patterns of
//! every sample, the per-node traffic ledger, the NAT and fault counters and the workload
//! report. Two runs of the same seed must agree on it, and so must the traced rerun — that
//! is what proves the traced numbers describe the same simulation.

use croupier_experiments::matrix::WorkloadScenarioReport;
use croupier_experiments::RunOutput;

/// FNV-1a, 64 bit: fixed by its definition, unlike `DefaultHasher`, so digests written
/// to result files stay comparable across toolchains.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    fn opt_f64(&mut self, value: Option<f64>) {
        match value {
            Some(v) => {
                self.u64(1);
                self.f64(v);
            }
            None => self.u64(0),
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of one driver run.
pub(crate) fn of_run(out: &RunOutput) -> u64 {
    let mut h = Fnv::new();
    h.u64(out.samples.len() as u64);
    for s in &out.samples {
        h.u64(s.round);
        h.u64(s.node_count as u64);
        h.f64(s.true_ratio);
        h.f64(s.estimation.average);
        h.f64(s.estimation.maximum);
        h.u64(s.estimation.nodes_with_estimate as u64);
        h.u64(s.estimation.nodes_without_estimate as u64);
        h.opt_f64(s.avg_path_length);
        h.opt_f64(s.clustering);
        h.opt_f64(s.largest_component);
        h.opt_f64(s.indegree_gini);
    }
    h.f64(out.final_true_ratio);
    h.u64(out.final_snapshot.node_count() as u64);
    h.u64(out.final_snapshot.edge_count() as u64);
    // The ledger iterates in hash-map order, so per-node entries are folded with a
    // commutative sum of per-node hashes.
    let mut ledger = 0u64;
    for (id, t) in out.traffic.iter() {
        let mut node = Fnv::new();
        for v in [
            id.as_u64(),
            t.bytes_sent,
            t.bytes_received,
            t.messages_sent,
            t.messages_received,
            t.messages_dropped,
        ] {
            node.u64(v);
        }
        ledger = ledger.wrapping_add(node.finish());
    }
    h.u64(out.traffic.len() as u64);
    h.u64(ledger);
    let nat = &out.nat_stats;
    for v in [
        nat.public_nodes as u64,
        nat.private_nodes as u64,
        nat.upnp_nodes as u64,
        nat.blocked_messages,
        nat.stale_binding_failures,
        nat.hairpin_blocked,
        nat.offline_nodes as u64,
    ] {
        h.u64(v);
    }
    let f = &out.fault_report;
    for v in [
        f.injected_drops,
        f.burst_drops,
        f.duplicates,
        f.reorders,
        f.corruptions,
        f.retries_fired,
        f.exchanges_abandoned,
    ] {
        h.u64(v);
    }
    match &out.workload {
        Some(w) => {
            h.u64(1);
            for v in [
                w.chunks_published,
                w.chunks_sealed,
                w.expected_deliveries,
                w.unique_deliveries,
                w.total_deliveries,
                w.pushes_attempted,
                w.pulls_served,
                w.nat_blocked,
                w.fault_dropped,
            ] {
                h.u64(v);
            }
            for v in [
                w.coverage,
                w.min_chunk_coverage,
                w.latency_p50,
                w.latency_p95,
                w.latency_p99,
                w.duplicate_factor,
                w.public_serve_share,
            ] {
                h.f64(v);
            }
        }
        None => h.u64(0),
    }
    h.finish()
}

/// Digest of a workload-matrix result: the JSON the `workload_matrix` binary writes.
pub(crate) fn of_matrix(reports: &[WorkloadScenarioReport]) -> u64 {
    let mut h = Fnv::new();
    for report in reports {
        h.bytes(report.to_json().as_bytes());
    }
    h.finish()
}

pub(crate) fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use croupier_experiments::protocols::{run_kind, ProtocolConfigs};
    use croupier_experiments::{ExperimentParams, ProtocolKind};

    #[test]
    fn fnv_matches_its_published_test_vectors() {
        let mut h = Fnv::new();
        h.bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_is_stable_across_reruns_and_thread_counts_and_moves_with_the_seed() {
        let params = |seed: u64, threads: usize| {
            ExperimentParams::default()
                .with_seed(seed)
                .with_population(8, 32)
                .with_rounds(20)
                .with_engine_threads(threads)
        };
        let run = |seed, threads| {
            of_run(&run_kind(
                ProtocolKind::Croupier,
                &params(seed, threads),
                &ProtocolConfigs::default(),
            ))
        };
        let reference = run(5, 1);
        assert_eq!(reference, run(5, 1), "same seed, same digest");
        assert_eq!(
            reference,
            run(5, 2),
            "sharded runs are thread-count independent"
        );
        assert_ne!(reference, run(6, 1), "another seed is another simulation");
        assert_eq!(hex(0xab), "00000000000000ab");
    }
}
