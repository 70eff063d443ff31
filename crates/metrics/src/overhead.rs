//! Protocol overhead per connectivity class (Fig. 7(a) of the paper).

use croupier_simulator::{NatClass, NodeId, TrafficLedger};

/// Average network load of the nodes of one connectivity class.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ClassOverhead {
    /// Number of nodes in the class.
    pub nodes: usize,
    /// Average load (bytes sent + received) per node per second.
    pub avg_load_bytes_per_sec: f64,
    /// Average number of messages sent per node per second.
    pub avg_messages_per_sec: f64,
}

/// Overhead report split by connectivity class.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OverheadReport {
    /// Load of public nodes.
    pub public: ClassOverhead,
    /// Load of private nodes.
    pub private: ClassOverhead,
}

impl OverheadReport {
    /// Subtracts a baseline report (typically Cyclon's) class-by-class, flooring at zero.
    /// Figure 7(a) of the paper reports overhead *relative to Cyclon*, i.e. the extra load a
    /// NAT-aware protocol pays on top of plain gossip.
    pub fn relative_to(&self, baseline: &OverheadReport) -> OverheadReport {
        fn diff(a: ClassOverhead, b: ClassOverhead) -> ClassOverhead {
            ClassOverhead {
                nodes: a.nodes,
                avg_load_bytes_per_sec: (a.avg_load_bytes_per_sec - b.avg_load_bytes_per_sec)
                    .max(0.0),
                avg_messages_per_sec: (a.avg_messages_per_sec - b.avg_messages_per_sec).max(0.0),
            }
        }
        OverheadReport {
            public: diff(self.public, baseline.public),
            private: diff(self.private, baseline.private),
        }
    }
}

/// Computes the per-class overhead from a traffic ledger.
///
/// `classes` maps every node to its connectivity class (nodes missing from the mapping are
/// skipped) and `window_secs` is the length of the measurement window in seconds.
///
/// # Panics
///
/// Panics if `window_secs` is not a positive finite number.
pub fn class_overhead<F>(
    traffic: &TrafficLedger,
    mut classes: F,
    window_secs: f64,
) -> OverheadReport
where
    F: FnMut(NodeId) -> Option<NatClass>,
{
    assert!(
        window_secs.is_finite() && window_secs > 0.0,
        "measurement window must be positive"
    );
    let mut public_bytes = 0u64;
    let mut public_msgs = 0u64;
    let mut public_nodes = 0usize;
    let mut private_bytes = 0u64;
    let mut private_msgs = 0u64;
    let mut private_nodes = 0usize;

    for (node, stats) in traffic.iter() {
        match classes(node) {
            Some(NatClass::Public) => {
                public_nodes += 1;
                public_bytes += stats.bytes_total();
                public_msgs += stats.messages_sent;
            }
            Some(NatClass::Private) => {
                private_nodes += 1;
                private_bytes += stats.bytes_total();
                private_msgs += stats.messages_sent;
            }
            None => {}
        }
    }

    let per_class = |nodes: usize, bytes: u64, msgs: u64| ClassOverhead {
        nodes,
        avg_load_bytes_per_sec: if nodes > 0 {
            bytes as f64 / nodes as f64 / window_secs
        } else {
            0.0
        },
        avg_messages_per_sec: if nodes > 0 {
            msgs as f64 / nodes as f64 / window_secs
        } else {
            0.0
        },
    };

    OverheadReport {
        public: per_class(public_nodes, public_bytes, public_msgs),
        private: per_class(private_nodes, private_bytes, private_msgs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> TrafficLedger {
        let mut ledger = TrafficLedger::new();
        // Two public nodes: 1000 and 2000 total bytes over the window.
        ledger.record_sent(NodeId::new(1), 600);
        ledger.record_received(NodeId::new(1), 400);
        ledger.record_sent(NodeId::new(2), 2000);
        // One private node: 500 bytes.
        ledger.record_sent(NodeId::new(10), 500);
        ledger
    }

    fn classes(node: NodeId) -> Option<NatClass> {
        match node.as_u64() {
            1 | 2 => Some(NatClass::Public),
            10 => Some(NatClass::Private),
            _ => None,
        }
    }

    #[test]
    fn averages_load_per_class_per_second() {
        let report = class_overhead(&ledger(), classes, 10.0);
        assert_eq!(report.public.nodes, 2);
        assert!((report.public.avg_load_bytes_per_sec - 150.0).abs() < 1e-9);
        assert_eq!(report.private.nodes, 1);
        assert!((report.private.avg_load_bytes_per_sec - 50.0).abs() < 1e-9);
        assert!(report.public.avg_messages_per_sec > 0.0);
    }

    #[test]
    fn unknown_nodes_are_skipped() {
        let mut ledger = ledger();
        ledger.record_sent(NodeId::new(99), 1_000_000);
        let report = class_overhead(&ledger, classes, 10.0);
        assert_eq!(report.public.nodes, 2);
        assert_eq!(report.private.nodes, 1);
    }

    #[test]
    fn relative_to_subtracts_the_baseline_and_floors_at_zero() {
        let a = OverheadReport {
            public: ClassOverhead {
                nodes: 2,
                avg_load_bytes_per_sec: 300.0,
                avg_messages_per_sec: 3.0,
            },
            private: ClassOverhead {
                nodes: 8,
                avg_load_bytes_per_sec: 50.0,
                avg_messages_per_sec: 1.0,
            },
        };
        let baseline = OverheadReport {
            public: ClassOverhead {
                nodes: 2,
                avg_load_bytes_per_sec: 100.0,
                avg_messages_per_sec: 2.0,
            },
            private: ClassOverhead {
                nodes: 8,
                avg_load_bytes_per_sec: 80.0,
                avg_messages_per_sec: 2.0,
            },
        };
        let rel = a.relative_to(&baseline);
        assert!((rel.public.avg_load_bytes_per_sec - 200.0).abs() < 1e-9);
        assert_eq!(rel.private.avg_load_bytes_per_sec, 0.0);
        assert_eq!(rel.private.avg_messages_per_sec, 0.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_window_is_rejected() {
        class_overhead(&TrafficLedger::new(), |_| None, 0.0);
    }

    #[test]
    fn empty_ledger_reports_zeroes() {
        let report = class_overhead(&TrafficLedger::new(), classes, 5.0);
        assert_eq!(report.public.nodes, 0);
        assert_eq!(report.public.avg_load_bytes_per_sec, 0.0);
    }
}
