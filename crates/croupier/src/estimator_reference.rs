//! The original neighbour-estimate cache of [`RatioEstimator`](crate::RatioEstimator),
//! retained as the executable specification of the stamp-based one.
//!
//! Every entry carries an explicit age that `advance_round` rewrites each round, the hit
//! history is re-folded on every call and new origins are inserted one `Vec::insert` at a
//! time. Its `share` shuffled a copy of the whole cache and so drew a different number of
//! random numbers; it has no counterpart to compare and is not kept. The differential
//! tests in [`estimator`](crate::estimator) drive both implementations with the same
//! traces and require identical estimates, counts and cache contents after every step.

use std::collections::VecDeque;

use crate::estimator::EstimateRecord;
use croupier_simulator::{NatClass, NodeId};

#[derive(Clone, Copy, Debug)]
struct CachedEstimate {
    ratio: f64,
    age: u32,
}

#[derive(Clone, Debug)]
pub(crate) struct ReferenceEstimator {
    class: NatClass,
    alpha: usize,
    gamma: u32,
    current_public_hits: u32,
    current_private_hits: u32,
    history: VecDeque<(u32, u32)>,
    local_estimate: Option<f64>,
    neighbour_estimates: Vec<(NodeId, CachedEstimate)>,
}

impl ReferenceEstimator {
    pub(crate) fn new(class: NatClass, alpha: usize, gamma: u32) -> Self {
        ReferenceEstimator {
            class,
            alpha,
            gamma,
            current_public_hits: 0,
            current_private_hits: 0,
            history: VecDeque::new(),
            local_estimate: None,
            neighbour_estimates: Vec::new(),
        }
    }

    pub(crate) fn record_request(&mut self, sender: NatClass) {
        match sender {
            NatClass::Public => self.current_public_hits += 1,
            NatClass::Private => self.current_private_hits += 1,
        }
    }

    pub(crate) fn advance_round(&mut self) {
        for (_, cached) in self.neighbour_estimates.iter_mut() {
            cached.age = cached.age.saturating_add(1);
        }
        let gamma = self.gamma;
        self.neighbour_estimates
            .retain(|(_, cached)| cached.age <= gamma);
        if self.class.is_public() {
            if let Some(ratio) = self.hits_ratio() {
                self.local_estimate = Some(ratio);
            }
        }
        self.history
            .push_back((self.current_public_hits, self.current_private_hits));
        while self.history.len() > self.alpha {
            self.history.pop_front();
        }
        self.current_public_hits = 0;
        self.current_private_hits = 0;
    }

    pub(crate) fn hits_ratio(&self) -> Option<f64> {
        let (public, private) = self.history.iter().fold((0u64, 0u64), |(p, v), (cu, cv)| {
            (p + *cu as u64, v + *cv as u64)
        });
        let total = public + private;
        if total == 0 {
            None
        } else {
            Some(public as f64 / total as f64)
        }
    }

    pub(crate) fn local_estimate(&self) -> Option<f64> {
        self.local_estimate
    }

    pub(crate) fn ingest(&mut self, records: &[EstimateRecord], self_node: NodeId) {
        for record in records {
            if record.origin() == self_node || record.age() > self.gamma {
                continue;
            }
            if !record.ratio.is_finite() || !(0.0..=1.0).contains(&record.ratio) {
                continue;
            }
            let fresh = CachedEstimate {
                ratio: record.ratio,
                age: record.age(),
            };
            match self
                .neighbour_estimates
                .binary_search_by_key(&record.origin(), |(origin, _)| *origin)
            {
                Ok(i) => {
                    if self.neighbour_estimates[i].1.age > record.age() {
                        self.neighbour_estimates[i].1 = fresh;
                    }
                }
                Err(i) => self.neighbour_estimates.insert(i, (record.origin(), fresh)),
            }
        }
    }

    pub(crate) fn estimate(&self) -> Option<f64> {
        let mut sum: f64 = self.neighbour_estimates.iter().map(|(_, c)| c.ratio).sum();
        let mut count = self.neighbour_estimates.len();
        if self.class.is_public() {
            if let Some(own) = self.local_estimate {
                sum += own;
                count += 1;
            }
        }
        if count == 0 {
            None
        } else {
            Some(sum / count as f64)
        }
    }

    pub(crate) fn cached_count(&self) -> usize {
        self.neighbour_estimates.len()
    }

    /// The cache as records, in ascending origin order.
    pub(crate) fn contents(&self) -> Vec<EstimateRecord> {
        self.neighbour_estimates
            .iter()
            .map(|(origin, cached)| EstimateRecord::with_age(*origin, cached.ratio, cached.age))
            .collect()
    }
}
