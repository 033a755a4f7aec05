//! Accumulator for the traced run: named sums of time and counts, read out
//! as per-op means when a workload closes its ledger, plus raw samples
//! where a percentile is reported.

use std::collections::BTreeMap;
use std::time::Duration;

#[derive(Debug, Default)]
pub struct Ledger {
    sums: BTreeMap<String, f64>,
    samples: BTreeMap<String, Vec<f64>>,
}

impl Ledger {
    pub fn add_ms(&mut self, name: &str, d: Duration) {
        self.add(name, d.as_secs_f64() * 1e3);
    }

    pub fn add(&mut self, name: &str, v: f64) {
        *self.sums.entry(name.to_string()).or_insert(0.0) += v;
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Keep one sample of a distribution (for percentiles).
    pub fn push_sample(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_string()).or_default().push(v);
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }
}
