//! Metric names, units and the result line. The two tables below are the
//! ones `BENCHMARK.json` lists; every workload reports every metric of
//! the table its mode prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{nearest_rank, reportable_percentile};

/// End-to-end metrics (untraced runs), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("evals_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("best_cost_geomean", "J.s"),
    ("sim_latency_geomean_cycles", "cycles"),
    ("hit_p50_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs), with units. A layer a workload does
/// not exercise reports 0 ([`Report::unexercised`]).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lab.cells", "count"),
    ("lab.hits", "count"),
    ("lab.searched", "count"),
    ("lab.failed", "count"),
    ("lab.cell_p50_s", "s"),
    ("lab.cell_max_s", "s"),
    ("lab.idle_core_frac", "frac"),
    ("search.rounds", "count"),
    ("search.evals", "count"),
    ("search.rejected", "count"),
    ("search.eval_ok_ratio", "frac"),
    ("search.session_overhead_s", "s"),
    ("lfa.self_s", "s"),
    ("lfa.share", "frac"),
    ("lfa.evals_per_s", "1/s"),
    ("lfa.mutate_ns", "ns"),
    ("core.parse_lfa_ns", "ns"),
    ("sim.compile_ns", "ns"),
    ("sim.simulate_cost_ns", "ns"),
    ("core.peak_buffer_ns", "ns"),
    ("dlsa.self_s", "s"),
    ("dlsa.share", "frac"),
    ("dlsa.evals_per_s", "1/s"),
    ("dlsa.propose_ns", "ns"),
    ("dlsa.simulate_cost_ns", "ns"),
    ("dlsa.undo_ns", "ns"),
    ("ledger.load_ms", "ms"),
    ("ledger.lookup_us", "us"),
    ("ledger.decode_us", "us"),
    ("ledger.append_ms", "ms"),
    ("ledger.sync_index_ms", "ms"),
    ("ledger.rows", "count"),
    ("ledger.decodes", "count"),
    ("ledger.bytes", "bytes"),
    ("serve.connect_ms", "ms"),
    ("serve.hit_accept_p50_ms", "ms"),
    ("serve.hit_accept_p99_ms", "ms"),
    ("serve.hit_result_p50_ms", "ms"),
    ("serve.hit_result_p99_ms", "ms"),
    ("serve.miss_accept_p50_ms", "ms"),
    ("serve.miss_accept_p99_ms", "ms"),
    ("serve.miss_result_p50_ms", "ms"),
    ("serve.miss_result_p99_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.miss_p99_ms", "ms"),
    ("serve.served_before", "count"),
    ("serve.served_after", "count"),
    ("serve.cache_hits_before", "count"),
    ("serve.cache_hits_after", "count"),
    ("serve.rejected_before", "count"),
    ("serve.rejected_after", "count"),
    ("serve.cancelled_before", "count"),
    ("serve.cancelled_after", "count"),
    ("serve.panics_before", "count"),
    ("serve.panics_after", "count"),
    ("serve.quarantined_before", "count"),
    ("serve.quarantined_after", "count"),
    ("failed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// What a run measured, before rendering.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Sample count behind each percentile.
    samples: BTreeMap<String, usize>,
    pub attempted: u64,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Reports 0 for every per-layer metric of a layer (`prefix`, such as
    /// `serve.`) the workload does not exercise.
    pub fn unexercised(&mut self, prefix: &str) {
        for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with(prefix)) {
            self.set(*name, 0.0);
        }
    }

    /// The median of per-repetition or per-window figures, with their
    /// count.
    pub fn median(&mut self, name: &str, values: &[f64]) {
        self.samples.insert(name.to_string(), values.len());
        self.set(name, crate::stats::median(values));
    }

    /// A per-layer percentile: reported as 0 when fewer than ten samples
    /// lie beyond it (the sample count says why).
    pub fn layer_percentile(&mut self, name: String, values: &[f64], p: f64) {
        let pct = reportable_percentile(values, p);
        self.samples.insert(name.clone(), values.len());
        self.set(name, pct.map_or(0.0, |q| q.value));
    }

    /// A per-layer nearest-rank percentile of a small fixed population
    /// (cells of one campaign), reported whatever its sample count.
    pub fn layer_rank(&mut self, name: &str, values: &[f64], p: f64) {
        self.samples.insert(name.to_string(), values.len());
        self.set(name, nearest_rank(values, p).map_or(0.0, |q| q.value));
    }

    /// The sample-count line and the result line.
    pub fn render(&self, traced: bool) -> Result<(String, String), String> {
        let table = if traced { PER_LAYER } else { END_TO_END };
        if let Some(name) = self.values.keys().find(|k| !table.iter().any(|(n, _)| n == k)) {
            return Err(format!("metric {name} is not in the table this mode prints"));
        }
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = *self.values.get(*name).ok_or(format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(metrics, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        let samples: Vec<String> =
            self.samples.iter().map(|(k, n)| format!("\"{k}\": {n}")).collect();
        let samples = format!("{{\"samples\": {{{}}}}}", samples.join(", "));
        let line = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1)
        );
        Ok((samples, line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_metric_is_an_error_in_both_modes() {
        for (traced, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let mut r = Report::default();
            for (name, _) in &table[1..] {
                r.set(*name, 1.0);
            }
            let err = r.render(traced).unwrap_err();
            assert!(err.contains(table[0].0), "{err}");
            r.set(table[0].0, 1.0);
            assert!(r.render(traced).is_ok());
        }
    }

    #[test]
    fn unexercised_layers_report_zero() {
        let mut r = Report::default();
        for (name, _) in PER_LAYER.iter().filter(|(n, _)| !n.starts_with("serve.")) {
            r.set(*name, 1.0);
        }
        assert!(r.render(true).is_err());
        r.unexercised("serve.");
        let (_, line) = r.render(true).unwrap();
        assert!(line.contains("\"serve.connect_ms\": {\"value\": 0.0"), "{line}");
    }
}
