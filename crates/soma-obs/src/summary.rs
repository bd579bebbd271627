//! The machine-readable campaign summary: one JSON object describing a
//! campaign's outcome distributions, cache behaviour and ledger health.
//! The schema is specified in `specs/SUMMARY.md`; [`SUMMARY_VERSION`]
//! gates it.
//!
//! A summary is producible two ways that must agree:
//!
//! * **offline** — [`CampaignSummary::from_ledger`] over any run
//!   ledger. Deterministic and **byte-stable**: the same ledger bytes
//!   render the same summary bytes (pinned by a golden test), which is
//!   what lets CI diff summaries across commits and trend-gate on them.
//! * **live** — [`CampaignSummary::from_cells`] over the per-cell
//!   outcomes a `lab` run accumulated, plus an optional [`RunCounts`]
//!   block carrying run-only facts (hit rate, wall clock). Wall-clock
//!   never enters the offline sections, so live and offline summaries
//!   of the same campaign agree on everything except the `run` block.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use soma_search::json::{self, Value};
use soma_search::ENGINE_VERSION;
use soma_spec::ledger::{Ledger, LedgerRow, LEDGER_VERSION};
use soma_spec::LedgerHealth;

use crate::stats::Sample;

/// Campaign summary schema version; bump on any breaking field change.
pub const SUMMARY_VERSION: u64 = 1;

/// One finished cell's headline numbers — the input unit of a summary.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Scenario id of the cell.
    pub scenario: String,
    /// Best (envelope) cost of the cell's portfolio.
    pub cost: f64,
    /// Best latency in cycles.
    pub latency_cycles: u64,
    /// Completed schedule evaluations of the cell's portfolio.
    pub evals: u64,
}

impl CellOutcome {
    /// The headline numbers of one ledger row.
    #[must_use]
    pub fn from_row(row: &LedgerRow) -> Self {
        Self {
            scenario: row.cell.clone(),
            cost: row.best_cost,
            latency_cycles: row.latency_cycles,
            evals: row.evals,
        }
    }
}

/// A distribution digest: count, extremes, mean and the three
/// nearest-rank percentiles every consumer asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Observations.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// 50th percentile (nearest rank).
    pub p50: f64,
    /// 90th percentile (nearest rank).
    pub p90: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
}

impl Dist {
    /// Digests an exact sample.
    #[must_use]
    pub fn of(sample: &mut Sample) -> Self {
        let s = sample.stats();
        Self {
            count: sample.len(),
            min: s.min(),
            max: s.max(),
            mean: s.mean(),
            p50: sample.percentile(50.0),
            p90: sample.percentile(90.0),
            p99: sample.percentile(99.0),
        }
    }

    fn to_json(self) -> Value {
        let mut o = Value::obj();
        o.push("count", (self.count as u64).into());
        o.push("min", self.min.into());
        o.push("max", self.max.into());
        o.push("mean", self.mean.into());
        o.push("p50", self.p50.into());
        o.push("p90", self.p90.into());
        o.push("p99", self.p99.into());
        o
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        Ok(Self {
            count: v.field("count", Value::as_u64)? as usize,
            min: v.field("min", Value::as_f64)?,
            max: v.field("max", Value::as_f64)?,
            mean: v.field("mean", Value::as_f64)?,
            p50: v.field("p50", Value::as_f64)?,
            p90: v.field("p90", Value::as_f64)?,
            p99: v.field("p99", Value::as_f64)?,
        })
    }
}

/// Per-scenario digest: one campaign scenario's cells, distributions
/// over their best costs, latencies and evaluation counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSummary {
    /// Scenario id.
    pub scenario: String,
    /// Cells of this scenario.
    pub cells: usize,
    /// Distribution of per-cell best costs.
    pub best_cost: Dist,
    /// Distribution of per-cell best latencies (cycles).
    pub latency_cycles: Dist,
    /// Distribution of per-cell completed evaluations.
    pub evals: Dist,
    /// Total completed evaluations across the scenario's cells.
    pub total_evals: u64,
}

/// Run-only facts a live `lab` invocation knows but a ledger does not:
/// cache behaviour, failures and wall clock. Optional in the summary —
/// absent when the summary was derived offline from ledger bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunCounts {
    /// Cells served from the ledger.
    pub hits: usize,
    /// Cells that ran a search this run.
    pub searched: usize,
    /// Cells whose search panicked (isolated; no ledger row).
    pub failed: usize,
    /// Whether a stop request cut the run short.
    pub stopped: bool,
    /// Wall-clock of the run in seconds, when measured.
    pub elapsed_s: Option<f64>,
}

impl RunCounts {
    /// Ledger hit rate of the run: hits over resolved cells, `0.0` when
    /// nothing resolved.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let resolved = self.hits + self.searched;
        if resolved == 0 {
            0.0
        } else {
            self.hits as f64 / resolved as f64
        }
    }
}

/// The machine-readable campaign summary (`specs/SUMMARY.md`).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Campaign name.
    pub name: String,
    /// Engine version the summary describes
    /// ([`soma_search::ENGINE_VERSION`]).
    pub engine: String,
    /// Ledger format version the cells came from.
    pub ledger_version: u64,
    /// Total cells summarised.
    pub cells: usize,
    /// Per-scenario digests, sorted by scenario id.
    pub scenarios: Vec<ScenarioSummary>,
    /// Distribution of best cost across **all** cells.
    pub best_cost: Dist,
    /// Total completed evaluations across all cells.
    pub total_evals: u64,
    /// What loading the ledger found and repaired.
    pub health: LedgerHealth,
    /// Run-only block; `None` for summaries derived offline.
    pub run: Option<RunCounts>,
}

impl CampaignSummary {
    /// Builds a summary from per-cell outcomes (the live path; pass
    /// `run` for the run-only block) under the current engine and
    /// ledger versions.
    #[must_use]
    pub fn from_cells(
        name: &str,
        cells: &[CellOutcome],
        health: LedgerHealth,
        run: Option<RunCounts>,
    ) -> Self {
        let mut by_scenario: BTreeMap<&str, Vec<&CellOutcome>> = BTreeMap::new();
        for cell in cells {
            by_scenario.entry(cell.scenario.as_str()).or_default().push(cell);
        }
        let mut overall = Sample::new();
        let mut total_evals = 0u64;
        let scenarios = by_scenario
            .into_iter()
            .map(|(scenario, group)| {
                let (mut cost, mut latency, mut evals) =
                    (Sample::new(), Sample::new(), Sample::new());
                let mut scenario_evals = 0u64;
                for cell in &group {
                    cost.push(cell.cost);
                    latency.push(cell.latency_cycles as f64);
                    evals.push(cell.evals as f64);
                    overall.push(cell.cost);
                    scenario_evals += cell.evals;
                }
                total_evals += scenario_evals;
                ScenarioSummary {
                    scenario: scenario.to_string(),
                    cells: group.len(),
                    best_cost: Dist::of(&mut cost),
                    latency_cycles: Dist::of(&mut latency),
                    evals: Dist::of(&mut evals),
                    total_evals: scenario_evals,
                }
            })
            .collect();
        Self {
            name: name.to_string(),
            engine: ENGINE_VERSION.to_string(),
            ledger_version: LEDGER_VERSION,
            cells: cells.len(),
            scenarios,
            best_cost: Dist::of(&mut overall),
            total_evals,
            health,
            run,
        }
    }

    /// Builds a summary offline from a loaded ledger (the byte-stable
    /// path) over its [`live_rows`](Ledger::live_rows), the rows ledger
    /// lookups resolve to; health comes from the load.
    #[must_use]
    pub fn from_ledger(name: &str, ledger: &Ledger) -> Self {
        let cells: Vec<CellOutcome> = ledger.live_rows().map(CellOutcome::from_row).collect();
        Self::from_cells(name, &cells, ledger.health(), None)
    }

    /// Renders the summary as its canonical single-line JSON object.
    /// Deterministic and byte-stable: equal summaries render equal
    /// bytes.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut o = Value::obj();
        o.push("v", SUMMARY_VERSION.into());
        o.push("name", self.name.as_str().into());
        o.push("engine", self.engine.as_str().into());
        o.push("ledger_version", self.ledger_version.into());
        o.push("cells", (self.cells as u64).into());
        let mut arr = Vec::new();
        for sc in &self.scenarios {
            let mut s = Value::obj();
            s.push("scenario", sc.scenario.as_str().into());
            s.push("cells", (sc.cells as u64).into());
            s.push("best_cost", sc.best_cost.to_json());
            s.push("latency_cycles", sc.latency_cycles.to_json());
            s.push("evals", sc.evals.to_json());
            s.push("total_evals", sc.total_evals.into());
            arr.push(s);
        }
        o.push("scenarios", Value::Arr(arr));
        o.push("best_cost", self.best_cost.to_json());
        o.push("total_evals", self.total_evals.into());
        let mut h = Value::obj();
        h.push("kept", (self.health.kept as u64).into());
        h.push("quarantined", (self.health.quarantined as u64).into());
        h.push("truncated", self.health.truncated.into());
        h.push("duplicates", (self.health.duplicates as u64).into());
        o.push("health", h);
        if let Some(run) = &self.run {
            let mut r = Value::obj();
            r.push("hits", (run.hits as u64).into());
            r.push("searched", (run.searched as u64).into());
            r.push("failed", (run.failed as u64).into());
            r.push("stopped", run.stopped.into());
            r.push("hit_rate", run.hit_rate().into());
            if let Some(elapsed) = run.elapsed_s {
                r.push("elapsed_s", elapsed.into());
                if elapsed > 0.0 {
                    r.push("evals_per_sec", (self.total_evals as f64 / elapsed).into());
                }
            }
            o.push("run", r);
        }
        o
    }

    /// [`to_json`](Self::to_json) rendered as its one-line string (no
    /// trailing newline).
    #[must_use]
    pub fn to_string_stable(&self) -> String {
        json::to_string(&self.to_json())
    }

    /// Writes the summary file: its one line plus a newline, creating
    /// the parent directory first when it is missing.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or writing the file.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, format!("{}\n", self.to_string_stable()))
    }

    /// Parses a summary previously rendered by
    /// [`to_json`](Self::to_json) — the baseline side of a trend check.
    /// The `run` block and `evals_per_sec` are optional (additive
    /// fields follow the same evolution rule as the serve protocol:
    /// unknown fields are ignored, absent optional fields default, and
    /// a present field of the wrong type is an error).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first missing or mistyped
    /// field, or an unsupported schema version.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let version = v.field("v", Value::as_u64)?;
        if version != SUMMARY_VERSION {
            return Err(format!("unsupported summary version {version}"));
        }
        let scenarios = v
            .field("scenarios", Value::as_arr)?
            .iter()
            .map(|s| {
                Ok(ScenarioSummary {
                    scenario: s.field("scenario", Value::as_str)?.to_string(),
                    cells: s.field("cells", Value::as_u64)? as usize,
                    best_cost: Dist::from_json(s.field("best_cost", Some)?)?,
                    latency_cycles: Dist::from_json(s.field("latency_cycles", Some)?)?,
                    evals: Dist::from_json(s.field("evals", Some)?)?,
                    total_evals: s.field("total_evals", Value::as_u64)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let h = v.field("health", Some)?;
        let health = LedgerHealth {
            kept: h.field("kept", Value::as_u64)? as usize,
            quarantined: h.field("quarantined", Value::as_u64)? as usize,
            truncated: h.field("truncated", Value::as_bool)?,
            duplicates: h.field("duplicates", Value::as_u64)? as usize,
        };
        let run = match v.opt_field("run", Some)? {
            Some(r) => Some(RunCounts {
                hits: r.field("hits", Value::as_u64)? as usize,
                searched: r.field("searched", Value::as_u64)? as usize,
                failed: r.field("failed", Value::as_u64)? as usize,
                stopped: r.opt_field("stopped", Value::as_bool)?.unwrap_or(false),
                elapsed_s: r.opt_field("elapsed_s", Value::as_f64)?,
            }),
            None => None,
        };
        Ok(Self {
            name: v.field("name", Value::as_str)?.to_string(),
            engine: v.field("engine", Value::as_str)?.to_string(),
            ledger_version: v.field("ledger_version", Value::as_u64)?,
            cells: v.field("cells", Value::as_u64)? as usize,
            scenarios,
            best_cost: Dist::from_json(v.field("best_cost", Some)?)?,
            total_evals: v.field("total_evals", Value::as_u64)?,
            health,
            run,
        })
    }

    /// Trend-gates this summary against a baseline: every baseline
    /// scenario must still be present, and its best (minimum) cost must
    /// not regress by more than `tolerance` (relative: `0.05` = 5 %
    /// worse allowed). Returns one human-readable line per violation —
    /// empty means the gate passes. Improvements never fail the gate.
    #[must_use]
    pub fn check_against(&self, baseline: &Self, tolerance: f64) -> Vec<String> {
        let mut violations = Vec::new();
        for base in &baseline.scenarios {
            let Some(cur) = self.scenarios.iter().find(|s| s.scenario == base.scenario) else {
                violations.push(format!(
                    "scenario {} present in the baseline but missing from this summary",
                    base.scenario
                ));
                continue;
            };
            let allowed = base.best_cost.min * (1.0 + tolerance);
            if cur.best_cost.min > allowed {
                violations.push(format!(
                    "scenario {}: best cost {:.6e} exceeds baseline {:.6e} by more than {:.1}% \
                     (allowed {:.6e})",
                    base.scenario,
                    cur.best_cost.min,
                    base.best_cost.min,
                    tolerance * 100.0,
                    allowed
                ));
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells() -> Vec<CellOutcome> {
        vec![
            CellOutcome { scenario: "b".into(), cost: 2.0, latency_cycles: 200, evals: 20 },
            CellOutcome { scenario: "a".into(), cost: 1.0, latency_cycles: 100, evals: 10 },
            CellOutcome { scenario: "b".into(), cost: 4.0, latency_cycles: 400, evals: 40 },
        ]
    }

    #[test]
    fn scenarios_sort_by_id_and_aggregate() {
        let s = CampaignSummary::from_cells("t", &cells(), LedgerHealth::default(), None);
        assert_eq!(s.cells, 3);
        assert_eq!(s.total_evals, 70);
        let ids: Vec<&str> = s.scenarios.iter().map(|x| x.scenario.as_str()).collect();
        assert_eq!(ids, ["a", "b"]);
        let b = &s.scenarios[1];
        assert_eq!((b.cells, b.total_evals), (2, 60));
        assert_eq!((b.best_cost.min, b.best_cost.max, b.best_cost.mean), (2.0, 4.0, 3.0));
        assert_eq!(s.best_cost.count, 3);
        assert_eq!(s.best_cost.p50, 2.0);
    }

    #[test]
    fn json_round_trips_and_is_stable() {
        let run = RunCounts { hits: 1, searched: 2, failed: 0, stopped: false, elapsed_s: None };
        let s = CampaignSummary::from_cells("t", &cells(), LedgerHealth::default(), Some(run));
        let line = s.to_string_stable();
        let parsed = CampaignSummary::from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.to_string_stable(), line, "render is a fixed point");
        assert!(line.contains("\"hit_rate\":"), "{line}");
    }

    #[test]
    fn hit_rate_is_hits_over_resolved() {
        let r = RunCounts { hits: 1, searched: 3, failed: 1, stopped: false, elapsed_s: None };
        assert_eq!(r.hit_rate(), 0.25);
        let empty = RunCounts { hits: 0, searched: 0, failed: 0, stopped: true, elapsed_s: None };
        assert_eq!(empty.hit_rate(), 0.0);
    }

    #[test]
    fn trend_gate_flags_regressions_not_improvements() {
        let base = CampaignSummary::from_cells("t", &cells(), LedgerHealth::default(), None);
        let mut worse = cells();
        worse[1].cost = 1.2; // scenario "a": 1.0 -> 1.2, a 20% regression
        let cur = CampaignSummary::from_cells("t", &worse, LedgerHealth::default(), None);
        assert_eq!(cur.check_against(&base, 0.25), Vec::<String>::new());
        let violations = cur.check_against(&base, 0.05);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("scenario a"), "{}", violations[0]);

        let mut better = cells();
        better[1].cost = 0.5;
        let cur = CampaignSummary::from_cells("t", &better, LedgerHealth::default(), None);
        assert!(cur.check_against(&base, 0.0).is_empty(), "improvements pass");

        let missing =
            CampaignSummary::from_cells("t", &cells()[..1], LedgerHealth::default(), None);
        let violations = missing.check_against(&base, 0.5);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("missing"), "{}", violations[0]);
    }

    #[test]
    fn version_gate_rejects_foreign_summaries() {
        let err = CampaignSummary::from_json(&json::parse("{\"v\":99}").unwrap()).unwrap_err();
        assert!(err.contains("unsupported summary version"), "{err}");
    }

    #[test]
    fn a_mistyped_field_is_named() {
        let line = CampaignSummary::from_cells("t", &cells(), LedgerHealth::default(), None)
            .to_string_stable()
            .replacen("\"cells\":3", "\"cells\":\"3\"", 1);
        let err = CampaignSummary::from_json(&json::parse(&line).unwrap()).unwrap_err();
        assert_eq!(err, "`cells` has the wrong type");
    }
}
