//! # soma-obs — campaign observability
//!
//! The observability layer of the SoMa reproduction: everything that
//! turns the engine's typed telemetry ([`SearchEvent`](soma_search::SearchEvent)
//! streams, [`LabEvent`] streams, run ledgers) into numbers a human or
//! a CI gate can act on. Three layers, bottom up:
//!
//! 1. **[`stats`]** — the streaming statistics engine: constant-space
//!    min/max/mean ([`StreamingStats`]), exact nearest-rank percentiles
//!    ([`Sample`]), the P² streaming quantile estimator
//!    ([`P2Quantile`]) and the [`sparkline`] renderer. Property-tested
//!    against a sort-based oracle; the *single* percentile
//!    implementation in the workspace.
//! 2. **[`summary`]** — the machine-readable [`CampaignSummary`] JSON
//!    artifact (`specs/SUMMARY.md`): per-scenario best-cost / latency /
//!    evals distributions, cache hit rate, failure counts and
//!    [`LedgerHealth`](soma_spec::LedgerHealth), producible live from a
//!    [`LabEvent`] stream or offline — byte-stably — from any ledger.
//!    CI trend-gates on it via [`CampaignSummary::check_against`].
//! 3. **[`watch`]** — the render model behind `soma-bench --bin watch`:
//!    a deterministic fold of events or ledger rows into the live cell
//!    grid, hit-rate line and per-scenario sparklines, with
//!    [`drill::gantt_for_row`] re-rendering any finished cell's
//!    `soma-sim` Gantt chart on demand.
//!
//! The crate holds the shared campaign-progress vocabulary too:
//! [`LabEvent`] is defined here and re-exported by the orchestrator in
//! `soma-bench`, so observers never need to depend on the machinery
//! that produces the events.
//!
//! Its JSON (the summary file, baselines) goes through
//! [`soma_search::json`], the workspace's one JSON model.

pub mod drill;
pub mod event;
pub mod stats;
pub mod summary;
pub mod watch;

pub use drill::gantt_for_row;
pub use event::LabEvent;
pub use stats::{sparkline, P2Quantile, Sample, StreamingStats};
pub use summary::{
    CampaignSummary, CellOutcome, Dist, RunCounts, ScenarioSummary, SUMMARY_VERSION,
};
pub use watch::{CellSlot, CellState, WatchModel};
