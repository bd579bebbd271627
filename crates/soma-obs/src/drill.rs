//! Gantt drill-down: re-render the `soma-sim` timeline chart for any
//! finished ledger row, on demand.
//!
//! A ledger row persists the cell's winning
//! [`Encoding`](soma_core::Encoding) and its full simulated
//! [`Timeline`](soma_sim::Timeline), and the scenario registry can
//! rebuild the network the schedule was parsed against — everything
//! `soma_sim::render_gantt` needs. Rendering is therefore a pure
//! function of the row: no re-search, no re-simulation.

use soma_core::ParsedSchedule;
use soma_spec::ledger::LedgerRow;
use soma_spec::{registry, COCCO_SUFFIX};

/// Renders the Gantt chart of a finished ledger row at the given
/// terminal width. A Cocco twin row (id ending in
/// [`COCCO_SUFFIX`]) is drawn against its cell's registry network.
///
/// # Errors
///
/// A human-readable message when the row's scenario id is not in the
/// registry (an inline-hardware cell cannot be rebuilt from its id
/// alone) or its persisted encoding no longer parses against the
/// registry network (an engine-version skew the ledger key normally
/// prevents).
pub fn gantt_for_row(row: &LedgerRow, width: usize) -> Result<String, String> {
    let id = row.cell.strip_suffix(COCCO_SUFFIX).unwrap_or(&row.cell);
    let scenario = registry::lookup(id).ok_or_else(|| {
        format!(
            "scenario `{}` is not in the registry; only registry cells can be re-rendered",
            row.cell
        )
    })?;
    let net = scenario.network();
    // Binary ledger rows decode their outcome lazily — the drill-down
    // is the first (and only) consumer that needs the full timeline.
    let outcome = row
        .outcome()
        .ok_or_else(|| format!("row `{}` has a corrupt outcome payload on disk", row.cell))?;
    let sched = ParsedSchedule::new(&net, &outcome.best.encoding)
        .map_err(|e| format!("persisted encoding no longer parses: {e}"))?;
    Ok(soma_sim::render_gantt(&net, &sched, &outcome.best.report.timeline, width))
}
