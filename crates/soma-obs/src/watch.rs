//! The `watch` TUI's render model: a pure, deterministic fold of
//! campaign progress into a text frame. The binary owns the terminal
//! (ANSI repaints, stdin commands); this module owns **what** is on
//! screen, so the same observations render the same frame whether they
//! arrived live ([`WatchModel::observe`] on a [`LabEvent`] stream) or
//! from replaying a finished ledger ([`WatchModel::observe_row`]) —
//! the equivalence the acceptance tests pin.

use std::collections::HashMap;

use soma_spec::ledger::LedgerRow;

use crate::event::LabEvent;
use crate::stats::sparkline;

/// Lifecycle state of one campaign cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellState {
    /// Queued, not yet resolved.
    Queued,
    /// Search in flight.
    Running,
    /// Served from the ledger without search work.
    Cached,
    /// Searched and written to the ledger.
    Finished,
    /// Search panicked; isolated, no ledger row.
    Failed,
}

impl CellState {
    /// The cell's one-character grid glyph.
    #[must_use]
    pub fn glyph(self) -> char {
        match self {
            CellState::Queued => '.',
            CellState::Running => '>',
            CellState::Cached => '=',
            CellState::Finished => '#',
            CellState::Failed => 'X',
        }
    }
}

/// One cell's slot in the model.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSlot {
    /// Scenario id.
    pub id: String,
    /// Ledger key (16 hex digits); empty until known.
    pub hash: String,
    /// Lifecycle state.
    pub state: CellState,
    /// Best cost, once resolved with a result.
    pub cost: Option<f64>,
    /// Best latency in cycles, once resolved with a result.
    pub latency_cycles: Option<u64>,
    /// Completed evaluations, once resolved with a result.
    pub evals: Option<u64>,
}

/// The deterministic render model behind `soma-bench --bin watch`.
#[derive(Debug, Clone, Default)]
pub struct WatchModel {
    slots: Vec<CellSlot>,
    by_hash: HashMap<String, usize>,
}

impl WatchModel {
    /// An empty model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// All cell slots, in arrival (cell) order.
    #[must_use]
    pub fn slots(&self) -> &[CellSlot] {
        &self.slots
    }

    fn slot_by_hash(&mut self, cell: &str, hash: &str) -> &mut CellSlot {
        if let Some(&i) = self.by_hash.get(hash) {
            return &mut self.slots[i];
        }
        self.by_hash.insert(hash.to_string(), self.slots.len());
        self.slots.push(CellSlot {
            id: cell.to_string(),
            hash: hash.to_string(),
            state: CellState::Queued,
            cost: None,
            latency_cycles: None,
            evals: None,
        });
        self.slots.last_mut().expect("just pushed")
    }

    /// Folds one live orchestrator event in.
    pub fn observe(&mut self, ev: &LabEvent) {
        match ev {
            LabEvent::Queued { cell, hash } => {
                // A repeated hash is a duplicate cell in the spec; it
                // shares the first occurrence's slot (the orchestrator
                // searches it once), so the grid shows real work units.
                let _ = self.slot_by_hash(cell, hash);
            }
            LabEvent::Cached { cell, hash } => {
                let slot = self.slot_by_hash(cell, hash);
                if slot.state == CellState::Queued {
                    slot.state = CellState::Cached;
                }
            }
            LabEvent::Started { cell } => {
                if let Some(slot) =
                    self.slots.iter_mut().find(|s| s.id == *cell && s.state == CellState::Queued)
                {
                    slot.state = CellState::Running;
                }
            }
            LabEvent::Finished { cell, hash, cost, latency_cycles, evals } => {
                let slot = self.slot_by_hash(cell, hash);
                slot.state = CellState::Finished;
                slot.cost = Some(*cost);
                slot.latency_cycles = Some(*latency_cycles);
                slot.evals = Some(*evals);
            }
            LabEvent::Failed { cell, hash, .. } => {
                let slot = self.slot_by_hash(cell, hash);
                slot.state = CellState::Failed;
            }
        }
    }

    /// Folds one ledger row in (the offline replay path). Replayed rows
    /// are searched results by definition — a ledger does not record
    /// which later runs hit them — so the slot lands in
    /// [`CellState::Finished`], exactly the state a cold live run ends
    /// in.
    pub fn observe_row(&mut self, row: &LedgerRow) {
        let slot = self.slot_by_hash(&row.cell, &row.hash);
        slot.state = CellState::Finished;
        slot.cost = Some(row.best_cost);
        slot.latency_cycles = Some(row.latency_cycles);
        slot.evals = Some(row.evals);
    }

    /// State counts: `(queued, running, cached, finished, failed)`.
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0, 0);
        for slot in &self.slots {
            match slot.state {
                CellState::Queued => c.0 += 1,
                CellState::Running => c.1 += 1,
                CellState::Cached => c.2 += 1,
                CellState::Finished => c.3 += 1,
                CellState::Failed => c.4 += 1,
            }
        }
        c
    }

    /// Ledger hit rate over resolved cells (cached + finished), `0.0`
    /// when nothing has resolved.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let (_, _, cached, finished, _) = self.counts();
        let resolved = cached + finished;
        if resolved == 0 {
            0.0
        } else {
            cached as f64 / resolved as f64
        }
    }

    /// Renders the cell grid, wrapped to at most `width` glyphs per
    /// line.
    #[must_use]
    pub fn grid(&self, width: usize) -> String {
        let width = width.max(8);
        let mut out = String::new();
        for chunk in self.slots.chunks(width) {
            out.extend(chunk.iter().map(|s| s.state.glyph()));
            out.push('\n');
        }
        out
    }

    /// Renders the full headless frame: header, grid, per-scenario
    /// best-cost table with sparklines. Deterministic for a given model
    /// state; `width` bounds the grid and the sparkline column.
    #[must_use]
    pub fn render(&self, width: usize) -> String {
        let (queued, running, cached, finished, failed) = self.counts();
        let mut out = format!(
            "cells {total}: {queued} queued, {running} running, {cached} cached, \
             {finished} finished, {failed} failed | hit rate {rate:.1}%\n",
            total = self.slots.len(),
            rate = self.hit_rate() * 100.0,
        );
        out.push_str(&self.grid(width));

        // Per-scenario rows: first-appearance order (cell order), one
        // row per distinct scenario id, best cost = min over its cells,
        // sparkline over its cells' costs in cell order.
        let mut order: Vec<&str> = Vec::new();
        let mut costs: HashMap<&str, Vec<f64>> = HashMap::new();
        for slot in &self.slots {
            if !costs.contains_key(slot.id.as_str()) {
                order.push(&slot.id);
            }
            let entry = costs.entry(slot.id.as_str()).or_default();
            if let Some(cost) = slot.cost {
                entry.push(cost);
            }
        }
        if !order.is_empty() {
            let id_w = order.iter().map(|id| id.chars().count()).max().unwrap_or(0).max(8);
            out.push_str(&format!(
                "{:<id_w$}  {:>12}  {:>6}  trend\n",
                "scenario", "best cost", "cells"
            ));
            for id in order {
                let cell_costs = &costs[id];
                let best = cell_costs.iter().copied().fold(f64::INFINITY, f64::min);
                let best =
                    if cell_costs.is_empty() { "-".to_string() } else { format!("{best:.4e}") };
                let spark_budget = width.saturating_sub(id_w + 24).max(4);
                let tail: Vec<f64> = cell_costs
                    .iter()
                    .copied()
                    .skip(cell_costs.len().saturating_sub(spark_budget))
                    .collect();
                out.push_str(&format!(
                    "{id:<id_w$}  {best:>12}  {cells:>6}  {spark}\n",
                    cells = cell_costs.len(),
                    spark = sparkline(&tail),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(cell: &str, hash: &str, cost: f64) -> LabEvent {
        LabEvent::Finished {
            cell: cell.into(),
            hash: hash.into(),
            cost,
            latency_cycles: 100,
            evals: 10,
        }
    }

    #[test]
    fn events_fold_into_grid_states() {
        let mut m = WatchModel::new();
        for (cell, hash) in [("a", "h1"), ("b", "h2"), ("c", "h3"), ("d", "h4")] {
            m.observe(&LabEvent::Queued { cell: cell.into(), hash: hash.into() });
        }
        m.observe(&LabEvent::Cached { cell: "a".into(), hash: "h1".into() });
        m.observe(&LabEvent::Started { cell: "b".into() });
        m.observe(&finished("b", "h2", 2.0));
        m.observe(&LabEvent::Failed { cell: "c".into(), hash: "h3".into(), error: "boom".into() });

        assert_eq!(m.counts(), (1, 0, 1, 1, 1));
        assert_eq!(m.grid(80), "=#X.\n");
        assert_eq!(m.hit_rate(), 0.5);
    }

    #[test]
    fn duplicate_hashes_share_one_slot() {
        let mut m = WatchModel::new();
        m.observe(&LabEvent::Queued { cell: "a".into(), hash: "h1".into() });
        m.observe(&LabEvent::Queued { cell: "a".into(), hash: "h1".into() });
        assert_eq!(m.slots().len(), 1);
    }

    #[test]
    fn replay_matches_a_cold_live_run() {
        // A cold live run: queued, started, finished. The replay path
        // only sees the ledger row. Both must render identically.
        let mut live = WatchModel::new();
        live.observe(&LabEvent::Queued { cell: "a".into(), hash: "h1".into() });
        live.observe(&LabEvent::Started { cell: "a".into() });
        live.observe(&finished("a", "h1", 3.0));

        // observe_row needs a real LedgerRow; the equivalence against a
        // genuine ledger is pinned end-to-end in the soma-bench tests.
        // Here: the state a Finished event leaves is the state replay
        // targets.
        assert_eq!(live.counts(), (0, 0, 0, 1, 0));
        assert_eq!(live.slots()[0].cost, Some(3.0));
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let mut m = WatchModel::new();
        m.observe(&LabEvent::Queued { cell: "fig2@edge/b1".into(), hash: "h1".into() });
        m.observe(&LabEvent::Queued { cell: "fig4@edge/b1".into(), hash: "h2".into() });
        m.observe(&finished("fig2@edge/b1", "h1", 0.5));
        let frame = m.render(80);
        assert_eq!(frame, m.render(80));
        assert!(frame.contains("hit rate 0.0%"), "{frame}");
        assert!(frame.contains("#.\n"), "{frame}");
        assert!(frame.contains("fig2@edge/b1"), "{frame}");
        assert!(frame.contains("5.0000e-1"), "{frame}");
        assert!(frame.contains("fig4@edge/b1"), "{frame}");
    }

    #[test]
    fn grid_wraps_at_width() {
        let mut m = WatchModel::new();
        for i in 0..20 {
            m.observe(&LabEvent::Queued { cell: format!("c{i}"), hash: format!("h{i}") });
        }
        let grid = m.grid(8);
        assert_eq!(grid.lines().count(), 3);
        assert!(grid.lines().all(|l| l.len() <= 8));
    }
}
