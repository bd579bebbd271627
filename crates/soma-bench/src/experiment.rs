//! Executes a parsed [`ExperimentSpec`]: one [`Scheduler`] portfolio run
//! per cell, deterministically — the engine behind `soma-bench --bin
//! run` and the `ci_smoke` spec-reproduction gate.
//!
//! A cell's result is **exactly** what the equivalent hand-written
//! driver produces: `Scheduler::new(&cell.net, &cell.hw)
//! .config(spec.config.clone()).seeds(spec.seeds.clone()).run()` — no
//! hidden seed salting, no effort rescaling. A committed `.soma` file
//! plus this function *is* the run configuration: the [`Parallelism`]
//! policy spreads cells across threads but never changes a result (rows
//! are merged in cell order and each seed owns its RNG stream).
//!
//! Progress flows through the same typed [`LabEvent`] stream the
//! ledger-backed orchestrator ([`crate::lab`]) emits — here every cell
//! is `Queued` then `Started`/`Finished` (never `Cached`; this driver
//! consults no ledger), `Finished` always in cell order, which is also
//! what makes the two paths directly comparable in the differential
//! tests.

use std::sync::Mutex;

use soma_search::{Parallelism, Scheduler, SearchConfig, SearchOutcome};
use soma_spec::{ExperimentCell, ExperimentSpec};

use crate::lab::{cell_key, LabEvent};

/// One executed experiment cell.
#[derive(Debug)]
pub struct ExperimentRow {
    /// The resolved cell (scenario id, network, platform).
    pub cell: ExperimentCell,
    /// The search outcome of the cell's seed portfolio.
    pub outcome: SearchOutcome,
}

/// The CSV header shared by the `run` and `lab` binaries (golden files
/// compare their output byte-for-byte).
pub const CSV_HEADER: &str = "scenario,workload,platform,batch,scheme,latency_cycles,energy_pj,\
                              cost,evals,rejected,lgs,flgs,tiles,dram_tensors";

/// Renders one result row pair (`ours_1` stage-1 snapshot + `ours_2`
/// final scheme) per cell, in cell order — the body under
/// [`CSV_HEADER`]. Cached and freshly searched outcomes render
/// identically because ledger persistence is lossless.
pub fn csv_rows(rows: &[ExperimentRow]) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let mut one =
        |cell: &ExperimentCell, scheme: &str, e: &soma_search::Evaluated, r: &ExperimentRow| {
            let plan =
                soma_core::parse_lfa(&cell.net, &e.encoding.lfa).expect("reported scheme parses");
            let _ = writeln!(
                out,
                "{},{},{},{},{scheme},{},{:.1},{:.6e},{},{},{},{},{},{}",
                cell.id,
                cell.workload,
                cell.platform,
                cell.batch,
                e.report.latency_cycles,
                e.report.energy.total_pj(),
                e.cost,
                r.outcome.evals,
                r.outcome.rejected,
                plan.n_lgs(),
                plan.n_flgs(),
                plan.tiles.len(),
                plan.dram_tensors.len()
            );
        };
    for r in rows {
        one(&r.cell, "ours_1", &r.outcome.stage1, r);
        one(&r.cell, "ours_2", &r.outcome.best, r);
    }
    out
}

/// Runs every cell of the experiment under the spec's [`Parallelism`]
/// policy, emitting [`LabEvent`]s. Deterministic: same spec text, same
/// results — bit-identical across thread counts; only the live
/// `Started` interleaving (and wall-clock) varies.
pub fn run_experiment(
    spec: &ExperimentSpec,
    observer: impl FnMut(&LabEvent) + Send,
) -> Vec<ExperimentRow> {
    run_cells(spec.cells(), &spec.config, &spec.seeds, spec.parallelism, observer)
}

/// In-order `Finished` emitter for the parallel path: completed cells
/// park until every earlier cell has been reported, mirroring the
/// ledger flusher in [`crate::lab`] (minus the ledger).
struct InOrderEvents<'o> {
    observer: &'o mut (dyn FnMut(&LabEvent) + Send),
    next: usize,
    ready: std::collections::BTreeMap<usize, LabEvent>,
}

impl InOrderEvents<'_> {
    fn complete(&mut self, idx: usize, done: LabEvent) {
        self.ready.insert(idx, done);
        while let Some(done) = self.ready.remove(&self.next) {
            self.next += 1;
            (self.observer)(&done);
        }
    }
}

/// Runs an explicit cell list (e.g. an experiment narrowed by the
/// `SOMA_WORKLOAD` filter) under one configuration, seed portfolio and
/// thread policy. Results (and `Finished` events) always arrive in cell
/// order; under [`Parallelism::Sequential`] every event is emitted live
/// from the calling thread.
pub fn run_cells(
    cells: Vec<ExperimentCell>,
    config: &SearchConfig,
    seeds: &[u64],
    parallelism: Parallelism,
    mut observer: impl FnMut(&LabEvent) + Send,
) -> Vec<ExperimentRow> {
    let keys: Vec<String> = cells.iter().map(|c| cell_key(c, config, seeds)).collect();
    for (cell, key) in cells.iter().zip(&keys) {
        observer(&LabEvent::Queued { cell: cell.id.clone(), hash: key.clone() });
    }
    let run_one = |cell: &ExperimentCell, par: Parallelism| {
        Scheduler::new(&cell.net, &cell.hw)
            .config(config.clone())
            .seeds(seeds.iter().copied())
            .parallelism(par)
            .run()
    };
    let finished_event =
        |cell: &ExperimentCell, key: String, outcome: &SearchOutcome| LabEvent::Finished {
            cell: cell.id.clone(),
            hash: key,
            cost: outcome.best.cost,
            latency_cycles: outcome.best.report.latency_cycles,
            evals: outcome.evals,
        };

    if parallelism == Parallelism::Sequential {
        return cells
            .into_iter()
            .zip(keys)
            .map(|(cell, key)| {
                observer(&LabEvent::Started { cell: cell.id.clone() });
                let outcome = run_one(&cell, Parallelism::Sequential);
                observer(&finished_event(&cell, key, &outcome));
                ExperimentRow { cell, outcome }
            })
            .collect();
    }

    let events =
        Mutex::new(InOrderEvents { observer: &mut observer, next: 0, ready: Default::default() });
    let work: Vec<(usize, &ExperimentCell)> = cells.iter().enumerate().collect();
    let outcomes: Vec<SearchOutcome> = parallelism.map_collect(work, |(idx, cell)| {
        {
            let mut state = events.lock().expect("event emitter poisoned");
            (state.observer)(&LabEvent::Started { cell: cell.id.clone() });
        }
        let outcome = run_one(cell, parallelism.nested());
        let done = finished_event(cell, keys[idx].clone(), &outcome);
        events.lock().expect("event emitter poisoned").complete(idx, done);
        outcome
    });
    cells.into_iter().zip(outcomes).map(|(cell, outcome)| ExperimentRow { cell, outcome }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use soma_search::SearchConfig;
    use soma_spec::read_experiment;

    #[test]
    fn spec_run_equals_hand_written_driver() {
        let text = "soma-experiment v1\nname t\nscenario fig2@edge/b1\nseeds 7\neffort 0.01\nend\n";
        let spec = read_experiment(text).unwrap();
        let rows = run_experiment(&spec, |_| {});
        assert_eq!(rows.len(), 1);

        let net = soma_model::zoo::fig2(1);
        let hw = soma_arch::HardwareConfig::edge();
        let cfg = SearchConfig { effort: 0.01, seed: 7, ..SearchConfig::default() };
        let direct = Scheduler::new(&net, &hw).config(cfg).run();
        let got = &rows[0].outcome;
        assert_eq!(got.best.encoding, direct.best.encoding);
        assert_eq!(got.best.report, direct.best.report);
        assert_eq!(got.best.cost.to_bits(), direct.best.cost.to_bits());
        assert_eq!(got.evals, direct.evals);
    }

    #[test]
    fn sequential_driver_emits_the_lab_event_protocol() {
        let text = "soma-experiment v1\nname t\nscenario fig2@edge/b1\nseeds 7\neffort 0.01\nend\n";
        let spec = read_experiment(text).unwrap();
        let mut events = Vec::new();
        run_experiment(&spec, |ev| events.push(ev.clone()));
        assert!(matches!(&events[0], LabEvent::Queued { cell, .. } if cell == "fig2@edge/b1"));
        assert!(matches!(&events[1], LabEvent::Started { .. }));
        assert!(matches!(&events[2], LabEvent::Finished { evals, .. } if *evals > 0));
        assert_eq!(events.len(), 3, "no Cached events without a ledger");
    }

    #[test]
    fn csv_rows_render_both_schemes_per_cell() {
        let text = "soma-experiment v1\nname t\nscenario fig2@edge/b1\nseeds 7\neffort 0.01\nend\n";
        let spec = read_experiment(text).unwrap();
        let rows = run_experiment(&spec, |_| {});
        let csv = csv_rows(&rows);
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("fig2@edge/b1,fig2,edge-16tops,1,ours_1,"));
        assert!(csv.contains(",ours_2,"));
        assert_eq!(CSV_HEADER.split(',').count(), csv.lines().next().unwrap().split(',').count());
    }
}
