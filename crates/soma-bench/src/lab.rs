//! The one cell executor behind `soma-bench`'s `lab`, `run` and figure
//! binaries: parallel, resumable, cache-aware execution of an
//! [`ExperimentSpec`].
//!
//! An experiment expands into (scenario × config × seed-portfolio)
//! **cells**; [`run_cells`] executes them as a work queue. A cell's
//! result is **exactly** what the equivalent hand-written driver
//! produces: `Scheduler::new(&cell.net, &cell.hw)
//! .config(spec.config.clone()).seeds(spec.seeds.clone()).run()`, or
//! `Scheduler::cocco` for a Cocco twin ([`ExperimentCell::cocco`]) — no
//! hidden seed salting, no effort rescaling.
//!
//! * **Cache-aware** — every cell is keyed by a content hash of
//!   (scenario id, resolved hardware,
//!   [`SearchConfig`](soma_search::SearchConfig), seed portfolio,
//!   [`soma_search::ENGINE_VERSION`]); cells whose key already sits in
//!   the on-disk **run ledger** are served from it without any search
//!   work ([`LabEvent::Cached`]). A ledger row whose outcome does not
//!   decode (a payload damaged on disk) is a miss, not a hit: the cell
//!   re-searches and appends a row that supersedes the bad one (last
//!   write wins), and [`LabSummary::undecodable`] counts it.
//! * **Resumable** — each completed cell is appended to the ledger (one
//!   checksummed frame per cell) *in cell order* as soon as all earlier
//!   cells have been written, so an interrupted run leaves a valid
//!   prefix and a rerun picks up exactly where it stopped. A partially
//!   written trailing frame (a kill mid-append) is detected and dropped
//!   on load. The final ledger of an interrupted-then-resumed run is
//!   byte-identical to an uninterrupted one.
//! * **Parallel with deterministic merge** — cell searches that miss the
//!   ledger fan out across the threads selected by the spec's
//!   [`Parallelism`](soma_search::Parallelism) policy (the `threads`
//!   directive / `--threads` flag). Results are merged, the ledger
//!   written and [`LabEvent::Cached`]/[`LabEvent::Finished`] observed in
//!   cell order regardless of completion order, so ledger bytes and rows
//!   are bit-identical across thread counts.
//! * **Isolated** — a cell whose search panics becomes a
//!   [`LabEvent::Failed`] ([`fault::isolate`]); the other cells proceed.
//!
//! `run` is `lab` without a ledger: given `None`, [`run_cells`] loads,
//! looks up and writes nothing, so every cell searches (a cell the spec
//! names twice still searches once) and its `Finished` event fires on
//! its turn in cell order.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use soma_search::{Scheduler, SearchOutcome};
use soma_spec::fault::{self, FaultPlan};
use soma_spec::{ExperimentCell, ExperimentSpec, SchedulerKind};

// The ledger itself lives in `soma_spec::ledger` (it is shared with the
// `soma-serve` daemon's result cache); re-exported here because the lab
// orchestrator is its primary producer and historical home.
pub use soma_spec::ledger::{cell_key, Ledger, LedgerRow, LEDGER_VERSION};

// The event vocabulary moved to `soma-obs` (observers should not have
// to depend on the orchestrator to understand its progress stream);
// re-exported here because the lab is its producer and historical home.
pub use soma_obs::LabEvent;

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

/// What [`run_cells`] reports back.
#[derive(Debug)]
pub struct LabSummary {
    /// One row per cell, in cell order (cached and fresh alike). On a
    /// [`stopped`](Self::stopped) run, only the cells whose outcome is
    /// known — ledger hits plus flushed misses.
    pub rows: Vec<ExperimentRow>,
    /// Cells served without a search: ledger hits, and repeats of a
    /// cell the spec names more than once.
    pub hits: usize,
    /// Cells that ran a search and were flushed in cell order: appended
    /// to the ledger, or, without one, reported.
    pub misses: usize,
    /// Of the cells that missed, how many had a ledger row whose
    /// outcome did not decode (a payload damaged on disk). They search
    /// like any miss, and each new row supersedes the damaged one.
    pub undecodable: usize,
    /// Cells whose search panicked ([`LabEvent::Failed`]): isolated,
    /// ledger-skipped, retried by the next run of the same spec.
    pub failed: usize,
    /// Whether the stop flag cut the run short. The ledger still holds
    /// a valid in-cell-order prefix; rerunning the same spec resumes
    /// from it.
    pub stopped: bool,
    /// What loading the ledger found and repaired (quarantined rows,
    /// torn tail, shadowed duplicates) — surfaced so the binary can
    /// warn. Clean when there is no ledger.
    pub health: soma_spec::LedgerHealth,
}

/// How one miss ended: a row to flush, or a panic to report.
enum CellDone {
    /// The search completed; append the row (when there is a ledger),
    /// then emit the event.
    Row(Box<LedgerRow>, LabEvent),
    /// The search panicked; emit [`LabEvent::Failed`] and advance
    /// without writing — later cells still flush, the failed cell's
    /// slot in the ledger simply stays empty for the next run to fill.
    Failed(LabEvent),
}

/// In-order flusher: completed cells park in `ready` until every
/// earlier miss has been resolved, so the ledger is an in-cell-order
/// prefix at every instant (the resume guarantee) no matter which order
/// the pool finishes in. The observer lives here too: `Started` events
/// are forwarded live as jobs begin, and each cell's `Finished` event is
/// emitted on its turn in cell order — the moment its row lands in the
/// ledger, when there is one. Worker threads report through the shared
/// mutex around this state, which is why the observer must be `Send`.
struct InOrderFlush<'l, 'o> {
    ledger: Option<&'l mut Ledger>,
    observer: &'o mut (dyn FnMut(&LabEvent) + Send),
    /// Position into the miss list of the next cell to resolve.
    next: usize,
    ready: BTreeMap<usize, CellDone>,
    /// Rows flushed (appended, when there is a ledger).
    appended: usize,
    /// Cells that panicked.
    failed: usize,
    err: Option<io::Error>,
}

impl InOrderFlush<'_, '_> {
    fn complete(&mut self, miss_pos: usize, done: CellDone) {
        self.ready.insert(miss_pos, done);
        while let Some(done) = self.ready.remove(&self.next) {
            self.next += 1;
            match done {
                CellDone::Failed(ev) => {
                    self.failed += 1;
                    (self.observer)(&ev);
                }
                // `Finished` asserts "this row was flushed" — once an
                // append has failed, later rows are neither written nor
                // reported finished (run_cells surfaces the error
                // instead).
                CellDone::Row(_, _) if self.err.is_some() => {}
                CellDone::Row(row, ev) => {
                    match self.ledger.as_deref_mut().map_or(Ok(()), |l| l.append(*row)) {
                        Ok(()) => {
                            self.appended += 1;
                            (self.observer)(&ev);
                        }
                        Err(e) => self.err = Some(e),
                    }
                }
            }
        }
    }
}

/// Executes an experiment against the ledger at `ledger_path`:
/// [`run_cells`] over every cell of the spec, with no stop flag and no
/// fault plan.
///
/// # Errors
///
/// As [`run_cells`].
pub fn run_lab(
    spec: &ExperimentSpec,
    ledger_path: &Path,
    observer: impl FnMut(&LabEvent) + Send,
) -> io::Result<LabSummary> {
    run_cells(spec, spec.cells(), Some(ledger_path), &AtomicBool::new(false), None, observer)
}

/// Executes `cells` under the spec's configuration, seed portfolio and
/// [`Parallelism`](soma_search::Parallelism) policy, against the ledger
/// at `ledger_path` or, given `None`, against no ledger at all (the
/// `run` binary).
///
/// Ledger hits are served without search work; misses fan out across
/// the threads chosen by `spec.parallelism` and append to the ledger in
/// cell order. The observer sees [`LabEvent`]s in the order documented
/// on the type. The returned rows and ledger bytes are bit-identical
/// across every [`Parallelism`](soma_search::Parallelism) policy.
///
/// `stop` is checked **between cells** (the `lab` binary's SIGINT flag):
/// once it reads `true`, cells whose search has not started are
/// skipped, in-flight searches finish, and every row flushed before the
/// stop forms a valid in-order prefix. A rerun of the same spec resumes
/// from exactly that prefix and produces a final ledger byte-identical
/// to an uninterrupted run. [`LabSummary::stopped`] is then `true` and
/// [`LabSummary::rows`] holds only the cells whose outcome is known —
/// later cells are simply absent, never fabricated.
///
/// `faults` threads a deterministic [`FaultPlan`] behind the ledger
/// writer ([`fault::site::LEDGER_APPEND`]) and the cell runner
/// ([`fault::site::LAB_CELL`]) — the chaos suites' hook; production
/// callers pass `None`. A cell whose search panics — injected or real —
/// is isolated by [`fault::isolate`]: it becomes a [`LabEvent::Failed`]
/// and a skipped ledger slot, every other cell proceeds, and
/// [`LabSummary::failed`] counts it so the binaries can exit with a
/// partial-failure code. A rerun of the same spec retries exactly the
/// failed cells (their keys still miss the ledger).
///
/// # Errors
///
/// I/O errors loading or appending the ledger (an existing regular
/// file at `ledger_path` is refused — see [`Ledger::load`]); none
/// without a ledger. Corrupt ledger frames are *not* errors: load
/// quarantines them, and a row whose payload does not decode
/// re-searches.
pub fn run_cells(
    spec: &ExperimentSpec,
    cells: Vec<ExperimentCell>,
    ledger_path: Option<&Path>,
    stop: &AtomicBool,
    faults: Option<Arc<FaultPlan>>,
    mut observer: impl FnMut(&LabEvent) + Send,
) -> io::Result<LabSummary> {
    let keys: Vec<String> = cells.iter().map(|c| cell_key(c, &spec.config, &spec.seeds)).collect();
    // Probe read-only first: a pure replay (every cell already done —
    // the `--require-hits` gate, a `watch`ed campaign being re-checked)
    // must never write, truncate or quarantine anything, even when the
    // ledger is damaged or another process is mid-append.
    let mut ledger = ledger_path.map(Ledger::load_readonly).transpose()?;
    let health = ledger.as_ref().map(Ledger::health).unwrap_or_default();

    for (cell, key) in cells.iter().zip(&keys) {
        observer(&LabEvent::Queued { cell: cell.id.clone(), hash: key.clone() });
    }

    let mut outcomes: Vec<Option<SearchOutcome>> = vec![None; cells.len()];
    let mut misses: Vec<usize> = Vec::new();
    // Within-run dedup: a spec can name the same cell twice (an explicit
    // scenario that the workload grid also produces). Searching it twice
    // would append two identical rows — which an interrupted rerun could
    // never reproduce (both copies would hit the one surviving row), so
    // one key searches once and owns one row; later duplicates are
    // served from the first occurrence, like any other cache hit.
    let mut duplicates: Vec<(usize, usize)> = Vec::new();
    let mut first_claim: HashMap<&str, usize> = HashMap::new();
    let mut undecodable = 0;
    for (i, (cell, key)) in cells.iter().zip(&keys).enumerate() {
        // A row whose payload is damaged decodes to `None`: that is a
        // miss, never a hit without an outcome.
        let row = ledger.as_ref().and_then(|l| l.lookup(key));
        if let Some(outcome) = row.and_then(LedgerRow::outcome) {
            outcomes[i] = Some(outcome.clone());
            observer(&LabEvent::Cached { cell: cell.id.clone(), hash: key.clone() });
        } else if let Some(&first) = first_claim.get(key.as_str()) {
            duplicates.push((i, first));
            observer(&LabEvent::Cached { cell: cell.id.clone(), hash: key.clone() });
        } else {
            undecodable += usize::from(row.is_some());
            first_claim.insert(key, i);
            misses.push(i);
        }
    }
    let hits = cells.len() - misses.len();

    if let Some(path) = ledger_path.filter(|_| !misses.is_empty()) {
        // There is work to append, so this run is a writer: reload in
        // repairing mode (fixing any damage the probe tolerated)
        // before the first append.
        let mut writer = Ledger::load(path)?;
        if let Some(plan) = &faults {
            writer.inject_faults(Arc::clone(plan));
        }
        ledger = Some(writer);
    }

    // Fan the misses out. Events flow live through the shared flush
    // state — `Started` as each job begins (execution order), `Finished`
    // as each row is flushed (cell order) — and ledger rows are written
    // through the same in-order writer, so an interrupted run keeps
    // every finished prefix cell.
    let flush = Mutex::new(InOrderFlush {
        ledger: ledger.as_mut(),
        observer: &mut observer,
        next: 0,
        ready: BTreeMap::new(),
        appended: 0,
        failed: 0,
        err: None,
    });
    let work: Vec<(usize, usize)> = misses.iter().copied().enumerate().collect();
    let finished: Vec<Option<(usize, usize, SearchOutcome)>> =
        spec.parallelism.map_collect(work, |(miss_pos, cell_idx)| {
            // The graceful-stop point: a cell whose search has not
            // begun when the flag flips is skipped entirely. It never
            // reaches the flusher, so no later cell can be written
            // either (the flusher only advances through a contiguous
            // prefix) — exactly the interrupted-run ledger shape the
            // resume path already handles.
            if stop.load(Ordering::SeqCst) {
                return None;
            }
            let cell = &cells[cell_idx];
            let key = &keys[cell_idx];
            {
                let mut state = flush.lock().expect("ledger flusher poisoned");
                (state.observer)(&LabEvent::Started { cell: cell.id.clone() });
            }
            // Panic isolation: one poisoned cell (injected or real)
            // becomes a typed `Failed` event instead of taking the
            // whole campaign down with it.
            let searched = fault::isolate(faults.as_deref(), fault::site::LAB_CELL, || {
                match cell.scheduler {
                    SchedulerKind::Soma => Scheduler::new(&cell.net, &cell.hw),
                    SchedulerKind::Cocco => Scheduler::cocco(&cell.net, &cell.hw),
                }
                .config(spec.config.clone())
                .seeds(spec.seeds.iter().copied())
                .parallelism(spec.parallelism.nested())
                .run()
            });
            let outcome = match searched {
                Ok(outcome) => outcome,
                Err(error) => {
                    let ev = LabEvent::Failed { cell: cell.id.clone(), hash: key.clone(), error };
                    flush
                        .lock()
                        .expect("ledger flusher poisoned")
                        .complete(miss_pos, CellDone::Failed(ev));
                    return None;
                }
            };
            let done = LabEvent::Finished {
                cell: cell.id.clone(),
                hash: key.clone(),
                cost: outcome.best.cost,
                latency_cycles: outcome.best.report.latency_cycles,
                evals: outcome.evals,
            };
            let row = Box::new(LedgerRow::new(cell, key, outcome.clone()));
            flush
                .lock()
                .expect("ledger flusher poisoned")
                .complete(miss_pos, CellDone::Row(row, done));
            Some((miss_pos, cell_idx, outcome))
        });

    let state = flush.into_inner().expect("ledger flusher poisoned");
    if let Some(e) = state.err {
        return Err(e);
    }
    // A shortfall in resolved misses can only come from a stop request
    // (every started search completes, flushes or fails); the converse
    // need not hold — a flag raised after the last cell changes nothing.
    let flushed = state.next;
    let failed = state.failed;
    let appended = state.appended;
    let stopped = flushed < misses.len();
    if let Some(ledger) = ledger.as_mut().filter(|_| appended > 0) {
        // Refresh the index sidecar so the next load of a binary
        // ledger is O(cells-missing), not a full-shard scan.
        ledger.sync_index()?;
    }

    for item in finished.into_iter().flatten() {
        let (miss_pos, cell_idx, outcome) = item;
        // A search that completed but whose row never reached the
        // ledger (an earlier cell was skipped) is discarded: reporting
        // it would claim a result the ledger cannot replay.
        if miss_pos < flushed {
            outcomes[cell_idx] = Some(outcome);
        }
    }
    for (dup, first) in duplicates {
        outcomes[dup] = outcomes[first].clone();
    }

    let rows = cells
        .into_iter()
        .zip(outcomes)
        .filter_map(|(cell, outcome)| {
            debug_assert!(
                outcome.is_some() || stopped || failed > 0,
                "a completed run resolves every cell (hit, flushed miss, or failure)"
            );
            outcome.map(|outcome| ExperimentRow { cell, outcome })
        })
        .collect();
    Ok(LabSummary { rows, hits, misses: appended, undecodable, failed, stopped, health })
}

#[cfg(test)]
mod tests {
    use std::fs;
    use std::path::PathBuf;

    use super::*;
    use soma_search::{Evaluated, SearchConfig};
    use soma_spec::fault::Fault;
    use soma_spec::read_experiment;

    const SPEC: &str = "soma-experiment v1\nname t\nscenario fig2@edge/b1\nseeds 7\n\
                        effort 0.01\nend\n";

    /// Three cells at effort 0.01, seed 7, run sequentially.
    const THREE: &str = "soma-experiment v1\nname three\nscenario fig2@edge/b1\n\
                         scenario fig4@edge/b1\nscenario fig2@edge/b4\nseeds 7\n\
                         effort 0.01\nthreads seq\nend\n";

    /// [`run_cells`] over every cell of `spec` with no ledger.
    fn ledgerless(
        spec: &ExperimentSpec,
        faults: Option<Arc<FaultPlan>>,
        observer: impl FnMut(&LabEvent) + Send,
    ) -> LabSummary {
        run_cells(spec, spec.cells(), None, &AtomicBool::new(false), faults, observer)
            .expect("no ledger, no I/O")
    }

    fn assert_same(a: &SearchOutcome, b: &SearchOutcome) {
        let same = |x: &Evaluated, y: &Evaluated| {
            assert_eq!(x.encoding, y.encoding);
            assert_eq!(x.report, y.report);
            assert_eq!(x.cost.to_bits(), y.cost.to_bits());
        };
        same(&a.stage1, &b.stage1);
        same(&a.best, &b.best);
        assert_eq!(
            (a.allocator_iters, a.evals, a.rejected),
            (b.allocator_iters, b.evals, b.rejected)
        );
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("soma-lab-unit");
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        path
    }

    /// Every file of a ledger directory with its bytes, sorted by name.
    fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
            .expect("ledger dir")
            .map(|e| {
                let e = e.expect("dir entry");
                (e.file_name().into_string().expect("utf-8 name"), fs::read(e.path()).unwrap())
            })
            .collect();
        out.sort();
        out
    }

    /// The ledger's JSON view (`ledger dump`).
    fn dump(dir: &Path) -> String {
        let ledger = Ledger::load_readonly(dir).expect("ledger loads");
        ledger.rows().iter().map(|r| r.to_line().expect("row decodes") + "\n").collect()
    }

    /// The one shard file a single-cell ledger writes to.
    fn only_shard(dir: &Path) -> PathBuf {
        let shards: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "bin") && !p.ends_with("index.bin"))
            .collect();
        assert_eq!(shards.len(), 1, "{shards:?}");
        shards[0].clone()
    }

    #[test]
    fn ledger_round_trips_rows() {
        let spec = read_experiment(SPEC).unwrap();
        let path = tmp("roundtrip.ledger");
        let first = run_lab(&spec, &path, |_| {}).unwrap();
        assert_eq!((first.hits, first.misses), (0, 1));

        let ledger = Ledger::load(&path).unwrap();
        assert_eq!(ledger.len(), 1);
        let row = &ledger.rows()[0];
        assert_eq!(row.cell, "fig2@edge/b1");
        assert_eq!(row.workload, "fig2");
        assert_eq!(row.batch, 1);
        let row_out = row.outcome().expect("stored outcome decodes");
        assert_eq!(row_out.best.cost.to_bits(), first.rows[0].outcome.best.cost.to_bits());
    }

    #[test]
    fn second_run_is_all_hits() {
        let spec = read_experiment(SPEC).unwrap();
        let path = tmp("hits.ledger");
        run_lab(&spec, &path, |_| {}).unwrap();
        let before = files(&path);

        let mut events = Vec::new();
        let warm = run_lab(&spec, &path, |ev| events.push(ev.clone())).unwrap();
        assert_eq!((warm.hits, warm.misses), (1, 0));
        assert!(events.iter().any(|e| matches!(e, LabEvent::Cached { .. })));
        assert!(!events.iter().any(|e| matches!(e, LabEvent::Started { .. })));
        assert_eq!(files(&path), before, "a warm run never writes");
    }

    #[test]
    fn torn_trailing_line_is_dropped_and_repaired() {
        let spec = read_experiment(SPEC).unwrap();
        let path = tmp("torn.ledger");
        run_lab(&spec, &path, |_| {}).unwrap();
        let intact = files(&path);

        // Tear the only frame in half and drop the index: the ledger
        // must load empty...
        let shard = only_shard(&path);
        let bytes = fs::read(&shard).unwrap();
        fs::write(&shard, &bytes[..bytes.len() / 2]).unwrap();
        fs::remove_file(path.join("index.bin")).unwrap();
        let ledger = Ledger::load(&path).unwrap();
        assert!(ledger.is_empty());
        assert!(ledger.health().truncated);
        assert_eq!(fs::read(&shard).unwrap(), b"SOMALED3", "torn tail truncated");

        // ...and a rerun reproduces the intact ledger byte-for-byte.
        let again = run_lab(&spec, &path, |_| {}).unwrap();
        assert_eq!((again.hits, again.misses), (0, 1));
        assert_eq!(files(&path), intact);
    }

    #[test]
    fn corrupt_interior_lines_are_quarantined_and_the_run_proceeds() {
        let spec = read_experiment(SPEC).unwrap();
        let path = tmp("corrupt.ledger");
        run_lab(&spec, &path, |_| {}).unwrap();
        let want = dump(&path);

        // Garbage ahead of the only frame, and no index to trust.
        let shard = only_shard(&path);
        let mut bytes = fs::read(&shard).unwrap();
        bytes.splice(8..8, b"garbage".iter().copied());
        fs::write(&shard, &bytes).unwrap();
        fs::remove_file(path.join("index.bin")).unwrap();

        // The damage moves to the sidecar instead of aborting; the
        // frame behind it survives, so the rerun is a pure hit.
        let summary = run_lab(&spec, &path, |_| {}).unwrap();
        assert_eq!((summary.hits, summary.misses, summary.failed), (1, 0, 0));
        assert_eq!(summary.health.quarantined, 1);
        assert!(!soma_spec::quarantine_path(&path).exists(), "a pure replay never repairs");
        // A writer repairs: it quarantines and compacts the shard.
        let repaired = Ledger::load(&path).unwrap();
        assert_eq!(repaired.health().quarantined, 1);
        assert!(fs::read_to_string(soma_spec::quarantine_path(&path)).unwrap().contains("\"hex\""));
        assert_eq!(dump(&path), want);
        assert!(Ledger::load(&path).unwrap().health().is_clean());
    }

    #[test]
    fn a_panicking_cell_is_isolated_and_retried_on_rerun() {
        // Three cells, sequential; the 2nd panics via a scripted fault.
        let text = "soma-experiment v1\nname chaos\nscenario fig2@edge/b1\n\
                    scenario fig4@edge/b1\nscenario fig2@edge/b4\nseeds 7\n\
                    effort 0.01\nthreads seq\nend\n";
        let spec = read_experiment(text).unwrap();
        let path = tmp("panic.ledger");

        let plan = Arc::new(FaultPlan::scripted([(fault::site::LAB_CELL, 1, Fault::Panic)]));
        let mut events = Vec::new();
        let stop = AtomicBool::new(false);
        let summary = run_cells(&spec, spec.cells(), Some(&path), &stop, Some(plan), |ev| {
            events.push(ev.clone());
        })
        .unwrap();

        // The campaign completed: cells 1 and 3 landed, cell 2 failed.
        assert!(!summary.stopped, "a panic is not a stop");
        assert_eq!((summary.hits, summary.misses, summary.failed), (0, 2, 1));
        assert_eq!(summary.rows.len(), 2);
        let failed: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                LabEvent::Failed { cell, error, .. } => Some((cell.clone(), error.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, "fig4@edge/b1");
        assert!(failed[0].1.contains("injected fault"), "{}", failed[0].1);
        assert_eq!(Ledger::load(&path).unwrap().len(), 2, "failed cell left no row");

        // A faultless rerun retries exactly the failed cell and
        // converges to the complete campaign.
        let rerun = run_lab(&spec, &path, |_| {}).unwrap();
        assert_eq!((rerun.hits, rerun.misses, rerun.failed), (2, 1, 0));
        assert_eq!(Ledger::load(&path).unwrap().len(), 3);
    }

    #[test]
    fn duplicate_cells_search_once_and_share_one_ledger_row() {
        // The same scenario listed twice collapses to one search and one
        // ledger row; the second cell is served from the first. (Two
        // identical rows would break the resume byte-identity: after an
        // interruption both copies would hit the single surviving row.)
        let text = "soma-experiment v1\nname dup\nscenario fig2@edge/b1\n\
                    scenario fig2@edge/b1\nseeds 7\neffort 0.01\nend\n";
        let spec = read_experiment(text).unwrap();
        let path = tmp("dup.ledger");

        let mut events = Vec::new();
        let cold = run_lab(&spec, &path, |ev| events.push(ev.clone())).unwrap();
        assert_eq!((cold.hits, cold.misses), (1, 1), "duplicate served without search");
        assert_eq!(events.iter().filter(|e| matches!(e, LabEvent::Started { .. })).count(), 1);
        assert_eq!(Ledger::load(&path).unwrap().len(), 1, "one row per key");
        assert_eq!(
            cold.rows[0].outcome.best.cost.to_bits(),
            cold.rows[1].outcome.best.cost.to_bits()
        );

        // And the rerun is total-recall: both cells hit the ledger.
        let warm = run_lab(&spec, &path, |_| {}).unwrap();
        assert_eq!((warm.hits, warm.misses), (2, 0));
    }

    #[test]
    fn stopped_run_leaves_a_replayable_prefix() {
        // Sequential so "first finished cell" is deterministic.
        let text = "soma-experiment v1\nname stop\nscenario fig2@edge/b1\n\
                    scenario fig4@edge/b1\nscenario fig2@edge/b4\nseeds 7\n\
                    effort 0.01\nthreads seq\nend\n";
        let spec = read_experiment(text).unwrap();

        let golden_path = tmp("stop-golden.ledger");
        run_lab(&spec, &golden_path, |_| {}).unwrap();
        let golden = files(&golden_path);

        // Raise the stop flag the moment the first cell finishes.
        let path = tmp("stop.ledger");
        let stop = AtomicBool::new(false);
        let summary = run_cells(&spec, spec.cells(), Some(&path), &stop, None, |ev| {
            if matches!(ev, LabEvent::Finished { .. }) {
                stop.store(true, Ordering::SeqCst);
            }
        })
        .unwrap();
        assert!(summary.stopped);
        assert_eq!((summary.hits, summary.misses), (0, 1));
        assert_eq!(summary.rows.len(), 1, "only known outcomes are reported");

        // The interrupted ledger is a clean, loadable prefix of the
        // uninterrupted one...
        assert_eq!(Ledger::load(&path).unwrap().len(), 1);
        assert!(dump(&golden_path).starts_with(&dump(&path)), "interrupted ledger is a prefix");

        // ...and a rerun resumes from it, byte-identical to a run that
        // was never interrupted.
        let resumed = run_lab(&spec, &path, |_| {}).unwrap();
        assert!(!resumed.stopped);
        assert_eq!((resumed.hits, resumed.misses), (1, 2));
        assert_eq!(files(&path), golden);
    }

    #[test]
    fn config_changes_miss_the_ledger() {
        let spec = read_experiment(SPEC).unwrap();
        let path = tmp("invalidate.ledger");
        run_lab(&spec, &path, |_| {}).unwrap();

        let retuned = read_experiment(&SPEC.replace("effort 0.01", "effort 0.02")).unwrap();
        let rerun = run_lab(&retuned, &path, |_| {}).unwrap();
        assert_eq!((rerun.hits, rerun.misses), (0, 1), "new config, new cell key");
        assert_eq!(Ledger::load(&path).unwrap().len(), 2, "both keys coexist");
    }

    #[test]
    fn a_ledgerless_run_isolates_a_panicking_cell_and_matches_hand_written_searches() {
        // The `run` binary's path: no ledger, three cells, the 2nd
        // panics via a scripted fault.
        let spec = read_experiment(THREE).unwrap();
        let plan = Arc::new(FaultPlan::scripted([(fault::site::LAB_CELL, 1, Fault::Panic)]));
        let mut events = Vec::new();
        let summary = ledgerless(&spec, Some(plan), |ev| events.push(ev.clone()));

        assert_eq!((summary.hits, summary.misses, summary.failed), (0, 2, 1));
        assert_eq!((summary.undecodable, summary.stopped), (0, false));
        assert_eq!(summary.health, soma_spec::LedgerHealth::default());
        let kinds: Vec<(&str, &str)> = events
            .iter()
            .map(|e| match e {
                LabEvent::Queued { cell, .. } => ("Queued", cell.as_str()),
                LabEvent::Cached { cell, .. } => ("Cached", cell.as_str()),
                LabEvent::Started { cell } => ("Started", cell.as_str()),
                LabEvent::Finished { cell, .. } => ("Finished", cell.as_str()),
                LabEvent::Failed { cell, .. } => ("Failed", cell.as_str()),
            })
            .collect();
        let (a, b, c) = ("fig2@edge/b1", "fig4@edge/b1", "fig2@edge/b4");
        assert_eq!(
            kinds,
            [
                ("Queued", a),
                ("Queued", b),
                ("Queued", c),
                ("Started", a),
                ("Finished", a),
                ("Started", b),
                ("Failed", b),
                ("Started", c),
                ("Finished", c),
            ]
        );

        // Each surviving row is exactly the hand-written search.
        let cfg = SearchConfig { effort: 0.01, seed: 7, ..SearchConfig::default() };
        assert_eq!(summary.rows.len(), 2);
        for (row, id) in summary.rows.iter().zip([a, c]) {
            assert_eq!(row.cell.id, id);
            let direct = Scheduler::new(&row.cell.net, &row.cell.hw).config(cfg.clone()).run();
            assert_same(&row.outcome, &direct);
        }
    }

    #[test]
    fn a_ledgerless_run_searches_a_duplicate_cell_once() {
        let text = "soma-experiment v1\nname dup\nscenario fig2@edge/b1\n\
                    scenario fig2@edge/b1\nseeds 7\neffort 0.01\nend\n";
        let spec = read_experiment(text).unwrap();
        let mut events = Vec::new();
        let summary = ledgerless(&spec, None, |ev| events.push(ev.clone()));
        assert_eq!((summary.hits, summary.misses), (1, 1));
        let count = |f: fn(&LabEvent) -> bool| events.iter().filter(|e| f(e)).count();
        assert_eq!(count(|e| matches!(e, LabEvent::Started { .. })), 1);
        assert_eq!(count(|e| matches!(e, LabEvent::Cached { .. })), 1);
        assert_eq!(summary.rows.len(), 2);
        assert_same(&summary.rows[0].outcome, &summary.rows[1].outcome);
    }

    #[test]
    fn csv_rows_render_both_schemes_per_cell() {
        let spec = read_experiment(SPEC).unwrap();
        let csv = csv_rows(&ledgerless(&spec, None, |_| {}).rows);
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("fig2@edge/b1,fig2,edge-16tops,1,ours_1,"));
        assert!(csv.contains(",ours_2,"));
        assert_eq!(CSV_HEADER.split(',').count(), csv.lines().next().unwrap().split(',').count());
    }
}
