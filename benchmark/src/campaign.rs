//! Cold `lab` campaigns: the untraced measurement through
//! `soma_bench::run_lab`, its warm replay, and the traced executor that
//! drives the same cells through `Ledger::{load, lookup, append,
//! sync_index}` and `Scheduler` with a `SearchEvent` observer.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use soma_bench::{run_lab, LabEvent};
use soma_search::{
    synthetic_outcome, Parallelism, Scheduler, SearchConfig, SearchEvent, SearchOutcome,
};
use soma_spec::ledger::{cell_key, Ledger, LedgerRow};
use soma_spec::{registry, ExperimentSpec};

use crate::trace::Trace;

/// Lab worker threads, matching the 2-core host the bounds were set on.
pub const THREADS: usize = 2;

/// A campaign: registry scenarios searched at one effort.
#[derive(Debug, Clone)]
pub struct Campaign {
    pub scenarios: Vec<String>,
    pub effort: f64,
    pub max_allocator_iters: usize,
}

impl Campaign {
    /// The experiment at `seed`: every cell searches with that one seed on
    /// [`THREADS`] lab threads.
    pub fn spec(&self, name: &str, seed: u64) -> Result<ExperimentSpec, String> {
        let scenarios = self
            .scenarios
            .iter()
            .map(|id| registry::lookup(id).ok_or(format!("unknown scenario {id}")))
            .collect::<Result<_, _>>()?;
        Ok(ExperimentSpec {
            name: name.to_string(),
            scenarios,
            workloads: vec![],
            hardware: vec![],
            batches: vec![],
            seeds: vec![seed],
            config: SearchConfig {
                effort: self.effort,
                seed,
                max_allocator_iters: self.max_allocator_iters,
                ..SearchConfig::default()
            },
            parallelism: Parallelism::Fixed(THREADS),
        })
    }
}

/// The outcome fields the output checks compare, per cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOutcome {
    pub cell: String,
    pub cost_bits: u64,
    pub latency_cycles: u64,
    pub evals: u64,
    pub rejected: u64,
    pub rounds: usize,
}

impl CellOutcome {
    pub fn new(cell: &str, out: &SearchOutcome) -> Self {
        Self {
            cell: cell.to_string(),
            cost_bits: out.best.cost.to_bits(),
            latency_cycles: out.best.report.latency_cycles,
            evals: out.evals,
            rejected: out.rejected,
            rounds: out.allocator_iters,
        }
    }

    pub fn cost(&self) -> f64 {
        f64::from_bits(self.cost_bits)
    }
}

fn outcomes(summary: &soma_bench::LabSummary) -> Vec<CellOutcome> {
    summary.rows.iter().map(|r| CellOutcome::new(&r.cell.id, &r.outcome)).collect()
}

/// One cold `run_lab` call on a fresh ledger.
pub struct ColdRun {
    pub wall_s: f64,
    /// Call until the first cell's search starts.
    pub setup_s: f64,
    pub cells: Vec<CellOutcome>,
    /// Per cell, its own search and append time in ms ([`own_cell_ms`]).
    pub miss_ms: Vec<f64>,
}

/// A lab event with when and on which thread the observer saw it.
type Seen = (Instant, ThreadId, LabEvent);

/// Each cell's own time: from its `Started` to the next event its worker
/// thread emits. `run_lab` calls the observer on the thread that runs the
/// cell, and a worker emits nothing between a cell's start and the end of
/// its search and append: its next event is either that row landing or
/// the start of its next cell. So the figure excludes the wait for an
/// earlier cell's row, which `Started`→`Finished` would include. A
/// worker's last cell whose row waits on another thread's cell has no
/// such event and is left out.
fn own_cell_ms(events: &[Seen]) -> Vec<f64> {
    events
        .iter()
        .enumerate()
        .filter(|(_, (_, _, ev))| matches!(ev, LabEvent::Started { .. }))
        .filter_map(|(i, (start, thread, _))| {
            let (end, ..) = events[i + 1..].iter().find(|(_, t, _)| t == thread)?;
            Some((*end - *start).as_secs_f64() * 1e3)
        })
        .collect()
}

pub fn cold(spec: &ExperimentSpec, ledger: &Path) -> Result<ColdRun, String> {
    let mut events: Vec<Seen> = Vec::new();
    let t0 = Instant::now();
    let summary = run_lab(spec, ledger, |ev| {
        events.push((Instant::now(), std::thread::current().id(), ev.clone()));
    })
    .map_err(|e| format!("cold campaign: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let n = spec.cells().len();
    if summary.misses != n || summary.hits != 0 || summary.failed != 0 || summary.stopped {
        return Err(format!(
            "cold campaign: {} searched, {} hits, {} failed of {n} cells",
            summary.misses, summary.hits, summary.failed
        ));
    }
    let first_start = events
        .iter()
        .find(|(_, _, ev)| matches!(ev, LabEvent::Started { .. }))
        .ok_or("no cell started")?
        .0;
    let setup_s = (first_start - t0).as_secs_f64();
    let miss_ms = own_cell_ms(&events);
    if miss_ms.is_empty() {
        return Err("cold campaign: no cell's own time was observed".into());
    }
    Ok(ColdRun { wall_s, setup_s, cells: outcomes(&summary), miss_ms })
}

/// One warm `run_lab` replay of a finished ledger: must be 100 % hits with
/// the outcomes of the cold run.
pub struct WarmRun {
    pub wall_s: f64,
    /// Per cell, the gap before its `Cached` event: lookup plus lazy
    /// decode of its row, in ms.
    pub hit_ms: Vec<f64>,
}

pub fn warm(spec: &ExperimentSpec, ledger: &Path, cold: &[CellOutcome]) -> Result<WarmRun, String> {
    let mut events: Vec<(Instant, bool)> = Vec::new();
    let t0 = Instant::now();
    let summary = run_lab(spec, ledger, |ev| {
        events.push((Instant::now(), matches!(ev, LabEvent::Cached { .. })));
    })
    .map_err(|e| format!("warm replay: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    if summary.hits != cold.len() || summary.misses != 0 || summary.failed != 0 {
        return Err(format!(
            "warm replay: {} hits, {} searched of {} cells (want 100 % hits)",
            summary.hits,
            summary.misses,
            cold.len()
        ));
    }
    if outcomes(&summary) != cold {
        return Err("warm replay returned outcomes that differ from the cold run".into());
    }
    let hit_ms = events
        .windows(2)
        .filter(|w| w[1].1)
        .map(|w| (w[1].0 - w[0].0).as_secs_f64() * 1e3)
        .collect();
    Ok(WarmRun { wall_s, hit_ms })
}

/// What the traced executor measured besides its spans.
pub struct Traced {
    pub wall_s: f64,
    pub cells: Vec<CellOutcome>,
    /// Evaluations completed inside each stage, by stage name.
    pub stage_evals: BTreeMap<String, u64>,
    pub appends: usize,
}

/// One searched cell as a worker saw it.
struct SearchRec {
    cell: usize,
    start: Instant,
    end: Instant,
    events: Vec<(Instant, SearchEvent)>,
    outcome: CellOutcome,
}

/// Rows wait here until every earlier cell has been appended, so the
/// ledger is written in cell order exactly as `run_lab` writes it.
struct InOrder {
    ledger: Ledger,
    next: usize,
    ready: BTreeMap<usize, LedgerRow>,
    appended: Vec<(usize, Instant, Instant)>,
    err: Option<String>,
}

impl InOrder {
    fn complete(&mut self, cell: usize, row: LedgerRow) {
        self.ready.insert(cell, row);
        while let Some(row) = self.ready.remove(&self.next) {
            let t = Instant::now();
            if let Err(e) = self.ledger.append(row) {
                self.err.get_or_insert(format!("append: {e}"));
            }
            self.appended.push((self.next, t, Instant::now()));
            self.next += 1;
        }
    }
}

/// The cold campaign again, driven cell by cell through the public
/// ledger and scheduler calls on [`THREADS`] threads, recording spans
/// campaign → cell (search, append) → allocator round → stage, plus the
/// campaign-level load, lookups and index sync.
pub fn traced(spec: &ExperimentSpec, path: &Path, trace: &mut Trace) -> Result<Traced, String> {
    let t_begin = Instant::now();
    let cells = spec.cells();
    let t_expanded = Instant::now();
    let keys: Vec<String> = cells.iter().map(|c| cell_key(c, &spec.config, &spec.seeds)).collect();
    let ledger = Ledger::load(path).map_err(|e| format!("ledger load: {e}"))?;
    let t_loaded = Instant::now();
    let mut lookups = Vec::new();
    for key in &keys {
        let t = Instant::now();
        if ledger.lookup(key).is_some() {
            return Err(format!("traced campaign: {key} already in a fresh ledger"));
        }
        lookups.push((t, Instant::now()));
    }

    let next = AtomicUsize::new(0);
    let flush = Mutex::new(InOrder {
        ledger,
        next: 0,
        ready: BTreeMap::new(),
        appended: Vec::new(),
        err: None,
    });
    let worker = || {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::SeqCst);
            let Some(cell) = cells.get(i) else { break };
            let mut events = Vec::new();
            let start = Instant::now();
            let outcome = Scheduler::new(&cell.net, &cell.hw)
                .config(spec.config.clone())
                .seeds(spec.seeds.iter().copied())
                .parallelism(spec.parallelism.nested())
                .observer(|ev| events.push((Instant::now(), ev.clone())))
                .run();
            let end = Instant::now();
            let rec = CellOutcome::new(&cell.id, &outcome);
            let row = LedgerRow::new(cell, &keys[i], outcome);
            flush.lock().expect("flush lock poisoned").complete(i, row);
            mine.push(SearchRec { cell: i, start, end, events, outcome: rec });
        }
        mine
    };
    let mut recs: Vec<SearchRec> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS).map(|_| s.spawn(worker)).collect();
        handles.into_iter().flat_map(|h| h.join().expect("campaign worker panicked")).collect()
    });
    recs.sort_by_key(|r| r.cell);
    let flush = flush.into_inner().expect("flush lock poisoned");
    if let Some(e) = flush.err {
        return Err(e);
    }
    let t_sync = Instant::now();
    flush.ledger.sync_index().map_err(|e| format!("sync_index: {e}"))?;
    let t_end = Instant::now();

    // Spans, parents first.
    let campaign = trace.push("campaign", None, trace.at(t_begin), trace.at(t_end));
    trace.push("lab.expand", Some(campaign), trace.at(t_begin), trace.at(t_expanded));
    trace.push("ledger.load", Some(campaign), trace.at(t_expanded), trace.at(t_loaded));
    for (s, e) in &lookups {
        trace.push("ledger.lookup", Some(campaign), trace.at(*s), trace.at(*e));
    }
    trace.push("ledger.sync_index", Some(campaign), trace.at(t_sync), trace.at(t_end));
    let mut stage_evals: BTreeMap<String, u64> = BTreeMap::new();
    for rec in &recs {
        let &(_, a0, a1) = flush
            .appended
            .iter()
            .find(|(c, ..)| *c == rec.cell)
            .ok_or("a searched cell was never appended")?;
        let cell = trace.push("cell", Some(campaign), trace.at(rec.start), trace.at(a1));
        let search = trace.push("search", Some(cell), trace.at(rec.start), trace.at(rec.end));
        trace.push("ledger.append", Some(cell), trace.at(a0), trace.at(a1));
        push_rounds(trace, search, &rec.events, &mut stage_evals);
    }
    Ok(Traced {
        wall_s: (t_end - t_begin).as_secs_f64(),
        cells: recs.into_iter().map(|r| r.outcome).collect(),
        stage_evals,
        appends: flush.appended.len(),
    })
}

/// Allocator-round and stage spans from one search's event stream. A
/// round runs from `RoundStarted` to its last event; a stage from the
/// previous stage boundary (`RoundStarted` or `StageFinished`) to its
/// `StageFinished`.
fn push_rounds(
    trace: &mut Trace,
    search: usize,
    events: &[(Instant, SearchEvent)],
    stage_evals: &mut BTreeMap<String, u64>,
) {
    let mut evals_seen = 0u64;
    let mut i = 0;
    while i < events.len() {
        let (round_start, SearchEvent::RoundStarted { .. }) = &events[i] else {
            i += 1;
            continue;
        };
        let mut j = i + 1;
        while j < events.len() && !matches!(events[j].1, SearchEvent::RoundStarted { .. }) {
            j += 1;
        }
        let round_end = events[j - 1].0;
        let round = trace.push("round", Some(search), trace.at(*round_start), trace.at(round_end));
        let mut boundary = *round_start;
        for (t, ev) in &events[i + 1..j] {
            if let SearchEvent::StageFinished { stage, evals, .. } = ev {
                let name = format!("stage.{stage}");
                trace.push(&name, Some(round), trace.at(boundary), trace.at(*t));
                *stage_evals.entry(stage.clone()).or_default() += evals - evals_seen;
                evals_seen = *evals;
                boundary = *t;
            }
        }
        i = j;
    }
}

/// Appends `rows` synthetic rows (earlier campaigns' history) to the
/// ledger at `path` and syncs its index.
pub fn add_history(path: &Path, seed: u64, rows: u64) -> Result<(), String> {
    let rows = (0..rows)
        .map(|i| {
            let hash = format!("{:016x}", (seed ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let cell = format!("synthetic-{i}");
            let outcome = synthetic_outcome(seed.wrapping_add(i), 4);
            LedgerRow::from_parts(&hash, &cell, "synthetic", "edge", 1, outcome)
        })
        .collect();
    let mut led = Ledger::load(path).map_err(|e| format!("history ledger: {e}"))?;
    led.append_all(rows).map_err(|e| format!("history append: {e}"))?;
    led.sync_index().map_err(|e| format!("history index: {e}"))
}

/// Copies a ledger directory (shards, index, marker) to a fresh path.
pub fn copy_ledger(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for (name, bytes) in ledger_files(from)? {
        std::fs::write(to.join(name), bytes).map_err(|e| format!("{}: {e}", to.display()))?;
    }
    Ok(())
}

/// Every file of a ledger directory with its bytes, sorted by name.
pub fn ledger_files(path: &Path) -> Result<Vec<(String, Vec<u8>)>, String> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let bytes = std::fs::read(entry.path()).map_err(|e| e.to_string())?;
        files.push((entry.file_name().to_string_lossy().into_owned(), bytes));
    }
    files.sort();
    Ok(files)
}

/// Read-side ledger figures on a finished ledger.
pub struct LedgerLayer {
    pub load_ms: f64,
    pub lookup_us: f64,
    pub decode_us: f64,
    pub rows: usize,
    pub decodes: u64,
    pub bytes: u64,
}

/// Times `Ledger::load_readonly`, `lookup` and the first (decoding)
/// `LedgerRow::outcome` call for `keys`.
pub fn ledger_layer(path: &Path, keys: &[String]) -> Result<LedgerLayer, String> {
    const LOADS: usize = 5;
    const LOOKUP_PASSES: u32 = 1000;
    let mut load_ms = Vec::new();
    let mut ledger = None;
    for _ in 0..LOADS {
        let t = Instant::now();
        let l = Ledger::load_readonly(path).map_err(|e| format!("ledger load: {e}"))?;
        load_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ledger = Some(l);
    }
    let ledger = ledger.expect("loaded at least once");
    let t = Instant::now();
    for _ in 0..LOOKUP_PASSES {
        for key in keys {
            std::hint::black_box(ledger.lookup(std::hint::black_box(key)));
        }
    }
    let lookup_us =
        t.elapsed().as_secs_f64() * 1e6 / (f64::from(LOOKUP_PASSES) * keys.len() as f64);
    let mut decode = Duration::ZERO;
    for key in keys {
        let row = ledger.lookup(key).ok_or(format!("{key} missing from the ledger"))?;
        let t = Instant::now();
        row.outcome().ok_or(format!("{key}: payload does not decode"))?;
        decode += t.elapsed();
    }
    let bytes = ledger_files(path)?.iter().map(|(_, b)| b.len() as u64).sum();
    Ok(LedgerLayer {
        load_ms: crate::stats::median(&load_ms),
        lookup_us,
        decode_us: decode.as_secs_f64() * 1e6 / keys.len() as f64,
        rows: ledger.len(),
        decodes: ledger.outcome_decodes(),
        bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_cell_time_ends_at_the_workers_next_event() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let a = std::thread::current().id();
        let b = std::thread::spawn(|| std::thread::current().id()).join().unwrap();
        let started = |cell: &str| LabEvent::Started { cell: cell.into() };
        let finished = |cell: &str| LabEvent::Finished {
            cell: cell.into(),
            hash: String::new(),
            cost: 1.0,
            latency_cycles: 1,
            evals: 1,
        };
        let events = vec![
            (at(0), a, started("c0")),
            (at(1), b, started("c1")),
            // c1 ends first but waits for c0; its worker starts c2.
            (at(5), b, started("c2")),
            // c0's worker writes c0 and the waiting c1.
            (at(20), a, finished("c0")),
            (at(20), a, finished("c1")),
            // c2 ends on b but waits for nothing: its own row lands.
            (at(30), b, finished("c2")),
            (at(31), a, started("c3")),
            // c3's row waits on nothing either.
            (at(40), a, finished("c3")),
        ];
        // c0 20 ms, c1 4 ms (not 19 ms to its row), c2 25 ms, c3 9 ms.
        let ms: Vec<f64> = own_cell_ms(&events).iter().map(|m| m.round()).collect();
        assert_eq!(ms, vec![20.0, 4.0, 25.0, 9.0]);
        // A worker's last cell with no later event of its own is left out.
        assert_eq!(own_cell_ms(&events[..2]), Vec::<f64>::new());
    }
}
