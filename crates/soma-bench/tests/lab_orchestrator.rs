//! Differential and resume tests for the `lab` orchestrator.
//!
//! * **Differential** — `run_lab` (parallel work-queue + ledger) must
//!   equal a literal sequential per-cell `Scheduler` loop
//!   **bit-for-bit**: same rows, same envelope bests, same ledger
//!   content — for every registry scenario of the differential workload
//!   set at tiny effort. The property is workload-agnostic (the lab
//!   drives the identical `Scheduler` portfolio per cell), so the set
//!   uses the registry's small figure workloads across *all* presets and
//!   batches, plus one real CNN as a depth probe, keeping the suite fast.
//! * **Resume** — an interrupted run (ledger cut back mid-spec) that is
//!   rerun must produce a ledger byte-identical to an uninterrupted run,
//!   serving the surviving prefix from the ledger (`LabEvent::Cached`,
//!   never `Started`) without re-searching it.

use std::fs;
use std::path::{Path, PathBuf};

use soma_bench::lab::cell_key;
use soma_bench::{run_lab, ExperimentRow, LabEvent, Ledger};
use soma_search::{Evaluated, Parallelism, Scheduler, SearchConfig};
use soma_spec::registry::scenarios;
use soma_spec::{read_experiment, ExperimentSpec};

fn fresh(name: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
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

/// Cuts a finished two-cell ledger back to what a kill during the
/// second cell's append leaves: the first row intact, the first `keep`
/// bytes of the second row's frame, and no index (a run writes it only
/// at the end).
fn cut_second_row(dir: &Path, spec: &ExperimentSpec, keep: usize) {
    let keys: Vec<String> =
        spec.cells().iter().map(|c| cell_key(c, &spec.config, &spec.seeds)).collect();
    let shard = |key: &str| dir.join(format!("shard-{}.bin", &key[..1]));
    fs::remove_file(dir.join("index.bin")).expect("index written by the run");
    let frame_len = |b: &[u8], at: usize| {
        8 + u32::from_le_bytes(b[at + 4..at + 8].try_into().unwrap()) as usize
    };
    let second = shard(&keys[1]);
    let bytes = fs::read(&second).expect("second row's shard");
    // Shard header (8 bytes), then the first row's frame if it shares
    // the shard.
    let start = if shard(&keys[0]) == second { 8 + frame_len(&bytes, 8) } else { 8 };
    assert!(keep < frame_len(&bytes, start), "cut inside the second frame");
    if start == 8 && keep == 0 {
        fs::remove_file(&second).expect("drop the shard the kill never created");
    } else {
        fs::write(&second, &bytes[..start + keep]).expect("cut");
    }
}

fn assert_evaluated_eq(cell: &str, which: &str, a: &Evaluated, b: &Evaluated) {
    assert_eq!(a.encoding, b.encoding, "{cell}: {which} encoding");
    assert_eq!(a.report, b.report, "{cell}: {which} report");
    assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{cell}: {which} cost");
}

fn assert_rows_eq(a: &[ExperimentRow], b: &[ExperimentRow]) {
    assert_eq!(a.len(), b.len(), "row counts");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.cell.id, y.cell.id, "cell order");
        assert_evaluated_eq(&x.cell.id, "stage1", &x.outcome.stage1, &y.outcome.stage1);
        assert_evaluated_eq(&x.cell.id, "best", &x.outcome.best, &y.outcome.best);
        assert_eq!(x.outcome.allocator_iters, y.outcome.allocator_iters, "{}", x.cell.id);
        assert_eq!(x.outcome.evals, y.outcome.evals, "{}", x.cell.id);
        assert_eq!(x.outcome.rejected, y.outcome.rejected, "{}", x.cell.id);
    }
}

/// The differential workload set: every registry point of the two small
/// figure networks over the quick batch grid {1, 4} (2 workloads x 2
/// presets x 2 batches = 8 cells; the b16/b64 points cost debug-build
/// minutes for no extra path coverage — tile counts change, code paths
/// do not), plus ResNet-50 on edge at batch 1 as the non-toy probe.
fn differential_spec() -> ExperimentSpec {
    let mut cells: Vec<_> = scenarios()
        .into_iter()
        .filter(|s| (s.workload == "fig2" || s.workload == "fig4") && s.batch <= 4)
        .collect();
    assert_eq!(cells.len(), 8, "two figure workloads x both presets x the quick batch grid");
    cells.push(soma_spec::registry::lookup("resnet50@edge/b1").expect("registry id"));
    ExperimentSpec {
        name: "differential".into(),
        scenarios: cells,
        workloads: vec![],
        hardware: vec![],
        batches: vec![],
        seeds: vec![2025],
        config: SearchConfig { effort: 0.005, seed: 2025, ..SearchConfig::default() },
        parallelism: Parallelism::Sequential,
    }
}

/// The reference run of an experiment: one hand-written `Scheduler`
/// search per cell, in cell order, on the calling thread.
fn scheduler_loop(spec: &ExperimentSpec) -> Vec<ExperimentRow> {
    spec.cells()
        .into_iter()
        .map(|cell| {
            let outcome = Scheduler::new(&cell.net, &cell.hw)
                .config(spec.config.clone())
                .seeds(spec.seeds.iter().copied())
                .run();
            ExperimentRow { cell, outcome }
        })
        .collect()
}

#[test]
fn lab_matches_sequential_run_experiment_bit_for_bit() {
    let spec = differential_spec();
    let sequential = scheduler_loop(&spec);

    let ledger_path = fresh("differential.ledger");
    let cold = run_lab(&spec, &ledger_path, |_| {}).expect("cold lab run");
    assert_eq!((cold.hits, cold.misses), (0, spec.cells().len()));
    assert_rows_eq(&sequential, &cold.rows);

    // The persisted ledger holds the same outcomes, row per cell in cell
    // order — "same ledger rows" down to the serialised bits.
    let ledger = Ledger::load(&ledger_path).expect("ledger loads");
    assert_eq!(ledger.len(), sequential.len());
    for (row, led) in sequential.iter().zip(ledger.rows()) {
        assert_eq!(row.cell.id, led.cell);
        assert_eq!(row.cell.workload, led.workload);
        assert_eq!(row.cell.platform, led.platform);
        assert_eq!(row.cell.batch, led.batch);
        let led_out = led.outcome().expect("ledger outcome decodes");
        assert_evaluated_eq(&led.cell, "ledger best", &row.outcome.best, &led_out.best);
        assert_evaluated_eq(&led.cell, "ledger stage1", &row.outcome.stage1, &led_out.stage1);
    }

    // And the warm (all-cached) pass replays the identical rows.
    let warm = run_lab(&spec, &ledger_path, |_| {}).expect("warm lab run");
    assert_eq!((warm.hits, warm.misses), (spec.cells().len(), 0));
    assert_rows_eq(&sequential, &warm.rows);
}

#[test]
fn multithreaded_lab_ledger_is_byte_identical_to_sequential() {
    // The determinism contract of the `Parallelism` API, end to end:
    // an N-thread lab run must produce the *same ledger bytes* as the
    // single-thread golden — not just equal outcomes. Cells finish out
    // of order under Fixed(4); the in-order flusher must still append
    // rows in cell order, and every outcome must be bit-identical.
    let golden_spec = differential_spec();
    let golden_path = fresh("threads-golden.ledger");
    let golden = run_lab(&golden_spec, &golden_path, |_| {}).expect("sequential golden run");
    let golden_bytes = files(&golden_path);

    for par in [Parallelism::Fixed(2), Parallelism::Fixed(4)] {
        let mut spec = differential_spec();
        spec.parallelism = par;
        let path = fresh(&format!("threads-{par}.ledger"));
        let got = run_lab(&spec, &path, |_| {}).expect("parallel lab run");
        assert_eq!((got.hits, got.misses), (0, spec.cells().len()), "{par}: all cold");
        assert_rows_eq(&golden.rows, &got.rows);
        assert_eq!(
            files(&path),
            golden_bytes,
            "{par}: ledger bytes diverged from the sequential golden"
        );
    }
}

/// The committed two-scenario campaign spec, as the resume tests use it.
fn fig_pair() -> ExperimentSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/fig_pair_edge.soma");
    let text = fs::read_to_string(path).expect("committed spec exists");
    read_experiment(&text).expect("committed spec parses")
}

#[test]
fn interrupted_run_resumes_to_a_byte_identical_ledger() {
    let spec = fig_pair();

    // Reference: one uninterrupted run.
    let intact_path = fresh("resume-intact.ledger");
    let intact = run_lab(&spec, &intact_path, |_| {}).expect("uninterrupted run");
    assert_eq!((intact.hits, intact.misses), (0, 2));
    let intact_bytes = files(&intact_path);

    // "Interrupt" a second run after its first cell: cut the ledger back
    // to its first row (exactly what a kill between cells leaves).
    let resumed_path = fresh("resume-cut.ledger");
    run_lab(&spec, &resumed_path, |_| {}).expect("run to interrupt");
    cut_second_row(&resumed_path, &spec, 0);

    // Resume. The surviving cell must be served from the ledger (Cached,
    // never Started => not re-searched), the lost cell re-run.
    let mut events = Vec::new();
    let resumed = run_lab(&spec, &resumed_path, |ev| events.push(ev.clone())).expect("resume");
    assert_eq!((resumed.hits, resumed.misses), (1, 1));
    let first = &spec.cells()[0].id;
    let second = &spec.cells()[1].id;
    assert!(
        events.iter().any(|e| matches!(e, LabEvent::Cached { cell, .. } if cell == first)),
        "surviving cell served from the ledger: {events:?}"
    );
    assert!(
        !events.iter().any(|e| matches!(e, LabEvent::Started { cell } if cell == first)),
        "surviving cell must not be re-searched: {events:?}"
    );
    assert!(
        events.iter().any(|e| matches!(e, LabEvent::Started { cell } if cell == second)),
        "lost cell re-runs: {events:?}"
    );

    // The resumed ledger is byte-identical to the uninterrupted one.
    assert_eq!(files(&resumed_path), intact_bytes);
    assert_rows_eq(&intact.rows, &resumed.rows);
}

#[test]
fn kill_mid_append_resumes_cleanly() {
    // Harsher interruption: the second row's frame is torn mid-write.
    let spec = fig_pair();
    let intact_path = fresh("torn-intact.ledger");
    run_lab(&spec, &intact_path, |_| {}).expect("reference run");
    let intact_bytes = files(&intact_path);

    let torn_path = fresh("torn-cut.ledger");
    run_lab(&spec, &torn_path, |_| {}).expect("run to tear");
    // Keep the first complete row plus part of the second frame.
    cut_second_row(&torn_path, &spec, 300);

    let resumed = run_lab(&spec, &torn_path, |_| {}).expect("resume after tear");
    assert_eq!((resumed.hits, resumed.misses), (1, 1), "torn row dropped, complete row kept");
    assert!(resumed.health.truncated, "the probe saw the torn tail");
    assert_eq!(files(&torn_path), intact_bytes);
}

#[test]
fn rerunning_a_finished_spec_does_zero_search_work() {
    let spec = fig_pair();
    let path = fresh("replay.ledger");
    run_lab(&spec, &path, |_| {}).expect("cold run");
    let bytes = files(&path);

    let mut events = Vec::new();
    let warm = run_lab(&spec, &path, |ev| events.push(ev.clone())).expect("warm run");
    assert_eq!((warm.hits, warm.misses), (2, 0), "all cells are ledger hits");
    assert!(!events.iter().any(|e| matches!(e, LabEvent::Started { .. })), "{events:?}");
    assert!(!events.iter().any(|e| matches!(e, LabEvent::Finished { .. })), "{events:?}");
    assert_eq!(
        events.iter().filter(|e| matches!(e, LabEvent::Cached { .. })).count(),
        2,
        "{events:?}"
    );
    assert_eq!(files(&path), bytes, "a replay never writes");
}
