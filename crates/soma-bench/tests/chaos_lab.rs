//! Chaos storm over the lab orchestrator: a whole campaign driven under
//! seeded CHAOS faults (cell panics, slow cells, torn/corrupt/failed
//! ledger appends) until it converges: **a panic in one cell never
//! aborts the campaign, no previously-flushed row is ever lost, a row
//! corrupted on its way to disk is re-searched rather than served, and
//! the converged ledger is row-identical to a never-faulted run.**
//!
//! Deterministic end to end: `threads seq` pins the fault schedule to
//! cell order, and the [`FaultPlan`] seed pins every decision.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use soma_bench::lab::{cell_key, run_cells, run_lab, Ledger};
use soma_spec::fault::{FaultConfig, FaultPlan};
use soma_spec::read_experiment;

const SPEC: &str = "soma-experiment v1\nname chaos\n\
                    scenario fig4@edge/b1\nscenario fig4@edge/b2\nscenario fig2@edge/b1\n\
                    seeds 11\neffort 0.01\nthreads seq\nend\n";

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("soma-chaos-lab");
    fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&path);
    path
}

/// The ledger's JSON view, one line per row in append order.
fn dump(ledger: &Ledger) -> Vec<String> {
    ledger.rows().iter().map(|r| r.to_line().expect("row decodes")).collect()
}

#[test]
fn chaos_campaigns_converge_to_the_faultless_ledger() {
    let spec = read_experiment(SPEC).unwrap();
    let stop = AtomicBool::new(false);

    // The reference: the same spec, never faulted.
    let ref_path = tmp("reference.ledger");
    let reference = run_lab(&spec, &ref_path, |_| {}).unwrap();
    assert_eq!((reference.hits, reference.misses, reference.failed), (0, 3, 0));
    let reference = Ledger::load(&ref_path).unwrap();

    let mut saw_failure = false;
    let mut saw_undecodable = false;
    // Seed 0 corrupts a row on its way to disk (a silent bit flip the
    // synced index then vouches for): only decoding it can tell.
    for plan_seed in [0u64, 7, 0xC0FFEE] {
        let path = tmp(&format!("storm-{plan_seed}.ledger"));
        let plan = Arc::new(FaultPlan::seeded(plan_seed, FaultConfig::CHAOS));

        let mut rounds = 0;
        loop {
            rounds += 1;
            assert!(rounds <= 60, "seed {plan_seed} never converged");
            let faults = Some(Arc::clone(&plan));
            match run_cells(&spec, spec.cells(), Some(&path), &stop, faults, |_| {}) {
                Ok(summary) => {
                    saw_failure |= summary.failed > 0;
                    // Panic isolation: a failed cell never aborts the
                    // campaign — the run still completes (not stopped).
                    assert!(!summary.stopped, "seed {plan_seed}: chaos must not stop a run");
                    if summary.failed == 0 && summary.hits == 3 {
                        break; // every row decodes: converged
                    }
                }
                // Torn/failed appends surface as I/O errors; the next
                // round's load repairs the tail and retries.
                Err(e) => assert!(e.to_string().contains("injected fault"), "{e}"),
            }
        }
        assert!(plan.injected() > 0, "seed {plan_seed} injected nothing");

        // Converged means *identical*: every cell's row decodes and
        // matches the never-faulted ledger byte for byte (order may
        // differ — failed cells fill their slots on later rounds).
        let ledger = Ledger::load(&path).unwrap();
        assert!(ledger.health().is_clean(), "{:?}", ledger.health());
        for cell in spec.cells() {
            let key = cell_key(&cell, &spec.config, &spec.seeds);
            let got = ledger.lookup(&key).unwrap_or_else(|| panic!("{} missing", cell.id));
            let want = reference.lookup(&key).expect("reference has every cell");
            let got = got.to_line().unwrap_or_else(|| panic!("{} does not decode", cell.id));
            assert_eq!(Some(got), want.to_line(), "{} drifted under chaos", cell.id);
        }
        saw_undecodable |= ledger.rows().iter().any(|r| r.outcome().is_none());

        let _ = fs::remove_dir_all(&path);
    }
    assert!(saw_failure, "no seed exercised panic isolation");
    assert!(saw_undecodable, "no seed wrote a row that only a decode could reject");
    let _ = fs::remove_dir_all(&ref_path);
}

/// A previously-flushed row survives any later chaos round: rows the
/// first (faultless) run wrote are byte-identical after storms of
/// faulted reruns, because hits never rewrite and recovery never drops
/// a valid row.
#[test]
fn previously_flushed_rows_survive_later_chaos_rounds() {
    let spec = read_experiment(SPEC).unwrap();
    let stop = AtomicBool::new(false);
    let path = tmp("survive.ledger");

    run_lab(&spec, &path, |_| {}).unwrap();
    let before = dump(&Ledger::load(&path).unwrap());
    assert_eq!(before.len(), 3);

    for plan_seed in 0..8u64 {
        let plan = Arc::new(FaultPlan::seeded(plan_seed, FaultConfig::CHAOS));
        // Everything is cached, so no searches run and no appends happen:
        // the chaos plan has nothing to corrupt, and the rows must ride
        // through untouched.
        let faults = Some(Arc::clone(&plan));
        let summary = run_cells(&spec, spec.cells(), Some(&path), &stop, faults, |_| {}).unwrap();
        assert_eq!((summary.hits, summary.misses, summary.failed), (3, 0, 0));
    }
    let after = dump(&Ledger::load(&path).unwrap());
    assert_eq!(before, after, "cached rounds must never disturb flushed rows");

    let _ = fs::remove_dir_all(&path);
}
