//! Persist and reload a search result through the run ledger, the one
//! on-disk form of a schedule (`specs/LEDGER.md`): append the outcome
//! under its cell's content hash, reload the ledger read-only, and check
//! that the row replays bit for bit and its best scheme re-evaluates to
//! the same latency.
//!
//! Run with: `cargo run --release --example save_restore`

use soma::prelude::*;
use soma::search::record::outcome_to_bytes;
use soma::spec::{cell_key, registry, Ledger, LedgerRow};

fn main() -> std::io::Result<()> {
    let cell = registry::lookup("fig4@edge/b1").expect("a registry scenario").cell();
    let cfg = SearchConfig { effort: 0.3, seed: 11, ..SearchConfig::default() };

    // Search, reporting each allocator round that finds a new best.
    let outcome = Scheduler::new(&cell.net, &cell.hw)
        .config(cfg.clone())
        .observer(|ev| {
            if let SearchEvent::NewBest { round, cost, latency_cycles } = ev {
                eprintln!(
                    "allocator round {round}: new best cost {cost:.3e}, {latency_cycles} cycles"
                );
            }
        })
        .run();

    // Save: one row keyed by the cell's content hash, the key `lab` and
    // `serve` look results up by.
    let dir = std::env::temp_dir().join(format!("soma-save-restore-{}.ledger", std::process::id()));
    let hash = cell_key(&cell, &cfg, &[cfg.seed]);
    let mut ledger = Ledger::load(&dir)?;
    ledger.append(LedgerRow::new(&cell, &hash, outcome.clone()))?;
    ledger.sync_index()?;

    // Restore: a read-only load finds the row by hash, and its payload
    // decodes to the same bytes.
    let reloaded = Ledger::load_readonly(&dir)?;
    let row = reloaded.lookup(&hash).expect("the appended row");
    let restored = row.outcome().expect("the payload decodes");
    assert_eq!(outcome_to_bytes(restored), outcome_to_bytes(&outcome));

    // The restored best scheme reproduces the exact same evaluation.
    let sched = ParsedSchedule::new(&cell.net, &restored.best.encoding).expect("scheme parses");
    let report = evaluate(&cell.net, &sched, &cell.hw).expect("scheme simulates");
    assert_eq!(report.latency_cycles, outcome.best.report.latency_cycles);
    println!("row {hash} reproduces latency: {} cycles", report.latency_cycles);
    println!("--- ledger dump ---\n{}", row.to_line().expect("the row decodes"));

    std::fs::remove_dir_all(&dir)
}
