//! Executes a committed `.soma` experiment file through the parallel,
//! resumable, cache-aware orchestrator (`soma_bench::lab`).
//!
//! ```sh
//! cargo run --release -p soma-bench --bin lab -- specs/fig2_edge.soma
//! cargo run --release -p soma-bench --bin lab -- specs/fig2_edge.soma \
//!     --ledger out/fig2.ledger --require-hits
//! ```
//!
//! Stdout carries the same CSV the `run` binary prints (byte-identical
//! for the same spec — pinned by the golden tests); commentary and the
//! per-cell `LabEvent` stream go to stderr. Results are keyed into the
//! **run ledger** (default `target/lab/<experiment-name>.ledger`, a
//! binary shard directory; `--ledger <dir>` picks an explicit
//! location, and `ledger dump` renders it as JSON lines): a rerun of an
//! unchanged spec performs zero search work, an interrupted run resumes
//! from the last completed cell, and editing the spec's search
//! configuration invalidates exactly the affected cells (the key hashes
//! scenario id, resolved hardware, full `SearchConfig`, seed portfolio
//! and engine version). A ledger row whose payload no longer decodes is
//! re-searched, superseded and counted in the closing line.
//!
//! `--require-hits` exits with status 3 unless every cell was a ledger
//! hit — the CI replay gate (`lab-smoke` runs the same spec twice and
//! requires the second pass to be 100 % cached). A cell that panics is
//! isolated (the campaign completes without it) and reported with exit
//! status 4: partial failure, rerun to retry exactly the failed cells.
//!
//! The spec file owns the entire run configuration, so `run`'s
//! `SOMA_WORKLOAD` filter is ignored with a warning (a partial run would
//! poison resume-vs-uninterrupted ledger comparisons). The one override
//! is `--threads <auto|seq|N>`, which replaces the spec's `threads`
//! directive for this invocation: thread policy is wall-clock only
//! (ledger bytes and CSV are bit-identical across counts, and the cache
//! key never sees it), so it is the one knob that cannot poison anything.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use soma_bench::{csv_rows, run_cells, LabEvent, CSV_HEADER};
use soma_obs::summary::{CampaignSummary, CellOutcome, RunCounts};
use soma_search::Parallelism;
use soma_serve::shutdown;
use soma_spec::read_experiment;

fn usage() -> ExitCode {
    eprintln!(
        "usage: lab <experiment.soma> [--ledger <dir>] [--require-hits] \
         [--threads <auto|seq|N>] [--summary <out.json>] [--version]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--version") {
        println!("{}", soma_bench::version_line("lab"));
        return ExitCode::SUCCESS;
    }
    if std::env::var_os("SOMA_WORKLOAD").is_some() {
        eprintln!("lab: ignoring SOMA_WORKLOAD — the spec file owns the entire run configuration");
    }

    let mut spec_path: Option<String> = None;
    let mut ledger_path: Option<PathBuf> = None;
    let mut summary_path: Option<PathBuf> = None;
    let mut require_hits = false;
    let mut threads_flag: Option<Parallelism> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ledger" => match args.next() {
                Some(p) => ledger_path = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--summary" => match args.next() {
                Some(p) => summary_path = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--threads" => match args.next().map(|v| v.parse()) {
                Some(Ok(par)) => threads_flag = Some(par),
                Some(Err(e)) => {
                    eprintln!("lab: --threads: {e}");
                    return ExitCode::from(2);
                }
                None => return usage(),
            },
            "--require-hits" => require_hits = true,
            _ if spec_path.is_none() && !arg.starts_with('-') => spec_path = Some(arg),
            _ => return usage(),
        }
    }
    let Some(path) = spec_path else {
        return usage();
    };

    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("lab: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut spec = match read_experiment(&text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("lab: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    // Thread policy is the one spec field a flag may override: it is
    // wall-clock only and never part of a cell's cache key.
    if let Some(par) = threads_flag {
        spec.parallelism = par;
    }
    let ledger = ledger_path
        .unwrap_or_else(|| PathBuf::from("target/lab").join(format!("{}.ledger", spec.name)));

    eprintln!(
        "[lab] {}: {} cell(s), {} seed(s), effort {}, threads {}, ledger {}",
        spec.name,
        spec.cells().len(),
        spec.seeds.len(),
        spec.config.effort,
        spec.parallelism,
        ledger.display()
    );
    // SIGINT/SIGTERM flip one atomic; the orchestrator stops fanning
    // out, flushes every completed-in-order cell, and returns with
    // `stopped: true` — the ledger stays a clean, replayable prefix.
    shutdown::install_signal_handlers();
    let run_start = Instant::now();
    let stop = shutdown::stop_flag();
    let summary = run_cells(&spec, spec.cells(), Some(&ledger), stop, None, |ev| match ev {
        LabEvent::Queued { cell, hash } => eprintln!("[lab] queued   {cell} ({hash})"),
        LabEvent::Cached { cell, .. } => eprintln!("[lab] cached   {cell}"),
        LabEvent::Started { cell } => eprintln!("[lab] started  {cell}"),
        LabEvent::Finished { cell, cost, latency_cycles, evals, .. } => eprintln!(
            "[lab] finished {cell}: best cost {cost:.3e}, latency {latency_cycles} cycles, \
             {evals} evals"
        ),
        LabEvent::Failed { cell, error, .. } => eprintln!("[lab] FAILED   {cell}: {error}"),
    });
    let summary = match summary {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lab: {}: {e}", ledger.display());
            return ExitCode::from(2);
        }
    };
    let elapsed_s = run_start.elapsed().as_secs_f64();

    if let Some(out) = &summary_path {
        let cells: Vec<CellOutcome> = summary
            .rows
            .iter()
            .map(|r| CellOutcome {
                scenario: r.cell.id.clone(),
                cost: r.outcome.best.cost,
                latency_cycles: r.outcome.best.report.latency_cycles,
                evals: r.outcome.evals,
            })
            .collect();
        let campaign = CampaignSummary::from_cells(
            &spec.name,
            &cells,
            summary.health,
            Some(RunCounts {
                hits: summary.hits,
                searched: summary.misses,
                failed: summary.failed,
                stopped: summary.stopped,
                elapsed_s: Some(elapsed_s),
            }),
        );
        if let Err(e) = campaign.write(out) {
            eprintln!("lab: cannot write summary {}: {e}", out.display());
            return ExitCode::from(2);
        }
        eprintln!("[lab] campaign summary written to {}", out.display());
    }

    println!("{CSV_HEADER}");
    print!("{}", csv_rows(&summary.rows));
    if !summary.health.is_clean() || summary.health.duplicates > 0 {
        eprintln!(
            "[lab] ledger repair: {} row(s) quarantined{}, {} duplicate hash(es) \
             (last write wins); see {}",
            summary.health.quarantined,
            if summary.health.truncated { ", torn tail dropped" } else { "" },
            summary.health.duplicates,
            soma_spec::quarantine_path(&ledger).display()
        );
    }
    eprintln!(
        "[lab] {}: {} hit(s), {} searched ({} undecodable row(s) re-searched), {} failed, \
         ledger {}",
        spec.name,
        summary.hits,
        summary.misses,
        summary.undecodable,
        summary.failed,
        ledger.display()
    );
    if summary.stopped {
        eprintln!(
            "[lab] interrupted: ledger flushed through {} searched cell(s); \
             rerun the same spec to resume from there",
            summary.misses
        );
        return ExitCode::from(130);
    }
    if require_hits && summary.misses > 0 {
        eprintln!(
            "lab: --require-hits: {} cell(s) were not served from the ledger",
            summary.misses
        );
        return ExitCode::from(3);
    }
    if summary.failed > 0 {
        // The partial-failure report carries the full ledger health so a
        // machine parsing stderr (or a human triaging CI) sees repair
        // activity alongside the failure count — previously only the
        // human-readable warning above surfaced it.
        eprintln!(
            "lab: {} cell(s) failed and were skipped; ledger health: kept {}, \
             quarantined {}, truncated {}, duplicates {}; rerun the same spec to \
             retry exactly those cells",
            summary.failed,
            summary.health.kept,
            summary.health.quarantined,
            summary.health.truncated,
            summary.health.duplicates
        );
        return ExitCode::from(4);
    }
    ExitCode::SUCCESS
}
