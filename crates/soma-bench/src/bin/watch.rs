//! Live campaign observability: watch a running (or finished) `lab`
//! campaign through its run ledger.
//!
//! ```sh
//! # Replay a finished campaign: final cell grid, hit-rate line,
//! # per-scenario best-cost table, from its ledger directory.
//! cargo run --release -p soma-bench --bin watch -- target/lab/fig-pair-edge.ledger
//!
//! # Attach to a running lab: ANSI repaint loop tailing the ledger.
//! # Type a scenario id (or a unique hash prefix) + Enter for the
//! # cell's Gantt drill-down; `q` + Enter quits.
//! cargo run --release -p soma-bench --bin watch -- \
//!     target/lab/fig-pair-edge.ledger --follow --spec specs/fig_pair_edge.soma
//!
//! # CI: headless replay + machine-readable campaign summary
//! # (specs/SUMMARY.md), with an optional best-cost trend gate.
//! cargo run --release -p soma-bench --bin watch -- \
//!     target/lab/fig-pair-edge.ledger --headless --summary out/summary.json \
//!     --check-baseline ci/summary.baseline.json --tolerance 0.05
//! ```
//!
//! Every load here is **read-only** ([`Ledger::load_readonly`]): watch
//! is an observer, and an observer racing a live writer must never
//! repair — or even touch — the ledger's bytes.
//!
//! The frame is a pure function of the ledger contents
//! (`soma_obs::WatchModel`): replaying a finished ledger renders
//! exactly the final frame a live watch of the same campaign showed —
//! the equivalence the golden tests pin.
//!
//! Exit codes: `0` ok, `2` usage or I/O error, `5` the trend gate
//! found a best-cost regression beyond tolerance.

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Duration;

use soma_bench::lab::Ledger;
use soma_obs::summary::CampaignSummary;
use soma_obs::{gantt_for_row, LabEvent, WatchModel};
use soma_serve::shutdown;
use soma_spec::read_experiment;

fn usage() -> ExitCode {
    eprintln!(
        "usage: watch <ledger> [--follow] [--headless] [--spec <experiment.soma>] \
         [--summary <out.json>] [--name <campaign>] [--gantt <cell-id|hash-prefix>] \
         [--width N] [--interval-ms N] [--check-baseline <summary.json>] [--tolerance F] \
         [--version]"
    );
    ExitCode::from(2)
}

struct Flags {
    ledger: PathBuf,
    follow: bool,
    headless: bool,
    spec: Option<PathBuf>,
    summary: Option<PathBuf>,
    name: Option<String>,
    gantt: Option<String>,
    width: usize,
    interval_ms: u64,
    baseline: Option<PathBuf>,
    tolerance: f64,
}

fn parse_flags() -> Result<Flags, ExitCode> {
    let mut ledger = None;
    let mut flags = Flags {
        ledger: PathBuf::new(),
        follow: false,
        headless: false,
        spec: None,
        summary: None,
        name: None,
        gantt: None,
        width: 80,
        interval_ms: 250,
        baseline: None,
        tolerance: 0.05,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let path_arg = |args: &mut dyn Iterator<Item = String>| match args.next() {
            Some(v) => Ok(PathBuf::from(v)),
            None => Err(usage()),
        };
        match arg.as_str() {
            "--follow" => flags.follow = true,
            "--headless" => flags.headless = true,
            "--spec" => flags.spec = Some(path_arg(&mut args)?),
            "--summary" => flags.summary = Some(path_arg(&mut args)?),
            "--check-baseline" => flags.baseline = Some(path_arg(&mut args)?),
            "--name" => match args.next() {
                Some(v) => flags.name = Some(v),
                None => return Err(usage()),
            },
            "--gantt" => match args.next() {
                Some(v) => flags.gantt = Some(v),
                None => return Err(usage()),
            },
            "--width" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(w)) => flags.width = w.max(20),
                _ => return Err(usage()),
            },
            "--interval-ms" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(ms)) => flags.interval_ms = ms.max(20),
                _ => return Err(usage()),
            },
            "--tolerance" => match args.next().map(|v| v.parse::<f64>()) {
                Some(Ok(t)) if t >= 0.0 => flags.tolerance = t,
                _ => return Err(usage()),
            },
            _ if ledger.is_none() && !arg.starts_with('-') => ledger = Some(PathBuf::from(arg)),
            _ => return Err(usage()),
        }
    }
    match ledger {
        Some(path) => {
            flags.ledger = path;
            Ok(flags)
        }
        None => Err(usage()),
    }
}

/// Default campaign name: the ledger directory's stem, minus a
/// `.ledger` suffix if present (`runs/fig.ledger` → `fig`), so names
/// match the `lab` convention of `<campaign>.ledger`.
fn campaign_name(ledger: &Path) -> String {
    let stem = ledger.file_stem().and_then(|s| s.to_str()).unwrap_or("campaign");
    stem.strip_suffix(".ledger").unwrap_or(stem).to_string()
}

/// Replays `ledger` rows into a fresh model, pre-queueing the spec's
/// cells first when one was given (so unresolved cells show as queued).
fn model_of(ledger: &Ledger, spec: Option<&soma_spec::ExperimentSpec>) -> WatchModel {
    let mut model = WatchModel::new();
    if let Some(spec) = spec {
        for cell in spec.cells() {
            let key = soma_bench::lab::cell_key(&cell, &spec.config, &spec.seeds);
            model.observe(&LabEvent::Queued { cell: cell.id.clone(), hash: key });
        }
    }
    for row in ledger.rows() {
        model.observe_row(row);
    }
    model
}

/// Resolves a drill-down command against the ledger: exact scenario id
/// first, then unique hash prefix.
fn drill(ledger: &Ledger, query: &str, width: usize) -> Result<String, String> {
    let rows = ledger.rows();
    let by_id: Vec<_> = rows.iter().filter(|r| r.cell == query).collect();
    if let Some(row) = by_id.last() {
        return gantt_for_row(row, width);
    }
    let by_hash: Vec<_> = rows.iter().filter(|r| r.hash.starts_with(query)).collect();
    match by_hash[..] {
        [row] => gantt_for_row(row, width),
        [] => Err(format!("no finished cell matches `{query}`")),
        _ => Err(format!("`{query}` is ambiguous ({} hash matches)", by_hash.len())),
    }
}

/// Loads, parses and trend-checks a baseline summary; returns the
/// violation lines (empty = pass).
fn check_baseline(
    current: &CampaignSummary,
    path: &Path,
    tolerance: f64,
) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let value = soma_search::json::parse(text.trim())
        .map_err(|e| format!("{}: not valid JSON: {e}", path.display()))?;
    let baseline =
        CampaignSummary::from_json(&value).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(current.check_against(&baseline, tolerance))
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--version") {
        println!("{}", soma_bench::version_line("watch"));
        return ExitCode::SUCCESS;
    }
    let flags = match parse_flags() {
        Ok(flags) => flags,
        Err(code) => return code,
    };
    let spec = match &flags.spec {
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| read_experiment(&text).map_err(|e| e.to_string()))
        {
            Ok(spec) => Some(spec),
            Err(e) => {
                eprintln!("watch: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let name = flags.name.clone().unwrap_or_else(|| campaign_name(&flags.ledger));

    if flags.follow {
        follow(&flags, spec.as_ref())
    } else {
        replay(&flags, spec.as_ref(), &name)
    }
}

/// One-shot mode: load the ledger once, render the final frame, then
/// handle `--gantt`, `--summary` and the trend gate.
fn replay(flags: &Flags, spec: Option<&soma_spec::ExperimentSpec>, name: &str) -> ExitCode {
    // Observers never repair: a read-only load tolerates damage in
    // memory and leaves the file bytes to the writer that owns them.
    let ledger = match Ledger::load_readonly(&flags.ledger) {
        Ok(ledger) => ledger,
        Err(e) => {
            eprintln!("watch: {}: {e}", flags.ledger.display());
            return ExitCode::from(2);
        }
    };
    if let Some(query) = &flags.gantt {
        return match drill(&ledger, query, flags.width) {
            Ok(chart) => {
                print!("{chart}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("watch: {e}");
                ExitCode::from(2)
            }
        };
    }

    let model = model_of(&ledger, spec);
    print!("{}", model.render(flags.width));
    if !ledger.health().is_clean() || ledger.health().duplicates > 0 {
        let h = ledger.health();
        eprintln!(
            "[watch] ledger health: {} kept, {} quarantined, truncated: {}, {} duplicate(s)",
            h.kept, h.quarantined, h.truncated, h.duplicates
        );
    }

    // The canonical byte-stable artifact comes straight from the ledger
    // (specs/SUMMARY.md) — same cells the frame showed.
    let summary = CampaignSummary::from_ledger(name, &ledger);
    if let Some(path) = &flags.summary {
        if let Err(e) = summary.write(path) {
            eprintln!("watch: {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("[watch] summary written to {}", path.display());
    }
    if let Some(baseline) = &flags.baseline {
        match check_baseline(&summary, baseline, flags.tolerance) {
            Ok(violations) if violations.is_empty() => {
                eprintln!("[watch] trend gate: ok (tolerance {:.1}%)", flags.tolerance * 100.0);
            }
            Ok(violations) => {
                for v in &violations {
                    eprintln!("watch: trend gate: {v}");
                }
                return ExitCode::from(5);
            }
            Err(e) => {
                eprintln!("watch: trend gate: {e}");
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::SUCCESS
}

/// Live mode: repaint on every ledger change, stop on completion (all
/// spec cells resolved), `q`, or SIGINT. Drill-down commands arrive as
/// stdin lines so the terminal stays in cooked mode throughout.
fn follow(flags: &Flags, spec: Option<&soma_spec::ExperimentSpec>) -> ExitCode {
    shutdown::install_signal_handlers();
    let name = flags.name.clone().unwrap_or_else(|| campaign_name(&flags.ledger));
    let (tx, rx) = mpsc::channel::<String>();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });

    let mut last_frame = String::new();
    let mut notice = String::new();
    loop {
        // A live campaign is appending to this file *right now*. A
        // writable load here could race the writer's half-flushed tail
        // and "repair" it away — follow mode must never mutate the
        // ledger, so every repaint is a read-only load.
        let ledger = match Ledger::load_readonly(&flags.ledger) {
            Ok(ledger) => ledger,
            Err(e) => {
                eprintln!("watch: {}: {e}", flags.ledger.display());
                return ExitCode::from(2);
            }
        };
        let model = model_of(&ledger, spec);
        let mut frame = model.render(flags.width);
        if !notice.is_empty() {
            frame.push_str(&notice);
        }
        frame.push_str("type a cell id (or hash prefix) + enter for its gantt; q quits\n");
        if frame != last_frame {
            if flags.headless {
                print!("{frame}");
            } else {
                // Clear + home + repaint: one write keeps tearing down.
                print!("\x1b[2J\x1b[H{frame}");
            }
            let _ = std::io::stdout().flush();
            last_frame = frame;
        }

        while let Ok(line) = rx.try_recv() {
            let query = line.trim();
            if query.is_empty() {
                continue;
            }
            if query == "q" || query == "quit" {
                return finish(flags, &name, &ledger);
            }
            notice = match drill(&ledger, query, flags.width) {
                Ok(chart) => format!("--- gantt {query} ---\n{chart}"),
                Err(e) => format!("[watch] {e}\n"),
            };
            last_frame.clear(); // force repaint with the drill result
        }

        // Done once none of the spec's cells is still queued: a ledger
        // may hold other campaigns' rows, or a figure's Cocco twins.
        let done = spec.is_some() && model.counts().0 == 0;
        if done || shutdown::stop_requested() {
            return finish(flags, &name, &ledger);
        }
        std::thread::sleep(Duration::from_millis(flags.interval_ms));
    }
}

/// Shared tail of the follow mode: write the summary if asked, exit 0.
fn finish(flags: &Flags, name: &str, ledger: &Ledger) -> ExitCode {
    if let Some(path) = &flags.summary {
        let summary = CampaignSummary::from_ledger(name, ledger);
        if let Err(e) = summary.write(path) {
            eprintln!("watch: {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("[watch] summary written to {}", path.display());
    }
    ExitCode::SUCCESS
}
