//! Executes a committed `.soma` experiment file end-to-end: spec in,
//! CSV results out — the declarative replacement for hand-editing a
//! figure binary. `run` is `lab` without a ledger: the same cell
//! executor (`soma_bench::run_cells`), which here loads and writes
//! nothing, so every cell searches.
//!
//! ```sh
//! cargo run --release -p soma-bench --bin run -- specs/fig2_edge.soma
//! cargo run --release -p soma-bench --bin run -- specs/fig2_edge.soma --threads 4
//! ```
//!
//! CSV columns (stdout; commentary on stderr):
//! `scenario,workload,platform,batch,scheme,latency_cycles,energy_pj,`
//! `cost,evals,rejected,lgs,flgs,tiles,dram_tensors` — one `ours_1` and
//! one `ours_2` row per cell, keyed by registry scenario id.
//!
//! The run is exactly reproducible from the spec file alone: every knob
//! (workloads, platforms, batches, seeds, search configuration) lives in
//! the spec, and each cell runs the same `Scheduler` pipeline a
//! hand-written driver would (`ci_smoke` pins this bit-for-bit). The one
//! thing the environment adds is `SOMA_WORKLOAD`, a case-insensitive
//! substring filter over scenario ids (`<workload>@<platform>/b<batch>`):
//! `resnet` selects both ResNet variants, `@edge` one platform and `/b4`
//! one batch size.
//!
//! `--threads <auto|seq|N>` overrides the spec's `threads` directive for
//! this invocation only. Thread policy never changes the CSV — cells
//! are merged in cell order and every seed owns its RNG stream — so the
//! override is safe to use freely.
//!
//! Exit codes: `0` success, `2` usage error, unreadable or invalid spec,
//! or no cell left after the `SOMA_WORKLOAD` filter, `4` some cells
//! panicked (isolated: the CSV holds every other cell).

use std::sync::atomic::AtomicBool;

use soma_bench::{csv_rows, run_cells, LabEvent, CSV_HEADER};
use soma_search::Parallelism;
use soma_spec::read_experiment;

fn main() {
    if std::env::args().any(|a| a == "--version") {
        println!("{}", soma_bench::version_line("run"));
        return;
    }
    let workload = match std::env::var("SOMA_WORKLOAD") {
        Ok(v) => v.trim().to_string(),
        Err(std::env::VarError::NotPresent) => String::new(),
        Err(std::env::VarError::NotUnicode(_)) => {
            eprintln!("run: SOMA_WORKLOAD is not valid Unicode");
            std::process::exit(2);
        }
    };
    let usage = || -> ! {
        eprintln!("usage: run <experiment.soma> [--threads <auto|seq|N>] [--version]");
        std::process::exit(2);
    };
    let mut spec_path: Option<String> = None;
    let mut threads_flag: Option<Parallelism> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => match args.next().map(|v| v.parse()) {
                Some(Ok(par)) => threads_flag = Some(par),
                Some(Err(e)) => {
                    eprintln!("run: --threads: {e}");
                    std::process::exit(2);
                }
                None => usage(),
            },
            _ if spec_path.is_none() && !arg.starts_with('-') => spec_path = Some(arg),
            _ => usage(),
        }
    }
    let Some(path) = spec_path else { usage() };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("run: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let mut spec = read_experiment(&text).unwrap_or_else(|e| {
        eprintln!("run: {path}: {e}");
        std::process::exit(2);
    });
    if let Some(par) = threads_flag {
        spec.parallelism = par;
    }

    // The scenario-id filter composes with the spec: a spec names the
    // full grid, `SOMA_WORKLOAD` narrows one invocation.
    let all = spec.cells();
    let before = all.len();
    let cells: Vec<_> = all.into_iter().filter(|c| selects(&workload, &c.id)).collect();
    if cells.is_empty() {
        eprintln!("run: {path}: no cells left (spec had {before}, SOMA_WORKLOAD={workload:?})");
        std::process::exit(2);
    }

    eprintln!(
        "[run] {}: {} cell(s), {} seed(s), effort {}, threads {}",
        spec.name,
        cells.len(),
        spec.seeds.len(),
        spec.config.effort,
        spec.parallelism
    );
    println!("{CSV_HEADER}");
    let summary = run_cells(&spec, cells, None, &AtomicBool::new(false), None, |ev| match ev {
        LabEvent::Finished { cell, cost, latency_cycles, evals, .. } => {
            eprintln!("[run] {cell}: best cost {cost:.3e}, latency {latency_cycles} cycles, {evals} evals");
        }
        LabEvent::Failed { cell, error, .. } => eprintln!("[run] FAILED {cell}: {error}"),
        _ => {}
    })
    .expect("a run without a ledger does no I/O");
    print!("{}", csv_rows(&summary.rows));
    if summary.failed > 0 {
        eprintln!("run: {} cell(s) failed and were skipped", summary.failed);
        std::process::exit(4);
    }
}

/// Whether a scenario id passes the `SOMA_WORKLOAD` filter: a
/// case-insensitive substring match; an empty filter selects everything.
fn selects(filter: &str, id: &str) -> bool {
    filter.is_empty() || id.to_ascii_lowercase().contains(&filter.to_ascii_lowercase())
}

#[cfg(test)]
mod tests {
    use super::selects;

    #[test]
    fn workload_filter_matches_substrings() {
        assert!(selects("fig2", "fig2@edge/b1"));
        assert!(!selects("fig2", "fig4@edge/b1"));
        assert!(selects("", "fig4@edge/b1"));
    }

    #[test]
    fn workload_filter_is_case_insensitive() {
        assert!(selects("ResNet", "resnet50@edge/b1"));
        assert!(selects("ResNet", "resnet101@cloud/b4"));
        assert!(!selects("ResNet", "fig2@edge/b1"));
    }

    #[test]
    fn workload_filter_matches_scenario_id_parts() {
        assert!(selects("@edge", "fig2@edge/b1"));
        assert!(!selects("@edge", "fig2@cloud/b1"));
        assert!(selects("/b4", "fig2@edge/b4"));
        assert!(!selects("/b4", "fig2@edge/b1"));
    }
}
