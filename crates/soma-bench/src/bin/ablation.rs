//! Ablation study over SoMa's design choices (complementing the paper's
//! Sec. VII-B analysis):
//!
//! * `cocco` — the baseline (restricted space, heuristic tiling).
//! * `stage1_only` — SoMa's layer-fusion stage with double-buffer DLSA
//!   (the paper's `Ours_1`): isolates the fusion gains.
//! * `no_allocator` — full SoMa but a single Buffer Allocator round:
//!   isolates the allocator's buffer-rebalancing gains.
//! * `linked_cuts` — full SoMa but FLC set forced equal to the DRAM cut
//!   set: isolates the value of weight-shuffling FLCs (the paper's
//!   Sec. VII-B1 second lesson).
//! * `full` — the complete framework.
//!
//! ```sh
//! cargo run --release -p soma-bench --bin ablation -- specs/ablation.soma [--ledger <dir>]
//! ```
//!
//! Runs every cell of the spec and its Cocco twin, then every cell under
//! two specs derived from it (`max_allocator_iters 1`, `link_cuts 1`),
//! all through the one cell executor (see `soma_bench::figure`). CSV
//! columns: `scenario,workload,batch,variant,latency_cycles,energy_pj,`
//! `cost`, keyed by the cell's scenario id. Exit codes as for `fig6`.

use std::process::ExitCode;

use soma_bench::Figure;
use soma_search::{Evaluated, SearchConfig};
use soma_spec::ExperimentSpec;

fn main() -> ExitCode {
    let (mut fig, spec) = Figure::from_args("ablation");
    let derived = |suffix: &str, config: SearchConfig| ExperimentSpec {
        name: format!("{}-{suffix}", spec.name),
        config,
        ..spec.clone()
    };
    let no_alloc =
        derived("no-allocator", SearchConfig { max_allocator_iters: 1, ..spec.config.clone() });
    let linked = derived("linked-cuts", SearchConfig { link_cuts: true, ..spec.config.clone() });

    let pairs = fig.pairs(&spec);
    let no_alloc = fig.run(&no_alloc, no_alloc.cells());
    let linked = fig.run(&linked, linked.cells());
    println!("scenario,workload,batch,variant,latency_cycles,energy_pj,cost");
    for p in &pairs {
        let id = &p.cell.id;
        let (Some(no_alloc), Some(linked)) = (no_alloc.get(id), linked.get(id)) else { continue };
        let rows: [(&str, &Evaluated); 5] = [
            ("cocco", &p.cocco),
            ("stage1_only", &p.soma.stage1),
            ("no_allocator", &no_alloc.best),
            ("linked_cuts", &linked.best),
            ("full", &p.soma.best),
        ];
        for (variant, e) in rows {
            println!(
                "{id},{},{},{variant},{},{:.1},{:.6e}",
                p.cell.workload,
                p.cell.batch,
                e.report.latency_cycles,
                e.report.energy.total_pj(),
                e.cost
            );
        }
        let full_cost = p.soma.best.cost;
        eprintln!(
            "[ablation] {id}: full vs cocco {:.2}x cost, vs linked {:.2}x, vs no-alloc {:.2}x",
            p.cocco.cost / full_cost,
            linked.best.cost / full_cost,
            no_alloc.best.cost / full_cost
        );
    }
    fig.exit_code()
}
