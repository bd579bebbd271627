//! Fig. 6: overall comparison of Cocco vs SoMa stage 1 (`Ours_1`) vs
//! SoMa stage 2 (`Ours_2`) across workloads, platforms and batch sizes.
//!
//! ```sh
//! cargo run --release -p soma-bench --bin fig6 -- specs/fig6.soma [--ledger <dir>]
//! ```
//!
//! Runs every cell of the spec and its Cocco twin through the one cell
//! executor (see `soma_bench::figure`). CSV columns:
//! `scenario,platform,workload,batch,scheme,latency_cycles,`
//! `core_energy_pj,dram_energy_pj,compute_util,dram_util,`
//! `theoretical_max_util,avg_buffer_bytes,peak_buffer_bytes,`
//! `lgs,flgs,tiles,dram_tensors` (scheme shape, consumed by the `stats`
//! binary): a `cocco`, `ours_1` and `ours_2` row per cell, in cell order,
//! keyed by the cell's scenario id. The CSV is byte-identical across
//! thread counts and between a cold run and a ledger replay.
//!
//! Exit codes: `0` success, `2` usage error, unreadable or invalid spec,
//! or a ledger I/O error, `4` some cells failed (their rows are left out).

use std::process::ExitCode;

use soma_bench::Figure;
use soma_search::Evaluated;
use soma_spec::ExperimentCell;

fn row(cell: &ExperimentCell, scheme: &str, e: &Evaluated) -> String {
    let r = &e.report;
    let shape = e.shape(&cell.net);
    format!(
        "{},{},{},{},{scheme},{},{:.1},{:.1},{:.6},{:.6},{:.6},{},{},{},{},{},{}",
        cell.id,
        cell.platform,
        cell.workload,
        cell.batch,
        r.latency_cycles,
        r.energy.core_pj,
        r.energy.dram_pj,
        r.compute_util,
        r.dram_util,
        r.theoretical_max_util,
        r.avg_buffer,
        r.peak_buffer,
        shape.lgs,
        shape.flgs,
        shape.tiles,
        shape.dram_tensors
    )
}

/// SoMa's energy relative to Cocco's as a signed percentage: negative
/// when SoMa spends less.
fn energy_change(soma_pj: f64, cocco_pj: f64) -> String {
    format!("energy {:+.1}%", 100.0 * (soma_pj / cocco_pj - 1.0))
}

fn main() -> ExitCode {
    let (mut fig, spec) = Figure::from_args("fig6");
    let pairs = fig.pairs(&spec);
    println!(
        "scenario,platform,workload,batch,scheme,latency_cycles,core_energy_pj,dram_energy_pj,\
         compute_util,dram_util,theoretical_max_util,avg_buffer_bytes,peak_buffer_bytes,\
         lgs,flgs,tiles,dram_tensors"
    );
    for p in &pairs {
        let (cocco, soma) = (&p.cocco, &p.soma);
        for (scheme, e) in [("cocco", cocco), ("ours_1", &soma.stage1), ("ours_2", &soma.best)] {
            println!("{}", row(&p.cell, scheme, e));
        }
        eprintln!(
            "[fig6] {}: speedup {:.2}x (stage1 {:.2}x), {}",
            p.cell.id,
            cocco.report.latency_cycles as f64 / soma.best.report.latency_cycles as f64,
            cocco.report.latency_cycles as f64 / soma.stage1.report.latency_cycles as f64,
            energy_change(soma.best.report.energy.total_pj(), cocco.report.energy.total_pj())
        );
    }
    fig.exit_code()
}

#[cfg(test)]
mod tests {
    use super::energy_change;

    #[test]
    fn energy_change_is_signed() {
        assert_eq!(energy_change(97.0, 100.0), "energy -3.0%");
        assert_eq!(energy_change(101.1, 100.0), "energy +1.1%");
    }
}
