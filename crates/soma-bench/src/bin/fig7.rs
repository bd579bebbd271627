//! Fig. 7: design-space exploration over DRAM bandwidth x buffer size for
//! the 16-TOPS edge accelerator, per workload and batch size, for both
//! Cocco and SoMa.
//!
//! ```sh
//! cargo run --release -p soma-bench --bin fig7 -- specs/fig7.soma [--ledger <dir>]
//! ```
//!
//! Each `hardware` line of the spec is one sweep point. Runs every cell
//! and its Cocco twin through the one cell executor (see
//! `soma_bench::figure`). CSV columns:
//! `scenario,scheduler,workload,batch,buffer_mib,dram_gbps,`
//! `latency_cycles,latency_ms`, with `buffer_mib` and `dram_gbps` read
//! from the cell's resolved hardware. The scenario key names the sweep
//! platform (`resnet50@edge-8MB-32GBps/b4`). Rows are grouped by batch
//! size, then in spec order.
//!
//! The paper's insights to reproduce: at batch 1 latency tracks bandwidth
//! and barely responds to buffer size; as batch grows, buffer size
//! substitutes for bandwidth under SoMa (the red "envelope" triangle),
//! but not under Cocco.
//!
//! Exit codes as for `fig6`.

use std::process::ExitCode;

use soma_bench::Figure;

fn main() -> ExitCode {
    let (mut fig, spec) = Figure::from_args("fig7");
    let mut pairs = fig.pairs(&spec);
    pairs.sort_by_key(|p| p.cell.batch);
    println!("scenario,scheduler,workload,batch,buffer_mib,dram_gbps,latency_cycles,latency_ms");
    for p in &pairs {
        let hw = &p.cell.hw;
        let mib = hw.buffer_bytes >> 20;
        let gbps = hw.dram_bytes_per_cycle as f64 * hw.freq_hz as f64 / 1e9;
        for (scheduler, cycles) in
            [("cocco", p.cocco.report.latency_cycles), ("soma", p.soma.best.report.latency_cycles)]
        {
            println!(
                "{},{scheduler},{},{},{mib},{gbps},{cycles},{:.4}",
                p.cell.id,
                p.cell.workload,
                p.cell.batch,
                hw.cycles_to_seconds(cycles) * 1e3
            );
        }
    }
    fig.exit_code()
}
