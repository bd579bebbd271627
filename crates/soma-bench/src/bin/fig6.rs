//! Fig. 6: overall comparison of Cocco vs SoMa stage 1 (`Ours_1`) vs
//! SoMa stage 2 (`Ours_2`) across workloads, platforms and batch sizes.
//!
//! CSV columns: `scenario,platform,workload,batch,scheme,latency_cycles,`
//! `core_energy_pj,dram_energy_pj,compute_util,dram_util,`
//! `theoretical_max_util,avg_buffer_bytes,peak_buffer_bytes,`
//! `lgs,flgs,tiles,dram_tensors` (scheme shape, consumed by the `stats`
//! binary). Rows are keyed by the registry scenario id
//! (`<workload>@<preset>/b<batch>`), which is also what `SOMA_WORKLOAD`
//! filters against.
//!
//! Environment: `SOMA_FULL=1` sweeps batches {1,4,16,64} (paper grid),
//! `SOMA_EFFORT` scales search effort, `SOMA_THREADS` sets the thread
//! policy (`auto`/`seq`/N). Output rows are emitted in cell order
//! regardless of the policy, so the CSV is byte-identical across thread
//! counts.

use soma_bench::{platforms, salt, scenario_key, workloads, RunConfig};
use soma_core::parse_lfa;
use soma_model::Network;
use soma_search::{Evaluated, Scheduler};

fn row(
    scenario: &str,
    platform: &str,
    net: &Network,
    batch: u32,
    scheme: &str,
    e: &Evaluated,
) -> String {
    let r = &e.report;
    let plan = parse_lfa(net, &e.encoding.lfa).expect("reported scheme parses");
    format!(
        "{scenario},{platform},{},{batch},{scheme},{},{:.1},{:.1},{:.6},{:.6},{:.6},{},{},{},{},{},{}",
        net.name(),
        r.latency_cycles,
        r.energy.core_pj,
        r.energy.dram_pj,
        r.compute_util,
        r.dram_util,
        r.theoretical_max_util,
        r.avg_buffer,
        r.peak_buffer,
        plan.n_lgs(),
        plan.n_flgs(),
        plan.tiles.len(),
        plan.dram_tensors.len()
    )
}

fn main() {
    let rc = RunConfig::from_env_or_exit();
    println!(
        "scenario,platform,workload,batch,scheme,latency_cycles,core_energy_pj,dram_energy_pj,\
         compute_util,dram_util,theoretical_max_util,avg_buffer_bytes,peak_buffer_bytes,\
         lgs,flgs,tiles,dram_tensors"
    );

    // Build the work list: one cell per (platform, batch, workload),
    // keyed and filtered by registry scenario id.
    struct Cell {
        scenario: String,
        platform: soma_arch::HardwareConfig,
        batch: u32,
        net: soma_model::Network,
    }
    let mut cells = Vec::new();
    for platform in platforms() {
        for batch in rc.batch_sizes() {
            for net in workloads(&platform, batch) {
                let scenario = scenario_key(&platform, net.name(), batch);
                if rc.selects_id(&scenario) {
                    cells.push(Cell { scenario, platform: platform.clone(), batch, net });
                }
            }
        }
    }

    // Fan the cells out under the configured thread policy; collect
    // (csv, commentary) per cell and print in cell order so the output
    // is byte-identical whatever `SOMA_THREADS` says.
    let work: Vec<&Cell> = cells.iter().collect();
    let rendered: Vec<(String, String)> = rc.threads.map_collect(work, |cell| {
        let name = cell.net.name().to_string();
        let cfg = rc.config_for(
            &cell.net,
            salt(&["fig6", &cell.platform.name, &name, &cell.batch.to_string()]),
        );
        let cocco = Scheduler::cocco(&cell.net, &cell.platform)
            .config(cfg.clone())
            .parallelism(rc.threads.nested())
            .run()
            .best;
        let soma = Scheduler::new(&cell.net, &cell.platform)
            .config(cfg)
            .parallelism(rc.threads.nested())
            .run();
        let mut rows = String::new();
        for (scheme, e) in [("cocco", &cocco), ("ours_1", &soma.stage1), ("ours_2", &soma.best)] {
            rows.push_str(&row(
                &cell.scenario,
                &cell.platform.name,
                &cell.net,
                cell.batch,
                scheme,
                e,
            ));
            rows.push('\n');
        }
        let note = format!(
            "[fig6] {}: speedup {:.2}x (stage1 {:.2}x), energy -{:.1}%",
            cell.scenario,
            cocco.report.latency_cycles as f64 / soma.best.report.latency_cycles as f64,
            cocco.report.latency_cycles as f64 / soma.stage1.report.latency_cycles as f64,
            100.0 * (1.0 - soma.best.report.energy.total_pj() / cocco.report.energy.total_pj())
        );
        (rows, note)
    });
    for (rows, note) in rendered {
        print!("{rows}");
        eprintln!("{note}");
    }
}
