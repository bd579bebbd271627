//! ResNet-50 on the 16-TOPS edge accelerator: the paper's default CNN
//! workload (Sec. VI-A). Compares Cocco against SoMa's two stages, the
//! breakdown behind Fig. 6's leftmost group.
//!
//! Run with: `cargo run --release --example resnet_edge [batch] [effort]`

use soma::model::zoo;
use soma::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let batch: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1);
    let effort: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.05);

    let net = zoo::resnet50(batch);
    let hw = HardwareConfig::edge();
    let cfg = SearchConfig { effort, seed: 1234, ..SearchConfig::default() };

    println!(
        "{} | batch {batch} | {:.1} GOPs | {:.1} MB weights | effort {effort}",
        net.name(),
        net.total_ops() as f64 / 1e9,
        net.total_weight_bytes() as f64 / (1 << 20) as f64
    );

    let cocco = Scheduler::cocco(&net, &hw).config(cfg.clone()).run().best;
    let soma = Scheduler::new(&net, &hw).config(cfg).run();

    let ms = |cycles: u64| hw.cycles_to_seconds(cycles) * 1e3;
    let mj = |pj: f64| pj / 1e9;
    println!(
        "\n{:<10} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "scheme", "latency(ms)", "energy(mJ)", "util", "dram util", "buf peak(MB)"
    );
    for (name, report) in
        [("Cocco", &cocco.report), ("Ours_1", &soma.stage1.report), ("Ours_2", &soma.best.report)]
    {
        println!(
            "{:<10} {:>12.3} {:>10.2} {:>9.1}% {:>9.1}% {:>10.2}",
            name,
            ms(report.latency_cycles),
            mj(report.energy.total_pj()),
            100.0 * report.compute_util,
            100.0 * report.dram_util,
            report.peak_buffer as f64 / (1 << 20) as f64
        );
    }

    let shape = soma.best.shape(&net);
    println!(
        "\nSoMa best scheme: {} LGs, {} FLGs, {} tiles, {} DRAM tensors",
        shape.lgs, shape.flgs, shape.tiles, shape.dram_tensors
    );
    println!(
        "speedup vs Cocco: {:.2}x | energy saving: {:.1}%",
        cocco.report.latency_cycles as f64 / soma.best.report.latency_cycles as f64,
        100.0 * (1.0 - soma.best.report.energy.total_pj() / cocco.report.energy.total_pj())
    );
}
