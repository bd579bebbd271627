//! Bring your own model: build a custom DNN with [`NetworkBuilder`],
//! schedule it with SoMa, and inspect what the scheduler decided — the
//! downstream-user workflow (model description in, schedule report out,
//! paper Sec. V-A).
//!
//! Run with: `cargo run --release --example custom_network`

use soma::model::{EltOp, VecOp};
use soma::prelude::*;

fn main() {
    // A small detection-style backbone: strided stem, two residual
    // stages, a depthwise block, and a two-headed output.
    let mut b = NetworkBuilder::new("custom-backbone", 1);
    let img = b.external(FmapShape::new(1, 3, 128, 128));
    let stem = b.conv("stem", &[img], 32, 3, 2);
    let s1a = b.conv("s1a", &[stem], 64, 3, 1);
    let s1b = b.conv("s1b", &[s1a], 64, 3, 1);
    let res1 = b.eltwise("res1", EltOp::Add, &[s1a, s1b]);
    let act1 = b.vector("act1", VecOp::Relu, res1);
    let down = b.conv("down", &[act1], 128, 3, 2);
    let dw = b.dwconv("dw", down, 3, 1);
    let pw = b.conv("pw", &[dw], 128, 1, 1);
    let head_a = b.conv("head_box", &[pw], 16, 1, 1);
    let head_b = b.conv("head_cls", &[pw], 80, 1, 1);
    b.mark_output(head_a);
    b.mark_output(head_b);
    let net = b.finish();

    println!(
        "{}: {} layers, {:.0} MOPs, {:.0} KB weights",
        net.name(),
        net.len(),
        net.total_ops() as f64 / 1e6,
        net.total_weight_bytes() as f64 / 1024.0
    );

    // Portfolio mode: race four seeds in parallel, keep the envelope best.
    let hw = HardwareConfig::edge();
    let cfg = SearchConfig { effort: 0.4, ..SearchConfig::default() };
    let out = Scheduler::new(&net, &hw).config(cfg).seeds([77, 78, 79, 80]).run();
    let shape = out.best.shape(&net);

    println!(
        "best scheme: {} LGs / {} FLGs / {} tiles, latency {} cycles ({:.3} ms), \
         energy {:.3} mJ, peak buffer {:.2} MB",
        shape.lgs,
        shape.flgs,
        shape.tiles,
        out.best.report.latency_cycles,
        hw.cycles_to_seconds(out.best.report.latency_cycles) * 1e3,
        out.best.report.energy.total_pj() / 1e9,
        out.best.report.peak_buffer as f64 / (1 << 20) as f64
    );
}
