//! Describe a scenario as *data*: the same custom backbone as
//! `examples/custom_network.rs`, but the network arrives as a
//! `soma-network v1` spec string instead of hand-written builder code,
//! and the platform is named through the scenario registry — nothing to
//! recompile when the model or platform changes.
//!
//! Run with: `cargo run --release --example scenario_file`

use soma::prelude::*;
use soma::spec::registry;

/// A small detection-style backbone: strided stem, a residual stage, a
/// depthwise block, and a two-headed output — in the text format a
/// downstream user would commit next to their model.
const BACKBONE: &str = "\
soma-network v1
name custom-backbone
precision 1
input img 1x3x128x128
conv stem from img cout=32 k=3x3 stride=2
conv s1a from stem cout=64 k=3x3 stride=1
conv s1b from s1a cout=64 k=3x3 stride=1
eltwise res1 add from s1a s1b
vector act1 relu from res1
conv down from act1 cout=128 k=3x3 stride=2
dwconv dw from down k=3 stride=1
conv pw from dw cout=128 k=1x1 stride=1
conv head_box from pw cout=16 k=1x1 stride=1
conv head_cls from pw cout=80 k=1x1 stride=1
output head_box head_cls
end
";

fn main() {
    let net = read_network(BACKBONE).expect("the committed spec parses");
    println!(
        "{}: {} layers, {:.0} MOPs, {:.0} KB weights (parsed from a spec string)",
        net.name(),
        net.len(),
        net.total_ops() as f64 / 1e6,
        net.total_weight_bytes() as f64 / 1024.0
    );

    // Hardware comes from the registry: any `<workload>@<preset>/b<n>`
    // id names a platform; here we only borrow its preset.
    let scenario = registry::lookup("fig2@edge/b1").expect("registry id resolves");
    let hw = scenario.hardware();

    let cfg = SearchConfig { effort: 0.4, ..SearchConfig::default() };
    let out = Scheduler::new(&net, &hw).config(cfg).seeds([77, 78, 79, 80]).run();
    let shape = out.best.shape(&net);
    println!(
        "best scheme on {}: {} LGs / {} FLGs / {} tiles, latency {} cycles ({:.3} ms), \
         energy {:.3} mJ",
        hw.name,
        shape.lgs,
        shape.flgs,
        shape.tiles,
        out.best.report.latency_cycles,
        hw.cycles_to_seconds(out.best.report.latency_cycles) * 1e3,
        out.best.report.energy.total_pj() / 1e9,
    );

    // The network round-trips: regenerating the spec from the parsed
    // graph and reading it back yields the identical layer graph, so
    // specs and code never drift.
    let regenerated = write_network(&net);
    let back = read_network(&regenerated).expect("regenerated spec parses");
    assert_eq!(back.layers(), net.layers());
    assert_eq!(back.outputs(), net.outputs());
    println!("spec round-trips bit-identically ({} bytes regenerated)", regenerated.len());
}
