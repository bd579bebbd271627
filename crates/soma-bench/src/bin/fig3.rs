//! Fig. 3: normalised DRAM access vs normalised operations, per layer
//! (a, b) and per Cocco-scheduled tile (c, d), for ResNet-50 and
//! Transformer-Large on the default edge accelerator at batch 1.
//!
//! ```sh
//! cargo run --release -p soma-bench --bin fig3 -- specs/fig3.soma [--ledger <dir>]
//! ```
//!
//! Runs only the Cocco twin of each cell of the spec, through the one
//! cell executor (see `soma_bench::figure`). CSV columns:
//! `panel,scenario,item,dram_norm,ops_norm`, keyed by the cell's
//! scenario id. The paper's observation to reproduce: the per-tile
//! clouds (c, d) are *more spread out* than the per-layer clouds (a, b) —
//! fusion concentrates DRAM demand on weight-loading tiles and leaves
//! many tiles with zero DRAM demand. Exit codes as for `fig6`.

use std::process::ExitCode;

use soma_bench::Figure;
use soma_core::parse_lfa;
use soma_model::stats::{layer_stats, normalize, std_dev};
use soma_spec::ExperimentCell;

fn main() -> ExitCode {
    let (mut fig, spec) = Figure::from_args("fig3");
    let cells = spec.cells();
    let twins: Vec<ExperimentCell> = cells.iter().map(ExperimentCell::cocco).collect();
    let outcomes = fig.run(&spec, twins.clone());
    println!("panel,scenario,item,dram_norm,ops_norm");

    for (idx, (cell, twin)) in cells.iter().zip(&twins).enumerate() {
        let Some(cocco) = outcomes.get(&twin.id).map(|o| &o.best) else { continue };
        let (name, net) = (&cell.id, &cell.net);
        // Panels (a)/(b): per-layer.
        let stats = layer_stats(net);
        let pts: Vec<(u64, u64)> = stats.iter().map(|s| (s.dram_bytes, s.ops)).collect();
        let norm = normalize(&pts);
        for (i, p) in norm.iter().enumerate() {
            println!("layer,{name},{i},{:.6},{:.6}", p.dram, p.ops);
        }
        let layer_spread = std_dev(&norm.iter().map(|p| p.dram).collect::<Vec<_>>());

        // Panels (c)/(d): per-tile under the Cocco schedule.
        let plan = parse_lfa(net, &cocco.encoding.lfa).expect("cocco scheme parses");
        // Attribute DRAM tensor bytes to their anchor tiles.
        let mut tile_dram = vec![0u64; plan.n_tiles() as usize];
        for t in &plan.dram_tensors {
            tile_dram[t.anchor as usize] += t.bytes;
        }
        let tile_pts: Vec<(u64, u64)> =
            plan.tiles.iter().zip(&tile_dram).map(|(t, &d)| (d, t.ops)).collect();
        let tnorm = normalize(&tile_pts);
        for (i, p) in tnorm.iter().enumerate() {
            println!("tile,{name},{i},{:.6},{:.6}", p.dram, p.ops);
        }
        let tile_spread = std_dev(&tnorm.iter().map(|p| p.dram).collect::<Vec<_>>());
        let zero_dram = tnorm.iter().filter(|p| p.dram == 0.0).count();

        eprintln!(
            "[fig3:{}] {name}: layer dram-spread {:.3}, tile dram-spread {:.3}, \
             tiles with zero DRAM demand {}/{} (paper: tiles more spread out)",
            if idx == 0 { "a/c" } else { "b/d" },
            layer_spread,
            tile_spread,
            zero_dram,
            tnorm.len()
        );
    }
    fig.exit_code()
}
