//! Walkthrough of the tensor-centric notation on the paper's Fig. 4
//! five-layer network: encode an LFA with mixed FLC/DRAM cuts, parse both
//! stages, and print the derived tiles, DRAM tensors and buffer profile.
//!
//! Run with: `cargo run --release --example notation_parse`

use soma::core::{lifetime, parse_lfa, Dlsa, Lfa};
use soma::model::zoo;

fn main() {
    let net = zoo::fig4(1);

    // The paper's example: order [A,B,C,E,D], FLC {1,2}, DRAM cut {2},
    // tiling numbers A:2, B:1, [C,E,D]:2.
    let mut lfa = Lfa::fully_fused(&net, 2);
    lfa.flc = [1, 2].into_iter().collect();
    lfa.dram_cuts = [2].into_iter().collect();
    lfa.tiling = vec![2, 1, 2];

    let plan = parse_lfa(&net, &lfa).expect("the Fig. 4 encoding is valid");

    println!("COMPUTE row ({} tiles):", plan.n_tiles());
    for (pos, t) in plan.tiles.iter().enumerate() {
        println!(
            "  [{pos:>2}] {}{}  flg={} lg={}  ops={:>9}  out={}B (nominal {}B)",
            net.layer(t.layer).name,
            t.tile_idx + 1,
            t.flg,
            t.lg,
            t.ops,
            t.out_bytes,
            t.out_bytes_nom
        );
    }

    println!("\nDRAM tensors (canonical need-order):");
    for (i, t) in plan.dram_tensors.iter().enumerate() {
        println!(
            "  [{i:>2}] {:?}  {}B  {}  anchor tile {} (last use {})",
            t.kind,
            t.bytes,
            if t.is_load { "load" } else { "store" },
            t.anchor,
            t.last_use
        );
    }

    let dlsa = Dlsa::double_buffer(&plan);
    let profile = lifetime::buffer_profile(&plan, &dlsa);
    println!("\nBuffer profile under double-buffer DLSA (bytes per tile):");
    for (pos, b) in profile.iter().enumerate() {
        println!("  tile {pos:>2}: {b:>8} B");
    }
}
