//! Persist and reload scheduling artefacts: the scheme text format, the
//! textual instruction listing, and the binary instruction encoding —
//! the outputs a compiler backend would archive (paper Sec. V-A/V-F).
//!
//! Run with: `cargo run --release --example save_restore`

use soma::core::{isa, lower, read_scheme, write_scheme, ParsedSchedule};
use soma::model::zoo;
use soma::prelude::*;

fn main() {
    let net = zoo::fig4(1);
    let hw = HardwareConfig::edge();
    let cfg = SearchConfig { effort: 0.3, seed: 11, ..SearchConfig::default() };

    // Search, reporting each allocator round that finds a new best, then
    // serialise the best scheme.
    let outcome = Scheduler::new(&net, &hw)
        .config(cfg)
        .observer(|ev| {
            if let SearchEvent::NewBest { round, cost, latency_cycles } = ev {
                eprintln!(
                    "allocator round {round}: new best cost {cost:.3e}, {latency_cycles} cycles"
                );
            }
        })
        .run();
    let scheme_text = write_scheme(&net, &outcome.best.encoding);
    println!("--- scheme file ---\n{scheme_text}");

    // Reload it and verify it reproduces the exact same evaluation.
    let reloaded = read_scheme(&net, &scheme_text).expect("scheme round-trips");
    let sched = ParsedSchedule::new(&net, &reloaded).expect("reloaded scheme parses");
    let report = evaluate(&net, &sched, &hw).expect("reloaded scheme simulates");
    assert_eq!(report.latency_cycles, outcome.best.report.latency_cycles);
    println!("reloaded scheme reproduces latency: {} cycles\n", report.latency_cycles);

    // Lower to instructions; show the listing and the binary round trip.
    let prog = lower(&sched);
    println!("--- instruction listing (first 12 lines) ---");
    for line in prog.to_text().lines().take(12) {
        println!("{line}");
    }
    let bytes = isa::encode(&prog);
    let back = isa::decode(&bytes).expect("binary round-trips");
    assert_eq!(back, prog);
    println!(
        "\nbinary program: {} bytes for {} instructions (round-trip verified)",
        bytes.len(),
        prog.len()
    );
}
