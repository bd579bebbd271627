//! Fig. 8: practical execution graphs of Cocco, SoMa stage 1 and SoMa
//! stage 2, with DRAM cuts / FLCs / tiling numbers annotated — rendered as
//! ASCII DRAM-COMPUTE timelines.
//!
//! ```sh
//! cargo run --release -p soma-bench --bin fig8 -- specs/fig8.soma [--ledger <dir>]
//! ```
//!
//! Runs each cell of the spec (the committed one names full ResNet-50 on
//! the edge platform at batch 1) and its Cocco twin through the one cell
//! executor (see `soma_bench::figure`), then draws the three schedules
//! of each cell. Exit codes as for `fig6`.

use std::process::ExitCode;

use soma_bench::Figure;
use soma_core::ParsedSchedule;
use soma_search::Evaluated;
use soma_sim::render_gantt;

fn describe(net: &soma_model::Network, eval: &Evaluated) {
    let lfa = &eval.encoding.lfa;
    let ranges = lfa.flg_ranges();
    print!("FLGs: ");
    for (g, &(a, b)) in ranges.iter().enumerate() {
        let cut = if g > 0 && lfa.dram_cuts.contains(&a) {
            "||"
        } else if g > 0 {
            "|"
        } else {
            ""
        };
        print!("{cut}[T={}:", lfa.tiling[g]);
        for p in a..b {
            print!(" {}", net.layer(lfa.order[p]).name);
        }
        print!("] ");
    }
    println!("\n('||' = DRAM cut, '|' = FLC only)");
}

fn main() -> ExitCode {
    let (mut fig, spec) = Figure::from_args("fig8");
    for p in fig.pairs(&spec) {
        let net = &p.cell.net;
        println!("scenario: {}", p.cell.id);
        for (title, eval) in [
            ("Cocco", &p.cocco),
            ("SoMa first stage", &p.soma.stage1),
            ("SoMa second stage", &p.soma.best),
        ] {
            println!("==== {title} ====");
            describe(net, eval);
            let sched = ParsedSchedule::new(net, &eval.encoding).expect("scheme parses");
            println!("{}", render_gantt(net, &sched, &eval.report.timeline, 120));
            println!(
                "latency {} cycles | E*D cost {:.3e} | compute stall {} cycles\n",
                eval.report.latency_cycles,
                eval.cost,
                eval.report.timeline.compute_stall()
            );
        }
    }
    fig.exit_code()
}
