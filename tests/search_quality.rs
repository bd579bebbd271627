//! Search-quality shape tests: the qualitative claims of the paper's
//! evaluation that must hold even at CI-scale effort.

use soma::core::{Encoding, Lfa, ParsedSchedule};
use soma::model::zoo;
use soma::prelude::*;
use soma::sim::{attribute_stalls, summarize};

fn cfg(seed: u64, effort: f64) -> SearchConfig {
    SearchConfig { effort, seed, ..SearchConfig::default() }
}

#[test]
fn stage2_reduces_attributed_stalls_on_weight_heavy_chain() {
    // A chain whose weights dominate traffic: prefetching is the only way
    // to hide the loads, which is exactly stage 2's job.
    let net = zoo::chain(1, 96, 28, 6);
    let hw = HardwareConfig::edge();
    let out = Scheduler::new(&net, &hw).config(cfg(21, 0.4)).run();

    let s1 = ParsedSchedule::new(&net, &out.stage1.encoding).unwrap();
    let s2 = ParsedSchedule::new(&net, &out.best.encoding).unwrap();
    let stall1 = summarize(&attribute_stalls(&s1.plan, &s1.dlsa, &out.stage1.report.timeline));
    let stall2 = summarize(&attribute_stalls(&s2.plan, &s2.dlsa, &out.best.report.timeline));
    assert!(
        stall2.total() <= stall1.total(),
        "stage 2 stalls {} vs stage 1 {}",
        stall2.total(),
        stall1.total()
    );
}

#[test]
fn soma_fuses_fusion_friendly_chains() {
    // Deep stride-1 chain with small weights: fusion should collapse LGs
    // well below the layer count.
    let net = zoo::chain(1, 32, 56, 10);
    let hw = HardwareConfig::edge();
    let out = Scheduler::new(&net, &hw).config(cfg(23, 0.5)).run();
    let shape = out.best.shape(&net);
    assert!(shape.lgs < net.len() / 2, "{} LGs for {} layers", shape.lgs, net.len());
}

#[test]
fn utilisation_close_to_theoretical_bound_after_stage2() {
    // The paper reports a 3.1% average gap; at tiny effort we accept a
    // loose bound but the ordering must hold.
    let net = zoo::fig2(1);
    let hw = HardwareConfig::edge();
    let out = Scheduler::new(&net, &hw).config(cfg(29, 0.5)).run();
    let r = &out.best.report;
    assert!(r.compute_util <= r.theoretical_max_util + 1e-9);
    assert!(
        r.compute_util >= 0.5 * r.theoretical_max_util,
        "util {} far below bound {}",
        r.compute_util,
        r.theoretical_max_util
    );
}

#[test]
fn double_buffer_matches_paper_semantics_in_gap_structure() {
    // Under double-buffer, every layer-first tile in an unfused schedule
    // waits for its weights: the number of attributed weight stalls is at
    // most the number of weighted layers.
    let net = zoo::chain(1, 64, 28, 5);
    let hw = HardwareConfig::edge();
    let sched = ParsedSchedule::new(&net, &Encoding::from_lfa(Lfa::unfused(&net, 2))).unwrap();
    let report = evaluate(&net, &sched, &hw).unwrap();
    let stalls = attribute_stalls(&sched.plan, &sched.dlsa, &report.timeline);
    let weighted_layers = net.layers().iter().filter(|l| l.weight_bytes > 0).count();
    let weight_stalls = stalls
        .iter()
        .filter(|s| {
            matches!(
                s.cause,
                soma::sim::StallCause::Load { kind: soma::core::DramKind::Weight(_), .. }
            )
        })
        .count();
    assert!(weight_stalls <= weighted_layers * 2);
}

#[test]
fn cost_weights_change_the_optimum_direction() {
    // Pure-delay and pure-energy objectives must both run and the
    // delay-optimal scheme cannot be slower than the energy-optimal one.
    let net = zoo::fig4(1);
    let hw = HardwareConfig::edge();
    let delay_cfg =
        SearchConfig { weights: CostWeights { energy_exp: 0.0, delay_exp: 1.0 }, ..cfg(31, 0.4) };
    let energy_cfg =
        SearchConfig { weights: CostWeights { energy_exp: 1.0, delay_exp: 0.0 }, ..cfg(31, 0.4) };
    let d = Scheduler::new(&net, &hw).config(delay_cfg).run();
    let e = Scheduler::new(&net, &hw).config(energy_cfg).run();
    assert!(
        d.best.report.latency_cycles <= (e.best.report.latency_cycles as f64 * 1.05) as u64,
        "delay-optimised {} vs energy-optimised {}",
        d.best.report.latency_cycles,
        e.best.report.latency_cycles
    );
    assert!(
        e.best.report.energy.total_pj() <= d.best.report.energy.total_pj() * 1.05,
        "energy-optimised {} vs delay-optimised {}",
        e.best.report.energy.total_pj(),
        d.best.report.energy.total_pj()
    );
}
