//! Criterion benches for the search stack: one full stage-1 objective
//! evaluation, one stage-1 proposal, one stage-2 objective evaluation,
//! and small end-to-end schedules (SoMa and Cocco).

use criterion::{criterion_group, criterion_main, Criterion};
use soma_arch::HardwareConfig;
use soma_core::{parse_lfa, Dlsa, Lfa};
use soma_model::zoo;
use soma_search::{CostWeights, Objective, Scheduler, SearchConfig};

fn bench_objective(c: &mut Criterion) {
    let net = zoo::resnet50(1);
    let hw = HardwareConfig::edge();
    let lfa = Lfa::unfused(&net, 8);
    let mut obj = Objective::new(&net, &hw, CostWeights::default());
    c.bench_function("objective/eval_lfa_resnet50", |b| {
        b.iter(|| obj.eval_lfa(&lfa, hw.buffer_bytes).unwrap().0)
    });

    // A stage-1 proposal: the objective re-evaluates from the first tile
    // an LFA changes against the one it evaluated last, so alternate two
    // that differ in one FLG (a middle layer's tiling) rather than repeat
    // one, which would re-emit nothing.
    let mut retiled = lfa.clone();
    retiled.tiling[net.len() / 2] = 4;
    let mut flip = false;
    c.bench_function("objective/eval_lfa_cost_resnet50", |b| {
        b.iter(|| {
            flip = !flip;
            obj.eval_lfa_cost(if flip { &retiled } else { &lfa }, hw.buffer_bytes).unwrap()
        })
    });

    let plan = parse_lfa(&net, &lfa).unwrap();
    let dlsa = Dlsa::double_buffer(&plan);
    c.bench_function("objective/eval_dlsa_resnet50", |b| {
        b.iter(|| obj.eval_parts(&plan, &dlsa, hw.buffer_bytes).unwrap().0)
    });

    // The compiled-engine fast path: an allocation-free queue replay
    // from the start + maintained peak (the most a resumed stage-1 or
    // stage-2 replay can cost).
    let compiled = obj.compile(&plan);
    let peak = soma_core::lifetime::peak_buffer(&plan, &dlsa);
    c.bench_function("objective/eval_dlsa_compiled_resnet50", |b| {
        b.iter(|| obj.eval_compiled_with_peak(&compiled, &dlsa, peak, hw.buffer_bytes).unwrap())
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let net = zoo::fig4(1);
    let hw = HardwareConfig::edge();
    let cfg = SearchConfig { effort: 0.05, seed: 5, ..SearchConfig::default() };
    c.bench_function("schedule/soma_fig4_quick", |b| {
        b.iter(|| Scheduler::new(&net, &hw).config(cfg.clone()).run())
    });
    c.bench_function("schedule/cocco_fig4_quick", |b| {
        b.iter(|| Scheduler::cocco(&net, &hw).config(cfg.clone()).run().best)
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_objective, bench_end_to_end
}
criterion_main!(benches);
