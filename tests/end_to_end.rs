//! Cross-crate integration tests: model -> notation -> evaluator ->
//! search, exercising the public API exactly as a downstream user would.

use soma::core::{parse_lfa, Dlsa, Encoding, Lfa, ParsedSchedule};
use soma::model::zoo;
use soma::prelude::*;

fn quick(seed: u64) -> SearchConfig {
    SearchConfig { effort: 0.05, seed, ..SearchConfig::default() }
}

/// Fast deterministic CI gate: the whole pipeline on the paper's Fig. 2
/// example at minimal effort. Must stay well under 30 s.
#[test]
fn ci_smoke() {
    let net = zoo::fig2(1);
    let hw = HardwareConfig::edge();
    let cfg = SearchConfig { effort: 0.01, seed: 2025, ..SearchConfig::default() };
    let out = Scheduler::new(&net, &hw).config(cfg.clone()).run();
    assert!(out.best.report.latency_cycles > 0);
    assert!(out.best.report.peak_buffer <= hw.buffer_bytes);
    // Same seed, same schedule: the search must be reproducible.
    let again = Scheduler::new(&net, &hw).config(cfg).run();
    assert_eq!(out.best.report.latency_cycles, again.best.report.latency_cycles);
    assert_eq!(out.best.cost, again.best.cost);
}

/// Correctness gate for the compiled evaluation engine (cheap, no
/// timing, cannot flake): on fig2 the compiled cost-only path and the
/// naive full-report path must produce bit-identical costs and reports.
#[test]
fn ci_smoke_compiled_engine_matches_naive_on_fig2() {
    use soma::search::{CostWeights, Objective};
    use soma::sim::{evaluate_parts, CoreArrayModel, SimScratch};

    let net = zoo::fig2(1);
    let hw = HardwareConfig::edge();
    let mut obj = Objective::new(&net, &hw, CostWeights::default());
    for (lfa, label) in [(Lfa::unfused(&net, 4), "unfused"), (Lfa::fully_fused(&net, 4), "fused")] {
        // Objective level: full vs cost-only, bit-identical.
        let (full_cost, plan, dlsa, report) = obj.eval_lfa(&lfa, hw.buffer_bytes).unwrap();
        let fast_cost = obj.eval_lfa_cost(&lfa, hw.buffer_bytes).unwrap();
        assert_eq!(full_cost.to_bits(), fast_cost.to_bits(), "{label}: cost");

        // Engine level: compiled report vs naive report, field for field.
        let mut model = CoreArrayModel::new(&hw);
        let compiled = soma::sim::CompiledPlan::compile(&net, &plan, &hw, &mut model);
        let mut scratch = SimScratch::new();
        let engine_report = compiled.report(&net, &plan, &dlsa, &mut scratch).unwrap();
        let naive_report = evaluate_parts(&net, &plan, &dlsa, &hw, &mut model).unwrap();
        assert_eq!(engine_report, naive_report, "{label}: report");
        assert_eq!(engine_report, report, "{label}: objective report");
    }
}

/// The declarative-spec gate: running the committed `specs/fig2_edge.soma`
/// experiment file through the ledgerless cell executor (what
/// `soma-bench --bin run` does) reproduces the equivalent hand-written
/// `Scheduler::new(..).run()` **bit-for-bit, field-for-field** — the
/// spec layer adds description, never behaviour. CI also executes the
/// same file through `--bin run` and compares its CSV with the golden.
#[test]
fn ci_smoke_spec_run_reproduces_in_code_scheduler() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/fig2_edge.soma");
    let text = std::fs::read_to_string(path).expect("committed spec exists");
    let spec = soma::spec::read_experiment(&text).expect("committed spec parses");
    let stop = std::sync::atomic::AtomicBool::new(false);
    let summary = soma_bench::run_cells(&spec, spec.cells(), None, &stop, None, |_| {})
        .expect("no ledger, no I/O");
    assert_eq!((summary.misses, summary.failed), (1, 0));
    let rows = summary.rows;
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].cell.id, "fig2@edge/b1");

    // The in-code twin, written out literally: same workload, platform
    // and knobs as the spec file declares.
    let net = zoo::fig2(1);
    let hw = HardwareConfig::edge();
    let cfg = SearchConfig { effort: 0.01, seed: 2025, ..SearchConfig::default() };
    let direct = soma::search::Scheduler::new(&net, &hw).config(cfg).run();

    let got = &rows[0].outcome;
    assert_eq!(got.best.encoding, direct.best.encoding);
    assert_eq!(got.best.report, direct.best.report);
    assert_eq!(got.best.cost.to_bits(), direct.best.cost.to_bits());
    assert_eq!(got.stage1.encoding, direct.stage1.encoding);
    assert_eq!(got.stage1.report, direct.stage1.report);
    assert_eq!(got.stage1.cost.to_bits(), direct.stage1.cost.to_bits());
    assert_eq!(got.allocator_iters, direct.allocator_iters);
    assert_eq!(got.evals, direct.evals);
    assert_eq!(got.rejected, direct.rejected);
}

#[test]
fn full_pipeline_on_fig2() {
    let net = zoo::fig2(1);
    let hw = HardwareConfig::edge();
    let out = Scheduler::new(&net, &hw).config(quick(1)).run();
    // Best scheme parses, re-evaluates to identical numbers, and lowers.
    let sched = ParsedSchedule::new(&net, &out.best.encoding).unwrap();
    let report = evaluate(&net, &sched, &hw).unwrap();
    assert_eq!(report.latency_cycles, out.best.report.latency_cycles);
    let prog = soma::core::lower(&sched);
    assert_eq!(prog.compute_queue.len(), sched.plan.tiles.len());
}

#[test]
fn soma_stage2_improves_or_matches_stage1_on_resnet_slice() {
    // A realistic CNN slice: the first eight layers of ResNet-50.
    let net = zoo::chain(1, 64, 56, 8);
    let hw = HardwareConfig::edge();
    let out = Scheduler::new(&net, &hw).config(quick(3)).run();
    assert!(out.best.cost <= out.stage1.cost);
    assert!(out.best.report.peak_buffer <= hw.buffer_bytes);
}

#[test]
fn soma_beats_unfused_baseline_on_fused_friendly_net() {
    let net = zoo::chain(1, 32, 56, 6);
    let hw = HardwareConfig::edge();
    let baseline = ParsedSchedule::new(&net, &Encoding::from_lfa(Lfa::unfused(&net, 4))).unwrap();
    let base = evaluate(&net, &baseline, &hw).unwrap();
    let out = Scheduler::new(&net, &hw).config(quick(5)).run();
    assert!(
        out.best.report.latency_cycles <= base.latency_cycles,
        "SoMa {} vs baseline {}",
        out.best.report.latency_cycles,
        base.latency_cycles
    );
    assert!(out.best.report.energy.total_pj() <= base.energy.total_pj());
}

#[test]
fn cocco_and_soma_run_on_every_edge_workload() {
    let hw = HardwareConfig::edge();
    for net in zoo::edge_suite(1) {
        let cfg = SearchConfig { effort: 0.005, seed: 11, ..SearchConfig::default() };
        let cocco = Scheduler::cocco(&net, &hw).config(cfg.clone()).run().best;
        let out = Scheduler::new(&net, &hw).config(cfg).run();
        assert!(cocco.report.latency_cycles > 0, "{}", net.name());
        assert!(out.best.report.latency_cycles > 0, "{}", net.name());
        assert!(out.best.report.compute_util <= 1.0 + 1e-9, "{}", net.name());
    }
}

#[test]
fn decode_utilisation_is_tiny_and_prefill_is_not() {
    let hw = HardwareConfig::edge();
    let cfg = quick(13);
    let prefill = Scheduler::new(&zoo::gpt2_small_prefill(1, 128), &hw).config(cfg.clone()).run();
    let decode = Scheduler::new(&zoo::gpt2_small_decode(1, 128), &hw).config(cfg).run();
    assert!(
        decode.best.report.compute_util < 0.05,
        "decode util {}",
        decode.best.report.compute_util
    );
    assert!(prefill.best.report.compute_util > decode.best.report.compute_util * 3.0);
}

#[test]
fn theoretical_bound_dominates_all_schemes() {
    let net = zoo::fig4(1);
    let hw = HardwareConfig::edge();
    let out = Scheduler::new(&net, &hw).config(quick(17)).run();
    for eval in [&out.stage1, &out.best] {
        assert!(eval.report.compute_util <= eval.report.theoretical_max_util + 1e-9);
    }
}

#[test]
fn bigger_buffer_never_hurts_soma() {
    let net = zoo::chain(1, 48, 28, 6);
    let small = HardwareConfig::builder().like(&HardwareConfig::edge()).buffer_mib(1).build();
    let large = HardwareConfig::builder().like(&HardwareConfig::edge()).buffer_mib(32).build();
    let a = Scheduler::new(&net, &small).config(quick(19)).run();
    let b = Scheduler::new(&net, &large).config(quick(19)).run();
    // Not strictly monotone per-seed (stochastic search), allow 10% slack.
    assert!(
        b.best.report.latency_cycles as f64 <= a.best.report.latency_cycles as f64 * 1.10,
        "32MB {} vs 1MB {}",
        b.best.report.latency_cycles,
        a.best.report.latency_cycles
    );
}

#[test]
fn more_bandwidth_never_hurts_soma() {
    let net = zoo::fig2(1);
    let at = |gbps: f64| {
        HardwareConfig::builder()
            .like(&HardwareConfig::edge())
            .buffer_mib(8)
            .dram_gbps(gbps)
            .build()
    };
    let (slow, fast) = (at(4.0), at(128.0));
    let a = Scheduler::new(&net, &slow).config(quick(7)).run();
    let b = Scheduler::new(&net, &fast).config(quick(7)).run();
    assert!(
        b.best.report.latency_cycles <= a.best.report.latency_cycles,
        "128 GB/s {} vs 4 GB/s {}",
        b.best.report.latency_cycles,
        a.best.report.latency_cycles
    );
}

#[test]
fn fig4_paper_encoding_round_trip() {
    let net = zoo::fig4(1);
    let mut lfa = Lfa::fully_fused(&net, 2);
    lfa.flc = [1, 2].into_iter().collect();
    lfa.dram_cuts = [2].into_iter().collect();
    lfa.tiling = vec![2, 1, 2];
    let plan = parse_lfa(&net, &lfa).unwrap();
    let dlsa = Dlsa::double_buffer(&plan);
    let hw = HardwareConfig::edge();
    let sched = ParsedSchedule { plan, dlsa };
    let report = evaluate(&net, &sched, &hw).unwrap();
    assert!(report.latency_cycles > 0);
    assert!(report.dram_util > 0.0);
}
