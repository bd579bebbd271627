//! Differential suite for the compiled evaluation engine: on random DLSA
//! mutation chains over the zoo networks, the compiled fast paths must
//! match the naive rebuild-everything paths **field for field** —
//! `CompiledPlan::simulate_into` vs a fresh `simulate()`, the
//! incrementally maintained `OccupancyProfile` vs a fresh
//! `buffer_profile()`, the engine's cost-only evaluation vs the full
//! report path, and deadlock detection vs deadlock detection.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use soma::core::lifetime::{buffer_profile, peak_buffer};
use soma::core::{parse_lfa, Dlsa, Lfa};
use soma::model::zoo;
use soma::model::Network;
use soma::prelude::*;
use soma::search::dlsa_stage::mutate_dlsa;
use soma::search::{DlsaEditor, SizeWeightedPicker};
use soma::sim::{evaluate_parts, simulate, CompiledPlan, CoreArrayModel, SimScratch};

/// The mutation-chain differential: drives `steps` random DLSA mutations
/// through both the naive clone path (`mutate_dlsa` + fresh
/// `simulate`/`buffer_profile`) and the engine path (`DlsaEditor` +
/// `CompiledPlan` + maintained `OccupancyProfile`), asserting
/// field-for-field equality at every step.
fn check_chain(net: &Network, lfa: &Lfa, seed: u64, steps: usize) {
    let hw = HardwareConfig::edge();
    let plan = parse_lfa(net, lfa).expect("valid LFA");
    let dlsa = Dlsa::double_buffer(&plan);
    let picker = SizeWeightedPicker::new(&plan);
    if picker.is_empty() {
        return;
    }

    let mut model = CoreArrayModel::new(&hw);
    let compiled = CompiledPlan::compile(net, &plan, &hw, &mut model);
    let mut scratch = SimScratch::new();

    let mut rng_naive = StdRng::seed_from_u64(seed);
    let mut rng_engine = StdRng::seed_from_u64(seed);
    let mut naive = dlsa.clone();
    let mut editor = DlsaEditor::new(&plan, dlsa);
    let mut undone = 0usize;

    for step in 0..steps {
        let cand = mutate_dlsa(&plan, &naive, &picker, &mut rng_naive);
        let token = editor.propose(&picker, &mut rng_engine);
        assert_eq!(cand.is_some(), token.is_some(), "step {step}: proposal divergence");
        let Some(cand) = cand else { continue };

        // The in-place editor mirrors the cloning mutator exactly.
        assert_eq!(editor.dlsa(), &cand, "step {step}: DLSA divergence");

        // Maintained profile == fresh rebuild, point for point.
        let reference = buffer_profile(&plan, &cand);
        let profile = editor.profile();
        assert_eq!(profile.len(), reference.len(), "step {step}");
        for (t, &b) in reference.iter().enumerate() {
            assert_eq!(profile.occupancy(t), b, "step {step}: tile {t} occupancy");
        }
        assert_eq!(editor.peak(), peak_buffer(&plan, &cand), "step {step}: peak");

        // Compiled simulation == naive simulation, timeline field for
        // field — including agreeing on deadlocks.
        let naive_sim = simulate(&plan, &cand, &hw, &mut model);
        let engine_sim = editor.dlsa().clone();
        match naive_sim {
            Ok(tl) => {
                let latency = compiled
                    .simulate_into(&engine_sim, &mut scratch)
                    .expect("naive simulated; engine must too");
                assert_eq!(compiled.timeline(latency, &scratch), tl, "step {step}: timeline");
                assert_eq!(
                    compiled.simulate_cost(&engine_sim, &mut scratch).unwrap(),
                    tl.latency,
                    "step {step}: cost-only latency"
                );

                // Full-report parity (floats compared by bits via
                // PartialEq on the report).
                let naive_report =
                    evaluate_parts(net, &plan, &cand, &hw, &mut model).expect("simulated");
                let engine_report =
                    compiled.report(net, &plan, &engine_sim, &mut scratch).expect("simulated");
                assert_eq!(engine_report, naive_report, "step {step}: report");

                naive = cand;
            }
            Err(naive_err) => {
                let engine_err = compiled
                    .simulate_cost(&engine_sim, &mut scratch)
                    .expect_err("naive deadlocked; engine must too");
                assert_eq!(engine_err, naive_err, "step {step}: deadlock divergence");
                // A deadlocked proposal is rejected: roll both walks back.
                editor.undo(token.expect("engine proposed"));
                undone += 1;
            }
        }
    }
    // After the walk (including any rollbacks) both views still agree.
    assert_eq!(editor.dlsa(), &naive, "final state ({undone} rollbacks)");
    assert_eq!(editor.peak(), peak_buffer(&plan, &naive));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// fig2 (the paper's running example), unfused and fused, random
    /// tiling and seeds.
    #[test]
    fn compiled_matches_naive_on_fig2_chains(
        seed in any::<u64>(),
        tiling_pow in 0u32..4,
        fused in any::<bool>(),
    ) {
        let net = zoo::fig2(1);
        let t = 1u32 << tiling_pow;
        let lfa = if fused { Lfa::fully_fused(&net, t) } else { Lfa::unfused(&net, t) };
        check_chain(&net, &lfa, seed, 120);
    }

    /// fig4 (branchy graph with a pooling layer).
    #[test]
    fn compiled_matches_naive_on_fig4_chains(seed in any::<u64>(), tiling_pow in 0u32..3) {
        let net = zoo::fig4(1);
        let lfa = Lfa::unfused(&net, 1 << tiling_pow);
        check_chain(&net, &lfa, seed, 100);
    }

    /// Deep conv chains with partially fused groups (random FLC/DRAM-cut
    /// structure, exercising on-chip intervals in the profile).
    #[test]
    fn compiled_matches_naive_on_partially_fused_chains(
        seed in any::<u64>(),
        depth in 3u32..7,
        cut_mask in any::<u8>(),
    ) {
        let net = zoo::chain(1, 16, 28, depth);
        let mut lfa = Lfa::fully_fused(&net, 2);
        for p in 1..net.len() {
            if cut_mask & (1 << (p % 8)) != 0 {
                lfa.flc.insert(p);
                if p % 2 == 0 {
                    lfa.dram_cuts.insert(p);
                }
            }
        }
        lfa.tiling = vec![2; lfa.flg_count()];
        check_chain(&net, &lfa, seed, 80);
    }
}

/// One long chain on a real CNN: ResNet-50's stage-1-style initial plan.
/// Not a proptest (one deterministic case) to bound suite runtime.
#[test]
fn compiled_matches_naive_on_resnet50() {
    let net = zoo::resnet50(1);
    let lfa = Lfa::unfused(&net, 2);
    check_chain(&net, &lfa, 2025, 60);
}

/// The engine-backed search still beats or ties its own stage-1 result
/// on a transformer workload (smoke for the rewired stages on the
/// attention-style graphs).
#[test]
fn engine_backed_search_runs_on_gpt2_slice() {
    let net = zoo::gpt2_small_prefill(1, 64);
    let hw = HardwareConfig::edge();
    let cfg = SearchConfig { effort: 0.01, seed: 3, ..SearchConfig::default() };
    let out = soma::search::schedule(&net, &hw, &cfg);
    assert!(out.best.cost <= out.stage1.cost);
    assert!(out.evals > 0);
}
