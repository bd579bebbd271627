//! Differential suite for the compiled evaluation engine: on random DLSA
//! mutation chains over the zoo networks, the compiled fast paths must
//! match the naive rebuild-everything paths exactly —
//! `CompiledPlan::simulate_cost` and stage 2's resumed `Replay` vs the
//! latency of a fresh `simulate()`, the compiled energy vs the bits of
//! the naive report's, the incrementally maintained `OccupancyProfile`
//! vs a fresh `buffer_profile()`, and deadlock detection vs deadlock
//! detection. On random LFA mutation chains, one long-lived
//! `Objective`'s resumed stage-1 evaluation must equal the one-shot
//! parse, compile, replay and peak, bit for bit. One level up, the
//! in-place stage-2 annealer, and the stage-1 and Cocco annealers on
//! resumed evaluations, must follow the naive annealers' exact
//! trajectories.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use soma::core::lifetime::{buffer_profile, peak_buffer};
use soma::core::plan::MAX_TILING;
use soma::core::{parse_lfa, Dlsa, DlsaMove, Lfa};
use soma::model::zoo;
use soma::model::Network;
use soma::prelude::*;
use soma::search::cocco::{initial_cocco, mutate_cocco, run_cocco};
use soma::search::dlsa_stage::{mutate_dlsa, run_stage2};
use soma::search::lfa_stage::{initial_lfa, mutate_lfa, run_stage1};
use soma::search::{anneal, DlsaEditor, Objective, SaSchedule, SizeWeightedPicker};
use soma::sim::{evaluate_parts, CompiledPlan, CoreArrayModel, Replay, SimScratch};

/// Rolls one resumed proposal back the way stage 2 does: the replay
/// (suffix and store gate), then the editor.
fn roll_back(replay: &mut Replay, editor: &mut DlsaEditor<'_>, mv: DlsaMove) {
    replay.restore();
    editor.undo(mv);
}

/// The mutation-chain differential: drives `steps` random DLSA mutations
/// through both the naive clone path (`mutate_dlsa` + fresh
/// `simulate`/`buffer_profile`) and the engine path (`DlsaEditor` +
/// `CompiledPlan` + maintained `OccupancyProfile` + stage 2's resumed
/// `Replay`), asserting equality at every step. A seeded coin keeps or
/// rolls back each proposal that simulates, so the replay both keeps and
/// restores rewritten suffixes. After an accepted move that kept the
/// record as it was, a few probe proposals from a separate stream resume
/// the replay from the checkpoints they hit, each checked against a full
/// replay and rolled back. Returns how many living-duration moves were
/// evaluated and how many of those kept the record.
fn check_chain(net: &Network, lfa: &Lfa, seed: u64, steps: usize) -> (usize, usize) {
    let hw = HardwareConfig::edge();
    let plan = parse_lfa(net, lfa).expect("valid LFA");
    let dlsa = Dlsa::double_buffer(&plan);
    let picker = SizeWeightedPicker::new(&plan);
    if picker.is_empty() {
        return (0, 0);
    }

    let mut model = CoreArrayModel::new(&hw);
    let compiled = CompiledPlan::compile(net, &plan, &hw, &mut model);
    let mut scratch = SimScratch::new();
    let mut replay = Replay::new(&compiled, &dlsa).expect("double-buffer DLSA simulates");

    let mut rng_naive = StdRng::seed_from_u64(seed);
    let mut rng_engine = StdRng::seed_from_u64(seed);
    let mut coin = StdRng::seed_from_u64(!seed);
    let mut probe = StdRng::seed_from_u64(seed.rotate_left(32));
    let mut naive = dlsa.clone();
    let mut editor = DlsaEditor::new(&plan, dlsa);
    let (mut undone, mut kept, mut rolled_back) = (0usize, 0usize, 0usize);
    let (mut living, mut no_replay) = (0usize, 0usize);

    for step in 0..steps {
        let cand = mutate_dlsa(&plan, &naive, &picker, &mut rng_naive);
        let token = editor.propose(&picker, &mut rng_engine);
        assert_eq!(cand.is_some(), token.is_some(), "step {step}: proposal divergence");
        let (Some(cand), Some(mv)) = (cand, token) else { continue };

        // The in-place editor mirrors the cloning mutator exactly.
        assert_eq!(editor.dlsa(), &cand, "step {step}: DLSA divergence");
        for (k, &ti) in cand.order.iter().enumerate() {
            assert_eq!(editor.slots()[ti as usize] as usize, k, "step {step}: inverse order");
        }

        // Maintained profile == fresh rebuild, point for point.
        let reference = buffer_profile(&plan, &cand);
        let profile = editor.profile();
        assert_eq!(profile.len(), reference.len(), "step {step}");
        for (t, &b) in reference.iter().enumerate() {
            assert_eq!(profile.occupancy(t), b, "step {step}: tile {t} occupancy");
        }
        assert_eq!(editor.peak(), peak_buffer(&plan, &cand), "step {step}: peak");

        // Stage 2's evaluation: resume the kept replay at the move.
        let resumed = replay.resume(&compiled, editor.dlsa(), editor.slots(), mv);
        let was_kept = replay.kept();
        if !matches!(mv, DlsaMove::Order { .. }) {
            living += 1;
            no_replay += usize::from(was_kept);
        }

        // Compiled latency and energy == the naive report's, including
        // agreeing on deadlocks.
        let naive_report = evaluate_parts(net, &plan, &cand, &hw, &mut model);
        let engine_sim = editor.dlsa().clone();
        match naive_report {
            Ok(report) => {
                assert_eq!(
                    compiled.simulate_cost(&engine_sim, &mut scratch),
                    Ok(report.latency_cycles),
                    "step {step}: cost-only latency"
                );
                assert_eq!(
                    compiled.energy_total_pj().to_bits(),
                    report.energy.total_pj().to_bits(),
                    "step {step}: energy"
                );
                assert_eq!(resumed, Ok(report.latency_cycles), "step {step}: resumed latency");

                if coin.gen_bool(0.5) {
                    naive = cand;
                    kept += 1;
                    if was_kept {
                        probe_checkpoints(&compiled, &picker, &mut replay, &mut editor, &mut probe);
                    }
                } else {
                    roll_back(&mut replay, &mut editor, mv);
                    rolled_back += 1;
                }
            }
            Err(naive_err) => {
                let engine_err = compiled
                    .simulate_cost(&engine_sim, &mut scratch)
                    .expect_err("naive deadlocked; engine must too");
                assert_eq!(engine_err, naive_err, "step {step}: deadlock divergence");
                assert_eq!(resumed, Err(naive_err), "step {step}: resumed deadlock");
                // A deadlocked proposal is rejected: roll both walks back.
                roll_back(&mut replay, &mut editor, mv);
                undone += 1;
            }
        }

        // The kept replay is a full replay of the accepted DLSA again.
        let full = Replay::new(&compiled, editor.dlsa()).expect("accepted DLSA simulates");
        assert_eq!(replay.end_times(), full.end_times(), "step {step}: kept end times");
    }
    // After the walk (including any rollbacks) both views still agree.
    let walk = format!("{kept} kept, {rolled_back} rolled back, {undone} deadlocks");
    assert_eq!(editor.dlsa(), &naive, "final state ({walk})");
    assert_eq!(editor.peak(), peak_buffer(&plan, &naive));
    (living, no_replay)
}

/// Resumes `replay`, just kept through a move that bound no gate, on four
/// proposals drawn from `rng`: each resumes from the checkpoint its move
/// reaches, must equal a full replay of the probed DLSA, and is rolled
/// back.
fn probe_checkpoints(
    compiled: &CompiledPlan,
    picker: &SizeWeightedPicker,
    replay: &mut Replay,
    editor: &mut DlsaEditor<'_>,
    rng: &mut StdRng,
) {
    let mut scratch = SimScratch::new();
    for _ in 0..4 {
        let Some(mv) = editor.propose(picker, rng) else { continue };
        let resumed = replay.resume(compiled, editor.dlsa(), editor.slots(), mv);
        let full = compiled.simulate_cost(editor.dlsa(), &mut scratch);
        assert_eq!(resumed, full, "probe {mv:?} after a kept move");
        roll_back(replay, editor, mv);
    }
}

/// The annealer-level differential: `run_stage2` (in-place editor,
/// resumed replay) against `sa::anneal` over `mutate_dlsa` with
/// `Objective::eval_parts` costs, at the same seed. Temperature-driven
/// rejections roll proposals back here, not only deadlocks.
fn check_stage2(net: &Network, lfa: &Lfa, seed: u64, effort: f64) {
    let hw = HardwareConfig::edge();
    let plan = parse_lfa(net, lfa).expect("valid LFA");
    let init = Dlsa::double_buffer(&plan);
    let picker = SizeWeightedPicker::new(&plan);
    if picker.is_empty() {
        return;
    }
    let cfg = SearchConfig { effort, ..SearchConfig::default() };
    let limit = hw.buffer_bytes;

    let mut obj = Objective::new(net, &hw, cfg.weights);
    let mut rng_engine = StdRng::seed_from_u64(seed);
    let engine = run_stage2(&mut obj, &cfg, &mut rng_engine, &plan, init.clone(), limit);

    let mut naive_obj = Objective::new(net, &hw, cfg.weights);
    let mut rng_naive = StdRng::seed_from_u64(seed);
    let (init_cost, _) = naive_obj.eval_parts(&plan, &init, limit).expect("simulates");
    let iters = cfg.stage2_iters(picker.len());
    let schedule = SaSchedule {
        t0: cfg.t0,
        alpha: cfg.alpha,
        iters,
        greedy_tail: iters / 10,
        time_budget: None,
    };
    let naive = anneal(&schedule, &mut rng_naive, init, init_cost, |cur, rng| {
        let cand = mutate_dlsa(&plan, cur, &picker, rng)?;
        let (cost, _) = naive_obj.eval_parts(&plan, &cand, limit)?;
        Some((cand, cost))
    });
    let (cost, report) = naive_obj.eval_parts(&plan, &naive.best, limit).expect("best simulates");

    assert_eq!(engine.dlsa, naive.best, "best DLSA");
    assert_eq!(engine.cost.to_bits(), cost.to_bits(), "best cost");
    assert_eq!(engine.report, report, "best report");
    assert_eq!(
        (obj.evals(), obj.rejected()),
        (naive_obj.evals(), naive_obj.rejected()),
        "evals / rejected"
    );
    assert_eq!(rng_engine.next_u64(), rng_naive.next_u64(), "RNG draws");
}

/// Which LFA proposal generator drives a stage-1 chain or annealer.
#[derive(Debug, Clone, Copy)]
enum LfaMutator {
    /// SoMa's stage-1 operators, with or without linked cut sets.
    Soma { link_cuts: bool },
    /// Cocco's restricted operators.
    Cocco,
}

impl LfaMutator {
    fn initial(self, net: &Network, hw: &HardwareConfig) -> Lfa {
        match self {
            Self::Soma { .. } => initial_lfa(net, hw),
            Self::Cocco => initial_cocco(net, hw),
        }
    }

    fn mutate(
        self,
        net: &Network,
        hw: &HardwareConfig,
        lfa: &Lfa,
        rng: &mut StdRng,
    ) -> Option<Lfa> {
        match self {
            Self::Soma { link_cuts } => mutate_lfa(net, lfa, rng, link_cuts),
            Self::Cocco => mutate_cocco(net, hw, lfa, rng),
        }
    }
}

/// The one-shot stage-1 cost of `lfa`: `parse_lfa`, the double-buffer
/// DLSA, a fresh compile, a replay from the start and the buffer peak.
fn one_shot_cost(
    obj: &Objective<'_>,
    model: &mut CoreArrayModel<'_>,
    lfa: &Lfa,
    limit: u64,
) -> Option<f64> {
    let net = obj.network();
    let plan = parse_lfa(net, lfa).ok()?;
    let dlsa = Dlsa::double_buffer(&plan);
    let compiled = CompiledPlan::compile(net, &plan, obj.hardware(), model);
    let latency = compiled.simulate_cost(&dlsa, &mut SimScratch::new()).ok()?;
    let peak = peak_buffer(&plan, &dlsa);
    Some(obj.cost_of_parts(latency, compiled.energy_total_pj(), peak, limit))
}

/// `lfa` with only its last FLG re-tiled: the plan keeps every earlier
/// tile, and the stores of the last two kept tiles see a new tile count.
fn retile_last(lfa: &Lfa, rng: &mut StdRng) -> Option<Lfa> {
    let mut out = lfa.clone();
    let t = out.tiling.last_mut().expect("an LFA has an FLG");
    *t = if rng.gen_bool(0.5) { (*t * 2).min(MAX_TILING) } else { (*t / 2).max(1) };
    (out != *lfa).then_some(out)
}

/// The stage-1 differential: drives `steps` random LFA proposals through
/// one long-lived `Objective::eval_lfa_cost` and asserts its cost equals
/// the one-shot cost bit for bit at every step, kept or not. One step in
/// ten re-tiles only the last FLG, and one in twenty also asks
/// `eval_lfa` for the full report, whose cost must agree too.
fn check_stage1_chain(net: &Network, mutator: LfaMutator, seed: u64, steps: usize) {
    let hw = HardwareConfig::edge();
    let limit = hw.buffer_bytes;
    let mut obj = Objective::new(net, &hw, CostWeights::default());
    let mut model = CoreArrayModel::new(&hw);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coin = StdRng::seed_from_u64(!seed);
    let mut cur = mutator.initial(net, &hw);
    let mut evaluated = 0;
    for step in 0..=steps {
        let cand = if step == 0 {
            Some(cur.clone())
        } else if coin.gen_bool(0.1) {
            retile_last(&cur, &mut coin)
        } else {
            mutator.mutate(net, &hw, &cur, &mut rng)
        };
        let Some(cand) = cand else { continue };
        let want = one_shot_cost(&obj, &mut model, &cand, limit).map(f64::to_bits);
        let got = obj.eval_lfa_cost(&cand, limit).map(f64::to_bits);
        assert_eq!(got, want, "{} step {step}: resumed against one-shot cost", net.name());
        if coin.gen_bool(0.05) {
            let full = obj.eval_lfa(&cand, limit).map(|(cost, ..)| cost.to_bits());
            assert_eq!(full, want, "{} step {step}: full report's cost", net.name());
        }
        if got.is_some() {
            evaluated += 1;
            if coin.gen_bool(0.5) {
                cur = cand;
            }
        }
    }
    assert!(evaluated > steps / 4, "{}: only {evaluated} proposals evaluated", net.name());
}

/// The annealer-level stage-1 differential: `run_stage1` or `run_cocco`
/// (resumed cost-only evaluations) against `sa::anneal` over the same
/// mutator with one-shot `Objective::eval_lfa` costs, at the same seed.
fn check_stage1_anneal(net: &Network, mutator: LfaMutator, seed: u64, effort: f64) {
    let hw = HardwareConfig::edge();
    let link_cuts = matches!(mutator, LfaMutator::Soma { link_cuts: true });
    let cfg = SearchConfig { effort, link_cuts, ..SearchConfig::default() };
    let limit = hw.buffer_bytes;

    let mut obj = Objective::new(net, &hw, cfg.weights);
    let mut rng_engine = StdRng::seed_from_u64(seed);
    let engine = match mutator {
        LfaMutator::Soma { .. } => run_stage1(&mut obj, &cfg, &mut rng_engine, limit),
        LfaMutator::Cocco => run_cocco(&mut obj, &cfg, &mut rng_engine, limit),
    };

    let mut naive_obj = Objective::new(net, &hw, cfg.weights);
    let mut rng_naive = StdRng::seed_from_u64(seed);
    let init = mutator.initial(net, &hw);
    let (init_cost, ..) = naive_obj.eval_lfa(&init, limit).expect("initial LFA parses");
    let iters = cfg.stage1_iters(net.len());
    let schedule = SaSchedule {
        t0: cfg.t0,
        alpha: cfg.alpha,
        iters,
        greedy_tail: iters / 10,
        time_budget: None,
    };
    let naive = anneal(&schedule, &mut rng_naive, init, init_cost, |cur, rng| {
        let cand = mutator.mutate(net, &hw, cur, rng)?;
        let (cost, ..) = naive_obj.eval_lfa(&cand, limit)?;
        Some((cand, cost))
    });
    let (cost, ..) = naive_obj.eval_lfa(&naive.best, limit).expect("best LFA parses");

    assert_eq!(engine.lfa, naive.best, "best LFA");
    assert_eq!(engine.cost.to_bits(), cost.to_bits(), "best cost");
    assert_eq!(
        (obj.evals(), obj.rejected()),
        (naive_obj.evals(), naive_obj.rejected()),
        "evals / rejected"
    );
    assert_eq!(rng_engine.next_u64(), rng_naive.next_u64(), "RNG draws");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Stage 2 on fig2, unfused and fused, random tiling, seed and effort.
    #[test]
    fn stage2_matches_naive_anneal_on_fig2(
        seed in any::<u64>(),
        tiling_pow in 0u32..4,
        fused in any::<bool>(),
        effort_milli in 5u32..60,
    ) {
        let net = zoo::fig2(1);
        let t = 1u32 << tiling_pow;
        let lfa = if fused { Lfa::fully_fused(&net, t) } else { Lfa::unfused(&net, t) };
        check_stage2(&net, &lfa, seed, f64::from(effort_milli) / 1000.0);
    }

    /// Stage 2 on fig4 (branchy graph with a pooling layer).
    #[test]
    fn stage2_matches_naive_anneal_on_fig4(
        seed in any::<u64>(),
        tiling_pow in 0u32..3,
        effort_milli in 5u32..60,
    ) {
        let net = zoo::fig4(1);
        check_stage2(&net, &Lfa::unfused(&net, 1 << tiling_pow), seed, f64::from(effort_milli) / 1000.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Resumed stage-1 evaluation on the demo networks under every
    /// generator.
    #[test]
    fn stage1_resume_matches_one_shot_on_demo_chains(
        seed in any::<u64>(),
        fig4 in any::<bool>(),
        link_cuts in any::<bool>(),
        cocco in any::<bool>(),
    ) {
        let net = if fig4 { zoo::fig4(1) } else { zoo::fig2(1) };
        let mutator = if cocco { LfaMutator::Cocco } else { LfaMutator::Soma { link_cuts } };
        check_stage1_chain(&net, mutator, seed, 120);
    }

    /// Resumed stage-1 evaluation on deep conv chains.
    #[test]
    fn stage1_resume_matches_one_shot_on_chains(
        seed in any::<u64>(),
        depth in 3u32..9,
        cocco in any::<bool>(),
    ) {
        let net = zoo::chain(1, 16, 28, depth);
        let mutator = if cocco { LfaMutator::Cocco } else { LfaMutator::Soma { link_cuts: false } };
        check_stage1_chain(&net, mutator, seed, 120);
    }

    /// `run_stage1` and `run_cocco` on fig2 and fig4 follow the one-shot
    /// annealer.
    #[test]
    fn stage1_matches_naive_anneal_on_demo_nets(
        seed in any::<u64>(),
        fig4 in any::<bool>(),
        cocco in any::<bool>(),
        effort_milli in 50u32..400,
    ) {
        let net = if fig4 { zoo::fig4(1) } else { zoo::fig2(1) };
        let mutator = if cocco { LfaMutator::Cocco } else { LfaMutator::Soma { link_cuts: false } };
        check_stage1_anneal(&net, mutator, seed, f64::from(effort_milli) / 1000.0);
    }
}

/// Resumed stage-1 evaluation on the campaign networks, one deterministic
/// chain per generator to bound suite runtime.
#[test]
fn stage1_resume_matches_one_shot_on_resnet50_and_randwire() {
    for net in [zoo::resnet50(1), zoo::by_name("randwire").expect("zoo network")] {
        for (seed, mutator) in [
            (21, LfaMutator::Soma { link_cuts: false }),
            (22, LfaMutator::Soma { link_cuts: true }),
            (23, LfaMutator::Cocco),
        ] {
            check_stage1_chain(&net, mutator, seed, 150);
        }
    }
}

/// `run_stage1` and `run_cocco` on ResNet-50 follow the one-shot
/// annealer.
#[test]
fn stage1_matches_naive_anneal_on_resnet50() {
    let net = zoo::resnet50(1);
    check_stage1_anneal(&net, LfaMutator::Soma { link_cuts: false }, 2025, 0.05);
    check_stage1_anneal(&net, LfaMutator::Cocco, 2026, 0.05);
}

/// Stage 2 on ResNet-50's stage-1-style initial plan, one deterministic
/// case to bound suite runtime.
#[test]
fn stage2_matches_naive_anneal_on_resnet50() {
    let net = zoo::resnet50(1);
    check_stage2(&net, &Lfa::unfused(&net, 2), 2025, 0.002);
}

/// One long chain on a real CNN: ResNet-50's stage-1-style initial plan.
/// Not a proptest (one deterministic case) to bound suite runtime. Most
/// of its living-duration moves bind no gate, so the probes after them
/// run often.
#[test]
fn compiled_matches_naive_on_resnet50() {
    let net = zoo::resnet50(1);
    let lfa = Lfa::unfused(&net, 2);
    let (living, kept) = check_chain(&net, &lfa, 2025, 60);
    assert!(kept * 10 >= living, "{kept} of {living} living-duration moves kept");
}

/// The engine-backed search still beats or ties its own stage-1 result
/// on a transformer workload (smoke for the rewired stages on the
/// attention-style graphs).
#[test]
fn engine_backed_search_runs_on_gpt2_slice() {
    let net = zoo::gpt2_small_prefill(1, 64);
    let hw = HardwareConfig::edge();
    let cfg = SearchConfig { effort: 0.01, seed: 3, ..SearchConfig::default() };
    let out = Scheduler::new(&net, &hw).config(cfg).run();
    assert!(out.best.cost <= out.stage1.cost);
    assert!(out.evals > 0);
}
