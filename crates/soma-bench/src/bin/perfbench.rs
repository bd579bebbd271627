//! Search-throughput benchmark: schedule evaluations per second through
//! the naive rebuild-everything path vs the compiled evaluation engine,
//! per stage, per network, per seed.
//!
//! Prints a machine-readable JSON document to stdout (committed at the
//! repo root as `BENCH_search.json`) and commentary to stderr. Both
//! paths replay the *same* greedy mutation walk at the same seed, and
//! the bit-identical final cost is asserted before any number is
//! reported — a result that is fast but wrong aborts the run.
//!
//! End-to-end timings of `lab` campaigns and the `serve` daemon, with
//! repeats, medians and output checks, come from `benchmark/run.sh`.
//!
//! Knobs (see `soma_bench::RunConfig`): `SOMA_SEED` is the base seed
//! (three consecutive seeds are measured), `SOMA_EFFORT` scales the
//! proposal counts, `SOMA_WORKLOAD` filters networks by substring.
//!
//! Usage: `cargo run --release -p soma-bench --bin perfbench > BENCH_search.json`

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use soma_arch::HardwareConfig;
use soma_bench::RunConfig;
use soma_core::{parse_lfa, Dlsa, Lfa};
use soma_model::Network;
use soma_obs::StreamingStats;
use soma_search::dlsa_stage::mutate_dlsa;
use soma_search::lfa_stage::{initial_lfa, mutate_lfa};
use soma_search::{CostWeights, DlsaEditor, Objective, SizeWeightedPicker};

/// One timed walk: completed evaluations and elapsed seconds.
struct Timed {
    evals: u64,
    elapsed_s: f64,
    final_cost: f64,
}

impl Timed {
    fn evals_per_sec(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.evals as f64 / self.elapsed_s
        } else {
            0.0
        }
    }
}

/// Greedy stage-2 walk through the naive path: clone-per-proposal
/// mutation + full-report evaluation (the pre-engine inner loop).
fn stage2_naive(net: &Network, hw: &HardwareConfig, lfa: &Lfa, seed: u64, proposals: u64) -> Timed {
    let plan = parse_lfa(net, lfa).expect("probe LFA parses");
    let picker = SizeWeightedPicker::new(&plan);
    let mut obj = Objective::new(net, hw, CostWeights::default());
    let mut cur = Dlsa::double_buffer(&plan);
    let (mut cur_cost, _) = obj.eval_parts(&plan, &cur, hw.buffer_bytes).expect("init evaluates");
    let mut rng = StdRng::seed_from_u64(seed);

    let start = Instant::now();
    let evals_before = obj.evals();
    for _ in 0..proposals {
        let Some(cand) = mutate_dlsa(&plan, &cur, &picker, &mut rng) else { continue };
        let Some((cost, _)) = obj.eval_parts(&plan, &cand, hw.buffer_bytes) else { continue };
        if cost <= cur_cost {
            cur = cand;
            cur_cost = cost;
        }
    }
    Timed {
        evals: obj.evals() - evals_before,
        elapsed_s: start.elapsed().as_secs_f64(),
        final_cost: cur_cost,
    }
}

/// The same greedy stage-2 walk through the compiled engine: in-place
/// mutation with undo tokens, maintained occupancy profile,
/// allocation-free cost-only evaluation.
fn stage2_engine(
    net: &Network,
    hw: &HardwareConfig,
    lfa: &Lfa,
    seed: u64,
    proposals: u64,
) -> Timed {
    let plan = parse_lfa(net, lfa).expect("probe LFA parses");
    let picker = SizeWeightedPicker::new(&plan);
    let mut obj = Objective::new(net, hw, CostWeights::default());
    let init = Dlsa::double_buffer(&plan);
    let (mut cur_cost, _) = obj.eval_parts(&plan, &init, hw.buffer_bytes).expect("init evaluates");
    let compiled = obj.compile(&plan);
    let mut editor = DlsaEditor::new(&plan, init);
    let mut rng = StdRng::seed_from_u64(seed);

    let start = Instant::now();
    let evals_before = obj.evals();
    for _ in 0..proposals {
        let Some(token) = editor.propose(&picker, &mut rng) else { continue };
        match obj.eval_compiled_with_peak(&compiled, editor.dlsa(), editor.peak(), hw.buffer_bytes)
        {
            Some(cost) if cost <= cur_cost => cur_cost = cost,
            _ => editor.undo(token),
        }
    }
    Timed {
        evals: obj.evals() - evals_before,
        elapsed_s: start.elapsed().as_secs_f64(),
        final_cost: cur_cost,
    }
}

/// Greedy stage-1 walk: `mutate_lfa` proposals through the full-report
/// path (naive) or the cost-only engine path.
fn stage1_walk(
    net: &Network,
    hw: &HardwareConfig,
    seed: u64,
    proposals: u64,
    engine: bool,
) -> Timed {
    let mut obj = Objective::new(net, hw, CostWeights::default());
    let mut cur = initial_lfa(net, hw);
    let (mut cur_cost, ..) = obj.eval_lfa(&cur, hw.buffer_bytes).expect("initial LFA evaluates");
    let mut rng = StdRng::seed_from_u64(seed);

    let start = Instant::now();
    let evals_before = obj.evals();
    for _ in 0..proposals {
        let Some(cand) = mutate_lfa(net, &cur, &mut rng, false) else { continue };
        let cost = if engine {
            obj.eval_lfa_cost(&cand, hw.buffer_bytes)
        } else {
            obj.eval_lfa(&cand, hw.buffer_bytes).map(|(c, ..)| c)
        };
        let Some(cost) = cost else { continue };
        if cost <= cur_cost {
            cur = cand;
            cur_cost = cost;
        }
    }
    Timed {
        evals: obj.evals() - evals_before,
        elapsed_s: start.elapsed().as_secs_f64(),
        final_cost: cur_cost,
    }
}

/// Cross-seed aggregate of one (scenario, stage) pair's timings, built
/// on the shared `soma-obs` streaming aggregators (the same
/// implementation every other observability consumer uses — perfbench
/// no longer hand-rolls min/max/mean).
#[derive(Default)]
struct StageTimings {
    naive_eps: StreamingStats,
    engine_eps: StreamingStats,
    speedup: StreamingStats,
}

impl StageTimings {
    fn fold(&mut self, naive: &Timed, engine: &Timed) {
        self.naive_eps.observe(naive.evals_per_sec());
        self.engine_eps.observe(engine.evals_per_sec());
        if naive.evals_per_sec() > 0.0 {
            self.speedup.observe(engine.evals_per_sec() / naive.evals_per_sec());
        }
    }

    fn to_json(&self, scenario: &str, stage: &str) -> String {
        let dist = |s: &StreamingStats| {
            format!(
                "{{\"min\": {:.1}, \"max\": {:.1}, \"mean\": {:.1}}}",
                s.min(),
                s.max(),
                s.mean()
            )
        };
        format!(
            "    {{\"scenario\": \"{scenario}\", \"stage\": \"{stage}\", \"seeds\": {}, \
             \"naive_evals_per_sec\": {}, \"engine_evals_per_sec\": {}, \
             \"speedup\": {{\"min\": {:.2}, \"max\": {:.2}, \"mean\": {:.2}}}}}",
            self.naive_eps.count(),
            dist(&self.naive_eps),
            dist(&self.engine_eps),
            self.speedup.min(),
            self.speedup.max(),
            self.speedup.mean(),
        )
    }
}

fn json_row(
    out: &mut String,
    scenario: &str,
    stage: &str,
    seed: u64,
    proposals: u64,
    naive: &Timed,
    engine: &Timed,
) {
    let speedup = if naive.evals_per_sec() > 0.0 {
        engine.evals_per_sec() / naive.evals_per_sec()
    } else {
        0.0
    };
    let _ = write!(
        out,
        "    {{\"scenario\": \"{scenario}\", \"stage\": \"{stage}\", \"seed\": {seed}, \
         \"proposals\": {proposals}, \
         \"naive\": {{\"evals\": {}, \"elapsed_s\": {:.6}, \"evals_per_sec\": {:.1}}}, \
         \"engine\": {{\"evals\": {}, \"elapsed_s\": {:.6}, \"evals_per_sec\": {:.1}}}, \
         \"speedup\": {:.2}}}",
        naive.evals,
        naive.elapsed_s,
        naive.evals_per_sec(),
        engine.evals,
        engine.elapsed_s,
        engine.evals_per_sec(),
        speedup
    );
    eprintln!(
        "[perfbench] {scenario:<20} {stage:<5} seed {seed}: naive {:>9.1} evals/s, \
         engine {:>9.1} evals/s, speedup {:.2}x",
        naive.evals_per_sec(),
        engine.evals_per_sec(),
        speedup
    );
}

fn main() {
    let rc = RunConfig::from_env_or_exit();
    let hw = HardwareConfig::edge();
    // (name, network, stage-2 probe LFA, stage-2 proposals, stage-1 proposals)
    let nets: Vec<(&str, Network)> =
        vec![("fig2", soma_model::zoo::fig2(1)), ("resnet50", soma_model::zoo::resnet50(1))];
    let seeds: Vec<u64> = (0..3).map(|i| rc.seed + i).collect();

    let mut rows: Vec<String> = Vec::new();
    let mut aggregates: BTreeMap<(String, &str), StageTimings> = BTreeMap::new();
    for (name, net) in &nets {
        // Rows are keyed by registry scenario id (the probe runs on
        // `@edge/b1`), which is also what `SOMA_WORKLOAD` matches.
        let scenario = soma_bench::scenario_key(&hw, net.name(), 1);
        if !rc.selects_id(&scenario) {
            continue;
        }
        let probe_lfa = initial_lfa(net, &hw);
        let (s2_proposals, s1_proposals) =
            if *name == "fig2" { (20_000, 3_000) } else { (2_000, 120) };
        let s2_proposals = ((s2_proposals as f64 * rc.effort_scale) as u64).max(200);
        let s1_proposals = ((s1_proposals as f64 * rc.effort_scale) as u64).max(20);

        for &seed in &seeds {
            // Stage 2: the hot loop the engine was built for. Both walks
            // follow the same seed; diverging final costs would mean the
            // engine is fast but wrong.
            let naive = stage2_naive(net, &hw, &probe_lfa, seed, s2_proposals);
            let engine = stage2_engine(net, &hw, &probe_lfa, seed, s2_proposals);
            assert_eq!(
                naive.final_cost.to_bits(),
                engine.final_cost.to_bits(),
                "{name} seed {seed}: engine diverged from naive walk"
            );
            let mut row = String::new();
            json_row(&mut row, &scenario, "dlsa", seed, s2_proposals, &naive, &engine);
            rows.push(row);
            aggregates.entry((scenario.clone(), "dlsa")).or_default().fold(&naive, &engine);

            // Stage 1: dominated by parsing either way; the engine only
            // drops the report build.
            let naive = stage1_walk(net, &hw, seed, s1_proposals, false);
            let engine = stage1_walk(net, &hw, seed, s1_proposals, true);
            assert_eq!(
                naive.final_cost.to_bits(),
                engine.final_cost.to_bits(),
                "{name} seed {seed}: stage-1 engine diverged"
            );
            let mut row = String::new();
            json_row(&mut row, &scenario, "lfa", seed, s1_proposals, &naive, &engine);
            rows.push(row);
            aggregates.entry((scenario.clone(), "lfa")).or_default().fold(&naive, &engine);
        }
    }

    println!("{{");
    println!("  \"bench\": \"search_throughput\",");
    println!("  \"unit\": \"completed schedule evaluations per second\",");
    println!(
        "  \"config\": {{\"base_seed\": {}, \"effort_scale\": {}, \"platform\": \"{}\"}},",
        rc.seed, rc.effort_scale, hw.name
    );
    println!("  \"results\": [");
    println!("{}", rows.join(",\n"));
    println!("  ],");
    // Cross-seed aggregates per (scenario, stage), via soma-obs stats.
    let agg_rows: Vec<String> = aggregates
        .iter()
        .map(|((scenario, stage), t)| {
            eprintln!(
                "[perfbench] {scenario:<20} {stage:<5} aggregate over {} seed(s): \
                 engine {:>9.1} evals/s mean, speedup {:.2}x mean",
                t.engine_eps.count(),
                t.engine_eps.mean(),
                t.speedup.mean()
            );
            t.to_json(scenario, stage)
        })
        .collect();
    println!("  \"aggregate\": [");
    println!("{}", agg_rows.join(",\n"));
    println!("  ]");
    println!("}}");
}
