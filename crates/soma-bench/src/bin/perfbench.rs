//! Search-throughput benchmark: schedule evaluations per second through
//! the naive rebuild-everything path vs the compiled evaluation engine,
//! per stage, per network, per seed — plus cold-vs-warm timings of the
//! ledger-backed `lab` orchestrator, thread-count scaling of a
//! seed-portfolio run (outcomes asserted bit-identical across counts
//! first; the `scaling` section reports wall-clock only; single-core
//! hosts get a stderr warning and a `"warning"` stamp in the JSON),
//! and a `serve` saturation section (cold vs ledger-cached request
//! storms against an in-process daemon, via `soma_bench::loadgen`).
//!
//! Prints a machine-readable JSON document to stdout (committed at the
//! repo root as `BENCH_search.json`) and commentary to stderr. Both
//! paths replay the *same* greedy mutation walk at the same seed, and
//! the bit-identical final cost is asserted before any number is
//! reported — a result that is fast but wrong aborts the run. Likewise
//! the `lab` section asserts the warm pass is 100 % ledger hits before
//! reporting its speedup.
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

/// Times the `lab` orchestrator on one scenario: a cold run (full
/// search, fresh ledger) vs a warm rerun (100 % ledger hits — asserted).
/// The ratio is what a same-spec replay of an experiment campaign costs
/// after this PR: ledger I/O instead of search.
fn lab_cold_warm(rc: &RunConfig, scenario_id: &str) -> String {
    use soma_search::SearchConfig;

    let sc = soma_spec::registry::lookup(scenario_id).expect("registry scenario id");
    let spec = soma_spec::ExperimentSpec {
        name: format!("perf-{}", scenario_id.replace(['@', '/'], "-")),
        scenarios: vec![sc],
        workloads: vec![],
        hardware: vec![],
        batches: vec![],
        seeds: vec![rc.seed],
        config: SearchConfig {
            effort: 0.02 * rc.effort_scale,
            seed: rc.seed,
            stage2_cap: 50_000,
            max_allocator_iters: 4,
            ..SearchConfig::default()
        },
        parallelism: soma_search::Parallelism::Sequential,
    };
    let ledger = std::env::temp_dir().join(format!("{}.ledger", spec.name));
    let _ = std::fs::remove_dir_all(&ledger);

    let start = Instant::now();
    let cold = soma_bench::run_lab(&spec, &ledger, |_| {}).expect("cold lab run");
    let cold_s = start.elapsed().as_secs_f64();
    assert_eq!(cold.misses, 1, "{scenario_id}: cold run must search");

    let start = Instant::now();
    let warm = soma_bench::run_lab(&spec, &ledger, |_| {}).expect("warm lab run");
    let warm_s = start.elapsed().as_secs_f64();
    assert_eq!(
        (warm.hits, warm.misses),
        (1, 0),
        "{scenario_id}: warm rerun must be 100% ledger hits"
    );
    assert_eq!(
        warm.rows[0].outcome.best.cost.to_bits(),
        cold.rows[0].outcome.best.cost.to_bits(),
        "{scenario_id}: cached outcome diverged"
    );
    let _ = std::fs::remove_dir_all(&ledger);

    let speedup = if warm_s > 0.0 { cold_s / warm_s } else { 0.0 };
    eprintln!(
        "[perfbench] {scenario_id:<20} lab: cold {cold_s:>8.3} s, warm {warm_s:>8.5} s \
         (replay speedup {speedup:.0}x)"
    );
    format!(
        "    {{\"scenario\": \"{scenario_id}\", \"seed\": {}, \"cells\": 1, \
         \"cold_s\": {cold_s:.6}, \"warm_s\": {warm_s:.6}, \"warm_hits\": 1, \
         \"replay_speedup\": {speedup:.1}}}",
        rc.seed
    )
}

/// Thread-count scaling of a seed-portfolio run: the same 4-seed
/// portfolio under `seq` and worker pools of 1/2/4/8 threads. Outcomes
/// are asserted bit-identical across all five runs before any timing is
/// reported (the `Parallelism` determinism contract), so the section
/// can only ever show wall-clock differences. `host_cores` records
/// what the machine can actually run concurrently — speedups are
/// bounded by it, not by the pool size.
fn scaling(rc: &RunConfig) -> String {
    use soma_search::{Parallelism, Scheduler, SearchConfig};

    let net = soma_model::zoo::fig2(1);
    let hw = HardwareConfig::edge();
    let seeds: Vec<u64> = (0..4).map(|i| rc.seed + i).collect();
    let cfg = SearchConfig { effort: 0.05 * rc.effort_scale, seed: rc.seed, ..Default::default() };
    let run = |par: Parallelism| {
        let start = Instant::now();
        let outcome = Scheduler::new(&net, &hw)
            .config(cfg.clone())
            .seeds(seeds.iter().copied())
            .parallelism(par)
            .run();
        (outcome, start.elapsed().as_secs_f64())
    };

    let (baseline, seq_s) = run(Parallelism::Sequential);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // On a single-core host every pool size serializes onto one CPU, so
    // the section can only measure pool overhead — stamp that into the
    // JSON so nobody reads the numbers as speedups.
    let warning = if host_cores == 1 {
        eprintln!(
            "[perfbench] warning: host reports a single core — scaling numbers measure \
             thread-pool overhead, not speedup"
        );
        ", \"warning\": \"single-core host: runs measure pool overhead, not speedup\""
    } else {
        ""
    };
    let mut entries =
        vec![format!("{{\"threads\": \"seq\", \"elapsed_s\": {seq_s:.6}, \"speedup\": 1.00}}")];
    eprintln!(
        "[perfbench] scaling fig2@edge/b1 x4 seeds: seq {seq_s:>8.3} s (host cores: {host_cores})"
    );
    for n in [1usize, 2, 4, 8] {
        let (outcome, s) = run(Parallelism::Fixed(n));
        assert_eq!(
            outcome.best.cost.to_bits(),
            baseline.best.cost.to_bits(),
            "{n}-thread portfolio diverged from sequential"
        );
        assert_eq!(outcome.evals, baseline.evals, "{n}-thread eval count diverged");
        let speedup = if s > 0.0 { seq_s / s } else { 0.0 };
        entries.push(format!(
            "{{\"threads\": \"{n}\", \"elapsed_s\": {s:.6}, \"speedup\": {speedup:.2}}}"
        ));
        eprintln!(
            "[perfbench] scaling fig2@edge/b1 x4 seeds: {n:>3} thr {s:>8.3} s ({speedup:.2}x)"
        );
    }
    format!(
        "    {{\"scenario\": \"fig2@edge/b1\", \"seeds\": {}, \"host_cores\": {host_cores}\
         {warning}, \
         \"outcomes\": \"bit-identical across all thread counts (asserted)\", \
         \"runs\": [{}]}}",
        seeds.len(),
        entries.join(", ")
    )
}

/// Saturation of the serve daemon: an in-process daemon on a private
/// unix socket, a cold storm (distinct seeds — every request searches)
/// and then a cache storm (one request repeated — every answer comes
/// from the ledger). The `req_per_sec` ratio is what the
/// content-addressed cache buys a serving deployment on repeat traffic.
fn serve_section(rc: &RunConfig) -> String {
    use soma_bench::loadgen::{storm, StormConfig};
    use soma_serve::{start, Listen, ServerConfig};

    let dir = std::env::temp_dir().join("soma-perfbench");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let pid = std::process::id();
    let ledger = dir.join(format!("serve-{pid}.ledger"));
    let _ = std::fs::remove_dir_all(&ledger);
    let (clients, requests) = (4usize, 8usize);
    let handle = start(ServerConfig {
        max_inflight: clients,
        ..ServerConfig::new(Listen::Unix(dir.join(format!("serve-{pid}.sock"))), &ledger)
    })
    .expect("in-process serve daemon");

    let cold_cfg = StormConfig {
        listen: handle.listen().clone(),
        scenario: "fig2@edge/b1".into(),
        clients,
        requests,
        effort: 0.02 * rc.effort_scale,
        seed_base: rc.seed,
        distinct_seeds: true,
        progress: false,
    };
    let cached_cfg =
        StormConfig { requests: requests * 4, distinct_seeds: false, ..cold_cfg.clone() };
    let cold = storm(&cold_cfg).expect("cold storm");
    assert_eq!(cold.cached, 0, "cold storm must not hit the ledger");
    let cached = storm(&cached_cfg).expect("cache storm");
    assert_eq!(
        cached.cached, cached.completed,
        "cache storm must be answered entirely from the ledger"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&ledger);

    eprintln!(
        "[perfbench] serve fig2@edge/b1: cold {:>7.1} req/s, cached {:>7.1} req/s \
         (cache speedup {:.0}x)",
        cold.req_per_sec(),
        cached.req_per_sec(),
        if cold.req_per_sec() > 0.0 { cached.req_per_sec() / cold.req_per_sec() } else { 0.0 }
    );
    format!(
        "    {{\"scenario\": \"fig2@edge/b1\", \"clients\": {clients}, \"phases\": [\n\
         \x20   {},\n\x20   {}\n\x20   ]}}",
        cold.to_json("cold"),
        cached.to_json("cached")
    )
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

    // Cold-vs-warm `lab` orchestrator timings: what a same-spec replay
    // costs once the run ledger is populated.
    let mut lab_rows: Vec<String> = Vec::new();
    for scenario in ["fig2@edge/b1", "resnet50@edge/b1"] {
        if rc.selects_id(scenario) {
            lab_rows.push(lab_cold_warm(&rc, scenario));
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
    println!("  ],");
    println!("  \"lab\": [");
    println!("{}", lab_rows.join(",\n"));
    println!("  ],");
    println!("  \"scaling\": [");
    println!("{}", scaling(&rc));
    println!("  ],");
    println!("  \"serve\": [");
    println!("{}", serve_section(&rc));
    println!("  ]");
    println!("}}");
}
