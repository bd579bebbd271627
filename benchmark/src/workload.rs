//! The three workloads, untraced (end-to-end metrics) and traced
//! (per-layer metrics), with the output checks every run makes before it
//! reports a number.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use soma_serve::{Client, StatsSnapshot};
use soma_spec::ledger::cell_key;
use soma_spec::registry;

use crate::campaign::{self, Campaign, CellOutcome, Traced};
use crate::report::Report;
use crate::serve::{self, Daemon, Done, Mix};
use crate::stats::{geomean, idle_core_frac, median, reportable_percentile};
use crate::trace::Trace;
use crate::walk::{self, WalkPhases};
use crate::{vm_hwm_mb, Ctx, DEFAULT_SEED};

pub const NAMES: [&str; 3] = ["campaign-deep", "campaign-wide", "serve-mixed"];

/// Committed cell outcomes at [`DEFAULT_SEED`]:
/// `<workload> <cell> <cost bits, hex> <latency cycles>`.
const EXPECTED: &str = include_str!("../expected.txt");

/// Warm replays of each finished campaign ledger.
const WARM_REPLAYS: usize = 10;
/// Seeds a campaign run searches with ([`campaign_seeds`]).
const CAMPAIGN_SEEDS: usize = 4;
/// Minimum cold repetitions of a campaign at each of its seeds.
const MIN_ROUNDS: usize = 2;
/// Daemon launches per serve run; `setup_s` is their median.
const SETUP_LAUNCHES: usize = 15;
/// Serve batches per measurement window; every serve end-to-end figure
/// is the median over the run's windows.
const WINDOW_BATCHES: usize = 20;
/// Minimum serve windows.
const MIN_WINDOWS: usize = 3;
/// Hard stop for the measurement loop, whatever `--seconds` asks.
const MAX_MEASURE: Duration = Duration::from_secs(120);
/// Synthetic rows of earlier campaigns in every campaign's ledger.
const CAMPAIGN_HISTORY_ROWS: u64 = 20_000;
/// Greedy-walk proposals per scenario, stage 1 and stage 2.
const WALK_LFA: u64 = 100;
const WALK_DLSA: u64 = 1000;

/// Both campaigns are many cells of under a second each. Few large cells
/// made `campaign_s` swing with which thread drew which cell, and edge
/// cells at batch 2 and up are left out because their stage-2 work (set
/// by how many tensors stage 1 leaves in DRAM) changes several-fold
/// between seeds.
fn campaign_def(workload: &str) -> Campaign {
    match workload {
        // Stage 1 dominates at effort 0.3. Larger cells come first so the
        // small ones fill the threads at the end.
        "campaign-deep" => {
            let resnet =
                ["cloud/b8", "cloud/b6", "edge/b1", "cloud/b4", "cloud/b3", "cloud/b2", "cloud/b1"];
            let randwire = ["edge/b2", "edge/b1", "cloud/b4", "cloud/b2", "cloud/b1"];
            let scenarios = [("resnet50", &resnet[..]), ("randwire", &randwire[..])]
                .iter()
                .flat_map(|(net, cells)| cells.iter().map(move |c| format!("{net}@{c}")))
                .collect();
            Campaign { scenarios, effort: 0.3, max_allocator_iters: 3 }
        }
        // Stage 2 dominates at effort 0.02.
        _ => {
            let nets = [
                "resnet50",
                "resnet101",
                "inception-resnet-v1",
                "randwire",
                "gpt2-small-decode513",
            ];
            let cells = ["edge/b1", "cloud/b1", "cloud/b2", "cloud/b3", "cloud/b4"];
            let scenarios = nets
                .iter()
                .flat_map(|net| cells.iter().map(move |c| format!("{net}@{c}")))
                .collect();
            Campaign { scenarios, effort: 0.02, max_allocator_iters: 3 }
        }
    }
}

fn expected_lines(workload: &str, cells: &[CellOutcome]) -> Vec<String> {
    cells
        .iter()
        .map(|c| format!("{workload} {} {:016x} {}", c.cell, c.cost_bits, c.latency_cycles))
        .collect()
}

/// At the default seed, cell outcomes must equal the committed ones bit
/// for bit.
fn check_expected(workload: &str, seed: u64, cells: &[CellOutcome]) -> Result<(), String> {
    if seed != DEFAULT_SEED {
        return Ok(());
    }
    let want: Vec<&str> =
        EXPECTED.lines().filter(|l| l.split_whitespace().next() == Some(workload)).collect();
    let got = expected_lines(workload, cells);
    if want != got {
        return Err(format!(
            "cell outcomes at seed {DEFAULT_SEED} differ from expected.txt; this run produced:\n{}",
            got.join("\n")
        ));
    }
    Ok(())
}

fn set_quality(r: &mut Report, cells: &[CellOutcome]) {
    let costs: Vec<f64> = cells.iter().map(CellOutcome::cost).collect();
    let latencies: Vec<f64> = cells.iter().map(|c| c.latency_cycles as f64).collect();
    r.set("best_cost_geomean", geomean(&costs));
    r.set("sim_latency_geomean_cycles", geomean(&latencies));
}

fn keys_of(spec: &soma_spec::ExperimentSpec) -> Vec<String> {
    spec.cells().iter().map(|c| cell_key(c, &spec.config, &spec.seeds)).collect()
}

pub fn untraced(ctx: &Ctx) -> Result<Report, String> {
    match ctx.workload.as_str() {
        "serve-mixed" => serve_untraced(ctx),
        name => campaign_untraced(ctx, name),
    }
}

/// The campaign seeds of a run: the run seed first, then seeds drawn from
/// it. Averaging over several seeds keeps one seed's search work from
/// setting a run's figures.
fn campaign_seeds(seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xca4a_1697);
    std::iter::once(seed).chain((1..CAMPAIGN_SEEDS).map(|_| u64::from(rng.next_u32()))).collect()
}

/// Per campaign seed: its outcomes and each repetition's figures.
struct SeedReps {
    cells: Vec<CellOutcome>,
    walls: Vec<f64>,
    miss_ms: Vec<f64>,
}

fn campaign_untraced(ctx: &Ctx, name: &str) -> Result<Report, String> {
    let def = campaign_def(name);
    let specs = campaign_seeds(ctx.seed)
        .into_iter()
        .map(|s| def.spec(name, s))
        .collect::<Result<Vec<_>, _>>()?;
    let n = def.scenarios.len();
    let (mut setups, mut warm_walls, mut hit_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss_mb = Vec::new();
    let mut per_seed: Vec<Option<SeedReps>> = specs.iter().map(|_| None).collect();
    let history = ctx.work.join("history.ledger");
    campaign::add_history(&history, ctx.seed, CAMPAIGN_HISTORY_ROWS)?;
    let start = Instant::now();
    // Round-robin over the seeds. Each seed's figures are its own median,
    // so a last, partial round weighs no seed more than another.
    let mut reps = 0;
    while reps < MIN_ROUNDS * specs.len() || start.elapsed().as_secs_f64() < ctx.seconds {
        if start.elapsed() > MAX_MEASURE {
            return Err(format!("only {reps} repetitions fit the time limit"));
        }
        let (spec, slot) = (&specs[reps % specs.len()], &mut per_seed[reps % specs.len()]);
        let path = ctx.work.join(format!("rep{reps}.ledger"));
        campaign::copy_ledger(&history, &path)?;
        // Each repetition's own peak: the run-wide peak moved with how
        // the two threads' allocations happened to interleave.
        std::fs::write("/proc/self/clear_refs", "5")
            .map_err(|e| format!("resetting VmHWM: {e}"))?;
        let cold = campaign::cold(spec, &path)?;
        match slot {
            None if reps == 0 => check_expected(name, ctx.seed, &cold.cells)?,
            Some(s) if s.cells != cold.cells => {
                return Err(format!(
                    "cell outcomes at seed {} differ between repetitions",
                    spec.config.seed
                ))
            }
            _ => {}
        }
        for _ in 0..WARM_REPLAYS {
            let warm = campaign::warm(spec, &path, &cold.cells)?;
            hit_ms.push(median(&warm.hit_ms));
            warm_walls.push(warm.wall_s);
        }
        peak_rss_mb.push(vm_hwm_mb("/proc/self/status")?);
        std::fs::remove_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        setups.push(cold.setup_s);
        let s = slot.get_or_insert(SeedReps { cells: cold.cells, walls: vec![], miss_ms: vec![] });
        s.walls.push(cold.wall_s);
        s.miss_ms.push(median(&cold.miss_ms));
        reps += 1;
    }
    let seeds: Vec<SeedReps> = per_seed.into_iter().map(|s| s.expect("every seed ran")).collect();
    for (spec, s) in specs.iter().zip(&seeds) {
        eprintln!("[bench] {name} seed {}: campaign_s {:?}", spec.config.seed, s.walls);
    }

    // Per seed, the median over its repetitions; then the mean over seeds.
    let mean_of_medians = |f: fn(&SeedReps) -> &[f64]| {
        seeds.iter().map(|s| median(f(s))).sum::<f64>() / seeds.len() as f64
    };
    let campaign_s = mean_of_medians(|s| &s.walls);
    let miss_ms = mean_of_medians(|s| &s.miss_ms);
    let cells: Vec<CellOutcome> = seeds.into_iter().flat_map(|s| s.cells).collect();
    let evals: u64 = cells.iter().map(|c| c.evals).sum();
    let mut r = Report::default();
    r.median("setup_s", &setups);
    r.set("campaign_s", campaign_s);
    r.set("evals_per_s", evals as f64 / (campaign_s * specs.len() as f64));
    // Warm replays run in short bursts between cold campaigns, and host
    // speed changes from burst to burst: a median over replays flipped
    // with the share of fast bursts, so these two are means over them.
    r.set("req_per_s", (warm_walls.len() * n) as f64 / warm_walls.iter().sum::<f64>());
    set_quality(&mut r, &cells);
    // Per replay its median cell, then the mean over replays.
    r.set("hit_p50_ms", hit_ms.iter().sum::<f64>() / hit_ms.len() as f64);
    r.set("miss_p50_ms", miss_ms);
    r.median("peak_rss_mb", &peak_rss_mb);
    r.attempted = (reps * n * (1 + WARM_REPLAYS)) as u64;
    Ok(r)
}

/// The storm: seeded batches until the time is up, every answer checked.
struct Storm {
    /// Per batch: its wall time and how many answers it added to `done`.
    batches: Vec<(f64, usize)>,
    done: Vec<Done>,
    /// Daemon `VmHWM` after the first `MIN_WINDOWS` windows.
    peak_rss_mb: f64,
}

fn storm(
    ctx: &Ctx,
    daemon: &Daemon,
    clients: &mut [Client],
    hot: &serve::HotAnswers,
) -> Result<Storm, String> {
    let mut mix = Mix::new(ctx.seed);
    let (mut batches, mut done) = (Vec::new(), Vec::new());
    let mut peak_rss_mb = 0.0;
    let start = Instant::now();
    while batches.len() < MIN_WINDOWS * WINDOW_BATCHES
        || start.elapsed().as_secs_f64() < ctx.seconds
        || batches.len() % WINDOW_BATCHES != 0
    {
        if start.elapsed() > MAX_MEASURE {
            return Err("the serve storm overran its time limit".into());
        }
        let (wall, answers) = serve::run_batch(clients, &mix.batch(), done.len(), hot)?;
        batches.push((wall, answers.len()));
        done.extend(answers);
        if batches.len() == MIN_WINDOWS * WINDOW_BATCHES {
            // Every appended miss stays resident, so the daemon's peak is
            // read after a fixed request count, not after a fixed time.
            peak_rss_mb = daemon.peak_rss_mb()?;
        }
    }
    Ok(Storm { batches, done, peak_rss_mb })
}

/// Per-window serve figures; the end-to-end metrics are their medians.
#[derive(Default)]
struct Windows {
    batch_s: Vec<f64>,
    req_per_s: Vec<f64>,
    evals_per_s: Vec<f64>,
    hit_p50_ms: Vec<f64>,
    miss_p50_ms: Vec<f64>,
}

fn windows(st: &Storm) -> Result<Windows, String> {
    let mut w = Windows::default();
    let mut offset = 0;
    for chunk in st.batches.chunks(WINDOW_BATCHES) {
        let walls: Vec<f64> = chunk.iter().map(|(wall, _)| *wall).collect();
        let busy: f64 = walls.iter().sum();
        let answers: usize = chunk.iter().map(|(_, n)| n).sum();
        let done = &st.done[offset..offset + answers];
        offset += answers;
        let evals: u64 = done.iter().filter(|d| !d.cached).map(|d| d.evals).sum();
        w.batch_s.push(median(&walls));
        w.req_per_s.push(done.len() as f64 / busy);
        w.evals_per_s.push(evals as f64 / busy);
        for (cached, out) in [(true, &mut w.hit_p50_ms), (false, &mut w.miss_p50_ms)] {
            let ms: Vec<f64> =
                done.iter().filter(|d| d.cached == cached).map(|d| d.total_ms()).collect();
            let p50 = reportable_percentile(&ms, 50.0)
                .ok_or(format!("a window holds only {} samples of one class", ms.len()))?;
            out.push(p50.value);
        }
    }
    Ok(w)
}

/// One client session against a running daemon: connect, storm, ask the
/// first misses again, and reconcile the daemon's counters with the
/// clients' tallies after the storm and after the re-asks.
struct Session {
    storm: Storm,
    before: StatsSnapshot,
    end: StatsSnapshot,
    verified: u64,
    connect_ms: Vec<f64>,
}

fn session(ctx: &Ctx, daemon: &Daemon, hot: &serve::HotAnswers) -> Result<Session, String> {
    let mut connect_ms = Vec::new();
    let mut connect = || {
        let t = Instant::now();
        let c = serve::connect(&daemon.listen);
        connect_ms.push(t.elapsed().as_secs_f64() * 1e3);
        c
    };
    let mut clients = (0..serve::CONNECTIONS).map(|_| connect()).collect::<Result<Vec<_>, _>>()?;
    let mut admin = connect()?;
    let stats = |c: &mut Client| c.stats().map_err(|e| format!("stats: {e}"));
    let before = stats(&mut admin)?;
    let storm = storm(ctx, daemon, &mut clients, hot)?;
    let after = stats(&mut admin)?;
    let hits = storm.done.iter().filter(|d| d.cached).count() as u64;
    serve::reconcile(&before, &after, storm.done.len() as u64, hits)?;
    let verified = serve::verify_misses(&mut admin, &storm.done, storm.done.len())?;
    let end = stats(&mut admin)?;
    serve::reconcile(&after, &end, verified, verified)?;
    Ok(Session { storm, before, end, verified, connect_ms })
}

fn serve_untraced(ctx: &Ctx) -> Result<Report, String> {
    let paths = serve::Paths::new(&ctx.work);
    let spec = serve::hot_spec()?;
    let cold = campaign::cold(&spec, &paths.ledger)?;
    check_expected("serve-mixed", serve::HOT_SEED, &cold.cells)?;
    let hot = serve::hot_answers(&spec, &paths.ledger)?;
    campaign::add_history(&paths.ledger, ctx.seed, serve::HISTORY_ROWS)?;

    let mut setups = Vec::new();
    for _ in 1..SETUP_LAUNCHES {
        let (daemon, s) = Daemon::launch(&ctx.serve_bin, &paths.sock, &paths.ledger)?;
        setups.push(s);
        daemon.stop()?;
    }
    let (daemon, s) = Daemon::launch(&ctx.serve_bin, &paths.sock, &paths.ledger)?;
    setups.push(s);

    let sess = session(ctx, &daemon, &hot)?;
    daemon.stop()?;

    let st = &sess.storm;
    let w = windows(st)?;
    eprintln!(
        "[bench] serve-mixed: {} requests in {} batches, {} windows",
        st.done.len(),
        st.batches.len(),
        w.batch_s.len()
    );
    let mut r = Report::default();
    r.median("setup_s", &setups);
    r.median("campaign_s", &w.batch_s);
    r.median("evals_per_s", &w.evals_per_s);
    r.median("req_per_s", &w.req_per_s);
    set_quality(&mut r, &cold.cells);
    r.median("hit_p50_ms", &w.hit_p50_ms);
    r.median("miss_p50_ms", &w.miss_p50_ms);
    r.set("peak_rss_mb", st.peak_rss_mb);
    r.attempted = st.done.len() as u64 + sess.verified;
    Ok(r)
}

pub fn traced(ctx: &Ctx, host: &str) -> Result<Report, String> {
    let mut trace = Trace::new();
    let mut r = Report::default();
    let scenarios = match ctx.workload.as_str() {
        "serve-mixed" => {
            serve_traced(ctx, &mut trace, &mut r)?;
            serve::HOT.iter().map(|s| s.to_string()).collect()
        }
        name => {
            campaign_traced(ctx, name, &mut trace, &mut r)?;
            campaign_def(name).scenarios
        }
    };
    let t0 = trace.now();
    let ph = walks(&scenarios, ctx.seed)?;
    trace.push("walks", None, t0, trace.now());
    set_walk(&mut r, &ph);
    // A run that reaches this point failed nothing: any failure aborts it.
    r.set("failed_frac", crate::stats::failed_frac(0, r.attempted.max(1)));
    let path = ctx.trace_dir.join(format!("{}-seed{}.jsonl", ctx.workload, ctx.seed));
    trace.write(&path, &format!("{{\"host\": {host}}}")).map_err(|e| format!("trace: {e}"))?;
    eprintln!("[bench] {} spans written to {}", trace.spans().len(), path.display());
    Ok(r)
}

/// Runs the untraced campaign before and after the traced executor, each
/// on its own fresh ledger (a copy of `history` when one is given); all
/// three must agree on every outcome and every ledger byte. Returns the
/// first untraced run, the mean untraced wall time and the traced run.
fn cold_and_traced(
    name: &str,
    ctx: &Ctx,
    spec: &soma_spec::ExperimentSpec,
    history: Option<&std::path::Path>,
    traced_path: &std::path::Path,
    trace: &mut Trace,
) -> Result<(campaign::ColdRun, f64, Traced), String> {
    let paths = [ctx.work.join("untraced-0.ledger"), ctx.work.join("untraced-1.ledger")];
    if let Some(history) = history {
        for path in paths.iter().map(|p| p.as_path()).chain([traced_path]) {
            campaign::copy_ledger(history, path)?;
        }
    }
    let cold = campaign::cold(spec, &paths[0])?;
    check_expected(name, spec.seeds[0], &cold.cells)?;
    let t = campaign::traced(spec, traced_path, trace)?;
    let again = campaign::cold(spec, &paths[1])?;
    if t.cells != cold.cells || again.cells != cold.cells {
        return Err("the traced and untraced campaigns found different outcomes".into());
    }
    let bytes = campaign::ledger_files(traced_path)?;
    for path in &paths {
        if campaign::ledger_files(path)? != bytes {
            return Err("the traced campaign wrote different ledger bytes".into());
        }
    }
    let untraced_s = (cold.wall_s + again.wall_s) / 2.0;
    Ok((cold, untraced_s, t))
}

fn set_lab(r: &mut Report, trace: &Trace, t: &Traced, untraced_wall_s: f64) {
    let n = t.cells.len();
    let cell_s: Vec<f64> = trace.named("cell").map(|s| s.secs()).collect();
    r.set("lab.cells", n as f64);
    r.set("lab.searched", t.appends as f64);
    r.set("lab.failed", (n - t.appends) as f64);
    r.layer_rank("lab.cell_p50_s", &cell_s, 50.0);
    r.set("lab.cell_max_s", cell_s.iter().copied().fold(0.0, f64::max));
    let search_s = trace.total_s("search");
    r.set("lab.idle_core_frac", idle_core_frac(search_s, campaign::THREADS, t.wall_s));

    let evals: u64 = t.cells.iter().map(|c| c.evals).sum();
    let rejected: u64 = t.cells.iter().map(|c| c.rejected).sum();
    r.set("search.rounds", t.cells.iter().map(|c| c.rounds).sum::<usize>() as f64);
    r.set("search.evals", evals as f64);
    r.set("search.rejected", rejected as f64);
    r.set("search.eval_ok_ratio", evals as f64 / (evals + rejected).max(1) as f64);
    r.set("search.session_overhead_s", trace.self_total_s("search"));
    for (stage, self_name, share, eps) in [
        ("lfa", "lfa.self_s", "lfa.share", "lfa.evals_per_s"),
        ("dlsa", "dlsa.self_s", "dlsa.share", "dlsa.evals_per_s"),
    ] {
        let self_s = trace.self_total_s(&format!("stage.{stage}"));
        let stage_evals = t.stage_evals.get(stage).copied().unwrap_or(0);
        r.set(self_name, self_s);
        r.set(share, self_s / search_s);
        r.set(eps, if self_s > 0.0 { stage_evals as f64 / self_s } else { 0.0 });
    }
    r.set("ledger.append_ms", trace.total_s("ledger.append") * 1e3 / t.appends.max(1) as f64);
    r.set("ledger.sync_index_ms", trace.total_s("ledger.sync_index") * 1e3);
    r.set("trace.overhead_frac", t.wall_s / untraced_wall_s - 1.0);
}

fn set_ledger(r: &mut Report, path: &std::path::Path, keys: &[String]) -> Result<(), String> {
    let l = campaign::ledger_layer(path, keys)?;
    r.set("ledger.load_ms", l.load_ms);
    r.set("ledger.lookup_us", l.lookup_us);
    r.set("ledger.decode_us", l.decode_us);
    r.set("ledger.rows", l.rows as f64);
    r.set("ledger.decodes", l.decodes as f64);
    r.set("ledger.bytes", l.bytes as f64);
    Ok(())
}

fn campaign_traced(ctx: &Ctx, name: &str, trace: &mut Trace, r: &mut Report) -> Result<(), String> {
    let spec = campaign_def(name).spec(name, ctx.seed)?;
    let history = ctx.work.join("history.ledger");
    campaign::add_history(&history, ctx.seed, CAMPAIGN_HISTORY_ROWS)?;
    let path = ctx.work.join("traced.ledger");
    let (cold, untraced_s, t) = cold_and_traced(name, ctx, &spec, Some(&history), &path, trace)?;
    let warm = campaign::warm(&spec, &path, &cold.cells)?;
    set_lab(r, trace, &t, untraced_s);
    check_split(name, r)?;
    r.set("lab.hits", (warm.hit_ms.len()) as f64);
    set_ledger(r, &path, &keys_of(&spec))?;
    r.unexercised("serve.");
    r.attempted = 3 * cold.cells.len() as u64;
    Ok(())
}

/// The stage split each campaign was chosen for: stage 1 takes more
/// search time than stage 2 on `campaign-deep`, and less on
/// `campaign-wide`.
fn check_split(name: &str, r: &Report) -> Result<(), String> {
    let (lfa, dlsa) = (r.get("lfa.share"), r.get("dlsa.share"));
    let (lfa, dlsa) = lfa.zip(dlsa).ok_or("stage shares were not measured")?;
    if (lfa > dlsa) != (name == "campaign-deep") {
        return Err(format!(
            "{name}: lfa.share {lfa:.3} against dlsa.share {dlsa:.3}, \
             the reverse of the split the workload is chosen for"
        ));
    }
    Ok(())
}

fn serve_traced(ctx: &Ctx, trace: &mut Trace, r: &mut Report) -> Result<(), String> {
    let paths = serve::Paths::new(&ctx.work);
    let spec = serve::hot_spec()?;
    let (cold, untraced_s, t) =
        cold_and_traced("serve-mixed", ctx, &spec, None, &paths.ledger, trace)?;
    set_lab(r, trace, &t, untraced_s);
    let hot = serve::hot_answers(&spec, &paths.ledger)?;
    let t0 = trace.now();
    campaign::add_history(&paths.ledger, ctx.seed, serve::HISTORY_ROWS)?;
    trace.push("ledger.history", None, t0, trace.now());

    let t0 = trace.now();
    let (daemon, _) = Daemon::launch(&ctx.serve_bin, &paths.sock, &paths.ledger)?;
    trace.push("serve.launch", None, t0, trace.now());
    let sess = session(ctx, &daemon, &hot)?;
    daemon.stop()?;
    r.set("serve.connect_ms", median(&sess.connect_ms));
    let (st, before, end) = (&sess.storm, &sess.before, &sess.end);

    for d in &st.done {
        let start = trace.at(d.start);
        let accepted = start + (d.accept_ms * 1e6) as u64;
        let finished = start + (d.total_ms() * 1e6) as u64;
        let req = trace.push("request", None, start, finished);
        trace.push("serve.accept", Some(req), start, accepted);
        trace.push("serve.result", Some(req), accepted, finished);
    }
    let (hits, misses): (Vec<&Done>, Vec<&Done>) = st.done.iter().partition(|d| d.cached);
    for (class, ds) in [("hit", &hits), ("miss", &misses)] {
        let accept: Vec<f64> = ds.iter().map(|d| d.accept_ms).collect();
        let result: Vec<f64> = ds.iter().map(|d| d.result_ms).collect();
        let total: Vec<f64> = ds.iter().map(|d| d.total_ms()).collect();
        let name = |m: &str| format!("serve.{class}_{m}");
        r.layer_percentile(name("accept_p50_ms"), &accept, 50.0);
        r.layer_percentile(name("accept_p99_ms"), &accept, 99.0);
        r.layer_percentile(name("result_p50_ms"), &result, 50.0);
        r.layer_percentile(name("result_p99_ms"), &result, 99.0);
        r.layer_percentile(name("p99_ms"), &total, 99.0);
    }
    for (name, b, a) in [
        ("served", before.served, end.served),
        ("cache_hits", before.cache_hits, end.cache_hits),
        ("rejected", before.rejected, end.rejected),
        ("cancelled", before.cancelled, end.cancelled),
        ("panics", before.panics, end.panics),
        ("quarantined", before.quarantined, end.quarantined),
    ] {
        r.set(format!("serve.{name}_before"), b as f64);
        r.set(format!("serve.{name}_after"), a as f64);
    }
    let warm = campaign::warm(&spec, &paths.ledger, &cold.cells)?;
    r.set("lab.hits", warm.hit_ms.len() as f64);
    set_ledger(r, &paths.ledger, &keys_of(&spec))?;
    r.attempted = st.done.len() as u64 + sess.verified;
    Ok(())
}

/// Seeded greedy stage-1 and stage-2 walks over the workload's scenarios.
fn walks(scenarios: &[String], seed: u64) -> Result<WalkPhases, String> {
    let mut ph = WalkPhases::default();
    for id in scenarios {
        let sc = registry::lookup(id).ok_or(format!("unknown scenario {id}"))?;
        let (net, hw) = (sc.network(), sc.hardware());
        walk::stage1(&net, &hw, seed, WALK_LFA, &mut ph)?;
        walk::stage2(&net, &hw, seed, WALK_DLSA, &mut ph)?;
    }
    Ok(ph)
}

fn set_walk(r: &mut Report, ph: &WalkPhases) {
    r.set("lfa.mutate_ns", ph.mutate.mean_ns());
    r.set("core.parse_lfa_ns", ph.parse.mean_ns());
    r.set("sim.compile_ns", ph.compile.mean_ns());
    r.set("sim.simulate_cost_ns", ph.simulate.mean_ns());
    r.set("core.peak_buffer_ns", ph.peak.mean_ns());
    r.set("dlsa.propose_ns", ph.propose.mean_ns());
    r.set("dlsa.simulate_cost_ns", ph.dlsa_simulate.mean_ns());
    r.set("dlsa.undo_ns", ph.undo.mean_ns());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_seeds_start_at_the_run_seed_and_repeat() {
        let seeds = campaign_seeds(7);
        assert_eq!(seeds.len(), CAMPAIGN_SEEDS);
        assert_eq!(seeds[0], 7);
        assert_eq!(seeds, campaign_seeds(7));
        assert_ne!(seeds[1..], campaign_seeds(8)[1..]);
        let mut distinct = seeds.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), CAMPAIGN_SEEDS);
    }
}
