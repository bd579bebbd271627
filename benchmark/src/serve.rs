//! The `serve-mixed` workload: the real `serve` binary on a binary
//! `.ledger` preloaded with synthetic rows and a hot set of real cells,
//! driven by two closed-loop client connections with a seeded mix of
//! cache hits and fresh-seed misses.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soma_search::{outcome_to_bytes, SearchConfig};
use soma_serve::{Client, Listen, Request, Response, StatsSnapshot, SubmitRequest, Target};
use soma_spec::ledger::{cell_key, Ledger};

use crate::campaign::Campaign;

/// Hot set: registry cells searched before the daemon starts.
pub const HOT: [&str; 5] =
    ["resnet50@edge/b1", "fig2@edge/b1", "fig4@edge/b1", "fig2@edge/b4", "fig4@edge/b4"];
/// Miss targets: each miss asks one of these with a seed never used before.
const MISS: [&str; 2] = ["fig2@edge/b1", "fig4@edge/b1"];
/// Effort of every request (hot cells are searched at the same effort).
const EFFORT: f64 = 0.02;
/// One miss per this many requests, on average.
const MISS_ONE_IN: u32 = 4;
/// Synthetic rows preloaded beside the hot set.
pub const HISTORY_ROWS: u64 = 50_000;
/// Requests per batch, split evenly over the two connections.
pub const BATCH: usize = 64;
pub const CONNECTIONS: usize = 2;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// The hot-set campaign. Its configuration is the daemon's
/// (`SearchConfig::default()` with the request's effort), so the lab's
/// ledger keys are exactly the keys the daemon computes for the same
/// requests.
pub fn hot_campaign() -> Campaign {
    Campaign {
        scenarios: HOT.iter().map(|s| s.to_string()).collect(),
        effort: EFFORT,
        max_allocator_iters: SearchConfig::default().max_allocator_iters,
    }
}

/// Seed of the hot cells, the same at every run seed: a hit's payload, and
/// so its cost, does not change with the run seed. The run seed sets the
/// request mix and the misses.
pub const HOT_SEED: u64 = crate::DEFAULT_SEED;

pub fn hot_spec() -> Result<soma_spec::ExperimentSpec, String> {
    let mut spec = hot_campaign().spec("serve-hot", HOT_SEED)?;
    spec.config.seed = SearchConfig::default().seed;
    Ok(spec)
}

/// Hot ledger keys, each with the encoded cold answer it must be served
/// with.
pub type HotAnswers = HashMap<String, Vec<u8>>;

pub fn hot_answers(spec: &soma_spec::ExperimentSpec, ledger: &Path) -> Result<HotAnswers, String> {
    let led = Ledger::load_readonly(ledger).map_err(|e| format!("hot ledger: {e}"))?;
    let mut out = HashMap::new();
    for cell in spec.cells() {
        let key = cell_key(&cell, &spec.config, &spec.seeds);
        let row = led.lookup(&key).ok_or(format!("{}: hot cell missing", cell.id))?;
        let outcome = row.outcome().ok_or(format!("{}: hot row does not decode", cell.id))?;
        out.insert(key, outcome_to_bytes(outcome));
    }
    Ok(out)
}

/// A running `serve` process. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Option<Child>,
    pub listen: Listen,
}

impl Daemon {
    /// Launches the daemon and waits for its first `pong`; returns it with
    /// the launch-to-pong seconds.
    pub fn launch(bin: &Path, sock: &Path, ledger: &Path) -> Result<(Self, f64), String> {
        let listen = Listen::Unix(sock.to_path_buf());
        let t0 = Instant::now();
        let child = Command::new(bin)
            .arg("--listen")
            .arg(listen.to_string())
            .arg("--ledger")
            .arg(ledger)
            .args(["--max-inflight", "4"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Self { child: Some(child), listen };
        loop {
            if let Ok(mut c) = Client::connect(&daemon.listen) {
                if c.ping().is_ok() {
                    return Ok((daemon, t0.elapsed().as_secs_f64()));
                }
            }
            let child = daemon.child.as_mut().expect("running");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("serve exited during start-up: {status}"));
            }
            if t0.elapsed() > Duration::from_secs(60) {
                return Err("serve did not answer ping within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident set (`VmHWM`) of the daemon process, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().expect("running").id();
        crate::vm_hwm_mb(&format!("/proc/{pid}/status"))
    }

    /// Graceful stop: SIGTERM, then wait for the drain.
    pub fn stop(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("running");
        let term = Command::new("kill").args(["-TERM", &child.id().to_string()]).status();
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() && term.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("serve stopped with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("serve did not drain within 20 s".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

pub fn connect(listen: &Listen) -> Result<Client, String> {
    let mut c = Client::connect(listen).map_err(|e| format!("connect: {e}"))?;
    c.set_timeout(Some(CLIENT_TIMEOUT)).map_err(|e| format!("connect: {e}"))?;
    Ok(c)
}

/// One request of the seeded mix.
#[derive(Debug, Clone)]
pub struct Req {
    pub scenario: String,
    pub seed: u64,
    pub hot: bool,
}

/// The seeded request stream: about one miss in [`MISS_ONE_IN`], each
/// with a seed no earlier request used; hits pick a hot cell uniformly.
pub struct Mix {
    rng: StdRng,
    run_seed: u64,
    fresh: u64,
}

impl Mix {
    pub fn new(seed: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed ^ 0x5e5e_5e5e), run_seed: seed, fresh: 0 }
    }

    pub fn batch(&mut self) -> Vec<Req> {
        (0..BATCH)
            .map(|_| {
                if self.rng.gen_range(0..MISS_ONE_IN) == 0 {
                    self.fresh += 1;
                    let scenario = MISS[self.rng.gen_range(0..MISS.len())].to_string();
                    // High half from the run seed, low half a counter from
                    // 2: never equal to the hot seed or an earlier miss.
                    Req { scenario, seed: (self.run_seed << 32) | (self.fresh + 1), hot: false }
                } else {
                    let scenario = HOT[self.rng.gen_range(0..HOT.len())].to_string();
                    Req { scenario, seed: HOT_SEED, hot: true }
                }
            })
            .collect()
    }
}

/// One answered request.
pub struct Done {
    pub req: Req,
    pub start: Instant,
    pub hash: String,
    pub cached: bool,
    pub accept_ms: f64,
    pub result_ms: f64,
    /// Evaluations of the search behind the answer.
    pub evals: u64,
    /// The answer in the binary outcome codec; kept for misses only, which
    /// are asked again after the storm.
    pub bytes: Vec<u8>,
}

impl Done {
    pub fn total_ms(&self) -> f64 {
        self.accept_ms + self.result_ms
    }
}

/// Submits one request and times submit → `accepted` → `result`.
pub fn request(client: &mut Client, id: usize, req: &Req) -> Result<Done, String> {
    let submit = SubmitRequest {
        id: id.to_string(),
        target: Target::Scenario(req.scenario.clone()),
        seeds: vec![req.seed],
        effort: Some(EFFORT),
        progress: false,
        deadline_ms: None,
    };
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{} {what}: {e}", req.scenario);
    let t0 = Instant::now();
    client.send(&Request::Submit(submit)).map_err(|e| fail("submit", &e))?;
    let (hash, cached) = match client.recv().map_err(|e| fail("accept", &e))? {
        Response::Accepted { hash, cached, .. } => (hash, cached),
        other => return Err(format!("{}: expected accepted, got {other:?}", req.scenario)),
    };
    let t1 = Instant::now();
    let outcome = match client.recv().map_err(|e| fail("result", &e))? {
        Response::Result { outcome, hash: h, cached: c, .. } if h == hash && c == cached => {
            *outcome
        }
        other => return Err(format!("{}: expected result, got {other:?}", req.scenario)),
    };
    let t2 = Instant::now();
    Ok(Done {
        req: req.clone(),
        start: t0,
        hash,
        cached,
        accept_ms: (t1 - t0).as_secs_f64() * 1e3,
        result_ms: (t2 - t1).as_secs_f64() * 1e3,
        evals: outcome.evals,
        bytes: outcome_to_bytes(&outcome),
    })
}

/// Runs one batch over the connections (request `i` goes to connection
/// `i % CONNECTIONS`, each a closed loop) and checks every answer: hot
/// requests must be cache hits bit-identical to the cold answer, misses
/// must be fresh searches. Returns the batch wall time and the answers.
pub fn run_batch(
    clients: &mut [Client],
    reqs: &[Req],
    first_id: usize,
    hot: &HotAnswers,
) -> Result<(f64, Vec<Done>), String> {
    let t0 = Instant::now();
    let n = clients.len();
    let results: Vec<Result<Vec<Done>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(k, client)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    for (i, req) in reqs.iter().enumerate().skip(k).step_by(n) {
                        let mut done = request(client, first_id + i, req)?;
                        check_answer(&done, hot)?;
                        if done.cached {
                            done.bytes = Vec::new();
                        }
                        out.push(done);
                    }
                    Ok(out)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok((wall, all))
}

fn check_answer(done: &Done, hot: &HotAnswers) -> Result<(), String> {
    let what = format!("{} seed {}", done.req.scenario, done.req.seed);
    if done.req.hot != done.cached {
        return Err(format!("{what}: cached={} but hot={}", done.cached, done.req.hot));
    }
    if done.req.hot {
        let want = hot.get(&done.hash).ok_or(format!("{what}: unknown hot key {}", done.hash))?;
        if done.bytes != *want {
            return Err(format!("{what}: cached answer differs from the cold answer"));
        }
    }
    Ok(())
}

/// Misses asked again after the storm (the first ones, in request order).
const VERIFY_MISSES: usize = 500;

/// Asks the first [`VERIFY_MISSES`] misses again: each must now come from
/// the cache, bit-identical to its cold answer. Returns how many were
/// asked.
pub fn verify_misses(client: &mut Client, done: &[Done], first_id: usize) -> Result<u64, String> {
    let mut asked = 0;
    for d in done.iter().filter(|d| !d.cached).take(VERIFY_MISSES) {
        let again = request(client, first_id + asked, &d.req)?;
        if !again.cached || again.hash != d.hash {
            return Err(format!(
                "{} seed {}: repeat was not a cache hit",
                d.req.scenario, d.req.seed
            ));
        }
        if again.bytes != d.bytes {
            return Err(format!(
                "{} seed {}: cached answer differs from the cold answer",
                d.req.scenario, d.req.seed
            ));
        }
        asked += 1;
    }
    Ok(asked as u64)
}

/// Checks the daemon's counters against the client's tallies for the
/// interval between two `stats` snapshots.
pub fn reconcile(
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    completed: u64,
    hits: u64,
) -> Result<(), String> {
    let served = after.served - before.served;
    let cache_hits = after.cache_hits - before.cache_hits;
    let errors = [
        ("rejected", after.rejected - before.rejected),
        ("cancelled", after.cancelled - before.cancelled),
        ("panics", after.panics - before.panics),
    ];
    if served != completed || cache_hits != hits {
        return Err(format!(
            "daemon counted {served} served / {cache_hits} cache hits, \
             clients completed {completed} / {hits} hits"
        ));
    }
    if let Some((name, n)) = errors.iter().find(|(_, n)| *n > 0) {
        return Err(format!("daemon counted {n} {name} request(s)"));
    }
    Ok(())
}

/// Paths of the serve workload inside the run's work directory.
pub struct Paths {
    pub ledger: PathBuf,
    pub sock: PathBuf,
}

impl Paths {
    pub fn new(work: &Path) -> Self {
        Self { ledger: work.join("serve.ledger"), sock: work.join("serve.sock") }
    }
}
