//! Load generator for the serve daemon: either a saturation benchmark
//! (cold request storm, then a cache storm against the same daemon) or
//! a one-shot CI client.
//!
//! ```sh
//! # Self-contained benchmark: in-process daemon, cold + cached storms,
//! # JSON report on stdout.
//! cargo run --release -p soma-bench --bin loadgen
//!
//! # Storm an external daemon instead.
//! cargo run --release -p soma-bench --bin loadgen -- --connect unix:/tmp/soma.sock
//!
//! # CI smoke client: one request, retrying the connect while the
//! # daemon boots; `--expect-cached` fails (exit 1) unless the answer
//! # came from the ledger.
//! cargo run --release -p soma-bench --bin loadgen -- \
//!     --once --connect unix:/tmp/soma.sock --expect-cached
//! ```
//!
//! The storm phases share one scenario: the cold phase gives every
//! request a distinct seed (every request searches), the cached phase
//! repeats one request verbatim (everything after the first answer is
//! a ledger hit). The report's `req_per_sec` ratio between the two is
//! the saturation headline recorded in `BENCH_search.json`'s `serve`
//! section.

use std::process::ExitCode;
use std::time::Duration;

use soma_bench::loadgen::{storm, StormConfig};
use soma_serve::{start, Listen, RetryPolicy, ServerConfig, SubmitRequest, Target};

fn usage() -> ExitCode {
    eprintln!(
        "usage: loadgen [--connect <unix:PATH|tcp:HOST:PORT>] [--scenario <id>] \
         [--requests N] [--clients N] [--effort F] [--seed N] \
         [--once [--expect-cached] [--retry-secs N]] [--stats] [--version]"
    );
    ExitCode::from(2)
}

struct Flags {
    connect: Option<Listen>,
    scenario: String,
    requests: usize,
    clients: usize,
    effort: f64,
    seed: u64,
    once: bool,
    expect_cached: bool,
    retry_secs: u64,
    stats: bool,
}

fn parse_flags() -> Result<Flags, ExitCode> {
    let mut flags = Flags {
        connect: None,
        scenario: "fig2@edge/b1".into(),
        requests: 24,
        clients: 6,
        effort: 0.02,
        seed: 2025,
        once: false,
        expect_cached: false,
        retry_secs: 10,
        stats: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => match args.next().map(|v| v.parse()) {
                Some(Ok(l)) => flags.connect = Some(l),
                Some(Err(e)) => {
                    eprintln!("loadgen: --connect: {e}");
                    return Err(ExitCode::from(2));
                }
                None => return Err(usage()),
            },
            "--scenario" => match args.next() {
                Some(s) => flags.scenario = s,
                None => return Err(usage()),
            },
            "--requests" => match args.next().map(|v| v.parse()) {
                Some(Ok(n)) => flags.requests = n,
                _ => return Err(usage()),
            },
            "--clients" => match args.next().map(|v| v.parse()) {
                Some(Ok(n)) => flags.clients = n,
                _ => return Err(usage()),
            },
            "--effort" => match args.next().map(|v| v.parse()) {
                Some(Ok(f)) => flags.effort = f,
                _ => return Err(usage()),
            },
            "--seed" => match args.next().map(|v| v.parse()) {
                Some(Ok(n)) => flags.seed = n,
                _ => return Err(usage()),
            },
            "--retry-secs" => match args.next().map(|v| v.parse()) {
                Some(Ok(n)) => flags.retry_secs = n,
                _ => return Err(usage()),
            },
            "--once" => flags.once = true,
            "--expect-cached" => flags.expect_cached = true,
            "--stats" => flags.stats = true,
            _ => return Err(usage()),
        }
    }
    Ok(flags)
}

/// The shared retry schedule for the CI-client modes: attempts sized so
/// the worst-case backoff sum roughly matches `--retry-secs`, jitter
/// seeded from `--seed` so a smoke run replays bit-identically.
fn retry_policy(flags: &Flags) -> RetryPolicy {
    RetryPolicy {
        attempts: u32::try_from(flags.retry_secs).unwrap_or(u32::MAX).max(1).saturating_add(2),
        base_delay: Duration::from_millis(200),
        max_delay: Duration::from_secs(1),
        jitter_seed: flags.seed,
    }
}

/// One-shot CI client: submit through the shared [`RetryPolicy`] (which
/// rides out daemon boot, restarts and queue-full pushback), and
/// optionally require the ledger-cached answer.
fn once(flags: &Flags) -> ExitCode {
    let Some(listen) = &flags.connect else {
        eprintln!("loadgen: --once needs --connect");
        return ExitCode::from(2);
    };
    let req = SubmitRequest {
        id: "once".into(),
        target: Target::Scenario(flags.scenario.clone()),
        seeds: vec![flags.seed],
        effort: Some(flags.effort),
        progress: false,
        deadline_ms: None,
    };
    let sub = match retry_policy(flags).submit(listen, &req) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("loadgen: submit failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some((reason, detail)) = &sub.rejection {
        eprintln!("loadgen: rejected ({}): {detail}", reason.as_str());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "loadgen: {} answered (hash {}, cached: {})",
        flags.scenario,
        sub.hash.as_deref().unwrap_or("?"),
        sub.cached
    );
    if flags.expect_cached && !sub.cached {
        eprintln!("loadgen: --expect-cached: the answer was searched, not served from the ledger");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Prints the daemon's counters as one JSON line on stdout — the CI
/// chaos gate asserts the failure counters (`panics`, `cancelled`,
/// `quarantined`, `append_failed`, `decode_failed`) from this output.
fn stats(flags: &Flags) -> ExitCode {
    let Some(listen) = &flags.connect else {
        eprintln!("loadgen: --stats needs --connect");
        return ExitCode::from(2);
    };
    let mut client = match retry_policy(flags).connect(listen) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("loadgen: cannot connect to {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match client.stats() {
        Ok(s) => {
            // Compact, no spaces: the same shape as the wire frame, so
            // shell gates can grep for `"quarantined":1` verbatim.
            // `uptime_ms` goes last — never between the grepped fields.
            println!(
                "{{\"inflight\":{},\"served\":{},\"cache_hits\":{},\"rejected\":{},\
                 \"ledger_rows\":{},\"cancelled\":{},\"panics\":{},\"quarantined\":{},\
                 \"append_failed\":{},\"decode_failed\":{},\"uptime_ms\":{}}}",
                s.inflight,
                s.served,
                s.cache_hits,
                s.rejected,
                s.ledger_rows,
                s.cancelled,
                s.panics,
                s.quarantined,
                s.append_failed,
                s.decode_failed,
                s.uptime_ms
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("loadgen: stats failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--version") {
        println!("{}", soma_bench::version_line("loadgen"));
        return ExitCode::SUCCESS;
    }
    let flags = match parse_flags() {
        Ok(f) => f,
        Err(code) => return code,
    };
    if flags.stats {
        return stats(&flags);
    }
    if flags.once {
        return once(&flags);
    }

    // Benchmark mode: aim at an external daemon, or spin a private
    // in-process one on a unix socket with a fresh ledger.
    let mut handle = None;
    let listen = match &flags.connect {
        Some(l) => l.clone(),
        None => {
            let dir = std::env::temp_dir().join("soma-loadgen");
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("loadgen: {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
            let pid = std::process::id();
            let ledger = dir.join(format!("{pid}.ledger"));
            let _ = std::fs::remove_dir_all(&ledger);
            let config = ServerConfig {
                max_inflight: flags.clients.max(1),
                ..ServerConfig::new(Listen::Unix(dir.join(format!("{pid}.sock"))), &ledger)
            };
            match start(config) {
                Ok(h) => {
                    let l = h.listen().clone();
                    handle = Some(h);
                    l
                }
                Err(e) => {
                    eprintln!("loadgen: cannot start in-process daemon: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let cold_cfg = StormConfig {
        listen: listen.clone(),
        scenario: flags.scenario.clone(),
        clients: flags.clients,
        requests: flags.requests,
        effort: flags.effort,
        seed_base: flags.seed,
        distinct_seeds: true,
        progress: false,
    };
    // The cache storm repeats one seed the cold storm already answered,
    // so every one of its requests is a ledger hit.
    let cached_cfg = StormConfig { distinct_seeds: false, ..cold_cfg.clone() };

    eprintln!(
        "[loadgen] {} on {listen}: {} request(s) x {} client(s), effort {}",
        flags.scenario, flags.requests, flags.clients, flags.effort
    );
    let report = |phase: &str, cfg: &StormConfig| match storm(cfg) {
        Ok(r) => {
            eprintln!(
                "[loadgen] {phase:<6} {:>7.1} req/s  p50 {:>9.3} ms  p99 {:>9.3} ms  \
                 ({} completed, {} cached, {} rejected)",
                r.req_per_sec(),
                r.percentile_ms(50.0),
                r.percentile_ms(99.0),
                r.completed,
                r.cached,
                r.rejected
            );
            Ok(r)
        }
        Err(e) => {
            eprintln!("loadgen: {phase} storm failed: {e}");
            Err(ExitCode::FAILURE)
        }
    };
    let cold = match report("cold", &cold_cfg) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let cached = match report("cached", &cached_cfg) {
        Ok(r) => r,
        Err(code) => return code,
    };

    println!("{{");
    println!("  \"bench\": \"serve_saturation\",");
    println!(
        "  \"config\": {{\"scenario\": \"{}\", \"clients\": {}, \"requests\": {}, \
         \"effort\": {}, \"listen\": \"{listen}\"}},",
        flags.scenario, flags.clients, flags.requests, flags.effort
    );
    println!("  \"phases\": [");
    println!("    {},", cold.to_json("cold"));
    println!("    {}", cached.to_json("cached"));
    println!("  ]");
    println!("}}");

    if let Some(h) = handle.take() {
        h.shutdown();
    }
    ExitCode::SUCCESS
}
