//! One-shot client for the serve daemon, as the CI smoke gates drive it:
//! submit one request, or print the daemon's counters.
//!
//! ```sh
//! # One request, retrying the connect while the daemon boots;
//! # `--expect-cached` fails (exit 1) unless the answer came from the
//! # ledger.
//! cargo run --release -p soma-bench --bin loadgen -- \
//!     --connect unix:/tmp/soma.sock --expect-cached
//!
//! # The daemon's `stats` frame, as one JSON line on stdout.
//! cargo run --release -p soma-bench --bin loadgen -- --connect unix:/tmp/soma.sock --stats
//! ```
//!
//! Throughput and latency of the daemon under load are measured by
//! `benchmark/run.sh --workload serve-mixed`.

use std::process::ExitCode;
use std::time::Duration;

use soma_serve::protocol::to_line;
use soma_serve::{Listen, Response, RetryPolicy, SubmitRequest, Target};

fn usage() -> ExitCode {
    eprintln!(
        "usage: loadgen --connect <unix:PATH|tcp:HOST:PORT> [--scenario <id>] [--effort F] \
         [--seed N] [--expect-cached] [--retry-secs N] [--stats] [--version]"
    );
    ExitCode::from(2)
}

struct Flags {
    connect: Listen,
    scenario: String,
    effort: f64,
    seed: u64,
    expect_cached: bool,
    retry_secs: u64,
    stats: bool,
}

fn parse_flags() -> Result<Flags, ExitCode> {
    let mut connect = None;
    let mut scenario = "fig2@edge/b1".to_string();
    let (mut effort, mut seed, mut retry_secs) = (0.02, 2025, 10);
    let (mut expect_cached, mut stats) = (false, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => match args.next().map(|v| v.parse()) {
                Some(Ok(l)) => connect = Some(l),
                Some(Err(e)) => {
                    eprintln!("loadgen: --connect: {e}");
                    return Err(ExitCode::from(2));
                }
                None => return Err(usage()),
            },
            "--scenario" => match args.next() {
                Some(s) => scenario = s,
                None => return Err(usage()),
            },
            "--effort" => match args.next().map(|v| v.parse()) {
                Some(Ok(f)) => effort = f,
                _ => return Err(usage()),
            },
            "--seed" => match args.next().map(|v| v.parse()) {
                Some(Ok(n)) => seed = n,
                _ => return Err(usage()),
            },
            "--retry-secs" => match args.next().map(|v| v.parse()) {
                Some(Ok(n)) => retry_secs = n,
                _ => return Err(usage()),
            },
            "--expect-cached" => expect_cached = true,
            "--stats" => stats = true,
            _ => return Err(usage()),
        }
    }
    let Some(connect) = connect else { return Err(usage()) };
    Ok(Flags { connect, scenario, effort, seed, expect_cached, retry_secs, stats })
}

/// The retry schedule for both modes: attempts sized so the worst-case
/// backoff sum roughly matches `--retry-secs`, jitter seeded from
/// `--seed` so a smoke run replays bit-identically.
fn retry_policy(flags: &Flags) -> RetryPolicy {
    RetryPolicy {
        attempts: u32::try_from(flags.retry_secs).unwrap_or(u32::MAX).max(1).saturating_add(2),
        base_delay: Duration::from_millis(200),
        max_delay: Duration::from_secs(1),
        jitter_seed: flags.seed,
    }
}

/// Submits one request through the shared [`RetryPolicy`] (which rides
/// out daemon boot, restarts and queue-full pushback), and optionally
/// requires the ledger-cached answer.
fn submit(flags: &Flags) -> ExitCode {
    let req = SubmitRequest {
        id: "once".into(),
        target: Target::Scenario(flags.scenario.clone()),
        seeds: vec![flags.seed],
        effort: Some(flags.effort),
        progress: false,
        deadline_ms: None,
    };
    let sub = match retry_policy(flags).submit(&flags.connect, &req) {
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
    // The chaos gate parses the hash out of this line: keep its shape.
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

/// Prints the daemon's `stats` frame as its wire line on stdout — the
/// CI chaos gate greps the failure counters (`"quarantined":1`, ...)
/// from this output.
fn stats(flags: &Flags) -> ExitCode {
    let mut client = match retry_policy(flags).connect(&flags.connect) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("loadgen: cannot connect to {}: {e}", flags.connect);
            return ExitCode::FAILURE;
        }
    };
    match client.stats() {
        Ok(s) => {
            println!("{}", to_line(&Response::Stats(s).to_json()));
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
    match parse_flags() {
        Ok(flags) if flags.stats => stats(&flags),
        Ok(flags) => submit(&flags),
        Err(code) => code,
    }
}
