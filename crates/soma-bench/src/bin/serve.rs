//! The scheduling-as-a-service daemon (`soma-serve` behind a binary):
//! listens on TCP or a unix socket, answers line-delimited JSON
//! scheduling requests, and keeps every fresh result in the same
//! content-addressed ledger the `lab` orchestrator uses — so repeat
//! requests come back bit-identical from disk, across restarts, with
//! `cached: true` and zero search work.
//!
//! ```sh
//! cargo run --release -p soma-bench --bin serve -- --listen unix:/tmp/soma.sock
//! cargo run --release -p soma-bench --bin serve -- \
//!     --listen tcp:127.0.0.1:7777 --ledger runs/serve.ledger \
//!     --max-inflight 4 --budget 2000000
//! ```
//!
//! The wire protocol is specified in `specs/PROTOCOL.md`; the knob
//! table lives in README's "Serving" section. SIGINT/SIGTERM drain the
//! daemon gracefully: in-flight searches finish and flush, new submits
//! are refused with `shutting-down`, and the process exits 0 with a
//! clean, replayable ledger.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use soma_search::Parallelism;
use soma_serve::{shutdown, start, Listen, ServerConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: serve --listen <unix:PATH|tcp:HOST:PORT> [--ledger <dir>] \
         [--max-inflight N] [--budget N] [--threads <auto|seq|N>] [--version]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--version") {
        println!("{}", soma_bench::version_line("serve"));
        return ExitCode::SUCCESS;
    }

    let mut listen: Option<Listen> = None;
    let mut ledger = PathBuf::from("target/serve/serve.ledger");
    let mut max_inflight = 8usize;
    let mut budget = 0u64;
    let mut parallelism = Parallelism::Auto;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = |args: &mut dyn Iterator<Item = String>| args.next();
        match arg.as_str() {
            "--listen" => match value(&mut args).map(|v| v.parse()) {
                Some(Ok(l)) => listen = Some(l),
                Some(Err(e)) => {
                    eprintln!("serve: --listen: {e}");
                    return ExitCode::from(2);
                }
                None => return usage(),
            },
            "--ledger" => match value(&mut args) {
                Some(p) => ledger = PathBuf::from(p),
                None => return usage(),
            },
            "--max-inflight" => match value(&mut args).map(|v| v.parse()) {
                Some(Ok(n)) => max_inflight = n,
                _ => return usage(),
            },
            "--budget" => match value(&mut args).map(|v| v.parse()) {
                Some(Ok(n)) => budget = n,
                _ => return usage(),
            },
            "--threads" => match value(&mut args).map(|v| v.parse()) {
                Some(Ok(par)) => parallelism = par,
                Some(Err(e)) => {
                    eprintln!("serve: --threads: {e}");
                    return ExitCode::from(2);
                }
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(listen) = listen else {
        return usage();
    };

    shutdown::install_signal_handlers();
    let config = ServerConfig {
        max_inflight,
        max_evals: budget,
        parallelism,
        ..ServerConfig::new(listen, &ledger)
    };
    let handle = match start(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve: cannot start: {e}");
            return ExitCode::from(2);
        }
    };
    let budget_str = if budget == 0 { "unlimited".to_string() } else { format!("{budget} evals") };
    eprintln!(
        "[serve] listening on {} (ledger {}, {} row(s) warm, max-inflight {max_inflight}, \
         budget {budget_str})",
        handle.listen(),
        ledger.display(),
        handle.stats().ledger_rows,
    );
    let health = handle.ledger_health();
    if !health.is_clean() || health.duplicates > 0 {
        eprintln!(
            "[serve] ledger repair: {} row(s) quarantined{}, {} duplicate hash(es) \
             (last write wins); see {}",
            health.quarantined,
            if health.truncated { ", torn tail dropped" } else { "" },
            health.duplicates,
            soma_spec::quarantine_path(&ledger).display()
        );
    }
    // The accept loop runs on its own thread; this one just waits for a
    // signal. Polling (not parking) because the handler may only flip
    // an atomic.
    while !shutdown::stop_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("[serve] stop requested — draining in-flight requests");
    let stats = handle.stats();
    handle.shutdown();
    eprintln!(
        "[serve] done: {} served ({} cached), {} rejected, {} ledger row(s)",
        stats.served, stats.cache_hits, stats.rejected, stats.ledger_rows
    );
    ExitCode::SUCCESS
}
