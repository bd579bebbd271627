//! Ledger toolbox: inspect, dump, migrate and compact run ledgers
//! without running a campaign.
//!
//! ```sh
//! # Inspect: row count, health, per-shard breakdown, and how many rows
//! # no longer decode. Always a read-only load — `stat` on a live
//! # campaign is safe.
//! cargo run --release -p soma-bench --bin ledger -- stat target/lab/fig2.ledger
//!
//! # The JSON view: every row's v2 JSON line, in append order
//! # (byte-identical to the lines of an older version's `.jsonl` ledger).
//! cargo run --release -p soma-bench --bin ledger -- dump target/lab/fig2.ledger
//!
//! # Migrate a JSONL ledger from an older version (v1/v2 lines) into a
//! # ledger directory. One-way; the target must not exist and the
//! # source is never touched.
//! cargo run --release -p soma-bench --bin ledger -- \
//!     migrate target/lab/fig2.jsonl target/lab/fig2.ledger
//!
//! # Compact in place: drop shadowed duplicate-hash rows and rows from
//! # stale engine versions, rewrite shards, rebuild the index.
//! cargo run --release -p soma-bench --bin ledger -- compact target/lab/fig2.ledger
//! ```
//!
//! `stat`, `dump` and `compact` refuse a path that does not exist, and
//! a non-empty directory holding no ledger files, rather than read it
//! as an empty ledger, and write nothing there.
//!
//! Exit codes: `0` ok, `1` `dump` skipped rows that do not decode, `2`
//! usage or I/O error, or a missing or foreign ledger path.

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use soma_bench::lab::Ledger;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ledger stat <dir> | ledger dump <dir> | ledger migrate <old.jsonl> <dir> \
         | ledger compact <dir> | ledger --version"
    );
    ExitCode::from(2)
}

fn load_readonly(path: &Path) -> Result<Ledger, ExitCode> {
    Ledger::load_readonly(path).map_err(|e| {
        eprintln!("ledger: {}: {e}", path.display());
        ExitCode::from(2)
    })
}

fn stat(path: &Path) -> ExitCode {
    let ledger = match load_readonly(path) {
        Ok(ledger) => ledger,
        Err(code) => return code,
    };
    let h = ledger.health();
    // Decode every row: an index-backed load trusts the index, so only
    // a decode can tell a payload damaged after the index was synced.
    let undecodable = ledger.rows().iter().filter(|r| r.outcome().is_none()).count();
    let shadowed = undecodable - ledger.live_rows().filter(|r| r.outcome().is_none()).count();
    println!("ledger:      {}", path.display());
    println!("rows:        {}", ledger.len());
    println!(
        "health:      {} kept, {} quarantined, truncated: {}, {} duplicate(s)",
        h.kept, h.quarantined, h.truncated, h.duplicates
    );
    println!("undecodable: {undecodable} ({shadowed} shadowed by a newer row)");
    for (shard, sh) in ledger.shard_healths().iter().enumerate() {
        if sh.kept == 0 && sh.quarantined == 0 && !sh.truncated {
            continue;
        }
        println!(
            "shard-{shard:x}:     {} kept, {} quarantined, truncated: {}",
            sh.kept, sh.quarantined, sh.truncated
        );
    }
    if !h.is_clean() {
        println!("quarantine:  {}", soma_spec::quarantine_path(path).display());
    }
    ExitCode::SUCCESS
}

fn dump(path: &Path) -> ExitCode {
    let ledger = match load_readonly(path) {
        Ok(ledger) => ledger,
        Err(code) => return code,
    };
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    let mut skipped = 0usize;
    for row in ledger.rows() {
        match row.to_line() {
            Some(line) => {
                if writeln!(out, "{line}").is_err() {
                    return ExitCode::from(2);
                }
            }
            None => {
                skipped += 1;
                eprintln!("ledger: dump: row {} ({}) does not decode; skipped", row.hash, row.cell);
            }
        }
    }
    if out.flush().is_err() {
        return ExitCode::from(2);
    }
    if skipped > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn migrate(src: &Path, dst: &Path) -> ExitCode {
    match Ledger::migrate(src, dst) {
        Ok(stats) => {
            eprintln!(
                "[ledger] migrated {} row(s): {} -> {}; {} damaged line(s) skipped",
                stats.rows,
                src.display(),
                dst.display(),
                stats.skipped
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ledger: migrate {} -> {}: {e}", src.display(), dst.display());
            ExitCode::from(2)
        }
    }
}

fn compact(path: &Path) -> ExitCode {
    let mut ledger = match Ledger::load(path) {
        Ok(ledger) => ledger,
        Err(e) => {
            eprintln!("ledger: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    match ledger.compact() {
        Ok(stats) => {
            eprintln!(
                "[ledger] compacted {}: {} kept, {} duplicate(s) dropped, \
                 {} stale-engine row(s) dropped",
                path.display(),
                stats.kept,
                stats.dropped_duplicates,
                stats.dropped_stale_engine
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ledger: compact {}: {e}", path.display());
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--version") {
        println!("{}", soma_bench::version_line("ledger"));
        return ExitCode::SUCCESS;
    }
    match args.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        // `Ledger::load` reads a missing path as an empty ledger (and
        // `compact` would write one there), so a mistyped path would
        // pass for an empty campaign. A directory of other files is
        // refused by the load itself.
        ["stat" | "dump" | "compact", path] if !Path::new(path).exists() => {
            eprintln!("ledger: {path}: no such ledger directory");
            ExitCode::from(2)
        }
        ["stat", path] => stat(Path::new(path)),
        ["dump", path] => dump(Path::new(path)),
        ["migrate", src, dst] => migrate(Path::new(src), Path::new(dst)),
        ["compact", path] => compact(Path::new(path)),
        _ => usage(),
    }
}
