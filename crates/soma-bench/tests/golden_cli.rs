//! Golden-file tests for the `run` and `lab` binaries on committed
//! `specs/*.soma`: stdout CSV and the JSON view of the lab run ledger
//! (`ledger dump`) are compared **byte-for-byte** against snapshots
//! under `tests/golden/`, and ledger shard bytes are compared across
//! thread counts and replays.
//!
//! Regenerate the snapshots after an intentional behaviour change with:
//!
//! ```sh
//! SOMA_BLESS=1 cargo test -p soma-bench --test golden_cli
//! ```
//!
//! The two binaries must agree: for the same spec, `lab`'s CSV is
//! compared against the *same* golden file as `run`'s — the orchestrator
//! adds caching and parallelism, never different numbers. And a warm
//! `lab` rerun (100 % ledger hits, enforced via `--require-hits`) must
//! reproduce the cold CSV byte-for-byte from the ledger alone.
//!
//! The `loadgen` client is driven here too, against an in-process
//! `serve` daemon, with the flags the CI smoke gates use.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_spec(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs").join(name)
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

fn tmp(name: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&path);
    path
}

/// Every file of a ledger directory with its bytes, sorted by name.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .expect("ledger dir")
        .map(|e| {
            let e = e.expect("dir entry");
            (e.file_name().into_string().expect("utf-8 name"), fs::read(e.path()).unwrap())
        })
        .collect();
    out.sort();
    out
}

/// `ledger dump <dir>`: the ledger's JSON view.
fn dump(dir: &Path) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["dump", dir.to_str().expect("utf-8 path")])
        .output()
        .expect("spawn ledger");
    assert!(out.status.success(), "ledger dump: {}", String::from_utf8_lossy(&out.stderr));
    out.stdout
}

fn bless() -> bool {
    std::env::var_os("SOMA_BLESS").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Runs a harness binary with a scrubbed `SOMA_*` environment plus
/// `env`; returns stdout, stderr and the exit code.
fn run_bin_env(exe: &str, args: &[&str], env: &[(&str, &str)]) -> (String, String, Option<i32>) {
    let mut cmd = Command::new(exe);
    cmd.args(args);
    for knob in ["SOMA_EFFORT", "SOMA_SEED", "SOMA_FULL", "SOMA_THREADS", "SOMA_WORKLOAD"] {
        cmd.env_remove(knob);
    }
    cmd.envs(env.iter().copied());
    let out = cmd.output().unwrap_or_else(|e| panic!("cannot spawn {exe}: {e}"));
    (
        String::from_utf8(out.stdout).expect("binary stdout is UTF-8"),
        String::from_utf8(out.stderr).expect("binary stderr is UTF-8"),
        out.status.code(),
    )
}

/// [`run_bin_env`] with no extra environment.
fn run_bin_code(exe: &str, args: &[&str]) -> (String, String, Option<i32>) {
    run_bin_env(exe, args, &[])
}

/// [`run_bin_code`] with the exit status reduced to success.
fn run_bin(exe: &str, args: &[&str]) -> (String, String, bool) {
    let (out, err, code) = run_bin_code(exe, args);
    (out, err, code == Some(0))
}

/// Compares `got` against the committed snapshot (or regenerates it
/// under `SOMA_BLESS=1`).
fn assert_golden(got: &[u8], golden: &str) {
    let path = golden_path(golden);
    if bless() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        fs::write(&path, got).expect("bless golden");
        eprintln!("[golden] blessed {}", path.display());
        return;
    }
    let want = fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with SOMA_BLESS=1 cargo test -p soma-bench \
             --test golden_cli",
            path.display()
        )
    });
    assert!(
        got == want.as_slice(),
        "{golden} drifted from its committed snapshot.\n--- committed ---\n{}\n--- got ---\n{}\n\
         If the change is intentional, rebless with SOMA_BLESS=1.",
        String::from_utf8_lossy(&want),
        String::from_utf8_lossy(got),
    );
}

/// One spec through both binaries: `run` CSV matches the golden, `lab`
/// cold CSV matches the *same* golden, the ledger's `dump` matches its
/// golden, and a warm `lab` pass is 100 % hits with identical output
/// and untouched ledger bytes.
fn check_spec(spec_file: &str, csv_golden: &str, ledger_golden: &str) {
    let spec = repo_spec(spec_file);
    let spec = spec.to_str().expect("utf-8 path");

    let (run_csv, _, ok) = run_bin(env!("CARGO_BIN_EXE_run"), &[spec]);
    assert!(ok, "run failed on {spec_file}");
    assert_golden(run_csv.as_bytes(), csv_golden);

    let ledger = tmp(&format!("golden-{spec_file}.ledger"));
    let ledger_arg = ledger.to_str().expect("utf-8 path");
    let (cold_csv, _, ok) = run_bin(env!("CARGO_BIN_EXE_lab"), &[spec, "--ledger", ledger_arg]);
    assert!(ok, "lab (cold) failed on {spec_file}");
    assert_eq!(cold_csv, run_csv, "{spec_file}: lab CSV != run CSV");
    assert_golden(&dump(&ledger), ledger_golden);
    let cold_files = files(&ledger);

    let (warm_csv, warm_err, ok) =
        run_bin(env!("CARGO_BIN_EXE_lab"), &[spec, "--ledger", ledger_arg, "--require-hits"]);
    assert!(ok, "lab (warm) was not 100% hits on {spec_file}:\n{warm_err}");
    assert_eq!(warm_csv, run_csv, "{spec_file}: warm lab CSV != cold CSV");
    assert_eq!(files(&ledger), cold_files, "{spec_file}: a warm replay wrote to the ledger");

    // A cold 4-thread pass must write the *same* ledger: thread policy
    // is wall-clock only, down to the shard bytes.
    let t4 = tmp(&format!("golden-{spec_file}.t4.ledger"));
    let t4_arg = t4.to_str().expect("utf-8 path");
    let (t4_csv, _, ok) =
        run_bin(env!("CARGO_BIN_EXE_lab"), &[spec, "--ledger", t4_arg, "--threads", "4"]);
    assert!(ok, "lab (cold, --threads 4) failed on {spec_file}");
    assert_eq!(t4_csv, run_csv, "{spec_file}: 4-thread lab CSV != run CSV");
    assert_eq!(files(&t4), cold_files, "{spec_file}: 4-thread ledger bytes differ");
    assert_golden(&dump(&t4), ledger_golden);
}

#[test]
fn golden_fig2_edge() {
    check_spec("fig2_edge.soma", "fig2_edge.csv", "fig2_edge.ledger.jsonl");
}

#[test]
fn golden_fig_pair_edge() {
    check_spec("fig_pair_edge.soma", "fig_pair_edge.csv", "fig_pair_edge.ledger.jsonl");
}

/// `SOMA_WORKLOAD` narrows a `run` to the matching cells: the header
/// plus exactly those cells' rows of the full run's golden, byte for
/// byte, and a filter that matches nothing is a usage error.
#[test]
fn run_workload_filter_selects_golden_rows() {
    let spec = repo_spec("fig_pair_edge.soma");
    let spec = spec.to_str().expect("utf-8 path");
    let run = env!("CARGO_BIN_EXE_run");

    let (csv, err, code) = run_bin_env(run, &[spec], &[("SOMA_WORKLOAD", "fig4")]);
    assert_eq!(code, Some(0), "{err}");
    let golden = fs::read_to_string(golden_path("fig_pair_edge.csv")).expect("committed golden");
    let want: String = golden
        .lines()
        .enumerate()
        .filter(|(i, line)| *i == 0 || line.starts_with("fig4@"))
        .map(|(_, line)| format!("{line}\n"))
        .collect();
    assert_eq!(want.lines().count(), 3, "the golden holds two fig4 rows");
    assert_eq!(csv, want);

    let (csv, err, code) = run_bin_env(run, &[spec], &[("SOMA_WORKLOAD", "nomatch")]);
    assert_eq!(code, Some(2), "an empty selection is a usage error:\n{err}");
    assert!(csv.is_empty(), "{csv}");
}

/// `--require-hits` on a cold ledger must fail with exit status 3 — the
/// contract CI's lab-smoke replay gate leans on.
#[test]
fn require_hits_fails_cold() {
    let spec = repo_spec("fig2_edge.soma");
    let ledger = tmp("golden-require-hits-cold.ledger");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lab"));
    cmd.args([spec.to_str().unwrap(), "--ledger", ledger.to_str().unwrap(), "--require-hits"]);
    let out = cmd.output().expect("spawn lab");
    assert_eq!(out.status.code(), Some(3), "cold --require-hits must exit 3");
}

/// A payload damaged after the index was synced is never a silent hit:
/// `ledger stat` counts it, the rerun re-searches the cell (so
/// `--require-hits` exits 3 and the CSV is complete), and the row it
/// appends supersedes the damaged one, so the next run is all hits.
#[test]
fn undecodable_row_is_re_searched_not_a_silent_hit() {
    let spec = repo_spec("fig2_edge.soma");
    let spec = spec.to_str().expect("utf-8 path");
    let ledger = tmp("golden-undecodable.ledger");
    let ledger_arg = ledger.to_str().expect("utf-8 path");
    let (cold_csv, _, ok) = run_bin(env!("CARGO_BIN_EXE_lab"), &[spec, "--ledger", ledger_arg]);
    assert!(ok, "cold lab run failed");

    // Byte 700 of the fig2 cell's shard is inside its outcome payload.
    let shard = ledger.join("shard-f.bin");
    let mut bytes = fs::read(&shard).expect("the fig2 cell lives in shard f");
    assert!(bytes.len() > 700 + 16, "frame shorter than expected: {} bytes", bytes.len());
    bytes[700] ^= 0x01;
    fs::write(&shard, &bytes).expect("flip a payload byte");

    let (stat, _, ok) = run_bin(env!("CARGO_BIN_EXE_ledger"), &["stat", ledger_arg]);
    assert!(ok);
    assert!(stat.contains("undecodable: 1 (0 shadowed"), "{stat}");

    let args = [spec, "--ledger", ledger_arg, "--require-hits"];
    let (csv, err, code) = run_bin_code(env!("CARGO_BIN_EXE_lab"), &args);
    assert_eq!(code, Some(3), "a re-searched cell is not a hit:\n{err}");
    assert_eq!(csv, cold_csv, "the re-searched cell is reported in full");
    assert_golden(csv.as_bytes(), "fig2_edge.csv");
    assert!(err.contains("1 searched (1 undecodable row(s) re-searched)"), "{err}");

    let (csv, err, code) = run_bin_code(env!("CARGO_BIN_EXE_lab"), &args);
    assert_eq!(code, Some(0), "the superseding row serves the next run:\n{err}");
    assert_eq!(csv, cold_csv);
}

/// The `loadgen` client against an in-process daemon, as CI's
/// `serve-smoke` and `chaos-smoke` drive it: a cold submit searches, its
/// repeat is served from the ledger (`--expect-cached` exits 0), and
/// `--stats` prints the daemon's `stats` frame as one wire line. A run
/// without `--connect`, or with the removed `--once`, is a usage error.
#[test]
fn loadgen_submits_then_reports_stats() {
    use soma_serve::protocol::parse_line;
    use soma_serve::{start, Listen, Response, ServerConfig};

    let dir = tmp("golden-loadgen");
    fs::create_dir_all(&dir).expect("scratch dir");
    let handle = start(ServerConfig::new(Listen::Unix(dir.join("d.sock")), dir.join("d.ledger")))
        .expect("in-process daemon");
    let connect = handle.listen().to_string();
    let loadgen = env!("CARGO_BIN_EXE_loadgen");
    let submit = ["--connect", &connect, "--scenario", "fig2@edge/b1", "--effort", "0.01"];

    let (_, err, code) = run_bin_code(loadgen, &submit);
    assert_eq!(code, Some(0), "{err}");
    assert!(err.contains("fig2@edge/b1 answered (hash "), "{err}");
    assert!(err.contains(", cached: false)"), "{err}");

    let (_, err, code) = run_bin_code(loadgen, &[&submit[..], &["--expect-cached"]].concat());
    assert_eq!(code, Some(0), "the repeat must be served from the ledger:\n{err}");

    let (out, err, code) = run_bin_code(loadgen, &["--connect", &connect, "--stats"]);
    assert_eq!(code, Some(0), "{err}");
    assert_eq!(out.lines().count(), 1, "{out}");
    let frame = parse_line(out.trim_end()).expect("stats line is JSON");
    let Ok(Response::Stats(stats)) = Response::from_json(&frame) else {
        panic!("not a stats frame: {out}");
    };
    assert_eq!((stats.served, stats.cache_hits), (2, 1), "{out}");
    handle.shutdown();

    let (_, err, code) = run_bin_code(loadgen, &submit[2..]);
    assert_eq!(code, Some(2), "--connect is required:\n{err}");
    let (_, err, code) = run_bin_code(loadgen, &[&submit[..], &["--once"]].concat());
    assert_eq!(code, Some(2), "--once is gone:\n{err}");
}
