//! Golden-file tests for the `run` and `lab` binaries on committed
//! `specs/*.soma`: stdout CSV, the lab run ledger's directory (every
//! binary v3 file) and its JSON view (`ledger dump`) are compared
//! **byte-for-byte** against snapshots under `tests/golden/`, and ledger
//! shard bytes are compared across thread counts and replays.
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
//! The figure binaries run on the same executor: `fig6` over a committed
//! spec matches its own golden, its SoMa cells are `lab`'s cells, and
//! `stats` over that CSV matches a golden too (and refuses a damaged
//! one). The other figure binaries run on tiny scratch specs.
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

/// Runs a harness binary with `SOMA_WORKLOAD` scrubbed from the
/// environment, plus `env`; returns stdout, stderr and the exit code.
fn run_bin_env(exe: &str, args: &[&str], env: &[(&str, &str)]) -> (String, String, Option<i32>) {
    let mut cmd = Command::new(exe);
    cmd.args(args);
    cmd.env_remove("SOMA_WORKLOAD");
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

/// Compares every file of the ledger directory `dir` with the committed
/// golden directory (or regenerates it under `SOMA_BLESS=1`): the
/// binary v3 bytes themselves, not only their JSON view.
fn assert_golden_dir(dir: &Path, golden: &str) {
    let path = golden_path(golden);
    let got = files(dir);
    if bless() {
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).expect("mkdir golden dir");
        for (name, bytes) in &got {
            fs::write(path.join(name), bytes).expect("bless golden file");
        }
        eprintln!("[golden] blessed {}", path.display());
        return;
    }
    assert!(path.is_dir(), "missing golden directory {}; regenerate with SOMA_BLESS=1", golden);
    let want = files(&path);
    let names = |f: &[(String, Vec<u8>)]| f.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&got), names(&want), "{golden}: ledger file set drifted");
    for ((name, got), (_, want)) in got.iter().zip(&want) {
        assert!(got == want, "{golden}/{name} drifted from its committed bytes");
    }
}

/// One spec through both binaries: `run` CSV matches the golden, `lab`
/// cold CSV matches the *same* golden, the ledger's bytes and its
/// `dump` match their goldens, and a warm `lab` pass is 100 % hits with
/// identical output and untouched ledger bytes.
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
    assert_golden_dir(&ledger, ledger_golden.trim_end_matches(".jsonl"));
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

/// The committed binary ledgers read back as their committed JSON view
/// both ways a load can go: index-backed (no frame read until a row
/// decodes) and, from a copy without `index.bin`, by scanning frames.
/// A reordered meta field or a changed frame layout fails here even
/// when writer and reader change together.
#[test]
fn committed_ledger_bytes_dump_to_their_json_goldens() {
    for name in ["fig2_edge.ledger", "fig_pair_edge.ledger"] {
        let committed = golden_path(name);
        let want = fs::read(golden_path(&format!("{name}.jsonl"))).expect("committed dump golden");
        assert_eq!(dump(&committed), want, "{name}: index-backed dump");

        let scan = tmp(&format!("golden-scan-{name}"));
        fs::create_dir_all(&scan).expect("scratch dir");
        for (file, bytes) in files(&committed).into_iter().filter(|(f, _)| f != "index.bin") {
            fs::write(scan.join(file), bytes).expect("copy ledger file");
        }
        assert_eq!(dump(&scan), want, "{name}: scanned dump");
        assert!(!scan.join("index.bin").exists(), "dump loads read-only");
    }
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

/// `fig6` over a committed spec: its CSV matches the golden, with or
/// without a ledger; a warm rerun searches nothing, prints the same
/// bytes and leaves the ledger untouched; `lab` replays the same spec
/// from that ledger with 100 % hits, because a figure's SoMa cells are
/// `lab`'s cells; and `stats` over the golden matches its own golden.
#[test]
fn golden_fig6_pair_edge() {
    let spec = repo_spec("fig_pair_edge.soma");
    let spec = spec.to_str().expect("utf-8 path");
    let fig6 = env!("CARGO_BIN_EXE_fig6");

    let (csv, err, code) = run_bin_code(fig6, &[spec]);
    assert_eq!(code, Some(0), "{err}");
    assert_golden(csv.as_bytes(), "fig_pair_edge.fig6.csv");

    let ledger = tmp("golden-fig6.ledger");
    let ledger_arg = ledger.to_str().expect("utf-8 path");
    let (cold, err, code) = run_bin_code(fig6, &[spec, "--ledger", ledger_arg]);
    assert_eq!(code, Some(0), "{err}");
    assert_eq!(cold, csv, "a ledger changes no byte of the CSV");
    assert!(err.contains("0 hit(s), 4 searched, 0 failed"), "{err}");
    let cold_files = files(&ledger);

    let (warm, err, code) = run_bin_code(fig6, &[spec, "--ledger", ledger_arg]);
    assert_eq!(code, Some(0), "{err}");
    assert!(
        err.contains("4 hit(s), 0 searched, 0 failed"),
        "a warm rerun searches nothing:\n{err}"
    );
    assert_eq!(warm, csv);
    assert_eq!(files(&ledger), cold_files, "a warm rerun wrote to the ledger");

    let args = [spec, "--ledger", ledger_arg, "--require-hits"];
    let (_, err, code) = run_bin_code(env!("CARGO_BIN_EXE_lab"), &args);
    assert_eq!(code, Some(0), "lab must replay fig6's SoMa cells:\n{err}");

    let golden = golden_path("fig_pair_edge.fig6.csv");
    let (report, err, code) =
        run_bin_code(env!("CARGO_BIN_EXE_stats"), &[golden.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{err}");
    assert_golden(report.as_bytes(), "fig_pair_edge.stats.txt");
}

/// `stats` refuses a CSV it cannot trust — a cut row, a value that is
/// not a number, a missing file, a scenario without its full triple, a
/// CSV with no triple at all, a foreign header — with exit status 2 and
/// the offending file and line, instead of averaging what is left.
#[test]
fn stats_refuses_a_damaged_csv() {
    let golden = fs::read_to_string(golden_path("fig_pair_edge.fig6.csv")).expect("fig6 golden");
    let lines: Vec<&str> = golden.lines().collect();
    assert_eq!(lines.len(), 7, "header plus two triples");
    let dir = tmp("stats-damage");
    fs::create_dir_all(&dir).expect("scratch dir");
    let stats = |name: &str, text: Option<String>| {
        let path = dir.join(name);
        if let Some(text) = text {
            fs::write(&path, text).expect("write damaged csv");
        }
        let path = path.to_str().expect("utf-8 path").to_string();
        let (out, err, code) = run_bin_code(env!("CARGO_BIN_EXE_stats"), &[&path]);
        assert_eq!(code, Some(2), "{name}: {err}");
        assert!(out.is_empty(), "{name}: {out}");
        (path, err)
    };
    let with = |edit: &dyn Fn(&mut Vec<String>)| {
        let mut rows: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        edit(&mut rows);
        Some(rows.join("\n") + "\n")
    };

    let cut = with(&|rows| rows[2] = rows[2].split(',').take(10).collect::<Vec<_>>().join(","));
    let (path, err) = stats("cut.csv", cut);
    assert_eq!(err, format!("stats: {path}:3: expected 17 fields, got 10\n"));

    let nan = with(&|rows| {
        let mut f: Vec<&str> = rows[1].split(',').collect();
        f[5] = "NaNx";
        rows[1] = f.join(",");
    });
    let (path, err) = stats("nan.csv", nan);
    assert_eq!(err, format!("stats: {path}:2: latency_cycles \"NaNx\" is not a finite number\n"));

    let (path, err) = stats("missing.csv", None);
    assert!(err.starts_with(&format!("stats: {path}: ")), "{err}");

    let partial = with(&|rows| {
        rows.remove(3);
    });
    let (path, err) = stats("partial.csv", partial);
    assert_eq!(err, format!("stats: {path}:2: fig2@edge/b1 has no ours_2 row\n"));

    let (path, err) = stats("empty.csv", with(&|rows| rows.truncate(1)));
    assert_eq!(err, format!("stats: {path}:1: no complete cocco/ours_1/ours_2 triple\n"));

    let (path, err) = stats("header.csv", with(&|rows| rows[0] = "scenario,scheme".into()));
    assert!(err.starts_with(&format!("stats: {path}:1: unexpected header")), "{err}");
}

/// `fig3`, `fig7`, `fig8` and `ablation` each run a tiny scratch spec
/// through the cell executor and print their header and one block of
/// rows per cell; a bad command line is a usage error.
#[test]
fn figure_binaries_run_tiny_specs() {
    let dir = tmp("figure-specs");
    fs::create_dir_all(&dir).expect("scratch dir");
    let run = |exe: &str, body: &str| {
        let spec =
            dir.join(format!("{}.soma", Path::new(exe).file_name().unwrap().to_str().unwrap()));
        let text = format!("soma-experiment v1\nname tiny\n{body}seeds 2025\neffort 0.01\nend\n");
        fs::write(&spec, text).expect("write spec");
        let (out, err, code) = run_bin_code(exe, &[spec.to_str().expect("utf-8 path")]);
        assert_eq!(code, Some(0), "{exe}: {err}");
        out
    };
    let pair = "scenario fig2@edge/b1\nscenario fig4@edge/b1\n";
    let (fig2_layers, fig4_layers) =
        (soma_model::zoo::fig2(1).len(), soma_model::zoo::fig4(1).len());

    let out = run(env!("CARGO_BIN_EXE_fig3"), pair);
    let rows: Vec<&str> = out.lines().collect();
    assert_eq!(rows[0], "panel,scenario,item,dram_norm,ops_norm");
    let count = |prefix: &str| rows.iter().filter(|r| r.starts_with(prefix)).count();
    assert_eq!(count("layer,fig2@edge/b1,"), fig2_layers);
    assert_eq!(count("layer,fig4@edge/b1,"), fig4_layers);
    assert!(count("tile,fig2@edge/b1,") > 0 && count("tile,fig4@edge/b1,") > 0, "{out}");
    assert_eq!(rows.len(), 1 + count("layer,") + count("tile,"));

    let hw = "workload fig2 fig4\nhardware edge buffer_mib=4 dram_gbps=8 name=edge-4MB-8GBps\n\
              batch 1 4\n";
    let out = run(env!("CARGO_BIN_EXE_fig7"), hw);
    let rows: Vec<&str> = out.lines().collect();
    assert_eq!(
        rows[0],
        "scenario,scheduler,workload,batch,buffer_mib,dram_gbps,latency_cycles,latency_ms"
    );
    assert_eq!(rows.len(), 1 + 2 * 4, "a cocco and a soma row per cell:\n{out}");
    assert!(rows[1].starts_with("fig2@edge-4MB-8GBps/b1,cocco,fig2,1,4,8,"), "{out}");
    assert!(rows[2].starts_with("fig2@edge-4MB-8GBps/b1,soma,fig2,1,4,8,"), "{out}");
    let batches: Vec<&str> = rows[1..].iter().map(|r| r.split(',').nth(3).unwrap()).collect();
    assert_eq!(batches, ["1", "1", "1", "1", "4", "4", "4", "4"], "grouped by batch");

    let out = run(env!("CARGO_BIN_EXE_fig8"), "scenario fig2@edge/b1\n");
    assert!(out.starts_with("scenario: fig2@edge/b1\n==== Cocco ====\n"), "{out}");
    assert_eq!(out.matches("==== ").count(), 3, "{out}");
    assert_eq!(out.matches("latency ").count(), 3, "{out}");

    let out = run(env!("CARGO_BIN_EXE_ablation"), pair);
    let rows: Vec<&str> = out.lines().collect();
    assert_eq!(rows[0], "scenario,workload,batch,variant,latency_cycles,energy_pj,cost");
    assert_eq!(rows.len(), 1 + 2 * 5, "five variants per cell:\n{out}");
    let variants: Vec<&str> = rows[1..6].iter().map(|r| r.split(',').nth(3).unwrap()).collect();
    assert_eq!(variants, ["cocco", "stage1_only", "no_allocator", "linked_cuts", "full"]);

    let fig6 = env!("CARGO_BIN_EXE_fig6");
    let junk = dir.join("junk.soma");
    fs::write(&junk, "soma-experiment v1\nname x\nend\n").expect("write spec");
    for args in [&[][..], &["--ledger"], &["a.soma", "b.soma"], &[junk.to_str().unwrap()]] {
        let (out, err, code) = run_bin_code(fig6, args);
        assert_eq!(code, Some(2), "{args:?}: {err}");
        assert!(out.is_empty() && err.starts_with("fig6: "), "{args:?}: {err}");
    }
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

/// A mistyped path is not an empty ledger: `ledger stat`, `dump` and
/// `compact` on a path that does not exist exit 2 naming the path, and
/// leave nothing behind (`compact` used to create the directory).
#[test]
fn ledger_tool_refuses_a_missing_path() {
    let missing = tmp("golden-missing.ledger");
    let arg = missing.to_str().expect("utf-8 path");
    for sub in ["stat", "dump", "compact"] {
        let (out, err, code) = run_bin_code(env!("CARGO_BIN_EXE_ledger"), &[sub, arg]);
        assert_eq!(code, Some(2), "ledger {sub}: {err}");
        assert!(out.is_empty(), "ledger {sub} printed: {out}");
        assert!(err.contains(arg), "ledger {sub} must name the path: {err}");
        assert!(!missing.exists(), "ledger {sub} created {arg}");
    }
}

/// A directory of other files is not an empty ledger either: `ledger
/// stat`, `dump` and `compact` on a directory holding one text file exit
/// 2 naming it, and leave its listing as it was (`compact` used to write
/// `LEDGER` and `index.bin` beside the file). An empty directory still
/// reads as an empty ledger.
#[test]
fn ledger_tool_refuses_a_directory_that_is_not_a_ledger() {
    let dir = tmp("golden-foreign");
    fs::create_dir_all(&dir).expect("scratch dir");
    fs::write(dir.join("notes.txt"), "not a ledger\n").expect("text file");
    let before = files(&dir);
    let arg = dir.to_str().expect("utf-8 path");
    for sub in ["stat", "dump", "compact"] {
        let (out, err, code) = run_bin_code(env!("CARGO_BIN_EXE_ledger"), &[sub, arg]);
        assert_eq!(code, Some(2), "ledger {sub}: {err}");
        assert!(out.is_empty(), "ledger {sub} printed: {out}");
        assert!(err.contains(&format!("{arg}: not a ledger directory")), "ledger {sub}: {err}");
        assert_eq!(files(&dir), before, "ledger {sub} wrote into {arg}");
    }

    let empty = tmp("golden-empty.ledger");
    fs::create_dir_all(&empty).expect("scratch dir");
    let (out, err, code) =
        run_bin_code(env!("CARGO_BIN_EXE_ledger"), &["stat", empty.to_str().expect("utf-8")]);
    assert_eq!(code, Some(0), "{err}");
    assert!(out.contains("rows:        0"), "{out}");
}

/// `lab` refuses a directory of other files as its ledger, as the
/// `ledger` tool does: exit 2 naming the directory, and its listing
/// left as it was (it used to start a ledger beside the file). A
/// missing path and an empty directory still get a fresh ledger.
#[test]
fn lab_refuses_a_directory_that_is_not_a_ledger() {
    let spec = repo_spec("fig2_edge.soma");
    let spec = spec.to_str().expect("utf-8 path");
    let dir = tmp("golden-lab-foreign");
    fs::create_dir_all(&dir).expect("scratch dir");
    fs::write(dir.join("notes.txt"), "not a ledger\n").expect("text file");
    let before = files(&dir);
    let arg = dir.to_str().expect("utf-8 path");
    let (out, err, code) = run_bin_code(env!("CARGO_BIN_EXE_lab"), &[spec, "--ledger", arg]);
    assert_eq!(code, Some(2), "{err}");
    assert!(out.is_empty(), "lab printed: {out}");
    assert!(err.contains(&format!("{arg}: not a ledger directory")), "{err}");
    assert_eq!(files(&dir), before, "lab wrote into {arg}");

    let missing = tmp("golden-lab-missing.ledger");
    let empty = tmp("golden-lab-empty.ledger");
    fs::create_dir_all(&empty).expect("scratch dir");
    for fresh in [missing, empty] {
        let arg = fresh.to_str().expect("utf-8 path");
        let (_, err, code) = run_bin_code(env!("CARGO_BIN_EXE_lab"), &[spec, "--ledger", arg]);
        assert_eq!(code, Some(0), "{err}");
        assert!(fresh.join("LEDGER").is_file() && fresh.join("index.bin").is_file(), "{arg}");
    }
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
