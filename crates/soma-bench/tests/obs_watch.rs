//! Observability end-to-end: the `watch` binary's headless replay frame
//! and machine-readable campaign summary over the **committed** golden
//! ledger (its JSON view, migrated into a ledger directory) are pinned
//! byte-for-byte, and a live campaign (events observed as `run_lab`
//! emits them) must render exactly the same final frame as an offline
//! replay of the ledger it wrote. The Gantt renderer behind `watch
//! --gantt` is pinned byte-for-byte on a fixed schedule too.
//!
//! Regenerate the snapshots after an intentional behaviour change with:
//!
//! ```sh
//! SOMA_BLESS=1 cargo test -p soma-bench --test obs_watch
//! ```

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use soma_arch::HardwareConfig;
use soma_bench::lab::Ledger;
use soma_bench::run_lab;
use soma_core::{Encoding, Lfa, ParsedSchedule};
use soma_model::zoo;
use soma_obs::WatchModel;
use soma_sim::{render_gantt, simulate, CoreArrayModel};
use soma_spec::read_experiment;

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn bless() -> bool {
    std::env::var_os("SOMA_BLESS").is_some_and(|v| v != "0" && !v.is_empty())
}

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
             --test obs_watch",
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

/// The committed campaign ledger every offline test replays: the
/// golden JSON view migrated once into a ledger directory named like
/// the campaign (the summary takes its name from the directory).
fn committed_ledger() -> PathBuf {
    static LEDGER: OnceLock<PathBuf> = OnceLock::new();
    LEDGER
        .get_or_init(|| {
            let dir = tmp(&format!("obs-watch-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            let ledger = dir.join("fig_pair_edge.ledger");
            Ledger::migrate(&golden_path("fig_pair_edge.ledger.jsonl"), &ledger)
                .expect("the committed golden migrates");
            ledger
        })
        .clone()
}

fn watch(args: &[&str]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_watch"));
    cmd.args(args);
    cmd.output().expect("spawn watch")
}

/// The headless replay frame over the committed ledger is byte-stable.
#[test]
fn watch_render_is_golden() {
    let ledger = committed_ledger();
    let out = watch(&[ledger.to_str().unwrap(), "--headless", "--width", "60"]);
    assert!(out.status.success(), "watch failed: {}", String::from_utf8_lossy(&out.stderr));
    assert_golden(&out.stdout, "fig_pair_edge.watch.txt");
}

/// `watch --headless --summary` over the committed ledger produces the
/// byte-stable `specs/SUMMARY.md` artifact — the CI `obs-smoke` gate's
/// contract.
#[test]
fn watch_summary_is_golden() {
    let ledger = committed_ledger();
    let out_path = tmp("obs-watch-summary.json");
    let _ = fs::remove_file(&out_path);
    let out =
        watch(&[ledger.to_str().unwrap(), "--headless", "--summary", out_path.to_str().unwrap()]);
    assert!(out.status.success(), "watch failed: {}", String::from_utf8_lossy(&out.stderr));
    assert_golden(&fs::read(&out_path).expect("summary written"), "fig_pair_edge.summary.json");
}

/// The trend gate: a summary checked against itself passes (exit 0); a
/// baseline whose best costs are far better than the current run's
/// fails with exit 5 and a violation per regressed scenario.
#[test]
fn trend_gate_flags_regressions_only() {
    let ledger = committed_ledger();
    let current = tmp("obs-watch-gate.json");
    let _ = fs::remove_file(&current);
    let out =
        watch(&[ledger.to_str().unwrap(), "--headless", "--summary", current.to_str().unwrap()]);
    assert!(out.status.success());

    // Self-comparison: zero drift, gate passes even at zero tolerance.
    let out = watch(&[
        ledger.to_str().unwrap(),
        "--headless",
        "--check-baseline",
        current.to_str().unwrap(),
        "--tolerance",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));

    // Doctored baseline: every best cost divided by 10 — the current
    // run now "regresses" by 10x, far beyond a 5% tolerance.
    let text = fs::read_to_string(&current).unwrap();
    let doctored_text = regex_free_scale_costs(&text);
    let doctored = tmp("obs-watch-gate-doctored.json");
    fs::write(&doctored, doctored_text).unwrap();
    let out = watch(&[
        ledger.to_str().unwrap(),
        "--headless",
        "--check-baseline",
        doctored.to_str().unwrap(),
        "--tolerance",
        "0.05",
    ]);
    assert_eq!(out.status.code(), Some(5), "{}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("trend gate"), "{err}");
    assert!(err.contains("fig2@edge/b1"), "{err}");
}

/// Rewrites every best-cost distribution in the summary to a tenth of
/// its value via the parsed struct — no string surgery, reusing the
/// crate's own JSON round-trip.
fn regex_free_scale_costs(text: &str) -> String {
    fn scale(d: &mut soma_obs::Dist) {
        for f in [&mut d.min, &mut d.max, &mut d.mean, &mut d.p50, &mut d.p90, &mut d.p99] {
            *f /= 10.0;
        }
    }
    let v = serde::json::parse(text.trim()).expect("summary parses");
    let mut s = soma_obs::CampaignSummary::from_json(&v).expect("summary round-trips");
    scale(&mut s.best_cost);
    for scenario in &mut s.scenarios {
        scale(&mut scenario.best_cost);
    }
    format!("{}\n", s.to_string_stable())
}

/// Drill-down: `watch --gantt <cell-id>` renders the cell's execution
/// graph straight from its ledger row.
#[test]
fn gantt_drilldown_renders_from_the_ledger() {
    let ledger = committed_ledger();
    let out = watch(&[ledger.to_str().unwrap(), "--gantt", "fig2@edge/b1", "--width", "60"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let chart = String::from_utf8(out.stdout.clone()).unwrap();
    assert!(chart.contains("latency:"), "{chart}");
    assert!(chart.contains("DRAM"), "{chart}");
    assert!(chart.contains("COMPUTE"), "{chart}");
    assert!(chart.contains("BUFFER"), "{chart}");

    // A unique hash prefix resolves to the same row.
    let rows = Ledger::load(&ledger).unwrap();
    let hash = rows.rows().iter().find(|r| r.cell == "fig2@edge/b1").unwrap().hash.clone();
    let by_hash = watch(&[ledger.to_str().unwrap(), "--gantt", &hash[..8], "--width", "60"]);
    assert!(by_hash.status.success());
    assert_eq!(by_hash.stdout, out.stdout, "hash drill == id drill");

    // An unknown query is a usage error, not a panic.
    let missing = watch(&[ledger.to_str().unwrap(), "--gantt", "nope@nowhere"]);
    assert_eq!(missing.status.code(), Some(2));
}

/// A figure's Cocco twin row (id `<cell>+cocco`) drills down like its
/// cell: the network comes from the cell's registry id and the chart
/// is the twin outcome's own.
#[test]
fn gantt_drilldown_renders_a_cocco_twin_row() {
    let ledger = tmp("obs-watch-fig6.ledger");
    let _ = fs::remove_dir_all(&ledger);
    let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/fig_pair_edge.soma");
    let fig6 = Command::new(env!("CARGO_BIN_EXE_fig6"))
        .arg(&spec)
        .arg("--ledger")
        .arg(&ledger)
        .output()
        .expect("spawn fig6");
    assert!(fig6.status.success(), "fig6 failed: {}", String::from_utf8_lossy(&fig6.stderr));

    let twin = "fig2@edge/b1+cocco";
    let out = watch(&[ledger.to_str().unwrap(), "--headless", "--gantt", twin, "--width", "60"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let rows = Ledger::load(&ledger).unwrap();
    let row = rows.rows().iter().find(|r| r.cell == twin).expect("fig6 records the twin");
    let outcome = row.outcome().expect("twin outcome decodes");
    let net = zoo::fig2(1);
    let sched = ParsedSchedule::new(&net, &outcome.best.encoding).expect("twin scheme parses");
    let chart = render_gantt(&net, &sched, &outcome.best.report.timeline, 60);
    assert_eq!(String::from_utf8(out.stdout).unwrap(), chart);
}

/// The full Gantt chart for a fixed (network, encoding, hardware)
/// triple — the chart `watch --gantt` prints. Pinning its exact bytes
/// catches both renderer drift *and* simulator drift (the block
/// positions are a projection of the timeline).
#[test]
fn gantt_snapshot_fig2_edge_unfused() {
    let net = zoo::fig2(1);
    let sched = ParsedSchedule::new(&net, &Encoding::from_lfa(Lfa::unfused(&net, 2)))
        .expect("unfused LFA always parses");
    let hw = HardwareConfig::edge();
    let mut model = CoreArrayModel::new(&hw);
    let tl = simulate(&sched.plan, &sched.dlsa, &hw, &mut model).expect("schedule simulates");
    let chart = render_gantt(&net, &sched, &tl, 60);
    assert_golden(chart.as_bytes(), "fig2_edge_unfused.gantt.txt");
}

/// A live campaign observed event-by-event renders exactly the same
/// final frame as an offline replay of the ledger it wrote — the
/// equivalence that makes `watch --follow` and one-shot replay
/// interchangeable after the fact.
#[test]
fn live_event_stream_matches_offline_replay() {
    let spec_text = fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/fig_pair_edge.soma"),
    )
    .expect("committed spec");
    let spec = read_experiment(&spec_text).expect("spec parses");
    let ledger_path = tmp("obs-watch-live.ledger");
    let _ = fs::remove_dir_all(&ledger_path);

    let mut live = WatchModel::new();
    run_lab(&spec, &ledger_path, |ev| live.observe(ev)).expect("lab runs");

    let ledger = Ledger::load(&ledger_path).expect("ledger written");
    let mut replay = WatchModel::new();
    for row in ledger.rows() {
        replay.observe_row(row);
    }

    assert_eq!(live.render(60), replay.render(60), "live frame != replay frame");
    assert_eq!(live.cell_outcomes(), replay.cell_outcomes());
    // Only the hit-rate provenance differs (a cold live run has zero
    // cached cells, as does a replay), so the summaries agree too.
    let health = ledger.health();
    assert_eq!(
        live.summary("fig-pair-edge", health, None).to_string_stable(),
        replay.summary("fig-pair-edge", health, None).to_string_stable(),
    );
}
