//! Shared helpers for the figure-regeneration binaries.
//!
//! Each binary regenerates one figure/table of the paper (see DESIGN.md's
//! per-experiment index) and prints CSV to stdout plus commentary to
//! stderr. All binaries share one documented knob surface, parsed once by
//! [`RunConfig::from_env`]:
//!
//! * `SOMA_EFFORT` — multiplier on the per-workload search effort
//!   (default 1.0; the built-in per-workload efforts are already scaled
//!   down from paper budgets so the full harness runs on a laptop).
//! * `SOMA_FULL=1` — sweep all four batch sizes {1,4,16,64} instead of
//!   the quick default {1,4}.
//! * `SOMA_SEED` — base RNG seed (default 2025; SoMa and Cocco share the
//!   per-configuration seed, as in the paper's artifact).
//! * `SOMA_THREADS` — thread policy: `auto` (current/global pool, the
//!   default), `seq` (inline, no workers), or a fixed worker count
//!   `N >= 2` (a dedicated scoped pool per parallel region). Never
//!   affects results or ledger bytes — wall-clock only.
//! * `SOMA_WORKLOAD` — case-insensitive substring filter over scenario
//!   ids (`<workload>@<platform>/b<batch>`), so `resnet` filters
//!   workloads, `@edge` platforms and `/b4` batch sizes; binaries that
//!   sweep a suite skip non-matching scenarios.
//!
//! Unparseable values are a **hard error** — a typo'd knob aborts the run
//! instead of silently falling back to a default and producing a
//! mislabelled CSV. This crate is the only workspace member allowed to
//! read `std::env` (CI lints the rest), so a `RunConfig` value *is* the
//! complete run configuration and can be logged next to the results.

pub mod lab;
pub mod loadgen;

pub use lab::{
    csv_rows, run_cells, run_lab, ExperimentRow, LabEvent, LabSummary, Ledger, LedgerRow,
    CSV_HEADER,
};
pub use loadgen::{storm, StormConfig, StormReport};

/// One `--version` line shared by every binary in this crate: binary
/// name, crate version, the engine fingerprint baked into ledger keys,
/// and the serve wire-protocol version.
#[must_use]
pub fn version_line(binary: &str) -> String {
    format!(
        "{binary} {} (engine {}, protocol v{})",
        env!("CARGO_PKG_VERSION"),
        soma_search::record::ENGINE_VERSION,
        soma_serve::PROTOCOL_VERSION,
    )
}

use std::fmt;

use serde::{Deserialize, Serialize};
use soma_arch::HardwareConfig;
use soma_model::Network;
use soma_search::{Parallelism, SearchConfig};
use soma_spec::registry::{suite, Scenario};
use soma_spec::Preset;

/// A `SOMA_*` environment variable that failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvParseError {
    /// The offending variable name.
    pub key: &'static str,
    /// The value found in the environment.
    pub value: String,
    /// What the variable expects.
    pub expected: &'static str,
}

impl fmt::Display for EnvParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {}={:?}: expected {}", self.key, self.value, self.expected)
    }
}

impl std::error::Error for EnvParseError {}

/// Reads and parses one environment variable; absence is `Ok(None)`,
/// presence with an unparseable value is a hard [`EnvParseError`].
fn parse_var<T: std::str::FromStr>(
    key: &'static str,
    expected: &'static str,
) -> Result<Option<T>, EnvParseError> {
    match std::env::var(key) {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err(EnvParseError { key, value: "<non-unicode>".into(), expected })
        }
        Ok(raw) => {
            raw.trim().parse().map(Some).map_err(|_| EnvParseError { key, value: raw, expected })
        }
    }
}

/// The serialisable run configuration shared by every harness binary —
/// the explicit replacement for per-binary ad-hoc `SOMA_*` reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[must_use]
pub struct RunConfig {
    /// Multiplier on the per-workload search effort (`SOMA_EFFORT`).
    pub effort_scale: f64,
    /// Base RNG seed (`SOMA_SEED`).
    pub seed: u64,
    /// Sweep the full batch grid {1,4,16,64} (`SOMA_FULL=1`).
    pub full: bool,
    /// Thread policy (`SOMA_THREADS`): `auto`, `seq`, or a fixed worker
    /// count. Wall-clock only — never an input to results, ledger bytes
    /// or cache keys.
    pub threads: Parallelism,
    /// Scenario-id substring filter (`SOMA_WORKLOAD`, empty = all;
    /// case-insensitive, matched against `<workload>@<platform>/b<batch>`
    /// registry ids and against bare workload names).
    pub workload: String,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            effort_scale: 1.0,
            seed: 2025,
            full: false,
            threads: Parallelism::Auto,
            workload: String::new(),
        }
    }
}

impl RunConfig {
    /// Parses the documented `SOMA_*` knobs. Missing variables keep
    /// their defaults; present-but-unparseable values are a hard error.
    pub fn from_env() -> Result<Self, EnvParseError> {
        let mut rc = Self::default();
        if let Some(v) = parse_var::<f64>("SOMA_EFFORT", "a floating-point effort multiplier")? {
            rc.effort_scale = v;
        }
        if let Some(v) = parse_var::<u64>("SOMA_SEED", "an unsigned integer seed")? {
            rc.seed = v;
        }
        if let Some(v) = parse_var::<u64>("SOMA_FULL", "0 or 1")? {
            rc.full = v != 0;
        }
        if let Some(v) =
            parse_var::<Parallelism>("SOMA_THREADS", "`auto`, `seq`, or a thread count >= 1")?
        {
            rc.threads = v;
        }
        if let Some(v) = parse_var::<String>("SOMA_WORKLOAD", "a scenario-id substring")? {
            rc.workload = v;
        }
        Ok(rc)
    }

    /// [`from_env`](Self::from_env), aborting the process with a usage
    /// message on a bad knob (the harness-binary entry-point idiom).
    pub fn from_env_or_exit() -> Self {
        Self::from_env().unwrap_or_else(|e| {
            eprintln!("soma-bench: {e}");
            std::process::exit(2);
        })
    }

    /// Batch sizes to sweep: {1,4} by default, {1,4,16,64} under `full`.
    pub fn batch_sizes(&self) -> Vec<u32> {
        if self.full {
            vec![1, 4, 16, 64]
        } else {
            vec![1, 4]
        }
    }

    /// Per-workload search effort, scaled so deep transformers stay
    /// tractable: the cost of one SA iteration grows with layer and
    /// tensor count, so the effort shrinks correspondingly.
    /// `effort_scale` multiplies the result.
    pub fn effort_for(&self, net: &Network) -> f64 {
        let layers = net.len() as f64;
        // Budget roughly constant total work: ~8000 stage-1 iterations.
        // SoMa's space is far larger than Cocco's, so starving both
        // equally (the paper runs beta = 100, i.e. effort 1.0, for 2 days
        // on 192 cores) flatters the baseline; this is the smallest
        // budget where SoMa's advantage is stable across the suite.
        let base = (120.0 / layers).clamp(0.004, 1.0);
        base * self.effort_scale
    }

    /// Search configuration for one (workload, platform, batch) cell.
    pub fn config_for(&self, net: &Network, seed_salt: u64) -> SearchConfig {
        SearchConfig {
            effort: self.effort_for(net),
            seed: self.seed ^ seed_salt,
            stage2_cap: 50_000,
            max_allocator_iters: 4,
            ..SearchConfig::default()
        }
    }

    /// Whether a network passes the `workload` substring filter
    /// (matched against the bare network name; see
    /// [`selects_id`](Self::selects_id) for full scenario-id matching).
    pub fn selects(&self, net: &Network) -> bool {
        self.selects_id(net.name())
    }

    /// Whether a scenario id (or any name fragment) passes the
    /// `workload` filter: a **case-insensitive substring** match, so
    /// `resnet` selects both ResNet variants, `@edge` selects every
    /// edge-platform scenario and `/b4` one batch size.
    pub fn selects_id(&self, id: &str) -> bool {
        self.workload.is_empty()
            || id.to_ascii_lowercase().contains(&self.workload.to_ascii_lowercase())
    }
}

/// The two evaluation platforms of the paper (Sec. VI-A1).
pub fn platforms() -> Vec<HardwareConfig> {
    vec![HardwareConfig::edge(), HardwareConfig::cloud()]
}

/// Workloads for a platform (paper Fig. 6), resolved through the
/// scenario registry: edge-derived platforms run the edge suite
/// (GPT-2-Small at 512 tokens), everything else the cloud suite
/// (GPT-2-XL at 1024).
pub fn workloads(platform: &HardwareConfig, batch: u32) -> Vec<Network> {
    let preset = Preset::of(platform).unwrap_or(Preset::Cloud);
    suite(preset, batch).iter().map(Scenario::network).collect()
}

/// The registry key for one harness output row: the stable scenario id
/// when `platform` *is* a registry preset, otherwise the same shape with
/// the resolved platform name (e.g. a fig7 sweep point
/// `resnet50@edge-8MB-32GBps/b4`).
pub fn scenario_key(platform: &HardwareConfig, workload: &str, batch: u32) -> String {
    match Preset::of(platform) {
        Some(p) if p.config() == *platform => soma_spec::scenario_id(workload, p, batch),
        _ => format!("{workload}@{}/b{batch}", platform.name),
    }
}

/// A simple deterministic hash for seed salting.
pub fn salt(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for p in parts {
        for b in p.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// An experiment spec run the way the `run` binary runs it: [`run_cells`]
/// over the spec's cells with no ledger.
#[cfg(test)]
mod experiment {
    mod tests {
        use std::sync::atomic::AtomicBool;

        use soma_search::{Scheduler, SearchConfig};
        use soma_spec::{read_experiment, ExperimentSpec};

        use crate::{run_cells, LabEvent, LabSummary};

        const SPEC: &str =
            "soma-experiment v1\nname t\nscenario fig2@edge/b1\nseeds 7\neffort 0.01\nend\n";

        fn run(spec: &ExperimentSpec, observer: impl FnMut(&LabEvent) + Send) -> LabSummary {
            run_cells(spec, spec.cells(), None, &AtomicBool::new(false), None, observer)
                .expect("no ledger, no I/O")
        }

        #[test]
        fn spec_run_equals_hand_written_driver() {
            let spec = read_experiment(SPEC).unwrap();
            let rows = run(&spec, |_| {}).rows;
            assert_eq!(rows.len(), 1);

            let net = soma_model::zoo::fig2(1);
            let hw = soma_arch::HardwareConfig::edge();
            let cfg = SearchConfig { effort: 0.01, seed: 7, ..SearchConfig::default() };
            let direct = Scheduler::new(&net, &hw).config(cfg).run();
            let got = &rows[0].outcome;
            assert_eq!(got.best.encoding, direct.best.encoding);
            assert_eq!(got.best.report, direct.best.report);
            assert_eq!(got.best.cost.to_bits(), direct.best.cost.to_bits());
            assert_eq!(got.evals, direct.evals);
        }

        #[test]
        fn sequential_driver_emits_the_lab_event_protocol() {
            let spec = read_experiment(SPEC).unwrap();
            let mut events = Vec::new();
            run(&spec, |ev| events.push(ev.clone()));
            assert!(matches!(&events[0], LabEvent::Queued { cell, .. } if cell == "fig2@edge/b1"));
            assert!(matches!(&events[1], LabEvent::Started { .. }));
            assert!(matches!(&events[2], LabEvent::Finished { evals, .. } if *evals > 0));
            assert_eq!(events.len(), 3, "no Cached events without a ledger");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soma_model::zoo;

    #[test]
    fn effort_shrinks_with_depth() {
        let rc = RunConfig::default();
        let small = zoo::fig2(1);
        let big = zoo::gpt2_xl_prefill(1, 64);
        assert!(rc.effort_for(&small) > rc.effort_for(&big));
    }

    #[test]
    fn effort_scale_multiplies() {
        let net = zoo::fig2(1);
        let base = RunConfig::default();
        let scaled = RunConfig { effort_scale: 0.5, ..RunConfig::default() };
        assert!((scaled.effort_for(&net) - 0.5 * base.effort_for(&net)).abs() < 1e-12);
    }

    #[test]
    fn salt_is_deterministic_and_distinguishes() {
        assert_eq!(salt(&["a", "b"]), salt(&["a", "b"]));
        assert_ne!(salt(&["a"]), salt(&["b"]));
    }

    #[test]
    fn platforms_match_paper() {
        let p = platforms();
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].peak_tops(), 16.0);
        assert_eq!(p[1].peak_tops(), 128.0);
    }

    #[test]
    fn workload_filter_matches_substrings() {
        let rc = RunConfig { workload: "fig2".into(), ..RunConfig::default() };
        assert!(rc.selects(&zoo::fig2(1)));
        assert!(!rc.selects(&zoo::fig4(1)));
        assert!(RunConfig::default().selects(&zoo::fig4(1)));
    }

    #[test]
    fn workload_filter_is_case_insensitive() {
        let rc = RunConfig { workload: "ResNet".into(), ..RunConfig::default() };
        assert!(rc.selects(&zoo::resnet50(1)));
        assert!(rc.selects_id("resnet101@cloud/b4"));
        assert!(!rc.selects(&zoo::fig2(1)));
    }

    #[test]
    fn workload_filter_matches_scenario_id_parts() {
        let edge = RunConfig { workload: "@edge".into(), ..RunConfig::default() };
        assert!(edge.selects_id("fig2@edge/b1"));
        assert!(!edge.selects_id("fig2@cloud/b1"));
        let b4 = RunConfig { workload: "/b4".into(), ..RunConfig::default() };
        assert!(b4.selects_id("fig2@edge/b4"));
        assert!(!b4.selects_id("fig2@edge/b1"));
    }

    #[test]
    fn scenario_keys_use_registry_ids_for_presets() {
        let edge = HardwareConfig::edge();
        assert_eq!(scenario_key(&edge, "resnet50", 4), "resnet50@edge/b4");
        let swept = HardwareConfig::builder()
            .like(&edge)
            .name("edge-8MB-32GBps")
            .buffer_mib(8)
            .dram_gbps(32.0)
            .build();
        // A derived sweep point is not the registry preset: keyed by its
        // resolved name instead.
        assert_eq!(scenario_key(&swept, "resnet50", 4), "resnet50@edge-8MB-32GBps/b4");
    }

    #[test]
    fn batch_grid_tracks_full_flag() {
        assert_eq!(RunConfig::default().batch_sizes(), vec![1, 4]);
        let full = RunConfig { full: true, ..RunConfig::default() };
        assert_eq!(full.batch_sizes(), vec![1, 4, 16, 64]);
    }

    #[test]
    fn config_for_salts_the_seed() {
        let rc = RunConfig::default();
        let net = zoo::fig2(1);
        let a = rc.config_for(&net, salt(&["a"]));
        let b = rc.config_for(&net, salt(&["b"]));
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.effort, b.effort);
    }

    #[test]
    fn env_parse_error_is_descriptive() {
        let e = EnvParseError { key: "SOMA_EFFORT", value: "fast".into(), expected: "a float" };
        let msg = e.to_string();
        assert!(msg.contains("SOMA_EFFORT"));
        assert!(msg.contains("fast"));
    }
}
