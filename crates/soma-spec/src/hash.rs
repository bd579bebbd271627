//! Stable content hashing for experiment cells — the run ledger's cache
//! key.
//!
//! A ledger row may only be reused when *everything* that determines a
//! cell's search outcome is unchanged: the scenario (network + batch via
//! its id), the fully resolved hardware configuration (so an override
//! like `buffer_mib=16` produces a different key than the bare preset),
//! the complete [`SearchConfig`], the seed portfolio, and the engine
//! version ([`soma_search::ENGINE_VERSION`], bumped whenever search
//! semantics change). The hash is an FNV-1a 64 over a canonical
//! `key=value` rendering of all of those — deterministic across runs,
//! processes and platforms, and independent of struct layout.
//!
//! Floats render through Rust's shortest-round-trip `Display`, so two
//! configurations hash equally iff their values are bit-equal (modulo
//! `-0.0`/`0.0`, which never occur in configs).

use std::fmt::Write as _;

use soma_arch::HardwareConfig;
use soma_search::SearchConfig;

/// FNV-1a 64-bit over a byte string: the cell and inline-spec hash,
/// the ledger's frame and index checksum and the fault plans' roll.
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Canonical `key=value` rendering of a resolved hardware configuration:
/// every field, in declaration order. Two configurations fingerprint
/// equally iff they are `==`.
pub fn hardware_fingerprint(hw: &HardwareConfig) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "name={};freq_hz={};cores={};macs_per_cycle={};kc_parallel={};spatial_parallel={};\
         vector_lanes={};buffer_bytes={};gbuf_bytes_per_cycle={};dram_bytes_per_cycle={};\
         wl0_bytes={};al0_bytes={};mac_pj={};vector_pj={};gbuf_pj_per_byte={};l0_pj_per_byte={};\
         dram_read_pj_per_byte={};dram_write_pj_per_byte={}",
        hw.name,
        hw.freq_hz,
        hw.cores,
        hw.macs_per_cycle,
        hw.kc_parallel,
        hw.spatial_parallel,
        hw.vector_lanes,
        hw.buffer_bytes,
        hw.gbuf_bytes_per_cycle,
        hw.dram_bytes_per_cycle,
        hw.wl0_bytes,
        hw.al0_bytes,
        hw.energy.mac_pj,
        hw.energy.vector_pj,
        hw.energy.gbuf_pj_per_byte,
        hw.energy.l0_pj_per_byte,
        hw.energy.dram_read_pj_per_byte,
        hw.energy.dram_write_pj_per_byte,
    );
    s
}

/// Canonical `key=value` rendering of a complete search configuration.
pub fn config_fingerprint(cfg: &SearchConfig) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "energy_exp={};delay_exp={};seed={};effort={};t0={};alpha={};allocator_step={};\
         max_allocator_iters={};stage1_cap={};stage2_cap={};link_cuts={};time_budget={}",
        cfg.weights.energy_exp,
        cfg.weights.delay_exp,
        cfg.seed,
        cfg.effort,
        cfg.t0,
        cfg.alpha,
        cfg.allocator_step,
        cfg.max_allocator_iters,
        cfg.stage1_cap,
        cfg.stage2_cap,
        u8::from(cfg.link_cuts),
        cfg.stage_time_budget_secs,
    );
    s
}

/// The content hash of one experiment cell under one search
/// configuration, seed portfolio and engine version.
pub fn cell_hash(
    cell_id: &str,
    hw: &HardwareConfig,
    cfg: &SearchConfig,
    seeds: &[u64],
    engine_version: &str,
) -> u64 {
    let mut s = String::new();
    let _ = write!(
        s,
        "cell={cell_id}\u{1f}hw={}\u{1f}cfg={}\u{1f}seeds=",
        hardware_fingerprint(hw),
        config_fingerprint(cfg)
    );
    for (i, seed) in seeds.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{seed}");
    }
    let _ = write!(s, "\u{1f}engine={engine_version}");
    fnv1a(s.bytes())
}

/// The scenario id of an **inline** scheduling request: a network that
/// arrives as spec text (`soma-network v1`) instead of a registry id,
/// as the `soma-serve` protocol allows. Registry ids identify their
/// network by construction; an inline id must do the same, so it embeds
/// a content hash of the network text — two requests share a
/// [`cell_hash`] (and therefore a ledger row) iff their network text,
/// hardware, configuration and seeds are all identical.
pub fn inline_scenario_id(network_text: &str, hw: &HardwareConfig) -> String {
    format!("inline-{:016x}@{}", fnv1a(network_text.bytes()), hw.name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> (HardwareConfig, SearchConfig) {
        (HardwareConfig::edge(), SearchConfig::default())
    }

    #[test]
    fn hash_is_deterministic() {
        let (hw, cfg) = base();
        let a = cell_hash("fig2@edge/b1", &hw, &cfg, &[1, 2], "e1");
        let b = cell_hash("fig2@edge/b1", &hw, &cfg, &[1, 2], "e1");
        assert_eq!(a, b);
        let cell = crate::registry::lookup("fig2@edge/b1").unwrap().cell();
        let engine = soma_search::ENGINE_VERSION;
        let want = format!("{:016x}", cell_hash(&cell.id, &hw, &cfg, &[1, 2], engine));
        assert_eq!(crate::cell_key(&cell, &cfg, &[1, 2]), want);
    }

    #[test]
    fn every_input_perturbs_the_hash() {
        let (hw, cfg) = base();
        let k = cell_hash("fig2@edge/b1", &hw, &cfg, &[1], "e1");
        assert_ne!(k, cell_hash("fig2@edge/b4", &hw, &cfg, &[1], "e1"), "cell id");
        assert_ne!(k, cell_hash("fig2@edge/b1", &HardwareConfig::cloud(), &cfg, &[1], "e1"), "hw");
        let fat = HardwareConfig::builder().like(&hw).buffer_mib(16).build();
        assert_ne!(k, cell_hash("fig2@edge/b1", &fat, &cfg, &[1], "e1"), "hw override");
        let tuned = SearchConfig { effort: 0.5, ..cfg.clone() };
        assert_ne!(k, cell_hash("fig2@edge/b1", &hw, &tuned, &[1], "e1"), "config");
        assert_ne!(k, cell_hash("fig2@edge/b1", &hw, &cfg, &[2], "e1"), "seeds");
        assert_ne!(k, cell_hash("fig2@edge/b1", &hw, &cfg, &[1, 2], "e1"), "seed count");
        assert_ne!(k, cell_hash("fig2@edge/b1", &hw, &cfg, &[1], "e2"), "engine version");
    }

    #[test]
    fn seed_list_order_matters() {
        // The envelope best tie-breaks by list order, so [1,2] and [2,1]
        // are different experiments.
        let (hw, cfg) = base();
        assert_ne!(
            cell_hash("fig2@edge/b1", &hw, &cfg, &[1, 2], "e1"),
            cell_hash("fig2@edge/b1", &hw, &cfg, &[2, 1], "e1"),
        );
    }

    #[test]
    fn thread_policy_never_perturbs_the_hash() {
        // `Parallelism` changes wall-clock only — outcomes are
        // bit-identical across thread counts — so it is deliberately not
        // an input to `cell_hash`: a ledger warmed on a laptop stays
        // valid on a 64-core box. Specs differing only in their
        // `threads` directive must produce identical cache keys.
        use soma_search::Parallelism;
        let parse = |threads: &str| {
            crate::read_experiment(&format!(
                "soma-experiment v1\nname x\nscenario fig2@edge/b1\nseeds 7 8\n{threads}end\n"
            ))
            .unwrap()
        };
        let base = parse("");
        assert_eq!(base.parallelism, Parallelism::Auto);
        let key = |spec: &crate::ExperimentSpec| {
            let cell = &spec.cells()[0];
            cell_hash(&cell.id, &cell.hw, &spec.config, &spec.seeds, "e1")
        };
        for threads in ["threads seq\n", "threads 4\n", "threads 8\n", "threads auto\n"] {
            let spec = parse(threads);
            assert_eq!(key(&spec), key(&base), "`{}` changed the cache key", threads.trim());
        }
    }

    #[test]
    fn inline_ids_track_network_text_and_hardware() {
        let (hw, _) = base();
        let a = inline_scenario_id("soma-network v1\nname a\n...", &hw);
        assert_eq!(a, inline_scenario_id("soma-network v1\nname a\n...", &hw), "deterministic");
        assert_ne!(a, inline_scenario_id("soma-network v1\nname b\n...", &hw), "text perturbs");
        let cloud = HardwareConfig::cloud();
        assert_ne!(a, inline_scenario_id("soma-network v1\nname a\n...", &cloud), "hw perturbs");
        assert!(a.starts_with("inline-") && a.ends_with("@edge-16tops"), "{a}");
    }

    #[test]
    fn fingerprints_cover_equality() {
        let (hw, cfg) = base();
        assert_eq!(hardware_fingerprint(&hw), hardware_fingerprint(&HardwareConfig::edge()));
        assert_ne!(hardware_fingerprint(&hw), hardware_fingerprint(&HardwareConfig::cloud()));
        assert_eq!(config_fingerprint(&cfg), config_fingerprint(&SearchConfig::default()));
    }
}
