//! Hardware configuration of the accelerator template.

use crate::energy::EnergyModel;

/// Complete description of one accelerator instance.
///
/// All rates are expressed per clock cycle so the simulator can work in
/// integer cycles. Construct via the presets or [`HardwareConfig::builder`].
///
/// ```
/// use soma_arch::HardwareConfig;
///
/// let hw = HardwareConfig::edge();
/// assert_eq!(hw.peak_tops(), 16.0);
/// assert_eq!(hw.buffer_bytes, 8 << 20);
/// let big = HardwareConfig::builder().like(&hw).buffer_mib(32).build();
/// assert_eq!(big.buffer_bytes, 32 << 20);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareConfig {
    /// Configuration name (for reports).
    pub name: String,
    /// Clock frequency in Hz (paper default: 1 GHz).
    pub freq_hz: u64,
    /// Number of cores sharing the GBUF.
    pub cores: u32,
    /// Peak multiply-accumulates per cycle across all cores
    /// (`2 * macs_per_cycle * freq = peak ops/s`).
    pub macs_per_cycle: u64,
    /// Channel-parallel lanes of each core's PE array (KC mapping): output
    /// channels processed concurrently.
    pub kc_parallel: u32,
    /// Spatial positions each core processes concurrently
    /// (`macs_per_cycle = cores * kc_parallel * spatial_parallel`).
    pub spatial_parallel: u32,
    /// Vector-unit throughput in elements per cycle (all cores combined).
    pub vector_lanes: u64,
    /// Global buffer capacity in bytes.
    pub buffer_bytes: u64,
    /// GBUF bandwidth available to the cores, bytes per cycle.
    pub gbuf_bytes_per_cycle: u64,
    /// DRAM bandwidth in bytes per cycle.
    pub dram_bytes_per_cycle: u64,
    /// Aggregate weight-L0 capacity in bytes.
    pub wl0_bytes: u64,
    /// Aggregate activation-L0 capacity in bytes.
    pub al0_bytes: u64,
    /// Unit-energy model.
    pub energy: EnergyModel,
}

impl HardwareConfig {
    /// Starts building a configuration from scratch.
    pub fn builder() -> HardwareConfigBuilder {
        HardwareConfigBuilder::default()
    }

    /// The paper's edge platform: 16 TOPS, 8 MB GBUF, 16 GB/s DRAM, 1 GHz.
    pub fn edge() -> Self {
        HardwareConfigBuilder::default()
            .name("edge-16tops")
            .tops(16.0)
            .cores(8)
            .buffer_mib(8)
            .dram_gbps(16.0)
            .build()
    }

    /// The paper's cloud platform: 128 TOPS, 32 MB GBUF, 128 GB/s DRAM.
    pub fn cloud() -> Self {
        HardwareConfigBuilder::default()
            .name("cloud-128tops")
            .tops(128.0)
            .cores(32)
            .buffer_mib(32)
            .dram_gbps(128.0)
            .build()
    }

    /// Peak throughput in TOPS (2 ops per MAC).
    pub fn peak_tops(&self) -> f64 {
        2.0 * self.macs_per_cycle as f64 * self.freq_hz as f64 / 1e12
    }

    /// Peak operations per cycle (2 ops per MAC).
    pub fn peak_ops_per_cycle(&self) -> u64 {
        2 * self.macs_per_cycle
    }

    /// Cycles to transfer `bytes` over DRAM (ceiling).
    pub fn dram_cycles(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.dram_bytes_per_cycle.max(1))
    }

    /// Cycles to move `bytes` between GBUF and the cores (ceiling).
    pub fn gbuf_cycles(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.gbuf_bytes_per_cycle.max(1))
    }

    /// Converts a cycle count to seconds.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_hz as f64
    }
}

/// Builder for [`HardwareConfig`]; defaults follow the edge preset scale.
#[derive(Debug, Clone)]
pub struct HardwareConfigBuilder {
    cfg: HardwareConfig,
}

impl Default for HardwareConfigBuilder {
    fn default() -> Self {
        let cores = 8;
        Self {
            cfg: HardwareConfig {
                name: "custom".into(),
                freq_hz: 1_000_000_000,
                cores,
                macs_per_cycle: 8_192,
                kc_parallel: 32,
                spatial_parallel: 32,
                vector_lanes: 2_048,
                buffer_bytes: 8 << 20,
                gbuf_bytes_per_cycle: 512,
                dram_bytes_per_cycle: 16,
                wl0_bytes: (8 * 64) << 10,
                al0_bytes: (8 * 64) << 10,
                energy: EnergyModel::tsmc12(),
            },
        }
    }
}

impl HardwareConfigBuilder {
    /// Copies every field from an existing configuration.
    pub fn like(mut self, other: &HardwareConfig) -> Self {
        self.cfg = other.clone();
        self
    }

    /// Sets the configuration name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.cfg.name = name.into();
        self
    }

    /// Sets peak throughput in TOPS (at the configured frequency) and
    /// derives the PE-array parallelism split.
    pub fn tops(mut self, tops: f64) -> Self {
        let macs = (tops * 1e12 / 2.0 / self.cfg.freq_hz as f64).round() as u64;
        self.cfg.macs_per_cycle = macs.max(1);
        self.rebalance();
        self
    }

    /// Sets the core count and rebalances per-core parallelism.
    pub fn cores(mut self, cores: u32) -> Self {
        self.cfg.cores = cores.max(1);
        self.rebalance();
        self
    }

    /// Sets GBUF capacity in MiB.
    pub fn buffer_mib(mut self, mib: u64) -> Self {
        self.cfg.buffer_bytes = mib << 20;
        self
    }

    /// Sets GBUF capacity in bytes.
    pub fn buffer_bytes(mut self, bytes: u64) -> Self {
        self.cfg.buffer_bytes = bytes;
        self
    }

    /// Sets DRAM bandwidth in GB/s (at 1 GHz this equals bytes/cycle).
    pub fn dram_gbps(mut self, gbps: f64) -> Self {
        let bpc = (gbps * 1e9 / self.cfg.freq_hz as f64).round() as u64;
        self.cfg.dram_bytes_per_cycle = bpc.max(1);
        self
    }

    /// Sets the energy model.
    pub fn energy(mut self, e: EnergyModel) -> Self {
        self.cfg.energy = e;
        self
    }

    /// Splits `macs_per_cycle` into cores x kc x spatial and scales the
    /// vector unit and GBUF/L0 budgets with compute.
    fn rebalance(&mut self) {
        let per_core = (self.cfg.macs_per_cycle / u64::from(self.cfg.cores)).max(1);
        // Favour a square-ish split, KC first (common commercial layout).
        let mut kc = 1u64;
        while kc * kc < per_core && kc < 128 {
            kc *= 2;
        }
        let spatial = (per_core / kc).max(1);
        self.cfg.kc_parallel = kc as u32;
        self.cfg.spatial_parallel = spatial as u32;
        self.cfg.vector_lanes = (self.cfg.macs_per_cycle / 4).max(64);
        // GBUF must feed the array: 1 byte per 16 MACs plus margin.
        self.cfg.gbuf_bytes_per_cycle = (self.cfg.macs_per_cycle / 16).max(64);
        self.cfg.wl0_bytes = u64::from(self.cfg.cores) * (64 << 10);
        self.cfg.al0_bytes = u64::from(self.cfg.cores) * (64 << 10);
    }

    /// Finalises the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any capacity or rate is zero (builder misuse).
    pub fn build(self) -> HardwareConfig {
        let c = &self.cfg;
        assert!(c.buffer_bytes > 0, "buffer must be non-empty");
        assert!(c.dram_bytes_per_cycle > 0, "DRAM bandwidth must be non-zero");
        assert!(c.macs_per_cycle > 0, "compute must be non-zero");
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let e = HardwareConfig::edge();
        assert_eq!(e.peak_tops(), 16.0);
        assert_eq!(e.buffer_bytes, 8 << 20);
        assert_eq!(e.dram_bytes_per_cycle, 16); // 16 GB/s at 1 GHz
        let c = HardwareConfig::cloud();
        assert_eq!(c.peak_tops(), 128.0);
        assert_eq!(c.buffer_bytes, 32 << 20);
        assert_eq!(c.dram_bytes_per_cycle, 128);
    }

    #[test]
    fn parallelism_product_matches_peak() {
        for hw in [HardwareConfig::edge(), HardwareConfig::cloud()] {
            let product =
                u64::from(hw.cores) * u64::from(hw.kc_parallel) * u64::from(hw.spatial_parallel);
            // Split is power-of-two rounded; must be within 2x of peak.
            assert!(product <= hw.macs_per_cycle);
            assert!(product * 2 > hw.macs_per_cycle, "{product} vs {}", hw.macs_per_cycle);
        }
    }

    #[test]
    fn dram_cycles_ceil() {
        let hw = HardwareConfig::edge();
        assert_eq!(hw.dram_cycles(0), 0);
        assert_eq!(hw.dram_cycles(1), 1);
        assert_eq!(hw.dram_cycles(16), 1);
        assert_eq!(hw.dram_cycles(17), 2);
    }

    #[test]
    fn builder_sweep_axes() {
        let base = HardwareConfig::edge();
        for mib in [2u64, 4, 8, 16, 32, 64] {
            let hw = HardwareConfig::builder().like(&base).buffer_mib(mib).build();
            assert_eq!(hw.buffer_bytes, mib << 20);
            assert_eq!(hw.dram_bytes_per_cycle, base.dram_bytes_per_cycle);
        }
        for gbps in [4.0, 8.0, 16.0, 32.0, 64.0, 128.0] {
            let hw = HardwareConfig::builder().like(&base).dram_gbps(gbps).build();
            assert_eq!(hw.dram_bytes_per_cycle, gbps as u64);
        }
    }
}
