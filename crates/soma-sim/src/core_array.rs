//! Intra-tile scheduling and evaluation: the Core Array Scheduler &
//! Evaluator of the paper's Sec. V-D.
//!
//! For one computing tile (ifmaps and weights already in the GBUF, ofmap
//! written back to the GBUF), the scheduler picks how the core group
//! blocks the tile through the per-core L0 buffers, choosing among
//! stationarity candidates to minimise GBUF traffic; the evaluator derives
//! cycles (compute vs GBUF-bandwidth bound) and energy.
//!
//! The paper adopts "a classic scheduler and evaluator" [Timeloop,
//! MAESTRO] here; this is an analytical equivalent exposing the same two
//! behaviours the experiments rely on: small tiles lose PE-array
//! utilisation to lane quantisation, and small tiles lose GBUF traffic to
//! re-fetching (less on-chip reuse). Results are memoised per
//! (layer, tile shape).

use std::collections::HashMap;

use soma_arch::HardwareConfig;
use soma_core::{Tile, TileShape};

/// Cost of one computing tile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileCost {
    /// Cycles the tile occupies the core group.
    pub cycles: u64,
    /// Energy in picojoules (MACs/vector ops + L0 + GBUF).
    pub energy_pj: f64,
    /// GBUF bytes moved (for diagnostics).
    pub gbuf_bytes: u64,
}

/// Memoising intra-tile evaluator bound to one hardware configuration.
#[derive(Debug)]
pub struct CoreArrayModel<'hw> {
    hw: &'hw HardwareConfig,
    cache: HashMap<(u32, TileShape), TileCost>,
}

/// Lane-quantisation efficiency: how well `work` items fill `lanes`
/// parallel lanes (`work / (ceil(work/lanes) * lanes)`).
fn quantisation(work: u64, lanes: u64) -> f64 {
    if work == 0 || lanes == 0 {
        return 1.0;
    }
    let waves = work.div_ceil(lanes);
    work as f64 / (waves * lanes) as f64
}

impl<'hw> CoreArrayModel<'hw> {
    /// Creates a model for the given hardware.
    pub fn new(hw: &'hw HardwareConfig) -> Self {
        Self { hw, cache: HashMap::new() }
    }

    /// The hardware this model evaluates against.
    pub fn hardware(&self) -> &HardwareConfig {
        self.hw
    }

    /// Number of memoised entries.
    #[cfg(test)]
    fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Evaluates one tile, memoised on `(layer, shape)`.
    pub fn cost(&mut self, tile: &Tile) -> TileCost {
        let key = (tile.layer.0, tile.shape);
        if let Some(&c) = self.cache.get(&key) {
            return c;
        }
        let c = if tile.on_pe { self.pe_cost(tile) } else { self.vector_cost(tile) };
        self.cache.insert(key, c);
        c
    }

    /// GEMM/Conv tile on the PE array.
    fn pe_cost(&self, tile: &Tile) -> TileCost {
        let hw = self.hw;
        let macs = tile.ops / 2;
        // Spatial positions spread across cores; output channels across
        // each core's KC lanes.
        let spatial = u64::from(tile.shape.n) * u64::from(tile.shape.h) * u64::from(tile.shape.w);
        let eff_c = quantisation(u64::from(tile.shape.c), u64::from(hw.kc_parallel));
        let eff_s = quantisation(spatial, u64::from(hw.cores) * u64::from(hw.spatial_parallel));
        let eff = (eff_c * eff_s).max(1e-3);
        let compute_cycles = ((macs as f64) / (hw.macs_per_cycle as f64 * eff)).ceil() as u64;

        // GBUF traffic under the best stationarity candidate.
        let w = tile.weight_bytes;
        let i = tile.in_bytes;
        let o = tile.out_bytes;
        let w_passes = if w == 0 { 1 } else { w.div_ceil(hw.wl0_bytes).max(1) };
        let i_passes = i.div_ceil(hw.al0_bytes).max(1);
        // Weight-stationary: ifmaps re-streamed once per weight block.
        let ws = w + i * w_passes + o;
        // Input-stationary: weights re-streamed once per ifmap block.
        let is = i + w * i_passes + o;
        let traffic = ws.min(is);
        let gbuf_cycles = hw.gbuf_cycles(traffic);

        let cycles = compute_cycles.max(gbuf_cycles).max(1);
        // L0 energy: one ifmap byte and one weight byte per MAC (INT8),
        // partial sums accumulate in registers; ofmap drains once.
        let l0_bytes = 2 * macs + o;
        let energy_pj = macs as f64 * hw.energy.mac_pj
            + traffic as f64 * hw.energy.gbuf_pj_per_byte
            + l0_bytes as f64 * hw.energy.l0_pj_per_byte;
        TileCost { cycles, energy_pj, gbuf_bytes: traffic }
    }

    /// Pooling/element-wise/normalisation tile on the vector unit.
    fn vector_cost(&self, tile: &Tile) -> TileCost {
        let hw = self.hw;
        let compute_cycles = tile.ops.div_ceil(hw.vector_lanes);
        let traffic = tile.in_bytes + tile.out_bytes;
        let gbuf_cycles = hw.gbuf_cycles(traffic);
        let cycles = compute_cycles.max(gbuf_cycles).max(1);
        let energy_pj =
            tile.ops as f64 * hw.energy.vector_pj + traffic as f64 * hw.energy.gbuf_pj_per_byte;
        TileCost { cycles, energy_pj, gbuf_bytes: traffic }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soma_core::{parse_lfa, Lfa};
    use soma_model::zoo;

    fn tiles(tiling: u32) -> Vec<Tile> {
        let net = zoo::fig2(1);
        let plan = parse_lfa(&net, &Lfa::fully_fused(&net, tiling)).unwrap();
        plan.tiles
    }

    #[test]
    fn quantisation_properties() {
        assert_eq!(quantisation(128, 128), 1.0);
        assert_eq!(quantisation(64, 128), 0.5);
        assert!((quantisation(129, 128) - 129.0 / 256.0).abs() < 1e-12);
        assert_eq!(quantisation(0, 128), 1.0);
    }

    #[test]
    fn memoisation_hits() {
        let hw = HardwareConfig::edge();
        let mut m = CoreArrayModel::new(&hw);
        let ts = tiles(4);
        for t in &ts {
            m.cost(t);
        }
        // 3 layers x 1 distinct shape each.
        assert_eq!(m.cache_len(), 3);
    }

    #[test]
    fn coarser_tiles_are_more_efficient() {
        // Total cycles for the same work must not increase with coarser
        // tiling (more reuse, better lane fill).
        let hw = HardwareConfig::edge();
        let mut m = CoreArrayModel::new(&hw);
        let total = |tiling: u32, m: &mut CoreArrayModel| -> u64 {
            tiles(tiling).iter().map(|t| m.cost(t).cycles).sum()
        };
        let coarse = total(1, &mut m);
        let fine = total(64, &mut m);
        assert!(fine > coarse, "fine tiling {fine} should cost more cycles than coarse {coarse}");
    }

    #[test]
    fn vector_tiles_do_not_use_pe() {
        let net = zoo::fig4(1);
        let plan = parse_lfa(&net, &Lfa::unfused(&net, 1)).unwrap();
        let hw = HardwareConfig::edge();
        let mut m = CoreArrayModel::new(&hw);
        let pool_tile = plan.tiles.iter().find(|t| !t.on_pe).expect("fig4 has a pool");
        let c = m.cost(pool_tile);
        assert!(c.cycles >= 1);
        assert!(c.energy_pj > 0.0);
    }

    #[test]
    fn energy_scales_with_work() {
        let hw = HardwareConfig::edge();
        let mut m = CoreArrayModel::new(&hw);
        let ts = tiles(4);
        let big = m.cost(&ts[2]); // layer C: 128 output channels
        let small = m.cost(&ts[0]); // layer A: 64 channels
        assert!(big.energy_pj > small.energy_pj * 0.5);
    }
}
