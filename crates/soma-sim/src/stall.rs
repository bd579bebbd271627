//! Compute-stall attribution: *why* is the core group waiting?
//!
//! The paper's Sec. VII-B2 analysis reasons about which DRAM tensors cause
//! which stalls ("precise surgical strikes on some key tensors"). This
//! module reconstructs that attribution from a simulated timeline: every
//! gap before a compute tile is charged to the DRAM tensor whose
//! completion released the tile (a load the tile consumes, or a store
//! whose `End` gates it).

use soma_core::{ComputePlan, Dlsa, DramKind};

use crate::timeline::{gate_table, Timeline};

/// What a compute gap was waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// Waiting for a load (weights or ifmap) the tile consumes.
    Load {
        /// Canonical DRAM-tensor index.
        tensor: u32,
        /// What the tensor is.
        kind: DramKind,
    },
    /// Waiting for a store whose living-duration `End` gates the tile.
    Store {
        /// Canonical DRAM-tensor index.
        tensor: u32,
        /// What the tensor is.
        kind: DramKind,
    },
}

/// One attributed compute stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stall {
    /// The tile whose start was delayed.
    pub tile: u32,
    /// Stalled cycles (gap between previous tile's end and this start).
    pub cycles: u64,
    /// The releasing tensor.
    pub cause: StallCause,
}

/// Aggregate stall statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallSummary {
    /// Total stalled cycles attributed to weight loads.
    pub weight_cycles: u64,
    /// Total stalled cycles attributed to ifmap loads.
    pub ifmap_cycles: u64,
    /// Total stalled cycles attributed to ofmap stores.
    pub store_cycles: u64,
}

impl StallSummary {
    /// Total attributed stall cycles.
    pub fn total(&self) -> u64 {
        self.weight_cycles + self.ifmap_cycles + self.store_cycles
    }
}

/// Attributes every compute gap in `tl` to the gating DRAM tensor that
/// finished last before the tile started.
pub fn attribute_stalls(plan: &ComputePlan, dlsa: &Dlsa, tl: &Timeline) -> Vec<Stall> {
    let gates = gate_table(plan, dlsa);
    let mut out = Vec::new();
    let mut prev_end = 0u64;
    for (tile, tile_gates) in gates.iter().enumerate() {
        let start = tl.tile_start[tile];
        let gap = start.saturating_sub(prev_end);
        prev_end = tl.tile_end[tile];
        if gap == 0 {
            continue;
        }
        // The releasing tensor: the gate finishing exactly at `start`
        // (or, failing an exact match, the latest-finishing gate).
        let releaser = tile_gates.iter().copied().max_by_key(|&g| tl.tensor_end[g as usize]);
        let Some(g) = releaser else { continue };
        let t = &plan.dram_tensors[g as usize];
        if tl.tensor_end[g as usize] < start {
            continue; // released by the previous tile, not by DRAM
        }
        let cause = if t.is_load {
            StallCause::Load { tensor: g, kind: t.kind }
        } else {
            StallCause::Store { tensor: g, kind: t.kind }
        };
        out.push(Stall { tile: tile as u32, cycles: gap, cause });
    }
    out
}

/// Rolls stalls up by cause class.
pub fn summarize(stalls: &[Stall]) -> StallSummary {
    let mut s = StallSummary::default();
    for st in stalls {
        match st.cause {
            StallCause::Load { kind: DramKind::Weight(_), .. } => s.weight_cycles += st.cycles,
            StallCause::Load { .. } => s.ifmap_cycles += st.cycles,
            StallCause::Store { .. } => s.store_cycles += st.cycles,
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core_array::CoreArrayModel;
    use crate::timeline::simulate;
    use soma_arch::HardwareConfig;
    use soma_core::{parse_lfa, Lfa};
    use soma_model::zoo;

    fn run(tiling: u32) -> (ComputePlan, Dlsa, Timeline) {
        let net = zoo::fig2(1);
        let plan = parse_lfa(&net, &Lfa::unfused(&net, tiling)).unwrap();
        let dlsa = Dlsa::double_buffer(&plan);
        let hw = HardwareConfig::edge();
        let mut m = CoreArrayModel::new(&hw);
        let tl = simulate(&plan, &dlsa, &hw, &mut m).unwrap();
        (plan, dlsa, tl)
    }

    #[test]
    fn attributed_stalls_never_exceed_total_gap() {
        let (plan, dlsa, tl) = run(4);
        let stalls = attribute_stalls(&plan, &dlsa, &tl);
        let attributed: u64 = stalls.iter().map(|s| s.cycles).sum();
        assert!(attributed <= tl.compute_stall());
    }

    #[test]
    fn weight_loads_dominate_first_tile_stall() {
        // Unfused double-buffer on a DRAM-bound edge config: the first
        // tile of each layer waits on weights/ifmaps.
        let (plan, dlsa, tl) = run(4);
        let stalls = attribute_stalls(&plan, &dlsa, &tl);
        assert!(!stalls.is_empty());
        let summary = summarize(&stalls);
        assert!(summary.total() > 0);
        assert_eq!(summary.total(), stalls.iter().map(|s| s.cycles).sum::<u64>());
    }

    #[test]
    fn eager_prefetch_reduces_attributed_stall() {
        let (plan, mut dlsa, tl) = run(4);
        let before = summarize(&attribute_stalls(&plan, &dlsa, &tl)).total();
        for (i, t) in plan.dram_tensors.iter().enumerate() {
            if t.is_load {
                dlsa.start[i] = 0;
            }
        }
        let hw = HardwareConfig::edge();
        let mut m = CoreArrayModel::new(&hw);
        let tl2 = simulate(&plan, &dlsa, &hw, &mut m).unwrap();
        let after = summarize(&attribute_stalls(&plan, &dlsa, &tl2)).total();
        assert!(after <= before);
    }
}
