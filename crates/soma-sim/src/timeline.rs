//! The DRAM/COMPUTE timeline simulation (paper Sec. V-D).
//!
//! Two serial resources advance together:
//!
//! * **DRAM queue** — tensors execute strictly in DRAM Tensor Order. A
//!   tensor starts when (1) its predecessor finished, (2) for loads, the
//!   tile before its living-duration `Start` has finished (`Start = 0`
//!   starts immediately), (3) for stores, its producing tile has finished.
//! * **Compute queue** — tiles execute strictly in computing order. A tile
//!   starts when (1) the previous tile finished, (2) every load it
//!   consumes has completed, (3) every store whose `End` equals this tile
//!   has completed.
//!
//! Mutual waiting that can never resolve (a load queued behind a store of
//! a much later tile it itself gates) is reported as [`SimError::Deadlock`]
//! — such DLSAs are invalid schemes.

use soma_arch::HardwareConfig;
use soma_core::{ComputePlan, Dlsa};

use crate::core_array::CoreArrayModel;

/// Simulation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// The DRAM queue and compute queue wait on each other forever.
    Deadlock {
        /// Queue position (into the DLSA order) of the stuck DRAM tensor.
        dram_pos: usize,
        /// Global index of the stuck compute tile.
        tile: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { dram_pos, tile } => write!(
                f,
                "schedule deadlocks: DRAM queue position {dram_pos} and tile {tile} wait on each other"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Exact start/end times of every tensor and tile, in cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// Start cycle of each DRAM tensor (canonical index).
    pub tensor_start: Vec<u64>,
    /// End cycle of each DRAM tensor (canonical index).
    pub tensor_end: Vec<u64>,
    /// Start cycle of each compute tile (global index).
    pub tile_start: Vec<u64>,
    /// End cycle of each compute tile (global index).
    pub tile_end: Vec<u64>,
    /// Total latency: when both queues have drained.
    pub latency: u64,
    /// Sum of DRAM transfer durations (busy cycles).
    pub dram_busy: u64,
    /// Sum of tile compute durations (busy cycles).
    pub compute_busy: u64,
}

impl Timeline {
    /// Cycles during which the compute queue sits idle between tiles.
    pub fn compute_stall(&self) -> u64 {
        self.latency.saturating_sub(self.compute_busy)
    }
}

/// The DRAM tensors gating each tile, in ascending tensor index: its own
/// loads, and the stores whose living-duration `End` is that tile.
pub(crate) fn gate_table(plan: &ComputePlan, dlsa: &Dlsa) -> Vec<Vec<u32>> {
    let n_tiles = plan.tiles.len();
    let mut gates: Vec<Vec<u32>> = vec![Vec::new(); n_tiles];
    for (i, t) in plan.dram_tensors.iter().enumerate() {
        if t.is_load {
            gates[t.anchor as usize].push(i as u32);
        } else {
            let end = dlsa.end[i] as usize;
            if end < n_tiles {
                gates[end].push(i as u32);
            }
        }
    }
    gates
}

/// Plays the two queues forward. `costs` gives each tile's duration.
///
/// # Errors
///
/// [`SimError::Deadlock`] if the scheme's DRAM Tensor Order makes the two
/// queues wait on each other.
pub fn simulate(
    plan: &ComputePlan,
    dlsa: &Dlsa,
    hw: &HardwareConfig,
    model: &mut CoreArrayModel<'_>,
) -> Result<Timeline, SimError> {
    let n_tensors = plan.dram_tensors.len();
    let n_tiles = plan.tiles.len();

    let tile_cost: Vec<u64> = plan.tiles.iter().map(|t| model.cost(t).cycles).collect();
    let tensor_dur: Vec<u64> =
        plan.dram_tensors.iter().map(|t| hw.dram_cycles(t.bytes).max(1)).collect();

    let gates = gate_table(plan, dlsa);
    // Queue position of each tensor, to know whether a gate has been
    // simulated yet.
    let mut queue_pos = vec![usize::MAX; n_tensors];
    for (k, &ti) in dlsa.order.iter().enumerate() {
        queue_pos[ti as usize] = k;
    }

    let mut tensor_start = vec![0u64; n_tensors];
    let mut tensor_end = vec![0u64; n_tensors];
    let mut tile_start = vec![0u64; n_tiles];
    let mut tile_end = vec![0u64; n_tiles];

    let mut di = 0usize; // next queue position to serve
    let mut ci = 0usize; // next tile to run
    let mut prev_tensor_end = 0u64;
    let mut prev_tile_end = 0u64;

    while di < n_tensors || ci < n_tiles {
        let mut progressed = false;

        // Serve as many DRAM tensors as currently possible.
        while di < n_tensors {
            let ti = dlsa.order[di] as usize;
            let t = &plan.dram_tensors[ti];
            let gate_tile: Option<usize> = if t.is_load {
                let s = dlsa.start[ti] as usize;
                if s == 0 {
                    None
                } else {
                    Some(s - 1)
                }
            } else {
                Some(t.anchor as usize)
            };
            let gate_time = match gate_tile {
                None => 0,
                Some(g) if g < ci => tile_end[g],
                Some(_) => break, // gating tile not yet executed
            };
            let start = prev_tensor_end.max(gate_time);
            tensor_start[ti] = start;
            prev_tensor_end = start + tensor_dur[ti];
            tensor_end[ti] = prev_tensor_end;
            di += 1;
            progressed = true;
        }

        // Run as many tiles as currently possible.
        while ci < n_tiles {
            let mut ready = prev_tile_end;
            let mut blocked = false;
            for &g in &gates[ci] {
                if queue_pos[g as usize] < di {
                    ready = ready.max(tensor_end[g as usize]);
                } else {
                    blocked = true;
                    break;
                }
            }
            if blocked {
                break;
            }
            tile_start[ci] = ready;
            prev_tile_end = ready + tile_cost[ci];
            tile_end[ci] = prev_tile_end;
            ci += 1;
            progressed = true;
        }

        if !progressed {
            return Err(SimError::Deadlock { dram_pos: di, tile: ci });
        }
    }

    let latency = prev_tile_end.max(prev_tensor_end);
    Ok(Timeline {
        tensor_start,
        tensor_end,
        tile_start,
        tile_end,
        latency,
        dram_busy: tensor_dur.iter().sum(),
        compute_busy: tile_cost.iter().sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use soma_core::{parse_lfa, Dlsa, Lfa};
    use soma_model::zoo;

    fn setup(tiling: u32) -> (soma_model::Network, ComputePlan, Dlsa) {
        let net = zoo::fig2(1);
        let plan = parse_lfa(&net, &Lfa::unfused(&net, tiling)).unwrap();
        let dlsa = Dlsa::double_buffer(&plan);
        (net, plan, dlsa)
    }

    #[test]
    fn simulation_completes_and_orders_hold() {
        let (_, plan, dlsa) = setup(4);
        let hw = HardwareConfig::edge();
        let mut m = CoreArrayModel::new(&hw);
        let tl = simulate(&plan, &dlsa, &hw, &mut m).unwrap();
        // Tiles strictly ordered.
        for w in tl.tile_end.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // Queue order holds for tensors.
        let mut prev = 0;
        for &ti in &dlsa.order {
            assert!(tl.tensor_start[ti as usize] >= prev);
            prev = tl.tensor_end[ti as usize];
        }
        assert!(tl.latency >= tl.compute_busy);
        assert!(tl.latency >= tl.dram_busy);
    }

    #[test]
    fn loads_complete_before_their_tile() {
        let (_, plan, dlsa) = setup(4);
        let hw = HardwareConfig::edge();
        let mut m = CoreArrayModel::new(&hw);
        let tl = simulate(&plan, &dlsa, &hw, &mut m).unwrap();
        for (i, t) in plan.dram_tensors.iter().enumerate() {
            if t.is_load {
                assert!(
                    tl.tensor_end[i] <= tl.tile_start[t.anchor as usize],
                    "load {i} finishes after its consumer starts"
                );
            } else {
                assert!(tl.tensor_start[i] >= tl.tile_end[t.anchor as usize]);
            }
        }
    }

    #[test]
    fn store_end_constraint_blocks_tile() {
        let (_, plan, mut dlsa) = setup(4);
        let hw = HardwareConfig::edge();
        let mut m = CoreArrayModel::new(&hw);
        let base = simulate(&plan, &dlsa, &hw, &mut m).unwrap();
        // Tighten every store to End = anchor + 1: the very next tile must
        // wait for the store; latency cannot improve.
        for (i, t) in plan.dram_tensors.iter().enumerate() {
            if !t.is_load {
                dlsa.end[i] = t.anchor + 1;
            }
        }
        let tight = simulate(&plan, &dlsa, &hw, &mut m).unwrap();
        assert!(tight.latency >= base.latency);
    }

    #[test]
    fn eager_prefetch_cannot_hurt_latency() {
        let (_, plan, mut dlsa) = setup(4);
        let hw = HardwareConfig::edge();
        let mut m = CoreArrayModel::new(&hw);
        let base = simulate(&plan, &dlsa, &hw, &mut m).unwrap();
        for (i, t) in plan.dram_tensors.iter().enumerate() {
            if t.is_load {
                dlsa.start[i] = 0;
            }
        }
        let eager = simulate(&plan, &dlsa, &hw, &mut m).unwrap();
        assert!(eager.latency <= base.latency);
    }

    #[test]
    fn deadlock_is_detected() {
        let (_, plan, mut dlsa) = setup(2);
        // Put the last store first in the queue while forcing an early
        // tile to wait for it: loads for tile 0 now sit behind a store
        // that needs the final tile -> deadlock.
        let last_store = plan
            .dram_tensors
            .iter()
            .enumerate()
            .rev()
            .find(|(_, t)| !t.is_load)
            .map(|(i, _)| i as u32)
            .unwrap();
        let pos = dlsa.order.iter().position(|&o| o == last_store).unwrap();
        dlsa.order.remove(pos);
        dlsa.order.insert(0, last_store);
        let hw = HardwareConfig::edge();
        let mut m = CoreArrayModel::new(&hw);
        assert!(matches!(simulate(&plan, &dlsa, &hw, &mut m), Err(SimError::Deadlock { .. })));
    }
}
