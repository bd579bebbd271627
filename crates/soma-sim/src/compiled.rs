//! The compiled evaluation engine: plan-invariant precomputation for the
//! SA hot path.
//!
//! The annealers evaluate tens of thousands of DLSAs against one frozen
//! [`ComputePlan`]. The naive path ([`simulate`](crate::simulate) +
//! [`evaluate_parts`](crate::evaluate_parts)) rebuilds the world on every
//! call: per-tile costs through the memoised core-array model (a hash
//! lookup per tile), per-tensor DRAM durations, a `Vec<Vec<u32>>` gate
//! table, four timing vectors and a full buffer profile. All of that is
//! either invariant for a frozen plan or re-usable scratch.
//!
//! [`CompiledPlan::compile`] hoists the invariants out once:
//!
//! * `tile_cost` / `tensor_dur` — flat arrays, no hashing on the hot path.
//!   Compiling asks the memoised core-array model once per layer, not
//!   once per tile (every tile of a layer shares one shape), because
//!   stage 1 compiles a fresh plan for every proposal;
//! * the *load* gate table in flat CSR layout (loads gate the tile of
//!   their first use, which is plan-fixed; store gates move with the DLSA
//!   and live in the scratch);
//! * the energy split, DRAM byte totals and busy sums, which do not
//!   depend on the DLSA at all.
//!
//! [`CompiledPlan::simulate_cost`] then plays the two serial queues with
//! **zero heap allocation** against a caller-owned [`SimScratch`],
//! returning only the end-to-end latency — the cost-only fast path for
//! annealers that combine it with an incrementally maintained
//! [`OccupancyProfile`](soma_core::OccupancyProfile) peak.
//! [`CompiledPlan::report`] is the slow sibling that fills a full
//! [`EvalReport`], bit-identical to [`evaluate_parts`](crate::evaluate_parts)
//! (the differential suite in `tests/engine_equiv.rs` proves both claims
//! on random mutation chains).

use soma_arch::HardwareConfig;
use soma_core::{lifetime, ComputePlan, Dlsa, TileShape};
use soma_model::Network;

use crate::core_array::{CoreArrayModel, TileCost};
use crate::report::{EnergyBreakdown, EvalReport};
use crate::timeline::{SimError, Timeline};

/// Re-usable workspace for [`CompiledPlan`] simulations. One scratch
/// serves plans of any size (vectors grow to the high-water mark and are
/// then re-used allocation-free).
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Queue position of each tensor under the current DLSA order.
    queue_pos: Vec<u32>,
    /// Start cycle of each DRAM tensor (full path only).
    tensor_start: Vec<u64>,
    /// End cycle of each DRAM tensor.
    tensor_end: Vec<u64>,
    /// Start cycle of each tile (full path only).
    tile_start: Vec<u64>,
    /// End cycle of each tile.
    tile_end: Vec<u64>,
    /// Store gates per tile (DLSA-dependent, rebuilt per call without
    /// allocation in steady state).
    store_gates: Vec<Vec<u32>>,
    /// Whether the last simulation recorded start times (guards
    /// [`CompiledPlan::timeline`] against reading a cost-only run).
    full_times: bool,
    /// Difference-array scratch for peak-occupancy queries.
    pub(crate) diff: Vec<i64>,
}

impl SimScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch for [`lifetime::peak_buffer_into`] calls that share this
    /// workspace.
    pub fn diff_mut(&mut self) -> &mut Vec<i64> {
        &mut self.diff
    }

    fn ensure(&mut self, n_tiles: usize, n_tensors: usize, full: bool) {
        self.full_times = full;
        self.queue_pos.clear();
        self.queue_pos.resize(n_tensors, u32::MAX);
        self.tensor_end.clear();
        self.tensor_end.resize(n_tensors, 0);
        self.tile_end.clear();
        self.tile_end.resize(n_tiles, 0);
        if full {
            self.tensor_start.clear();
            self.tensor_start.resize(n_tensors, 0);
            self.tile_start.clear();
            self.tile_start.resize(n_tiles, 0);
        }
        if self.store_gates.len() < n_tiles {
            self.store_gates.resize_with(n_tiles, Vec::new);
        }
        for g in self.store_gates.iter_mut().take(n_tiles) {
            g.clear();
        }
    }
}

/// A [`ComputePlan`] compiled against one hardware configuration: every
/// DLSA-invariant quantity the evaluator needs, precomputed once.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    n_tiles: usize,
    n_tensors: usize,
    /// Cycles of each tile (global index).
    tile_cost: Vec<u64>,
    /// DRAM transfer cycles of each tensor (canonical index).
    tensor_dur: Vec<u64>,
    /// `is_load` of each tensor.
    tensor_is_load: Vec<bool>,
    /// `anchor` of each tensor.
    tensor_anchor: Vec<u32>,
    /// CSR offsets into [`Self::load_gate_idx`], length `n_tiles + 1`.
    load_gate_off: Vec<u32>,
    /// Load tensors gating each tile (its own loads), CSR values.
    load_gate_idx: Vec<u32>,
    /// Core-array energy of the whole plan in picojoules.
    core_pj: f64,
    /// DRAM access energy of the whole plan in picojoules.
    dram_pj: f64,
    /// Total DRAM bytes loaded.
    dram_read: u64,
    /// Total DRAM bytes stored.
    dram_write: u64,
    /// Sum of tile compute durations.
    compute_busy: u64,
    /// Sum of DRAM transfer durations.
    dram_busy: u64,
    /// Peak MAC throughput of the hardware, ops/cycle.
    peak_ops_per_cycle: u64,
}

impl CompiledPlan {
    /// Precomputes every plan-invariant quantity. The memoised
    /// `model` is consulted once per layer; subsequent evaluations never
    /// touch it.
    pub fn compile(
        net: &Network,
        plan: &ComputePlan,
        hw: &HardwareConfig,
        model: &mut CoreArrayModel<'_>,
    ) -> Self {
        let n_tiles = plan.tiles.len();
        let n_tensors = plan.dram_tensors.len();

        // Every tile of a layer shares one shape, so the model (a hash
        // lookup) is asked once per layer; the local memo is keyed on
        // (layer, shape) like the model's own, so it holds for any plan.
        // The costs feed both the cost array and the energy sum (summed
        // tile by tile in plan order as in `evaluate_parts`, so the float
        // total is bit-identical).
        let mut by_layer: Vec<Option<(TileShape, TileCost)>> = vec![None; net.len()];
        let mut tile_cost = Vec::with_capacity(n_tiles);
        let mut core_pj = 0.0;
        for t in &plan.tiles {
            let c = match &mut by_layer[t.layer.index()] {
                Some((shape, c)) if *shape == t.shape => *c,
                slot => slot.insert((t.shape, model.cost(t))).1,
            };
            tile_cost.push(c.cycles);
            core_pj += c.energy_pj;
        }
        let tensor_dur: Vec<u64> =
            plan.dram_tensors.iter().map(|t| hw.dram_cycles(t.bytes).max(1)).collect();

        // Load gates in CSR layout: count, prefix, fill (ascending tensor
        // index within each tile, matching the naive gate-table order).
        let mut load_gate_off = vec![0u32; n_tiles + 1];
        for t in &plan.dram_tensors {
            if t.is_load {
                load_gate_off[t.anchor as usize + 1] += 1;
            }
        }
        for i in 0..n_tiles {
            load_gate_off[i + 1] += load_gate_off[i];
        }
        let mut load_gate_idx = vec![0u32; *load_gate_off.last().unwrap_or(&0) as usize];
        let mut cursor = load_gate_off.clone();
        for (i, t) in plan.dram_tensors.iter().enumerate() {
            if t.is_load {
                let slot = &mut cursor[t.anchor as usize];
                load_gate_idx[*slot as usize] = i as u32;
                *slot += 1;
            }
        }

        let mut dram_read = 0u64;
        let mut dram_write = 0u64;
        for t in &plan.dram_tensors {
            if t.is_load {
                dram_read += t.bytes;
            } else {
                dram_write += t.bytes;
            }
        }
        let dram_pj = hw.energy.dram(dram_read, dram_write);

        Self {
            n_tiles,
            n_tensors,
            compute_busy: tile_cost.iter().sum(),
            dram_busy: tensor_dur.iter().sum(),
            tile_cost,
            tensor_dur,
            tensor_is_load: plan.dram_tensors.iter().map(|t| t.is_load).collect(),
            tensor_anchor: plan.dram_tensors.iter().map(|t| t.anchor).collect(),
            load_gate_off,
            load_gate_idx,
            core_pj,
            dram_pj,
            dram_read,
            dram_write,
            peak_ops_per_cycle: hw.peak_ops_per_cycle(),
        }
    }

    /// Number of tiles in the compiled plan.
    pub fn n_tiles(&self) -> usize {
        self.n_tiles
    }

    /// Number of DRAM tensors in the compiled plan.
    pub fn n_tensors(&self) -> usize {
        self.n_tensors
    }

    /// Total energy (core + DRAM) of any schedule of this plan, in
    /// picojoules — energy does not depend on the DLSA.
    pub fn energy_total_pj(&self) -> f64 {
        self.core_pj + self.dram_pj
    }

    /// Total DRAM bytes moved.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read + self.dram_write
    }

    /// Plays the two serial queues with zero heap allocation, writing
    /// times into `scratch`. With `FULL`, also records start times (the
    /// [`Timeline`] view); without, only what latency needs.
    fn run_queues<const FULL: bool>(
        &self,
        dlsa: &Dlsa,
        scratch: &mut SimScratch,
    ) -> Result<u64, SimError> {
        let n_tensors = self.n_tensors;
        let n_tiles = self.n_tiles;
        scratch.ensure(n_tiles, n_tensors, FULL);

        for (k, &ti) in dlsa.order.iter().enumerate() {
            scratch.queue_pos[ti as usize] = k as u32;
        }
        // Store gates move with the DLSA: rebuild into the scratch.
        for (i, &end) in dlsa.end.iter().enumerate() {
            if !self.tensor_is_load[i] && (end as usize) < n_tiles {
                scratch.store_gates[end as usize].push(i as u32);
            }
        }

        let mut di = 0usize; // next queue position to serve
        let mut ci = 0usize; // next tile to run
        let mut prev_tensor_end = 0u64;
        let mut prev_tile_end = 0u64;

        while di < n_tensors || ci < n_tiles {
            let mut progressed = false;

            // Serve as many DRAM tensors as currently possible.
            while di < n_tensors {
                let ti = dlsa.order[di] as usize;
                let gate_tile: Option<usize> = if self.tensor_is_load[ti] {
                    let s = dlsa.start[ti] as usize;
                    if s == 0 {
                        None
                    } else {
                        Some(s - 1)
                    }
                } else {
                    Some(self.tensor_anchor[ti] as usize)
                };
                let gate_time = match gate_tile {
                    None => 0,
                    Some(g) if g < ci => scratch.tile_end[g],
                    Some(_) => break, // gating tile not yet executed
                };
                let start = prev_tensor_end.max(gate_time);
                if FULL {
                    scratch.tensor_start[ti] = start;
                }
                prev_tensor_end = start + self.tensor_dur[ti];
                scratch.tensor_end[ti] = prev_tensor_end;
                di += 1;
                progressed = true;
            }

            // Run as many tiles as currently possible.
            while ci < n_tiles {
                let mut ready = prev_tile_end;
                let mut blocked = false;
                let gates = &self.load_gate_idx
                    [self.load_gate_off[ci] as usize..self.load_gate_off[ci + 1] as usize];
                for &g in gates.iter().chain(&scratch.store_gates[ci]) {
                    if (scratch.queue_pos[g as usize] as usize) < di {
                        ready = ready.max(scratch.tensor_end[g as usize]);
                    } else {
                        blocked = true;
                        break;
                    }
                }
                if blocked {
                    break;
                }
                if FULL {
                    scratch.tile_start[ci] = ready;
                }
                prev_tile_end = ready + self.tile_cost[ci];
                scratch.tile_end[ci] = prev_tile_end;
                ci += 1;
                progressed = true;
            }

            if !progressed {
                return Err(SimError::Deadlock { dram_pos: di, tile: ci });
            }
        }

        Ok(prev_tile_end.max(prev_tensor_end))
    }

    /// The cost-only fast path: end-to-end latency of `dlsa`, zero heap
    /// allocation once `scratch` has warmed up. Energy is invariant
    /// ([`energy_total_pj`](Self::energy_total_pj)) and the buffer peak
    /// comes from an incrementally maintained
    /// [`OccupancyProfile`](soma_core::OccupancyProfile) (or
    /// [`lifetime::peak_buffer_into`] against the same scratch), so this
    /// is everything a `(cost, peak_buffer)` evaluation needs.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] exactly when [`crate::simulate`] deadlocks.
    pub fn simulate_cost(&self, dlsa: &Dlsa, scratch: &mut SimScratch) -> Result<u64, SimError> {
        self.run_queues::<false>(dlsa, scratch)
    }

    /// The full simulation into the scratch (start *and* end times).
    /// Combine with [`timeline`](Self::timeline) to materialise a
    /// [`Timeline`]; the split lets callers run many full simulations
    /// against one scratch and copy out only the winners.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] exactly when [`crate::simulate`] deadlocks.
    pub fn simulate_into(&self, dlsa: &Dlsa, scratch: &mut SimScratch) -> Result<u64, SimError> {
        self.run_queues::<true>(dlsa, scratch)
    }

    /// Copies the last [`simulate_into`](Self::simulate_into) result out
    /// of the scratch as an owned [`Timeline`], identical to what
    /// [`crate::simulate`] returns.
    ///
    /// # Panics
    ///
    /// Panics if the scratch's last simulation was the cost-only
    /// [`simulate_cost`](Self::simulate_cost), which records no start
    /// times — the timeline would silently mix stale data otherwise.
    pub fn timeline(&self, latency: u64, scratch: &SimScratch) -> Timeline {
        assert!(
            scratch.full_times,
            "timeline() needs simulate_into(); the scratch's last run was cost-only"
        );
        Timeline {
            tensor_start: scratch.tensor_start[..self.n_tensors].to_vec(),
            tensor_end: scratch.tensor_end[..self.n_tensors].to_vec(),
            tile_start: scratch.tile_start[..self.n_tiles].to_vec(),
            tile_end: scratch.tile_end[..self.n_tiles].to_vec(),
            latency,
            dram_busy: self.dram_busy,
            compute_busy: self.compute_busy,
        }
    }

    /// Full evaluation through the compiled engine: bit-identical to
    /// [`evaluate_parts`](crate::evaluate_parts) on the same inputs (the
    /// cold path for initial/final schemes; annealers use
    /// [`simulate_cost`](Self::simulate_cost)). `net` and `plan` are the
    /// ones the plan was compiled from.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] for deadlocked DRAM tensor orders.
    pub fn report(
        &self,
        net: &Network,
        plan: &ComputePlan,
        dlsa: &Dlsa,
        scratch: &mut SimScratch,
    ) -> Result<EvalReport, SimError> {
        let latency = self.simulate_into(dlsa, scratch)?;
        let tl = self.timeline(latency, scratch);

        let net_ops = net.total_ops();
        let peak = self.peak_ops_per_cycle as f64;
        let util = |cycles: u64| -> f64 {
            if cycles == 0 {
                0.0
            } else {
                net_ops as f64 / (peak * cycles as f64)
            }
        };
        let bound = tl.compute_busy.max(tl.dram_busy);

        let profile = lifetime::buffer_profile(plan, dlsa);
        let peak_buffer = profile.iter().copied().max().unwrap_or(0);
        let mut weighted = 0u128;
        let mut total_time = 0u128;
        for (i, &usage) in profile.iter().enumerate() {
            let dur = (tl.tile_end[i] - tl.tile_start[i]) as u128;
            weighted += usage as u128 * dur;
            total_time += dur;
        }
        let avg_buffer = weighted.checked_div(total_time).unwrap_or(0) as u64;

        Ok(EvalReport {
            latency_cycles: tl.latency,
            energy: EnergyBreakdown { core_pj: self.core_pj, dram_pj: self.dram_pj },
            compute_util: util(tl.latency),
            dram_util: if tl.latency == 0 { 0.0 } else { tl.dram_busy as f64 / tl.latency as f64 },
            theoretical_max_util: util(bound),
            peak_buffer,
            avg_buffer,
            dram_bytes: self.dram_read + self.dram_write,
            timeline: tl,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::evaluate_parts;
    use crate::timeline::simulate;
    use soma_core::{parse_lfa, Lfa};
    use soma_model::zoo;

    fn setup(tiling: u32, fused: bool) -> (soma_model::Network, ComputePlan, Dlsa) {
        let net = zoo::fig2(1);
        let lfa = if fused { Lfa::fully_fused(&net, tiling) } else { Lfa::unfused(&net, tiling) };
        let plan = parse_lfa(&net, &lfa).unwrap();
        let dlsa = Dlsa::double_buffer(&plan);
        (net, plan, dlsa)
    }

    #[test]
    fn compiled_timeline_matches_naive_simulate() {
        for (tiling, fused) in [(1, false), (4, false), (4, true), (8, true)] {
            let (_, plan, dlsa) = setup(tiling, fused);
            let hw = HardwareConfig::edge();
            let mut m = CoreArrayModel::new(&hw);
            let naive = simulate(&plan, &dlsa, &hw, &mut m).unwrap();
            let cp = CompiledPlan::compile(&zoo::fig2(1), &plan, &hw, &mut m);
            let mut scratch = SimScratch::new();
            let latency = cp.simulate_into(&dlsa, &mut scratch).unwrap();
            assert_eq!(cp.timeline(latency, &scratch), naive, "tiling {tiling} fused {fused}");
            assert_eq!(cp.simulate_cost(&dlsa, &mut scratch).unwrap(), naive.latency);
        }
    }

    #[test]
    fn compiled_report_matches_naive_report() {
        let (net, plan, dlsa) = setup(4, true);
        let hw = HardwareConfig::edge();
        let mut m = CoreArrayModel::new(&hw);
        let naive = evaluate_parts(&net, &plan, &dlsa, &hw, &mut m).unwrap();
        let cp = CompiledPlan::compile(&net, &plan, &hw, &mut m);
        let mut scratch = SimScratch::new();
        let compiled = cp.report(&net, &plan, &dlsa, &mut scratch).unwrap();
        assert_eq!(compiled, naive);
        assert_eq!(compiled.energy.total_pj().to_bits(), naive.energy.total_pj().to_bits());
    }

    #[test]
    fn compiled_detects_the_same_deadlock() {
        let (net, plan, mut dlsa) = setup(2, false);
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
        let naive = simulate(&plan, &dlsa, &hw, &mut m).unwrap_err();
        let cp = CompiledPlan::compile(&net, &plan, &hw, &mut m);
        let mut scratch = SimScratch::new();
        assert_eq!(cp.simulate_cost(&dlsa, &mut scratch).unwrap_err(), naive);
    }

    #[test]
    fn one_scratch_serves_plans_of_different_sizes() {
        let hw = HardwareConfig::edge();
        let mut m = CoreArrayModel::new(&hw);
        let mut scratch = SimScratch::new();
        for tiling in [8, 2, 4, 1] {
            let (net, plan, dlsa) = setup(tiling, false);
            let naive = simulate(&plan, &dlsa, &hw, &mut m).unwrap();
            let cp = CompiledPlan::compile(&net, &plan, &hw, &mut m);
            assert_eq!(cp.simulate_cost(&dlsa, &mut scratch).unwrap(), naive.latency);
        }
    }

    #[test]
    fn energy_is_dlsa_invariant() {
        let (net, plan, dlsa) = setup(4, false);
        let hw = HardwareConfig::edge();
        let mut m = CoreArrayModel::new(&hw);
        let naive = evaluate_parts(&net, &plan, &dlsa, &hw, &mut m).unwrap();
        let cp = CompiledPlan::compile(&net, &plan, &hw, &mut m);
        assert_eq!(cp.energy_total_pj().to_bits(), naive.energy.total_pj().to_bits());
        assert_eq!(cp.dram_bytes(), naive.dram_bytes);
        assert_eq!(cp.n_tiles(), plan.tiles.len());
        assert_eq!(cp.n_tensors(), plan.dram_tensors.len());
    }
}
