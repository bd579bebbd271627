//! The optimisation objective: `Energy^n x Delay^m` with buffer-budget
//! penalties.
//!
//! The objective owns the evaluation engine's shared state — the stage-1
//! [`SegmentMemo`], the memoised core-array model and the [`SimScratch`]
//! workspace — and exposes two families of entry points:
//!
//! * **Full evaluations** ([`eval_parts`](Objective::eval_parts),
//!   [`eval_lfa`](Objective::eval_lfa)) build a complete [`EvalReport`];
//!   stages use them for initial and final schemes.
//! * **Cost-only evaluations** ([`eval_lfa_cost`](Objective::eval_lfa_cost),
//!   [`eval_compiled_with_peak`](Objective::eval_compiled_with_peak),
//!   and `eval_latency` for stage 2's resumed replays) run the compiled
//!   engine's allocation-free fast path and return just the penalised
//!   objective value — the SA inner loop's diet. Both families share one
//!   float pipeline ([`cost_of_parts`](Objective::cost_of_parts)), so
//!   their costs are bit-identical.

use serde::{Deserialize, Serialize};
use soma_arch::HardwareConfig;
use soma_core::{lifetime, ComputePlan, Dlsa, Encoding, Lfa, SegmentMemo};
use soma_model::Network;
use soma_sim::{evaluate_parts, CompiledPlan, CoreArrayModel, EvalReport, SimError, SimScratch};

/// Exponents of the paper's objective `Energy^n x Delay^m` (Sec. V-A).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostWeights {
    /// Energy exponent `n`.
    pub energy_exp: f64,
    /// Delay exponent `m`.
    pub delay_exp: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        // "The optimisation goal is set as Energy^1 x Delay^1" (Sec. VI-A1).
        Self { energy_exp: 1.0, delay_exp: 1.0 }
    }
}

/// A fully evaluated scheduling scheme.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct Evaluated {
    /// The scheme.
    pub encoding: Encoding,
    /// Its evaluation report.
    pub report: EvalReport,
    /// Its penalised objective value.
    pub cost: f64,
}

/// Objective function bound to one network + hardware pair, owning the
/// stage-1 segment memo, the memoised core-array model and the engine
/// scratch. One objective serves one search seed; nothing in it is
/// shared.
#[derive(Debug)]
pub struct Objective<'a> {
    net: &'a Network,
    hw: &'a HardwareConfig,
    weights: CostWeights,
    segments: SegmentMemo<'a>,
    model: CoreArrayModel<'a>,
    scratch: SimScratch,
    evals: u64,
    rejected: u64,
}

impl<'a> Objective<'a> {
    /// Creates the objective.
    pub fn new(net: &'a Network, hw: &'a HardwareConfig, weights: CostWeights) -> Self {
        Self {
            net,
            hw,
            weights,
            segments: SegmentMemo::new(net),
            model: CoreArrayModel::new(hw),
            scratch: SimScratch::new(),
            evals: 0,
            rejected: 0,
        }
    }

    /// The network under optimisation.
    pub fn network(&self) -> &'a Network {
        self.net
    }

    /// The target hardware.
    pub fn hardware(&self) -> &'a HardwareConfig {
        self.hw
    }

    /// Number of *completed* schedule evaluations so far (proposals that
    /// produced a cost). Failed proposals — deadlocked DLSAs, invalid
    /// LFAs — count under [`rejected`](Self::rejected) instead, so
    /// throughput metrics no longer conflate proposals with evaluations.
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// Number of failed evaluation attempts (deadlocked DRAM tensor
    /// orders, structurally invalid LFAs).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Compiles a frozen plan for the engine fast path. The memoised
    /// core-array model is consulted once per layer here; subsequent
    /// [`eval_compiled_with_peak`](Self::eval_compiled_with_peak) calls
    /// never touch it.
    pub fn compile(&mut self, plan: &ComputePlan) -> CompiledPlan {
        CompiledPlan::compile(self.net, plan, self.hw, &mut self.model)
    }

    /// The penalised objective from its raw parts. This is the single
    /// float pipeline behind both [`cost_of`](Self::cost_of) and the
    /// engine fast path, so compiled and naive costs are bit-identical:
    /// schemes whose peak occupancy exceeds `buffer_limit` are steeply
    /// penalised (the paper deems them invalid; the penalty keeps the
    /// annealer's gradient alive when even the initial solution
    /// overflows).
    pub fn cost_of_parts(
        &self,
        latency_cycles: u64,
        energy_pj: f64,
        peak_buffer: u64,
        buffer_limit: u64,
    ) -> f64 {
        let energy_j = energy_pj * 1e-12;
        let delay_s = self.hw.cycles_to_seconds(latency_cycles);
        let mut cost =
            energy_j.powf(self.weights.energy_exp) * delay_s.powf(self.weights.delay_exp);
        if buffer_limit > 0 && peak_buffer > buffer_limit {
            let over = peak_buffer as f64 / buffer_limit as f64;
            cost *= over.powi(8);
        }
        cost
    }

    /// Penalised objective for a report under a buffer budget.
    pub fn cost_of(&self, report: &EvalReport, buffer_limit: u64) -> f64 {
        self.cost_of_parts(
            report.latency_cycles,
            report.energy.total_pj(),
            report.peak_buffer,
            buffer_limit,
        )
    }

    /// Evaluates a plan + DLSA pair (full report). Returns `None` for
    /// deadlocked DRAM tensor orders (invalid schemes).
    pub fn eval_parts(
        &mut self,
        plan: &ComputePlan,
        dlsa: &Dlsa,
        buffer_limit: u64,
    ) -> Option<(f64, EvalReport)> {
        let Ok(report) = evaluate_parts(self.net, plan, dlsa, self.hw, &mut self.model) else {
            self.rejected += 1;
            return None;
        };
        self.evals += 1;
        let cost = self.cost_of(&report, buffer_limit);
        Some((cost, report))
    }

    /// Parses an LFA through the segment memo (only FLGs this objective
    /// has not parsed before are built), counting a structurally invalid
    /// LFA as rejected.
    fn parse(&mut self, lfa: &Lfa) -> Option<ComputePlan> {
        let plan = self.segments.parse(lfa).ok();
        if plan.is_none() {
            self.rejected += 1;
        }
        plan
    }

    /// Parses and evaluates an LFA under the double-buffer DLSA (the
    /// stage-1 view), full report. Returns `None` for structurally
    /// invalid LFAs.
    pub fn eval_lfa(
        &mut self,
        lfa: &Lfa,
        buffer_limit: u64,
    ) -> Option<(f64, ComputePlan, Dlsa, EvalReport)> {
        let plan = self.parse(lfa)?;
        let dlsa = Dlsa::double_buffer(&plan);
        let (cost, report) = self.eval_parts(&plan, &dlsa, buffer_limit)?;
        Some((cost, plan, dlsa, report))
    }

    /// Cost-only stage-1 evaluation: parse, compile, simulate the
    /// double-buffer DLSA through the engine fast path, fuse the buffer
    /// peak from the shared scratch. Bit-identical to
    /// [`eval_lfa`](Self::eval_lfa)'s cost, without building the report.
    pub fn eval_lfa_cost(&mut self, lfa: &Lfa, buffer_limit: u64) -> Option<f64> {
        let plan = self.parse(lfa)?;
        let dlsa = Dlsa::double_buffer(&plan);
        let compiled = self.compile(&plan);
        match compiled.simulate_cost(&dlsa, &mut self.scratch) {
            Err(_) => {
                self.rejected += 1;
                None
            }
            Ok(latency) => {
                self.evals += 1;
                let peak = lifetime::peak_buffer_into(&plan, &dlsa, self.scratch.diff_mut());
                Some(self.cost_of_parts(latency, compiled.energy_total_pj(), peak, buffer_limit))
            }
        }
    }

    /// Cost-only evaluation of a DLSA against a compiled plan whose peak
    /// occupancy the caller maintains incrementally: an allocation-free
    /// queue replay from the start. Returns `None` for deadlocked orders.
    pub fn eval_compiled_with_peak(
        &mut self,
        compiled: &CompiledPlan,
        dlsa: &Dlsa,
        peak_buffer: u64,
        buffer_limit: u64,
    ) -> Option<f64> {
        let latency = compiled.simulate_cost(dlsa, &mut self.scratch);
        self.eval_latency(compiled, latency, peak_buffer, buffer_limit)
    }

    /// Counts and costs one cost-only simulation of a DLSA against a
    /// compiled plan — a replay from the start or stage 2's resumed
    /// [`Replay`](soma_sim::Replay). A deadlock counts as rejected and
    /// yields `None`.
    pub(crate) fn eval_latency(
        &mut self,
        compiled: &CompiledPlan,
        latency: Result<u64, SimError>,
        peak_buffer: u64,
        buffer_limit: u64,
    ) -> Option<f64> {
        match latency {
            Err(_) => {
                self.rejected += 1;
                None
            }
            Ok(latency) => {
                self.evals += 1;
                Some(self.cost_of_parts(
                    latency,
                    compiled.energy_total_pj(),
                    peak_buffer,
                    buffer_limit,
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soma_model::zoo;

    #[test]
    fn penalty_kicks_in_above_budget() {
        let net = zoo::fig2(1);
        let hw = HardwareConfig::edge();
        let mut obj = Objective::new(&net, &hw, CostWeights::default());
        let lfa = Lfa::fully_fused(&net, 4);
        let (_, _, _, report) = obj.eval_lfa(&lfa, hw.buffer_bytes).unwrap();
        let free = obj.cost_of(&report, u64::MAX);
        let squeezed = obj.cost_of(&report, report.peak_buffer / 2);
        assert!(squeezed > free * 100.0);
        assert!(report.peak_buffer <= hw.buffer_bytes);
    }

    #[test]
    fn eval_counts_accumulate() {
        let net = zoo::fig2(1);
        let hw = HardwareConfig::edge();
        let mut obj = Objective::new(&net, &hw, CostWeights::default());
        let lfa = Lfa::unfused(&net, 2);
        obj.eval_lfa(&lfa, hw.buffer_bytes);
        obj.eval_lfa(&lfa, hw.buffer_bytes);
        assert_eq!(obj.evals(), 2);
        assert_eq!(obj.rejected(), 0);
    }

    #[test]
    fn cost_only_path_is_bit_identical_to_full_path() {
        let net = zoo::fig2(1);
        let hw = HardwareConfig::edge();
        let mut obj = Objective::new(&net, &hw, CostWeights::default());
        for lfa in [Lfa::unfused(&net, 4), Lfa::fully_fused(&net, 8)] {
            let (full_cost, ..) = obj.eval_lfa(&lfa, hw.buffer_bytes).unwrap();
            let fast_cost = obj.eval_lfa_cost(&lfa, hw.buffer_bytes).unwrap();
            assert_eq!(full_cost.to_bits(), fast_cost.to_bits());
        }
    }

    #[test]
    fn rejected_counts_failures_separately() {
        let net = zoo::fig2(1);
        let hw = HardwareConfig::edge();
        let mut obj = Objective::new(&net, &hw, CostWeights::default());

        // Structurally invalid LFA: rejected, not evaluated.
        let mut bad = Lfa::unfused(&net, 2);
        bad.order.swap(0, 2);
        assert!(obj.eval_lfa(&bad, hw.buffer_bytes).is_none());
        assert_eq!((obj.evals(), obj.rejected()), (0, 1));
        assert!(obj.eval_lfa_cost(&bad, hw.buffer_bytes).is_none());
        assert_eq!((obj.evals(), obj.rejected()), (0, 2));

        // Deadlocked DLSA: rejected, not evaluated.
        let lfa = Lfa::unfused(&net, 2);
        let (_, plan, mut dlsa, _) = obj.eval_lfa(&lfa, hw.buffer_bytes).unwrap();
        assert_eq!((obj.evals(), obj.rejected()), (1, 2));
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
        assert!(obj.eval_parts(&plan, &dlsa, hw.buffer_bytes).is_none());
        assert_eq!((obj.evals(), obj.rejected()), (1, 3));
        let compiled = obj.compile(&plan);
        assert!(obj.eval_compiled_with_peak(&compiled, &dlsa, 0, hw.buffer_bytes).is_none());
        assert_eq!((obj.evals(), obj.rejected()), (1, 4));
    }

    #[test]
    fn deadlocked_dlsa_yields_none() {
        let net = zoo::fig2(1);
        let hw = HardwareConfig::edge();
        let mut obj = Objective::new(&net, &hw, CostWeights::default());
        let lfa = Lfa::unfused(&net, 2);
        let (_, plan, mut dlsa, _) = obj.eval_lfa(&lfa, hw.buffer_bytes).unwrap();
        // Move the last store to the front of the queue: the first tile's
        // loads now sit behind a store that needs the last tile.
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
        assert!(obj.eval_parts(&plan, &dlsa, hw.buffer_bytes).is_none());
    }

    #[test]
    fn invalid_lfa_yields_none() {
        let net = zoo::fig2(1);
        let hw = HardwareConfig::edge();
        let mut obj = Objective::new(&net, &hw, CostWeights::default());
        let mut lfa = Lfa::unfused(&net, 2);
        lfa.order.swap(0, 2);
        assert!(obj.eval_lfa(&lfa, hw.buffer_bytes).is_none());
    }

    #[test]
    fn compiled_peak_eval_matches_full_eval() {
        let net = zoo::fig2(1);
        let hw = HardwareConfig::edge();
        let mut obj = Objective::new(&net, &hw, CostWeights::default());
        let lfa = Lfa::fully_fused(&net, 4);
        let (full_cost, plan, dlsa, report) = obj.eval_lfa(&lfa, hw.buffer_bytes).unwrap();
        let compiled = obj.compile(&plan);
        let fast = obj
            .eval_compiled_with_peak(&compiled, &dlsa, report.peak_buffer, hw.buffer_bytes)
            .unwrap();
        assert_eq!(full_cost.to_bits(), fast.to_bits());
    }
}
