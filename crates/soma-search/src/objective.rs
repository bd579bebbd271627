//! The optimisation objective: `Energy^n x Delay^m` with buffer-budget
//! penalties.
//!
//! The objective owns the evaluation engine's shared state — the
//! memoised core-array model, the [`SimScratch`] workspace and stage 1's
//! evaluation state — and exposes two families of entry points:
//!
//! * **Full evaluations** ([`eval_parts`](Objective::eval_parts),
//!   [`eval_lfa`](Objective::eval_lfa)) build a complete [`EvalReport`]
//!   through the naive path; stages use them for initial and final
//!   schemes.
//! * **Cost-only evaluations** ([`eval_lfa_cost`](Objective::eval_lfa_cost),
//!   [`eval_compiled_with_peak`](Objective::eval_compiled_with_peak),
//!   and `eval_latency` for stage 2's resumed replays) run the compiled
//!   engine's allocation-free latency path and return just the penalised
//!   objective value — the SA inner loop's diet.
//!
//! Stage 1's evaluation state is the [`SegmentMemo`]'s kept plan plus its
//! double-buffer DLSA, [`CompiledPlan`] and replay, all four of the LFA
//! [`eval_lfa_cost`](Objective::eval_lfa_cost) evaluated last. Each call
//! rewrites them from the first tile the new LFA can change, as the memo
//! reports it: the DLSA from the first tensor anchored two tiles earlier
//! (a store's `End` clamps at the tile count), the compiled plan from
//! that tile, and the replay from its last checkpoint before both.
//!
//! [`cost_of_parts`](Objective::cost_of_parts) is the one spelling of
//! the objective. Both families feed it the same latency, energy and
//! peak, so their costs are bit-identical.

use soma_arch::HardwareConfig;
use soma_core::{lifetime, parse_lfa, ComputePlan, Dlsa, Encoding, Lfa, SegmentMemo};
use soma_model::Network;
use soma_sim::{evaluate_parts, CompiledPlan, CoreArrayModel, EvalReport, SimError, SimScratch};

/// Exponents of the paper's objective `Energy^n x Delay^m` (Sec. V-A).
#[derive(Debug, Clone, Copy, PartialEq)]
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

impl Evaluated {
    /// Shape statistics of the scheme on `net`, the network it was
    /// evaluated on.
    pub fn shape(&self, net: &Network) -> SchemeShape {
        let plan = parse_lfa(net, &self.encoding.lfa).expect("evaluated scheme parses");
        SchemeShape {
            lgs: plan.n_lgs(),
            flgs: plan.n_flgs(),
            tiles: plan.tiles.len(),
            dram_tensors: plan.dram_tensors.len(),
        }
    }
}

/// Summary statistics of a found scheme (for the paper's Sec. VI-B
/// aggregate analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeShape {
    /// Number of layer-fusion groups (LGs).
    pub lgs: usize,
    /// Number of fine-grained layer-fusion groups (FLGs).
    pub flgs: usize,
    /// Total computing tiles.
    pub tiles: usize,
    /// Total DRAM tensors.
    pub dram_tensors: usize,
}

/// Objective function bound to one network + hardware pair, owning the
/// memoised core-array model, the engine scratch and stage 1's
/// evaluation state. One objective serves one search seed; nothing in it
/// is shared.
#[derive(Debug)]
pub struct Objective<'a> {
    net: &'a Network,
    hw: &'a HardwareConfig,
    weights: CostWeights,
    /// Stage 1's segments and kept plan, and that plan's double-buffer
    /// DLSA, compiled plan and replay.
    segments: SegmentMemo<'a>,
    lfa_dlsa: Dlsa,
    lfa_compiled: CompiledPlan,
    lfa_replay: SimScratch,
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
            lfa_dlsa: Dlsa::default(),
            lfa_compiled: CompiledPlan::default(),
            lfa_replay: SimScratch::new(),
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

    /// The paper's objective `Energy^n x Delay^m` (Sec. V-A) from its
    /// raw parts: energy in joules, delay in seconds at the hardware's
    /// clock. This is the single float pipeline behind both the full
    /// reports and the engine fast path, so compiled and naive costs are
    /// bit-identical. Schemes whose peak occupancy exceeds `buffer_limit`
    /// are steeply penalised (the paper deems them invalid; the penalty
    /// keeps the annealer's gradient alive when even the initial solution
    /// overflows); a `buffer_limit` of 0 sets no budget.
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
        let cost = self.cost_of_parts(
            report.latency_cycles,
            report.energy.total_pj(),
            report.peak_buffer,
            buffer_limit,
        );
        Some((cost, report))
    }

    /// Parses and evaluates an LFA under the double-buffer DLSA (the
    /// stage-1 view), full report. Returns `None` for structurally
    /// invalid LFAs. A one-shot parse: stage 1's kept state is left as it
    /// was.
    pub fn eval_lfa(
        &mut self,
        lfa: &Lfa,
        buffer_limit: u64,
    ) -> Option<(f64, ComputePlan, Dlsa, EvalReport)> {
        let Ok(plan) = parse_lfa(self.net, lfa) else {
            self.rejected += 1;
            return None;
        };
        let dlsa = Dlsa::double_buffer(&plan);
        let (cost, report) = self.eval_parts(&plan, &dlsa, buffer_limit)?;
        Some((cost, plan, dlsa, report))
    }

    /// Cost-only stage-1 evaluation under the double-buffer DLSA,
    /// bit-identical to [`eval_lfa`](Self::eval_lfa)'s cost without
    /// building the report. It rewrites the kept plan, DLSA, compiled
    /// plan and replay of the LFA evaluated last only from where `lfa`
    /// can first differ, and fuses the buffer peak from the replay's
    /// scratch.
    pub fn eval_lfa_cost(&mut self, lfa: &Lfa, buffer_limit: u64) -> Option<f64> {
        let Ok((plan, tile)) = self.segments.parse(lfa) else {
            self.rejected += 1;
            return None;
        };
        let slot = self.lfa_dlsa.double_buffer_from(plan, tile);
        let compiled = &mut self.lfa_compiled;
        compiled.recompile(self.net, plan, self.hw, &mut self.model, tile);
        let latency = compiled.simulate_cost_from(&self.lfa_dlsa, &mut self.lfa_replay, slot, tile);
        let peak = lifetime::peak_buffer_into(plan, &self.lfa_dlsa, self.lfa_replay.diff_mut());
        let energy_pj = compiled.energy_total_pj();
        self.eval_latency(energy_pj, latency, peak, buffer_limit)
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
        self.eval_latency(compiled.energy_total_pj(), latency, peak_buffer, buffer_limit)
    }

    /// Counts and costs one cost-only simulation of a DLSA against a
    /// compiled plan of energy `energy_pj` — a replay from the start,
    /// stage 1's resumed replay or stage 2's resumed
    /// [`Replay`](soma_sim::Replay). A deadlock counts as rejected and
    /// yields `None`.
    pub(crate) fn eval_latency(
        &mut self,
        energy_pj: f64,
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
                Some(self.cost_of_parts(latency, energy_pj, peak_buffer, buffer_limit))
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
        let (_, _, _, r) = obj.eval_lfa(&lfa, hw.buffer_bytes).unwrap();
        let energy = r.energy.total_pj();
        let free = obj.cost_of_parts(r.latency_cycles, energy, r.peak_buffer, u64::MAX);
        let squeezed =
            obj.cost_of_parts(r.latency_cycles, energy, r.peak_buffer, r.peak_buffer / 2);
        assert!(squeezed > free * 100.0);
        assert!(r.peak_buffer <= hw.buffer_bytes);
    }

    #[test]
    fn cost_is_monotone_in_exponents() {
        let net = zoo::fig2(1);
        let hw = HardwareConfig::edge();
        let weights = |energy_exp, delay_exp| CostWeights { energy_exp, delay_exp };
        let mut obj = Objective::new(&net, &hw, weights(1.0, 1.0));
        let (_, _, _, r) = obj.eval_lfa(&Lfa::unfused(&net, 4), 0).unwrap();
        let energy = r.energy.total_pj();
        assert!(obj.cost_of_parts(r.latency_cycles, energy, r.peak_buffer, 0) > 0.0);
        // Pure-delay objective equals the delay.
        let delay = Objective::new(&net, &hw, weights(0.0, 1.0));
        let d = delay.cost_of_parts(r.latency_cycles, energy, r.peak_buffer, 0);
        assert!((d - hw.cycles_to_seconds(r.latency_cycles)).abs() < 1e-12);
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
