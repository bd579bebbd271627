//! Seeded greedy walks that time the stage-1 and stage-2 proposal phases
//! call by call. Each timed walk is replayed through the untimed
//! `Objective` path at the same seed and must end at the bit-identical
//! cost, so the phase split describes the engine's real work.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use soma_arch::HardwareConfig;
use soma_core::lifetime::peak_buffer_into;
use soma_core::{parse_lfa, Dlsa};
use soma_model::Network;
use soma_search::lfa_stage::{initial_lfa, mutate_lfa};
use soma_search::{CostWeights, DlsaEditor, Objective, SizeWeightedPicker};
use soma_sim::{CompiledPlan, CoreArrayModel, SimScratch};

/// Summed nanoseconds and call counts of one proposal phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phase {
    pub ns: u64,
    pub calls: u64,
}

impl Phase {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }

    /// Mean nanoseconds per call (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct WalkPhases {
    pub mutate: Phase,
    pub parse: Phase,
    pub compile: Phase,
    pub simulate: Phase,
    pub peak: Phase,
    pub propose: Phase,
    pub dlsa_simulate: Phase,
    pub undo: Phase,
}

/// Stage-1 greedy walk: `mutate_lfa` → `parse_lfa` →
/// `CompiledPlan::compile` → `simulate_cost` → `peak_buffer_into`, each
/// call timed. Returns the final cost, or an error if the untimed replay
/// through `Objective::eval_lfa_cost` ends elsewhere.
pub fn stage1(
    net: &Network,
    hw: &HardwareConfig,
    seed: u64,
    proposals: u64,
    ph: &mut WalkPhases,
) -> Result<f64, String> {
    let obj = Objective::new(net, hw, CostWeights::default());
    let mut model = CoreArrayModel::new(hw);
    let mut scratch = SimScratch::new();
    let limit = hw.buffer_bytes;
    let mut eval = |lfa: &soma_core::Lfa, ph: &mut WalkPhases| -> Option<f64> {
        let plan = ph.parse.time(|| parse_lfa(net, lfa)).ok()?;
        let dlsa = Dlsa::double_buffer(&plan);
        let compiled = ph.compile.time(|| CompiledPlan::compile(net, &plan, hw, &mut model));
        let latency = ph.simulate.time(|| compiled.simulate_cost(&dlsa, &mut scratch)).ok()?;
        let peak = ph.peak.time(|| peak_buffer_into(&plan, &dlsa, scratch.diff_mut()));
        Some(obj.cost_of_parts(latency, compiled.energy_total_pj(), peak, limit))
    };

    let mut cur = initial_lfa(net, hw);
    let mut cur_cost = eval(&cur, ph).ok_or("initial LFA does not evaluate")?;
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..proposals {
        let Some(cand) = ph.mutate.time(|| mutate_lfa(net, &cur, &mut rng, false)) else {
            continue;
        };
        if let Some(cost) = eval(&cand, ph) {
            if cost <= cur_cost {
                cur = cand;
                cur_cost = cost;
            }
        }
    }

    // Untimed replay through the engine's own stage-1 evaluation.
    let mut obj = Objective::new(net, hw, CostWeights::default());
    let mut cur = initial_lfa(net, hw);
    let mut replay = obj.eval_lfa_cost(&cur, limit).ok_or("initial LFA does not evaluate")?;
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..proposals {
        let Some(cand) = mutate_lfa(net, &cur, &mut rng, false) else { continue };
        if let Some(cost) = obj.eval_lfa_cost(&cand, limit) {
            if cost <= replay {
                cur = cand;
                replay = cost;
            }
        }
    }
    if replay.to_bits() != cur_cost.to_bits() {
        return Err(format!(
            "{}: timed stage-1 walk ended at {cur_cost:e}, engine replay at {replay:e}",
            net.name()
        ));
    }
    Ok(cur_cost)
}

/// Stage-2 greedy walk on the initial LFA's plan: `DlsaEditor::propose` →
/// `simulate_cost` → `undo` on rejection, each call timed. Checked against
/// an untimed replay through `Objective::eval_compiled_with_peak`.
pub fn stage2(
    net: &Network,
    hw: &HardwareConfig,
    seed: u64,
    proposals: u64,
    ph: &mut WalkPhases,
) -> Result<f64, String> {
    let limit = hw.buffer_bytes;
    let plan = parse_lfa(net, &initial_lfa(net, hw)).map_err(|e| format!("{e:?}"))?;
    let picker = SizeWeightedPicker::new(&plan);
    let init = Dlsa::double_buffer(&plan);

    let mut obj = Objective::new(net, hw, CostWeights::default());
    let (start_cost, _) =
        obj.eval_parts(&plan, &init, limit).ok_or("double-buffer DLSA does not evaluate")?;
    let compiled = obj.compile(&plan);

    let mut timed = start_cost;
    let mut scratch = SimScratch::new();
    let mut editor = DlsaEditor::new(&plan, init.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..proposals {
        let Some(token) = ph.propose.time(|| editor.propose(&picker, &mut rng)) else {
            continue;
        };
        let latency = ph.dlsa_simulate.time(|| compiled.simulate_cost(editor.dlsa(), &mut scratch));
        let cost = latency
            .ok()
            .map(|lat| obj.cost_of_parts(lat, compiled.energy_total_pj(), editor.peak(), limit));
        match cost {
            Some(cost) if cost <= timed => timed = cost,
            _ => ph.undo.time(|| editor.undo(token)),
        }
    }

    // Untimed replay through the engine's own stage-2 evaluation.
    let mut replay = start_cost;
    let mut editor = DlsaEditor::new(&plan, init);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..proposals {
        let Some(token) = editor.propose(&picker, &mut rng) else { continue };
        match obj.eval_compiled_with_peak(&compiled, editor.dlsa(), editor.peak(), limit) {
            Some(cost) if cost <= replay => replay = cost,
            _ => editor.undo(token),
        }
    }
    if replay.to_bits() != timed.to_bits() {
        return Err(format!(
            "{}: timed stage-2 walk ended at {timed:e}, engine replay at {replay:e}",
            net.name()
        ));
    }
    Ok(timed)
}
