//! Roll-up of a simulated schedule into the metrics the paper reports.

use soma_arch::HardwareConfig;
use soma_core::{lifetime, ParsedSchedule};
use soma_model::Network;

use crate::core_array::CoreArrayModel;
use crate::timeline::{simulate, SimError, Timeline};

/// Energy decomposition in picojoules, matching Fig. 6's split.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Core-array energy: MACs/vector ops, L0 and GBUF accesses.
    pub core_pj: f64,
    /// DRAM access energy (reads + writes).
    pub dram_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.core_pj + self.dram_pj
    }
}

/// Evaluation result for one schedule on one hardware configuration: the
/// quantities of the paper's Fig. 6 plus the raw timeline for execution-
/// graph rendering (Fig. 8).
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// End-to-end latency in cycles.
    pub latency_cycles: u64,
    /// Energy decomposition.
    pub energy: EnergyBreakdown,
    /// Computing Resources Utilization: network ops / (peak * latency).
    pub compute_util: f64,
    /// DRAM utilisation: transfer busy cycles / latency.
    pub dram_util: f64,
    /// Theoretical Maximum Computing Resources Utilization (Fig. 6's blue
    /// diamonds): utilisation at the latency lower bound
    /// `max(sum of tile times, sum of DRAM tensor times)` — both serial
    /// resources perfectly packed, dependencies ignored.
    pub theoretical_max_util: f64,
    /// Peak GBUF occupancy in bytes.
    pub peak_buffer: u64,
    /// Time-weighted average GBUF occupancy in bytes
    /// (`sum(usage_t * tile_time_t) / sum(tile_time_t)`).
    pub avg_buffer: u64,
    /// Total DRAM bytes moved.
    pub dram_bytes: u64,
    /// The exact timeline (start/end of every tensor and tile).
    pub timeline: Timeline,
}

/// Evaluates a plan + DLSA pair, reusing a caller-provided (memoised)
/// core-array model — the fast path for search loops, which mutate the
/// DLSA thousands of times against one plan.
///
/// # Errors
///
/// Propagates [`SimError`] for deadlocked DRAM tensor orders.
pub fn evaluate_parts(
    net: &Network,
    plan: &soma_core::ComputePlan,
    dlsa: &soma_core::Dlsa,
    hw: &HardwareConfig,
    model: &mut CoreArrayModel<'_>,
) -> Result<EvalReport, SimError> {
    let tl = simulate(plan, dlsa, hw, model)?;

    let mut core_pj = 0.0;
    for t in &plan.tiles {
        core_pj += model.cost(t).energy_pj;
    }
    let mut read = 0u64;
    let mut write = 0u64;
    for t in &plan.dram_tensors {
        if t.is_load {
            read += t.bytes;
        } else {
            write += t.bytes;
        }
    }
    let dram_pj = hw.energy.dram(read, write);

    let net_ops = net.total_ops();
    let peak = hw.peak_ops_per_cycle() as f64;
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
        energy: EnergyBreakdown { core_pj, dram_pj },
        compute_util: util(tl.latency),
        dram_util: if tl.latency == 0 { 0.0 } else { tl.dram_busy as f64 / tl.latency as f64 },
        theoretical_max_util: util(bound),
        peak_buffer,
        avg_buffer,
        dram_bytes: read + write,
        timeline: tl,
    })
}

/// Evaluates a parsed schedule with a fresh core-array model.
///
/// # Errors
///
/// Propagates [`SimError`] for deadlocked DRAM tensor orders.
pub fn evaluate(
    net: &Network,
    sched: &ParsedSchedule,
    hw: &HardwareConfig,
) -> Result<EvalReport, SimError> {
    let mut model = CoreArrayModel::new(hw);
    evaluate_parts(net, &sched.plan, &sched.dlsa, hw, &mut model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soma_core::{Encoding, Lfa};
    use soma_model::zoo;

    fn report(tiling: u32, fused: bool) -> (Network, EvalReport) {
        let net = zoo::fig2(1);
        let lfa = if fused { Lfa::fully_fused(&net, tiling) } else { Lfa::unfused(&net, tiling) };
        let sched = ParsedSchedule::new(&net, &Encoding::from_lfa(lfa)).unwrap();
        let hw = HardwareConfig::edge();
        let r = evaluate(&net, &sched, &hw).unwrap();
        (net, r)
    }

    #[test]
    fn utilisations_are_fractions() {
        let (_, r) = report(4, false);
        assert!(r.compute_util > 0.0 && r.compute_util <= 1.0);
        assert!(r.dram_util > 0.0 && r.dram_util <= 1.0);
        assert!(r.theoretical_max_util >= r.compute_util);
    }

    #[test]
    fn fusion_reduces_dram_bytes_and_energy() {
        let (_, unfused) = report(4, false);
        let (_, fused) = report(4, true);
        assert!(fused.dram_bytes < unfused.dram_bytes);
        assert!(fused.energy.dram_pj < unfused.energy.dram_pj);
    }

    #[test]
    fn buffer_stats_are_consistent() {
        let (_, r) = report(4, true);
        assert!(r.peak_buffer >= r.avg_buffer);
        assert!(r.peak_buffer > 0);
    }

    #[test]
    fn latency_at_least_both_busy_sums() {
        let (_, r) = report(2, false);
        assert!(r.latency_cycles >= r.timeline.compute_busy);
        assert!(r.latency_cycles >= r.timeline.dram_busy);
    }
}
