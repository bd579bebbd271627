//! The Buffer Allocator: the outermost iteration of the SoMa framework
//! (paper Sec. V-B).
//!
//! Both stages trade buffer capacity for DRAM-communication quality, so
//! they compete for the GBUF. Each allocator iteration runs a complete
//! two-stage exploration; after the first (unconstrained) iteration, the
//! stage-1 budget shrinks by `allocator_step x Buffer_max` per iteration,
//! freeing headroom for stage-2 prefetching. Iteration stops when two
//! consecutive budgets fail to beat the best overall cost.
//!
//! The allocator policy itself lives in
//! [`SearchSession`](crate::session::SearchSession); this module keeps
//! the outcome type.

use serde::{Deserialize, Serialize};
use soma_model::Network;

use crate::objective::Evaluated;

/// Result of a full SoMa exploration.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct SearchOutcome {
    /// The stage-1 scheme behind the best overall scheme, evaluated under
    /// the double-buffer DLSA — the paper's `Ours_1` bars.
    pub stage1: Evaluated,
    /// The best overall scheme after stage 2 — the paper's `Ours_2` bars.
    pub best: Evaluated,
    /// Number of allocator iterations executed.
    pub allocator_iters: usize,
    /// Total *completed* schedule evaluations.
    pub evals: u64,
    /// Total failed evaluation attempts (deadlocked DRAM tensor orders,
    /// structurally invalid LFAs), kept apart from `evals` so
    /// evaluations-per-second metrics measure real work.
    pub rejected: u64,
}

/// Summary statistics of a found scheme (for the paper's Sec. VI-B
/// aggregate analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

impl SearchOutcome {
    /// Shape statistics of the best scheme.
    pub fn shape(&self, net: &Network) -> SchemeShape {
        let plan = soma_core::parse_lfa(net, &self.best.encoding.lfa)
            .expect("best scheme parses by construction");
        SchemeShape {
            lgs: plan.n_lgs(),
            flgs: plan.n_flgs(),
            tiles: plan.tiles.len(),
            dram_tensors: plan.dram_tensors.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Scheduler, SearchConfig};
    use soma_arch::HardwareConfig;
    use soma_model::zoo;

    fn quick_cfg(seed: u64) -> SearchConfig {
        SearchConfig { effort: 0.05, seed, ..SearchConfig::default() }
    }

    #[test]
    fn stage2_never_worse_than_stage1() {
        let net = zoo::fig2(1);
        let hw = HardwareConfig::edge();
        let out = Scheduler::new(&net, &hw).config(quick_cfg(1)).run();
        assert!(out.best.cost <= out.stage1.cost);
        assert!(out.best.report.latency_cycles <= out.stage1.report.latency_cycles * 2);
        assert!(out.allocator_iters >= 1);
        assert!(out.evals > 0);
    }

    #[test]
    fn best_scheme_fits_buffer() {
        let net = zoo::fig2(1);
        let hw = HardwareConfig::edge();
        let out = Scheduler::new(&net, &hw).config(quick_cfg(2)).run();
        assert!(out.best.report.peak_buffer <= hw.buffer_bytes);
    }

    #[test]
    fn deterministic_for_seed() {
        let net = zoo::fig4(1);
        let hw = HardwareConfig::edge();
        let a = Scheduler::new(&net, &hw).config(quick_cfg(33)).run();
        let b = Scheduler::new(&net, &hw).config(quick_cfg(33)).run();
        assert_eq!(a.best.report.latency_cycles, b.best.report.latency_cycles);
        assert_eq!(a.best.encoding, b.best.encoding);
    }

    #[test]
    fn shape_statistics_are_consistent() {
        let net = zoo::fig4(1);
        let hw = HardwareConfig::edge();
        let out = Scheduler::new(&net, &hw).config(quick_cfg(4)).run();
        let shape = out.shape(&net);
        assert!(shape.lgs <= shape.flgs);
        assert!(shape.flgs <= net.len());
        assert!(shape.tiles >= net.len());
    }
}
