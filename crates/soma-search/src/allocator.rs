//! The Buffer Allocator: the outermost iteration of the SoMa framework
//! (paper Sec. V-B).
//!
//! Both stages trade buffer capacity for DRAM-communication quality, so
//! they compete for the GBUF. Each allocator iteration runs a complete
//! two-stage exploration; after the first (unconstrained) iteration, the
//! stage-1 budget shrinks by `allocator_step x Buffer_max` per iteration,
//! freeing headroom for stage-2 prefetching. Iteration stops when two
//! consecutive budgets fail to beat the best overall cost. The Cocco
//! baseline runs its one restricted stage in a single round.
//!
//! [`Scheduler`](crate::Scheduler) runs this loop once per seed; this
//! module also keeps the outcome type.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use soma_arch::HardwareConfig;
use soma_core::Encoding;
use soma_model::Network;

use crate::cocco::run_cocco;
use crate::dlsa_stage::run_stage2;
use crate::lfa_stage::run_stage1;
use crate::objective::{Evaluated, Objective};
use crate::session::{Cancelled, SchedulerKind, SearchEvent};
use crate::SearchConfig;

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

/// Runs one seed's search: SoMa's allocator rounds (stage 1, then
/// stage 2 on the frozen stage-1 plan) or Cocco's single round. One
/// RNG stream runs through every round and stage. `cancel` is polled at
/// each round's start and after every stage; once it fires, everything
/// the search computed is dropped.
pub(crate) fn search(
    net: &Network,
    hw: &HardwareConfig,
    cfg: &SearchConfig,
    kind: SchedulerKind,
    cancel: Option<&(dyn Fn() -> bool + Sync)>,
    emit: &mut dyn FnMut(&SearchEvent),
) -> Result<SearchOutcome, Cancelled> {
    let cancelled = || cancel.is_some_and(|probe| probe());
    let mut obj = Objective::new(net, hw, cfg.weights);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let max_rounds = match kind {
        SchedulerKind::Soma => cfg.max_allocator_iters.max(1),
        SchedulerKind::Cocco => 1,
    };
    // Stage 2 (and Cocco) always get the full buffer; stage 1 gets the
    // shrinking budget.
    let buffer_limit = hw.buffer_bytes;
    let mut stage1_limit = buffer_limit;
    // `Buffer_max`: stage-1 peak occupancy of the unconstrained round.
    let mut buffer_max = 0;
    let mut consecutive_fails = 0;
    // Best `(stage-1 snapshot, final scheme)` so far.
    let mut best: Option<(Evaluated, Evaluated)> = None;
    let mut round = 0;
    loop {
        if cancelled() {
            return Err(Cancelled);
        }
        emit(&SearchEvent::RoundStarted { round, stage1_budget: stage1_limit });
        let mut stage_finished = |stage: &str, cost: f64, evals: u64| {
            emit(&SearchEvent::StageFinished { round, stage: stage.to_string(), cost, evals });
            if cancelled() {
                Err(Cancelled)
            } else {
                Ok(())
            }
        };
        let (first, last) = match kind {
            SchedulerKind::Soma => {
                let s1 = run_stage1(&mut obj, cfg, &mut rng, stage1_limit);
                stage_finished("lfa", s1.cost, obj.evals())?;
                let first = s1.evaluated();
                let s2 = run_stage2(&mut obj, cfg, &mut rng, &s1.plan, s1.dlsa, buffer_limit);
                stage_finished("dlsa", s2.cost, obj.evals())?;
                let last = Evaluated {
                    encoding: Encoding { lfa: s1.lfa, dlsa: Some(s2.dlsa) },
                    report: s2.report,
                    cost: s2.cost,
                };
                (first, last)
            }
            SchedulerKind::Cocco => {
                let c = run_cocco(&mut obj, cfg, &mut rng, buffer_limit);
                stage_finished("cocco", c.cost, obj.evals())?;
                let only = c.evaluated();
                (only.clone(), only)
            }
        };
        if round == 0 {
            buffer_max = first.report.peak_buffer.max(1);
        }

        let mut done = if best.as_ref().is_none_or(|(_, b)| last.cost < b.cost) {
            emit(&SearchEvent::NewBest {
                round,
                cost: last.cost,
                latency_cycles: last.report.latency_cycles,
            });
            best = Some((first, last));
            consecutive_fails = 0;
            false
        } else {
            consecutive_fails += 1;
            consecutive_fails >= 2
        };
        let rounds = round + 1;
        done = done || rounds >= max_rounds;
        if !done {
            // Shrink the stage-1 budget for the next round.
            let step = (cfg.allocator_step * buffer_max as f64) as u64;
            if step == 0 || stage1_limit <= step {
                done = true;
            } else {
                stage1_limit -= step;
            }
        }
        if done {
            emit(&SearchEvent::BudgetExhausted { rounds, evals: obj.evals() });
            let (stage1, best) = best.expect("round 0 always sets a best");
            return Ok(SearchOutcome {
                stage1,
                best,
                allocator_iters: rounds,
                evals: obj.evals(),
                rejected: obj.rejected(),
            });
        }
        round = rounds;
    }
}

#[cfg(test)]
mod tests {
    use crate::{Scheduler, SearchConfig, SearchEvent};
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

    #[test]
    fn each_round_shrinks_the_stage1_budget() {
        let net = zoo::fig2(1);
        let hw = HardwareConfig::edge();
        let mut budgets = Vec::new();
        let out = Scheduler::new(&net, &hw)
            .config(quick_cfg(5))
            .observer(|ev| {
                if let SearchEvent::RoundStarted { stage1_budget, .. } = ev {
                    budgets.push(*stage1_budget);
                }
            })
            .run();
        assert_eq!(budgets.len(), out.allocator_iters);
        assert_eq!(budgets[0], hw.buffer_bytes, "round 0 runs unconstrained");
        assert!(budgets.windows(2).all(|w| w[1] < w[0]), "budgets {budgets:?}");
        assert_eq!(budgets, [8_388_608, 8_337_408, 8_286_208, 8_235_008]);
    }

    #[test]
    fn cocco_runs_one_round() {
        let net = zoo::fig2(1);
        let hw = HardwareConfig::edge();
        let mut events = Vec::new();
        let out = Scheduler::cocco(&net, &hw)
            .config(quick_cfg(5))
            .observer(|ev| events.push(ev.clone()))
            .run();
        assert_eq!(out.allocator_iters, 1);
        assert_eq!(out.stage1, out.best);
        assert_eq!(out.stage1.cost.to_bits(), out.best.cost.to_bits());
        assert_eq!(
            events,
            [
                SearchEvent::RoundStarted { round: 0, stage1_budget: hw.buffer_bytes },
                SearchEvent::StageFinished {
                    round: 0,
                    stage: "cocco".to_string(),
                    cost: out.best.cost,
                    evals: out.evals,
                },
                SearchEvent::NewBest {
                    round: 0,
                    cost: out.best.cost,
                    latency_cycles: out.best.report.latency_cycles,
                },
                SearchEvent::BudgetExhausted { rounds: 1, evals: out.evals },
            ]
        );
    }
}
