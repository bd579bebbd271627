//! Stage 1: SA over the layer-fusion-related attributes (paper Sec. V-C1).
//!
//! The DLSA is fixed to the classical double-buffer strategy while the LFA
//! varies. Operators: *Change Computing Order*, *Change Tiling Number*,
//! *Add/Delete an FLC*, *Add/Delete a DRAM Cut*.

use rand::rngs::StdRng;
use rand::Rng;
use soma_arch::HardwareConfig;
use soma_core::plan::MAX_TILING;
use soma_core::{ComputePlan, Dlsa, Encoding, Lfa};
use soma_model::{LayerId, Network, Src};
use soma_sim::EvalReport;

use crate::objective::{Evaluated, Objective};
use crate::sa::{anneal, SaSchedule};
use crate::SearchConfig;

/// The minimum-granularity tiling number for a layer: the finest tiling
/// whose tiles still provide one full wave of spatial work to the core
/// array (the paper's stage-1 initial granularity, "the size required for
/// the core array to perform parallel computation").
pub fn min_granularity_tiling(net: &Network, hw: &HardwareConfig, id: LayerId) -> u32 {
    let of = net.layer(id).ofmap;
    let spatial_work = u64::from(of.n) * of.spatial();
    let lanes = u64::from(hw.cores) * u64::from(hw.spatial_parallel);
    let t = (spatial_work / lanes.max(1)).clamp(1, u64::from(MAX_TILING));
    prev_power_of_two(t as u32)
}

fn prev_power_of_two(x: u32) -> u32 {
    if x == 0 {
        1
    } else {
        1 << (31 - x.leading_zeros())
    }
}

/// The stage-1 initial solution: every layer its own FLG and LG, tiled at
/// minimum granularity.
pub fn initial_lfa(net: &Network, hw: &HardwareConfig) -> Lfa {
    let mut lfa = Lfa::unfused(net, 1);
    lfa.tiling = lfa.order.iter().map(|&id| min_granularity_tiling(net, hw, id)).collect();
    lfa
}

/// Valid insertion range `[lo, hi]` for moving `layer` within `order`
/// (positions are indices into the order *after* removing the layer).
fn move_range(net: &Network, order: &[LayerId], layer: LayerId) -> (usize, usize) {
    let cur = order.iter().position(|&l| l == layer).expect("layer in order");
    let mut lo = 0usize;
    let mut hi = order.len() - 1; // after removal the order has len-1 slots
    for (p, &other) in order.iter().enumerate() {
        if other == layer {
            continue;
        }
        // Position of `other` once `layer` is removed.
        let p_removed = if p > cur { p - 1 } else { p };
        let produces = net.layer(layer).inputs.contains(&Src::Layer(other));
        let consumes = net.layer(other).inputs.contains(&Src::Layer(layer));
        if produces {
            lo = lo.max(p_removed + 1);
        }
        if consumes {
            hi = hi.min(p_removed);
        }
    }
    (lo, hi)
}

/// FLG index containing order position `p`.
fn group_of(lfa: &Lfa, p: usize) -> usize {
    lfa.flc.iter().filter(|&&c| c <= p).count()
}

/// One random LFA mutation; `None` means the drawn operator had no valid
/// candidates (the annealer skips such proposals).
///
/// With `link_cuts` (ablation), the FLC and DRAM cut sets move together:
/// adding/removing a cut affects both sets and the DRAM-cut-only
/// operators are disabled.
pub fn mutate_lfa(net: &Network, lfa: &Lfa, rng: &mut StdRng, link_cuts: bool) -> Option<Lfa> {
    let n = lfa.order.len();
    let op = if link_cuts { rng.gen_range(0..4u8) } else { rng.gen_range(0..6u8) };
    match op {
        // Change Computing Order.
        0 => {
            let layer = lfa.order[rng.gen_range(0..n)];
            let (lo, hi) = move_range(net, &lfa.order, layer);
            if lo > hi {
                return None;
            }
            let q = rng.gen_range(lo..=hi);
            let mut order = lfa.order.clone();
            let cur = order.iter().position(|&l| l == layer).expect("present");
            order.remove(cur);
            order.insert(q, layer);
            if order == lfa.order {
                return None;
            }
            Some(Lfa { order, ..lfa.clone() })
        }
        // Change Tiling Number (x2 or /2).
        1 => {
            let g = rng.gen_range(0..lfa.tiling.len());
            let t = lfa.tiling[g];
            let t2 = if rng.gen_bool(0.5) { t.checked_mul(2)? } else { t / 2 };
            if t2 == 0 || t2 > MAX_TILING || t2 == t {
                return None;
            }
            let mut tiling = lfa.tiling.clone();
            tiling[g] = t2;
            Some(Lfa { tiling, ..lfa.clone() })
        }
        // Add an FLC: split a group; both halves inherit the tiling.
        2 => {
            let candidates: Vec<usize> = (1..n).filter(|p| !lfa.flc.contains(p)).collect();
            if candidates.is_empty() {
                return None;
            }
            let p = candidates[rng.gen_range(0..candidates.len())];
            let g = group_of(lfa, p);
            let mut out = lfa.clone();
            out.flc.insert(p);
            if link_cuts {
                out.dram_cuts.insert(p);
            }
            out.tiling.insert(g + 1, out.tiling[g]);
            Some(out)
        }
        // Delete an FLC (not a DRAM cut, unless cuts are linked): merge
        // two groups; the tiling is inherited probabilistically by
        // layer-count ratio.
        3 => {
            let candidates: Vec<usize> = lfa
                .flc
                .iter()
                .copied()
                .filter(|p| link_cuts || !lfa.dram_cuts.contains(p))
                .collect();
            if candidates.is_empty() {
                return None;
            }
            let p = candidates[rng.gen_range(0..candidates.len())];
            let g = lfa.flc.iter().position(|&c| c == p).expect("cut present");
            let ranges = lfa.flg_ranges();
            let (a, b) = (ranges[g].1 - ranges[g].0, ranges[g + 1].1 - ranges[g + 1].0);
            let keep_left = rng.gen_bool(a as f64 / (a + b) as f64);
            let mut out = lfa.clone();
            out.flc.remove(&p);
            out.dram_cuts.remove(&p);
            let inherited = if keep_left { out.tiling[g] } else { out.tiling[g + 1] };
            out.tiling[g] = inherited;
            out.tiling.remove(g + 1);
            Some(out)
        }
        // Add a DRAM cut (must already be an FLC).
        4 => {
            let candidates: Vec<usize> =
                lfa.flc.iter().copied().filter(|p| !lfa.dram_cuts.contains(p)).collect();
            if candidates.is_empty() {
                return None;
            }
            let p = candidates[rng.gen_range(0..candidates.len())];
            let mut out = lfa.clone();
            out.dram_cuts.insert(p);
            Some(out)
        }
        // Delete a DRAM cut (the FLC stays).
        _ => {
            if lfa.dram_cuts.is_empty() {
                return None;
            }
            let cuts: Vec<usize> = lfa.dram_cuts.iter().copied().collect();
            let p = cuts[rng.gen_range(0..cuts.len())];
            let mut out = lfa.clone();
            out.dram_cuts.remove(&p);
            Some(out)
        }
    }
}

/// Best scheme found by stage 1.
#[derive(Debug, Clone)]
pub struct Stage1Result {
    /// The winning LFA.
    pub lfa: Lfa,
    /// Its parsed plan.
    pub plan: ComputePlan,
    /// The implied double-buffer DLSA.
    pub dlsa: Dlsa,
    /// Evaluation under the double-buffer DLSA.
    pub report: EvalReport,
    /// Penalised objective value.
    pub cost: f64,
}

impl Stage1Result {
    /// The scheme as a self-contained [`Evaluated`] (clones the encoding
    /// parts; the plan is dropped, it can be re-parsed).
    pub fn evaluated(&self) -> Evaluated {
        Evaluated {
            encoding: Encoding { lfa: self.lfa.clone(), dlsa: Some(self.dlsa.clone()) },
            report: self.report.clone(),
            cost: self.cost,
        }
    }
}

/// Runs the stage-1 annealer under a buffer budget.
///
/// # Panics
///
/// Panics if even the initial (unfused) solution fails to parse — that
/// would mean the network itself is malformed.
pub fn run_stage1(
    obj: &mut Objective<'_>,
    cfg: &SearchConfig,
    rng: &mut StdRng,
    buffer_limit: u64,
) -> Stage1Result {
    let net = obj.network();
    let init = initial_lfa(net, obj.hardware());
    let (init_cost, ..) =
        obj.eval_lfa(&init, buffer_limit).expect("the unfused initial solution must always parse");

    let iters = cfg.stage1_iters(net.len());
    let schedule = SaSchedule {
        t0: cfg.t0,
        alpha: cfg.alpha,
        iters,
        greedy_tail: iters / 10,
        time_budget: cfg.stage_time_budget(),
    };
    // The SA inner loop takes the engine's cost-only fast path (same
    // cost bits as `eval_lfa`, no report/timeline construction).
    let result = anneal(&schedule, rng, init, init_cost, |lfa, rng| {
        let cand = mutate_lfa(net, lfa, rng, cfg.link_cuts)?;
        let cost = obj.eval_lfa_cost(&cand, buffer_limit)?;
        Some((cand, cost))
    });

    let (cost, plan, dlsa, report) =
        obj.eval_lfa(&result.best, buffer_limit).expect("best stage-1 solution must re-evaluate");
    Stage1Result { lfa: result.best, plan, dlsa, report, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::CostWeights;
    use rand::SeedableRng;
    use soma_model::zoo;

    #[test]
    fn initial_lfa_parses_everywhere() {
        let hw = HardwareConfig::edge();
        for net in zoo::edge_suite(1) {
            let lfa = initial_lfa(&net, &hw);
            assert!(soma_core::parse_lfa(&net, &lfa).is_ok(), "{}", net.name());
        }
    }

    #[test]
    fn min_granularity_is_power_of_two() {
        let hw = HardwareConfig::edge();
        let net = zoo::resnet50(4);
        for (id, _) in net.iter() {
            let t = min_granularity_tiling(&net, &hw, id);
            assert!(t.is_power_of_two());
            assert!(t <= MAX_TILING);
        }
    }

    #[test]
    fn mutations_preserve_validity_mostly() {
        let net = zoo::fig4(1);
        let hw = HardwareConfig::edge();
        let mut rng = StdRng::seed_from_u64(11);
        let mut lfa = initial_lfa(&net, &hw);
        let mut applied = 0;
        for _ in 0..300 {
            if let Some(cand) = mutate_lfa(&net, &lfa, &mut rng, false) {
                // Structural invariants the operators must maintain:
                assert_eq!(cand.tiling.len(), cand.flg_count());
                assert!(cand.dram_cuts.iter().all(|c| cand.flc.contains(c)));
                if soma_core::parse_lfa(&net, &cand).is_ok() {
                    lfa = cand;
                    applied += 1;
                }
            }
        }
        assert!(applied > 50, "only {applied} mutations applied");
    }

    #[test]
    fn move_range_respects_dependencies() {
        let net = zoo::fig4(1);
        let lfa = Lfa::unfused(&net, 1);
        // Layer E (index 3) must stay after C (2) and before D (4).
        let (lo, hi) = move_range(&net, &lfa.order, LayerId(3));
        assert_eq!((lo, hi), (3, 3));
        // Layer A (0) must stay before B.
        let (lo, hi) = move_range(&net, &lfa.order, LayerId(0));
        assert_eq!((lo, hi), (0, 0));
    }

    #[test]
    fn linked_cuts_mutations_keep_sets_equal() {
        let net = zoo::fig4(1);
        let hw = HardwareConfig::edge();
        let mut rng = StdRng::seed_from_u64(23);
        let mut lfa = initial_lfa(&net, &hw); // unfused: flc == dram_cuts
        for _ in 0..200 {
            if let Some(cand) = mutate_lfa(&net, &lfa, &mut rng, true) {
                assert_eq!(cand.flc, cand.dram_cuts);
                if soma_core::parse_lfa(&net, &cand).is_ok() {
                    lfa = cand;
                }
            }
        }
    }

    #[test]
    fn stage1_improves_over_initial() {
        let net = zoo::fig2(1);
        let hw = HardwareConfig::edge();
        let mut obj = Objective::new(&net, &hw, CostWeights::default());
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = SearchConfig { effort: 1.0, seed: 5, ..SearchConfig::default() };
        let init = initial_lfa(&net, &hw);
        let init_cost = obj.eval_lfa(&init, hw.buffer_bytes).unwrap().0;
        let res = run_stage1(&mut obj, &cfg, &mut rng, hw.buffer_bytes);
        assert!(res.cost <= init_cost);
        // Fusion should appear: fewer LGs than layers.
        assert!(res.lfa.dram_cuts.len() < net.len());
    }
}
