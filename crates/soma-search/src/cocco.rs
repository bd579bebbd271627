//! The Cocco baseline (paper Sec. VI-A3, \[49\]).
//!
//! Mapped into our notation (paper Sec. IV-B), Cocco explores only the
//! *Computing Order* and *DRAM Cut* attributes:
//!
//! * the FLC set is identical to the DRAM cut set (no weight-shuffling
//!   FLCs inside an LG),
//! * each group's tiling number comes from the KC-parallelism heuristic
//!   ("selects each tile size based only on the basic parallelism
//!   requirements of the computing units"),
//! * the DLSA is the classical double-buffer strategy.

use rand::rngs::StdRng;
use rand::Rng;
use soma_arch::HardwareConfig;
use soma_core::Lfa;
use soma_model::{LayerId, Network};

use crate::lfa_stage::{anneal_lfa, min_granularity_tiling, move_layer, Stage1Result};
use crate::objective::Objective;
use crate::SearchConfig;

/// Cocco's heuristic tiling number for a group of layers: the finest
/// requirement among its members, so every layer's tiles still fill the
/// core array's parallel lanes.
pub fn cocco_tiling(net: &Network, hw: &HardwareConfig, layers: &[LayerId]) -> u32 {
    layers.iter().map(|&id| min_granularity_tiling(net, hw, id)).max().unwrap_or(1)
}

/// Recomputes every group's tiling number after a structural change.
fn retile(net: &Network, hw: &HardwareConfig, lfa: &mut Lfa) {
    let ranges = lfa.flg_ranges();
    lfa.tiling = ranges.iter().map(|&(a, b)| cocco_tiling(net, hw, &lfa.order[a..b])).collect();
}

/// Cocco's initial solution: unfused, heuristic tiling.
pub fn initial_cocco(net: &Network, hw: &HardwareConfig) -> Lfa {
    let mut lfa = Lfa::unfused(net, 1);
    retile(net, hw, &mut lfa);
    lfa
}

/// One Cocco mutation: move a layer, or add/delete a fused-group cut
/// (FLC and DRAM cut always together).
pub fn mutate_cocco(
    net: &Network,
    hw: &HardwareConfig,
    lfa: &Lfa,
    rng: &mut StdRng,
) -> Option<Lfa> {
    let n = lfa.order.len();
    let mut out = match rng.gen_range(0..3u8) {
        // Change computing order: SoMa's operator.
        0 => Lfa { order: move_layer(net, &lfa.order, rng)?, ..lfa.clone() },
        // Add a group cut (both sets).
        1 => {
            let candidates: Vec<usize> = (1..n).filter(|p| !lfa.flc.contains(p)).collect();
            if candidates.is_empty() {
                return None;
            }
            let p = candidates[rng.gen_range(0..candidates.len())];
            let mut o = lfa.clone();
            o.flc.insert(p);
            o.dram_cuts.insert(p);
            o.tiling.push(1); // placeholder; retile() rebuilds
            o
        }
        // Delete a group cut (both sets).
        _ => {
            if lfa.flc.is_empty() {
                return None;
            }
            let cuts: Vec<usize> = lfa.flc.iter().copied().collect();
            let p = cuts[rng.gen_range(0..cuts.len())];
            let mut o = lfa.clone();
            o.flc.remove(&p);
            o.dram_cuts.remove(&p);
            o.tiling.pop();
            o
        }
    };
    retile(net, hw, &mut out);
    Some(out)
}

/// Cocco's restricted exploration: SA over computing order and linked
/// FLC/DRAM-cut sets with heuristic tiling, evaluated under the
/// double-buffer DLSA and the full hardware buffer. The restricted space
/// has no stage 2, so the allocator runs it in a single round.
///
/// # Panics
///
/// Panics if even the unfused initial solution fails to parse — that
/// would mean the network itself is malformed.
pub fn run_cocco(
    obj: &mut Objective<'_>,
    cfg: &SearchConfig,
    rng: &mut StdRng,
    buffer_limit: u64,
) -> Stage1Result {
    let (net, hw) = (obj.network(), obj.hardware());
    anneal_lfa(obj, cfg, rng, buffer_limit, initial_cocco(net, hw), |lfa, rng| {
        mutate_cocco(net, hw, lfa, rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scheduler, SearchConfig};
    use rand::SeedableRng;
    use soma_model::zoo;

    #[test]
    fn cocco_restriction_flc_equals_dram_cuts() {
        let net = zoo::fig4(1);
        let hw = HardwareConfig::edge();
        let cfg = SearchConfig { effort: 0.2, seed: 9, ..SearchConfig::default() };
        let out = Scheduler::cocco(&net, &hw).config(cfg).run().best;
        assert_eq!(out.encoding.lfa.flc, out.encoding.lfa.dram_cuts);
    }

    #[test]
    fn cocco_tiling_tracks_finest_member() {
        let net = zoo::resnet50(1);
        let hw = HardwareConfig::edge();
        let a = cocco_tiling(&net, &hw, &[LayerId(0)]);
        let both = cocco_tiling(&net, &hw, &[LayerId(0), LayerId(1)]);
        assert!(both >= a);
    }

    #[test]
    fn cocco_mutations_preserve_invariants() {
        let net = zoo::fig4(1);
        let hw = HardwareConfig::edge();
        let mut rng = StdRng::seed_from_u64(21);
        let mut lfa = initial_cocco(&net, &hw);
        for _ in 0..200 {
            if let Some(c) = mutate_cocco(&net, &hw, &lfa, &mut rng) {
                assert_eq!(c.flc, c.dram_cuts);
                assert_eq!(c.tiling.len(), c.flg_count());
                if soma_core::parse_lfa(&net, &c).is_ok() {
                    lfa = c;
                }
            }
        }
    }

    #[test]
    fn soma_beats_or_ties_cocco_on_demo_net() {
        let net = zoo::fig2(1);
        let hw = HardwareConfig::edge();
        let cfg = SearchConfig { effort: 0.3, seed: 7, ..SearchConfig::default() };
        let cocco = Scheduler::cocco(&net, &hw).config(cfg.clone()).run().best;
        let soma = Scheduler::new(&net, &hw).config(cfg).run();
        assert!(
            soma.best.cost <= cocco.cost * 1.05,
            "SoMa {} vs Cocco {}",
            soma.best.cost,
            cocco.cost
        );
    }
}
