//! Property-based tests over the core invariants of the notation, parser
//! and simulator, using randomly generated chain networks, cut sets,
//! tiling numbers and DLSA mutations.

use proptest::prelude::*;
use soma::core::{lifetime, parse_lfa, Dlsa, Lfa};
use soma::model::zoo;
use soma::prelude::*;
use soma::sim::CoreArrayModel;

/// Strategy: a chain network plus a random valid LFA over it.
fn arb_lfa() -> impl Strategy<Value = (soma::model::Network, Lfa)> {
    (2u32..8, 1u32..5, 8u32..33, any::<u64>()).prop_map(|(depth, chans_p, hw, seed)| {
        let net = zoo::chain(1, 8 * chans_p, hw, depth);
        // Derive cuts/tiling pseudo-randomly but deterministically.
        let mut rng = seed;
        let mut next = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as u32
        };
        let n = net.len();
        let mut flc = std::collections::BTreeSet::new();
        for p in 1..n {
            if next() % 2 == 0 {
                flc.insert(p);
            }
        }
        let dram_cuts: std::collections::BTreeSet<usize> =
            flc.iter().copied().filter(|_| next() % 2 == 0).collect();
        let n_groups = flc.len() + 1;
        let tiling: Vec<u32> = (0..n_groups).map(|_| 1 << (next() % 5)).collect();
        let lfa = Lfa {
            order: (0..n as u32).map(soma::model::LayerId).collect(),
            flc,
            tiling,
            dram_cuts,
        };
        (net, lfa)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every structurally valid LFA parses, and the plan's tile count
    /// equals the sum over FLGs of (layers x tiling).
    #[test]
    fn parse_tile_count_invariant((net, lfa) in arb_lfa()) {
        let plan = parse_lfa(&net, &lfa).unwrap();
        let expected: usize = lfa
            .flg_ranges()
            .iter()
            .zip(&lfa.tiling)
            .map(|(&(a, b), &t)| (b - a) * t as usize)
            .sum();
        prop_assert_eq!(plan.tiles.len(), expected);
    }

    /// Tile positions are a permutation of 0..n_tiles: tile `i` of the
    /// `j`-th layer of an FLG sits at FLG base + `i` x group size + `j`.
    #[test]
    fn tile_positions_are_dense((net, lfa) in arb_lfa()) {
        let plan = parse_lfa(&net, &lfa).unwrap();
        let mut base = 0usize;
        for (g, (&(start, end), &tiling)) in lfa.flg_ranges().iter().zip(&lfa.tiling).enumerate() {
            let size = end - start;
            for i in 0..tiling as usize {
                for (j, &id) in lfa.order[start..end].iter().enumerate() {
                    let t = &plan.tiles[base + i * size + j];
                    prop_assert_eq!(t.layer, id);
                    prop_assert_eq!(t.tile_idx as usize, i);
                    prop_assert_eq!(t.flg as usize, g);
                }
            }
            base += size * tiling as usize;
        }
        prop_assert_eq!(base, plan.tiles.len());
    }

    /// Fusing strictly reduces (or keeps) total DRAM bytes relative to the
    /// fully-unfused plan at the same tiling.
    #[test]
    fn fusion_never_increases_dram_bytes((net, lfa) in arb_lfa()) {
        let plan = parse_lfa(&net, &lfa).unwrap();
        let mut unfused = Lfa::unfused(&net, 1);
        // Match per-layer tiling so the comparison is about fusion only.
        unfused.tiling = (0..net.len())
            .map(|i| {
                let g = plan.flg_of[lfa.order.iter().position(|&l| l.index() == i).unwrap_or(i)];
                lfa.tiling[g as usize]
            })
            .collect();
        let u = parse_lfa(&net, &unfused).unwrap();
        prop_assert!(plan.dram_bytes() <= u.dram_bytes());
    }

    /// The double-buffer DLSA always validates and never deadlocks, and
    /// the timeline respects the paper's start conditions.
    #[test]
    fn double_buffer_always_simulates((net, lfa) in arb_lfa()) {
        let plan = parse_lfa(&net, &lfa).unwrap();
        let dlsa = Dlsa::double_buffer(&plan);
        prop_assert!(dlsa.validate(&plan).is_ok());
        let hw = HardwareConfig::edge();
        let mut model = CoreArrayModel::new(&hw);
        let tl = soma::sim::simulate(&plan, &dlsa, &hw, &mut model).unwrap();
        // Load-before-use and store-after-produce.
        for (i, t) in plan.dram_tensors.iter().enumerate() {
            if t.is_load {
                prop_assert!(tl.tensor_end[i] <= tl.tile_start[t.anchor as usize]);
            } else {
                prop_assert!(tl.tensor_start[i] >= tl.tile_end[t.anchor as usize]);
            }
        }
        prop_assert!(tl.latency >= tl.compute_busy.max(tl.dram_busy));
    }

    /// The buffer profile is exactly the sum of interval memberships —
    /// cross-check the difference-array implementation against a naive one.
    #[test]
    fn buffer_profile_matches_naive((net, lfa) in arb_lfa()) {
        let plan = parse_lfa(&net, &lfa).unwrap();
        let dlsa = Dlsa::double_buffer(&plan);
        let fast = lifetime::buffer_profile(&plan, &dlsa);
        let n = plan.n_tiles() as usize;
        let mut naive = vec![0u64; n];
        for iv in &plan.onchip {
            for slot in naive.iter_mut().take((iv.to as usize + 1).min(n)).skip(iv.from as usize) {
                *slot += iv.bytes;
            }
        }
        for (i, t) in plan.dram_tensors.iter().enumerate() {
            let (a, b) = if t.is_load {
                (dlsa.start[i] as usize, (t.last_use + 1) as usize)
            } else {
                (t.anchor as usize, dlsa.end[i].max(t.anchor + 1) as usize)
            };
            for slot in naive.iter_mut().take(b.min(n)).skip(a) {
                *slot += t.bytes;
            }
        }
        prop_assert_eq!(fast, naive);
    }

    /// Energy is invariant under DLSA changes (only timing moves), while
    /// latency may change.
    #[test]
    fn dlsa_changes_do_not_change_energy((net, lfa) in arb_lfa()) {
        let plan = parse_lfa(&net, &lfa).unwrap();
        let hw = HardwareConfig::edge();
        let base = Dlsa::double_buffer(&plan);
        let mut eager = base.clone();
        for (i, t) in plan.dram_tensors.iter().enumerate() {
            if t.is_load {
                eager.start[i] = 0;
            }
        }
        let sched_a = soma::core::ParsedSchedule { plan: plan.clone(), dlsa: base };
        let sched_b = soma::core::ParsedSchedule { plan, dlsa: eager };
        let a = evaluate(&net, &sched_a, &hw).unwrap();
        let b = evaluate(&net, &sched_b, &hw).unwrap();
        prop_assert!((a.energy.total_pj() - b.energy.total_pj()).abs() < 1e-6);
        prop_assert!(b.latency_cycles <= a.latency_cycles);
    }
}
