//! Differential suite for stage-1 plan re-use: random `mutate_lfa` and
//! `mutate_cocco` chains parsed through one long-lived `SegmentMemo`
//! must yield the plan a one-shot `parse_lfa` yields **field for field**
//! (tiles, DRAM tensors, on-chip intervals, group membership), and the
//! same `ParseError` for every rejected proposal. The first tile the memo
//! reports as changed must be sound: every tile before it, and every DRAM
//! tensor anchored before it, equals the previous plan's. A rejected LFA
//! leaves the kept plan, and the next report, as if it had never been
//! parsed, and parsing the same LFA twice reports no change. (A memo
//! cleared at its entry cap is covered by `soma-core`'s own unit tests,
//! which can set a small cap.)

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soma::core::{parse_lfa, ComputePlan, Lfa, SegmentMemo};
use soma::model::{zoo, Network};
use soma::prelude::*;
use soma::search::cocco::{initial_cocco, mutate_cocco};
use soma::search::lfa_stage::{initial_lfa, mutate_lfa};

/// Which proposal generator drives a chain.
#[derive(Debug, Clone, Copy)]
enum Mutator {
    /// SoMa's stage-1 operators, with or without linked cut sets.
    Lfa { link_cuts: bool },
    /// Cocco's restricted operators (heuristic re-tiling after each move).
    Cocco,
}

/// Asserts two plans are equal field for field.
fn assert_same_plan(got: &ComputePlan, want: &ComputePlan, step: usize) {
    assert_eq!(got.tiles, want.tiles, "step {step}: tiles");
    assert_eq!(got.dram_tensors, want.dram_tensors, "step {step}: DRAM tensors");
    assert_eq!(got.onchip, want.onchip, "step {step}: on-chip intervals");
    assert_eq!(got.flg_of, want.flg_of, "step {step}: flg_of");
    assert_eq!(got.lg_of_flg, want.lg_of_flg, "step {step}: lg_of_flg");
    assert_eq!(got.n_flgs(), want.n_flgs(), "step {step}: n_flgs");
}

/// One memo under test, with the last LFA that parsed and its plan, and
/// a twin memo that is only ever given LFAs that parse.
struct Checked<'n> {
    net: &'n Network,
    memo: SegmentMemo<'n>,
    twin: SegmentMemo<'n>,
    last: Option<(Lfa, ComputePlan)>,
}

impl<'n> Checked<'n> {
    fn new(net: &'n Network) -> Self {
        Self { net, memo: SegmentMemo::new(net), twin: SegmentMemo::new(net), last: None }
    }

    /// Parses `lfa` through the memo and one-shot, asserts every property
    /// in the module docs, and returns whether it parsed.
    fn parse(&mut self, lfa: &Lfa, step: usize) -> bool {
        match (parse_lfa(self.net, lfa), self.memo.parse(lfa)) {
            (Ok(want), Ok((got, tile))) => {
                assert_same_plan(got, &want, step);
                if let Some((_, prev)) = &self.last {
                    let tensor = got.dram_tensors.partition_point(|t| (t.anchor as usize) < tile);
                    assert_eq!(
                        got.tiles.get(..tile),
                        prev.tiles.get(..tile),
                        "step {step}: kept tiles"
                    );
                    assert_eq!(
                        got.dram_tensors.get(..tensor),
                        prev.dram_tensors.get(..tensor),
                        "step {step}: kept DRAM tensors"
                    );
                }
                let (twin, twin_tile) = self.twin.parse(lfa).expect("parsed above");
                assert_same_plan(twin, &want, step);
                assert_eq!(twin_tile, tile, "step {step}: report against the twin's");
                let (again, none) = self.memo.parse(lfa).expect("parsed above");
                assert_same_plan(again, &want, step);
                assert_eq!(none, want.tiles.len(), "step {step}: a re-parse changes nothing");
                self.last = Some((lfa.clone(), want));
                true
            }
            (Err(want), Err(got)) => {
                assert_eq!(got, want, "step {step}: parse error");
                // The kept plan is still the last one that parsed.
                if let Some((lfa, prev)) = &self.last {
                    let (kept, none) = self.memo.parse(lfa).expect("parsed before");
                    assert_same_plan(kept, prev, step);
                    assert_eq!(
                        none,
                        prev.tiles.len(),
                        "step {step}: a rejected LFA changed the plan"
                    );
                }
                false
            }
            (want, got) => {
                panic!("step {step}: one-shot {:?} against memo {:?}", want.err(), got.err())
            }
        }
    }
}

/// Drives `steps` random proposals through one memo, walking to a valid
/// proposal half of the time.
fn check_chain(checked: &mut Checked<'_>, mutator: Mutator, seed: u64, steps: usize) {
    let net = checked.net;
    let hw = HardwareConfig::edge();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cur = match mutator {
        Mutator::Lfa { .. } => initial_lfa(net, &hw),
        Mutator::Cocco => initial_cocco(net, &hw),
    };
    assert!(checked.parse(&cur, 0), "{}: the initial LFA parses", net.name());
    for step in 1..=steps {
        let cand = match mutator {
            Mutator::Lfa { link_cuts } => mutate_lfa(net, &cur, &mut rng, link_cuts),
            Mutator::Cocco => mutate_cocco(net, &hw, &cur, &mut rng),
        };
        let Some(cand) = cand else { continue };
        if checked.parse(&cand, step) && rng.gen_bool(0.5) {
            cur = cand;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The paper's two demo networks under every generator.
    #[test]
    fn memo_matches_one_shot_on_demo_chains(
        seed in any::<u64>(),
        fig4 in any::<bool>(),
        link_cuts in any::<bool>(),
        cocco in any::<bool>(),
    ) {
        let net = if fig4 { zoo::fig4(1) } else { zoo::fig2(1) };
        let mutator = if cocco { Mutator::Cocco } else { Mutator::Lfa { link_cuts } };
        check_chain(&mut Checked::new(&net), mutator, seed, 150);
    }
}

/// Long chains on the campaign networks, one memo per network across
/// every generator (deterministic cases to bound suite runtime).
#[test]
fn memo_matches_one_shot_on_resnet50_and_randwire_chains() {
    for net in [zoo::resnet50(1), zoo::by_name("randwire").expect("zoo network")] {
        let mut checked = Checked::new(&net);
        for (seed, mutator) in [
            (11, Mutator::Lfa { link_cuts: false }),
            (12, Mutator::Lfa { link_cuts: true }),
            (13, Mutator::Cocco),
        ] {
            check_chain(&mut checked, mutator, seed, 200);
        }
    }
}
