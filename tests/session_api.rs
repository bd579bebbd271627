//! Acceptance tests for the `Scheduler` search API: the multi-seed
//! portfolio must be deterministic and envelope its members, and
//! observers must see events in pipeline order.

use soma::model::zoo;
use soma::prelude::*;
use soma::search::Evaluated;

fn quick(seed: u64, effort: f64) -> SearchConfig {
    SearchConfig { effort, seed, ..SearchConfig::default() }
}

/// Field-for-field equality of two evaluated schemes (exact: f64 by bits).
fn assert_eval_eq(a: &Evaluated, b: &Evaluated, what: &str) {
    assert_eq!(a.encoding, b.encoding, "{what}: encoding differs");
    assert_eq!(a.report, b.report, "{what}: report differs");
    assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{what}: cost differs");
}

fn assert_outcome_eq(a: &SearchOutcome, b: &SearchOutcome) {
    assert_eval_eq(&a.stage1, &b.stage1, "stage1");
    assert_eval_eq(&a.best, &b.best, "best");
    assert_eq!(a.allocator_iters, b.allocator_iters, "allocator_iters differ");
    assert_eq!(a.evals, b.evals, "evals differ");
}

#[test]
fn portfolio_is_deterministic_for_a_fixed_seed_list() {
    let net = zoo::fig2(1);
    let hw = HardwareConfig::edge();
    let seeds = [11u64, 12, 13, 14];
    let a = Scheduler::new(&net, &hw).config(quick(0, 0.02)).seeds(seeds).run();
    let b = Scheduler::new(&net, &hw).config(quick(0, 0.02)).seeds(seeds).run();
    assert_outcome_eq(&a, &b);
}

#[test]
fn portfolio_best_envelopes_every_member_seed() {
    let net = zoo::fig2(1);
    let hw = HardwareConfig::edge();
    let seeds = [21u64, 22, 23];
    let portfolio = Scheduler::new(&net, &hw).config(quick(0, 0.02)).seeds(seeds).run();
    for seed in seeds {
        let single = Scheduler::new(&net, &hw).config(quick(seed, 0.02)).run();
        assert!(
            portfolio.best.cost <= single.best.cost,
            "portfolio {} vs seed {seed} {}",
            portfolio.best.cost,
            single.best.cost
        );
    }
}

#[test]
fn portfolio_observer_replays_per_seed_events_in_list_order() {
    let net = zoo::fig2(1);
    let hw = HardwareConfig::edge();
    let seeds = [31u64, 32];
    let mut events: Vec<SearchEvent> = Vec::new();
    let _ = Scheduler::new(&net, &hw)
        .config(quick(0, 0.02))
        .seeds(seeds)
        .observer(|ev| events.push(ev.clone()))
        .run();

    // Every seed's full event stream is replayed, terminated by its
    // SeedFinished, in seed-list order.
    let finished: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            SearchEvent::SeedFinished { seed, .. } => Some(*seed),
            _ => None,
        })
        .collect();
    assert_eq!(finished, seeds, "SeedFinished order");
    let rounds = events.iter().filter(|e| matches!(e, SearchEvent::RoundStarted { .. })).count();
    let exhausted =
        events.iter().filter(|e| matches!(e, SearchEvent::BudgetExhausted { .. })).count();
    assert!(rounds >= seeds.len(), "each seed contributed at least one round");
    assert_eq!(exhausted, seeds.len(), "each seed's session finished");
    // The first seed's events all precede the second SeedFinished event.
    let first_finish = events
        .iter()
        .position(|e| matches!(e, SearchEvent::SeedFinished { seed, .. } if *seed == seeds[0]))
        .expect("first seed finished");
    assert!(
        events[..first_finish]
            .iter()
            .any(|e| matches!(e, SearchEvent::RoundStarted { round: 0, .. })),
        "first seed's rounds replay before its SeedFinished"
    );
}

#[test]
fn observer_sees_events_in_pipeline_order() {
    let net = zoo::fig2(1);
    let hw = HardwareConfig::edge();
    let mut events: Vec<SearchEvent> = Vec::new();
    let out = Scheduler::new(&net, &hw)
        .config(quick(5, 0.05))
        .observer(|ev| events.push(ev.clone()))
        .run();

    // Round 0 always improves on "nothing": the first four events are
    // round -> stage1 (lfa) -> stage2 (dlsa) -> new best, in that order.
    assert!(
        matches!(events[0], SearchEvent::RoundStarted { round: 0, stage1_budget } if stage1_budget == hw.buffer_bytes),
        "first event: {:?}",
        events[0]
    );
    assert!(
        matches!(&events[1], SearchEvent::StageFinished { round: 0, stage, .. } if stage == "lfa"),
        "second event: {:?}",
        events[1]
    );
    assert!(
        matches!(&events[2], SearchEvent::StageFinished { round: 0, stage, .. } if stage == "dlsa"),
        "third event: {:?}",
        events[2]
    );
    assert!(
        matches!(events[3], SearchEvent::NewBest { round: 0, .. }),
        "fourth event: {:?}",
        events[3]
    );

    // The session ends with exactly one budget-exhausted event whose
    // totals match the outcome.
    let last = events.last().expect("events recorded");
    assert!(
        matches!(last, SearchEvent::BudgetExhausted { rounds, evals }
            if *rounds == out.allocator_iters && *evals == out.evals),
        "last event: {last:?}"
    );
    let exhausted =
        events.iter().filter(|e| matches!(e, SearchEvent::BudgetExhausted { .. })).count();
    assert_eq!(exhausted, 1);

    // Every round is announced before its stages, and rounds ascend.
    let mut current_round = None;
    for ev in &events {
        match ev {
            SearchEvent::RoundStarted { round, .. } => {
                assert_eq!(*round, current_round.map_or(0, |r: usize| r + 1));
                current_round = Some(*round);
            }
            SearchEvent::StageFinished { round, .. } | SearchEvent::NewBest { round, .. } => {
                assert_eq!(Some(*round), current_round, "stage/best outside its round");
            }
            _ => {}
        }
    }
    assert_eq!(current_round, Some(out.allocator_iters - 1));
}
