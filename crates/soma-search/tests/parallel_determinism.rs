//! The hard invariant of the [`Parallelism`] API, as a property:
//! a portfolio run on N worker threads is **field-for-field identical**
//! to the same run inline on the calling thread — outcomes, eval
//! counters, and the complete buffered [`SearchEvent`] stream.
//!
//! This holds by construction (seed results merge in seed-list order
//! and every seed owns its RNG stream), so any divergence here means a
//! real bug in the parallel map or the portfolio merge — not an
//! acceptable scheduling wobble.

use proptest::prelude::*;
use soma_arch::HardwareConfig;
use soma_model::zoo;
use soma_search::{Evaluated, Parallelism, Scheduler, SearchConfig, SearchEvent, SearchOutcome};

fn assert_evaluated_eq(which: &str, a: &Evaluated, b: &Evaluated) {
    assert_eq!(a.encoding, b.encoding, "{which}: encoding");
    assert_eq!(a.report, b.report, "{which}: report");
    assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{which}: cost bits");
}

fn assert_outcome_eq(a: &SearchOutcome, b: &SearchOutcome) {
    assert_evaluated_eq("stage1", &a.stage1, &b.stage1);
    assert_evaluated_eq("best", &a.best, &b.best);
    assert_eq!(a.allocator_iters, b.allocator_iters, "allocator_iters");
    assert_eq!(a.evals, b.evals, "evals");
    assert_eq!(a.rejected, b.rejected, "rejected");
}

fn portfolio(par: Parallelism, seeds: &[u64], effort: f64) -> (SearchOutcome, Vec<SearchEvent>) {
    let net = zoo::fig2(1);
    let hw = HardwareConfig::edge();
    let cfg = SearchConfig { effort, seed: seeds[0], ..SearchConfig::default() };
    let mut events = Vec::new();
    let outcome = Scheduler::new(&net, &hw)
        .config(cfg)
        .seeds(seeds.iter().copied())
        .parallelism(par)
        .observer(|ev| events.push(ev.clone()))
        .run();
    (outcome, events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any thread count, any seed portfolio: same outcome, same events.
    #[test]
    fn n_thread_portfolio_equals_sequential(
        threads in 2usize..8,
        seed_src in any::<u64>(),
    ) {
        // The vendored proptest has no collection strategies; derive a
        // 2..=4-seed portfolio from one generated u64 instead.
        let n_seeds = 2 + (seed_src % 3) as usize;
        let seeds: Vec<u64> = (0..n_seeds as u64)
            .map(|i| (seed_src.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(i)) % 1000)
            .collect();
        let (seq_out, seq_events) = portfolio(Parallelism::Sequential, &seeds, 0.004);
        let (par_out, par_events) = portfolio(Parallelism::Fixed(threads), &seeds, 0.004);
        assert_outcome_eq(&seq_out, &par_out);
        assert_eq!(
            seq_events, par_events,
            "buffered event streams must replay identically in seed-list order"
        );
    }
}

/// `Auto` (the host's available parallelism, outside any region) obeys
/// the same contract as `Fixed(n)` — one plain test, since that thread
/// count is machine-dependent.
#[test]
fn auto_portfolio_equals_sequential() {
    let seeds = [11, 7, 2025];
    let (seq_out, seq_events) = portfolio(Parallelism::Sequential, &seeds, 0.01);
    let (auto_out, auto_events) = portfolio(Parallelism::Auto, &seeds, 0.01);
    assert_outcome_eq(&seq_out, &auto_out);
    assert_eq!(seq_events, auto_events);
}
