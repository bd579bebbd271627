//! The search API of the exploration framework: a [`Scheduler`] builder
//! configures one search (network, hardware, knobs, observer, seeds) and
//! runs it, emitting typed [`SearchEvent`]s along the way.
//!
//! [`Scheduler::new`] searches with SoMa (the Buffer Allocator around
//! stage 1 and stage 2) and [`Scheduler::cocco`] with the Cocco
//! baseline; [`SchedulerKind`] names the choice.
//!
//! Multi-seed portfolio mode ([`Scheduler::seeds`]) races N independent
//! searches across threads and returns the envelope best (ties go to
//! the earliest seed in the list). How the race spreads over cores is
//! set by [`Scheduler::parallelism`] — and because each seed owns its
//! RNG stream and results merge in seed-list order, the outcome is
//! bit-identical across every [`Parallelism`] variant and thread count.

use serde::{Deserialize, Serialize};
use soma_arch::HardwareConfig;
use soma_model::Network;

use crate::allocator::{self, SearchOutcome};
use crate::{Parallelism, SearchConfig};

/// A typed progress event emitted by a search. Events carry plain
/// numbers (no schemes), so logging them is cheap and they serialise
/// for run records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SearchEvent {
    /// A Buffer Allocator round began with the given stage-1 budget.
    RoundStarted {
        /// Zero-based round index.
        round: usize,
        /// Stage-1 buffer budget (bytes) of this round.
        stage1_budget: u64,
    },
    /// One stage of the round finished.
    StageFinished {
        /// Zero-based round index.
        round: usize,
        /// The stage's name: `lfa` (SoMa stage 1), `dlsa` (SoMa
        /// stage 2) or `cocco` (the Cocco baseline).
        stage: String,
        /// Penalised objective value of the stage's best scheme.
        cost: f64,
        /// Cumulative schedule evaluations so far.
        evals: u64,
    },
    /// The round produced a new best overall scheme.
    NewBest {
        /// Zero-based round index.
        round: usize,
        /// Penalised objective value of the new best.
        cost: f64,
        /// Latency of the new best in cycles.
        latency_cycles: u64,
    },
    /// One seed of a multi-seed portfolio finished.
    SeedFinished {
        /// The seed.
        seed: u64,
        /// Best cost that seed reached.
        cost: f64,
        /// Completed schedule evaluations of that seed's search.
        evals: u64,
        /// Failed evaluation attempts (deadlocked DLSAs, invalid LFAs)
        /// of that seed's search — kept apart from `evals` so
        /// throughput metrics do not conflate proposals with completed
        /// evaluations.
        rejected: u64,
    },
    /// The search finished: allocator budget, round cap or convergence.
    BudgetExhausted {
        /// Rounds executed.
        rounds: usize,
        /// Total schedule evaluations.
        evals: u64,
    },
}

/// Which scheduler searches: SoMa or the Cocco baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The full SoMa pipeline ([`Scheduler::new`]).
    Soma,
    /// The Cocco baseline ([`Scheduler::cocco`]).
    Cocco,
}

/// The typed "search was cancelled" error returned by
/// [`Scheduler::run_cancellable`] when the registered
/// [`cancel_when`](Scheduler::cancel_when) probe fired. Deliberately
/// carries nothing: a cancelled search has no partial result worth
/// keeping (serve discards the work; the cache stays coherent because
/// nothing was persisted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("search cancelled")
    }
}

impl std::error::Error for Cancelled {}

type Observer<'o> = Box<dyn FnMut(&SearchEvent) + 'o>;
type CancelProbe<'a> = &'a (dyn Fn() -> bool + Sync);

/// Builder for a search over one network + hardware pair.
///
/// ```
/// use soma_arch::HardwareConfig;
/// use soma_model::zoo;
/// use soma_search::{Scheduler, SearchConfig};
///
/// let net = zoo::fig2(1);
/// let hw = HardwareConfig::edge();
/// let cfg = SearchConfig { effort: 0.02, seed: 1, ..SearchConfig::default() };
/// let out = Scheduler::new(&net, &hw).config(cfg).run();
/// assert!(out.best.cost <= out.stage1.cost);
/// ```
#[must_use = "a Scheduler does nothing until you call run()"]
pub struct Scheduler<'a, 'o> {
    net: &'a Network,
    hw: &'a HardwareConfig,
    cfg: SearchConfig,
    kind: SchedulerKind,
    seeds: Vec<u64>,
    par: Parallelism,
    observer: Option<Observer<'o>>,
    cancel: Option<CancelProbe<'a>>,
}

impl<'a, 'o> Scheduler<'a, 'o> {
    /// The full SoMa pipeline: the Buffer Allocator around stage 1 and
    /// stage 2.
    pub fn new(net: &'a Network, hw: &'a HardwareConfig) -> Self {
        Self {
            net,
            hw,
            cfg: SearchConfig::default(),
            kind: SchedulerKind::Soma,
            seeds: Vec::new(),
            par: Parallelism::Auto,
            observer: None,
            cancel: None,
        }
    }

    /// The Cocco baseline: a single round of its restricted stage (the
    /// restricted space explores no buffer trade-off, so the allocator
    /// does not iterate).
    pub fn cocco(net: &'a Network, hw: &'a HardwareConfig) -> Self {
        Self { kind: SchedulerKind::Cocco, ..Self::new(net, hw) }
    }

    /// Sets the framework configuration (default: [`SearchConfig::default`]).
    pub fn config(mut self, cfg: SearchConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Registers a progress observer called for every [`SearchEvent`].
    /// In single-seed runs events arrive live, mid-search; in portfolio
    /// mode ([`seeds`](Self::seeds) with ≥ 2 entries) each seed's events
    /// are buffered and replayed in seed-list order when the portfolio
    /// completes (see [`run`](Self::run)).
    pub fn observer(mut self, f: impl FnMut(&SearchEvent) + 'o) -> Self {
        self.observer = Some(Box::new(f));
        self
    }

    /// Sets the seed list. One seed overrides `cfg.seed`; several switch
    /// [`run`](Self::run) into portfolio mode racing one search per seed.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Sets how portfolio mode spreads seeds across threads (default
    /// [`Parallelism::Auto`]). The outcome — and every observed event —
    /// is bit-identical across all variants; only wall-clock differs.
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// Registers a cooperative-cancel probe, polled at every allocator
    /// round's start and after every stage. When it first returns
    /// `true` the search stops doing work and
    /// [`run_cancellable`](Self::run_cancellable) returns
    /// [`Err(Cancelled)`](Cancelled). In portfolio mode every seed's
    /// search shares the probe, so one flag aborts the whole race.
    ///
    /// A probe that never fires is invisible: the search makes exactly
    /// the same decisions with or without it, so outcomes (and cell
    /// hashes) of uncancelled runs are unchanged.
    pub fn cancel_when(mut self, probe: &'a (dyn Fn() -> bool + Sync)) -> Self {
        self.cancel = Some(probe);
        self
    }

    /// Drives the search to completion. With two or more
    /// [`seeds`](Self::seeds), races one search per seed across the
    /// threads chosen by [`parallelism`](Self::parallelism) and returns
    /// the envelope best; ties keep the earliest seed. Each seed owns
    /// its RNG stream and results merge in seed-list order, so the
    /// outcome is deterministic for a fixed list — bit-identical across
    /// every [`Parallelism`] variant and thread count.
    ///
    /// In portfolio mode each seed's search buffers its events and the
    /// observer sees them replayed in seed-list order once the portfolio
    /// completes, each batch followed by that seed's
    /// [`SearchEvent::SeedFinished`] — observers need not be thread-safe.
    pub fn run(self) -> SearchOutcome {
        self.run_cancellable()
            .expect("search cancelled: use run_cancellable() with a cancel_when probe")
    }

    /// Like [`run`](Self::run), but honours the
    /// [`cancel_when`](Self::cancel_when) probe: once it fires, every
    /// seed's search stops at its next poll point and the whole call
    /// returns [`Err(Cancelled)`](Cancelled) with all partial work
    /// discarded (no events are replayed either — a cancelled search
    /// reports nothing).
    ///
    /// # Errors
    ///
    /// [`Cancelled`] if the probe fired before the portfolio completed.
    pub fn run_cancellable(self) -> Result<SearchOutcome, Cancelled> {
        let Self { net, hw, mut cfg, kind, seeds, par, mut observer, cancel } = self;
        if seeds.len() <= 1 {
            if let Some(&seed) = seeds.first() {
                cfg.seed = seed;
            }
            let mut ignore = |_: &SearchEvent| {};
            let emit: &mut dyn FnMut(&SearchEvent) = match observer.as_mut() {
                Some(f) => f,
                None => &mut ignore,
            };
            return allocator::search(net, hw, &cfg, kind, cancel, emit);
        }
        let record_events = observer.is_some();

        let outcomes: Vec<(u64, Result<SearchOutcome, Cancelled>, Vec<SearchEvent>)> = par
            .map_collect(seeds, |seed| {
                let cfg = SearchConfig { seed, ..cfg.clone() };
                let mut events: Vec<SearchEvent> = Vec::new();
                let out = allocator::search(net, hw, &cfg, kind, cancel, &mut |ev| {
                    if record_events {
                        events.push(ev.clone());
                    }
                });
                (seed, out, events)
            });

        if outcomes.iter().any(|(_, out, _)| out.is_err()) {
            return Err(Cancelled);
        }
        if let Some(f) = observer.as_mut() {
            for (seed, out, events) in &outcomes {
                let out = out.as_ref().expect("checked above");
                for ev in events {
                    f(ev);
                }
                f(&SearchEvent::SeedFinished {
                    seed: *seed,
                    cost: out.best.cost,
                    evals: out.evals,
                    rejected: out.rejected,
                });
            }
        }
        Ok(outcomes
            .into_iter()
            .map(|(_, out, _)| out.expect("checked above"))
            .reduce(|best, cand| if cand.best.cost < best.best.cost { cand } else { best })
            .expect("portfolio mode requires at least two seeds"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soma_model::zoo;

    fn quick(seed: u64) -> SearchConfig {
        SearchConfig { effort: 0.05, seed, ..SearchConfig::default() }
    }

    #[test]
    fn single_seed_in_list_overrides_config_seed() {
        let net = zoo::fig2(1);
        let hw = HardwareConfig::edge();
        let direct = Scheduler::new(&net, &hw).config(quick(42)).run();
        let listed = Scheduler::new(&net, &hw).config(quick(0)).seeds([42]).run();
        assert_eq!(direct.best.encoding, listed.best.encoding);
        assert_eq!(direct.best.cost, listed.best.cost);
    }

    #[test]
    fn cancel_probe_aborts_the_session_with_a_typed_error() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let net = zoo::fig2(1);
        let hw = HardwareConfig::edge();

        // A probe that never fires changes nothing.
        let never = || false;
        let out = Scheduler::new(&net, &hw)
            .config(quick(5))
            .cancel_when(&never)
            .run_cancellable()
            .expect("uncancelled run completes");
        let plain = Scheduler::new(&net, &hw).config(quick(5)).run();
        assert_eq!(out.best.encoding, plain.best.encoding);
        assert_eq!(out.evals, plain.evals);

        // A probe armed mid-flight cancels: typed error, no outcome.
        let polls = AtomicUsize::new(0);
        let after_two = move || polls.fetch_add(1, Ordering::SeqCst) >= 2;
        let res =
            Scheduler::new(&net, &hw).config(quick(5)).cancel_when(&after_two).run_cancellable();
        assert_eq!(res.unwrap_err(), Cancelled);

        // A pre-fired probe stops before any work: not even round 0
        // is announced.
        let flag = AtomicBool::new(true);
        let probe = || flag.load(Ordering::SeqCst);
        let mut events: Vec<SearchEvent> = Vec::new();
        let res = Scheduler::new(&net, &hw)
            .config(quick(5))
            .cancel_when(&probe)
            .observer(|ev| events.push(ev.clone()))
            .run_cancellable();
        assert_eq!(res.unwrap_err(), Cancelled);
        assert!(events.is_empty(), "events after a pre-fired cancel: {events:?}");
    }

    #[test]
    fn cancelled_portfolio_returns_cancelled() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let net = zoo::fig2(1);
        let hw = HardwareConfig::edge();
        let polls = AtomicUsize::new(0);
        let probe = move || polls.fetch_add(1, Ordering::SeqCst) >= 3;
        let res = Scheduler::new(&net, &hw)
            .config(quick(0))
            .seeds([3u64, 4, 5])
            .cancel_when(&probe)
            .run_cancellable();
        assert_eq!(res.unwrap_err(), Cancelled);
    }

    #[test]
    fn portfolio_returns_envelope_best_of_its_seeds() {
        let net = zoo::fig2(1);
        let hw = HardwareConfig::edge();
        let seeds = [3u64, 4, 5];
        let portfolio = Scheduler::new(&net, &hw).config(quick(0)).seeds(seeds).run();
        for seed in seeds {
            let single = Scheduler::new(&net, &hw).config(quick(seed)).run();
            assert!(
                portfolio.best.cost <= single.best.cost,
                "portfolio {} vs seed {seed} {}",
                portfolio.best.cost,
                single.best.cost
            );
        }
    }
}
