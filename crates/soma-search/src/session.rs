//! The session API of the exploration framework: a [`Scheduler`] builder
//! configures one search (network, hardware, knobs, stage pipeline,
//! observer, seeds) and yields a stepping [`SearchSession`] whose
//! [`step`](SearchSession::step) advances exactly one Buffer Allocator
//! round, emitting typed [`SearchEvent`]s along the way.
//!
//! [`Scheduler::run`] drives a session to completion; stepping one by
//! hand gives bit-identical results at the same seed: it is the same
//! objective, the same RNG stream and the same allocator policy, with
//! control handed back between rounds.
//!
//! Multi-seed portfolio mode ([`Scheduler::seeds`]) races N independent
//! sessions across threads and returns the envelope best (ties go to
//! the earliest seed in the list). How the race spreads over cores is
//! set by [`Scheduler::parallelism`] — and because each seed owns its
//! RNG stream and results merge in seed-list order, the outcome is
//! bit-identical across every [`Parallelism`] variant and thread count.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use soma_arch::HardwareConfig;
use soma_model::Network;

use crate::allocator::SearchOutcome;
use crate::objective::{Evaluated, Objective};
use crate::stage::{RoundCtx, SearchStage, StageSpec};
use crate::{Parallelism, SearchConfig};

/// A typed progress event emitted by a [`SearchSession`]. Events carry
/// plain numbers (no schemes), so logging them is cheap and they
/// serialise for run records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SearchEvent {
    /// A Buffer Allocator round began with the given stage-1 budget.
    RoundStarted {
        /// Zero-based round index.
        round: usize,
        /// Stage-1 buffer budget (bytes) of this round.
        stage1_budget: u64,
    },
    /// One stage of the round's pipeline finished.
    StageFinished {
        /// Zero-based round index.
        round: usize,
        /// The stage's [`name`](crate::stage::SearchStage::name).
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
        /// Completed schedule evaluations of that seed's session.
        evals: u64,
        /// Failed evaluation attempts (deadlocked DLSAs, invalid LFAs)
        /// of that seed's session — kept apart from `evals` so
        /// throughput metrics do not conflate proposals with completed
        /// evaluations.
        rejected: u64,
    },
    /// The session finished: allocator budget, round cap or convergence.
    BudgetExhausted {
        /// Rounds executed.
        rounds: usize,
        /// Total schedule evaluations.
        evals: u64,
    },
}

/// What [`SearchSession::step`] reports back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// More rounds remain; call [`SearchSession::step`] again.
    Running,
    /// The session is finished; take the [`SearchOutcome`].
    Finished,
}

/// The typed "search was cancelled" error returned by
/// [`SearchSession::run_cancellable`] /
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

/// Builder for a search session over one network + hardware pair.
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
#[must_use = "a Scheduler does nothing until you call build() or run()"]
pub struct Scheduler<'a, 'o> {
    net: &'a Network,
    hw: &'a HardwareConfig,
    cfg: SearchConfig,
    stages: Vec<StageSpec>,
    allocator_loop: bool,
    seeds: Vec<u64>,
    par: Parallelism,
    observer: Option<Observer<'o>>,
    cancel: Option<CancelProbe<'a>>,
}

impl<'a, 'o> Scheduler<'a, 'o> {
    /// The full SoMa pipeline: Buffer Allocator around
    /// [`StageSpec::SOMA`] (stage 1 + stage 2).
    pub fn new(net: &'a Network, hw: &'a HardwareConfig) -> Self {
        Self {
            net,
            hw,
            cfg: SearchConfig::default(),
            stages: StageSpec::SOMA.to_vec(),
            allocator_loop: true,
            seeds: Vec::new(),
            par: Parallelism::Auto,
            observer: None,
            cancel: None,
        }
    }

    /// The Cocco baseline: a single round of [`StageSpec::COCCO`] (the
    /// restricted space explores no buffer trade-off, so the allocator
    /// loop is off).
    pub fn cocco(net: &'a Network, hw: &'a HardwareConfig) -> Self {
        Self { stages: StageSpec::COCCO.to_vec(), allocator_loop: false, ..Self::new(net, hw) }
    }

    /// Sets the framework configuration (default: [`SearchConfig::default`]).
    pub fn config(mut self, cfg: SearchConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Replaces the per-round stage pipeline. Panics on an empty pipeline.
    pub fn stages(mut self, specs: impl IntoIterator<Item = StageSpec>) -> Self {
        self.stages = specs.into_iter().collect();
        assert!(!self.stages.is_empty(), "a session needs at least one stage");
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
    /// [`run`](Self::run) into portfolio mode racing one session per seed.
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

    /// Registers a cooperative-cancel probe, polled by
    /// [`SearchSession::step`] at round start and between stages. When
    /// it first returns `true` the session stops doing work and
    /// [`run_cancellable`](Self::run_cancellable) returns
    /// [`Err(Cancelled)`](Cancelled). In portfolio mode every seed's
    /// session shares the probe, so one flag aborts the whole race.
    ///
    /// A probe that never fires is invisible: the search makes exactly
    /// the same decisions with or without it, so outcomes (and cell
    /// hashes) of uncancelled runs are unchanged.
    pub fn cancel_when(mut self, probe: &'a (dyn Fn() -> bool + Sync)) -> Self {
        self.cancel = Some(probe);
        self
    }

    /// Builds the stepping session for a single seed (the first of
    /// [`seeds`](Self::seeds) if given, else `cfg.seed`). Portfolio mode
    /// is only reachable through [`run`](Self::run) — a session is one
    /// RNG stream.
    pub fn build(self) -> SearchSession<'a, 'o> {
        let mut cfg = self.cfg;
        if let Some(&first) = self.seeds.first() {
            cfg.seed = first;
        }
        let mut session = SearchSession::with_specs(
            self.net,
            self.hw,
            cfg,
            &self.stages,
            self.allocator_loop,
            self.observer,
        );
        session.cancel = self.cancel;
        session
    }

    /// Drives the search to completion. With two or more
    /// [`seeds`](Self::seeds), races one session per seed across the
    /// threads chosen by [`parallelism`](Self::parallelism) and returns
    /// the envelope best; ties keep the earliest seed. Each seed owns
    /// its RNG stream and results merge in seed-list order, so the
    /// outcome is deterministic for a fixed list — bit-identical across
    /// every [`Parallelism`] variant and thread count.
    ///
    /// In portfolio mode each seed's session buffers its events and the
    /// observer sees them replayed in seed-list order once the portfolio
    /// completes, each batch followed by that seed's
    /// [`SearchEvent::SeedFinished`] — observers need not be thread-safe.
    pub fn run(self) -> SearchOutcome {
        self.run_cancellable()
            .expect("search cancelled: use run_cancellable() with a cancel_when probe")
    }

    /// Like [`run`](Self::run), but honours the
    /// [`cancel_when`](Self::cancel_when) probe: once it fires, every
    /// seed's session stops at its next poll point and the whole call
    /// returns [`Err(Cancelled)`](Cancelled) with all partial work
    /// discarded (no events are replayed either — a cancelled search
    /// reports nothing).
    ///
    /// # Errors
    ///
    /// [`Cancelled`] if the probe fired before the portfolio completed.
    pub fn run_cancellable(mut self) -> Result<SearchOutcome, Cancelled> {
        if self.seeds.len() <= 1 {
            return self.build().run_cancellable();
        }
        let seeds = std::mem::take(&mut self.seeds);
        let mut observer = self.observer.take();
        let (net, hw, cfg) = (self.net, self.hw, self.cfg);
        let (stages, allocator_loop) = (self.stages, self.allocator_loop);
        let cancel = self.cancel;
        let record_events = observer.is_some();

        let outcomes: Vec<(u64, Result<SearchOutcome, Cancelled>, Vec<SearchEvent>)> =
            self.par.map_collect(seeds, |seed| {
                let cfg = SearchConfig { seed, ..cfg.clone() };
                let mut events: Vec<SearchEvent> = Vec::new();
                let recorder: Option<Observer<'_>> = record_events
                    .then(|| -> Observer<'_> { Box::new(|ev| events.push(ev.clone())) });
                let mut session =
                    SearchSession::with_specs(net, hw, cfg, &stages, allocator_loop, recorder);
                session.cancel = cancel;
                let out = session.run_cancellable();
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

/// A resumable, observable search in progress: each [`step`](Self::step)
/// runs one complete Buffer Allocator round (the configured stage
/// pipeline under the current stage-1 budget) and applies the allocator
/// policy — keep the best overall scheme, stop after two consecutive
/// non-improving budgets, shrink the stage-1 budget by
/// `allocator_step x Buffer_max`.
#[must_use = "a SearchSession does nothing until you call step() or run()"]
pub struct SearchSession<'a, 'o> {
    obj: Objective<'a>,
    cfg: SearchConfig,
    rng: StdRng,
    stages: Vec<Box<dyn SearchStage>>,
    observer: Option<Observer<'o>>,
    /// Full hardware buffer capacity (the stage-2 budget).
    buffer_limit: u64,
    /// Shrinking stage-1 budget for the next round.
    stage1_limit: u64,
    /// `Buffer_max`: stage-1 peak occupancy of the unconstrained round.
    buffer_max: u64,
    rounds_done: usize,
    max_rounds: usize,
    consecutive_fails: usize,
    /// Best `(first-stage snapshot, final scheme)` so far.
    best: Option<(Evaluated, Evaluated)>,
    finished: bool,
    cancel: Option<CancelProbe<'a>>,
    cancelled: bool,
}

impl<'a, 'o> SearchSession<'a, 'o> {
    fn with_specs(
        net: &'a Network,
        hw: &'a HardwareConfig,
        cfg: SearchConfig,
        specs: &[StageSpec],
        allocator_loop: bool,
        observer: Option<Observer<'o>>,
    ) -> Self {
        assert!(!specs.is_empty(), "a session needs at least one stage");
        let max_rounds = if allocator_loop { cfg.max_allocator_iters.max(1) } else { 1 };
        Self {
            obj: Objective::new(net, hw, cfg.weights),
            rng: StdRng::seed_from_u64(cfg.seed),
            stages: specs.iter().map(|s| s.instantiate()).collect(),
            observer,
            buffer_limit: hw.buffer_bytes,
            stage1_limit: hw.buffer_bytes,
            buffer_max: 0,
            rounds_done: 0,
            max_rounds,
            consecutive_fails: 0,
            best: None,
            finished: false,
            cancel: None,
            cancelled: false,
            cfg,
        }
    }

    /// Polls the cancel probe; once it fires the session is finished
    /// for good and never touches the objective again.
    fn poll_cancel(&mut self) -> bool {
        if !self.cancelled && self.cancel.is_some_and(|probe| probe()) {
            self.cancelled = true;
            self.finished = true;
        }
        self.cancelled
    }

    fn emit(&mut self, ev: SearchEvent) {
        if let Some(f) = self.observer.as_mut() {
            f(&ev);
        }
    }

    /// Runs one Buffer Allocator round. Returns [`StepOutcome::Finished`]
    /// once the session is over (further calls are no-ops).
    pub fn step(&mut self) -> StepOutcome {
        if self.finished || self.poll_cancel() {
            return StepOutcome::Finished;
        }
        let round = self.rounds_done;
        self.emit(SearchEvent::RoundStarted { round, stage1_budget: self.stage1_limit });

        // Run the stage pipeline. The observer, the cancel probe and
        // the round context borrow disjoint fields, so events can flow
        // (and cancellation can land) mid-round.
        let cancel = self.cancel;
        let mut cancelled_mid_round = false;
        let pipeline = {
            let observer = &mut self.observer;
            let mut ctx = RoundCtx {
                obj: &mut self.obj,
                cfg: &self.cfg,
                rng: &mut self.rng,
                stage1_limit: self.stage1_limit,
                buffer_limit: self.buffer_limit,
                current: None,
            };
            let mut first: Option<Evaluated> = None;
            for stage in &self.stages {
                let art = stage.run(&mut ctx);
                if let Some(f) = observer.as_mut() {
                    f(&SearchEvent::StageFinished {
                        round,
                        stage: stage.name().to_string(),
                        cost: art.cost,
                        evals: ctx.obj.evals(),
                    });
                }
                if first.is_none() {
                    first = Some(art.evaluated());
                }
                ctx.current = Some(art);
                if cancel.is_some_and(|probe| probe()) {
                    cancelled_mid_round = true;
                    break;
                }
            }
            if cancelled_mid_round {
                None
            } else {
                let last =
                    ctx.current.take().expect("pipeline has at least one stage").into_evaluated();
                Some((first.expect("pipeline has at least one stage"), last))
            }
        };
        let Some((first, last)) = pipeline else {
            // The round is abandoned wholesale: nothing it computed is
            // kept, so a cancelled session can never leak a partial
            // result into `best`.
            self.cancelled = true;
            self.finished = true;
            return StepOutcome::Finished;
        };
        self.rounds_done += 1;
        if round == 0 {
            self.buffer_max = first.report.peak_buffer.max(1);
        }

        let improved = self.best.as_ref().is_none_or(|(_, b)| last.cost < b.cost);
        let mut done = false;
        if improved {
            self.emit(SearchEvent::NewBest {
                round,
                cost: last.cost,
                latency_cycles: last.report.latency_cycles,
            });
            self.best = Some((first, last));
            self.consecutive_fails = 0;
        } else {
            self.consecutive_fails += 1;
            done = self.consecutive_fails >= 2;
        }

        done = done || self.rounds_done >= self.max_rounds;
        if !done {
            // Shrink the stage-1 budget for the next round.
            let step = (self.cfg.allocator_step * self.buffer_max as f64) as u64;
            if step == 0 || self.stage1_limit <= step {
                done = true;
            } else {
                self.stage1_limit -= step;
            }
        }
        if done {
            self.finished = true;
            self.emit(SearchEvent::BudgetExhausted {
                rounds: self.rounds_done,
                evals: self.obj.evals(),
            });
            return StepOutcome::Finished;
        }
        StepOutcome::Running
    }

    /// Whether the session has finished.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Whether the session was stopped by its
    /// [`cancel_when`](Scheduler::cancel_when) probe. A cancelled
    /// session is finished, holds no claimable outcome, and will never
    /// do work again.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> usize {
        self.rounds_done
    }

    /// Completed schedule evaluations performed so far.
    pub fn evals(&self) -> u64 {
        self.obj.evals()
    }

    /// Failed evaluation attempts so far (deadlocked DLSAs, invalid
    /// LFAs).
    pub fn rejected(&self) -> u64 {
        self.obj.rejected()
    }

    /// The best overall scheme found so far (`None` before the first
    /// round completes).
    pub fn best(&self) -> Option<&Evaluated> {
        self.best.as_ref().map(|(_, b)| b)
    }

    /// The stage-1 budget the *next* round will run under.
    pub fn stage1_budget(&self) -> u64 {
        self.stage1_limit
    }

    /// Drives the remaining rounds to completion and returns the outcome.
    ///
    /// # Panics
    ///
    /// Panics if a [`cancel_when`](Scheduler::cancel_when) probe fired
    /// — cancellable callers use [`run_cancellable`](Self::run_cancellable).
    pub fn run(mut self) -> SearchOutcome {
        while self.step() == StepOutcome::Running {}
        assert!(
            !self.cancelled,
            "search cancelled: use run_cancellable() with a cancel_when probe"
        );
        self.into_outcome()
    }

    /// Drives the remaining rounds to completion, honouring the
    /// [`cancel_when`](Scheduler::cancel_when) probe.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] if the probe fired before the session finished;
    /// all partial work is discarded.
    pub fn run_cancellable(mut self) -> Result<SearchOutcome, Cancelled> {
        while self.step() == StepOutcome::Running {}
        if self.cancelled {
            return Err(Cancelled);
        }
        Ok(self.into_outcome())
    }

    /// Consumes the session into its [`SearchOutcome`].
    ///
    /// # Panics
    ///
    /// Panics if no round has run yet — call [`step`](Self::step) or
    /// [`run`](Self::run) first.
    pub fn into_outcome(self) -> SearchOutcome {
        let (stage1, best) = self.best.expect("no allocator round has run; call step() or run()");
        SearchOutcome {
            stage1,
            best,
            allocator_iters: self.rounds_done,
            evals: self.obj.evals(),
            rejected: self.obj.rejected(),
        }
    }
}

impl std::fmt::Debug for SearchSession<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchSession")
            .field("rounds_done", &self.rounds_done)
            .field("max_rounds", &self.max_rounds)
            .field("stage1_limit", &self.stage1_limit)
            .field("finished", &self.finished)
            .field("best_cost", &self.best.as_ref().map(|(_, b)| b.cost))
            .finish_non_exhaustive()
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
    fn stepping_matches_run_to_completion() {
        let net = zoo::fig2(1);
        let hw = HardwareConfig::edge();
        let mut session = Scheduler::new(&net, &hw).config(quick(5)).build();
        while session.step() == StepOutcome::Running {}
        let stepped = session.into_outcome();
        let ran = Scheduler::new(&net, &hw).config(quick(5)).build().run();
        assert_eq!(stepped.best.encoding, ran.best.encoding);
        assert_eq!(stepped.best.cost, ran.best.cost);
        assert_eq!(stepped.allocator_iters, ran.allocator_iters);
        assert_eq!(stepped.evals, ran.evals);
    }

    #[test]
    fn step_after_finish_is_a_noop() {
        let net = zoo::fig2(1);
        let hw = HardwareConfig::edge();
        let mut session = Scheduler::new(&net, &hw).config(quick(6)).build();
        while session.step() == StepOutcome::Running {}
        let evals = session.evals();
        assert_eq!(session.step(), StepOutcome::Finished);
        assert_eq!(session.evals(), evals, "no work after finish");
        assert!(session.is_finished());
    }

    #[test]
    fn session_exposes_progress_between_steps() {
        let net = zoo::fig2(1);
        let hw = HardwareConfig::edge();
        let mut session = Scheduler::new(&net, &hw).config(quick(7)).build();
        assert!(session.best().is_none());
        assert_eq!(session.rounds(), 0);
        let _ = session.step();
        assert!(session.best().is_some());
        assert_eq!(session.rounds(), 1);
        assert!(session.evals() > 0);
        assert!(session.stage1_budget() < hw.buffer_bytes, "budget shrank after round 0");
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

        // A pre-fired probe stops before any work.
        let flag = AtomicBool::new(true);
        let probe = || flag.load(Ordering::SeqCst);
        let mut session = Scheduler::new(&net, &hw).config(quick(5)).cancel_when(&probe).build();
        assert_eq!(session.step(), StepOutcome::Finished);
        assert!(session.is_cancelled());
        assert_eq!(session.evals(), 0, "no work after a pre-fired cancel");
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
