//! The SoMa exploration framework (paper Sec. V): a Buffer Allocator
//! wrapping two simulated-annealing stages over the DRAM communication
//! scheduling space, plus the Cocco baseline (Sec. VI-A3).
//!
//! The public entry point is the [`Scheduler`] builder: it configures a
//! search (network + hardware, [`SearchConfig`] knobs, progress
//! observer, seed list, cancel probe) and runs it. [`Scheduler::new`]
//! runs SoMa: each allocator round runs stage 1, then stage 2, and the
//! observer sees typed [`SearchEvent`]s — round started, stage
//! finished, new best, budget exhausted. [`Scheduler::cocco`] runs the
//! baseline's one restricted stage in a single round. With several
//! [`Scheduler::seeds`], [`Scheduler::run`] races one search per seed
//! via `rayon` and returns the envelope best.
//!
//! ```
//! use soma_arch::HardwareConfig;
//! use soma_model::zoo;
//! use soma_search::{Scheduler, SearchConfig, SearchEvent};
//!
//! let net = zoo::fig2(1);
//! let cfg = SearchConfig { effort: 0.02, seed: 1, ..SearchConfig::default() };
//! let mut rounds = 0;
//! let out = Scheduler::new(&net, &HardwareConfig::edge())
//!     .config(cfg)
//!     .observer(|ev| {
//!         if matches!(ev, SearchEvent::RoundStarted { .. }) {
//!             rounds += 1;
//!         }
//!     })
//!     .run();
//! assert!(out.best.cost <= out.stage1.cost);
//! assert!(rounds >= 1);
//! ```
//!
//! Module map:
//!
//! * [`session`] — the [`Scheduler`] builder, [`SchedulerKind`] and
//!   [`SearchEvent`]s.
//! * [`allocator`] — the Buffer Allocator loop around the stages, the
//!   [`SearchOutcome`] type and its scheme-shape statistics.
//! * [`sa`] — the generic annealer with the paper's cooling schedule.
//! * [`objective`] — the `Energy^n x Delay^m` objective with buffer-budget
//!   penalties, wrapping the evaluator and the compiled engine's
//!   cost-only fast paths.
//! * [`lfa_stage`] — stage 1: SA over the layer-fusion attributes under
//!   the classical double-buffer DLSA.
//! * [`dlsa_stage`] — stage 2: SA over DRAM tensor order and living
//!   durations with size-proportional tensor selection, run in place on
//!   the compiled engine (apply/undo mutation tokens, incrementally
//!   maintained buffer profile, zero-allocation evaluation).
//! * [`cocco`] — the restricted baseline: FLC set == DRAM cut set,
//!   KC-parallelism heuristic tiling, double-buffer DLSA.
//! * [`parallelism`] — the [`Parallelism`] thread-count policy
//!   (`Auto | Fixed(n) | Sequential`) threaded through every parallel
//!   region in the workspace; results are bit-identical across variants.
//! * [`record`] — lossless, deterministic [`SearchOutcome`] ⇄ JSON and
//!   ⇄ binary conversion for the experiment run ledger, plus
//!   [`ENGINE_VERSION`].
//! * [`wire`] — the byte-level primitives (varints, bit-exact floats,
//!   length-prefixed strings) under the binary ledger frames.

pub mod allocator;
pub mod cocco;
pub mod dlsa_stage;
pub mod lfa_stage;
pub mod objective;
pub mod parallelism;
pub mod record;
pub mod sa;
pub mod session;
pub mod wire;

pub use allocator::SearchOutcome;
pub use cocco::cocco_tiling;
pub use dlsa_stage::{DlsaEditor, DlsaMove, SizeWeightedPicker};
pub use objective::{CostWeights, Evaluated, Objective};
pub use parallelism::Parallelism;
pub use record::{
    outcome_from_bytes, outcome_from_str, outcome_to_bytes, outcome_to_string, synthetic_outcome,
    RecordError, ENGINE_VERSION,
};
pub use sa::{anneal, anneal_inplace, AnnealState, SaResult, SaSchedule};
pub use session::{Cancelled, Scheduler, SchedulerKind, SearchEvent};

use serde::{Deserialize, Serialize};

/// Knobs of the exploration framework (the paper's "framework configs").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchConfig {
    /// Objective exponents (`Energy^n x Delay^m`; paper default 1, 1).
    pub weights: CostWeights,
    /// RNG seed; the paper's artifact uses the same seed for SoMa and the
    /// baseline of each configuration.
    pub seed: u64,
    /// Iteration-budget scale. `1.0` reproduces the paper's budgets
    /// (`beta = 100` per layer in stage 1, `1000` per DRAM tensor in
    /// stage 2); CI-scale runs use `0.01..0.1`.
    pub effort: f64,
    /// Initial SA temperature `T0`.
    pub t0: f64,
    /// Cooling rate `alpha` of `T_n = T0 (1 - n/N) / (1 + alpha n/N)`.
    pub alpha: f64,
    /// Buffer Allocator step as a fraction of `Buffer_max` (paper: 10 %).
    pub allocator_step: f64,
    /// Upper bound on Buffer Allocator iterations.
    pub max_allocator_iters: usize,
    /// Hard cap on stage-1 iterations per allocator round (bounds runtime
    /// on very deep networks such as GPT-2-XL; the paper instead bounds
    /// wall-clock with a termination time).
    pub stage1_cap: u64,
    /// Hard cap on stage-2 iterations per allocator round.
    pub stage2_cap: u64,
    /// Ablation switch: force the FLC set to equal the DRAM cut set, i.e.
    /// disable the paper's weight-shuffling fine-grained cuts (the
    /// add/delete-FLC and add/delete-DRAM-cut operators collapse into a
    /// single linked pair, as in Cocco's space but with free tiling).
    pub link_cuts: bool,
    /// Optional per-stage wall-clock budget in seconds (0 = unlimited).
    /// Past the budget, an annealing stage finishes with its greedy tail
    /// (the paper's "additional termination time").
    pub stage_time_budget_secs: f64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            weights: CostWeights::default(),
            seed: 0x50_4D_41, // "SMA"
            effort: 1.0,
            t0: 0.2,
            alpha: 4.0,
            allocator_step: 0.10,
            max_allocator_iters: 8,
            stage1_cap: 500_000,
            stage2_cap: 2_000_000,
            link_cuts: false,
            stage_time_budget_secs: 0.0,
        }
    }
}

impl SearchConfig {
    /// Stage-1 iteration count for a network with `layers` layers
    /// (`beta = 100` scaled by `effort`, capped by `stage1_cap`).
    pub fn stage1_iters(&self, layers: usize) -> u64 {
        ((100.0 * layers as f64 * self.effort) as u64).max(40).min(self.stage1_cap)
    }

    /// Stage-2 iteration count for a plan with `tensors` DRAM tensors
    /// (`beta = 1000` scaled by `effort`, capped by `stage2_cap`).
    pub fn stage2_iters(&self, tensors: usize) -> u64 {
        ((1000.0 * tensors as f64 * self.effort) as u64).max(80).min(self.stage2_cap)
    }

    /// The per-stage wall-clock budget as a `Duration`, if set.
    pub fn stage_time_budget(&self) -> Option<std::time::Duration> {
        (self.stage_time_budget_secs > 0.0)
            .then(|| std::time::Duration::from_secs_f64(self.stage_time_budget_secs))
    }
}
