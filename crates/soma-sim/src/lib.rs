//! The SoMa evaluator (paper Sec. V-D): an accurate, deterministic
//! simulator for schedules expressed in the tensor-centric notation.
//!
//! Evaluation is local-to-global:
//!
//! 1. [`core_array`] assesses each computing tile in isolation — how the
//!    core group divides it into sub-tiles, the GBUF/L0 traffic this
//!    causes, the resulting cycles and energy (a classic intra-tile
//!    mapper in the Timeloop/MAESTRO mould, memoised per layer/shape).
//! 2. [`timeline`] plays the serial DRAM-tensor queue against the serial
//!    compute-tile queue under the paper's start conditions, yielding
//!    exact start/end times, the total latency, and stall structure.
//! 3. [`report`] rolls everything up into an [`EvalReport`] with the
//!    quantities Fig. 6 plots (energy split, utilisations, buffer usage,
//!    theoretical maximum utilisation).
//!
//! Search loops evaluate thousands of DLSAs against one frozen plan and
//! need only each one's latency and the plan's energy. [`compiled`] is
//! that evaluator: [`CompiledPlan`] precomputes tile costs, tensor
//! durations, the load-gate CSR table and the plan's energy once, and
//! [`CompiledPlan::simulate_cost`] replays the queues with zero heap
//! allocation against a re-usable [`SimScratch`]. Stage 1 evaluates a new
//! plan per proposal, one that keeps a prefix of the last: it
//! [recompiles](CompiledPlan::recompile) from the first tile the proposal
//! changes and [resumes](CompiledPlan::simulate_cost_from) the scratch's
//! last replay before it. A [`Replay`] keeps one
//! DLSA's replay and re-simulates an edit of it from the last checkpoint
//! the edit leaves unchanged — the two queues' state after some slots
//! served and some tiles run — rewriting only the suffix after it, which
//! the caller keeps or restores; an edit of a living duration that binds
//! no gate keeps the replay as it is. Its latency and deadlock verdict
//! are a full replay's. Full reports come only from [`evaluate_parts`], the
//! reference the engine is tested against.
//!
//! ```
//! use soma_arch::HardwareConfig;
//! use soma_core::{Encoding, Lfa, ParsedSchedule};
//! use soma_model::zoo;
//! use soma_sim::evaluate;
//!
//! let net = zoo::fig2(1);
//! let sched = ParsedSchedule::new(&net, &Encoding::from_lfa(Lfa::unfused(&net, 4)))?;
//! let report = evaluate(&net, &sched, &HardwareConfig::edge())?;
//! assert!(report.latency_cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod compiled;
pub mod core_array;
pub mod gantt;
pub mod report;
pub mod stall;
pub mod timeline;

pub use compiled::{CompiledPlan, Replay, SimScratch};
pub use core_array::{CoreArrayModel, TileCost};
pub use gantt::render_gantt;
pub use report::{evaluate, evaluate_parts, EnergyBreakdown, EvalReport};
pub use stall::{attribute_stalls, summarize, Stall, StallCause, StallSummary};
pub use timeline::{simulate, SimError, Timeline};
