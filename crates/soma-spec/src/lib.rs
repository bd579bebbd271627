//! Declarative scenario specs: parseable descriptions of *what to
//! schedule* — networks, hardware, whole experiments — plus the scenario
//! registry that names every zoo workload × platform × batch point.
//!
//! The paper evaluates SoMa over a workload × platform × batch matrix;
//! this crate turns every point of that matrix (and any custom point)
//! into **data**: a scheduling request becomes a textual artifact that
//! can be committed, diffed and replayed, instead of a recompile. All
//! three formats are hand-rolled line-oriented text — no external
//! parser dependencies — and every parse error carries the 1-based
//! line and column of the offending token ([`SpecError`]).
//!
//! # The three formats
//!
//! **`soma-network v1`** ([`read_network`] / [`write_network`]) — a
//! layer-graph grammar that round-trips through
//! [`soma_model::NetworkBuilder`], one line per builder call:
//!
//! ```text
//! soma-network v1
//! name demo
//! precision 1
//! input x 1x3x32x32
//! conv stem from x cout=8 k=3x3 stride=2
//! vector act relu from stem
//! output act
//! end
//! ```
//!
//! **`soma-hardware v1`** ([`read_hardware`] / [`write_hardware`]) — a
//! named [`Preset`] plus ordered field overrides with
//! `HardwareConfigBuilder` semantics:
//!
//! ```text
//! soma-hardware v1
//! preset edge
//! buffer_mib 32
//! end
//! ```
//!
//! **`soma-experiment v1`** ([`read_experiment`] / [`write_experiment`])
//! — scenarios (or a workload × hardware × batch grid) × search
//! configuration × seed portfolio:
//!
//! ```text
//! soma-experiment v1
//! name fig2-edge
//! scenario fig2@edge/b1
//! seeds 2025
//! effort 0.01
//! end
//! ```
//!
//! # The scenario registry
//!
//! [`registry`] assigns the stable id `<workload>@<preset>/b<batch>`
//! (e.g. `resnet50@cloud/b16`) to every canonical zoo entry × platform
//! preset × batch combination, so harness outputs, benchmark files and
//! experiment specs all key their results the same way. See
//! [`registry::scenarios`], [`registry::lookup`] and
//! [`registry::scenario_id`].
//!
//! ```
//! use soma_spec::registry;
//!
//! let sc = registry::lookup("fig2@edge/b1").unwrap();
//! assert_eq!(sc.network().name(), "fig2");
//! assert_eq!(sc.hardware().peak_tops(), 16.0);
//! ```

pub mod error;
pub mod experiment;
pub mod fault;
pub mod hardware;
pub mod hash;
pub mod ledger;
pub mod network;
pub mod registry;

pub use error::SpecError;
pub use experiment::{
    read_experiment, write_experiment, ExperimentCell, ExperimentSpec, SchedulerKind, COCCO_SUFFIX,
};
pub use fault::{Fault, FaultConfig, FaultPlan};
pub use hardware::{read_hardware, write_hardware, HardwareSpec, HwField, Preset};
pub use hash::{cell_hash, inline_scenario_id};
pub use ledger::{
    cell_key, key_for, quarantine_path, CompactStats, Ledger, LedgerHealth, LedgerRow,
    MigrateStats, JSONL_VERSION, LEDGER_VERSION, SHARDS,
};
pub use network::{read_network, write_network};
pub use registry::{scenario_id, scenarios, Scenario};
