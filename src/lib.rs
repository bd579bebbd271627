//! # SoMa
//!
//! A from-scratch Rust reproduction of **"SoMa: Identifying, Exploring, and
//! Understanding the DRAM Communication Scheduling Space for DNN
//! Accelerators"** (HPCA 2025).
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`model`] — DNN workload graphs and the model zoo.
//! * [`arch`] — accelerator hardware configuration and energy model.
//! * [`core`] — the tensor-centric notation and its parser.
//! * [`sim`] — the evaluator (timeline simulator + core-array model).
//! * [`search`] — the [`Scheduler`](search::Scheduler) builder over
//!   the two-stage SA framework, buffer allocator and the Cocco
//!   baseline.
//! * [`spec`] — declarative scenario specs: parseable network /
//!   hardware / experiment descriptions and the scenario registry
//!   (`<workload>@<preset>/b<batch>` ids).
//! * [`serve`] — scheduling-as-a-service: the line-delimited JSON
//!   protocol, admission control, the daemon with its ledger-backed
//!   result cache, and a reference client.
//! * [`obs`] — campaign observability: the streaming stats engine
//!   (min/max/mean, exact and P² percentiles, sparklines), the
//!   machine-readable [`CampaignSummary`](obs::CampaignSummary) CI
//!   artifact, and the render model behind the `watch` TUI.
//!
//! # Quickstart
//!
//! Build a search with the [`Scheduler`](search::Scheduler), then drive
//! it to completion with `run()`:
//!
//! ```
//! use soma::prelude::*;
//!
//! let net = soma::model::zoo::fig2(1);
//! let hw = HardwareConfig::edge();
//! let cfg = SearchConfig { effort: 0.05, seed: 7, ..SearchConfig::default() };
//! let outcome = Scheduler::new(&net, &hw).config(cfg).run();
//! assert!(outcome.best.report.latency_cycles > 0);
//! ```

pub use soma_arch as arch;
pub use soma_core as core;
pub use soma_model as model;
pub use soma_obs as obs;
pub use soma_search as search;
pub use soma_serve as serve;
pub use soma_sim as sim;
pub use soma_spec as spec;

/// Commonly used items in one import.
pub mod prelude {
    pub use soma_arch::{EnergyModel, HardwareConfig};
    pub use soma_core::{Encoding, ParsedSchedule};
    pub use soma_model::{FmapShape, LayerId, Network, NetworkBuilder};
    pub use soma_search::{
        CostWeights, Parallelism, Scheduler, SearchConfig, SearchEvent, SearchOutcome,
    };
    pub use soma_sim::{evaluate, EvalReport};
    pub use soma_spec::{read_experiment, read_network, write_network, ExperimentSpec, SpecError};
}
