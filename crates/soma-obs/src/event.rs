//! The typed campaign progress event, [`LabEvent`] — the shared
//! vocabulary between the `lab` orchestrator (its producer, which
//! re-exports it) and every observability consumer in this crate
//! ([`WatchModel`](crate::WatchModel), the campaign summary builder).
//!
//! The type lives here rather than in `soma-bench` so observers do not
//! have to depend on the orchestrator: `soma-obs` defines the
//! vocabulary, `soma-bench` speaks it.

/// A typed progress event of the experiment orchestrator, mirroring the
/// per-search [`SearchEvent`](soma_search::SearchEvent) one level up:
/// events carry plain strings and numbers, serialise cheaply, and arrive
/// **live**: `Queued` then `Cached` in cell order up front, `Started` as
/// each search begins (execution order — nondeterministic under a
/// parallel parallelism policy, cell order under sequential), and
/// `Finished`/`Failed` in cell order, each emitted on the cell's turn —
/// with a ledger, the moment the cell's row lands in it.
#[derive(Debug, Clone, PartialEq)]
pub enum LabEvent {
    /// A cell entered the work queue.
    Queued {
        /// The cell's scenario id.
        cell: String,
        /// The cell's ledger key (16 hex digits).
        hash: String,
    },
    /// A cell was served without search work: from the run ledger, or
    /// from an earlier cell of the run with the same key.
    Cached {
        /// The cell's scenario id.
        cell: String,
        /// The ledger key that hit.
        hash: String,
    },
    /// A cell's search started (ledger miss).
    Started {
        /// The cell's scenario id.
        cell: String,
    },
    /// A cell's search finished and its turn came in cell order: with a
    /// ledger, its row was just appended; without one (the `run`
    /// binary), nothing was written.
    Finished {
        /// The cell's scenario id.
        cell: String,
        /// The cell's ledger key.
        hash: String,
        /// Best (envelope) cost of the cell's portfolio.
        cost: f64,
        /// Best latency in cycles.
        latency_cycles: u64,
        /// Completed schedule evaluations of the cell's portfolio.
        evals: u64,
    },
    /// A cell's search panicked. The panic is isolated: the campaign
    /// keeps running, the cell gets no ledger row (a rerun retries it),
    /// and the run exits with a partial-failure code.
    Failed {
        /// The cell's scenario id.
        cell: String,
        /// The cell's ledger key (never written by this run).
        hash: String,
        /// The panic message, best-effort.
        error: String,
    },
}
