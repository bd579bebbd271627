//! Scheduling-as-a-service: a long-running daemon that answers SoMa
//! scheduling requests over line-delimited JSON.
//!
//! The experiment harness runs searches batch-style (`soma-bench --bin
//! lab`); this crate turns the same engine into a **service**: clients
//! connect over TCP or a unix-domain socket, name a registry scenario
//! (or send inline `soma-network v1`/`soma-hardware v1` spec text),
//! and stream back typed progress events followed by the complete
//! [`SearchOutcome`](soma_search::SearchOutcome). Everything is built on
//! `std::net` threads — no async runtime, matching the workspace's
//! no-external-dependency rule.
//!
//! Three properties carry the design:
//!
//! * **Admission control, not invisible queueing** ([`admission`]) — a
//!   submit either starts immediately or is refused with a typed
//!   [`RejectReason`](protocol::RejectReason) (`queue-full`,
//!   `budget-exceeded`, `bad-request`, `shutting-down`) the client can
//!   act on. The budget check is a coarse upfront estimate of schedule
//!   evaluations, so an oversized request is refused before it burns a
//!   core for minutes.
//! * **The ledger is the cache** ([`soma_spec::ledger`]) — results are
//!   keyed by the same content hash the lab orchestrator uses; a repeat
//!   request is answered bit-identically from disk with `cached: true`
//!   and zero search work, and every fresh result is flushed to the
//!   ledger *before* the result frame goes out, so the cache grows
//!   across requests and daemon restarts — and a ledger warmed by `lab`
//!   serves the daemon, and vice versa. A cached row whose payload no
//!   longer decodes is counted (`decode_failed` in `stats`), searched
//!   afresh and superseded by the new row.
//! * **Graceful shutdown** ([`shutdown`]) — SIGINT/SIGTERM flip one
//!   atomic flag; accept and connection loops poll it between frames,
//!   in-flight searches finish and flush, new submits get
//!   `shutting-down`, and the process exits 0 with a clean,
//!   replayable ledger.
//!
//! The wire protocol (one JSON object per line, versioned with
//! [`PROTOCOL_VERSION`]) is specified in `specs/PROTOCOL.md`; the
//! binaries live in `soma-bench` (`--bin serve`, `--bin loadgen`)
//! because that crate owns the workspace's only environment-variable
//! access.
//!
//! ```no_run
//! use soma_serve::{start, Client, Listen, ServerConfig, SubmitRequest};
//!
//! let handle = start(ServerConfig::new(
//!     "tcp:127.0.0.1:0".parse::<Listen>().unwrap(),
//!     "runs/serve.ledger",
//! ))
//! .unwrap();
//! let mut client = Client::connect(handle.listen()).unwrap();
//! let sub = client.submit(SubmitRequest::scenario("r1", "fig2@edge/b1")).unwrap();
//! assert!(sub.succeeded());
//! handle.shutdown();
//! ```

pub mod admission;
pub mod client;
pub mod net;
pub mod protocol;
pub mod server;
pub mod shutdown;

pub use admission::{estimate_evals, Admission};
pub use client::{Client, ClientError, RetryPolicy, Submission};
pub use net::Listen;
pub use protocol::{
    FrameError, RejectReason, Request, Response, StatsSnapshot, SubmitRequest, Target,
};
pub use server::{start, ServerConfig, ServerHandle};

/// Version of the line-delimited JSON protocol. Every frame carries it
/// as `"v"`; peers refuse frames from a newer protocol instead of
/// guessing. Additive changes (new optional fields, new frame types)
/// keep the version; removing or re-typing anything bumps it.
pub const PROTOCOL_VERSION: u64 = 1;
