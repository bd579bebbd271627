//! The wire protocol: line-delimited JSON frames, one object per line.
//!
//! Every frame carries `"v": 1` ([`PROTOCOL_VERSION`]);
//! a peer that sees a higher version must reject the frame rather than
//! guess at its meaning. Unknown *fields* inside a known frame are
//! ignored (additive evolution is compatible; removing or re-typing a
//! field bumps the version). See `specs/PROTOCOL.md` for the normative
//! description and a full transcript.
//!
//! Requests flow client → server ([`Request`]); responses flow back
//! ([`Response`]), each tagged with the request's client-chosen `id` so
//! a client can correlate frames. Both directions render through
//! [`Request::to_json`]/[`Response::to_json`] and parse through their
//! `from_json` duals — the conversions are exact inverses, which the
//! unit tests pin.

use serde::json::{self, Value};
use soma_search::record::{event_from_json, event_to_json, outcome_from_json, outcome_to_json};
use soma_search::{SearchEvent, SearchOutcome};

use crate::PROTOCOL_VERSION;

/// A malformed frame: bad JSON, wrong version, unknown type, missing or
/// mistyped field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// What was wrong.
    pub msg: String,
}

impl FrameError {
    fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad frame: {}", self.msg)
    }
}

impl std::error::Error for FrameError {}

fn check_version(v: &Value) -> Result<(), FrameError> {
    match v.get("v").and_then(Value::as_u64) {
        Some(PROTOCOL_VERSION) => Ok(()),
        Some(other) => Err(FrameError::new(format!(
            "unsupported protocol version {other} (this peer speaks {PROTOCOL_VERSION})"
        ))),
        None => Err(FrameError::new("missing `v`")),
    }
}

fn get_str(v: &Value, key: &str) -> Result<String, FrameError> {
    Ok(v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| FrameError::new(format!("missing or non-string `{key}`")))?
        .to_string())
}

fn opt_str(v: &Value, key: &str) -> Option<String> {
    v.get(key).and_then(Value::as_str).map(str::to_string)
}

/// What a submit request schedules: a registry scenario or an inline
/// network (+ optional hardware) spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// A registry scenario id, e.g. `fig2@edge/b1`.
    Scenario(String),
    /// Inline spec text. The network is mandatory (`soma-network v1`
    /// document); the hardware (`soma-hardware v1` document) defaults to
    /// the `edge` preset when absent.
    Inline {
        /// Full `soma-network v1` document.
        network: String,
        /// Full `soma-hardware v1` document, if any.
        hardware: Option<String>,
    },
}

/// A scheduling request (`"type":"submit"`).
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Client-chosen correlation id, echoed on every response frame.
    pub id: String,
    /// What to schedule.
    pub target: Target,
    /// Seed portfolio (defaults to `[2025]` when empty).
    pub seeds: Vec<u64>,
    /// Optional effort override (default: `SearchConfig::default`).
    pub effort: Option<f64>,
    /// Stream `progress` frames while the search runs (default `true`).
    pub progress: bool,
    /// Optional deadline in milliseconds, measured by the server from
    /// frame receipt. A search still running at the deadline is
    /// cancelled cooperatively and the submit ends with a
    /// `deadline-exceeded` rejection. Cache hits always beat any
    /// deadline. `None` (the default) means no deadline.
    pub deadline_ms: Option<u64>,
}

impl SubmitRequest {
    /// A minimal submit for a registry scenario.
    pub fn scenario(id: impl Into<String>, scenario: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            target: Target::Scenario(scenario.into()),
            seeds: Vec::new(),
            effort: None,
            progress: true,
            deadline_ms: None,
        }
    }
}

/// A client → server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Schedule something.
    Submit(SubmitRequest),
    /// Liveness/version probe.
    Ping,
    /// Server counters snapshot.
    Stats,
}

impl Request {
    /// Renders the request as its JSON frame.
    pub fn to_json(&self) -> Value {
        let mut o = Value::obj();
        o.push("v", PROTOCOL_VERSION.into());
        match self {
            Request::Submit(s) => {
                o.push("type", "submit".into());
                o.push("id", s.id.as_str().into());
                match &s.target {
                    Target::Scenario(id) => o.push("scenario", id.as_str().into()),
                    Target::Inline { network, hardware } => {
                        o.push("network", network.as_str().into());
                        if let Some(hw) = hardware {
                            o.push("hardware", hw.as_str().into());
                        }
                    }
                }
                if !s.seeds.is_empty() {
                    o.push("seeds", Value::Arr(s.seeds.iter().map(|&n| n.into()).collect()));
                }
                if let Some(e) = s.effort {
                    o.push("effort", e.into());
                }
                if !s.progress {
                    o.push("progress", false.into());
                }
                if let Some(d) = s.deadline_ms {
                    o.push("deadline_ms", d.into());
                }
            }
            Request::Ping => o.push("type", "ping".into()),
            Request::Stats => o.push("type", "stats".into()),
        }
        o
    }

    /// Parses a request frame.
    ///
    /// # Errors
    ///
    /// [`FrameError`] on a version mismatch, unknown type, or missing or
    /// mistyped field.
    pub fn from_json(v: &Value) -> Result<Self, FrameError> {
        check_version(v)?;
        match get_str(v, "type")?.as_str() {
            "submit" => {
                let id = get_str(v, "id")?;
                let target = match (opt_str(v, "scenario"), opt_str(v, "network")) {
                    (Some(_), Some(_)) => {
                        return Err(FrameError::new(
                            "`scenario` and `network` are mutually exclusive",
                        ))
                    }
                    (Some(sc), None) => Target::Scenario(sc),
                    (None, Some(network)) => {
                        Target::Inline { network, hardware: opt_str(v, "hardware") }
                    }
                    (None, None) => {
                        return Err(FrameError::new("submit needs `scenario` or `network`"))
                    }
                };
                let seeds = match v.get("seeds") {
                    None => Vec::new(),
                    Some(s) => s
                        .as_arr()
                        .ok_or_else(|| FrameError::new("`seeds` is not an array"))?
                        .iter()
                        .map(|n| {
                            n.as_u64()
                                .ok_or_else(|| FrameError::new("`seeds` element is not an integer"))
                        })
                        .collect::<Result<_, _>>()?,
                };
                let effort = match v.get("effort") {
                    None => None,
                    Some(e) => Some(
                        e.as_f64().ok_or_else(|| FrameError::new("`effort` is not a number"))?,
                    ),
                };
                let progress = match v.get("progress") {
                    None => true,
                    Some(p) => {
                        p.as_bool().ok_or_else(|| FrameError::new("`progress` is not a bool"))?
                    }
                };
                let deadline_ms = match v.get("deadline_ms") {
                    None => None,
                    Some(d) => Some(
                        d.as_u64()
                            .ok_or_else(|| FrameError::new("`deadline_ms` is not an integer"))?,
                    ),
                };
                Ok(Request::Submit(SubmitRequest {
                    id,
                    target,
                    seeds,
                    effort,
                    progress,
                    deadline_ms,
                }))
            }
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            other => Err(FrameError::new(format!("unknown request type `{other}`"))),
        }
    }
}

/// Why the server refused a submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The in-flight request limit is reached; retry later.
    QueueFull,
    /// The request's estimated evaluation budget exceeds the server's
    /// per-request ceiling.
    BudgetExceeded,
    /// The request itself is invalid (unknown scenario, bad spec text).
    BadRequest,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// The request's `deadline_ms` expired before the search finished
    /// (or had already expired at admission). Unlike every other
    /// reason, this one may arrive *after* an `accepted` frame: the
    /// search was cancelled cooperatively and its partial work
    /// discarded.
    DeadlineExceeded,
}

impl RejectReason {
    /// Stable wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue-full",
            RejectReason::BudgetExceeded => "budget-exceeded",
            RejectReason::BadRequest => "bad-request",
            RejectReason::ShuttingDown => "shutting-down",
            RejectReason::DeadlineExceeded => "deadline-exceeded",
        }
    }

    fn parse(s: &str) -> Result<Self, FrameError> {
        match s {
            "queue-full" => Ok(RejectReason::QueueFull),
            "budget-exceeded" => Ok(RejectReason::BudgetExceeded),
            "bad-request" => Ok(RejectReason::BadRequest),
            "shutting-down" => Ok(RejectReason::ShuttingDown),
            "deadline-exceeded" => Ok(RejectReason::DeadlineExceeded),
            other => Err(FrameError::new(format!("unknown reject reason `{other}`"))),
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A server counters snapshot (`"type":"stats"` response).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Submits currently holding an admission permit.
    pub inflight: u64,
    /// Submits answered with a `result` frame (cached or fresh).
    pub served: u64,
    /// Of `served`, how many came straight from the ledger.
    pub cache_hits: u64,
    /// Submits refused with a `rejected` frame.
    pub rejected: u64,
    /// Rows currently in the ledger.
    pub ledger_rows: u64,
    /// Searches cancelled mid-flight (deadline expired or client
    /// disconnected) with their partial work discarded.
    pub cancelled: u64,
    /// Search panics caught and isolated (the connection survived).
    pub panics: u64,
    /// Corrupt ledger rows quarantined when the daemon loaded its
    /// ledger.
    pub quarantined: u64,
    /// Fresh results whose ledger append failed: the client still got
    /// the result, but it was not cached.
    pub append_failed: u64,
    /// Ledger hits whose stored payload did not decode: the request
    /// was searched afresh and its new row supersedes the damaged one.
    pub decode_failed: u64,
    /// Milliseconds since the daemon started accepting connections
    /// (gauge — monotonically increasing, resets on restart).
    pub uptime_ms: u64,
}

/// A server → client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The submit passed admission; a `result` frame will follow.
    Accepted {
        /// Echo of the submit id.
        id: String,
        /// The request's ledger key (16 hex digits).
        hash: String,
        /// Whether the result will be served from the ledger.
        cached: bool,
    },
    /// The submit was refused; no further frames for this id.
    Rejected {
        /// Echo of the submit id.
        id: String,
        /// Typed reason.
        reason: RejectReason,
        /// Human-readable detail.
        detail: String,
    },
    /// A streamed search progress event.
    Progress {
        /// Echo of the submit id.
        id: String,
        /// The engine event.
        event: SearchEvent,
    },
    /// The submit's outcome — the final frame for its id.
    Result {
        /// Echo of the submit id.
        id: String,
        /// The ledger key the outcome is stored under.
        hash: String,
        /// Whether it came from the ledger without search work.
        cached: bool,
        /// The complete outcome (boxed: it dwarfs every other frame).
        outcome: Box<SearchOutcome>,
    },
    /// Answer to `ping`.
    Pong {
        /// Engine version (`soma_search::ENGINE_VERSION`).
        engine: String,
        /// Protocol version.
        protocol: u64,
    },
    /// Answer to `stats`.
    Stats(StatsSnapshot),
    /// The server could not parse a frame (connection-level; no id).
    Error {
        /// What was wrong.
        detail: String,
    },
}

impl Response {
    /// Renders the response as its JSON frame.
    pub fn to_json(&self) -> Value {
        let mut o = Value::obj();
        o.push("v", PROTOCOL_VERSION.into());
        match self {
            Response::Accepted { id, hash, cached } => {
                o.push("type", "accepted".into());
                o.push("id", id.as_str().into());
                o.push("hash", hash.as_str().into());
                o.push("cached", (*cached).into());
            }
            Response::Rejected { id, reason, detail } => {
                o.push("type", "rejected".into());
                o.push("id", id.as_str().into());
                o.push("reason", reason.as_str().into());
                o.push("detail", detail.as_str().into());
            }
            Response::Progress { id, event } => {
                o.push("type", "progress".into());
                o.push("id", id.as_str().into());
                o.push("event", event_to_json(event));
            }
            Response::Result { id, hash, cached, outcome } => {
                o.push("type", "result".into());
                o.push("id", id.as_str().into());
                o.push("hash", hash.as_str().into());
                o.push("cached", (*cached).into());
                o.push("outcome", outcome_to_json(outcome));
            }
            Response::Pong { engine, protocol } => {
                o.push("type", "pong".into());
                o.push("engine", engine.as_str().into());
                o.push("protocol", (*protocol).into());
            }
            Response::Stats(s) => {
                o.push("type", "stats".into());
                o.push("inflight", s.inflight.into());
                o.push("served", s.served.into());
                o.push("cache_hits", s.cache_hits.into());
                o.push("rejected", s.rejected.into());
                o.push("ledger_rows", s.ledger_rows.into());
                o.push("cancelled", s.cancelled.into());
                o.push("panics", s.panics.into());
                o.push("quarantined", s.quarantined.into());
                o.push("append_failed", s.append_failed.into());
                o.push("decode_failed", s.decode_failed.into());
                o.push("uptime_ms", s.uptime_ms.into());
            }
            Response::Error { detail } => {
                o.push("type", "error".into());
                o.push("detail", detail.as_str().into());
            }
        }
        o
    }

    /// Parses a response frame.
    ///
    /// # Errors
    ///
    /// [`FrameError`] on a version mismatch, unknown type, or missing or
    /// mistyped field.
    pub fn from_json(v: &Value) -> Result<Self, FrameError> {
        check_version(v)?;
        let get_u64 = |key: &str| -> Result<u64, FrameError> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| FrameError::new(format!("missing or non-integer `{key}`")))
        };
        let get_bool = |key: &str| -> Result<bool, FrameError> {
            v.get(key)
                .and_then(Value::as_bool)
                .ok_or_else(|| FrameError::new(format!("missing or non-bool `{key}`")))
        };
        match get_str(v, "type")?.as_str() {
            "accepted" => Ok(Response::Accepted {
                id: get_str(v, "id")?,
                hash: get_str(v, "hash")?,
                cached: get_bool("cached")?,
            }),
            "rejected" => Ok(Response::Rejected {
                id: get_str(v, "id")?,
                reason: RejectReason::parse(&get_str(v, "reason")?)?,
                detail: get_str(v, "detail")?,
            }),
            "progress" => Ok(Response::Progress {
                id: get_str(v, "id")?,
                event: event_from_json(
                    v.get("event").ok_or_else(|| FrameError::new("missing `event`"))?,
                )
                .map_err(|e| FrameError::new(e.to_string()))?,
            }),
            "result" => Ok(Response::Result {
                id: get_str(v, "id")?,
                hash: get_str(v, "hash")?,
                cached: get_bool("cached")?,
                outcome: Box::new(
                    outcome_from_json(
                        v.get("outcome").ok_or_else(|| FrameError::new("missing `outcome`"))?,
                    )
                    .map_err(|e| FrameError::new(e.to_string()))?,
                ),
            }),
            "pong" => {
                Ok(Response::Pong { engine: get_str(v, "engine")?, protocol: get_u64("protocol")? })
            }
            "stats" => Ok(Response::Stats(StatsSnapshot {
                inflight: get_u64("inflight")?,
                served: get_u64("served")?,
                cache_hits: get_u64("cache_hits")?,
                rejected: get_u64("rejected")?,
                ledger_rows: get_u64("ledger_rows")?,
                // Additive v1 fields: absent when talking to an older
                // daemon, so default rather than reject.
                cancelled: v.get("cancelled").and_then(Value::as_u64).unwrap_or(0),
                panics: v.get("panics").and_then(Value::as_u64).unwrap_or(0),
                quarantined: v.get("quarantined").and_then(Value::as_u64).unwrap_or(0),
                append_failed: v.get("append_failed").and_then(Value::as_u64).unwrap_or(0),
                decode_failed: v.get("decode_failed").and_then(Value::as_u64).unwrap_or(0),
                uptime_ms: v.get("uptime_ms").and_then(Value::as_u64).unwrap_or(0),
            })),
            "error" => Ok(Response::Error { detail: get_str(v, "detail")? }),
            other => Err(FrameError::new(format!("unknown response type `{other}`"))),
        }
    }
}

/// Renders any frame value as its single wire line (no newline).
pub fn to_line(frame: &Value) -> String {
    json::to_string(frame)
}

/// Parses one wire line into a JSON value.
///
/// # Errors
///
/// [`FrameError`] on malformed JSON.
pub fn parse_line(line: &str) -> Result<Value, FrameError> {
    json::parse(line).map_err(|e| FrameError::new(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: &Request) {
        let line = to_line(&req.to_json());
        assert!(!line.contains('\n'), "frames are single lines: {line}");
        let back = Request::from_json(&parse_line(&line).unwrap()).unwrap();
        assert_eq!(*req, back, "{line}");
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(&Request::Ping);
        round_trip_request(&Request::Stats);
        round_trip_request(&Request::Submit(SubmitRequest::scenario("r1", "fig2@edge/b1")));
        round_trip_request(&Request::Submit(SubmitRequest {
            id: "r2".into(),
            target: Target::Inline {
                network: "soma-network v1\nname x\nend\n".into(),
                hardware: Some("soma-hardware v1\npreset edge\nend\n".into()),
            },
            seeds: vec![1, 2, 3],
            effort: Some(0.02),
            progress: false,
            deadline_ms: Some(1500),
        }));
        round_trip_request(&Request::Submit(SubmitRequest {
            deadline_ms: Some(0),
            ..SubmitRequest::scenario("r3", "fig2@edge/b1")
        }));
    }

    #[test]
    fn responses_round_trip() {
        let frames = [
            Response::Accepted { id: "a".into(), hash: "00ff".into(), cached: true },
            Response::Rejected {
                id: "b".into(),
                reason: RejectReason::QueueFull,
                detail: "8 in flight".into(),
            },
            Response::Progress {
                id: "c".into(),
                event: SearchEvent::NewBest { round: 1, cost: 0.5, latency_cycles: 10 },
            },
            Response::Pong { engine: "soma-engine-1".into(), protocol: PROTOCOL_VERSION },
            Response::Stats(StatsSnapshot {
                inflight: 1,
                served: 2,
                cache_hits: 1,
                rejected: 3,
                ledger_rows: 4,
                cancelled: 5,
                panics: 6,
                quarantined: 7,
                append_failed: 9,
                decode_failed: 10,
                uptime_ms: 8,
            }),
            Response::Error { detail: "bad json".into() },
        ];
        for frame in &frames {
            let line = to_line(&frame.to_json());
            let back = Response::from_json(&parse_line(&line).unwrap()).unwrap();
            assert_eq!(*frame, back, "{line}");
        }
    }

    #[test]
    fn every_reject_reason_round_trips_its_token() {
        for reason in [
            RejectReason::QueueFull,
            RejectReason::BudgetExceeded,
            RejectReason::BadRequest,
            RejectReason::ShuttingDown,
            RejectReason::DeadlineExceeded,
        ] {
            assert_eq!(RejectReason::parse(reason.as_str()).unwrap(), reason);
        }
        assert!(RejectReason::parse("because").is_err());
    }

    #[test]
    fn version_mismatch_is_refused_not_guessed() {
        let e =
            Request::from_json(&parse_line("{\"v\":2,\"type\":\"ping\"}").unwrap()).unwrap_err();
        assert!(e.to_string().contains("unsupported protocol version 2"), "{e}");
        assert!(Request::from_json(&parse_line("{\"type\":\"ping\"}").unwrap()).is_err());
    }

    #[test]
    fn submit_validation_catches_shape_errors() {
        let bad = |text: &str| Request::from_json(&parse_line(text).unwrap()).unwrap_err();
        let e = bad("{\"v\":1,\"type\":\"submit\",\"id\":\"x\"}");
        assert!(e.to_string().contains("`scenario` or `network`"), "{e}");
        let e =
            bad("{\"v\":1,\"type\":\"submit\",\"id\":\"x\",\"scenario\":\"s\",\"network\":\"n\"}");
        assert!(e.to_string().contains("mutually exclusive"), "{e}");
        let e = bad("{\"v\":1,\"type\":\"submit\",\"id\":\"x\",\"scenario\":\"s\",\"seeds\":[-1]}");
        assert!(e.to_string().contains("`seeds` element"), "{e}");
        assert!(bad("{\"v\":1,\"type\":\"warp\"}").to_string().contains("unknown request type"));
        let e = bad(
            "{\"v\":1,\"type\":\"submit\",\"id\":\"x\",\"scenario\":\"s\",\"deadline_ms\":\"soon\"}",
        );
        assert!(e.to_string().contains("`deadline_ms`"), "{e}");
    }

    #[test]
    fn stats_failure_counters_default_to_zero_when_absent() {
        // A pre-chaos daemon omits the failure counters; the client
        // reads zeros instead of rejecting the frame.
        let line = "{\"v\":1,\"type\":\"stats\",\"inflight\":0,\"served\":9,\
                    \"cache_hits\":4,\"rejected\":1,\"ledger_rows\":5}";
        let Response::Stats(s) = Response::from_json(&parse_line(line).unwrap()).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(
            (s.cancelled, s.panics, s.quarantined, s.append_failed, s.decode_failed, s.uptime_ms),
            (0, 0, 0, 0, 0, 0)
        );
        assert_eq!(s.served, 9);
    }
}
