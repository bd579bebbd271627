//! A small synchronous client for the serve protocol — what the
//! `loadgen` CI client, the benchmark's `serve-mixed` workload and the
//! e2e tests drive, and a reference implementation for anyone speaking
//! the protocol from another language.
//!
//! Failure semantics are typed ([`ClientError`]): every read carries a
//! deadline (default [`Client::DEFAULT_TIMEOUT`]) so a hung or dead
//! daemon surfaces as [`ClientError::Timeout`] instead of blocking the
//! caller forever. For callers that want to survive daemon restarts and
//! queue-full pushback, [`RetryPolicy`] packages the idiom: exponential
//! backoff with deterministic jitter around connect + submit. Blind
//! resubmission is *safe* by design — results are content-addressed in
//! the daemon's ledger, so a retried request either hits the cache of
//! the first attempt or recomputes the identical row.

use std::io::{self, BufRead, BufReader, Write};
use std::time::Duration;

use soma_search::{SearchEvent, SearchOutcome};

use crate::net::{Listen, Stream};
use crate::protocol::{
    parse_line, to_line, RejectReason, Request, Response, StatsSnapshot, SubmitRequest,
};

/// A typed client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The daemon did not produce a frame within the read timeout —
    /// it is dead, hung, or slower than the configured patience.
    Timeout(Duration),
    /// A transport failure: connect refused, connection reset, stream
    /// closed mid-frame.
    Io(io::Error),
    /// The daemon sent something the protocol does not allow here
    /// (unparseable frame, wrong id, out-of-order frame, `error` frame).
    Protocol(String),
}

impl ClientError {
    /// Whether retrying against a (possibly restarted) daemon can
    /// plausibly succeed: transport failures and timeouts, yes;
    /// protocol violations, no.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ClientError::Timeout(_) | ClientError::Io(_))
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Timeout(t) => write!(f, "no response within {}ms", t.as_millis()),
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

fn protocol(e: impl std::fmt::Display) -> ClientError {
    ClientError::Protocol(e.to_string())
}

/// One connection to a serve daemon.
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
    timeout: Option<Duration>,
}

/// How a submit ended, with everything observed along the way.
#[derive(Debug)]
pub struct Submission {
    /// The request's ledger key (present iff the submit was accepted).
    pub hash: Option<String>,
    /// Whether the result came from the ledger without search work.
    pub cached: bool,
    /// Progress events streamed while the search ran.
    pub progress: Vec<SearchEvent>,
    /// The outcome (present iff a `result` frame arrived).
    pub outcome: Option<SearchOutcome>,
    /// The typed rejection, if the submit was refused.
    pub rejection: Option<(RejectReason, String)>,
}

impl Submission {
    /// Whether the submit produced an outcome.
    pub fn succeeded(&self) -> bool {
        self.outcome.is_some()
    }
}

impl Client {
    /// Default per-read patience: generous enough for a cold search on
    /// a loaded box, finite so a dead daemon cannot wedge the caller.
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(120);

    /// Connects to a daemon with the [default read
    /// timeout](Self::DEFAULT_TIMEOUT) armed.
    ///
    /// # Errors
    ///
    /// Socket connect errors.
    pub fn connect(listen: &Listen) -> Result<Self, ClientError> {
        let writer = Stream::connect(listen)?;
        let reader = BufReader::new(writer.try_clone()?);
        let mut client = Self { reader, writer, timeout: None };
        client.set_timeout(Some(Self::DEFAULT_TIMEOUT))?;
        Ok(client)
    }

    /// Adjusts the per-read timeout (`None` = block forever — only for
    /// callers with their own watchdog).
    ///
    /// # Errors
    ///
    /// Socket option errors.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        self.timeout = timeout;
        Ok(())
    }

    /// Sends one request frame, line and terminator in one write.
    ///
    /// # Errors
    ///
    /// Socket write errors.
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        let mut line = to_line(&req.to_json());
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    /// Blocks for the next response frame, up to the read timeout.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] when the timeout lapses with no frame,
    /// [`ClientError::Io`] on transport failure or a closed stream,
    /// [`ClientError::Protocol`] on an unparseable frame.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => {
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the stream",
                )))
            }
            // A line without its terminator means the stream died
            // mid-frame (a torn write); that is a transport failure the
            // retry policy may ride out, not a protocol violation.
            Ok(_) if !line.ends_with('\n') => {
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed mid-frame",
                )))
            }
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(ClientError::Timeout(self.timeout.unwrap_or(Duration::ZERO)))
            }
            Err(e) => return Err(ClientError::Io(e)),
        }
        let v = parse_line(line.trim_end()).map_err(protocol)?;
        Response::from_json(&v).map_err(protocol)
    }

    /// Pings the daemon, returning `(engine_version, protocol_version)`.
    ///
    /// # Errors
    ///
    /// Transport errors, timeout, or an unexpected response frame.
    pub fn ping(&mut self) -> Result<(String, u64), ClientError> {
        self.send(&Request::Ping)?;
        match self.recv()? {
            Response::Pong { engine, protocol } => Ok((engine, protocol)),
            other => Err(protocol(format!("expected pong, got {other:?}"))),
        }
    }

    /// Fetches the daemon's counters.
    ///
    /// # Errors
    ///
    /// Transport errors, timeout, or an unexpected response frame.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        self.send(&Request::Stats)?;
        match self.recv()? {
            Response::Stats(s) => Ok(s),
            other => Err(protocol(format!("expected stats, got {other:?}"))),
        }
    }

    /// Submits a scheduling request and drives it to its terminal frame
    /// (`result` or `rejected`), collecting progress along the way.
    ///
    /// # Errors
    ///
    /// Transport errors, timeout, a frame for a different request id,
    /// or a protocol-order violation.
    pub fn submit(&mut self, req: SubmitRequest) -> Result<Submission, ClientError> {
        let want = req.id.clone();
        self.send(&Request::Submit(req))?;
        let mut sub = Submission {
            hash: None,
            cached: false,
            progress: Vec::new(),
            outcome: None,
            rejection: None,
        };
        loop {
            match self.recv()? {
                Response::Accepted { id, hash, cached } if id == want => {
                    sub.hash = Some(hash);
                    sub.cached = cached;
                }
                Response::Progress { id, event } if id == want => sub.progress.push(event),
                Response::Result { id, hash, cached, outcome } if id == want => {
                    sub.hash = Some(hash);
                    sub.cached = cached;
                    sub.outcome = Some(*outcome);
                    return Ok(sub);
                }
                Response::Rejected { id, reason, detail } if id == want => {
                    sub.rejection = Some((reason, detail));
                    return Ok(sub);
                }
                Response::Error { detail } => return Err(protocol(detail)),
                other => return Err(protocol(format!("unexpected frame {other:?}"))),
            }
        }
    }
}

/// Deterministic exponential backoff with jitter, shared by every
/// caller that retries against the daemon (`loadgen`, which the CI
/// smoke scripts run, and the chaos suite). Deterministic on purpose:
/// a retry schedule is part of a reproducible chaos run, so the jitter
/// derives from `jitter_seed` — no wall clock, no OS randomness.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 0 behaves as 1.
    pub attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 5,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(2),
            jitter_seed: 2025,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `retry` (1-based): exponential
    /// from [`base_delay`](Self::base_delay), capped at
    /// [`max_delay`](Self::max_delay), plus up to +50% deterministic
    /// jitter so synchronized clients fan out.
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = self.base_delay.saturating_mul(1u32 << retry.saturating_sub(1).min(16));
        let capped = exp.min(self.max_delay);
        // xorshift64 over (seed, retry): reproducible jitter.
        let mut x = (self.jitter_seed ^ (u64::from(retry) << 32)) | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let half = capped.as_micros() as u64 / 2;
        capped + Duration::from_micros(x % (half + 1))
    }

    /// Connects, retrying transport failures with backoff — the shared
    /// replacement for ad-hoc "daemon not up yet" poll loops.
    ///
    /// # Errors
    ///
    /// The last attempt's error once attempts are exhausted.
    pub fn connect(&self, listen: &Listen) -> Result<Client, ClientError> {
        let attempts = self.attempts.max(1);
        let mut last: Option<ClientError> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.backoff(attempt));
            }
            match Client::connect(listen) {
                Ok(c) => return Ok(c),
                Err(e) if e.is_retryable() => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// Submits with full fault-recovery: reconnects and resubmits on
    /// transport errors, timeouts and `queue-full` pushback, with
    /// backoff between attempts. Safe against duplicated work by
    /// construction — the daemon's ledger is content-addressed, so a
    /// resubmit after a lost reply is served from cache.
    ///
    /// Non-transient rejections (`bad-request`, `budget-exceeded`,
    /// `deadline-exceeded`, `shutting-down`) are returned as the
    /// submission, not retried.
    ///
    /// # Errors
    ///
    /// The last attempt's error once attempts are exhausted.
    pub fn submit(&self, listen: &Listen, req: &SubmitRequest) -> Result<Submission, ClientError> {
        let attempts = self.attempts.max(1);
        let mut last: Option<ClientError> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.backoff(attempt));
            }
            let mut client = match Client::connect(listen) {
                Ok(c) => c,
                Err(e) if e.is_retryable() => {
                    last = Some(e);
                    continue;
                }
                Err(e) => return Err(e),
            };
            match client.submit(req.clone()) {
                Ok(sub) => {
                    if matches!(sub.rejection, Some((RejectReason::QueueFull, _))) {
                        last = Some(ClientError::Protocol("queue-full".into()));
                        continue;
                    }
                    return Ok(sub);
                }
                Err(e) if e.is_retryable() => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.expect("at least one attempt ran"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let p = RetryPolicy::default();
        let q = RetryPolicy::default();
        for retry in 1..6 {
            assert_eq!(p.backoff(retry), q.backoff(retry), "retry {retry}");
            assert!(p.backoff(retry) <= p.max_delay + p.max_delay / 2, "cap+jitter bound");
        }
        assert!(p.backoff(1) >= p.base_delay);
        // The un-jittered exponential core doubles until the cap.
        assert!(p.backoff(5) >= p.backoff(1), "later retries wait at least as long");
        let other = RetryPolicy { jitter_seed: 77, ..p };
        assert!(
            (1..10).any(|r| other.backoff(r) != p.backoff(r)),
            "different seeds must jitter differently"
        );
    }

    #[test]
    fn retryability_is_typed() {
        assert!(ClientError::Timeout(Duration::from_secs(1)).is_retryable());
        assert!(ClientError::Io(io::Error::other("reset")).is_retryable());
        assert!(!ClientError::Protocol("bad frame".into()).is_retryable());
    }
}
