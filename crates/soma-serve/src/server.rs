//! The daemon: accept loop, per-connection request handling, and the
//! ledger-backed result cache.
//!
//! One thread accepts connections (nonblocking, polling the stop flag);
//! each connection gets its own handler thread reading one request
//! frame per line. A `submit` either hits the shared [`Ledger`] — the
//! result streams back immediately, bit-identical to the original run,
//! with `cached: true` and zero search work — or passes admission and
//! runs a [`Scheduler`] search right on the connection thread, streaming
//! [`SearchEvent`](soma_search::SearchEvent) progress frames as the
//! engine reports them. Fresh outcomes are appended to the ledger
//! (flushed before the result frame is sent), so the cache grows across
//! requests *and* across daemon restarts.
//!
//! Graceful shutdown: [`ServerHandle::shutdown`] (or SIGINT/SIGTERM via
//! [`crate::shutdown`]) flips a flag that the accept loop and every
//! connection loop poll between frames. In-flight searches run to
//! completion and their rows are flushed; new submits are refused with
//! `shutting-down`.

use std::io::{self, BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use soma_search::record::ENGINE_VERSION;
use soma_search::{Cancelled, Parallelism, Scheduler, SearchConfig, SearchOutcome};
use soma_spec::fault::{self, Fault, FaultPlan};
use soma_spec::ledger::{cell_key, Ledger, LedgerRow};
use soma_spec::registry;
use soma_spec::{inline_scenario_id, read_hardware, read_network, ExperimentCell, SchedulerKind};

use crate::admission::{estimate_evals, Admission};
use crate::net::{Listen, Listener, Stream};
use crate::protocol::{
    parse_line, to_line, RejectReason, Request, Response, StatsSnapshot, SubmitRequest, Target,
};
use crate::{shutdown, PROTOCOL_VERSION};

/// How often blocked accepts/reads re-check the stop flag.
const POLL: Duration = Duration::from_millis(25);

/// Everything a daemon needs to start.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Where to listen.
    pub listen: Listen,
    /// The result-cache ledger directory (created on first append;
    /// loaded — including torn-tail repair — at start-up).
    pub ledger_path: PathBuf,
    /// Maximum concurrently running submits; excess is refused with
    /// `queue-full`. Clamped to at least 1.
    pub max_inflight: usize,
    /// Per-request ceiling on *estimated* schedule evaluations
    /// (`0` = unlimited); larger submits are refused with
    /// `budget-exceeded`.
    pub max_evals: u64,
    /// Seed fan-out policy for each search (wall-clock only; results
    /// are bit-identical across policies).
    pub parallelism: Parallelism,
    /// Deterministic fault injection for chaos testing (`--chaos`):
    /// the plan is threaded behind the ledger writer, the frame writer
    /// and the search runner. `None` in production.
    pub faults: Option<Arc<FaultPlan>>,
}

impl ServerConfig {
    /// A config with the documented knob defaults: 8 in-flight submits,
    /// no budget ceiling, automatic seed fan-out, no fault injection.
    pub fn new(listen: Listen, ledger_path: impl Into<PathBuf>) -> Self {
        Self {
            listen,
            ledger_path: ledger_path.into(),
            max_inflight: 8,
            max_evals: 0,
            parallelism: Parallelism::Auto,
            faults: None,
        }
    }
}

/// Shared server state: the cache, admission, counters, stop flag.
struct Shared {
    ledger: Mutex<Ledger>,
    admission: Admission,
    served: AtomicU64,
    cache_hits: AtomicU64,
    cancelled: AtomicU64,
    panics: AtomicU64,
    /// Corrupt rows quarantined when the ledger loaded (fixed at start).
    quarantined: u64,
    /// Fresh results whose ledger append failed.
    append_failed: AtomicU64,
    /// Ledger hits whose payload did not decode (re-searched).
    decode_failed: AtomicU64,
    /// When the daemon started accepting connections — the `uptime_ms`
    /// gauge in stats frames measures from here.
    started: Instant,
    stop: AtomicBool,
    draining: AtomicBool,
    parallelism: Parallelism,
    faults: Option<Arc<FaultPlan>>,
}

impl Shared {
    /// Local shutdown *or* the process-wide signal flag: close loops.
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || shutdown::stop_requested()
    }

    /// Whether new submits are refused (`shutting-down`): draining or
    /// fully stopping. Connections stay open while merely draining.
    fn refusing(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || self.stopping()
    }

    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            inflight: self.admission.inflight() as u64,
            served: self.served.load(Ordering::SeqCst),
            cache_hits: self.cache_hits.load(Ordering::SeqCst),
            rejected: self.admission.rejected(),
            ledger_rows: self.ledger.lock().expect("ledger lock poisoned").len() as u64,
            cancelled: self.cancelled.load(Ordering::SeqCst),
            panics: self.panics.load(Ordering::SeqCst),
            quarantined: self.quarantined,
            append_failed: self.append_failed.load(Ordering::SeqCst),
            decode_failed: self.decode_failed.load(Ordering::SeqCst),
            uptime_ms: self.started.elapsed().as_millis() as u64,
        }
    }
}

/// A running daemon. Dropping the handle shuts the daemon down
/// gracefully (equivalent to [`shutdown`](Self::shutdown)).
pub struct ServerHandle {
    listen: Listen,
    shared: Arc<Shared>,
    health: soma_spec::LedgerHealth,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The resolved listen address (TCP port 0 replaced by the real
    /// port) — what clients should connect to.
    pub fn listen(&self) -> &Listen {
        &self.listen
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// What loading the ledger found and repaired at start-up — callers
    /// (the `serve` binary) surface a warning when it is not clean.
    pub fn ledger_health(&self) -> soma_spec::LedgerHealth {
        self.health
    }

    /// Starts draining without waiting: new submits are refused with
    /// `shutting-down` while connections stay up and in-flight work
    /// finishes. Follow with [`shutdown`](Self::shutdown) (or drop the
    /// handle) to actually stop and join.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Requests a graceful stop and waits for the accept loop and every
    /// connection thread to drain. In-flight searches complete and
    /// their rows are flushed to the ledger before this returns.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Listen::Unix(path) = &self.listen {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Binds the endpoint, loads the ledger and starts the accept loop.
///
/// # Errors
///
/// I/O errors binding the socket or loading a damaged ledger.
pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
    let mut ledger = Ledger::load(&config.ledger_path)?;
    let health = ledger.health();
    if let Some(plan) = &config.faults {
        ledger.inject_faults(Arc::clone(plan));
    }
    let (listener, resolved) = Listener::bind(&config.listen)?;
    listener.set_nonblocking(true)?;

    let shared = Arc::new(Shared {
        ledger: Mutex::new(ledger),
        admission: Admission::new(config.max_inflight, config.max_evals),
        served: AtomicU64::new(0),
        cache_hits: AtomicU64::new(0),
        cancelled: AtomicU64::new(0),
        panics: AtomicU64::new(0),
        quarantined: health.quarantined as u64,
        append_failed: AtomicU64::new(0),
        decode_failed: AtomicU64::new(0),
        started: Instant::now(),
        stop: AtomicBool::new(false),
        draining: AtomicBool::new(false),
        parallelism: config.parallelism,
        faults: config.faults.clone(),
    });

    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::spawn(move || {
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        while !accept_shared.stopping() {
            match listener.accept() {
                Ok(stream) => {
                    let conn_shared = Arc::clone(&accept_shared);
                    connections
                        .push(std::thread::spawn(move || handle_connection(stream, &conn_shared)));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
                // A failed accept (e.g. the socket vanished) ends the
                // loop; connections already open keep draining below.
                Err(_) => break,
            }
            connections.retain(|c| !c.is_finished());
        }
        for c in connections {
            let _ = c.join();
        }
    });

    Ok(ServerHandle { listen: resolved, shared, health, accept_thread: Some(accept_thread) })
}

/// Reads one `\n`-terminated line, polling the stop flag across read
/// timeouts. `Ok(false)` means EOF or stop; partial data read before a
/// timeout stays in `line` and the next poll continues accumulating.
fn read_line_polling(
    reader: &mut BufReader<Stream>,
    line: &mut String,
    shared: &Shared,
) -> io::Result<bool> {
    loop {
        match reader.read_line(line) {
            Ok(0) => return Ok(false),
            Ok(_) => return Ok(true),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.stopping() {
                    return Ok(false);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

fn send(writer: &mut Stream, shared: &Shared, resp: &Response) -> io::Result<()> {
    let line = to_line(&resp.to_json());
    if let Some(Fault::DropConnection) =
        shared.faults.as_ref().and_then(|p| p.next(fault::site::SERVE_SEND))
    {
        // The peer vanishes mid-frame: half the line goes out, then the
        // connection dies. The caller sees an error exactly as it would
        // on a real reset.
        let _ = writer.write_all(&line.as_bytes()[..line.len() / 2]);
        let _ = writer.flush();
        return Err(io::Error::other("injected fault: connection dropped mid-frame"));
    }
    writeln!(writer, "{line}")?;
    writer.flush()
}

fn handle_connection(stream: Stream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(POLL));
    let Ok(clone) = stream.try_clone() else { return };
    let mut reader = BufReader::new(clone);
    let mut writer = stream;
    let mut line = String::new();

    loop {
        line.clear();
        match read_line_polling(&mut reader, &mut line, shared) {
            Ok(true) => {}
            Ok(false) | Err(_) => return,
        }
        if line.trim().is_empty() {
            continue;
        }
        let request = match parse_line(line.trim_end()).and_then(|v| Request::from_json(&v)) {
            Ok(req) => req,
            Err(e) => {
                if send(&mut writer, shared, &Response::Error { detail: e.to_string() }).is_err() {
                    return;
                }
                continue;
            }
        };
        let ok = match request {
            Request::Ping => send(
                &mut writer,
                shared,
                &Response::Pong { engine: ENGINE_VERSION.into(), protocol: PROTOCOL_VERSION },
            ),
            Request::Stats => send(&mut writer, shared, &Response::Stats(shared.snapshot())),
            Request::Submit(submit) => handle_submit(&mut writer, shared, submit),
        };
        if ok.is_err() {
            return;
        }
    }
}

/// Resolves a submit target into an executable cell. Inline networks
/// get a content-addressed scenario id ([`inline_scenario_id`]) so
/// identical inline requests share a ledger row; their batch is part of
/// the network text itself and is recorded as 1.
fn resolve_target(target: &Target) -> Result<ExperimentCell, String> {
    match target {
        Target::Scenario(id) => registry::lookup(id)
            .map(|sc| sc.cell())
            .ok_or_else(|| format!("unknown scenario `{id}`")),
        Target::Inline { network, hardware } => {
            let net = read_network(network).map_err(|e| format!("bad network spec: {e}"))?;
            let hw = match hardware {
                Some(text) => {
                    read_hardware(text).map_err(|e| format!("bad hardware spec: {e}"))?.resolve()
                }
                None => soma_arch::HardwareConfig::edge(),
            };
            Ok(ExperimentCell {
                id: inline_scenario_id(network, &hw),
                workload: net.name().to_string(),
                platform: hw.name.clone(),
                batch: 1,
                net,
                hw,
                scheduler: SchedulerKind::Soma,
            })
        }
    }
}

fn handle_submit(writer: &mut Stream, shared: &Shared, submit: SubmitRequest) -> io::Result<()> {
    // The deadline clock starts at frame receipt, before any work.
    let deadline = submit.deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let reject = |writer: &mut Stream, reason: RejectReason, detail: String| {
        send(writer, shared, &Response::Rejected { id: submit.id.clone(), reason, detail })
    };

    if shared.refusing() {
        return reject(writer, RejectReason::ShuttingDown, "server is draining".into());
    }
    let cell = match resolve_target(&submit.target) {
        Ok(cell) => cell,
        Err(detail) => return reject(writer, RejectReason::BadRequest, detail),
    };

    let mut cfg = SearchConfig::default();
    if let Some(effort) = submit.effort {
        if !(effort.is_finite() && effort > 0.0) {
            return reject(
                writer,
                RejectReason::BadRequest,
                format!("effort must be a positive finite number, got {effort}"),
            );
        }
        cfg.effort = effort;
    }
    let seeds = if submit.seeds.is_empty() { vec![cfg.seed] } else { submit.seeds.clone() };
    let hash = cell_key(&cell, &cfg, &seeds);

    // Warm path: answer straight from the ledger, no admission needed —
    // a cache hit costs no search work. A row whose payload does not
    // decode is counted and searched afresh like a miss; its new row
    // supersedes the damaged one.
    let hit = {
        let ledger = shared.ledger.lock().expect("ledger lock poisoned");
        ledger.lookup(&hash).map(|row| row.outcome().cloned())
    };
    if matches!(hit, Some(None)) {
        shared.decode_failed.fetch_add(1, Ordering::SeqCst);
    }
    if let Some(Some(outcome)) = hit {
        shared.cache_hits.fetch_add(1, Ordering::SeqCst);
        shared.served.fetch_add(1, Ordering::SeqCst);
        send(
            writer,
            shared,
            &Response::Accepted { id: submit.id.clone(), hash: hash.clone(), cached: true },
        )?;
        return send(
            writer,
            shared,
            &Response::Result {
                id: submit.id.clone(),
                hash,
                cached: true,
                outcome: Box::new(outcome),
            },
        );
    }

    // A cache hit beats any deadline (it costs nothing), but a cold
    // search that cannot possibly finish in time is refused up front.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return reject(
            writer,
            RejectReason::DeadlineExceeded,
            format!("deadline of {}ms expired before admission", submit.deadline_ms.unwrap_or(0)),
        );
    }

    // Cold path: pass admission, search, flush, answer.
    let estimate = estimate_evals(&cfg, cell.net.len(), seeds.len());
    let permit = match shared.admission.admit(estimate) {
        Ok(p) => p,
        Err(reason) => {
            let detail = match reason {
                RejectReason::QueueFull => {
                    format!("{} submits already in flight", shared.admission.inflight())
                }
                _ => format!(
                    "estimated {estimate} evaluations exceeds the per-request budget of {}",
                    shared.admission.max_evals()
                ),
            };
            return reject(writer, reason, detail);
        }
    };
    send(
        writer,
        shared,
        &Response::Accepted { id: submit.id.clone(), hash: hash.clone(), cached: false },
    )?;

    // The search is cancelled cooperatively when the deadline lapses or
    // the client disconnects mid-stream — a vanished client releases
    // its permit and its partial work is discarded instead of burning a
    // full search nobody will read. Panics inside the engine (real or
    // injected) are isolated: one poisoned request must not take down
    // the daemon.
    let disconnected = AtomicBool::new(false);
    let probe =
        || disconnected.load(Ordering::SeqCst) || deadline.is_some_and(|d| Instant::now() >= d);
    let search = fault::isolate(shared.faults.as_deref(), fault::site::SERVE_SEARCH, || {
        let mut observer = |ev: &soma_search::SearchEvent| {
            if submit.progress && !disconnected.load(Ordering::SeqCst) {
                let frame = Response::Progress { id: submit.id.clone(), event: ev.clone() };
                if send(writer, shared, &frame).is_err() {
                    disconnected.store(true, Ordering::SeqCst);
                }
            }
        };
        Scheduler::new(&cell.net, &cell.hw)
            .config(cfg.clone())
            .seeds(seeds.iter().copied())
            .parallelism(shared.parallelism)
            .observer(&mut observer)
            .cancel_when(&probe)
            .run_cancellable()
    });
    drop(permit);

    let outcome: SearchOutcome = match search {
        Err(panic) => {
            shared.panics.fetch_add(1, Ordering::SeqCst);
            return send(
                writer,
                shared,
                &Response::Error {
                    detail: format!(
                        "search panicked: {panic} (request {} failed; the daemon survives)",
                        submit.id
                    ),
                },
            );
        }
        Ok(Err(Cancelled)) => {
            shared.cancelled.fetch_add(1, Ordering::SeqCst);
            if disconnected.load(Ordering::SeqCst) {
                // Nobody is listening; close the connection.
                return Err(io::Error::other("client disconnected mid-search"));
            }
            return reject(
                writer,
                RejectReason::DeadlineExceeded,
                format!(
                    "deadline of {}ms expired mid-search; partial work discarded",
                    submit.deadline_ms.unwrap_or(0)
                ),
            );
        }
        Ok(Ok(outcome)) => outcome,
    };

    {
        let mut ledger = shared.ledger.lock().expect("ledger lock poisoned");
        // Two concurrent submits of the same request both search (the
        // outcomes are bit-identical); only the first appends, keeping
        // the ledger one-row-per-key like the lab orchestrator — unless
        // the row found does not decode, which the new row supersedes.
        // A failed append (real or injected) is not fatal to the
        // client: the outcome is correct either way, the cache just
        // won't have it until someone recomputes — and the next load
        // repairs any torn tail the failure left behind.
        if ledger.lookup(&hash).and_then(LedgerRow::outcome).is_none()
            && ledger.append(LedgerRow::new(&cell, &hash, outcome.clone())).is_err()
        {
            shared.append_failed.fetch_add(1, Ordering::SeqCst);
        }
    }
    shared.served.fetch_add(1, Ordering::SeqCst);
    send(
        writer,
        shared,
        &Response::Result {
            id: submit.id.clone(),
            hash,
            cached: false,
            outcome: Box::new(outcome),
        },
    )
}
