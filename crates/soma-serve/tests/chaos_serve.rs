//! Chaos suite for the serve daemon: injected connection drops, search
//! panics, failed ledger appends, deadlines, client disconnects,
//! pre-corrupted ledgers and payloads damaged behind a synced index —
//! every failure must be **typed, counted, isolated, and recoverable by
//! a retrying client**, and results must stay bit-identical to a
//! fault-free daemon's.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use soma_search::outcome_to_bytes;
use soma_serve::{
    start, Client, ClientError, Listen, RejectReason, RetryPolicy, ServerConfig, SubmitRequest,
    Target,
};
use soma_spec::fault::{site, Fault, FaultConfig, FaultPlan};
use soma_spec::ledger::Ledger;
use soma_spec::quarantine_path;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("soma-chaos-serve");
    fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{}-{name}", std::process::id()))
}

/// The one shard file a single-row ledger writes to.
fn only_shard(ledger: &std::path::Path) -> PathBuf {
    let hash = Ledger::load_readonly(ledger).unwrap().rows()[0].hash.clone();
    ledger.join(format!("shard-{}.bin", &hash[..1]))
}

fn unix_listen(name: &str) -> Listen {
    Listen::Unix(tmp(&format!("{name}.sock")))
}

fn quick(id: &str, seed: u64, deadline_ms: Option<u64>) -> SubmitRequest {
    SubmitRequest {
        id: id.into(),
        target: Target::Scenario("fig4@edge/b1".into()),
        seeds: vec![seed],
        effort: Some(0.01),
        progress: false,
        deadline_ms,
    }
}

fn server(name: &str, faults: Option<Arc<FaultPlan>>) -> (soma_serve::ServerHandle, PathBuf) {
    let ledger = tmp(&format!("{name}.ledger"));
    let _ = fs::remove_dir_all(&ledger);
    let handle = start(ServerConfig { faults, ..ServerConfig::new(unix_listen(name), &ledger) })
        .expect("daemon starts");
    (handle, ledger)
}

#[test]
fn deadline_expiring_mid_search_is_a_typed_reject_and_counted() {
    // A scripted stall makes the first search outlive its deadline
    // deterministically; the second invocation is fault-free.
    let plan =
        Arc::new(FaultPlan::scripted([(site::SERVE_SEARCH, 0, Fault::Slow { millis: 400 })]));
    let (handle, _ledger) = server("deadline-mid", Some(plan));
    let mut client = Client::connect(handle.listen()).unwrap();

    let sub = client.submit(quick("slow", 1, Some(50))).unwrap();
    let (reason, detail) = sub.rejection.expect("must be rejected");
    assert_eq!(reason, RejectReason::DeadlineExceeded);
    assert!(detail.contains("expired mid-search"), "{detail}");
    assert!(sub.outcome.is_none());

    let stats = handle.stats();
    assert_eq!(stats.cancelled, 1, "a mid-search deadline counts as a cancellation");
    assert_eq!(stats.served, 0);
    assert_eq!(stats.ledger_rows, 0, "partial work is discarded, never cached");

    // Same request, no deadline: the retry succeeds on the same daemon.
    let again = client.submit(quick("retry", 1, None)).unwrap();
    assert!(again.succeeded(), "{:?}", again.rejection);
    handle.shutdown();
}

#[test]
fn cache_hits_beat_any_deadline_but_cold_zero_deadlines_are_refused_up_front() {
    let (handle, _ledger) = server("deadline-zero", None);
    let mut client = Client::connect(handle.listen()).unwrap();

    // Cold + already-expired deadline: refused before admission, and
    // that is a refusal, not a mid-flight cancellation.
    let sub = client.submit(quick("cold", 2, Some(0))).unwrap();
    let (reason, detail) = sub.rejection.expect("must be rejected");
    assert_eq!(reason, RejectReason::DeadlineExceeded);
    assert!(detail.contains("before admission"), "{detail}");
    assert_eq!(handle.stats().cancelled, 0);

    // Prime the cache, then repeat with the same impossible deadline:
    // the warm path answers anyway — a hit costs nothing.
    let cold = client.submit(quick("prime", 2, None)).unwrap();
    assert!(cold.succeeded());
    let warm = client.submit(quick("warm", 2, Some(0))).unwrap();
    assert!(warm.cached, "a cache hit beats any deadline");
    assert_eq!(
        outcome_to_bytes(warm.outcome.as_ref().unwrap()),
        outcome_to_bytes(cold.outcome.as_ref().unwrap()),
    );
    handle.shutdown();
}

#[test]
fn injected_search_panic_is_isolated_counted_and_the_daemon_survives() {
    let plan = Arc::new(FaultPlan::scripted([(site::SERVE_SEARCH, 0, Fault::Panic)]));
    let (handle, _ledger) = server("panic", Some(plan));
    let mut client = Client::connect(handle.listen()).unwrap();

    let err = client.submit(quick("doomed", 3, None)).unwrap_err();
    let ClientError::Protocol(detail) = &err else { panic!("want protocol error, got {err:?}") };
    assert!(detail.contains("search panicked"), "{detail}");
    assert!(detail.contains("the daemon survives"), "{detail}");

    // The same connection keeps working, the panic was counted, and the
    // retried request completes.
    let retry = client.submit(quick("retry", 3, None)).unwrap();
    assert!(retry.succeeded(), "{:?}", retry.rejection);
    let stats = handle.stats();
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.served, 1);
    handle.shutdown();
}

#[test]
fn a_failed_ledger_append_still_answers_the_client_and_is_counted() {
    // The first append fails outright; every later one is clean.
    let plan = Arc::new(FaultPlan::scripted([(site::LEDGER_APPEND, 0, Fault::FsyncError)]));
    let (handle, _ledger) = server("append-failed", Some(plan));
    let mut client = Client::connect(handle.listen()).unwrap();

    let first = client.submit(quick("unlucky", 5, None)).unwrap();
    assert!(first.succeeded(), "{:?}", first.rejection);
    assert!(!first.cached);
    let stats = handle.stats();
    assert_eq!(stats.append_failed, 1);
    assert_eq!(stats.served, 1);
    assert_eq!(stats.ledger_rows, 0, "a failed append caches nothing");

    // The same request recomputes the same outcome and caches it.
    let again = client.submit(quick("again", 5, None)).unwrap();
    assert!(!again.cached);
    assert_eq!(
        outcome_to_bytes(again.outcome.as_ref().unwrap()),
        outcome_to_bytes(first.outcome.as_ref().unwrap()),
    );
    let warm = client.submit(quick("warm", 5, None)).unwrap();
    assert!(warm.cached);
    let stats = handle.stats();
    assert_eq!((stats.append_failed, stats.ledger_rows), (1, 1));
    handle.shutdown();
}

#[test]
fn dropped_connections_are_survivable_by_the_retrying_client_bit_identically() {
    // Reference daemon: no faults.
    let (clean, _clean_ledger) = server("drop-ref", None);
    let mut reference = Client::connect(clean.listen()).unwrap();

    // Chaos daemon: one third of response frames tear the connection.
    let cfg = FaultConfig { drop_connection: 333, ..FaultConfig::NONE };
    let plan = Arc::new(FaultPlan::seeded(9, cfg));
    let (handle, _ledger) = server("drop", Some(Arc::clone(&plan)));
    // Quick, but persistent enough to ride out the dropped frames.
    let policy = RetryPolicy {
        attempts: 8,
        base_delay: Duration::from_millis(25),
        max_delay: Duration::from_millis(400),
        ..RetryPolicy::default()
    };

    for seed in 0..6u64 {
        let req = quick(&format!("req-{seed}"), 100 + seed, None);
        let sub = policy.submit(handle.listen(), &req).expect("retries ride out drops");
        assert!(sub.succeeded(), "seed {seed}: {:?}", sub.rejection);
        let want = reference.submit(quick("ref", 100 + seed, None)).unwrap();
        assert_eq!(
            outcome_to_bytes(sub.outcome.as_ref().unwrap()),
            outcome_to_bytes(want.outcome.as_ref().unwrap()),
            "seed {seed} drifted across injected drops"
        );
    }
    assert!(plan.injected() > 0, "the storm never actually dropped a connection");
    handle.shutdown();
    clean.shutdown();
}

#[test]
fn a_dead_daemon_surfaces_as_a_typed_timeout_not_a_hang() {
    // A listener that accepts but never answers.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();

    let mut client = Client::connect(&Listen::Tcp(addr)).unwrap();
    client.set_timeout(Some(Duration::from_millis(120))).unwrap();
    let t = Instant::now();
    let err = client.ping().unwrap_err();
    assert!(matches!(err, ClientError::Timeout(_)), "got {err:?}");
    assert!(err.is_retryable());
    assert!(t.elapsed() < Duration::from_secs(10), "timeout must not hang");
    drop(listener);
}

#[test]
fn corrupt_ledgers_are_quarantined_at_startup_and_the_survivors_replay() {
    // Daemon A writes one good row.
    let (handle, ledger_path) = server("quarantine", None);
    let mut client = Client::connect(handle.listen()).unwrap();
    let cold = client.submit(quick("cold", 4, None)).unwrap();
    assert!(cold.succeeded());
    handle.shutdown();

    // Corruption lands while the daemon is down: garbage after the good
    // frame plus a torn partial frame at the tail (the
    // SIGKILL-mid-append signature).
    let shard = only_shard(&ledger_path);
    let good = fs::read(&shard).unwrap();
    let mut damaged = good.clone();
    damaged.extend_from_slice(b"this is not a ledger row\n");
    damaged.extend_from_slice(&good[8..8 + (good.len() - 8) / 3]);
    fs::write(&shard, &damaged).unwrap();

    // Daemon B: repairs on load, reports it, and still serves the
    // surviving row warm and bit-identical.
    let handle = start(ServerConfig::new(unix_listen("quarantine-b"), &ledger_path)).unwrap();
    let health = handle.ledger_health();
    assert_eq!(health.quarantined, 1);
    assert!(health.truncated);
    assert_eq!(health.kept, 1);
    let stats = handle.stats();
    assert_eq!(stats.quarantined, 1);
    assert_eq!(stats.ledger_rows, 1);

    let mut client = Client::connect(handle.listen()).unwrap();
    let warm = client.submit(quick("warm", 4, None)).unwrap();
    assert!(warm.cached, "the surviving row must replay from cache");
    assert_eq!(
        outcome_to_bytes(warm.outcome.as_ref().unwrap()),
        outcome_to_bytes(cold.outcome.as_ref().unwrap()),
    );
    handle.shutdown();

    // The quarantined bytes are preserved for the post-mortem, and the
    // shard is back to its one good frame.
    let q = fs::read_to_string(quarantine_path(&ledger_path)).unwrap();
    let hex: String = b"not a ledger row".iter().map(|b| format!("{b:02x}")).collect();
    assert!(q.contains(&hex), "{q}");
    assert_eq!(fs::read(&shard).unwrap(), good);
    let _ = fs::remove_dir_all(&ledger_path);
}

#[test]
fn an_undecodable_hit_is_re_searched_counted_and_cached_again() {
    // Daemon A caches one row; daemon B's start-up load finds no index
    // and writes one (serve itself never syncs the index), so from then
    // on loads trust the index and never read the frame.
    let (handle, ledger_path) = server("undecodable", None);
    let mut client = Client::connect(handle.listen()).unwrap();
    let cold = client.submit(quick("cold", 6, None)).unwrap();
    assert!(cold.succeeded() && !cold.cached);
    handle.shutdown();
    start(ServerConfig::new(unix_listen("undecodable-b"), &ledger_path)).unwrap().shutdown();
    assert!(ledger_path.join("index.bin").exists(), "a repairing load wrote the index");

    // Flip one byte of the row's outcome payload (the frame's tail).
    let shard = only_shard(&ledger_path);
    let mut bytes = fs::read(&shard).unwrap();
    let at = bytes.len() - 10;
    bytes[at] ^= 0x01;
    fs::write(&shard, &bytes).unwrap();

    // Daemon C: the load is clean (the index vouches for the frame), the
    // hit does not decode — counted, searched afresh, and re-cached.
    let handle = start(ServerConfig::new(unix_listen("undecodable-c"), &ledger_path)).unwrap();
    assert!(handle.ledger_health().is_clean());
    let mut client = Client::connect(handle.listen()).unwrap();
    let again = client.submit(quick("again", 6, None)).unwrap();
    assert!(again.succeeded(), "{:?}", again.rejection);
    assert!(!again.cached, "a payload that does not decode is never a hit");
    assert_eq!(
        outcome_to_bytes(again.outcome.as_ref().unwrap()),
        outcome_to_bytes(cold.outcome.as_ref().unwrap()),
    );
    let stats = handle.stats();
    assert_eq!((stats.decode_failed, stats.ledger_rows), (1, 2), "superseding row appended");

    let warm = client.submit(quick("warm", 6, None)).unwrap();
    assert!(warm.cached, "the superseding row serves the next request");
    assert_eq!(handle.stats().decode_failed, 1);
    handle.shutdown();
    let _ = fs::remove_dir_all(&ledger_path);
}

#[test]
fn a_client_vanishing_mid_stream_cancels_the_search_and_caches_nothing() {
    let (handle, ledger_path) = server("vanish", None);

    // Submit a long search with progress streaming, then vanish.
    let mut client = Client::connect(handle.listen()).unwrap();
    let req = SubmitRequest {
        id: "ghost".into(),
        target: Target::Scenario("fig2@edge/b1".into()),
        seeds: vec![7],
        effort: Some(0.5),
        progress: true,
        deadline_ms: None,
    };
    client.send(&soma_serve::Request::Submit(req)).unwrap();
    // Wait until the search is admitted (the `accepted` frame), then
    // vanish: the daemon's next progress frame hits a dead socket.
    let accepted = client.recv().unwrap();
    assert!(matches!(accepted, soma_serve::Response::Accepted { .. }), "{accepted:?}");
    drop(client);

    let mut probe = Client::connect(handle.listen()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = probe.stats().unwrap();
        if stats.cancelled >= 1 {
            assert_eq!(stats.ledger_rows, 0, "partial work must not be cached");
            assert_eq!(stats.served, 0);
            assert_eq!(stats.inflight, 0, "the permit must be released");
            break;
        }
        assert!(Instant::now() < deadline, "disconnect was never noticed");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
    assert!(
        Ledger::load_readonly(&ledger_path).unwrap().is_empty(),
        "discarded search must leave no ledger row"
    );
}
