//! End-to-end tests of the serve daemon over real sockets: concurrent
//! submits, streamed progress, the ledger-backed warm path, typed
//! rejects and their count, inline specs, and graceful shutdown.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use soma_model::zoo;
use soma_search::record::{outcome_to_bytes, ENGINE_VERSION};
use soma_search::{SearchConfig, SearchEvent};
use soma_serve::{
    estimate_evals, start, Client, Listen, RejectReason, ServerConfig, SubmitRequest, Target,
    PROTOCOL_VERSION,
};
use soma_spec::ledger::Ledger;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("soma-serve-e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{}-{name}", std::process::id()))
}

/// A ledger directory path with nothing at it yet.
fn fresh_ledger(name: &str) -> PathBuf {
    let path = tmp(&format!("{name}.ledger"));
    let _ = std::fs::remove_dir_all(&path);
    path
}

fn unix_listen(name: &str) -> Listen {
    Listen::Unix(tmp(&format!("{name}.sock")))
}

fn quick(id: &str, scenario: &str, seed: u64) -> SubmitRequest {
    SubmitRequest {
        id: id.into(),
        target: Target::Scenario(scenario.into()),
        seeds: vec![seed],
        effort: Some(0.01),
        progress: true,
        deadline_ms: None,
    }
}

#[test]
fn eight_concurrent_submits_then_bit_identical_cache_hits() {
    let ledger_path = fresh_ledger("concurrent");
    let handle = start(ServerConfig {
        max_inflight: 8,
        ..ServerConfig::new(unix_listen("concurrent"), &ledger_path)
    })
    .unwrap();
    let listen = handle.listen().clone();

    // Eight clients, eight connections, eight distinct cold requests —
    // all in flight together.
    let workers: Vec<_> = (0..8u64)
        .map(|i| {
            let listen = listen.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&listen).unwrap();
                client.submit(quick(&format!("req-{i}"), "fig2@edge/b1", 100 + i)).unwrap()
            })
        })
        .collect();
    let cold: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    for (i, sub) in cold.iter().enumerate() {
        assert!(sub.succeeded(), "request {i} failed: {:?}", sub.rejection);
        assert!(!sub.cached, "first submission of seed {i} cannot be cached");
        assert!(!sub.progress.is_empty(), "cold request {i} must stream progress frames, got none");
        assert!(
            sub.progress.iter().any(|e| matches!(e, SearchEvent::RoundStarted { .. })),
            "request {i} progress must include round starts"
        );
        assert!(
            sub.progress.iter().any(|e| matches!(e, SearchEvent::BudgetExhausted { .. })),
            "request {i} progress must end with the budget summary"
        );
    }

    // Repeat one of them verbatim: served from the ledger, flagged
    // cached, zero search work (no progress frames), and the outcome is
    // bit-identical to the cold run's.
    let mut client = Client::connect(&listen).unwrap();
    let warm = client.submit(quick("again", "fig2@edge/b1", 103)).unwrap();
    assert!(warm.cached, "repeat request must be served from the ledger");
    assert!(warm.progress.is_empty(), "a cache hit does no search work");
    assert_eq!(warm.hash, cold[3].hash, "same request, same cell key");
    assert_eq!(
        outcome_to_bytes(warm.outcome.as_ref().unwrap()),
        outcome_to_bytes(cold[3].outcome.as_ref().unwrap()),
        "cached outcome is bit-identical"
    );

    let stats = handle.stats();
    assert_eq!(stats.served, 9);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.ledger_rows, 8);
    assert_eq!(stats.inflight, 0, "all submits have released their permits");
    assert!(stats.uptime_ms > 0, "uptime gauge must tick (9 searches ran)");
    // The same gauges over the wire: the stats frame a monitoring
    // client sees carries them too.
    let wire = client.stats().unwrap();
    assert_eq!(wire.inflight, 0);
    assert!(wire.uptime_ms >= stats.uptime_ms, "uptime is monotonic across polls");
    handle.shutdown();

    // The cache survived on disk, one clean row per distinct request.
    assert_eq!(Ledger::load(&ledger_path).unwrap().len(), 8);
}

#[test]
fn ping_reports_engine_and_protocol_versions() {
    let ledger_path = fresh_ledger("ping");
    let handle = start(ServerConfig::new(Listen::Tcp("127.0.0.1:0".into()), &ledger_path)).unwrap();
    let mut client = Client::connect(handle.listen()).unwrap();
    let (engine, protocol) = client.ping().unwrap();
    assert_eq!(engine, ENGINE_VERSION);
    assert_eq!(protocol, PROTOCOL_VERSION);
    handle.shutdown();
}

/// A cached hit over loopback TCP is a fraction of a millisecond of
/// work. A frame that leaves in two writes, or a socket with Nagle's
/// algorithm on, stalls on the peer's delayed ACK (about 40 ms, twice
/// per request), which the 20 ms bound on the median catches.
#[test]
fn tcp_cache_hits_answer_without_delayed_ack_stalls() {
    let ledger_path = fresh_ledger("tcp-hits");
    let handle = start(ServerConfig::new(Listen::Tcp("127.0.0.1:0".into()), &ledger_path)).unwrap();
    let mut client = Client::connect(handle.listen()).unwrap();
    let cold = client.submit(quick("miss", "fig2@edge/b1", 1)).unwrap();
    assert!(cold.succeeded() && !cold.cached, "{:?}", cold.rejection);

    let mut times: Vec<Duration> = (0..10)
        .map(|i| {
            let t = Instant::now();
            let warm = client.submit(quick(&format!("hit-{i}"), "fig2@edge/b1", 1)).unwrap();
            assert!(warm.cached, "repeat {i} must be served from the ledger");
            t.elapsed()
        })
        .collect();
    times.sort();
    let median = times[times.len() / 2];
    assert!(median < Duration::from_millis(20), "median TCP hit {median:?}: {times:?}");
    handle.shutdown();
}

/// A connection is accepted as it arrives, not when the accept loop
/// next wakes: on an idle daemon (30 ms between connections), the
/// median time from connect to `pong` stays under 5 ms. A stop still
/// ends the daemon promptly: `shutdown` returns within a second with no
/// connection open, and with an idle one open.
#[test]
fn connections_are_accepted_on_arrival_and_stops_stay_prompt() {
    let handle = start(ServerConfig::new(unix_listen("arrival"), fresh_ledger("arrival"))).unwrap();
    let mut times: Vec<Duration> = (0..10)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(30));
            let t = Instant::now();
            let mut client = Client::connect(handle.listen()).unwrap();
            client.ping().unwrap();
            t.elapsed()
        })
        .collect();
    times.sort();
    let median = (times[4] + times[5]) / 2;
    assert!(median < Duration::from_millis(5), "median connect-to-pong {median:?}: {times:?}");
    let t = Instant::now();
    handle.shutdown();
    assert!(t.elapsed() < Duration::from_secs(1), "idle shutdown took {:?}", t.elapsed());

    let handle =
        start(ServerConfig::new(unix_listen("arrival-idle"), fresh_ledger("arrival-idle")))
            .unwrap();
    let mut idle = Client::connect(handle.listen()).unwrap();
    idle.ping().unwrap();
    let t = Instant::now();
    handle.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(1),
        "shutdown with an idle connection took {:?}",
        t.elapsed()
    );
}

#[test]
fn oversized_requests_get_a_typed_budget_reject() {
    let ledger_path = fresh_ledger("budget");
    let handle = start(ServerConfig {
        max_evals: 1,
        ..ServerConfig::new(unix_listen("budget"), &ledger_path)
    })
    .unwrap();
    let mut client = Client::connect(handle.listen()).unwrap();
    let sub = client.submit(quick("big", "fig2@edge/b1", 1)).unwrap();
    assert!(!sub.succeeded());
    let (reason, detail) = sub.rejection.expect("must be rejected");
    assert_eq!(reason, RejectReason::BudgetExceeded);
    assert!(detail.contains("per-request budget of 1"), "{detail}");
    handle.shutdown();
}

#[test]
fn saturated_server_refuses_with_queue_full() {
    let ledger_path = fresh_ledger("queue");
    let handle = start(ServerConfig {
        max_inflight: 1,
        ..ServerConfig::new(unix_listen("queue"), &ledger_path)
    })
    .unwrap();
    let listen = handle.listen().clone();

    // Occupy the single slot with a deliberately heavyweight search...
    let occupant = {
        let listen = listen.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&listen).unwrap();
            let req = SubmitRequest { effort: Some(1.0), ..quick("slow", "fig2@edge/b1", 7) };
            client.submit(req).unwrap()
        })
    };
    // ...wait until the server confirms it is running (stats flow on
    // their own connection, independent of the busy slot)...
    let mut probe = Client::connect(&listen).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while probe.stats().unwrap().inflight == 0 {
        assert!(Instant::now() < deadline, "occupant search never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    // ...then a second distinct submit must bounce, typed.
    let mut client = Client::connect(&listen).unwrap();
    let sub = client.submit(quick("bounced", "fig2@edge/b1", 8)).unwrap();
    let (reason, detail) = sub.rejection.expect("must be rejected while saturated");
    assert_eq!(reason, RejectReason::QueueFull);
    assert!(detail.contains("in flight"), "{detail}");

    assert!(occupant.join().unwrap().succeeded());
    handle.shutdown();
}

/// `stats.rejected` counts every `rejected` frame, whatever its reason:
/// a queue-full, an over-budget and a bad request, and a submit while
/// draining are four.
#[test]
fn stats_count_every_rejected_frame() {
    // One slot, and a budget that admits the occupant's search but not
    // the same search over two seeds.
    let occupant_cfg = SearchConfig { effort: 1.0, ..SearchConfig::default() };
    let budget = estimate_evals(&occupant_cfg, zoo::fig2(1).len(), 1);
    let ledger_path = fresh_ledger("rejects");
    let handle = start(ServerConfig {
        max_inflight: 1,
        max_evals: budget,
        ..ServerConfig::new(unix_listen("rejects"), &ledger_path)
    })
    .unwrap();
    let listen = handle.listen().clone();
    let occupant = {
        let listen = listen.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&listen).unwrap();
            let req = SubmitRequest { effort: Some(1.0), ..quick("slow", "fig2@edge/b1", 7) };
            client.submit(req).unwrap()
        })
    };
    let mut client = Client::connect(&listen).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while client.stats().unwrap().inflight == 0 {
        assert!(Instant::now() < deadline, "occupant search never started");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut reject = |req: SubmitRequest| client.submit(req).unwrap().rejection.unwrap().0;
    assert_eq!(reject(quick("bounced", "fig2@edge/b1", 8)), RejectReason::QueueFull);
    let big =
        SubmitRequest { effort: Some(1.0), seeds: vec![1, 2], ..quick("big", "fig2@edge/b1", 1) };
    assert_eq!(reject(big), RejectReason::BudgetExceeded);
    assert_eq!(reject(quick("nope", "made-up@edge/b1", 1)), RejectReason::BadRequest);
    assert!(occupant.join().unwrap().succeeded());
    handle.drain();
    assert_eq!(reject(quick("late", "fig2@edge/b1", 9)), RejectReason::ShuttingDown);

    assert_eq!(handle.stats().rejected, 4);
    handle.shutdown();
}

#[test]
fn inline_network_specs_schedule_and_cache() {
    let network = "soma-network v1\nname inline-demo\nprecision 1\n\
                   input x 1x3x32x32\nconv stem from x cout=8 k=3x3 stride=2\n\
                   vector act relu from stem\noutput act\nend\n";
    let hardware = "soma-hardware v1\npreset edge\nbuffer_mib 2\nend\n";
    let req = |id: &str| SubmitRequest {
        id: id.into(),
        target: Target::Inline { network: network.into(), hardware: Some(hardware.into()) },
        seeds: vec![5],
        effort: Some(0.01),
        progress: true,
        deadline_ms: None,
    };

    let ledger_path = fresh_ledger("inline");
    let handle = start(ServerConfig::new(unix_listen("inline"), &ledger_path)).unwrap();
    let mut client = Client::connect(handle.listen()).unwrap();

    let cold = client.submit(req("c")).unwrap();
    assert!(cold.succeeded(), "{:?}", cold.rejection);
    assert!(!cold.cached);
    let warm = client.submit(req("w")).unwrap();
    assert!(warm.cached, "identical inline request must hit the ledger");
    assert_eq!(warm.hash, cold.hash);

    // The inline row is keyed by a content-addressed scenario id.
    handle.shutdown();
    let ledger = Ledger::load(&ledger_path).unwrap();
    assert_eq!(ledger.len(), 1);
    assert!(ledger.rows()[0].cell.starts_with("inline-"), "{}", ledger.rows()[0].cell);
}

#[test]
fn bad_requests_and_bad_frames_are_typed_not_fatal() {
    let ledger_path = fresh_ledger("bad");
    let handle = start(ServerConfig::new(Listen::Tcp("127.0.0.1:0".into()), &ledger_path)).unwrap();

    // An unknown scenario is a typed bad-request reject.
    let mut client = Client::connect(handle.listen()).unwrap();
    let sub = client.submit(quick("nope", "made-up@edge/b1", 1)).unwrap();
    let (reason, detail) = sub.rejection.expect("must be rejected");
    assert_eq!(reason, RejectReason::BadRequest);
    assert!(detail.contains("made-up@edge/b1"), "{detail}");

    // Garbage on the wire gets an error frame, and the connection (and
    // server) survive to serve the next well-formed request.
    use std::io::{BufRead, BufReader, Write};
    let Listen::Tcp(addr) = handle.listen() else { unreachable!() };
    let mut raw = std::net::TcpStream::connect(addr.as_str()).unwrap();
    let mut lines = BufReader::new(raw.try_clone().unwrap());
    writeln!(raw, "this is not json").unwrap();
    let mut reply = String::new();
    lines.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"type\":\"error\""), "{reply}");
    writeln!(raw, "{{\"v\":1,\"type\":\"ping\"}}").unwrap();
    reply.clear();
    lines.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"type\":\"pong\""), "{reply}");
    handle.shutdown();
}

#[test]
fn shutdown_drains_and_the_ledger_replays_across_restarts() {
    let ledger_path = fresh_ledger("restart");

    // First daemon: one cold request, then a graceful stop.
    let handle = start(ServerConfig::new(unix_listen("restart-a"), &ledger_path)).unwrap();
    let mut client = Client::connect(handle.listen()).unwrap();
    let cold = client.submit(quick("r", "fig4@edge/b1", 11)).unwrap();
    assert!(cold.succeeded());
    handle.shutdown();

    // The flushed ledger loads clean...
    assert_eq!(Ledger::load(&ledger_path).unwrap().len(), 1);

    // ...and a second daemon serves the same request from it, warm and
    // bit-identical, without re-searching.
    let handle = start(ServerConfig::new(unix_listen("restart-b"), &ledger_path)).unwrap();
    let mut client = Client::connect(handle.listen()).unwrap();
    let warm = client.submit(quick("r2", "fig4@edge/b1", 11)).unwrap();
    assert!(warm.cached, "restarted daemon must serve from the persisted cache");
    assert_eq!(
        outcome_to_bytes(warm.outcome.as_ref().unwrap()),
        outcome_to_bytes(cold.outcome.as_ref().unwrap()),
    );
    handle.shutdown();
}

#[test]
fn draining_server_rejects_new_submits_as_shutting_down() {
    let ledger_path = fresh_ledger("draining");
    let handle = start(ServerConfig::new(unix_listen("draining"), &ledger_path)).unwrap();
    let listen = handle.listen().clone();
    // Connect first, then start draining: the established connection
    // stays up, but its next submit must bounce with `shutting-down`.
    let mut client = Client::connect(&listen).unwrap();
    handle.drain();
    let sub = client.submit(quick("late", "fig2@edge/b1", 99)).unwrap();
    let (reason, _) = sub.rejection.expect("must be rejected while draining");
    assert_eq!(reason, RejectReason::ShuttingDown);
    handle.shutdown();
}
