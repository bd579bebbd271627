//! Integration wall for ledger format v3: **observers never write,
//! resume work is O(cells-missing), and migration is lossless.**
//!
//! Three walls:
//!
//! * the **concurrent-observer pin**: a writer thread appends to a
//!   binary ledger while a follow-style observer reloads it read-only
//!   in a loop. Every shard file must only ever *grow* — each
//!   observation is a byte-prefix of the next — and no index sidecar
//!   may appear, because the only process that could have written one
//!   is the observer. This is the regression test for the live
//!   corruption hazard where `watch --follow` used a repairing load
//!   against a campaign mid-append;
//! * the **100k-cell resume pin**: an interrupted synthetic campaign is
//!   resumed against its index sidecar, and the resume probe — lookup
//!   plus meta fields for every one of 100 000 cells — must decode
//!   exactly **zero** outcome payloads. Payload work is proportional to
//!   the cells actually searched, never to campaign size;
//! * the **migration round trip** (proptest): v2 JSONL text -> `migrate`
//!   -> `dump` is a byte identity for any synthetic campaign, so moving
//!   an old ledger onto the binary store can never lose or reorder a
//!   row, and the JSON view reproduces what the JSONL writer wrote;
//! * the **index-or-scan pin**: in every state an index can be in
//!   (synced, stale behind appended tails, missing, failing its
//!   checksum, or behind a damaged shard), an index-backed load and a
//!   load of the same shards without `index.bin` see the same ledger —
//!   so trusting the index is only ever a shortcut.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use soma_search::record::outcome_to_bytes;
use soma_search::synthetic_outcome;
use soma_spec::ledger::{Ledger, LedgerRow, SHARDS};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("soma-ledger-v3");
    fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{}-{name}", std::process::id()))
}

fn wipe(path: &Path) {
    if path.is_dir() {
        let _ = fs::remove_dir_all(path);
    } else {
        let _ = fs::remove_file(path);
    }
}

/// A synthetic row whose 16-hex hash spreads across all shards.
fn synth_row(i: u64) -> LedgerRow {
    let hash = format!("{:016x}", i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    LedgerRow::from_parts(&hash, &format!("cell-{i}"), "wl", "edge", 1, synthetic_outcome(i, 4))
}

/// Every byte of every shard file, keyed by shard number. Missing
/// shards read as empty.
fn shard_bytes(dir: &Path) -> Vec<Vec<u8>> {
    (0..SHARDS)
        .map(|s| fs::read(dir.join(format!("shard-{s:x}.bin"))).unwrap_or_default())
        .collect()
}

/// The headline regression test: a follow-style observer reloading a
/// live ledger must never mutate its bytes — not by torn-tail repair,
/// not by compaction, not by index writes.
#[test]
fn readonly_observers_never_mutate_a_live_ledger() {
    let dir = tmp("observer.ledger");
    wipe(&dir);
    let done = Arc::new(AtomicBool::new(false));
    let writer_done = Arc::clone(&done);
    let writer_dir = dir.clone();
    let writer = std::thread::spawn(move || {
        let mut ledger = Ledger::load(&writer_dir).expect("writer load");
        for i in 0..200u64 {
            ledger.append(synth_row(i)).expect("append");
            if i % 16 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        writer_done.store(true, Ordering::Release);
    });

    let index = dir.join("index.bin");
    let mut last = vec![Vec::new(); SHARDS];
    let mut last_len = 0usize;
    let mut observations = 0u32;
    while !done.load(Ordering::Acquire) || observations == 0 {
        // Snapshot, observe, snapshot again: whatever the load did to
        // the files must be indistinguishable from "nothing" — the only
        // legal byte change between observations is the writer's
        // append-only growth, so every earlier snapshot must be a
        // prefix of every later one.
        let ledger = Ledger::load_readonly(&dir).expect("observer load");
        assert!(ledger.readonly(), "observer loads are marked read-only");
        let now = shard_bytes(&dir);
        for (s, (prev, cur)) in last.iter().zip(&now).enumerate() {
            assert!(
                cur.len() >= prev.len() && &cur[..prev.len()] == prev.as_slice(),
                "shard {s:x} was rewritten under an observer (prefix property broken)"
            );
        }
        assert!(
            !index.exists(),
            "an index sidecar appeared, and only the observer could have written it"
        );
        assert!(ledger.len() >= last_len, "an observer saw rows disappear");
        last = now;
        last_len = ledger.len();
        observations += 1;
    }
    writer.join().expect("writer thread");

    // The final observation sees the complete campaign, still without
    // ever having repaired or indexed anything.
    let ledger = Ledger::load_readonly(&dir).expect("final observer load");
    assert_eq!(ledger.len(), 200);
    assert!(ledger.health().is_clean());
    assert!(!index.exists());
    assert!(observations > 1, "the observer raced the writer at least twice");

    // A torn tail mid-append must also survive observation untouched:
    // damage the last shard byte-for-byte like a crashed writer would,
    // then prove the observer tolerates it in memory only.
    let shard = dir.join("shard-0.bin");
    let mut bytes = fs::read(&shard).expect("shard bytes");
    bytes.extend_from_slice(b"FRM3\xff\xff\xff\x7f");
    fs::write(&shard, &bytes).expect("tear the tail");
    let ledger = Ledger::load_readonly(&dir).expect("observer load over torn tail");
    assert!(ledger.health().truncated, "the torn tail is visible in health");
    assert_eq!(fs::read(&shard).expect("shard bytes"), bytes, "the torn tail was not repaired");
    wipe(&dir);
}

/// Resuming an interrupted 100k-cell campaign performs payload work
/// proportional to the missing cells only: the index-backed load plus
/// a lookup-and-meta probe of every cell decodes zero payloads.
#[test]
fn resume_of_100k_cells_decodes_only_whats_missing() {
    const CELLS: u64 = 100_000;
    const MISSING: u64 = 7;
    let dir = tmp("resume.ledger");
    wipe(&dir);

    // The interrupted campaign: every cell but the last few landed.
    let rows: Vec<LedgerRow> = (0..CELLS - MISSING).map(synth_row).collect();
    let hashes: Vec<String> = (0..CELLS).map(|i| synth_row(i).hash).collect();
    let mut ledger = Ledger::load(&dir).expect("campaign load");
    ledger.append_all(rows).expect("bulk append");
    ledger.sync_index().expect("index sync");
    drop(ledger);

    // The resume: trust the index, probe every cell, classify
    // hits/misses. This is exactly what the lab orchestrator's warm
    // path does — and it must not pay for the 99 993 finished cells.
    let mut ledger = Ledger::load(&dir).expect("resume load");
    assert_eq!(ledger.len() as u64, CELLS - MISSING);
    let mut missing = Vec::new();
    let mut meta_sum = 0.0f64;
    for hash in &hashes {
        match ledger.lookup(hash) {
            Some(row) => meta_sum += row.best_cost,
            None => missing.push(hash.clone()),
        }
    }
    assert_eq!(missing.len() as u64, MISSING);
    assert!(meta_sum.is_finite());
    assert_eq!(
        ledger.outcome_decodes(),
        0,
        "an index-backed resume probe must decode zero payloads for {} hit cells",
        CELLS - MISSING
    );

    // Searching the missing cells appends them; decode cost stays at
    // the handful of payloads the campaign actually touched.
    for i in CELLS - MISSING..CELLS {
        ledger.append(synth_row(i)).expect("resume append");
    }
    ledger.sync_index().expect("index sync");
    assert_eq!(ledger.len() as u64, CELLS);
    assert_eq!(ledger.outcome_decodes(), 0, "appending resident rows decodes nothing");
    let spot = ledger.lookup(&hashes[0]).expect("first cell");
    assert!(spot.outcome().is_some());
    assert_eq!(ledger.outcome_decodes(), 1, "one explicit decode costs exactly one");
    wipe(&dir);
}

/// A ledger over several shards, with shadowed duplicates: `n` rows
/// from `seed`, every seventh repeating the hash of an earlier row.
fn seeded_rows(seed: u64, n: u64) -> Vec<LedgerRow> {
    (0..n)
        .map(|i| {
            let mut row = synth_row(seed.wrapping_mul(1_000_003).wrapping_add(i));
            if i % 7 == 6 {
                row.hash = synth_row(seed.wrapping_mul(1_000_003).wrapping_add(i / 2)).hash;
            }
            row
        })
        .collect()
}

/// Copies every file of ledger directory `from` to a fresh `to`, but
/// `skip`.
fn copy_dir(from: &Path, to: &Path, skip: Option<&str>) {
    wipe(to);
    fs::create_dir_all(to).expect("copy target");
    for entry in fs::read_dir(from).expect("ledger dir") {
        let entry = entry.expect("dir entry");
        if Some(entry.file_name().to_str().expect("utf-8 name")) != skip {
            fs::copy(entry.path(), to.join(entry.file_name())).expect("copy file");
        }
    }
}

/// Every file of a directory with its bytes, sorted by name.
fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .expect("ledger dir")
        .map(|e| {
            let e = e.expect("dir entry");
            (e.file_name().into_string().expect("utf-8"), fs::read(e.path()).expect("file"))
        })
        .collect();
    files.sort();
    files
}

/// A row's identity and metadata, everything but its outcome.
fn meta(row: &LedgerRow) -> (String, String, String, String, u32, String, u64, u64, u64) {
    (
        row.hash.clone(),
        row.cell.clone(),
        row.workload.clone(),
        row.platform.clone(),
        row.batch,
        row.engine.clone(),
        row.best_cost.to_bits(),
        row.latency_cycles,
        row.evals,
    )
}

/// Asserts that two loads see the same ledger: rows and their order,
/// health overall and per shard, what every hash looks up, and every
/// decoded outcome.
fn assert_same_ledger(state: &str, indexed: &Ledger, scanned: &Ledger) {
    let rows = |l: &Ledger| l.rows().iter().map(meta).collect::<Vec<_>>();
    assert_eq!(rows(indexed), rows(scanned), "{state}: rows");
    assert_eq!(indexed.health(), scanned.health(), "{state}: health");
    assert_eq!(indexed.shard_healths(), scanned.shard_healths(), "{state}: shard health");
    let position = |l: &Ledger, hash: &str| {
        let row = l.lookup(hash).expect("every row's hash looks up");
        l.rows().iter().position(|r| std::ptr::eq(r, row))
    };
    for row in indexed.rows() {
        assert_eq!(
            position(indexed, &row.hash),
            position(scanned, &row.hash),
            "{state}: lookup of {}",
            row.hash
        );
    }
    let outcomes =
        |l: &Ledger| l.rows().iter().map(|r| r.outcome().map(outcome_to_bytes)).collect::<Vec<_>>();
    assert_eq!(outcomes(indexed), outcomes(scanned), "{state}: decoded outcomes");
}

/// Puts ledger `dir` (already synced) into `state`.
fn damage(dir: &Path, state: &str, seed: u64) {
    let shard = |s: usize| dir.join(format!("shard-{s:x}.bin"));
    match state {
        "synced" => {}
        "stale" => {
            // Tails on some shards, appended after the index was synced.
            let mut ledger = Ledger::load(dir).expect("writer load");
            for row in seeded_rows(seed ^ 0x5a5a, 40).into_iter().filter(|r| r.hash.as_str() < "6")
            {
                ledger.append(row).expect("tail append");
            }
        }
        "no-index" => fs::remove_file(dir.join("index.bin")).expect("drop index"),
        "bad-checksum" => {
            let index = dir.join("index.bin");
            let mut bytes = fs::read(&index).expect("index bytes");
            bytes[8] ^= 0x01;
            fs::write(&index, bytes).expect("break the checksum");
        }
        "torn-tail" => {
            // A kill mid-append: half a frame after one shard's last one.
            let victim = (0..SHARDS).find(|&s| shard(s).exists()).expect("a shard");
            let mut bytes = fs::read(shard(victim)).expect("shard bytes");
            bytes.extend_from_slice(b"FRM3\xff\x00\x00\x00torn");
            fs::write(shard(victim), bytes).expect("torn tail");
        }
        "damaged-shard" => {
            // Garbage inside one shard, and a torn frame after another
            // shard's last frame.
            let victims: Vec<usize> = (0..SHARDS).filter(|&s| shard(s).exists()).take(2).collect();
            let mut bytes = fs::read(shard(victims[0])).expect("shard bytes");
            let at = bytes.len() / 2;
            bytes.splice(at..at, *b"garbage");
            fs::write(shard(victims[0]), bytes).expect("garbage");
            let mut bytes = fs::read(shard(victims[1])).expect("shard bytes");
            bytes.extend_from_slice(b"FRM3\xff\x00\x00\x00torn");
            fs::write(shard(victims[1]), bytes).expect("torn tail");
        }
        other => unreachable!("unknown state {other}"),
    }
}

/// In every state an index can be in, a load through `index.bin` and a
/// load of a copy without it agree on everything a reader can see, and
/// the index-backed load decodes nothing. Repairing loads of two more
/// copies then append the same row and sync: the directories must come
/// out byte for byte the same, which pins each row's `seq` and frame
/// location and the next `seq`.
#[test]
fn an_index_backed_load_matches_a_scan_in_every_index_state() {
    for seed in [1u64, 2] {
        for state in ["synced", "stale", "no-index", "bad-checksum", "damaged-shard"] {
            let dir = tmp(&format!("states-{seed}-{state}.ledger"));
            let bare = tmp(&format!("states-{seed}-{state}-bare.ledger"));
            wipe(&dir);
            let mut ledger = Ledger::load(&dir).expect("campaign load");
            ledger.append_all(seeded_rows(seed, 120)).expect("bulk append");
            ledger.sync_index().expect("index sync");
            drop(ledger);
            damage(&dir, state, seed);
            copy_dir(&dir, &bare, Some("index.bin"));

            let indexed = Ledger::load_readonly(&dir).expect("index-backed load");
            assert_eq!(indexed.outcome_decodes(), 0, "{state}: the load decoded a payload");
            let scanned = Ledger::load_readonly(&bare).expect("scan load");
            assert!(indexed.shard_healths().iter().filter(|h| h.kept > 0).count() > 4);
            assert_same_ledger(state, &indexed, &scanned);

            let (dir2, bare2) = (tmp("states-w.ledger"), tmp("states-w-bare.ledger"));
            copy_dir(&dir, &dir2, None);
            copy_dir(&bare, &bare2, None);
            let mut indexed = Ledger::load(&dir2).expect("repairing index-backed load");
            let mut scanned = Ledger::load(&bare2).expect("repairing scan load");
            assert_same_ledger(state, &indexed, &scanned);
            for ledger in [&mut indexed, &mut scanned] {
                ledger.append(synth_row(u64::MAX - seed)).expect("append");
                ledger.sync_index().expect("index sync");
            }
            assert_eq!(dir_bytes(&dir2), dir_bytes(&bare2), "{state}: ledger bytes");
            for path in [&dir, &bare, &dir2, &bare2] {
                wipe(path);
            }
        }
    }
}

/// A read-only probe turned into a writer ends where a repairing load
/// does: after one append and an index sync, the directory (quarantine
/// sidecar included) is byte for byte the same, and so is `health()`.
/// Only a probe of a synced ledger is kept as it is (its decode count
/// survives); any other state reloads.
#[test]
fn a_probe_turned_writer_matches_a_repairing_load() {
    for state in ["synced", "stale", "torn-tail", "damaged-shard"] {
        let (a, b) =
            (tmp(&format!("writer-{state}.ledger")), tmp(&format!("writer-{state}-b.ledger")));
        wipe(&a);
        let mut ledger = Ledger::load(&a).expect("campaign load");
        ledger.append_all(seeded_rows(3, 120)).expect("bulk append");
        ledger.sync_index().expect("index sync");
        drop(ledger);
        damage(&a, state, 3);
        copy_dir(&a, &b, None);

        let probe = Ledger::load_readonly(&a).expect("read-only probe");
        assert!(probe.rows()[0].outcome().is_some(), "{state}: first row decodes");
        let mut writer = probe.into_writer().expect("into_writer");
        let kept = u64::from(state == "synced");
        assert_eq!(writer.outcome_decodes(), kept, "{state}: probe kept or reloaded");
        let mut reference = Ledger::load(&b).expect("repairing load");
        assert_eq!(writer.health(), reference.health(), "{state}: health");
        for ledger in [&mut writer, &mut reference] {
            assert!(!ledger.readonly());
            ledger.append(synth_row(u64::MAX)).expect("append");
            ledger.sync_index().expect("index sync");
        }
        assert_eq!(writer.health(), reference.health(), "{state}: health after the append");
        assert_eq!(dir_bytes(&a), dir_bytes(&b), "{state}: ledger bytes");
        wipe(&a);
        wipe(&b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// v2 JSONL text -> `migrate` -> `dump` is a byte identity: the
    /// JSON view is a fixed point through the binary store for any
    /// synthetic campaign shape.
    #[test]
    fn migration_round_trips_to_identical_jsonl(seed in any::<u64>()) {
        let n = 1 + (seed % 37);
        let jsonl = tmp(&format!("round-{seed}.jsonl"));
        let binary = tmp(&format!("round-{seed}.ledger"));
        wipe(&jsonl);
        wipe(&binary);

        let text: String = (0..n)
            .map(|i| synth_row(seed.wrapping_add(i)).to_line().expect("resident row") + "\n")
            .collect();
        fs::write(&jsonl, &text).expect("write JSONL");

        let stats = Ledger::migrate(&jsonl, &binary).expect("jsonl -> binary");
        prop_assert_eq!((stats.rows as u64, stats.skipped), (n, 0));
        let dumped: String = Ledger::load_readonly(&binary)
            .expect("migrated ledger")
            .rows()
            .iter()
            .map(|r| r.to_line().expect("row decodes") + "\n")
            .collect();
        prop_assert_eq!(dumped, text);

        wipe(&jsonl);
        wipe(&binary);
    }
}
