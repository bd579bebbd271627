//! Chaos wall for ledger recovery: **no corruption — torn tails, bit
//! rot, garbage between frames, damage the index cannot see — may
//! panic a load, lose a frame that is still physically intact, or make
//! a damaged row decode to anything but its own outcome.**
//!
//! Three walls, all on ledger directories:
//!
//! * a **fuzzed damage storm**: real rows written to shard files, then a
//!   seeded mix of garbage insertion between frames, bit flips anywhere
//!   (headers, checksums, payloads) and truncation — loaded once with
//!   the index sidecar still in sync (the load trusts it and only lazy
//!   decodes can notice) and once with it deleted (the load scans).
//!   Loading must succeed, find every intact frame with its original
//!   outcome, never hand a damaged row a wrong outcome, and leave the
//!   ledger clean for the next load;
//! * a **seeded append-fault storm** through [`FaultPlan`]: torn writes,
//!   silent bit-flips and fsync errors during `append`, each successful
//!   append followed by `sync_index` as the lab does, with the caller
//!   retrying through reloads until every row is durable — lookup *and*
//!   decode succeed after a reload;
//! * the **duplicate-hash pin**: appending the same hash twice is
//!   allowed, lookups are last-write-wins, and
//!   [`LedgerHealth::duplicates`] counts the shadowed copies.
//!
//! Everything is seed-driven (vendored proptest + `StdRng`), so every
//! failure replays.
//!
//! [`LedgerHealth::duplicates`]: soma_spec::LedgerHealth::duplicates

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soma_search::record::outcome_to_bytes;
use soma_search::{Scheduler, SearchConfig};
use soma_spec::fault::{FaultConfig, FaultPlan};
use soma_spec::ledger::{cell_key, Ledger, LedgerRow, SHARDS};
use soma_spec::read_experiment;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("soma-chaos-ledger");
    fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&path);
    path
}

/// Real rows (distinct cells/seeds of the smallest scenario), searched
/// once and shared by every fuzz case.
fn base_rows() -> &'static [LedgerRow] {
    static ROWS: OnceLock<Vec<LedgerRow>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let spec = read_experiment(
            "soma-experiment v1\nname chaos\nscenario fig4@edge/b1\n\
             seeds 2025\neffort 0.01\nend\n",
        )
        .expect("chaos spec parses");
        let cell = &spec.cells()[0];
        (0..6u64)
            .map(|i| {
                let seeds = vec![2025 + i];
                let cfg = SearchConfig { seed: seeds[0], ..spec.config.clone() };
                let hash = cell_key(cell, &cfg, &seeds);
                let outcome = Scheduler::new(&cell.net, &cell.hw).config(cfg).seeds(seeds).run();
                LedgerRow::new(cell, &hash, outcome)
            })
            .collect()
    })
}

fn shard_path(dir: &Path, s: usize) -> PathBuf {
    dir.join(format!("shard-{s:x}.bin"))
}

/// The frames of a clean shard file, in order (the 8-byte header
/// first, then `FRM3` + `u32` LE body length + body per frame).
fn frames(shard: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut pos = 8;
    while pos < shard.len() {
        let len = u32::from_le_bytes(shard[pos + 4..pos + 8].try_into().unwrap()) as usize;
        out.push(shard[pos..pos + 8 + len].to_vec());
        pos += 8 + len;
    }
    out
}

/// Whether `needle` occurs contiguously in `hay`.
fn contains(hay: &[u8], needle: &[u8]) -> bool {
    hay.windows(needle.len()).any(|w| w == needle)
}

/// Damages one shard's bytes: garbage between frames, bit flips
/// anywhere, maybe a torn tail.
fn damage(rng: &mut StdRng, clean: &[u8]) -> Vec<u8> {
    let mut starts: Vec<usize> = vec![8];
    for f in frames(clean) {
        starts.push(starts.last().unwrap() + f.len());
    }
    let mut bytes = clean.to_vec();
    // Garbage at frame boundaries, highest boundary first so the lower
    // ones stay valid.
    let mut at: Vec<usize> =
        (0..rng.gen_range(0..3usize)).map(|_| starts[rng.gen_range(0..starts.len())]).collect();
    at.sort_unstable();
    for &pos in at.iter().rev() {
        let garbage: Vec<u8> = match rng.gen_range(0..3u32) {
            0 => b"not a frame".to_vec(),
            1 => (0..rng.gen_range(1..40usize)).map(|_| rng.gen_range(0u8..=0xff)).collect(),
            _ => b"FRM3\x05\x00\x00\x00junk".to_vec(), // a frame header with a bad body
        };
        bytes.splice(pos..pos, garbage);
    }
    for _ in 0..rng.gen_range(0..3usize) {
        let pos = rng.gen_range(0..bytes.len());
        bytes[pos] ^= 1 << rng.gen_range(0..8u32);
    }
    if rng.gen_range(0..3u32) == 0 {
        bytes.truncate(rng.gen_range(0..=bytes.len()));
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Seeded damage storm, with the index in sync and deleted: load
    /// never errors or panics, every intact frame is found and decodes
    /// to its original outcome, a damaged row is absent or decodes to
    /// nothing, and a second repairing load is clean.
    #[test]
    fn damaged_ledgers_recover_without_losing_intact_rows(seed in any::<u64>()) {
        let rows = base_rows();
        for synced in [true, false] {
            let mut rng = StdRng::seed_from_u64(seed);
            let dir = tmp(&format!("fuzz-{seed}-{synced}.ledger"));
            let mut ledger = Ledger::load(&dir).unwrap();
            for row in rows {
                ledger.append(row.clone()).unwrap();
            }
            ledger.sync_index().unwrap();
            drop(ledger);
            if !synced {
                fs::remove_file(dir.join("index.bin")).unwrap();
            }

            // Damage every shard, remembering which original frames
            // are still physically intact somewhere in their shard.
            let mut intact: Vec<Vec<u8>> = Vec::new();
            for s in 0..SHARDS {
                let Ok(clean) = fs::read(shard_path(&dir, s)) else { continue };
                let damaged = damage(&mut rng, &clean);
                intact.extend(frames(&clean).into_iter().filter(|f| contains(&damaged, f)));
                fs::write(shard_path(&dir, s), &damaged).unwrap();
            }
            let is_intact = |row: &LedgerRow| {
                intact.iter().any(|f| contains(f, row.hash.as_bytes()))
            };

            let ledger = Ledger::load(&dir).expect("recovery must not error");
            for row in rows {
                let want = outcome_to_bytes(row.outcome().unwrap());
                let got = ledger.lookup(&row.hash).and_then(LedgerRow::outcome);
                if is_intact(row) {
                    prop_assert!(
                        got.is_some(),
                        "intact row {} lost (seed {seed}, synced {synced})",
                        row.hash
                    );
                }
                if let Some(got) = got {
                    prop_assert!(
                        outcome_to_bytes(got) == want,
                        "row {} decoded to another outcome (seed {seed}, synced {synced})",
                        row.hash
                    );
                }
            }

            // The repair is complete: reloading finds a clean ledger
            // with the same rows.
            let again = Ledger::load(&dir).expect("second load");
            prop_assert!(again.health().is_clean(), "repair left damage: {:?}", again.health());
            prop_assert_eq!(again.len(), ledger.len());
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// Seeded append-fault storm: with CHAOS-rate torn writes, silent
    /// bit-flips and fsync errors injected into `append` — and the
    /// index synced after every successful append, as the lab does — a
    /// caller that retries through reloads always converges to a ledger
    /// where every row looks up and decodes, and never sees a panic.
    #[test]
    fn append_fault_storms_converge_through_reload_and_retry(seed in any::<u64>()) {
        let rows = base_rows();
        let dir = tmp(&format!("storm-{seed}.ledger"));

        let plan = Arc::new(FaultPlan::seeded(seed, FaultConfig::CHAOS));
        let mut ledger = Ledger::load(&dir).unwrap();
        ledger.inject_faults(Arc::clone(&plan));

        for row in rows {
            let mut attempts = 0;
            // Durable means: after a reload the row looks up *and*
            // decodes. An append that "succeeded" through a silent
            // bit-flip is indexed but fails that bar, and is retried
            // like any torn write — the new row supersedes it.
            loop {
                attempts += 1;
                prop_assert!(attempts < 64, "row {} never became durable", row.hash);
                if ledger.append(row.clone()).is_ok() {
                    ledger.sync_index().expect("index sync");
                }
                ledger = Ledger::load(&dir).expect("reload after append");
                ledger.inject_faults(Arc::clone(&plan));
                if ledger.lookup(&row.hash).and_then(LedgerRow::outcome).is_some() {
                    break;
                }
            }
        }

        let fin = Ledger::load(&dir).expect("final load");
        prop_assert!(fin.health().is_clean(), "{:?}", fin.health());
        for row in rows {
            let got = fin.lookup(&row.hash).and_then(LedgerRow::outcome);
            prop_assert!(got.is_some(), "row {} lost", row.hash);
            prop_assert!(outcome_to_bytes(got.unwrap()) == outcome_to_bytes(row.outcome().unwrap()));
        }

        let _ = fs::remove_dir_all(&dir);
    }
}

/// Duplicate-hash pin: appending the same hash twice is legal
/// append-only history. Lookups resolve to the **newest** row
/// (last-write-wins), both copies stay on disk, and a reload counts
/// the shadowed copy in `health().duplicates`.
#[test]
fn duplicate_hash_rows_are_last_write_wins_and_counted() {
    let rows = base_rows();
    let dir = tmp("dup.ledger");

    let mut second = rows[1].clone();
    second.hash = rows[0].hash.clone(); // same key, different content

    let mut ledger = Ledger::load(&dir).unwrap();
    ledger.append(rows[0].clone()).unwrap();
    ledger.append(second.clone()).unwrap();
    assert_eq!(ledger.len(), 2, "both copies stay on disk");
    assert_eq!(ledger.health().duplicates, 1);
    assert_eq!(
        ledger.lookup(&rows[0].hash).unwrap().to_line(),
        second.to_line(),
        "in-memory lookup is last-write-wins"
    );

    let reloaded = Ledger::load(&dir).unwrap();
    assert!(reloaded.health().is_clean(), "duplicates are not damage");
    assert_eq!(reloaded.health().duplicates, 1);
    assert_eq!(reloaded.len(), 2);
    assert_eq!(
        reloaded.lookup(&rows[0].hash).unwrap().to_line(),
        second.to_line(),
        "on-disk lookup is last-write-wins"
    );

    let _ = fs::remove_dir_all(&dir);
}
