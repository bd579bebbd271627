//! Deterministic fault injection: a seeded [`FaultPlan`] decides, per
//! instrumented **site** and invocation index, whether that invocation
//! fails — and how.
//!
//! The chaos suite's whole value is reproducibility: a failure found
//! under seed 7 must replay under seed 7, on every machine, forever.
//! So the plan holds no wall-clock, no OS randomness and no global
//! state: every decision is a pure function of `(plan seed, site name,
//! invocation index)` hashed through FNV-1a. The only mutable state is
//! a per-site invocation counter, so single-threaded (or per-site
//! single-writer) runs are bit-reproducible; concurrent callers of one
//! site still get a deterministic *set* of faults, just distributed by
//! scheduling order. Chaos tests that need full determinism pin their
//! producers to one thread (`threads seq`, one client).
//!
//! Three layers consume the plan:
//!
//! * the [ledger](crate::ledger) writer ([`site::LEDGER_APPEND`]) —
//!   torn writes, silent bit-flips, fsync errors;
//! * the `soma-serve` daemon's frame writer ([`site::SERVE_SEND`]) —
//!   connections dropped mid-frame;
//! * [`isolate`], the one panic guard of the workspace, around the
//!   `serve` search ([`site::SERVE_SEARCH`]) and the `lab` cell runner
//!   ([`site::LAB_CELL`]) — panicking and artificially slow work.
//!
//! A plan can be **seeded** (every invocation rolls against per-mille
//! rates, [`FaultPlan::seeded`]) or **scripted** (an explicit list of
//! `(site, index, fault)` triples, [`FaultPlan::scripted`]) — the first
//! drives fuzz-style chaos storms, the second drives directed tests
//! ("the 2nd append tears").

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::hash::fnv1a;

/// The instrumented sites a [`FaultPlan`] can target. Site names are
/// part of the plan's identity: a scripted plan addresses them by
/// string, and the seeded roll hashes them.
pub mod site {
    /// One [`Ledger::append`](crate::ledger::Ledger::append) call.
    pub const LEDGER_APPEND: &str = "ledger.append";
    /// One compaction rewrite of a ledger (the temp-file + rename
    /// path). Repairs that should stay in place (torn-tail-only) must
    /// never advance this counter — pinned by test.
    pub const LEDGER_COMPACT: &str = "ledger.compact";
    /// One response frame written by the serve daemon.
    pub const SERVE_SEND: &str = "serve.send";
    /// One search executed by the serve daemon.
    pub const SERVE_SEARCH: &str = "serve.search";
    /// One experiment cell executed by the lab orchestrator.
    pub const LAB_CELL: &str = "lab.cell";
}

/// One injected failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The write persists only a prefix of the line and then "crashes"
    /// (the append returns an error). `keep_per_mille` of the payload
    /// bytes survive.
    TornWrite {
        /// How much of the line survives, in thousandths.
        keep_per_mille: u16,
    },
    /// The write completes and *reports success*, but one bit of the
    /// persisted line is flipped — silent media corruption, caught only
    /// by the row checksum on the next load.
    BitFlip {
        /// Deterministic salt selecting the corrupted byte and bit.
        salt: u64,
    },
    /// The write syncs nothing and fails cleanly (full disk, dying
    /// device): no bytes reach the file.
    FsyncError,
    /// The peer's connection drops mid-frame: a prefix of the frame is
    /// written, then the stream dies.
    DropConnection,
    /// The worker panics.
    Panic,
    /// The worker stalls for `millis` before proceeding normally.
    Slow {
        /// Injected delay in milliseconds.
        millis: u64,
    },
}

/// Per-mille injection rates of a seeded plan. Each rate is the
/// probability (in thousandths) that one invocation of the relevant
/// site draws that fault; rates at one site are tried in declaration
/// order and must sum to ≤ 1000.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// [`Fault::TornWrite`] rate at [`site::LEDGER_APPEND`].
    pub torn_write: u16,
    /// [`Fault::BitFlip`] rate at [`site::LEDGER_APPEND`].
    pub bit_flip: u16,
    /// [`Fault::FsyncError`] rate at [`site::LEDGER_APPEND`].
    pub fsync_error: u16,
    /// [`Fault::DropConnection`] rate at [`site::SERVE_SEND`].
    pub drop_connection: u16,
    /// [`Fault::Panic`] rate at [`site::SERVE_SEARCH`] and
    /// [`site::LAB_CELL`].
    pub panic: u16,
    /// [`Fault::Slow`] rate at [`site::LAB_CELL`].
    pub slow: u16,
    /// Delay of an injected [`Fault::Slow`], in milliseconds.
    pub slow_millis: u64,
}

impl FaultConfig {
    /// No faults anywhere (all rates zero).
    pub const NONE: Self = Self {
        torn_write: 0,
        bit_flip: 0,
        fsync_error: 0,
        drop_connection: 0,
        panic: 0,
        slow: 0,
        slow_millis: 0,
    };

    /// The chaos-suite default: every fault class enabled at a rate
    /// high enough to fire within a few dozen invocations.
    pub const CHAOS: Self = Self {
        torn_write: 120,
        bit_flip: 120,
        fsync_error: 60,
        drop_connection: 150,
        panic: 150,
        slow: 100,
        slow_millis: 5,
    };
}

/// A deterministic schedule of injected failures.
///
/// Cheap to share: consumers hold an `Arc<FaultPlan>` and call
/// [`next`](Self::next) once per instrumented invocation.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    cfg: FaultConfig,
    script: Vec<(String, u64, Fault)>,
    counters: Mutex<HashMap<&'static str, u64>>,
    injected: AtomicU64,
}

impl FaultPlan {
    /// A probabilistic plan: every invocation of every site rolls
    /// against `cfg`'s rates, with all rolls derived from `seed`.
    pub fn seeded(seed: u64, cfg: FaultConfig) -> Self {
        Self {
            seed,
            cfg,
            script: Vec::new(),
            counters: Mutex::new(HashMap::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// A scripted plan: exactly the listed `(site, invocation index,
    /// fault)` triples fire, nothing else. Indices are zero-based per
    /// site.
    pub fn scripted(script: impl IntoIterator<Item = (&'static str, u64, Fault)>) -> Self {
        Self {
            seed: 0,
            cfg: FaultConfig::NONE,
            script: script.into_iter().map(|(s, i, f)| (s.to_string(), i, f)).collect(),
            counters: Mutex::new(HashMap::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// Total faults handed out so far (for test assertions).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// How many times `site` has been invoked so far — faulted or not.
    /// Tests use this as a cheap execution-path probe (e.g. "the
    /// torn-tail repair never reached the compaction site").
    pub fn invocations(&self, site: &str) -> u64 {
        *self.counters.lock().expect("fault counters poisoned").get(site).unwrap_or(&0)
    }

    /// Advances `site`'s invocation counter **without** consulting the
    /// fault schedule — a pure execution-path probe. Sites that tests
    /// assert on but never inject into (compaction rewrites) call this,
    /// so attaching a plan cannot change what those sites do, only
    /// whether their execution is visible to [`invocations`].
    ///
    /// [`invocations`]: Self::invocations
    pub fn observe(&self, site: &'static str) {
        let mut counters = self.counters.lock().expect("fault counters poisoned");
        *counters.entry(site).or_insert(0) += 1;
    }

    /// Advances `site`'s invocation counter and returns the fault (if
    /// any) scheduled for that invocation.
    pub fn next(&self, site: &'static str) -> Option<Fault> {
        let index = {
            let mut counters = self.counters.lock().expect("fault counters poisoned");
            let n = counters.entry(site).or_insert(0);
            let index = *n;
            *n += 1;
            index
        };
        let fault = self.decide(site, index);
        if fault.is_some() {
            self.injected.fetch_add(1, Ordering::SeqCst);
        }
        fault
    }

    /// The pure decision function: what (if anything) fails at `site`'s
    /// `index`-th invocation. [`next`](Self::next) is this plus the
    /// counter; tests use `decide` directly to predict a schedule.
    pub fn decide(&self, site: &str, index: u64) -> Option<Fault> {
        if let Some((_, _, fault)) = self.script.iter().find(|(s, i, _)| s == site && *i == index) {
            return Some(*fault);
        }
        // FNV-1a is the plan's only source of "randomness", so decisions
        // are identical on every platform.
        let h = fnv1a(
            self.seed
                .to_le_bytes()
                .into_iter()
                .chain(site.bytes())
                .chain([0x1f])
                .chain(index.to_le_bytes()),
        );
        let roll = (h % 1000) as u16;
        // Walk the site's fault classes in declaration order over
        // cumulative per-mille thresholds; parameters derive from the
        // upper hash bits so they are reproducible too.
        let param = h >> 10;
        let mut threshold = 0u16;
        let mut pick = |rate: u16, fault: Fault| -> Option<Fault> {
            threshold = threshold.saturating_add(rate);
            (roll < threshold).then_some(fault)
        };
        match site {
            site::LEDGER_APPEND => pick(
                self.cfg.torn_write,
                Fault::TornWrite { keep_per_mille: (param % 1000) as u16 },
            )
            .or_else(|| pick(self.cfg.bit_flip, Fault::BitFlip { salt: param }))
            .or_else(|| pick(self.cfg.fsync_error, Fault::FsyncError)),
            site::SERVE_SEND => pick(self.cfg.drop_connection, Fault::DropConnection),
            site::SERVE_SEARCH => pick(self.cfg.panic, Fault::Panic),
            site::LAB_CELL => pick(self.cfg.panic, Fault::Panic)
                .or_else(|| pick(self.cfg.slow, Fault::Slow { millis: self.cfg.slow_millis })),
            _ => None,
        }
    }
}

/// Runs `work` behind `site`'s next fault, with panic isolation: an
/// injected [`Fault::Panic`] panics before `work` starts, a
/// [`Fault::Slow`] stalls it first, and any panic — injected or real —
/// returns as `Err` with its message instead of unwinding further. The
/// `lab` cell runner and the `serve` search both call it, so one
/// poisoned cell or request never takes the campaign or the daemon down.
///
/// # Errors
///
/// The panic message (best effort) when `work` or the injected fault
/// panicked.
pub fn isolate<T>(
    plan: Option<&FaultPlan>,
    site: &'static str,
    work: impl FnOnce() -> T,
) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(|| {
        match plan.and_then(|p| p.next(site)) {
            Some(Fault::Panic) => panic!("injected fault: {site} panic"),
            Some(Fault::Slow { millis }) => std::thread::sleep(Duration::from_millis(millis)),
            _ => {}
        }
        work()
    }))
    .map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into())
    })
}

/// Flips one deterministic bit of `bytes` in place (no-op on an empty
/// slice): the on-disk effect of [`Fault::BitFlip`]. Exposed so chaos
/// tests can corrupt arbitrary artifacts the same way the ledger
/// writer does.
pub fn flip_bit(bytes: &mut [u8], salt: u64) {
    if bytes.is_empty() {
        return;
    }
    let pos = (salt as usize) % bytes.len();
    let bit = (salt >> 32) % 8;
    bytes[pos] ^= 1 << bit;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_a_pure_function_of_seed_site_and_index() {
        let a = FaultPlan::seeded(7, FaultConfig::CHAOS);
        let b = FaultPlan::seeded(7, FaultConfig::CHAOS);
        for i in 0..200 {
            assert_eq!(a.decide(site::LEDGER_APPEND, i), b.decide(site::LEDGER_APPEND, i));
            assert_eq!(a.decide(site::LAB_CELL, i), b.decide(site::LAB_CELL, i));
        }
        let c = FaultPlan::seeded(8, FaultConfig::CHAOS);
        let differs =
            (0..200).any(|i| a.decide(site::LEDGER_APPEND, i) != c.decide(site::LEDGER_APPEND, i));
        assert!(differs, "a different seed must produce a different schedule");
    }

    #[test]
    fn next_matches_decide_and_counts_injections() {
        let plan = FaultPlan::seeded(42, FaultConfig::CHAOS);
        let mut expected_injected = 0;
        for i in 0..100 {
            let expect = plan.decide(site::LEDGER_APPEND, i);
            if expect.is_some() {
                expected_injected += 1;
            }
            assert_eq!(plan.next(site::LEDGER_APPEND), expect, "invocation {i}");
        }
        assert_eq!(plan.injected(), expected_injected);
        assert!(expected_injected > 0, "CHAOS rates must fire within 100 invocations");
    }

    #[test]
    fn sites_count_independently() {
        let plan = FaultPlan::scripted([
            (site::LEDGER_APPEND, 1, Fault::FsyncError),
            (site::LAB_CELL, 0, Fault::Panic),
        ]);
        assert_eq!(plan.next(site::LAB_CELL), Some(Fault::Panic));
        assert_eq!(plan.next(site::LEDGER_APPEND), None);
        assert_eq!(plan.next(site::LEDGER_APPEND), Some(Fault::FsyncError));
        assert_eq!(plan.next(site::LEDGER_APPEND), None);
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn zero_rates_never_fire() {
        let plan = FaultPlan::seeded(7, FaultConfig::NONE);
        for i in 0..1000 {
            assert_eq!(plan.decide(site::LEDGER_APPEND, i), None);
            assert_eq!(plan.decide(site::SERVE_SEND, i), None);
        }
    }

    #[test]
    fn isolate_without_a_plan_runs_the_work() {
        assert_eq!(isolate(None, site::LAB_CELL, || 7), Ok(7));
    }

    #[test]
    fn isolate_turns_a_scripted_panic_into_an_error_before_the_work_runs() {
        let plan = FaultPlan::scripted([(site::LAB_CELL, 0, Fault::Panic)]);
        let mut ran = false;
        let err = isolate(Some(&plan), site::LAB_CELL, || ran = true).unwrap_err();
        assert!(err.contains("injected fault"), "{err}");
        assert!(!ran, "an injected panic fires before the work");
        assert_eq!(isolate(Some(&plan), site::LAB_CELL, || 1), Ok(1), "one scripted fault");
    }

    #[test]
    fn isolate_returns_a_real_panic_as_its_message() {
        let err = isolate(None, site::SERVE_SEARCH, || -> u32 { panic!("boom {}", 42) });
        assert_eq!(err, Err("boom 42".to_string()));
        let err = isolate(None, site::SERVE_SEARCH, || -> u32 { panic!("static boom") });
        assert_eq!(err, Err("static boom".to_string()));
    }

    #[test]
    fn isolate_runs_the_work_after_a_slow_fault() {
        let plan = FaultPlan::scripted([(site::SERVE_SEARCH, 0, Fault::Slow { millis: 1 })]);
        assert_eq!(isolate(Some(&plan), site::SERVE_SEARCH, || "done"), Ok("done"));
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn flip_bit_changes_exactly_one_bit() {
        let mut bytes = vec![0u8; 64];
        flip_bit(&mut bytes, 0x0000_0003_0000_0029);
        let ones: u32 = bytes.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
        assert_eq!(bytes[0x29], 1 << 3); // position 0x29 (< 64), bit 3
        flip_bit(&mut bytes, 0x0000_0003_0000_0029);
        assert!(bytes.iter().all(|&b| b == 0), "flipping twice restores");
        flip_bit(&mut [], 9); // no panic on empty
    }
}
