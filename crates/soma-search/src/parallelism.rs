//! The [`Parallelism`] knob: how a seed portfolio or a lab campaign's
//! cells spread across threads.
//!
//! Every parallel site in the workspace takes an explicit `Parallelism`
//! instead of consulting ad-hoc globals —
//! [`Scheduler::parallelism`](crate::Scheduler::parallelism), the
//! `threads` directive of an experiment spec, and the `--threads` flag
//! of the `run`/`lab` binaries all carry this type.
//!
//! Determinism: outcomes and ledger bytes are **bit-identical across
//! all variants**. Work is merged in submission order (never completion
//! order) and every seed owns its RNG stream, so thread count affects
//! wall-clock only. Thread count is deliberately *not* an input to
//! `cell_hash` — cached results stay valid when the machine changes.

use std::fmt;
use std::str::FromStr;

use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use serde::{Deserialize, Serialize};

/// Thread-count policy for a parallel region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Parallelism {
    /// Use the current thread pool if the caller already runs on one,
    /// else the global pool (sized by
    /// [`std::thread::available_parallelism`]). The default.
    #[default]
    Auto,
    /// Run on a dedicated scoped pool with exactly `n` worker threads,
    /// built for the call and torn down after it. `Fixed(1)` still
    /// hops onto one worker thread; use [`Sequential`](Self::Sequential)
    /// for a truly threadless run.
    Fixed(usize),
    /// Run inline on the calling thread — no pool, no worker threads.
    Sequential,
}

impl Parallelism {
    /// The worker count this policy resolves to right now: `n` for
    /// `Fixed(n)`, 1 for `Sequential`, and the current/global pool size
    /// for `Auto`.
    #[cfg(test)]
    fn resolved_threads(self) -> usize {
        match self {
            Parallelism::Auto => rayon::current_num_threads(),
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Sequential => 1,
        }
    }

    /// The policy an *inner* parallel region (e.g. the per-cell
    /// portfolio inside a lab fan-out) should inherit from this outer
    /// one. `Sequential` stays sequential — `--threads 1` means no
    /// threads anywhere. `Fixed(n)` maps to `Auto`: the inner region
    /// already runs *on* the scoped pool's workers, so `Auto` lets its
    /// `join`s split across that same pool instead of stacking a second
    /// dedicated pool per cell.
    pub fn nested(self) -> Parallelism {
        match self {
            Parallelism::Sequential => Parallelism::Sequential,
            Parallelism::Auto | Parallelism::Fixed(_) => Parallelism::Auto,
        }
    }

    /// Maps `f` over `items` under this policy and collects results
    /// **in input order** (the pool reassembles by slot, so the output
    /// is identical across all variants — only wall-clock differs).
    pub fn map_collect<T, R, F>(self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Send + Sync,
    {
        match self {
            Parallelism::Sequential => items.into_iter().map(f).collect(),
            Parallelism::Auto => items.into_par_iter().map(f).collect(),
            Parallelism::Fixed(n) => {
                let pool = ThreadPoolBuilder::new()
                    .num_threads(n.max(1))
                    .build()
                    .expect("failed to build scoped thread pool");
                pool.install(|| items.into_par_iter().map(f).collect())
            }
        }
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Parallelism::Auto => f.write_str("auto"),
            Parallelism::Sequential => f.write_str("seq"),
            Parallelism::Fixed(n) => write!(f, "{n}"),
        }
    }
}

impl FromStr for Parallelism {
    type Err = String;

    /// Parses `auto`, `seq`/`sequential`, or a thread count. `1` means
    /// [`Sequential`](Parallelism::Sequential) (no threads at all), any
    /// larger count a [`Fixed`](Parallelism::Fixed) pool of that size.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "auto" => Ok(Parallelism::Auto),
            "seq" | "sequential" => Ok(Parallelism::Sequential),
            other => match other.parse::<usize>() {
                Ok(0) | Err(_) => Err(format!(
                    "invalid parallelism `{other}`: expected `auto`, `seq`, or a thread count >= 1"
                )),
                Ok(1) => Ok(Parallelism::Sequential),
                Ok(n) => Ok(Parallelism::Fixed(n)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_three_forms() {
        assert_eq!("auto".parse::<Parallelism>().unwrap(), Parallelism::Auto);
        assert_eq!("seq".parse::<Parallelism>().unwrap(), Parallelism::Sequential);
        assert_eq!("sequential".parse::<Parallelism>().unwrap(), Parallelism::Sequential);
        assert_eq!("1".parse::<Parallelism>().unwrap(), Parallelism::Sequential);
        assert_eq!("4".parse::<Parallelism>().unwrap(), Parallelism::Fixed(4));
        assert_eq!(" 8 ".parse::<Parallelism>().unwrap(), Parallelism::Fixed(8));
    }

    #[test]
    fn rejects_zero_and_junk() {
        assert!("0".parse::<Parallelism>().is_err());
        assert!("".parse::<Parallelism>().is_err());
        assert!("-2".parse::<Parallelism>().is_err());
        assert!("fast".parse::<Parallelism>().is_err());
        assert!("4.5".parse::<Parallelism>().is_err());
    }

    #[test]
    fn hostile_inputs_pin_their_exact_error_message() {
        // The message is part of the CLI contract (`run` and `lab` print
        // it verbatim for a bad `--threads`) — pin it exactly.
        let msg = |input: &str| {
            format!(
                "invalid parallelism `{}`: expected `auto`, `seq`, or a thread count >= 1",
                input.trim()
            )
        };
        for input in ["0", "-1", "fast", "0x4", "1e2", "18446744073709551616", ""] {
            assert_eq!(input.parse::<Parallelism>().unwrap_err(), msg(input), "input {input:?}");
        }
        // Whitespace is trimmed both for parsing and in the message.
        assert_eq!(" -1 ".parse::<Parallelism>().unwrap_err(), msg("-1"));
        assert_eq!("  4 ".parse::<Parallelism>().unwrap(), Parallelism::Fixed(4));
        assert_eq!("auto ".parse::<Parallelism>().unwrap(), Parallelism::Auto);
        // `usize::from_str` accepts an explicit sign, so `+4` is a pool
        // of four — pinned here so a change to the parser shows up.
        assert_eq!("+4".parse::<Parallelism>().unwrap(), Parallelism::Fixed(4));
        // A count beyond usize::MAX is junk, not a saturated pool.
        let huge = "18446744073709551616".parse::<Parallelism>();
        assert!(huge.is_err(), "u64::MAX + 1 must not parse");
    }

    #[test]
    fn display_round_trips() {
        for p in [Parallelism::Auto, Parallelism::Sequential, Parallelism::Fixed(6)] {
            assert_eq!(p.to_string().parse::<Parallelism>().unwrap(), p);
        }
    }

    #[test]
    fn nested_policy_keeps_sequential_threadless() {
        assert_eq!(Parallelism::Sequential.nested(), Parallelism::Sequential);
        assert_eq!(Parallelism::Auto.nested(), Parallelism::Auto);
        assert_eq!(Parallelism::Fixed(4).nested(), Parallelism::Auto);
    }

    #[test]
    fn map_collect_is_identical_across_variants() {
        let input: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = input.iter().map(|x| x * 3 + 1).collect();
        for p in [Parallelism::Sequential, Parallelism::Auto, Parallelism::Fixed(4)] {
            let got = p.map_collect(input.clone(), |x| x * 3 + 1);
            assert_eq!(got, expect, "variant {p} diverged");
        }
    }

    #[test]
    fn resolved_threads_matches_policy() {
        assert_eq!(Parallelism::Sequential.resolved_threads(), 1);
        assert_eq!(Parallelism::Fixed(4).resolved_threads(), 4);
        assert!(Parallelism::Auto.resolved_threads() >= 1);
    }
}
