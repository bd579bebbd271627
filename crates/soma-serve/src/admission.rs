//! Admission control: a bounded in-flight permit counter plus a
//! per-request evaluation-budget ceiling.
//!
//! The daemon refuses work it cannot absorb instead of queueing it
//! invisibly: a submit either takes a [`Permit`] immediately or is
//! answered with a typed [`RejectReason`] the client can act on
//! (back off on `queue-full`, shrink the request on `budget-exceeded`).
//! Permits release on drop, so every exit path — success, search panic
//! unwinding, connection teardown — returns its slot.

use std::sync::atomic::{AtomicUsize, Ordering};

use soma_search::SearchConfig;

use crate::protocol::RejectReason;

/// Coarse upper estimate of the schedule evaluations one submit can
/// trigger: `seeds × allocator rounds × (stage-1 + stage-2 iterations)`.
///
/// Stage-2 iteration counts scale with the DRAM tensor count, which is
/// only known mid-search; `layers` is the conservative stand-in (every
/// layer contributes at least one DRAM tensor candidate). The estimate
/// deliberately over-counts — admission is a guard rail against
/// runaway requests, not an accounting system.
pub fn estimate_evals(cfg: &SearchConfig, layers: usize, n_seeds: usize) -> u64 {
    let per_round = cfg.stage1_iters(layers).saturating_add(cfg.stage2_iters(layers));
    (n_seeds as u64).saturating_mul(cfg.max_allocator_iters as u64).saturating_mul(per_round)
}

/// The server's admission state: how many submits may run at once and
/// how big any single one may be.
#[derive(Debug)]
pub struct Admission {
    max_inflight: usize,
    max_evals: u64,
    inflight: AtomicUsize,
}

impl Admission {
    /// A policy admitting at most `max_inflight` concurrent submits of
    /// at most `max_evals` estimated evaluations each (`0` = unlimited
    /// budget).
    pub fn new(max_inflight: usize, max_evals: u64) -> Self {
        Self { max_inflight: max_inflight.max(1), max_evals, inflight: AtomicUsize::new(0) }
    }

    /// Submits currently holding a permit.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// The per-request evaluation ceiling (`0` = unlimited).
    pub fn max_evals(&self) -> u64 {
        self.max_evals
    }

    /// Tries to admit a submit with the given evaluation estimate.
    ///
    /// # Errors
    ///
    /// [`RejectReason::BudgetExceeded`] when the estimate tops the
    /// per-request ceiling, [`RejectReason::QueueFull`] when every
    /// in-flight slot is taken.
    pub fn admit(&self, estimated_evals: u64) -> Result<Permit<'_>, RejectReason> {
        if self.max_evals > 0 && estimated_evals > self.max_evals {
            return Err(RejectReason::BudgetExceeded);
        }
        // Optimistically take a slot; back out if it overshot the cap.
        let prev = self.inflight.fetch_add(1, Ordering::SeqCst);
        if prev >= self.max_inflight {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            return Err(RejectReason::QueueFull);
        }
        Ok(Permit { admission: self })
    }
}

/// An admitted submit's slot; released on drop.
#[derive(Debug)]
pub struct Permit<'a> {
    admission: &'a Admission,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.admission.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permits_bound_concurrency_and_release_on_drop() {
        let adm = Admission::new(2, 0);
        let a = adm.admit(1).unwrap();
        let b = adm.admit(1).unwrap();
        assert_eq!(adm.inflight(), 2);
        assert_eq!(adm.admit(1).unwrap_err(), RejectReason::QueueFull);
        drop(a);
        let c = adm.admit(1).unwrap();
        assert_eq!(adm.inflight(), 2);
        drop((b, c));
        assert_eq!(adm.inflight(), 0);
    }

    #[test]
    fn budget_ceiling_rejects_oversized_requests() {
        let adm = Admission::new(8, 1000);
        assert_eq!(adm.admit(1001).unwrap_err(), RejectReason::BudgetExceeded);
        assert!(adm.admit(1000).is_ok());
        // 0 disables the ceiling entirely.
        let open = Admission::new(8, 0);
        assert!(open.admit(u64::MAX).is_ok());
    }

    #[test]
    fn estimate_scales_with_every_input() {
        let cfg = SearchConfig { effort: 0.1, ..SearchConfig::default() };
        let base = estimate_evals(&cfg, 10, 1);
        assert!(base > 0);
        assert!(estimate_evals(&cfg, 10, 2) == 2 * base, "seeds multiply");
        assert!(estimate_evals(&cfg, 100, 1) > base, "layers grow the per-round cost");
        let lazy = SearchConfig { max_allocator_iters: 1, ..cfg.clone() };
        assert!(estimate_evals(&lazy, 10, 1) < base, "fewer rounds shrink it");
    }
}
