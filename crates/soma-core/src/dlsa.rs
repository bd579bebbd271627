//! DRAM-load-and-store-related attributes (DLSA): the DRAM Tensor Order
//! and per-tensor Living Durations (paper Sec. IV-A2).

use crate::error::ParseError;
use crate::plan::ComputePlan;

/// Stage-2 attributes over the DRAM tensor set of a [`ComputePlan`].
///
/// Tensors are identified by their index in the plan's canonical
/// enumeration. Living durations follow the paper's semantics:
///
/// * **Loads** (weights, ifmaps): `end` is *fixed* at the tile after the
///   last use; `start` is the schedulable knob — the load may begin once
///   the tile *before* `start` has finished (`start == 0` means
///   immediately), and buffer is held from `start` onwards.
/// * **Stores** (ofmaps): `start` is *fixed* at the producing tile; `end`
///   is the schedulable knob — the tile with global index `end` may not
///   begin until the store completes. `end == n_tiles` is the `END`
///   sentinel (no compute tile waits on it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dlsa {
    /// Execution order: `order[k]` is the canonical tensor index that the
    /// DRAM engine serves `k`-th.
    pub order: Vec<u32>,
    /// Living-duration start of each tensor (canonical index).
    pub start: Vec<u32>,
    /// Living-duration end of each tensor (canonical index).
    pub end: Vec<u32>,
}

impl Dlsa {
    /// The classical double-buffer strategy (paper Sec. III-B): prefetch
    /// each load during the tile before its first use, drain each store
    /// during the tile after its producer. This is the implicit DLSA of
    /// SoMa's first stage and of the Cocco baseline.
    pub fn double_buffer(plan: &ComputePlan) -> Self {
        let mut dlsa = Self::default();
        dlsa.double_buffer_from(plan, 0);
        dlsa
    }

    /// Rewrites this double-buffer DLSA of an earlier plan into `plan`'s,
    /// where the two plans agree on every tile before `tile` and every
    /// DRAM tensor anchored before it. A store's `End` is clamped to the
    /// tile count, so the stores of the last two kept tiles can move:
    /// entries are rewritten from the first tensor anchored at or after
    /// `tile - 2`, and its index — the first queue slot that may differ —
    /// is returned. From tile 0 this builds the DLSA of any plan.
    pub fn double_buffer_from(&mut self, plan: &ComputePlan, tile: usize) -> usize {
        let n_tiles = plan.n_tiles();
        let from =
            plan.dram_tensors.partition_point(|t| (t.anchor as usize) < tile.saturating_sub(2));
        self.order.truncate(from);
        self.start.truncate(from);
        self.end.truncate(from);
        for (i, t) in plan.dram_tensors.iter().enumerate().skip(from) {
            self.order.push(i as u32);
            if t.is_load {
                self.start.push(t.anchor.saturating_sub(1));
                self.end.push(t.last_use + 1);
            } else {
                self.start.push(t.anchor);
                self.end.push((t.anchor + 2).min(n_tiles));
            }
        }
        from
    }

    /// Checks this DLSA against the plan it is meant for.
    ///
    /// # Errors
    ///
    /// [`ParseError::DlsaNotPermutation`] if `order` is not a permutation
    /// of the tensor set, [`ParseError::BadLivingDuration`] if any bound
    /// leaves its legal range.
    pub fn validate(&self, plan: &ComputePlan) -> Result<(), ParseError> {
        let n = plan.dram_tensors.len();
        if self.order.len() != n || self.start.len() != n || self.end.len() != n {
            return Err(ParseError::DlsaNotPermutation);
        }
        let mut seen = vec![false; n];
        for &i in &self.order {
            let i = i as usize;
            if i >= n || seen[i] {
                return Err(ParseError::DlsaNotPermutation);
            }
            seen[i] = true;
        }
        let n_tiles = plan.n_tiles();
        for (i, t) in plan.dram_tensors.iter().enumerate() {
            if t.is_load {
                // Start may be anywhere in [0, anchor]; End is fixed.
                if self.start[i] > t.anchor || self.end[i] != t.last_use + 1 {
                    return Err(ParseError::BadLivingDuration { tensor: i });
                }
            } else {
                // Start fixed at the producer; End in (anchor, n_tiles].
                if self.start[i] != t.anchor || self.end[i] <= t.anchor || self.end[i] > n_tiles {
                    return Err(ParseError::BadLivingDuration { tensor: i });
                }
            }
        }
        Ok(())
    }
}

/// One edit of a [`Dlsa`]: stage 2's proposal, kept as its own undo
/// token, and what a kept replay reads to re-simulate the edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DlsaMove {
    /// *Change DRAM Tensor Order:* the tensor moved from queue position
    /// `from` to `to`.
    Order {
        /// Canonical tensor index.
        tensor: u32,
        /// Queue position before the move (after removing the tensor).
        from: usize,
        /// Queue position after the move.
        to: usize,
    },
    /// *Change Living Duration* of a load: its `Start` changed.
    LoadStart {
        /// Canonical tensor index.
        tensor: usize,
        /// Previous start.
        old: u32,
        /// New start.
        new: u32,
    },
    /// *Change Living Duration* of a store: its `End` changed.
    StoreEnd {
        /// Canonical tensor index.
        tensor: usize,
        /// Previous end.
        old: u32,
        /// New end.
        new: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Lfa;
    use crate::plan::parse_lfa;
    use soma_model::zoo;

    fn plan() -> ComputePlan {
        let net = zoo::fig2(1);
        parse_lfa(&net, &Lfa::unfused(&net, 2)).unwrap()
    }

    #[test]
    fn double_buffer_is_valid() {
        let p = plan();
        let d = Dlsa::double_buffer(&p);
        assert!(d.validate(&p).is_ok());
    }

    #[test]
    fn double_buffer_prefetches_one_tile() {
        let p = plan();
        let d = Dlsa::double_buffer(&p);
        for (i, t) in p.dram_tensors.iter().enumerate() {
            if t.is_load {
                assert_eq!(d.start[i], t.anchor.saturating_sub(1));
            } else {
                assert_eq!(d.end[i], (t.anchor + 2).min(p.n_tiles()));
            }
        }
    }

    #[test]
    fn resumed_double_buffer_moves_the_clamped_stores() {
        // A plan and its first four tiles: the stores of tiles 2 and 3
        // clamp their `End` at different tile counts.
        let full = plan();
        let mut cut = full.clone();
        cut.tiles.truncate(4);
        cut.dram_tensors.retain(|t| t.anchor < 4);
        for (from, to) in [(&full, &cut), (&cut, &full)] {
            let mut d = Dlsa::double_buffer(from);
            let slot = d.double_buffer_from(to, 4);
            assert_eq!(d, Dlsa::double_buffer(to));
            assert_eq!(slot, to.dram_tensors.iter().position(|t| t.anchor >= 2).unwrap());
        }
    }

    #[test]
    fn validate_rejects_duplicate_order() {
        let p = plan();
        let mut d = Dlsa::double_buffer(&p);
        d.order[1] = d.order[0];
        assert!(matches!(d.validate(&p), Err(ParseError::DlsaNotPermutation)));
    }

    #[test]
    fn validate_rejects_late_load_start() {
        let p = plan();
        let mut d = Dlsa::double_buffer(&p);
        let load = p.dram_tensors.iter().position(|t| t.is_load).unwrap();
        d.start[load] = p.dram_tensors[load].anchor + 1;
        assert!(matches!(d.validate(&p), Err(ParseError::BadLivingDuration { .. })));
    }

    #[test]
    fn validate_rejects_store_end_at_producer() {
        let p = plan();
        let mut d = Dlsa::double_buffer(&p);
        let st = p.dram_tensors.iter().position(|t| !t.is_load).unwrap();
        d.end[st] = p.dram_tensors[st].anchor;
        assert!(matches!(d.validate(&p), Err(ParseError::BadLivingDuration { .. })));
    }
}
