//! The compiled evaluation engine: plan-invariant precomputation for the
//! SA hot path.
//!
//! The annealers evaluate tens of thousands of DLSAs against one frozen
//! [`ComputePlan`] and read only a latency and an energy from each. The
//! naive path ([`simulate`](crate::simulate) +
//! [`evaluate_parts`](crate::evaluate_parts)) rebuilds the world on every
//! call: per-tile costs through the memoised core-array model (a hash
//! lookup per tile), per-tensor DRAM durations, a `Vec<Vec<u32>>` gate
//! table, four timing vectors and a full buffer profile. All of that is
//! either invariant for a frozen plan or re-usable scratch.
//!
//! [`CompiledPlan::compile`] hoists the invariants out once:
//!
//! * `tile_cost` / `tensor_dur` — flat arrays, no hashing on the hot path.
//!   Compiling asks the memoised core-array model once per layer shape,
//!   not once per tile (every tile of a layer shares one shape);
//! * the *load* gate table in flat CSR layout (loads gate the tile of
//!   their first use, which is plan-fixed; store gates move with the DLSA
//!   and live in the scratch);
//! * the plan's energy, which does not depend on the DLSA at all.
//!
//! Stage 1 evaluates a new plan for every proposal, but one that keeps
//! the previous plan's tiles and DRAM tensors up to the first tile the
//! proposal changes. [`CompiledPlan::recompile`] rewrites a compiled plan
//! from that tile and the first DRAM tensor anchored there on; `compile`
//! is the case that starts at 0.
//! The core energy is kept summed before each tile and the per-layer
//! cost memo lives across recompiles, so a recompile equals a fresh
//! compile, energy bits included.
//!
//! One loop plays the two serial queues. It starts from a *checkpoint*
//! `(di, ci)` — queue slots served, tiles run — and records end times by
//! queue slot and by tile, plus, per slot, the tiles run when it was
//! served and, per tile, the slots served when it ran: every state it
//! passes is a checkpoint a later replay can start from. One function
//! picks the last checkpoint before a given slot and tile.
//!
//! * [`CompiledPlan::simulate_cost_from`] resumes a caller-owned
//!   [`SimScratch`]'s last replay at its last checkpoint before the first
//!   queue slot and tile a new plan or DLSA can change — stage 1's
//!   evaluator — re-indexing the inverse order and the store gates only
//!   from there, with **zero heap allocation**, and returns only the
//!   end-to-end latency. [`CompiledPlan::simulate_cost`] is the case
//!   that starts at `(0, 0)`: the cost-only fast path for annealers that
//!   combine it with an incrementally maintained
//!   [`OccupancyProfile`](soma_core::OccupancyProfile) peak.
//! * [`Replay`] keeps the loop's record of one DLSA and takes each edit
//!   as a [`DlsaMove`]. It re-runs the loop from the last checkpoint the
//!   move cannot have changed, rewriting only the suffix after it in
//!   place: keeping the edit needs nothing more, and
//!   [`restore`](Replay::restore) puts the overwritten suffix back. End
//!   times obey the same recurrence however the two queues interleave,
//!   and the loop stops at the same state from any checkpoint it passed,
//!   so a resumed latency or [`SimError`] equals a full replay's. A
//!   living-duration move that binds no gate (decided in `O(1)` from the
//!   record) keeps the record as it is, with no loop and nothing saved.
//!   Stage 2 evaluates every proposal this way.
//!
//! Full reports (start times, utilisations, buffer statistics) come from
//! the naive path alone. The differential suite in `tests/engine_equiv.rs`
//! checks the engine's latencies, deadlocks and energy against it on
//! random mutation chains.

use soma_arch::HardwareConfig;
use soma_core::{ComputePlan, Dlsa, DlsaMove, TileShape};
use soma_model::Network;

use crate::core_array::{CoreArrayModel, TileCost};
use crate::timeline::SimError;

/// What one queue replay records. Times are kept per queue *slot* (the
/// position in the DLSA order) rather than per tensor, so the part a
/// resumed replay rewrites is always a suffix: slots from `di` on and
/// tiles from `ci` on.
#[derive(Debug, Default)]
struct Record {
    /// Store gates per tile: the stores whose living duration ends there.
    store_gates: Vec<Vec<u32>>,
    /// End cycle of each queue slot.
    slot_end: Vec<u64>,
    /// Tiles run when each slot was served: the checkpoint "before
    /// serving slot `k`" is `(k, slot_ci[k])`.
    slot_ci: Vec<u32>,
    /// End cycle of each tile.
    tile_end: Vec<u64>,
    /// Slots served when each tile ran: the checkpoint "before running
    /// tile `c`" is `(tile_di[c], c)`.
    tile_di: Vec<u32>,
}

impl Record {
    /// The last checkpoint of this replay before both serving queue slot
    /// `slot` and running tile `tile` (a slot or tile past the end stands
    /// for the end). Both are states of one replay, whose every step
    /// serves one slot or runs one tile: the earlier one is the one with
    /// fewer steps behind it.
    fn checkpoint(&self, slot: usize, tile: usize) -> (usize, usize) {
        let end = (self.slot_end.len(), self.tile_end.len());
        let by_slot = self.slot_ci.get(slot).map_or(end, |&c| (slot, c as usize));
        let by_tile = self.tile_di.get(tile).map_or(end, |&d| (d as usize, tile));
        if by_slot.0 + by_slot.1 <= by_tile.0 + by_tile.1 {
            by_slot
        } else {
            by_tile
        }
    }
}

/// Re-usable workspace for [`CompiledPlan`] simulations. One scratch
/// serves plans of any size (vectors grow to the high-water mark and are
/// then re-used allocation-free), and keeps its last replay for
/// [`CompiledPlan::simulate_cost_from`] to resume.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Queue slot of each tensor: the inverse of the DLSA order.
    slots: Vec<u32>,
    /// Times, checkpoints and store gates of the last simulation.
    rec: Record,
    /// Whether the last simulation ran to the end: only then are its
    /// checkpoints resume points.
    complete: bool,
    /// Difference-array scratch for peak-occupancy queries.
    pub(crate) diff: Vec<i64>,
}

impl SimScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch for [`soma_core::lifetime::peak_buffer_into`] calls that
    /// share this workspace.
    pub fn diff_mut(&mut self) -> &mut Vec<i64> {
        &mut self.diff
    }

    /// Sizes the scratch for `plan` and indexes `dlsa` for a replay from
    /// checkpoint `(di, ci)`: its inverse order from slot `di` on and its
    /// per-tile store gates from tile `ci` on, keeping the entries before
    /// them. From `(0, 0)` every tensor starts out never served, so one
    /// missing from the order is never served, as in [`crate::simulate`].
    /// Times are not cleared: a replay writes every entry after its
    /// checkpoint before reading it.
    fn index(&mut self, plan: &CompiledPlan, dlsa: &Dlsa, di: usize, ci: usize) {
        let (n_tiles, n_tensors) = (plan.n_tiles, plan.n_tensors);
        if di == 0 {
            self.slots.clear();
        }
        self.slots.resize(n_tensors, u32::MAX);
        for (k, &ti) in dlsa.order.iter().enumerate().skip(di) {
            self.slots[ti as usize] = k as u32;
        }
        let rec = &mut self.rec;
        rec.slot_end.resize(n_tensors, 0);
        rec.slot_ci.resize(n_tensors, 0);
        rec.tile_end.resize(n_tiles, 0);
        rec.tile_di.resize(n_tiles, 0);
        if rec.store_gates.len() < n_tiles {
            rec.store_gates.resize_with(n_tiles, Vec::new);
        }
        for g in rec.store_gates.iter_mut().take(n_tiles).skip(ci) {
            g.clear();
        }
        for (i, &end) in dlsa.end.iter().enumerate() {
            if !plan.tensor_is_load[i] && (ci..n_tiles).contains(&(end as usize)) {
                rec.store_gates[end as usize].push(i as u32);
            }
        }
    }
}

/// A kept replay of one DLSA that re-simulates an edit of it from the
/// last checkpoint the edit cannot have changed — stage 2's evaluator.
///
/// An edit that changes queue slot `s` at the earliest (a reordering, a
/// load's `Start`) leaves every slot before `s` and every tile run
/// before `s` was served untouched; one that changes the store gates of
/// tile `c` at the earliest (a store's `End`) leaves every tile before
/// `c` and every slot served before `c` ran untouched.
/// [`resume`](Self::resume) restarts the replay loop at the earlier of
/// those two checkpoints and rewrites only the suffix after it. End times
/// follow the same recurrence whatever order the two queues interleave
/// in, and the loop stops at the same maximal state from any checkpoint
/// it passed, so the latency and any [`SimError`] equal a full
/// [`simulate_cost`](CompiledPlan::simulate_cost) of the edited DLSA.
///
/// A living-duration edit that binds no gate is *kept* without a replay.
/// A load's new gate tile that had run when its slot was served, and
/// that leaves the slot's start where it was, changes no end time; so
/// does a store's `End` moved off a tile that started strictly after the
/// store ended, onto one that ran after the store was served and started
/// no earlier than it ended. The recorded run then still steps through
/// the edited DLSA's queues with every gate met, so each checkpoint stays
/// a resume point, though a fresh replay may interleave the queues
/// differently. Deciding this reads a few recorded times, once per edit.
///
/// The contract: [`resume`](Self::resume) rewrites the suffix in place
/// (or keeps it) and moves a store's gate with its `End`. To keep the
/// edit, do nothing: the record now describes the edited DLSA, and its
/// checkpoints are valid resume points for the next edit. To roll it
/// back, [`restore`](Self::restore) what the last resume changed. The
/// inverse order is the caller's.
#[derive(Debug)]
pub struct Replay {
    /// The kept replay; a resume rewrites its suffix in place.
    rec: Record,
    /// Resume point of the last resume, `None` when it kept the record.
    saved_at: Option<(usize, usize)>,
    /// What the last resume overwrote: `slot_end`/`slot_ci` from its
    /// `di` on, `tile_end`/`tile_di` from its `ci` on.
    saved_slot_end: Vec<u64>,
    saved_slot_ci: Vec<u32>,
    saved_tile_end: Vec<u64>,
    saved_tile_di: Vec<u32>,
    /// The store gate the last resume moved: `(tensor, old, new)`.
    moved_gate: Option<(u32, u32, u32)>,
}

impl Replay {
    /// Replays `dlsa` in full, the first kept replay.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] exactly when [`crate::simulate`] deadlocks.
    pub fn new(plan: &CompiledPlan, dlsa: &Dlsa) -> Result<Self, SimError> {
        let mut scratch = SimScratch::new();
        plan.simulate_cost(dlsa, &mut scratch)?;
        Ok(Self {
            rec: scratch.rec,
            saved_at: None,
            saved_slot_end: Vec::new(),
            saved_slot_ci: Vec::new(),
            saved_tile_end: Vec::new(),
            saved_tile_di: Vec::new(),
            moved_gate: None,
        })
    }

    /// Re-simulates `dlsa`, the kept DLSA edited by `mv` (with `slots`
    /// its inverse order), and returns its latency. A reordering resumes
    /// from its nearer slot, a load's `Start` from its slot and a store's
    /// `End` from the earlier of its two tiles, unless the edit binds no
    /// gate and the record is kept as it is.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] exactly when [`crate::simulate`] deadlocks
    /// on the edited DLSA; the caller then [`restore`](Self::restore)s.
    pub fn resume(
        &mut self,
        plan: &CompiledPlan,
        dlsa: &Dlsa,
        slots: &[u32],
        mv: DlsaMove,
    ) -> Result<u64, SimError> {
        let (n_tensors, n_tiles) = (self.rec.slot_end.len(), self.rec.tile_end.len());
        self.moved_gate = None;
        let (slot, tile) = match mv {
            DlsaMove::Order { from, to, .. } => (from.min(to), n_tiles),
            DlsaMove::LoadStart { tensor, old, new } => {
                let k = slots[tensor] as usize;
                if self.load_keeps(k, old, new) {
                    return Ok(self.keep());
                }
                (k, n_tiles)
            }
            DlsaMove::StoreEnd { tensor, old, new } => {
                self.move_store_gate(tensor as u32, old, new);
                self.moved_gate = Some((tensor as u32, old, new));
                if self.store_keeps(plan, slots[tensor] as usize, old as usize, new as usize) {
                    return Ok(self.keep());
                }
                (n_tensors, old.min(new) as usize)
            }
        };
        let rec = &self.rec;
        let (di, ci) = rec.checkpoint(slot, tile);
        self.saved_slot_end.clear();
        self.saved_slot_end.extend_from_slice(&rec.slot_end[di..]);
        self.saved_slot_ci.clear();
        self.saved_slot_ci.extend_from_slice(&rec.slot_ci[di..]);
        self.saved_tile_end.clear();
        self.saved_tile_end.extend_from_slice(&rec.tile_end[ci..]);
        self.saved_tile_di.clear();
        self.saved_tile_di.extend_from_slice(&rec.tile_di[ci..]);
        self.saved_at = Some((di, ci));
        plan.run_queues(dlsa, slots, &mut self.rec, di, ci)
    }

    /// Rolls the last [`resume`](Self::resume) back: the kept replay,
    /// store gates included, is the unedited DLSA's again.
    pub fn restore(&mut self) {
        if let Some((di, ci)) = self.saved_at {
            let rec = &mut self.rec;
            rec.slot_end[di..].copy_from_slice(&self.saved_slot_end);
            rec.slot_ci[di..].copy_from_slice(&self.saved_slot_ci);
            rec.tile_end[ci..].copy_from_slice(&self.saved_tile_end);
            rec.tile_di[ci..].copy_from_slice(&self.saved_tile_di);
        }
        if let Some((tensor, old, new)) = self.moved_gate.take() {
            self.move_store_gate(tensor, new, old);
        }
    }

    /// Whether the last [`resume`](Self::resume) kept the record without
    /// replaying anything.
    pub fn kept(&self) -> bool {
        self.saved_at.is_none()
    }

    /// The kept end times: by queue slot, and by tile.
    pub fn end_times(&self) -> (&[u64], &[u64]) {
        (&self.rec.slot_end, &self.rec.tile_end)
    }

    /// Follows a store whose living-duration `End` moved from tile `old`
    /// to tile `new` (`End == n_tiles` gates no tile).
    fn move_store_gate(&mut self, tensor: u32, old: u32, new: u32) {
        if let Some(gates) = self.rec.store_gates.get_mut(old as usize) {
            let i = gates.iter().position(|&g| g == tensor).expect("the store gates its End");
            gates.swap_remove(i);
        }
        if let Some(gates) = self.rec.store_gates.get_mut(new as usize) {
            gates.push(tensor);
        }
    }

    /// Whether moving the `Start` of the load in queue slot `k` from `old`
    /// to `new` changes no end time: its new gate tile (`new - 1`, none
    /// for 0) had run when the slot was served, and the slot starts at the
    /// same cycle behind either gate.
    fn load_keeps(&self, k: usize, old: u32, new: u32) -> bool {
        let rec = &self.rec;
        let gate_end = |start: u32| start.checked_sub(1).map_or(0, |g| rec.tile_end[g as usize]);
        let prev = k.checked_sub(1).map_or(0, |j| rec.slot_end[j]);
        new <= rec.slot_ci[k] && prev.max(gate_end(old)) == prev.max(gate_end(new))
    }

    /// Whether moving the `End` of the store in queue slot `k` from tile
    /// `old` to tile `new` changes no end time: tile `new` ran after the
    /// store was served and started no earlier than it ended, and tile
    /// `old` started strictly after it ended (a tile past the last gates
    /// nothing).
    fn store_keeps(&self, plan: &CompiledPlan, k: usize, old: usize, new: usize) -> bool {
        let rec = &self.rec;
        let end = rec.slot_end[k];
        let start = |c: usize| rec.tile_end[c] - plan.tile_cost[c];
        let n_tiles = rec.tile_end.len();
        (new >= n_tiles || (k < rec.tile_di[new] as usize && end <= start(new)))
            && (old >= n_tiles || end < start(old))
    }

    /// Keeps the record as the edited DLSA's and returns its latency.
    fn keep(&mut self) -> u64 {
        self.saved_at = None;
        let last = |ends: &[u64]| ends.last().copied().unwrap_or(0);
        last(&self.rec.slot_end).max(last(&self.rec.tile_end))
    }
}

/// A [`ComputePlan`] compiled against one hardware configuration: every
/// DLSA-invariant quantity the evaluator needs, precomputed once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompiledPlan {
    n_tiles: usize,
    n_tensors: usize,
    /// Cycles of each tile (global index).
    tile_cost: Vec<u64>,
    /// Core-array energy of the tiles up to each one, summed in plan
    /// order, in picojoules.
    core_pj: Vec<f64>,
    /// DRAM transfer cycles of each tensor (canonical index).
    tensor_dur: Vec<u64>,
    /// `is_load` of each tensor.
    tensor_is_load: Vec<bool>,
    /// `anchor` of each tensor.
    tensor_anchor: Vec<u32>,
    /// CSR offsets into [`Self::load_gate_idx`], length `n_tiles + 1`.
    load_gate_off: Vec<u32>,
    /// Load tensors gating each tile (its own loads), CSR values.
    load_gate_idx: Vec<u32>,
    /// Each layer's last tile shape and its cost: every tile of a layer
    /// shares one shape, and a recompile mostly keeps it.
    by_layer: Vec<Option<(TileShape, TileCost)>>,
    /// Core-array plus DRAM energy of the whole plan in picojoules.
    energy_pj: f64,
}

impl CompiledPlan {
    /// Precomputes every plan-invariant quantity: a
    /// [`recompile`](Self::recompile) from tile and tensor 0. The
    /// memoised `model` is consulted once per layer; subsequent
    /// evaluations never touch it.
    pub fn compile(
        net: &Network,
        plan: &ComputePlan,
        hw: &HardwareConfig,
        model: &mut CoreArrayModel<'_>,
    ) -> Self {
        let mut compiled = Self::default();
        compiled.recompile(net, plan, hw, model, 0);
        compiled
    }

    /// Recompiles for `plan`, which agrees with the plan this was last
    /// compiled for on every tile before `tile` and every DRAM tensor
    /// anchored before it (the tile a
    /// [`SegmentMemo`](soma_core::SegmentMemo) parse reports). Only the
    /// rest is recomputed, and the core energy adds the same terms in the
    /// same order as a fresh [`compile`](Self::compile), so the result
    /// equals one, energy bits included.
    pub fn recompile(
        &mut self,
        net: &Network,
        plan: &ComputePlan,
        hw: &HardwareConfig,
        model: &mut CoreArrayModel<'_>,
        tile: usize,
    ) {
        // The model (a hash lookup) is asked once per layer shape; the
        // local memo is keyed on (layer, shape) like the model's own, so
        // it holds for any plan. The costs feed both the cost array and
        // the energy sum, summed tile by tile in plan order as in
        // `evaluate_parts`, so the float total is bit-identical.
        self.by_layer.resize(net.len(), None);
        self.tile_cost.truncate(tile);
        self.core_pj.truncate(tile);
        self.tile_cost.reserve(plan.tiles.len() - tile);
        self.core_pj.reserve(plan.tiles.len() - tile);
        let mut core_pj = self.core_pj.last().copied().unwrap_or(0.0);
        for t in &plan.tiles[tile..] {
            let c = match &mut self.by_layer[t.layer.index()] {
                Some((shape, c)) if *shape == t.shape => *c,
                slot => slot.insert((t.shape, model.cost(t))).1,
            };
            self.tile_cost.push(c.cycles);
            core_pj += c.energy_pj;
            self.core_pj.push(core_pj);
        }

        let tensor = plan.dram_tensors.partition_point(|t| (t.anchor as usize) < tile);
        let fresh = &plan.dram_tensors[tensor..];
        self.tensor_dur.truncate(tensor);
        self.tensor_dur.extend(fresh.iter().map(|t| hw.dram_cycles(t.bytes).max(1)));
        self.tensor_is_load.truncate(tensor);
        self.tensor_is_load.extend(fresh.iter().map(|t| t.is_load));
        self.tensor_anchor.truncate(tensor);
        self.tensor_anchor.extend(fresh.iter().map(|t| t.anchor));

        // Load gates in CSR layout, in ascending tensor index within each
        // tile (the naive gate-table order). Anchors never decrease along
        // the need-order, so one pass fills the rows from `tile` on.
        if self.load_gate_off.is_empty() {
            self.load_gate_off.push(0);
        }
        self.load_gate_off.truncate(tile + 1);
        self.load_gate_idx.truncate(self.load_gate_off[tile] as usize);
        self.load_gate_off.reserve(plan.tiles.len() - tile);
        self.load_gate_idx.reserve(fresh.len());
        for (i, t) in fresh.iter().enumerate() {
            let row = t.anchor as usize;
            debug_assert!(row + 1 >= self.load_gate_off.len(), "tensors in need-order");
            while self.load_gate_off.len() <= row {
                self.load_gate_off.push(self.load_gate_idx.len() as u32);
            }
            if t.is_load {
                self.load_gate_idx.push((tensor + i) as u32);
            }
        }
        self.load_gate_off.resize(plan.tiles.len() + 1, self.load_gate_idx.len() as u32);

        let (mut dram_read, mut dram_write) = (0u64, 0u64);
        for t in &plan.dram_tensors {
            if t.is_load {
                dram_read += t.bytes;
            } else {
                dram_write += t.bytes;
            }
        }
        self.energy_pj = core_pj + hw.energy.dram(dram_read, dram_write);
        self.n_tiles = plan.tiles.len();
        self.n_tensors = plan.dram_tensors.len();
    }

    /// Total energy (core + DRAM) of any schedule of this plan, in
    /// picojoules — energy does not depend on the DLSA.
    pub fn energy_total_pj(&self) -> f64 {
        self.energy_pj
    }

    /// The one queue replay: plays the two serial queues from checkpoint
    /// `(di, ci)` — `di` queue slots served, `ci` tiles run, everything
    /// before them already in `rec` — with zero heap allocation, recording
    /// end times and checkpoints. `slots` is the inverse of `dlsa.order`.
    fn run_queues(
        &self,
        dlsa: &Dlsa,
        slots: &[u32],
        rec: &mut Record,
        mut di: usize,
        mut ci: usize,
    ) -> Result<u64, SimError> {
        let n_tensors = self.n_tensors;
        let n_tiles = self.n_tiles;
        let mut prev_tensor_end = di.checked_sub(1).map_or(0, |k| rec.slot_end[k]);
        let mut prev_tile_end = ci.checked_sub(1).map_or(0, |c| rec.tile_end[c]);

        while di < n_tensors || ci < n_tiles {
            let mut progressed = false;

            // Serve as many DRAM tensors as currently possible.
            while di < n_tensors {
                let ti = dlsa.order[di] as usize;
                let gate_tile: Option<usize> = if self.tensor_is_load[ti] {
                    let s = dlsa.start[ti] as usize;
                    if s == 0 {
                        None
                    } else {
                        Some(s - 1)
                    }
                } else {
                    Some(self.tensor_anchor[ti] as usize)
                };
                let gate_time = match gate_tile {
                    None => 0,
                    Some(g) if g < ci => rec.tile_end[g],
                    Some(_) => break, // gating tile not yet executed
                };
                let start = prev_tensor_end.max(gate_time);
                prev_tensor_end = start + self.tensor_dur[ti];
                rec.slot_end[di] = prev_tensor_end;
                rec.slot_ci[di] = ci as u32;
                di += 1;
                progressed = true;
            }

            // Run as many tiles as currently possible.
            while ci < n_tiles {
                let mut ready = prev_tile_end;
                let mut blocked = false;
                let gates = &self.load_gate_idx
                    [self.load_gate_off[ci] as usize..self.load_gate_off[ci + 1] as usize];
                for &g in gates.iter().chain(&rec.store_gates[ci]) {
                    let slot = slots[g as usize] as usize;
                    if slot < di {
                        ready = ready.max(rec.slot_end[slot]);
                    } else {
                        blocked = true;
                        break;
                    }
                }
                if blocked {
                    break;
                }
                prev_tile_end = ready + self.tile_cost[ci];
                rec.tile_end[ci] = prev_tile_end;
                rec.tile_di[ci] = di as u32;
                ci += 1;
                progressed = true;
            }

            if !progressed {
                return Err(SimError::Deadlock { dram_pos: di, tile: ci });
            }
        }

        Ok(prev_tile_end.max(prev_tensor_end))
    }

    /// The cost-only fast path: end-to-end latency of `dlsa`, zero heap
    /// allocation once `scratch` has warmed up. Energy is invariant
    /// ([`energy_total_pj`](Self::energy_total_pj)) and the buffer peak
    /// comes from an incrementally maintained
    /// [`OccupancyProfile`](soma_core::OccupancyProfile) (or
    /// [`soma_core::lifetime::peak_buffer_into`] against the same
    /// scratch), so this is everything a `(cost, peak_buffer)` evaluation
    /// needs.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] exactly when [`crate::simulate`] deadlocks.
    pub fn simulate_cost(&self, dlsa: &Dlsa, scratch: &mut SimScratch) -> Result<u64, SimError> {
        self.simulate_cost_from(dlsa, scratch, 0, 0)
    }

    /// [`simulate_cost`](Self::simulate_cost) of a plan and DLSA that
    /// agree with `scratch`'s last replay on every queue slot before
    /// `slot` (same tensor, duration and gate) and every tile before
    /// `tile` (same cost and gates): the replay resumes at that replay's
    /// last checkpoint before both, re-indexing only from there, so a
    /// resume past slot 0 needs `dlsa.order` to name every tensor. A
    /// scratch whose last replay deadlocked, or that never replayed,
    /// starts at `(0, 0)`, as `(0, 0)` itself does.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] exactly when [`crate::simulate`] deadlocks.
    pub fn simulate_cost_from(
        &self,
        dlsa: &Dlsa,
        scratch: &mut SimScratch,
        slot: usize,
        tile: usize,
    ) -> Result<u64, SimError> {
        let (di, ci) = if scratch.complete { scratch.rec.checkpoint(slot, tile) } else { (0, 0) };
        scratch.index(self, dlsa, di, ci);
        let latency = self.run_queues(dlsa, &scratch.slots, &mut scratch.rec, di, ci);
        scratch.complete = latency.is_ok();
        latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::evaluate_parts;
    use crate::timeline::simulate;
    use soma_core::{parse_lfa, Lfa, SegmentMemo};
    use soma_model::zoo;

    fn setup(tiling: u32, fused: bool) -> (soma_model::Network, ComputePlan, Dlsa) {
        let net = zoo::fig2(1);
        let lfa = if fused { Lfa::fully_fused(&net, tiling) } else { Lfa::unfused(&net, tiling) };
        let plan = parse_lfa(&net, &lfa).unwrap();
        let dlsa = Dlsa::double_buffer(&plan);
        (net, plan, dlsa)
    }

    #[test]
    fn compiled_latency_matches_naive_simulate() {
        for (tiling, fused) in [(1, false), (4, false), (4, true), (8, true)] {
            let (_, plan, dlsa) = setup(tiling, fused);
            let hw = HardwareConfig::edge();
            let mut m = CoreArrayModel::new(&hw);
            let naive = simulate(&plan, &dlsa, &hw, &mut m).unwrap();
            let cp = CompiledPlan::compile(&zoo::fig2(1), &plan, &hw, &mut m);
            let mut scratch = SimScratch::new();
            let latency = cp.simulate_cost(&dlsa, &mut scratch).unwrap();
            assert_eq!(latency, naive.latency, "tiling {tiling} fused {fused}");
        }
    }

    #[test]
    fn compiled_detects_the_same_deadlock() {
        let (net, plan, mut dlsa) = setup(2, false);
        let last_store = plan
            .dram_tensors
            .iter()
            .enumerate()
            .rev()
            .find(|(_, t)| !t.is_load)
            .map(|(i, _)| i as u32)
            .unwrap();
        let pos = dlsa.order.iter().position(|&o| o == last_store).unwrap();
        dlsa.order.remove(pos);
        dlsa.order.insert(0, last_store);
        let hw = HardwareConfig::edge();
        let mut m = CoreArrayModel::new(&hw);
        let naive = simulate(&plan, &dlsa, &hw, &mut m).unwrap_err();
        let cp = CompiledPlan::compile(&net, &plan, &hw, &mut m);
        let mut scratch = SimScratch::new();
        assert_eq!(cp.simulate_cost(&dlsa, &mut scratch).unwrap_err(), naive);
    }

    #[test]
    fn one_scratch_serves_plans_of_different_sizes() {
        let hw = HardwareConfig::edge();
        let mut m = CoreArrayModel::new(&hw);
        let mut scratch = SimScratch::new();
        for tiling in [8, 2, 4, 1] {
            let (net, plan, dlsa) = setup(tiling, false);
            let naive = simulate(&plan, &dlsa, &hw, &mut m).unwrap();
            let cp = CompiledPlan::compile(&net, &plan, &hw, &mut m);
            assert_eq!(cp.simulate_cost(&dlsa, &mut scratch).unwrap(), naive.latency);
        }
    }

    #[test]
    fn recompile_from_a_shared_prefix_matches_a_fresh_compile() {
        let net = zoo::chain(1, 16, 28, 6);
        let hw = HardwareConfig::edge();
        let mut m = CoreArrayModel::new(&hw);
        let mut memo = SegmentMemo::new(&net);
        let first = Lfa::unfused(&net, 2);
        let (plan, _) = memo.parse(&first).unwrap();
        let mut dlsa = Dlsa::double_buffer(plan);
        let mut compiled = CompiledPlan::compile(&net, plan, &hw, &mut m);
        let mut scratch = SimScratch::new();
        compiled.simulate_cost(&dlsa, &mut scratch).unwrap();
        // Fuse the last two layers, re-tile that group (its stores see a
        // new tile count), then merge two middle LGs (an earlier layer
        // stops storing its ofmap): each plan shares a prefix with the
        // one before.
        let mut fused = first.clone();
        fused.flc.remove(&5);
        fused.dram_cuts.remove(&5);
        fused.tiling.pop();
        let mut retiled = fused.clone();
        retiled.tiling[4] = 8;
        let mut split = retiled.clone();
        split.dram_cuts.remove(&3);
        for lfa in [fused, retiled, split] {
            let (plan, tile) = memo.parse(&lfa).unwrap();
            let kept = plan.dram_tensors.first().is_some_and(|t| (t.anchor as usize) < tile);
            assert!(kept, "tile {tile} keeps no DRAM tensor");
            let slot = dlsa.double_buffer_from(plan, tile);
            compiled.recompile(&net, plan, &hw, &mut m, tile);
            let fresh = CompiledPlan::compile(&net, plan, &hw, &mut m);
            let fresh_dlsa = Dlsa::double_buffer(plan);
            assert_eq!(dlsa, fresh_dlsa);
            assert_eq!(compiled, fresh);
            assert_eq!(compiled.energy_total_pj().to_bits(), fresh.energy_total_pj().to_bits());
            let naive = simulate(plan, &fresh_dlsa, &hw, &mut m).unwrap();
            let resumed = compiled.simulate_cost_from(&dlsa, &mut scratch, slot, tile);
            assert_eq!(resumed, Ok(naive.latency));
        }
    }

    #[test]
    fn a_replay_after_a_deadlock_resumes_from_zero() {
        // A finer plan's replay, then one of a coarser plan that deadlocks
        // at the queue slot it moved the last store to: past that point
        // the scratch still holds the finer plan's record. The coarser
        // plan's double buffer agrees with the deadlocked DLSA on every
        // slot before that one, yet must replay from (0, 0).
        let hw = HardwareConfig::edge();
        let mut m = CoreArrayModel::new(&hw);
        let (net, fine, fine_dlsa) = setup(8, false);
        let (_, plan, dlsa) = setup(2, false);
        let cp_fine = CompiledPlan::compile(&net, &fine, &hw, &mut m);
        let cp = CompiledPlan::compile(&net, &plan, &hw, &mut m);
        let want = Ok(simulate(&plan, &dlsa, &hw, &mut m).unwrap().latency);
        let last_store = plan.dram_tensors.iter().rposition(|t| !t.is_load).unwrap() as u32;
        let mut scratch = SimScratch::new();
        for slot in 0..plan.dram_tensors.len() - 1 {
            let mut stuck = dlsa.clone();
            stuck.order.retain(|&o| o != last_store);
            stuck.order.insert(slot, last_store);
            cp_fine.simulate_cost(&fine_dlsa, &mut scratch).unwrap();
            assert!(cp.simulate_cost(&stuck, &mut scratch).is_err(), "slot {slot}");
            let resumed = cp.simulate_cost_from(&dlsa, &mut scratch, slot, plan.tiles.len());
            assert_eq!(resumed, want, "slot {slot}");
        }
    }

    /// A plan built by hand: tiles of the given costs and DRAM tensors
    /// `(is_load, anchor, cycles)`; each load gates its anchor tile.
    fn hand_plan(tile_cost: &[u64], tensors: &[(bool, u32, u64)]) -> CompiledPlan {
        let mut cp = CompiledPlan {
            n_tiles: tile_cost.len(),
            n_tensors: tensors.len(),
            tile_cost: tile_cost.to_vec(),
            ..CompiledPlan::default()
        };
        for &(is_load, anchor, cycles) in tensors {
            cp.tensor_is_load.push(is_load);
            cp.tensor_anchor.push(anchor);
            cp.tensor_dur.push(cycles);
        }
        for tile in 0..tile_cost.len() as u32 {
            cp.load_gate_off.push(cp.load_gate_idx.len() as u32);
            let gates = tensors.iter().enumerate().filter(|(_, t)| t.0 && t.1 == tile);
            cp.load_gate_idx.extend(gates.map(|(i, _)| i as u32));
        }
        cp.load_gate_off.push(cp.load_gate_idx.len() as u32);
        cp
    }

    /// Four 10-cycle tiles and six tensors, with a DLSA in need-order.
    /// Its replay ends the slots at 10, 15, 24, 35, 40, 42 (served with
    /// 0, 0, 2, 2, 2, 2 tiles run) and the tiles at 20, 30, 40, 52 (run
    /// with 2, 2, 6, 6 slots served); store 5, ending at 42, starts tile 3.
    fn four_tiles() -> (CompiledPlan, Dlsa) {
        let tensors =
            [(true, 0, 10), (true, 1, 5), (false, 0, 4), (true, 3, 5), (true, 3, 5), (false, 1, 2)];
        let dlsa = Dlsa {
            order: vec![0, 1, 2, 3, 4, 5],
            start: vec![0, 0, 0, 2, 2, 1],
            end: vec![1, 2, 2, 4, 4, 3],
        };
        (hand_plan(&[10; 4], &tensors), dlsa)
    }

    /// Resumes a kept replay of `base` through `mv`, twice (the second
    /// time after a restore that must move a store gate back), and checks
    /// whether it kept its record, its verdict against a full replay of
    /// the edited DLSA, and that a restore gives the base replay back.
    fn check_move(cp: &CompiledPlan, base: &Dlsa, mv: DlsaMove, kept: bool) {
        let mut edited = base.clone();
        match mv {
            DlsaMove::LoadStart { tensor, new, .. } => edited.start[tensor] = new,
            DlsaMove::StoreEnd { tensor, new, .. } => edited.end[tensor] = new,
            DlsaMove::Order { .. } => unreachable!("living-duration moves only"),
        }
        let mut slots = vec![0; edited.order.len()];
        for (k, &ti) in edited.order.iter().enumerate() {
            slots[ti as usize] = k as u32;
        }
        let want = cp.simulate_cost(&edited, &mut SimScratch::new());
        let base_replay = Replay::new(cp, base).unwrap();
        let mut replay = Replay::new(cp, base).unwrap();
        for _ in 0..2 {
            assert_eq!(replay.resume(cp, &edited, &slots, mv), want, "{mv:?}");
            assert_eq!(replay.kept(), kept, "{mv:?}");
            if want.is_ok() {
                let full = Replay::new(cp, &edited).unwrap();
                assert_eq!(replay.end_times(), full.end_times(), "{mv:?}");
            }
            replay.restore();
            assert_eq!(replay.end_times(), base_replay.end_times(), "{mv:?} restored");
        }
    }

    #[test]
    fn a_living_duration_move_that_binds_no_gate_keeps_the_replay() {
        let (cp, base) = four_tiles();
        assert_eq!(cp.simulate_cost(&base, &mut SimScratch::new()), Ok(52));
        // Load 4 waits behind slot 3 (ends 35) whether gated on tile 1
        // (ends 30), tile 0 or nothing.
        for new in [1, 0] {
            check_move(&cp, &base, DlsaMove::LoadStart { tensor: 4, old: 2, new }, true);
        }
        // Store 2 ends at 24, before tile 2 starts (30) and tile 3 (42),
        // which ran after it was served.
        for new in [3, 4] {
            check_move(&cp, &base, DlsaMove::StoreEnd { tensor: 2, old: 2, new }, true);
        }
    }

    #[test]
    fn a_start_that_moves_its_slots_start_resumes() {
        // Load 3 starts behind tile 1 (30), not slot 2 (24): tile 0 (20)
        // moves it to 24.
        let (cp, base) = four_tiles();
        check_move(&cp, &base, DlsaMove::LoadStart { tensor: 3, old: 2, new: 1 }, false);
    }

    #[test]
    fn a_gate_tile_not_run_when_the_slot_was_served_resumes() {
        // Load 4 was served with tiles 0 and 1 run; tile 2 had not.
        let (cp, base) = four_tiles();
        check_move(&cp, &base, DlsaMove::LoadStart { tensor: 4, old: 2, new: 3 }, false);
        // Load 2 waits behind load 1 (ends 52) whatever it is gated on,
        // but it was served before tile 0 (ends 12) or tile 1 (22) ran:
        // the end times hold, the recorded order of the queues does not.
        let cp = hand_plan(&[10; 3], &[(true, 0, 2), (true, 2, 50), (true, 2, 5)]);
        let base = Dlsa { order: vec![0, 1, 2], start: vec![0; 3], end: vec![1, 3, 3] };
        for new in [1, 2] {
            check_move(&cp, &base, DlsaMove::LoadStart { tensor: 2, old: 0, new }, false);
        }
    }

    #[test]
    fn a_store_end_on_a_tile_run_before_the_store_resumes() {
        // Tile 1 ran before store 2 (slot 2) was served.
        let (cp, base) = four_tiles();
        check_move(&cp, &base, DlsaMove::StoreEnd { tensor: 2, old: 2, new: 1 }, false);
        // Behind load 3, which waits for tile 1, the same move deadlocks.
        let behind = Dlsa { order: vec![0, 1, 3, 2, 4, 5], ..base };
        let mut edited = behind.clone();
        edited.end[2] = 1;
        assert!(cp.simulate_cost(&edited, &mut SimScratch::new()).is_err());
        check_move(&cp, &behind, DlsaMove::StoreEnd { tensor: 2, old: 2, new: 1 }, false);
        // The store ends at 15, long before tile 2 starts (42), but tile 2
        // ran before it was served.
        let cp = hand_plan(&[10, 30, 10], &[(true, 0, 2), (false, 0, 3)]);
        let base = Dlsa { order: vec![0, 1], start: vec![0, 0], end: vec![1, 3] };
        check_move(&cp, &base, DlsaMove::StoreEnd { tensor: 1, old: 3, new: 2 }, false);
    }

    #[test]
    fn a_store_end_on_a_tile_that_starts_before_it_ends_resumes() {
        // Store 2 (ends 39) was served before tiles 1 and 2 ran, but they
        // start at 14 and 24.
        let cp = hand_plan(&[10; 3], &[(true, 0, 2), (true, 1, 2), (false, 0, 25)]);
        let base = Dlsa { order: vec![0, 1, 2], start: vec![0, 1, 0], end: vec![1, 2, 3] };
        for new in [1, 2] {
            check_move(&cp, &base, DlsaMove::StoreEnd { tensor: 2, old: 3, new }, false);
        }
    }

    #[test]
    fn a_store_that_bound_its_old_tile_resumes() {
        // Store 5 ends at 42, the very cycle tile 3 starts.
        let (cp, base) = four_tiles();
        check_move(&cp, &base, DlsaMove::StoreEnd { tensor: 5, old: 3, new: 4 }, false);
        let mut edited = base;
        edited.end[5] = 4;
        assert_eq!(cp.simulate_cost(&edited, &mut SimScratch::new()), Ok(50));
    }

    #[test]
    fn energy_is_dlsa_invariant() {
        let (net, plan, dlsa) = setup(4, false);
        let hw = HardwareConfig::edge();
        let mut m = CoreArrayModel::new(&hw);
        let naive = evaluate_parts(&net, &plan, &dlsa, &hw, &mut m).unwrap();
        let cp = CompiledPlan::compile(&net, &plan, &hw, &mut m);
        assert_eq!(cp.energy_total_pj().to_bits(), naive.energy.total_pj().to_bits());
    }
}
