//! Stage 2: SA over the DRAM-load-and-store-related attributes
//! (paper Sec. V-C2).
//!
//! The LFA (and hence the plan) is frozen; the annealer permutes the DRAM
//! Tensor Order and stretches Living Durations. Tensor selection is
//! proportional to tensor size: "larger tensors generally have a greater
//! impact on performance and buffer utilisation, warranting more
//! transformation opportunities".
//!
//! This stage is the hottest loop of the whole framework, so it runs on
//! the compiled evaluation engine: the frozen plan is
//! [compiled](crate::objective::Objective::compile) once, each proposal
//! mutates the live [`Dlsa`] in place through a [`DlsaEditor`] (apply /
//! [`undo`](DlsaEditor::undo) tokens instead of cloning; the editor keeps
//! the inverse order, so a reordering finds its tensor's slot in `O(1)`),
//! and the buffer-occupancy profile is maintained incrementally
//! (`O(log n)` per single-tensor move, never rebuilt).
//!
//! Evaluation re-simulates only what a proposal changed. Stage 2 keeps a
//! [`Replay`] of the accepted DLSA; [`DlsaEditor::first_affected`] maps
//! each [`DlsaMove`] to the first queue slot and tile it can change (a
//! reordering: the nearer of its two slots; a load's `Start`: its slot; a
//! store's `End`: the earlier of its two tiles), and the replay resumes
//! from the last checkpoint before them, rewriting the suffix after it in
//! place. An accepted proposal keeps that suffix; a rejected or
//! deadlocked one restores it and moves the store gate back before the
//! editor undoes the move. The resumed latency and deadlock verdict equal
//! a full replay's, and the RNG draws mirror [`mutate_dlsa`] exactly, so
//! the search trajectory — and therefore the same-seed outcome — is
//! bit-identical to the naive clone-per-proposal loop
//! (`tests/engine_equiv.rs` runs both).

use rand::rngs::StdRng;
use rand::Rng;
use soma_core::{ComputePlan, Dlsa, OccupancyProfile};
use soma_sim::{CompiledPlan, EvalReport, Replay};

use crate::objective::Objective;
use crate::sa::{anneal_inplace, AnnealState, SaResult, SaSchedule};
use crate::SearchConfig;

/// Size-proportional tensor picker (prefix sums over tensor bytes).
#[derive(Debug, Clone)]
pub struct SizeWeightedPicker {
    cumulative: Vec<u64>,
}

impl SizeWeightedPicker {
    /// Builds the picker for a plan's tensor set.
    pub fn new(plan: &ComputePlan) -> Self {
        let mut cumulative = Vec::with_capacity(plan.dram_tensors.len());
        let mut acc = 0u64;
        for t in &plan.dram_tensors {
            acc += t.bytes.max(1);
            cumulative.push(acc);
        }
        Self { cumulative }
    }

    /// Draws a tensor index with probability proportional to its size.
    pub fn pick(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty tensor set");
        let x = rng.gen_range(0..total);
        self.cumulative.partition_point(|&c| c <= x)
    }

    /// Number of tensors.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the tensor set is empty.
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }
}

/// One random DLSA mutation: *Change DRAM Tensor Order* or *Change Living
/// Duration*. Returns `None` when the plan has no DRAM tensors or the
/// mutation is an identity.
///
/// This is the naive clone-per-proposal reference; the annealer itself
/// drives a [`DlsaEditor`], which draws from the RNG identically and is
/// proven equivalent by the differential suite (`tests/engine_equiv.rs`).
pub fn mutate_dlsa(
    plan: &ComputePlan,
    dlsa: &Dlsa,
    picker: &SizeWeightedPicker,
    rng: &mut StdRng,
) -> Option<Dlsa> {
    if picker.is_empty() {
        return None;
    }
    let ti = picker.pick(rng);
    let tensor = &plan.dram_tensors[ti];
    let n_tiles = plan.n_tiles();
    if rng.gen_bool(0.5) {
        // Change DRAM Tensor Order.
        let mut out = dlsa.clone();
        let cur = out.order.iter().position(|&o| o as usize == ti).expect("in order");
        out.order.remove(cur);
        let q = rng.gen_range(0..=out.order.len());
        out.order.insert(q, ti as u32);
        if out.order == dlsa.order {
            return None;
        }
        Some(out)
    } else if tensor.is_load {
        // Change Living Duration: earlier (or later) Start for loads.
        let new_start = rng.gen_range(0..=tensor.anchor);
        if new_start == dlsa.start[ti] {
            return None;
        }
        let mut out = dlsa.clone();
        out.start[ti] = new_start;
        Some(out)
    } else {
        // Change Living Duration: later (or earlier) End for stores.
        let new_end = rng.gen_range(tensor.anchor + 1..=n_tiles);
        if new_end == dlsa.end[ti] {
            return None;
        }
        let mut out = dlsa.clone();
        out.end[ti] = new_end;
        Some(out)
    }
}

/// Undo token for one applied [`DlsaEditor`] mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DlsaMove {
    /// The tensor moved from queue position `from` to `to`.
    Order {
        /// Canonical tensor index.
        tensor: u32,
        /// Queue position before the move (after removing the tensor).
        from: usize,
        /// Queue position after the move.
        to: usize,
    },
    /// A load's Living-Duration `Start` changed.
    LoadStart {
        /// Canonical tensor index.
        tensor: usize,
        /// Previous start.
        old: u32,
        /// New start.
        new: u32,
    },
    /// A store's Living-Duration `End` changed.
    StoreEnd {
        /// Canonical tensor index.
        tensor: usize,
        /// Previous end.
        old: u32,
        /// New end.
        new: u32,
    },
}

/// In-place DLSA mutator for the stage-2 inner loop: owns the live
/// [`Dlsa`], its inverse order and its incrementally maintained
/// [`OccupancyProfile`]. [`propose`](Self::propose) draws from the RNG
/// exactly like [`mutate_dlsa`] (same trajectory at the same seed) but
/// applies the mutation to the live state, returning an undo token
/// instead of a clone; [`undo`](Self::undo) rolls one token back.
#[derive(Debug)]
pub struct DlsaEditor<'p> {
    plan: &'p ComputePlan,
    dlsa: Dlsa,
    /// Queue slot of each tensor: the inverse of `dlsa.order`.
    slots: Vec<u32>,
    profile: OccupancyProfile,
}

impl<'p> DlsaEditor<'p> {
    /// Builds the editor around an initial DLSA of `plan`.
    pub fn new(plan: &'p ComputePlan, dlsa: Dlsa) -> Self {
        let profile = OccupancyProfile::new(plan, &dlsa);
        let mut slots = vec![0u32; dlsa.order.len()];
        for (k, &ti) in dlsa.order.iter().enumerate() {
            slots[ti as usize] = k as u32;
        }
        Self { plan, dlsa, slots, profile }
    }

    /// The live DLSA.
    pub fn dlsa(&self) -> &Dlsa {
        &self.dlsa
    }

    /// Queue slot of each tensor in the live DLSA order (its inverse).
    pub fn slots(&self) -> &[u32] {
        &self.slots
    }

    /// Peak buffer occupancy of the live DLSA (maintained, `O(1)`).
    pub fn peak(&self) -> u64 {
        self.profile.peak()
    }

    /// The maintained occupancy profile (for differential checks).
    pub fn profile(&self) -> &OccupancyProfile {
        &self.profile
    }

    /// Draws one mutation (identical RNG stream to [`mutate_dlsa`]) and
    /// applies it in place. `None` means the drawn mutation was an
    /// identity — nothing was applied and no token is issued.
    pub fn propose(&mut self, picker: &SizeWeightedPicker, rng: &mut StdRng) -> Option<DlsaMove> {
        if picker.is_empty() {
            return None;
        }
        let ti = picker.pick(rng);
        let tensor = &self.plan.dram_tensors[ti];
        let n_tiles = self.plan.n_tiles();
        if rng.gen_bool(0.5) {
            // Change DRAM Tensor Order. The naive path removes first and
            // then draws the insertion slot among `len - 1` positions;
            // drawing before removing is the same distribution, and the
            // result is an identity exactly when the slot is unchanged.
            let cur = self.slots[ti] as usize;
            let q = rng.gen_range(0..=self.dlsa.order.len() - 1);
            if q == cur {
                return None;
            }
            self.move_in_queue(cur, q);
            Some(DlsaMove::Order { tensor: ti as u32, from: cur, to: q })
        } else if tensor.is_load {
            let new = rng.gen_range(0..=tensor.anchor);
            let old = self.dlsa.start[ti];
            if new == old {
                return None;
            }
            self.profile.shift_interval_start(tensor.bytes, old, new);
            self.dlsa.start[ti] = new;
            Some(DlsaMove::LoadStart { tensor: ti, old, new })
        } else {
            let new = rng.gen_range(tensor.anchor + 1..=n_tiles);
            let old = self.dlsa.end[ti];
            if new == old {
                return None;
            }
            self.profile.shift_interval_end(tensor.bytes, old, new);
            self.dlsa.end[ti] = new;
            Some(DlsaMove::StoreEnd { tensor: ti, old, new })
        }
    }

    /// Rolls one applied mutation back (LIFO with respect to
    /// [`propose`](Self::propose)).
    pub fn undo(&mut self, mv: DlsaMove) {
        match mv {
            DlsaMove::Order { tensor, from, to } => {
                debug_assert_eq!(self.dlsa.order[to], tensor);
                self.move_in_queue(to, from);
            }
            DlsaMove::LoadStart { tensor, old, new } => {
                let bytes = self.plan.dram_tensors[tensor].bytes;
                self.profile.shift_interval_start(bytes, new, old);
                self.dlsa.start[tensor] = old;
            }
            DlsaMove::StoreEnd { tensor, old, new } => {
                let bytes = self.plan.dram_tensors[tensor].bytes;
                self.profile.shift_interval_end(bytes, new, old);
                self.dlsa.end[tensor] = old;
            }
        }
    }

    /// The first queue slot and the first tile whose simulation the
    /// applied move `mv` can change: a reordering changes the slots from
    /// the nearer end on, a load's `Start` its own slot, a store's `End`
    /// the store gates from the earlier tile on. `n_tensors` / `n_tiles`
    /// stand for "none".
    pub fn first_affected(&self, mv: DlsaMove) -> (usize, usize) {
        let (n_tensors, n_tiles) = (self.slots.len(), self.plan.n_tiles() as usize);
        match mv {
            DlsaMove::Order { from, to, .. } => (from.min(to), n_tiles),
            DlsaMove::LoadStart { tensor, .. } => (self.slots[tensor] as usize, n_tiles),
            DlsaMove::StoreEnd { old, new, .. } => (n_tensors, old.min(new) as usize),
        }
    }

    /// Moves the tensor in queue slot `from` to slot `to`, shifting the
    /// ones between, and re-indexes the slots that changed.
    fn move_in_queue(&mut self, from: usize, to: usize) {
        let lo = from.min(to);
        let moved = &mut self.dlsa.order[lo..=from.max(to)];
        if from < to {
            moved.rotate_left(1);
        } else {
            moved.rotate_right(1);
        }
        for (k, &ti) in moved.iter().enumerate() {
            self.slots[ti as usize] = (lo + k) as u32;
        }
    }
}

/// The stage-2 annealing problem: editor + compiled engine + objective,
/// with a kept [`Replay`] of the accepted DLSA that each proposal resumes.
struct Stage2Anneal<'e, 'p, 'a> {
    obj: &'e mut Objective<'a>,
    engine: &'e CompiledPlan,
    editor: DlsaEditor<'p>,
    replay: Replay,
    picker: &'e SizeWeightedPicker,
    buffer_limit: u64,
    pending: Option<DlsaMove>,
}

impl Stage2Anneal<'_, '_, '_> {
    /// Rolls a resumed proposal back: the replay's suffix and store
    /// gates, then the editor.
    fn roll_back(&mut self, mv: DlsaMove) {
        self.replay.restore();
        if let DlsaMove::StoreEnd { tensor, old, new } = mv {
            self.replay.move_store_gate(tensor as u32, new, old);
        }
        self.editor.undo(mv);
    }
}

impl AnnealState<StdRng> for Stage2Anneal<'_, '_, '_> {
    type Snapshot = Dlsa;

    fn propose(&mut self, rng: &mut StdRng) -> Option<f64> {
        let mv = self.editor.propose(self.picker, rng)?;
        if let DlsaMove::StoreEnd { tensor, old, new } = mv {
            self.replay.move_store_gate(tensor as u32, old, new);
        }
        let (slot, tile) = self.editor.first_affected(mv);
        let latency =
            self.replay.resume(self.engine, self.editor.dlsa(), self.editor.slots(), slot, tile);
        match self.obj.eval_latency(self.engine, latency, self.editor.peak(), self.buffer_limit) {
            Some(cost) => {
                self.pending = Some(mv);
                Some(cost)
            }
            None => {
                // Deadlocked order: roll back before skipping.
                self.roll_back(mv);
                None
            }
        }
    }

    fn resolve(&mut self, accept: bool) {
        let mv = self.pending.take().expect("resolve follows a successful propose");
        if !accept {
            self.roll_back(mv);
        }
    }

    fn snapshot(&mut self) -> Dlsa {
        self.editor.dlsa().clone()
    }
}

/// Best scheme found by stage 2.
#[derive(Debug, Clone)]
pub struct Stage2Result {
    /// The winning DLSA.
    pub dlsa: Dlsa,
    /// Its evaluation.
    pub report: EvalReport,
    /// Penalised objective value.
    pub cost: f64,
}

/// Runs the stage-2 annealer on a frozen plan, starting from `init`
/// (normally the double-buffer DLSA of the stage-1 winner). The plan is
/// compiled and `init` replayed once; every proposal then edits the DLSA
/// in place and resumes that replay from the move's first affected slot
/// or tile.
pub fn run_stage2(
    obj: &mut Objective<'_>,
    cfg: &SearchConfig,
    rng: &mut StdRng,
    plan: &ComputePlan,
    init: Dlsa,
    buffer_limit: u64,
) -> Stage2Result {
    let picker = SizeWeightedPicker::new(plan);
    let (init_cost, init_report) =
        obj.eval_parts(plan, &init, buffer_limit).expect("double-buffer DLSA cannot deadlock");

    if picker.is_empty() {
        return Stage2Result { dlsa: init, report: init_report, cost: init_cost };
    }

    let iters = cfg.stage2_iters(picker.len());
    let schedule = SaSchedule {
        t0: cfg.t0,
        alpha: cfg.alpha,
        iters,
        greedy_tail: iters / 10,
        time_budget: cfg.stage_time_budget(),
    };
    let engine = obj.compile(plan);
    let replay = Replay::new(&engine, &init).expect("init evaluated above, so it simulates");
    let result: SaResult<Dlsa> = {
        let mut state = Stage2Anneal {
            obj: &mut *obj,
            engine: &engine,
            editor: DlsaEditor::new(plan, init),
            replay,
            picker: &picker,
            buffer_limit,
            pending: None,
        };
        anneal_inplace(&schedule, rng, init_cost, &mut state)
    };

    let (cost, report) = obj
        .eval_parts(plan, &result.best, buffer_limit)
        .expect("best stage-2 solution must re-evaluate");
    Stage2Result { dlsa: result.best, report, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{CostWeights, Objective};
    use rand::SeedableRng;
    use soma_arch::HardwareConfig;
    use soma_core::{lifetime, parse_lfa, Lfa};
    use soma_model::zoo;

    fn setup() -> (soma_model::Network, ComputePlan, Dlsa) {
        let net = zoo::fig2(1);
        let plan = parse_lfa(&net, &Lfa::fully_fused(&net, 4)).unwrap();
        let dlsa = Dlsa::double_buffer(&plan);
        (net, plan, dlsa)
    }

    #[test]
    fn picker_is_size_biased() {
        let (_, plan, _) = setup();
        let picker = SizeWeightedPicker::new(&plan);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = vec![0u32; picker.len()];
        for _ in 0..5000 {
            counts[picker.pick(&mut rng)] += 1;
        }
        // The largest tensor must be drawn more often than the smallest.
        let sizes: Vec<u64> = plan.dram_tensors.iter().map(|t| t.bytes).collect();
        let max_i = (0..sizes.len()).max_by_key(|&i| sizes[i]).unwrap();
        let min_i = (0..sizes.len()).min_by_key(|&i| sizes[i]).unwrap();
        assert!(counts[max_i] > counts[min_i]);
    }

    #[test]
    fn mutations_stay_valid() {
        let (_, plan, dlsa) = setup();
        let picker = SizeWeightedPicker::new(&plan);
        let mut rng = StdRng::seed_from_u64(9);
        let mut cur = dlsa;
        let mut changed = 0;
        for _ in 0..500 {
            if let Some(cand) = mutate_dlsa(&plan, &cur, &picker, &mut rng) {
                assert!(cand.validate(&plan).is_ok());
                cur = cand;
                changed += 1;
            }
        }
        assert!(changed > 100);
    }

    #[test]
    fn editor_walks_the_exact_mutate_dlsa_chain() {
        // Same seed ⇒ the editor and the cloning mutator must visit the
        // identical DLSA sequence, with the maintained profile matching a
        // fresh rebuild at every step.
        let (_, plan, dlsa) = setup();
        let picker = SizeWeightedPicker::new(&plan);
        let mut rng_a = StdRng::seed_from_u64(41);
        let mut rng_b = StdRng::seed_from_u64(41);
        let mut naive = dlsa.clone();
        let mut editor = DlsaEditor::new(&plan, dlsa);
        for step in 0..400 {
            let cand = mutate_dlsa(&plan, &naive, &picker, &mut rng_a);
            let token = editor.propose(&picker, &mut rng_b);
            assert_eq!(cand.is_some(), token.is_some(), "step {step} diverged");
            if let Some(cand) = cand {
                naive = cand;
            }
            assert_eq!(editor.dlsa(), &naive, "step {step}");
            assert_eq!(editor.peak(), lifetime::peak_buffer(&plan, &naive), "step {step} peak");
        }
    }

    #[test]
    fn editor_undo_restores_state_and_profile() {
        let (_, plan, dlsa) = setup();
        let picker = SizeWeightedPicker::new(&plan);
        let mut rng = StdRng::seed_from_u64(5);
        let mut editor = DlsaEditor::new(&plan, dlsa.clone());
        for _ in 0..200 {
            if let Some(mv) = editor.propose(&picker, &mut rng) {
                editor.undo(mv);
            }
            assert_eq!(editor.dlsa(), &dlsa);
            assert_eq!(editor.peak(), lifetime::peak_buffer(&plan, &dlsa));
        }
    }

    #[test]
    fn stage2_never_worse_than_double_buffer() {
        let (net, plan, dlsa) = setup();
        let hw = HardwareConfig::edge();
        let mut obj = Objective::new(&net, &hw, CostWeights::default());
        let mut rng = StdRng::seed_from_u64(17);
        let cfg = SearchConfig { effort: 0.3, ..SearchConfig::default() };
        let init_cost = obj.eval_parts(&plan, &dlsa, hw.buffer_bytes).unwrap().0;
        let res = run_stage2(&mut obj, &cfg, &mut rng, &plan, dlsa, hw.buffer_bytes);
        assert!(res.cost <= init_cost);
    }
}
