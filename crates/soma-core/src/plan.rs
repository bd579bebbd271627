//! Stage-1 parsing: LFA -> compute plan (paper Fig. 4(a)).
//!
//! A parse splits into two kinds of work. Each FLG's *segment* — every
//! layer's tile prototype (ops, shape, in/out bytes) and every input's
//! per-tile bytes — depends only on the FLG's layers (a slice of the
//! computing order) and its tiling number. Everything else depends on
//! neighbouring groups: FLG and LG indices, tile positions, which inputs
//! cross an LG, which ofmaps are stored, and the on-chip intervals.
//!
//! One assembler concatenates segments into a plan. It keeps the plan it
//! assembled last and rewrites it from the first FLG the new LFA can
//! change: the tiles before that FLG, and the DRAM tensors anchored
//! before them, stay, and the first tile that may differ is reported.
//! [`parse_lfa`] is that assembler with nothing kept. A [`SegmentMemo`]
//! keeps segments and the last plan across parses, so a stage-1
//! proposal, which changes one or two FLGs, builds only those and
//! re-emits the plan only from the first of them. Both run the same
//! validation and the same assembly, so they return identical plans and
//! identical errors (`tests/segment_equiv.rs` checks this, and the kept
//! prefixes, on random mutation chains).

use std::collections::HashMap;

use soma_model::{LayerId, Network, Src};

use crate::encoding::Lfa;
use crate::error::ParseError;
use crate::tiles::{input_tile_bytes, tile_shapes, TileShape};

/// Largest admissible tiling number (paper schedules never approach this;
/// it bounds plan size so invalid SA moves stay cheap to reject).
pub const MAX_TILING: u32 = 4096;

/// One computing tile: the unit of the COMPUTE row in the paper's
/// DRAM-COMPUTE diagrams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// The layer this tile belongs to.
    pub layer: LayerId,
    /// Tile index within the layer (`0..tiling`).
    pub tile_idx: u32,
    /// FLG index.
    pub flg: u32,
    /// LG index.
    pub lg: u32,
    /// Operations in this tile (halo recompute included).
    pub ops: u64,
    /// Per-tile output shape (with and without halo).
    pub shape: TileShape,
    /// Bytes of all inputs the tile reads from the GBUF.
    pub in_bytes: u64,
    /// Full weight bytes of the layer (resident while the tile runs).
    pub weight_bytes: u64,
    /// Tile ofmap bytes including halo (buffer view).
    pub out_bytes: u64,
    /// Tile ofmap bytes excluding halo (unique data, DRAM-store view).
    pub out_bytes_nom: u64,
    /// Whether the PE array executes this tile (GEMM/Conv class) as
    /// opposed to the vector unit.
    pub on_pe: bool,
}

/// What a DRAM tensor is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramKind {
    /// A layer's weights (or DRAM-resident KV cache): loaded once, used by
    /// every tile of the layer.
    Weight(LayerId),
    /// The ifmap region of one tile, loaded from DRAM.
    Ifmap {
        /// Consuming layer.
        layer: LayerId,
        /// Consuming tile index within the layer.
        tile: u32,
        /// Which of the layer's inputs this region feeds.
        input: u32,
    },
    /// The ofmap of one tile, stored to DRAM.
    Ofmap {
        /// Producing layer.
        layer: LayerId,
        /// Producing tile index within the layer.
        tile: u32,
    },
}

/// A tensor that must move between DRAM and the GBUF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTensor {
    /// What the tensor is.
    pub kind: DramKind,
    /// Transfer size in bytes.
    pub bytes: u64,
    /// `true` for loads (weights/ifmaps), `false` for stores (ofmaps).
    pub is_load: bool,
    /// Loads: global index of the first tile that uses the data (the load
    /// must complete before it). Stores: global index of the producing
    /// tile (the store may begin after it).
    pub anchor: u32,
    /// Loads: global index of the last tile using the data (buffer is
    /// released after it; fixed `End = last_use + 1`). Stores: equals
    /// `anchor`.
    pub last_use: u32,
}

/// On-chip residency of a fused feature map (not a DRAM tensor): buffer is
/// occupied from tile `from` through tile `to`, inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnchipInterval {
    /// First global tile index during which the bytes are resident.
    pub from: u32,
    /// Last global tile index (inclusive).
    pub to: u32,
    /// Resident bytes.
    pub bytes: u64,
}

/// The result of stage-1 parsing: tile sequence, DRAM tensor set (in
/// canonical need-order), on-chip buffer residency and group membership.
#[derive(Debug, Clone, Default)]
pub struct ComputePlan {
    /// All computing tiles, in execution order.
    pub tiles: Vec<Tile>,
    /// All DRAM tensors, enumerated in canonical need-order (loads of a
    /// tile before it, store of a tile after it). A [`crate::Dlsa`]
    /// permutes this set.
    pub dram_tensors: Vec<DramTensor>,
    /// On-chip fused-fmap residency intervals.
    pub onchip: Vec<OnchipInterval>,
    /// FLG index of each layer (indexed by `LayerId`).
    pub flg_of: Vec<u32>,
    /// LG index of each FLG.
    pub lg_of_flg: Vec<u32>,
}

impl ComputePlan {
    /// Number of tiles in the plan.
    pub fn n_tiles(&self) -> u32 {
        self.tiles.len() as u32
    }

    /// Number of FLGs.
    pub fn n_flgs(&self) -> usize {
        self.lg_of_flg.len()
    }

    /// Number of LGs.
    pub fn n_lgs(&self) -> usize {
        self.lg_of_flg.last().map_or(0, |&l| l as usize + 1)
    }

    /// Total bytes moved to/from DRAM.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_tensors.iter().map(|t| t.bytes).sum()
    }

    /// Total operations across all tiles (halo recompute included).
    pub fn total_ops(&self) -> u64 {
        self.tiles.iter().map(|t| t.ops).sum()
    }
}

/// Parses the layer-fusion-related attributes into a [`ComputePlan`]
/// (the paper's first parsing stage, Sec. IV-A1).
///
/// Builds every FLG's segment and assembles the plan from its first
/// tile; [`SegmentMemo::parse`] returns the same plan while re-using the
/// segments and the plan of earlier parses.
///
/// # Errors
///
/// Returns a [`ParseError`] when the order is not a topological
/// permutation, cut/tiling attributes are malformed, or a full-input
/// consumer shares an FLG with its producer.
pub fn parse_lfa(net: &Network, lfa: &Lfa) -> Result<ComputePlan, ParseError> {
    let groups = validate(net, lfa)?;
    let segments: Vec<Segment> = groups
        .ranges
        .iter()
        .zip(&lfa.tiling)
        .map(|(&(start, end), &tiling)| Segment::build(net, &lfa.order[start..end], tiling))
        .collect();
    let ids: Vec<u32> = (0..segments.len() as u32).collect();
    let mut fresh = Assembly::default();
    fresh.assemble(net, lfa, groups, &segments, &ids);
    Ok(fresh.plan)
}

/// Entry cap of a [`SegmentMemo`]. A stage-1 search holds a few hundred
/// segments per network.
const SEGMENT_MEMO_CAP: usize = 4096;

/// Stage-1 parsing with segment and plan re-use, bound to one network.
///
/// A stage-1 proposal changes one or two FLGs of the current LFA, so
/// nearly every (layers, tiling) pair it parses was parsed before. The
/// memo keeps each pair's segment — the tile prototypes and per-input
/// tile bytes, which depend on nothing else — and builds only new ones.
/// It also keeps the plan it parsed last and rewrites it from the first
/// FLG the new LFA can change, reporting that FLG's first tile; the plan
/// equals [`parse_lfa`]'s field for field, and so do the errors. A
/// parse that fails leaves the kept plan as it was. The memo is cleared,
/// kept plan included, before a parse that would take it past its entry
/// cap.
#[derive(Debug)]
pub struct SegmentMemo<'n> {
    net: &'n Network,
    cap: usize,
    /// Segment index by (FLG layers in computing order, tiling number).
    index: HashMap<(Vec<LayerId>, u32), u32>,
    segments: Vec<Segment>,
    /// Lookup key scratch, re-used so a hit allocates nothing.
    key: (Vec<LayerId>, u32),
    /// Segment of each FLG of the parse under way.
    picked: Vec<u32>,
    /// The last plan parsed.
    kept: Assembly,
}

impl<'n> SegmentMemo<'n> {
    /// An empty memo for `net`.
    pub fn new(net: &'n Network) -> Self {
        Self::with_cap(net, SEGMENT_MEMO_CAP)
    }

    fn with_cap(net: &'n Network, cap: usize) -> Self {
        Self {
            net,
            cap,
            index: HashMap::new(),
            segments: Vec::new(),
            key: (Vec::new(), 0),
            picked: Vec::new(),
            kept: Assembly::default(),
        }
    }

    /// Parses `lfa` like [`parse_lfa`], building only the segments this
    /// memo has not seen, and returns the kept plan, now `lfa`'s, with
    /// the first tile that may differ from the plan kept before. Every
    /// tile before it, and every DRAM tensor anchored before it, is
    /// unchanged; a parse of the kept LFA reports the tile count.
    ///
    /// # Errors
    ///
    /// Exactly the [`ParseError`] [`parse_lfa`] returns for `lfa`.
    pub fn parse(&mut self, lfa: &Lfa) -> Result<(&ComputePlan, usize), ParseError> {
        let groups = validate(self.net, lfa)?;
        if self.segments.len() + groups.ranges.len() > self.cap {
            // Segment ids are reassigned, so the kept plan goes too.
            self.index.clear();
            self.segments.clear();
            self.kept = Assembly::default();
        }
        self.picked.clear();
        // An FLG equal to a kept one (same range, tiling and layers)
        // reuses its segment without hashing its layers. Both range lists
        // are sorted: walk them in step, so FLGs shifted by an added or
        // deleted FLC still match.
        let mut k = 0;
        for (&(start, end), &tiling) in groups.ranges.iter().zip(&lfa.tiling) {
            let layers = &lfa.order[start..end];
            let kept = &self.kept;
            while kept.ranges.get(k).is_some_and(|r| r.0 < start) {
                k += 1;
            }
            let same = kept.ranges.get(k) == Some(&(start, end))
                && kept.tiling[k] == tiling
                && kept.order[start..end] == *layers;
            let id = if same { kept.segments[k] } else { self.lookup(layers, tiling) };
            self.picked.push(id);
        }
        let tile = self.kept.assemble(self.net, lfa, groups, &self.segments, &self.picked);
        Ok((&self.kept.plan, tile))
    }

    /// The id of the segment of `layers` tiled `tiling` times, built if
    /// this memo has not seen it.
    fn lookup(&mut self, layers: &[LayerId], tiling: u32) -> u32 {
        self.key.0.clear();
        self.key.0.extend_from_slice(layers);
        self.key.1 = tiling;
        if let Some(&id) = self.index.get(&self.key) {
            return id;
        }
        let id = self.segments.len() as u32;
        self.segments.push(Segment::build(self.net, layers, tiling));
        self.index.insert(self.key.clone(), id);
        id
    }
}

/// The FLG structure of a validated LFA.
struct Groups {
    /// FLG boundaries as half-open ranges over order positions.
    ranges: Vec<(usize, usize)>,
    /// FLG index of each layer.
    flg_of: Vec<u32>,
    /// LG index of each FLG.
    lg_of_flg: Vec<u32>,
}

/// Checks every structural rule of `lfa` and derives its group
/// membership.
fn validate(net: &Network, lfa: &Lfa) -> Result<Groups, ParseError> {
    let n = net.len();

    // --- Computing order: permutation + topological. ---
    if lfa.order.len() != n {
        return Err(ParseError::OrderNotPermutation);
    }
    let mut pos_of = vec![usize::MAX; n];
    for (p, &id) in lfa.order.iter().enumerate() {
        if id.index() >= n || pos_of[id.index()] != usize::MAX {
            return Err(ParseError::OrderNotPermutation);
        }
        pos_of[id.index()] = p;
    }
    for (cid, layer) in net.iter() {
        for &src in &layer.inputs {
            if let Src::Layer(pid) = src {
                if pos_of[pid.index()] >= pos_of[cid.index()] {
                    return Err(ParseError::OrderNotTopological { producer: pid, consumer: cid });
                }
            }
        }
    }

    // --- Cuts and tiling numbers. ---
    for &p in &lfa.flc {
        if p == 0 || p >= n {
            return Err(ParseError::BadCutPosition { pos: p });
        }
    }
    for &p in &lfa.dram_cuts {
        if !lfa.flc.contains(&p) {
            return Err(ParseError::DramCutNotFlc { pos: p });
        }
    }
    let ranges = lfa.flg_ranges();
    if lfa.tiling.len() != ranges.len() {
        return Err(ParseError::TilingCountMismatch {
            expected: ranges.len(),
            got: lfa.tiling.len(),
        });
    }
    for (g, &t) in lfa.tiling.iter().enumerate() {
        if t == 0 || !t.is_power_of_two() || t > MAX_TILING {
            return Err(ParseError::BadTilingNumber { flg: g, tiling: t });
        }
    }

    // --- Group membership. ---
    let mut flg_of = vec![0u32; n];
    let mut lg_of_flg = Vec::with_capacity(ranges.len());
    let mut lg = 0u32;
    // Both sets are sorted and DRAM cuts are FLCs: walk them in step.
    let mut dram_cuts = lfa.dram_cuts.iter().peekable();
    for (g, &(start, end)) in ranges.iter().enumerate() {
        if g > 0 && dram_cuts.next_if_eq(&&start).is_some() {
            lg += 1;
        }
        lg_of_flg.push(lg);
        for p in start..end {
            flg_of[lfa.order[p].index()] = g as u32;
        }
    }

    // --- Full-input aggregation rule. ---
    for (cid, layer) in net.iter() {
        for (idx, &src) in layer.inputs.iter().enumerate() {
            if let Src::Layer(pid) = src {
                if layer.kind.needs_full_input(idx) && flg_of[pid.index()] == flg_of[cid.index()] {
                    return Err(ParseError::FullInputInsideFlg { consumer: cid });
                }
            }
        }
    }

    Ok(Groups { ranges, flg_of, lg_of_flg })
}

/// The part of one FLG's parse that depends only on its layers (a
/// computing-order slice) and its tiling number.
#[derive(Debug)]
struct Segment {
    /// Tile prototype of each layer, in computing order (`tile_idx`,
    /// `flg` and `lg` are set when the plan is assembled).
    protos: Vec<Tile>,
    /// Per-tile bytes of every input of every layer, layer by layer.
    input_bytes: Vec<u64>,
    /// Where each layer's run starts in `input_bytes`.
    input_off: Vec<u32>,
}

impl Segment {
    fn build(net: &Network, layers: &[LayerId], tiling: u32) -> Self {
        let prec = u64::from(net.precision());
        let shapes = tile_shapes(net, layers, tiling);
        let mut input_bytes = Vec::new();
        let mut input_off = Vec::with_capacity(layers.len());
        // Per-layer tile quantities are identical across tile indices:
        // compute them once per layer.
        let protos = layers
            .iter()
            .zip(shapes)
            .map(|(&id, shape)| {
                let layer = net.layer(id);
                let ops = ((net.layer_ops(id) as u128 * shape.elems() as u128)
                    / layer.ofmap.elems() as u128) as u64;
                let first = input_bytes.len();
                input_off.push(first as u32);
                input_bytes.extend(
                    (0..layer.inputs.len()).map(|idx| input_tile_bytes(net, id, &shape, idx)),
                );
                Tile {
                    layer: id,
                    tile_idx: 0,
                    flg: 0,
                    lg: 0,
                    ops,
                    shape,
                    in_bytes: input_bytes[first..].iter().sum(),
                    weight_bytes: layer.weight_bytes,
                    out_bytes: shape.elems() * prec,
                    out_bytes_nom: shape.elems_nom() * prec,
                    on_pe: layer.kind.is_gemm(),
                }
            })
            .collect();
        Self { protos, input_bytes, input_off }
    }
}

/// The assembler's state: the plan it assembled last, with its LFA's
/// order, FLG ranges and tilings, the segment each FLG came from, and per
/// layer its LG-crossing inputs and whether its ofmap is stored.
#[derive(Debug, Default)]
struct Assembly {
    plan: ComputePlan,
    order: Vec<LayerId>,
    ranges: Vec<(usize, usize)>,
    tiling: Vec<u32>,
    /// Segment id of each FLG.
    segments: Vec<u32>,
    /// Layer `i`'s LG-crossing inputs, as (input index, per-tile load
    /// bytes), are `crossing[cross_off[i]..cross_off[i + 1]]`.
    crossing: Vec<(u32, u64)>,
    cross_off: Vec<usize>,
    /// Whether each layer's ofmap is stored to DRAM.
    stores: Vec<bool>,
}

impl Assembly {
    /// Rewrites the kept plan into the plan of the validated `lfa`, whose
    /// FLG `g` is `segments[ids[g]]`, and returns the first tile that may
    /// differ.
    ///
    /// The first FLG that can differ is the first whose segment or LG
    /// index differs from the kept plan's, or an earlier one holding a
    /// layer whose crossing inputs or store flag changed (a new DRAM cut
    /// can make an early producer store its ofmap). Tiles before that
    /// FLG, and the DRAM tensors anchored before them, stay; the rest is
    /// re-emitted. On-chip intervals span groups, so they are derived
    /// afresh.
    fn assemble(
        &mut self,
        net: &Network,
        lfa: &Lfa,
        groups: Groups,
        segments: &[Segment],
        ids: &[u32],
    ) -> usize {
        let Groups { ranges, flg_of, lg_of_flg } = groups;
        let n = net.len();
        let segment = |g: usize| &segments[ids[g] as usize];
        let lg_of = |id: LayerId| lg_of_flg[flg_of[id.index()] as usize];

        // Equal segments behind an equal prefix sit at equal order
        // positions with equal tilings: a segment and an LG index decide.
        let mut first = (0..ranges.len())
            .find(|&g| {
                self.segments.get(g) != Some(&ids[g])
                    || self.plan.lg_of_flg.get(g) != Some(&lg_of_flg[g])
            })
            .unwrap_or(ranges.len());

        // A tile's position is arithmetic: FLG base + tile index x group
        // size + position in the group.
        let mut flg_base = Vec::with_capacity(ranges.len());
        let mut in_group = vec![0u32; n];
        let mut n_tiles = 0u32;
        for (&(start, end), &tiling) in ranges.iter().zip(&lfa.tiling) {
            flg_base.push(n_tiles);
            for (j, &id) in lfa.order[start..end].iter().enumerate() {
                in_group[id.index()] = j as u32;
            }
            n_tiles += (end - start) as u32 * tiling;
        }
        let group_size = |g: usize| (ranges[g].1 - ranges[g].0) as u32;
        let row = |g: usize, tile_idx: u32| flg_base[g] + tile_idx * group_size(g);
        let pos = |id: LayerId, tile_idx: u32| {
            row(flg_of[id.index()] as usize, tile_idx) + in_group[id.index()]
        };
        let last_pos = |id: LayerId| pos(id, lfa.tiling[flg_of[id.index()] as usize] - 1);

        // Per layer: which inputs cross an LG boundary (with their
        // per-tile load bytes) and whether its ofmap must be stored.
        let mut crossing: Vec<(u32, u64)> = Vec::new();
        let mut cross_off = Vec::with_capacity(n + 1);
        let mut stores = Vec::with_capacity(n);
        let mut n_tensors = 0usize;
        cross_off.push(0);
        for (id, layer) in net.iter() {
            let (i, g) = (id.index(), flg_of[id.index()] as usize);
            let seg = segment(g);
            let bytes = &seg.input_bytes[seg.input_off[in_group[i] as usize] as usize..];
            for (idx, &src) in layer.inputs.iter().enumerate() {
                let crosses = match src {
                    Src::External(_) => true,
                    Src::Layer(p) => lg_of(p) != lg_of(id),
                };
                if crosses {
                    crossing.push((idx as u32, bytes[idx]));
                }
            }
            let store =
                net.is_output(id) || net.consumers(id).iter().any(|&c| lg_of(c) != lg_of(id));
            if g < first
                && (self.stores[i] != store
                    || self.crossing[self.cross_off[i]..self.cross_off[i + 1]]
                        != crossing[cross_off[i]..])
            {
                first = g;
            }
            let per_tile = crossing.len() - cross_off[i] + usize::from(store);
            n_tensors += usize::from(layer.weight_bytes > 0) + per_tile * lfa.tiling[g] as usize;
            cross_off.push(crossing.len());
            stores.push(store);
        }

        // --- Tiles: each FLG's prototypes, interleaved tile by tile. ---
        let tile0 = flg_base.get(first).copied().unwrap_or(n_tiles);
        let tiles = &mut self.plan.tiles;
        tiles.truncate(tile0 as usize);
        tiles.reserve((n_tiles - tile0) as usize);
        for (g, (&lg, &tiling)) in lg_of_flg.iter().zip(&lfa.tiling).enumerate().skip(first) {
            let flg = g as u32;
            for tile_idx in 0..tiling {
                tiles.extend(segment(g).protos.iter().map(|p| Tile { tile_idx, flg, lg, ..*p }));
            }
        }

        // --- DRAM tensors in canonical need-order. ---
        let dram_tensors = &mut self.plan.dram_tensors;
        let tensor0 = dram_tensors.partition_point(|t| t.anchor < tile0);
        dram_tensors.truncate(tensor0);
        dram_tensors.reserve(n_tensors - tensor0);
        for (at, tile) in tiles.iter().enumerate().skip(tile0 as usize) {
            let at = at as u32;
            let id = tile.layer;
            // Weights load at the layer's first tile.
            if tile.tile_idx == 0 && tile.weight_bytes > 0 {
                dram_tensors.push(DramTensor {
                    kind: DramKind::Weight(id),
                    bytes: tile.weight_bytes,
                    is_load: true,
                    anchor: at,
                    last_use: last_pos(id),
                });
            }
            // Ifmap loads for LG-crossing or external inputs.
            for &(idx, bytes) in &crossing[cross_off[id.index()]..cross_off[id.index() + 1]] {
                dram_tensors.push(DramTensor {
                    kind: DramKind::Ifmap { layer: id, tile: tile.tile_idx, input: idx },
                    bytes,
                    is_load: true,
                    anchor: at,
                    last_use: at,
                });
            }
            // Ofmap store if the output leaves the LG (or the network).
            if stores[id.index()] {
                dram_tensors.push(DramTensor {
                    kind: DramKind::Ofmap { layer: id, tile: tile.tile_idx },
                    bytes: tile.out_bytes_nom,
                    is_load: false,
                    anchor: at,
                    last_use: at,
                });
            }
        }

        // On-chip residency, from the producer side: over the consumers in
        // the producer's LG, whether all share its FLG, the furthest
        // in-group position and the latest last tile.
        let onchip = &mut self.plan.onchip;
        onchip.clear();
        for (pid, _) in net.iter() {
            let g = flg_of[pid.index()] as usize;
            let (mut any, mut same_flg, mut reach, mut to) = (false, true, 0, 0);
            for &c in net.consumers(pid) {
                if lg_of(c) == lg_of(pid) {
                    any = true;
                    same_flg &= flg_of[c.index()] as usize == g;
                    reach = reach.max(in_group[c.index()]);
                    to = to.max(last_pos(c));
                }
            }
            if !any {
                continue;
            }
            if same_flg {
                // Tile-wise hand-off within the FLG (Fig. 2 style): tile i of
                // every consumer sits in the producer's row i.
                let j = in_group[pid.index()];
                let bytes = segment(g).protos[j as usize].out_bytes;
                for tile_idx in 0..lfa.tiling[g] {
                    let base = row(g, tile_idx);
                    onchip.push(OnchipInterval { from: base + j, to: base + reach, bytes });
                }
            } else {
                // The full ofmap accumulates across an FLC (paper: the
                // producing FLG must aggregate before the consuming FLG runs).
                onchip.push(OnchipInterval { from: pos(pid, 0), to, bytes: net.ofmap_bytes(pid) });
            }
        }

        self.plan.flg_of = flg_of;
        self.plan.lg_of_flg = lg_of_flg;
        self.order.clone_from(&lfa.order);
        self.ranges = ranges;
        self.tiling.clone_from(&lfa.tiling);
        self.segments.clear();
        self.segments.extend_from_slice(ids);
        (self.crossing, self.cross_off, self.stores) = (crossing, cross_off, stores);
        tile0 as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Lfa;
    use soma_model::zoo;

    #[test]
    fn unfused_plan_counts() {
        let net = zoo::fig2(1);
        let lfa = Lfa::unfused(&net, 4);
        let plan = parse_lfa(&net, &lfa).unwrap();
        assert_eq!(plan.n_tiles(), 12); // 3 layers x 4 tiles
        assert_eq!(plan.n_lgs(), 3);
        // Every layer loads weights once, every tile loads ifmap and
        // stores ofmap (all boundaries are DRAM cuts).
        let weights =
            plan.dram_tensors.iter().filter(|t| matches!(t.kind, DramKind::Weight(_))).count();
        assert_eq!(weights, 3);
        let ifmaps =
            plan.dram_tensors.iter().filter(|t| matches!(t.kind, DramKind::Ifmap { .. })).count();
        assert_eq!(ifmaps, 12);
        let ofmaps =
            plan.dram_tensors.iter().filter(|t| matches!(t.kind, DramKind::Ofmap { .. })).count();
        assert_eq!(ofmaps, 12);
        assert!(plan.onchip.is_empty());
    }

    #[test]
    fn fused_plan_drops_intermediate_dram_traffic() {
        let net = zoo::fig2(1);
        let fused = parse_lfa(&net, &Lfa::fully_fused(&net, 4)).unwrap();
        let unfused = parse_lfa(&net, &Lfa::unfused(&net, 4)).unwrap();
        assert!(fused.dram_bytes() < unfused.dram_bytes());
        // Intermediate fmaps stay on chip: 2 producers x 4 tiles.
        assert_eq!(fused.onchip.len(), 8);
        // Only the network input is loaded as fmaps; output stored.
        let ifmaps =
            fused.dram_tensors.iter().filter(|t| matches!(t.kind, DramKind::Ifmap { .. })).count();
        assert_eq!(ifmaps, 4);
    }

    #[test]
    fn interleaved_tile_order_within_flg() {
        let net = zoo::fig2(1);
        let plan = parse_lfa(&net, &Lfa::fully_fused(&net, 2)).unwrap();
        let seq: Vec<(u32, u32)> = plan.tiles.iter().map(|t| (t.layer.0, t.tile_idx)).collect();
        assert_eq!(seq, vec![(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn halo_inflates_fused_ops() {
        let net = zoo::fig2(1);
        let fused = parse_lfa(&net, &Lfa::fully_fused(&net, 16)).unwrap();
        let unfused = parse_lfa(&net, &Lfa::unfused(&net, 1)).unwrap();
        assert!(fused.total_ops() > unfused.total_ops());
    }

    #[test]
    fn rejects_non_topological_order() {
        let net = zoo::fig2(1);
        let mut lfa = Lfa::unfused(&net, 1);
        lfa.order.swap(0, 1);
        assert!(matches!(parse_lfa(&net, &lfa), Err(ParseError::OrderNotTopological { .. })));
    }

    #[test]
    fn rejects_bad_tiling() {
        let net = zoo::fig2(1);
        let mut lfa = Lfa::unfused(&net, 1);
        lfa.tiling[0] = 3;
        assert!(matches!(parse_lfa(&net, &lfa), Err(ParseError::BadTilingNumber { .. })));
    }

    #[test]
    fn rejects_dram_cut_outside_flc() {
        let net = zoo::fig2(1);
        let mut lfa = Lfa::fully_fused(&net, 2);
        lfa.dram_cuts.insert(1);
        assert!(matches!(parse_lfa(&net, &lfa), Err(ParseError::DramCutNotFlc { pos: 1 })));
    }

    #[test]
    fn rejects_full_input_in_same_flg() {
        // fig4's pooling is fine, but a matmul workload triggers the rule.
        let net = zoo::transformer_large(1, 64);
        let lfa = Lfa::fully_fused(&net, 1);
        assert!(matches!(parse_lfa(&net, &lfa), Err(ParseError::FullInputInsideFlg { .. })));
    }

    #[test]
    fn weight_tensor_spans_all_layer_tiles() {
        let net = zoo::fig2(1);
        let plan = parse_lfa(&net, &Lfa::fully_fused(&net, 4)).unwrap();
        let w0 = plan
            .dram_tensors
            .iter()
            .find(|t| t.kind == DramKind::Weight(soma_model::LayerId(0)))
            .unwrap();
        assert_eq!(w0.anchor, 0);
        assert_eq!(w0.last_use, 9); // layer 0's 4th tile sits at position 9
        assert!(w0.is_load);
    }

    #[test]
    fn memo_cleared_at_its_cap_parses_like_parse_lfa() {
        // Every FLC pattern of a 6-layer chain, with varied DRAM cuts and
        // tilings: far more distinct segments than any cap below.
        let net = zoo::chain(1, 16, 28, 6);
        let n = net.len();
        for cap in [1, 4, 16] {
            let mut memo = SegmentMemo::with_cap(&net, cap);
            let mut clears = 0;
            for mask in 0..1usize << (n - 1) {
                let mut lfa = Lfa::fully_fused(&net, 1);
                lfa.flc = (1..n).filter(|p| mask & (1 << (p - 1)) != 0).collect();
                lfa.dram_cuts = lfa.flc.iter().copied().filter(|p| (p + mask) % 3 == 0).collect();
                lfa.tiling = (0..lfa.flg_count()).map(|g| 1 << ((mask + g) % 4)).collect();
                let want = parse_lfa(&net, &lfa).unwrap();
                for again in [false, true] {
                    let before = memo.segments.len();
                    let at_cap = before + lfa.flg_count() > cap;
                    let (got, tile) = memo.parse(&lfa).unwrap();
                    assert_eq!(got.tiles, want.tiles, "cap {cap} mask {mask}");
                    assert_eq!(got.dram_tensors, want.dram_tensors, "cap {cap} mask {mask}");
                    assert_eq!(got.onchip, want.onchip, "cap {cap} mask {mask}");
                    assert_eq!(got.flg_of, want.flg_of, "cap {cap} mask {mask}");
                    assert_eq!(got.lg_of_flg, want.lg_of_flg, "cap {cap} mask {mask}");
                    if memo.segments.len() < before {
                        // A clear drops the kept plan: the parse keeps no tile.
                        assert_eq!(tile, 0, "cap {cap} mask {mask}");
                        clears += 1;
                    }
                    if again {
                        // A re-parse of the same LFA keeps every tile,
                        // unless the memo clears, which drops the plan.
                        let kept = if at_cap { 0 } else { want.tiles.len() };
                        assert_eq!(tile, kept, "cap {cap} mask {mask}: re-parse");
                    }
                }
            }
            assert!(clears > 0, "cap {cap} was never reached");
        }
    }

    #[test]
    fn fig4_style_mixed_cuts() {
        let net = zoo::fig4(1);
        // FLC {1, 2}, DRAM cut {2}: groups [A], [B], [C,E,D] as in Fig. 4.
        let mut lfa = Lfa::fully_fused(&net, 2);
        lfa.flc = [1, 2].into_iter().collect();
        lfa.dram_cuts = [2].into_iter().collect();
        lfa.tiling = vec![2, 1, 2];
        let plan = parse_lfa(&net, &lfa).unwrap();
        assert_eq!(plan.n_lgs(), 2);
        assert_eq!(plan.n_tiles(), 2 + 1 + 3 * 2);
        // B -> C crosses the DRAM cut: C's tiles load ifmaps from DRAM.
        let c_loads = plan
            .dram_tensors
            .iter()
            .filter(|t| {
                matches!(t.kind, DramKind::Ifmap { layer, .. } if layer == soma_model::LayerId(2))
            })
            .count();
        assert_eq!(c_loads, 2);
        // A -> B crosses only an FLC: kept on chip, full-fmap interval.
        assert!(plan.onchip.iter().any(|iv| iv.bytes == net.ofmap_bytes(soma_model::LayerId(0))));
    }
}
