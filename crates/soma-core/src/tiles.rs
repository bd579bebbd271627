//! Tile-grid selection and halo accumulation inside an FLG
//! (paper Sec. IV-A1).

use soma_model::halo::{back_extend, in_extent, tile_extent};
use soma_model::{LayerId, Network};

/// How a tiling number is split across the batch/height/width dimensions.
///
/// The paper's heuristic: tile the batch dimension first (no halo), then
/// height and width "keeping them as equal as possible to reduce overlap";
/// the channel dimension is never split so downstream layers keep access to
/// all channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGrid {
    /// Parts along batch.
    pub tb: u32,
    /// Parts along height.
    pub th: u32,
    /// Parts along width.
    pub tw: u32,
}

impl TileGrid {
    /// Total tile count (`tb * th * tw`, equals the FLG's tiling number).
    pub fn tiles(&self) -> u32 {
        self.tb * self.th * self.tw
    }

    /// Chooses a grid for tiling number `t` (a power of two) against a
    /// reference ofmap of `(n, h, w)`: batch first, then the spatially
    /// larger of height/width.
    pub fn choose(t: u32, n: u32, h: u32, w: u32) -> Self {
        debug_assert!(t.is_power_of_two());
        let mut g = TileGrid { tb: 1, th: 1, tw: 1 };
        let mut rem = t;
        while rem > 1 && g.tb * 2 <= n {
            g.tb *= 2;
            rem /= 2;
        }
        while rem > 1 {
            // Split the dimension with the larger current tile extent.
            if h / g.th >= w / g.tw {
                g.th *= 2;
            } else {
                g.tw *= 2;
            }
            rem /= 2;
        }
        g
    }
}

/// Per-tile output extents of one layer inside an FLG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileShape {
    /// Batch elements per tile.
    pub n: u32,
    /// Channels (never split).
    pub c: u32,
    /// Output rows per tile *including* the halo extension.
    pub h: u32,
    /// Output columns per tile including the halo extension.
    pub w: u32,
    /// Output rows per tile *excluding* the halo (unique elements).
    pub h_nom: u32,
    /// Output columns per tile excluding the halo.
    pub w_nom: u32,
}

impl TileShape {
    /// Elements per tile including halo (compute/buffer view).
    pub fn elems(&self) -> u64 {
        u64::from(self.n) * u64::from(self.c) * u64::from(self.h) * u64::from(self.w)
    }

    /// Elements per tile excluding halo (unique data, DRAM-store view).
    pub fn elems_nom(&self) -> u64 {
        u64::from(self.n) * u64::from(self.c) * u64::from(self.h_nom) * u64::from(self.w_nom)
    }
}

/// Per-tile output shape of each layer of an FLG: `layers` is a
/// contiguous computing-order segment tiled with tiling number `tiling`.
///
/// The grid reference is the layer with the largest ofmap spatial
/// extent, so early high-resolution layers dominate the split choice.
/// Each shape includes the layer's halo extension: the extra output
/// elements its tiles must produce for downstream in-group consumers.
pub(crate) fn tile_shapes(net: &Network, layers: &[LayerId], tiling: u32) -> Vec<TileShape> {
    let reference = layers
        .iter()
        .map(|&id| net.layer(id).ofmap)
        .max_by_key(|s| s.spatial())
        .expect("FLG cannot be empty");
    let grid = TileGrid::choose(tiling, reference.n, reference.h, reference.w);

    // Backward halo accumulation: consumers inside the same FLG push
    // their requirement through their own kernels.
    let mut ext = vec![(0u32, 0u32); layers.len()];
    let pos_of = |id: LayerId| layers.iter().position(|&l| l == id);
    for i in (0..layers.len()).rev() {
        let id = layers[i];
        let mut eh = 0;
        let mut ew = 0;
        for &cons in net.consumers(id) {
            if let Some(j) = pos_of(cons) {
                if j <= i {
                    continue; // within-order sanity; parse validates
                }
                let ck = net.layer(cons).kind;
                let (kh, sh) = ck.spatial_h();
                let (kw, sw) = ck.spatial_w();
                eh = eh.max(back_extend(ext[j].0, kh, sh));
                ew = ew.max(back_extend(ext[j].1, kw, sw));
            }
        }
        ext[i] = (eh, ew);
    }

    layers
        .iter()
        .zip(&ext)
        .map(|(&id, &(eh, ew))| {
            let of = net.layer(id).ofmap;
            let n = tile_extent(of.n, grid.tb.min(of.n));
            let h_nom = tile_extent(of.h, grid.th.min(of.h));
            let w_nom = tile_extent(of.w, grid.tw.min(of.w));
            TileShape {
                n,
                c: of.c,
                h: (h_nom + eh).min(of.h),
                w: (w_nom + ew).min(of.w),
                h_nom,
                w_nom,
            }
        })
        .collect()
}

/// Bytes of the input region a tile of layer `id` with output `shape`
/// needs from input source `input_idx`, under the network's precision
/// (the whole batch-tiled operand for inputs the layer needs in full).
pub(crate) fn input_tile_bytes(
    net: &Network,
    id: LayerId,
    shape: &TileShape,
    input_idx: usize,
) -> u64 {
    let l = net.layer(id);
    let src = net.src_shape(l.inputs[input_idx]);
    let prec = u64::from(net.precision());
    if l.kind.needs_full_input(input_idx) {
        return u64::from(shape.n) * u64::from(src.c) * u64::from(src.h) * u64::from(src.w) * prec;
    }
    let (kh, sh) = l.kind.spatial_h();
    let (kw, sw) = l.kind.spatial_w();
    let ih = in_extent(shape.h, kh, sh).min(src.h);
    let iw = in_extent(shape.w, kw, sw).min(src.w);
    u64::from(shape.n) * u64::from(src.c) * u64::from(ih) * u64::from(iw) * prec
}

#[cfg(test)]
mod tests {
    use super::*;
    use soma_model::zoo;

    #[test]
    fn grid_prefers_batch() {
        let g = TileGrid::choose(8, 4, 56, 56);
        assert_eq!(g.tb, 4);
        assert_eq!(g.th * g.tw, 2);
        assert_eq!(g.tiles(), 8);
    }

    #[test]
    fn grid_balances_h_w() {
        let g = TileGrid::choose(4, 1, 56, 56);
        assert_eq!((g.th, g.tw), (2, 2)); // the paper's Fig. 2 example
        let g = TileGrid::choose(8, 1, 112, 28);
        assert!(g.th >= g.tw);
        assert_eq!(g.tiles(), 8);
    }

    #[test]
    fn transformer_grid_keeps_w_one() {
        // seq maps to h, w = 1: splitting must stay on h.
        let g = TileGrid::choose(16, 1, 512, 1);
        assert_eq!(g.tw, 1);
        assert_eq!(g.th, 16);
    }

    /// Halo extension `(h - h_nom, w - w_nom)` of each shape.
    fn halo(shapes: &[TileShape]) -> Vec<(u32, u32)> {
        shapes.iter().map(|s| (s.h - s.h_nom, s.w - s.w_nom)).collect()
    }

    #[test]
    fn halo_accumulates_backwards() {
        // fig2: three 3x3 stride-1 convs fused; extensions 4, 2, 0.
        let net = zoo::fig2(1);
        let layers: Vec<_> = net.iter().map(|(id, _)| id).collect();
        let shapes = tile_shapes(&net, &layers, 4);
        assert_eq!(halo(&shapes), vec![(4, 4), (2, 2), (0, 0)]);
        // 56x56 split 2x2 -> nominal 28, A's tile is 28+4 = 32.
        assert_eq!(shapes[0].h, 32);
        assert_eq!(shapes[0].h_nom, 28);
        assert_eq!(shapes[2].h, 28);
    }

    #[test]
    fn single_layer_flg_has_no_halo() {
        let net = zoo::fig2(1);
        let shapes = tile_shapes(&net, &[soma_model::LayerId(1)], 4);
        assert_eq!(halo(&shapes), vec![(0, 0)]);
    }

    #[test]
    fn tile_shapes_clamp_to_fmap() {
        let net = zoo::fig2(1);
        let layers: Vec<_> = net.iter().map(|(id, _)| id).collect();
        // Extreme tiling: tiles stay within the feature map.
        for s in &tile_shapes(&net, &layers, 64) {
            assert!(s.h <= 56 && s.w <= 56);
            assert!(s.h >= s.h_nom);
        }
    }

    #[test]
    fn input_bytes_include_receptive_field() {
        let net = zoo::fig2(1);
        let layers: Vec<_> = net.iter().map(|(id, _)| id).collect();
        let shapes = tile_shapes(&net, &layers, 4);
        // Layer A tile: out 32x32 (halo), 3x3 s1 conv -> input 34x34 of 32ch.
        let bytes = input_tile_bytes(&net, layers[0], &shapes[0], 0);
        assert_eq!(bytes, 32 * 34 * 34);
    }
}
