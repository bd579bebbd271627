//! The six-attribute encoding (paper Fig. 4 left).

use std::collections::BTreeSet;

use soma_model::{LayerId, Network};

use crate::dlsa::Dlsa;

/// Layer-fusion-related attributes (LFA): computing order, FLC set, tiling
/// numbers, DRAM cut set.
///
/// Cut positions are indices into the computing order: a cut at position
/// `p` separates `order[p-1]` from `order[p]`. Positions `0` and
/// `order.len()` are implicit group boundaries and are not stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfa {
    /// Coarse-grained serial execution order of all layers.
    pub order: Vec<LayerId>,
    /// Fine-grained layer-fusion cut positions (the FLC set).
    pub flc: BTreeSet<usize>,
    /// Tiling number of each FLG, in order (`flc.len() + 1` entries,
    /// powers of two).
    pub tiling: Vec<u32>,
    /// DRAM cut positions; must be a subset of `flc`.
    pub dram_cuts: BTreeSet<usize>,
}

impl Lfa {
    /// The paper's stage-1 initial solution: every layer is its own FLG and
    /// LG (no fusion), with the given uniform tiling number.
    pub fn unfused(net: &Network, tiling: u32) -> Self {
        let n = net.len();
        let order: Vec<LayerId> = (0..n as u32).map(LayerId).collect();
        let cuts: BTreeSet<usize> = (1..n).collect();
        Self { order, flc: cuts.clone(), tiling: vec![tiling; n], dram_cuts: cuts }
    }

    /// A single fully-fused group covering the whole network (useful in
    /// tests; usually infeasible for real buffers).
    pub fn fully_fused(net: &Network, tiling: u32) -> Self {
        Self {
            order: (0..net.len() as u32).map(LayerId).collect(),
            flc: BTreeSet::new(),
            tiling: vec![tiling],
            dram_cuts: BTreeSet::new(),
        }
    }

    /// Number of FLGs this LFA induces.
    pub fn flg_count(&self) -> usize {
        self.flc.len() + 1
    }

    /// FLG boundaries as half-open ranges over order positions.
    pub fn flg_ranges(&self) -> Vec<(usize, usize)> {
        let mut bounds: Vec<usize> = Vec::with_capacity(self.flc.len() + 2);
        bounds.push(0);
        bounds.extend(self.flc.iter().copied());
        bounds.push(self.order.len());
        bounds.windows(2).map(|w| (w[0], w[1])).collect()
    }
}

/// A complete scheduling scheme: LFA plus (optionally) DLSA.
///
/// When `dlsa` is `None`, parsing substitutes the classical double-buffer
/// strategy — exactly what SoMa's first exploration stage does while it
/// varies the LFA (paper Sec. V-C1).
#[derive(Debug, Clone, PartialEq)]
pub struct Encoding {
    /// Layer-fusion-related attributes.
    pub lfa: Lfa,
    /// DRAM-load-and-store-related attributes, if explicitly scheduled.
    pub dlsa: Option<Dlsa>,
}

impl Encoding {
    /// Wraps an LFA with the implicit double-buffer DLSA.
    pub fn from_lfa(lfa: Lfa) -> Self {
        Self { lfa, dlsa: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soma_model::zoo;

    #[test]
    fn unfused_has_one_group_per_layer() {
        let net = zoo::fig4(1);
        let lfa = Lfa::unfused(&net, 1);
        assert_eq!(lfa.flg_count(), 5);
        assert_eq!(lfa.dram_cuts.len() + 1, 5, "one LG per layer");
        assert_eq!(lfa.flg_ranges(), vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    }

    #[test]
    fn fully_fused_is_one_group() {
        let net = zoo::fig4(1);
        let lfa = Lfa::fully_fused(&net, 4);
        assert_eq!(lfa.flg_count(), 1);
        assert_eq!(lfa.flg_ranges(), vec![(0, 5)]);
    }

    #[test]
    fn flg_ranges_respect_cuts() {
        let net = zoo::fig4(1);
        let mut lfa = Lfa::fully_fused(&net, 2);
        lfa.flc.insert(1);
        lfa.flc.insert(2);
        lfa.tiling = vec![2, 1, 2];
        assert_eq!(lfa.flg_ranges(), vec![(0, 1), (1, 2), (2, 5)]);
    }
}
