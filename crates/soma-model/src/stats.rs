//! Per-layer workload statistics (paper Fig. 3a/3b).

use crate::graph::Network;
use crate::layer::LayerId;

/// Operations and layer-by-layer DRAM traffic of one layer, assuming the
/// unfused baseline execution the paper's Fig. 3(a)/(b) depicts: every layer
/// reads its ifmaps and weights from DRAM and writes its ofmap back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerStat {
    /// Layer id.
    pub layer: LayerId,
    /// Operation count.
    pub ops: u64,
    /// DRAM bytes moved (ifmaps + weights + ofmap).
    pub dram_bytes: u64,
}

/// Computes [`LayerStat`] for every layer of `net`.
pub fn layer_stats(net: &Network) -> Vec<LayerStat> {
    net.iter()
        .map(|(id, l)| LayerStat {
            layer: id,
            ops: net.layer_ops(id),
            dram_bytes: net.ifmap_bytes(id) + l.weight_bytes + net.ofmap_bytes(id),
        })
        .collect()
}

/// A point of the Fig. 3 scatter plots: per-item DRAM access and operation
/// count, each normalised by the maximum over all items.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScatterPoint {
    /// Normalised DRAM access in `[0, 1]`.
    pub dram: f64,
    /// Normalised operations in `[0, 1]`.
    pub ops: f64,
}

/// Normalises `(dram, ops)` pairs independently by their maxima, as the
/// Fig. 3 caption prescribes.
pub fn normalize(points: &[(u64, u64)]) -> Vec<ScatterPoint> {
    let max_d = points.iter().map(|p| p.0).max().unwrap_or(1).max(1) as f64;
    let max_o = points.iter().map(|p| p.1).max().unwrap_or(1).max(1) as f64;
    points
        .iter()
        .map(|&(d, o)| ScatterPoint { dram: d as f64 / max_d, ops: o as f64 / max_o })
        .collect()
}

/// Sample standard deviation of a slice (used to quantify how "spread out"
/// the Fig. 3 scatter is before vs after fusion).
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn stats_cover_all_layers() {
        let net = zoo::fig2(1);
        let stats = layer_stats(&net);
        assert_eq!(stats.len(), net.len());
        assert!(stats.iter().all(|s| s.ops > 0));
    }

    #[test]
    fn normalize_bounds() {
        let pts = normalize(&[(10, 100), (5, 50), (0, 0)]);
        assert!((pts[0].dram - 1.0).abs() < 1e-12);
        assert!((pts[0].ops - 1.0).abs() < 1e-12);
        assert!(pts.iter().all(|p| (0.0..=1.0).contains(&p.dram)));
        assert!(pts.iter().all(|p| (0.0..=1.0).contains(&p.ops)));
    }

    #[test]
    fn normalize_handles_empty_and_zero() {
        assert!(normalize(&[]).is_empty());
        let pts = normalize(&[(0, 0)]);
        assert_eq!(pts[0].dram, 0.0);
    }

    #[test]
    fn std_dev_basics() {
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
        assert!((std_dev(&[1.0, 3.0]) - std::f64::consts::SQRT_2).abs() < 1e-12);
    }
}
