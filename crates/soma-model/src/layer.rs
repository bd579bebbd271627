//! Layers: the operator vocabulary of the accelerator template.

use crate::shape::FmapShape;

/// Identifier of a layer inside a [`crate::Network`] (its topological index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LayerId(pub u32);

impl LayerId {
    /// The index of this layer in the network's layer vector.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for LayerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Identifier of a network external input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExtId(pub u32);

/// Source of a layer input: another layer's ofmap or a network input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Src {
    /// The output feature map of an earlier layer.
    Layer(LayerId),
    /// A network external input (always loaded from DRAM).
    External(ExtId),
}

/// Element-wise binary/n-ary operations handled by the vector unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EltOp {
    /// Element-wise addition (residual connections, RandWire aggregation).
    Add,
    /// Element-wise multiplication (gating).
    Mul,
}

/// Unary vector-unit operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VecOp {
    /// Rectified linear unit.
    Relu,
    /// Gaussian error linear unit (transformer MLPs).
    Gelu,
    /// Row-wise softmax over the channel dimension (attention scores).
    Softmax,
    /// Layer normalisation over the channel dimension.
    LayerNorm,
}

/// The kind of computation a layer performs.
///
/// This is the operator set of the generic accelerator template (paper
/// Sec. II): GEMM/Conv work runs on the PE array, everything else on the
/// vector unit. Multi-input [`LayerKind::Conv`]/[`LayerKind::Linear`] layers
/// implicitly concatenate their inputs along the channel dimension, which is
/// how Inception-style concatenations are represented (concatenation itself
/// is free via addressing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// 2-D convolution with (possibly rectangular) kernel and same-padding.
    Conv {
        /// Kernel height.
        kh: u32,
        /// Kernel width.
        kw: u32,
        /// Stride (same in both spatial dimensions).
        stride: u32,
    },
    /// Depthwise convolution: one `k x k` filter per channel
    /// (MobileNet-class networks).
    DwConv {
        /// Square kernel size.
        k: u32,
        /// Stride.
        stride: u32,
    },
    /// Max/average pooling window.
    Pool {
        /// Square kernel size.
        k: u32,
        /// Stride.
        stride: u32,
    },
    /// Global average pooling: collapses `h x w` to `1 x 1`.
    ///
    /// Each output tile needs the *entire* input, so inside a fused group it
    /// must be separated from its producer by a fine-grained fusion cut.
    GlobalPool,
    /// Token-wise (position-independent) GEMM: a `1x1` convolution over the
    /// `h = seq` dimension. Used for FC layers and all transformer
    /// projections.
    Linear,
    /// Activation x activation matrix multiply (attention `QK^T` and `PV`).
    ///
    /// Input 0 is streamed (tiled along `h`); input 1 is needed *in full*
    /// for every output tile. `weight_bytes` may be non-zero to model a KV
    /// cache resident in DRAM (decode phase).
    Matmul,
    /// Element-wise n-ary operation.
    Eltwise(EltOp),
    /// Unary vector operation.
    Vector(VecOp),
}

impl LayerKind {
    /// Receptive-field parameters `(kernel, stride)` along the height axis,
    /// used by halo computation. Non-spatial layers are `(1, 1)`.
    pub fn spatial_h(&self) -> (u32, u32) {
        match *self {
            LayerKind::Conv { kh, stride, .. } => (kh, stride),
            LayerKind::DwConv { k, stride } | LayerKind::Pool { k, stride } => (k, stride),
            _ => (1, 1),
        }
    }

    /// Receptive-field parameters `(kernel, stride)` along the width axis.
    pub fn spatial_w(&self) -> (u32, u32) {
        match *self {
            LayerKind::Conv { kw, stride, .. } => (kw, stride),
            LayerKind::DwConv { k, stride } | LayerKind::Pool { k, stride } => (k, stride),
            _ => (1, 1),
        }
    }

    /// Whether the PE array executes this layer (GEMM/Conv class).
    pub fn is_gemm(&self) -> bool {
        matches!(
            self,
            LayerKind::Conv { .. }
                | LayerKind::DwConv { .. }
                | LayerKind::Linear
                | LayerKind::Matmul
        )
    }

    /// Whether input `idx` must be available *in full* before any output
    /// tile can be computed (paper Sec. IV-A1 aggregation rule).
    pub fn needs_full_input(&self, idx: usize) -> bool {
        match self {
            LayerKind::Matmul => idx == 1,
            LayerKind::GlobalPool => true,
            _ => false,
        }
    }
}

/// One layer of a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    /// Human-readable name (unique within a network by construction).
    pub name: String,
    /// Operator kind.
    pub kind: LayerKind,
    /// Input sources, in positional order.
    pub inputs: Vec<Src>,
    /// Output feature-map shape.
    pub ofmap: FmapShape,
    /// Bytes of DRAM-resident read-only data attached to this layer:
    /// weights for Conv/Linear, the KV cache for decode-phase Matmul.
    pub weight_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spatial_params() {
        let conv = LayerKind::Conv { kh: 3, kw: 7, stride: 2 };
        assert_eq!(conv.spatial_h(), (3, 2));
        assert_eq!(conv.spatial_w(), (7, 2));
        let lin = LayerKind::Linear;
        assert_eq!(lin.spatial_h(), (1, 1));
    }

    #[test]
    fn full_input_rules() {
        assert!(LayerKind::Matmul.needs_full_input(1));
        assert!(!LayerKind::Matmul.needs_full_input(0));
        assert!(LayerKind::GlobalPool.needs_full_input(0));
        assert!(!LayerKind::Linear.needs_full_input(0));
    }

    #[test]
    fn gemm_classification() {
        assert!(LayerKind::Linear.is_gemm());
        assert!(LayerKind::Conv { kh: 1, kw: 1, stride: 1 }.is_gemm());
        assert!(!LayerKind::Pool { k: 2, stride: 2 }.is_gemm());
        assert!(!LayerKind::Vector(VecOp::Softmax).is_gemm());
    }
}
