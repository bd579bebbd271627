//! The network DAG and derived queries.

use crate::layer::{ExtId, Layer, LayerId, LayerKind, Src, VecOp};
use crate::shape::FmapShape;

/// Errors produced by [`Network::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// An input refers to a layer at or after the consumer (not topological).
    ForwardReference { layer: LayerId, input: LayerId },
    /// An input refers to a non-existent layer or external.
    DanglingInput { layer: LayerId },
    /// A layer has the wrong number of inputs for its kind.
    BadArity { layer: LayerId, expected: &'static str, got: usize },
    /// A declared output id does not exist.
    BadOutput { output: LayerId },
    /// A batch dimension differs between a layer and its input.
    BatchMismatch { layer: LayerId },
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::ForwardReference { layer, input } => {
                write!(f, "layer {layer} consumes later layer {input}")
            }
            NetworkError::DanglingInput { layer } => {
                write!(f, "layer {layer} has a dangling input reference")
            }
            NetworkError::BadArity { layer, expected, got } => {
                write!(f, "layer {layer} expects {expected} inputs, got {got}")
            }
            NetworkError::BadOutput { output } => {
                write!(f, "declared output {output} does not exist")
            }
            NetworkError::BatchMismatch { layer } => {
                write!(f, "layer {layer} batch differs from its input")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// A validated DNN workload: a DAG of [`Layer`]s stored in topological order.
///
/// Construct networks with [`crate::NetworkBuilder`] or pick one from
/// [`crate::zoo`].
///
/// ```
/// use soma_model::zoo;
///
/// let net = zoo::fig2(1);
/// assert_eq!(net.len(), 3);
/// assert_eq!(net.consumers(soma_model::LayerId(0)), &[soma_model::LayerId(1)]);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    pub(crate) name: String,
    /// Bytes per element (1 = INT8, the paper's default precision).
    pub(crate) precision: u32,
    pub(crate) externals: Vec<FmapShape>,
    pub(crate) layers: Vec<Layer>,
    /// Layers whose ofmaps always leave to DRAM (network outputs). Layers
    /// without consumers are outputs implicitly.
    pub(crate) outputs: Vec<LayerId>,
    /// Consumer adjacency, derived at build time.
    pub(crate) consumers: Vec<Vec<LayerId>>,
}

impl Network {
    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bytes per element.
    pub fn precision(&self) -> u32 {
        self.precision
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// All layers, in topological order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// The layer with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn layer(&self, id: LayerId) -> &Layer {
        &self.layers[id.index()]
    }

    /// Iterator over `(LayerId, &Layer)` in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (LayerId, &Layer)> {
        self.layers.iter().enumerate().map(|(i, l)| (LayerId(i as u32), l))
    }

    /// Shapes of the network external inputs.
    pub fn externals(&self) -> &[FmapShape] {
        &self.externals
    }

    /// Layers that consume the ofmap of `id`.
    pub fn consumers(&self, id: LayerId) -> &[LayerId] {
        &self.consumers[id.index()]
    }

    /// The *declared* network outputs, in declaration order (layers
    /// without consumers are additionally outputs implicitly — see
    /// [`is_output`](Self::is_output)).
    pub fn outputs(&self) -> &[LayerId] {
        &self.outputs
    }

    /// Whether `id` is a network output (declared, or has no consumers).
    pub fn is_output(&self, id: LayerId) -> bool {
        self.outputs.contains(&id) || self.consumers[id.index()].is_empty()
    }

    /// Shape of an input source.
    pub fn src_shape(&self, src: Src) -> FmapShape {
        match src {
            Src::Layer(id) => self.layers[id.index()].ofmap,
            Src::External(ExtId(i)) => self.externals[i as usize],
        }
    }

    /// Total input channels of a layer (multi-input layers concatenate).
    pub fn in_channels(&self, id: LayerId) -> u64 {
        self.layers[id.index()].inputs.iter().map(|&s| u64::from(self.src_shape(s).c)).sum()
    }

    /// Operation count of a layer (multiply-accumulate counted as 2 ops,
    /// vector-unit element operations counted per element touched).
    pub fn layer_ops(&self, id: LayerId) -> u64 {
        let l = &self.layers[id.index()];
        let of = l.ofmap;
        match l.kind {
            LayerKind::Conv { kh, kw, .. } => {
                2 * of.elems() * self.in_channels(id) * u64::from(kh) * u64::from(kw)
            }
            LayerKind::DwConv { k, .. } => 2 * of.elems() * u64::from(k) * u64::from(k),
            LayerKind::Linear => 2 * of.elems() * self.in_channels(id),
            LayerKind::Matmul => {
                // reduction dimension = channel count of the streamed input
                let red = u64::from(self.src_shape(l.inputs[0]).c);
                2 * of.elems() * red
            }
            LayerKind::Pool { k, .. } => of.elems() * u64::from(k) * u64::from(k),
            LayerKind::GlobalPool => self.src_shape(l.inputs[0]).elems(),
            LayerKind::Eltwise(_) => of.elems() * l.inputs.len() as u64,
            LayerKind::Vector(op) => {
                let f = match op {
                    VecOp::Relu => 1,
                    VecOp::Gelu => 4,
                    VecOp::Softmax => 4,
                    VecOp::LayerNorm => 4,
                };
                of.elems() * f
            }
        }
    }

    /// Total operations in the network.
    pub fn total_ops(&self) -> u64 {
        (0..self.layers.len()).map(|i| self.layer_ops(LayerId(i as u32))).sum()
    }

    /// Total weight bytes in the network.
    pub fn total_weight_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.weight_bytes).sum()
    }

    /// Ofmap bytes of a layer.
    pub fn ofmap_bytes(&self, id: LayerId) -> u64 {
        self.layers[id.index()].ofmap.bytes(self.precision)
    }

    /// Total ifmap bytes of a layer (sum over all inputs).
    pub fn ifmap_bytes(&self, id: LayerId) -> u64 {
        self.layers[id.index()]
            .inputs
            .iter()
            .map(|&s| self.src_shape(s).bytes(self.precision))
            .sum()
    }

    /// Checks all structural invariants. Builders call this; call it again
    /// after any manual surgery.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetworkError> {
        for (i, l) in self.layers.iter().enumerate() {
            let id = LayerId(i as u32);
            for &src in &l.inputs {
                match src {
                    Src::Layer(p) => {
                        if p.index() >= self.layers.len() {
                            return Err(NetworkError::DanglingInput { layer: id });
                        }
                        if p.index() >= i {
                            return Err(NetworkError::ForwardReference { layer: id, input: p });
                        }
                        if self.layers[p.index()].ofmap.n != l.ofmap.n {
                            return Err(NetworkError::BatchMismatch { layer: id });
                        }
                    }
                    Src::External(ExtId(e)) => {
                        if e as usize >= self.externals.len() {
                            return Err(NetworkError::DanglingInput { layer: id });
                        }
                    }
                }
            }
            let arity_ok = match l.kind {
                LayerKind::Matmul => l.inputs.len() == 2,
                LayerKind::Eltwise(_) => l.inputs.len() >= 2,
                LayerKind::Pool { .. }
                | LayerKind::DwConv { .. }
                | LayerKind::GlobalPool
                | LayerKind::Vector(_) => l.inputs.len() == 1,
                LayerKind::Conv { .. } | LayerKind::Linear => !l.inputs.is_empty(),
            };
            if !arity_ok {
                return Err(NetworkError::BadArity {
                    layer: id,
                    expected: match l.kind {
                        LayerKind::Matmul => "exactly 2",
                        LayerKind::Eltwise(_) => "at least 2",
                        LayerKind::Conv { .. } | LayerKind::Linear => "at least 1",
                        LayerKind::Pool { .. }
                        | LayerKind::DwConv { .. }
                        | LayerKind::GlobalPool
                        | LayerKind::Vector(_) => "exactly 1",
                    },
                    got: l.inputs.len(),
                });
            }
        }
        for &o in &self.outputs {
            if o.index() >= self.layers.len() {
                return Err(NetworkError::BadOutput { output: o });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

    fn tiny() -> Network {
        let mut b = NetworkBuilder::new("tiny", 1);
        let x = b.external(FmapShape::new(1, 3, 8, 8));
        let c1 = b.conv("c1", &[x], 16, 3, 1);
        let c2 = b.conv("c2", &[c1], 16, 3, 1);
        let p = b.pool("p", c2, 2, 2);
        b.mark_output(p);
        b.finish()
    }

    #[test]
    fn consumers_and_outputs() {
        let n = tiny();
        assert_eq!(n.consumers(LayerId(0)).len(), 1);
        assert!(n.is_output(LayerId(2)));
        assert!(!n.is_output(LayerId(0)));
    }

    #[test]
    fn ops_conv_formula() {
        let n = tiny();
        // c1: 2 * (1*16*8*8) * 3 * 3 * 3
        assert_eq!(n.layer_ops(LayerId(0)), 2 * 16 * 64 * 3 * 9);
    }

    #[test]
    fn weight_totals() {
        let n = tiny();
        // c1: 3*16*9, c2: 16*16*9, pool: 0
        assert_eq!(n.total_weight_bytes(), (3 * 16 * 9 + 16 * 16 * 9) as u64);
    }

    #[test]
    fn validate_ok() {
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn validate_rejects_forward_reference() {
        let mut n = tiny();
        n.layers[0].inputs = vec![Src::Layer(LayerId(2))];
        assert!(matches!(n.validate(), Err(NetworkError::ForwardReference { .. })));
    }

    #[test]
    fn validate_rejects_bad_arity() {
        let mut n = tiny();
        n.layers[2].inputs = vec![];
        assert!(matches!(n.validate(), Err(NetworkError::BadArity { .. })));
    }
}
