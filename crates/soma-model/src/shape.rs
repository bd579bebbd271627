//! Feature-map shapes.

/// Shape of a feature map in `NCHW` layout.
///
/// Convolutional networks use the natural mapping. Transformer workloads map
/// the sequence dimension to `h` and the hidden dimension to `c` with
/// `w = 1`, so that the scheduler's batch/height/width tiling (paper
/// Sec. IV-A1) naturally tiles the token dimension.
///
/// ```
/// use soma_model::FmapShape;
///
/// let s = FmapShape::new(1, 64, 56, 56);
/// assert_eq!(s.elems(), 64 * 56 * 56);
/// assert_eq!(s.bytes(1), 64 * 56 * 56); // INT8
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FmapShape {
    /// Batch size.
    pub n: u32,
    /// Channels (hidden dimension for transformers).
    pub c: u32,
    /// Height (sequence length for transformers).
    pub h: u32,
    /// Width (always 1 for transformers).
    pub w: u32,
}

impl FmapShape {
    /// Creates a new shape.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(n: u32, c: u32, h: u32, w: u32) -> Self {
        assert!(
            n > 0 && c > 0 && h > 0 && w > 0,
            "feature map dimensions must be non-zero: ({n},{c},{h},{w})"
        );
        Self { n, c, h, w }
    }

    /// Shape of a flat (fully-connected style) activation vector.
    pub fn vector(n: u32, c: u32) -> Self {
        Self::new(n, c, 1, 1)
    }

    /// Shape of a transformer activation: `seq` tokens of `hidden` channels.
    pub fn tokens(n: u32, hidden: u32, seq: u32) -> Self {
        Self::new(n, hidden, seq, 1)
    }

    /// Number of elements.
    pub fn elems(&self) -> u64 {
        u64::from(self.n) * u64::from(self.c) * u64::from(self.h) * u64::from(self.w)
    }

    /// Size in bytes for the given element precision (bytes per element).
    pub fn bytes(&self, precision: u32) -> u64 {
        self.elems() * u64::from(precision)
    }

    /// Spatial extent `h * w`.
    pub fn spatial(&self) -> u64 {
        u64::from(self.h) * u64::from(self.w)
    }

    /// Returns the shape with a different batch size.
    #[cfg(test)]
    fn with_batch(mut self, n: u32) -> Self {
        assert!(n > 0, "batch must be non-zero");
        self.n = n;
        self
    }
}

impl std::fmt::Display for FmapShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}x{}", self.n, self.c, self.h, self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elems_and_bytes() {
        let s = FmapShape::new(2, 3, 4, 5);
        assert_eq!(s.elems(), 120);
        assert_eq!(s.bytes(1), 120);
        assert_eq!(s.bytes(2), 240);
    }

    #[test]
    fn token_shape_maps_seq_to_h() {
        let s = FmapShape::tokens(4, 768, 512);
        assert_eq!(s.h, 512);
        assert_eq!(s.w, 1);
        assert_eq!(s.c, 768);
    }

    #[test]
    fn with_batch_scales_only_n() {
        let s = FmapShape::new(1, 8, 8, 8).with_batch(16);
        assert_eq!(s.n, 16);
        assert_eq!(s.elems(), 16 * 8 * 8 * 8);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dim_panics() {
        let _ = FmapShape::new(1, 0, 1, 1);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(FmapShape::new(1, 2, 3, 4).to_string(), "1x2x3x4");
    }
}
