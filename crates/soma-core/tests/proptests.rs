//! Property tests for the notation internals: tile grids and
//! halo-enlarged tile shapes.

use proptest::prelude::*;
use soma_core::{parse_lfa, Lfa, TileGrid};
use soma_model::zoo;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The chosen grid always multiplies back to the tiling number and
    /// never splits batch beyond its size.
    #[test]
    fn grid_product_and_batch_bound(
        t_pow in 0u32..10,
        n_pow in 0u32..7,
        h in 1u32..512,
        w in 1u32..512,
    ) {
        let t = 1 << t_pow;
        let n = 1 << n_pow;
        let g = TileGrid::choose(t, n, h, w);
        prop_assert_eq!(g.tiles(), t);
        prop_assert!(g.tb <= n.max(1));
    }

    /// Grid choice favours the spatially larger dimension (as long as the
    /// tiling fits it).
    #[test]
    fn grid_prefers_larger_dimension(t_pow in 1u32..8, h in 2u32..256) {
        let t = 1u32 << t_pow;
        prop_assume!(t <= h);
        // Width 1 (transformer layout): everything must land on h or batch.
        let g = TileGrid::choose(t, 1, h, 1);
        prop_assert_eq!(g.tw, 1);
        prop_assert_eq!(g.th, t);
    }

    /// Halo-enlarged tiles never shrink below nominal and never exceed
    /// the feature map.
    #[test]
    fn tile_shapes_are_bounded(depth in 2u32..6, t_pow in 0u32..6) {
        let net = zoo::chain(1, 8, 40, depth);
        let lfa = Lfa::fully_fused(&net, 1 << t_pow);
        let plan = parse_lfa(&net, &lfa).unwrap();
        for tile in &plan.tiles {
            let of = net.layer(tile.layer).ofmap;
            prop_assert!(tile.shape.h >= tile.shape.h_nom);
            prop_assert!(tile.shape.h <= of.h);
            prop_assert!(tile.shape.w <= of.w);
            prop_assert!(tile.ops > 0);
        }
    }
}
