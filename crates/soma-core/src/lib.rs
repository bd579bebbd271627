//! The tensor-centric notation of the DRAM communication scheduling space
//! (paper Sec. IV) and its parsing into concrete hardware behaviour.
//!
//! A scheduling scheme is an [`Encoding`] with six attributes in two
//! categories:
//!
//! * **LFA** (layer-fusion-related): *Computing Order*, *Fine-grained
//!   Layer-fusion Cut (FLC) set*, per-FLG *Tiling Number*, and the *DRAM
//!   Cut set* (a subset of the FLC set).
//! * **DLSA** (DRAM-load-and-store-related): the *DRAM Tensor Order* and a
//!   per-tensor *Living Duration*.
//!
//! Parsing proceeds in the paper's two stages:
//!
//! 1. [`parse_lfa`] turns the LFA into a [`ComputePlan`]: the full tile
//!    sequence (the COMPUTE row of Fig. 4), every tensor requiring DRAM
//!    interaction, and the on-chip buffer residency of fused feature maps.
//!    A [`SegmentMemo`] gives the same plans while re-using each fusion
//!    group's tiles across parses (the stage-1 search path): it keeps
//!    the last plan and rewrites it from the first group a new LFA can
//!    change, reporting that group's first tile.
//! 2. A [`Dlsa`] assigns each DRAM tensor its queue position and living
//!    duration; [`lifetime::buffer_profile`] then yields per-tile buffer
//!    occupancy and the simulator in `soma-sim` derives exact timing.
//!
//! ```
//! use soma_core::{parse_lfa, Dlsa, Lfa};
//! use soma_model::zoo;
//!
//! let net = zoo::fig4(1);
//! let lfa = Lfa::unfused(&net, 2);
//! let plan = parse_lfa(&net, &lfa)?;
//! let dlsa = Dlsa::double_buffer(&plan);
//! assert_eq!(dlsa.order.len(), plan.dram_tensors.len());
//! # Ok::<(), soma_core::ParseError>(())
//! ```

pub mod dlsa;
pub mod encoding;
pub mod error;
pub mod lifetime;
pub mod plan;
pub mod tiles;

pub use dlsa::{Dlsa, DlsaMove};
pub use encoding::{Encoding, Lfa};
pub use error::ParseError;
pub use lifetime::OccupancyProfile;
pub use plan::{parse_lfa, ComputePlan, DramKind, DramTensor, OnchipInterval, SegmentMemo, Tile};
pub use tiles::{TileGrid, TileShape};

/// A fully parsed schedule: the compute plan plus a validated DLSA.
///
/// This is the object the evaluator consumes.
#[derive(Debug, Clone)]
pub struct ParsedSchedule {
    /// Stage-1 parse result.
    pub plan: ComputePlan,
    /// Stage-2 attributes, validated against `plan`.
    pub dlsa: Dlsa,
}

impl ParsedSchedule {
    /// Parses a complete encoding against a network.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] if the LFA is structurally invalid or the
    /// DLSA does not match the derived DRAM tensor set.
    pub fn new(net: &soma_model::Network, enc: &Encoding) -> Result<Self, ParseError> {
        let plan = parse_lfa(net, &enc.lfa)?;
        let dlsa = match &enc.dlsa {
            Some(d) => {
                d.validate(&plan)?;
                d.clone()
            }
            None => Dlsa::double_buffer(&plan),
        };
        Ok(Self { plan, dlsa })
    }
}
