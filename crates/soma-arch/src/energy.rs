//! Unit-energy model.
//!
//! The paper obtains unit energies from RTL synthesis of their commercial
//! accelerator (TSMC 12 nm, 1 GHz). We substitute published-order-of-
//! magnitude constants for the same technology class; every figure in the
//! paper reports *normalised* energy, and all compared schemes share these
//! constants, so ratios are preserved (see DESIGN.md, substitutions).

/// Energy cost per unit of work, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// One INT8 multiply-accumulate (PE array).
    pub mac_pj: f64,
    /// One element of vector-unit work.
    pub vector_pj: f64,
    /// One byte read from or written to the GBUF.
    pub gbuf_pj_per_byte: f64,
    /// One byte moved between a core's L0 and its datapath.
    pub l0_pj_per_byte: f64,
    /// One byte read from DRAM.
    pub dram_read_pj_per_byte: f64,
    /// One byte written to DRAM.
    pub dram_write_pj_per_byte: f64,
}

impl EnergyModel {
    /// TSMC-12nm-class constants (the paper's default technology).
    /// INT8 MACs at this node cost ~0.1 pJ; SRAM accesses sit an order of
    /// magnitude above datapath ops and DRAM an order above SRAM — the
    /// hierarchy every published survey reports, and the property the
    /// paper's energy results rely on.
    pub fn tsmc12() -> Self {
        Self {
            mac_pj: 0.12,
            vector_pj: 0.08,
            gbuf_pj_per_byte: 0.7,
            l0_pj_per_byte: 0.06,
            dram_read_pj_per_byte: 8.0,
            dram_write_pj_per_byte: 9.0,
        }
    }

    /// Energy of a DRAM transfer, given read and written byte counts.
    pub fn dram(&self, read_bytes: u64, write_bytes: u64) -> f64 {
        read_bytes as f64 * self.dram_read_pj_per_byte
            + write_bytes as f64 * self.dram_write_pj_per_byte
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::tsmc12()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_energy_splits_read_write() {
        let e = EnergyModel::tsmc12();
        assert_eq!(e.dram(10, 0), 80.0);
        assert_eq!(e.dram(0, 10), 90.0);
        assert_eq!(e.dram(10, 10), 170.0);
    }

    #[test]
    fn dram_is_much_pricier_than_gbuf() {
        let e = EnergyModel::default();
        assert!(e.dram_read_pj_per_byte > 5.0 * e.gbuf_pj_per_byte);
        assert!(e.gbuf_pj_per_byte > e.l0_pj_per_byte);
    }
}
