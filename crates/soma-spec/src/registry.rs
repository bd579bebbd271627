//! The scenario registry: stable ids for every zoo workload × platform
//! preset × batch combination.
//!
//! An id reads `<workload>@<preset>/b<batch>`, e.g. `fig2@edge/b1` or
//! `resnet50@cloud/b16`. Workload names are the canonical
//! [`soma_model::zoo::entries`] names, presets the paper's two platforms.
//! The enumerated registry ([`scenarios`]) covers the paper's batch grid
//! {1, 4, 16, 64}; [`lookup`] additionally resolves any positive batch,
//! so `resnet50@edge/b2` is a valid (if off-grid) scenario id.

use soma_arch::HardwareConfig;
use soma_model::{zoo, Network};

use crate::experiment::{ExperimentCell, SchedulerKind};
use crate::hardware::Preset;

/// The paper's batch-size grid, enumerated by [`scenarios`].
pub const REGISTRY_BATCHES: [u32; 4] = [1, 4, 16, 64];

/// One named point of the workload × platform × batch matrix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Scenario {
    /// Canonical zoo workload name (an [`zoo::entries`] row).
    pub workload: String,
    /// Platform preset.
    pub preset: Preset,
    /// Batch size.
    pub batch: u32,
}

impl Scenario {
    /// The stable id, `<workload>@<preset>/b<batch>`.
    pub fn id(&self) -> String {
        scenario_id(&self.workload, self.preset, self.batch)
    }

    /// Builds the scenario's network at its batch size.
    ///
    /// # Panics
    ///
    /// Panics if the workload name is not a zoo entry (impossible for
    /// scenarios obtained from [`scenarios`]/[`lookup`]).
    pub fn network(&self) -> Network {
        zoo::by_name_at(&self.workload, self.batch)
            .unwrap_or_else(|| panic!("unknown zoo workload `{}`", self.workload))
    }

    /// The scenario's platform configuration.
    pub fn hardware(&self) -> HardwareConfig {
        self.preset.config()
    }

    /// The scenario as an executable experiment cell: its id, network
    /// and preset platform.
    pub fn cell(&self) -> ExperimentCell {
        let hw = self.hardware();
        ExperimentCell {
            id: self.id(),
            workload: self.workload.clone(),
            platform: hw.name.clone(),
            batch: self.batch,
            net: self.network(),
            hw,
            scheduler: SchedulerKind::Soma,
        }
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}/b{}", self.workload, self.preset, self.batch)
    }
}

/// Formats a scenario id without constructing a [`Scenario`].
pub fn scenario_id(workload: &str, preset: Preset, batch: u32) -> String {
    format!("{workload}@{preset}/b{batch}")
}

/// Enumerates the full registry: every zoo entry × {edge, cloud} ×
/// {1, 4, 16, 64}, in zoo order, edge before cloud, batches ascending.
pub fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for entry in zoo::entries() {
        for preset in [Preset::Edge, Preset::Cloud] {
            for batch in REGISTRY_BATCHES {
                out.push(Scenario { workload: entry.name.to_string(), preset, batch });
            }
        }
    }
    out
}

/// Resolves a scenario id. Returns `None` if the workload is not a zoo
/// entry, the preset is unknown, or the batch is malformed or zero.
pub fn lookup(id: &str) -> Option<Scenario> {
    let (workload, rest) = id.split_once('@')?;
    let (preset, batch) = rest.split_once('/')?;
    let preset = Preset::parse(preset)?;
    let batch: u32 = batch.strip_prefix('b')?.parse().ok()?;
    if batch == 0 || !zoo::entries().iter().any(|e| e.name == workload) {
        return None;
    }
    Some(Scenario { workload: workload.to_string(), preset, batch })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_enumerates_the_paper_matrix() {
        let all = scenarios();
        assert_eq!(all.len(), zoo::entries().len() * 2 * REGISTRY_BATCHES.len());
        // Ids are unique.
        let mut ids: Vec<_> = all.iter().map(Scenario::id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), all.len());
    }

    #[test]
    fn ids_round_trip_through_lookup() {
        for sc in scenarios() {
            let back = lookup(&sc.id()).expect("registry id resolves");
            assert_eq!(back, sc);
        }
        assert_eq!(
            lookup("fig2@edge/b1"),
            Some(Scenario { workload: "fig2".into(), preset: Preset::Edge, batch: 1 })
        );
    }

    #[test]
    fn lookup_rejects_malformed_and_unknown_ids() {
        for bad in [
            "fig2",
            "fig2@edge",
            "fig2@edge/1",
            "fig2@edge/b0",
            "fig2@edge/bx",
            "fig2@warp/b1",
            "no-such-net@edge/b1",
            "fig2@edge/b1+cocco",
        ] {
            assert!(lookup(bad).is_none(), "{bad} should not resolve");
        }
        // Off-grid batches resolve (documented): the id space is dense.
        assert!(lookup("fig2@edge/b2").is_some());
    }

    #[test]
    fn scenario_resolves_network_and_hardware() {
        let sc = lookup("resnet50@cloud/b4").unwrap();
        let net = sc.network();
        assert_eq!(net.name(), "resnet50");
        assert_eq!(net.externals()[0].n, 4);
        assert_eq!(sc.hardware(), HardwareConfig::cloud());
    }
}
