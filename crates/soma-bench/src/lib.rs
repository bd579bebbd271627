//! The harness binaries' shared library: the one cell executor
//! ([`run_cells`], in [`lab`]) and the figure runner ([`figure`]).
//!
//! Every binary that searches runs its cells through [`run_cells`]:
//! `lab` against a run ledger, `run` without one, and the figure
//! binaries (`fig3`, `fig6`, `fig7`, `fig8`, `ablation`) from their
//! committed `specs/*.soma` files, with or without one. A run's whole
//! configuration is its spec file. This crate is the only workspace
//! member allowed to read `std::env` (CI lints the rest); the one
//! variable it reads is `run`'s `SOMA_WORKLOAD` scenario-id filter.

pub mod figure;
pub mod lab;

pub use figure::{Figure, Pair};
pub use lab::{
    csv_rows, run_cells, run_lab, ExperimentRow, LabEvent, LabSummary, Ledger, LedgerRow,
    CSV_HEADER,
};

/// One `--version` line shared by every binary in this crate: binary
/// name, crate version, the engine fingerprint baked into ledger keys,
/// and the serve wire-protocol version.
#[must_use]
pub fn version_line(binary: &str) -> String {
    format!(
        "{binary} {} (engine {}, protocol v{})",
        env!("CARGO_PKG_VERSION"),
        soma_search::record::ENGINE_VERSION,
        soma_serve::PROTOCOL_VERSION,
    )
}

/// An experiment spec run the way the `run` binary runs it: [`run_cells`]
/// over the spec's cells with no ledger.
#[cfg(test)]
mod experiment {
    mod tests {
        use std::sync::atomic::AtomicBool;

        use soma_search::{Scheduler, SearchConfig};
        use soma_spec::{read_experiment, ExperimentSpec};

        use crate::{run_cells, LabEvent, LabSummary};

        const SPEC: &str =
            "soma-experiment v1\nname t\nscenario fig2@edge/b1\nseeds 7\neffort 0.01\nend\n";

        fn run(spec: &ExperimentSpec, observer: impl FnMut(&LabEvent) + Send) -> LabSummary {
            run_cells(spec, spec.cells(), None, &AtomicBool::new(false), None, observer)
                .expect("no ledger, no I/O")
        }

        #[test]
        fn spec_run_equals_hand_written_driver() {
            let spec = read_experiment(SPEC).unwrap();
            let rows = run(&spec, |_| {}).rows;
            assert_eq!(rows.len(), 1);

            let net = soma_model::zoo::fig2(1);
            let hw = soma_arch::HardwareConfig::edge();
            let cfg = SearchConfig { effort: 0.01, seed: 7, ..SearchConfig::default() };
            let direct = Scheduler::new(&net, &hw).config(cfg).run();
            let got = &rows[0].outcome;
            assert_eq!(got.best.encoding, direct.best.encoding);
            assert_eq!(got.best.report, direct.best.report);
            assert_eq!(got.best.cost.to_bits(), direct.best.cost.to_bits());
            assert_eq!(got.evals, direct.evals);
        }

        #[test]
        fn cocco_twin_run_equals_hand_written_cocco_driver() {
            let spec = read_experiment(&SPEC.replace("seeds 7", "seeds 7 8")).unwrap();
            let twin = spec.cells()[0].cocco();
            let rows = run_cells(&spec, vec![twin], None, &AtomicBool::new(false), None, |_| {})
                .expect("no ledger, no I/O")
                .rows;
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].cell.id, "fig2@edge/b1+cocco");

            let net = soma_model::zoo::fig2(1);
            let hw = soma_arch::HardwareConfig::edge();
            let cfg = SearchConfig { effort: 0.01, seed: 7, ..SearchConfig::default() };
            let direct = Scheduler::cocco(&net, &hw).config(cfg).seeds([7, 8]).run();
            let got = &rows[0].outcome;
            for (a, b) in [(&got.stage1, &direct.stage1), (&got.best, &direct.best)] {
                assert_eq!(a.encoding, b.encoding);
                assert_eq!(a.report, b.report);
                assert_eq!(a.cost.to_bits(), b.cost.to_bits());
            }
            assert_eq!((got.evals, got.rejected), (direct.evals, direct.rejected));
        }

        #[test]
        fn sequential_driver_emits_the_lab_event_protocol() {
            let spec = read_experiment(SPEC).unwrap();
            let mut events = Vec::new();
            run(&spec, |ev| events.push(ev.clone()));
            assert!(matches!(&events[0], LabEvent::Queued { cell, .. } if cell == "fig2@edge/b1"));
            assert!(matches!(&events[1], LabEvent::Started { .. }));
            assert!(matches!(&events[2], LabEvent::Finished { evals, .. } if *evals > 0));
            assert_eq!(events.len(), 3, "no Cached events without a ledger");
        }
    }
}
