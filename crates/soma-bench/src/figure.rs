//! The command line and cell runner the figure binaries share (`fig3`,
//! `fig6`, `fig7`, `fig8`, `ablation`): `<spec.soma> [--ledger <dir>]`.
//!
//! A figure's whole configuration is its committed spec, and its cells
//! run through [`run_cells`] exactly as `lab`'s do. `--ledger` means what
//! it means for `lab`: each cell is keyed into that run ledger, so a
//! rerun searches nothing and an interrupted run resumes. Without it
//! nothing is written, as with `run`. A figure that compares SoMa with
//! Cocco runs each cell's [Cocco twin](ExperimentCell::cocco) beside it.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;

use soma_search::{Evaluated, SearchOutcome};
use soma_spec::{read_experiment, ExperimentCell, ExperimentSpec};

use crate::{run_cells, LabEvent};

/// One figure binary's run: where its cells are recorded and how many
/// of them failed.
pub struct Figure {
    binary: &'static str,
    ledger: Option<PathBuf>,
    failed: usize,
}

/// A cell's SoMa outcome beside its Cocco twin's best schedule.
pub struct Pair {
    /// The SoMa cell.
    pub cell: ExperimentCell,
    /// The SoMa search of the cell.
    pub soma: SearchOutcome,
    /// The best schedule the Cocco baseline found for the same cell.
    pub cocco: Evaluated,
}

impl Figure {
    /// Parses `<spec.soma> [--ledger <dir>]` and reads the spec. Exits 2
    /// on a usage error or on an unreadable or invalid spec.
    pub fn from_args(binary: &'static str) -> (Self, ExperimentSpec) {
        let fail = |msg: &str| -> ! {
            eprintln!("{binary}: {msg}");
            std::process::exit(2)
        };
        let usage = format!("usage: {binary} <spec.soma> [--ledger <dir>]");
        let mut spec_path: Option<String> = None;
        let mut ledger: Option<PathBuf> = None;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--ledger" => match args.next() {
                    Some(dir) => ledger = Some(PathBuf::from(dir)),
                    None => fail(&usage),
                },
                _ if spec_path.is_none() && !arg.starts_with('-') => spec_path = Some(arg),
                _ => fail(&usage),
            }
        }
        let Some(path) = spec_path else { fail(&usage) };
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        let spec = read_experiment(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        (Self { binary, ledger, failed: 0 }, spec)
    }

    /// Runs `cells` under `spec`'s configuration and seeds through
    /// [`run_cells`], against the `--ledger` directory if one was given,
    /// and returns each cell's outcome by cell id. A cell whose search
    /// failed is reported on stderr, has no entry, and makes
    /// [`exit_code`](Self::exit_code) 4. Exits 2 when the ledger cannot
    /// be read or written.
    pub fn run(
        &mut self,
        spec: &ExperimentSpec,
        cells: Vec<ExperimentCell>,
    ) -> HashMap<String, SearchOutcome> {
        let binary = self.binary;
        let stop = AtomicBool::new(false);
        let summary = run_cells(spec, cells, self.ledger.as_deref(), &stop, None, |ev| {
            if let LabEvent::Failed { cell, error, .. } = ev {
                eprintln!("[{binary}] FAILED {cell}: {error}");
            }
        })
        .unwrap_or_else(|e| {
            let ledger = self.ledger.as_deref().expect("only a ledger does I/O");
            eprintln!("{binary}: {}: {e}", ledger.display());
            std::process::exit(2)
        });
        eprintln!(
            "[{binary}] {}: {} hit(s), {} searched, {} failed; ledger damage: {} row(s) \
             quarantined, {} undecodable row(s) re-searched",
            spec.name,
            summary.hits,
            summary.misses,
            summary.failed,
            summary.health.quarantined,
            summary.undecodable
        );
        self.failed += summary.failed;
        summary.rows.into_iter().map(|r| (r.cell.id, r.outcome)).collect()
    }

    /// Runs every cell of `spec` and its Cocco twin, and pairs them up
    /// in cell order. A cell whose search or whose twin's search failed
    /// is left out.
    pub fn pairs(&mut self, spec: &ExperimentSpec) -> Vec<Pair> {
        let cells = spec.cells();
        let twins: Vec<ExperimentCell> = cells.iter().map(ExperimentCell::cocco).collect();
        let both = cells.iter().zip(&twins).flat_map(|(c, t)| [c.clone(), t.clone()]).collect();
        let outcomes = self.run(spec, both);
        cells
            .into_iter()
            .zip(&twins)
            .filter_map(|(cell, twin)| {
                let soma = outcomes.get(&cell.id)?.clone();
                let cocco = outcomes.get(&twin.id)?.best.clone();
                Some(Pair { cell, soma, cocco })
            })
            .collect()
    }

    /// `4` when a cell failed (its scenario's rows are missing from the
    /// output), else success.
    pub fn exit_code(&self) -> ExitCode {
        if self.failed > 0 {
            eprintln!("{}: {} cell(s) failed and were left out", self.binary, self.failed);
            ExitCode::from(4)
        } else {
            ExitCode::SUCCESS
        }
    }
}
