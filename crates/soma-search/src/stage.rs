//! Stage composition for the SoMa framework: the [`SearchStage`] trait
//! turns the hard-coded "stage 1 then stage 2" control flow of the
//! original Buffer Allocator into data — a [`SearchSession`] runs an
//! arbitrary pipeline of stages per allocator round, and [`StageSpec`]
//! names the built-in stages so a pipeline is serialisable configuration
//! rather than code.
//!
//! [`SearchSession`]: crate::session::SearchSession

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use soma_core::{ComputePlan, Dlsa, Encoding, Lfa};
use soma_sim::EvalReport;

use crate::cocco::CoccoStage;
use crate::dlsa_stage::DlsaStage;
use crate::lfa_stage::LfaStage;
use crate::objective::{Evaluated, Objective};
use crate::SearchConfig;

/// The complete scheme a stage hands to the next one: enough to freeze
/// the layer-fusion attributes (plan) and keep refining the DRAM
/// load/store attributes (DLSA), plus the evaluation of the whole thing.
#[derive(Debug, Clone)]
#[must_use]
pub struct StageArtifact {
    /// The layer-fusion attributes of the scheme.
    pub lfa: Lfa,
    /// The plan parsed from `lfa` (cached so later stages need not
    /// re-parse).
    pub plan: ComputePlan,
    /// The DRAM load-and-store attributes of the scheme.
    pub dlsa: Dlsa,
    /// Evaluation report of the scheme.
    pub report: EvalReport,
    /// Penalised objective value.
    pub cost: f64,
}

impl StageArtifact {
    /// The artifact as a self-contained [`Evaluated`] scheme (clones the
    /// encoding parts; the plan is dropped, it can be re-parsed).
    pub fn evaluated(&self) -> Evaluated {
        Evaluated {
            encoding: Encoding { lfa: self.lfa.clone(), dlsa: Some(self.dlsa.clone()) },
            report: self.report.clone(),
            cost: self.cost,
        }
    }

    /// Consumes the artifact into an [`Evaluated`] without cloning.
    pub fn into_evaluated(self) -> Evaluated {
        Evaluated {
            encoding: Encoding { lfa: self.lfa, dlsa: Some(self.dlsa) },
            report: self.report,
            cost: self.cost,
        }
    }
}

/// Everything a stage may touch during one allocator round. The session
/// owns the objective (and its memoised core-array model), the RNG and
/// the budgets; stages share them so one RNG stream — and therefore one
/// search trajectory — runs through every round and stage at a given
/// seed.
#[derive(Debug)]
pub struct RoundCtx<'s, 'a> {
    /// The shared objective (evaluator + eval counter).
    pub obj: &'s mut Objective<'a>,
    /// The framework configuration.
    pub cfg: &'s SearchConfig,
    /// The session RNG (one stream across all rounds and stages).
    pub rng: &'s mut StdRng,
    /// The shrinking stage-1 buffer budget of this allocator round.
    pub stage1_limit: u64,
    /// The full hardware buffer capacity (the stage-2 budget).
    pub buffer_limit: u64,
    /// Artifact produced by the previous stage of this round (`None` for
    /// the first stage).
    pub current: Option<StageArtifact>,
}

impl RoundCtx<'_, '_> {
    /// Takes the previous stage's artifact, panicking with a clear
    /// message if this stage was composed without a producing stage
    /// before it.
    pub fn take_current(&mut self, consumer: &str) -> StageArtifact {
        self.current
            .take()
            .unwrap_or_else(|| panic!("stage `{consumer}` needs a preceding stage's artifact"))
    }
}

/// One stage of the exploration pipeline. Implementations mutate nothing
/// outside the [`RoundCtx`]; the session threads artifacts between them
/// and applies the Buffer Allocator policy around whole rounds.
pub trait SearchStage {
    /// Short stable name, used in [`SearchEvent::StageFinished`] events.
    ///
    /// [`SearchEvent::StageFinished`]: crate::session::SearchEvent
    fn name(&self) -> &'static str;

    /// Runs the stage once and returns the (best) scheme it found.
    fn run(&self, ctx: &mut RoundCtx<'_, '_>) -> StageArtifact;
}

/// Serializable name of a built-in stage: pipelines are data, not code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageSpec {
    /// SoMa stage 1: SA over the layer-fusion attributes under the
    /// classical double-buffer DLSA ([`LfaStage`]).
    Lfa,
    /// SoMa stage 2: SA over DRAM tensor order and living durations on
    /// the frozen stage-1 plan ([`DlsaStage`]).
    Dlsa,
    /// Cocco's restricted variant: linked FLC/DRAM-cut sets,
    /// KC-parallelism heuristic tiling, double-buffer DLSA
    /// ([`CoccoStage`]).
    CoccoLfa,
}

impl StageSpec {
    /// The full SoMa pipeline (paper Sec. V): stage 1 then stage 2.
    pub const SOMA: &'static [StageSpec] = &[StageSpec::Lfa, StageSpec::Dlsa];

    /// The Cocco baseline pipeline (paper Sec. VI-A3).
    pub const COCCO: &'static [StageSpec] = &[StageSpec::CoccoLfa];

    /// Instantiates the stage behind the name.
    pub fn instantiate(self) -> Box<dyn SearchStage> {
        match self {
            StageSpec::Lfa => Box::new(LfaStage),
            StageSpec::Dlsa => Box::new(DlsaStage),
            StageSpec::CoccoLfa => Box::new(CoccoStage),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_instantiate_with_matching_names() {
        assert_eq!(StageSpec::Lfa.instantiate().name(), "lfa");
        assert_eq!(StageSpec::Dlsa.instantiate().name(), "dlsa");
        assert_eq!(StageSpec::CoccoLfa.instantiate().name(), "cocco");
        assert_eq!(StageSpec::SOMA.len(), 2);
        assert_eq!(StageSpec::COCCO.len(), 1);
    }
}
