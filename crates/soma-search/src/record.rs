//! Persistence of search results: [`SearchOutcome`] ⇄ JSON **and**
//! ⇄ compact binary, for the experiment run ledger
//! (`soma-bench --bin lab`).
//!
//! Both conversions are **lossless and deterministic**: every field of
//! the outcome — schemes, full evaluation reports including the exact
//! timeline, and the `f64` cost/energy values bit-for-bit (via the
//! [`json`](crate::json) model's round-trip-exact float rendering, and
//! the raw IEEE-754 bit pattern on the binary side) — survives
//! `outcome_from_json(parse(to_string(outcome_to_json(o))))` and
//! `outcome_from_bytes(&outcome_to_bytes(o))`, and equal outcomes
//! always render byte-identically. That is what lets a ledger hit
//! replace a search without perturbing a single downstream byte (CSV
//! rows, envelope bests, resumed ledgers), and what makes migrating a
//! v2 JSONL ledger into the v3 binary store an identity on the rows.
//!
//! Binary is the on-disk frame payload of ledger format v3
//! (`specs/LEDGER.md`); JSON is its human-readable view (`ledger
//! dump`, the serve protocol's result frames) and the legacy-migration
//! input.

use soma_core::{Dlsa, Encoding, Lfa};
use soma_model::LayerId;
use soma_sim::{EnergyBreakdown, EvalReport, Timeline};

use crate::allocator::SearchOutcome;
use crate::json::Value;
use crate::objective::Evaluated;
use crate::session::SearchEvent;
use crate::wire::{self, Reader, WireError};

/// Version tag of the search/evaluation engine, hashed into ledger cell
/// keys. Bump whenever a change alters what any search returns at a
/// fixed seed (mutation operators, cooling schedule, cost model,
/// evaluator semantics) so stale ledger rows stop matching instead of
/// silently masking the change.
pub const ENGINE_VERSION: &str = "soma-engine-1";

/// A malformed persisted outcome (schema drift, truncated data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordError {
    /// What was wrong, as a `path: problem` description.
    pub msg: String,
}

impl RecordError {
    fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad outcome record: {}", self.msg)
    }
}

impl std::error::Error for RecordError {}

impl From<String> for RecordError {
    fn from(msg: String) -> Self {
        Self { msg }
    }
}

fn u64_vec(v: &Value, key: &str) -> Result<Vec<u64>, RecordError> {
    v.field(key, Value::as_arr)?
        .iter()
        .map(|item| {
            item.as_u64()
                .ok_or_else(|| RecordError::new(format!("`{key}` element is not an integer")))
        })
        .collect()
}

fn u32_vec(v: &Value, key: &str) -> Result<Vec<u32>, RecordError> {
    u64_vec(v, key)?
        .into_iter()
        .map(|n| {
            u32::try_from(n).map_err(|_| RecordError::new(format!("`{key}` element exceeds u32")))
        })
        .collect()
}

fn u64_arr(items: &[u64]) -> Value {
    Value::Arr(items.iter().map(|&n| Value::UInt(n)).collect())
}

fn u32_arr(items: impl IntoIterator<Item = u32>) -> Value {
    Value::Arr(items.into_iter().map(Value::from).collect())
}

fn lfa_to_json(lfa: &Lfa) -> Value {
    let mut o = Value::obj();
    o.push("order", u32_arr(lfa.order.iter().map(|id| id.0)));
    o.push("flc", Value::Arr(lfa.flc.iter().map(|&p| Value::from(p)).collect()));
    o.push("tiling", u32_arr(lfa.tiling.iter().copied()));
    o.push("dram_cuts", Value::Arr(lfa.dram_cuts.iter().map(|&p| Value::from(p)).collect()));
    o
}

fn lfa_from_json(v: &Value) -> Result<Lfa, RecordError> {
    let order = u32_vec(v, "order")?.into_iter().map(LayerId).collect();
    let flc = u64_vec(v, "flc")?.into_iter().map(|n| n as usize).collect();
    let tiling = u32_vec(v, "tiling")?;
    let dram_cuts = u64_vec(v, "dram_cuts")?.into_iter().map(|n| n as usize).collect();
    Ok(Lfa { order, flc, tiling, dram_cuts })
}

fn dlsa_to_json(dlsa: &Dlsa) -> Value {
    let mut o = Value::obj();
    o.push("order", u32_arr(dlsa.order.iter().copied()));
    o.push("start", u32_arr(dlsa.start.iter().copied()));
    o.push("end", u32_arr(dlsa.end.iter().copied()));
    o
}

fn dlsa_from_json(v: &Value) -> Result<Dlsa, RecordError> {
    Ok(Dlsa { order: u32_vec(v, "order")?, start: u32_vec(v, "start")?, end: u32_vec(v, "end")? })
}

fn encoding_to_json(enc: &Encoding) -> Value {
    let mut o = Value::obj();
    o.push("lfa", lfa_to_json(&enc.lfa));
    o.push("dlsa", enc.dlsa.as_ref().map_or(Value::Null, dlsa_to_json));
    o
}

fn encoding_from_json(v: &Value) -> Result<Encoding, RecordError> {
    let lfa = lfa_from_json(v.field("lfa", Some)?)?;
    let dlsa_v = v.field("dlsa", Some)?;
    let dlsa = if dlsa_v.is_null() { None } else { Some(dlsa_from_json(dlsa_v)?) };
    Ok(Encoding { lfa, dlsa })
}

fn timeline_to_json(tl: &Timeline) -> Value {
    let mut o = Value::obj();
    o.push("tensor_start", u64_arr(&tl.tensor_start));
    o.push("tensor_end", u64_arr(&tl.tensor_end));
    o.push("tile_start", u64_arr(&tl.tile_start));
    o.push("tile_end", u64_arr(&tl.tile_end));
    o.push("latency", tl.latency.into());
    o.push("dram_busy", tl.dram_busy.into());
    o.push("compute_busy", tl.compute_busy.into());
    o
}

fn timeline_from_json(v: &Value) -> Result<Timeline, RecordError> {
    Ok(Timeline {
        tensor_start: u64_vec(v, "tensor_start")?,
        tensor_end: u64_vec(v, "tensor_end")?,
        tile_start: u64_vec(v, "tile_start")?,
        tile_end: u64_vec(v, "tile_end")?,
        latency: v.field("latency", Value::as_u64)?,
        dram_busy: v.field("dram_busy", Value::as_u64)?,
        compute_busy: v.field("compute_busy", Value::as_u64)?,
    })
}

fn report_to_json(r: &EvalReport) -> Value {
    let mut energy = Value::obj();
    energy.push("core_pj", r.energy.core_pj.into());
    energy.push("dram_pj", r.energy.dram_pj.into());
    let mut o = Value::obj();
    o.push("latency_cycles", r.latency_cycles.into());
    o.push("energy", energy);
    o.push("compute_util", r.compute_util.into());
    o.push("dram_util", r.dram_util.into());
    o.push("theoretical_max_util", r.theoretical_max_util.into());
    o.push("peak_buffer", r.peak_buffer.into());
    o.push("avg_buffer", r.avg_buffer.into());
    o.push("dram_bytes", r.dram_bytes.into());
    o.push("timeline", timeline_to_json(&r.timeline));
    o
}

fn report_from_json(v: &Value) -> Result<EvalReport, RecordError> {
    let energy_v = v.field("energy", Some)?;
    Ok(EvalReport {
        latency_cycles: v.field("latency_cycles", Value::as_u64)?,
        energy: EnergyBreakdown {
            core_pj: energy_v.field("core_pj", Value::as_f64)?,
            dram_pj: energy_v.field("dram_pj", Value::as_f64)?,
        },
        compute_util: v.field("compute_util", Value::as_f64)?,
        dram_util: v.field("dram_util", Value::as_f64)?,
        theoretical_max_util: v.field("theoretical_max_util", Value::as_f64)?,
        peak_buffer: v.field("peak_buffer", Value::as_u64)?,
        avg_buffer: v.field("avg_buffer", Value::as_u64)?,
        dram_bytes: v.field("dram_bytes", Value::as_u64)?,
        timeline: timeline_from_json(v.field("timeline", Some)?)?,
    })
}

fn evaluated_to_json(e: &Evaluated) -> Value {
    let mut o = Value::obj();
    o.push("encoding", encoding_to_json(&e.encoding));
    o.push("report", report_to_json(&e.report));
    o.push("cost", e.cost.into());
    o
}

fn evaluated_from_json(v: &Value) -> Result<Evaluated, RecordError> {
    Ok(Evaluated {
        encoding: encoding_from_json(v.field("encoding", Some)?)?,
        report: report_from_json(v.field("report", Some)?)?,
        cost: v.field("cost", Value::as_f64)?,
    })
}

/// Renders an outcome as a JSON value (see the module docs for the
/// losslessness/determinism contract).
pub fn outcome_to_json(out: &SearchOutcome) -> Value {
    let mut o = Value::obj();
    o.push("stage1", evaluated_to_json(&out.stage1));
    o.push("best", evaluated_to_json(&out.best));
    o.push("allocator_iters", out.allocator_iters.into());
    o.push("evals", out.evals.into());
    o.push("rejected", out.rejected.into());
    o
}

/// Reconstructs an outcome from [`outcome_to_json`]'s rendering.
///
/// # Errors
///
/// [`RecordError`] on any missing or mistyped field.
pub fn outcome_from_json(v: &Value) -> Result<SearchOutcome, RecordError> {
    Ok(SearchOutcome {
        stage1: evaluated_from_json(v.field("stage1", Some)?)?,
        best: evaluated_from_json(v.field("best", Some)?)?,
        allocator_iters: v.field("allocator_iters", Value::as_u64)? as usize,
        evals: v.field("evals", Value::as_u64)?,
        rejected: v.field("rejected", Value::as_u64)?,
    })
}

/// Renders a [`SearchEvent`] as a snake_case-tagged JSON object — the
/// wire form the `soma-serve` daemon streams as progress frames. Same
/// contract as [`outcome_to_json`]: lossless, and equal events render
/// byte-identically.
pub fn event_to_json(ev: &SearchEvent) -> Value {
    let mut o = Value::obj();
    match ev {
        SearchEvent::RoundStarted { round, stage1_budget } => {
            o.push("event", "round_started".into());
            o.push("round", (*round as u64).into());
            o.push("stage1_budget", (*stage1_budget).into());
        }
        SearchEvent::StageFinished { round, stage, cost, evals } => {
            o.push("event", "stage_finished".into());
            o.push("round", (*round as u64).into());
            o.push("stage", stage.as_str().into());
            o.push("cost", (*cost).into());
            o.push("evals", (*evals).into());
        }
        SearchEvent::NewBest { round, cost, latency_cycles } => {
            o.push("event", "new_best".into());
            o.push("round", (*round as u64).into());
            o.push("cost", (*cost).into());
            o.push("latency_cycles", (*latency_cycles).into());
        }
        SearchEvent::SeedFinished { seed, cost, evals, rejected } => {
            o.push("event", "seed_finished".into());
            o.push("seed", (*seed).into());
            o.push("cost", (*cost).into());
            o.push("evals", (*evals).into());
            o.push("rejected", (*rejected).into());
        }
        SearchEvent::BudgetExhausted { rounds, evals } => {
            o.push("event", "budget_exhausted".into());
            o.push("rounds", (*rounds as u64).into());
            o.push("evals", (*evals).into());
        }
    }
    o
}

/// Reconstructs a [`SearchEvent`] from [`event_to_json`]'s rendering.
///
/// # Errors
///
/// [`RecordError`] on an unknown tag or any missing/mistyped field.
pub fn event_from_json(v: &Value) -> Result<SearchEvent, RecordError> {
    match v.field("event", Value::as_str)? {
        "round_started" => Ok(SearchEvent::RoundStarted {
            round: v.field("round", Value::as_u64)? as usize,
            stage1_budget: v.field("stage1_budget", Value::as_u64)?,
        }),
        "stage_finished" => Ok(SearchEvent::StageFinished {
            round: v.field("round", Value::as_u64)? as usize,
            stage: v.field("stage", Value::as_str)?.to_string(),
            cost: v.field("cost", Value::as_f64)?,
            evals: v.field("evals", Value::as_u64)?,
        }),
        "new_best" => Ok(SearchEvent::NewBest {
            round: v.field("round", Value::as_u64)? as usize,
            cost: v.field("cost", Value::as_f64)?,
            latency_cycles: v.field("latency_cycles", Value::as_u64)?,
        }),
        "seed_finished" => Ok(SearchEvent::SeedFinished {
            seed: v.field("seed", Value::as_u64)?,
            cost: v.field("cost", Value::as_f64)?,
            evals: v.field("evals", Value::as_u64)?,
            rejected: v.field("rejected", Value::as_u64)?,
        }),
        "budget_exhausted" => Ok(SearchEvent::BudgetExhausted {
            rounds: v.field("rounds", Value::as_u64)? as usize,
            evals: v.field("evals", Value::as_u64)?,
        }),
        other => Err(RecordError::new(format!("unknown event tag `{other}`"))),
    }
}

fn lfa_to_bytes(buf: &mut Vec<u8>, lfa: &Lfa) {
    wire::put_varint_vec(buf, lfa.order.iter().map(|id| u64::from(id.0)));
    wire::put_varint_vec(buf, lfa.flc.iter().map(|&p| p as u64));
    wire::put_varint_vec(buf, lfa.tiling.iter().map(|&t| u64::from(t)));
    wire::put_varint_vec(buf, lfa.dram_cuts.iter().map(|&p| p as u64));
}

fn lfa_from_reader(r: &mut Reader<'_>) -> Result<Lfa, WireError> {
    let u32s = |items: Vec<u64>, what: &str| -> Result<Vec<u32>, WireError> {
        items
            .into_iter()
            .map(|n| u32::try_from(n).map_err(|_| WireError::new(format!("`{what}` exceeds u32"))))
            .collect()
    };
    Ok(Lfa {
        order: u32s(r.varint_vec()?, "order")?.into_iter().map(LayerId).collect(),
        flc: r.varint_vec()?.into_iter().map(|n| n as usize).collect(),
        tiling: u32s(r.varint_vec()?, "tiling")?,
        dram_cuts: r.varint_vec()?.into_iter().map(|n| n as usize).collect(),
    })
}

fn encoding_to_bytes(buf: &mut Vec<u8>, enc: &Encoding) {
    lfa_to_bytes(buf, &enc.lfa);
    match &enc.dlsa {
        None => buf.push(0),
        Some(dlsa) => {
            buf.push(1);
            wire::put_varint_vec(buf, dlsa.order.iter().map(|&v| u64::from(v)));
            wire::put_varint_vec(buf, dlsa.start.iter().map(|&v| u64::from(v)));
            wire::put_varint_vec(buf, dlsa.end.iter().map(|&v| u64::from(v)));
        }
    }
}

fn encoding_from_reader(r: &mut Reader<'_>) -> Result<Encoding, WireError> {
    let lfa = lfa_from_reader(r)?;
    let u32s = |items: Vec<u64>| -> Result<Vec<u32>, WireError> {
        items
            .into_iter()
            .map(|n| u32::try_from(n).map_err(|_| WireError::new("dlsa element exceeds u32")))
            .collect()
    };
    let dlsa = match r.u8()? {
        0 => None,
        1 => Some(Dlsa {
            order: u32s(r.varint_vec()?)?,
            start: u32s(r.varint_vec()?)?,
            end: u32s(r.varint_vec()?)?,
        }),
        tag => return Err(WireError::new(format!("bad dlsa tag {tag}"))),
    };
    Ok(Encoding { lfa, dlsa })
}

fn report_to_bytes(buf: &mut Vec<u8>, rep: &EvalReport) {
    wire::put_varint(buf, rep.latency_cycles);
    wire::put_f64(buf, rep.energy.core_pj);
    wire::put_f64(buf, rep.energy.dram_pj);
    wire::put_f64(buf, rep.compute_util);
    wire::put_f64(buf, rep.dram_util);
    wire::put_f64(buf, rep.theoretical_max_util);
    wire::put_varint(buf, rep.peak_buffer);
    wire::put_varint(buf, rep.avg_buffer);
    wire::put_varint(buf, rep.dram_bytes);
    wire::put_varint_vec(buf, rep.timeline.tensor_start.iter().copied());
    wire::put_varint_vec(buf, rep.timeline.tensor_end.iter().copied());
    wire::put_varint_vec(buf, rep.timeline.tile_start.iter().copied());
    wire::put_varint_vec(buf, rep.timeline.tile_end.iter().copied());
    wire::put_varint(buf, rep.timeline.latency);
    wire::put_varint(buf, rep.timeline.dram_busy);
    wire::put_varint(buf, rep.timeline.compute_busy);
}

fn report_from_reader(r: &mut Reader<'_>) -> Result<EvalReport, WireError> {
    Ok(EvalReport {
        latency_cycles: r.varint()?,
        energy: EnergyBreakdown { core_pj: r.f64()?, dram_pj: r.f64()? },
        compute_util: r.f64()?,
        dram_util: r.f64()?,
        theoretical_max_util: r.f64()?,
        peak_buffer: r.varint()?,
        avg_buffer: r.varint()?,
        dram_bytes: r.varint()?,
        timeline: Timeline {
            tensor_start: r.varint_vec()?,
            tensor_end: r.varint_vec()?,
            tile_start: r.varint_vec()?,
            tile_end: r.varint_vec()?,
            latency: r.varint()?,
            dram_busy: r.varint()?,
            compute_busy: r.varint()?,
        },
    })
}

fn evaluated_to_bytes(buf: &mut Vec<u8>, e: &Evaluated) {
    encoding_to_bytes(buf, &e.encoding);
    report_to_bytes(buf, &e.report);
    wire::put_f64(buf, e.cost);
}

fn evaluated_from_reader(r: &mut Reader<'_>) -> Result<Evaluated, WireError> {
    Ok(Evaluated {
        encoding: encoding_from_reader(r)?,
        report: report_from_reader(r)?,
        cost: r.f64()?,
    })
}

/// Renders an outcome as its compact binary form — the frame payload
/// of ledger format v3. Same contract as [`outcome_to_json`]: lossless
/// (floats travel as their IEEE-754 bit pattern) and deterministic
/// (equal outcomes encode byte-identically).
pub fn outcome_to_bytes(out: &SearchOutcome) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    evaluated_to_bytes(&mut buf, &out.stage1);
    evaluated_to_bytes(&mut buf, &out.best);
    wire::put_varint(&mut buf, out.allocator_iters as u64);
    wire::put_varint(&mut buf, out.evals);
    wire::put_varint(&mut buf, out.rejected);
    buf
}

/// Reconstructs an outcome from [`outcome_to_bytes`]'s rendering.
///
/// # Errors
///
/// [`RecordError`] on truncated, corrupt or trailing bytes — damage is
/// a quarantinable error, never a panic.
pub fn outcome_from_bytes(bytes: &[u8]) -> Result<SearchOutcome, RecordError> {
    let mut r = Reader::new(bytes);
    let out = (|| -> Result<SearchOutcome, WireError> {
        Ok(SearchOutcome {
            stage1: evaluated_from_reader(&mut r)?,
            best: evaluated_from_reader(&mut r)?,
            allocator_iters: r.varint()? as usize,
            evals: r.varint()?,
            rejected: r.varint()?,
        })
    })()
    .map_err(|e| RecordError::new(e.msg.clone()))?;
    r.finish().map_err(|e| RecordError::new(e.msg))?;
    Ok(out)
}

/// A deterministic synthetic [`SearchOutcome`] for scale tests and
/// benchmarks: realistic shape (explicit DLSA, `tiles`-entry timeline)
/// without paying for a real search. Pure function of `(seed, tiles)`
/// — equal arguments yield byte-identical renderings in both codecs.
pub fn synthetic_outcome(seed: u64, tiles: usize) -> SearchOutcome {
    // Small deterministic mixer so fields vary with the seed without
    // any RNG dependency.
    let mix = |salt: u64| -> u64 {
        let mut h = seed ^ salt.wrapping_mul(0x9e3779b97f4a7c15);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51afd7ed558ccd);
        h ^= h >> 33;
        h
    };
    let layers = 3 + (mix(1) % 4) as usize;
    let lfa = Lfa {
        order: (0..layers as u32).map(LayerId).collect(),
        flc: [0, layers].into_iter().collect(),
        tiling: (0..layers as u32).map(|i| 1 + (mix(u64::from(i) + 2) % 8) as u32).collect(),
        dram_cuts: [0, layers].into_iter().collect(),
    };
    let dlsa = Dlsa {
        order: (0..layers as u32).collect(),
        start: vec![0; layers],
        end: vec![tiles as u32; layers],
    };
    let timeline = Timeline {
        tensor_start: (0..tiles as u64).map(|i| i * 10).collect(),
        tensor_end: (0..tiles as u64).map(|i| i * 10 + 7).collect(),
        tile_start: (0..tiles as u64).map(|i| i * 10 + 1).collect(),
        tile_end: (0..tiles as u64).map(|i| i * 10 + 9).collect(),
        latency: tiles as u64 * 10 + 9,
        dram_busy: tiles as u64 * 7,
        compute_busy: tiles as u64 * 8,
    };
    let report = EvalReport {
        latency_cycles: tiles as u64 * 10 + 9,
        energy: EnergyBreakdown {
            core_pj: (mix(3) % 1_000_000) as f64 / 3.0,
            dram_pj: (mix(4) % 1_000_000) as f64 / 7.0,
        },
        compute_util: (mix(5) % 1000) as f64 / 1000.0,
        dram_util: (mix(6) % 1000) as f64 / 1000.0,
        theoretical_max_util: 0.875,
        peak_buffer: mix(7) % (1 << 20),
        avg_buffer: mix(8) % (1 << 19),
        dram_bytes: mix(9) % (1 << 30),
        timeline,
    };
    let best = Evaluated {
        encoding: Encoding { lfa: lfa.clone(), dlsa: Some(dlsa) },
        cost: (mix(10) % 1_000_000) as f64 / 11.0 + 1.0,
        report: report.clone(),
    };
    let stage1 =
        Evaluated { encoding: Encoding { lfa, dlsa: None }, cost: best.cost * 1.25, report };
    SearchOutcome {
        stage1,
        best,
        allocator_iters: 1 + (mix(11) % 7) as usize,
        evals: 100 + mix(12) % 10_000,
        rejected: mix(13) % 100,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::session::Scheduler;
    use crate::SearchConfig;
    use soma_arch::HardwareConfig;
    use soma_model::zoo;

    fn outcome_to_string(out: &SearchOutcome) -> String {
        json::to_string(&outcome_to_json(out))
    }

    fn outcome_from_str(text: &str) -> Result<SearchOutcome, RecordError> {
        outcome_from_json(&json::parse(text).map_err(|e| RecordError::new(e.to_string()))?)
    }

    fn assert_evaluated_eq(a: &Evaluated, b: &Evaluated) {
        assert_eq!(a.encoding, b.encoding);
        assert_eq!(a.report, b.report);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    }

    #[test]
    fn outcome_round_trips_field_for_field() {
        let net = zoo::fig2(1);
        let hw = HardwareConfig::edge();
        let cfg = SearchConfig { effort: 0.02, seed: 11, ..SearchConfig::default() };
        let out = Scheduler::new(&net, &hw).config(cfg).run();

        let text = outcome_to_string(&out);
        let back = outcome_from_str(&text).expect("own rendering parses");
        assert_evaluated_eq(&out.stage1, &back.stage1);
        assert_evaluated_eq(&out.best, &back.best);
        assert_eq!(out.allocator_iters, back.allocator_iters);
        assert_eq!(out.evals, back.evals);
        assert_eq!(out.rejected, back.rejected);

        // Deterministic rendering: serialising the reconstruction is
        // byte-identical (what the resume tests lean on).
        assert_eq!(outcome_to_string(&back), text);
    }

    #[test]
    fn explicit_dlsa_survives() {
        let net = zoo::fig4(1);
        let hw = HardwareConfig::edge();
        let cfg = SearchConfig { effort: 0.05, seed: 3, ..SearchConfig::default() };
        let out = Scheduler::new(&net, &hw).config(cfg).run();
        assert!(out.best.encoding.dlsa.is_some(), "stage 2 schedules the DLSA explicitly");
        let back = outcome_from_str(&outcome_to_string(&out)).unwrap();
        assert_eq!(out.best.encoding.dlsa, back.best.encoding.dlsa);
    }

    #[test]
    fn every_event_variant_round_trips() {
        let events = [
            SearchEvent::RoundStarted { round: 3, stage1_budget: 1 << 21 },
            SearchEvent::StageFinished {
                round: 3,
                stage: "stage1-sa".into(),
                cost: 0.125,
                evals: 4096,
            },
            SearchEvent::NewBest { round: 4, cost: 0.1 + 0.2, latency_cycles: 987_654_321 },
            SearchEvent::SeedFinished {
                seed: 2025,
                cost: f64::MIN_POSITIVE,
                evals: 7,
                rejected: 2,
            },
            SearchEvent::BudgetExhausted { rounds: 5, evals: 123_456 },
        ];
        for ev in &events {
            let text = json::to_string(&event_to_json(ev));
            let back = event_from_json(&json::parse(&text).unwrap()).unwrap();
            assert_eq!(*ev, back, "{text}");
            // Deterministic: re-rendering the reconstruction is
            // byte-identical (progress frames are diffable).
            assert_eq!(json::to_string(&event_to_json(&back)), text);
        }
    }

    #[test]
    fn unknown_event_tag_is_an_error() {
        let v = json::parse("{\"event\":\"warp_drive\"}").unwrap();
        let e = event_from_json(&v).unwrap_err();
        assert!(e.to_string().contains("unknown event tag `warp_drive`"), "{e}");
        let missing = json::parse("{\"event\":\"new_best\",\"round\":1}").unwrap();
        assert!(event_from_json(&missing).is_err(), "missing fields are errors");
    }

    #[test]
    fn binary_codec_round_trips_bit_for_bit() {
        let net = zoo::fig4(1);
        let hw = HardwareConfig::edge();
        let cfg = SearchConfig { effort: 0.05, seed: 3, ..SearchConfig::default() };
        let out = Scheduler::new(&net, &hw).config(cfg).run();
        assert!(out.best.encoding.dlsa.is_some(), "stage 2 schedules the DLSA explicitly");

        let bytes = outcome_to_bytes(&out);
        let back = outcome_from_bytes(&bytes).expect("own rendering decodes");
        assert_evaluated_eq(&out.stage1, &back.stage1);
        assert_evaluated_eq(&out.best, &back.best);
        assert_eq!(out.allocator_iters, back.allocator_iters);
        assert_eq!(out.evals, back.evals);
        assert_eq!(out.rejected, back.rejected);
        // Deterministic: re-encoding the reconstruction is byte-identical.
        assert_eq!(outcome_to_bytes(&back), bytes);
        // And the two codecs agree: binary → JSON matches direct JSON.
        assert_eq!(outcome_to_string(&back), outcome_to_string(&out));
    }

    #[test]
    fn binary_damage_is_an_error_not_a_panic() {
        let out = synthetic_outcome(7, 12);
        let bytes = outcome_to_bytes(&out);
        assert!(outcome_from_bytes(&[]).is_err());
        assert!(outcome_from_bytes(&bytes[..bytes.len() / 2]).is_err(), "truncation");
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(outcome_from_bytes(&trailing).is_err(), "trailing bytes");
    }

    #[test]
    fn synthetic_outcomes_are_deterministic_and_codec_stable() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = synthetic_outcome(seed, 16);
            let b = synthetic_outcome(seed, 16);
            assert_eq!(outcome_to_bytes(&a), outcome_to_bytes(&b));
            assert_eq!(outcome_to_string(&a), outcome_to_string(&b));
            let back = outcome_from_bytes(&outcome_to_bytes(&a)).unwrap();
            assert_eq!(outcome_to_string(&back), outcome_to_string(&a));
        }
        assert_ne!(
            outcome_to_bytes(&synthetic_outcome(1, 16)),
            outcome_to_bytes(&synthetic_outcome(2, 16)),
            "different seeds must differ"
        );
    }

    #[test]
    fn schema_drift_is_an_error_not_a_panic() {
        assert!(outcome_from_str("not json").is_err());
        assert!(outcome_from_str("{}").is_err());
        assert!(outcome_from_str("{\"stage1\":{},\"best\":{}}").is_err());
        let e = outcome_from_str("{\"best\":1}").unwrap_err();
        assert!(e.to_string().contains("stage1"), "{e}");
    }

    #[test]
    fn a_mistyped_field_is_named() {
        // A 4-tile synthetic outcome takes 4 * 10 + 9 cycles.
        let text = outcome_to_string(&synthetic_outcome(7, 4));
        let mistyped = text.replacen("\"latency_cycles\":49", "\"latency_cycles\":\"49\"", 1);
        assert_ne!(mistyped, text);
        let e = outcome_from_str(&mistyped).unwrap_err();
        assert_eq!(e.to_string(), "bad outcome record: `latency_cycles` has the wrong type");
    }
}
