//! The `soma-experiment v1` format: workloads × hardware × search
//! configuration × seed portfolio, the complete description of one
//! harness run.
//!
//! ```text
//! soma-experiment v1
//! name fig2-edge
//! scenario fig2@edge/b1          # registry ids...
//! workload resnet50              # ...or a workload × hardware × batch grid
//! hardware cloud buffer_mib=16
//! batch 1 4
//! seeds 2025
//! effort 0.01
//! end
//! ```
//!
//! `scenario` lines name registry points directly; `workload` ×
//! `hardware` × `batch` lines span a grid that is appended after the
//! explicit scenarios (batch defaults to 1 if no `batch` line is given).
//! `hardware` takes a preset id plus optional inline `field=value`
//! overrides with [`HardwareSpec`](crate::HardwareSpec) semantics. The
//! remaining lines override [`SearchConfig`] knobs (defaults apply when
//! absent): `effort`, `t0`, `alpha`, `allocator_step`,
//! `max_allocator_iters`, `stage1_cap`, `stage2_cap`, `link_cuts` (0|1),
//! `time_budget` (seconds), and `weights <energy_exp> <delay_exp>`.
//! `seeds` lists the seed portfolio (default: the `SearchConfig` default
//! seed); the first seed also becomes `config.seed`, so a single-seed
//! experiment equals a plain `Scheduler::new(..).config(cfg).run()`.
//! `threads <auto|seq|N>` sets the [`Parallelism`] policy of the run
//! (default `auto`); it changes wall-clock only — results and ledger
//! bytes are bit-identical across policies, and the thread count is
//! deliberately **not** an input to [`cell_hash`](crate::cell_hash).

use std::fmt::Write as _;

use soma_arch::HardwareConfig;
use soma_model::{zoo, Network};
use soma_search::{Parallelism, SearchConfig};

use crate::error::{body_lines, SpecError};
use crate::hardware::{HardwareSpec, HwField, Preset};
use crate::registry::{lookup, scenario_id, Scenario};

/// A parsed experiment description. Obtain one with [`read_experiment`],
/// expand it with [`cells`](Self::cells), and run each cell with
/// `Scheduler::new(&cell.net, &cell.hw).config(spec.config.clone())
/// .seeds(spec.seeds.clone()).run()`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Experiment name (keys output files and logs).
    pub name: String,
    /// Explicit registry scenarios, in file order.
    pub scenarios: Vec<Scenario>,
    /// Grid axis: canonical zoo workload names.
    pub workloads: Vec<String>,
    /// Grid axis: hardware descriptions (preset + inline overrides).
    pub hardware: Vec<HardwareSpec>,
    /// Grid axis: batch sizes (defaults to `[1]` when the grid is used).
    pub batches: Vec<u32>,
    /// Seed portfolio (first seed is also `config.seed`).
    pub seeds: Vec<u64>,
    /// Search configuration after overrides.
    pub config: SearchConfig,
    /// Thread policy of the run (`threads` directive, default `auto`).
    /// Affects wall-clock only; never an input to
    /// [`cell_hash`](crate::cell_hash).
    pub parallelism: Parallelism,
}

/// Which scheduler searches a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The full SoMa pipeline (`Scheduler::new`).
    Soma,
    /// The Cocco baseline (`Scheduler::cocco`).
    Cocco,
}

/// One resolved (workload, platform, batch) point of an experiment.
#[derive(Debug, Clone)]
pub struct ExperimentCell {
    /// Scenario id: the registry id when the platform is a bare preset,
    /// otherwise `<workload>@<hardware-name>/b<batch>`. A Cocco twin's id
    /// ends in `+cocco`.
    pub id: String,
    /// Canonical workload name.
    pub workload: String,
    /// Resolved platform name.
    pub platform: String,
    /// Batch size.
    pub batch: u32,
    /// The workload network at this batch size.
    pub net: Network,
    /// The resolved platform configuration.
    pub hw: HardwareConfig,
    /// The scheduler that searches this cell.
    pub scheduler: SchedulerKind,
}

impl ExperimentCell {
    /// The cell's Cocco twin: the same point searched by the Cocco
    /// baseline. Its id is this cell's id plus `+cocco`, so it owns a
    /// ledger key of its own. No registry id carries the suffix, so only
    /// code can build a twin.
    pub fn cocco(&self) -> Self {
        Self { id: format!("{}+cocco", self.id), scheduler: SchedulerKind::Cocco, ..self.clone() }
    }
}

impl ExperimentSpec {
    /// Expands the experiment into its cells: explicit scenarios first,
    /// then the workload × hardware × batch grid in file order.
    pub fn cells(&self) -> Vec<ExperimentCell> {
        let mut out: Vec<ExperimentCell> = self.scenarios.iter().map(Scenario::cell).collect();
        let batches: &[u32] = if self.batches.is_empty() { &[1] } else { &self.batches };
        for workload in &self.workloads {
            for spec in &self.hardware {
                let hw = spec.resolve();
                for &batch in batches {
                    let id = if spec.is_bare_preset() {
                        scenario_id(workload, spec.preset, batch)
                    } else {
                        format!("{workload}@{}/b{batch}", hw.name)
                    };
                    let net = zoo::by_name_at(workload, batch)
                        .expect("workload names are validated at parse time");
                    out.push(ExperimentCell {
                        id,
                        workload: workload.clone(),
                        platform: hw.name.clone(),
                        batch,
                        net,
                        hw: hw.clone(),
                        scheduler: SchedulerKind::Soma,
                    });
                }
            }
        }
        out
    }
}

/// Writes an experiment to the `soma-experiment v1` text format
/// (canonical form: every configuration knob written explicitly).
pub fn write_experiment(spec: &ExperimentSpec) -> String {
    let mut out = String::new();
    out.push_str("soma-experiment v1\n");
    let _ = writeln!(out, "name {}", spec.name);
    for sc in &spec.scenarios {
        let _ = writeln!(out, "scenario {sc}");
    }
    for w in &spec.workloads {
        let _ = writeln!(out, "workload {w}");
    }
    for h in &spec.hardware {
        let _ = write!(out, "hardware {}", h.preset);
        for f in &h.overrides {
            let _ = write!(out, " {}={}", f.key(), f.value_text());
        }
        out.push('\n');
    }
    if !spec.batches.is_empty() {
        let _ = writeln!(
            out,
            "batch {}",
            spec.batches.iter().map(u32::to_string).collect::<Vec<_>>().join(" ")
        );
    }
    let _ = writeln!(
        out,
        "seeds {}",
        spec.seeds.iter().map(u64::to_string).collect::<Vec<_>>().join(" ")
    );
    let c = &spec.config;
    let _ = writeln!(out, "effort {}", c.effort);
    let _ = writeln!(out, "weights {} {}", c.weights.energy_exp, c.weights.delay_exp);
    let _ = writeln!(out, "t0 {}", c.t0);
    let _ = writeln!(out, "alpha {}", c.alpha);
    let _ = writeln!(out, "allocator_step {}", c.allocator_step);
    let _ = writeln!(out, "max_allocator_iters {}", c.max_allocator_iters);
    let _ = writeln!(out, "stage1_cap {}", c.stage1_cap);
    let _ = writeln!(out, "stage2_cap {}", c.stage2_cap);
    let _ = writeln!(out, "link_cuts {}", u8::from(c.link_cuts));
    let _ = writeln!(out, "time_budget {}", c.stage_time_budget_secs);
    let _ = writeln!(out, "threads {}", spec.parallelism);
    out.push_str("end\n");
    out
}

/// Reads an experiment from the `soma-experiment v1` text format.
///
/// # Errors
///
/// Returns a located [`SpecError`] on grammar violations, unknown
/// scenario ids / workload names / presets / config keys, duplicate
/// scalar lines, a grid with no `hardware` line, or an experiment that
/// selects no cells.
pub fn read_experiment(text: &str) -> Result<ExperimentSpec, SpecError> {
    let lines = body_lines(text, "soma-experiment v1")?;

    let mut name: Option<String> = None;
    let mut scenarios = Vec::new();
    let mut workloads: Vec<String> = Vec::new();
    let mut hardware: Vec<HardwareSpec> = Vec::new();
    let mut batches: Vec<u32> = Vec::new();
    let mut seeds: Vec<u64> = Vec::new();
    let mut config = SearchConfig::default();
    let mut parallelism = Parallelism::Auto;
    let mut seen_cfg: Vec<&'static str> = Vec::new();
    let mut first_workload: Option<(usize, usize)> = None;
    let mut last_line = 1usize;
    let mut ended = false;

    let mut seen = |key: &'static str, line: usize, col: usize| -> Result<(), SpecError> {
        if seen_cfg.contains(&key) {
            return Err(SpecError::new(line, col, format!("duplicate `{key}` line")));
        }
        seen_cfg.push(key);
        Ok(())
    };

    for toks in &lines {
        let head = toks[0];
        last_line = head.line;
        if ended {
            return Err(head.err("content after `end`"));
        }
        match head.text {
            "end" => ended = true,
            "name" => {
                let [_, value] = toks[..] else {
                    return Err(head.err("expected `name <experiment-name>`"));
                };
                if name.replace(value.text.to_string()).is_some() {
                    return Err(value.err("duplicate `name` line"));
                }
            }
            "scenario" => {
                let [_, value] = toks[..] else {
                    return Err(head.err("expected `scenario <workload>@<preset>/b<batch>`"));
                };
                let sc = lookup(value.text).ok_or_else(|| {
                    value.err(format!(
                        "unknown scenario id `{}` (format `<workload>@<preset>/b<batch>`)",
                        value.text
                    ))
                })?;
                scenarios.push(sc);
            }
            "workload" => {
                let [_, rest @ ..] = &toks[..] else { unreachable!("head is toks[0]") };
                if rest.is_empty() {
                    return Err(head.err("expected `workload <zoo-name>...`"));
                }
                first_workload.get_or_insert((head.line, head.col));
                for w in rest {
                    if zoo::by_name(w.text).is_none() {
                        return Err(w.err(format!("unknown zoo workload `{}`", w.text)));
                    }
                    workloads.push(w.text.to_string());
                }
            }
            "hardware" => {
                let [_, preset, overrides @ ..] = &toks[..] else {
                    return Err(head.err("expected `hardware <preset> [field=value ...]`"));
                };
                let p = Preset::parse(preset.text).ok_or_else(|| {
                    preset.err(format!(
                        "unknown preset `{}` (expected edge|cloud|custom)",
                        preset.text
                    ))
                })?;
                let mut fields = Vec::new();
                for o in overrides {
                    let Some((key, value)) = o.text.split_once('=') else {
                        return Err(
                            o.err(format!("expected `field=value` override, got `{}`", o.text))
                        );
                    };
                    match HwField::parse_pair(key, value, |msg| o.err(msg))? {
                        Some(f) => fields.push(f),
                        None => return Err(o.err(format!("unknown hardware field `{key}`"))),
                    }
                }
                hardware.push(HardwareSpec { preset: p, overrides: fields });
            }
            "batch" => {
                let [_, rest @ ..] = &toks[..] else { unreachable!("head is toks[0]") };
                if rest.is_empty() {
                    return Err(head.err("expected `batch <n>...`"));
                }
                for b in rest {
                    let v: u32 = b.parse("a positive integer batch size")?;
                    if v == 0 {
                        return Err(b.err("batch must be positive"));
                    }
                    batches.push(v);
                }
            }
            "seeds" => {
                let [_, rest @ ..] = &toks[..] else { unreachable!("head is toks[0]") };
                if rest.is_empty() {
                    return Err(head.err("expected `seeds <n>...`"));
                }
                seen("seeds", head.line, head.col)?;
                for s in rest {
                    seeds.push(s.parse("an unsigned integer seed")?);
                }
            }
            "threads" => {
                let [_, value] = toks[..] else {
                    return Err(head.err("expected `threads <auto|seq|N>`"));
                };
                seen("threads", head.line, head.col)?;
                parallelism = value.parse("`auto`, `seq`, or a thread count >= 1")?;
            }
            "weights" => {
                let [_, energy, delay] = toks[..] else {
                    return Err(head.err("expected `weights <energy_exp> <delay_exp>`"));
                };
                seen("weights", head.line, head.col)?;
                config.weights.energy_exp = energy.parse("a number")?;
                config.weights.delay_exp = delay.parse("a number")?;
                if !config.weights.energy_exp.is_finite() {
                    return Err(energy.err("`weights` must be finite"));
                }
                if !config.weights.delay_exp.is_finite() {
                    return Err(delay.err("`weights` must be finite"));
                }
            }
            key @ ("effort"
            | "t0"
            | "alpha"
            | "allocator_step"
            | "max_allocator_iters"
            | "stage1_cap"
            | "stage2_cap"
            | "link_cuts"
            | "time_budget") => {
                let [_, value] = toks[..] else {
                    return Err(head.err(format!("expected `{key} <value>`")));
                };
                match key {
                    "effort" => {
                        seen("effort", head.line, head.col)?;
                        config.effort = value.parse("a positive number")?;
                        if !(config.effort.is_finite() && config.effort > 0.0) {
                            return Err(value.err("effort must be positive and finite"));
                        }
                    }
                    "t0" => {
                        seen("t0", head.line, head.col)?;
                        config.t0 = value.parse("a number")?;
                        if !config.t0.is_finite() {
                            return Err(value.err("`t0` must be finite"));
                        }
                    }
                    "alpha" => {
                        seen("alpha", head.line, head.col)?;
                        config.alpha = value.parse("a number")?;
                        if !config.alpha.is_finite() {
                            return Err(value.err("`alpha` must be finite"));
                        }
                    }
                    "allocator_step" => {
                        seen("allocator_step", head.line, head.col)?;
                        config.allocator_step = value.parse("a number")?;
                        if !config.allocator_step.is_finite() || config.allocator_step < 0.0 {
                            return Err(value.err("`allocator_step` must be finite and >= 0"));
                        }
                    }
                    "max_allocator_iters" => {
                        seen("max_allocator_iters", head.line, head.col)?;
                        config.max_allocator_iters = value.parse("an iteration count")?;
                    }
                    "stage1_cap" => {
                        seen("stage1_cap", head.line, head.col)?;
                        config.stage1_cap = value.parse("an iteration count")?;
                    }
                    "stage2_cap" => {
                        seen("stage2_cap", head.line, head.col)?;
                        config.stage2_cap = value.parse("an iteration count")?;
                    }
                    "link_cuts" => {
                        seen("link_cuts", head.line, head.col)?;
                        let v: u8 = value.parse("0 or 1")?;
                        if v > 1 {
                            return Err(value.err("`link_cuts` expects 0 or 1"));
                        }
                        config.link_cuts = v == 1;
                    }
                    "time_budget" => {
                        seen("time_budget", head.line, head.col)?;
                        config.stage_time_budget_secs = value.parse("seconds")?;
                        if !config.stage_time_budget_secs.is_finite()
                            || config.stage_time_budget_secs < 0.0
                        {
                            return Err(value.err("`time_budget` must be finite and >= 0"));
                        }
                    }
                    _ => unreachable!("guarded by the outer match arm"),
                }
            }
            other => return Err(head.err(format!("unknown directive `{other}`"))),
        }
    }

    if !ended {
        return Err(SpecError::new(last_line + 1, 1, "missing `end` line"));
    }
    let name = name.ok_or_else(|| SpecError::new(last_line, 1, "missing `name` line"))?;
    if !workloads.is_empty() && hardware.is_empty() {
        let (line, col) = first_workload.expect("workloads non-empty");
        return Err(SpecError::new(line, col, "`workload` lines need a `hardware` line"));
    }
    if scenarios.is_empty() && workloads.is_empty() {
        return Err(SpecError::new(last_line, 1, "experiment selects no scenarios"));
    }
    if seeds.is_empty() {
        seeds.push(config.seed);
    }
    config.seed = seeds[0];
    Ok(ExperimentSpec { name, scenarios, workloads, hardware, batches, seeds, config, parallelism })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG2: &str = "soma-experiment v1\n\
                        name fig2-edge\n\
                        scenario fig2@edge/b1\n\
                        seeds 2025\n\
                        effort 0.01\n\
                        end\n";

    #[test]
    fn minimal_experiment_parses() {
        let spec = read_experiment(FIG2).unwrap();
        assert_eq!(spec.name, "fig2-edge");
        assert_eq!(spec.seeds, [2025]);
        assert_eq!(spec.config.seed, 2025);
        assert_eq!(spec.config.effort, 0.01);
        // Everything else keeps SearchConfig defaults.
        assert_eq!(spec.config.stage2_cap, SearchConfig::default().stage2_cap);
        let cells = spec.cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].id, "fig2@edge/b1");
        assert_eq!(cells[0].net.name(), "fig2");
        assert_eq!(cells[0].hw, HardwareConfig::edge());
    }

    #[test]
    fn grid_expands_workload_x_hardware_x_batch() {
        let text = "soma-experiment v1\nname grid\nworkload fig2 fig4\n\
                    hardware edge\nhardware cloud buffer_mib=16\nbatch 1 4\nend\n";
        let spec = read_experiment(text).unwrap();
        let cells = spec.cells();
        assert_eq!(cells.len(), 2 * 2 * 2);
        assert_eq!(cells[0].id, "fig2@edge/b1");
        assert_eq!(cells[1].id, "fig2@edge/b4");
        // Overridden hardware is keyed by its resolved name, not the
        // registry preset.
        assert_eq!(cells[2].id, "fig2@cloud-128tops/b1");
        assert_eq!(cells[2].hw.buffer_bytes, 16 << 20);
        assert_eq!(cells[7].workload, "fig4");
        assert_eq!(cells[7].batch, 4);
    }

    #[test]
    fn round_trips_through_text() {
        let spec = read_experiment(FIG2).unwrap();
        let text = write_experiment(&spec);
        assert_eq!(read_experiment(&text).unwrap(), spec);
    }

    #[test]
    fn errors_carry_line_and_column() {
        let e = read_experiment("soma-experiment v1\nname x\nscenario fig2@warp/b1\nend\n")
            .unwrap_err();
        assert_eq!((e.line, e.col), (3, 10));
        let e =
            read_experiment("soma-experiment v1\nname x\nworkload resnet9000\nend\n").unwrap_err();
        assert_eq!((e.line, e.col), (3, 10));
        let e = read_experiment(
            "soma-experiment v1\nname x\nscenario fig2@edge/b1\neffort 0.1\neffort 0.2\nend\n",
        )
        .unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.to_string().contains("duplicate `effort`"), "{e}");
        let e = read_experiment("soma-experiment v1\nname x\nworkload fig2\nend\n").unwrap_err();
        assert!(e.to_string().contains("need a `hardware` line"), "{e}");
        let e = read_experiment("soma-experiment v1\nname x\nend\n").unwrap_err();
        assert!(e.to_string().contains("selects no scenarios"), "{e}");
    }

    #[test]
    fn threads_directive_sets_parallelism() {
        let base = "soma-experiment v1\nname x\nscenario fig2@edge/b1\n";
        let spec = read_experiment(&format!("{base}threads 4\nend\n")).unwrap();
        assert_eq!(spec.parallelism, Parallelism::Fixed(4));
        let spec = read_experiment(&format!("{base}threads seq\nend\n")).unwrap();
        assert_eq!(spec.parallelism, Parallelism::Sequential);
        let spec = read_experiment(&format!("{base}threads auto\nend\n")).unwrap();
        assert_eq!(spec.parallelism, Parallelism::Auto);
        // Default when the directive is absent.
        let spec = read_experiment(&format!("{base}end\n")).unwrap();
        assert_eq!(spec.parallelism, Parallelism::Auto);
        // Round-trips through the canonical writer.
        let spec = read_experiment(&format!("{base}threads 8\nend\n")).unwrap();
        assert_eq!(read_experiment(&write_experiment(&spec)).unwrap(), spec);
    }

    #[test]
    fn threads_directive_rejects_bad_values() {
        let base = "soma-experiment v1\nname x\nscenario fig2@edge/b1\n";
        let e = read_experiment(&format!("{base}threads 0\nend\n")).unwrap_err();
        assert!(e.to_string().contains("thread count"), "{e}");
        let e = read_experiment(&format!("{base}threads fast\nend\n")).unwrap_err();
        assert_eq!((e.line, e.col), (4, 9));
        let e = read_experiment(&format!("{base}threads 2\nthreads 4\nend\n")).unwrap_err();
        assert!(e.to_string().contains("duplicate `threads`"), "{e}");
        let e = read_experiment(&format!("{base}threads\nend\n")).unwrap_err();
        assert!(e.to_string().contains("expected `threads"), "{e}");
    }

    #[test]
    fn a_cocco_twin_is_keyed_apart_from_its_cell() {
        let spec = read_experiment(FIG2).unwrap();
        let cell = &spec.cells()[0];
        let twin = cell.cocco();
        assert_eq!(twin.id, "fig2@edge/b1+cocco");
        assert_eq!((cell.scheduler, twin.scheduler), (SchedulerKind::Soma, SchedulerKind::Cocco));
        assert_eq!((&twin.workload, twin.batch, &twin.hw), (&cell.workload, cell.batch, &cell.hw));
        let key = |c: &ExperimentCell| crate::cell_key(c, &spec.config, &spec.seeds);
        assert_ne!(key(&twin), key(cell));
        // No spec can name a twin: the registry has no `+cocco` ids.
        let e = read_experiment("soma-experiment v1\nname x\nscenario fig2@edge/b1+cocco\nend\n")
            .unwrap_err();
        assert!(e.to_string().contains("unknown scenario id"), "{e}");
    }

    #[test]
    fn default_seeds_follow_search_config() {
        let spec =
            read_experiment("soma-experiment v1\nname x\nscenario fig2@edge/b1\nend\n").unwrap();
        assert_eq!(spec.seeds, [SearchConfig::default().seed]);
    }
}
