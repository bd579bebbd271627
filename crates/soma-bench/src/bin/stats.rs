//! Sec. VI-B aggregate statistics ("stats.log" of the paper's artifact),
//! computed from a `fig6` CSV (default `results/fig6.csv`, or pass a
//! path):
//!
//! * average speedup of `Ours_1` and `Ours_2` over Cocco, and energy
//!   reduction;
//! * gap between `Ours_2` and the theoretical maximum utilisation;
//! * average LGs/FLGs/tiles per network (SoMa vs Cocco);
//! * GPT-2 decode utilisation vs batch size (the KV-cache saturation
//!   phenomenon).
//!
//! A CSV it cannot trust is refused, never averaged: an unreadable file,
//! a header that is not `fig6`'s, a row without 17 fields, a value that
//! does not parse as a finite number (or a latency of zero), a repeated
//! or unknown scheme, or a scenario without its `cocco`, `ours_1` and
//! `ours_2` rows. Each exits 2 with `stats: <path>:<line>: <reason>`.

use std::collections::BTreeMap;

/// The `fig6` columns one row contributes.
#[derive(Debug, Clone, Default)]
struct Row {
    latency: f64,
    core_pj: f64,
    dram_pj: f64,
    util: f64,
    theo: f64,
    lgs: f64,
    flgs: f64,
    tiles: f64,
}

/// One scenario's rows by scheme, and the line its first row is on.
#[derive(Default)]
struct Cell {
    line: usize,
    schemes: BTreeMap<String, Row>,
}

/// (scenario id, workload, batch) — the workload and batch are read
/// for the decode analysis.
type CellKey = (String, String, u32);

const SCHEMES: [&str; 3] = ["cocco", "ours_1", "ours_2"];
const FIELDS: usize = 17;

/// Parses a `fig6` CSV into complete scheme triples. An error carries
/// the 1-based line it refers to.
fn parse(text: &str) -> Result<BTreeMap<CellKey, Cell>, (usize, String)> {
    let header = text.lines().next().unwrap_or("");
    if !header.starts_with("scenario,platform,workload,batch,scheme,") {
        return Err((
            1,
            format!("unexpected header {header:?}; regenerate it with the current fig6 binary"),
        ));
    }
    let mut cells: BTreeMap<CellKey, Cell> = BTreeMap::new();
    for (i, line) in text.lines().enumerate().skip(1) {
        let at = |msg: String| (i + 1, msg);
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != FIELDS {
            return Err(at(format!("expected {FIELDS} fields, got {}", f.len())));
        }
        let num = |col: usize, name: &str| -> Result<f64, (usize, String)> {
            match f[col].parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(v),
                _ => Err(at(format!("{name} {:?} is not a finite number", f[col]))),
            }
        };
        let batch: u32 =
            f[3].parse().map_err(|_| at(format!("batch {:?} is not a count", f[3])))?;
        let row = Row {
            latency: num(5, "latency_cycles")?,
            core_pj: num(6, "core_energy_pj")?,
            dram_pj: num(7, "dram_energy_pj")?,
            util: num(8, "compute_util")?,
            theo: num(10, "theoretical_max_util")?,
            lgs: num(13, "lgs")?,
            flgs: num(14, "flgs")?,
            tiles: num(15, "tiles")?,
        };
        if row.latency <= 0.0 {
            return Err(at(format!("latency_cycles {:?} is not positive", f[5])));
        }
        let scheme = f[4];
        if !SCHEMES.contains(&scheme) {
            return Err(at(format!("unknown scheme {scheme:?}")));
        }
        let cell = cells.entry((f[0].to_string(), f[2].to_string(), batch)).or_default();
        if cell.schemes.is_empty() {
            cell.line = i + 1;
        }
        if cell.schemes.insert(scheme.to_string(), row).is_some() {
            return Err(at(format!("a second {scheme} row for {}", f[0])));
        }
    }
    if cells.is_empty() {
        let lines = text.lines().count().max(1);
        return Err((lines, "no complete cocco/ours_1/ours_2 triple".into()));
    }
    for ((scenario, ..), cell) in &cells {
        if let Some(missing) = SCHEMES.iter().find(|s| !cell.schemes.contains_key(**s)) {
            return Err((cell.line, format!("{scenario} has no {missing} row")));
        }
    }
    Ok(cells)
}

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| "results/fig6.csv".into());
    let fail = |msg: String| -> ! {
        eprintln!("stats: {msg}");
        std::process::exit(2)
    };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| fail(format!("{path}: {e}")));
    let cells = parse(&text).unwrap_or_else(|(line, msg)| fail(format!("{path}:{line}: {msg}")));

    let mut speedup1 = Vec::new();
    let mut speedup2 = Vec::new();
    let mut energy_red = Vec::new();
    let mut core_red = Vec::new();
    let mut dram_red = Vec::new();
    let mut theo_gap = Vec::new();
    let mut soma_lgs = Vec::new();
    let mut soma_flgs = Vec::new();
    let mut soma_tiles = Vec::new();
    let mut cocco_lgs = Vec::new();
    let mut cocco_tiles = Vec::new();
    let mut decode_util: Vec<(String, u32, f64)> = Vec::new();

    for ((_scenario, workload, batch), cell) in &cells {
        let [c, s1, s2] = SCHEMES.map(|s| &cell.schemes[s]);
        speedup1.push(c.latency / s1.latency);
        speedup2.push(c.latency / s2.latency);
        let (ce, se) = (c.core_pj + c.dram_pj, s2.core_pj + s2.dram_pj);
        energy_red.push(1.0 - se / ce);
        if c.core_pj > 0.0 {
            core_red.push(1.0 - s1.core_pj / c.core_pj);
        }
        if c.dram_pj > 0.0 {
            dram_red.push(1.0 - s1.dram_pj / c.dram_pj);
        }
        if s2.theo > 0.0 {
            theo_gap.push(1.0 - s2.util / s2.theo);
        }
        soma_lgs.push(s2.lgs);
        soma_flgs.push(s2.flgs);
        soma_tiles.push(s2.tiles);
        cocco_lgs.push(c.lgs);
        cocco_tiles.push(c.tiles);
        if workload.contains("decode") {
            decode_util.push((workload.clone(), *batch, s2.util));
        }
    }

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!("== SoMa vs Cocco over {} configurations (paper Sec. VI-B) ==", speedup2.len());
    println!("avg stage-1 speedup over Cocco:    {:.2}x  (paper: 1.82x)", avg(&speedup1));
    println!("avg stage-2 speedup over Cocco:    {:.2}x  (paper: 2.11x)", avg(&speedup2));
    println!(
        "avg stage2/stage1 improvement:     {:.2}x  (paper: 1.16x)",
        avg(&speedup2) / avg(&speedup1).max(1e-12)
    );
    println!("avg energy reduction vs Cocco:     {:.1}%  (paper: 37.3%)", 100.0 * avg(&energy_red));
    println!("avg stage-1 core-energy reduction: {:.1}%  (paper: 34.8%)", 100.0 * avg(&core_red));
    println!("avg stage-1 DRAM-energy reduction: {:.1}%  (paper: 44.3%)", 100.0 * avg(&dram_red));
    println!("avg gap to theoretical max util:   {:.1}%  (paper: 3.1%)", 100.0 * avg(&theo_gap));
    println!();
    println!(
        "avg LGs per network   SoMa {:.1} vs Cocco {:.1}  (paper: 2.5 vs 13.0)",
        avg(&soma_lgs),
        avg(&cocco_lgs)
    );
    println!("avg FLGs per network  SoMa {:.1}  (paper: 3.9)", avg(&soma_flgs));
    println!(
        "avg tiles per network SoMa {:.0} vs Cocco {:.0}  (paper: 751 vs 7962)",
        avg(&soma_tiles),
        avg(&cocco_tiles)
    );
    println!();
    println!("== GPT-2 decode utilisation vs batch (paper: 0.66/2.03/4.26/5.84% small; 0.60/1.90/4.13/5.83% XL) ==");
    decode_util.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    for (name, batch, util) in decode_util {
        println!("{name} batch {batch}: {:.2}%", 100.0 * util);
    }
}
