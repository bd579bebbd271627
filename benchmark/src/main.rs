//! The SoMa benchmark: one command runs a named workload at a seed,
//! checks its outputs, and prints every metric with its unit. The last
//! stdout line is the result object; see README.md for the workloads and
//! what each metric means.
//!
//! ```sh
//! bash benchmark/run.sh --workload campaign-deep --seed 1 --seconds 25 --trace 0
//! ```

mod campaign;
mod report;
mod serve;
mod stats;
mod trace;
mod walk;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::Report;

/// The seed whose cell outcomes are committed in `expected.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub serve_bin: PathBuf,
    /// Scratch directory of this run, removed when it ends.
    pub work: PathBuf,
    /// Where traced runs write their spans.
    pub trace_dir: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: soma-benchmark --workload <campaign-deep|campaign-wide|serve-mixed> --seed <n> \
         --seconds <s> --trace <0|1> --serve-bin <path> --out-dir <dir>"
    );
    ExitCode::from(2)
}

/// Removes the run's work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `path` relative to the current directory when it lies below it, so
/// unix socket paths stay short wherever the checkout lives.
fn relative(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| path.to_path_buf())
}

/// Peak resident set (`VmHWM`) from a `/proc/<pid>/status` file, in MiB.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or(format!("{status_path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Host fingerprint printed beside every result.
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": \"{}\", \"profile\": \"{profile}\", \"commit\": \"{}\"}}",
        report::escape(&command_line("rustc", &["-V"])),
        report::escape(&command_line("git", &["rev-parse", "HEAD"]))
    )
}

fn parse_args() -> Option<(Ctx, bool)> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut serve_bin, mut out_dir) = (None, None);
    while let Some(flag) = args.next() {
        let value = args.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().ok()?),
            "--seconds" => seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return None,
        }
    }
    let out_dir: PathBuf = out_dir?;
    let seed = seed?;
    let workload: String = workload?;
    let ctx = Ctx {
        work: relative(&out_dir.join(format!("work-{workload}-{}", std::process::id()))),
        trace_dir: out_dir.join("trace"),
        workload,
        seed,
        seconds: seconds?,
        serve_bin: serve_bin?,
    };
    Some((ctx, trace?))
}

fn main() -> ExitCode {
    let Some((ctx, traced)) = parse_args() else { return usage() };
    if !workload::NAMES.contains(&ctx.workload.as_str()) {
        eprintln!("soma-benchmark: unknown workload `{}`", ctx.workload);
        return usage();
    }
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("soma-benchmark: {}: {e}", ctx.work.display());
        return ExitCode::FAILURE;
    }
    let work = WorkDir(ctx.work.clone());
    let host = host_json();
    eprintln!("[bench] {} seed {} trace {traced} on {host}", ctx.workload, ctx.seed);

    let result = if traced { workload::traced(&ctx, &host) } else { workload::untraced(&ctx) };
    drop(work);
    let report: Report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("soma-benchmark: check failed, no result: {e}");
            return ExitCode::FAILURE;
        }
    };
    match report.render(traced) {
        Ok((samples, line)) => {
            println!("{{\"host\": {host}}}");
            println!("{samples}");
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("soma-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
