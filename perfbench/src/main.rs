//! Host-time benchmark of the membound simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. An untraced run (`--trace 0`) sets the
//! workload up several times, measures rounds for `--seconds`, checks
//! every output digest and prints the end-to-end metrics; a traced run
//! (`--trace 1`) replays one round layer by layer and prints the
//! per-layer metrics. Either way the report goes first and the last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. See `perfbench/README.md`.

mod catalog;
mod engine;
mod report;
mod run;
mod serve;
mod sim;
mod stats;
mod triad;

use run::Ctx;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: membound-perfbench --workload <name> --seed <n> --seconds <1-600> --trace <0|1>";

/// Scratch space of every run, relative to the working directory.
const WORK_ROOT: &str = ".bench_work";

#[derive(Debug)]
struct Args {
    workload: &'static catalog::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(catalog::workload(&value).ok_or_else(|| {
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1-600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(catalog::DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// This run's scratch directory; removed (with the root, once empty)
/// when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<Self> {
        let dir = Path::new(WORK_ROOT).join(format!("run-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

fn measure(args: &Args, ctx: &Ctx) -> Result<(bool, String), String> {
    let m = match args.workload.name {
        catalog::FIG2_MANGO => engine::FIG2_MANGO.measure(ctx)?,
        catalog::TRIAD_ANALYTIC => triad::measure(ctx)?,
        catalog::MANYCORE_SG2044 => engine::MANYCORE_SG2044.measure(ctx)?,
        catalog::SERVE_MIX => serve::measure(ctx)?,
        other => unreachable!("undispatched workload {other}"),
    };
    let metrics = report::end_to_end(&m, peak_rss_mb()?);
    report::print_measured(args.workload, args.seed, &m, &metrics);
    let values: Vec<(&str, f64)> = metrics.iter().map(|(name, s)| (*name, s.median)).collect();
    let correct = m.failed == 0 && m.attempted > 0;
    let json = report::result_json(
        correct,
        m.attempted,
        m.failed,
        &values,
        catalog::end_to_end_unit,
    );
    Ok((correct, json))
}

fn trace(args: &Args, ctx: &Ctx) -> Result<(bool, String), String> {
    let t = match args.workload.name {
        catalog::FIG2_MANGO => engine::FIG2_MANGO.trace(ctx)?,
        catalog::TRIAD_ANALYTIC => triad::trace(ctx)?,
        catalog::MANYCORE_SG2044 => engine::MANYCORE_SG2044.trace(ctx)?,
        catalog::SERVE_MIX => serve::trace(ctx)?,
        other => unreachable!("undispatched workload {other}"),
    };
    report::print_traced(args.workload, args.seed, &t);
    let values = report::per_layer_values(&t.layers);
    let correct = t.failed == 0 && t.attempted > 0;
    let json = report::result_json(
        correct,
        t.attempted,
        t.failed,
        &values,
        catalog::per_layer_unit,
    );
    Ok((correct, json))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("membound-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = match WorkDir::create() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("membound-perfbench: scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        dir: dir.0.clone(),
    };
    report::print_system_info();
    let outcome = if args.trace {
        trace(&args, &ctx)
    } else {
        measure(&args, &ctx)
    };
    drop(dir);
    match outcome {
        Ok((correct, json)) => {
            println!("{json}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("membound-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload serve-mix --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("serve-mix", 7, 10, true)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse("--workload nope --seconds 10").is_err());
        assert!(parse("--workload fig2-mango --seconds 0").is_err());
        assert!(parse("--workload fig2-mango --seconds 10 --trace 2").is_err());
        assert!(parse("--workload fig2-mango").is_err());
        assert!(parse("--workload").is_err());
    }
}
