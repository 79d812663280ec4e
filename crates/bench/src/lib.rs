//! Shared plumbing for the figure-regeneration binaries.
//!
//! Every binary in `src/bin` regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index): it prints a text table with the
//! same rows/series the paper plots, and writes machine-readable JSON
//! next to it under `results/`. The `fig*` binaries, `whatif_fused` and
//! `whatif_manycore` additionally execute their experiment matrices
//! through `membound_core::runner::Engine` and write a versioned JSONL
//! run log (`membound_core::telemetry`); the nine that simulate in their
//! own loops refuse the engine flags ([`Args::reject_engine_flags`]).

#![warn(missing_docs)]

use membound_core::cache::ResultCache;
use membound_core::figures;
use membound_core::runner::{
    resolve_jobs, CellResult, Engine, ExperimentMatrix, RunOptions, RunResults,
};
use membound_core::telemetry::parse_partial_run_log;
use membound_parallel::Failpoint;
use membound_sim::Device;
use std::path::PathBuf;

/// Common command-line options of the figure binaries.
///
/// * `--full` — run the paper's full workload sizes (8192²/16384²
///   matrices, the 2544×2027 image). Defaults to scaled-down workloads
///   that finish in seconds while preserving every qualitative effect
///   (all working sets still exceed every modelled cache).
/// * `--json <path>` — where to write the JSON rows (defaults to
///   `results/<name>.json`).
/// * `--jobs <N>` — worker threads for the experiment engine (defaults
///   to `MEMBOUND_JOBS`, then the host's core count). Any job count
///   produces identical simulated results; only wall time changes.
/// * `--device <label>` — restrict the device axis to one device
///   (label or a case-insensitive prefix, e.g. `visionfive`).
/// * `--run-log <path>` — where to write the JSONL telemetry run log
///   (defaults to `results/<name>.jsonl`). The log is *streamed*: each
///   cell's line is appended and synced as the cell finishes, so a
///   killed run leaves a valid truncated log.
/// * `--resume <run-log>` — restore finished cells from a (possibly
///   truncated) run log of the same figure and re-simulate only the
///   missing ones. The resumed run's digest-bearing fields are
///   byte-identical to an uninterrupted run's.
/// * `--retries <N>` — re-run a panicking cell up to N times before
///   recording it as `failed` (default 0: a panic is recorded directly).
/// * `--cell-deadline <seconds>` — discard any cell attempt that
///   finishes past this wall-clock budget and record the cell as
///   `timed_out` (checked at attempt boundaries).
/// * `--cache-dir <dir>` — persistent content-addressed result cache
///   (DESIGN.md §12; the `MEMBOUND_CACHE_DIR` environment variable is
///   the fallback): cells whose configuration was simulated before are
///   restored instead of re-simulated, byte-identically in every
///   digest-bearing field; fresh results are inserted for next time.
///
/// The last five flags drive the experiment engine. A binary that does
/// not run through it refuses them with [`Args::reject_engine_flags`]
/// instead of ignoring them.
#[derive(Debug, Clone)]
pub struct Args {
    /// The binary's name: the stem of its default output files.
    pub name: String,
    /// Run the paper's full workload sizes.
    pub full: bool,
    /// Output path for JSON rows.
    pub json_path: PathBuf,
    /// Explicit `--jobs` value, if given.
    pub jobs: Option<u32>,
    /// Device filter, if given.
    pub device_filter: Option<String>,
    /// Output path for the JSONL run log, if given (the default is
    /// `results/<name>.jsonl`).
    pub run_log: Option<PathBuf>,
    /// Partial run log to resume from, if given.
    pub resume: Option<PathBuf>,
    /// Per-cell retry budget for panicking cells, if given (default 0).
    pub retries: Option<u32>,
    /// Per-cell wall-clock deadline in seconds, if given.
    pub cell_deadline: Option<f64>,
    /// Result-cache directory, if given (`--cache-dir`, else the
    /// `MEMBOUND_CACHE_DIR` environment variable).
    pub cache_dir: Option<PathBuf>,
}

impl Args {
    /// Parse from `std::env::args`, with `name` naming the default JSON
    /// output file.
    ///
    /// # Panics
    ///
    /// Panics on an unknown flag (with a usage message).
    #[must_use]
    pub fn parse(name: &str) -> Self {
        let usage = format!(
            "usage: {name} [--full] [--json <path>] [--jobs <N>] [--device <label>] \
             [--run-log <path>] [--resume <run-log>] [--retries <N>] \
             [--cell-deadline <seconds>] [--cache-dir <dir>]"
        );
        let mut full = false;
        let mut json_path = PathBuf::from(format!("results/{name}.json"));
        let mut jobs = None;
        let mut device_filter = None;
        let mut run_log = None;
        let mut resume = None;
        let mut retries = None;
        let mut cell_deadline = None;
        let mut cache_dir = None;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => full = true,
                "--json" => {
                    json_path =
                        PathBuf::from(args.next().expect("--json requires a path argument"));
                }
                "--jobs" => {
                    let v = args.next().expect("--jobs requires a thread count");
                    jobs = Some(v.parse().unwrap_or_else(|_| {
                        panic!("--jobs requires a positive integer, got {v:?}")
                    }));
                }
                "--device" => {
                    device_filter = Some(args.next().expect("--device requires a device label"));
                }
                "--run-log" => {
                    run_log = Some(PathBuf::from(
                        args.next().expect("--run-log requires a path argument"),
                    ));
                }
                "--resume" => {
                    resume = Some(PathBuf::from(
                        args.next()
                            .expect("--resume requires the path of a partial run log"),
                    ));
                }
                "--retries" => {
                    let v = args.next().expect("--retries requires a count");
                    retries = Some(v.parse().unwrap_or_else(|_| {
                        panic!("--retries requires a non-negative integer, got {v:?}")
                    }));
                }
                "--cell-deadline" => {
                    let v = args.next().expect("--cell-deadline requires seconds");
                    let seconds: f64 = v
                        .parse()
                        .unwrap_or_else(|_| panic!("--cell-deadline requires seconds, got {v:?}"));
                    assert!(
                        seconds > 0.0,
                        "--cell-deadline requires positive seconds, got {v:?}"
                    );
                    cell_deadline = Some(seconds);
                }
                "--cache-dir" => {
                    cache_dir = Some(PathBuf::from(
                        args.next().expect("--cache-dir requires a directory"),
                    ));
                }
                "--help" | "-h" => {
                    println!("{usage}");
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}; {usage}"),
            }
        }
        Self {
            name: name.to_string(),
            full,
            json_path,
            jobs,
            device_filter,
            run_log,
            resume,
            retries,
            cell_deadline,
            cache_dir,
        }
    }

    /// Where the JSONL run log goes: `--run-log`, else
    /// `results/<name>.jsonl`.
    #[must_use]
    pub fn run_log_path(&self) -> PathBuf {
        self.run_log
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!("results/{}.jsonl", self.name)))
    }

    /// The first engine flag this invocation set, if any.
    fn engine_flag(&self) -> Option<&'static str> {
        [
            ("--run-log", self.run_log.is_some()),
            ("--resume", self.resume.is_some()),
            ("--retries", self.retries.is_some()),
            ("--cell-deadline", self.cell_deadline.is_some()),
            ("--cache-dir", self.cache_dir.is_some()),
        ]
        .into_iter()
        .find_map(|(flag, set)| set.then_some(flag))
    }

    /// Exit with a usage error (status 2) naming the first engine flag
    /// given: for the binaries that simulate in their own loops.
    pub fn reject_engine_flags(&self) {
        if let Some(flag) = self.engine_flag() {
            eprintln!(
                "{}: {flag} needs the experiment engine, which this binary does not use",
                self.name
            );
            std::process::exit(2);
        }
    }

    /// The result cache these options select, opened at `--cache-dir`
    /// or the `MEMBOUND_CACHE_DIR` environment variable (the flag
    /// wins); `None` when neither is set.
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be opened as a cache (e.g. its
    /// index file belongs to something else).
    #[must_use]
    pub fn cache(&self) -> Option<ResultCache> {
        let dir = self.cache_dir.clone().or_else(|| {
            std::env::var_os("MEMBOUND_CACHE_DIR")
                .filter(|v| !v.is_empty())
                .map(PathBuf::from)
        })?;
        Some(
            ResultCache::open(&dir)
                .unwrap_or_else(|e| panic!("--cache-dir {}: {e}", dir.display())),
        )
    }

    /// The experiment engine these options select: `--jobs`, else
    /// `MEMBOUND_JOBS`, else the host core count.
    #[must_use]
    pub fn engine(&self) -> Engine {
        Engine::new(resolve_jobs(self.jobs))
    }

    /// Execute `matrix` under this invocation's fault-tolerance policy:
    /// streaming telemetry to the `--run-log` path, `--resume` /
    /// `--retries` / `--cell-deadline`, and any `MEMBOUND_FAILPOINT`
    /// fault injection.
    ///
    /// # Panics
    ///
    /// Panics (with the underlying message) when the `--resume` log
    /// cannot be read, is corrupt, or does not describe `matrix`, and on
    /// a malformed `MEMBOUND_FAILPOINT` spec.
    #[must_use]
    pub fn run_matrix(&self, engine: &Engine, matrix: &ExperimentMatrix) -> RunResults {
        let resume = self.resume.as_ref().map(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("--resume {}: {e}", path.display()));
            let partial = parse_partial_run_log(&text)
                .unwrap_or_else(|e| panic!("--resume {}: {e}", path.display()));
            println!(
                "[resuming from {}: {} of {} cell records present{}]",
                path.display(),
                partial.records.len(),
                partial.header.cells,
                if partial.truncated_tail {
                    ", torn final line dropped"
                } else {
                    ""
                }
            );
            partial
        });
        let cache = self.cache();
        let options = RunOptions {
            resume,
            retries: self.retries.unwrap_or(0),
            cell_deadline: self.cell_deadline,
            stream_log: Some(self.run_log_path()),
            failpoint: Failpoint::from_env(),
            cache,
        };
        let results = engine
            .run_with(matrix, &options)
            .unwrap_or_else(|e| panic!("{e}"));
        if results.restored > 0 {
            println!(
                "[restored {} cells from the resume log; re-simulated {}]",
                results.restored,
                results.cells.len() as u64 - results.restored
            );
        }
        if let Some(cache) = &options.cache {
            let misses = results.cells.len() as u64 - results.cached - results.restored;
            println!(
                "[result cache: hits={} misses={} at {}]",
                results.cached,
                misses,
                cache.dir().display()
            );
        }
        results
    }

    /// The devices the run covers: the four paper boards, or the set
    /// `--device` picks ([`figures::devices`]) — e.g. `visionfive`
    /// selects the StarFive VisionFive, `mango,sg2044` both.
    ///
    /// # Panics
    ///
    /// Panics when the filter matches no device or is ambiguous,
    /// listing the candidates.
    #[must_use]
    pub fn devices(&self) -> Vec<Device> {
        figures::devices(self.device_filter.as_deref()).unwrap_or_else(|e| panic!("--device: {e}"))
    }

    /// Write JSON rows (creating the parent directory), and report where.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write_json(&self, json: &str) {
        if let Some(dir) = self.json_path.parent() {
            std::fs::create_dir_all(dir).expect("create results directory");
        }
        std::fs::write(&self.json_path, json).expect("write JSON results");
        println!("\n[json rows written to {}]", self.json_path.display());
    }

    /// Write an engine run's JSONL telemetry log, and report where.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write_run_log(&self, results: &membound_core::runner::RunResults) {
        results
            .write_run_log(&self.run_log_path())
            .expect("write run log");
        println!(
            "[run log ({} cells, jobs={}, digest {}) written to {}]",
            results.cells.len(),
            results.jobs,
            results.combined_digest(),
            self.run_log_path().display()
        );
    }
}

/// The workload-scale note printed at the top of every figure.
#[must_use]
pub fn scale_banner(full: bool) -> &'static str {
    if full {
        "workload: paper-scale (--full)"
    } else {
        "workload: scaled-down default (pass --full for paper-scale sizes)"
    }
}

/// A device's §3.3 STREAM baseline in `results`: the bandwidth of its
/// DRAM Triad cell, or `None` when that cell panicked, failed or timed
/// out — the device's other cells then carry no utilization.
#[must_use]
pub fn stream_baseline(results: &RunResults, device: &str) -> Option<f64> {
    results
        .cells
        .iter()
        .filter(|r| r.cell.device == device)
        .find_map(CellResult::gbps)
}

/// Exit 1 naming every device whose STREAM baseline is missing from
/// `results`. A utilization figure calls this last, after writing its
/// rows and run log, so a `--resume` of that log can finish the run.
pub fn exit_on_failed_baselines(results: &RunResults, devices: &[Device]) {
    let failed: Vec<&str> = devices
        .iter()
        .map(|d| d.label())
        .filter(|d| stream_baseline(results, d).is_none())
        .collect();
    if !failed.is_empty() {
        eprintln!(
            "error: STREAM baseline failed on {}: no utilization for its cells (see the run log)",
            failed.join(", ")
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(full: bool) -> Args {
        Args {
            name: "x".into(),
            full,
            json_path: PathBuf::from("x.json"),
            jobs: None,
            device_filter: None,
            run_log: None,
            resume: None,
            retries: None,
            cell_deadline: None,
            cache_dir: None,
        }
    }

    #[test]
    fn banners_differ() {
        assert_ne!(scale_banner(true), scale_banner(false));
    }

    #[test]
    fn device_filter_selects_by_loose_substring() {
        let mut a = args(false);
        // No filter: the four paper boards, never the what-if presets.
        assert_eq!(a.devices(), Device::paper().to_vec());
        a.device_filter = Some("visionfive".into());
        let picked = a.devices();
        assert_eq!(picked, vec![Device::StarFiveVisionFive]);
    }

    #[test]
    fn device_filter_exact_set_multi_selects() {
        let mut a = args(false);
        a.device_filter = Some("mango,sg2044".into());
        assert_eq!(
            a.devices(),
            vec![Device::MangoPiMqPro, Device::SophonSG2044]
        );
    }

    #[test]
    #[should_panic(expected = "no device matches")]
    fn unknown_device_filter_panics() {
        let mut a = args(false);
        a.device_filter = Some("cray-1".into());
        let _ = a.devices();
    }

    #[test]
    #[should_panic(expected = "ambiguous")]
    fn ambiguous_device_filter_panics() {
        let mut a = args(false);
        // "pi" is a substring of both Mango Pi MQ-Pro and Raspberry
        // Pi 4 — silently sweeping both used to corrupt single-device
        // figure runs.
        a.device_filter = Some("pi".into());
        let _ = a.devices();
    }

    #[test]
    fn engine_flags_are_named_when_set() {
        let mut a = args(true);
        assert_eq!(a.engine_flag(), None, "--full is not an engine flag");
        assert_eq!(a.run_log_path(), PathBuf::from("results/x.jsonl"));
        // Set in reverse order of report, so each is the first one set.
        a.cache_dir = Some("d".into());
        assert_eq!(a.engine_flag(), Some("--cache-dir"));
        a.cell_deadline = Some(1.0);
        assert_eq!(a.engine_flag(), Some("--cell-deadline"));
        a.retries = Some(0);
        assert_eq!(a.engine_flag(), Some("--retries"));
        a.resume = Some("/nonexistent.jsonl".into());
        assert_eq!(a.engine_flag(), Some("--resume"));
        a.run_log = Some("r.jsonl".into());
        assert_eq!(a.engine_flag(), Some("--run-log"));
    }

    #[test]
    fn engine_respects_explicit_jobs() {
        let mut a = args(false);
        a.jobs = Some(3);
        assert_eq!(a.engine().jobs(), 3);
    }

    #[test]
    fn a_panicked_triad_cell_is_a_missing_baseline() {
        let mango = Device::MangoPiMqPro;
        let ladder = figures::transpose_ladders(
            "x",
            &figures::transpose_sizes(&[64], 16).unwrap(),
            &[mango],
        );
        let matrix = figures::with_stream_baselines(&[mango], ladder);
        let run = |spec: Option<&str>| {
            let options = RunOptions {
                failpoint: spec.map(|s| Failpoint::parse(s).expect("valid spec")),
                ..RunOptions::default()
            };
            Engine::new(1).run_with(&matrix, &options).expect("run")
        };
        let clean = run(None);
        assert_eq!(
            stream_baseline(&clean, mango.label()),
            clean.cells[0].gbps()
        );
        assert!(stream_baseline(&clean, mango.label()).is_some());
        assert_eq!(stream_baseline(&clean, "Other"), None);
        let broken = run(Some("cell:panic@0"));
        assert_eq!(stream_baseline(&broken, mango.label()), None);
        assert!(broken.cells[1..]
            .iter()
            .all(|r| r.bandwidth_utilization.is_none()));
    }
}
