//! The `serve-mix` workload: an in-process `membound-serve` daemon on a
//! socket inside the run's scratch directory, with a result cache warmed
//! in set-up, driven by two closed-loop clients on persistent
//! connections with no think time. Nine of every ten jobs are the warm
//! Fig. 2 Mango Pi matrix (ten cache reads); the tenth, at a seeded
//! position, is a cold transpose ladder of a size unique within the run.

use crate::catalog;
use crate::run::{self, cell_output, mix, Ctx, Layers, Measured, Replay, Traced};
use crate::stats::{percentile_sorted, sorted, Summary};
use membound_core::cache::ResultCache;
use membound_core::runner::{Cell, Engine, ExperimentMatrix, RunResults};
use membound_parallel::ShutdownFlag;
use membound_serve::client::{SubmitOptions, SubmitOutcome};
use membound_serve::{Client, JobSpec, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The daemon's shared worker budget (`--jobs`).
const JOBS: u32 = 2;
/// Closed-loop clients, one persistent connection each.
const CLIENTS: usize = 2;
/// Admission queue capacity: above the two clients' one job each, so
/// this load is never refused.
const QUEUE_CAP: usize = 8;
/// Set-ups per untraced run (each starts a daemon and warms its cache).
const SETUP_REPS: usize = 3;
/// Jobs per block: nine warm, one cold.
const BLOCK_JOBS: u64 = 10;
/// Jobs per batch of the traced run.
const TRACE_JOBS: u64 = 100;
/// Smallest cold-ladder matrix size; sizes run over `MISS_SIZES`
/// consecutive values, a narrow range so the cold jobs' cost varies
/// little from seed to seed.
const MISS_MIN: u64 = 192;
const MISS_SIZES: u64 = 128;
/// Block sizes of the cold ladders: 4, 8, ..., 64.
const MISS_BLOCKS: u64 = 16;
/// Lookups of each key by the cache probe.
const LOOKUP_REPS: usize = 5;
/// How long set-up waits for the daemon's socket.
const START_TIMEOUT: Duration = Duration::from_secs(10);

fn warm_spec() -> JobSpec {
    JobSpec::Fig2 {
        full: false,
        device: Some("mango".into()),
    }
}

/// The seeded job sequence of one run.
#[derive(Debug, Clone, Copy)]
struct Plan {
    seed: u64,
    /// Odd multiplier and offset of the permutation that maps block
    /// numbers to distinct cold specs.
    mul: u64,
    add: u64,
}

/// Distinct cold specs before the sequence would repeat one.
const MISS_SPACE: u64 = MISS_SIZES * MISS_BLOCKS;

impl Plan {
    fn new(seed: u64) -> Self {
        let h = mix(seed);
        Self {
            seed,
            mul: (h % MISS_SPACE) | 1,
            add: (h >> 32) % MISS_SPACE,
        }
    }

    /// Job `k` of the sequence: whether it is the cold one, and its spec.
    fn job(&self, k: u64) -> (bool, JobSpec) {
        let block = k / BLOCK_JOBS;
        let cold_at = mix(self.seed ^ block.wrapping_mul(0x9e37_79b9)) % BLOCK_JOBS;
        if k % BLOCK_JOBS != cold_at {
            return (false, warm_spec());
        }
        let c = (block.wrapping_mul(self.mul).wrapping_add(self.add)) % MISS_SPACE;
        let spec = JobSpec::TransposeLadder {
            sizes: vec![(MISS_MIN + c % MISS_SIZES) as usize],
            block: (4 * (1 + c / MISS_SIZES)) as usize,
            device: Some("mango".into()),
        };
        (true, spec)
    }
}

/// A daemon serving on a socket under `dir`, on its own thread.
struct Daemon {
    dir: PathBuf,
    socket: PathBuf,
    shutdown: ShutdownFlag,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start(dir: PathBuf) -> Result<Self, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = dir.join("sock");
        let config = ServerConfig {
            socket: socket.clone(),
            jobs: JOBS,
            queue_cap: QUEUE_CAP,
            cache_dir: Some(dir.join("cache")),
        };
        let shutdown = ShutdownFlag::manual();
        let flag = shutdown.clone();
        let thread = std::thread::spawn(move || Server::new(config).run(&flag));
        let mut daemon = Self {
            dir,
            socket,
            shutdown,
            thread: Some(thread),
        };
        let deadline = Instant::now() + START_TIMEOUT;
        while Client::connect(&daemon.socket).is_err() {
            if daemon.thread.as_ref().is_some_and(JoinHandle::is_finished)
                || Instant::now() > deadline
            {
                return Err(match daemon.join() {
                    Err(e) => format!("daemon did not start: {e}"),
                    Ok(()) => "daemon did not start".into(),
                });
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(daemon)
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(&self.socket).map_err(|e| format!("connect: {e}"))
    }

    fn cache_dir(&self) -> PathBuf {
        self.dir.join("cache")
    }

    /// Drain the daemon and wait for its thread.
    fn join(&mut self) -> Result<(), String> {
        self.shutdown.request();
        match self.thread.take().map(JoinHandle::join) {
            None | Some(Ok(Ok(()))) => Ok(()),
            Some(Ok(Err(e))) => Err(format!("daemon: {e}")),
            Some(Err(_)) => Err("daemon thread panicked".into()),
        }
    }

    fn stop(mut self) -> Result<(), String> {
        self.join()?;
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("{}: {e}", self.dir.display()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.join();
    }
}

/// Start a daemon and warm its cache with one cold run of the warm job.
fn setup(dir: PathBuf) -> Result<Daemon, String> {
    let daemon = Daemon::start(dir)?;
    let mut client = daemon.client()?;
    let outcome = client
        .submit(&warm_spec(), &SubmitOptions::default(), |_| {})
        .map_err(|e| format!("warm-up job: {e}"))?;
    match outcome {
        SubmitOutcome::Done { status, digest, .. }
            if status == "done" && digest.as_deref() == Some(catalog::FIG2_MANGO_DIGEST) =>
        {
            Ok(daemon)
        }
        other => Err(format!("warm-up job: {other:?}")),
    }
}

/// One submitted job as the client saw it.
#[derive(Debug)]
struct Sample {
    cold: bool,
    spec: JobSpec,
    /// Submit to terminal line; `INFINITY` unless the job finished.
    latency_ms: f64,
    /// Submit to the first streamed (header) line.
    admit_ms: Option<f64>,
    outcome: Result<SubmitOutcome, String>,
}

impl Sample {
    fn done(&self) -> Option<(&str, Option<&str>, u64, u64)> {
        match &self.outcome {
            Ok(SubmitOutcome::Done {
                status,
                digest,
                cells,
                cached,
                ..
            }) => Some((status, digest.as_deref(), *cells, *cached)),
            _ => None,
        }
    }

    fn rejected(&self) -> bool {
        matches!(self.outcome, Ok(SubmitOutcome::Rejected { .. }))
    }
}

/// When a closed loop stops submitting.
#[derive(Debug, Clone, Copy)]
enum Stop {
    At(Instant),
    Before(u64),
}

/// Run the clients from job `first` until `stop`; returns every job's
/// sample and the loop's wall seconds.
fn closed_loop(
    daemon: &Daemon,
    plan: Plan,
    first: u64,
    stop: Stop,
) -> Result<(Vec<Sample>, f64), String> {
    let next = AtomicU64::new(first);
    let start = Instant::now();
    let per_client: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(|| client_loop(daemon, plan, &next, stop)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    for client in per_client {
        samples.extend(client?);
    }
    Ok((samples, wall))
}

fn client_loop(
    daemon: &Daemon,
    plan: Plan,
    next: &AtomicU64,
    stop: Stop,
) -> Result<Vec<Sample>, String> {
    let mut client = daemon.client()?;
    let mut samples = Vec::new();
    loop {
        if let Stop::At(t) = stop {
            if Instant::now() >= t {
                break;
            }
        }
        let k = next.fetch_add(1, Ordering::Relaxed);
        if let Stop::Before(end) = stop {
            if k >= end {
                break;
            }
        }
        let (cold, spec) = plan.job(k);
        let start = Instant::now();
        let mut admit_ms = None;
        let outcome = client
            .submit(&spec, &SubmitOptions::default(), |_line| {
                admit_ms.get_or_insert_with(|| start.elapsed().as_secs_f64() * 1e3);
            })
            .map_err(|e| e.to_string());
        let finished = matches!(outcome, Ok(SubmitOutcome::Done { .. }));
        let broken = outcome.is_err();
        samples.push(Sample {
            cold,
            spec,
            latency_ms: if finished {
                start.elapsed().as_secs_f64() * 1e3
            } else {
                f64::INFINITY
            },
            admit_ms,
            outcome,
        });
        if broken {
            // The connection is gone; every later submit would fail too.
            break;
        }
    }
    Ok(samples)
}

/// The in-process digest of a spec's matrix, and the run it came from.
fn in_process(spec: &JobSpec, jobs: u32) -> Result<(ExperimentMatrix, RunResults, f64), String> {
    let matrix = spec.matrix()?;
    let start = Instant::now();
    let results = Engine::new(jobs).run(&matrix);
    Ok((matrix, results, start.elapsed().as_secs_f64()))
}

/// Count the samples that failed: not finished, not `done`, or whose
/// digest differs from an in-process `Engine::run` of the same spec.
fn failures(
    samples: &[Sample],
    oracle: &impl Fn(&JobSpec) -> Result<String, String>,
) -> Result<u64, String> {
    let mut failed = 0;
    for s in samples {
        let ok = match s.done() {
            Some(("done", Some(digest), _, _)) => {
                let expected = if s.cold {
                    oracle(&s.spec)?
                } else {
                    catalog::FIG2_MANGO_DIGEST.to_string()
                };
                digest == expected
            }
            _ => false,
        };
        failed += u64::from(!ok);
    }
    Ok(failed)
}

fn p50(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

pub fn measure(ctx: &Ctx) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut daemon = None;
    for k in 0..SETUP_REPS {
        if let Some(previous) = daemon.take() {
            Daemon::stop(previous)?;
        }
        let start = Instant::now();
        daemon = Some(setup(ctx.dir.join(format!("serve-{k}")))?);
        m.setups.push(start.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("at least one set-up");
    let plan = Plan::new(ctx.seed);
    let (samples, wall) = closed_loop(&daemon, plan, 0, Stop::At(Instant::now() + ctx.seconds))?;
    daemon.stop()?;
    if samples.is_empty() {
        return Err("no job was submitted".into());
    }
    if samples.len() as u64 > MISS_SPACE * BLOCK_JOBS {
        return Err("the job sequence repeated a cold spec".into());
    }

    let oracle = |spec: &JobSpec| in_process(spec, JOBS).map(|(_, r, _)| r.combined_digest());
    m.attempted = samples.len() as u64;
    m.failed = failures(&samples, &oracle)?;
    m.rounds
        .push(wall * BLOCK_JOBS as f64 / samples.len() as f64);
    m.latencies_ms = vec![samples.iter().map(|s| s.latency_ms).collect()];

    let warm: Vec<f64> = samples
        .iter()
        .filter(|s| !s.cold)
        .map(|s| s.latency_ms)
        .collect();
    let cold: Vec<f64> = samples
        .iter()
        .filter(|s| s.cold)
        .map(|s| s.latency_ms)
        .collect();
    let cold_sorted = sorted(&cold);
    m.digests
        .push(("warm job".into(), catalog::FIG2_MANGO_DIGEST.into()));
    m.notes.push(format!(
        "{} jobs ({} cold) in {wall:.3} s: {:.1} jobs/s; hit p50 {:.3} ms, miss p50 {:.3} ms, miss p90 {:.3} ms",
        samples.len(),
        cold.len(),
        samples.len() as f64 / wall,
        p50(&warm),
        p50(&cold),
        percentile_sorted(&cold_sorted, 90.0).unwrap_or(0.0),
    ));
    m.notes
        .push("wall_s is the time per block of 10 jobs at the closed-loop rate".into());
    Ok(m)
}

pub fn trace(ctx: &Ctx) -> Result<Traced, String> {
    let daemon = setup(ctx.dir.join("serve"))?;
    let plan = Plan::new(ctx.seed);
    let (untraced, untraced_wall) = closed_loop(&daemon, plan, 0, Stop::Before(TRACE_JOBS))?;
    let (traced, traced_wall) =
        closed_loop(&daemon, plan, TRACE_JOBS, Stop::Before(2 * TRACE_JOBS))?;

    let mut layers = Layers::new();
    let admit: Vec<f64> = traced.iter().filter_map(|s| s.admit_ms).collect();
    let exec: Vec<f64> = traced
        .iter()
        .filter_map(|s| s.admit_ms.map(|a| s.latency_ms - a))
        .collect();
    layers.set("serve.admit_p50_ms", p50(&admit));
    layers.set(
        "serve.admit_p99_ms",
        percentile_sorted(&sorted(&admit), 99.0).unwrap_or(0.0),
    );
    layers.set("serve.exec_p50_ms", p50(&exec));
    let rejected = untraced
        .iter()
        .chain(&traced)
        .filter(|s| s.rejected())
        .count();
    layers.set("serve.rejected", rejected as f64);
    let (cells, cached) = traced
        .iter()
        .filter_map(Sample::done)
        .fold((0, 0), |(n, c), (_, _, cells, cached)| {
            (n + cells, c + cached)
        });
    if cells > 0 {
        layers.set("cache.hit_ratio", cached as f64 / cells as f64);
    }

    // In-process runs of the traced cold specs at --jobs 1: the runner
    // probe, the served digests' oracle, and the cells the cold jobs
    // simulated. (Warm jobs simulate nothing; their digest is pinned.)
    let mut runs = Vec::new();
    for s in traced.iter().filter(|s| s.cold) {
        let (matrix, results, wall) = in_process(&s.spec, 1)?;
        run::record_runner(wall, &results.cells, results.deduped, &mut layers);
        runs.push((s.spec.clone(), matrix, results));
    }
    let oracle = |spec: &JobSpec| -> Result<String, String> {
        match runs.iter().find(|(s, _, _)| s == spec) {
            Some((_, _, results)) => Ok(results.combined_digest()),
            None => in_process(spec, JOBS).map(|(_, r, _)| r.combined_digest()),
        }
    };
    let failed = failures(&untraced, &oracle)? + failures(&traced, &oracle)?;

    let warm_matrix = warm_spec().matrix()?;
    cache_probe(
        &daemon.cache_dir(),
        &ctx.dir.join("probe-cache"),
        &warm_matrix,
        &runs,
        &mut layers,
    )?;
    daemon.stop()?;

    let mut cold_cells: Vec<(&Cell, String)> = Vec::new();
    for (_, matrix, results) in &runs {
        for i in run::distinct_cells(&results.cells) {
            let out = cell_output(&results.cells[i]).expect("distinct cells have output");
            cold_cells.push((&matrix.cells()[i], out));
        }
    }
    let replay = Replay::run(&cold_cells, JOBS)?;
    replay.record(&mut layers);
    run::compare(&cold_cells, &replay, JOBS, |_| true, &mut layers)?;
    layers.set("tracing.overhead_s", traced_wall - untraced_wall);

    let attempted = (untraced.len() + traced.len() + cold_cells.len()) as u64;
    Ok(Traced {
        layers,
        untraced_wall,
        traced_wall,
        attempted,
        failed: failed + replay.mismatches,
        digests: vec![("warm job".into(), catalog::FIG2_MANGO_DIGEST.into())],
        notes: vec![format!(
            "two batches of {TRACE_JOBS} jobs; the second carries the admission spans"
        )],
    })
}

/// `ResultCache::lookup` and `insert` timed against a copy of the
/// daemon's cache directory, on the keys the traced jobs use: lookups
/// of the warm job's and the cold jobs' keys, inserts of the cold jobs'
/// keys (re-inserting their stored entries, as a cold job inserts).
fn cache_probe(
    src: &Path,
    dst: &Path,
    warm: &ExperimentMatrix,
    cold: &[(JobSpec, ExperimentMatrix, RunResults)],
    layers: &mut Layers,
) -> Result<(), String> {
    copy_tree(src, dst).map_err(|e| format!("copying the cache: {e}"))?;
    let cache = ResultCache::open(dst).map_err(|e| format!("probe cache: {e}"))?;
    let mut lookups = Vec::new();
    let mut inserts = Vec::new();
    let matrices = std::iter::once((false, warm)).chain(cold.iter().map(|(_, m, _)| (true, m)));
    for (insert, matrix) in matrices {
        for cell in matrix.cells() {
            let key = cache.key_for(cell);
            let mut entry = None;
            for _ in 0..LOOKUP_REPS {
                let start = Instant::now();
                entry = cache.lookup(&key);
                lookups.push(start.elapsed().as_secs_f64() * 1e3);
            }
            let entry =
                entry.ok_or_else(|| format!("cell {} missing from the cache", cell.variant))?;
            if insert {
                let start = Instant::now();
                cache
                    .insert(&key, &entry, || {})
                    .map_err(|e| format!("probe insert: {e}"))?;
                inserts.push(start.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    layers.set("cache.lookup_ms", p50(&lookups));
    layers.set("cache.insert_ms", p50(&inserts));
    drop(cache);
    std::fs::remove_dir_all(dst).map_err(|e| format!("{}: {e}", dst.display()))
}

fn copy_tree(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), to)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cold_job_per_block_and_cold_specs_never_repeat() {
        let plan = Plan::new(42);
        let mut cold = std::collections::HashSet::new();
        for block in 0..MISS_SPACE {
            let jobs: Vec<(bool, JobSpec)> = (0..BLOCK_JOBS)
                .map(|i| plan.job(block * BLOCK_JOBS + i))
                .collect();
            let colds: Vec<&JobSpec> = jobs.iter().filter(|j| j.0).map(|j| &j.1).collect();
            assert_eq!(colds.len(), 1, "block {block}");
            assert!(
                cold.insert(format!("{:?}", colds[0])),
                "block {block} repeats"
            );
        }
        let again = Plan::new(42);
        assert_eq!(
            format!("{:?}", again.job(123)),
            format!("{:?}", plan.job(123))
        );
    }
}
