//! The parallel experiment engine.
//!
//! Every figure of the reproduction is a matrix of *cells* — one kernel
//! variant on one device at one workload — and every cell is an
//! independent, deterministic simulation. The figure binaries used to
//! walk that matrix serially; this module shards it across
//! [`membound_parallel::Pool::run_tasks`] instead:
//!
//! * [`ExperimentMatrix`] declares the cells (and optional per-device
//!   STREAM baselines for the §3.3 utilization metric);
//! * [`Engine`] executes them on `jobs` worker threads — from `--jobs`,
//!   the `MEMBOUND_JOBS` environment variable, or the host core count
//!   (see [`resolve_jobs`]) — catching per-cell panics so one bad cell
//!   cannot take down a whole figure run;
//! * [`RunResults`] holds the outcomes *in cell order*, attaches
//!   speedup-vs-baseline per ladder, and renders the versioned JSONL
//!   run log of [`crate::telemetry`].
//!
//! The `jobs` value is one shared [`JobBudget`] across *two* nested
//! parallel layers: the engine's per-cell sharding leases one slot per
//! outer worker, and each cell's [`membound_sim::Machine`] leases the
//! spare slots to replay its simulated cores concurrently. `--jobs N`
//! therefore bounds the total number of concurrently running host
//! threads instead of multiplying into `cells × cores` (see DESIGN.md
//! §9).
//!
//! Parallel runs are bit-identical to serial ones: the simulator is
//! deterministic and results are slotted by cell index (and per-core
//! outcomes by tid), so the per-cell [`SimReport`]s (and therefore
//! their [`stats_digest`](SimReport::stats_digest)s and the run log's
//! simulated fields) do not depend on the job count. Only host wall
//! times and worker counts differ.

use crate::blur::{BlurConfig, BlurKernel, BlurVariant, FusedBlurKernel};
use crate::cache::{CacheEntry, CacheKey, CachedOutcome, ResultCache};
use crate::gbmv::{traced::GbmvKernel, GbmvConfig, GbmvVariant};
use crate::kernel::{simulate, TracedKernel};
use crate::metrics::speedup;
use crate::stream::{StreamKernel, StreamOp};
use crate::telemetry::{self, CellRecord, PartialRunLog, RunHeader, SimRecord, StreamingRunLog};
use crate::transpose::{traced::TransposeKernel, TransposeConfig, TransposeVariant};
use membound_parallel::{Failpoint, JobBudget, Pool, Task};
use membound_sim::{Device, DeviceSpec, Machine, SimReport};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How many worker threads to use, resolved from (in precedence order)
/// an explicit `--jobs` value, the `MEMBOUND_JOBS` environment variable,
/// and the host's available parallelism.
///
/// A requested value of `0` is clamped to one worker with a warning: in
/// this codebase "zero workers" is the [`JobBudget::serial`] convention
/// — run on the calling thread with no extra parallelism — and one
/// pool worker is exactly that, but the clamp should never be silent.
#[must_use]
pub fn resolve_jobs(cli: Option<u32>) -> u32 {
    if let Some(n) = cli {
        if n == 0 {
            eprintln!(
                "warning: --jobs 0 means serial execution (the JobBudget::serial \
                 convention); clamping to 1 worker"
            );
        }
        return n.max(1);
    }
    if let Ok(v) = std::env::var("MEMBOUND_JOBS") {
        if let Ok(n) = v.trim().parse::<u32>() {
            if n == 0 {
                eprintln!(
                    "warning: MEMBOUND_JOBS=0 means serial execution (the \
                     JobBudget::serial convention); clamping to 1 worker"
                );
            }
            return n.max(1);
        }
        eprintln!(
            "warning: ignoring unparseable MEMBOUND_JOBS value {:?}; \
             falling back to available parallelism",
            v
        );
    }
    std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(1)
}

/// What one cell simulates.
#[derive(Debug, Clone)]
pub enum CellKind {
    /// One transpose variant ([`TransposeKernel`]).
    Transpose {
        /// Ladder variant.
        variant: TransposeVariant,
        /// Matrix workload.
        cfg: TransposeConfig,
    },
    /// One blur variant ([`BlurKernel`]).
    Blur {
        /// Ladder variant.
        variant: BlurVariant,
        /// Image workload.
        cfg: BlurConfig,
    },
    /// The fused-blur extension ([`FusedBlurKernel`]).
    FusedBlur {
        /// Image workload.
        cfg: BlurConfig,
        /// Simulated threads (clamped to the device's cores).
        threads: u32,
    },
    /// One STREAM measurement ([`StreamKernel`]).
    Stream {
        /// STREAM operation.
        op: StreamOp,
        /// Cache level index, or `None` for DRAM.
        level: Option<usize>,
    },
    /// One band-matrix `gbmv` variant ([`GbmvKernel`]).
    Gbmv {
        /// Ladder variant.
        variant: GbmvVariant,
        /// Band workload.
        cfg: GbmvConfig,
    },
}

impl CellKind {
    /// Bytes the kernel must move between DRAM and the CPU, when the
    /// §3.3 utilization metric applies to this kind of cell.
    #[must_use]
    pub fn nominal_bytes(&self) -> Option<u64> {
        match self {
            CellKind::Transpose { cfg, .. } => Some(cfg.nominal_bytes()),
            CellKind::Blur { cfg, .. } | CellKind::FusedBlur { cfg, .. } => {
                Some(cfg.nominal_bytes())
            }
            CellKind::Stream { .. } => None,
            CellKind::Gbmv { cfg, .. } => Some(cfg.nominal_bytes()),
        }
    }

    /// Kernel-family label in the telemetry schema (and the result
    /// cache's key material): `"transpose"`, `"blur"`, `"fused_blur"`,
    /// `"stream"`, or `"gbmv"`.
    #[must_use]
    pub fn kernel(&self) -> &'static str {
        match self {
            CellKind::Transpose { .. } => "transpose",
            CellKind::Blur { .. } => "blur",
            CellKind::FusedBlur { .. } => "fused_blur",
            CellKind::Stream { .. } => "stream",
            CellKind::Gbmv { .. } => "gbmv",
        }
    }
}

/// One cell of the experiment matrix.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload panel label (e.g. the matrix size, `"2048"`).
    pub panel: String,
    /// Device label (for grouping and the run log).
    pub device: String,
    /// Variant label within the ladder.
    pub variant: String,
    /// Device model to simulate on.
    pub spec: DeviceSpec,
    /// What to simulate.
    pub kind: CellKind,
}

impl Cell {
    fn new(
        panel: impl Into<String>,
        device: &str,
        spec: &DeviceSpec,
        variant: &str,
        kind: CellKind,
    ) -> Self {
        Self {
            panel: panel.into(),
            device: device.into(),
            variant: variant.into(),
            spec: spec.clone(),
            kind,
        }
    }

    /// A transpose cell.
    #[must_use]
    pub fn transpose(
        panel: impl Into<String>,
        device: &str,
        spec: &DeviceSpec,
        variant: TransposeVariant,
        cfg: TransposeConfig,
    ) -> Self {
        let kind = CellKind::Transpose { variant, cfg };
        Self::new(panel, device, spec, variant.label(), kind)
    }

    /// A blur cell.
    #[must_use]
    pub fn blur(
        panel: impl Into<String>,
        device: &str,
        spec: &DeviceSpec,
        variant: BlurVariant,
        cfg: BlurConfig,
    ) -> Self {
        let kind = CellKind::Blur { variant, cfg };
        Self::new(panel, device, spec, variant.label(), kind)
    }

    /// A fused-blur cell.
    #[must_use]
    pub fn fused_blur(
        panel: impl Into<String>,
        device: &str,
        spec: &DeviceSpec,
        cfg: BlurConfig,
        threads: u32,
    ) -> Self {
        let kind = CellKind::FusedBlur { cfg, threads };
        Self::new(panel, device, spec, "Fused", kind)
    }

    /// A STREAM cell (`level` is a cache index, `None` for DRAM).
    #[must_use]
    pub fn stream(
        panel: impl Into<String>,
        device: &str,
        spec: &DeviceSpec,
        op: StreamOp,
        level: Option<usize>,
    ) -> Self {
        let kind = CellKind::Stream { op, level };
        Self::new(panel, device, spec, op.label(), kind)
    }

    /// A band-matrix `gbmv` cell.
    #[must_use]
    pub fn gbmv(
        panel: impl Into<String>,
        device: &str,
        spec: &DeviceSpec,
        variant: GbmvVariant,
        cfg: GbmvConfig,
    ) -> Self {
        let kind = CellKind::Gbmv { variant, cfg };
        Self::new(panel, device, spec, variant.label(), kind)
    }

    /// Key of the speedup ladder this cell belongs to.
    fn ladder_key(&self) -> (String, String, &'static str) {
        (self.panel.clone(), self.device.clone(), self.kind.kernel())
    }

    /// Canonical description of the exact trace-replay this cell
    /// performs: two cells with equal identities simulate the same
    /// reference stream on the same device model and therefore produce
    /// byte-identical reports, so the engine runs one and reuses the
    /// result for the other (in-run dedupe).
    ///
    /// For transpose cells that fit the device the identity is *weaker
    /// than the variant label*: it is the generator arm `trace_outer`
    /// dispatches to plus the kernel's per-thread iteration ranges
    /// (adjacent ranges merged — the generator is invoked per range back
    /// to back, so only the concatenation reaches the sink). On a
    /// single-core device this collapses `Parallel` onto `Naive` and
    /// `Dynamic` onto `Manual_blocking`, which the figure tables show as
    /// genuinely identical rows. Every other cell keeps its full
    /// (kernel, variant, workload) identity, so only literal duplicates
    /// dedupe.
    fn trace_identity(&self) -> String {
        let device = serde_json::to_string(&self.spec).expect("device spec serializes");
        match &self.kind {
            CellKind::Transpose { variant, cfg }
                if TransposeKernel::new(*variant, *cfg).fits(&self.spec) =>
            {
                let kernel = TransposeKernel::new(*variant, *cfg);
                let threads = kernel.threads(&self.spec);
                let plan = kernel.plan(&self.spec, threads);
                // The arm of `TransposeTrace::trace_outer` the variant
                // selects; variants sharing an arm differ only in their
                // schedule, which the plan below captures.
                let arm = match variant {
                    TransposeVariant::Naive | TransposeVariant::Parallel => "rowwise",
                    TransposeVariant::Blocking => "blocked",
                    TransposeVariant::ManualBlocking | TransposeVariant::Dynamic => "manual",
                };
                let merged: Vec<Vec<std::ops::Range<u64>>> = plan
                    .iter()
                    .map(|ranges| {
                        let mut out: Vec<std::ops::Range<u64>> = Vec::new();
                        for r in ranges {
                            match out.last_mut() {
                                Some(m) if m.end == r.start => m.end = r.end,
                                _ => out.push(r.clone()),
                            }
                        }
                        out
                    })
                    .collect();
                format!(
                    "transpose:{arm}:n={},block={},threads={threads},plan={merged:?}|{device}",
                    cfg.n, cfg.block
                )
            }
            kind => format!("{}:{}:{kind:?}|{device}", kind.kernel(), self.variant),
        }
    }
}

/// What one executed cell produced.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// A full simulator report (boxed: it dwarfs the other variants).
    Report(Box<SimReport>),
    /// Measured bandwidth in GB/s (STREAM cells).
    Gbps(f64),
    /// The workload exceeds the device's memory.
    DoesNotFit,
    /// The cell's simulation panicked with no retry budget; contains
    /// the message.
    Panicked(String),
    /// Every attempt under a retry policy panicked; contains the last
    /// message.
    Failed(String),
    /// The cell overran its wall-clock deadline; contains a
    /// description. Any result the late attempt produced was discarded.
    TimedOut(String),
    /// Not re-simulated: the cell's telemetry record was restored from
    /// a `--resume` run log. Carries the same digest-bearing fields a
    /// fresh [`CellOutcome::Report`] would flatten into the log, so a
    /// resumed run's telemetry is byte-identical to an uninterrupted
    /// one in every digest-bearing field.
    Restored(Box<SimRecord>),
    /// Not re-simulated: restored from the persistent content-addressed
    /// result cache (`--cache-dir`, DESIGN.md §12). Like
    /// [`CellOutcome::Restored`], the carried fields are byte-identical
    /// in every digest-bearing field to what a fresh simulation would
    /// produce — the cache key covers everything the result depends on.
    Cached(CachedOutcome),
}

/// One executed cell, in matrix order.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell that ran.
    pub cell: Cell,
    /// What it produced.
    pub outcome: CellOutcome,
    /// Host wall-clock seconds the simulation took (nondeterministic;
    /// cumulative over retries; carried over from the original run for
    /// restored and cached cells).
    pub wall_seconds: f64,
    /// Execution attempts behind this result (1 = first try; >1 =
    /// retried after panics).
    pub attempts: u32,
    /// Speedup over the ladder's first successful cell (1.0 for the
    /// baseline itself); `None` when the ladder has no baseline or the
    /// cell produced no report.
    pub speedup_vs_naive: Option<f64>,
    /// The §3.3 utilization metric, when a STREAM baseline was declared
    /// for the device.
    pub bandwidth_utilization: Option<f64>,
}

/// The simulated quantities the figure binaries render, available
/// whether a cell was freshly simulated ([`CellOutcome::Report`]) or
/// restored from a resumed run log ([`CellOutcome::Restored`], which
/// carries no full [`SimReport`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSummary {
    /// Simulated threads (= cores used).
    pub threads: u32,
    /// Simulated duration in seconds.
    pub seconds: f64,
    /// Total DRAM bytes moved (read + written).
    pub dram_bytes_total: u64,
}

impl CellResult {
    /// The simulator report, when the cell was freshly simulated.
    /// Restored cells have no report — use [`CellResult::sim_summary`]
    /// for the rendered quantities, which both kinds carry.
    #[must_use]
    pub fn report(&self) -> Option<&SimReport> {
        match &self.outcome {
            CellOutcome::Report(r) => Some(r.as_ref()),
            _ => None,
        }
    }

    /// The simulated quantities of a report-bearing cell, fresh or
    /// restored.
    #[must_use]
    pub fn sim_summary(&self) -> Option<SimSummary> {
        match &self.outcome {
            CellOutcome::Report(r) => Some(SimSummary {
                threads: r.threads,
                seconds: r.seconds,
                dram_bytes_total: r.dram.bytes_total(),
            }),
            CellOutcome::Restored(rec) | CellOutcome::Cached(CachedOutcome::Sim(rec)) => {
                Some(SimSummary {
                    threads: rec.threads,
                    seconds: rec.seconds,
                    dram_bytes_total: rec.dram_bytes_read + rec.dram_bytes_written,
                })
            }
            _ => None,
        }
    }
}

/// A declared set of cells to execute.
#[derive(Debug, Clone)]
pub struct ExperimentMatrix {
    figure: String,
    cells: Vec<Cell>,
    stream_baselines: Vec<(String, f64)>,
}

impl ExperimentMatrix {
    /// An empty matrix for `figure` (the run log's figure name).
    #[must_use]
    pub fn new(figure: impl Into<String>) -> Self {
        Self {
            figure: figure.into(),
            cells: Vec::new(),
            stream_baselines: Vec::new(),
        }
    }

    /// Append a cell; cells execute and report in push order.
    pub fn push(&mut self, cell: Cell) -> &mut Self {
        self.cells.push(cell);
        self
    }

    /// Declare a device's STREAM DRAM bandwidth so the engine can attach
    /// the §3.3 utilization metric to that device's report cells.
    pub fn stream_baseline(&mut self, device: &str, gbps: f64) -> &mut Self {
        self.stream_baselines.push((device.into(), gbps));
        self
    }

    /// Figure name the run log will carry.
    #[must_use]
    pub fn figure(&self) -> &str {
        &self.figure
    }

    /// The declared cells, in execution/report order.
    #[must_use]
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The declared STREAM baselines, as (device label, GB/s) pairs.
    #[must_use]
    pub fn baselines(&self) -> &[(String, f64)] {
        &self.stream_baselines
    }

    /// Number of cells declared so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cells have been declared.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Fault-tolerance and resumption policy for one engine run.
///
/// The default is exactly the pre-crash-safety behaviour: no resume, no
/// retries, no deadline, no streaming, no fault injection.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// A partial run log to resume from: cells whose records are
    /// present and resumable (`ok`/`does_not_fit`) are restored instead
    /// of re-simulated; panicked/failed/timed-out records are retried.
    /// The log must be compatible with the matrix (see
    /// [`Engine::run_with`]).
    pub resume: Option<PartialRunLog>,
    /// How many times to re-run a panicking cell before recording it as
    /// `failed` (0 = no retries, panic recorded directly).
    pub retries: u32,
    /// Optional per-cell wall-clock deadline in seconds, checked at
    /// attempt boundaries (a running attempt is never preempted — the
    /// simulator has no cancellation points). An attempt that finishes
    /// past the deadline has its result discarded and the cell recorded
    /// as `timed_out`.
    pub cell_deadline: Option<f64>,
    /// Stream the run log here as cells finish (header first, then one
    /// synced line per cell in index order), so a killed run leaves a
    /// valid truncated log. The path is atomically replaced at the
    /// start of the run; a mid-run write failure disables streaming
    /// with a warning rather than killing the run.
    pub stream_log: Option<PathBuf>,
    /// Fault injection for crash-safety tests: checked once per cell
    /// *attempt* at site `"cell"` with the cell's matrix index, and
    /// once per cache insert at site `"cache"` (right after the object
    /// rename, with the cache's directory lock still held).
    pub failpoint: Option<Failpoint>,
    /// Persistent content-addressed result cache (DESIGN.md §12):
    /// consulted before simulating each cell not already restored by
    /// `resume` (hits become [`CellOutcome::Cached`]), populated with
    /// every freshly simulated or resumed `ok`/`does_not_fit` result.
    pub cache: Option<ResultCache>,
}

/// Why [`Engine::run_with`] could not run.
#[derive(Debug)]
pub enum RunError {
    /// The resume log does not describe this matrix (different figure,
    /// cell count, or per-cell identity); resuming over it would
    /// misattribute results.
    Incompatible(String),
    /// Creating the streaming run log failed.
    Io(std::io::Error),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Incompatible(why) => write!(f, "resume log incompatible: {why}"),
            RunError::Io(e) => write!(f, "streaming run log: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<std::io::Error> for RunError {
    fn from(e: std::io::Error) -> Self {
        RunError::Io(e)
    }
}

/// Per-cell record consumer for [`Engine::run_streamed`]: called with
/// `(index, record)` in strict index order as each cell's final record
/// flushes. Must be `Sync` — it is invoked from worker threads.
pub type RecordSink<'a> = dyn Fn(u64, &CellRecord) + Sync + 'a;

/// Executes experiment matrices on a pool of worker threads.
#[derive(Debug, Clone)]
pub struct Engine {
    jobs: u32,
}

impl Engine {
    /// An engine with `jobs` worker threads.
    #[must_use]
    pub fn new(jobs: u32) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// Worker threads this engine schedules cells onto.
    #[must_use]
    pub fn jobs(&self) -> u32 {
        self.jobs
    }

    /// Execute every cell of the matrix and return results in cell
    /// order, with speedups and utilizations attached.
    ///
    /// The engine's `jobs` value is one *shared budget* of host worker
    /// threads across both parallel layers: the outer per-cell sharding
    /// leases one slot per worker it keeps busy (at most one per cell),
    /// and inside each cell [`membound_sim::Machine::simulate`] leases
    /// any spare slots to fan the per-core trace replay out. The two
    /// layers therefore never multiply — total concurrent workers stay
    /// bounded by `jobs` — while small matrices on many-core devices
    /// (where the outer layer alone cannot fill the budget) still use
    /// every slot.
    ///
    /// Cells are claimed dynamically by the pool's threads; a panicking
    /// cell becomes [`CellOutcome::Panicked`] without affecting its
    /// neighbours. The simulated outcome of each cell — and hence the
    /// whole result apart from wall times and worker counts — is
    /// independent of `jobs`.
    #[must_use]
    pub fn run(&self, matrix: &ExperimentMatrix) -> RunResults {
        self.run_with(matrix, &RunOptions::default())
            .expect("a run without resume or streaming has no failure path")
    }

    /// [`Engine::run`] with a fault-tolerance policy: resumption from a
    /// partial run log, per-cell retries and deadlines, streaming
    /// telemetry, and fault injection (see [`RunOptions`]).
    ///
    /// When resuming, the log must be *compatible* with the matrix:
    /// same figure name, same cell count, and every restored record's
    /// (panel, device, kernel, variant) identity must match the cell at
    /// its index. The job count may differ — it never affects simulated
    /// results. Restored `ok`/`does_not_fit` cells are not
    /// re-simulated; their digest-bearing telemetry fields are carried
    /// over verbatim, and speedups/utilizations are recomputed from the
    /// restored seconds (bit-exact: JSON round-trips `f64` losslessly),
    /// so a resumed run's final log is byte-identical to an
    /// uninterrupted run's in every digest-bearing field.
    ///
    /// # Errors
    ///
    /// [`RunError::Incompatible`] when the resume log does not describe
    /// this matrix; [`RunError::Io`] when the streaming log cannot be
    /// created. Mid-run streaming failures only warn.
    pub fn run_with(
        &self,
        matrix: &ExperimentMatrix,
        options: &RunOptions,
    ) -> Result<RunResults, RunError> {
        // A one-shot run owns its whole budget. The caller's thread is
        // the first accounted worker (the seat), exactly as a daemon
        // scheduler would seat a job — so the one-shot and served paths
        // run the arithmetic-identical thread count.
        let budget = JobBudget::new(self.jobs);
        let _seat = budget.lease(1);
        self.run_streamed(matrix, options, &budget, None)
    }

    /// [`Engine::run_with`] against an *externally owned* [`JobBudget`]
    /// and an optional per-cell record sink — the entry point a job
    /// scheduler (`membound-serve`) uses to run one job's cell set
    /// while N other jobs share the same budget.
    ///
    /// # Seat convention
    ///
    /// The calling thread must already be accounted for in `budget` —
    /// the caller holds one leased slot (its *seat*) for the duration
    /// of this call. The engine then leases only the *extra* workers it
    /// spawns beyond the calling thread: with a dry budget the run
    /// degrades to fully serial on the caller's thread instead of
    /// failing, and the sum of concurrently running worker threads
    /// across every job sharing the budget never exceeds the budget's
    /// total. Inside each cell, the simulator's per-core fan-out leases
    /// spare slots from the same budget, exactly as in a one-shot run.
    ///
    /// Which job wins a race for spare slots changes wall time only:
    /// cell outcomes are deterministic and slotted by index, so every
    /// digest-bearing field is independent of budget contention (the
    /// serial==parallel property, DESIGN.md §9 — this is why served
    /// runs reproduce the canonical digests byte for byte).
    ///
    /// `sink` is called under the stream lock with each cell's final
    /// record, in strict index order, at the moment the contiguous
    /// prefix reaches it — the same records (and the same single
    /// constructor) the streaming run log writes, so a sink-fed
    /// client sees byte-identical lines. Keep the sink cheap and
    /// non-blocking (hand the record to a channel); it runs on worker
    /// threads mid-run.
    ///
    /// # Errors
    ///
    /// As [`Engine::run_with`].
    pub fn run_streamed(
        &self,
        matrix: &ExperimentMatrix,
        options: &RunOptions,
        budget: &JobBudget,
        sink: Option<&RecordSink<'_>>,
    ) -> Result<RunResults, RunError> {
        let n = matrix.cells.len();
        let failpoint = options.failpoint.as_ref();
        let cache = options.cache.as_ref();
        let mut prefilled: Vec<(usize, CellResult)> = Vec::new();
        if let Some(partial) = &options.resume {
            check_resume_compat(matrix, partial)?;
            for (index, record) in partial.records.iter().enumerate() {
                if let Some(result) = restore_cell(&matrix.cells[index], record) {
                    prefilled.push((index, result));
                }
            }
        }
        let restored = prefilled.len() as u64;

        // One key per cell, derived up front on the main thread (cheap:
        // a short hash) so workers never race on derivation.
        let keys: Vec<Option<CacheKey>> = match cache {
            Some(c) => matrix
                .cells
                .iter()
                .map(|cell| Some(c.key_for(cell)))
                .collect(),
            None => (0..n).map(|_| None).collect(),
        };

        let mut cached = 0u64;
        if let Some(c) = cache {
            // Resumed results are as authoritative as fresh ones:
            // inserting them up front means a cache hit is available
            // from the very next run, even if this one dies later.
            for (index, result) in &prefilled {
                if let Some(key) = &keys[*index] {
                    try_cache_insert(
                        c,
                        key,
                        &matrix.cells[*index],
                        *index,
                        &result.outcome,
                        result.wall_seconds,
                        failpoint,
                    );
                }
            }
            let mut have = vec![false; n];
            for (index, _) in &prefilled {
                have[*index] = true;
            }
            for index in 0..n {
                if have[index] {
                    continue;
                }
                let Some(key) = &keys[index] else { continue };
                let Some(entry) = c.lookup(key) else { continue };
                let Some(outcome) = entry.outcome() else {
                    continue;
                };
                prefilled.push((
                    index,
                    CellResult {
                        cell: matrix.cells[index].clone(),
                        outcome: CellOutcome::Cached(outcome),
                        wall_seconds: entry.wall_seconds,
                        attempts: 1,
                        speedup_vs_naive: None,
                        bandwidth_utilization: None,
                    },
                ));
                cached += 1;
            }
        }

        let writer = match &options.stream_log {
            Some(path) => Some(create_stream_log(
                path,
                &RunHeader::new(&matrix.figure, self.jobs, n as u64),
            )?),
            None => None,
        };

        let state = Mutex::new(StreamState {
            flushed: Vec::with_capacity(n),
            pending: BTreeMap::new(),
            baselines: &matrix.stream_baselines,
            writer,
            sink,
            total: n,
        });
        {
            let mut state = state.lock().expect("stream state poisoned");
            for (index, result) in prefilled {
                state.insert(index, result);
            }
        }

        // Only the cells with no restored result are simulated.
        let missing: Vec<usize> = {
            let state = state.lock().expect("stream state poisoned");
            (0..n).filter(|i| !state.contains(*i)).collect()
        };

        // In-run dedupe: among the cells still to simulate, those whose
        // [`Cell::trace_identity`] matches replay the byte-identical trace
        // on the identical device model, so they form one *group*. Only
        // the group's first cell (its *representative*) is dispatched to
        // the pool; the rest reuse its outcome the moment it finishes.
        // Grouping follows matrix order, so the choice — and hence every
        // digest-bearing field — is independent of the job count.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        {
            let mut seen: HashMap<String, usize> = HashMap::new();
            for &index in &missing {
                // A malformed cell (e.g. a hand-built zero block size)
                // can panic while planning its trace; contain it here so
                // it reaches the pool's per-attempt guard and is recorded
                // as a panicked cell, exactly as without dedupe. It
                // forms a group of its own.
                let identity =
                    catch_unwind(AssertUnwindSafe(|| matrix.cells[index].trace_identity()));
                let Ok(identity) = identity else {
                    groups.push(vec![index]);
                    continue;
                };
                match seen.entry(identity) {
                    Entry::Occupied(group) => groups[*group.get()].push(index),
                    Entry::Vacant(slot) => {
                        slot.insert(groups.len());
                        groups.push(vec![index]);
                    }
                }
            }
        }

        // Seat convention: the calling thread is one already-leased
        // worker, so lease only the extras beyond it. On a contended
        // (or dry) shared budget `extra` may be partial or zero — the
        // pool shrinks down to the caller's thread alone, it never
        // oversubscribes.
        let want_extra = (groups.len() as u32).min(self.jobs).max(1) - 1;
        let extra = budget.lease(want_extra);
        let pool = Pool::new(extra.granted() + 1);
        let retries = options.retries;
        let deadline = options.cell_deadline;
        let tasks: Vec<Task<'_, (CellOutcome, f64, u32)>> = groups
            .iter()
            .map(|group| {
                let index = group[0];
                let cell = &matrix.cells[index];
                let b: Task<'_, (CellOutcome, f64, u32)> = Box::new(move || {
                    execute_cell(cell, index, budget, retries, deadline, failpoint)
                });
                b
            })
            .collect();

        // Persist a fresh result, then publish it. This runs on the
        // worker thread that finished the group (the pool's completion
        // hook), so inserts overlap with other groups' simulations; any
        // insert failure (or injected `cache` failpoint panic) degrades
        // to a warning, never a lost run.
        let publish = |index: usize, (outcome, wall_seconds, attempts): (CellOutcome, f64, u32)| {
            if let (Some(c), Some(key)) = (cache, &keys[index]) {
                try_cache_insert(
                    c,
                    key,
                    &matrix.cells[index],
                    index,
                    &outcome,
                    wall_seconds,
                    failpoint,
                );
            }
            state.lock().expect("stream state poisoned").insert(
                index,
                CellResult {
                    cell: matrix.cells[index].clone(),
                    outcome,
                    wall_seconds,
                    attempts,
                    speedup_vs_naive: None,
                    bandwidth_utilization: None,
                },
            );
        };
        let deduped = AtomicU64::new(0);
        let groups = &groups;
        pool.run_tasks_with(tasks, |k, result| {
            let (rep, dupes) = groups[k].split_first().expect("groups are never empty");
            let rep_result = match result {
                Ok((outcome, wall, attempts)) => (outcome.clone(), *wall, *attempts),
                // execute_cell contains its own panics; this arm only
                // fires if the containment itself breaks.
                Err(panic) => (CellOutcome::Panicked(panic.message.clone()), 0.0, 1),
            };
            // A representative that panicked / failed / timed out
            // describes its *run*, not the cell's value, so its dupes
            // simulate for real instead.
            let reuse =
                (!dupes.is_empty() && !is_failure(&rep_result.0)).then(|| rep_result.0.clone());
            publish(*rep, rep_result);
            // Each dupe keeps its own failpoint site with full
            // retry/deadline semantics (see `run_attempts`), its own
            // cache key and its own run-log record — built from its own
            // identity fields plus the representative's outcome, which
            // is byte-identical to what simulating it would produce.
            for &index in dupes {
                let result = match &reuse {
                    Some(outcome) => {
                        let result =
                            run_attempts(index, retries, deadline, failpoint, || outcome.clone());
                        if !is_failure(&result.0) {
                            deduped.fetch_add(1, Ordering::Relaxed);
                        }
                        result
                    }
                    None => execute_cell(
                        &matrix.cells[index],
                        index,
                        budget,
                        retries,
                        deadline,
                        failpoint,
                    ),
                };
                publish(index, result);
            }
        });

        let state = state.into_inner().expect("stream state poisoned");
        debug_assert_eq!(state.flushed.len(), n, "every cell flushed");
        Ok(RunResults {
            figure: matrix.figure.clone(),
            jobs: self.jobs,
            restored,
            cached,
            deduped: deduped.into_inner(),
            cells: state.flushed,
        })
    }

    /// Measure the STREAM DRAM (Triad) baseline of each device, in
    /// parallel. Returns `(label, gbps)` pairs in input order, ready for
    /// [`ExperimentMatrix::stream_baseline`].
    ///
    /// A device whose baseline task panics is *dropped from the result*
    /// with a stderr warning rather than reported as `0.0` GB/s — a zero
    /// baseline would silently zero every utilization figure on that
    /// device, which is far harder to notice than a missing bar.
    #[must_use]
    pub fn stream_baselines(&self, devices: &[Device]) -> Vec<(String, f64)> {
        let budget = JobBudget::new(self.jobs);
        let outer = budget.lease((devices.len() as u32).min(self.jobs).max(1));
        let pool = Pool::new(outer.granted().max(1));
        let budget_ref = &budget;
        let tasks: Vec<Task<'_, f64>> = devices
            .iter()
            .map(|device| {
                let b: Task<'_, f64> = Box::new(move || {
                    let machine = Machine::new(device.spec()).with_budget(budget_ref.clone());
                    StreamKernel::new(StreamOp::Triad, None).measure(&machine)
                });
                b
            })
            .collect();
        pool.run_tasks(tasks)
            .into_iter()
            .zip(devices)
            .filter_map(|(r, device)| match r {
                Ok(gbps) => Some((device.label().to_string(), gbps)),
                Err(panic) => {
                    eprintln!(
                        "warning: STREAM baseline for device {:?} panicked \
                         ({panic:?}); skipping its bandwidth-utilization metric",
                        device.label()
                    );
                    None
                }
            })
            .collect()
    }
}

fn execute(cell: &Cell, budget: &JobBudget) -> CellOutcome {
    let machine = Machine::new(cell.spec.clone()).with_budget(budget.clone());
    let report = match &cell.kind {
        CellKind::Transpose { variant, cfg } => {
            simulate(&machine, &TransposeKernel::new(*variant, *cfg))
        }
        CellKind::Blur { variant, cfg } => simulate(&machine, &BlurKernel::new(*variant, *cfg)),
        CellKind::FusedBlur { cfg, threads } => {
            simulate(&machine, &FusedBlurKernel::new(*cfg, *threads))
        }
        CellKind::Gbmv { variant, cfg } => simulate(&machine, &GbmvKernel::new(*variant, *cfg)),
        CellKind::Stream { op, level } => {
            return CellOutcome::Gbps(StreamKernel::new(*op, *level).measure(&machine))
        }
    };
    report.map_or(CellOutcome::DoesNotFit, |r| {
        CellOutcome::Report(Box::new(r))
    })
}

/// Run one cell under the retry/deadline policy. Returns the outcome,
/// the cumulative wall seconds across attempts, and the attempt count.
///
/// Each attempt is wrapped in its own `catch_unwind` (so an injected or
/// organic panic is retryable), and the optional failpoint is evaluated
/// *inside* the guard — an injected panic takes exactly the path an
/// organic one would. The deadline is checked after each attempt: the
/// simulator has no cancellation points, so a late attempt cannot be
/// preempted, only discarded.
fn execute_cell(
    cell: &Cell,
    index: usize,
    budget: &JobBudget,
    retries: u32,
    deadline: Option<f64>,
    failpoint: Option<&Failpoint>,
) -> (CellOutcome, f64, u32) {
    run_attempts(index, retries, deadline, failpoint, || {
        execute(cell, budget)
    })
}

/// The retry/deadline/failpoint loop of [`execute_cell`], generic over
/// how the outcome is produced. A deduped cell runs it in its group's
/// completion hook, right after the representative finishes, with the
/// representative's outcome as the `work` closure — so an injected
/// `cell:*@N` failpoint aimed at a duplicate cell sees exactly the
/// attempt semantics a simulated cell would: the failpoint fires inside
/// the per-attempt panic guard, panics consume retries, and a delay
/// counts against the cell deadline.
fn run_attempts<F: FnMut() -> CellOutcome>(
    index: usize,
    retries: u32,
    deadline: Option<f64>,
    failpoint: Option<&Failpoint>,
    mut work: F,
) -> (CellOutcome, f64, u32) {
    let start = Instant::now();
    let max_attempts = retries.saturating_add(1);
    let mut last_panic = String::new();
    for attempt in 1..=max_attempts {
        let result = catch_unwind(AssertUnwindSafe(|| {
            if let Some(fp) = failpoint {
                fp.check("cell", index as u64);
            }
            work()
        }));
        let elapsed = start.elapsed().as_secs_f64();
        let overran = deadline.is_some_and(|limit| elapsed > limit);
        match result {
            Ok(outcome) => {
                if overran {
                    let why = format!(
                        "exceeded the {:.3}s cell deadline after {elapsed:.3}s \
                         (attempt {attempt}); result discarded",
                        deadline.unwrap_or(0.0)
                    );
                    return (CellOutcome::TimedOut(why), elapsed, attempt);
                }
                return (outcome, elapsed, attempt);
            }
            Err(payload) => {
                last_panic = membound_parallel::panic_message(payload);
                if overran {
                    let why = format!(
                        "exceeded the {:.3}s cell deadline after {elapsed:.3}s \
                         (attempt {attempt} panicked: {last_panic})",
                        deadline.unwrap_or(0.0)
                    );
                    return (CellOutcome::TimedOut(why), elapsed, attempt);
                }
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let outcome = if retries == 0 {
        CellOutcome::Panicked(last_panic)
    } else {
        CellOutcome::Failed(format!("{last_panic} (after {max_attempts} attempts)"))
    };
    (outcome, wall, max_attempts)
}

/// Whether `outcome` describes a failed run rather than the cell's
/// value: such an outcome is neither reused by dupes nor cached.
fn is_failure(outcome: &CellOutcome) -> bool {
    matches!(
        outcome,
        CellOutcome::Panicked(_) | CellOutcome::Failed(_) | CellOutcome::TimedOut(_)
    )
}

/// Persist one cell's outcome in the result cache, degrading every
/// failure to a stderr warning: a cache that cannot be written must
/// never take down a run that already has its result in hand. The
/// `catch_unwind` matters because this runs inside the pool's
/// completion hook, where a panic is *not* contained (see
/// [`membound_parallel::Pool::run_tasks_with`]) — it also turns an
/// injected `cache:panic@N` failpoint into exactly the recoverable
/// partial state a real crash would leave.
fn try_cache_insert(
    cache: &ResultCache,
    key: &CacheKey,
    cell: &Cell,
    index: usize,
    outcome: &CellOutcome,
    wall_seconds: f64,
    failpoint: Option<&Failpoint>,
) {
    let Some(entry) = CacheEntry::capture(cache.fingerprint(), key, cell, outcome, wall_seconds)
    else {
        return;
    };
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        cache.insert(key, &entry, || {
            if let Some(fp) = failpoint {
                fp.check("cache", index as u64);
            }
        })
    }));
    match attempt {
        Ok(Ok(())) => {}
        Ok(Err(e)) => eprintln!(
            "warning: result cache insert for cell {index} failed ({e}); continuing uncached"
        ),
        Err(payload) => eprintln!(
            "warning: result cache insert for cell {index} panicked ({}); continuing uncached",
            membound_parallel::panic_message(payload)
        ),
    }
}

/// Simulated seconds of a report-bearing cell, fresh or restored — the
/// quantity the ladder-speedup and utilization metrics are computed
/// from. Restored seconds are bit-exact copies of the original run's
/// (JSON round-trips `f64` losslessly), so every derived metric is too.
fn sim_seconds(r: &CellResult) -> Option<f64> {
    r.sim_summary().map(|s| s.seconds)
}

/// Speedup of cell `m` over its ladder baseline: within the run of
/// consecutive cells sharing (panel, device, kernel) that contains `m`,
/// the first report-bearing cell is the baseline. Only inspects indices
/// `<= m` — the baseline of a ladder always precedes (or is) the cell —
/// so the streaming writer can compute it the moment the contiguous
/// prefix reaches `m`, and the value is identical to a whole-run pass.
fn speedup_for(results: &[CellResult], m: usize) -> Option<f64> {
    let seconds = sim_seconds(&results[m])?;
    let key = results[m].cell.ladder_key();
    let mut start = m;
    while start > 0 && results[start - 1].cell.ladder_key() == key {
        start -= 1;
    }
    let base = results[start..=m].iter().find_map(sim_seconds)?;
    Some(speedup(base, seconds))
}

/// The §3.3 utilization metric for one cell, when its kind has a
/// nominal byte count and its device a declared STREAM baseline.
/// Restored cells recompute through the same formula as
/// [`SimReport::bandwidth_utilization`] on bit-identical seconds, so
/// the value matches the original run's exactly.
fn utilization_for(r: &CellResult, baselines: &[(String, f64)]) -> Option<f64> {
    let nominal = r.cell.kind.nominal_bytes()?;
    let &(_, gbps) = baselines.iter().find(|(d, _)| *d == r.cell.device)?;
    match &r.outcome {
        CellOutcome::Report(report) => Some(report.bandwidth_utilization(nominal, gbps)),
        CellOutcome::Restored(rec) | CellOutcome::Cached(CachedOutcome::Sim(rec)) => {
            // Mirrors SimReport::{achieved_gbps, bandwidth_utilization}
            // (crates/sim/src/machine.rs) on the restored seconds; a
            // unit test pins the two formulas together.
            if rec.seconds <= 0.0 || gbps <= 0.0 {
                Some(0.0)
            } else {
                Some(nominal as f64 / rec.seconds / 1e9 / gbps)
            }
        }
        _ => None,
    }
}

/// Accumulates cell results in matrix order and streams each one to the
/// run log the moment the contiguous prefix reaches it.
///
/// Workers complete cells out of order; records in a run log must be in
/// index order (the digests are order-sensitive). Out-of-order arrivals
/// wait in `pending`; every time the contiguous prefix grows, the newly
/// contiguous cells get their ladder speedup and utilization attached
/// (both only need indices `<=` their own) and their record line
/// appended and synced. When the run finishes, `flushed` *is* the final
/// result vector — the streaming and terminal paths cannot disagree
/// because they are the same path.
struct StreamState<'m> {
    flushed: Vec<CellResult>,
    pending: BTreeMap<usize, CellResult>,
    baselines: &'m [(String, f64)],
    writer: Option<StreamingRunLog>,
    /// In-process record consumer ([`Engine::run_streamed`]): called in
    /// index order at flush time, fed the same records the writer
    /// appends.
    sink: Option<&'m RecordSink<'m>>,
    total: usize,
}

impl StreamState<'_> {
    fn contains(&self, index: usize) -> bool {
        index < self.flushed.len() || self.pending.contains_key(&index)
    }

    fn insert(&mut self, index: usize, result: CellResult) {
        debug_assert!(index < self.total && !self.contains(index));
        self.pending.insert(index, result);
        while let Some(result) = self.pending.remove(&self.flushed.len()) {
            let m = self.flushed.len();
            self.flushed.push(result);
            self.flushed[m].speedup_vs_naive = speedup_for(&self.flushed, m);
            self.flushed[m].bandwidth_utilization =
                utilization_for(&self.flushed[m], self.baselines);
            if self.writer.is_some() || self.sink.is_some() {
                let record = cell_record(m as u64, &self.flushed[m]);
                if let Some(writer) = &mut self.writer {
                    if let Err(e) = writer.append_record(&record) {
                        eprintln!(
                            "warning: streaming run log failed at cell {m} ({e}); \
                             disabling streaming for the rest of the run"
                        );
                        self.writer = None;
                    }
                }
                if let Some(sink) = self.sink {
                    sink(m as u64, &record);
                }
            }
        }
    }
}

/// Create the streaming run log (parent directories included),
/// atomically replacing whatever was at the path — which may be the
/// very log being resumed from: its records are already parsed into
/// memory and re-stream immediately, so no window exists where the old
/// data is the only copy.
fn create_stream_log(path: &Path, header: &RunHeader) -> std::io::Result<StreamingRunLog> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    StreamingRunLog::create(path, header)
}

/// Rebuild a [`CellResult`] from a restored record, or `None` when the
/// record's status means the cell must be re-simulated
/// (panicked/failed/timed-out — resume is the second chance).
fn restore_cell(cell: &Cell, record: &CellRecord) -> Option<CellResult> {
    let outcome = match record.status.as_str() {
        telemetry::status::OK => {
            if let Some(sim) = &record.sim {
                CellOutcome::Restored(Box::new(sim.clone()))
            } else if let Some(gbps) = record.gbps {
                CellOutcome::Gbps(gbps)
            } else {
                // An ok record with no result would not validate; run
                // the cell rather than trust it.
                return None;
            }
        }
        telemetry::status::DOES_NOT_FIT => CellOutcome::DoesNotFit,
        _ => return None,
    };
    Some(CellResult {
        cell: cell.clone(),
        outcome,
        wall_seconds: record.wall_seconds,
        attempts: record.attempts.unwrap_or(1),
        speedup_vs_naive: None,
        bandwidth_utilization: None,
    })
}

/// Check that a partial log describes `matrix` before resuming over it.
fn check_resume_compat(matrix: &ExperimentMatrix, partial: &PartialRunLog) -> Result<(), RunError> {
    // parse_partial_run_log already enforces this range, but a
    // PartialRunLog can be constructed by hand: the engine must not
    // depend on how the value got here. Restoring records written under
    // a future schema would mean trusting fields this release cannot
    // interpret.
    let supported = telemetry::MIN_SCHEMA_VERSION..=telemetry::SCHEMA_VERSION;
    if !supported.contains(&partial.header.schema_version) {
        return Err(RunError::Incompatible(format!(
            "log schema version {} unsupported (this engine speaks {}..={})",
            partial.header.schema_version,
            telemetry::MIN_SCHEMA_VERSION,
            telemetry::SCHEMA_VERSION
        )));
    }
    if partial.header.figure != matrix.figure {
        return Err(RunError::Incompatible(format!(
            "log is for figure {:?}, matrix is {:?}",
            partial.header.figure, matrix.figure
        )));
    }
    if partial.header.cells != matrix.cells.len() as u64 {
        return Err(RunError::Incompatible(format!(
            "log plans {} cells, matrix has {}",
            partial.header.cells,
            matrix.cells.len()
        )));
    }
    for (index, record) in partial.records.iter().enumerate() {
        let cell = &matrix.cells[index];
        let identity = (
            record.panel.as_str(),
            record.device.as_str(),
            record.kernel.as_str(),
            record.variant.as_str(),
        );
        let expected = (
            cell.panel.as_str(),
            cell.device.as_str(),
            cell.kind.kernel(),
            cell.variant.as_str(),
        );
        if identity != expected {
            return Err(RunError::Incompatible(format!(
                "cell {index} is {identity:?} in the log but {expected:?} in the matrix"
            )));
        }
    }
    Ok(())
}

/// Flatten one cell result into its telemetry record. This single
/// constructor serves both the streaming writer (as each cell flushes)
/// and the terminal [`RunResults::telemetry`] render, so the two logs
/// are byte-identical line for line (the header timestamp aside).
fn cell_record(index: u64, r: &CellResult) -> CellRecord {
    let (status, sim, gbps, error) = match &r.outcome {
        CellOutcome::Report(report) => (
            telemetry::status::OK,
            Some(SimRecord::from_report(report)),
            None,
            None,
        ),
        CellOutcome::Restored(record) => (
            telemetry::status::OK,
            Some(record.as_ref().clone()),
            None,
            None,
        ),
        CellOutcome::Cached(cached) => match cached {
            CachedOutcome::Sim(record) => (
                telemetry::status::OK,
                Some(record.as_ref().clone()),
                None,
                None,
            ),
            CachedOutcome::Gbps(g) => (telemetry::status::OK, None, Some(*g), None),
            CachedOutcome::DoesNotFit => (telemetry::status::DOES_NOT_FIT, None, None, None),
        },
        CellOutcome::Gbps(g) => (telemetry::status::OK, None, Some(*g), None),
        CellOutcome::DoesNotFit => (telemetry::status::DOES_NOT_FIT, None, None, None),
        CellOutcome::Panicked(msg) => (telemetry::status::PANICKED, None, None, Some(msg.clone())),
        CellOutcome::Failed(msg) => (telemetry::status::FAILED, None, None, Some(msg.clone())),
        CellOutcome::TimedOut(msg) => (telemetry::status::TIMED_OUT, None, None, Some(msg.clone())),
    };
    let provenance = match &r.outcome {
        CellOutcome::Restored(_) => Some(telemetry::provenance::RESUME.to_string()),
        CellOutcome::Cached(_) => Some(telemetry::provenance::CACHE.to_string()),
        _ => None,
    };
    CellRecord {
        kind: "cell".into(),
        index,
        panel: r.cell.panel.clone(),
        device: r.cell.device.clone(),
        kernel: r.cell.kind.kernel().into(),
        variant: r.cell.variant.clone(),
        status: status.into(),
        attempts: Some(r.attempts),
        wall_seconds: r.wall_seconds,
        sim,
        gbps,
        speedup_vs_naive: r.speedup_vs_naive,
        bandwidth_utilization: r.bandwidth_utilization,
        error,
        provenance,
    }
}

/// The outcome of one engine run, in matrix cell order.
#[derive(Debug, Clone)]
pub struct RunResults {
    /// Figure name of the matrix.
    pub figure: String,
    /// Worker threads the run used.
    pub jobs: u32,
    /// Cells restored from a `--resume` log instead of re-simulated.
    pub restored: u64,
    /// Cells restored from the persistent result cache instead of
    /// simulated (`--cache-dir`, DESIGN.md §12).
    pub cached: u64,
    /// Cells that reused an identical cell's fresh result instead of
    /// re-simulating it (in-run dedupe, [`Cell::trace_identity`]).
    pub deduped: u64,
    /// Per-cell results, in declaration order.
    pub cells: Vec<CellResult>,
}

impl RunResults {
    /// Order-sensitive digest over every report cell's
    /// [`SimReport::stats_digest`] (restored and cached cells
    /// contribute their carried-over digest): two runs of the same
    /// matrix must produce the same value regardless of their job
    /// counts or of which cells were resumed or served from the result
    /// cache.
    #[must_use]
    pub fn combined_digest(&self) -> String {
        let digests: Vec<String> = self
            .cells
            .iter()
            .filter_map(|r| match &r.outcome {
                CellOutcome::Report(rep) => Some(format!("{:016x}", rep.stats_digest())),
                CellOutcome::Restored(rec) | CellOutcome::Cached(CachedOutcome::Sim(rec)) => {
                    Some(rec.stats_digest.clone())
                }
                _ => None,
            })
            .collect();
        telemetry::combine_digests(digests.iter().map(String::as_str))
    }

    /// The telemetry records of this run (header first).
    #[must_use]
    pub fn telemetry(&self) -> (RunHeader, Vec<CellRecord>) {
        let header = RunHeader::new(&self.figure, self.jobs, self.cells.len() as u64);
        let records = self
            .cells
            .iter()
            .enumerate()
            .map(|(index, r)| cell_record(index as u64, r))
            .collect();
        (header, records)
    }

    /// Render the JSONL run log.
    #[must_use]
    pub fn render_run_log(&self) -> String {
        let (header, records) = self.telemetry();
        telemetry::render_run_log(&header, &records)
    }

    /// Write the JSONL run log to `path`, creating parent directories.
    /// The write is atomic (temp file in the same directory + rename),
    /// so a crash or full disk mid-write can never leave a half-written
    /// log at the destination.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_run_log(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        telemetry::write_text_atomic(path, &self.render_run_log())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use membound_sim::Device;

    fn small_matrix() -> ExperimentMatrix {
        let cfg = TransposeConfig::with_block(128, 16);
        crate::figures::transpose_ladders("test_matrix", &[cfg], &[Device::MangoPiMqPro])
    }

    #[test]
    fn engine_runs_a_ladder_and_attaches_speedups() {
        let results = Engine::new(2).run(&small_matrix());
        assert_eq!(results.cells.len(), TransposeVariant::all().len());
        assert_eq!(results.cells[0].speedup_vs_naive, Some(1.0));
        for r in &results.cells {
            assert!(r.report().is_some(), "{}: {:?}", r.cell.variant, r.outcome);
            assert!(r.speedup_vs_naive.unwrap() > 0.0);
        }
    }

    #[test]
    fn does_not_fit_cells_are_reported_not_dropped() {
        let mut matrix = ExperimentMatrix::new("test_overflow");
        let spec = Device::MangoPiMqPro.spec();
        matrix.push(Cell::transpose(
            "16384",
            Device::MangoPiMqPro.label(),
            &spec,
            TransposeVariant::Naive,
            TransposeConfig::new(16384),
        ));
        let results = Engine::new(1).run(&matrix);
        assert_eq!(results.cells[0].outcome, CellOutcome::DoesNotFit);
        assert_eq!(results.cells[0].speedup_vs_naive, None);
    }

    #[test]
    fn run_log_of_a_real_run_validates() {
        let results = Engine::new(2).run(&small_matrix());
        let text = results.render_run_log();
        let summary = crate::telemetry::validate_run_log(&text).expect("valid");
        assert_eq!(summary.cells, results.cells.len() as u64);
        assert_eq!(summary.ok_cells, summary.cells);
        assert_eq!(summary.combined_digest, results.combined_digest());
    }

    #[test]
    fn utilization_attaches_when_a_baseline_is_declared() {
        let mut matrix = small_matrix();
        matrix.stream_baseline(Device::MangoPiMqPro.label(), 2.0);
        let results = Engine::new(2).run(&matrix);
        for r in &results.cells {
            let util = r.bandwidth_utilization.expect("baseline declared");
            assert!(util > 0.0);
        }
    }

    #[test]
    fn resolve_jobs_precedence() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert_eq!(resolve_jobs(Some(0)), 1);
        assert!(resolve_jobs(None) >= 1);
    }
}
