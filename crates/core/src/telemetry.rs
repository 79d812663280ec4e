//! Structured run telemetry: the versioned JSONL run-log schema.
//!
//! Every engine run (see [`crate::runner`]) emits one run log under
//! `results/`: a JSON Lines file whose first line is a [`RunHeader`] and
//! whose remaining lines are one [`CellRecord`] per experiment cell, in
//! deterministic cell order. The schema is versioned
//! ([`SCHEMA_VERSION`]); consumers must reject logs whose header carries
//! a different version rather than guess.
//!
//! [`validate_run_log`] is the machine-checkable contract: CI runs a
//! small figure end-to-end and feeds the emitted log through it.
//!
//! Both digests in the schema — each cell's `stats_digest` and the
//! summary's `combined_digest` — are *order-sensitive* FNV-1a hashes
//! (not order-insensitive checksums): reordering the hashed fields or
//! the cell lines changes the value. That is why cell lines must appear
//! in deterministic index order no matter how the engine parallelises
//! execution, and it is what lets a byte-equal `combined_digest` prove
//! two runs simulated identical statistics cell for cell.

use serde::{Deserialize, Serialize};

/// Version of the run-log schema emitted by this crate.
///
/// Bump on any change to the field set or meaning of [`RunHeader`] /
/// [`CellRecord`]. The validator accepts every version from
/// [`MIN_SCHEMA_VERSION`] through this one (older logs read with the
/// migration defaults documented per field below) and rejects *future*
/// versions rather than guess.
///
/// History:
/// * 7 — analytic execution (DESIGN.md §15): [`SimRecord`] carries
///   `analytic_ops` and `replay_fallback_ops`
///   ([`membound_sim::SimReport`]'s fast-forward accounting, summed over
///   cores). Diagnostic like `strided_batches`: excluded from
///   `stats_digest` — the analytic executor is digest-preserving by
///   contract, so the log records *whether* steady states were
///   extrapolated without perturbing digest equality. Absent ⇒ `None`
///   (pre-v7 log).
/// * 6 — fixed-point cycle accounting (DESIGN.md §13): the simulator's
///   per-core cycle counters migrated from f64 to exact u64 subcycle
///   integers, which changes `stats_digest` (and thus every canonical
///   `combined_digest`) once — the one-time controlled migration
///   recorded in `BENCH_sim.json` v4. No record field changed: `cycles`
///   and `seconds` were always derived f64 outputs. The bump marks
///   which model produced a log, so digest mismatches against old logs
///   are attributable to the migration rather than to nondeterminism.
/// * 5 — persistent result cache (DESIGN.md §12): [`CellRecord`] carries
///   `provenance` (digest-excluded; absent ⇒ `None` ⇒ freshly
///   simulated), recording whether a cell's record was restored from a
///   `--resume` log (`"resume"`) or the content-addressed result cache
///   (`"cache"`) instead of simulated in this run.
/// * 4 — crash-safe runs (DESIGN.md §11): [`CellRecord`] carries
///   `attempts` (digest-excluded; absent ⇒ 1) and the [`status`] set
///   gains `"failed"` (panicked on every retry) and `"timed_out"`
///   (exceeded the per-cell deadline). `host_workers` and
///   `strided_batches` became optional on read so v1/v2 logs validate
///   (absent ⇒ `None`); v2+ writers always populate them.
/// * 3 — [`SimRecord`] carries `strided_batches`, the count of bulk
///   strided reference batches ([`membound_trace::TraceSink::access_strided`]
///   and friends) the simulated cores executed. Diagnostic only: like
///   `host_workers` it is excluded from `stats_digest`, so a batched and
///   a per-element replay of the same program still combine to the same
///   digest while the log shows which path ran.
/// * 2 — `hit_rate` of an untouched level is now `1.0` (the
///   `membound_sim::LevelStats::hit_rate` convention; it was `0.0`,
///   silently disagreeing with the simulator's text reports), and
///   [`SimRecord`] carries `host_workers`.
/// * 1 — initial schema.
pub const SCHEMA_VERSION: u32 = 7;

/// Oldest run-log schema version the validator still reads.
///
/// Migration defaults applied to older logs: fields introduced after a
/// log's version deserialize as `None` (`host_workers` and
/// `strided_batches` before v2/v3, `attempts` before v4, `provenance`
/// before v5, `analytic_ops`/`replay_fallback_ops` before v7) — absent
/// means "this release did not record it", never a guessed value.
pub const MIN_SCHEMA_VERSION: u32 = 1;

/// First line of a run log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunHeader {
    /// Always `"header"`; distinguishes the line kind.
    pub kind: String,
    /// The run-log schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Which figure/experiment produced the log (e.g. `"fig2_transpose"`).
    pub figure: String,
    /// Worker threads the engine ran with.
    pub jobs: u32,
    /// Number of cell lines that follow.
    pub cells: u64,
    /// Wall-clock timestamp of the run, milliseconds since the Unix epoch.
    pub created_unix_ms: u64,
}

impl RunHeader {
    /// Header for a run of `figure` with `jobs` workers and `cells` cells,
    /// stamped with the current wall clock.
    #[must_use]
    pub fn new(figure: &str, jobs: u32, cells: u64) -> Self {
        let created_unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        Self {
            kind: "header".into(),
            schema_version: SCHEMA_VERSION,
            figure: figure.into(),
            jobs,
            cells,
            created_unix_ms,
        }
    }
}

/// Per-cache-level counters of one cell (summed over simulated cores).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheLevelRecord {
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// `hits / (hits + misses)`; `1.0` when the level saw no accesses.
    ///
    /// The untouched-level convention deliberately matches
    /// [`membound_sim::LevelStats::hit_rate`] ("an untouched level never
    /// missed"), so JSONL run logs agree number-for-number with the
    /// simulator's own reports. Schema version 1 wrote `0.0` here, which
    /// made the same untouched level look like a 100% *miss* rate in the
    /// log and a 100% *hit* rate in text reports.
    pub hit_rate: f64,
}

impl CacheLevelRecord {
    /// Build from raw counters; the rate delegates to
    /// [`membound_sim::LevelStats::hit_rate`] so the two layers cannot
    /// drift apart again.
    #[must_use]
    pub fn new(hits: u64, misses: u64) -> Self {
        let stats = membound_sim::LevelStats {
            hits,
            misses,
            ..Default::default()
        };
        Self {
            hits,
            misses,
            hit_rate: stats.hit_rate(),
        }
    }
}

/// The simulated quantities of one successfully executed cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimRecord {
    /// Simulated threads (= cores used).
    pub threads: u32,
    /// Simulated duration in core cycles.
    pub cycles: f64,
    /// Simulated duration in seconds.
    pub seconds: f64,
    /// Per-level cache counters, L1 first.
    pub cache_levels: Vec<CacheLevelRecord>,
    /// First-level data-TLB counters.
    pub dtlb: CacheLevelRecord,
    /// Bytes read from DRAM.
    pub dram_bytes_read: u64,
    /// Bytes written to DRAM.
    pub dram_bytes_written: u64,
    /// DRAM line-read transactions.
    pub dram_reads: u64,
    /// DRAM line-write transactions.
    pub dram_writes: u64,
    /// [`membound_sim::SimReport::stats_digest`] as 16 hex digits: the
    /// value the serial-vs-parallel equivalence checks compare.
    pub stats_digest: String,
    /// Host worker threads that replayed this cell's simulated cores (1
    /// for serial replay). Host-side diagnostic like `wall_seconds`:
    /// varies with the job budget, never with the simulated results.
    /// `None` only when read from a schema-v1 log, which predates the
    /// field (v2+ writers always record it).
    pub host_workers: Option<u32>,
    /// Bulk strided batches the simulated cores executed
    /// ([`membound_sim::SimReport::strided_batches`]), summed over cores.
    /// Diagnostic: excluded from `stats_digest`, so it records whether a
    /// run took the batched replay path without perturbing the
    /// digest-equality contract. `None` only when read from a pre-v3
    /// log, which predates the field.
    pub strided_batches: Option<u64>,
    /// Expanded elements the analytic executor fast-forwarded instead of
    /// replaying ([`membound_sim::SimReport::analytic_ops`], summed over
    /// cores). Diagnostic, digest-excluded: analytic execution is
    /// digest-preserving by contract (DESIGN.md §15), so this records
    /// *whether* steady states were extrapolated without perturbing the
    /// digest-equality checks. `None` only when read from a pre-v7 log.
    pub analytic_ops: Option<u64>,
    /// Expanded elements an armed analytic executor replayed raw —
    /// everything it did not fast-forward, so nonzero exactly when a core
    /// armed and was handed work
    /// ([`membound_sim::SimReport::replay_fallback_ops`], summed over
    /// cores). `None` only when read from a pre-v7 log.
    pub replay_fallback_ops: Option<u64>,
}

impl SimRecord {
    /// Flatten a full simulator report into the telemetry schema.
    #[must_use]
    pub fn from_report(report: &membound_sim::SimReport) -> Self {
        Self {
            threads: report.threads,
            cycles: report.cycles,
            seconds: report.seconds,
            cache_levels: report
                .cache_stats
                .iter()
                .map(|l| CacheLevelRecord::new(l.hits, l.misses))
                .collect(),
            dtlb: CacheLevelRecord::new(report.dtlb_stats.hits, report.dtlb_stats.misses),
            dram_bytes_read: report.dram.bytes_read,
            dram_bytes_written: report.dram.bytes_written,
            dram_reads: report.dram.reads,
            dram_writes: report.dram.writes,
            stats_digest: format!("{:016x}", report.stats_digest()),
            host_workers: Some(report.host_workers),
            strided_batches: Some(report.strided_batches),
            analytic_ops: Some(report.analytic_ops),
            replay_fallback_ops: Some(report.replay_fallback_ops),
        }
    }
}

/// Execution status of one cell.
pub mod status {
    /// The cell ran and produced a result.
    pub const OK: &str = "ok";
    /// The workload exceeds the device's memory; deliberately skipped.
    pub const DOES_NOT_FIT: &str = "does_not_fit";
    /// The cell's closure panicked; `error` carries the message.
    pub const PANICKED: &str = "panicked";
    /// Every attempt panicked under a retry policy (`--retries` > 0);
    /// `error` carries the last panic message and `attempts` the count.
    /// Schema v4+.
    pub const FAILED: &str = "failed";
    /// An attempt overran the per-cell wall-clock deadline
    /// (`--cell-deadline`); its result was discarded. Schema v4+.
    pub const TIMED_OUT: &str = "timed_out";
}

/// One experiment cell: a kernel variant on a device at one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    /// Always `"cell"`.
    pub kind: String,
    /// Position in the experiment matrix; cell lines appear in index
    /// order regardless of the parallel execution order.
    pub index: u64,
    /// Workload panel label (e.g. the matrix size `"2048"`).
    pub panel: String,
    /// Device label.
    pub device: String,
    /// Kernel family: `"transpose"`, `"blur"`, `"fused_blur"`, `"stream"`.
    pub kernel: String,
    /// Variant label within the kernel's ladder.
    pub variant: String,
    /// One of the [`status`] constants.
    pub status: String,
    /// Execution attempts this record reflects (1 = first try
    /// succeeded; >1 = retried after panics). Digest-excluded host-side
    /// diagnostic like `wall_seconds`. `None` only when read from a
    /// pre-v4 log, which predates the retry policy; absent ⇒ one
    /// attempt.
    pub attempts: Option<u32>,
    /// Host wall-clock seconds this cell's simulation took to *run*
    /// (engine scheduling overhead excluded; nondeterministic).
    pub wall_seconds: f64,
    /// Simulated quantities; present iff the cell produced a report.
    pub sim: Option<SimRecord>,
    /// Measured bandwidth in GB/s, for STREAM cells.
    pub gbps: Option<f64>,
    /// Speedup over the first cell of the same (panel, device, kernel)
    /// ladder, when the ladder has a baseline.
    pub speedup_vs_naive: Option<f64>,
    /// The §3.3 relative bandwidth-utilization metric, when an earlier
    /// DRAM Triad cell of the matrix measured the device's bandwidth.
    pub bandwidth_utilization: Option<f64>,
    /// Panic message for `status == "panicked"`.
    pub error: Option<String>,
    /// Where the record's result came from when it was *not* simulated
    /// in this run: [`provenance::RESUME`] (restored from a `--resume`
    /// log) or [`provenance::CACHE`] (restored from the persistent
    /// result cache, DESIGN.md §12). Digest-excluded host-side
    /// diagnostic like `attempts`: a cached run's digest-bearing fields
    /// stay byte-identical to an uncached run's. `None` ⇒ freshly
    /// simulated (and on every pre-v5 log, which predates the field).
    pub provenance: Option<String>,
}

/// Known [`CellRecord::provenance`] values. Schema v5+.
pub mod provenance {
    /// The record was restored from a `--resume` run log.
    pub const RESUME: &str = "resume";
    /// The record was restored from the persistent result cache.
    pub const CACHE: &str = "cache";
}

/// Summary returned by a successful [`validate_run_log`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunLogSummary {
    /// Schema version the log was written with (within
    /// [`MIN_SCHEMA_VERSION`]..=[`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Figure named in the header.
    pub figure: String,
    /// Worker threads of the run.
    pub jobs: u32,
    /// Total cells.
    pub cells: u64,
    /// Cells with `status == "ok"`.
    pub ok_cells: u64,
    /// Cells whose record was restored from the persistent result cache
    /// (`provenance == "cache"`, schema v5+) rather than simulated.
    pub cached_cells: u64,
    /// Cells whose record was restored from a `--resume` log
    /// (`provenance == "resume"`, schema v5+) rather than simulated.
    pub resumed_cells: u64,
    /// FNV-1a combination of every cell's `stats_digest`, as 16 hex
    /// digits — compare across runs to prove simulated-stat identity.
    pub combined_digest: String,
}

/// Combine per-cell digest strings into one order-sensitive digest.
#[must_use]
pub fn combine_digests<'a>(digests: impl Iterator<Item = &'a str>) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for d in digests {
        for b in d.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Render a header plus cell records as JSONL text.
#[must_use]
pub fn render_run_log(header: &RunHeader, cells: &[CellRecord]) -> String {
    let mut out = String::new();
    out.push_str(&serde_json::to_string(header).expect("header serializes"));
    out.push('\n');
    for cell in cells {
        out.push_str(&serde_json::to_string(cell).expect("cell serializes"));
        out.push('\n');
    }
    out
}

/// Validate a run log written with any supported schema version
/// ([`MIN_SCHEMA_VERSION`]..=[`SCHEMA_VERSION`]).
///
/// Checks: a parseable header line with `kind == "header"` and a
/// supported schema version (future versions are rejected — this
/// validator cannot vouch for fields it does not know); every following
/// line parses as a cell with `kind == "cell"`, a known status, indices
/// in exact `0..cells` order; `status == "ok"` cells carry a result
/// (`sim` or `gbps`) and panicked/failed cells an error message. Fields
/// a log's version predates read as `None` (see [`MIN_SCHEMA_VERSION`]).
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_run_log(text: &str) -> Result<RunLogSummary, String> {
    let mut lines = text.lines().enumerate();
    let (_, first) = lines.next().ok_or("empty run log")?;
    let header: RunHeader =
        serde_json::from_str(first).map_err(|e| format!("line 1: bad header: {e:?}"))?;
    if header.kind != "header" {
        return Err(format!(
            "line 1: kind {:?}, expected \"header\"",
            header.kind
        ));
    }
    if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&header.schema_version) {
        return Err(format!(
            "schema version {} unsupported (validator speaks {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})",
            header.schema_version
        ));
    }

    let mut ok_cells = 0u64;
    let mut cached_cells = 0u64;
    let mut resumed_cells = 0u64;
    let mut seen = 0u64;
    let mut digests: Vec<String> = Vec::new();
    for (lineno, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let n = lineno + 1;
        let cell: CellRecord =
            serde_json::from_str(line).map_err(|e| format!("line {n}: bad cell: {e:?}"))?;
        if cell.kind != "cell" {
            return Err(format!("line {n}: kind {:?}, expected \"cell\"", cell.kind));
        }
        if cell.index != seen {
            return Err(format!(
                "line {n}: index {} out of order (expected {seen})",
                cell.index
            ));
        }
        match cell.status.as_str() {
            status::OK => {
                if cell.sim.is_none() && cell.gbps.is_none() {
                    return Err(format!("line {n}: ok cell carries no sim data or gbps"));
                }
                ok_cells += 1;
            }
            status::DOES_NOT_FIT | status::TIMED_OUT => {}
            status::PANICKED | status::FAILED => {
                if cell.error.is_none() {
                    return Err(format!(
                        "line {n}: {} cell has no error message",
                        cell.status
                    ));
                }
            }
            other => return Err(format!("line {n}: unknown status {other:?}")),
        }
        match cell.provenance.as_deref() {
            None => {}
            Some(provenance::CACHE) => cached_cells += 1,
            Some(provenance::RESUME) => resumed_cells += 1,
            Some(other) => return Err(format!("line {n}: unknown provenance {other:?}")),
        }
        if let Some(sim) = &cell.sim {
            if sim.stats_digest.len() != 16
                || !sim.stats_digest.bytes().all(|b| b.is_ascii_hexdigit())
            {
                return Err(format!(
                    "line {n}: stats_digest {:?} is not 16 hex digits",
                    sim.stats_digest
                ));
            }
            digests.push(sim.stats_digest.clone());
        }
        seen += 1;
    }
    if seen != header.cells {
        return Err(format!(
            "header promises {} cells but the log has {seen}",
            header.cells
        ));
    }
    Ok(RunLogSummary {
        schema_version: header.schema_version,
        figure: header.figure,
        jobs: header.jobs,
        cells: seen,
        ok_cells,
        cached_cells,
        resumed_cells,
        combined_digest: combine_digests(digests.iter().map(String::as_str)),
    })
}

/// A partially written run log recovered from disk: the header plus the
/// strict index-ordered prefix of cell records that made it out before
/// the run stopped.
///
/// This is the input to `--resume`: the engine skips every cell whose
/// record is present (and resumable) and re-simulates only the rest.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialRunLog {
    /// The run's header line.
    pub header: RunHeader,
    /// Cell records in exact `0..records.len()` index order.
    pub records: Vec<CellRecord>,
    /// `true` when the last line of the file was unparseable and
    /// dropped — the signature of a process killed mid-`write`.
    pub truncated_tail: bool,
}

/// Parse a possibly truncated run log for resumption.
///
/// Tolerates exactly the damage a crash can cause: a log that simply
/// *ends early* (fewer cell lines than the header promises) and a final
/// line cut off mid-write (dropped; reported via
/// [`PartialRunLog::truncated_tail`]). Anything else — an unparseable
/// header, garbage on an interior line, out-of-order indices, an
/// unsupported schema version — is corruption, not truncation, and is an
/// error: resuming over it would silently misattribute results.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn parse_partial_run_log(text: &str) -> Result<PartialRunLog, String> {
    let lines: Vec<&str> = text.lines().collect();
    let first = *lines.first().ok_or("empty run log")?;
    let header: RunHeader =
        serde_json::from_str(first).map_err(|e| format!("line 1: bad header: {e:?}"))?;
    if header.kind != "header" {
        return Err(format!(
            "line 1: kind {:?}, expected \"header\"",
            header.kind
        ));
    }
    if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&header.schema_version) {
        return Err(format!(
            "schema version {} unsupported (this release speaks {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})",
            header.schema_version
        ));
    }

    let mut records = Vec::new();
    let mut truncated_tail = false;
    let last = lines.len() - 1;
    for (i, line) in lines.iter().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let n = i + 1;
        let cell: CellRecord = match serde_json::from_str(line) {
            Ok(cell) => cell,
            // A torn final line is exactly what a crash mid-append
            // leaves behind; everything before it is still good.
            Err(_) if i == last => {
                truncated_tail = true;
                break;
            }
            Err(e) => return Err(format!("line {n}: bad cell: {e:?}")),
        };
        if cell.kind != "cell" {
            return Err(format!("line {n}: kind {:?}, expected \"cell\"", cell.kind));
        }
        if cell.index != records.len() as u64 {
            return Err(format!(
                "line {n}: index {} out of order (expected {})",
                cell.index,
                records.len()
            ));
        }
        records.push(cell);
    }
    if records.len() as u64 > header.cells {
        return Err(format!(
            "header promises {} cells but the log has {}",
            header.cells,
            records.len()
        ));
    }
    Ok(PartialRunLog {
        header,
        records,
        truncated_tail,
    })
}

/// Write `text` to `path` atomically: write a temporary file in the
/// *same directory* (same filesystem, so the rename cannot degrade to a
/// copy), rename it over the destination, and fsync the parent
/// directory. A crash or full disk mid-write leaves either the old
/// file or the temporary — never a half-written destination.
///
/// The directory fsync is what makes the *rename itself* durable: data
/// sync on the temporary only persists the file's bytes, while the
/// directory entry created by the rename lives in the directory's own
/// metadata. Without syncing that, a power cut right after the rename
/// can roll the directory back and lose the file entirely — weaker
/// than the crash-safety contract of DESIGN.md §11–§12. Filesystems
/// where a directory cannot be opened or synced (the error is ignored)
/// keep the old, rename-only behaviour.
///
/// # Errors
///
/// Any I/O error from creating, writing, syncing, or renaming the
/// temporary file. The temporary is removed on a failed write.
pub fn write_text_atomic(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other(format!("{} has no file name", path.display())))?;
    let mut tmp = path.to_path_buf();
    tmp.set_file_name(format!(".{}.tmp", file_name.to_string_lossy()));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_data()?;
        Ok(())
    })();
    if let Err(e) = result {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// Best-effort fsync of `path`'s parent directory, making a just-
/// completed rename durable across power failure. Errors are ignored:
/// some filesystems refuse to open or sync directories, and on those
/// the caller keeps rename-only atomicity (the pre-fix behaviour)
/// rather than failing a write that already succeeded.
fn sync_parent_dir(path: &std::path::Path) {
    let parent = match path.parent() {
        // An empty parent means the path is a bare file name; the
        // directory is the process CWD.
        Some(p) if p.as_os_str().is_empty() => std::path::Path::new("."),
        Some(p) => p,
        None => return,
    };
    if let Ok(dir) = std::fs::File::open(parent) {
        let _ = dir.sync_all();
    }
}

/// An append-mode run-log writer that makes a run crash-safe: the
/// header is written (and synced) at creation, then each cell line is
/// appended and synced as it is handed over, so a killed process leaves
/// a valid truncated log that [`parse_partial_run_log`] can resume from.
///
/// The caller is responsible for feeding records in index order (the
/// engine buffers out-of-order completions and flushes the contiguous
/// prefix); lines are written exactly as [`render_run_log`] would
/// render them, so a streamed log and a one-shot log of the same run
/// are byte-identical apart from the header timestamp.
#[derive(Debug)]
pub struct StreamingRunLog {
    file: std::fs::File,
}

impl StreamingRunLog {
    /// Create (truncate) the log at `path` and write the header line.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating or writing the file.
    pub fn create(path: &std::path::Path, header: &RunHeader) -> std::io::Result<Self> {
        use std::io::Write as _;
        let mut file = std::fs::File::create(path)?;
        let mut line = serde_json::to_string(header).expect("header serializes");
        line.push('\n');
        file.write_all(line.as_bytes())?;
        file.sync_data()?;
        Ok(Self { file })
    }

    /// Append one cell line and sync it to disk.
    ///
    /// # Errors
    ///
    /// Any I/O error from writing or syncing. After an error the log
    /// may end in a torn line; that is exactly the damage
    /// [`parse_partial_run_log`] tolerates.
    pub fn append_record(&mut self, record: &CellRecord) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut line = serde_json::to_string(record).expect("cell serializes");
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cell(index: u64) -> CellRecord {
        CellRecord {
            kind: "cell".into(),
            index,
            panel: "256".into(),
            device: "Test".into(),
            kernel: "transpose".into(),
            variant: "Naive".into(),
            status: status::OK.into(),
            attempts: Some(1),
            wall_seconds: 0.25,
            sim: Some(SimRecord {
                threads: 1,
                cycles: 1000.0,
                seconds: 1e-6,
                cache_levels: vec![CacheLevelRecord::new(90, 10)],
                dtlb: CacheLevelRecord::new(99, 1),
                dram_bytes_read: 640,
                dram_bytes_written: 320,
                dram_reads: 10,
                dram_writes: 5,
                stats_digest: "00deadbeef001234".into(),
                host_workers: Some(1),
                strided_batches: Some(4),
                analytic_ops: Some(0),
                replay_fallback_ops: Some(128),
            }),
            gbps: None,
            speedup_vs_naive: Some(1.0),
            bandwidth_utilization: None,
            error: None,
            provenance: None,
        }
    }

    /// Regression: schema v1 reported an untouched level as `0.0` while
    /// `LevelStats::hit_rate` said `1.0` for the very same counters —
    /// the log and the text reports disagreed. The record now delegates
    /// to the simulator's convention for *every* input.
    #[test]
    fn hit_rate_convention_matches_the_simulator() {
        for (hits, misses) in [(0u64, 0u64), (3, 1), (0, 7), (1, 0), (1000, 24)] {
            let stats = membound_sim::LevelStats {
                hits,
                misses,
                ..Default::default()
            };
            let record = CacheLevelRecord::new(hits, misses);
            assert_eq!(
                record.hit_rate.to_bits(),
                stats.hit_rate().to_bits(),
                "hits={hits} misses={misses}"
            );
        }
        assert_eq!(
            CacheLevelRecord::new(0, 0).hit_rate,
            1.0,
            "an untouched level never missed"
        );
    }

    #[test]
    fn round_trip_and_validate() {
        let header = RunHeader::new("fig_test", 4, 2);
        let cells = vec![sample_cell(0), sample_cell(1)];
        let text = render_run_log(&header, &cells);
        let summary = validate_run_log(&text).expect("valid log");
        assert_eq!(summary.figure, "fig_test");
        assert_eq!(summary.jobs, 4);
        assert_eq!(summary.cells, 2);
        assert_eq!(summary.ok_cells, 2);
    }

    #[test]
    fn wrong_schema_version_rejected() {
        let mut header = RunHeader::new("fig_test", 1, 0);
        header.schema_version = SCHEMA_VERSION + 1;
        let text = render_run_log(&header, &[]);
        let err = validate_run_log(&text).unwrap_err();
        assert!(err.contains("schema version"), "{err}");
    }

    #[test]
    fn out_of_order_cells_rejected() {
        let header = RunHeader::new("fig_test", 1, 2);
        let text = render_run_log(&header, &[sample_cell(1), sample_cell(0)]);
        let err = validate_run_log(&text).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
    }

    #[test]
    fn cell_count_mismatch_rejected() {
        let header = RunHeader::new("fig_test", 1, 3);
        let text = render_run_log(&header, &[sample_cell(0)]);
        let err = validate_run_log(&text).unwrap_err();
        assert!(err.contains("promises"), "{err}");
    }

    #[test]
    fn ok_cell_without_result_rejected() {
        let header = RunHeader::new("fig_test", 1, 1);
        let mut cell = sample_cell(0);
        cell.sim = None;
        let text = render_run_log(&header, &[cell]);
        let err = validate_run_log(&text).unwrap_err();
        assert!(err.contains("no sim data"), "{err}");
    }

    #[test]
    fn panicked_cell_needs_a_message() {
        let header = RunHeader::new("fig_test", 1, 1);
        let mut cell = sample_cell(0);
        cell.status = status::PANICKED.into();
        cell.sim = None;
        let text = render_run_log(&header, &[cell]);
        let err = validate_run_log(&text).unwrap_err();
        assert!(err.contains("no error message"), "{err}");
    }

    #[test]
    fn combined_digest_is_order_sensitive() {
        let a = combine_digests(["aaaa", "bbbb"].into_iter());
        let b = combine_digests(["bbbb", "aaaa"].into_iter());
        assert_ne!(a, b);
    }

    /// A hand-written schema-v1 cell line: no `host_workers`, no
    /// `strided_batches`, no `attempts` — the migration defaults must
    /// read all three as `None`.
    fn v1_log() -> String {
        concat!(
            r#"{"kind":"header","schema_version":1,"figure":"fig_old","jobs":2,"cells":1,"created_unix_ms":0}"#,
            "\n",
            r#"{"kind":"cell","index":0,"panel":"256","device":"Test","kernel":"transpose","variant":"Naive","status":"ok","wall_seconds":0.5,"sim":{"threads":1,"cycles":1000.0,"seconds":1e-6,"cache_levels":[{"hits":90,"misses":10,"hit_rate":0.9}],"dtlb":{"hits":99,"misses":1,"hit_rate":0.99},"dram_bytes_read":640,"dram_bytes_written":320,"dram_reads":10,"dram_writes":5,"stats_digest":"00deadbeef001234"},"gbps":null,"speedup_vs_naive":1.0,"bandwidth_utilization":null,"error":null}"#,
            "\n",
        )
        .to_string()
    }

    #[test]
    fn old_schema_versions_validate_with_migration_defaults() {
        let summary = validate_run_log(&v1_log()).expect("v1 log validates");
        assert_eq!(summary.schema_version, 1);
        assert_eq!(summary.ok_cells, 1);

        let partial = parse_partial_run_log(&v1_log()).expect("v1 log parses");
        let sim = partial.records[0].sim.as_ref().unwrap();
        assert_eq!(sim.host_workers, None, "v1 predates host_workers");
        assert_eq!(sim.strided_batches, None, "v1 predates strided_batches");
        assert_eq!(partial.records[0].attempts, None, "v1 predates attempts");
        assert_eq!(
            partial.records[0].provenance, None,
            "v1 predates provenance"
        );

        for version in MIN_SCHEMA_VERSION..=SCHEMA_VERSION {
            let text = v1_log().replace(
                "\"schema_version\":1",
                &format!("\"schema_version\":{version}"),
            );
            validate_run_log(&text).unwrap_or_else(|e| panic!("v{version} rejected: {e}"));
        }
    }

    #[test]
    fn future_schema_version_still_rejected() {
        let text = v1_log().replace(
            "\"schema_version\":1",
            &format!("\"schema_version\":{}", SCHEMA_VERSION + 1),
        );
        let err = validate_run_log(&text).unwrap_err();
        assert!(err.contains("schema version"), "{err}");
        let err = parse_partial_run_log(&text).unwrap_err();
        assert!(err.contains("schema version"), "{err}");
    }

    #[test]
    fn failed_and_timed_out_statuses_validate() {
        let header = RunHeader::new("fig_test", 1, 2);
        let mut failed = sample_cell(0);
        failed.status = status::FAILED.into();
        failed.sim = None;
        failed.attempts = Some(3);
        failed.error = Some("boom".into());
        let mut timed_out = sample_cell(1);
        timed_out.status = status::TIMED_OUT.into();
        timed_out.sim = None;
        let text = render_run_log(&header, &[failed.clone(), timed_out]);
        let summary = validate_run_log(&text).expect("valid log");
        assert_eq!(summary.ok_cells, 0);

        failed.error = None;
        let text = render_run_log(&RunHeader::new("fig_test", 1, 1), &[failed]);
        let err = validate_run_log(&text).unwrap_err();
        assert!(err.contains("no error message"), "{err}");
    }

    #[test]
    fn provenance_values_are_validated() {
        let header = RunHeader::new("fig_test", 1, 2);
        let mut cached = sample_cell(0);
        cached.provenance = Some(provenance::CACHE.into());
        let mut resumed = sample_cell(1);
        resumed.provenance = Some(provenance::RESUME.into());
        let text = render_run_log(&header, &[cached.clone(), resumed]);
        let summary = validate_run_log(&text).expect("valid log");
        assert_eq!(summary.cached_cells, 1);
        assert_eq!(summary.resumed_cells, 1);

        cached.provenance = Some("teleported".into());
        let text = render_run_log(&RunHeader::new("fig_test", 1, 1), &[cached]);
        let err = validate_run_log(&text).unwrap_err();
        assert!(err.contains("unknown provenance"), "{err}");
    }

    #[test]
    fn partial_log_accepts_a_truncated_tail() {
        let header = RunHeader::new("fig_test", 4, 5);
        let full = render_run_log(&header, &[sample_cell(0), sample_cell(1), sample_cell(2)]);
        // Chop the file mid-way through the final line, like a crash
        // mid-append.
        let cut = full.len() - 37;
        let torn = &full[..cut];
        let partial = parse_partial_run_log(torn).expect("torn log parses");
        assert_eq!(partial.records.len(), 2);
        assert!(partial.truncated_tail);

        // An intact early-ended log is not a torn one.
        let short = render_run_log(&header, &[sample_cell(0)]);
        let partial = parse_partial_run_log(&short).expect("short log parses");
        assert_eq!(partial.records.len(), 1);
        assert!(!partial.truncated_tail);
    }

    #[test]
    fn partial_log_rejects_interior_garbage_and_disorder() {
        let header = RunHeader::new("fig_test", 1, 3);
        let mut lines: Vec<String> = render_run_log(&header, &[sample_cell(0), sample_cell(1)])
            .lines()
            .map(String::from)
            .collect();
        lines[1] = "{torn".into();
        let err = parse_partial_run_log(&lines.join("\n")).unwrap_err();
        assert!(err.contains("bad cell"), "{err}");

        let text = render_run_log(&header, &[sample_cell(1)]);
        let err = parse_partial_run_log(&text).unwrap_err();
        assert!(err.contains("out of order"), "{err}");

        // More cells than the header promises is corruption, not
        // truncation.
        let over = render_run_log(
            &RunHeader::new("fig_test", 1, 1),
            &[sample_cell(0), sample_cell(1)],
        );
        let err = parse_partial_run_log(&over).unwrap_err();
        assert!(err.contains("promises"), "{err}");
    }

    #[test]
    fn streaming_log_matches_one_shot_render() {
        let dir = std::env::temp_dir().join("membound_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.jsonl");
        let header = RunHeader::new("fig_test", 2, 2);
        let cells = [sample_cell(0), sample_cell(1)];
        let mut log = StreamingRunLog::create(&path, &header).unwrap();
        for cell in &cells {
            log.append_record(cell).unwrap();
        }
        drop(log);
        let streamed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(streamed, render_run_log(&header, &cells));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join("membound_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        std::fs::write(&path, "old contents").unwrap();
        write_text_atomic(&path, "new contents\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new contents\n");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "no temporary left behind");
        std::fs::remove_file(&path).unwrap();
    }

    /// The directory fsync after rename must be a silent no-op where it
    /// cannot work: a bare file name (empty parent → CWD), a rootless
    /// path, and a parent that does not exist must all return without
    /// panicking or erroring — durability degrades, writes never fail.
    #[test]
    fn parent_dir_sync_is_best_effort() {
        sync_parent_dir(std::path::Path::new("bare_file.txt"));
        sync_parent_dir(std::path::Path::new("/"));
        sync_parent_dir(std::path::Path::new("/definitely/not/a/real/dir/x.txt"));
    }
}
