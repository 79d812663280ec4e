//! The engine-driven workloads, `fig2-mango` and `manycore-sg2044`: a
//! canonical figure matrix run through `membound_core::runner::Engine`
//! with the run log streamed, as the figure binaries run it.

use crate::catalog;
use crate::run::{self, cell_output, Ctx, Layers, Measured, Replay, Traced, SETUP_REPS};
use membound_core::runner::{Cell, Engine, ExperimentMatrix, RunOptions, RunResults};
use membound_core::telemetry::{CellRecord, StreamingRunLog};
use membound_core::{
    experiment, GbmvConfig, GbmvVariant, StreamOp, TransposeConfig, TransposeVariant,
};
use membound_parallel::JobBudget;
use membound_serve::JobSpec;
use membound_sim::Device;
use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Appends timed by the traced run's telemetry probe (at least).
const APPEND_SAMPLES: usize = 50;

pub struct EngineWorkload {
    /// `--jobs` of the measured rounds.
    jobs: u32,
    matrix: fn() -> ExperimentMatrix,
    /// A small simulation on the workload's device, run in set-up so the
    /// first round does not pay first-touch costs.
    warmup: fn(),
    /// Combined digest every round must produce.
    pin: &'static str,
    /// Cells the analytic-off and serial-budget comparisons re-simulate.
    probe: fn(&Cell) -> bool,
}

pub const FIG2_MANGO: EngineWorkload = EngineWorkload {
    jobs: 2,
    matrix: fig2_mango_matrix,
    warmup: mango_warmup,
    pin: catalog::FIG2_MANGO_DIGEST,
    probe: every_cell,
};

pub const MANYCORE_SG2044: EngineWorkload = EngineWorkload {
    jobs: 2,
    matrix: manycore_sg2044_matrix,
    warmup: sg2044_warmup,
    pin: catalog::MANYCORE_SG2044_DIGEST,
    probe: sixty_four_cores,
};

/// The Fig. 2 matrix filtered to the Mango Pi, built by the daemon's
/// `JobSpec` (which builds it exactly as `fig2_transpose` does).
fn fig2_mango_matrix() -> ExperimentMatrix {
    JobSpec::Fig2 {
        full: false,
        device: Some("mango".into()),
    }
    .matrix()
    .expect("the Mango Pi filter names one device")
}

/// The SG2044 rows of `whatif_manycore`: at each core count, DRAM Triad
/// plus the three-variant gbmv ladder, as the binary builds them.
fn manycore_sg2044_matrix() -> ExperimentMatrix {
    let device = Device::SophonSG2044;
    let spec = device.spec();
    let cfg = GbmvConfig::new(4096);
    let mut matrix = ExperimentMatrix::new("whatif_manycore");
    for cores in [1u32, 4, 16, 64].into_iter().filter(|&c| c <= spec.cores) {
        let mut scaled = spec.clone();
        scaled.cores = cores;
        scaled.name = format!("{} @{cores}c", spec.name);
        let label = format!("{} @{cores}c", device.label());
        let panel = cores.to_string();
        matrix.push(Cell::stream(
            panel.clone(),
            &label,
            &scaled,
            StreamOp::Triad,
            None,
        ));
        for variant in GbmvVariant::all() {
            matrix.push(Cell::gbmv(panel.clone(), &label, &scaled, variant, cfg));
        }
    }
    matrix
}

fn mango_warmup() {
    let cfg = TransposeConfig::with_block(1024, 64);
    black_box(experiment::simulate_transpose(
        &Device::MangoPiMqPro.spec(),
        TransposeVariant::Naive,
        cfg,
    ));
}

fn sg2044_warmup() {
    let budget = JobBudget::new(2);
    let _seat = budget.lease(1);
    let spec = Device::SophonSG2044.spec();
    for variant in [GbmvVariant::Naive, GbmvVariant::Parallel] {
        let cfg = GbmvConfig::new(4096);
        black_box(experiment::simulate_gbmv_budgeted(
            &spec, variant, cfg, &budget,
        ));
    }
}

fn every_cell(_cell: &Cell) -> bool {
    true
}

fn sixty_four_cores(cell: &Cell) -> bool {
    cell.spec.cores == 64
}

/// One engine run and when each cell's record was published.
struct Round {
    results: RunResults,
    wall: f64,
    published_ms: Vec<f64>,
}

/// Checks every round's cells against the first round, and the first
/// round's combined digest against the pin.
struct Gate {
    pin: &'static str,
    /// The first round's per-cell outputs, or `Err` when its combined
    /// digest missed the pin (then every cell of every round fails).
    reference: Option<Result<Vec<Option<String>>, ()>>,
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn new(pin: &'static str) -> Self {
        Self {
            pin,
            reference: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// Account one round; returns which of its cells failed.
    fn check(&mut self, results: &RunResults) -> Vec<bool> {
        let outputs: Vec<Option<String>> = results.cells.iter().map(cell_output).collect();
        let reference = self.reference.get_or_insert_with(|| {
            if results.combined_digest() == self.pin {
                Ok(outputs.clone())
            } else {
                Err(())
            }
        });
        let failed: Vec<bool> = match reference {
            Ok(expected) => outputs
                .iter()
                .zip(expected.iter())
                .map(|(out, want)| out.is_none() || out != want)
                .collect(),
            Err(()) => vec![true; outputs.len()],
        };
        self.attempted += failed.len() as u64;
        self.failed += failed.iter().filter(|&&f| f).count() as u64;
        failed
    }
}

impl EngineWorkload {
    fn setup(&self, ctx: &Ctx) -> Result<ExperimentMatrix, String> {
        std::fs::create_dir_all(&ctx.dir).map_err(|e| e.to_string())?;
        let matrix = (self.matrix)();
        (self.warmup)();
        Ok(matrix)
    }

    /// `Engine::run_with` at `jobs` with the run log streamed to `log`,
    /// plus a record sink that times each cell's publication. (This is
    /// `run_with`'s body: a fresh budget with the calling thread seated.)
    fn round(&self, matrix: &ExperimentMatrix, jobs: u32, log: &Path) -> Result<Round, String> {
        let budget = JobBudget::new(jobs);
        let _seat = budget.lease(1);
        let options = RunOptions {
            stream_log: Some(log.to_path_buf()),
            ..RunOptions::default()
        };
        let published = Mutex::new(Vec::with_capacity(matrix.len()));
        let start = Instant::now();
        let sink = |_index: u64, _record: &CellRecord| {
            let at = start.elapsed().as_secs_f64() * 1e3;
            published.lock().expect("publication log poisoned").push(at);
        };
        let results = Engine::new(jobs)
            .run_streamed(matrix, &options, &budget, Some(&sink))
            .map_err(|e| e.to_string())?;
        let wall = start.elapsed().as_secs_f64();
        let published_ms = published.into_inner().expect("publication log poisoned");
        Ok(Round {
            results,
            wall,
            published_ms,
        })
    }

    pub fn measure(&self, ctx: &Ctx) -> Result<Measured, String> {
        let mut m = Measured::default();
        let mut matrix = None;
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            matrix = Some(self.setup(ctx)?);
            m.setups.push(start.elapsed().as_secs_f64());
        }
        let matrix = matrix.expect("at least one set-up");
        let log = ctx.dir.join("run.jsonl");
        let mut gate = Gate::new(self.pin);
        let start = Instant::now();
        loop {
            let round = self.round(&matrix, self.jobs, &log)?;
            if m.rounds.is_empty() {
                m.digests
                    .push(("combined".into(), round.results.combined_digest()));
            }
            let failed = gate.check(&round.results);
            m.rounds.push(round.wall);
            m.latencies_ms.push(
                round
                    .published_ms
                    .iter()
                    .zip(&failed)
                    .map(|(&ms, &f)| if f { f64::INFINITY } else { ms })
                    .collect(),
            );
            // Start another round only if it can finish in time.
            if start.elapsed().as_secs_f64() + round.wall > ctx.seconds.as_secs_f64() {
                break;
            }
        }
        m.attempted = gate.attempted;
        m.failed = gate.failed;
        m.notes.push(format!(
            "{} cells per round at --jobs {}, run log streamed",
            matrix.len(),
            self.jobs
        ));
        Ok(m)
    }

    pub fn trace(&self, ctx: &Ctx) -> Result<Traced, String> {
        let matrix = self.setup(ctx)?;
        let log = ctx.dir.join("run.jsonl");
        let mut gate = Gate::new(self.pin);
        let untraced = self.round(&matrix, self.jobs, &log)?;
        gate.check(&untraced.results);
        let digests = vec![("combined".into(), untraced.results.combined_digest())];

        // The traced round: every cell the engine simulated, emitted and
        // replayed layer by layer on the same budget.
        let cells: Vec<(&Cell, String)> = run::distinct_cells(&untraced.results.cells)
            .into_iter()
            .map(|i| {
                let out =
                    cell_output(&untraced.results.cells[i]).expect("distinct cells have output");
                (&matrix.cells()[i], out)
            })
            .collect();
        let start = Instant::now();
        let replay = Replay::run(&cells, self.jobs)?;
        let traced_wall = start.elapsed().as_secs_f64();
        let mut layers = Layers::new();
        replay.record(&mut layers);
        run::compare(&cells, &replay, self.jobs, self.probe, &mut layers)?;

        let serial = self.round(&matrix, 1, &log)?;
        gate.check(&serial.results);
        run::record_runner(
            serial.wall,
            &serial.results.cells,
            serial.results.deduped,
            &mut layers,
        );
        let append_ms = append_p50_ms(&untraced.results, &ctx.dir.join("append.jsonl"))
            .map_err(|e| format!("telemetry probe: {e}"))?;
        layers.set("telemetry.append_ms", append_ms);
        layers.set("tracing.overhead_s", traced_wall - untraced.wall);

        Ok(Traced {
            layers,
            untraced_wall: untraced.wall,
            traced_wall,
            attempted: gate.attempted + cells.len() as u64,
            failed: gate.failed + replay.mismatches,
            digests,
            notes: vec![format!(
                "traced round: {} distinct cells of {} replayed",
                cells.len(),
                matrix.len()
            )],
        })
    }
}

/// Median wall, in ms, of `StreamingRunLog::append_record` (which syncs
/// each line) over a round's records, appended until at least
/// [`APPEND_SAMPLES`] have been timed.
fn append_p50_ms(results: &RunResults, path: &Path) -> std::io::Result<f64> {
    let (header, records) = results.telemetry();
    let mut log = StreamingRunLog::create(path, &header)?;
    let mut samples = Vec::with_capacity(APPEND_SAMPLES + records.len());
    while !records.is_empty() && samples.len() < APPEND_SAMPLES {
        for record in &records {
            let start = Instant::now();
            log.append_record(record)?;
            samples.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok(crate::stats::Summary::of(&samples).map_or(0.0, |s| s.median))
}
