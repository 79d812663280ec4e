//! What a workload run hands back to the report, and the pieces every
//! workload shares: the run context, the per-layer table and the
//! layer-by-layer replay of simulated cells.

use crate::catalog::PER_LAYER;
use crate::sim::{Emitter, MachineOpts};
use membound_core::cache::CachedOutcome;
use membound_core::runner::{Cell, CellOutcome, CellResult};
use membound_sim::{analytic_default, SimReport};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// SplitMix64: the seed expander behind every seeded choice of the
/// benchmark.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One benchmark invocation's parameters.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    /// Scratch directory of this run (inside the checkout).
    pub dir: PathBuf,
}

/// What an untraced run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall seconds of each set-up.
    pub setups: Vec<f64>,
    /// Wall seconds of each measured round.
    pub rounds: Vec<f64>,
    /// Result latencies in ms, grouped by round; a failed cell or job is
    /// `INFINITY`.
    pub latencies_ms: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Output digests, for comparing two builds exactly.
    pub digests: Vec<(String, String)>,
    /// Extra report lines.
    pub notes: Vec<String>,
}

/// What a traced run measured.
#[derive(Debug)]
pub struct Traced {
    pub layers: Layers,
    /// Wall of the untraced round this run made for comparison.
    pub untraced_wall: f64,
    /// Wall of the same round replayed layer by layer under spans.
    pub traced_wall: f64,
    pub attempted: u64,
    pub failed: u64,
    pub digests: Vec<(String, String)>,
    pub notes: Vec<String>,
}

/// Every per-layer metric, 0 until a probe sets it (a layer the
/// workload does not exercise reports 0).
#[derive(Debug, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Self {
        Self(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// A cell's output as the digest gate compares it: the stats digest of
/// a report-bearing cell, the bandwidth bits of a STREAM cell, or
/// `None` for a cell that failed, panicked or timed out.
pub fn cell_output(r: &CellResult) -> Option<String> {
    match &r.outcome {
        CellOutcome::Report(rep) => Some(format!("{:016x}", rep.stats_digest())),
        CellOutcome::Restored(rec) | CellOutcome::Cached(CachedOutcome::Sim(rec)) => {
            Some(rec.stats_digest.clone())
        }
        CellOutcome::Gbps(g) | CellOutcome::Cached(CachedOutcome::Gbps(g)) => Some(gbps_output(*g)),
        CellOutcome::DoesNotFit | CellOutcome::Cached(CachedOutcome::DoesNotFit) => {
            Some("does_not_fit".into())
        }
        CellOutcome::Panicked(_) | CellOutcome::Failed(_) | CellOutcome::TimedOut(_) => None,
    }
}

pub fn gbps_output(gbps: f64) -> String {
    format!("gbps:{:016x}", gbps.to_bits())
}

/// Indices of the cells a run actually had to simulate: the first cell
/// of each (device, output) group, as the engine's in-run dedupe keeps
/// one representative per identical replay. Cells without an output
/// (failed) or that do not fit are left out.
pub fn distinct_cells(results: &[CellResult]) -> Vec<usize> {
    let mut seen = std::collections::HashSet::new();
    (0..results.len())
        .filter(|&i| match cell_output(&results[i]) {
            Some(out) if out != "does_not_fit" => {
                seen.insert((results[i].cell.device.clone(), out))
            }
            _ => false,
        })
        .collect()
}

/// Layer-by-layer replay of a set of cells: each cell's trace emitted
/// into a counting null sink, then simulated by `Machine::simulate` as
/// the engine runs it.
#[derive(Debug, Default)]
pub struct Replay {
    pub emit_s: f64,
    pub refs: u64,
    pub simulate_s: f64,
    pub accesses: u64,
    pub ff_ops: u64,
    pub fallback_ops: u64,
    pub dram_bytes: u64,
    pub phases: u64,
    pub fanout_workers: u32,
    /// Cells whose replayed output differs from the engine's.
    pub mismatches: u64,
    /// Per replayed cell: its index in the caller's list and the
    /// seconds its `simulate` took.
    pub simulated: Vec<(usize, f64)>,
}

impl Replay {
    /// Replay `cells` (each with the output the engine produced for it)
    /// on a budget of `jobs` slots.
    pub fn run(cells: &[(&Cell, String)], jobs: u32) -> Result<Self, String> {
        let mut replay = Replay::default();
        let opts = MachineOpts {
            analytic: analytic_default(),
            jobs,
        };
        for (k, (cell, expected)) in cells.iter().enumerate() {
            let Some(emitter) = Emitter::for_cell(cell)? else {
                continue;
            };
            let (refs, emit_s) = emitter.emit_counted();
            let (report, simulate_s) = emitter.simulate(&cell.spec, opts);
            let output = match emitter.stream_gbps(&cell.spec, &report) {
                Some(gbps) => gbps_output(gbps),
                None => format!("{:016x}", report.stats_digest()),
            };
            if output != *expected {
                replay.mismatches += 1;
            }
            replay.add(&report, refs, emit_s, simulate_s);
            replay.simulated.push((k, simulate_s));
        }
        Ok(replay)
    }

    /// Account one simulated report.
    pub fn add(&mut self, report: &SimReport, refs: u64, emit_s: f64, simulate_s: f64) {
        self.emit_s += emit_s;
        self.refs += refs;
        self.simulate_s += simulate_s;
        let l1 = &report.cache_stats[0];
        self.accesses += l1.hits + l1.misses;
        self.ff_ops += report.analytic_ops;
        self.fallback_ops += report.replay_fallback_ops;
        self.dram_bytes += report.dram.bytes_total();
        self.phases += report.phases.len() as u64;
        self.fanout_workers = self.fanout_workers.max(report.host_workers);
    }

    /// Write the trace, hierarchy, analytic-count and machine-count
    /// metrics.
    pub fn record(&self, layers: &mut Layers) {
        layers.set("trace.emit_s", self.emit_s);
        layers.set("trace.refs", self.refs as f64);
        let replay_s = self.simulate_s - self.emit_s;
        layers.set("hierarchy.replay_s", replay_s);
        layers.set("hierarchy.accesses", self.accesses as f64);
        if self.accesses > 0 {
            layers.set(
                "hierarchy.ns_per_access",
                replay_s * 1e9 / self.accesses as f64,
            );
        }
        layers.set("analytic.ff_ops", self.ff_ops as f64);
        layers.set("analytic.fallback_ops", self.fallback_ops as f64);
        let attempted = self.ff_ops + self.fallback_ops;
        if attempted > 0 {
            layers.set("analytic.ff_ratio", self.ff_ops as f64 / attempted as f64);
        }
        layers.set("machine.fanout_workers", f64::from(self.fanout_workers));
        layers.set("machine.phases", self.phases as f64);
        layers.set("dram.bytes", self.dram_bytes as f64);
    }
}

/// Re-simulate the chosen cells with the analytic executor off, and with
/// a serial budget, beside the replay's own timings: `analytic.cost_s`
/// (on minus off) and `machine.fanout_gain` (serial over budgeted).
pub fn compare(
    cells: &[(&Cell, String)],
    replay: &Replay,
    jobs: u32,
    probe: impl Fn(&Cell) -> bool,
    layers: &mut Layers,
) -> Result<(), String> {
    let (mut on, mut off, mut serial) = (0.0, 0.0, 0.0);
    for &(k, on_s) in &replay.simulated {
        let cell = cells[k].0;
        if !probe(cell) {
            continue;
        }
        let emitter = Emitter::for_cell(cell)?.expect("replayed cells fit");
        let off_opts = MachineOpts {
            analytic: false,
            jobs,
        };
        let serial_opts = MachineOpts {
            analytic: analytic_default(),
            jobs: 0,
        };
        on += on_s;
        off += emitter.simulate(&cell.spec, off_opts).1;
        serial += emitter.simulate(&cell.spec, serial_opts).1;
    }
    layers.set("analytic.cost_s", on - off);
    if on > 0.0 {
        layers.set("machine.fanout_gain", serial / on);
    }
    Ok(())
}

/// Runner metrics of one engine run at `--jobs 1`: its wall minus the
/// cells' own walls, the slowest cell, and the in-run dedupe count.
pub fn record_runner(wall: f64, cells: &[CellResult], deduped: u64, layers: &mut Layers) {
    let cell_walls: f64 = cells.iter().map(|c| c.wall_seconds).sum();
    let critical = cells.iter().map(|c| c.wall_seconds).fold(0.0, f64::max);
    layers.set(
        "runner.self_s",
        layers.get("runner.self_s") + wall - cell_walls,
    );
    layers.set(
        "runner.critical_cell_s",
        layers.get("runner.critical_cell_s").max(critical),
    );
    layers.set(
        "runner.deduped_cells",
        layers.get("runner.deduped_cells") + deduped as f64,
    );
}
