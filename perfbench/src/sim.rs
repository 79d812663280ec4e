//! The benchmark's view of the simulator: each cell's trace emitter,
//! rebuilt from the same public generators `membound_core::experiment`
//! drives, so the traced run can time trace emission (into a counting
//! null sink) apart from `Machine::simulate`.

use membound_core::runner::{Cell, CellKind};
use membound_core::{GbmvTrace, GbmvVariant, StreamTrace, TransposeTrace, TransposeVariant};
use membound_parallel::JobBudget;
use membound_sim::{DeviceSpec, Machine, SimReport};
use membound_trace::{IterCost, MemAccess, TraceSink, PROBE_LINE_BYTES};
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// A sink that only counts the references it is handed, as the
/// per-element [`TraceSink`] defaults would dispatch them: one per
/// access, one per 64-byte line of a range, one per strided element (two
/// for a read-modify-write pair).
#[derive(Debug, Default)]
pub struct CountingSink {
    pub refs: u64,
}

impl TraceSink for CountingSink {
    fn access(&mut self, access: MemAccess) {
        black_box(access);
        self.refs += 1;
    }

    fn compute(&mut self, cost: IterCost, iters: u64) {
        black_box((cost, iters));
    }

    fn access_range(&mut self, addr: u64, len: u64, write: bool) {
        black_box((addr, write));
        if len > 0 {
            let last = addr.saturating_add(len - 1);
            self.refs += last / PROBE_LINE_BYTES - addr / PROBE_LINE_BYTES + 1;
        }
    }

    fn access_strided(&mut self, base: u64, stride: i64, count: u64, size: u32, write: bool) {
        black_box((base, stride, size, write));
        self.refs += count;
    }

    fn access_strided_rmw(&mut self, base: u64, stride: i64, count: u64, size: u32) {
        black_box((base, stride, size));
        self.refs += 2 * count;
    }
}

/// Timed passes of one STREAM measurement after its warm-up pass
/// (`membound_core::experiment`'s `STREAM_PASSES`).
const STREAM_PASSES: u64 = 3;

/// Elements per emission block of the large triad: 8 KiB per stream, so
/// the analytic recorder folds a whole pass into one repeat.
const TRIAD_BLOCK_ELEMS: u64 = 1024;

/// One single-pass blocked triad `a[i] = b[i] + s*c[i]` over three
/// well-separated arrays: the `whatif_large_n` trace, with the element
/// count and the inter-array skew (in cache lines) as parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LargeTriad {
    pub elements: u64,
    pub skew_lines: u64,
}

impl LargeTriad {
    fn bases(&self) -> (u64, u64, u64) {
        let stride = (self.elements * 8).next_power_of_two().max(1 << 20) + self.skew_lines * 64;
        let a = 0x2000_0000_0000;
        (a, a + stride, a + 2 * stride)
    }

    pub fn bytes(&self) -> u64 {
        3 * self.elements * 8
    }

    fn trace<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        let (base_a, base_b, base_c) = self.bases();
        let mut i = 0;
        while i < self.elements {
            let hi = (i + TRIAD_BLOCK_ELEMS).min(self.elements);
            let bytes = (hi - i) * 8;
            sink.load_range(base_b + i * 8, bytes);
            sink.load_range(base_c + i * 8, bytes);
            sink.store_range(base_a + i * 8, bytes);
            i = hi;
        }
        let cost = IterCost::new(2, 2)
            .mem(2, 1)
            .elem_bytes(8)
            .vectorizable(true);
        sink.compute(cost, self.elements);
    }
}

/// The reference stream of one simulation, per simulated core.
#[derive(Debug, Clone)]
pub enum Emitter {
    Transpose {
        trace: TransposeTrace,
        variant: TransposeVariant,
        plan: Vec<Vec<Range<u64>>>,
    },
    Gbmv {
        trace: GbmvTrace,
        variant: GbmvVariant,
        plan: Vec<Vec<Range<u64>>>,
    },
    /// A STREAM measurement against DRAM: every core streams its own
    /// slice, one warm-up pass plus [`STREAM_PASSES`], barrier after each.
    StreamDram {
        trace: StreamTrace,
        threads: u32,
        per_thread: u64,
    },
    Triad(LargeTriad),
}

impl Emitter {
    /// The emitter `membound_core::experiment` runs for `cell`, or
    /// `Ok(None)` when the cell's workload does not fit the device.
    pub fn for_cell(cell: &Cell) -> Result<Option<Self>, String> {
        let spec = &cell.spec;
        Ok(Some(match &cell.kind {
            CellKind::Transpose { variant, cfg } => {
                if !spec.fits_in_memory(cfg.matrix_bytes()) {
                    return Ok(None);
                }
                let trace = TransposeTrace::new(*cfg);
                let threads = if variant.is_parallel() { spec.cores } else { 1 };
                let plan =
                    variant
                        .schedule()
                        .plan(trace.outer_iterations(*variant), threads, |i| {
                            trace.weight(*variant, i)
                        });
                Emitter::Transpose {
                    trace,
                    variant: *variant,
                    plan,
                }
            }
            CellKind::Gbmv { variant, cfg } => {
                if !spec.fits_in_memory(cfg.footprint_bytes()) {
                    return Ok(None);
                }
                let trace = GbmvTrace::new(*cfg);
                let threads = if variant.is_parallel() { spec.cores } else { 1 };
                let plan =
                    variant
                        .schedule()
                        .plan(trace.outer_iterations(*variant), threads, |i| {
                            trace.weight(*variant, i)
                        });
                Emitter::Gbmv {
                    trace,
                    variant: *variant,
                    plan,
                }
            }
            CellKind::Stream { op, level: None } => {
                let per_thread = dram_level_elements(spec, u64::from(op.arrays_used()));
                Emitter::StreamDram {
                    trace: StreamTrace::new(*op, per_thread * u64::from(spec.cores)),
                    threads: spec.cores,
                    per_thread,
                }
            }
            kind => return Err(format!("no emitter for {} cells", kind.kernel())),
        }))
    }

    /// Simulated cores the emission runs on.
    pub fn threads(&self) -> u32 {
        match self {
            Emitter::Transpose { plan, .. } | Emitter::Gbmv { plan, .. } => plan.len() as u32,
            Emitter::StreamDram { threads, .. } => *threads,
            Emitter::Triad(_) => 1,
        }
    }

    /// Emit simulated core `tid`'s references into `sink`.
    pub fn emit<S: TraceSink + ?Sized>(&self, tid: u32, sink: &mut S) {
        match self {
            Emitter::Transpose {
                trace,
                variant,
                plan,
            } => {
                for r in &plan[tid as usize] {
                    trace.trace_outer(*variant, sink, tid, r.start, r.end);
                }
            }
            Emitter::Gbmv {
                trace,
                variant,
                plan,
            } => {
                for r in &plan[tid as usize] {
                    trace.trace_outer(*variant, sink, tid, r.start, r.end);
                }
            }
            Emitter::StreamDram {
                trace, per_thread, ..
            } => {
                let lo = u64::from(tid) * per_thread;
                for _pass in 0..=STREAM_PASSES {
                    trace.trace_pass(sink, lo, lo + per_thread);
                    sink.barrier();
                }
            }
            Emitter::Triad(triad) => triad.trace(sink),
        }
    }

    /// Emit every core's references into a counting null sink; returns
    /// the reference count and the seconds it took.
    pub fn emit_counted(&self) -> (u64, f64) {
        let mut sink = CountingSink::default();
        let start = Instant::now();
        for tid in 0..self.threads() {
            self.emit(tid, &mut sink);
        }
        (black_box(sink.refs), start.elapsed().as_secs_f64())
    }

    /// `Machine::simulate` of this emission on `spec`; returns the
    /// report and the seconds the call took.
    pub fn simulate(&self, spec: &DeviceSpec, opts: MachineOpts) -> (SimReport, f64) {
        let mut machine = Machine::new(spec.clone()).with_analytic(opts.analytic);
        // Seat convention: the calling thread holds one slot of the
        // budget, so the machine leases only the extra workers.
        let (budget, _seat) = match opts.jobs {
            0 => (JobBudget::serial(), None),
            jobs => {
                let budget = JobBudget::new(jobs);
                let seat = budget.lease(1);
                (budget, Some(seat))
            }
        };
        machine = machine.with_budget(budget);
        let start = Instant::now();
        let report = machine.simulate(self.threads(), |tid, sink| self.emit(tid, sink));
        (report, start.elapsed().as_secs_f64())
    }

    /// The engine's output for a STREAM cell computed from its report:
    /// GB/s of the best steady-state pass (`experiment::simulate_stream`).
    pub fn stream_gbps(&self, spec: &DeviceSpec, report: &SimReport) -> Option<f64> {
        let Emitter::StreamDram {
            trace,
            threads,
            per_thread,
        } = self
        else {
            return None;
        };
        let freq = spec.core.freq_ghz * 1e9;
        let best = report
            .phases
            .iter()
            .skip(1)
            .map(|p| p.cycles / freq)
            .filter(|&s| s > 0.0)
            .fold(f64::INFINITY, f64::min);
        if !best.is_finite() {
            return Some(0.0);
        }
        let nominal = trace.op().nominal_bytes(per_thread * u64::from(*threads));
        Some(nominal as f64 / best / 1e9)
    }
}

/// How a probe configures the machine: `jobs` = 0 replays serially
/// (`JobBudget::serial`), otherwise a budget of `jobs` slots with the
/// caller seated, as the engine runs a cell.
#[derive(Debug, Clone, Copy)]
pub struct MachineOpts {
    pub analytic: bool,
    pub jobs: u32,
}

/// Per-thread array length of a DRAM STREAM measurement
/// (`membound_core::experiment`'s sizing rule): every array well past a
/// core's cache share, capped by the device's memory.
fn dram_level_elements(spec: &DeviceSpec, arrays: u64) -> u64 {
    let total_cache: u64 = spec.caches.iter().map(|c| c.size_bytes).sum();
    let per_core_cache = total_cache / u64::from(spec.cores);
    let per_array = (3 * per_core_cache)
        .max(3 << 20)
        .min(spec.dram_capacity_bytes / (2 * u64::from(spec.cores) * arrays));
    (per_array / 8).max(1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use membound_core::runner::Cell;
    use membound_core::{experiment, GbmvConfig, StreamOp, TransposeConfig};
    use membound_sim::Device;

    /// With translation off no page-walk loads reach the caches, so
    /// every L1 demand access is one reference of the emitted trace.
    #[test]
    fn counted_refs_equal_l1_accesses_on_a_small_transpose() {
        let spec = Device::MangoPiMqPro.spec().without_tlb();
        for variant in TransposeVariant::all() {
            let cfg = TransposeConfig::with_block(192, 32);
            let cell = Cell::transpose("192", "mango", &spec, variant, cfg);
            let emitter = Emitter::for_cell(&cell).unwrap().unwrap();
            let (refs, _) = emitter.emit_counted();
            let report = experiment::simulate_transpose(&spec, variant, cfg).unwrap();
            let l1 = &report.cache_stats[0];
            assert_eq!(refs, l1.hits + l1.misses, "{variant}");
        }
    }

    /// The rebuilt emitters replay exactly what the experiment harness
    /// replays: same digests for transpose and gbmv, same bandwidth for
    /// a DRAM STREAM cell.
    #[test]
    fn emitters_reproduce_the_experiment_harness() {
        let spec = Device::StarFiveVisionFive.spec();
        let opts = MachineOpts {
            analytic: membound_sim::analytic_default(),
            jobs: 2,
        };
        let cfg = TransposeConfig::with_block(256, 32);
        let cell = Cell::transpose("256", "vf", &spec, TransposeVariant::Parallel, cfg);
        let (report, _) = Emitter::for_cell(&cell)
            .unwrap()
            .unwrap()
            .simulate(&spec, opts);
        let expected =
            experiment::simulate_transpose(&spec, TransposeVariant::Parallel, cfg).unwrap();
        assert_eq!(report.stats_digest(), expected.stats_digest());

        let gcfg = GbmvConfig::with_bands(1024, 16, 16, 128);
        let cell = Cell::gbmv("1024", "vf", &spec, GbmvVariant::Naive, gcfg);
        let (report, _) = Emitter::for_cell(&cell)
            .unwrap()
            .unwrap()
            .simulate(&spec, opts);
        let expected = experiment::simulate_gbmv(&spec, GbmvVariant::Naive, gcfg).unwrap();
        assert_eq!(report.stats_digest(), expected.stats_digest());

        let cell = Cell::stream("dram", "vf", &spec, StreamOp::Triad, None);
        let emitter = Emitter::for_cell(&cell).unwrap().unwrap();
        let (report, _) = emitter.simulate(&spec, opts);
        let gbps = emitter.stream_gbps(&spec, &report).unwrap();
        let expected = experiment::simulate_stream(&spec, StreamOp::Triad, None);
        assert_eq!(gbps.to_bits(), expected.to_bits());
    }

    #[test]
    fn range_counting_matches_the_per_line_default() {
        struct PerProbe(u64);
        impl TraceSink for PerProbe {
            fn access(&mut self, _access: MemAccess) {
                self.0 += 1;
            }
        }
        for (addr, len) in [(0, 64), (8, 64), (63, 2), (100, 0), (4096 - 8, 8200)] {
            let mut counted = CountingSink::default();
            counted.access_range(addr, len, false);
            let mut probed = PerProbe(0);
            probed.access_range(addr, len, false);
            assert_eq!(counted.refs, probed.0, "addr {addr} len {len}");
        }
    }
}
