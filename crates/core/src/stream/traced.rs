//! Trace generator and per-level sizing for the STREAM tests.

use super::StreamOp;
use crate::kernel::{simulate, TracedKernel};
use membound_sim::{DeviceSpec, Machine, SimReport};
use membound_trace::{IterCost, TraceSink};

/// Line size used for probe interleaving (all modelled devices use 64 B).
const LINE: u64 = 64;
/// Elements of one cache line (f64).
const ELEMS_PER_LINE: u64 = LINE / 8;

/// Trace generator for one STREAM test over arrays of `elements` doubles.
///
/// Emission is line-granular and interleaves the two or three array
/// streams the way the scalar loop touches them (b-line, c-line, a-line
/// per group of eight iterations), so stride prefetchers see the same
/// concurrent streams they would on hardware.
#[derive(Debug, Clone, Copy)]
pub struct StreamTrace {
    op: StreamOp,
    elements: u64,
    base_a: u64,
    base_b: u64,
    base_c: u64,
}

impl StreamTrace {
    /// A generator for `op` over arrays of `elements` doubles, placed in
    /// three well-separated address regions.
    ///
    /// # Panics
    ///
    /// Panics if `elements` is zero.
    #[must_use]
    pub fn new(op: StreamOp, elements: u64) -> Self {
        assert!(elements > 0, "need at least one element");
        // Regions spaced far apart so the streams never alias, with a
        // deliberate 65-line skew between arrays: power-of-two-aligned
        // bases would put a[i], b[i] and c[i] in the same cache set of
        // every modelled cache and thrash low-associativity L1s — real
        // STREAM allocations avoid exactly this via allocator offsets.
        let stride = (elements * 8).next_power_of_two().max(1 << 20) + 65 * 64;
        Self {
            op,
            elements,
            base_a: 0x2000_0000_0000,
            base_b: 0x2000_0000_0000 + stride,
            base_c: 0x2000_0000_0000 + 2 * stride,
        }
    }

    /// The test being traced.
    #[must_use]
    pub fn op(&self) -> StreamOp {
        self.op
    }

    /// Elements per array.
    #[must_use]
    pub fn elements(&self) -> u64 {
        self.elements
    }

    /// Per-iteration instruction budget of the scalar loop.
    #[must_use]
    pub fn iter_cost(&self) -> IterCost {
        let loads = self.op.arrays_used() - 1;
        IterCost::new(2, self.op.flops_per_iter())
            .mem(loads, 1)
            .elem_bytes(8)
            .vectorizable(true)
    }

    /// Emit one pass over iterations `lo..hi` (element indices).
    pub fn trace_pass<S: TraceSink + ?Sized>(&self, sink: &mut S, lo: u64, hi: u64) {
        let reads_c = self.op.arrays_used() == 3;
        let mut i = lo;
        while i < hi {
            let chunk_end = ((i / ELEMS_PER_LINE + 1) * ELEMS_PER_LINE).min(hi);
            let bytes = (chunk_end - i) * 8;
            sink.load_range(self.base_b + i * 8, bytes);
            if reads_c {
                sink.load_range(self.base_c + i * 8, bytes);
            }
            sink.store_range(self.base_a + i * 8, bytes);
            i = chunk_end;
        }
        sink.compute(self.iter_cost(), hi - lo);
    }
}

/// Number of timed passes per STREAM measurement (after one warm-up).
const STREAM_PASSES: usize = 3;

/// Array sizing for a cache level: ~3/4 of capacity across all arrays.
pub(crate) fn cache_level_elements(level_bytes: u64, arrays: u64) -> u64 {
    ((level_bytes * 3 / 4) / (arrays * 8)).max(64)
}

/// Per-thread array sizing for a *shared* cache level: 3/4 of the
/// per-core capacity share, but at least 1.5× the level above so the
/// arrays cannot linger there (when a shared level's per-core share is
/// barely larger than the private level above it — the Xeon's L3 slice vs
/// its L2 — the measurement inevitably blends in some next-level traffic,
/// exactly as on the real part).
fn shared_level_elements(spec: &DeviceSpec, k: usize, threads: u64, arrays: u64) -> u64 {
    let share = spec.caches[k].size_bytes / threads;
    let above = if k > 0 {
        spec.caches[k - 1].size_bytes
    } else {
        0
    };
    let footprint = (share * 3 / 4).max(above * 3 / 2);
    (footprint / (arrays * 8)).max(64)
}

/// Per-thread array sizing for the DRAM level: every *individual* array
/// must comfortably exceed a core's total cache share, or steady-state
/// passes keep the store target resident and dodge its write-allocate and
/// write-back traffic.
pub(crate) fn dram_level_elements(spec: &DeviceSpec, arrays: u64) -> u64 {
    let total_cache: u64 = spec.caches.iter().map(|c| c.size_bytes).sum();
    let per_core_cache = total_cache / u64::from(spec.cores);
    let per_array = (3 * per_core_cache)
        .max(3 << 20)
        .min(spec.dram_capacity_bytes / (2 * u64::from(spec.cores) * arrays));
    (per_array / 8).max(1024)
}

/// One STREAM measurement against one memory level, as a
/// [`TracedKernel`].
///
/// Private cache levels are measured on one core (and the bandwidth
/// scaled by the core count, as §4.1 prescribes); shared levels and
/// DRAM are measured with every core active. Each simulated core streams
/// its own slice of logically shared arrays — one warm-up pass plus
/// three timed passes, a barrier after each.
#[derive(Debug, Clone, Copy)]
pub struct StreamKernel {
    /// STREAM operation.
    pub op: StreamOp,
    /// Cache level index (0 = L1), or `None` for DRAM.
    pub level: Option<usize>,
}

impl StreamKernel {
    /// `op` against memory level `level` (`None` = DRAM).
    #[must_use]
    pub fn new(op: StreamOp, level: Option<usize>) -> Self {
        Self { op, level }
    }

    /// Whether the level is private: measured on one core and scaled.
    fn private(&self, spec: &DeviceSpec) -> bool {
        self.level.is_some_and(|k| !spec.caches[k].shared)
    }

    /// Array elements each simulated core streams on `spec`.
    fn elements_per_thread(&self, spec: &DeviceSpec) -> u64 {
        let arrays = u64::from(self.op.arrays_used());
        match self.level {
            Some(k) if spec.caches[k].shared => {
                shared_level_elements(spec, k, u64::from(spec.cores), arrays)
            }
            Some(k) => cache_level_elements(spec.caches[k].size_bytes, arrays),
            None => dram_level_elements(spec, arrays),
        }
    }

    /// Bandwidth in GB/s of `report`, a replay of this kernel on
    /// `spec`: STREAM's nominal bytes over the best steady-state pass
    /// (the cold warm-up phase is skipped, as STREAM itself does).
    fn gbps(&self, spec: &DeviceSpec, report: &SimReport) -> f64 {
        let freq = spec.core.freq_ghz * 1e9;
        let best_phase_seconds = report
            .phases
            .iter()
            .skip(1)
            .map(|p| p.cycles / freq)
            .filter(|&s| s > 0.0)
            .fold(f64::INFINITY, f64::min);
        if !best_phase_seconds.is_finite() {
            return 0.0;
        }
        let scale = if self.private(spec) {
            f64::from(spec.cores)
        } else {
            1.0
        };
        let elements = self.elements_per_thread(spec) * u64::from(self.threads(spec));
        self.op.nominal_bytes(elements) as f64 / best_phase_seconds / 1e9 * scale
    }

    /// Replay on `machine` and return the bandwidth in GB/s.
    #[must_use]
    pub fn measure(&self, machine: &Machine) -> f64 {
        let report = simulate(machine, self).expect("STREAM arrays are sized to the device");
        self.gbps(machine.spec(), &report)
    }
}

impl TracedKernel for StreamKernel {
    /// The trace over every core's slice, and the slice length.
    type Plan = (StreamTrace, u64);

    fn footprint_bytes(&self) -> Option<u64> {
        None
    }

    fn threads(&self, spec: &DeviceSpec) -> u32 {
        if self.private(spec) {
            1
        } else {
            spec.cores
        }
    }

    fn plan(&self, spec: &DeviceSpec, threads: u32) -> (StreamTrace, u64) {
        let per_thread = self.elements_per_thread(spec);
        let trace = StreamTrace::new(self.op, per_thread * u64::from(threads));
        (trace, per_thread)
    }

    fn emit<S: TraceSink + ?Sized>(&self, plan: &(StreamTrace, u64), tid: u32, sink: &mut S) {
        let (trace, per_thread) = plan;
        let lo = u64::from(tid) * per_thread;
        for _pass in 0..=STREAM_PASSES {
            trace.trace_pass(sink, lo, lo + per_thread);
            sink.barrier();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use membound_trace::TraceBuffer;

    #[test]
    fn copy_emits_two_streams_triad_three() {
        for (op, expected_arrays) in [(StreamOp::Copy, 2u64), (StreamOp::Triad, 3)] {
            let t = StreamTrace::new(op, 64);
            let mut buf = TraceBuffer::new();
            t.trace_pass(&mut buf, 0, 64);
            // 64 elements = 8 lines per array.
            assert_eq!(buf.len() as u64, 8 * expected_arrays, "{op}");
        }
    }

    #[test]
    fn bytes_match_the_element_count() {
        let t = StreamTrace::new(StreamOp::Add, 100);
        let mut buf = TraceBuffer::new();
        t.trace_pass(&mut buf, 0, 100);
        assert_eq!(buf.stats().bytes_loaded, 2 * 100 * 8);
        assert_eq!(buf.stats().bytes_stored, 100 * 8);
        assert_eq!(buf.stats().compute_iters, 100);
    }

    #[test]
    fn streams_are_interleaved_per_line() {
        let t = StreamTrace::new(StreamOp::Copy, 32);
        let mut buf = TraceBuffer::new();
        t.trace_pass(&mut buf, 0, 32);
        // Pattern: load b, store a, load b, store a, ...
        let kinds: Vec<bool> = buf.iter().map(|a| a.kind.is_write()).collect();
        assert_eq!(
            kinds,
            vec![false, true, false, true, false, true, false, true]
        );
    }

    #[test]
    fn partial_ranges_compose() {
        let t = StreamTrace::new(StreamOp::Triad, 1000);
        let mut whole = TraceBuffer::new();
        t.trace_pass(&mut whole, 0, 1000);
        let mut parts = TraceBuffer::new();
        // Split on a line boundary (multiple of 8 elements): probes are
        // line-granular, so mid-line splits legitimately emit two partial
        // probes where the whole pass emits one.
        t.trace_pass(&mut parts, 0, 504);
        t.trace_pass(&mut parts, 504, 1000);
        assert_eq!(whole.as_slice(), parts.as_slice());
    }

    #[test]
    fn unaligned_range_boundaries_split_probes() {
        let t = StreamTrace::new(StreamOp::Copy, 20);
        let mut buf = TraceBuffer::new();
        t.trace_pass(&mut buf, 3, 11);
        // Elements 3..8 (line 0) then 8..11 (line 1): 2 probes per array.
        assert_eq!(buf.stats().loads, 2);
        assert_eq!(buf.stats().stores, 2);
        assert_eq!(buf.stats().bytes_loaded, 8 * 8);
    }

    #[test]
    fn iter_cost_matches_op() {
        assert_eq!(StreamTrace::new(StreamOp::Copy, 8).iter_cost().loads, 1);
        assert_eq!(StreamTrace::new(StreamOp::Triad, 8).iter_cost().loads, 2);
        assert_eq!(StreamTrace::new(StreamOp::Triad, 8).iter_cost().flops, 2);
        assert!(
            StreamTrace::new(StreamOp::Scale, 8)
                .iter_cost()
                .vectorizable
        );
    }

    #[test]
    fn arrays_do_not_alias() {
        let t = StreamTrace::new(StreamOp::Triad, 1 << 20);
        let mut buf = TraceBuffer::new();
        t.trace_pass(&mut buf, (1 << 20) - 8, 1 << 20);
        let a_probe = buf.iter().find(|a| a.kind.is_write()).unwrap().addr;
        let b_probe = buf.iter().find(|a| !a.kind.is_write()).unwrap().addr;
        assert!(a_probe < b_probe, "a region sits below b region");
        assert!(b_probe - a_probe >= (1 << 20) * 8);
    }
}
