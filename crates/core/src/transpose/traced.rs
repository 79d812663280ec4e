//! Trace generators for the transposition variants.
//!
//! Each variant emits the cache-line-level reference stream its native
//! counterpart performs. Contiguous (row-side) accesses are emitted at
//! line granularity (one probe per 64-byte line — see
//! `membound_trace::TraceSink::load_range`); strided (column-side)
//! accesses are emitted as constant-stride batches
//! (`membound_trace::TraceSink::access_strided_rmw`, one call per run of
//! pure load+store pairs between row-line boundaries) whose per-element
//! expansion is identical to the old per-element emission. Instruction
//! issue cost is charged separately via [`membound_trace::IterCost`], so
//! probe coarsening does not distort timing.

use super::{TransposeConfig, TransposeVariant};
use crate::kernel::{CorePlan, TracedKernel};
use membound_sim::DeviceSpec;
use membound_trace::{IterCost, TraceSink};

/// Line size assumed by probe coarsening (all four devices use 64 B).
const LINE: u64 = 64;

/// Trace generator for one transposition workload.
///
/// The harness drives it one *outer iteration range* at a time: rows for
/// the element-wise variants, block-rows for the blocked ones. Iteration
/// ranges map to simulated cores via `membound_parallel::Schedule::plan`.
#[derive(Debug, Clone, Copy)]
pub struct TransposeTrace {
    cfg: TransposeConfig,
    /// Base virtual address of the matrix.
    base: u64,
}

/// Virtual address region for per-thread block buffers (distinct from the
/// matrix and the page-table region).
const BUF_REGION: u64 = 0x6000_0000_0000;

impl TransposeTrace {
    /// A trace generator for `cfg`, placing the matrix at a fixed base
    /// address.
    #[must_use]
    pub fn new(cfg: TransposeConfig) -> Self {
        Self {
            cfg,
            base: 0x1000_0000_0000,
        }
    }

    /// The workload this generator traces.
    #[must_use]
    pub fn config(&self) -> TransposeConfig {
        self.cfg
    }

    /// Number of outer iterations of `variant`'s parallel loop.
    #[must_use]
    pub fn outer_iterations(&self, variant: TransposeVariant) -> u64 {
        match variant {
            TransposeVariant::Naive | TransposeVariant::Parallel => self.cfg.n as u64,
            _ => self.cfg.block_rows() as u64,
        }
    }

    /// Relative cost of outer iteration `i` — the triangular weight that
    /// makes static schedules imbalanced (§4.2's motivation for dynamic
    /// scheduling).
    #[must_use]
    pub fn weight(&self, variant: TransposeVariant, i: u64) -> f64 {
        let total = self.outer_iterations(variant);
        (total - i) as f64
    }

    fn addr(&self, i: u64, j: u64) -> u64 {
        self.base + (i * self.cfg.n as u64 + j) * 8
    }

    /// Emit outer iterations `lo..hi` of `variant` as simulated thread
    /// `tid` (the thread id selects the block-buffer address region for
    /// the manual variants).
    pub fn trace_outer<S: TraceSink + ?Sized>(
        &self,
        variant: TransposeVariant,
        sink: &mut S,
        tid: u32,
        lo: u64,
        hi: u64,
    ) {
        match variant {
            TransposeVariant::Naive | TransposeVariant::Parallel => {
                for i in lo..hi {
                    self.trace_row_swaps(sink, i, i + 1, self.cfg.n as u64);
                }
            }
            TransposeVariant::Blocking => {
                let nblk = self.cfg.block_rows() as u64;
                for bi in lo..hi {
                    for bj in bi..nblk {
                        self.trace_block_swaps(sink, bi, bj);
                    }
                }
            }
            TransposeVariant::ManualBlocking | TransposeVariant::Dynamic => {
                let nblk = self.cfg.block_rows() as u64;
                for bi in lo..hi {
                    for bj in bi..nblk {
                        self.trace_block_manual(sink, tid, bi, bj);
                    }
                }
            }
        }
    }

    /// Element swaps of row `i` against column `i`, for `j` in
    /// `jlo..jhi`: the column side is emitted as constant-stride
    /// load+store batches (one `access_strided_rmw` per run of pure pairs
    /// between row-line boundaries), the row side once per line.
    fn trace_row_swaps<S: TraceSink + ?Sized>(&self, sink: &mut S, i: u64, jlo: u64, jhi: u64) {
        let col_stride = self.cfg.n as u64 * 8;
        let mut last_row_line = u64::MAX;
        let mut j = jlo;
        while j < jhi {
            let row_addr = self.addr(i, j);
            let col_addr = self.addr(j, i);
            let row_line = row_addr / LINE;
            if row_line != last_row_line {
                // Row-line boundary: the row side's new line is refreshed
                // between this element's column halves, exactly as the
                // per-element loop interleaved them.
                sink.load(col_addr, 8);
                // Element-aligned 8-byte ranges never straddle a line, so
                // these emit exactly the probes `load`/`store` would while
                // letting simulating sinks take their batched-range path.
                sink.load_range(row_addr, 8);
                sink.store_range(row_addr, 8);
                last_row_line = row_line;
                sink.store(col_addr, 8);
                j += 1;
                continue;
            }
            // Pure column pairs until the row side crosses into a new
            // line: one strided batch. `row_addr` is 8-aligned, so the
            // division is exact and at least one element remains.
            let until_line_end = (LINE - row_addr % LINE) / 8;
            let run = until_line_end.min(jhi - j);
            sink.access_strided_rmw(col_addr, col_stride as i64, run, 8);
            j += run;
        }
        let iters = jhi.saturating_sub(jlo);
        sink.compute(IterCost::new(4, 0).mem(2, 2).elem_bytes(8), iters);
    }

    fn block_bounds(&self, b: u64) -> (u64, u64) {
        let n = self.cfg.n as u64;
        let blk = self.cfg.block as u64;
        (b * blk, ((b + 1) * blk).min(n))
    }

    /// Listing 2's element swaps within block pair `(bi, bj)`.
    fn trace_block_swaps<S: TraceSink + ?Sized>(&self, sink: &mut S, bi: u64, bj: u64) {
        let (i0, i1) = self.block_bounds(bi);
        let (j0, j1) = self.block_bounds(bj);
        for i in i0..i1 {
            let jstart = if bi == bj { (i + 1).max(j0) } else { j0 };
            self.trace_row_swaps(sink, i, jstart, j1);
        }
    }

    /// Listing 3's staged block exchange: all matrix traffic is emitted as
    /// row-sequential line probes; the in-cache buffer transposes are
    /// emitted as buffer sweeps (the buffer is L1-resident by design, so
    /// the sweep order is immaterial to traffic).
    fn trace_block_manual<S: TraceSink + ?Sized>(&self, sink: &mut S, tid: u32, bi: u64, bj: u64) {
        let (i0, i1) = self.block_bounds(bi);
        let (j0, j1) = self.block_bounds(bj);
        let bh = i1 - i0;
        let bw = j1 - j0;
        if bi == bj {
            self.trace_block_swaps(sink, bi, bj);
            return;
        }
        let blk = self.cfg.block as u64;
        let buf = BUF_REGION + u64::from(tid) * (1 << 24);
        let buf_row = |r: u64| buf + r * blk * 8;

        // load_block_to_cache(bi, bj)
        for r in 0..bh {
            sink.load_range(self.addr(i0 + r, j0), bw * 8);
            sink.store_range(buf_row(r), bw * 8);
        }
        // transpose_block_in_cache()
        for r in 0..bh.max(bw) {
            sink.load_range(buf_row(r), blk * 8);
            sink.store_range(buf_row(r), blk * 8);
        }
        // swap_block(bj, bi)
        for r in 0..bw {
            sink.load_range(self.addr(j0 + r, i0), bh * 8);
            sink.load_range(buf_row(r), bh * 8);
            sink.store_range(self.addr(j0 + r, i0), bh * 8);
            sink.store_range(buf_row(r), bh * 8);
        }
        // transpose_block_in_cache()
        for r in 0..bh.max(bw) {
            sink.load_range(buf_row(r), blk * 8);
            sink.store_range(buf_row(r), blk * 8);
        }
        // store_block(bi, bj)
        for r in 0..bh {
            sink.load_range(buf_row(r), bw * 8);
            sink.store_range(self.addr(i0 + r, j0), bw * 8);
        }

        // Per-element issue cost of the whole staged exchange: two block
        // copies, one swap and two in-buffer transposes.
        let elems = bh * bw;
        sink.compute(IterCost::new(6, 0).mem(4, 4).elem_bytes(8), elems);
    }
}

/// One transposition variant as a [`TracedKernel`]: the matrix must fit
/// in device memory, the parallel variants occupy every core, and outer
/// iterations map to cores through the variant's schedule.
#[derive(Debug, Clone, Copy)]
pub struct TransposeKernel {
    /// Ladder variant.
    pub variant: TransposeVariant,
    /// Trace generator of the workload.
    pub trace: TransposeTrace,
}

impl TransposeKernel {
    /// `variant` on workload `cfg`.
    #[must_use]
    pub fn new(variant: TransposeVariant, cfg: TransposeConfig) -> Self {
        Self {
            variant,
            trace: TransposeTrace::new(cfg),
        }
    }
}

impl TracedKernel for TransposeKernel {
    type Plan = CorePlan;

    fn footprint_bytes(&self) -> Option<u64> {
        Some(self.trace.config().matrix_bytes())
    }

    fn threads(&self, spec: &DeviceSpec) -> u32 {
        if self.variant.is_parallel() {
            spec.cores
        } else {
            1
        }
    }

    fn plan(&self, _spec: &DeviceSpec, threads: u32) -> CorePlan {
        let v = self.variant;
        v.schedule()
            .plan(self.trace.outer_iterations(v), threads, |i| {
                self.trace.weight(v, i)
            })
    }

    fn emit<S: TraceSink + ?Sized>(&self, plan: &CorePlan, tid: u32, sink: &mut S) {
        for r in &plan[tid as usize] {
            self.trace
                .trace_outer(self.variant, sink, tid, r.start, r.end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use membound_trace::TraceBuffer;

    fn trace_all(variant: TransposeVariant, cfg: TransposeConfig) -> TraceBuffer {
        let t = TransposeTrace::new(cfg);
        let mut buf = TraceBuffer::new();
        t.trace_outer(variant, &mut buf, 0, 0, t.outer_iterations(variant));
        buf
    }

    /// Distinct matrix lines touched must be identical across variants:
    /// they all transpose the same matrix.
    #[test]
    fn all_variants_touch_the_same_matrix_lines() {
        let cfg = TransposeConfig::with_block(64, 16);
        let t = TransposeTrace::new(cfg);
        let matrix_end = t.base + cfg.matrix_bytes();
        let lines = |variant| -> std::collections::BTreeSet<u64> {
            trace_all(variant, cfg)
                .iter()
                .filter(|a| a.addr >= t.base && a.addr < matrix_end)
                .map(|a| a.addr / LINE)
                .collect()
        };
        let naive = lines(TransposeVariant::Naive);
        for v in TransposeVariant::all() {
            assert_eq!(lines(v), naive, "{v}");
        }
        // Every matrix line except those of untouched diagonal interiors…
        // for n=64 every row participates, so all 64*64*8/64 lines appear.
        assert_eq!(naive.len(), (64 * 64 * 8 / 64) as usize);
    }

    #[test]
    fn naive_trace_is_triangular() {
        let cfg = TransposeConfig::new(8);
        let t = TransposeTrace::new(cfg);
        let mut buf = TraceBuffer::new();
        // Last row has no work.
        t.trace_outer(TransposeVariant::Naive, &mut buf, 0, 7, 8);
        assert!(buf.is_empty() || buf.stats().compute_iters == 0);
        buf.clear();
        // First row swaps against the whole first column.
        t.trace_outer(TransposeVariant::Naive, &mut buf, 0, 0, 1);
        assert_eq!(buf.stats().compute_iters, 7);
    }

    #[test]
    fn column_side_is_per_element_row_side_per_line() {
        let n = 64u64; // one row = 512 B = 8 lines
        let cfg = TransposeConfig::new(n as usize);
        let t = TransposeTrace::new(cfg);
        let mut buf = TraceBuffer::new();
        t.trace_outer(TransposeVariant::Naive, &mut buf, 0, 0, 1);
        // Row 0: 63 column loads+stores, 8 row-line loads+stores.
        assert_eq!(buf.stats().loads, 63 + 8);
        assert_eq!(buf.stats().stores, 63 + 8);
    }

    #[test]
    fn manual_blocking_emits_buffer_traffic() {
        let cfg = TransposeConfig::with_block(32, 8);
        let buf = trace_all(TransposeVariant::ManualBlocking, cfg);
        let buffer_probes = buf.iter().filter(|a| a.addr >= BUF_REGION).count();
        assert!(buffer_probes > 0, "staged variant must touch its buffer");
    }

    #[test]
    fn blocking_emits_no_buffer_traffic() {
        let cfg = TransposeConfig::with_block(32, 8);
        let buf = trace_all(TransposeVariant::Blocking, cfg);
        assert!(buf.iter().all(|a| a.addr < BUF_REGION));
    }

    #[test]
    fn distinct_tids_use_distinct_buffers() {
        let cfg = TransposeConfig::with_block(32, 8);
        let t = TransposeTrace::new(cfg);
        let mut b0 = TraceBuffer::new();
        let mut b1 = TraceBuffer::new();
        t.trace_outer(TransposeVariant::ManualBlocking, &mut b0, 0, 0, 1);
        t.trace_outer(TransposeVariant::ManualBlocking, &mut b1, 1, 0, 1);
        let bufs0: std::collections::BTreeSet<u64> = b0
            .iter()
            .filter(|a| a.addr >= BUF_REGION)
            .map(|a| a.addr)
            .collect();
        let bufs1: std::collections::BTreeSet<u64> = b1
            .iter()
            .filter(|a| a.addr >= BUF_REGION)
            .map(|a| a.addr)
            .collect();
        assert!(bufs0.is_disjoint(&bufs1));
    }

    #[test]
    fn ranges_compose_to_the_whole() {
        let cfg = TransposeConfig::with_block(48, 16);
        for v in TransposeVariant::all() {
            let t = TransposeTrace::new(cfg);
            let total = t.outer_iterations(v);
            let mut whole = TraceBuffer::new();
            t.trace_outer(v, &mut whole, 0, 0, total);
            let mut parts = TraceBuffer::new();
            t.trace_outer(v, &mut parts, 0, 0, total / 2);
            t.trace_outer(v, &mut parts, 0, total / 2, total);
            assert_eq!(whole.as_slice(), parts.as_slice(), "{v}");
        }
    }

    #[test]
    fn weights_are_triangular() {
        let cfg = TransposeConfig::new(16);
        let t = TransposeTrace::new(cfg);
        assert!(t.weight(TransposeVariant::Parallel, 0) > t.weight(TransposeVariant::Parallel, 15));
    }

    #[test]
    fn compute_iters_match_swap_count() {
        // Upper triangle of n=16: 120 swaps.
        let cfg = TransposeConfig::new(16);
        for v in [TransposeVariant::Naive, TransposeVariant::Blocking] {
            let buf = trace_all(v, cfg);
            assert_eq!(buf.stats().compute_iters, 120, "{v}");
        }
    }
}
