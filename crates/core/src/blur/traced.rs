//! Trace generators for the blur variants.
//!
//! Probes are emitted at cache-line granularity along each image row (the
//! within-row reuse of the sliding filter window is L1-resident on every
//! modelled device, so only the leading-edge line touches matter for
//! traffic), while the *order* in which rows are interleaved is preserved
//! exactly — that order is what distinguishes the "1D_kernels" vertical
//! pass (F interleaved row streams, too many for any modelled prefetcher)
//! from the "Memory" pass (one sequential stream per tap row).

use super::{BlurConfig, BlurVariant};
use crate::kernel::{CorePlan, TracedKernel};
use membound_parallel::Schedule;
use membound_sim::DeviceSpec;
use membound_trace::{IterCost, TraceSink};

/// Line size assumed by probe coarsening.
const LINE: u64 = 64;

/// Trace generator for one blur workload.
#[derive(Debug, Clone, Copy)]
pub struct BlurTrace {
    cfg: BlurConfig,
    src: u64,
    tmp: u64,
    dst: u64,
}

impl BlurTrace {
    /// A generator for `cfg` with source, scratch and destination images
    /// in well-separated address regions.
    #[must_use]
    pub fn new(cfg: BlurConfig) -> Self {
        Self {
            cfg,
            src: 0x3000_0000_0000,
            tmp: 0x3100_0000_0000,
            dst: 0x3200_0000_0000,
        }
    }

    /// The workload this generator traces.
    #[must_use]
    pub fn config(&self) -> BlurConfig {
        self.cfg
    }

    /// Bytes per image row.
    fn row_bytes(&self) -> u64 {
        (self.cfg.width * self.cfg.channels * 4) as u64
    }

    /// Output rows of the filtered region (`h - F`), the parallel
    /// dimension of the 2-D variants and of the second separable pass.
    #[must_use]
    pub fn output_rows(&self) -> u64 {
        (self.cfg.height - self.cfg.filter_size) as u64
    }

    /// All image rows (`h`), the parallel dimension of the first
    /// separable pass.
    #[must_use]
    pub fn all_rows(&self) -> u64 {
        self.cfg.height as u64
    }

    fn row_addr(&self, base: u64, row: u64) -> u64 {
        base + row * self.row_bytes()
    }

    /// Sweep one row of `base` with line probes, loading or storing.
    fn sweep_row<S: TraceSink + ?Sized>(&self, sink: &mut S, base: u64, row: u64, write: bool) {
        let addr = self.row_addr(base, row);
        if write {
            sink.store_range(addr, self.row_bytes());
        } else {
            sink.load_range(addr, self.row_bytes());
        }
    }

    /// Emit output rows `lo..hi` of a 2-D variant (`Naive` or
    /// `UnitStride`). The two variants touch the same lines in the same
    /// order; they differ in per-tap issue cost (Listing 4 recomputes
    /// `pos_i`/`pos_j` with multiplications in the innermost loop; the
    /// unit-stride version advances pointers incrementally).
    ///
    /// # Panics
    ///
    /// Panics if called with a separable variant.
    pub fn trace_2d<S: TraceSink + ?Sized>(
        &self,
        variant: BlurVariant,
        sink: &mut S,
        lo: u64,
        hi: u64,
    ) {
        let cost = match variant {
            BlurVariant::Naive => IterCost::new(8, 2).mem(2, 0).elem_bytes(4),
            BlurVariant::UnitStride => IterCost::new(3, 2).mem(2, 0).elem_bytes(4),
            other => panic!("trace_2d is for the 2-D variants, got {other}"),
        };
        let f = self.cfg.filter_size as u64;
        let middle = f / 2;
        let row_bytes = self.row_bytes();
        let line_steps = row_bytes.div_ceil(LINE);
        let taps_per_row =
            (self.cfg.width - self.cfg.filter_size) as u64 * self.cfg.channels as u64 * f * f;
        for i in lo..hi {
            for ls in 0..line_steps {
                let off = ls * LINE;
                let len = LINE.min(row_bytes - off);
                // Leading edge of the sliding window: one new line per
                // filter row. Rows are visited at a constant stride of
                // `row_bytes`, and each segment is line-aligned with
                // `len <= LINE`, so the strided batch expands to exactly
                // the one-probe-per-row stream the `load_range` loop
                // emitted.
                sink.access_strided(
                    self.row_addr(self.src, i) + off,
                    row_bytes as i64,
                    f,
                    len as u32,
                    false,
                );
                sink.store_range(self.row_addr(self.dst, i + middle) + off, len);
            }
            sink.compute(cost, taps_per_row);
        }
    }

    /// Emit rows `lo..hi` of the horizontal pass shared by the separable
    /// variants (`tmp[i] = src[i] ⊛ k`, within-row window).
    pub fn trace_pass1<S: TraceSink + ?Sized>(&self, sink: &mut S, lo: u64, hi: u64) {
        let taps_per_row = (self.cfg.width - self.cfg.filter_size) as u64
            * self.cfg.channels as u64
            * self.cfg.filter_size as u64;
        let cost = IterCost::new(3, 2).mem(2, 0).elem_bytes(4);
        for i in lo..hi {
            self.sweep_row(sink, self.src, i, false);
            self.sweep_row(sink, self.tmp, i, true);
            sink.compute(cost, taps_per_row);
        }
    }

    /// Emit output rows `lo..hi` of the vertical pass.
    ///
    /// * `OneDimKernels`: per line-step, the F tap rows are touched in
    ///   column order — F interleaved streams.
    /// * `Memory` / `Parallel` (Listing 5): per tap row, a full
    ///   unit-stride sweep with row accumulation — one stream at a time,
    ///   vectorizable.
    ///
    /// # Panics
    ///
    /// Panics if called with a 2-D variant.
    pub fn trace_pass2<S: TraceSink + ?Sized>(
        &self,
        variant: BlurVariant,
        sink: &mut S,
        lo: u64,
        hi: u64,
    ) {
        let f = self.cfg.filter_size as u64;
        let middle = f / 2;
        let row_bytes = self.row_bytes();
        let line_steps = row_bytes.div_ceil(LINE);
        let taps_per_row = self.cfg.width as u64 * self.cfg.channels as u64 * f;
        match variant {
            BlurVariant::OneDimKernels => {
                let cost = IterCost::new(4, 2).mem(2, 0).elem_bytes(4);
                for i in lo..hi {
                    for ls in 0..line_steps {
                        let off = ls * LINE;
                        let len = LINE.min(row_bytes - off);
                        // F interleaved tap-row streams, one aligned
                        // single-line probe each — emitted as one
                        // constant-stride batch per line step.
                        sink.access_strided(
                            self.row_addr(self.tmp, i) + off,
                            row_bytes as i64,
                            f,
                            len as u32,
                            false,
                        );
                        sink.store_range(self.row_addr(self.dst, i + middle) + off, len);
                    }
                    sink.compute(cost, taps_per_row);
                }
            }
            BlurVariant::Memory | BlurVariant::Parallel => {
                let cost = IterCost::new(2, 2)
                    .mem(2, 1)
                    .elem_bytes(4)
                    .vectorizable(true);
                for i in lo..hi {
                    for i_f in 0..f {
                        self.sweep_row(sink, self.tmp, i + i_f, false);
                        self.sweep_row(sink, self.dst, i + middle, true);
                    }
                    sink.compute(cost, taps_per_row);
                }
            }
            other => panic!("trace_pass2 is for the separable variants, got {other}"),
        }
    }
}

/// One blur variant as a [`TracedKernel`]. Sequential variants run on
/// one simulated core; `Parallel` splits both separable passes
/// statically across all cores with a barrier in between (two OpenMP
/// parallel-for regions).
#[derive(Debug, Clone, Copy)]
pub struct BlurKernel {
    /// Ladder variant.
    pub variant: BlurVariant,
    /// Trace generator of the workload.
    pub trace: BlurTrace,
}

impl BlurKernel {
    /// `variant` on workload `cfg`.
    #[must_use]
    pub fn new(variant: BlurVariant, cfg: BlurConfig) -> Self {
        Self {
            variant,
            trace: BlurTrace::new(cfg),
        }
    }
}

impl TracedKernel for BlurKernel {
    /// Static row splits of the first pass (all rows) and of the second
    /// pass or the 2-D loop (output rows).
    type Plan = [CorePlan; 2];

    fn footprint_bytes(&self) -> Option<u64> {
        None
    }

    fn threads(&self, spec: &DeviceSpec) -> u32 {
        match self.variant {
            BlurVariant::Parallel => spec.cores,
            _ => 1,
        }
    }

    fn plan(&self, _spec: &DeviceSpec, threads: u32) -> [CorePlan; 2] {
        let rows = |total| Schedule::Static.plan(total, threads, |_| 1.0);
        [rows(self.trace.all_rows()), rows(self.trace.output_rows())]
    }

    fn emit<S: TraceSink + ?Sized>(&self, plan: &[CorePlan; 2], tid: u32, sink: &mut S) {
        let [pass1, pass2] = plan;
        let (pass1, pass2) = (&pass1[tid as usize], &pass2[tid as usize]);
        match self.variant {
            BlurVariant::Naive | BlurVariant::UnitStride => {
                for r in pass2 {
                    self.trace.trace_2d(self.variant, sink, r.start, r.end);
                }
            }
            BlurVariant::OneDimKernels | BlurVariant::Memory | BlurVariant::Parallel => {
                for r in pass1 {
                    self.trace.trace_pass1(sink, r.start, r.end);
                }
                if self.variant == BlurVariant::Parallel {
                    sink.barrier();
                }
                for r in pass2 {
                    self.trace.trace_pass2(self.variant, sink, r.start, r.end);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use membound_trace::TraceBuffer;

    fn cfg() -> BlurConfig {
        BlurConfig {
            height: 64,
            width: 80,
            channels: 3,
            filter_size: 9,
            sigma: None,
        }
    }

    #[test]
    fn two_d_variants_touch_identical_lines_in_identical_order() {
        let t = BlurTrace::new(cfg());
        let mut a = TraceBuffer::new();
        let mut b = TraceBuffer::new();
        t.trace_2d(BlurVariant::Naive, &mut a, 0, t.output_rows());
        t.trace_2d(BlurVariant::UnitStride, &mut b, 0, t.output_rows());
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn naive_reads_f_source_rows_per_output_row() {
        let t = BlurTrace::new(cfg());
        let mut buf = TraceBuffer::new();
        t.trace_2d(BlurVariant::Naive, &mut buf, 0, 1);
        let distinct_src_rows: std::collections::BTreeSet<u64> = buf
            .iter()
            .filter(|a| !a.kind.is_write())
            .map(|a| (a.addr - 0x3000_0000_0000) / t.row_bytes())
            .collect();
        assert_eq!(distinct_src_rows.len(), 9, "F tap rows");
    }

    #[test]
    fn pass1_reads_src_writes_tmp() {
        let t = BlurTrace::new(cfg());
        let mut buf = TraceBuffer::new();
        t.trace_pass1(&mut buf, 0, t.all_rows());
        for a in buf.iter() {
            if a.kind.is_write() {
                assert!(a.addr >= 0x3100_0000_0000 && a.addr < 0x3200_0000_0000);
            } else {
                assert!(a.addr < 0x3100_0000_0000);
            }
        }
        // One full row of loads and stores per image row.
        assert_eq!(buf.stats().bytes_loaded, t.all_rows() * t.row_bytes());
        assert_eq!(buf.stats().bytes_stored, t.all_rows() * t.row_bytes());
    }

    #[test]
    fn one_dim_pass2_interleaves_f_streams() {
        let t = BlurTrace::new(cfg());
        let mut buf = TraceBuffer::new();
        t.trace_pass2(BlurVariant::OneDimKernels, &mut buf, 0, 1);
        // The first F probes are loads of F different tmp rows.
        let rows: Vec<u64> = buf
            .iter()
            .take(9)
            .map(|a| (a.addr - 0x3100_0000_0000) / t.row_bytes())
            .collect();
        assert_eq!(rows, (0..9).collect::<Vec<u64>>());
    }

    #[test]
    fn memory_pass2_sweeps_whole_rows_sequentially() {
        let t = BlurTrace::new(cfg());
        let mut buf = TraceBuffer::new();
        t.trace_pass2(BlurVariant::Memory, &mut buf, 0, 1);
        // First row_lines probes all come from tmp row 0 (one sweep).
        let line_steps = t.row_bytes().div_ceil(64) as usize;
        let first_rows: std::collections::BTreeSet<u64> = buf
            .iter()
            .take(line_steps)
            .map(|a| (a.addr - 0x3100_0000_0000) / t.row_bytes())
            .collect();
        assert_eq!(first_rows.len(), 1);
    }

    #[test]
    fn memory_pass2_traffic_includes_accumulation_rereads() {
        let t = BlurTrace::new(cfg());
        let mut buf = TraceBuffer::new();
        t.trace_pass2(BlurVariant::Memory, &mut buf, 0, 1);
        // F sweeps of tmp + F sweeps of dst per output row.
        assert_eq!(buf.stats().bytes_loaded, 9 * t.row_bytes());
        assert_eq!(buf.stats().bytes_stored, 9 * t.row_bytes());
    }

    #[test]
    fn ranges_compose_for_all_emitters() {
        let t = BlurTrace::new(cfg());
        let whole_vs_parts = |f: &dyn Fn(&mut TraceBuffer, u64, u64)| {
            let mut whole = TraceBuffer::new();
            f(&mut whole, 0, 10);
            let mut parts = TraceBuffer::new();
            f(&mut parts, 0, 5);
            f(&mut parts, 5, 10);
            assert_eq!(whole.as_slice(), parts.as_slice());
        };
        whole_vs_parts(&|b, lo, hi| t.trace_2d(BlurVariant::Naive, b, lo, hi));
        whole_vs_parts(&|b, lo, hi| t.trace_pass1(b, lo, hi));
        whole_vs_parts(&|b, lo, hi| t.trace_pass2(BlurVariant::OneDimKernels, b, lo, hi));
        whole_vs_parts(&|b, lo, hi| t.trace_pass2(BlurVariant::Memory, b, lo, hi));
    }

    #[test]
    fn compute_iters_match_tap_counts() {
        let c = cfg();
        let t = BlurTrace::new(c);
        let mut buf = TraceBuffer::new();
        t.trace_2d(BlurVariant::Naive, &mut buf, 0, t.output_rows());
        assert_eq!(buf.stats().compute_iters, c.taps_2d());
    }

    #[test]
    #[should_panic(expected = "trace_2d is for the 2-D variants")]
    fn trace_2d_rejects_separable_variants() {
        let t = BlurTrace::new(cfg());
        let mut buf = TraceBuffer::new();
        t.trace_2d(BlurVariant::Memory, &mut buf, 0, 1);
    }

    #[test]
    #[should_panic(expected = "trace_pass2 is for the separable variants")]
    fn trace_pass2_rejects_2d_variants() {
        let t = BlurTrace::new(cfg());
        let mut buf = TraceBuffer::new();
        t.trace_pass2(BlurVariant::Naive, &mut buf, 0, 1);
    }
}
