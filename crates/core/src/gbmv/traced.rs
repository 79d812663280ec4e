//! Trace generators for the band-matrix `gbmv` variants.
//!
//! Each variant emits the cache-line-level reference stream its native
//! counterpart performs, through the batched [`TraceSink`] calls so the
//! strided replay pipeline and the analytic executor apply: contiguous
//! spans (`x`, the blocked variants' `ab` segments) go through
//! `load_range`, the naïve variant's anti-diagonal `ab` walk goes
//! through `access_strided` with its constant `(1 - n) × 8`-byte
//! stride, and the `y` accumulations go through `access_strided_rmw`.
//! Instruction issue cost is charged separately via
//! [`membound_trace::IterCost`].

use super::{GbmvConfig, GbmvVariant};
use crate::kernel::{CorePlan, TracedKernel};
use membound_sim::DeviceSpec;
use membound_trace::{IterCost, TraceSink};

/// Base virtual address of the band array `ab`.
const AB_BASE: u64 = 0x3000_0000_0000;
/// Base virtual address of the input vector `x`.
const X_BASE: u64 = 0x3800_0000_0000;
/// Base virtual address of the output vector `y`.
const Y_BASE: u64 = 0x3C00_0000_0000;

/// Trace generator for one `gbmv` workload.
///
/// The harness drives it one *outer iteration range* at a time: rows
/// for [`GbmvVariant::Naive`], row panels for the blocked variants.
/// Iteration ranges map to simulated cores via
/// `membound_parallel::Schedule::plan`.
#[derive(Debug, Clone, Copy)]
pub struct GbmvTrace {
    cfg: GbmvConfig,
}

impl GbmvTrace {
    /// A trace generator for `cfg`, placing `ab`, `x` and `y` in fixed
    /// disjoint address regions.
    #[must_use]
    pub fn new(cfg: GbmvConfig) -> Self {
        Self { cfg }
    }

    /// The workload this generator traces.
    #[must_use]
    pub fn config(&self) -> GbmvConfig {
        self.cfg
    }

    /// Number of outer iterations of `variant`'s outer loop.
    #[must_use]
    pub fn outer_iterations(&self, variant: GbmvVariant) -> u64 {
        match variant {
            GbmvVariant::Naive => self.cfg.n as u64,
            GbmvVariant::Blocked | GbmvVariant::Parallel => self.cfg.panels() as u64,
        }
    }

    /// Relative cost of outer iteration `_i` — uniform: every band row
    /// carries the same work up to the clipped first `kl` and last
    /// `ku` rows.
    #[must_use]
    pub fn weight(&self, _variant: GbmvVariant, _i: u64) -> f64 {
        1.0
    }

    /// Address of `ab[d][j]` (diagonal row `d`, column `j`).
    fn ab_addr(&self, d: u64, j: u64) -> u64 {
        AB_BASE + (d * self.cfg.n as u64 + j) * 8
    }

    /// Emit outer iterations `lo..hi` of `variant` as simulated thread
    /// `_tid` (the kernel has no thread-private staging, so the id does
    /// not select any address region).
    pub fn trace_outer<S: TraceSink + ?Sized>(
        &self,
        variant: GbmvVariant,
        sink: &mut S,
        _tid: u32,
        lo: u64,
        hi: u64,
    ) {
        match variant {
            GbmvVariant::Naive => {
                for i in lo..hi {
                    self.trace_row(sink, i);
                }
            }
            GbmvVariant::Blocked | GbmvVariant::Parallel => {
                for p in lo..hi {
                    self.trace_panel(sink, p);
                }
            }
        }
    }

    /// The textbook row `i`: `y[i] += ab[ku + i - j][j] * x[j]` over the
    /// band columns. Consecutive `j` steps move the `ab` reference one
    /// diagonal row up and one column right — a constant
    /// `(1 - n) × 8`-byte stride, the pattern the blocked variants
    /// exist to fix.
    fn trace_row<S: TraceSink + ?Sized>(&self, sink: &mut S, i: u64) {
        let (n, kl, ku) = (self.cfg.n as u64, self.cfg.kl as u64, self.cfg.ku as u64);
        let jlo = i.saturating_sub(kl);
        let jhi = (i + ku + 1).min(n);
        let len = jhi - jlo;
        let stride = 8 * (1 - n as i64);
        sink.load_range(Y_BASE + i * 8, 8);
        sink.access_strided(self.ab_addr(ku + i - jlo, jlo), stride, len, 8, false);
        sink.load_range(X_BASE + jlo * 8, len * 8);
        sink.store_range(Y_BASE + i * 8, 8);
        // Per band element: one fused multiply-add on two loaded values.
        sink.compute(IterCost::new(2, 2).mem(2, 0).elem_bytes(8), len);
    }

    /// Row panel `p` of the blocked traversal: for each stored diagonal
    /// `d`, the panel's valid rows form one unit-stride run through
    /// `ab` row `d`, a contiguous `x` span and a contiguous `y`
    /// read-modify-write — every reference is now sequential.
    fn trace_panel<S: TraceSink + ?Sized>(&self, sink: &mut S, p: u64) {
        let n = self.cfg.n as u64;
        let blk = self.cfg.block as u64;
        let (r0, r1) = (p * blk, ((p + 1) * blk).min(n));
        for d in 0..self.cfg.diagonals() as u64 {
            // Column of row i on this diagonal: j = i + ku - d.
            let off = self.cfg.ku as i64 - d as i64;
            let i0 = r0.max(u64::try_from(-off).unwrap_or(0));
            let i1 = r1.min(n.saturating_add_signed(-off));
            if i0 >= i1 {
                continue;
            }
            let run = i1 - i0;
            let j0 = i0.wrapping_add_signed(off);
            sink.load_range(self.ab_addr(d, j0), run * 8);
            sink.load_range(X_BASE + j0 * 8, run * 8);
            sink.access_strided_rmw(Y_BASE + i0 * 8, 8, run, 8);
            sink.compute(
                IterCost::new(2, 2)
                    .mem(3, 1)
                    .elem_bytes(8)
                    .vectorizable(true),
                run,
            );
        }
    }
}

/// One `gbmv` variant as a [`TracedKernel`]: the band plus both vectors
/// must fit in device memory, [`GbmvVariant::Parallel`] occupies every
/// core, and outer iterations map to cores through the variant's
/// schedule.
#[derive(Debug, Clone, Copy)]
pub struct GbmvKernel {
    /// Ladder variant.
    pub variant: GbmvVariant,
    /// Trace generator of the workload.
    pub trace: GbmvTrace,
}

impl GbmvKernel {
    /// `variant` on workload `cfg`.
    #[must_use]
    pub fn new(variant: GbmvVariant, cfg: GbmvConfig) -> Self {
        Self {
            variant,
            trace: GbmvTrace::new(cfg),
        }
    }
}

impl TracedKernel for GbmvKernel {
    type Plan = CorePlan;

    fn footprint_bytes(&self) -> Option<u64> {
        Some(self.trace.config().footprint_bytes())
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
    use std::collections::BTreeSet;

    const LINE: u64 = 64;

    fn trace_all(variant: GbmvVariant, cfg: GbmvConfig) -> TraceBuffer {
        let t = GbmvTrace::new(cfg);
        let mut buf = TraceBuffer::new();
        t.trace_outer(variant, &mut buf, 0, 0, t.outer_iterations(variant));
        buf
    }

    fn lines_in(buf: &TraceBuffer, base: u64, end: u64) -> BTreeSet<u64> {
        buf.iter()
            .filter(|a| a.addr >= base && a.addr < end)
            .map(|a| a.addr / LINE)
            .collect()
    }

    /// All variants read the same band, the same `x` span and the same
    /// `y` span: they compute the same product.
    #[test]
    fn all_variants_touch_the_same_lines() {
        let cfg = GbmvConfig::with_bands(96, 7, 11, 32);
        let ab_end = AB_BASE + cfg.band_bytes();
        let vec_bytes = (cfg.n * 8) as u64;
        let naive = trace_all(GbmvVariant::Naive, cfg);
        for v in [GbmvVariant::Blocked, GbmvVariant::Parallel] {
            let buf = trace_all(v, cfg);
            assert_eq!(
                lines_in(&buf, AB_BASE, ab_end),
                lines_in(&naive, AB_BASE, ab_end),
                "{v}: ab coverage"
            );
            assert_eq!(
                lines_in(&buf, X_BASE, X_BASE + vec_bytes),
                lines_in(&naive, X_BASE, X_BASE + vec_bytes),
                "{v}: x coverage"
            );
            assert_eq!(
                lines_in(&buf, Y_BASE, Y_BASE + vec_bytes),
                lines_in(&naive, Y_BASE, Y_BASE + vec_bytes),
                "{v}: y coverage"
            );
        }
    }

    /// The naïve inner loop really is an anti-diagonal: its `ab`
    /// references step by `(1 - n) × 8` bytes within each row.
    #[test]
    fn naive_ab_walk_is_anti_diagonal() {
        let cfg = GbmvConfig::with_bands(16, 2, 3, 8);
        let t = GbmvTrace::new(cfg);
        let mut buf = TraceBuffer::new();
        t.trace_outer(GbmvVariant::Naive, &mut buf, 0, 5, 6);
        let ab: Vec<u64> = buf
            .iter()
            .filter(|a| a.addr >= AB_BASE && a.addr < X_BASE)
            .map(|a| a.addr)
            .collect();
        assert_eq!(ab.len(), cfg.kl + cfg.ku + 1);
        for pair in ab.windows(2) {
            assert_eq!(pair[1].wrapping_sub(pair[0]) as i64, 8 * (1 - cfg.n as i64));
        }
    }

    /// Both traversals perform the same number of multiply-adds: the
    /// band's element count.
    #[test]
    fn compute_iters_cover_the_band_once() {
        let cfg = GbmvConfig::with_bands(100, 5, 9, 32);
        let band_elems: u64 = (0..cfg.n as u64)
            .map(|i| (i + cfg.ku as u64 + 1).min(cfg.n as u64) - i.saturating_sub(cfg.kl as u64))
            .sum();
        for v in GbmvVariant::all() {
            assert_eq!(trace_all(v, cfg).stats().compute_iters, band_elems, "{v}");
        }
    }

    /// Splitting the outer range must not change the emitted stream.
    #[test]
    fn ranges_compose_to_the_whole() {
        let cfg = GbmvConfig::with_bands(48, 3, 5, 16);
        for v in GbmvVariant::all() {
            let t = GbmvTrace::new(cfg);
            let total = t.outer_iterations(v);
            let mut whole = TraceBuffer::new();
            t.trace_outer(v, &mut whole, 0, 0, total);
            let mut parts = TraceBuffer::new();
            t.trace_outer(v, &mut parts, 0, 0, total / 2);
            t.trace_outer(v, &mut parts, 0, total / 2, total);
            assert_eq!(whole.as_slice(), parts.as_slice(), "{v}");
        }
    }

    /// Clipped edge rows shorten, never lengthen: row 0 sees `ku + 1`
    /// elements, an interior row the full `kl + ku + 1`.
    #[test]
    fn edge_rows_are_clipped() {
        let cfg = GbmvConfig::with_bands(64, 4, 2, 16);
        let t = GbmvTrace::new(cfg);
        let row_iters = |i: u64| {
            let mut buf = TraceBuffer::new();
            t.trace_outer(GbmvVariant::Naive, &mut buf, 0, i, i + 1);
            buf.stats().compute_iters
        };
        assert_eq!(row_iters(0), 3);
        assert_eq!(row_iters(32), 7);
        assert_eq!(row_iters(63), 5);
    }
}
