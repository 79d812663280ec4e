//! Beyond the paper's ladder: a fused separable blur.
//!
//! The paper's footnote observes that even its best variant trails
//! OpenCV "by several orders of magnitude" (naïve) / a wide margin
//! (optimized). One of the techniques production filters use is *pass
//! fusion*: instead of materializing the whole horizontally-filtered
//! image and re-reading it (the `tmp` round-trip of the "Memory"
//! variant), keep a ring buffer of the last `F` filtered rows and emit
//! each output row as soon as its window is complete. DRAM traffic drops
//! from four image transfers (src in, tmp out, tmp in, dst out) to the
//! compulsory two — *if* the ring (`F` rows) fits in cache, which it does
//! on the Xeon and the Raspberry Pi but not in the RISC-V boards' small
//! hierarchies at full image width. The `whatif_fused` bench quantifies
//! exactly that cliff.

use super::native::{horizontal_pass_row, vertical_tap_accumulate};
use super::BlurConfig;
use crate::kernel::{CorePlan, TracedKernel};
use membound_image::Image;
use membound_parallel::{Pool, Schedule, SharedSlice};
use membound_sim::DeviceSpec;
use membound_trace::{IterCost, TraceSink};
use std::time::{Duration, Instant};

/// Run the fused separable blur natively, parallel over output bands.
///
/// Each thread owns a contiguous band of output rows and recomputes the
/// `F - 1` halo rows its ring buffer needs, so bands are independent.
/// Results are bit-identical to the "Memory" variant's interior (the
/// accumulation order per output row is the same).
///
/// # Panics
///
/// Panics if the image shape does not match `cfg`.
///
/// # Example
///
/// ```
/// use membound_core::{blur_fused_native, blur_native, BlurConfig, BlurVariant};
/// use membound_image::generate;
/// use membound_parallel::Pool;
///
/// let cfg = BlurConfig::small(48, 64);
/// let src = generate::test_pattern(48, 64, 3);
/// let pool = Pool::new(2);
/// let (fused, _) = blur_fused_native(&src, &cfg, &pool);
/// let (memory, _) = blur_native(&src, BlurVariant::Memory, &cfg, &pool);
/// assert!(fused.max_abs_diff_interior(&memory, cfg.filter_size) < 1e-5);
/// ```
pub fn blur_fused_native(src: &Image, cfg: &BlurConfig, pool: &Pool) -> (Image, Duration) {
    assert_eq!(
        (src.height(), src.width(), src.channels()),
        (cfg.height, cfg.width, cfg.channels),
        "image/config shape mismatch"
    );
    let start = Instant::now();
    let h = cfg.height;
    let f = cfg.filter_size;
    let middle = f / 2;
    let kernel = cfg.kernel_1d();
    let taps = kernel.taps();
    let row_elems = cfg.width * cfg.channels;
    let out_rows = (h - f) as u64;

    let mut dst = src.same_shape_zeros();
    {
        let shared_dst = SharedSlice::new(dst.as_mut_slice());
        let src_data = src.as_slice();
        pool.parallel_for_chunks(0..out_rows, Schedule::Static, |band| {
            let lo = band.start as usize;
            let hi = band.end as usize;
            // Ring of the last F horizontally-filtered rows; slot r holds
            // input row (lo + k) with (lo + k) % f == r once warmed.
            let mut ring = vec![0.0f32; f * row_elems];
            // Warm the ring with input rows lo .. lo + f - 1.
            for i in lo..lo + f - 1 {
                horizontal_pass_row(
                    &src_data[i * row_elems..(i + 1) * row_elems],
                    &mut ring[(i % f) * row_elems..(i % f + 1) * row_elems],
                    cfg,
                    taps,
                );
            }
            for o in lo..hi {
                // Complete the window with input row o + f - 1.
                let newest = o + f - 1;
                horizontal_pass_row(
                    &src_data[newest * row_elems..(newest + 1) * row_elems],
                    &mut ring[(newest % f) * row_elems..(newest % f + 1) * row_elems],
                    cfg,
                    taps,
                );
                let out = (o + middle) * row_elems;
                // SAFETY: output row o + middle is written only by
                // band-iteration o, and bands are disjoint.
                let dst_row = unsafe { shared_dst.slice_mut(out, row_elems) };
                for (i_f, &tap) in taps.iter().enumerate() {
                    let ring_row = ((o + i_f) % f) * row_elems;
                    vertical_tap_accumulate(&ring[ring_row..ring_row + row_elems], dst_row, tap);
                }
            }
        });
    }
    (dst, start.elapsed())
}

/// Trace generator for the fused blur.
#[derive(Debug, Clone, Copy)]
pub struct FusedBlurTrace {
    cfg: BlurConfig,
    src: u64,
    dst: u64,
    ring_region: u64,
}

impl FusedBlurTrace {
    /// A generator for `cfg` (addresses disjoint from [`super::BlurTrace`]'s
    /// regions).
    #[must_use]
    pub fn new(cfg: BlurConfig) -> Self {
        Self {
            cfg,
            src: 0x3300_0000_0000,
            dst: 0x3400_0000_0000,
            ring_region: 0x3500_0000_0000,
        }
    }

    /// Output rows (the parallel dimension).
    #[must_use]
    pub fn output_rows(&self) -> u64 {
        (self.cfg.height - self.cfg.filter_size) as u64
    }

    fn row_bytes(&self) -> u64 {
        (self.cfg.width * self.cfg.channels * 4) as u64
    }

    /// Emit output rows `lo..hi` as simulated thread `tid`.
    pub fn trace_band<S: TraceSink + ?Sized>(&self, sink: &mut S, tid: u32, lo: u64, hi: u64) {
        let f = self.cfg.filter_size as u64;
        let middle = f / 2;
        let rb = self.row_bytes();
        let ring = self.ring_region + u64::from(tid) * (1 << 28);
        let ring_row = |r: u64| ring + (r % f) * rb;
        let taps_h = (self.cfg.width - self.cfg.filter_size) as u64 * self.cfg.channels as u64 * f;
        let taps_v = self.cfg.width as u64 * self.cfg.channels as u64 * f;
        let cost_h = IterCost::new(3, 2).mem(2, 0).elem_bytes(4);
        let cost_v = IterCost::new(2, 2)
            .mem(2, 1)
            .elem_bytes(4)
            .vectorizable(true);

        // Warm-up rows.
        for i in lo..lo + f - 1 {
            sink.load_range(self.src + i * rb, rb);
            sink.store_range(ring_row(i), rb);
            sink.compute(cost_h, taps_h);
        }
        for o in lo..hi {
            let newest = o + f - 1;
            sink.load_range(self.src + newest * rb, rb);
            sink.store_range(ring_row(newest), rb);
            sink.compute(cost_h, taps_h);
            for i_f in 0..f {
                sink.load_range(ring_row(o + i_f), rb);
                sink.store_range(self.dst + (o + middle) * rb, rb);
            }
            sink.compute(cost_v, taps_v);
        }
    }
}

/// The fused blur as a [`TracedKernel`]: output bands split statically
/// across `threads` simulated cores (clamped to the device's), each with
/// its own ring buffer.
#[derive(Debug, Clone, Copy)]
pub struct FusedBlurKernel {
    /// Trace generator of the workload.
    pub trace: FusedBlurTrace,
    /// Requested simulated threads.
    pub threads: u32,
}

impl FusedBlurKernel {
    /// The fused blur of `cfg` on `threads` simulated cores.
    #[must_use]
    pub fn new(cfg: BlurConfig, threads: u32) -> Self {
        Self {
            trace: FusedBlurTrace::new(cfg),
            threads,
        }
    }
}

impl TracedKernel for FusedBlurKernel {
    type Plan = CorePlan;

    fn footprint_bytes(&self) -> Option<u64> {
        None
    }

    fn threads(&self, spec: &DeviceSpec) -> u32 {
        self.threads.min(spec.cores).max(1)
    }

    fn plan(&self, _spec: &DeviceSpec, threads: u32) -> CorePlan {
        Schedule::Static.plan(self.trace.output_rows(), threads, |_| 1.0)
    }

    fn emit<S: TraceSink + ?Sized>(&self, plan: &CorePlan, tid: u32, sink: &mut S) {
        for r in &plan[tid as usize] {
            self.trace.trace_band(sink, tid, r.start, r.end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blur::{blur_native, BlurVariant};
    use membound_image::generate;
    use membound_trace::TraceBuffer;

    fn cfg() -> BlurConfig {
        BlurConfig {
            height: 50,
            width: 40,
            channels: 3,
            filter_size: 9,
            sigma: Some(2.0),
        }
    }

    #[test]
    fn fused_matches_memory_variant_exactly_in_the_interior() {
        let cfg = cfg();
        let src = generate::noise(cfg.height, cfg.width, cfg.channels, 99);
        let pool = Pool::new(1);
        let (fused, _) = blur_fused_native(&src, &cfg, &pool);
        let (memory, _) = blur_native(&src, BlurVariant::Memory, &cfg, &pool);
        let diff = fused.max_abs_diff_interior(&memory, cfg.filter_size);
        assert!(diff < 1e-6, "diff {diff}");
    }

    #[test]
    fn parallel_bands_match_sequential() {
        let cfg = cfg();
        let src = generate::test_pattern(cfg.height, cfg.width, cfg.channels);
        let (seq, _) = blur_fused_native(&src, &cfg, &Pool::new(1));
        let (par, _) = blur_fused_native(&src, &cfg, &Pool::new(4));
        assert_eq!(seq.max_abs_diff(&par), 0.0);
    }

    #[test]
    fn fused_matches_the_naive_reference() {
        let cfg = cfg();
        let src = generate::noise(cfg.height, cfg.width, cfg.channels, 3);
        let pool = Pool::new(2);
        let (fused, _) = blur_fused_native(&src, &cfg, &pool);
        let (reference, _) = blur_native(&src, BlurVariant::Naive, &cfg, &pool);
        assert!(fused.max_abs_diff_interior(&reference, cfg.filter_size) < 1e-4);
    }

    #[test]
    fn trace_reads_each_source_row_once_per_band() {
        let cfg = cfg();
        let t = FusedBlurTrace::new(cfg);
        let mut buf = TraceBuffer::new();
        t.trace_band(&mut buf, 0, 0, t.output_rows());
        let src_bytes: u64 = buf
            .iter()
            .filter(|a| !a.kind.is_write() && a.addr < 0x3400_0000_0000)
            .map(|a| u64::from(a.size))
            .sum();
        // Rows 0 .. h - 1 read exactly once: (out_rows + f - 1) rows.
        let rows_read = t.output_rows() + cfg.filter_size as u64 - 1;
        assert_eq!(src_bytes, rows_read * t.row_bytes());
    }

    #[test]
    fn trace_dst_traffic_is_f_accumulation_sweeps_per_row() {
        let cfg = cfg();
        let t = FusedBlurTrace::new(cfg);
        let mut buf = TraceBuffer::new();
        t.trace_band(&mut buf, 0, 0, 1);
        let dst_writes: u64 = buf
            .iter()
            .filter(|a| a.kind.is_write() && (0x3400_0000_0000..0x3500_0000_0000).contains(&a.addr))
            .map(|a| u64::from(a.size))
            .sum();
        assert_eq!(dst_writes, cfg.filter_size as u64 * t.row_bytes());
    }

    #[test]
    fn distinct_tids_use_distinct_rings() {
        let cfg = cfg();
        let t = FusedBlurTrace::new(cfg);
        let ring_of = |tid: u32| {
            let mut buf = TraceBuffer::new();
            t.trace_band(&mut buf, tid, 0, 1);
            buf.iter()
                .filter(|a| a.addr >= 0x3500_0000_0000)
                .map(|a| a.addr)
                .min()
                .unwrap()
        };
        assert_ne!(ring_of(0), ring_of(1));
    }
}
