//! Property tests for the kernel ladders: every optimized variant is
//! checked against the obviously-correct reference on randomized shapes,
//! and the traced forms obey conservation laws.

use membound_core::{
    blur_native, transpose_native, BlurConfig, BlurVariant, SquareMatrix, StreamOp, StreamTrace,
    TransposeConfig, TransposeTrace, TransposeVariant,
};
use membound_image::generate;
use membound_parallel::Pool;
use membound_trace::TraceBuffer;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All five transpose variants produce the exact reference transpose
    /// for arbitrary sizes, block sizes and thread counts.
    #[test]
    fn transpose_variants_match_reference(
        n in 1usize..80,
        block in 1usize..40,
        threads in 1u32..5,
        variant_idx in 0usize..5,
    ) {
        let variant = TransposeVariant::all()[variant_idx];
        let orig = SquareMatrix::indexed(n);
        let mut expected = orig.clone();
        expected.transpose_naive();
        let mut m = orig.clone();
        let cfg = TransposeConfig::with_block(n, block);
        transpose_native(&mut m, variant, cfg, &Pool::new(threads));
        prop_assert!(m == expected, "{variant} n={n} block={block} threads={threads}");
    }

    /// Transposing twice with any two variants is the identity.
    #[test]
    fn transpose_is_an_involution(
        n in 2usize..60,
        a_idx in 0usize..5,
        b_idx in 0usize..5,
    ) {
        let (a, b) = (TransposeVariant::all()[a_idx], TransposeVariant::all()[b_idx]);
        let orig = SquareMatrix::indexed(n);
        let mut m = orig.clone();
        let cfg = TransposeConfig::with_block(n, 16);
        let pool = Pool::new(2);
        transpose_native(&mut m, a, cfg, &pool);
        transpose_native(&mut m, b, cfg, &pool);
        prop_assert!(m == orig);
    }

    /// All blur variants agree with the naive 2-D reference on the
    /// interior for random images and filter sizes.
    #[test]
    fn blur_variants_agree_with_reference(
        h_extra in 2usize..30,
        w_extra in 2usize..30,
        half in 1usize..5,
        seed in any::<u64>(),
        variant_idx in 1usize..5,
    ) {
        let f = 2 * half + 1;
        let cfg = BlurConfig {
            height: f + h_extra + f,
            width: f + w_extra + f,
            channels: 3,
            filter_size: f,
            sigma: None,
        };
        let src = generate::noise(cfg.height, cfg.width, cfg.channels, seed);
        let pool = Pool::new(3);
        let (reference, _) = blur_native(&src, BlurVariant::Naive, &cfg, &pool);
        let variant = BlurVariant::all()[variant_idx];
        let (out, _) = blur_native(&src, variant, &cfg, &pool);
        let diff = reference.max_abs_diff_interior(&out, f);
        prop_assert!(diff < 1e-4, "{variant} diverges by {diff}");
    }

    /// Blur output intensities are convex combinations of the input:
    /// min(src) <= blurred <= max(src) wherever the kernel fully applies.
    #[test]
    fn blur_respects_input_range(seed in any::<u64>()) {
        let cfg = BlurConfig {
            height: 24,
            width: 28,
            channels: 1,
            filter_size: 5,
            sigma: Some(1.4),
        };
        let src = generate::noise(cfg.height, cfg.width, 1, seed);
        let (out, _) = blur_native(&src, BlurVariant::Memory, &cfg, &Pool::new(1));
        let (lo, hi) = src
            .as_slice()
            .iter()
            .fold((f32::MAX, f32::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let f = cfg.filter_size;
        for i in f..cfg.height - f {
            for j in f..cfg.width - f {
                let v = out.get(i, j, 0);
                prop_assert!(v >= lo - 1e-5 && v <= hi + 1e-5, "({i},{j}) = {v} outside [{lo},{hi}]");
            }
        }
    }

    /// Traced STREAM byte accounting matches §4.1's 16/24-bytes-per-iter
    /// table for any op and length.
    #[test]
    fn stream_trace_byte_accounting(op_idx in 0usize..4, n in 1u64..2000) {
        let op = StreamOp::all()[op_idx];
        let t = StreamTrace::new(op, n);
        let mut buf = TraceBuffer::new();
        t.trace_pass(&mut buf, 0, n);
        prop_assert_eq!(
            buf.stats().bytes_total(),
            op.nominal_bytes(n),
            "traffic must equal the paper's bytes/iter accounting"
        );
        prop_assert_eq!(buf.stats().compute_iters, n);
    }

    /// Every traced transpose variant touches exactly the same set of
    /// matrix lines (they all transpose the same matrix), regardless of
    /// geometry.
    #[test]
    fn traced_variants_touch_identical_matrix_lines(
        nblk in 1u64..6,
        block in 1u64..24,
    ) {
        let n = (nblk * block) as usize;
        prop_assume!(n > 1);
        let cfg = TransposeConfig::with_block(n, block as usize);
        let t = TransposeTrace::new(cfg);
        let matrix_base = 0x1000_0000_0000u64;
        let matrix_end = matrix_base + cfg.matrix_bytes();
        let lines = |variant: TransposeVariant| {
            let mut buf = TraceBuffer::new();
            t.trace_outer(variant, &mut buf, 0, 0, t.outer_iterations(variant));
            buf.iter()
                .filter(|a| a.addr >= matrix_base && a.addr < matrix_end)
                .map(|a| a.addr / 64)
                .collect::<std::collections::BTreeSet<u64>>()
        };
        let reference = lines(TransposeVariant::Naive);
        for v in TransposeVariant::all() {
            prop_assert_eq!(lines(v), reference.clone(), "{}", v);
        }
    }

    /// Traced transpose compute-iteration totals equal the upper-triangle
    /// element count for the unstaged variants.
    #[test]
    fn traced_swap_counts_are_triangular(n in 2usize..50) {
        let cfg = TransposeConfig::with_block(n, 8);
        let t = TransposeTrace::new(cfg);
        let expected = (n * (n - 1) / 2) as u64;
        for v in [TransposeVariant::Naive, TransposeVariant::Parallel, TransposeVariant::Blocking] {
            let mut buf = TraceBuffer::new();
            t.trace_outer(v, &mut buf, 0, 0, t.outer_iterations(v));
            prop_assert_eq!(buf.stats().compute_iters, expected, "{}", v);
        }
    }

    /// A STREAM pass split on a line boundary emits exactly the probes
    /// of the whole pass.
    #[test]
    fn stream_trace_is_range_splittable_at_line_boundaries(
        op_idx in 0usize..4,
        blocks in 1u64..20,
    ) {
        let op = StreamOp::all()[op_idx];
        let n = blocks * 8;
        let t = StreamTrace::new(op, n);
        let mut whole = TraceBuffer::new();
        t.trace_pass(&mut whole, 0, n);
        let mut parts = TraceBuffer::new();
        let mid = (blocks / 2) * 8;
        t.trace_pass(&mut parts, 0, mid);
        t.trace_pass(&mut parts, mid, n);
        prop_assert_eq!(whole.as_slice(), parts.as_slice());
    }
}
