//! Host-native implementations of the `gbmv` variants.

use super::{GbmvConfig, GbmvVariant};
use membound_parallel::{Pool, SharedSlice};
use std::time::{Duration, Instant};

/// A band matrix in LAPACK band storage: row-major
/// `(kl + ku + 1) × n`, dense entry `(i, j)` at `ab[ku + i - j][j]`
/// for `j - ku <= i <= j + kl` (zero outside the band).
#[derive(Debug, Clone, PartialEq)]
pub struct BandMatrix {
    cfg: GbmvConfig,
    ab: Vec<f64>,
}

impl BandMatrix {
    /// The band matrix whose stored entry `(d, j)` is `d * n + j + 1` —
    /// every element distinct and nonzero, so misplaced accumulations
    /// are detectable.
    #[must_use]
    pub fn indexed(cfg: GbmvConfig) -> Self {
        let ab = (0..cfg.diagonals() * cfg.n)
            .map(|k| (k + 1) as f64)
            .collect();
        Self { cfg, ab }
    }

    /// The workload this matrix was built for.
    #[must_use]
    pub fn config(&self) -> GbmvConfig {
        self.cfg
    }

    /// Dense entry `(i, j)`; zero outside the band.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (n, kl, ku) = (self.cfg.n, self.cfg.kl, self.cfg.ku);
        if i >= n || j >= n || i + ku < j || j + kl < i {
            return 0.0;
        }
        self.ab[(ku + i - j) * n + j]
    }

    /// Stored entry of diagonal row `d`, column `j`.
    fn at(&self, d: usize, j: usize) -> f64 {
        self.ab[d * self.cfg.n + j]
    }
}

/// Compute `y = A·x` with the given variant and thread pool, returning
/// the elapsed wall-clock time. `y` is overwritten.
///
/// The `Naive` and `Blocked` variants ignore the pool and run
/// sequentially.
///
/// # Panics
///
/// Panics if `x` or `y` does not have `cfg.n` elements.
pub fn gbmv_native(
    a: &BandMatrix,
    x: &[f64],
    y: &mut [f64],
    variant: GbmvVariant,
    pool: &Pool,
) -> Duration {
    let cfg = a.config();
    assert_eq!(x.len(), cfg.n, "x length mismatch");
    assert_eq!(y.len(), cfg.n, "y length mismatch");
    let start = Instant::now();
    match variant {
        GbmvVariant::Naive => naive(a, x, y),
        GbmvVariant::Blocked => {
            for p in 0..cfg.panels() {
                let (r0, r1) = panel_rows(cfg, p);
                panel(a, x, &mut y[r0..r1], p);
            }
        }
        GbmvVariant::Parallel => {
            let shared = SharedSlice::new(y);
            pool.parallel_for(0..cfg.panels() as u64, variant.schedule(), |p| {
                let p = p as usize;
                let (r0, r1) = panel_rows(cfg, p);
                // SAFETY: panels partition 0..n, so these sub-slices
                // are disjoint across panel owners.
                let y_panel = unsafe { shared.slice_mut(r0, r1 - r0) };
                panel(a, x, y_panel, p);
            });
        }
    }
    start.elapsed()
}

/// Row range `[r0, r1)` of panel `p`.
fn panel_rows(cfg: GbmvConfig, p: usize) -> (usize, usize) {
    (p * cfg.block, ((p + 1) * cfg.block).min(cfg.n))
}

/// Textbook row loop: anti-diagonal walk of `ab` per row.
fn naive(a: &BandMatrix, x: &[f64], y: &mut [f64]) {
    let cfg = a.config();
    let (n, kl, ku) = (cfg.n, cfg.kl, cfg.ku);
    for (i, yi) in y.iter_mut().enumerate().take(n) {
        let jlo = i.saturating_sub(kl);
        let jhi = (i + ku + 1).min(n);
        let mut acc = 0.0;
        for (j, xj) in x.iter().enumerate().take(jhi).skip(jlo) {
            acc += a.at(ku + i - j, j) * xj;
        }
        *yi = acc;
    }
}

/// One row panel of the blocked traversal: per stored diagonal, a
/// unit-stride sweep over the panel's valid rows. `y_panel` covers
/// exactly the panel's rows (`y[r0..r1]`).
fn panel(a: &BandMatrix, x: &[f64], y_panel: &mut [f64], p: usize) {
    let cfg = a.config();
    let n = cfg.n;
    let (r0, r1) = panel_rows(cfg, p);
    y_panel.fill(0.0);
    for d in 0..cfg.diagonals() {
        let off = cfg.ku as isize - d as isize;
        let i0 = r0.max(usize::try_from(-off).unwrap_or(0));
        let i1 = r1.min(n.saturating_add_signed(-off));
        for i in i0..i1 {
            let j = i.wrapping_add_signed(off);
            y_panel[i - r0] += a.at(d, j) * x[j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense reference product.
    fn dense_mul(a: &BandMatrix, x: &[f64]) -> Vec<f64> {
        let n = a.config().n;
        (0..n)
            .map(|i| (0..n).map(|j| a.get(i, j) * x[j]).sum())
            .collect()
    }

    fn check(variant: GbmvVariant, n: usize, kl: usize, ku: usize, block: usize, threads: u32) {
        let cfg = GbmvConfig::with_bands(n, kl, ku, block);
        let a = BandMatrix::indexed(cfg);
        let x: Vec<f64> = (0..n).map(|k| (k % 17) as f64 - 8.0).collect();
        let expected = dense_mul(&a, &x);
        let mut y = vec![f64::NAN; n];
        gbmv_native(&a, &x, &mut y, variant, &Pool::new(threads));
        for (i, (got, want)) in y.iter().zip(&expected).enumerate() {
            assert!(
                (got - want).abs() <= want.abs() * 1e-12 + 1e-9,
                "{variant} n={n} kl={kl} ku={ku} block={block}: y[{i}] = {got}, want {want}"
            );
        }
    }

    #[test]
    fn all_variants_match_the_dense_product() {
        for variant in GbmvVariant::all() {
            for (n, kl, ku, block) in [(8, 2, 3, 4), (64, 7, 0, 16), (100, 13, 21, 32)] {
                for threads in [1, 4] {
                    check(variant, n, kl, ku, block, threads);
                }
            }
        }
    }

    #[test]
    fn non_divisible_panels_work() {
        check(GbmvVariant::Blocked, 37, 5, 2, 8, 1);
        check(GbmvVariant::Parallel, 65, 9, 9, 64, 3);
        check(GbmvVariant::Parallel, 63, 1, 1, 64, 2); // single partial panel
    }

    #[test]
    fn diagonal_only_matrix_scales() {
        let cfg = GbmvConfig::with_bands(16, 0, 0, 8);
        let a = BandMatrix::indexed(cfg);
        let x = vec![2.0; 16];
        let mut y = vec![0.0; 16];
        gbmv_native(&a, &x, &mut y, GbmvVariant::Naive, &Pool::new(1));
        for (j, v) in y.iter().enumerate() {
            assert_eq!(*v, 2.0 * (j + 1) as f64);
        }
    }

    #[test]
    fn timing_is_reported() {
        let cfg = GbmvConfig::with_bands(256, 8, 8, 64);
        let a = BandMatrix::indexed(cfg);
        let x = vec![1.0; 256];
        let mut y = vec![0.0; 256];
        let d = gbmv_native(&a, &x, &mut y, GbmvVariant::Blocked, &Pool::new(1));
        assert!(d.as_nanos() > 0);
    }

    #[test]
    #[should_panic(expected = "x length mismatch")]
    fn length_mismatch_rejected() {
        let cfg = GbmvConfig::with_bands(8, 1, 1, 4);
        let a = BandMatrix::indexed(cfg);
        let mut y = vec![0.0; 8];
        let _ = gbmv_native(&a, &[1.0; 4], &mut y, GbmvVariant::Naive, &Pool::new(1));
    }
}
