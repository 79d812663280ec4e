//! The band-matrix matrix-vector product ladder (`y = A·x`, BLAS
//! `gbmv`), from the group's band-BLAS follow-up to the paper.
//!
//! The matrix is stored in LAPACK band layout: an `(kl + ku + 1) × n`
//! row-major array `ab` whose row `d` holds diagonal `ku - d`, so dense
//! entry `(i, j)` lives at `ab[ku + i - j][j]`. Three variants:
//!
//! | Variant | What changes |
//! |---|---|
//! | [`GbmvVariant::Naive`] | textbook row loop; the inner `j` loop walks `ab` along an anti-diagonal with stride `(1 - n) × 8` bytes |
//! | [`GbmvVariant::Blocked`] | row panels × diagonals: every `ab` access becomes a unit-stride segment |
//! | [`GbmvVariant::Parallel`] | the blocked traversal with row panels scheduled across cores |
//!
//! Every variant exists natively (really multiplies a [`BandMatrix`] on
//! the host) and as a trace generator for the device simulator
//! ([`traced`]).

mod native;
pub mod traced;

pub use native::{gbmv_native, BandMatrix};

use membound_parallel::Schedule;

/// The three band-matrix ladder variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GbmvVariant {
    /// Textbook row loop: for each row, an anti-diagonal walk of `ab`.
    Naive,
    /// Row panels × diagonals: unit-stride `ab` segments, sequential.
    Blocked,
    /// The blocked traversal with row panels statically scheduled
    /// across cores.
    Parallel,
}

impl GbmvVariant {
    /// All three variants in ladder order.
    #[must_use]
    pub fn all() -> [GbmvVariant; 3] {
        [
            GbmvVariant::Naive,
            GbmvVariant::Blocked,
            GbmvVariant::Parallel,
        ]
    }

    /// The figure's bar label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            GbmvVariant::Naive => "Naive",
            GbmvVariant::Blocked => "Blocked",
            GbmvVariant::Parallel => "Parallel",
        }
    }

    /// Whether the variant uses more than one thread when available.
    #[must_use]
    pub fn is_parallel(self) -> bool {
        matches!(self, GbmvVariant::Parallel)
    }

    /// The OpenMP-style schedule of the variant's outer loop. Band rows
    /// carry near-uniform work (only the first `kl` and last `ku` rows
    /// are clipped), so a static schedule is already balanced.
    #[must_use]
    pub fn schedule(self) -> Schedule {
        Schedule::Static
    }
}

impl std::fmt::Display for GbmvVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Workload parameters for one `gbmv` experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GbmvConfig {
    /// Matrix order (rows of the dense matrix; columns of `ab`).
    pub n: usize,
    /// Sub-diagonals below the main diagonal.
    pub kl: usize,
    /// Super-diagonals above the main diagonal.
    pub ku: usize,
    /// Row-panel height of the blocked variants (elements).
    pub block: usize,
}

impl GbmvConfig {
    /// A configuration with symmetric bandwidth 64 (129 stored
    /// diagonals) and 256-row panels.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::with_bands(n, 64, 64, 256)
    }

    /// A configuration with explicit band widths and panel height.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `block` is zero, or a band width reaches `n`
    /// (the band layout stores clipped diagonals, so `kl, ku < n`).
    #[must_use]
    pub fn with_bands(n: usize, kl: usize, ku: usize, block: usize) -> Self {
        assert!(n > 0, "matrix order must be nonzero");
        assert!(block > 0, "panel height must be nonzero");
        assert!(kl < n && ku < n, "band widths must be below the order");
        Self { n, kl, ku, block }
    }

    /// Stored diagonals (`ab` rows).
    #[must_use]
    pub fn diagonals(&self) -> usize {
        self.kl + self.ku + 1
    }

    /// Bytes of the band array `ab` alone (saturating, so an absurd
    /// order fails the memory check instead of wrapping past it).
    #[must_use]
    pub fn band_bytes(&self) -> u64 {
        (self.diagonals() as u64)
            .saturating_mul(self.n as u64)
            .saturating_mul(8)
    }

    /// Total working-set footprint: `ab` plus the `x` and `y` vectors.
    #[must_use]
    pub fn footprint_bytes(&self) -> u64 {
        self.band_bytes()
            .saturating_add((self.n as u64).saturating_mul(16))
    }

    /// Bytes that must move between CPU and DRAM: `ab` and `x` read
    /// once, `y` read and written once (the §3.3 metric's numerator).
    #[must_use]
    pub fn nominal_bytes(&self) -> u64 {
        self.band_bytes() + 3 * (self.n * 8) as u64
    }

    /// Number of row panels for the blocked variants.
    #[must_use]
    pub fn panels(&self) -> usize {
        self.n.div_ceil(self.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_the_ladder() {
        let labels: Vec<&str> = GbmvVariant::all().iter().map(|v| v.label()).collect();
        assert_eq!(labels, vec!["Naive", "Blocked", "Parallel"]);
    }

    #[test]
    fn only_parallel_is_parallel() {
        assert!(!GbmvVariant::Naive.is_parallel());
        assert!(!GbmvVariant::Blocked.is_parallel());
        assert!(GbmvVariant::Parallel.is_parallel());
    }

    #[test]
    fn schedules_are_static() {
        for v in GbmvVariant::all() {
            assert_eq!(v.schedule(), Schedule::Static);
        }
    }

    #[test]
    fn config_accounting() {
        let cfg = GbmvConfig::with_bands(1024, 16, 32, 128);
        assert_eq!(cfg.diagonals(), 49);
        assert_eq!(cfg.band_bytes(), 49 * 1024 * 8);
        assert_eq!(cfg.footprint_bytes(), (49 + 2) * 1024 * 8);
        assert_eq!(cfg.nominal_bytes(), (49 + 3) * 1024 * 8);
        assert_eq!(cfg.panels(), 8);
        assert_eq!(GbmvConfig::with_bands(100, 4, 4, 32).panels(), 4);
    }

    #[test]
    #[should_panic(expected = "band widths must be below the order")]
    fn oversized_band_rejected() {
        let _ = GbmvConfig::with_bands(8, 8, 0, 4);
    }

    #[test]
    #[should_panic(expected = "panel height must be nonzero")]
    fn zero_block_rejected() {
        let _ = GbmvConfig::with_bands(8, 2, 2, 0);
    }
}
