//! The in-place dense matrix-transposition ladder (§4.2 of the paper).
//!
//! Five variants, each building on the previous one:
//!
//! | Variant | Paper listing | What changes |
//! |---|---|---|
//! | [`TransposeVariant::Naive`] | Listing 1 | row/column element swaps, sequential |
//! | [`TransposeVariant::Parallel`] | §4.2 "Parallelization" | outer loop across threads (static) |
//! | [`TransposeVariant::Blocking`] | Listing 2 | block traversal for cache reuse |
//! | [`TransposeVariant::ManualBlocking`] | Listing 3 | blocks staged through a local buffer |
//! | [`TransposeVariant::Dynamic`] | §4.2 "Dynamic scheduling" | manual blocking + `schedule(dynamic)` |
//!
//! Every variant exists natively (really transposes a [`SquareMatrix`] on
//! the host) and as a trace generator for the device simulator
//! ([`traced`]).

mod native;
pub mod traced;

pub use native::transpose_native;

use membound_parallel::Schedule;

/// The five §4.2 variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TransposeVariant {
    /// Listing 1: sequential element swaps over the upper triangle.
    Naive,
    /// The naïve loops with the outer loop statically parallelized.
    Parallel,
    /// Listing 2: block traversal, parallel over block-rows.
    Blocking,
    /// Listing 3: blocks staged through an in-cache buffer.
    ManualBlocking,
    /// Manual blocking with dynamic scheduling of block-rows.
    Dynamic,
}

impl TransposeVariant {
    /// All five variants in the paper's presentation order.
    #[must_use]
    pub fn all() -> [TransposeVariant; 5] {
        [
            TransposeVariant::Naive,
            TransposeVariant::Parallel,
            TransposeVariant::Blocking,
            TransposeVariant::ManualBlocking,
            TransposeVariant::Dynamic,
        ]
    }

    /// The paper's bar label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TransposeVariant::Naive => "Naive",
            TransposeVariant::Parallel => "Parallel",
            TransposeVariant::Blocking => "Blocking",
            TransposeVariant::ManualBlocking => "Manual_blocking",
            TransposeVariant::Dynamic => "Dynamic",
        }
    }

    /// Whether the variant uses more than one thread when available.
    #[must_use]
    pub fn is_parallel(self) -> bool {
        !matches!(self, TransposeVariant::Naive)
    }

    /// The OpenMP-style schedule the variant uses for its parallel loop.
    #[must_use]
    pub fn schedule(self) -> Schedule {
        match self {
            TransposeVariant::Dynamic => Schedule::Dynamic(1),
            _ => Schedule::Static,
        }
    }
}

impl std::fmt::Display for TransposeVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Workload parameters for one transposition experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransposeConfig {
    /// Matrix side length (the paper uses 8192 and 16384).
    pub n: usize,
    /// Block side length for the blocked variants (elements).
    pub block: usize,
}

impl TransposeConfig {
    /// A configuration with the given side length and a 64-element block
    /// (64 × 64 doubles = 32 KiB per block buffer).
    ///
    /// # Panics
    ///
    /// Panics if `n` or `block` is zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::with_block(n, 64)
    }

    /// A configuration with an explicit block size.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `block` is zero.
    #[must_use]
    pub fn with_block(n: usize, block: usize) -> Self {
        assert!(n > 0, "matrix size must be nonzero");
        assert!(block > 0, "block size must be nonzero");
        Self { n, block }
    }

    /// Matrix footprint in bytes (saturating, so an absurd size fails
    /// the memory check instead of wrapping past it).
    #[must_use]
    pub fn matrix_bytes(&self) -> u64 {
        let n = self.n as u64;
        n.saturating_mul(n).saturating_mul(8)
    }

    /// Bytes that must move between CPU and DRAM: every element is read
    /// once and written once (the §3.3 metric's numerator).
    #[must_use]
    pub fn nominal_bytes(&self) -> u64 {
        2 * self.matrix_bytes()
    }

    /// Number of block-rows for the blocked variants.
    #[must_use]
    pub fn block_rows(&self) -> usize {
        self.n.div_ceil(self.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_paper() {
        let labels: Vec<&str> = TransposeVariant::all().iter().map(|v| v.label()).collect();
        assert_eq!(
            labels,
            vec![
                "Naive",
                "Parallel",
                "Blocking",
                "Manual_blocking",
                "Dynamic"
            ]
        );
    }

    #[test]
    fn only_dynamic_uses_dynamic_schedule() {
        for v in TransposeVariant::all() {
            match v {
                TransposeVariant::Dynamic => assert_eq!(v.schedule(), Schedule::Dynamic(1)),
                _ => assert_eq!(v.schedule(), Schedule::Static),
            }
        }
    }

    #[test]
    fn naive_is_the_only_sequential_variant() {
        assert!(!TransposeVariant::Naive.is_parallel());
        assert!(TransposeVariant::Parallel.is_parallel());
        assert!(TransposeVariant::Dynamic.is_parallel());
    }

    #[test]
    fn config_accounting() {
        let cfg = TransposeConfig::new(8192);
        assert_eq!(cfg.matrix_bytes(), 512 * 1024 * 1024);
        assert_eq!(cfg.nominal_bytes(), 1024 * 1024 * 1024);
        assert_eq!(cfg.block_rows(), 128);
        let odd = TransposeConfig::with_block(100, 32);
        assert_eq!(odd.block_rows(), 4);
    }

    #[test]
    #[should_panic(expected = "block size must be nonzero")]
    fn zero_block_rejected() {
        let _ = TransposeConfig::with_block(8, 0);
    }
}
