//! The STREAM benchmark (§4.1 of the paper).
//!
//! Four vector operations with the paper's per-iteration traffic/flop
//! accounting:
//!
//! | Test | Operation | bytes/iter | FLOPs/iter |
//! |---|---|---|---|
//! | COPY  | `a[i] = b[i]`            | 16 | 0 |
//! | SCALE | `a[i] = d * b[i]`        | 16 | 1 |
//! | ADD   | `a[i] = b[i] + c[i]`     | 24 | 1 |
//! | TRIAD | `a[i] = b[i] + d * c[i]` | 24 | 2 |
//!
//! Arrays are sized per memory level exactly as §4.1 prescribes: large
//! enough not to be cached in a faster level, small enough not to be
//! forced out of the level being measured. Multi-threaded runs measure
//! shared levels; sequential runs (scaled by core count) measure private
//! ones.

mod native;
mod traced;

pub use native::{run_native, NativeStreamResult};
pub(crate) use traced::{cache_level_elements, dram_level_elements};
pub use traced::{StreamKernel, StreamTrace};

use serde::{Deserialize, Serialize};

/// The four STREAM tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StreamOp {
    /// `a[i] = b[i]`
    Copy,
    /// `a[i] = d * b[i]`
    Scale,
    /// `a[i] = b[i] + c[i]`
    Add,
    /// `a[i] = b[i] + d * c[i]`
    Triad,
}

impl StreamOp {
    /// All four tests in STREAM's canonical order.
    #[must_use]
    pub fn all() -> [StreamOp; 4] {
        [
            StreamOp::Copy,
            StreamOp::Scale,
            StreamOp::Add,
            StreamOp::Triad,
        ]
    }

    /// STREAM's display name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StreamOp::Copy => "Copy",
            StreamOp::Scale => "Scale",
            StreamOp::Add => "Add",
            StreamOp::Triad => "Triad",
        }
    }

    /// Nominal bytes moved per loop iteration (the STREAM convention:
    /// 8 bytes per array touched, write-allocate traffic not counted).
    #[must_use]
    pub fn bytes_per_iter(self) -> u64 {
        match self {
            StreamOp::Copy | StreamOp::Scale => 16,
            StreamOp::Add | StreamOp::Triad => 24,
        }
    }

    /// Floating-point operations per iteration.
    #[must_use]
    pub fn flops_per_iter(self) -> u32 {
        match self {
            StreamOp::Copy => 0,
            StreamOp::Scale | StreamOp::Add => 1,
            StreamOp::Triad => 2,
        }
    }

    /// Number of arrays the test touches (2 or 3).
    #[must_use]
    pub fn arrays_used(self) -> u32 {
        match self {
            StreamOp::Copy | StreamOp::Scale => 2,
            StreamOp::Add | StreamOp::Triad => 3,
        }
    }

    /// Nominal bytes for `n` iterations.
    #[must_use]
    pub fn nominal_bytes(self, n: u64) -> u64 {
        self.bytes_per_iter() * n
    }
}

impl std::fmt::Display for StreamOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_and_flop_accounting_matches_section_4_1() {
        assert_eq!(StreamOp::Copy.bytes_per_iter(), 16);
        assert_eq!(StreamOp::Copy.flops_per_iter(), 0);
        assert_eq!(StreamOp::Scale.bytes_per_iter(), 16);
        assert_eq!(StreamOp::Scale.flops_per_iter(), 1);
        assert_eq!(StreamOp::Add.bytes_per_iter(), 24);
        assert_eq!(StreamOp::Add.flops_per_iter(), 1);
        assert_eq!(StreamOp::Triad.bytes_per_iter(), 24);
        assert_eq!(StreamOp::Triad.flops_per_iter(), 2);
    }

    #[test]
    fn array_counts() {
        assert_eq!(StreamOp::Copy.arrays_used(), 2);
        assert_eq!(StreamOp::Triad.arrays_used(), 3);
    }

    #[test]
    fn nominal_bytes_scales_linearly() {
        assert_eq!(StreamOp::Triad.nominal_bytes(1000), 24_000);
    }

    #[test]
    fn labels() {
        let labels: Vec<&str> = StreamOp::all().iter().map(|o| o.label()).collect();
        assert_eq!(labels, vec!["Copy", "Scale", "Add", "Triad"]);
    }
}
