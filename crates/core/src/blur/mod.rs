//! The Gaussian Blur ladder (§4.3 of the paper).
//!
//! Five variants:
//!
//! | Variant | Paper name | What changes |
//! |---|---|---|
//! | [`BlurVariant::Naive`] | "Naive" (Listing 4) | 2-D kernel, channel loop outside the filter loops |
//! | [`BlurVariant::UnitStride`] | "Unit-stride" | channel loop innermost → unit-stride access |
//! | [`BlurVariant::OneDimKernels`] | "1D_kernels" (Eq. 1) | separable kernel, `O(F²) → O(F)` work |
//! | [`BlurVariant::Memory`] | "Memory" (Listing 5) | second pass restructured to whole-row accumulation |
//! | [`BlurVariant::Parallel`] | "Parallel" | the Memory variant with both passes parallelized |
//!
//! Each variant runs natively on [`membound_image::Image`]s and as a trace
//! generator for the device simulator.

mod fused;
mod native;
mod traced;

pub use fused::{blur_fused_native, FusedBlurKernel, FusedBlurTrace};
pub use native::blur_native;
pub use traced::{BlurKernel, BlurTrace};

use membound_image::{Gaussian1D, Gaussian2D};

/// The five §4.3 variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlurVariant {
    /// Listing 4: 2-D kernel, channel loop outside the filter loops.
    Naive,
    /// Channel loop innermost, making the filter sweep unit-stride.
    UnitStride,
    /// Two 1-D kernels (Eq. 1): horizontal then vertical pass.
    OneDimKernels,
    /// Listing 5: the vertical pass accumulates whole rows (unit-stride,
    /// vectorizable).
    Memory,
    /// The Memory variant with both passes parallelized over rows.
    Parallel,
}

impl BlurVariant {
    /// All five variants in the paper's presentation order.
    #[must_use]
    pub fn all() -> [BlurVariant; 5] {
        [
            BlurVariant::Naive,
            BlurVariant::UnitStride,
            BlurVariant::OneDimKernels,
            BlurVariant::Memory,
            BlurVariant::Parallel,
        ]
    }

    /// The paper's bar label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BlurVariant::Naive => "Naive",
            BlurVariant::UnitStride => "Unit-stride",
            BlurVariant::OneDimKernels => "1D_kernels",
            BlurVariant::Memory => "Memory",
            BlurVariant::Parallel => "Parallel",
        }
    }

    /// Whether the variant uses more than one thread when available.
    #[must_use]
    pub fn is_parallel(self) -> bool {
        matches!(self, BlurVariant::Parallel)
    }

    /// Whether the variant uses the separable (two-pass) formulation.
    #[must_use]
    pub fn is_separable(self) -> bool {
        !matches!(self, BlurVariant::Naive | BlurVariant::UnitStride)
    }
}

impl std::fmt::Display for BlurVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Workload parameters for one blur experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlurConfig {
    /// Image height in pixels.
    pub height: usize,
    /// Image width in pixels.
    pub width: usize,
    /// Interleaved channels (the paper uses 3).
    pub channels: usize,
    /// Gaussian kernel size `F` (the paper uses 19).
    pub filter_size: usize,
    /// Gaussian σ; the OpenCV-style default when `None`.
    pub sigma: Option<f64>,
}

impl BlurConfig {
    /// The paper's workload: 2544 × 2027 colour image, F = 19.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            height: membound_image::generate::PAPER_HEIGHT,
            width: membound_image::generate::PAPER_WIDTH,
            channels: 3,
            filter_size: membound_image::generate::PAPER_FILTER_SIZE,
            sigma: None,
        }
    }

    /// A scaled-down workload with the same filter size (for quick runs).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions cannot accommodate the filter.
    #[must_use]
    pub fn small(height: usize, width: usize) -> Self {
        let cfg = Self {
            height,
            width,
            channels: 3,
            filter_size: membound_image::generate::PAPER_FILTER_SIZE,
            sigma: None,
        };
        cfg.validate();
        cfg
    }

    fn validate(&self) {
        assert!(
            self.height > self.filter_size && self.width > self.filter_size,
            "image must be larger than the filter"
        );
        assert!(self.filter_size % 2 == 1, "filter size must be odd");
    }

    /// The σ actually used (explicit or OpenCV default).
    #[must_use]
    pub fn sigma_value(&self) -> f64 {
        match self.sigma {
            Some(s) => s,
            None => 0.3 * ((self.filter_size as f64 - 1.0) * 0.5 - 1.0) + 0.8,
        }
    }

    /// The 1-D kernel for the separable variants.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`BlurConfig::small`]).
    #[must_use]
    pub fn kernel_1d(&self) -> Gaussian1D {
        self.validate();
        Gaussian1D::new(self.filter_size, self.sigma_value())
    }

    /// The 2-D kernel for the naïve variants.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`BlurConfig::small`]).
    #[must_use]
    pub fn kernel_2d(&self) -> Gaussian2D {
        self.validate();
        Gaussian2D::new(self.filter_size, self.sigma_value())
    }

    /// Image footprint in bytes (one image).
    #[must_use]
    pub fn image_bytes(&self) -> u64 {
        (self.height * self.width * self.channels * 4) as u64
    }

    /// Bytes that must move between CPU and DRAM: read the source once,
    /// write the destination once (§3.3 numerator).
    #[must_use]
    pub fn nominal_bytes(&self) -> u64 {
        2 * self.image_bytes()
    }

    /// Number of filter taps the 2-D formulation evaluates
    /// (`(h-F)(w-F) · C · F²`, the paper's complexity expression).
    #[must_use]
    pub fn taps_2d(&self) -> u64 {
        let h = (self.height - self.filter_size) as u64;
        let w = (self.width - self.filter_size) as u64;
        h * w * self.channels as u64 * (self.filter_size * self.filter_size) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_paper() {
        let labels: Vec<&str> = BlurVariant::all().iter().map(|v| v.label()).collect();
        assert_eq!(
            labels,
            vec!["Naive", "Unit-stride", "1D_kernels", "Memory", "Parallel"]
        );
    }

    #[test]
    fn only_parallel_is_parallel() {
        for v in BlurVariant::all() {
            assert_eq!(v.is_parallel(), v == BlurVariant::Parallel, "{v}");
        }
    }

    #[test]
    fn separability_classification() {
        assert!(!BlurVariant::Naive.is_separable());
        assert!(!BlurVariant::UnitStride.is_separable());
        assert!(BlurVariant::OneDimKernels.is_separable());
        assert!(BlurVariant::Memory.is_separable());
        assert!(BlurVariant::Parallel.is_separable());
    }

    #[test]
    fn paper_config_matches_section_4_3() {
        let cfg = BlurConfig::paper();
        assert_eq!((cfg.height, cfg.width), (2027, 2544));
        assert_eq!(cfg.filter_size, 19);
        assert_eq!(cfg.channels, 3);
        assert!((cfg.sigma_value() - 3.2).abs() < 1e-12);
    }

    #[test]
    fn byte_accounting() {
        let cfg = BlurConfig::small(100, 200);
        assert_eq!(cfg.image_bytes(), 100 * 200 * 3 * 4);
        assert_eq!(cfg.nominal_bytes(), 2 * cfg.image_bytes());
        assert_eq!(cfg.taps_2d(), 81 * 181 * 3 * 361);
    }

    #[test]
    fn kernels_have_the_configured_size() {
        let cfg = BlurConfig::small(64, 64);
        assert_eq!(cfg.kernel_1d().len(), 19);
        assert_eq!(cfg.kernel_2d().size(), 19);
    }

    #[test]
    #[should_panic(expected = "larger than the filter")]
    fn too_small_image_rejected() {
        let _ = BlurConfig::small(10, 100);
    }
}
