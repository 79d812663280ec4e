//! What a submitted job simulates.
//!
//! A [`JobSpec`] is the wire-side description of one experiment matrix.
//! [`JobSpec::matrix`] builds it through `membound_core::figures`, the
//! same functions the figure binaries call, so the daemon's determinism
//! contract — digest equality with the one-shot binaries — holds by
//! construction: same cells in the same order, same workload configs,
//! same device sweep, hence the same canonical combined digest.

use membound_core::figures;
use membound_core::runner::ExperimentMatrix;
use serde::{Deserialize, Serialize};

/// One job's experiment matrix, as submitted over the wire.
///
/// Externally tagged JSON, e.g.
/// `{"Fig2": {"full": false, "device": "mango"}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobSpec {
    /// The Fig. 2/3 transposition matrix: two sizes × devices × the
    /// five-variant ladder, exactly as `fig2_transpose` builds it.
    Fig2 {
        /// Paper-scale sizes (8192/16384) instead of the scaled-down
        /// defaults (2048/4096).
        full: bool,
        /// Device filter ([`figures::devices`]); `None` sweeps the paper boards.
        device: Option<String>,
    },
    /// The Fig. 6/7 Gaussian-blur matrix: devices × the five-variant
    /// ladder at one image size, exactly as `fig6_blur` builds it.
    Fig6 {
        /// The paper's 2544×2027 image instead of the half-resolution
        /// default.
        full: bool,
        /// Device filter ([`figures::devices`]); `None` sweeps the paper boards.
        device: Option<String>,
    },
    /// The band-matrix `gbmv` ladder: caller-chosen orders, the
    /// three-variant ladder per order × device, mirroring the gbmv half
    /// of `whatif_manycore`'s per-device loop.
    GbmvLadder {
        /// Matrix orders (one panel per order).
        sizes: Vec<usize>,
        /// Device filter ([`figures::devices`]); `None` sweeps the paper boards.
        device: Option<String>,
    },
    /// An ad-hoc transposition ladder: caller-chosen sizes and block,
    /// the full five-variant ladder per size × device. This is what the
    /// crash-safety and daemon tests use — tiny sizes keep a served job
    /// fast under unoptimized test binaries.
    TransposeLadder {
        /// Matrix sizes (one panel per size).
        sizes: Vec<usize>,
        /// Blocking factor for the blocked variants.
        block: usize,
        /// Device filter ([`figures::devices`]); `None` sweeps the paper boards.
        device: Option<String>,
    },
}

impl JobSpec {
    /// Build the experiment matrix this spec describes — cell for cell
    /// the matrix the corresponding figure binary runs, so the served
    /// digest is the one-shot digest.
    ///
    /// # Errors
    ///
    /// A device filter matching nothing (or ambiguously), or a ladder
    /// `figures` rejects (no sizes, a zero size or block, a byte count
    /// that overflows), is a submission error the server reports back
    /// instead of running.
    pub fn matrix(&self) -> Result<ExperimentMatrix, String> {
        Ok(match self {
            JobSpec::Fig2 { full, device } => {
                figures::fig2(*full, &figures::devices(device.as_deref())?)
            }
            JobSpec::Fig6 { full, device } => {
                figures::fig6(*full, &figures::devices(device.as_deref())?)
            }
            JobSpec::GbmvLadder { sizes, device } => figures::gbmv_ladders(
                "gbmv_ladder",
                &figures::gbmv_sizes(sizes)?,
                &figures::devices(device.as_deref())?,
            ),
            JobSpec::TransposeLadder {
                sizes,
                block,
                device,
            } => figures::transpose_ladders(
                "transpose_ladder",
                &figures::transpose_sizes(sizes, *block)?,
                &figures::devices(device.as_deref())?,
            ),
        })
    }

    /// Short human label for the job table (`serve status`).
    #[must_use]
    pub fn label(&self) -> String {
        let full = |full: &bool| if *full { " --full" } else { "" };
        let sizes = |sizes: &[usize]| {
            let sizes: Vec<String> = sizes.iter().map(ToString::to_string).collect();
            sizes.join(",")
        };
        let (name, device) = match self {
            JobSpec::Fig2 { full: f, device } => (format!("fig2_transpose{}", full(f)), device),
            JobSpec::Fig6 { full: f, device } => (format!("fig6_blur{}", full(f)), device),
            JobSpec::GbmvLadder { sizes: s, device } => {
                (format!("gbmv_ladder[{}]", sizes(s)), device)
            }
            JobSpec::TransposeLadder {
                sizes: s, device, ..
            } => (format!("transpose_ladder[{}]", sizes(s)), device),
        };
        match device {
            Some(d) => format!("{name} @{d}"),
            None => name,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_matrix_matches_the_figure_binary_shape() {
        let spec = JobSpec::Fig2 {
            full: false,
            device: None,
        };
        let m = spec.matrix().unwrap();
        assert_eq!(m.figure(), "fig2_transpose");
        // 2 sizes x 4 devices x 5 variants, sizes outermost.
        assert_eq!(m.len(), 2 * 4 * 5);
        assert_eq!(m.cells()[0].panel, "2048");
        assert_eq!(m.cells()[0].variant, "Naive");
        assert_eq!(m.cells().last().unwrap().panel, "4096");
        assert!(m.baselines().is_empty(), "fig2 carries no baselines");
    }

    #[test]
    fn fig2_full_switches_to_paper_sizes() {
        let spec = JobSpec::Fig2 {
            full: true,
            device: Some("xeon".into()),
        };
        let m = spec.matrix().unwrap();
        // 2 sizes x 1 filtered device x 5 variants.
        assert_eq!(m.len(), 10);
        assert_eq!(m.cells()[0].panel, "8192");
        assert_eq!(m.cells().last().unwrap().panel, "16384");
    }

    #[test]
    fn fig6_matrix_matches_the_figure_binary_shape() {
        let spec = JobSpec::Fig6 {
            full: false,
            device: None,
        };
        let m = spec.matrix().unwrap();
        assert_eq!(m.figure(), "fig6_blur");
        assert_eq!(m.len(), 4 * 5);
        assert_eq!(m.cells()[0].panel, "1013x1272");
        assert_eq!(m.cells()[0].kind.kernel(), "blur");
    }

    #[test]
    fn gbmv_ladder_matrix_has_three_variants_per_order() {
        let spec = JobSpec::GbmvLadder {
            sizes: vec![512, 1024],
            device: Some("sg2044".into()),
        };
        let m = spec.matrix().unwrap();
        assert_eq!(m.figure(), "gbmv_ladder");
        // 2 orders x 1 device x 3 variants, orders outermost.
        assert_eq!(m.len(), 6);
        assert_eq!(m.cells()[0].panel, "512");
        assert_eq!(m.cells()[0].variant, "Naive");
        assert_eq!(m.cells()[0].kind.kernel(), "gbmv");
        assert_eq!(m.cells().last().unwrap().variant, "Parallel");
    }

    #[test]
    fn unknown_device_filter_is_a_submission_error() {
        let spec = JobSpec::Fig2 {
            full: false,
            device: Some("cray-1".into()),
        };
        let err = spec.matrix().unwrap_err();
        assert!(err.contains("cray-1"), "{err}");
        assert!(err.contains("Mango Pi"), "{err}");
    }

    /// Degenerate ladders, and sizes that used to panic inside the
    /// daemon (`with_block`'s zero assert) or wrap the byte count past
    /// the memory check, are submission errors.
    #[test]
    fn degenerate_and_overflowing_ladders_are_rejected() {
        let cases = [
            (
                r#"{"TransposeLadder":{"sizes":[],"block":16}}"#,
                "at least one size",
            ),
            (r#"{"TransposeLadder":{"sizes":[128],"block":0}}"#, "block"),
            (
                r#"{"TransposeLadder":{"sizes":[0],"block":32}}"#,
                "positive",
            ),
            (
                r#"{"TransposeLadder":{"sizes":[2147483648],"block":32}}"#,
                "overflow",
            ),
            (r#"{"GbmvLadder":{"sizes":[]}}"#, "at least one order"),
            (r#"{"GbmvLadder":{"sizes":[512,64]}}"#, "bandwidth"),
            (
                r#"{"GbmvLadder":{"sizes":[288230376151711743]}}"#,
                "overflow",
            ),
        ];
        for (json, want) in cases {
            let spec: JobSpec = serde_json::from_str(json).unwrap();
            let err = spec.matrix().unwrap_err();
            assert!(err.contains(want), "{json}: {err}");
        }
    }

    #[test]
    fn specs_round_trip_the_wire_format() {
        let specs = [
            JobSpec::Fig2 {
                full: true,
                device: Some("mango".into()),
            },
            JobSpec::Fig6 {
                full: false,
                device: None,
            },
            JobSpec::TransposeLadder {
                sizes: vec![96, 128],
                block: 16,
                device: Some("mango".into()),
            },
            JobSpec::GbmvLadder {
                sizes: vec![512],
                device: Some("sg2044".into()),
            },
        ];
        for spec in specs {
            let json = serde_json::to_string(&spec).unwrap();
            let back: JobSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "{json}");
        }
    }

    #[test]
    fn labels_are_compact() {
        let spec = JobSpec::TransposeLadder {
            sizes: vec![96, 128],
            block: 16,
            device: Some("mango".into()),
        };
        assert_eq!(spec.label(), "transpose_ladder[96,128] @mango");
        let spec = JobSpec::Fig2 {
            full: true,
            device: None,
        };
        assert_eq!(spec.label(), "fig2_transpose --full");
    }
}
