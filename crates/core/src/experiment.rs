//! Experiment harness: run kernel ladders on simulated devices.
//!
//! Convenience entry points over [`simulate`](crate::simulate), the one
//! place a [`TracedKernel`](crate::TracedKernel) is replayed: each builds
//! the kernel for one variant and workload and replays it on a default
//! [`Machine`] for the device. Callers that need another machine
//! configuration (a shared job budget, the per-element reference, the
//! analytic executor forced on or off) build the kernel and the machine
//! themselves and call `simulate` directly.

use crate::blur::{BlurConfig, BlurKernel, BlurVariant};
use crate::gbmv::{traced::GbmvKernel, GbmvConfig, GbmvVariant};
use crate::kernel::simulate;
use crate::stream::{cache_level_elements, dram_level_elements, StreamKernel, StreamOp};
use crate::transpose::{traced::TransposeKernel, TransposeConfig, TransposeVariant};
use membound_parallel::JobBudget;
use membound_sim::{DeviceSpec, Machine, SimReport};
use serde::{Deserialize, Serialize};

/// Simulate one transposition variant on a device, replaying simulated
/// cores serially on the calling thread.
///
/// Returns `None` when the matrix does not fit in device memory — exactly
/// the missing Mango Pi bars in the 16384² panel of Fig. 2.
///
/// # Example
///
/// ```
/// use membound_core::experiment::simulate_transpose;
/// use membound_core::{TransposeConfig, TransposeVariant};
/// use membound_sim::Device;
///
/// let cfg = TransposeConfig::with_block(512, 32);
/// let report = simulate_transpose(
///     &Device::MangoPiMqPro.spec(),
///     TransposeVariant::Blocking,
///     cfg,
/// )
/// .expect("512x512 fits in 1 GB");
/// assert!(report.seconds > 0.0);
/// ```
#[must_use]
pub fn simulate_transpose(
    spec: &DeviceSpec,
    variant: TransposeVariant,
    cfg: TransposeConfig,
) -> Option<SimReport> {
    simulate(
        &Machine::new(spec.clone()),
        &TransposeKernel::new(variant, cfg),
    )
}

/// Simulate one band-matrix `gbmv` variant on a device, replaying
/// simulated cores serially on the calling thread.
///
/// Returns `None` when the band array plus both vectors do not fit in
/// device memory (the Mango Pi's 1 GB cuts off wide-band configurations
/// exactly like the 16384² transpose panel).
#[must_use]
pub fn simulate_gbmv(
    spec: &DeviceSpec,
    variant: GbmvVariant,
    cfg: GbmvConfig,
) -> Option<SimReport> {
    simulate_gbmv_budgeted(spec, variant, cfg, &JobBudget::serial())
}

/// [`simulate_gbmv`] with per-core replay fanned out across host workers
/// leased from `budget` (digest-identical to the serial variant).
#[must_use]
pub fn simulate_gbmv_budgeted(
    spec: &DeviceSpec,
    variant: GbmvVariant,
    cfg: GbmvConfig,
    budget: &JobBudget,
) -> Option<SimReport> {
    simulate(
        &Machine::new(spec.clone()).with_budget(budget.clone()),
        &GbmvKernel::new(variant, cfg),
    )
}

/// Simulate one blur variant on a device, replaying simulated cores
/// serially on the calling thread (see [`BlurKernel`] for the pass
/// structure of each variant).
#[must_use]
pub fn simulate_blur(spec: &DeviceSpec, variant: BlurVariant, cfg: BlurConfig) -> SimReport {
    simulate(&Machine::new(spec.clone()), &BlurKernel::new(variant, cfg))
        .expect("blur images are not checked against device memory")
}

/// One row of the Fig. 1 STREAM survey: a memory level with its four
/// bandwidths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamLevelResult {
    /// Level name ("L1D", "L2", ..., "DRAM").
    pub level: String,
    /// Whether the level is private per core (measured sequentially and
    /// scaled by the core count, as §4.1 prescribes) or shared (measured
    /// with all cores).
    pub private_scaled: bool,
    /// Array elements used per thread.
    pub elements_per_thread: u64,
    /// Bandwidth in GB/s for Copy, Scale, Add, Triad (STREAM order).
    pub gbps: [f64; 4],
}

/// Measure one STREAM op against one memory level of a device.
///
/// `level` is a cache index (0 = L1) or `None` for DRAM. Returns GB/s
/// using STREAM's nominal byte counting (see [`StreamKernel`] for the
/// per-level sizing and core counts).
#[must_use]
pub fn simulate_stream(spec: &DeviceSpec, op: StreamOp, level: Option<usize>) -> f64 {
    StreamKernel::new(op, level).measure(&Machine::new(spec.clone()))
}

/// The full Fig. 1 survey for one device: every cache level plus DRAM,
/// all four STREAM tests.
#[must_use]
pub fn simulate_stream_survey(spec: &DeviceSpec) -> Vec<StreamLevelResult> {
    let gbps = |level| StreamOp::all().map(|op| simulate_stream(spec, op, level));
    let mut out: Vec<StreamLevelResult> = spec
        .caches
        .iter()
        .enumerate()
        .map(|(k, cache)| StreamLevelResult {
            level: cache.name.clone(),
            private_scaled: !cache.shared,
            elements_per_thread: cache_level_elements(
                cache.size_bytes,
                u64::from(StreamOp::Triad.arrays_used()),
            ),
            gbps: gbps(Some(k)),
        })
        .collect();
    out.push(StreamLevelResult {
        level: "DRAM".into(),
        private_scaled: false,
        elements_per_thread: dram_level_elements(spec, 3),
        gbps: gbps(None),
    });
    out
}

/// The device's STREAM DRAM bandwidth (Triad), the denominator of the
/// §3.3 utilization metric.
#[must_use]
pub fn stream_dram_gbps(spec: &DeviceSpec) -> f64 {
    simulate_stream(spec, StreamOp::Triad, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blur::FusedBlurKernel;
    use membound_sim::Device;

    fn small_transpose(device: Device, variant: TransposeVariant) -> SimReport {
        simulate_transpose(
            &device.spec(),
            variant,
            TransposeConfig::with_block(256, 32),
        )
        .expect("small matrix fits everywhere")
    }

    #[test]
    fn transpose_optimizations_help_on_the_mango_pi() {
        let naive = small_transpose(Device::MangoPiMqPro, TransposeVariant::Naive);
        let manual = small_transpose(Device::MangoPiMqPro, TransposeVariant::ManualBlocking);
        assert!(
            manual.seconds < naive.seconds,
            "manual blocking must beat naive: {} vs {}",
            manual.seconds,
            naive.seconds
        );
    }

    #[test]
    fn transpose_16384_does_not_fit_on_mango_pi() {
        let r = simulate_transpose(
            &Device::MangoPiMqPro.spec(),
            TransposeVariant::Naive,
            TransposeConfig::new(16384),
        );
        assert!(r.is_none());
    }

    #[test]
    fn parallel_transpose_uses_all_cores() {
        // The matrix must exceed the shared L2 (1 MB): below that size the
        // capacity-partitioning approximation of shared caches (see
        // DESIGN.md) unfairly penalizes the parallel run.
        let cfg = TransposeConfig::with_block(1024, 32);
        let spec = Device::RaspberryPi4.spec();
        let r = simulate_transpose(&spec, TransposeVariant::Parallel, cfg).unwrap();
        assert_eq!(r.threads, 4);
        let naive = simulate_transpose(&spec, TransposeVariant::Naive, cfg).unwrap();
        assert_eq!(naive.threads, 1);
        assert!(
            r.seconds < naive.seconds / 1.5,
            "parallel {} vs naive {}",
            r.seconds,
            naive.seconds
        );
    }

    #[test]
    fn gbmv_blocking_beats_naive_on_the_mango_pi() {
        let spec = Device::MangoPiMqPro.spec();
        let cfg = GbmvConfig::with_bands(4096, 64, 64, 256);
        let naive = simulate_gbmv(&spec, GbmvVariant::Naive, cfg).unwrap();
        let blocked = simulate_gbmv(&spec, GbmvVariant::Blocked, cfg).unwrap();
        assert!(
            blocked.seconds < naive.seconds,
            "unit-stride panels must beat the anti-diagonal walk: {} vs {}",
            blocked.seconds,
            naive.seconds
        );
    }

    #[test]
    fn gbmv_wide_band_does_not_fit_on_mango_pi() {
        // 2049 diagonals × 65536 columns × 8 B ≈ 1.07 GB of band storage
        // alone — past the Mango Pi's 1 GB, like the 16384² transpose.
        let cfg = GbmvConfig::with_bands(65536, 1024, 1024, 256);
        let r = simulate_gbmv(&Device::MangoPiMqPro.spec(), GbmvVariant::Naive, cfg);
        assert!(r.is_none());
        assert!(
            simulate_gbmv(&Device::RaspberryPi4.spec(), GbmvVariant::Naive, cfg).is_some(),
            "the same workload fits in the Pi 4's 4 GB"
        );
    }

    /// `gbmv` reads the band exactly once, so once the walk is
    /// unit-stride it is pure DRAM streaming: spreading panels over the
    /// Pi 4's four cores must neither help nor hurt — the paper's
    /// memory-bound-scaling point in miniature. The parallel variant
    /// still beats the latency-bound naïve walk.
    #[test]
    fn parallel_gbmv_uses_all_cores_but_stays_dram_bound() {
        let spec = Device::RaspberryPi4.spec();
        let cfg = GbmvConfig::with_bands(8192, 64, 64, 256);
        let parallel = simulate_gbmv(&spec, GbmvVariant::Parallel, cfg).unwrap();
        assert_eq!(parallel.threads, 4);
        let blocked = simulate_gbmv(&spec, GbmvVariant::Blocked, cfg).unwrap();
        assert_eq!(blocked.threads, 1);
        let ratio = parallel.seconds / blocked.seconds;
        assert!(
            (0.8..=1.05).contains(&ratio),
            "DRAM-bound panels should not scale with cores: parallel {} vs blocked {}",
            parallel.seconds,
            blocked.seconds
        );
        let naive = simulate_gbmv(&spec, GbmvVariant::Naive, cfg).unwrap();
        assert!(
            parallel.seconds < naive.seconds,
            "parallel {} vs naive {}",
            parallel.seconds,
            naive.seconds
        );
    }

    #[test]
    fn blur_ladder_improves_on_xeon() {
        let spec = Device::IntelXeon4310T.spec();
        let cfg = BlurConfig::small(96, 120);
        let naive = simulate_blur(&spec, BlurVariant::Naive, cfg);
        let memory = simulate_blur(&spec, BlurVariant::Memory, cfg);
        assert!(
            memory.seconds < naive.seconds / 3.0,
            "memory variant should be much faster: {} vs {}",
            memory.seconds,
            naive.seconds
        );
    }

    #[test]
    fn parallel_blur_runs_two_phases() {
        let spec = Device::RaspberryPi4.spec();
        let cfg = BlurConfig::small(64, 64);
        let r = simulate_blur(&spec, BlurVariant::Parallel, cfg);
        assert!(r.phases.len() >= 2, "pass barrier must split phases");
        assert_eq!(r.threads, 4);
    }

    fn fused_blur(spec: &DeviceSpec, cfg: BlurConfig, threads: u32) -> SimReport {
        simulate(
            &Machine::new(spec.clone()),
            &FusedBlurKernel::new(cfg, threads),
        )
        .expect("blur images are not checked against device memory")
    }

    #[test]
    fn fused_blur_reduces_dram_traffic_where_the_ring_fits() {
        // The image must exceed the caches (so the Memory variant's tmp
        // round-trip really reaches DRAM) while the F-row ring still fits:
        // the Raspberry Pi 4 with a ~4 MB image is exactly that regime.
        let cfg = BlurConfig::small(507, 636);
        let spec = Device::RaspberryPi4.spec();
        let parallel = simulate_blur(&spec, BlurVariant::Parallel, cfg);
        let fused = fused_blur(&spec, cfg, spec.cores);
        assert!(
            (fused.dram.bytes_total() as f64) < parallel.dram.bytes_total() as f64 * 0.8,
            "fusion must cut DRAM traffic: {} vs {}",
            fused.dram.bytes_total(),
            parallel.dram.bytes_total()
        );
        assert!(fused.seconds < parallel.seconds);
    }

    #[test]
    fn fused_blur_clamps_thread_count_to_cores() {
        let spec = Device::StarFiveVisionFive.spec();
        let r = fused_blur(&spec, BlurConfig::small(48, 64), 16);
        assert_eq!(r.threads, 2);
    }

    /// At 64 simulated cores on the SG2044 (contended DRAM, so every
    /// phase replays), host fan-out must engage and stay
    /// digest-invisible at every `--jobs` level.
    #[test]
    fn sg2044_gbmv_is_jobs_invariant_with_host_fanout() {
        let spec = Device::SophonSG2044.spec();
        let cfg = GbmvConfig::with_bands(2048, 32, 32, 32); // 64 panels, one per core
        let serial = simulate_gbmv(&spec, GbmvVariant::Parallel, cfg).unwrap();
        assert_eq!(serial.threads, 64);
        for jobs in [8u32, 64] {
            let fanned =
                simulate_gbmv_budgeted(&spec, GbmvVariant::Parallel, cfg, &JobBudget::new(jobs))
                    .unwrap();
            assert_eq!(
                serial.stats_digest(),
                fanned.stats_digest(),
                "digest diverged at --jobs {jobs}"
            );
            assert!(fanned.host_workers > 1, "spare budget must be used");
        }
    }

    #[test]
    fn stream_dram_bandwidth_is_bounded_by_the_model_peak() {
        for device in Device::all() {
            let spec = device.spec();
            let measured = stream_dram_gbps(&spec);
            let peak = spec.dram_gbps();
            assert!(measured > 0.0, "{device}");
            assert!(
                measured <= peak * 1.05,
                "{device}: measured {measured} exceeds peak {peak}"
            );
            assert!(
                measured >= peak * 0.2,
                "{device}: measured {measured} implausibly low vs peak {peak}"
            );
        }
    }

    #[test]
    fn l1_stream_is_faster_than_dram_stream() {
        for device in [Device::MangoPiMqPro, Device::IntelXeon4310T] {
            let spec = device.spec();
            let l1 = simulate_stream(&spec, StreamOp::Copy, Some(0));
            let dram = simulate_stream(&spec, StreamOp::Copy, None);
            assert!(l1 > dram, "{device}: L1 {l1} should beat DRAM {dram}");
        }
    }

    #[test]
    fn survey_has_one_row_per_level_plus_dram() {
        let spec = Device::StarFiveVisionFive.spec();
        let survey = simulate_stream_survey(&spec);
        assert_eq!(survey.len(), 3); // L1 + L2 + DRAM
        assert_eq!(survey[0].level, "L1D");
        assert_eq!(survey.last().unwrap().level, "DRAM");
        for row in &survey {
            for g in row.gbps {
                assert!(g > 0.0, "{row:?}");
            }
        }
    }
}
