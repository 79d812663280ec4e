//! The figure matrices, defined once.
//!
//! A figure is a matrix of cells: workloads (panels) outermost, then
//! devices, then one kernel's variant ladder. The figure binaries and
//! the daemon's job specs both build their [`ExperimentMatrix`] through
//! these functions, so a served job runs the same cells in the same order
//! as its one-shot counterpart — the served digest equals the one-shot
//! digest because both call this code.
//!
//! The module also owns the workload-size defaults (paper scale under
//! `--full`, scaled down otherwise), the device-axis rule, and the
//! validation of caller-chosen ladder sizes.

use crate::blur::{BlurConfig, BlurVariant};
use crate::gbmv::{GbmvConfig, GbmvVariant};
use crate::runner::{Cell, ExperimentMatrix};
use crate::stream::StreamOp;
use crate::transpose::{TransposeConfig, TransposeVariant};
use membound_sim::{Device, DeviceSpec};

/// Simulated core counts of the many-core comparison.
const CORE_LADDER: [u32; 4] = [1, 4, 16, 64];

/// The device axis of a figure: `None` sweeps the four paper boards
/// (the canonical figure digests are pinned to that sweep); a filter
/// goes through [`Device::select`] — loose, case- and
/// punctuation-insensitive, with a comma-separated exact-set syntax for
/// intentional multi-select.
///
/// # Errors
///
/// A filter matching no device, or ambiguously matching several, names
/// the filter and the candidates.
pub fn devices(filter: Option<&str>) -> Result<Vec<Device>, String> {
    filter.map_or_else(|| Ok(Device::paper().to_vec()), Device::select)
}

/// The two matrix workloads of Fig. 2/3: the paper's 8192² and 16384²
/// when `full`, otherwise 2048² and 4096² (both far beyond every
/// modelled cache, so the ladder shapes are preserved).
#[must_use]
pub fn paper_transpose(full: bool) -> [TransposeConfig; 2] {
    let sizes = if full { [8192, 16384] } else { [2048, 4096] };
    sizes.map(TransposeConfig::new)
}

/// The image of Fig. 6/7: the paper's 2544×2027 photograph when `full`,
/// otherwise the same aspect at half resolution.
#[must_use]
pub fn paper_blur(full: bool) -> BlurConfig {
    if full {
        BlurConfig::paper()
    } else {
        BlurConfig::small(1013, 1272)
    }
}

/// The band workload of the many-core comparison: order 16384 when
/// `full`, otherwise 4096.
#[must_use]
pub fn manycore_gbmv(full: bool) -> GbmvConfig {
    GbmvConfig::new(if full { 16384 } else { 4096 })
}

/// `factors` × 8 bytes, or `None` when the product overflows `u64`.
fn checked_bytes(factors: &[usize]) -> Option<u64> {
    factors
        .iter()
        .try_fold(8u64, |acc, &f| acc.checked_mul(u64::try_from(f).ok()?))
}

/// Validated workloads of a caller-chosen transposition ladder.
///
/// # Errors
///
/// No sizes, a zero size or block, or a size whose matrix byte count
/// overflows — workloads that would otherwise panic in
/// [`TransposeConfig::with_block`] or wrap past the memory check.
pub fn transpose_sizes(sizes: &[usize], block: usize) -> Result<Vec<TransposeConfig>, String> {
    if sizes.is_empty() {
        return Err("transpose ladder needs at least one size".into());
    }
    if block == 0 {
        return Err("transpose ladder block must be positive".into());
    }
    sizes
        .iter()
        .map(|&n| match checked_bytes(&[n, n]) {
            _ if n == 0 => Err("transpose ladder sizes must be positive".into()),
            None => Err(format!("transpose size {n}: matrix bytes overflow")),
            Some(_) => Ok(TransposeConfig::with_block(n, block)),
        })
        .collect()
}

/// Validated workloads of a caller-chosen `gbmv` ladder
/// ([`GbmvConfig::new`]'s bandwidth 64 at each order).
///
/// # Errors
///
/// No orders, an order not above the bandwidth (the band layout needs
/// `kl, ku < n`), or an order whose byte count overflows.
pub fn gbmv_sizes(sizes: &[usize]) -> Result<Vec<GbmvConfig>, String> {
    if sizes.is_empty() {
        return Err("gbmv ladder needs at least one order".into());
    }
    sizes
        .iter()
        .map(|&n| match checked_bytes(&[n, 2 * 64 + 4]) {
            _ if n <= 64 => Err(format!("gbmv order {n} must exceed the bandwidth (64)")),
            None => Err(format!("gbmv order {n}: band bytes overflow")),
            Some(_) => Ok(GbmvConfig::new(n)),
        })
        .collect()
}

/// One variant ladder per (workload, device), workloads outermost: each
/// workload is a panel, labelled with its name.
fn ladders<W: Copy, V: Copy>(
    figure: &str,
    workloads: impl IntoIterator<Item = (String, W)>,
    devices: &[Device],
    variants: &[V],
    cell: impl Fn(String, &str, &DeviceSpec, V, W) -> Cell,
) -> ExperimentMatrix {
    let mut matrix = ExperimentMatrix::new(figure);
    for (panel, workload) in workloads {
        for device in devices {
            let spec = device.spec();
            for &variant in variants {
                matrix.push(cell(
                    panel.clone(),
                    device.label(),
                    &spec,
                    variant,
                    workload,
                ));
            }
        }
    }
    matrix
}

/// The five-variant transposition ladder per matrix size and device,
/// panels labelled by the size.
#[must_use]
pub fn transpose_ladders(
    figure: &str,
    workloads: &[TransposeConfig],
    devices: &[Device],
) -> ExperimentMatrix {
    let panels = workloads.iter().map(|&cfg| (cfg.n.to_string(), cfg));
    ladders(
        figure,
        panels,
        devices,
        &TransposeVariant::all(),
        Cell::transpose,
    )
}

/// The blur ladder `variants` per device on one image, in a single
/// panel labelled `<height>x<width>`.
#[must_use]
pub fn blur_ladders(
    figure: &str,
    cfg: BlurConfig,
    variants: &[BlurVariant],
    devices: &[Device],
) -> ExperimentMatrix {
    let panel = format!("{}x{}", cfg.height, cfg.width);
    ladders(figure, [(panel, cfg)], devices, variants, Cell::blur)
}

/// The three-variant `gbmv` ladder per order and device, panels
/// labelled by the order.
#[must_use]
pub fn gbmv_ladders(
    figure: &str,
    workloads: &[GbmvConfig],
    devices: &[Device],
) -> ExperimentMatrix {
    let panels = workloads.iter().map(|&cfg| (cfg.n.to_string(), cfg));
    ladders(figure, panels, devices, &GbmvVariant::all(), Cell::gbmv)
}

/// Fig. 2: the transposition ladder at both [`paper_transpose`] sizes.
#[must_use]
pub fn fig2(full: bool, devices: &[Device]) -> ExperimentMatrix {
    transpose_ladders("fig2_transpose", &paper_transpose(full), devices)
}

/// Fig. 6: the five-variant blur ladder on the [`paper_blur`] image.
#[must_use]
pub fn fig6(full: bool, devices: &[Device]) -> ExperimentMatrix {
    blur_ladders("fig6_blur", paper_blur(full), &BlurVariant::all(), devices)
}

/// The many-core comparison: each device re-simulated at every point
/// of the 1/4/16/64 core ladder it can reach, each point one DRAM Triad
/// cell followed by the `gbmv` ladder on `cfg`. The panel is the core
/// count.
#[must_use]
pub fn manycore(cfg: GbmvConfig, devices: &[Device]) -> ExperimentMatrix {
    let mut matrix = ExperimentMatrix::new("whatif_manycore");
    for device in devices {
        let spec = device.spec();
        for cores in CORE_LADDER.into_iter().filter(|&c| c <= spec.cores) {
            let mut scaled = spec.clone();
            scaled.cores = cores;
            scaled.name = format!("{} @{cores}c", spec.name);
            let label = format!("{} @{cores}c", device.label());
            let panel = cores.to_string();
            matrix.push(Cell::stream(
                panel.clone(),
                &label,
                &scaled,
                StreamOp::Triad,
                None,
            ));
            for variant in GbmvVariant::all() {
                matrix.push(Cell::gbmv(panel.clone(), &label, &scaled, variant, cfg));
            }
        }
    }
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sizes_are_scaled_down() {
        assert_eq!(paper_transpose(false).map(|c| c.n), [2048, 4096]);
        assert_eq!(paper_blur(false).width, 1272);
        assert_eq!(manycore_gbmv(false).n, 4096);
    }

    #[test]
    fn full_sizes_match_the_paper() {
        assert_eq!(paper_transpose(true).map(|c| c.n), [8192, 16384]);
        let cfg = paper_blur(true);
        assert_eq!((cfg.height, cfg.width), (2027, 2544));
    }

    #[test]
    fn manycore_clamps_each_device_to_its_core_ladder() {
        let m = manycore(
            manycore_gbmv(false),
            &[Device::MangoPiMqPro, Device::SophonSG2044],
        );
        // Mango Pi: 1 core point; SG2044: 1/4/16/64 — four cells each.
        assert_eq!(m.len(), (1 + 4) * 4);
        assert_eq!(m.cells()[0].kind.kernel(), "stream");
        assert_eq!(m.cells().last().unwrap().spec.cores, 64);
    }
}
