//! Synthetic test images.
//!
//! The paper filters one 2544 × 2027 colour photograph. We cannot ship the
//! photograph, so the benchmarks use deterministic synthetic images of the
//! same shape. For a *memory-bound* benchmark the pixel values are
//! irrelevant to performance (the access pattern is data-independent), so
//! any full-size image exercises the same code path; the generators below
//! still produce visually structured content so that correctness tests
//! detect coordinate mix-ups (a transposed or shifted result changes the
//! values, which an all-constant image would mask).

use crate::image::Image;

/// The paper's benchmark image width (§4.3: 2544 × 2027 colour image).
pub const PAPER_WIDTH: usize = 2544;
/// The paper's benchmark image height.
pub const PAPER_HEIGHT: usize = 2027;
/// The paper's Gaussian kernel size (F = 19).
pub const PAPER_FILTER_SIZE: usize = 19;

/// A deterministic colour test pattern: smooth gradients plus per-channel
/// sinusoidal texture, intensities in `[0, 1]`.
///
/// # Example
///
/// ```
/// use membound_image::generate;
///
/// let img = generate::test_pattern(64, 96, 3);
/// assert_eq!((img.height(), img.width(), img.channels()), (64, 96, 3));
/// assert!(img.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
/// ```
///
/// # Panics
///
/// Panics on invalid dimensions (see [`Image::zeros`]).
#[must_use]
pub fn test_pattern(height: usize, width: usize, channels: usize) -> Image {
    let mut img = Image::zeros(height, width, channels);
    for i in 0..height {
        for j in 0..width {
            for c in 0..channels {
                let y = i as f32 / height as f32;
                let x = j as f32 / width as f32;
                let phase = (c as f32 + 1.0) * 2.4;
                let v = 0.35 + 0.3 * y + 0.2 * x + 0.15 * (phase * (x * 12.0 + y * 7.0)).sin();
                img.set(i, j, c, v.clamp(0.0, 1.0));
            }
        }
    }
    img
}

/// Deterministic pseudo-random noise in `[0, 1]` (xorshift-based), for
/// property tests that should not rely on smooth inputs.
///
/// # Panics
///
/// Panics on invalid dimensions (see [`Image::zeros`]).
#[must_use]
pub fn noise(height: usize, width: usize, channels: usize, seed: u64) -> Image {
    let mut img = Image::zeros(height, width, channels);
    // Splitmix-style scrambling keeps distinct seeds distinct (a plain
    // `seed | 1` would collide adjacent even/odd seeds) and avoids the
    // xorshift fixed point at 0.
    let mut state = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(0x2545_f491_4f6c_dd1d)
        | 1;
    for v in img.as_mut_slice() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *v = (state >> 40) as f32 / (1u64 << 24) as f32;
    }
    img
}

/// An impulse image: zero everywhere except a single 1.0 at
/// `(row, col, channel)`. Blurring an impulse recovers the kernel itself —
/// the sharpest possible correctness probe for the blur variants.
///
/// # Panics
///
/// Panics if the coordinate is out of bounds.
#[must_use]
pub fn impulse(
    height: usize,
    width: usize,
    channels: usize,
    row: usize,
    col: usize,
    channel: usize,
) -> Image {
    let mut img = Image::zeros(height, width, channels);
    img.set(row, col, channel, 1.0);
    img
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_pattern_is_deterministic_and_bounded() {
        let a = test_pattern(16, 24, 3);
        let b = test_pattern(16, 24, 3);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn test_pattern_has_structure() {
        let img = test_pattern(32, 32, 1);
        // Not constant: gradient means corners differ.
        assert!((img.get(0, 0, 0) - img.get(31, 31, 0)).abs() > 0.1);
    }

    #[test]
    fn noise_depends_on_seed_only() {
        let a = noise(8, 8, 3, 42);
        let b = noise(8, 8, 3, 42);
        let c = noise(8, 8, 3, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn impulse_has_a_single_nonzero() {
        let img = impulse(5, 5, 3, 2, 3, 1);
        let nonzero = img.as_slice().iter().filter(|&&v| v != 0.0).count();
        assert_eq!(nonzero, 1);
        assert_eq!(img.get(2, 3, 1), 1.0);
    }

    #[test]
    fn paper_constants_match_section_4_3() {
        assert_eq!(PAPER_WIDTH, 2544);
        assert_eq!(PAPER_HEIGHT, 2027);
        assert_eq!(PAPER_FILTER_SIZE, 19);
    }
}
