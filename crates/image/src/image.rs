//! Interleaved-channel `f32` images.

use std::fmt;

/// Errors produced by image construction and I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// The pixel buffer length does not match `height × width × channels`.
    ShapeMismatch {
        /// Expected buffer length.
        expected: usize,
        /// Actual buffer length.
        actual: usize,
    },
    /// A dimension was zero or the channel count unsupported.
    InvalidDimensions,
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::ShapeMismatch { expected, actual } => {
                write!(
                    f,
                    "pixel buffer length {actual} does not match shape (expected {expected})"
                )
            }
            ImageError::InvalidDimensions => {
                write!(f, "image dimensions must be nonzero with 1 or 3 channels")
            }
        }
    }
}

impl std::error::Error for ImageError {}

/// An `height × width × channels` image of `f32` intensities with
/// interleaved channels — the exact memory layout of the paper's Gaussian
/// blur benchmark (`srcData[(i * w + j) * cntChannel + c]`).
///
/// Intensities are nominally in `[0, 1]` but the type does not enforce it
/// (intermediate blur buffers hold partial sums).
///
/// # Example
///
/// ```
/// use membound_image::Image;
///
/// let mut img = Image::zeros(4, 6, 3);
/// img.set(1, 2, 0, 0.5);
/// assert_eq!(img.get(1, 2, 0), 0.5);
/// assert_eq!(img.index_of(1, 2, 0), (1 * 6 + 2) * 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    height: usize,
    width: usize,
    channels: usize,
    data: Vec<f32>,
}

impl Image {
    /// An all-zero image.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `channels` is not 1 or 3.
    #[must_use]
    pub fn zeros(height: usize, width: usize, channels: usize) -> Self {
        assert!(
            height > 0 && width > 0 && (channels == 1 || channels == 3),
            "image dimensions must be nonzero with 1 or 3 channels"
        );
        Self {
            height,
            width,
            channels,
            data: vec![0.0; height * width * channels],
        }
    }

    /// Wrap an existing interleaved pixel buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::InvalidDimensions`] for zero dimensions or an
    /// unsupported channel count, and [`ImageError::ShapeMismatch`] when
    /// the buffer length is not `height × width × channels`.
    pub fn from_vec(
        height: usize,
        width: usize,
        channels: usize,
        data: Vec<f32>,
    ) -> Result<Self, ImageError> {
        if height == 0 || width == 0 || !(channels == 1 || channels == 3) {
            return Err(ImageError::InvalidDimensions);
        }
        let expected = height * width * channels;
        if data.len() != expected {
            return Err(ImageError::ShapeMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Self {
            height,
            width,
            channels,
            data,
        })
    }

    /// Image height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Image width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of interleaved channels (1 or 3).
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Flat buffer index of `(row, col, channel)`.
    #[must_use]
    pub fn index_of(&self, row: usize, col: usize, channel: usize) -> usize {
        (row * self.width + col) * self.channels + channel
    }

    /// Intensity at `(row, col, channel)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize, channel: usize) -> f32 {
        assert!(row < self.height && col < self.width && channel < self.channels);
        self.data[self.index_of(row, col, channel)]
    }

    /// Set the intensity at `(row, col, channel)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    pub fn set(&mut self, row: usize, col: usize, channel: usize, value: f32) {
        assert!(row < self.height && col < self.width && channel < self.channels);
        let idx = self.index_of(row, col, channel);
        self.data[idx] = value;
    }

    /// The interleaved pixel buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The interleaved pixel buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Bytes occupied by the pixel buffer.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }

    /// An image of identical shape, zero-filled (blur scratch buffers).
    #[must_use]
    pub fn same_shape_zeros(&self) -> Self {
        Self::zeros(self.height, self.width, self.channels)
    }

    /// Maximum absolute per-element difference against another image.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Image) -> f32 {
        assert_eq!(
            (self.height, self.width, self.channels),
            (other.height, other.width, other.channels),
            "shape mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Maximum absolute difference over an interior window, ignoring a
    /// border of `margin` pixels — blur variants differ in how they treat
    /// edges, so equivalence checks compare interiors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ or the margin consumes the whole image.
    #[must_use]
    pub fn max_abs_diff_interior(&self, other: &Image, margin: usize) -> f32 {
        assert_eq!(
            (self.height, self.width, self.channels),
            (other.height, other.width, other.channels),
            "shape mismatch"
        );
        assert!(
            2 * margin < self.height && 2 * margin < self.width,
            "margin consumes the whole image"
        );
        let mut max = 0.0_f32;
        for i in margin..self.height - margin {
            for j in margin..self.width - margin {
                for c in 0..self.channels {
                    let d = (self.get(i, j, c) - other.get(i, j, c)).abs();
                    max = max.max(d);
                }
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_correct_shape_and_content() {
        let img = Image::zeros(3, 5, 3);
        assert_eq!(img.height(), 3);
        assert_eq!(img.width(), 5);
        assert_eq!(img.channels(), 3);
        assert_eq!(img.as_slice().len(), 45);
        assert!(img.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn interleaved_layout_matches_the_paper() {
        let img = Image::zeros(10, 20, 3);
        // srcData[(i * w + j) * cntChannel + c]
        assert_eq!(img.index_of(2, 5, 1), (2 * 20 + 5) * 3 + 1);
    }

    #[test]
    fn get_set_round_trip() {
        let mut img = Image::zeros(2, 2, 1);
        img.set(1, 0, 0, 0.25);
        assert_eq!(img.get(1, 0, 0), 0.25);
        assert_eq!(img.get(0, 0, 0), 0.0);
    }

    #[test]
    fn from_vec_validates_shape() {
        assert!(Image::from_vec(2, 2, 1, vec![0.0; 4]).is_ok());
        assert_eq!(
            Image::from_vec(2, 2, 1, vec![0.0; 5]),
            Err(ImageError::ShapeMismatch {
                expected: 4,
                actual: 5
            })
        );
        assert_eq!(
            Image::from_vec(0, 2, 1, vec![]),
            Err(ImageError::InvalidDimensions)
        );
        assert_eq!(
            Image::from_vec(2, 2, 2, vec![0.0; 8]),
            Err(ImageError::InvalidDimensions)
        );
    }

    #[test]
    fn max_abs_diff_detects_differences() {
        let a = Image::zeros(2, 2, 1);
        let mut b = Image::zeros(2, 2, 1);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.set(0, 1, 0, -0.5);
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }

    #[test]
    fn interior_diff_ignores_border() {
        let a = Image::zeros(6, 6, 1);
        let mut b = Image::zeros(6, 6, 1);
        b.set(0, 0, 0, 9.0); // border difference
        assert_eq!(a.max_abs_diff_interior(&b, 1), 0.0);
        b.set(3, 3, 0, 1.0); // interior difference
        assert_eq!(a.max_abs_diff_interior(&b, 1), 1.0);
    }

    #[test]
    fn size_bytes_counts_f32s() {
        let img = Image::zeros(4, 4, 3);
        assert_eq!(img.size_bytes(), 4 * 4 * 3 * 4);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn diff_of_mismatched_shapes_panics() {
        let a = Image::zeros(2, 2, 1);
        let b = Image::zeros(2, 3, 1);
        let _ = a.max_abs_diff(&b);
    }

    #[test]
    fn error_display_is_informative() {
        let e = ImageError::ShapeMismatch {
            expected: 4,
            actual: 5,
        };
        assert!(e.to_string().contains('4'));
        assert!(e.to_string().contains('5'));
    }
}
