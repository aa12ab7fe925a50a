//! Frames and frame sequences.

use crate::Plane;

/// A single raw (decoded) video frame.
///
/// Frames are luma-only in this reproduction; the plane holds 8-bit Y
/// samples. All codec and analysis code operates on [`Frame`]s.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Frame {
    plane: Plane,
}

impl Frame {
    /// Creates a black (all-zero) frame.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        Frame {
            plane: Plane::new(width, height),
        }
    }

    /// Creates a frame filled with a constant luma value.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero.
    pub fn filled(width: usize, height: usize, value: u8) -> Self {
        Frame {
            plane: Plane::filled(width, height, value),
        }
    }

    /// Wraps an existing plane as a frame.
    pub fn from_plane(plane: Plane) -> Self {
        Frame { plane }
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.plane.width()
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.plane.height()
    }

    /// The luma plane.
    pub fn plane(&self) -> &Plane {
        &self.plane
    }

    /// Mutable access to the luma plane.
    pub fn plane_mut(&mut self) -> &mut Plane {
        &mut self.plane
    }
}

/// A raw video: an ordered sequence of equally-sized frames plus a frame
/// rate.
///
/// # Example
///
/// ```
/// use vapp_media::{Frame, Video};
///
/// let mut v = Video::new(32, 32, 25.0);
/// v.push(Frame::filled(32, 32, 100));
/// v.push(Frame::filled(32, 32, 101));
/// assert_eq!(v.len(), 2);
/// assert_eq!(v.pixels_per_frame(), 1024);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Video {
    width: usize,
    height: usize,
    fps: f64,
    frames: Vec<Frame>,
}

impl Video {
    /// Creates an empty video with the given frame geometry and frame rate.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or `fps` is not finite and positive.
    pub fn new(width: usize, height: usize, fps: f64) -> Self {
        assert!(width > 0 && height > 0, "video dimensions must be nonzero");
        assert!(fps.is_finite() && fps > 0.0, "fps must be positive");
        Video {
            width,
            height,
            fps,
            frames: Vec::new(),
        }
    }

    /// Builds a video from frames.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty or the frames disagree in size.
    pub fn from_frames(frames: Vec<Frame>, fps: f64) -> Self {
        assert!(!frames.is_empty(), "a video needs at least one frame");
        let width = frames[0].width();
        let height = frames[0].height();
        let mut v = Video::new(width, height, fps);
        for f in frames {
            v.push(f);
        }
        v
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Frames per second.
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the video holds no frames yet.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Pixels per frame (width x height).
    pub fn pixels_per_frame(&self) -> usize {
        self.width * self.height
    }

    /// Total pixel count across all frames.
    pub fn total_pixels(&self) -> usize {
        self.pixels_per_frame() * self.len()
    }

    /// Appends a frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame size disagrees with the video geometry.
    pub fn push(&mut self, frame: Frame) {
        assert_eq!(frame.width(), self.width, "frame width mismatch");
        assert_eq!(frame.height(), self.height, "frame height mismatch");
        self.frames.push(frame);
    }

    /// Returns frame `i`, if present.
    pub fn get(&self, i: usize) -> Option<&Frame> {
        self.frames.get(i)
    }

    /// All frames, in display order.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Iterates over frames in display order.
    pub fn iter(&self) -> std::slice::Iter<'_, Frame> {
        self.frames.iter()
    }
}

impl<'a> IntoIterator for &'a Video {
    type Item = &'a Frame;
    type IntoIter = std::slice::Iter<'a, Frame>;

    fn into_iter(self) -> Self::IntoIter {
        self.frames.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_video() {
        let mut v = Video::new(16, 16, 30.0);
        assert!(v.is_empty());
        v.push(Frame::new(16, 16));
        assert_eq!(v.len(), 1);
        assert_eq!(v.total_pixels(), 256);
        assert!(v.get(0).is_some());
        assert!(v.get(1).is_none());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_frame_rejected() {
        let mut v = Video::new(16, 16, 30.0);
        v.push(Frame::new(32, 16));
    }

    #[test]
    fn from_frames_checks_consistency() {
        let v = Video::from_frames(vec![Frame::new(8, 8); 3], 24.0);
        assert_eq!(v.len(), 3);
        assert_eq!(v.iter().count(), 3);
        assert_eq!((&v).into_iter().count(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn empty_from_frames_rejected() {
        let _ = Video::from_frames(vec![], 24.0);
    }
}
