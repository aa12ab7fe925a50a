//! Container bytes are untrusted: a frame count the buffer cannot back must
//! fail with a typed error before anything is sized from it. A tracking
//! global allocator records the largest single request the measuring
//! thread makes while parsing; other test threads are not counted.
//! Header values the decoder cannot build a video from (no frames, a zero
//! frame rate) fail with typed errors too, instead of panicking in
//! `decode`.

// A `GlobalAlloc` impl is unsafe by definition; this forwarding allocator is
// the workspace's only exception to the `unsafe_code = "deny"` lint.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use vapp_codec::syntax::ParseHeaderError;
use vapp_codec::{
    EncodedFrame, EncodedVideo, EntropyMode, FrameHeader, FrameType, ParseContainerError,
    StreamHeader,
};

/// The system allocator, remembering the largest request made by a
/// thread that has set `MEASURING`.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // `const`-initialised and drop-free, so reading it from inside the
    // allocator never allocates or registers a destructor.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if MEASURING.try_with(Cell::get).unwrap_or(false) {
            LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: forwards the caller's layout contract unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// A 48x32 CABAC stream header declaring `frame_count` frames at `fps`.
fn stream_header(frame_count: u32, fps: f64) -> StreamHeader {
    StreamHeader {
        width: 48,
        height: 32,
        fps,
        frame_count,
        entropy: EntropyMode::Cabac,
        slices: 1,
        crf: 24,
        keyint: 48,
        bframes: 2,
    }
}

#[test]
fn huge_frame_count_over_twelve_bytes_fails_without_sizing_from_it() {
    let header = stream_header(10_000_000, 25.0).to_bytes();
    let mut bytes = (header.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(&header);
    bytes.extend_from_slice(&10_000_000u32.to_be_bytes());
    // Twelve bytes of frame records: room for one record at most.
    bytes.extend_from_slice(&[0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 9]);

    LARGEST.store(0, Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    let parsed = EncodedVideo::from_bytes(&bytes);
    MEASURING.with(|m| m.set(false));
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        parsed.is_err(),
        "a 12-byte record area cannot hold 10M frames"
    );
    assert!(
        largest < 4096,
        "parsing made a {largest}-byte allocation from the untrusted count"
    );
}

#[test]
fn zero_frames_or_zero_fps_fail_with_typed_errors() {
    let record = EncodedFrame {
        header: FrameHeader {
            coding_index: 0,
            display_index: 0,
            frame_type: FrameType::I,
            qp: 22,
            ref_fwd: None,
            ref_bwd: None,
            slice_lens: vec![2],
        },
        payload: vec![0xA5, 0x5A],
    };
    for (header, frames, field) in [
        (stream_header(0, 25.0), vec![], "frame_count"),
        (stream_header(1, 0.0), vec![record], "fps"),
    ] {
        let bytes = EncodedVideo { header, frames }.to_bytes();
        assert_eq!(
            EncodedVideo::from_bytes(&bytes),
            Err(ParseContainerError::Header(ParseHeaderError::InvalidField(
                field
            ))),
            "{field}"
        );
    }
}
