//! Container bytes are untrusted: a frame count the buffer cannot back must
//! fail with a typed error before anything is sized from it. A tracking
//! global allocator records the largest single request made while parsing.

// A `GlobalAlloc` impl is unsafe by definition; this forwarding allocator is
// the workspace's only exception to the `unsafe_code = "deny"` lint.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use vapp_codec::{EncodedVideo, EntropyMode, StreamHeader};

/// The system allocator, remembering the largest request it has seen.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
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

#[test]
fn huge_frame_count_over_twelve_bytes_fails_without_sizing_from_it() {
    let header = StreamHeader {
        width: 48,
        height: 32,
        fps: 25.0,
        frame_count: 10_000_000,
        entropy: EntropyMode::Cabac,
        slices: 1,
        crf: 24,
        keyint: 48,
        bframes: 2,
        subpel: true,
        deblock: true,
    }
    .to_bytes();
    let mut bytes = (header.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(&header);
    bytes.extend_from_slice(&10_000_000u32.to_be_bytes());
    // Twelve bytes of frame records: room for one record at most.
    bytes.extend_from_slice(&[0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 9]);

    LARGEST.store(0, Ordering::Relaxed);
    let parsed = EncodedVideo::from_bytes(&bytes);
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
