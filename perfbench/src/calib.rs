//! Machine-speed calibration.
//!
//! On a shared VM the same code runs at very different speeds over tens
//! of seconds: on a 2-vCPU VM the same clip encoded in 70–133 ms within
//! 100 s.
//! A fixed SIMD-throughput kernel (sum of absolute differences over
//! 32 KiB, the shape of the codec's motion search) slowed in step, and the
//! ratio of the two held within a few per cent. So every timed interval is
//! also reported *scaled to reference speed*: multiplied by
//! `REFERENCE_NS / k`, where `k` is the kernel's current time (median of
//! its last samples, taken between ops, outside every timer). A
//! program change moves scaled times exactly as it moves raw ones; a
//! machine slow spell moves only the raw ones. The kernel is this
//! package's own code, so no program change can speed it up.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel time that defines reference speed (the kernel on an idle core
/// of a 2-vCPU shared VM took 1.25–1.9 ms).
pub const REFERENCE_NS: f64 = 1.5e6;

/// Minimum wall time between two samples (bounds the overhead to a few
/// per cent of a run's wall time).
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// Samples whose median is the current kernel time: about 0.25 s of
/// sampling, short enough to follow slow spells that last a few ops.
const WINDOW: usize = 5;

/// Passes of the kernel over its buffers per sample.
const PASSES: usize = 400;

struct Calibration {
    a: Vec<u8>,
    b: Vec<u8>,
    recent: VecDeque<f64>,
    /// `REFERENCE_NS` over the median of `recent`.
    factor: f64,
    factors: Vec<f64>,
    last: Instant,
}

thread_local! {
    static CAL: RefCell<Option<Calibration>> = const { RefCell::new(None) };
}

impl Calibration {
    fn new() -> Self {
        let fill = |n: u32, mul: u32| (0..n).map(|i| (i.wrapping_mul(mul) >> 7) as u8).collect();
        let mut c = Calibration {
            a: fill(32 * 1024, 0x9E37_79B1),
            b: fill(32 * 1024 + 8, 0x85EB_CA77),
            recent: VecDeque::with_capacity(WINDOW),
            factor: 1.0,
            factors: Vec::new(),
            last: Instant::now(),
        };
        for _ in 0..WINDOW {
            c.sample();
        }
        c
    }

    /// Times one run of the kernel and folds it into the window.
    fn sample(&mut self) -> f64 {
        let (a, b) = (black_box(&self.a), black_box(&self.b));
        let start = Instant::now();
        let mut total = 0u64;
        for pass in 0..PASSES {
            let shifted = &b[pass % 8..];
            let sad: u32 = a
                .iter()
                .zip(shifted)
                .map(|(x, y)| u32::from(x.abs_diff(*y)))
                .sum();
            total += u64::from(sad);
        }
        black_box(total);
        let ns = start.elapsed().as_nanos() as f64;
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(ns);
        self.last = Instant::now();
        let window: Vec<f64> = self.recent.iter().copied().collect();
        self.factor = REFERENCE_NS / crate::stats::median(&window);
        self.factors.push(self.factor);
        ns
    }
}

fn with<T>(f: impl FnOnce(&mut Calibration) -> T) -> T {
    CAL.with(|c| f(c.borrow_mut().get_or_insert_with(Calibration::new)))
}

/// Takes a sample if the last one is older than the sampling interval.
/// Call between ops, never inside a timed interval.
pub fn tick() {
    with(|c| {
        if c.last.elapsed() >= SAMPLE_EVERY {
            c.sample();
        }
    });
}

/// Kernel samples on each side of a bracketed interval.
const BRACKET: usize = 3;

/// Runs `f`, which returns its product and its raw nanoseconds of program
/// time, between two bursts of kernel samples. Returns the product and
/// the time scaled by the bursts' own median: a long, one-off interval
/// such as a set-up repetition is scaled by the speed of its own moment.
pub fn bracket<T>(f: impl FnOnce() -> (T, u64)) -> (T, u64) {
    let mut ns: Vec<f64> = with(|c| (0..BRACKET).map(|_| c.sample()).collect());
    let (product, raw) = f();
    ns.extend(with(|c| {
        (0..BRACKET).map(|_| c.sample()).collect::<Vec<_>>()
    }));
    let scaled = raw as f64 * REFERENCE_NS / crate::stats::median(&ns);
    (product, scaled as u64)
}

/// `raw_ns` of program time scaled to reference speed.
pub fn scale(raw_ns: u64) -> u64 {
    with(|c| (raw_ns as f64 * c.factor) as u64)
}

/// Median speed factor (reference / current kernel time) over every
/// sample so far: above 1 on a machine faster than the reference.
pub fn median_factor() -> f64 {
    with(|c| crate::stats::median(&c.factors))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_follows_the_current_factor() {
        let ((), scaled) = bracket(|| ((), 1_000_000));
        assert!(scaled > 0);
        let f = with(|c| c.factor);
        assert!(f.is_finite() && f > 0.0);
        assert_eq!(scale(1_000_000), (1e6 * f) as u64);
        assert!(median_factor() > 0.0);
    }
}
