//! Per-query tracing: named spans collected into a flat stage
//! breakdown on the recording thread.
//!
//! Evaluation in this workspace is synchronous on the calling thread
//! (the same property the relalg closure counters exploit), so a trace
//! is a thread-local *frame*: [`Trace::begin`] opens one,
//! [`Trace::span`] guards time a stage, and [`Trace::take`] closes the
//! frame and returns `(stage, µs)` pairs. Nested spans attribute
//! *self time* only — a parent's entry excludes time spent under child
//! spans — so the stages of one frame never double-count and their sum
//! is bounded by the frame's wall time.
//!
//! Frames nest too (a server frame around a session frame): spans
//! always record into the innermost open frame, and a span that is
//! open when no frame is active records nowhere. Tracing can be
//! disabled process-wide ([`set_enabled`]) to measure its cost; an
//! inert span costs one relaxed atomic load.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// One collected stage breakdown: `(stage name, self-time µs)` pairs
/// in first-recorded order, same-name spans summed.
pub type Stages = Vec<(&'static str, u64)>;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enable or disable span recording process-wide (default: enabled).
/// Used by the `trace_cost` example and the tests; frames still open
/// and close, they just collect nothing.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span recording is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

thread_local! {
    /// Open frames, innermost last.
    static FRAMES: RefCell<Vec<Stages>> = const { RefCell::new(Vec::new()) };
    /// Child-time accumulators for the open span stack.
    static SPANS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The tracing entry points (all associated functions; the thread
/// holds the state).
pub struct Trace;

impl Trace {
    /// Open a new frame: subsequent spans on this thread record into
    /// it until the matching [`Trace::take`].
    pub fn begin() {
        FRAMES.with(|f| f.borrow_mut().push(Vec::new()));
    }

    /// Close the innermost frame and return its stage breakdown
    /// (empty if no frame was open).
    pub fn take() -> Stages {
        FRAMES.with(|f| f.borrow_mut().pop()).unwrap_or_default()
    }

    /// Time a stage until the returned guard drops. Inert (and nearly
    /// free) when tracing is disabled or no frame is open.
    pub fn span(name: &'static str) -> Span {
        if !enabled() || FRAMES.with(|f| f.borrow().is_empty()) {
            return Span {
                name,
                started: None,
            };
        }
        SPANS.with(|s| s.borrow_mut().push(0));
        Span {
            name,
            started: Some(Instant::now()),
        }
    }
}

/// A live span; records its self time into the innermost frame on
/// drop.
pub struct Span {
    name: &'static str,
    started: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(started) = self.started else {
            return;
        };
        let elapsed = started.elapsed().as_micros() as u64;
        let child = SPANS.with(|s| s.borrow_mut().pop()).unwrap_or(0);
        SPANS.with(|s| {
            if let Some(parent) = s.borrow_mut().last_mut() {
                *parent += elapsed;
            }
        });
        let self_us = elapsed.saturating_sub(child);
        FRAMES.with(|f| {
            if let Some(frame) = f.borrow_mut().last_mut() {
                match frame.iter_mut().find(|(n, _)| *n == self.name) {
                    Some((_, total)) => *total += self_us,
                    None => frame.push((self.name, self_us)),
                }
            }
        });
    }
}

/// Sum of a breakdown's stage times, µs.
pub fn stages_total(stages: &[(&'static str, u64)]) -> u64 {
    stages.iter().map(|(_, us)| *us).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `set_enabled` is process-global; serialize the tests that
    /// depend on its value.
    static ENABLED_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn spin_us(us: u64) {
        let t0 = Instant::now();
        while (t0.elapsed().as_micros() as u64) < us {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_record_self_time_only() {
        let _hold = ENABLED_LOCK.lock().unwrap();
        Trace::begin();
        let wall = Instant::now();
        {
            let _outer = Trace::span("outer");
            spin_us(300);
            {
                let _inner = Trace::span("inner");
                spin_us(300);
            }
            spin_us(300);
        }
        let wall_us = wall.elapsed().as_micros() as u64;
        let stages = Trace::take();
        let sum = stages_total(&stages);
        assert_eq!(stages.len(), 2, "{stages:?}");
        assert!(sum <= wall_us, "self-time sum {sum} exceeds wall {wall_us}");
        let inner = stages.iter().find(|(n, _)| *n == "inner").unwrap().1;
        let outer = stages.iter().find(|(n, _)| *n == "outer").unwrap().1;
        assert!(inner >= 300, "{stages:?}");
        assert!(outer >= 600, "{stages:?}");
    }

    #[test]
    fn same_name_spans_sum_and_frames_nest() {
        let _hold = ENABLED_LOCK.lock().unwrap();
        Trace::begin();
        {
            let _a = Trace::span("a");
            spin_us(100);
        }
        Trace::begin();
        {
            let _b = Trace::span("b");
            spin_us(100);
        }
        let inner = Trace::take();
        assert_eq!(inner.len(), 1);
        assert_eq!(inner[0].0, "b");
        {
            let _a = Trace::span("a");
            spin_us(100);
        }
        let outer = Trace::take();
        assert_eq!(outer.len(), 1, "{outer:?}");
        assert!(outer[0].1 >= 200, "{outer:?}");
    }

    #[test]
    fn spans_without_a_frame_or_when_disabled_are_inert() {
        let _hold = ENABLED_LOCK.lock().unwrap();
        {
            let _orphan = Trace::span("orphan");
            spin_us(50);
        }
        assert!(Trace::take().is_empty());
        set_enabled(false);
        Trace::begin();
        {
            let _muted = Trace::span("muted");
            spin_us(50);
        }
        let stages = Trace::take();
        set_enabled(true);
        assert!(stages.is_empty(), "{stages:?}");
    }
}
