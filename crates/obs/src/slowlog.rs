//! A bounded ring-buffer slow-query log.
//!
//! Queries whose total latency clears a configurable threshold are
//! captured with enough context to explain *why* they were slow: the
//! query text, the run fingerprint it evaluated over, the per-kernel
//! closure counts, and the per-stage timing breakdown. The ring keeps
//! the most recent `capacity` entries; older ones fall off the front.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Default ring capacity.
pub const DEFAULT_CAPACITY: usize = 128;

/// One captured slow query.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlowQuery {
    /// The query text as received.
    pub query: String,
    /// Fingerprint of the run it evaluated over (hex, as displayed by
    /// `rpq request runs`).
    pub fingerprint: String,
    /// Closure executions by kernel: `[pairs, bits, scc]`.
    pub closures: [u64; 3],
    /// `(stage, µs)` breakdown from the query's trace.
    pub stages: Vec<(String, u64)>,
    /// End-to-end service time, µs.
    pub total_micros: u64,
}

/// The ring buffer. Recording locks a mutex, but only for queries
/// already past the threshold — the fast path is one comparison.
#[derive(Debug)]
pub struct SlowLog {
    threshold_us: u64,
    capacity: usize,
    ring: Mutex<VecDeque<SlowQuery>>,
}

impl SlowLog {
    /// A log capturing queries at or above `threshold_us` microseconds,
    /// keeping the latest `capacity` entries.
    pub fn new(threshold_us: u64, capacity: usize) -> Self {
        SlowLog {
            threshold_us,
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// A log that never captures anything.
    pub fn disabled() -> Self {
        SlowLog::new(u64::MAX, 1)
    }

    /// The capture threshold, µs.
    pub fn threshold_us(&self) -> u64 {
        self.threshold_us
    }

    /// Whether a query of `total_micros` would be captured.
    pub fn qualifies(&self, total_micros: u64) -> bool {
        total_micros >= self.threshold_us
    }

    /// Capture `entry` if it qualifies; returns whether it was kept.
    /// The entry is built by the caller only after [`Self::qualifies`]
    /// says yes, so non-slow queries pay nothing.
    pub fn record(&self, entry: SlowQuery) -> bool {
        if !self.qualifies(entry.total_micros) {
            return false;
        }
        let mut ring = self.ring.lock().expect("slow log poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(entry);
        true
    }

    /// The captured entries, oldest first.
    pub fn entries(&self) -> Vec<SlowQuery> {
        self.ring
            .lock()
            .expect("slow log poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("slow log poisoned").len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(i: u64) -> SlowQuery {
        SlowQuery {
            query: format!("q{i}"),
            fingerprint: format!("{i:016x}"),
            closures: [i, 0, 0],
            stages: vec![("eval".to_owned(), i)],
            total_micros: 1_000 + i,
        }
    }

    #[test]
    fn ring_wraps_keeping_the_newest_entries() {
        let log = SlowLog::new(1_000, 4);
        for i in 0..10 {
            assert!(log.record(entry(i)));
        }
        let entries = log.entries();
        assert_eq!(entries.len(), 4);
        let queries: Vec<&str> = entries.iter().map(|e| e.query.as_str()).collect();
        assert_eq!(queries, ["q6", "q7", "q8", "q9"]);
    }

    #[test]
    fn threshold_filters_and_disabled_never_captures() {
        let log = SlowLog::new(1_005, 8);
        for i in 0..10 {
            log.record(entry(i));
        }
        assert_eq!(log.len(), 5, "only totals ≥ 1005 µs qualify");
        let off = SlowLog::disabled();
        assert!(!off.qualifies(u64::MAX - 1));
        assert!(off.is_empty());
    }
}
