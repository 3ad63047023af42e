//! Per-frame flight recorder: a bounded ring buffer of structured frame
//! events for post-mortem debugging of streaming campaigns.
//!
//! The recorder is the black box of the streaming service: every frame
//! that reaches a terminal outcome appends one [`FlightEvent`] carrying
//! its admission verdict, retry count, injected-fault summary, cache
//! residency, GEMM backend, cycle totals and host wall latency. The ring
//! is bounded (`ESCA_FLIGHT_CAPACITY`, default 1024) so a long-running
//! stream can never grow it without limit — when full, the oldest event
//! is evicted and counted, never silently lost.
//!
//! Everything stored here is a *value*, never a clock read: wall
//! latencies arrive pre-measured (microseconds) from the audited
//! host-timing sites, keeping this module inside the cycle-domain lint
//! scope (L5) without exemptions.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default ring capacity when `ESCA_FLIGHT_CAPACITY` is unset.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// One structured per-frame event in the flight ring.
///
/// Enum-like facts (outcome, faults) are stored as their stable string
/// labels so the dump is self-describing JSON and the recorder does not
/// depend on the accelerator crates (the dependency direction is
/// core → telemetry).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Frame index within the batch.
    pub frame: u64,
    /// Attempt index the terminal outcome landed on (0 = first try).
    pub attempt: u64,
    /// Pool worker that ran the final attempt (0 for frames that never
    /// ran, e.g. admission drops).
    pub worker: u64,
    /// Terminal outcome label (`ok`, `retried`, `failed`, `dropped`).
    pub outcome: String,
    /// Admission-ladder verdict label (`admitted`, `degraded`,
    /// `shed{T}`, `evicted`, `rejected`, `over_quota`).
    pub admission: String,
    /// Owning tenant id of the frame (0 outside multi-tenant ingest).
    #[serde(default)]
    pub tenant: u64,
    /// Retries spent after the first attempt.
    pub retries: u64,
    /// Injected faults, one `class@attemptN mechanism` label each
    /// (empty outside fault campaigns).
    pub faults: Vec<String>,
    /// Whether a caught corrupt rulebook forced the direct-kernel
    /// fallback.
    pub fell_back: bool,
    /// Whether an undetected fault may have corrupted the output.
    pub silent_corruption: bool,
    /// Whether the frame ran matching-resident: its geometry was already
    /// resident, or admission degraded it to resident-only execution.
    pub matching_resident: bool,
    /// GEMM backend label the session ran with.
    pub backend: String,
    /// Simulated cycles spent across all attempts (0 when the frame
    /// never ran).
    pub cycles: u64,
    /// Host wall latency of the frame job, microseconds (pre-measured
    /// by the audited host-timing sites; 0 when not measured).
    pub wall_micros: u64,
}

/// Serializable dump of the whole ring (`/flight` endpoint and
/// `--flight-out` files).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Configured ring capacity.
    pub capacity: u64,
    /// Events recorded over the recorder's lifetime.
    pub recorded: u64,
    /// Events evicted because the ring was full.
    pub evicted: u64,
    /// The retained events, oldest first.
    pub events: Vec<FlightEvent>,
}

/// A bounded, thread-safe ring of [`FlightEvent`]s.
///
/// `record` takes the lock only to push/pop — the ring never allocates
/// past its capacity, so the streaming hot path pays one short critical
/// section per *frame* (not per cycle).
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    events: Mutex<VecDeque<FlightEvent>>,
    recorded: AtomicU64,
    evicted: AtomicU64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            events: Mutex::new(VecDeque::with_capacity(capacity)),
            recorded: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// A recorder sized by `ESCA_FLIGHT_CAPACITY` (default
    /// [`DEFAULT_FLIGHT_CAPACITY`]; unparseable or zero values fall back
    /// to the default).
    pub fn from_env() -> Self {
        let capacity = std::env::var("ESCA_FLIGHT_CAPACITY")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&c| c > 0)
            .unwrap_or(DEFAULT_FLIGHT_CAPACITY);
        FlightRecorder::new(capacity)
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends one event, evicting the oldest when the ring is full.
    pub fn record(&self, event: FlightEvent) {
        let mut ring = self
            .events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
        drop(ring);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// True when no event has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events recorded over the recorder's lifetime (evictions
    /// included).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events evicted because the ring was full.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Clones the retained events out, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// A serializable dump of the ring state.
    pub fn dump(&self) -> FlightDump {
        FlightDump {
            capacity: self.capacity as u64,
            recorded: self.recorded(),
            evicted: self.evicted(),
            events: self.events(),
        }
    }

    /// The dump as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures from `serde_json` (not expected
    /// for these plain structs).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(&self.dump())
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::from_env()
    }
}

impl FlightEvent {
    /// A minimal event for `frame`: admitted, ok on attempt 0, no
    /// faults. Callers override the fields that apply.
    pub fn for_frame(frame: u64) -> Self {
        FlightEvent {
            frame,
            attempt: 0,
            worker: 0,
            outcome: "ok".to_string(),
            admission: "admitted".to_string(),
            tenant: 0,
            retries: 0,
            faults: Vec::new(),
            fell_back: false,
            silent_corruption: false,
            matching_resident: false,
            backend: String::new(),
            cycles: 0,
            wall_micros: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(frame: u64) -> FlightEvent {
        FlightEvent::for_frame(frame)
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let rec = FlightRecorder::new(3);
        for f in 0..5 {
            rec.record(ev(f));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.recorded(), 5);
        assert_eq!(rec.evicted(), 2);
        let frames: Vec<u64> = rec.events().iter().map(|e| e.frame).collect();
        assert_eq!(frames, vec![2, 3, 4], "oldest events evicted first");
    }

    #[test]
    fn dump_roundtrips_through_json() {
        let rec = FlightRecorder::new(8);
        let mut e = ev(1);
        e.outcome = "retried".to_string();
        e.retries = 2;
        e.faults = vec!["stall@attempt0 stall monitor".to_string()];
        e.wall_micros = 1234;
        rec.record(e);
        let json = rec.to_json().expect("invariant: plain structs serialize");
        let back: FlightDump =
            serde_json::from_str(&json).expect("invariant: roundtrip of own output");
        assert_eq!(back, rec.dump());
        assert_eq!(back.events.len(), 1);
        assert_eq!(back.events[0].retries, 2);
    }

    #[test]
    fn capacity_floor_is_one() {
        let rec = FlightRecorder::new(0);
        assert_eq!(rec.capacity(), 1);
        rec.record(ev(0));
        rec.record(ev(1));
        assert_eq!(rec.len(), 1);
        assert!(!rec.is_empty());
    }
}
