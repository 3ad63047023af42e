//! Offline-safe HTTP exposition server for live observability.
//!
//! Everything here is `std::net` only — no external dependencies — and
//! deliberately tiny: the server exists so a streaming session can be
//! *scraped* (`/metrics`), *probed* (`/healthz`), *inspected*
//! (`/snapshot`) and *debugged post-mortem* (`/flight`) while frames are
//! in flight.
//!
//! The contract with the hot path is the [`ObservabilityHub`]: the
//! streaming loop publishes a fresh [`TelemetrySnapshot`] by swapping an
//! `Arc` behind a mutex held only for the pointer exchange — scrapes
//! clone the `Arc` (again, pointer-sized work under the lock) and
//! serialize *outside* any lock, so a slow or stuck scraper can never
//! block frame processing. Under `#![forbid(unsafe_code)]` this
//! mutex-guarded `Arc` swap is the safe equivalent of an atomic pointer
//! swap.
//!
//! This module never reads a clock (lint L5 applies to it in full);
//! socket timeouts take pre-built [`Duration`] values.

use crate::flight::{FlightDump, FlightEvent, FlightRecorder};
use crate::snapshot::TelemetrySnapshot;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Socket read/write timeout for request handling and the std-only
/// client: generous for loopback, bounded so a stuck peer cannot wedge
/// the accept loop.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// One point of the availability/latency trade-off swept by the
/// `slo_front` bench bin: the policy knobs (fault rate, retries, cycle
/// budget, queue depth) plus the availability and p99 latency they
/// measured. All fields are integers (parts-per-million for rates) so
/// the point is `Eq`, byte-stable in JSON, and free of float-order
/// hazards in the cycle domain.
///
/// Defined here (not in the accelerator crates) because the dependency
/// direction is core → telemetry and `/healthz` publishes the selected
/// point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Per-class fault injection rate the point was swept at, ppm.
    pub fault_rate_ppm: u64,
    /// Retries per frame after the first attempt.
    pub max_retries: u32,
    /// Cumulative per-frame cycle budget (`0` = no deadline).
    pub cycle_budget: u64,
    /// Bounded ingest-queue depth.
    pub queue_depth: u64,
    /// Measured availability: completed frames per submitted, ppm.
    pub availability_ppm: u64,
    /// Measured p99 frame latency (queue wait + execution), cycles.
    pub p99_latency_cycles: u64,
}

/// Worker-pool liveness and admission state, published alongside the
/// metrics snapshot and served by `/healthz`.
///
/// Defined here (not in the accelerator crates) because the dependency
/// direction is core → telemetry; the streaming session fills it in.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Overall verdict: workers alive, no rejected jobs.
    pub healthy: bool,
    /// Session lifecycle phase (`idle`, `streaming`, `done`).
    pub phase: String,
    /// Pool worker count.
    pub workers: u64,
    /// Jobs that panicked (caught; the worker survived).
    pub panicked_jobs: u64,
    /// Jobs rejected because the pool queue was closed.
    pub rejected_jobs: u64,
    /// Frames submitted to the pool this batch.
    pub frames_submitted: u64,
    /// Frames that reached a terminal outcome so far.
    pub frames_completed: u64,
    /// Frames dropped (admission or deadline) so far.
    pub frames_dropped: u64,
    /// Admission policy label (`unbounded`, `reject_new`,
    /// `drop_oldest`).
    pub admission_policy: String,
    /// Bounded admission-queue depth (0 = unbounded).
    pub admission_depth: u64,
    /// The SLO operating point the session was configured with (the
    /// `slo_front` selector's choice), if any.
    #[serde(default)]
    pub operating_point: Option<OperatingPoint>,
}

impl Default for HealthReport {
    fn default() -> Self {
        HealthReport {
            healthy: true,
            phase: "idle".to_string(),
            workers: 0,
            panicked_jobs: 0,
            rejected_jobs: 0,
            frames_submitted: 0,
            frames_completed: 0,
            frames_dropped: 0,
            admission_policy: "unbounded".to_string(),
            admission_depth: 0,
            operating_point: None,
        }
    }
}

/// The shared state between a streaming session (publisher) and the
/// exposition server (reader): latest snapshot, latest health report,
/// and the flight ring.
#[derive(Debug)]
pub struct ObservabilityHub {
    snapshot: Mutex<Arc<TelemetrySnapshot>>,
    health: Mutex<Arc<HealthReport>>,
    flight: FlightRecorder,
}

impl ObservabilityHub {
    /// A hub with empty snapshot/health state and an env-sized flight
    /// ring (`ESCA_FLIGHT_CAPACITY`).
    pub fn new() -> Self {
        ObservabilityHub {
            snapshot: Mutex::new(Arc::new(TelemetrySnapshot::default())),
            health: Mutex::new(Arc::new(HealthReport::default())),
            flight: FlightRecorder::from_env(),
        }
    }

    /// Publishes a new snapshot. The lock is held only for the `Arc`
    /// swap — serialization cost stays with the reader.
    pub fn publish_snapshot(&self, snap: TelemetrySnapshot) {
        let next = Arc::new(snap);
        *self
            .snapshot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = next;
    }

    /// The latest published snapshot (cheap `Arc` clone).
    pub fn snapshot(&self) -> Arc<TelemetrySnapshot> {
        Arc::clone(
            &self
                .snapshot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Publishes a new health report (same `Arc`-swap discipline).
    pub fn publish_health(&self, health: HealthReport) {
        let next = Arc::new(health);
        *self
            .health
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = next;
    }

    /// The latest published health report (cheap `Arc` clone).
    pub fn health(&self) -> Arc<HealthReport> {
        Arc::clone(
            &self
                .health
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// The hub's flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Records one flight event (convenience forwarder).
    pub fn record_flight(&self, event: FlightEvent) {
        self.flight.record(event);
    }

    /// The flight ring as a serializable dump.
    pub fn flight_dump(&self) -> FlightDump {
        self.flight.dump()
    }
}

impl Default for ObservabilityHub {
    fn default() -> Self {
        ObservabilityHub::new()
    }
}

/// One parsed HTTP response from [`http_get`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200, 404, 503, ...).
    pub status: u16,
    /// Response body.
    pub body: String,
}

/// Minimal std-only HTTP/1.0 GET client, shared by the CLI self-scrape
/// and the integration tests (so `make verify` needs no curl).
///
/// # Errors
///
/// Propagates socket errors; a malformed status line surfaces as
/// [`std::io::ErrorKind::InvalidData`].
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    // Connection: close + HTTP/1.0 means "read to EOF" framing — no
    // chunked encoding, no content-length bookkeeping.
    write!(stream, "GET {path} HTTP/1.0\r\nConnection: close\r\n\r\n")?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    parse_response(&raw)
}

fn parse_response(raw: &str) -> std::io::Result<HttpResponse> {
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response");
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(bad)?;
    let status_line = head.lines().next().ok_or_else(bad)?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(bad)?;
    Ok(HttpResponse {
        status,
        body: body.to_string(),
    })
}

/// The exposition server: a background accept loop over a bound
/// listener, serving the hub's state.
///
/// Routes: `/metrics` (Prometheus text), `/healthz` (JSON, 200 when
/// healthy / 503 otherwise), `/snapshot` (JSON [`TelemetrySnapshot`]),
/// `/flight` (JSON [`FlightDump`]). Anything else is 404.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the accept loop on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration errors.
    pub fn bind<A: ToSocketAddrs>(addr: A, hub: Arc<ObservabilityHub>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_seen = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop_seen.load(Ordering::SeqCst) {
                    break;
                }
                // A failed accept (peer vanished between SYN and accept)
                // is not a server fault; keep serving.
                if let Ok(stream) = conn {
                    serve_connection(stream, &hub);
                }
            }
        });
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (with the resolved port for `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop only observes the flag on its next wakeup; a
        // throwaway connection to ourselves provides exactly that.
        if let Ok(conn) = TcpStream::connect(self.addr) {
            drop(conn);
        }
        if let Some(handle) = self.handle.take() {
            // The accept loop has no panicking paths; a poisoned join
            // here would mean the thread died, which shutdown tolerates.
            handle.join().ok();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reads one request line and writes the routed response. Errors are
/// swallowed deliberately: a half-closed scraper connection must never
/// take the server down.
fn serve_connection(mut stream: TcpStream, hub: &ObservabilityHub) {
    if stream.set_read_timeout(Some(IO_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(IO_TIMEOUT)).is_err()
    {
        return;
    }
    let path = match read_request_path(&mut stream) {
        Some(p) => p,
        None => return,
    };
    let (status, content_type, body) = route(&path, hub);
    let response = format!(
        "HTTP/1.0 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        status_text(status),
        body.len(),
    );
    if stream.write_all(response.as_bytes()).is_err() {
        return;
    }
    stream.flush().ok();
}

/// Reads bytes until the end of the request head and extracts the GET
/// path. Returns `None` for malformed or non-GET requests.
fn read_request_path(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        // 8 KiB bounds the request head; scrapers send ~100 bytes.
        if buf.len() > 8192 {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    Some(parts.next()?.to_string())
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// Routes one path to `(status, content-type, body)`.
fn route(path: &str, hub: &ObservabilityHub) -> (u16, &'static str, String) {
    // Serialization of plain structs cannot fail; the fallback keeps the
    // server total without a panicking path.
    let json_or_err = |r: Result<String, serde_json::Error>| {
        r.unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    };
    match path {
        "/metrics" => (
            200,
            "text/plain; version=0.0.4",
            hub.snapshot().to_prometheus_text(),
        ),
        "/healthz" => {
            let health = hub.health();
            let status = if health.healthy { 200 } else { 503 };
            (
                status,
                "application/json",
                json_or_err(serde_json::to_string_pretty(health.as_ref())),
            )
        }
        "/snapshot" => (
            200,
            "application/json",
            json_or_err(serde_json::to_string_pretty(hub.snapshot().as_ref())),
        ),
        "/flight" => (
            200,
            "application/json",
            json_or_err(serde_json::to_string_pretty(&hub.flight_dump())),
        ),
        _ => (
            404,
            "text/plain; version=0.0.4",
            format!("no route {path}; try /metrics /healthz /snapshot /flight\n"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn hub_with_data() -> Arc<ObservabilityHub> {
        let hub = Arc::new(ObservabilityHub::new());
        let mut cycle = Registry::new();
        cycle.counter_add("esca_cycles_total", &[("kind", "pipeline")], 123);
        hub.publish_snapshot(TelemetrySnapshot::from_registries(&cycle, &Registry::new()));
        hub.publish_health(HealthReport {
            workers: 2,
            phase: "streaming".to_string(),
            ..HealthReport::default()
        });
        hub.record_flight(FlightEvent::for_frame(0));
        hub
    }

    #[test]
    fn hub_swaps_are_visible_to_readers() {
        let hub = ObservabilityHub::new();
        assert!(hub.snapshot().cycle.is_empty());
        let mut cycle = Registry::new();
        cycle.counter_add("esca_matches_total", &[], 7);
        hub.publish_snapshot(TelemetrySnapshot::from_registries(&cycle, &Registry::new()));
        assert_eq!(hub.snapshot().cycle.counters[0].value, 7);
        assert!(hub.health().healthy);
        hub.publish_health(HealthReport {
            healthy: false,
            rejected_jobs: 1,
            ..HealthReport::default()
        });
        assert!(!hub.health().healthy);
    }

    #[test]
    fn server_serves_all_routes() {
        let hub = hub_with_data();
        let mut server =
            MetricsServer::bind("127.0.0.1:0", Arc::clone(&hub)).expect("loopback bind");
        let addr = server.local_addr();

        let metrics = http_get(addr, "/metrics").expect("scrape /metrics");
        assert_eq!(metrics.status, 200);
        assert!(metrics.body.contains("esca_cycles_total"));
        assert!(metrics.body.contains("# TYPE esca_cycles_total counter"));

        let health = http_get(addr, "/healthz").expect("scrape /healthz");
        assert_eq!(health.status, 200);
        assert!(health.body.contains("\"workers\": 2"));

        let snap = http_get(addr, "/snapshot").expect("scrape /snapshot");
        let parsed: TelemetrySnapshot =
            serde_json::from_str(&snap.body).expect("snapshot body parses");
        assert_eq!(parsed.cycle.counters.len(), 1);

        let flight = http_get(addr, "/flight").expect("scrape /flight");
        let dump: FlightDump = serde_json::from_str(&flight.body).expect("flight body parses");
        assert_eq!(dump.events.len(), 1);

        let missing = http_get(addr, "/nope").expect("scrape unknown route");
        assert_eq!(missing.status, 404);

        server.shutdown();
        // Idempotent shutdown; drop afterwards is a no-op.
        server.shutdown();
    }

    #[test]
    fn unhealthy_hub_reports_503() {
        let hub = Arc::new(ObservabilityHub::new());
        hub.publish_health(HealthReport {
            healthy: false,
            panicked_jobs: 3,
            ..HealthReport::default()
        });
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&hub)).expect("loopback bind");
        let health = http_get(server.local_addr(), "/healthz").expect("scrape /healthz");
        assert_eq!(health.status, 503);
        assert!(health.body.contains("\"panicked_jobs\": 3"));
    }

    #[test]
    fn response_parser_rejects_garbage() {
        assert!(parse_response("not http").is_err());
        assert!(parse_response("HTTP/1.0 abc OK\r\n\r\nbody").is_err());
        let ok = parse_response("HTTP/1.0 200 OK\r\nX: y\r\n\r\nhello").expect("valid response");
        assert_eq!(ok.status, 200);
        assert_eq!(ok.body, "hello");
    }
}
