//! Deterministic fault injection and graceful degradation for the
//! streaming service.
//!
//! A deployed accelerator sees faults the cycle model alone never
//! exercises: BRAM soft errors, FIFO upsets, corrupted DMA transfers,
//! crashed host workers, bus stalls, and stale cached rulebooks. This
//! module adds a seed-driven **fault-injection harness** over
//! [`StreamingSession`] plus the **recovery policy** that keeps a batch
//! flowing when faults land:
//!
//! * every fault site is chosen by a [`FaultRng`] derived purely from
//!   `(campaign seed, frame index, attempt)` — never from worker identity
//!   or timing — so a campaign **replays exactly** for any worker or
//!   shard count;
//! * detected faults (parity / checksum models, [`DetectionModel`])
//!   surface as typed [`EscaError`] variants and the frame is retried up
//!   to [`RecoveryPolicy::max_retries`] times under an optional
//!   cycle-budget deadline;
//! * undetected faults corrupt deterministically and the frame is flagged
//!   ([`FrameReport::silent_corruption`]) instead of poisoning the batch;
//! * a corrupted cached rulebook that fails
//!   [`esca_sscn::rulebook::Rulebook::verify_for_sites`] triggers the
//!   engine fallback to the direct kernels (output stays bit-exact);
//! * worker panics are caught per attempt, so no frame is ever lost: the
//!   batch always returns one [`FrameReport`] per input frame.
//!
//! Fault counters flow into the **cycle-domain** telemetry registry —
//! they are pure functions of the seed and the frame stream, so the
//! cycle snapshot stays byte-identical across `(workers, shards)` even
//! mid-campaign.

use crate::accelerator::{Esca, LayerOpts, NetworkRun};
use crate::admission::{
    record_admission_into, AdmissionConfig, AdmissionOutcome, AdmissionRecord, AdmissionVerdict,
    Arrival, IngestQueue,
};
use crate::config::EscaConfig;
use crate::error::EscaError;
use crate::stats::CycleStats;
use crate::streaming::{span_chrome_trace, Arrived, FrameSpanTrace, StreamingSession};
use esca_sscn::engine::{FlatEngine, RulebookCache};
use esca_sscn::gemm::GemmBackendKind;
use esca_sscn::quant::QuantizedWeights;
use esca_telemetry::{host, ChromeTrace, FlightEvent, FrameSpanCtx, Registry, TelemetrySnapshot};
use esca_tensor::{SparseTensor, Q16};
use serde::Serialize;
use std::sync::{Arc, Mutex, Once, OnceLock, PoisonError};
use std::time::Duration;

/// Bytes per modeled BRAM line (one 64-bit word, one parity bit each).
const BRAM_LINE_BYTES: usize = 8;

// ---------------------------------------------------------------------------
// Seeded fault RNG
// ---------------------------------------------------------------------------

/// A tiny SplitMix64 generator for fault-site selection.
///
/// Hand-rolled (rather than pulling `rand` into the library's dependency
/// graph) because the contract matters more than the statistics: the
/// stream is a pure function of the seed, so fault plans replay exactly.
#[derive(Debug, Clone, Copy)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// A generator seeded directly with `seed`.
    pub fn new(seed: u64) -> Self {
        FaultRng { state: seed }
    }

    /// The generator for one `(campaign seed, frame, attempt)` site.
    ///
    /// This is the determinism linchpin: the stream depends on nothing
    /// else — not worker identity, not scheduling order, not time — so a
    /// campaign replays bit-exactly for any `(workers, shards)`.
    pub fn for_site(seed: u64, frame: u64, attempt: u64) -> Self {
        let mut r = FaultRng::new(
            seed ^ frame.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ attempt.wrapping_mul(0xBF58_476D_1CE4_E5B9),
        );
        // One warm-up step decorrelates neighbouring (frame, attempt)
        // states.
        r.next_u64();
        r
    }

    /// Next 64 pseudo-random bits (SplitMix64 step).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }
}

// ---------------------------------------------------------------------------
// Fault model
// ---------------------------------------------------------------------------

/// The fault classes the injector models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FaultClass {
    /// Single-bit upset in an on-chip BRAM buffer line.
    BramBitFlip,
    /// Single-bit upset in a match-FIFO entry.
    FifoBitFlip,
    /// Corrupted frame DMA transfer (one activation word flipped).
    FrameCorrupt,
    /// Host worker panics mid-job.
    WorkerPanic,
    /// Artificial pipeline stall (bus contention, PS interference).
    Stall,
    /// A cached rulebook is corrupted (one rule-list index bit flipped).
    RulebookCorrupt,
}

impl FaultClass {
    /// Every class, in counter order.
    pub const ALL: [FaultClass; 6] = [
        FaultClass::BramBitFlip,
        FaultClass::FifoBitFlip,
        FaultClass::FrameCorrupt,
        FaultClass::WorkerPanic,
        FaultClass::Stall,
        FaultClass::RulebookCorrupt,
    ];

    /// Stable label used for metric series and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultClass::BramBitFlip => "bram_bit_flip",
            FaultClass::FifoBitFlip => "fifo_bit_flip",
            FaultClass::FrameCorrupt => "frame_corrupt",
            FaultClass::WorkerPanic => "worker_panic",
            FaultClass::Stall => "stall",
            FaultClass::RulebookCorrupt => "rulebook_corrupt",
        }
    }
}

/// One concrete injected fault, with its chosen site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// Bit flip in a named BRAM buffer line.
    BramBitFlip {
        /// Buffer the flip landed in.
        buffer: &'static str,
        /// Line index within the buffer.
        line: u64,
        /// Bit position within the 64-bit line.
        bit: u8,
    },
    /// Bit flip in a match-FIFO entry.
    FifoBitFlip {
        /// FIFO column (of the K² group).
        column: u32,
        /// Slot within the FIFO.
        slot: u32,
        /// Bit position within the entry.
        bit: u8,
    },
    /// One flipped activation word in the frame transfer.
    FrameCorrupt {
        /// Flat feature-word index.
        word: usize,
        /// Bit position within the 16-bit word.
        bit: u8,
    },
    /// The job panics mid-frame.
    WorkerPanic,
    /// The pipeline stalls for a bounded number of cycles.
    Stall {
        /// Injected stall length, cycles.
        cycles: u64,
    },
    /// The frame's cached rulebook is served corrupted.
    RulebookCorrupt {
        /// Salt selecting which index bit the corruption flips.
        salt: u64,
    },
}

impl FaultEvent {
    /// The class this event belongs to.
    pub fn class(&self) -> FaultClass {
        match self {
            FaultEvent::BramBitFlip { .. } => FaultClass::BramBitFlip,
            FaultEvent::FifoBitFlip { .. } => FaultClass::FifoBitFlip,
            FaultEvent::FrameCorrupt { .. } => FaultClass::FrameCorrupt,
            FaultEvent::WorkerPanic => FaultClass::WorkerPanic,
            FaultEvent::Stall { .. } => FaultClass::Stall,
            FaultEvent::RulebookCorrupt { .. } => FaultClass::RulebookCorrupt,
        }
    }
}

/// One planned (and later executed) fault, with its detection verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Attempt index (0 = first try) the fault was injected into.
    pub attempt: u32,
    /// The injected event.
    pub event: FaultEvent,
    /// Whether the modeled detection machinery caught it. For
    /// [`FaultEvent::RulebookCorrupt`] this is resolved at run time by
    /// rulebook verification; stalls and panics are always observed.
    pub detected: bool,
    /// Human-readable detection mechanism (`"none"` when undetected).
    pub mechanism: &'static str,
}

impl FaultRecord {
    /// The record's one-line label, `{class}@attempt{n} {mechanism}`
    /// (`undetected` in place of the mechanism when it was not caught):
    /// the form the campaign summary and the flight ring both print.
    fn label(&self) -> String {
        let mechanism = if self.detected {
            self.mechanism
        } else {
            "undetected"
        };
        format!(
            "{}@attempt{} {mechanism}",
            self.event.class().as_str(),
            self.attempt
        )
    }
}

/// Per-class injection probabilities, evaluated once per frame attempt.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultRates {
    /// BRAM line bit-flip probability.
    pub bram_bit_flip: f64,
    /// Match-FIFO entry bit-flip probability.
    pub fifo_bit_flip: f64,
    /// Frame-transfer corruption probability.
    pub frame_corrupt: f64,
    /// Mid-job worker panic probability.
    pub worker_panic: f64,
    /// Pipeline stall probability.
    pub stall: f64,
    /// Cached-rulebook corruption probability.
    pub rulebook_corrupt: f64,
}

impl FaultRates {
    /// All rates zero: injection disabled.
    pub fn off() -> Self {
        FaultRates {
            bram_bit_flip: 0.0,
            fifo_bit_flip: 0.0,
            frame_corrupt: 0.0,
            worker_panic: 0.0,
            stall: 0.0,
            rulebook_corrupt: 0.0,
        }
    }
}

/// Which detection mechanisms the modeled hardware implements.
///
/// A single-bit upset is always caught by line parity when present;
/// without parity a drain-time checksum still catches it (at higher
/// latency); with neither, the corruption is silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DetectionModel {
    /// Per-line parity on the BRAM buffers.
    pub bram_parity: bool,
    /// Drain-time checksum over each BRAM buffer.
    pub bram_checksum: bool,
    /// Per-entry parity on the match FIFOs.
    pub fifo_parity: bool,
    /// Checksum over each frame DMA transfer.
    pub frame_checksum: bool,
}

impl DetectionModel {
    /// Full coverage (the default).
    pub fn full() -> Self {
        DetectionModel {
            bram_parity: true,
            bram_checksum: true,
            fifo_parity: true,
            frame_checksum: true,
        }
    }

    /// No detection at all: every memory fault is silent.
    pub fn none() -> Self {
        DetectionModel {
            bram_parity: false,
            bram_checksum: false,
            fifo_parity: false,
            frame_checksum: false,
        }
    }
}

impl Default for DetectionModel {
    fn default() -> Self {
        DetectionModel::full()
    }
}

/// Why a frame was dropped rather than completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The bounded ingest queue rejected or evicted it (queue full, no
    /// lower-priority victim to shed).
    Backpressure,
    /// Its cumulative cycle budget was exhausted mid-retry.
    DeadlineExceeded,
    /// Shed while waiting, in favour of a higher-priority arrival.
    Shed {
        /// Tenant the shed frame belonged to.
        tenant: u32,
    },
    /// Rejected at arrival: the tenant's token bucket was empty.
    OverQuota,
}

impl DropReason {
    /// Stable label used for metric series and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::Backpressure => "backpressure",
            DropReason::DeadlineExceeded => "deadline_exceeded",
            DropReason::Shed { .. } => "shed",
            DropReason::OverQuota => "over_quota",
        }
    }
}

// Manual impl: the vendored serde derive handles unit variants only,
// and a label string (`shed{T}` carrying the tenant) is the more useful
// JSON shape anyway.
impl Serialize for DropReason {
    fn to_content(&self) -> serde::Content {
        match self {
            DropReason::Shed { tenant } => serde::Content::Str(format!("shed{{{tenant}}}")),
            other => serde::Content::Str(other.as_str().to_string()),
        }
    }
}

/// What the admission queue does when it is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BackpressurePolicy {
    /// Newly arriving frames are rejected; admitted work completes.
    RejectNew,
    /// The oldest queued frames are evicted in favour of new arrivals.
    DropOldest,
}

/// Retry and deadline policy for a resilient batch (admission is
/// [`AdmissionConfig`]'s).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RecoveryPolicy {
    /// Retries per frame after the first attempt (detected faults only).
    pub max_retries: u32,
    /// Cumulative simulated-cycle deadline per frame across attempts
    /// (injected stalls included); `None` disables the deadline.
    pub cycle_budget: Option<u64>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 2,
            cycle_budget: None,
        }
    }
}

/// Full configuration of a fault campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultConfig {
    /// Campaign seed: the sole source of fault-site randomness.
    pub seed: u64,
    /// Per-class injection rates.
    pub rates: FaultRates,
    /// Upper bound on one injected stall, cycles.
    pub max_stall_cycles: u64,
    /// Detection mechanisms the modeled hardware implements.
    pub detection: DetectionModel,
    /// Retry / deadline policy.
    pub recovery: RecoveryPolicy,
}

impl FaultConfig {
    /// Injection disabled; the resilient path degenerates to plain
    /// streaming (useful as the control arm of an experiment).
    pub fn off(seed: u64) -> Self {
        FaultConfig {
            seed,
            rates: FaultRates::off(),
            max_stall_cycles: 0,
            detection: DetectionModel::full(),
            recovery: RecoveryPolicy::default(),
        }
    }

    /// A standard chaos campaign: every class enabled at rates that make
    /// a small batch exercise all of them, full detection, default
    /// recovery.
    pub fn campaign(seed: u64) -> Self {
        FaultConfig {
            seed,
            rates: FaultRates {
                bram_bit_flip: 0.25,
                fifo_bit_flip: 0.20,
                frame_corrupt: 0.20,
                worker_panic: 0.15,
                stall: 0.30,
                rulebook_corrupt: 0.20,
            },
            max_stall_cycles: 5_000,
            detection: DetectionModel::full(),
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// The fault plan for one `(frame, attempt)`: a pure function of the
/// campaign config, the accelerator geometry and the frame size — never
/// of worker identity or timing.
pub fn plan_for(
    cfg: &FaultConfig,
    acc: &EscaConfig,
    frame_words: usize,
    frame: usize,
    attempt: u32,
) -> Vec<FaultRecord> {
    let mut rng = FaultRng::for_site(cfg.seed, frame as u64, u64::from(attempt));
    let mut plan = Vec::new();
    let mut push = |event: FaultEvent, detected: bool, mechanism: &'static str| {
        plan.push(FaultRecord {
            attempt,
            event,
            detected,
            mechanism,
        });
    };
    if rng.chance(cfg.rates.bram_bit_flip) {
        let (buffer, bytes) = match rng.below(4) {
            0 => ("mask buffer", acc.mask_buffer_bytes),
            1 => ("activation buffer", acc.act_buffer_bytes),
            2 => ("weight buffer", acc.weight_buffer_bytes),
            _ => ("output buffer", acc.out_buffer_bytes),
        };
        let line = rng.below((bytes / BRAM_LINE_BYTES).max(1) as u64);
        let bit = rng.below(64) as u8;
        let (detected, mechanism) = if cfg.detection.bram_parity {
            (true, "line parity")
        } else if cfg.detection.bram_checksum {
            (true, "buffer checksum")
        } else {
            (false, "none")
        };
        push(
            FaultEvent::BramBitFlip { buffer, line, bit },
            detected,
            mechanism,
        );
    }
    if rng.chance(cfg.rates.fifo_bit_flip) {
        let column = rng.below(acc.columns().max(1) as u64) as u32;
        let slot = rng.below(acc.fifo_depth.max(1) as u64) as u32;
        let bit = rng.below(32) as u8;
        let (detected, mechanism) = if cfg.detection.fifo_parity {
            (true, "entry parity")
        } else {
            (false, "none")
        };
        push(
            FaultEvent::FifoBitFlip { column, slot, bit },
            detected,
            mechanism,
        );
    }
    if rng.chance(cfg.rates.frame_corrupt) {
        let word = rng.below(frame_words.max(1) as u64) as usize;
        let bit = rng.below(16) as u8;
        let (detected, mechanism) = if cfg.detection.frame_checksum {
            (true, "frame checksum")
        } else {
            (false, "none")
        };
        push(FaultEvent::FrameCorrupt { word, bit }, detected, mechanism);
    }
    if rng.chance(cfg.rates.worker_panic) {
        push(FaultEvent::WorkerPanic, true, "unwind catch");
    }
    if rng.chance(cfg.rates.stall) {
        let cycles = 1 + rng.below(cfg.max_stall_cycles.max(1));
        push(FaultEvent::Stall { cycles }, true, "stall monitor");
    }
    if rng.chance(cfg.rates.rulebook_corrupt) {
        let salt = rng.next_u64();
        // Resolved at run time by rulebook verification.
        push(
            FaultEvent::RulebookCorrupt { salt },
            false,
            "rulebook verify",
        );
    }
    plan
}

// ---------------------------------------------------------------------------
// Injected panics
// ---------------------------------------------------------------------------

/// Marker payload for injected panics, recognised (and silenced) by the
/// panic hook installed via [`quiet_injected_panics`].
#[derive(Debug)]
pub struct InjectedPanic {
    /// Frame index the panic was injected into.
    pub frame: usize,
}

/// Panics with an [`InjectedPanic`] payload. A plain function (not a
/// macro), so injection stays a first-class, greppable call site.
pub fn injected_panic(frame: usize) -> ! {
    std::panic::panic_any(InjectedPanic { frame })
}

type PanicDump = Box<dyn Fn() + Send + Sync>;

/// Named dump closures the filtered panic hook runs before reporting a
/// *real* (non-injected) panic.
fn panic_dumps() -> &'static Mutex<Vec<(String, PanicDump)>> {
    static DUMPS: OnceLock<Mutex<Vec<(String, PanicDump)>>> = OnceLock::new();
    DUMPS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Installs — once per process — a panic hook that suppresses the default
/// "thread panicked" report for [`InjectedPanic`] payloads (they are an
/// expected part of fault campaigns); for every real panic it first runs
/// the dump closures registered via [`register_panic_dump`] and then
/// defers to the previous hook.
pub fn quiet_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_some() {
                return;
            }
            let dumps = panic_dumps().lock().unwrap_or_else(PoisonError::into_inner);
            for (_, dump) in dumps.iter() {
                // A dump that itself panics inside the hook would abort
                // the process mid-unwind, so each runs caught; a failed
                // dump is unrecoverable here and the primary report
                // below still fires.
                let run = std::panic::AssertUnwindSafe(&**dump);
                let _ = std::panic::catch_unwind(run);
            }
            drop(dumps);
            prev(info);
        }));
    });
}

/// Registers (or replaces, by `name`) a dump closure that the filtered
/// panic hook runs before reporting a real panic — the streaming CLI
/// registers its `--metrics-out`/`--prom-out`/`--flight-out` writers here
/// so a crashed campaign still leaves its last snapshot and flight ring
/// on disk. Installs the hook on first use.
pub fn register_panic_dump(name: &str, dump: impl Fn() + Send + Sync + 'static) {
    quiet_injected_panics();
    let mut dumps = panic_dumps().lock().unwrap_or_else(PoisonError::into_inner);
    match dumps.iter_mut().find(|(n, _)| n == name) {
        Some(slot) => slot.1 = Box::new(dump),
        None => dumps.push((name.to_string(), Box::new(dump))),
    }
}

/// Removes a dump closure registered via [`register_panic_dump`]
/// (end-of-run cleanup; unknown names are a no-op).
pub fn unregister_panic_dump(name: &str) {
    panic_dumps()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .retain(|(n, _)| n != name);
}

// ---------------------------------------------------------------------------
// Outcomes and reports
// ---------------------------------------------------------------------------

/// How one frame ended under the recovery policy.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameOutcome {
    /// Completed on the first attempt.
    Ok,
    /// Completed after `retries` retried attempts.
    Retried {
        /// Number of retries (not counting the first attempt).
        retries: u32,
    },
    /// Every attempt failed; the last error is kept.
    Failed {
        /// The final attempt's error.
        error: EscaError,
    },
    /// The frame never completed: rejected at admission or abandoned at
    /// its cycle deadline.
    Dropped {
        /// Why it was dropped.
        reason: DropReason,
    },
}

impl FrameOutcome {
    /// Stable label used for metric series and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FrameOutcome::Ok => "ok",
            FrameOutcome::Retried { .. } => "retried",
            FrameOutcome::Failed { .. } => "failed",
            FrameOutcome::Dropped { .. } => "dropped",
        }
    }

    /// Whether the frame produced an output.
    pub fn completed(&self) -> bool {
        matches!(self, FrameOutcome::Ok | FrameOutcome::Retried { .. })
    }
}

/// Everything that happened to one frame during a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameReport {
    /// Frame index within the batch.
    pub frame: usize,
    /// Tenant that submitted the frame (0 outside multi-tenant ingest).
    pub tenant: u32,
    /// Whether admission degraded the frame to resident-plan-only
    /// execution (bit-identical output, matching cycles shed).
    pub degraded: bool,
    /// Final outcome under the recovery policy.
    pub outcome: FrameOutcome,
    /// Attempts executed (0 for admission-dropped frames).
    pub attempts: u32,
    /// Every fault injected across the frame's attempts.
    pub injected: Vec<FaultRecord>,
    /// Whether an undetected fault (or unverified corrupt rulebook) may
    /// have corrupted the output silently.
    pub silent_corruption: bool,
    /// Whether a corrupt cached rulebook was caught by verification and
    /// the engine fell back to the direct kernels.
    pub fell_back: bool,
    /// Simulated cycles spent across all attempts, injected stalls
    /// included (the quantity the cycle-budget deadline meters).
    pub spent_cycles: u64,
    /// Injected stall cycles included in [`FrameReport::spent_cycles`].
    pub injected_stall_cycles: u64,
}

impl FrameReport {
    /// The report of a frame that never produced a result: no attempt
    /// ran (callers override `attempts` and `degraded` where they apply),
    /// no fault was injected and no cycle was spent.
    fn unrun(frame: usize, tenant: u32, outcome: FrameOutcome) -> Self {
        FrameReport {
            frame,
            tenant,
            degraded: false,
            outcome,
            attempts: 0,
            injected: Vec::new(),
            silent_corruption: false,
            fell_back: false,
            spent_cycles: 0,
            injected_stall_cycles: 0,
        }
    }

    /// A frame whose output is trustworthy: it completed and no silent
    /// corruption was flagged. Healthy frames are byte-identical to a
    /// fault-free run (chaos tests enforce this).
    pub fn healthy(&self) -> bool {
        self.outcome.completed() && !self.silent_corruption
    }
}

/// Per-class and per-outcome fault counters for one campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct FaultCounters {
    /// Injected faults per class (indexed by [`FaultClass::ALL`] order).
    pub injected: [u64; 6],
    /// Detected faults per class (same indexing).
    pub detected: [u64; 6],
    /// Frames that completed first-try.
    pub ok_frames: u64,
    /// Frames that completed after retries.
    pub retried_frames: u64,
    /// Frames whose attempts were exhausted.
    pub failed_frames: u64,
    /// Frames dropped at admission or deadline (equals the sum of the
    /// four per-reason counters below — the tally partitions exactly).
    pub dropped_frames: u64,
    /// Drops at the backpressure rung (queue-full rejection/eviction).
    pub dropped_backpressure: u64,
    /// Drops at the per-frame cycle deadline.
    pub dropped_deadline: u64,
    /// Drops shed in favour of a higher-priority arrival.
    pub dropped_shed: u64,
    /// Drops rejected by an empty tenant token bucket.
    pub dropped_over_quota: u64,
    /// Frames admitted degraded (resident-plan-only execution).
    pub degraded_frames: u64,
    /// Total retry attempts across the batch.
    pub retries_total: u64,
    /// Frames served by the direct-kernel fallback.
    pub fallbacks: u64,
    /// Frames flagged for possible silent corruption.
    pub silent_corruptions: u64,
    /// Total injected stall cycles.
    pub injected_stall_cycles: u64,
}

impl FaultCounters {
    /// Tallies the counters from per-frame reports.
    pub fn tally(frames: &[FrameReport]) -> Self {
        let mut c = FaultCounters::default();
        for fr in frames {
            for rec in &fr.injected {
                let i = rec.event.class() as usize;
                c.injected[i] += 1;
                if rec.detected {
                    c.detected[i] += 1;
                }
            }
            match &fr.outcome {
                FrameOutcome::Ok => c.ok_frames += 1,
                FrameOutcome::Retried { retries } => {
                    c.retried_frames += 1;
                    c.retries_total += u64::from(*retries);
                }
                FrameOutcome::Failed { .. } => c.failed_frames += 1,
                FrameOutcome::Dropped { reason } => {
                    c.dropped_frames += 1;
                    match reason {
                        DropReason::Backpressure => c.dropped_backpressure += 1,
                        DropReason::DeadlineExceeded => c.dropped_deadline += 1,
                        DropReason::Shed { .. } => c.dropped_shed += 1,
                        DropReason::OverQuota => c.dropped_over_quota += 1,
                    }
                }
            }
            if fr.degraded {
                c.degraded_frames += 1;
            }
            if fr.fell_back {
                c.fallbacks += 1;
            }
            if fr.silent_corruption {
                c.silent_corruptions += 1;
            }
            c.injected_stall_cycles += fr.injected_stall_cycles;
        }
        c
    }

    /// Total injected faults across every class.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Records the counters as cycle-domain metric series. Everything
    /// here is a pure function of `(seed, frame stream)`, so the series
    /// are byte-identical across `(workers, shards)`.
    pub fn record_into(&self, reg: &mut Registry) {
        for class in FaultClass::ALL {
            let i = class as usize;
            let labels = [("class", class.as_str())];
            reg.counter_add("esca_faults_injected_total", &labels, self.injected[i]);
            reg.counter_add("esca_faults_detected_total", &labels, self.detected[i]);
        }
        for (outcome, n) in [
            ("ok", self.ok_frames),
            ("retried", self.retried_frames),
            ("failed", self.failed_frames),
            ("dropped", self.dropped_frames),
        ] {
            reg.counter_add("esca_frames_outcome_total", &[("outcome", outcome)], n);
        }
        for (reason, n) in [
            ("backpressure", self.dropped_backpressure),
            ("deadline_exceeded", self.dropped_deadline),
            ("shed", self.dropped_shed),
            ("over_quota", self.dropped_over_quota),
        ] {
            reg.counter_add("esca_frames_dropped_total", &[("reason", reason)], n);
        }
        reg.counter_add("esca_frames_degraded_total", &[], self.degraded_frames);
        reg.counter_add("esca_frame_retries_total", &[], self.retries_total);
        reg.counter_add("esca_engine_fallbacks_total", &[], self.fallbacks);
        reg.counter_add(
            "esca_silent_corruptions_total",
            &[],
            self.silent_corruptions,
        );
        reg.counter_add(
            "esca_injected_stall_cycles_total",
            &[],
            self.injected_stall_cycles,
        );
    }
}

/// Results of one [`StreamingSession::run_batch_resilient`] call: one
/// entry per input frame, always, in frame order — faults never shrink
/// the report.
#[derive(Debug, Clone)]
pub struct ResilientReport {
    /// Campaign seed the batch ran under.
    pub seed: u64,
    /// Per-frame fate, in frame order (exactly one per input frame).
    pub frames: Vec<FrameReport>,
    /// Final outputs (`None` for failed/dropped frames), in frame order.
    pub outputs: Vec<Option<SparseTensor<Q16>>>,
    /// Per-frame cycle statistics of the successful attempt, in frame
    /// order.
    pub per_frame: Vec<Option<CycleStats>>,
    /// Aggregated fault counters.
    pub counters: FaultCounters,
    /// Two-domain snapshot; the cycle domain (per-frame stats of
    /// completed frames + fault counters) is byte-identical across
    /// worker and shard counts.
    pub telemetry: TelemetrySnapshot,
    /// Pool worker count the batch ran with.
    pub workers: usize,
    /// The accelerator clock the cycle counts are timed at, MHz.
    pub clock_mhz: f64,
    /// Span-context traces of completed frames, in frame order; the
    /// attempt index is the one the successful run landed on.
    pub frame_spans: Vec<FrameSpanTrace>,
    /// Host wall-clock per frame job (zero for admission-dropped
    /// frames), in frame order.
    pub frame_wall: Vec<Duration>,
    /// The ingest queue's per-frame admission records, in frame order —
    /// verdict, arrival stamp and modeled service start (see
    /// [`crate::admission::IngestQueue`]).
    pub admissions: Vec<AdmissionRecord>,
    /// Peak in-system occupancy of the ingest queue.
    pub queue_peak: u64,
}

impl ResilientReport {
    /// Exports the span-context traces of completed frames as a nested
    /// frame → attempt → layer Perfetto trace (see
    /// [`span_chrome_trace`]'s determinism contract).
    pub fn to_span_trace(&self) -> ChromeTrace {
        span_chrome_trace(&self.frame_spans)
    }

    /// Number of frames that produced an output.
    pub fn completed(&self) -> usize {
        self.frames.iter().filter(|f| f.outcome.completed()).count()
    }

    /// Indices of healthy frames (completed, no silent-corruption flag);
    /// their outputs are byte-identical to a fault-free run.
    pub fn healthy_frames(&self) -> Vec<usize> {
        self.frames
            .iter()
            .filter(|f| f.healthy())
            .map(|f| f.frame)
            .collect()
    }

    /// A serializable campaign summary (for `--chaos-out` JSON export).
    pub fn summary(&self) -> CampaignSummary {
        CampaignSummary {
            seed: self.seed,
            frames: self.frames.len(),
            workers: self.workers,
            completed: self.completed(),
            healthy: self.healthy_frames().len(),
            counters: self.counters.clone(),
            outcomes: self
                .frames
                .iter()
                .map(|fr| FrameSummary {
                    frame: fr.frame,
                    tenant: fr.tenant,
                    degraded: fr.degraded,
                    outcome: match &fr.outcome {
                        FrameOutcome::Ok => "ok".to_string(),
                        FrameOutcome::Retried { retries } => {
                            format!("retried({retries})")
                        }
                        FrameOutcome::Failed { error } => format!("failed: {error}"),
                        FrameOutcome::Dropped { reason } => format!("dropped: {reason:?}"),
                    },
                    attempts: fr.attempts,
                    silent_corruption: fr.silent_corruption,
                    fell_back: fr.fell_back,
                    spent_cycles: fr.spent_cycles,
                    faults: fr.injected.iter().map(FaultRecord::label).collect(),
                })
                .collect(),
        }
    }
}

/// JSON-friendly campaign summary.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignSummary {
    /// Campaign seed.
    pub seed: u64,
    /// Batch size.
    pub frames: usize,
    /// Pool worker count.
    pub workers: usize,
    /// Frames that produced an output.
    pub completed: usize,
    /// Frames whose output is byte-identical to a fault-free run.
    pub healthy: usize,
    /// Aggregated fault counters.
    pub counters: FaultCounters,
    /// Per-frame one-line fates.
    pub outcomes: Vec<FrameSummary>,
}

/// One frame's line in a [`CampaignSummary`].
#[derive(Debug, Clone, Serialize)]
pub struct FrameSummary {
    /// Frame index.
    pub frame: usize,
    /// Owning tenant id.
    pub tenant: u32,
    /// Whether admission degraded the frame to resident-plan-only.
    pub degraded: bool,
    /// Outcome label (with retry count or error text).
    pub outcome: String,
    /// Attempts executed.
    pub attempts: u32,
    /// Silent-corruption flag.
    pub silent_corruption: bool,
    /// Direct-kernel fallback flag.
    pub fell_back: bool,
    /// Simulated cycles spent across attempts.
    pub spent_cycles: u64,
    /// Injected faults, one label each.
    pub faults: Vec<String>,
}

// ---------------------------------------------------------------------------
// Attempt execution
// ---------------------------------------------------------------------------

/// Flips one bit of one feature word, deterministically. Used both for
/// undetected frame-transfer corruption (on the input) and undetected
/// memory faults (on the output).
fn flip_feature_bit(t: &SparseTensor<Q16>, word: usize, bit: u8) -> SparseTensor<Q16> {
    let mut feats = t.features().to_vec();
    if feats.is_empty() {
        return t.clone();
    }
    let w = word % feats.len();
    let b = u32::from(bit) % 16;
    feats[w] = Q16(((feats[w].0 as u16) ^ (1u16 << b)) as i16);
    SparseTensor::from_template(t, t.channels(), feats)
        .expect("invariant: template rebuild preserves shape")
}

/// What one attempt produced, plus its accounting.
struct AttemptOutcome {
    result: Result<NetworkRun, EscaError>,
    cost_cycles: u64,
    stall_cycles: u64,
    silent: bool,
    fell_back: bool,
}

/// Runs one attempt of one frame under its fault plan. `plan` records
/// may be updated in place (rulebook detection resolves at verify time).
#[allow(clippy::too_many_arguments)]
fn execute_attempt(
    esca: &Esca,
    layers: &[(QuantizedWeights, bool)],
    cache: &Arc<RulebookCache>,
    frame: &SparseTensor<Q16>,
    idx: usize,
    opts: LayerOpts,
    backend: GemmBackendKind,
    plan: &mut [FaultRecord],
) -> AttemptOutcome {
    let mut out = AttemptOutcome {
        result: Err(EscaError::WorkerPanic { frame: idx }),
        cost_cycles: 0,
        stall_cycles: 0,
        silent: false,
        fell_back: false,
    };
    let mut frame_fault: Option<(usize, u8, bool)> = None;
    let mut mem_fault: Option<(&'static str, u64, u8, &'static str, bool)> = None;
    let mut panic_planned = false;
    let mut book_salt: Option<u64> = None;
    for rec in plan.iter() {
        match rec.event {
            FaultEvent::FrameCorrupt { word, bit } => {
                frame_fault = Some((word, bit, rec.detected));
            }
            FaultEvent::BramBitFlip { buffer, line, bit } => {
                mem_fault = Some((buffer, line, bit, rec.mechanism, rec.detected));
            }
            FaultEvent::FifoBitFlip { column, slot, bit } => {
                if mem_fault.is_none() {
                    mem_fault = Some((
                        "match fifo",
                        u64::from(column) * 1000 + u64::from(slot),
                        bit,
                        rec.mechanism,
                        rec.detected,
                    ));
                }
            }
            FaultEvent::WorkerPanic => panic_planned = true,
            FaultEvent::Stall { cycles } => out.stall_cycles += cycles,
            FaultEvent::RulebookCorrupt { salt } => book_salt = Some(salt),
        }
    }
    out.cost_cycles += out.stall_cycles;

    // 1. Frame-transfer fault: detected → re-transfer (typed error, the
    //    retry re-runs the DMA); undetected → the accelerator computes on
    //    a corrupted frame.
    let mut owned_frame: Option<SparseTensor<Q16>> = None;
    if let Some((word, bit, detected)) = frame_fault {
        let bytes = (frame.nnz() * frame.channels() * 2) as u64;
        out.cost_cycles += match esca.config().dram_cycles(bytes) {
            Ok(cycles) => cycles,
            Err(e) => {
                out.result = Err(e);
                return out;
            }
        };
        if detected {
            out.result = Err(EscaError::MemoryFault {
                buffer: "frame dma",
                line: word as u64,
                bit,
                mechanism: "frame checksum",
            });
            return out;
        }
        owned_frame = Some(flip_feature_bit(frame, word, bit));
        out.silent = true;
    }
    let used: &SparseTensor<Q16> = owned_frame.as_ref().unwrap_or(frame);

    // 2. The cycle model itself, with any injected panic caught here so
    //    the *attempt* fails (and retries) rather than the pool job.
    let run = std::panic::AssertUnwindSafe(|| {
        if panic_planned {
            injected_panic(idx);
        }
        esca.run_chain(used, layers, opts)
    });
    let modeled = match std::panic::catch_unwind(run) {
        Err(_) => {
            out.result = Err(EscaError::WorkerPanic { frame: idx });
            return out;
        }
        Ok(r) => r,
    };
    let mut run = match modeled {
        Ok(v) => v,
        Err(e) => {
            out.result = Err(e);
            return out;
        }
    };
    out.cost_cycles += run.total.total_cycles();

    // 3. BRAM / FIFO integrity fault: detected → typed error, the cycles
    //    were spent but the result is discarded (retry); undetected →
    //    deterministic silent corruption of one output word.
    if let Some((buffer, line, bit, mechanism, detected)) = mem_fault {
        if detected {
            out.result = Err(EscaError::MemoryFault {
                buffer,
                line,
                bit,
                mechanism,
            });
            return out;
        }
        run.output = flip_feature_bit(&run.output, line as usize, bit);
        out.silent = true;
    }

    // 4. Cached-rulebook corruption. Verification catching the corrupt
    //    book is the graceful-degradation path: the engine falls back to
    //    the direct kernels and the output stays bit-exact. A corruption
    //    that *passes* verification (the flipped index landed in range)
    //    computes with bad rules — deterministic silent corruption.
    if let Some(salt) = book_salt {
        if let Some((w0, _)) = layers.first() {
            let book = cache.get_or_build(used, w0.k());
            let bad = book.corrupted_copy(salt);
            let caught = !bad.verify_for_sites(used.nnz(), w0.k());
            for rec in plan.iter_mut() {
                if matches!(rec.event, FaultEvent::RulebookCorrupt { .. }) {
                    rec.detected = caught;
                }
            }
            if caught {
                out.fell_back = true;
            } else {
                let mut eng = FlatEngine::with_cache_and_backend(Arc::clone(cache), backend);
                let mut y = used.clone();
                let mut flat_err: Option<EscaError> = None;
                for (i, (w, relu)) in layers.iter().enumerate() {
                    let step = if i == 0 {
                        eng.subconv_q_with_book(&y, w, *relu, &bad).map(|(o, _)| o)
                    } else {
                        eng.subconv_q(&y, w, *relu)
                    };
                    match step {
                        Ok(o) => y = o,
                        Err(e) => {
                            flat_err = Some(e.into());
                            break;
                        }
                    }
                }
                match flat_err {
                    Some(e) => {
                        out.result = Err(e);
                        return out;
                    }
                    None => {
                        run.output = y;
                        out.silent = true;
                    }
                }
            }
        }
    }

    out.result = Ok(run);
    out
}

/// One admitted frame as the ingest runner schedules it.
#[derive(Debug, Clone, Copy)]
struct AdmittedFrame {
    /// Frame index within the batch.
    idx: usize,
    /// Owning tenant.
    tenant: u32,
    /// Whether admission degraded the frame to resident-only execution.
    degraded: bool,
    /// What every attempt of the frame runs with.
    opts: LayerOpts,
}

/// Runs all attempts of one admitted frame under the recovery policy.
fn run_frame_resilient(
    esca: &Esca,
    layers: &[(QuantizedWeights, bool)],
    cache: &Arc<RulebookCache>,
    frame: &SparseTensor<Q16>,
    admitted: AdmittedFrame,
    backend: GemmBackendKind,
    cfg: &FaultConfig,
) -> (FrameReport, Option<NetworkRun>) {
    let idx = admitted.idx;
    let frame_words = frame.nnz() * frame.channels();
    let mut rep = FrameReport {
        degraded: admitted.degraded,
        ..FrameReport::unrun(idx, admitted.tenant, FrameOutcome::Ok)
    };
    // At least one attempt always runs, so the loop sets the outcome.
    for attempt in 0..cfg.recovery.max_retries.saturating_add(1) {
        let mut plan = plan_for(cfg, esca.config(), frame_words, idx, attempt);
        let out = execute_attempt(
            esca,
            layers,
            cache,
            frame,
            idx,
            admitted.opts,
            backend,
            &mut plan,
        );
        rep.attempts = attempt + 1;
        rep.spent_cycles += out.cost_cycles;
        rep.injected_stall_cycles += out.stall_cycles;
        rep.injected.extend(plan);
        match out.result {
            Ok(run) => {
                rep.silent_corruption = out.silent;
                rep.fell_back = out.fell_back;
                if attempt > 0 {
                    rep.outcome = FrameOutcome::Retried { retries: attempt };
                }
                return (rep, Some(run));
            }
            Err(error) => {
                let over = |budget| rep.spent_cycles >= budget;
                if cfg.recovery.cycle_budget.is_some_and(over) {
                    rep.outcome = FrameOutcome::Dropped {
                        reason: DropReason::DeadlineExceeded,
                    };
                    return (rep, None);
                }
                rep.outcome = FrameOutcome::Failed { error };
            }
        }
    }
    (rep, None)
}

// ---------------------------------------------------------------------------
// The cycle batch runner
// ---------------------------------------------------------------------------

impl StreamingSession {
    /// Runs a batch under fault injection and the recovery policy.
    ///
    /// Unlike [`StreamingSession::run_batch`], per-frame failures never
    /// abort the batch: every input frame comes back with exactly one
    /// [`FrameReport`] (Ok / Retried / Failed / Dropped), completed
    /// frames carry their outputs, and healthy frames (no undetected
    /// fault touched them) are **byte-identical** to a fault-free run.
    /// The whole campaign — fault sites, outcomes, counters, the cycle
    /// telemetry domain — is a pure function of `(cfg.seed, frames)` and
    /// replays exactly for any worker or shard count.
    ///
    /// Every frame is admitted; for a bounded queue, quotas or shedding
    /// call [`StreamingSession::run_batch_ingest`].
    ///
    /// # Errors
    ///
    /// Only infrastructure errors surface here (a closed worker pool);
    /// modeled faults land in the per-frame reports instead.
    pub fn run_batch_resilient(
        &self,
        frames: &[SparseTensor<Q16>],
        cfg: &FaultConfig,
    ) -> crate::Result<ResilientReport> {
        let (arrivals, admission) = admit_all(frames.len());
        self.run_batch_ingest(frames, &arrivals, cfg, &admission)
    }

    /// Runs a batch through the bounded ingest queue and the fault-
    /// injection harness: each arrival is evaluated per-arrival against
    /// queue depth, per-tenant token-bucket quotas and the shedding
    /// ladder (see [`crate::admission`]), then admitted frames run under
    /// the recovery policy exactly like
    /// [`StreamingSession::run_batch_resilient`].
    ///
    /// Admission verdicts are computed **sequentially on the calling
    /// thread before any pool submission** — a pure function of
    /// `(admission, arrivals)` — so the admitted set, every
    /// `esca_admission_*`/`esca_tenant_*` series, and the whole cycle
    /// telemetry domain stay byte-identical across `(workers, shards)`
    /// splits and GEMM backends. Arrival stamps live on the cycle-domain
    /// clock; no wall time is read.
    ///
    /// # Errors
    ///
    /// [`EscaError::Config`] when `arrivals` is not a permutation of the
    /// frame indices; otherwise only infrastructure errors (a closed
    /// worker pool) surface here.
    pub fn run_batch_ingest(
        &self,
        frames: &[SparseTensor<Q16>],
        arrivals: &[Arrival],
        cfg: &FaultConfig,
        admission: &AdmissionConfig,
    ) -> crate::Result<ResilientReport> {
        let mut run = self.run_slots(frames, arrivals, cfg, admission)?;
        // The fault counters and admission series are pure functions of
        // the seed and the arrivals: cycle domain.
        let counters = FaultCounters::tally(&run.frames);
        counters.record_into(&mut run.cycle);
        record_admission_into(&run.admission, &mut run.cycle);
        let telemetry = self.publish_done(&run);
        let (outputs, per_frame) = run
            .runs
            .into_iter()
            .map(|r| r.map(|r| (r.output, r.total)).unzip())
            .unzip();
        Ok(ResilientReport {
            seed: cfg.seed,
            frames: run.frames,
            outputs,
            per_frame,
            counters,
            telemetry,
            workers: self.pool.workers(),
            clock_mhz: self.esca.config().clock_mhz,
            frame_spans: run.frame_spans,
            frame_wall: run.frame_wall,
            admissions: run.admissions,
            queue_peak: run.admission.peak_in_system as u64,
        })
    }

    /// The one cycle-model batch path behind [`StreamingSession::run_batch`]
    /// and [`StreamingSession::run_batch_ingest`]: evaluates admission,
    /// plans each admitted slot's residency and [`LayerOpts`], runs every
    /// slot's attempts under `cfg` on the pool, publishes each arrival to
    /// the hub, and folds the runs into the registries and span traces
    /// in frame order.
    ///
    /// Admission verdicts and residency hints are computed sequentially
    /// on the calling thread before any pool submission, so the admitted
    /// set, the slot plan and the whole cycle domain are byte-identical
    /// across `(workers, shards)` splits.
    ///
    /// # Errors
    ///
    /// [`EscaError::Config`] when `arrivals` is not a permutation of the
    /// frame indices; [`EscaError::PoolClosed`] when the pool rejects a
    /// job.
    pub(crate) fn run_slots(
        &self,
        frames: &[SparseTensor<Q16>],
        arrivals: &[Arrival],
        cfg: &FaultConfig,
        admission: &AdmissionConfig,
    ) -> crate::Result<SlotRun> {
        if cfg.rates.worker_panic > 0.0 {
            quiet_injected_panics();
        }
        let n = frames.len();
        if arrivals.len() != n {
            return Err(EscaError::Config {
                reason: format!("{} arrivals for {} frames", arrivals.len(), n),
            });
        }
        let mut seen = vec![false; n];
        for a in arrivals {
            if a.frame >= n || seen[a.frame] {
                return Err(EscaError::Config {
                    reason: format!("arrival frame {} out of range or duplicated", a.frame),
                });
            }
            seen[a.frame] = true;
        }
        let outcome = IngestQueue::evaluate(admission, arrivals);
        let mut rec_by_frame: Vec<AdmissionRecord> = outcome.records.clone();
        rec_by_frame.sort_by_key(|r| r.frame);
        let policy_label = admission.policy_label();
        let depth = admission.queue_depth.max(1) as u64;

        // One slot per admitted frame, in service order. The first
        // admitted frame pays the weight load. A frame runs
        // matching-resident when its geometry is already resident (the
        // session's residency rule over the admitted frames in service
        // order) or admission degraded it: degraded frames run
        // resident-only, so outputs stay bit-identical while matching
        // cycles are shed.
        let admitted: Vec<&AdmissionRecord> = outcome
            .records
            .iter()
            .filter(|r| r.verdict.runs())
            .collect();
        let hints = self.residency_hints(admitted.iter().map(|r| &frames[r.frame]));
        let plan: Vec<AdmittedFrame> = admitted
            .iter()
            .zip(&hints)
            .enumerate()
            .map(|(slot, (rec, &hint))| {
                let degraded = rec.verdict == AdmissionVerdict::Degraded;
                AdmittedFrame {
                    idx: rec.frame,
                    tenant: rec.tenant,
                    degraded,
                    opts: LayerOpts {
                        load_weights: slot == 0,
                        matching_resident: hint || degraded,
                        shards: self.layer_shards,
                    },
                }
            })
            .collect();
        let submitted = plan.len() as u64;
        // Which slot ran each frame (`None`: not admitted).
        let mut slot_of: Vec<Option<usize>> = vec![None; n];
        for (slot, entry) in plan.iter().enumerate() {
            slot_of[entry.idx] = Some(slot);
        }
        let inputs: Vec<(SparseTensor<Q16>, AdmittedFrame)> = plan
            .iter()
            .map(|&entry| {
                let frame = &frames[entry.idx];
                (frame.clone(), entry)
            })
            .collect();
        let esca = Arc::clone(&self.esca);
        let layers = Arc::clone(&self.layers);
        let cache = Arc::clone(&self.rulebook_cache);
        let backend = self.gemm_backend;
        let cfg = *cfg;
        let job = move |(frame, entry): (SparseTensor<Q16>, AdmittedFrame)| {
            run_frame_resilient(&esca, &layers, &cache, &frame, entry, backend, &cfg)
        };

        // Live exposition (hub attached only): completion-order folds are
        // legal because the merge rules are commutative; the final report
        // below is rebuilt in frame order, so determinism is untouched.
        let mut live_cycle = Registry::new();
        let mut live_host = Registry::new();
        let mut live_done = 0u64;
        let mut live_dropped = 0u64;
        let backend_label = self.gemm_backend.label();
        let publish = |slot: usize, a: &Arrived<(FrameReport, Option<NetworkRun>)>| {
            let Some(hub) = &self.hub else { return };
            let (rep, run) = &a.value;
            if rep.outcome.completed() {
                live_done += 1;
            } else {
                live_dropped += 1;
            }
            if let Some(run) = run {
                record_frame(&mut live_cycle, run);
            }
            host::observe_wall(&mut live_host, "esca_frame_wall_micros", &[], a.wall);
            hub.record_flight(flight_event(
                rep,
                &rec_by_frame[rep.frame].verdict.label(),
                a.worker,
                backend_label,
                a.wall,
                plan[slot].opts.matching_resident,
            ));
            hub.publish_snapshot(TelemetrySnapshot::from_registries(&live_cycle, &live_host));
            hub.publish_health(self.health_report_admission(
                "streaming",
                submitted,
                live_done,
                live_dropped,
                policy_label,
                depth,
            ));
        };
        let fan = self.fan_out(inputs, job, publish)?;
        let mut arrived: Vec<Option<crate::Result<Arrived<_>>>> =
            fan.slots.into_iter().map(Some).collect();

        // Two strictly separated registries (DESIGN.md: Observability).
        // The cycle registry folds completed frames' simulated telemetry
        // in frame order — every input is deterministic and every merge
        // is sum/max/bucket-add, so its snapshot is byte-identical for
        // any worker or shard count. The host registry takes wall-clock
        // and scheduling facts and is the only place they may land.
        let mut cycle = Registry::new();
        let mut host_reg = Registry::new();
        host_reg.gauge_max("esca_stream_workers", &[], self.pool.workers() as u64);
        host_reg.gauge_max("esca_stream_queue_depth", &[], submitted);
        host_reg.counter_add("esca_results_undelivered_total", &[], fan.undelivered);

        // Every frame gets exactly one report and, with a hub, exactly one
        // terminal flight event: arrivals recorded theirs live above; a
        // job that died without reporting fails with `WorkerPanic`; a
        // frame admission refused is dropped.
        let mut frame_reports = Vec::with_capacity(n);
        let mut runs: Vec<Option<NetworkRun>> = Vec::with_capacity(n);
        let mut frame_wall = vec![Duration::ZERO; n];
        let mut frame_spans = Vec::new();
        for (idx, rec) in rec_by_frame.iter().enumerate() {
            let slot = slot_of[idx];
            let rep = match slot.and_then(|s| arrived[s].take()) {
                Some(Ok(a)) => {
                    frame_wall[idx] = a.wall;
                    host::observe_wall(&mut host_reg, "esca_frame_wall_micros", &[], a.wall);
                    let worker = a.worker.to_string();
                    host_reg.counter_add(
                        "esca_worker_frames_total",
                        &[("worker", worker.as_str())],
                        1,
                    );
                    let (rep, run) = a.value;
                    if let Some(run) = &run {
                        let ctx = FrameSpanCtx {
                            frame: idx as u64,
                            attempt: u64::from(rep.attempts.saturating_sub(1)),
                            worker: a.worker as u64,
                            shards: self.layer_shards as u64,
                        };
                        frame_spans.push(fold_frame(&mut cycle, run, ctx));
                    }
                    frame_reports.push(rep);
                    runs.push(run);
                    continue;
                }
                Some(Err(_)) => FrameReport {
                    degraded: rec.verdict == AdmissionVerdict::Degraded,
                    // The attempt that died.
                    attempts: 1,
                    ..FrameReport::unrun(
                        idx,
                        rec.tenant,
                        FrameOutcome::Failed {
                            error: EscaError::WorkerPanic { frame: idx },
                        },
                    )
                },
                None => {
                    let reason = match rec.verdict {
                        AdmissionVerdict::Shed { tenant } => DropReason::Shed { tenant },
                        AdmissionVerdict::RejectedOverQuota => DropReason::OverQuota,
                        // Queue-full rejection or DropOldest eviction.
                        _ => DropReason::Backpressure,
                    };
                    FrameReport::unrun(idx, rec.tenant, FrameOutcome::Dropped { reason })
                }
            };
            if let Some(hub) = &self.hub {
                hub.record_flight(flight_event(
                    &rep,
                    &rec.verdict.label(),
                    0,
                    backend_label,
                    Duration::ZERO,
                    slot.is_some_and(|s| plan[s].opts.matching_resident),
                ));
            }
            frame_reports.push(rep);
            runs.push(None);
        }
        Ok(SlotRun {
            completed: runs.iter().filter(|r| r.is_some()).count() as u64,
            frames: frame_reports,
            runs,
            frame_wall,
            frame_spans,
            cycle,
            host: host_reg,
            admission: outcome,
            admissions: rec_by_frame,
            resident: hints.iter().filter(|&&h| h).count() as u64,
            submitted,
            policy: policy_label,
            depth,
        })
    }

    /// Snapshots a finished [`SlotRun`]'s registries and, with a hub,
    /// publishes the snapshot and the `"done"` health report.
    pub(crate) fn publish_done(&self, run: &SlotRun) -> TelemetrySnapshot {
        let telemetry = TelemetrySnapshot::from_registries(&run.cycle, &run.host);
        if let Some(hub) = &self.hub {
            hub.publish_snapshot(telemetry.clone());
            hub.publish_health(self.health_report_admission(
                "done",
                run.submitted,
                run.completed,
                (run.frames.len() as u64).saturating_sub(run.completed),
                run.policy,
                run.depth,
            ));
        }
        telemetry
    }
}

/// Records one completed frame's cycle-domain series — its stats, its
/// telemetry and the `esca_frame_cycles` observation — into `reg`.
fn record_frame(reg: &mut Registry, run: &NetworkRun) {
    run.total.record_into(reg);
    run.telemetry.record_into(reg);
    reg.observe("esca_frame_cycles", &[], run.total.total_cycles());
}

/// The frame-order fold of one completed frame: records it into the
/// cycle registry and returns its span-context trace.
fn fold_frame(reg: &mut Registry, run: &NetworkRun, ctx: FrameSpanCtx) -> FrameSpanTrace {
    record_frame(reg, run);
    FrameSpanTrace {
        ctx,
        total_cycles: run.total.total_cycles(),
        spans: run.telemetry.layer_spans.clone(),
    }
}

/// One burst of one tenant with a queue as deep as the batch: every one of
/// `n` frames is admitted, in frame order.
pub(crate) fn admit_all(n: usize) -> (Vec<Arrival>, AdmissionConfig) {
    let arrivals = (0..n)
        .map(|frame| Arrival {
            frame,
            tenant: 0,
            at_cycle: 0,
        })
        .collect();
    let admission = AdmissionConfig::one_burst(None, BackpressurePolicy::RejectNew, n);
    (arrivals, admission)
}

/// What [`StreamingSession::run_slots`] hands back: every frame's fate in
/// frame order and the two registries its frame-order fold filled. The
/// calling wrapper adds its own series to the registries, then
/// [`StreamingSession::publish_done`] snapshots them.
pub(crate) struct SlotRun {
    /// One report per input frame, in frame order.
    pub(crate) frames: Vec<FrameReport>,
    /// Each frame's completed run (`None`: failed or dropped).
    pub(crate) runs: Vec<Option<NetworkRun>>,
    /// Host wall-clock per frame job (zero for frames that never ran).
    pub(crate) frame_wall: Vec<Duration>,
    /// Span-context traces of completed frames, in frame order.
    pub(crate) frame_spans: Vec<FrameSpanTrace>,
    /// Cycle domain: completed frames' stats and telemetry, folded in
    /// frame order.
    pub(crate) cycle: Registry,
    /// Host domain: pool and queue facts, per-frame wall and worker.
    pub(crate) host: Registry,
    /// The ingest queue's verdicts on the arrivals.
    admission: AdmissionOutcome,
    /// The admission records, in frame order.
    admissions: Vec<AdmissionRecord>,
    /// Slots whose geometry was already resident (the residency hints).
    pub(crate) resident: u64,
    /// Frames submitted to the pool.
    submitted: u64,
    /// Frames that produced an output.
    completed: u64,
    /// Ingest-queue policy label and depth, for `/healthz`.
    policy: &'static str,
    depth: u64,
}

/// Builds one terminal flight-recorder event from a frame's report.
/// `admission` is the ingest-queue verdict label (`admitted`,
/// `degraded`, `shed{T}`, `evicted`, `rejected`, `over_quota`).
fn flight_event(
    rep: &FrameReport,
    admission: &str,
    worker: usize,
    backend: &str,
    wall: Duration,
    matching_resident: bool,
) -> FlightEvent {
    FlightEvent {
        frame: rep.frame as u64,
        attempt: u64::from(rep.attempts.saturating_sub(1)),
        worker: worker as u64,
        outcome: rep.outcome.label().to_string(),
        admission: admission.to_string(),
        tenant: u64::from(rep.tenant),
        retries: match &rep.outcome {
            FrameOutcome::Retried { retries } => u64::from(*retries),
            _ => u64::from(rep.attempts.saturating_sub(1)),
        },
        faults: rep.injected.iter().map(FaultRecord::label).collect(),
        fell_back: rep.fell_back,
        silent_corruption: rep.silent_corruption,
        matching_resident,
        backend: backend.to_string(),
        cycles: rep.spent_cycles,
        wall_micros: wall.as_micros() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_rng_is_deterministic_and_site_keyed() {
        let mut a = FaultRng::for_site(7, 3, 1);
        let mut b = FaultRng::for_site(7, 3, 1);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_eq!(a.next_u64(), b.next_u64());
        // Different frame or attempt → different stream.
        let mut c = FaultRng::for_site(7, 4, 1);
        let mut d = FaultRng::for_site(7, 3, 2);
        let base = FaultRng::for_site(7, 3, 1).next_u64();
        assert_ne!(base, c.next_u64());
        assert_ne!(base, d.next_u64());
        // below() respects the bound, chance() respects the extremes.
        let mut r = FaultRng::new(42);
        for _ in 0..100 {
            assert!(r.below(10) < 10);
        }
        assert_eq!(r.below(0), 0);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn plans_replay_exactly_and_differ_across_attempts() {
        let cfg = FaultConfig::campaign(99);
        let acc = EscaConfig::default();
        for frame in 0..20usize {
            for attempt in 0..3u32 {
                let a = plan_for(&cfg, &acc, 80, frame, attempt);
                let b = plan_for(&cfg, &acc, 80, frame, attempt);
                assert_eq!(a, b, "plan not replayable");
            }
        }
        // With campaign rates, 20 frames × 3 attempts inject something.
        let total: usize = (0..20)
            .flat_map(|f| (0..3).map(move |a| plan_for(&cfg, &acc, 80, f, a).len()))
            .sum();
        assert!(total > 0, "campaign rates injected nothing");
    }

    #[test]
    fn detection_model_drives_the_verdict() {
        let mut cfg = FaultConfig::campaign(5);
        cfg.rates = FaultRates {
            bram_bit_flip: 1.0,
            fifo_bit_flip: 1.0,
            frame_corrupt: 1.0,
            worker_panic: 0.0,
            stall: 0.0,
            rulebook_corrupt: 0.0,
        };
        let acc = EscaConfig::default();
        let full = plan_for(&cfg, &acc, 80, 0, 0);
        assert_eq!(full.len(), 3);
        assert!(full.iter().all(|r| r.detected));
        cfg.detection = DetectionModel::none();
        let blind = plan_for(&cfg, &acc, 80, 0, 0);
        assert_eq!(blind.len(), 3);
        assert!(blind.iter().all(|r| !r.detected));
        assert!(blind.iter().all(|r| r.mechanism == "none"));
        // Parity off but checksum on: still detected, other mechanism.
        cfg.detection = DetectionModel {
            bram_parity: false,
            bram_checksum: true,
            fifo_parity: true,
            frame_checksum: true,
        };
        let degraded = plan_for(&cfg, &acc, 80, 0, 0);
        let bram = degraded
            .iter()
            .find(|r| r.event.class() == FaultClass::BramBitFlip)
            .expect("bram fault planned at rate 1.0");
        assert!(bram.detected);
        assert_eq!(bram.mechanism, "buffer checksum");
    }

    #[test]
    fn flip_feature_bit_changes_exactly_one_word() {
        use esca_tensor::{Coord3, Extent3};
        let mut t = SparseTensor::<f32>::new(Extent3::cube(4), 2);
        t.insert(Coord3::new(0, 0, 0), &[1.0, 2.0]).expect("insert");
        t.insert(Coord3::new(1, 0, 0), &[3.0, 4.0]).expect("insert");
        t.canonicalize();
        let q = esca_sscn::quant::quantize_tensor(
            &t,
            esca_tensor::QuantParams::new(8).expect("valid bits"),
        );
        let flipped = flip_feature_bit(&q, 2, 3);
        let diff: Vec<usize> = q
            .features()
            .iter()
            .zip(flipped.features())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(diff, vec![2]);
        assert_eq!(q.features()[2].0 ^ flipped.features()[2].0, 1 << 3);
        // Replay: the same flip is the same tensor.
        assert_eq!(flip_feature_bit(&q, 2, 3).features(), flipped.features());
    }

    #[test]
    fn counters_tally_outcomes_and_classes() {
        let frames = vec![
            FrameReport {
                frame: 0,
                tenant: 0,
                degraded: false,
                outcome: FrameOutcome::Ok,
                attempts: 1,
                injected: vec![FaultRecord {
                    attempt: 0,
                    event: FaultEvent::Stall { cycles: 100 },
                    detected: true,
                    mechanism: "stall monitor",
                }],
                silent_corruption: false,
                fell_back: false,
                spent_cycles: 1100,
                injected_stall_cycles: 100,
            },
            FrameReport {
                frame: 1,
                tenant: 1,
                degraded: true,
                outcome: FrameOutcome::Retried { retries: 2 },
                attempts: 3,
                injected: vec![
                    FaultRecord {
                        attempt: 0,
                        event: FaultEvent::BramBitFlip {
                            buffer: "mask buffer",
                            line: 4,
                            bit: 9,
                        },
                        detected: true,
                        mechanism: "line parity",
                    },
                    FaultRecord {
                        attempt: 1,
                        event: FaultEvent::WorkerPanic,
                        detected: true,
                        mechanism: "unwind catch",
                    },
                ],
                silent_corruption: false,
                fell_back: true,
                spent_cycles: 9000,
                injected_stall_cycles: 0,
            },
            FrameReport {
                frame: 2,
                tenant: 1,
                degraded: false,
                outcome: FrameOutcome::Dropped {
                    reason: DropReason::Backpressure,
                },
                attempts: 0,
                injected: Vec::new(),
                silent_corruption: false,
                fell_back: false,
                spent_cycles: 0,
                injected_stall_cycles: 0,
            },
            FrameReport {
                frame: 3,
                tenant: 1,
                degraded: false,
                outcome: FrameOutcome::Dropped {
                    reason: DropReason::Shed { tenant: 1 },
                },
                attempts: 0,
                injected: Vec::new(),
                silent_corruption: false,
                fell_back: false,
                spent_cycles: 0,
                injected_stall_cycles: 0,
            },
        ];
        let c = FaultCounters::tally(&frames);
        assert_eq!(c.ok_frames, 1);
        assert_eq!(c.retried_frames, 1);
        assert_eq!(c.dropped_frames, 2);
        // Per-reason drop counters partition the total exactly.
        assert_eq!(c.dropped_backpressure, 1);
        assert_eq!(c.dropped_shed, 1);
        assert_eq!(c.dropped_deadline, 0);
        assert_eq!(c.dropped_over_quota, 0);
        assert_eq!(
            c.dropped_frames,
            c.dropped_backpressure + c.dropped_deadline + c.dropped_shed + c.dropped_over_quota
        );
        assert_eq!(c.degraded_frames, 1);
        assert_eq!(c.retries_total, 2);
        assert_eq!(c.fallbacks, 1);
        assert_eq!(c.total_injected(), 3);
        assert_eq!(c.injected[FaultClass::Stall as usize], 1);
        assert_eq!(c.detected[FaultClass::BramBitFlip as usize], 1);
        assert_eq!(c.injected_stall_cycles, 100);
        let mut reg = Registry::new();
        c.record_into(&mut reg);
        // The series exist and carry the tallied values.
        let snap = TelemetrySnapshot::from_registries(&reg, &Registry::new());
        let retried = snap
            .cycle
            .counters
            .iter()
            .find(|s| {
                s.name == "esca_frames_outcome_total"
                    && s.labels.iter().any(|(_, v)| v == "retried")
            })
            .expect("outcome series recorded");
        assert_eq!(retried.value, 1);
    }

    #[test]
    fn injected_panics_are_catchable_and_quiet() {
        quiet_injected_panics();
        let caught = std::panic::catch_unwind(|| injected_panic(7));
        let payload = caught.expect_err("injected_panic must panic");
        let p = payload
            .downcast_ref::<InjectedPanic>()
            .expect("payload is InjectedPanic");
        assert_eq!(p.frame, 7);
    }
}
