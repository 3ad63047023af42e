//! Bounded ingest admission for the streaming service: per-arrival
//! queue discipline, per-tenant token-bucket quotas, and the
//! load-shedding ladder.
//!
//! A deployed accelerator front-end sees *arrivals*, not batches: frames
//! from many tenants land against a bounded queue while the worker pool
//! drains it at a finite rate. This module models that ingest plane as a
//! deterministic single-server discrete-event simulation, evaluated
//! **sequentially on the calling thread before any pool submission** —
//! the same pre-submit pattern as residency hints — so every verdict is
//! a pure function of `(config, arrival sequence)` and the cycle-domain
//! telemetry derived from it stays byte-identical across any
//! `(workers, shards)` split.
//!
//! The per-arrival **shedding ladder** (top rung wins):
//!
//! 1. **quota** — the tenant's token bucket is empty → the arrival is
//!    rejected `over_quota` without touching the queue;
//! 2. **admit** — the queue has room and occupancy is below the degrade
//!    threshold → the frame runs at full fidelity;
//! 3. **degrade** — the queue has room but occupancy is at/above the
//!    threshold → the frame is admitted **resident-plan-only**
//!    ([`crate::accelerator::LayerOpts::matching_resident`]): outputs
//!    stay bit-identical, only the matching pipeline's cycles are shed;
//! 4. **shed** — the queue is full but a *waiting* frame of a strictly
//!    lower-priority tenant exists → that victim is shed (`shed{T}`) and
//!    the arrival takes its place;
//! 5. **backpressure** — the queue is full and nothing outranked:
//!    [`BackpressurePolicy::RejectNew`] rejects the arrival,
//!    [`BackpressurePolicy::DropOldest`] evicts the oldest waiting frame
//!    (the in-service head is never preempted).
//!
//! Closing the loop, [`select_operating_point`] picks a policy from an
//! availability/latency Pareto front swept by the `slo_front` bench bin;
//! the choice is published through `/healthz`
//! ([`esca_telemetry::serve::HealthReport::operating_point`]).

use crate::resilience::BackpressurePolicy;
use esca_telemetry::serve::OperatingPoint;
use esca_telemetry::Registry;
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};

/// Degrade-threshold sentinel: occupancy can never reach this, so the
/// degrade rung of the ladder is disabled.
pub const DEGRADE_DISABLED: u32 = 101;

// ---------------------------------------------------------------------------
// Tenants and quotas
// ---------------------------------------------------------------------------

/// Per-tenant token-bucket quota and shedding priority.
///
/// The bucket holds up to [`TenantQuota::burst`] tokens and refills one
/// token every [`TenantQuota::cycles_per_token`] cycles of the arrival
/// clock (integer-exact: the remainder carries, never rounds). Each
/// admitted or degraded frame spends one token; an arrival finding the
/// bucket empty is rejected `over_quota` before it can occupy a queue
/// slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TenantQuota {
    /// Tenant id the quota applies to.
    pub tenant: u32,
    /// Cycles of arrival-clock time per refilled token; `0` = unlimited
    /// (the bucket never empties).
    pub cycles_per_token: u64,
    /// Bucket capacity (burst size). Clamped to at least 1 when the
    /// quota is limited.
    pub burst: u64,
    /// Shedding priority: when the queue is full, a waiting frame whose
    /// tenant priority is **strictly lower** than the arrival's may be
    /// shed in its favour. Higher value = more important.
    pub priority: u8,
}

impl TenantQuota {
    /// An unlimited quota at the lowest priority — the behaviour of any
    /// tenant without an explicit [`AdmissionConfig::tenants`] entry.
    pub fn unlimited(tenant: u32) -> Self {
        TenantQuota {
            tenant,
            cycles_per_token: 0,
            burst: 0,
            priority: 0,
        }
    }
}

/// Configuration of the bounded ingest queue.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AdmissionConfig {
    /// Total in-system bound (one in service + waiting). Clamped ≥ 1.
    pub queue_depth: usize,
    /// Modeled service time per frame, cycles: the rate the single
    /// server drains the queue at. `u64::MAX` means nothing drains
    /// within a batch (one-burst admission, [`AdmissionConfig::one_burst`]).
    pub drain_cycles: u64,
    /// Queue occupancy percentage (pre-insert, `in_system * 100 /
    /// queue_depth`) at/above which new admissions run degraded
    /// (resident-plan-only). [`DEGRADE_DISABLED`] (or anything > 100)
    /// disables the rung.
    pub degrade_occupancy_pct: u32,
    /// Per-tenant quotas; tenants without an entry get
    /// [`TenantQuota::unlimited`].
    pub tenants: Vec<TenantQuota>,
    /// What happens on the bottom rung of the ladder (queue full, no
    /// lower-priority victim).
    pub backpressure: BackpressurePolicy,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_depth: 64,
            drain_cycles: 10_000,
            degrade_occupancy_pct: DEGRADE_DISABLED,
            tenants: Vec::new(),
            backpressure: BackpressurePolicy::RejectNew,
        }
    }
}

impl AdmissionConfig {
    /// One-burst admission for a batch of `frames` arriving together at
    /// cycle 0: nothing drains mid-burst, no quotas, no degrade rung, and
    /// `depth` (`None`: the whole batch) bounds the queue. `RejectNew`
    /// admits the first `depth` arrivals; `DropOldest` keeps the
    /// (non-preemptible) in-service head plus the newest `depth - 1`
    /// arrivals.
    pub fn one_burst(
        depth: Option<usize>,
        backpressure: BackpressurePolicy,
        frames: usize,
    ) -> Self {
        AdmissionConfig {
            queue_depth: depth.map_or(frames.max(1), |d| d.max(1)),
            drain_cycles: u64::MAX,
            degrade_occupancy_pct: DEGRADE_DISABLED,
            tenants: Vec::new(),
            backpressure,
        }
    }

    /// Stable policy label for `/healthz` and reports.
    pub fn policy_label(&self) -> &'static str {
        match self.backpressure {
            BackpressurePolicy::RejectNew => "reject_new",
            BackpressurePolicy::DropOldest => "drop_oldest",
        }
    }

    /// The quota governing `tenant` (explicit entry or unlimited).
    pub fn quota_for(&self, tenant: u32) -> TenantQuota {
        self.tenants
            .iter()
            .find(|q| q.tenant == tenant)
            .copied()
            .unwrap_or_else(|| TenantQuota::unlimited(tenant))
    }
}

// ---------------------------------------------------------------------------
// Arrivals and verdicts
// ---------------------------------------------------------------------------

/// One frame arriving at the ingest queue. `at_cycle` is a
/// **cycle-domain** stamp (a fact of the workload, like the frame data
/// itself), never a wall-clock reading — that is what keeps admission
/// verdicts byte-identical across worker and shard counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Arrival {
    /// Index of the frame in the batch slice.
    pub frame: usize,
    /// Owning tenant id.
    pub tenant: u32,
    /// Arrival stamp on the cycle-domain clock; clamped monotonic in
    /// offer order.
    pub at_cycle: u64,
}

/// Final fate of one arrival at the ingest queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// Admitted at full fidelity.
    Admitted,
    /// Admitted resident-plan-only (occupancy at/above the degrade
    /// threshold): bit-identical output, matching cycles shed.
    Degraded,
    /// Was waiting but a higher-priority arrival took its slot.
    Shed {
        /// Tenant of the shed (victim) frame.
        tenant: u32,
    },
    /// Was waiting but evicted by [`BackpressurePolicy::DropOldest`].
    Evicted,
    /// Rejected at arrival: queue full, nothing outranked.
    RejectedQueueFull,
    /// Rejected at arrival: the tenant's token bucket was empty.
    RejectedOverQuota,
}

impl AdmissionVerdict {
    /// Whether the frame reaches the worker pool.
    pub fn runs(self) -> bool {
        matches!(
            self,
            AdmissionVerdict::Admitted | AdmissionVerdict::Degraded
        )
    }

    /// Flight-recorder label (`shed{T}` names the victim's tenant).
    pub fn label(self) -> String {
        match self {
            AdmissionVerdict::Admitted => "admitted".to_string(),
            AdmissionVerdict::Degraded => "degraded".to_string(),
            AdmissionVerdict::Shed { tenant } => format!("shed{{{tenant}}}"),
            AdmissionVerdict::Evicted => "evicted".to_string(),
            AdmissionVerdict::RejectedQueueFull => "rejected".to_string(),
            AdmissionVerdict::RejectedOverQuota => "over_quota".to_string(),
        }
    }

    /// Tenant-free label for bounded-cardinality metric series.
    pub fn class_label(self) -> &'static str {
        match self {
            AdmissionVerdict::Admitted => "admitted",
            AdmissionVerdict::Degraded => "degraded",
            AdmissionVerdict::Shed { .. } => "shed",
            AdmissionVerdict::Evicted => "evicted",
            AdmissionVerdict::RejectedQueueFull => "rejected",
            AdmissionVerdict::RejectedOverQuota => "over_quota",
        }
    }

    /// Every verdict class, in metric-series order.
    pub const CLASSES: [&'static str; 6] = [
        "admitted",
        "degraded",
        "shed",
        "evicted",
        "rejected",
        "over_quota",
    ];
}

// Manual impl: the vendored serde derive handles unit variants only;
// the flight-recorder label (`shed{T}` carrying the victim's tenant) is
// the JSON shape consumers already parse.
impl Serialize for AdmissionVerdict {
    fn to_content(&self) -> serde::Content {
        serde::Content::Str(self.label())
    }
}

/// One arrival's record after the queue has seen the whole sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct AdmissionRecord {
    /// Frame index of the arrival.
    pub frame: usize,
    /// Owning tenant id.
    pub tenant: u32,
    /// (Monotonically clamped) arrival stamp, cycle domain.
    pub at_cycle: u64,
    /// Final verdict — an initial `Admitted` can later become
    /// `Shed`/`Evicted` while the frame waits.
    pub verdict: AdmissionVerdict,
    /// Cycle the modeled server began this frame (admitted frames only;
    /// saturates under `drain_cycles = u64::MAX`).
    pub start_cycle: Option<u64>,
}

impl AdmissionRecord {
    /// Modeled queueing delay: cycles between arrival and service start.
    pub fn queue_wait_cycles(&self) -> u64 {
        self.start_cycle
            .map_or(0, |s| s.saturating_sub(self.at_cycle))
    }
}

// ---------------------------------------------------------------------------
// The bounded ingest queue
// ---------------------------------------------------------------------------

/// Per-tenant token-bucket state (integer-exact refill).
#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: u64,
    remainder_cycles: u64,
    last_refill: u64,
}

/// Everything the queue decided about one arrival sequence.
#[derive(Debug, Clone)]
pub struct AdmissionOutcome {
    /// One record per arrival, in offer order.
    pub records: Vec<AdmissionRecord>,
    /// Peak in-system occupancy (in service + waiting) observed.
    pub peak_in_system: usize,
}

/// The bounded ingest queue: a deterministic single-server
/// discrete-event model fed arrivals in order. See the module docs for
/// the ladder it implements.
#[derive(Debug)]
pub struct IngestQueue {
    cfg: AdmissionConfig,
    buckets: BTreeMap<u32, Bucket>,
    /// Record index currently in service, if any.
    in_service: Option<usize>,
    /// Cycle the in-service frame finishes.
    busy_until: u64,
    /// Record indices waiting behind the server, oldest first.
    waiting: VecDeque<usize>,
    records: Vec<AdmissionRecord>,
    peak_in_system: usize,
    now: u64,
}

impl IngestQueue {
    /// An empty queue under `cfg` (depth clamped ≥ 1).
    pub fn new(cfg: &AdmissionConfig) -> Self {
        let mut cfg = cfg.clone();
        cfg.queue_depth = cfg.queue_depth.max(1);
        let depth = cfg.queue_depth;
        IngestQueue {
            cfg,
            buckets: BTreeMap::new(),
            in_service: None,
            busy_until: 0,
            waiting: VecDeque::with_capacity(depth),
            records: Vec::new(),
            peak_in_system: 0,
            now: 0,
        }
    }

    /// Convenience: offer every arrival in order and finish.
    pub fn evaluate(cfg: &AdmissionConfig, arrivals: &[Arrival]) -> AdmissionOutcome {
        let mut q = IngestQueue::new(cfg);
        for a in arrivals {
            q.offer(*a);
        }
        q.finish()
    }

    /// In-system occupancy (in service + waiting).
    fn in_system(&self) -> usize {
        usize::from(self.in_service.is_some()) + self.waiting.len()
    }

    /// Completes served frames up to cycle `t`, chaining the next waiter
    /// at each finish instant.
    fn drain_until(&mut self, t: u64) {
        while self.in_service.is_some() && self.busy_until <= t {
            self.in_service = None;
            let finish = self.busy_until;
            if let Some(next) = self.waiting.pop_front() {
                self.records[next].start_cycle = Some(finish);
                self.in_service = Some(next);
                self.busy_until = finish.saturating_add(self.cfg.drain_cycles);
            }
        }
    }

    /// Places record `i` behind the server (or straight into service).
    fn enqueue(&mut self, i: usize, t: u64) {
        if self.in_service.is_none() {
            self.records[i].start_cycle = Some(t);
            self.in_service = Some(i);
            self.busy_until = t.saturating_add(self.cfg.drain_cycles);
        } else {
            self.waiting.push_back(i);
        }
        self.peak_in_system = self.peak_in_system.max(self.in_system());
    }

    /// Refills `tenant`'s bucket up to cycle `t`; returns a copy of the
    /// bucket state after refill.
    fn refill(&mut self, quota: TenantQuota, t: u64) -> Bucket {
        let b = self.buckets.entry(quota.tenant).or_insert(Bucket {
            tokens: if quota.cycles_per_token == 0 {
                0
            } else {
                quota.burst.max(1)
            },
            remainder_cycles: 0,
            last_refill: t,
        });
        if quota.cycles_per_token > 0 {
            let burst = quota.burst.max(1);
            let dt = t.saturating_sub(b.last_refill);
            let acc = b.remainder_cycles.saturating_add(dt);
            let earned = acc.checked_div(quota.cycles_per_token).unwrap_or(0);
            b.tokens = b.tokens.saturating_add(earned).min(burst);
            b.remainder_cycles = if b.tokens == burst {
                0
            } else {
                acc.checked_rem(quota.cycles_per_token).unwrap_or(0)
            };
        }
        b.last_refill = t;
        *b
    }

    /// Spends one token from `tenant`'s bucket (no-op when unlimited).
    fn spend(&mut self, quota: TenantQuota) {
        if quota.cycles_per_token > 0 {
            if let Some(b) = self.buckets.get_mut(&quota.tenant) {
                b.tokens = b.tokens.saturating_sub(1);
            }
        }
    }

    /// Runs one arrival through the shedding ladder. The verdict it (and
    /// possibly a shed/evicted victim) receives is final once
    /// [`IngestQueue::finish`] returns.
    pub fn offer(&mut self, a: Arrival) {
        let t = a.at_cycle.max(self.now);
        self.now = t;
        self.drain_until(t);
        let quota = self.cfg.quota_for(a.tenant);
        let i = self.records.len();
        self.records.push(AdmissionRecord {
            frame: a.frame,
            tenant: a.tenant,
            at_cycle: t,
            verdict: AdmissionVerdict::RejectedQueueFull,
            start_cycle: None,
        });

        // Rung 1: quota. An empty bucket rejects before queue state is
        // even consulted, so over-quota tenants cannot occupy slots.
        if quota.cycles_per_token > 0 && self.refill(quota, t).tokens == 0 {
            self.records[i].verdict = AdmissionVerdict::RejectedOverQuota;
            return;
        }

        let depth = self.cfg.queue_depth;
        if self.in_system() < depth {
            // Rungs 2/3: room — admit, degraded at/above the threshold.
            self.admit(i, t, quota, self.in_system());
            return;
        }

        // Rung 4: full — shed the oldest waiting frame of the
        // lowest-priority tenant, if strictly below the arrival's.
        let victim = self
            .waiting
            .iter()
            .enumerate()
            .min_by_key(|(pos, &ri)| (self.cfg.quota_for(self.records[ri].tenant).priority, *pos))
            .map(|(pos, &ri)| (pos, ri));
        if let Some((pos, ri)) = victim {
            if self.cfg.quota_for(self.records[ri].tenant).priority < quota.priority {
                self.records[ri].verdict = AdmissionVerdict::Shed {
                    tenant: self.records[ri].tenant,
                };
                self.waiting.remove(pos);
                self.admit(i, t, quota, self.in_system());
                return;
            }
        }

        // Rung 5: backpressure.
        match self.cfg.backpressure {
            BackpressurePolicy::RejectNew => {
                self.records[i].verdict = AdmissionVerdict::RejectedQueueFull;
            }
            BackpressurePolicy::DropOldest => match self.waiting.pop_front() {
                Some(old) => {
                    self.records[old].verdict = AdmissionVerdict::Evicted;
                    self.admit(i, t, quota, self.in_system());
                }
                // Depth 1: only the non-preemptible head is in system.
                None => self.records[i].verdict = AdmissionVerdict::RejectedQueueFull,
            },
        }
    }

    /// Admits record `i` (degraded at/above the occupancy threshold),
    /// spending one token.
    fn admit(&mut self, i: usize, t: u64, quota: TenantQuota, occupancy: usize) {
        let pct = (occupancy * 100 / self.cfg.queue_depth) as u32;
        self.records[i].verdict = if pct >= self.cfg.degrade_occupancy_pct {
            AdmissionVerdict::Degraded
        } else {
            AdmissionVerdict::Admitted
        };
        self.spend(quota);
        self.enqueue(i, t);
    }

    /// Drains the model to completion and returns every record. Frames
    /// still waiting are chained through the server so their modeled
    /// `start_cycle` is defined.
    pub fn finish(mut self) -> AdmissionOutcome {
        self.drain_until(u64::MAX);
        AdmissionOutcome {
            records: self.records,
            peak_in_system: self.peak_in_system,
        }
    }
}

/// Records the admission outcome as cycle-domain metric series
/// (`esca_admission_*`, `esca_tenant_*`). Verdicts are a pure function
/// of `(config, arrivals)`, so the series are byte-identical across
/// `(workers, shards)`.
pub fn record_admission_into(outcome: &AdmissionOutcome, reg: &mut Registry) {
    let mut by_class: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut by_tenant: BTreeMap<u32, (u64, u64, u64)> = BTreeMap::new();
    for rec in &outcome.records {
        *by_class.entry(rec.verdict.class_label()).or_insert(0) += 1;
        let entry = by_tenant.entry(rec.tenant).or_insert((0, 0, 0));
        entry.0 += 1;
        if rec.verdict.runs() {
            entry.1 += 1;
        } else {
            entry.2 += 1;
        }
    }
    for class in AdmissionVerdict::CLASSES {
        reg.counter_add(
            "esca_admission_verdicts_total",
            &[("verdict", class)],
            by_class.get(class).copied().unwrap_or(0),
        );
    }
    for (tenant, (frames, admitted, shed)) in by_tenant {
        let label = tenant.to_string();
        let labels = [("tenant", label.as_str())];
        reg.counter_add("esca_tenant_frames_total", &labels, frames);
        reg.counter_add("esca_tenant_admitted_total", &labels, admitted);
        reg.counter_add("esca_tenant_shed_total", &labels, shed);
    }
    reg.gauge_max(
        "esca_admission_queue_peak",
        &[],
        outcome.peak_in_system as u64,
    );
}

// ---------------------------------------------------------------------------
// SLO operating-point selection
// ---------------------------------------------------------------------------

/// The SLO an [`OperatingPoint`] must satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SloTarget {
    /// Minimum availability, parts-per-million of submitted frames.
    pub min_availability_ppm: u64,
    /// Maximum p99 latency, cycles (`0` = unbounded).
    pub max_p99_latency_cycles: u64,
}

impl Default for SloTarget {
    fn default() -> Self {
        SloTarget {
            min_availability_ppm: 900_000,
            max_p99_latency_cycles: 0,
        }
    }
}

/// `true` when `a` dominates `b` on the (availability ↑, p99 ↓) plane.
fn dominates(a: &OperatingPoint, b: &OperatingPoint) -> bool {
    a.availability_ppm >= b.availability_ppm
        && a.p99_latency_cycles <= b.p99_latency_cycles
        && (a.availability_ppm > b.availability_ppm || a.p99_latency_cycles < b.p99_latency_cycles)
}

/// The non-dominated subset of `points` on the availability/latency
/// plane, sorted by rising latency (deterministic tie-break on the full
/// policy tuple). Duplicate (availability, p99) pairs keep one entry.
pub fn pareto_front(points: &[OperatingPoint]) -> Vec<OperatingPoint> {
    let mut front: Vec<OperatingPoint> = Vec::new();
    for p in points {
        if points.iter().any(|q| dominates(q, p)) {
            continue;
        }
        if !front.iter().any(|q| {
            q.availability_ppm == p.availability_ppm && q.p99_latency_cycles == p.p99_latency_cycles
        }) {
            front.push(*p);
        }
    }
    front.sort_by_key(|p| {
        (
            p.p99_latency_cycles,
            std::cmp::Reverse(p.availability_ppm),
            p.queue_depth,
            p.fault_rate_ppm,
            p.cycle_budget,
            p.max_retries,
        )
    });
    front
}

/// Picks the operating point for `slo` from `points`: the cheapest
/// (lowest p99) point meeting the availability floor and latency
/// ceiling; ties break on higher availability, then the smaller policy
/// tuple. When no point meets the SLO the best-effort point (highest
/// availability, then lowest p99) is returned. `None` only for an empty
/// sweep.
pub fn select_operating_point(
    points: &[OperatingPoint],
    slo: &SloTarget,
) -> Option<OperatingPoint> {
    let front = pareto_front(points);
    let meets = |p: &&OperatingPoint| {
        p.availability_ppm >= slo.min_availability_ppm
            && (slo.max_p99_latency_cycles == 0
                || p.p99_latency_cycles <= slo.max_p99_latency_cycles)
    };
    front
        .iter()
        .filter(meets)
        .min_by_key(|p| {
            (
                p.p99_latency_cycles,
                std::cmp::Reverse(p.availability_ppm),
                p.queue_depth,
                p.fault_rate_ppm,
                p.cycle_budget,
                p.max_retries,
            )
        })
        .or_else(|| {
            front.iter().min_by_key(|p| {
                (
                    std::cmp::Reverse(p.availability_ppm),
                    p.p99_latency_cycles,
                    p.queue_depth,
                )
            })
        })
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrivals(spec: &[(usize, u32, u64)]) -> Vec<Arrival> {
        spec.iter()
            .map(|&(frame, tenant, at_cycle)| Arrival {
                frame,
                tenant,
                at_cycle,
            })
            .collect()
    }

    fn verdicts(out: &AdmissionOutcome) -> Vec<String> {
        out.records.iter().map(|r| r.verdict.label()).collect()
    }

    #[test]
    fn token_bucket_refill_is_integer_exact() {
        let cfg = AdmissionConfig {
            queue_depth: 8,
            drain_cycles: 1,
            tenants: vec![TenantQuota {
                tenant: 0,
                cycles_per_token: 1000,
                burst: 1,
                priority: 0,
            }],
            ..AdmissionConfig::default()
        };
        // Burst token at t=0; refills land exactly every 1000 cycles,
        // with the 999-cycle remainder carrying (1999 = 999 + 1000).
        let out = IngestQueue::evaluate(
            &cfg,
            &arrivals(&[
                (0, 0, 0),
                (1, 0, 999),
                (2, 0, 1000),
                (3, 0, 1999),
                (4, 0, 2000),
            ]),
        );
        assert_eq!(
            verdicts(&out),
            vec![
                "admitted",
                "over_quota",
                "admitted",
                "over_quota",
                "admitted"
            ]
        );
    }

    #[test]
    fn ladder_admits_degrades_sheds_and_rejects() {
        let cfg = AdmissionConfig {
            queue_depth: 3,
            drain_cycles: u64::MAX,
            degrade_occupancy_pct: 66,
            tenants: vec![TenantQuota {
                tenant: 1,
                cycles_per_token: 0,
                burst: 0,
                priority: 1,
            }],
            ..AdmissionConfig::default()
        };
        // t0 frames fill the queue (the third lands degraded at 66%
        // occupancy); a t1 arrival sheds the oldest *waiting* t0 frame
        // (frame 0 is in service, never preempted); a final t0 arrival
        // finds no lower-priority victim and is rejected.
        let out = IngestQueue::evaluate(
            &cfg,
            &arrivals(&[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 1, 0), (4, 0, 0)]),
        );
        assert_eq!(
            verdicts(&out),
            vec!["admitted", "shed{0}", "degraded", "degraded", "rejected"]
        );
        assert_eq!(out.peak_in_system, 3);
    }

    #[test]
    fn drop_oldest_evicts_waiting_never_the_head() {
        let cfg = AdmissionConfig::one_burst(Some(2), BackpressurePolicy::DropOldest, 6);
        let out = IngestQueue::evaluate(
            &cfg,
            &arrivals(&[
                (0, 0, 0),
                (1, 0, 0),
                (2, 0, 0),
                (3, 0, 0),
                (4, 0, 0),
                (5, 0, 0),
            ]),
        );
        // Head (frame 0) is in service and survives; the single waiting
        // slot churns, leaving the newest arrival.
        assert_eq!(
            verdicts(&out),
            vec!["admitted", "evicted", "evicted", "evicted", "evicted", "admitted"]
        );
    }

    #[test]
    fn one_burst_reject_new_admits_the_first_depth_arrivals() {
        let cfg = AdmissionConfig::one_burst(Some(3), BackpressurePolicy::RejectNew, 5);
        let out = IngestQueue::evaluate(
            &cfg,
            &arrivals(&[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0)]),
        );
        assert_eq!(
            verdicts(&out),
            vec!["admitted", "admitted", "admitted", "rejected", "rejected"]
        );
    }

    #[test]
    fn drain_model_frees_slots_and_stamps_service_start() {
        let cfg = AdmissionConfig {
            queue_depth: 2,
            drain_cycles: 1000,
            ..AdmissionConfig::default()
        };
        // 2x overload: arrivals every 500 cycles against a 1000-cycle
        // server. The queue oscillates full/with-room.
        let out = IngestQueue::evaluate(
            &cfg,
            &arrivals(&[
                (0, 0, 0),
                (1, 0, 500),
                (2, 0, 1000),
                (3, 0, 1500),
                (4, 0, 2000),
            ]),
        );
        assert_eq!(
            verdicts(&out),
            vec!["admitted", "admitted", "admitted", "rejected", "admitted"]
        );
        // Service chains back-to-back at the modeled drain rate.
        assert_eq!(out.records[0].start_cycle, Some(0));
        assert_eq!(out.records[1].start_cycle, Some(1000));
        assert_eq!(out.records[2].start_cycle, Some(2000));
        assert_eq!(out.records[4].start_cycle, Some(3000));
        assert_eq!(out.records[4].queue_wait_cycles(), 1000);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let cfg = AdmissionConfig {
            queue_depth: 2,
            drain_cycles: 700,
            degrade_occupancy_pct: 50,
            tenants: vec![TenantQuota {
                tenant: 1,
                cycles_per_token: 2000,
                burst: 2,
                priority: 3,
            }],
            ..AdmissionConfig::default()
        };
        let arr = arrivals(&[
            (0, 0, 0),
            (1, 1, 100),
            (2, 0, 200),
            (3, 1, 300),
            (4, 0, 900),
            (5, 1, 1000),
        ]);
        let a = IngestQueue::evaluate(&cfg, &arr);
        let b = IngestQueue::evaluate(&cfg, &arr);
        assert_eq!(a.records, b.records);
        assert_eq!(a.peak_in_system, b.peak_in_system);
    }

    #[test]
    fn admission_metrics_partition_by_verdict_and_tenant() {
        let cfg = AdmissionConfig {
            queue_depth: 2,
            drain_cycles: u64::MAX,
            tenants: vec![TenantQuota {
                tenant: 1,
                cycles_per_token: 0,
                burst: 0,
                priority: 1,
            }],
            ..AdmissionConfig::default()
        };
        let out = IngestQueue::evaluate(
            &cfg,
            &arrivals(&[(0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 0, 0)]),
        );
        let mut reg = Registry::new();
        record_admission_into(&out, &mut reg);
        let snap = esca_telemetry::TelemetrySnapshot::from_registries(&reg, &Registry::new());
        let get = |name: &str, key: &str, value: &str| {
            snap.cycle
                .counters
                .iter()
                .find(|c| c.name == name && c.labels.iter().any(|(k, v)| k == key && v == value))
                .map(|c| c.value)
        };
        assert_eq!(
            get("esca_admission_verdicts_total", "verdict", "admitted"),
            Some(2)
        );
        assert_eq!(
            get("esca_admission_verdicts_total", "verdict", "shed"),
            Some(1)
        );
        assert_eq!(
            get("esca_admission_verdicts_total", "verdict", "rejected"),
            Some(1)
        );
        assert_eq!(get("esca_tenant_frames_total", "tenant", "0"), Some(3));
        assert_eq!(get("esca_tenant_shed_total", "tenant", "0"), Some(2));
        assert_eq!(get("esca_tenant_admitted_total", "tenant", "1"), Some(1));
    }

    fn op(avail: u64, p99: u64, depth: u64) -> OperatingPoint {
        OperatingPoint {
            fault_rate_ppm: 0,
            max_retries: 2,
            cycle_budget: 0,
            queue_depth: depth,
            availability_ppm: avail,
            p99_latency_cycles: p99,
        }
    }

    #[test]
    fn pareto_front_drops_dominated_points_and_selector_meets_slo() {
        let points = vec![
            op(600_000, 1_000, 2),
            op(900_000, 3_000, 4),
            op(1_000_000, 9_000, 8),
            // Dominated: worse availability at higher latency than depth 4.
            op(800_000, 5_000, 6),
        ];
        let front = pareto_front(&points);
        assert_eq!(front.len(), 3);
        assert!(front.iter().all(|p| p.queue_depth != 6));
        // Cheapest point meeting 85% availability is the depth-4 policy.
        let slo = SloTarget {
            min_availability_ppm: 850_000,
            max_p99_latency_cycles: 0,
        };
        assert_eq!(
            select_operating_point(&points, &slo).unwrap().queue_depth,
            4
        );
        // Unreachable SLO falls back to the best-effort point.
        let strict = SloTarget {
            min_availability_ppm: 1_000_000,
            max_p99_latency_cycles: 100,
        };
        assert_eq!(
            select_operating_point(&points, &strict)
                .unwrap()
                .queue_depth,
            8
        );
        assert_eq!(select_operating_point(&[], &slo), None);
    }
}
