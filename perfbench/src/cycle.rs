//! `sim_moving` and `service_small`: the cycle-level accelerator model
//! behind a `StreamingSession`, on the 3-layer quantized Sub-Conv stack.
//!
//! Outputs must be bit-identical to the golden quantized stack
//! (`submanifold_conv3d_q` layer by layer). The traced run replays every
//! completed frame layer by layer through `Esca::run_layer_opts` on the
//! calling thread, with duplicated zero-removing and encode passes timed
//! beside it; all of that is derived work, excluded from the call time,
//! and its `CycleStats` must equal the batch's exactly.

use crate::inputs::RotatingObject;
use crate::stats::Fnv;
use crate::trace::Tracer;
use crate::{Step, Workload};
use esca::admission::{AdmissionConfig, AdmissionVerdict, Arrival, IngestQueue, TenantQuota};
use esca::encode::EncodedFeatureMap;
use esca::resilience::{FaultConfig, ResilientReport};
use esca::streaming::StreamingSession;
use esca::zero_removing::ZeroRemovingUnit;
use esca::{CycleStats, Esca, EscaConfig};
use esca_bench::workloads::{self, GRID_SIDE};
use esca_sscn::quant::{quantize_tensor, submanifold_conv3d_q, QuantizedWeights};
use esca_telemetry::ObservabilityHub;
use esca_tensor::{SparseTensor, Q16};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sub-Conv layers in the accelerator-resident stack.
const STACK_LAYERS: usize = 3;
/// `sim_moving`: a pool of distinct frames, taken `SIM_BATCH` at a time
/// per `run_batch` call. The session keeps no geometry between frames
/// (no plan cache by default), so a frame's second visit costs as much as
/// its first; the pool only bounds set-up time and lets each pool frame's
/// modeled statistics be checked for exact repeats. One worker: on a
/// small shared host it measured steadier than two.
const SIM_FRAMES: usize = 8;
const SIM_BATCH: usize = 2;
const SIM_WORKERS: usize = 1;
/// `service_small`: one burst of 48³ frames per `run_batch_ingest` call.
const SERVICE_GRID: u32 = 48;
const SERVICE_FRAMES: usize = 64;
const SERVICE_WORKERS: usize = 2;
/// Modeled service time per frame, about the mean modeled cycles of one
/// 48³ frame; arrivals every half of it offer about twice the load the
/// modeled server drains.
const SERVICE_DRAIN_CYCLES: u64 = 120_000;
const SERVICE_QUEUE_DEPTH: usize = 8;

type Stack = Vec<(QuantizedWeights, bool)>;

fn quantized_frames(
    seed: u64,
    grid: u32,
    n: usize,
    stack: &Stack,
    voxelize_ms: &mut Vec<f64>,
) -> Vec<SparseTensor<Q16>> {
    let act = stack[0].0.quant().act;
    RotatingObject::new(seed, grid)
        .frames(n, voxelize_ms)
        .iter()
        .map(|f| quantize_tensor(f, act))
        .collect()
}

/// The golden quantized stack on one frame.
fn golden(stack: &Stack, frame: &SparseTensor<Q16>) -> Result<SparseTensor<Q16>, String> {
    let mut x = frame.clone();
    for (w, relu) in stack {
        x = submanifold_conv3d_q(&x, w, *relu).map_err(|e| e.to_string())?;
    }
    Ok(x)
}

fn same_q(a: &SparseTensor<Q16>, b: &SparseTensor<Q16>) -> bool {
    a.channels() == b.channels() && a.coords() == b.coords() && a.features() == b.features()
}

/// Modeled figures of one replayed pool frame, summed over its layers.
#[derive(Default, Clone)]
struct Modeled {
    stats: CycleStats,
    encode_bytes: u64,
    scan_busy: u64,
    fetch_busy: u64,
    compute_busy: u64,
    drain: u64,
    fifo_stall: u64,
}

/// The traced replay: host times summed over every replayed frame, and
/// modeled figures kept once per distinct pool frame, so the per-frame
/// modeled means do not depend on where the traced phase stopped.
#[derive(Default)]
struct Replay {
    frames: u64,
    layer_ns: u64,
    zero_removing_ns: u64,
    encode_ns: u64,
    modeled: BTreeMap<usize, Modeled>,
}

impl Replay {
    /// Replays pool frame `index` layer by layer; returns its summed stats.
    fn frame(
        &mut self,
        esca: &Esca,
        stack: &Stack,
        (index, frame): (usize, &SparseTensor<Q16>),
        load_weights: bool,
        tr: &mut Tracer,
    ) -> Result<CycleStats, String> {
        let tile = esca.config().tile;
        tr.set_frame(index as u64);
        let root = tr.begin_derived("esca.frame.replay", None);
        let mut x = frame.clone();
        let mut m = Modeled::default();
        for (w, relu) in stack {
            let s = tr.begin_derived("esca.zero_removing", Some(root));
            black_box(ZeroRemovingUnit::default().run(&x, tile));
            tr.end(s);
            self.zero_removing_ns += tr.spans()[s].duration_ns();
            let s = tr.begin_derived("esca.encode", Some(root));
            let enc = EncodedFeatureMap::encode(&x, tile).map_err(|e| e.to_string())?;
            tr.end(s);
            self.encode_ns += tr.spans()[s].duration_ns();
            m.encode_bytes += enc.total_bytes() as u64;
            let s = tr.begin_derived("esca.accelerator.run_layer", Some(root));
            let run = esca
                .run_layer_opts(&x, w, *relu, load_weights)
                .map_err(|e| e.to_string())?;
            tr.end(s);
            self.layer_ns += tr.spans()[s].duration_ns();
            m.stats += &run.stats;
            let t = &run.telemetry;
            m.scan_busy += t.scan_busy_cycles;
            m.fetch_busy += t.fetch_busy_cycles;
            m.compute_busy += t.compute_busy_cycles;
            m.drain += t.drain_cycles;
            m.fifo_stall += t.stall_fifo_full_cycles;
            x = run.output;
        }
        tr.end(root);
        self.frames += 1;
        let stats = m.stats.clone();
        self.modeled.entry(index).or_insert(m);
        Ok(stats)
    }

    fn metrics(&self, out: &mut BTreeMap<&'static str, f64>) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let ms = |ns: u64| ns as f64 / 1e6 / self.frames.max(1) as f64;
        let mut m = Modeled::default();
        for f in self.modeled.values() {
            m.stats += &f.stats;
            m.encode_bytes += f.encode_bytes;
            m.scan_busy += f.scan_busy;
            m.fetch_busy += f.fetch_busy;
            m.compute_busy += f.compute_busy;
            m.drain += f.drain;
            m.fifo_stall += f.fifo_stall;
        }
        let per = self.modeled.len().max(1) as f64;
        let s = &m.stats;
        // Host time per modeled cycle pairs every replayed frame's time
        // with the same frames' cycles.
        let cycles_per_frame = s.total_cycles() as f64 / per;
        out.insert("esca.zero_removing.ms", ms(self.zero_removing_ns));
        out.insert(
            "esca.zero_removing.cycles",
            s.zero_removing_cycles as f64 / per,
        );
        out.insert(
            "esca.zero_removing.active_tile_ratio",
            ratio(s.active_tiles, s.total_tiles),
        );
        out.insert("esca.encode.ms", ms(self.encode_ns));
        out.insert("esca.encode.bytes", m.encode_bytes as f64 / per);
        out.insert("esca.accelerator.layer_ms", ms(self.layer_ns));
        out.insert(
            "esca.accelerator.tile_loop_ms",
            ms(self
                .layer_ns
                .saturating_sub(self.zero_removing_ns + self.encode_ns)),
        );
        out.insert(
            "esca.accelerator.host_ns_per_cycle",
            if cycles_per_frame == 0.0 {
                0.0
            } else {
                ms(self.layer_ns) * 1e6 / cycles_per_frame
            },
        );
        for (name, v) in [
            ("esca.accelerator.scan_busy_cycles", m.scan_busy),
            ("esca.accelerator.fetch_busy_cycles", m.fetch_busy),
            ("esca.accelerator.compute_busy_cycles", m.compute_busy),
            ("esca.accelerator.drain_cycles", m.drain),
            ("esca.accelerator.fifo_stall_cycles", m.fifo_stall),
            ("esca.accelerator.dram_stall_cycles", s.dram_stall_cycles),
            ("esca.accelerator.match_cycles", s.match_cycles),
        ] {
            out.insert(name, v as f64 / per);
        }
        out.insert("esca.accelerator.array_utilization", s.array_utilization());
        out.insert(
            "esca.accelerator.scanned_sites_per_group",
            ratio(s.scanned_sites, s.match_groups),
        );
    }
}

/// What a frame of the reference call produced.
struct FrameRef {
    output: Option<SparseTensor<Q16>>,
    stats: Option<CycleStats>,
    verdict: String,
}

/// Compares a call's frames with the references of the same pool
/// frames, starting at pool index `start`; a frame seen for the first
/// time becomes its reference. Returns the number of frames that differ.
fn check_refs(refs: &mut [Option<FrameRef>], start: usize, got: Vec<FrameRef>) -> u64 {
    let mut differ = 0;
    for (slot, g) in refs[start..].iter_mut().zip(got) {
        match slot {
            Some(r) => {
                let same_out = match (&r.output, &g.output) {
                    (Some(a), Some(b)) => same_q(a, b),
                    (None, None) => true,
                    _ => false,
                };
                differ += u64::from(!(same_out && r.stats == g.stats && r.verdict == g.verdict));
            }
            None => *slot = Some(g),
        }
    }
    differ
}

/// Mean modeled cycles over the distinct frames that completed: exact,
/// since every reference is checked to repeat bit for bit.
fn mean_cycles(refs: &[Option<FrameRef>]) -> Option<f64> {
    let cycles: Vec<u64> = refs
        .iter()
        .flatten()
        .filter_map(|r| r.stats.as_ref().map(CycleStats::total_cycles))
        .collect();
    (!cycles.is_empty()).then(|| cycles.iter().sum::<u64>() as f64 / cycles.len() as f64)
}

fn digest_refs(refs: &[Option<FrameRef>], h: &mut Fnv) {
    for r in refs.iter().flatten() {
        h.str(&r.verdict);
        if let Some(o) = &r.output {
            h.tensor(o, |v: Q16| v.0.to_le_bytes());
        }
        if let Some(s) = &r.stats {
            h.str(&serde_json::to_string(s).expect("CycleStats serializes"));
        }
    }
}

pub struct SimMoving {
    session: StreamingSession,
    esca: Esca,
    stack: Stack,
    frames: Vec<SparseTensor<Q16>>,
    /// Pool index of the next batch's first frame.
    next: usize,
    refs: Vec<Option<FrameRef>>,
    replay: Replay,
    voxelize_ms: Vec<f64>,
}

impl SimMoving {
    pub fn new(seed: u64) -> Result<Self, String> {
        let stack = workloads::streaming_stack(STACK_LAYERS);
        let mut voxelize_ms = Vec::new();
        let frames = quantized_frames(seed, GRID_SIDE, SIM_FRAMES, &stack, &mut voxelize_ms);
        let esca = Esca::new(EscaConfig::default()).map_err(|e| e.to_string())?;
        let session = StreamingSession::new(esca.clone(), stack.clone(), SIM_WORKERS);
        let mut sim = SimMoving {
            session,
            esca,
            stack,
            refs: (0..frames.len()).map(|_| None).collect(),
            frames,
            next: 0,
            replay: Replay::default(),
            voxelize_ms,
        };
        // Warm-up call; its frames become references like any first pass.
        sim.step(None)?;
        Ok(sim)
    }
}

impl Workload for SimMoving {
    fn workers(&self) -> usize {
        self.session.workers()
    }

    fn step(&mut self, tracer: Option<&mut Tracer>) -> Result<Step, String> {
        let start = self.next;
        let batch = &self.frames[start..start + SIM_BATCH];
        self.next = (start + SIM_BATCH) % self.frames.len();
        let t = Instant::now();
        let report = self.session.run_batch(batch);
        let call = t.elapsed();
        let Ok(report) = report else {
            return Ok(Step::errored(call, batch.len()));
        };
        let got = report
            .outputs
            .iter()
            .zip(&report.per_frame)
            .map(|(o, s)| FrameRef {
                output: Some(o.clone()),
                stats: Some(s.clone()),
                verdict: String::new(),
            })
            .collect();
        let mut failed = check_refs(&mut self.refs, start, got);
        if let Some(tr) = tracer {
            for (i, (frame, want)) in batch.iter().zip(&report.per_frame).enumerate() {
                // `run_batch` charges the weight load to a batch's first frame.
                let stats =
                    self.replay
                        .frame(&self.esca, &self.stack, (start + i, frame), i == 0, tr)?;
                failed += u64::from(&stats != want);
            }
        }
        Ok(Step {
            call,
            offered: batch.len() as u64,
            completed: report.per_frame.len() as u64,
            failed,
            cycles: report.per_frame.iter().map(CycleStats::total_cycles).sum(),
            frame_wall: report.frame_wall.iter().sum(),
        })
    }

    fn verify(&self) -> Result<(u64, u64), String> {
        let mut checked = 0;
        let mut failed = 0;
        for (frame, r) in self.frames.iter().zip(&self.refs) {
            let Some(r) = r else { continue };
            checked += 1;
            let want = golden(&self.stack, frame)?;
            failed += u64::from(!r.output.as_ref().is_some_and(|o| same_q(o, &want)));
        }
        Ok((checked, failed))
    }

    fn digest(&self, h: &mut Fnv) {
        digest_refs(&self.refs, h);
    }

    fn modeled_cycles_per_frame(&self) -> Option<f64> {
        mean_cycles(&self.refs)
    }

    fn layer_metrics(&self, _tr: &Tracer, out: &mut BTreeMap<&'static str, f64>) {
        self.replay.metrics(out);
    }

    fn voxelize_ms(&self) -> &[f64] {
        &self.voxelize_ms
    }
}

/// Per-burst service-layer counts of the traced run.
#[derive(Default)]
struct ServiceTotals {
    calls: u64,
    evaluate_ns: u64,
    render_ns: u64,
    series: u64,
    flight_events: u64,
}

pub struct ServiceSmall {
    session: StreamingSession,
    hub: Arc<ObservabilityHub>,
    esca: Esca,
    stack: Stack,
    frames: Vec<SparseTensor<Q16>>,
    arrivals: Vec<Arrival>,
    admission: AdmissionConfig,
    faults: FaultConfig,
    refs: Vec<Option<FrameRef>>,
    /// Counters of the reference burst, in `esca.admission.*` /
    /// `esca.resilience.*` order.
    burst: Vec<(&'static str, f64)>,
    replay: Replay,
    totals: ServiceTotals,
    voxelize_ms: Vec<f64>,
}

impl ServiceSmall {
    pub fn new(seed: u64) -> Result<Self, String> {
        let stack = workloads::streaming_stack(STACK_LAYERS);
        let mut voxelize_ms = Vec::new();
        let frames = quantized_frames(seed, SERVICE_GRID, SERVICE_FRAMES, &stack, &mut voxelize_ms);
        let esca = Esca::new(EscaConfig::default()).map_err(|e| e.to_string())?;
        let hub = Arc::new(ObservabilityHub::new());
        let session = StreamingSession::new(esca.clone(), stack.clone(), SERVICE_WORKERS)
            .with_hub(Arc::clone(&hub));
        // Two of every three arrivals are tenant 1's, which alone offers
        // more than the server drains, so the queue fills and every rung
        // of the ladder is taken: tenant 1 outranks tenant 2 (shedding
        // its waiting frames), and tenant 2's token bucket refills at half
        // its arrival rate (over-quota rejections).
        let period = SERVICE_DRAIN_CYCLES / 2;
        let arrivals = (0..frames.len())
            .map(|i| Arrival {
                frame: i,
                tenant: if i % 3 == 2 { 2 } else { 1 },
                at_cycle: i as u64 * period,
            })
            .collect();
        let admission = AdmissionConfig {
            queue_depth: SERVICE_QUEUE_DEPTH,
            drain_cycles: SERVICE_DRAIN_CYCLES,
            tenants: vec![
                TenantQuota {
                    tenant: 1,
                    cycles_per_token: 0,
                    burst: 0,
                    priority: 1,
                },
                TenantQuota {
                    tenant: 2,
                    cycles_per_token: 6 * period,
                    burst: 2,
                    priority: 0,
                },
            ],
            ..AdmissionConfig::default()
        };
        let mut svc = ServiceSmall {
            session,
            hub,
            esca,
            stack,
            frames,
            arrivals,
            admission,
            faults: FaultConfig::off(seed),
            refs: Vec::new(),
            burst: Vec::new(),
            replay: Replay::default(),
            totals: ServiceTotals::default(),
            voxelize_ms,
        };
        // Warm-up burst; its frames are the reference every burst must match.
        let (report, got) = svc.call().1?;
        svc.refs = got.into_iter().map(Some).collect();
        svc.burst = burst_counts(&report);
        Ok(svc)
    }

    /// One burst: its host time, and the report with every frame's fate.
    fn call(&self) -> (Duration, Result<(ResilientReport, Vec<FrameRef>), String>) {
        let t = Instant::now();
        let report = self.session.run_batch_ingest(
            &self.frames,
            &self.arrivals,
            &self.faults,
            &self.admission,
        );
        let call = t.elapsed();
        let report = match report {
            Ok(r) => r,
            Err(e) => return (call, Err(e.to_string())),
        };
        let frames = (0..self.frames.len())
            .map(|i| FrameRef {
                output: report.outputs[i].clone(),
                stats: report.per_frame[i].clone(),
                verdict: format!(
                    "{}@{:?}",
                    report.admissions[i].verdict.label(),
                    report.admissions[i].start_cycle
                ),
            })
            .collect();
        (call, Ok((report, frames)))
    }
}

fn burst_counts(report: &ResilientReport) -> Vec<(&'static str, f64)> {
    let count = |f: fn(AdmissionVerdict) -> bool| {
        report.admissions.iter().filter(|a| f(a.verdict)).count() as f64
    };
    let c = &report.counters;
    let offered = report.admissions.len().max(1) as f64;
    let admitted = count(AdmissionVerdict::runs);
    vec![
        ("esca.admission.admitted", admitted),
        (
            "esca.admission.shed",
            count(|v| matches!(v, AdmissionVerdict::Shed { .. })),
        ),
        (
            "esca.admission.rejected",
            count(|v| {
                matches!(
                    v,
                    AdmissionVerdict::RejectedQueueFull | AdmissionVerdict::Evicted
                )
            }),
        ),
        (
            "esca.admission.over_quota",
            count(|v| v == AdmissionVerdict::RejectedOverQuota),
        ),
        ("esca.admission.peak_queue", report.queue_peak as f64),
        ("esca.admission.refused_ratio", 1.0 - admitted / offered),
        ("esca.resilience.retries", c.retries_total as f64),
        ("esca.resilience.fallbacks", c.fallbacks as f64),
        ("esca.resilience.failed", c.failed_frames as f64),
    ]
}

impl Workload for ServiceSmall {
    fn workers(&self) -> usize {
        self.session.workers()
    }

    fn step(&mut self, tracer: Option<&mut Tracer>) -> Result<Step, String> {
        let flight0 = self.hub.flight().recorded();
        let (call, result) = self.call();
        let Ok((report, got)) = result else {
            return Ok(Step::errored(call, self.frames.len()));
        };
        let offered = self.frames.len() as u64;
        let flight = self.hub.flight().recorded() - flight0;
        // Every admitted frame must complete (faults are off), and the
        // flight recorder holds exactly one terminal event per frame.
        let lost = report
            .admissions
            .iter()
            .filter(|a| a.verdict.runs() && report.outputs[a.frame].is_none())
            .count() as u64;
        let mut failed = check_refs(&mut self.refs, 0, got) + lost + flight.abs_diff(offered);
        if let Some(tr) = tracer {
            tr.set_frame(self.totals.calls);
            let s = tr.begin_derived("esca.admission.evaluate", None);
            black_box(IngestQueue::evaluate(&self.admission, &self.arrivals));
            tr.end(s);
            self.totals.evaluate_ns += tr.spans()[s].duration_ns();
            let s = tr.begin("telemetry.render", None);
            let snap = self.hub.snapshot();
            black_box(snap.to_prometheus_text());
            tr.end(s);
            self.totals.render_ns += tr.spans()[s].duration_ns();
            self.totals.series += [&snap.cycle, &snap.host]
                .iter()
                .map(|m| (m.counters.len() + m.gauges.len() + m.histograms.len()) as u64)
                .sum::<u64>();
            self.totals.flight_events += flight;
            self.totals.calls += 1;
            let first = report
                .admissions
                .iter()
                .find(|a| a.verdict.runs())
                .map(|a| a.frame);
            for (i, (frame, want)) in self.frames.iter().zip(&report.per_frame).enumerate() {
                let Some(want) = want else { continue };
                let load = Some(i) == first;
                let stats = self
                    .replay
                    .frame(&self.esca, &self.stack, (i, frame), load, tr)?;
                failed += u64::from(&stats != want);
            }
        }
        let completed: Vec<&CycleStats> = report.per_frame.iter().flatten().collect();
        Ok(Step {
            call,
            offered,
            completed: completed.len() as u64,
            failed,
            cycles: completed.iter().map(|s| s.total_cycles()).sum(),
            frame_wall: report.frame_wall.iter().sum(),
        })
    }

    fn verify(&self) -> Result<(u64, u64), String> {
        let mut checked = 0;
        let mut failed = 0;
        for (frame, r) in self.frames.iter().zip(&self.refs) {
            let Some(out) = r.as_ref().and_then(|r| r.output.as_ref()) else {
                continue;
            };
            checked += 1;
            failed += u64::from(!same_q(out, &golden(&self.stack, frame)?));
        }
        Ok((checked, failed))
    }

    fn digest(&self, h: &mut Fnv) {
        digest_refs(&self.refs, h);
    }

    fn modeled_cycles_per_frame(&self) -> Option<f64> {
        mean_cycles(&self.refs)
    }

    fn layer_metrics(&self, _tr: &Tracer, out: &mut BTreeMap<&'static str, f64>) {
        self.replay.metrics(out);
        let per = self.totals.calls.max(1) as f64;
        for &(name, v) in &self.burst {
            out.insert(name, v);
        }
        out.insert(
            "esca.admission.evaluate_us",
            self.totals.evaluate_ns as f64 / 1e3 / per,
        );
        out.insert(
            "telemetry.render_ms",
            self.totals.render_ns as f64 / 1e6 / per,
        );
        out.insert("telemetry.series", self.totals.series as f64 / per);
        out.insert(
            "telemetry.flight_events",
            self.totals.flight_events as f64 / (per * self.frames.len() as f64),
        );
    }

    fn voxelize_ms(&self) -> &[f64] {
        &self.voxelize_ms
    }
}
