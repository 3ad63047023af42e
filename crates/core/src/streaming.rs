//! Multi-frame streaming engine: concurrent inference over a queue of
//! voxelized frames (the AR/VR and autonomous-driving deployments the
//! paper's introduction motivates), on a persistent worker pool.
//!
//! The simulated timing model is **unchanged** by concurrency: every
//! frame's [`CycleStats`] is bit-identical to what the sequential
//! [`Esca::run_network_stream`] path produces (weight load charged on
//! frame 0 only, steady-state weights-resident frames afterwards), and
//! batch results are returned in frame order regardless of completion
//! order. What concurrency buys is host wall-clock — plus a deterministic
//! *modeled* multi-engine deployment throughput derived purely from the
//! per-frame cycle counts (see [`StreamReport::modeled`]), which is the
//! number an FPGA with several ESCA instances would actually sustain.

use crate::accelerator::{Esca, LayerOpts, NetworkRun};
use crate::stats::CycleStats;
use crate::system::{run_unet, HostModel, SystemRun};
use crate::telemetry::LayerSpan;
use crate::Result;
use crossbeam::channel;
use esca_sscn::engine::RulebookCache;
use esca_sscn::gemm::GemmBackendKind;
use esca_sscn::quant::QuantizedWeights;
use esca_sscn::unet::SsUNet;
use esca_telemetry::serve::{HealthReport, ObservabilityHub, OperatingPoint};
use esca_telemetry::{host, ChromeTrace, FlightEvent, FrameSpanCtx, Registry, TelemetrySnapshot};
use esca_tensor::{SparseTensor, Q16};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Jobs receive the index of the worker thread that runs them, so batch
/// collectors can attribute host-domain work (frames per worker) without
/// any thread-local state.
type Job = Box<dyn FnOnce(usize) + Send + 'static>;

/// A persistent pool of worker threads consuming boxed jobs from an
/// unbounded channel. Threads live for the lifetime of the pool (they are
/// joined on drop), so repeated batches reuse them — the "persistent
/// worker pool" half of the streaming engine.
///
/// Workers survive panicking jobs: each job runs under `catch_unwind`, so
/// a panic is counted ([`WorkerPool::panicked_jobs`]) and the thread goes
/// back to the queue instead of dying and silently shrinking the pool.
pub struct WorkerPool {
    sender: Option<channel::Sender<Job>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    panicked: Arc<AtomicU64>,
    rejected: AtomicU64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .field("panicked_jobs", &self.panicked_jobs())
            .field("rejected_jobs", &self.rejected_jobs())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool with `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = channel::unbounded::<Job>();
        let panicked = Arc::new(AtomicU64::new(0));
        let handles = (0..workers)
            .map(|worker| {
                let rx = rx.clone();
                let panicked = Arc::clone(&panicked);
                std::thread::spawn(move || {
                    while let Ok(job) = rx.recv() {
                        // The closure owns the boxed job and any state it
                        // captured; on panic that state is discarded
                        // whole, never observed half-mutated, so the
                        // unwind-safety assertion holds.
                        let run = std::panic::AssertUnwindSafe(move || job(worker));
                        if std::panic::catch_unwind(run).is_err() {
                            panicked.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        WorkerPool {
            sender: Some(tx),
            handles,
            panicked,
            rejected: AtomicU64::new(0),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Jobs that panicked while running (caught; the worker survived).
    pub fn panicked_jobs(&self) -> u64 {
        self.panicked.load(Ordering::Relaxed)
    }

    /// Jobs rejected by [`WorkerPool::execute`] because the queue channel
    /// was disconnected.
    pub fn rejected_jobs(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Enqueues a job; it runs on the first free worker, which passes its
    /// own index (in `0..workers`) to the closure.
    ///
    /// # Errors
    ///
    /// Returns [`crate::EscaError::PoolClosed`] (and counts the rejection)
    /// when the queue channel is disconnected — the job was *not*
    /// enqueued and will never run. This cannot happen through the public
    /// API before the pool is dropped, but a silently discarded job is
    /// exactly the failure mode that loses frames, so the send result is
    /// surfaced instead of swallowed.
    pub fn execute(&self, job: impl FnOnce(usize) + Send + 'static) -> crate::Result<()> {
        let sent = match self.sender.as_ref() {
            Some(tx) => tx.send(Box::new(job)).map_err(|_| ()),
            None => Err(()),
        };
        sent.map_err(|()| {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            crate::EscaError::PoolClosed
        })
    }
}

/// Delivers a job result to its batch collector. The collector drains
/// exactly as many messages as jobs were submitted, so a failed send means
/// it was abandoned mid-batch (a panic unwound it); the result is
/// undeliverable and the drop is counted so it can never pass silently.
fn deliver<T>(tx: &channel::Sender<T>, undelivered: &AtomicU64, msg: T) {
    if tx.send(msg).is_err() {
        undelivered.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect the channel so workers drain and exit, then join.
        drop(self.sender.take());
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A streaming inference session: an accelerator plus a quantized layer
/// stack bound to a persistent [`WorkerPool`], accepting batches of
/// voxelized frames.
#[derive(Debug)]
pub struct StreamingSession {
    pub(crate) esca: Arc<Esca>,
    pub(crate) layers: Arc<Vec<(QuantizedWeights, bool)>>,
    pub(crate) pool: WorkerPool,
    pub(crate) layer_shards: usize,
    pub(crate) rulebook_cache: Arc<RulebookCache>,
    pub(crate) gemm_backend: GemmBackendKind,
    pub(crate) matching_reuse: bool,
    pub(crate) hub: Option<Arc<ObservabilityHub>>,
    pub(crate) operating_point: Option<OperatingPoint>,
}

/// One slot's result as delivered by [`StreamingSession::fan_out`]: the
/// job's value plus the host facts of its run.
pub(crate) struct Arrived<T> {
    /// What the job returned.
    pub(crate) value: T,
    /// Host wall-clock the job took.
    pub(crate) wall: Duration,
    /// Pool worker that ran the job.
    pub(crate) worker: usize,
}

/// The result of one [`StreamingSession::fan_out`].
pub(crate) struct FanOut<T> {
    /// One entry per slot, in slot order;
    /// [`crate::EscaError::WorkerPanic`] for a slot that never reported.
    pub(crate) slots: Vec<Result<Arrived<T>>>,
    /// Results that could not be delivered (always zero unless the
    /// collector was unwound mid-batch).
    pub(crate) undelivered: u64,
}

impl<T> FanOut<Result<T>> {
    /// The job values in slot order, or the lowest failing slot's error
    /// (deterministic across worker counts).
    fn into_values(self) -> Result<Vec<T>> {
        self.slots
            .into_iter()
            .map(|s| s.and_then(|a| a.value))
            .collect()
    }
}

/// Records one completed frame's cycle-domain series — its stats, its
/// telemetry and the `esca_frame_cycles` observation — into `reg`.
pub(crate) fn record_frame(reg: &mut Registry, run: &NetworkRun) {
    run.total.record_into(reg);
    run.telemetry.record_into(reg);
    reg.observe("esca_frame_cycles", &[], run.total.total_cycles());
}

/// The frame-order fold shared by the cycle runners: records the frame
/// into the cycle registry and returns its span-context trace.
pub(crate) fn fold_frame(
    reg: &mut Registry,
    run: &NetworkRun,
    ctx: FrameSpanCtx,
) -> FrameSpanTrace {
    record_frame(reg, run);
    FrameSpanTrace {
        ctx,
        total_cycles: run.total.total_cycles(),
        spans: run.telemetry.layer_spans.clone(),
    }
}

impl StreamingSession {
    /// Creates a session over `workers` pool threads. `layers` is the
    /// resident network: `(weights, relu)` per Sub-Conv layer, applied in
    /// order to every frame.
    pub fn new(esca: Esca, layers: Vec<(QuantizedWeights, bool)>, workers: usize) -> Self {
        StreamingSession {
            esca: Arc::new(esca),
            layers: Arc::new(layers),
            pool: WorkerPool::new(workers),
            layer_shards: 1,
            rulebook_cache: Arc::new(RulebookCache::new()),
            gemm_backend: GemmBackendKind::from_env(),
            matching_reuse: false,
            hub: None,
            operating_point: None,
        }
    }

    /// Attaches an [`ObservabilityHub`]: batch runs publish live
    /// snapshots and health reports through it (one `Arc` swap per frame
    /// arrival) and append one terminal [`FlightEvent`] per frame to its
    /// flight ring. Without a hub the batch paths skip all of this —
    /// observability is strictly opt-in on the hot path.
    pub fn with_hub(mut self, hub: Arc<ObservabilityHub>) -> Self {
        self.hub = Some(hub);
        self
    }

    /// The attached observability hub, if any.
    pub fn hub(&self) -> Option<&Arc<ObservabilityHub>> {
        self.hub.as_ref()
    }

    /// Pins the SLO operating point the session runs under (the
    /// `slo_front` selector's choice from the availability/latency
    /// Pareto front); `/healthz` publishes it so an external controller
    /// can see which policy the service believes it is running.
    pub fn with_operating_point(mut self, op: OperatingPoint) -> Self {
        self.operating_point = Some(op);
        self
    }

    /// The pinned SLO operating point, if any.
    pub fn operating_point(&self) -> Option<&OperatingPoint> {
        self.operating_point.as_ref()
    }

    /// A point-in-time health report from the pool counters
    /// (unbounded-admission paths).
    pub(crate) fn health_report(
        &self,
        phase: &str,
        submitted: u64,
        completed: u64,
        dropped: u64,
    ) -> HealthReport {
        self.health_report_admission(phase, submitted, completed, dropped, "unbounded", 0)
    }

    /// A point-in-time health report carrying the live admission state
    /// (ingest-queue policy label + depth) and the pinned operating
    /// point.
    pub(crate) fn health_report_admission(
        &self,
        phase: &str,
        submitted: u64,
        completed: u64,
        dropped: u64,
        admission_policy: &str,
        admission_depth: u64,
    ) -> HealthReport {
        let panicked = self.pool.panicked_jobs();
        let rejected = self.pool.rejected_jobs();
        HealthReport {
            healthy: rejected == 0,
            phase: phase.to_string(),
            workers: self.pool.workers() as u64,
            panicked_jobs: panicked,
            rejected_jobs: rejected,
            frames_submitted: submitted,
            frames_completed: completed,
            frames_dropped: dropped,
            admission_policy: admission_policy.to_string(),
            admission_depth,
            operating_point: self.operating_point,
        }
    }

    /// Additionally shards tile-level compute *within* each layer across
    /// `shards` threads (the [`LayerOpts::shards`] every cycle-model
    /// layer of the session runs with); results, cycle stats, telemetry
    /// and traces stay bit-identical. Useful when frames are few but
    /// large.
    pub fn with_layer_shards(mut self, shards: usize) -> Self {
        self.layer_shards = shards.max(1);
        self
    }

    /// Replaces the session's rulebook cache with a shared one, so
    /// matching work done by other sessions (or earlier host-side runs)
    /// carries over into [`StreamingSession::run_golden_batch`]. With
    /// matching reuse off (the default) simulated [`CycleStats`] never
    /// depend on the cache. With reuse on
    /// ([`StreamingSession::with_matching_reuse`]) its pre-batch contents
    /// decide which frames run matching-resident, so residency and match
    /// cycles do depend on it — outputs never do.
    pub fn with_rulebook_cache(mut self, cache: Arc<RulebookCache>) -> Self {
        self.rulebook_cache = cache;
        self
    }

    /// The session's rulebook cache (hit/miss counters included).
    pub fn rulebook_cache(&self) -> &Arc<RulebookCache> {
        &self.rulebook_cache
    }

    /// Turns matching reuse in the cycle model on or off (default off).
    /// With reuse on, [`StreamingSession::run_batch`] and
    /// [`StreamingSession::run_batch_ingest`] run a frame
    /// **matching-resident** (see
    /// [`crate::config::EscaConfig::matching_resident`]) when its geometry
    /// is already resident: an earlier frame of the batch has the same
    /// active set, or the session's [`RulebookCache`] holds the frame's
    /// Sub-Conv rulebook for every kernel size in the stack. Outputs never
    /// change; only match cycles collapse.
    pub fn with_matching_reuse(mut self, on: bool) -> Self {
        self.matching_reuse = on;
        self
    }

    /// Deterministic per-frame matching-residency hints for the frames a
    /// batch runs, in run order (the rule of
    /// [`StreamingSession::with_matching_reuse`]). Pure function of the
    /// frame sequence and the cache's pre-batch contents (probed with
    /// [`RulebookCache::contains_rulebook`], which touches no counter),
    /// so the hints — and every cycle statistic derived from them — are
    /// byte-identical across worker and shard counts. With reuse off
    /// every hint is `false` and no fingerprint is computed.
    pub(crate) fn residency_hints<'a>(
        &self,
        frames: impl IntoIterator<Item = &'a SparseTensor<Q16>>,
    ) -> Vec<bool> {
        if !self.matching_reuse {
            return frames.into_iter().map(|_| false).collect();
        }
        let mut kernels: Vec<u32> = self.layers.iter().map(|(w, _)| w.k()).collect();
        kernels.sort_unstable();
        kernels.dedup();
        let cache = &self.rulebook_cache;
        let mut seen = std::collections::HashSet::new();
        frames
            .into_iter()
            .map(|f| {
                !seen.insert(f.active_fingerprint())
                    || (!kernels.is_empty()
                        && kernels.iter().all(|&k| cache.contains_rulebook(f, k)))
            })
            .collect()
    }

    /// Selects the GEMM backend for the golden path
    /// ([`StreamingSession::run_golden_batch`]). Quantized accumulation is
    /// integer-exact, so outputs stay bit-identical across backends; this
    /// only trades speed. Defaults to [`GemmBackendKind::from_env`].
    pub fn with_gemm_backend(mut self, backend: GemmBackendKind) -> Self {
        self.gemm_backend = backend;
        self
    }

    /// The GEMM backend used by the golden path.
    pub fn gemm_backend(&self) -> GemmBackendKind {
        self.gemm_backend
    }

    /// Number of pool workers.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The accelerator configuration clock, MHz.
    pub fn clock_mhz(&self) -> f64 {
        self.esca.config().clock_mhz
    }

    /// Runs a batch of frames through the resident layer stack.
    ///
    /// Frame 0 is charged the DRAM weight load, later frames run with
    /// weights resident — exactly the accounting of
    /// [`Esca::run_network_stream`] — and frames execute concurrently on
    /// the pool. Results are ordered by frame index; per-frame
    /// [`CycleStats`] are bit-identical to the sequential path for any
    /// worker count.
    ///
    /// # Errors
    ///
    /// Propagates the accelerator error of the lowest-indexed failing
    /// frame (deterministic across worker counts), or
    /// [`crate::EscaError::WorkerPanic`] for a frame whose job died
    /// without reporting.
    pub fn run_batch(&self, frames: &[SparseTensor<Q16>]) -> Result<StreamReport> {
        // Host-throughput reporting only (StreamReport::wall); never feeds
        // CycleStats. Audited in analyze/allowlist.tsv (L1-wall-clock).
        #[allow(clippy::disallowed_methods)]
        let start = Instant::now();
        let n = frames.len();
        // Residency hints are derived sequentially on the calling thread,
        // before any job is submitted, so they cannot depend on worker
        // scheduling.
        let hints = self.residency_hints(frames);
        let opts = |load_weights: bool, matching_resident: bool| LayerOpts {
            load_weights,
            matching_resident,
            shards: self.layer_shards,
        };
        // Slot `idx < n` runs frame `idx`; slot `n` is the steady-state
        // probe: frame 0 re-run with weights resident, so the deployment
        // model knows the pure weight-load overhead. The probe differs
        // from frame 0 only by the weight load, so weight_load_cycles()
        // stays a pure weight-path delta; it contributes to neither the
        // outputs nor the wall stats.
        let inputs: Vec<(SparseTensor<Q16>, LayerOpts)> = frames
            .iter()
            .zip(&hints)
            .enumerate()
            .map(|(idx, (frame, &hint))| (frame.clone(), opts(idx == 0, hint)))
            .chain(
                frames
                    .first()
                    .zip(hints.first())
                    .map(|(frame, &hint)| (frame.clone(), opts(false, hint))),
            )
            .collect();
        let slots = inputs.len();
        let esca = Arc::clone(&self.esca);
        let layers = Arc::clone(&self.layers);
        let job = move |(frame, opts): (SparseTensor<Q16>, LayerOpts)| {
            esca.run_chain(&frame, &layers, opts)
        };

        // Live exposition (hub attached only): arrivals fold into interim
        // registries in completion order — legal because the merge rules
        // are commutative — and each arrival publishes a fresh snapshot
        // through the hub's Arc swap. The *final* report below is still
        // built in frame order from scratch, so its cycle half stays
        // byte-identical across worker/shard splits; the live view is a
        // monotone prefix of the same data.
        let mut live_cycle = Registry::new();
        let mut live_host = Registry::new();
        let mut completed = 0u64;
        let backend_label = self.gemm_backend.label();
        let publish = |slot: usize, a: &Arrived<Result<NetworkRun>>| {
            let Some(hub) = self.hub.as_ref().filter(|_| slot < n) else {
                return;
            };
            let event = FlightEvent {
                worker: a.worker as u64,
                backend: backend_label.to_string(),
                wall_micros: a.wall.as_micros() as u64,
                ..FlightEvent::for_frame(slot as u64)
            };
            let Ok(run) = &a.value else {
                hub.record_flight(FlightEvent {
                    outcome: "failed".to_string(),
                    ..event
                });
                return;
            };
            completed += 1;
            record_frame(&mut live_cycle, run);
            host::observe_wall(&mut live_host, "esca_frame_wall_micros", &[], a.wall);
            hub.record_flight(FlightEvent {
                matching_resident: hints[slot],
                cycles: run.total.total_cycles(),
                ..event
            });
            hub.publish_snapshot(TelemetrySnapshot::from_registries(&live_cycle, &live_host));
            hub.publish_health(self.health_report("streaming", n as u64, completed, 0));
        };
        let fan = self.fan_out(inputs, job, publish)?;
        let mut runs = fan
            .slots
            .into_iter()
            .map(|s| s.and_then(|a| a.value.map(|run| (run, a.wall, a.worker))))
            .collect::<Result<Vec<_>>>()?;
        let steady_frame0 = if n > 0 {
            runs.pop().map(|(probe, _, _)| probe.total)
        } else {
            None
        };

        // Two strictly separated registries (DESIGN.md: Observability).
        // The cycle registry folds per-frame simulated telemetry in frame
        // order — every input is deterministic and every merge is
        // sum/max/bucket-add, so the snapshot is byte-identical for any
        // worker or shard count. The host registry takes wall-clock and
        // scheduling facts and is the only place they may land.
        let mut cycle_reg = Registry::new();
        let mut host_reg = Registry::new();
        // Residency hints are deterministic, so this count is part of the
        // cycle domain.
        cycle_reg.counter_add(
            "esca_stream_resident_frames_total",
            &[],
            hints.iter().filter(|&&h| h).count() as u64,
        );
        host_reg.gauge_max("esca_stream_workers", &[], self.pool.workers() as u64);
        host_reg.gauge_max("esca_stream_queue_depth", &[], slots as u64);
        host_reg.counter_add("esca_results_undelivered_total", &[], fan.undelivered);
        let mut outputs = Vec::with_capacity(n);
        let mut per_frame = Vec::with_capacity(n);
        let mut frame_wall = Vec::with_capacity(n);
        let mut frame_spans = Vec::with_capacity(n);
        for (idx, (run, wall, worker)) in runs.into_iter().enumerate() {
            let ctx = FrameSpanCtx {
                frame: idx as u64,
                attempt: 0,
                worker: worker as u64,
                shards: self.layer_shards as u64,
            };
            frame_spans.push(fold_frame(&mut cycle_reg, &run, ctx));
            host::observe_wall(&mut host_reg, "esca_frame_wall_micros", &[], wall);
            let worker = worker.to_string();
            host_reg.counter_add(
                "esca_worker_frames_total",
                &[("worker", worker.as_str())],
                1,
            );
            outputs.push(run.output);
            per_frame.push(run.total);
            frame_wall.push(wall);
        }
        let wall = start.elapsed();
        host::record_wall(&mut host_reg, "esca_batch_wall_micros_total", &[], wall);
        let telemetry = TelemetrySnapshot::from_registries(&cycle_reg, &host_reg);
        if let Some(hub) = &self.hub {
            hub.publish_snapshot(telemetry.clone());
            hub.publish_health(self.health_report("done", n as u64, n as u64, 0));
        }
        Ok(StreamReport {
            outputs,
            per_frame,
            frame_wall,
            wall,
            steady_frame0,
            clock_mhz: self.esca.config().clock_mhz,
            workers: self.pool.workers(),
            telemetry,
            frame_spans,
        })
    }

    /// Runs a batch of frames through the resident stack on the
    /// **host-side golden path** ([`Esca::run_network_golden`]): flat
    /// gather → per-tap GEMM → scatter with rulebooks served from the
    /// session's shared [`RulebookCache`] across frames *and* workers.
    /// Static-geometry streams (the paper's AR/VR deployment re-infers the
    /// same voxelized scene as weights or late fusion inputs change) pay
    /// for coordinate matching exactly once for the whole batch. Outputs are
    /// bit-identical to [`StreamingSession::run_batch`]'s, in frame
    /// order; no cycle model runs.
    ///
    /// # Errors
    ///
    /// Propagates the error of the lowest-indexed failing frame
    /// (deterministic across worker counts).
    pub fn run_golden_batch(&self, frames: &[SparseTensor<Q16>]) -> Result<Vec<SparseTensor<Q16>>> {
        let esca = Arc::clone(&self.esca);
        let layers = Arc::clone(&self.layers);
        let cache = Arc::clone(&self.rulebook_cache);
        let backend = self.gemm_backend;
        let job = move |frame: SparseTensor<Q16>| {
            esca.run_network_golden(&frame, &layers, &cache, backend)
        };
        self.fan_out(frames.to_vec(), job, |_, _| {})?.into_values()
    }

    /// Runs a batch of float frames through a full SS U-Net system
    /// pipeline ([`run_unet`]: Sub-Conv layers on the accelerator, the
    /// rest on the host model), one frame per pool job. Results are in
    /// frame order and identical to a sequential [`run_unet`] loop.
    ///
    /// # Errors
    ///
    /// Propagates the error of the lowest-indexed failing frame.
    pub fn run_unet_batch(
        &self,
        net: &SsUNet,
        host: &HostModel,
        frames: &[SparseTensor<f32>],
        act_bits: u8,
    ) -> Result<Vec<SystemRun>> {
        let esca = Arc::clone(&self.esca);
        let net = net.clone();
        let host = *host;
        let job = move |frame: SparseTensor<f32>| run_unet(&net, &esca, &host, &frame, act_bits);
        self.fan_out(frames.to_vec(), job, |_, _| {})?.into_values()
    }

    /// The one ordered fan-out behind every batch runner: submits one pool
    /// job per input (slot `i` runs `job(inputs[i])` and frees its input
    /// when done), times each job, and hands each arrival — in completion
    /// order — to `on_arrival` (live hub publishing). Results come back in
    /// slot order. A job that dies without reporting drops its sender, so
    /// collection stops once every sender is gone and that slot becomes
    /// [`crate::EscaError::WorkerPanic`] — the caller gets a typed error
    /// instead of a panic.
    ///
    /// # Errors
    ///
    /// [`crate::EscaError::PoolClosed`] when the pool rejects a job.
    pub(crate) fn fan_out<I, T, J, H>(
        &self,
        inputs: Vec<I>,
        job: J,
        mut on_arrival: H,
    ) -> Result<FanOut<T>>
    where
        I: Send + 'static,
        T: Send + 'static,
        J: Fn(I) -> T + Send + Sync + 'static,
        H: FnMut(usize, &Arrived<T>),
    {
        let slots = inputs.len();
        let job = Arc::new(job);
        let (tx, rx) = channel::unbounded();
        let undelivered = Arc::new(AtomicU64::new(0));
        for (slot, input) in inputs.into_iter().enumerate() {
            let job = Arc::clone(&job);
            let tx = tx.clone();
            let undelivered = Arc::clone(&undelivered);
            self.pool.execute(move |worker| {
                // Host-latency reporting only (frame wall, flight-recorder
                // wall field); job values never read this timer. Audited
                // in analyze/allowlist.tsv (L1-wall-clock).
                #[allow(clippy::disallowed_methods)]
                let t0 = Instant::now();
                let value = job(input);
                let wall = t0.elapsed();
                deliver(
                    &tx,
                    &undelivered,
                    (
                        slot,
                        Arrived {
                            value,
                            wall,
                            worker,
                        },
                    ),
                );
            })?;
        }
        drop(tx);
        let mut arrived: Vec<Option<Arrived<T>>> = (0..slots).map(|_| None).collect();
        for _ in 0..slots {
            let Ok((slot, a)) = rx.recv() else { break };
            on_arrival(slot, &a);
            arrived[slot] = Some(a);
        }
        Ok(FanOut {
            slots: arrived
                .into_iter()
                .enumerate()
                .map(|(frame, a)| a.ok_or(crate::EscaError::WorkerPanic { frame }))
                .collect(),
            undelivered: undelivered.load(Ordering::Relaxed),
        })
    }
}

/// One frame's slot in a modeled multi-engine schedule (see
/// [`StreamReport::modeled_schedule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeledSlot {
    /// Frame index within the batch.
    pub frame: usize,
    /// Engine the frame was assigned to.
    pub engine: usize,
    /// Cycle the engine starts the frame.
    pub start_cycle: u64,
    /// Cycles the frame occupies the engine (weight load included for an
    /// engine's first frame).
    pub cycles: u64,
}

/// A modeled multi-engine deployment of a batch: what `engines` ESCA
/// instances on one FPGA would sustain, derived deterministically from
/// the per-frame simulated cycle counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeledDeployment {
    /// Number of accelerator engines modeled.
    pub engines: usize,
    /// Batch makespan in cycles under greedy earliest-finish scheduling.
    pub makespan_cycles: u64,
    /// Sustained throughput at the configured clock, frames per second.
    pub frames_per_s: f64,
    /// Speedup over the single-engine makespan.
    pub speedup: f64,
}

/// Results of one [`StreamingSession::run_batch`] call.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Final layer outputs, in frame order.
    pub outputs: Vec<SparseTensor<Q16>>,
    /// Per-frame cycle statistics, in frame order — bit-identical to
    /// [`Esca::run_network_stream`] on the same batch.
    pub per_frame: Vec<CycleStats>,
    /// Host wall-clock each frame's job took.
    pub frame_wall: Vec<Duration>,
    /// Host wall-clock for the whole batch.
    pub wall: Duration,
    /// Frame 0's stats re-simulated with weights resident (the
    /// steady-state probe); `None` for an empty batch.
    pub steady_frame0: Option<CycleStats>,
    /// The accelerator clock the cycle counts are timed at, MHz.
    pub clock_mhz: f64,
    /// Pool worker count the batch ran with.
    pub workers: usize,
    /// Two-domain metrics snapshot: `cycle` is byte-identical across
    /// worker and shard counts; `host` carries wall latencies and
    /// worker/queue facts.
    pub telemetry: TelemetrySnapshot,
    /// Span-context traces, one per frame in frame order — the source of
    /// the nested frame → attempt → layer Perfetto export
    /// ([`StreamReport::to_span_trace`]).
    pub frame_spans: Vec<FrameSpanTrace>,
}

/// One frame's span-context trace: the [`FrameSpanCtx`] that produced a
/// set of frame-relative per-layer cycle intervals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSpanTrace {
    /// Which frame, attempt, worker and shard split produced the spans.
    pub ctx: FrameSpanCtx,
    /// Total simulated cycles of the frame (the enclosing span).
    pub total_cycles: u64,
    /// Per-layer intervals, frame-relative simulated cycles.
    pub spans: Vec<LayerSpan>,
}

/// Builds the nested frame → attempt → layer Perfetto export from
/// span-context traces: one process (`pid`) per frame, a single lane
/// (`tid` 0) whose slices nest by containment — the frame span encloses
/// the attempt span, which encloses the layer spans. Every `ts`/`dur`
/// derives from simulated cycles, so the export's cycle half is
/// byte-identical across `(workers, shards)` splits; host facts (worker
/// index, shard count) ride only in `args.detail`.
pub fn span_chrome_trace(frames: &[FrameSpanTrace]) -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    for f in frames {
        let pid = f.ctx.frame as u32;
        let detail = format!("worker {} shards {}", f.ctx.worker, f.ctx.shards);
        trace.push_complete(
            "frame",
            &format!("frame {}", f.ctx.frame),
            0,
            f.total_cycles,
            pid,
            0,
            &detail,
        );
        trace.push_complete(
            "attempt",
            &format!("attempt {}", f.ctx.attempt),
            0,
            f.total_cycles,
            pid,
            0,
            &detail,
        );
        for s in &f.spans {
            trace.push_complete(
                "layer",
                &format!("layer {}", s.layer),
                s.start_cycle,
                s.end_cycle.saturating_sub(s.start_cycle),
                pid,
                0,
                if s.matching_resident {
                    "matching_resident"
                } else {
                    "matching"
                },
            );
        }
    }
    trace
}

impl StreamReport {
    /// Number of frames in the batch.
    pub fn frames(&self) -> usize {
        self.per_frame.len()
    }

    /// Host frames per second (wall-clock; varies with worker count and
    /// machine — the simulated numbers below do not).
    pub fn wall_fps(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.frames() as f64 / s
        } else {
            0.0
        }
    }

    /// Nearest-rank percentile of the per-frame host wall times.
    ///
    /// `p` is a percent and is clamped to `[0, 100]`; a non-finite `p`
    /// (NaN, ±∞) is treated as 0. Returns [`Duration::ZERO`] for an
    /// empty batch. The rank is additionally clamped to the last sample,
    /// so the call is total for every `(p, batch)` combination.
    pub fn latency_percentile(&self, p: f64) -> Duration {
        if self.frame_wall.is_empty() {
            return Duration::ZERO;
        }
        let p = if p.is_finite() {
            p.clamp(0.0, 100.0)
        } else {
            0.0
        };
        let mut sorted = self.frame_wall.clone();
        sorted.sort();
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        let rank = rank.min(sorted.len() - 1);
        sorted[rank]
    }

    /// Total simulated cycles of the sequential single-engine timeline
    /// (the sum of per-frame totals — what `run_network_stream` models).
    pub fn sequential_cycles(&self) -> u64 {
        self.per_frame.iter().map(|s| s.total_cycles()).sum()
    }

    /// Weight-load overhead cycles charged to frame 0 (frame 0 total
    /// minus its steady-state probe total).
    pub fn weight_load_cycles(&self) -> u64 {
        match (self.per_frame.first(), &self.steady_frame0) {
            (Some(f0), Some(steady)) => f0.total_cycles().saturating_sub(steady.total_cycles()),
            _ => 0,
        }
    }

    /// Per-frame steady-state cycles (weights resident): the probe total
    /// for frame 0, the measured totals for the rest.
    pub fn steady_frame_cycles(&self) -> Vec<u64> {
        self.per_frame
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if i == 0 {
                    self.steady_frame0
                        .as_ref()
                        .map_or_else(|| s.total_cycles(), CycleStats::total_cycles)
                } else {
                    s.total_cycles()
                }
            })
            .collect()
    }

    /// Exports the span-context traces as a nested Perfetto trace:
    /// frame → attempt → layer slices (see [`span_chrome_trace`]'s
    /// nesting and determinism contract).
    pub fn to_span_trace(&self) -> ChromeTrace {
        span_chrome_trace(&self.frame_spans)
    }

    /// Aggregate effective GOPS over the batch on the simulated timeline
    /// (total effective ops over total cycles at the configured clock).
    pub fn aggregate_gops(&self) -> f64 {
        let ops: u64 = self.per_frame.iter().map(CycleStats::effective_ops).sum();
        let cycles = self.sequential_cycles();
        if cycles == 0 {
            return 0.0;
        }
        let t = cycles as f64 / (self.clock_mhz * 1e6);
        ops as f64 / t / 1e9
    }

    /// Models deploying the batch on `engines` parallel accelerator
    /// instances: frames are assigned in order to the earliest-finishing
    /// engine, each engine pays the weight-load overhead once (its first
    /// frame), and the makespan is the latest engine finish. Pure u64
    /// arithmetic over the simulated per-frame cycles, so the result is
    /// byte-identical across runs and pool worker counts.
    pub fn modeled(&self, engines: usize) -> ModeledDeployment {
        let engines = engines.max(1);
        let makespan = |n: usize| -> u64 {
            self.modeled_schedule(n)
                .iter()
                .map(|s| s.start_cycle + s.cycles)
                .max()
                .unwrap_or(0)
        };
        let span = makespan(engines);
        let single = makespan(1);
        let frames_per_s = if span > 0 {
            self.frames() as f64 / (span as f64 / (self.clock_mhz * 1e6))
        } else {
            0.0
        };
        ModeledDeployment {
            engines,
            makespan_cycles: span,
            frames_per_s,
            speedup: if span > 0 {
                single as f64 / span as f64
            } else {
                1.0
            },
        }
    }

    /// The full frame-to-engine schedule behind [`StreamReport::modeled`]:
    /// frames are assigned in order to the earliest-finishing of `engines`
    /// engines (ties break to the lowest index), each engine paying the
    /// weight-load overhead on its first frame. Pure u64 arithmetic over
    /// simulated per-frame cycles — byte-identical across runs and pool
    /// worker counts.
    pub fn modeled_schedule(&self, engines: usize) -> Vec<ModeledSlot> {
        let engines = engines.max(1);
        let steady = self.steady_frame_cycles();
        let overhead = self.weight_load_cycles();
        let mut finish = vec![0u64; engines];
        let mut used = vec![false; engines];
        let mut slots = Vec::with_capacity(steady.len());
        for (frame, &c) in steady.iter().enumerate() {
            // Earliest-finishing engine; ties break to the lowest index,
            // keeping the schedule deterministic.
            let e = (0..engines)
                .min_by_key(|&i| finish[i])
                .expect("engines >= 1");
            let dur = c + if used[e] { 0 } else { overhead };
            slots.push(ModeledSlot {
                frame,
                engine: e,
                start_cycle: finish[e],
                cycles: dur,
            });
            finish[e] += dur;
            used[e] = true;
        }
        slots
    }

    /// Exports the modeled `engines`-engine deployment as a Chrome
    /// trace-event / Perfetto trace: one thread lane per engine, one
    /// complete (`"X"`) event per frame, timestamps in simulated cycles.
    /// Deterministic for any worker count (it is derived purely from
    /// [`StreamReport::modeled_schedule`]).
    pub fn to_chrome_trace(&self, engines: usize) -> ChromeTrace {
        let mut trace = ChromeTrace::new();
        for slot in self.modeled_schedule(engines) {
            trace.push_complete(
                "engine",
                &format!("frame {}", slot.frame),
                slot.start_cycle,
                slot.cycles,
                0,
                slot.engine as u32,
                &format!("engine {}", slot.engine),
            );
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EscaConfig;
    use esca_sscn::quant::{quantize_tensor, QuantizedWeights};
    use esca_sscn::weights::ConvWeights;
    use esca_tensor::{Coord3, Extent3, QuantParams};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    fn frame(seed: u64) -> SparseTensor<Q16> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut t = SparseTensor::<f32>::new(Extent3::cube(16), 2);
        for _ in 0..40 {
            let c = Coord3::new(
                rng.gen_range(0..16),
                rng.gen_range(0..16),
                rng.gen_range(0..16),
            );
            let f: Vec<f32> = (0..2).map(|_| rng.gen_range(-2.0..2.0)).collect();
            t.insert(c, &f).unwrap();
        }
        t.canonicalize();
        quantize_tensor(&t, QuantParams::new(8).unwrap())
    }

    fn layers() -> Vec<(QuantizedWeights, bool)> {
        vec![
            (
                QuantizedWeights::auto(&ConvWeights::seeded(3, 2, 8, 21), 8, 10).unwrap(),
                true,
            ),
            (
                QuantizedWeights::auto(&ConvWeights::seeded(3, 8, 4, 22), 8, 10).unwrap(),
                false,
            ),
        ]
    }

    #[test]
    fn pool_runs_jobs_and_joins_on_drop() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        let (tx, rx) = channel::unbounded();
        for i in 0..20usize {
            let tx = tx.clone();
            pool.execute(move |worker| {
                assert!(worker < 3, "worker index out of range");
                tx.send(i * i).expect("collector alive");
            })
            .expect("pool accepts jobs before drop");
        }
        drop(tx);
        let mut got: Vec<usize> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..20).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(pool.panicked_jobs(), 0);
        assert_eq!(pool.rejected_jobs(), 0);
        drop(pool); // joins without hanging
    }

    #[test]
    fn panicked_jobs_do_not_shrink_the_pool() {
        // Regression: before jobs ran under catch_unwind, one panicking
        // job killed its worker thread for the life of the pool. With two
        // workers and two panics, every later job would hang forever and
        // the batch would silently lose frames. Now the workers survive,
        // the panics are counted, and all later jobs still complete.
        crate::resilience::quiet_injected_panics();
        let pool = WorkerPool::new(2);
        for frame in 0..2usize {
            pool.execute(move |_| crate::resilience::injected_panic(frame))
                .expect("pool accepts jobs before drop");
        }
        let (tx, rx) = channel::unbounded();
        for i in 0..10usize {
            let tx = tx.clone();
            pool.execute(move |_| tx.send(i).expect("collector alive"))
                .expect("pool accepts jobs before drop");
        }
        drop(tx);
        let mut got: Vec<usize> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>(), "pool lost jobs");
        assert_eq!(pool.panicked_jobs(), 2);
    }

    #[test]
    fn batch_matches_sequential_stream_accounting() {
        let frames: Vec<_> = (0..4).map(frame).collect();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let seq = esca.run_network_stream(&frames, &layers()).unwrap();
        let session = StreamingSession::new(esca, layers(), 3);
        let report = session.run_batch(&frames).unwrap();
        assert_eq!(report.per_frame, seq);
        assert_eq!(report.frames(), 4);
        // Frame 0 carries the weight load; the probe shows it.
        assert!(report.weight_load_cycles() > 0);
    }

    #[test]
    fn batch_outputs_match_per_frame_network_runs() {
        let frames: Vec<_> = (0..3).map(|i| frame(i + 50)).collect();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let session = StreamingSession::new(esca.clone(), layers(), 2);
        let report = session.run_batch(&frames).unwrap();
        for (f, out) in frames.iter().zip(&report.outputs) {
            let net = esca.run_network(f, &layers()).unwrap();
            assert!(net.output.same_content(out));
        }
    }

    #[test]
    fn golden_batch_matches_cycle_batch_outputs() {
        let frames: Vec<_> = (0..3).map(|i| frame(i + 90)).collect();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let session = StreamingSession::new(esca, layers(), 2);
        let report = session.run_batch(&frames).unwrap();
        let golden = session.run_golden_batch(&frames).unwrap();
        assert_eq!(golden.len(), 3);
        for (g, o) in golden.iter().zip(&report.outputs) {
            assert_eq!(g.coords(), o.coords(), "storage order differs");
            assert_eq!(g.features(), o.features(), "values not bitwise equal");
        }
    }

    #[test]
    fn golden_batch_shares_matching_across_frames_and_sessions() {
        // Static geometry: every frame carries the same active set, so the
        // whole batch costs one rulebook build. One worker keeps the
        // hit/miss split deterministic (concurrent first lookups may race
        // to build).
        let frames: Vec<_> = (0..4).map(|_| frame(123)).collect();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let session = StreamingSession::new(esca, layers(), 1);
        let out = session.run_golden_batch(&frames).unwrap();
        assert_eq!(out.len(), 4);
        let cache = session.rulebook_cache();
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 7);
        // A pre-warmed shared cache carries over into another session.
        let esca2 = Esca::new(EscaConfig::default()).unwrap();
        let session2 =
            StreamingSession::new(esca2, layers(), 2).with_rulebook_cache(Arc::clone(cache));
        let out2 = session2.run_golden_batch(&frames[..1]).unwrap();
        assert_eq!(out2[0].features(), out[0].features());
        assert_eq!(session2.rulebook_cache().misses(), 1, "no new builds");
    }

    #[test]
    fn static_scene_batch_goes_matching_resident_after_frame_zero() {
        // 6 frames of identical geometry: with matching reuse on,
        // frame 0 pays the matching pass and every later frame runs
        // matching-resident — zero match cycles, zero scan work.
        let frames: Vec<_> = (0..6).map(|_| frame(321)).collect();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let baseline = StreamingSession::new(esca.clone(), layers(), 2)
            .run_batch(&frames)
            .unwrap();
        let session = StreamingSession::new(esca, layers(), 2).with_matching_reuse(true);
        let report = session.run_batch(&frames).unwrap();
        // Outputs are bit-identical with and without residency.
        for (a, b) in report.outputs.iter().zip(&baseline.outputs) {
            assert_eq!(a.coords(), b.coords());
            assert_eq!(a.features(), b.features());
        }
        assert!(!report.per_frame[0].matching_resident);
        assert!(report.per_frame[0].match_cycles > 0);
        for f in &report.per_frame[1..] {
            assert!(f.matching_resident);
            assert_eq!(f.match_cycles, 0);
            assert_eq!(f.scanned_sites, 0);
            assert_eq!(f.mask_bits_read, 0);
            assert_eq!(f.fifo_pushes, 0);
            assert_eq!(f.zero_removing_cycles, 0);
            assert!(f.total_cycles() < report.per_frame[0].total_cycles());
        }
        // The resident-frame count lands in the cycle-domain registry.
        assert!(report
            .telemetry
            .cycle
            .counters
            .iter()
            .any(|c| c.name == "esca_stream_resident_frames_total" && c.value == 5));
    }

    #[test]
    fn resident_cycle_telemetry_is_identical_across_worker_and_shard_splits() {
        // The residency hints are derived before scheduling, so
        // the cycle-domain snapshot stays byte-identical for every
        // (workers, layer_shards) split even though resident frames take a
        // different accounting path.
        let frames: Vec<_> = (0..4).map(|_| frame(77)).collect();
        let mut snapshots = Vec::new();
        for (workers, shards) in [(1usize, 1usize), (3, 1), (2, 2)] {
            let esca = Esca::new(EscaConfig::default()).unwrap();
            let session = StreamingSession::new(esca, layers(), workers)
                .with_layer_shards(shards)
                .with_matching_reuse(true);
            let report = session.run_batch(&frames).unwrap();
            snapshots.push(report.telemetry.cycle);
        }
        assert_eq!(snapshots[0], snapshots[1]);
        assert_eq!(snapshots[0], snapshots[2]);
    }

    #[test]
    fn fan_out_returns_a_typed_error_for_a_job_that_never_reported() {
        // Slot 2 of 4 panics: the worker survives, the job's sender drops
        // unreported, and the caller gets a typed error for that slot
        // instead of a panic.
        crate::resilience::quiet_injected_panics();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let session = StreamingSession::new(esca, layers(), 2);
        let job = |slot: usize| {
            if slot == 2 {
                crate::resilience::injected_panic(slot)
            }
            Ok(slot as u32 * 10)
        };
        let mut seen = Vec::new();
        let fan = session
            .fan_out((0..4).collect(), job, |slot, a| {
                seen.push((slot, a.value.clone()))
            })
            .unwrap();
        seen.sort_by_key(|&(slot, _)| slot);
        assert_eq!(seen.len(), 3, "every reported slot reaches the hook");
        assert!(seen
            .iter()
            .all(|(slot, v)| *slot != 2 && *v == Ok(*slot as u32 * 10)));
        assert!(matches!(
            fan.slots[2],
            Err(crate::EscaError::WorkerPanic { frame: 2 })
        ));
        let arrived: Vec<u32> = fan
            .slots
            .iter()
            .filter_map(|s| s.as_ref().ok())
            .map(|a| *a.value.as_ref().unwrap())
            .collect();
        assert_eq!(arrived, vec![0, 10, 30], "other slots arrive in order");
        assert!(matches!(
            fan.into_values(),
            Err(crate::EscaError::WorkerPanic { frame: 2 })
        ));
        assert_eq!(session.pool.panicked_jobs(), 1);
        // A complete batch comes back in slot order.
        let fan = session
            .fan_out(vec![0u32, 1, 2], |slot| Ok(slot * 10), |_, _| {})
            .unwrap();
        assert_eq!(fan.undelivered, 0);
        assert_eq!(fan.into_values().unwrap(), vec![0, 10, 20]);
    }

    #[test]
    fn modeled_deployment_scales_and_is_deterministic() {
        let frames: Vec<_> = (0..8).map(|i| frame(i + 7)).collect();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let session = StreamingSession::new(esca, layers(), 4);
        let report = session.run_batch(&frames).unwrap();
        let m1 = report.modeled(1);
        let m4 = report.modeled(4);
        assert_eq!(m1.makespan_cycles, report.modeled(1).makespan_cycles);
        assert!(m4.makespan_cycles < m1.makespan_cycles);
        assert!(m4.speedup > 1.0);
        assert!(m4.frames_per_s > m1.frames_per_s);
        // Single-engine modeled makespan equals the steady timeline plus
        // one weight load.
        let expected: u64 =
            report.steady_frame_cycles().iter().sum::<u64>() + report.weight_load_cycles();
        assert_eq!(m1.makespan_cycles, expected);
    }

    #[test]
    fn latency_percentile_is_total_over_p() {
        let frames: Vec<_> = (0..4).map(frame).collect();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let session = StreamingSession::new(esca, layers(), 2);
        let report = session.run_batch(&frames).unwrap();
        let min = *report.frame_wall.iter().min().unwrap();
        let max = *report.frame_wall.iter().max().unwrap();
        // In-range percentiles bracket between min and max.
        let p50 = report.latency_percentile(50.0);
        assert!(min <= p50 && p50 <= max);
        // Out-of-range and non-finite p clamp instead of panicking.
        assert_eq!(report.latency_percentile(-10.0), min);
        assert_eq!(report.latency_percentile(250.0), max);
        assert_eq!(report.latency_percentile(f64::INFINITY), min);
        assert_eq!(report.latency_percentile(f64::NEG_INFINITY), min);
        assert_eq!(report.latency_percentile(f64::NAN), min);
        assert_eq!(report.latency_percentile(0.0), min);
        assert_eq!(report.latency_percentile(100.0), max);
    }

    #[test]
    fn cycle_telemetry_is_identical_across_worker_counts() {
        let frames: Vec<_> = (0..4).map(|i| frame(i + 300)).collect();
        let mut snapshots = Vec::new();
        for workers in [1usize, 3] {
            let esca = Esca::new(EscaConfig::default()).unwrap();
            let session = StreamingSession::new(esca, layers(), workers);
            let report = session.run_batch(&frames).unwrap();
            // Cycle-domain series must exist...
            assert!(report
                .telemetry
                .cycle
                .counters
                .iter()
                .any(|c| c.name == "esca_cycles_total"));
            assert!(report
                .telemetry
                .cycle
                .histograms
                .iter()
                .any(|h| h.name == "esca_frame_cycles" && h.count == 4));
            // ...and wall-clock only in the host domain.
            assert!(!report
                .telemetry
                .cycle
                .histograms
                .iter()
                .any(|h| h.name.contains("wall")));
            assert!(report
                .telemetry
                .host
                .histograms
                .iter()
                .any(|h| h.name == "esca_frame_wall_micros" && h.count == 4));
            let per_worker: u64 = report
                .telemetry
                .host
                .counters
                .iter()
                .filter(|c| c.name == "esca_worker_frames_total")
                .map(|c| c.value)
                .sum();
            assert_eq!(per_worker, 4, "every frame attributed to a worker");
            snapshots.push(report.telemetry.cycle);
        }
        assert_eq!(snapshots[0], snapshots[1]);
    }

    #[test]
    fn modeled_schedule_backs_the_deployment_and_trace() {
        let frames: Vec<_> = (0..6).map(|i| frame(i + 11)).collect();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let session = StreamingSession::new(esca, layers(), 2);
        let report = session.run_batch(&frames).unwrap();
        let schedule = report.modeled_schedule(3);
        assert_eq!(schedule.len(), 6);
        // The schedule's makespan is exactly what modeled() reports.
        let span = schedule.iter().map(|s| s.start_cycle + s.cycles).max();
        assert_eq!(span, Some(report.modeled(3).makespan_cycles));
        // Slots on one engine never overlap.
        for a in &schedule {
            for b in &schedule {
                if a.frame != b.frame && a.engine == b.engine {
                    let disjoint = a.start_cycle + a.cycles <= b.start_cycle
                        || b.start_cycle + b.cycles <= a.start_cycle;
                    assert!(disjoint, "overlap on engine {}", a.engine);
                }
            }
        }
        // The trace mirrors the schedule one event per frame.
        let trace = report.to_chrome_trace(3);
        assert_eq!(trace.len(), 6);
        for (ev, slot) in trace.traceEvents.iter().zip(&schedule) {
            assert_eq!(ev.ph, "X");
            assert_eq!(ev.ts, slot.start_cycle);
            assert_eq!(ev.dur, slot.cycles);
            assert_eq!(ev.tid, slot.engine as u32);
        }
    }

    #[test]
    fn empty_batch_is_trivial() {
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let session = StreamingSession::new(esca, layers(), 2);
        let report = session.run_batch(&[]).unwrap();
        assert_eq!(report.frames(), 0);
        assert_eq!(report.wall_fps(), 0.0);
        assert_eq!(report.latency_percentile(50.0), Duration::ZERO);
        assert_eq!(report.modeled(4).makespan_cycles, 0);
    }

    #[test]
    fn frame_errors_surface_deterministically() {
        // Channel mismatch on every frame: the reported error must be
        // frame 0's regardless of completion order.
        let bad: Vec<_> = (0..3)
            .map(|s| {
                let mut rng = ChaCha12Rng::seed_from_u64(s);
                let mut t = SparseTensor::<f32>::new(Extent3::cube(8), 3);
                t.insert(Coord3::new(rng.gen_range(0..8), 1, 1), &[1.0, 2.0, 3.0])
                    .unwrap();
                t.canonicalize();
                quantize_tensor(&t, QuantParams::new(8).unwrap())
            })
            .collect();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let session = StreamingSession::new(esca, layers(), 2);
        assert!(matches!(
            session.run_batch(&bad),
            Err(crate::EscaError::ChannelMismatch { .. })
        ));
        // The golden path surfaces the mismatch too (wrapped golden-model
        // error rather than the accelerator's own variant).
        assert!(session.run_golden_batch(&bad).is_err());
    }
}
