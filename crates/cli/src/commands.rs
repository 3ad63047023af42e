//! Subcommand implementations.

use crate::args::Args;
use crate::CliError;
use esca::admission::{
    select_operating_point, AdmissionConfig, Arrival, SloTarget, TenantQuota, DEGRADE_DISABLED,
};
use esca::dse::{pareto_front, sweep, DseWorkload, SweepAxes};
use esca::resilience::{
    register_panic_dump, unregister_panic_dump, CampaignSummary, FaultClass, FaultConfig,
};
use esca::streaming::StreamingSession;
use esca::{CycleStats, Esca, EscaConfig, LayerTelemetry};
use esca_bench::{paper, tables, workloads};
use esca_pointcloud::{io, synthetic, voxelize, PointCloud};
use esca_sscn::gemm::GemmBackendKind;
use esca_sscn::quant::{quantize_tensor, QuantizedWeights};
use esca_telemetry::serve::{http_get, MetricsServer, ObservabilityHub, OperatingPoint};
use esca_telemetry::{Registry, TelemetrySnapshot};
use esca_tensor::{Extent3, SparseTensor, TileGrid, TileShape};
use serde::Deserialize;
use std::fs::File;
use std::io::BufWriter;
use std::sync::Arc;

fn cmd_err<E: std::fmt::Display>(e: E) -> CliError {
    CliError::Command(e.to_string())
}

/// Writes an exported artifact and tells the user where it went.
fn write_text(path: &str, text: &str) -> Result<(), CliError> {
    std::fs::write(path, text).map_err(cmd_err)?;
    println!("wrote {path}");
    Ok(())
}

/// Generates the requested synthetic cloud.
fn make_cloud(dataset: &str, seed: u64) -> Result<PointCloud, CliError> {
    match dataset {
        "shapenet" => Ok(synthetic::shapenet_like(
            seed,
            &synthetic::ShapeNetConfig::default(),
        )),
        "nyu" => Ok(synthetic::nyu_like(seed, &synthetic::NyuConfig::default())),
        other => Err(CliError::Command(format!(
            "unknown dataset {other:?} (expected shapenet or nyu)"
        ))),
    }
}

/// `esca generate --dataset shapenet --seed 7 --out object.xyz`
pub fn generate(args: &Args) -> Result<(), CliError> {
    let dataset = args.get("dataset").unwrap_or("shapenet");
    let seed: u64 = args.get_or("seed", 7)?;
    let cloud = make_cloud(dataset, seed)?;
    match args.get("out") {
        Some(path) => {
            let file = File::create(path).map_err(cmd_err)?;
            io::write_xyz(&cloud, BufWriter::new(file)).map_err(cmd_err)?;
            println!("wrote {} points to {path}", cloud.len());
        }
        None => {
            io::write_xyz(&cloud, std::io::stdout().lock()).map_err(cmd_err)?;
        }
    }
    Ok(())
}

fn load_or_make_grid(args: &Args) -> Result<SparseTensor<f32>, CliError> {
    let grid_side: u32 = args.get_or("grid", 192)?;
    let grid = Extent3::cube(grid_side);
    let cloud = match args.get("input") {
        Some(path) => {
            let file = File::open(path).map_err(cmd_err)?;
            io::read_xyz(file).map_err(cmd_err)?
        }
        None => {
            let dataset = args.get("dataset").unwrap_or("shapenet");
            let seed: u64 = args.get_or("seed", 7)?;
            make_cloud(dataset, seed)?
        }
    };
    Ok(voxelize::voxelize_occupancy(&cloud, grid))
}

/// `esca voxelize --dataset nyu --seed 3 [--grid 192]`
pub fn voxelize(args: &Args) -> Result<(), CliError> {
    let t = load_or_make_grid(args)?;
    println!(
        "grid {}: {} active voxels, {:.4}% sparse",
        t.extent(),
        t.nnz(),
        t.sparsity() * 100.0
    );
    println!("tile analysis (zero removing strategy):");
    for side in [4u32, 8, 12, 16] {
        let report = TileGrid::new(t.extent(), TileShape::cube(side)).classify(&t.occupancy_mask());
        println!(
            "  {side:>2}³: {:>6} active of {:>7} tiles ({:.2}% removed, mean density {:.3})",
            report.active_tiles(),
            report.total_tiles(),
            report.removing_ratio() * 100.0,
            report.mean_active_density()
        );
    }
    Ok(())
}

/// `esca run --seed 11 [--tile 8] [--ic 16] [--oc 16] [--json]
/// [--metrics-out FILE] [--prom-out FILE]`
pub fn run(args: &Args) -> Result<(), CliError> {
    run_workload(args, None)
}

/// `esca bench [--seed N] [--metrics-out metrics.json] [--prom-out FILE]`
///
/// The benchmark entry point: the same SS U-Net Sub-Conv workload as
/// `run`, but the cycle-domain metrics snapshot is always exported
/// (default `metrics.json`).
pub fn bench(args: &Args) -> Result<(), CliError> {
    run_workload(args, Some("metrics.json"))
}

fn run_workload(args: &Args, default_metrics: Option<&str>) -> Result<(), CliError> {
    let seed: u64 = args.get_or("seed", workloads::EVAL_SEEDS[0])?;
    let mut cfg = EscaConfig::default();
    cfg.tile = TileShape::cube(args.get_or("tile", 8u32)?);
    cfg.ic_parallel = args.get_or("ic", 16usize)?;
    cfg.oc_parallel = args.get_or("oc", 16usize)?;
    cfg.validate().map_err(cmd_err)?;
    let esca = Esca::new(cfg).map_err(cmd_err)?;

    let layers = workloads::unet_subconv_workload(seed);
    let mut total = CycleStats::default();
    let mut tele = LayerTelemetry::new();
    println!(
        "SS U-Net Sub-Conv layers on ESCA (seed {seed}, tile {}):",
        cfg.tile
    );
    for lw in &layers {
        let qw = QuantizedWeights::auto(&lw.weights, 8, 12).map_err(cmd_err)?;
        let qin = quantize_tensor(&lw.input, qw.quant().act);
        let run = esca.run_layer(&qin, &qw, true).map_err(cmd_err)?;
        println!(
            "  {:<12} {:>9} cycles  {:>7.2} GOPS  {:>8} matches",
            lw.name,
            run.stats.total_cycles(),
            run.stats.effective_gops(cfg.clock_mhz),
            run.stats.matches
        );
        total += &run.stats;
        tele.merge(&run.telemetry);
    }
    let power = esca::power::PowerModel::default().report(&total, &cfg);
    println!(
        "total: {:.3} ms, {:.2} GOPS, {:.2} W, {:.2} GOPS/W",
        total.time_s(cfg.clock_mhz) * 1e3,
        power.gops,
        power.avg_power_w,
        power.gops_per_w
    );
    if args.flag("json") {
        let json = serde_json::to_string_pretty(&total).map_err(cmd_err)?;
        println!("{json}");
    }
    let metrics_out = args.get("metrics-out").or(default_metrics);
    if metrics_out.is_some() || args.get("prom-out").is_some() {
        // Purely cycle-domain: this path never measures wall time, so the
        // host half of the snapshot stays empty.
        let mut cycle = Registry::new();
        total.record_into(&mut cycle);
        tele.record_into(&mut cycle);
        let snap = TelemetrySnapshot::from_registries(&cycle, &Registry::new());
        if let Some(path) = metrics_out {
            write_text(path, &serde_json::to_string_pretty(&snap).map_err(cmd_err)?)?;
        }
        if let Some(path) = args.get("prom-out") {
            write_text(path, &snap.to_prometheus_text())?;
        }
    }
    Ok(())
}

/// Panic-dump names registered by `stream` (one per export writer, so a
/// rerun replaces rather than stacks them).
const STREAM_DUMPS: [&str; 3] = ["stream-metrics-out", "stream-prom-out", "stream-flight-out"];

/// Registers panic-flush writers for the stream exports: if the process
/// panics mid-campaign, the filtered panic hook writes the hub's last
/// published snapshot and flight ring to the requested paths, so a
/// crashed run still leaves its final state on disk.
fn register_stream_flush(
    hub: &Arc<ObservabilityHub>,
    metrics_out: Option<&str>,
    prom_out: Option<&str>,
    flight_out: Option<&str>,
) {
    // Dump closures swallow their own I/O errors: they run inside the
    // panic hook, where there is no caller left to report to.
    if let Some(path) = metrics_out {
        let hub = Arc::clone(hub);
        let path = path.to_string();
        register_panic_dump(STREAM_DUMPS[0], move || {
            if let Ok(json) = serde_json::to_string_pretty(hub.snapshot().as_ref()) {
                let _ = std::fs::write(&path, json);
            }
        });
    }
    if let Some(path) = prom_out {
        let hub = Arc::clone(hub);
        let path = path.to_string();
        register_panic_dump(STREAM_DUMPS[1], move || {
            let _ = std::fs::write(&path, hub.snapshot().to_prometheus_text());
        });
    }
    if let Some(path) = flight_out {
        let hub = Arc::clone(hub);
        let path = path.to_string();
        register_panic_dump(STREAM_DUMPS[2], move || {
            if let Ok(json) = hub.flight().to_json() {
                let _ = std::fs::write(&path, json);
            }
        });
    }
}

/// Self-scrapes the exposition server with the std-only client used by
/// the integration tests and prints a one-line summary — `make verify`
/// exercises the whole serving path without needing curl.
fn self_scrape(server: &MetricsServer) -> Result<(), CliError> {
    let addr = server.local_addr();
    let metrics = http_get(addr, "/metrics").map_err(cmd_err)?;
    let health = http_get(addr, "/healthz").map_err(cmd_err)?;
    if metrics.status != 200 || metrics.body.is_empty() {
        return Err(CliError::Command(format!(
            "self-scrape of /metrics failed: status {} ({} bytes)",
            metrics.status,
            metrics.body.len()
        )));
    }
    println!(
        "  scrape:      /metrics 200 ({} bytes, {} families), /healthz {} ({})",
        metrics.body.len(),
        metrics
            .body
            .lines()
            .filter(|l| l.starts_with("# TYPE "))
            .count(),
        health.status,
        if health.status == 200 {
            "healthy"
        } else {
            "unhealthy"
        },
    );
    Ok(())
}

/// The export tail every `stream` branch shares: the campaign summary
/// (`--json`, `--chaos-out`; resilient branches only), the final
/// snapshot (`--metrics-out`, `--prom-out`), the optional self-scrape,
/// the flight dump (`--flight-out`) and panic-dump cleanup.
fn finish_stream(
    args: &Args,
    telemetry: &TelemetrySnapshot,
    summary: Option<&CampaignSummary>,
    hub: Option<&Arc<ObservabilityHub>>,
    server: Option<&MetricsServer>,
) -> Result<(), CliError> {
    if let Some(summary) = summary {
        let json = serde_json::to_string_pretty(summary).map_err(cmd_err)?;
        if args.flag("json") {
            println!("{json}");
        }
        if let Some(path) = args.get("chaos-out") {
            write_text(path, &json)?;
        }
    }
    if let Some(path) = args.get("metrics-out") {
        let json = serde_json::to_string_pretty(telemetry).map_err(cmd_err)?;
        write_text(path, &json)?;
    }
    if let Some(path) = args.get("prom-out") {
        write_text(path, &telemetry.to_prometheus_text())?;
    }
    if let (Some(server), true) = (server, args.flag("serve-scrape")) {
        self_scrape(server)?;
    }
    if let (Some(hub), Some(path)) = (hub, args.get("flight-out")) {
        write_text(path, &hub.flight().to_json().map_err(cmd_err)?)?;
    }
    for name in STREAM_DUMPS {
        unregister_panic_dump(name);
    }
    Ok(())
}

/// The fields `stream --slo-front` reads back from a `slo_front` bench
/// artifact (extra fields in the file are ignored).
#[derive(Deserialize)]
struct SloFrontFile {
    points: Vec<OperatingPoint>,
}

/// Parses `--tenants "cpt/burst/prio,cpt/burst/prio"` into quotas for
/// tenant ids `1..=N`: cycles-per-token (0 = unlimited), bucket burst,
/// shedding priority.
fn parse_tenants(spec: &str) -> Result<Vec<TenantQuota>, CliError> {
    spec.split(',')
        .enumerate()
        .map(|(i, entry)| {
            let parts: Vec<&str> = entry.split('/').collect();
            let [cpt, burst, priority] = parts.as_slice() else {
                return Err(CliError::Command(format!(
                    "--tenants entry {entry:?}: expected cpt/burst/priority"
                )));
            };
            Ok(TenantQuota {
                tenant: i as u32 + 1,
                cycles_per_token: cpt.parse().map_err(cmd_err)?,
                burst: burst.parse().map_err(cmd_err)?,
                priority: priority.parse().map_err(cmd_err)?,
            })
        })
        .collect()
}

/// `esca stream [--frames 8] [--workers 4] [--layers 3] [--grid 192]
/// [--seed N] [--engines N] [--shards 1] [--gemm-backend blocked|scalar]
/// [--reuse-matching] [--static-scene] [--json] [--trace-out FILE] [--metrics-out FILE] [--prom-out FILE]
/// [--serve ADDR] [--serve-scrape] [--flight-out FILE]
/// [--faults] [--fault-seed N] [--chaos-out FILE]`
///
/// `--gemm-backend` selects the flat-engine GEMM microkernel used by the
/// golden and resilient paths (default: `ESCA_GEMM_BACKEND` env, then
/// `blocked`). Quantized streaming outputs are bit-identical either way.
///
/// `--reuse-matching` turns on the session's matching reuse
/// ([`StreamingSession::with_matching_reuse`]): a frame whose geometry is
/// already resident — seen earlier in the batch, or held by the session's
/// rulebook cache — goes matching-resident in the cycle model.
/// `--static-scene` freezes the rotating object so every frame shares one
/// geometry — the steady-state demo for matching reuse: with
/// `--reuse-matching`, every frame after the first runs matching-resident.
///
/// With `--faults`, the batch runs under the seeded chaos campaign
/// ([`FaultConfig::campaign`]) on the resilient path instead: per-frame
/// outcomes and fault counters are reported, and `--chaos-out` exports
/// the replayable campaign summary as JSON (an error on a batch that runs
/// neither `--faults` nor the ingest queue).
///
/// `--tenants SPEC` and/or `--queue-depth N` switch the batch onto the
/// bounded ingest queue ([`StreamingSession::run_batch_ingest`]): SPEC
/// is comma-separated `cpt/burst/priority` token-bucket quotas, one per
/// tenant (ids `1..=N`), frames round-robin across them, and arrivals
/// land every `--arrival-period` cycles (default half of
/// `--drain-cycles`; 0 = one burst) against the modeled
/// `--drain-cycles` server. `--degrade-pct P` admits resident-plan-only
/// at/above P% occupancy. Composes with `--faults`.
///
/// `--slo-front FILE` reads a `slo_front` bench artifact, picks the
/// operating point meeting `--slo-availability-ppm` (default 900000)
/// and `--slo-p99-cycles` (default unbounded), and publishes the choice
/// through `/healthz`; its queue depth is the `--queue-depth` default.
///
/// `--serve ADDR` starts the offline-safe exposition server (e.g.
/// `127.0.0.1:9100`, or port `0` for an ephemeral port) publishing
/// `/metrics`, `/healthz`, `/snapshot` and `/flight` live while the
/// batch streams; `--serve-scrape` self-scrapes it at end of run with
/// the std-only client. `--flight-out FILE` dumps the per-frame flight
/// ring as JSON. Any of these (or `--metrics-out`/`--prom-out`) attaches
/// an observability hub to the session, and the export writers also
/// flush on panic via the filtered panic hook.
pub fn stream(args: &Args) -> Result<(), CliError> {
    let seed: u64 = args.get_or("seed", workloads::EVAL_SEEDS[0])?;
    let n_frames: usize = args.get_or("frames", 8usize)?;
    let workers: usize = args.get_or("workers", 4usize)?;
    let shards: usize = args.get_or("shards", 1usize)?;
    let grid_side: u32 = args.get_or("grid", workloads::GRID_SIDE)?;
    let n_layers: usize = args.get_or("layers", 3usize)?;
    let engines: usize = args.get_or("engines", 8usize)?;
    let gemm_backend: GemmBackendKind = args.get_or("gemm-backend", GemmBackendKind::from_env())?;
    if n_frames == 0 {
        return Err(CliError::Command("--frames must be at least 1".into()));
    }
    let ingest = args.get("tenants").is_some() || args.get("queue-depth").is_some();
    if args.get("chaos-out").is_some() && !ingest && !args.flag("faults") {
        return Err(cmd_err(
            "--chaos-out needs --faults, --tenants or --queue-depth",
        ));
    }
    let stack = workloads::streaming_stack(n_layers);
    let frames = if args.flag("static-scene") {
        let first = workloads::streaming_frames(seed, 1, grid_side, &stack);
        vec![first[0].clone(); n_frames]
    } else {
        workloads::streaming_frames(seed, n_frames, grid_side, &stack)
    };
    let esca = Esca::new(EscaConfig::default()).map_err(cmd_err)?;
    let clock = esca.config().clock_mhz;
    let mut session = StreamingSession::new(esca, stack, workers)
        .with_layer_shards(shards)
        .with_gemm_backend(gemm_backend)
        .with_matching_reuse(args.flag("reuse-matching"));

    let mut operating_point = None;
    if let Some(path) = args.get("slo-front") {
        let text = std::fs::read_to_string(path).map_err(cmd_err)?;
        let front: SloFrontFile = serde_json::from_str(&text).map_err(cmd_err)?;
        let slo = SloTarget {
            min_availability_ppm: args.get_or("slo-availability-ppm", 900_000u64)?,
            max_p99_latency_cycles: args.get_or("slo-p99-cycles", 0u64)?,
        };
        let op = select_operating_point(&front.points, &slo)
            .ok_or_else(|| CliError::Command(format!("{path}: empty operating-point sweep")))?;
        println!(
            "operating point from {path}: queue depth {}, {} retries, budget {} \
             -> {} ppm availability @ p99 {} cycles",
            op.queue_depth,
            op.max_retries,
            op.cycle_budget,
            op.availability_ppm,
            op.p99_latency_cycles
        );
        session = session.with_operating_point(op);
        operating_point = Some(op);
    }

    let metrics_out = args.get("metrics-out");
    let prom_out = args.get("prom-out");
    let flight_out = args.get("flight-out");
    let serve_addr = args.get("serve");
    let hub = (serve_addr.is_some()
        || flight_out.is_some()
        || metrics_out.is_some()
        || prom_out.is_some())
    .then(|| Arc::new(ObservabilityHub::new()));
    if let Some(hub) = &hub {
        session = session.with_hub(Arc::clone(hub));
        register_stream_flush(hub, metrics_out, prom_out, flight_out);
    }
    let server = match (serve_addr, &hub) {
        (Some(addr), Some(hub)) => {
            let srv = MetricsServer::bind(addr, Arc::clone(hub)).map_err(cmd_err)?;
            println!("observability plane on http://{}", srv.local_addr());
            Some(srv)
        }
        _ => None,
    };

    if ingest {
        let tenants = match args.get("tenants") {
            Some(spec) => parse_tenants(spec)?,
            None => Vec::new(),
        };
        let default_depth = operating_point.map_or(64, |op| op.queue_depth as usize);
        let drain_cycles: u64 = args.get_or("drain-cycles", 70_000u64)?;
        let admission = AdmissionConfig {
            queue_depth: args.get_or("queue-depth", default_depth)?,
            drain_cycles,
            degrade_occupancy_pct: args.get_or("degrade-pct", DEGRADE_DISABLED)?,
            tenants: tenants.clone(),
            ..AdmissionConfig::default()
        };
        let period: u64 = args.get_or("arrival-period", drain_cycles / 2)?;
        let arrivals: Vec<Arrival> = (0..frames.len())
            .map(|i| Arrival {
                frame: i,
                tenant: if tenants.is_empty() {
                    0
                } else {
                    tenants[i % tenants.len()].tenant
                },
                at_cycle: i as u64 * period,
            })
            .collect();
        let cfg = if args.flag("faults") {
            FaultConfig::campaign(args.get_or("fault-seed", seed)?)
        } else {
            FaultConfig::off(seed)
        };
        let report = session
            .run_batch_ingest(&frames, &arrivals, &cfg, &admission)
            .map_err(cmd_err)?;
        let c = &report.counters;
        println!(
            "ingest stream over {} frames ({} tenants, queue depth {}, drain {} cycles, \
             arrivals every {} cycles) on {} workers:",
            report.frames.len(),
            tenants.len().max(1),
            admission.queue_depth,
            admission.drain_cycles,
            period,
            report.workers
        );
        println!(
            "  outcomes:    {} ok, {} retried, {} failed, {} dropped ({} degraded), peak queue {}",
            c.ok_frames,
            c.retried_frames,
            c.failed_frames,
            c.dropped_frames,
            c.degraded_frames,
            report.queue_peak
        );
        println!(
            "  drops:       {} backpressure, {} deadline, {} shed, {} over quota",
            c.dropped_backpressure, c.dropped_deadline, c.dropped_shed, c.dropped_over_quota
        );
        let ids: Vec<u32> = if tenants.is_empty() {
            vec![0]
        } else {
            tenants.iter().map(|q| q.tenant).collect()
        };
        for id in ids {
            let total = report.frames.iter().filter(|fr| fr.tenant == id).count();
            let done = report
                .frames
                .iter()
                .filter(|fr| fr.tenant == id && fr.outcome.completed())
                .count();
            println!("    tenant {id:<3} {done}/{total} frames completed");
        }
        return finish_stream(
            args,
            &report.telemetry,
            Some(&report.summary()),
            hub.as_ref(),
            server.as_ref(),
        );
    }

    if args.flag("faults") {
        let fault_seed: u64 = args.get_or("fault-seed", seed)?;
        let cfg = FaultConfig::campaign(fault_seed);
        let report = session
            .run_batch_resilient(&frames, &cfg)
            .map_err(cmd_err)?;
        let c = &report.counters;
        println!(
            "chaos campaign over {} frames (fault seed {fault_seed}, grid {grid_side}³) on {} workers:",
            report.frames.len(),
            report.workers
        );
        println!(
            "  outcomes:    {} ok, {} retried ({} retries), {} failed, {} dropped",
            c.ok_frames, c.retried_frames, c.retries_total, c.failed_frames, c.dropped_frames
        );
        println!(
            "  faults:      {} injected, {} detected, {} fallbacks, {} silent corruptions, {} stall cycles",
            c.total_injected(),
            c.detected.iter().sum::<u64>(),
            c.fallbacks,
            c.silent_corruptions,
            c.injected_stall_cycles
        );
        for class in FaultClass::ALL {
            let i = class as usize;
            if c.injected[i] > 0 {
                println!(
                    "    {:<18} {} injected / {} detected",
                    class.as_str(),
                    c.injected[i],
                    c.detected[i]
                );
            }
        }
        return finish_stream(
            args,
            &report.telemetry,
            Some(&report.summary()),
            hub.as_ref(),
            server.as_ref(),
        );
    }

    let report = session.run_batch(&frames).map_err(cmd_err)?;

    println!(
        "streamed {} frames (seed {seed}, grid {grid_side}³, {n_layers}-layer stack) on {} workers:",
        report.frames(),
        report.workers
    );
    println!(
        "  host wall:   {:.2} frames/s (p50 {:.3} ms, p99 {:.3} ms per frame)",
        report.wall_fps(),
        report.latency_percentile(50.0).as_secs_f64() * 1e3,
        report.latency_percentile(99.0).as_secs_f64() * 1e3
    );
    println!(
        "  simulated:   {:.2} GOPS aggregate at {clock} MHz, {} cycles total ({} weight load)",
        report.aggregate_gops(),
        report.sequential_cycles(),
        report.weight_load_cycles()
    );
    let m = report.modeled(engines);
    println!(
        "  modeled:     {engines} engines sustain {:.1} frames/s ({:.2}x over one engine)",
        m.frames_per_s, m.speedup
    );
    let resident = report
        .telemetry
        .cycle
        .counters
        .iter()
        .find(|c| c.name == "esca_stream_resident_frames_total")
        .map(|c| c.value);
    if let Some(resident) = resident {
        println!(
            "  matching reuse: {resident}/{} frames matching-resident",
            report.frames()
        );
    }
    if args.flag("json") {
        let json = serde_json::to_string_pretty(&report.per_frame).map_err(cmd_err)?;
        println!("{json}");
    }
    if let Some(path) = args.get("trace-out") {
        // One lane per modeled engine, one "X" event per frame; derived
        // purely from simulated cycles, so the file is byte-identical for
        // any worker count.
        let trace = report.to_chrome_trace(engines);
        write_text(path, &trace.to_json().map_err(cmd_err)?)?;
    }
    if let Some(path) = args.get("span-trace-out") {
        // The nested frame → attempt → layer export; cycle-domain ts/dur
        // are byte-identical across (workers, shards) splits.
        let trace = report.to_span_trace();
        write_text(path, &trace.to_json().map_err(cmd_err)?)?;
    }
    finish_stream(args, &report.telemetry, None, hub.as_ref(), server.as_ref())
}

/// `esca tables [--only 1|2|3|fig10]`
pub fn tables(args: &Args) -> Result<(), CliError> {
    let only = args.get("only");
    let cfg = EscaConfig::default();
    if only.is_none() || only == Some("1") {
        let shapenet = tables::table1_mean(workloads::shapenet_voxelized);
        tables::print_table1_block("ShapeNet-like", &shapenet, &paper::TABLE1_SHAPENET);
        let nyu = tables::table1_mean(workloads::nyu_voxelized);
        tables::print_table1_block("NYU-like", &nyu, &paper::TABLE1_NYU);
    }
    if only.is_none() || only == Some("2") {
        tables::print_table2(&cfg);
    }
    if only.is_none() || only == Some("3") || only == Some("fig10") {
        let cmp = tables::compare_platforms(workloads::EVAL_SEEDS[0], &cfg);
        if only != Some("fig10") {
            tables::print_table3(&cmp);
        }
        if only.is_none() || only == Some("fig10") {
            tables::print_fig10(&cmp);
        }
    }
    Ok(())
}

/// `esca dse [--seed N]`
pub fn dse(args: &Args) -> Result<(), CliError> {
    let seed: u64 = args.get_or("seed", workloads::EVAL_SEEDS[0])?;
    let layers = workloads::unet_subconv_workload(seed);
    // Use two representative layers to keep the sweep quick.
    let mut workload: DseWorkload = Vec::new();
    for lw in layers.iter().take(3) {
        let qw = QuantizedWeights::auto(&lw.weights, 8, 12).map_err(cmd_err)?;
        let qin = quantize_tensor(&lw.input, qw.quant().act);
        workload.push((qin, qw, true));
    }
    let points =
        sweep(&EscaConfig::default(), &SweepAxes::default(), &workload).map_err(cmd_err)?;
    println!(
        "{:<28} {:>8} {:>8} {:>9} {:>6}",
        "design point", "GOPS", "power W", "GOPS/W", "DSP"
    );
    for p in &points {
        println!(
            "{:<28} {:>8.2} {:>8.2} {:>9.2} {:>6}",
            p.label, p.gops, p.power_w, p.gops_per_w, p.dsp
        );
    }
    println!("pareto front:");
    for p in pareto_front(&points) {
        println!("  {}", p.label);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn make_cloud_validates_dataset() {
        assert!(make_cloud("shapenet", 1).is_ok());
        assert!(make_cloud("nyu", 1).is_ok());
        assert!(make_cloud("modelnet", 1).is_err());
    }

    #[test]
    fn generate_to_file_roundtrips() {
        let dir = std::env::temp_dir().join("esca_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("obj.xyz");
        let path_str = path.to_str().unwrap();
        let a = parse(&[
            "generate",
            "--dataset",
            "shapenet",
            "--seed",
            "4",
            "--out",
            path_str,
        ]);
        generate(&a).unwrap();
        let cloud = esca_pointcloud::io::read_xyz(std::fs::File::open(&path).unwrap()).unwrap();
        assert!(cloud.len() > 1000);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn voxelize_runs_on_small_grid() {
        let a = parse(&[
            "voxelize",
            "--dataset",
            "nyu",
            "--seed",
            "2",
            "--grid",
            "96",
        ]);
        voxelize(&a).unwrap();
    }

    #[test]
    fn stream_static_scene_runs_with_matching_reuse() {
        let a = parse(&[
            "stream",
            "--frames",
            "3",
            "--workers",
            "1",
            "--layers",
            "1",
            "--grid",
            "48",
            "--static-scene",
            "--reuse-matching",
        ]);
        stream(&a).unwrap();
    }

    #[test]
    fn stream_serves_and_dumps_flight() {
        let dir = std::env::temp_dir().join("esca_cli_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let flight = dir.join("flight.json");
        let a = parse(&[
            "stream",
            "--frames",
            "2",
            "--workers",
            "1",
            "--layers",
            "1",
            "--grid",
            "48",
            "--serve",
            "127.0.0.1:0",
            "--serve-scrape",
            "--flight-out",
            flight.to_str().unwrap(),
        ]);
        stream(&a).unwrap();
        let dump = std::fs::read_to_string(&flight).unwrap();
        assert!(dump.contains("\"events\""));
        assert!(dump.contains("\"frame\": 0"));
        std::fs::remove_file(flight).unwrap();
    }

    #[test]
    fn run_rejects_bad_config() {
        let a = parse(&["run", "--tile", "8", "--ic", "0"]);
        assert!(run(&a).is_err());
    }

    #[test]
    fn load_or_make_grid_uses_input_file() {
        let dir = std::env::temp_dir().join("esca_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pts.xyz");
        std::fs::write(&path, "10 10 10\n20 20 20\n").unwrap();
        let a = parse(&[
            "voxelize",
            "--input",
            path.to_str().unwrap(),
            "--grid",
            "32",
        ]);
        let t = load_or_make_grid(&a).unwrap();
        assert_eq!(t.nnz(), 2);
        std::fs::remove_file(path).unwrap();
    }
}
