//! ESCA-rs benchmark: runs one named workload with a given seed for a
//! fixed time, checks its outputs, and prints every metric by name and
//! unit. The last stdout line is the results object:
//! `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
//! metrics when `--trace 0` and the per-layer metrics when `--trace 1`.
//! The line before it is a report with the run's settings, every
//! end-to-end figure that applies to the workload, and the exact-identity
//! digest.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Every workload is a closed loop from one caller: the next call starts
//! when the previous one returns. Times are host wall time; modeled
//! cycles are simulated and never divided into host time except in the
//! explicitly named `sim_cycles_per_s` and `host_ns_per_cycle`.

// The repository's clippy.toml bans wall-clock reads to keep host time
// out of the cycle model; measuring host time is this program's purpose.
#![allow(clippy::disallowed_methods)]

mod cycle;
mod inputs;
mod stats;
mod trace;
mod unet;

use serde::Content;
use stats::{median, tail, valid_name, Fnv, Metric, Results};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per run: at least `SETUP_MIN_RUNS`, then more while their
/// total stays under `SETUP_BUDGET_S`, so cheap set-ups get more samples;
/// `setup_s` is their median.
const SETUP_MIN_RUNS: usize = 5;
const SETUP_MAX_RUNS: usize = 30;
const SETUP_BUDGET_S: f64 = 1.5;

/// Environment knobs that select a different program than the default
/// one this benchmark measures.
const REFUSED_ENV: [&str; 4] = [
    "ESCA_GEMM_BACKEND",
    "ESCA_PLAN_CACHE",
    "ESCA_PLAN_CACHE_BYTES",
    "ESCA_FLIGHT_CAPACITY",
];

/// Every workload the command accepts. `BENCHMARK.json` gates a subset;
/// see perfbench/README.md for why the others are not gated.
pub const WORKLOADS: [&str; 4] = ["sim_moving", "unet_moving", "unet_static", "service_small"];

/// The end-to-end metrics of `--trace 0`, in output order, with units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of `--trace 1`, in output order, with units.
/// Every workload prints all of them; a layer the workload does not
/// exercise reads 0.
const PER_LAYER: [(&str, &str); 47] = [
    ("pointcloud.voxelize_ms", "ms"),
    ("tensor.fingerprint_us", "us"),
    ("tensor.fingerprint_calls", "count"),
    ("sscn.rulebook.build_ms", "ms"),
    ("sscn.rulebook.builds", "count"),
    ("sscn.cache.hit_ratio", "ratio"),
    ("sscn.cache.bytes", "bytes"),
    ("sscn.gemm.ms", "ms"),
    ("sscn.gemm.macs", "count"),
    ("sscn.gemm.gmacs_per_s", "GMAC/s"),
    ("sscn.subconv.self_ms", "ms"),
    ("sscn.resample_ms", "ms"),
    ("esca.zero_removing.ms", "ms"),
    ("esca.zero_removing.cycles", "cycles"),
    ("esca.zero_removing.active_tile_ratio", "ratio"),
    ("esca.encode.ms", "ms"),
    ("esca.encode.bytes", "bytes"),
    ("esca.accelerator.layer_ms", "ms"),
    ("esca.accelerator.tile_loop_ms", "ms"),
    ("esca.accelerator.host_ns_per_cycle", "ns/cycle"),
    ("esca.accelerator.scan_busy_cycles", "cycles"),
    ("esca.accelerator.fetch_busy_cycles", "cycles"),
    ("esca.accelerator.compute_busy_cycles", "cycles"),
    ("esca.accelerator.drain_cycles", "cycles"),
    ("esca.accelerator.fifo_stall_cycles", "cycles"),
    ("esca.accelerator.dram_stall_cycles", "cycles"),
    ("esca.accelerator.match_cycles", "cycles"),
    ("esca.accelerator.array_utilization", "ratio"),
    ("esca.accelerator.scanned_sites_per_group", "ratio"),
    ("esca.modeled_cycles_per_frame", "cycles"),
    ("esca.sim_cycles_per_s", "cycles/s"),
    ("esca.streaming.overhead_share", "ratio"),
    ("esca.admission.evaluate_us", "us"),
    ("esca.admission.admitted", "count"),
    ("esca.admission.shed", "count"),
    ("esca.admission.rejected", "count"),
    ("esca.admission.over_quota", "count"),
    ("esca.admission.peak_queue", "count"),
    ("esca.admission.refused_ratio", "ratio"),
    ("esca.resilience.retries", "count"),
    ("esca.resilience.fallbacks", "count"),
    ("esca.resilience.failed", "count"),
    ("telemetry.render_ms", "ms"),
    ("telemetry.series", "count"),
    ("telemetry.flight_events", "count"),
    ("trace.frames", "count"),
    ("trace.overhead_share", "ratio"),
];

/// What one closed-loop call did.
pub struct Step {
    /// Host time of the library call alone.
    pub call: Duration,
    pub offered: u64,
    pub completed: u64,
    /// Frames whose output or exact statistics differ from the reference.
    pub failed: u64,
    /// Modeled cycles of the completed frames (0 off the cycle model).
    pub cycles: u64,
    /// Sum of the per-frame host times the session reports.
    pub frame_wall: Duration,
}

impl Step {
    /// A call that returned an error: every frame it was offered failed.
    pub fn errored(call: Duration, offered: usize) -> Self {
        Step {
            call,
            offered: offered as u64,
            completed: 0,
            failed: offered as u64,
            cycles: 0,
            frame_wall: Duration::ZERO,
        }
    }
}

pub trait Workload {
    /// Pool workers of the workload's session (0 without a pool).
    fn workers(&self) -> usize;
    /// One call; with a tracer, the traced variant of the same call.
    fn step(&mut self, tracer: Option<&mut Tracer>) -> Result<Step, String>;
    /// Checks the reference outputs against the golden model, outside
    /// the timed region: `(frames checked, frames failed)`.
    fn verify(&self) -> Result<(u64, u64), String>;
    /// Feeds everything that must repeat exactly into `h`.
    fn digest(&self, h: &mut Fnv);
    /// Mean modeled cycles per distinct frame, for workloads on the
    /// cycle model.
    fn modeled_cycles_per_frame(&self) -> Option<f64> {
        None
    }
    fn layer_metrics(&self, tr: &Tracer, out: &mut BTreeMap<&'static str, f64>);
    fn voxelize_ms(&self) -> &[f64];
}

fn setup(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "sim_moving" => Box::new(cycle::SimMoving::new(seed)?),
        "unet_moving" => Box::new(unet::Unet::moving(seed)?),
        "unet_static" => Box::new(unet::Unet::fixed(seed)?),
        "service_small" => Box::new(cycle::ServiceSmall::new(seed)?),
        other => return Err(format!("unknown workload `{other}`; one of {WORKLOADS:?}")),
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let known = ["workload", "seed", "seconds", "trace"];
    if let Some(k) = map.keys().find(|k| !known.contains(&k.as_str())) {
        return Err(format!("unknown flag --{k}"));
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
    })
}

/// Refuses builds and environments that measure a different program.
fn guard() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err(
            "debug build: it runs the per-site cross-check asserts; build with --release".into(),
        );
    }
    for k in REFUSED_ENV {
        if std::env::var_os(k).is_some() {
            return Err(format!(
                "{k} is set; unset it to measure the default configuration"
            ));
        }
    }
    Ok(())
}

/// Calls in one timed phase.
#[derive(Default)]
struct Phase {
    latency_ms: Vec<f64>,
    busy: Duration,
    offered: u64,
    completed: u64,
    failed: u64,
    cycles: u64,
    overhead_shares: Vec<f64>,
}

impl Phase {
    fn run(
        w: &mut dyn Workload,
        seconds: f64,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Phase, String> {
        let mut p = Phase::default();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let s = w.step(tracer.as_deref_mut())?;
            p.latency_ms.push(s.call.as_secs_f64() * 1e3);
            p.busy += s.call;
            p.offered += s.offered;
            p.completed += s.completed;
            p.failed += s.failed;
            p.cycles += s.cycles;
            if w.workers() > 0 {
                let capacity = s.call.as_secs_f64() * w.workers() as f64;
                p.overhead_shares
                    .push(1.0 - s.frame_wall.as_secs_f64() / capacity);
            }
        }
        Ok(p)
    }

    fn frames_per_s(&self) -> f64 {
        self.completed as f64 / self.busy.as_secs_f64()
    }

    fn sim_cycles_per_s(&self) -> f64 {
        self.cycles as f64 / self.busy.as_secs_f64()
    }
}

fn run(args: &Args) -> Result<(Results, Content), String> {
    guard()?;
    let mut setup_s = Vec::new();
    let mut workload = None;
    while setup_s.len() < SETUP_MIN_RUNS
        || (setup_s.len() < SETUP_MAX_RUNS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Drop the previous set-up (joining its pool) before the next.
        drop(workload.take());
        let t = Instant::now();
        let w = setup(&args.workload, args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");
    let setup_median = median(&setup_s).expect("set-up ran");

    let (timed, traced) = if args.trace {
        let mut tr = Tracer::new();
        let plain = Phase::run(w.as_mut(), args.seconds / 2.0, None)?;
        let traced = Phase::run(w.as_mut(), args.seconds / 2.0, Some(&mut tr))?;
        (plain, Some((traced, tr)))
    } else {
        (Phase::run(w.as_mut(), args.seconds, None)?, None)
    };
    let (checked, verify_failed) = w.verify()?;
    let mut digest = Fnv::default();
    w.digest(&mut digest);

    let p50 = median(&timed.latency_ms).ok_or("no calls completed")?;
    let tail = tail(&timed.latency_ms);
    let (tail_ms, tail_pct) = match tail {
        Some(t) => t,
        // The traced run reports no end-to-end metric, so its shorter
        // untraced phase may fall short of the tail rule.
        None if args.trace => (f64::NAN, f64::NAN),
        None => {
            return Err(format!(
                "{} calls: the tail needs at least 11; raise --seconds",
                timed.latency_ms.len()
            ))
        }
    };
    let rss = stats::peak_rss_mb()?;
    let mut attempted = timed.offered + checked;
    let mut failed = timed.failed + verify_failed;
    let modeled = w.modeled_cycles_per_frame();

    let metrics: Vec<Metric> = match &traced {
        None => {
            let values = [setup_median, timed.frames_per_s(), p50, tail_ms, rss];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| Metric::new(name, v, unit))
                .collect()
        }
        Some((tp, tr)) => {
            attempted += tp.offered;
            failed += tp.failed;
            let mut layer = BTreeMap::new();
            w.layer_metrics(tr, &mut layer);
            layer.insert(
                "pointcloud.voxelize_ms",
                median(w.voxelize_ms()).unwrap_or(0.0),
            );
            if let Some(cycles) = modeled {
                layer.insert("esca.sim_cycles_per_s", timed.sim_cycles_per_s());
                layer.insert("esca.modeled_cycles_per_frame", cycles);
            }
            if let Some(share) = median(&tp.overhead_shares) {
                layer.insert("esca.streaming.overhead_share", share);
            }
            layer.insert("trace.frames", tp.completed as f64);
            let traced_p50 = median(&tp.latency_ms).ok_or("no traced calls completed")?;
            layer.insert("trace.overhead_share", traced_p50 / p50 - 1.0);
            if let Some(k) = layer
                .keys()
                .find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
            {
                return Err(format!("workload emitted undeclared metric `{k}`"));
            }
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    Metric::new(name, layer.get(name).copied().unwrap_or(0.0), unit)
                })
                .collect()
        }
    };
    if let Some(m) = metrics.iter().find(|m| !valid_name(&m.name)) {
        return Err(format!("invalid metric name `{}`", m.name));
    }

    let mut e2e = vec![
        ("setup_s", setup_median),
        ("frames_per_s", timed.frames_per_s()),
        ("latency_ms_p50", p50),
        ("latency_ms_tail", tail_ms),
    ];
    if let Some(cycles) = modeled {
        e2e.push(("sim_cycles_per_s", timed.sim_cycles_per_s()));
        e2e.push(("modeled_cycles_per_frame", cycles));
    }
    if args.workload == "service_small" {
        e2e.push((
            "refused_ratio",
            1.0 - timed.completed as f64 / timed.offered as f64,
        ));
    }
    e2e.push(("error_rate", failed as f64 / attempted as f64));
    e2e.push(("peak_rss_mb", rss));
    let f = Content::F64;
    let u = |v: usize| Content::U64(v as u64);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let backend = esca_sscn::gemm::GemmBackendKind::from_env().label();
    let mut report = vec![
        ("workload", Content::Str(args.workload.clone())),
        ("seed", Content::U64(args.seed)),
        ("seconds", f(args.seconds)),
        ("trace", Content::Bool(args.trace)),
        ("profile", Content::Str("release".into())),
        ("backend", Content::Str(backend.into())),
        ("workers", u(w.workers())),
        ("nproc", u(nproc)),
        (
            "setup_runs",
            Content::Seq(setup_s.iter().copied().map(f).collect()),
        ),
        ("calls", u(timed.latency_ms.len())),
        ("latency_tail_percentile", f(tail_pct)),
        (
            "identity_digest",
            Content::Str(format!("{:016x}", digest.finish())),
        ),
        (
            "end_to_end",
            Content::Map(
                e2e.into_iter()
                    .map(|(k, v)| (k.to_string(), f(v)))
                    .collect(),
            ),
        ),
    ];
    if let Some((tp, tr)) = &traced {
        report.push(("traced_calls", u(tp.latency_ms.len())));
        report.push(("spans", u(tr.spans().len())));
        write_spans(&args.workload, tr)?;
    }
    let report = Content::Map(
        report
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    let results = Results {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    };
    Ok((results, report))
}

/// Writes the traced run's spans beside the build output
/// (`<target>/perfbench-spans/<workload>.json`).
fn write_spans(workload: &str, tr: &Tracer) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("executable has no target directory")?
        .join("perfbench-spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}.json"));
    std::fs::write(&path, tr.to_json()).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((results, report)) => {
            let report = Content::Map(vec![("report".into(), report)]);
            println!(
                "{}",
                serde_json::to_string(&report).expect("a content tree always serializes")
            );
            println!("{}", results.to_json());
            if results.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "error: {} of {} frames failed the output check",
                    results.failed, results.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload unet_static --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("unet_static", 7, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload sim_moving --seed x --seconds 1 --trace 0",
            "--workload sim_moving --seed 1 --seconds 0 --trace 0",
            "--workload sim_moving --seed 1 --seconds 1 --trace 2",
            "--workload sim_moving --seed 1 --seconds 1",
            "--workload sim_moving --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let spec: Content = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            spec[key]
                .as_seq()
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m[k].as_str().unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        for w in spec["workloads"].as_seq().unwrap() {
            assert!(WORKLOADS.contains(&w["name"].as_str().unwrap()));
        }
    }

    #[test]
    fn declared_metrics_are_unique_and_well_named() {
        let mut names: Vec<&str> = PER_LAYER
            .iter()
            .chain(&END_TO_END)
            .map(|(n, _)| *n)
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len() + END_TO_END.len());
    }
}
