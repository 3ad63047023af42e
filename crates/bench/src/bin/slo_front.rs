//! SLO sweep for the ingest admission plane: replayable chaos campaigns
//! over fault rate x retries x cycle budget x queue depth, reduced to an
//! availability/latency Pareto front and an operating-point selection.
//!
//! Every campaign is a seeded, deterministic overload scenario (arrivals
//! at twice the modeled drain rate, two tenants with unequal quotas) run
//! through [`StreamingSession::run_batch_ingest`]. Availability is the
//! completed fraction in ppm; latency is the modeled per-frame
//! `queue_wait + spent_cycles`, reported at p99. Both live entirely in
//! the cycle domain, so the whole sweep replays bit-exactly.
//!
//! Run with `cargo run --release -p esca-bench --bin slo_front --
//! [--smoke] [--out FILE]`. The JSON artifact carries every swept
//! point, the Pareto front and the selected operating point; the CLI's
//! `--slo-front FILE` flag feeds it back into a live session's
//! `/healthz`.

use esca::admission::{
    pareto_front, select_operating_point, AdmissionConfig, Arrival, SloTarget, TenantQuota,
};
use esca::resilience::{FaultConfig, FaultRates, RecoveryPolicy};
use esca::streaming::StreamingSession;
use esca::{Esca, EscaConfig};
use esca_bench::workloads;
use esca_telemetry::serve::OperatingPoint;
use serde::Serialize;

const CAMPAIGN_SEED: u64 = 0x510F; // replayable: the sole randomness source
/// Modeled service time per frame — the same order as the stack's real
/// per-frame cycle cost, so queueing delay and compute cost land on one
/// scale and deeper queues genuinely trade latency for availability.
const DRAIN_CYCLES: u64 = 70_000;
const ARRIVAL_PERIOD: u64 = 35_000; // 2x overload

/// The artifact `--out` writes: the full sweep, its Pareto reduction and
/// the selector's choice under the default SLO.
#[derive(Serialize)]
struct SweepArtifact {
    seed: u64,
    frames: usize,
    drain_cycles: u64,
    arrival_period: u64,
    slo: SloTarget,
    points: Vec<OperatingPoint>,
    front: Vec<OperatingPoint>,
    selected: OperatingPoint,
}

/// One overload campaign at a fixed policy tuple, reduced to an
/// [`OperatingPoint`].
fn run_point(
    frames: &[esca_tensor::SparseTensor<esca_tensor::Q16>],
    stack: &[(esca_sscn::quant::QuantizedWeights, bool)],
    fault_rate_ppm: u64,
    max_retries: u32,
    cycle_budget: u64,
    queue_depth: u64,
) -> OperatingPoint {
    let arrivals: Vec<Arrival> = (0..frames.len())
        .map(|i| Arrival {
            frame: i,
            tenant: if i % 2 == 0 { 1 } else { 2 },
            at_cycle: i as u64 * ARRIVAL_PERIOD,
        })
        .collect();
    let admission = AdmissionConfig {
        queue_depth: queue_depth as usize,
        drain_cycles: DRAIN_CYCLES,
        tenants: vec![
            TenantQuota {
                tenant: 1,
                cycles_per_token: ARRIVAL_PERIOD,
                burst: 2,
                priority: 1,
            },
            TenantQuota {
                tenant: 2,
                cycles_per_token: ARRIVAL_PERIOD * 2,
                burst: 2,
                priority: 0,
            },
        ],
        ..AdmissionConfig::default()
    };
    let rate = fault_rate_ppm as f64 / 1e6;
    let cfg = FaultConfig {
        seed: CAMPAIGN_SEED ^ fault_rate_ppm ^ (queue_depth << 32),
        rates: FaultRates {
            frame_corrupt: rate,
            stall: rate,
            ..FaultRates::off()
        },
        max_stall_cycles: 3_000,
        recovery: RecoveryPolicy {
            max_retries,
            cycle_budget: (cycle_budget > 0).then_some(cycle_budget),
        },
        ..FaultConfig::off(CAMPAIGN_SEED)
    };
    let esca = Esca::new(EscaConfig::default()).expect("valid config");
    let session = StreamingSession::new(esca, stack.to_vec(), 2);
    let report = session
        .run_batch_ingest(frames, &arrivals, &cfg, &admission)
        .expect("campaign runs");

    let availability_ppm = report.completed() as u64 * 1_000_000 / frames.len() as u64;
    // Modeled end-to-end latency of completed frames: queueing delay
    // plus the cycles the attempts actually spent.
    let mut latencies: Vec<u64> = report
        .frames
        .iter()
        .filter(|fr| fr.outcome.completed())
        .map(|fr| report.admissions[fr.frame].queue_wait_cycles() + fr.spent_cycles)
        .collect();
    latencies.sort_unstable();
    let p99_latency_cycles = latencies
        .get(((latencies.len() * 99).div_ceil(100)).saturating_sub(1))
        .copied()
        .unwrap_or(0);
    OperatingPoint {
        fault_rate_ppm,
        max_retries,
        cycle_budget,
        queue_depth,
        availability_ppm,
        p99_latency_cycles,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let n_frames = if smoke { 8 } else { 16 };
    let stack = workloads::streaming_stack(2);
    let frames = workloads::streaming_frames(workloads::EVAL_SEEDS[0], n_frames, 32, &stack);

    let fault_rates: &[u64] = if smoke { &[0] } else { &[0, 150_000, 300_000] };
    let retries: &[u32] = if smoke { &[2] } else { &[0, 2] };
    let budgets: &[u64] = if smoke { &[0] } else { &[0, 60_000] };
    let depths: &[u64] = &[2, 4, 8];

    println!("== SLO sweep: {n_frames} frames, 2x overload, seed {CAMPAIGN_SEED:#x} ==");
    println!(
        "{:>9} | {:>7} | {:>8} | {:>5} | {:>9} | {:>10}",
        "fault ppm", "retries", "budget", "depth", "avail ppm", "p99 cycles"
    );
    let mut points = Vec::new();
    for &fault_rate_ppm in fault_rates {
        for &max_retries in retries {
            for &cycle_budget in budgets {
                for &queue_depth in depths {
                    let p = run_point(
                        &frames,
                        &stack,
                        fault_rate_ppm,
                        max_retries,
                        cycle_budget,
                        queue_depth,
                    );
                    println!(
                        "{:>9} | {:>7} | {:>8} | {:>5} | {:>9} | {:>10}",
                        p.fault_rate_ppm,
                        p.max_retries,
                        p.cycle_budget,
                        p.queue_depth,
                        p.availability_ppm,
                        p.p99_latency_cycles
                    );
                    points.push(p);
                }
            }
        }
    }

    let front = pareto_front(&points);
    let slo = SloTarget::default();
    let selected = select_operating_point(&points, &slo).expect("non-empty sweep");
    println!("\nPareto front ({} points):", front.len());
    for p in &front {
        let marker = if *p == selected { "  <- selected" } else { "" };
        println!(
            "  depth {} retries {} budget {} fault {} -> {} ppm @ p99 {} cycles{}",
            p.queue_depth,
            p.max_retries,
            p.cycle_budget,
            p.fault_rate_ppm,
            p.availability_ppm,
            p.p99_latency_cycles,
            marker
        );
    }
    println!(
        "selected operating point: depth {} (availability {} ppm, p99 {} cycles) for SLO >= {} ppm",
        selected.queue_depth,
        selected.availability_ppm,
        selected.p99_latency_cycles,
        slo.min_availability_ppm
    );

    assert!(
        front.len() >= 3,
        "sweep must expose at least 3 distinct operating points, got {}",
        front.len()
    );

    if let Some(path) = out {
        let artifact = SweepArtifact {
            seed: CAMPAIGN_SEED,
            frames: n_frames,
            drain_cycles: DRAIN_CYCLES,
            arrival_period: ARRIVAL_PERIOD,
            slo,
            points,
            front,
            selected,
        };
        let json = serde_json::to_string_pretty(&artifact).expect("plain structs serialize");
        std::fs::write(&path, json).expect("artifact written");
        println!("wrote {path}");
    }
}
