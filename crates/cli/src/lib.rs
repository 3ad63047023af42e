//! # esca-cli
//!
//! Library backing the `esca` command-line tool: subcommand
//! implementations over the ESCA-rs workspace crates. Kept as a library so
//! the subcommands are unit-testable; `src/main.rs` is a thin shell.
//!
//! Subcommands:
//!
//! * `generate` — synthesize a ShapeNet-/NYU-like point cloud to `.xyz`;
//! * `voxelize` — voxelize a cloud and print sparsity + Table-I-style tile
//!   analysis;
//! * `run` — run the SS U-Net's Sub-Conv layers on the accelerator model
//!   and report cycles/GOPS/power;
//! * `stream` — run a frame stream on the parallel streaming engine and
//!   report frames/s, per-frame latency percentiles and aggregate GOPS;
//!   optionally export a Chrome trace-event / Perfetto trace
//!   (`--trace-out`), a telemetry snapshot (`--metrics-out`) and a
//!   Prometheus text exposition (`--prom-out`); `--faults` runs the
//!   seeded chaos campaign on the resilient path instead and
//!   `--chaos-out` exports its replayable JSON summary;
//!   `--reuse-matching`, `--static-scene` and `--matching-resident`
//!   exercise matching reuse and its matching-resident steady state; `--serve ADDR` starts the live observability plane
//!   (`/metrics`, `/healthz`, `/snapshot`, `/flight`), `--serve-scrape`
//!   self-scrapes it with the std-only client, `--flight-out` dumps the
//!   per-frame flight ring and `--span-trace-out` exports the nested
//!   frame → attempt → layer Perfetto trace;
//! * `bench` — the `run` workload with the metrics snapshot always
//!   exported (default `metrics.json`);
//! * `tables` — regenerate all paper tables (I, II, III, Fig. 10);
//! * `dse` — sweep the design space and print the Pareto front.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::{ArgError, Args};

/// CLI top-level error: either bad arguments or a failed command.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing/validation failed.
    Args(ArgError),
    /// A command failed; the message is user-facing.
    Command(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Command(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

/// Usage text printed by `esca help` (and on errors).
pub const USAGE: &str = "\
esca — ESCA-rs command line (SOCC'22 point-cloud accelerator reproduction)

USAGE:
    esca <command> [options]

COMMANDS:
    generate   synthesize a point cloud        --dataset shapenet|nyu --seed N --out FILE.xyz
    voxelize   voxelize + tile analysis        --input FILE.xyz | --dataset ... --seed N [--grid 192]
    run        SS U-Net on the accelerator     --seed N [--tile 8] [--ic 16] [--oc 16] [--json] [--metrics-out FILE] [--prom-out FILE]
    stream     parallel multi-frame streaming  [--frames 8] [--workers 4] [--layers 3] [--grid 192] [--engines 8] [--shards 1] [--gemm-backend blocked|scalar] [--reuse-matching] [--static-scene] [--matching-resident] [--json] [--trace-out FILE] [--span-trace-out FILE] [--metrics-out FILE] [--prom-out FILE] [--serve ADDR] [--serve-scrape] [--flight-out FILE] [--faults] [--fault-seed N] [--chaos-out FILE] [--tenants CPT/BURST/PRIO,...] [--queue-depth N] [--drain-cycles N] [--arrival-period N] [--degrade-pct P] [--slo-front FILE] [--slo-availability-ppm N] [--slo-p99-cycles N]
    bench      run workload + metrics export   [--seed N] [--metrics-out metrics.json] [--prom-out FILE]
    tables     regenerate paper tables         [--only 1|2|3|fig10]
    dse        design-space exploration        [--seed N]
    help       print this text
";

/// Dispatches a parsed command line. Returns the process exit code.
///
/// # Errors
///
/// Returns [`CliError`] with a user-facing message on any failure.
pub fn dispatch(args: &Args) -> Result<(), CliError> {
    match args.command.as_deref() {
        Some("generate") => commands::generate(args),
        Some("voxelize") => commands::voxelize(args),
        Some("run") => commands::run(args),
        Some("stream") => commands::stream(args),
        Some("bench") => commands::bench(args),
        Some("tables") => commands::tables(args),
        Some("dse") => commands::dse(args),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(CliError::Command(format!(
            "unknown command {other:?}; try `esca help`"
        ))),
    }
}
