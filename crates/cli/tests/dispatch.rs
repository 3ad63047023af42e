//! CLI dispatch-level tests (fast paths only; the heavy subcommands are
//! exercised by their own unit tests and by release-mode smoke runs).

use esca_cli::{dispatch, Args, CliError};

fn parse(tokens: &[&str]) -> Args {
    Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
}

#[test]
fn help_and_empty_succeed() {
    assert!(dispatch(&parse(&["help"])).is_ok());
    assert!(dispatch(&parse(&[])).is_ok());
}

#[test]
fn unknown_command_fails_with_message() {
    let err = dispatch(&parse(&["frobnicate"])).unwrap_err();
    match err {
        CliError::Command(m) => assert!(m.contains("frobnicate")),
        other => panic!("unexpected error kind: {other}"),
    }
}

#[test]
fn usage_mentions_every_command() {
    for cmd in [
        "generate", "voxelize", "run", "stream", "bench", "tables", "dse", "help",
    ] {
        assert!(esca_cli::USAGE.contains(cmd), "usage text is missing {cmd}");
    }
    for flag in [
        "--trace-out",
        "--metrics-out",
        "--prom-out",
        "--reuse-matching",
        "--static-scene",
    ] {
        assert!(
            esca_cli::USAGE.contains(flag),
            "usage text is missing {flag}"
        );
    }
}

#[test]
fn chaos_out_needs_a_resilient_branch() {
    let path = std::env::temp_dir().join(format!("esca-cli-chaos-{}.json", std::process::id()));
    let err = dispatch(&parse(&[
        "stream",
        "--frames",
        "2",
        "--grid",
        "48",
        "--layers",
        "2",
        "--chaos-out",
        path.to_str().unwrap(),
    ]))
    .unwrap_err();
    match err {
        CliError::Command(m) => {
            for flag in ["--chaos-out", "--faults", "--tenants", "--queue-depth"] {
                assert!(m.contains(flag), "{m:?} does not name {flag}");
            }
        }
        other => panic!("unexpected error kind: {other}"),
    }
    assert!(!path.exists(), "a rejected run wrote {}", path.display());
}

#[test]
fn stream_small_grid_smoke() {
    // Small grid and frame count keep this fast in debug builds.
    dispatch(&parse(&[
        "stream",
        "--frames",
        "3",
        "--workers",
        "2",
        "--grid",
        "48",
        "--layers",
        "2",
        "--seed",
        "1",
    ]))
    .unwrap();
}

#[test]
fn stream_exports_trace_metrics_and_prometheus() {
    let dir = std::env::temp_dir().join(format!("esca-cli-export-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.json");
    let prom = dir.join("metrics.prom");
    dispatch(&parse(&[
        "stream",
        "--frames",
        "3",
        "--workers",
        "2",
        "--grid",
        "48",
        "--layers",
        "2",
        "--seed",
        "1",
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--prom-out",
        prom.to_str().unwrap(),
    ]))
    .unwrap();
    let trace_json = std::fs::read_to_string(&trace).unwrap();
    for key in [
        "traceEvents",
        "\"ph\"",
        "\"ts\"",
        "\"dur\"",
        "\"name\"",
        "\"pid\"",
        "\"tid\"",
    ] {
        assert!(trace_json.contains(key), "trace missing {key}");
    }
    let metrics_json = std::fs::read_to_string(&metrics).unwrap();
    assert!(metrics_json.contains("esca_frame_cycles"));
    assert!(metrics_json.contains("esca_frame_wall_micros"));
    let prom_text = std::fs::read_to_string(&prom).unwrap();
    assert!(prom_text.contains("# TYPE"));
    assert!(prom_text.contains("esca_cycles_total"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bench_writes_default_metrics_file() {
    let dir = std::env::temp_dir().join(format!("esca-cli-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // bench defaults to ./metrics.json; point it elsewhere to keep the
    // test hermetic.
    let metrics = dir.join("bench-metrics.json");
    dispatch(&parse(&[
        "bench",
        "--seed",
        "1",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]))
    .unwrap();
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("esca_cycles_total"));
    assert!(json.contains("esca_match_group_size"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stream_rejects_zero_frames() {
    let err = dispatch(&parse(&["stream", "--frames", "0"])).unwrap_err();
    assert!(err.to_string().contains("frames"));
}

#[test]
fn generate_with_bad_dataset_fails() {
    let err = dispatch(&parse(&["generate", "--dataset", "imagenet"])).unwrap_err();
    assert!(err.to_string().contains("imagenet"));
}

#[test]
fn voxelize_small_grid_smoke() {
    // Small grid keeps this fast in debug builds.
    dispatch(&parse(&[
        "voxelize",
        "--dataset",
        "shapenet",
        "--seed",
        "1",
        "--grid",
        "64",
    ]))
    .unwrap();
}
