//! Cross-process determinism regression: the full SS U-Net forward pass —
//! direct kernels, the flat rulebook engine, and the sharded accelerator
//! path — must produce **byte-identical** outputs in a fresh process with
//! a perturbed environment.
//!
//! In-process repetition cannot catch an entire class of nondeterminism:
//! hasher seeds (`RandomState` draws per *process*), allocator layout and
//! pointer-keyed ordering all stay fixed within one process and only vary
//! across runs. So this test re-spawns its own test binary (the standard
//! libtest self-exec trick) with `RUST_*` environment perturbations —
//! which also shift the initial stack/environ layout — and compares the
//! bit patterns of every output against the parent's.

use esca::{Esca, EscaConfig, LayerOpts};
use esca_sscn::engine::FlatEngine;
use esca_sscn::gemm::GemmBackendKind;
use esca_sscn::quant::{dequantize_tensor, quantize_tensor, QuantizedWeights};
use esca_sscn::unet::{SsUNet, UNetConfig};
use esca_tensor::{Coord3, Extent3, SparseTensor};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::process::Command;

const CHILD_ENV: &str = "ESCA_DETERMINISM_CHILD";
const BEGIN: &str = "DET_BEGIN\n";
const END: &str = "DET_END";

fn fixture_input() -> SparseTensor<f32> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xDE7E2);
    let mut t = SparseTensor::new(Extent3::cube(20), 1);
    for _ in 0..150 {
        let c = Coord3::new(
            rng.gen_range(0..20),
            rng.gen_range(0..20),
            rng.gen_range(0..20),
        );
        let _ = t.insert(c, &[rng.gen_range(-1.0..1.0)]);
    }
    t.canonicalize();
    t
}

fn net() -> SsUNet {
    SsUNet::new(UNetConfig {
        input_channels: 1,
        levels: 2,
        base_channels: 6,
        blocks_per_level: 1,
        classes: 4,
        kernel: 3,
        seed: 77,
    })
    .expect("invariant: fixture U-Net config is valid")
}

/// Hex dump of a tensor's exact bit content: geometry, storage order and
/// every feature's bit pattern.
fn encode(t: &SparseTensor<f32>) -> String {
    let mut s = String::new();
    for c in t.coords() {
        s.push_str(&format!("{:x},{:x},{:x};", c.x, c.y, c.z));
    }
    s.push('|');
    for f in t.features() {
        s.push_str(&format!("{:08x}", f.to_bits()));
    }
    s
}

/// Runs the three execution paths and fingerprints each one.
fn compute() -> String {
    let input = fixture_input();
    let network = net();

    let direct = network.forward(&input).expect("direct forward runs");
    let flat = network
        .forward_engine(
            &input,
            &mut FlatEngine::with_backend(GemmBackendKind::ScalarRef),
        )
        .expect("flat-engine forward runs");
    // Invariant 1 (bit-exactness): the scalar-ref flat engine replays the
    // direct kernels' accumulation order exactly.
    assert_eq!(
        encode(&direct),
        encode(&flat),
        "flat engine diverged from direct kernels"
    );

    // The blocked GEMM tier reassociates float adds, so it is only
    // epsilon-bounded against the direct path — but it must still be a
    // pure function of the input: its fingerprint joins the cross-process
    // comparison below and has to match byte-for-byte in every child.
    let blocked = network
        .forward_engine(
            &input,
            &mut FlatEngine::with_backend(GemmBackendKind::Blocked),
        )
        .expect("blocked flat-engine forward runs");

    // Sharded accelerator path, mirroring `esca::system::run_unet`'s
    // executor but splitting each layer across 3 workers.
    let esca = Esca::new(EscaConfig::default()).expect("invariant: default config is valid");
    let sharded_with = |workers: usize| {
        network
            .forward_with(&input, |_, _, w, x| {
                let qw = QuantizedWeights::auto(w, 8, 12).map_err(|e| {
                    esca_sscn::SscnError::InvalidConfig {
                        reason: format!("quantization failed: {e}"),
                    }
                })?;
                let qin = quantize_tensor(x, qw.quant().act);
                let opts = LayerOpts {
                    shards: workers,
                    ..LayerOpts::default()
                };
                let run = esca.run_layer_with(&qin, &qw, true, opts).map_err(|e| {
                    esca_sscn::SscnError::InvalidConfig {
                        reason: e.to_string(),
                    }
                })?;
                Ok(dequantize_tensor(&run.output, qw.quant().out))
            })
            .expect("sharded forward runs")
    };
    let sharded = sharded_with(3);
    // Invariant 3 (worker-invariance): shard count must not leak into
    // the numbers.
    assert_eq!(
        encode(&sharded),
        encode(&sharded_with(1)),
        "worker count changed the sharded output"
    );

    format!(
        "direct:{}\nflat:{}\nblocked:{}\nsharded:{}\n",
        encode(&direct),
        encode(&flat),
        encode(&blocked),
        encode(&sharded)
    )
}

/// Re-runs this very test in a child process with `extra_env` applied and
/// returns the fingerprint it prints.
fn spawn_child(extra_env: &[(&str, &str)]) -> String {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new(exe);
    cmd.args([
        "outputs_are_byte_identical_across_processes",
        "--exact",
        "--nocapture",
    ]);
    cmd.env(CHILD_ENV, "1");
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("child test process spawns");
    assert!(
        out.status.success(),
        "child run failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("child output is UTF-8");
    let begin = stdout.find(BEGIN).expect("child printed begin marker") + BEGIN.len();
    let end = stdout[begin..].find(END).expect("child printed end marker") + begin;
    stdout[begin..end].to_string()
}

#[test]
fn outputs_are_byte_identical_across_processes() {
    if std::env::var_os(CHILD_ENV).is_some() {
        // Child mode: fingerprint the three paths and hand the bytes to
        // the parent over stdout.
        println!("{BEGIN}{}{END}", compute());
        return;
    }

    let here = compute();
    // Two children with deliberately different environments: different
    // env-block sizes shift initial memory layout, and the RUST_* vars
    // are the ones ad-hoc tooling most commonly sets.
    let quiet = spawn_child(&[("RUST_BACKTRACE", "0")]);
    let noisy = spawn_child(&[
        ("RUST_BACKTRACE", "full"),
        ("RUST_LOG", "trace"),
        ("ESCA_DETERMINISM_PAD", "x".repeat(4096).as_str()),
    ]);

    assert_eq!(here, quiet, "child (quiet env) diverged from parent");
    assert_eq!(here, noisy, "child (noisy env) diverged from parent");
}
