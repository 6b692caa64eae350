//! The fast tier's bits across processes.
//!
//! The fast tier chooses each product's kernel by the strict tier's size
//! rule, so its bits depend on the CPU, the thread count and the SIMD
//! switch, never on which kernel a process happened to time fastest. This
//! binary runs itself twice: each child computes fast-tier products on
//! shapes whose kernel a timing once picked differently from process to
//! process, at 1 and 4 kernel threads, and prints an FNV-1a of the output
//! bits. The two prints must be equal.
//!
//! The fused tiles and the fused one-row rewrite all run one FMA chain per
//! output element in ascending depth, so a different pick among them moves
//! no bit by itself. Two picks do: the zero-skipping kernel against a tile,
//! and, at 4 threads, the tile's row count, which decides whether a 16-row
//! output splits its depth (8×32: 16 < 4 · 8) or its rows (4×16).

use std::process::Command;

use lightnas_tensor::kernels::matmul_into;
use lightnas_tensor::{set_kernel_mode, set_num_threads, KernelMode, Tensor};

/// The child test's name; the parent runs the binary filtered to it.
const CHILD: &str = "fast_tier_fingerprint";

/// Prefix of the child's one line of output.
const PRINT: &str = "fast-tier fnv1a ";

fn fnv1a(hash: u64, values: &[f32]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(hash, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// `m × k` random values kept on a one-hot pattern: one entry in each run
/// of 7, as in the predictor's encodings, the rest zero.
fn one_hot_pattern(m: usize, k: usize, seed: u64) -> Vec<f32> {
    let dense = Tensor::uniform(&[m, k], -2.0, 2.0, seed);
    (0..m * k)
        .map(|idx| {
            let (i, p) = (idx / k, idx % k);
            if p % 7 == (i + p / 7) % 7 {
                dense.as_slice()[idx]
            } else {
                0.0
            }
        })
        .collect()
}

/// Fast-tier products on six shapes whose timed pick changed between
/// processes, at 1 and 4 kernel threads, hashed in order.
fn fingerprint() -> u64 {
    let shapes = [
        (256, 154, 128, true),
        (64, 64, 1, false),
        (64, 128, 1, false),
        (25088, 144, 16, false),
        (256, 64, 1, false),
        (16, 4608, 48, false),
    ];
    set_kernel_mode(KernelMode::Fast);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for threads in [1, 4] {
        set_num_threads(threads);
        for (i, &(m, k, n, one_hot)) in shapes.iter().enumerate() {
            let seed = 1000 + i as u64;
            let a = if one_hot {
                one_hot_pattern(m, k, seed)
            } else {
                Tensor::uniform(&[m, k], -2.0, 2.0, seed)
                    .as_slice()
                    .to_vec()
            };
            let b = Tensor::uniform(&[k, n], -2.0, 2.0, seed + 500);
            let mut out = vec![0.0f32; m * n];
            matmul_into(&a, b.as_slice(), m, k, n, &mut out);
            hash = fnv1a(hash, &out);
        }
    }
    set_num_threads(1);
    set_kernel_mode(KernelMode::Strict);
    hash
}

/// The child: prints the fingerprint. In the suite it runs as a plain
/// test; this binary has no other test that reads the process-wide knobs
/// it sets.
#[test]
fn fast_tier_fingerprint() {
    println!("{PRINT}{:016x}", fingerprint());
}

fn child_print() -> String {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["--exact", CHILD, "--nocapture", "--test-threads", "1"])
        .output()
        .expect("spawn the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The harness may print the test's name on the same line.
    stdout
        .split(PRINT)
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no fingerprint in the child's output: {stdout}"))
        .to_owned()
}

#[test]
fn two_processes_store_the_same_fast_tier_bits() {
    let (first, second) = (child_print(), child_print());
    assert_eq!(first, second, "fast-tier bits differ between processes");
}
