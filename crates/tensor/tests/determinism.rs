//! Bit-level determinism locks for the compute kernels.
//!
//! Two layers of defence:
//!
//! 1. **Pre-change fingerprints** — FNV-1a 64 hashes of kernel outputs
//!    captured from the *original* naive loops before the blocked/parallel
//!    rewrite. The optimized kernels must reproduce them bit-for-bit,
//!    forever. A mismatch means the byte-identical checkpoint invariant is
//!    broken, not that the constants are stale.
//! 2. **Thread-count invariance** — the same operations at 1, 2 and 4
//!    threads must agree to the bit. Tests that set a process-wide kernel
//!    knob (threads, SIMD, mode) serialize through a mutex so they never
//!    observe each other's setting, and so do tests whose output bits those
//!    knobs would change: a fast-mode excursion in a parallel test would
//!    otherwise move their fingerprints.

use std::sync::{Mutex, OnceLock};

use lightnas_tensor::{
    conv2d_backward, conv2d_forward, dwconv2d_backward, dwconv2d_forward, kernels, Conv2dSpec,
    Tensor,
};

/// Serializes tests that set the global kernel knobs or depend on them.
fn knob_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn fnv(data: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn spec311() -> Conv2dSpec {
    Conv2dSpec {
        kernel: 3,
        stride: 1,
        padding: 1,
    }
}

fn conv_operands() -> (Tensor, Tensor) {
    (
        Tensor::uniform(&[2, 8, 14, 14], -1.0, 1.0, 105),
        Tensor::uniform(&[16, 8, 3, 3], -0.5, 0.5, 106),
    )
}

#[test]
fn matmul_reproduces_pre_rewrite_bits() {
    let _guard = knob_lock().lock().unwrap();
    let a = Tensor::uniform(&[37, 53], -1.0, 1.0, 101);
    let b = Tensor::uniform(&[53, 29], -1.0, 1.0, 102);
    assert_eq!(fnv(a.matmul(&b).as_slice()), 0xc0cf_2e2b_448b_1ec1);
    let big_a = Tensor::uniform(&[128, 300], -1.0, 1.0, 103);
    let big_b = Tensor::uniform(&[300, 96], -1.0, 1.0, 104);
    assert_eq!(fnv(big_a.matmul(&big_b).as_slice()), 0x53a3_ef67_a98e_84bf);
}

#[test]
fn conv_forward_reproduces_pre_rewrite_bits() {
    let _guard = knob_lock().lock().unwrap();
    let (x, w) = conv_operands();
    // The naive reference and the im2col path produced identical bits even
    // before the rewrite; both entry points must still land on them.
    assert_eq!(
        fnv(conv2d_forward(&x, &w, spec311()).as_slice()),
        0x21a2_36d8_09fb_1940
    );
    assert_eq!(
        fnv(lightnas_tensor::conv2d_forward_ref(&x, &w, spec311()).as_slice()),
        0x21a2_36d8_09fb_1940
    );
}

#[test]
fn dwconv_forward_reproduces_pre_rewrite_bits() {
    let _guard = knob_lock().lock().unwrap();
    let (x, _) = conv_operands();
    let dw = Tensor::uniform(&[8, 1, 3, 3], -0.5, 0.5, 107);
    assert_eq!(
        fnv(dwconv2d_forward(&x, &dw, spec311()).as_slice()),
        0x2d10_aa1b_a6db_d799
    );
}

#[test]
fn conv_backward_reproduces_pre_rewrite_bits() {
    let _guard = knob_lock().lock().unwrap();
    let (x, w) = conv_operands();
    let g = Tensor::uniform(&[2, 16, 14, 14], -1.0, 1.0, 108);
    let (gx, gw) = conv2d_backward(&x, &w, spec311(), &g);
    assert_eq!(fnv(gx.as_slice()), 0x7dca_411b_ae6b_79d9);
    assert_eq!(fnv(gw.as_slice()), 0xdca2_cfa1_8283_5af3);
}

/// Runs `f` at 1, 2 and 4 kernel threads and asserts all three outputs hash
/// identically; returns the hash.
fn hash_across_thread_counts(f: impl Fn() -> u64) -> u64 {
    let _guard = knob_lock().lock().unwrap();
    let before = kernels::num_threads();
    let mut hashes = Vec::new();
    for t in [1usize, 2, 4] {
        kernels::set_num_threads(t);
        hashes.push((t, f()));
    }
    kernels::set_num_threads(before);
    let serial = hashes[0].1;
    for (t, h) in &hashes {
        assert_eq!(
            *h, serial,
            "thread count {t} changed output bits ({h:016x} vs serial {serial:016x})"
        );
    }
    serial
}

#[test]
fn matmul_is_bit_identical_across_thread_counts() {
    // Big enough to clear the parallel threshold.
    let a = Tensor::uniform(&[256, 192], -1.0, 1.0, 201);
    let b = Tensor::uniform(&[192, 160], -1.0, 1.0, 202);
    hash_across_thread_counts(|| fnv(a.matmul(&b).as_slice()));
}

#[test]
fn sparse_matmul_is_bit_identical_across_thread_counts() {
    // One-hot rows (22 of 154 entries set) take the zero-skipping kernel in
    // `x·W` and, transposed, in `xᵀ·g`; 1024 rows carry enough nonzero
    // multiply-adds for the 2- and 4-thread runs to split rows.
    let (m, k, n) = (1024, 154, 128);
    let mut x = vec![0.0f32; m * k];
    for i in 0..m {
        for layer in 0..22 {
            x[i * k + layer * 7 + (i * 3 + layer) % 7] = 1.0;
        }
    }
    let w = Tensor::uniform(&[k, n], -1.0, 1.0, 212);
    let g = Tensor::uniform(&[m, n], -1.0, 1.0, 213);
    hash_across_thread_counts(|| {
        let mut fwd = vec![0.0f32; m * n];
        kernels::matmul_into(&x, w.as_slice(), m, k, n, &mut fwd);
        let mut tn = vec![0.0f32; k * n];
        kernels::matmul_tn_into(&x, g.as_slice(), m, k, n, &mut tn);
        fnv(&fwd) ^ fnv(&tn).rotate_left(1)
    });
}

#[test]
fn strict_products_store_reference_bits_at_every_thread_count() {
    // One tiling loop runs both tiers, and only a fused (fast-tier) tile may
    // split the reduction dimension. Every strict entry point must store the
    // reference's bits at 1, 2 and 4 threads with SIMD on and off: on the
    // fast tier's k-split shape (6 rows, depth 8192), on odd row counts whose
    // last row block is short (the 8×32 AVX-512 tile's where the CPU has
    // it), and on 1- and 15-column outputs above the parallel threshold.
    // Then every output narrower than one 16-wide panel, 1 to 15 columns at
    // 64 and 131 rows: one column takes the one-column path (`(bᵀ·aᵀ)ᵀ` on
    // the axpy loop), the others the tile with a padded panel.
    let _guard = knob_lock().lock().unwrap();
    let (threads_before, simd_before) = (kernels::num_threads(), lightnas_tensor::simd_enabled());
    let large = [
        (6, 8192, 48),
        (255, 300, 33),
        (4099, 512, 1),
        (301, 480, 15),
    ];
    for &(m, k, n) in &large {
        assert!(m * k * n >= kernels::PAR_MIN_FLOPS);
    }
    let narrow = (1..16).flat_map(|n| [(64, 300, n), (131, 97, n)]);
    for (m, k, n) in large.into_iter().chain(narrow) {
        let seed = (m * 31 + n) as u64;
        let a = Tensor::uniform(&[m, k], -1.0, 1.0, seed);
        let b = Tensor::uniform(&[k, n], -1.0, 1.0, seed + 1);
        let (a_t, b_t) = (a.transpose(), b.transpose());
        let want = fnv(kernels::matmul_ref(&a, &b).as_slice());
        for simd in [true, false] {
            lightnas_tensor::set_simd_enabled(simd);
            for threads in [1, 2, 4] {
                kernels::set_num_threads(threads);
                let what = format!("{m}x{k}x{n} simd={simd} threads={threads}");
                let mut out = vec![f32::NAN; m * n];
                kernels::matmul_into(a.as_slice(), b.as_slice(), m, k, n, &mut out);
                assert_eq!(fnv(&out), want, "a·b {what}");
                out.fill(f32::NAN);
                kernels::matmul_nt_into(a.as_slice(), b_t.as_slice(), m, k, n, &mut out);
                assert_eq!(fnv(&out), want, "a·bᵀ {what}");
                out.fill(f32::NAN);
                kernels::matmul_tn_into(a_t.as_slice(), b.as_slice(), k, m, n, &mut out);
                assert_eq!(fnv(&out), want, "aᵀ·b {what}");
            }
        }
    }
    // `aᵀ·b` reads `a` in place: one-hot 154-wide stored operands take the
    // zero-skipping kernel's scatter form from 32 output columns on (the
    // 1,024-row one splits it across the 2- and 4-thread runs), dense ones
    // of 37 and 131 columns the strided tile with a short last row block,
    // and 16-column outputs the tile whatever the density.
    let one_hot_rows = [8, 32, 255, 256, 512, 1024];
    let tn_cases = one_hot_rows
        .into_iter()
        .map(|d| (d, 154, true))
        .chain([(300, 37, false), (300, 131, false)]);
    for (d, m, one_hot) in tn_cases {
        let a = if one_hot {
            one_hot_rows_of(d)
        } else {
            Tensor::uniform(&[d, m], -1.0, 1.0, (d * 7 + m) as u64)
        };
        let a_t = a.transpose();
        for n in [16, 40, 64, 128, 130] {
            if d == 1024 && n != 128 {
                continue;
            }
            let b = Tensor::uniform(&[d, n], -1.0, 1.0, (d * 13 + n) as u64);
            let want = fnv(kernels::matmul_ref(&a_t, &b).as_slice());
            for simd in [true, false] {
                lightnas_tensor::set_simd_enabled(simd);
                for threads in [1, 2, 4] {
                    kernels::set_num_threads(threads);
                    let mut out = vec![f32::NAN; m * n];
                    kernels::matmul_tn_into(a.as_slice(), b.as_slice(), d, m, n, &mut out);
                    let what = format!("aᵀ·b {d}x{m}ᵀ·{n} simd={simd} threads={threads}");
                    assert_eq!(fnv(&out), want, "{what}");
                }
            }
        }
    }
    kernels::set_num_threads(threads_before);
    lightnas_tensor::set_simd_enabled(simd_before);
}

/// `rows` one-hot encodings of the search's width: 22 layers of 7 ops.
fn one_hot_rows_of(rows: usize) -> Tensor {
    let k = 22 * 7;
    let mut x = vec![0.0f32; rows * k];
    for i in 0..rows {
        for layer in 0..22 {
            x[i * k + layer * 7 + (i * 3 + layer) % 7] = 1.0;
        }
    }
    Tensor::from_vec(x, &[rows, k])
}

#[test]
fn one_column_products_skip_zero_entries_of_b() {
    // A one-column product of two rows or more runs as its one-row
    // transpose at every size, whose axpy loop skips the zero entries of
    // `b` where `matmul_ref` skips those of `a`. For finite operands both
    // leave out only `±0.0` terms. With `inf` in `a` against a zero in `b`
    // the reference's sum turns NaN, and every entry point leaves the term
    // out, as if `a`'s entry were 0, with SIMD on and off: this pins that
    // difference (`matmul_into`'s docs), past the tiny-product rule and
    // below it.
    let _guard = knob_lock().lock().unwrap();
    let simd_before = lightnas_tensor::simd_enabled();
    for (m, k) in [(64, 96), (3, 8)] {
        assert!(
            m < 4 || m * k >= 4096,
            "{m}x{k}: on one side of the tiny rule"
        );
        let mut a = Tensor::uniform(&[m, k], -1.0, 1.0, 41).as_slice().to_vec();
        let mut b = Tensor::uniform(&[k, 1], -1.0, 1.0, 42).as_slice().to_vec();
        b[5] = 0.0;
        let b = Tensor::from_vec(b, &[k, 1]);
        a[k + 5] = 0.0;
        let want = kernels::matmul_ref(&Tensor::from_vec(a.clone(), &[m, k]), &b);
        a[k + 5] = f32::INFINITY;
        let a = Tensor::from_vec(a, &[m, k]);
        assert!(
            kernels::matmul_ref(&a, &b).as_slice()[1].is_nan(),
            "the reference adds inf·0"
        );
        assert!(want.as_slice()[1].is_finite());
        let (a_t, b_t) = (a.transpose(), b.transpose());
        for simd in [true, false] {
            lightnas_tensor::set_simd_enabled(simd);
            let what = format!("{m}x{k}x1 simd={simd}");
            let mut out = vec![f32::NAN; m];
            kernels::matmul_into(a.as_slice(), b.as_slice(), m, k, 1, &mut out);
            assert_eq!(fnv(&out), fnv(want.as_slice()), "a·b {what}");
            out.fill(f32::NAN);
            kernels::matmul_nt_into(a.as_slice(), b_t.as_slice(), m, k, 1, &mut out);
            assert_eq!(fnv(&out), fnv(want.as_slice()), "a·bᵀ {what}");
            out.fill(f32::NAN);
            kernels::matmul_tn_into(a_t.as_slice(), b.as_slice(), k, m, 1, &mut out);
            assert_eq!(fnv(&out), fnv(want.as_slice()), "aᵀ·b {what}");
        }
    }
    lightnas_tensor::set_simd_enabled(simd_before);
}

#[test]
fn conv_forward_and_backward_are_bit_identical_across_thread_counts() {
    let spec = Conv2dSpec {
        kernel: 3,
        stride: 2,
        padding: 1,
    };
    let x = Tensor::uniform(&[4, 16, 28, 28], -1.0, 1.0, 203);
    let w = Tensor::uniform(&[32, 16, 3, 3], -0.5, 0.5, 204);
    let g = Tensor::uniform(&[4, 32, 14, 14], -1.0, 1.0, 205);
    hash_across_thread_counts(|| {
        let y = conv2d_forward(&x, &w, spec);
        let (gx, gw) = conv2d_backward(&x, &w, spec, &g);
        fnv(y.as_slice()) ^ fnv(gx.as_slice()).rotate_left(1) ^ fnv(gw.as_slice()).rotate_left(2)
    });
}

#[test]
fn dwconv_is_bit_identical_across_thread_counts() {
    let spec = spec311();
    let x = Tensor::uniform(&[4, 32, 28, 28], -1.0, 1.0, 206);
    let w = Tensor::uniform(&[32, 1, 3, 3], -0.5, 0.5, 207);
    let g = Tensor::uniform(&[4, 32, 28, 28], -1.0, 1.0, 208);
    hash_across_thread_counts(|| {
        let y = dwconv2d_forward(&x, &w, spec);
        let (gx, gw) = dwconv2d_backward(&x, &w, spec, &g);
        fnv(y.as_slice()) ^ fnv(gx.as_slice()).rotate_left(1) ^ fnv(gw.as_slice()).rotate_left(2)
    });
}

#[test]
fn training_step_is_bit_identical_across_thread_counts() {
    // A miniature conv→GEMM→loss→backward step, the composition the search
    // loop actually runs.
    use lightnas_tensor::Graph;
    let x = Tensor::uniform(&[8, 4, 12, 12], -1.0, 1.0, 209);
    let w = Tensor::uniform(&[6, 4, 3, 3], -0.5, 0.5, 210);
    let head = Tensor::uniform(&[6, 3], -0.5, 0.5, 211);
    hash_across_thread_counts(|| {
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let wv = g.parameter(w.clone());
        let hv = g.parameter(head.clone());
        let y = g.conv2d(xv, wv, spec311());
        let pooled = g.global_avg_pool(y);
        let logits = g.matmul(pooled, hv);
        let loss = g.softmax_cross_entropy(logits, &[0, 1, 2, 0, 1, 2, 0, 1]);
        g.backward(loss);
        fnv(g.value(loss).as_slice())
            ^ fnv(g.grad(wv).as_slice()).rotate_left(1)
            ^ fnv(g.grad(hv).as_slice()).rotate_left(2)
    });
}

#[test]
fn thread_knob_cycle_preserves_bits_through_pool_resizes() {
    // Resizing the persistent worker pool (4 → 1 → 4) tears workers down and
    // respawns them; every configuration must produce the same bytes, and
    // returning to a previous size must too (the pool holds no stale state).
    let _guard = knob_lock().lock().unwrap();
    let before = kernels::num_threads();
    let x = Tensor::uniform(&[4, 16, 28, 28], -1.0, 1.0, 301);
    let w = Tensor::uniform(&[32, 16, 3, 3], -0.5, 0.5, 302);
    let g = Tensor::uniform(&[4, 32, 28, 28], -1.0, 1.0, 303);
    let run = || {
        let y = conv2d_forward(&x, &w, spec311());
        let (gx, gw) = conv2d_backward(&x, &w, spec311(), &g);
        fnv(y.as_slice()) ^ fnv(gx.as_slice()).rotate_left(1) ^ fnv(gw.as_slice()).rotate_left(2)
    };
    let mut hashes = Vec::new();
    for t in [4usize, 1, 4, 2, 4] {
        kernels::set_num_threads(t);
        hashes.push((t, run()));
    }
    kernels::set_num_threads(before);
    for (t, h) in &hashes {
        assert_eq!(
            *h, hashes[0].1,
            "pool resize to {t} threads changed output bits"
        );
    }
}

#[test]
fn reused_graph_matches_fresh_graph_over_many_steps() {
    // 100 training steps on one reset-reused tape must produce exactly the
    // bytes of 100 steps on fresh tapes: pooled buffers carry no history.
    let _guard = knob_lock().lock().unwrap();
    use lightnas_tensor::Graph;
    let spec = spec311();
    let steps = 100;
    let step = |g: &mut Graph, seed: u64| {
        let x = Tensor::uniform(&[2, 3, 10, 10], -1.0, 1.0, seed);
        let w = Tensor::uniform(&[4, 3, 3, 3], -0.5, 0.5, seed + 1);
        let head = Tensor::uniform(&[4, 3], -0.5, 0.5, seed + 2);
        let xv = g.input(x);
        let wv = g.parameter(w);
        let hv = g.parameter(head);
        let y = g.conv2d(xv, wv, spec);
        let pooled = g.global_avg_pool(y);
        let logits = g.matmul(pooled, hv);
        let loss = g.softmax_cross_entropy(logits, &[0, 1]);
        g.backward(loss);
        fnv(g.value(loss).as_slice())
            ^ fnv(g.grad(wv).as_slice()).rotate_left(1)
            ^ fnv(g.grad(hv).as_slice()).rotate_left(2)
    };
    let mut reused = Graph::new();
    let reused_hashes: Vec<u64> = (0..steps)
        .map(|s| {
            reused.reset();
            step(&mut reused, 400 + s as u64)
        })
        .collect();
    let fresh_hashes: Vec<u64> = (0..steps)
        .map(|s| step(&mut Graph::new(), 400 + s as u64))
        .collect();
    assert_eq!(reused_hashes, fresh_hashes);
    // The reused tape actually recycles: far more pool hits than steps.
    let stats = reused.pool_stats();
    assert!(
        stats.hits > steps as u64,
        "expected heavy buffer reuse, got {} hits",
        stats.hits
    );
}

#[test]
fn simd_microkernel_matches_portable_path_bitwise() {
    // The AVX2 micro-tile keeps the scalar accumulation order, so forcing
    // the portable path must not change a single bit. On machines without
    // AVX2 both runs take the portable path and the test is vacuous.
    let _guard = knob_lock().lock().unwrap();
    let a = Tensor::uniform(&[96, 128], -1.0, 1.0, 501);
    let b = Tensor::uniform(&[128, 80], -1.0, 1.0, 502);
    let x = Tensor::uniform(&[2, 8, 14, 14], -1.0, 1.0, 503);
    let w = Tensor::uniform(&[16, 8, 3, 3], -0.5, 0.5, 504);
    let run = || {
        fnv(a.matmul(&b).as_slice())
            ^ fnv(conv2d_forward(&x, &w, spec311()).as_slice()).rotate_left(1)
    };
    let before = lightnas_tensor::simd_enabled();
    lightnas_tensor::set_simd_enabled(true);
    let with_simd = run();
    lightnas_tensor::set_simd_enabled(false);
    let portable = run();
    lightnas_tensor::set_simd_enabled(before);
    assert_eq!(
        with_simd, portable,
        "SIMD micro-kernel diverged from the portable path"
    );
}

#[test]
fn env_knob_parses_and_applies() {
    let _guard = knob_lock().lock().unwrap();
    let before = kernels::num_threads();
    std::env::set_var(kernels::THREADS_ENV, "3");
    assert_eq!(kernels::init_threads_from_env(), 3);
    assert_eq!(kernels::num_threads(), 3);
    std::env::set_var(kernels::THREADS_ENV, "not-a-number");
    assert_eq!(kernels::init_threads_from_env(), 3, "junk must be ignored");
    std::env::remove_var(kernels::THREADS_ENV);
    kernels::set_num_threads(before);
}

#[test]
fn default_kernel_mode_is_strict() {
    let _guard = knob_lock().lock().unwrap();
    // The two-tier contract: fast mode is *opt-in*. A process that never
    // touches the mode knob (this test binary doesn't) must run strict and
    // keep reproducing the pre-rewrite fingerprints above — that is the
    // "fast tier compiled in but disabled" regression guard.
    assert_eq!(
        lightnas_tensor::kernel_mode(),
        lightnas_tensor::KernelMode::Strict,
        "fast mode must never be the default"
    );
}

#[test]
fn mode_env_knob_parses_and_applies() {
    let _guard = knob_lock().lock().unwrap();
    use lightnas_tensor::{init_mode_from_env, kernel_mode, set_kernel_mode, KernelMode, MODE_ENV};
    let before = kernel_mode();
    std::env::set_var(MODE_ENV, "fast");
    assert_eq!(init_mode_from_env(), KernelMode::Fast);
    std::env::set_var(MODE_ENV, "strict");
    assert_eq!(init_mode_from_env(), KernelMode::Strict);
    std::env::set_var(MODE_ENV, "not-a-mode");
    assert_eq!(
        init_mode_from_env(),
        KernelMode::Strict,
        "junk must be ignored"
    );
    std::env::remove_var(MODE_ENV);
    set_kernel_mode(before);
}

#[test]
fn strict_bits_survive_a_fast_mode_excursion() {
    // Flipping to fast and back must leave no residue in the strict tier:
    // same fingerprint before, during-strict, and after.
    let _guard = knob_lock().lock().unwrap();
    use lightnas_tensor::{set_kernel_mode, KernelMode};
    let a = Tensor::uniform(&[37, 53], -1.0, 1.0, 101);
    let b = Tensor::uniform(&[53, 29], -1.0, 1.0, 102);
    let strict_before = fnv(a.matmul(&b).as_slice());
    assert_eq!(strict_before, 0xc0cf_2e2b_448b_1ec1);
    set_kernel_mode(KernelMode::Fast);
    let _ = a.matmul(&b);
    set_kernel_mode(KernelMode::Strict);
    assert_eq!(
        fnv(a.matmul(&b).as_slice()),
        strict_before,
        "a fast-mode excursion must not perturb strict bits"
    );
}

#[test]
fn matmul_empty_operands_are_well_formed() {
    // Regression: empty dimensions must produce well-formed empty / zero
    // tensors through the public API, not a panic deep in the kernel.
    let a = Tensor::zeros(&[0, 5]);
    let b = Tensor::zeros(&[5, 3]);
    let c = a.matmul(&b);
    assert_eq!(c.shape().dims(), &[0, 3]);
    assert!(c.is_empty());

    let a = Tensor::zeros(&[4, 0]);
    let b = Tensor::zeros(&[0, 3]);
    let c = a.matmul(&b);
    assert_eq!(c.shape().dims(), &[4, 3]);
    assert!(c.as_slice().iter().all(|v| v.to_bits() == 0));

    let a = Tensor::zeros(&[2, 5]);
    let b = Tensor::zeros(&[5, 0]);
    let c = a.matmul(&b);
    assert_eq!(c.shape().dims(), &[2, 0]);
    assert!(c.is_empty());
}
