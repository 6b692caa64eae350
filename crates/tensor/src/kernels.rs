//! Blocked, optionally multi-threaded compute kernels with a bit-exact
//! determinism contract.
//!
//! Everything in this module obeys one rule, the **deterministic-reduction
//! rule**: every output element is produced by a *single* `f32` accumulator
//! that consumes its terms in one fixed, ascending order of the reduction
//! index, and each element is written by exactly one thread. Loop *blocking*
//! (tiling over output rows/columns, packing the right-hand side), thread
//! *partitioning* (contiguous output chunks handed to the persistent worker
//! pool in [`crate::workers`]) and column-wise SIMD *widening* (the runtime-
//! dispatched AVX2 and AVX-512 micro-kernels in [`crate::simd`]) all leave
//! that per-element accumulation chain untouched, so the results are
//! byte-identical to the naive reference loops and independent of the thread
//! count and the instruction set. What is deliberately **not** done:
//! multi-accumulator unrolling of the reduction dimension, pairwise/tree
//! reductions, or FMA contraction — each of those changes rounding and would
//! break the repo-wide byte-identical checkpoint invariant.
//!
//! **One GEMM, one kernel choice.** Every product runs through one GEMM
//! and one kernel-choice list that serves both tiers: [`matmul_into`] on a
//! row-major left operand, [`matmul_tn_into`] on the transpose of a stored
//! one, and [`matmul_nt_into`], which transposes its right operand into a
//! pooled buffer (a pure permutation) and calls [`matmul_into`]. The list:
//! the one-row rewrite for a one-column output of two rows or more, the
//! axpy loop below 4 rows or 4,096 multiply-adds, the zero-skipping kernel
//! for a left operand at most a quarter nonzero, then the size rule's tile
//! — with SIMD on, 8×32 where the CPU has AVX-512F and the output holds one
//! whole 8×32 tile, else 4×16; portable 4×8 with SIMD off. The strict tier
//! runs the tile's multiply-then-add stamp, the fast tier its fused stamp,
//! so no choice depends on a timing and the fast tier's bits depend only on
//! the CPU, the thread count and the SIMD switch. One tiling loop runs
//! every tile of both tiers. That loop gathers a short row block into a
//! zero-padded strip and runs a narrow panel into a scratch tile, so a tile
//! never sees an edge and no padded row or column is stored.
//!
//! **Operand layouts.** Each kernel reads the left operand through two
//! strides, one between output rows and one between reduction steps: a
//! row-major `[m, k]` operand has them `k` and `1`, and the transpose of a
//! stored `[k, m]` matrix `1` and `m`. So [`matmul_tn_into`] makes no
//! transpose. Its tiles read `aᵀ` in place, each reduction step's entries
//! of a row block side by side; the short-row-block strip and the fast
//! tier's reduction split gather through the same strides; a tiny product
//! runs the axpy loop on them; and a sparse one runs the zero-skipping
//! kernel's scatter form (*Sparse dispatch*). Each kernel keeps its chains,
//! so the layout moves no bit.
//!
//! **One-column outputs.** A product with one output column would spend
//! all but one of a panel's columns on dead work, and on the axpy loop one
//! call per multiply-add, so from two rows on, at every size, it runs as
//! its transpose instead: `a·b = (bᵀ·aᵀ)ᵀ`, a product with one output row
//! `m` wide, on the axpy loop that serves every product of one row. For one
//! column `bᵀ` is `b` and the result's transpose is the result, so
//! [`matmul_into`] transposes only `a`, and [`matmul_tn_into`], whose
//! `aᵀ·b` is `(bᵀ·a)ᵀ`, transposes nothing. Each element still adds
//! `b[p]·a[i][p]` in ascending `p` from `+0.0`; IEEE multiplication
//! commutes, so on the strict tier every kept term has the reference's
//! bits. The loop skips the zero entries of `b` instead of `a`'s: for
//! finite operands a skipped term is `±0.0` either way (see *Sparse
//! dispatch*; [`matmul_into`] says what differs for non-finite ones). Wider
//! narrow outputs stay on the tile: the loop passes over its output once
//! per column, and from two columns on that lost to one padded panel
//! (DESIGN.md §8).
//!
//! **Sparse dispatch.** The kernel choice counts the left operand's nonzero
//! entries in one vectorized pass that stops as soon as the count passes a
//! quarter of them. When at most a quarter are nonzero and the output is at
//! least 32 columns wide, the product runs the zero-skipping kernel instead
//! of the packed tiles, on both tiers. With SIMD on that is the widest
//! stamp the CPU has, AVX-512F or AVX2, of the one body in the `simd`
//! module: its gather form on a row-major operand keeps each output row's
//! accumulators in registers, its scatter form on a transposed one keeps a
//! row of `b` in registers and adds it into the output rows that row's
//! nonzeros name. With SIMD off it is the axpy loop on the operand's
//! strides. Both limits are constants (DESIGN.md §8 has the measurements),
//! never knobs. Skipping a zero term moves no bit: every accumulator starts
//! at `+0.0`, and with a finite right operand the skipped term is `±0.0`,
//! which cannot change an accumulator that started at `+0.0` (it can never
//! have become `−0.0`) — the rule the skinny axpy path and the
//! [`matmul_ref`] oracle already rely on. The predictor fit's one-hot input
//! batch (22 of 154 entries nonzero) takes this path in `x·W1` (gather) and
//! `xᵀ·g` (scatter); its first hidden layer's ReLU output, more than half
//! nonzero, stays packed. The kernel never contracts, so on the fast tier
//! too these products store the strict bits.
//!
//! The thread count is a process-wide knob ([`set_num_threads`], default 1 =
//! serial). It is intentionally *not* part of
//! [`SearchConfig`](../../lightnas/struct.SearchConfig.html) or any
//! checkpoint format: like `DivergencePolicy`, it can never alter a result,
//! so it does not belong to a job's identity.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::simd::Tile;
use crate::Tensor;

pub use crate::simd::{set_simd_enabled, simd_enabled, SIMD_ENV};

/// Process-wide kernel thread count (1 = serial). Never affects results.
static KERNEL_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Environment variable read by [`init_threads_from_env`].
pub const THREADS_ENV: &str = "LIGHTNAS_KERNEL_THREADS";

/// Sets the number of threads the kernels may use (clamped to at least 1).
///
/// Output bits are identical for every thread count; the knob only trades
/// wall-clock for cores. Small operations stay serial regardless. The
/// predictor fit sizes its own split from `available_parallelism`,
/// separately from this knob, in the way a sweep's `SweepOptions::workers`
/// is separate from it.
pub fn set_num_threads(n: usize) {
    KERNEL_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The current kernel thread count.
pub fn num_threads() -> usize {
    KERNEL_THREADS.load(Ordering::Relaxed)
}

/// Applies `LIGHTNAS_KERNEL_THREADS` from the environment, if set and valid.
/// Returns the resulting thread count.
pub fn init_threads_from_env() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            set_num_threads(n);
        }
    }
    num_threads()
}

/// A free-list of `f32` scratch buffers with a retained-bytes cap.
///
/// The training loop calls the conv/GEMM kernels thousands of times with a
/// handful of distinct workspace sizes; recycling the backing allocations
/// removes that churn. Each kernel thread has one behind [`with_pool`], and
/// every [`crate::Graph`] owns one for its tape storage.
///
/// Retention is bounded in **bytes**, not buffer count: recycling past the
/// cap evicts the smallest buffers first (the cheapest to re-allocate),
/// and a single buffer larger than the cap is dropped outright. The cap
/// is 64 MiB unless set with [`TensorPool::with_cap`]; a balanced user
/// (every recycled buffer was taken from the same pool) never reaches it,
/// because its occupancy is bounded by one step's working set.
pub struct TensorPool {
    free: Vec<Vec<f32>>,
    cap_bytes: usize,
    retained_bytes: usize,
    hits: u64,
    misses: u64,
}

/// Default retained-bytes cap: 64 MiB, comfortably above the steady-state
/// footprint of a supernet training step, far below memory pressure.
const DEFAULT_POOL_CAP_BYTES: usize = 64 << 20;

/// Counters and occupancy of a [`TensorPool`] (see [`TensorPool::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// `take*` calls served by a buffer that already had enough capacity.
    pub hits: u64,
    /// `take*` calls that had to allocate or grow.
    pub misses: u64,
    /// Bytes currently retained across all free buffers.
    pub retained_bytes: usize,
    /// Number of free buffers currently retained.
    pub buffers: usize,
    /// The retained-bytes cap this pool enforces.
    pub cap_bytes: usize,
}

impl Default for TensorPool {
    fn default() -> Self {
        Self::new()
    }
}

impl TensorPool {
    /// An empty pool with the default 64 MiB cap.
    pub fn new() -> Self {
        Self::with_cap(DEFAULT_POOL_CAP_BYTES)
    }

    /// An empty pool with an explicit retained-bytes cap.
    pub fn with_cap(cap_bytes: usize) -> Self {
        Self {
            free: Vec::new(),
            cap_bytes,
            retained_bytes: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// An empty buffer with at least `capacity` spare room (contents are
    /// appended by the caller, e.g. a packing routine).
    pub fn take(&mut self, capacity: usize) -> Vec<f32> {
        let mut buf = self.take_best(capacity);
        buf.clear();
        buf.reserve(capacity);
        buf
    }

    /// A buffer of exactly `len` zeros.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_best(len);
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// A buffer of exactly `len` `f32`s with **unspecified** (but
    /// initialized) contents — for consumers that overwrite every element,
    /// such as transposes and the packed GEMM output. Skips the memset
    /// [`Self::take_zeroed`] pays: a recycled buffer is truncated or
    /// zero-extended to `len`, so in the steady state (same shapes every
    /// step) no element is written twice.
    pub fn take_filled(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_best(len);
        if buf.len() > len {
            buf.truncate(len);
        } else {
            buf.resize(len, 0.0);
        }
        buf
    }

    /// Returns a buffer to the pool for reuse, evicting the smallest
    /// buffers while the retained bytes exceed the cap.
    pub fn recycle(&mut self, buf: Vec<f32>) {
        let bytes = buf.capacity() * std::mem::size_of::<f32>();
        if bytes == 0 || bytes > self.cap_bytes {
            return;
        }
        self.retained_bytes += bytes;
        self.free.push(buf);
        while self.retained_bytes > self.cap_bytes {
            let smallest = self
                .free
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i)
                .expect("retained bytes > 0 implies a buffer");
            let evicted = self.free.swap_remove(smallest);
            self.retained_bytes -= evicted.capacity() * std::mem::size_of::<f32>();
        }
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// Hit/miss counters and current occupancy.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits,
            misses: self.misses,
            retained_bytes: self.retained_bytes,
            buffers: self.free.len(),
            cap_bytes: self.cap_bytes,
        }
    }

    fn take_best(&mut self, want: usize) -> Vec<f32> {
        // Prefer the smallest buffer that already fits to keep big buffers
        // available for big requests.
        let mut best: Option<(usize, usize)> = None;
        for (i, b) in self.free.iter().enumerate() {
            if b.capacity() >= want && best.is_none_or(|(_, c)| b.capacity() < c) {
                best = Some((i, b.capacity()));
            }
        }
        let taken = match best {
            Some((i, _)) => {
                self.hits += 1;
                self.free.swap_remove(i)
            }
            None => {
                self.misses += 1;
                // Growing an existing (too-small) buffer still saves a
                // fresh zero-page fault for part of the request.
                self.free.pop().unwrap_or_default()
            }
        };
        self.retained_bytes -= taken.capacity() * std::mem::size_of::<f32>();
        taken
    }
}

thread_local! {
    static POOL: RefCell<TensorPool> = RefCell::new(TensorPool::new());
}

/// Runs `f` with this thread's scratch-buffer pool.
pub fn with_pool<R>(f: impl FnOnce(&mut TensorPool) -> R) -> R {
    POOL.with(|p| f(&mut p.borrow_mut()))
}

/// Runs `f(chunk_index, chunk)` over disjoint contiguous `chunk_len`-element
/// chunks of `out` (the last chunk may be shorter), using up to `threads`
/// participants from the persistent worker pool ([`crate::workers`]).
///
/// Each chunk's contents must be a function of its index alone; the helper
/// only decides *which thread* computes a chunk, never *how*, so the output
/// is byte-identical for every thread count. The chunk→thread mapping is the
/// same static partition the scoped-thread implementation used (contiguous
/// groups of `ceil(n_chunks / t)` chunks), but the threads are parked
/// between calls instead of being spawned per call.
pub fn par_chunks(
    out: &mut [f32],
    chunk_len: usize,
    threads: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    let chunk_len = chunk_len.max(1);
    let n_chunks = out.len().div_ceil(chunk_len);
    let t = threads.clamp(1, n_chunks.max(1));
    let per_group = n_chunks.div_ceil(t.max(1));
    let groups = if per_group == 0 {
        1
    } else {
        n_chunks.div_ceil(per_group)
    };
    if t <= 1 || groups <= 1 {
        for (i, chunk) in out.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    crate::workers::run_chunked(out, chunk_len, per_group, groups, &f);
}

/// Output rows of the smallest tile: a product with fewer rows takes the
/// axpy loop.
const MR: usize = 4;
/// Columns per packed B panel (one vector register of `f32`s) of the
/// portable 4×8 tile.
const JR: usize = 8;
/// Below this many multiply-adds the packed path loses to the axpy loop.
const PACK_MIN_FLOPS: usize = 1 << 12;
/// Below this many multiply-adds threading costs more than it saves. The
/// predictor fit gates its own two-phase split on a step's multiply-adds
/// against the same figure.
pub const PAR_MIN_FLOPS: usize = 1 << 21;
/// A strict product whose left operand has at most one nonzero entry in
/// this many takes the zero-skipping kernel instead of the packed one.
/// A quarter sits below the AVX2 body's measured crossover (DESIGN.md §8).
const SPARSE_DIVISOR: usize = 4;
/// Narrower outputs stay packed whatever the density: the zero-skipping
/// kernel pays a per-row cost to find a row's nonzeros, which 16- and
/// 24-column outputs did not earn back (DESIGN.md §8).
const SPARSE_MIN_COLS: usize = 32;
/// Entries counted between early-exit checks of [`sparse_nonzeros`].
const COUNT_CHUNK: usize = 1024;
/// Scratch tile large enough for every tile (8 rows × 32 columns).
const SCRATCH_LEN: usize = 8 * 32;

/// `out = a · b` for row-major `a` (`[m, k]`) and `b` (`[k, n]`) — the one
/// GEMM behind every product in the crate, and with [`matmul_tn_into`] the
/// entry to the one place that chooses which kernel a product runs.
///
/// Byte-identical to the naive triple loop for finite inputs — each output
/// element accumulates `a[i][p] * b[p][j]` in ascending `p` with a single
/// `f32` accumulator — and byte-identical across thread counts. Empty
/// operands (`m`, `k` or `n` of 0) produce a well-formed all-zero / empty
/// result instead of panicking.
///
/// Non-finite operands can give other results than the triple loop's,
/// because the kernels leave out different `±0.0` terms: the loop and the
/// axpy and zero-skipping kernels skip zero entries of `a`, the packed
/// tiles skip nothing, and a one-column product of two rows or more, at
/// every size, skips zero entries of `b`. So `inf · 0` is NaN on a tile,
/// and on such a one-column product with the zero in `b` it adds nothing
/// where the loop's sum turns NaN.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `m`, `k`, `n`.
pub fn matmul_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul lhs length mismatch");
    assert_eq!(b.len(), k * n, "matmul rhs length mismatch");
    assert_eq!(out.len(), m * n, "matmul output length mismatch");
    gemm(Lhs::rows(a, k), b, m, k, n, out);
}

/// How a product's left operand lies in memory: entry `(i, p)` of the
/// `m × k` operand is `a[i·row + p·depth]`.
#[derive(Debug, Clone, Copy)]
struct Lhs<'a> {
    a: &'a [f32],
    /// Distance between consecutive output rows' entries.
    row: usize,
    /// Distance between consecutive reduction steps' entries.
    depth: usize,
}

impl<'a> Lhs<'a> {
    /// A row-major `[m, k]` operand, as [`matmul_into`] takes it.
    fn rows(a: &'a [f32], k: usize) -> Self {
        Self {
            a,
            row: k,
            depth: 1,
        }
    }

    /// The transpose of a row-major `[k, m]` matrix, as [`matmul_tn_into`]
    /// takes it: its rows are the operand's columns.
    fn columns(a: &'a [f32], m: usize) -> Self {
        Self {
            a,
            row: 1,
            depth: m,
        }
    }

    /// Whether each output row's entries are contiguous, as in
    /// [`Self::rows`]. For one output row both layouts are.
    fn row_major(self) -> bool {
        self.depth == 1
    }
}

/// `out = a · b` for the `m × k` left operand `lhs` and row-major `b`
/// (`[k, n]`): runs the kernel [`kernel_for`] chooses.
fn gemm(lhs: Lhs, b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let use_simd = crate::simd::simd_enabled();
    match kernel_for(lhs, m, k, n, use_simd, crate::mode::fast_active()) {
        Kernel::Axpy => gemm_axpy(lhs, b, k, n, 0, use_simd, out),
        Kernel::OneRow if lhs.row_major() => {
            with_transposed(lhs.a, m, k, |at| {
                gemm_axpy(Lhs::rows(b, k), at, k, m, 0, use_simd, out);
            });
        }
        Kernel::OneRow => gemm_axpy(Lhs::rows(b, k), lhs.a, k, m, 0, use_simd, out),
        Kernel::Sparse(nonzeros) => gemm_sparse(lhs, b, k, n, nonzeros, use_simd, out),
        Kernel::Tiled(tile) => gemm_tiled(lhs, b, m, k, n, tile, out),
    }
}

/// A kernel [`gemm`] can run a product on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// The axpy loop, for products too small to pack.
    Axpy,
    /// The one-row rewrite of a one-column product (module docs).
    OneRow,
    /// The zero-skipping kernel, with the left operand's nonzero count.
    Sparse(usize),
    /// The shared tiling loop on this tile.
    Tiled(Tile),
}

/// The one kernel-choice list, for both tiers and both operand layouts
/// (module docs): the one-row rewrite for one output column and at least
/// two rows, the axpy loop for a tiny product, the zero-skipping kernel for
/// a sparse left operand, else the tile for the output's size. `fast` is
/// whether the fast tier is active, which implies `use_simd`. Each kernel
/// reads `lhs` in its own layout, so the choice is the same for both.
fn kernel_for(lhs: Lhs, m: usize, k: usize, n: usize, use_simd: bool, fast: bool) -> Kernel {
    if n == 1 && m >= 2 {
        Kernel::OneRow
    } else if m < MR || m * k * n < PACK_MIN_FLOPS {
        Kernel::Axpy
    } else if let Some(nonzeros) = sparse_nonzeros(lhs.a, n) {
        Kernel::Sparse(nonzeros)
    } else {
        Kernel::Tiled(tile_for(use_simd, fast, m, n))
    }
}

/// `out = a · bᵀ` for row-major `a` (`[m, d]`) and `b` (`[n, d]`): `b` is
/// transposed into a pooled buffer and the product runs through
/// [`matmul_into`]. A transpose is a pure permutation, so the bits are
/// exactly `matmul_into(a, bᵀ)`'s.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `m`, `d`, `n`.
pub fn matmul_nt_into(a: &[f32], b: &[f32], m: usize, d: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * d, "matmul_nt lhs length mismatch");
    assert_eq!(b.len(), n * d, "matmul_nt rhs length mismatch");
    assert_eq!(out.len(), m * n, "matmul_nt output length mismatch");
    with_transposed(b, n, d, |bt| matmul_into(a, bt, m, d, n, out));
}

/// `out = aᵀ · b` for `a` stored row-major `[d, m]` and `b` (`[d, n]`),
/// with no transpose made: every kernel reads `aᵀ` in place, through the
/// strides of [`Lhs::columns`] (module docs, *Operand layouts*). Its
/// chains, and so its bits, are `matmul_into(aᵀ, b)`'s.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `d`, `m`, `n`.
pub fn matmul_tn_into(a: &[f32], b: &[f32], d: usize, m: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), d * m, "matmul_tn lhs length mismatch");
    assert_eq!(b.len(), d * n, "matmul_tn rhs length mismatch");
    assert_eq!(out.len(), m * n, "matmul_tn output length mismatch");
    gemm(Lhs::columns(a, m), b, m, d, n, out);
}

/// Runs `f` on row-major `src` (`[rows, cols]`) transposed into a pooled
/// buffer.
fn with_transposed(src: &[f32], rows: usize, cols: usize, f: impl FnOnce(&[f32])) {
    let mut t = with_pool(|pool| pool.take_filled(rows * cols));
    transpose_into(src, rows, cols, &mut t);
    f(&t);
    with_pool(|pool| pool.recycle(t));
}

/// The tile for an `m × n` output. With SIMD on: 8×32 when the CPU has
/// AVX-512F and the output holds one whole 8×32 tile, else 4×16 — the
/// multiply-then-add stamp on the strict tier, the fused stamp on the fast
/// one. With SIMD off: the portable 4×8. The strict tiles keep one
/// accumulator per output element fed multiply-then-add in ascending `p`,
/// so they store identical bits.
fn tile_for(use_simd: bool, fast: bool, m: usize, n: usize) -> Tile {
    let wide = m >= Tile::Avx512.mr() && n >= Tile::Avx512.width() && Tile::Avx512.available();
    match (use_simd, wide, fast) {
        (false, _, _) => Tile::Portable,
        (true, true, false) => Tile::Avx512Strict,
        (true, true, true) => Tile::Avx512,
        (true, false, false) => Tile::Avx2,
        (true, false, true) => Tile::Fma,
    }
}

/// Packs `b` (`[k, n]`) into column panels of `width`, each row-major
/// `[k, width]`, so a tile reads one contiguous run of B per reduction
/// step. A trailing narrow panel is zero-padded to the full width: its
/// padded lanes multiply zeros into a scratch tile and are never stored,
/// leaving the live lanes' accumulation chains untouched.
fn pack_panels(b: &[f32], k: usize, n: usize, width: usize, packed: &mut Vec<f32>) {
    for j0 in (0..n).step_by(width) {
        let w = width.min(n - j0);
        for p in 0..k {
            packed.extend_from_slice(&b[p * n + j0..p * n + j0 + w]);
            packed.resize(packed.len() + (width - w), 0.0);
        }
    }
}

/// The packed GEMM `out = a · b` on `tile`, for both tiers and both
/// layouts of `a`: packs `b` at the tile's width, then splits the output
/// rows over the kernel threads (serial below [`PAR_MIN_FLOPS`]). When the
/// output is too short to give every thread a full row block, a fused tile
/// splits the reduction dimension instead: each participant computes a
/// private `m×n` partial product over its `k`-range and the partials are
/// summed in ascending range order. That is the one place an output
/// element is touched by more than one accumulator, so no strict tile ever
/// reaches it.
fn gemm_tiled(lhs: Lhs, b: &[f32], m: usize, k: usize, n: usize, tile: Tile, out: &mut [f32]) {
    let width = tile.width();
    // Short-lived pool borrows: the pool must never stay borrowed across a
    // kernel call, which may itself take scratch buffers.
    let mut packed = with_pool(|pool| pool.take(k * n.next_multiple_of(width)));
    pack_panels(b, k, n, width, &mut packed);
    let threads = if m * k * n < PAR_MIN_FLOPS {
        1
    } else {
        num_threads()
    };
    if threads > 1 && m < threads * tile.mr() && tile.fused() {
        let k_per = k.div_ceil(threads.min(k));
        let splits = k.div_ceil(k_per);
        let mut partials = with_pool(|pool| pool.take_filled(splits * m * n));
        par_chunks(&mut partials, m * n, splits, |gi, chunk| {
            let k0 = gi * k_per;
            gemm_rows(lhs, k, 0, k0..k.min(k0 + k_per), &packed, n, tile, chunk);
        });
        let (first, rest) = partials.split_at(m * n);
        out.copy_from_slice(first);
        for part in rest.chunks_exact(m * n) {
            if !crate::simd::axpy_row(true, true, out, part, 1.0) {
                for (o, &p) in out.iter_mut().zip(part) {
                    *o += p;
                }
            }
        }
        with_pool(|pool| pool.recycle(partials));
    } else {
        let rows_per = m.div_ceil(threads.clamp(1, m));
        par_chunks(out, rows_per * n, threads, |gi, chunk| {
            gemm_rows(lhs, k, gi * rows_per, 0..k, &packed, n, tile, chunk);
        });
    }
    with_pool(|pool| pool.recycle(packed));
}

/// The one tiling loop: runs `tile` over the output rows `out` covers (row
/// `first_row` onward of the left operand `lhs`), over the reduction range
/// `ks` of panels packed for the full depth `k`.
///
/// Full row blocks and full-width panels run the tile straight into `out`,
/// reading `lhs` in place through its strides. A short row block (only the
/// last one can be) gathers through the same strides into a zero-padded
/// row-major strip, and a narrow trailing panel lands in a scratch tile
/// first; only live rows and columns are stored, so no tile ever sees an
/// edge and every stored element keeps the full tile's accumulation chain.
#[allow(clippy::too_many_arguments)]
fn gemm_rows(
    lhs: Lhs,
    k: usize,
    first_row: usize,
    ks: Range<usize>,
    packed: &[f32],
    n: usize,
    tile: Tile,
    out: &mut [f32],
) {
    let (mr, width) = (tile.mr(), tile.width());
    let k_len = ks.len();
    let rows = out.len() / n;
    let mut scratch = [0.0f32; SCRATCH_LEN];
    let mut strip = Vec::new();
    let mut r = 0;
    while r < rows {
        let h = mr.min(rows - r);
        let start = (first_row + r) * lhs.row + ks.start * lhs.depth;
        let src = if h == mr {
            (lhs.a, start, lhs.row, lhs.depth)
        } else {
            strip = with_pool(|pool| pool.take_zeroed(mr * k_len));
            for (ir, row) in strip.chunks_exact_mut(k_len).take(h).enumerate() {
                let entries = lhs.a[start + ir * lhs.row..].iter().step_by(lhs.depth);
                for (dst, &v) in row.iter_mut().zip(entries) {
                    *dst = v;
                }
            }
            (strip.as_slice(), 0, k_len, 1)
        };
        let mut panel_off = ks.start * width;
        for j0 in (0..n).step_by(width) {
            let w = width.min(n - j0);
            let panel = &packed[panel_off..panel_off + k_len * width];
            if h == mr && w == width {
                run_tile(tile, src, k_len, panel, out, r, n, j0);
            } else {
                let scratch = &mut scratch[..mr * width];
                run_tile(tile, src, k_len, panel, scratch, 0, width, 0);
                for ir in 0..h {
                    out[(r + ir) * n + j0..(r + ir) * n + j0 + w]
                        .copy_from_slice(&scratch[ir * width..ir * width + w]);
                }
            }
            panel_off += k * width;
        }
        r += h;
    }
    if !strip.is_empty() {
        with_pool(|pool| pool.recycle(strip));
    }
}

/// Runs one tile of [`gemm_rows`] on the LHS `(a, base, stride, depth)`,
/// whose entry for tile row `i` and step `p` is `a[base + i·stride +
/// p·depth]`: a SIMD stamp through [`crate::simd::tile`], or the portable
/// 4×8 tile.
#[allow(clippy::too_many_arguments)]
#[inline]
fn run_tile(
    tile: Tile,
    (a, base, stride, depth): (&[f32], usize, usize, usize),
    k_len: usize,
    panel: &[f32],
    out: &mut [f32],
    r: usize,
    n: usize,
    j0: usize,
) {
    if !crate::simd::tile(tile, a, base, stride, depth, k_len, panel, out, r, n, j0) {
        micro_tile_4x8(a, base, stride, depth, panel, out, r, n, j0);
    }
}

/// The portable 4×8 micro-tile ([`Tile::Portable`]) on the LHS entries
/// `a[a_base + i·a_stride + p·a_depth]`. Fixed-size arrays keep the 32
/// accumulators in vector registers; each output element has one
/// accumulator fed `acc + a·b` in ascending `p`, the reference's chain.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn micro_tile_4x8(
    a: &[f32],
    a_base: usize,
    a_stride: usize,
    a_depth: usize,
    panel: &[f32],
    out: &mut [f32],
    r: usize,
    n: usize,
    j0: usize,
) {
    let mut acc = [[0.0f32; JR]; MR];
    for (p, brow) in panel.chunks_exact(JR).enumerate() {
        let brow: &[f32; JR] = brow.try_into().expect("panel row width");
        for (ir, accr) in acc.iter_mut().enumerate() {
            let av = a[a_base + ir * a_stride + p * a_depth];
            for (slot, &bv) in accr.iter_mut().zip(brow) {
                *slot += av * bv;
            }
        }
    }
    for (ir, accr) in acc.iter().enumerate() {
        out[(r + ir) * n + j0..(r + ir) * n + j0 + JR].copy_from_slice(accr);
    }
}

/// The unpacked row-streaming (axpy) GEMM used for skinny / tiny products,
/// e.g. the `[1, 154]` predictor queries, and as the portable body of the
/// sparse dispatch ([`gemm_sparse`]), for either layout of the left
/// operand. Same accumulation order as the packed kernel: ascending `p`
/// per output element. The row update vectorizes across columns when
/// `use_simd` is set — identical bits, see [`crate::simd`].
fn gemm_axpy(
    lhs: Lhs,
    b: &[f32],
    k: usize,
    n: usize,
    first_row: usize,
    use_simd: bool,
    out: &mut [f32],
) {
    let fast = crate::mode::fast_active();
    for (r, orow) in out.chunks_exact_mut(n).enumerate() {
        let row = &lhs.a[(first_row + r) * lhs.row..];
        orow.fill(0.0);
        if lhs.row_major() {
            axpy_terms(&row[..k], b, n, use_simd, fast, orow);
        } else {
            axpy_terms(
                row.iter().step_by(lhs.depth).take(k),
                b,
                n,
                use_simd,
                fast,
                orow,
            );
        }
    }
}

/// Adds `av·b[p]` into the output row `orow` for each nonzero `av` of
/// `entries`, the output row's terms in ascending `p`: the body of
/// [`gemm_axpy`], kept generic so a contiguous row iterates as a slice.
fn axpy_terms<'a>(
    entries: impl IntoIterator<Item = &'a f32>,
    b: &[f32],
    n: usize,
    use_simd: bool,
    fast: bool,
    orow: &mut [f32],
) {
    for (p, &av) in entries.into_iter().enumerate() {
        if av == 0.0 {
            // Adding `±0.0 * b` never changes an accumulator that started
            // at +0.0 (it can never have become -0.0), so the skip is a
            // pure speedup for the sparse one-hot rows the search emits.
            continue;
        }
        let brow = &b[p * n..(p + 1) * n];
        if !crate::simd::axpy_row(use_simd, fast, orow, brow, av) {
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// The number of nonzero entries of the left operand `a` when its product
/// takes the zero-skipping kernel — an output at least [`SPARSE_MIN_COLS`]
/// wide and at most one nonzero entry of `a` in [`SPARSE_DIVISOR`] — and
/// `None` otherwise. The count stops as soon as it passes that cutoff, so a
/// dense operand costs a fraction of one pass. The per-chunk count is a
/// branch-free compare-and-add the compiler vectorizes. `NaN != 0.0`, so
/// NaNs count as nonzero.
fn sparse_nonzeros(a: &[f32], n: usize) -> Option<usize> {
    if n < SPARSE_MIN_COLS {
        return None;
    }
    let cutoff = a.len() / SPARSE_DIVISOR;
    let mut nonzeros = 0;
    for chunk in a.chunks(COUNT_CHUNK) {
        nonzeros += chunk.iter().map(|&v| u32::from(v != 0.0)).sum::<u32>() as usize;
        if nonzeros > cutoff {
            return None;
        }
    }
    Some(nonzeros)
}

/// The strict zero-skipping GEMM `out = a · b` for a sparse left operand
/// (`nonzeros` of its entries nonzero), split by output rows like the
/// packed path. With SIMD on, each chunk of rows runs the widest stamp
/// this CPU has of the zero-skipping body: its gather form on a row-major
/// operand, its scatter form on the transpose of a stored one. With SIMD
/// off it runs [`gemm_axpy`] on the operand's strides. Each adds
/// `a[i][p]·b[p][j]` only for nonzero `a[i][p]`, in ascending `p`, from
/// `+0.0` — the packed kernel's chain without its `±0.0` terms, so the
/// bits match it.
fn gemm_sparse(
    lhs: Lhs,
    b: &[f32],
    k: usize,
    n: usize,
    nonzeros: usize,
    use_simd: bool,
    out: &mut [f32],
) {
    let m = out.len() / n;
    let threads = if nonzeros * n < PAR_MIN_FLOPS {
        1
    } else {
        num_threads()
    };
    let stamp = crate::simd::SparseStamp::widest(use_simd);
    let rows_per = m.div_ceil(threads.clamp(1, m));
    par_chunks(out, rows_per * n, threads, |gi, chunk| {
        let rows = gi * rows_per..gi * rows_per + chunk.len() / n;
        match stamp {
            Some(stamp) if lhs.row_major() => {
                let a = &lhs.a[rows.start * k..rows.end * k];
                crate::simd::sparse_gather(stamp, a, k, b, n, chunk);
            }
            Some(stamp) => crate::simd::sparse_scatter(stamp, lhs.a, m, rows, b, n, chunk),
            None => gemm_axpy(lhs, b, k, n, rows.start, false, chunk),
        }
    });
}

/// Hyper-parameters for one [`adam_update`] call. `s1`/`s2` are the
/// reciprocal bias corrections `1 / (1 − βᵢᵗ)` for the current step.
#[derive(Debug, Clone, Copy)]
pub struct AdamUpdate {
    /// Weight decay (L2 added to the raw gradient).
    pub weight_decay: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Denominator stabilizer ε.
    pub eps: f32,
    /// Learning rate.
    pub lr: f32,
    /// `1 / (1 − β₁ᵗ)`.
    pub s1: f32,
    /// `1 / (1 − β₂ᵗ)`.
    pub s2: f32,
}

/// In-place Adam update over parameter/gradient/moment slices.
///
/// Every element runs the exact rounding sequence of the scalar loop —
/// `gd = g + w·wd`, `m = m·β₁ + gd·(1−β₁)`, `v = v·β₂ + gd²·(1−β₂)`,
/// `w += (m·s1) / (√(v·s2) + ε) · (−lr)` — and every operation in the AVX2
/// path (`mul`, `add`, `sqrt`, `div`) is IEEE-754 correctly rounded per
/// lane, so the vector and scalar paths produce identical bits. The
/// optimizer is pure elementwise traffic; on wide layers the memory-bound
/// scalar loop is worth vectorizing anyway because of the serial `sqrt` and
/// `div` in every iteration.
///
/// # Panics
///
/// Panics if the four slices differ in length.
pub fn adam_update(w: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], h: &AdamUpdate) {
    assert_eq!(w.len(), g.len(), "adam slices must match");
    assert_eq!(w.len(), m.len(), "adam slices must match");
    assert_eq!(w.len(), v.len(), "adam slices must match");
    let fast = crate::mode::fast_active();
    let done = crate::simd::adam_rows(crate::simd::simd_enabled(), fast, w, g, m, v, h);
    let start = if done { w.len() - w.len() % 8 } else { 0 };
    let (c1, c2) = (1.0 - h.beta1, 1.0 - h.beta2);
    for i in start..w.len() {
        let gd = if h.weight_decay != 0.0 {
            g[i] + w[i] * h.weight_decay
        } else {
            g[i]
        };
        m[i] = m[i] * h.beta1 + gd * c1;
        v[i] = v[i] * h.beta2 + (gd * gd) * c2;
        let m_hat = m[i] * h.s1;
        let v_hat = v[i] * h.s2;
        let denom = v_hat.sqrt() + h.eps;
        w[i] += m_hat / denom * -h.lr;
    }
}

/// Reference matmul: the pre-optimization naive triple loop, kept verbatim
/// as the oracle for the differential property tests.
pub fn matmul_ref(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul_ref lhs must be rank-2");
    assert_eq!(b.shape().rank(), 2, "matmul_ref rhs must be rank-2");
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    assert_eq!(k, k2, "matmul_ref inner dimension mismatch");
    let (ad, bd) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &bd[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Transposes row-major `src` (`[m, n]`) into `dst` (`[n, m]`).
///
/// With SIMD on, 8×8 in-register micro-transposes (~5× over the blocked
/// scalar loop on the backward-pass shapes); otherwise blocked over 32×32
/// tiles with the *writes* contiguous — the strided side must be the reads,
/// because a power-of-two write stride (e.g. `m = 512`, 2 KiB apart)
/// aliases a handful of L1 sets and thrashes. A pure permutation either
/// way: no arithmetic, so neither layout nor vectorization can change bits.
pub(crate) fn transpose_into(src: &[f32], m: usize, n: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), m * n);
    assert_eq!(dst.len(), m * n);
    if crate::simd::transpose(crate::simd::simd_enabled(), src, m, n, dst) {
        return;
    }
    const TB: usize = 32;
    for i0 in (0..m).step_by(TB) {
        let i1 = (i0 + TB).min(m);
        for j0 in (0..n).step_by(TB) {
            let j1 = (j0 + TB).min(n);
            for j in j0..j1 {
                for i in i0..i1 {
                    dst[j * m + i] = src[i * n + j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: bit mismatch at {i}");
        }
    }

    #[test]
    fn packed_gemm_matches_reference_bits() {
        for (m, k, n, seed) in [
            (4, 7, 9, 1u64),
            (8, 16, 8, 2),
            (13, 31, 17, 3),
            (64, 40, 24, 4),
        ] {
            let a = Tensor::uniform(&[m, k], -1.0, 1.0, seed);
            let b = Tensor::uniform(&[k, n], -1.0, 1.0, seed + 50);
            let mut out = vec![0.0f32; m * n];
            matmul_into(a.as_slice(), b.as_slice(), m, k, n, &mut out);
            let reference = matmul_ref(&a, &b);
            assert_bits_eq(&out, reference.as_slice(), &format!("{m}x{k}x{n}"));
        }
    }

    #[test]
    fn axpy_path_matches_reference_bits() {
        let a = Tensor::uniform(&[1, 154], -1.0, 1.0, 9);
        let b = Tensor::uniform(&[154, 128], -1.0, 1.0, 10);
        let mut out = vec![0.0f32; 128];
        matmul_into(a.as_slice(), b.as_slice(), 1, 154, 128, &mut out);
        assert_bits_eq(&out, matmul_ref(&a, &b).as_slice(), "axpy 1x154x128");
    }

    #[test]
    fn empty_operands_are_well_formed() {
        matmul_into(&[], &[0.0; 15], 0, 5, 3, &mut []);
        matmul_into(&[0.0; 20], &[], 4, 5, 0, &mut []);
        let mut out = vec![1.0f32; 6];
        matmul_into(&[], &[], 2, 0, 3, &mut out);
        assert!(out.iter().all(|v| v.to_bits() == 0), "k=0 must yield +0.0");
    }

    #[test]
    fn pool_recycles_capacity() {
        let mut pool = TensorPool::new();
        let mut buf = pool.take_zeroed(1024);
        buf[0] = 3.0;
        let ptr = buf.as_ptr();
        pool.recycle(buf);
        assert_eq!(pool.pooled(), 1);
        let again = pool.take_zeroed(512);
        assert_eq!(again.as_ptr(), ptr, "buffer should be reused");
        assert!(
            again.iter().all(|&v| v == 0.0),
            "reused buffer must be zeroed"
        );
    }

    #[test]
    fn pool_cap_is_respected_under_churn() {
        // Cap of 1024 bytes = 256 f32 of retained capacity.
        let mut pool = TensorPool::with_cap(1024);
        for i in 0..50 {
            let buf = pool.take_zeroed(32 + (i % 7) * 16);
            pool.recycle(buf);
            assert!(
                pool.stats().retained_bytes <= 1024,
                "retained {} bytes over the 1024-byte cap",
                pool.stats().retained_bytes
            );
        }
        // A buffer larger than the whole cap is dropped, not retained.
        pool.recycle(vec![0.0; 4096]);
        assert!(pool.stats().retained_bytes <= 1024);
    }

    #[test]
    fn pool_stats_count_hits_and_misses() {
        let mut pool = TensorPool::with_cap(1 << 20);
        let first = pool.take_zeroed(128); // nothing pooled yet: miss
        pool.recycle(first);
        let second = pool.take_zeroed(64); // fits in the recycled buffer: hit
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.buffers, 0, "the only buffer is checked out");
        let cap_bytes = second.capacity() * std::mem::size_of::<f32>();
        pool.recycle(second);
        assert_eq!(pool.stats().buffers, 1);
        assert_eq!(pool.stats().retained_bytes, cap_bytes);
    }

    #[test]
    fn par_chunks_covers_every_chunk_once() {
        let mut out = vec![0.0f32; 103];
        par_chunks(&mut out, 10, 4, |i, chunk| {
            for v in chunk.iter_mut() {
                *v += (i + 1) as f32;
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i / 10 + 1) as f32, "element {i}");
        }
    }

    /// Serializes the tests that set the process-wide thread count.
    static THREAD_KNOB: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn thread_knob_clamps_to_one() {
        let _guard = THREAD_KNOB.lock().unwrap_or_else(|e| e.into_inner());
        let before = num_threads();
        set_num_threads(0);
        assert_eq!(num_threads(), 1);
        set_num_threads(before);
    }

    /// Row-major `src` (`[rows, cols]`) transposed.
    fn transposed_vec(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut t = vec![0.0f32; rows * cols];
        for i in 0..rows {
            for j in 0..cols {
                t[j * rows + i] = src[i * cols + j];
            }
        }
        t
    }

    /// Row-major `src` (`[rows, cols]`) transposed, as a tensor.
    fn transposed(src: &Tensor) -> Tensor {
        let (rows, cols) = (src.shape().dim(0), src.shape().dim(1));
        Tensor::from_vec(transposed_vec(src.as_slice(), rows, cols), &[cols, rows])
    }

    #[test]
    fn matmul_nt_matches_reference_bits() {
        // Shapes chosen to hit the small fallback, full SIMD panels, and
        // zero-padded edge panels; `a · bᵀ` must store the reference's bits.
        for (m, d, n, seed) in [
            (3usize, 5usize, 4usize, 1u64), // small fallback
            (64, 154, 128, 2),              // full panels
            (37, 61, 29, 3),                // odd everything: edge tiles + edge panel
            (512, 128, 154, 4),             // MLP backward shape
        ] {
            let a = Tensor::uniform(&[m, d], -1.0, 1.0, seed);
            let b = Tensor::uniform(&[n, d], -1.0, 1.0, seed + 50);
            let want = matmul_ref(&a, &transposed(&b));
            let mut got = vec![1.0f32; m * n];
            matmul_nt_into(a.as_slice(), b.as_slice(), m, d, n, &mut got);
            assert_bits_eq(&got, want.as_slice(), &format!("nt {m}x{d}x{n}"));
        }
    }

    #[test]
    fn matmul_tn_matches_reference_bits() {
        for (d, m, n, seed) in [
            (5usize, 3usize, 4usize, 11u64), // small fallback
            (154, 64, 128, 12),              // full panels
            (61, 37, 29, 13),                // odd everything
            (512, 154, 128, 14),             // MLP backward shape (gb = aᵀ·g)
        ] {
            let a = Tensor::uniform(&[d, m], -1.0, 1.0, seed);
            let b = Tensor::uniform(&[d, n], -1.0, 1.0, seed + 50);
            let want = matmul_ref(&transposed(&a), &b);
            let mut got = vec![1.0f32; m * n];
            matmul_tn_into(a.as_slice(), b.as_slice(), d, m, n, &mut got);
            assert_bits_eq(&got, want.as_slice(), &format!("tn {d}x{m}x{n}"));
        }
    }

    #[test]
    fn matmul_nt_tn_thread_count_invariance() {
        // Shapes above PAR_MIN_FLOPS so the 4-thread run actually splits.
        let (d, m, n) = (300usize, 110usize, 90usize);
        assert!(m * d * n >= PAR_MIN_FLOPS);
        let a_t = Tensor::uniform(&[d, m], -1.0, 1.0, 21); // aᵀ storage for TN
        let a = Tensor::uniform(&[m, d], -1.0, 1.0, 23);
        let b_t = Tensor::uniform(&[n, d], -1.0, 1.0, 22); // bᵀ storage for NT
        let b = Tensor::uniform(&[d, n], -1.0, 1.0, 24);
        let _guard = THREAD_KNOB.lock().unwrap_or_else(|e| e.into_inner());
        let before = num_threads();
        let mut runs = Vec::new();
        for threads in [1usize, 4] {
            set_num_threads(threads);
            let mut tn = vec![0.0f32; m * n];
            matmul_tn_into(a_t.as_slice(), b.as_slice(), d, m, n, &mut tn);
            let mut nt = vec![0.0f32; m * n];
            matmul_nt_into(a.as_slice(), b_t.as_slice(), m, d, n, &mut nt);
            runs.push((tn, nt));
        }
        set_num_threads(before);
        let (tn1, nt1) = &runs[0];
        let (tn4, nt4) = &runs[1];
        assert!(tn1.iter().zip(tn4).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert!(nt1.iter().zip(nt4).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    /// `false`, plus `true` where the CPU has the SIMD kernels. Passed to
    /// the kernels directly, so no test flips the process-wide switch.
    fn simd_flags() -> Vec<bool> {
        let mut flags = vec![false];
        if crate::simd::detect() {
            flags.push(true);
        }
        flags
    }

    /// The shared tiling loop with the strict tile on `a · b` whatever the
    /// operand's density: the chain the zero-skipping kernel must reproduce
    /// bit for bit.
    fn packed(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, use_simd: bool) -> Vec<f32> {
        let mut out = vec![f32::NAN; m * n];
        let tile = tile_for(use_simd, false, m, n);
        gemm_tiled(Lhs::rows(a, k), b, m, k, n, tile, &mut out);
        out
    }

    #[test]
    fn strict_tiles_store_reference_bits_at_every_thread_count() {
        // Every strict tile this CPU has, run straight through the tiling
        // loop (so AVX-512 needs no knob to be left out), must store
        // `matmul_ref`'s bits: whole and short row blocks of the 4- and
        // 8-row tiles, outputs narrower than, as wide as and past each panel
        // width, depth 1 and 300, at 1, 2 and 4 threads (the 255-row
        // products from 31 columns up cross the parallel threshold), on a
        // row-major left operand and on the transpose of a stored one, read
        // in place through its strides. A tile the CPU lacks is left out,
        // so its cases are vacuous there.
        let _guard = THREAD_KNOB.lock().unwrap_or_else(|e| e.into_inner());
        let tiles: Vec<Tile> = [Tile::Portable, Tile::Avx2, Tile::Avx512Strict]
            .into_iter()
            .filter(|t| t.available())
            .collect();
        let before = num_threads();
        for m in [4, 5, 6, 7, 8, 9, 17, 255] {
            for n in [1, 15, 16, 31, 32, 33, 128] {
                for k in [1, 300] {
                    let seed = (m * 1000 + n * 10 + k) as u64;
                    let a = Tensor::uniform(&[m, k], -1.0, 1.0, seed);
                    let b = Tensor::uniform(&[k, n], -1.0, 1.0, seed + 1);
                    let want = matmul_ref(&a, &b);
                    let a_t = transposed_vec(a.as_slice(), m, k);
                    let layouts = [
                        ("a·b", Lhs::rows(a.as_slice(), k)),
                        ("aᵀ·b", Lhs::columns(&a_t, m)),
                    ];
                    for &tile in &tiles {
                        for threads in [1, 2, 4] {
                            set_num_threads(threads);
                            for (name, lhs) in layouts {
                                let mut got = vec![f32::NAN; m * n];
                                gemm_tiled(lhs, b.as_slice(), m, k, n, tile, &mut got);
                                let what = format!("{name} {tile:?} {m}x{k}x{n} threads={threads}");
                                assert_bits_eq(&got, want.as_slice(), &what);
                            }
                        }
                    }
                }
            }
        }
        set_num_threads(before);
    }

    #[test]
    fn one_kernel_choice_list_serves_both_tiers() {
        // Each tier with SIMD on and off, as `fast_active` combines them:
        // the fast tier is active only with SIMD on and an FMA CPU.
        let tiers: Vec<(bool, bool)> = simd_flags()
            .into_iter()
            .flat_map(|use_simd| [(use_simd, false), (use_simd, true)])
            .filter(|&(use_simd, fast)| !fast || (use_simd && crate::simd::fma_available()))
            .collect();
        // Dense operands on each side of the 8-row and 32-column
        // thresholds: (m, n, strict tile, fast tile) with SIMD on.
        let cases = [
            (8, 32, Tile::Avx512Strict, Tile::Avx512),
            (255, 128, Tile::Avx512Strict, Tile::Avx512),
            (7, 32, Tile::Avx2, Tile::Fma),
            (8, 31, Tile::Avx2, Tile::Fma),
            (7, 31, Tile::Avx2, Tile::Fma),
            (64, 16, Tile::Avx2, Tile::Fma),
        ];
        let k = 64;
        for &(use_simd, fast) in &tiers {
            let tier = format!("simd={use_simd} fast={fast}");
            for (m, n, strict, fused) in cases {
                if strict == Tile::Avx512Strict && !crate::simd::avx512_available() {
                    continue;
                }
                let a = Tensor::uniform(&[m, k], -1.0, 1.0, (m * 100 + n) as u64);
                let want = match (use_simd, fast) {
                    (false, _) => Tile::Portable,
                    (true, false) => strict,
                    (true, true) => fused,
                };
                // Both layouts of the same operand choose alike.
                for lhs in [Lhs::rows(a.as_slice(), k), Lhs::columns(a.as_slice(), m)] {
                    let got = kernel_for(lhs, m, k, n, use_simd, fast);
                    assert_eq!(got, Kernel::Tiled(want), "{m}x{k}x{n} {tier} {lhs:?}");
                }
            }
            let flat = vec![0.5f32; 64 * k];
            let sparse = one_hot(64);
            // (lhs, m, k, n, kernel): one column from two rows on at every
            // size, then the tiny rule, then the density rule.
            let choices = [
                (&flat, 64, k, 1, Kernel::OneRow),
                (&flat, 2, 4, 1, Kernel::OneRow),
                (&flat, 1, k, 1, Kernel::Axpy),
                (&flat, 3, k, 64, Kernel::Axpy),
                (&flat, 4, 8, 64, Kernel::Axpy),
                (&sparse, 64, 154, 32, Kernel::Sparse(64 * 22)),
                (&sparse, 64, 154, 1, Kernel::OneRow),
            ];
            for (a, m, k, n, want) in choices {
                let a = &a[..m * k];
                for lhs in [Lhs::rows(a, k), Lhs::columns(a, m)] {
                    let got = kernel_for(lhs, m, k, n, use_simd, fast);
                    assert_eq!(got, want, "{m}x{k}x{n} {tier} {lhs:?}");
                }
            }
            for lhs in [Lhs::rows(&sparse, 154), Lhs::columns(&sparse, 64)] {
                assert!(
                    matches!(
                        kernel_for(lhs, 64, 154, 31, use_simd, fast),
                        Kernel::Tiled(_)
                    ),
                    "a narrow output stays on the tile whatever the density ({tier})"
                );
            }
        }
    }

    /// The zero-skipping kernel on `a · b`, called directly: its gather
    /// form on `a` (`[m, k]`), then its scatter form on `a` stored
    /// transposed. Asserts the two agree bit for bit and returns the
    /// gather form's output.
    fn sparse(a: &[f32], b: &[f32], k: usize, n: usize, use_simd: bool) -> Vec<f32> {
        let m = a.len() / k;
        let nonzeros = a.iter().filter(|&&v| v != 0.0).count();
        let mut out = vec![f32::NAN; m * n];
        gemm_sparse(Lhs::rows(a, k), b, k, n, nonzeros, use_simd, &mut out);
        let a_t = transposed_vec(a, m, k);
        let mut scattered = vec![f32::NAN; m * n];
        gemm_sparse(
            Lhs::columns(&a_t, m),
            b,
            k,
            n,
            nonzeros,
            use_simd,
            &mut scattered,
        );
        let what = format!("scatter {m}x{k}x{n} simd={use_simd}");
        assert_bits_eq(&scattered, &out, &what);
        out
    }

    /// `m` one-hot rows in the search's layout: 22 layers of 7 ops.
    fn one_hot(m: usize) -> Vec<f32> {
        let k = 22 * 7;
        let mut a = vec![0.0f32; m * k];
        for i in 0..m {
            for layer in 0..22 {
                a[i * k + layer * 7 + (i * 5 + layer * 3) % 7] = 1.0;
            }
        }
        a
    }

    /// Asserts the zero-skipping kernel, the packed path and `matmul_ref`
    /// agree bit for bit on `a · b` with SIMD on and off.
    fn assert_sparse_matches_packed(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        let want = matmul_ref(
            &Tensor::from_vec(a.to_vec(), &[m, k]),
            &Tensor::from_vec(b.to_vec(), &[k, n]),
        );
        for use_simd in simd_flags() {
            let what = format!("{m}x{k}x{n} simd={use_simd}");
            let got = sparse(a, b, k, n, use_simd);
            assert_bits_eq(&got, &packed(a, b, m, k, n, use_simd), &what);
            assert_bits_eq(&got, want.as_slice(), &what);
        }
    }

    #[test]
    fn sparse_gemm_stores_the_packed_paths_positive_zero() {
        // A one-hot row times an all-(−0.0) column: every product is −0.0,
        // and +0.0 + −0.0 = +0.0. A kernel that seeded its accumulator
        // with the first product instead of +0.0 would store −0.0.
        let (m, k, n) = (8, 154, 37);
        let a = one_hot(m);
        let mut b = Tensor::uniform(&[k, n], -1.0, 1.0, 31).as_slice().to_vec();
        for p in 0..k {
            b[p * n + 5] = -0.0;
        }
        assert!(
            sparse_nonzeros(&a, n).is_some(),
            "one-hot rows take the sparse path"
        );
        for use_simd in simd_flags() {
            let got = sparse(&a, &b, k, n, use_simd);
            for i in 0..m {
                assert_eq!(got[i * n + 5].to_bits(), 0, "row {i} simd={use_simd}");
            }
        }
        assert_sparse_matches_packed(&a, &b, m, k, n);
        let mut dispatched = vec![f32::NAN; m * n];
        matmul_into(&a, &b, m, k, n, &mut dispatched);
        assert_bits_eq(&dispatched, &packed(&a, &b, m, k, n, false), "dispatch");
    }

    #[test]
    fn sparse_gemm_writes_positive_zeros_for_all_zero_rows() {
        let (m, k, n) = (6, 154, 37);
        let mut a = one_hot(m);
        for i in [0, 3, 5] {
            for p in 0..k {
                a[i * k + p] = if p % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        let b = Tensor::uniform(&[k, n], -1.0, 1.0, 32);
        for use_simd in simd_flags() {
            let got = sparse(&a, b.as_slice(), k, n, use_simd);
            for i in [0, 3, 5] {
                assert!(
                    got[i * n..(i + 1) * n].iter().all(|v| v.to_bits() == 0),
                    "zero row {i} must store +0.0 (simd={use_simd})"
                );
            }
        }
        assert_sparse_matches_packed(&a, b.as_slice(), m, k, n);
    }

    #[test]
    fn sparse_gemm_matches_packed_bits_across_row_counts_and_widths() {
        // Widths off every vector and block multiple (8, 16, 64, 128) and
        // on them; a depth past one 64-entry stretch with a ragged end.
        for m in [4, 5, 256] {
            for n in [1, 7, 13, 64, 100, 128, 137] {
                let a = one_hot(m);
                let b = Tensor::uniform(&[154, n], -1.0, 1.0, (m * 1000 + n) as u64);
                assert_sparse_matches_packed(&a, b.as_slice(), m, 154, n);
            }
        }
        let (m, k, n) = (9, 300, 45);
        let mut a = Tensor::uniform(&[m, k], -1.0, 1.0, 33).as_slice().to_vec();
        for (i, v) in a.iter_mut().enumerate() {
            if i % 5 != 0 {
                *v = 0.0;
            }
        }
        let b = Tensor::uniform(&[k, n], -1.0, 1.0, 34);
        assert_sparse_matches_packed(&a, b.as_slice(), m, k, n);
    }

    #[test]
    fn sparse_dispatch_takes_operands_up_to_a_quarter_nonzero() {
        let (m, k, n) = (16, 40, 40);
        let cutoff = m * k / SPARSE_DIVISOR;
        let b = Tensor::uniform(&[k, n], -1.0, 1.0, 35);
        for (nonzeros, sparse_path) in [(cutoff, true), (cutoff + 1, false)] {
            // Nonzeros spread over every row, the rest ±0.0.
            let mut a = vec![-0.0f32; m * k];
            for t in 0..nonzeros {
                a[(t * 7) % (m * k)] = 0.5 + t as f32 / 64.0;
            }
            assert_eq!(sparse_nonzeros(&a, n).is_some(), sparse_path, "{nonzeros}");
            assert_eq!(
                sparse_nonzeros(&a, SPARSE_MIN_COLS - 1),
                None,
                "narrow output"
            );
            let mut got = vec![f32::NAN; m * n];
            matmul_into(&a, b.as_slice(), m, k, n, &mut got);
            let want = matmul_ref(&Tensor::from_vec(a.clone(), &[m, k]), &b);
            assert_bits_eq(&got, want.as_slice(), &format!("{nonzeros} nonzeros"));
            assert_sparse_matches_packed(&a, b.as_slice(), m, k, n);
        }
        assert_eq!(
            sparse_nonzeros(&[1.0; 4096], n),
            None,
            "dense operands stop early"
        );
        assert_eq!(sparse_nonzeros(&[f32::NAN, 0.0, 0.0, 0.0], n), Some(1));
    }

    #[test]
    fn transpose_into_round_trips() {
        let t = Tensor::uniform(&[5, 3], -1.0, 1.0, 77);
        let mut once = vec![0.0; 15];
        let mut twice = vec![0.0; 15];
        transpose_into(t.as_slice(), 5, 3, &mut once);
        transpose_into(&once, 3, 5, &mut twice);
        assert_eq!(t.as_slice(), &twice[..]);
    }

    #[test]
    fn simd_transpose_matches_the_scalar_permutation() {
        // Shapes straddling the 8×8 micro-transpose edges, including the
        // power-of-two write stride the scalar blocking is tuned around.
        for (m, n) in [(8, 8), (9, 7), (16, 24), (13, 130), (512, 154), (33, 1)] {
            let t = Tensor::uniform(&[m, n], -2.0, 2.0, (m * 131 + n) as u64);
            let mut want = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    want[j * m + i] = t.as_slice()[i * n + j];
                }
            }
            let mut got = vec![0.0f32; m * n];
            transpose_into(t.as_slice(), m, n, &mut got);
            assert!(
                want.iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "transpose {m}x{n} diverged from the naive permutation"
            );
        }
    }
}
