//! Persistent worker pool behind [`crate::kernels::par_chunks`].
//!
//! PR 3 parallelized the kernels with `std::thread::scope`, which spawns and
//! joins OS threads on *every* kernel invocation. The spawn/join cost is on
//! the order of the kernels themselves at MBConv shapes, which is why the
//! recorded `BENCH_kernels.json` showed 4-thread conv *slower* than 1-thread
//! on every row. This module replaces the per-call scope with one
//! process-wide pool of parked threads:
//!
//! * **Lazy** — no threads exist until the first parallel kernel call. The
//!   pool grows to the largest participant count ever requested and parks on
//!   a condvar between jobs; idle cost is zero scheduling activity.
//! * **Deterministic** — a job is a *static* partition of the output into
//!   contiguous chunk groups: group `i` is the chunks
//!   `[i·per_group, (i+1)·per_group)` and is always executed by participant
//!   `i` (the submitting thread runs group 0). The chunk→group mapping
//!   depends only on lengths, never on timing, and each chunk's contents are
//!   a function of its index alone, so the output bytes are identical to the
//!   serial loop for every thread count.
//! * **Safe under re-entry and concurrent submitters** — if a job is already
//!   in flight (two runtime search jobs hitting the kernels at once, or a
//!   chunk closure itself calling back into the kernels), the submitter runs
//!   every group inline on its own thread. That changes only the parallelism
//!   degree, never the bytes, and makes nested submission deadlock-free.
//!
//! A panic inside a worker group is caught, the job is drained, and the
//! panic is re-raised on the submitting thread; a panic in the submitter's
//! own group drains the workers before unwinding further.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, OnceLock};

/// One submitted chunk-parallel job. Groups address disjoint element ranges
/// of `data`, so participants never alias; the raw context pointer plus the
/// monomorphized `run` trampoline erase the closure type without a per-call
/// allocation.
#[derive(Clone, Copy)]
struct Job {
    data: *mut f32,
    len: usize,
    chunk_len: usize,
    per_group: usize,
    n_chunks: usize,
    groups: usize,
    ctx: *const (),
    run: unsafe fn(*const (), &Job, usize),
}

// SAFETY: the submitting thread blocks until every worker group has finished
// (so `data` and `ctx` outlive the job), the closure behind `ctx` is `Sync`,
// and each group index maps to a disjoint slice of `data`.
unsafe impl Send for Job {}

struct State {
    /// Bumped once per submitted job so parked workers can tell a fresh job
    /// from a spurious wakeup.
    generation: u64,
    job: Option<Job>,
    /// Worker groups still running for the current job.
    remaining: usize,
    /// Set when any worker group panicked; drained by the submitter.
    panicked: bool,
    /// Worker threads spawned so far (they live for the process lifetime).
    spawned: usize,
}

struct Pool {
    state: Mutex<State>,
    work: Condvar,
    done: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State {
            generation: 0,
            job: None,
            remaining: 0,
            panicked: false,
            spawned: 0,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
    })
}

/// Executes group `gi` of `job`: the contiguous chunks
/// `[gi·per_group, (gi+1)·per_group)`, each handed to the closure with its
/// *global* chunk index — exactly the mapping of the serial loop.
///
/// # Safety
///
/// `ctx` must point to a live `F` and `gi` must be a group index no other
/// thread is running, so the derived slices are disjoint.
unsafe fn run_group<F: Fn(usize, &mut [f32]) + Sync>(ctx: *const (), job: &Job, gi: usize) {
    let f = &*ctx.cast::<F>();
    let first = gi * job.per_group;
    let last = (first + job.per_group).min(job.n_chunks);
    for ci in first..last {
        let start = ci * job.chunk_len;
        let end = (start + job.chunk_len).min(job.len);
        let chunk = std::slice::from_raw_parts_mut(job.data.add(start), end - start);
        f(ci, chunk);
    }
}

fn worker_loop(index: usize) {
    let p = pool();
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = p.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if st.generation != seen {
                    seen = st.generation;
                    if let Some(job) = st.job {
                        if index + 1 < job.groups {
                            break job;
                        }
                    }
                }
                st = p.work.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        // SAFETY: `job.ctx` and `job.data` stay live: the submitter waits
        // for `remaining == 0`, and this group's decrement below comes after
        // the call. Group `index + 1` belongs to this worker alone, so its
        // chunks are disjoint from every other group's.
        let res = catch_unwind(AssertUnwindSafe(|| unsafe {
            (job.run)(job.ctx, &job, index + 1);
        }));
        let mut st = p.state.lock().unwrap_or_else(|e| e.into_inner());
        if res.is_err() {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            p.done.notify_all();
        }
    }
}

/// Blocks until every worker group of the in-flight job has finished, frees
/// the job slot, and reports whether any worker panicked.
fn drain(p: &Pool) -> bool {
    let mut st = p.state.lock().unwrap_or_else(|e| e.into_inner());
    while st.remaining > 0 {
        st = p.done.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    st.job = None;
    std::mem::take(&mut st.panicked)
}

/// Drains the pool if the submitter's own group unwinds, so the job slot is
/// never left occupied by a dead submission.
struct DrainGuard<'a>(&'a Pool);

impl Drop for DrainGuard<'_> {
    fn drop(&mut self) {
        let _ = drain(self.0);
    }
}

/// Runs `f` over the chunk groups of `out` with up to `groups` participants:
/// the calling thread (group 0) plus `groups - 1` pooled workers.
///
/// Falls back to running every group inline when the pool is already busy
/// with another job; the output bytes are identical either way.
pub(crate) fn run_chunked<F: Fn(usize, &mut [f32]) + Sync>(
    out: &mut [f32],
    chunk_len: usize,
    per_group: usize,
    groups: usize,
    f: &F,
) {
    debug_assert!(groups >= 2, "serial dispatch belongs to the caller");
    let job = Job {
        data: out.as_mut_ptr(),
        len: out.len(),
        chunk_len,
        per_group,
        n_chunks: out.len().div_ceil(chunk_len),
        groups,
        ctx: (f as *const F).cast(),
        run: run_group::<F>,
    };
    let p = pool();
    {
        let mut st = p.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.job.is_some() {
            // Another submission is in flight (concurrent caller or `f`
            // re-entering the kernels). Chunk contents depend only on the
            // chunk index, so running every group inline yields the same
            // bytes with no risk of deadlock.
            drop(st);
            for gi in 0..groups {
                // SAFETY: all groups run sequentially on this one thread;
                // `f` and `out` are live for the whole loop.
                unsafe { run_group::<F>(job.ctx, &job, gi) };
            }
            return;
        }
        while st.spawned < groups - 1 {
            let index = st.spawned;
            std::thread::Builder::new()
                .name(format!("lightnas-kernel-{index}"))
                .spawn(move || worker_loop(index))
                .expect("failed to spawn kernel worker thread");
            st.spawned += 1;
        }
        st.generation = st.generation.wrapping_add(1);
        st.job = Some(job);
        st.remaining = groups - 1;
        p.work.notify_all();
    }
    let guard = DrainGuard(p);
    // SAFETY: group 0 is reserved for the submitting thread; workers only
    // take groups >= 1.
    unsafe { run_group::<F>(job.ctx, &job, 0) };
    std::mem::forget(guard);
    if drain(p) {
        panic!("a kernel worker thread panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn concurrent_submitters_all_complete_with_identical_bytes() {
        // Four std threads each submit a parallel job at once; whichever
        // submissions lose the race run inline, and every output must match
        // the serial result bit for bit.
        let expected: Vec<f32> = (0..203).map(|i| (i / 7 + 1) as f32).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let mut out = vec![0.0f32; 203];
                        run_chunked(&mut out, 7, 10, 3, &|i, chunk: &mut [f32]| {
                            for v in chunk.iter_mut() {
                                *v = (i + 1) as f32;
                            }
                        });
                        assert_eq!(out, expected);
                    }
                });
            }
        });
    }

    #[test]
    fn worker_panic_propagates_to_submitter() {
        let hits = AtomicUsize::new(0);
        let res = catch_unwind(AssertUnwindSafe(|| {
            let mut out = vec![0.0f32; 64];
            run_chunked(&mut out, 8, 2, 4, &|i, _chunk: &mut [f32]| {
                hits.fetch_add(1, Ordering::Relaxed);
                if i >= 2 {
                    panic!("boom in chunk {i}");
                }
            });
        }));
        assert!(res.is_err(), "the worker panic must reach the submitter");
        // The pool must be usable again after a panic.
        let mut out = vec![0.0f32; 64];
        run_chunked(&mut out, 8, 2, 4, &|_, chunk: &mut [f32]| chunk.fill(1.0));
        assert!(out.iter().all(|&v| v == 1.0));
    }
}
