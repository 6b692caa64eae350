//! Calibration against a fixed reference kernel.
//!
//! The two-vCPU virtual machine the benchmark was built on shares its host:
//! a bare arithmetic loop there runs up to twice as slowly in some phases
//! as in others, and such phases last from seconds to minutes, longer than
//! a run. So every child process, before it runs any program code, times a
//! reference kernel of the benchmark's own, which no change to the program
//! can move, and the run reports each timed end-to-end figure scaled to
//! the machine running that kernel in [`NOMINAL_MS`]: a time by
//! `NOMINAL_MS / reading`, a rate by `reading / NOMINAL_MS`. Over ten runs
//! of one workload, run-level tenant_sweeps throughput correlated −0.92
//! with the reading.

use std::hint::black_box;
use std::time::Instant;

use crate::stats;
use crate::substrate::WORKERS;

/// Side of the square f32 matrices the kernel multiplies.
const N: usize = 64;

/// Matrix products per thread per reading.
const ITERS: usize = 400;

/// Readings per child; the median is used.
const READINGS: usize = 5;

/// The reading (ms) reported figures are scaled to: about what the kernel
/// takes on a quiet two-vCPU machine of the kind the benchmark was built
/// on, so that scaled figures stay close to raw ones there.
pub const NOMINAL_MS: f64 = 15.0;

/// How a metric moves with the machine's speed.
#[derive(Debug, Clone, Copy)]
pub enum Speed {
    /// A time: longer on a slower machine.
    Time,
    /// A rate: lower on a slower machine.
    Rate,
    /// Not a function of speed (memory).
    Neutral,
}

fn kernel() -> f32 {
    let a: Vec<f32> = (0..N * N).map(|i| (i % 17) as f32 * 0.01).collect();
    let mut c = vec![0f32; N * N];
    for _ in 0..ITERS {
        for i in 0..N {
            for k in 0..N {
                let aik = black_box(a[i * N + k]);
                for j in 0..N {
                    c[i * N + j] += aik * a[k * N + j];
                }
            }
        }
    }
    c.iter().sum()
}

/// One reading (ms): the kernel on [`WORKERS`] threads at once, as the
/// workloads load both vCPUs.
fn reading_ms() -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| black_box(kernel()));
        }
    });
    t.elapsed().as_secs_f64() * 1e3
}

/// The median of [`READINGS`] readings (ms).
pub fn reference_ms() -> f64 {
    let readings: Vec<f64> = (0..READINGS).map(|_| reading_ms()).collect();
    stats::median(&readings)
}

/// `value`, measured while the kernel read `reference_ms`, scaled to a
/// machine reading [`NOMINAL_MS`].
pub fn at_nominal(value: f64, reference_ms: f64, speed: Speed) -> f64 {
    match speed {
        Speed::Time => value * NOMINAL_MS / reference_ms,
        Speed::Rate => value * reference_ms / NOMINAL_MS,
        Speed::Neutral => value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_machine_scales_times_down_and_rates_up() {
        // The kernel took twice its nominal time: the machine ran at half
        // speed, so a 4 s time reads 2 s and 10/s reads 20/s.
        let slow = 2.0 * NOMINAL_MS;
        assert_eq!(at_nominal(4.0, slow, Speed::Time), 2.0);
        assert_eq!(at_nominal(10.0, slow, Speed::Rate), 20.0);
        assert_eq!(at_nominal(47.5, slow, Speed::Neutral), 47.5);
        assert_eq!(at_nominal(4.0, NOMINAL_MS, Speed::Time), 4.0);
    }
}
