//! Deterministic chaos for the serving layer.
//!
//! Same philosophy as the runtime's `FaultPlan` (which this extends in
//! spirit and seeds from the same `splitmix64`): a robustness claim is only
//! testable if the failures are a *reproducible schedule*, not a dice roll
//! per run. A [`ChaosPlan`] maps primary-predictor **call indices** to
//! faults; [`ChaosPredictor`] wraps the real primary and misbehaves exactly
//! on schedule — NaN answers, panics mid-query, slow responses that burn
//! service-clock time — while the service under test stays completely
//! unaware it is being tested.
//!
//! Faults are one-shot per call index (atomically claimed), so retries hit
//! a *healthy* primary on their next call — which is precisely what lets
//! tests distinguish "retry budget works" from "fault never happened".
//!
//! The plan holds serving faults only. Drift bursts, stale predictors and
//! bad deploys are scenario steps on the simulated board and on the
//! adaptation API, which the soak exhibits script as `(tick, event)` lists
//! of their own.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use lightnas_predictor::{BatchPredictor, Predictor};
use lightnas_runtime::splitmix64;

use crate::clock::Clock;

/// One way the primary misbehaves on a scheduled call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeFaultKind {
    /// The answer comes back NaN (poisoned weights, overflow, bad row).
    Nan,
    /// The primary panics mid-query.
    Panic,
    /// The primary answers correctly but takes `millis` of service-clock
    /// time to do it (stalled allocator, contended accelerator).
    Slow {
        /// Stall length in milliseconds.
        millis: u64,
    },
}

/// A fault bound to one primary call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeFault {
    /// 0-based index of the scalar primary call this fires on.
    pub call: u64,
    /// What happens.
    pub kind: ServeFaultKind,
}

/// A reproducible, one-shot schedule of serving faults.
#[derive(Debug, Default)]
pub struct ChaosPlan {
    faults: Vec<ServeFault>,
    fired: Vec<AtomicBool>,
}

impl ChaosPlan {
    /// The empty plan: a perfectly healthy primary.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan firing exactly the given faults, each at most once.
    pub fn new(mut faults: Vec<ServeFault>) -> Self {
        faults.sort_by_key(|f| f.call);
        faults.dedup_by_key(|f| f.call);
        let fired = faults.iter().map(|_| AtomicBool::new(false)).collect();
        Self { faults, fired }
    }

    /// A seeded plan over roughly `calls` primary calls, covering all three
    /// fault classes: NaN *bursts* (consecutive bad answers, the pattern
    /// that trips a circuit breaker), isolated panics, and slow responses.
    /// Same seed, same plan — byte for byte.
    pub fn seeded(seed: u64, calls: u64) -> Self {
        let calls = calls.max(64);
        let mut s = seed ^ 0x9e3d_52c9_b1e0_77a5;
        let mut faults = Vec::new();
        // NaN bursts: enough consecutive failures to trip a default
        // breaker, several times over the run.
        let bursts = (calls / 400).max(2);
        for _ in 0..bursts {
            let start = splitmix64(&mut s) % calls;
            let len = 3 + splitmix64(&mut s) % 5;
            for k in 0..len {
                faults.push(ServeFault {
                    call: start + k,
                    kind: ServeFaultKind::Nan,
                });
            }
        }
        // Isolated panics.
        for _ in 0..(calls / 800).max(2) {
            faults.push(ServeFault {
                call: splitmix64(&mut s) % calls,
                kind: ServeFaultKind::Panic,
            });
        }
        // Slow responses: long enough to push queued deadlines past due.
        for _ in 0..(calls / 600).max(2) {
            faults.push(ServeFault {
                call: splitmix64(&mut s) % calls,
                kind: ServeFaultKind::Slow {
                    millis: 2 + splitmix64(&mut s) % 30,
                },
            });
        }
        Self::new(faults)
    }

    /// The scheduled faults, sorted by call index.
    pub fn faults(&self) -> &[ServeFault] {
        &self.faults
    }

    /// How many faults have fired so far.
    pub fn fired(&self) -> usize {
        self.fired
            .iter()
            .filter(|f| f.load(Ordering::Relaxed))
            .count()
    }

    /// Claims the fault scheduled for `call`, at most once.
    pub fn take(&self, call: u64) -> Option<ServeFaultKind> {
        let idx = self.faults.binary_search_by_key(&call, |f| f.call).ok()?;
        self.fired[idx]
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .ok()
            .map(|_| self.faults[idx].kind)
    }
}

/// The real primary wrapped in a [`ChaosPlan`]: misbehaves exactly on
/// schedule, is the primary otherwise. Batched queries go through the
/// per-row path so each row consumes one call index — a mid-batch panic
/// aborts the whole batch, exactly like a real in-process crash would.
#[derive(Debug)]
pub struct ChaosPredictor<'a, P> {
    inner: &'a P,
    plan: &'a ChaosPlan,
    clock: &'a dyn Clock,
    calls: AtomicU64,
}

impl<'a, P: Predictor> ChaosPredictor<'a, P> {
    /// Wraps `inner`, misbehaving per `plan` on `clock` time.
    pub fn new(inner: &'a P, plan: &'a ChaosPlan, clock: &'a dyn Clock) -> Self {
        Self {
            inner,
            plan,
            clock,
            calls: AtomicU64::new(0),
        }
    }

    /// Scalar primary calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl<P: Predictor> Predictor for ChaosPredictor<'_, P> {
    fn predict_encoding(&self, encoding: &[f32]) -> f64 {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        match self.plan.take(call) {
            Some(ServeFaultKind::Nan) => f64::NAN,
            Some(ServeFaultKind::Panic) => {
                panic!("injected chaos: primary panic on call {call}")
            }
            Some(ServeFaultKind::Slow { millis }) => {
                self.clock.sleep(Duration::from_millis(millis));
                self.inner.predict_encoding(encoding)
            }
            None => self.inner.predict_encoding(encoding),
        }
    }

    fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
        self.inner.gradient(encoding)
    }
}

impl<P: Predictor> BatchPredictor for ChaosPredictor<'_, P> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    struct Constant;
    impl Predictor for Constant {
        fn predict_encoding(&self, _e: &[f32]) -> f64 {
            17.25
        }
        fn gradient(&self, e: &[f32]) -> Vec<f32> {
            vec![0.0; e.len()]
        }
    }

    #[test]
    fn seeded_plans_reproduce_and_cover_all_classes() {
        let a = ChaosPlan::seeded(11, 5000);
        let b = ChaosPlan::seeded(11, 5000);
        assert_eq!(a.faults(), b.faults());
        assert_ne!(a.faults(), ChaosPlan::seeded(12, 5000).faults());
        let has = |k: fn(&ServeFaultKind) -> bool| a.faults().iter().any(|f| k(&f.kind));
        assert!(has(|k| matches!(k, ServeFaultKind::Nan)));
        assert!(has(|k| matches!(k, ServeFaultKind::Panic)));
        assert!(has(|k| matches!(k, ServeFaultKind::Slow { .. })));
    }

    #[test]
    fn faults_fire_on_schedule_exactly_once() {
        let clock = VirtualClock::new();
        let plan = ChaosPlan::new(vec![
            ServeFault {
                call: 1,
                kind: ServeFaultKind::Nan,
            },
            ServeFault {
                call: 2,
                kind: ServeFaultKind::Slow { millis: 4 },
            },
        ]);
        let chaos = ChaosPredictor::new(&Constant, &plan, &clock);
        assert_eq!(chaos.predict_encoding(&[]), 17.25, "call 0 is healthy");
        assert!(chaos.predict_encoding(&[]).is_nan(), "call 1 is the NaN");
        assert_eq!(chaos.predict_encoding(&[]), 17.25, "call 2 answers");
        assert_eq!(clock.now(), Duration::from_millis(4), "but slowly");
        assert_eq!(plan.fired(), 2);
        assert_eq!(chaos.calls(), 3);
    }
}
