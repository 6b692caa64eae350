//! Bounded admission with per-priority watermarks.
//!
//! The queue is the service's only buffer, and it is *bounded*: past a
//! priority's watermark, a request is rejected **at the door** with a typed
//! [`ServeError::Overloaded`] instead of being accepted and later timed out.
//! Rejecting cheap and early is the whole point of admission control — a
//! request that cannot be served in time should cost the service (and tell
//! the client) as little as possible.
//!
//! Watermarks are nested — low-priority traffic is turned away first, high
//! priority last — but *serving* is strictly FIFO: priorities shape who gets
//! in, not who jumps the line, so admitted latency stays predictable.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

use crate::error::ServeError;

/// How urgent a request is — to *admission control only*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Best-effort traffic; first to be shed under load.
    Low,
    /// The default.
    Normal,
    /// Shed only when the queue is at full capacity.
    High,
}

impl Priority {
    /// Telemetry tag.
    pub fn tag(&self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// Nested per-priority admission watermarks over one bounded queue.
#[derive(Debug, Clone)]
pub struct AdmissionPolicy {
    /// Hard queue bound; [`Priority::High`] is admitted up to here.
    pub capacity: usize,
    /// [`Priority::Normal`] is admitted while depth is below this.
    pub normal_mark: usize,
    /// [`Priority::Low`] is admitted while depth is below this.
    pub low_mark: usize,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self {
            capacity: 64,
            normal_mark: 48,
            low_mark: 32,
        }
    }
}

impl AdmissionPolicy {
    /// The depth limit `priority` is admitted under.
    pub fn limit(&self, priority: Priority) -> usize {
        match priority {
            Priority::High => self.capacity,
            Priority::Normal => self.normal_mark.min(self.capacity),
            Priority::Low => self.low_mark.min(self.capacity),
        }
    }
}

#[derive(Debug)]
struct Inner<T> {
    queue: VecDeque<T>,
    draining: bool,
    /// Consumers parked in [`AdmissionQueue::wait_batch`].
    waiting: usize,
}

/// The bounded FIFO behind the service, safe for many producers and many
/// consumers. Blocking is confined to [`wait_batch`](Self::wait_batch);
/// everything else returns immediately.
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    policy: AdmissionPolicy,
    inner: Mutex<Inner<T>>,
    wakeup: Condvar,
}

impl<T> AdmissionQueue<T> {
    /// An empty queue under `policy`.
    pub fn new(policy: AdmissionPolicy) -> Self {
        Self {
            policy,
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                draining: false,
                waiting: 0,
            }),
            wakeup: Condvar::new(),
        }
    }

    /// The admission policy.
    pub fn policy(&self) -> &AdmissionPolicy {
        &self.policy
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits one item built by `make`, called **under the queue lock** so
    /// whatever it captures (e.g. a request id counter) is ordered exactly
    /// like the queue itself. Returns the depth after insertion.
    ///
    /// Wakes a consumer only if one is parked in
    /// [`wait_batch`](Self::wait_batch): a consumer that is not parked
    /// checks the queue under the lock before it parks, so it cannot miss
    /// the item, and a wake with nobody waiting still costs a system call.
    ///
    /// # Errors
    ///
    /// [`ServeError::Draining`] once [`drain`](Self::drain) has been called;
    /// [`ServeError::Overloaded`] when the priority's watermark is reached.
    pub fn admit_with(
        &self,
        priority: Priority,
        make: impl FnOnce() -> T,
    ) -> Result<usize, ServeError> {
        let mut inner = self.lock();
        if inner.draining {
            return Err(ServeError::Draining);
        }
        let depth = inner.queue.len();
        let limit = self.policy.limit(priority);
        if depth >= limit {
            return Err(ServeError::Overloaded { depth, limit });
        }
        let item = make();
        inner.queue.push_back(item);
        let depth = inner.queue.len();
        let parked = inner.waiting > 0;
        drop(inner);
        if parked {
            self.wakeup.notify_one();
        }
        Ok(depth)
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Whether [`drain`](Self::drain) has been called.
    pub fn is_draining(&self) -> bool {
        self.lock().draining
    }

    /// Stops admission (everything already queued stays servable) and wakes
    /// all waiting consumers so they can run the queue dry and exit.
    pub fn drain(&self) {
        self.lock().draining = true;
        self.wakeup.notify_all();
    }

    /// Pops up to `max` items FIFO without blocking; empty vec if idle.
    pub fn pop_batch(&self, max: usize) -> Vec<T> {
        let mut inner = self.lock();
        let n = inner.queue.len().min(max);
        inner.queue.drain(..n).collect()
    }

    /// Blocks until items are available (returning up to `max` of them) or
    /// the queue is draining *and* empty (returning `None` — the consumer
    /// should exit). Admitted items are therefore never lost to a drain.
    pub fn wait_batch(&self, max: usize) -> Option<Vec<T>> {
        let mut inner = self.lock();
        loop {
            if !inner.queue.is_empty() {
                let n = inner.queue.len().min(max);
                return Some(inner.queue.drain(..n).collect());
            }
            if inner.draining {
                return None;
            }
            inner.waiting += 1;
            inner = self
                .wakeup
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
            inner.waiting -= 1;
        }
    }

    /// Consumers parked in [`wait_batch`](Self::wait_batch) right now.
    #[cfg(test)]
    fn waiters(&self) -> usize {
        self.lock().waiting
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermarks_shed_low_priority_first() {
        let q = AdmissionQueue::new(AdmissionPolicy {
            capacity: 4,
            normal_mark: 3,
            low_mark: 2,
        });
        for k in 0..2 {
            q.admit_with(Priority::Low, || k).expect("below low mark");
        }
        assert!(matches!(
            q.admit_with(Priority::Low, || 9),
            Err(ServeError::Overloaded { depth: 2, limit: 2 })
        ));
        q.admit_with(Priority::Normal, || 2)
            .expect("normal still in");
        assert!(matches!(
            q.admit_with(Priority::Normal, || 9),
            Err(ServeError::Overloaded { depth: 3, limit: 3 })
        ));
        q.admit_with(Priority::High, || 3)
            .expect("high up to capacity");
        assert!(matches!(
            q.admit_with(Priority::High, || 9),
            Err(ServeError::Overloaded { depth: 4, limit: 4 })
        ));
        // Serving stays FIFO regardless of priority.
        assert_eq!(q.pop_batch(8), vec![0, 1, 2, 3]);
    }

    #[test]
    fn drain_rejects_new_but_serves_queued() {
        let q = AdmissionQueue::new(AdmissionPolicy::default());
        q.admit_with(Priority::Normal, || "queued")
            .expect("admitted");
        q.drain();
        assert!(matches!(
            q.admit_with(Priority::High, || "late"),
            Err(ServeError::Draining)
        ));
        assert_eq!(q.wait_batch(4), Some(vec!["queued"]));
        assert_eq!(q.wait_batch(4), None, "drained and empty means exit");
    }

    #[test]
    fn wait_batch_wakes_on_admission_across_threads() {
        let q = AdmissionQueue::new(AdmissionPolicy::default());
        std::thread::scope(|s| {
            let consumer = s.spawn(|| q.wait_batch(4));
            s.spawn(|| {
                q.admit_with(Priority::Normal, || 41).expect("admitted");
            });
            assert_eq!(consumer.join().expect("no panic"), Some(vec![41]));
        });
    }

    #[test]
    fn admission_wakes_a_parked_consumer() {
        use std::sync::{mpsc, Arc};
        use std::time::{Duration, Instant};

        let q = Arc::new(AdmissionQueue::new(AdmissionPolicy::default()));
        let (tx, rx) = mpsc::channel();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || tx.send(q.wait_batch(4)))
        };
        let start = Instant::now();
        while q.waiters() == 0 {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "the consumer never parked"
            );
            std::thread::yield_now();
        }
        q.admit_with(Priority::Normal, || 41).expect("admitted");
        let got = rx.recv_timeout(Duration::from_secs(10));
        // A lost wake-up leaves the consumer parked: the drain releases it
        // so the test fails on the timeout instead of hanging.
        q.drain();
        assert_eq!(
            got,
            Ok(Some(vec![41])),
            "the admit did not wake the consumer"
        );
        let sent = consumer.join().expect("the consumer does not panic");
        sent.expect("the receiver outlives the consumer");
    }
}
