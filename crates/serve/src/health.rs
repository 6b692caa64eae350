//! Health and readiness as plain data.
//!
//! A load balancer (or a test) asks two different questions: *liveness* —
//! is the process answering at all — and *readiness* — should new traffic
//! be sent here. [`HealthSnapshot`] answers both from the service's own
//! counters, with the breaker state riding along so "up but degraded to
//! the LUT" is visible instead of masquerading as healthy. Services with
//! the adaptation layer wired additionally report which model generation
//! is serving and how stale it is.

use std::time::Duration;

use crate::breaker::BreakerState;

/// One fleet device's adaptation state, as rolled up into a fleet-level
/// [`HealthSnapshot`]. Single-device services never populate these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceGeneration {
    /// Device name from the fleet registry (e.g. `"phone-a76"`).
    pub device: String,
    /// Deployment generation of that device's serving model.
    pub model_generation: u64,
    /// Live samples that device has ingested since its last model swap.
    pub staleness_samples: u64,
}

/// One consistent-enough view of the service's state. Counters are read
/// individually (relaxed), so a snapshot taken mid-flight may be off by the
/// requests currently being processed — fine for health checks, which is
/// all this is for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Should new traffic come here? False once draining begins.
    pub ready: bool,
    /// Graceful shutdown in progress (queued work still being served).
    pub draining: bool,
    /// Requests currently queued.
    pub queue_depth: usize,
    /// Circuit-breaker state as of the snapshot.
    pub breaker: BreakerState,
    /// Requests ever submitted (admitted or not).
    pub submitted: u64,
    /// Requests answered with a value.
    pub served: u64,
    /// Served answers that came from the fallback (any cause).
    pub degraded: u64,
    /// Requests rejected by admission control.
    pub rejected_overloaded: u64,
    /// Requests rejected because the service was draining.
    pub rejected_draining: u64,
    /// Requests refused because their encoding is no architecture's.
    /// Omitted from the wire form while 0, so snapshots of services that
    /// never saw one keep their bytes.
    pub rejected_malformed: u64,
    /// Requests whose deadline expired (at admission or in the queue).
    pub deadline_expired: u64,
    /// Coalesced batches processed.
    pub batches: u64,
    /// Deployment generation of the serving model (0 = the initially
    /// deployed model; bumps on every promotion *and* rollback). Stays 0
    /// when no adaptation layer is wired.
    pub model_generation: u64,
    /// Live samples ingested since the last model swap — the sample-count
    /// face of staleness. Stays 0 when no adaptation layer is wired.
    pub staleness_samples: u64,
    /// Service-clock time since the last model swap — the wall-clock face
    /// of staleness (virtual under a `VirtualClock`). Stays zero when no
    /// adaptation layer is wired.
    pub staleness_age: Duration,
    /// Per-device generation/staleness rollup when this snapshot aggregates
    /// a fleet. **Empty for single-device services** — and omitted from the
    /// wire form when empty, so existing snapshots stay byte-identical.
    pub fleet: Vec<DeviceGeneration>,
    /// Shared predictor-cache hits, merged over shards. Stays 0 (and
    /// serialization-invisible together with the other cache fields) for
    /// services without a predictor cache.
    pub cache_hits: u64,
    /// Shared predictor-cache misses, merged over shards.
    pub cache_misses: u64,
    /// Per-shard occupancy (cached values per shard, in shard order) of
    /// the shared predictor cache. **Empty for cacheless services** — and
    /// omitted from the wire form when empty alongside zero counters, so
    /// pre-cache snapshots stay byte-identical.
    pub cache_shards: Vec<u64>,
}

impl HealthSnapshot {
    /// Whether the service is answering from the fallback path (breaker
    /// not closed).
    pub fn is_degraded(&self) -> bool {
        self.breaker != BreakerState::Closed
    }

    /// Every submitted request is accounted for: answered, expired, or
    /// typed-rejected — the "nothing is ever silently dropped" invariant
    /// the chaos soak asserts. Only meaningful when nothing is in flight
    /// (queue empty, no worker mid-batch).
    pub fn fully_accounted(&self) -> bool {
        self.submitted
            == self.served
                + self.deadline_expired
                + self.rejected_overloaded
                + self.rejected_draining
                + self.rejected_malformed
    }

    /// Renders the snapshot as one flat JSON object (the `/healthz` wire
    /// form). The adaptation fields (`model_generation`,
    /// `staleness_samples`, `staleness_age_us`) are **omitted while at
    /// their defaults** — a service without the adaptation layer serializes
    /// byte-identically to releases that predate those fields, which the
    /// snapshot-shape test pins.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"ready\":{},\"draining\":{},\"queue_depth\":{},\"breaker\":\"{}\",\
             \"submitted\":{},\"served\":{},\"degraded\":{},\"rejected_overloaded\":{},\
             \"rejected_draining\":{},\"deadline_expired\":{},\"batches\":{}",
            self.ready,
            self.draining,
            self.queue_depth,
            self.breaker,
            self.submitted,
            self.served,
            self.degraded,
            self.rejected_overloaded,
            self.rejected_draining,
            self.deadline_expired,
            self.batches,
        );
        if self.rejected_malformed != 0 {
            let _ = write!(out, ",\"rejected_malformed\":{}", self.rejected_malformed);
        }
        if self.model_generation != 0
            || self.staleness_samples != 0
            || self.staleness_age != Duration::ZERO
        {
            let _ = write!(
                out,
                ",\"model_generation\":{},\"staleness_samples\":{},\"staleness_age_us\":{}",
                self.model_generation,
                self.staleness_samples,
                self.staleness_age.as_micros().min(u128::from(u64::MAX)),
            );
        }
        if !self.fleet.is_empty() {
            out.push_str(",\"fleet\":[");
            for (i, d) in self.fleet.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"device\":\"{}\",\"model_generation\":{},\"staleness_samples\":{}}}",
                    d.device, d.model_generation, d.staleness_samples,
                );
            }
            out.push(']');
        }
        if self.cache_hits != 0 || self.cache_misses != 0 || !self.cache_shards.is_empty() {
            let total = self.cache_hits + self.cache_misses;
            let rate = if total == 0 {
                0.0
            } else {
                self.cache_hits as f64 / total as f64
            };
            let _ = write!(
                out,
                ",\"cache_hits\":{},\"cache_misses\":{},\"cache_hit_rate\":{}",
                self.cache_hits, self.cache_misses, rate,
            );
            out.push_str(",\"cache_shards\":[");
            for (i, occupancy) in self.cache_shards.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{occupancy}");
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> HealthSnapshot {
        HealthSnapshot {
            ready: true,
            draining: false,
            queue_depth: 2,
            breaker: BreakerState::Closed,
            submitted: 10,
            served: 7,
            degraded: 1,
            rejected_overloaded: 2,
            rejected_draining: 0,
            rejected_malformed: 0,
            deadline_expired: 1,
            batches: 3,
            model_generation: 0,
            staleness_samples: 0,
            staleness_age: Duration::ZERO,
            fleet: Vec::new(),
            cache_hits: 0,
            cache_misses: 0,
            cache_shards: Vec::new(),
        }
    }

    #[test]
    fn non_adaptive_snapshot_serializes_to_the_legacy_shape() {
        // Pinned bytes: the exact wire form before the adaptation fields
        // existed. A service that never wires an adaptation layer must not
        // change shape.
        assert_eq!(
            base().to_json(),
            "{\"ready\":true,\"draining\":false,\"queue_depth\":2,\"breaker\":\"closed\",\
             \"submitted\":10,\"served\":7,\"degraded\":1,\"rejected_overloaded\":2,\
             \"rejected_draining\":0,\"deadline_expired\":1,\"batches\":3}"
        );
    }

    #[test]
    fn adaptive_snapshot_appends_the_staleness_fields() {
        let snap = HealthSnapshot {
            model_generation: 2,
            staleness_samples: 17,
            staleness_age: Duration::from_millis(250),
            ..base()
        };
        let json = snap.to_json();
        assert!(
            json.ends_with(
                ",\"model_generation\":2,\"staleness_samples\":17,\"staleness_age_us\":250000}"
            ),
            "{json}"
        );
    }

    #[test]
    fn staleness_alone_is_enough_to_surface_the_fields() {
        // Generation 0 but samples flowing: still an adaptive service.
        let snap = HealthSnapshot {
            staleness_samples: 5,
            ..base()
        };
        assert!(snap.to_json().contains("\"model_generation\":0"));
    }

    #[test]
    fn fleet_rollup_is_serialization_invisible_until_populated() {
        // Empty fleet: byte-identical to the single-device wire form.
        assert_eq!(base().to_json(), {
            let mut plain = base();
            plain.fleet = Vec::new();
            plain.to_json()
        });
        assert!(!base().to_json().contains("fleet"));
        let snap = HealthSnapshot {
            fleet: vec![
                DeviceGeneration {
                    device: "phone-a76".into(),
                    model_generation: 2,
                    staleness_samples: 40,
                },
                DeviceGeneration {
                    device: "server-gpu".into(),
                    model_generation: 0,
                    staleness_samples: 512,
                },
            ],
            ..base()
        };
        assert!(
            snap.to_json().ends_with(
                ",\"fleet\":[{\"device\":\"phone-a76\",\"model_generation\":2,\
                 \"staleness_samples\":40},{\"device\":\"server-gpu\",\
                 \"model_generation\":0,\"staleness_samples\":512}]}"
            ),
            "{}",
            snap.to_json()
        );
    }

    #[test]
    fn cache_block_is_serialization_invisible_until_populated() {
        // Cacheless service: byte-identical to the pre-cache wire form.
        assert!(!base().to_json().contains("cache"));
        let snap = HealthSnapshot {
            cache_hits: 90,
            cache_misses: 10,
            cache_shards: vec![3, 0, 4, 3],
            ..base()
        };
        assert!(
            snap.to_json().ends_with(
                ",\"cache_hits\":90,\"cache_misses\":10,\"cache_hit_rate\":0.9,\
                 \"cache_shards\":[3,0,4,3]}"
            ),
            "{}",
            snap.to_json()
        );
        // Counters without per-shard detail (or vice versa) still surface.
        let sparse = HealthSnapshot {
            cache_misses: 1,
            ..base()
        };
        assert!(
            sparse.to_json().contains("\"cache_hit_rate\":0"),
            "{}",
            sparse.to_json()
        );
    }

    #[test]
    fn accounting_invariant_matches_the_drain_report() {
        assert!(base().fully_accounted());
        let short = HealthSnapshot {
            served: 6,
            ..base()
        };
        assert!(!short.fully_accounted());
        let malformed = HealthSnapshot {
            submitted: 11,
            rejected_malformed: 1,
            ..base()
        };
        assert!(malformed.fully_accounted());
    }

    #[test]
    fn malformed_count_surfaces_only_when_nonzero() {
        let snap = HealthSnapshot {
            submitted: 12,
            rejected_malformed: 2,
            ..base()
        };
        let json = snap.to_json();
        assert!(
            json.ends_with(",\"batches\":3,\"rejected_malformed\":2}"),
            "{json}"
        );
        assert!(!base().to_json().contains("malformed"));
    }
}
