//! Typed rejection: the service never drops a request silently — every
//! request either gets an answer or one of these errors, and the chaos soak
//! asserts exactly that accounting.

use std::fmt;
use std::time::Duration;

use lightnas_predictor::DecodeError;

/// Why the service refused (or failed) a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control turned the request away: the queue already held
    /// `depth` requests against this priority's watermark of `limit`.
    /// Back off and retry — nothing about the request itself is wrong.
    Overloaded {
        /// Queue depth observed at admission.
        depth: usize,
        /// The watermark the request's priority is admitted under.
        limit: usize,
    },
    /// The request's deadline expired — at admission (already past due) or
    /// while it waited in the queue.
    Deadline {
        /// The absolute deadline, in service-clock time.
        deadline: Duration,
        /// The service-clock time at which expiry was observed.
        now: Duration,
    },
    /// The service is draining for shutdown and admits nothing new.
    /// Everything admitted *before* the drain began still gets served.
    Draining,
    /// The request's encoding is no architecture's: it failed
    /// `parse_encoding` before admission and never reaches a batch.
    Malformed(DecodeError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { depth, limit } => {
                write!(f, "overloaded: queue depth {depth} at watermark {limit}")
            }
            ServeError::Deadline { deadline, now } => write!(
                f,
                "deadline expired: due at {:.3}ms, observed at {:.3}ms",
                deadline.as_secs_f64() * 1e3,
                now.as_secs_f64() * 1e3
            ),
            ServeError::Draining => write!(f, "service is draining"),
            ServeError::Malformed(e) => write!(f, "malformed encoding: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    /// Short machine-readable tag for telemetry lines.
    pub fn tag(&self) -> &'static str {
        match self {
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::Deadline { .. } => "deadline",
            ServeError::Draining => "draining",
            ServeError::Malformed(_) => "malformed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_evidence() {
        let e = ServeError::Overloaded {
            depth: 64,
            limit: 48,
        };
        assert!(e.to_string().contains("64"));
        assert!(e.to_string().contains("48"));
        assert_eq!(e.tag(), "overloaded");
        let d = ServeError::Deadline {
            deadline: Duration::from_millis(5),
            now: Duration::from_millis(9),
        };
        assert!(d.to_string().contains("5.000ms"), "{d}");
        assert_eq!(ServeError::Draining.tag(), "draining");
        let m = ServeError::Malformed(DecodeError::Length(3));
        assert_eq!(m.tag(), "malformed");
        assert!(m.to_string().contains("got 3"), "{m}");
    }
}
