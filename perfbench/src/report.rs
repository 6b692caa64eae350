//! The line protocol between a repetition's child process and the parent.
//!
//! A child prints one fact per line on stdout:
//!
//! ```text
//! m <metric> <value>          a measured value
//! gate <name> <0|1> <detail>  a correctness check
//! count <attempted> <failed>  operations attempted and failed
//! fp <hex>                    fingerprint of the derived outputs
//! info <text>                 a human-readable note, passed through
//! ```
//!
//! The parent aggregates repetitions and prints the final JSON result.

use std::fmt::Write as _;

use crate::stats;
use crate::trace::Breakdown;

/// Everything one repetition reports.
#[derive(Debug, Default, Clone)]
pub struct Report {
    /// `(metric, value)` in report order.
    pub metrics: Vec<(String, f64)>,
    /// `(gate, passed, detail)`.
    pub gates: Vec<(String, bool, String)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output fingerprints.
    pub fingerprints: Vec<String>,
    /// Free-form notes.
    pub info: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Records a correctness check.
    pub fn gate(&mut self, name: &str, pass: bool, detail: impl Into<String>) {
        self.gates.push((name.to_string(), pass, detail.into()));
    }

    /// Adds to the operation counts.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a note.
    pub fn info(&mut self, text: impl Into<String>) {
        self.info.push(text.into());
    }

    /// Records the work done: `units` completed in `wall_s` seconds.
    pub fn work(&mut self, units: f64, wall_s: f64) {
        self.metric("work_per_s", units / wall_s);
    }

    /// Records the median unit-of-work latency (µs) as `op_p50_us`, and
    /// notes it with the tail's percentile, value and sample count.
    pub fn op_latencies(&mut self, what: &str, samples_us: &[f64]) {
        let (p50, tail) = (stats::median(samples_us), stats::tail(samples_us));
        self.metric("op_p50_us", p50);
        self.info(format!(
            "op = {what}: p50 {p50:.1} us, p{} {:.1} us over {} samples",
            tail.percentile, tail.value, tail.samples
        ));
    }

    /// Records a traced repetition's stage breakdown as notes.
    pub fn stages(&mut self, b: &Breakdown) {
        let mut line = format!("stages (s, sum {:.6} = wall {:.6}):", b.total_s(), b.wall_s);
        for (name, s) in &b.stages {
            let _ = write!(line, " {name}={s:.6}");
        }
        let _ = write!(line, " other={:.6}", b.other_s);
        self.info(line);
    }

    /// Serializes into the line protocol.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.metrics {
            let _ = writeln!(out, "m {k} {v}");
        }
        for (k, pass, detail) in &self.gates {
            let _ = writeln!(out, "gate {k} {} {detail}", u8::from(*pass));
        }
        let _ = writeln!(out, "count {} {}", self.attempted, self.failed);
        for f in &self.fingerprints {
            let _ = writeln!(out, "fp {f}");
        }
        for i in &self.info {
            let _ = writeln!(out, "info {i}");
        }
        out
    }

    /// Parses the line protocol; unknown lines are ignored.
    pub fn from_lines(text: &str) -> Self {
        let mut r = Report::default();
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            match tag {
                "m" => {
                    if let Some((k, v)) = rest.split_once(' ') {
                        if let Ok(v) = v.trim().parse::<f64>() {
                            r.metric(k, v);
                        }
                    }
                }
                "gate" => {
                    let mut it = rest.splitn(3, ' ');
                    let (k, p, d) = (it.next(), it.next(), it.next());
                    if let (Some(k), Some(p)) = (k, p) {
                        r.gate(k, p == "1", d.unwrap_or(""));
                    }
                }
                "count" => {
                    let mut it = rest.split(' ').map(|x| x.parse::<u64>().unwrap_or(0));
                    r.count(it.next().unwrap_or(0), it.next().unwrap_or(0));
                }
                "fp" => r.fingerprints.push(rest.to_string()),
                "info" => r.info(rest),
                _ => {}
            }
        }
        r
    }

    /// The value of `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }
}

/// FNV-1a over `bytes`, as 16 hex digits.
pub fn fingerprint(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_protocol_round_trips() {
        let mut r = Report::default();
        r.metric("work_per_s", 12.5);
        r.metric("op_p50_us", f64::INFINITY);
        r.gate("audit", true, "well formed");
        r.gate("bits", false, "3 of 256 differ");
        r.count(10, 1);
        r.fingerprints.push("00ff".into());
        r.info("hello world");
        let back = Report::from_lines(&r.to_lines());
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(back.gates, r.gates);
        assert_eq!((back.attempted, back.failed), (10, 1));
        assert_eq!(back.fingerprints, r.fingerprints);
        assert_eq!(back.info, r.info);
    }
}
