//! Outside-in recording of the benchmark's calls into the simulator.
//!
//! Every op — one call into a layer's public API — goes through
//! [`Recorder::op`], which times the call alone, catches a panic, and
//! keeps the digest of the output for the golden check. Sub-steps that
//! per-layer metrics need (a fork, a codec write) are timed with
//! [`timed`] and summed into named counters with [`Recorder::add`]. With
//! tracing on, each op is also kept as a span for the trace file. With a
//! [`Gauge`], each op also carries the host speed around it. The program
//! itself is not instrumented.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::gauge::Gauge;

/// One timed op.
#[derive(Debug, Clone)]
pub struct Op {
    /// What was called on which input, e.g. `cluster-64-join`.
    pub label: String,
    /// Host nanoseconds the call took.
    pub ns: u64,
    /// The mean of the gauge samples right before and right after the
    /// call, in host nanoseconds (0 without a gauge).
    pub gauge_ns: u64,
    /// Simulated events the call processed (0 when the layer does not
    /// report them).
    pub events: u64,
    /// Digest of the output ([`crate::digest`]).
    pub digest: u64,
    /// Whether the call panicked or a check on its output failed.
    pub failed: bool,
}

/// An op as a span on the benchmark's own timeline.
#[derive(Debug, Clone)]
pub struct Span {
    /// The workload the op belongs to.
    pub workload: &'static str,
    /// The layer whose public function was called, e.g. `howsim.exec`.
    pub layer: &'static str,
    /// Its label.
    pub label: String,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Runs `f` and returns its result with the host nanoseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

/// Collects ops, failures and per-layer counters.
pub struct Recorder {
    origin: Instant,
    /// The workload currently recording (stamped on spans).
    pub workload: &'static str,
    /// Ops since the last [`Recorder::take_ops`].
    ops: Vec<Op>,
    /// Human-readable descriptions of every failure.
    pub failures: Vec<String>,
    /// Per-layer counters, by metric name.
    pub sums: BTreeMap<&'static str, f64>,
    /// Spans of every op, when tracing.
    pub spans: Option<Vec<Span>>,
    /// Samples the host speed around every op, when set.
    pub gauge: Option<Gauge>,
}

impl Recorder {
    /// A recorder; `trace` keeps a span per op.
    pub fn new(trace: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            workload: "",
            ops: Vec::new(),
            failures: Vec::new(),
            sums: BTreeMap::new(),
            spans: trace.then(Vec::new),
            gauge: None,
        }
    }

    /// Times `call`, then derives `(digest, events)` from its output with
    /// `out` (untimed). A panic in either is recorded as a failed op and
    /// yields `None`.
    pub fn op<T>(
        &mut self,
        layer: &'static str,
        label: impl Into<String>,
        call: impl FnOnce() -> T,
        out: impl FnOnce(&T) -> (u64, u64),
    ) -> Option<T> {
        let label = label.into();
        let before = self.gauge.as_mut().map(Gauge::last_or_sample);
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(call));
        let ns = start.elapsed().as_nanos() as u64;
        let gauge_ns = match (before, self.gauge.as_mut()) {
            (Some(before), Some(g)) => (before + g.sample()) / 2,
            _ => 0,
        };
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                workload: self.workload,
                layer,
                label: label.clone(),
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                dur_ns: ns,
            });
        }
        let summary = result
            .as_ref()
            .ok()
            .and_then(|v| catch_unwind(AssertUnwindSafe(|| out(v))).ok());
        let failed = summary.is_none();
        if failed {
            self.failures.push(format!("{label}: panicked"));
        }
        let (digest, events) = summary.unwrap_or((0, 0));
        self.ops.push(Op {
            label,
            ns,
            gauge_ns,
            events,
            digest,
            failed,
        });
        result.ok()
    }

    /// Marks the most recent op failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        if ok {
            return;
        }
        let op = self.ops.last_mut().expect("a check follows an op");
        op.failed = true;
        self.failures.push(format!("{}: {what}", op.label));
    }

    /// Adds `value` to the counter `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }

    /// The counter `name` (0 when never added to).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// The most recent op.
    pub fn last(&self) -> &Op {
        self.ops.last().expect("an op was recorded")
    }

    /// Removes and returns the ops recorded so far.
    pub fn take_ops(&mut self) -> Vec<Op> {
        std::mem::take(&mut self.ops)
    }

    /// Compares ops against expected `(label, digest)` pairs in order and
    /// marks every op that differs failed.
    pub fn verify(ops: &mut [Op], expected: &[(String, u64)], failures: &mut Vec<String>) {
        for (i, op) in ops.iter_mut().enumerate() {
            match expected.get(i) {
                Some((label, digest)) if *label == op.label && *digest == op.digest => {}
                Some((label, digest)) => {
                    op.failed = true;
                    failures.push(format!(
                        "op {i} {}: digest {:016x}, expected {label} {digest:016x}",
                        op.label, op.digest
                    ));
                }
                None => {
                    op.failed = true;
                    failures.push(format!("op {i} {}: not in the expected list", op.label));
                }
            }
        }
    }
}
