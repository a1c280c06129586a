//! Structured run manifests: a deterministic JSON record of what was
//! simulated, what it cost, and which resource was the bottleneck.
//!
//! A manifest captures everything needed to reproduce and audit a run:
//! the configuration (architecture, task, disk count, seed, and an
//! FNV-1a hash of the full config debug representation), the git
//! revision the binary was built from, per-phase elapsed/busy
//! breakdowns, the per-resource [`Attribution`] table, and — when the
//! run was instrumented — sampled utilization time-series and a trace
//! summary.
//!
//! Serialization is hand-rolled (the workspace vendors no JSON crate)
//! and **deterministic**: two runs of the same config and seed produce
//! byte-identical manifests, except for the optional `host` section
//! which carries wall-clock measurements and is `null` unless
//! explicitly attached via [`RunManifest::with_host`].

use std::fmt::Write as _;
use std::process::Command;

use arch::Architecture;
use simcore::state::fnv1a64;
use simcore::Duration;

use crate::metrics::{Attribution, RunMetrics};
use crate::mqexec::LoadReport;
use crate::report::Report;
use crate::trace::TraceSummary;

/// Manifest schema identifier, bumped on breaking layout changes.
pub const SCHEMA: &str = "howsim-manifest/v1";

/// Wall-clock facts about the machine that produced a manifest.
///
/// This is the only nondeterministic manifest section; everything else
/// is a pure function of the configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HostInfo {
    /// Milliseconds since the Unix epoch when the manifest was written.
    pub generated_unix_ms: u64,
    /// Wall-clock seconds the simulation took to execute.
    pub wall_seconds: f64,
    /// Simulator throughput: discrete events per wall-clock second.
    pub events_per_sec: f64,
}

impl HostInfo {
    /// Captures the current wall clock and derives throughput from a
    /// run's event count and measured duration.
    pub fn capture(events: u64, wall: std::time::Duration) -> Self {
        let wall_seconds = wall.as_secs_f64();
        HostInfo {
            generated_unix_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_millis() as u64),
            wall_seconds,
            events_per_sec: if wall_seconds > 0.0 {
                events as f64 / wall_seconds
            } else {
                0.0
            },
        }
    }
}

/// A structured, reproducible record of one simulation run.
///
/// # Example
///
/// ```
/// use arch::Architecture;
/// use howsim::{manifest::RunManifest, Simulation};
/// use tasks::TaskKind;
///
/// let arch = Architecture::smp(4);
/// let report = Simulation::new(arch.clone()).run(TaskKind::Select);
/// let json = RunManifest::new(&arch, &report).to_json();
/// assert!(json.contains("\"schema\": \"howsim-manifest/v1\""));
/// ```
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Architecture short name ("Active" / "Cluster" / "SMP").
    pub architecture: &'static str,
    /// Task name (paper spelling).
    pub task: &'static str,
    /// Number of disks (= processors).
    pub disks: usize,
    /// Run seed (provenance only; the simulator is deterministic).
    pub seed: u64,
    /// Human-readable fault-plan summary (`"none"` for healthy runs).
    pub faults: String,
    /// Recovery policy name in effect for the run.
    pub recovery: String,
    /// FNV-1a 64-bit hash of the config debug representation, hex.
    pub config_hash: String,
    /// Full config debug representation, for human auditing.
    pub config_repr: String,
    /// Short git revision the binary was built from, or "unknown".
    pub git_rev: String,
    /// Total simulated elapsed time.
    pub elapsed: Duration,
    /// Total discrete events processed.
    pub events: u64,
    /// Per-phase measurements (cloned from the report).
    pub phases: Vec<crate::report::PhaseReport>,
    /// Per-resource utilization rollup with bottleneck.
    pub attribution: Attribution,
    /// Sampled time-series, when the run was instrumented.
    pub metrics: Option<RunMetrics>,
    /// Trace totals, when the run was traced.
    pub trace: Option<TraceSummary>,
    /// Critical-path decomposition, when the run was profiled.
    pub critical_path: Option<crate::profile::CriticalPath>,
    /// Wall-clock facts; `None` keeps the manifest fully deterministic.
    pub host: Option<HostInfo>,
}

impl RunManifest {
    /// Builds a manifest from a configuration and its finished report.
    pub fn new(arch: &Architecture, report: &Report) -> Self {
        let config_repr = format!("{arch:?}");
        RunManifest {
            architecture: report.architecture,
            task: report.task,
            disks: report.disks,
            seed: 0,
            faults: "none".to_string(),
            recovery: crate::faults::RecoveryPolicy::default().name().to_string(),
            config_hash: format!("{:016x}", fnv1a64(config_repr.as_bytes())),
            config_repr,
            git_rev: git_revision(),
            elapsed: report.elapsed(),
            events: report.events,
            phases: report.phases.clone(),
            attribution: Attribution::from_report(report),
            metrics: None,
            trace: None,
            critical_path: None,
            host: None,
        }
    }

    /// Records the run seed (provenance; defaults to 0).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Records the fault plan and recovery policy the run executed under.
    pub fn with_faults(
        mut self,
        plan: &crate::faults::FaultPlan,
        policy: crate::faults::RecoveryPolicy,
    ) -> Self {
        self.faults = plan.summary();
        self.recovery = policy.name().to_string();
        self
    }

    /// Attaches sampled time-series from an instrumented run.
    pub fn with_metrics(mut self, metrics: RunMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches a trace summary.
    pub fn with_trace(mut self, trace: TraceSummary) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attaches a critical-path decomposition from a profiled run.
    pub fn with_critical_path(mut self, cp: crate::profile::CriticalPath) -> Self {
        self.critical_path = Some(cp);
        self
    }

    /// Attaches wall-clock host facts (makes the manifest
    /// nondeterministic; omit for regression comparisons).
    pub fn with_host(mut self, host: HostInfo) -> Self {
        self.host = Some(host);
        self
    }

    /// Serializes to deterministic, pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        kv_str(&mut out, 1, "schema", SCHEMA, true);
        out.push_str("  \"config\": {\n");
        kv_str(&mut out, 2, "architecture", self.architecture, true);
        kv_str(&mut out, 2, "task", self.task, true);
        kv_raw(&mut out, 2, "disks", &self.disks.to_string(), true);
        kv_raw(&mut out, 2, "seed", &self.seed.to_string(), true);
        kv_str(&mut out, 2, "faults", &self.faults, true);
        kv_str(&mut out, 2, "recovery", &self.recovery, true);
        kv_str(&mut out, 2, "hash", &self.config_hash, true);
        kv_str(&mut out, 2, "repr", &self.config_repr, false);
        out.push_str("  },\n");
        kv_str(&mut out, 1, "git_rev", &self.git_rev, true);
        out.push_str("  \"result\": {\n");
        kv_raw(
            &mut out,
            2,
            "elapsed_s",
            &format!("{:.9}", self.elapsed.as_secs_f64()),
            true,
        );
        kv_raw(&mut out, 2, "events", &self.events.to_string(), true);
        out.push_str("    \"phases\": [\n");
        for (ix, p) in self.phases.iter().enumerate() {
            out.push_str("      {");
            let _ = write!(
                out,
                "\"name\": {}, \"elapsed_s\": {:.9}, \"cpu_busy_s\": {:.9}, \
                 \"disk_busy_s\": {:.9}, \"idle_frac\": {:.6}, \
                 \"interconnect_bytes\": {}, \"frontend_bytes\": {}, \
                 \"utilization\": {{",
                json_string(p.name),
                p.elapsed.as_secs_f64(),
                p.cpu_busy_total.as_secs_f64(),
                p.disk_busy_total.as_secs_f64(),
                p.idle_fraction(),
                p.interconnect_bytes,
                p.frontend_bytes,
            );
            for (jx, u) in p.resources.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{}: {:.6}",
                    if jx > 0 { ", " } else { "" },
                    json_string(u.resource.key()),
                    u.utilization(p.elapsed)
                );
            }
            out.push_str("}}");
            out.push_str(if ix + 1 < self.phases.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("    ]\n  },\n");
        out.push_str("  \"attribution\": {\n");
        match self.attribution.bottleneck() {
            Some(b) => {
                kv_str(&mut out, 2, "bottleneck", b.resource.key(), true);
                kv_str(
                    &mut out,
                    2,
                    "bottleneck_label",
                    b.resource.label(self.architecture),
                    true,
                );
            }
            None => {
                kv_raw(&mut out, 2, "bottleneck", "null", true);
                kv_raw(&mut out, 2, "bottleneck_label", "null", true);
            }
        }
        out.push_str("    \"resources\": [\n");
        let n = self.attribution.resources.len();
        for (ix, r) in self.attribution.resources.iter().enumerate() {
            let _ = writeln!(
                out,
                "      {{\"resource\": {}, \"label\": {}, \"lanes\": {}, \
                 \"busy_s\": {:.9}, \"wait_s\": {:.9}, \
                 \"overall_utilization\": {:.6}, \
                 \"peak_utilization\": {:.6}, \"peak_phase\": {}}}{}",
                json_string(r.resource.key()),
                json_string(r.resource.label(self.architecture)),
                r.lanes,
                r.busy.as_secs_f64(),
                r.wait.as_secs_f64(),
                r.overall_utilization,
                r.peak_utilization,
                json_string(r.peak_phase),
                if ix + 1 < n { "," } else { "" },
            );
        }
        out.push_str("    ]\n  },\n");
        match &self.critical_path {
            Some(cp) => {
                let _ = write!(
                    out,
                    "  \"critical_path\": {{\"total_ns\": {}, \"resources\": [",
                    cp.total.as_nanos()
                );
                for (ix, seg) in cp.segments.iter().enumerate() {
                    let _ = write!(
                        out,
                        "{}{{\"resource\": {}, \"ns\": {}}}",
                        if ix > 0 { ", " } else { "" },
                        json_string(seg.resource),
                        seg.time.as_nanos()
                    );
                }
                out.push_str("]},\n");
            }
            None => out.push_str("  \"critical_path\": null,\n"),
        }
        match &self.trace {
            Some(t) => {
                let _ = writeln!(
                    out,
                    "  \"trace\": {{\"total\": {}, \"retained\": {}, \
                     \"dropped\": {}, \"truncated\": {}}},",
                    t.total, t.retained, t.dropped, t.truncated
                );
            }
            None => out.push_str("  \"trace\": null,\n"),
        }
        match &self.metrics {
            Some(m) => {
                out.push_str("  \"series\": {\n");
                kv_raw(
                    &mut out,
                    2,
                    "sample_interval_ns",
                    &m.sample_interval.as_nanos().to_string(),
                    true,
                );
                out.push_str("    \"utilization\": [\n");
                let nu = m.utilization.len();
                for (ix, (resource, lanes, series)) in m.utilization.iter().enumerate() {
                    let _ = write!(
                        out,
                        "      {{\"resource\": {}, \"lanes\": {}, ",
                        json_string(resource.key()),
                        lanes
                    );
                    write_series(&mut out, series);
                    out.push('}');
                    out.push_str(if ix + 1 < nu { ",\n" } else { "\n" });
                }
                out.push_str("    ],\n");
                out.push_str("    \"queue_depth\": {");
                write_series(&mut out, &m.queue_depth);
                out.push_str("}\n  },\n");
            }
            None => out.push_str("  \"series\": null,\n"),
        }
        match &self.host {
            Some(h) => {
                let _ = writeln!(
                    out,
                    "  \"host\": {{\"generated_unix_ms\": {}, \
                     \"wall_seconds\": {:.6}, \"events_per_sec\": {:.1}}}",
                    h.generated_unix_ms, h.wall_seconds, h.events_per_sec
                );
            }
            None => out.push_str("  \"host\": null\n"),
        }
        out.push_str("}\n");
        out
    }
}

/// Writes the body of a series object: truncation facts and samples as
/// `[t_ns, value]` pairs.
fn write_series(out: &mut String, series: &simcore::GaugeSeries) {
    let _ = write!(
        out,
        "\"truncated\": {}, \"dropped\": {}, \"samples\": [",
        series.truncated(),
        series.dropped()
    );
    for (ix, (t, v)) in series.samples().iter().enumerate() {
        let _ = write!(
            out,
            "{}[{}, {:.6}]",
            if ix > 0 { ", " } else { "" },
            t.as_nanos(),
            v
        );
    }
    out.push(']');
}

/// Writes `"key": "value"` at `indent` levels (2 spaces each).
fn kv_str(out: &mut String, indent: usize, key: &str, value: &str, comma: bool) {
    let _ = writeln!(
        out,
        "{}{}: {}{}",
        "  ".repeat(indent),
        json_string(key),
        json_string(value),
        if comma { "," } else { "" }
    );
}

/// Writes `"key": value` (raw, unquoted value) at `indent` levels.
fn kv_raw(out: &mut String, indent: usize, key: &str, value: &str, comma: bool) {
    let _ = writeln!(
        out,
        "{}{}: {}{}",
        "  ".repeat(indent),
        json_string(key),
        value,
        if comma { "," } else { "" }
    );
}

/// Quotes and escapes a string for JSON.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Load-manifest schema identifier (the loaded-run counterpart of
/// [`SCHEMA`]), bumped on breaking layout changes.
pub const LOAD_SCHEMA: &str = "howsim-load-manifest/v1";

/// Serializes a loaded run as deterministic JSON: config, aggregate load
/// statistics (percentiles, goodput, shed/timeout/retry counts), and the
/// per-query outcome table. No host section — the bytes are a pure
/// function of the report, so CI can diff them across worker counts and
/// queue backends.
pub fn load_manifest_json(report: &LoadReport, seed: u64, faults: &str, recovery: &str) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    kv_str(&mut out, 1, "schema", LOAD_SCHEMA, true);
    out.push_str("  \"config\": {\n");
    kv_str(&mut out, 2, "architecture", report.architecture, true);
    kv_raw(&mut out, 2, "disks", &report.disks.to_string(), true);
    kv_str(&mut out, 2, "workload", &report.workload, true);
    kv_str(&mut out, 2, "admission", &report.admission, true);
    kv_str(&mut out, 2, "deadline", &report.deadline, true);
    kv_raw(&mut out, 2, "seed", &seed.to_string(), true);
    kv_str(&mut out, 2, "faults", faults, true);
    kv_str(&mut out, 2, "recovery", recovery, false);
    out.push_str("  },\n");
    out.push_str("  \"load\": {\n");
    kv_raw(
        &mut out,
        2,
        "queries",
        &report.outcomes.len().to_string(),
        true,
    );
    kv_raw(
        &mut out,
        2,
        "completed",
        &report.completed().to_string(),
        true,
    );
    kv_raw(&mut out, 2, "shed", &report.shed().to_string(), true);
    kv_raw(
        &mut out,
        2,
        "timed_out",
        &report.timed_out().to_string(),
        true,
    );
    kv_raw(&mut out, 2, "aborted", &report.aborted().to_string(), true);
    kv_raw(&mut out, 2, "retries", &report.retries().to_string(), true);
    kv_raw(
        &mut out,
        2,
        "timeouts",
        &report.timeouts().to_string(),
        true,
    );
    for (key, p) in [("p50_ns", 50.0), ("p95_ns", 95.0), ("p99_ns", 99.0)] {
        let v = report
            .latency_percentile(p)
            .map_or("null".to_string(), |d| d.as_nanos().to_string());
        kv_raw(&mut out, 2, key, &v, true);
    }
    kv_raw(
        &mut out,
        2,
        "goodput_qps",
        &format!("{:.6}", report.goodput_qps()),
        true,
    );
    kv_raw(
        &mut out,
        2,
        "elapsed_ns",
        &report.elapsed.as_nanos().to_string(),
        true,
    );
    kv_raw(&mut out, 2, "events", &report.events.to_string(), true);
    kv_raw(
        &mut out,
        2,
        "faults_injected",
        &report.faults_injected.to_string(),
        true,
    );
    kv_raw(
        &mut out,
        2,
        "work_redistributed",
        &report.work_redistributed.to_string(),
        true,
    );
    kv_raw(
        &mut out,
        2,
        "downtime_ns",
        &report.downtime.as_nanos().to_string(),
        false,
    );
    out.push_str("  },\n");
    out.push_str("  \"queries\": [\n");
    let n = report.outcomes.len();
    for (ix, o) in report.outcomes.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"query\": {}, \"task\": {}, \"status\": {}, \
             \"arrival_ns\": {}, \"started_ns\": {}, \"finished_ns\": {}, \
             \"latency_ns\": {}, \"retries\": {}, \"timeouts\": {}, \
             \"events\": {}, \"phases\": [",
            o.query,
            json_string(o.task.name()),
            json_string(o.status.name()),
            o.arrival.as_nanos(),
            o.started
                .map_or("null".to_string(), |t| t.as_nanos().to_string()),
            o.finished.as_nanos(),
            o.latency().as_nanos(),
            o.retries,
            o.timeouts,
            o.events,
        );
        for (jx, ph) in o.phases.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\": {}, \"elapsed_ns\": {}}}",
                if jx > 0 { ", " } else { "" },
                json_string(ph.name),
                ph.elapsed.as_nanos()
            );
        }
        out.push_str("]}");
        out.push_str(if ix + 1 < n { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The repository's short git revision, or `"unknown"` outside a
/// checkout (or without git on PATH).
pub fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Simulation;
    use tasks::TaskKind;

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn manifest_json_is_deterministic_and_structured() {
        let arch = Architecture::smp(4);
        let r1 = Simulation::new(arch.clone()).run(TaskKind::Select);
        let r2 = Simulation::new(arch.clone()).run(TaskKind::Select);
        let m1 = RunManifest::new(&arch, &r1).to_json();
        let m2 = RunManifest::new(&arch, &r2).to_json();
        assert_eq!(m1, m2, "same config + seed must yield identical bytes");
        assert!(m1.contains("\"schema\": \"howsim-manifest/v1\""));
        assert!(m1.contains("\"architecture\": \"SMP\""));
        assert!(m1.contains("\"bottleneck\": \""));
        assert!(m1.contains("\"host\": null"));
        assert!(m1.contains("\"series\": null"));
    }

    #[test]
    fn host_and_trace_sections_render_when_attached() {
        let arch = Architecture::active_disks(2);
        let report = Simulation::new(arch.clone()).run(TaskKind::Select);
        let plan = tasks::plan_task(TaskKind::Select, &arch);
        let mut trace = crate::trace::Trace::new();
        Simulation::new(arch.clone()).run_plan_observed(&plan, Some(&mut trace), None, false);
        let json = RunManifest::new(&arch, &report)
            .with_seed(7)
            .with_trace(trace.summary())
            .with_host(HostInfo {
                generated_unix_ms: 1_700_000_000_000,
                wall_seconds: 0.5,
                events_per_sec: 1e6,
            })
            .to_json();
        assert!(json.contains("\"seed\": 7"));
        assert!(json.contains("\"trace\": {\"total\":"));
        assert!(json.contains("\"generated_unix_ms\": 1700000000000"));
    }

    #[test]
    fn config_hash_distinguishes_configs() {
        let a = Architecture::smp(4);
        let b = Architecture::smp(8);
        let ra = Simulation::new(a.clone()).run(TaskKind::Select);
        let rb = Simulation::new(b.clone()).run(TaskKind::Select);
        let ma = RunManifest::new(&a, &ra);
        let mb = RunManifest::new(&b, &rb);
        assert_ne!(ma.config_hash, mb.config_hash);
    }
}
