//! Golden digests of simulated outputs.
//!
//! A digest is the FNV-1a hash of a canonical text that the benchmark
//! writes itself from public fields. It deliberately uses none of the
//! program's own codecs, so a change to the cache or checkpoint formats
//! cannot change a digest, while a change to any simulated value does.
//! The executor's `events` counters are left out: they count work the
//! simulator did, not what it simulated, and a leaner executor may
//! legitimately change them.

use std::fmt::Write as _;

use howsim::metrics::ResourceUsage;
use howsim::{
    CriticalPath, LoadReport, PathSegment, PhaseReport, QueryOutcome, QueryPhase, Report,
};

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The digest of a text output (figure CSVs, Chrome traces).
pub fn of_text(text: &str) -> u64 {
    fnv1a(text.as_bytes())
}

/// The digest of a solo report.
pub fn of_report(r: &Report) -> u64 {
    of_text(&report_text(r))
}

/// The digest of a loaded-run report.
pub fn of_load_report(r: &LoadReport) -> u64 {
    of_text(&load_report_text(r))
}

/// The digest of a critical-path decomposition.
pub fn of_critical_path(cp: &CriticalPath) -> u64 {
    let mut out = format!("critical_path total_ns={}\n", cp.total.as_nanos());
    for PathSegment { resource, time } in &cp.segments {
        let _ = writeln!(out, "segment {resource} {}", time.as_nanos());
    }
    of_text(&out)
}

/// Canonical text of every [`Report`] field except `events`. The
/// destructuring is exhaustive so that a new field fails to compile here
/// instead of silently escaping the digest.
pub fn report_text(r: &Report) -> String {
    let Report {
        task,
        architecture,
        disks,
        phases,
        disk_service,
        events: _,
        faults_injected,
        recovery_time,
        work_redistributed,
        aborted,
        downtime,
    } = r;
    let mut out = String::with_capacity(1024);
    let _ = writeln!(
        out,
        "report task={task} arch={architecture} disks={disks} faults_injected={faults_injected} \
         recovery_ns={} work_redistributed={work_redistributed} aborted={aborted} downtime_ns={}",
        recovery_time.as_nanos(),
        downtime.as_nanos()
    );
    let _ = write!(
        out,
        "disk_service total_ns={} max_ns={} buckets=",
        disk_service.total().as_nanos(),
        disk_service.max().as_nanos()
    );
    for c in disk_service.bucket_counts() {
        let _ = write!(out, "{c},");
    }
    out.push('\n');
    for p in phases {
        phase_text(&mut out, p);
    }
    out
}

fn phase_text(out: &mut String, p: &PhaseReport) {
    let PhaseReport {
        name,
        elapsed,
        cpu_busy_by_tag,
        cpu_busy_total,
        disk_busy_total,
        interconnect_bytes,
        frontend_bytes,
        nodes,
        resources,
    } = p;
    let _ = writeln!(
        out,
        "phase name={name} elapsed_ns={} cpu_busy_ns={} disk_busy_ns={} \
         interconnect_bytes={interconnect_bytes} frontend_bytes={frontend_bytes} nodes={nodes}",
        elapsed.as_nanos(),
        cpu_busy_total.as_nanos(),
        disk_busy_total.as_nanos(),
    );
    for (tag, busy) in cpu_busy_by_tag {
        let _ = writeln!(out, "  tag {tag} {}", busy.as_nanos());
    }
    for ResourceUsage {
        resource,
        busy,
        wait,
        lanes,
    } in resources
    {
        let _ = writeln!(
            out,
            "  res {} busy_ns={} wait_ns={} lanes={lanes}",
            resource.key(),
            busy.as_nanos(),
            wait.as_nanos()
        );
    }
}

/// Canonical text of every [`LoadReport`] field except the `events`
/// counters (the run's and each query's).
pub fn load_report_text(r: &LoadReport) -> String {
    let LoadReport {
        architecture,
        disks,
        workload,
        admission,
        deadline,
        outcomes,
        elapsed,
        events: _,
        faults_injected,
        work_redistributed,
        downtime,
    } = r;
    let mut out = String::with_capacity(256 + 128 * outcomes.len());
    let _ = writeln!(
        out,
        "load arch={architecture} disks={disks} workload={workload} admission={admission} \
         deadline={deadline} elapsed_ns={} faults_injected={faults_injected} \
         work_redistributed={work_redistributed} downtime_ns={}",
        elapsed.as_nanos(),
        downtime.as_nanos()
    );
    for o in outcomes {
        let QueryOutcome {
            query,
            task,
            arrival,
            started,
            finished,
            status,
            retries,
            timeouts,
            phases,
            events: _,
        } = o;
        let _ = write!(
            out,
            "query {query} task={} arrival_ns={} started_ns={} finished_ns={} status={} \
             retries={retries} timeouts={timeouts} phases=",
            task.name(),
            arrival.as_nanos(),
            started.map_or_else(|| "-".to_string(), |t| t.as_nanos().to_string()),
            finished.as_nanos(),
            status.name(),
        );
        for QueryPhase { name, elapsed } in phases {
            let _ = write!(out, "{name}:{},", elapsed.as_nanos());
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch::Architecture;
    use howsim::{AdmissionPolicy, DeadlinePolicy, QueryStatus, Simulation, WorkloadSpec};
    use simcore::Duration;
    use tasks::TaskKind;

    fn sample_report() -> Report {
        Simulation::new(Architecture::cluster(4)).run(TaskKind::Sort)
    }

    /// A named mutation of one field.
    type Edit<T> = (&'static str, fn(&mut T));

    /// Every mutation of a simulated field must change the digest.
    fn assert_flips<T: Clone>(base: &T, digest: fn(&T) -> u64, edits: &[Edit<T>]) {
        let d0 = digest(base);
        for (what, edit) in edits {
            let mut changed = base.clone();
            edit(&mut changed);
            assert_ne!(digest(&changed), d0, "digest ignores {what}");
        }
    }

    #[test]
    fn report_digest_excludes_events() {
        let r = sample_report();
        let mut more = r.clone();
        more.events += 12_345;
        assert_eq!(of_report(&r), of_report(&more));
    }

    #[test]
    fn report_digest_flips_on_every_simulated_field() {
        let r = sample_report();
        assert!(!r.phases[0].cpu_busy_by_tag.is_empty());
        assert!(!r.phases[0].resources.is_empty());
        assert_flips(
            &r,
            of_report,
            &[
                ("task", |r| r.task = "join"),
                ("architecture", |r| r.architecture = "SMP"),
                ("disks", |r| r.disks += 1),
                ("phase count", |r| {
                    r.phases.pop();
                }),
                ("phase name", |r| r.phases[0].name = "other"),
                ("phase elapsed", |r| {
                    r.phases[0].elapsed += Duration::from_nanos(1)
                }),
                ("phase cpu tags", |r| {
                    let (_, busy) = r.phases[0].cpu_busy_by_tag.iter_mut().next().unwrap();
                    *busy += Duration::from_nanos(1);
                }),
                ("phase cpu total", |r| {
                    r.phases[0].cpu_busy_total += Duration::from_nanos(1)
                }),
                ("phase disk total", |r| {
                    r.phases[0].disk_busy_total += Duration::from_nanos(1)
                }),
                ("phase interconnect", |r| {
                    r.phases[0].interconnect_bytes += 1
                }),
                ("phase frontend", |r| r.phases[0].frontend_bytes += 1),
                ("phase nodes", |r| r.phases[0].nodes += 1),
                ("resource busy", |r| {
                    r.phases[0].resources[0].busy += Duration::from_nanos(1)
                }),
                ("resource wait", |r| {
                    r.phases[0].resources[0].wait += Duration::from_nanos(1)
                }),
                ("resource lanes", |r| r.phases[0].resources[0].lanes += 1),
                ("disk service", |r| {
                    r.disk_service.record(Duration::from_micros(3))
                }),
                ("faults injected", |r| r.faults_injected += 1),
                ("recovery time", |r| {
                    r.recovery_time += Duration::from_nanos(1)
                }),
                ("work redistributed", |r| r.work_redistributed += 1),
                ("aborted", |r| r.aborted = !r.aborted),
                ("downtime", |r| r.downtime += Duration::from_nanos(1)),
            ],
        );
    }

    fn sample_load_report() -> LoadReport {
        let spec = WorkloadSpec::closed(2, 3)
            .with_mix(vec![(TaskKind::Select, 1), (TaskKind::Aggregate, 1)])
            .with_seed(3);
        Simulation::new(Architecture::active_disks(4)).run_workload(
            &spec,
            AdmissionPolicy::default(),
            DeadlinePolicy::default(),
        )
    }

    #[test]
    fn load_digest_excludes_events() {
        let r = sample_load_report();
        let mut more = r.clone();
        more.events += 7;
        more.outcomes[0].events += 7;
        assert_eq!(of_load_report(&r), of_load_report(&more));
    }

    #[test]
    fn load_digest_flips_on_every_simulated_field() {
        let r = sample_load_report();
        assert!(!r.outcomes[0].phases.is_empty());
        assert_flips(
            &r,
            of_load_report,
            &[
                ("architecture", |r| r.architecture = "SMP"),
                ("disks", |r| r.disks += 1),
                ("workload", |r| r.workload.push('x')),
                ("admission", |r| r.admission.push('x')),
                ("deadline", |r| r.deadline.push('x')),
                ("elapsed", |r| r.elapsed += Duration::from_nanos(1)),
                ("faults", |r| r.faults_injected += 1),
                ("redistributed", |r| r.work_redistributed += 1),
                ("downtime", |r| r.downtime += Duration::from_nanos(1)),
                ("outcome count", |r| {
                    r.outcomes.pop();
                }),
                ("query id", |r| r.outcomes[0].query += 1),
                ("query task", |r| r.outcomes[0].task = TaskKind::Join),
                ("arrival", |r| {
                    r.outcomes[0].arrival += Duration::from_nanos(1)
                }),
                ("started", |r| r.outcomes[0].started = None),
                ("finished", |r| {
                    r.outcomes[0].finished += Duration::from_nanos(1)
                }),
                ("status", |r| r.outcomes[0].status = QueryStatus::Shed),
                ("retries", |r| r.outcomes[0].retries += 1),
                ("timeouts", |r| r.outcomes[0].timeouts += 1),
                ("query phase name", |r| {
                    r.outcomes[0].phases[0].name = "other"
                }),
                ("query phase elapsed", |r| {
                    r.outcomes[0].phases[0].elapsed += Duration::from_nanos(1)
                }),
            ],
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
