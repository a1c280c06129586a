//! The `howsim` command-line simulator.
//!
//! ```text
//! howsim --arch active --disks 64 --task sort
//! howsim --arch smp --disks 128 --task select --interconnect 400
//! howsim --arch active --disks 32 --task join --memory 64 --no-direct
//! howsim --arch active --disks 256 --task sort --fibre-switch --trace trace.csv
//! howsim explain --arch cluster --disks 64 --task join
//! howsim profile --arch cluster --disks 64 --task join
//! howsim checkpoint --arch cluster --disks 64 --task join --at 10s --out join.ckpt
//! howsim --arch cluster --disks 64 --task join --resume-from join.ckpt
//! howsim --arch cluster --disks 64 --task join --metrics-out run.json
//! howsim --arch cluster --disks 64 --task join --trace-events trace.json
//! ```
//!
//! Prints the report (total and per-phase breakdown). The `explain`
//! subcommand prints the per-resource utilization table (with the
//! wait-vs-service split) and names the bottleneck and critical-path
//! resource instead; `profile` prints the causal critical-path
//! decomposition, the wait/service table, and the longest spans.
//! `--trace FILE` writes the event trace as CSV, `--trace-out FILE` as
//! JSONL (summary line first), `--metrics-out FILE` writes a structured
//! run manifest with sampled utilization time-series, and
//! `--trace-events FILE` writes the causal spans as Chrome trace-event
//! JSON (load it in `chrome://tracing` or <https://ui.perfetto.dev>).
//!
//! `--cache` consults and populates the on-disk result cache under
//! `results/.simcache/` (wipe by deleting the directory); `--no-cache`
//! skips even the in-process cache. Traced, instrumented, and profiled
//! runs always simulate — only the plain report path is cached — and a
//! cached report is byte-identical to a fresh one.
//!
//! The `checkpoint` subcommand pauses a single-task run at an event
//! boundary (`--at <dur>`) and writes the full simulation state to
//! `--out <file>`; `--resume-from <file>` finishes such a run from the
//! saved boundary — under any `--queue` backend — producing a report
//! field-identical to simulating from scratch. A corrupt, truncated, or
//! mismatched checkpoint is a warning plus a scratch run, never a panic.
//!
//! `--load <spec>` switches to the loaded multi-query executor: many
//! queries drawn from `--mix` interleave on one shared machine under
//! admission control (`--admission <concurrent>:<queue>`) and optional
//! per-query deadlines with retry/backoff (`--deadline <dur>[:<retries>:<backoff>]`).
//! Prints per-query outcomes plus p50/p95/p99 latency and goodput;
//! `--metrics-out` writes the load manifest JSON and `--trace-events`
//! writes a Chrome trace with one pid lane per query.
//!
//! ```text
//! howsim --arch active --disks 64 --load poisson:0.2:16@7 --mix select:1,sort:1 \
//!        --admission 4:16 --deadline 120s:1:5s
//! ```

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;

use arch::Architecture;
use howsim::faults::{FaultKind, FaultPlan, RecoveryPolicy};
use howsim::manifest::{HostInfo, RunManifest};
use howsim::profile::CriticalPath;
use howsim::{
    AdmissionPolicy, Attribution, DeadlinePolicy, LoadReport, MetricsBuilder, Simulation,
    SpanTrace, Trace, WorkloadSpec,
};
use simcore::span::FRONT_END_NODE;
use simcore::{Bandwidth, QueueBackend};
use tasks::TaskKind;

/// `println!` for stdout output. A reader that has closed the pipe (as
/// `head` does) ends the program quietly with exit status 0 instead of a
/// "failed printing to stdout" panic.
macro_rules! outln {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout; see [`outln!`].
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// Spans printed by the `profile` subcommand's longest-spans table.
const PROFILE_TOP_K: usize = 10;

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    explain: bool,
    profile: bool,
    checkpoint: bool,
    at: Option<simcore::Duration>,
    out: Option<String>,
    resume_from: Option<String>,
    arch: String,
    disks: usize,
    task: TaskKind,
    memory_mb: Option<u64>,
    interconnect_mb: Option<f64>,
    direct: bool,
    fibre_switch: bool,
    fast_disk: bool,
    trace_path: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    trace_events: Option<String>,
    disk_cache: bool,
    no_cache: bool,
    seed: u64,
    faults: Vec<String>,
    recovery: RecoveryPolicy,
    queue: QueueBackend,
    load: Option<String>,
    mix: String,
    admission: AdmissionPolicy,
    deadline: DeadlinePolicy,
}

/// Parses `--queue` values: `heap` or `wheel`.
fn parse_queue(name: &str) -> Result<QueueBackend, String> {
    match name {
        "heap" => Ok(QueueBackend::BinaryHeap),
        "wheel" => Ok(QueueBackend::CalendarWheel),
        _ => Err(format!(
            "--queue: unknown backend `{name}` (want heap or wheel)"
        )),
    }
}

fn usage() -> String {
    "usage: howsim [explain|profile|checkpoint] --arch <active|cluster|smp> --disks <n> --task <name>\n\
     \x20      [--memory <MB>] [--interconnect <MB/s>] [--no-direct]\n\
     \x20      [--fibre-switch] [--fast-disk] [--cache] [--no-cache]\n\
     \x20      [--seed <n>] [--fault <spec>]... [--recovery <failstop|redistribute|reconstruct>]\n\
     \x20      [--queue <heap|wheel>]\n\
     \x20      [--trace <file.csv>] [--trace-out <file.jsonl>] [--metrics-out <file.json>]\n\
     \x20      [--trace-events <file.json>]\n\
     \x20      [--load <poisson:<qps>:<queries>[@seed] | closed:<clients>:<queries>[@seed]>]\n\
     \x20      [--mix <all | name,... | name:weight,...>] [--admission <concurrent>:<queue>]\n\
     \x20      [--deadline <none | dur | dur:<retries>:<backoff>>]\n\
     \x20      [--resume-from <file.ckpt>]\n\
     tasks: select aggregate groupby dcube sort join dmine mview\n\
     fault specs: disk:<node>@<time>  slow:<node>@<time>:<defects>  link:<node>@<time>:<factor>\n\
     explain: print the per-resource utilization table and name the bottleneck\n\
     profile: print the critical path, wait/service table, and longest spans\n\
     checkpoint: pause at --at <dur> and write the state to --out <file.ckpt>"
        .to_string()
}

fn parse_task(name: &str) -> Result<TaskKind, String> {
    TaskKind::ALL
        .into_iter()
        .find(|t| t.name() == name)
        .ok_or_else(|| format!("unknown task `{name}`"))
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        explain: false,
        profile: false,
        checkpoint: false,
        at: None,
        out: None,
        resume_from: None,
        arch: "active".to_string(),
        disks: 64,
        task: TaskKind::Select,
        memory_mb: None,
        interconnect_mb: None,
        direct: true,
        fibre_switch: false,
        fast_disk: false,
        trace_path: None,
        trace_out: None,
        metrics_out: None,
        trace_events: None,
        disk_cache: false,
        no_cache: false,
        seed: 0,
        faults: Vec::new(),
        recovery: RecoveryPolicy::default(),
        queue: QueueBackend::default(),
        load: None,
        mix: "all".to_string(),
        admission: AdmissionPolicy::default(),
        deadline: DeadlinePolicy::default(),
    };
    let mut args = args;
    match args.first().map(String::as_str) {
        Some("explain") => {
            opts.explain = true;
            args = &args[1..];
        }
        Some("profile") => {
            opts.profile = true;
            args = &args[1..];
        }
        Some("checkpoint") => {
            opts.checkpoint = true;
            args = &args[1..];
        }
        _ => {}
    }
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--arch" => opts.arch = value("--arch")?,
            "--disks" => {
                opts.disks = value("--disks")?
                    .parse()
                    .map_err(|e| format!("--disks: {e}"))?
            }
            "--task" => opts.task = parse_task(&value("--task")?)?,
            "--memory" => {
                opts.memory_mb = Some(
                    value("--memory")?
                        .parse()
                        .map_err(|e| format!("--memory: {e}"))?,
                )
            }
            "--interconnect" => {
                opts.interconnect_mb = Some(
                    value("--interconnect")?
                        .parse()
                        .map_err(|e| format!("--interconnect: {e}"))?,
                )
            }
            "--no-direct" => opts.direct = false,
            "--fibre-switch" => opts.fibre_switch = true,
            "--fast-disk" => opts.fast_disk = true,
            "--trace" => opts.trace_path = Some(value("--trace")?),
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")?),
            "--trace-events" => opts.trace_events = Some(value("--trace-events")?),
            "--cache" => opts.disk_cache = true,
            "--no-cache" => opts.no_cache = true,
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--fault" => {
                let spec = value("--fault")?;
                // Validate eagerly so a typo fails before simulating.
                FaultPlan::parse_spec(&spec)?;
                opts.faults.push(spec);
            }
            "--queue" => opts.queue = parse_queue(&value("--queue")?)?,
            "--at" => opts.at = Some(howsim::parse_duration(&value("--at")?)?),
            "--out" => opts.out = Some(value("--out")?),
            "--resume-from" => opts.resume_from = Some(value("--resume-from")?),
            "--load" => opts.load = Some(value("--load")?),
            "--mix" => opts.mix = value("--mix")?,
            "--admission" => opts.admission = AdmissionPolicy::parse_spec(&value("--admission")?)?,
            "--deadline" => opts.deadline = DeadlinePolicy::parse_spec(&value("--deadline")?)?,
            "--recovery" => {
                let name = value("--recovery")?;
                opts.recovery = RecoveryPolicy::parse(&name).ok_or_else(|| {
                    format!("--recovery: unknown policy `{name}` (want failstop, redistribute, or reconstruct)")
                })?;
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    if opts.disks == 0 {
        return Err("--disks must be positive".to_string());
    }
    // The simulator skips a fault on a node the machine lacks, which
    // would print a healthy report for a faulted run.
    for spec in &opts.faults {
        for e in FaultPlan::parse_spec(spec)?.events() {
            let (FaultKind::DiskFailStop { node }
            | FaultKind::MediaBurst { node, .. }
            | FaultKind::LinkFault { node, .. }) = e.kind;
            if node >= opts.disks {
                return Err(format!(
                    "--fault {spec}: no node {node} on --disks {} (nodes 0 to {})",
                    opts.disks,
                    opts.disks - 1
                ));
            }
        }
    }
    // A setting the architecture does not have is an error, not a no-op.
    let arch_flags: [(&str, bool, &[&str]); 4] = [
        ("--memory", opts.memory_mb.is_some(), &["active"]),
        (
            "--interconnect",
            opts.interconnect_mb.is_some(),
            &["active", "smp"],
        ),
        ("--no-direct", !opts.direct, &["active"]),
        ("--fibre-switch", opts.fibre_switch, &["active"]),
    ];
    for (flag, given, archs) in arch_flags {
        if given && !archs.contains(&opts.arch.as_str()) {
            return Err(format!(
                "{flag} applies to --arch {} only, not --arch {}",
                archs.join(" and --arch "),
                opts.arch
            ));
        }
    }
    if let Some(mb) = opts.memory_mb {
        let bytes = mb
            .checked_mul(1 << 20)
            .ok_or_else(|| format!("--memory: {mb} MB does not fit in 64-bit bytes"))?;
        let footprint = hostos::MemoryBudget::DISK_OS_KERNEL_BYTES;
        if bytes <= footprint {
            return Err(format!(
                "--memory: an Active Disk needs more than the {} MB DiskOS footprint, got {mb} MB",
                footprint >> 20
            ));
        }
    }
    if let Some(mb) = opts.interconnect_mb {
        if !(mb > 0.0 && (mb * 1e6).is_finite()) {
            return Err(format!(
                "--interconnect: needs a positive, finite rate in MB/s, got {mb}"
            ));
        }
    }
    let observed = opts.explain
        || opts.profile
        || opts.trace_path.is_some()
        || opts.trace_out.is_some()
        || opts.trace_events.is_some();
    if opts.checkpoint {
        if opts.at.is_none() || opts.out.is_none() {
            return Err("checkpoint needs --at <dur> and --out <file>".to_string());
        }
        if observed
            || opts.metrics_out.is_some()
            || opts.load.is_some()
            || opts.resume_from.is_some()
        {
            return Err(
                "checkpoint applies to plain single-task runs (no observers, --load, or --resume-from)"
                    .to_string(),
            );
        }
    } else if opts.at.is_some() || opts.out.is_some() {
        return Err("--at/--out apply to the checkpoint subcommand only".to_string());
    }
    if opts.resume_from.is_some() && (observed || opts.load.is_some()) {
        return Err(
            "--resume-from applies to plain single-task runs: checkpoints carry no span \
             or trace state, so explain/profile/--trace*/--load cannot resume \
             (--metrics-out works, minus the sampled time-series)"
                .to_string(),
        );
    }
    if let Some(load) = &opts.load {
        // Validate the workload spec eagerly so a typo fails before simulating.
        WorkloadSpec::parse_spec(load, &opts.mix)?;
        if opts.explain || opts.profile {
            return Err("explain/profile apply to single-task runs, not --load".to_string());
        }
        if opts.trace_path.is_some() || opts.trace_out.is_some() {
            return Err("--trace/--trace-out apply to single-task runs, not --load".to_string());
        }
    } else {
        WorkloadSpec::parse_mix(&opts.mix)?;
    }
    check_wire_budget(&opts)?;
    Ok(opts)
}

/// Half the `u64`-nanosecond clock (2^63 ns, about 292 years), in
/// seconds: the most the traffic of the lanes a flag slows may take.
const WIRE_BUDGET_SECS: f64 = (1u64 << 63) as f64 / 1e9;

/// Rejects flags that slow an interconnect lane so far that the run's
/// traffic could carry the clock past its end. `--interconnect` sets
/// the rate of the FC loops; a `link` fault cuts a cluster host's NIC
/// pair to its severity, and faults on one host compound.
///
/// The bound is coarse and the same on every architecture. Per query it
/// counts every planned byte (read, shuffled, sent to the front-end or
/// written) four times, once per leg of the longest route (peer traffic
/// through the front-end), and `nodes` times over when a disk fault
/// meets a policy that re-reads. A loaded run counts every query and
/// retry at its mix's heaviest task, and a 1% pad covers sector
/// rounding. All of it is charged to the slowest lane a flag sets: one
/// FC loop at `rate / 2` and the loop's framing efficiency, or a NIC at
/// the compounded severity (on every architecture, though only a
/// cluster's NICs degrade). That serial time bounds the lanes' summed
/// busy time however they overlap or fail, and it must fit in
/// [`WIRE_BUDGET_SECS`]. The other half of the clock is left to what no
/// flag here sets: the arrivals, which `--load` bounds on its own, and
/// the disks and CPUs. The check reads only the lanes' own traffic, so
/// naming a default value changes the verdict only past 2.6e16 counted
/// bytes at a NIC's rate (2.2e17 on the loops), 300,000 times what the
/// heaviest task plans per query (8.4e10 B, the join).
fn check_wire_budget(opts: &Options) -> Result<(), String> {
    let mut severity = BTreeMap::new();
    let mut disk_fault = false;
    for spec in &opts.faults {
        // A bad spec was rejected when the flag was read.
        let Ok(plan) = FaultPlan::parse_spec(spec) else {
            continue;
        };
        for e in plan.events() {
            match e.kind {
                FaultKind::LinkFault { node, severity: s } => {
                    *severity.entry(node).or_insert(1.0) *= s;
                }
                FaultKind::DiskFailStop { .. } => disk_fault = true,
                FaultKind::MediaBurst { .. } => {}
            }
        }
    }
    // The slowest lane a flag sets, in bytes/s, and that flag.
    let fc = opts.interconnect_mb.map(|mb| {
        let rate = mb * 1e6 / 2.0 * netmodel::fcloop::DEFAULT_EFFICIENCY;
        (rate, "--interconnect")
    });
    let nic = severity.values().copied().reduce(f64::min).map(|s| {
        let nic = Bandwidth::from_mbit_per_sec(netmodel::cluster::NIC_MBIT_PER_SEC)
            .scale(netmodel::cluster::ETHERNET_EFFICIENCY);
        (nic.bytes_per_sec() * s, "--fault link")
    });
    let Some((rate, flag)) = fc.into_iter().chain(nic).min_by(|a, b| a.0.total_cmp(&b.0)) else {
        return Ok(());
    };
    // An unknown architecture is reported when the run builds it.
    let Ok(arch) = build_architecture(opts) else {
        return Ok(());
    };
    let (tasks, runs) = match &opts.load {
        Some(load) => {
            let w = WorkloadSpec::parse_spec(load, &opts.mix)?;
            let attempts = f64::from(opts.deadline.max_retries) + 1.0;
            let tasks = w.mix.iter().map(|&(t, _)| t).collect();
            (tasks, f64::from(w.queries) * attempts)
        }
        None => (vec![opts.task], 1.0),
    };
    let nodes = arch.disks() as f64;
    let copies = if disk_fault && opts.recovery != RecoveryPolicy::FailStop {
        nodes
    } else {
        1.0
    };
    let per_query = tasks
        .into_iter()
        .map(|task| {
            let plan = tasks::plan_task(task, &arch);
            let mut bytes = 0.0;
            for p in &plan.phases {
                let read = p.read_bytes_total as f64;
                let shuffle = p.shuffle_bytes_total() as f64;
                let frontend = read * p.frontend_factor + p.frontend_bytes_per_node as f64 * nodes;
                let received = if p.write_received { shuffle } else { 0.0 };
                bytes += read + shuffle + frontend + read * p.local_write_factor + received;
            }
            bytes
        })
        .fold(0.0, f64::max);
    let wire_secs = per_query * 4.0 * copies * runs * 1.01 / rate;
    if wire_secs <= WIRE_BUDGET_SECS {
        return Ok(());
    }
    Err(format!(
        "{flag}: at {rate:.3e} B/s on the slowest lane, the planned traffic \
         ({per_query:.3e} B per query) could take {wire_secs:.3e} s, more than the \
         {WIRE_BUDGET_SECS:.3e} s of simulated clock it may use"
    ))
}

fn build_architecture(opts: &Options) -> Result<Architecture, String> {
    let mut arch = match opts.arch.as_str() {
        "active" => Architecture::active_disks(opts.disks),
        "cluster" => Architecture::cluster(opts.disks),
        "smp" => Architecture::smp(opts.disks),
        other => return Err(format!("unknown architecture `{other}`")),
    };
    if let Some(mb) = opts.memory_mb {
        arch = arch.with_disk_memory(mb << 20);
    }
    if let Some(mb) = opts.interconnect_mb {
        arch = arch.with_interconnect_mb(mb);
    }
    if !opts.direct {
        arch = arch.with_direct_disk_to_disk(false);
    }
    if opts.fibre_switch {
        arch = arch.with_fibre_switch();
    }
    if opts.fast_disk {
        arch = arch.with_disk_spec(diskmodel::DiskSpec::hitachi_dk3e1t_91());
    }
    Ok(arch)
}

/// Prints the per-resource utilization table (service vs wait) and the
/// bottleneck and critical-path verdicts — the `explain` subcommand body.
fn print_explanation(
    report: &howsim::Report,
    critical_path: Option<&CriticalPath>,
    wall: std::time::Duration,
) {
    let attr = Attribution::from_report(report);
    outln!("{report}");
    outln!();
    outln!(
        "  {:<16} {:>5} {:>11} {:>11} {:>8} {:>8}   peak phase",
        "resource",
        "lanes",
        "service (s)",
        "wait (s)",
        "overall",
        "peak"
    );
    for r in &attr.resources {
        outln!(
            "  {:<16} {:>5} {:>11.3} {:>11.3} {:>7.1}% {:>7.1}%   {}",
            r.resource.label(report.architecture),
            r.lanes,
            r.busy.as_secs_f64(),
            r.wait.as_secs_f64(),
            r.overall_utilization * 100.0,
            r.peak_utilization * 100.0,
            r.peak_phase,
        );
    }
    outln!();
    match attr.bottleneck() {
        Some(b) => outln!(
            "  bottleneck: {} — {:.1}% busy during `{}`",
            b.resource.label(report.architecture),
            b.peak_utilization * 100.0,
            b.peak_phase,
        ),
        None => outln!("  bottleneck: none (no phases executed)"),
    }
    if let Some(cp) = critical_path {
        match cp.segments.first() {
            Some(top) if !cp.total.is_zero() => outln!(
                "  critical path: {} — {:.1}% of elapsed ({:.3} s of {:.3} s)",
                top.resource,
                top.time.as_secs_f64() / cp.total.as_secs_f64() * 100.0,
                top.time.as_secs_f64(),
                cp.total.as_secs_f64(),
            ),
            _ => outln!("  critical path: none (no phases executed)"),
        }
    }
    let wall_s = wall.as_secs_f64();
    outln!(
        "  simulator: {} events in {:.3} s wall ({:.0} events/s)",
        report.events,
        wall_s,
        if wall_s > 0.0 {
            report.events as f64 / wall_s
        } else {
            0.0
        },
    );
}

/// Prints the causal profile: the per-resource critical-path
/// decomposition, the wait/service table, and the longest spans — the
/// `profile` subcommand body. Deterministic: no wall-clock data.
fn print_profile(report: &howsim::Report, spans: &SpanTrace) {
    outln!("{report}");
    let cp = spans.critical_path();
    outln!();
    outln!(
        "  critical path ({} ns — equals elapsed exactly):",
        cp.total.as_nanos()
    );
    outln!("  {:<18} {:>12} {:>8}", "resource", "time (s)", "share");
    for seg in &cp.segments {
        outln!(
            "  {:<18} {:>12.3} {:>7.1}%",
            seg.resource,
            seg.time.as_secs_f64(),
            seg.time.as_secs_f64() / cp.total.as_secs_f64().max(f64::MIN_POSITIVE) * 100.0,
        );
    }
    outln!();
    outln!(
        "  {:<16} {:>5} {:>12} {:>12} {:>10}",
        "resource",
        "lanes",
        "service (s)",
        "wait (s)",
        "wait frac"
    );
    let attr = Attribution::from_report(report);
    for r in &attr.resources {
        let total = r.busy + r.wait;
        let frac = if total.is_zero() {
            0.0
        } else {
            r.wait.as_secs_f64() / total.as_secs_f64()
        };
        outln!(
            "  {:<16} {:>5} {:>12.3} {:>12.3} {:>9.1}%",
            r.resource.label(report.architecture),
            r.lanes,
            r.busy.as_secs_f64(),
            r.wait.as_secs_f64(),
            frac * 100.0,
        );
    }
    outln!();
    outln!("  top {PROFILE_TOP_K} longest spans:");
    outln!(
        "  {:>8} {:<12} {:<16} {:>6} {:>14} {:>14} {:>12}",
        "span",
        "kind",
        "resource",
        "node",
        "start (ns)",
        "dur (ns)",
        "bytes"
    );
    for (id, s) in spans.top_spans(PROFILE_TOP_K) {
        let node = if s.node == FRONT_END_NODE {
            "fe".to_string()
        } else {
            s.node.to_string()
        };
        outln!(
            "  {:>8} {:<12} {:<16} {:>6} {:>14} {:>14} {:>12}",
            id.index().unwrap_or(usize::MAX),
            s.kind.name(),
            s.resource,
            node,
            s.start.as_nanos(),
            s.duration().as_nanos(),
            s.bytes,
        );
    }
    outln!();
    outln!(
        "  spans: {} recorded, {} dropped (capacity {})",
        spans.arena.len(),
        spans.arena.dropped(),
        spans.arena.capacity(),
    );
}

/// Prints the per-query outcome table and the load summary — the
/// `--load` output body.
fn print_load_report(report: &LoadReport) {
    outln!(
        "loaded run: {} x{} disks  workload {}  admission {}  deadline {}",
        report.architecture,
        report.disks,
        report.workload,
        report.admission,
        report.deadline,
    );
    outln!();
    outln!(
        "  {:>5} {:<10} {:<10} {:>12} {:>12} {:>7} {:>8} {:>6}",
        "query",
        "task",
        "status",
        "arrival (s)",
        "latency (s)",
        "retries",
        "timeouts",
        "phases"
    );
    for o in &report.outcomes {
        outln!(
            "  {:>5} {:<10} {:<10} {:>12.3} {:>12.3} {:>7} {:>8} {:>6}",
            o.query,
            o.task.name(),
            o.status.name(),
            o.arrival.as_secs_f64(),
            o.latency().as_secs_f64(),
            o.retries,
            o.timeouts,
            o.phases.len(),
        );
    }
    outln!();
    outln!(
        "  outcomes: {} queries — {} completed, {} shed, {} timed out, {} aborted ({} retries, {} timeouts)",
        report.outcomes.len(),
        report.completed(),
        report.shed(),
        report.timed_out(),
        report.aborted(),
        report.retries(),
        report.timeouts(),
    );
    let pct = |p: f64| match report.latency_percentile(p) {
        Some(d) => format!("{:.3} s", d.as_secs_f64()),
        None => "-".to_string(),
    };
    outln!(
        "  latency: p50 {}  p95 {}  p99 {}",
        pct(50.0),
        pct(95.0),
        pct(99.0),
    );
    outln!(
        "  goodput: {:.4} queries/s over {:.3} s simulated ({} events)",
        report.goodput_qps(),
        report.elapsed.as_secs_f64(),
        report.events,
    );
    if report.faults_injected > 0 {
        outln!(
            "  faults: {} injected — {} MB redistributed, {:.3} s disk downtime",
            report.faults_injected,
            report.work_redistributed / 1_000_000,
            report.downtime.as_secs_f64(),
        );
    }
}

/// Runs the `--load` multi-query path: simulate (through the load cache
/// when uninstrumented), print the outcome table, and write the optional
/// load manifest and per-query Chrome trace.
fn run_loaded(opts: &Options, sim: &Simulation, fault_plan: &FaultPlan) -> ExitCode {
    let workload = WorkloadSpec::parse_spec(opts.load.as_deref().expect("--load set"), &opts.mix)
        .expect("spec validated during parse");
    let want_profile = opts.trace_events.is_some();
    let (report, span_trace) = if want_profile {
        let (r, t) = sim.run_workload_profiled(&workload, opts.admission, opts.deadline);
        (r, Some(t))
    } else {
        (
            howsim::cache::run_workload(sim, &workload, opts.admission, opts.deadline),
            None,
        )
    };
    if opts.disk_cache && howsim::cache::stats().disk_hits > 0 {
        eprintln!("cache: load report served from results/.simcache/");
    }
    print_load_report(&report);
    if let Some(path) = &opts.trace_events {
        let trace = span_trace.as_ref().expect("profiled run");
        let written = File::create(path).and_then(|f| trace.write_chrome_trace(BufWriter::new(f)));
        if let Err(e) = written {
            eprintln!("failed to write trace events {path}: {e}");
            return ExitCode::FAILURE;
        }
        let dropped: u64 = trace
            .queries
            .iter()
            .map(|q| trace.dropped_for(q.query))
            .sum();
        eprintln!(
            "wrote {} spans ({} dropped) as Chrome trace events to {path} (one pid per query)",
            trace.arena.len(),
            dropped,
        );
    }
    if let Some(path) = &opts.metrics_out {
        let json = howsim::manifest::load_manifest_json(
            &report,
            opts.seed,
            &fault_plan.summary(),
            opts.recovery.name(),
        );
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("failed to write manifest {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote load manifest to {path}");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let arch = match build_architecture(&opts) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if opts.no_cache {
        howsim::cache::set_enabled(false);
    } else if opts.disk_cache {
        howsim::cache::set_disk_dir(Some(howsim::cache::default_disk_dir()));
    }
    let mut fault_plan = FaultPlan::new();
    for spec in &opts.faults {
        fault_plan = match fault_plan.with_spec(spec) {
            Ok(p) => p,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        };
    }
    let sim = Simulation::new(arch.clone())
        .with_seed(opts.seed)
        .with_fault_plan(fault_plan.clone())
        .with_recovery(opts.recovery)
        .with_queue_backend(opts.queue);
    if opts.load.is_some() {
        return run_loaded(&opts, &sim, &fault_plan);
    }
    let plan = tasks::plan_task(opts.task, &arch);
    if opts.checkpoint {
        let at = simcore::SimTime::ZERO + opts.at.expect("validated during parse");
        let mut run = sim.start(&plan);
        run.run_until(at);
        let path = opts.out.as_deref().expect("validated during parse");
        return match howsim::checkpoint::write_file(
            std::path::Path::new(path),
            &sim,
            &plan,
            at,
            &run,
        ) {
            Ok(()) => {
                // A run that finishes before `--at` is paused at its end.
                let clock = if run.is_done() { run.paused_at() } else { at };
                eprintln!(
                    "checkpointed {} on {} x{} at {:.3} s ({} events) to {path}",
                    opts.task.name(),
                    opts.arch,
                    opts.disks,
                    clock.as_secs_f64(),
                    run.events_so_far(),
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("failed to write checkpoint {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let want_trace = opts.trace_path.is_some() || opts.trace_out.is_some();
    // `explain` needs the critical path, so it profiles too.
    let want_profile = opts.profile || opts.explain || opts.trace_events.is_some();
    let mut trace = want_trace.then(Trace::new);
    // A resumed run cannot re-sample the utilization series it skipped,
    // so its manifest carries everything but the metrics section.
    let mut metrics =
        (opts.metrics_out.is_some() && opts.resume_from.is_none()).then(MetricsBuilder::new);
    let started = std::time::Instant::now();
    // Traced/instrumented/profiled runs must actually execute to produce
    // their event streams; only the plain report path is cacheable.
    let (report, span_trace) = if want_trace || metrics.is_some() || want_profile {
        sim.run_plan_observed(&plan, trace.as_mut(), metrics.as_mut(), want_profile)
    } else if let Some(path) = &opts.resume_from {
        match howsim::checkpoint::read_file(std::path::Path::new(path), &sim, &plan) {
            Some(run) => {
                eprintln!(
                    "resumed from checkpoint {path} at {:.3} s ({} events already simulated)",
                    run.paused_at().as_secs_f64(),
                    run.events_so_far(),
                );
                (run.finish(), None)
            }
            None => {
                eprintln!(
                    "checkpoint {path} is unusable (missing, corrupt, or a different \
                     configuration); simulating from scratch"
                );
                (howsim::cache::run_sim(&sim, &plan), None)
            }
        }
    } else {
        (howsim::cache::run_sim(&sim, &plan), None)
    };
    let wall = started.elapsed();
    if opts.disk_cache && howsim::cache::stats().disk_hits > 0 {
        eprintln!("cache: report served from results/.simcache/");
    }
    let critical_path = span_trace.as_ref().map(SpanTrace::critical_path);

    if opts.explain {
        print_explanation(&report, critical_path.as_ref(), wall);
    } else if opts.profile {
        print_profile(&report, span_trace.as_ref().expect("profiled run"));
    } else {
        outln!("{report}");
        for p in &report.phases {
            outln!(
                "  {:<16} {:>9.3} s   CPU idle {:>5.1}%   net {:>8} MB   front-end {:>8} MB",
                p.name,
                p.elapsed.as_secs_f64(),
                p.idle_fraction() * 100.0,
                p.interconnect_bytes / 1_000_000,
                p.frontend_bytes / 1_000_000,
            );
            for (tag, busy) in &p.cpu_busy_by_tag {
                outln!(
                    "    {:<14} {:>9.3} node-seconds ({:>4.1}%)",
                    tag,
                    busy.as_secs_f64(),
                    p.cpu_fraction(tag) * 100.0
                );
            }
        }
        outln!("  disk service times: {}", report.disk_service);
    }
    if report.faults_injected > 0 {
        outln!(
            "  faults: {} injected ({}), recovery {} — {:.3} s recovery work, {} MB redistributed, {:.3} s disk downtime{}",
            report.faults_injected,
            fault_plan.summary(),
            opts.recovery.name(),
            report.recovery_time.as_secs_f64(),
            report.work_redistributed / 1_000_000,
            report.downtime.as_secs_f64(),
            if report.aborted { ", run ABORTED" } else { "" },
        );
    }

    if let Some(path) = &opts.trace_events {
        let spans = span_trace.as_ref().expect("profiled run");
        let written = File::create(path).and_then(|f| spans.write_chrome_trace(BufWriter::new(f)));
        if let Err(e) = written {
            eprintln!("failed to write trace events {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wrote {} spans as Chrome trace events to {path}",
            spans.arena.len()
        );
    }
    if let Some(path) = &opts.metrics_out {
        let mut manifest = RunManifest::new(&arch, &report)
            .with_seed(opts.seed)
            .with_faults(&fault_plan, opts.recovery)
            .with_host(HostInfo::capture(report.events, wall));
        if let Some(mb) = metrics {
            manifest = manifest.with_metrics(mb.finish());
        }
        if let Some(t) = &trace {
            manifest = manifest.with_trace(t.summary());
        }
        if let Some(cp) = critical_path.clone() {
            manifest = manifest.with_critical_path(cp);
        }
        if let Err(e) = std::fs::write(path, manifest.to_json()) {
            eprintln!("failed to write manifest {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote run manifest to {path}");
    }
    if let Some(t) = &trace {
        if let Some(path) = &opts.trace_path {
            if let Err(e) = std::fs::write(path, t.to_csv()) {
                eprintln!("failed to write trace {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote trace to {path}: {}", t.summary());
        }
        if let Some(path) = &opts.trace_out {
            if let Err(e) = std::fs::write(path, t.to_jsonl()) {
                eprintln!("failed to write trace {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote trace to {path}: {}", t.summary());
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_parse() {
        let o = parse(&[]).unwrap();
        assert!(!o.explain);
        assert_eq!(o.arch, "active");
        assert_eq!(o.disks, 64);
        assert_eq!(o.task, TaskKind::Select);
        assert!(o.direct);
        assert_eq!(o.metrics_out, None);
    }

    #[test]
    fn full_flag_set_parses() {
        let o = parse(&argv(
            "--arch active --disks 128 --task sort --memory 64 --interconnect 400 \
             --no-direct --fibre-switch --fast-disk --trace t.csv --trace-out t.jsonl \
             --metrics-out m.json --cache",
        ))
        .unwrap();
        assert_eq!(o.arch, "active");
        assert_eq!(o.disks, 128);
        assert_eq!(o.task, TaskKind::Sort);
        assert_eq!(o.memory_mb, Some(64));
        assert_eq!(o.interconnect_mb, Some(400.0));
        assert!(!o.direct);
        assert!(o.fibre_switch);
        assert!(o.fast_disk);
        assert_eq!(o.trace_path.as_deref(), Some("t.csv"));
        assert_eq!(o.trace_out.as_deref(), Some("t.jsonl"));
        assert_eq!(o.metrics_out.as_deref(), Some("m.json"));
        assert!(o.disk_cache);
        assert!(!o.no_cache);
    }

    #[test]
    fn cache_flags_parse() {
        let o = parse(&argv("--no-cache")).unwrap();
        assert!(o.no_cache);
        assert!(!o.disk_cache);
        assert!(!parse(&[]).unwrap().disk_cache);
    }

    #[test]
    fn explain_subcommand_parses() {
        let o = parse(&argv("explain --arch cluster --disks 64 --task join")).unwrap();
        assert!(o.explain);
        assert!(!o.profile);
        assert_eq!(o.arch, "cluster");
        assert_eq!(o.disks, 64);
        assert_eq!(o.task, TaskKind::Join);
        // `explain` is only recognized as the leading word.
        assert!(parse(&argv("--arch smp explain")).is_err());
    }

    #[test]
    fn profile_subcommand_and_trace_events_parse() {
        let o = parse(&argv("profile --arch cluster --disks 64 --task join")).unwrap();
        assert!(o.profile);
        assert!(!o.explain);
        assert_eq!(o.task, TaskKind::Join);
        assert!(parse(&argv("--arch smp profile")).is_err());

        let o = parse(&argv("--trace-events t.json")).unwrap();
        assert_eq!(o.trace_events.as_deref(), Some("t.json"));
        assert!(!o.profile);
        assert!(parse(&argv("--trace-events")).is_err());
        assert_eq!(parse(&[]).unwrap().trace_events, None);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&argv("--task nonsense")).is_err());
        assert!(parse(&argv("--disks 0")).is_err());
        assert!(parse(&argv("--bogus")).is_err());
        assert!(parse(&argv("--disks")).is_err());
        // One run simulates on one thread: `--jobs` is not a flag.
        assert!(parse(&argv("--jobs 4")).is_err());
        assert!(parse(&argv("--metrics-out")).is_err());
        assert!(parse(&argv("--help")).is_err());
    }

    #[test]
    fn fault_flags_parse() {
        let o = parse(&argv(
            "--seed 42 --fault disk:3@2.5s --fault slow:0@1s:128 --recovery reconstruct",
        ))
        .unwrap();
        assert_eq!(o.seed, 42);
        assert_eq!(o.faults, vec!["disk:3@2.5s", "slow:0@1s:128"]);
        assert_eq!(o.recovery, RecoveryPolicy::ReconstructRead);
        // Defaults: seed 0, no faults, redistribute.
        let d = parse(&[]).unwrap();
        assert_eq!(d.seed, 0);
        assert!(d.faults.is_empty());
        assert_eq!(d.recovery, RecoveryPolicy::Redistribute);
    }

    #[test]
    fn bad_fault_flags_are_rejected() {
        assert!(parse(&argv("--fault nuke:0@1s")).is_err());
        assert!(parse(&argv("--fault disk:0")).is_err());
        assert!(parse(&argv("--recovery raid6")).is_err());
        assert!(parse(&argv("--seed abc")).is_err());
        assert!(parse(&argv("--fault")).is_err());
        // Fault nodes are checked against --disks wherever it appears.
        assert!(parse(&argv("--fault disk:3@1s --disks 4")).is_ok());
        assert!(parse(&argv("--fault disk:4@1s --disks 4")).is_err());
    }

    #[test]
    fn queue_flag_parses() {
        assert_eq!(parse(&[]).unwrap().queue, QueueBackend::CalendarWheel);
        assert_eq!(
            parse(&argv("--queue heap")).unwrap().queue,
            QueueBackend::BinaryHeap
        );
        assert_eq!(
            parse(&argv("--queue wheel")).unwrap().queue,
            QueueBackend::CalendarWheel
        );
        assert!(parse(&argv("--queue sharded:4")).is_err());
        assert!(parse(&argv("--queue splay")).is_err());
        assert!(parse(&argv("--queue")).is_err());
    }

    #[test]
    fn load_flags_parse() {
        let o = parse(&argv(
            "--load poisson:0.5:16@7 --mix select:2,sort:1 --admission 2:8 --deadline 30s:1:2s",
        ))
        .unwrap();
        assert_eq!(o.load.as_deref(), Some("poisson:0.5:16@7"));
        assert_eq!(o.mix, "select:2,sort:1");
        assert_eq!(o.admission.max_concurrent, 2);
        assert_eq!(o.admission.queue_limit, 8);
        assert_eq!(o.deadline.max_retries, 1);
        assert!(o.deadline.deadline.is_some());
        // Defaults: no load, mix `all`, admission 4:16, no deadline.
        let d = parse(&[]).unwrap();
        assert_eq!(d.load, None);
        assert_eq!(d.mix, "all");
        assert_eq!(d.admission, AdmissionPolicy::default());
        assert_eq!(d.deadline.deadline, None);
    }

    #[test]
    fn bad_load_flags_are_rejected() {
        assert!(parse(&argv("--load warp:1:2")).is_err());
        assert!(parse(&argv("--load poisson:0.5:4 --mix nonsense")).is_err());
        assert!(parse(&argv("--mix nonsense")).is_err());
        assert!(parse(&argv("--admission 4")).is_err());
        assert!(parse(&argv("--deadline 5")).is_err());
        // Single-run observers don't apply to loaded runs.
        assert!(parse(&argv("explain --load closed:1:1")).is_err());
        assert!(parse(&argv("profile --load closed:1:1")).is_err());
        assert!(parse(&argv("--load closed:1:1 --trace t.csv")).is_err());
        // But the loaded manifest and Chrome trace do.
        assert!(parse(&argv(
            "--load closed:1:1 --metrics-out m.json --trace-events t.json"
        ))
        .is_ok());
    }

    #[test]
    fn checkpoint_and_resume_flags_parse() {
        let o = parse(&argv(
            "checkpoint --arch cluster --disks 8 --task join --at 2.5s --out j.ckpt",
        ))
        .unwrap();
        assert!(o.checkpoint);
        assert_eq!(o.at, Some(simcore::Duration::from_secs_f64(2.5)));
        assert_eq!(o.out.as_deref(), Some("j.ckpt"));

        let o = parse(&argv("--task join --resume-from j.ckpt")).unwrap();
        assert_eq!(o.resume_from.as_deref(), Some("j.ckpt"));
        assert!(!o.checkpoint);

        // checkpoint needs both --at and --out, and a plain run.
        assert!(parse(&argv("checkpoint --task join --out j.ckpt")).is_err());
        assert!(parse(&argv("checkpoint --task join --at 1s")).is_err());
        assert!(parse(&argv("checkpoint --at 1s --out j.ckpt --load closed:1:1")).is_err());
        assert!(parse(&argv(
            "checkpoint --at 1s --out j.ckpt --metrics-out m.json"
        ))
        .is_err());
        // --at/--out are checkpoint-only; resume rejects observers.
        assert!(parse(&argv("--at 1s")).is_err());
        assert!(parse(&argv("--out j.ckpt")).is_err());
        assert!(parse(&argv("profile --resume-from j.ckpt")).is_err());
        assert!(parse(&argv("explain --resume-from j.ckpt")).is_err());
        assert!(parse(&argv("--resume-from j.ckpt --trace t.csv")).is_err());
        assert!(parse(&argv("--resume-from j.ckpt --load closed:1:1")).is_err());
        // The manifest (minus the sampled series) still works on resume.
        assert!(parse(&argv("--resume-from j.ckpt --metrics-out m.json")).is_ok());
        assert!(parse(&argv("--at nonsense --out j.ckpt")).is_err());
        // Resuming under a different queue backend is allowed.
        assert!(parse(&argv("--resume-from j.ckpt --queue heap")).is_ok());
    }

    #[test]
    fn architecture_construction() {
        let o = parse(&argv("--arch active --disks 32 --memory 128 --no-direct")).unwrap();
        let a = build_architecture(&o).unwrap();
        let Architecture::ActiveDisks(c) = &a else {
            panic!()
        };
        assert_eq!(c.disks, 32);
        assert_eq!(c.disk_memory_bytes, 128 << 20);
        assert!(!c.direct_disk_to_disk);

        let bad = Options {
            arch: "mainframe".to_string(),
            ..o
        };
        assert!(build_architecture(&bad).is_err());
    }
}
