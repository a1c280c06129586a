//! `adbench`: runs the benchmark's workloads and prints their metrics.
//!
//! ```text
//! adbench [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//! adbench --bless
//! ```
//!
//! Untraced, each workload runs in child processes of this binary, one
//! after another: several that only set up (for `setup_s`) and one that
//! measures. Every time is scaled to the reference host speed of
//! [`adbench::gauge`]. The last line of output is one JSON object with the
//! end-to-end metrics. Traced, one process runs a traced pass of every
//! workload, starting with the named one, and the JSON carries the
//! per-layer metrics. `--bless` rewrites the golden digests. The parent
//! starts its children with the internal flags `--child <workload>` and
//! `--setup-only`.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use adbench::gauge::{self, Gauge};
use adbench::ledger::Ledger;
use adbench::record::{Op, Recorder};
use adbench::workloads::{self, Metric, NAMES};
use adbench::{golden, stats};

/// Seconds one run measures unless told otherwise (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 20;

/// Set-up-only child processes timed from spawn to first op per
/// workload; `setup_s` is their median.
const SETUP_SAMPLES: usize = 7;

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
    /// `--child <workload>`: this process is one measured child.
    child: Option<&'static str>,
    setup_only: bool,
    bless: bool,
}

fn workload_name(name: &str) -> Result<&'static str, String> {
    NAMES.into_iter().find(|&w| w == name).ok_or_else(|| {
        format!(
            "unknown workload `{name}` (expected all or one of {})",
            NAMES.join(", ")
        )
    })
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: NAMES.to_vec(),
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
        child: None,
        setup_only: false,
        bless: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if v != "all" {
                    args.workloads = vec![workload_name(&v)?];
                }
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or("--seconds needs a positive whole number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--child" => args.child = Some(workload_name(&value()?)?),
            "--setup-only" => args.setup_only = true,
            "--bless" => args.bless = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.trace_out.is_some() && !args.trace {
        return Err("--trace-out needs --trace 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("adbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One op at a time: the sweep engine runs serially.
    howsim::sweep::set_default_jobs(1);
    let result = if let Some(workload) = args.child {
        child(workload, &args)
    } else if args.bless {
        bless()
    } else if args.trace {
        census(&args).map(|s| report(&s))
    } else {
        parent(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("adbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// A scratch directory under the working directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Self, String> {
        let dir = Path::new(".adbench-tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using it.
        let _ = std::fs::remove_dir(".adbench-tmp");
    }
}

/// The outcome of one workload run (or of the traced census).
struct Summary {
    label: String,
    /// `(name, unit, value, samples)`.
    metrics: Vec<(String, String, f64, usize)>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    /// Lines printed after the metrics.
    notes: Vec<String>,
}

/// Prints a summary: one aligned line per metric, the failures, and the
/// JSON object as the last line. Returns whether nothing failed.
fn report(s: &Summary) -> bool {
    println!(
        "{}: {} ops attempted, {} failed",
        s.label, s.attempted, s.failed
    );
    for f in &s.failures {
        eprintln!("  FAILED {f}");
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        s.failed == 0,
        s.attempted,
        s.failed
    );
    for (i, (name, unit, value, n)) in s.metrics.iter().enumerate() {
        if *n > 0 {
            println!("  {name:<28} {value:>16.6} {unit:<6} (n={n})");
        } else {
            println!("  {name:<28} {value:>16.6} {unit}");
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    for note in &s.notes {
        println!("  {note}");
    }
    json.push_str("}}");
    println!("{json}");
    s.failed == 0
}

/// A JSON number with every digit of the measurement (JSON has no
/// non-finite numbers; they cannot occur for a completed run).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

// ---------------------------------------------------------------------
// Untraced runs: the parent side.

fn parent(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for &workload in &args.workloads {
        let summary = measure(workload, args)?;
        ok &= report(&summary);
    }
    Ok(ok)
}

/// What one child process printed.
struct ChildRun {
    /// Spawn to the child's `ready` line.
    setup_s: f64,
    lines: Vec<String>,
}

fn spawn_child(workload: &str, args: &Args, setup_only: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating adbench: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stdout(Stdio::piped());
    if setup_only {
        cmd.arg("--setup-only");
    }
    let start = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("spawning a child: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut setup_s = None;
    let mut lines = Vec::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading a child: {e}"))?;
        if line == "ready" && setup_s.is_none() {
            setup_s = Some(start.elapsed().as_secs_f64());
        } else {
            lines.push(line);
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for a child: {e}"))?;
    if !status.success() {
        return Err(format!("{workload}: child process failed ({status})"));
    }
    let setup_s = setup_s.ok_or_else(|| format!("{workload}: child never became ready"))?;
    Ok(ChildRun { setup_s, lines })
}

fn measure(workload: &'static str, args: &Args) -> Result<Summary, String> {
    // Each set-up is scaled by the gauge samples right before and after
    // it; the parent idles while a child runs.
    let mut g = Gauge::default();
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        let before = g.sample();
        let setup_s = spawn_child(workload, args, true)?.setup_s;
        let gauge_ns = (before + g.sample()) / 2;
        setups.push(gauge::scale((setup_s * 1e9) as u64, gauge_ns) / 1e9);
    }
    let run = spawn_child(workload, args, false)?;
    let setup_s = stats::median(&setups).expect("setup samples");
    let mut summary = Summary {
        label: format!("{workload} (seed {}, {} s)", args.seed, args.seconds),
        metrics: vec![("setup_s".into(), "s".into(), setup_s, setups.len())],
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        notes: Vec::new(),
    };
    for line in &run.lines {
        let fields: Vec<&str> = line.split(' ').collect();
        let bad = || format!("{workload}: unexpected child output `{line}`");
        match fields.as_slice() {
            ["metric", name, unit, value, n] => summary.metrics.push((
                (*name).into(),
                (*unit).into(),
                value.parse().map_err(|_| bad())?,
                n.parse().map_err(|_| bad())?,
            )),
            ["ops", attempted, failed] => {
                summary.attempted = attempted.parse().map_err(|_| bad())?;
                summary.failed = failed.parse().map_err(|_| bad())?;
            }
            ["failure", ..] => summary.failures.push(line["failure ".len()..].to_string()),
            ["note", ..] => summary.notes.push(line["note ".len()..].to_string()),
            _ => return Err(bad()),
        }
    }
    if summary.attempted == 0 {
        return Err(format!("{workload}: child reported no ops"));
    }
    Ok(summary)
}

// ---------------------------------------------------------------------
// Untraced runs: the child side.

/// The expected digests of one workload pass: the golden file's when the
/// seed has one, else `None` (the run's first pass becomes the reference).
fn expected_for(seed: u64, workload: &str) -> Result<Option<Vec<(String, u64)>>, String> {
    let goldens = golden::load(seed)?;
    Ok(match goldens {
        Some(g) => Some(g.get(workload).cloned().ok_or_else(|| {
            format!(
                "{}: no entries for {workload}",
                golden::path(seed).display()
            )
        })?),
        None => None,
    })
}

fn child(workload: &'static str, args: &Args) -> Result<bool, String> {
    let scratch = Scratch::new()?;
    let mut rec = Recorder::new(false);
    rec.workload = workload;
    let mut w = workloads::setup(workload, args.seed, &mut rec, &scratch.0);
    println!("ready");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    if args.setup_only {
        return Ok(true);
    }
    let mut expected = expected_for(args.seed, workload)?;

    rec.gauge = Some(Gauge::default());
    w.warm_up(&mut rec);
    let mut warm = rec.take_ops();
    // Every pass runs the same ops, so each op position collects one
    // latency per pass, scaled to the reference host speed. Each op is
    // taken at its median over the passes: a burst of load from another
    // process on the host then moves a few samples, not the result.
    let mut op_ms: Vec<Vec<f64>> = Vec::new();
    let mut raw_ms: Vec<Vec<f64>> = Vec::new();
    let mut gauge_ms: Vec<f64> = Vec::new();
    let mut op_events: Vec<u64> = Vec::new();
    let (mut attempted, mut failed, mut measured) = (0, 0, 0.0);
    while measured < args.seconds as f64 {
        let t = Instant::now();
        w.pass(&mut rec);
        measured += t.elapsed().as_secs_f64();
        let mut ops = rec.take_ops();
        let reference = expected
            .get_or_insert_with(|| ops.iter().map(|o| (o.label.clone(), o.digest)).collect());
        Recorder::verify(&mut ops, reference, &mut rec.failures);
        op_ms.resize(op_ms.len().max(ops.len()), Vec::new());
        raw_ms.resize(op_ms.len(), Vec::new());
        op_events.resize(op_ms.len(), 0);
        for (i, op) in ops.iter().enumerate() {
            op_ms[i].push(gauge::scale(op.ns, op.gauge_ns) / 1e6);
            raw_ms[i].push(op.ns as f64 / 1e6);
            gauge_ms.push(op.gauge_ns as f64 / 1e6);
            op_events[i] = op.events;
        }
        attempted += ops.len();
        failed += ops.iter().filter(|o| o.failed).count();
    }
    Recorder::verify(
        &mut warm,
        expected.as_deref().unwrap_or(&[]),
        &mut rec.failures,
    );
    attempted += warm.len();
    failed += warm.iter().filter(|o| o.failed).count();
    drop(w);

    let typical_ms: Vec<f64> = op_ms.iter().filter_map(|s| stats::midpoint(s)).collect();
    // The simulation calls are the ops that report simulated events.
    let is_sim = |i: &usize| op_events[*i] > 0;
    let sims = || (0..op_ms.len()).filter(is_sim);
    let events: u64 = sims().map(|i| op_events[i]).sum();
    let events_ms: f64 = sims().map(|i| typical_ms[i]).sum();
    let sim_typical: Vec<f64> = sims().map(|i| typical_ms[i]).collect();
    let sim_ms: Vec<f64> = sims().flat_map(|i| op_ms[i].iter().copied()).collect();
    let passes = op_ms.first().map_or(0, Vec::len);
    let n = sim_ms.len();
    let metrics = [
        (
            "wall_s",
            "s",
            Some(typical_ms.iter().sum::<f64>() / 1e3),
            passes,
        ),
        (
            "events_per_s",
            "1/s",
            (events_ms > 0.0).then(|| events as f64 / (events_ms / 1e3)),
            passes,
        ),
        ("sim_ms_p50", "ms", stats::midpoint(&sim_typical), n),
        ("peak_rss_mb", "MB", peak_rss_mb(), 1),
    ];
    for (name, unit, value, n) in metrics {
        let value = value.ok_or_else(|| format!("{workload}: no value for {name}"))?;
        println!("metric {name} {unit} {value:?} {n}");
    }
    let raw_s: f64 = raw_ms
        .iter()
        .filter_map(|s| stats::midpoint(s))
        .sum::<f64>()
        / 1e3;
    println!(
        "note unscaled wall_s {raw_s:.6} s; gauge median {:.4} ms against {:.4} ms nominal (n={})",
        stats::median(&gauge_ms).unwrap_or(0.0),
        gauge::NOMINAL_NS / 1e6,
        gauge_ms.len()
    );
    println!("note simulated events per pass {events}");
    // The tail is printed, not scored: only some workloads run enough
    // ops per run for it to have ten samples beyond it.
    match stats::percentile(&sim_ms, 90.0) {
        Some(p90) => println!("note sim_ms_p90 {p90:.6} ms (n={n})"),
        None => println!("note sim_ms_p90 not reportable: {n} ops leave fewer than 10 beyond it"),
    }
    println!("ops {attempted} {failed}");
    for f in &rec.failures {
        println!("failure {f}");
    }
    // Failures travel in the output; the parent sets the exit code.
    Ok(true)
}

/// The process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

// ---------------------------------------------------------------------
// The traced run and blessing.

/// One traced pass of every workload, `args.workloads[0]` first, in this
/// process: the per-layer metrics, the replay ledger and the tracing
/// overhead.
fn census(args: &Args) -> Result<Summary, String> {
    let scratch = Scratch::new()?;
    let mut rec = Recorder::new(true);
    let mut ledger = Ledger::default();
    let mut metrics: Vec<Metric> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let first = args.workloads[0];
    let order = std::iter::once(first).chain(NAMES.into_iter().filter(|&w| w != first));
    for workload in order {
        rec.workload = workload;
        let mut w = workloads::setup(workload, args.seed, &mut rec, &scratch.0);
        w.warm_up(&mut rec);
        let mut warm = rec.take_ops();
        w.pass(&mut rec);
        let mut ops = rec.take_ops();
        let expected = expected_for(args.seed, workload)?
            .unwrap_or_else(|| ops.iter().map(|o| (o.label.clone(), o.digest)).collect());
        Recorder::verify(&mut warm, &expected, &mut rec.failures);
        Recorder::verify(&mut ops, &expected, &mut rec.failures);
        metrics.extend(w.layer_metrics(&ops, &mut rec, &mut ledger));
        let extra = rec.take_ops();
        for batch in [&warm, &ops, &extra] {
            attempted += batch.len();
            failed += batch.iter().filter(|o| o.failed).count();
        }
    }
    let mut out: Vec<(String, String, f64, usize)> = metrics
        .into_iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.value, 0))
        .collect();
    let mut push = |name: String, unit: &str, value: f64| out.push((name, unit.into(), value, 0));
    push(
        "tasks.plan_calls".into(),
        "count",
        rec.sum("tasks.plan_calls"),
    );
    push("tasks.plan_s".into(), "s", rec.sum("tasks.plan_s"));
    for (layer, cost) in [
        ("diskmodel", ledger.diskmodel),
        ("netmodel", ledger.netmodel),
        ("server", ledger.server),
        ("queue", ledger.queue),
    ] {
        push(format!("{layer}.calls"), "count", cost.calls as f64);
        push(format!("{layer}.ns_per_call"), "ns", cost.ns_per_call());
    }
    push("span.record_ns".into(), "ns", ledger.span.ns_per_call());
    push(
        "ledger.explained_frac".into(),
        "ratio",
        ledger.explained_frac(),
    );
    if let Some(path) = &args.trace_out {
        write_trace(path, rec.spans.as_deref().unwrap_or(&[]))?;
    }
    Ok(Summary {
        label: format!("trace (seed {})", args.seed),
        metrics: out,
        attempted,
        failed,
        failures: rec.failures,
        notes: Vec::new(),
    })
}

/// Writes the outside-in spans as Chrome trace-event JSON: one track per
/// workload, one complete event per op, named by its label and
/// categorized by its layer.
fn write_trace(path: &Path, spans: &[adbench::record::Span]) -> Result<(), String> {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let tid = NAMES.iter().position(|&w| w == s.workload).unwrap_or(0);
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": 1, \"tid\": {tid}, \"args\": {{\"workload\": \"{}\"}}}}{}",
            s.label.replace(['"', '\\'], "_"),
            s.layer,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.workload,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("], \"displayTimeUnit\": \"ms\"}\n");
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// Rewrites the golden files from one pass of every workload per seed.
fn bless() -> Result<bool, String> {
    let scratch = Scratch::new()?;
    for seed in golden::SEEDS {
        let mut passes: Vec<(&str, Vec<Op>)> = Vec::new();
        for workload in NAMES {
            let mut rec = Recorder::new(false);
            rec.workload = workload;
            let mut w = workloads::setup(workload, seed, &mut rec, &scratch.0);
            w.pass(&mut rec);
            if !rec.failures.is_empty() {
                return Err(format!(
                    "{workload} seed {seed} failed its checks: {}",
                    rec.failures.join("; ")
                ));
            }
            passes.push((workload, rec.take_ops()));
        }
        let path = golden::path(seed);
        std::fs::write(&path, golden::render(seed, &passes))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(true)
}
