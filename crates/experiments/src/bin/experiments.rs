//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! experiments [--table1] [--table2] [--fig1] [--fig2] [--fig3] [--fig4]
//!             [--fig5] [--beyond64] [--skew] [--growth] [--sensitivity]
//!             [--availability] [--loadsweep] [--ablations] [--quick]
//!             [--csv] [--all] [--jobs N] [--metrics-out FILE] [--cache]
//!             [--no-cache]
//! ```
//!
//! With no arguments, everything is regenerated (`--all`). Any other
//! argument is an error (exit status 2) before anything runs. `--quick`
//! restricts the figure sweeps to 16- and 64-disk configurations.
//! `--jobs N` sets the sweep worker count (default: all cores); the
//! output is byte-identical for any worker count. `--metrics-out FILE`
//! additionally sweeps select/sort/join over the figure sizes and
//! writes one `howsim-sweep/v1` manifest document aggregating every
//! run's bottleneck attribution.
//!
//! Overlapping sweep points (the figure sweeps share many configurations)
//! simulate once per invocation via the in-memory result cache; a
//! hit/miss summary is logged at exit. `--cache` additionally persists
//! results under `results/.simcache/` so later invocations start warm
//! (wipe by deleting that directory); `--no-cache` disables caching
//! entirely. The output bytes are identical either way.

use std::env;
use std::fs;
use std::path::Path;

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

fn write_csv(enabled: bool, name: &str, contents: &str) {
    if !enabled {
        return;
    }
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    fs::write(&path, contents).expect("write csv");
    eprintln!("wrote {}", path.display());
}

/// Section and mode flags. `--jobs N`, `--metrics-out FILE`, `--cache`
/// and `--no-cache` are taken off the command line before these.
const FLAGS: &str = "--table1 --table2 --fig1 --fig2 --fig3 --fig4 --fig5 --beyond64 --skew \
                     --growth --sensitivity --availability --loadsweep --ablations --quick --csv --all";

fn main() {
    let mut args: Vec<String> = env::args().skip(1).collect();
    // `--jobs N` configures the sweep engine and is not a section flag.
    while let Some(i) = args.iter().position(|a| a == "--jobs") {
        let n: usize = match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(n) if n > 0 => n,
            _ => {
                eprintln!("error: --jobs needs a positive integer");
                std::process::exit(2);
            }
        };
        howsim::sweep::set_default_jobs(n);
        args.drain(i..=i + 1);
    }
    // `--metrics-out FILE` requests a sweep manifest and is not a
    // section flag either.
    let mut metrics_out: Option<String> = None;
    while let Some(i) = args.iter().position(|a| a == "--metrics-out") {
        match args.get(i + 1) {
            Some(path) if !path.starts_with("--") => metrics_out = Some(path.clone()),
            _ => {
                eprintln!("error: --metrics-out needs a file path");
                std::process::exit(2);
            }
        }
        args.drain(i..=i + 1);
    }
    // `--cache`/`--no-cache` configure the result cache; not section
    // flags. The in-memory tier is on by default; `--cache` adds the
    // on-disk tier and `--no-cache` turns everything off.
    if args.iter().any(|a| a == "--cache") {
        howsim::cache::set_disk_dir(Some(howsim::cache::default_disk_dir()));
    }
    if args.iter().any(|a| a == "--no-cache") {
        howsim::cache::set_enabled(false);
    }
    args.retain(|a| a != "--cache" && a != "--no-cache");
    if let Some(bad) = args.iter().find(|a| !FLAGS.split(' ').any(|f| f == *a)) {
        eprintln!(
            "error: unknown argument `{bad}`\nusage: experiments [{}] [--jobs N] \
             [--metrics-out FILE] [--cache] [--no-cache]",
            FLAGS.replace(' ', "] [")
        );
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let csv = args.iter().any(|a| a == "--csv");
    let all = args.is_empty() || args.iter().any(|a| a == "--all");
    let want = |flag: &str| all || args.iter().any(|a| a == flag);
    let sizes: &[usize] = if quick { &[16, 64] } else { &[16, 32, 64, 128] };
    let fig2_sizes: &[usize] = if quick { &[64] } else { &[64, 128] };
    let fig5_sizes: &[usize] = if quick { &[64] } else { &[32, 64, 128] };

    if want("--table1") {
        outln!(
            "{}",
            experiments::table1::render(&experiments::table1::run())
        );
    }
    if want("--table2") {
        outln!(
            "{}",
            experiments::table2::render(&experiments::table2::run())
        );
    }
    if want("--fig1") {
        let cells = experiments::fig1::run_sizes(sizes);
        outln!("{}", experiments::fig1::render(&cells));
        write_csv(csv, "fig1.csv", &experiments::csv::fig1(&cells));
    }
    if want("--fig2") {
        let cells = experiments::fig2::run_sizes(fig2_sizes);
        outln!("{}", experiments::fig2::render(&cells));
        write_csv(csv, "fig2.csv", &experiments::csv::fig2(&cells));
    }
    if want("--fig3") {
        let rows = experiments::fig3::run_sizes(sizes);
        outln!("{}", experiments::fig3::render(&rows));
        write_csv(csv, "fig3.csv", &experiments::csv::fig3(&rows));
    }
    if want("--fig4") {
        let cells = experiments::fig4::run_memory(sizes, 64);
        outln!("{}", experiments::fig4::render(&cells));
        write_csv(csv, "fig4.csv", &experiments::csv::fig4(&cells));
    }
    if want("--fig5") {
        let cells = experiments::fig5::run_sizes(fig5_sizes);
        outln!("{}", experiments::fig5::render(&cells));
        write_csv(csv, "fig5.csv", &experiments::csv::fig5(&cells));
    }
    if want("--beyond64") {
        let rows = if quick {
            experiments::beyond64::run_sizes(&[64, 128])
        } else {
            experiments::beyond64::run()
        };
        outln!("{}", experiments::beyond64::render(&rows));
        write_csv(csv, "beyond64.csv", &experiments::csv::beyond64(&rows));
    }
    if want("--growth") {
        let rows = if quick {
            experiments::growth::run_scales(16, &[1, 4])
        } else {
            experiments::growth::run()
        };
        outln!("{}", experiments::growth::render(&rows));
    }
    if want("--skew") {
        let rows = if quick {
            experiments::skew::run_thetas(16, &[0.0, 1.0])
        } else {
            experiments::skew::run()
        };
        outln!("{}", experiments::skew::render(&rows));
    }
    if want("--availability") {
        use tasks::TaskKind;
        let rows = if quick {
            experiments::availability::run_configs(16, &[TaskKind::Select, TaskKind::Sort])
        } else {
            experiments::availability::run()
        };
        outln!("{}", experiments::availability::render(&rows));
        write_csv(
            csv,
            "availability.csv",
            &experiments::csv::availability(&rows),
        );
    }
    if want("--loadsweep") {
        let (rows, summaries) = if quick {
            experiments::loadsweep::run_configs(
                16,
                8,
                &experiments::loadsweep::MIXES[..1],
                &[0.5, 2.0],
            )
        } else {
            experiments::loadsweep::run()
        };
        outln!("{}", experiments::loadsweep::render(&rows, &summaries));
        write_csv(csv, "loadsweep.csv", &experiments::csv::loadsweep(&rows));
    }
    if want("--sensitivity") {
        let rows = if quick {
            experiments::sensitivity::run_scales(16, &[0.5, 2.0])
        } else {
            experiments::sensitivity::run()
        };
        outln!("{}", experiments::sensitivity::render(&rows));
    }
    if want("--ablations") {
        ablations(sizes);
    }
    if let Some(path) = metrics_out {
        use tasks::TaskKind;
        let grid_tasks = [TaskKind::Select, TaskKind::Sort, TaskKind::Join];
        let manifests = experiments::manifests::run_grid(&grid_tasks, sizes);
        let json = experiments::manifests::to_json(&manifests);
        fs::write(&path, json).expect("write sweep manifest");
        eprintln!("wrote sweep manifest ({} runs) to {path}", manifests.len());
    }
    if howsim::cache::enabled() {
        let s = howsim::cache::stats();
        eprintln!(
            "cache: {} points served from cache, {} simulated ({} from disk)",
            s.hits, s.misses, s.disk_hits
        );
    }
}

/// Extra design-space sweeps the paper describes in prose: 128 MB disk
/// memory, the 1 GHz front-end, and Fast Disks for every task.
fn ablations(sizes: &[usize]) {
    use arch::Architecture;
    use howsim::cache;
    use tasks::TaskKind;

    outln!("Ablation: 128 MB disk memory (vs 32 MB)");
    let cells = experiments::fig4::run_memory(sizes, 128);
    outln!("{}", experiments::fig4::render(&cells));

    outln!("Ablation: 1 GHz front-end (vs 450 MHz), % improvement");
    for &disks in sizes {
        for task in TaskKind::ALL {
            let base = cache::run(&Architecture::active_disks(disks), task)
                .elapsed()
                .as_secs_f64();
            let fast = cache::run(
                &Architecture::active_disks(disks)
                    .with_front_end(arch::ProcessorSpec::front_end_1ghz()),
                task,
            )
            .elapsed()
            .as_secs_f64();
            outln!(
                "  {:>10} @ {:>3} disks: {:+.1}%",
                task.name(),
                disks,
                (1.0 - fast / base) * 100.0
            );
        }
    }
    outln!();

    outln!("Ablation: next-generation embedded processor (2x Cyrix), % improvement");
    for &disks in sizes {
        for task in TaskKind::ALL {
            let base = cache::run(&Architecture::active_disks(disks), task)
                .elapsed()
                .as_secs_f64();
            let fast = cache::run(
                &Architecture::active_disks(disks)
                    .with_embedded_cpu(arch::ProcessorSpec::embedded_next_gen()),
                task,
            )
            .elapsed()
            .as_secs_f64();
            outln!(
                "  {:>10} @ {:>3} disks: {:+.1}%",
                task.name(),
                disks,
                (1.0 - fast / base) * 100.0
            );
        }
    }
    outln!();

    outln!("Ablation: Hitachi Fast Disks (vs Cheetah 9LP), % improvement");
    for &disks in sizes {
        for task in TaskKind::ALL {
            let base = cache::run(&Architecture::active_disks(disks), task)
                .elapsed()
                .as_secs_f64();
            let fast = cache::run(
                &Architecture::active_disks(disks)
                    .with_disk_spec(diskmodel::DiskSpec::hitachi_dk3e1t_91()),
                task,
            )
            .elapsed()
            .as_secs_f64();
            outln!(
                "  {:>10} @ {:>3} disks: {:+.1}%",
                task.name(),
                disks,
                (1.0 - fast / base) * 100.0
            );
        }
    }
}
