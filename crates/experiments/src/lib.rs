//! Experiment drivers that regenerate every table and figure of the
//! paper's evaluation section.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — cost evolution of 64-node configurations |
//! | [`table2`] | Table 2 — dataset characteristics |
//! | [`fig1`] | Figure 1 — 8 tasks × 3 architectures × 4 sizes |
//! | [`fig2`] | Figure 2 — 200 vs 400 MB/s I/O interconnect |
//! | [`fig3`] | Figure 3 — sort execution breakdown |
//! | [`fig4`] | Figure 4 — impact of disk memory |
//! | [`fig5`] | Figure 5 — restricted communication architecture |
//! | [`beyond64`] | Extension — the paper's FibreSwitch recommendation, evaluated |
//! | [`skew`] | Extension — repartitioning under Zipf key skew |
//! | [`growth`] | Extension — the overnight-mining window under data growth |
//! | [`sensitivity`] | Extension — robustness to the CPU calibration |
//! | [`availability`] | Extension — degraded-mode availability under injected faults |
//! | [`loadsweep`] | Extension — overload robustness under multi-query load |
//!
//! Each module exposes `run()` returning plain data and `render()`
//! producing the aligned text table printed by the `experiments` binary.
//! Absolute times are this simulator's, not the authors' testbed's; the
//! *shape* (who wins, by what factor, where crossovers fall) is the
//! reproduction target, recorded in `EXPERIMENTS.md`.

#![warn(missing_docs)]

pub mod availability;
pub mod beyond64;
pub mod csv;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod growth;
pub mod loadsweep;
pub mod manifests;
pub mod sensitivity;
pub mod skew;
pub mod table1;
pub mod table2;

/// The configuration sizes shared by the figure experiments.
pub use arch::PAPER_SIZES;

use arch::Architecture;

/// The three architectures every grid compares, at `disks` nodes, in
/// output order (Active Disks, cluster, SMP); label each with
/// [`Architecture::short_name`].
pub fn architectures(disks: usize) -> [Architecture; 3] {
    [
        Architecture::active_disks(disks),
        Architecture::cluster(disks),
        Architecture::smp(disks),
    ]
}

/// Formats a ratio for table cells.
pub fn cell(x: f64) -> String {
    format!("{x:.2}")
}

/// Renders one aligned text table: a header row plus body rows.
pub fn render_table(title: &str, header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (i, c) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(header));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Serializes tests that toggle the global result cache (disabling it for
/// a from-scratch differential pass) so they cannot race each other's
/// cache-hit assertions.
#[cfg(test)]
pub(crate) static CACHE_TOGGLE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let t = render_table(
            "T",
            &["a".into(), "bb".into()],
            &[
                vec!["1".into(), "2".into()],
                vec!["10".into(), "200".into()],
            ],
        );
        assert!(t.contains("T\n"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[3].len(), lines[4].len(), "rows align");
    }

    #[test]
    fn cell_formats_two_decimals() {
        assert_eq!(cell(1.0), "1.00");
        assert_eq!(cell(0.456), "0.46");
    }
}
