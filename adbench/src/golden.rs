//! Golden digest files: `golden/seed-<n>.txt`, one line per op of one
//! pass, `<workload> <label> <digest>`. Seed 0 is the development seed;
//! seed 1 is held out. `adbench --bless` rewrites both.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use crate::record::Op;

/// The seeds that have golden files.
pub const SEEDS: [u64; 2] = [0, 1];

/// Expected `(label, digest)` pairs of one pass, per workload.
pub type Goldens = BTreeMap<String, Vec<(String, u64)>>;

/// The golden file of `seed`.
pub fn path(seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("seed-{seed}.txt"))
}

/// Parses a golden file.
pub fn parse(text: &str) -> Result<Goldens, String> {
    let mut out = Goldens::new();
    for (n, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let bad = || format!("line {}: expected `<workload> <label> <digest>`", n + 1);
        let mut fields = line.split(' ');
        let (Some(workload), Some(label), Some(hex), None) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            return Err(bad());
        };
        let digest = u64::from_str_radix(hex, 16).map_err(|_| bad())?;
        out.entry(workload.to_string())
            .or_default()
            .push((label.to_string(), digest));
    }
    Ok(out)
}

/// The goldens of `seed`: `Ok(None)` when the seed has no file.
pub fn load(seed: u64) -> Result<Option<Goldens>, String> {
    match std::fs::read_to_string(path(seed)) {
        Ok(text) => parse(&text).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("{}: {e}", path(seed).display())),
    }
}

/// Renders the goldens of `seed` from one pass of each workload.
pub fn render(seed: u64, passes: &[(&str, Vec<Op>)]) -> String {
    let mut out = format!(
        "# adbench golden digests, seed {seed}: one pass of each workload.\n\
         # Regenerate with `adbench --bless` (see adbench/README.md).\n"
    );
    for (workload, ops) in passes {
        for op in ops {
            let _ = writeln!(out, "{workload} {} {:016x}", op.label, op.digest);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let op = |label: &str, digest| Op {
            label: label.into(),
            ns: 1,
            gauge_ns: 0,
            events: 2,
            digest,
            failed: false,
        };
        let text = render(
            7,
            &[
                ("a", vec![op("x-1", 1), op("y", u64::MAX)]),
                ("b", vec![op("z", 0xabc)]),
            ],
        );
        let g = parse(&text).unwrap();
        assert_eq!(g["a"], vec![("x-1".into(), 1), ("y".into(), u64::MAX)]);
        assert_eq!(g["b"], vec![("z".into(), 0xabc)]);
        assert!(parse("a b").is_err());
        assert!(parse("a b zz").is_err());
        assert!(parse("a b 1 extra").is_err());
    }
}
