//! Mutation property for the CLI spec parsers: fault, workload (load and
//! mix), admission and deadline specs, and duration literals.
//!
//! Every parser gets arbitrary bytes plus bit flips, truncations and
//! splices of valid specs. Each must return `Err` or a value that means
//! what its text says: inside its documented ranges, equal to its own
//! `summary()` re-parsed where that is documented to round-trip, and (for
//! a workload) with arrival times that neither panic nor overflow the
//! clock.

use howsim::{
    parse_duration, AdmissionPolicy, ArrivalProcess, DeadlinePolicy, FaultKind, FaultPlan,
    WorkloadSpec,
};
use proptest::prelude::*;
use simcore::{Duration, SplitMix64};

/// Valid specs of every parser. Field splices carry their extreme but
/// valid numbers (`5e-324`, `1e300`, the largest literals that fit) into
/// the other specs' fields.
const CORPUS: &[&str] = &[
    "120s",
    "250ms",
    "10us",
    "500ns",
    "1.5s",
    "0s",
    "18446744073709ms",
    "18446744073709551us",
    "18446744073709551615ns",
    "18446744073s",
    "disk:3@2.5s",
    "slow:0@750ms:128",
    "link:7@4:0.25",
    "disk:0@0",
    "link:1@18446744073s:5e-324",
    "slow:2@1e3:0",
    "poisson:0.5:24@7",
    "closed:4:100@0",
    "poisson:12:3@999",
    "poisson:1e300:1",
    "poisson:5e-9:1",
    "closed:1:1",
    "select:2,join:1",
    "all",
    "sort",
    "select,join",
    "dmine:4294967295",
    "8:32",
    "1:0",
    "none",
    "120s:2:5s",
    "250ms:0:10s",
    "90s",
    "18446744073709551615ns:4294967295:0s",
];

/// Workloads with more queries than this are checked without generating
/// their arrivals (a mutated count can reach 2^32 - 1).
const MAX_GENERATED: u32 = 10_000;

/// Checks `secs`, as a literal denotes it, against the duration a parser
/// returned for it: the nanoseconds must fit a `u64`, and the value must
/// be the literal's (no saturation).
fn check_secs(secs: f64, got: Duration, text: &str) {
    let ns = (secs * 1e9).round();
    assert!(
        secs >= 0.0 && ns < u64::MAX as f64,
        "'{text}' accepted past the clock as {got}"
    );
    assert_eq!(got, Duration::from_secs_f64(secs), "'{text}'");
}

/// `parse_duration` accepts only what its literal means.
fn check_duration(text: &str) {
    let Ok(got) = parse_duration(text) else {
        return;
    };
    for (unit, ns_per_unit) in [("ns", 1u128), ("us", 1_000), ("ms", 1_000_000)] {
        if let Some(n) = text.strip_suffix(unit) {
            let n: u128 = n.parse().expect("accepted integer literal");
            let ns = n * ns_per_unit;
            assert!(ns <= u128::from(u64::MAX), "'{text}' wrapped to {got}");
            assert_eq!(u128::from(got.as_nanos()), ns, "'{text}'");
            return;
        }
    }
    let secs: f64 = text
        .strip_suffix('s')
        .expect("a seconds literal")
        .parse()
        .expect("accepted seconds literal");
    check_secs(secs, got, text);
}

/// A fault spec is one event of the named kind, on the named node, at
/// the time its literal means, with its defect count or a severity in
/// `(0, 1]`.
fn check_fault(text: &str) {
    let Ok(plan) = FaultPlan::parse_spec(text) else {
        return;
    };
    let [ev] = plan.events() else {
        panic!("'{text}' parsed to {} events", plan.events().len());
    };
    let (kind, rest) = text.split_once(':').expect("accepted spec has a kind");
    let (node, tail) = rest.split_once('@').expect("accepted spec has a time");
    let node: usize = node.parse().expect("accepted node");
    let (time, arg) = match tail.split_once(':') {
        Some((time, arg)) => (time, Some(arg)),
        None => (tail, None),
    };
    let (num, scale) = match (time.strip_suffix("ms"), time.strip_suffix('s')) {
        (Some(ms), _) => (ms, 1e-3),
        (None, Some(s)) => (s, 1.0),
        (None, None) => (time, 1.0),
    };
    let value: f64 = num.parse().expect("accepted time");
    check_secs(value * scale, ev.at, text);
    match (kind, ev.kind, arg) {
        ("disk", FaultKind::DiskFailStop { node: n }, None) => assert_eq!(n, node),
        ("slow", FaultKind::MediaBurst { node: n, defects }, Some(arg)) => {
            assert_eq!((n, arg.parse()), (node, Ok(defects)), "'{text}'");
        }
        ("link", FaultKind::LinkFault { node: n, severity }, Some(_)) => {
            assert_eq!(n, node);
            assert!(severity > 0.0 && severity <= 1.0, "'{text}': {severity}");
        }
        other => panic!("'{text}' parsed to the wrong kind: {other:?}"),
    }
}

/// An accepted workload is inside its ranges, round-trips through its
/// summary, and generates its tasks and arrivals without panicking or
/// saturating the clock.
fn check_workload(load: &str, mix: &str) {
    let Ok(w) = WorkloadSpec::parse_spec(load, mix) else {
        return;
    };
    match w.arrival {
        ArrivalProcess::Poisson { qps } => assert!(qps > 0.0 && qps.is_finite(), "{qps}"),
        ArrivalProcess::Closed { clients } => assert!(clients >= 1),
    }
    assert!(w.queries >= 1);
    assert!(!w.mix.is_empty() && w.mix.iter().all(|&(_, weight)| weight >= 1));
    let summary = w.summary();
    let (l2, m2) = summary.split_once(" mix=").expect("summary has a mix");
    assert_eq!(
        WorkloadSpec::parse_spec(l2, m2).as_ref(),
        Ok(&w),
        "'{load}' '{mix}' via '{summary}'"
    );
    if w.queries <= MAX_GENERATED {
        assert_eq!(w.tasks().len(), w.queries as usize);
        let arrivals = w.arrival_times();
        assert_eq!(arrivals.len(), w.queries as usize);
        assert!(arrivals.windows(2).all(|p| p[0] <= p[1]), "'{load}'");
        // No gap rounds to u64::MAX ns honestly (the largest f64 below
        // 2^64 is 2^64 - 2048): an arrival there saturated.
        let last = arrivals.last().expect("at least one query");
        assert!(last.as_nanos() < u64::MAX, "'{load}' saturated the clock");
    }
}

/// An accepted admission policy admits at least one query and
/// round-trips through its summary.
fn check_admission(text: &str) {
    let Ok(a) = AdmissionPolicy::parse_spec(text) else {
        return;
    };
    assert!(a.max_concurrent >= 1, "'{text}'");
    assert_eq!(AdmissionPolicy::parse_spec(&a.summary()), Ok(a), "'{text}'");
}

/// An accepted deadline policy round-trips through its summary; its
/// durations are the literals' own (checked by [`check_duration`]).
fn check_deadline(text: &str) {
    let Ok(d) = DeadlinePolicy::parse_spec(text) else {
        return;
    };
    for part in text.split(':').filter(|p| p.ends_with('s')) {
        check_duration(part);
    }
    assert_eq!(DeadlinePolicy::parse_spec(&d.summary()), Ok(d), "'{text}'");
}

/// Feeds `text` to every parser: as each spec, and as the load and the
/// mix of a workload whose other half is valid.
fn check_all(text: &str) {
    check_duration(text);
    check_fault(text);
    check_workload(text, "select:2,join:1");
    check_workload("poisson:0.5:24@7", text);
    check_admission(text);
    check_deadline(text);
}

/// Splits a spec into fields, each keeping the separator that ends it.
fn fields(spec: &str) -> Vec<&str> {
    spec.split_inclusive([':', '@', ',']).collect()
}

/// A mutation of corpus entry `a`: a bit flip, a truncation, a byte
/// splice with entry `b`, a field of `a` replaced by a field of `b`, or
/// arbitrary bytes.
fn mutate(kind: u8, a: &str, b: &str, x: u64, y: u64) -> Vec<u8> {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    match kind {
        0 => {
            let mut v = a.to_vec();
            v[(x % a.len() as u64) as usize] ^= 1 << (y % 8);
            v
        }
        1 => a[..(x % (a.len() as u64 + 1)) as usize].to_vec(),
        2 => {
            let mut v = a[..(x % (a.len() as u64 + 1)) as usize].to_vec();
            v.extend_from_slice(&b[(y % (b.len() as u64 + 1)) as usize..]);
            v
        }
        3 => {
            let (a, b) = (
                std::str::from_utf8(a).unwrap(),
                std::str::from_utf8(b).unwrap(),
            );
            let mut fa = fields(a);
            let fb = fields(b);
            let i = (x % fa.len() as u64) as usize;
            let donor = fb[(y % fb.len() as u64) as usize];
            // Keep the slot's own separator so the spec's shape stays.
            let sep = fa[i].len() - fa[i].trim_end_matches([':', '@', ',']).len();
            let body = donor.trim_end_matches([':', '@', ',']);
            let slot = format!("{body}{}", &fa[i][fa[i].len() - sep..]);
            fa[i] = &slot;
            fa.concat().into_bytes()
        }
        _ => {
            let mut rng = SplitMix64::new(x);
            (0..y % 48).map(|_| rng.next_below(256) as u8).collect()
        }
    }
}

#[test]
fn corpus_specs_hold_the_checks() {
    for spec in CORPUS {
        check_all(spec);
    }
}

/// Literals a parser could wrap (`18446744073710ms` read as 448 us),
/// saturate (`1e20s`, a fault at `1e300` s) or pass on to a later panic
/// (`arrival_times` of a 5e-324 qps workload).
#[test]
fn bugfix_literals_hold_the_checks() {
    for text in [
        "18446744073710ms",
        "18446744073709552us",
        "1e20s",
        "disk:1@1e300",
        "18446744073710ms:1:5s",
    ] {
        check_all(text);
    }
    check_workload("poisson:5e-324:3", "select");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn prop_mutated_specs_are_rejected_or_mean_what_they_say(
        kind in 0u8..5,
        a in 0usize..1024,
        b in 0usize..1024,
        x in 0u64..u64::MAX,
        y in 0u64..u64::MAX,
    ) {
        let bytes = mutate(kind, CORPUS[a % CORPUS.len()], CORPUS[b % CORPUS.len()], x, y);
        // Specs arrive as command-line strings: invalid UTF-8 never
        // reaches a parser.
        if let Ok(text) = std::str::from_utf8(&bytes) {
            check_all(text);
        }
    }
}
