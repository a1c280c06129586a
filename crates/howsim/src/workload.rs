//! Seeded workload generation and robustness policies for loaded runs.
//!
//! A [`WorkloadSpec`] describes a stream of queries over the eight DSS
//! tasks: an arrival process (open-loop Poisson or closed-loop), a task
//! mix, a query count, and a seed. Generation is fully deterministic —
//! the same spec always yields the same task sequence and arrival times,
//! which is what lets loaded runs stay byte-identical across `--jobs`,
//! queue backends, and cache states (the spec is part of the cache key).
//!
//! [`AdmissionPolicy`] bounds concurrency with an explicit wait queue
//! (overflow is *counted* load shedding, never a silent drop) and
//! [`DeadlinePolicy`] gives each query a deadline with seeded
//! exponential backoff and bounded retries.

use simcore::{Duration, SimTime, SplitMix64};
use tasks::TaskKind;

/// How queries arrive at the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Open loop: exponentially distributed inter-arrival times at
    /// `qps` queries per second, independent of completions.
    Poisson {
        /// Mean arrival rate in queries per second (must be positive).
        qps: f64,
    },
    /// Closed loop: `clients` queries are in flight from time zero; each
    /// completion immediately admits the next query in the sequence.
    Closed {
        /// Number of concurrent clients (must be positive).
        clients: u32,
    },
}

/// A deterministic query workload: arrival process, task mix, count, seed.
///
/// # Example
///
/// ```
/// use howsim::workload::WorkloadSpec;
///
/// let w = WorkloadSpec::parse_spec("poisson:0.5:24@7", "select:2,join:1").unwrap();
/// assert_eq!(w.queries, 24);
/// assert_eq!(w.summary(), "poisson:0.5:24@7 mix=select:2,join:1");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// The arrival process.
    pub arrival: ArrivalProcess,
    /// Task mix as `(task, weight)` pairs (weights need not sum to
    /// anything in particular; zero-weight entries are rejected).
    pub mix: Vec<(TaskKind, u32)>,
    /// Total number of queries generated.
    pub queries: u32,
    /// Seed of the generator streams (task draws, inter-arrival times).
    pub seed: u64,
}

/// Parses a task name as used in mix specs (`select`, `join`, ...).
fn parse_task(name: &str) -> Result<TaskKind, String> {
    TaskKind::ALL
        .into_iter()
        .find(|t| t.name() == name)
        .ok_or_else(|| {
            let names: Vec<&str> = TaskKind::ALL.iter().map(|t| t.name()).collect();
            format!(
                "unknown task '{name}' (expected one of {})",
                names.join(", ")
            )
        })
}

/// Parses a duration literal: `<n>ns`, `<n>us`, `<n>ms`, or `<x>s`. A
/// literal whose nanoseconds do not fit the simulated clock (a `u64`) is
/// an error.
pub fn parse_duration(s: &str) -> Result<Duration, String> {
    let err = || format!("bad duration '{s}' (expected e.g. 120s, 250ms, 10us, 500ns)");
    let overflow = || format!("duration '{s}' overflows the simulated clock");
    let scaled = |v: &str, ns_per_unit: u64| {
        let n: u64 = v.parse().map_err(|_| err())?;
        n.checked_mul(ns_per_unit)
            .map(Duration::from_nanos)
            .ok_or_else(overflow)
    };
    if let Some(v) = s.strip_suffix("ns") {
        return scaled(v, 1);
    }
    if let Some(v) = s.strip_suffix("us") {
        return scaled(v, 1_000);
    }
    if let Some(v) = s.strip_suffix("ms") {
        return scaled(v, 1_000_000);
    }
    if let Some(v) = s.strip_suffix('s') {
        let secs: f64 = v.parse().map_err(|_| err())?;
        if !(secs >= 0.0 && secs.is_finite()) {
            return Err(err());
        }
        return duration_from_secs(secs).ok_or_else(overflow);
    }
    Err(err())
}

/// `secs` seconds as a [`Duration`], or `None` when it is negative, not
/// a number, or rounds to more nanoseconds than a `u64` holds.
pub(crate) fn duration_from_secs(secs: f64) -> Option<Duration> {
    // 2^64 is exact in f64, and the nanosecond count must stay below it.
    let fits = secs >= 0.0 && (secs * 1e9).round() < u64::MAX as f64;
    fits.then(|| Duration::from_secs_f64(secs))
}

/// Renders a duration the way specs write them (integer nanoseconds
/// folded up to the coarsest exact unit), so summaries round-trip.
pub(crate) fn duration_spec(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns == 0 {
        return "0s".into();
    }
    if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else if ns.is_multiple_of(1_000) {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

impl WorkloadSpec {
    /// An open-loop Poisson workload of `queries` single-task queries.
    pub fn poisson(qps: f64, queries: u32) -> Self {
        WorkloadSpec {
            arrival: ArrivalProcess::Poisson { qps },
            mix: vec![(TaskKind::Select, 1)],
            queries,
            seed: 0,
        }
    }

    /// A closed-loop workload of `queries` queries from `clients`
    /// concurrent clients.
    pub fn closed(clients: u32, queries: u32) -> Self {
        WorkloadSpec {
            arrival: ArrivalProcess::Closed { clients },
            mix: vec![(TaskKind::Select, 1)],
            queries,
            seed: 0,
        }
    }

    /// Replaces the task mix.
    #[must_use]
    pub fn with_mix(mut self, mix: Vec<(TaskKind, u32)>) -> Self {
        self.mix = mix;
        self
    }

    /// Replaces the generator seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Parses the CLI form: `--load` is
    /// `poisson:<qps>:<queries>[@seed]` or `closed:<clients>:<queries>[@seed]`,
    /// and `--mix` is `all`, a comma list of task names, or weighted
    /// entries `name:weight` (e.g. `select:2,join:1`).
    pub fn parse_spec(load: &str, mix: &str) -> Result<Self, String> {
        let (head, seed) = match load.split_once('@') {
            Some((h, s)) => (
                h,
                s.parse::<u64>()
                    .map_err(|_| format!("bad seed in load spec '{load}'"))?,
            ),
            None => (load, 0),
        };
        let parts: Vec<&str> = head.split(':').collect();
        let arrival = match parts.as_slice() {
            ["poisson", qps, _] => {
                let qps: f64 = qps
                    .parse()
                    .map_err(|_| format!("bad rate in load spec '{load}'"))?;
                if !(qps > 0.0 && qps.is_finite()) {
                    return Err(format!("arrival rate must be positive, got {qps}"));
                }
                ArrivalProcess::Poisson { qps }
            }
            ["closed", clients, _] => {
                let clients: u32 = clients
                    .parse()
                    .map_err(|_| format!("bad client count in load spec '{load}'"))?;
                if clients == 0 {
                    return Err("closed-loop workload needs at least one client".into());
                }
                ArrivalProcess::Closed { clients }
            }
            _ => {
                return Err(format!(
                    "bad load spec '{load}' (expected poisson:<qps>:<queries>[@seed] \
                     or closed:<clients>:<queries>[@seed])"
                ))
            }
        };
        let queries: u32 = parts[2]
            .parse()
            .map_err(|_| format!("bad query count in load spec '{load}'"))?;
        if queries == 0 {
            return Err("workload needs at least one query".into());
        }
        if let ArrivalProcess::Poisson { qps } = arrival {
            // `arrival_times` draws gaps of at most -ln(2^-53) / qps
            // seconds (`next_f64` has 53 bits); `queries` of them must fit
            // the clock. The pad covers the rounding of up to 2^32 float
            // additions.
            let max_gap = -(2f64.powi(-53)).ln() / qps;
            if duration_from_secs(f64::from(queries) * max_gap * (1.0 + 1e-6)).is_none() {
                return Err(format!(
                    "arrival rate {qps} is too low: {queries} arrivals could overflow \
                     the simulated clock"
                ));
            }
        }
        let mix = Self::parse_mix(mix)?;
        Ok(WorkloadSpec {
            arrival,
            mix,
            queries,
            seed,
        })
    }

    /// Parses a `--mix` string (see [`WorkloadSpec::parse_spec`]).
    pub fn parse_mix(mix: &str) -> Result<Vec<(TaskKind, u32)>, String> {
        if mix == "all" {
            return Ok(TaskKind::ALL.into_iter().map(|t| (t, 1)).collect());
        }
        let mut out = Vec::new();
        for entry in mix.split(',') {
            let (name, weight) = match entry.split_once(':') {
                Some((n, w)) => (
                    n,
                    w.parse::<u32>()
                        .map_err(|_| format!("bad weight in mix entry '{entry}'"))?,
                ),
                None => (entry, 1),
            };
            if weight == 0 {
                return Err(format!("mix entry '{entry}' has zero weight"));
            }
            out.push((parse_task(name)?, weight));
        }
        if out.is_empty() {
            return Err("empty task mix".into());
        }
        Ok(out)
    }

    /// Canonical one-line form; `parse_spec` round-trips it (the part
    /// before `mix=` is the `--load` argument, the part after is
    /// `--mix`). Also the workload's contribution to the cache key.
    pub fn summary(&self) -> String {
        let head = match self.arrival {
            ArrivalProcess::Poisson { qps } => format!("poisson:{qps}:{}", self.queries),
            ArrivalProcess::Closed { clients } => format!("closed:{clients}:{}", self.queries),
        };
        let mix = self
            .mix
            .iter()
            .map(|(t, w)| format!("{}:{w}", t.name()))
            .collect::<Vec<_>>()
            .join(",");
        format!("{head}@{} mix={mix}", self.seed)
    }

    /// The deterministic task sequence: one seeded draw from the mix per
    /// query.
    pub fn tasks(&self) -> Vec<TaskKind> {
        let mut rng = SplitMix64::new(self.seed);
        let total: u64 = self.mix.iter().map(|&(_, w)| u64::from(w)).sum();
        (0..self.queries)
            .map(|_| {
                let mut pick = rng.next_below(total);
                for &(task, w) in &self.mix {
                    if pick < u64::from(w) {
                        return task;
                    }
                    pick -= u64::from(w);
                }
                self.mix.last().expect("non-empty mix").0
            })
            .collect()
    }

    /// The deterministic arrival times. Poisson workloads draw seeded
    /// exponential inter-arrival gaps (inverse CDF); closed-loop
    /// workloads arrive at time zero — the executor gates them on
    /// completions instead.
    pub fn arrival_times(&self) -> Vec<SimTime> {
        match self.arrival {
            ArrivalProcess::Poisson { qps } => {
                // Independent stream from the task draws, so changing the
                // mix never reshuffles arrival times.
                let mut rng = SplitMix64::new(self.seed).split();
                let mut clock = 0.0f64;
                (0..self.queries)
                    .map(|_| {
                        let u = rng.next_f64();
                        clock += -(1.0 - u).ln() / qps;
                        SimTime::ZERO + Duration::from_secs_f64(clock)
                    })
                    .collect()
            }
            ArrivalProcess::Closed { .. } => vec![SimTime::ZERO; self.queries as usize],
        }
    }
}

/// Bounded-concurrency admission control. Queries beyond
/// `max_concurrent` wait in a FIFO queue of depth `queue_limit`; a query
/// arriving when the queue is full is *shed* — rejected immediately,
/// counted in the load report, never silently dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Queries executing concurrently on the machine.
    pub max_concurrent: usize,
    /// Admitted queries waiting for an execution slot.
    pub queue_limit: usize,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_concurrent: 4,
            queue_limit: 16,
        }
    }
}

impl AdmissionPolicy {
    /// Parses the CLI form `<max_concurrent>:<queue_limit>`.
    pub fn parse_spec(s: &str) -> Result<Self, String> {
        let err = || format!("bad admission spec '{s}' (expected <max_concurrent>:<queue_limit>)");
        let (c, q) = s.split_once(':').ok_or_else(err)?;
        let max_concurrent: usize = c.parse().map_err(|_| err())?;
        let queue_limit: usize = q.parse().map_err(|_| err())?;
        if max_concurrent == 0 {
            return Err("admission control needs max_concurrent >= 1".into());
        }
        Ok(AdmissionPolicy {
            max_concurrent,
            queue_limit,
        })
    }

    /// Canonical form; `parse_spec` round-trips it.
    pub fn summary(&self) -> String {
        format!("{}:{}", self.max_concurrent, self.queue_limit)
    }
}

/// Per-query deadline, retry, and backoff policy. A query that misses
/// its deadline is cancelled; if retries remain it restarts after a
/// seeded exponential backoff, otherwise it aborts with a partial
/// report (completed phases are kept).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlinePolicy {
    /// Deadline per attempt (`None` disables timeouts entirely). The
    /// first attempt's clock starts at arrival (queue wait counts);
    /// retries get a fresh full deadline from their restart.
    pub deadline: Option<Duration>,
    /// Retries after the first attempt times out.
    pub max_retries: u32,
    /// Base backoff; attempt `k` waits `backoff * 2^k` plus seeded
    /// jitter of up to 50%.
    pub backoff: Duration,
}

impl Default for DeadlinePolicy {
    fn default() -> Self {
        DeadlinePolicy {
            deadline: None,
            max_retries: 0,
            backoff: Duration::from_secs(10),
        }
    }
}

impl DeadlinePolicy {
    /// Parses the CLI form: `none`, `<deadline>`, or
    /// `<deadline>:<retries>:<backoff>` (e.g. `120s:2:5s`).
    pub fn parse_spec(s: &str) -> Result<Self, String> {
        if s == "none" {
            return Ok(DeadlinePolicy {
                deadline: None,
                ..DeadlinePolicy::default()
            });
        }
        let parts: Vec<&str> = s.split(':').collect();
        match parts.as_slice() {
            [d] => Ok(DeadlinePolicy {
                deadline: Some(parse_duration(d)?),
                ..DeadlinePolicy::default()
            }),
            [d, r, b] => Ok(DeadlinePolicy {
                deadline: Some(parse_duration(d)?),
                max_retries: r
                    .parse()
                    .map_err(|_| format!("bad retry count in deadline spec '{s}'"))?,
                backoff: parse_duration(b)?,
            }),
            _ => Err(format!(
                "bad deadline spec '{s}' (expected none, <deadline>, or \
                 <deadline>:<retries>:<backoff>)"
            )),
        }
    }

    /// Canonical form; `parse_spec` round-trips it.
    pub fn summary(&self) -> String {
        match self.deadline {
            None => "none".into(),
            Some(d) => format!(
                "{}:{}:{}",
                duration_spec(d),
                self.max_retries,
                duration_spec(self.backoff)
            ),
        }
    }

    /// The seeded backoff before retry attempt `attempt` (1-based):
    /// `backoff * 2^(attempt-1)` plus up to 50% jitter drawn from `rng`,
    /// or `None` when that does not fit the clock.
    pub(crate) fn backoff_for(&self, attempt: u32, rng: &mut SplitMix64) -> Option<Duration> {
        let doubled = self
            .backoff
            .as_nanos()
            .checked_mul(1u64 << (attempt - 1).min(20))?;
        let jitter = Duration::from_nanos(doubled).scale(0.5 * rng.next_f64());
        doubled
            .checked_add(jitter.as_nanos())
            .map(Duration::from_nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_spec_round_trips() {
        for (load, mix) in [
            ("poisson:0.5:24@7", "select:2,join:1"),
            ("closed:4:100@0", "sort:1"),
            ("poisson:12:3@999", "select:1,aggregate:3,dmine:2"),
        ] {
            let w = WorkloadSpec::parse_spec(load, mix).expect("parses");
            let summary = w.summary();
            let (l2, m2) = summary.split_once(" mix=").expect("has mix");
            let again = WorkloadSpec::parse_spec(l2, m2).expect("round-trips");
            assert_eq!(w, again, "{summary}");
        }
    }

    #[test]
    fn mix_all_and_unweighted_entries() {
        let all = WorkloadSpec::parse_mix("all").unwrap();
        assert_eq!(all.len(), TaskKind::ALL.len());
        let pair = WorkloadSpec::parse_mix("select,join").unwrap();
        assert_eq!(pair, vec![(TaskKind::Select, 1), (TaskKind::Join, 1)]);
    }

    #[test]
    fn bad_specs_are_rejected_eagerly() {
        assert!(WorkloadSpec::parse_spec("poisson:0:4", "all").is_err());
        assert!(WorkloadSpec::parse_spec("poisson:1:0", "all").is_err());
        assert!(WorkloadSpec::parse_spec("open:1:4", "all").is_err());
        assert!(WorkloadSpec::parse_spec("closed:0:4", "all").is_err());
        assert!(WorkloadSpec::parse_spec("poisson:1:4", "warble").is_err());
        assert!(WorkloadSpec::parse_spec("poisson:1:4", "select:0").is_err());
        assert!(AdmissionPolicy::parse_spec("0:4").is_err());
        assert!(AdmissionPolicy::parse_spec("four").is_err());
        assert!(DeadlinePolicy::parse_spec("120q").is_err());
        assert!(DeadlinePolicy::parse_spec("120s:x:5s").is_err());
    }

    #[test]
    fn same_seed_same_sequence_different_seed_differs() {
        let w = WorkloadSpec::poisson(0.5, 64)
            .with_mix(WorkloadSpec::parse_mix("all").unwrap())
            .with_seed(42);
        assert_eq!(w.tasks(), w.tasks(), "task draws are deterministic");
        assert_eq!(
            w.arrival_times(),
            w.arrival_times(),
            "arrival times are deterministic"
        );
        let other = w.clone().with_seed(43);
        assert_ne!(w.tasks(), other.tasks());
        assert_ne!(w.arrival_times(), other.arrival_times());
    }

    #[test]
    fn poisson_arrivals_are_increasing_at_roughly_the_rate() {
        let w = WorkloadSpec::poisson(2.0, 500).with_seed(1);
        let at = w.arrival_times();
        assert!(at.windows(2).all(|p| p[0] <= p[1]), "nondecreasing");
        let span = at.last().unwrap().since(at[0]).as_secs_f64();
        let rate = 499.0 / span;
        assert!((1.5..2.5).contains(&rate), "measured rate {rate}");
    }

    #[test]
    fn mix_change_does_not_reshuffle_arrivals() {
        let a = WorkloadSpec::poisson(1.0, 16).with_seed(5);
        let b = a
            .clone()
            .with_mix(WorkloadSpec::parse_mix("sort:3,join:1").unwrap());
        assert_eq!(a.arrival_times(), b.arrival_times());
        assert_ne!(a.tasks(), b.tasks());
    }

    #[test]
    fn closed_arrivals_are_all_zero() {
        let w = WorkloadSpec::closed(4, 10);
        assert!(w.arrival_times().iter().all(|&t| t == SimTime::ZERO));
    }

    #[test]
    fn admission_and_deadline_round_trip() {
        let a = AdmissionPolicy::parse_spec("8:32").unwrap();
        assert_eq!(AdmissionPolicy::parse_spec(&a.summary()).unwrap(), a);
        for s in ["none", "120s:2:5s", "250ms:0:10s"] {
            let d = DeadlinePolicy::parse_spec(s).unwrap();
            assert_eq!(DeadlinePolicy::parse_spec(&d.summary()).unwrap(), d);
        }
        assert_eq!(
            DeadlinePolicy::parse_spec("90s").unwrap().summary(),
            "90s:0:10s"
        );
    }

    #[test]
    fn backoff_doubles_with_bounded_jitter() {
        let dl = DeadlinePolicy::parse_spec("10s:3:2s").unwrap();
        let mut rng = SplitMix64::new(9);
        for attempt in 1..=3u32 {
            let base = Duration::from_secs(2) * (1u64 << (attempt - 1));
            let b = dl.backoff_for(attempt, &mut rng).expect("fits the clock");
            assert!(
                b >= base && b <= base + base.scale(0.5),
                "attempt {attempt}: {b}"
            );
        }
    }

    #[test]
    fn backoff_past_the_clock_is_none() {
        let dl = DeadlinePolicy {
            deadline: Some(Duration::from_secs(1)),
            max_retries: 3,
            backoff: Duration::from_nanos(u64::MAX / 2 + 1),
        };
        let mut rng = SplitMix64::new(9);
        assert_eq!(dl.backoff_for(2, &mut rng), None, "the doubling wraps");
        let dl = DeadlinePolicy {
            backoff: Duration::from_nanos(u64::MAX),
            ..dl
        };
        assert_eq!(dl.backoff_for(1, &mut rng), None, "the jitter wraps");
    }

    #[test]
    fn duration_literals_parse_and_render() {
        assert_eq!(parse_duration("120s").unwrap(), Duration::from_secs(120));
        assert_eq!(parse_duration("250ms").unwrap(), Duration::from_millis(250));
        assert_eq!(
            parse_duration("1.5s").unwrap(),
            Duration::from_secs_f64(1.5)
        );
        assert_eq!(duration_spec(Duration::from_millis(1500)), "1500ms");
        assert_eq!(duration_spec(Duration::from_secs(3)), "3s");
    }

    #[test]
    fn millisecond_literal_past_the_clock_is_an_error() {
        // 18446744073710 ms is 10^6 ns past u64::MAX; wrapped, it would
        // read as a 448 us deadline.
        assert!(parse_duration("18446744073710ms").is_err());
        assert!(DeadlinePolicy::parse_spec("18446744073710ms").is_err());
        assert_eq!(
            parse_duration("18446744073709ms").unwrap().as_nanos(),
            18_446_744_073_709_000_000
        );
    }

    #[test]
    fn microsecond_literal_past_the_clock_is_an_error() {
        assert!(parse_duration("18446744073709552us").is_err());
        assert_eq!(
            parse_duration("18446744073709551us").unwrap().as_nanos(),
            18_446_744_073_709_551_000
        );
        assert_eq!(
            parse_duration("18446744073709551615ns").unwrap().as_nanos(),
            u64::MAX
        );
    }

    #[test]
    fn seconds_literal_past_the_clock_is_an_error() {
        // Saturated, 1e20 s would read as u64::MAX ns.
        assert!(parse_duration("1e20s").is_err());
        assert!(parse_duration("18446744074s").is_err());
        // Within one f64 step (2048 ns up here) of the exact count.
        let d = parse_duration("18446744073s").unwrap();
        assert!(d.as_nanos().abs_diff(18_446_744_073_000_000_000) <= 2048);
    }

    #[test]
    fn poisson_rate_too_low_for_the_clock_is_rejected() {
        // At 5e-324 qps the first gap alone is infinite, which
        // `arrival_times` cannot turn into a time.
        assert!(WorkloadSpec::parse_spec("poisson:5e-324:3", "select").is_err());
        let w = WorkloadSpec::parse_spec("poisson:1e-6:3", "select").unwrap();
        assert_eq!(w.arrival_times().len(), 3);
    }
}
