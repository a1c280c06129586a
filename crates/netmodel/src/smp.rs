//! SMP interconnect and I/O subsystem models (SGI Origin 2000-like).
//!
//! The paper's SMP configuration (Section 2.1): two-processor boards
//! sharing 128 MB, joined by a 1 µs / 780 MB/s interconnect with a 521 MB/s
//! sustained block-transfer engine; a high-bandwidth XIO-like I/O subsystem
//! (two I/O nodes, 1.4 GB/s total); and a dual-loop Fibre Channel I/O
//! interconnect (200 MB/s) for **all** disks. Every byte moved between a
//! disk and memory crosses the FC loop — this is the structural bottleneck
//! the paper identifies for SMP decision support at scale.

use simcore::state::{StateError, StateReader, StateWriter};
use simcore::{Bandwidth, Duration, FifoServer, MultiServer, SimTime};

use crate::fcloop::FcLoop;

/// Inter-board memory fabric: per-board block-transfer engines over
/// low-latency links.
///
/// # Example
///
/// ```
/// use netmodel::SmpFabric;
/// use simcore::SimTime;
///
/// let mut fabric = SmpFabric::new(32); // 64 processors = 32 boards
/// let t = fabric.block_transfer(SimTime::ZERO, 0, 5, 1_000_000, "shuffle");
/// assert!(t.as_secs_f64() > 1.0e6 / 521e6 / 1e3, "at most 521 MB/s per board");
/// ```
#[derive(Debug, Clone)]
pub struct SmpFabric {
    boards: usize,
    bte: Vec<FifoServer>,
    bte_rate: Bandwidth,
    link_latency: Duration,
    bytes: u64,
}

impl SmpFabric {
    /// Creates a fabric for `boards` two-processor boards.
    ///
    /// # Panics
    ///
    /// Panics if `boards == 0`.
    pub fn new(boards: usize) -> Self {
        assert!(boards > 0, "need at least one board");
        SmpFabric {
            boards,
            bte: vec![FifoServer::new(); boards],
            bte_rate: Bandwidth::from_mb_per_sec(521.0),
            link_latency: Duration::from_micros(1),
            bytes: 0,
        }
    }

    /// Number of boards.
    pub fn boards(&self) -> usize {
        self.boards
    }

    /// One-way block transfer (shmemput-style) of `bytes` from `src_board`
    /// to `dst_board`. Same-board transfers are plain memory copies at the
    /// block-engine rate without the link latency.
    ///
    /// # Panics
    ///
    /// Panics if a board index is out of range.
    pub fn block_transfer(
        &mut self,
        now: SimTime,
        src_board: usize,
        dst_board: usize,
        bytes: u64,
        tag: &'static str,
    ) -> SimTime {
        assert!(
            src_board < self.boards && dst_board < self.boards,
            "board out of range"
        );
        let grant = self.bte[src_board].offer(now, self.bte_rate.transfer_time(bytes), tag);
        self.bytes += bytes;
        if src_board == dst_board {
            grant.end
        } else {
            grant.end + self.link_latency
        }
    }

    /// Total bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes
    }

    /// Cumulative block-transfer-engine busy time summed across boards.
    pub fn busy_total(&self) -> Duration {
        self.bte.iter().map(FifoServer::busy_total).sum()
    }

    /// Cumulative queueing time at the block-transfer engines.
    pub fn wait_total(&self) -> Duration {
        self.bte.iter().map(FifoServer::wait_total).sum()
    }

    /// Serializes the fabric's mutable state for checkpointing (byte
    /// counter, then every board's block-transfer engine).
    pub fn save_state(&self, w: &mut StateWriter) {
        w.field("bytes", self.bytes);
        for s in &self.bte {
            s.save_state(w);
        }
    }

    /// Restores state saved by [`SmpFabric::save_state`] into a fabric
    /// built for the same board count.
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.bytes = r.num("bytes")?;
        for s in &mut self.bte {
            *s = FifoServer::load_state(r)?;
        }
        Ok(())
    }
}

/// The I/O complex: a (dual) FC loop in front of an XIO-like pair of I/O
/// nodes. All disk traffic, reads and writes, crosses both.
///
/// # Example
///
/// ```
/// use netmodel::SmpIoSubsystem;
/// use simcore::{Bandwidth, SimTime};
///
/// let mut io = SmpIoSubsystem::new(Bandwidth::from_mb_per_sec(200.0));
/// let t = io.disk_transfer(SimTime::ZERO, 0, 256 * 1024, "read");
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct SmpIoSubsystem {
    fc: FcLoop,
    xio: MultiServer,
    xio_rate: Bandwidth,
    /// Memoized `(bytes, xio_rate.transfer_time(bytes))` of the last
    /// transfer: the stripe moves fixed 64 KB chunks, so this skips the
    /// float division per chunk with the same expression's value.
    xio_memo: Option<(u64, Duration)>,
}

impl SmpIoSubsystem {
    /// Creates the I/O complex with the given aggregate FC loop bandwidth
    /// (200 MB/s baseline; 400 MB/s in the Figure 2 variation).
    pub fn new(fc_aggregate: Bandwidth) -> Self {
        SmpIoSubsystem {
            fc: FcLoop::dual(fc_aggregate),
            // Two I/O nodes, 1.4 GB/s total.
            xio: MultiServer::new(2),
            xio_rate: Bandwidth::from_mb_per_sec(700.0),
            xio_memo: None,
        }
    }

    /// Moves `bytes` between a disk attached at loop position `disk` and
    /// host memory; returns completion time.
    pub fn disk_transfer(
        &mut self,
        now: SimTime,
        disk: usize,
        bytes: u64,
        tag: &'static str,
    ) -> SimTime {
        let over_loop = self.fc.transfer(now, disk, bytes, tag);
        let xio_time = match self.xio_memo {
            Some((b, d)) if b == bytes => d,
            _ => {
                let d = self.xio_rate.transfer_time(bytes);
                self.xio_memo = Some((bytes, d));
                d
            }
        };
        self.xio.offer(over_loop, xio_time, tag).end
    }

    /// Drops one FC loop: surviving loops carry all disk traffic (see
    /// [`FcLoop::fail_loop`]; the last loop refuses to drop).
    pub fn fail_loop(&mut self, ix: usize) {
        self.fc.fail_loop(ix);
    }

    /// Total bytes that crossed the loop.
    pub fn bytes_carried(&self) -> u64 {
        self.fc.bytes_carried()
    }

    /// The loop's aggregate utilization over `elapsed`.
    pub fn loop_utilization(&self, elapsed: Duration) -> f64 {
        self.fc.utilization(elapsed)
    }

    /// Cumulative loop tenancy time summed across the FC loops.
    pub fn loop_busy_total(&self) -> Duration {
        self.fc.busy_total()
    }

    /// Cumulative loop queueing time (same lane set as
    /// [`SmpIoSubsystem::loop_busy_total`]; the XIO stage is excluded).
    pub fn loop_wait_total(&self) -> Duration {
        self.fc.wait_total()
    }

    /// Number of FC loops in front of the I/O nodes.
    pub fn loop_count(&self) -> usize {
        self.fc.loop_count()
    }

    /// Serializes the I/O complex's mutable state for checkpointing
    /// (the FC loop set, then the XIO bank).
    pub fn save_state(&self, w: &mut StateWriter) {
        self.fc.save_state(w);
        self.xio.save_state(w);
    }

    /// Restores state saved by [`SmpIoSubsystem::save_state`] into an
    /// I/O complex built with the same configuration. The XIO-time memo
    /// is dropped; it repopulates with identical values.
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.fc.load_state(r)?;
        self.xio = MultiServer::load_state(r)?;
        self.xio_memo = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_board_transfer_skips_link_latency() {
        let mut f = SmpFabric::new(4);
        let local = f.block_transfer(SimTime::ZERO, 0, 0, 1_000, "x");
        let mut f2 = SmpFabric::new(4);
        let remote = f2.block_transfer(SimTime::ZERO, 0, 1, 1_000, "x");
        assert_eq!(remote.since(local), Duration::from_micros(1));
    }

    #[test]
    fn bte_rate_caps_board_output() {
        let mut f = SmpFabric::new(2);
        let t = f.block_transfer(SimTime::ZERO, 0, 1, 521_000_000, "x");
        assert!((t.as_secs_f64() - 1.0).abs() < 0.01, "521 MB in ~1 s");
    }

    #[test]
    fn boards_transfer_in_parallel() {
        let mut f = SmpFabric::new(8);
        let mut last = SimTime::ZERO;
        for b in 0..8 {
            last = last.max(f.block_transfer(SimTime::ZERO, b, (b + 1) % 8, 52_100_000, "x"));
        }
        // Each board pushes 52.1 MB at 521 MB/s = 0.1 s, all concurrently.
        assert!(last.as_secs_f64() < 0.11, "parallel boards: {last}");
        assert_eq!(f.bytes_moved(), 8 * 52_100_000);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_board() {
        SmpFabric::new(2).block_transfer(SimTime::ZERO, 0, 5, 1, "x");
    }

    #[test]
    fn fabric_state_round_trips_and_continues_identically() {
        let mut live = SmpFabric::new(8);
        live.block_transfer(SimTime::ZERO, 0, 1, 1_000_000, "x");
        live.block_transfer(SimTime::ZERO, 0, 0, 500_000, "y");

        let mut w = StateWriter::new();
        live.save_state(&mut w);
        let text = w.finish();

        let mut restored = SmpFabric::new(8);
        restored
            .load_state(&mut StateReader::new(&text))
            .expect("restore");

        let now = SimTime::ZERO + Duration::from_millis(10);
        assert_eq!(
            live.block_transfer(now, 0, 3, 42_000, "z"),
            restored.block_transfer(now, 0, 3, 42_000, "z"),
            "continuation diverged"
        );
        assert_eq!(live.bytes_moved(), restored.bytes_moved());
        assert_eq!(live.busy_total(), restored.busy_total());
        assert_eq!(live.wait_total(), restored.wait_total());
    }

    #[test]
    fn io_state_round_trips_after_loop_failure() {
        let mut live = SmpIoSubsystem::new(Bandwidth::from_mb_per_sec(200.0));
        for d in 0..4 {
            live.disk_transfer(SimTime::ZERO, d, 1_000_000, "x");
        }
        live.fail_loop(0);

        let mut w = StateWriter::new();
        live.save_state(&mut w);
        let text = w.finish();

        let mut restored = SmpIoSubsystem::new(Bandwidth::from_mb_per_sec(200.0));
        restored
            .load_state(&mut StateReader::new(&text))
            .expect("restore");

        let now = SimTime::ZERO + Duration::from_millis(50);
        for d in [0usize, 1, 5] {
            assert_eq!(
                live.disk_transfer(now, d, 64_000, "z"),
                restored.disk_transfer(now, d, 64_000, "z"),
                "continuation diverged for disk {d}"
            );
        }
        assert_eq!(live.bytes_carried(), restored.bytes_carried());
        assert_eq!(live.loop_busy_total(), restored.loop_busy_total());
        assert_eq!(live.loop_wait_total(), restored.loop_wait_total());
    }

    #[test]
    fn memoized_xio_time_equals_the_direct_computation() {
        // Two complexes serve the same transfers; one forgets its memo
        // before each, so it computes every XIO time afresh.
        let mut memo = SmpIoSubsystem::new(Bandwidth::from_mb_per_sec(200.0));
        let mut direct = memo.clone();
        let mut t = SimTime::ZERO;
        for (i, bytes) in [65_536u64, 65_536, 1, 65_536, 262_144, 262_144, 7]
            .into_iter()
            .enumerate()
        {
            direct.xio_memo = None;
            let want = direct.disk_transfer(t, i, bytes, "x");
            assert_eq!(memo.disk_transfer(t, i, bytes, "x"), want, "{bytes} B");
            assert_eq!(
                memo.xio_memo,
                Some((bytes, memo.xio_rate.transfer_time(bytes)))
            );
            t += Duration::from_micros(100);
        }
        assert_eq!(memo.xio.busy_total(), direct.xio.busy_total());
    }

    #[test]
    fn io_loop_is_the_bottleneck() {
        // 100 MB through the I/O complex: the 200 MB/s loop dominates the
        // 1.4 GB/s XIO.
        let mut io = SmpIoSubsystem::new(Bandwidth::from_mb_per_sec(200.0));
        let mut last = SimTime::ZERO;
        for d in 0..16 {
            last = last.max(io.disk_transfer(SimTime::ZERO, d, 6_250_000, "x"));
        }
        let secs = last.as_secs_f64();
        // 100 MB at ~190 MB/s effective ≈ 0.52 s.
        assert!((0.4..0.7).contains(&secs), "loop-bound: {secs}");
        assert_eq!(io.bytes_carried(), 100_000_000);
    }

    #[test]
    fn doubling_loop_bandwidth_helps() {
        let run = |mb: f64| {
            let mut io = SmpIoSubsystem::new(Bandwidth::from_mb_per_sec(mb));
            let mut last = SimTime::ZERO;
            for d in 0..32 {
                last = last.max(io.disk_transfer(SimTime::ZERO, d, 10_000_000, "x"));
            }
            last.as_secs_f64()
        };
        let t200 = run(200.0);
        let t400 = run(400.0);
        let ratio = t200 / t400;
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
    }
}
