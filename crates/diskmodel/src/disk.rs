//! The disk drive service model: combines geometry, seek curve, spindle
//! position, cache, and controller/bus overheads into per-request service
//! times.

use simcore::state::{StateError, StateReader, StateWriter};
use simcore::{Duration, Histogram, SimTime};

use crate::cache::{Lookup, SegmentedCache};
use crate::defects::{DefectMap, SpareExhausted};
use crate::geometry::{Geometry, Location, SECTOR_BYTES};
use crate::seek::SeekCurve;
use crate::spec::DiskSpec;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Media or cache read.
    Read,
    /// Media write (write-through; no write caching).
    Write,
}

/// A disk request: a byte extent, sector-aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Read or write.
    pub kind: RequestKind,
    /// Starting byte offset (must be sector-aligned).
    pub offset: u64,
    /// Length in bytes (must be a positive multiple of the sector size).
    pub bytes: u64,
}

impl Request {
    /// A read of `bytes` at byte `offset`.
    pub fn read(offset: u64, bytes: u64) -> Self {
        Request {
            kind: RequestKind::Read,
            offset,
            bytes,
        }
    }

    /// A write of `bytes` at byte `offset`.
    pub fn write(offset: u64, bytes: u64) -> Self {
        Request {
            kind: RequestKind::Write,
            offset,
            bytes,
        }
    }
}

/// The scheduling of one serviced request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// When the drive began working on the request (>= submit time).
    pub start: SimTime,
    /// When the data transfer completed.
    pub end: SimTime,
    /// Whether the request needed mechanical positioning (seek/rotation).
    pub mechanical: bool,
}

impl Completion {
    /// Service time (start to end).
    pub fn service(&self) -> Duration {
        self.end.since(self.start)
    }
}

/// The write stream the drive's buffer is flushing.
#[derive(Debug, Clone, Copy)]
struct WriteStream {
    /// LBA one past the last sector written.
    end: u64,
    /// Cylinder of the last sector written.
    cylinder: u32,
    /// Location of the last sector written (`Geometry::locate(end - 1)`):
    /// a continuing write steps on from it instead of locating its start
    /// afresh. A cache, never serialized, so empty after a restore.
    last: Option<Location>,
}

impl WriteStream {
    /// The stream that ends at `end`, its last sector at `last`.
    fn after(end: u64, last: Location) -> Self {
        WriteStream {
            end,
            cylinder: last.cylinder,
            last: Some(last),
        }
    }
}

/// A disk drive instance with its own arm, spindle, and cache state.
///
/// Requests are served FIFO: each request begins when the drive becomes
/// free. Submission times must be non-decreasing (the simulator's event
/// loop guarantees this).
///
/// # Example
///
/// ```
/// use diskmodel::{Disk, DiskSpec, Request};
/// use simcore::SimTime;
///
/// let mut disk = Disk::new(DiskSpec::cheetah_9lp());
/// let c = disk.submit(SimTime::ZERO, Request::read(0, 64 * 1024));
/// assert!(c.mechanical, "cold cache: mechanical access");
/// assert!(c.service().as_micros() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Disk {
    spec: DiskSpec,
    geometry: Geometry,
    read_seek: SeekCurve,
    write_seek: SeekCurve,
    cache: SegmentedCache,
    cylinder: u32,
    free_at: SimTime,
    busy: Duration,
    /// Cumulative time requests spent queued behind the arm
    /// (submit→start-of-service) before the drive began serving them.
    wait: Duration,
    /// The most recent write stream (write-behind cache state):
    /// continuation is only free while the arm is still parked on it.
    write_stream: Option<WriteStream>,
    /// Grown-defect remapping (empty on a healthy drive).
    defects: DefectMap,
    /// Per-request service-time distribution.
    service_hist: Histogram,
    reads: u64,
    writes: u64,
    bytes_read: u64,
    bytes_written: u64,
    cache_hits: u64,
    /// Memoized `(sectors, bus_rate.transfer_time(sectors * SECTOR_BYTES))`
    /// of the last cache-hit read. Scan workloads hit with one fixed
    /// batch size, so this skips the float division on the hot path; the
    /// memo reproduces the same expression, keeping results bit-identical.
    bus_memo: Option<(u64, Duration)>,
}

impl Disk {
    /// Creates a drive from a spec with the arm at cylinder 0.
    pub fn new(spec: DiskSpec) -> Self {
        let geometry = Geometry::from_spec(&spec);
        let read_seek = SeekCurve::reads(&spec);
        let write_seek = SeekCurve::writes(&spec);
        let cache = SegmentedCache::new(&spec);
        // The spare region occupies the last 1,024 sectors of the surface.
        let total = geometry.total_sectors();
        let defects = DefectMap::new(total - 1_024, 1_024);
        Disk {
            spec,
            geometry,
            read_seek,
            write_seek,
            cache,
            cylinder: 0,
            free_at: SimTime::ZERO,
            busy: Duration::ZERO,
            wait: Duration::ZERO,
            write_stream: None,
            defects,
            service_hist: Histogram::new(),
            reads: 0,
            writes: 0,
            bytes_read: 0,
            bytes_written: 0,
            cache_hits: 0,
            bus_memo: None,
        }
    }

    /// The drive's spec.
    pub fn spec(&self) -> &DiskSpec {
        &self.spec
    }

    /// The drive's synthesized geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Usable capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.geometry.capacity_bytes()
    }

    /// Submits a request at `now`; returns its scheduling.
    ///
    /// # Panics
    ///
    /// Panics if the extent is not sector-aligned, empty, or out of range.
    pub fn submit(&mut self, now: SimTime, req: Request) -> Completion {
        assert!(req.bytes > 0, "empty request");
        assert_eq!(req.offset % SECTOR_BYTES, 0, "offset not sector-aligned");
        assert_eq!(req.bytes % SECTOR_BYTES, 0, "length not sector-aligned");
        let lba = req.offset / SECTOR_BYTES;
        let sectors = req.bytes / SECTOR_BYTES;
        assert!(
            lba + sectors <= self.geometry.total_sectors(),
            "request [{}, {}) beyond disk capacity {} bytes",
            req.offset,
            req.offset + req.bytes,
            self.capacity_bytes()
        );

        let start = now.max(self.free_at);
        let completion = if self.defects.grown() == 0 {
            match req.kind {
                RequestKind::Read => self.serve_read(start, lba, sectors),
                RequestKind::Write => self.serve_write(start, lba, sectors),
            }
        } else {
            // A remapped sector splits the transfer into physical
            // fragments served back to back (spare-region detours). Spare
            // fragments bypass the cache entirely: drives do not read
            // ahead in the spare region, and the detour costs the full
            // mechanical excursion there and back.
            let spare_start = self.geometry.total_sectors() - 1_024;
            let mut at = start;
            let mut mechanical = false;
            for (plba, psec) in self.defects.translate(lba, sectors) {
                if plba >= spare_start {
                    let (end, _) = self.mechanical_access(
                        at + self.spec.controller_overhead,
                        plba,
                        psec,
                        req.kind,
                    );
                    self.cache.pause(at, end, &self.geometry);
                    mechanical = true;
                    at = end;
                } else {
                    let frag = match req.kind {
                        RequestKind::Read => self.serve_read(at, plba, psec),
                        RequestKind::Write => self.serve_write(at, plba, psec),
                    };
                    mechanical |= frag.mechanical;
                    at = frag.end;
                }
            }
            Completion {
                start,
                end: at,
                mechanical,
            }
        };
        self.free_at = completion.end;
        self.busy += completion.service();
        self.wait += start.since(now);
        self.service_hist.record(completion.service());
        match req.kind {
            RequestKind::Read => {
                self.reads += 1;
                self.bytes_read += req.bytes;
            }
            RequestKind::Write => {
                self.writes += 1;
                self.bytes_written += req.bytes;
            }
        }
        completion
    }

    fn serve_read(&mut self, start: SimTime, lba: u64, sectors: u64) -> Completion {
        let overhead = self.spec.controller_overhead;
        match self
            .cache
            .lookup(start + overhead, lba, sectors, &self.geometry)
        {
            Lookup::Hit { data_ready } => {
                self.cache_hits += 1;
                // Bus transfer streams behind the data; completion is
                // data-availability plus the bus time of the final burst.
                let bus = match self.bus_memo {
                    Some((s, d)) if s == sectors => d,
                    _ => {
                        let d = self.spec.bus_rate.transfer_time(sectors * SECTOR_BYTES);
                        self.bus_memo = Some((sectors, d));
                        d
                    }
                };
                let end = data_ready.max(start + overhead + bus);
                Completion {
                    start,
                    end,
                    mechanical: false,
                }
            }
            Lookup::Miss => {
                let (end, _) =
                    self.mechanical_access(start + overhead, lba, sectors, RequestKind::Read);
                // The arm left any streams it was feeding: freeze their
                // read-ahead across the excursion (positions as of its
                // start, no progress until its end).
                self.cache.pause(start, end, &self.geometry);
                self.cache.install(end, lba, sectors);
                Completion {
                    start,
                    end,
                    mechanical: true,
                }
            }
        }
    }

    fn serve_write(&mut self, start: SimTime, lba: u64, sectors: u64) -> Completion {
        self.cache.invalidate(lba, sectors);
        // Write-behind caching: a write continuing the current write
        // stream is accepted into the drive's buffer and flushed where the
        // head already is, paying media time but no fresh seek/rotation.
        // If the arm serviced a read elsewhere in between, the flush pays
        // the full mechanical cost again (read/write interleaving thrash,
        // the reason NOW-sort separates read and write disk groups).
        let overhead = self.spec.controller_overhead;
        if let Some(ws) = self
            .write_stream
            .filter(|ws| ws.end == lba && ws.cylinder == self.cylinder)
        {
            let (hs, cs) = (self.spec.head_switch, self.spec.cylinder_switch);
            let (media, last) = ws
                .last
                .and_then(|last| self.geometry.advance(last, lba, sectors, hs, cs))
                .unwrap_or_else(|| {
                    let span = self.geometry.span(lba, sectors, hs, cs);
                    (span.media, span.last)
                });
            self.cylinder = last.cylinder;
            self.write_stream = Some(WriteStream::after(lba + sectors, last));
            return Completion {
                start,
                end: start + overhead + media,
                mechanical: false,
            };
        }
        let (end, last) =
            self.mechanical_access(start + overhead, lba, sectors, RequestKind::Write);
        self.write_stream = Some(WriteStream::after(lba + sectors, last));
        Completion {
            start,
            end,
            mechanical: true,
        }
    }

    /// Seek + rotational latency + media transfer, starting at `t`;
    /// returns the end time and the location of the last sector.
    fn mechanical_access(
        &mut self,
        t: SimTime,
        lba: u64,
        sectors: u64,
        kind: RequestKind,
    ) -> (SimTime, Location) {
        let span = self.geometry.span(
            lba,
            sectors,
            self.spec.head_switch,
            self.spec.cylinder_switch,
        );
        let loc = span.start;
        let distance = self.cylinder.abs_diff(loc.cylinder);
        let curve = match kind {
            RequestKind::Read => &self.read_seek,
            RequestKind::Write => &self.write_seek,
        };
        let seek = curve.time(distance);
        let after_seek = t + seek;

        // Rotational wait: the spindle angle is a global function of time.
        let zone = &self.geometry.zones()[loc.zone as usize];
        let rev = self.geometry.revolution();
        let sector_time = zone.sector_time;
        let target_angle_ns = u64::from(loc.sector) * sector_time.as_nanos();
        let now_angle_ns = after_seek.as_nanos() % rev.as_nanos();
        let wait_ns = (target_angle_ns + rev.as_nanos() - now_angle_ns) % rev.as_nanos();
        let after_rotation = after_seek + Duration::from_nanos(wait_ns);

        // Arm ends where the transfer ends.
        self.cylinder = span.last.cylinder;
        (after_rotation + span.media, span.last)
    }

    /// The earliest time a new request could begin service.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total time the drive has been busy.
    pub fn busy_total(&self) -> Duration {
        self.busy
    }

    /// Cumulative time requests spent queued (submit→start-of-service).
    pub fn wait_total(&self) -> Duration {
        self.wait
    }

    /// Reads served.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Writes served.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Bytes read.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Reads served from the cache/prefetch stream.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Marks `lba` as a grown defect, remapping it to the spare region
    /// (subsequent transfers over it detour there).
    ///
    /// # Errors
    ///
    /// Returns [`SpareExhausted`] when no spare sectors remain.
    pub fn grow_defect(&mut self, lba: u64) -> Result<(), SpareExhausted> {
        self.defects.grow_defect(lba)
    }

    /// Number of grown defects on this drive.
    pub fn grown_defects(&self) -> usize {
        self.defects.grown()
    }

    /// The distribution of per-request service times.
    pub fn service_histogram(&self) -> &Histogram {
        &self.service_hist
    }

    /// Serializes the drive's mutable state (arm position, cache streams,
    /// defect table, accounting) for checkpointing. Configuration —
    /// spec, geometry, seek curves — is not captured: restores apply to
    /// a drive freshly built from the same spec.
    pub fn save_state(&self, w: &mut StateWriter) {
        self.cache.save_state(w);
        w.field("cylinder", self.cylinder);
        w.field("free_at", self.free_at.as_nanos());
        w.field("busy", self.busy.as_nanos());
        w.field("wait", self.wait.as_nanos());
        match self.write_stream {
            Some(ws) => w.list("write_stream", [ws.end, u64::from(ws.cylinder)]),
            None => w.list("write_stream", std::iter::empty::<u64>()),
        }
        self.defects.save_state(w);
        w.list("hist_buckets", self.service_hist.bucket_counts().iter());
        w.field("hist_total", self.service_hist.total().as_nanos());
        w.field("hist_max", self.service_hist.max().as_nanos());
        w.field("reads", self.reads);
        w.field("writes", self.writes);
        w.field("bytes_read", self.bytes_read);
        w.field("bytes_written", self.bytes_written);
        w.field("cache_hits", self.cache_hits);
    }

    /// Restores mutable state into a drive freshly built from the same
    /// spec ([`Disk::new`]). The bus-transfer memo and the write stream's
    /// stored head position start empty — both are pure caches over
    /// deterministic expressions, so the first hit and the first
    /// continuing write after restore recompute the identical values.
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.cache.load_state(r)?;
        self.cylinder = r.num("cylinder")?;
        if u64::from(self.cylinder) >= u64::from(self.geometry.cylinders()) {
            return Err(StateError::new("cylinder out of range for geometry"));
        }
        self.free_at = SimTime::from_nanos(r.num("free_at")?);
        self.busy = Duration::from_nanos(r.num("busy")?);
        self.wait = Duration::from_nanos(r.num("wait")?);
        let ws: Vec<u64> = r.nums("write_stream")?;
        self.write_stream = match ws[..] {
            [] => None,
            [end, cyl] => Some(WriteStream {
                end,
                cylinder: u32::try_from(cyl)
                    .map_err(|_| StateError::new("write-stream cylinder"))?,
                last: None,
            }),
            _ => return Err(StateError::new("write_stream needs 0 or 2 values")),
        };
        self.defects.load_state(r)?;
        let raw: Vec<u64> = r.nums("hist_buckets")?;
        let buckets: [u64; 64] = raw
            .try_into()
            .map_err(|_| StateError::new("histogram needs 64 buckets"))?;
        let total = Duration::from_nanos(r.num("hist_total")?);
        let max = Duration::from_nanos(r.num("hist_max")?);
        self.service_hist = Histogram::from_raw(buckets, total, max)
            .ok_or_else(|| StateError::new("histogram bucket counts overflow"))?;
        self.reads = r.num("reads")?;
        self.writes = r.num("writes")?;
        self.bytes_read = r.num("bytes_read")?;
        self.bytes_written = r.num("bytes_written")?;
        self.cache_hits = r.num("cache_hits")?;
        self.bus_memo = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const KB: u64 = 1024;

    fn disk() -> Disk {
        Disk::new(DiskSpec::cheetah_9lp())
    }

    #[test]
    fn cold_read_pays_mechanical_costs() {
        let mut d = disk();
        let c = d.submit(
            SimTime::ZERO,
            Request::read(1_000_000 * SECTOR_BYTES, 256 * KB),
        );
        assert!(c.mechanical);
        // Must include at least the media transfer time at max rate.
        let min_media = d.spec().media_rate_max.transfer_time(256 * KB);
        assert!(c.service() >= min_media);
    }

    #[test]
    fn sequential_scan_converges_to_media_rate() {
        let mut d = disk();
        let block = 256 * KB;
        let mut t = SimTime::ZERO;
        let mut total = Duration::ZERO;
        let n = 64u64;
        for i in 0..n {
            let c = d.submit(t, Request::read(i * block, block));
            t = c.end;
            if i > 0 {
                total += c.service();
            }
        }
        let bytes = (n - 1) * block;
        let rate_mb = bytes as f64 / total.as_secs_f64() / 1e6;
        // Outer zone media rate is 21.3 MB/s; sustained (with head/cyl
        // switches and bus) should land between 15 and 21.3.
        assert!(
            (15.0..=21.4).contains(&rate_mb),
            "sustained scan rate {rate_mb} MB/s"
        );
        assert!(d.cache_hits() >= n - 2, "steady-state reads hit prefetch");
    }

    #[test]
    fn random_reads_are_much_slower_than_sequential() {
        let mut seq = disk();
        let mut rnd = disk();
        let block = 64 * KB;
        let mut t_seq = SimTime::ZERO;
        let mut t_rnd = SimTime::ZERO;
        let mut rng = simcore::SplitMix64::new(42);
        let span = seq.geometry().total_sectors() - block / SECTOR_BYTES;
        for i in 0..50u64 {
            let c = seq.submit(t_seq, Request::read(i * block, block));
            t_seq = c.end;
            let lba = rng.next_below(span);
            let c = rnd.submit(t_rnd, Request::read(lba * SECTOR_BYTES, block));
            t_rnd = c.end;
        }
        assert!(
            t_rnd.as_nanos() > 2 * t_seq.as_nanos(),
            "random {t_rnd} should be much slower than sequential {t_seq}"
        );
    }

    #[test]
    fn writes_are_mechanical_and_slower_on_average() {
        let mut d = disk();
        let c = d.submit(SimTime::ZERO, Request::write(0, 256 * KB));
        assert!(c.mechanical);
        assert_eq!(d.writes(), 1);
        assert_eq!(d.bytes_written(), 256 * KB);
    }

    #[test]
    fn write_invalidates_read_stream() {
        let mut d = disk();
        let c1 = d.submit(SimTime::ZERO, Request::read(0, 256 * KB));
        let c2 = d.submit(c1.end, Request::write(0, 256 * KB));
        let c3 = d.submit(c2.end, Request::read(256 * KB, 256 * KB));
        assert!(c3.mechanical, "stream was invalidated by the write");
    }

    #[test]
    fn fifo_queueing_orders_requests() {
        let mut d = disk();
        let a = d.submit(SimTime::ZERO, Request::read(0, 64 * KB));
        let b = d.submit(
            SimTime::ZERO,
            Request::read(1_000_000 * SECTOR_BYTES, 64 * KB),
        );
        assert_eq!(b.start, a.end, "second request waits for the first");
    }

    #[test]
    fn faster_disk_scans_faster() {
        let mut slow = Disk::new(DiskSpec::cheetah_9lp());
        let mut fast = Disk::new(DiskSpec::hitachi_dk3e1t_91());
        let block = 256 * KB;
        let (mut ts, mut tf) = (SimTime::ZERO, SimTime::ZERO);
        for i in 0..32u64 {
            ts = slow.submit(ts, Request::read(i * block, block)).end;
            tf = fast.submit(tf, Request::read(i * block, block)).end;
        }
        assert!(tf < ts, "Hitachi should outpace Cheetah on scans");
    }

    #[test]
    fn service_histogram_shows_the_prefetch_bimodality() {
        let mut d = disk();
        let mut t = SimTime::ZERO;
        for i in 0..64u64 {
            t = d.submit(t, Request::read(i * 256 * KB, 256 * KB)).end;
        }
        let h = d.service_histogram();
        assert_eq!(h.count(), 64);
        // Steady-state hits are pure media (~12–14 ms); the cold first
        // request paid seek + rotation on top.
        assert!(h.max() > h.quantile(0.5), "cold start is the tail");
    }

    #[test]
    fn accounting_totals() {
        let mut d = disk();
        let c1 = d.submit(SimTime::ZERO, Request::read(0, 64 * KB));
        let _c2 = d.submit(c1.end, Request::read(64 * KB, 64 * KB));
        assert_eq!(d.reads(), 2);
        assert_eq!(d.bytes_read(), 128 * KB);
        assert!(d.busy_total() > Duration::ZERO);
        assert!(d.free_at() > SimTime::ZERO);
    }

    #[test]
    fn grown_defects_slow_the_scan() {
        let mut healthy = disk();
        let mut degraded = disk();
        // Sprinkle defects through the scanned extent.
        for lba in (0..20_000u64).step_by(997) {
            degraded.grow_defect(lba).expect("spares available");
        }
        assert!(degraded.grown_defects() > 10);
        let block = 256 * KB;
        let (mut th, mut td) = (SimTime::ZERO, SimTime::ZERO);
        for i in 0..32u64 {
            th = healthy.submit(th, Request::read(i * block, block)).end;
            td = degraded.submit(td, Request::read(i * block, block)).end;
        }
        // Each affected block pays a spare-region excursion; with the
        // drive's read-ahead hiding part of the cost, the net penalty on
        // this scan is several percent.
        assert!(
            td.as_nanos() > th.as_nanos() * 105 / 100,
            "spare-region detours must hurt: healthy {th}, degraded {td}"
        );
    }

    #[test]
    fn defect_free_path_is_unchanged() {
        let mut a = disk();
        let mut b = disk();
        // Defects far outside the scanned extent change nothing.
        b.grow_defect(10_000_000).expect("spare available");
        let ca = a.submit(SimTime::ZERO, Request::read(0, 256 * KB));
        let cb = b.submit(SimTime::ZERO, Request::read(0, 256 * KB));
        assert_eq!(ca.end, cb.end);
    }

    #[test]
    fn spare_region_exhaustion_is_reported() {
        let mut d = disk();
        let mut grown = 0u64;
        let result = loop {
            match d.grow_defect(grown) {
                Ok(()) => grown += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(grown, 1_024, "spare region holds 1,024 sectors");
        assert!(!result.to_string().is_empty());
    }

    #[test]
    fn state_round_trip_continues_bit_identically() {
        // Build interesting state: a read stream, a write stream, grown
        // defects, and accumulated accounting.
        let mut d = disk();
        let mut t = SimTime::ZERO;
        for i in 0..8u64 {
            t = d.submit(t, Request::read(i * 256 * KB, 256 * KB)).end;
        }
        t = d.submit(t, Request::write(40 * 256 * KB, 256 * KB)).end;
        d.grow_defect(30_000).unwrap();
        d.grow_defect(30_001).unwrap();

        let mut w = simcore::StateWriter::new();
        d.save_state(&mut w);
        let text = w.finish();
        let mut restored = disk();
        let mut r = simcore::StateReader::new(&text);
        restored.load_state(&mut r).unwrap();
        assert!(r.done());

        assert_eq!(restored.free_at(), d.free_at());
        assert_eq!(restored.busy_total(), d.busy_total());
        assert_eq!(restored.cache_hits(), d.cache_hits());
        assert_eq!(restored.grown_defects(), d.grown_defects());
        assert_eq!(restored.service_histogram(), d.service_histogram());

        // Continuation: cache-hit read, stream-continuing write, and a
        // read over the defects must schedule identically.
        for req in [
            Request::read(8 * 256 * KB, 256 * KB),
            Request::write(41 * 256 * KB, 256 * KB),
            Request::read(30_000 * SECTOR_BYTES - 64 * KB, 256 * KB),
        ] {
            let a = d.submit(t, req);
            let b = restored.submit(t, req);
            assert_eq!(a, b, "{req:?}");
            t = a.end;
        }
        assert_eq!(restored.busy_total(), d.busy_total());
        assert_eq!(restored.cache_hits(), d.cache_hits());
    }

    /// A copy of `d` through `save_state`/`load_state`.
    fn round_trip(d: &Disk) -> Disk {
        let mut w = simcore::StateWriter::new();
        d.save_state(&mut w);
        let text = w.finish();
        let mut restored = Disk::new(d.spec().clone());
        let mut r = simcore::StateReader::new(&text);
        restored.load_state(&mut r).unwrap();
        assert!(r.done());
        restored
    }

    #[test]
    fn restored_write_streams_continue_like_live_ones() {
        // The live drive steps its stored head position from write to
        // write. The other is restored before every request, which
        // empties that position, so it locates each write afresh. The
        // streams cross track, cylinder and zone edges, run to the last
        // sector of the disk, and are broken by reads.
        for spec in [DiskSpec::cheetah_9lp(), DiskSpec::hitachi_dk3e1t_91()] {
            let mut live = Disk::new(spec.clone());
            let mut restored = Disk::new(spec);
            let g = live.geometry().clone();
            let edge = g.zones()[1].first_lba;
            let total = g.total_sectors();
            let mut t = SimTime::ZERO;
            let mut continued = 0;
            for (from, to) in [(edge - 4_000, edge + 3_000), (total - 5_000, total)] {
                let mut lba = from;
                for i in 0u64.. {
                    let sectors = [128, 64, 512, 1, 300, 7][(i % 6) as usize].min(to - lba);
                    if sectors == 0 {
                        break;
                    }
                    let req = if i % 9 == 8 {
                        Request::read((lba - 2_000) * SECTOR_BYTES, 64 * KB)
                    } else {
                        lba += sectors;
                        Request::write((lba - sectors) * SECTOR_BYTES, sectors * SECTOR_BYTES)
                    };
                    restored = round_trip(&restored);
                    let a = live.submit(t, req);
                    let b = restored.submit(t, req);
                    assert_eq!(a, b, "{} {req:?}", live.spec().name);
                    continued += u32::from(req.kind == RequestKind::Write && !a.mechanical);
                    t = a.end;
                }
            }
            assert!(continued > 20, "{continued} continuing writes");
            assert_eq!(live.busy_total(), restored.busy_total());
        }
    }

    #[test]
    fn corrupt_state_is_an_error_not_a_panic() {
        let mut d = disk();
        d.submit(SimTime::ZERO, Request::read(0, 256 * KB));
        let mut w = simcore::StateWriter::new();
        d.save_state(&mut w);
        let text = w.finish();
        // Truncation and token corruption both surface as errors.
        let truncated = &text[..text.len() / 2];
        assert!(disk()
            .load_state(&mut simcore::StateReader::new(truncated))
            .is_err());
        let flipped = text.replace("cylinder", "cylindex");
        assert!(disk()
            .load_state(&mut simcore::StateReader::new(&flipped))
            .is_err());
    }

    #[test]
    #[should_panic(expected = "beyond disk capacity")]
    fn rejects_out_of_range() {
        let mut d = disk();
        let cap = d.capacity_bytes();
        d.submit(SimTime::ZERO, Request::read(cap, 64 * KB));
    }

    #[test]
    #[should_panic(expected = "sector-aligned")]
    fn rejects_unaligned() {
        disk().submit(SimTime::ZERO, Request::read(100, 512));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty() {
        disk().submit(SimTime::ZERO, Request::read(0, 0));
    }

    proptest! {
        /// Service time bounds: at least the best-case media transfer, at
        /// most overheads + full seek + full rotation + worst-case media.
        #[test]
        fn prop_service_bounds(lba_k in 0u64..1_000, sectors in 1u64..2_048) {
            let mut d = disk();
            let lba = lba_k * 1_000;
            prop_assume!(lba + sectors <= d.geometry().total_sectors());
            let c = d.submit(SimTime::ZERO, Request::read(lba * SECTOR_BYTES, sectors * SECTOR_BYTES));
            let bytes = sectors * SECTOR_BYTES;
            let floor = d.spec().media_rate_max.transfer_time(bytes);
            let ceil = d.spec().controller_overhead
                + d.spec().seek_max_read
                + d.geometry().revolution()
                + d.spec().media_rate_min.transfer_time(bytes)
                + d.spec().cylinder_switch * (sectors / 100 + 2)
                + d.spec().bus_rate.transfer_time(bytes);
            prop_assert!(c.service() >= floor, "service {} < floor {}", c.service(), floor);
            prop_assert!(c.service() <= ceil, "service {} > ceil {}", c.service(), ceil);
        }

        /// The drive never travels backwards in time and busy time is
        /// conserved across a batch of requests.
        #[test]
        fn prop_monotone_completions(blocks in proptest::collection::vec(0u64..5_000, 1..40)) {
            let mut d = disk();
            let mut t = SimTime::ZERO;
            let mut busy = Duration::ZERO;
            for b in blocks {
                let c = d.submit(t, Request::read(b * 64 * KB, 64 * KB));
                prop_assert!(c.end >= c.start);
                prop_assert!(c.start >= t);
                busy += c.service();
                t = c.end;
            }
            prop_assert_eq!(busy, d.busy_total());
        }
    }
}
