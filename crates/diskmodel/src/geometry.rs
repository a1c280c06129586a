//! Zoned disk geometry: LBA → physical location mapping.
//!
//! Full zone tables are not published in drive manuals, so — as DiskSim
//! configurations of this era did — the zone table is synthesized: sectors
//! per track are interpolated linearly between the published innermost and
//! outermost media rates, with cylinders divided evenly among zones. Zone 0
//! is the outermost (fastest) zone, matching the convention that LBA 0 is on
//! the outer edge.

use simcore::{Bandwidth, Duration};

use crate::spec::DiskSpec;

/// Bytes per sector (512 B, universal for drives of this era).
pub const SECTOR_BYTES: u64 = 512;

/// One recording zone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Zone {
    /// First cylinder of the zone.
    pub first_cylinder: u32,
    /// Number of cylinders in the zone.
    pub cylinders: u32,
    /// Sectors on each track of the zone.
    pub sectors_per_track: u32,
    /// First LBA of the zone.
    pub first_lba: u64,
    /// Total sectors in the zone.
    pub sectors: u64,
    /// Time for one sector to pass under the head (`revolution /
    /// sectors_per_track`, precomputed — this division sits on the
    /// per-request media-transfer path).
    pub sector_time: Duration,
}

/// A physical disk location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Location {
    /// Zone index (0 = outermost).
    pub zone: u32,
    /// Absolute cylinder number.
    pub cylinder: u32,
    /// Surface (head) number.
    pub head: u32,
    /// Sector within the track.
    pub sector: u32,
}

/// One transfer laid onto the media: where it starts, how long it takes
/// and where its last sector lies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    /// Location of the first sector.
    pub start: Location,
    /// Media time, as [`Geometry::media_transfer`] gives it.
    pub media: Duration,
    /// Location of the last sector.
    pub last: Location,
}

/// The synthesized zoned geometry of a drive.
///
/// # Example
///
/// ```
/// use diskmodel::{DiskSpec, Geometry};
/// let geo = Geometry::from_spec(&DiskSpec::cheetah_9lp());
/// let loc = geo.locate(0).expect("LBA 0 exists");
/// assert_eq!(loc.zone, 0);
/// assert_eq!(loc.cylinder, 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Geometry {
    zones: Vec<Zone>,
    /// Per-zone media-rate constants, parallel to `zones`; precomputed
    /// because the cache's read-ahead model evaluates them per request.
    zone_rates: Vec<ZoneRate>,
    heads: u32,
    revolution: Duration,
    total_sectors: u64,
}

/// Precomputed media-rate constants for one zone.
#[derive(Debug, Clone, PartialEq)]
struct ZoneRate {
    /// Media rate in bytes per second (`bytes_per_rev / revolution`).
    bps: f64,
    /// Seconds for one sector to stream past the head (`SECTOR_BYTES / bps`).
    sector_secs: f64,
}

impl Geometry {
    /// Synthesizes the zone table from a drive spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`DiskSpec::validate`].
    pub fn from_spec(spec: &DiskSpec) -> Self {
        spec.validate().expect("invalid disk spec");
        let rev_secs = spec.revolution().as_secs_f64();
        let z = spec.zones;
        let base_cyls = spec.cylinders / z;
        let extra = spec.cylinders % z;
        let mut zones = Vec::with_capacity(z as usize);
        let mut first_cylinder = 0u32;
        let mut first_lba = 0u64;
        for i in 0..z {
            // Zone 0 (outermost) gets media_rate_max; the innermost gets min.
            let frac = if z == 1 {
                0.0
            } else {
                i as f64 / (z - 1) as f64
            };
            let rate = spec.media_rate_max.bytes_per_sec()
                - frac
                    * (spec.media_rate_max.bytes_per_sec() - spec.media_rate_min.bytes_per_sec());
            let spt = ((rate * rev_secs) / SECTOR_BYTES as f64).floor() as u32;
            let cylinders = base_cyls + u32::from(i < extra);
            let sectors = u64::from(cylinders) * u64::from(spec.heads) * u64::from(spt);
            zones.push(Zone {
                first_cylinder,
                cylinders,
                sectors_per_track: spt,
                first_lba,
                sectors,
                sector_time: spec.revolution() / u64::from(spt),
            });
            first_cylinder += cylinders;
            first_lba += sectors;
        }
        let revolution = spec.revolution();
        let zone_rates = zones
            .iter()
            .map(|zn| {
                let bytes_per_rev = u64::from(zn.sectors_per_track) * SECTOR_BYTES;
                let bps = bytes_per_rev as f64 / revolution.as_secs_f64();
                ZoneRate {
                    bps,
                    sector_secs: SECTOR_BYTES as f64 / bps,
                }
            })
            .collect();
        Geometry {
            zones,
            zone_rates,
            heads: spec.heads,
            revolution,
            total_sectors: first_lba,
        }
    }

    /// Index of the zone containing `lba` (caller guarantees range).
    fn zone_index(&self, lba: u64) -> usize {
        match self.zones.binary_search_by(|zn| zn.first_lba.cmp(&lba)) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// The zone table (outermost first).
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// Usable capacity in bytes implied by the synthesized zone table.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_sectors * SECTOR_BYTES
    }

    /// Total number of sectors.
    pub fn total_sectors(&self) -> u64 {
        self.total_sectors
    }

    /// Number of cylinders.
    pub fn cylinders(&self) -> u32 {
        self.zones
            .last()
            .map(|zn| zn.first_cylinder + zn.cylinders)
            .unwrap_or(0)
    }

    /// Maps an LBA to its physical location, or `None` if out of range.
    pub fn locate(&self, lba: u64) -> Option<Location> {
        if lba >= self.total_sectors {
            return None;
        }
        let zi = self.zone_index(lba);
        let zone = &self.zones[zi];
        let off = lba - zone.first_lba;
        let spt = u64::from(zone.sectors_per_track);
        let track = off / spt;
        let sector = (off % spt) as u32;
        let cylinder = zone.first_cylinder + (track / u64::from(self.heads)) as u32;
        let head = (track % u64::from(self.heads)) as u32;
        Some(Location {
            zone: zi as u32,
            cylinder,
            head,
            sector,
        })
    }

    /// The media rate at an LBA (zone-dependent).
    ///
    /// # Panics
    ///
    /// Panics if `lba` is out of range.
    pub fn media_rate_at(&self, lba: u64) -> Bandwidth {
        assert!(lba < self.total_sectors, "LBA {lba} out of range");
        Bandwidth::from_bytes_per_sec(self.zone_rates[self.zone_index(lba)].bps)
    }

    /// The zone window containing `lba`: `(first_lba, first_lba + sectors,
    /// bytes/s, seconds/sector)`. Callers that track a sequential stream
    /// memoize this and revalidate with two compares instead of repeating
    /// the binary search per request (caller guarantees range).
    pub(crate) fn zone_window(&self, lba: u64) -> (u64, u64, f64, f64) {
        let zi = self.zone_index(lba);
        let zn = &self.zones[zi];
        let zr = &self.zone_rates[zi];
        (
            zn.first_lba,
            zn.first_lba + zn.sectors,
            zr.bps,
            zr.sector_secs,
        )
    }

    /// Time to read/write `sectors` sectors starting at `lba`, including
    /// head and cylinder switches crossed mid-transfer (the components of
    /// sustained — as opposed to instantaneous — media rate).
    ///
    /// Computed in closed form per zone: zones hold whole cylinders, so
    /// within a zone the transfer crosses `t1 - t0` track boundaries
    /// (`t = offset / sectors_per_track` of its first and last sector),
    /// `cyl = t1 / heads - t0 / heads` of them cylinder boundaries and
    /// the rest head switches; every zone edge crossed is one more
    /// cylinder switch. Durations are integer nanoseconds, so the sum is
    /// exactly that of walking the transfer track by track. The drive
    /// times its requests with `span` and `advance`, which reach the same
    /// sums with fewer searches; this function is their test oracle.
    ///
    /// # Panics
    ///
    /// Panics if the transfer extends past the end of the disk.
    pub fn media_transfer(
        &self,
        lba: u64,
        sectors: u64,
        head_switch: Duration,
        cylinder_switch: Duration,
    ) -> Duration {
        assert!(
            lba + sectors <= self.total_sectors,
            "transfer [{}..{}) past end of disk ({})",
            lba,
            lba + sectors,
            self.total_sectors
        );
        if sectors == 0 {
            return Duration::ZERO;
        }
        let heads = u64::from(self.heads);
        let mut zi = self.zone_index(lba);
        let mut off = lba - self.zones[zi].first_lba;
        let mut remaining = sectors;
        let mut total = Duration::ZERO;
        loop {
            let zone = &self.zones[zi];
            let spt = u64::from(zone.sectors_per_track);
            let n = remaining.min(zone.sectors - off);
            let t0 = off / spt;
            let t1 = (off + n - 1) / spt;
            let cyl = t1 / heads - t0 / heads;
            total += zone.sector_time * n + cylinder_switch * cyl + head_switch * (t1 - t0 - cyl);
            remaining -= n;
            if remaining == 0 {
                return total;
            }
            // The zone ends on a cylinder boundary.
            total += cylinder_switch;
            zi += 1;
            off = 0;
        }
    }

    /// [`Geometry::locate`] of `lba`, [`Geometry::media_transfer`] of
    /// `sectors` sectors from it and `locate` of the last of them, from
    /// one zone search: the closed form above, which also yields the
    /// track and sector at both ends (caller guarantees `sectors > 0` and
    /// range).
    pub(crate) fn span(
        &self,
        lba: u64,
        sectors: u64,
        head_switch: Duration,
        cylinder_switch: Duration,
    ) -> Span {
        let heads = u64::from(self.heads);
        let mut zi = self.zone_index(lba);
        let mut off = lba - self.zones[zi].first_lba;
        let mut start = None;
        let mut remaining = sectors;
        let mut media = Duration::ZERO;
        loop {
            let zone = &self.zones[zi];
            let spt = u64::from(zone.sectors_per_track);
            let n = remaining.min(zone.sectors - off);
            let (t0, t1) = (off / spt, (off + n - 1) / spt);
            let (c0, c1) = (t0 / heads, t1 / heads);
            // `locate` of zone offset `off` on `track` of cylinder `cyl`.
            let at = |off: u64, track: u64, cyl: u64| Location {
                zone: zi as u32,
                cylinder: zone.first_cylinder + cyl as u32,
                head: (track - cyl * heads) as u32,
                sector: (off - track * spt) as u32,
            };
            let start = *start.get_or_insert_with(|| at(off, t0, c0));
            let cyl = c1 - c0;
            media += zone.sector_time * n + cylinder_switch * cyl + head_switch * (t1 - t0 - cyl);
            remaining -= n;
            if remaining == 0 {
                let last = at(off + n - 1, t1, c1);
                return Span { start, media, last };
            }
            media += cylinder_switch;
            zi += 1;
            off = 0;
        }
    }

    /// The transfer of `sectors` sectors at `lba`, the sector after
    /// `last`: its media time and the location of its last sector, as
    /// [`Geometry::span`] gives them. It steps from `last` track by track
    /// with compares and subtractions (a batch crosses a few tracks), so
    /// it searches no zone table and divides nothing. `None` when the
    /// transfer leaves `last`'s zone.
    pub(crate) fn advance(
        &self,
        last: Location,
        lba: u64,
        sectors: u64,
        head_switch: Duration,
        cylinder_switch: Duration,
    ) -> Option<(Duration, Location)> {
        let zone = &self.zones[last.zone as usize];
        if lba + sectors > zone.first_lba + zone.sectors {
            return None;
        }
        let spt = zone.sectors_per_track;
        let (mut cylinder, mut head, mut first) = (last.cylinder, last.head, last.sector + 1);
        if first == spt {
            // The transfer starts on the next track.
            first = 0;
            head += 1;
            if head == self.heads {
                head = 0;
                cylinder += 1;
            }
        }
        // Offset of the last sector from the first one's track.
        let mut rest = u64::from(first) + sectors - 1;
        let (mut tracks, mut cyls) = (0u64, 0u64);
        while rest >= u64::from(spt) {
            rest -= u64::from(spt);
            tracks += 1;
            head += 1;
            if head == self.heads {
                head = 0;
                cylinder += 1;
                cyls += 1;
            }
        }
        let media =
            zone.sector_time * sectors + cylinder_switch * cyls + head_switch * (tracks - cyls);
        let end = Location {
            zone: last.zone,
            cylinder,
            head,
            sector: rest as u32,
        };
        Some((media, end))
    }

    /// Duration of one revolution.
    pub fn revolution(&self) -> Duration {
        self.revolution
    }

    /// Number of heads (surfaces).
    pub fn heads(&self) -> u32 {
        self.heads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn geo() -> Geometry {
        Geometry::from_spec(&DiskSpec::cheetah_9lp())
    }

    #[test]
    fn capacity_close_to_nominal() {
        let spec = DiskSpec::cheetah_9lp();
        let g = Geometry::from_spec(&spec);
        let ratio = g.capacity_bytes() as f64 / spec.capacity_bytes as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "synthesized capacity {} vs nominal {} (ratio {ratio})",
            g.capacity_bytes(),
            spec.capacity_bytes
        );
    }

    #[test]
    fn zones_cover_all_cylinders_exactly_once() {
        let spec = DiskSpec::cheetah_9lp();
        let g = Geometry::from_spec(&spec);
        let mut next = 0u32;
        for zn in g.zones() {
            assert_eq!(zn.first_cylinder, next);
            next += zn.cylinders;
        }
        assert_eq!(next, spec.cylinders);
    }

    #[test]
    fn outer_zone_is_fastest() {
        let g = geo();
        let first = g.zones().first().unwrap().sectors_per_track;
        let last = g.zones().last().unwrap().sectors_per_track;
        assert!(first > last, "outer {first} should exceed inner {last}");
        // Monotone non-increasing across the table.
        let spts: Vec<u32> = g.zones().iter().map(|z| z.sectors_per_track).collect();
        assert!(spts.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn media_rates_match_spec_envelope() {
        let spec = DiskSpec::cheetah_9lp();
        let g = Geometry::from_spec(&spec);
        let outer = g.media_rate_at(0).mb_per_sec();
        let inner = g.media_rate_at(g.total_sectors() - 1).mb_per_sec();
        // Floor rounding of sectors-per-track loses < 1 sector per track.
        assert!((outer - 21.3).abs() < 0.2, "outer rate {outer}");
        assert!((inner - 14.5).abs() < 0.2, "inner rate {inner}");
    }

    #[test]
    fn locate_first_and_last() {
        let g = geo();
        let first = g.locate(0).unwrap();
        assert_eq!(
            first,
            Location {
                zone: 0,
                cylinder: 0,
                head: 0,
                sector: 0
            }
        );
        let last = g.locate(g.total_sectors() - 1).unwrap();
        assert_eq!(last.cylinder, g.cylinders() - 1);
        assert!(g.locate(g.total_sectors()).is_none());
    }

    #[test]
    fn sequential_lbas_advance_sector_then_head_then_cylinder() {
        let g = geo();
        let spt = u64::from(g.zones()[0].sectors_per_track);
        // Last sector of track 0 → first sector of head 1.
        let a = g.locate(spt - 1).unwrap();
        let b = g.locate(spt).unwrap();
        assert_eq!(a.head, 0);
        assert_eq!(b.head, 1);
        assert_eq!(b.sector, 0);
        assert_eq!(a.cylinder, b.cylinder);
        // Last head wraps to next cylinder.
        let c = g.locate(spt * u64::from(g.heads())).unwrap();
        assert_eq!(c.cylinder, 1);
        assert_eq!(c.head, 0);
    }

    #[test]
    fn media_transfer_single_sector_matches_rotation() {
        let g = geo();
        let spt = u64::from(g.zones()[0].sectors_per_track);
        let t = g.media_transfer(0, 1, Duration::ZERO, Duration::ZERO);
        assert_eq!(t, g.revolution() / spt);
    }

    #[test]
    fn media_transfer_full_track_plus_switch() {
        let g = geo();
        let spt = u64::from(g.zones()[0].sectors_per_track);
        let hs = Duration::from_micros(800);
        let t = g.media_transfer(0, spt + 1, hs, Duration::ZERO);
        // Per-sector time is quantized to integer nanoseconds, so a full
        // track is spt * (rev / spt), not exactly one revolution.
        let sector_time = g.revolution() / spt;
        let expected = sector_time * spt + hs + sector_time;
        assert_eq!(t, expected);
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn media_transfer_rejects_overrun() {
        let g = geo();
        g.media_transfer(g.total_sectors(), 1, Duration::ZERO, Duration::ZERO);
    }

    #[test]
    fn effective_rate_near_media_rate_for_large_transfers() {
        let g = geo();
        let spec = DiskSpec::cheetah_9lp();
        // 1 MB sequential at the outer zone.
        let sectors = 1_048_576 / SECTOR_BYTES;
        let t = g.media_transfer(0, sectors, spec.head_switch, spec.cylinder_switch);
        let rate = 1_048_576.0 / t.as_secs_f64() / 1e6;
        // Sustained rate is below instantaneous (switch overheads) but close.
        assert!(
            rate < 21.3 && rate > 17.0,
            "sustained outer rate {rate} MB/s"
        );
    }

    /// The track-by-track walk the closed form replaced, kept as the
    /// differential oracle: each track pays its sectors, then a head
    /// switch, or a cylinder switch when the next track's cylinder
    /// differs.
    fn media_transfer_by_tracks(
        g: &Geometry,
        lba: u64,
        sectors: u64,
        head_switch: Duration,
        cylinder_switch: Duration,
    ) -> Duration {
        let mut remaining = sectors;
        let mut at = lba;
        let mut total = Duration::ZERO;
        while remaining > 0 {
            let loc = g.locate(at).expect("in range");
            let zone = &g.zones[loc.zone as usize];
            let left_on_track = u64::from(zone.sectors_per_track) - u64::from(loc.sector);
            let chunk = remaining.min(left_on_track);
            total += zone.sector_time * chunk;
            remaining -= chunk;
            at += chunk;
            if remaining > 0 {
                let next = g.locate(at).expect("in range");
                total += if next.cylinder != loc.cylinder {
                    cylinder_switch
                } else {
                    head_switch
                };
            }
        }
        total
    }

    fn both_drives() -> [(Geometry, DiskSpec); 2] {
        [DiskSpec::cheetah_9lp(), DiskSpec::hitachi_dk3e1t_91()]
            .map(|spec| (Geometry::from_spec(&spec), spec))
    }

    #[test]
    fn closed_form_matches_track_walk_at_every_zone_edge() {
        for (g, spec) in both_drives() {
            let (hs, cs) = (spec.head_switch, spec.cylinder_switch);
            for zn in &g.zones()[1..] {
                let spt = u64::from(zn.sectors_per_track);
                let cyl = spt * u64::from(g.heads());
                for back in [1, 2, spt - 1, spt, spt + 1, cyl, cyl + 1] {
                    let start = zn.first_lba - back;
                    for sectors in [0, 1, back, back + 1, back + spt, back + cyl + 3] {
                        let sectors = sectors.min(g.total_sectors() - start);
                        assert_eq!(
                            g.media_transfer(start, sectors, hs, cs),
                            media_transfer_by_tracks(&g, start, sectors, hs, cs),
                            "{}: {sectors} sectors from {start}",
                            spec.name
                        );
                    }
                }
            }
            // A span across every zone, and the last sectors of the disk.
            let all = g.total_sectors();
            for (start, sectors) in [
                (0, all),
                (1, all - 1),
                (all - 1, 1),
                (all - 300_000, 300_000),
            ] {
                assert_eq!(
                    g.media_transfer(start, sectors, hs, cs),
                    media_transfer_by_tracks(&g, start, sectors, hs, cs),
                    "{}: {sectors} sectors from {start}",
                    spec.name
                );
            }
        }
    }

    /// `span` equals `locate` + `media_transfer` + `locate` of the last
    /// sector, and `advance` from the sector before `start` equals the
    /// same media time and end, or `None` when it leaves that zone.
    fn check_span_and_advance(g: &Geometry, spec: &DiskSpec, start: u64, sectors: u64) {
        let (hs, cs) = (spec.head_switch, spec.cylinder_switch);
        let span = g.span(start, sectors, hs, cs);
        let what = format!("{}: {sectors} sectors from {start}", spec.name);
        assert_eq!(span.start, g.locate(start).unwrap(), "{what}");
        assert_eq!(
            span.media,
            g.media_transfer(start, sectors, hs, cs),
            "{what}"
        );
        assert_eq!(span.last, g.locate(start + sectors - 1).unwrap(), "{what}");
        if let Some(prev) = start.checked_sub(1).and_then(|lba| g.locate(lba)) {
            let zone = &g.zones()[prev.zone as usize];
            let inside = start + sectors <= zone.first_lba + zone.sectors;
            assert_eq!(
                g.advance(prev, start, sectors, hs, cs),
                inside.then_some((span.media, span.last)),
                "{what}"
            );
        }
    }

    #[test]
    fn span_and_advance_match_the_oracle_at_every_zone_edge_and_the_last_track() {
        for (g, spec) in both_drives() {
            let all = g.total_sectors();
            let last_spt = u64::from(g.zones().last().unwrap().sectors_per_track);
            for zn in &g.zones()[1..] {
                let spt = u64::from(zn.sectors_per_track);
                let cyl = spt * u64::from(g.heads());
                for start in [
                    zn.first_lba - cyl - 1,
                    zn.first_lba - spt - 1,
                    zn.first_lba - 2,
                    zn.first_lba - 1,
                    zn.first_lba,
                    zn.first_lba + 1,
                    zn.first_lba + spt - 1,
                    zn.first_lba + spt,
                    zn.first_lba + cyl - 1,
                ] {
                    for sectors in [1, 2, 64, 128, 512, spt, spt + 1, cyl + 3] {
                        check_span_and_advance(&g, &spec, start, sectors.min(all - start));
                    }
                }
            }
            for back in [1, 2, 64, last_spt - 1, last_spt, last_spt + 1, 4 * last_spt] {
                for sectors in [1, 64, 512] {
                    check_span_and_advance(&g, &spec, all - back, sectors.min(back));
                }
            }
        }
    }

    #[test]
    fn media_transfer_of_nothing_is_free() {
        let g = geo();
        let (hs, cs) = (Duration::from_micros(800), Duration::from_micros(1_100));
        assert_eq!(g.media_transfer(0, 0, hs, cs), Duration::ZERO);
        assert_eq!(
            g.media_transfer(g.total_sectors(), 0, hs, cs),
            Duration::ZERO
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// `span` and `advance` agree with `locate` and `media_transfer`
        /// for 1 to 4,096 sectors from anywhere on both drives, from
        /// within four tracks of a zone edge, and from the last tracks.
        #[test]
        fn prop_span_and_advance_match_the_oracle(
            drive in 0usize..2,
            place in 0u64..3,
            pos in 0u64..u64::MAX,
            sectors in 1u64..=4_096,
        ) {
            let (g, spec) = &both_drives()[drive];
            let all = g.total_sectors();
            let start = match place {
                0 => pos % all,
                1 => {
                    let zones = g.zones();
                    let zn = &zones[1 + (pos % (zones.len() as u64 - 1)) as usize];
                    let spt = u64::from(zn.sectors_per_track);
                    zn.first_lba + (pos >> 32) % (8 * spt) - 4 * spt
                }
                _ => {
                    let spt = u64::from(g.zones().last().unwrap().sectors_per_track);
                    all - 1 - (pos >> 32) % (4 * spt)
                }
            };
            check_span_and_advance(g, spec, start, sectors.min(all - start));
        }
    }

    proptest! {
        /// The closed form equals the track walk on both drives for any
        /// start — anywhere, or within a few tracks of a zone edge — and
        /// any length from 0 to 300 k sectors (multi-zone spans included).
        #[test]
        fn prop_closed_form_matches_track_walk(
            drive in 0usize..2,
            near_edge in 0u64..2,
            pos in 0u64..u64::MAX,
            sectors in 0u64..=300_000,
        ) {
            let (g, spec) = &both_drives()[drive];
            let start = if near_edge == 1 {
                let zones = g.zones();
                let zn = &zones[1 + (pos % (zones.len() as u64 - 1)) as usize];
                let spt = u64::from(zn.sectors_per_track);
                zn.first_lba - 1 - (pos >> 32) % (4 * spt)
            } else {
                pos % g.total_sectors()
            };
            let sectors = sectors.min(g.total_sectors() - start);
            prop_assert_eq!(
                g.media_transfer(start, sectors, spec.head_switch, spec.cylinder_switch),
                media_transfer_by_tracks(g, start, sectors, spec.head_switch, spec.cylinder_switch)
            );
        }

        /// locate() is consistent: mapping is monotone in cylinder and the
        /// zone's LBA bounds contain the input.
        #[test]
        fn prop_locate_in_zone_bounds(lba in 0u64..17_000_000) {
            let g = geo();
            prop_assume!(lba < g.total_sectors());
            let loc = g.locate(lba).unwrap();
            let zone = &g.zones()[loc.zone as usize];
            prop_assert!(lba >= zone.first_lba);
            prop_assert!(lba < zone.first_lba + zone.sectors);
            prop_assert!(loc.head < g.heads());
            prop_assert!(loc.sector < zone.sectors_per_track);
            prop_assert!(loc.cylinder >= zone.first_cylinder);
            prop_assert!(loc.cylinder < zone.first_cylinder + zone.cylinders);
        }

        /// Transfer time is additive: t(a..a+n) + t(a+n..a+n+m) differs from
        /// t(a..a+n+m) by at most one track-crossing overhead.
        #[test]
        fn prop_transfer_additive(start in 0u64..1_000_000, n in 1u64..500, m in 1u64..500) {
            let g = geo();
            let hs = Duration::from_micros(800);
            let cs = Duration::from_micros(1_100);
            prop_assume!(start + n + m <= g.total_sectors());
            let whole = g.media_transfer(start, n + m, hs, cs);
            let parts = g.media_transfer(start, n, hs, cs)
                + g.media_transfer(start + n, m, hs, cs);
            let diff = whole.as_nanos().abs_diff(parts.as_nanos());
            prop_assert!(diff <= cs.as_nanos(), "diff {diff} ns");
        }
    }
}
