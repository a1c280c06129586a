//! A switched Fibre Channel fabric: the paper's recommended interconnect
//! for configurations beyond 64 disks.
//!
//! "To scale to configurations larger than the ones examined in this
//! paper, we recommend a more aggressive interconnect (e.g., multiple
//! Fibre Channel loops connected by a FibreSwitch)." This module
//! implements that recommendation: devices are grouped onto loop
//! *segments* of eight dual-ported drives; each segment's loop pair is
//! dedicated one loop to outbound and one to inbound tenancies (a real
//! dual-loop discipline that avoids tx/rx arbitration interference), and
//! segments attach to a non-blocking switch through full-rate ports.
//! Intra-segment traffic crosses only its own segment's loops;
//! inter-segment traffic additionally crosses both switch ports — so the
//! fabric's bisection bandwidth grows with the number of segments, unlike
//! the baseline shared dual loop.

use simcore::state::{StateError, StateReader, StateWriter};
use simcore::{Bandwidth, Duration, FifoServer, SimTime};

use crate::fcloop::{DEFAULT_ARBITRATION, DEFAULT_EFFICIENCY};

/// Drives per loop segment (a 200 MB/s dual loop pair serves eight
/// dual-ported drives).
pub const DEVICES_PER_SEGMENT: usize = 8;

/// Multiple FC-AL segments joined by a non-blocking FibreSwitch.
///
/// # Example
///
/// ```
/// use netmodel::FcSwitchFabric;
/// use simcore::{Bandwidth, SimTime};
///
/// // 128 disks on 16 segments: bisection grows with the segment count.
/// let mut fabric = FcSwitchFabric::for_devices(128, Bandwidth::from_mb_per_sec(200.0));
/// let t = fabric.transfer(SimTime::ZERO, 0, 127, 1_000_000, "shuffle");
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct FcSwitchFabric {
    tx: Vec<FifoServer>,
    rx: Vec<FifoServer>,
    ports_in: Vec<FifoServer>,
    ports_out: Vec<FifoServer>,
    devices_per_segment: usize,
    /// Per-direction segment rate (one loop's worth, framing included).
    lane_rate: Bandwidth,
    /// Switch port rate (the full segment pair rate).
    port_rate: Bandwidth,
    arbitration: Duration,
    switch_latency: Duration,
    bytes: u64,
}

impl FcSwitchFabric {
    /// Builds a fabric of `segments` loop pairs, each serving
    /// `devices_per_segment` devices at `per_segment` aggregate bandwidth
    /// (half per direction).
    ///
    /// # Panics
    ///
    /// Panics if `segments` or `devices_per_segment` is zero.
    pub fn new(segments: usize, devices_per_segment: usize, per_segment: Bandwidth) -> Self {
        assert!(segments > 0, "need at least one segment");
        assert!(devices_per_segment > 0, "need devices on each segment");
        FcSwitchFabric {
            tx: vec![FifoServer::new(); segments],
            rx: vec![FifoServer::new(); segments],
            ports_in: vec![FifoServer::new(); segments],
            ports_out: vec![FifoServer::new(); segments],
            devices_per_segment,
            lane_rate: Bandwidth::from_bytes_per_sec(per_segment.bytes_per_sec() / 2.0)
                .scale(DEFAULT_EFFICIENCY),
            port_rate: per_segment,
            arbitration: DEFAULT_ARBITRATION,
            switch_latency: Duration::from_micros(2),
            bytes: 0,
        }
    }

    /// A fabric sized for `devices` devices, one segment per
    /// [`DEVICES_PER_SEGMENT`] drives, each at `per_segment` aggregate
    /// bandwidth (the paper's dual loop runs at 200 MB/s).
    pub fn for_devices(devices: usize, per_segment: Bandwidth) -> Self {
        let segments = devices.div_ceil(DEVICES_PER_SEGMENT).max(1);
        Self::new(segments, DEVICES_PER_SEGMENT, per_segment)
    }

    /// Number of loop segments.
    pub fn segments(&self) -> usize {
        self.tx.len()
    }

    /// Total devices the fabric addresses.
    pub fn devices(&self) -> usize {
        self.segments() * self.devices_per_segment
    }

    /// Aggregate bisection bandwidth (all segment ports concurrently).
    pub fn bisection_bandwidth(&self) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.port_rate.bytes_per_sec() * self.segments() as f64)
    }

    fn segment_of(&self, device: usize) -> usize {
        device / self.devices_per_segment
    }

    /// Transfers `bytes` from device `src` to device `dst`; returns
    /// delivery time.
    ///
    /// # Panics
    ///
    /// Panics if either device index is out of range.
    pub fn transfer(
        &mut self,
        now: SimTime,
        src: usize,
        dst: usize,
        bytes: u64,
        tag: &'static str,
    ) -> SimTime {
        assert!(
            src < self.devices() && dst < self.devices(),
            "device out of range"
        );
        self.bytes += bytes;
        let (sseg, dseg) = (self.segment_of(src), self.segment_of(dst));
        let wire = self.lane_rate.transfer_time(bytes);
        let out = self.tx[sseg].offer(now, self.arbitration + wire, tag).end;
        let at_dst_segment = if sseg == dseg {
            out
        } else {
            let up = self.ports_in[sseg]
                .offer(out, self.port_rate.transfer_time(bytes), tag)
                .end;
            self.ports_out[dseg]
                .offer(
                    up + self.switch_latency,
                    self.port_rate.transfer_time(bytes),
                    tag,
                )
                .end
        };
        self.rx[dseg]
            .offer(at_dst_segment, self.arbitration + wire, tag)
            .end
    }

    /// Transfers to the front-end host, which owns a dedicated switch
    /// port at the full port rate.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn transfer_to_front_end(
        &mut self,
        now: SimTime,
        src: usize,
        bytes: u64,
        tag: &'static str,
    ) -> SimTime {
        assert!(src < self.devices(), "device out of range");
        self.bytes += bytes;
        let sseg = self.segment_of(src);
        let wire = self.lane_rate.transfer_time(bytes);
        let out = self.tx[sseg].offer(now, self.arbitration + wire, tag).end;
        self.ports_in[sseg]
            .offer(out, self.port_rate.transfer_time(bytes), tag)
            .end
            + self.switch_latency
    }

    /// Total bytes carried.
    pub fn bytes_carried(&self) -> u64 {
        self.bytes
    }

    /// Cumulative busy time summed across all segment loops (tx + rx
    /// lanes). Switch-port occupancy is excluded: the ports run at the
    /// full pair rate and never saturate before the loops do.
    pub fn busy_total(&self) -> Duration {
        self.tx
            .iter()
            .chain(self.rx.iter())
            .map(FifoServer::busy_total)
            .sum()
    }

    /// Cumulative queueing time summed across the same tx + rx lanes as
    /// [`FcSwitchFabric::busy_total`] (switch ports likewise excluded, so
    /// wait and busy describe the same lane set).
    pub fn wait_total(&self) -> Duration {
        self.tx
            .iter()
            .chain(self.rx.iter())
            .map(FifoServer::wait_total)
            .sum()
    }

    /// Number of loop lanes carrying traffic (one tx + one rx per
    /// segment), for normalizing [`FcSwitchFabric::busy_total`] into a
    /// utilization.
    pub fn lane_count(&self) -> usize {
        self.tx.len() + self.rx.len()
    }

    /// Serializes the fabric's mutable state for checkpointing (byte
    /// counter, then every loop lane and switch port; counts are fixed
    /// by the segment count).
    pub fn save_state(&self, w: &mut StateWriter) {
        w.field("bytes", self.bytes);
        for s in self
            .tx
            .iter()
            .chain(&self.rx)
            .chain(&self.ports_in)
            .chain(&self.ports_out)
        {
            s.save_state(w);
        }
    }

    /// Restores state saved by [`FcSwitchFabric::save_state`] into a
    /// fabric built with the same configuration.
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.bytes = r.num("bytes")?;
        for s in self
            .tx
            .iter_mut()
            .chain(&mut self.rx)
            .chain(&mut self.ports_in)
            .chain(&mut self.ports_out)
        {
            *s = FifoServer::load_state(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bisection_grows_with_segments() {
        let small = FcSwitchFabric::for_devices(32, Bandwidth::from_mb_per_sec(200.0));
        let large = FcSwitchFabric::for_devices(128, Bandwidth::from_mb_per_sec(200.0));
        assert!(large.segments() > small.segments());
        assert!(
            large.bisection_bandwidth().bytes_per_sec()
                > 3.0 * small.bisection_bandwidth().bytes_per_sec()
        );
    }

    #[test]
    fn intra_segment_skips_the_switch_ports() {
        let mut f = FcSwitchFabric::for_devices(16, Bandwidth::from_mb_per_sec(200.0));
        let intra = f.transfer(SimTime::ZERO, 0, 1, 1_000_000, "x");
        let mut f2 = FcSwitchFabric::for_devices(16, Bandwidth::from_mb_per_sec(200.0));
        let cross = f2.transfer(SimTime::ZERO, 0, 9, 1_000_000, "x");
        assert!(cross > intra, "switch ports add serialization");
    }

    #[test]
    fn all_to_all_beats_a_shared_loop_at_scale() {
        use crate::fcloop::FcLoop;
        let volume = 1_000_000u64;
        let mut switch = FcSwitchFabric::for_devices(128, Bandwidth::from_mb_per_sec(200.0));
        let mut single = FcLoop::dual(Bandwidth::from_mb_per_sec(200.0));
        let mut t_switch = SimTime::ZERO;
        let mut t_single = SimTime::ZERO;
        for src in 0..128usize {
            let dst = (src + 64) % 128;
            t_switch = t_switch.max(switch.transfer(SimTime::ZERO, src, dst, volume, "x"));
            t_single = t_single.max(single.transfer(SimTime::ZERO, src, volume, "x"));
        }
        assert!(
            t_switch.as_secs_f64() < t_single.as_secs_f64() / 3.0,
            "switched {t_switch} vs single loop {t_single}"
        );
    }

    #[test]
    fn front_end_path_is_reachable_from_every_segment() {
        let mut f = FcSwitchFabric::for_devices(32, Bandwidth::from_mb_per_sec(200.0));
        for src in [0usize, 9, 17, 31] {
            let t = f.transfer_to_front_end(SimTime::ZERO, src, 4_096, "results");
            assert!(t > SimTime::ZERO);
        }
        assert_eq!(f.bytes_carried(), 4 * 4_096);
    }

    #[test]
    fn state_round_trips_and_continues_identically() {
        let mut live = FcSwitchFabric::for_devices(32, Bandwidth::from_mb_per_sec(200.0));
        live.transfer(SimTime::ZERO, 0, 9, 1_000_000, "x");
        live.transfer_to_front_end(SimTime::ZERO, 17, 250_000, "y");

        let mut w = StateWriter::new();
        live.save_state(&mut w);
        let text = w.finish();

        let mut restored = FcSwitchFabric::for_devices(32, Bandwidth::from_mb_per_sec(200.0));
        restored
            .load_state(&mut StateReader::new(&text))
            .expect("restore");

        let now = SimTime::ZERO + Duration::from_millis(3);
        assert_eq!(
            live.transfer(now, 1, 25, 77_000, "z"),
            restored.transfer(now, 1, 25, 77_000, "z"),
            "cross-segment continuation diverged"
        );
        assert_eq!(
            live.transfer_to_front_end(now, 9, 8_192, "r"),
            restored.transfer_to_front_end(now, 9, 8_192, "r"),
            "front-end continuation diverged"
        );
        assert_eq!(live.bytes_carried(), restored.bytes_carried());
        assert_eq!(live.busy_total(), restored.busy_total());
        assert_eq!(live.wait_total(), restored.wait_total());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_unknown_device() {
        let mut f = FcSwitchFabric::new(2, 4, Bandwidth::from_mb_per_sec(200.0));
        f.transfer(SimTime::ZERO, 0, 9, 1, "x");
    }

    proptest! {
        /// Delivery is never faster than one lane's wire time.
        #[test]
        fn prop_wire_floor(src in 0usize..64, dst in 0usize..64, bytes in 1u64..5_000_000) {
            prop_assume!(src != dst);
            let mut f = FcSwitchFabric::for_devices(64, Bandwidth::from_mb_per_sec(200.0));
            let t = f.transfer(SimTime::ZERO, src, dst, bytes, "x");
            let wire = bytes as f64 / (100e6 * DEFAULT_EFFICIENCY);
            prop_assert!(t.as_secs_f64() >= wire);
        }
    }
}
