//! The commodity-cluster network fabric.
//!
//! Models the paper's cluster network (Section 2.1): every host has a
//! full-duplex 100BaseT NIC into a 24-port Fast Ethernet edge switch (3Com
//! SuperStack II 3900); each edge switch has two Gigabit Ethernet uplinks
//! into a Gigabit core switch (SuperStack II 9300). The 16-host
//! configuration fits one switch; larger configurations span an array of
//! switches. "The network structure has been provisioned to avoid
//! contention in the network and to scale the bisection bandwidth with
//! size of the cluster" — so bisection grows with host count, but each
//! host's injection/delivery rate is capped at 100 Mb/s, which is what
//! makes the front-end the group-by bottleneck in Figure 1.
//!
//! The front-end host occupies the last index (`hosts()`), attached to the
//! first edge switch like any other host.

use simcore::state::{StateError, StateReader, StateWriter};
use simcore::{Bandwidth, Duration, SimTime};

use crate::link::Link;

/// Hosts per edge switch: 24 ports minus ports used for uplinks leave >16
/// usable host ports; the paper packs 16 hosts + front-end on one switch at
/// the smallest size, so we use 20 host ports per switch.
pub const HOSTS_PER_SWITCH: usize = 20;

/// Ethernet payload efficiency (IP/TCP headers, inter-frame gaps).
pub const ETHERNET_EFFICIENCY: f64 = 0.9;

/// Line rate of each host's NIC (Fast Ethernet), before
/// [`ETHERNET_EFFICIENCY`].
pub const NIC_MBIT_PER_SEC: f64 = 100.0;

/// A two-level switched Ethernet fabric.
///
/// # Example
///
/// ```
/// use netmodel::ClusterFabric;
/// use simcore::SimTime;
///
/// let mut net = ClusterFabric::new(32);
/// // Host 0 sends 1 MB to host 31 (different edge switches).
/// let arrival = net.send(SimTime::ZERO, 0, 31, 1_000_000, "shuffle");
/// assert!(arrival.as_secs_f64() > 0.08, "NIC-limited to ~11.25 MB/s");
/// ```
#[derive(Debug, Clone)]
pub struct ClusterFabric {
    hosts: usize,
    nic_tx: Vec<Link>,
    nic_rx: Vec<Link>,
    uplink_tx: Vec<Link>,
    uplink_rx: Vec<Link>,
}

impl ClusterFabric {
    /// Builds the fabric for `hosts` worker hosts plus one front-end.
    ///
    /// # Panics
    ///
    /// Panics if `hosts == 0`.
    pub fn new(hosts: usize) -> Self {
        assert!(hosts > 0, "cluster needs at least one host");
        let total = hosts + 1; // + front-end
        let switches = total.div_ceil(HOSTS_PER_SWITCH);
        let nic_bw = Bandwidth::from_mbit_per_sec(NIC_MBIT_PER_SEC).scale(ETHERNET_EFFICIENCY);
        let nic_lat = Duration::from_micros(50);
        // Two GigE uplinks per edge switch, each direction.
        let up_bw = Bandwidth::from_mbit_per_sec(2_000.0).scale(ETHERNET_EFFICIENCY);
        let up_lat = Duration::from_micros(10);
        ClusterFabric {
            hosts,
            nic_tx: (0..total).map(|_| Link::new(nic_bw, nic_lat)).collect(),
            nic_rx: (0..total).map(|_| Link::new(nic_bw, nic_lat)).collect(),
            uplink_tx: (0..switches).map(|_| Link::new(up_bw, up_lat)).collect(),
            uplink_rx: (0..switches).map(|_| Link::new(up_bw, up_lat)).collect(),
        }
    }

    /// Number of worker hosts (the front-end is additional).
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// The index of the front-end host.
    pub fn front_end(&self) -> usize {
        self.hosts
    }

    /// Number of edge switches.
    pub fn switches(&self) -> usize {
        self.uplink_tx.len()
    }

    fn switch_of(&self, host: usize) -> usize {
        host / HOSTS_PER_SWITCH
    }

    /// Sends `bytes` from `src` to `dst`; returns delivery time.
    ///
    /// Same-switch traffic crosses only the two NICs (the edge switch
    /// back-plane is non-blocking); cross-switch traffic additionally
    /// crosses both switches' uplink pairs through the (non-blocking)
    /// Gigabit core. Hops are *pipelined* (switches forward frame by
    /// frame), so each hop begins as its upstream hop starts serializing;
    /// delivery completes when the slowest hop finishes.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or either index exceeds the front-end index.
    pub fn send(
        &mut self,
        now: SimTime,
        src: usize,
        dst: usize,
        bytes: u64,
        tag: &'static str,
    ) -> SimTime {
        assert!(src != dst, "loopback send");
        assert!(src <= self.hosts && dst <= self.hosts, "host out of range");
        let g1 = self.nic_tx[src].transmit(now, bytes, tag);
        let (ssw, dsw) = (self.switch_of(src), self.switch_of(dst));
        let mut done = g1.end;
        let mut upstream_start = g1.start;
        if ssw != dsw {
            let lat = self.uplink_tx[ssw].latency();
            let g2 = self.uplink_tx[ssw].transmit(upstream_start + lat, bytes, tag);
            let g3 = self.uplink_rx[dsw].transmit(g2.start + lat, bytes, tag);
            done = done.max(g2.end).max(g3.end);
            upstream_start = g3.start;
        }
        let lat = self.nic_rx[dst].latency();
        let g4 = self.nic_rx[dst].transmit(upstream_start + lat, bytes, tag);
        done.max(g4.end) + lat
    }

    /// Degrades `host`'s NIC pair to `factor` of current bandwidth (a
    /// flapping or renegotiated-down edge port).
    ///
    /// # Panics
    ///
    /// Panics if `host` exceeds the front-end index or `factor` is not in
    /// `(0, 1]`.
    pub fn degrade_host_link(&mut self, host: usize, factor: f64) {
        assert!(host <= self.hosts, "host out of range");
        self.nic_tx[host].degrade(factor);
        self.nic_rx[host].degrade(factor);
    }

    /// Total bytes delivered to `host` (its NIC-rx counter).
    pub fn bytes_delivered_to(&self, host: usize) -> u64 {
        self.nic_rx[host].bytes_carried()
    }

    /// Cumulative serialization time across all *worker* NICs (tx + rx
    /// lanes; the front-end's NIC is excluded — it is reported separately
    /// as the front-end link).
    pub fn worker_nic_busy_total(&self) -> Duration {
        (0..self.hosts)
            .map(|h| self.nic_tx[h].busy_total() + self.nic_rx[h].busy_total())
            .sum()
    }

    /// Worker NIC lane count (one tx + one rx per worker host), for
    /// normalizing [`ClusterFabric::worker_nic_busy_total`].
    pub fn worker_nic_lanes(&self) -> usize {
        2 * self.hosts
    }

    /// Cumulative queueing time across all *worker* NICs (same lane set
    /// as [`ClusterFabric::worker_nic_busy_total`]).
    pub fn worker_nic_wait_total(&self) -> Duration {
        (0..self.hosts)
            .map(|h| self.nic_tx[h].wait_total() + self.nic_rx[h].wait_total())
            .sum()
    }

    /// Cumulative serialization time on the front-end host's NIC pair.
    pub fn front_end_link_busy_total(&self) -> Duration {
        self.nic_tx[self.hosts].busy_total() + self.nic_rx[self.hosts].busy_total()
    }

    /// Cumulative queueing time on the front-end host's NIC pair.
    pub fn front_end_link_wait_total(&self) -> Duration {
        self.nic_tx[self.hosts].wait_total() + self.nic_rx[self.hosts].wait_total()
    }

    /// Serializes every link's mutable state for checkpointing (NIC
    /// pairs then uplink pairs; counts are fixed by the host count).
    pub fn save_state(&self, w: &mut StateWriter) {
        for l in self
            .nic_tx
            .iter()
            .chain(&self.nic_rx)
            .chain(&self.uplink_tx)
            .chain(&self.uplink_rx)
        {
            l.save_state(w);
        }
    }

    /// Restores state saved by [`ClusterFabric::save_state`] into a
    /// fabric built for the same host count.
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        for l in self
            .nic_tx
            .iter_mut()
            .chain(&mut self.nic_rx)
            .chain(&mut self.uplink_tx)
            .chain(&mut self.uplink_rx)
        {
            l.load_state(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sixteen_hosts_fit_one_switch() {
        let net = ClusterFabric::new(16);
        assert_eq!(net.switches(), 1);
        // 128 hosts + front-end span several switches.
        assert_eq!(ClusterFabric::new(128).switches(), 129_usize.div_ceil(20));
    }

    #[test]
    fn nic_limits_point_to_point_rate() {
        let mut net = ClusterFabric::new(16);
        let arrival = net.send(SimTime::ZERO, 0, 1, 11_250_000, "x");
        // 11.25 MB at 11.25 MB/s effective = ~1 s (plus small latencies).
        let secs = arrival.as_secs_f64();
        assert!((1.0..1.1).contains(&secs), "took {secs}");
    }

    #[test]
    fn fan_in_congests_receiver() {
        let mut net = ClusterFabric::new(16);
        let mut last = SimTime::ZERO;
        // 8 hosts send 1 MB each to host 0: delivery serialized at its NIC.
        for src in 1..9 {
            last = last.max(net.send(SimTime::ZERO, src, 0, 1_000_000, "x"));
        }
        let floor = 8_000_000.0 / (12.5e6 * ETHERNET_EFFICIENCY);
        assert!(last.as_secs_f64() >= floor, "fan-in serialized at rx NIC");
        assert_eq!(net.bytes_delivered_to(0), 8_000_000);
    }

    #[test]
    fn bisection_grows_with_cluster_size() {
        // All-to-all of the same total volume: a larger cluster finishes
        // earlier because per-host volume shrinks and uplinks multiply.
        let run = |hosts: usize, total_bytes: u64| {
            let mut net = ClusterFabric::new(hosts);
            let per_pair = total_bytes / (hosts * (hosts - 1)) as u64;
            let mut last = SimTime::ZERO;
            for s in 0..hosts {
                for d in 0..hosts {
                    if s != d {
                        last = last.max(net.send(SimTime::ZERO, s, d, per_pair, "x"));
                    }
                }
            }
            last
        };
        let t16 = run(16, 320_000_000);
        let t64 = run(64, 320_000_000);
        assert!(
            t64.as_secs_f64() < t16.as_secs_f64() / 2.0,
            "64-host all-to-all ({}) much faster than 16-host ({})",
            t64.as_secs_f64(),
            t16.as_secs_f64()
        );
    }

    #[test]
    fn cross_switch_adds_uplink_hops() {
        let mut net = ClusterFabric::new(64);
        let same = net.send(SimTime::ZERO, 0, 1, 1_000_000, "x");
        let mut net2 = ClusterFabric::new(64);
        let cross = net2.send(SimTime::ZERO, 0, 63, 1_000_000, "x");
        assert!(cross > same, "uplink hops add serialization/latency");
    }

    #[test]
    fn front_end_is_reachable() {
        let mut net = ClusterFabric::new(16);
        let fe = net.front_end();
        let t = net.send(SimTime::ZERO, 3, fe, 1_000, "collect");
        assert!(t > SimTime::ZERO);
        assert_eq!(net.bytes_delivered_to(fe), 1_000);
    }

    #[test]
    fn degraded_host_link_slows_its_traffic_only() {
        let mut net = ClusterFabric::new(16);
        let healthy = net.send(SimTime::ZERO, 0, 1, 1_000_000, "x");
        net.degrade_host_link(2, 0.5);
        let mut net2 = ClusterFabric::new(16);
        net2.degrade_host_link(2, 0.5);
        let slowed = net2.send(SimTime::ZERO, 2, 3, 1_000_000, "x");
        let unaffected = net2.send(SimTime::ZERO, 0, 1, 1_000_000, "x");
        assert!(slowed > healthy, "degraded sender pays the slower NIC");
        assert_eq!(unaffected, healthy, "other hosts keep full rate");
    }

    #[test]
    fn state_round_trips_and_continues_identically() {
        // 24 hosts + front-end span two edge switches, so the uplink
        // pairs carry state too.
        let mut live = ClusterFabric::new(24);
        live.send(SimTime::ZERO, 0, 21, 1_000_000, "x");
        live.send(SimTime::ZERO, 5, 0, 250_000, "y");
        live.degrade_host_link(3, 0.5);

        let mut w = StateWriter::new();
        live.save_state(&mut w);
        let text = w.finish();

        let mut restored = ClusterFabric::new(24);
        restored
            .load_state(&mut StateReader::new(&text))
            .expect("restore");

        let now = SimTime::ZERO + Duration::from_millis(500);
        for (s, d) in [(3usize, 7usize), (0, 23), (22, 1)] {
            assert_eq!(
                live.send(now, s, d, 321_000, "z"),
                restored.send(now, s, d, 321_000, "z"),
                "continuation diverged for {s}->{d}"
            );
        }
        assert_eq!(
            live.worker_nic_busy_total(),
            restored.worker_nic_busy_total()
        );
        assert_eq!(
            live.worker_nic_wait_total(),
            restored.worker_nic_wait_total()
        );
        assert_eq!(
            live.front_end_link_busy_total(),
            restored.front_end_link_busy_total()
        );
        assert_eq!(live.bytes_delivered_to(21), restored.bytes_delivered_to(21));
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn rejects_loopback() {
        ClusterFabric::new(4).send(SimTime::ZERO, 2, 2, 1, "x");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_host() {
        ClusterFabric::new(4).send(SimTime::ZERO, 0, 9, 1, "x");
    }

    proptest! {
        /// Delivery time is bounded below by NIC serialization.
        #[test]
        fn prop_nic_floor(bytes in 1u64..5_000_000, dst in 1usize..16) {
            let mut net = ClusterFabric::new(16);
            let t = net.send(SimTime::ZERO, 0, dst, bytes, "x");
            let floor = bytes as f64 / (12.5e6 * ETHERNET_EFFICIENCY);
            prop_assert!(t.as_secs_f64() >= floor);
        }
    }
}
