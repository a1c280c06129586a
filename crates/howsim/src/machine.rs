//! The machine model: architecture-specific resources and data paths.
//!
//! A [`Machine`] owns every contended resource of one configuration —
//! disks, node CPUs, the interconnect fabric(s), the front-end — and
//! exposes the four data-path operations the executor needs: local read,
//! local write, peer transfer, and front-end transfer. All resources are
//! FIFO queueing servers, so contention and overlap emerge from the
//! event-driven executor rather than from closed-form formulas.
//!
//! Once a drive fails, the SMP stripe and the recovery reads work over
//! the survivors. The machine keeps them as lists: the healthy nodes,
//! and each of the three SMP stripe groups (every disk, the read half,
//! the write half) cut to its healthy members. Only [`Machine::fail_disk`]
//! and [`Machine::load_state`] change the failed flags, and both rebuild
//! the lists, so a degraded read, write or recovery read indexes them
//! and allocates nothing. While every drive is healthy the lists stay
//! empty and the survivors are the nodes themselves, so a healthy
//! machine, and each fork of one, carries no list memory. The lists are
//! derived state: checkpoints carry only the flags.

use arch::{
    ActiveDiskConfig, Architecture, ClusterConfig, InterconnectKind, ProcessorSpec, SmpConfig,
};
use diskmodel::{Disk, Request};
use diskos::Sandbox;
use hostos::OsCosts;
use netmodel::{
    BarrierCosts, ClusterFabric, FcLoop, FcSwitchFabric, MsgCosts, SmpFabric, SmpIoSubsystem,
};
use simcore::state::{StateError, StateReader, StateWriter};
use simcore::{Bandwidth, DowntimeTracker, Duration, FifoServer, SimTime, SplitMix64};

use crate::faults::RecoveryPolicy;
use crate::metrics::{Resource, ResourceUsage};

/// The Active Disk serial fabric: the baseline shared dual loop, or the
/// switched multi-loop extension the paper recommends beyond 64 disks.
#[derive(Clone)]
enum ActiveWire {
    Loop(FcLoop),
    Switch(FcSwitchFabric),
}

impl ActiveWire {
    fn transfer(
        &mut self,
        now: SimTime,
        src: usize,
        dst: usize,
        bytes: u64,
        tag: &'static str,
    ) -> SimTime {
        match self {
            ActiveWire::Loop(fc) => fc.transfer(now, src, bytes, tag),
            ActiveWire::Switch(sw) => sw.transfer(now, src, dst, bytes, tag),
        }
    }

    fn front_end_leg(
        &mut self,
        now: SimTime,
        src: usize,
        bytes: u64,
        tag: &'static str,
    ) -> SimTime {
        match self {
            ActiveWire::Loop(fc) => fc.transfer(now, src, bytes, tag),
            ActiveWire::Switch(sw) => sw.transfer_to_front_end(now, src, bytes, tag),
        }
    }
}

/// Two extent regions: region 0 holds base datasets on the inner quarter
/// of each drive (datasets of this era filled drives from the inside of
/// partitions; this also reproduces the paper's sustained scan rates),
/// region 1 holds intermediates (run files, partitions) on the outer
/// three quarters. Multi-phase tasks read one region while writing the
/// other, keeping arm movement realistic without a full allocator.
const REGIONS: u64 = 2;

/// Chunk size of the SMP striping library (64 KB per disk).
const SMP_CHUNK: u64 = 64 * 1024;

/// Architecture-specific state behind the common machine interface.
#[derive(Clone)]
enum Fabric {
    Active {
        fc: ActiveWire,
        /// The front-end's single FC attachment: all traffic to/through
        /// the front-end serializes here (one loop pair's port rate).
        fe_port: FifoServer,
        fe_port_rate: Bandwidth,
        direct: bool,
        msg: MsgCosts,
    },
    Cluster {
        net: ClusterFabric,
        msg: MsgCosts,
    },
    Smp {
        mem: SmpFabric,
        io: SmpIoSubsystem,
        msg: MsgCosts,
    },
}

/// One configured machine, ready to execute phases.
#[derive(Clone)]
pub struct Machine {
    nodes: usize,
    disks: Vec<Disk>,
    cpus: Vec<FifoServer>,
    fe_cpu: FifoServer,
    node_cpu: ProcessorSpec,
    fe_cpu_spec: ProcessorSpec,
    os: OsCosts,
    fabric: Fabric,
    /// Per-disk, per-region next sequential offset.
    cursors: Vec<[u64; REGIONS as usize]>,
    /// SMP global stripe cursors (read, write).
    stripe_cursor: [usize; 2],
    /// Pipeline window: batches in flight between disk and CPU per node.
    window: usize,
    region_size: u64,
    interconnect_bytes: u64,
    frontend_bytes: u64,
    /// Per-node fail-stop flags (set by [`Machine::fail_disk`]).
    failed: Vec<bool>,
    /// Per-node disk downtime accounting.
    downtime: Vec<DowntimeTracker>,
    /// Aggregate service time of recovery reads and rebalance transfers.
    recovery_busy: Duration,
    /// Bytes of failed partitions re-read through the recovery path.
    work_redistributed: u64,
    /// Rotating cursor spreading Redistribute mirror reads over survivors.
    recovery_rr: usize,
    /// Cached count of failed nodes.
    failed_count: usize,
    /// The healthy nodes, in order (the recovery path's survivors);
    /// empty while no node has failed.
    healthy: Vec<usize>,
    /// The SMP stripe groups — every disk, the read half, the write half
    /// — each cut to its healthy members, or to all healthy nodes when
    /// the whole group has failed, or kept whole when no node is healthy;
    /// empty while no node has failed.
    stripe_groups: [Vec<usize>; 3],
}

impl Machine {
    /// Builds the machine for an architecture configuration.
    pub fn new(arch: &Architecture) -> Self {
        match arch {
            Architecture::ActiveDisks(c) => Self::active(c),
            Architecture::Cluster(c) => Self::cluster(c),
            Architecture::Smp(c) => Self::smp(c),
        }
    }

    fn active(c: &ActiveDiskConfig) -> Self {
        let disks: Vec<Disk> = (0..c.disks)
            .map(|_| Disk::new(c.disk_spec.clone()))
            .collect();
        let region_size = disks[0].capacity_bytes() / REGIONS;
        let sandbox = Sandbox::for_disk_memory(c.disk_memory_bytes);
        Machine {
            nodes: c.disks,
            cpus: vec![FifoServer::new(); c.disks],
            fe_cpu: FifoServer::new(),
            node_cpu: c.embedded_cpu,
            fe_cpu_spec: c.front_end_cpu,
            os: OsCosts::disk_os(),
            fabric: Fabric::Active {
                fc: match c.interconnect_kind {
                    InterconnectKind::DualLoop => ActiveWire::Loop(FcLoop::dual(c.interconnect)),
                    InterconnectKind::FibreSwitch => {
                        ActiveWire::Switch(FcSwitchFabric::for_devices(c.disks, c.interconnect))
                    }
                },
                fe_port: FifoServer::new(),
                fe_port_rate: Bandwidth::from_bytes_per_sec(c.interconnect.bytes_per_sec() / 2.0),
                direct: c.direct_disk_to_disk,
                msg: MsgCosts::disk_stream(),
            },
            cursors: vec![[0; 2]; c.disks],
            stripe_cursor: [0; 2],
            window: sandbox.comm_buffers(),
            region_size,
            disks,
            interconnect_bytes: 0,
            frontend_bytes: 0,
            failed: Vec::new(),
            downtime: Vec::new(),
            recovery_busy: Duration::ZERO,
            work_redistributed: 0,
            recovery_rr: 0,
            failed_count: 0,
            healthy: Vec::new(),
            stripe_groups: Default::default(),
        }
        .init_fault_state()
    }

    fn cluster(c: &ClusterConfig) -> Self {
        let disks: Vec<Disk> = (0..c.nodes)
            .map(|_| Disk::new(c.disk_spec.clone()))
            .collect();
        let region_size = disks[0].capacity_bytes() / REGIONS;
        Machine {
            nodes: c.nodes,
            cpus: vec![FifoServer::new(); c.nodes],
            fe_cpu: FifoServer::new(),
            node_cpu: c.node_cpu,
            fe_cpu_spec: c.node_cpu,
            os: OsCosts::full_function(),
            fabric: Fabric::Cluster {
                net: ClusterFabric::new(c.nodes),
                msg: MsgCosts::user_space_ethernet(),
            },
            cursors: vec![[0; 2]; c.nodes],
            stripe_cursor: [0; 2],
            window: 2 * hostos::ASYNC_IO_DEPTH,
            region_size,
            disks,
            interconnect_bytes: 0,
            frontend_bytes: 0,
            failed: Vec::new(),
            downtime: Vec::new(),
            recovery_busy: Duration::ZERO,
            work_redistributed: 0,
            recovery_rr: 0,
            failed_count: 0,
            healthy: Vec::new(),
            stripe_groups: Default::default(),
        }
        .init_fault_state()
    }

    fn smp(c: &SmpConfig) -> Self {
        let disks: Vec<Disk> = (0..c.processors)
            .map(|_| Disk::new(c.disk_spec.clone()))
            .collect();
        let region_size = disks[0].capacity_bytes() / REGIONS;
        let boards = c.processors.div_ceil(2);
        Machine {
            nodes: c.processors,
            cpus: vec![FifoServer::new(); c.processors],
            fe_cpu: FifoServer::new(),
            node_cpu: c.cpu,
            fe_cpu_spec: c.cpu,
            os: OsCosts::full_function(),
            fabric: Fabric::Smp {
                mem: SmpFabric::new(boards),
                io: SmpIoSubsystem::new(c.io_interconnect),
                msg: MsgCosts::smp_block_transfer(),
            },
            cursors: vec![[0; 2]; c.processors],
            stripe_cursor: [0; 2],
            window: 2 * hostos::ASYNC_IO_DEPTH,
            region_size,
            disks,
            interconnect_bytes: 0,
            frontend_bytes: 0,
            failed: Vec::new(),
            downtime: Vec::new(),
            recovery_busy: Duration::ZERO,
            work_redistributed: 0,
            recovery_rr: 0,
            failed_count: 0,
            healthy: Vec::new(),
            stripe_groups: Default::default(),
        }
        .init_fault_state()
    }

    fn init_fault_state(mut self) -> Self {
        self.failed = vec![false; self.nodes];
        self.downtime = vec![DowntimeTracker::new(); self.nodes];
        self
    }

    /// Recomputes the failed count and the survivor lists from the
    /// failed flags. Only a fault or a restore changes the flags, so the
    /// read, write and recovery paths index these lists rather than
    /// collect them per request.
    fn rebuild_survivors(&mut self) {
        let failed = &self.failed;
        self.failed_count = failed.iter().filter(|&&f| f).count();
        self.healthy.clear();
        for group in &mut self.stripe_groups {
            group.clear();
        }
        if self.failed_count == 0 {
            return;
        }
        let healthy_in = |range: std::ops::Range<usize>| range.filter(|&d| !failed[d]);
        self.healthy.extend(healthy_in(0..self.nodes));
        let half = self.nodes / 2;
        for (group, (start, len)) in
            self.stripe_groups
                .iter_mut()
                .zip([(0, self.nodes), (0, half), (half, half)])
        {
            group.extend(healthy_in(start..start + len));
            if group.is_empty() {
                group.extend_from_slice(&self.healthy);
            }
            if group.is_empty() {
                group.extend(start..start + len);
            }
        }
    }

    /// Number of worker nodes (processors / disks).
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The pipeline window (in-flight batches) per node.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The worker-node processor.
    pub fn node_cpu(&self) -> ProcessorSpec {
        self.node_cpu
    }

    /// The front-end processor.
    pub fn fe_cpu_spec(&self) -> ProcessorSpec {
        self.fe_cpu_spec
    }

    /// Host OS costs on the worker nodes.
    pub fn os(&self) -> OsCosts {
        self.os
    }

    /// Offers tagged work to a node's CPU; returns completion time.
    pub fn node_cpu_work(
        &mut self,
        node: usize,
        now: SimTime,
        work: Duration,
        tag: &'static str,
    ) -> SimTime {
        self.cpus[node].offer(now, work, tag).end
    }

    /// Offers a back-to-back run of tagged work items to a node's CPU;
    /// returns the run's completion time. Bit-identical with offering
    /// each item in sequence, at a single queueing round.
    pub fn node_cpu_run(
        &mut self,
        node: usize,
        now: SimTime,
        parts: impl IntoIterator<Item = (Duration, &'static str)>,
    ) -> SimTime {
        self.cpus[node].offer_run(now, parts).end
    }

    /// Offers tagged work to the front-end CPU.
    pub fn fe_cpu_work(&mut self, now: SimTime, work: Duration, tag: &'static str) -> SimTime {
        self.fe_cpu.offer(now, work, tag).end
    }

    /// Resets per-phase extent cursors: reads come from `read_region`,
    /// writes go to the other region.
    pub fn begin_phase(&mut self, read_region: usize) {
        for c in &mut self.cursors {
            c[read_region] = 0;
            c[1 - read_region] = 0;
        }
        self.stripe_cursor = [0, 0];
    }

    /// Issues a sequential read of `bytes` for `node` at `now`; returns
    /// when the data is in the node's memory.
    pub fn read(
        &mut self,
        node: usize,
        now: SimTime,
        bytes: u64,
        region: usize,
        phase_writes: bool,
    ) -> SimTime {
        if let Fabric::Smp { .. } = self.fabric {
            return self.smp_stripe(now, bytes, region, false, phase_writes);
        }
        let offset = self.alloc(node, region, bytes);
        self.disks[node]
            .submit(now, Request::read(offset, bytes))
            .end
    }

    /// Issues a sequential write of `bytes` from `node` at `now`; returns
    /// when the write is on media.
    pub fn write(
        &mut self,
        node: usize,
        now: SimTime,
        bytes: u64,
        read_region: usize,
        phase_writes: bool,
    ) -> SimTime {
        let region = 1 - read_region;
        if let Fabric::Smp { .. } = self.fabric {
            return self.smp_stripe(now, bytes, region, true, phase_writes);
        }
        let offset = self.alloc(node, region, bytes);
        self.disks[node]
            .submit(now, Request::write(offset, bytes))
            .end
    }

    /// The SMP striping library: `bytes` move in 64 KB chunks round-robin
    /// over a disk group, each chunk crossing the FC loop + XIO between
    /// the disk and memory (reads hit media first, writes cross first).
    /// A phase that writes splits the disks into a read half and a write
    /// half (NOW-sort style); otherwise both directions use every disk.
    /// Failed drives drop out of the stripe, and a group that lost every
    /// drive falls back to all healthy drives. Chunk `c` of the stream
    /// goes to member `c % width` of the group (the group itself while no
    /// drive has failed), with one `%` per call.
    /// Returns when the last chunk is in memory (read) or on media
    /// (write).
    fn smp_stripe(
        &mut self,
        now: SimTime,
        bytes: u64,
        region: usize,
        write: bool,
        phase_writes: bool,
    ) -> SimTime {
        let rbase = self.region_base(region);
        let rcap = self.region_capacity(region);
        let split = phase_writes && self.nodes >= 2;
        let len = if split { self.nodes / 2 } else { self.nodes };
        let start = if split && write { self.nodes / 2 } else { 0 };
        let members = &self.stripe_groups[if split { 1 + usize::from(write) } else { 0 }];
        let width = if members.is_empty() {
            len
        } else {
            members.len()
        };
        let Fabric::Smp { io, .. } = &mut self.fabric else {
            unreachable!("striping is SMP-only")
        };
        let cursor = &mut self.stripe_cursor[usize::from(write)];
        let mut slot = *cursor % width;
        let mut remaining = bytes;
        let mut done = now;
        while remaining > 0 {
            let chunk = remaining.min(SMP_CHUNK);
            let disk_ix = if members.is_empty() {
                start + slot
            } else {
                members[slot]
            };
            slot += 1;
            if slot == width {
                slot = 0;
            }
            *cursor += 1;
            let offset = {
                let cur = &mut self.cursors[disk_ix][region];
                if *cur + chunk > rcap {
                    *cur = 0;
                }
                let off = rbase + *cur;
                *cur += chunk;
                off
            };
            self.interconnect_bytes += chunk;
            let disk = &mut self.disks[disk_ix];
            let end = if write {
                let at_disk = io.disk_transfer(now, disk_ix, chunk, "io-write");
                disk.submit(at_disk, Request::write(offset, chunk)).end
            } else {
                let media_done = disk.submit(now, Request::read(offset, chunk)).end;
                io.disk_transfer(media_done, disk_ix, chunk, "io-read")
            };
            done = done.max(end);
            remaining -= chunk;
        }
        done
    }

    /// Region 0 (datasets) lives on the inner half of each drive, region 1
    /// (intermediates) on the outer half; base offsets reflect that.
    fn region_base(&self, region: usize) -> u64 {
        if region == 0 {
            // Base datasets: inner quarter.
            3 * self.region_size / 2
        } else {
            0
        }
    }

    fn region_capacity(&self, region: usize) -> u64 {
        if region == 0 {
            self.region_size / 2
        } else {
            3 * self.region_size / 2
        }
    }

    fn alloc(&mut self, node: usize, region: usize, bytes: u64) -> u64 {
        let base = self.region_base(region);
        let cap = self.region_capacity(region);
        assert!(
            bytes <= cap,
            "request of {bytes} B exceeds region capacity {cap}"
        );
        let cur = &mut self.cursors[node][region];
        // Streams larger than the region wrap around (placement is
        // synthetic; a wrap costs one re-positioning in the disk model).
        if *cur + bytes > cap {
            *cur = 0;
        }
        let offset = base + *cur;
        *cur += bytes;
        offset
    }

    /// CPU cost charged to a sender/receiver per message.
    pub fn msg_cost(&self, bytes: u64) -> Duration {
        match &self.fabric {
            Fabric::Active { msg, .. } | Fabric::Cluster { msg, .. } | Fabric::Smp { msg, .. } => {
                msg.send_cost(bytes)
            }
        }
    }

    /// Transfers `bytes` from `src` to peer `dst`; returns arrival time.
    /// `src == dst` is a local hand-off (no wire).
    pub fn peer_transfer(&mut self, now: SimTime, src: usize, dst: usize, bytes: u64) -> SimTime {
        if src == dst {
            return now;
        }
        self.interconnect_bytes += bytes;
        match &mut self.fabric {
            Fabric::Active {
                fc,
                fe_port,
                fe_port_rate,
                direct,
                ..
            } => {
                if *direct {
                    fc.transfer(now, src, dst, bytes, "shuffle")
                } else {
                    // Restricted architecture: through the front-end's
                    // memory. Inbound loop leg, front-end port (in), then
                    // outbound loop leg and the port again (out).
                    let in_loop = fc.front_end_leg(now, src, bytes, "shuffle-in");
                    let in_port = fe_port
                        .offer(in_loop, fe_port_rate.transfer_time(bytes), "fe-in")
                        .end;
                    let out_port = fe_port
                        .offer(in_port, fe_port_rate.transfer_time(bytes), "fe-out")
                        .end;
                    fc.transfer(out_port, dst, dst, bytes, "shuffle-out")
                }
            }
            Fabric::Cluster { net, .. } => net.send(now, src, dst, bytes, "shuffle"),
            Fabric::Smp { mem, .. } => mem.block_transfer(now, src / 2, dst / 2, bytes, "shuffle"),
        }
    }

    /// Transfers `bytes` from `src` to the front-end; returns arrival.
    pub fn fe_transfer(&mut self, now: SimTime, src: usize, bytes: u64) -> SimTime {
        self.frontend_bytes += bytes;
        match &mut self.fabric {
            Fabric::Active {
                fc,
                fe_port,
                fe_port_rate,
                ..
            } => {
                let on_loop = fc.front_end_leg(now, src, bytes, "to-frontend");
                fe_port
                    .offer(on_loop, fe_port_rate.transfer_time(bytes), "fe-in")
                    .end
            }
            Fabric::Cluster { net, .. } => {
                let fe = net.front_end();
                net.send(now, src, fe, bytes, "to-frontend")
            }
            Fabric::Smp { mem, .. } => mem.block_transfer(now, src / 2, 0, bytes, "to-frontend"),
        }
    }
    /// Snapshot of all worker-CPU busy time by tag since construction.
    pub fn cpu_busy_by_tag(&self) -> std::collections::BTreeMap<&'static str, Duration> {
        let mut map = std::collections::BTreeMap::new();
        for cpu in &self.cpus {
            for (tag, busy) in cpu.busy_breakdown() {
                *map.entry(tag).or_insert(Duration::ZERO) += busy;
            }
        }
        map
    }

    /// Total worker-CPU busy time since construction.
    pub fn cpu_busy_total(&self) -> Duration {
        self.cpus.iter().map(FifoServer::busy_total).sum()
    }

    /// Total worker-CPU queueing time since construction.
    pub fn cpu_wait_total(&self) -> Duration {
        self.cpus.iter().map(FifoServer::wait_total).sum()
    }

    /// Total disk busy time since construction.
    pub fn disk_busy_total(&self) -> Duration {
        self.disks.iter().map(Disk::busy_total).sum()
    }

    /// Total disk queueing time since construction.
    pub fn disk_wait_total(&self) -> Duration {
        self.disks.iter().map(Disk::wait_total).sum()
    }

    /// Injects `count` grown defects into `node`'s drive at positions
    /// drawn from `rng` across the dataset region (a defect *burst*, as
    /// from a head ding). Silently stops on spare exhaustion; no-op on a
    /// fail-stopped drive.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn degrade_disk_seeded(&mut self, node: usize, count: u64, rng: &mut SplitMix64) {
        assert!(node < self.disks.len(), "node out of range");
        if self.failed[node] {
            return;
        }
        let total = self.disks[node].geometry().total_sectors();
        let base = 3 * total / 4;
        let span = total / 4 - 2_048;
        for _ in 0..count {
            if self.disks[node]
                .grow_defect(base + rng.next_below(span))
                .is_err()
            {
                break;
            }
        }
    }

    /// Fail-stops `node`'s disk at `now`: it serves no further requests,
    /// drops out of SMP stripe groups, and starts accruing downtime.
    /// Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn fail_disk(&mut self, node: usize, now: SimTime) {
        assert!(node < self.nodes, "node out of range");
        if !self.failed[node] {
            self.failed[node] = true;
            self.downtime[node].fail(now);
            self.rebuild_survivors();
        }
    }

    /// True if `node`'s disk has fail-stopped.
    pub fn disk_failed(&self, node: usize) -> bool {
        self.failed[node]
    }

    /// Number of fail-stopped nodes.
    pub fn failed_count(&self) -> usize {
        self.failed_count
    }

    /// Applies an interconnect fault near `node`: on the Active dual loop
    /// one loop drops (survivors carry everything); on a cluster the
    /// node's NIC pair degrades to `severity` of its bandwidth; on an SMP
    /// one FC I/O loop drops. The Active switch fabric is unaffected
    /// (switched segments have no shared medium to lose — the fault is
    /// absorbed, which is itself a finding the availability experiment
    /// can surface).
    pub fn interconnect_fault(&mut self, node: usize, severity: f64) {
        match &mut self.fabric {
            Fabric::Active { fc, .. } => {
                if let ActiveWire::Loop(l) = fc {
                    l.fail_loop(node % l.loop_count());
                }
            }
            Fabric::Cluster { net, .. } => net.degrade_host_link(node, severity),
            Fabric::Smp { io, .. } => io.fail_loop(node % io.loop_count()),
        }
    }

    /// Serves one batch of a failed node's partition through the recovery
    /// path, delivering `bytes` into `consumer`'s memory; returns when
    /// the data is there.
    ///
    /// * [`RecoveryPolicy::Redistribute`] reads the batch from a rotating
    ///   surviving mirror and ships it to `consumer` over the real
    ///   interconnect.
    /// * [`RecoveryPolicy::ReconstructRead`] reads `bytes` from *every*
    ///   surviving drive (RAID-5 stripe reconstruction — the read
    ///   amplification is the point) and ships the survivors' shares to
    ///   `consumer`; the batch is ready when the last share lands.
    /// * [`RecoveryPolicy::FailStop`] never issues recovery reads; calling
    ///   with it is a logic error.
    ///
    /// # Panics
    ///
    /// Panics with `FailStop`, or when no healthy node remains.
    pub fn recovery_read(
        &mut self,
        policy: RecoveryPolicy,
        consumer: usize,
        now: SimTime,
        bytes: u64,
        region: usize,
        phase_writes: bool,
    ) -> SimTime {
        let survivors = self.nodes - self.failed_count;
        assert!(survivors > 0, "recovery with no surviving node");
        // The `i`-th survivor; while no node has failed the list is empty
        // and the survivors are the nodes themselves.
        let survivor = |m: &Machine, i: usize| {
            if m.healthy.is_empty() {
                i
            } else {
                m.healthy[i]
            }
        };
        let ready = match policy {
            RecoveryPolicy::FailStop => panic!("FailStop policy issues no recovery reads"),
            RecoveryPolicy::Redistribute => {
                // Prefer a mirror other than the consumer so the rebalance
                // traffic actually crosses the interconnect: the
                // `recovery_rr`-th of the other survivors, counting round.
                let mirror = if survivors > 1 {
                    // The consumer's rank among the survivors, if it is
                    // one (its own number while the list is empty).
                    let consumer_at = (!self.failed[consumer])
                        .then(|| self.healthy.binary_search(&consumer).unwrap_or(consumer));
                    let i = self.recovery_rr % (survivors - usize::from(consumer_at.is_some()));
                    self.recovery_rr += 1;
                    match consumer_at {
                        Some(at) if i >= at => survivor(self, i + 1),
                        _ => survivor(self, i),
                    }
                } else {
                    survivor(self, 0)
                };
                let media_done = self.read(mirror, now, bytes, region, phase_writes);
                self.peer_transfer(media_done, mirror, consumer, bytes)
            }
            RecoveryPolicy::ReconstructRead => {
                let mut ready = now;
                for i in 0..survivors {
                    let survivor = survivor(self, i);
                    let media_done = self.read(survivor, now, bytes, region, phase_writes);
                    let arrived = self.peer_transfer(media_done, survivor, consumer, bytes);
                    ready = ready.max(arrived);
                }
                ready
            }
        };
        self.recovery_busy += ready.since(now);
        self.work_redistributed += bytes;
        ready
    }

    /// Aggregate service time of recovery reads and rebalance transfers.
    pub fn recovery_busy(&self) -> Duration {
        self.recovery_busy
    }

    /// Bytes of failed partitions served through the recovery path.
    pub fn work_redistributed(&self) -> u64 {
        self.work_redistributed
    }

    /// Total disk downtime (failed node-seconds) through `end`.
    pub fn disk_downtime(&self, end: SimTime) -> Duration {
        self.downtime.iter().map(|d| d.total(end)).sum()
    }

    /// The merged per-request disk service-time distribution across all
    /// drives.
    pub fn disk_service_histogram(&self) -> simcore::Histogram {
        let mut merged = simcore::Histogram::new();
        for d in &self.disks {
            merged.merge(d.service_histogram());
        }
        merged
    }

    /// Bytes moved over the peer interconnect so far.
    pub fn interconnect_bytes(&self) -> u64 {
        self.interconnect_bytes
    }

    /// Bytes delivered to the front-end so far.
    pub fn frontend_bytes(&self) -> u64 {
        self.frontend_bytes
    }

    /// Cumulative busy time and lane count of every contended resource
    /// this machine owns, in a stable order (the same call at two instants
    /// is differenced into per-window utilizations).
    ///
    /// Lane counts: drives and worker CPUs have one lane per node; the
    /// front-end CPU one. Interconnect lanes are fabric-specific — FC
    /// loops (dual loop: 2), switch segment loops (2 per segment), worker
    /// NIC directions (2 per host), or the SMP FC I/O loops. The
    /// front-end link is the FC port (1) or the front-end NIC pair (2);
    /// the SMP memory fabric has one block-transfer engine per board.
    pub fn resource_usage(&self) -> Vec<ResourceUsage> {
        let mut v = Vec::with_capacity(6);
        v.push(ResourceUsage {
            resource: Resource::DiskMedia,
            busy: self.disk_busy_total(),
            wait: self.disk_wait_total(),
            lanes: self.disks.len() as u32,
        });
        v.push(ResourceUsage {
            resource: Resource::WorkerCpu,
            busy: self.cpu_busy_total(),
            wait: self.cpu_wait_total(),
            lanes: self.nodes as u32,
        });
        v.push(ResourceUsage {
            resource: Resource::FrontEndCpu,
            busy: self.fe_cpu.busy_total(),
            wait: self.fe_cpu.wait_total(),
            lanes: 1,
        });
        match &self.fabric {
            Fabric::Active {
                fc, fe_port: port, ..
            } => {
                let (busy, wait, lanes) = match fc {
                    ActiveWire::Loop(l) => (l.busy_total(), l.wait_total(), l.loop_count() as u32),
                    ActiveWire::Switch(s) => {
                        (s.busy_total(), s.wait_total(), s.lane_count() as u32)
                    }
                };
                v.push(ResourceUsage {
                    resource: Resource::Interconnect,
                    busy,
                    wait,
                    lanes,
                });
                v.push(ResourceUsage {
                    resource: Resource::FrontEndLink,
                    busy: port.busy_total(),
                    wait: port.wait_total(),
                    lanes: 1,
                });
            }
            Fabric::Cluster { net, .. } => {
                v.push(ResourceUsage {
                    resource: Resource::Interconnect,
                    busy: net.worker_nic_busy_total(),
                    wait: net.worker_nic_wait_total(),
                    lanes: net.worker_nic_lanes() as u32,
                });
                v.push(ResourceUsage {
                    resource: Resource::FrontEndLink,
                    busy: net.front_end_link_busy_total(),
                    wait: net.front_end_link_wait_total(),
                    lanes: 2,
                });
            }
            Fabric::Smp { mem, io, .. } => {
                v.push(ResourceUsage {
                    resource: Resource::Interconnect,
                    busy: io.loop_busy_total(),
                    wait: io.loop_wait_total(),
                    lanes: io.loop_count() as u32,
                });
                v.push(ResourceUsage {
                    resource: Resource::MemoryFabric,
                    busy: mem.busy_total(),
                    wait: mem.wait_total(),
                    lanes: mem.boards() as u32,
                });
            }
        }
        v.push(ResourceUsage {
            resource: Resource::Recovery,
            busy: self.recovery_busy,
            // Recovery is an attribution lane, not a queueing server.
            wait: Duration::ZERO,
            lanes: 1,
        });
        v
    }

    /// The global-barrier cost model for this architecture's fabric.
    pub fn barrier_costs(&self) -> BarrierCosts {
        match &self.fabric {
            Fabric::Active { .. } => BarrierCosts::fibre_channel(),
            Fabric::Cluster { .. } => BarrierCosts::ethernet(),
            Fabric::Smp { .. } => BarrierCosts::smp(),
        }
    }

    /// True when peers cannot address each other directly (the Figure 5
    /// restricted Active Disk architecture): combinable reductions then
    /// happen at the front-end rather than along a peer tree.
    pub fn restricted_peer_routing(&self) -> bool {
        matches!(self.fabric, Fabric::Active { direct: false, .. })
    }

    /// Serializes all mutable machine state for checkpointing: every
    /// drive, CPU server, the fabric's queueing servers, extent cursors,
    /// fault flags, downtime trackers, and recovery accounting.
    /// Configuration (node count, processor specs, OS and message costs,
    /// rates) is not written; restore targets a machine freshly built
    /// from the same [`Architecture`].
    pub fn save_state(&self, w: &mut StateWriter) {
        w.field("nodes", self.nodes);
        for d in &self.disks {
            d.save_state(w);
        }
        for c in &self.cpus {
            c.save_state(w);
        }
        self.fe_cpu.save_state(w);
        match &self.fabric {
            Fabric::Active { fc, fe_port, .. } => {
                match fc {
                    ActiveWire::Loop(l) => l.save_state(w),
                    ActiveWire::Switch(s) => s.save_state(w),
                }
                fe_port.save_state(w);
            }
            Fabric::Cluster { net, .. } => net.save_state(w),
            Fabric::Smp { mem, io, .. } => {
                mem.save_state(w);
                io.save_state(w);
            }
        }
        for c in &self.cursors {
            w.list("cursor", c.iter().copied());
        }
        w.list("stripe_cursor", self.stripe_cursor.iter().copied());
        w.field("interconnect_bytes", self.interconnect_bytes);
        w.field("frontend_bytes", self.frontend_bytes);
        w.list("failed", self.failed.iter().map(|&f| u8::from(f)));
        for d in &self.downtime {
            d.save_state(w);
        }
        w.field("recovery_busy", self.recovery_busy.as_nanos());
        w.field("work_redistributed", self.work_redistributed);
        w.field("recovery_rr", self.recovery_rr);
    }

    /// Restores state saved by [`Machine::save_state`] into a machine
    /// built from the same [`Architecture`]. The survivor lists are
    /// recomputed from the restored flags; the checkpoint does not carry
    /// them.
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] on malformed input or a node-count
    /// mismatch (a checkpoint from a differently-sized machine).
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let nodes: usize = r.num("nodes")?;
        if nodes != self.nodes {
            return Err(StateError::new(format!(
                "checkpoint has {nodes} nodes, machine has {}",
                self.nodes
            )));
        }
        for d in &mut self.disks {
            d.load_state(r)?;
        }
        for c in &mut self.cpus {
            *c = FifoServer::load_state(r)?;
        }
        self.fe_cpu = FifoServer::load_state(r)?;
        match &mut self.fabric {
            Fabric::Active { fc, fe_port, .. } => {
                match fc {
                    ActiveWire::Loop(l) => l.load_state(r)?,
                    ActiveWire::Switch(s) => s.load_state(r)?,
                }
                *fe_port = FifoServer::load_state(r)?;
            }
            Fabric::Cluster { net, .. } => net.load_state(r)?,
            Fabric::Smp { mem, io, .. } => {
                mem.load_state(r)?;
                io.load_state(r)?;
            }
        }
        for c in &mut self.cursors {
            let vals: Vec<u64> = r.nums("cursor")?;
            let [a, b] = vals[..] else {
                return Err(StateError::new("cursor line needs 2 values"));
            };
            *c = [a, b];
        }
        let sc: Vec<usize> = r.nums("stripe_cursor")?;
        let [sr, sw] = sc[..] else {
            return Err(StateError::new("stripe_cursor line needs 2 values"));
        };
        self.stripe_cursor = [sr, sw];
        self.interconnect_bytes = r.num("interconnect_bytes")?;
        self.frontend_bytes = r.num("frontend_bytes")?;
        let flags: Vec<u8> = r.nums("failed")?;
        if flags.len() != self.nodes {
            return Err(StateError::new("failed-flag count mismatch"));
        }
        self.failed = flags.iter().map(|&f| f != 0).collect();
        self.rebuild_survivors();
        for d in &mut self.downtime {
            *d = DowntimeTracker::load_state(r)?;
        }
        self.recovery_busy = Duration::from_nanos(r.num("recovery_busy")?);
        self.work_redistributed = r.num("work_redistributed")?;
        self.recovery_rr = r.num("recovery_rr")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch::Architecture;

    fn active(n: usize) -> Machine {
        Machine::new(&Architecture::active_disks(n))
    }

    #[test]
    fn construction_matches_architecture() {
        assert_eq!(active(16).nodes(), 16);
        assert_eq!(Machine::new(&Architecture::cluster(32)).nodes(), 32);
        assert_eq!(Machine::new(&Architecture::smp(64)).nodes(), 64);
    }

    #[test]
    fn window_scales_with_disk_memory() {
        let base = Machine::new(&Architecture::active_disks(8));
        let big = Machine::new(&Architecture::active_disks(8).with_disk_memory(64 << 20));
        assert_eq!(big.window(), 2 * base.window(), "64 MB doubles OS buffers");
    }

    #[test]
    fn sequential_reads_stream() {
        let mut m = active(4);
        m.begin_phase(0);
        let t1 = m.read(0, SimTime::ZERO, 256 * 1024, 0, false);
        let t2 = m.read(0, t1, 256 * 1024, 0, false);
        // The second read continues the stream: cheaper than the first.
        assert!(t2.since(t1) < t1.since(SimTime::ZERO));
    }

    #[test]
    fn begin_phase_resets_cursors() {
        let mut m = active(2);
        m.begin_phase(0);
        let a = m.read(0, SimTime::ZERO, 512, 0, false);
        m.begin_phase(0);
        // Same extent again: the disk serves from its stream state, but the
        // allocator restarted at the region base (no overflow after many
        // phases).
        let b = m.read(0, a, 512, 0, false);
        assert!(b > a);
    }

    #[test]
    fn peer_transfer_local_is_free() {
        let mut m = active(4);
        let now = SimTime::from_nanos(500);
        assert_eq!(m.peer_transfer(now, 2, 2, 1 << 20,), now);
        assert_eq!(
            m.interconnect_bytes(),
            0,
            "local hand-off is not wire traffic"
        );
    }

    #[test]
    fn peer_transfer_counts_bytes() {
        let mut m = active(4);
        let t = m.peer_transfer(SimTime::ZERO, 0, 1, 1 << 20);
        assert!(t > SimTime::ZERO);
        assert_eq!(m.interconnect_bytes(), 1 << 20);
    }

    #[test]
    fn restricted_routing_is_slower_and_flagged() {
        let mut direct = Machine::new(&Architecture::active_disks(8));
        let mut restricted =
            Machine::new(&Architecture::active_disks(8).with_direct_disk_to_disk(false));
        assert!(!direct.restricted_peer_routing());
        assert!(restricted.restricted_peer_routing());
        let td = direct.peer_transfer(SimTime::ZERO, 0, 5, 1 << 20);
        let tr = restricted.peer_transfer(SimTime::ZERO, 0, 5, 1 << 20);
        assert!(tr > td, "front-end staging must cost more");
    }

    #[test]
    fn fibre_switch_machine_transfers() {
        let switched = Architecture::active_disks(32).with_fibre_switch();
        let mut m = Machine::new(&switched);
        let t = m.peer_transfer(SimTime::ZERO, 0, 31, 1 << 20);
        assert!(t > SimTime::ZERO);
        let fe = m.fe_transfer(t, 3, 4_096);
        assert!(fe > t);
        // The interconnect rate is each segment's: a slower one slows
        // peer traffic.
        let mut slow = Machine::new(&switched.with_interconnect_mb(50.0));
        assert!(slow.peer_transfer(SimTime::ZERO, 0, 31, 1 << 20) > t);
    }

    #[test]
    fn smp_reads_cross_the_loop() {
        let mut m = Machine::new(&Architecture::smp(8));
        m.begin_phase(0);
        let t = m.read(0, SimTime::ZERO, 256 * 1024, 0, false);
        assert!(t > SimTime::ZERO);
        assert_eq!(
            m.interconnect_bytes(),
            256 * 1024,
            "striped chunks cross the FC loop"
        );
    }

    #[test]
    fn cpu_work_is_tag_accounted() {
        let mut m = active(2);
        m.node_cpu_work(0, SimTime::ZERO, Duration::from_micros(5), "alpha");
        m.node_cpu_work(1, SimTime::ZERO, Duration::from_micros(7), "beta");
        let tags = m.cpu_busy_by_tag();
        assert_eq!(tags["alpha"], Duration::from_micros(5));
        assert_eq!(tags["beta"], Duration::from_micros(7));
        assert_eq!(m.cpu_busy_total(), Duration::from_micros(12));
    }

    #[test]
    fn resource_usage_is_architecture_shaped() {
        let mut a = active(4);
        let usage = a.resource_usage();
        assert_eq!(usage.len(), 6);
        assert_eq!(usage.last().unwrap().resource, Resource::Recovery);
        assert!(usage.iter().any(|u| u.resource == Resource::FrontEndLink));
        assert!(usage.iter().all(|u| u.resource != Resource::MemoryFabric));
        assert!(usage.iter().all(|u| u.busy.is_zero()), "idle machine");
        // A dual loop reports two lanes; work accrues busy time.
        let ic = usage
            .iter()
            .find(|u| u.resource == Resource::Interconnect)
            .unwrap();
        assert_eq!(ic.lanes, 2);
        a.peer_transfer(SimTime::ZERO, 0, 1, 1 << 20);
        let after = a.resource_usage();
        assert!(
            after
                .iter()
                .find(|u| u.resource == Resource::Interconnect)
                .unwrap()
                .busy
                > Duration::ZERO
        );

        let s = Machine::new(&Architecture::smp(8)).resource_usage();
        assert!(s.iter().any(|u| u.resource == Resource::MemoryFabric));
        assert!(s.iter().all(|u| u.resource != Resource::FrontEndLink));

        let c = Machine::new(&Architecture::cluster(16)).resource_usage();
        let nic = c
            .iter()
            .find(|u| u.resource == Resource::Interconnect)
            .unwrap();
        assert_eq!(nic.lanes, 32, "one tx + one rx lane per worker host");
    }

    #[test]
    fn fail_disk_is_idempotent_and_accrues_downtime() {
        let mut m = active(4);
        assert!(!m.disk_failed(2));
        let t = SimTime::ZERO + Duration::from_secs(1);
        m.fail_disk(2, t);
        m.fail_disk(2, t + Duration::from_secs(5));
        assert!(m.disk_failed(2));
        assert_eq!(m.failed_count(), 1);
        assert_eq!(
            m.disk_downtime(t + Duration::from_secs(3)),
            Duration::from_secs(3)
        );
    }

    #[test]
    fn redistribute_recovery_crosses_the_interconnect() {
        let mut m = active(4);
        m.begin_phase(0);
        m.fail_disk(1, SimTime::ZERO);
        let ready = m.recovery_read(
            RecoveryPolicy::Redistribute,
            1,
            SimTime::ZERO,
            256 * 1024,
            0,
            false,
        );
        assert!(ready > SimTime::ZERO);
        assert_eq!(m.work_redistributed(), 256 * 1024);
        assert!(m.recovery_busy() > Duration::ZERO);
        assert_eq!(
            m.interconnect_bytes(),
            256 * 1024,
            "rebalance traffic rides the real fabric"
        );
    }

    #[test]
    fn reconstruct_amplifies_surviving_disk_reads() {
        let run = |policy| {
            let mut m = active(8);
            m.begin_phase(0);
            m.fail_disk(0, SimTime::ZERO);
            m.recovery_read(policy, 0, SimTime::ZERO, 256 * 1024, 0, false);
            m.disk_busy_total()
        };
        let redistribute = run(RecoveryPolicy::Redistribute);
        let reconstruct = run(RecoveryPolicy::ReconstructRead);
        assert!(
            reconstruct > redistribute * 4,
            "every survivor reads the stripe: {reconstruct} vs {redistribute}"
        );
    }

    #[test]
    fn smp_stripe_skips_failed_disks() {
        let mut m = Machine::new(&Architecture::smp(8));
        m.begin_phase(0);
        m.fail_disk(3, SimTime::ZERO);
        let t = m.read(0, SimTime::ZERO, 1 << 20, 0, false);
        assert!(t > SimTime::ZERO);
        // The failed drive served nothing.
        assert!(m.disks[3].busy_total().is_zero());
    }

    /// The healthy members of the stripe group `[start, start+len)`,
    /// falling back to all healthy nodes when the whole group has failed
    /// (the per-request collection the survivor lists replace).
    fn healthy_group(failed: &[bool], start: usize, len: usize) -> Vec<usize> {
        let group: Vec<usize> = (start..start + len).filter(|&d| !failed[d]).collect();
        if !group.is_empty() {
            return group;
        }
        (0..failed.len()).filter(|&d| !failed[d]).collect()
    }

    /// The stripe groups `(start, len)`: every disk, the read half and
    /// the write half.
    fn group_bounds(nodes: usize) -> [(usize, usize); 3] {
        [(0, nodes), (0, nodes / 2), (nodes / 2, nodes / 2)]
    }

    fn assert_survivors(m: &Machine) {
        let healthy: Vec<usize> = (0..m.nodes).filter(|&n| !m.failed[n]).collect();
        assert_eq!(m.failed_count(), m.nodes - healthy.len());
        if m.failed_count() == 0 {
            assert!(m.healthy.is_empty() && m.stripe_groups.iter().all(Vec::is_empty));
            return;
        }
        assert_eq!(m.healthy, healthy);
        for (group, (start, len)) in m.stripe_groups.iter().zip(group_bounds(m.nodes)) {
            let mut want = healthy_group(&m.failed, start, len);
            if want.is_empty() {
                want = (start..start + len).collect();
            }
            assert_eq!(*group, want, "group [{start}, {})", start + len);
        }
    }

    #[test]
    fn survivor_lists_follow_every_fault_and_restore() {
        for nodes in [1, 7, 8] {
            let mut m = Machine::new(&Architecture::smp(nodes));
            assert_survivors(&m);
            for node in [3, 0, 6, 1, 2, 5, 4, 3].into_iter().filter(|&n| n < nodes) {
                m.fail_disk(node, SimTime::ZERO);
                assert_survivors(&m);
                let mut w = simcore::StateWriter::new();
                m.save_state(&mut w);
                let text = w.finish();
                let mut restored = Machine::new(&Architecture::smp(nodes));
                restored
                    .load_state(&mut simcore::StateReader::new(&text))
                    .expect("restore");
                assert_survivors(&restored);
                assert_eq!(restored.stripe_groups, m.stripe_groups);
            }
        }
    }

    #[test]
    fn stripe_chunks_go_to_cursor_mod_width() {
        // Each call stripes `k` chunks; the disks they land on must be
        // members `cursor % width` onwards of the group's survivors.
        for failed in [&[][..], &[3], &[1, 5, 6], &[0, 1, 2, 3], &[4, 5, 6, 7]] {
            for phase_writes in [false, true] {
                let mut m = Machine::new(&Architecture::smp(8));
                m.begin_phase(0);
                for &f in failed {
                    m.fail_disk(f, SimTime::ZERO);
                }
                let mut t = SimTime::ZERO;
                for k in 1..=11u64 {
                    for write in [false, true] {
                        let served = |m: &Machine| -> Vec<u64> {
                            m.disks.iter().map(|d| d.reads() + d.writes()).collect()
                        };
                        let before = served(&m);
                        let cursor = m.stripe_cursor[usize::from(write)];
                        let (start, len) = group_bounds(8)[if phase_writes {
                            1 + usize::from(write)
                        } else {
                            0
                        }];
                        let group = healthy_group(&m.failed, start, len);
                        let mut want = vec![0u64; 8];
                        for c in cursor..cursor + k as usize {
                            want[group[c % group.len()]] += 1;
                        }
                        t = if write {
                            m.write(0, t, k * SMP_CHUNK, 0, phase_writes)
                        } else {
                            m.read(0, t, k * SMP_CHUNK, 0, phase_writes)
                        };
                        let got: Vec<u64> =
                            served(&m).iter().zip(&before).map(|(a, b)| a - b).collect();
                        assert_eq!(got, want, "failed {failed:?}, {k} chunks, write {write}");
                        assert_eq!(m.stripe_cursor[usize::from(write)], cursor + k as usize);
                    }
                }
            }
        }
    }

    #[test]
    fn redistribute_mirrors_rotate_over_the_other_survivors() {
        for (failed, consumer) in [
            (&[2, 5][..], 0),
            (&[2, 5], 2),
            (&[2, 5], 3),
            (&[2, 5], 7),
            (&[], 3),
        ] {
            let mut m = active(8);
            m.begin_phase(0);
            for &node in failed {
                m.fail_disk(node, SimTime::ZERO);
            }
            let others: Vec<usize> = (0..8).filter(|&n| !m.failed[n] && n != consumer).collect();
            let mut t = SimTime::ZERO;
            for call in 0..13 {
                let before: Vec<u64> = m.disks.iter().map(Disk::reads).collect();
                t = m.recovery_read(
                    RecoveryPolicy::Redistribute,
                    consumer,
                    t,
                    64 * 1024,
                    0,
                    false,
                );
                let mirror = (0..8).find(|&n| m.disks[n].reads() > before[n]);
                assert_eq!(
                    mirror,
                    Some(others[call % others.len()]),
                    "consumer {consumer}"
                );
            }
        }
    }

    #[test]
    fn seeded_degradation_is_reproducible() {
        // Scan 64 MB in executor-sized batches (the access pattern the
        // simulator actually issues).
        let scan = |m: &mut Machine| {
            m.begin_phase(0);
            let mut t = SimTime::ZERO;
            for _ in 0..256 {
                t = m.read(0, t, 256 << 10, 0, false);
            }
            t
        };
        let mk = || {
            let mut m = active(2);
            let mut rng = SplitMix64::new(42);
            m.degrade_disk_seeded(0, 1_000, &mut rng);
            scan(&mut m)
        };
        assert_eq!(mk(), mk(), "same seed, same defect pattern");
        let mut healthy = active(2);
        let h = scan(&mut healthy);
        let d = mk();
        assert!(
            d > h,
            "grown defects slow the scan: degraded {d}, healthy {h}"
        );
    }

    #[test]
    fn interconnect_fault_slows_active_loop_traffic() {
        let mut m = active(8);
        let healthy = m.peer_transfer(SimTime::ZERO, 0, 1, 8 << 20);
        let mut faulty = active(8);
        faulty.interconnect_fault(1, 0.5);
        let t = faulty.peer_transfer(SimTime::ZERO, 0, 1, 8 << 20);
        // One loop dropped: the survivor serializes both parities.
        let t2 = faulty.peer_transfer(SimTime::ZERO, 1, 0, 8 << 20);
        assert!(t2 > t, "single surviving loop serializes");
        assert!(t >= healthy);
    }

    #[test]
    fn barrier_costs_differ_by_fabric() {
        let a = active(64).barrier_costs().barrier(64);
        let s = Machine::new(&Architecture::smp(64))
            .barrier_costs()
            .barrier(64);
        assert!(s < a, "SMP barriers are hardware-assisted");
    }

    #[test]
    fn msg_costs_differ_by_fabric() {
        let a = active(4).msg_cost(1 << 20);
        let c = Machine::new(&Architecture::cluster(4)).msg_cost(1 << 20);
        assert!(c > a, "ethernet staging copies cost more than disk streams");
    }

    #[test]
    fn state_round_trips_and_continues_identically_on_every_fabric() {
        for arch in [
            Architecture::active_disks(4),
            Architecture::active_disks(16).with_fibre_switch(),
            Architecture::active_disks(4).with_direct_disk_to_disk(false),
            Architecture::cluster(4),
            Architecture::smp(4),
        ] {
            let mut live = Machine::new(&arch);
            live.begin_phase(0);
            let t1 = live.read(0, SimTime::ZERO, 256 * 1024, 0, false);
            let t2 = live.write(1, t1, 128 * 1024, 0, true);
            live.node_cpu_work(0, t2, Duration::from_micros(30), "scan");
            live.fe_cpu_work(t2, Duration::from_micros(12), "collect");
            live.fail_disk(2, t2);
            let t3 = live.recovery_read(RecoveryPolicy::Redistribute, 2, t2, 64 * 1024, 0, false);
            live.interconnect_fault(1, 0.5);

            let mut w = simcore::StateWriter::new();
            live.save_state(&mut w);
            let text = w.finish();

            let mut restored = Machine::new(&arch);
            restored
                .load_state(&mut simcore::StateReader::new(&text))
                .expect("restore");
            assert_eq!(restored.failed_count(), 1, "failed flags restored");

            // Identical continuations in both worlds.
            let ops = |m: &mut Machine| {
                let a = m.read(0, t3, 256 * 1024, 0, false);
                let b = m.write(3, a, 64 * 1024, 0, true);
                let c = m.peer_transfer(b, 0, 3, 512 * 1024);
                let d = m.fe_transfer(c, 3, 4_096);
                let e = m.recovery_read(RecoveryPolicy::ReconstructRead, 2, d, 32 * 1024, 0, false);
                (a, b, c, d, e)
            };
            assert_eq!(ops(&mut live), ops(&mut restored), "diverged on {arch:?}");
            assert_eq!(live.resource_usage(), restored.resource_usage());
            assert_eq!(
                live.disk_downtime(t3 + Duration::from_secs(1)),
                restored.disk_downtime(t3 + Duration::from_secs(1))
            );
            assert_eq!(live.interconnect_bytes(), restored.interconnect_bytes());
            assert_eq!(live.frontend_bytes(), restored.frontend_bytes());
            assert_eq!(live.work_redistributed(), restored.work_redistributed());
            assert_eq!(
                live.disk_service_histogram(),
                restored.disk_service_histogram()
            );
        }
    }

    #[test]
    fn load_state_rejects_wrong_node_count() {
        let live = active(4);
        let mut w = simcore::StateWriter::new();
        live.save_state(&mut w);
        let text = w.finish();
        let mut other = active(8);
        assert!(other
            .load_state(&mut simcore::StateReader::new(&text))
            .is_err());
    }
}
