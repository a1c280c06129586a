//! The replay ledger: where the event loop's host time goes, layer by
//! layer.
//!
//! A profiled run's span stream records every request the executor made
//! of the layers below it: batch reads and writes of the disk model,
//! peer and front-end transfers of the fabric models, CPU charges of the
//! FIFO servers. Replaying each kind through the public function that
//! serves it, on a fresh [`Machine`], and every span through the event
//! queue and the span arena, prices each layer in isolation. Summed, the
//! layer costs say how much of the executor's host time they explain.

use std::time::Instant;

use arch::Architecture;
use howsim::machine::Machine;
use simcore::span::{Span, SpanArena, SpanKind, FRONT_END_NODE};
use simcore::{Duration, EventQueue, SimTime};

/// Calls and host nanoseconds spent in one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Calls replayed.
    pub calls: u64,
    /// Host nanoseconds they took.
    pub ns: u64,
}

impl Cost {
    /// Mean nanoseconds per call (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }

    fn add(&mut self, other: Cost) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// Replayed costs per layer, plus the executor time they are compared
/// against.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ledger {
    /// `Machine::read`/`write` (the disk model).
    pub diskmodel: Cost,
    /// `Machine::peer_transfer`/`fe_transfer` (the fabric models).
    pub netmodel: Cost,
    /// `Machine::node_cpu_work`/`fe_cpu_work` (the FIFO servers).
    pub server: Cost,
    /// `EventQueue::push`/`pop`, one of each per span.
    pub queue: Cost,
    /// `SpanArena::record`, one per span.
    pub span: Cost,
    /// Host nanoseconds the plain (unprofiled) runs of the replayed
    /// streams took in the executor.
    pub exec_ns: u64,
}

impl Ledger {
    /// Host time of the replayed layers, excluding span recording (the
    /// plain runs the ledger is compared against record no spans).
    pub fn replayed_ns(&self) -> u64 {
        self.diskmodel.ns + self.netmodel.ns + self.server.ns + self.queue.ns
    }

    /// Share of the executor's host time the replayed layers explain.
    pub fn explained_frac(&self) -> f64 {
        if self.exec_ns == 0 {
            0.0
        } else {
            self.replayed_ns() as f64 / self.exec_ns as f64
        }
    }

    /// Adds another replay's costs.
    pub fn merge(&mut self, other: &Ledger) {
        self.diskmodel.add(other.diskmodel);
        self.netmodel.add(other.netmodel);
        self.server.add(other.server);
        self.queue.add(other.queue);
        self.span.add(other.span);
        self.exec_ns += other.exec_ns;
    }
}

/// A request of the disk model: node, time, bytes, whether a write.
type DiskReq = (usize, SimTime, u64, bool);
/// A transfer: time, source node, destination node (`None` = front-end),
/// bytes.
type NetReq = (SimTime, usize, Option<usize>, u64);
/// A CPU charge: node (`None` = front-end), time, work.
type CpuReq = (Option<usize>, SimTime, Duration);

fn worker(node: u32) -> Option<usize> {
    (node != FRONT_END_NODE).then_some(node as usize)
}

fn aligned(bytes: u64) -> u64 {
    bytes.div_ceil(512).max(1) * 512
}

/// Replays one run's span stream (recorded on `arch`) through each layer
/// and returns the costs; `exec_ns` is the plain run's host time.
pub fn replay(arch: &Architecture, spans: &[Span], exec_ns: u64) -> Ledger {
    let mut disk: Vec<DiskReq> = Vec::new();
    let mut net: Vec<NetReq> = Vec::new();
    let mut cpu: Vec<CpuReq> = Vec::new();
    for s in spans {
        match s.kind {
            SpanKind::DiskRead | SpanKind::DiskWrite => {
                if let (Some(node), true) = (worker(s.node), s.bytes > 0) {
                    disk.push((
                        node,
                        s.start,
                        aligned(s.bytes),
                        s.kind == SpanKind::DiskWrite,
                    ));
                }
            }
            SpanKind::Transfer => {
                // The parent of a transfer is the sender's CPU burst.
                let src = s
                    .parent
                    .index()
                    .and_then(|i| spans.get(i))
                    .and_then(|p| worker(p.node));
                if let Some(src) = src {
                    net.push((s.start, src, worker(s.node), s.bytes));
                }
            }
            SpanKind::Cpu => cpu.push((worker(s.node), s.start, s.duration())),
            SpanKind::FrontEnd => cpu.push((None, s.start, s.duration())),
            SpanKind::Barrier | SpanKind::Positioning => {}
        }
    }

    let mut ledger = Ledger {
        exec_ns,
        ..Ledger::default()
    };

    let mut m = Machine::new(arch);
    let start = Instant::now();
    for &(node, at, bytes, write) in &disk {
        let done = if write {
            m.write(node, at, bytes, 0, false)
        } else {
            m.read(node, at, bytes, 0, false)
        };
        std::hint::black_box(done);
    }
    ledger.diskmodel = cost(disk.len(), start);

    let mut m = Machine::new(arch);
    let start = Instant::now();
    for &(at, src, dst, bytes) in &net {
        let done = match dst {
            Some(dst) => m.peer_transfer(at, src, dst, bytes),
            None => m.fe_transfer(at, src, bytes),
        };
        std::hint::black_box(done);
    }
    ledger.netmodel = cost(net.len(), start);

    let mut m = Machine::new(arch);
    let start = Instant::now();
    for &(node, at, work) in &cpu {
        let done = match node {
            Some(node) => m.node_cpu_work(node, at, work, "replay"),
            None => m.fe_cpu_work(at, work, "replay"),
        };
        std::hint::black_box(done);
    }
    ledger.server = cost(cpu.len(), start);

    ledger.queue = replay_queue(spans);

    let mut arena = SpanArena::with_capacity(spans.len());
    let start = Instant::now();
    for s in spans {
        std::hint::black_box(arena.record(
            s.parent, s.resource, s.kind, s.node, s.start, s.end, s.bytes,
        ));
    }
    ledger.span = cost(spans.len(), start);
    ledger
}

/// Every span becomes one event: pushed for its end time when the
/// stream reaches its start, popped once the stream passes that time.
/// The queue depth thus follows the run's concurrency.
fn replay_queue(spans: &[Span]) -> Cost {
    let mut order: Vec<(SimTime, SimTime)> = spans.iter().map(|s| (s.start, s.end)).collect();
    order.sort_unstable();
    let mut q: EventQueue<u32> = EventQueue::new();
    let start = Instant::now();
    for (i, &(at, end)) in order.iter().enumerate() {
        while q.peek_time().is_some_and(|t| t <= at) {
            std::hint::black_box(q.pop());
        }
        q.push(end, i as u32);
    }
    while let Some(ev) = q.pop() {
        std::hint::black_box(ev);
    }
    cost(2 * order.len(), start)
}

fn cost(calls: usize, start: Instant) -> Cost {
    Cost {
        calls: calls as u64,
        ns: start.elapsed().as_nanos() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use howsim::Simulation;
    use tasks::TaskKind;

    #[test]
    fn ledger_arithmetic() {
        let a = Ledger {
            diskmodel: Cost { calls: 10, ns: 100 },
            netmodel: Cost { calls: 4, ns: 40 },
            server: Cost { calls: 5, ns: 25 },
            queue: Cost { calls: 20, ns: 35 },
            span: Cost {
                calls: 10,
                ns: 1_000,
            },
            exec_ns: 400,
        };
        // Span recording is not part of the plain runs it is compared to.
        assert_eq!(a.replayed_ns(), 200);
        assert_eq!(a.explained_frac(), 0.5);
        assert_eq!(a.diskmodel.ns_per_call(), 10.0);
        assert_eq!(Cost::default().ns_per_call(), 0.0);
        assert_eq!(Ledger::default().explained_frac(), 0.0);

        let mut sum = a;
        sum.merge(&a);
        assert_eq!(sum.queue, Cost { calls: 40, ns: 70 });
        assert_eq!(sum.exec_ns, 800);
        assert_eq!(sum.explained_frac(), 0.5);
    }

    #[test]
    fn replay_covers_every_layer_of_a_real_stream() {
        for arch in [Architecture::active_disks(4), Architecture::smp(4)] {
            let (_, trace) = Simulation::new(arch.clone()).run_profiled(TaskKind::Sort);
            let spans = trace.arena.spans();
            let ledger = replay(&arch, spans, 1);
            assert!(ledger.diskmodel.calls > 0);
            assert!(ledger.netmodel.calls > 0);
            assert!(ledger.server.calls > 0);
            assert_eq!(ledger.queue.calls, 2 * spans.len() as u64);
            assert_eq!(ledger.span.calls, spans.len() as u64);
        }
    }
}
