//! The transport layer: typed messages and point-to-point endpoints.
//!
//! [`Transport`] is the narrow waist between the collectives and the
//! wire. The in-process implementation ([`InProcTransport`]) is a full
//! mesh of `mpsc` channels — one FIFO per directed link, exactly the
//! ordering guarantee TCP gives — so a socket-framed transport can
//! implement the same five operations later without touching the
//! collective algorithms.

use crate::fault::{Decision, FaultController};
use crate::CommsError;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Instant;
use tensor::f16::F16;

/// Typed message body. Reduce-scatter hops carry f64 partial sums (the
/// exactness that makes the ring deterministic — see the crate docs);
/// everything else moves compressed f16 or raw bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    F16(Vec<F16>),
    /// Full-precision boundary activations / activation-gradients for
    /// inter-layer (pipeline) point-to-point traffic, which must move
    /// bit-exact f32 values to keep the pipelined backward bitwise
    /// identical to the single-process trainer.
    F32(Vec<f32>),
    F64(Vec<f64>),
    Bytes(Vec<u8>),
}

impl Payload {
    /// Fixed per-message framing a real wire pays: tag + length.
    pub const HEADER_BYTES: u64 = 16;

    /// Payload data bytes (excluding framing).
    pub fn data_bytes(&self) -> u64 {
        match self {
            Payload::F16(v) => 2 * v.len() as u64,
            Payload::F32(v) => 4 * v.len() as u64,
            Payload::F64(v) => 8 * v.len() as u64,
            Payload::Bytes(v) => v.len() as u64,
        }
    }

    /// Bytes this message occupies on the wire.
    pub fn wire_bytes(&self) -> u64 {
        Self::HEADER_BYTES + self.data_bytes()
    }
}

/// Which collective a message belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    AllReduce,
    AllGather,
    Broadcast,
    Barrier,
    /// Point-to-point pipeline traffic (boundary activations and
    /// activation-gradients). Unlike the collectives above, p2p tags
    /// are caller-supplied — both endpoints derive the same
    /// `(id, step)` from `(training step, microbatch, direction)`
    /// instead of consuming the shared monotonic collective counter,
    /// so stages exchanging different message counts stay aligned.
    P2p,
    /// Best-effort metrics snapshots shipped to rank 0 for mesh-wide
    /// aggregation. Like [`Kind::P2p`] the tags are caller-supplied;
    /// unlike everything else a lost or late snapshot must never fail
    /// a collective, so telemetry traffic is sent and received through
    /// the non-poisoning best-effort paths only.
    Telemetry,
    /// Liveness probes on a socket transport: a background thread pings
    /// every peer each interval (`step` 0) and the peer's reader
    /// answers in line (`step` 1), yielding a per-link RTT gauge.
    /// Heartbeats are consumed inside the transport — they refresh the
    /// peer's last-seen clock and never reach the tagged inbox, so the
    /// collectives are oblivious to them.
    Heartbeat,
}

/// Self-describing routing header. `(epoch, kind, id, step)` is unique
/// per directed link for the lifetime of an epoch: `id` is a
/// per-communicator monotonic counter and every rank issues collectives
/// in the same program order, so tags agree across ranks without
/// negotiation, and a fast rank's early traffic for collective `id+k`
/// can be stashed instead of misrouted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag {
    /// Bumped on recovery so post-restore traffic never aliases stale
    /// in-flight messages from a failed step.
    pub epoch: u32,
    pub kind: Kind,
    /// Which collective (monotonic per epoch).
    pub id: u64,
    /// Hop index within the collective's schedule.
    pub step: u32,
}

/// One message: routing tag plus typed payload.
#[derive(Debug)]
pub struct Message {
    pub tag: Tag,
    pub payload: Payload,
}

/// An envelope in flight; the fault injector may stamp a future
/// delivery instant (link delay). Shared with the TCP transport, whose
/// reader threads stamp `deliver_at` at enqueue time (carrying the
/// injected delay in the frame) so a slow link never blocks the reader.
pub(crate) struct Envelope {
    pub(crate) deliver_at: Option<Instant>,
    pub(crate) msg: Message,
}

/// A rank's endpoint: non-blocking sends, per-peer FIFO receives with a
/// deadline. `Send` so each rank thread owns its endpoint outright.
pub trait Transport: Send {
    fn rank(&self) -> usize;
    fn world(&self) -> usize;

    /// Process-unique id of the mesh this endpoint belongs to. Folded
    /// into trace flow-event ids so identical tags on different meshes
    /// (e.g. the pipeline's per-replica p2p meshes and per-stage data
    /// meshes) never collide in a merged trace.
    fn mesh_id(&self) -> u64;

    /// Queues a message to `to`. Never blocks; a cut link "succeeds"
    /// (the loss only surfaces as the receiver's timeout).
    fn send(&mut self, to: usize, msg: Message) -> Result<(), CommsError>;

    /// Blocks until a message from `from` arrives or `deadline` passes.
    fn recv_from(&mut self, from: usize, deadline: Instant) -> Result<Message, CommsError>;

    /// Non-blocking receive from `from`.
    fn try_recv_from(&mut self, from: usize) -> Result<Option<Message>, CommsError>;

    /// Discards every queued inbound message (recovery path).
    fn drain(&mut self);

    /// Cumulative wire bytes offered to the link layer (dropped
    /// messages included — the sender did transmit them).
    fn bytes_sent(&self) -> u64;
    fn msgs_sent(&self) -> u64;
    /// Messages the fault injector discarded.
    fn msgs_dropped(&self) -> u64;
}

/// A boxed endpoint is an endpoint, so a runtime can hold
/// `Communicator<Box<dyn Transport>>` and accept any transport without
/// carrying its type.
impl<T: Transport + ?Sized> Transport for Box<T> {
    fn rank(&self) -> usize {
        (**self).rank()
    }

    fn world(&self) -> usize {
        (**self).world()
    }

    fn mesh_id(&self) -> u64 {
        (**self).mesh_id()
    }

    fn send(&mut self, to: usize, msg: Message) -> Result<(), CommsError> {
        (**self).send(to, msg)
    }

    fn recv_from(&mut self, from: usize, deadline: Instant) -> Result<Message, CommsError> {
        (**self).recv_from(from, deadline)
    }

    fn try_recv_from(&mut self, from: usize) -> Result<Option<Message>, CommsError> {
        (**self).try_recv_from(from)
    }

    fn drain(&mut self) {
        (**self).drain()
    }

    fn bytes_sent(&self) -> u64 {
        (**self).bytes_sent()
    }

    fn msgs_sent(&self) -> u64 {
        (**self).msgs_sent()
    }

    fn msgs_dropped(&self) -> u64 {
        (**self).msgs_dropped()
    }
}

/// In-process mesh endpoint: one `mpsc` channel per directed link.
pub struct InProcTransport {
    rank: usize,
    world: usize,
    mesh_id: u64,
    /// `out[to]` — `None` at `to == rank`.
    out: Vec<Option<Sender<Envelope>>>,
    /// `inbox[from]` — `None` at `from == rank`.
    inbox: Vec<Option<Receiver<Envelope>>>,
    /// A received envelope whose delivery instant is still in the
    /// future (injected delay); per-link FIFO order is preserved.
    held: Vec<Option<Envelope>>,
    faults: Arc<FaultController>,
    bytes_sent: u64,
    msgs_sent: u64,
    msgs_dropped: u64,
}

impl InProcTransport {
    /// Builds a fully connected fault-free mesh of `world` endpoints.
    pub fn mesh(world: usize) -> Vec<InProcTransport> {
        Self::mesh_with_faults(world, Arc::new(FaultController::new()))
    }

    /// Builds a mesh whose every link consults `faults` on each send.
    pub fn mesh_with_faults(
        world: usize,
        faults: Arc<FaultController>,
    ) -> Vec<InProcTransport> {
        assert!(world >= 1, "a mesh needs at least one rank");
        static NEXT_MESH_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let mesh_id = NEXT_MESH_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // txs[from][to] / rxs[to][from]
        let mut txs: Vec<Vec<Option<Sender<Envelope>>>> = (0..world)
            .map(|_| (0..world).map(|_| None).collect())
            .collect();
        let mut rxs: Vec<Vec<Option<Receiver<Envelope>>>> = (0..world)
            .map(|_| (0..world).map(|_| None).collect())
            .collect();
        for from in 0..world {
            for to in 0..world {
                if from != to {
                    let (tx, rx) = channel();
                    txs[from][to] = Some(tx);
                    rxs[to][from] = Some(rx);
                }
            }
        }
        txs.into_iter()
            .zip(rxs)
            .enumerate()
            .map(|(rank, (out, inbox))| InProcTransport {
                rank,
                world,
                mesh_id,
                out,
                inbox,
                held: (0..world).map(|_| None).collect(),
                faults: Arc::clone(&faults),
                bytes_sent: 0,
                msgs_sent: 0,
                msgs_dropped: 0,
            })
            .collect()
    }

    /// The shared fault controller (for tests that only hold endpoints).
    pub fn faults(&self) -> &Arc<FaultController> {
        &self.faults
    }

    fn closed(&self, peer: usize) -> CommsError {
        CommsError::Closed { rank: self.rank, peer }
    }
}

impl Transport for InProcTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.world
    }

    fn mesh_id(&self) -> u64 {
        self.mesh_id
    }

    fn send(&mut self, to: usize, msg: Message) -> Result<(), CommsError> {
        let tx = self
            .out
            .get(to)
            .and_then(|o| o.as_ref())
            .ok_or_else(|| CommsError::Mismatch(format!("send to invalid rank {to}")))?;
        self.bytes_sent += msg.payload.wire_bytes();
        self.msgs_sent += 1;
        match self.faults.decide(self.rank, to) {
            Decision::Drop => {
                self.msgs_dropped += 1;
                Ok(())
            }
            Decision::Deliver(delay) => {
                let env = Envelope { deliver_at: delay.map(|d| Instant::now() + d), msg };
                tx.send(env).map_err(|_| self.closed(to))
            }
        }
    }

    fn recv_from(&mut self, from: usize, deadline: Instant) -> Result<Message, CommsError> {
        let timeout = || CommsError::Timeout { rank: self.rank, from };
        loop {
            let now = Instant::now();
            if let Some(env) = self.held[from].take() {
                match env.deliver_at {
                    Some(at) if at > now => {
                        if at > deadline {
                            // FIFO: this *is* the next message and it
                            // cannot arrive in time.
                            self.held[from] = Some(env);
                            return Err(timeout());
                        }
                        std::thread::sleep(at - now);
                        self.held[from] = Some(env);
                        continue;
                    }
                    _ => return Ok(env.msg),
                }
            }
            if now >= deadline {
                return Err(timeout());
            }
            let rx = self.inbox[from]
                .as_ref()
                .ok_or_else(|| CommsError::Mismatch(format!("recv from invalid rank {from}")))?;
            match rx.recv_timeout(deadline - now) {
                Ok(env) => self.held[from] = Some(env),
                Err(RecvTimeoutError::Timeout) => return Err(timeout()),
                Err(RecvTimeoutError::Disconnected) => return Err(self.closed(from)),
            }
        }
    }

    fn try_recv_from(&mut self, from: usize) -> Result<Option<Message>, CommsError> {
        let now = Instant::now();
        if let Some(env) = self.held[from].take() {
            match env.deliver_at {
                Some(at) if at > now => {
                    self.held[from] = Some(env);
                    return Ok(None);
                }
                _ => return Ok(Some(env.msg)),
            }
        }
        let Some(rx) = self.inbox[from].as_ref() else {
            return Ok(None);
        };
        match rx.try_recv() {
            Ok(env) => match env.deliver_at {
                Some(at) if at > now => {
                    self.held[from] = Some(env);
                    Ok(None)
                }
                _ => Ok(Some(env.msg)),
            },
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(self.closed(from)),
        }
    }

    fn drain(&mut self) {
        for from in 0..self.world {
            self.held[from] = None;
            if let Some(rx) = self.inbox[from].as_ref() {
                while rx.try_recv().is_ok() {}
            }
        }
    }

    fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    fn msgs_sent(&self) -> u64 {
        self.msgs_sent
    }

    fn msgs_dropped(&self) -> u64 {
        self.msgs_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tag(id: u64, step: u32) -> Tag {
        Tag { epoch: 0, kind: Kind::Barrier, id, step }
    }

    fn deadline_ms(ms: u64) -> Instant {
        Instant::now() + Duration::from_millis(ms)
    }

    #[test]
    fn mesh_delivers_in_fifo_order() {
        let mut mesh = InProcTransport::mesh(2);
        let (mut a, mut b) = {
            let b = mesh.pop().unwrap();
            (mesh.pop().unwrap(), b)
        };
        for i in 0..4 {
            a.send(1, Message { tag: tag(i, 0), payload: Payload::Bytes(vec![i as u8]) })
                .unwrap();
        }
        for i in 0..4 {
            let m = b.recv_from(0, deadline_ms(1000)).unwrap();
            assert_eq!(m.tag.id, i);
            assert_eq!(m.payload, Payload::Bytes(vec![i as u8]));
        }
        assert!(b.try_recv_from(0).unwrap().is_none());
        assert_eq!(a.bytes_sent(), 4 * (Payload::HEADER_BYTES + 1));
        assert_eq!(a.msgs_sent(), 4);
    }

    #[test]
    fn cut_link_times_out_instead_of_hanging() {
        let faults = Arc::new(FaultController::new());
        let mut mesh = InProcTransport::mesh_with_faults(2, Arc::clone(&faults));
        let mut b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();
        faults.cut_link(0, 1);
        a.send(1, Message { tag: tag(0, 0), payload: Payload::Bytes(vec![]) }).unwrap();
        let t0 = Instant::now();
        let err = b.recv_from(0, deadline_ms(30)).unwrap_err();
        assert_eq!(err, CommsError::Timeout { rank: 1, from: 0 });
        assert!(t0.elapsed() < Duration::from_secs(5), "bounded wait");
        assert_eq!(a.msgs_dropped(), 1);
    }

    #[test]
    fn delayed_message_arrives_late_but_intact() {
        let faults = Arc::new(FaultController::new());
        let mut mesh = InProcTransport::mesh_with_faults(2, Arc::clone(&faults));
        let mut b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();
        faults.delay_link(0, 1, Duration::from_millis(20));
        a.send(1, Message { tag: tag(7, 1), payload: Payload::F64(vec![1.5]) }).unwrap();
        // Not deliverable yet.
        assert!(b.try_recv_from(0).unwrap().is_none());
        let m = b.recv_from(0, deadline_ms(1000)).unwrap();
        assert_eq!(m.tag, tag(7, 1));
        assert_eq!(m.payload, Payload::F64(vec![1.5]));
    }

    #[test]
    fn drain_discards_queued_traffic() {
        let mut mesh = InProcTransport::mesh(2);
        let mut b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();
        a.send(1, Message { tag: tag(0, 0), payload: Payload::Bytes(vec![1]) }).unwrap();
        a.send(1, Message { tag: tag(1, 0), payload: Payload::Bytes(vec![2]) }).unwrap();
        b.drain();
        assert!(b.try_recv_from(0).unwrap().is_none());
    }

    #[test]
    fn dead_peer_surfaces_closed() {
        let mut mesh = InProcTransport::mesh(2);
        let b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();
        drop(b);
        let err = a.send(1, Message { tag: tag(0, 0), payload: Payload::Bytes(vec![]) });
        assert_eq!(err, Err(CommsError::Closed { rank: 0, peer: 1 }));
    }
}
