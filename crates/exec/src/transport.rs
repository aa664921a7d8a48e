//! Pluggable transports: how keyed messages move between devices.
//!
//! [`VirtualTransport`] runs in simulated time — an α+β cost per message,
//! FIFO ordering per directed edge, and an optional fault hook for
//! jitter/latency injection. [`ChannelEndpoint`] runs in wall-clock time —
//! one unbounded channel per directed edge with a stash for out-of-order
//! arrivals. Both speak [`MsgKey`], so an executor written against
//! [`Transport`] runs on either.
//!
//! # Communication–computation overlap
//!
//! Both transports support *chunked, eager* hand-offs ([`CommConfig`]): a
//! micro-batch message is split into `k` chunks, and chunk `j` may enter the
//! link as soon as the fraction `j/k` of the producing compute op has run —
//! the transfer pipelines against the tail of the producer instead of
//! waiting for its end. [`Transport::send_overlapped`] is the virtual-time
//! form (the chunk-ready times are derived from the producing op's span);
//! [`ChannelSender::send_chunks`] is the wall-clock
//! form used by the runtime's dedicated comm threads. Receivers reassemble
//! chunks transparently: per-edge channels are FIFO, so the chunks of one
//! message arrive contiguously and in order.

use std::collections::{BTreeSet, HashMap, VecDeque};

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use serde::{Deserialize, Serialize};

use autopipe_schedule::{OpKind, Part, Schedule};

use crate::msg::MsgKey;

/// How an executor moves messages: blocking hand-offs (the pre-overlap
/// behaviour) or chunked eager sends that pipeline against the producing
/// compute op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommConfig {
    /// Run the comm lane overlapped with compute. Off reproduces the
    /// blocking executors bit-for-bit.
    pub overlap: bool,
    /// Chunks per message when overlapped (`1` = eager but unchunked).
    /// Ignored when `overlap` is off.
    pub chunks: usize,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            overlap: false,
            chunks: 1,
        }
    }
}

impl CommConfig {
    /// Overlapped comm with `chunks` chunks per message.
    pub fn overlapped(chunks: usize) -> CommConfig {
        CommConfig {
            overlap: true,
            chunks: chunks.max(1),
        }
    }

    /// Chunk count actually used: 1 when blocking, `chunks` (≥ 1) otherwise.
    pub fn effective_chunks(&self) -> usize {
        if self.overlap {
            self.chunks.max(1)
        } else {
            1
        }
    }
}

/// Cost of moving a message across a link: the α+β model (per-message
/// latency plus volume-proportional transfer).
pub trait LinkCost {
    /// Transfer time for a message carrying `part` of a micro-batch over the
    /// directed edge `from → to`.
    fn transfer(&self, from: usize, to: usize, part: Part) -> f64;

    /// Transfer time for **one of `k` chunks** of that message. Every chunk
    /// pays the full per-message latency (each is its own packet on the
    /// wire) and `1/k` of the volume. Implementations that know their α/β
    /// split override this; the default divides the whole message cost,
    /// which is exact for latency-free links and conservative otherwise.
    ///
    /// `transfer_chunk(from, to, part, 1)` must equal
    /// `transfer(from, to, part)` bit-for-bit — dividing by `1.0` is exact,
    /// so both the default and the α+β overrides satisfy this.
    fn transfer_chunk(&self, from: usize, to: usize, part: Part, k: usize) -> f64 {
        self.transfer(from, to, part) / k.max(1) as f64
    }
}

impl<T: LinkCost + ?Sized> LinkCost for &T {
    fn transfer(&self, from: usize, to: usize, part: Part) -> f64 {
        (**self).transfer(from, to, part)
    }

    fn transfer_chunk(&self, from: usize, to: usize, part: Part, k: usize) -> f64 {
        (**self).transfer_chunk(from, to, part, k)
    }
}

/// Uniform α+β link: every directed edge pays `latency + frac·volume`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaBeta {
    /// Per-message latency (α).
    pub latency: f64,
    /// Full-micro-batch volume transfer time (bytes/β); halves pay half.
    pub volume: f64,
}

impl LinkCost for AlphaBeta {
    fn transfer(&self, _from: usize, _to: usize, part: Part) -> f64 {
        self.latency + part.frac() * self.volume
    }

    fn transfer_chunk(&self, _from: usize, _to: usize, part: Part, k: usize) -> f64 {
        self.latency + part.frac() * (self.volume / k.max(1) as f64)
    }
}

/// A transport moves keyed messages between devices. Implementations differ
/// in what "time" means: virtual transports compute arrival times from a
/// cost model, wall-clock transports deliver for real and report `now`.
pub trait Transport {
    /// What a message carries: `()` for timing-only simulation, tensors for
    /// the training runtime.
    type Payload;

    /// Hand a message to the link at local time `now`. Delivery is
    /// asynchronous (the sender does not block) and FIFO per directed edge.
    /// Returns the arrival time at the destination as far as this transport
    /// can know it — wall-clock transports return `now`.
    fn send(
        &mut self,
        from: usize,
        to: usize,
        key: MsgKey,
        payload: Self::Payload,
        now: f64,
    ) -> f64;

    /// Overlapped chunked send. `span_end`/`span_dur` describe the compute
    /// op that produced the message; chunk `j` of `chunks` (1-based) is
    /// ready to depart at `span_end − span_dur·(chunks−j)/chunks + stall`,
    /// i.e. the transfer pipelines against the tail of the producing op.
    /// The message is delivered whole at the **last** chunk's arrival.
    ///
    /// The default ignores the span and behaves like a blocking
    /// [`Transport::send`] at `span_end + stall` — correct for wall-clock
    /// transports, whose eager path is driven by a comm thread instead.
    #[allow(clippy::too_many_arguments)]
    fn send_overlapped(
        &mut self,
        from: usize,
        to: usize,
        key: MsgKey,
        payload: Self::Payload,
        span_end: f64,
        span_dur: f64,
        stall: f64,
        chunks: usize,
    ) -> f64 {
        let _ = (span_dur, chunks);
        self.send(from, to, key, payload, span_end + stall)
    }

    /// Non-blocking receive at device `at`: the earliest-sent matching
    /// message and its arrival time, if one has been sent. Wall-clock
    /// transports report arrival `0.0` (already arrived).
    fn try_recv(&mut self, at: usize, key: MsgKey) -> Option<(Self::Payload, f64)>;
}

/// Fault-injection hook on a virtual link: extra delay (jitter, congestion
/// spikes, degraded NICs) added to one message's transfer time.
pub type LinkFault = Box<dyn FnMut(usize, usize, &MsgKey, f64) -> f64>;

/// Virtual-time transport for discrete-event execution.
///
/// Each directed edge is a FIFO link: a message departs no earlier than both
/// its enqueue time and the link's previous arrival, so back-to-back sends
/// queue rather than overlap. Messages park in a per-destination mailbox
/// until the receiver consumes them.
///
/// Storage is flat and `Vec`-indexed (device counts are small and dense):
/// link state is a `p²` array indexed `from·p + to`, and each destination's
/// mailbox is one arrival-ordered queue scanned for the first key match —
/// push order is send order, so per-key FIFO semantics are preserved
/// exactly.
pub struct VirtualTransport<C: LinkCost> {
    costs: C,
    n_devices: usize,
    storage: LinkStorage,
    fault: Option<LinkFault>,
}

/// The allocations behind a [`VirtualTransport`] — `p²` link busy-until
/// times and one mailbox per destination — so a caller that builds a
/// transport per candidate ([`VirtualTransport::with_storage`]) pays for
/// their growth once per problem shape rather than once per candidate.
#[derive(Debug, Default)]
pub struct LinkStorage {
    link_free: Vec<f64>,
    mailbox: Vec<VecDeque<(MsgKey, f64)>>,
}

impl<C: LinkCost> VirtualTransport<C> {
    /// A fault-free transport over `n_devices` devices with the given costs.
    pub fn new(n_devices: usize, costs: C) -> Self {
        Self::with_storage(n_devices, costs, LinkStorage::default())
    }

    /// [`new`](Self::new) over recycled `storage`, which is reset: idle
    /// links, empty mailboxes. [`into_storage`](Self::into_storage) hands
    /// it back.
    pub fn with_storage(n_devices: usize, costs: C, mut storage: LinkStorage) -> Self {
        storage.link_free.clear();
        storage.link_free.resize(n_devices * n_devices, 0.0);
        // Surplus mailboxes from a wider pipeline stay (empty) for the next.
        if storage.mailbox.len() < n_devices {
            storage.mailbox.resize_with(n_devices, VecDeque::new);
        }
        for queue in &mut storage.mailbox {
            queue.clear();
        }
        VirtualTransport {
            costs,
            n_devices,
            storage,
            fault: None,
        }
    }

    /// Give the storage back for the next transport.
    pub fn into_storage(self) -> LinkStorage {
        self.storage
    }

    /// Install a fault hook: its return value (clamped to ≥ 0) is added to
    /// every message's transfer time.
    pub fn with_fault(
        mut self,
        fault: impl FnMut(usize, usize, &MsgKey, f64) -> f64 + 'static,
    ) -> Self {
        self.fault = Some(Box::new(fault));
        self
    }

    /// [`with_fault`](Self::with_fault) for an already-boxed hook, e.g.
    /// [`crate::FaultPlan::link_fault_hook`].
    pub fn with_boxed_fault(mut self, fault: LinkFault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The fault hook's extra delay for this message (0 when no hook).
    /// Called exactly once per *message* — chunked sends fold the whole
    /// delay into the final chunk so a scripted fault plan observes the
    /// same `(edge, key, time)` stream whether or not overlap is on.
    fn fault_extra(&mut self, from: usize, to: usize, key: &MsgKey, now: f64) -> f64 {
        match &mut self.fault {
            Some(fault) => fault(from, to, key, now).max(0.0),
            None => 0.0,
        }
    }
}

impl<C: LinkCost> Transport for VirtualTransport<C> {
    type Payload = ();

    #[inline]
    fn send(&mut self, from: usize, to: usize, key: MsgKey, _payload: (), now: f64) -> f64 {
        let mut transfer = self.costs.transfer(from, to, key.part);
        transfer += self.fault_extra(from, to, &key, now);
        let free = &mut self.storage.link_free[from * self.n_devices + to];
        let depart = free.max(now);
        let arrival = depart + transfer;
        *free = arrival;
        self.storage.mailbox[to].push_back((key, arrival));
        arrival
    }

    #[inline]
    fn send_overlapped(
        &mut self,
        from: usize,
        to: usize,
        key: MsgKey,
        _payload: (),
        span_end: f64,
        span_dur: f64,
        stall: f64,
        chunks: usize,
    ) -> f64 {
        let k = chunks.max(1);
        // One fault draw per message, at the same virtual time the blocking
        // path would use, charged to the last chunk.
        let fault_extra = self.fault_extra(from, to, &key, span_end + stall);
        let free = &mut self.storage.link_free[from * self.n_devices + to];
        let mut arrival = 0.0;
        for j in 1..=k {
            let mut cost = self.costs.transfer_chunk(from, to, key.part, k);
            if j == k {
                cost += fault_extra;
            }
            // Chunk j is produced once j/k of the compute span has run; the
            // last chunk's ready time is exactly the blocking send time
            // (span_dur·0.0 vanishes bitwise).
            let ready = span_end - span_dur * ((k - j) as f64 / k as f64) + stall;
            let depart = free.max(ready);
            arrival = depart + cost;
            *free = arrival;
        }
        self.storage.mailbox[to].push_back((key, arrival));
        arrival
    }

    #[inline]
    fn try_recv(&mut self, at: usize, key: MsgKey) -> Option<((), f64)> {
        let queue = &mut self.storage.mailbox[at];
        let idx = queue.iter().position(|(k, _)| *k == key)?;
        let (_, arrival) = queue.remove(idx).expect("index from position");
        Some(((), arrival))
    }
}

/// The directed device pairs a schedule's send ops use — the edges a
/// channel mesh must wire up.
pub fn schedule_edges(sched: &Schedule) -> BTreeSet<(usize, usize)> {
    let mut edges = BTreeSet::new();
    for (d, ops) in sched.devices.iter().enumerate() {
        for op in ops {
            if let OpKind::SendAct { to, .. } | OpKind::SendGrad { to, .. } = op.kind {
                edges.insert((d, to));
            }
        }
    }
    edges
}

/// A payload the wall-clock transport can split into wire chunks and
/// reassemble bit-identically: `join_chunks(split_chunks(x, k)) == x` for
/// every `k ≥ 1`. Implementations may return fewer than `k` chunks when the
/// payload is too small to split.
pub trait ChunkPayload: Sized {
    /// Split into at most `k` chunks, in transmission order.
    fn split_chunks(self, k: usize) -> Vec<Self>;
    /// Reassemble chunks produced by [`ChunkPayload::split_chunks`].
    fn join_chunks(chunks: Vec<Self>) -> Self;
}

/// Unsplittable unit payload (timing-only execution).
impl ChunkPayload for () {
    fn split_chunks(self, _k: usize) -> Vec<Self> {
        vec![()]
    }
    fn join_chunks(_chunks: Vec<Self>) -> Self {}
}

/// Unsplittable scalar payload (tests).
impl ChunkPayload for u32 {
    fn split_chunks(self, _k: usize) -> Vec<Self> {
        vec![self]
    }
    fn join_chunks(chunks: Vec<Self>) -> Self {
        chunks[0]
    }
}

/// Contiguous-run splitting: chunk boundaries at `len·j/k`, so joining is a
/// plain concatenation and ordering (hence bit-identity) is trivial.
impl<T> ChunkPayload for Vec<T> {
    fn split_chunks(mut self, k: usize) -> Vec<Self> {
        let k = k.max(1).min(self.len().max(1));
        let len = self.len();
        let mut out = Vec::with_capacity(k);
        // Split back-to-front so each split_off is a tail move.
        let mut bounds: Vec<usize> = (1..k).map(|j| len * j / k).collect();
        while let Some(b) = bounds.pop() {
            out.push(self.split_off(b));
        }
        out.push(self);
        out.reverse();
        out
    }

    fn join_chunks(chunks: Vec<Self>) -> Self {
        let mut it = chunks.into_iter();
        let mut first = it.next().unwrap_or_default();
        for c in it {
            first.extend(c);
        }
        first
    }
}

struct Packet<T> {
    key: MsgKey,
    /// `(index, of)` chunk sequence; whole messages are `(0, 1)`.
    seq: (u32, u32),
    payload: T,
}

/// One inbound edge of a [`ChannelEndpoint`].
struct Inbound<T> {
    from: usize,
    link: Receiver<Packet<T>>,
    /// Every sending half is gone *and* the queue has been drained: nothing
    /// will ever arrive on this link again.
    hung_up: bool,
}

/// One device's end of a wall-clock channel mesh: senders for each outbound
/// edge, receivers for each inbound edge, and a stash that parks messages
/// for other (chunk, micro-batch) pairs sharing this device's links.
pub struct ChannelEndpoint<T> {
    device: usize,
    tx: HashMap<usize, Sender<Packet<T>>>,
    rx: Vec<Inbound<T>>,
    stash: HashMap<MsgKey, VecDeque<T>>,
    /// Partially reassembled chunked messages.
    assembly: HashMap<MsgKey, Vec<T>>,
}

/// Build one connected endpoint per device over the given directed edges
/// (typically [`schedule_edges`]).
pub fn channel_mesh<T>(
    n_devices: usize,
    edges: impl IntoIterator<Item = (usize, usize)>,
) -> Vec<ChannelEndpoint<T>> {
    let mut endpoints: Vec<ChannelEndpoint<T>> = (0..n_devices)
        .map(|device| ChannelEndpoint {
            device,
            tx: HashMap::new(),
            rx: Vec::new(),
            stash: HashMap::new(),
            assembly: HashMap::new(),
        })
        .collect();
    for (from, to) in edges {
        let (tx, rx) = unbounded::<Packet<T>>();
        endpoints[from].tx.insert(to, tx);
        endpoints[to].rx.push(Inbound {
            from,
            link: rx,
            hung_up: false,
        });
    }
    endpoints
}

/// Send a (possibly chunked) message over a tx map — shared by
/// [`ChannelEndpoint`] and [`ChannelSender`].
fn send_packets<T: ChunkPayload>(
    tx: &HashMap<usize, Sender<Packet<T>>>,
    device: usize,
    to: usize,
    key: MsgKey,
    payload: T,
    chunks: usize,
) {
    let link = tx
        .get(&to)
        .unwrap_or_else(|| panic!("device {device}: no link to device {to}"));
    if chunks <= 1 {
        link.send(Packet {
            key,
            seq: (0, 1),
            payload,
        })
        .expect("pipeline channel closed");
        return;
    }
    let parts = payload.split_chunks(chunks);
    let of = parts.len() as u32;
    for (i, part) in parts.into_iter().enumerate() {
        link.send(Packet {
            key,
            seq: (i as u32, of),
            payload: part,
        })
        .expect("pipeline channel closed");
    }
}

/// Send-only handle onto a device's outbound links, cloneable off a
/// [`ChannelEndpoint`] so a dedicated comm thread can push messages while
/// the stage thread keeps the receiving half.
pub struct ChannelSender<T> {
    device: usize,
    tx: HashMap<usize, Sender<Packet<T>>>,
}

impl<T: ChunkPayload> ChannelSender<T> {
    /// Asynchronous chunked send: split into at most `chunks` wire chunks,
    /// delivered in order and reassembled at the receiver.
    pub fn send_chunks(&self, to: usize, key: MsgKey, payload: T, chunks: usize) {
        send_packets(&self.tx, self.device, to, key, payload, chunks);
    }
}

impl<T> ChannelEndpoint<T> {
    /// A send-only handle sharing this endpoint's outbound links.
    pub fn sender(&self) -> ChannelSender<T> {
        ChannelSender {
            device: self.device,
            tx: self.tx.clone(),
        }
    }

    /// Whether the link from device `from` is closed and drained: the peer
    /// dropped its endpoint (and every [`ChannelSender`] cloned off it) and
    /// all it had sent has been moved into the stash, so a key that is not
    /// stashed by now will never arrive. As of the last receive.
    pub fn hung_up(&self, from: usize) -> bool {
        self.rx.iter().any(|l| l.from == from && l.hung_up)
    }
}

impl<T: ChunkPayload> ChannelEndpoint<T> {
    /// Asynchronous send to `to`. Panics if the mesh has no such edge or the
    /// peer hung up — both are schedule bugs, not runtime conditions.
    pub fn send_to(&self, to: usize, key: MsgKey, payload: T) {
        send_packets(&self.tx, self.device, to, key, payload, 1);
    }

    /// Blocking receive of the message matching `key`: drains inbound links
    /// into the stash until it shows up.
    pub fn recv(&mut self, key: MsgKey) -> T {
        loop {
            if let Some(payload) = self.stash.get_mut(&key).and_then(VecDeque::pop_front) {
                return payload;
            }
            if !self.drain_inbound() {
                std::thread::yield_now();
            }
        }
    }

    /// Move every currently-available inbound packet into the stash,
    /// reassembling chunked messages; true if anything arrived.
    fn drain_inbound(&mut self) -> bool {
        let mut any = false;
        for inbound in &mut self.rx {
            loop {
                let pkt = match inbound.link.try_recv() {
                    Ok(pkt) => pkt,
                    Err(TryRecvError::Empty) => break,
                    // Reported only once the queue is empty, so nothing in
                    // flight is lost.
                    Err(TryRecvError::Disconnected) => {
                        inbound.hung_up = true;
                        break;
                    }
                };
                any = true;
                let (idx, of) = pkt.seq;
                if of <= 1 {
                    self.stash
                        .entry(pkt.key)
                        .or_default()
                        .push_back(pkt.payload);
                    continue;
                }
                let parts = self.assembly.entry(pkt.key).or_default();
                debug_assert_eq!(
                    parts.len(),
                    idx as usize,
                    "chunks of one message arrive in order on a FIFO edge"
                );
                parts.push(pkt.payload);
                if parts.len() == of as usize {
                    let parts = self.assembly.remove(&pkt.key).expect("just inserted");
                    self.stash
                        .entry(pkt.key)
                        .or_default()
                        .push_back(T::join_chunks(parts));
                }
            }
        }
        any
    }
}

impl<T: ChunkPayload> Transport for ChannelEndpoint<T> {
    type Payload = T;

    fn send(&mut self, _from: usize, to: usize, key: MsgKey, payload: T, now: f64) -> f64 {
        self.send_to(to, key, payload);
        now
    }

    fn try_recv(&mut self, _at: usize, key: MsgKey) -> Option<(T, f64)> {
        self.drain_inbound();
        self.stash
            .get_mut(&key)
            .and_then(VecDeque::pop_front)
            .map(|payload| (payload, 0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopipe_schedule::generators::one_f_one_b;

    fn key(mb: usize) -> MsgKey {
        MsgKey::act(mb, Part::Full, 1)
    }

    #[test]
    fn virtual_links_are_fifo_per_edge() {
        let mut t = VirtualTransport::new(
            2,
            AlphaBeta {
                latency: 0.1,
                volume: 1.0,
            },
        );
        // Two messages enqueued closer together than the transfer time: the
        // second queues behind the first.
        let a0 = t.send(0, 1, key(0), (), 0.0);
        let a1 = t.send(0, 1, key(1), (), 0.2);
        assert!((a0 - 1.1).abs() < 1e-12);
        assert!((a1 - 2.2).abs() < 1e-12, "second message must queue: {a1}");
        // FIFO pop order per key.
        assert_eq!(t.try_recv(1, key(0)).unwrap().1, a0);
        assert_eq!(t.try_recv(1, key(1)).unwrap().1, a1);
        assert!(t.try_recv(1, key(0)).is_none());
    }

    #[test]
    fn half_messages_pay_half_the_volume() {
        let costs = AlphaBeta {
            latency: 0.5,
            volume: 2.0,
        };
        assert!((costs.transfer(0, 1, Part::Half1) - 1.5).abs() < 1e-12);
        assert!((costs.transfer(0, 1, Part::Both) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn chunked_transfer_pays_latency_per_chunk() {
        let costs = AlphaBeta {
            latency: 0.5,
            volume: 2.0,
        };
        // k chunks: each pays full α and 1/k of the volume.
        assert!((costs.transfer_chunk(0, 1, Part::Full, 4) - 1.0).abs() < 1e-12);
        // k = 1 is the whole message, bit-for-bit.
        assert_eq!(
            costs.transfer_chunk(0, 1, Part::Full, 1).to_bits(),
            costs.transfer(0, 1, Part::Full).to_bits()
        );
    }

    #[test]
    fn overlapped_send_pipelines_against_the_producing_span() {
        // Producing op spans [0, 1]; zero-latency link with volume 1.
        let ab = AlphaBeta {
            latency: 0.0,
            volume: 1.0,
        };
        let mut blocking = VirtualTransport::new(2, ab);
        let b = blocking.send(0, 1, key(0), (), 1.0);
        assert!((b - 2.0).abs() < 1e-12);
        // 4 chunks: chunk j ready at j/4, costs 0.25 → last arrives at 1.25.
        let mut overlapped = VirtualTransport::new(2, ab);
        let o = overlapped.send_overlapped(0, 1, key(0), (), 1.0, 1.0, 0.0, 4);
        assert!((o - 1.25).abs() < 1e-12, "overlapped arrival {o}");
        // k = 1 reduces to the blocking send bit-for-bit.
        let mut one = VirtualTransport::new(2, ab);
        let o1 = one.send_overlapped(0, 1, key(0), (), 1.0, 1.0, 0.0, 1);
        assert_eq!(o1.to_bits(), b.to_bits());
    }

    #[test]
    fn overlapped_chunks_queue_on_a_busy_link() {
        // With α > 0 each chunk pays it, so heavy chunking can lose: volume
        // 1 split into 4 on an α = 0.3 link costs 4·0.3 + 1 of link time.
        let ab = AlphaBeta {
            latency: 0.3,
            volume: 1.0,
        };
        let mut t = VirtualTransport::new(2, ab);
        let arrival = t.send_overlapped(0, 1, key(0), (), 1.0, 1.0, 0.0, 4);
        // Chunk 1 departs at 0.25, arrives 0.8; chunk 2 ready 0.5, departs
        // 0.8 (link busy), arrives 1.35; chunk 3 at 1.9; chunk 4 at 2.45.
        assert!((arrival - 2.45).abs() < 1e-12, "arrival {arrival}");
    }

    #[test]
    fn fault_hook_injects_latency() {
        let clean = VirtualTransport::new(
            2,
            AlphaBeta {
                latency: 0.0,
                volume: 1.0,
            },
        )
        .send(0, 1, key(0), (), 0.0);
        let mut faulty = VirtualTransport::new(
            2,
            AlphaBeta {
                latency: 0.0,
                volume: 1.0,
            },
        )
        .with_fault(|from, to, _key, _now| if (from, to) == (0, 1) { 3.0 } else { 0.0 });
        let delayed = faulty.send(0, 1, key(0), (), 0.0);
        assert!((delayed - clean - 3.0).abs() < 1e-12);
    }

    #[test]
    fn overlapped_fault_draws_once_per_message() {
        // The hook must see one call per message (not per chunk), and the
        // whole delay lands on the final arrival.
        let mut calls = 0usize;
        let mut t = VirtualTransport::new(
            2,
            AlphaBeta {
                latency: 0.0,
                volume: 1.0,
            },
        )
        .with_fault(move |_f, _t, _k, _n| {
            calls += 1;
            assert_eq!(calls, 1, "fault hook called once per message");
            2.0
        });
        let arrival = t.send_overlapped(0, 1, key(0), (), 1.0, 1.0, 0.0, 4);
        assert!((arrival - 3.25).abs() < 1e-12, "arrival {arrival}");
    }

    #[test]
    fn schedule_edges_cover_both_directions() {
        let edges = schedule_edges(&one_f_one_b(3, 2));
        let want: BTreeSet<_> = [(0, 1), (1, 2), (2, 1), (1, 0)].into_iter().collect();
        assert_eq!(edges, want);
    }

    #[test]
    fn channel_endpoints_stash_out_of_order_messages() {
        let mut eps = channel_mesh::<u32>(2, [(0, 1)]);
        let receiver = eps.pop().unwrap();
        let sender = eps.pop().unwrap();
        let handle = std::thread::spawn(move || {
            let mut receiver = receiver;
            // Ask for mb 1 first even though mb 0 arrives first: the stash
            // must park mb 0 until its own recv comes up.
            let b = receiver.recv(key(1));
            let a = receiver.recv(key(0));
            (a, b)
        });
        sender.send_to(1, key(0), 10);
        sender.send_to(1, key(1), 11);
        assert_eq!(handle.join().unwrap(), (10, 11));
    }

    #[test]
    fn channel_endpoint_try_recv_is_nonblocking() {
        let mut eps = channel_mesh::<u32>(2, [(0, 1)]);
        let mut receiver = eps.pop().unwrap();
        let sender = eps.pop().unwrap();
        assert!(receiver.try_recv(1, key(0)).is_none());
        sender.send_to(1, key(0), 7);
        // The channel delivers promptly for a same-thread send/recv pair.
        let got = loop {
            if let Some((v, _)) = receiver.try_recv(1, key(0)) {
                break v;
            }
        };
        assert_eq!(got, 7);
    }

    #[test]
    fn a_link_hangs_up_only_once_closed_and_drained() {
        let mut eps = channel_mesh::<u32>(2, [(0, 1)]);
        let mut receiver = eps.pop().unwrap();
        let endpoint = eps.pop().unwrap();
        let detached = endpoint.sender();
        endpoint.send_to(1, key(0), 7);
        drop(endpoint);
        // A cloned sender (the comm thread's handle) keeps the link open.
        assert!(receiver.try_recv(1, key(1)).is_none());
        assert!(!receiver.hung_up(0));
        detached.send_chunks(1, key(1), 8, 1);
        drop(detached);
        // Closed now, but what was in flight is delivered before the
        // hang-up is reported.
        assert_eq!(receiver.try_recv(1, key(1)).unwrap().0, 8);
        assert_eq!(receiver.try_recv(1, key(0)).unwrap().0, 7);
        assert!(receiver.try_recv(1, key(2)).is_none());
        assert!(receiver.hung_up(0));
        assert!(!receiver.hung_up(1), "no such link is not a hang-up");
    }

    #[test]
    fn vec_chunks_round_trip_bit_identically() {
        for len in [0usize, 1, 3, 8, 17] {
            for k in [1usize, 2, 4, 8, 32] {
                let v: Vec<u64> = (0..len as u64).collect();
                let parts = v.clone().split_chunks(k);
                assert!(parts.len() <= k.max(1));
                assert_eq!(Vec::join_chunks(parts), v, "len {len} k {k}");
            }
        }
    }

    #[test]
    fn chunked_channel_sends_reassemble() {
        let mut eps = channel_mesh::<Vec<u64>>(2, [(0, 1)]);
        let mut receiver = eps.pop().unwrap();
        let sender = eps.pop().unwrap();
        let payload: Vec<u64> = (0..100).collect();
        sender.sender().send_chunks(1, key(0), payload.clone(), 4);
        // A second whole message on the same edge must not interleave.
        sender.send_to(1, key(1), vec![7, 7]);
        let got = loop {
            if let Some((v, _)) = receiver.try_recv(1, key(0)) {
                break v;
            }
        };
        assert_eq!(got, payload);
        assert_eq!(receiver.recv(key(1)), vec![7, 7]);
    }

    #[test]
    fn detached_sender_handle_sends_chunks() {
        let mut eps = channel_mesh::<Vec<u64>>(2, [(0, 1)]);
        let mut receiver = eps.pop().unwrap();
        let endpoint = eps.pop().unwrap();
        let sender = endpoint.sender();
        let handle = std::thread::spawn(move || {
            sender.send_chunks(1, key(0), vec![1, 2, 3, 4, 5], 3);
        });
        handle.join().unwrap();
        assert_eq!(receiver.recv(key(0)), vec![1, 2, 3, 4, 5]);
    }
}
