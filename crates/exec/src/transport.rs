//! How keyed messages move between devices.
//!
//! [`VirtualTransport`] runs in simulated time — an α+β cost per message,
//! FIFO ordering per directed edge, and the extra delay a fault script puts
//! on a message, which the [`Cursor`](crate::Cursor) hands to the send.
//! [`ChannelEndpoint`] runs in wall-clock time — one unbounded channel per
//! directed edge with a stash for out-of-order arrivals. Both speak
//! [`MsgKey`]; each executor's [`Device`](crate::Device) drives one of them.
//!
//! # Communication–computation overlap
//!
//! Overlap is a property of the modelled wire, so it lives in virtual time
//! only. Under [`CommConfig::overlapped`] a micro-batch message is split
//! into `k` chunks, and chunk `j` may enter the link as soon as the fraction
//! `j/k` of the producing compute op has run — the transfer pipelines
//! against the tail of the producer instead of waiting for its end.
//! [`VirtualTransport::send_overlapped`] prices that from the producing
//! op's span; the event simulator, the planner and the family search score
//! plans with it. [`ChannelEndpoint::send_to`] has nothing to overlap: it
//! queues the whole message on an unbounded in-process channel and returns,
//! so the runtime runs every plan, overlapped or not, through that one send.

use std::collections::{BTreeSet, HashMap, VecDeque};

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use serde::{Deserialize, Serialize};

use autopipe_schedule::{OpKind, Part, Schedule};

use crate::msg::MsgKey;

/// How the modelled wire moves messages: blocking hand-offs (the
/// pre-overlap behaviour) or chunked eager sends that pipeline against the
/// producing compute op. Read by the virtual-time executors; the runtime's
/// in-process sends never block, so it has no setting here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommConfig {
    /// Run the comm lane overlapped with compute. Off reproduces the
    /// blocking simulators bit-for-bit.
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

/// The α+β link model: every directed edge pays a per-message latency plus
/// a volume-proportional transfer.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct AlphaBeta {
    /// Per-message latency (α).
    pub latency: f64,
    /// Full-micro-batch volume transfer time (bytes/β); halves pay half.
    pub volume: f64,
}

impl AlphaBeta {
    /// Transfer time of a message carrying `part` of a micro-batch.
    #[inline]
    pub fn transfer(&self, part: Part) -> f64 {
        self.latency + part.frac() * self.volume
    }

    /// Transfer time of **one of `k` chunks** of that message: every chunk
    /// pays the full latency (each is its own packet on the wire) and `1/k`
    /// of the volume. `k = 1` equals [`transfer`](Self::transfer)
    /// bit-for-bit — dividing by `1.0` is exact.
    #[inline]
    pub fn transfer_chunk(&self, part: Part, k: usize) -> f64 {
        self.latency + part.frac() * (self.volume / k.max(1) as f64)
    }
}

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
/// exactly. [`reset`](Self::reset) keeps the allocations, so a search loop
/// that reuses one transport pays for their growth once per problem shape
/// rather than once per candidate.
#[derive(Debug, Default)]
pub struct VirtualTransport {
    link: AlphaBeta,
    n_devices: usize,
    link_free: Vec<f64>,
    mailbox: Vec<VecDeque<(MsgKey, f64)>>,
}

impl VirtualTransport {
    /// A transport over `n_devices` devices whose edges are all `link`.
    pub fn new(n_devices: usize, link: AlphaBeta) -> Self {
        let mut t = VirtualTransport::default();
        t.reset(n_devices, link);
        t
    }

    /// Idle links and empty mailboxes for `n_devices` devices over `link`.
    pub fn reset(&mut self, n_devices: usize, link: AlphaBeta) {
        self.link = link;
        self.n_devices = n_devices;
        self.link_free.clear();
        self.link_free.resize(n_devices * n_devices, 0.0);
        // Surplus mailboxes from a wider pipeline stay (empty) for the next.
        if self.mailbox.len() < n_devices {
            self.mailbox.resize_with(n_devices, VecDeque::new);
        }
        for queue in &mut self.mailbox {
            queue.clear();
        }
    }

    /// Hand a message to the link at time `now`, `delay` (≥ 0) slower than
    /// the link alone. Delivery is asynchronous (the sender does not block)
    /// and FIFO per directed edge. Returns the arrival time.
    #[inline]
    pub fn send(&mut self, from: usize, to: usize, key: MsgKey, now: f64, delay: f64) -> f64 {
        let mut transfer = self.link.transfer(key.part);
        transfer += delay;
        let free = &mut self.link_free[from * self.n_devices + to];
        let depart = free.max(now);
        let arrival = depart + transfer;
        *free = arrival;
        self.mailbox[to].push_back((key, arrival));
        arrival
    }

    /// Overlapped chunked send. `span_end`/`span_dur` describe the compute
    /// op that produced the message; chunk `j` of `chunks` (1-based) is
    /// ready to depart at `span_end − span_dur·(chunks−j)/chunks + stall`,
    /// i.e. the transfer pipelines against the tail of the producing op.
    /// The message is delivered whole at the **last** chunk's arrival, and
    /// the message's `delay` is charged to that chunk, once.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn send_overlapped(
        &mut self,
        from: usize,
        to: usize,
        key: MsgKey,
        span_end: f64,
        span_dur: f64,
        stall: f64,
        chunks: usize,
        delay: f64,
    ) -> f64 {
        let k = chunks.max(1);
        let free = &mut self.link_free[from * self.n_devices + to];
        let mut arrival = 0.0;
        for j in 1..=k {
            let mut cost = self.link.transfer_chunk(key.part, k);
            if j == k {
                cost += delay;
            }
            // Chunk j is produced once j/k of the compute span has run; the
            // last chunk's ready time is exactly the blocking send time
            // (span_dur·0.0 vanishes bitwise).
            let ready = span_end - span_dur * ((k - j) as f64 / k as f64) + stall;
            let depart = free.max(ready);
            arrival = depart + cost;
            *free = arrival;
        }
        self.mailbox[to].push_back((key, arrival));
        arrival
    }

    /// Non-blocking receive at device `at`: the arrival time of the
    /// earliest-sent message with `key`, if one has been sent.
    #[inline]
    pub fn try_recv(&mut self, at: usize, key: MsgKey) -> Option<f64> {
        let queue = &mut self.mailbox[at];
        let idx = queue.iter().position(|(k, _)| *k == key)?;
        let (_, arrival) = queue.remove(idx).expect("index from position");
        Some(arrival)
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

struct Packet<T> {
    key: MsgKey,
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

impl<T> ChannelEndpoint<T> {
    /// Whether the link from device `from` is closed and drained: the peer
    /// dropped its endpoint and all it had sent has been moved into the
    /// stash, so a key that is not stashed by now will never arrive. As of
    /// the last receive.
    pub fn hung_up(&self, from: usize) -> bool {
        self.rx.iter().any(|l| l.from == from && l.hung_up)
    }

    /// Send to `to`. Never blocks: the link is an unbounded in-process
    /// channel, so the message is queued and the caller moves on. Panics if
    /// the mesh has no such edge or the peer hung up — both are schedule
    /// bugs, not runtime conditions.
    pub fn send_to(&self, to: usize, key: MsgKey, payload: T) {
        self.tx
            .get(&to)
            .unwrap_or_else(|| panic!("device {}: no link to device {to}", self.device))
            .send(Packet { key, payload })
            .expect("pipeline channel closed");
    }

    /// Non-blocking receive: the earliest-sent message with `key`, if it
    /// has arrived.
    pub fn try_recv(&mut self, key: MsgKey) -> Option<T> {
        self.drain_inbound();
        self.stash.get_mut(&key).and_then(VecDeque::pop_front)
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

    /// Move every currently-available inbound packet into the stash; true
    /// if anything arrived.
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
                self.stash
                    .entry(pkt.key)
                    .or_default()
                    .push_back(pkt.payload);
            }
        }
        any
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
        let a0 = t.send(0, 1, key(0), 0.0, 0.0);
        let a1 = t.send(0, 1, key(1), 0.2, 0.0);
        assert!((a0 - 1.1).abs() < 1e-12);
        assert!((a1 - 2.2).abs() < 1e-12, "second message must queue: {a1}");
        // FIFO pop order per key.
        assert_eq!(t.try_recv(1, key(0)), Some(a0));
        assert_eq!(t.try_recv(1, key(1)), Some(a1));
        assert!(t.try_recv(1, key(0)).is_none());
    }

    #[test]
    fn half_messages_pay_half_the_volume() {
        let costs = AlphaBeta {
            latency: 0.5,
            volume: 2.0,
        };
        assert!((costs.transfer(Part::Half1) - 1.5).abs() < 1e-12);
        assert!((costs.transfer(Part::Both) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn chunked_transfer_pays_latency_per_chunk() {
        let costs = AlphaBeta {
            latency: 0.5,
            volume: 2.0,
        };
        // k chunks: each pays full α and 1/k of the volume.
        assert!((costs.transfer_chunk(Part::Full, 4) - 1.0).abs() < 1e-12);
        // k = 1 is the whole message, bit-for-bit.
        assert_eq!(
            costs.transfer_chunk(Part::Full, 1).to_bits(),
            costs.transfer(Part::Full).to_bits()
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
        let b = blocking.send(0, 1, key(0), 1.0, 0.0);
        assert!((b - 2.0).abs() < 1e-12);
        // 4 chunks: chunk j ready at j/4, costs 0.25 → last arrives at 1.25.
        let mut overlapped = VirtualTransport::new(2, ab);
        let o = overlapped.send_overlapped(0, 1, key(0), 1.0, 1.0, 0.0, 4, 0.0);
        assert!((o - 1.25).abs() < 1e-12, "overlapped arrival {o}");
        // k = 1 reduces to the blocking send bit-for-bit.
        let mut one = VirtualTransport::new(2, ab);
        let o1 = one.send_overlapped(0, 1, key(0), 1.0, 1.0, 0.0, 1, 0.0);
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
        let arrival = t.send_overlapped(0, 1, key(0), 1.0, 1.0, 0.0, 4, 0.0);
        // Chunk 1 departs at 0.25, arrives 0.8; chunk 2 ready 0.5, departs
        // 0.8 (link busy), arrives 1.35; chunk 3 at 1.9; chunk 4 at 2.45.
        assert!((arrival - 2.45).abs() < 1e-12, "arrival {arrival}");
    }

    #[test]
    fn link_delay_injects_latency() {
        let ab = AlphaBeta {
            latency: 0.0,
            volume: 1.0,
        };
        let clean = VirtualTransport::new(2, ab).send(0, 1, key(0), 0.0, 0.0);
        let delayed = VirtualTransport::new(2, ab).send(0, 1, key(0), 0.0, 3.0);
        assert!((delayed - clean - 3.0).abs() < 1e-12);
    }

    #[test]
    fn overlapped_link_delay_is_charged_once_to_the_last_chunk() {
        // The message's delay is paid once, not per chunk, and the whole of
        // it lands on the final arrival: 1.25 clean, + 2.0.
        let mut t = VirtualTransport::new(
            2,
            AlphaBeta {
                latency: 0.0,
                volume: 1.0,
            },
        );
        let arrival = t.send_overlapped(0, 1, key(0), 1.0, 1.0, 0.0, 4, 2.0);
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
        assert!(receiver.try_recv(key(0)).is_none());
        sender.send_to(1, key(0), 7);
        // The channel delivers promptly for a same-thread send/recv pair.
        let got = loop {
            if let Some(v) = receiver.try_recv(key(0)) {
                break v;
            }
        };
        assert_eq!(got, 7);
    }

    #[test]
    fn a_link_hangs_up_only_once_closed_and_drained() {
        let mut eps = channel_mesh::<u32>(2, [(0, 1)]);
        let mut receiver = eps.pop().unwrap();
        let sender = eps.pop().unwrap();
        sender.send_to(1, key(0), 7);
        // An open link with nothing queued for `key(1)` is not a hang-up.
        assert!(receiver.try_recv(key(1)).is_none());
        assert!(!receiver.hung_up(0));
        sender.send_to(1, key(1), 8);
        drop(sender);
        // Closed now, but what was in flight is delivered before the
        // hang-up is reported.
        assert_eq!(receiver.try_recv(key(1)), Some(8));
        assert_eq!(receiver.try_recv(key(0)), Some(7));
        assert!(receiver.try_recv(key(2)).is_none());
        assert!(receiver.hung_up(0));
        assert!(!receiver.hung_up(1), "no such link is not a hang-up");
    }
}
