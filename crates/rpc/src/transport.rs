//! The flat-identifier virtual link layer.
//!
//! Paper §3: "The network and the software stack under the application
//! should offer no protocols or abstractions by default except for a
//! (virtual) link layer that can deliver packets to endpoints based on a
//! flat identifier such as a MAC address."
//!
//! [`Frame`] is that packet: source and destination flat ids plus opaque
//! bytes. Two realizations are provided:
//!
//! * [`InProcNetwork`] — a process-local fabric over crossbeam channels, the
//!   default for experiments (both the ADN path and the baseline mesh path
//!   ride it, so fabric cost is identical for the comparison).
//! * [`TcpLink`] — length-delimited frames over TCP for actually crossing
//!   host boundaries; used by the distributed examples.

use std::collections::HashMap;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, Sender, TrySendError};
use parking_lot::{Mutex, RwLock};

use crate::error::{RpcError, RpcResult};

/// Flat endpoint identifier (the "MAC address" of the virtual link layer).
pub type EndpointAddr = u64;

/// A link-layer frame: flat addressing plus opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sender's flat id.
    pub src: EndpointAddr,
    /// Receiver's flat id.
    pub dst: EndpointAddr,
    /// Opaque bytes. The ADN path carries schema-driven message encodings;
    /// the baseline mesh path carries HTTP/2-lite byte streams.
    pub payload: Vec<u8>,
}

/// Anything that can push a frame toward a destination endpoint.
pub trait Link: Send + Sync {
    /// Delivers `frame` to `frame.dst`, or fails if the endpoint is unknown
    /// or disconnected.
    fn send(&self, frame: Frame) -> RpcResult<()>;

    /// Delivers a batch of frames, returning how many were accepted.
    /// Failures are per-frame: a dead destination costs only its own frames.
    /// The default forwards one at a time; implementations override to
    /// amortize locking and syscalls (see [`TcpLink`]'s coalesced writes).
    fn send_batch(&self, frames: Vec<Frame>) -> usize {
        frames.into_iter().filter_map(|f| self.send(f).ok()).count()
    }
}

// ---------------------------------------------------------------------------
// In-process fabric
// ---------------------------------------------------------------------------

#[derive(Default)]
struct InProcState {
    endpoints: HashMap<EndpointAddr, Sender<Frame>>,
}

/// A process-local frame fabric. Endpoints attach with [`InProcNetwork::attach`]
/// and receive their frames on the returned channel.
///
/// Inbound queues are unbounded by default (the historical behavior, and
/// what the golden sim log pins). Overload-hardened deployments set a
/// capacity — per endpoint via [`InProcNetwork::attach_bounded`] or fabric-
/// wide via [`InProcNetwork::set_default_capacity`] — after which a full
/// queue drops the frame like a saturated NIC would: counted in
/// [`InProcNetwork::inbound_drops`], never an error to the sender (the
/// sender's retry/deadline machinery is the recovery path). Control
/// channels (processor `Ctl`, controller events) ride their own crossbeam
/// channels, not this fabric, so they are exempt by construction.
#[derive(Clone, Default)]
pub struct InProcNetwork {
    state: Arc<RwLock<InProcState>>,
    /// Capacity for future `attach` calls; 0 = unbounded.
    default_capacity: Arc<AtomicUsize>,
    /// Frames dropped at full inbound queues, fabric-wide.
    inbound_drops: Arc<AtomicU64>,
}

impl InProcNetwork {
    /// Creates an empty fabric.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the inbound-queue capacity applied by subsequent
    /// [`InProcNetwork::attach`] calls (`None` = unbounded). Existing
    /// endpoints keep the capacity they attached with.
    pub fn set_default_capacity(&self, capacity: Option<usize>) {
        self.default_capacity
            .store(capacity.unwrap_or(0), Ordering::Relaxed);
    }

    /// Frames dropped because an inbound queue was full, fabric-wide.
    pub fn inbound_drops(&self) -> u64 {
        self.inbound_drops.load(Ordering::Relaxed)
    }

    /// Attaches an endpoint, returning its frame receiver. Re-attaching an
    /// address replaces the previous endpoint (used by live migration: the
    /// new instance takes over the flat id). The inbound queue uses the
    /// fabric's default capacity (unbounded unless configured).
    pub fn attach(&self, addr: EndpointAddr) -> Receiver<Frame> {
        match self.default_capacity.load(Ordering::Relaxed) {
            0 => self.attach_with(addr, None),
            cap => self.attach_with(addr, Some(cap)),
        }
    }

    /// Attaches an endpoint with an explicit inbound-queue capacity.
    pub fn attach_bounded(&self, addr: EndpointAddr, capacity: usize) -> Receiver<Frame> {
        self.attach_with(addr, Some(capacity.max(1)))
    }

    fn attach_with(&self, addr: EndpointAddr, capacity: Option<usize>) -> Receiver<Frame> {
        let (tx, rx) = match capacity {
            Some(cap) => crossbeam::channel::bounded(cap),
            None => crossbeam::channel::unbounded(),
        };
        self.state.write().endpoints.insert(addr, tx);
        rx
    }

    /// Detaches an endpoint; its queued frames are dropped.
    pub fn detach(&self, addr: EndpointAddr) {
        self.state.write().endpoints.remove(&addr);
    }

    /// Whether an endpoint is currently attached.
    pub fn is_attached(&self, addr: EndpointAddr) -> bool {
        self.state.read().endpoints.contains_key(&addr)
    }

    /// Number of attached endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.state.read().endpoints.len()
    }
}

impl Link for InProcNetwork {
    fn send(&self, frame: Frame) -> RpcResult<()> {
        let state = self.state.read();
        let tx = state
            .endpoints
            .get(&frame.dst)
            .ok_or(RpcError::UnknownEndpoint(frame.dst))?;
        match tx.try_send(frame) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => {
                // A saturated queue behaves like a dropped packet, not a
                // send failure: count it and let the sender's retry and
                // deadline machinery recover.
                self.inbound_drops.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(TrySendError::Disconnected(_)) => Err(RpcError::Disconnected),
        }
    }

    /// One endpoint-table read lock for the whole batch, and for each run
    /// of consecutive same-`dst` frames one lookup and one burst publish
    /// (one queue lock, one wake-up). Accounting is per frame and the same
    /// as a loop of [`InProcNetwork::send`]: a frame a full bounded queue
    /// had no room for counts as accepted and as an inbound drop, a frame
    /// to an unknown or disconnected endpoint counts as neither.
    fn send_batch(&self, frames: Vec<Frame>) -> usize {
        let state = self.state.read();
        let mut frames = frames.into_iter();
        let mut accepted = 0;
        while let Some(first) = frames.as_slice().first() {
            let dst = first.dst;
            let run = frames
                .as_slice()
                .iter()
                .take_while(|f| f.dst == dst)
                .count();
            let mut run_frames = frames.by_ref().take(run);
            if let Some(tx) = state.endpoints.get(&dst) {
                if let Ok(queued) = tx.try_send_many(run_frames.by_ref()) {
                    accepted += run;
                    if queued < run {
                        self.inbound_drops
                            .fetch_add((run - queued) as u64, Ordering::Relaxed);
                    }
                }
            }
            // Whatever the queue did not take is dropped here, outside its lock.
            run_frames.for_each(drop);
        }
        accepted
    }
}

// ---------------------------------------------------------------------------
// TCP link
// ---------------------------------------------------------------------------

/// Wire framing for TCP: a 4-byte big-endian length counting everything
/// after itself, then src and dst (8 bytes big-endian each), then payload.
const HEADER_LEN: usize = 20;

/// Least value of the length field: src and dst around an empty payload.
const MIN_FRAME_LEN: usize = 16;

/// Greatest value of the length field a link sends or accepts (4 MiB, the
/// default message limit of gRPC). The field comes off the wire before the
/// bytes it announces, so it is bounded before anything is allocated for
/// it; a connection that announces more, or less than [`MIN_FRAME_LEN`],
/// is closed and counted in [`TcpLinkStats::malformed_frames`].
pub const MAX_FRAME_LEN: usize = 4 << 20;

/// Size of a reader thread's buffer, and so the most one `read` returns.
/// At the smallest messages that is several hundred frames per syscall.
/// Measured on the benchmark's `fwd_small_tcp`: at 256 KiB throughput was
/// no higher and peak RSS rose by over 1 MB, to that metric's bound.
const READ_BUF: usize = 32 * 1024;

/// A writer copies payloads up to this size into its scratch buffer, so a
/// group of small frames leaves in one `write`; a larger payload is
/// written from where it lies, as a slice of its own in a vectored write.
const COALESCE_MAX: usize = 4 * 1024;

/// A writer issues a write when its scratch buffer holds this much, which
/// bounds the memory a connection keeps. No more than a reader takes in
/// one `read`.
const WRITE_BUF: usize = READ_BUF;

/// Counters of one [`TcpLink`], all since `bind`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpLinkStats {
    /// Frames parsed off accepted connections, inbound drops included.
    pub frames_in: u64,
    /// `read` calls that returned bytes. `frames_in / reads_in` is the
    /// burst factor: how many frames one syscall, one queue lock and one
    /// wake-up carried.
    pub reads_in: u64,
    /// Bytes those reads returned, framing included.
    pub bytes_in: u64,
    /// Frames written to peers.
    pub frames_out: u64,
    /// `write` calls those frames left in.
    pub writes_out: u64,
    /// Frames dropped because the inbound queue was full.
    pub inbound_drops: u64,
    /// Connections closed for announcing a frame length out of bounds.
    pub malformed_frames: u64,
}

/// The live form of [`TcpLinkStats`]. Statistics only, hence `Relaxed`.
#[derive(Default)]
struct Counters {
    frames_in: AtomicU64,
    reads_in: AtomicU64,
    bytes_in: AtomicU64,
    frames_out: AtomicU64,
    writes_out: AtomicU64,
    inbound_drops: AtomicU64,
    malformed_frames: AtomicU64,
}

fn bump(counter: &AtomicU64, by: usize) {
    counter.fetch_add(by as u64, Ordering::Relaxed);
}

/// One outbound connection.
struct Peer {
    /// Outside the lock so that [`TcpLink::close`] can shut the socket down
    /// under a writer blocked on it.
    stream: TcpStream,
    /// The coalescing buffer. Its lock is the connection's write lock, held
    /// from a group's first byte to its last: `write_all` loops on short
    /// writes, and a second sender let in between two of them would splice
    /// its frames into the middle of one of ours.
    scratch: Mutex<Vec<u8>>,
}

impl Peer {
    /// Writes `frames` back to back; returns how many `write` calls it took.
    fn write(&self, frames: &[Frame]) -> std::io::Result<usize> {
        let mut scratch = self.scratch.lock();
        let mut writes = 0;
        let mut rest = frames;
        while !rest.is_empty() {
            // One write: frames until the scratch buffer is full. Headers
            // and small payloads are copied into it; a large payload is
            // noted with where in the scratch bytes it belongs.
            scratch.clear();
            let mut large: Vec<(usize, &[u8])> = Vec::new();
            let mut taken = 0;
            for frame in rest {
                let len = MIN_FRAME_LEN + frame.payload.len();
                debug_assert!(len <= MAX_FRAME_LEN, "callers refuse oversized frames");
                scratch.extend_from_slice(&(len as u32).to_be_bytes());
                scratch.extend_from_slice(&frame.src.to_be_bytes());
                scratch.extend_from_slice(&frame.dst.to_be_bytes());
                if frame.payload.len() <= COALESCE_MAX {
                    scratch.extend_from_slice(&frame.payload);
                } else {
                    large.push((scratch.len(), &frame.payload));
                }
                taken += 1;
                if scratch.len() >= WRITE_BUF {
                    break;
                }
            }
            rest = &rest[taken..];
            if large.is_empty() {
                (&self.stream).write_all(&scratch)?;
            } else {
                let mut slices = Vec::with_capacity(2 * large.len() + 1);
                let mut from = 0;
                for &(at, payload) in &large {
                    slices.push(IoSlice::new(&scratch[from..at]));
                    slices.push(IoSlice::new(payload));
                    from = at;
                }
                slices.push(IoSlice::new(&scratch[from..]));
                write_all_vectored(&self.stream, &slices)?;
            }
            writes += 1;
        }
        Ok(writes)
    }
}

/// `write_all` for a list of slices: one vectored write, then whatever it
/// left, slice by slice. A blocking socket takes the whole list unless it
/// is longer than the platform's `IOV_MAX` or a signal cuts the call short.
fn write_all_vectored(mut stream: &TcpStream, slices: &[IoSlice<'_>]) -> std::io::Result<()> {
    let mut written = match stream.write_vectored(slices) {
        Ok(n) => n,
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => 0,
        Err(e) => return Err(e),
    };
    for slice in slices {
        if written >= slice.len() {
            written -= slice.len();
        } else {
            stream.write_all(&slice[written..])?;
            written = 0;
        }
    }
    Ok(())
}

/// A reader thread's view of its socket: every `read` that returned bytes
/// is counted.
struct CountedReads<'a> {
    stream: TcpStream,
    counters: &'a Counters,
}

impl Read for CountedReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.stream.read(buf)?;
        if n > 0 {
            bump(&self.counters.reads_in, 1);
            bump(&self.counters.bytes_in, n);
        }
        Ok(n)
    }
}

/// Hands the frames parsed so far to the link's inbound queue in one burst
/// and counts those a full queue had no room for. `false` once the link's
/// receiver is gone.
fn publish(burst: &mut Vec<Frame>, tx: &Sender<Frame>, counters: &Counters) -> bool {
    let parsed = burst.len();
    if parsed == 0 {
        return true;
    }
    bump(&counters.frames_in, parsed);
    // Drained by reference: frames the queue leaves behind are dropped when
    // `frames` is, after the queue's lock is released.
    let mut frames = burst.drain(..);
    match tx.try_send_many(frames.by_ref()) {
        Ok(queued) => {
            if queued < parsed {
                bump(&counters.inbound_drops, parsed - queued);
            }
            true
        }
        Err(_) => false,
    }
}

/// Serves one accepted connection until it ends: one `read` per wake-up
/// into a reused buffer, every complete frame in it parsed (one exactly
/// sized allocation each, the payload) and the lot published as one burst
/// before the next `read` can block, so a lone frame is delivered at once.
fn read_connection(stream: TcpStream, tx: &Sender<Frame>, counters: &Counters) {
    let mut stream = CountedReads { stream, counters };
    let mut buf = vec![0u8; READ_BUF];
    // `buf[..filled]` is stream not yet parsed; it starts at a frame boundary.
    let mut filled = 0;
    let mut burst: Vec<Frame> = Vec::new();
    loop {
        match stream.read(&mut buf[filled..]) {
            // End of stream and socket errors end the connection alike.
            Ok(0) => return,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        let mut at = 0;
        while filled - at >= 4 {
            let len = u32::from_be_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
            if !(MIN_FRAME_LEN..=MAX_FRAME_LEN).contains(&len) {
                bump(&counters.malformed_frames, 1);
                publish(&mut burst, tx, counters);
                let _ = stream.stream.shutdown(Shutdown::Both);
                return;
            }
            if filled - at < HEADER_LEN {
                break;
            }
            let word = |i: usize| u64::from_be_bytes(buf[i..i + 8].try_into().expect("8 bytes"));
            let (src, dst) = (word(at + 4), word(at + 12));
            let (body, end) = (at + HEADER_LEN, at + 4 + len);
            let payload = if end <= filled {
                at = end;
                buf[body..end].to_vec()
            } else if len - MIN_FRAME_LEN > COALESCE_MAX {
                // The rest of a large payload is read straight into it,
                // not through the buffer. That blocks, so what is parsed
                // goes out first.
                if !publish(&mut burst, tx, counters) {
                    return;
                }
                let mut payload = Vec::with_capacity(len - MIN_FRAME_LEN);
                payload.extend_from_slice(&buf[body..filled]);
                at = filled;
                let missing = end - filled;
                match stream
                    .by_ref()
                    .take(missing as u64)
                    .read_to_end(&mut payload)
                {
                    Ok(n) if n == missing => payload,
                    _ => return,
                }
            } else {
                break;
            };
            burst.push(Frame { src, dst, payload });
        }
        if !publish(&mut burst, tx, counters) {
            return;
        }
        // An incomplete small frame moves to the front to be completed there.
        buf.copy_within(at..filled, 0);
        filled -= at;
    }
}

/// A TCP realization of the virtual link layer for one host.
///
/// Each host runs one `TcpLink`, binds a listener, and registers a routing
/// table mapping remote flat ids to socket addresses (in a real deployment
/// the controller distributes this table; here tests populate it directly).
/// Frames to local endpoints are delivered on the host's receive channel.
///
/// There is one read path and one write path. Each accepted connection has
/// a reader thread ([`read_connection`]) that turns whatever one `read`
/// returned into one burst on the receive channel. Each peer has one
/// persistent outbound connection ([`Peer`]); [`Link::send`] and
/// [`Link::send_batch`] both write through it under its lock, small frames
/// coalesced into one `write`.
pub struct TcpLink {
    local_addr: SocketAddr,
    routes: RwLock<HashMap<EndpointAddr, SocketAddr>>,
    conns: Mutex<HashMap<SocketAddr, Arc<Peer>>>,
    incoming_rx: Receiver<Frame>,
    accepted: Arc<Mutex<Vec<TcpStream>>>,
    closed: Arc<AtomicBool>,
    counters: Arc<Counters>,
}

impl TcpLink {
    /// Binds a listener on `bind` (use port 0 for an ephemeral port) and
    /// starts the accept loop with an unbounded inbound queue.
    pub fn bind(bind: &str) -> RpcResult<Arc<Self>> {
        Self::bind_with_capacity(bind, None)
    }

    /// Like [`TcpLink::bind`], but bounds the host's inbound frame queue.
    /// When the queue is full, reader threads drop the frame (counted in
    /// [`TcpLink::inbound_drops`]) instead of buffering without limit —
    /// the overload-control backpressure point for cross-host traffic.
    pub fn bind_with_capacity(bind: &str, capacity: Option<usize>) -> RpcResult<Arc<Self>> {
        let listener = TcpListener::bind(bind)?;
        let local_addr = listener.local_addr()?;
        let (incoming_tx, incoming_rx) = match capacity {
            Some(cap) => crossbeam::channel::bounded(cap.max(1)),
            None => crossbeam::channel::unbounded(),
        };
        let accepted: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let closed = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());

        let link = Arc::new(Self {
            local_addr,
            routes: RwLock::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            incoming_rx,
            accepted: accepted.clone(),
            closed: closed.clone(),
            counters: counters.clone(),
        });

        std::thread::Builder::new()
            .name(format!("tcp-link-accept-{local_addr}"))
            .spawn(move || {
                for stream in listener.incoming() {
                    if closed.load(Ordering::Relaxed) {
                        return; // listener drops; the port is released
                    }
                    let Ok(stream) = stream else { continue };
                    if let Ok(clone) = stream.try_clone() {
                        accepted.lock().push(clone);
                    }
                    let peer = stream
                        .peer_addr()
                        .map_or_else(|_| "unknown".to_owned(), |a| a.to_string());
                    let tx = incoming_tx.clone();
                    let counters = counters.clone();
                    std::thread::Builder::new()
                        .name(format!("tcp-link-read-{peer}"))
                        .spawn(move || {
                            stream.set_nodelay(true).ok();
                            read_connection(stream, &tx, &counters);
                        })
                        .expect("spawn reader thread");
                }
            })
            .expect("spawn accept thread");

        Ok(link)
    }

    /// Frames dropped because the inbound queue was full.
    pub fn inbound_drops(&self) -> u64 {
        self.counters.inbound_drops.load(Ordering::Relaxed)
    }

    /// Connections closed because a peer announced a frame shorter than
    /// its own header or longer than [`MAX_FRAME_LEN`].
    pub fn malformed_frames(&self) -> u64 {
        self.counters.malformed_frames.load(Ordering::Relaxed)
    }

    /// A snapshot of the link's counters.
    pub fn stats(&self) -> TcpLinkStats {
        let c = &self.counters;
        let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        TcpLinkStats {
            frames_in: get(&c.frames_in),
            reads_in: get(&c.reads_in),
            bytes_in: get(&c.bytes_in),
            frames_out: get(&c.frames_out),
            writes_out: get(&c.writes_out),
            inbound_drops: get(&c.inbound_drops),
            malformed_frames: get(&c.malformed_frames),
        }
    }

    /// Shuts the link down: stops accepting, severs every accepted and
    /// outbound connection, and releases the listening port. Peers' next
    /// sends to this host fail with an [`RpcError`]; a peer recovers by
    /// re-pointing its route at a live host.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Relaxed);
        // Wake the accept loop so it observes the flag and exits.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200));
        for stream in self.accepted.lock().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for (_, peer) in self.conns.lock().drain() {
            let _ = peer.stream.shutdown(Shutdown::Both);
        }
    }

    /// The bound socket address (for distributing routes).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Registers (or updates) the socket address hosting a flat id.
    pub fn add_route(&self, endpoint: EndpointAddr, to: SocketAddr) {
        self.routes.write().insert(endpoint, to);
    }

    /// Frames addressed to this host's endpoints.
    pub fn incoming(&self) -> &Receiver<Frame> {
        &self.incoming_rx
    }

    /// The connection to `addr`, dialed on first use.
    fn peer(&self, addr: SocketAddr) -> std::io::Result<Arc<Peer>> {
        let mut conns = self.conns.lock();
        if let Some(peer) = conns.get(&addr) {
            return Ok(peer.clone());
        }
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        let peer = Arc::new(Peer {
            stream,
            scratch: Mutex::new(Vec::new()),
        });
        conns.insert(addr, peer.clone());
        Ok(peer)
    }

    /// Writes `frames`, in order, to the host at `addr`. A connection that
    /// fails is forgotten, so the next call dials afresh.
    fn write_frames(&self, addr: SocketAddr, frames: &[Frame]) -> std::io::Result<()> {
        let peer = self.peer(addr)?;
        match peer.write(frames) {
            Ok(writes) => {
                bump(&self.counters.frames_out, frames.len());
                bump(&self.counters.writes_out, writes);
                Ok(())
            }
            Err(e) => {
                // Unless another sender already replaced it.
                let mut conns = self.conns.lock();
                if conns.get(&addr).is_some_and(|p| Arc::ptr_eq(p, &peer)) {
                    conns.remove(&addr);
                }
                Err(e)
            }
        }
    }
}

/// Whether the frame's length fits the wire's length field and limit.
fn fits_frame_limit(frame: &Frame) -> bool {
    frame.payload.len() <= MAX_FRAME_LEN - MIN_FRAME_LEN
}

impl Link for TcpLink {
    fn send(&self, frame: Frame) -> RpcResult<()> {
        if !fits_frame_limit(&frame) {
            return Err(RpcError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "frame exceeds MAX_FRAME_LEN",
            )));
        }
        // Two attempts: a cached connection may be stale (peer restarted),
        // in which case the write error evicts it and the second attempt
        // re-resolves the route and dials fresh.
        let mut last_err = None;
        for _ in 0..2 {
            let addr = {
                let routes = self.routes.read();
                *routes
                    .get(&frame.dst)
                    .ok_or(RpcError::UnknownEndpoint(frame.dst))?
            };
            match self.write_frames(addr, std::slice::from_ref(&frame)) {
                Ok(()) => return Ok(()),
                Err(e) => last_err = Some(RpcError::Io(e)),
            }
        }
        Err(last_err.unwrap_or(RpcError::Disconnected))
    }

    /// Groups frames by resolved peer (preserving per-peer order) and
    /// writes each group through the peer's connection in as few `write`
    /// calls as [`WRITE_BUF`] allows. A group whose write fails falls back
    /// to per-frame [`TcpLink::send`], which redials — so one stale peer
    /// costs one redial, not the batch.
    fn send_batch(&self, frames: Vec<Frame>) -> usize {
        let mut groups: Vec<(SocketAddr, Vec<Frame>)> = Vec::new();
        {
            let routes = self.routes.read();
            for frame in frames {
                let Some(&addr) = routes.get(&frame.dst) else {
                    continue; // unrouted: same outcome as send()'s error
                };
                if !fits_frame_limit(&frame) {
                    continue; // likewise
                }
                match groups.iter_mut().find(|(a, _)| *a == addr) {
                    Some((_, group)) => group.push(frame),
                    None => groups.push((addr, vec![frame])),
                }
            }
        }
        let mut sent = 0;
        for (addr, group) in groups {
            match self.write_frames(addr, &group) {
                Ok(()) => sent += group.len(),
                Err(_) => sent += group.into_iter().filter_map(|f| self.send(f).ok()).count(),
            }
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inproc_delivers_to_attached_endpoint() {
        let net = InProcNetwork::new();
        let rx = net.attach(7);
        net.send(Frame {
            src: 1,
            dst: 7,
            payload: b"hi".to_vec(),
        })
        .unwrap();
        let frame = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(frame.payload, b"hi");
        assert_eq!(frame.src, 1);
    }

    #[test]
    fn inproc_unknown_endpoint_errors() {
        let net = InProcNetwork::new();
        let err = net
            .send(Frame {
                src: 1,
                dst: 99,
                payload: vec![],
            })
            .unwrap_err();
        assert!(matches!(err, RpcError::UnknownEndpoint(99)));
    }

    #[test]
    fn inproc_reattach_replaces_endpoint() {
        let net = InProcNetwork::new();
        let _old = net.attach(5);
        let new = net.attach(5);
        net.send(Frame {
            src: 0,
            dst: 5,
            payload: b"x".to_vec(),
        })
        .unwrap();
        assert!(new.recv_timeout(Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn inproc_detach_removes_endpoint() {
        let net = InProcNetwork::new();
        let _rx = net.attach(3);
        assert!(net.is_attached(3));
        net.detach(3);
        assert!(!net.is_attached(3));
        assert_eq!(net.endpoint_count(), 0);
    }

    #[test]
    fn inproc_bounded_queue_drops_overflow_and_counts() {
        let net = InProcNetwork::new();
        let rx = net.attach_bounded(7, 2);
        for i in 0..5u8 {
            net.send(Frame {
                src: 1,
                dst: 7,
                payload: vec![i],
            })
            .unwrap();
        }
        assert_eq!(net.inbound_drops(), 3, "overflow beyond capacity counted");
        // The first `capacity` frames survive in order; the rest were shed.
        assert_eq!(rx.try_recv().unwrap().payload, vec![0]);
        assert_eq!(rx.try_recv().unwrap().payload, vec![1]);
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn inproc_default_capacity_applies_to_later_attaches() {
        let net = InProcNetwork::new();
        let unbounded = net.attach(1);
        net.set_default_capacity(Some(1));
        let bounded = net.attach(2);
        for _ in 0..3 {
            net.send(Frame {
                src: 9,
                dst: 1,
                payload: vec![],
            })
            .unwrap();
            net.send(Frame {
                src: 9,
                dst: 2,
                payload: vec![],
            })
            .unwrap();
        }
        assert_eq!(unbounded.len(), 3, "pre-config endpoint stays unbounded");
        assert_eq!(bounded.len(), 1);
        assert_eq!(net.inbound_drops(), 2);
        // Batch sends count drops the same way.
        net.set_default_capacity(None);
        let frames: Vec<Frame> = (0..4)
            .map(|_| Frame {
                src: 9,
                dst: 2,
                payload: vec![],
            })
            .collect();
        assert_eq!(net.send_batch(frames), 4, "fabric accepted every frame");
        assert_eq!(net.inbound_drops(), 6);
    }

    #[test]
    fn tcp_bounded_queue_drops_overflow_and_counts() {
        let a = TcpLink::bind("127.0.0.1:0").unwrap();
        let b = TcpLink::bind_with_capacity("127.0.0.1:0", Some(2)).unwrap();
        a.add_route(2, b.local_addr());
        for i in 0..20u8 {
            a.send(Frame {
                src: 1,
                dst: 2,
                payload: vec![i],
            })
            .unwrap();
        }
        // Reader-side drops are asynchronous; wait for the queue+counter to
        // account for every frame.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while (b.incoming().len() as u64) + b.inbound_drops() < 20 {
            assert!(std::time::Instant::now() < deadline, "frames unaccounted");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(b.inbound_drops() >= 18, "drops={}", b.inbound_drops());
        assert_eq!(b.incoming().try_recv().unwrap().payload, vec![0]);
    }

    #[test]
    fn tcp_roundtrip_over_loopback() {
        let a = TcpLink::bind("127.0.0.1:0").unwrap();
        let b = TcpLink::bind("127.0.0.1:0").unwrap();
        a.add_route(200, b.local_addr());
        b.add_route(100, a.local_addr());

        a.send(Frame {
            src: 100,
            dst: 200,
            payload: b"ping".to_vec(),
        })
        .unwrap();
        let frame = b.incoming().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(frame.payload, b"ping");

        b.send(Frame {
            src: 200,
            dst: 100,
            payload: b"pong".to_vec(),
        })
        .unwrap();
        let frame = a.incoming().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(frame.payload, b"pong");
    }

    #[test]
    fn tcp_many_frames_preserve_order_per_connection() {
        let a = TcpLink::bind("127.0.0.1:0").unwrap();
        let b = TcpLink::bind("127.0.0.1:0").unwrap();
        a.add_route(2, b.local_addr());
        for i in 0..100u32 {
            a.send(Frame {
                src: 1,
                dst: 2,
                payload: i.to_be_bytes().to_vec(),
            })
            .unwrap();
        }
        for i in 0..100u32 {
            let frame = b.incoming().recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(frame.payload, i.to_be_bytes().to_vec());
        }
    }

    #[test]
    fn tcp_send_to_closed_peer_errors_then_reconnect_succeeds() {
        let a = TcpLink::bind("127.0.0.1:0").unwrap();
        let b = TcpLink::bind("127.0.0.1:0").unwrap();
        a.add_route(2, b.local_addr());
        a.send(Frame {
            src: 1,
            dst: 2,
            payload: b"pre".to_vec(),
        })
        .unwrap();
        assert_eq!(
            b.incoming()
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .payload,
            b"pre".to_vec()
        );

        // Peer goes away entirely: connections severed, listener closed.
        b.close();
        // TCP buffering may absorb a few writes before the reset surfaces;
        // the send must eventually return an error — never panic or hang.
        let mut saw_err = false;
        for _ in 0..400 {
            if a.send(Frame {
                src: 1,
                dst: 2,
                payload: b"lost".to_vec(),
            })
            .is_err()
            {
                saw_err = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(saw_err, "send to a closed peer must surface an RpcError");

        // Failover: re-point the flat id at a live replacement host; the
        // next send redials and delivery resumes.
        let b2 = TcpLink::bind("127.0.0.1:0").unwrap();
        a.add_route(2, b2.local_addr());
        a.send(Frame {
            src: 1,
            dst: 2,
            payload: b"post".to_vec(),
        })
        .unwrap();
        assert_eq!(
            b2.incoming()
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .payload,
            b"post".to_vec()
        );
    }

    #[test]
    fn inproc_send_batch_counts_per_frame() {
        let net = InProcNetwork::new();
        let rx = net.attach(7);
        let frames: Vec<Frame> = (0..5u64)
            .map(|i| Frame {
                src: 1,
                dst: if i == 2 { 99 } else { 7 },
                payload: vec![i as u8],
            })
            .collect();
        assert_eq!(net.send_batch(frames), 4);
        let got: Vec<u8> = (0..4).map(|_| rx.try_recv().unwrap().payload[0]).collect();
        assert_eq!(got, vec![0, 1, 3, 4], "order preserved, dead dst skipped");
    }

    #[test]
    fn tcp_send_batch_vectored_delivers_in_order() {
        let a = TcpLink::bind("127.0.0.1:0").unwrap();
        let b = TcpLink::bind("127.0.0.1:0").unwrap();
        let c = TcpLink::bind("127.0.0.1:0").unwrap();
        a.add_route(2, b.local_addr());
        a.add_route(3, c.local_addr());
        // Interleaved destinations, including a large payload so the group
        // write exercises the short-write path on some platforms.
        let mut frames = Vec::new();
        for i in 0..50u32 {
            frames.push(Frame {
                src: 1,
                dst: 2 + (i % 2) as u64,
                payload: if i == 10 {
                    vec![7u8; 256 * 1024]
                } else {
                    i.to_be_bytes().to_vec()
                },
            });
        }
        assert_eq!(a.send_batch(frames), 50);
        let mut to_b = Vec::new();
        for _ in 0..25 {
            to_b.push(b.incoming().recv_timeout(Duration::from_secs(5)).unwrap());
        }
        let mut to_c = Vec::new();
        for _ in 0..25 {
            to_c.push(c.incoming().recv_timeout(Duration::from_secs(5)).unwrap());
        }
        for (k, f) in to_b.iter().enumerate() {
            let i = 2 * k as u32;
            if i == 10 {
                assert_eq!(f.payload.len(), 256 * 1024);
            } else {
                assert_eq!(f.payload, i.to_be_bytes().to_vec());
            }
        }
        for (k, f) in to_c.iter().enumerate() {
            let i = 2 * k as u32 + 1;
            assert_eq!(f.payload, i.to_be_bytes().to_vec());
        }
    }

    #[test]
    fn tcp_send_batch_dead_peer_only_loses_its_group() {
        let a = TcpLink::bind("127.0.0.1:0").unwrap();
        let b = TcpLink::bind("127.0.0.1:0").unwrap();
        a.add_route(2, b.local_addr());
        // Route 3 to a port nothing listens on.
        let dead = TcpLink::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr();
        dead.close();
        std::thread::sleep(Duration::from_millis(50));
        a.add_route(3, dead_addr);

        let frames: Vec<Frame> = (0..6u64)
            .map(|i| Frame {
                src: 1,
                dst: 2 + (i % 2),
                payload: vec![i as u8],
            })
            .collect();
        let sent = a.send_batch(frames);
        assert!(sent >= 3, "live peer's frames must survive, sent={sent}");
        for _ in 0..3 {
            let f = b.incoming().recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(f.payload[0] % 2, 0);
        }
    }

    proptest::proptest! {
        /// `send_batch` is a faster loop of `send`, nothing else: twin
        /// fabrics, one fed each way, agree on every count and every queue.
        #[test]
        fn inproc_send_batch_matches_a_loop_of_send(
            batches in proptest::collection::vec(
                (proptest::collection::vec(1u64..=5, 0..40), 0usize..4),
                1..6,
            )
        ) {
            // Endpoints 1 to 3 are live (unbounded, room for three, room for
            // one), 4 is attached but its receiver is gone, 5 never attached.
            let fabric = || {
                let net = InProcNetwork::new();
                let inboxes = [net.attach(1), net.attach_bounded(2, 3), net.attach_bounded(3, 1)];
                drop(net.attach(4));
                (net, inboxes)
            };
            let (batched, batched_inboxes) = fabric();
            let (looped, looped_inboxes) = fabric();
            let both = || batched_inboxes.iter().zip(&looped_inboxes);
            let mut seq = 0u64;
            for (dsts, drain) in batches {
                let frames: Vec<Frame> = dsts
                    .iter()
                    .map(|&dst| {
                        seq += 1;
                        Frame { src: seq, dst, payload: Vec::new() }
                    })
                    .collect();
                let accepted_one_by_one =
                    frames.iter().filter(|f| looped.send((*f).clone()).is_ok()).count();
                proptest::prop_assert_eq!(batched.send_batch(frames), accepted_one_by_one);
                proptest::prop_assert_eq!(batched.inbound_drops(), looped.inbound_drops());
                // Draining a few between batches leaves bounded inboxes
                // partly full for the next one.
                for (b, l) in both() {
                    proptest::prop_assert_eq!(b.len(), l.len());
                    for _ in 0..drain {
                        proptest::prop_assert_eq!(b.try_recv().ok(), l.try_recv().ok());
                    }
                }
            }
            for (b, l) in both() {
                let rest = |rx: &Receiver<Frame>| -> Vec<u64> {
                    std::iter::from_fn(|| rx.try_recv().ok()).map(|f| f.src).collect()
                };
                proptest::prop_assert_eq!(rest(b), rest(l));
            }
        }
    }

    /// A frame as a peer's socket carries it.
    fn wire_bytes(src: u64, dst: u64, payload: &[u8]) -> Vec<u8> {
        let mut bytes = ((MIN_FRAME_LEN + payload.len()) as u32)
            .to_be_bytes()
            .to_vec();
        bytes.extend_from_slice(&src.to_be_bytes());
        bytes.extend_from_slice(&dst.to_be_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    fn recv(link: &TcpLink) -> Frame {
        link.incoming()
            .recv_timeout(Duration::from_secs(5))
            .expect("frame arrives")
    }

    /// Polls a counter another thread bumps.
    fn wait_for(what: &str, done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn tcp_reader_reassembles_a_stream_written_one_byte_at_a_time() {
        let link = TcpLink::bind("127.0.0.1:0").unwrap();
        let mut raw = TcpStream::connect(link.local_addr()).unwrap();
        raw.set_nodelay(true).unwrap();
        let payloads: [&[u8]; 3] = [b"first", b"", b"third and last"];
        for (i, payload) in payloads.iter().enumerate() {
            for byte in wire_bytes(10 + i as u64, 7, payload) {
                raw.write_all(&[byte]).unwrap();
            }
        }
        for (i, payload) in payloads.iter().enumerate() {
            let frame = recv(&link);
            assert_eq!((frame.src, frame.dst), (10 + i as u64, 7));
            assert_eq!(&frame.payload, payload);
        }
        let stats = link.stats();
        assert_eq!(stats.frames_in, 3);
        assert_eq!(stats.bytes_in, (3 * HEADER_LEN + 5 + 14) as u64);
    }

    #[test]
    fn tcp_reader_takes_a_frame_larger_than_its_buffer() {
        let link = TcpLink::bind("127.0.0.1:0").unwrap();
        let mut raw = TcpStream::connect(link.local_addr()).unwrap();
        let big: Vec<u8> = (0..3 * READ_BUF + 7).map(|i| (i % 251) as u8).collect();
        // Small frames on both sides, all in one write: the big one starts
        // and ends in the middle of a buffer.
        let mut stream = wire_bytes(1, 2, b"before");
        stream.extend(wire_bytes(1, 2, &big));
        stream.extend(wire_bytes(1, 2, b"after"));
        raw.write_all(&stream).unwrap();
        assert_eq!(recv(&link).payload, b"before");
        assert_eq!(recv(&link).payload, big);
        assert_eq!(recv(&link).payload, b"after");
    }

    #[test]
    fn tcp_thousand_small_frames_arrive_in_order_in_few_reads() {
        let a = TcpLink::bind("127.0.0.1:0").unwrap();
        let b = TcpLink::bind("127.0.0.1:0").unwrap();
        a.add_route(2, b.local_addr());
        let mut next = 0u32;
        // 256 frames a batch, the benchmark's chunk.
        for batch in [256, 256, 256, 232] {
            let frames: Vec<Frame> = (next..next + batch)
                .map(|i| Frame {
                    src: 1,
                    dst: 2,
                    payload: i.to_be_bytes().to_vec(),
                })
                .collect();
            assert_eq!(a.send_batch(frames), batch as usize);
            next += batch;
        }
        for i in 0..1000u32 {
            assert_eq!(recv(&b).payload, i.to_be_bytes());
        }
        let (out, inn) = (a.stats(), b.stats());
        assert_eq!((out.frames_out, inn.frames_in), (1000, 1000));
        assert_eq!(out.writes_out, 4, "one write per batch this small");
        assert!(
            inn.reads_in < inn.frames_in / 4,
            "reads {} frames {}",
            inn.reads_in,
            inn.frames_in
        );
        assert_eq!(inn.bytes_in, 1000 * (HEADER_LEN as u64 + 4));
        assert_eq!((inn.inbound_drops, inn.malformed_frames), (0, 0));
    }

    #[test]
    fn tcp_bounded_inbox_counts_drops_per_frame_inside_a_burst() {
        let a = TcpLink::bind("127.0.0.1:0").unwrap();
        let b = TcpLink::bind_with_capacity("127.0.0.1:0", Some(4)).unwrap();
        a.add_route(2, b.local_addr());
        let frames: Vec<Frame> = (0..100u8)
            .map(|i| Frame {
                src: 1,
                dst: 2,
                payload: vec![i],
            })
            .collect();
        assert_eq!(a.send_batch(frames), 100, "the wire took them all");
        // Nothing drains the inbox, so whatever the bursts' sizes the first
        // four frames fill it and every later one is a drop.
        wait_for("every frame accounted for", || {
            b.incoming().len() as u64 + b.inbound_drops() == 100
        });
        assert_eq!(b.stats().frames_in, 100);
        assert_eq!(b.inbound_drops(), 96);
        for i in 0..4u8 {
            assert_eq!(b.incoming().try_recv().unwrap().payload, vec![i]);
        }
    }

    #[test]
    fn tcp_hostile_length_closes_that_connection_only() {
        let link = TcpLink::bind("127.0.0.1:0").unwrap();
        // Announces 4 GiB, behind a good frame in the same segment; then a
        // length too short to hold the addresses.
        for (n, bad_len) in [(1, [0xffu8; 4]), (2, [0, 0, 0, 15])] {
            let mut raw = TcpStream::connect(link.local_addr()).unwrap();
            let mut stream = wire_bytes(1, 2, b"good");
            stream.extend_from_slice(&bad_len);
            raw.write_all(&stream).unwrap();
            assert_eq!(recv(&link).payload, b"good", "frames before it count");
            wait_for("length refused", || link.malformed_frames() == n);
            raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let closed = matches!(raw.read(&mut [0u8; 1]), Ok(0) | Err(_));
            assert!(closed, "the link hung up");
        }
        assert!((MAX_FRAME_LEN as u64) < u32::MAX as u64);

        // The link still serves: a fresh connection delivers, and so does
        // a frame of exactly the limit.
        let peer = TcpLink::bind("127.0.0.1:0").unwrap();
        peer.add_route(2, link.local_addr());
        let largest = vec![0xabu8; MAX_FRAME_LEN - MIN_FRAME_LEN];
        peer.send_batch(vec![
            Frame {
                src: 1,
                dst: 2,
                payload: b"still here".to_vec(),
            },
            Frame {
                src: 1,
                dst: 2,
                payload: largest.clone(),
            },
        ]);
        assert_eq!(recv(&link).payload, b"still here");
        assert_eq!(recv(&link).payload, largest);
        assert_eq!(link.stats().malformed_frames, 2);
    }

    #[test]
    fn tcp_refuses_to_send_a_frame_over_the_limit() {
        let a = TcpLink::bind("127.0.0.1:0").unwrap();
        let b = TcpLink::bind("127.0.0.1:0").unwrap();
        a.add_route(2, b.local_addr());
        let frame = |len: usize| Frame {
            src: 1,
            dst: 2,
            payload: vec![0; len],
        };
        let too_long = MAX_FRAME_LEN - MIN_FRAME_LEN + 1;
        assert!(matches!(a.send(frame(too_long)), Err(RpcError::Io(_))));
        assert_eq!(a.send_batch(vec![frame(1), frame(too_long), frame(2)]), 2);
        assert_eq!(recv(&b).payload.len(), 1);
        assert_eq!(recv(&b).payload.len(), 2);
        assert_eq!(b.malformed_frames(), 0);
    }

    #[test]
    fn tcp_concurrent_senders_do_not_interleave() {
        const SENDERS: u8 = 4;
        const BATCHES: u32 = 3;
        const PER_BATCH: u32 = 4;
        const LEN: usize = 256 * 1024;
        let a = TcpLink::bind("127.0.0.1:0").unwrap();
        let b = TcpLink::bind("127.0.0.1:0").unwrap();
        a.add_route(2, b.local_addr());
        // 12 MiB through one socket, far more than it buffers: every sender
        // sees short writes while the others wait to write.
        let start = std::sync::Barrier::new(SENDERS as usize);
        std::thread::scope(|scope| {
            for sender in 0..SENDERS {
                let (a, start) = (&a, &start);
                scope.spawn(move || {
                    start.wait();
                    for batch in 0..BATCHES {
                        let frames: Vec<Frame> = (0..PER_BATCH)
                            .map(|i| {
                                // Filled with the sender's id, headed by a
                                // per-sender sequence number.
                                let mut payload = vec![sender; LEN];
                                let seq = batch * PER_BATCH + i;
                                payload[..4].copy_from_slice(&seq.to_be_bytes());
                                Frame {
                                    src: u64::from(sender),
                                    dst: 2,
                                    payload,
                                }
                            })
                            .collect();
                        assert_eq!(a.send_batch(frames), PER_BATCH as usize);
                    }
                });
            }
            let mut next_seq = [0u32; SENDERS as usize];
            for _ in 0..u32::from(SENDERS) * BATCHES * PER_BATCH {
                let frame = recv(&b);
                let sender = frame.src as usize;
                assert!(sender < SENDERS as usize, "src {sender}");
                assert_eq!(frame.payload.len(), LEN);
                let seq = u32::from_be_bytes(frame.payload[..4].try_into().unwrap());
                assert_eq!(seq, next_seq[sender], "sender {sender} out of order");
                next_seq[sender] += 1;
                assert!(
                    frame.payload[4..].iter().all(|&byte| byte == sender as u8),
                    "sender {sender} frame {seq} carries another sender's bytes"
                );
            }
        });
        assert_eq!(b.malformed_frames(), 0);
    }

    #[test]
    fn tcp_unknown_route_errors() {
        let a = TcpLink::bind("127.0.0.1:0").unwrap();
        assert!(matches!(
            a.send(Frame {
                src: 1,
                dst: 42,
                payload: vec![]
            }),
            Err(RpcError::UnknownEndpoint(42))
        ));
    }
}
