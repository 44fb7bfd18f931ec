//! Non-blocking reactor transport: the caller writes what the socket takes
//! without blocking; one event loop per hive owns connects, reads and the
//! backlog.
//!
//! * **Sends write inline.** [`Transport::send_all`] (and `send`, a batch
//!   of one) encodes the frames outside any lock, pushes them onto their
//!   peers' [`SendRing`]s under one lock, and writes each touched ring down
//!   its established connection right away with `writev`-style vectored
//!   writes of up to [`crate::buffer::FLUSH_BATCH`] frames — app envelopes,
//!   channel acks and Raft traffic mixed. The sockets are non-blocking, so a
//!   slow peer cannot stall the caller: what the kernel does not take stays
//!   queued, and only then — or on a write error, or with no connection yet
//!   — is the loop poked through its wake pipe.
//! * **The loop owns the rest.** A single `poll(2)` loop accepts, reads
//!   every inbound connection, settles non-blocking connects, flushes the
//!   backlog a socket pushed back on (on `POLLOUT`), and replays a ring
//!   after a reconnect. An established stream lives in its peer's shared
//!   `PeerOut`, so each socket has exactly one handle, written by whoever
//!   holds the lock and closed only by the loop (or with the peer's entry).
//! * **Decoding is streaming.** Each connection reads into one reusable
//!   [`FrameDecoder`] buffer and slices complete frames out, whatever the
//!   TCP segmentation.
//!
//! The [`Transport`] semantics — [`TransportCounters`] accounting,
//! dead-peer backoff schedule, deferred-queue reconnect-flush ordering,
//! eviction priorities and `connect_peer`/`disconnect_peer` behaviour — are
//! pinned by the conformance suite (`tests/conformance.rs`), which runs the
//! reactor and the in-memory fabric through one harness.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use beehive_core::events::{EventJournal, EventKind};
use beehive_core::sync::Mutex;
use beehive_core::transport::{Frame, Transport, TransportCounters};
use beehive_core::HiveId;

use crate::buffer::{ConnectBackoff, EncodedFrame, FlushOutcome, SendRing, DEFERRED_CAP};
use crate::frame::{byte_to_kind, encode_frame, kind_to_byte, FrameDecoder, KIND_HANDSHAKE};
use crate::sys;

/// Wakeup callback invoked when a frame lands in the inbox (set after bind
/// by `Hive::run` via [`Transport::set_waker`]).
type SharedWaker = Arc<Mutex<Option<Arc<dyn Fn() + Send + Sync>>>>;

/// The hive's flight-recorder journal (set after bind via
/// [`Transport::set_events`]).
type SharedEvents = Arc<Mutex<Option<Arc<EventJournal>>>>;

/// How long a non-blocking connect may sit half-open before it is declared
/// failed.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Default poll timeout when nothing is scheduled: a liveness backstop, not
/// a latency floor (the wake pipe interrupts it whenever a sender leaves
/// work behind).
const IDLE_POLL_MS: i32 = 500;

/// Records a peer lifecycle event if a journal is wired.
fn emit(events: &SharedEvents, kind: EventKind, peer: HiveId, detail: &str) {
    if let Some(journal) = events.lock().clone() {
        journal.record_full(kind, 0, "", None, Some(peer), detail);
    }
}

/// Outbound state for one peer, shared between the hive-facing API and the
/// reactor thread.
#[derive(Default)]
struct PeerOut {
    /// Encoded frames awaiting the wire; doubles as the deferred queue
    /// while the peer is down (bounded at [`DEFERRED_CAP`]).
    ring: SendRing,
    /// How many frames at the front of `ring` have already been counted
    /// `deferred` — so a later connect failure only counts the new tail
    /// (one count per frame).
    counted: usize,
    /// Dead-peer reconnect backoff (None = healthy or never attempted).
    backoff: Option<ConnectBackoff>,
    /// The established outbound connection, if any: the socket's only
    /// handle. Whoever holds the `outs` lock may write to it — the sender
    /// what the socket takes without blocking, the reactor the backlog.
    /// Only the reactor installs it, and only the reactor (or the removal
    /// of the whole entry by `disconnect_peer`) closes it.
    stream: Option<TcpStream>,
}

impl PeerOut {
    /// Writes the ring down the established connection until it drains or
    /// the socket pushes back, counting every frame handed to the kernel.
    /// `None` when there is no connection.
    fn flush(&mut self, counters: &TransportCounters) -> Option<std::io::Result<FlushOutcome>> {
        let PeerOut {
            ring,
            counted,
            stream,
            ..
        } = self;
        let stream = stream.as_mut()?;
        Some(ring.flush(stream, |kind, acct_len| {
            counters.record_out(kind, acct_len);
            *counted = counted.saturating_sub(1);
        }))
    }
}

/// State shared between [`ReactorTransport`] (the hive-facing API) and the
/// reactor thread.
struct Shared {
    id: HiveId,
    peers: Mutex<HashMap<HiveId, SocketAddr>>,
    outs: Mutex<HashMap<HiveId, PeerOut>>,
    /// Peers whose in-flight connect the reactor must abandon
    /// (`disconnect_peer` ran on the hive side).
    closing: Mutex<Vec<HiveId>>,
    counters: Arc<TransportCounters>,
    waker: SharedWaker,
    events: SharedEvents,
    shutdown: AtomicBool,
    /// Write end of the wake pipe; `wake_pending` keeps it to at most one
    /// in-flight byte so waking is O(1) whatever the send rate.
    wake_tx: Mutex<UnixStream>,
    wake_pending: AtomicBool,
}

impl Shared {
    /// Pokes the reactor loop out of `poll`.
    fn wake(&self) {
        if !self.wake_pending.swap(true, Ordering::AcqRel) {
            let _ = self.wake_tx.lock().write(&[1]);
        }
    }

    /// Queues one frame on `to`'s ring: evicts by priority when a peer
    /// without a connection has a full ring, and counts the frame deferred
    /// when it lands inside an open backoff window.
    fn enqueue(&self, po: &mut PeerOut, to: HiveId, frame: EncodedFrame) {
        if po.stream.is_none() && po.ring.len() >= DEFERRED_CAP {
            if let Some((idx, kind)) = po.ring.evict_lowest() {
                if idx < po.counted {
                    po.counted -= 1;
                }
                self.counters.record_deferred_evicted();
                emit(
                    &self.events,
                    EventKind::DeferredEvict,
                    to,
                    &format!(
                        "deferred queue full ({DEFERRED_CAP}); evicted oldest {} frame",
                        kind.label()
                    ),
                );
            }
        }
        po.ring.push(frame);
        // Inside an open backoff window a frame is deferred the moment it is
        // queued, without probing the peer; outside one it only becomes
        // deferred if the connect the reactor is about to attempt fails.
        if po.stream.is_none() && po.backoff.is_some_and(|b| b.active()) {
            po.counted += 1;
            self.counters.record_deferred();
        }
    }
}

/// An inbound connection owned by the reactor thread.
struct InConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Learned from the handshake; frames before it close the connection.
    peer: Option<HiveId>,
}

/// An outbound connect in flight, owned by the reactor thread until it
/// settles; an established stream moves into its peer's [`PeerOut`].
struct Connecting {
    stream: TcpStream,
    deadline: Instant,
}

/// Non-blocking reactor [`Transport`]. See the module docs.
pub struct ReactorTransport {
    shared: Arc<Shared>,
    inbox_rx: Receiver<(HiveId, Frame)>,
    local_addr: SocketAddr,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ReactorTransport {
    /// Binds `listen` for hive `id` and starts the reactor thread. The peer
    /// address book must contain every other hive in the cluster (more can
    /// be added later via [`Transport::connect_peer`]).
    pub fn bind(
        id: HiveId,
        listen: SocketAddr,
        peers: HashMap<HiveId, SocketAddr>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        let (inbox_tx, inbox_rx) = channel();

        let shared = Arc::new(Shared {
            id,
            peers: Mutex::new(peers),
            outs: Mutex::new(HashMap::new()),
            closing: Mutex::new(Vec::new()),
            counters: Arc::new(TransportCounters::new()),
            waker: Arc::new(Mutex::new(None)),
            events: Arc::new(Mutex::new(None)),
            shutdown: AtomicBool::new(false),
            wake_tx: Mutex::new(wake_tx),
            wake_pending: AtomicBool::new(false),
        });

        let loop_shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name(format!("bh-reactor-{}", id.0))
            .spawn(move || reactor_loop(loop_shared, listener, wake_rx, inbox_tx))
            .expect("spawn reactor thread");

        Ok(ReactorTransport {
            shared,
            inbox_rx,
            local_addr,
            handle: Some(handle),
        })
    }

    /// Per-[`FrameKind`](beehive_core::transport::FrameKind) traffic
    /// counters; snapshot them for metric exposition.
    pub fn counters(&self) -> Arc<TransportCounters> {
        self.shared.counters.clone()
    }

    /// The address this transport actually listens on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Adds (or updates) a peer's address after binding — lets clusters
    /// bind everyone on port 0 first and exchange the resulting addresses.
    pub fn add_peer(&mut self, id: HiveId, addr: SocketAddr) {
        self.shared.peers.lock().insert(id, addr);
    }
}

impl Transport for ReactorTransport {
    fn local(&self) -> HiveId {
        self.shared.id
    }

    fn send(&self, to: HiveId, frame: Frame) {
        self.send_all(vec![(to, frame)]);
    }

    /// Queues the batch, then writes each touched peer's ring down its
    /// established connection on the calling thread — non-blocking, up to
    /// [`crate::buffer::FLUSH_BATCH`] frames per `writev`. The reactor is
    /// woken only for what the caller could not finish: a socket that
    /// pushed back, a write error, or a peer with no connection yet.
    fn send_all(&self, frames: Vec<(HiveId, Frame)>) {
        let me = self.shared.id;
        // Encode outside the lock: the critical section is queue pushes and
        // the writes the sockets take without blocking.
        let encoded: Vec<(HiveId, EncodedFrame)> = frames
            .into_iter()
            .filter(|(to, _)| *to != me) // hives never send to themselves over TCP
            .map(|(to, frame)| {
                let encoded = EncodedFrame {
                    kind: Some(frame.kind),
                    bytes: encode_frame(me, kind_to_byte(frame.kind), &frame.bytes),
                    acct_len: frame.wire_len(),
                };
                (to, encoded)
            })
            .collect();
        if encoded.is_empty() {
            return;
        }
        let mut touched: Vec<HiveId> = Vec::new();
        let mut wake = false;
        {
            let mut outs = self.shared.outs.lock();
            for (to, frame) in encoded {
                self.shared.enqueue(outs.entry(to).or_default(), to, frame);
                if !touched.contains(&to) {
                    touched.push(to);
                }
            }
            for to in touched {
                let po = outs.get_mut(&to).expect("queued above");
                wake |= !matches!(
                    po.flush(&self.shared.counters),
                    Some(Ok(FlushOutcome::Drained))
                );
            }
        }
        if wake {
            self.shared.wake();
        }
    }

    fn try_recv(&self) -> Option<(HiveId, Frame)> {
        self.inbox_rx.try_recv().ok()
    }

    fn peers(&self) -> Vec<HiveId> {
        self.shared.peers.lock().keys().copied().collect()
    }

    fn connect_peer(&self, peer: HiveId, addr: &str) {
        let Ok(sock) = addr.parse::<SocketAddr>() else {
            emit(
                &self.shared.events,
                EventKind::PeerDisconnect,
                peer,
                &format!("join announced an unparseable address {addr:?}; peer not added"),
            );
            return;
        };
        self.shared.peers.lock().insert(peer, sock);
        // A joining peer is fresh — don't make it serve out a backoff
        // window earned by whoever held this id before.
        if let Some(po) = self.shared.outs.lock().get_mut(&peer) {
            po.backoff = None;
        }
        emit(
            &self.shared.events,
            EventKind::PeerConnect,
            peer,
            &format!("peer added to the address book at {sock}"),
        );
        self.shared.wake();
    }

    fn disconnect_peer(&self, peer: HiveId) -> Vec<Frame> {
        self.shared.peers.lock().remove(&peer);
        let held: Vec<Frame> = self
            .shared
            .outs
            .lock()
            .remove(&peer)
            .map(|mut po| {
                po.ring
                    .drain_frames()
                    .into_iter()
                    .filter_map(EncodedFrame::into_frame)
                    .collect()
            })
            .unwrap_or_default();
        self.shared.closing.lock().push(peer);
        self.shared.wake();
        emit(
            &self.shared.events,
            EventKind::PeerDisconnect,
            peer,
            &format!(
                "peer removed from the address book; {} deferred frame(s) surrendered",
                held.len()
            ),
        );
        held
    }

    fn set_waker(&mut self, waker: Arc<dyn Fn() + Send + Sync>) {
        *self.shared.waker.lock() = Some(waker);
    }

    fn set_events(&mut self, events: Arc<EventJournal>) {
        *self.shared.events.lock() = Some(events);
    }
}

impl Drop for ReactorTransport {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Starts a non-blocking connect to `addr`; `Ok` means in flight (or
/// already established — `SO_ERROR` settles it either way on `POLLOUT`).
fn start_connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let (domain, storage, len) = sockaddr_of(addr);
    let fd = unsafe {
        sys::socket(
            domain,
            sys::SOCK_STREAM | sys::SOCK_NONBLOCK | sys::SOCK_CLOEXEC,
            0,
        )
    };
    if fd < 0 {
        return Err(std::io::Error::last_os_error());
    }
    let rc = unsafe { sys::connect(fd, &storage as *const _ as *const sys::sockaddr, len) };
    if rc != 0 {
        let err = std::io::Error::last_os_error();
        if err.raw_os_error() != Some(sys::EINPROGRESS) {
            unsafe { sys::close(fd) };
            return Err(err);
        }
    }
    Ok(unsafe { TcpStream::from_raw_fd(fd) })
}

/// Converts a [`SocketAddr`] into the raw sockaddr `connect(2)` wants.
fn sockaddr_of(addr: SocketAddr) -> (sys::c_int, sys::sockaddr_storage, sys::socklen_t) {
    let mut storage: sys::sockaddr_storage = unsafe { std::mem::zeroed() };
    match addr {
        SocketAddr::V4(v4) => {
            let sin = sys::sockaddr_in {
                sin_family: sys::AF_INET as sys::sa_family_t,
                sin_port: v4.port().to_be(),
                sin_addr: u32::from_ne_bytes(v4.ip().octets()),
                sin_zero: [0; 8],
            };
            unsafe { std::ptr::write(&mut storage as *mut _ as *mut sys::sockaddr_in, sin) };
            (
                sys::AF_INET,
                storage,
                std::mem::size_of::<sys::sockaddr_in>() as sys::socklen_t,
            )
        }
        SocketAddr::V6(v6) => {
            let sin6 = sys::sockaddr_in6 {
                sin6_family: sys::AF_INET6 as sys::sa_family_t,
                sin6_port: v6.port().to_be(),
                sin6_flowinfo: v6.flowinfo(),
                sin6_addr: v6.ip().octets(),
                sin6_scope_id: v6.scope_id(),
            };
            unsafe { std::ptr::write(&mut storage as *mut _ as *mut sys::sockaddr_in6, sin6) };
            (
                sys::AF_INET6,
                storage,
                std::mem::size_of::<sys::sockaddr_in6>() as sys::socklen_t,
            )
        }
    }
}

/// Reads and clears a socket's pending error (the `SO_ERROR` half of the
/// non-blocking connect protocol).
fn take_socket_error(fd: RawFd) -> std::io::Result<()> {
    let mut err: sys::c_int = 0;
    let mut len = std::mem::size_of::<sys::c_int>() as sys::socklen_t;
    let rc = unsafe {
        sys::getsockopt(
            fd,
            sys::SOL_SOCKET,
            sys::SO_ERROR,
            &mut err as *mut _ as *mut sys::c_void,
            &mut len,
        )
    };
    if rc != 0 {
        return Err(std::io::Error::last_os_error());
    }
    if err != 0 {
        return Err(std::io::Error::from_raw_os_error(err));
    }
    Ok(())
}

/// Bound on reads drained from one connection per loop iteration so a
/// firehose peer cannot starve the others.
const READS_PER_CONN: usize = 16;

/// What the reactor decided to do with one connection after processing it.
enum ConnFate {
    Keep,
    Close,
}

/// The event loop: accepts, reads and connects every peer socket of one
/// hive, and flushes whatever the senders left queued.
fn reactor_loop(
    shared: Arc<Shared>,
    listener: TcpListener,
    mut wake_rx: UnixStream,
    inbox_tx: Sender<(HiveId, Frame)>,
) {
    let mut in_conns: Vec<InConn> = Vec::new();
    let mut connecting: HashMap<HiveId, Connecting> = HashMap::new();

    while !shared.shutdown.load(Ordering::SeqCst) {
        // Abandon connects toward peers the hive disconnected.
        for peer in shared.closing.lock().drain(..) {
            connecting.remove(&peer);
        }

        // Start connects for peers with queued frames and no connection,
        // unless an open backoff window says not to bother yet.
        start_pending_connects(&shared, &mut connecting);

        // Backlog flush: whatever a sender left queued when its socket
        // pushed back, or a reconnect left to replay.
        flush_established(&shared);

        let timeout = poll_timeout(&shared, &connecting);
        let mut pollfds: Vec<sys::pollfd> =
            Vec::with_capacity(2 + in_conns.len() + connecting.len());
        pollfds.push(pollfd(wake_rx.as_raw_fd(), sys::POLLIN));
        pollfds.push(pollfd(listener.as_raw_fd(), sys::POLLIN));
        for c in &in_conns {
            pollfds.push(pollfd(c.stream.as_raw_fd(), sys::POLLIN));
        }
        let connect_order: Vec<HiveId> = connecting.keys().copied().collect();
        for peer in &connect_order {
            let fd = connecting[peer].stream.as_raw_fd();
            pollfds.push(pollfd(fd, sys::POLLOUT | sys::POLLIN));
        }
        // Established connections: POLLIN detects EOF / reset (each
        // direction dials its own connection, so nothing else arrives on
        // them), POLLOUT only while a backlog waits.
        let mut established: Vec<HiveId> = Vec::new();
        for (peer, po) in shared.outs.lock().iter() {
            if let Some(stream) = &po.stream {
                let mut ev = sys::POLLIN;
                if !po.ring.is_empty() {
                    ev |= sys::POLLOUT;
                }
                pollfds.push(pollfd(stream.as_raw_fd(), ev));
                established.push(*peer);
            }
        }

        let rc = unsafe { sys::poll(pollfds.as_mut_ptr(), pollfds.len() as sys::nfds_t, timeout) };
        if rc < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                continue;
            }
            break; // poll itself failing is unrecoverable
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }

        // Wake pipe: drain *before* clearing the pending flag. A sender
        // whose wake was elided (flag already set) must have set the flag
        // before this store, i.e. after pushing its frame — and the
        // pre-poll phases below run after the store, so the frame is seen.
        // The reverse order could drain a byte whose flag outlives it and
        // sleep through the next send.
        if pollfds[0].revents != 0 {
            let mut sink = [0u8; 16];
            while matches!(wake_rx.read(&mut sink), Ok(n) if n > 0) {}
            shared.wake_pending.store(false, Ordering::Release);
        }

        // Accept every waiting inbound connection. `pollfds` was built before
        // these existed: only the first `polled` inbound connections have an
        // entry in it (the new ones are polled next iteration), and the
        // outbound entries start right after those.
        let polled = in_conns.len();
        if pollfds[1].revents != 0 {
            while let Ok((stream, _)) = listener.accept() {
                stream.set_nonblocking(true).ok();
                stream.set_nodelay(true).ok();
                in_conns.push(InConn {
                    stream,
                    decoder: FrameDecoder::new(),
                    peer: None,
                });
            }
        }

        // Drain readable inbound connections.
        let mut delivered = false;
        let mut idx = 0;
        while idx < polled {
            let revents = pollfds[2 + idx].revents;
            let fate = if revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0 {
                read_inbound(&shared, &mut in_conns[idx], &inbox_tx, &mut delivered)
            } else {
                ConnFate::Keep
            };
            match fate {
                ConnFate::Keep => idx += 1,
                ConnFate::Close => {
                    // swap_remove reorders the tail, but pollfds is indexed
                    // by the *old* order — rebuild next iteration, and only
                    // process the swapped-in element then too.
                    in_conns.swap_remove(idx);
                    break;
                }
            }
        }

        // Settle in-flight connects: an established stream moves into its
        // peer's `PeerOut`.
        let connect_base = 2 + polled;
        for (i, peer) in connect_order.iter().enumerate() {
            let revents = pollfds[connect_base + i].revents;
            let Some(conn) = connecting.get(peer) else {
                continue;
            };
            let settled = revents & (sys::POLLOUT | sys::POLLERR | sys::POLLHUP) != 0;
            if settled {
                let conn = connecting.remove(peer).expect("present");
                match take_socket_error(conn.stream.as_raw_fd()) {
                    Ok(()) => on_connect_established(&shared, *peer, conn.stream),
                    Err(_) => on_connect_failed(&shared, *peer),
                }
            } else if Instant::now() >= conn.deadline {
                connecting.remove(peer);
                on_connect_failed(&shared, *peer);
            }
        }

        // Established connections: readable means closed or reset.
        let established_base = connect_base + connect_order.len();
        for (i, peer) in established.iter().enumerate() {
            let revents = pollfds[established_base + i].revents;
            if revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) == 0 {
                continue;
            }
            let mut outs = shared.outs.lock();
            let Some(stream) = outs.get_mut(peer).and_then(|po| po.stream.as_mut()) else {
                continue;
            };
            let mut probe = [0u8; 64];
            let close = match stream.read(&mut probe) {
                Ok(0) => true,
                Ok(_) => false, // stray bytes: ignore
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
                Err(_) => true,
            };
            drop(outs);
            if close {
                on_connect_lost(&shared, *peer);
            }
        }

        // Flush whatever became writable or was enqueued meanwhile.
        flush_established(&shared);

        if delivered {
            if let Some(wake) = shared.waker.lock().clone() {
                wake();
            }
        }
    }
    // Dropping the listener and the connection maps closes the reactor's
    // sockets; established streams close with the last `Shared`.
}

/// Shorthand for a [`sys::pollfd`] entry.
fn pollfd(fd: RawFd, events: sys::c_short) -> sys::pollfd {
    sys::pollfd {
        fd,
        events,
        revents: 0,
    }
}

/// Computes how long the loop may sleep: the nearest backoff expiry of a
/// peer with queued frames, or the nearest connect deadline.
fn poll_timeout(shared: &Shared, connecting: &HashMap<HiveId, Connecting>) -> i32 {
    let now = Instant::now();
    let mut nearest: Option<Duration> = None;
    let mut consider = |d: Duration| {
        nearest = Some(nearest.map_or(d, |n| n.min(d)));
    };
    for conn in connecting.values() {
        consider(conn.deadline.saturating_duration_since(now));
    }
    for (peer, po) in shared.outs.lock().iter() {
        if po.ring.is_empty() || po.stream.is_some() || connecting.contains_key(peer) {
            continue;
        }
        match po.backoff {
            Some(b) if b.active() => consider(b.remaining()),
            _ => consider(Duration::ZERO),
        }
    }
    match nearest {
        Some(d) => (d.as_millis() as i32).clamp(0, IDLE_POLL_MS),
        None => IDLE_POLL_MS,
    }
}

/// Starts non-blocking connects for every peer with queued frames, no
/// connection, and no open backoff window.
fn start_pending_connects(shared: &Arc<Shared>, connecting: &mut HashMap<HiveId, Connecting>) {
    let pending: Vec<HiveId> = shared
        .outs
        .lock()
        .iter()
        .filter(|(peer, po)| {
            !po.ring.is_empty()
                && po.stream.is_none()
                && !connecting.contains_key(peer)
                && !po.backoff.is_some_and(|b| b.active())
        })
        .map(|(peer, _)| *peer)
        .collect();
    for peer in pending {
        let addr = shared.peers.lock().get(&peer).copied();
        let started = addr.and_then(|a| start_connect(a).ok());
        match started {
            Some(stream) => {
                connecting.insert(
                    peer,
                    Connecting {
                        stream,
                        deadline: Instant::now() + CONNECT_TIMEOUT,
                    },
                );
            }
            // No address on file or an immediate connect error: both are
            // connect failures.
            None => on_connect_failed(shared, peer),
        }
    }
}

/// A non-blocking connect settled successfully: reset backoff, queue the
/// handshake ahead of the backlog, and hand the stream to the peer's
/// `PeerOut` (dropped if the peer was disconnected meanwhile).
fn on_connect_established(shared: &Arc<Shared>, peer: HiveId, stream: TcpStream) {
    stream.set_nodelay(true).ok();
    shared.counters.record_connect_success(peer);
    let mut outs = shared.outs.lock();
    if let Some(po) = outs.get_mut(&peer) {
        po.backoff = None;
        po.ring.reset_progress();
        // Identify ourselves before any queued traffic. Unaccounted and
        // never surrendered.
        po.ring.push_front(EncodedFrame {
            kind: None,
            bytes: encode_frame(shared.id, KIND_HANDSHAKE, &[]),
            acct_len: 0,
        });
        po.stream = Some(stream);
    }
    drop(outs);
    emit(
        &shared.events,
        EventKind::PeerConnect,
        peer,
        "outbound connection established",
    );
}

/// A connect attempt failed: bump the backoff window and count every frame
/// in the ring that was not already deferred.
fn on_connect_failed(shared: &Arc<Shared>, peer: HiveId) {
    let mut outs = shared.outs.lock();
    let Some(po) = outs.get_mut(&peer) else {
        return;
    };
    let window_ms = ConnectBackoff::bump(&mut po.backoff, peer);
    let newly_deferred = po.ring.len() - po.counted;
    po.counted = po.ring.len();
    drop(outs);
    shared.counters.record_connect_failure(peer, window_ms);
    for _ in 0..newly_deferred {
        shared.counters.record_deferred();
    }
    emit(
        &shared.events,
        EventKind::PeerDisconnect,
        peer,
        &format!("connect failed; backing off {window_ms}ms"),
    );
}

/// An established outbound connection died: close it and forget
/// partial-write progress so the torn frame retransmits whole on the next
/// connect (no backoff — the peer was just alive, so the reconnect is
/// attempted immediately).
fn on_connect_lost(shared: &Arc<Shared>, peer: HiveId) {
    let mut outs = shared.outs.lock();
    if let Some(po) = outs.get_mut(&peer) {
        po.stream = None;
        po.ring.reset_progress();
    }
    drop(outs);
    emit(
        &shared.events,
        EventKind::PeerDisconnect,
        peer,
        "outbound connection closed (peer went away or write error)",
    );
}

/// Vector-flushes every established outbound connection with queued frames.
fn flush_established(shared: &Arc<Shared>) {
    let mut lost: Vec<HiveId> = Vec::new();
    for (peer, po) in shared.outs.lock().iter_mut() {
        if !po.ring.is_empty() && matches!(po.flush(&shared.counters), Some(Err(_))) {
            lost.push(*peer);
        }
    }
    for peer in lost {
        on_connect_lost(shared, peer);
    }
}

/// Drains one readable inbound connection into the inbox.
fn read_inbound(
    shared: &Arc<Shared>,
    conn: &mut InConn,
    inbox_tx: &Sender<(HiveId, Frame)>,
    delivered: &mut bool,
) -> ConnFate {
    for _ in 0..READS_PER_CONN {
        match conn.decoder.read_from(&mut conn.stream) {
            Ok(0) => {
                if let Some(peer) = conn.peer {
                    emit(
                        &shared.events,
                        EventKind::PeerDisconnect,
                        peer,
                        "inbound connection closed (peer went away or read error)",
                    );
                }
                return ConnFate::Close;
            }
            Ok(_) => loop {
                match conn.decoder.next_frame() {
                    Ok(Some(decoded)) => {
                        if conn.peer.is_none() {
                            // The first frame must be the handshake.
                            if decoded.kind != KIND_HANDSHAKE {
                                return ConnFate::Close;
                            }
                            conn.peer = Some(decoded.src);
                            emit(
                                &shared.events,
                                EventKind::PeerConnect,
                                decoded.src,
                                "inbound connection accepted (handshake received)",
                            );
                            continue;
                        }
                        let Some(kind) = byte_to_kind(decoded.kind) else {
                            continue; // unknown kinds are skipped, not fatal
                        };
                        let peer = conn.peer.expect("handshake seen");
                        shared.counters.record_in(kind, decoded.payload.len() + 8);
                        if inbox_tx
                            .send((
                                peer,
                                Frame {
                                    kind,
                                    bytes: decoded.payload,
                                },
                            ))
                            .is_err()
                        {
                            return ConnFate::Close;
                        }
                        *delivered = true;
                    }
                    Ok(None) => break,
                    Err(_) => {
                        if let Some(peer) = conn.peer {
                            emit(
                                &shared.events,
                                EventKind::PeerDisconnect,
                                peer,
                                "inbound connection dropped (malformed frame)",
                            );
                        }
                        return ConnFate::Close;
                    }
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return ConnFate::Keep,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                if let Some(peer) = conn.peer {
                    emit(
                        &shared.events,
                        EventKind::PeerDisconnect,
                        peer,
                        "inbound connection closed (peer went away or read error)",
                    );
                }
                return ConnFate::Close;
            }
        }
    }
    ConnFate::Keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_core::transport::FrameKind;

    fn pair() -> (ReactorTransport, ReactorTransport) {
        let mut t1 =
            ReactorTransport::bind(HiveId(1), "127.0.0.1:0".parse().unwrap(), HashMap::new())
                .unwrap();
        let mut t2 =
            ReactorTransport::bind(HiveId(2), "127.0.0.1:0".parse().unwrap(), HashMap::new())
                .unwrap();
        let a1 = t1.local_addr();
        let a2 = t2.local_addr();
        t1.add_peer(HiveId(2), a2);
        t2.add_peer(HiveId(1), a1);
        (t1, t2)
    }

    fn recv_blocking(t: &ReactorTransport, timeout_ms: u64) -> Option<(HiveId, Frame)> {
        let deadline = Instant::now() + Duration::from_millis(timeout_ms);
        while Instant::now() < deadline {
            if let Some(x) = t.try_recv() {
                return Some(x);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        None
    }

    #[test]
    fn connections_accepted_in_an_iteration_are_polled_in_the_next() {
        // No peers, so no outbound connection: the poll set is the wake pipe
        // and the listener, and an accepted connection has no entry in it
        // until the next iteration. Two dialers, so the second accept also
        // happens next to an inbound connection that does have one.
        let t = ReactorTransport::bind(HiveId(1), "127.0.0.1:0".parse().unwrap(), HashMap::new())
            .unwrap();
        let mut dialers = Vec::new();
        for peer in [7u32, 8] {
            let mut s = TcpStream::connect(t.local_addr()).unwrap();
            s.write_all(&encode_frame(HiveId(peer), KIND_HANDSHAKE, &[]))
                .unwrap();
            s.write_all(&encode_frame(
                HiveId(peer),
                kind_to_byte(FrameKind::App),
                &[peer as u8],
            ))
            .unwrap();
            let (from, f) = recv_blocking(&t, 2000).expect("the reactor outlives its accept");
            assert_eq!(from, HiveId(peer));
            assert_eq!(f.bytes, vec![peer as u8]);
            dialers.push(s);
        }
    }

    #[test]
    fn frames_flow_both_ways() {
        let (t1, t2) = pair();
        t1.send(HiveId(2), Frame::app(vec![1, 2, 3]));
        let (from, f) = recv_blocking(&t2, 2000).expect("frame arrives");
        assert_eq!(from, HiveId(1));
        assert_eq!(f.kind, FrameKind::App);
        assert_eq!(f.bytes, vec![1, 2, 3]);

        t2.send(HiveId(1), Frame::raft(vec![9]));
        let (from, f) = recv_blocking(&t1, 2000).expect("reply arrives");
        assert_eq!(from, HiveId(2));
        assert_eq!(f.kind, FrameKind::Raft);
        assert_eq!(f.bytes, vec![9]);
    }

    #[test]
    fn burst_is_delivered_in_order() {
        let (t1, t2) = pair();
        for i in 0..200u32 {
            t1.send(HiveId(2), Frame::app(i.to_le_bytes().to_vec()));
        }
        for i in 0..200u32 {
            let (_, f) = recv_blocking(&t2, 2000).expect("burst frame arrives");
            assert_eq!(f.bytes, i.to_le_bytes().to_vec());
        }
        let snap = t1.counters().snapshot();
        assert_eq!(snap.sent(FrameKind::App).0, 200);
    }

    #[test]
    fn dead_peer_enters_backoff_and_defers() {
        let dead_addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let mut peers = HashMap::new();
        peers.insert(HiveId(2), dead_addr);
        let t1 = ReactorTransport::bind(HiveId(1), "127.0.0.1:0".parse().unwrap(), peers).unwrap();
        t1.send(HiveId(2), Frame::app(vec![1]));
        // The connect is asynchronous: wait for the failure to register.
        let deadline = Instant::now() + Duration::from_millis(2000);
        while t1.counters().snapshot().connect_failures == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(t1.counters().snapshot().connect_failures, 1);
        assert!(
            t1.counters().peer_backoff_ms(HiveId(2)).unwrap() >= crate::buffer::BACKOFF_BASE_MS
        );
        // Sends inside the window defer without probing.
        t1.send(HiveId(2), Frame::app(vec![2]));
        t1.send(HiveId(2), Frame::app(vec![3]));
        std::thread::sleep(Duration::from_millis(50));
        let snap = t1.counters().snapshot();
        assert_eq!(snap.connect_failures, 1, "no probe inside the window");
        assert_eq!(snap.deferred, 3);
        assert_eq!(snap.sent(FrameKind::App), (0, 0));
    }

    #[test]
    fn deferred_frames_flush_on_reconnect_in_order() {
        let dead_addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let mut peers = HashMap::new();
        peers.insert(HiveId(2), dead_addr);
        let t1 = ReactorTransport::bind(HiveId(1), "127.0.0.1:0".parse().unwrap(), peers).unwrap();
        t1.send(HiveId(2), Frame::app(vec![1]));
        t1.send(HiveId(2), Frame::app(vec![2]));
        let deadline = Instant::now() + Duration::from_millis(2000);
        while t1.counters().snapshot().deferred < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Revive hive 2 on the same address; once the window expires the
        // reactor reconnects on its own (no new send needed) and flushes.
        let t2 = ReactorTransport::bind(HiveId(2), dead_addr, HashMap::new()).unwrap();
        for expect in 1..=2u8 {
            let (from, f) = recv_blocking(&t2, 5000).expect("deferred frame arrives");
            assert_eq!(from, HiveId(1));
            assert_eq!(f.bytes, vec![expect]);
        }
        assert_eq!(t1.counters().snapshot().sent(FrameKind::App).0, 2);
        assert_eq!(t1.counters().peer_backoff_ms(HiveId(2)), None);
    }

    #[test]
    fn disconnect_peer_surrenders_queued_frames() {
        let dead_addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let mut peers = HashMap::new();
        peers.insert(HiveId(4), dead_addr);
        let t = ReactorTransport::bind(HiveId(1), "127.0.0.1:0".parse().unwrap(), peers).unwrap();
        t.send(HiveId(4), Frame::app(vec![1]));
        t.send(HiveId(4), Frame::control(vec![2]));
        let deadline = Instant::now() + Duration::from_millis(2000);
        while t.counters().snapshot().connect_failures == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let held = t.disconnect_peer(HiveId(4));
        assert_eq!(held.len(), 2, "both queued frames come back to the caller");
        assert_eq!(held[0].bytes, vec![1]);
        assert_eq!(held[1].kind, FrameKind::Control);
        assert!(!t.peers().contains(&HiveId(4)));
    }

    #[test]
    fn shutdown_joins_the_reactor_thread() {
        let (t1, t2) = pair();
        t1.send(HiveId(2), Frame::app(vec![1]));
        recv_blocking(&t2, 2000).expect("frame arrives");
        drop(t1);
        drop(t2); // Drop joins; reaching here without hanging is the test
    }
}
