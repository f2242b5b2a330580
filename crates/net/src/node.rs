//! The site node: one [`pv_engine::Site`] serving real TCP.
//!
//! The third deployment of the sans-IO `pv_protocol::SiteMachine`, after
//! the simulation and the live runtime, and on the live runtime's
//! [`SiteDriver`]: the driver owns the site, its timers and the effect
//! dispatch. This module adds the socket [`Transport`] and the threads
//! around it: the **driver thread**, which fires timers, runs housekeeping
//! and blocks on one inbox; an **acceptor** that starts a **reader** per
//! inbound connection; and a **dialer** per peer link that connects off the
//! driver thread, reports the result, and then reads that connection for
//! EOF (peers never send on a dialed link).
//!
//! The site sits behind one lock. A client's reader applies each frame it
//! decodes itself, under that lock, and writes the reply: a request costs
//! one thread hop, not two. A site connection's reader puts its frames into
//! the inbox and never waits for the lock.
//!
//! Every frame is written whole, blocking, by the thread that holds the
//! site. Two sites cannot deadlock: a site connection's reader always
//! drains its socket into the inbox, so every write to a peer completes. A
//! client that stops reading, or a reply that cannot be encoded (an
//! oversized inspect, metrics or snapshot-read answer), costs only its own
//! connection; the write timeout bounds the stall. Dials are paced per peer
//! by a [`Circuit`] under a jittered-exponential [`Backoff`]; a peer
//! unreachable past the attempt budget is a structured
//! [`EngineError::Unreachable`], never a hang. Messages for a down peer
//! queue (bounded) and flush on reconnect. When [`Node::run`] returns,
//! every helper thread ends.

use crate::backoff::{Backoff, Circuit, CircuitVerdict};
use crate::wire::{decode_frame, encode_frame, Frame, NodeSnapshot, PeerKind, WireMetrics};
use bytes::BytesMut;
use parking_lot::Mutex;
use pv_engine::driver::{open_site, Shared, SiteDriver, Transport};
use pv_engine::messages::Msg;
use pv_engine::topology::Topology;
use pv_engine::{EngineError, Site};
use pv_simnet::{Actor, Metrics, NodeId, Trace};
use pv_store::SiteId;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Housekeeping period: circuit upkeep and dial probes run at least this
/// often, and an idle node wakes this often (`net.idle_wakeups`).
const TICK: Duration = Duration::from_millis(10);

/// How long one blocking frame write may take before its connection is
/// given up.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Stack of the reader and dialer threads: a client's reader decodes and
/// evaluates expressions nested to the wire's depth limit, so it gets the
/// stack std gives any spawned thread.
const IO_STACK: usize = 2 * 1024 * 1024;

/// Bytes requested from the socket per read.
const READ_CHUNK: usize = 16 * 1024;

/// Most protocol messages held for a down peer before the oldest drop.
/// The §3.1 timers and §3.3 inquiries re-drive anything lost.
const PENDING_CAP: usize = 4096;

/// What the helper threads put into the driver's inbox.
enum Event {
    /// The reader of a site connection decoded one frame.
    Frame { conn: u64, frame: Frame },
    /// A client reader's callback stopped the node, or armed a timer due
    /// before the driver thread's current wait ends.
    Wake,
    /// A reader stopped: EOF, a socket error or a malformed frame.
    Closed { conn: u64 },
    /// The dialer of peer link `peer` connected, or failed to.
    Dialed {
        peer: usize,
        result: io::Result<Conn>,
    },
    /// The connection the dialer of `peer` made has closed; the dialer has
    /// ended.
    PeerLost { peer: usize },
    /// The listener failed for good.
    ListenerFailed(io::Error),
}

/// The driver's half of one connection. Dropping it shuts the socket down
/// both ways, which ends the thread reading the other half, also when the
/// event carrying it is dropped unread.
struct Conn(TcpStream);

impl Drop for Conn {
    fn drop(&mut self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

/// The dial/reconnect state of one outbound peer link.
struct PeerLink {
    addr: Option<SocketAddr>,
    conn: Option<Conn>,
    /// Whether this link's dialer thread is still out: connecting, or
    /// reading its connection for EOF. At most one is out per link.
    dialer: bool,
    circuit: Circuit,
    /// When the current connection was established (stability window: the
    /// circuit only re-closes after the link survives a while, so a
    /// flapping peer keeps walking up the backoff curve).
    connected_at: Option<Instant>,
    /// Messages awaiting reconnect (bounded by [`PENDING_CAP`]). The link
    /// redials even with none queued: a cluster eagerly re-forms itself
    /// after a partition heals instead of waiting for traffic.
    pending: VecDeque<Msg>,
    ever_connected: bool,
    last_err: String,
}

impl PeerLink {
    fn unused(policy: Backoff, salt: u64) -> Self {
        PeerLink {
            addr: None,
            conn: None,
            dialer: false,
            circuit: Circuit::new(policy, salt),
            connected_at: None,
            pending: VecDeque::new(),
            ever_connected: false,
            last_err: String::new(),
        }
    }
}

/// Configuration of one site process.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Which site of the topology this process is.
    pub site: SiteId,
    /// The shared cluster description (same value the simulation and live
    /// runtime consume). When it carries a
    /// [`BackoffConfig`](pv_engine::topology::BackoffConfig), that policy
    /// overrides `backoff`.
    pub topo: Topology,
    /// Dial/reconnect policy for peer connections.
    pub backoff: Backoff,
}

/// A bound-but-not-yet-running site node.
///
/// Construction is two-phase so an in-process cluster can bind every
/// listener on port 0 first, learn the real addresses, and only then hand
/// each node the full peer table:
///
/// 1. [`Node::bind`] — open the listener (and the WAL, recovering if the
///    image is non-empty);
/// 2. [`Node::set_peers`] — provide every site's address;
/// 3. [`Node::run`] — dial peers and serve until a `Shutdown` frame.
pub struct Node {
    me: NodeId,
    listener: TcpListener,
    backoff: Backoff,
    site: Site,
    recovered: bool,
    /// Outbound site→site links, indexed by peer site id.
    peers: Vec<PeerLink>,
}

impl Node {
    /// Opens the listener on `listen` (use port 0 to let the OS pick) and
    /// builds the site from the topology: disk-backed WAL under
    /// `data_dir/site-<s>` when the topology has a data dir, recovery from a
    /// non-empty image, seeded items durable before serving.
    pub fn bind(config: NodeConfig, listen: SocketAddr) -> Result<Node, EngineError> {
        let NodeConfig {
            site: s,
            topo,
            backoff,
        } = config;
        if s >= topo.sites {
            return Err(EngineError::UnknownSite(s));
        }
        let backoff = topo
            .backoff
            .as_ref()
            .map(Backoff::from_config)
            .unwrap_or(backoff);
        let listener = TcpListener::bind(listen)
            .map_err(|e| EngineError::Io(format!("bind {listen}: {e}")))?;
        let (site, recovered) = open_site(&topo, s)?;
        let peers = (0..topo.sites)
            .map(|p| PeerLink::unused(backoff, peer_salt(s, p)))
            .collect();
        Ok(Node {
            me: NodeId(s),
            listener,
            backoff,
            site,
            recovered,
            peers,
        })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, EngineError> {
        self.listener
            .local_addr()
            .map_err(|e| EngineError::Io(format!("local_addr: {e}")))
    }

    /// Provides the full site address table (index = site id). Must be
    /// called before [`Node::run`]. The entry for this site itself is
    /// ignored (self-sends never leave the driver), so the table may point
    /// at chaos proxies while the node listens on its real address.
    pub fn set_peers(&mut self, addrs: Vec<SocketAddr>) {
        for (link, addr) in self.peers.iter_mut().zip(addrs) {
            link.addr = Some(addr);
        }
    }

    /// Serves until a `Shutdown` frame arrives (returning the final
    /// [`Site`], its store synced) or a fatal error occurs: listener
    /// failure, or a peer site unreachable past the backoff policy's attempt
    /// budget. Either way every helper thread ends.
    pub fn run(self) -> Result<Site, EngineError> {
        let me = self.me.0 as usize;
        if let Some(p) = (0..self.peers.len()).find(|&p| p != me && self.peers[p].addr.is_none()) {
            return Err(EngineError::Io(format!(
                "peer table has no address for site {p}"
            )));
        }
        // Connecting to the listener's own address (an unspecified one
        // reaches this host) is how the acceptor is woken to stop.
        let wake = self.local_addr()?;
        let (tx, inbox) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(Mutex::new(Metrics::new()));
        let mut net = Sockets {
            me: self.me,
            backoff: self.backoff,
            peers: self.peers,
            conns: BTreeMap::new(),
            routes: BTreeMap::new(),
            inbox: tx.clone(),
            metrics: Arc::clone(&metrics),
            out: BytesMut::new(),
            acceptor: (Arc::clone(&stop), wake),
        };
        let trace = Arc::new(Mutex::new(Trace::default()));
        let seed = 0xBEEF_0000 + u64::from(self.me.0);
        let mut driver = SiteDriver::new(self.site, self.me, seed, metrics, trace, Instant::now());
        if self.recovered {
            driver.callback(&mut net, |site, ctx| site.on_recover(ctx));
            net.metrics.lock().inc("net.cold_recoveries");
        }
        let shared = Arc::new(Mutex::new(Some((driver, net))));
        let (listener, node) = (self.listener, Arc::clone(&shared));
        let acceptor = spawn_io(format!("pv-accept-{}", self.me.0), move || {
            accept_loop(listener, node, tx, stop)
        });
        let result = acceptor.and_then(|()| SiteDriver::serve(&shared, &inbox));
        let (driver, net) = shared.lock().take().expect("taken only here");
        result?;
        let mut site = driver.into_actor();
        site.sync_store();
        // `net` drops after the sync: whoever sees this node's sockets close
        // finds its store synced.
        drop(net);
        Ok(site)
    }
}

/// The socket transport of one node: the outbound peer links, the inbound
/// connections and the reply routes.
struct Sockets {
    me: NodeId,
    backoff: Backoff,
    peers: Vec<PeerLink>,
    /// Inbound connections by the id the acceptor gave them.
    conns: BTreeMap<u64, Conn>,
    /// Reply routing: node id (from `Hello`) → inbound connection id.
    routes: BTreeMap<u32, u64>,
    /// The inbox, for the dialer threads this transport starts.
    inbox: Sender<Event>,
    metrics: Arc<Mutex<Metrics>>,
    /// Reused encode buffer.
    out: BytesMut,
    /// The acceptor's stop flag, and where to connect to wake it.
    acceptor: (Arc<AtomicBool>, SocketAddr),
}

impl Drop for Sockets {
    /// Ends the helper threads: dropping the connections ends their readers
    /// and dialers; the acceptor sees its flag once a connection wakes it.
    fn drop(&mut self) {
        self.acceptor.0.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.acceptor.1, Duration::from_secs(1));
    }
}

impl Sockets {
    /// Sends `frame` on inbound connection `conn`, closing it on failure.
    fn reply(&mut self, conn: u64, frame: &Frame) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        if !write_frame(&mut self.out, &self.metrics, &mut c.0, frame) {
            self.close(conn);
        }
    }

    /// Forgets inbound connection `conn` (dropping it ends its reader).
    fn close(&mut self, conn: u64) {
        self.conns.remove(&conn);
        self.routes.retain(|_, c| *c != conn);
        self.metrics.lock().inc("net.conn_closed");
    }

    /// Writes `msg` on peer link `p` if it is connected. A failed write
    /// drops the connection: its dialer then sees EOF and reports the loss.
    /// The message is lost; the protocol's timers re-drive it.
    fn write_peer(&mut self, p: usize, msg: Msg) {
        let link = &mut self.peers[p];
        let Some(conn) = &mut link.conn else {
            return;
        };
        let frame = Frame::Proto {
            from: self.me.0,
            msg,
        };
        if !write_frame(&mut self.out, &self.metrics, &mut conn.0, &frame) {
            link.conn = None;
        }
    }

    /// Records a failure on peer link `p`: the circuit opens with the next
    /// backoff delay (observable as `net.circuit_open` / `net.backoff.*`),
    /// or, past the attempt budget, the node gives up with a structured
    /// [`EngineError::Unreachable`].
    fn fail_link(&mut self, p: usize, why: String) -> Result<(), EngineError> {
        let link = &mut self.peers[p];
        link.last_err = why;
        match link.circuit.on_failure(Instant::now()) {
            CircuitVerdict::Backoff { wait } => {
                let mut m = self.metrics.lock();
                m.inc("net.circuit_open");
                m.observe("net.backoff.wait_ms", wait.as_secs_f64() * 1e3);
                Ok(())
            }
            CircuitVerdict::Exhausted => {
                self.metrics.lock().inc("net.backoff.exhausted");
                let addr = link
                    .addr
                    .map(|a| a.to_string())
                    .unwrap_or_else(|| "<unset>".into());
                Err(EngineError::Unreachable {
                    site: p as SiteId,
                    detail: format!(
                        "{addr} after {} attempts: {}",
                        link.circuit.policy().attempts,
                        link.last_err
                    ),
                })
            }
        }
    }

    /// A dial of peer link `p` finished.
    fn on_dialed(&mut self, p: usize, result: io::Result<Conn>) -> Result<(), EngineError> {
        let mut conn = match result {
            Ok(conn) => conn,
            Err(e) => {
                self.peers[p].dialer = false;
                return self.fail_link(p, e.to_string());
            }
        };
        let hello = Frame::Hello {
            node: self.me.0,
            kind: PeerKind::Site,
        };
        if !write_frame(&mut self.out, &self.metrics, &mut conn.0, &hello) {
            return Ok(()); // dropping `conn` makes the dialer report the loss
        }
        let link = &mut self.peers[p];
        link.conn = Some(conn);
        link.connected_at = Some(Instant::now());
        if link.ever_connected {
            self.metrics.lock().inc("net.reconnects");
        }
        link.ever_connected = true;
        // First-ever success closes immediately; a recovering link waits
        // out the stability window (see `housekeep`).
        if link.circuit.failures() == 0 {
            link.circuit.on_success();
        }
        while self.peers[p].conn.is_some() {
            let Some(msg) = self.peers[p].pending.pop_front() else {
                break;
            };
            self.write_peer(p, msg);
        }
        Ok(())
    }

    /// Handles one decoded frame from inbound connection `conn`.
    fn on_frame(
        &mut self,
        driver: &mut SiteDriver<Site>,
        conn: u64,
        frame: Frame,
    ) -> ControlFlow<()> {
        match frame {
            Frame::Hello { node, kind: _ } => {
                if self.conns.contains_key(&conn) {
                    self.routes.insert(node, conn);
                }
            }
            Frame::Proto { from, msg } => driver.deliver(self, NodeId(from), msg),
            Frame::InspectReq => {
                let site = driver.actor();
                let snap = NodeSnapshot {
                    site: site.id(),
                    items: site
                        .store()
                        .iter_items()
                        .map(|(i, e)| (i, e.clone()))
                        .collect(),
                    poly_count: site.poly_count() as u64,
                    quiescent: site.is_quiescent(),
                };
                self.reply(conn, &Frame::InspectResp(snap));
            }
            Frame::MetricsReq => {
                // Storage metrics were flushed by the engine inside the last
                // callback; the registry is current.
                let wire = WireMetrics::from_metrics(&self.metrics.lock());
                self.reply(conn, &Frame::MetricsResp(wire));
            }
            Frame::ConfigBackoff(cfg) => {
                let policy = Backoff::from_config(&cfg);
                set_policy(&mut self.backoff, &mut self.peers, policy);
                self.metrics.lock().inc("net.backoff.reconfigured");
            }
            Frame::Shutdown => return ControlFlow::Break(()),
            // Responses are never addressed *to* a site.
            Frame::InspectResp(_) | Frame::MetricsResp(_) => {
                self.metrics.lock().inc("net.unexpected_frame");
            }
        }
        ControlFlow::Continue(())
    }
}

impl Transport<Site> for Sockets {
    type Event = Event;

    /// Routes one outgoing message: a peer-site link, or a client connection
    /// (by the node id its `Hello` registered). A missing client route drops
    /// the message like a datagram — the protocol's timers and inquiries
    /// already tolerate loss. A message for a peer site that is currently
    /// down queues (bounded) for delivery on reconnect.
    fn send(&mut self, to: NodeId, msg: Msg) {
        let p = to.0 as usize;
        if p < self.peers.len() {
            if self.peers[p].conn.is_some() {
                self.write_peer(p, msg);
                return;
            }
            let link = &mut self.peers[p];
            if link.pending.len() >= PENDING_CAP {
                link.pending.pop_front();
                self.metrics.lock().inc("net.dropped_peer_down");
            }
            link.pending.push_back(msg);
        } else if let Some(&conn) = self.routes.get(&to.0) {
            self.reply(
                conn,
                &Frame::Proto {
                    from: self.me.0,
                    msg,
                },
            );
        } else {
            self.metrics.lock().inc("net.dropped_no_route");
        }
    }

    fn on_event(
        &mut self,
        driver: &mut SiteDriver<Site>,
        event: Event,
    ) -> Result<ControlFlow<()>, EngineError> {
        match event {
            Event::Frame { conn, frame } => return Ok(self.on_frame(driver, conn, frame)),
            Event::Wake => {}
            Event::Closed { conn } => {
                if self.conns.contains_key(&conn) {
                    self.close(conn);
                }
            }
            Event::Dialed { peer, result } => self.on_dialed(peer, result)?,
            Event::PeerLost { peer } => {
                let link = &mut self.peers[peer];
                link.dialer = false;
                link.conn = None;
                link.connected_at = None;
                self.metrics.lock().inc("net.peer_conn_lost");
                self.fail_link(peer, "connection closed by peer".into())?;
            }
            Event::ListenerFailed(e) => return Err(EngineError::Io(format!("accept: {e}"))),
        }
        Ok(ControlFlow::Continue(()))
    }

    /// Re-closes the circuit of links that stayed up through the stability
    /// window, and starts a dialer for every link that should be up when its
    /// circuit allows a probe. Never blocks.
    fn housekeep(&mut self) -> Result<(), EngineError> {
        let now = Instant::now();
        // The circuit re-closes only once a connection has stayed up this
        // long, so a link that flaps (accept-then-kill partitions) keeps
        // climbing the backoff curve instead of hot-cycling at dial speed.
        let stability = self.backoff.base.max(Duration::from_millis(250));
        for (p, link) in self.peers.iter_mut().enumerate() {
            if p as u32 == self.me.0 {
                continue;
            }
            if let Some(t) = link.connected_at {
                if link.circuit.failures() > 0 && now.duration_since(t) >= stability {
                    link.circuit.on_success();
                    self.metrics.lock().inc("net.circuit_reclosed");
                }
            }
            if link.conn.is_some() || link.dialer || !link.circuit.try_probe(now) {
                continue;
            }
            let Some(addr) = link.addr else {
                return Err(EngineError::UnknownSite(p as SiteId));
            };
            let timeout = self.backoff.connect_timeout();
            let inbox = self.inbox.clone();
            link.dialer = true;
            self.metrics.lock().inc("net.backoff.attempts");
            spawn_io(format!("pv-dial-{}-{p}", self.me.0), move || {
                dial(addr, timeout, p, inbox)
            })?;
        }
        Ok(())
    }

    fn tick(&self) -> Duration {
        TICK
    }
}

/// Encodes `frame` into `out` and writes it whole. Fails, counted, when the
/// frame cannot be encoded (over the frame limit) or the write fails or
/// times out; the caller then drops that connection and only that one.
fn write_frame(
    out: &mut BytesMut,
    metrics: &Mutex<Metrics>,
    stream: &mut TcpStream,
    frame: &Frame,
) -> bool {
    out.clear();
    let failure = match encode_frame(frame, out) {
        Err(_) => "net.encode_failed",
        Ok(()) => match stream.write_all(out) {
            Err(_) => "net.write_failed",
            Ok(()) => return true,
        },
    };
    metrics.lock().inc(failure);
    false
}

/// Swaps the dial/reconnect policy of a node and all its peer circuits.
fn set_policy(backoff: &mut Backoff, peers: &mut [PeerLink], policy: Backoff) {
    *backoff = policy;
    for link in peers {
        link.circuit.set_policy(policy);
    }
}

/// Spawns one helper thread with the I/O stack. Helpers are detached: each
/// ends by itself once its socket is shut down, the inbox is gone or (the
/// acceptor) its stop flag is up, as `tests/thread_hygiene.rs` pins.
/// Joining them would make shutdown wait out a dialer's connect timeout.
fn spawn_io(name: String, f: impl FnOnce() + Send + 'static) -> Result<(), EngineError> {
    std::thread::Builder::new()
        .name(name)
        .stack_size(IO_STACK)
        .spawn(f)
        .map(drop)
        .map_err(|e| EngineError::Io(format!("spawn thread: {e}")))
}

/// Readies an accepted or dialed socket: no Nagle delay, the write timeout,
/// and a second handle for the thread that reads it.
fn prepare(stream: &TcpStream) -> io::Result<TcpStream> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    stream.try_clone()
}

/// The acceptor thread: takes each inbound connection, registers its write
/// half with the site and starts its reader, until the stop flag is raised.
fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared<Site, Sockets>>,
    inbox: Sender<Event>,
    stop: Arc<AtomicBool>,
) {
    let mut next = 0u64;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == ErrorKind::ConnectionAborted => continue,
            Err(e) => {
                let _ = inbox.send(Event::ListenerFailed(e));
                return;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(reader) = prepare(&stream) else {
            continue;
        };
        let conn = next;
        next += 1;
        {
            let mut guard = shared.lock();
            let Some((_, net)) = guard.as_mut() else {
                return;
            };
            net.conns.insert(conn, Conn(stream));
            net.metrics.lock().inc("net.accepted");
        }
        let (node, tx) = (Arc::clone(&shared), inbox.clone());
        let spawned = spawn_io(format!("pv-read-{conn}"), move || {
            read_frames(reader, conn, node, tx)
        });
        if spawned.is_err() {
            let _ = inbox.send(Event::Closed { conn });
        }
    }
}

/// A reader thread: decodes frames off one inbound connection until EOF, a
/// socket error or a malformed frame (a malformed stream cannot be
/// resynchronised), then reports the connection closed. A client's frames
/// it applies to the site itself, one at a time, so a client that sends
/// faster than the site serves stalls in its own writes. Once
/// the peer says it is a site, the frames go to the driver's inbox
/// instead: a site connection's reader never waits for the site, so it
/// always drains (see the module doc).
fn read_frames(
    mut stream: TcpStream,
    conn: u64,
    shared: Arc<Shared<Site, Sockets>>,
    inbox: Sender<Event>,
) {
    let (mut buf, mut site) = (Vec::new(), false);
    'conn: loop {
        let start = buf.len();
        buf.resize(start + READ_CHUNK, 0);
        let n = match stream.read(&mut buf[start..]) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        buf.truncate(start + n);
        let mut at = 0;
        loop {
            match decode_frame(&buf[at..]) {
                Ok(Some((frame, used))) => {
                    at += used;
                    site |= matches!(
                        frame,
                        Frame::Hello {
                            kind: PeerKind::Site,
                            ..
                        }
                    );
                    let served = if site {
                        inbox.send(Event::Frame { conn, frame }).is_ok()
                    } else {
                        let apply = |d: &mut SiteDriver<Site>, net: &mut Sockets| {
                            net.on_frame(d, conn, frame)
                        };
                        SiteDriver::apply(&shared, apply, || drop(inbox.send(Event::Wake)))
                    };
                    if !served {
                        return;
                    }
                }
                Ok(None) => break,
                Err(_) => break 'conn,
            }
        }
        buf.drain(..at);
    }
    let _ = inbox.send(Event::Closed { conn });
}

/// A dialer thread: connects to peer `peer`, reports the result, and then
/// reads the connection only to notice its end (peers never send on a
/// dialed link), which it reports as [`Event::PeerLost`].
fn dial(addr: SocketAddr, timeout: Duration, peer: usize, inbox: Sender<Event>) {
    let connected = TcpStream::connect_timeout(&addr, timeout)
        .and_then(|stream| prepare(&stream).map(|reader| (stream, reader)));
    let (result, reader) = match connected {
        Ok((stream, reader)) => (Ok(Conn(stream)), Some(reader)),
        Err(e) => (Err(e), None),
    };
    if inbox.send(Event::Dialed { peer, result }).is_err() {
        return;
    }
    let Some(mut reader) = reader else {
        return;
    };
    let mut sink = [0u8; 256];
    while !matches!(reader.read(&mut sink), Ok(0) | Err(_)) {}
    let _ = inbox.send(Event::PeerLost { peer });
}

/// Jitter salt of the (node, peer) directed link.
fn peer_salt(me: SiteId, peer: u32) -> u64 {
    (u64::from(me) << 32) ^ u64::from(peer) ^ 0x5EED_CAFE
}
