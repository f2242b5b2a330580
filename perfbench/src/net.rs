//! The two socket workloads, each against two spawned `pv-node` processes
//! on localhost: `transfer` (open loop, durable) and `hot-read` (closed
//! loop, in memory).

use crate::procfs::{self, ProcSample};
use crate::trace::{SpanId, Tracer};
use crate::{counter_layers, ms, pct, Outcome, RunConfig};
use pv_core::{Expr, ItemId, TransactionSpec, Value};
use pv_engine::{AbortReason, EngineError, Msg, TxnResult};
use pv_net::wire::{decode_frame, frame_bytes};
use pv_net::{Backoff, Frame, NetClient, PeerKind};
use pv_simnet::{Metrics, SimRng};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

const SITES: u32 = 2;
const BALANCE: i64 = 100;
/// A reply later than this counts as not served (in `failed_frac` and
/// goodput), though the request did not fail.
const LATENCY_LIMIT: Duration = Duration::from_millis(50);
/// Transient aborts (see [`transient`]) are resubmitted up to this many
/// times, as a client would, after a pause that doubles from
/// `RETRY_BACKOFF` up to `RETRY_BACKOFF_MAX`; every other abort is final.
/// On `hot-read` about one transfer in eight meets a lock conflict, and a
/// cap of 5 still let one in tens of thousands run out of retries.
const RETRY_CAP: u32 = 20;
const RETRY_BACKOFF: Duration = Duration::from_millis(1);
const RETRY_BACKOFF_MAX: Duration = Duration::from_millis(16);
/// How long any single call may wait for its reply.
const CALL_DEADLINE: Duration = Duration::from_secs(5);
/// Clusters set up before the load (the last of them carries it) and again
/// after it; one more is set up between parts of the load (see
/// [`probe_between`]). The fastest set-up is reported. Other tenants of the
/// host slow a set-up by up to 2x in phases of seconds, so the set-ups are
/// spread over the whole run and the fastest of them is the program's own
/// set-up time.
const SETUPS: usize = 8;

/// `transfer`: accounts, and the offered rate (about half the closed-loop
/// capacity of the durable two-site cluster on a 2-core host).
const TRANSFER_ACCOUNTS: u64 = 10_000;
const TRANSFER_RATE: f64 = 800.0;
/// `transfer` cuts its arrival window into this many equal parts (2 s each
/// at 20 s, about 1,600 transfers) and reports the median latency of the
/// fastest part. Other tenants of the host slow it in phases that can last
/// most of a run, and near saturation a slow phase multiplies the latency
/// by up to 3; short parts give the best chance that one part runs at the
/// host's own speed. Stalls inside a part still count.
const TRANSFER_PARTS: u32 = 10;

/// `hot-read` runs its closed loop this many times on the same cluster;
/// `ops_per_s` and `latency_ms` come from the fastest whole repetition, so
/// stalls inside a repetition count while a burst of another tenant's load
/// that covers only some repetitions does not.
const HOT_REPEATS: u32 = 4;

/// `hot-read`: accounts, hot set, and the share of operations that read.
const HOT_ACCOUNTS: u64 = 1_000;
const HOT_SET: u64 = 8;
const READ_SHARE: f64 = 0.9;
/// `hot-read` issues a fixed number of operations, sized to last about
/// `--seconds` at this rate (about what a 2-core host serves). Every run
/// leaves the sites with the same history, so their memory does not move
/// with the host's speed.
const HOT_NOMINAL_RATE: f64 = 9_000.0;

/// Spawned site processes, killed on drop so a failed run leaves none.
struct Cluster {
    children: Vec<Child>,
    addrs: Vec<SocketAddr>,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

impl Cluster {
    fn spawn(node_bin: &Path, accounts: u64, data_dir: Option<&Path>) -> Result<Cluster, String> {
        // Reserve distinct ports by binding and releasing them.
        let listeners = (0..SITES)
            .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("reserve port: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let addrs = listeners
            .iter()
            .map(|l| l.local_addr().map_err(|e| format!("reserve port: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        drop(listeners);
        let list = addrs
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let mut cluster = Cluster {
            children: Vec::new(),
            addrs,
        };
        for s in 0..SITES {
            let mut cmd = Command::new(node_bin);
            cmd.args(["--site", &s.to_string(), "--addrs", &list])
                .args([
                    "--accounts",
                    &accounts.to_string(),
                    "--balance",
                    &BALANCE.to_string(),
                ])
                .arg("--fast");
            if let Some(dir) = data_dir {
                cmd.arg("--data-dir").arg(dir);
            }
            let child = cmd
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", node_bin.display()))?;
            cluster.children.push(child);
        }
        Ok(cluster)
    }

    fn sample(&self) -> Result<Vec<ProcSample>, String> {
        self.children
            .iter()
            .map(|c| procfs::sample(Some(c.id())))
            .collect()
    }

    /// Asks every site to exit and checks that each exits cleanly.
    fn shutdown(mut self) -> Result<(), String> {
        for (s, addr) in self.addrs.iter().enumerate() {
            connect(*addr, 1_000 + s as u32)?
                .shutdown()
                .map_err(|e| format!("shutdown site {s}: {e}"))?;
        }
        let limit = Instant::now() + Duration::from_secs(10);
        for (s, child) in self.children.iter_mut().enumerate() {
            let status = loop {
                match child
                    .try_wait()
                    .map_err(|e| format!("wait site {s}: {e}"))?
                {
                    Some(status) => break status,
                    None if Instant::now() > limit => return Err(format!("site {s} did not exit")),
                    None => std::thread::sleep(Duration::from_millis(2)),
                }
            };
            if !status.success() {
                return Err(format!("site {s} exited with {status}"));
            }
        }
        self.children.clear();
        Ok(())
    }
}

/// Dials a site, polling every 200 µs until it listens.
fn connect(addr: SocketAddr, node: u32) -> Result<NetClient, String> {
    let backoff = Backoff {
        base: Duration::from_micros(200),
        max: Duration::from_micros(200),
        jitter: 0.0,
        attempts: 50_000,
        ..Backoff::default()
    };
    NetClient::connect(addr, node, backoff).map_err(|e| format!("connect {addr}: {e}"))
}

/// The pause before retry number `attempt` (1-based) of request `salt`,
/// jittered by ±50% so two clients that conflicted do not retry in step.
fn backoff(attempt: u32, salt: u64) -> Duration {
    let jitter = 0.5 + SimRng::new(salt ^ u64::from(attempt) << 48).unit();
    let doubled = RETRY_BACKOFF.saturating_mul(1 << (attempt - 1).min(16));
    doubled.min(RETRY_BACKOFF_MAX).mul_f64(jitter)
}

/// Whether an abort is worth resubmitting: a lock conflict, or a protocol
/// timeout (a site that stalled, on a shared host usually in `fsync`).
fn transient(reason: &AbortReason) -> bool {
    matches!(reason, AbortReason::LockConflict | AbortReason::Timeout)
}

fn transfer_spec(from: u64, to: u64, amount: i64) -> TransactionSpec {
    let (f, t) = (ItemId(from), ItemId(to));
    TransactionSpec::new()
        .guard(Expr::read(f).ge(Expr::int(amount)))
        .update(f, Expr::read(f).sub(Expr::int(amount)))
        .update(t, Expr::read(t).add(Expr::int(amount)))
}

/// A cluster ready for load: one load connection per site (load thread
/// `k` coordinates through site `k`) and one control connection per site.
struct Ready {
    cluster: Cluster,
    load: Vec<NetClient>,
    control: Vec<NetClient>,
}

/// Spawns the cluster and connects; the set-up ends when every site has
/// answered a snapshot read of one of its own items, so each is seeded and
/// serving. Then, untimed, one warm-up transfer per load connection across
/// the two sites brings the peer links up: its time is set by the phase of
/// each site's idle sleep, not by set-up work. Returns the cluster and the
/// set-up time.
fn set_up_once(
    cfg: &RunConfig,
    accounts: u64,
    data_dir: Option<&Path>,
    tr: &mut Tracer,
) -> Result<(Ready, f64), String> {
    if let Some(dir) = data_dir {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let t0 = Instant::now();
    let cluster = Cluster::spawn(&cfg.node_bin, accounts, data_dir)?;
    let mut load = Vec::new();
    for (k, addr) in cluster.addrs.iter().enumerate() {
        let c0 = Instant::now();
        let mut client = connect(*addr, SITES + 1 + k as u32)?;
        tr.span("net.connect", c0, Instant::now(), None, 0);
        let item = ItemId(k as u64);
        let r0 = Instant::now();
        let (_, entries) = client
            .snapshot_read(&[item], CALL_DEADLINE)
            .map_err(|e| format!("first read from site {k}: {e}"))?;
        tr.span("net.first_read", r0, Instant::now(), None, 0);
        if entries.len() != 1 || entries[0].0 != item {
            return Err(format!("first read from site {k} did not return item {k}"));
        }
        load.push(client);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    for (k, client) in load.iter_mut().enumerate() {
        let from = k as u64;
        let spec = transfer_spec(from, from + 1, 1);
        let mut attempts = 0;
        loop {
            match call(client, &spec, tr, None, 0) {
                Ok(TxnResult::Committed { .. }) => break,
                Ok(TxnResult::Aborted { reason }) if transient(&reason) && attempts < RETRY_CAP => {
                    attempts += 1;
                    std::thread::sleep(backoff(attempts, from));
                }
                Ok(other) => return Err(format!("warm-up transfer failed: {other:?}")),
                Err(e) => return Err(format!("warm-up transfer: {e}")),
            }
        }
    }
    let mut control = Vec::new();
    for (s, addr) in cluster.addrs.iter().enumerate() {
        control.push(connect(*addr, SITES + 1 + SITES + s as u32)?);
    }
    Ok((
        Ready {
            cluster,
            load,
            control,
        },
        setup_s,
    ))
}

/// Sets up and shuts down `n` clusters; returns each set-up time.
fn probe_set_ups(
    cfg: &RunConfig,
    accounts: u64,
    data_dir: Option<&Path>,
    tr: &mut Tracer,
    n: usize,
) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let (ready, t) = set_up_once(cfg, accounts, data_dir, tr)?;
            drop(ready.load);
            drop(ready.control);
            ready.cluster.shutdown()?;
            Ok(t)
        })
        .collect()
}

/// Sets up and shuts down one extra cluster in the middle of a run, beside
/// the loaded one (which is idle meanwhile), in a data directory of its own;
/// returns its set-up time. Set-ups probed across the whole run give the
/// fastest set-up a chance to fall in a quiet phase of the host.
fn probe_between(
    cfg: &RunConfig,
    accounts: u64,
    durable: bool,
    tr: &mut Tracer,
) -> Result<f64, String> {
    let dir = durable.then(|| cfg.work_dir.join(format!("{}-probe", cfg.workload)));
    let t = probe_set_ups(cfg, accounts, dir.as_deref(), tr, 1)?;
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(t[0])
}

/// One attempt of a transaction: `submit_async`, then wait for its reply.
fn call(
    client: &mut NetClient,
    spec: &TransactionSpec,
    tr: &mut Tracer,
    parent: Option<SpanId>,
    req: u64,
) -> Result<TxnResult, EngineError> {
    let t0 = Instant::now();
    let want = client.submit_async(spec)?;
    let t1 = Instant::now();
    tr.span("net.submit", t0, t1, parent, req);
    loop {
        let (id, result) = client.recv_reply(CALL_DEADLINE)?;
        if id == want {
            tr.span("net.reply_wait", t1, Instant::now(), parent, req);
            return Ok(result);
        }
    }
}

/// Merges every site's metrics registry.
fn scrape(control: &mut [NetClient], tr: &mut Tracer) -> Result<Metrics, String> {
    let mut merged = Metrics::new();
    for (s, client) in control.iter_mut().enumerate() {
        let t0 = Instant::now();
        let m = client
            .metrics(CALL_DEADLINE)
            .map_err(|e| format!("metrics scrape of site {s} failed: {e}"))?;
        tr.span("net.metrics", t0, Instant::now(), None, 0);
        merged.merge(&m);
    }
    Ok(merged)
}

/// The correctness gate of both socket workloads: the cluster drains to
/// zero polyvalues and total funds are conserved across the sites.
fn audit(control: &mut [NetClient], accounts: u64) -> Result<(), String> {
    let limit = Instant::now() + Duration::from_secs(30);
    loop {
        let mut polys = 0;
        let mut quiescent = true;
        for client in control.iter_mut() {
            let snap = client
                .inspect(CALL_DEADLINE)
                .map_err(|e| format!("inspect: {e}"))?;
            polys += snap.poly_count;
            quiescent &= snap.quiescent;
        }
        if polys == 0 && quiescent {
            break;
        }
        if Instant::now() > limit {
            return Err(format!(
                "cluster did not drain: {polys} polyvalues in doubt"
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let (mut total, mut items) = (0i64, 0u64);
    for client in control.iter_mut() {
        let snap = client
            .inspect(CALL_DEADLINE)
            .map_err(|e| format!("inspect: {e}"))?;
        for (item, entry) in &snap.items {
            total += entry
                .as_simple()
                .and_then(Value::as_int)
                .ok_or_else(|| format!("item {} unsettled after drain", item.0))?;
            items += 1;
        }
    }
    let expected = accounts as i64 * BALANCE;
    if items != accounts || total != expected {
        return Err(format!(
            "conservation violated: {items} items hold {total}, expected {accounts} holding {expected}"
        ));
    }
    Ok(())
}

/// Client-side tallies of one load connection.
#[derive(Default)]
struct Tally {
    attempted: u64,
    /// Transfers served: committed (a guard-denied transfer included)
    /// within the latency limit.
    served: u64,
    retries: u64,
    /// Failed, by reason.
    aborted_lock: u64,
    aborted_timeout: u64,
    aborted_eval: u64,
    aborted_other: u64,
    timed_out: u64,
    /// Served, but later than the latency limit: not served, not failed.
    over_limit: u64,
    /// Latencies in ms of every committed transfer, split by whether both
    /// items live at the coordinating site.
    local_ms: Vec<f64>,
    distributed_ms: Vec<f64>,
    /// Open loop: how late each request was sent, in ms.
    late_ms: Vec<f64>,
    reads: u64,
    reads_issued: u64,
    read_ms: Vec<f64>,
    read_errors: Vec<String>,
}

impl Tally {
    /// Requests that failed: aborted for good, or never answered.
    fn failed(&self) -> u64 {
        self.aborted_lock
            + self.aborted_timeout
            + self.aborted_eval
            + self.aborted_other
            + self.timed_out
    }

    /// Requests not served: failed, or answered later than the limit.
    fn not_served(&self) -> u64 {
        self.failed() + self.over_limit
    }

    fn abort(&mut self, reason: &AbortReason) {
        match reason {
            AbortReason::LockConflict => self.aborted_lock += 1,
            AbortReason::Timeout => self.aborted_timeout += 1,
            AbortReason::Eval(_) => self.aborted_eval += 1,
            AbortReason::Rejected(_) => self.aborted_other += 1,
        }
    }

    fn commit(&mut self, latency: Duration, local: bool) {
        let v = ms(latency);
        if local {
            self.local_ms.push(v);
        } else {
            self.distributed_ms.push(v);
        }
        if latency <= LATENCY_LIMIT {
            self.served += 1;
        } else {
            self.over_limit += 1;
        }
    }

    fn absorb(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.served += o.served;
        self.retries += o.retries;
        self.aborted_lock += o.aborted_lock;
        self.aborted_timeout += o.aborted_timeout;
        self.aborted_eval += o.aborted_eval;
        self.aborted_other += o.aborted_other;
        self.timed_out += o.timed_out;
        self.over_limit += o.over_limit;
        self.local_ms.extend(o.local_ms);
        self.distributed_ms.extend(o.distributed_ms);
        self.late_ms.extend(o.late_ms);
        self.reads += o.reads;
        self.reads_issued += o.reads_issued;
        self.read_ms.extend(o.read_ms);
        self.read_errors.extend(o.read_errors);
    }

    fn commit_ms(&self) -> Vec<f64> {
        let mut all = self.local_ms.clone();
        all.extend_from_slice(&self.distributed_ms);
        all
    }
}

#[derive(Clone, Copy)]
struct Arrival {
    /// The arrival's index in the whole plan: its request id in the trace.
    id: u64,
    at: Duration,
    /// The load connection (and so the coordinating site) it is sent on.
    conn: usize,
    from: u64,
    to: u64,
    amount: i64,
}

/// Poisson arrivals at `rate` per second over `seconds`, each sent on a
/// uniformly chosen connection (so each connection's arrivals are Poisson
/// too).
fn arrivals(rng: &mut SimRng, rate: f64, seconds: f64, accounts: u64) -> Vec<Arrival> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exponential(1.0 / rate);
        if t >= seconds {
            return out;
        }
        let conn = rng.below(u64::from(SITES)) as usize;
        let from = rng.below(accounts);
        let to = (from + 1 + rng.below(accounts - 1)) % accounts;
        out.push(Arrival {
            id: out.len() as u64,
            at: Duration::from_secs_f64(t),
            conn,
            from,
            to,
            amount: 1 + rng.below(5) as i64,
        });
    }
}

/// Opens a pipelined client connection that speaks the wire protocol
/// directly, split into a sending and a receiving half. The open loop needs
/// a sender that sleeps precisely until each due time while replies are
/// read as they arrive; `NetClient` serves both directions from one `&mut`
/// and can only wait for a reply with a socket timeout, which the kernel
/// rounds up to a scheduler tick, adding up to a tick of generator lag.
fn split_connect(addr: SocketAddr, node: u32) -> Result<(TcpStream, TcpStream), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let hello = frame_bytes(&Frame::Hello {
        node,
        kind: PeerKind::Client,
    })
    .map_err(|e| format!("encode hello: {e}"))?;
    (&stream)
        .write_all(&hello)
        .map_err(|e| format!("send hello: {e}"))?;
    let reader = stream
        .try_clone()
        .map_err(|e| format!("clone socket: {e}"))?;
    // The reader wakes periodically to notice that the run is over.
    reader
        .set_read_timeout(Some(Duration::from_millis(20)))
        .map_err(|e| format!("read timeout: {e}"))?;
    Ok((stream, reader))
}

struct InFlight {
    arrival: usize,
    due: Instant,
    attempts: u32,
    request: Option<SpanId>,
    sent: Instant,
}

/// State the open-loop sender shares with the reply readers.
struct Shared<'a> {
    plan: &'a [Arrival],
    pending: Mutex<HashMap<(usize, u64), InFlight>>,
    /// Requests not yet finished, per connection.
    open: Vec<AtomicU64>,
    all_sent: AtomicBool,
    tracer: Mutex<Tracer>,
    trace: bool,
}

impl Shared<'_> {
    /// The tracer, when this is the traced run (the untraced run takes no
    /// lock for it).
    fn tracer(&self) -> Option<MutexGuard<'_, Tracer>> {
        self.trace
            .then(|| self.tracer.lock().expect("tracer poisoned"))
    }
}

/// Sends one attempt of an arrival on connection `k`.
fn send_attempt(
    sh: &Shared,
    conn: &mut TcpStream,
    k: usize,
    req_id: u64,
    f: InFlight,
) -> Result<(), String> {
    let a = sh.plan[f.arrival];
    let frame = Frame::Proto {
        from: SITES + 1 + 2 * SITES + k as u32,
        msg: Msg::Submit {
            req_id,
            spec: transfer_spec(a.from, a.to, a.amount),
        },
    };
    let t0 = Instant::now();
    let bytes = frame_bytes(&frame).map_err(|e| format!("encode: {e}"))?;
    let request = f.request;
    // Registered before the write so the reply cannot overtake it.
    sh.pending
        .lock()
        .expect("pending map poisoned")
        .insert((k, req_id), InFlight { sent: t0, ..f });
    conn.write_all(&bytes).map_err(|e| format!("send: {e}"))?;
    let t1 = Instant::now();
    if let Some(mut tr) = sh.tracer() {
        tr.span("net.submit", t0, t1, request, a.id);
    }
    Ok(())
}

/// Reads replies on connection `k` until every request on it is finished
/// or the drain deadline passes.
fn read_replies(
    sh: &Shared,
    mut conn: TcpStream,
    k: usize,
    site: u64,
    retry: mpsc::Sender<(usize, InFlight)>,
    drain_end: Instant,
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        while let Some((frame, n)) = decode_frame(&buf).map_err(|e| format!("decode: {e}"))? {
            buf.drain(..n);
            let t = Instant::now();
            let Frame::Proto {
                msg: Msg::Reply { req_id, result },
                ..
            } = frame
            else {
                continue;
            };
            let Some(f) = sh
                .pending
                .lock()
                .expect("pending map poisoned")
                .remove(&(k, req_id))
            else {
                continue;
            };
            let a = sh.plan[f.arrival];
            if let Some(mut tr) = sh.tracer() {
                tr.span("net.reply_wait", f.sent, t, f.request, a.id);
            }
            let finished = match result {
                TxnResult::Committed { .. } => {
                    tally.commit(t - f.due, a.from % 2 == site && a.to % 2 == site);
                    true
                }
                TxnResult::Aborted { reason } if transient(&reason) && f.attempts < RETRY_CAP => {
                    tally.retries += 1;
                    let again = InFlight {
                        attempts: f.attempts + 1,
                        ..f
                    };
                    retry
                        .send((k, again))
                        .map_err(|_| "sender gone".to_string())?;
                    false
                }
                TxnResult::Aborted { reason } => {
                    tally.abort(&reason);
                    true
                }
            };
            if finished {
                if let Some(mut tr) = sh.tracer() {
                    tr.close(f.request, t);
                }
                sh.open[k].fetch_sub(1, Ordering::SeqCst);
            }
        }
        if sh.all_sent.load(Ordering::SeqCst) && sh.open[k].load(Ordering::SeqCst) == 0 {
            return Ok(tally);
        }
        if Instant::now() > drain_end {
            tally.timed_out += sh.open[k].load(Ordering::SeqCst);
            return Ok(tally);
        }
        match conn.read(&mut chunk) {
            Ok(0) => return Err(format!("site {k} closed the connection")),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
    }
}

/// Open-loop driver: one sender thread sends each transfer on its
/// connection when it is due, whatever is outstanding; one reader per
/// connection times each transfer from its due time.
fn open_loop(
    addrs: &[SocketAddr],
    plan: &[Arrival],
    start: Instant,
    tracer: Tracer,
) -> Result<(Tally, Tracer), String> {
    let mut senders = Vec::new();
    let mut readers = Vec::new();
    for (k, addr) in addrs.iter().enumerate() {
        let (w, r) = split_connect(*addr, SITES + 1 + 2 * SITES + k as u32)?;
        senders.push(w);
        readers.push(r);
    }
    let last = plan.last().map_or(Duration::ZERO, |a| a.at);
    let drain_end = start + last + CALL_DEADLINE;
    let sh = Shared {
        plan,
        pending: Mutex::new(HashMap::new()),
        open: addrs.iter().map(|_| AtomicU64::new(0)).collect(),
        all_sent: AtomicBool::new(false),
        trace: tracer.enabled(),
        tracer: Mutex::new(tracer),
    };
    let (retry_tx, retry_rx) = mpsc::channel::<(usize, InFlight)>();
    let mut tally = Tally::default();
    let results: Vec<Result<Tally, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(k, r)| {
                let (sh, tx) = (&sh, retry_tx.clone());
                s.spawn(move || read_replies(sh, r, k, k as u64, tx, drain_end))
            })
            .collect();
        drop(retry_tx);
        let sent = send_all(&sh, &mut senders, start, &retry_rx, &mut tally);
        sh.all_sent.store(true, Ordering::SeqCst);
        let mut results: Vec<Result<Tally, String>> = handles
            .into_iter()
            .map(|h| h.join().expect("reply reader panicked"))
            .collect();
        results.push(sent.map(|()| Tally::default()));
        results
    });
    for r in results {
        tally.absorb(r?);
    }
    let tracer = sh.tracer.into_inner().expect("tracer poisoned");
    Ok((tally, tracer))
}

/// The sender: sleeps until the next due time (or a retry to resend) and
/// sends; returns once every arrival is sent and no retry can follow.
fn send_all(
    sh: &Shared,
    conns: &mut [TcpStream],
    start: Instant,
    retries: &mpsc::Receiver<(usize, InFlight)>,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut next_req = vec![1u64; conns.len()];
    let mut next = 0;
    // Retries waiting out their backoff: (resend time, connection, request).
    let mut delayed: Vec<(Instant, usize, InFlight)> = Vec::new();
    loop {
        let now = Instant::now();
        if let Some(i) = delayed.iter().position(|(t, _, _)| *t <= now) {
            let (_, k, f) = delayed.swap_remove(i);
            send_attempt(sh, &mut conns[k], k, next_req[k], f)?;
            next_req[k] += 1;
            continue;
        }
        match sh.plan.get(next) {
            Some(a) if start + a.at <= now => {
                let due = start + a.at;
                tally.attempted += 1;
                tally.late_ms.push(ms(now - due));
                let request = sh
                    .tracer()
                    .and_then(|mut t| t.open("request", due, None, a.id));
                sh.open[a.conn].fetch_add(1, Ordering::SeqCst);
                let f = InFlight {
                    arrival: next,
                    due,
                    attempts: 0,
                    request,
                    sent: now,
                };
                send_attempt(sh, &mut conns[a.conn], a.conn, next_req[a.conn], f)?;
                next_req[a.conn] += 1;
                next += 1;
                continue;
            }
            Some(_) => {}
            None => sh.all_sent.store(true, Ordering::SeqCst),
        }
        let wake = delayed
            .iter()
            .map(|(t, _, _)| *t)
            .chain(sh.plan.get(next).map(|a| start + a.at))
            .min();
        let wait = wake.map_or(CALL_DEADLINE, |w| w.saturating_duration_since(now));
        match retries.recv_timeout(wait) {
            Ok((k, f)) => {
                let pause = backoff(f.attempts, sh.plan[f.arrival].id);
                delayed.push((Instant::now() + pause, k, f));
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            // Both readers are done: nothing is outstanding any more.
            Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}

/// Closed-loop driver of one connection for `hot-read`: `ops` operations,
/// 90% snapshot reads of one hot item homed at this site, 10% transfers
/// among the hot items.
fn closed_loop(
    client: &mut NetClient,
    site: u64,
    rng: &mut SimRng,
    ops: u64,
    conn: u64,
    tr: &mut Tracer,
) -> Result<Tally, String> {
    let mine: Vec<u64> = (0..HOT_SET).filter(|i| i % 2 == site).collect();
    let mut tally = Tally::default();
    let mut req = conn << 32;
    for _ in 0..ops {
        req += 1;
        tally.attempted += 1;
        if rng.unit() < READ_SHARE {
            let item = ItemId(mine[rng.below(mine.len() as u64) as usize]);
            tally.reads_issued += 1;
            let t0 = Instant::now();
            let view = client.snapshot_read(&[item], CALL_DEADLINE);
            let t1 = Instant::now();
            tr.span("net.snapshot_read", t0, t1, None, req);
            match view {
                Ok((_, entries)) if entries.len() == 1 && entries[0].0 == item => {
                    tally.read_ms.push(ms(t1 - t0));
                    if t1 - t0 > LATENCY_LIMIT {
                        tally.over_limit += 1;
                    } else {
                        tally.reads += 1;
                    }
                }
                Ok((_, entries)) => tally.read_errors.push(format!(
                    "snapshot_read of item {} returned items {:?}",
                    item.0,
                    entries.iter().map(|(i, _)| i.0).collect::<Vec<_>>()
                )),
                Err(EngineError::Timeout) => tally.timed_out += 1,
                Err(e) => return Err(format!("snapshot_read: {e}")),
            }
            continue;
        }
        let from = rng.below(HOT_SET);
        let to = (from + 1 + rng.below(HOT_SET - 1)) % HOT_SET;
        let spec = transfer_spec(from, to, 1 + rng.below(5) as i64);
        let due = Instant::now();
        let request = tr.open("request", due, None, req);
        let mut attempts = 0;
        loop {
            match call(client, &spec, tr, request, req) {
                Ok(TxnResult::Committed { .. }) => {
                    let t = Instant::now();
                    tr.close(request, t);
                    tally.commit(t - due, from % 2 == site && to % 2 == site);
                }
                Ok(TxnResult::Aborted { reason }) if transient(&reason) && attempts < RETRY_CAP => {
                    attempts += 1;
                    tally.retries += 1;
                    std::thread::sleep(backoff(attempts, req));
                    continue;
                }
                Ok(TxnResult::Aborted { reason }) => tally.abort(&reason),
                Err(EngineError::Timeout) => tally.timed_out += 1,
                Err(e) => return Err(format!("transfer: {e}")),
            }
            tr.close(request, Instant::now());
            break;
        }
    }
    Ok(tally)
}

/// What the load phase of a socket workload produced.
struct Driven {
    tally: Tally,
    /// The end-to-end rate and latency (see [`transfer`] and
    /// [`hot_read`] for how each workload defines them).
    ops_per_s: f64,
    latency_ms: f64,
    /// Set-up times of clusters probed between parts of the load.
    set_ups: Vec<f64>,
}

/// What a socket workload measured, before it becomes an [`Outcome`].
struct Measured {
    setup_s: f64,
    elapsed_s: f64,
    driven: Driven,
    tracer: Tracer,
    site: ProcSample,
    before: Metrics,
    after: Metrics,
    disk_bytes: u64,
    gate_errors: Vec<String>,
}

/// Runs one socket workload: set up, run `drive` from the start of the
/// measured phase, then account, scrape, audit and shut down.
fn measure<F>(cfg: &RunConfig, accounts: u64, durable: bool, drive: F) -> Result<Measured, String>
where
    F: FnOnce(&mut Ready, Instant) -> Result<(Driven, Tracer), String>,
{
    let epoch = Instant::now();
    let mut tracer = Tracer::new(cfg.trace, epoch);
    let data_dir: Option<PathBuf> =
        durable.then(|| cfg.work_dir.join(format!("{}-data", cfg.workload)));
    let dir = data_dir.as_deref();
    let mut set_ups = probe_set_ups(cfg, accounts, dir, &mut tracer, SETUPS - 1)?;
    let (mut ready, t) = set_up_once(cfg, accounts, dir, &mut tracer)?;
    set_ups.push(t);
    let before = scrape(&mut ready.control, &mut tracer)?;
    let proc0 = ready.cluster.sample()?;
    let start = Instant::now();
    let (mut driven, load_tracer) = drive(&mut ready, epoch)?;
    set_ups.append(&mut driven.set_ups);
    let elapsed_s = start.elapsed().as_secs_f64();
    // Read the site accounting after load stops and before shutdown.
    let proc1 = ready.cluster.sample()?;
    tracer.absorb(load_tracer);
    let after = scrape(&mut ready.control, &mut tracer)?;
    let mut gate_errors = Vec::new();
    if let Err(e) = audit(&mut ready.control, accounts) {
        gate_errors.push(e);
    }
    gate_errors.append(&mut driven.tally.read_errors);
    drop(ready.load);
    drop(ready.control);
    ready.cluster.shutdown()?;
    let disk_bytes = dir.map_or(0, procfs::disk_bytes);
    set_ups.extend(probe_set_ups(cfg, accounts, dir, &mut tracer, SETUPS)?);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let site: Vec<ProcSample> = proc1.iter().zip(&proc0).map(|(a, b)| a.since(b)).collect();
    Ok(Measured {
        setup_s: pct(&set_ups, 0.0),
        elapsed_s,
        driven,
        tracer,
        site: ProcSample::sum(&site),
        before,
        after,
        disk_bytes,
        gate_errors,
    })
}

/// Fills the layer metrics both socket workloads share.
fn layers(m: &Measured, ops: f64, out: &mut Outcome) {
    let delta = |name: &str| m.after.counter(name).saturating_sub(m.before.counter(name)) as f64;
    let per = |v: f64, base: f64| if base > 0.0 { v / base } else { 0.0 };
    let commits = delta("txn.committed");
    let phase = |name: &str, q: f64| {
        m.after
            .histogram(name)
            .and_then(|h| h.quantile(q))
            .map_or(0.0, |s| s * 1e3)
    };
    let t = &m.driven.tally;
    let commit_p50 = pct(&t.commit_ms(), 0.5);
    let l = &mut out.layers;
    l.insert("site.cpu_us_per_op".into(), per(m.site.cpu_us, ops));
    l.insert(
        "site.vol_ctx_switches_per_op".into(),
        per(m.site.vol_ctx as f64, ops),
    );
    l.insert(
        "site.invol_ctx_switches_per_op".into(),
        per(m.site.invol_ctx as f64, ops),
    );
    l.insert(
        "net.idle_wakeups_per_s".into(),
        delta("net.idle_wakeups") / m.elapsed_s,
    );
    l.insert(
        "net.submit_call_us".into(),
        pct(&m.tracer.durations_ms("net.submit"), 0.5) * 1e3,
    );
    l.insert(
        "net.reply_wait_ms".into(),
        pct(&m.tracer.durations_ms("net.reply_wait"), 0.5),
    );
    for (hist, key) in [
        ("phase.submit_prepared", "protocol.submit_prepared"),
        ("phase.prepared_decided", "protocol.prepared_decided"),
        ("phase.submit_decided", "protocol.submit_decided"),
    ] {
        l.insert(format!("{key}_p50_ms"), phase(hist, 0.5));
        l.insert(format!("{key}_p99_ms"), phase(hist, 0.99));
    }
    l.insert(
        "protocol.remainder_p50_ms".into(),
        commit_p50 - phase("phase.submit_decided", 0.5),
    );
    l.insert("protocol.local_commit_p50_ms".into(), pct(&t.local_ms, 0.5));
    l.insert(
        "protocol.distributed_commit_p50_ms".into(),
        pct(&t.distributed_ms, 0.5),
    );
    l.insert(
        "loadgen.retries_per_request".into(),
        per(t.retries as f64, t.attempted as f64),
    );
    l.insert(
        "site.wal_write_bytes_per_commit".into(),
        per(m.site.wchar as f64, commits),
    );
    l.insert("store.disk_bytes_end".into(), m.disk_bytes as f64);
    l.insert(
        "failed_frac".into(),
        per(t.not_served() as f64, t.attempted as f64),
    );
    l.insert("commit_p50_ms".into(), commit_p50);
    l.insert("commit_p99_ms".into(), pct(&t.commit_ms(), 0.99));
    counter_layers(out, delta);
}

fn outcome(m: Measured, ops: f64) -> Outcome {
    let t = &m.driven.tally;
    let mut out = Outcome {
        attempted: t.attempted,
        failed: t.failed(),
        failures: vec![
            (
                "aborted on lock conflicts past the retry cap",
                t.aborted_lock,
            ),
            ("aborted on timeouts past the retry cap", t.aborted_timeout),
            ("aborted on evaluation error", t.aborted_eval),
            ("rejected", t.aborted_other),
            ("no reply in time", t.timed_out),
        ],
        unserved: vec![("answered later than the latency limit", t.over_limit)],
        setup_s: m.setup_s,
        ops_per_s: m.driven.ops_per_s,
        latency_ms: m.driven.latency_ms,
        peak_rss_mb: m.site.peak_rss as f64 / (1024.0 * 1024.0),
        ..Outcome::default()
    };
    layers(&m, ops, &mut out);
    out.gate_errors = m.gate_errors;
    out.tracer = m.tracer;
    time_table(&mut out);
    out
}

/// The "where the time goes" table of a socket workload: the client's
/// commit median split into the generator's lag, the submit call, the
/// site-measured protocol phases, and the remainder (network, inbox and
/// client decode).
fn time_table(out: &mut Outcome) {
    let commit = out.layer("commit_p50_ms");
    let late = pct(&out.tracer.self_ms("request"), 0.5);
    let submit = out.layer("net.submit_call_us") / 1e3;
    let prepared = out.layer("protocol.submit_prepared_p50_ms");
    let decided = out.layer("protocol.prepared_decided_p50_ms");
    let rows = [
        ("commit_p50_ms (client, from due time)", commit, ""),
        (
            "  request self time (lag, retry gaps)",
            late,
            "span self time",
        ),
        ("  net.submit", submit, "span"),
        (
            "  site submit -> prepared",
            prepared,
            "phase.submit_prepared p50",
        ),
        (
            "  site prepared -> decided",
            decided,
            "phase.prepared_decided p50",
        ),
        (
            "  remainder: network, inbox, client",
            commit - late - submit - prepared - decided,
            "difference",
        ),
        (
            "protocol.remainder_p50_ms",
            out.layer("protocol.remainder_p50_ms"),
            "commit p50 - phase.submit_decided p50",
        ),
    ];
    out.table = rows
        .iter()
        .map(|(l, v, n)| (l.to_string(), *v, n.to_string()))
        .collect();
    let reads = out.tracer.durations_ms("net.snapshot_read");
    if !reads.is_empty() {
        let row = (
            "read: net.snapshot_read".into(),
            pct(&reads, 0.5),
            "span".into(),
        );
        out.table.push(row);
    }
}

/// `transfer`: uniform transfers over 10,000 accounts arriving open loop
/// (Poisson) at a fixed rate, on two durable sites. The arrival window runs
/// as [`TRANSFER_PARTS`] open loops in turn, each drained before the next,
/// with one set-up probed between parts. `latency_ms` is the median commit
/// latency, from the due time, of the fastest part. `ops_per_s` is the
/// goodput over the whole arrival window: it is pinned to the offered rate
/// and moves only when transfers fail or come back later than the latency
/// limit.
pub fn transfer(cfg: &RunConfig) -> Result<Outcome, String> {
    let plan = arrivals(
        &mut SimRng::new(cfg.seed),
        TRANSFER_RATE,
        cfg.seconds,
        TRANSFER_ACCOUNTS,
    );
    let part_s = cfg.seconds / f64::from(TRANSFER_PARTS);
    let part_of = |a: &Arrival| ((a.at.as_secs_f64() / part_s) as u32).min(TRANSFER_PARTS - 1);
    let m = measure(cfg, TRANSFER_ACCOUNTS, true, |ready, epoch| {
        let mut tally = Tally::default();
        let mut tracer = Tracer::new(cfg.trace, epoch);
        let mut medians = Vec::new();
        let mut set_ups = Vec::new();
        for p in 0..TRANSFER_PARTS {
            let offset = Duration::from_secs_f64(part_s * f64::from(p));
            let part: Vec<Arrival> = plan
                .iter()
                .filter(|a| part_of(a) == p)
                .map(|a| Arrival {
                    at: a.at - offset,
                    ..*a
                })
                .collect();
            let (t, tr) = open_loop(
                &ready.cluster.addrs,
                &part,
                Instant::now(),
                Tracer::new(cfg.trace, epoch),
            )?;
            medians.push(pct(&t.commit_ms(), 0.5));
            tally.absorb(t);
            tracer.absorb(tr);
            set_ups.push(probe_between(cfg, TRANSFER_ACCOUNTS, true, &mut tracer)?);
        }
        let driven = Driven {
            ops_per_s: tally.served as f64 / cfg.seconds,
            latency_ms: pct(&medians, 0.0),
            tally,
            set_ups,
        };
        Ok((driven, tracer))
    })?;
    let served = m.driven.tally.served as f64;
    let late_p99 = pct(&m.driven.tally.late_ms, 0.99);
    let mut out = outcome(m, served);
    out.layers.insert("loadgen.late_p99_ms".into(), late_p99);

    out.layers
        .insert("goodput_tps".into(), served / cfg.seconds);
    Ok(out)
}

/// `hot-read`: two closed-loop connections, 90% snapshot reads of one item
/// from an 8-item hot set, 10% transfers among the hot items, in memory.
/// The load runs as [`HOT_REPEATS`] repetitions of a fixed number of
/// operations; `ops_per_s` (reads plus served transfers per second) and
/// `latency_ms` come from the fastest repetition. `latency_ms` is the mean
/// latency of its reads and committed transfers. Their latencies have two modes, about 25 us when a site is
/// polling and about 0.3 ms when a request waits out a site's idle sleep;
/// the median falls between them and jumps from run to run, while the
/// mean moves with the mix.
pub fn hot_read(cfg: &RunConfig) -> Result<Outcome, String> {
    let ops = (HOT_NOMINAL_RATE * cfg.seconds / f64::from(HOT_REPEATS * SITES)).round() as u64;
    let m = measure(cfg, HOT_ACCOUNTS, false, |ready, epoch| {
        let mut rngs: Vec<SimRng> = (0..SITES)
            .map(|k| SimRng::new(cfg.seed).fork(u64::from(k)))
            .collect();
        let mut tally = Tally::default();
        let mut tracer = Tracer::new(cfg.trace, epoch);
        let mut best: Option<(f64, f64)> = None;
        let mut set_ups = Vec::new();
        for r in 0..HOT_REPEATS {
            let rep_start = Instant::now();
            let results: Vec<(Result<Tally, String>, Tracer)> = std::thread::scope(|s| {
                let handles: Vec<_> = ready
                    .load
                    .iter_mut()
                    .zip(rngs.iter_mut())
                    .enumerate()
                    .map(|(k, (client, rng))| {
                        let conn = u64::from(r * SITES) + k as u64;
                        s.spawn(move || {
                            let mut tr = Tracer::new(cfg.trace, epoch);
                            (closed_loop(client, k as u64, rng, ops, conn, &mut tr), tr)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("load thread panicked"))
                    .collect()
            });
            let elapsed_s = rep_start.elapsed().as_secs_f64();
            let mut rep = Tally::default();
            for (result, tr) in results {
                rep.absorb(result?);
                tracer.absorb(tr);
            }
            let rate = (rep.reads + rep.served) as f64 / elapsed_s;
            if best.is_none_or(|(b, _)| rate > b) {
                let mut latencies = rep.commit_ms();
                latencies.extend_from_slice(&rep.read_ms);
                let mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
                best = Some((rate, mean));
            }
            tally.absorb(rep);
            set_ups.push(probe_between(cfg, HOT_ACCOUNTS, false, &mut tracer)?);
        }
        let (ops_per_s, latency_ms) = best.expect("at least one repetition");
        let driven = Driven {
            tally,
            ops_per_s,
            latency_ms,
            set_ups,
        };
        Ok((driven, tracer))
    })?;
    // The first scrape follows set-up's reads, so the sites must count
    // exactly the reads of the load.
    let site_reads =
        m.after.counter("store.snapshot_reads") - m.before.counter("store.snapshot_reads");
    let issued = m.driven.tally.reads_issued;
    let read_ms = m.driven.tally.read_ms.clone();
    let ops = (m.driven.tally.reads + m.driven.tally.served) as f64;
    let mut out = outcome(m, ops);
    if site_reads != issued {
        out.gate_errors.push(format!(
            "sites served {site_reads} snapshot reads, the client issued {issued}"
        ));
    }
    out.layers.insert("read_p50_ms".into(), pct(&read_ms, 0.5));
    out.layers.insert("read_p99_ms".into(), pct(&read_ms, 0.99));
    Ok(out)
}
