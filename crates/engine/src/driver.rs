//! The site driver shared by the two wall-clock runtimes.
//!
//! [`SiteDriver`] is how the thread-per-site
//! [`LiveCluster`](crate::live::LiveCluster) and the `pv-net` socket node
//! both run a [`Site`]: it owns the site, its timer heap, the [`Ctx`]
//! effect dispatch and a self-send queue. Its thread blocks in
//! `recv_timeout` on one inbox until the next timer is due, capped by a
//! housekeeping tick; there is no poll sleep. The driver sits behind a
//! lock ([`Shared`]), free while its thread waits, so another thread may
//! run a callback itself ([`SiteDriver::apply`]): the socket node's client
//! readers do. [`Transport`] holds what differs: where a message to another
//! node goes, what else arrives in the inbox, and what upkeep the links
//! need. The driver contract of DESIGN.md §10 holds for both: effects apply
//! in emission order, self-sends are delivered in order right after the
//! callback that sent them, and a crash voids every pending timer.

use crate::error::EngineError;
use crate::site::Site;
use crate::topology::Topology;
use parking_lot::Mutex;
use pv_simnet::{Actor, Ctx, Effect, Metrics, NodeId, SimRng, SimTime, Trace};
use pv_store::{DiskWal, SiteId, SiteStore};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::ops::ControlFlow;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The runtime-specific half of a site driver: the links to other nodes and
/// the events that arrive beside protocol messages.
pub trait Transport<A: Actor> {
    /// What the runtime's threads put into the driver's inbox.
    type Event;

    /// Carries one message to another node. Self-sends never reach the
    /// transport; the driver delivers them itself.
    fn send(&mut self, to: NodeId, msg: A::Msg);

    /// Handles one inbox event, calling back into the site through
    /// `driver` as needed. `Break` ends [`SiteDriver::serve`].
    fn on_event(
        &mut self,
        driver: &mut SiteDriver<A>,
        event: Self::Event,
    ) -> Result<ControlFlow<()>, EngineError>;

    /// Periodic upkeep of the links, run at least every [`Transport::tick`].
    /// An error ends [`SiteDriver::serve`].
    fn housekeep(&mut self) -> Result<(), EngineError> {
        Ok(())
    }

    /// The housekeeping period. It also caps every inbox wait, so an idle
    /// site wakes this often.
    fn tick(&self) -> Duration {
        Duration::from_millis(50)
    }
}

/// A driver and its transport behind one lock. The driver's own thread
/// serves it ([`SiteDriver::serve`]); other threads may call into the actor
/// with [`SiteDriver::apply`]. `None` once its owner has taken them back.
pub type Shared<A, T> = Mutex<Option<(SiteDriver<A>, T)>>;

/// Drives one actor (a [`Site`] in both runtimes) on wall-clock time.
pub struct SiteDriver<A: Actor> {
    actor: A,
    me: NodeId,
    rng: SimRng,
    metrics: Arc<Mutex<Metrics>>,
    trace: Arc<Mutex<Trace>>,
    next_timer_id: u64,
    /// Armed timers as `(due, id, key)`, earliest first (ties in arming
    /// order).
    timers: BinaryHeap<Reverse<(Instant, u64, u64)>>,
    cancelled: BTreeSet<u64>,
    loopback: VecDeque<A::Msg>,
    /// Wall-clock origin of the actor's [`SimTime`] (microseconds since).
    epoch: Instant,
    up: bool,
    /// When the driver thread's current inbox wait ends.
    wait_until: Instant,
    /// Whether a callback run by [`SiteDriver::apply`] stopped the driver.
    stopped: bool,
}

impl<A: Actor> SiteDriver<A> {
    /// Wraps `actor` as node `me`. Its callbacks draw from a [`SimRng`]
    /// seeded with `seed` and record into the shared `metrics` and `trace`.
    pub fn new(
        actor: A,
        me: NodeId,
        seed: u64,
        metrics: Arc<Mutex<Metrics>>,
        trace: Arc<Mutex<Trace>>,
        epoch: Instant,
    ) -> Self {
        SiteDriver {
            actor,
            me,
            rng: SimRng::new(seed),
            metrics,
            trace,
            next_timer_id: 0,
            timers: BinaryHeap::new(),
            cancelled: BTreeSet::new(),
            loopback: VecDeque::new(),
            epoch,
            up: true,
            wait_until: epoch,
            stopped: false,
        }
    }

    /// The driven actor.
    pub fn actor(&self) -> &A {
        &self.actor
    }

    /// Whether the actor is up (not crashed).
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Runs one actor callback and applies its effects in emission order,
    /// then delivers, in order, the messages the actor sent itself (and any
    /// those deliveries send it in turn).
    pub fn callback<T: Transport<A>>(
        &mut self,
        net: &mut T,
        f: impl FnOnce(&mut A, &mut Ctx<A::Msg>),
    ) {
        self.step(net, f);
        while let Some(msg) = self.loopback.pop_front() {
            let me = self.me;
            self.step(net, |actor, ctx| actor.on_message(ctx, me, msg));
        }
    }

    fn step<T: Transport<A>>(&mut self, net: &mut T, f: impl FnOnce(&mut A, &mut Ctx<A::Msg>)) {
        let now = SimTime(self.epoch.elapsed().as_micros() as u64);
        let effects = {
            let mut metrics = self.metrics.lock();
            let mut trace = self.trace.lock();
            let mut ctx = Ctx::external(
                now,
                self.me,
                &mut self.rng,
                &mut metrics,
                &mut trace,
                &mut self.next_timer_id,
            );
            f(&mut self.actor, &mut ctx);
            ctx.drain_effects()
        };
        for effect in effects {
            match effect {
                Effect::Send { to, msg } if to == self.me => self.loopback.push_back(msg),
                Effect::Send { to, msg } => net.send(to, msg),
                Effect::SetTimer { id, key, at } => {
                    let due = self.epoch + Duration::from_micros(at.as_micros());
                    self.timers.push(Reverse((due, id, key)));
                }
                Effect::CancelTimer(id) => {
                    self.cancelled.insert(id);
                }
            }
        }
    }

    /// Delivers a message from `from`; a crashed actor drops it.
    pub fn deliver<T: Transport<A>>(&mut self, net: &mut T, from: NodeId, msg: A::Msg) {
        if self.up {
            self.callback(net, |actor, ctx| actor.on_message(ctx, from, msg));
        }
    }

    /// Crashes the actor: its volatile state and every pending timer are
    /// gone. Returns whether it was up.
    pub fn crash(&mut self) -> bool {
        if !self.up {
            return false;
        }
        self.up = false;
        self.timers.clear();
        self.cancelled.clear();
        self.actor.on_crash();
        true
    }

    /// Recovers a crashed actor. Returns whether it was down.
    pub fn recover<T: Transport<A>>(&mut self, net: &mut T) -> bool {
        if self.up {
            return false;
        }
        self.up = true;
        self.callback(net, |actor, ctx| actor.on_recover(ctx));
        true
    }

    /// When the earliest pending timer is due (none fire while down).
    fn next_due(&self) -> Option<Instant> {
        self.timers
            .peek()
            .filter(|_| self.up)
            .map(|Reverse((due, _, _))| *due)
    }

    /// Fires every timer due by now, in due order.
    fn fire_due_timers<T: Transport<A>>(&mut self, net: &mut T) {
        while self.next_due().is_some_and(|due| due <= Instant::now()) {
            let Reverse((_, id, key)) = self.timers.pop().expect("peeked");
            if !self.cancelled.remove(&id) {
                self.callback(net, |actor, ctx| actor.on_timer(ctx, key));
            }
        }
    }

    /// Gives the actor back.
    pub fn into_actor(self) -> A {
        self.actor
    }

    /// The driver thread's loop: handles each inbox event as it arrives,
    /// fires due timers, runs housekeeping at least every tick, and then
    /// waits on the inbox, with the lock free, until the next timer is due.
    /// A wait that ends with no event and no timer due counts as
    /// `net.idle_wakeups`. Returns when the transport or an
    /// [`apply`](SiteDriver::apply) call stops the driver, the inbox
    /// disconnects, or housekeeping fails.
    pub fn serve<T: Transport<A>>(
        shared: &Shared<A, T>,
        inbox: &Receiver<T::Event>,
    ) -> Result<(), EngineError> {
        let mut next_housekeeping = Instant::now();
        let mut waited = None;
        loop {
            let mut guard = shared.lock();
            let (driver, net) = guard.as_mut().expect("served drivers stay");
            let stop = match waited {
                Some(Ok(event)) => net.on_event(driver, event)?.is_break(),
                Some(Err(RecvTimeoutError::Timeout)) => {
                    if driver.next_due().is_none_or(|due| due > Instant::now()) {
                        driver.metrics.lock().inc("net.idle_wakeups");
                    }
                    false
                }
                Some(Err(RecvTimeoutError::Disconnected)) => true,
                None => false,
            };
            if stop || driver.stopped {
                return Ok(());
            }
            driver.fire_due_timers(net);
            let now = Instant::now();
            if now >= next_housekeeping {
                net.housekeep()?;
                next_housekeeping = now + net.tick();
            }
            driver.wait_until = driver
                .next_due()
                .map_or(next_housekeeping, |due| due.min(next_housekeeping));
            let wait = driver.wait_until.saturating_duration_since(now);
            drop(guard);
            waited = Some(inbox.recv_timeout(wait));
        }
    }

    /// Runs `f` on the driver and its transport from a thread other than
    /// the driver's own. If `f` stopped the driver, or armed a timer due
    /// before the driver thread's wait ends, `wake` is called once the lock
    /// is free; it must wake the driver thread. Returns false once the
    /// driver has stopped or been taken back.
    pub fn apply<T>(
        shared: &Shared<A, T>,
        f: impl FnOnce(&mut SiteDriver<A>, &mut T) -> ControlFlow<()>,
        wake: impl FnOnce(),
    ) -> bool {
        let mut guard = shared.lock();
        let Some((driver, net)) = guard.as_mut().filter(|(d, _)| !d.stopped) else {
            return false;
        };
        driver.stopped = f(driver, net).is_break();
        let early = driver.next_due().filter(|due| *due < driver.wait_until);
        driver.wait_until = early.unwrap_or(driver.wait_until);
        let woken = driver.stopped || early.is_some();
        drop(guard);
        if woken {
            wake();
        }
        true
    }
}

/// Builds site `s` of `topo` for a wall-clock runtime: a disk WAL under
/// `data_dir/site-<s>` when the topology has a data directory, the seeded
/// items it is home to (made durable before it serves), and wall-clock
/// metrics. Also returns whether the store opened a non-empty durable image,
/// in which case the runtime replays recovery before serving traffic.
pub fn open_site(topo: &Topology, s: SiteId) -> Result<(Site, bool), EngineError> {
    let store = match &topo.data_dir {
        Some(dir) => {
            let path = dir.join(format!("site-{s}"));
            let wal = DiskWal::open(&path, topo.fsync_policy)
                .map_err(|e| EngineError::Io(format!("open WAL at {}: {e}", path.display())))?;
            let mut store = SiteStore::open(Box::new(wal));
            // Mirror keyspace runs beside the WAL (derived state; the WAL
            // stays the authoritative log).
            store.attach_keyspace_dir(&path);
            store
        }
        None => SiteStore::new(),
    };
    let recovered = !store.wal().is_empty();
    let mut site = Site::with_store(s, topo.engine.clone(), topo.directory.clone(), store);
    site.enable_wall_clock_metrics();
    for (item, value) in &topo.items {
        if topo.directory.site_of(*item) == Some(s) && !site.store().contains(*item) {
            site.seed_item(*item, value.clone());
        }
    }
    site.sync_store();
    Ok((site, recovered))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_simnet::SimDuration;
    use std::sync::mpsc;

    #[derive(Debug, Clone, PartialEq)]
    enum Cmd {
        /// Arm one timer per `(delay_ms, key)`.
        Arm(Vec<(u64, u64)>),
        /// Emit a fixed mix of sends, a self-send and a cancelled timer.
        Script,
        Note(u64),
    }

    /// Records what the driver hands it; every fired timer is reported to
    /// node 9.
    #[derive(Default)]
    struct Recorder {
        heard: Vec<Cmd>,
        fired: Vec<u64>,
        crashed: bool,
    }

    impl Actor for Recorder {
        type Msg = Cmd;

        fn on_message(&mut self, ctx: &mut Ctx<Cmd>, from: NodeId, msg: Cmd) {
            self.heard.push(msg.clone());
            match msg {
                Cmd::Arm(timers) => {
                    for (ms, key) in timers {
                        ctx.set_timer(SimDuration::from_millis(ms), key);
                    }
                }
                Cmd::Script => {
                    ctx.send(NodeId(5), Cmd::Note(1));
                    let me = ctx.me();
                    ctx.send(me, Cmd::Note(2));
                    let t = ctx.set_timer(SimDuration::from_millis(0), 7);
                    ctx.send(NodeId(6), Cmd::Note(3));
                    ctx.cancel_timer(t);
                }
                Cmd::Note(n) if from == ctx.me() => ctx.send(NodeId(5), Cmd::Note(n * 10)),
                Cmd::Note(_) => {}
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<Cmd>, key: u64) {
            self.fired.push(key);
            ctx.send(NodeId(9), Cmd::Note(key));
        }

        fn on_crash(&mut self) {
            self.crashed = true;
        }
    }

    enum Ev {
        Deliver(Cmd),
        Wake,
        Stop,
    }

    /// An in-memory transport: records every send, and stops the driver
    /// once `stop_after` timer reports reached node 9.
    struct Wire {
        sent: Vec<(NodeId, Cmd)>,
        reports: usize,
        stop_after: usize,
        inbox: mpsc::Sender<Ev>,
        tick: Duration,
        /// Told each time the driver runs housekeeping, which it does
        /// with the lock held, right before a wait.
        housekept: Option<mpsc::Sender<()>>,
    }

    impl Transport<Recorder> for Wire {
        type Event = Ev;

        fn send(&mut self, to: NodeId, msg: Cmd) {
            self.sent.push((to, msg));
            if to == NodeId(9) {
                self.reports += 1;
                if self.reports == self.stop_after {
                    self.inbox.send(Ev::Stop).unwrap();
                }
            }
        }

        fn on_event(
            &mut self,
            driver: &mut SiteDriver<Recorder>,
            event: Ev,
        ) -> Result<ControlFlow<()>, EngineError> {
            match event {
                Ev::Deliver(cmd) => driver.deliver(self, NodeId(100), cmd),
                Ev::Wake => {}
                Ev::Stop => return Ok(ControlFlow::Break(())),
            }
            Ok(ControlFlow::Continue(()))
        }

        fn housekeep(&mut self) -> Result<(), EngineError> {
            if let Some(tx) = &self.housekept {
                let _ = tx.send(());
            }
            Ok(())
        }

        fn tick(&self) -> Duration {
            self.tick
        }
    }

    /// Serves `wire` on this thread until the driver stops.
    fn run(
        driver: SiteDriver<Recorder>,
        wire: Wire,
        inbox: &mpsc::Receiver<Ev>,
    ) -> (Recorder, Wire) {
        let shared = Mutex::new(Some((driver, wire)));
        SiteDriver::serve(&shared, inbox).unwrap();
        let (driver, wire) = shared.into_inner().unwrap();
        (driver.into_actor(), wire)
    }

    fn setup(
        stop_after: usize,
        tick: Duration,
    ) -> (SiteDriver<Recorder>, Wire, mpsc::Receiver<Ev>) {
        let (tx, rx) = mpsc::channel();
        let metrics = Arc::new(Mutex::new(Metrics::new()));
        let trace = Arc::new(Mutex::new(Trace::default()));
        let driver = SiteDriver::new(
            Recorder::default(),
            NodeId(0),
            1,
            metrics,
            trace,
            Instant::now(),
        );
        let wire = Wire {
            sent: Vec::new(),
            reports: 0,
            stop_after,
            inbox: tx,
            tick,
            housekept: None,
        };
        (driver, wire, rx)
    }

    #[test]
    fn timers_fire_in_due_order() {
        let (driver, wire, inbox) = setup(4, Duration::from_millis(5));
        let arm = Cmd::Arm(vec![(30, 3), (10, 1), (20, 2), (20, 4)]);
        wire.inbox.send(Ev::Deliver(arm)).unwrap();
        let (actor, _) = run(driver, wire, &inbox);
        // Equal deadlines fire in arming order.
        assert_eq!(actor.fired, vec![1, 2, 4, 3]);
    }

    #[test]
    fn inbox_wait_ends_at_the_next_deadline() {
        // A housekeeping tick far longer than the timer: only the timer's
        // deadline can end the wait in time.
        let (driver, wire, inbox) = setup(1, Duration::from_secs(60));
        let metrics = Arc::clone(&driver.metrics);
        wire.inbox
            .send(Ev::Deliver(Cmd::Arm(vec![(20, 1)])))
            .unwrap();
        let start = Instant::now();
        let (actor, _) = run(driver, wire, &inbox);
        let waited = start.elapsed();
        assert_eq!(actor.fired, vec![1]);
        assert!(
            waited >= Duration::from_millis(20),
            "fired early: {waited:?}"
        );
        assert!(
            waited < Duration::from_secs(5),
            "waited past the deadline: {waited:?}"
        );
        assert_eq!(metrics.lock().counter("net.idle_wakeups"), 0);
    }

    #[test]
    fn effects_apply_in_emission_order() {
        let (driver, wire, inbox) = setup(usize::MAX, Duration::from_millis(5));
        wire.inbox.send(Ev::Deliver(Cmd::Script)).unwrap();
        wire.inbox.send(Ev::Stop).unwrap();
        let (actor, wire) = run(driver, wire, &inbox);
        // Sends leave in emission order; the self-send is delivered after
        // the callback that sent it (its own send, Note(20), comes last);
        // the timer cancelled after arming never fires.
        assert_eq!(
            wire.sent,
            vec![
                (NodeId(5), Cmd::Note(1)),
                (NodeId(6), Cmd::Note(3)),
                (NodeId(5), Cmd::Note(20)),
            ]
        );
        assert_eq!(actor.heard, vec![Cmd::Script, Cmd::Note(2)]);
        assert!(actor.fired.is_empty());
    }

    #[test]
    fn crash_voids_pending_timers() {
        let (mut driver, mut wire, _inbox) = setup(usize::MAX, Duration::from_millis(5));
        driver.deliver(&mut wire, NodeId(100), Cmd::Arm(vec![(0, 1), (5, 2)]));
        assert!(driver.crash());
        assert!(!driver.crash(), "already down");
        assert!(driver.actor().crashed);
        // A crashed site drops traffic and fires nothing.
        driver.deliver(&mut wire, NodeId(100), Cmd::Arm(vec![(0, 3)]));
        std::thread::sleep(Duration::from_millis(10));
        driver.fire_due_timers(&mut wire);
        assert!(driver.actor().fired.is_empty());
        // Recovery does not resurrect the voided timers; new ones fire.
        assert!(driver.recover(&mut wire));
        driver.fire_due_timers(&mut wire);
        assert!(driver.actor().fired.is_empty());
        driver.deliver(&mut wire, NodeId(100), Cmd::Arm(vec![(0, 4)]));
        driver.fire_due_timers(&mut wire);
        assert_eq!(driver.actor().fired, vec![4]);
    }

    #[test]
    fn apply_from_another_thread_wakes_the_driver() {
        // A long tick: only a wake from `apply` can end the driver's first
        // wait in time for the timer that `apply` arms. `apply` runs once
        // the driver has housekept, so it finds the wait already set.
        let (driver, mut wire, inbox) = setup(1, Duration::from_secs(60));
        let (housekept, waiting) = mpsc::channel();
        wire.housekept = Some(housekept);
        let wake = wire.inbox.clone();
        let shared: Arc<Shared<Recorder, Wire>> = Arc::new(Mutex::new(Some((driver, wire))));
        let caller = Arc::clone(&shared);
        let start = Instant::now();
        let other = std::thread::spawn(move || {
            waiting.recv().unwrap();
            let arm = |d: &mut SiteDriver<Recorder>, w: &mut Wire| {
                d.deliver(w, NodeId(100), Cmd::Arm(vec![(10, 1)]));
                ControlFlow::Continue(())
            };
            let woken = || wake.send(Ev::Wake).unwrap();
            assert!(SiteDriver::apply(&caller, arm, woken));
        });
        SiteDriver::serve(&shared, &inbox).unwrap();
        other.join().unwrap();
        let waited = start.elapsed();
        assert!(waited < Duration::from_secs(5), "wake lost: {waited:?}");
        let (driver, _) = shared.lock().take().unwrap();
        assert_eq!(driver.actor().fired, vec![1]);
        // Once stopped or taken back, `apply` reports it and runs nothing.
        let noop = |_: &mut SiteDriver<Recorder>, _: &mut Wire| -> ControlFlow<()> {
            panic!("must not run")
        };
        assert!(!SiteDriver::apply(&shared, noop, || {}));
    }
}
