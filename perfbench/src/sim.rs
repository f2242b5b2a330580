//! The two in-process workloads: `in-doubt` (the seeded simulation with
//! crashes and partitions) and `explore` (the model checker).

use crate::hostspeed::{at_reference, reference_ms};
use crate::procfs;
use crate::trace::Tracer;
use crate::{counter_layers, pct, Outcome, RunConfig};
use pv_core::ItemId;
use pv_engine::{ClientConfig, Cluster, ClusterBuilder, Directory, RandomTransfers};
use pv_protocol::explore::{ExploreConfig, Explorer};
use pv_simnet::{FailurePlan, Metrics, NodeId, SimDuration, SimRng, SimTime};
use std::time::{Duration, Instant};

const SITES: u32 = 4;
const ACCOUNTS: u64 = 64;
const INITIAL: i64 = 1_000;
const CLIENTS: u32 = 3;
/// Transfers per client per simulated second.
const CLIENT_RATE: f64 = 20.0;
/// The fault window is cut into this many equal windows of simulated
/// time, each timed on its own so that cost growing with history shows.
const WINDOWS: u64 = 5;
const WINDOW_SECS: u64 = 100;
/// Each client issues as many transfers as its rate gives over the fault
/// window less this margin. Arrivals are Poisson, so a client may still be
/// issuing after the fault window ends; `prompt_frac` therefore counts
/// only the transfers issued by then.
const ARRIVAL_MARGIN_SECS: u64 = 5;
/// Fault-free time after the fault window, for recovery to collapse every
/// polyvalue.
const TAIL_SECS: u64 = 25;
/// Faults come in fixed slots of this many simulated seconds. In each
/// slot every site crashes once and starts one link partition, each at a
/// seeded uniform time: the rate of a Poisson plan at 0.05 per site per
/// second, but with a fixed count, so seeds differ in where faults fall
/// and not in how many there are (which moved the cost per commit by
/// about ±15% between seeds).
const FAULT_SLOT_SECS: f64 = 20.0;
const MEAN_DOWNTIME_SECS: f64 = 0.8;
/// Outages are capped so a site is back before its next slot.
const MAX_DOWNTIME_SECS: f64 = 5.0;
/// The seed's simulation runs again and again until `--seconds` have
/// passed, and at least this many times so the determinism gate compares
/// two. The simulation is deterministic, so every repetition of a window
/// does the same work, stalls included. From the second repetition on,
/// each window is timed at the reference speed (see [`crate::hostspeed`])
/// and reported by the median of its repetitions.
const MIN_REPEATS: usize = 2;
/// Clusters built per repetition; the last one runs. The set-up time is
/// the median over repetitions of the mean build, at the reference speed.
const BUILDS: usize = 10;

/// The model checker's scenario: 2 sites, 2 transfers, no crashes, and a
/// state bound per exploration.
const EXPLORE_STATES: usize = 5_000;
/// Explorer constructions timed before each exploration. The set-up time
/// is the median over explorations of their mean, at the reference speed.
/// Explorations repeat until
/// `--seconds` have passed, at least twice. From the second on, each is
/// timed at the reference speed (see [`crate::hostspeed`]), and the
/// end-to-end rates use the median.
const EXPLORE_SETUPS: usize = 40;

fn fault_secs() -> u64 {
    WINDOWS * WINDOW_SECS
}

/// Builds one seeded cluster with its crash plan and partition schedule
/// applied. Returns the cluster and the number of crashes planned.
fn build(seed: u64) -> (Cluster, u64) {
    let per_client = (CLIENT_RATE * (fault_secs() - ARRIVAL_MARGIN_SECS) as f64) as u64;
    let mut builder = ClusterBuilder::new(SITES, Directory::Mod(SITES))
        .seed(seed)
        .uniform_items(ACCOUNTS, INITIAL);
    for _ in 0..CLIENTS {
        builder = builder.client(
            ClientConfig {
                record_results: false,
                ..ClientConfig::default()
            },
            Box::new(RandomTransfers::new(ACCOUNTS, CLIENT_RATE, 50).with_limit(per_client)),
        );
    }
    let mut cluster = builder.build();
    let horizon = SimTime::from_secs(fault_secs());
    let at = |secs: f64| SimTime::ZERO + SimDuration::from_secs_f64(secs);
    let mut rng = SimRng::new(seed ^ 0xC4A5);
    let mut plan = FailurePlan::new();
    for slot in 0..(fault_secs() as f64 / FAULT_SLOT_SECS) as u64 {
        let base = slot as f64 * FAULT_SLOT_SECS;
        for site in 0..SITES {
            let down = rng
                .exponential(MEAN_DOWNTIME_SECS)
                .clamp(0.001, MAX_DOWNTIME_SECS);
            let crash = base + rng.uniform(0.0, FAULT_SLOT_SECS - MAX_DOWNTIME_SECS);
            plan = plan.outage(NodeId(site), at(crash), at(crash + down));
            let peer = (site + 1 + rng.below(u64::from(SITES) - 1) as u32) % SITES;
            let start = base + rng.uniform(0.0, FAULT_SLOT_SECS);
            let end = at(start + rng.exponential(0.8).max(0.05)).min(horizon);
            cluster
                .world
                .schedule_partition(at(start), NodeId(site), NodeId(peer));
            cluster.world.schedule_heal(end, NodeId(site), NodeId(peer));
        }
    }
    plan.apply(&mut cluster.world);
    (cluster, plan.outages().len() as u64)
}

/// What the first repetition counted (every repetition counts the same).
struct Counted {
    metrics: Metrics,
    crashes: u64,
    /// Transfers issued by the end of the fault window, and how many of
    /// those had committed by then.
    issued_in_window: u64,
    prompt: u64,
    /// Transfers issued in all, committed by the end of the tail, and
    /// still unfinished then.
    issued: u64,
    committed: u64,
    outstanding: u64,
    poly_width_max: f64,
}

/// One timed stretch of a simulation: wall time and commits.
#[derive(Clone, Copy, Default)]
struct Stretch {
    wall_s: f64,
    commits: u64,
}

/// Transfers the clients have issued so far: those finished (committed,
/// given up, failed, or abandoned without a reply) plus those outstanding.
fn issued(cluster: &Cluster) -> Result<u64, String> {
    let m = cluster.world.metrics();
    let finished: u64 = [
        "client.committed",
        "client.gave_up",
        "client.failed",
        "client.no_reply",
    ]
    .iter()
    .map(|name| m.counter(name))
    .sum();
    Ok(finished + outstanding(cluster)?)
}

/// Transfers issued whose client has not finished with them yet.
fn outstanding(cluster: &Cluster) -> Result<u64, String> {
    let mut outstanding = 0;
    for i in 0..cluster.client_nodes().len() {
        let client = cluster.client(i).map_err(|e| format!("client {i}: {e}"))?;
        outstanding += client.outstanding_count() as u64;
    }
    Ok(outstanding)
}

/// `in-doubt`: the seed's simulation, with a Poisson crash plan and link
/// partitions during a fault window and then a fault-free tail, run
/// several times; the fault window is timed in fixed windows. End-to-end
/// times are each window's median repetition at the reference speed; the
/// per-layer ones are each window's fastest repetition, as measured.
pub fn in_doubt(cfg: &RunConfig) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut tr = Tracer::new(cfg.trace, epoch);
    let run_for = Duration::from_secs_f64(cfg.seconds);
    // Each repetition's mean build, in s at the reference speed.
    let mut setup_scaled = Vec::new();
    // best[w]: the fastest repetition of window w (the last is the tail).
    let mut best: Vec<Stretch> = Vec::new();
    // scaled[w]: every repetition of window w, in s at the reference speed.
    let mut scaled: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS as usize + 1];
    let mut refs = Vec::new();
    let mut peak_rss = 0;
    let mut first: Option<Counted> = None;
    let mut gate_errors = Vec::new();
    let mut reps = 0;
    while reps < MIN_REPEATS || epoch.elapsed() < run_for {
        let r = reps;
        reps += 1;
        // The first repetition runs without the reference work, so that
        // the peak RSS sampled after it is the simulation's alone.
        let ref_pre = (r > 0).then(reference_ms);
        let mut built = None;
        let mut build_s = 0.0;
        for _ in 0..BUILDS {
            let t0 = Instant::now();
            built = Some(build(cfg.seed));
            let t1 = Instant::now();
            tr.span("engine.build", t0, t1, None, r as u64);
            build_s += (t1 - t0).as_secs_f64();
        }
        let (mut cluster, crashes) = built.expect("at least one build");
        let req = tr.open("simulation", Instant::now(), None, r as u64);
        let mut before = 0;
        let mut cut = (0, 0);
        let mut stretches = Vec::new();
        let mut window_refs = Vec::new();
        if let Some(pre) = ref_pre {
            let post = reference_ms();
            setup_scaled.push(at_reference(build_s / BUILDS as f64, pre, post));
            refs.push(pre);
            window_refs.push(post);
        }
        for w in 0..=WINDOWS {
            let until = if w < WINDOWS {
                (w + 1) * WINDOW_SECS
            } else {
                let prompt = cluster.world.metrics().counter("client.committed");
                cut = (issued(&cluster)?, prompt);
                fault_secs() + TAIL_SECS
            };
            let s0 = Instant::now();
            cluster.run_until(SimTime::from_secs(until));
            let s1 = Instant::now();
            tr.span("engine.run_until", s0, s1, req, r as u64);
            let wall_s = (s1 - s0).as_secs_f64();
            if let Some(&ref_before) = window_refs.last() {
                let ref_after = reference_ms();
                scaled[w as usize].push(at_reference(wall_s, ref_before, ref_after));
                window_refs.push(ref_after);
            }
            let now = cluster.world.metrics().counter("txn.committed");
            stretches.push(Stretch {
                wall_s,
                commits: now - before,
            });
            before = now;
        }
        tr.close(req, Instant::now());
        refs.extend(window_refs);
        if cluster.total_poly_count() != 0 {
            gate_errors.push(format!(
                "{} polyvalues left after the fault-free tail",
                cluster.total_poly_count()
            ));
        }
        match cluster.sum_items((0..ACCOUNTS).map(ItemId)) {
            Ok(total) if total == ACCOUNTS as i64 * INITIAL => {}
            other => gate_errors.push(format!(
                "funds not conserved: {other:?}, expected {}",
                ACCOUNTS as i64 * INITIAL
            )),
        }
        if let Some(w) = (0..stretches.len())
            .find(|&w| !best.is_empty() && stretches[w].commits != best[w].commits)
        {
            gate_errors.push(format!(
                "repetition {r} of the seed's simulation committed {} in window {w}, \
                 an earlier one {}: the simulation is not deterministic",
                stretches[w].commits, best[w].commits
            ));
        }
        if best.is_empty() {
            best = stretches;
        } else {
            for (b, s) in best.iter_mut().zip(&stretches) {
                b.wall_s = b.wall_s.min(s.wall_s);
            }
        }
        if first.is_none() {
            let m = cluster.world.metrics();
            first = Some(Counted {
                metrics: m.clone(),
                crashes,
                issued_in_window: cut.0,
                prompt: cut.1,
                issued: issued(&cluster)?,
                committed: m.counter("client.committed"),
                outstanding: outstanding(&cluster)?,
                poly_width_max: m
                    .gauge_series("poly.width")
                    .iter()
                    .fold(0.0f64, |a, (_, v)| a.max(*v)),
            });
            peak_rss = procfs::sample(None)?.peak_rss;
        }
    }
    let Counted {
        metrics: m,
        crashes,
        issued_in_window,
        prompt,
        issued,
        committed,
        outstanding,
        poly_width_max,
    } = first.expect("at least one repetition");
    let sim_commits = m.counter("txn.committed") as f64;
    let wall_s: f64 = best.iter().map(|b| b.wall_s).sum();
    let scaled_s: f64 = scaled.iter().map(|v| pct(v, 0.5)).sum();
    let reference = pct(&refs, 0.5);
    let mut out = Outcome::default();
    // A transfer that a crash or a partition left uncommitted is the
    // fault plan's intended effect, the unavailability this workload
    // measures (`failed_frac`, `prompt_frac`), not a failed operation. A
    // transfer still unfinished after the fault-free tail is.
    let uncommitted = issued - committed.min(issued);
    out.attempted = issued;
    out.failed = outstanding;
    out.failures = vec![(
        "transfers still unfinished after the fault-free tail",
        outstanding,
    )];
    out.unserved = vec![(
        "left uncommitted by a crash or a partition",
        uncommitted - outstanding.min(uncommitted),
    )];
    out.setup_s = pct(&setup_scaled, 0.5);
    out.ops_per_s = sim_commits / scaled_s;
    out.latency_ms = scaled_s * 1e3 / sim_commits;
    out.peak_rss_mb = peak_rss as f64 / (1024.0 * 1024.0);
    out.gate_errors = gate_errors;
    let per_commit = |b: &Stretch| b.wall_s * 1e6 / b.commits.max(1) as f64;
    let (w0, wn) = (
        per_commit(&best[0]),
        per_commit(&best[WINDOWS as usize - 1]),
    );
    let l = &mut out.layers;
    l.insert(
        "prompt_frac".into(),
        prompt as f64 / issued_in_window.max(1) as f64,
    );
    l.insert("failed_frac".into(), uncommitted as f64 / issued as f64);
    l.insert("sim_commits_per_s".into(), sim_commits / wall_s);
    l.insert("host.reference_ms".into(), reference);
    l.insert("engine.window_us_per_commit.first".into(), w0);
    l.insert("engine.window_us_per_commit.last".into(), wn);
    l.insert("engine.cost_growth".into(), wn / w0);
    l.insert(
        "store.recovery_replay_records_per_crash".into(),
        m.counter("recovery.replay_records") as f64 / crashes.max(1) as f64,
    );
    l.insert(
        "simnet.messages_per_commit".into(),
        m.counter("net.delivered") as f64 / sim_commits,
    );
    l.insert("core.poly_width_max".into(), poly_width_max);
    l.insert(
        "core.poly_lifetime_p50_ms".into(),
        m.histogram("poly.lifetime")
            .and_then(|h| h.quantile(0.5))
            .map_or(0.0, |s| s * 1e3),
    );
    counter_layers(&mut out, |name| m.counter(name) as f64);
    for (w, b) in best.iter().enumerate() {
        let label = if w < WINDOWS as usize {
            format!("fault window {} ({WINDOW_SECS} sim s)", w + 1)
        } else {
            format!("fault-free tail ({TAIL_SECS} sim s)")
        };
        let note = format!("{} commits, {:.1} us/commit", b.commits, per_commit(b));
        out.table.push((label, b.wall_s * 1e3, note));
    }
    out.table.push((
        "crashes planned".into(),
        crashes as f64,
        format!("fastest of {reps} repetitions per window"),
    ));
    out.tracer = tr;
    Ok(out)
}

/// `explore`: the model checker on 2 sites, 2 transfers, no crashes, up to
/// a state bound, several times.
pub fn explore(cfg: &RunConfig) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut tr = Tracer::new(cfg.trace, epoch);
    let scenario = ExploreConfig {
        sites: 2,
        txns: 2,
        crashes: 0,
        // The seed picks the amount; every amount up to half the balance
        // gives the same graph shape.
        amount: 1 + (cfg.seed % 50) as i64,
        initial: 100,
        max_states: EXPLORE_STATES,
        ..ExploreConfig::default()
    };
    // Each exploration's mean set-up, in s at the reference speed.
    let mut setup_scaled = Vec::new();
    let mut secs = Vec::new();
    let mut scaled = Vec::new();
    let mut out = Outcome::default();
    let mut report = None;
    let run_for = Duration::from_secs_f64(cfg.seconds);
    let mut refs = Vec::new();
    let mut peak_rss = 0.0;
    while secs.len() < 2 || epoch.elapsed() < run_for {
        let r = secs.len();
        // The first exploration runs without the reference work, so that
        // the peak RSS sampled after it is the explorer's alone.
        let ref_before = (r > 0).then(reference_ms);
        // Set-up: construct the explorer and expand its initial state.
        let mut setup_s = 0.0;
        for _ in 0..EXPLORE_SETUPS {
            let t0 = Instant::now();
            let probe = Explorer::new(ExploreConfig {
                max_states: 1,
                ..scenario.clone()
            })
            .run();
            let t1 = Instant::now();
            tr.span("explore.setup", t0, t1, None, r as u64);
            if probe.states != 1 {
                return Err(format!("set-up probe expanded {} states", probe.states));
            }
            setup_s += (t1 - t0).as_secs_f64();
        }
        let t0 = Instant::now();
        let rep = Explorer::new(scenario.clone()).run();
        let t1 = Instant::now();
        tr.span("explore.run", t0, t1, None, r as u64);
        secs.push((t1 - t0).as_secs_f64());
        match ref_before {
            Some(before) => {
                let after = reference_ms();
                scaled.push(at_reference((t1 - t0).as_secs_f64(), before, after));
                let mean_setup = setup_s / EXPLORE_SETUPS as f64;
                setup_scaled.push(at_reference(mean_setup, before, after));
                refs.extend([before, after]);
            }
            None => peak_rss = procfs::sample(None)?.peak_rss as f64,
        }
        for v in rep.violations.iter().take(5) {
            out.gate_errors
                .push(format!("invariant {} violated: {}", v.invariant, v.detail));
        }
        report.get_or_insert(rep);
    }
    let report = report.expect("at least one exploration");
    let states = report.states as f64;
    let fastest = pct(&secs, 0.0);
    let median_scaled = pct(&scaled, 0.5);
    let reference = pct(&refs, 0.5);
    out.attempted = report.states;
    out.failed = report.violations.len() as u64;
    out.failures = vec![("invariant violations", out.failed)];
    out.setup_s = pct(&setup_scaled, 0.5);
    out.ops_per_s = states / median_scaled;
    out.latency_ms = median_scaled * 1e3 / states;
    out.peak_rss_mb = peak_rss / (1024.0 * 1024.0);
    let l = &mut out.layers;
    l.insert("states_per_s".into(), states / fastest);
    l.insert("host.reference_ms".into(), reference);
    l.insert("explore.states".into(), states);
    l.insert("explore.transitions".into(), report.transitions as f64);
    l.insert(
        "explore.transitions_per_s".into(),
        report.transitions as f64 / fastest,
    );
    l.insert("explore.deepest".into(), report.deepest as f64);
    l.insert("explore.quiescent".into(), report.quiescent as f64);
    l.insert("explore.rss_bytes_per_state".into(), peak_rss / states);
    out.table.push((
        "Explorer::run (fastest)".into(),
        fastest * 1e3,
        format!(
            "{} states, {} transitions",
            report.states, report.transitions
        ),
    ));
    out.tracer = tr;
    Ok(out)
}
