//! The repository benchmark: one command per workload, end-to-end metrics
//! from an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! pv-perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!              --node-bin PATH --work-dir DIR
//! ```
//!
//! `perfbench/run.py` builds this binary and `pv-node` and is the command
//! to use; see `perfbench/README.md`. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). A run that fails a correctness gate prints
//! `"correct": false` with no metrics and exits 1; an error exits 1 without
//! a result.

mod hostspeed;
mod net;
mod procfs;
mod sim;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// The workloads; why each was chosen and what it bypasses is recorded
/// next to it in `BENCHMARK.json` and `perfbench/README.md`.
const WORKLOADS: [&str; 4] = ["transfer", "hot-read", "in-doubt", "explore"];

/// End-to-end metrics: every workload reports each, untraced.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run; 0 where a workload does
/// not exercise the layer.
const PER_LAYER: [(&str, &str); 61] = [
    ("goodput_tps", "txn/s"),
    ("commit_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("failed_frac", "ratio"),
    ("prompt_frac", "ratio"),
    ("sim_commits_per_s", "txn/s"),
    ("states_per_s", "states/s"),
    ("host.reference_ms", "ms"),
    ("trace.ops_per_s_delta", "ops/s"),
    ("trace.latency_ms_delta", "ms"),
    ("trace.commit_p50_ms_delta", "ms"),
    ("trace.read_p50_ms_delta", "ms"),
    ("site.cpu_us_per_op", "us"),
    ("site.vol_ctx_switches_per_op", "count"),
    ("site.invol_ctx_switches_per_op", "count"),
    ("net.idle_wakeups_per_s", "1/s"),
    ("net.submit_call_us", "us"),
    ("net.reply_wait_ms", "ms"),
    ("protocol.submit_prepared_p50_ms", "ms"),
    ("protocol.submit_prepared_p99_ms", "ms"),
    ("protocol.prepared_decided_p50_ms", "ms"),
    ("protocol.prepared_decided_p99_ms", "ms"),
    ("protocol.submit_decided_p50_ms", "ms"),
    ("protocol.submit_decided_p99_ms", "ms"),
    ("protocol.remainder_p50_ms", "ms"),
    ("protocol.local_commit_p50_ms", "ms"),
    ("protocol.distributed_commit_p50_ms", "ms"),
    ("protocol.lock_conflicts_per_commit", "count"),
    ("protocol.aborted_lock_frac", "ratio"),
    ("protocol.aborted_timeout_frac", "ratio"),
    ("protocol.aborted_eval_frac", "ratio"),
    ("protocol.in_doubt", "count"),
    ("loadgen.retries_per_request", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("store.wal_appends_per_commit", "count"),
    ("store.wal_syncs_per_commit", "count"),
    ("store.wal_bytes_per_commit", "B"),
    ("site.wal_write_bytes_per_commit", "B"),
    ("store.gc_dropped_per_commit", "count"),
    ("store.flushes", "count"),
    ("store.compactions", "count"),
    ("store.snapshot_reads", "count"),
    ("store.disk_bytes_end", "B"),
    ("store.recovery_replay_records_per_crash", "count"),
    ("engine.window_us_per_commit.first", "us"),
    ("engine.window_us_per_commit.last", "us"),
    ("engine.cost_growth", "ratio"),
    ("simnet.messages_per_commit", "count"),
    ("core.polyvalues_installed", "count"),
    ("core.polytransactions", "count"),
    ("core.poly_width_max", "count"),
    ("core.poly_lifetime_p50_ms", "ms"),
    ("explore.states", "count"),
    ("explore.transitions", "count"),
    ("explore.transitions_per_s", "1/s"),
    ("explore.deepest", "count"),
    ("explore.quiescent", "count"),
    ("explore.rss_bytes_per_state", "B"),
    ("trace.spans", "count"),
];

/// One run's settings.
#[derive(Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub node_bin: PathBuf,
    pub work_dir: PathBuf,
}

/// What one workload run measured.
pub struct Outcome {
    pub gate_errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// `failed` split by reason.
    pub failures: Vec<(&'static str, u64)>,
    /// Requests not served that did not fail either, by reason.
    pub unserved: Vec<(&'static str, u64)>,
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub latency_ms: f64,
    pub peak_rss_mb: f64,
    /// Per-layer values by name (see [`PER_LAYER`]).
    pub layers: BTreeMap<String, f64>,
    /// "Where the time goes" rows: label, milliseconds, note.
    pub table: Vec<(String, f64, String)>,
    pub tracer: Tracer,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            gate_errors: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            unserved: Vec::new(),
            setup_s: 0.0,
            ops_per_s: 0.0,
            latency_ms: 0.0,
            peak_rss_mb: 0.0,
            layers: BTreeMap::new(),
            table: Vec::new(),
            tracer: Tracer::new(false, std::time::Instant::now()),
        }
    }
}

impl Outcome {
    fn layer(&self, name: &str) -> f64 {
        self.layers.get(name).copied().unwrap_or(0.0)
    }

    fn end_to_end(&self, name: &str) -> f64 {
        match name {
            "setup_s" => self.setup_s,
            "ops_per_s" => self.ops_per_s,
            "latency_ms" => self.latency_ms,
            "peak_rss_mb" => self.peak_rss_mb,
            _ => unreachable!("unknown end-to-end metric {name}"),
        }
    }
}

/// Nearest-rank quantile (the program's own `Histogram::quantile` rule);
/// 0 when empty.
pub fn pct(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(q * (sorted.len() - 1) as f64).round() as usize]
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Layer metrics derived from the program's own counters, shared by every
/// workload that runs the protocol. `counter` returns a counter's value
/// over the measured interval.
pub fn counter_layers(out: &mut Outcome, counter: impl Fn(&str) -> f64) {
    let commits = counter("txn.committed");
    let submitted = counter("txn.submitted");
    let per = |v: f64, base: f64| if base > 0.0 { v / base } else { 0.0 };
    let l = &mut out.layers;
    l.insert(
        "protocol.lock_conflicts_per_commit".into(),
        per(counter("lock.conflicts"), commits),
    );
    l.insert(
        "protocol.aborted_lock_frac".into(),
        per(counter("txn.aborted.lock"), submitted),
    );
    l.insert(
        "protocol.aborted_timeout_frac".into(),
        per(counter("txn.aborted.timeout"), submitted),
    );
    l.insert(
        "protocol.aborted_eval_frac".into(),
        per(counter("txn.aborted.eval"), submitted),
    );
    l.insert("protocol.in_doubt".into(), counter("txn.in_doubt"));
    l.insert(
        "store.wal_appends_per_commit".into(),
        per(counter("wal.appends"), commits),
    );
    l.insert(
        "store.wal_syncs_per_commit".into(),
        per(counter("wal.syncs"), commits),
    );
    l.insert(
        "store.wal_bytes_per_commit".into(),
        per(counter("wal.bytes"), commits),
    );
    l.insert(
        "store.gc_dropped_per_commit".into(),
        per(counter("store.gc_dropped"), commits),
    );
    l.insert("store.flushes".into(), counter("store.flushes"));
    l.insert("store.compactions".into(), counter("store.compactions"));
    l.insert(
        "store.snapshot_reads".into(),
        counter("store.snapshot_reads"),
    );
    l.insert(
        "core.polyvalues_installed".into(),
        counter("poly.installed_items"),
    );
    l.insert(
        "core.polytransactions".into(),
        counter("txn.polytransactions"),
    );
}

fn usage() -> ! {
    eprintln!(
        "usage: pv-perfbench --workload transfer|hot-read|in-doubt|explore --seed N \
         --seconds S --trace 0|1 --node-bin PATH --work-dir DIR"
    );
    std::process::exit(2);
}

fn parse_args() -> RunConfig {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        node_bin: PathBuf::new(),
        work_dir: PathBuf::from("."),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => cfg.workload = value,
            "--seed" => cfg.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => cfg.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => cfg.trace = value == "1",
            "--node-bin" => cfg.node_bin = PathBuf::from(value),
            "--work-dir" => cfg.work_dir = PathBuf::from(value),
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) || cfg.seconds <= 0.0 {
        usage();
    }
    cfg
}

fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "transfer" => net::transfer(cfg),
        "hot-read" => net::hot_read(cfg),
        "in-doubt" => sim::in_doubt(cfg),
        "explore" => sim::explore(cfg),
        _ => unreachable!("workload validated by parse_args"),
    }
}

/// The traced run: the workload once untraced and once traced with the
/// same seed; per-layer numbers come from the traced pass and the tracing
/// overhead is the traced pass minus the untraced one.
fn run_traced(cfg: &RunConfig) -> Result<Outcome, String> {
    let plain = run(&RunConfig {
        trace: false,
        ..cfg.clone()
    })?;
    if !plain.gate_errors.is_empty() {
        return Ok(plain);
    }
    let mut traced = run(cfg)?;
    let delta = |name: &str| traced.layer(name) - plain.layer(name);
    let deltas = [
        ("trace.ops_per_s_delta", traced.ops_per_s - plain.ops_per_s),
        (
            "trace.latency_ms_delta",
            traced.latency_ms - plain.latency_ms,
        ),
        ("trace.commit_p50_ms_delta", delta("commit_p50_ms")),
        ("trace.read_p50_ms_delta", delta("read_p50_ms")),
    ];
    for (name, v) in deltas {
        traced.layers.insert(name.into(), v);
    }
    let spans = traced.tracer.len() as f64;
    traced.layers.insert("trace.spans".into(), spans);
    let path = cfg.work_dir.join(format!("trace-{}.jsonl", cfg.workload));
    traced
        .tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(traced)
}

fn print_report(cfg: &RunConfig, out: &Outcome) {
    println!(
        "workload: {}  seed: {}  seconds: {}  trace: {}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("host cores: {cores}");
    println!("attempted: {}  failed: {}", out.attempted, out.failed);
    for (reason, n) in out.failures.iter().filter(|(_, n)| *n > 0) {
        println!("  failed, {reason}: {n}");
    }
    for (reason, n) in out.unserved.iter().filter(|(_, n)| *n > 0) {
        println!("  not served (not failed), {reason}: {n}");
    }
    println!("-- end to end --");
    for (name, unit) in END_TO_END {
        println!("  {name:<36} {:>16.6} {unit}", out.end_to_end(name));
    }
    if cfg.trace {
        println!("-- where the time goes (traced pass, ms) --");
        for (label, v, note) in &out.table {
            println!("  {label:<44} {v:>10.4}  {note}");
        }
        println!("-- per layer --");
    } else {
        println!("-- workload figures --");
    }
    for (name, unit) in PER_LAYER {
        if let Some(v) = out.layers.get(name) {
            println!("  {name:<36} {v:>16.6} {unit}");
        }
    }
}

fn result_json(correct: bool, out: &Outcome, metrics: &[(&str, &str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let cfg = parse_args();
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("create {}: {e}", cfg.work_dir.display());
        return ExitCode::FAILURE;
    }
    let result = if cfg.trace {
        run_traced(&cfg)
    } else {
        run(&cfg)
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !out.gate_errors.is_empty() {
        for e in &out.gate_errors {
            eprintln!("GATE FAILED: {e}");
        }
        println!("{}", result_json(false, &out, &[]));
        return ExitCode::FAILURE;
    }
    print_report(&cfg, &out);
    let metrics: Vec<(&str, &str, f64)> = if cfg.trace {
        PER_LAYER
            .iter()
            .map(|(n, u)| (*n, *u, out.layer(n)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (*n, *u, out.end_to_end(n)))
            .collect()
    };
    if let Some((name, _, v)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        eprintln!("error: metric {name} is {v}");
        return ExitCode::FAILURE;
    }
    println!("{}", result_json(true, &out, &metrics));
    ExitCode::SUCCESS
}
