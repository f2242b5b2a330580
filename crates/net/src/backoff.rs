//! Reconnect policy of the socket runtime: exponential backoff with
//! deterministic jitter, plus a per-peer circuit breaker.
//!
//! The original runtime retried a dead peer on a fixed cadence
//! (`RetryBudget`: N attempts, fixed delay) and retried *synchronously*,
//! stalling the whole site while a peer was down. This module is the
//! policy half of the fix (the dialer threads live in
//! [`node`](crate::node)):
//!
//! * [`Backoff`] — how long to wait before attempt `k`: exponential growth
//!   from `base` toward `max`, with a ±`jitter` fraction of randomisation so
//!   a healed partition is rejoined by staggered probes instead of a
//!   thundering herd. The jitter is a pure function of `(salt, attempt)` —
//!   every delay a node ever picks is reproducible from its config.
//! * [`Circuit`] — the per-peer breaker: `Closed` while the link is healthy,
//!   `Open` (with a deadline) after a failure, `HalfOpen` while a single
//!   probe is in flight. Exhausting `attempts` consecutive failures trips
//!   the breaker permanently ([`CircuitVerdict::Exhausted`]), which the node
//!   surfaces as a structured `EngineError::Unreachable` — degraded, never a
//!   hot loop and never a hang.
//!
//! Both are plain data + pure transitions, so the chaos tests can drive them
//! without sockets, and a running node can swap its [`Backoff`] live (the
//! `ConfigBackoff` wire frame) without touching connection state.

use pv_engine::topology::BackoffConfig;
use std::time::{Duration, Instant};

/// An exponential-backoff policy with deterministic jitter.
///
/// Delay before attempt `k` (1-based) is
/// `min(base * factor^(k-1), max)`, scaled by a factor drawn uniformly from
/// `[1 - jitter, 1 + jitter]` via a hash of `(salt, k)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Backoff {
    /// Delay before the first retry.
    pub base: Duration,
    /// Upper bound any single delay grows to.
    pub max: Duration,
    /// Multiplicative growth per attempt (≥ 1.0).
    pub factor: f64,
    /// Fraction of each delay randomised (0.0 = none, 0.5 = ±50 %).
    pub jitter: f64,
    /// Consecutive failures tolerated before the circuit trips for good.
    pub attempts: u32,
}

impl Default for Backoff {
    /// Startup-friendly default: ~50 attempts spanning a few minutes of
    /// wall clock at the cap, matching the old `RetryBudget` spirit
    /// (tolerate a slow-binding peer) while backing off instead of polling.
    fn default() -> Self {
        Backoff {
            base: Duration::from_millis(50),
            max: Duration::from_millis(1000),
            factor: 2.0,
            jitter: 0.25,
            attempts: 50,
        }
    }
}

impl Backoff {
    /// A tight policy for tests that want fast structured failure.
    pub fn fast_fail() -> Self {
        Backoff {
            base: Duration::from_millis(50),
            max: Duration::from_millis(200),
            factor: 2.0,
            jitter: 0.25,
            attempts: 3,
        }
    }

    /// A patient policy for chaos runs: peers stay down for seconds at a
    /// time and must be survived, not declared unreachable.
    pub fn patient() -> Self {
        Backoff {
            base: Duration::from_millis(25),
            max: Duration::from_millis(500),
            factor: 1.6,
            jitter: 0.25,
            attempts: 10_000,
        }
    }

    /// The uniform-cadence policy the old `RetryBudget` expressed: `attempts`
    /// tries, `delay` apart, no growth, no jitter.
    pub fn uniform(attempts: u32, delay: Duration) -> Self {
        Backoff {
            base: delay,
            max: delay,
            factor: 1.0,
            jitter: 0.0,
            attempts,
        }
    }

    /// Builds the policy from its runtime-agnostic [`Topology`]
    /// (`pv_engine::topology`) description.
    pub fn from_config(c: &BackoffConfig) -> Self {
        Backoff {
            base: Duration::from_millis(c.base_ms),
            max: Duration::from_millis(c.max_ms.max(c.base_ms)),
            factor: c.factor.max(1.0),
            jitter: c.jitter.clamp(0.0, 1.0),
            attempts: c.attempts,
        }
    }

    /// The plain-data form that travels in a [`Topology`]
    /// (`pv_engine::topology`) or a `ConfigBackoff` wire frame.
    pub fn to_config(self) -> BackoffConfig {
        BackoffConfig {
            base_ms: self.base.as_millis() as u64,
            max_ms: self.max.as_millis() as u64,
            factor: self.factor,
            jitter: self.jitter,
            attempts: self.attempts,
        }
    }

    /// How long to wait before attempt `attempt` (1-based). Deterministic in
    /// `(self, salt, attempt)`; different salts (peer ids, client ids)
    /// de-correlate the fleets so a healed partition sees staggered probes.
    pub fn delay(&self, attempt: u32, salt: u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(63);
        let grown = self.base.as_secs_f64() * self.factor.max(1.0).powi(exp as i32);
        let capped = grown.min(self.max.as_secs_f64());
        let jittered = if self.jitter > 0.0 {
            // splitmix64 of (salt, attempt) → uniform in [-1, 1).
            let mut z = salt ^ (u64::from(attempt)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
            let sign = 2.0 * unit - 1.0; // [-1,1)
            capped * (1.0 + self.jitter.clamp(0.0, 1.0) * sign)
        } else {
            capped
        };
        Duration::from_secs_f64(jittered.max(0.0))
    }

    /// The TCP connect timeout a dial attempt under this policy should use.
    pub fn connect_timeout(&self) -> Duration {
        self.base.max(Duration::from_millis(250))
    }
}

/// Where a peer link's breaker currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// Link healthy (or never yet used): dial/send freely.
    Closed,
    /// Recent failure: no probe until the deadline passes.
    Open {
        /// When the next probe may launch.
        until: Instant,
    },
    /// A single probe is in flight; its outcome decides the next state.
    HalfOpen,
}

/// What [`Circuit::on_failure`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitVerdict {
    /// The circuit opened (or re-opened); retry after the embedded deadline.
    Backoff {
        /// How long the circuit stays open.
        wait: Duration,
    },
    /// The failure budget is exhausted; the peer is unreachable.
    Exhausted,
}

/// A per-peer circuit breaker governed by a [`Backoff`] policy.
#[derive(Debug, Clone)]
pub struct Circuit {
    policy: Backoff,
    state: CircuitState,
    /// Consecutive failures since the last success.
    failures: u32,
    /// Jitter salt (derived from the owning node and peer ids).
    salt: u64,
}

impl Circuit {
    /// A closed circuit under `policy`, jitter-salted by `salt`.
    pub fn new(policy: Backoff, salt: u64) -> Self {
        Circuit {
            policy,
            state: CircuitState::Closed,
            failures: 0,
            salt,
        }
    }

    /// The current breaker state.
    pub fn state(&self) -> CircuitState {
        self.state
    }

    /// Consecutive failures since the last success.
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// Swaps the policy live; current state and failure count carry over.
    pub fn set_policy(&mut self, policy: Backoff) {
        self.policy = policy;
    }

    /// The active policy.
    pub fn policy(&self) -> &Backoff {
        &self.policy
    }

    /// Whether a dial probe may launch now. `Closed` always may; `Open`
    /// becomes `HalfOpen` (and answers yes) once its deadline passes;
    /// `HalfOpen` already has a probe out, so no.
    pub fn try_probe(&mut self, now: Instant) -> bool {
        match self.state {
            CircuitState::Closed => {
                self.state = CircuitState::HalfOpen;
                true
            }
            CircuitState::Open { until } if now >= until => {
                self.state = CircuitState::HalfOpen;
                true
            }
            CircuitState::Open { .. } | CircuitState::HalfOpen => false,
        }
    }

    /// Records a successful connection: breaker closes, failures reset.
    pub fn on_success(&mut self) {
        self.state = CircuitState::Closed;
        self.failures = 0;
    }

    /// Records a failed dial (or a connection that died): the breaker opens
    /// with the policy's next delay, or reports exhaustion.
    pub fn on_failure(&mut self, now: Instant) -> CircuitVerdict {
        self.failures = self.failures.saturating_add(1);
        if self.failures >= self.policy.attempts {
            // Stay open forever; the owner surfaces Unreachable.
            self.state = CircuitState::Open {
                until: now + Duration::from_secs(3600),
            };
            return CircuitVerdict::Exhausted;
        }
        let wait = self.policy.delay(self.failures, self.salt);
        self.state = CircuitState::Open { until: now + wait };
        CircuitVerdict::Backoff { wait }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_exponentially_to_the_cap() {
        let b = Backoff {
            jitter: 0.0,
            ..Backoff::default()
        };
        let d1 = b.delay(1, 0);
        let d2 = b.delay(2, 0);
        let d3 = b.delay(3, 0);
        assert_eq!(d1, Duration::from_millis(50));
        assert_eq!(d2, Duration::from_millis(100));
        assert_eq!(d3, Duration::from_millis(200));
        assert_eq!(b.delay(30, 0), b.max, "growth caps at max");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let b = Backoff::default();
        for attempt in 1..10 {
            for salt in [1u64, 7, 42] {
                let d = b.delay(attempt, salt);
                assert_eq!(d, b.delay(attempt, salt), "same inputs, same delay");
                let nominal = b
                    .delay(attempt, salt)
                    .as_secs_f64()
                    .max(f64::MIN_POSITIVE);
                let plain = Backoff { jitter: 0.0, ..b }.delay(attempt, salt).as_secs_f64();
                assert!(
                    (nominal - plain).abs() <= plain * b.jitter + 1e-9,
                    "jitter stays within ±{} of {plain}",
                    b.jitter
                );
            }
        }
    }

    #[test]
    fn different_salts_decorrelate() {
        let b = Backoff::default();
        let delays: Vec<Duration> = (0..8).map(|salt| b.delay(4, salt)).collect();
        let distinct: std::collections::BTreeSet<Duration> = delays.iter().copied().collect();
        assert!(distinct.len() > 4, "salts spread the herd: {delays:?}");
    }

    #[test]
    fn uniform_reproduces_the_old_retry_budget() {
        let b = Backoff::uniform(3, Duration::from_millis(50));
        assert_eq!(b.delay(1, 9), Duration::from_millis(50));
        assert_eq!(b.delay(3, 9), Duration::from_millis(50));
        assert_eq!(b.attempts, 3);
    }

    #[test]
    fn config_round_trips() {
        let b = Backoff::default();
        let back = Backoff::from_config(&b.to_config());
        assert_eq!(b, back);
    }

    #[test]
    fn circuit_walks_closed_open_halfopen_closed() {
        let mut c = Circuit::new(Backoff::fast_fail(), 1);
        let t0 = Instant::now();
        assert_eq!(c.state(), CircuitState::Closed);
        assert!(c.try_probe(t0), "closed circuit probes immediately");
        assert_eq!(c.state(), CircuitState::HalfOpen);
        assert!(!c.try_probe(t0), "only one probe in flight");
        let verdict = c.on_failure(t0);
        let wait = match verdict {
            CircuitVerdict::Backoff { wait } => wait,
            CircuitVerdict::Exhausted => panic!("first failure must not exhaust"),
        };
        assert!(matches!(c.state(), CircuitState::Open { .. }));
        assert!(!c.try_probe(t0), "open circuit holds until the deadline");
        assert!(c.try_probe(t0 + wait + Duration::from_millis(1)));
        c.on_success();
        assert_eq!(c.state(), CircuitState::Closed);
        assert_eq!(c.failures(), 0);
    }

    #[test]
    fn circuit_exhausts_after_the_attempt_budget() {
        let mut c = Circuit::new(Backoff::fast_fail(), 1);
        let t0 = Instant::now();
        let mut verdicts = Vec::new();
        for k in 0..3 {
            let _ = c.try_probe(t0 + Duration::from_secs(k));
            verdicts.push(c.on_failure(t0 + Duration::from_secs(k)));
        }
        assert!(matches!(verdicts[0], CircuitVerdict::Backoff { .. }));
        assert!(matches!(verdicts[1], CircuitVerdict::Backoff { .. }));
        assert_eq!(verdicts[2], CircuitVerdict::Exhausted);
        assert!(
            !c.try_probe(t0 + Duration::from_secs(30)),
            "an exhausted circuit stays open"
        );
    }

    #[test]
    fn policy_swaps_live() {
        let mut c = Circuit::new(Backoff::fast_fail(), 1);
        c.set_policy(Backoff::patient());
        assert_eq!(c.policy().attempts, 10_000);
        let t0 = Instant::now();
        for _ in 0..10 {
            let _ = c.try_probe(t0);
            assert!(
                matches!(c.on_failure(t0), CircuitVerdict::Backoff { .. }),
                "patient policy does not exhaust in 10 failures"
            );
        }
    }
}
