//! # pv-net — socket deployment of the polyvalue engine
//!
//! The sans-IO `pv_protocol::SiteMachine` already runs under two runtimes:
//! the deterministic simulation and the thread-per-site live runtime. This
//! crate is the third: real TCP sockets between real processes.
//!
//! * [`wire`] — the versioned, checksummed binary frame format. Payload
//!   encoding of values/conditions/entries is shared with the WAL codec
//!   ([`pv_store::codec`]); this module adds framing and the protocol-level
//!   message vocabulary.
//! * [`node`] — the site process: the engine's blocking `SiteDriver` over
//!   a socket transport (an acceptor, one reader thread per connection,
//!   dialer threads) with deadline-driven peer dialing governed by
//!   [`backoff`].
//! * [`backoff`] — the jittered-exponential [`Backoff`] policy and the
//!   per-peer [`Circuit`] breaker that pace every dial and reconnect.
//! * [`client`] — a blocking client connection with pipelined submission.
//! * [`cluster`] — [`NetCluster`]: every node's site driver hosted on an
//!   in-process thread over real localhost TCP, consuming the same
//!   [`pv_engine::Topology`] as the other two runtimes.
//! * [`chaos`] — a fault-injecting TCP proxy ([`ChaosNet`]) that sits on
//!   every site→site link and applies seeded, deterministic delay, drop,
//!   duplication, throttling, partitions, and mid-frame cuts.
//!
//! The `pv-node` binary wraps [`node::Node`] for one-process-per-site
//! deployment; `pv-loadgen` spawns or targets such a cluster and measures
//! committed throughput and phase latencies (`BENCH_net.json`); `pv-chaos`
//! supervises real `pv-node` processes under kill/restart/partition
//! schedules and asserts the paper's recovery invariants.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backoff;
pub mod chaos;
pub mod client;
pub mod cluster;
pub mod node;
pub mod wire;

pub use backoff::{Backoff, Circuit, CircuitState, CircuitVerdict};
pub use chaos::{ChaosNet, LinkFaults};
pub use client::NetClient;
pub use cluster::{NetBuilder, NetCluster};
pub use node::{Node, NodeConfig};
pub use wire::{DecodeError, EncodeError, Frame, NodeSnapshot, PeerKind, WireMetrics};
