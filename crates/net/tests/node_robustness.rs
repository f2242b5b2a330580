//! A bad connection must never stop a node: a reply that cannot be encoded
//! (over the frame limit) closes only the connection that asked for it, and
//! a frame at the wire's nesting limit is decoded and evaluated on a reader
//! thread without taking the process down, and a client flood is served in
//! order.

use pv_core::{Expr, ItemId, TransactionSpec, Value};
use pv_engine::{Directory, EngineError, Topology};
use pv_net::wire::MAX_FRAME_LEN;
use pv_net::NetCluster;
use std::time::Duration;

const DEADLINE: Duration = Duration::from_secs(20);

/// One site holding three string items that are together larger than one
/// frame, plus a small counter item.
fn oversized_topology() -> Topology {
    let big = "x".repeat(MAX_FRAME_LEN as usize / 3 + 1024);
    Topology::new(1, Directory::Mod(1))
        .item(ItemId(0), Value::Int(0))
        .item(ItemId(1), Value::Str(big.clone()))
        .item(ItemId(2), Value::Str(big.clone()))
        .item(ItemId(3), Value::Str(big))
}

fn bump(item: u64) -> TransactionSpec {
    let i = ItemId(item);
    TransactionSpec::new().update(i, Expr::read(i).add(Expr::int(1)))
}

#[test]
fn oversized_replies_close_only_their_connection() {
    let cluster = NetCluster::from_topology(oversized_topology()).expect("start");

    // An inspect reply carries every item: over the frame limit. The node
    // closes this connection instead of failing.
    let mut greedy = cluster.client(0).expect("client");
    match greedy.inspect(DEADLINE) {
        Err(EngineError::Disconnected) => {}
        other => panic!("expected the connection to close, got {other:?}"),
    }
    // So is a full-scan snapshot read, on a connection of its own.
    let mut scanner = cluster.client(0).expect("client");
    match scanner.snapshot_read(&[], DEADLINE) {
        Err(EngineError::Disconnected) => {}
        other => panic!("expected the connection to close, got {other:?}"),
    }

    // A second client is still served: transactions, small reads, metrics.
    let mut other = cluster.client(0).expect("client");
    assert!(other
        .submit(&bump(0), DEADLINE)
        .expect("submit")
        .is_committed());
    let (_, entries) = other.snapshot_read(&[ItemId(0)], DEADLINE).expect("read");
    assert_eq!(entries.len(), 1);
    let metrics = other.metrics(DEADLINE).expect("metrics");
    assert_eq!(
        metrics.counter("net.encode_failed"),
        2,
        "both failures counted"
    );
    cluster
        .shutdown()
        .expect("the node still shuts down cleanly");
}

#[test]
fn frame_at_the_nesting_limit_is_decoded_and_served() {
    let cluster = NetCluster::from_topology(
        Topology::new(1, Directory::Mod(1)).item(ItemId(0), Value::Int(0)),
    )
    .expect("start");
    // 200 nested additions: the deepest the decoder accepts, so the reader
    // thread must decode and evaluate it on its own stack.
    let mut deep = Expr::read(ItemId(0));
    for _ in 0..200 {
        deep = deep.add(Expr::int(1));
    }
    let spec = TransactionSpec::new().update(ItemId(0), deep);
    let mut client = cluster.client(0).expect("client");
    assert!(client
        .submit(&spec, DEADLINE)
        .expect("submit")
        .is_committed());
    let (_, entries) = client.snapshot_read(&[ItemId(0)], DEADLINE).expect("read");
    assert_eq!(entries[0].1.as_simple(), Some(&Value::Int(200)));
    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn a_client_flood_is_served_in_order() {
    let cluster = NetCluster::from_topology(
        Topology::new(1, Directory::Mod(1)).item(ItemId(0), Value::Int(0)),
    )
    .expect("start");
    // Thousands of frames written before reading a single reply: the
    // connection's reader applies them one at a time, so the client's
    // writes wait for the site, and the replies come back in order.
    const N: u64 = 5_000;
    let mut client = cluster.client(0).expect("client");
    let sent: Vec<u64> = (0..N)
        .map(|_| client.submit_async(&bump(0)).expect("submit"))
        .collect();
    for want in sent {
        let (id, result) = client.recv_reply(DEADLINE).expect("reply");
        assert_eq!(id, want, "replies in submission order");
        assert!(result.is_committed());
    }
    let (_, entries) = client.snapshot_read(&[ItemId(0)], DEADLINE).expect("read");
    assert_eq!(entries[0].1.as_simple(), Some(&Value::Int(N as i64)));
    cluster.shutdown().expect("clean shutdown");
}
