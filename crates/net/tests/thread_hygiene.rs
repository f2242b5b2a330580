//! A stopped node leaves no thread behind: its acceptor, every connection
//! reader and every dialer end when `Node::run` returns.
//!
//! This is the only test in its binary, so no other test's threads come
//! and go while it counts `/proc/self/task`.

use pv_core::{Expr, ItemId, TransactionSpec};
use pv_engine::{Directory, Topology};
use pv_net::NetCluster;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

#[test]
fn shutdown_ends_every_helper_thread() {
    let before = threads();
    let cluster =
        NetCluster::from_topology(Topology::new(3, Directory::Mod(3)).uniform_items(3, 100))
            .expect("start");
    // Bring up every kind of helper: peer links (dialers), client and peer
    // connections (readers), and the acceptors.
    let (a, b) = (ItemId(0), ItemId(1));
    let transfer = TransactionSpec::new()
        .update(a, Expr::read(a).sub(Expr::int(5)))
        .update(b, Expr::read(b).add(Expr::int(5)));
    let deadline = Duration::from_secs(10);
    assert!(cluster
        .submit(0, &transfer, deadline)
        .expect("submit")
        .is_committed());
    for s in 0..3 {
        cluster.inspect(s, deadline).expect("inspect");
    }
    let mut extra = cluster.client(1).expect("client");
    extra.snapshot_read(&[b], deadline).expect("read");
    assert!(threads() > before + 3, "helper threads were running");

    drop(extra);
    cluster.shutdown().expect("clean shutdown");
    let limit = Instant::now() + Duration::from_secs(10);
    while threads() > before && Instant::now() < limit {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads(), before, "every helper thread ended");
}
