//! End-to-end test of the `mnn-serve` binary: spawn the real daemon,
//! speak the real protocol over a real socket, drain it with a shutdown
//! frame, and check it exits cleanly.
//!
//! The daemon is the edge that reads the environment, so the child gets
//! none of the serving variables this test's own environment may hold,
//! except the one it checks the daemon resolves.

use mnn_net::{NetClient, Response};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Kills the child on panic so a failing assertion cannot leak a daemon.
struct Reap(Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Every serving variable the daemon resolves.
const SERVING_VARS: [&str; 9] = [
    "MNNFAST_SEGMENTS",
    "MNNFAST_WORKERS",
    "MNNFAST_REPLICAS",
    "MNNFAST_HEDGE_MS",
    "MNNFAST_TOPK",
    "MNNFAST_NPROBE",
    "MNNFAST_LISTEN",
    "MNNFAST_NET_THREADS",
    "MNNFAST_BATCH_WAIT_US",
];

#[test]
fn serve_binary_trains_listens_answers_and_drains() {
    let mut command = Command::new(env!("CARGO_BIN_EXE_mnn-serve"));
    for var in SERVING_VARS {
        command.env_remove(var);
    }
    let child = command
        .env("MNNFAST_SEGMENTS", "3")
        .args([
            "--synthetic",
            "--listen",
            "127.0.0.1:0",
            "--window",
            "8",
            "--tenants",
            "sesame=alice",
            "--max-batch",
            "4",
            "--batch-wait-us",
            "500",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mnn-serve");
    let mut child = Reap(child);
    let stdout = child.0.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();

    // The resolved session configuration, once, before any training.
    let stderr = child.0.stderr.take().expect("child stderr");
    let config = BufReader::new(stderr)
        .lines()
        .next()
        .expect("daemon printed no configuration")
        .expect("read configuration");
    assert!(
        config.starts_with("session: segments 3, workers 1, replicas 1,"),
        "{config}"
    );
    assert!(config.contains("window 8"), "{config}");

    // The daemon prints exactly `listening on ADDR` once it is serving
    // (after the synthetic training pass, which takes a few seconds).
    let banner = lines
        .next()
        .expect("daemon exited before listening")
        .expect("read banner");
    let addr: SocketAddr = banner
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .parse()
        .expect("banner address");

    let (mut client, tenant) = NetClient::connect(addr, "sesame").expect("connect");
    assert_eq!(tenant, "alice");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // A SingleSupportingFact story in the synthetic model's vocabulary.
    for s in ["mary went to the kitchen", "john went to the garden"] {
        client.observe(s).expect("observe");
    }
    let answer = match client.ask("where is mary").expect("ask") {
        Response::Answer(a) => a,
        other => panic!("expected an answer, got {other:?}"),
    };
    assert!(!answer.text.is_empty(), "answer should carry a word");
    assert!(answer.probability.is_finite());

    let stats = client.stats().expect("stats");
    assert!(stats.net_connections_accepted >= 1);
    assert!(stats.questions_answered >= 1);

    client.shutdown_server().expect("shutdown handshake");
    let status = child.0.wait().expect("wait for daemon");
    assert!(status.success(), "daemon exited with {status:?}");
    let rest: Vec<String> = lines.map_while(Result::ok).collect();
    assert!(
        rest.iter().any(|l| l == "drained and stopped"),
        "missing drain banner in {rest:?}"
    );
}
