//! An idle server sleeps: its net threads wake for socket bytes, queued
//! replies, new connections and idle-timeout deadlines, never on a timer.
//! Over 300 ms with nothing to do, the `mnn-net-*` threads together switch
//! out voluntarily at most a handful of times, with no connection open and
//! with one authenticated connection that sends nothing.
//!
//! The only test in its binary, so no other test's server runs while it
//! counts.

#![cfg(target_os = "linux")]

use mnn_dataset::babi::{BabiGenerator, TaskKind};
use mnn_memnn::{MemNet, ModelConfig};
use mnn_net::{NetClient, NetServer, ServerConfig};
use mnn_serve::SessionConfig;
use std::time::Duration;

/// Most voluntary switches the idle server's threads may make in
/// [`WINDOW`].
const MAX_SWITCHES: u64 = 10;
const WINDOW: Duration = Duration::from_millis(300);

/// The summed `voluntary_ctxt_switches` of this process's `mnn-net-*`
/// threads, from `/proc/self/task/*/status`.
fn net_thread_switches() -> u64 {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("procfs is mounted") {
        let Ok(status) = std::fs::read_to_string(task.expect("task entry").path().join("status"))
        else {
            continue; // the thread exited while we listed
        };
        let named = status
            .lines()
            .find_map(|l| l.strip_prefix("Name:"))
            .is_some_and(|name| name.trim().starts_with("mnn-net-"));
        if named {
            total += status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|n| n.trim().parse::<u64>().ok())
                .expect("a voluntary_ctxt_switches: line");
        }
    }
    total
}

fn switches_over_window() -> u64 {
    let before = net_thread_switches();
    std::thread::sleep(WINDOW);
    net_thread_switches() - before
}

#[test]
fn an_idle_server_does_not_wake_on_a_timer() {
    let generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 2019);
    let model = MemNet::new(ModelConfig::for_generator(&generator, 8, 4), 1);
    let server = NetServer::spawn(
        model,
        generator.vocab().clone(),
        SessionConfig::default(),
        ServerConfig::default(),
    )
    .expect("server spawns");
    // Let the threads reach their first park.
    std::thread::sleep(Duration::from_millis(50));
    let alone = switches_over_window();
    assert!(
        alone <= MAX_SWITCHES,
        "no connection: {alone} switches in {WINDOW:?}"
    );

    let (_client, _) = NetClient::connect(server.addr(), "default").expect("connect");
    std::thread::sleep(Duration::from_millis(50));
    let connected = switches_over_window();
    assert!(
        connected <= MAX_SWITCHES,
        "one idle connection: {connected} switches in {WINDOW:?}"
    );
    server.shutdown();
}
