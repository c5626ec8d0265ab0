//! `serve_net`: a loopback `NetServer` driven over real sockets, first by
//! an open-loop Poisson sender at a fixed low rate (which exposes what a
//! lone question pays for coalescing), then by a closed loop that keeps
//! both connections full (which finds the throughput). Load comes from
//! one thread in either phase, multiplexing both connections (in the paced
//! phase each connection also has a reader that only blocks on its socket
//! and timestamps replies).

use crate::inputs::{self, Inputs, QUESTIONS};
use crate::procstat;
use crate::workloads::{
    Between, Reply, Spec, Tally, Window, Windows, NET_INFLIGHT, NET_LATENCY_LIMIT, NET_TENANTS,
    WINDOWS,
};
use mnn_dataset::WordId;
use mnn_net::{
    read_frame, write_frame, NetClient, NetFrame, NetServer, NetStatsWire, Response, ServerConfig,
    TenantAuth,
};
use mnn_serve::BatchConfig;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub fn token(tenant: usize) -> String {
    format!("token{tenant}")
}

/// The tenant nobody asks: the observe burst is written to it, so the
/// asked tenants' memories stay static.
pub const SIDE_TENANT: usize = NET_TENANTS;

/// A running loopback server with its tenants filled.
pub struct NetRig {
    server: Option<NetServer>,
    pub addr: SocketAddr,
}

impl Drop for NetRig {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown(); // flushes queues and joins every server thread
        }
    }
}

/// Gives the server's threads one CPU and the calling thread, which
/// generates the load, another. Three busy threads on two cores otherwise
/// settle into one of two placements for a whole run, and which one
/// depended on what the box ran just before: after a two-thread workload
/// the scheduler thread had a core to itself (4000 q/s, 15 µs per bulk-
/// loaded observe), after a one-thread one it shared its core with the
/// other two (3300 q/s, 8.7 µs). On one CPU, or where the call is
/// missing, nothing is pinned.
fn place<T>(spawn_server: impl FnOnce() -> T) -> T {
    let allowed = procstat::allowed_cpus().unwrap_or(0);
    if allowed.count_ones() < 2 {
        return spawn_server();
    }
    let (generator, server) = (allowed.trailing_zeros(), 63 - allowed.leading_zeros());
    procstat::pin_to_cpu(server); // threads spawned from here inherit it
    let spawned = spawn_server();
    procstat::pin_to_cpu(generator);
    spawned
}

/// Spawns the server with the `mnn-serve` daemon's defaults (`max_batch`
/// 8, `max_wait` 1 ms, `max_inflight` 64) but one net thread, and fills
/// each tenant's memory over the wire. `batching: false` is the
/// batch-of-one server the traced pass compares against.
pub fn spawn(spec: &Spec, inputs: &Inputs, trace: bool, batching: bool) -> NetRig {
    let config = ServerConfig {
        net_threads: 1,
        tenants: (0..=SIDE_TENANT)
            .map(|t| TenantAuth {
                token: token(t),
                tenant: format!("tenant{t}"),
            })
            .collect(),
        batching: batching.then_some(BatchConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(1),
        }),
        ..ServerConfig::default()
    };
    let server = place(|| {
        NetServer::spawn(
            inputs.model.clone(),
            inputs::vocabulary(),
            spec.session_config(trace),
            config,
        )
    })
    .expect("spawn server");
    let addr = server.addr();
    for t in 0..NET_TENANTS {
        let (mut client, _) = NetClient::connect(addr, &token(t)).expect("connect");
        let rows: Vec<&[WordId]> = (0..spec.rows)
            .map(|i| inputs.sentences.get(t * spec.rows + i))
            .collect();
        assert_eq!(ingest(&mut client, &rows), rows.len(), "set-up observes");
        let warm = client.ask_tokens(&inputs.questions[0]);
        assert!(matches!(warm, Ok(Response::Answer(_))), "{warm:?}");
    }
    NetRig {
        server: Some(server),
        addr,
    }
}

/// The server's own counters.
pub fn server_stats(addr: SocketAddr) -> NetStatsWire {
    let (mut client, _) = NetClient::connect(addr, &token(0)).expect("connect");
    client.stats().expect("stats")
}

/// Sentences a bulk load keeps in flight on its connection (half the
/// server's per-connection cap).
const PIPELINE: usize = 32;

/// Writes `sentences` into the client's tenant as a bulk load does, with
/// up to [`PIPELINE`] of them in flight: the next is sent as soon as an
/// acknowledgement makes room, so the server's threads never run dry and
/// park. Returns how many were acknowledged.
pub fn ingest(client: &mut NetClient, sentences: &[&[WordId]]) -> usize {
    let (mut sent, mut settled, mut acked) = (0, 0, 0);
    while sent < sentences.len() || settled < sent {
        if sent < sentences.len() && sent - settled < PIPELINE {
            if client.send_observe_tokens(sentences[sent]).is_err() {
                break;
            }
            sent += 1;
        } else {
            match client.recv() {
                Ok(Response::Observed { .. }) => acked += 1,
                Ok(_) => {}
                Err(_) => break,
            }
            settled += 1;
        }
    }
    acked
}

fn connect_raw(addr: SocketAddr, tenant: usize) -> (BufReader<TcpStream>, TcpStream) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let hello = NetFrame::Hello {
        token: token(tenant),
    };
    write_frame(&mut stream, &hello).expect("hello");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let ack = read_frame(&mut reader);
    assert!(matches!(ack, Ok(NetFrame::HelloAck { .. })), "{ack:?}");
    (reader, stream)
}

fn ask_frame(id: u64, inputs: &Inputs, q: usize) -> NetFrame {
    NetFrame::AskTokens {
        id,
        tokens: inputs.questions[q % QUESTIONS].clone(),
    }
}

/// What one connection's reader saw.
#[derive(Debug, Default)]
struct Seen {
    /// `(request id, receive offset ns, reply)` per answer.
    answers: Vec<(u64, u64, Reply)>,
    shed: u64,
    errors: u64,
}

impl Seen {
    fn settled(&self) -> u64 {
        self.answers.len() as u64 + self.shed + self.errors
    }

    /// Reads one response; `false` on a timeout or a dead connection.
    fn read(&mut self, reader: &mut BufReader<TcpStream>, origin: Instant) -> bool {
        match read_frame(reader) {
            Ok(NetFrame::Answer {
                id,
                word,
                probability,
                ..
            }) => {
                let at = origin.elapsed().as_nanos() as u64;
                self.answers.push((id, at, (word, probability.to_bits())));
            }
            Ok(NetFrame::Overloaded { .. }) => self.shed += 1,
            Ok(NetFrame::Error { .. }) => self.errors += 1,
            Ok(_) => {}
            Err(_) => return false,
        }
        true
    }
}

/// Open-loop accounting for one request: `(latency, sender lag)` in ns.
/// Latency runs from the instant the request was *due*, so time a late
/// sender cost is charged to the request, never hidden; the lag is
/// reported beside it.
pub fn open_loop_account(scheduled_ns: u64, sent_ns: u64, received_ns: u64) -> (u64, u64) {
    (
        received_ns.saturating_sub(scheduled_ns),
        sent_ns.saturating_sub(scheduled_ns),
    )
}

/// Result of one `serve_net` phase.
#[derive(Debug, Default)]
pub struct NetPhase {
    /// The phase in windows. Paced: split by scheduled send, latency from
    /// the scheduled send. Saturation: split by wall time, latency from
    /// the start of the reply's round, with throughput and CPU cost.
    pub windows: Vec<Window>,
    /// Paced only: actual minus scheduled send, per ask.
    pub lag_us: Vec<f64>,
    pub tally: Tally,
    pub shed: u64,
    pub errors: u64,
    pub lost: u64,
    /// Paced only: answered, but past [`NET_LATENCY_LIMIT`]. Reported, not
    /// failed: the wait is in the latencies already.
    pub late: u64,
    pub inconsistent: u64,
}

/// First reply per `(tenant, question)`. Memories are static through every
/// phase, so one table spans them all: a later phase must repeat an earlier
/// one's replies bit for bit.
pub type Firsts = Vec<Vec<Option<Reply>>>;

pub fn firsts() -> Firsts {
    vec![vec![None; QUESTIONS]; NET_TENANTS]
}

impl NetPhase {
    fn new(phase: &'static str) -> Self {
        NetPhase {
            tally: Tally {
                phase,
                ..Tally::default()
            },
            ..NetPhase::default()
        }
    }

    fn note(&mut self, firsts: &mut Firsts, tenant: usize, q: usize, reply: Reply) {
        if *firsts[tenant][q % QUESTIONS].get_or_insert(reply) != reply {
            self.inconsistent += 1;
        }
    }

    fn close(&mut self, sent: u64, seen: &[Seen]) {
        self.shed = seen.iter().map(|s| s.shed).sum();
        self.errors = seen.iter().map(|s| s.errors).sum();
        let settled: u64 = seen.iter().map(Seen::settled).sum();
        self.lost = sent - settled.min(sent);
        self.tally.sent = sent;
        self.tally.failed = self.shed + self.errors + self.lost;
        self.tally.succeeded = sent - self.tally.failed;
    }
}

/// Paced phase: the calling thread sends request `k` on connection
/// `k % NET_TENANTS` when `schedule[k]` (ns from the phase start) comes
/// due; one reader per connection blocks on its socket and timestamps
/// replies, generating no load of its own.
pub fn paced(addr: SocketAddr, inputs: &Inputs, schedule: &[u64], firsts: &mut Firsts) -> NetPhase {
    let (readers, mut writers): (Vec<_>, Vec<_>) =
        (0..NET_TENANTS).map(|t| connect_raw(addr, t)).unzip();
    let done = AtomicBool::new(false);
    let sent_on: Vec<AtomicU64> = (0..NET_TENANTS).map(|_| AtomicU64::new(0)).collect();
    let last_due = schedule.last().copied().unwrap_or(0);
    let give_up = Duration::from_nanos(last_due) + Duration::from_secs(2);
    let origin = Instant::now();
    let mut sent_ns = Vec::with_capacity(schedule.len());
    let seen: Vec<Seen> = std::thread::scope(|scope| {
        let handles: Vec<_> = readers
            .into_iter()
            .zip(&sent_on)
            .map(|(mut reader, sent)| {
                let done = &done;
                scope.spawn(move || {
                    let timeout = Some(Duration::from_millis(100));
                    reader.get_ref().set_read_timeout(timeout).expect("timeout");
                    let mut seen = Seen::default();
                    loop {
                        let all_in = done.load(Ordering::Acquire)
                            && seen.settled() >= sent.load(Ordering::Acquire);
                        if all_in || origin.elapsed() > give_up {
                            return seen;
                        }
                        seen.read(&mut reader, origin);
                    }
                })
            })
            .collect();
        for (k, &due) in schedule.iter().enumerate() {
            let now = origin.elapsed().as_nanos() as u64;
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            let tenant = k % NET_TENANTS;
            let frame = ask_frame(k as u64, inputs, k / NET_TENANTS);
            sent_ns.push(origin.elapsed().as_nanos() as u64);
            // A failed write leaves the request unsettled: counted lost.
            if write_frame(&mut writers[tenant], &frame).is_ok() {
                sent_on[tenant].fetch_add(1, Ordering::Release);
            }
        }
        done.store(true, Ordering::Release);
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect()
    });

    let mut phase = NetPhase::new("paced");
    let mut by_schedule = Vec::new();
    for (tenant, s) in seen.iter().enumerate() {
        for &(id, at, reply) in &s.answers {
            let k = id as usize;
            let (latency, lag) = open_loop_account(schedule[k], sent_ns[k], at);
            by_schedule.push((k, latency as f64 / 1e6));
            phase.lag_us.push(lag as f64 / 1e3);
            phase.late += u64::from(latency > NET_LATENCY_LIMIT.as_nanos() as u64);
            phase.note(firsts, tenant, k / NET_TENANTS, reply);
        }
    }
    by_schedule.sort_unstable_by_key(|&(k, _)| k);
    let per_window = by_schedule.len().div_ceil(WINDOWS).max(1);
    phase.windows = by_schedule
        .chunks(per_window)
        .map(|chunk| Window {
            call_ms: chunk.iter().map(|&(_, ms)| ms).collect(),
            ..Window::default()
        })
        .collect();
    phase.close(schedule.len() as u64, &seen);
    phase
}

/// Saturation phase, a closed loop from one thread: every round writes
/// [`NET_INFLIGHT`] asks to each connection, then reads every reply, for
/// [`WINDOWS`] windows of `seconds` in all. One generator thread beside
/// the server's own leaves the scheduler of a two-core box far less to
/// decide than a thread per connection did, and the throughput is steadier
/// for it. `between` runs after each window, with no ask in flight.
pub fn saturate(
    addr: SocketAddr,
    inputs: &Inputs,
    seconds: f64,
    firsts: &mut Firsts,
    between: Between,
) -> NetPhase {
    let mut conns: Vec<_> = (0..NET_TENANTS).map(|t| connect_raw(addr, t)).collect();
    for (reader, _) in &conns {
        let timeout = Some(Duration::from_secs(2)); // silence this long: lost
        reader.get_ref().set_read_timeout(timeout).expect("timeout");
    }
    let mut phase = NetPhase::new("saturation");
    let mut seen: Vec<Seen> = (0..NET_TENANTS).map(|_| Seen::default()).collect();
    let mut asked = [0usize; NET_TENANTS];
    let origin = Instant::now();
    let mut windows = Windows::new(seconds);
    let mut alive = true;
    while alive && !windows.done() {
        let round_t0 = Instant::now();
        for (t, (_, writer)) in conns.iter_mut().enumerate() {
            for _ in 0..NET_INFLIGHT {
                alive &= write_frame(writer, &ask_frame(asked[t] as u64, inputs, asked[t])).is_ok();
                asked[t] += 1;
            }
        }
        for (t, (reader, _)) in conns.iter_mut().enumerate() {
            while alive && seen[t].settled() < asked[t] as u64 {
                let before = seen[t].answers.len();
                alive = seen[t].read(reader, origin);
                if seen[t].answers.len() > before {
                    let ms = round_t0.elapsed().as_secs_f64() * 1e3;
                    windows.open.call_ms.push(ms);
                    windows.open.questions += 1;
                }
            }
        }
        windows.tick(between);
    }
    phase.windows = windows.closed;
    for (tenant, s) in seen.iter().enumerate() {
        for &(id, _, reply) in &s.answers {
            phase.note(firsts, tenant, id as usize, reply);
        }
    }
    phase.close(asked.iter().sum::<usize>() as u64, &seen);
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_runs_from_the_scheduled_instant() {
        // Due at 1 ms, sent 5 ms late, answered at 8 ms: the request waited
        // 7 ms, not the 2 ms a send-to-reply clock would show.
        let (latency, lag) = open_loop_account(1_000_000, 6_000_000, 8_000_000);
        assert_eq!(latency, 7_000_000);
        assert_eq!(lag, 5_000_000);
        // An on-time sender has no lag and the two clocks agree.
        assert_eq!(
            open_loop_account(1_000_000, 1_000_000, 3_000_000),
            (2_000_000, 0)
        );
    }
}
