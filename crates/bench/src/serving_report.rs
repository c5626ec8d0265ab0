//! Open-loop network-serving benchmark: what cross-tenant batch
//! coalescing buys at the front door, measured end to end through real
//! sockets instead of in-process calls.
//!
//! The load generator drives a loopback [`mnn_net::NetServer`] with
//! Poisson arrivals from eight concurrent tenants in two rate profiles
//! (heavy tenants offer 3x the load of light ones), sweeping the total
//! offered rate upward until the server stops sustaining it. A load
//! point *sustains* when nothing was lost, the client-observed shed rate
//! stays under [`SHED_BOUND`], the open-loop p99 (measured from the
//! *scheduled* arrival instant, so queueing delay is never hidden by a
//! slow sender) stays under the SLO, and the achieved rate tracks the
//! offered rate. The sweep runs twice: once with the coalescing queues
//! enabled (`max_batch` 32) and once degenerated to batch-size-1
//! dispatch, same protocol, same scheduler, same everything else.
//!
//! The acceptance bounds emitted into `BENCH_serving.json`: the coalesced
//! front-end must sustain at least [`SPEEDUP_BOUND`]x the q/s of
//! batch-size-1 serving, with p99 under the SLO and shed rate under
//! [`SHED_BOUND`] at its reported sustained point — and must not tax a
//! lightly loaded server for it: at the lowest load point its p50 stays
//! within [`LOW_LOAD_P50_BOUND`]x of batch-size-1's.

use crate::table::{f, ExperimentTable};
use crate::Scale;
use mnn_dataset::babi::{BabiGenerator, TaskKind};
use mnn_dataset::{Vocabulary, WordId};
use mnn_memnn::{MemNet, ModelConfig};
use mnn_net::{read_frame, write_frame, NetClient, NetFrame, NetServer, ServerConfig, TenantAuth};
use mnn_serve::{BatchConfig, SessionConfig, OCCUPANCY_BUCKETS};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Minimum `coalesced sustained q/s / batch-1 sustained q/s`. The
/// acceptance bound for `BENCH_serving.json`.
pub const SPEEDUP_BOUND: f64 = 2.0;

/// Largest tolerated client-observed shed rate at a sustained point.
pub const SHED_BOUND: f64 = 0.01;

/// Largest tolerated `coalesced p50 / batch-1 p50` at the lowest load
/// point of the sweeps (both start at the same offered rate): coalescing
/// must come from backlog, never from holding a lone question.
pub const LOW_LOAD_P50_BOUND: f64 = 1.2;

/// One offered-load point of a sweep.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Total offered rate across every tenant, questions per second.
    pub offered_qps: f64,
    /// Answered questions divided by the timed window.
    pub achieved_qps: f64,
    /// Questions sent by the generators.
    pub sent: u64,
    /// Questions answered.
    pub answered: u64,
    /// Questions shed with a typed `Overloaded` frame.
    pub shed: u64,
    /// Questions answered with an `Error` frame.
    pub errors: u64,
    /// Questions never answered before the drain deadline.
    pub lost: u64,
    /// Open-loop p50 latency, milliseconds (scheduled send → answer).
    pub p50_ms: f64,
    /// Open-loop p99 latency, milliseconds.
    pub p99_ms: f64,
    /// Open-loop p99.9 latency, milliseconds.
    pub p999_ms: f64,
    /// Mean questions per dispatched batch during this point, from the
    /// server's own counters.
    pub mean_occupancy: f64,
    /// Whether this point met every sustain criterion.
    pub sustained: bool,
}

/// A full serving-throughput run: both sweeps plus the derived speedup.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Concurrent tenants (each on its own connection).
    pub tenants: usize,
    /// Tenants in the heavy profile (3x the per-tenant rate).
    pub heavy_tenants: usize,
    /// Sentences resident per tenant memory during the timed phase.
    pub window: usize,
    /// Embedding dimension.
    pub ed: usize,
    /// Latency SLO the p99 is held to, milliseconds.
    pub slo_ms: f64,
    /// Coalescing max-wait, microseconds (both flavors share it).
    pub max_wait_us: u64,
    /// Coalescing flush occupancy of the coalesced flavor.
    pub coalesced_max_batch: usize,
    /// Seconds each load point generates traffic for.
    pub point_seconds: f64,
    /// The batch-size-1 sweep, in offered-load order.
    pub batch1: Vec<LoadPoint>,
    /// The coalesced sweep, in offered-load order.
    pub coalesced: Vec<LoadPoint>,
    /// Highest sustained q/s of the batch-size-1 flavor.
    pub batch1_sustained_qps: f64,
    /// Highest sustained q/s of the coalesced flavor.
    pub coalesced_sustained_qps: f64,
    /// `coalesced_sustained_qps / batch1_sustained_qps`.
    pub speedup: f64,
    /// Acceptance bound on [`ServingReport::speedup`].
    pub speedup_bound: f64,
    /// Acceptance bound on the sustained-point shed rate.
    pub shed_bound: f64,
    /// `coalesced p50 / batch-1 p50` at the lowest load point (0 when a
    /// sweep is empty).
    pub low_load_p50_ratio: f64,
    /// Acceptance bound on [`ServingReport::low_load_p50_ratio`].
    pub low_load_p50_bound: f64,
    /// Server-side batch-occupancy histogram over the coalesced flavor's
    /// sustained point (buckets per `mnn_serve::OCCUPANCY_BOUNDS`).
    pub sustained_occupancy: Vec<u64>,
}

/// Deterministic LCG in the workspace's bench idiom; `next_f64` yields a
/// uniform in `(0, 1]` so `ln` never sees zero.
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// Sorts `samples` (milliseconds) and returns `(p50, p99, p999)`.
fn percentiles(samples: &mut [f64]) -> (f64, f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p = |q: f64| samples[((samples.len() - 1) as f64 * q) as usize];
    (p(0.50), p(0.99), p(0.999))
}

/// The knobs one [`run`] derives from its [`Scale`].
struct Shape {
    tenants: usize,
    heavy: usize,
    window: usize,
    ed: usize,
    slo_ms: f64,
    max_wait: Duration,
    max_batch: usize,
    point: Duration,
    drain: Duration,
    base_qps: f64,
    step: f64,
    max_points: usize,
}

/// A tenant's connection plus everything its generator threads need.
struct Tenant {
    stream: TcpStream,
    weight: f64,
    questions: Vec<Vec<WordId>>,
    seed: u64,
}

/// Per-point tally folded across every tenant.
#[derive(Default)]
struct Tally {
    sent: u64,
    answered: u64,
    shed: u64,
    errors: u64,
    latencies_ms: Vec<f64>,
}

fn hello(stream: &mut TcpStream, token: &str) {
    write_frame(
        stream,
        &NetFrame::Hello {
            token: token.into(),
        },
    )
    .expect("hello");
    match read_frame(stream).expect("hello ack") {
        NetFrame::HelloAck { .. } => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }
}

/// Fills a tenant's memory with `window` pre-encoded story sentences,
/// pipelined in chunks so neither socket buffer fills up.
fn observe_window(stream: &mut TcpStream, sentences: &[Vec<WordId>], window: usize) {
    const CHUNK: usize = 64;
    let mut sent = 0usize;
    while sent < window {
        let n = CHUNK.min(window - sent);
        for i in 0..n {
            let tokens = sentences[(sent + i) % sentences.len()].clone();
            write_frame(
                stream,
                &NetFrame::ObserveTokens {
                    id: (sent + i) as u64,
                    tokens,
                },
            )
            .expect("observe");
        }
        for _ in 0..n {
            match read_frame(stream).expect("observe ack") {
                NetFrame::ObserveAck { .. } => {}
                other => panic!("expected ObserveAck, got {other:?}"),
            }
        }
        sent += n;
    }
}

/// Runs one open-loop load point against an already-seeded server.
///
/// Every tenant gets a Poisson sender and a blocking receiver on a
/// cloned socket handle. Latency is measured from the *scheduled*
/// arrival instant, so a sender that falls behind (the catch-up send is
/// immediate) still charges the queueing delay to the server.
fn run_point(tenants: &[Tenant], offered_qps: f64, point: Duration, drain: Duration) -> Tally {
    let total_weight: f64 = tenants.iter().map(|t| t.weight).sum();
    let start = Instant::now();
    let t_end = start + point;
    let hard_deadline = t_end + drain;

    let mut handles = Vec::new();
    for tenant in tenants {
        let lambda = offered_qps * tenant.weight / total_weight;
        let send_times: Arc<Mutex<Vec<Instant>>> = Arc::new(Mutex::new(Vec::new()));
        let done = Arc::new(AtomicBool::new(false));
        let sent = Arc::new(AtomicU64::new(0));

        let mut w = tenant.stream.try_clone().expect("clone for sender");
        let questions = tenant.questions.clone();
        let mut lcg = Lcg(tenant.seed);
        let (st, dn, sn) = (send_times.clone(), done.clone(), sent.clone());
        let sender = std::thread::spawn(move || {
            let mut t_next = 0f64;
            let mut n = 0u64;
            loop {
                t_next += -lcg.next_f64().ln() / lambda;
                let target = start + Duration::from_secs_f64(t_next);
                if target >= t_end {
                    break;
                }
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
                st.lock().unwrap_or_else(|e| e.into_inner()).push(target);
                let frame = NetFrame::AskTokens {
                    id: n,
                    tokens: questions[n as usize % questions.len()].clone(),
                };
                if write_frame(&mut w, &frame).is_err() {
                    break;
                }
                n += 1;
            }
            sn.store(n, Ordering::Release);
            dn.store(true, Ordering::Release);
        });

        let mut r = tenant.stream.try_clone().expect("clone for receiver");
        r.set_read_timeout(Some(Duration::from_millis(500)))
            .expect("read timeout");
        let receiver = std::thread::spawn(move || {
            let mut tally = Tally::default();
            let mut received = 0u64;
            loop {
                if done.load(Ordering::Acquire) && received == sent.load(Ordering::Acquire) {
                    break;
                }
                match read_frame(&mut r) {
                    Ok(NetFrame::Answer { id, .. }) => {
                        let scheduled =
                            send_times.lock().unwrap_or_else(|e| e.into_inner())[id as usize];
                        tally
                            .latencies_ms
                            .push(scheduled.elapsed().as_secs_f64() * 1e3);
                        tally.answered += 1;
                        received += 1;
                    }
                    Ok(NetFrame::Overloaded { .. }) => {
                        tally.shed += 1;
                        received += 1;
                    }
                    Ok(NetFrame::Error { .. }) => {
                        tally.errors += 1;
                        received += 1;
                    }
                    Ok(_) => {}
                    // Timeouts keep polling until the drain deadline;
                    // anything unanswered past it counts as lost.
                    Err(_) => {
                        if Instant::now() > hard_deadline {
                            break;
                        }
                    }
                }
            }
            tally.sent = sent.load(Ordering::Acquire);
            tally
        });
        handles.push((sender, receiver));
    }

    let mut total = Tally::default();
    for (sender, receiver) in handles {
        sender.join().expect("sender thread");
        let tally = receiver.join().expect("receiver thread");
        total.sent += tally.sent;
        total.answered += tally.answered;
        total.shed += tally.shed;
        total.errors += tally.errors;
        total.latencies_ms.extend(tally.latencies_ms);
    }
    total
}

/// Occupancy-relevant counters from a stats scrape.
struct OccSnapshot {
    batches: u64,
    batched: u64,
    histogram: [u64; OCCUPANCY_BUCKETS],
}

fn scrape(addr: std::net::SocketAddr, token: &str) -> OccSnapshot {
    let (mut client, _) = NetClient::connect(addr, token).expect("stats connect");
    let stats = client.stats().expect("stats");
    OccSnapshot {
        batches: stats.batches_dispatched,
        batched: stats.batched_questions,
        histogram: stats.batch_occupancy,
    }
}

/// Sweeps offered load against one server flavor until it stops
/// sustaining, returning the points plus the sustained-point occupancy
/// histogram delta.
#[allow(clippy::too_many_lines)]
fn sweep(
    shape: &Shape,
    max_batch: usize,
    model: &MemNet,
    vocab: &Vocabulary,
    sentences: &[Vec<WordId>],
    questions: &[Vec<WordId>],
) -> (Vec<LoadPoint>, f64, Vec<u64>) {
    let auth: Vec<TenantAuth> = (0..shape.tenants)
        .map(|i| TenantAuth {
            token: format!("t{i}"),
            tenant: format!("tenant{i}"),
        })
        .collect();
    let session = SessionConfig {
        max_sentences: Some(shape.window),
        ..SessionConfig::default()
    };
    let config = ServerConfig {
        tenants: auth,
        batching: Some(BatchConfig {
            max_batch,
            max_wait: shape.max_wait,
        }),
        ..ServerConfig::default()
    };
    let server = NetServer::spawn(model.clone(), vocab.clone(), session, config).expect("spawn");
    let addr = server.addr();

    let mut tenants = Vec::with_capacity(shape.tenants);
    for i in 0..shape.tenants {
        let mut stream = TcpStream::connect(addr).expect("tenant connect");
        stream.set_nodelay(true).expect("nodelay");
        hello(&mut stream, &format!("t{i}"));
        observe_window(&mut stream, sentences, shape.window);
        tenants.push(Tenant {
            stream,
            weight: if i < shape.heavy { 3.0 } else { 1.0 },
            questions: questions.to_vec(),
            seed: 0x5EED_0001 + i as u64 * 0x9E37_79B9,
        });
    }

    let mut points = Vec::new();
    let mut sustained_qps = 0.0;
    let mut sustained_hist = vec![0u64; OCCUPANCY_BUCKETS];
    // Geometric ramp until the first failure, then bisection between the
    // bracketing loads: the sustained capacity is localized to a few
    // percent instead of a whole ramp step, so the reported speedup is
    // the ratio of capacities, not of grid points.
    let mut lo = 0.0f64;
    let mut hi = f64::INFINITY;
    let mut offered = shape.base_qps;
    let mut before = scrape(addr, "t0");
    for _ in 0..shape.max_points {
        let tally = run_point(&tenants, offered, shape.point, shape.drain);
        let after = scrape(addr, "t0");
        let d_batches = after.batches - before.batches;
        let d_batched = after.batched - before.batched;
        let hist: Vec<u64> = after
            .histogram
            .iter()
            .zip(&before.histogram)
            .map(|(a, b)| a - b)
            .collect();
        before = after;

        let lost = tally.sent - tally.answered - tally.shed - tally.errors;
        let mut lat = tally.latencies_ms.clone();
        let (p50, p99, p999) = percentiles(&mut lat);
        let achieved = tally.answered as f64 / shape.point.as_secs_f64();
        let shed_rate = if tally.sent > 0 {
            tally.shed as f64 / tally.sent as f64
        } else {
            1.0
        };
        // Sustaining means everything sent came back (nothing lost or
        // errored), shedding stayed under the bound, and the open-loop
        // p99 held the SLO. The nominal rate is not compared against:
        // a Poisson realization legitimately under- or over-shoots it,
        // and a server that falls behind shows up in p99 or shed long
        // before it shows up in the answered count.
        let sustained =
            lost == 0 && tally.errors == 0 && shed_rate < SHED_BOUND && p99 <= shape.slo_ms;
        let point = LoadPoint {
            offered_qps: offered,
            achieved_qps: achieved,
            sent: tally.sent,
            answered: tally.answered,
            shed: tally.shed,
            errors: tally.errors,
            lost,
            p50_ms: p50,
            p99_ms: p99,
            p999_ms: p999,
            mean_occupancy: if d_batches > 0 {
                d_batched as f64 / d_batches as f64
            } else {
                0.0
            },
            sustained,
        };
        if point.sustained {
            if offered > lo {
                lo = offered;
                sustained_qps = achieved;
                sustained_hist = hist;
            }
        } else if offered < hi {
            hi = offered;
        }
        points.push(point);
        if lo == 0.0 && hi.is_finite() {
            // Not even the base load sustained; probing lower would just
            // shrink the failure, not find a capacity.
            break;
        }
        if hi.is_finite() && hi / lo < 1.06 {
            break;
        }
        offered = if hi.is_finite() {
            (lo * hi).sqrt()
        } else {
            offered * shape.step
        };
        // Let the scheduler go idle between points so queue residue from
        // one load never bleeds into the next point's latencies.
        std::thread::sleep(Duration::from_millis(50));
    }

    drop(tenants);
    server.shutdown();
    (points, sustained_qps, sustained_hist)
}

/// Encodes `words` against `vocab`, panicking on any miss (the surface
/// forms below are the generator's own).
fn encode(vocab: &Vocabulary, words: &[&str]) -> Vec<WordId> {
    words
        .iter()
        .map(|w| vocab.id(w).unwrap_or_else(|| panic!("'{w}' not in vocab")))
        .collect()
}

/// Runs the full serving measurement: both sweeps on a loopback server.
pub fn run(scale: Scale) -> ServingReport {
    let shape = match scale {
        // The full shape keeps the fleet's combined memory planes
        // (tenants x window x ed f32 rows, twice over for M_IN/M_OUT)
        // far larger than the last-level cache — a server-class LLC runs
        // to hundreds of MB, so this must be sized against the *fleet*,
        // not one tenant — ensuring a batch-size-1 question re-streams
        // its tenant's plane from DRAM every time while a coalesced
        // batch streams it once for every occupant, the per-chunk
        // re-reads staying cache-resident. The same regime `bench_batch`
        // measures in-process.
        // Occupancy comes from backlog, not from a hold: the scheduler
        // flushes the moment it has nothing else to do, so a batch is
        // whatever arrived while the previous pass was computing, and a
        // tenant's occupancy grows with load on its own — past the
        // batch-1 saturation point the flush cycle lengthens until the
        // batches it collects pay for it. max_wait only caps how long an
        // ask sits behind *other requests* mid-drain; at these rates
        // (hundreds of q/s against ~10 ms passes) it never binds. The
        // SLO budgets for a full-fleet flush cycle and sits OFF the
        // coalesced p99 plateau, in a region where both flavors' p99
        // moves steeply with load, so the capacity search is not a coin
        // flip on p99 noise.
        Scale::Full => Shape {
            tenants: 8,
            heavy: 4,
            window: 131_072,
            ed: 64,
            slo_ms: 800.0,
            max_wait: Duration::from_millis(100),
            max_batch: 48,
            // Long enough that an offered load above the true capacity
            // fails decisively: an open-loop backlog grows linearly with
            // the window, so a supercritical point cannot sneak under
            // the SLO on a short transient. 6 s windows still let a
            // barely-supercritical batch-1 point win a p99 coin flip
            // (observed: p99 420 ms and 1200 ms on back-to-back runs of
            // the same offered load); 12 s makes the boundary decisive.
            point: Duration::from_secs(12),
            drain: Duration::from_secs(8),
            base_qps: 40.0,
            step: 1.5,
            max_points: 18,
        },
        Scale::Smoke => Shape {
            tenants: 2,
            heavy: 1,
            window: 96,
            ed: 32,
            slo_ms: 2_000.0,
            max_wait: Duration::from_millis(5),
            max_batch: 8,
            point: Duration::from_millis(250),
            drain: Duration::from_secs(2),
            base_qps: 30.0,
            step: 1.5,
            max_points: 2,
        },
    };

    // An untrained model in the serving shape: throughput and latency do
    // not care about the weights, only the arithmetic volume, and the
    // bitwise loopback-parity claim is proven by the e2e tests, not
    // here.
    let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 2019);
    let _ = generator.dataset(4, 4, 2);
    let model_config = ModelConfig {
        temporal: false,
        position_encoding: true,
        ..ModelConfig::for_generator(&generator, shape.ed, 8)
    };
    let model = MemNet::new(model_config, 7);
    let vocab = generator.vocab().clone();

    // Story sentences and questions in the generator's surface forms.
    let persons = [
        "mary", "john", "sandra", "daniel", "fred", "bill", "julie", "emma",
    ];
    let locations = [
        "kitchen", "garden", "hallway", "office", "bathroom", "bedroom", "park", "cinema",
    ];
    let verbs = ["went", "journeyed", "travelled", "moved"];
    let mut sentences = Vec::new();
    for (i, p) in persons.iter().enumerate() {
        for (j, l) in locations.iter().enumerate() {
            let v = verbs[(i + j) % verbs.len()];
            sentences.push(encode(&vocab, &[p, v, "to", "the", l]));
        }
    }
    let questions: Vec<Vec<WordId>> = persons
        .iter()
        .map(|p| encode(&vocab, &["where", "is", p]))
        .collect();

    let (coalesced, coalesced_sustained_qps, sustained_occupancy) = sweep(
        &shape,
        shape.max_batch,
        &model,
        &vocab,
        &sentences,
        &questions,
    );
    let (batch1, batch1_sustained_qps, _) =
        sweep(&shape, 1, &model, &vocab, &sentences, &questions);

    let speedup = if batch1_sustained_qps > 0.0 {
        coalesced_sustained_qps / batch1_sustained_qps
    } else {
        0.0
    };
    let low_load_p50_ratio = match (coalesced.first(), batch1.first()) {
        (Some(c), Some(b)) if b.p50_ms > 0.0 => c.p50_ms / b.p50_ms,
        _ => 0.0,
    };
    ServingReport {
        tenants: shape.tenants,
        heavy_tenants: shape.heavy,
        window: shape.window,
        ed: shape.ed,
        slo_ms: shape.slo_ms,
        max_wait_us: shape.max_wait.as_micros() as u64,
        coalesced_max_batch: shape.max_batch,
        point_seconds: shape.point.as_secs_f64(),
        batch1,
        coalesced,
        batch1_sustained_qps,
        coalesced_sustained_qps,
        speedup,
        speedup_bound: SPEEDUP_BOUND,
        shed_bound: SHED_BOUND,
        low_load_p50_ratio,
        low_load_p50_bound: LOW_LOAD_P50_BOUND,
        sustained_occupancy,
    }
}

impl ServingReport {
    /// The coalesced flavor's sustained point: the highest-load point
    /// that met every criterion (points are in probe order, which the
    /// bisection phase makes non-monotonic).
    fn sustained_point(&self) -> Option<&LoadPoint> {
        self.coalesced
            .iter()
            .filter(|p| p.sustained)
            .max_by(|a, b| a.offered_qps.total_cmp(&b.offered_qps))
    }

    /// `true` when the coalesced front-end sustained
    /// [`ServingReport::speedup_bound`]x batch-size-1 with p99 under the
    /// SLO and shed under [`ServingReport::shed_bound`], and its
    /// lowest-load p50 stayed within
    /// [`ServingReport::low_load_p50_bound`]x of batch-size-1's.
    pub fn within_bounds(&self) -> bool {
        let Some(point) = self.sustained_point() else {
            return false;
        };
        self.batch1_sustained_qps > 0.0
            && self.speedup >= self.speedup_bound
            && self.low_load_p50_ratio > 0.0
            && self.low_load_p50_ratio <= self.low_load_p50_bound
            && point.p99_ms <= self.slo_ms
            && (point.shed as f64) < self.shed_bound * point.sent.max(1) as f64
    }

    /// Human-readable companion table.
    pub fn table(&self) -> ExperimentTable {
        let mut t = ExperimentTable::new(
            "Network serving: open-loop sustained throughput, coalesced vs batch-1",
            &[
                "flavor",
                "offered q/s",
                "achieved q/s",
                "p50 ms",
                "p99 ms",
                "p99.9 ms",
                "occupancy",
                "shed",
                "ok",
            ],
        );
        for (flavor, points) in [("batch-1", &self.batch1), ("coalesced", &self.coalesced)] {
            for p in points {
                t.row(vec![
                    flavor.into(),
                    f(p.offered_qps),
                    f(p.achieved_qps),
                    format!("{:.2}", p.p50_ms),
                    format!("{:.2}", p.p99_ms),
                    format!("{:.2}", p.p999_ms),
                    format!("{:.2}", p.mean_occupancy),
                    format!("{}", p.shed),
                    if p.sustained { "yes" } else { "NO" }.into(),
                ]);
            }
        }
        t.note(format!(
            "{} tenants ({} heavy at 3x), window={} sentences, ed={}, max_wait={}us, \
             coalesced max_batch={}, SLO p99<={}ms",
            self.tenants,
            self.heavy_tenants,
            self.window,
            self.ed,
            self.max_wait_us,
            self.coalesced_max_batch,
            self.slo_ms
        ));
        t.note(format!(
            "sustained: batch-1 {} q/s, coalesced {} q/s -> {:.2}x (bound {:.1}x); \
             lowest-load p50 coalesced/batch-1 {:.2}x (bound {:.1}x) — {}",
            f(self.batch1_sustained_qps),
            f(self.coalesced_sustained_qps),
            self.speedup,
            self.speedup_bound,
            self.low_load_p50_ratio,
            self.low_load_p50_bound,
            if self.within_bounds() {
                "within bounds"
            } else {
                "EXCEEDED"
            }
        ));
        t
    }

    /// Serializes the report as JSON (hand-rolled: the workspace builds
    /// offline with no serde).
    pub fn to_json(&self) -> String {
        fn points(out: &mut String, key: &str, points: &[LoadPoint]) {
            out.push_str(&format!("  \"{key}\": [\n"));
            for (i, p) in points.iter().enumerate() {
                out.push_str(&format!(
                    "    {{ \"offered_qps\": {:.1}, \"achieved_qps\": {:.1}, \"sent\": {}, \
                     \"answered\": {}, \"shed\": {}, \"errors\": {}, \"lost\": {}, \
                     \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}, \
                     \"mean_occupancy\": {:.2}, \"sustained\": {} }}{}\n",
                    p.offered_qps,
                    p.achieved_qps,
                    p.sent,
                    p.answered,
                    p.shed,
                    p.errors,
                    p.lost,
                    p.p50_ms,
                    p.p99_ms,
                    p.p999_ms,
                    p.mean_occupancy,
                    p.sustained,
                    if i + 1 < points.len() { "," } else { "" }
                ));
            }
            out.push_str("  ],\n");
        }
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"tenants\": {}, \"heavy_tenants\": {}, \"window\": {}, \"ed\": {},\n",
            self.tenants, self.heavy_tenants, self.window, self.ed
        ));
        out.push_str(&format!(
            "  \"slo_ms\": {:.1}, \"max_wait_us\": {}, \"coalesced_max_batch\": {}, \
             \"point_seconds\": {:.2},\n",
            self.slo_ms, self.max_wait_us, self.coalesced_max_batch, self.point_seconds
        ));
        points(&mut out, "batch1", &self.batch1);
        points(&mut out, "coalesced", &self.coalesced);
        out.push_str(&format!(
            "  \"batch1_sustained_qps\": {:.1}, \"coalesced_sustained_qps\": {:.1},\n",
            self.batch1_sustained_qps, self.coalesced_sustained_qps
        ));
        out.push_str(&format!(
            "  \"speedup\": {:.4}, \"speedup_bound\": {:.1}, \"shed_bound\": {:.3},\n",
            self.speedup, self.speedup_bound, self.shed_bound
        ));
        out.push_str(&format!(
            "  \"low_load_p50_ratio\": {:.4}, \"low_load_p50_bound\": {:.1},\n",
            self.low_load_p50_ratio, self.low_load_p50_bound
        ));
        let hist: Vec<String> = self
            .sustained_occupancy
            .iter()
            .map(u64::to_string)
            .collect();
        out.push_str(&format!(
            "  \"sustained_occupancy\": [{}],\n",
            hist.join(", ")
        ));
        out.push_str(&format!("  \"within_bounds\": {}\n", self.within_bounds()));
        out.push_str("}\n");
        out
    }

    /// Writes [`ServingReport::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error message on failure.
    pub fn write_json(&self, path: &str) -> Result<(), String> {
        std::fs::write(path, self.to_json()).map_err(|e| format!("writing {path}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_answers_and_tallies() {
        let report = run(Scale::Smoke);
        assert_eq!(report.tenants, 2);
        assert!(!report.coalesced.is_empty());
        assert!(!report.batch1.is_empty());
        for p in report.coalesced.iter().chain(&report.batch1) {
            assert_eq!(
                p.sent,
                p.answered + p.shed + p.errors + p.lost,
                "tally must balance: {p:?}"
            );
            assert!(p.sent > 0, "generator sent nothing: {p:?}");
            assert!(p.errors == 0, "server errored: {p:?}");
            assert!(p.p50_ms >= 0.0 && p.p99_ms >= p.p50_ms);
        }
        // No throughput or speedup assertion here: the smoke run shares
        // one contended core with the whole suite in a debug build. The
        // speedup bound is enforced by `bench_serving --check` on the
        // release binary.
        assert!(report.speedup.is_finite());
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = run(Scale::Smoke);
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"speedup\"",
            "\"speedup_bound\"",
            "\"batch1_sustained_qps\"",
            "\"coalesced_sustained_qps\"",
            "\"sustained_occupancy\"",
            "\"within_bounds\"",
            "\"low_load_p50_ratio\"",
            "\"p999_ms\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
