//! Distributed-serving overhead and tail latency: what the coordinator /
//! worker plane costs when nothing fails, and what hedged re-dispatch
//! buys back when one worker turns into a straggler.
//!
//! Two acceptance bounds, both emitted into `BENCH_dist.json`:
//!
//! 1. **Fault-free overhead** — median per-question latency through a
//!    four-worker loopback fleet divided by the same pass in-process.
//!    The fleet answers bitwise-identically (checked here), so the only
//!    cost is framing + TCP + the fan-out/fold seam; bound
//!    [`OVERHEAD_BOUND`].
//! 2. **Straggler p99** — one worker armed with a persistent
//!    `delay` RPC fault far above the hedge trigger; the coordinator's
//!    hedged duplicate must keep the p99 within [`P99_BOUND_RATIO`]
//!    of the fault-free distributed p99 instead of eating the full
//!    injected delay on every question that touches the slow shard.

use crate::table::{f, ExperimentTable};
use crate::Scale;
use mnn_dist::{
    Coordinator, DistConfig, ForwardOpts, RpcFaultKind, RpcFaultPlan, WorkerConfig, WorkerServer,
};
use mnn_tensor::Matrix;
use mnnfast::{
    Budget, EngineKind, ExecPlan, MemView, MnnFastConfig, Route, Scratch, SegmentPlan, Trace,
};
use std::time::{Duration, Instant};

/// Largest tolerated `distributed p50 / in-process p50` ratio at four
/// workers, fault-free. The acceptance bound for `BENCH_dist.json`.
pub const OVERHEAD_BOUND: f64 = 1.15;

/// Largest tolerated `hedged straggler p99 / fault-free p99` ratio.
pub const P99_BOUND_RATIO: f64 = 2.0;

/// A full distributed-overhead run.
#[derive(Debug, Clone)]
pub struct DistReport {
    /// Memory rows pushed to the fleet.
    pub ns: usize,
    /// Embedding dimension.
    pub ed: usize,
    /// Rows per chunk (also the shard fan-out granularity).
    pub chunk: usize,
    /// Workers in the fleet.
    pub workers: usize,
    /// Questions timed per flavor.
    pub questions: usize,
    /// Whether the distributed answer matched the in-process answer
    /// bit-for-bit before any timing started.
    pub bitwise_match: bool,
    /// In-process median seconds per question.
    pub single_p50: f64,
    /// Fault-free distributed median seconds per question.
    pub dist_p50: f64,
    /// Fault-free distributed p99 seconds per question.
    pub dist_p99: f64,
    /// Median of the per-question `distributed / in-process` latency
    /// ratios. The two flavors are timed back-to-back in one loop, so
    /// machine-level throughput swings hit numerator and denominator
    /// alike instead of whichever flavor ran during the slow spell.
    pub overhead_ratio: f64,
    /// Acceptance bound on [`DistReport::overhead_ratio`].
    pub overhead_bound: f64,
    /// Injected straggler delay, milliseconds.
    pub straggler_delay_ms: u64,
    /// Hedge trigger used against the straggler, milliseconds.
    pub hedge_ms: f64,
    /// p99 seconds per question through the hedged coordinator with no
    /// fault armed — the like-for-like baseline for the straggler tail
    /// (hedged dispatch opens per-request connections, so the pooled
    /// fault-free numbers would understate it).
    pub faultfree_hedged_p99: f64,
    /// p99 seconds per question with one straggling worker and hedging.
    pub straggler_p99: f64,
    /// `straggler_p99 / faultfree_hedged_p99`; how much of the injected
    /// delay leaked past the hedge into the tail.
    pub p99_ratio: f64,
    /// Acceptance bound on [`DistReport::p99_ratio`].
    pub p99_bound: f64,
    /// Hedged re-dispatches observed during the straggler pass.
    pub hedges_fired: u64,
}

/// Sorts `samples` and returns `(p50, p99)` in place.
fn percentiles(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let p = |q: f64| samples[((samples.len() - 1) as f64 * q) as usize];
    (p(0.50), p(0.99))
}

/// Runs the overhead + straggler measurement on a four-worker loopback
/// fleet against the in-process Column walk.
pub fn run(scale: Scale) -> DistReport {
    let ed = 64;
    // Coarse chunks keep the per-question partial count (and so the
    // framing + CRC cost) small relative to the dot-product work; the
    // row count is sized so the in-process pass takes milliseconds and
    // the fixed RPC seam amortizes below the overhead bound even on a
    // single-core machine where the fan-out cannot overlap compute.
    let chunk = scale.pick(4_096, 1_024);
    let workers = 4;
    let ns = scale.pick(262_144, 16_384);
    let questions = scale.pick(300, 40);
    let straggler_delay = Duration::from_millis(scale.pick(50, 20));

    let mut state = 0x5EEDu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
    };
    let m_in = Matrix::from_fn(ns, ed, |_, _| next());
    let m_out = Matrix::from_fn(ns, ed, |_, _| next());
    let view = MemView::from((&m_in, &m_out));
    let whole = SegmentPlan::unsegmented(ns);
    let u: Vec<f32> = (0..ed).map(|_| next()).collect();

    // In-process reference: the same column pass the workers run.
    let config = MnnFastConfig::new(chunk);
    let engine = ExecPlan::new(config)
        .with_kind(EngineKind::Column)
        .executor();
    let mut scratch = Scratch::new();
    let mut trace = Trace::disabled();
    let reference = engine
        .forward(
            view,
            Route::Plan(&whole),
            &u,
            &mut scratch,
            &mut trace,
            &Budget::unlimited(),
        )
        .expect("in-process reference");
    // Loopback fleet, two replicas per shard so the straggler pass has a
    // live backup to hedge to.
    let fleet: Vec<WorkerServer> = (0..workers)
        .map(|_| WorkerServer::spawn(WorkerConfig::new(ed, chunk)).expect("spawn worker"))
        .collect();
    let addrs: Vec<_> = fleet.iter().map(WorkerServer::addr).collect();
    let dist_config = DistConfig {
        replicas: 2,
        rpc_timeout: Duration::from_secs(10),
        ..DistConfig::default()
    };
    let mut coordinator =
        Coordinator::connect(&addrs, ed, chunk, false, dist_config).expect("connect");
    for r in 0..ns {
        coordinator.push(m_in.row(r), m_out.row(r)).expect("push");
    }
    let opts = ForwardOpts::from_config(&config).expect("column opts");

    let answer = coordinator
        .forward(&u, opts, &Budget::unlimited(), false)
        .expect("distributed pass");
    let bitwise_match = answer
        .o
        .iter()
        .zip(&reference.o)
        .all(|(a, b)| a.to_bits() == b.to_bits())
        && answer.denominator.to_bits() == reference.denominator.to_bits();

    // Interleave the two flavors so shared-machine throughput swings
    // (which dwarf the framing seam being measured) hit each pair alike.
    let mut single_samples = Vec::with_capacity(questions);
    let mut dist_samples = Vec::with_capacity(questions);
    let mut ratios = Vec::with_capacity(questions);
    for _ in 0..questions {
        let t0 = Instant::now();
        let out = engine
            .forward(
                view,
                Route::Plan(&whole),
                &u,
                &mut scratch,
                &mut trace,
                &Budget::unlimited(),
            )
            .expect("in-process pass");
        let single = t0.elapsed().as_secs_f64();
        scratch.recycle(out.o);
        let t0 = Instant::now();
        coordinator
            .forward(&u, opts, &Budget::unlimited(), false)
            .expect("distributed pass");
        let dist = t0.elapsed().as_secs_f64();
        single_samples.push(single);
        dist_samples.push(dist);
        ratios.push(dist / single);
    }

    let (single_p50, _) = percentiles(&mut single_samples);
    let (dist_p50, dist_p99) = percentiles(&mut dist_samples);
    let (overhead_ratio, _) = percentiles(&mut ratios);

    // Straggler pass: a fresh coordinator with the hedge armed at the
    // fault-free median (clamped away from zero). A spurious duplicate on
    // a healthy shard costs one redundant shard pass; a missing one costs
    // the full injected delay, so the trigger leans low.
    let hedge = Duration::from_secs_f64(dist_p50.max(0.001));
    let hedged_config = DistConfig {
        hedge: Some(hedge),
        ..dist_config
    };
    let mut coordinator =
        Coordinator::connect(&addrs, ed, chunk, false, hedged_config).expect("reconnect");
    // A coordinator only knows about rows pushed through it: wipe the
    // fleet and reload so the hedged one owns the placement.
    coordinator.clear().expect("clear fleet");
    for r in 0..ns {
        coordinator.push(m_in.row(r), m_out.row(r)).expect("push");
    }
    // Same interleaving as above, toggling only the fault: both sample
    // sets run through the identical hedged dispatch path (per-request
    // connections and all), so the ratio isolates what the injected
    // delay costs, not what arming a hedge costs.
    let plan = RpcFaultPlan {
        kind: RpcFaultKind::Delay(straggler_delay),
        after: 0,
        fires: u64::MAX,
    };
    coordinator
        .forward(&u, opts, &Budget::unlimited(), false)
        .expect("hedged warmup");
    let mut baseline_samples = Vec::with_capacity(questions);
    let mut straggler_samples = Vec::with_capacity(questions);
    for _ in 0..questions {
        fleet[0].disarm_fault();
        let t0 = Instant::now();
        coordinator
            .forward(&u, opts, &Budget::unlimited(), false)
            .expect("hedged fault-free pass");
        baseline_samples.push(t0.elapsed().as_secs_f64());
        fleet[0].arm_fault(plan);
        let t0 = Instant::now();
        coordinator
            .forward(&u, opts, &Budget::unlimited(), false)
            .expect("hedged straggler pass");
        straggler_samples.push(t0.elapsed().as_secs_f64());
    }
    fleet[0].disarm_fault();
    let (_, faultfree_hedged_p99) = percentiles(&mut baseline_samples);
    let (_, straggler_p99) = percentiles(&mut straggler_samples);
    let (_, _, hedges_fired, _) = coordinator.counters().snapshot();

    DistReport {
        ns,
        ed,
        chunk,
        workers,
        questions,
        bitwise_match,
        single_p50,
        dist_p50,
        dist_p99,
        overhead_ratio,
        overhead_bound: OVERHEAD_BOUND,
        straggler_delay_ms: straggler_delay.as_millis() as u64,
        hedge_ms: hedge.as_secs_f64() * 1e3,
        faultfree_hedged_p99,
        straggler_p99,
        p99_ratio: straggler_p99 / faultfree_hedged_p99,
        p99_bound: P99_BOUND_RATIO,
        hedges_fired,
    }
}

impl DistReport {
    /// `true` when the answers matched bitwise and both latency bounds
    /// held.
    pub fn within_bounds(&self) -> bool {
        self.bitwise_match
            && self.overhead_ratio <= self.overhead_bound
            && self.p99_ratio <= self.p99_bound
    }

    /// Human-readable companion table.
    pub fn table(&self) -> ExperimentTable {
        let mut t = ExperimentTable::new(
            "Distributed serving: fault-free overhead and hedged straggler p99",
            &["flavor", "p50 us", "p99 us", "ratio", "bound"],
        );
        t.row(vec![
            "in-process".into(),
            f(self.single_p50 * 1e6),
            "-".into(),
            "1.00".into(),
            "-".into(),
        ]);
        t.row(vec![
            format!("distributed x{}", self.workers),
            f(self.dist_p50 * 1e6),
            f(self.dist_p99 * 1e6),
            format!("{:.3}", self.overhead_ratio),
            format!("{:.2}", self.overhead_bound),
        ]);
        t.row(vec![
            "hedged fault-free".into(),
            "-".into(),
            f(self.faultfree_hedged_p99 * 1e6),
            "1.00".into(),
            "-".into(),
        ]);
        t.row(vec![
            format!("straggler+hedge {}ms", self.straggler_delay_ms),
            "-".into(),
            f(self.straggler_p99 * 1e6),
            format!("{:.3}", self.p99_ratio),
            format!("{:.2}", self.p99_bound),
        ]);
        t.note(format!(
            "ns={}, ed={}, chunk={}, {} workers x2 replicas, {} questions/flavor",
            self.ns, self.ed, self.chunk, self.workers, self.questions
        ));
        t.note(format!(
            "bitwise vs in-process: {}; hedge at {:.2}ms fired {} times — {}",
            if self.bitwise_match {
                "MATCH"
            } else {
                "MISMATCH"
            },
            self.hedge_ms,
            self.hedges_fired,
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
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"ns\": {}, \"ed\": {}, \"chunk\": {}, \"workers\": {}, \"questions\": {},\n",
            self.ns, self.ed, self.chunk, self.workers, self.questions
        ));
        out.push_str(&format!(
            "  \"bitwise_match\": {}, \"within_bounds\": {},\n",
            self.bitwise_match,
            self.within_bounds()
        ));
        out.push_str(&format!(
            "  \"single_p50_seconds\": {:.12},\n  \"dist_p50_seconds\": {:.12},\n  \"dist_p99_seconds\": {:.12},\n",
            self.single_p50, self.dist_p50, self.dist_p99
        ));
        out.push_str(&format!(
            "  \"overhead_ratio\": {:.4}, \"overhead_bound\": {:.2},\n",
            self.overhead_ratio, self.overhead_bound
        ));
        out.push_str(&format!(
            "  \"straggler_delay_ms\": {}, \"hedge_ms\": {:.3}, \"hedges_fired\": {},\n",
            self.straggler_delay_ms, self.hedge_ms, self.hedges_fired
        ));
        out.push_str(&format!(
            "  \"faultfree_hedged_p99_seconds\": {:.12},\n  \"straggler_p99_seconds\": {:.12},\n  \"p99_ratio\": {:.4}, \"p99_bound\": {:.2}\n",
            self.faultfree_hedged_p99, self.straggler_p99, self.p99_ratio, self.p99_bound
        ));
        out.push_str("}\n");
        out
    }

    /// Writes [`DistReport::to_json`] to `path`.
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
    fn smoke_run_matches_bitwise_and_hedges() {
        let report = run(Scale::Smoke);
        assert!(report.bitwise_match, "distributed answer drifted");
        assert!(report.single_p50 > 0.0);
        assert!(report.dist_p50 > 0.0);
        assert!(report.straggler_p99 > 0.0);
        assert!(
            report.hedges_fired > 0,
            "straggler pass never hedged: {report:?}"
        );
        assert!(report.faultfree_hedged_p99 > 0.0);
        assert!(report.overhead_ratio.is_finite());
        // No absolute latency assertion here: the smoke run shares a
        // contended core with the rest of the suite in a debug build.
        // The latency bounds are enforced by `bench_dist --check` on the
        // release binary.
        assert!(report.p99_ratio.is_finite());
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = run(Scale::Smoke);
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for key in [
            "\"overhead_ratio\"",
            "\"p99_ratio\"",
            "\"bitwise_match\"",
            "\"within_bounds\"",
            "\"hedges_fired\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
