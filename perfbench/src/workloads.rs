//! The four workloads: what each builds, how it is loaded, and how its
//! answers are checked. Everything here drives the program from outside
//! through public functions of `mnn-serve`, `mnn-net` and `mnn-memnn`;
//! sizes are frozen constants (calibrated once, see README.md), never
//! derived at run time.

use crate::inputs::{Inputs, ED, QUESTIONS};
use crate::procstat;
use mnn_dataset::WordId;
use mnn_memnn::inference::baseline_forward;
use mnn_memnn::model::EmbeddedStory;
use mnn_memnn::{BaselineCounters, OpTimes};
use mnn_serve::{Session, SessionConfig, SessionPool};
use mnn_tensor::Matrix;
use mnnfast::{ExecPlan, Precision};
use std::time::{Duration, Instant};

const _: () = assert!(BURST.is_multiple_of(WINDOWS * BURST_GROUP));

/// How a workload loads the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One caller, `Session::ask`, static memory.
    Scan,
    /// One caller, `Session::ask_many` with [`BATCH_NQ`] questions.
    Batch,
    /// Loopback `NetServer`, paced then saturated.
    Net,
    /// `SessionPool` over a full sliding window, 1 observe : 1 ask.
    Churn,
}

/// One workload's frozen shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line for BENCHMARK.json: why this workload exists.
    pub why: &'static str,
    pub kind: Kind,
    /// Memory rows (per tenant for [`Kind::Net`], the window for
    /// [`Kind::Churn`]).
    pub rows: usize,
    pub precision: Precision,
    /// Percentile `latency_tail_ms` reports. It is taken window by window,
    /// so it is chosen for what one window holds (a sixteenth of the
    /// phase), not for the phase's ten samples beyond.
    pub tail_pct: f64,
    /// Questions checked against the `mnn-memnn` baseline.
    pub oracle_sample: usize,
    /// Whether answers must equal the exact-f32 reference word for word.
    pub exact: bool,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "scan_f32",
        why: "nq=1 asks over a static 32768-row f32 memory: fused f32 kernels and the engine do the work; net, queues, index and int8 plane do none",
        kind: Kind::Scan,
        rows: 32_768,
        precision: Precision::F32,
        tail_pct: 95.0,
        oracle_sample: 32,
        exact: true,
    },
    Spec {
        name: "batch_f32",
        why: "ask_many with nq=32 over the same static f32 memory: the tiled gemm_chunk/BatchEngine path works and the nq=1 kernels are bypassed",
        kind: Kind::Batch,
        rows: 32_768,
        precision: Precision::F32,
        tail_pct: 90.0,
        oracle_sample: 32,
        exact: true,
    },
    Spec {
        name: "serve_net",
        why: "loopback server over two small tenants: socket, frame codec, net-thread parking, queue wait and embedding dominate; kernels do little",
        kind: Kind::Net,
        rows: 2_048,
        precision: Precision::F32,
        tail_pct: 95.0,
        oracle_sample: 32,
        exact: true,
    },
    Spec {
        name: "churn_window",
        why: "1 observe : 1 ask on a full int8 top-K sliding window: every write pays evict, mirror and index upkeep beside index-probed int8 reads",
        kind: Kind::Churn,
        rows: 32_768,
        precision: Precision::Int8,
        tail_pct: 95.0,
        oracle_sample: QUESTIONS,
        exact: false,
    },
];

/// Set-ups per run; `setup_s` is their median. The static memories fill
/// in 40 ms, which a handful of repeats does not pin down on this box.
pub const SETUP_REPS: usize = 11;
/// Questions per `ask_many` call in `batch_f32`.
pub const BATCH_NQ: usize = 32;
/// Fresh sentences a static workload appends over a run for
/// `observe_p50_us`: an equal share after each window of the timed phase.
pub const BURST: usize = 16_384;
/// Candidate rows per top-K question in `churn_window`.
pub const TOPK: usize = 64;
/// Sentence-cache entries (`serve_net` pool-shared, `churn_window`).
pub const EMBED_CACHE: usize = 4096;
/// Fresh sentences `churn_window` cycles through once the window is full.
const CHURN_STREAM: usize = 16_384;
/// `churn_window` checks every this-many-th timed ask against the oracle.
/// Prime, so the checked asks walk through all [`QUESTIONS`] questions
/// (every 32nd or 64th ask would come back to the same 16 or 8).
const CHURN_CHECK_EVERY: usize = 61;
/// Tenants (and connections) of `serve_net`.
pub const NET_TENANTS: usize = 2;
/// Asks each connection keeps in flight in the saturation phase.
pub const NET_INFLIGHT: usize = 32;
/// Open-loop arrival rate of the paced phase: ~15 % of the saturation
/// throughput measured when the benchmark was defined (~3280 q/s), rounded
/// to 10 q/s. Low-rate batches hold one or two questions, so at twice this
/// rate the scheduler thread was already ~77 % busy and a stall of the VM
/// queued dozens of replies behind it.
pub const NET_PACED_QPS: f64 = 490.0;
/// A paced reply later than this is counted and printed as late. It is not
/// a failed operation: the wait is already in `latency_tail_ms`, and on a
/// shared host a stall of this length is the host's, not the program's.
pub const NET_LATENCY_LIMIT: Duration = Duration::from_millis(50);
/// Untimed closed-loop seconds before a timed phase: the first second or
/// two after set-up run well below the steady rate on this class of box.
pub const WARMUP_S: f64 = 1.5;
/// Every timed phase is cut into this many equal windows; each timing
/// metric is computed per window and reported at the quartile of the
/// windows on its good side (`stats::quiet_quartile`). Interference from
/// outside the process (this is a small shared VM) only ever slows the
/// program down and comes in stretches of seconds, so up to three quarters
/// of a run can be disturbed before the reported value moves, while
/// anything the program itself does in every window shows in full.
pub const WINDOWS: usize = 16;
pub const TENANT: &str = "t0";

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        SPECS.iter().copied().find(|s| s.name == name)
    }

    /// `--smoke`: the same code paths at a sixteenth of the rows.
    pub fn smoke(mut self) -> Spec {
        self.rows /= 16;
        self.oracle_sample = self.oracle_sample.min(16);
        self
    }

    /// Sentences the workload needs generated.
    pub fn sentences(&self) -> usize {
        match self.kind {
            Kind::Net => NET_TENANTS * self.rows + BURST,
            Kind::Churn => self.rows + CHURN_STREAM,
            Kind::Scan | Kind::Batch => self.rows + BURST,
        }
    }

    /// Whether the workload's sessions live in a `SessionPool`.
    fn pooled(&self) -> bool {
        matches!(self.kind, Kind::Net | Kind::Churn)
    }

    /// The serving configuration: `SessionConfig::default()` (chunk 64,
    /// lazy softmax, fused kernels, engine `Auto`). A bare session gets
    /// `nproc` engine threads; a pool's sessions keep the default's one,
    /// which is what the `mnn-serve` daemon runs them with. (With two, the
    /// engine spawns its workers per hop: on `churn_window` that is a
    /// cross-vCPU wake-up after every 1 ms single-threaded observe, which
    /// costs more than the ~700 candidate rows it shares out, and its price
    /// moved with the host's load from 0.44 to 0.76 ms per ask between one
    /// run and the next.)
    pub fn session_config(&self, trace: bool) -> SessionConfig {
        let base = SessionConfig::default();
        let churn = self.kind == Kind::Churn;
        let threads = if self.pooled() { 1 } else { nproc() };
        SessionConfig {
            plan: ExecPlan::new(base.plan.config.with_threads(threads)),
            precision: self.precision,
            trace,
            max_sentences: churn.then_some(self.rows),
            topk: if churn { TOPK } else { 0 },
            embed_cache: self.pooled().then_some(EMBED_CACHE),
            ..base
        }
    }

    /// Index into the sentence corpus of the `j`-th sentence `churn_window`
    /// observes (set-up fills the window, then the stream cycles).
    pub fn churn_sentence(&self, j: usize) -> usize {
        if j < self.rows {
            j
        } else {
            self.rows + (j - self.rows) % CHURN_STREAM
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A predicted word and the bit pattern of its probability.
pub type Reply = (WordId, u32);

/// The in-process system under test.
pub enum Target {
    Session(Box<Session>),
    Pool(Box<SessionPool>),
}

impl Target {
    pub fn observe(&mut self, sentence: &[WordId]) -> bool {
        match self {
            Target::Session(s) => s.observe(sentence).is_ok(),
            Target::Pool(p) => p.observe(TENANT, sentence).is_ok(),
        }
    }

    pub fn ask(&mut self, question: &[WordId]) -> Option<Reply> {
        let answer = match self {
            Target::Session(s) => s.ask(question).ok(),
            Target::Pool(p) => p.ask(TENANT, question).ok(),
        }?;
        Some((answer.word, answer.probability.to_bits()))
    }

    pub fn ask_many(&mut self, questions: &[Vec<WordId>]) -> Vec<Option<Reply>> {
        let Target::Session(s) = self else {
            unreachable!("batches run on a bare session");
        };
        match s.ask_many(questions) {
            Ok(slots) => slots
                .into_iter()
                .map(|r| r.ok().map(|a| (a.word, a.probability.to_bits())))
                .collect(),
            Err(_) => vec![None; questions.len()],
        }
    }
}

/// An empty in-process target of the workload's configuration.
pub fn new_target(spec: &Spec, inputs: &Inputs, trace: bool) -> Target {
    let config = spec.session_config(trace);
    let model = inputs.model.clone();
    match spec.kind {
        Kind::Churn => {
            let mut pool = SessionPool::new(model, config).expect("pool");
            pool.create_tenant(TENANT).expect("tenant");
            Target::Pool(Box::new(pool))
        }
        _ => Target::Session(Box::new(Session::new(model, config).expect("session"))),
    }
}

/// Builds and fills the in-process target: session or pool creation,
/// memory fill through `observe`, and one warm-up ask (which is what
/// builds the top-K index and grows the scratch buffers).
pub fn build_target(spec: &Spec, inputs: &Inputs, trace: bool) -> Target {
    let mut target = new_target(spec, inputs, trace);
    for i in 0..spec.rows {
        assert!(
            target.observe(inputs.sentences.get(i)),
            "set-up observe {i}"
        );
    }
    assert!(target.ask(&inputs.questions[0]).is_some(), "warm-up ask");
    target
}

/// What a timed phase counted. Every phase prints one of these.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub phase: &'static str,
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
}

/// Result of an in-process closed-loop phase.
#[derive(Debug, Default)]
pub struct Timed {
    pub windows: Vec<Window>,
    pub tally: Tally,
    /// Repeats of a question whose reply was not bitwise the first one.
    pub inconsistent: u64,
    /// First reply per distinct question, warm-up included (static
    /// memories); a failed ask leaves `None`.
    pub first: Vec<Option<Reply>>,
    /// Calls made during the warm-up, before the first timed one.
    pub first_call: usize,
    /// Reply word of each timed ask (`churn_window`).
    pub churn_words: Vec<Option<WordId>>,
}

/// One of the [`WINDOWS`] stretches of a timed phase.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Wall seconds the window lasted (closed loops).
    pub seconds: f64,
    /// Process CPU seconds spent in it (closed loops).
    pub cpu_s: f64,
    /// Questions answered in it.
    pub questions: u64,
    /// Per call, in call order: an ask, or a whole batch in `batch_f32`.
    pub call_ms: Vec<f64>,
    /// Per observe: the writes of `churn_window`'s mix, or the burst groups
    /// appended after the window on the static workloads.
    pub observe_us: Vec<f64>,
}

impl Window {
    pub fn qps(&self) -> f64 {
        self.questions as f64 / self.seconds
    }

    pub fn cpu_s_per_kq(&self) -> f64 {
        self.cpu_s / (self.questions as f64 / 1000.0)
    }
}

/// What runs between two windows, off every clock of the phase: the
/// static workloads' share of the observe burst. Returns µs per observe.
pub type Between<'a> = &'a mut dyn FnMut() -> Vec<f64>;

/// Cuts a closed-loop phase into windows as wall time passes.
pub struct Windows {
    window_s: f64,
    started: Instant,
    cpu0: f64,
    pub open: Window,
    pub closed: Vec<Window>,
}

impl Windows {
    pub fn new(seconds: f64) -> Self {
        Self {
            window_s: seconds / WINDOWS as f64,
            started: Instant::now(),
            cpu0: procstat::cpu_seconds(),
            open: Window::default(),
            closed: Vec::new(),
        }
    }

    pub fn done(&self) -> bool {
        self.closed.len() >= WINDOWS
    }

    /// Closes the open window once it has run its length, runs `between`
    /// and opens the next one; call after every completed call.
    pub fn tick(&mut self, between: Between) {
        let seconds = self.started.elapsed().as_secs_f64();
        if seconds < self.window_s {
            return;
        }
        let mut window = std::mem::take(&mut self.open);
        window.seconds = seconds;
        window.cpu_s = procstat::cpu_seconds() - self.cpu0;
        window.observe_us.extend(between());
        self.closed.push(window);
        (self.started, self.cpu0) = (Instant::now(), procstat::cpu_seconds());
    }
}

/// One caller, next call only after the previous returned: `warmup_s`
/// untimed seconds, then [`WINDOWS`] timed windows of `seconds` in all.
/// Replies are checked for repeat consistency throughout; only the timed
/// part is measured.
pub fn closed_loop(
    spec: &Spec,
    target: &mut Target,
    inputs: &Inputs,
    warmup_s: f64,
    seconds: f64,
    between: Between,
) -> Timed {
    let mut out = Timed {
        first: vec![None; QUESTIONS],
        ..Timed::default()
    };
    let batches: Vec<Vec<Vec<WordId>>> = inputs
        .questions
        .chunks(BATCH_NQ)
        .map(<[_]>::to_vec)
        .collect();
    let started = Instant::now();
    let mut windows = Windows::new(seconds);
    let mut timing = false;
    let mut k = 0usize;
    while !windows.done() {
        if !timing && started.elapsed().as_secs_f64() >= warmup_s {
            (timing, windows) = (true, Windows::new(seconds));
            out.first_call = k;
        }
        // The write that rides along with every churn_window read.
        let mut observed = None;
        if spec.kind == Kind::Churn {
            let s = inputs.sentences.get(spec.churn_sentence(spec.rows + k));
            let t = Instant::now();
            let ok = target.observe(s);
            observed = Some((t.elapsed().as_secs_f64() * 1e6, ok));
        }
        let first_q = match spec.kind {
            Kind::Batch => (k % batches.len()) * BATCH_NQ,
            _ => k % QUESTIONS,
        };
        let t = Instant::now();
        let (replies, elapsed) = match spec.kind {
            Kind::Batch => {
                let replies = target.ask_many(&batches[first_q / BATCH_NQ]);
                (replies, t.elapsed())
            }
            _ => {
                let reply = target.ask(&inputs.questions[first_q]);
                (vec![reply], t.elapsed())
            }
        };
        let call_ms = elapsed.as_secs_f64() * 1e3;
        if spec.kind != Kind::Churn {
            for (i, r) in replies
                .iter()
                .enumerate()
                .filter_map(|(i, r)| Some((i, (*r)?)))
            {
                let seen = *out.first[first_q + i].get_or_insert(r);
                out.inconsistent += u64::from(seen != r);
            }
        }
        if timing {
            if let Some((us, ok)) = observed {
                windows.open.observe_us.push(us);
                out.tally.sent += 1;
                out.tally.succeeded += u64::from(ok);
                out.tally.failed += u64::from(!ok);
            }
            let answered = replies.iter().flatten().count() as u64;
            windows.open.call_ms.push(call_ms);
            windows.open.questions += answered;
            out.tally.sent += replies.len() as u64;
            out.tally.succeeded += answered;
            out.tally.failed += replies.len() as u64 - answered;
            if spec.kind == Kind::Churn {
                out.churn_words.push(replies[0].map(|r| r.0));
            }
            windows.tick(between);
        }
        k += 1;
    }
    out.windows = windows.closed;
    out.tally.phase = "closed_loop";
    out
}

/// Observes timed together as one burst sample. An append takes well under
/// a microsecond, which a single clock reading quantizes to a handful of
/// distinct values; a group's mean has the digits.
pub const BURST_GROUP: usize = 32;
/// Sentences of the burst appended after each window.
pub const SHARE: usize = BURST / WINDOWS;

/// The write path of a static workload: [`BURST`] fresh sentences appended
/// in [`WINDOWS`] equal shares, one after each window of the timed phase,
/// so the samples span the whole run instead of the few milliseconds one
/// burst lasts. They go to a memory nobody asks (a second session, a third
/// tenant), which leaves the asked one static.
pub struct Burst<'a> {
    inputs: &'a Inputs,
    next: usize,
    end: usize,
    pub tally: Tally,
}

impl<'a> Burst<'a> {
    pub fn new(spec: &Spec, inputs: &'a Inputs) -> Self {
        let end = spec.sentences();
        Burst {
            inputs,
            next: end - BURST,
            end,
            tally: Tally {
                phase: "observe_burst",
                ..Tally::default()
            },
        }
    }

    /// Appends the next share in groups of `group` sentences
    /// (`observe_group` returns how many of its group succeeded); returns
    /// each group's time in µs per observe.
    pub fn share(
        &mut self,
        group: usize,
        mut observe_group: impl FnMut(&[&[WordId]]) -> usize,
    ) -> Vec<f64> {
        let share_end = (self.next + SHARE).min(self.end);
        let mut us = Vec::new();
        while self.next + group <= share_end {
            let sentences: Vec<&[WordId]> = (self.next..self.next + group)
                .map(|i| self.inputs.sentences.get(i))
                .collect();
            let t = Instant::now();
            let ok = observe_group(&sentences);
            us.push(t.elapsed().as_secs_f64() * 1e6 / group as f64);
            self.tally.sent += group as u64;
            self.tally.succeeded += ok as u64;
            self.tally.failed += (group - ok) as u64;
            self.next += group;
        }
        us
    }
}

// ---------------------------------------------------------------------
// Oracle: exact-f32 reference answers from the mnn-memnn baseline.
// ---------------------------------------------------------------------

/// Embeds sentences `indices` the way `Session::observe` does, into the
/// `(M_IN, M_OUT)` pair the baseline attends over.
pub fn twin_rows(
    inputs: &Inputs,
    indices: impl ExactSizeIterator<Item = usize>,
) -> (Matrix, Matrix) {
    let mut m_in = Matrix::zeros(indices.len(), ED);
    let mut m_out = Matrix::zeros(indices.len(), ED);
    for (r, i) in indices.enumerate() {
        inputs.model.embed_sentence_pair(
            inputs.sentences.get(i),
            m_in.row_mut(r),
            m_out.row_mut(r),
        );
    }
    (m_in, m_out)
}

/// Baseline answers (full softmax, no chunking, one thread) to questions
/// `qs` over a memory.
pub fn reference_words(
    inputs: &Inputs,
    (m_in, m_out): (Matrix, Matrix),
    qs: &[usize],
) -> Vec<WordId> {
    let model = &inputs.model;
    let questions = qs
        .iter()
        .map(|&q| {
            let mut u = vec![0.0f32; ED];
            model.embed_question(&inputs.questions[q], &mut u);
            u
        })
        .collect();
    let story = EmbeddedStory {
        m_in,
        m_out,
        questions,
        answers: Vec::new(),
    };
    let (mut times, mut counters) = (OpTimes::new(), BaselineCounters::default());
    (0..qs.len())
        .map(|i| baseline_forward(model, &story, i, &mut times, &mut counters).answer)
        .collect()
}

/// Oracle verdict: how many sampled answers equal the reference word.
#[derive(Debug, Clone, Copy, Default)]
pub struct Verdict {
    pub checked: u64,
    pub matched: u64,
}

impl Verdict {
    pub fn share(&self) -> f64 {
        self.matched as f64 / self.checked.max(1) as f64
    }

    fn add(&mut self, got: Option<WordId>, want: WordId) {
        self.checked += 1;
        self.matched += u64::from(got == Some(want));
    }
}

/// The first `n` questions: the round-robin asks them first, so even a
/// slow run has asked every one of them.
fn sample(n: usize) -> Vec<usize> {
    (0..n.min(QUESTIONS)).collect()
}

/// Checks the first replies of a static-memory phase against the baseline
/// over rows `first_row..first_row + spec.rows` of the corpus.
pub fn check_static(
    spec: &Spec,
    inputs: &Inputs,
    first_row: usize,
    first: &[Option<Reply>],
) -> Verdict {
    let qs = sample(spec.oracle_sample);
    let memory = twin_rows(inputs, first_row..first_row + spec.rows);
    let want = reference_words(inputs, memory, &qs);
    let mut verdict = Verdict::default();
    for (&q, &w) in qs.iter().zip(&want) {
        verdict.add(first[q].map(|r| r.0), w);
    }
    verdict
}

/// `churn_window` oracle: every [`CHURN_CHECK_EVERY`]-th timed ask against
/// the exact-f32 baseline over the window as it stood at that ask, then
/// the first `oracle_sample` questions against the final window.
pub fn check_churn(spec: &Spec, inputs: &Inputs, target: &mut Target, timed: &Timed) -> Verdict {
    let calls = timed.first_call + timed.churn_words.len();
    // Every sentence observed so far, embedded once, in observe order; the
    // window before call k holds observed sentences k+1 ..= k+rows.
    let observed = (0..spec.rows + calls).map(|j| spec.churn_sentence(j));
    let (all_in, all_out) = twin_rows(inputs, observed);
    let window = |k: usize| {
        let slice = |m: &Matrix| {
            Matrix::from_flat(spec.rows, ED, m.rows_slice(k + 1, spec.rows)).expect("window shape")
        };
        (slice(&all_in), slice(&all_out))
    };
    let mut verdict = Verdict::default();
    for (i, &word) in timed
        .churn_words
        .iter()
        .enumerate()
        .step_by(CHURN_CHECK_EVERY)
    {
        let k = timed.first_call + i;
        let want = reference_words(inputs, window(k), &[k % QUESTIONS]);
        verdict.add(word, want[0]);
    }
    if calls > 0 {
        let qs = sample(spec.oracle_sample);
        let want = reference_words(inputs, window(calls - 1), &qs);
        for (&q, &w) in qs.iter().zip(&want) {
            verdict.add(target.ask(&inputs.questions[q]).map(|r| r.0), w);
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_shares_cover_the_fresh_sentences_once() {
        let spec = Spec::by_name("scan_f32").unwrap().smoke();
        let inputs = crate::inputs::build(3, spec.sentences());
        let mut burst = Burst::new(&spec, &inputs);
        let mut seen = Vec::new();
        for _ in 0..WINDOWS {
            let us = burst.share(BURST_GROUP, |group| {
                seen.extend(group.iter().map(|s| s.as_ptr()));
                group.len()
            });
            assert_eq!(us.len(), SHARE / BURST_GROUP);
        }
        // Every fresh sentence exactly once, in corpus order; a further
        // share finds nothing left.
        let fresh = spec.sentences() - BURST;
        let want: Vec<_> = (fresh..spec.sentences())
            .map(|i| inputs.sentences.get(i).as_ptr())
            .collect();
        assert_eq!(seen, want);
        assert!(burst.share(SHARE, |all| all.len()).is_empty());
        assert_eq!((burst.tally.sent, burst.tally.failed), (BURST as u64, 0));
    }

    #[test]
    fn windows_close_on_the_clock_and_run_between_off_it() {
        let mut windows = Windows::new(WINDOWS as f64 * 0.002); // 2 ms each
        let mut between_calls = 0;
        while !windows.done() {
            windows.open.call_ms.push(0.1);
            windows.open.questions += 1;
            windows.tick(&mut || {
                between_calls += 1;
                vec![1.0]
            });
        }
        assert_eq!((windows.closed.len(), between_calls), (WINDOWS, WINDOWS));
        for w in &windows.closed {
            assert!(w.seconds >= 0.002 && w.questions > 0);
            assert_eq!(w.questions as usize, w.call_ms.len());
            assert_eq!(w.observe_us, [1.0]);
            assert!((w.qps() - w.questions as f64 / w.seconds).abs() < 1e-9);
        }
    }
}
