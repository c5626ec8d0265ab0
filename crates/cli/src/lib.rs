//! Implementation of the `mnnfast` command-line tool.
//!
//! Subcommands:
//!
//! - `train`  — train a memory network on a synthetic bAbI-style task and
//!   save it,
//! - `eval`   — evaluate a saved model on fresh stories, with and without
//!   zero-skipping,
//! - `serve`  — interactive QA: feed facts line-by-line, end a line with
//!   `?` to ask,
//! - `connect` — the same REPL against a running `mnn-serve` daemon over
//!   the network protocol,
//! - `tasks`  — list the available task families.
//!
//! The argument parser is hand-rolled (`--key value` pairs) so the tool
//! has no dependencies beyond the workspace crates; it is unit-tested
//! through [`run`], which takes the argument vector, the variable source
//! `serve` resolves its `MNNFAST_*` knobs from, and an output sink.

use mnn_dataset::babi::{BabiGenerator, Story, TaskKind};
use mnn_dataset::babi_io;
use mnn_dataset::text;
use mnn_dataset::Vocabulary;
use mnn_memnn::train::Trainer;
use mnn_memnn::{eval as meval, MemNet, ModelConfig};
use mnn_serve::{Session, SessionConfig};
use mnnfast::{
    Budget, EngineKind, ExecPlan, MemView, MnnFastConfig, Precision, Route, Scratch, SegmentPlan,
    SkipPolicy, Trace,
};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::time::Duration;

/// Exit status of a CLI invocation.
pub type CliResult = Result<(), String>;

/// Parsed `--key value` options plus positional arguments.
#[derive(Debug, Default)]
pub struct Options {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Options {
    /// Keys that are switches: present-or-absent, no value consumed.
    const SWITCHES: &'static [&'static str] = &["trace"];

    /// Parses an argument list (without the program name) against the
    /// subcommand's `known` keys.
    ///
    /// # Errors
    ///
    /// Returns an error for a `--key` not in `known` and for a trailing
    /// `--key` without a value.
    pub fn parse(args: &[String], known: &[&str]) -> Result<Self, String> {
        let mut options = Options::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if !known.contains(&key) {
                    return Err(format!("unknown option --{key}"));
                }
                if Self::SWITCHES.contains(&key) {
                    options.flags.insert(key.to_owned(), "true".to_owned());
                    continue;
                }
                let value = it
                    .next()
                    .ok_or_else(|| format!("missing value for --{key}"))?;
                options.flags.insert(key.to_owned(), value.clone());
            } else {
                options.positional.push(a.clone());
            }
        }
        Ok(options)
    }

    fn switch(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value '{raw}' for --{key}")),
        }
    }

    fn get_str(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    fn require_str(&self, key: &str) -> Result<&str, String> {
        self.get_str(key)
            .ok_or_else(|| format!("--{key} is required"))
    }
}

fn parse_task(name: &str) -> Result<TaskKind, String> {
    match name {
        "single" => Ok(TaskKind::SingleSupportingFact),
        "two" => Ok(TaskKind::TwoSupportingFacts),
        "yesno" => Ok(TaskKind::YesNo),
        "counting" => Ok(TaskKind::Counting),
        "negation" => Ok(TaskKind::Negation),
        "whohas" => Ok(TaskKind::WhoHas),
        "before" => Ok(TaskKind::BeforeLocation),
        other => Err(format!(
            "unknown task '{other}' (expected single|two|yesno|counting|negation|whohas|before)"
        )),
    }
}

const USAGE: &str = "\
mnnfast — memory-network question answering (MnnFast reproduction)

USAGE:
  mnnfast train  --out <model.bin> [--task single] [--stories 150]
                 [--epochs 40] [--ed 32] [--ns 10] [--hops 1] [--seed 7]
                 [--data <babi.txt>]       (train on a bAbI-format file)
  mnnfast eval   --model <model.bin> [--task single] [--stories 40]
                 [--skip 0.01] [--seed 8] [--data <babi.txt>] [--trace]
  mnnfast serve  --model <model.bin> [--window 0] [--skip 0.0]
                 [--engine auto|column|parallel] [--threads 1]
                 [--deadline-ms 0] [--batch 0] [--embed-cache 0]
                 [--segments 1] [--precision f32|int8] [--trace]
                 [--workers 1] [--replicas 1] [--hedge-ms 0]
                 [--topk 0] [--nprobe 8]
  mnnfast connect --addr <host:port> [--token default]
  mnnfast export --out <babi.txt> [--task single] [--stories 100] [--ns 10]
  mnnfast tasks

`--engine` picks the execution variant (auto selects from memory size and
thread count); `--trace` prints a per-phase time breakdown (inner product,
exp/accumulate, skip, merge, divide) after the run. `--deadline-ms` puts a
per-question deadline on serve (0 disables); questions past the deadline
fail with an error but leave the session usable, and answers recovered
from a numeric fault on the stable path are marked `[degraded]`.
`--batch N` coalesces serve questions: they queue until N are waiting
(or the session ends) and are then answered in one batched streaming pass
over the memory, printing per-batch throughput and occupancy.
`--embed-cache N` memoizes sentence/question embeddings in an N-entry
cache (0 disables); repeated sentences skip the gather-sum entirely and a
hit-rate line is printed at session end.
`--segments N` partitions the story memory into N routed segments with
zone-map (max-norm) metadata; online-softmax questions skip segments that
provably cannot affect the answer, bitwise-identically. A segment summary
line is printed at session end.
`--precision int8` serves questions from a per-row symmetric int8 mirror
of the story memory (re-quantized incrementally as sentences arrive),
moving roughly a quarter of the bytes per question through exact-integer
kernels; numeric faults fall back to the f32 safe path. The session
summary reports both planes' resident bytes.
`--workers N` (N > 1) shards the story memory across N local worker
processes-worth of servers behind a fault-tolerant coordinator: answers
stay bitwise-identical to single-node serving, RPCs carry per-question
deadlines with bounded retries, and a total fleet failure falls back to
exact local execution. `--replicas R` stores each shard on R workers so
a killed worker fails over without losing exactness; `--hedge-ms M`
re-dispatches a shard to a backup replica if the primary has not
answered after M milliseconds (0 never hedges). A `distributed:` summary
line reports shard count, retries, failovers, hedges, and local
fallbacks.
`--topk K` (K > 0) answers questions through a clustered candidate index:
each question probes the nearest clusters and the exact kernels rescore
only the best candidate rows — sublinear in memory size, same kernels,
bitwise-exact on the rows it attends. `--nprobe P` sets the probe floor
(clusters opened per question). Low-confidence probes fall back to exact
attention per question, reported on the `sparse:` summary line.
A serve flag that is absent takes its `MNNFAST_*` environment variable
(`MNNFAST_SEGMENTS`, `_WORKERS`, `_REPLICAS`, `_HEDGE_MS`, `_TOPK`,
`_NPROBE`); a blank variable means the default and a malformed one is an
error.

`connect` speaks the binary protocol to a running `mnn-serve` daemon:
facts observe, a trailing `?` asks (the server may coalesce your question
with other tenants' into one batch — the answer bits are identical
either way), `:stats` prints the server's serving and network counters,
and `:quit` disconnects. `--token` selects the tenant credential
(default `default`).

Models save a `<model>.vocab` sidecar so eval/serve decode consistently.
";

/// Runs the CLI with `args` (excluding the program name), writing output to
/// `out`. Reads `input` for the `serve` REPL, and `env` (the variable
/// lookup: `std::env::var` in the binary, a table in tests) for the
/// `MNNFAST_*` knobs `serve` falls back to.
///
/// # Errors
///
/// Returns a user-facing message on bad arguments or I/O failure.
pub fn run(
    args: &[String],
    env: &dyn Fn(&str) -> Option<String>,
    input: &mut dyn BufRead,
    out: &mut dyn Write,
) -> CliResult {
    let Some(command) = args.first() else {
        writeln!(out, "{USAGE}").map_err(|e| e.to_string())?;
        return Err("no subcommand given".into());
    };
    let options = |known: &[&str]| Options::parse(&args[1..], known);
    match command.as_str() {
        "train" => cmd_train(
            &options(&[
                "out", "task", "stories", "epochs", "ed", "ns", "hops", "seed", "data",
            ])?,
            out,
        ),
        "eval" => cmd_eval(
            &options(&["model", "task", "stories", "skip", "seed", "data", "trace"])?,
            out,
        ),
        "serve" => cmd_serve(
            &options(&[
                "model",
                "window",
                "skip",
                "engine",
                "threads",
                "deadline-ms",
                "batch",
                "embed-cache",
                "segments",
                "precision",
                "trace",
                "workers",
                "replicas",
                "hedge-ms",
                "topk",
                "nprobe",
            ])?,
            env,
            input,
            out,
        ),
        "connect" => cmd_connect(&options(&["addr", "token"])?, input, out),
        "export" => cmd_export(&options(&["out", "task", "stories", "ns", "seed"])?, out),
        "tasks" => options(&[]).and_then(|_| cmd_tasks(out)),
        "help" | "--help" | "-h" => writeln!(out, "{USAGE}").map_err(|e| e.to_string()),
        other => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
    }
}

fn cmd_tasks(out: &mut dyn Write) -> CliResult {
    for (name, desc) in [
        ("single", "where is <person>? (one supporting fact)"),
        ("two", "where is the <object>? (two supporting facts)"),
        ("yesno", "is <person> in the <location>?"),
        ("counting", "how many objects is <person> carrying?"),
        ("negation", "yes/no/maybe with negated facts"),
        ("whohas", "who has the <object>?"),
        ("before", "where was <person> before the <location>?"),
    ] {
        writeln!(out, "{name:>9}  {desc}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn vocab_sidecar_path(model_path: &str) -> String {
    format!("{model_path}.vocab")
}

fn write_vocab(path: &str, vocab: &Vocabulary) -> Result<(), String> {
    let mut text = String::new();
    for (_, word) in vocab.iter() {
        text.push_str(word);
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

fn read_vocab(path: &str) -> Result<Vocabulary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Ok(text.lines().map(str::to_owned).collect())
}

/// Loads a bAbI-format file, interning into `vocab`; verifies the result
/// stays within `max_token` when given (eval against a fixed model).
fn load_babi_file(
    path: &str,
    vocab: &mut Vocabulary,
    max_token: Option<usize>,
) -> Result<Vec<Story>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    let mut reader = std::io::BufReader::new(file);
    let stories = babi_io::read_stories(&mut reader, vocab).map_err(|e| e.to_string())?;
    if let Some(limit) = max_token {
        if vocab.len() > limit {
            return Err(format!(
                "{path} contains {} distinct words but the model supports {limit}",
                vocab.len()
            ));
        }
    }
    Ok(stories)
}

fn cmd_export(options: &Options, out: &mut dyn Write) -> CliResult {
    let task = parse_task(options.get_str("task").unwrap_or("single"))?;
    let path = options.require_str("out")?;
    let stories = options.get("stories", 100usize)?;
    let ns = options.get("ns", 10usize)?;
    let seed = options.get("seed", 7u64)?;
    let mut generator = BabiGenerator::new(task, seed);
    let data = generator.dataset(stories, ns, 3);
    let mut buf = Vec::new();
    babi_io::write_stories(&data, generator.vocab(), &mut buf)?;
    std::fs::write(path, &buf).map_err(|e| format!("writing {path}: {e}"))?;
    writeln!(
        out,
        "exported {stories} {task:?} stories ({} bytes) to {path}",
        buf.len()
    )
    .map_err(|e| e.to_string())
}

fn cmd_train(options: &Options, out: &mut dyn Write) -> CliResult {
    let task = parse_task(options.get_str("task").unwrap_or("single"))?;
    let path = options.require_str("out")?;
    let stories = options.get("stories", 150usize)?;
    let epochs = options.get("epochs", 40usize)?;
    let ed = options.get("ed", 32usize)?;
    let ns = options.get("ns", 10usize)?;
    let hops = options.get("hops", 1usize)?;
    let seed = options.get("seed", 7u64)?;

    let mut generator = BabiGenerator::new(task, seed);
    let (train_set, vocab, max_ns) = match options.get_str("data") {
        Some(path) => {
            let mut vocab = Vocabulary::new();
            let stories = load_babi_file(path, &mut vocab, None)?;
            if stories.is_empty() {
                return Err(format!("{path} contains no stories"));
            }
            let max_ns = stories.iter().map(|s| s.sentences.len()).max().unwrap_or(1);
            (stories, vocab, max_ns)
        }
        None => (
            generator.dataset(stories, ns, 3),
            generator.vocab().clone(),
            ns,
        ),
    };
    // Serving-compatible model: position encoding instead of temporal.
    let config = ModelConfig {
        vocab_size: vocab.len(),
        embedding_dim: ed,
        max_sentences: max_ns,
        hops: 1,
        temporal: false,
        position_encoding: true,
    }
    .with_hops(hops);
    let mut model = MemNet::new(config, seed ^ 0x5eed);
    let report = Trainer::new()
        .epochs(epochs)
        .momentum(0.5)
        .train(&mut model, &train_set);

    let bytes = model.to_bytes().map_err(|e| e.to_string())?;
    std::fs::write(path, &bytes).map_err(|e| format!("writing {path}: {e}"))?;
    write_vocab(&vocab_sidecar_path(path), &vocab)?;
    writeln!(
        out,
        "trained {task:?}: {} parameters, train accuracy {:.1}%, saved to {path} ({} bytes)",
        model.num_parameters(),
        report.train_accuracy * 100.0,
        bytes.len()
    )
    .map_err(|e| e.to_string())
}

fn load_model(options: &Options) -> Result<MemNet, String> {
    let path = options.require_str("model")?;
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    MemNet::from_bytes(&bytes).map_err(|e| e.to_string())
}

fn cmd_eval(options: &Options, out: &mut dyn Write) -> CliResult {
    let task = parse_task(options.get_str("task").unwrap_or("single"))?;
    let stories = options.get("stories", 40usize)?;
    let skip = options.get("skip", 0.01f32)?;
    let seed = options.get("seed", 8u64)?;
    let model = load_model(options)?;
    let ns = model.config().max_sentences;

    let mut generator = BabiGenerator::new(task, seed);
    let test_set = match options.get_str("data") {
        Some(path) => {
            let model_path = options.require_str("model")?;
            let mut vocab = read_vocab(&vocab_sidecar_path(model_path))?;
            load_babi_file(path, &mut vocab, Some(model.config().vocab_size))?
        }
        None => generator.dataset(stories, ns, 3),
    };
    let baseline = meval::accuracy(&model, &test_set);

    let engine = mnnfast::ColumnEngine::new(
        MnnFastConfig::new(ns.max(1)).with_skip(SkipPolicy::Probability(skip)),
    );
    let hops = model.config().hops;
    let mut stats = mnnfast::InferenceStats::default();
    let mut scratch = Scratch::new();
    let mut trace = if options.switch("trace") {
        Trace::enabled()
    } else {
        Trace::disabled()
    };
    let skipped = meval::accuracy_with(&model, &test_set, |emb, q| {
        let outp = mnnfast::multi_hop(
            &engine,
            MemView::from((&emb.m_in, &emb.m_out)),
            Route::Plan(&SegmentPlan::unsegmented(emb.m_in.rows())),
            &emb.questions[q],
            hops,
            &mut scratch,
            &mut trace,
            &Budget::unlimited(),
        )
        .expect("embedded shapes are consistent");
        stats.merge(&outp.stats);
        let logits = model.output_logits(&outp.o, &outp.u_last);
        scratch.recycle(outp.o);
        logits
    });
    writeln!(
        out,
        "baseline accuracy {:.1}% | MnnFast (skip {skip}) accuracy {:.1}%, output computation cut {:.1}%",
        baseline * 100.0,
        skipped * 100.0,
        stats.computation_reduction() * 100.0
    )
    .map_err(|e| e.to_string())?;
    if trace.is_enabled() {
        write!(out, "{}", trace.render()).map_err(|e| e.to_string())?;
    }

    // Per-answer breakdown, decoded through the generator's vocabulary.
    let vocab = generator.vocab();
    let breakdown = meval::answer_breakdown(&model, &test_set);
    for (word, total, correct) in breakdown.per_answer.iter().take(8) {
        writeln!(
            out,
            "  {:>10}: {correct}/{total}",
            vocab.word(*word).unwrap_or("<?>")
        )
        .map_err(|e| e.to_string())?;
    }
    for (expected, predicted, count) in breakdown.confusions.iter().take(3) {
        writeln!(
            out,
            "  confusion: expected {} got {} ({count}x)",
            vocab.word(*expected).unwrap_or("<?>"),
            vocab.word(*predicted).unwrap_or("<?>")
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Answers a queued batch of serve questions in one batched pass, printing
/// each answer plus the batch's throughput and occupancy.
fn flush_questions(
    session: &mut Session,
    vocab: &Vocabulary,
    queued: &mut Vec<String>,
    batch: usize,
    out: &mut dyn Write,
) -> CliResult {
    if queued.is_empty() {
        return Ok(());
    }
    let n = queued.len();
    let t0 = std::time::Instant::now();
    let answers = session
        .ask_many_text(queued, vocab)
        .map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed().as_secs_f64();
    for (question, result) in queued.iter().zip(&answers) {
        match result {
            Ok((word, answer)) => writeln!(
                out,
                "-> {question}? {word} (p={:.2}, {} of {} rows skipped){}",
                answer.probability,
                answer.stats.rows_skipped,
                answer.stats.rows_total,
                if answer.degraded { " [degraded]" } else { "" }
            )
            .map_err(|e| e.to_string())?,
            Err(e) => writeln!(out, "!! {question}? {e}").map_err(|e| e.to_string())?,
        }
    }
    writeln!(
        out,
        "batch: {n} questions in {:.2} ms ({:.0} q/s, occupancy {n}/{batch})",
        elapsed * 1e3,
        n as f64 / elapsed.max(1e-9)
    )
    .map_err(|e| e.to_string())?;
    queued.clear();
    Ok(())
}

fn cmd_serve(
    options: &Options,
    env: &dyn Fn(&str) -> Option<String>,
    input: &mut dyn BufRead,
    out: &mut dyn Write,
) -> CliResult {
    // A malformed MNNFAST_SIMD fails here, not silently on first kernel use.
    mnn_tensor::validate_env().map_err(|e| e.to_string())?;
    // Flags win, the environment fills, then the library default.
    let knobs = SessionConfig::default()
        .with_env(env)
        .map_err(|e| e.to_string())?;
    let model = load_model(options)?;
    let window = options.get("window", 0usize)?;
    let skip = options.get("skip", 0.0f32)?;
    // Prefer the model's vocabulary sidecar; fall back to the generator's.
    let vocab = match options
        .get_str("model")
        .map(vocab_sidecar_path)
        .filter(|p| std::path::Path::new(p).exists())
    {
        Some(path) => read_vocab(&path)?,
        None => BabiGenerator::new(TaskKind::SingleSupportingFact, 0)
            .vocab()
            .clone(),
    };

    let kind = match options.get_str("engine") {
        None => EngineKind::Auto,
        Some(name) => EngineKind::parse(name)
            .ok_or_else(|| format!("unknown engine '{name}' (expected auto|column|parallel)"))?,
    };
    let threads = options.get("threads", 1usize)?;
    let deadline_ms = options.get("deadline-ms", 0u64)?;
    let embed_cache = options.get("embed-cache", 0usize)?;
    let precision = match options.get_str("precision").unwrap_or("f32") {
        "f32" => Precision::F32,
        "int8" => Precision::Int8,
        other => return Err(format!("unknown precision '{other}' (expected f32|int8)")),
    };
    let hedge_ms = options.get("hedge-ms", knobs.hedge.map_or(0, |d| d.as_millis() as u64))?;
    let config = SessionConfig {
        plan: ExecPlan::new(MnnFastConfig::new(64).with_threads(threads).with_skip(
            if skip > 0.0 {
                SkipPolicy::Probability(skip)
            } else {
                SkipPolicy::None
            },
        ))
        .with_kind(kind),
        max_sentences: (window > 0).then_some(window),
        deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
        trace: options.switch("trace"),
        embed_cache: (embed_cache > 0).then_some(embed_cache),
        segments: options.get("segments", knobs.segments)?,
        precision,
        workers: options.get("workers", knobs.workers)?,
        replicas: options.get("replicas", knobs.replicas)?,
        hedge: (hedge_ms > 0).then(|| Duration::from_millis(hedge_ms)),
        topk: options.get("topk", knobs.topk)?,
        nprobe: options.get("nprobe", knobs.nprobe)?,
    };
    let batch = options.get("batch", 0usize)?;
    let mut session = Session::new(model, config).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "serving; type facts, end a line with '?' to ask, ':quit' to exit"
    )
    .map_err(|e| e.to_string())?;

    let mut queued: Vec<String> = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        if input.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            break;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed == ":quit" {
            break;
        }
        if let Some(question) = trimmed.strip_suffix('?') {
            if batch > 1 {
                queued.push(question.to_owned());
                if queued.len() >= batch {
                    flush_questions(&mut session, &vocab, &mut queued, batch, out)?;
                } else {
                    writeln!(out, "   queued ({}/{batch})", queued.len())
                        .map_err(|e| e.to_string())?;
                }
                continue;
            }
            match session.ask_text(question, &vocab) {
                Ok((word, answer)) => writeln!(
                    out,
                    "-> {word} (p={:.2}, {} of {} rows skipped){}",
                    answer.probability,
                    answer.stats.rows_skipped,
                    answer.stats.rows_total,
                    if answer.degraded { " [degraded]" } else { "" }
                )
                .map_err(|e| e.to_string())?,
                Err(e) => writeln!(out, "!! {e}").map_err(|e| e.to_string())?,
            }
        } else {
            match session.observe_text(trimmed, &vocab) {
                Ok(_) => writeln!(out, "   noted ({} sentences)", session.memory_len())
                    .map_err(|e| e.to_string())?,
                Err(e) => writeln!(out, "!! {e}").map_err(|e| e.to_string())?,
            }
        }
    }
    // A partially filled batch still answers on exit.
    flush_questions(&mut session, &vocab, &mut queued, batch.max(1), out)?;
    writeln!(
        out,
        "session: {} questions answered, {:.1}% of output computation skipped",
        session.questions_answered(),
        session.cumulative_stats().computation_reduction() * 100.0
    )
    .map_err(|e| e.to_string())?;
    match session.precision() {
        Precision::Int8 => writeln!(
            out,
            "memory: {} sentences, int8 mirror {} bytes resident (f32 plane {} bytes), {} bytes moved by questions",
            session.memory_len(),
            session.quant_resident_bytes(),
            session.memory_resident_bytes(),
            session.cumulative_stats().memory_bytes
        ),
        Precision::F32 => writeln!(
            out,
            "memory: {} sentences, f32 plane {} bytes resident, {} bytes moved by questions",
            session.memory_len(),
            session.memory_resident_bytes(),
            session.cumulative_stats().memory_bytes
        ),
    }
    .map_err(|e| e.to_string())?;
    if session.segments() > 1 {
        let s = session.cumulative_stats();
        writeln!(
            out,
            "segments: {} routed, {} considered, {} pruned ({} rows skipped by zone map)",
            session.segments(),
            s.segments_total,
            s.segments_pruned,
            s.rows_pruned
        )
        .map_err(|e| e.to_string())?;
    }
    let health = session.degradation_stats();
    if session.topk() > 0 {
        let s = session.cumulative_stats();
        writeln!(
            out,
            "sparse: top-{} (probe floor {}), {} clusters probed, {} rows rescored, \
             {} rows skipped by index, {} exact fallbacks",
            session.topk(),
            session.nprobe(),
            s.index_probes,
            s.candidates_scored,
            s.rows_skipped_by_index,
            health.sparse_fallbacks
        )
        .map_err(|e| e.to_string())?;
    }
    if session.dist_shards() > 0 || health.dist_fallbacks > 0 {
        writeln!(
            out,
            "distributed: {} shards, {} retries, {} failovers, {} hedges, {} local fallbacks",
            session.dist_shards(),
            health.dist_retries,
            health.dist_failovers,
            health.dist_hedges,
            health.dist_fallbacks
        )
        .map_err(|e| e.to_string())?;
    }
    if health.deadline_misses + health.numeric_faults > 0 {
        writeln!(
            out,
            "health: {} deadline misses, {} numeric faults, {} degraded answers{}",
            health.deadline_misses,
            health.numeric_faults,
            health.degraded_answers,
            if health.pinned_safe {
                " (pinned to safe path)"
            } else {
                ""
            }
        )
        .map_err(|e| e.to_string())?;
    }
    if let Some(cache) = session.embed_cache_stats() {
        writeln!(
            out,
            "embed cache: {} hits, {} misses ({:.1}% hit rate), {} evictions",
            cache.hits,
            cache.misses,
            cache.hit_ratio() * 100.0,
            cache.evictions
        )
        .map_err(|e| e.to_string())?;
    }
    if config.trace {
        write!(out, "{}", session.cumulative_trace().render()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Renders a server stats snapshot: the serving counters first, then the
/// network plane (connections, frames, coalescing histogram, sheds).
fn write_net_stats(out: &mut dyn Write, s: &mnn_net::NetStatsWire) -> CliResult {
    writeln!(
        out,
        "server: {} tenants, {} sentences, {} questions answered, {} shed, {} pending",
        s.tenants, s.total_sentences, s.questions_answered, s.shed_questions, s.pending_questions
    )
    .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "batching: {} batches dispatched, {} questions coalesced, max occupancy {}",
        s.batches_dispatched, s.batched_questions, s.max_batch_occupancy
    )
    .map_err(|e| e.to_string())?;
    let mut histogram = String::new();
    for (i, count) in s.batch_occupancy.iter().enumerate() {
        if !histogram.is_empty() {
            histogram.push(' ');
        }
        match mnn_serve::OCCUPANCY_BOUNDS.get(i) {
            Some(bound) => histogram.push_str(&format!("\u{2264}{bound}:{count}")),
            None => histogram.push_str(&format!(
                ">{}:{count}",
                mnn_serve::OCCUPANCY_BOUNDS[mnn_serve::OCCUPANCY_BOUNDS.len() - 1]
            )),
        }
    }
    writeln!(out, "occupancy: {histogram}").map_err(|e| e.to_string())?;
    writeln!(
        out,
        "network: {} connections accepted ({} active), {} frames in, {} frames out",
        s.net_connections_accepted, s.net_connections_active, s.net_frames_in, s.net_frames_out
    )
    .map_err(|e| e.to_string())?;
    if !s.sheds_by_tenant.is_empty() {
        let detail: Vec<String> = s
            .sheds_by_tenant
            .iter()
            .map(|(tenant, n)| format!("{tenant}={n}"))
            .collect();
        writeln!(out, "sheds by tenant: {}", detail.join(" ")).map_err(|e| e.to_string())?;
    }
    if s.deadline_misses + s.degraded_answers > 0 {
        writeln!(
            out,
            "health: {} deadline misses, {} degraded answers",
            s.deadline_misses, s.degraded_answers
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn cmd_connect(options: &Options, input: &mut dyn BufRead, out: &mut dyn Write) -> CliResult {
    let raw_addr = options.require_str("addr")?;
    let addr: std::net::SocketAddr = raw_addr
        .parse()
        .map_err(|_| format!("invalid --addr '{raw_addr}'"))?;
    let token = options.get_str("token").unwrap_or("default");
    let (mut client, tenant) =
        mnn_net::NetClient::connect(addr, token).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "connected to {addr} as tenant '{tenant}'; type facts, end a line with '?' to ask, \
         ':stats' for counters, ':quit' to exit"
    )
    .map_err(|e| e.to_string())?;

    let mut line = String::new();
    loop {
        line.clear();
        if input.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            break;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed == ":quit" {
            break;
        }
        if trimmed == ":stats" {
            let stats = client.stats().map_err(|e| e.to_string())?;
            write_net_stats(out, &stats)?;
            continue;
        }
        if let Some(question) = trimmed.strip_suffix('?') {
            match client.ask(question.trim_end()).map_err(|e| e.to_string())? {
                mnn_net::Response::Answer(a) => writeln!(
                    out,
                    "-> {} (p={:.2}){}",
                    a.text,
                    a.probability,
                    if a.degraded { " [degraded]" } else { "" }
                )
                .map_err(|e| e.to_string())?,
                mnn_net::Response::Overloaded { retry_after_ms, .. } => {
                    writeln!(out, "!! overloaded, retry after {retry_after_ms}ms")
                        .map_err(|e| e.to_string())?
                }
                mnn_net::Response::Rejected { code, message, .. } => {
                    writeln!(out, "!! {code:?}: {message}").map_err(|e| e.to_string())?
                }
                mnn_net::Response::Observed { .. } => {
                    writeln!(out, "!! unexpected observe-ack").map_err(|e| e.to_string())?
                }
            }
        } else {
            match client.observe(trimmed) {
                Ok(sentences) => {
                    writeln!(out, "   noted ({sentences} sentences)").map_err(|e| e.to_string())?
                }
                Err(e) => writeln!(out, "!! {e}").map_err(|e| e.to_string())?,
            }
        }
    }
    let stats = client.stats().map_err(|e| e.to_string())?;
    write_net_stats(out, &stats)?;
    Ok(())
}

/// Decodes text to make rustdoc examples concise.
#[doc(hidden)]
pub fn encode_for_tests(s: &str, vocab: &mnn_dataset::Vocabulary) -> Vec<u32> {
    text::encode(s, vocab).expect("known words")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn run_cli(args: &[&str], stdin: &str) -> Result<String, String> {
        run_cli_env(args, &[], stdin)
    }

    /// As [`run_cli`], with `vars` as the whole environment.
    fn run_cli_env(args: &[&str], vars: &[(&str, &str)], stdin: &str) -> Result<String, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let env = |name: &str| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_owned())
        };
        let mut input = Cursor::new(stdin.as_bytes().to_vec());
        let mut out = Vec::new();
        run(&args, &env, &mut input, &mut out)
            .map(|()| String::from_utf8(out).expect("utf8 output"))
    }

    /// The `-> ...` answer lines of a `serve` transcript.
    fn answer_lines(out: &str) -> Vec<&str> {
        out.lines().filter(|l| l.starts_with("-> ")).collect()
    }

    #[test]
    fn option_parsing() {
        let known = ["task", "epochs", "dangling"];
        let options = Options::parse(
            &[
                "--task".into(),
                "single".into(),
                "pos".into(),
                "--epochs".into(),
                "3".into(),
            ],
            &known,
        )
        .unwrap();
        assert_eq!(options.get_str("task"), Some("single"));
        assert_eq!(options.get("epochs", 0usize).unwrap(), 3);
        assert_eq!(options.get("missing", 9usize).unwrap(), 9);
        assert_eq!(options.positional, vec!["pos".to_string()]);
        assert!(Options::parse(&["--dangling".into()], &known).is_err());
        assert!(options.get::<usize>("task", 0).is_err());
        let err = Options::parse(&["--epocs".into(), "9".into()], &known).unwrap_err();
        assert_eq!(err, "unknown option --epocs");
    }

    /// A misspelt flag is an error naming it, not a silent default.
    #[test]
    fn unknown_flags_are_rejected_by_name() {
        for (args, typo) in [
            (&["train", "--out", "m.bin", "--epocs", "9"][..], "--epocs"),
            (
                &["serve", "--model", "m.bin", "--segmnets", "5"][..],
                "--segmnets",
            ),
            (
                &["eval", "--model", "m.bin", "--segments", "2"][..],
                "--segments",
            ),
            (&["tasks", "--trace"][..], "--trace"),
        ] {
            let err = run_cli(args, "").unwrap_err();
            assert_eq!(err, format!("unknown option {typo}"), "{args:?}");
        }
    }

    #[test]
    fn tasks_lists_all_families() {
        let out = run_cli(&["tasks"], "").unwrap();
        for name in [
            "single", "two", "yesno", "counting", "negation", "whohas", "before",
        ] {
            assert!(out.contains(name), "missing {name} in {out}");
        }
    }

    #[test]
    fn unknown_subcommand_and_missing_args_error() {
        assert!(run_cli(&["frobnicate"], "").is_err());
        assert!(run_cli(&[], "").is_err());
        assert!(run_cli(&["train"], "").is_err(), "--out is required");
        assert!(run_cli(&["eval"], "").is_err(), "--model is required");
        let err = run_cli(&["train", "--out", "/tmp/x.bin", "--task", "bogus"], "");
        assert!(err.unwrap_err().contains("unknown task"));
    }

    #[test]
    fn train_eval_serve_round_trip() {
        let dir = std::env::temp_dir().join("mnnfast-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("model.bin");
        let model_str = model_path.to_str().unwrap();

        let out = run_cli(
            &[
                "train",
                "--out",
                model_str,
                "--stories",
                "80",
                "--epochs",
                "25",
                "--ed",
                "24",
                "--ns",
                "8",
            ],
            "",
        )
        .unwrap();
        assert!(out.contains("saved to"), "{out}");

        let out = run_cli(&["eval", "--model", model_str, "--stories", "10"], "").unwrap();
        assert!(out.contains("baseline accuracy"), "{out}");

        let stdin = "mary went to the kitchen\n\
                     john moved to the garden\n\
                     where is mary?\n\
                     :quit\n";
        let out = run_cli(&["serve", "--model", model_str], stdin).unwrap();
        assert!(out.contains("noted (2 sentences)"), "{out}");
        assert!(out.contains("-> "), "{out}");
        assert!(out.contains("1 questions answered"), "{out}");
    }

    #[test]
    fn connect_repl_drives_a_live_server() {
        let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 11);
        let train_set = generator.dataset(60, 8, 3);
        let config = ModelConfig {
            temporal: false,
            position_encoding: true,
            ..ModelConfig::for_generator(&generator, 16, 8)
        };
        let mut model = MemNet::new(config, 5);
        Trainer::new()
            .epochs(20)
            .momentum(0.5)
            .train(&mut model, &train_set);
        let server = mnn_net::NetServer::spawn(
            model,
            generator.vocab().clone(),
            SessionConfig {
                max_sentences: Some(8),
                ..SessionConfig::default()
            },
            mnn_net::ServerConfig::default(),
        )
        .unwrap();
        let addr = server.addr().to_string();

        let stdin = "mary went to the kitchen\n\
                     john moved to the garden\n\
                     where is mary?\n\
                     :stats\n\
                     :quit\n";
        let out = run_cli(&["connect", "--addr", &addr], stdin).unwrap();
        assert!(out.contains("as tenant 'default'"), "{out}");
        assert!(out.contains("noted (2 sentences)"), "{out}");
        assert!(out.contains("-> "), "{out}");
        // The network counters surface in the stats summary.
        assert!(out.contains("network: "), "{out}");
        assert!(out.contains("connections accepted"), "{out}");
        assert!(out.contains("occupancy: "), "{out}");
        assert!(out.contains("1 questions answered"), "{out}");

        assert!(
            run_cli(&["connect", "--addr", &addr, "--token", "wrong"], "").is_err(),
            "a bad token must be rejected"
        );
        server.shutdown();
    }

    #[test]
    fn export_train_eval_on_babi_files() {
        let dir = std::env::temp_dir().join("mnnfast-cli-data");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("train.txt");
        let data_str = data.to_str().unwrap();
        let model_path = dir.join("file-model.bin");
        let model_str = model_path.to_str().unwrap();

        let out = run_cli(
            &["export", "--out", data_str, "--stories", "40", "--ns", "8"],
            "",
        )
        .unwrap();
        assert!(out.contains("exported 40"), "{out}");

        let out = run_cli(
            &[
                "train", "--out", model_str, "--data", data_str, "--epochs", "20", "--ed", "24",
            ],
            "",
        )
        .unwrap();
        assert!(out.contains("saved to"), "{out}");
        assert!(std::path::Path::new(&format!("{model_str}.vocab")).exists());

        // Evaluate the trained model against the same file.
        let out = run_cli(&["eval", "--model", model_str, "--data", data_str], "").unwrap();
        assert!(out.contains("baseline accuracy"), "{out}");
        // Training-file eval should be well above chance.
        let acc: f32 = out
            .split("baseline accuracy ")
            .nth(1)
            .unwrap()
            .split('%')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(acc > 40.0, "file-trained accuracy {acc}");
    }

    #[test]
    fn trace_flag_prints_phase_breakdown() {
        let dir = std::env::temp_dir().join("mnnfast-cli-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("model.bin");
        let model_str = model_path.to_str().unwrap();
        run_cli(
            &[
                "train",
                "--out",
                model_str,
                "--stories",
                "5",
                "--epochs",
                "1",
                "--ns",
                "6",
            ],
            "",
        )
        .unwrap();

        let stdin = "mary went to the kitchen\nwhere is mary?\n:quit\n";
        let out = run_cli(
            &[
                "serve", "--model", model_str, "--engine", "column", "--trace",
            ],
            stdin,
        )
        .unwrap();
        for label in ["fused_chunk", "skip", "merge", "divide", "total"] {
            assert!(out.contains(label), "missing {label} in {out}");
        }

        // Without the switch no breakdown is printed.
        let out = run_cli(&["serve", "--model", model_str], stdin).unwrap();
        assert!(!out.contains("fused_chunk"), "{out}");

        let out = run_cli(
            &["eval", "--model", model_str, "--stories", "4", "--trace"],
            "",
        )
        .unwrap();
        assert!(out.contains("fused_chunk"), "{out}");

        // Bad engine names error instead of silently defaulting — the
        // removed staged walk's name included, no alias.
        for name in ["warp", "streaming"] {
            let err = run_cli(&["serve", "--model", model_str, "--engine", name], stdin);
            assert_eq!(
                err.unwrap_err(),
                format!("unknown engine '{name}' (expected auto|column|parallel)")
            );
        }
    }

    #[test]
    fn serve_segments_flag_prints_segment_summary() {
        let dir = std::env::temp_dir().join("mnnfast-cli-segments");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("model.bin");
        let model_str = model_path.to_str().unwrap();
        run_cli(
            &[
                "train",
                "--out",
                model_str,
                "--stories",
                "5",
                "--epochs",
                "1",
                "--ns",
                "6",
            ],
            "",
        )
        .unwrap();

        let stdin = "mary went to the kitchen\n\
                     john went to the garden\n\
                     where is mary?\n:quit\n";
        let out = run_cli(&["serve", "--model", model_str, "--segments", "4"], stdin).unwrap();
        assert!(out.contains("segments: 4 routed"), "{out}");
        assert!(out.contains("pruned"), "{out}");

        // Unsegmented sessions stay quiet about segments.
        let out = run_cli(&["serve", "--model", model_str], stdin).unwrap();
        assert!(!out.contains("segments:"), "{out}");

        // An absent flag takes its variable; a flag wins over it; blank
        // means the default; malformed is an error naming the variable.
        let serve = ["serve", "--model", model_str];
        let env = |v| [("MNNFAST_SEGMENTS", v)];
        let out = run_cli_env(&serve, &env("3"), stdin).unwrap();
        assert!(out.contains("segments: 3 routed"), "{out}");
        let flagged = [&serve[..], &["--segments", "4"]].concat();
        let out = run_cli_env(&flagged, &env("3"), stdin).unwrap();
        assert!(out.contains("segments: 4 routed"), "{out}");
        let out = run_cli_env(&serve, &env("  "), stdin).unwrap();
        assert!(!out.contains("segments:"), "{out}");
        let err = run_cli_env(&serve, &env("three"), stdin).unwrap_err();
        assert!(err.contains("MNNFAST_SEGMENTS"), "{err}");
        let zero = [&serve[..], &["--segments", "0"]].concat();
        let err = run_cli(&zero, stdin).unwrap_err();
        assert!(err.contains("segments must be at least 1"), "{err}");
    }

    #[test]
    fn serve_workers_flag_prints_distributed_summary() {
        let dir = std::env::temp_dir().join("mnnfast-cli-workers");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("model.bin");
        let model_str = model_path.to_str().unwrap();
        run_cli(
            &[
                "train",
                "--out",
                model_str,
                "--stories",
                "5",
                "--epochs",
                "1",
                "--ns",
                "6",
            ],
            "",
        )
        .unwrap();

        let stdin = "mary went to the kitchen\n\
                     john went to the garden\n\
                     where is mary?\n:quit\n";
        let out = run_cli(
            &[
                "serve",
                "--model",
                model_str,
                "--engine",
                "column",
                "--workers",
                "2",
                "--replicas",
                "2",
            ],
            stdin,
        )
        .unwrap();
        assert!(out.contains("distributed: 2 shards"), "{out}");
        assert!(out.contains("-> "), "{out}");

        // Local sessions stay quiet about the fleet; worker sharding
        // composes with segment routing (same answer line).
        let local = run_cli(&["serve", "--model", model_str], stdin).unwrap();
        assert!(!local.contains("distributed:"), "{local}");
        let composed = run_cli(
            &[
                "serve",
                "--model",
                model_str,
                "--engine",
                "column",
                "--workers",
                "2",
                "--segments",
                "4",
            ],
            stdin,
        )
        .unwrap();
        assert_eq!(answer_lines(&composed), answer_lines(&out), "{composed}");
    }

    #[test]
    fn serve_topk_flag_prints_sparse_summary() {
        let dir = std::env::temp_dir().join("mnnfast-cli-topk");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("model.bin");
        let model_str = model_path.to_str().unwrap();
        run_cli(
            &[
                "train",
                "--out",
                model_str,
                "--stories",
                "5",
                "--epochs",
                "1",
                "--ns",
                "6",
            ],
            "",
        )
        .unwrap();

        let stdin = "mary went to the kitchen\n\
                     john went to the garden\n\
                     sandra went to the office\n\
                     daniel went to the bathroom\n\
                     where is mary?\n:quit\n";
        let out = run_cli(
            &[
                "serve", "--model", model_str, "--topk", "2", "--nprobe", "1",
            ],
            stdin,
        )
        .unwrap();
        assert!(out.contains("sparse: top-2 (probe floor 1)"), "{out}");

        // Exact sessions stay quiet about the index; top-K composes with
        // segment routing (same answer line).
        let exact = run_cli(&["serve", "--model", model_str], stdin).unwrap();
        assert!(!exact.contains("sparse:"), "{exact}");
        let composed = run_cli(
            &[
                "serve",
                "--model",
                model_str,
                "--topk",
                "2",
                "--nprobe",
                "1",
                "--segments",
                "4",
            ],
            stdin,
        )
        .unwrap();
        assert_eq!(answer_lines(&composed), answer_lines(&out), "{composed}");
    }

    #[test]
    fn serve_precision_flag_serves_int8() {
        let dir = std::env::temp_dir().join("mnnfast-cli-precision");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("model.bin");
        let model_str = model_path.to_str().unwrap();
        run_cli(
            &[
                "train",
                "--out",
                model_str,
                "--stories",
                "5",
                "--epochs",
                "1",
                "--ns",
                "6",
            ],
            "",
        )
        .unwrap();

        let stdin = "mary went to the kitchen\n\
                     john went to the garden\n\
                     where is mary?\n:quit\n";
        let out = run_cli(
            &["serve", "--model", model_str, "--precision", "int8"],
            stdin,
        )
        .unwrap();
        assert!(out.contains("-> "), "{out}");
        assert!(out.contains("int8 mirror"), "{out}");

        // Default f32 sessions report only the f32 plane.
        let out = run_cli(&["serve", "--model", model_str], stdin).unwrap();
        assert!(out.contains("f32 plane"), "{out}");
        assert!(!out.contains("int8 mirror"), "{out}");

        // Bad precision names error instead of silently defaulting.
        let err = run_cli(
            &["serve", "--model", model_str, "--precision", "fp4"],
            stdin,
        );
        assert!(err.unwrap_err().contains("unknown precision"));
    }

    #[test]
    fn serve_accepts_deadline_flag() {
        let dir = std::env::temp_dir().join("mnnfast-cli-deadline");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("model.bin");
        let model_str = model_path.to_str().unwrap();
        run_cli(
            &[
                "train",
                "--out",
                model_str,
                "--stories",
                "5",
                "--epochs",
                "1",
                "--ns",
                "6",
            ],
            "",
        )
        .unwrap();

        // A generous deadline answers normally and prints no health line.
        let stdin = "mary went to the kitchen\nwhere is mary?\n:quit\n";
        let out = run_cli(
            &["serve", "--model", model_str, "--deadline-ms", "60000"],
            stdin,
        )
        .unwrap();
        assert!(out.contains("-> "), "{out}");
        assert!(!out.contains("health:"), "{out}");

        // Bad values error instead of silently disabling the deadline.
        let err = run_cli(
            &["serve", "--model", model_str, "--deadline-ms", "soon"],
            stdin,
        );
        assert!(err.unwrap_err().contains("deadline-ms"));
    }

    #[test]
    fn serve_accepts_embed_cache_flag() {
        let dir = std::env::temp_dir().join("mnnfast-cli-embed-cache");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("model.bin");
        let model_str = model_path.to_str().unwrap();
        run_cli(
            &[
                "train",
                "--out",
                model_str,
                "--stories",
                "5",
                "--epochs",
                "1",
                "--ns",
                "6",
            ],
            "",
        )
        .unwrap();

        // The repeated sentence hits the cache; the summary line says so.
        let stdin = "mary went to the kitchen\nmary went to the kitchen\nwhere is mary?\n:quit\n";
        let out = run_cli(
            &["serve", "--model", model_str, "--embed-cache", "64"],
            stdin,
        )
        .unwrap();
        assert!(out.contains("embed cache:"), "{out}");
        assert!(out.contains("1 hits"), "{out}");

        // Disabled (the default): no cache line.
        let out = run_cli(&["serve", "--model", model_str], stdin).unwrap();
        assert!(!out.contains("embed cache:"), "{out}");

        // Bad values error instead of silently disabling the cache.
        let err = run_cli(
            &["serve", "--model", model_str, "--embed-cache", "lots"],
            stdin,
        );
        assert!(err.unwrap_err().contains("embed-cache"));
    }

    #[test]
    fn serve_batch_mode_coalesces_questions() {
        let dir = std::env::temp_dir().join("mnnfast-cli-batch");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("model.bin");
        let model_str = model_path.to_str().unwrap();
        run_cli(
            &[
                "train",
                "--out",
                model_str,
                "--stories",
                "5",
                "--epochs",
                "1",
                "--ns",
                "6",
            ],
            "",
        )
        .unwrap();

        let stdin = "mary went to the kitchen\n\
                     john moved to the garden\n\
                     where is mary?\n\
                     where is john?\n\
                     where is mary?\n\
                     :quit\n";
        let out = run_cli(
            &["serve", "--model", model_str, "--batch", "2", "--trace"],
            stdin,
        )
        .unwrap();
        // The first question queues, the second fills and flushes the
        // batch, the third flushes alone at :quit.
        assert!(out.contains("queued (1/2)"), "{out}");
        assert_eq!(out.matches("batch: ").count(), 2, "{out}");
        assert!(out.contains("batch: 2 questions"), "{out}");
        assert!(out.contains("batch: 1 questions"), "{out}");
        assert!(out.contains("occupancy 2/2"), "{out}");
        assert_eq!(out.matches("-> ").count(), 3, "{out}");
        assert!(out.contains("3 questions answered"), "{out}");
        // Batched questions run the batch_gemm phase, visible in --trace.
        assert!(out.contains("batch_gemm"), "{out}");

        // Unknown words fail their own slot, not the whole batch.
        let stdin = "mary went to the kitchen\n\
                     where is xyzzy?\n\
                     where is mary?\n\
                     :quit\n";
        let out = run_cli(&["serve", "--model", model_str, "--batch", "2"], stdin).unwrap();
        assert!(out.contains("!! where is xyzzy?"), "{out}");
        assert_eq!(out.matches("-> ").count(), 1, "{out}");
    }

    #[test]
    fn serve_reports_unknown_words_gracefully() {
        let dir = std::env::temp_dir().join("mnnfast-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("model.bin");
        let model_str = model_path.to_str().unwrap();
        run_cli(
            &[
                "train",
                "--out",
                model_str,
                "--stories",
                "5",
                "--epochs",
                "1",
                "--ns",
                "6",
            ],
            "",
        )
        .unwrap();
        let out = run_cli(&["serve", "--model", model_str], "zorp blarg\n:quit\n").unwrap();
        assert!(out.contains("!!"), "{out}");
    }
}
