//! `mnn-serve` — the standalone network serving daemon.
//!
//! Loads a trained model (or trains a small synthetic one with
//! `--synthetic`), binds a listener, and serves the multi-tenant binary
//! protocol until a client sends a shutdown frame.
//!
//! ```text
//! mnn-serve --model model.bin --listen 127.0.0.1:7464 \
//!     --tenants alpha=alice,beta=bob --max-batch 16 --batch-wait-us 500
//! ```
//!
//! Flags (every one has a default; any other `--key` is an error).
//! `--listen`, `--net-threads`, and `--batch-wait-us` fall back to
//! `MNNFAST_LISTEN`, `MNNFAST_NET_THREADS`, and `MNNFAST_BATCH_WAIT_US`,
//! and the session knobs come from the six variables
//! [`SessionConfig::with_env`] reads. A blank variable means the default;
//! a malformed one stops the daemon. The resolved session configuration
//! is printed once on stderr.
//!
//! | flag | meaning | default |
//! |------|---------|---------|
//! | `--model PATH` | model file (vocab sidecar at `PATH.vocab`) | — |
//! | `--synthetic` | train a tiny deterministic bAbI model instead | off |
//! | `--listen ADDR` | bind address (`:0` picks a free port) | `127.0.0.1:7464` |
//! | `--net-threads N` | connection-handling threads | `2` |
//! | `--tenants T=N,...` | token=tenant pairs | `default=default` |
//! | `--max-batch N` | coalescing flush occupancy (0 = no coalescing) | `8` |
//! | `--batch-wait-us N` | longest a queued ask may sit behind other requests while the scheduler is busy (µs); an idle scheduler flushes at once whatever this says, `0` = never behind another request | `1000` |
//! | `--deadline-ms N` | per-question deadline (0 = none) | `0` |
//! | `--precision P` | `f32` or `int8` | `f32` |
//! | `--window N` | tenant memory window (0 = unbounded) | `0` |
//! | `--admission-capacity N` | token-bucket burst (0 = no admission) | `0` |
//! | `--admission-refill N` | token-bucket refill per second | `0` |
//! | `--max-inflight N` | per-connection in-flight cap | `64` |
//! | `--idle-timeout-ms N` | close quiet connections after | `60000` |

use mnn_dataset::babi::{BabiGenerator, TaskKind};
use mnn_dataset::Vocabulary;
use mnn_memnn::train::Trainer;
use mnn_memnn::{MemNet, ModelConfig};
use mnn_net::{NetServer, ServerConfig, TenantAuth};
use mnn_serve::{AdmissionConfig, BatchConfig, SessionConfig};
use mnn_tensor::read_var;
use mnnfast::Precision;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args, &|name| std::env::var(name).ok()) {
        eprintln!("mnn-serve: {e}");
        std::process::exit(1);
    }
}

/// `--key value` pairs plus switches, in the CLI crate's hand-rolled
/// idiom.
struct Options {
    flags: BTreeMap<String, String>,
}

impl Options {
    const SWITCHES: &'static [&'static str] = &["synthetic"];
    /// Every flag the daemon knows.
    const KEYS: &'static [&'static str] = &[
        "model",
        "synthetic",
        "listen",
        "net-threads",
        "tenants",
        "max-batch",
        "batch-wait-us",
        "deadline-ms",
        "precision",
        "window",
        "admission-capacity",
        "admission-refill",
        "max-inflight",
        "idle-timeout-ms",
    ];

    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected positional argument '{a}'"));
            };
            if !Self::KEYS.contains(&key) {
                return Err(format!("unknown option --{key}"));
            }
            if Self::SWITCHES.contains(&key) {
                flags.insert(key.to_owned(), "true".to_owned());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for --{key}"))?;
            flags.insert(key.to_owned(), value.clone());
        }
        Ok(Options { flags })
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
}

fn read_vocab(path: &str) -> Result<Vocabulary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Ok(text.lines().map(str::to_owned).collect())
}

/// Loads `--model` (with its `.vocab` sidecar) or trains the small
/// deterministic synthetic model `--synthetic` asks for.
fn load_or_train(options: &Options) -> Result<(MemNet, Vocabulary), String> {
    if let Some(path) = options.get_str("model") {
        let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
        let model = MemNet::from_bytes(&bytes).map_err(|e| format!("loading {path}: {e}"))?;
        let vocab = read_vocab(&format!("{path}.vocab"))?;
        return Ok((model, vocab));
    }
    if !options.switch("synthetic") {
        return Err("pass --model PATH or --synthetic".to_owned());
    }
    let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 2019);
    let ns = 8;
    let train_set = generator.dataset(60, ns, 3);
    // The serving-compatible shape: position encoding instead of temporal
    // rows, so tenant memories can grow past the training window (pair
    // with `--window` to bound the working set).
    let config = ModelConfig {
        temporal: false,
        position_encoding: true,
        ..ModelConfig::for_generator(&generator, 16, ns)
    };
    let mut model = MemNet::new(config, 61);
    Trainer::new()
        .epochs(25)
        .momentum(0.5)
        .train(&mut model, &train_set);
    Ok((model, generator.vocab().clone()))
}

fn parse_tenants(raw: &str) -> Result<Vec<TenantAuth>, String> {
    let mut tenants = Vec::new();
    for pair in raw.split(',') {
        let (token, tenant) = pair
            .split_once('=')
            .ok_or_else(|| format!("tenant '{pair}' is not token=name"))?;
        if token.is_empty() || tenant.is_empty() {
            return Err(format!("tenant '{pair}' has an empty side"));
        }
        tenants.push(TenantAuth {
            token: token.to_owned(),
            tenant: tenant.to_owned(),
        });
    }
    Ok(tenants)
}

/// Resolves the daemon's two configurations: a flag wins, the
/// environment (`env`) fills, then the default.
fn resolve(
    options: &Options,
    env: &dyn Fn(&str) -> Option<String>,
) -> Result<(SessionConfig, ServerConfig), String> {
    let listen = read_var(
        env,
        "MNNFAST_LISTEN",
        "a socket address such as 127.0.0.1:7464",
        |_: &SocketAddr| true,
    )
    .map_err(|e| e.to_string())?
    .unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 7464)));
    let net_threads = read_var(
        env,
        "MNNFAST_NET_THREADS",
        "a positive integer",
        |&n: &usize| n > 0,
    )
    .map_err(|e| e.to_string())?
    .unwrap_or(2);
    // One source for both batching defaults: the library's.
    let batch_default = BatchConfig::default();
    let wait_us = read_var(
        env,
        "MNNFAST_BATCH_WAIT_US",
        "a non-negative integer of microseconds",
        |_: &u64| true,
    )
    .map_err(|e| e.to_string())?
    .unwrap_or(batch_default.max_wait.as_micros() as u64);
    let max_wait = Duration::from_micros(options.get("batch-wait-us", wait_us)?);
    let tenants = parse_tenants(options.get_str("tenants").unwrap_or("default=default"))?;
    let max_batch = options.get("max-batch", batch_default.max_batch)?;
    let deadline_ms = options.get("deadline-ms", 0u64)?;
    let window = options.get("window", 0usize)?;
    let precision = match options.get_str("precision").unwrap_or("f32") {
        "f32" => Precision::F32,
        "int8" => Precision::Int8,
        other => return Err(format!("unknown precision '{other}' (expected f32|int8)")),
    };
    let capacity = options.get("admission-capacity", 0u64)?;
    let refill = options.get("admission-refill", 0u64)?;

    let session = SessionConfig {
        max_sentences: (window > 0).then_some(window),
        deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
        precision,
        ..SessionConfig::default()
    }
    .with_env(env)
    .map_err(|e| e.to_string())?;
    let server = ServerConfig {
        listen: options.get("listen", listen)?,
        net_threads: options.get("net-threads", net_threads)?,
        tenants,
        max_inflight: options.get("max-inflight", 64u32)?,
        idle_timeout: Duration::from_millis(options.get("idle-timeout-ms", 60_000u64)?),
        admission: (capacity > 0).then_some(AdmissionConfig {
            capacity,
            refill_per_sec: refill,
        }),
        batching: (max_batch > 0).then_some(BatchConfig {
            max_batch,
            max_wait,
        }),
    };
    Ok((session, server))
}

/// The one startup line that says what every tenant session runs with.
fn describe(s: &SessionConfig) -> String {
    let millis =
        |d: Option<Duration>| d.map_or("off".to_owned(), |d| format!("{}ms", d.as_millis()));
    format!(
        "session: segments {}, workers {}, replicas {}, hedge {}, topk {}, nprobe {}, \
         precision {:?}, window {}, deadline {}",
        s.segments,
        s.workers,
        s.replicas,
        millis(s.hedge),
        s.topk,
        s.nprobe,
        s.precision,
        s.max_sentences
            .map_or("unbounded".to_owned(), |n| n.to_string()),
        millis(s.deadline),
    )
}

fn run(args: &[String], env: &dyn Fn(&str) -> Option<String>) -> Result<(), String> {
    mnn_tensor::validate_env().map_err(|e| e.to_string())?;
    let options = Options::parse(args)?;
    let (session, config) = resolve(&options, env)?;
    eprintln!("{}", describe(&session));
    let (model, vocab) = load_or_train(&options)?;

    let server = NetServer::spawn(model, vocab, session, config).map_err(|e| e.to_string())?;
    // The test harness and quickstart scrape this exact line for the
    // resolved port, so keep its shape stable.
    println!("listening on {}", server.addr());
    server.wait();
    println!("drained and stopped");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        for typo in ["--listn", "--segments", "--max-batches"] {
            let err = Options::parse(&args(&[typo, "1"])).err().expect(typo);
            assert!(err.contains(typo), "{err}");
        }
        assert!(Options::parse(&args(&["--synthetic", "--listen", "127.0.0.1:0"])).is_ok());
    }

    /// Flag over environment over default, for every knob the daemon
    /// reads, with the environment as a table.
    #[test]
    fn resolve_table() {
        let resolve_with = |flags: &[&str], vars: &[(&str, &str)]| {
            let vars: Vec<(String, String)> = vars
                .iter()
                .map(|&(k, v)| (k.to_owned(), v.to_owned()))
                .collect();
            let env =
                move |name: &str| vars.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone());
            resolve(&Options::parse(&args(flags)).unwrap(), &env)
        };
        let (session, server) = resolve_with(&[], &[]).unwrap();
        assert_eq!(session, SessionConfig::default());
        assert_eq!(server.listen, "127.0.0.1:7464".parse().unwrap());
        assert_eq!(server.net_threads, 2);
        assert_eq!(server.batching, Some(BatchConfig::default()));

        let env = [
            ("MNNFAST_LISTEN", "127.0.0.1:9000"),
            ("MNNFAST_NET_THREADS", "4"),
            ("MNNFAST_BATCH_WAIT_US", "0"),
            ("MNNFAST_SEGMENTS", "3"),
        ];
        let (session, server) = resolve_with(&[], &env).unwrap();
        assert_eq!(server.listen, "127.0.0.1:9000".parse().unwrap());
        assert_eq!(server.net_threads, 4);
        assert_eq!(server.batching.unwrap().max_wait, Duration::ZERO);
        assert_eq!(session.segments, 3);
        assert!(describe(&session).starts_with("session: segments 3, workers 1,"));

        let flags = [
            "--listen",
            "127.0.0.1:0",
            "--net-threads",
            "1",
            "--batch-wait-us",
            "250",
        ];
        let (_, server) = resolve_with(&flags, &env).unwrap();
        assert_eq!(server.listen, "127.0.0.1:0".parse().unwrap());
        assert_eq!(server.net_threads, 1);
        assert_eq!(
            server.batching.unwrap().max_wait,
            Duration::from_micros(250)
        );

        let blank: Vec<(&str, &str)> = env.iter().map(|&(k, _)| (k, " ")).collect();
        assert_eq!(resolve_with(&[], &blank).unwrap().1.net_threads, 2);

        for (var, bad) in [
            ("MNNFAST_LISTEN", "localhost"),
            ("MNNFAST_NET_THREADS", "0"),
            ("MNNFAST_NET_THREADS", "many"),
            ("MNNFAST_BATCH_WAIT_US", "-5"),
            ("MNNFAST_WORKERS", "two"),
        ] {
            let err = resolve_with(&[], &[(var, bad)]).expect_err(var);
            assert!(err.contains(var), "{err}");
        }
    }
}
