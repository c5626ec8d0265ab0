//! The MnnFast serving stack's single benchmark: four workloads, nine
//! end-to-end metrics each, and a traced pass that splits the time by
//! layer. See README.md in this directory for the glossary and
//! BENCHMARK.json at the repository root for the contract.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload (the driver's form)
//! perfbench --seed <n> [--trace] [--smoke]                             every workload, one child each
//! perfbench --aa <N> [--seed <n>]                                      N suites, spread per metric
//! perfbench --emit-benchmark-json                                      prints BENCHMARK.json
//! ```

mod inputs;
mod layers;
mod metrics;
mod net;
mod procstat;
mod spans;
mod stats;
mod workloads;

use inputs::Inputs;
use metrics::{Outcome, END_TO_END};
use workloads::{Burst, Kind, Spec, Tally, Verdict, Window, SPECS, WARMUP_S};

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Seconds one run measures when `--seconds` is absent (BENCHMARK.json's
/// `run_seconds`).
pub const RUN_SECONDS: u32 = 25;
/// `--smoke` measures this long per workload.
const SMOKE_SECONDS: f64 = 1.5;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    aa: Option<usize>,
    emit: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
        aa: None,
        emit: false,
    };
    let mut seconds_given = false;
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v.parse().map_err(|_| format!("bad --seconds '{v}'"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(format!("--seconds {v} outside (0, 60]"));
                }
                seconds_given = true;
            }
            "--aa" => {
                let v = value("--aa")?;
                let n: usize = v.parse().map_err(|_| format!("bad --aa '{v}'"))?;
                if n < 2 {
                    return Err("--aa needs at least 2 suites".into());
                }
                args.aa = Some(n);
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--emit-benchmark-json" => args.emit = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.smoke && !seconds_given {
        args.seconds = SMOKE_SECONDS;
    }
    if let Some(name) = &args.workload {
        if Spec::by_name(name).is_none() {
            let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
            return Err(format!("unknown workload '{name}' (one of {names:?})"));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if args.emit {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let ok = match (&args.workload, args.aa) {
        (Some(name), _) => {
            let spec = Spec::by_name(name).expect("validated");
            let outcome = run_workload(&spec, &args);
            println!("{}", outcome.to_json());
            outcome.correct
        }
        (None, Some(n)) => run_aa(&args, n),
        (None, None) => run_suite(&args).is_some(),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// One workload, in this process.
// ---------------------------------------------------------------------

fn read_trimmed(path: &str) -> Option<String> {
    Some(std::fs::read_to_string(path).ok()?.trim().to_owned())
}

/// The checked-out commit, when the working directory is a git checkout.
fn commit() -> String {
    let head = read_trimmed(".git/HEAD");
    let sha = match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(reference) => read_trimmed(&format!(".git/{reference}")),
        None => head,
    };
    sha.map_or("unknown".into(), |s| s.chars().take(12).collect())
}

fn print_header(spec: &Spec, args: &Args, inputs: &Inputs) {
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} smoke={} comparable={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        u8::from(args.smoke),
        u8::from(!args.smoke),
    );
    println!(
        "# host={} nproc={} simd={} commit={} input_hash={:016x}",
        read_trimmed("/proc/sys/kernel/hostname").unwrap_or_else(|| "unknown".into()),
        workloads::nproc(),
        mnn_tensor::simd::backend().label(),
        commit(),
        inputs.hash,
    );
    println!(
        "# sizes rows={} precision={:?} ed={} hops={} vocab={} questions={} sentences={} tail=p{} oracle_sample={}",
        spec.rows,
        spec.precision,
        inputs::ED,
        inputs::HOPS,
        inputs::VOCAB,
        inputs::QUESTIONS,
        spec.sentences(),
        spec.tail_pct,
        spec.oracle_sample,
    );
    println!("# why: {}", spec.why);
}

fn print_tally(t: &Tally) {
    println!(
        "phase {} sent={} succeeded={} failed={}",
        t.phase, t.sent, t.succeeded, t.failed
    );
}

/// Builds (and drops) the system `reps - 1` more times after the measured
/// one and returns the median build time. The repeats come last, after the
/// peak resident set has been read, so that reading is of one system.
fn median_setup<T>(first_s: f64, reps: usize, mut build: impl FnMut() -> T) -> f64 {
    let mut times = vec![first_s];
    for _ in 1..reps {
        let t = Instant::now();
        drop(build());
        times.push(t.elapsed().as_secs_f64());
    }
    stats::median(&times)
}

/// Everything the end-to-end metrics are computed from.
struct Measured {
    setup_s: f64,
    /// Windows of the closed-loop phase: throughput, CPU cost, observes.
    load: Vec<Window>,
    /// Windows of the phase latency is reported from (`serve_net`: the
    /// paced phase; elsewhere the closed loop again).
    latency: Vec<Window>,
    peak_rss_mib: f64,
    tallies: Vec<Tally>,
    inconsistent: u64,
    verdict: Verdict,
}

fn run_workload(spec: &Spec, args: &Args) -> Outcome {
    let spec = if args.smoke { spec.smoke() } else { *spec };
    let inputs = inputs::build(args.seed, spec.sentences());
    print_header(&spec, args, &inputs);
    if args.trace {
        return layers::traced(&spec, &inputs, args.seconds, args.seed);
    }
    let m = if spec.kind == Kind::Net {
        measure_net(&spec, &inputs, args)
    } else {
        measure_in_process(&spec, &inputs, args)
    };
    finish(&spec, args, m)
}

/// Warm-up seconds before a timed phase of `seconds`.
fn warmup(seconds: f64) -> f64 {
    WARMUP_S.min(seconds / 4.0)
}

fn measure_in_process(spec: &Spec, inputs: &Inputs, args: &Args) -> Measured {
    let t = Instant::now();
    let mut target = workloads::build_target(spec, inputs, false);
    let first_setup_s = t.elapsed().as_secs_f64();
    // `churn_window` writes in its timed mix; a static workload's writes go
    // to a second, unasked session between the windows.
    let mut burst = Burst::new(spec, inputs);
    let mut side = (spec.kind != Kind::Churn).then(|| workloads::new_target(spec, inputs, false));
    let timed = workloads::closed_loop(
        spec,
        &mut target,
        inputs,
        warmup(args.seconds),
        args.seconds,
        &mut || match &mut side {
            Some(side) => burst.share(workloads::BURST_GROUP, |group| {
                group.iter().filter(|s| side.observe(s)).count()
            }),
            None => Vec::new(),
        },
    );
    let mut tallies = vec![timed.tally.clone()];
    if side.is_some() {
        tallies.push(burst.tally.clone());
    }
    // Read before the oracle allocates its own copy of the memory.
    let peak_rss_mib = procstat::peak_rss_mib();
    let verdict = if spec.kind == Kind::Churn {
        workloads::check_churn(spec, inputs, &mut target, &timed)
    } else {
        workloads::check_static(spec, inputs, 0, &timed.first)
    };
    drop((target, side));
    let setup_s = median_setup(first_setup_s, workloads::SETUP_REPS, || {
        workloads::build_target(spec, inputs, false)
    });
    Measured {
        setup_s,
        latency: timed.windows.clone(),
        load: timed.windows,
        peak_rss_mib,
        tallies,
        inconsistent: timed.inconsistent,
        verdict,
    }
}

fn measure_net(spec: &Spec, inputs: &Inputs, args: &Args) -> Measured {
    let t = Instant::now();
    let rig = net::spawn(spec, inputs, false, true);
    let first_setup_s = t.elapsed().as_secs_f64();
    let paced_s = args.seconds / 2.0;
    let mut firsts = net::firsts();
    net::saturate(
        rig.addr,
        inputs,
        warmup(args.seconds),
        &mut firsts,
        &mut Vec::new,
    ); // warm-up
    let schedule = inputs::poisson_schedule(workloads::NET_PACED_QPS, paced_s, args.seed);
    let paced = net::paced(rig.addr, inputs, &schedule, &mut firsts);
    let lag_p99 = stats::percentile_of(&paced.lag_us, 99.0);
    println!(
        "paced rate={} q/s limit={} ms late={} shed={} errors={} lost={} generator_lag_p99={:.1} us valid={}",
        workloads::NET_PACED_QPS,
        workloads::NET_LATENCY_LIMIT.as_millis(),
        paced.late,
        paced.shed,
        paced.errors,
        paced.lost,
        lag_p99,
        u8::from(lag_p99 <= 1000.0),
    );
    // The observe burst is bulk-loaded over the wire into the side tenant,
    // a share after each saturation window, when no ask is in flight.
    let (mut client, _) =
        mnn_net::NetClient::connect(rig.addr, &net::token(net::SIDE_TENANT)).expect("connect");
    let mut burst = Burst::new(spec, inputs);
    let sat = net::saturate(
        rig.addr,
        inputs,
        args.seconds - paced_s,
        &mut firsts,
        &mut || burst.share(workloads::SHARE, |all| net::ingest(&mut client, all)),
    );
    drop(client);
    println!(
        "saturation inflight={}x{} shed={} errors={} lost={} p50={:.3} ms",
        workloads::NET_TENANTS,
        workloads::NET_INFLIGHT,
        sat.shed,
        sat.errors,
        sat.lost,
        quiet(&sat.windows, true, |w| stats::percentile_of(
            &w.call_ms, 50.0
        )),
    );
    let peak_rss_mib = procstat::peak_rss_mib();

    let mut verdict = Verdict::default();
    for (tenant, first) in firsts.iter().enumerate() {
        let v = workloads::check_static(spec, inputs, tenant * spec.rows, first);
        verdict.checked += v.checked;
        verdict.matched += v.matched;
    }
    drop(rig);
    let setup_s = median_setup(first_setup_s, workloads::SETUP_REPS, || {
        net::spawn(spec, inputs, false, true)
    });
    Measured {
        setup_s,
        load: sat.windows,
        latency: paced.windows,
        peak_rss_mib,
        tallies: vec![paced.tally, sat.tally, burst.tally],
        inconsistent: paced.inconsistent + sat.inconsistent,
        verdict,
    }
}

/// A per-window metric at the quartile of the windows on its good side
/// (see [`workloads::WINDOWS`]).
fn quiet(windows: &[Window], lower_is_better: bool, metric: impl Fn(&Window) -> f64) -> f64 {
    let values: Vec<f64> = windows.iter().map(metric).collect();
    stats::quiet_quartile(&values, lower_is_better)
}

fn finish(spec: &Spec, args: &Args, m: Measured) -> Outcome {
    m.tallies.iter().for_each(print_tally);
    let attempted: u64 = m.tallies.iter().map(|t| t.sent).sum();
    let mut failed: u64 = m.tallies.iter().map(|t| t.failed).sum();
    let samples: usize = m.latency.iter().map(|w| w.call_ms.len()).sum();
    // The frozen percentile keeps runs comparable; a smoke run is too
    // short for it and takes whatever its sample count supports.
    let tail_pct = if args.smoke {
        stats::pick_tail(samples).unwrap_or(50.0)
    } else {
        spec.tail_pct
    };
    let beyond = if samples > 0 {
        stats::samples_beyond(samples, tail_pct)
    } else {
        0
    };
    let enough = beyond >= 10;
    let mismatched = m.verdict.checked - m.verdict.matched;
    if spec.exact {
        failed += mismatched;
    }
    failed += m.inconsistent;
    println!(
        "oracle checked={} matched={} repeat_inconsistent={} exact_required={}",
        m.verdict.checked, m.verdict.matched, m.inconsistent, spec.exact
    );
    println!(
        "samples latency={samples} tail=p{tail_pct} beyond={beyond} windows={}",
        m.latency.len()
    );
    // The same metrics over the whole phase, disturbed windows included:
    // what the quiet quartile is to be read against, never a result.
    let all_ms: Vec<f64> = m.latency.iter().flat_map(|w| w.call_ms.clone()).collect();
    let all_us: Vec<f64> = m.load.iter().flat_map(|w| w.observe_us.clone()).collect();
    let (secs, cpu, questions) = m.load.iter().fold((0.0, 0.0, 0.0), |(s, c, q), w| {
        (s + w.seconds, c + w.cpu_s, q + w.questions as f64)
    });
    println!(
        "whole-phase throughput_qps={:.3} latency_p50_ms={:.4} latency_tail_ms={:.4} observe_p50_us={:.4} cpu_s_per_kq={:.4}",
        questions / secs,
        stats::percentile_of(&all_ms, 50.0),
        stats::percentile_of(&all_ms, tail_pct),
        stats::percentile_of(&all_us, 50.0),
        cpu / (questions / 1000.0),
    );
    let p50_ms = |w: &Window| stats::percentile_of(&w.call_ms, 50.0);
    let tail_ms = |w: &Window| stats::percentile_of(&w.call_ms, tail_pct);
    let p50_us = |w: &Window| stats::percentile_of(&w.observe_us, 50.0);
    for (i, (load, latency)) in m.load.iter().zip(&m.latency).enumerate() {
        println!(
            "window {i:2} throughput_qps={:.3} latency_p50_ms={:.4} latency_tail_ms={:.4} observe_p50_us={:.4} cpu_s_per_kq={:.4}",
            load.qps(),
            p50_ms(latency),
            tail_ms(latency),
            p50_us(load),
            load.cpu_s_per_kq(),
        );
    }
    let values = [
        m.setup_s,
        quiet(&m.load, false, Window::qps),
        quiet(&m.latency, true, p50_ms),
        quiet(&m.latency, true, tail_ms),
        quiet(&m.load, true, p50_us),
        quiet(&m.load, true, Window::cpu_s_per_kq),
        m.peak_rss_mib,
        1.0 - failed as f64 / attempted.max(1) as f64,
        m.verdict.share(),
    ];
    let metrics: Vec<(String, f64, &'static str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(def, v)| (def.name.to_owned(), v, def.unit))
        .collect();
    for (name, value, unit) in &metrics {
        println!("e2e {} {} = {} {}", spec.name, name, value, unit);
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite() && *v > 0.0);
    let correct = finite
        && (args.smoke || enough)
        && m.inconsistent == 0
        && m.verdict.checked > 0
        && (!spec.exact || mismatched == 0);
    if !correct {
        println!(
            "INCORRECT finite={finite} enough_samples={enough} inconsistent={} mismatched={mismatched}",
            m.inconsistent
        );
    }
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}

// ---------------------------------------------------------------------
// The whole suite: one child process per workload, so allocator state and
// peak memory are per workload.
// ---------------------------------------------------------------------

/// `(workload, metric) -> value` as printed by one suite.
type SuiteValues = Vec<(String, String, f64)>;

fn run_child(spec: &Spec, args: &Args, seed: u64) -> Option<SuiteValues> {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.spawn().ok()?.wait_with_output().ok()?; // waits for the child
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    let prefix = if args.trace { "layer" } else { "e2e" };
    let values = text
        .lines()
        .filter_map(|line| {
            let mut w = line.split_whitespace();
            (w.next()? == prefix).then_some(())?;
            let (workload, metric) = (w.next()?, w.next()?);
            (w.next()? == "=").then_some(())?;
            Some((
                workload.to_owned(),
                metric.to_owned(),
                w.next()?.parse().ok()?,
            ))
        })
        .collect();
    output.status.success().then_some(values)
}

fn run_suite(args: &Args) -> Option<SuiteValues> {
    let started = Instant::now();
    let mut all = Vec::new();
    let mut ok = true;
    for spec in &SPECS {
        match run_child(spec, args, args.seed) {
            Some(values) => all.extend(values),
            None => {
                println!("FAILED workload {}", spec.name);
                ok = false;
            }
        }
    }
    println!(
        "# suite seed={} trace={} wall={:.1} s {}",
        args.seed,
        u8::from(args.trace),
        started.elapsed().as_secs_f64(),
        if ok { "ok" } else { "FAILED" }
    );
    ok.then_some(all)
}

/// A/A: the same build, `n` suites on consecutive seeds; prints the
/// spread of every end-to-end metric against its bound and fails if one
/// exceeds it.
fn run_aa(args: &Args, n: usize) -> bool {
    let mut runs: Vec<SuiteValues> = Vec::new();
    for i in 0..n {
        let seeded = Args {
            seed: args.seed + i as u64,
            trace: false,
            ..args.clone()
        };
        match run_suite(&seeded) {
            Some(values) => runs.push(values),
            None => return false,
        }
    }
    println!(
        "# A/A over {n} suites, seeds {}..{}",
        args.seed,
        args.seed + n as u64 - 1
    );
    println!("| workload | metric | median | q1 | q3 | spread | max ratio | bound | ok |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut all_ok = true;
    for spec in &SPECS {
        for def in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .flatten()
                .filter(|(w, m, _)| w == spec.name && m == def.name)
                .map(|(_, _, v)| *v)
                .collect();
            if values.len() < 2 {
                all_ok = false;
                continue;
            }
            let (q1, q2, q3) = stats::quartiles(&values);
            let spread = stats::spread(&values);
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            // Set-up time only has to hold between medians, not run to run.
            let ok = spread <= def.bound || def.name == "setup_s";
            all_ok &= ok;
            println!(
                "| {} | {} | {:.5} | {:.5} | {:.5} | {:.4} | {:.4} | {} | {} |",
                spec.name,
                def.name,
                q2,
                q1,
                q3,
                spread,
                hi / lo,
                def.bound,
                if ok { "ok" } else { "EXCEEDS" }
            );
        }
    }
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse_args(&argv("--workload scan_f32 --seed 9 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("scan_f32"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 10.0, true));
        let a = parse_args(&argv("--workload scan_f32 --trace 0 --seed 3")).unwrap();
        assert_eq!((a.trace, a.seed), (false, 3));
        assert!(parse_args(&argv("--trace --smoke")).unwrap().trace);
        assert_eq!(parse_args(&argv("--smoke")).unwrap().seconds, SMOKE_SECONDS);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed x")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seconds 600")).is_err());
        assert!(parse_args(&argv("--aa 1")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
    }
}
