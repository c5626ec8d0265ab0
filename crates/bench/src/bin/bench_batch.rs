//! Cross-request batched throughput on the tile kernels. Emits the
//! machine-readable `BENCH_batch.json`; with `--check` the process exits
//! nonzero when the run fails its gate. At smoke scale that is the
//! conservative sanity gate (finite measurements, batched not slower than
//! sequential at the largest batch — smoke shapes cannot amortize per-pass
//! overheads); at full scale it is the recorded bounds: at least 2x from
//! `nq = 8` up, at least 4x at `nq = 32`, and non-decreasing in `nq`
//! within the run's own noise.
use mnn_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    let report = mnn_bench::batch_report::run(scale);
    print!("{}", report.table());
    match report.write_json("BENCH_batch.json") {
        Ok(()) => println!("wrote BENCH_batch.json"),
        Err(e) => eprintln!("{e}"),
    }
    if std::env::args().any(|a| a == "--check") {
        let passed = match scale {
            Scale::Smoke => report.sane(),
            Scale::Full => report.sane() && report.meets_target() && report.scales(),
        };
        if !passed {
            eprintln!("batched throughput run failed its gate");
            std::process::exit(1);
        }
    }
}
