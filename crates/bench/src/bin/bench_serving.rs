//! Network-serving bench: open-loop Poisson load from eight tenants in
//! two rate profiles against a loopback `mnn-net` server, swept upward
//! until the server stops sustaining, once with cross-tenant batch
//! coalescing and once at batch size 1. Emits the machine-readable
//! `BENCH_serving.json`; with `--check` the process exits nonzero when
//! the coalesced flavor fails to sustain the required speedup with p99
//! under the SLO and shed under the bound, or its lowest-load p50 is more
//! than the bound above batch size 1's.
use mnn_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    let report = mnn_bench::serving_report::run(scale);
    print!("{}", report.table());
    match report.write_json("BENCH_serving.json") {
        Ok(()) => println!("wrote BENCH_serving.json"),
        Err(e) => eprintln!("{e}"),
    }
    if std::env::args().any(|a| a == "--check") && !report.within_bounds() {
        eprintln!(
            "serving bounds violated (speedup >= {}, shed < {}, p99 <= SLO, \
             lowest-load p50 <= {}x batch-1)",
            mnn_bench::serving_report::SPEEDUP_BOUND,
            mnn_bench::serving_report::SHED_BOUND,
            mnn_bench::serving_report::LOW_LOAD_P50_BOUND
        );
        std::process::exit(1);
    }
}
