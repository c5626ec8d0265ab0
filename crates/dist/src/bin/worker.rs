//! Standalone MnnFast segment worker.
//!
//! ```text
//! mnn-dist-worker --ed 24 [--port 9400] [--chunk 32] [--quant]
//! ```
//!
//! Binds `127.0.0.1:<port>` (an ephemeral port when omitted), prints the
//! bound address on stdout, and serves until killed. `MNNFAST_FAULT` with
//! an RPC kind (`drop`, `delay:<ms>`, `corrupt`, `disconnect`) arms the
//! worker's response-fault injector; it is the only variable the worker
//! reads, and a malformed spec stops it.

use mnn_dist::{RpcFaultPlan, WorkerConfig, WorkerServer};
use mnn_tensor::EnvVarError;

fn usage() -> ! {
    eprintln!("usage: mnn-dist-worker --ed <dim> [--port <port>] [--chunk <rows>] [--quant]");
    std::process::exit(2);
}

/// The worker's whole environment: `MNNFAST_FAULT` from `env`, parsed
/// strictly (unset or blank = no fault). No other variable is looked up.
fn fault_plan(env: &dyn Fn(&str) -> Option<String>) -> Result<Option<RpcFaultPlan>, EnvVarError> {
    RpcFaultPlan::parse(&env("MNNFAST_FAULT").unwrap_or_default())
}

fn main() {
    let mut ed: Option<usize> = None;
    let mut port: u16 = 0;
    let mut chunk: usize = 32;
    let mut quant = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ed" => ed = args.next().and_then(|v| v.parse().ok()),
            "--port" => match args.next().and_then(|v| v.parse().ok()) {
                Some(p) => port = p,
                None => usage(),
            },
            "--chunk" => match args.next().and_then(|v| v.parse().ok()) {
                Some(c) if c > 0 => chunk = c,
                _ => usage(),
            },
            "--quant" => quant = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let Some(ed) = ed.filter(|&e| e > 0) else {
        usage();
    };
    let fault = match fault_plan(&|var| std::env::var(var).ok()) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("mnn-dist-worker: {e}");
            std::process::exit(2);
        }
    };
    let config = WorkerConfig {
        ed,
        chunk_size: chunk,
        quant,
        fault,
    };
    let worker = match WorkerServer::spawn_on(&format!("127.0.0.1:{port}"), config) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("mnn-dist-worker: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", worker.addr());
    // Serve until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnn_dist::RpcFaultKind;
    use std::collections::HashMap;

    #[test]
    fn fault_plan_reads_only_a_strict_fault_spec() {
        // Every serving knob malformed: the worker must not notice them.
        let noise = [
            ("MNNFAST_SEGMENTS", "three"),
            ("MNNFAST_WORKERS", "two"),
            ("MNNFAST_REPLICAS", "-1"),
            ("MNNFAST_HEDGE_MS", "bogus"),
            ("MNNFAST_TOPK", "many"),
            ("MNNFAST_NPROBE", "0"),
            ("MNNFAST_LISTEN", "nowhere"),
            ("MNNFAST_NET_THREADS", "x"),
            ("MNNFAST_BATCH_WAIT_US", "soon"),
        ];
        let drop = RpcFaultPlan {
            kind: RpcFaultKind::Drop,
            after: 0,
            fires: 1,
        };
        for (fault, want) in [
            (None, Ok(None)),
            (Some(""), Ok(None)),
            (Some("   "), Ok(None)),
            (Some("drop"), Ok(Some(drop))),
            (Some("nan"), Ok(None)),
            (Some("drpo"), Err(())),
            (Some("delay:soon"), Err(())),
        ] {
            let mut vars: HashMap<&str, &str> = noise.into_iter().collect();
            if let Some(spec) = fault {
                vars.insert("MNNFAST_FAULT", spec);
            }
            let got = fault_plan(&|var| vars.get(var).map(|v| v.to_string()));
            assert_eq!(got.map_err(|_| ()), want, "MNNFAST_FAULT={fault:?}");
        }
    }
}
