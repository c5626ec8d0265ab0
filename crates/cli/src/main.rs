//! `mnnfast` — train, evaluate, and serve memory-network QA models.

use std::io::{self, BufRead, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stdin = io::stdin();
    let mut input: Box<dyn BufRead> = Box::new(stdin.lock());
    let stdout = io::stdout();
    let mut out = stdout.lock();
    let env = |name: &str| std::env::var(name).ok();
    match mnnfast_cli::run(&args, &env, &mut input, &mut out) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            let _ = writeln!(io::stderr(), "error: {message}");
            ExitCode::FAILURE
        }
    }
}
