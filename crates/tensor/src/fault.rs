//! Test-only fault injection for the fused softmax kernels.
//!
//! Compiled only under the `fault-inject` cargo feature; release serving
//! builds contain none of this code. The hook sits inside
//! [`crate::softmax::LazyAccumulator::accumulate_chunk`] and
//! [`crate::softmax::OnlineSoftmax::accumulate_chunk`] (and their batched
//! and int8 forms) — the fused chunk kernels every pass runs, the serving
//! layer's online-softmax safe retry included. The firing schedule decides
//! what a test exercises: a fault that fires once is transient (the retry
//! runs clean), one that keeps firing reaches the retry too.
//!
//! Faults are armed process-globally, either programmatically
//! ([`arm`] / [`disarm`]) or from the `MNNFAST_FAULT` environment variable
//! ([`arm_from_env`], also consulted once on first kernel use):
//!
//! ```text
//! MNNFAST_FAULT=nan            # poison one chunk's logits with NaN
//! MNNFAST_FAULT=inf            # oversized logits: e^x overflows the lazy denominator
//! MNNFAST_FAULT=slow:25        # sleep 25 ms in one chunk (deadline tests)
//! MNNFAST_FAULT=panic          # panic inside one chunk (catch_unwind tests)
//! MNNFAST_FAULT=nan;after=3;fires=2   # skip 3 chunks, then fire twice
//! ```
//!
//! The same grammar also names the *RPC* fault kinds consumed by the
//! distributed plane (`drop`, `delay:<ms>`, `corrupt`, `disconnect`).
//! Those are valid specs — [`check_env`] accepts them so one
//! `MNNFAST_FAULT` variable drives either dimension — but they describe
//! socket-level damage, so this kernel-level hook never arms them:
//! [`arm_from_env`] treats them as "valid, nothing to arm here".
//!
//! Because the state is global, tests that arm faults must serialize
//! themselves (the in-tree integration tests share one mutex) and always
//! [`disarm`] when done.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Duration;

/// What an armed fault does to the chunk it fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Poison the first logit of the chunk with NaN — models a corrupted
    /// weight or embedding reaching the accumulator.
    NanLogit,
    /// Replace the chunk's logits with values far above
    /// [`crate::simd::EXP_CLAMP`] — models a violated clamp contract, where
    /// the raw exponentials overflow the lazy-softmax denominator to ∞.
    OversizedLogit,
    /// Sleep for the given duration before processing the chunk — models a
    /// stalled memory fetch or an overloaded core, for deadline tests.
    SlowChunk(Duration),
    /// Panic inside the chunk kernel — models a library bug or a violated
    /// slice invariant, for the scale-out engine's `catch_unwind` tests.
    PanicChunk,
}

/// An armed fault plus its firing schedule.
#[derive(Debug, Clone, Copy)]
struct Plan {
    kind: FaultKind,
    /// Chunks to let pass untouched before firing.
    after_chunks: u64,
    /// How many chunks to affect once firing starts.
    fires: u64,
}

#[derive(Debug, Default)]
struct State {
    plan: Option<Plan>,
    seen: u64,
    fired: u64,
}

static ARMED: AtomicBool = AtomicBool::new(false);

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(Mutex::default)
}

/// Arms a fault: after `after_chunks` fused chunks pass untouched, the next
/// `fires` chunks are affected by `kind`. Counting starts from this call
/// (the chunk counter is reset).
pub fn arm(kind: FaultKind, after_chunks: u64, fires: u64) {
    let mut s = state().lock().expect("fault state poisoned");
    *s = State {
        plan: Some(Plan {
            kind,
            after_chunks,
            fires,
        }),
        seen: 0,
        fired: 0,
    };
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms any armed fault and resets the counters.
pub fn disarm() {
    let mut s = state().lock().expect("fault state poisoned");
    *s = State::default();
    ARMED.store(false, Ordering::SeqCst);
}

/// How many chunks the armed fault has affected so far.
pub fn fired() -> u64 {
    state().lock().expect("fault state poisoned").fired
}

/// What a fault spec targets: this crate's fused chunk kernels, or the
/// distributed plane's RPC layer (parsed as valid here, armed elsewhere).
enum SpecTarget {
    Chunk(FaultKind),
    Rpc,
}

/// Strictly parses a fault spec (module-docs grammar). `Ok(None)` for the
/// empty spec, `Ok(Some(plan))` for a valid one, `Err(())` for anything
/// malformed — including unknown parts, bad counts, or a schedule with no
/// fault kind.
fn parse_spec(spec: &str) -> Result<Option<(SpecTarget, u64, u64)>, ()> {
    if spec.is_empty() {
        return Ok(None);
    }
    let mut kind = None;
    let mut after = 0u64;
    let mut fires = 1u64;
    for part in spec.split(';') {
        let part = part.trim();
        if let Some(ms) = part.strip_prefix("slow:") {
            let ms = ms.parse::<u64>().map_err(|_| ())?;
            kind = Some(SpecTarget::Chunk(FaultKind::SlowChunk(
                Duration::from_millis(ms),
            )));
        } else if part == "nan" {
            kind = Some(SpecTarget::Chunk(FaultKind::NanLogit));
        } else if part == "inf" {
            kind = Some(SpecTarget::Chunk(FaultKind::OversizedLogit));
        } else if part == "panic" {
            kind = Some(SpecTarget::Chunk(FaultKind::PanicChunk));
        } else if part == "drop" || part == "corrupt" || part == "disconnect" {
            kind = Some(SpecTarget::Rpc);
        } else if let Some(ms) = part.strip_prefix("delay:") {
            ms.parse::<u64>().map_err(|_| ())?;
            kind = Some(SpecTarget::Rpc);
        } else if let Some(n) = part.strip_prefix("after=") {
            after = n.parse().map_err(|_| ())?;
        } else if let Some(n) = part.strip_prefix("fires=") {
            fires = n.parse().map_err(|_| ())?;
        } else {
            return Err(());
        }
    }
    match kind {
        Some(kind) => Ok(Some((kind, after, fires))),
        None => Err(()),
    }
}

/// Parses `MNNFAST_FAULT` (see the module docs for the grammar) and arms
/// the described fault. Returns `false` when the variable is unset, empty,
/// malformed, or names an RPC-level fault this kernel hook does not own
/// (malformed specs are ignored rather than panicking: fault injection
/// must never take down a process that merely inherited a stale
/// environment — use [`check_env`] to surface them as typed errors at
/// startup).
pub fn arm_from_env() -> bool {
    let Ok(spec) = std::env::var("MNNFAST_FAULT") else {
        return false;
    };
    match parse_spec(&spec) {
        Ok(Some((SpecTarget::Chunk(kind), after, fires))) => {
            arm(kind, after, fires);
            true
        }
        Ok(Some((SpecTarget::Rpc, _, _))) | Ok(None) | Err(()) => false,
    }
}

/// Validates `MNNFAST_FAULT` without arming anything: unset or empty is
/// fine, a well-formed spec is fine, anything else is an
/// [`EnvVarError`](crate::EnvVarError).
pub fn check_env() -> Result<(), crate::EnvVarError> {
    match std::env::var("MNNFAST_FAULT") {
        Ok(spec) => match parse_spec(&spec) {
            Ok(_) => Ok(()),
            Err(()) => Err(crate::EnvVarError::new(
                "MNNFAST_FAULT",
                spec,
                "a fault spec like `nan`, `inf`, `panic`, `slow:25`, or an \
                 RPC kind (`drop`, `delay:<ms>`, `corrupt`, `disconnect`), \
                 optionally with `;after=N` / `;fires=M` (empty/unset = none)",
            )),
        },
        Err(_) => Ok(()),
    }
}

/// Per-chunk hook called by the fused kernels: returns the fault to apply
/// to this chunk, or `None` (the overwhelmingly common case).
///
/// The first call consults `MNNFAST_FAULT` so externally-driven runs (CI
/// jobs, the CLI) need no code changes.
pub(crate) fn on_chunk() -> Option<FaultKind> {
    static ENV_INIT: Once = Once::new();
    ENV_INIT.call_once(|| {
        let _ = arm_from_env();
    });
    if !ARMED.load(Ordering::SeqCst) {
        return None;
    }
    let mut s = state().lock().expect("fault state poisoned");
    let plan = s.plan?;
    s.seen += 1;
    if s.seen > plan.after_chunks && s.fired < plan.fires {
        s.fired += 1;
        Some(plan.kind)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The fault state is process-global; every test in this module (and the
    // integration tests in dependent crates) serializes on this mutex.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn fires_after_skip_count_then_stops() {
        let _guard = SERIAL.lock().unwrap();
        arm(FaultKind::NanLogit, 2, 1);
        assert_eq!(on_chunk(), None);
        assert_eq!(on_chunk(), None);
        assert_eq!(on_chunk(), Some(FaultKind::NanLogit));
        assert_eq!(on_chunk(), None, "fires budget exhausted");
        assert_eq!(fired(), 1);
        disarm();
        assert_eq!(on_chunk(), None);
        assert_eq!(fired(), 0);
    }

    #[test]
    fn env_spec_parses() {
        let _guard = SERIAL.lock().unwrap();
        std::env::set_var("MNNFAST_FAULT", "slow:25;after=3;fires=2");
        assert!(arm_from_env());
        {
            let s = state().lock().unwrap();
            let plan = s.plan.expect("armed");
            assert_eq!(plan.kind, FaultKind::SlowChunk(Duration::from_millis(25)));
            assert_eq!(plan.after_chunks, 3);
            assert_eq!(plan.fires, 2);
        }
        std::env::set_var("MNNFAST_FAULT", "nonsense");
        assert!(!arm_from_env());
        assert!(check_env().is_err(), "nonsense must fail validation");
        // Strict parsing: a valid kind with a malformed rider is rejected
        // whole, not partially honoured.
        std::env::set_var("MNNFAST_FAULT", "nan;bogus=7");
        assert!(!arm_from_env());
        assert!(check_env().is_err());
        std::env::set_var("MNNFAST_FAULT", "nan");
        assert!(check_env().is_ok());
        std::env::remove_var("MNNFAST_FAULT");
        assert!(!arm_from_env());
        assert!(check_env().is_ok());
        disarm();
    }

    #[test]
    fn panic_kind_parses_and_arms() {
        let _guard = SERIAL.lock().unwrap();
        std::env::set_var("MNNFAST_FAULT", "panic;after=1");
        assert!(arm_from_env());
        {
            let s = state().lock().unwrap();
            let plan = s.plan.expect("armed");
            assert_eq!(plan.kind, FaultKind::PanicChunk);
            assert_eq!(plan.after_chunks, 1);
        }
        std::env::remove_var("MNNFAST_FAULT");
        disarm();
    }

    #[test]
    fn rpc_kinds_validate_but_never_arm_the_kernel_hook() {
        let _guard = SERIAL.lock().unwrap();
        for spec in ["drop", "delay:15", "corrupt", "disconnect;after=2;fires=3"] {
            std::env::set_var("MNNFAST_FAULT", spec);
            assert!(check_env().is_ok(), "{spec} must validate");
            assert!(!arm_from_env(), "{spec} must not arm a kernel fault");
            assert_eq!(on_chunk(), None, "{spec} must not fire in a kernel");
        }
        // Malformed delays are still rejected whole.
        std::env::set_var("MNNFAST_FAULT", "delay:abc");
        assert!(check_env().is_err());
        assert!(!arm_from_env());
        std::env::remove_var("MNNFAST_FAULT");
        disarm();
    }
}
