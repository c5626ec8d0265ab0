//! RPC-level fault injection for the coordinator/worker plane.
//!
//! The `MNNFAST_FAULT` grammar (owned by `mnn_tensor::fault` for the
//! kernel-level kinds) grows an RPC dimension here: `drop`, `delay:<ms>`,
//! `corrupt`, and `disconnect`, with the same `;after=N` / `;fires=M`
//! riders. A [`WorkerServer`](crate::worker::WorkerServer) arms at most
//! one [`RpcFaultState`] at construction — per worker, not process-global,
//! so a test fleet can damage exactly one member — and consults it once
//! per *response*:
//!
//! | spec | effect on the scheduled responses |
//! |------|-----------------------------------|
//! | `drop` | never write the response (client hits its read deadline) |
//! | `delay:<ms>` | sleep `<ms>` before writing (straggler / hedging tests) |
//! | `corrupt` | flip one payload bit so the frame CRC rejects it |
//! | `disconnect` | close the connection instead of answering |
//!
//! Chunk-kernel kinds (`nan`, `inf`, `slow:<ms>`, `panic`) are valid specs
//! in this parser too — one variable drives either dimension — but they
//! target the kernels, so [`RpcFaultPlan::parse`] reports them as
//! `Ok(None)`: nothing for the RPC layer to arm.
//!
//! Unlike the kernel hook this module is compiled unconditionally: the
//! state is plain config threaded into the worker (one relaxed atomic
//! load when disarmed), and release coordinators never arm it.

use mnn_tensor::EnvVarError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What an armed RPC fault does to the response it fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcFaultKind {
    /// Swallow the response; the peer's read deadline expires.
    Drop,
    /// Sleep this long before responding — a straggler worker.
    Delay(Duration),
    /// Flip one bit in the encoded response so its CRC check fails.
    Corrupt,
    /// Sever the connection instead of responding.
    Disconnect,
}

/// A parsed RPC fault spec: the kind plus its firing schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcFaultPlan {
    /// Damage to apply to scheduled responses.
    pub kind: RpcFaultKind,
    /// Responses to let pass untouched before firing.
    pub after: u64,
    /// How many responses to damage once firing starts.
    pub fires: u64,
}

impl RpcFaultPlan {
    /// Strictly parses a `MNNFAST_FAULT` spec against the full grammar.
    ///
    /// `Ok(Some(plan))` for an RPC kind, `Ok(None)` for the empty spec or
    /// a chunk-kernel kind (valid, owned elsewhere).
    ///
    /// # Errors
    ///
    /// [`EnvVarError`] for anything malformed, so a binary reading the
    /// spec fails loudly instead of a typo'd fault silently not firing.
    pub fn parse(spec: &str) -> Result<Option<RpcFaultPlan>, EnvVarError> {
        let malformed = || {
            EnvVarError::new(
                "MNNFAST_FAULT",
                spec.to_string(),
                "a fault spec like `drop`, `delay:<ms>`, `corrupt`, `disconnect`, or a \
                 kernel kind (`nan`, `inf`, `panic`, `slow:<ms>`), optionally with \
                 `;after=N` / `;fires=M` (empty/unset = none)",
            )
        };
        if spec.trim().is_empty() {
            return Ok(None);
        }
        let mut kind: Option<Option<RpcFaultKind>> = None;
        let mut after = 0u64;
        let mut fires = 1u64;
        for part in spec.split(';') {
            let part = part.trim();
            if part == "drop" {
                kind = Some(Some(RpcFaultKind::Drop));
            } else if let Some(ms) = part.strip_prefix("delay:") {
                let ms = ms.parse::<u64>().map_err(|_| malformed())?;
                kind = Some(Some(RpcFaultKind::Delay(Duration::from_millis(ms))));
            } else if part == "corrupt" {
                kind = Some(Some(RpcFaultKind::Corrupt));
            } else if part == "disconnect" {
                kind = Some(Some(RpcFaultKind::Disconnect));
            } else if part == "nan" || part == "inf" || part == "panic" {
                kind = Some(None); // kernel-level: valid, not ours
            } else if let Some(ms) = part.strip_prefix("slow:") {
                ms.parse::<u64>().map_err(|_| malformed())?;
                kind = Some(None);
            } else if let Some(n) = part.strip_prefix("after=") {
                after = n.parse().map_err(|_| malformed())?;
            } else if let Some(n) = part.strip_prefix("fires=") {
                fires = n.parse().map_err(|_| malformed())?;
            } else {
                return Err(malformed());
            }
        }
        match kind {
            Some(Some(kind)) => Ok(Some(RpcFaultPlan { kind, after, fires })),
            Some(None) => Ok(None),
            None => Err(malformed()),
        }
    }
}

/// Per-worker armed fault state: the plan plus response counters.
#[derive(Debug)]
pub struct RpcFaultState {
    plan: RpcFaultPlan,
    seen: AtomicU64,
    fired: AtomicU64,
}

impl RpcFaultState {
    /// Arms `plan` for one worker.
    pub fn new(plan: RpcFaultPlan) -> Self {
        RpcFaultState {
            plan,
            seen: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        }
    }

    /// Consulted once per scheduled response: returns the fault to apply
    /// to this response, or `None`.
    pub fn on_response(&self) -> Option<RpcFaultKind> {
        let seen = self.seen.fetch_add(1, Ordering::SeqCst) + 1;
        if seen <= self.plan.after {
            return None;
        }
        // Claim a fire slot; back out on overshoot (concurrent responders).
        let fired = self.fired.fetch_add(1, Ordering::SeqCst);
        if fired < self.plan.fires {
            Some(self.plan.kind)
        } else {
            self.fired.fetch_sub(1, Ordering::SeqCst);
            None
        }
    }

    /// How many responses the fault has damaged so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpc_specs_parse_with_schedules() {
        assert_eq!(RpcFaultPlan::parse("").unwrap(), None);
        assert_eq!(
            RpcFaultPlan::parse("drop").unwrap(),
            Some(RpcFaultPlan {
                kind: RpcFaultKind::Drop,
                after: 0,
                fires: 1
            })
        );
        assert_eq!(
            RpcFaultPlan::parse("delay:75;after=2;fires=4").unwrap(),
            Some(RpcFaultPlan {
                kind: RpcFaultKind::Delay(Duration::from_millis(75)),
                after: 2,
                fires: 4
            })
        );
        assert_eq!(
            RpcFaultPlan::parse("corrupt;fires=2")
                .unwrap()
                .unwrap()
                .kind,
            RpcFaultKind::Corrupt
        );
        assert_eq!(
            RpcFaultPlan::parse("disconnect").unwrap().unwrap().kind,
            RpcFaultKind::Disconnect
        );
    }

    #[test]
    fn kernel_kinds_are_valid_but_not_armed_here() {
        for spec in ["nan", "inf", "panic", "slow:25", "nan;after=3;fires=2"] {
            assert_eq!(RpcFaultPlan::parse(spec).unwrap(), None, "{spec}");
        }
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        for spec in ["nonsense", "delay:abc", "drop;bogus=7", "after=3", "slow:x"] {
            let err = RpcFaultPlan::parse(spec).unwrap_err();
            assert_eq!(err.var(), "MNNFAST_FAULT", "{spec}");
        }
    }

    #[test]
    fn state_fires_on_schedule() {
        let state = RpcFaultState::new(RpcFaultPlan {
            kind: RpcFaultKind::Corrupt,
            after: 2,
            fires: 1,
        });
        assert_eq!(state.on_response(), None);
        assert_eq!(state.on_response(), None);
        assert_eq!(state.on_response(), Some(RpcFaultKind::Corrupt));
        assert_eq!(state.on_response(), None, "fires budget exhausted");
        assert_eq!(state.fired(), 1);
    }
}
