//! Strict typed parsing for the network front-end's `MNNFAST_*` knobs.
//!
//! | variable | meaning |
//! |----------|---------|
//! | `MNNFAST_LISTEN` | socket address the server binds (`host:port`) |
//! | `MNNFAST_NET_THREADS` | connection-handling threads |
//! | `MNNFAST_BATCH_WAIT_US` | longest a queued ask may sit behind other requests while the scheduler is busy, in microseconds — a cap under backlog, not a hold (an idle scheduler flushes at once); 0 = never let an ask sit behind other work |
//!
//! Like the rest of the repo's env surface, readers are strict — a typo'd
//! value is a typed [`EnvVarError`], not a silent default — and unset or
//! empty always means "use the default". [`validate_env`] bundles these
//! three and then chains [`mnn_dist::validate_env`], so one call at a
//! serving entry point covers the whole `MNNFAST_*` namespace the network
//! plane can reach (the distributed fleet knobs apply whenever a session
//! is configured with workers).

use mnn_tensor::EnvVarError;
use std::net::SocketAddr;
use std::time::Duration;

/// Parses `MNNFAST_LISTEN` as a socket address (e.g. `127.0.0.1:7464`).
///
/// # Errors
///
/// [`EnvVarError`] unless the value parses as `host:port` (or is
/// unset/empty).
pub fn listen_from_env() -> Result<Option<SocketAddr>, EnvVarError> {
    match std::env::var("MNNFAST_LISTEN") {
        Ok(raw) if raw.is_empty() => Ok(None),
        Ok(raw) => raw.trim().parse::<SocketAddr>().map(Some).map_err(|_| {
            EnvVarError::new(
                "MNNFAST_LISTEN",
                raw,
                "a socket address such as 127.0.0.1:7464",
            )
        }),
        Err(_) => Ok(None),
    }
}

/// Parses `MNNFAST_NET_THREADS`.
///
/// # Errors
///
/// [`EnvVarError`] unless the value is a positive integer (or unset/empty).
pub fn net_threads_from_env() -> Result<Option<usize>, EnvVarError> {
    match std::env::var("MNNFAST_NET_THREADS") {
        Ok(raw) if raw.is_empty() => Ok(None),
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(EnvVarError::new(
                "MNNFAST_NET_THREADS",
                raw,
                "a positive integer",
            )),
        },
        Err(_) => Ok(None),
    }
}

/// Parses `MNNFAST_BATCH_WAIT_US`: the coalescing queue's max-wait in
/// microseconds — the cap on how long a queued ask may sit while the
/// scheduler works through a backlog of other requests (see
/// [`mnn_serve::BatchConfig::max_wait`]). `0` is legal and means "never
/// let an ask sit behind other work": every ask is dispatched before the
/// next request is looked at.
///
/// # Errors
///
/// [`EnvVarError`] unless the value is a non-negative integer (or
/// unset/empty).
pub fn batch_wait_from_env() -> Result<Option<Duration>, EnvVarError> {
    match std::env::var("MNNFAST_BATCH_WAIT_US") {
        Ok(raw) if raw.is_empty() => Ok(None),
        Ok(raw) => match raw.trim().parse::<u64>() {
            Ok(us) => Ok(Some(Duration::from_micros(us))),
            Err(_) => Err(EnvVarError::new(
                "MNNFAST_BATCH_WAIT_US",
                raw,
                "a non-negative integer of microseconds",
            )),
        },
        Err(_) => Ok(None),
    }
}

/// Validates every environment knob the network front-end can reach: the
/// three variables above, then the distributed plane's set (workers,
/// replicas, hedge, fault grammar) via [`mnn_dist::validate_env`].
///
/// # Errors
///
/// The first [`EnvVarError`] found.
pub fn validate_env() -> Result<(), EnvVarError> {
    listen_from_env()?;
    net_threads_from_env()?;
    batch_wait_from_env()?;
    mnn_dist::validate_env()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // Env mutation is process-global; serialize the module.
    static SERIAL: Mutex<()> = Mutex::new(());

    const VARS: [&str; 3] = [
        "MNNFAST_LISTEN",
        "MNNFAST_NET_THREADS",
        "MNNFAST_BATCH_WAIT_US",
    ];

    #[test]
    fn strict_parsing_of_all_three_knobs() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        for var in VARS {
            std::env::remove_var(var);
        }
        assert_eq!(listen_from_env().unwrap(), None);
        assert_eq!(net_threads_from_env().unwrap(), None);
        assert_eq!(batch_wait_from_env().unwrap(), None);
        assert!(validate_env().is_ok());

        std::env::set_var("MNNFAST_LISTEN", "127.0.0.1:7464");
        std::env::set_var("MNNFAST_NET_THREADS", "4");
        std::env::set_var("MNNFAST_BATCH_WAIT_US", "250");
        assert_eq!(
            listen_from_env().unwrap(),
            Some("127.0.0.1:7464".parse().unwrap())
        );
        assert_eq!(net_threads_from_env().unwrap(), Some(4));
        assert_eq!(
            batch_wait_from_env().unwrap(),
            Some(Duration::from_micros(250))
        );
        assert!(validate_env().is_ok());

        std::env::set_var("MNNFAST_BATCH_WAIT_US", "0");
        assert_eq!(
            batch_wait_from_env().unwrap(),
            Some(Duration::ZERO),
            "0 = flush on the next pass"
        );
        for var in VARS {
            std::env::remove_var(var);
        }
    }

    #[test]
    fn malformed_values_are_typed_errors() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        for var in VARS {
            std::env::remove_var(var);
        }
        for (var, bad) in [
            ("MNNFAST_LISTEN", "localhost"),
            ("MNNFAST_LISTEN", "not an address"),
            ("MNNFAST_NET_THREADS", "0"),
            ("MNNFAST_NET_THREADS", "many"),
            ("MNNFAST_BATCH_WAIT_US", "-5"),
            ("MNNFAST_BATCH_WAIT_US", "soon"),
        ] {
            std::env::set_var(var, bad);
            let err = validate_env().unwrap_err();
            assert_eq!(err.var(), var, "{var}={bad}");
            std::env::remove_var(var);
        }
    }

    #[test]
    fn empty_values_mean_default() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        for var in VARS {
            std::env::set_var(var, "");
        }
        assert_eq!(listen_from_env().unwrap(), None);
        assert_eq!(net_threads_from_env().unwrap(), None);
        assert_eq!(batch_wait_from_env().unwrap(), None);
        for var in VARS {
            std::env::remove_var(var);
        }
    }
}
