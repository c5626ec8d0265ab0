use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// Error returned when the shapes of linear-algebra operands do not agree.
///
/// Every fallible kernel in this crate reports dimension mismatches through
/// this type rather than panicking, so that callers (e.g. the streaming
/// executor in `mnnfast`) can surface configuration errors cleanly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    op: &'static str,
    expected: String,
    found: String,
}

impl ShapeError {
    /// Creates a new shape error for operation `op`.
    pub fn new(op: &'static str, expected: impl Into<String>, found: impl Into<String>) -> Self {
        Self {
            op,
            expected: expected.into(),
            found: found.into(),
        }
    }

    /// The name of the operation that failed.
    pub fn op(&self) -> &str {
        self.op
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shape mismatch in {}: expected {}, found {}",
            self.op, self.expected, self.found
        )
    }
}

impl Error for ShapeError {}

/// Error returned when an `MNNFAST_*` environment variable holds a value
/// that does not parse.
///
/// The runtime knobs historically fell back to their defaults on garbage,
/// which silently disabled the feature the operator asked for. The checked
/// parsers ([`read_var`] for the serving knobs) report this type instead;
/// an *unset or blank* variable still means "use the default" everywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvVarError {
    var: &'static str,
    value: String,
    expected: &'static str,
}

impl EnvVarError {
    /// Creates a new environment-variable error for `var` holding `value`.
    pub fn new(var: &'static str, value: impl Into<String>, expected: &'static str) -> Self {
        Self {
            var,
            value: value.into(),
            expected,
        }
    }

    /// The variable's name.
    pub fn var(&self) -> &'static str {
        self.var
    }

    /// The rejected value.
    pub fn value(&self) -> &str {
        &self.value
    }
}

impl fmt::Display for EnvVarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {}={:?}: expected {}",
            self.var, self.value, self.expected
        )
    }
}

impl Error for EnvVarError {}

/// The one strict reader for an `MNNFAST_*` serving knob.
///
/// `source` looks a variable up: through [`std::env::var`] at a binary's
/// edge, in a table in tests, so the reader never touches the
/// process environment itself. An unset or blank variable is `Ok(None)`,
/// "use the default". Anything else must parse as `T` (surrounding
/// whitespace ignored) and pass `valid`.
///
/// # Errors
///
/// An [`EnvVarError`] naming `var`, its raw value and `expected`.
pub fn read_var<T: FromStr>(
    source: &dyn Fn(&str) -> Option<String>,
    var: &'static str,
    expected: &'static str,
    valid: fn(&T) -> bool,
) -> Result<Option<T>, EnvVarError> {
    let Some(raw) = source(var).filter(|raw| !raw.trim().is_empty()) else {
        return Ok(None);
    };
    match raw.trim().parse::<T>() {
        Ok(value) if valid(&value) => Ok(Some(value)),
        _ => Err(EnvVarError::new(var, raw, expected)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_operation_and_shapes() {
        let e = ShapeError::new("gemv", "x of length 4", "x of length 3");
        let s = e.to_string();
        assert!(s.contains("gemv"));
        assert!(s.contains("length 4"));
        assert!(s.contains("length 3"));
        assert_eq!(e.op(), "gemv");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShapeError>();
        assert_send_sync::<EnvVarError>();
    }

    #[test]
    fn env_var_error_display_names_the_variable() {
        let e = EnvVarError::new("MNNFAST_SEGMENTS", "zero", "a positive integer");
        let s = e.to_string();
        assert!(s.contains("MNNFAST_SEGMENTS"));
        assert!(s.contains("zero"));
        assert!(s.contains("positive integer"));
        assert_eq!(e.var(), "MNNFAST_SEGMENTS");
        assert_eq!(e.value(), "zero");
    }

    #[test]
    fn read_var_table() {
        let positive = |n: &usize| *n > 0;
        let read = |value: Option<&str>| {
            let value = value.map(str::to_owned);
            read_var(
                &|_| value.clone(),
                "MNNFAST_X",
                "a positive integer",
                positive,
            )
        };
        for (value, want) in [
            (None, Ok(None)),
            (Some(""), Ok(None)),
            (Some("  "), Ok(None)),
            (Some("4"), Ok(Some(4))),
            (Some(" 16 "), Ok(Some(16))),
            (Some("0"), Err("0")),
            (Some("-3"), Err("-3")),
            (Some("four"), Err("four")),
            (Some("4.5"), Err("4.5")),
        ] {
            let got = read(value);
            match want {
                Ok(n) => assert_eq!(got, Ok(n), "{value:?}"),
                Err(raw) => {
                    let e = got.unwrap_err();
                    assert_eq!((e.var(), e.value()), ("MNNFAST_X", raw));
                }
            }
        }
        // The name asked for is the name looked up.
        let only_y = |name: &str| (name == "MNNFAST_Y").then(|| "7".to_owned());
        assert_eq!(
            read_var::<u64>(&only_y, "MNNFAST_Y", "", |_| true),
            Ok(Some(7))
        );
        assert_eq!(
            read_var::<u64>(&only_y, "MNNFAST_X", "", |_| true),
            Ok(None)
        );
    }
}
