//! Number arguments of the command-line entry points: `sweep_all`, `diag`
//! and `fault_smoke` include this file as `mod args`, and `figures` and the
//! examples by path, so the simulator library carries no argument parsing.
//! A value that does not parse is refused, never replaced by the default,
//! and a scale must be finite and positive, which `WorkloadParams::scaled`
//! asserts.

use std::str::FromStr;

/// `value` parsed as a `T`, or `default` when the argument is absent.
pub fn number<T: FromStr>(value: Option<&str>, name: &str, default: T) -> Result<T, String> {
    value.map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("{name} must be a number, not {v:?}"))
    })
}

/// A workload scale factor: a [`number`] that is finite and positive.
pub fn scale(value: Option<&str>, default: f64) -> Result<f64, String> {
    let scale = number(value, "scale", default)?;
    if scale.is_finite() && scale > 0.0 {
        Ok(scale)
    } else {
        Err(format!("scale must be positive, not {scale}"))
    }
}

/// Print `error` and the usage line of `program`, then exit with status 2.
pub fn exit_usage(program: &str, usage: &str, error: &str) -> ! {
    eprintln!("{program}: {error}\nusage: {usage}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_arguments_take_the_default_and_junk_is_refused() {
        assert_eq!(number(None, "seed", 7u64), Ok(7));
        assert_eq!(number(Some("3"), "seed", 7u64), Ok(3));
        assert!(number::<u64>(Some("x"), "seed", 7).is_err());
        assert!(number::<u64>(Some("-1"), "seed", 7).is_err());
        assert_eq!(scale(None, 0.5), Ok(0.5));
        assert_eq!(scale(Some("0.05"), 0.5), Ok(0.05));
        for junk in ["half", "0", "-1", "NaN", "nan", "inf"] {
            assert!(scale(Some(junk), 0.5).is_err(), "{junk}");
        }
    }
}
