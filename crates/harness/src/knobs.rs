//! The one parse of a `PUNO_*` setting: every knob that can be switched
//! off agrees on how to say "off".

/// A setting's value, or `None` when it is unset or spelled off: empty,
/// `0`, `off`, `false` or `no` (case-insensitive, surrounding whitespace
/// ignored). Any other value is returned trimmed.
pub fn parse_setting(value: Option<&str>) -> Option<&str> {
    let v = value?.trim();
    let off = v.is_empty()
        || v == "0"
        || ["off", "false", "no"]
            .iter()
            .any(|s| v.eq_ignore_ascii_case(s));
    (!off).then_some(v)
}

/// [`parse_setting`] over the environment variable `name`.
pub fn env_setting(name: &str) -> Option<String> {
    parse_setting(std::env::var(name).ok().as_deref()).map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_off_spelling_is_off() {
        for off in [
            None,
            Some(""),
            Some("  "),
            Some("0"),
            Some("off"),
            Some("OFF"),
            Some("false"),
            Some("False"),
            Some("no"),
            Some(" NO "),
        ] {
            assert_eq!(parse_setting(off), None, "{off:?} must read as off");
        }
    }

    #[test]
    fn other_values_come_back_trimmed() {
        assert_eq!(parse_setting(Some("1")), Some("1"));
        assert_eq!(
            parse_setting(Some(" results/cache ")),
            Some("results/cache")
        );
        assert_eq!(
            parse_setting(Some("127.0.0.1:9100")),
            Some("127.0.0.1:9100")
        );
        assert_eq!(parse_setting(Some("nope")), Some("nope"));
    }
}
