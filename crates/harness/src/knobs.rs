//! Every runtime `PUNO_*` knob, read in one place: [`HostOptions`], one
//! typed field per knob. [`HostOptions::get`] reads the environment once,
//! lazily, and is the only code in the library that touches it. Every knob
//! says "off" the same way ([`parse_setting`]); a value that does not parse
//! is refused with an error naming the variable, never replaced by a
//! default. No knob changes a simulated bit.

use crate::sweep::RetryPolicy;
use crate::system::System;
use puno_sim::trace::DEFAULT_RING_CAPACITY;
use puno_sim::{ChannelMask, Tracer};
use std::num::{NonZeroU32, NonZeroUsize};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::OnceLock;

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

/// The host-side settings of one process, one field per runtime knob.
#[derive(Clone, Debug, PartialEq)]
pub struct HostOptions {
    /// `PUNO_RESULT_CACHE`: directory of the persistent result cache.
    pub result_cache: Option<PathBuf>,
    /// `PUNO_RETRY_MAX`: attempts per sweep cell (off: one, no retries).
    pub retry: RetryPolicy,
    /// `PUNO_SWEEP_THREADS`: cap on the sweep's workers (off: every core).
    pub sweep_threads: Option<NonZeroUsize>,
    /// `PUNO_TRACE`: channels the single-run entry points trace (empty:
    /// off).
    pub trace: ChannelMask,
    /// `PUNO_TRACE_OUT`: the JSONL stream of a traced run, as a file or
    /// as a directory for one file per run (see [`trace_path`]).
    pub trace_out: Option<PathBuf>,
    /// `PUNO_WAREHOUSE`: directory of the cross-run warehouse.
    pub warehouse: Option<PathBuf>,
    /// `PUNO_RUN_ID`: the warehouse run group (default `<unix-secs>-<pid>`).
    pub run_id: String,
}

impl HostOptions {
    /// Parse every knob from `lookup(name)`, the raw value of the variable
    /// `name` or `None` when it is unset.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let setting = |name: &str| parse_setting(lookup(name).as_deref()).map(str::to_string);
        let path = |name: &str| setting(name).map(PathBuf::from);
        let trace = match setting("PUNO_TRACE") {
            Some(spec) => ChannelMask::parse(&spec).map_err(|e| format!("PUNO_TRACE: {e}"))?,
            None => ChannelMask::NONE,
        };
        Ok(Self {
            result_cache: path("PUNO_RESULT_CACHE"),
            retry: RetryPolicy::new(
                number("PUNO_RETRY_MAX", setting("PUNO_RETRY_MAX"))?.map_or(1, NonZeroU32::get),
            ),
            sweep_threads: number("PUNO_SWEEP_THREADS", setting("PUNO_SWEEP_THREADS"))?,
            trace,
            trace_out: path("PUNO_TRACE_OUT"),
            warehouse: path("PUNO_WAREHOUSE"),
            run_id: setting("PUNO_RUN_ID").unwrap_or_else(|| {
                format!("{}-{}", crate::warehouse::unix_now(), std::process::id())
            }),
        })
    }

    /// The process's options, read on first use. Panics, naming the
    /// variable, on a value that does not parse.
    pub fn get() -> &'static HostOptions {
        read().as_ref().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`HostOptions::get`] for a binary's `main`, before it prints or
    /// simulates anything: prints the options as one stderr line, or the
    /// error, exiting 2, when a value does not parse.
    pub fn for_main(program: &str) -> &'static HostOptions {
        match read() {
            Ok(options) => {
                eprintln!("{program}: host options {}", options.render());
                options
            }
            Err(e) => {
                eprintln!("{program}: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Every knob's effective value, as `NAME=value` pairs on one line.
    pub fn render(&self) -> String {
        let or_off = |v: Option<String>| v.unwrap_or_else(|| "off".to_string());
        let path = |p: &Option<PathBuf>| or_off(p.as_ref().map(|p| p.display().to_string()));
        format!(
            "PUNO_RESULT_CACHE={} PUNO_RETRY_MAX={} PUNO_SWEEP_THREADS={} PUNO_TRACE={} \
             PUNO_TRACE_OUT={} PUNO_WAREHOUSE={} PUNO_RUN_ID={}",
            path(&self.result_cache),
            self.retry.max_attempts,
            or_off(self.sweep_threads.map(|n| n.to_string())),
            self.trace.spec(),
            path(&self.trace_out),
            path(&self.warehouse),
            self.run_id
        )
    }

    /// Attach the tracer these options ask for to a freshly built `sys`
    /// running `workload` at `seed`; nothing when tracing is off. The ring
    /// becomes the trace of a deadlock/livelock error; an unwritable JSONL
    /// path is reported and the run goes on untraced to disk.
    pub fn install_tracer(&self, sys: &mut System, workload: &str, seed: u64) {
        if self.trace.is_empty() {
            return;
        }
        let mut tracer = Tracer::ring(self.trace, DEFAULT_RING_CAPACITY);
        if let Some(out) = &self.trace_out {
            let path = trace_path(out, workload, sys.mechanism().name(), seed);
            if let Err(e) = tracer.set_jsonl_path(&path) {
                eprintln!("warning: cannot open trace output {}: {e}", path.display());
            }
        }
        sys.install_tracer(tracer);
    }
}

/// The environment, parsed once per process.
fn read() -> &'static Result<HostOptions, String> {
    static OPTIONS: OnceLock<Result<HostOptions, String>> = OnceLock::new();
    OPTIONS.get_or_init(|| {
        HostOptions::from_lookup(|name| {
            std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
        })
    })
}

/// A whole-number knob that is on: `value` parsed as a `T`, or an error
/// naming `name`.
fn number<T: FromStr>(name: &str, value: Option<String>) -> Result<Option<T>, String> {
    value
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{name} must be a positive whole number or off, not {v:?}"))
        })
        .transpose()
}

/// Where the JSONL stream of one run goes: an existing directory `out`
/// gets a per-cell file name inside it; anything else is the file path.
pub fn trace_path(out: &Path, workload: &str, mechanism: &str, seed: u64) -> PathBuf {
    if out.is_dir() {
        out.join(format!("trace_{workload}_{mechanism}_s{seed}.jsonl"))
    } else {
        out.to_path_buf()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    const OFF: [Option<&str>; 10] = [
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
    ];

    fn parse(vars: &[(&str, &str)]) -> Result<HostOptions, String> {
        let map: HashMap<&str, &str> = vars.iter().copied().collect();
        HostOptions::from_lookup(|name| map.get(name).map(|v| v.to_string()))
    }

    #[test]
    fn every_off_spelling_is_off() {
        for off in OFF {
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
        assert_eq!(parse_setting(Some("nope")), Some("nope"));
    }

    #[test]
    fn every_knob_is_off_by_every_off_spelling() {
        for name in [
            "PUNO_RESULT_CACHE",
            "PUNO_RETRY_MAX",
            "PUNO_SWEEP_THREADS",
            "PUNO_TRACE",
            "PUNO_TRACE_OUT",
            "PUNO_WAREHOUSE",
        ] {
            for off in OFF.into_iter().flatten() {
                let got = parse(&[(name, off)]).unwrap();
                assert_eq!(got.result_cache, None, "{name}={off:?}");
                assert_eq!(got.retry, RetryPolicy::new(1), "{name}={off:?}");
                assert_eq!(got.sweep_threads, None, "{name}={off:?}");
                assert_eq!(got.trace, ChannelMask::NONE, "{name}={off:?}");
                assert_eq!(got.trace_out, None, "{name}={off:?}");
                assert_eq!(got.warehouse, None, "{name}={off:?}");
            }
        }
    }

    #[test]
    fn values_parse_into_their_fields() {
        let got = parse(&[
            ("PUNO_RESULT_CACHE", " results/cache "),
            ("PUNO_RETRY_MAX", "3"),
            ("PUNO_SWEEP_THREADS", "4"),
            ("PUNO_TRACE", "htm, coh"),
            ("PUNO_TRACE_OUT", "/tmp/t"),
            ("PUNO_WAREHOUSE", "results/warehouse"),
            ("PUNO_RUN_ID", " nightly-a "),
        ])
        .unwrap();
        assert_eq!(got.result_cache, Some(PathBuf::from("results/cache")));
        assert_eq!(got.retry, RetryPolicy::new(3));
        assert_eq!(got.sweep_threads, NonZeroUsize::new(4));
        assert_eq!(got.trace, ChannelMask::parse("htm,coh").unwrap());
        assert_eq!(got.trace_out, Some(PathBuf::from("/tmp/t")));
        assert_eq!(got.warehouse, Some(PathBuf::from("results/warehouse")));
        assert_eq!(got.run_id, "nightly-a");
        assert_eq!(
            parse(&[("PUNO_TRACE", "all")]).unwrap().trace,
            ChannelMask::ALL
        );
    }

    #[test]
    fn junk_is_refused_naming_the_variable() {
        for (name, junk) in [
            ("PUNO_SWEEP_THREADS", "two"),
            ("PUNO_SWEEP_THREADS", "-1"),
            ("PUNO_SWEEP_THREADS", "00"),
            ("PUNO_RETRY_MAX", "2.5"),
            ("PUNO_RETRY_MAX", "many"),
            ("PUNO_TRACE", "bogus"),
            ("PUNO_TRACE", "htm,bogus"),
        ] {
            let e = parse(&[(name, junk)]).unwrap_err();
            assert!(e.contains(name), "{name}={junk:?}: {e}");
            assert!(e.contains("bogus") || e.contains(junk), "{e}");
        }
    }

    #[test]
    fn the_run_id_defaults_to_unix_seconds_and_pid() {
        for vars in [&[][..], &[("PUNO_RUN_ID", "off")][..]] {
            let id = parse(vars).unwrap().run_id;
            let (secs, pid) = id.split_once('-').expect("<unix>-<pid>");
            let secs: u64 = secs.parse().expect("unix seconds");
            assert!(secs.abs_diff(crate::warehouse::unix_now()) < 60, "{id}");
            assert_eq!(pid, std::process::id().to_string(), "{id}");
        }
    }

    #[test]
    fn render_names_every_knob_on_one_line() {
        let line = parse(&[("PUNO_SWEEP_THREADS", "2"), ("PUNO_RUN_ID", "r")])
            .unwrap()
            .render();
        assert!(!line.contains('\n'));
        assert!(line.contains("PUNO_SWEEP_THREADS=2 "), "{line}");
        assert!(line.contains("PUNO_RESULT_CACHE=off "), "{line}");
        assert!(line.ends_with("PUNO_RUN_ID=r"), "{line}");
    }
}
