//! Validate a JSONL trace stream or convert it to Chrome-trace JSON.
//!
//! Usage:
//!   `trace_export <trace.jsonl> [--out <chrome.json>]`
//!   `trace_export <trace.jsonl> --validate [--channels <spec>]`
//!
//! Without `--validate`, the stream is converted to the Chrome `traceEvents`
//! format (loadable in `chrome://tracing` / Perfetto) and written to `--out`
//! (stdout by default). With `--validate`, every line must parse as a trace
//! record whose channel is within `--channels` (a `PUNO_TRACE`-style spec,
//! default `all`) and whose cycles never go backwards; the per-channel
//! record counts are printed on success. Exits 1 on a malformed stream,
//! 2 on a usage error.

use puno_harness::tracefmt;
use puno_sim::{ChannelMask, TraceChannel};

struct Args {
    input: String,
    out: Option<String>,
    validate: bool,
    channels: ChannelMask,
}

fn usage() -> ! {
    eprintln!(
        "usage: trace_export <trace.jsonl> [--out <chrome.json>] \
         [--validate [--channels <spec>]]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut input = None;
    let mut out = None;
    let mut validate = false;
    let mut channels = ChannelMask::ALL;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--out" => out = Some(argv.next().unwrap_or_else(|| usage())),
            "--validate" => validate = true,
            "--channels" => {
                let spec = argv.next().unwrap_or_else(|| usage());
                channels = ChannelMask::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            _ if input.is_none() && !arg.starts_with('-') => input = Some(arg),
            _ => usage(),
        }
    }
    let Some(input) = input else { usage() };
    Args {
        input,
        out,
        validate,
        channels,
    }
}

fn main() {
    let args = parse_args();
    let text = std::fs::read_to_string(&args.input).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", args.input);
        std::process::exit(2);
    });
    if args.validate {
        match tracefmt::validate_jsonl(&text, args.channels) {
            Ok(summary) => {
                println!(
                    "{}: {} records, cycles {}..={}",
                    args.input, summary.lines, summary.first_cycle, summary.last_cycle
                );
                for ch in TraceChannel::ALL {
                    println!("  {:<6} {}", ch.name(), summary.count(ch));
                }
            }
            Err(e) => {
                eprintln!("{}: invalid trace stream: {e}", args.input);
                std::process::exit(1);
            }
        }
        return;
    }
    let records = tracefmt::parse_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("{}: invalid trace stream: {e}", args.input);
        std::process::exit(1);
    });
    let json = tracefmt::chrome_trace(&records);
    match &args.out {
        Some(path) => std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }),
        None => println!("{json}"),
    }
}
