//! The repository benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <hotpath64|fleet64k_spill|net_kg_live> --seed <n> --seconds <s> --trace <0|1>
//! python3 perfbench/compare.py <report.json> <report.json>
//! ```
//!
//! A run generates its workload's input from the seed, measures for the
//! given seconds, checks every output it can against a reference, writes
//! its full report (fingerprint, every figure, gates, notes; spans when
//! traced) under `perfbench/out/`, and prints as its last stdout line
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (untraced) or the per-layer metrics (traced). It exits 1 when
//! any gate fails.

mod calib;
mod common;
mod digest;
mod inproc;
mod netkg;
mod openloop;
mod stats;
mod trace;

use common::{Ctx, Outcome, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["fleet64k_spill", "net_kg_live", "hotpath64"];

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    Ok(Args {
        workload,
        ctx: Ctx {
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        },
    })
}

/// First line of a command's stdout, when it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string()
    })
}

/// The commit the working directory is, when it is the top of a git
/// checkout (never a repository further up the tree).
fn git_sha() -> String {
    let top = command_line("git", &["rev-parse", "--show-toplevel"]).map(std::path::PathBuf::from);
    let here = std::env::current_dir().ok();
    match (
        top.and_then(|t| t.canonicalize().ok()),
        here.and_then(|h| h.canonicalize().ok()),
    ) {
        (Some(t), Some(h)) if t == h => {
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
        }
        _ => "unknown".into(),
    }
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite figure as JSON, with every digit of Rust's shortest
/// round-trip form.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "a reported figure is finite");
    format!("{v}")
}

fn fingerprint(args: &Args, out: &Outcome) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line(
        &std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()),
        &["--version"],
    )
    .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cores\": {cores}, \"rustc\": {}, \"profile\": {}, \"git_sha\": {}, \"input_digest\": {}, \"records\": {}}}",
        quote(&args.workload),
        args.ctx.seed,
        number(args.ctx.seconds),
        u8::from(args.ctx.trace),
        quote(&rustc),
        quote(profile),
        quote(&git_sha()),
        quote(&format!("{:016x}", out.input_digest)),
        out.records,
    )
}

/// `{"name": {"value": v, "unit": u}, ...}` for the listed metrics; a
/// per-layer figure the workload never touched reads 0.
fn metrics_json(out: &Outcome, names: &[(&str, &str)], indent: &str) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "{indent}{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(v),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn report(out: &Outcome, correct: bool, fp: &str) -> String {
    let mut r = String::new();
    let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
    let _ = writeln!(r, "{{\n  \"fingerprint\": {fp},");
    let _ = writeln!(
        r,
        "  \"correct\": {correct}, \"attempted\": {}, \"failed\": {},",
        out.attempted, out.failed
    );
    let _ = writeln!(r, "  \"metrics\": {},", metrics_json(out, &all, "\n    "));
    let gates: Vec<String> = out
        .gates
        .iter()
        .map(|(n, ok, d)| {
            format!(
                "\n    {{\"name\": {}, \"passed\": {ok}, \"detail\": {}}}",
                quote(n),
                quote(d)
            )
        })
        .collect();
    let _ = writeln!(r, "  \"gates\": [{}],", gates.join(","));
    let notes: Vec<String> = out
        .notes
        .iter()
        .map(|(k, v)| format!("\n    {}: {}", quote(k), quote(v)))
        .collect();
    let _ = writeln!(r, "  \"notes\": {{{}}},", notes.join(","));
    let _ = writeln!(r, "  \"spans\": {}\n}}", out.spans.len());
    r
}

fn spans_json(out: &Outcome) -> String {
    let lines: Vec<String> = out
        .spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\": {}, \"id\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                quote(s.name),
                s.id,
                s.start_ns,
                s.end_ns
            )
        })
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

fn run(args: &Args) -> ExitCode {
    let mut out = match args.workload.as_str() {
        "hotpath64" => inproc::run(&args.ctx, &inproc::HOTPATH64),
        "fleet64k_spill" => inproc::run(&args.ctx, &inproc::FLEET64K_SPILL),
        _ => netkg::run(&args.ctx),
    };
    let share = out.failed as f64 / out.attempted.max(1) as f64;
    out.set("error_share", share);
    let correct = out.failed == 0 && out.gates.iter().all(|g| g.1);
    for (name, passed, detail) in &out.gates {
        println!(
            "gate {name}: {} ({detail})",
            if *passed { "ok" } else { "FAILED" }
        );
    }
    let fp = fingerprint(args, &out);
    println!("fingerprint {fp}");
    let dir = std::path::Path::new("perfbench").join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.ctx.seed,
        u8::from(args.ctx.trace)
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), report(&out, correct, &fp)))
        .and_then(|()| {
            if out.spans.is_empty() {
                Ok(())
            } else {
                std::fs::write(dir.join(format!("{stem}.spans.json")), spans_json(&out))
            }
        });
    match written {
        Ok(()) => println!("report perfbench/out/{stem}.json"),
        Err(e) => eprintln!("could not write the report under perfbench/out: {e}"),
    }
    let names = if args.ctx.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    if !args.ctx.trace {
        for (name, _) in END_TO_END {
            assert!(
                out.metrics.contains_key(name),
                "{} did not measure {name}",
                args.workload
            );
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        metrics_json(&out, names, ""),
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The values of every `"key": "value"` pair in `text`, in order.
    fn values_of<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
        let tag = format!("\"{key}\": \"");
        text.match_indices(&tag)
            .map(|(i, _)| {
                let rest = &text[i + tag.len()..];
                &rest[..rest.find('"').expect("a closed string")]
            })
            .collect()
    }

    /// The workload and metric names the code prints are exactly the ones
    /// `BENCHMARK.json` declares (workloads, then end-to-end, then
    /// per-layer metrics), with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let catalogue = || END_TO_END.iter().chain(PER_LAYER);
        let names: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(catalogue().map(|m| m.0))
            .collect();
        assert_eq!(values_of(&text, "name"), names);
        assert_eq!(
            values_of(&text, "unit"),
            catalogue().map(|m| m.1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn quoting_escapes_what_json_requires() {
        assert_eq!(quote("a\"b\\c\nd\u{1}é"), "\"a\\\"b\\\\c\\nd\\u0001é\"");
        assert_eq!(number(0.25), "0.25");
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload hotpath64 --seed 7 --seconds 3 --trace 1"))
            .expect("parses");
        assert_eq!(
            (a.workload.as_str(), a.ctx.seed, a.ctx.seconds, a.ctx.trace),
            ("hotpath64", 7, 3.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload hotpath64 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload hotpath64 --seconds")).is_err());
    }
}
