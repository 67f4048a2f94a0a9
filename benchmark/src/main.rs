//! The exchange's benchmark: four workloads, every output checked, every
//! metric printed by name and unit, and a per-layer traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--selfcheck]
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod adapter;
mod loadgen;
mod replica;
mod stats;
mod sysinfo;
mod trace;
mod wire;
mod workloads;

use std::process::ExitCode;

use workloads::{Reps, RunResult, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                // `--trace 0|1`, or bare `--trace` for a traced run.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (known: all, {})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// A metric value with all its digits, as JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line. It is only ever printed for a run in which every
/// output was correct and no operation failed (anything else exits
/// non-zero before this point), hence the constants.
fn result_line(attempted: u64, metrics: &[(String, f64, String)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_end_to_end(r: &RunResult) {
    println!("== {} ==", r.workload);
    println!("  {}", r.what);
    println!(
        "  input_digest = {:016x}   loadgen.build_s = {:.3} s   repetitions = {}   attempted = {}   failed = 0   failed_ops_share = 0",
        r.input_digest, r.loadgen_build_s, r.reps, r.attempted
    );
    for m in &r.metrics {
        let samples = if m.samples_per_rep > 0 {
            format!("  n = {} per repetition", m.samples_per_rep)
        } else {
            String::new()
        };
        println!(
            "  {:<22} = {:>12.4} {:<5}  [min {:.4}, max {:.4} over {} repetitions]{}",
            m.name, m.value.value, m.unit, m.value.min, m.value.max, m.value.reps, samples
        );
    }
    let s = &r.side;
    println!(
        "  op_ms_p95 = {:.4} ms   reopt_to_ack_ms_p50 = {:.3} ms (n = {} per repetition)   overlay_rules_peak = {}   frames_per_op = {:.2}   mods_per_frame = {:.2}   updates_per_compile = {:.2}   peak_rss_mb = {:.1} MiB",
        s.op_ms_p95, s.reopt_to_ack_ms_p50, s.reopt_samples, s.overlay_rules_peak, s.frames_per_op, s.mods_per_frame, s.updates_per_compile, s.peak_rss_mb
    );
}

fn end_to_end_line(r: &RunResult) -> String {
    let metrics: Vec<(String, f64, String)> = r
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.value.value, m.unit.to_string()))
        .collect();
    result_line(r.attempted, &metrics)
}

fn run_end_to_end(workload: &str, args: &Args) -> Result<RunResult, String> {
    workloads::run(
        workload,
        args.seed,
        Reps::Measured {
            seconds: args.seconds,
        },
    )
}

/// The traced run: per-layer metrics, and the spans written under
/// `benchmark/out/`.
fn run_traced(workload: &str, args: &Args) -> Result<String, String> {
    let t = replica::run(workload, args.seed)?;
    println!("== {workload} (traced) ==");
    println!("  {} spans written to {}", t.spans, t.trace_file);
    let layers = t.layers.all();
    for (name, value, unit) in &layers {
        println!("  {name:<48} = {value:>14.4} {unit}");
    }
    // From the agent log and the daemon's registry of the wire repetition.
    let s = &t.wire.side;
    println!(
        "  wire: runtime.daemon.reopt_to_ack_ms_p50 = {:.3} ms (n = {})   core.controller.overlay_rules_peak = {}   runtime.daemon.frames_per_op = {:.2}   runtime.daemon.updates_per_compile = {:.2}   runtime.daemon.passes_per_dump = {:.1}   runtime.daemon.start_minus_deploy_ms = {:.1} ms",
        s.reopt_to_ack_ms_p50,
        s.reopt_samples,
        s.overlay_rules_peak,
        s.frames_per_op,
        s.updates_per_compile,
        s.passes_per_dump,
        if s.daemon_deploy_ms > 0.0 { t.wire.metric("setup_s") * 1e3 - s.daemon_deploy_ms } else { 0.0 },
    );
    if let Some(ms) = t.wire_overhead_ms {
        println!("  wire: runtime.daemon.wire_overhead_ms = {ms:.3} ms (wire op_ms_p50 - in-process apply_changed_prefixes p50)");
    }
    Ok(result_line(t.wire.attempted, &layers))
}

/// Runs the whole suite twice with one seed and compares every end-to-end
/// metric against its bound in `BENCHMARK.json`.
fn selfcheck(args: &Args) -> Result<(), String> {
    let bounds = read_bounds()?;
    println!("{}", sysinfo::describe());
    let mut worst: f64 = 0.0;
    let mut failures = Vec::new();
    for name in WORKLOADS {
        let first = run_end_to_end(name, args)?;
        let second = run_end_to_end(name, args)?;
        println!("== {name}: two runs, seed {} ==", args.seed);
        for (a, b) in first.metrics.iter().zip(&second.metrics) {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == a.name)
                .map(|(_, b)| *b)
                .ok_or(format!("BENCHMARK.json has no bound for `{}`", a.name))?;
            let base = a.value.value.abs().max(f64::MIN_POSITIVE);
            let diff = (b.value.value - a.value.value).abs() / base;
            let verdict = if diff <= bound { "ok" } else { "EXCEEDS" };
            println!(
                "  {:<22} {:>14.4} vs {:>14.4} {:<5}  diff {:>6.2} %  bound {:>5.1} %  {verdict}",
                a.name,
                a.value.value,
                b.value.value,
                a.unit,
                diff * 100.0,
                bound * 100.0
            );
            worst = worst.max(diff / bound);
            if diff > bound {
                failures.push(format!("{name}/{}", a.name));
            }
        }
    }
    println!("{}", sysinfo::describe());
    println!("worst difference: {:.0} % of its bound", worst * 100.0);
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("outside their bounds: {}", failures.join(", ")))
    }
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`, found
/// next to the benchmark directory. The file is small and flat, so the
/// bounds are picked out by key instead of through a JSON parser.
fn read_bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    // Whatever the file's layout: no name, unit or number holds a space.
    let text: String = text.chars().filter(|c| !c.is_whitespace()).collect();
    let mut out = Vec::new();
    for chunk in text.split("{\"name\":").skip(1) {
        let name = chunk.split('"').nth(1).unwrap_or_default().to_string();
        let Some(rest) = chunk.split("\"bound\":").nth(1) else {
            continue;
        };
        let value: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        let bound = value
            .parse::<f64>()
            .map_err(|e| format!("bound of {name}: {e}"))?;
        out.push((name, bound));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return match selfcheck(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: selfcheck: {e}");
                ExitCode::FAILURE
            }
        };
    }
    println!("{}", sysinfo::describe());
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    for name in names {
        // Every output is checked before any number is printed; a failed
        // check withholds the metrics and exits non-zero.
        let line = if args.trace {
            run_traced(name, &args)
        } else {
            run_end_to_end(name, &args).map(|r| {
                print_end_to_end(&r);
                end_to_end_line(&r)
            })
        };
        match line {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("error: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
