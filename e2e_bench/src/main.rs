//! The repo benchmark: four long-horizon workloads, end-to-end and per-layer metrics,
//! host-stamped, with a traced pass. See README.md next to this package for what each
//! workload and metric is for; `BENCHMARK.json` at the repo root declares them.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one result line
//! e2e [--seed <n>] [--seconds <s>] [--reps <n>] [--trace]        every workload, each in a child
//! e2e --compare A.json B.json                                    do two result sets agree?
//! e2e --smoke [--seed <n>]                                       everything, tiny inputs, seconds
//! ```

mod compare;
mod digest;
mod host;
mod json;
mod probes;
mod spec;
mod stats;
mod trace;
mod traced_driver;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use host::HostStamp;
use json::Value;
use spec::BenchmarkSpec;
use stats::median;
use trace::Tracer;
use workloads::{generate, Inputs, Size};

const USAGE: &str = "usage: e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
                     \x20      e2e [--seed <n>] [--seconds <s>] [--reps <n>] [--trace]\n\
                     \x20      e2e --compare A.json B.json\n\
                     \x20      e2e --smoke [--seed <n>]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    reps: usize,
    compare: Option<(String, String)>,
    smoke: bool,
    /// Internal: be the page-touching child of `prefault`.
    prefault: Option<usize>,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        reps: 1,
        compare: None,
        smoke: false,
        prefault: None,
    };
    let mut argv = argv.peekable();
    fn value<T: std::str::FromStr>(
        argv: &mut impl Iterator<Item = String>,
        flag: &str,
    ) -> Result<T, String> {
        let text = argv.next().ok_or(format!("{flag} requires a value"))?;
        text.parse()
            .map_err(|_| format!("{flag}: cannot read '{text}'"))
    }
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--workload" => args.workload = Some(value(&mut argv, "--workload")?),
            "--seed" => args.seed = value(&mut argv, "--seed")?,
            "--seconds" => {
                let seconds: f64 = value(&mut argv, "--seconds")?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--reps" => args.reps = value::<usize>(&mut argv, "--reps")?.max(1),
            // `--trace 0|1` for the driver, bare `--trace` for people.
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            "--compare" => {
                args.compare = Some((
                    value(&mut argv, "--compare")?,
                    value(&mut argv, "--compare")?,
                ));
            }
            "--smoke" => args.smoke = true,
            "--prefault" => args.prefault = Some(value(&mut argv, "--prefault")?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// Where result files go: `bench/` under the build directory, inside the checkout.
fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()))
        .join("bench")
}

fn write_file(name: &str, value: &Value) {
    let dir = out_dir();
    let path = dir.join(name);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, value.to_pretty())) {
        Ok(()) => println!("wrote {}", path.display()),
        // The result line on stdout is the contract; a read-only tree only loses the copy.
        Err(err) => eprintln!("cannot write {}: {err}", path.display()),
    }
}

/// One measured cell: wall and CPU seconds around a closure.
fn timed<T>(work: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu = host::cpu_seconds();
    let start = Instant::now();
    let result = work();
    (
        result,
        start.elapsed().as_secs_f64(),
        host::cpu_seconds() - cpu,
    )
}

/// What one run of one workload found.
#[derive(Default)]
struct RunReport {
    attempted: u64,
    failures: Vec<String>,
    digest: u64,
    metrics: Vec<(&'static str, f64)>,
    cells: usize,
}

impl RunReport {
    fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    fn result_line(&self, spec: &BenchmarkSpec) -> String {
        Value::obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failures.len() as f64)),
            ("metrics", spec.metrics_object(&self.metrics)),
        ])
        .to_line()
    }
}

/// Set-up, nine times over: generate the inputs from the seed and run one warm-up cell
/// at tiny size (page in the code, grow the allocator's arenas). Returns the full-size
/// inputs and the median set-up time; a set-up is ~0.1 s, so a single one would mostly
/// measure whatever else the host was doing in that instant.
fn set_up(
    name: &str,
    seed: u64,
    size: Size,
    report: &mut RunReport,
) -> Result<(Inputs, f64), String> {
    let mut times = Vec::new();
    let mut inputs = None;
    for _ in 0..9 {
        let start = Instant::now();
        let warm = generate(name, seed, Size::Tiny).ok_or(format!("unknown workload '{name}'"))?;
        let outcome = warm.run(Size::Tiny);
        inputs = generate(name, seed, size);
        times.push(start.elapsed().as_secs_f64());
        report.attempted += outcome.attempted;
        report.failures.extend(
            outcome
                .failures
                .into_iter()
                .map(|f| format!("warm-up: {f}")),
        );
    }
    Ok((inputs.expect("the name was accepted above"), median(&times)))
}

/// Has a short-lived child write to every page of a buffer the size of the workload's
/// resident set, right before the first cell.
///
/// On the virtual machines this runs on, the host takes free guest memory back within
/// seconds and backs it again on first touch at up to ~8 s per GB, depending on the
/// host's state that minute — on the 1.2 GB `cyclon_nat_wide` that alone moved `wall_s`
/// between 9 s and 23 s. Touching the pages makes the host back them before the timed
/// region, and the cell then reuses the pages the child just freed. A child does it so
/// the buffer never counts towards this process's `peak_rss_mb`. It is harness work, not
/// the program's, so it is printed but belongs to neither `setup_s` nor `wall_s`.
fn prefault(name: &str, size: Size) {
    if size == Size::Tiny {
        return;
    }
    let megabytes = workloads::resident_mb(name);
    let start = Instant::now();
    let status = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["--prefault", &megabytes.to_string()])
            .status()
    });
    match status {
        Ok(status) if status.success() => println!(
            "  prefault {megabytes} MB: {:.3} s",
            start.elapsed().as_secs_f64()
        ),
        // Only steadiness is lost; the measurement itself does not depend on it.
        other => eprintln!("prefault skipped: {other:?}"),
    }
}

/// The child side of [`prefault`].
fn touch_pages(megabytes: usize) {
    let mut ballast = vec![0u8; megabytes << 20];
    for page in ballast.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&ballast);
}

/// The untraced pass: cells back to back until `seconds` are used (never fewer than
/// one), every cell timed whole, join phase included because users pay it.
fn run_untraced(name: &str, seed: u64, seconds: f64, size: Size) -> Result<RunReport, String> {
    let mut report = RunReport::default();
    let (inputs, setup_s) = set_up(name, seed, size, &mut report)?;
    println!("{name}: {}", inputs.describe());
    prefault(name, size);
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut peak_rss_mb = 0.0;
    let region = Instant::now();
    loop {
        let (outcome, wall, cpu) = timed(|| inputs.run(size));
        println!(
            "  cell {}: wall {wall:.3} s, cpu {cpu:.3} s, digest {}",
            walls.len() + 1,
            digest::hex(outcome.digest)
        );
        walls.push(wall);
        cpus.push(cpu);
        report.attempted += outcome.attempted;
        report.failures.extend(outcome.failures);
        if walls.len() == 1 {
            report.digest = outcome.digest;
            // Read after the first cell: how many cells fit the budget depends on the
            // host's speed that minute, and a second cell lifts the high-water mark.
            peak_rss_mb = host::peak_rss_mb();
        } else if outcome.digest != report.digest {
            report.failures.push(format!(
                "cell {}: digest differs for the same seed",
                walls.len()
            ));
        }
        // Another cell only if it is likely to end within the budget.
        if region.elapsed().as_secs_f64() + wall > seconds {
            break;
        }
    }
    report.cells = walls.len();
    let wall_s = median(&walls);
    report.metrics = vec![
        ("wall_s", wall_s),
        ("node_rounds_per_s", inputs.node_rounds() as f64 / wall_s),
        ("cpu_s", median(&cpus)),
        ("peak_rss_mb", peak_rss_mb),
        ("setup_s", setup_s),
    ];
    Ok(report)
}

/// The traced pass: the layer probes first (in a fresh heap, so they read the same
/// whatever the workload), then one untraced cell for reference and the same cell
/// through the traced driver; the two digests must match.
fn run_traced(name: &str, seed: u64, size: Size) -> Result<(RunReport, Tracer), String> {
    let mut report = RunReport {
        cells: 1,
        ..RunReport::default()
    };
    let (inputs, _) = set_up(name, seed, size, &mut report)?;
    println!("{name} (traced): {}", inputs.describe());
    let probes = probes::run_all(seed, size);
    prefault(name, size);
    let (reference, untraced_wall, _) = timed(|| inputs.run(size));
    let mut tracer = Tracer::new();
    let ((traced, totals), wall, cpu) = timed(|| inputs.run_traced(size, &mut tracer));
    println!(
        "  untraced {untraced_wall:.3} s, traced {wall:.3} s, digests {} / {}",
        digest::hex(reference.digest),
        digest::hex(traced.digest)
    );
    report.digest = reference.digest;
    report.attempted += reference.attempted + traced.attempted;
    report.failures.extend(reference.failures);
    report
        .failures
        .extend(traced.failures.into_iter().map(|f| format!("traced: {f}")));
    if traced.digest != reference.digest {
        report
            .failures
            .push("the traced cell's digest differs from the untraced cell's".to_string());
    }
    report.metrics = totals.metrics(&tracer, wall, cpu);
    report
        .metrics
        .push(("trace.overhead_pct", (wall / untraced_wall - 1.0) * 100.0));
    report
        .metrics
        .push(("trace.spans", tracer.spans().len() as f64));
    report.metrics.extend(probes);
    Ok((report, tracer))
}

/// Prints every metric by name with its unit, then the failures.
fn print_report(report: &RunReport, spec: &BenchmarkSpec) {
    for (name, value) in &report.metrics {
        let unit = spec.metric(name).map_or("?", |m| m.unit.as_str());
        println!("  {name:<42} {value:>16.6} {unit}");
    }
    for failure in &report.failures {
        println!("  FAILED: {failure}");
    }
    println!(
        "  digest {}  cells {}  attempted {}  failed {}",
        digest::hex(report.digest),
        report.cells,
        report.attempted,
        report.failures.len()
    );
}

fn report_json(
    name: &str,
    seed: u64,
    host: &HostStamp,
    report: &RunReport,
    spec: &BenchmarkSpec,
) -> Value {
    Value::obj(vec![
        ("workload", Value::str(name)),
        ("seed", Value::Num(seed as f64)),
        ("host", host.to_json()),
        ("digest", Value::str(digest::hex(report.digest))),
        ("correct", Value::Bool(report.correct())),
        ("attempted", Value::Num(report.attempted as f64)),
        (
            "failures",
            Value::Arr(report.failures.iter().map(Value::str).collect()),
        ),
        ("cells", Value::Num(report.cells as f64)),
        ("metrics", spec.metrics_object(&report.metrics)),
    ])
}

/// One workload in this process: the mode the benchmark driver calls. The last line of
/// stdout is the result line.
fn single(name: &str, args: &Args, spec: &BenchmarkSpec) -> Result<bool, String> {
    let host = HostStamp::collect();
    println!("{}", host.line());
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let report = if args.trace {
        let (report, tracer) = run_traced(name, args.seed, Size::Full)?;
        write_file(
            &format!("trace_{name}.json"),
            &Value::obj(vec![
                ("workload", Value::str(name)),
                ("seed", Value::Num(args.seed as f64)),
                ("host", host.to_json()),
                ("spans", tracer.to_json()),
            ]),
        );
        report
    } else {
        run_untraced(name, args.seed, seconds, Size::Full)?
    };
    print_report(&report, spec);
    let suffix = if args.trace { "_traced" } else { "" };
    write_file(
        &format!("e2e_{name}{suffix}.json"),
        &report_json(name, args.seed, &host, &report, spec),
    );
    println!("{}", report.result_line(spec));
    Ok(report.correct())
}

/// What a child run printed: its result line and the digest line above it.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    digest: String,
    metrics: Vec<(String, f64)>,
}

/// Runs one workload in a fresh child of this binary, so peak RSS and CPU time are the
/// workload's own and a 100k-node run cannot warm or fragment the next one's heap.
fn child(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let result = json::parse(line).map_err(|e| format!("{name}: bad result line: {e}"))?;
    let digest = stdout
        .lines()
        .rev()
        .find_map(|l| l.trim_start().strip_prefix("digest "))
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or("unknown")
        .to_string();
    let number = |key: &str| result.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let correct = result.get("correct") == Some(&Value::Bool(true)) && output.status.success();
    if !correct {
        // The child's own report names the failed oracle.
        print!("{stdout}");
    }
    Ok(ChildResult {
        correct,
        attempted: number("attempted"),
        failed: number("failed"),
        digest,
        metrics: result
            .get("metrics")
            .map(Value::as_obj)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(*v), hi.max(*v))
        })
}

/// `{unit, median, min, max, values}` of one metric over the repetitions.
fn summary(spec: &BenchmarkSpec, name: &str, values: &[f64]) -> Value {
    let (min, max) = min_max(values);
    Value::obj(vec![
        (
            "unit",
            Value::str(spec.metric(name).map_or("", |m| m.unit.as_str())),
        ),
        ("median", Value::Num(median(values))),
        ("min", Value::Num(min)),
        ("max", Value::Num(max)),
        (
            "values",
            Value::Arr(values.iter().map(|v| Value::Num(*v)).collect()),
        ),
    ])
}

/// Every workload, each repetition in its own child; prints a host-stamped table and
/// writes `e2e.json`.
fn all(args: &Args, spec: &BenchmarkSpec) -> Result<bool, String> {
    let host = HostStamp::collect();
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    println!("{}", host.line());
    println!(
        "seed {}, {} s per run, {} rep(s)",
        args.seed, seconds, args.reps
    );
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for name in workloads::NAMES {
        let mut runs = Vec::new();
        for _ in 0..args.reps {
            runs.push(child(name, args.seed, seconds, false)?);
        }
        let traced = if args.trace {
            Some(child(name, args.seed, seconds, true)?)
        } else {
            None
        };
        let digests_agree = runs.iter().all(|r| r.digest == runs[0].digest)
            && traced.as_ref().is_none_or(|t| t.digest == runs[0].digest);
        let correct = digests_agree && runs.iter().chain(&traced).all(|r| r.correct);
        all_correct &= correct;
        println!(
            "{name}: digest {}, {}",
            runs[0].digest,
            if correct { "ok" } else { "FAILED" }
        );
        let mut end_to_end = Vec::new();
        for metric in &spec.end_to_end {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| {
                    r.metrics
                        .iter()
                        .find(|(k, _)| *k == metric.name)
                        .map(|(_, v)| *v)
                })
                .collect();
            let (min, max) = min_max(&values);
            println!(
                "  {:<42} {:>16.6} {:<6} [{min:.6} – {max:.6}] n={}",
                metric.name,
                median(&values),
                metric.unit,
                values.len()
            );
            end_to_end.push((metric.name.clone(), summary(spec, &metric.name, &values)));
        }
        let mut per_layer = Vec::new();
        for (metric, value) in traced.iter().flat_map(|t| &t.metrics) {
            let unit = spec.metric(metric).map_or("", |m| m.unit.as_str());
            println!("  {metric:<42} {value:>16.6} {unit}");
            per_layer.push((metric.clone(), summary(spec, metric, &[*value])));
        }
        workloads.push((
            name.to_string(),
            Value::obj(vec![
                ("digest", Value::str(&runs[0].digest)),
                ("correct", Value::Bool(correct)),
                (
                    "attempted",
                    Value::Num(runs.iter().chain(&traced).map(|r| r.attempted).sum()),
                ),
                (
                    "failed",
                    Value::Num(runs.iter().chain(&traced).map(|r| r.failed).sum()),
                ),
                ("end_to_end", Value::Obj(end_to_end)),
                ("per_layer", Value::Obj(per_layer)),
            ]),
        ));
    }
    write_file(
        "e2e.json",
        &Value::obj(vec![
            ("host", host.to_json()),
            ("seed", Value::Num(args.seed as f64)),
            ("seconds", Value::Num(seconds)),
            ("reps", Value::Num(args.reps as f64)),
            ("workloads", Value::Obj(workloads)),
        ]),
    );
    Ok(all_correct)
}

/// All four workloads, untraced and traced, and every layer probe, at tiny size in this
/// process: a few seconds that exercise the whole harness.
fn smoke(seed: u64, spec: &BenchmarkSpec) -> Result<bool, String> {
    let mut all_correct = true;
    for name in workloads::NAMES {
        let untraced = run_untraced(name, seed, 0.0, Size::Tiny)?;
        print_report(&untraced, spec);
        let (traced, _) = run_traced(name, seed, Size::Tiny)?;
        print_report(&traced, spec);
        all_correct &= untraced.correct() && traced.correct() && untraced.digest == traced.digest;
    }
    println!("smoke: {}", if all_correct { "ok" } else { "FAILED" });
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(megabytes) = args.prefault {
        touch_pages(megabytes);
        return ExitCode::SUCCESS;
    }
    let spec = BenchmarkSpec::load();
    let outcome = if let Some((a, b)) = &args.compare {
        compare::run(a, b, &spec)
    } else if args.smoke {
        smoke(args.seed, &spec)
    } else if let Some(name) = &args.workload {
        single(name, &args, &spec)
    } else {
        all(&args, &spec)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args = parse(&[
            "--workload",
            "paper_matrix",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("paper_matrix"));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (7, Some(20.0), false)
        );
        assert!(parse(&["--trace", "1"]).unwrap().trace);
        assert!(parse(&["--trace"]).unwrap().trace);
        let all = parse(&["--trace", "--seed", "3"]).unwrap();
        assert_eq!((all.trace, all.seed), (true, 3));
        assert_eq!(
            parse(&["--compare", "a.json", "b.json"]).unwrap().compare,
            Some(("a.json".to_string(), "b.json".to_string()))
        );
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--bogus"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    /// The smoke path drives all four workloads untraced and traced plus every probe, and
    /// what it emits must be exactly what `BENCHMARK.json` declares.
    #[test]
    fn smoke_emits_exactly_the_declared_metrics_and_passes_every_oracle() {
        let spec = BenchmarkSpec::load();
        let declared = |metrics: &[spec::MetricSpec]| -> Vec<String> {
            metrics.iter().map(|m| m.name.clone()).collect()
        };
        let emitted = |report: &RunReport| -> Vec<String> {
            report
                .metrics
                .iter()
                .map(|(name, _)| name.to_string())
                .collect()
        };
        let names: Vec<&str> = spec
            .workloads
            .iter()
            .map(|(name, _)| name.as_str())
            .collect();
        assert_eq!(names, workloads::NAMES);
        for name in workloads::NAMES {
            let untraced = run_untraced(name, 5, 0.0, Size::Tiny).unwrap();
            assert_eq!(untraced.failures, Vec::<String>::new(), "{name}");
            assert_eq!(emitted(&untraced), declared(&spec.end_to_end), "{name}");
            assert!(
                untraced.metrics.iter().all(|(_, v)| *v > 0.0),
                "{name}: {:?}",
                untraced.metrics
            );
            let (traced, tracer) = run_traced(name, 5, Size::Tiny).unwrap();
            assert_eq!(traced.failures, Vec::<String>::new(), "{name}");
            assert_eq!(emitted(&traced), declared(&spec.per_layer), "{name}");
            assert_eq!(traced.digest, untraced.digest, "{name}");
            assert!(tracer.spans().iter().any(|s| s.name == "engine"));
            let line = json::parse(&traced.result_line(&spec)).unwrap();
            let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        }
        assert!(run_untraced("no_such_workload", 1, 0.0, Size::Tiny).is_err());
    }
}
