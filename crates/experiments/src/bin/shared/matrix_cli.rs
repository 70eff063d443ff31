//! The command line `scenario_matrix` and `workload_matrix` share: argument parsing and
//! scenario resolution as plain functions, and `matrix_main!`, which expands to a bin's
//! `main` (the two report types share method names but no trait).

use std::path::PathBuf;

use croupier_experiments::matrix::matrix_rounds;
use croupier_experiments::protocols::ProtocolKind;
use croupier_experiments::scenario::ScenarioScript;
use croupier_experiments::Scale;

pub(crate) struct Args {
    pub(crate) scale: Scale,
    pub(crate) seed: u64,
    pub(crate) out: PathBuf,
    pub(crate) protocols: Vec<ProtocolKind>,
    pub(crate) scenarios: Vec<ScenarioScript>,
}

fn list(value: &str) -> impl Iterator<Item = &str> {
    value.split(',').map(str::trim).filter(|s| !s.is_empty())
}

fn known<T>(what: &str, name: &str, found: Option<T>) -> Result<T, String> {
    found.ok_or_else(|| format!("unknown {what} '{name}'"))
}

pub(crate) fn parse_args(
    default_out: &str,
    default_scenarios: &[&str],
    mut argv: impl Iterator<Item = String>,
) -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Tiny,
        seed: 42,
        out: PathBuf::from(default_out),
        protocols: ProtocolKind::ALL.to_vec(),
        scenarios: Vec::new(),
    };
    let mut scenario_list = None;
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{arg} requires a value"));
        match arg.as_str() {
            "--scale" => {
                let value = value()?;
                args.scale = known("scale", &value, Scale::parse(&value))?;
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| String::from("--seed must be an integer"))?;
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--protocols" => {
                args.protocols = list(&value()?)
                    .map(|name| known("protocol", name, ProtocolKind::parse(name)))
                    .collect::<Result<_, _>>()?;
            }
            "--scenarios" => scenario_list = Some(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let names: Vec<&str> = match &scenario_list {
        Some(value) => list(value).collect(),
        None => default_scenarios.to_vec(),
    };
    if args.protocols.is_empty() {
        return Err(String::from("no protocols selected"));
    }
    if names.is_empty() {
        return Err(String::from("no scenarios selected"));
    }
    let rounds = matrix_rounds(args.scale);
    for name in names {
        let script = ScenarioScript::by_name(name, rounds);
        args.scenarios.push(known("scenario", name, script)?);
    }
    Ok(args)
}

/// Defines `main`: parse the arguments, call `run` over the selected scenarios, print each
/// report's table, write its `SCENARIO_<name>.json`, and print the message of every gate
/// the report's `failed_gates` names; any failed gate makes the exit status non-zero.
macro_rules! matrix_main {
    (
        usage: $usage:expr, out: $out:expr, scenarios: $scenarios:expr, run: $run:path,
        pass: $pass:expr, fail: $fail:expr $(,)?
    ) => {
        fn main() -> std::process::ExitCode {
            use std::process::ExitCode;
            let argv = std::env::args().skip(1);
            let args = match $crate::matrix_cli::parse_args($out, &$scenarios, argv) {
                Ok(args) => args,
                Err(err) => {
                    eprintln!("{err}\n{}", $usage);
                    return ExitCode::FAILURE;
                }
            };
            if let Err(err) = std::fs::create_dir_all(&args.out) {
                eprintln!("cannot create {}: {err}", args.out.display());
                return ExitCode::FAILURE;
            }
            let mut all_ok = true;
            for report in $run(&args.scenarios, &args.protocols, args.scale, args.seed) {
                print!("{}", report.render_table());
                let path = args.out.join(format!("SCENARIO_{}.json", report.scenario));
                if let Err(err) = std::fs::write(&path, report.to_json()) {
                    eprintln!("cannot write {}: {err}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("  wrote {}", path.display());
                for message in report.failed_gates() {
                    eprintln!("  GATE: {message} in '{}'", report.scenario);
                    all_ok = false;
                }
            }
            if all_ok {
                println!("{}", $pass);
                ExitCode::SUCCESS
            } else {
                eprintln!("{}", $fail);
                ExitCode::FAILURE
            }
        }
    };
}
pub(crate) use matrix_main;
