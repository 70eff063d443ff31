//! Repository automation (`cargo xtask <command>` via the `xtask` alias pattern: the
//! workspace member is a plain binary, so `cargo run -p xtask -- <command>` works without
//! any alias).
//!
//! Commands:
//!
//! * `scenario-matrix` — runs the NAT-dynamics scenario matrix (the CI `scenario-matrix`
//!   job): a thin wrapper around `cargo run --release -p croupier-experiments --bin
//!   scenario_matrix`, forwarding every argument.
//!
//!   ```text
//!   cargo run -p xtask -- scenario-matrix --scale quick --out target/scenario-json
//!   ```
//!
//! * `workload-matrix` — runs the streaming-dissemination workload tier (the CI
//!   `workload-matrix` job) the same way, wrapping the `workload_matrix` binary:
//!
//!   ```text
//!   cargo run -p xtask -- workload-matrix --scale quick --out target/workload-json
//!   ```
//!
//! * `public-api` — the API-stability gate: line-scans every workspace library crate for
//!   `pub` items and compares the sorted list against the committed snapshot under
//!   `ci/public-api/`. An undeclared addition, removal or signature change fails with a
//!   `+`/`-` diff; `--update` rewrites the snapshots (commit the result alongside the
//!   intentional API change).
//!
//!   ```text
//!   cargo run -p xtask -- public-api [--update]
//!   ```
//!
//! * `loc` — the one definition of "non-test lines" for size claims in PR texts: per
//!   crate, over the tracked `*.rs` files, total lines / lines before the first
//!   `#[cfg(test)]` (files under a `tests/` directory count none) / of those, the ones
//!   that are neither blank nor `//` comments; `e2e_bench/` and `vendor/` are listed but
//!   kept out of the workspace sum. Not a CI step.
//!
//!   ```text
//!   cargo run -p xtask -- loc
//!   ```
//!
//! * `pairs` — the measurement behind a speed claim (choosing-metrics §8): runs the
//!   already-built `e2e_bench/target/release/e2e` of two checkouts alternately, `--pairs`
//!   times per workload with a fresh seed per pair and the side that goes first
//!   alternating, and prints per end-to-end metric both medians with their quartiles,
//!   how many pairs the change won, any failed operations and the verdict the metric's
//!   `BENCHMARK.json` bound gives: `worse`, `unresolved` or `ok`, or `gain` where the
//!   change meets the rule for claiming one. It times nothing itself and is not a CI
//!   step.
//!
//!   ```text
//!   cargo run -p xtask -- pairs --parent /root/scratch/parent --change . \
//!       [--workload cyclon_nat_wide] [--pairs 10]
//!   ```
//!
//! * `outputs` — the evidence behind a byte-identity claim: builds the experiment
//!   binaries of the checkout it runs in and writes into `--out` the 11 `scenario_matrix`
//!   JSONs and the 3 `workload_matrix` JSONs (both `--scale quick`), the
//!   `figures --scale tiny --json all` output, each binary's stdout, stderr and exit
//!   status, and — when `e2e_bench/target/release/e2e` is built, as for `pairs` — the
//!   seed-42 `digests <untraced> / <traced>` of every declared workload
//!   (`--seconds 1 --trace 1`). The binaries run inside the output directory with
//!   relative paths, so nothing written names it, and `diff -r` of two such directories
//!   (one per checkout) is empty when no seeded output moved.
//!
//!   `--check` writes the same outputs into `target/outputs` and compares them with the
//!   committed `ci/outputs.manifest`: each file's path, byte length and 64-bit FNV-1a
//!   hash, each binary's exit status and, when `e2e` is built, the four digests. Any
//!   difference fails with a `-`/`+` line diff; `--update` rewrites the manifest (it
//!   needs `e2e` built). The check runs in CI's `scenario-matrix` job and `ci-local`'s
//!   step of the same name.
//!
//!   ```text
//!   cargo run -p xtask -- outputs --out ../outputs-change
//!   cargo run --release -p xtask -- outputs --check
//!   ```
//!
//! * `ci-local` — mirrors every CI job offline so contributors can reproduce CI failures
//!   before pushing: `fmt`, `clippy` (deny warnings), `doc` (deny warnings),
//!   `public-api` (snapshot diff), `test` (release build + workspace tests + the
//!   `quickstart` example), `scenario-matrix` (the clean-network scenarios, then
//!   `outputs --check`), `fault-matrix`
//!   (the fault-injection tier: `lossy_10`, `burst_loss`, `dup_reorder`) and
//!   `workload-matrix` (the streaming-dissemination tier: `reboot_storm`,
//!   `mobility_wave`, `lossy_10`), all three at `quick`, the scale CI gates them at,
//!   `e2e-bench` (the unit tests and the `--smoke` run of the separate `e2e_bench/`
//!   workspace, which compiles against the public API of every crate), `scale-smoke` (the
//!   ignored 100k-node `scale_smoke` test plus the `sharded_scale` example) and
//!   `huge-smoke` (the ignored million-node `scale_smoke` test), each the same commands
//!   the CI job runs. The two smokes print the path of the metrics-timing report (with
//!   the run's peak RSS) their CI jobs upload.
//!   All steps run even when an earlier one fails; the summary lists every verdict and
//!   the wall seconds the step took.
//!
//!   ```text
//!   cargo run -p xtask -- ci-local [--skip scenario-matrix,e2e-bench,huge-smoke]
//!   ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str = "usage: xtask scenario-matrix [scenario_matrix args...]\n\
                     xtask workload-matrix [workload_matrix args...]\n\
                     xtask public-api [--update]\n\
                     xtask loc\n\
                     xtask pairs --parent <dir> --change <dir> [--workload <name>]... \
                     [--pairs 10]\n\
                     xtask outputs (--out <dir> | --check | --update)\n\
                     xtask ci-local [--skip \
                     fmt,clippy,doc,public-api,test,scenario-matrix,fault-matrix,\
                     workload-matrix,e2e-bench,scale-smoke,huge-smoke]";

/// The cargo executable to shell out to (`$CARGO` when cargo invoked us, so nested calls
/// use the same toolchain).
fn cargo_bin() -> String {
    std::env::var("CARGO").unwrap_or_else(|_| String::from("cargo"))
}

/// Runs a matrix binary (`scenario_matrix` or `workload_matrix`) through cargo with
/// `extra` appended — the single invocation site behind the `xtask` forwarding commands
/// and the `ci-local` smoke steps.
fn run_matrix_bin(bin: &str, extra: &[String]) -> bool {
    let mut args = vec![
        "run",
        "--release",
        "-p",
        "croupier-experiments",
        "--bin",
        bin,
        "--",
    ];
    args.extend(extra.iter().map(String::as_str));
    run_command(&cargo_bin(), &args, &[])
}

fn run_scenario_matrix(extra: &[String]) -> bool {
    run_matrix_bin("scenario_matrix", extra)
}

fn run_workload_matrix(extra: &[String]) -> bool {
    run_matrix_bin("workload_matrix", extra)
}

/// Directory holding the committed public-API snapshots, one file per library crate.
const PUBLIC_API_DIR: &str = "ci/public-api";

/// The workspace's library crates: snapshot file stem and `src/` directory. The crate of
/// the experiment binaries still appears because its `pub` items are importable by other
/// members; only `xtask` (a pure binary, never a dependency) is excluded.
fn workspace_library_crates() -> Vec<(String, PathBuf)> {
    let mut crates = vec![(String::from("croupier-suite"), PathBuf::from("src"))];
    let mut dirs: Vec<PathBuf> = match std::fs::read_dir("crates") {
        Ok(entries) => entries.flatten().map(|e| e.path()).collect(),
        Err(_) => Vec::new(),
    };
    dirs.sort();
    for dir in dirs {
        let manifest = dir.join("Cargo.toml");
        let src = dir.join("src");
        if !manifest.exists() || !src.is_dir() {
            continue;
        }
        let name = std::fs::read_to_string(&manifest)
            .ok()
            .and_then(|text| {
                text.lines()
                    .find_map(|l| l.trim().strip_prefix("name = ").map(str::to_string))
            })
            .map(|raw| raw.trim_matches(|c| c == '"' || c == ' ').to_string())
            .unwrap_or_else(|| dir.file_name().unwrap().to_string_lossy().into_owned());
        crates.push((name, src));
    }
    crates
}

/// Every file under `dir`, recursively, in sorted order.
fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// Item keywords that may follow `pub` (possibly behind `const`/`unsafe`/`async`/
/// `extern "..."` qualifiers). Anything else after `pub ` is not an item declaration.
const PUB_ITEM_KEYWORDS: [&str; 11] = [
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "union", "use", "macro",
];

/// Extracts the normalised declaration if `line` declares a crate-public item.
///
/// This is a deliberate *line scan*, not a parse: it sees exactly what a reviewer sees
/// in the diff, costs nothing to run, and `rustfmt --check` (a separate CI step) pins
/// the formatting it relies on. Restricted visibility (`pub(crate)`, `pub(super)`) is
/// not part of the external API and is skipped.
fn public_item_of(line: &str) -> Option<String> {
    let trimmed = line.trim();
    let rest = trimmed.strip_prefix("pub ")?;
    let mut words = rest.split_whitespace();
    let mut first = words.next()?;
    // Skip qualifiers — but `const NAME` (no second keyword) is itself an item.
    while matches!(first, "const" | "unsafe" | "async") || first.starts_with("extern") {
        match words.next() {
            Some(next) if PUB_ITEM_KEYWORDS.contains(&next) => first = next,
            _ => break,
        }
    }
    if !PUB_ITEM_KEYWORDS.contains(&first) {
        return None;
    }
    // Normalise to the first line of the declaration, without the body opener.
    let mut decl = trimmed.trim_end();
    if let Some(stripped) = decl.strip_suffix('{') {
        decl = stripped.trim_end();
    }
    Some(decl.to_string())
}

/// The sorted public-item snapshot of one crate, one `file: declaration` line each.
fn public_api_snapshot(src: &Path) -> Vec<String> {
    let mut files = Vec::new();
    collect_files(src, &mut files);
    files.retain(|file| file.extension().is_some_and(|ext| ext == "rs"));
    let mut lines = Vec::new();
    for file in files {
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue;
        };
        let rel = file.display().to_string().replace('\\', "/");
        for line in text.lines() {
            if let Some(decl) = public_item_of(line) {
                lines.push(format!("{rel}: {decl}"));
            }
        }
    }
    lines.sort();
    lines
}

/// `xtask public-api`: regenerates every crate's snapshot and either rewrites the
/// committed files (`update`) or diffs against them, failing on any discrepancy.
fn public_api_gate(update: bool) -> ExitCode {
    let dir = PathBuf::from(PUBLIC_API_DIR);
    let mut clean = true;
    for (name, src) in workspace_library_crates() {
        let current = public_api_snapshot(&src);
        let snapshot_path = dir.join(format!("{name}.txt"));
        if update {
            if std::fs::create_dir_all(&dir).is_err() {
                eprintln!("cannot create {}", dir.display());
                return ExitCode::FAILURE;
            }
            let mut body = current.join("\n");
            body.push('\n');
            if std::fs::write(&snapshot_path, body).is_err() {
                eprintln!("cannot write {}", snapshot_path.display());
                return ExitCode::FAILURE;
            }
            println!(
                "public-api: wrote {} ({} items)",
                snapshot_path.display(),
                current.len()
            );
            continue;
        }
        let committed = match std::fs::read_to_string(&snapshot_path) {
            Ok(text) => text.lines().map(str::to_string).collect::<Vec<_>>(),
            Err(_) => {
                eprintln!(
                    "public-api: missing snapshot {} — run `cargo run -p xtask -- \
                     public-api --update` and commit it",
                    snapshot_path.display()
                );
                clean = false;
                continue;
            }
        };
        let removed: Vec<&String> = committed.iter().filter(|l| !current.contains(l)).collect();
        let added: Vec<&String> = current.iter().filter(|l| !committed.contains(l)).collect();
        if removed.is_empty() && added.is_empty() {
            println!("public-api: {name} ok ({} items)", current.len());
        } else {
            clean = false;
            eprintln!("public-api: {name} CHANGED");
            for line in removed {
                eprintln!("  - {line}");
            }
            for line in added {
                eprintln!("  + {line}");
            }
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "public-api: undeclared API change — if intentional, run `cargo run -p xtask \
             -- public-api --update` and commit the snapshots"
        );
        ExitCode::FAILURE
    }
}

/// Line counts of one source text: total, non-test (before the first `#[cfg(test)]`) and
/// the non-test lines that are neither blank nor `//` comments.
fn loc_of(text: &str) -> [usize; 3] {
    let non_test = text.lines().take_while(|l| l.trim() != "#[cfg(test)]");
    let (mut lines, mut code) = (0, 0);
    for line in non_test.map(str::trim) {
        lines += 1;
        code += usize::from(!line.is_empty() && !line.starts_with("//"));
    }
    [text.lines().count(), lines, code]
}

/// The group a tracked file is counted under: `crates/<name>`, else its top directory.
fn loc_group(path: &str) -> &str {
    let depth = if path.starts_with("crates/") { 2 } else { 1 };
    match path.match_indices('/').nth(depth - 1) {
        Some((end, _)) => &path[..end],
        None => path,
    }
}

/// `xtask loc`: prints the per-group counts of [`loc_of`] over `git ls-files '*.rs'`.
fn loc_report() -> ExitCode {
    let listing = match Command::new("git").args(["ls-files", "*.rs"]).output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).into_owned(),
        _ => {
            eprintln!("cannot run `git ls-files`");
            return ExitCode::FAILURE;
        }
    };
    let mut groups = std::collections::BTreeMap::<&str, [usize; 3]>::new();
    for path in listing.lines() {
        let Ok(text) = std::fs::read_to_string(path) else {
            continue; // deleted in the working tree, not yet in the index
        };
        let mut counts = loc_of(&text);
        if path.split('/').any(|dir| dir == "tests") {
            counts[1..].fill(0);
        }
        let sums = groups.entry(loc_group(path)).or_default();
        (0..3).for_each(|i| sums[i] += counts[i]);
    }
    let mut workspace = [0; 3];
    println!("{:<22}{:>8}{:>10}{:>10}", "", "total", "non-test", "code");
    for (group, sums) in &groups {
        println!("{group:<22}{:>8}{:>10}{:>10}", sums[0], sums[1], sums[2]);
        if !["e2e_bench", "vendor"].contains(group) {
            (0..3).for_each(|i| workspace[i] += sums[i]);
        }
    }
    let [total, non_test, code] = workspace;
    println!("{:<22}{total:>8}{non_test:>10}{code:>10}", "workspace");
    ExitCode::SUCCESS
}

/// The number that follows `key` in a line of the benchmark's JSON (NaN if none does).
fn number_after(line: &str, key: &str) -> f64 {
    let rest = line.split(key).nth(1).unwrap_or("");
    let number = rest.split([',', '}']).next().unwrap_or("");
    number.trim().parse().unwrap_or(f64::NAN)
}

/// The numbers after `"<key>":`, wherever `text` has them.
fn numbers_after(text: &str, key: &str) -> Vec<f64> {
    let quoted = format!("\"{key}\"");
    let entries = text.split(&quoted).skip(1);
    entries.map(|entry| number_after(entry, ":")).collect()
}

/// Median and quartiles (linear interpolation) of a non-empty series.
fn median_and_quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    [0.5, 0.25, 0.75].map(|p| {
        let at = p * (sorted.len() - 1) as f64;
        let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
    })
}

/// The benchmark pipeline's verdict on one metric over paired runs (`parent[i]` and
/// `change[i]` ran as pair `i`), `bound` being a fraction of the parent's median: `worse`
/// when the change's median is worse than the parent's by more than the bound; `gain`
/// when the change won at least nine tenths of the pairs (ties count for neither side)
/// and its median is better than the parent's by more than the parent's q3 − q1 — the
/// rule a claimed gain is held to (choosing-metrics §8); `unresolved` when the parent's
/// q3 − q1 exceeds the bound and not every change run beats every parent run; `ok`
/// otherwise.
fn verdict(parent: &[f64], change: &[f64], bound: f64, higher_is_better: bool) -> &'static str {
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let [m0, q1, q3] = median_and_quartiles(parent);
    let margin = bound * m0.abs();
    let beats_all = |c: &f64| parent.iter().all(|p| sign * (c - p) < 0.0);
    let gap = sign * (median_and_quartiles(change)[0] - m0);
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| sign * (*c - *p) < 0.0);
    if gap > margin {
        "worse"
    } else if 10 * wins.count() >= 9 * parent.len() && -gap > q3 - q1 {
        "gain"
    } else if q3 - q1 > margin && !change.iter().all(beats_all) {
        "unresolved"
    } else {
        "ok"
    }
}

/// The names between `"<key>": "` and the closing quote, wherever `text` has them.
fn quoted_after<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let opening = format!("\"{key}\": \"");
    let entries = text.split(&opening).skip(1);
    entries.filter_map(|e| e.split('"').next()).collect()
}

/// The workloads a `BENCHMARK.json` declares: every `name` before its `end_to_end` list.
fn declared_workloads(declared: &str) -> Vec<String> {
    let head = declared.split("\"end_to_end\"").next().unwrap_or("");
    quoted_after(head, "name")
        .into_iter()
        .map(String::from)
        .collect()
}

/// The `pairs` command; see the module documentation.
fn pairs(mut argv: impl Iterator<Item = String>) -> Result<(), String> {
    let (mut dirs, mut workloads, mut pairs) = ([None, None], Vec::new(), 10);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--parent" => dirs[0] = Some(value),
            "--change" => dirs[1] = Some(value),
            "--workload" => workloads.push(value),
            "--pairs" => pairs = value.parse().map_err(|_| format!("bad count '{value}'"))?,
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    let ([Some(parent), Some(change)], 1..) = (dirs, pairs) else {
        return Err(String::from("pairs needs --parent, --change and a pair"));
    };
    // What the change's `BENCHMARK.json` declares: the workloads, then per end-to-end
    // metric its name, whether higher is better and its bound.
    let declared = std::fs::read_to_string(Path::new(&change).join("BENCHMARK.json"))
        .map_err(|err| format!("cannot read the change's BENCHMARK.json: {err}"))?;
    let tail = declared
        .split_once("\"end_to_end\"")
        .map_or("", |(_, tail)| tail);
    let end_to_end = tail.split("\"per_layer\"").next().unwrap_or("");
    let metrics = quoted_after(end_to_end, "name");
    let better = quoted_after(end_to_end, "better");
    let bounds = numbers_after(end_to_end, "bound");
    if workloads.is_empty() {
        workloads = declared_workloads(&declared);
    }
    for workload in &workloads {
        // Per side (parent, change) and pair: failed operations, then the metrics.
        let mut runs = [Vec::new(), Vec::new()];
        for pair in 0..pairs {
            for turn in 0..2 {
                let side = (pair + turn) % 2; // who goes first alternates
                let dir = [&parent, &change][side];
                let seed = (100 + pair).to_string();
                let output = Command::new(Path::new(dir).join("e2e_bench/target/release/e2e"))
                    .current_dir(dir)
                    .args(["--workload", workload, "--seconds", "20", "--trace", "0"])
                    .args(["--seed", &seed])
                    .output()
                    .map_err(|err| format!("cannot run the e2e binary built in {dir}: {err}"))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let line = stdout.lines().last().filter(|_| output.status.success());
                let line = line.ok_or(format!("{dir}: {workload} seed {seed} failed"))?;
                let value = |name: &&str| number_after(line, &format!("\"{name}\": {{\"value\": "));
                let mut run = vec![number_after(line, "\"failed\": ")];
                run.extend(metrics.iter().map(value));
                runs[side].push(run);
            }
        }
        println!(
            "{workload}, {pairs} pairs: parent median [q1, q3] -> change median [q1, q3], \
             verdict"
        );
        for (m, name) in ["failed"].iter().chain(&metrics).enumerate() {
            let column = |side: usize| runs[side].iter().map(|run| run[m]).collect::<Vec<_>>();
            let (old, new) = (column(0), column(1));
            let higher = m > 0 && better.get(m - 1) == Some(&"higher");
            // Failed operations have no bound: any more of them is worse.
            let bound = m.checked_sub(1).and_then(|i| bounds.get(i)).copied();
            let verdict = verdict(&old, &new, bound.unwrap_or(0.0), higher);
            let sign = if higher { -1.0 } else { 1.0 };
            let won = |(o, n): &(&f64, &f64)| sign * (*n - *o) < 0.0;
            let wins = old.iter().zip(&new).filter(won).count();
            let [m0, a0, b0] = median_and_quartiles(&old);
            let [m1, a1, b1] = median_and_quartiles(&new);
            let ratio = m1 / m0;
            println!("  {name}: {m0:.3} [{a0:.3}, {b0:.3}] -> {m1:.3} [{a1:.3}, {b1:.3}], {ratio:.3}x, won {wins}/{pairs}, {verdict}");
        }
    }
    Ok(())
}

/// Where `outputs --check` and `outputs --update` run the binaries.
const OUTPUTS_DIR: &str = "target/outputs";

/// The committed byte-identity manifest `outputs --check` compares against.
const OUTPUTS_MANIFEST: &str = "ci/outputs.manifest";

/// The `outputs` command; see the module documentation.
fn outputs(argv: impl Iterator<Item = String>) -> Result<(), String> {
    let args: Vec<String> = argv.collect();
    let (out, gate) = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--out", out] => (PathBuf::from(out), None),
        ["--check"] => (PathBuf::from(OUTPUTS_DIR), Some(false)),
        ["--update"] => (PathBuf::from(OUTPUTS_DIR), Some(true)),
        _ => {
            return Err(String::from(
                "outputs needs --out <dir>, --check or --update",
            ))
        }
    };
    if gate.is_some() && out.exists() {
        std::fs::remove_dir_all(&out)
            .map_err(|err| format!("cannot clear {}: {err}", out.display()))?;
    }
    write_outputs(&out)?;
    let Some(update) = gate else {
        return Ok(());
    };
    let fresh = manifest_of(&out)?;
    if update {
        if !fresh.contains(DIGESTS_SECTION) {
            return Err(String::from(
                "outputs --update records the digests too: build e2e_bench first",
            ));
        }
        std::fs::write(OUTPUTS_MANIFEST, MANIFEST_HEADER.to_string() + &fresh)
            .map_err(|err| format!("cannot write {OUTPUTS_MANIFEST}: {err}"))?;
        println!("outputs: wrote {OUTPUTS_MANIFEST}");
        return Ok(());
    }
    let committed = std::fs::read_to_string(OUTPUTS_MANIFEST)
        .map_err(|err| format!("cannot read {OUTPUTS_MANIFEST}: {err}"))?;
    let mismatches = manifest_mismatches(&committed, &fresh);
    if mismatches.is_empty() {
        println!("outputs: every output matches {OUTPUTS_MANIFEST}");
        return Ok(());
    }
    for line in &mismatches {
        println!("{line}");
    }
    Err(format!(
        "outputs: {} manifest lines differ from {OUTPUTS_MANIFEST} (- committed, + this run)",
        mismatches.len()
    ))
}

/// Builds the experiment binaries and writes every output the module documentation lists
/// into `out`.
fn write_outputs(out: &Path) -> Result<(), String> {
    let write = |name: &str, bytes: &[u8]| {
        std::fs::write(out.join(name), bytes).map_err(|err| format!("cannot write {name}: {err}"))
    };
    std::fs::create_dir_all(out)
        .map_err(|err| format!("cannot create {}: {err}", out.display()))?;
    let build = ["build", "--release", "-p", "croupier-experiments", "--bins"];
    if !run_command(&cargo_bin(), &build, &[]) {
        return Err(String::from("cannot build the experiment binaries"));
    }
    let bins = std::env::current_dir()
        .map_err(|err| format!("no working directory: {err}"))?
        .join("target/release");
    let runs = [
        ("scenario_matrix", "--scale quick --out scenario-json"),
        ("workload_matrix", "--scale quick --out workload-json"),
        ("figures", "--scale tiny --json all"),
    ];
    let mut statuses = String::new();
    for (bin, args) in runs {
        let mut command = Command::new(bins.join(bin));
        let run = command.args(args.split(' ')).current_dir(out).output();
        let run = run.map_err(|err| format!("cannot run {bin}: {err}"))?;
        write(&format!("{bin}.stdout"), &run.stdout)?;
        write(&format!("{bin}.stderr"), &run.stderr)?;
        statuses += &format!("{bin}: {}\n", run.status);
    }
    write(STATUS_FILE, statuses.as_bytes())?;
    let e2e = Path::new("e2e_bench/target/release/e2e");
    if !e2e.exists() {
        println!("outputs: e2e_bench is not built, so no digests are written");
        return Ok(());
    }
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|err| format!("cannot read BENCHMARK.json: {err}"))?;
    let mut digests = String::new();
    for workload in declared_workloads(&declared) {
        let mut command = Command::new(e2e);
        command.args(["--workload", &workload]);
        let run = command
            .args("--seed 42 --seconds 1 --trace 1".split(' '))
            .output();
        let run = run.map_err(|err| format!("cannot run {}: {err}", e2e.display()))?;
        let stdout = String::from_utf8_lossy(&run.stdout);
        let line = stdout.lines().find_map(|line| line.split_once("digests "));
        let line = line.ok_or(format!("{workload}: no digests line"))?;
        digests += &format!("{workload}: digests {}\n", line.1);
    }
    write(DIGESTS_FILE, digests.as_bytes())
}

/// The exit status of every binary `outputs` runs, one line each.
const STATUS_FILE: &str = "status.txt";

/// The seed-42 `digests <untraced> / <traced>` of every declared workload.
const DIGESTS_FILE: &str = "digests.txt";

/// The manifest section holding [`DIGESTS_FILE`]; absent when `e2e` is not built.
const DIGESTS_SECTION: &str = "[digests]\n";

/// The comment block `outputs --update` writes above the manifest; `#` lines are not
/// compared.
const MANIFEST_HEADER: &str = "\
# Byte identity of every seeded output of `cargo run -p xtask -- outputs`.
# `outputs --check` reruns the binaries and fails on any difference from this file;
# `outputs --update` rewrites it. [files]: path, byte length, 64-bit FNV-1a hash.
# [status]: each binary's exit status. [digests]: the seed-42 e2e digests, checked
# only when e2e_bench/target/release/e2e is built.
";

/// 64-bit FNV-1a hash of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The manifest of an `outputs` directory, without its header: one `[files]` line per
/// output file other than the status and digest files, then those two files' lines under
/// `[status]` and (if written) `[digests]`.
fn manifest_of(out: &Path) -> Result<String, String> {
    let read = |path: &Path| {
        std::fs::read(path).map_err(|err| format!("cannot read {}: {err}", path.display()))
    };
    let mut files = Vec::new();
    collect_files(out, &mut files);
    let mut manifest = String::from("[files]\n");
    for file in &files {
        let rel = file.strip_prefix(out).unwrap_or(file);
        let rel = rel.to_string_lossy().replace('\\', "/");
        if rel != STATUS_FILE && rel != DIGESTS_FILE {
            let bytes = read(file)?;
            manifest += &format!("{rel} {} {:016x}\n", bytes.len(), fnv1a(&bytes));
        }
    }
    manifest += "[status]\n";
    manifest += &String::from_utf8_lossy(&read(&out.join(STATUS_FILE))?);
    let digests = out.join(DIGESTS_FILE);
    if digests.exists() {
        manifest += DIGESTS_SECTION;
        manifest += &String::from_utf8_lossy(&read(&digests)?);
    }
    Ok(manifest)
}

/// The lines on which `committed` and `fresh` manifests differ, as `- committed` and
/// `+ fresh`, ignoring `#` comments. A `fresh` manifest without digests is compared
/// without the committed digests too.
fn manifest_mismatches(committed: &str, fresh: &str) -> Vec<String> {
    let mut committed: Vec<&str> = committed.lines().filter(|l| !l.starts_with('#')).collect();
    if !fresh.contains(DIGESTS_SECTION) {
        if let Some(at) = committed
            .iter()
            .position(|l| *l == DIGESTS_SECTION.trim_end())
        {
            println!("outputs: e2e_bench is not built, so the digests are not checked");
            committed.truncate(at);
        }
    }
    let fresh: Vec<&str> = fresh.lines().collect();
    let missing = committed.iter().filter(|l| !fresh.contains(l));
    let added = fresh.iter().filter(|l| !committed.contains(l));
    let mut out: Vec<String> = missing.map(|l| format!("- {l}")).collect();
    out.extend(added.map(|l| format!("+ {l}")));
    out
}

/// Runs one external command, streaming its output; returns `true` on exit code 0.
fn run_command(program: &str, args: &[&str], envs: &[(&str, &str)]) -> bool {
    println!("$ {program} {}", args.join(" "));
    let mut cmd = Command::new(program);
    cmd.args(args);
    for (key, value) in envs {
        cmd.env(key, value);
    }
    match cmd.status() {
        Ok(status) => status.success(),
        Err(err) => {
            eprintln!("cannot run {program}: {err}");
            false
        }
    }
}

/// The CI jobs `ci-local` mirrors, in run order. `huge-smoke` is the million-node tier
/// (the long pole by far — skip it with `--skip huge-smoke` when iterating).
const CI_STEPS: [&str; 11] = [
    "fmt",
    "clippy",
    "doc",
    "public-api",
    "test",
    "scenario-matrix",
    "fault-matrix",
    "workload-matrix",
    "e2e-bench",
    "scale-smoke",
    "huge-smoke",
];

/// The clean-network scenarios the `scenario-matrix` step runs; the fault tier runs
/// separately under `fault-matrix` so the two gates fail independently (mirroring the
/// split CI jobs).
const CLEAN_SCENARIOS: &str = "reboot_storm,mobility_wave,nat_flux,flash_crowd,\
                               regional_outage,croupier_stress,symmetric_shift,cgn_migration";

/// The fault-tier scenarios the `fault-matrix` step runs.
const FAULT_SCENARIOS: &str = "lossy_10,burst_loss,dup_reorder";

/// The scenarios the `workload-matrix` step streams a dissemination workload under.
const WORKLOAD_SCENARIOS: &str = "reboot_storm,mobility_wave,lossy_10";

/// The arguments of a `ci-local` matrix step: the scale CI gates at (the tiny tier's 25
/// nodes are too few for the fault tier's Gini-degradation gate), the step's scenarios
/// and its report directory.
fn matrix_step_args(scenarios: &str, out: &str) -> [String; 6] {
    ["--scale", "quick", "--scenarios", scenarios, "--out", out].map(String::from)
}

/// Parses `ci-local`'s arguments: the set of steps to skip.
fn parse_ci_local_args(mut argv: impl Iterator<Item = String>) -> Result<Vec<String>, String> {
    let mut skip = Vec::new();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--skip" => {
                for step in argv
                    .next()
                    .ok_or("--skip requires a value")?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                {
                    if !CI_STEPS.contains(&step) {
                        return Err(format!(
                            "unknown step '{step}' (steps: {})",
                            CI_STEPS.join(", ")
                        ));
                    }
                    skip.push(step.to_string());
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(skip)
}

/// Runs the ignored `scale_smoke` test whose name matches `filter`, then points at the
/// metrics-timing report it writes under `target/metrics-timing/` (what the CI job
/// uploads, whatever the verdict; a missing report warns, as the upload does).
fn run_scale_smoke(cargo: &str, filter: &str, report: &str) -> bool {
    let report = Path::new("target/metrics-timing").join(report);
    // A report left by an earlier run must not pass for this one's.
    let _ = std::fs::remove_file(&report);
    let passed = run_command(
        cargo,
        &[
            "test",
            "--release",
            "--test",
            "scale_smoke",
            "--",
            "--ignored",
            "--nocapture",
            filter,
        ],
        &[],
    );
    if report.is_file() {
        println!("metrics-timing report: {}", report.display());
    } else {
        eprintln!("warning: no metrics-timing report at {}", report.display());
    }
    passed
}

/// Runs one `ci-local` step; returns `true` on success.
fn ci_local_step(step: &str) -> bool {
    let cargo = cargo_bin();
    match step {
        "fmt" => run_command(&cargo, &["fmt", "--all", "--check"], &[]),
        "clippy" => run_command(
            &cargo,
            &[
                "clippy",
                "--workspace",
                "--all-targets",
                "--",
                "-D",
                "warnings",
            ],
            &[],
        ),
        "doc" => run_command(
            &cargo,
            &["doc", "--workspace", "--no-deps"],
            &[("RUSTDOCFLAGS", "-D warnings")],
        ),
        "test" => {
            run_command(
                &cargo,
                &["build", "--release", "--locked", "--workspace"],
                &[],
            ) && run_command(&cargo, &["test", "-q", "--locked", "--workspace"], &[])
                && run_command(
                    &cargo,
                    &["run", "--release", "--locked", "--example", "quickstart"],
                    &[],
                )
        }
        "public-api" => public_api_gate(false) == ExitCode::SUCCESS,
        "scenario-matrix" => {
            run_scenario_matrix(&matrix_step_args(CLEAN_SCENARIOS, "target/scenario-json"))
                && outputs(["--check".to_string()].into_iter())
                    .map_err(|err| eprintln!("{err}"))
                    .is_ok()
        }
        "fault-matrix" => {
            run_scenario_matrix(&matrix_step_args(FAULT_SCENARIOS, "target/fault-json"))
        }
        "workload-matrix" => run_workload_matrix(&matrix_step_args(
            WORKLOAD_SCENARIOS,
            "target/workload-json",
        )),
        "e2e-bench" => {
            // Nothing else builds the benchmark package: it is a workspace of its own.
            let manifest = "e2e_bench/Cargo.toml";
            run_command(
                &cargo,
                &["test", "--offline", "--locked", "--manifest-path", manifest],
                &[],
            ) && run_command(
                &cargo,
                &[
                    "run",
                    "--release",
                    "--offline",
                    "--locked",
                    "--manifest-path",
                    manifest,
                    "--bin",
                    "e2e",
                    "--",
                    "--smoke",
                ],
                &[],
            )
        }
        "scale-smoke" => {
            run_scale_smoke(&cargo, "croupier_100k", "scale_smoke_metrics_timing.json")
                && run_command(
                    &cargo,
                    &[
                        "run",
                        "--release",
                        "--example",
                        "sharded_scale",
                        "--",
                        "5000",
                        "4",
                    ],
                    &[],
                )
        }
        "huge-smoke" => run_scale_smoke(
            &cargo,
            "croupier_one_million",
            "huge_smoke_metrics_timing.json",
        ),
        other => {
            eprintln!("unknown ci-local step '{other}'");
            false
        }
    }
}

fn ci_local(skip: &[String]) -> ExitCode {
    // Per step: its verdict and the wall seconds it took.
    let mut results: Vec<(&str, &str, f64)> = Vec::new();
    for step in CI_STEPS {
        if skip.iter().any(|s| s == step) {
            results.push((step, "skipped", 0.0));
            continue;
        }
        println!("==> ci-local: {step}");
        let started = Instant::now();
        let verdict = if ci_local_step(step) { "ok" } else { "FAILED" };
        results.push((step, verdict, started.elapsed().as_secs_f64()));
    }
    println!("\nci-local summary:");
    for (step, verdict, seconds) in &results {
        println!("  {step:<16} {verdict:<8} {seconds:>7.1} s");
    }
    if results.iter().any(|(_, v, _)| *v == "FAILED") {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        Some("public-api") => {
            let mut update = false;
            for arg in argv {
                match arg.as_str() {
                    "--update" => update = true,
                    other => {
                        eprintln!("unknown argument '{other}'\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            public_api_gate(update)
        }
        Some("loc") => loc_report(),
        Some(command @ ("pairs" | "outputs")) => {
            let done = if command == "pairs" {
                pairs(argv)
            } else {
                outputs(argv)
            };
            match done {
                Ok(()) => ExitCode::SUCCESS,
                Err(err) => {
                    eprintln!("{err}\n{USAGE}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("scenario-matrix") => {
            // Thin forwarding wrapper so CI and contributors share one entry point.
            let extra: Vec<String> = argv.collect();
            if run_scenario_matrix(&extra) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("workload-matrix") => {
            let extra: Vec<String> = argv.collect();
            if run_workload_matrix(&extra) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("ci-local") => match parse_ci_local_args(argv) {
            Ok(skip) => ci_local(&skip),
            Err(err) => {
                eprintln!("{err}\n{USAGE}");
                ExitCode::FAILURE
            }
        },
        Some(other) => {
            eprintln!("unknown command '{other}'\n{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_reads_result_lines_and_the_benchmark_declaration() {
        let line = r#"{"correct": true, "attempted": 14, "failed": 2, "metrics": {"wall_s": {"value": 3.5, "unit": "s"}, "cpu_s": {"value": 5, "unit": "s"}}}"#;
        assert_eq!(number_after(line, "\"failed\": "), 2.0);
        assert_eq!(number_after(line, "\"wall_s\": {\"value\": "), 3.5);
        assert!(number_after(line, "\"absent\": ").is_nan());
        let declared = r#""end_to_end": [{"name": "wall_s", "better": "lower"}, {"name": "x", "better": "higher"}]"#;
        assert_eq!(quoted_after(declared, "name"), ["wall_s", "x"]);
        assert_eq!(quoted_after(declared, "better"), ["lower", "higher"]);
        assert_eq!(
            median_and_quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]),
            [3.0, 2.0, 4.0]
        );
        assert_eq!(median_and_quartiles(&[1.0, 2.0]), [1.5, 1.25, 1.75]);
        let declared = r#""end_to_end": [{"name": "wall_s", "bound": 0.25}, {"bound": 0.05
    }]"#;
        assert_eq!(numbers_after(declared, "bound"), [0.25, 0.05]);
    }

    #[test]
    fn outputs_manifest_hashes_and_compares_line_by_line() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let committed = "# header\n[files]\na.json 3 0001\n[status]\nfigures: exit status: 0\n\
                         [digests]\nw: digests 1 / 1\n";
        let fresh = "[files]\na.json 3 0001\n[status]\nfigures: exit status: 0\n\
                     [digests]\nw: digests 1 / 1\n";
        assert!(manifest_mismatches(committed, fresh).is_empty());
        let moved = fresh.replace("0001", "0002");
        assert_eq!(
            manifest_mismatches(committed, &moved),
            ["- a.json 3 0001", "+ a.json 3 0002"]
        );
        // Without e2e the digests are skipped, not reported missing.
        let undigested = &fresh[..fresh.find(DIGESTS_SECTION).unwrap()];
        assert!(manifest_mismatches(committed, undigested).is_empty());
        let failed = fresh.replace("exit status: 0", "exit status: 1");
        assert_eq!(manifest_mismatches(committed, &failed).len(), 2);
    }

    #[test]
    fn pairs_verdicts_follow_the_pipeline_rules() {
        let steady = [10.0, 10.0, 10.0, 10.0, 10.0];
        // Within the bound, on a tight parent: ok.
        assert_eq!(verdict(&steady, &[12.0; 5], 0.25, false), "ok");
        // The median moved by more than the bound: worse, in either direction of better.
        assert_eq!(verdict(&steady, &[13.0; 5], 0.25, false), "worse");
        assert_eq!(verdict(&steady, &[7.0; 5], 0.25, true), "worse");
        // The parent's q3 − q1 (9 → 12) exceeds the bound (2.5): unresolved, unless every
        // change run beats every parent run (by more than q3 − q1, that is a gain).
        let spread = [9.0, 8.0, 10.0, 12.0, 14.0];
        assert_eq!(verdict(&spread, &[10.0; 5], 0.25, false), "unresolved");
        assert_eq!(verdict(&spread, &[7.5; 5], 0.25, false), "ok");
        assert_eq!(verdict(&spread, &[5.0; 5], 0.25, false), "gain");
        // Failed operations are judged with a zero bound.
        assert_eq!(verdict(&[0.0; 3], &[0.0; 3], 0.0, false), "ok");
        assert_eq!(verdict(&[0.0; 3], &[1.0; 3], 0.0, false), "worse");
    }

    #[test]
    fn pairs_says_gain_when_the_claim_rule_is_met() {
        let parent = [10.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0];
        // Better in every pair, by far more than the parent's q3 − q1: a gain, whichever
        // direction is better.
        assert_eq!(
            verdict(&parent, &parent.map(|p| p - 1.0), 0.05, false),
            "gain"
        );
        assert_eq!(
            verdict(&parent, &parent.map(|p| p + 1.0), 0.25, true),
            "gain"
        );
        // Nine wins of ten are enough, eight are not.
        let mut change = parent.map(|p| p - 1.0);
        change[0] = 11.0;
        assert_eq!(verdict(&parent, &change, 0.05, false), "gain");
        change[1] = 11.0;
        assert_eq!(verdict(&parent, &change, 0.05, false), "ok");
        // Winning every pair by less than the parent's q3 − q1 is no gain.
        assert_eq!(
            verdict(&parent, &parent.map(|p| p - 0.1), 0.05, false),
            "ok"
        );
        // A tie counts for neither side.
        assert_eq!(verdict(&parent, &parent, 0.05, false), "ok");
    }

    #[test]
    fn ci_local_args_accept_known_steps_only() {
        assert_eq!(
            parse_ci_local_args(
                ["--skip", "e2e-bench,scenario-matrix"]
                    .map(String::from)
                    .into_iter()
            )
            .unwrap(),
            vec![String::from("e2e-bench"), String::from("scenario-matrix")]
        );
        assert!(parse_ci_local_args(std::iter::empty()).unwrap().is_empty());
        assert!(
            parse_ci_local_args(["--skip", "bogus"].map(String::from).into_iter()).is_err(),
            "unknown steps are rejected"
        );
        assert!(parse_ci_local_args(["--wat"].map(String::from).into_iter()).is_err());
    }

    /// `ci.yml` folds `fmt`/`clippy`/`doc`/`public-api` into its `lint` job and runs `test`
    /// as `build-test`; every other `ci-local` step is a CI job of the same name, and a
    /// matrix job passes the `--scenarios` list its step does.
    #[test]
    fn ci_local_steps_mirror_the_ci_jobs() {
        let yml = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.github/workflows/ci.yml");
        let text = std::fs::read_to_string(&yml).expect("ci.yml is readable");
        let mut jobs = Vec::new();
        let mut scenarios = Vec::new();
        for line in text.lines().skip_while(|line| *line != "jobs:").skip(1) {
            let id = line.strip_prefix("  ").and_then(|id| id.strip_suffix(':'));
            if let Some(id) = id.filter(|id| !id.starts_with([' ', '#'])) {
                jobs.push(id);
            } else if let Some((_, list)) = line.split_once("--scenarios ") {
                scenarios.push((jobs[jobs.len() - 1], list.trim_end_matches([' ', '\\'])));
            }
        }
        assert_eq!(
            scenarios,
            [
                ("scenario-matrix", CLEAN_SCENARIOS),
                ("fault-matrix", FAULT_SCENARIOS),
                ("workload-matrix", WORKLOAD_SCENARIOS),
            ],
            "ci.yml and ci-local run different scenario lists"
        );
        jobs.sort_unstable();
        let mut expected = vec!["lint", "build-test"];
        expected.extend(
            CI_STEPS
                .iter()
                .filter(|step| !["fmt", "clippy", "doc", "public-api", "test"].contains(step)),
        );
        expected.sort_unstable();
        assert_eq!(jobs, expected, "ci.yml jobs and ci-local steps drifted");
    }

    #[test]
    fn public_item_scan_recognises_declarations() {
        assert_eq!(
            public_item_of("    pub fn observed_ip(&self) -> Ip {"),
            Some(String::from("pub fn observed_ip(&self) -> Ip"))
        );
        assert_eq!(
            public_item_of("pub const fn as_u32(self) -> u32 {"),
            Some(String::from("pub const fn as_u32(self) -> u32"))
        );
        assert_eq!(
            public_item_of("pub const UDP_IP_HEADER_BYTES: usize = 28;"),
            Some(String::from("pub const UDP_IP_HEADER_BYTES: usize = 28;"))
        );
        assert_eq!(
            public_item_of("pub use gateway::{Binding, NatGateway, NatGatewayConfig};"),
            Some(String::from(
                "pub use gateway::{Binding, NatGateway, NatGatewayConfig};"
            ))
        );
        assert_eq!(
            public_item_of("pub struct NatGatewayConfig {"),
            Some(String::from("pub struct NatGatewayConfig"))
        );
    }

    #[test]
    fn loc_counts_stop_at_the_test_module_and_group_by_crate() {
        let text = "//! doc\n\nfn a() {}\n    // note\n#[cfg(test)]\nmod tests {}\n";
        assert_eq!(loc_of(text), [6, 4, 1]);
        assert_eq!(loc_group("crates/nat/src/gateway.rs"), "crates/nat");
        assert_eq!(loc_group("xtask/src/main.rs"), "xtask");
        assert_eq!(loc_group("build.rs"), "build.rs");
    }

    #[test]
    fn public_item_scan_skips_non_api_lines() {
        // Restricted visibility is not external API.
        assert_eq!(public_item_of("pub(crate) fn internal() {"), None);
        assert_eq!(public_item_of("    pub(super) mod detail;"), None);
        // Non-item uses of the word and non-pub lines.
        assert_eq!(public_item_of("fn private_helper() {"), None);
        assert_eq!(public_item_of("// pub fn in a comment"), None);
        assert_eq!(public_item_of("pub ip: Ip,"), None);
    }
}
