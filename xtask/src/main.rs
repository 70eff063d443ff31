//! Repository automation (`cargo xtask <command>` via the `xtask` alias pattern: the
//! workspace member is a plain binary, so `cargo run -p xtask -- <command>` works without
//! any alias).
//!
//! Commands:
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
//!   crate, over the tracked `*.rs` files, total lines / lines before the `#[cfg(test)]`
//!   that gates an inline `mod … {` (files under a `tests/` directory, and files declared
//!   by `#[cfg(test)] mod name;`, count none) / of those, the ones that are neither blank
//!   nor `//` comments; `e2e_bench/` and `vendor/` are listed but kept out of the
//!   workspace sum. Not a CI step.
//!
//!   ```text
//!   cargo run -p xtask -- loc
//!   ```
//!
//! * `pairs` — the measurement behind a speed claim (choosing-metrics §8): runs the
//!   already-built `e2e_bench/target/release/e2e` of two checkouts alternately, `--pairs`
//!   times per workload with a fresh seed per pair and the side that goes first
//!   alternating, and prints per end-to-end metric both medians with their quartiles,
//!   their ratio where the parent's is not 0, how many pairs the change won, any failed operations and the verdict the metric's
//!   `BENCHMARK.json` bound gives: `worse`, `unresolved` or `ok`, or `gain` where the
//!   change meets the rule for claiming one. A last line gives the core count and the
//!   share of CPU time stolen from the host between the first pair and the last (from
//!   `/proc/stat`; `n/a` where there is none), so a report shows a contended host. It
//!   times nothing itself and is not a CI step.
//!
//!   `--record <label>` also appends one JSON line per (workload, metric) to
//!   `BENCH_pairs.jsonl` in the current directory: the label, both checkouts' `git
//!   describe`, both medians with their quartiles, the pairs won, the verdict and the
//!   host line. `--history <workload> <metric>` prints that file's series for one metric,
//!   oldest first; it runs nothing.
//!
//!   ```text
//!   cargo run -p xtask -- pairs --parent ../parent --change . \
//!       [--workload cyclon_nat_wide] [--pairs 10] [--record <label>]
//!   cargo run -p xtask -- pairs --history cyclon_nat_wide peak_rss_mb
//!   ```
//!
//! * `outputs` — the one gate over every seeded output: builds the experiment binaries
//!   and `e2e_bench`'s `e2e` in the checkout it runs in, and writes into `--out` the 11
//!   `scenario_matrix` JSONs and the 3 `workload_matrix` JSONs (both `--scale quick`), the
//!   `figures --scale tiny --json all` output, each of those binaries' stdout and stderr,
//!   and the seed-42 `digests <untraced> / <traced>` of every declared workload
//!   (`--seconds 1 --trace 1`; `e2e`'s own result files go to a scratch build
//!   directory that is removed after, so results saved under `target/bench` survive).
//!   The binaries run inside the output directory with relative paths, so nothing
//!   written names it, and `diff -r` of two such directories (one per checkout) is
//!   empty when no seeded output moved. Once everything is written, the command fails
//!   naming each binary that exited non-zero — a matrix whose gate failed, say. Only
//!   argument errors print the usage text.
//!
//!   `--check` writes the same outputs into `target/outputs` and compares them with the
//!   committed `ci/outputs.manifest`: each file's path, byte length and 64-bit FNV-1a
//!   hash, and the four digests. Any difference fails with a `-`/`+` line diff;
//!   `--update` rewrites the manifest. The check is CI's `outputs` job and `ci-local`'s
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
//!   `quickstart`, `nat_identification` and `streaming_overlay` examples), `outputs`
//!   (the unit tests and the `--smoke` run of the separate `e2e_bench/` workspace, which
//!   compiles against the public API of every crate, then `outputs --check`),
//!   `scale-smoke` (the ignored 100k-node `scale_smoke` test plus the `sharded_scale`
//!   example) and `huge-smoke` (the ignored million-node `scale_smoke` test), each the
//!   same commands the CI job runs. The two smokes print
//!   the path of the metrics-timing report (with the run's peak RSS) their CI jobs
//!   upload. All steps run even when an earlier one fails; the summary lists every
//!   verdict and the wall seconds the step took.
//!
//!   ```text
//!   cargo run -p xtask -- ci-local [--skip outputs,huge-smoke]
//!   ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Output};
use std::time::Instant;

const USAGE: &str = "usage: xtask public-api [--update]\n\
                     xtask loc\n\
                     xtask pairs --parent <dir> --change <dir> [--workload <name>]... \
                     [--pairs 10] [--record <label>]\n\
                     xtask pairs --history <workload> <metric>\n\
                     xtask outputs (--out <dir> | --check | --update)\n\
                     xtask ci-local [--skip \
                     fmt,clippy,doc,public-api,test,outputs,scale-smoke,huge-smoke]";

/// The cargo executable to shell out to (`$CARGO` when cargo invoked us, so nested calls
/// use the same toolchain).
fn cargo_bin() -> String {
    std::env::var("CARGO").unwrap_or_else(|_| String::from("cargo"))
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

/// The module a `#[cfg(test)]` at `lines[at]` gates, as `(name, inline)`: `None` unless
/// the next line that is not an attribute declares a module, inline (`mod name {`) or as
/// a file of its own (`mod name;`).
fn test_module(lines: &[&str], at: usize) -> Option<(String, bool)> {
    if lines[at].trim() != "#[cfg(test)]" {
        return None;
    }
    let item = lines[at + 1..]
        .iter()
        .map(|l| l.trim())
        .find(|l| !l.starts_with("#["))?;
    let item = item.strip_prefix("pub(crate) ").unwrap_or(item);
    let rest = item.strip_prefix("mod ")?;
    let (name, tail) = rest.split_at(rest.find(['{', ';'])?);
    Some((name.trim().to_string(), tail.starts_with('{')))
}

/// Line counts of one source text: total, non-test (before the `#[cfg(test)]` that gates
/// an inline module) and the non-test lines that are neither blank nor `//` comments.
fn loc_of(text: &str) -> [usize; 3] {
    let lines: Vec<&str> = text.lines().collect();
    let end =
        (0..lines.len()).find(|&at| test_module(&lines, at).is_some_and(|(_, inline)| inline));
    let (mut non_test, mut code) = (0, 0);
    for line in lines[..end.unwrap_or(lines.len())].iter().map(|l| l.trim()) {
        non_test += 1;
        code += usize::from(!line.is_empty() && !line.starts_with("//"));
    }
    [lines.len(), non_test, code]
}

/// The files of the modules the source at `path` declares by `#[cfg(test)] mod name;`:
/// `name.rs` beside a `lib.rs`, `main.rs` or `mod.rs`, else in the directory named after
/// the declaring file.
fn test_module_files(path: &str, text: &str) -> Vec<String> {
    let (dir, file) = path.rsplit_once('/').unwrap_or(("", path));
    let dir = match file.strip_suffix(".rs") {
        Some("lib" | "main" | "mod") | None => dir.to_string(),
        Some(stem) => format!("{dir}/{stem}"),
    };
    let lines: Vec<&str> = text.lines().collect();
    (0..lines.len())
        .filter_map(|at| test_module(&lines, at))
        .filter(|(_, inline)| !inline)
        .map(|(name, _)| format!("{dir}/{name}.rs"))
        .collect()
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
    // Deleted in the working tree, not yet in the index: skipped.
    let sources: Vec<(&str, String)> = listing
        .lines()
        .filter_map(|path| Some((path, std::fs::read_to_string(path).ok()?)))
        .collect();
    let test_files: Vec<String> = sources
        .iter()
        .flat_map(|(path, text)| test_module_files(path, text))
        .collect();
    let mut groups = std::collections::BTreeMap::<&str, [usize; 3]>::new();
    for (path, text) in &sources {
        let mut counts = loc_of(text);
        if path.split('/').any(|dir| dir == "tests") || test_files.iter().any(|f| f == path) {
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

/// The `, <change / parent>x` part of a `pairs` row, or nothing when the parent's median
/// is 0 (the `failed` row when neither side failed has no ratio to give).
fn ratio_text(parent: f64, change: f64) -> String {
    if parent == 0.0 {
        String::new()
    } else {
        format!(", {:.3}x", change / parent)
    }
}

/// The aggregate `cpu` line of a `/proc/stat` text as `(steal, total)` clock ticks, the
/// total summing user, nice, system, idle, iowait, irq, softirq and steal (guest time is
/// already counted in user and nice). `None` when the line or its steal field is missing.
fn cpu_steal_and_total(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|line| line.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|field| field.parse().ok())
        .collect::<Option<_>>()?;
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().sum()))
}

/// The host line `pairs` prints: the core count and the share of CPU time the hypervisor
/// stole between two `/proc/stat` readings, or `n/a` where either reading is missing.
fn host_line(cores: usize, before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> String {
    let steal = match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!(
                "{:.1} %",
                100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            )
        }
        _ => String::from("n/a"),
    };
    format!("host: {cores} cores, CPU steal {steal} from the first pair to the last")
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

/// Where `pairs --record` appends and `pairs --history` reads, in the current directory.
const PAIRS_HISTORY: &str = "BENCH_pairs.jsonl";

/// One (workload, metric) row of a `pairs` run: a line of `BENCH_pairs.jsonl`.
#[derive(Clone, Debug, PartialEq)]
struct PairsRecord {
    label: String,
    workload: String,
    metric: String,
    /// `git describe --always --dirty` of the parent and the change checkout.
    revisions: [String; 2],
    /// Median, q1 and q3 of the parent's and of the change's runs.
    medians: [[f64; 3]; 2],
    won: usize,
    pairs: usize,
    verdict: String,
    host: String,
}

/// A number as JSON writes it: `null` for what is not finite.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        value.to_string()
    } else {
        String::from("null")
    }
}

impl PairsRecord {
    /// The record as one line of flat JSON. Its strings hold no quote or backslash
    /// (`pairs` refuses such a label; names, revisions and the host line have none).
    fn to_json(&self) -> String {
        let [[m0, a0, b0], [m1, a1, b1]] = self.medians.map(|side| side.map(json_number));
        format!(
            "{{\"label\": \"{}\", \"workload\": \"{}\", \"metric\": \"{}\", \
             \"parent_rev\": \"{}\", \"change_rev\": \"{}\", \"parent_median\": {m0}, \
             \"parent_q1\": {a0}, \"parent_q3\": {b0}, \"change_median\": {m1}, \
             \"change_q1\": {a1}, \"change_q3\": {b1}, \"won\": {}, \"pairs\": {}, \
             \"verdict\": \"{}\", \"host\": \"{}\"}}",
            self.label,
            self.workload,
            self.metric,
            self.revisions[0],
            self.revisions[1],
            self.won,
            self.pairs,
            self.verdict,
            self.host
        )
    }

    /// Reads back a line [`to_json`](Self::to_json) wrote; `None` if a field is missing.
    fn from_json(line: &str) -> Option<PairsRecord> {
        let text = |key: &str| quoted_after(line, key).first().map(|s| s.to_string());
        let number = |key: &str| numbers_after(line, key).first().copied();
        let side = |side: &str| -> Option<[f64; 3]> {
            let [m, a, b] = ["median", "q1", "q3"].map(|at| number(&format!("{side}_{at}")));
            Some([m?, a?, b?])
        };
        Some(PairsRecord {
            label: text("label")?,
            workload: text("workload")?,
            metric: text("metric")?,
            revisions: [text("parent_rev")?, text("change_rev")?],
            medians: [side("parent")?, side("change")?],
            won: number("won")? as usize,
            pairs: number("pairs")? as usize,
            verdict: text("verdict")?,
            host: text("host")?,
        })
    }

    /// The row `pairs` prints for the record, after its metric's name.
    fn row(&self) -> String {
        let [[m0, a0, b0], [m1, a1, b1]] = self.medians;
        let ratio = ratio_text(m0, m1);
        let (won, pairs, verdict) = (self.won, self.pairs, &self.verdict);
        format!("{m0:.3} [{a0:.3}, {b0:.3}] -> {m1:.3} [{a1:.3}, {b1:.3}]{ratio}, won {won}/{pairs}, {verdict}")
    }
}

/// The `pairs --history` series: every record of `workload` and `metric` in `history`
/// (the text of a `BENCH_pairs.jsonl`), one line each, oldest first.
fn pairs_history(history: &str, workload: &str, metric: &str) -> Vec<String> {
    history
        .lines()
        .filter_map(PairsRecord::from_json)
        .filter(|record| record.workload == workload && record.metric == metric)
        .map(|record| {
            let [parent, change] = &record.revisions;
            let (label, row, host) = (&record.label, record.row(), &record.host);
            format!("{label} ({parent} -> {change}): {row}; {host}")
        })
        .collect()
}

/// `git describe --always --dirty` of a checkout, or `unknown` where git cannot say.
fn git_describe(dir: &str) -> String {
    let output = Command::new("git")
        .args(["-C", dir, "describe", "--always", "--dirty"])
        .output();
    let described = output.ok().filter(|out| out.status.success());
    described.map_or(String::from("unknown"), |out| {
        String::from_utf8_lossy(&out.stdout).trim().to_string()
    })
}

/// Why `pairs` or `outputs` failed: a bad argument, answered with the usage text, or a
/// run that failed past its arguments (a gate, a manifest mismatch, a binary that exited
/// non-zero), answered with its one line.
#[derive(Debug)]
enum Failure {
    Usage(String),
    Run(String),
}

impl From<String> for Failure {
    fn from(err: String) -> Self {
        Failure::Run(err)
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Usage(err) => write!(f, "{err}\n{USAGE}"),
            Failure::Run(err) => f.write_str(err),
        }
    }
}

/// The `pairs` command; see the module documentation.
fn pairs(mut argv: impl Iterator<Item = String>) -> Result<(), Failure> {
    let (mut dirs, mut workloads, mut pairs, mut label) = ([None, None], Vec::new(), 10, None);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or(Failure::Usage(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--parent" => dirs[0] = Some(value),
            "--change" => dirs[1] = Some(value),
            "--workload" => workloads.push(value),
            "--pairs" => {
                let bad = || Failure::Usage(format!("bad count '{value}'"));
                pairs = value.parse().map_err(|_| bad())?;
            }
            "--record" if value.contains(['"', '\\']) => {
                let err = format!("a label holds no quote or backslash: '{value}'");
                return Err(Failure::Usage(err));
            }
            "--record" => label = Some(value),
            "--history" => {
                let metric = argv.next().ok_or(Failure::Usage(String::from(
                    "--history needs a workload and a metric",
                )))?;
                let history = std::fs::read_to_string(PAIRS_HISTORY).unwrap_or_default();
                for line in pairs_history(&history, &value, &metric) {
                    println!("{line}");
                }
                return Ok(());
            }
            _ => return Err(Failure::Usage(format!("unknown argument '{flag}'"))),
        }
    }
    let ([Some(parent), Some(change)], 1..) = (dirs, pairs) else {
        let err = "pairs needs --parent, --change and a pair";
        return Err(Failure::Usage(err.to_string()));
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
    let cpu_stat = || {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        cpu_steal_and_total(&stat)
    };
    let before = cpu_stat();
    let revisions = [git_describe(&parent), git_describe(&change)];
    let mut records = Vec::new();
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
            let record = PairsRecord {
                label: label.clone().unwrap_or_default(),
                workload: workload.clone(),
                metric: name.to_string(),
                revisions: revisions.clone(),
                medians: [median_and_quartiles(&old), median_and_quartiles(&new)],
                won: old.iter().zip(&new).filter(won).count(),
                pairs,
                verdict: verdict.to_string(),
                host: String::new(),
            };
            println!("  {name}: {}", record.row());
            records.push(record);
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let host = host_line(cores, before, cpu_stat());
    println!("{host}");
    if label.is_some() {
        let lines: String = records
            .into_iter()
            .map(|record| {
                PairsRecord {
                    host: host.clone(),
                    ..record
                }
                .to_json()
                    + "\n"
            })
            .collect();
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(PAIRS_HISTORY)
            .map_err(|err| format!("cannot open {PAIRS_HISTORY}: {err}"))?;
        std::io::Write::write_all(&mut file, lines.as_bytes())
            .map_err(|err| format!("cannot append to {PAIRS_HISTORY}: {err}"))?;
    }
    Ok(())
}

/// Where `outputs --check` and `outputs --update` run the binaries.
const OUTPUTS_DIR: &str = "target/outputs";

/// The committed byte-identity manifest `outputs --check` compares against.
const OUTPUTS_MANIFEST: &str = "ci/outputs.manifest";

/// The `outputs` command; see the module documentation.
fn outputs(argv: impl Iterator<Item = String>) -> Result<(), Failure> {
    let args: Vec<String> = argv.collect();
    let (out, gate) = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--out", out] => (PathBuf::from(out), None),
        ["--check"] => (PathBuf::from(OUTPUTS_DIR), Some(false)),
        ["--update"] => (PathBuf::from(OUTPUTS_DIR), Some(true)),
        _ => {
            let err = "outputs needs --out <dir>, --check or --update";
            return Err(Failure::Usage(err.to_string()));
        }
    };
    if gate.is_some() && out.exists() {
        std::fs::remove_dir_all(&out)
            .map_err(|err| format!("cannot clear {}: {err}", out.display()))?;
    }
    let build = ["build", "--release", "--offline", "--locked"];
    let experiment_bins = ["-p", "croupier-experiments", "--bins"];
    let e2e_bin = ["--manifest-path", E2E_MANIFEST, "--bin", "e2e"];
    for target in [&experiment_bins[..], &e2e_bin] {
        if !run_command(&cargo_bin(), &[&build[..], target].concat(), &[]) {
            let err = "cannot build the binaries outputs runs";
            return Err(Failure::Run(err.to_string()));
        }
    }
    let root = std::env::current_dir().map_err(|err| format!("no working directory: {err}"))?;
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|err| format!("cannot read BENCHMARK.json: {err}"))?;
    let bins = root.join("target/release");
    let e2e = root.join("e2e_bench/target/release/e2e");
    write_outputs(&out, &bins, &e2e, &declared_workloads(&declared))?;
    let Some(update) = gate else {
        return Ok(());
    };
    let fresh = manifest_of(&out)?;
    if update {
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
    Err(Failure::Run(format!(
        "outputs: {} manifest lines differ from {OUTPUTS_MANIFEST} (- committed, + this run)",
        mismatches.len()
    )))
}

/// The benchmark package's manifest; `outputs` builds its `e2e` binary.
const E2E_MANIFEST: &str = "e2e_bench/Cargo.toml";

/// Runs one binary `outputs` records and returns what it printed; one that exits
/// non-zero is named in `failed`, so every output is still written before the step fails.
fn run_recorded(
    name: &str,
    command: &mut Command,
    failed: &mut Vec<String>,
) -> Result<Output, String> {
    let output = command
        .output()
        .map_err(|err| format!("cannot run {name}: {err}"))?;
    if !output.status.success() {
        failed.push(format!("{name} ({})", output.status));
    }
    Ok(output)
}

/// Runs the experiment binaries in `bins` inside `out` and `e2e` once per workload, writes
/// every output the module documentation lists into `out`, then fails naming each binary
/// that exited non-zero.
fn write_outputs(out: &Path, bins: &Path, e2e: &Path, workloads: &[String]) -> Result<(), String> {
    let write = |name: &str, bytes: &[u8]| {
        std::fs::write(out.join(name), bytes).map_err(|err| format!("cannot write {name}: {err}"))
    };
    std::fs::create_dir_all(out)
        .map_err(|err| format!("cannot create {}: {err}", out.display()))?;
    let runs = [
        ("scenario_matrix", "--scale quick --out scenario-json"),
        ("workload_matrix", "--scale quick --out workload-json"),
        ("figures", "--scale tiny --json all"),
    ];
    let mut failed = Vec::new();
    for (bin, args) in runs {
        let mut command = Command::new(bins.join(bin));
        command.args(args.split(' ')).current_dir(out);
        let run = run_recorded(bin, &mut command, &mut failed)?;
        write(&format!("{bin}.stdout"), &run.stdout)?;
        write(&format!("{bin}.stderr"), &run.stderr)?;
    }
    // `e2e` writes its result files under `$CARGO_TARGET_DIR/bench`. A scratch build
    // directory outside the checkout's `target/` and `out` keeps the digest runs from
    // replacing results saved there for `e2e --compare`, or from entering the manifest.
    // It is keyed by process and `out`, so concurrent runs never share one.
    let out_key = fnv1a(out.as_os_str().as_encoded_bytes());
    let bench_target =
        std::env::temp_dir().join(format!("xtask-e2e-{}-{out_key:x}", std::process::id()));
    let mut digests = String::new();
    for workload in workloads {
        let mut command = Command::new(e2e);
        command.env("CARGO_TARGET_DIR", &bench_target);
        command.args(["--workload", workload]);
        command.args("--seed 42 --seconds 1 --trace 1".split(' '));
        let run = run_recorded(&format!("e2e {workload}"), &mut command, &mut failed)?;
        let stdout = String::from_utf8_lossy(&run.stdout);
        match stdout.lines().find_map(|line| line.split_once("digests ")) {
            Some((_, digest)) => digests += &format!("{workload}: digests {digest}\n"),
            None => failed.push(format!("e2e {workload} (no digests line)")),
        }
    }
    let _ = std::fs::remove_dir_all(&bench_target);
    write(DIGESTS_FILE, digests.as_bytes())?;
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("outputs: {} exited non-zero", failed.join(", ")))
    }
}

/// The seed-42 `digests <untraced> / <traced>` of every declared workload.
const DIGESTS_FILE: &str = "digests.txt";

/// The comment block `outputs --update` writes above the manifest; `#` lines are not
/// compared.
const MANIFEST_HEADER: &str = "\
# Byte identity of every seeded output of `cargo run -p xtask -- outputs`.
# `outputs --check` reruns the binaries and fails on any difference from this file;
# `outputs --update` rewrites it. [files]: path, byte length, 64-bit FNV-1a hash.
# [digests]: the seed-42 e2e digests of every workload BENCHMARK.json declares.
";

/// 64-bit FNV-1a hash of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The manifest of an `outputs` directory, without its header: one `[files]` line per
/// output file other than the digest file, then that file's lines under `[digests]`.
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
        if rel != DIGESTS_FILE {
            let bytes = read(file)?;
            manifest += &format!("{rel} {} {:016x}\n", bytes.len(), fnv1a(&bytes));
        }
    }
    manifest += "[digests]\n";
    manifest += &String::from_utf8_lossy(&read(&out.join(DIGESTS_FILE))?);
    Ok(manifest)
}

/// The lines on which `committed` and `fresh` manifests differ, as `- committed` and
/// `+ fresh`, ignoring `#` comments.
fn manifest_mismatches(committed: &str, fresh: &str) -> Vec<String> {
    let committed: Vec<&str> = committed.lines().filter(|l| !l.starts_with('#')).collect();
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
const CI_STEPS: [&str; 8] = [
    "fmt",
    "clippy",
    "doc",
    "public-api",
    "test",
    "outputs",
    "scale-smoke",
    "huge-smoke",
];

/// The examples the `test` step (CI's `build-test` job) runs after the workspace tests:
/// every example small enough to run on each push (`sharded_scale` runs in
/// `scale-smoke`; `fault_overhead_check` is a timing A/B, not a smoke).
const CI_EXAMPLES: [&str; 3] = ["quickstart", "nat_identification", "streaming_overlay"];

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
            "--locked",
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
                "--locked",
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
            &["doc", "--locked", "--workspace", "--no-deps"],
            &[("RUSTDOCFLAGS", "-D warnings")],
        ),
        "test" => {
            run_command(
                &cargo,
                &["build", "--release", "--locked", "--workspace"],
                &[],
            ) && run_command(&cargo, &["test", "-q", "--locked", "--workspace"], &[])
                && CI_EXAMPLES.iter().all(|example| {
                    run_command(
                        &cargo,
                        &["run", "--release", "--locked", "--example", example],
                        &[],
                    )
                })
        }
        "public-api" => public_api_gate(false) == ExitCode::SUCCESS,
        "outputs" => {
            // Nothing else builds the benchmark package: it is a workspace of its own.
            run_command(
                &cargo,
                &[
                    "test",
                    "--offline",
                    "--locked",
                    "--manifest-path",
                    E2E_MANIFEST,
                ],
                &[],
            ) && run_command(
                &cargo,
                &[
                    "run",
                    "--release",
                    "--offline",
                    "--locked",
                    "--manifest-path",
                    E2E_MANIFEST,
                    "--bin",
                    "e2e",
                    "--",
                    "--smoke",
                ],
                &[],
            ) && outputs(["--check".to_string()].into_iter())
                .map_err(|err| eprintln!("{err}"))
                .is_ok()
        }
        "scale-smoke" => {
            run_scale_smoke(&cargo, "croupier_100k", "scale_smoke_metrics_timing.json")
                && run_command(
                    &cargo,
                    &[
                        "run",
                        "--release",
                        "--locked",
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
                    eprintln!("{err}");
                    ExitCode::FAILURE
                }
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
    fn pairs_reads_the_cpu_steal_share_from_proc_stat() {
        let at = |steal: u64, idle: u64| {
            format!(
                "cpu  100 5 50 {idle} 10 0 5 {steal} 0 0\n\
                 cpu0 50 2 25 400 5 0 3 15 0 0\n\
                 intr 12345 0 0\nctxt 999\n"
            )
        };
        let before = cpu_steal_and_total(&at(30, 800));
        assert_eq!(before, Some((30, 1000)));
        // 1 000 more ticks, 100 of them stolen.
        let after = cpu_steal_and_total(&at(130, 1700));
        assert_eq!(
            host_line(2, before, after),
            "host: 2 cores, CPU steal 10.0 % from the first pair to the last"
        );
        // Before Linux 2.6.11 the line has no steal field; elsewhere there is no file.
        assert_eq!(cpu_steal_and_total("cpu  1 2 3 4 5 6 7\n"), None);
        assert_eq!(cpu_steal_and_total(""), None);
        assert!(
            host_line(4, None, after).ends_with("CPU steal n/a from the first pair to the last")
        );
        assert!(
            host_line(4, before, before).contains("n/a"),
            "no time passed"
        );
    }

    #[test]
    fn outputs_manifest_hashes_and_compares_line_by_line() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let committed = "# header\n[files]\na.json 3 0001\n[digests]\nw: digests 1 / 1\n";
        let fresh = "[files]\na.json 3 0001\n[digests]\nw: digests 1 / 1\n";
        assert!(manifest_mismatches(committed, fresh).is_empty());
        let moved = fresh.replace("0001", "0002");
        assert_eq!(
            manifest_mismatches(committed, &moved),
            ["- a.json 3 0001", "+ a.json 3 0002"]
        );
        let redigested = fresh.replace("1 / 1", "1 / 2");
        assert_eq!(
            manifest_mismatches(committed, &redigested),
            ["- w: digests 1 / 1", "+ w: digests 1 / 2"]
        );
    }

    /// Writes `#!/bin/sh` stand-ins for the binaries `outputs` runs into `dir/bins`, the
    /// experiment binaries with the given bodies and `e2e` with `e2e_body`.
    fn fake_bins(dir: &Path, matrix_body: &str, e2e_body: &str) -> PathBuf {
        let bins = dir.join("bins");
        std::fs::create_dir_all(&bins).unwrap();
        for (bin, body) in [
            ("scenario_matrix", matrix_body),
            ("workload_matrix", "exit 0"),
            ("figures", "exit 0"),
            ("e2e", e2e_body),
        ] {
            let script = bins.join(bin);
            std::fs::write(&script, format!("#!/bin/sh\n{body}\n")).unwrap();
            let mode = std::os::unix::fs::PermissionsExt::from_mode(0o755);
            std::fs::set_permissions(&script, mode).unwrap();
        }
        bins
    }

    /// Every binary runs and its output is written, then the step fails naming each one
    /// that exited non-zero (here `scenario_matrix`, as when one of its gates fails).
    #[test]
    fn outputs_fail_naming_each_binary_that_exited_non_zero() {
        let dir = std::env::temp_dir().join(format!("xtask-outputs-{}", std::process::id()));
        let out = dir.join("out");
        let matrix = "echo table; echo '  GATE: g' >&2; exit 1";
        let bins = fake_bins(&dir, matrix, "echo \"digests 1 / 1\"");
        let workloads = [String::from("w")];
        let err = write_outputs(&out, &bins, &bins.join("e2e"), &workloads).unwrap_err();
        let read = |name: &str| std::fs::read_to_string(out.join(name)).unwrap();
        let written = [
            read("scenario_matrix.stdout"),
            read("scenario_matrix.stderr"),
        ];
        let digests = read(DIGESTS_FILE);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            err,
            "outputs: scenario_matrix (exit status: 1) exited non-zero"
        );
        assert_eq!(written, ["table\n", "  GATE: g\n"]);
        assert_eq!(digests, "w: digests 1 / 1\n");
    }

    /// The digest runs build nothing, but `e2e` writes its result files under
    /// `$CARGO_TARGET_DIR/bench` (`target/bench` without it): they go to a scratch
    /// directory that is neither the checkout's `target/` nor `--out`, and is gone after.
    #[test]
    fn outputs_keep_e2e_result_files_out_of_target_and_out() {
        let dir = std::env::temp_dir().join(format!("xtask-bench-{}", std::process::id()));
        let out = dir.join("out");
        let marker = format!("e2e_w_traced-{}.json", std::process::id());
        let e2e = format!(
            "[ -n \"$CARGO_TARGET_DIR\" ] || exit 3\n\
             mkdir -p \"$CARGO_TARGET_DIR/bench\" || exit 4\n\
             echo saved > \"$CARGO_TARGET_DIR/bench/{marker}\"\n\
             echo \"$CARGO_TARGET_DIR\" > \"{}\"\n\
             echo \"digests 1 / 1\"",
            dir.join("target-dir").display()
        );
        let bins = fake_bins(&dir, "exit 0", &e2e);
        let workloads = [String::from("w")];
        let done = write_outputs(&out, &bins, &bins.join("e2e"), &workloads);
        let used = std::fs::read_to_string(dir.join("target-dir")).unwrap();
        let used = PathBuf::from(used.trim());
        let in_out = out.join("bench").exists();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(done, Ok(()));
        assert!(!Path::new("target/bench").join(&marker).exists());
        assert!(!in_out, "result files must stay out of the hashed outputs");
        assert!(
            !used.starts_with(&out) && !used.ends_with("target"),
            "{used:?}"
        );
        assert!(!used.exists(), "the scratch build directory is removed");
    }

    /// Argument errors answer with the usage text; a run that fails past its arguments
    /// prints its one line.
    #[test]
    fn only_argument_errors_print_the_usage() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        for err in [
            outputs(args(&["--bogus"]).into_iter()).unwrap_err(),
            pairs(args(&["--pairs", "x"]).into_iter()).unwrap_err(),
            pairs(args(&["--parent"]).into_iter()).unwrap_err(),
            pairs(args(&["--record", "a \"b\""]).into_iter()).unwrap_err(),
            pairs(args(&["--history", "cyclon_nat_wide"]).into_iter()).unwrap_err(),
        ] {
            assert!(matches!(err, Failure::Usage(_)), "{err}");
            assert!(err.to_string().ends_with(USAGE), "{err}");
        }
        let missing = std::env::temp_dir().join("xtask-no-such-checkout");
        let missing = missing.to_str().unwrap();
        let run = pairs(args(&["--parent", missing, "--change", missing]).into_iter());
        let err = run.unwrap_err().to_string();
        assert!(
            err.starts_with("cannot read the change's BENCHMARK.json"),
            "{err}"
        );
        assert_eq!(err.lines().count(), 1, "{err}");
        let failed = Failure::from(String::from("outputs: e2e w (exit status: 1) exited"));
        assert_eq!(failed.to_string().lines().count(), 1);
    }

    /// A recorded line reads back as the record that wrote it, and the history lists the
    /// records of one workload and metric in file order.
    #[test]
    fn pairs_records_round_trip_through_the_history_file() {
        let record = PairsRecord {
            label: String::from("host lists"),
            workload: String::from("cyclon_nat_wide"),
            metric: String::from("peak_rss_mb"),
            revisions: [String::from("04419f9"), String::from("04419f9-dirty")],
            medians: [[206.0, 205.5, 206.8], [189.25, 188.9, 190.1]],
            won: 10,
            pairs: 10,
            verdict: String::from("gain"),
            host: host_line(2, Some((0, 100)), Some((1, 200))),
        };
        let line = record.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(PairsRecord::from_json(&line), Some(record.clone()));
        let failed = PairsRecord {
            metric: String::from("failed"),
            medians: [[0.0; 3], [f64::NAN; 3]],
            ..record.clone()
        };
        assert!(failed.to_json().contains("\"change_median\": null"));
        let read = PairsRecord::from_json(&failed.to_json()).unwrap();
        assert!(read.medians[1].iter().all(|m| m.is_nan()));
        let later = PairsRecord {
            label: String::from("next"),
            medians: [[189.25, 188.9, 190.1], [180.0, 179.0, 181.0]],
            ..record.clone()
        };
        let history = [&record, &failed, &later]
            .map(PairsRecord::to_json)
            .join("\n");
        let series = pairs_history(&history, "cyclon_nat_wide", "peak_rss_mb");
        assert_eq!(
            series,
            [
                "host lists (04419f9 -> 04419f9-dirty): 206.000 [205.500, 206.800] -> \
                 189.250 [188.900, 190.100], 0.919x, won 10/10, gain; host: 2 cores, \
                 CPU steal 1.0 % from the first pair to the last",
                "next (04419f9 -> 04419f9-dirty): 189.250 [188.900, 190.100] -> \
                 180.000 [179.000, 181.000], 0.951x, won 10/10, gain; host: 2 cores, \
                 CPU steal 1.0 % from the first pair to the last",
            ]
        );
        assert!(pairs_history(&history, "croupier_steady", "peak_rss_mb").is_empty());
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
    fn pairs_prints_a_ratio_only_against_a_non_zero_parent() {
        assert_eq!(ratio_text(2.0, 1.0), ", 0.500x");
        assert_eq!(ratio_text(4.0, 5.0), ", 1.250x");
        assert_eq!(ratio_text(0.0, 0.0), "", "no NaNx when neither side failed");
        assert_eq!(ratio_text(0.0, 3.0), "", "no infx either");
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
                ["--skip", "outputs,huge-smoke"]
                    .map(String::from)
                    .into_iter()
            )
            .unwrap(),
            vec![String::from("outputs"), String::from("huge-smoke")]
        );
        assert!(parse_ci_local_args(std::iter::empty()).unwrap().is_empty());
        assert!(
            parse_ci_local_args(["--skip", "bogus"].map(String::from).into_iter()).is_err(),
            "unknown steps are rejected"
        );
        assert!(parse_ci_local_args(["--wat"].map(String::from).into_iter()).is_err());
    }

    /// `ci.yml` folds `fmt`/`clippy`/`doc`/`public-api` into its `lint` job and runs `test`
    /// as `build-test`; every other `ci-local` step is a CI job of the same name. No job
    /// picks scenarios: the `outputs` job runs every one.
    #[test]
    fn ci_local_steps_mirror_the_ci_jobs() {
        let yml = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.github/workflows/ci.yml");
        let text = std::fs::read_to_string(&yml).expect("ci.yml is readable");
        let lines = text.lines().skip_while(|line| *line != "jobs:").skip(1);
        let ids = lines.filter_map(|line| line.strip_prefix("  ")?.strip_suffix(':'));
        let mut jobs: Vec<&str> = ids.filter(|id| !id.starts_with([' ', '#'])).collect();
        jobs.sort_unstable();
        let mut expected = vec!["lint", "build-test"];
        expected.extend(
            CI_STEPS
                .iter()
                .filter(|step| !["fmt", "clippy", "doc", "public-api", "test"].contains(step)),
        );
        expected.sort_unstable();
        assert_eq!(jobs, expected, "ci.yml jobs and ci-local steps drifted");
        for example in CI_EXAMPLES {
            let run = format!("run: cargo run --release --locked --example {example}\n");
            assert!(
                text.contains(&run),
                "ci.yml's build-test job skips {example}"
            );
        }
        assert!(
            !text.contains("--scenarios"),
            "a CI job runs a subset of the scenarios"
        );
    }

    /// Every `ci.yml` step that has cargo resolve the dependency graph (`build`, `test`,
    /// `run`, `clippy`, `doc`) passes `--locked`, so a change that would rewrite
    /// `Cargo.lock` fails in CI instead of resolving afresh there.
    #[test]
    fn ci_cargo_commands_pass_locked() {
        let yml = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.github/workflows/ci.yml");
        let text = std::fs::read_to_string(&yml).expect("ci.yml is readable");
        let unlocked: Vec<&str> = text
            .lines()
            .map(|line| line.trim_start().trim_start_matches("run: "))
            .filter(|command| {
                let mut words = command.split_whitespace();
                words.next() == Some("cargo")
                    && words
                        .next()
                        .is_some_and(|sub| ["build", "test", "run", "clippy", "doc"].contains(&sub))
            })
            .filter(|command| {
                let cargo_args = command.split(" -- ").next().unwrap_or(command);
                !cargo_args.split_whitespace().any(|word| word == "--locked")
            })
            .collect();
        assert!(
            unlocked.is_empty(),
            "ci.yml cargo commands without --locked: {unlocked:#?}"
        );
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
        // Only a `#[cfg(test)]` on an inline module ends the count; the file of a
        // `#[cfg(test)] mod name;` counts as test in whole.
        let text =
            "#[cfg(test)]\nmod reference;\npub use a::A;\n    #[cfg(test)]\n    fn probe() {}\n\
                    #[cfg(test)]\n#[allow(dead_code)]\nmod tests {\n}\n";
        assert_eq!(loc_of(text), [9, 5, 5]);
        assert_eq!(
            test_module_files("crates/metrics/src/lib.rs", text),
            ["crates/metrics/src/reference.rs"]
        );
        assert_eq!(
            test_module_files("crates/simulator/src/scheduler.rs", text),
            ["crates/simulator/src/scheduler/reference.rs"]
        );
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
