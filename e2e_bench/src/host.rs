//! What the numbers were measured on, and the process-level counters behind `cpu_s` and
//! `peak_rss_mb`.

use std::process::Command;

use crate::json::Value;

/// Everything a reader needs to decide whether two result files are comparable:
/// thread-scaling numbers in particular mean nothing without the core count.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct HostStamp {
    pub(crate) cores: usize,
    pub(crate) cpu_model: String,
    pub(crate) rustc: String,
    pub(crate) git_sha: String,
    pub(crate) profile: &'static str,
}

impl HostStamp {
    pub(crate) fn collect() -> Self {
        HostStamp {
            cores: cores(),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|text| {
                    text.lines()
                        .find(|line| line.starts_with("model name"))
                        .and_then(|line| line.split(':').nth(1))
                        .map(|model| model.trim().to_string())
                })
                .unwrap_or_else(unknown),
            rustc: command_line("rustc", &["-V"]),
            git_sha: command_line("git", &["rev-parse", "--short", "HEAD"]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    pub(crate) fn to_json(&self) -> Value {
        Value::obj(vec![
            ("cores", Value::Num(self.cores as f64)),
            ("cpu_model", Value::str(&self.cpu_model)),
            ("rustc", Value::str(&self.rustc)),
            ("git_sha", Value::str(&self.git_sha)),
            ("profile", Value::str(self.profile)),
        ])
    }

    pub(crate) fn line(&self) -> String {
        format!(
            "host: {} cores, {}, {}, git {}, {} build",
            self.cores, self.cpu_model, self.rustc, self.git_sha, self.profile
        )
    }
}

fn unknown() -> String {
    "unknown".to_string()
}

/// Cores this process may run on.
pub(crate) fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// First line of a tool's output, `"unknown"` when it cannot be run (the driver's
/// checkout is not a git repository, for one).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(|line| line.trim().to_string()))
        .filter(|line| !line.is_empty())
        .unwrap_or_else(unknown)
}

/// User + system CPU seconds this process (all threads, joined ones included) has used,
/// from `/proc/self/stat`. 0 where procfs is missing, which turns `cpu_s` into 0 rather
/// than failing the run.
pub(crate) fn cpu_seconds() -> f64 {
    // Fields 14 and 15 (utime, stime) in clock ticks; the command name in field 2 may
    // contain spaces, so count from the closing parenthesis. Linux's USER_HZ is 100 on
    // every supported architecture.
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            let rest = &stat[stat.rfind(')')? + 1..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_stamp_is_complete_and_serialisable() {
        let stamp = HostStamp::collect();
        assert!(stamp.cores >= 1);
        assert!(!stamp.cpu_model.is_empty());
        assert!(!stamp.rustc.is_empty());
        assert!(!stamp.git_sha.is_empty());
        let json = stamp.to_json();
        assert_eq!(
            json.get("cores").and_then(Value::as_f64),
            Some(stamp.cores as f64)
        );
        assert!(stamp.line().contains("cores"));
    }

    #[test]
    fn missing_tools_read_as_unknown() {
        assert_eq!(command_line("no-such-tool-on-any-path", &[]), "unknown");
    }

    #[test]
    fn process_counters_move_forward() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
        assert!(peak_rss_mb() > 0.0);
    }
}
