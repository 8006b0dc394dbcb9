//! # mcpart-bench — the experiment harness
//!
//! One regenerator per table and figure of the paper (see DESIGN.md for
//! the experiment index):
//!
//! | Target | Paper artifact |
//! |---|---|
//! | `cargo run -p mcpart-bench --bin table1` | Table 1 (method matrix) |
//! | `cargo run -p mcpart-bench --bin fig2` | Figure 2 (naïve placement cost) |
//! | `cargo run -p mcpart-bench --bin fig7_8 -- --latency {1,5,10}` | Figures 7, 8a, 8b |
//! | `cargo run -p mcpart-bench --bin fig9` | Figure 9 (exhaustive search) |
//! | `cargo run -p mcpart-bench --bin fig10` | Figure 10 (move traffic) |
//! | `cargo run -p mcpart-bench --bin compile_time` | §4.5 (compile time) |
//! | `cargo run -p mcpart-bench --bin ablation_merge` | §3.3.1 merging ablation |
//! | `cargo run -p mcpart-bench --bin ablation_balance` | §4.3 balance sweep |
//! | `cargo run -p mcpart-bench --bin ablation_clusters` | cluster scaling |
//!
//! Use `--release` for the full benchmark set; debug builds are fine
//! for spot checks on a few benchmarks (`-- --benchmarks a,b,c`).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod diff;
pub mod experiments;
pub mod report;

use mcpart_workloads::Workload;

/// Returns `true` if the argument list requests JSON output
/// (`--json`).
pub fn wants_json(args: &[String]) -> bool {
    args.iter().any(|a| a == "--json")
}

/// Parses a `--benchmarks a,b,c` / `--latency N` style argument list
/// shared by the experiment binaries. Returns the workload selection
/// and the value of `--latency` (if present). A bad value is a usage
/// error: the message goes to stderr and the process exits with 2.
pub fn parse_args(args: &[String]) -> (Vec<Workload>, Option<u32>) {
    try_parse_args(args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Fallible form of [`parse_args`]: the error names the bad value.
/// Arguments other than `--benchmarks` and `--latency` are left to the
/// caller.
fn try_parse_args(args: &[String]) -> Result<(Vec<Workload>, Option<u32>), String> {
    let mut selected: Option<&str> = None;
    let mut latency: Option<u32> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--benchmarks" || flag == "--latency" {
            let value = args.get(i + 1).ok_or_else(|| format!("{flag} needs a value"))?;
            if flag == "--benchmarks" {
                selected = Some(value);
            } else {
                latency =
                    Some(value.parse().map_err(|_| format!("bad --latency value `{value}`"))?);
            }
            i += 1;
        }
        i += 1;
    }
    let workloads = match selected {
        Some(list) => list
            .split(',')
            .map(|n| mcpart_workloads::by_name(n).ok_or_else(|| format!("unknown benchmark `{n}`")))
            .collect::<Result<_, _>>()?,
        None => mcpart_workloads::all(),
    };
    Ok((workloads, latency))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--benchmarks", "rawcaudio,fft", "--latency", "10"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (ws, lat) = parse_args(&args);
        assert_eq!(ws.len(), 2);
        assert_eq!(lat, Some(10));
    }

    #[test]
    fn json_flag_detected() {
        assert!(wants_json(&["--json".to_string()]));
        assert!(!wants_json(&["--latency".to_string()]));
    }

    #[test]
    fn no_args_selects_all() {
        let (ws, lat) = parse_args(&[]);
        assert!(ws.len() >= 15);
        assert_eq!(lat, None);
    }
}
