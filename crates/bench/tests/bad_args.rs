//! The experiment binaries reject a bad `--benchmarks` or `--latency`
//! value as a usage error (exit 2) naming the value, before any work.

use std::process::Command;

fn fig7_8(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fig7_8")).args(args).output().expect("spawn fig7_8");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn unknown_benchmark_exits_2_naming_it() {
    let (code, stderr) = fig7_8(&["--benchmarks", "cjpeg,typo"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown benchmark `typo`"), "{stderr}");
}

#[test]
fn bad_latency_exits_2_naming_it() {
    let (code, stderr) = fig7_8(&["--latency", "abc"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("bad --latency value `abc`"), "{stderr}");
    let (code, stderr) = fig7_8(&["--latency"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--latency needs a value"), "{stderr}");
}
