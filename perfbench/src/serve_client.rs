//! A single closed-loop client of the spool service: submit one job by
//! atomic rename, wait for its result file, never hang on a dead
//! daemon.

use std::path::Path;
use std::time::{Duration, Instant};

/// How long one job may take before the client gives up on it.
pub const JOB_TIMEOUT: Duration = Duration::from_secs(30);

/// Submits `job` as `<spool>/<stem>.job` (written beside it, then
/// renamed, so the daemon never sees a partial file) and waits for
/// `<spool>/out/<stem>.json`. Returns the result bytes, or why there
/// are none: the daemon exited (`alive` turned false) or `timeout`
/// passed.
///
/// # Errors
///
/// Returns a message when the job cannot be submitted or produced no
/// result.
pub fn submit_and_wait(
    spool: &Path,
    stem: &str,
    job: &str,
    timeout: Duration,
    alive: &mut dyn FnMut() -> bool,
) -> Result<String, String> {
    let tmp = spool.join(format!("{stem}.job.part"));
    std::fs::write(&tmp, job).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, spool.join(format!("{stem}.job")))
        .map_err(|e| format!("cannot submit {stem}: {e}"))?;
    let out = spool.join("out").join(format!("{stem}.json"));
    let start = Instant::now();
    loop {
        if let Ok(text) = std::fs::read_to_string(&out) {
            return Ok(text);
        }
        if !alive() {
            return Err(format!("job {stem}: the service exited before answering"));
        }
        if start.elapsed() > timeout {
            return Err(format!("job {stem}: no result after {timeout:?}"));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// A result file with its job name removed, so the result of a job and
/// of its resubmission compare byte for byte.
pub fn without_job_name(result: &str, stem: &str) -> String {
    result.replacen(&format!("\"job\":\"{stem}\","), "", 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("mcpart_perfbench_client_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("out")).expect("mkdir");
        dir
    }

    #[test]
    fn a_dead_daemon_fails_the_job_instead_of_hanging() {
        let dir = fresh_dir("dead");
        let mut child = std::process::Command::new("true").spawn().expect("spawn true");
        let start = Instant::now();
        let got = submit_and_wait(&dir, "j1", "{}", Duration::from_secs(60), &mut || {
            matches!(child.try_wait(), Ok(None))
        });
        assert!(got.unwrap_err().contains("exited"));
        assert!(start.elapsed() < Duration::from_secs(10), "client hung on a dead daemon");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_silent_daemon_times_out() {
        let dir = fresh_dir("silent");
        let got = submit_and_wait(&dir, "j1", "{}", Duration::from_millis(50), &mut || true);
        assert!(got.unwrap_err().contains("no result"));
        assert!(dir.join("j1.job").exists(), "job was submitted under its final name");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_answered_job_returns_its_result() {
        let dir = fresh_dir("answered");
        std::fs::write(dir.join("out/j2.json"), "{\"job\":\"j2\",\"x\":1}\n").expect("write");
        let got = submit_and_wait(&dir, "j2", "{}", Duration::from_secs(5), &mut || true);
        assert_eq!(without_job_name(&got.expect("answered"), "j2"), "{\"x\":1}\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
