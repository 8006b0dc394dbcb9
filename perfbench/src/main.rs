//! The mcpart benchmark: one closed-loop, single-caller workload per
//! process, every end-to-end metric printed by name with its unit and
//! sample count, every output checked; `--trace 1` instead re-runs the
//! workload with a span around each layer call and prints the
//! per-layer metrics.
//!
//! ```text
//! mcpart-perfbench --workload <mediabench|gdp_scale|edit_replay|serve_resubmit>
//!     --seed <n> --seconds <s> --trace <0|1> --mcpart <path> --work-dir <dir>
//! ```
//!
//! The last stdout line is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`). The exit code is non-zero when any
//! correctness or determinism check failed.

mod edit;
mod edit_replay;
mod gdp_scale;
mod layers;
mod mediabench;
mod report;
mod serve_client;
mod serve_resubmit;
mod speed;
mod stages;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The end-to-end metrics of `BENCHMARK.json`, reported by every
/// workload with tracing off.
pub const END_TO_END: [&str; 6] =
    ["req_per_s", "req_p50_ms", "req_p90_ms", "setup_s", "peak_rss_mb", "ok_frac"];

/// Fewest rounds per run: a request's latency is the best of its runs,
/// one per round, and the best of fewer is too often a slow one.
pub const MIN_ROUNDS: usize = 3;

/// A run never extends past this, whatever the sample count.
const HARD_STOP: Duration = Duration::from_secs(90);

/// Set-ups per run, spread over it; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// The only source of input seeds, edit targets and request order.
    pub seed: u64,
    /// Target length of the timed region.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// The `mcpart` binary, for the service daemon.
    pub mcpart: PathBuf,
    /// Scratch directory for checkpoints, spools and traces.
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<f64, String> {
        get(flag)?.parse::<f64>().map_err(|_| format!("{flag} needs a number"))
    };
    let seconds = num("--seconds")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|_| "--seed needs an unsigned integer")?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        mcpart: get("--mcpart")?.into(),
        work_dir: get("--work-dir")?.into(),
    })
}

/// `n` program sizes stepping geometrically from `min` to `max`
/// operations, so request costs spread continuously and no percentile
/// sits at a jump between two sizes' costs.
pub fn spread_sizes(n: usize, min: usize, max: usize) -> Vec<usize> {
    let step = (max as f64 / min as f64).powf(1.0 / (n.max(2) - 1) as f64);
    (0..n).map(|i| (min as f64 * step.powi(i as i32)).round() as usize).collect()
}

/// A workload's set-up and what it built. The set-up runs [`SETUPS`]
/// times in a run, spread over its timed rounds: five set-ups in a row
/// would all fall in one stretch of the shared host's speed, and their
/// median would be a single sample of it.
pub struct SetUp<T, E, F: FnMut() -> Result<T, E>> {
    make: F,
    data: Option<T>,
    secs: Vec<f64>,
    speed: speed::Speed,
}

impl<T, E, F: FnMut() -> Result<T, E>> SetUp<T, E, F> {
    /// Runs the first set-up.
    ///
    /// # Errors
    ///
    /// Returns the set-up's error.
    pub fn first(make: F) -> Result<Self, E> {
        let mut s = SetUp {
            make,
            data: None,
            secs: Vec::with_capacity(SETUPS),
            speed: speed::Speed::default(),
        };
        s.again()?;
        Ok(s)
    }

    fn again(&mut self) -> Result<(), E> {
        // The previous set-up's memory goes back first, so each set-up
        // after the first reuses it rather than faulting in fresh pages.
        self.data = None;
        // Scaled to the reference host speed, probed before and after.
        let before = self.speed.settle();
        let t = Instant::now();
        self.data = Some((self.make)()?);
        let secs = t.elapsed().as_secs_f64();
        let after = self.speed.settle();
        self.secs.push(secs * (before + after) / 2.0);
        Ok(())
    }

    /// What the latest set-up built.
    pub fn data(&self) -> &T {
        self.data.as_ref().expect("set up at construction")
    }

    /// Runs whole rounds until the timed region has lasted `seconds`
    /// and holds at least [`MIN_ROUNDS`] rounds (or [`HARD_STOP`]
    /// passed), setting up again between rounds each time another
    /// 1/[`SETUPS`] of `seconds` has been timed, and after the last
    /// round until [`SETUPS`] set-ups are done. A round is a fixed
    /// request list, so every run measures the same mix; `round(i, data)`
    /// runs round `i` and returns the time spent in its requests, or
    /// `None` to stop early; a traced run also repeats the round traced
    /// inside `round`, so the traced and untraced rounds alternate and
    /// host drift falls on both alike. Returns the total timed duration
    /// and the number of rounds completed.
    ///
    /// # Errors
    ///
    /// Returns the first failed set-up's error.
    pub fn timed_rounds(
        &mut self,
        seconds: f64,
        mut round: impl FnMut(usize, &T) -> Option<Duration>,
    ) -> Result<(Duration, usize), E> {
        let start = Instant::now();
        let mut timed = Duration::ZERO;
        let mut rounds = 0;
        while rounds == 0
            || ((timed.as_secs_f64() < seconds || rounds < MIN_ROUNDS)
                && start.elapsed() < HARD_STOP)
        {
            let due = seconds * self.secs.len() as f64 / SETUPS as f64;
            if self.secs.len() < SETUPS && timed.as_secs_f64() >= due {
                self.again()?;
            }
            let Some(t) = round(rounds, self.data()) else { break };
            timed += t;
            rounds += 1;
        }
        while self.secs.len() < SETUPS {
            self.again()?;
        }
        Ok((timed, rounds))
    }

    /// What the latest set-up built, and every set-up's duration in
    /// seconds at the reference host speed.
    pub fn finish(self) -> (T, Vec<f64>) {
        (self.data.expect("set up at construction"), self.secs)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mcpart-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("mcpart-perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let mut report = match args.workload.as_str() {
        "mediabench" => mediabench::run(&args),
        "gdp_scale" => gdp_scale::run(&args),
        "edit_replay" => edit_replay::run(&args),
        "serve_resubmit" => serve_resubmit::run(&args),
        other => {
            eprintln!("mcpart-perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    let bad: Vec<&str> =
        report.metrics.iter().filter(|m| !m.value.is_finite()).map(|m| m.name).collect();
    for name in bad {
        report.fail(format!("metric {name} is not a finite number"));
    }
    let expected: Vec<&str> = if args.trace {
        layers::PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.to_vec()
    };
    for name in &expected {
        if !report.metrics.iter().any(|m| m.name == *name) {
            report.note(format!("metric {name} was not measured"));
        }
    }
    report.print(|name| expected.contains(&name));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
