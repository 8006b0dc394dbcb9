//! What one run reports: metrics by name with unit and sample count,
//! request and failure counts, and the checks that failed.

use crate::stats::Latencies;

/// One reported number.
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub samples: usize,
}

/// The outcome of one workload run.
#[derive(Default)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Requests attempted in the timed region.
    pub attempted: u64,
    /// Requests whose output failed a check.
    pub failed: u64,
    /// One line per failed correctness or determinism check.
    pub failures: Vec<String>,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name, value, unit, samples });
    }

    /// Records a failed check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Adds the end-to-end metrics every workload reports.
    pub fn end_to_end(&mut self, lat: &Latencies, setups: &[f64], peak_rss_mb: f64) {
        let n = lat.len();
        if let Some(rate) = lat.per_second() {
            self.metric("req_per_s", rate, "1/s", n);
        }
        if let Some(p50) = lat.p50() {
            self.metric("req_p50_ms", p50, "ms", n);
        }
        match lat.p90() {
            Some(p90) => self.metric("req_p90_ms", p90, "ms", n),
            None => self.note(format!("req_p90_ms not reported: {n} samples leave < 10 beyond it")),
        }
        let (p50, rate) = lat.unscaled();
        self.note(format!(
            "request figures: best of {} runs over {n} distinct requests, at the reference \
             speed; unscaled wall clock: p50 {:.3} ms, {:.3} req/s",
            lat.runs(),
            p50.unwrap_or(0.0),
            rate.unwrap_or(0.0)
        ));
        let each: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
        self.note(format!("set-ups: {} s", each.join(" ")));
        self.metric("setup_s", crate::stats::median(setups), "s", setups.len());
        self.metric("peak_rss_mb", peak_rss_mb, "MB", 1);
        let ok = self.attempted.saturating_sub(self.failed);
        self.metric("ok_frac", ok as f64 / self.attempted.max(1) as f64, "ratio", lat.runs());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// Prints the human-readable lines and, last, the one-line JSON
    /// result holding the metrics whose names `keep` accepts.
    pub fn print(&self, keep: impl Fn(&str) -> bool) {
        for n in &self.notes {
            println!("note: {n}");
        }
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        for m in &self.metrics {
            println!(
                "metric {:<32} {:>16} {:<6} n={}",
                m.name,
                fmt_value(m.value),
                m.unit,
                m.samples
            );
        }
        let mut json = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        let mut first = true;
        for m in self.metrics.iter().filter(|m| keep(m.name)) {
            if !first {
                json.push(',');
            }
            first = false;
            json.push_str(&format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                fmt_value(m.value),
                m.unit
            ));
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// A JSON number with every digit as measured (non-finite values are a
/// bug upstream and print as 0 after being flagged by the caller).
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Peak resident set (`VmHWM`) of a process, in MB, from
/// `/proc/<pid>/status`; `None` where that file is unreadable.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The deterministic outputs of a workload's distinct requests: any
/// placement change shows in them exactly, with no noise.
#[derive(Default)]
pub struct Quality {
    /// Σ simulated cycles of the generated code.
    pub cycles: Option<u64>,
    /// Σ dynamic intercluster moves.
    pub dynamic_moves: Option<u64>,
    /// Geomean of GDP cycles ÷ Unified cycles.
    pub gdp_vs_unified: Option<f64>,
    /// Σ GDP cut data-flow weight.
    pub gdp_cut: Option<u64>,
    /// How many distinct requests the values cover.
    pub distinct: usize,
}

impl Quality {
    /// Reports the measured values: under their end-to-end names with
    /// tracing off, as `out.*` per-layer metrics when traced.
    pub fn record(&self, report: &mut Report, sheet: Option<&mut crate::layers::Sheet>) {
        let values = [
            ("cycles", "out.cycles", "cycles", self.cycles.map(|v| v as f64)),
            ("dynamic_moves", "out.dynamic_moves", "count", self.dynamic_moves.map(|v| v as f64)),
            ("gdp_vs_unified", "out.gdp_vs_unified", "ratio", self.gdp_vs_unified),
            ("gdp_cut", "out.gdp_cut", "bytes", self.gdp_cut.map(|v| v as f64)),
        ];
        match sheet {
            Some(sheet) => {
                for (_, traced, _, v) in values {
                    if let Some(v) = v {
                        sheet.set(traced, v, self.distinct);
                    }
                }
            }
            None => {
                for (name, _, unit, v) in values {
                    if let Some(v) = v {
                        report.metric(name, v, unit, self.distinct);
                    }
                }
            }
        }
    }
}

/// Per-input attempt counts and verdicts: a request fails when its
/// input's output failed any check, in any round.
pub struct Tally {
    count: Vec<u64>,
    bad: Vec<bool>,
}

/// Failure lines kept per run; later ones are only counted.
const MAX_FAILURE_LINES: usize = 20;

impl Tally {
    /// A tally over `inputs` distinct inputs.
    pub fn new(inputs: usize) -> Self {
        Tally { count: vec![0; inputs], bad: vec![false; inputs] }
    }

    /// Counts one request on input `k`.
    pub fn attempt(&mut self, k: usize) {
        self.count[k] += 1;
    }

    /// Marks input `k` failed, recording why.
    pub fn flag(&mut self, k: usize, report: &mut Report, why: impl Into<String>) {
        self.bad[k] = true;
        if report.failures.len() < MAX_FAILURE_LINES {
            report.fail(why);
        } else if report.failures.len() == MAX_FAILURE_LINES {
            report.fail("(further failures omitted)");
        }
    }

    /// Whether input `k` failed a check.
    pub fn is_bad(&self, k: usize) -> bool {
        self.bad[k]
    }

    /// Adds the attempts and failures to `report`.
    pub fn finish(&self, report: &mut Report) {
        report.attempted += self.count.iter().sum::<u64>();
        report.failed +=
            self.count.iter().zip(&self.bad).filter(|(_, &b)| b).map(|(c, _)| c).sum::<u64>();
    }
}
