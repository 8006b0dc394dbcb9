//! The per-layer metrics of `BENCHMARK.json` and the sheet a traced
//! run fills in. A metric whose layer a workload never calls stays 0.
//!
//! Times named `*_s` are seconds of self time per round (one pass over
//! the workload's distinct requests); counts are summed over the
//! distinct requests; `*_us` / `*_ms` are per call.

use crate::report::Report;
use crate::stages::StageOut;
use crate::trace::{Tracer, REQUEST};
use std::collections::BTreeMap;

/// Every per-layer metric with its unit, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.by_name_ms", "ms"),
    ("workloads.gen_s", "s"),
    ("ir.print_s", "s"),
    ("ir.parse_s", "s"),
    ("ir.verify_s", "s"),
    ("sim.profile_s", "s"),
    ("analysis.pointsto_s", "s"),
    ("analysis.access_s", "s"),
    ("core.groups_s", "s"),
    ("core.groups", "count"),
    ("core.dfg_s", "s"),
    ("core.dfg_nodes", "count"),
    ("core.dfg_edges", "count"),
    ("core.gdp.metis_s", "s"),
    ("par.gdp_speedup", "ratio"),
    ("core.rhop.gdp_s", "s"),
    ("core.rhop.profile_max_s", "s"),
    ("core.rhop.naive_s", "s"),
    ("core.rhop.unified_s", "s"),
    ("core.rhop.estimator_calls", "count"),
    ("core.rhop.full_evals", "count"),
    ("core.rhop.pruned_frac", "ratio"),
    ("core.rhop.moves_accepted", "count"),
    ("core.rhop.regions", "count"),
    ("sched.normalize_s", "s"),
    ("sched.moves_s", "s"),
    ("sched.validate_s", "s"),
    ("sched.evaluate_s", "s"),
    ("sched.moves_inserted", "count"),
    ("sched.stall_cycles", "cycles"),
    ("sched.transfer_cycles", "cycles"),
    ("core.repartition.reuse_s", "s"),
    ("core.repartition.manifest_s", "s"),
    ("core.repartition.dirty_funcs", "count"),
    ("core.repartition.cone_frac", "ratio"),
    ("core.checkpoint.parse_s", "s"),
    ("core.checkpoint.write_s", "s"),
    ("core.checkpoint.bytes", "bytes"),
    ("core.serve.parse_job_us", "us"),
    ("core.serve.cache_key_us", "us"),
    ("core.serve.verify_us", "us"),
    ("core.serve.render_us", "us"),
    ("core.serve.hit_frac", "ratio"),
    ("core.oracle.check_s", "s"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("out.cycles", "cycles"),
    ("out.dynamic_moves", "count"),
    ("out.gdp_vs_unified", "ratio"),
    ("out.gdp_cut", "bytes"),
];

/// Per-layer values under construction.
pub struct Sheet {
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, usize>,
    unknown: Vec<String>,
    /// Pruned RHOP probes, the numerator of `core.rhop.pruned_frac`.
    pruned: u64,
}

impl Sheet {
    /// All metrics at 0.
    pub fn new() -> Self {
        Sheet {
            values: PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect(),
            samples: BTreeMap::new(),
            unknown: Vec::new(),
            pruned: 0,
        }
    }

    /// Sets one metric from `samples` samples.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        match PER_LAYER.iter().find(|(n, _)| *n == name) {
            Some((n, _)) => {
                self.values.insert(n, value);
                self.samples.insert(n, samples);
            }
            None => self.unknown.push(name.to_string()),
        }
    }

    /// The current value of one metric (0 when unknown).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Adds the counts of one re-composed pipeline run.
    pub fn add_stage(&mut self, out: &StageOut) {
        let st = &out.rhop;
        self.add("core.rhop.estimator_calls", st.estimator_calls as f64);
        self.add("core.rhop.full_evals", st.full_evals as f64);
        self.add("core.rhop.moves_accepted", st.moves_accepted as f64);
        self.add("core.rhop.regions", st.regions as f64);
        self.pruned += st.pruned_evals;
        self.add("sched.moves_inserted", out.moves_inserted as f64);
        self.add("sched.stall_cycles", out.report.stall_cycles as f64);
        self.add("sched.transfer_cycles", out.report.transfer_cycles as f64);
        self.add("core.groups", out.groups as f64);
    }

    /// Adds to one metric.
    pub fn add(&mut self, name: &str, value: f64) {
        let old = PER_LAYER.iter().find(|(n, _)| *n == name).map(|(n, _)| self.values[n]);
        let n = self.samples.get(name).copied().unwrap_or(0) + 1;
        self.set(name, old.unwrap_or(0.0) + value, n);
    }

    /// Sets every `<span>_s` metric from the tracer's self times over
    /// `rounds` traced rounds, plus `trace.unattributed_frac` and
    /// `trace.overhead_frac`: the traced requests' wall time (the union
    /// of their spans, so probes and checks between them stay out)
    /// ÷ `untraced_wall`, the summed latency of the same requests
    /// untraced, − 1. `core.gdp` spans become `core.gdp.metis_s` after
    /// `dfg_s` (the probe's DFG time on the same inputs) is taken out of
    /// them.
    pub fn fill_from_tracer(&mut self, tr: &Tracer, rounds: usize, dfg_s: f64, untraced_wall: f64) {
        let rounds = rounds.max(1) as f64;
        let counts = tr.counts();
        for (span, secs) in tr.self_seconds() {
            let n = counts.get(span).copied().unwrap_or(0);
            match span {
                REQUEST => {}
                "core.gdp" => {
                    self.set("core.gdp.metis_s", ((secs - dfg_s) / rounds).max(0.0), n);
                    self.set("core.dfg_s", dfg_s / rounds, n);
                }
                "workloads.by_name" => {
                    self.set("workloads.by_name_ms", secs * 1e3 / n.max(1) as f64, n)
                }
                _ => self.set(&format!("{span}_s"), secs / rounds, n),
            }
        }
        let (traced_wall, unattributed) = tr.wall_and_unattributed();
        let requests = counts.get(REQUEST).copied().unwrap_or(0);
        self.set("trace.unattributed_frac", unattributed, requests);
        if untraced_wall > 0.0 {
            self.set("trace.overhead_frac", traced_wall / untraced_wall - 1.0, requests);
        }
    }

    /// Moves the sheet into `report`; a metric name outside
    /// [`PER_LAYER`] is a benchmark bug and fails the run.
    pub fn into_report(mut self, report: &mut Report) {
        let calls = self.get("core.rhop.estimator_calls");
        if calls > 0.0 {
            let n = self.samples.get("core.rhop.estimator_calls").copied().unwrap_or(0);
            self.set("core.rhop.pruned_frac", self.pruned as f64 / calls, n);
        }
        for name in self.unknown {
            report.fail(format!("per-layer metric `{name}` is not listed in BENCHMARK.json"));
        }
        for (name, unit) in PER_LAYER {
            let samples = self.samples.get(name).copied().unwrap_or(0);
            report.metric(name, self.values[name], unit, samples);
        }
    }
}
