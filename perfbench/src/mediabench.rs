//! `mediabench`: the paper's own evaluation. The 22 built-in programs
//! × {GDP, Profile Max, Naive, Unified} × move latency {1, 5, 10} — 264
//! `run_pipeline` requests per round at `--jobs 1`, in a seeded order;
//! the programs are built and profiled once in set-up.

use crate::layers::Sheet;
use crate::report::{peak_rss_mb, Quality, Report, Tally};
use crate::stages::{dfg_probe, traced_pipeline};
use crate::stats::{geomean, Latencies};
use crate::trace::{Tracer, REQUEST};
use crate::{Args, SetUp};
use mcpart_analysis::{AccessInfo, PointsTo};
use mcpart_core::{
    check_result, gdp_partition, run_pipeline, Method, ObjectGroups, PipelineConfig, PipelineResult,
};
use mcpart_machine::Machine;
use mcpart_rng::{derive_seed, SeedableRng, SliceRandom, SmallRng};
use std::time::{Duration, Instant};

/// Move latencies of the paper's Figures 7 and 8.
const LATENCIES: [u32; 3] = [1, 5, 10];

struct Key {
    program: usize,
    method: Method,
    latency: usize,
}

/// Runs the workload: end-to-end metrics, or per-layer when traced.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let Ok(mut setup) = SetUp::first(|| Ok::<_, std::convert::Infallible>(mcpart_workloads::all()));
    let machines: Vec<Machine> = LATENCIES.iter().map(|&l| Machine::homogeneous(2, l)).collect();
    let mut keys = Vec::new();
    for program in 0..setup.data().len() {
        for method in Method::ALL {
            for latency in 0..LATENCIES.len() {
                keys.push(Key { program, method, latency });
            }
        }
    }
    let config = |m: Method| PipelineConfig::new(m).with_jobs(1);
    let order = |round: usize| {
        let mut o: Vec<usize> = (0..keys.len()).collect();
        o.shuffle(&mut SmallRng::seed_from_u64(derive_seed(args.seed, round as u64)));
        o
    };

    let mut tally = Tally::new(keys.len());
    let mut firsts: Vec<Option<PipelineResult>> = (0..keys.len()).map(|_| None).collect();
    let mut lat = Latencies::new(keys.len());
    let mut sheet = args.trace.then(Sheet::new);
    let tr = Tracer::on();
    let mut dfg_s = 0.0;
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let Ok((timed, rounds)) = setup.timed_rounds(seconds, |round, programs| {
        let mut spent = Duration::ZERO;
        for k in order(round) {
            let key = &keys[k];
            let w = &programs[key.program];
            let t = Instant::now();
            let out =
                run_pipeline(&w.program, &w.profile, &machines[key.latency], &config(key.method));
            let dt = t.elapsed();
            spent += dt;
            lat.push(k, dt.as_secs_f64() * 1e3);
            tally.attempt(k);
            match (out, &firsts[k]) {
                (Err(e), _) => {
                    tally.flag(k, &mut report, format!("{} {}: {e}", w.name, key.method))
                }
                (Ok(r), Some(first)) => {
                    if !same_output(&r, first) {
                        tally.flag(
                            k,
                            &mut report,
                            format!(
                                "determinism: {} {} latency {} changed between rounds",
                                w.name, key.method, LATENCIES[key.latency]
                            ),
                        );
                    }
                }
                (Ok(r), None) => firsts[k] = Some(r),
            }
        }
        if let Some(sheet) = sheet.as_mut() {
            for k in order(round) {
                let key = &keys[k];
                let w = &programs[key.program];
                let cfg = config(key.method);
                tally.attempt(k);
                let out = {
                    let _r = tr.span(REQUEST);
                    traced_pipeline(&w.program, &w.profile, &machines[key.latency], &cfg, &tr)
                };
                if key.method == Method::Gdp {
                    let (nodes, edges, s) = dfg_probe(&w.program, &w.profile, cfg.gdp.jobs);
                    dfg_s += s;
                    if round == 0 {
                        sheet.add("core.dfg_nodes", nodes as f64);
                        sheet.add("core.dfg_edges", edges as f64);
                    }
                }
                let (Ok(out), Some(first)) = (out, &firsts[k]) else {
                    tally.flag(k, &mut report, format!("traced {} {} failed", w.name, key.method));
                    continue;
                };
                if out.placement != first.placement
                    || out.report.total_cycles != first.cycles()
                    || out.report.dynamic_moves != first.dynamic_moves()
                {
                    tally.flag(
                        k,
                        &mut report,
                        format!("traced {} {} differs from run_pipeline", w.name, key.method),
                    );
                }
                if round == 0 {
                    sheet.add_stage(&out);
                }
            }
        }
        Some(spent)
    });
    let (programs, setups) = setup.finish();
    if let Some(sheet) = sheet.as_mut() {
        sheet.fill_from_tracer(&tr, rounds, dfg_s, timed.as_secs_f64());
    }

    // Checks, outside the timed region: the oracle judges every
    // distinct placement.
    let t = Instant::now();
    for (k, first) in firsts.iter().enumerate() {
        let Some(r) = first else { continue };
        let key = &keys[k];
        let w = &programs[key.program];
        let verdict = check_result(
            &w.program,
            &w.profile,
            &machines[key.latency],
            r,
            mcpart_sim::ExecConfig::default(),
        );
        if !verdict.passed() {
            tally.flag(
                k,
                &mut report,
                format!("oracle rejects {} {}:\n{verdict}", w.name, key.method),
            );
        }
    }
    let check_s = t.elapsed().as_secs_f64();
    report.note(format!("oracle judged {} placements in {check_s:.3} s", keys.len()));

    let mut q = Quality { distinct: keys.len(), ..Quality::default() };
    if firsts.iter().all(Option::is_some) {
        let results: Vec<&PipelineResult> = firsts.iter().flatten().collect();
        q.cycles = Some(results.iter().map(|r| r.cycles()).sum());
        q.dynamic_moves = Some(results.iter().map(|r| r.dynamic_moves()).sum());
        let mut ratios = Vec::new();
        let mut cut = 0;
        for (p, w) in programs.iter().enumerate() {
            for (l, machine) in machines.iter().enumerate() {
                let find = |m: Method| {
                    keys.iter()
                        .position(|k| k.program == p && k.latency == l && k.method == m)
                        .and_then(|i| firsts[i].as_ref())
                        .map(|r| r.cycles() as f64)
                };
                if let (Some(g), Some(u)) = (find(Method::Gdp), find(Method::Unified)) {
                    ratios.push(g / u);
                }
                let program = w.profile.apply_heap_sizes(&w.program);
                let pts = PointsTo::compute(&program);
                let access = AccessInfo::compute(&program, &pts, &w.profile);
                let groups = ObjectGroups::compute(&program, &access);
                let gcfg = config(Method::Gdp).gdp;
                match gdp_partition(&program, &w.profile, &access, &groups, machine, &gcfg) {
                    Ok(dp) => cut += dp.cut,
                    Err(e) => report.fail(format!("gdp cut of {}: {e}", w.name)),
                }
            }
        }
        q.gdp_vs_unified = Some(geomean(&ratios));
        q.gdp_cut = Some(cut);
    }
    tally.finish(&mut report);
    match sheet {
        Some(mut sheet) => {
            sheet.set("core.oracle.check_s", check_s, keys.len());
            q.record(&mut report, Some(&mut sheet));
            sheet.into_report(&mut report);
        }
        None => {
            let rss = peak_rss_mb("self").unwrap_or(0.0);
            report.end_to_end(&lat, &setups, rss);
            q.record(&mut report, None);
        }
    }
    report.note(format!("{rounds} round(s) of {} requests", keys.len()));
    report
}

/// Whether two runs of one request produced the same output.
fn same_output(a: &PipelineResult, b: &PipelineResult) -> bool {
    a.cycles() == b.cycles()
        && a.dynamic_moves() == b.dynamic_moves()
        && a.method == b.method
        && a.placement == b.placement
}
