//! `gdp_scale`: data partitioning only — what `mcpart partition` runs
//! (heap sizes, points-to, access, object groups, `gdp_partition`) —
//! over distinct seeded synthetic programs at `jobs = 2`. The only
//! workload that engages the parallel layer; RHOP never runs.

use crate::layers::Sheet;
use crate::report::{peak_rss_mb, Quality, Report, Tally};
use crate::stages::dfg_probe;
use crate::stats::{median, Latencies};
use crate::trace::{Tracer, REQUEST};
use crate::{spread_sizes, Args, SetUp};
use mcpart_analysis::{AccessInfo, PointsTo};
use mcpart_core::{gdp_partition, DataPartition, GdpConfig, ObjectGroups};
use mcpart_ir::{ClusterId, EntityMap, ObjectId};
use mcpart_machine::Machine;
use mcpart_rng::{derive_seed, SeedableRng, SliceRandom, SmallRng};
use mcpart_workloads::{SynthSpec, Workload};
use std::time::{Duration, Instant};

/// Distinct programs per round: at least 100, so that ten lie beyond
/// the 90th percentile of their best latencies.
const PROGRAMS: usize = 104;
/// Static operations of the smallest and of the largest program: large
/// enough that DFG build and METIS dominate, small enough that a run
/// holds several rounds.
const OPS: (usize, usize) = (4_000, 20_000);
/// Worker threads of the measured requests.
const JOBS: usize = 2;

/// One request's output.
#[derive(PartialEq)]
struct Homes {
    object_home: EntityMap<ObjectId, Option<ClusterId>>,
    cut: u64,
}

/// The `partition` command's work on one program; `tr` spans each
/// layer call (a no-op when tracing is off). Returns the partition and
/// the number of object groups.
fn partition(
    w: &Workload,
    machine: &Machine,
    jobs: usize,
    tr: &Tracer,
) -> Result<(DataPartition, usize), String> {
    let program = w.profile.apply_heap_sizes(&w.program);
    let pts = tr.time("analysis.pointsto", || PointsTo::compute(&program));
    let access = tr.time("analysis.access", || AccessInfo::compute(&program, &pts, &w.profile));
    let groups = tr.time("core.groups", || ObjectGroups::compute(&program, &access));
    let cfg = GdpConfig { jobs, ..GdpConfig::default() };
    tr.time("core.gdp", || gdp_partition(&program, &w.profile, &access, &groups, machine, &cfg))
        .map(|dp| (dp, groups.len()))
        .map_err(|e| e.to_string())
}

/// Generates the run's programs from the seed.
fn generate(seed: u64) -> Vec<Workload> {
    spread_sizes(PROGRAMS, OPS.0, OPS.1)
        .into_iter()
        .enumerate()
        .map(|(i, ops)| {
            let mut spec = SynthSpec::with_target_ops(ops);
            spec.seed = derive_seed(seed, i as u64);
            spec.generate(format!("gdp_scale_{i}"))
        })
        .collect()
}

/// Runs the workload: end-to-end metrics, or per-layer when traced.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let Ok(mut setup) = SetUp::first(|| Ok::<_, std::convert::Infallible>(generate(args.seed)));
    let machine = Machine::homogeneous(2, 5);
    let order = |round: usize| {
        let mut o: Vec<usize> = (0..PROGRAMS).collect();
        o.shuffle(&mut SmallRng::seed_from_u64(derive_seed(args.seed ^ 0x6d70, round as u64)));
        o
    };
    let off = Tracer::off();
    let mut tally = Tally::new(PROGRAMS);
    let mut firsts: Vec<Option<Homes>> = (0..PROGRAMS).map(|_| None).collect();
    let mut lat = Latencies::new(PROGRAMS);
    let mut sheet = args.trace.then(Sheet::new);
    let tr = Tracer::on();
    let mut dfg_s = 0.0;
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let Ok((timed, rounds)) = setup.timed_rounds(seconds, |round, programs| {
        let mut spent = Duration::ZERO;
        for k in order(round) {
            let t = Instant::now();
            let out = partition(&programs[k], &machine, JOBS, &off);
            let dt = t.elapsed();
            spent += dt;
            lat.push(k, dt.as_secs_f64() * 1e3);
            tally.attempt(k);
            record(k, out, &mut firsts, &mut tally, &mut report);
        }
        if let Some(sheet) = sheet.as_mut() {
            for k in order(round) {
                tally.attempt(k);
                let out = {
                    let _r = tr.span(REQUEST);
                    partition(&programs[k], &machine, JOBS, &tr)
                };
                if let (Ok((_, groups)), 0) = (&out, round) {
                    sheet.add("core.groups", *groups as f64);
                }
                record(k, out, &mut firsts, &mut tally, &mut report);
                let (nodes, edges, s) = dfg_probe(&programs[k].program, &programs[k].profile, JOBS);
                dfg_s += s;
                if round == 0 {
                    sheet.add("core.dfg_nodes", nodes as f64);
                    sheet.add("core.dfg_edges", edges as f64);
                }
            }
        }
        Some(spent)
    });
    let (programs, setups) = setup.finish();
    if let Some(sheet) = sheet.as_mut() {
        sheet.fill_from_tracer(&tr, rounds, dfg_s, timed.as_secs_f64());
    }

    // Checks, outside the timed region: homes and cut byte-equal to the
    // sequential path (the reference for parallel runs), every object
    // homed on a real cluster.
    let seq = Tracer::on();
    for (k, w) in programs.iter().enumerate() {
        let reference = {
            let _r = seq.span(REQUEST);
            partition(w, &machine, 1, &seq)
        };
        match (reference, &firsts[k]) {
            (Ok((r, _)), Some(got)) => {
                let r = Homes { object_home: r.object_home, cut: r.cut };
                if r != *got {
                    tally.flag(
                        k,
                        &mut report,
                        format!("{}: jobs {JOBS} differs from jobs 1", w.name),
                    );
                }
                let stray =
                    got.object_home.values().filter(|h| !h.is_some_and(|c| c.index() < 2)).count();
                if stray > 0 {
                    tally.flag(
                        k,
                        &mut report,
                        format!("{}: {stray} object(s) without a valid home", w.name),
                    );
                }
            }
            (Err(e), _) => {
                tally.flag(k, &mut report, format!("{}: sequential reference: {e}", w.name))
            }
            (_, None) => {}
        }
    }
    let seq_s = seq.self_seconds().get("core.gdp").copied().unwrap_or(0.0);
    let q = Quality {
        gdp_cut: firsts
            .iter()
            .all(Option::is_some)
            .then(|| firsts.iter().flatten().map(|h| h.cut).sum()),
        distinct: PROGRAMS,
        ..Quality::default()
    };
    tally.finish(&mut report);
    match sheet {
        Some(mut sheet) => {
            let par = sheet.get("core.gdp.metis_s") + sheet.get("core.dfg_s");
            if par > 0.0 {
                sheet.set("par.gdp_speedup", seq_s / par, PROGRAMS);
            }
            sheet.set("workloads.gen_s", median(&setups), setups.len());
            q.record(&mut report, Some(&mut sheet));
            sheet.into_report(&mut report);
        }
        None => {
            let rss = peak_rss_mb("self").unwrap_or(0.0);
            report.end_to_end(&lat, &setups, rss);
            q.record(&mut report, None);
        }
    }
    report.note(format!(
        "{rounds} round(s) of {PROGRAMS} programs of {}–{} ops at jobs {JOBS}",
        OPS.0, OPS.1
    ));
    report
}

/// Keeps the first output per program and flags any later one that
/// differs (the determinism guard).
fn record(
    k: usize,
    out: Result<(DataPartition, usize), String>,
    firsts: &mut [Option<Homes>],
    tally: &mut Tally,
    report: &mut Report,
) {
    match out {
        Err(e) => tally.flag(k, report, format!("gdp_scale program {k}: {e}")),
        Ok((dp, _)) => {
            let homes = Homes { object_home: dp.object_home, cut: dp.cut };
            match &firsts[k] {
                Some(first) if *first != homes => tally.flag(
                    k,
                    report,
                    format!("determinism: gdp_scale program {k} changed between rounds"),
                ),
                Some(_) => {}
                None => firsts[k] = Some(homes),
            }
        }
    }
}
