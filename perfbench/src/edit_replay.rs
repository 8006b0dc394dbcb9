//! `edit_replay`: a developer's edit loop. Set-up partitions seeded
//! synthetic baselines of several sizes from scratch and writes their
//! checkpoints (with manifest). Each request then loads one baseline's
//! checkpoint, prints its IR and applies a one-function table-mask edit
//! to the text, parses, verifies and profiles the edited program, and
//! re-partitions it incrementally at jobs 1. RHOP and the checkpoint
//! code run here in the replay direction, and the text-IR path carries
//! real weight.

use crate::edit::{self, Edit};
use crate::layers::Sheet;
use crate::report::{peak_rss_mb, Quality, Report, Tally};
use crate::stages::{dfg_probe, traced_pipeline, StageOut};
use crate::stats::{median, Latencies};
use crate::trace::{Tracer, REQUEST};
use crate::{spread_sizes, Args, SetUp};
use mcpart_analysis::{AccessInfo, PointsTo};
use mcpart_core::{
    check_result, gdp_partition, load_checkpoint_any, method_slug, program_fingerprint,
    run_pipeline, run_unit_full, CheckpointHeader, CheckpointWriter, Method, ObjectGroups,
    PipelineConfig, PipelineResult, UnitRecord,
};
use mcpart_ir::{Profile, Program};
use mcpart_machine::Machine;
use mcpart_rng::{derive_seed, SeedableRng, SliceRandom, SmallRng};
use mcpart_sim::ExecConfig;
use mcpart_workloads::SynthSpec;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Baseline programs per run.
const BASELINES: usize = 12;
/// Static operations of the smallest and of the largest baseline.
const OPS: (usize, usize) = (600, 3_000);
/// Distinct edits per baseline.
const EDITS_PER_BASELINE: usize = 9;
/// Distinct edits per round: at least 100, so that ten lie beyond the
/// 90th percentile of their best latencies.
const EDITS: usize = BASELINES * EDITS_PER_BASELINE;
/// Edits also re-partitioned from scratch and compared byte for byte.
const FROM_SCRATCH: usize = 2;

/// The baseline a set-up leaves behind.
struct Baseline {
    program: Program,
    path: String,
    gen_s: f64,
    write_s: f64,
    bytes: u64,
}

/// The pipeline configuration of every run here: GDP at jobs 1.
fn config() -> PipelineConfig {
    PipelineConfig::new(Method::Gdp).with_jobs(1)
}

/// The checkpoint header a run of `program` writes (the CLI's defaults:
/// 2 clusters, 5-cycle moves, partitioned memory, no fuel cap).
fn header_of(program: &Program) -> CheckpointHeader {
    CheckpointHeader {
        program: program.name.clone(),
        program_hash: program_fingerprint(program),
        seed: config().rhop.seed,
        clusters: 2,
        latency: 5,
        memory: "partitioned".to_string(),
        gdp_fuel: None,
    }
}

/// Generates baseline `b` of `ops` operations, reads it back as `.mcir`
/// text (as a user running `mcpart gen` then `mcpart run --checkpoint`
/// would), and partitions it from scratch into a checkpoint with its
/// manifest.
fn set_up(args: &Args, machine: &Machine, b: usize, ops: usize) -> Result<Baseline, String> {
    let t = Instant::now();
    let mut spec = SynthSpec::with_target_ops(ops);
    spec.seed = derive_seed(args.seed, 0xed17 + b as u64);
    let generated = spec.generate(format!("edit_replay_{b}"));
    let gen_s = t.elapsed().as_secs_f64();
    let program = mcpart_ir::parse_program(&mcpart_ir::program_to_string(&generated.program))
        .map_err(|e| e.to_string())?;
    let profile =
        mcpart_sim::profile_run(&program, &[], ExecConfig::default()).map_err(|e| e.to_string())?;
    let run = run_unit_full(&program, &profile, machine, &config()).map_err(|e| e.to_string())?;
    let manifest = run.manifest.ok_or("the baseline run produced no manifest")?;
    let header = header_of(&program);
    let path = args.work_dir.join(format!("edit_replay.base{b}.ck")).to_string_lossy().into_owned();
    let t = Instant::now();
    let mut w = CheckpointWriter::create(&path, &header).map_err(|e| e.to_string())?;
    w.append(&run.record).map_err(|e| e.to_string())?;
    w.append_manifest(&manifest).map_err(|e| e.to_string())?;
    let write_s = t.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    Ok(Baseline { program, path, gen_s, write_s, bytes })
}

/// One request's output, kept for the checks.
struct Out {
    program: Program,
    profile: Profile,
    result: PipelineResult,
}

/// The re-partition of one request: `run_pipeline`'s result untraced,
/// the stage-by-stage composition's when traced.
enum Partition {
    Pipeline(PipelineResult),
    Staged(StageOut),
}

/// One request: the edited program, its profile and its re-partition.
fn request(
    base: &Baseline,
    e: &Edit,
    machine: &Machine,
    tr: &Tracer,
) -> Result<(Program, Profile, Partition), String> {
    let _r = tr.span(REQUEST);
    let ck = tr
        .time("core.checkpoint.parse", || load_checkpoint_any(&base.path))
        .map_err(|e| e.to_string())?;
    let text = tr.time("ir.print", || mcpart_ir::program_to_string(&base.program));
    let edited = e.apply(&text);
    let program =
        tr.time("ir.parse", || mcpart_ir::parse_program(&edited)).map_err(|e| e.to_string())?;
    tr.time("ir.verify", || mcpart_ir::verify_program(&program)).map_err(|e| e.to_string())?;
    let profile = tr
        .time("sim.profile", || mcpart_sim::profile_run(&program, &[], ExecConfig::default()))
        .map_err(|e| e.to_string())?;
    if !ck.header.compatible_baseline(&header_of(&program)) {
        return Err("baseline checkpoint is incompatible with the edited program".into());
    }
    let unit = format!("{}/{}", program.name, method_slug(Method::Gdp));
    let manifest = ck.manifest_for(&unit).cloned().ok_or("baseline has no manifest")?;
    let mut cfg = config();
    cfg.baseline = Some(Arc::new(manifest));
    let partition = if tr.enabled() {
        Partition::Staged(traced_pipeline(&program, &profile, machine, &cfg, tr)?)
    } else {
        Partition::Pipeline(
            run_pipeline(&program, &profile, machine, &cfg).map_err(|e| e.to_string())?,
        )
    };
    Ok((program, profile, partition))
}

/// A result's pinned bytes: its checkpoint record (wall-clock field
/// zeroed) and manifest.
fn pinned(program: &Program, r: &PipelineResult) -> String {
    let unit = format!("{}/{}", program.name, method_slug(Method::Gdp));
    let mut rec = UnitRecord::from_result(&unit, r, &[]);
    rec.partition_ms = 0.0;
    let manifest = r.manifest.as_ref().map(|m| m.to_json()).unwrap_or_default();
    format!("{}\n{manifest}\n", rec.to_json())
}

/// Runs the workload: end-to-end metrics, or per-layer when traced.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let machine = Machine::homogeneous(2, 5);
    let (mut gens, mut writes) = (Vec::new(), Vec::new());
    let sizes = spread_sizes(BASELINES, OPS.0, OPS.1);
    let set_up = SetUp::first(|| {
        let bases = (0..BASELINES)
            .map(|b| set_up(args, &machine, b, sizes[b]))
            .collect::<Result<Vec<_>, _>>()?;
        gens.push(bases.iter().map(|b| b.gen_s).sum());
        writes.push(bases.iter().map(|b| b.write_s).sum());
        Ok::<_, String>(bases)
    });
    let mut setup = match set_up {
        Ok(setup) => setup,
        Err(e) => {
            report.fail(format!("edit_replay set-up: {e}"));
            report.attempted = 1;
            report.failed = 1;
            return report;
        }
    };
    // Request `k` is edit `edits[k].1` of baseline `edits[k].0`.
    let edits: Vec<(usize, Edit)> = setup
        .data()
        .iter()
        .enumerate()
        .flat_map(|(b, base)| {
            let text = mcpart_ir::program_to_string(&base.program);
            let seed = derive_seed(args.seed, 0xed18 + b as u64);
            edit::generate(&text, EDITS_PER_BASELINE, seed).into_iter().map(move |e| (b, e))
        })
        .collect();
    let order = |round: usize| {
        let mut o: Vec<usize> = (0..EDITS).collect();
        o.shuffle(&mut SmallRng::seed_from_u64(derive_seed(args.seed ^ 0xed19, round as u64)));
        o
    };

    let off = Tracer::off();
    let mut tally = Tally::new(EDITS);
    let mut firsts: Vec<Option<Out>> = (0..EDITS).map(|_| None).collect();
    let mut lat = Latencies::new(EDITS);
    let mut sheet = args.trace.then(Sheet::new);
    let tr = Tracer::on();
    let mut dfg_s = 0.0;
    let (mut dirty, mut total) = (0usize, 0usize);
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let run = setup.timed_rounds(seconds, |round, bases| {
        let mut spent = Duration::ZERO;
        for k in order(round) {
            let t = Instant::now();
            let (b, e) = &edits[k];
            let out = request(&bases[*b], e, &machine, &off);
            let dt = t.elapsed();
            spent += dt;
            lat.push(k, dt.as_secs_f64() * 1e3);
            tally.attempt(k);
            match (out, &firsts[k]) {
                (Ok((program, profile, Partition::Pipeline(result))), None) => {
                    firsts[k] = Some(Out { program, profile, result })
                }
                (Ok((_, _, Partition::Pipeline(r))), Some(first)) => {
                    if r.cycles() != first.result.cycles()
                        || r.dynamic_moves() != first.result.dynamic_moves()
                        || r.placement != first.result.placement
                        || r.repartition != first.result.repartition
                    {
                        tally.flag(
                            k,
                            &mut report,
                            format!("determinism: edit {k} changed between rounds"),
                        );
                    }
                }
                (Ok((_, _, Partition::Staged(_))), _) => {
                    unreachable!("an untraced request runs the pipeline")
                }
                (Err(e), _) => {
                    tally.flag(k, &mut report, format!("edit {k} ({:?}): {e}", edits[k].1))
                }
            }
        }
        if let Some(sheet) = sheet.as_mut() {
            for k in order(round) {
                tally.attempt(k);
                let (b, e) = &edits[k];
                let out = request(&bases[*b], e, &machine, &tr);
                let (Ok((program, profile, Partition::Staged(out))), Some(first)) =
                    (out, &firsts[k])
                else {
                    tally.flag(k, &mut report, format!("traced edit {k} failed"));
                    continue;
                };
                let (nodes, edges, s) = dfg_probe(&program, &profile, 1);
                dfg_s += s;
                let f = &first.result;
                if out.placement != f.placement
                    || out.report.total_cycles != f.cycles()
                    || out.report.dynamic_moves != f.dynamic_moves()
                    || out.repartition != f.repartition
                    || out.manifest.as_ref().map(|m| m.to_json())
                        != f.manifest.as_ref().map(|m| m.to_json())
                {
                    tally.flag(
                        k,
                        &mut report,
                        format!("traced edit {k} differs from run_pipeline"),
                    );
                }
                if round == 0 {
                    sheet.add_stage(&out);
                    sheet.add("core.dfg_nodes", nodes as f64);
                    sheet.add("core.dfg_edges", edges as f64);
                    if let Some(rp) = &out.repartition {
                        dirty += rp.dirty_funcs;
                        total += rp.total_funcs;
                    }
                }
            }
        }
        Some(spent)
    });
    let (bases, setups) = setup.finish();
    let (timed, rounds) = match run {
        Ok(done) => done,
        Err(e) => {
            report.fail(format!("edit_replay set-up: {e}"));
            report.attempted = 1;
            report.failed = 1;
            return report;
        }
    };
    if let Some(sheet) = sheet.as_mut() {
        sheet.set("core.repartition.dirty_funcs", dirty as f64, EDITS);
        sheet.set("core.repartition.cone_frac", dirty as f64 / total.max(1) as f64, EDITS);
        sheet.fill_from_tracer(&tr, rounds, dfg_s, timed.as_secs_f64());
    }

    // Checks, outside the timed region.
    let t = Instant::now();
    for (k, first) in firsts.iter().enumerate() {
        let Some(o) = first else { continue };
        let verdict =
            check_result(&o.program, &o.profile, &machine, &o.result, ExecConfig::default());
        if !verdict.passed() {
            tally.flag(k, &mut report, format!("oracle rejects edit {k}:\n{verdict}"));
        }
        match &o.result.repartition {
            Some(rp) if rp.dirty_funcs >= 1 && rp.replayed_funcs >= 1 => {}
            other => {
                tally.flag(k, &mut report, format!("edit {k}: no partial dirty cone: {other:?}"))
            }
        }
    }
    let check_s = t.elapsed().as_secs_f64();
    let mut sample: Vec<usize> = (0..EDITS).collect();
    sample.shuffle(&mut SmallRng::seed_from_u64(derive_seed(args.seed, 0xed1a)));
    for &k in sample.iter().take(FROM_SCRATCH) {
        let Some(o) = &firsts[k] else { continue };
        match run_pipeline(&o.program, &o.profile, &machine, &config()) {
            Ok(scratch) if pinned(&o.program, &scratch) == pinned(&o.program, &o.result) => {}
            Ok(_) => {
                tally.flag(k, &mut report, format!("edit {k}: incremental differs from scratch"))
            }
            Err(e) => tally.flag(k, &mut report, format!("edit {k}: from-scratch run: {e}")),
        }
    }
    let mut q = Quality { distinct: EDITS, ..Quality::default() };
    if firsts.iter().all(Option::is_some) {
        let outs: Vec<&Out> = firsts.iter().flatten().collect();
        q.cycles = Some(outs.iter().map(|o| o.result.cycles()).sum());
        q.dynamic_moves = Some(outs.iter().map(|o| o.result.dynamic_moves()).sum());
        let mut cut = 0;
        for (k, o) in outs.iter().enumerate() {
            let program = o.profile.apply_heap_sizes(&o.program);
            let pts = PointsTo::compute(&program);
            let access = AccessInfo::compute(&program, &pts, &o.profile);
            let groups = ObjectGroups::compute(&program, &access);
            match gdp_partition(&program, &o.profile, &access, &groups, &machine, &config().gdp) {
                Ok(dp) => cut += dp.cut,
                Err(e) => tally.flag(k, &mut report, format!("edit {k}: gdp cut: {e}")),
            }
        }
        q.gdp_cut = Some(cut);
    }
    tally.finish(&mut report);
    match sheet {
        Some(mut sheet) => {
            sheet.set("workloads.gen_s", median(&gens), gens.len());
            sheet.set("core.checkpoint.write_s", median(&writes), writes.len());
            let bytes: u64 = bases.iter().map(|b| b.bytes).sum();
            sheet.set("core.checkpoint.bytes", bytes as f64, BASELINES);
            sheet.set("core.oracle.check_s", check_s, EDITS);
            q.record(&mut report, Some(&mut sheet));
            sheet.into_report(&mut report);
        }
        None => {
            let rss = peak_rss_mb("self").unwrap_or(0.0);
            report.end_to_end(&lat, &setups, rss);
            q.record(&mut report, None);
        }
    }
    let funcs: Vec<usize> = bases.iter().map(|b| b.program.functions.len()).collect();
    report.note(format!(
        "{rounds} round(s) of {EDITS} edits of {BASELINES} baselines of {sizes:?} ops \
         ({funcs:?} functions); oracle {check_s:.3} s"
    ));
    report
}
