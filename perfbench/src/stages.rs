//! `run_pipeline` re-composed from its public stage functions, one span
//! per layer call, for the traced run.
//!
//! The composition follows the pipeline's clean path (no downgrade):
//! verify, heap sizes, points-to, access, object groups, the method's
//! partitioner, normalization, move insertion, re-analysis of the moved
//! program, placement validation and evaluation. The caller compares
//! the outcome with `run_pipeline`'s on the same input, so a drift
//! between the two shows as a failed check instead of a quietly
//! different measurement.

use crate::trace::Tracer;
use mcpart_analysis::{AccessInfo, PointsTo};
use mcpart_core::{
    build_manifest, compute_reuse, gdp_partition, naive_partition, profile_max_partition,
    rhop_partition_detailed, unified_partition, Manifest, Method, ObjectGroups, PipelineConfig,
    ProgramDfg, RepartitionStats, RhopStats,
};
use mcpart_ir::{Profile, Program};
use mcpart_machine::Machine;
use mcpart_sched::{PerfReport, Placement};
use std::sync::Arc;
use std::time::Instant;

/// What the re-composed pipeline produced.
pub struct StageOut {
    /// Final placement of the moved program.
    pub placement: Placement,
    /// Scheduled performance.
    pub report: PerfReport,
    /// Static moves inserted.
    pub moves_inserted: usize,
    /// Computation-partitioner statistics.
    pub rhop: RhopStats,
    /// Dirty-cone statistics (incremental GDP only).
    pub repartition: Option<RepartitionStats>,
    /// Fresh manifest (GDP only).
    pub manifest: Option<Manifest>,
    /// Object groups formed.
    pub groups: usize,
}

/// The span name of each method's computation-partitioning call.
fn rhop_span(method: Method) -> &'static str {
    match method {
        Method::Gdp => "core.rhop.gdp",
        Method::ProfileMax => "core.rhop.profile_max",
        Method::Naive => "core.rhop.naive",
        Method::Unified => "core.rhop.unified",
    }
}

/// Builds the program DFG of `program` (heap sizes applied here, as
/// `gdp_partition`'s caller does) on its own, so `core.dfg` can be
/// separated from the rest of `gdp_partition` on the same input. Call
/// it outside every request span: it is a probe, not request work.
/// Returns (nodes, edges, seconds).
pub fn dfg_probe(program: &Program, profile: &Profile, jobs: usize) -> (usize, usize, f64) {
    let heaped = profile.apply_heap_sizes(program);
    let t = Instant::now();
    let dfg = ProgramDfg::build_with_jobs(&heaped, profile, jobs);
    let s = t.elapsed().as_secs_f64();
    (dfg.len(), dfg.num_edges(), s)
}

/// Runs the pipeline stage by stage under `tr`, one span per layer
/// call, inside the caller's request span.
///
/// # Errors
///
/// Returns the failing stage's message.
pub fn traced_pipeline(
    program: &Program,
    profile: &Profile,
    machine: &Machine,
    config: &PipelineConfig,
    tr: &Tracer,
) -> Result<StageOut, String> {
    let method = config.method;
    tr.time("ir.verify", || mcpart_ir::verify_program(program)).map_err(|e| e.to_string())?;
    mcpart_analysis::validate_profile(program, profile).map_err(|e| e.to_string())?;
    machine.validate().map_err(|e| e.to_string())?;

    let program = profile.apply_heap_sizes(program);
    let pts = tr.time("analysis.pointsto", || PointsTo::compute(&program));
    let access = tr.time("analysis.access", || AccessInfo::compute(&program, &pts, profile));
    let groups = tr.time("core.groups", || ObjectGroups::compute(&program, &access));

    let mut repartition = None;
    let mut manifest = None;
    let rhop = rhop_span(method);
    let (placement, rhop_stats) = match method {
        Method::Gdp => {
            let dp = tr
                .time("core.gdp", || {
                    gdp_partition(&program, profile, &access, &groups, machine, &config.gdp)
                })
                .map_err(|e| e.to_string())?;
            let mut rhop_cfg = config.rhop.clone();
            if let Some(baseline) = &config.baseline {
                let (reuse, stats) = tr.time("core.repartition.reuse", || {
                    compute_reuse(
                        &program,
                        &access,
                        &groups,
                        &dp,
                        config.gdp.merge_dependent_ops,
                        baseline,
                    )
                });
                repartition = Some(stats);
                rhop_cfg.reuse = Some(Arc::new(reuse));
            }
            let (placement, stats, outcomes) = tr
                .time(rhop, || {
                    rhop_partition_detailed(
                        &program,
                        &access,
                        profile,
                        machine,
                        &dp.object_home,
                        &rhop_cfg,
                    )
                })
                .map_err(|e| e.to_string())?;
            manifest = Some(tr.time("core.repartition.manifest", || {
                build_manifest(&program, &access, &groups, &dp, &placement, &outcomes)
            }));
            Ok((placement, stats))
        }
        Method::ProfileMax => tr.time(rhop, || {
            profile_max_partition(
                &program,
                &access,
                profile,
                machine,
                &groups,
                &config.rhop,
                config.profile_max_balance,
            )
        }),
        Method::Naive => tr.time(rhop, || {
            naive_partition(&program, &access, profile, machine, &groups, &config.rhop)
        }),
        Method::Unified => {
            tr.time(rhop, || unified_partition(&program, &access, profile, machine, &config.rhop))
        }
    }
    .map_err(|e| e.to_string())?;

    let eval_machine = match method {
        Method::Unified => machine.clone().with_unified_memory(),
        _ => machine.clone(),
    };
    let normalized = tr.time("sched.normalize", || {
        mcpart_sched::normalize_placement(&program, &placement, &access, &eval_machine, profile)
    });
    let (moved_program, moved_placement, move_stats) = tr.time("sched.moves", || {
        mcpart_sched::insert_moves_with(
            &program,
            &normalized,
            &eval_machine,
            Some(profile),
            config.move_strategy,
        )
    });
    let moved_pts = tr.time("analysis.pointsto", || PointsTo::compute(&moved_program));
    let moved_access =
        tr.time("analysis.access", || AccessInfo::compute(&moved_program, &moved_pts, profile));
    if config.check_placement {
        tr.time("sched.validate", || {
            mcpart_sched::validate_placement(
                &moved_program,
                &moved_placement,
                &moved_access,
                &eval_machine,
            )
        })
        .map_err(|e| e.to_string())?;
    }
    let report = tr.time("sched.evaluate", || {
        mcpart_sched::evaluate(
            &moved_program,
            &moved_placement,
            &eval_machine,
            profile,
            &moved_access,
        )
    });
    Ok(StageOut {
        placement: moved_placement,
        report,
        moves_inserted: move_stats.moves_inserted,
        rhop: rhop_stats,
        repartition,
        manifest,
        groups: groups.len(),
    })
}
