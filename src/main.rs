//! `mcpart` — command-line driver for the data/computation partitioner.
//!
//! ```text
//! mcpart list                                   # available benchmarks
//! mcpart run rawcaudio --method gdp --latency 5 # one pipeline run
//! mcpart compare rawcaudio --latency 10         # all four methods
//! mcpart dump rawcaudio > rawcaudio.mcir        # textual IR
//! mcpart exec program.mcir --method gdp         # partition a text-IR file
//! mcpart partition rawcaudio                    # object homes chosen by GDP
//! ```
//!
//! Exit codes: `0` success, `1` pipeline or input failure (unreadable
//! file, parse error, partitioner failure), `2` usage error (unknown
//! command or malformed flags).

use mcpart::core::{
    load_checkpoint, method_slug, program_fingerprint, run_pipeline, run_unit_full,
    CheckpointError, CheckpointHeader, CheckpointWriter, Downgrade, Manifest, Method, PanicPlan,
    PipelineConfig, RepartitionStats, ServeConfig, UnitRecord,
};
use mcpart::ir::{parse_program, program_to_string, Profile, Program};
use mcpart::machine::Machine;
use mcpart::sim::{profile_run, ExecConfig};
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::Duration;

/// Prints a line to stdout, exiting quietly when the consumer has gone
/// away (e.g. `mcpart list | head`): a broken pipe is a normal way for
/// a CLI's output to end, not a panic.
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write;
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

const USAGE: &str =
    "usage: mcpart <list|gen|run|compare|dump|exec|partition|repartition|schedule|serve|chaos|\
     stats|trace-check|bench-diff|checkpoint-diff> [args]
gen <spec> [--out <path>]  generate a synthetic scale program: <spec> is
         a preset (synth_10k, synth_100k, synth_1m) or key=value,...
         (keys ops,funcs,depth,region,objects,sharing,trips,seed);
         prints size stats, --out writes the .mcir text. Synthetic
         names/specs also work as targets for partition/run/compare.
options: --method gdp|profile-max|naive|unified  --latency <cycles>
         --clusters <n>  --memory partitioned|unified|coherent:<penalty>
         --gdp-fuel <n>  (cap GDP refinement; exhaustion triggers the
                          ProfileMax/Naive fallback ladder)
         --jobs <n>      (worker threads for partitioning; 0 = all
                          cores, the default; never changes results)
         --trace-out <path>  (write a Chrome trace_event JSON of the run)
         --metrics           (print the observability summary table)
         --retries <n>       (panic retry budget per work unit; default 2)
         --checkpoint <path> (append one JSON record per finished unit)
         --resume            (with --checkpoint: skip recorded units and
                              replay their results; crash-safe)
         --unit-timeout <ms> (wall-clock ceiling per partition attempt)
         --allow-quarantine  (exit 0 even when units were quarantined)
         --inject-panic <func[:n]> (testing: panic while partitioning
                              `func`, the first n attempts; default all)
         --halt-after <n>    (testing: die mid-write after n completed
                              units/jobs, simulating kill -9)
repartition <target> --baseline <checkpoint> [run options]
         incremental re-partition against a prior GDP run's manifest:
         functions whose content, accessed data groups, and merge
         neighbourhood are unchanged replay the baseline's placement
         byte-identically; only the dirty cone re-runs RHOP. A
         manifest-less baseline degrades to a full run (never an
         error); an incompatible one (different name/seed/clusters/
         latency/memory/fuel) is rejected with exit 2
serve <spool-dir> [--drain] [--batch n] [--queue n] [--poll-ms n]
         [--telemetry-every n] [--max-requeues n]
         long-running partition service: submit jobs as
         <spool-dir>/*.job files, read results from <spool-dir>/out/;
         repeat submissions are integrity-verified cache hits; the
         flight recorder appends metric snapshots to
         <spool-dir>/telemetry/ every n committed jobs (0 disables);
         a job requeued by crash recovery more than n times (default 3)
         is quarantined to failed/ as poison instead of requeued
chaos <scenarios> [--seed n] [--no-shrink] [--corpus dir] [--sweep file]
         [--jobs n] [--metrics] [--trace-out path] | --replay <file>
         deterministic soak: samples (program, machine, fault-plan)
         scenarios from a k-cluster sweep matrix, runs the pipeline
         under injected faults, and judges every outcome with an
         independent placement oracle (well-formedness, recounted
         bytes/cut, move accounting, ladder soundness, semantics,
         jobs-invariance at --jobs workers). Failures are shrunk to
         minimal repros written to --corpus; --replay re-runs one
         repro file exactly; --sweep replaces the built-in machine
         matrix (malformed files exit 2 with line/column)
stats <telemetry-dir|trace.json> [--pinned]  per-stage latency and
         work-distribution percentile tables (p50/p90/p99) from a serve
         telemetry directory or a Chrome trace file; --pinned prints
         only the deterministic work histograms as JSON
trace-check <path> [--require cat/name[=v],...] [--forbid cat/name,...]
         validates a trace file; --require checks a counter exists
         (and equals v, if given), --forbid fails on any nonzero
         sample (e.g. --forbid supervise/quarantined for clean runs)
bench-diff <old.json> <new.json> [--threshold pct] [--time-threshold pct]
         regression gate over two BENCH_partition.json artifacts;
         exit 1 on regression, 2 on a malformed artifact
checkpoint-diff <a> <b>  compares two checkpoint files, ignoring
         non-pinned fields (wall-clock); manifest deltas are reported
         per function, sorted; exit 1 on any difference";

/// A CLI failure, split by whose fault it is: `Usage` means the command
/// line itself was malformed (exit 2, with usage text), `Config` means
/// the configuration on disk is unusable — a corrupt or mismatched
/// checkpoint (exit 2, diagnostic only), `Runtime` means the inputs or
/// the pipeline failed (exit 1).
enum CliError {
    Usage(String),
    Config(String),
    Runtime(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Runtime(msg)
    }
}

struct Options {
    latency: u32,
    clusters: usize,
    memory: MemoryChoice,
    method: Method,
    gdp_fuel: Option<u64>,
    jobs: usize,
    trace_out: Option<String>,
    metrics: bool,
    retries: u32,
    checkpoint: Option<String>,
    resume: bool,
    unit_timeout_ms: Option<u64>,
    allow_quarantine: bool,
    inject_panic: Option<PanicPlan>,
    halt_after: Option<u64>,
}

#[derive(Clone, Copy, PartialEq)]
enum MemoryChoice {
    Partitioned,
    Unified,
    Coherent(u32),
}

impl Default for Options {
    fn default() -> Self {
        Options {
            latency: 5,
            clusters: 2,
            memory: MemoryChoice::Partitioned,
            method: Method::Gdp,
            gdp_fuel: None,
            jobs: 0,
            trace_out: None,
            metrics: false,
            retries: 2,
            checkpoint: None,
            resume: false,
            unit_timeout_ms: None,
            allow_quarantine: false,
            inject_panic: None,
            halt_after: None,
        }
    }
}

fn parse_method(s: &str) -> Option<Method> {
    Some(match s.to_ascii_lowercase().as_str() {
        "gdp" => Method::Gdp,
        "profile-max" | "profilemax" | "pm" => Method::ProfileMax,
        "naive" => Method::Naive,
        "unified" => Method::Unified,
        _ => return None,
    })
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--latency" => {
                o.latency = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--latency needs a number")?;
                i += 1;
            }
            "--clusters" => {
                o.clusters = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--clusters needs a number")?;
                if o.clusters == 0 {
                    return Err("--clusters must be at least 1".into());
                }
                i += 1;
            }
            "--method" => {
                o.method = args
                    .get(i + 1)
                    .and_then(|v| parse_method(v))
                    .ok_or("--method must be gdp|profile-max|naive|unified")?;
                i += 1;
            }
            "--gdp-fuel" => {
                o.gdp_fuel = Some(
                    args.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--gdp-fuel needs a number")?,
                );
                i += 1;
            }
            "--jobs" => {
                o.jobs =
                    args.get(i + 1).and_then(|v| v.parse().ok()).ok_or("--jobs needs a number")?;
                i += 1;
            }
            "--trace-out" => {
                o.trace_out = Some(args.get(i + 1).ok_or("--trace-out needs a path")?.to_string());
                i += 1;
            }
            "--metrics" => {
                o.metrics = true;
            }
            "--retries" => {
                o.retries = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--retries needs a number")?;
                i += 1;
            }
            "--checkpoint" => {
                o.checkpoint =
                    Some(args.get(i + 1).ok_or("--checkpoint needs a path")?.to_string());
                i += 1;
            }
            "--resume" => {
                o.resume = true;
            }
            "--unit-timeout" => {
                o.unit_timeout_ms = Some(
                    args.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .filter(|&ms| ms > 0)
                        .ok_or("--unit-timeout needs a positive millisecond count")?,
                );
                i += 1;
            }
            "--allow-quarantine" => {
                o.allow_quarantine = true;
            }
            "--halt-after" => {
                o.halt_after = Some(
                    args.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or("--halt-after needs a positive count")?,
                );
                i += 1;
            }
            "--inject-panic" => {
                let v = args.get(i + 1).ok_or("--inject-panic needs a function name")?;
                o.inject_panic = Some(match v.split_once(':') {
                    Some((func, count)) => PanicPlan {
                        func: func.to_string(),
                        panics: count
                            .parse()
                            .map_err(|_| "--inject-panic <func[:n]> needs a numeric count")?,
                    },
                    None => PanicPlan::always(v),
                });
                i += 1;
            }
            "--memory" => {
                let v = args.get(i + 1).ok_or("--memory needs a value")?;
                o.memory = if v == "partitioned" {
                    MemoryChoice::Partitioned
                } else if v == "unified" {
                    MemoryChoice::Unified
                } else if let Some(p) = v.strip_prefix("coherent:") {
                    MemoryChoice::Coherent(
                        p.parse().map_err(|_| "coherent:<penalty> needs a number")?,
                    )
                } else {
                    return Err("--memory must be partitioned|unified|coherent:<penalty>".into());
                };
                i += 1;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 1;
    }
    if o.resume && o.checkpoint.is_none() {
        return Err("--resume requires --checkpoint <path>".into());
    }
    Ok(o)
}

fn config_of(o: &Options, method: Method) -> PipelineConfig {
    let mut cfg = PipelineConfig::new(method).with_jobs(o.jobs).with_retries(o.retries);
    cfg.gdp.fuel = o.gdp_fuel;
    cfg.unit_timeout = o.unit_timeout_ms.map(Duration::from_millis);
    cfg.rhop.inject_panic = o.inject_panic.clone();
    cfg
}

/// One observability sink per invocation: recording only when the user
/// asked for a trace file or the metrics table.
fn obs_of(o: &Options) -> mcpart::obs::Obs {
    if o.trace_out.is_some() || o.metrics {
        mcpart::obs::Obs::enabled()
    } else {
        mcpart::obs::Obs::disabled()
    }
}

/// Writes the Chrome trace and/or prints the summary table, as
/// requested by `--trace-out` / `--metrics`.
fn emit_obs(o: &Options, obs: &mcpart::obs::Obs) -> Result<(), String> {
    if let Some(path) = &o.trace_out {
        std::fs::write(path, obs.chrome_trace())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if o.metrics {
        outln!("{}", obs.summary());
    }
    Ok(())
}

fn machine_of(o: &Options) -> Result<Machine, CliError> {
    let m = Machine::homogeneous(o.clusters, o.latency);
    let m = match o.memory {
        MemoryChoice::Partitioned => m,
        MemoryChoice::Unified => m.with_unified_memory(),
        MemoryChoice::Coherent(p) => m.with_coherent_cache(p),
    };
    m.validate().map_err(|e| CliError::Usage(format!("machine configuration invalid: {e}")))?;
    Ok(m)
}

/// Resolves a benchmark name, a synthetic preset or `key=value,...`
/// spec, or a `.mcir` path to its program and profile. A malformed
/// synthetic spec is a usage error (exit 2, with the parser's column
/// diagnostic); every other failure is a runtime error.
fn load_target(target: &str) -> Result<(Program, Profile), CliError> {
    // Synthetic specs first — a preset name or `key=value,...` string
    // (`mcpart partition ops=100000`) keeps its parse diagnostic
    // instead of degrading to the generic "unknown benchmark" message.
    if target.starts_with("synth_") || target.contains('=') {
        let w = mcpart::workloads::synth_result(target)
            .map_err(|e| CliError::Usage(format!("`{target}`: {e}")))?;
        return Ok((w.program, w.profile));
    }
    if let Some(w) = mcpart::workloads::by_name(target) {
        return Ok((w.program, w.profile));
    }
    if !std::path::Path::new(target).exists() {
        return Err(CliError::Runtime(format!(
            "`{target}` is neither a known benchmark nor a readable file (try `mcpart list`)"
        )));
    }
    let text = std::fs::read_to_string(target).map_err(|e| format!("cannot read {target}: {e}"))?;
    let program = parse_program(&text).map_err(|e| format!("{target}: {e}"))?;
    mcpart::ir::verify_program(&program).map_err(|e| format!("{target}: {e}"))?;
    let profile = profile_run(&program, &[], ExecConfig::default())
        .map_err(|e| format!("{target}: execution failed: {e}"))?;
    Ok((program, profile))
}

/// `serve`'s job loader: [`load_target`] with every failure kept as
/// the job's message — a service job never exits the process.
fn load_job(target: &str) -> Result<(Program, Profile), String> {
    load_target(target)
        .map_err(|(CliError::Usage(m) | CliError::Config(m) | CliError::Runtime(m))| m)
}

/// Announces any degradation-ladder activity on stderr so scripted
/// consumers of stdout still see the warning.
fn report_downgrades(downgrades: &[Downgrade]) {
    for d in downgrades {
        eprintln!("warning: downgraded {d}");
    }
}

/// Stable slug of the memory model, recorded in checkpoint headers.
fn memory_slug(m: MemoryChoice) -> String {
    match m {
        MemoryChoice::Partitioned => "partitioned".to_string(),
        MemoryChoice::Unified => "unified".to_string(),
        MemoryChoice::Coherent(p) => format!("coherent:{p}"),
    }
}

/// The checkpoint header this invocation would write: everything a
/// unit's result depends on. A `--resume` against a file whose header
/// differs is rejected before any unit is skipped.
fn header_of(o: &Options, program: &Program) -> CheckpointHeader {
    CheckpointHeader {
        program: program.name.clone(),
        program_hash: program_fingerprint(program),
        seed: PipelineConfig::new(o.method).rhop.seed,
        clusters: o.clusters,
        latency: o.latency,
        memory: memory_slug(o.memory),
        gdp_fuel: o.gdp_fuel,
    }
}

/// Splits checkpoint failures by exit code: a corrupt or mismatched
/// file is a configuration problem (exit 2, diagnostic only); an I/O
/// failure is a runtime one (exit 1).
fn ck_err(e: CheckpointError) -> CliError {
    match e {
        CheckpointError::Io(_) => CliError::Runtime(e.to_string()),
        _ => CliError::Config(e.to_string()),
    }
}

/// An open checkpoint file: previously completed units (on `--resume`)
/// plus the writer that appends each newly finished one.
struct CheckpointSession {
    writer: CheckpointWriter,
    resumed: Vec<UnitRecord>,
    /// Units appended so far, for the `--halt-after` crash hook.
    appended: u64,
    /// `--halt-after n`: write only half of the nth appended record —
    /// no terminator — and abort, leaving exactly the file a process
    /// killed mid-append leaves. Deterministic where a raced SIGKILL
    /// is not, so the kill-and-resume smoke never flakes.
    halt_after: Option<u64>,
}

impl CheckpointSession {
    /// Opens the checkpoint named by `--checkpoint`, if any. With
    /// `--resume` and an existing file, the file is validated against
    /// this run's header and its completed units are carried over
    /// (rewriting the file drops any crash artifact from the tail);
    /// otherwise a fresh file is created.
    fn open(o: &Options, program: &Program) -> Result<Option<CheckpointSession>, CliError> {
        let Some(path) = &o.checkpoint else { return Ok(None) };
        let header = header_of(o, program);
        if o.resume && std::path::Path::new(path).exists() {
            let ck = load_checkpoint(path, &header).map_err(ck_err)?;
            if ck.dropped_partial_tail {
                eprintln!("note: {path}: discarded a partial trailing record (crash artifact)");
            }
            let writer = CheckpointWriter::resume(path, &header, &ck.records, &ck.manifests)
                .map_err(ck_err)?;
            Ok(Some(CheckpointSession {
                writer,
                resumed: ck.records,
                appended: 0,
                halt_after: o.halt_after,
            }))
        } else {
            let writer = CheckpointWriter::create(path, &header).map_err(ck_err)?;
            Ok(Some(CheckpointSession {
                writer,
                resumed: Vec::new(),
                appended: 0,
                halt_after: o.halt_after,
            }))
        }
    }

    /// Appends a finished unit (and its manifest, when the run
    /// produced one), honouring the `--halt-after` crash injection
    /// point. The manifest goes second: a crash between the two lines
    /// loses only the incremental-replay hint, never the result.
    fn append(&mut self, rec: &UnitRecord, manifest: Option<&Manifest>) -> Result<(), CliError> {
        self.appended += 1;
        if self.halt_after == Some(self.appended) {
            self.writer.append_partial(rec).map_err(ck_err)?;
            std::process::abort();
        }
        self.writer.append(rec).map_err(ck_err)?;
        if let Some(m) = manifest {
            self.writer.append_manifest(m).map_err(ck_err)?;
        }
        Ok(())
    }

    fn resumed_record(&self, unit: &str) -> Option<UnitRecord> {
        self.resumed.iter().find(|r| r.unit == unit).cloned()
    }
}

/// Runs (or replays) one checkpointable unit. A unit recorded in the
/// resumed checkpoint is replayed — its pinned obs events re-enter the
/// sink, so the final trace is byte-identical to an uninterrupted run —
/// without recomputation; a live unit runs the pipeline and is flushed
/// to the checkpoint before its result is reported.
#[allow(clippy::too_many_arguments)]
fn run_or_resume(
    program: &Program,
    profile: &Profile,
    machine: &Machine,
    o: &Options,
    method: Method,
    obs: &mcpart::obs::Obs,
    session: &mut Option<CheckpointSession>,
    baseline: Option<std::sync::Arc<Manifest>>,
) -> Result<(UnitRecord, Option<RepartitionStats>), CliError> {
    let unit = format!("{}/{}", program.name, method_slug(method));
    if let Some(s) = session {
        if let Some(rec) = s.resumed_record(&unit) {
            rec.replay_events(obs);
            return Ok((rec, None));
        }
    }
    let mut config = config_of(o, method).with_obs(obs.clone());
    config.baseline = baseline;
    let run = run_unit_full(program, profile, machine, &config)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    if let Some(s) = session {
        s.append(&run.record, run.manifest.as_ref())?;
    }
    Ok((run.record, run.repartition))
}

/// Surfaces quarantined function units: one warning per unit on
/// stderr, a report in `--metrics` output, and exit 1 unless
/// `--allow-quarantine` accepts the fallback placement.
fn report_quarantine(o: &Options, records: &[UnitRecord]) -> Result<(), CliError> {
    let quarantined: Vec<_> = records.iter().flat_map(|r| r.quarantine.iter()).collect();
    if quarantined.is_empty() {
        return Ok(());
    }
    for q in &quarantined {
        eprintln!("warning: quarantined `{}` after {} attempts: {}", q.unit, q.attempts, q.reason);
    }
    if o.metrics {
        outln!("quarantine report: {} unit(s)", quarantined.len());
        for q in &quarantined {
            outln!("  {} ({} attempts): {}", q.unit, q.attempts, q.reason);
        }
    }
    if o.allow_quarantine {
        Ok(())
    } else {
        Err(CliError::Runtime(format!(
            "{} unit(s) quarantined (rerun with --allow-quarantine to accept the fallback \
             placement)",
            quarantined.len()
        )))
    }
}

fn report_run(
    program: &Program,
    profile: &Profile,
    o: &Options,
    baseline: Option<std::sync::Arc<Manifest>>,
) -> Result<(), CliError> {
    let machine = machine_of(o)?;
    let obs = obs_of(o);
    let mut session = CheckpointSession::open(o, program)?;
    let (rec, repartition) =
        run_or_resume(program, profile, &machine, o, o.method, &obs, &mut session, baseline)?;
    report_downgrades(&rec.downgrades);
    outln!("benchmark: {}", program.name);
    outln!("machine:   {} clusters, {}-cycle moves", o.clusters, o.latency);
    if rec.requested != rec.method {
        outln!("method:    {} (downgraded from {})", rec.method, rec.requested);
    } else {
        outln!("method:    {}", rec.method);
    }
    outln!("cycles:    {}", rec.cycles);
    outln!("moves:     {} dynamic intercluster ({} static)", rec.dynamic_moves, rec.moves_inserted);
    if rec.remote > 0 {
        outln!("remote:    {} dynamic remote accesses", rec.remote);
    }
    outln!("data:      {:?} bytes per cluster", rec.data_bytes);
    outln!("ops:       {:?} per cluster", rec.placement().ops_per_cluster(o.clusters));
    outln!("pressure:  {} live registers at the worst block boundary", rec.pressure);
    outln!("partition: {:.1} ms", rec.partition_ms);
    // Dirty-cone counters land after the unit's pinned events, so the
    // incremental trace is the from-scratch trace plus a trailing
    // `repartition/*` block.
    if let Some(rp) = &repartition {
        obs.counter("repartition", "dirty_funcs", rp.dirty_funcs as i64);
        obs.counter("repartition", "replayed_funcs", rp.replayed_funcs as i64);
        obs.counter("repartition", "cone_frac_x1000", rp.cone_frac_x1000() as i64);
        outln!(
            "repartition: {} dirty / {} replayed of {} functions (cone {:.1}%)",
            rp.dirty_funcs,
            rp.replayed_funcs,
            rp.total_funcs,
            rp.cone_frac_x1000() as f64 / 10.0
        );
    }
    emit_obs(o, &obs)?;
    report_quarantine(o, std::slice::from_ref(&rec))
}

/// Options of `mcpart serve`, split from [`Options`] because most
/// one-shot flags (checkpointing, per-run method/machine choices) are
/// carried by the job files instead.
struct ServeOptions {
    cfg: ServeConfig,
    trace_out: Option<String>,
    metrics: bool,
}

fn parse_serve_options(args: &[String]) -> Result<ServeOptions, String> {
    let mut cfg = ServeConfig::default();
    let mut trace_out = None;
    let mut metrics = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--drain" => cfg.drain = true,
            "--jobs" => {
                cfg.jobs =
                    args.get(i + 1).and_then(|v| v.parse().ok()).ok_or("--jobs needs a number")?;
                i += 1;
            }
            "--batch" => {
                cfg.batch = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--batch needs a positive count")?;
                i += 1;
            }
            "--queue" => {
                cfg.queue = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--queue needs a positive count")?;
                i += 1;
            }
            "--poll-ms" => {
                let ms: u64 = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--poll-ms needs a millisecond count")?;
                cfg.poll = Duration::from_millis(ms);
                i += 1;
            }
            "--retries" => {
                cfg.retries = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--retries needs a number")?;
                i += 1;
            }
            "--unit-timeout" => {
                let ms: u64 = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&ms| ms > 0)
                    .ok_or("--unit-timeout needs a positive millisecond count")?;
                cfg.unit_timeout = Some(Duration::from_millis(ms));
                i += 1;
            }
            "--halt-after" => {
                cfg.halt_after = Some(
                    args.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--halt-after needs a count")?,
                );
                i += 1;
            }
            "--telemetry-every" => {
                cfg.telemetry_every = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--telemetry-every needs a job count (0 disables)")?;
                i += 1;
            }
            "--max-requeues" => {
                cfg.max_requeues = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--max-requeues needs a count")?;
                i += 1;
            }
            "--trace-out" => {
                trace_out = Some(args.get(i + 1).ok_or("--trace-out needs a path")?.to_string());
                i += 1;
            }
            "--metrics" => metrics = true,
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 1;
    }
    Ok(ServeOptions { cfg, trace_out, metrics })
}

/// Set by the signal handler; polled by the serve loop, which drains
/// the in-flight batch and exits 0 — crash-only shutdown.
static SERVE_SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn serve_shutdown_handler(_signum: i32) {
    // Only async-signal-safe work here: set the flag, nothing else.
    SERVE_SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Installs SIGTERM/SIGINT handlers that request a drain-and-exit.
/// `libc::signal` via a minimal FFI declaration: the workspace takes
/// no external dependencies, and storing to a static `AtomicBool` is
/// the one thing a handler may safely do.
#[cfg(unix)]
fn install_shutdown_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the C standard library's handler
    // registration; the handler only stores to an atomic.
    unsafe {
        signal(SIGTERM, serve_shutdown_handler as *const () as usize);
        signal(SIGINT, serve_shutdown_handler as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_shutdown_handler() {}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result: Result<(), CliError> = match command {
        "list" => {
            outln!(
                "{:<12} {:>6} {:>8} {:>9} {:>12}",
                "benchmark",
                "ops",
                "objects",
                "bytes",
                "suite"
            );
            for w in mcpart::workloads::all() {
                outln!(
                    "{:<12} {:>6} {:>8} {:>9} {:>12}",
                    w.name,
                    w.num_ops(),
                    w.num_objects(),
                    w.program.total_object_size(),
                    w.suite.to_string()
                );
            }
            Ok(())
        }
        "run" | "exec" => (|| {
            let target = args.get(1).ok_or_else(|| {
                CliError::usage(format!("{command} needs a benchmark name or .mcir file"))
            })?;
            let o = parse_options(&args[2..]).map_err(CliError::Usage)?;
            let (program, profile) = load_target(target)?;
            report_run(&program, &profile, &o, None)?;
            Ok(())
        })(),
        "repartition" => (|| {
            let target = args.get(1).ok_or_else(|| {
                CliError::usage("repartition needs a benchmark name or .mcir file")
            })?;
            // `--baseline` is this command's own flag; everything else
            // is the shared run-option vocabulary.
            let mut baseline_path: Option<String> = None;
            let mut rest: Vec<String> = Vec::new();
            let mut it = args[2..].iter();
            while let Some(a) = it.next() {
                if a == "--baseline" {
                    baseline_path = Some(
                        it.next()
                            .ok_or_else(|| CliError::usage("--baseline needs a checkpoint path"))?
                            .clone(),
                    );
                } else {
                    rest.push(a.clone());
                }
            }
            let baseline_path = baseline_path
                .ok_or_else(|| CliError::usage("repartition requires --baseline <checkpoint>"))?;
            let o = parse_options(&rest).map_err(CliError::Usage)?;
            if o.method != Method::Gdp {
                return Err(CliError::usage(
                    "repartition only supports --method gdp (the manifest-bearing method)",
                ));
            }
            let (program, profile) = load_target(target)?;
            let header = header_of(&o, &program);
            let ck = mcpart::core::load_checkpoint_any(&baseline_path).map_err(ck_err)?;
            if !ck.header.compatible_baseline(&header) {
                return Err(CliError::Config(format!(
                    "{baseline_path}: baseline is incompatible with this run (program name, \
                     seed, clusters, latency, memory, and gdp fuel must all match; only the \
                     program content may differ)"
                )));
            }
            let unit = format!("{}/{}", program.name, method_slug(o.method));
            let manifest = ck.manifest_for(&unit).cloned();
            if manifest.is_none() {
                eprintln!("note: {baseline_path}: no manifest for `{unit}`; running from scratch");
            }
            report_run(&program, &profile, &o, manifest.map(std::sync::Arc::new))
        })(),
        "compare" => (|| {
            let target = args
                .get(1)
                .ok_or_else(|| CliError::usage("compare needs a benchmark name or file"))?;
            let o = parse_options(&args[2..]).map_err(CliError::Usage)?;
            let (program, profile) = load_target(target)?;
            let machine = machine_of(&o)?;
            let obs = obs_of(&o);
            let mut session = CheckpointSession::open(&o, &program)?;
            let mut unified = 0u64;
            let mut rows = Vec::new();
            let mut records = Vec::new();
            for method in Method::ALL {
                let (rec, _) = run_or_resume(
                    &program,
                    &profile,
                    &machine,
                    &o,
                    method,
                    &obs,
                    &mut session,
                    None,
                )?;
                report_downgrades(&rec.downgrades);
                if method == Method::Unified {
                    unified = rec.cycles;
                }
                let label = if rec.requested != rec.method {
                    format!("{}->{}", rec.requested, rec.method)
                } else {
                    method.to_string()
                };
                rows.push((label, rec.cycles, rec.dynamic_moves));
                records.push(rec);
            }
            outln!("{:<14} {:>10} {:>10} {:>10}", "method", "cycles", "moves", "vs unified");
            for (label, cycles, moves) in rows {
                outln!(
                    "{:<14} {:>10} {:>10} {:>9.1}%",
                    label,
                    cycles,
                    moves,
                    unified as f64 / cycles as f64 * 100.0
                );
            }
            emit_obs(&o, &obs)?;
            report_quarantine(&o, &records)
        })(),
        "dump" => (|| {
            let target =
                args.get(1).ok_or_else(|| CliError::usage("dump needs a benchmark name"))?;
            let (program, _) = load_target(target)?;
            print!("{}", program_to_string(&program));
            Ok(())
        })(),
        "gen" => (|| {
            let spec = args.get(1).ok_or_else(|| {
                CliError::usage("gen needs a spec (synth_10k/synth_100k/synth_1m or key=value,...)")
            })?;
            let mut out: Option<&str> = None;
            let mut rest = args[2..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--out" => {
                        out = Some(
                            rest.next()
                                .ok_or_else(|| CliError::usage("--out needs a path"))?
                                .as_str(),
                        );
                    }
                    other => return Err(CliError::usage(format!("unknown gen option {other}"))),
                }
            }
            let w = mcpart::workloads::synth_result(spec)
                .map_err(|e| CliError::Usage(format!("`{spec}`: {e}")))?;
            outln!("name:      {}", w.name);
            outln!("functions: {}", w.program.functions.len());
            outln!("ops:       {}", w.num_ops());
            outln!("objects:   {}", w.num_objects());
            outln!("bytes:     {}", w.program.total_object_size());
            if let Some(path) = out {
                std::fs::write(path, program_to_string(&w.program))
                    .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
                outln!("wrote:     {path}");
            }
            Ok(())
        })(),
        "schedule" => (|| {
            // Show the timeline of the hottest block under the chosen
            // method.
            let target = args
                .get(1)
                .ok_or_else(|| CliError::usage("schedule needs a benchmark name or file"))?;
            let o = parse_options(&args[2..]).map_err(CliError::Usage)?;
            let (program, profile) = load_target(target)?;
            let machine = machine_of(&o)?;
            let obs = obs_of(&o);
            let config = config_of(&o, o.method).with_obs(obs.clone());
            let run =
                run_pipeline(&program, &profile, &machine, &config).map_err(|e| e.to_string())?;
            report_downgrades(&run.downgrades);
            let mut hottest = None;
            for (fid, f) in run.program.functions.iter() {
                for bid in f.blocks.keys() {
                    let sched = &run.report.schedules[fid][bid];
                    let weight = sched.length as u64 * profile.block_freq(fid, bid);
                    if hottest.as_ref().map(|&(w, _, _)| weight > w).unwrap_or(true) {
                        hottest = Some((weight, fid, bid));
                    }
                }
            }
            let (weight, fid, bid) =
                hottest.ok_or_else(|| CliError::Runtime("program has no blocks".into()))?;
            outln!(
                "hottest block: {}/{bid} ({} weighted cycles) under {}",
                run.program.functions[fid].name,
                weight,
                run.method
            );
            outln!(
                "{}",
                mcpart::sched::schedule_to_string(
                    &run.program,
                    fid,
                    &run.report.schedules[fid][bid],
                    &run.placement,
                    o.clusters,
                )
            );
            emit_obs(&o, &obs)?;
            Ok(())
        })(),
        "partition" => (|| {
            let target = args
                .get(1)
                .ok_or_else(|| CliError::usage("partition needs a benchmark name or file"))?;
            let o = parse_options(&args[2..]).map_err(CliError::Usage)?;
            let (program, profile) = load_target(target)?;
            let machine = machine_of(&o)?;
            let program = profile.apply_heap_sizes(&program);
            let pts = mcpart::analysis::PointsTo::compute(&program);
            let access = mcpart::analysis::AccessInfo::compute(&program, &pts, &profile);
            let groups = mcpart::core::ObjectGroups::compute(&program, &access);
            let obs = obs_of(&o);
            let gcfg =
                mcpart::core::GdpConfig { jobs: o.jobs, obs: obs.clone(), ..Default::default() };
            let dp =
                mcpart::core::gdp_partition(&program, &profile, &access, &groups, &machine, &gcfg)
                    .map_err(|e| e.to_string())?;
            outln!("object homes for {} (cut {}):", program.name, dp.cut);
            for (obj, home) in dp.object_home.iter() {
                if let Some(c) = home {
                    outln!("  {:<28} -> {}", program.objects[obj].name, c);
                }
            }
            outln!(
                "bytes per cluster: {:?}",
                dp.bytes_per_cluster(&program, machine.num_clusters())
            );
            emit_obs(&o, &obs)?;
            Ok(())
        })(),
        "serve" => (|| {
            let spool =
                args.get(1).ok_or_else(|| CliError::usage("serve needs a spool directory path"))?;
            let so = parse_serve_options(&args[2..]).map_err(CliError::Usage)?;
            let mut cfg = so.cfg;
            if so.trace_out.is_some() || so.metrics {
                cfg.obs = mcpart::obs::Obs::enabled();
            }
            install_shutdown_handler();
            mcpart::core::serve(std::path::Path::new(spool), &cfg, &load_job, &SERVE_SHUTDOWN)
                .map_err(|e| CliError::Runtime(e.to_string()))?;
            if let Some(path) = &so.trace_out {
                std::fs::write(path, cfg.obs.chrome_trace())
                    .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
            }
            if so.metrics {
                outln!("{}", cfg.obs.summary());
            }
            Ok(())
        })(),
        "chaos" => (|| {
            let rest = &args[1..];
            let mut scenarios: Option<usize> = None;
            let mut seed: u64 = 0xC4A05;
            let mut shrink = true;
            let mut corpus: Option<String> = None;
            let mut replay: Option<String> = None;
            let mut sweep_path: Option<String> = None;
            let mut jobs_compare: usize = 4;
            let mut trace_out: Option<String> = None;
            let mut metrics = false;
            let mut inject_bad = false;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--seed" => {
                        seed = rest
                            .get(i + 1)
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| CliError::usage("--seed needs a number"))?;
                        i += 1;
                    }
                    "--shrink" => shrink = true,
                    "--no-shrink" => shrink = false,
                    "--corpus" => {
                        corpus = Some(
                            rest.get(i + 1)
                                .ok_or_else(|| CliError::usage("--corpus needs a directory"))?
                                .to_string(),
                        );
                        i += 1;
                    }
                    "--replay" => {
                        replay = Some(
                            rest.get(i + 1)
                                .ok_or_else(|| CliError::usage("--replay needs a repro file"))?
                                .to_string(),
                        );
                        i += 1;
                    }
                    "--sweep" => {
                        sweep_path = Some(
                            rest.get(i + 1)
                                .ok_or_else(|| CliError::usage("--sweep needs a matrix file"))?
                                .to_string(),
                        );
                        i += 1;
                    }
                    "--jobs" => {
                        jobs_compare = rest
                            .get(i + 1)
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| CliError::usage("--jobs needs a number"))?;
                        i += 1;
                    }
                    "--trace-out" => {
                        trace_out = Some(
                            rest.get(i + 1)
                                .ok_or_else(|| CliError::usage("--trace-out needs a path"))?
                                .to_string(),
                        );
                        i += 1;
                    }
                    "--metrics" => metrics = true,
                    "--inject-bad-placement" => inject_bad = true,
                    other if !other.starts_with('-') && scenarios.is_none() => {
                        scenarios = Some(other.parse().map_err(|_| {
                            CliError::usage(format!("`{other}` is not a scenario count"))
                        })?);
                    }
                    other => {
                        return Err(CliError::usage(format!("unknown chaos option `{other}`")))
                    }
                }
                i += 1;
            }
            let mut cfg = mcpart::core::ChaosConfig::new(scenarios.unwrap_or(0), seed);
            cfg.shrink = shrink;
            cfg.corpus = corpus.map(std::path::PathBuf::from);
            cfg.jobs_compare = jobs_compare;
            cfg.inject_bad_placement = inject_bad;
            if trace_out.is_some() || metrics {
                cfg.obs = mcpart::obs::Obs::enabled();
            }
            if let Some(path) = &sweep_path {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError::Runtime(format!("cannot read {path}: {e}")))?;
                cfg.sweep = mcpart::machine::SweepMatrix::parse(&text)
                    .map_err(|e| CliError::Config(format!("{path}: {e}")))?;
                cfg.sweep
                    .validate()
                    .map_err(|e| CliError::Config(format!("{path}: unusable sweep: {e}")))?;
            }
            let chaos_err = |e: mcpart::core::ChaosError| match e {
                mcpart::core::ChaosError::Io { .. } => CliError::Runtime(e.to_string()),
                other => CliError::Config(other.to_string()),
            };
            let emit = |obs: &mcpart::obs::Obs| -> Result<(), CliError> {
                if let Some(path) = &trace_out {
                    std::fs::write(path, obs.chrome_trace())
                        .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
                }
                if metrics {
                    outln!("{}", obs.summary());
                }
                Ok(())
            };
            if let Some(path) = &replay {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError::Runtime(format!("cannot read {path}: {e}")))?;
                let scenario = mcpart::core::Scenario::parse(&text)
                    .map_err(|e| CliError::Config(format!("{path}: {e}")))?;
                let result = mcpart::core::run_scenario(&scenario, &cfg).map_err(chaos_err)?;
                outln!(
                    "replay {path}: {} ({} oracle check(s))",
                    result.verdict.slug(),
                    result.checks_run
                );
                for line in result.detail.lines() {
                    outln!("  {line}");
                }
                emit(&cfg.obs)?;
                if result.failed() {
                    return Err(CliError::Runtime(format!(
                        "replayed scenario failed: {}",
                        result.verdict.slug()
                    )));
                }
                return Ok(());
            }
            let n = scenarios.ok_or_else(|| {
                CliError::usage("chaos needs a scenario count (or --replay <file>)")
            })?;
            cfg.scenarios = n;
            let sum = mcpart::core::run_chaos(&cfg).map_err(chaos_err)?;
            for (k, f) in sum.failures.iter().enumerate() {
                outln!("failure {k}: {}", f.verdict.slug());
                for line in f.detail.lines() {
                    outln!("  {line}");
                }
                outln!("  scenario:");
                for line in f.scenario.to_string().lines() {
                    outln!("    {line}");
                }
            }
            for p in &sum.repro_files {
                outln!("repro written: {}", p.display());
            }
            outln!("{}", sum.line());
            emit(&cfg.obs)?;
            if sum.failures.is_empty() {
                Ok(())
            } else {
                Err(CliError::Runtime(format!(
                    "{} scenario(s) failed the oracle",
                    sum.failures.len()
                )))
            }
        })(),
        "trace-check" => (|| {
            let path = args
                .get(1)
                .ok_or_else(|| CliError::usage("trace-check needs a trace file path"))?;
            // Each `--require` entry is `cat/name` (presence) or
            // `cat/name=v` (the counter's last sample must equal v).
            let mut require: Vec<(String, Option<i64>)> = Vec::new();
            let mut forbid: Vec<String> = Vec::new();
            let rest = &args[2..];
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--require" => {
                        let v = rest.get(i + 1).ok_or_else(|| {
                            CliError::usage("--require needs a comma-separated counter list")
                        })?;
                        for item in v.split(',').filter(|s| !s.is_empty()) {
                            match item.split_once('=') {
                                Some((label, want)) => {
                                    let want: i64 = want.parse().map_err(|_| {
                                        CliError::usage(format!(
                                            "--require {label}=<value> needs an integer, got \
                                             `{want}`"
                                        ))
                                    })?;
                                    require.push((label.to_string(), Some(want)));
                                }
                                None => require.push((item.to_string(), None)),
                            }
                        }
                        i += 1;
                    }
                    "--forbid" => {
                        let v = rest.get(i + 1).ok_or_else(|| {
                            CliError::usage("--forbid needs a comma-separated counter list")
                        })?;
                        forbid.extend(v.split(',').filter(|s| !s.is_empty()).map(str::to_string));
                        i += 1;
                    }
                    other => return Err(CliError::usage(format!("unknown option `{other}`"))),
                }
                i += 1;
            }
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let stats = mcpart::obs::json::validate_trace(&text)
                .map_err(|e| format!("{path}: invalid trace: {e}"))?;
            for w in &stats.warnings {
                eprintln!("warning: {path}: {w}");
            }
            if stats.events == 0 {
                return Err(CliError::Runtime(format!("{path}: trace has no events")));
            }
            for (label, want) in &require {
                if !stats.has_counter(label) {
                    return Err(CliError::Runtime(format!(
                        "{path}: missing required counter `{label}`"
                    )));
                }
                if let Some(want) = want {
                    match stats.counter_value(label) {
                        Some(got) if got == *want => {}
                        Some(got) => {
                            return Err(CliError::Runtime(format!(
                                "{path}: counter `{label}` is {got}, expected {want}"
                            )));
                        }
                        None => {
                            return Err(CliError::Runtime(format!(
                                "{path}: counter `{label}` has no numeric sample to compare \
                                 against {want}"
                            )));
                        }
                    }
                }
            }
            for label in &forbid {
                if stats.counter_nonzero.contains(label) {
                    return Err(CliError::Runtime(format!(
                        "{path}: forbidden counter `{label}` recorded a nonzero sample"
                    )));
                }
            }
            outln!(
                "{path}: ok ({} events: {} spans, {} counter samples)",
                stats.events,
                stats.spans,
                stats.counters
            );
            Ok(())
        })(),
        "stats" => (|| {
            let target = args.get(1).ok_or_else(|| {
                CliError::usage("stats needs a telemetry directory or trace file path")
            })?;
            let mut pinned_only = false;
            for a in &args[2..] {
                match a.as_str() {
                    "--pinned" => pinned_only = true,
                    other => return Err(CliError::usage(format!("unknown option `{other}`"))),
                }
            }
            let path = std::path::Path::new(target);
            let telemetry = path.is_dir()
                || path.file_name().and_then(|n| n.to_str())
                    == Some(mcpart::obs::recorder::TELEMETRY_LOG);
            let registry = if telemetry {
                let log =
                    mcpart::obs::recorder::read_telemetry_dir(path).map_err(CliError::Runtime)?;
                if log.skipped > 0 {
                    eprintln!(
                        "warning: {target}: skipped {} corrupt telemetry record(s)",
                        log.skipped
                    );
                }
                if log.snapshots.is_empty() {
                    return Err(CliError::Runtime(format!(
                        "{target}: no valid telemetry snapshots"
                    )));
                }
                let (registry, counters) = log.merged();
                if !pinned_only {
                    let runs = log.snapshots.iter().map(|s| s.run).collect::<BTreeSet<_>>();
                    outln!(
                        "telemetry: {} snapshot(s) across {} run(s)",
                        log.snapshots.len(),
                        runs.len()
                    );
                    outln!("counters (summed across runs):");
                    for (name, value) in &counters {
                        outln!("  {name:<24} {value}");
                    }
                }
                registry
            } else {
                let text = std::fs::read_to_string(target)
                    .map_err(|e| format!("cannot read {target}: {e}"))?;
                mcpart::obs::metrics::MetricsRegistry::from_trace(&text)
                    .map_err(|e| CliError::Runtime(format!("{target}: {e}")))?
            };
            if pinned_only {
                outln!("{}", registry.pinned_json());
                return Ok(());
            }
            if registry.is_empty() {
                outln!("no metric samples recorded");
            } else {
                outln!("{}", registry.render_table());
            }
            Ok(())
        })(),
        "bench-diff" => (|| {
            let (old, new) = match (args.get(1), args.get(2)) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(CliError::usage(
                        "bench-diff needs two BENCH_partition.json paths (old, new)",
                    ))
                }
            };
            let mut cfg = mcpart_bench::diff::DiffConfig::default();
            let rest = &args[3..];
            let mut i = 0;
            while i < rest.len() {
                let pct_arg = |flag: &str| -> Result<f64, CliError> {
                    rest.get(i + 1)
                        .and_then(|v| v.parse::<f64>().ok())
                        .filter(|p| *p >= 0.0)
                        .map(|p| p / 100.0)
                        .ok_or_else(|| {
                            CliError::usage(format!("{flag} needs a non-negative percentage"))
                        })
                };
                match rest[i].as_str() {
                    "--threshold" => {
                        cfg.work_threshold = pct_arg("--threshold")?;
                        i += 1;
                    }
                    "--time-threshold" => {
                        cfg.time_threshold = pct_arg("--time-threshold")?;
                        i += 1;
                    }
                    other => return Err(CliError::usage(format!("unknown option `{other}`"))),
                }
                i += 1;
            }
            let read = |path: &str| -> Result<String, CliError> {
                std::fs::read_to_string(path)
                    .map_err(|e| CliError::Runtime(format!("cannot read {path}: {e}")))
            };
            let (old_text, new_text) = (read(old)?, read(new)?);
            let report = mcpart_bench::diff::diff_bench(&old_text, &new_text, &cfg)
                .map_err(|e| CliError::Config(e.to_string()))?;
            outln!("{}", report.render());
            if report.regressed() {
                return Err(CliError::Runtime(format!(
                    "{} regression(s) against {old}",
                    report.regressions.len()
                )));
            }
            Ok(())
        })(),
        "checkpoint-diff" => (|| {
            let (a, b) = match (args.get(1), args.get(2)) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err(CliError::usage("checkpoint-diff needs two checkpoint paths")),
            };
            let load = |path: &str| -> Result<(Vec<UnitRecord>, Vec<Manifest>), CliError> {
                let ck = mcpart::core::load_checkpoint_any(path).map_err(|e| match e {
                    CheckpointError::Io(m) => CliError::Runtime(m),
                    other => CliError::Config(format!("{path}: {other}")),
                })?;
                Ok((ck.records, ck.manifests))
            };
            // Wall-clock is the one non-pinned record field; everything
            // else (placements, downgrades, quarantine, pinned events)
            // must match exactly.
            let strip = |mut r: UnitRecord| {
                r.partition_ms = 0.0;
                r
            };
            let (a_raw, a_manifests) = load(a)?;
            let (b_raw, b_manifests) = load(b)?;
            let a_records: Vec<UnitRecord> = a_raw.into_iter().map(strip).collect();
            let b_records: Vec<UnitRecord> = b_raw.into_iter().map(strip).collect();
            if a_records.len() != b_records.len() {
                return Err(CliError::Runtime(format!(
                    "checkpoints differ: {a} has {} unit(s), {b} has {}",
                    a_records.len(),
                    b_records.len()
                )));
            }
            for (ra, rb) in a_records.iter().zip(&b_records) {
                if ra != rb {
                    let what = if ra.unit != rb.unit {
                        format!("unit order differs (`{}` vs `{}`)", ra.unit, rb.unit)
                    } else {
                        format!("unit `{}` differs", ra.unit)
                    };
                    return Err(CliError::Runtime(format!("checkpoints differ: {what}")));
                }
            }
            // Manifests compare as a set keyed by unit (append order is
            // a write-path detail), with deltas reported per function
            // in stable positional order. A manifest present on only
            // one side is not a difference: manifests are replay
            // hints, and a crash or an old writer may legitimately
            // drop one without changing any pinned result.
            let index = |ms: Vec<Manifest>| -> std::collections::BTreeMap<String, Manifest> {
                ms.into_iter().map(|m| (m.unit.clone(), m)).collect()
            };
            let (ma, mb) = (index(a_manifests), index(b_manifests));
            let units: BTreeSet<&String> = ma.keys().chain(mb.keys()).collect();
            let mut deltas: Vec<String> = Vec::new();
            for unit in units {
                match (ma.get(unit), mb.get(unit)) {
                    (Some(x), Some(y)) if x == y => {}
                    (Some(x), Some(y)) => {
                        let mut lines = Vec::new();
                        for i in 0..x.funcs.len().max(y.funcs.len()) {
                            match (x.funcs.get(i), y.funcs.get(i)) {
                                (Some(fa), Some(fb)) if fa == fb => {}
                                (Some(fa), Some(fb)) => {
                                    let mut what = Vec::new();
                                    if fa.name != fb.name {
                                        what.push("name");
                                    }
                                    if fa.hash != fb.hash {
                                        what.push("ir");
                                    }
                                    if fa.groups != fb.groups {
                                        what.push("groups");
                                    }
                                    if fa.op_cluster != fb.op_cluster {
                                        what.push("placement");
                                    }
                                    if fa.stats != fb.stats || fa.retries != fb.retries {
                                        what.push("stats");
                                    }
                                    lines.push(format!(
                                        "  #{i} {}: {} changed",
                                        fa.name,
                                        what.join("+")
                                    ));
                                }
                                (Some(fa), None) => {
                                    lines.push(format!("  #{i} {}: only in {a}", fa.name));
                                }
                                (None, Some(fb)) => {
                                    lines.push(format!("  #{i} {}: only in {b}", fb.name));
                                }
                                (None, None) => {}
                            }
                        }
                        if x.groups != y.groups {
                            lines.push("  (group content/home table differs)".to_string());
                        }
                        deltas.push(format!("manifest `{unit}`: {} delta(s)", lines.len()));
                        deltas.append(&mut lines);
                    }
                    (Some(_), None) | (None, Some(_)) | (None, None) => {}
                }
            }
            if !deltas.is_empty() {
                for line in &deltas {
                    eprintln!("{line}");
                }
                return Err(CliError::Runtime(
                    "checkpoints differ: manifest deltas (see above)".to_string(),
                ));
            }
            outln!("checkpoints match: {} unit(s)", a_records.len());
            Ok(())
        })(),
        other => Err(CliError::usage(format!("unknown command `{other}`"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Runtime(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Config(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_parsing() {
        let args: Vec<String> = ["--latency", "10", "--method", "pm", "--memory", "coherent:7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse_options(&args).unwrap();
        assert_eq!(o.latency, 10);
        assert_eq!(o.method, Method::ProfileMax);
        assert!(matches!(o.memory, MemoryChoice::Coherent(7)));
    }

    #[test]
    fn rejects_unknown_option() {
        let args = vec!["--bogus".to_string()];
        assert!(parse_options(&args).is_err());
    }

    #[test]
    fn rejects_zero_clusters() {
        let args: Vec<String> = ["--clusters", "0"].iter().map(|s| s.to_string()).collect();
        assert!(parse_options(&args).is_err());
    }

    #[test]
    fn rejects_non_numeric_latency() {
        let args: Vec<String> = ["--latency", "fast"].iter().map(|s| s.to_string()).collect();
        assert!(parse_options(&args).is_err());
    }

    #[test]
    fn gdp_fuel_option_feeds_the_config() {
        let args: Vec<String> = ["--gdp-fuel", "0"].iter().map(|s| s.to_string()).collect();
        let o = parse_options(&args).unwrap();
        assert_eq!(o.gdp_fuel, Some(0));
        assert_eq!(config_of(&o, Method::Gdp).gdp.fuel, Some(0));
        let bad: Vec<String> = ["--gdp-fuel", "lots"].iter().map(|s| s.to_string()).collect();
        assert!(parse_options(&bad).is_err());
    }

    #[test]
    fn jobs_option_feeds_the_config() {
        let args: Vec<String> = ["--jobs", "4"].iter().map(|s| s.to_string()).collect();
        let o = parse_options(&args).unwrap();
        assert_eq!(o.jobs, 4);
        assert_eq!(config_of(&o, Method::Gdp).rhop.jobs, 4);
        assert_eq!(config_of(&o, Method::Gdp).gdp.jobs, 4);
        // Default is 0 = auto.
        assert_eq!(parse_options(&[]).unwrap().jobs, 0);
        let bad: Vec<String> = ["--jobs", "many"].iter().map(|s| s.to_string()).collect();
        assert!(parse_options(&bad).is_err());
    }

    #[test]
    fn trace_and_metrics_options() {
        let args: Vec<String> =
            ["--trace-out", "t.json", "--metrics"].iter().map(|s| s.to_string()).collect();
        let o = parse_options(&args).unwrap();
        assert_eq!(o.trace_out.as_deref(), Some("t.json"));
        assert!(o.metrics);
        assert!(obs_of(&o).is_enabled());
        // Either flag alone turns the sink on; neither leaves it off.
        let just_metrics = parse_options(&["--metrics".to_string()]).unwrap();
        assert!(obs_of(&just_metrics).is_enabled());
        assert!(!obs_of(&Options::default()).is_enabled());
        assert!(parse_options(&["--trace-out".to_string()]).is_err());
    }

    #[test]
    fn obs_flows_into_every_stage_config() {
        let o = parse_options(&["--metrics".to_string()]).unwrap();
        let cfg = config_of(&o, Method::Gdp).with_obs(obs_of(&o));
        assert!(cfg.obs.is_enabled());
        assert!(cfg.gdp.obs.is_enabled());
        assert!(cfg.rhop.obs.is_enabled());
    }

    #[test]
    fn method_names() {
        assert_eq!(parse_method("gdp"), Some(Method::Gdp));
        assert_eq!(parse_method("profile-max"), Some(Method::ProfileMax));
        assert_eq!(parse_method("nonsense"), None);
    }
}
