//! `serve_resubmit`: the service. An `mcpart serve <fresh spool> --jobs 1
//! --poll-ms 1` daemon runs and one client submits one job at a time by
//! atomic rename, waiting for its result file. The stream is the 22
//! programs × 4 methods at 5-cycle moves in a seeded order; each job is
//! submitted once (a cache miss: compute and commit) and again right
//! after the next job (a cache hit: verify and read), so every round is
//! half writes and half reads. Each round gets a fresh daemon and spool.
//!
//! Traced, the service runs in-process through `mcpart_core::serve`
//! with a loader that times `mcpart_workloads::by_name`.

use crate::layers::Sheet;
use crate::report::{peak_rss_mb, Quality, Report, Tally};
use crate::serve_client::{submit_and_wait, without_job_name, JOB_TIMEOUT};
use crate::stats::{geomean, median, Latencies};
use crate::trace::{Tracer, REQUEST};
use crate::{Args, SetUp};
use mcpart_core::{
    cache_key, method_slug, parse_checkpoint_any, parse_job, program_fingerprint,
    render_cache_entry, run_pipeline, serve, verify_cache_entry, CheckpointHeader, Method,
    PipelineConfig, ServeConfig,
};
use mcpart_machine::Machine;
use mcpart_rng::{derive_seed, SeedableRng, SliceRandom, SmallRng};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Move latency of every job.
const LATENCY: u32 = 5;
/// The set-up's first job: outside the stream (1-cycle moves), so it
/// shares no cache entry with it.
const PROBE_JOB: &str =
    "{\"mcpart_job\":1,\"program\":\"fir\",\"method\":\"unified\",\"clusters\":2,\"latency\":1}\n";

struct Spec {
    program: String,
    method: Method,
}

impl Spec {
    fn job(&self) -> String {
        format!(
            "{{\"mcpart_job\":1,\"program\":\"{}\",\"method\":\"{}\",\"clusters\":2,\"latency\":{LATENCY}}}\n",
            self.program,
            method_slug(self.method)
        )
    }
}

/// One submission: which spec, and whether it is the resubmission.
#[derive(Clone, Copy)]
struct Submit {
    spec: usize,
    hit: bool,
}

/// The stream of one round: each spec's miss, its hit one job later.
fn stream(seed: u64, round: usize, specs: usize) -> Vec<Submit> {
    let mut order: Vec<usize> = (0..specs).collect();
    order.shuffle(&mut SmallRng::seed_from_u64(derive_seed(seed ^ 0x5e7e, round as u64)));
    let mut out = Vec::with_capacity(2 * specs);
    for (i, &s) in order.iter().enumerate() {
        out.push(Submit { spec: s, hit: false });
        if i > 0 {
            out.push(Submit { spec: order[i - 1], hit: true });
        }
    }
    if let Some(&last) = order.last() {
        out.push(Submit { spec: last, hit: true });
    }
    out
}

/// A running `mcpart serve` daemon.
struct Daemon {
    child: Child,
    log: PathBuf,
}

impl Daemon {
    /// Starts a daemon on a fresh spool and waits for its first result.
    fn start(mcpart: &Path, spool: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(spool);
        std::fs::create_dir_all(spool).map_err(|e| format!("cannot create spool: {e}"))?;
        let log = spool.with_extension("log");
        let out = std::fs::File::create(&log).map_err(|e| format!("cannot create log: {e}"))?;
        let child = Command::new(mcpart)
            .arg("serve")
            .arg(spool)
            .args(["--jobs", "1", "--poll-ms", "1"])
            .stdout(out)
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", mcpart.display()))?;
        let mut d = Daemon { child, log };
        let probe = submit_and_wait(spool, "probe", PROBE_JOB, JOB_TIMEOUT, &mut || d.alive());
        match probe {
            Ok(_) => Ok(d),
            Err(e) => {
                d.stop();
                Err(e)
            }
        }
    }

    fn alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// Peak RSS in MB, read before the daemon is stopped.
    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string()).unwrap_or(0.0)
    }

    /// Kills the daemon (the service is crash-only) and waits for it.
    /// Returns the stream jobs it served from cache.
    fn stop(mut self) -> usize {
        self.kill();
        let log = std::fs::read_to_string(&self.log).unwrap_or_default();
        log.lines().filter(|l| l.starts_with("job r") && l.ends_with("(cache hit)")).count()
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    /// A daemon is never left running, even when a check panics.
    fn drop(&mut self) {
        self.kill();
    }
}

/// Runs the workload: end-to-end metrics, or per-layer when traced.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let specs: Vec<Spec> = mcpart_workloads::all()
        .into_iter()
        .flat_map(|w| Method::ALL.map(|method| Spec { program: w.name.clone(), method }))
        .collect();
    let mut tally = Tally::new(specs.len());
    // Per spec: the first result seen (job name removed); every later
    // result of that spec, miss or hit, in any round, must equal it.
    let mut firsts: Vec<Option<String>> = (0..specs.len()).map(|_| None).collect();
    let mut check = |k: usize,
                     stem: &str,
                     got: Result<String, String>,
                     tally: &mut Tally,
                     report: &mut Report| {
        match got {
            Err(e) => tally.flag(k, report, e),
            Ok(text) => {
                let text = without_job_name(&text, stem);
                match &firsts[k] {
                    Some(first) if *first != text => tally.flag(
                        k,
                        report,
                        format!(
                            "{} {}: result differs from its first answer",
                            specs[k].program, specs[k].method
                        ),
                    ),
                    Some(_) => {}
                    None => firsts[k] = Some(text),
                }
            }
        }
    };

    // Each set-up is a daemon on a spool of its own, from start to its
    // first answer, and its stop.
    let set_up = SetUp::first(|| {
        let spool = args.work_dir.join("spool-setup");
        let d = Daemon::start(&args.mcpart, &spool)?;
        d.stop();
        let _ = std::fs::remove_dir_all(&spool);
        Ok::<_, String>(())
    });
    let mut setup = match set_up {
        Ok(setup) => setup,
        Err(e) => {
            report.fail(format!("serve daemon: {e}"));
            report.attempted = 1;
            report.failed = 1;
            return report;
        }
    };

    let mut rss: f64 = 0.0;
    let mut hits = 0;
    let mut served = 0;
    // Request `2 * spec + hit`: each spec's miss and its hit.
    let mut lat = Latencies::new(2 * specs.len());
    let mut by_kind = [Latencies::new(specs.len()), Latencies::new(specs.len())];
    let mut traced = args.trace.then(|| Traced::new(&specs));
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let mut start_failed = None;
    let run = setup.timed_rounds(seconds, |round, ()| {
        let spool = args.work_dir.join(format!("spool-{round}"));
        let mut d = match Daemon::start(&args.mcpart, &spool) {
            Ok(d) => d,
            Err(e) => {
                start_failed = Some(e);
                return None;
            }
        };
        let mut spent = Duration::ZERO;
        let jobs = stream(args.seed, round, specs.len());
        for (i, s) in jobs.iter().enumerate() {
            let stem = format!("r{i:03}");
            let t = Instant::now();
            let got =
                submit_and_wait(&spool, &stem, &specs[s.spec].job(), JOB_TIMEOUT, &mut || {
                    d.alive()
                });
            let dt = t.elapsed();
            spent += dt;
            lat.push(2 * s.spec + usize::from(s.hit), dt.as_secs_f64() * 1e3);
            by_kind[usize::from(s.hit)].push(s.spec, dt.as_secs_f64() * 1e3);
            tally.attempt(s.spec);
            check(s.spec, &stem, got, &mut tally, &mut report);
        }
        rss = rss.max(d.peak_rss_mb());
        hits += d.stop();
        served += jobs.len();
        let _ = std::fs::remove_dir_all(&spool);
        if let Some(t) = traced.as_mut() {
            t.round(
                args,
                &specs,
                round,
                &mut |k, stem, got, report| {
                    tally.attempt(k);
                    check(k, stem, got, &mut tally, report)
                },
                &mut report,
            );
        }
        Some(spent)
    });
    let ((), setups) = setup.finish();
    let (timed, rounds) = match (run, start_failed) {
        (Ok(done), None) => done,
        (Err(e), _) | (_, Some(e)) => {
            report.fail(format!("serve daemon: {e}"));
            report.attempted = 1;
            report.failed = 1;
            return report;
        }
    };
    let sheet = traced.map(|t| t.into_sheet(rounds, timed));

    // Checks, outside the timed region: each spec's answer against an
    // in-process pipeline run of the same job.
    let machine = Machine::homogeneous(2, LATENCY);
    let mut cycles = vec![0u64; specs.len()];
    let mut moves = vec![0u64; specs.len()];
    let programs = mcpart_workloads::all();
    for (k, spec) in specs.iter().enumerate() {
        let Some(text) = &firsts[k] else { continue };
        let w =
            programs.iter().find(|w| w.name == spec.program).expect("stream programs are built-in");
        let cfg = PipelineConfig::new(spec.method).with_jobs(1).with_retries(2);
        let doc = mcpart_obs::json::parse(text.trim());
        let field = |key: &str| doc.as_ref().ok().and_then(|d| d.get(key)).and_then(|v| v.as_num());
        let status = doc.as_ref().ok().and_then(|d| d.get("status")).and_then(|v| v.as_str());
        match run_pipeline(&w.program, &w.profile, &machine, &cfg) {
            Ok(r)
                if status == Some("ok")
                    && field("cycles") == Some(r.cycles() as f64)
                    && field("dynamic_moves") == Some(r.dynamic_moves() as f64) =>
            {
                cycles[k] = r.cycles();
                moves[k] = r.dynamic_moves();
            }
            Ok(_) => tally.flag(
                k,
                &mut report,
                format!(
                    "{} {}: served {text:?} differs from the pipeline",
                    spec.program, spec.method
                ),
            ),
            Err(e) => tally.flag(
                k,
                &mut report,
                format!("{} {}: pipeline: {e}", spec.program, spec.method),
            ),
        }
    }
    let mut q = Quality { distinct: specs.len(), ..Quality::default() };
    if (0..specs.len()).all(|k| !tally.is_bad(k) && firsts[k].is_some()) {
        q.cycles = Some(cycles.iter().sum());
        q.dynamic_moves = Some(moves.iter().sum());
        // Specs run program by program in `Method::ALL` order: GDP
        // first, Unified last.
        let ratios: Vec<f64> =
            cycles.chunks(Method::ALL.len()).map(|c| c[0] as f64 / c[3] as f64).collect();
        q.gdp_vs_unified = Some(geomean(&ratios));
    }
    tally.finish(&mut report);
    let hit_frac = hits as f64 / served.max(1) as f64;
    match sheet {
        Some(mut sheet) => {
            q.record(&mut report, Some(&mut sheet));
            sheet.into_report(&mut report);
        }
        None => {
            report.end_to_end(&lat, &setups, rss);
            report.metric("core.serve.hit_frac", hit_frac, "ratio", served);
            for (kind, l) in ["miss", "hit"].iter().zip(&by_kind) {
                report.note(format!(
                    "{kind} p50 {:.3} ms over {} jobs",
                    l.p50().unwrap_or(0.0),
                    l.len()
                ));
            }
            q.record(&mut report, None);
        }
    }
    report.note(format!(
        "{rounds} round(s) of {} jobs, fresh daemon and spool each; median set-up {:.4} s",
        2 * specs.len(),
        median(&setups)
    ));
    report
}

type Check<'a> = dyn FnMut(usize, &str, Result<String, String>, &mut Report) + 'a;

/// The traced rounds: the service in-process, `by_name` timed inside
/// its loader, and the serve helpers timed on each job's real inputs
/// (outside the request spans, as probes).
struct Traced {
    tr: Tracer,
    headers: Vec<CheckpointHeader>,
    /// Summed µs and calls of parse_job, cache_key, verify and render.
    probe: [(f64, usize); 4],
    hits: u64,
    served: u64,
}

impl Traced {
    fn new(specs: &[Spec]) -> Self {
        let programs = mcpart_workloads::all();
        let headers = specs
            .iter()
            .map(|s| {
                let w = programs.iter().find(|w| w.name == s.program).expect("built-in");
                CheckpointHeader {
                    program: w.program.name.clone(),
                    program_hash: program_fingerprint(&w.program),
                    seed: PipelineConfig::new(s.method).rhop.seed,
                    clusters: 2,
                    latency: LATENCY,
                    memory: "partitioned".to_string(),
                    gdp_fuel: None,
                }
            })
            .collect();
        Traced { tr: Tracer::on(), headers, probe: [(0.0, 0); 4], hits: 0, served: 0 }
    }

    /// Runs round `round`'s stream through a fresh in-process service.
    fn round(
        &mut self,
        args: &Args,
        specs: &[Spec],
        round: usize,
        check: &mut Check<'_>,
        report: &mut Report,
    ) {
        let tr = &self.tr;
        let loader = |name: &str| {
            tr.time("workloads.by_name", || mcpart_workloads::by_name(name))
                .map(|w| (w.program, w.profile))
                .ok_or_else(|| format!("unknown program `{name}`"))
        };
        let probe = &mut self.probe;
        let mut time = |slot: usize, f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            probe[slot].0 += t.elapsed().as_secs_f64() * 1e6;
            probe[slot].1 += 1;
        };
        let spool = args.work_dir.join(format!("spool-traced-{round}"));
        let _ = std::fs::remove_dir_all(&spool);
        std::fs::create_dir_all(&spool).ok();
        let shutdown = AtomicBool::new(false);
        let cfg = ServeConfig { jobs: 1, poll: Duration::from_millis(1), ..ServeConfig::default() };
        std::thread::scope(|s| {
            let h = s.spawn(|| serve(&spool, &cfg, &loader, &shutdown));
            let ready =
                submit_and_wait(&spool, "probe", PROBE_JOB, JOB_TIMEOUT, &mut || !h.is_finished());
            if let Err(e) = ready {
                report.fail(format!("in-process service: {e}"));
            }
            for (i, sub) in stream(args.seed, round, specs.len()).iter().enumerate() {
                let stem = format!("r{i:03}");
                let spec = &specs[sub.spec];
                let job = spec.job();
                let got = {
                    let _r = tr.span(REQUEST);
                    submit_and_wait(&spool, &stem, &job, JOB_TIMEOUT, &mut || !h.is_finished())
                };
                check(sub.spec, &stem, got, report);
                let header = &self.headers[sub.spec];
                let unit = format!("{}/{}", header.program, method_slug(spec.method));
                time(0, &mut || drop(std::hint::black_box(parse_job(&job))));
                let mut key = String::new();
                time(1, &mut || key = cache_key(header, spec.method));
                let bytes = std::fs::read(spool.join("cache").join(format!("{key}.json")))
                    .unwrap_or_default();
                let mut record = None;
                time(2, &mut || record = verify_cache_entry(&bytes, header, &unit).ok());
                let text = String::from_utf8_lossy(&bytes);
                let body = text.trim_end().rsplit_once('\n').map_or("", |(b, _)| b);
                let manifest =
                    parse_checkpoint_any(body).ok().and_then(|c| c.manifest_for(&unit).cloned());
                match record {
                    Some(rec) => time(3, &mut || {
                        std::hint::black_box(render_cache_entry(header, &rec, manifest.as_ref()));
                    }),
                    None => report.fail(format!("{unit}: no verifiable cache entry after its job")),
                }
            }
            shutdown.store(true, Ordering::SeqCst);
            match h.join() {
                Ok(Ok(summary)) => {
                    self.hits += summary.cache_hits;
                    // The summary counts the set-up's probe job too.
                    self.served += summary.completed.saturating_sub(1);
                }
                Ok(Err(e)) => report.fail(format!("in-process service: {e}")),
                Err(_) => report.fail("in-process service panicked"),
            }
        });
        let _ = std::fs::remove_dir_all(&spool);
    }

    /// The per-layer metrics of `rounds` traced rounds, against
    /// `untraced`, the summed latency of the same rounds untraced.
    fn into_sheet(self, rounds: usize, untraced: Duration) -> Sheet {
        let mut sheet = Sheet::new();
        sheet.fill_from_tracer(&self.tr, rounds, 0.0, untraced.as_secs_f64());
        for (slot, name) in [
            "core.serve.parse_job_us",
            "core.serve.cache_key_us",
            "core.serve.verify_us",
            "core.serve.render_us",
        ]
        .iter()
        .enumerate()
        {
            let (us, calls) = self.probe[slot];
            sheet.set(name, us / calls.max(1) as f64, calls);
        }
        sheet.set(
            "core.serve.hit_frac",
            self.hits as f64 / self.served.max(1) as f64,
            self.served as usize,
        );
        sheet
    }
}
