//! Standing job benchmark: the paper's three workloads (MR, MLR, ALS)
//! on the real `LocalCluster`, as a closed loop — one client, one job in
//! flight — with every job's output checked.
//!
//! ```text
//! cargo run --release --manifest-path jobbench/Cargo.toml -- \
//!     --workload <mr-pageviews|mlr-iterative|als-transient|all> \
//!     [--seed N] [--seconds N] [--trace 0|1] [--smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that attributes each job's time
//! to the engine's layers by calling their public functions from here
//! and by reading the journal's timestamps, and writes its spans to
//! `jobbench-out/` at the repository root. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, and
//! `metrics` (name → value and unit). Every metric, the failed-job share
//! and the run's context also go to standard error by name. The default
//! seed is [`DEFAULT_SEED`]; [`VALIDATION_SEED`] is the second seed
//! results are checked on.

#[cfg(test)]
mod json;
mod layers;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pado_core::compiler::{compile_with, PlanConfig};
use pado_core::runtime::{invariants, scan, BackendKind, JobEvent, JobResult, RuntimeConfig};
use pado_dag::{block_from_vec, colcodec, LogicalDag, Value};

use crate::trace::Tracer;
use crate::workload::{Reference, Workload, NAMES, THREADED_WORKERS};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// The second seed every claim is checked on.
pub const VALIDATION_SEED: u64 = 2;
/// Set-ups (build DAG, compile, warm-up job) per timed run; `setup_s` is
/// their median.
const SETUPS: usize = 5;
/// Sim-backend jobs per traced run.
const SIM_JOBS: usize = 3;

/// Command-line arguments.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        smoke: false,
    };
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |flag: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => args.seed = num("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = num("--seconds", value("--seconds")?)?,
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required: one of {} or all",
            NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metrics(list: Vec<(&'static str, f64, &'static str)>) -> Vec<Metric> {
    list.into_iter()
        .map(|(name, value, unit)| Metric { name, value, unit })
        .collect()
}

/// `a / b`, or 0 when `b` is not positive.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The result of one benchmark run.
#[derive(Debug)]
struct Report {
    workload: &'static str,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Human-readable lines for standard error.
    notes: Vec<String>,
    /// Where the traced run wrote its spans.
    spans_path: Option<PathBuf>,
}

/// JSON number: finite values as Rust prints them (shortest round-trip
/// form, all digits kept), non-finite ones as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 1]`.
fn percentile(mut v: Vec<f64>, p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, so the next [`peak_rss_mb`] reads the peak since now.
/// Without the reset the peak is the whole process's, which thread
/// allocator arenas make vary by tens of MB between identical runs.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unknown.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The repository root (the benchmark package sits one level below).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Serializes a job's sink outputs: sink name, then the colcodec
/// encoding of its records. Equal bytes mean equal outputs.
fn encode_outputs(outputs: &BTreeMap<String, Vec<Value>>) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    for (name, records) in outputs {
        out.extend_from_slice(name.as_bytes());
        out.push(0);
        let bytes = colcodec::encode_block(&block_from_vec(records.clone()))
            .map_err(|e| format!("encoding sink {name:?}: {e}"))?;
        out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&bytes);
    }
    Ok(out)
}

/// Run context, recorded with every result and never gated.
fn context() -> Vec<(&'static str, String)> {
    let rev = std::process::Command::new("git")
        .arg("-C")
        .arg(repo_root())
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let runtime_dir = repo_root().join("crates/core/src/runtime");
    let loc: usize = std::fs::read_dir(&runtime_dir)
        .map(|dir| {
            dir.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "rs"))
                .filter_map(|e| std::fs::read_to_string(e.path()).ok())
                .map(|s| s.lines().count())
                .sum()
        })
        .unwrap_or(0);
    vec![
        ("git_rev", rev),
        ("host_cores", cores.to_string()),
        ("threaded_workers", THREADED_WORKERS.to_string()),
        ("runtime_loc", loc.to_string()),
        ("runtime_config_knobs", config_knobs().to_string()),
    ]
}

/// Number of `RuntimeConfig` fields, counted from its `Debug` form.
fn config_knobs() -> usize {
    let dbg = format!("{:?}", RuntimeConfig::default());
    let Some(body) = dbg.find('{').map(|i| &dbg[i + 1..]) else {
        return 0;
    };
    let (mut depth, mut fields) = (0i32, 0usize);
    let mut seen = false;
    for c in body.chars() {
        match c {
            '{' | '(' | '[' => depth += 1,
            '}' | ')' | ']' if depth == 0 => break,
            '}' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => fields += 1,
            c if !c.is_whitespace() => seen = true,
            _ => {}
        }
    }
    fields + usize::from(seen)
}

/// A finished, verified job.
struct Done {
    job: u64,
    /// Peak resident set of the process during the job, MB.
    peak_rss_mb: f64,
    start: Instant,
    jct: Duration,
    result: JobResult,
    wal_bytes: usize,
    wal_appends: usize,
}

/// Runs jobs of one workload and checks each one.
struct Bench<'a> {
    w: &'a Workload,
    reference: Reference,
    tmp: PathBuf,
    /// Encoded outputs of the first correct job; every later job, on
    /// either backend, must reproduce them byte for byte.
    golden: Option<Vec<u8>>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    next_job: u64,
    /// Whether every job repeats job 0's fault schedule (the traced run,
    /// so repeated jobs differ only by nondeterminism) instead of drawing
    /// its own.
    same_schedule: bool,
}

impl<'a> Bench<'a> {
    fn new(w: &'a Workload, tmp: &Path, same_schedule: bool) -> Self {
        Bench {
            w,
            reference: w.reference(),
            tmp: tmp.to_path_buf(),
            golden: None,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            next_job: 0,
            same_schedule,
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Checks encoded outputs against the run's first correct job.
    fn same_bytes(&mut self, outputs: &BTreeMap<String, Vec<Value>>) -> Result<(), String> {
        let bytes = encode_outputs(outputs)?;
        match &self.golden {
            None => self.golden = Some(bytes),
            Some(g) if *g != bytes => {
                return Err("encoded outputs differ from the run's first job".into())
            }
            Some(_) => {}
        }
        Ok(())
    }

    fn verify(&mut self, result: &JobResult) -> Result<(), String> {
        self.w.check(&self.reference, &result.outputs)?;
        self.same_bytes(&result.outputs)?;
        let violations = invariants::check(&result.journal, true);
        if let Some(v) = violations.first() {
            return Err(format!(
                "{} invariant violation(s), first: {v}",
                violations.len()
            ));
        }
        Ok(())
    }

    /// Runs, times and verifies one job; a failure is counted and
    /// returns `None`. The job's WAL, if any, is measured and deleted.
    fn run_job(&mut self, dag: &LogicalDag, backend: BackendKind) -> Option<Done> {
        let job = self.next_job;
        self.next_job += 1;
        self.attempted += 1;
        let wal = self
            .w
            .uses_wal()
            .then(|| self.tmp.join(format!("wal-{job}.log")));
        let cluster = self.w.cluster(backend, wal.as_deref());
        let faults = self.w.faults(if self.same_schedule { 0 } else { job });
        reset_peak_rss();
        let start = Instant::now();
        let outcome = cluster.run_with_faults(dag, faults);
        let jct = start.elapsed();
        let peak_rss_mb = peak_rss_mb();
        let (wal_bytes, wal_appends) = match &wal {
            Some(p) => {
                let bytes = std::fs::read(p).unwrap_or_default();
                let _ = std::fs::remove_file(p);
                (bytes.len(), scan(&bytes).frames.len())
            }
            None => (0, 0),
        };
        let checked = outcome
            .map_err(|e| e.to_string())
            .and_then(|result| self.verify(&result).map(|()| result));
        match checked {
            Ok(result) => Some(Done {
                job,
                peak_rss_mb,
                start,
                jct,
                result,
                wal_bytes,
                wal_appends,
            }),
            Err(e) => {
                self.fail(format!("{} job {job} ({backend:?}): {e}", self.w.name));
                None
            }
        }
    }

    /// One set-up: build the DAG, compile it, run the warm-up job.
    /// Returns the DAG, the set-up time, and the warm-up job's peak
    /// resident set in MB (0 if the job failed).
    fn setup(&mut self) -> Result<(LogicalDag, Duration, f64), String> {
        let t = Instant::now();
        let dag = self.w.dag();
        compile_with(&dag, &PlanConfig::default()).map_err(|e| e.to_string())?;
        let rss = self
            .run_job(&dag, BackendKind::Threaded)
            .map_or(0.0, |d| d.peak_rss_mb);
        Ok((dag, t.elapsed(), rss))
    }

    fn report(
        self,
        metrics: Vec<Metric>,
        mut notes: Vec<String>,
        spans_path: Option<PathBuf>,
    ) -> Report {
        notes.extend(self.errors.iter().map(|e| format!("FAILED {e}")));
        Report {
            workload: self.w.name,
            correct: self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            notes,
            spans_path,
        }
    }
}

/// `--trace 0`: set-up time, then a closed loop of jobs for `seconds`,
/// then one sim-backend job as the cross-backend oracle.
fn run_timed(w: &Workload, seconds: u64, tmp: &Path) -> Result<Report, String> {
    let mut bench = Bench::new(w, tmp, false);
    let mut setups = Vec::new();
    let mut first_rss = None;
    let mut dag = None;
    for _ in 0..SETUPS {
        drop(dag.take()); // one DAG's inputs resident at a time
        let (d, t, rss) = bench.setup()?;
        setups.push(t.as_secs_f64());
        first_rss.get_or_insert(rss);
        dag = Some(d);
    }
    let dag = dag.expect("SETUPS >= 1");

    let (mut jcts, mut relaunch) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    loop {
        if let Some(done) = bench.run_job(&dag, BackendKind::Threaded) {
            jcts.push(ms(done.jct));
            relaunch.push(done.result.metrics.relaunch_ratio());
        }
        if t0.elapsed() >= Duration::from_secs(seconds) {
            break;
        }
    }
    bench.run_job(&dag, BackendKind::Sim);

    let n = jcts.len();
    let jct_p50 = median(jcts.clone());
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let metrics = metrics(vec![
        ("jct_p50_ms", jct_p50, "ms"),
        // Input records over the median job time: the summed-time form
        // lets one slow job move the figure between identical runs.
        (
            "records_per_s",
            ratio(w.input_records() as f64, jct_p50 / 1e3),
            "1/s",
        ),
        // Attempts launched per task: 1 + the paper's relaunch ratio,
        // which is 0 on the fault-free workloads.
        ("task_attempt_ratio", 1.0 + mean(&relaunch), "x"),
        ("setup_s", median(setups), "s"),
        // Peak resident set while a fresh process runs its first job with
        // the inputs resident. Later jobs' peaks creep up with allocator
        // fragmentation, by an amount that varies from run to run.
        ("peak_rss_mb", first_rss.unwrap_or(0.0), "MB"),
    ]);
    let mut notes = vec![format!(
        "jobs={n} (closed loop, 1 client, threaded backend, {} input records/job)",
        w.input_records()
    )];
    // The highest percentile with at least ten samples beyond it.
    if n >= 20 {
        let p = ((n - 10) as f64 / n as f64 * 100.0).floor();
        notes.push(format!(
            "jct_p{p:.0}_ms={:.3} ms (n={n})",
            percentile(jcts.clone(), p / 100.0)
        ));
    }
    notes.push(format!(
        "relaunch_ratio={:.4} (mean over jobs)",
        mean(&relaunch)
    ));
    notes.push(format!(
        "failed_job_share={:.4} ({} of {} jobs)",
        bench.failed as f64 / bench.attempted.max(1) as f64,
        bench.failed,
        bench.attempted
    ));
    Ok(bench.report(metrics, notes, None))
}

/// Names of the counts a finished job reports, in [`job_counts`] order.
const JOB_COUNTS: [&str; 17] = [
    "master.events",
    "master.tasks_launched",
    "master.relaunched_tasks",
    "master.stages_reopened",
    "cache.side_bytes_sent",
    "cache.side_bytes_saved",
    "cache.hits",
    "cache.misses",
    "push.bytes_pushed",
    "push.records_preaggregated",
    "store.blocks_spilled",
    "store.spill_bytes",
    "store.blocks_loaded",
    "store.peak_bytes",
    "store.pushes_deferred",
    "wal.appends",
    "wal.bytes",
];

/// Names of the counts the layer replays report, in [`replay_layers`]
/// order.
const REPLAY_COUNTS: [&str; 3] = ["codec.encoded_bytes", "codec.raw_bytes", "compiler.fops"];

/// Counts that are classified but not reported as metrics: the hit and
/// miss tallies behind `cache.hit_rate`, and the side-input bytes the
/// cache saved.
const CLASSIFIED_ONLY: [&str; 3] = ["cache.side_bytes_saved", "cache.hits", "cache.misses"];

/// The [`JOB_COUNTS`] of one job.
fn job_counts(done: &Done) -> Vec<f64> {
    let m = &done.result.metrics;
    let reopened = done
        .result
        .journal
        .events()
        .filter(|e| matches!(e, JobEvent::StageReopened { .. }))
        .count();
    [
        done.result.journal.records().len(),
        m.tasks_launched,
        m.relaunched_tasks,
        reopened,
        m.side_bytes_sent,
        m.side_bytes_saved,
        m.cache_hits,
        m.cache_misses,
        m.bytes_pushed,
        m.records_preaggregated,
        m.blocks_spilled,
        m.spill_bytes,
        m.blocks_loaded,
        m.peak_store_bytes,
        m.pushes_deferred,
        done.wal_appends,
        done.wal_bytes,
    ]
    .map(|c| c as f64)
    .to_vec()
}

/// Units of the per-layer metrics that are counts.
fn count_unit(name: &str) -> &'static str {
    if name.contains("bytes") {
        "B"
    } else {
        "count"
    }
}

/// Everything one traced job contributes.
#[derive(Default)]
struct TracedJob {
    jct_ms: f64,
    /// [`JOB_COUNTS`] followed by [`REPLAY_COUNTS`].
    counts: Vec<f64>,
    /// Layer name → microseconds in this job's replays.
    layer_us: BTreeMap<&'static str, f64>,
    queue_ms: Vec<f64>,
    run_ms: Vec<f64>,
    busy_share: f64,
    hit_rate: f64,
    job_self_ms: f64,
}

/// Per-layer replays of one traced job, under a `layers` root span.
fn replay_layers(
    bench: &mut Bench,
    dag: &LogicalDag,
    done: &Done,
    tracer: &mut Tracer,
    tj: &mut TracedJob,
) -> Result<(), String> {
    let job = done.job;
    let config = bench.w.config(None);
    let root = tracer.open("layers", job, None);
    let plan = layers::replay_compile(dag, tracer, job, root)?;
    let serial = tracer.open("exec.serial_replay", job, Some(root));
    let replay = layers::serial_replay(dag, &plan, &config, tracer, job, serial)?;
    tracer.close(serial);
    bench
        .same_bytes(&replay.outputs)
        .map_err(|e| format!("serial replay: {e}"))?;
    let (blocks, bytes) = layers::replay_codec(&replay, tracer, job, root)?;
    drop(replay);
    layers::replay_store(&blocks, &config, tracer, job, root)?;
    drop(blocks);
    let wal_path = bench.tmp.join(format!("replay-{job}.wal"));
    layers::replay_wal(&done.result.journal, &config, &wal_path, tracer, job, root)?;
    layers::replay_journal(&done.result.journal, tracer, job, root);
    let violations = layers::replay_invariants(&done.result.journal, tracer, job, root);
    if let Some(v) = violations.first() {
        return Err(format!("invariants: {v}"));
    }
    tracer.close(root);
    for name in [
        "compile",
        "exec.serial_replay",
        "exec.apply_chain",
        "exec.route",
        "codec.encode",
        "store.admit",
        "store.get",
        "wal.append",
        "journal.emit",
        "invariants.check",
    ] {
        tj.layer_us.insert(name, tracer.total_us(name, job) as f64);
    }
    tj.counts
        .extend([bytes.encoded, bytes.raw, plan.fops.len()].map(|c| c as f64));
    Ok(())
}

/// `--trace 1`: alternating untraced and traced jobs for `seconds`, each
/// traced job followed by its layer replays, then sim-backend jobs. All
/// jobs repeat one fault schedule.
fn run_traced(
    w: &Workload,
    seed: u64,
    seconds: u64,
    tmp: &Path,
    out_dir: &Path,
) -> Result<Report, String> {
    let mut bench = Bench::new(w, tmp, true);
    let (dag, _, _) = bench.setup()?;
    let mut tracer = Tracer::new();
    let mut untraced = Vec::new();
    let mut traced: Vec<TracedJob> = Vec::new();
    let t0 = Instant::now();
    loop {
        if let Some(done) = bench.run_job(&dag, BackendKind::Threaded) {
            untraced.push(ms(done.jct));
        }
        if let Some(done) = bench.run_job(&dag, BackendKind::Threaded) {
            let origin = tracer.at_us(done.start);
            let job_us = done.jct.as_micros() as u64;
            let span = tracer.record("job", done.job, None, origin, origin + job_us);
            let times =
                layers::attempt_spans(&done.result.journal, &mut tracer, done.job, span, origin);
            let run_total: u64 = times.run_us.iter().sum();
            let mut tj = TracedJob {
                jct_ms: ms(done.jct),
                counts: job_counts(&done),
                queue_ms: times.queue_us.iter().map(|&u| u as f64 / 1e3).collect(),
                run_ms: times.run_us.iter().map(|&u| u as f64 / 1e3).collect(),
                busy_share: run_total as f64 / (THREADED_WORKERS as f64 * job_us.max(1) as f64),
                hit_rate: done.result.metrics.cache_hit_rate(),
                ..TracedJob::default()
            };
            match replay_layers(&mut bench, &dag, &done, &mut tracer, &mut tj) {
                Ok(()) => {
                    let selfs = tracer.self_times_us();
                    tj.job_self_ms = selfs[span] as f64 / 1e3;
                    traced.push(tj);
                }
                Err(e) => bench.fail(format!("{} job {} layer replay: {e}", w.name, done.job)),
            }
        }
        if t0.elapsed() >= Duration::from_secs(seconds) {
            break;
        }
    }
    let mut sim_jcts = Vec::new();
    let mut sim_counts = Vec::new();
    for _ in 0..SIM_JOBS {
        if let Some(done) = bench.run_job(&dag, BackendKind::Sim) {
            sim_jcts.push(ms(done.jct));
            sim_counts.push(job_counts(&done));
        }
    }

    let med = |f: &dyn Fn(&TracedJob) -> f64| median(traced.iter().map(f).collect());
    let layer_ms = |name: &'static str| {
        med(&|t: &TracedJob| t.layer_us.get(name).copied().unwrap_or(0.0) / 1e3)
    };
    let layer_us =
        |name: &'static str| med(&|t: &TracedJob| t.layer_us.get(name).copied().unwrap_or(0.0));
    let pooled = |f: &dyn Fn(&TracedJob) -> &Vec<f64>| -> Vec<f64> {
        traced.iter().flat_map(|t| f(t).iter().copied()).collect()
    };
    let jct_p50 = median(untraced.clone());
    let serial_ms = layer_ms("exec.serial_replay");
    let traced_p50 = med(&|t: &TracedJob| t.jct_ms);
    let queue = pooled(&|t: &TracedJob| &t.queue_ms);
    let run = pooled(&|t: &TracedJob| &t.run_ms);

    let mut metrics = metrics(vec![
        ("exec.serial_replay_ms", serial_ms, "ms"),
        ("exec.apply_chain_ms", layer_ms("exec.apply_chain"), "ms"),
        ("exec.route_ms", layer_ms("exec.route"), "ms"),
        ("runtime.overhead_x", ratio(jct_p50, serial_ms), "x"),
        ("codec.encode_ms", layer_ms("codec.encode"), "ms"),
        (
            "backend.queue_wait_p50_ms",
            percentile(queue.clone(), 0.5),
            "ms",
        ),
        ("backend.queue_wait_p99_ms", percentile(queue, 0.99), "ms"),
        ("backend.task_p50_ms", percentile(run.clone(), 0.5), "ms"),
        ("backend.task_p99_ms", percentile(run, 0.99), "ms"),
        (
            "backend.pool_busy_share",
            med(&|t: &TracedJob| t.busy_share),
            "share",
        ),
        ("backend.sim_jct_p50_ms", median(sim_jcts), "ms"),
        ("cache.hit_rate", med(&|t: &TracedJob| t.hit_rate), "share"),
        ("store.admit_us", layer_us("store.admit"), "us"),
        ("store.get_us", layer_us("store.get"), "us"),
        ("wal.append_us", layer_us("wal.append"), "us"),
        ("journal.emit_us", layer_us("journal.emit"), "us"),
        ("compiler.compile_us", layer_us("compile"), "us"),
        ("invariants.check_ms", layer_ms("invariants.check"), "ms"),
        (
            "trace.job_self_ms",
            med(&|t: &TracedJob| t.job_self_ms),
            "ms",
        ),
        ("trace.traced_jct_p50_ms", traced_p50, "ms"),
        ("trace.overhead_ms", traced_p50 - jct_p50, "ms"),
    ]);

    // Counts: the median over traced jobs, classified `exact` when every
    // repeated job on each backend read the same value. Only exact
    // counts can back a claim made on a count.
    let mut classes: Vec<(&'static str, &'static str, Vec<f64>, Vec<f64>)> = Vec::new();
    for (i, name) in JOB_COUNTS.into_iter().chain(REPLAY_COUNTS).enumerate() {
        let threaded: Vec<f64> = traced.iter().map(|t| t.counts[i]).collect();
        let sim: Vec<f64> = sim_counts
            .iter()
            .filter_map(|c| c.get(i).copied())
            .collect();
        let same = |v: &[f64]| v.windows(2).all(|p| p[0] == p[1]);
        let class = if same(&threaded) && same(&sim) {
            "exact"
        } else {
            "varying"
        };
        if !CLASSIFIED_ONLY.contains(&name) {
            metrics.push(Metric {
                name,
                value: median(threaded.clone()),
                unit: count_unit(name),
            });
        }
        classes.push((name, class, threaded, sim));
    }

    let mut self_us: Vec<(&'static str, f64)> = tracer
        .self_us_by_name()
        .into_iter()
        .map(|(k, v)| (k, v as f64 / traced.len().max(1) as f64))
        .collect();
    self_us.sort_by(|a, b| b.1.total_cmp(&a.1));

    let spans_path = out_dir.join(format!("{}-seed{seed}-spans.json", w.name));
    write_spans(&spans_path, w, seed, &tracer, &self_us, &classes)?;

    let mut notes = vec![format!(
        "traced jobs={} untraced jobs={} sim jobs={}; tracing overhead = traced p50 - untraced p50 = {:.3} ms",
        traced.len(),
        untraced.len(),
        SIM_JOBS,
        traced_p50 - jct_p50
    )];
    notes.push("self time per traced job (us):".into());
    for (name, us) in &self_us {
        notes.push(format!("  {name:<20} {us:>12.1}"));
    }
    notes.push("counts (exact = identical across repeated jobs on each backend):".into());
    for (name, class, threaded, sim) in &classes {
        notes.push(format!(
            "  {name:<28} {class:<8} threaded={} sim={}",
            distinct(threaded),
            distinct(sim)
        ));
    }
    Ok(bench.report(metrics, notes, Some(spans_path)))
}

/// The distinct values of a sample, as `a|b|c`.
fn distinct(v: &[f64]) -> String {
    let mut d: Vec<f64> = v.to_vec();
    d.sort_by(f64::total_cmp);
    d.dedup();
    d.iter()
        .map(|x| format!("{x}"))
        .collect::<Vec<_>>()
        .join("|")
}

fn write_spans(
    path: &Path,
    w: &Workload,
    seed: u64,
    tracer: &Tracer,
    self_us: &[(&'static str, f64)],
    classes: &[(&'static str, &'static str, Vec<f64>, Vec<f64>)],
) -> Result<(), String> {
    let mut s = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed},\n\"context\": {{",
        w.name
    );
    let ctx: Vec<String> = context()
        .into_iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    s.push_str(&ctx.join(", "));
    s.push_str("},\n\"self_us_per_job\": {");
    let selfs: Vec<String> = self_us
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
        .collect();
    s.push_str(&selfs.join(", "));
    s.push_str("},\n\"counts\": {");
    let list = |v: &[f64]| v.iter().map(|x| num(*x)).collect::<Vec<_>>().join(", ");
    let cls: Vec<String> = classes
        .iter()
        .map(|(n, c, t, sim)| {
            format!(
                "\n\"{n}\": {{\"class\": \"{c}\", \"threaded\": [{}], \"sim\": [{}]}}",
                list(t),
                list(sim)
            )
        })
        .collect();
    s.push_str(&cls.join(","));
    let _ = write!(s, "}},\n\"spans\": {}}}\n", tracer.spans_json());
    std::fs::create_dir_all(path.parent().unwrap_or(Path::new(".")))
        .and_then(|()| std::fs::write(path, s))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Runs one workload in the mode `args` selects, with its scratch files
/// (WALs, spill files) under `tmp`, which is removed afterwards.
fn run(args: &Args, name: &str, out_dir: &Path, tmp: &Path) -> Result<Report, String> {
    let w = Workload::new(name, args.seed, args.smoke)?;
    std::fs::create_dir_all(tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    let report = if args.trace {
        run_traced(&w, args.seed, args.seconds, tmp, out_dir)
    } else {
        run_timed(&w, args.seconds, tmp)
    };
    let _ = std::fs::remove_dir_all(tmp);
    report
}

/// `--workload all`: each workload in a child process of its own, so no
/// workload's heap is resident while another is measured.
fn run_all() -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("jobbench: cannot locate the running executable");
        return ExitCode::from(2);
    };
    let rest: Vec<String> = std::env::args().skip(1).collect();
    let mut worst = ExitCode::SUCCESS;
    for name in NAMES {
        let mut args = rest.clone();
        if let Some(i) = args.iter().position(|a| a == "--workload") {
            args[i + 1] = name.to_string();
        }
        match std::process::Command::new(&exe).args(&args).status() {
            Ok(s) if s.success() => {}
            Ok(_) => worst = ExitCode::FAILURE,
            Err(e) => {
                eprintln!("jobbench: {name}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    worst
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("jobbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all();
    }
    let out_dir = repo_root().join("jobbench-out");
    let tmp = out_dir.join(format!("tmp-{}", std::process::id()));
    // Spill files follow the temp dir; keep them inside the checkout.
    std::env::set_var("TMPDIR", &tmp);
    for (k, v) in context() {
        eprintln!("context {k}={v}");
    }
    let report = match run(&args, &args.workload, &out_dir, &tmp) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("jobbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "== {} (seed {}, trace {})",
        report.workload,
        args.seed,
        u8::from(args.trace)
    );
    for m in &report.metrics {
        eprintln!("{:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for n in &report.notes {
        eprintln!("{n}");
    }
    if let Some(p) = &report.spans_path {
        eprintln!("spans written to {}", p.display());
    }
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    /// `(name, unit)` of every metric `BENCHMARK.json` lists in `section`.
    fn listed(section: &str) -> Vec<(String, String)> {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json is readable");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let mut out: Vec<(String, String)> = doc
            .get(section)
            .and_then(Json::as_arr)
            .expect("section is a list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect();
        out.sort();
        out
    }

    fn check_spans(path: &Path) {
        let text = std::fs::read_to_string(path).expect("span file written");
        let doc = parse(&text).expect("span file parses");
        for k in [
            "git_rev",
            "host_cores",
            "threaded_workers",
            "runtime_loc",
            "runtime_config_knobs",
        ] {
            assert!(
                doc.get("context").and_then(|c| c.get(k)).is_some(),
                "context {k}"
            );
        }
        let spans = doc.get("spans").and_then(Json::as_arr).expect("spans list");
        assert!(!spans.is_empty());
        let num = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64).expect("numeric field");
        let mut names = std::collections::BTreeSet::new();
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(num(s, "id"), i as f64);
            names.insert(
                s.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
            );
            let (start, end, self_us) = (num(s, "start_us"), num(s, "end_us"), num(s, "self_us"));
            assert!(end >= start, "span {i} ends before it starts");
            assert!(
                (0.0..=end - start).contains(&self_us),
                "span {i} self time {self_us}"
            );
            match s.get("parent") {
                Some(Json::Null) => {}
                Some(Json::Num(p)) => assert!((*p as usize) < spans.len(), "span {i} parent {p}"),
                other => panic!("span {i} parent {other:?}"),
            }
        }
        for layer in [
            "job",
            "task.queue",
            "task.run",
            "layers",
            "compile",
            "exec.serial_replay",
            "exec.apply_chain",
            "exec.route",
            "codec.encode",
            "store.admit",
            "store.get",
            "wal.append",
            "journal.emit",
            "invariants.check",
        ] {
            assert!(names.contains(layer), "no {layer} span");
        }
    }

    #[test]
    fn smoke_runs_emit_every_listed_metric_and_well_formed_spans() {
        let out_dir = repo_root().join("jobbench-out").join("selftest");
        for name in NAMES {
            for trace in [false, true] {
                let args = Args {
                    workload: name.into(),
                    seed: VALIDATION_SEED,
                    seconds: 0,
                    trace,
                    smoke: true,
                };
                let tmp = out_dir.join(format!("tmp-{name}-{trace}"));
                let report = run(&args, name, &out_dir, &tmp).expect("smoke run");
                assert!(report.correct, "{name}: {:?}", report.notes);
                assert!(!tmp.exists(), "scratch directory left behind");
                let mut got: Vec<(String, String)> = report
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_string(), m.unit.to_string()))
                    .collect();
                got.sort();
                let section = if trace { "per_layer" } else { "end_to_end" };
                assert_eq!(got, listed(section), "{name} trace={trace}");
                let line = parse(&report.json()).expect("result line parses");
                assert_eq!(line.keys(), ["correct", "attempted", "failed", "metrics"]);
                // Metrics that are not gated (relaunch ratio, failed-job share,
                // tracing overhead, self times, count classes) go to stderr.
                let printed = |key: &str| report.notes.iter().any(|n| n.contains(key));
                let keys: &[&str] = if trace {
                    &[
                        "tracing overhead",
                        "self time per traced job",
                        "counts (exact",
                    ]
                } else {
                    &["relaunch_ratio=", "failed_job_share="]
                };
                for key in keys {
                    assert!(printed(key), "{name} trace={trace}: no {key:?} line");
                }
                if trace {
                    check_spans(report.spans_path.as_deref().expect("span file"));
                }
            }
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(
            [
                "--workload",
                "mr-pageviews",
                "--seed",
                "9",
                "--seconds",
                "3",
                "--trace",
                "1",
            ]
            .map(String::from)
            .into_iter(),
        )
        .expect("valid arguments");
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3, true));
        assert!(parse_args(["--trace", "2"].map(String::from).into_iter()).is_err());
        assert!(parse_args(std::iter::empty()).is_err());
    }

    #[test]
    fn config_knobs_counts_runtime_config_fields() {
        assert!(config_knobs() > 20);
    }
}
