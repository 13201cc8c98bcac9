//! Standalone seeded chaos driver for the runtime's failure domain: each
//! seed derives a randomized fault plan (evictions, reserved failures,
//! master restarts, probabilistic UDF errors/panics/OOMs/delays, and
//! mid-job store-budget shrinks), runs a real job on the in-process
//! cluster, and checks the result byte-for-byte against a fault-free
//! baseline plus the commit/retry invariants.
//!
//! Usage: `cargo run -p pado-bench --bin chaos [n_seeds] [--network]
//! [--reconfig] [--crash] [--journal <path>] [--wal-dump <path>]
//! [--backend <sim|threaded>] [--stall-diag <path>]`
//! `--backend` selects the execution backend for the seeded runs; the
//! fault-free baselines always run on the deterministic sim backend, so
//! `--backend threaded` doubles as a cross-backend differential check
//! under chaos.
//! `--network` adds the transport dimension: seeded message
//! drop/duplicate/reorder/delay in both directions plus timed executor
//! partitions kept below the dead-executor threshold, so outputs must
//! still match the fault-free baseline byte-for-byte.
//! `--reconfig` adds the live-reconfiguration dimension: seeded
//! epoch-fenced placement transactions (stage migrations, transient
//! drains — including infeasible requests that must abort cleanly)
//! plus spill-tier disk faults, racing the rest of the chaos.
//! `--crash` adds the durability dimension: each seed arms a write-ahead
//! log and a randomized crash schedule (fixed handler boundary,
//! every-k-th WAL append, or probabilistic), sometimes with seeded
//! bit-flip/truncation corruption of the WAL file itself; the recovered
//! run must still match the fault-free baseline byte-for-byte.
//! `--journal <path>` writes a Chrome-trace JSON of the last seed's
//! journal to `<path>` (open it in chrome://tracing or Perfetto).
//! `--wal-dump <path>` (with `--crash`) writes a human-readable frame
//! dump of the last seed's surviving WAL image to `<path>`.
//! `--stall-diag <path>` writes the structured stall diagnostics to
//! `<path>` if any seeded run wedges and the hang watchdog aborts it
//! with `RuntimeError::Stalled` (threaded backend; CI uploads this file
//! as a failure artifact).
//! Every seed's journal additionally replays through the generic
//! invariant checker. Exits non-zero if any seed violates an invariant.

use std::collections::HashMap;

use pado_core::compiler::Placement;
use pado_core::error::RuntimeError;
use pado_core::runtime::{
    temp_wal_path, BackendKind, ChaosPlan, CrashPlan, DirectionFaults, FaultPlan, JobEvent,
    JobResult, LocalCluster, NetworkFault, PartitionSpec, ReconfigChange, ReconfigTrigger,
    RuntimeConfig, ScheduledReconfig, SpillFaultPlan, WalCorruption,
};
use pado_dag::codec::encode_batch;
use pado_dag::{CombineFn, LogicalDag, ParDoFn, Pipeline, SourceFn, TaskInput, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MAX_TASK_ATTEMPTS: usize = 3;
const MAX_FAULTS_PER_TASK: usize = 2;

fn ints(n: i64) -> Vec<Value> {
    (0..n).map(Value::from).collect()
}

fn wordcount_dag() -> LogicalDag {
    let p = Pipeline::new();
    p.read(
        "Read",
        4,
        SourceFn::from_vec(vec![
            Value::from("pado harnesses transient resources"),
            Value::from("transient containers come and go"),
            Value::from("reserved containers hold the line"),
            Value::from("pado retries pado recovers"),
        ]),
    )
    .par_do(
        "Split",
        ParDoFn::per_element(|line, emit| {
            for w in line.as_str().unwrap_or("").split_whitespace() {
                emit(Value::pair(Value::from(w), Value::from(1i64)));
            }
        }),
    )
    .combine_per_key("Count", CombineFn::sum_i64())
    .sink("Out");
    p.build().unwrap()
}

fn side_input_dag() -> LogicalDag {
    let p = Pipeline::new();
    let bcast = p.read("Bcast", 3, SourceFn::from_vec(ints(9)));
    let data = p.read("Data", 2, SourceFn::from_vec(ints(6)));
    data.par_do_with_side(
        "AddSide",
        &bcast,
        ParDoFn::new(|input: TaskInput<'_>, emit| {
            let side_sum: i64 = input
                .side
                .unwrap_or(&[])
                .iter()
                .map(|v| v.as_i64().unwrap_or(0))
                .sum();
            for v in input.main() {
                emit(Value::from(v.as_i64().unwrap() + side_sum));
            }
        }),
    )
    .aggregate("Total", CombineFn::sum_i64())
    .sink("Out");
    p.build().unwrap()
}

fn chaos_config() -> RuntimeConfig {
    RuntimeConfig {
        slots_per_executor: 2,
        event_timeout_ms: 10_000,
        max_task_attempts: MAX_TASK_ATTEMPTS,
        executor_fault_threshold: 2,
        speculation_floor_ms: 50,
        tick_ms: 5,
        // Tight transport tunings so lost messages retry quickly, while
        // the dead threshold stays far above any injected partition.
        heartbeat_interval_ms: 20,
        dead_executor_timeout_ms: 600,
        retransmit_base_ms: 20,
        retransmit_max_ms: 160,
        ..Default::default()
    }
}

fn encode_outputs(result: &JobResult) -> Vec<(String, Vec<u8>)> {
    result
        .outputs
        .iter()
        .map(|(name, records)| (name.clone(), encode_batch(records).expect("encodes")))
        .collect()
}

/// A seeded network-fault dimension: moderate drop/dup/reorder/delay in
/// both directions, plus (one seed in four) a timed partition of one
/// transient executor that heals well below the dead threshold.
fn random_network(
    rng: &mut StdRng,
    seed: u64,
    n_transient: usize,
    n_reserved: usize,
) -> NetworkFault {
    let dir = |rng: &mut StdRng| DirectionFaults {
        drop_prob: rng.gen_range(0.0..0.15),
        dup_prob: rng.gen_range(0.0..0.10),
        reorder_prob: rng.gen_range(0.0..0.10),
        delay_prob: rng.gen_range(0.0..0.15),
        delay_ms: rng.gen_range(1..10u64),
    };
    let to_executor = dir(rng);
    let to_master = dir(rng);
    let partitions = if rng.gen_bool(0.25) {
        // Executors spawn reserved-first, so transient ids start at
        // n_reserved. Healing at most 370 ms after job start stays far
        // below the 600 ms dead threshold.
        vec![PartitionSpec {
            exec: n_reserved + rng.gen_range(0..n_transient),
            start_ms: rng.gen_range(20..120u64),
            duration_ms: rng.gen_range(50..250u64),
        }]
    } else {
        Vec::new()
    };
    NetworkFault {
        seed: seed ^ 0x4E45_54FA,
        to_executor,
        to_master,
        partitions,
    }
}

/// Seeded reconfiguration requests: stage migrations (both directions)
/// and transient drains, fired after a random number of task commits.
/// Out-of-range stages are generated on purpose — an infeasible request
/// must abort cleanly, not wedge the job.
fn random_reconfigs(rng: &mut StdRng, n_transient: usize) -> Vec<ScheduledReconfig> {
    let mut out = Vec::new();
    for _ in 0..rng.gen_range(1..3usize) {
        let change = if rng.gen_bool(0.7) {
            ReconfigChange::MigrateStage {
                stage: rng.gen_range(0..4usize),
                to: if rng.gen_bool(0.7) {
                    Placement::Reserved
                } else {
                    Placement::Transient
                },
            }
        } else {
            ReconfigChange::DrainTransient {
                nth: rng.gen_range(0..n_transient.max(1)),
            }
        };
        out.push(ScheduledReconfig {
            after_done_events: rng.gen_range(1..8usize),
            plan: change.into(),
            trigger: ReconfigTrigger::Chaos,
        });
    }
    out
}

/// A seeded crash schedule: one of the three trigger styles, a small
/// crash budget, and (one seed in three) seeded corruption of the WAL
/// file between crash and recovery.
fn random_crash_plan(rng: &mut StdRng, seed: u64) -> CrashPlan {
    let mut plan = CrashPlan {
        seed: seed ^ 0x632a_5b01,
        max_crashes: rng.gen_range(1..4usize),
        ..Default::default()
    };
    match rng.gen_range(0..3u32) {
        0 => plan.after_handled_frames = Some(rng.gen_range(1..20u64)),
        1 => plan.every_kth_append = Some(rng.gen_range(5..40u64)),
        _ => plan.handler_prob = 0.08,
    }
    if rng.gen_bool(0.3) {
        plan.corruption = Some(WalCorruption {
            seed: seed ^ 0xc0de,
            bit_flip_prob: 0.0005,
            truncate_prob: 0.3,
        });
    }
    plan
}

fn random_fault_plan(
    rng: &mut StdRng,
    seed: u64,
    network: bool,
    reconfig: bool,
    n_transient: usize,
    n_reserved: usize,
) -> FaultPlan {
    let evictions = (0..rng.gen_range(0..3usize))
        .map(|_| (rng.gen_range(1..10usize), rng.gen_range(0..3usize)))
        .collect();
    let reserved_failures = (0..rng.gen_range(0..2usize))
        .map(|_| (rng.gen_range(2..10usize), 0))
        .collect();
    let master_failure_after = if rng.gen_bool(0.2) {
        Some(rng.gen_range(3..8usize))
    } else {
        None
    };
    // Memory-pressure dimension: one seed in three squeezes a reserved
    // executor's store budget mid-job. The store clamps the applied
    // budget up to pinned occupancy and spills the rest, so the job must
    // still finish byte-identical.
    let budget_shrinks = if rng.gen_bool(0.35) {
        vec![(
            rng.gen_range(2..6usize),
            rng.gen_range(0..n_reserved),
            rng.gen_range(64..512usize),
        )]
    } else {
        Vec::new()
    };
    FaultPlan {
        evictions,
        reserved_failures,
        master_failure_after,
        chaos: Some(ChaosPlan {
            seed,
            error_prob: 0.15,
            panic_prob: 0.10,
            oom_prob: 0.10,
            delay_prob: 0.20,
            delay_ms: 8,
            max_faults_per_task: MAX_FAULTS_PER_TASK,
        }),
        budget_shrinks,
        first_attempt_delays: Vec::new(),
        first_attempt_done_delays: Vec::new(),
        network: network.then(|| random_network(rng, seed, n_transient, n_reserved)),
        reconfigs: if reconfig {
            random_reconfigs(rng, n_transient)
        } else {
            Vec::new()
        },
        spill_faults: (reconfig && rng.gen_bool(0.3)).then(|| SpillFaultPlan {
            seed: seed ^ 0x5349_4C4C,
            write_prob: rng.gen_range(0.0..0.3),
            read_prob: rng.gen_range(0.0..0.3),
        }),
        // Armed by the caller when `--crash` is on (it also needs the
        // WAL path in the config).
        crashes: None,
    }
}

/// Checks the per-seed invariants; returns violation descriptions.
fn violations(result: &JobResult, faults: &FaultPlan) -> Vec<String> {
    let mut out = Vec::new();

    // Replay through the generic invariant checker first.
    for v in pado_core::runtime::check(&result.journal, true) {
        out.push(v.to_string());
    }

    let events = result.journal.to_events();
    let events = &events;

    let mut failures: HashMap<(usize, usize), usize> = HashMap::new();
    for e in events {
        if let JobEvent::TaskFailed { fop, index, .. } = e {
            *failures.entry((*fop, *index)).or_default() += 1;
        }
    }
    for (task, n) in &failures {
        if *n >= MAX_TASK_ATTEMPTS {
            out.push(format!(
                "task {task:?} burned {n} attempts (budget {MAX_TASK_ATTEMPTS})"
            ));
        }
    }
    // The journal survives master restarts, so the failure metric always
    // equals the event count.
    let total_failures: usize = failures.values().sum();
    if result.metrics.task_failures != total_failures {
        out.push(format!(
            "metrics say {} failures, event log says {total_failures}",
            result.metrics.task_failures
        ));
    }

    let mut committed: HashMap<(usize, usize), bool> = HashMap::new();
    for e in events {
        match e {
            JobEvent::TaskCommitted { fop, index, .. } => {
                let slot = committed.entry((*fop, *index)).or_insert(false);
                if *slot {
                    out.push(format!("double commit of task {fop}.{index}"));
                }
                *slot = true;
            }
            JobEvent::TaskReverted { fop, index } => {
                committed.insert((*fop, *index), false);
            }
            _ => {}
        }
    }

    // A crash-matrix run syncs the WAL lazily, so a crash can lose the
    // `TaskLaunched` frames behind `first_attempted`: relaunches are then
    // re-counted as originals and the ledger slips. A
    // `master_failure_after` restart syncs every frame and balances.
    if faults.crashes.is_none()
        && result.metrics.tasks_launched
            != result.metrics.original_tasks
                + result.metrics.relaunched_tasks
                + result.metrics.speculative_launches
    {
        out.push(format!(
            "launch ledger out of balance: {:?}",
            result.metrics
        ));
    }

    // Retransmissions must stay bounded: with a healthy ack path every
    // message eventually lands, so no single frame should need anywhere
    // near this many tries even under heavy loss.
    if result.metrics.max_message_retransmissions > 64 {
        out.push(format!(
            "a message needed {} retransmissions",
            result.metrics.max_message_retransmissions
        ));
    }
    // `heartbeats_missed` is deliberately absent: a late heartbeat needs
    // no injected fault, only an oversubscribed machine starving the
    // executor thread past the interval — flagging it made the harness
    // flaky under concurrent builds.
    if faults.network.is_none()
        && (result.metrics.messages_dropped
            + result.metrics.messages_duplicated
            + result.metrics.messages_retransmitted
            + result.metrics.messages_deduplicated
            + result.metrics.executors_declared_dead)
            > 0
    {
        out.push(format!(
            "transport metrics nonzero without network faults: {:?}",
            result.metrics
        ));
    }
    out
}

fn main() {
    let mut n_seeds: u64 = 100;
    let mut network = false;
    let mut reconfig = false;
    let mut crash = false;
    let mut journal_path: Option<String> = None;
    let mut wal_dump_path: Option<String> = None;
    let mut stall_diag_path: Option<String> = None;
    let mut backend = BackendKind::Sim;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--network" {
            network = true;
        } else if arg == "--reconfig" {
            reconfig = true;
        } else if arg == "--crash" {
            crash = true;
        } else if arg == "--journal" {
            journal_path = Some(args.next().expect("--journal needs a path"));
        } else if arg == "--wal-dump" {
            wal_dump_path = Some(args.next().expect("--wal-dump needs a path"));
        } else if arg == "--stall-diag" {
            stall_diag_path = Some(args.next().expect("--stall-diag needs a path"));
        } else if arg == "--backend" {
            let spec = args.next().expect("--backend needs sim|threaded");
            backend = BackendKind::parse(&spec)
                .unwrap_or_else(|| panic!("unknown backend {spec:?} (sim|threaded)"));
        } else {
            n_seeds = arg.parse().expect("n_seeds must be an integer");
        }
    }

    let shapes: Vec<(&str, LogicalDag)> = vec![
        ("wordcount", wordcount_dag()),
        ("side_input", side_input_dag()),
    ];
    let baselines: Vec<Vec<(String, Vec<u8>)>> = shapes
        .iter()
        .map(|(name, dag)| {
            let r = LocalCluster::new(2, 2)
                .with_config(chaos_config())
                .run(dag)
                .unwrap_or_else(|e| panic!("fault-free baseline {name} failed: {e}"));
            encode_outputs(&r)
        })
        .collect();

    println!(
        "{:>5}  {:<10} {:>5} {:>4} {:>7} {:>5} {:>5} {:>5} {:>5} {:>4} {:>5} {:>5} {:>6} {:>5}  verdict",
        "seed",
        "shape",
        "evict",
        "rsvd",
        "restart",
        "fail",
        "spec",
        "black",
        "launch",
        "oom",
        "spill",
        "defer",
        "epoch",
        "crash"
    );
    let (mut ok, mut bad) = (0u64, 0u64);
    let mut total_failures = 0usize;
    let mut total_spec = 0usize;
    let mut total_oom = 0usize;
    let mut total_spills = 0usize;
    let mut total_commits = 0usize;
    let mut total_aborts = 0usize;
    let mut total_recoveries = 0usize;
    let mut total_frames_truncated = 0usize;
    let mut total_snapshot_restores = 0usize;
    let mut last_journal = None;
    let mut last_wal_image: Option<(u64, Vec<u8>)> = None;
    let mut stall_reports: Vec<String> = Vec::new();
    for seed in 0..n_seeds {
        let shape = (seed % shapes.len() as u64) as usize;
        let (name, dag) = &shapes[shape];
        let mut rng = StdRng::seed_from_u64(seed);
        let n_transient = rng.gen_range(1..4usize);
        let n_reserved = rng.gen_range(1..3usize);
        let mut faults =
            random_fault_plan(&mut rng, seed, network, reconfig, n_transient, n_reserved);
        let mut config = chaos_config();
        let wal = crash.then(|| temp_wal_path(&format!("chaos-bench-{seed}")));
        if let Some(path) = &wal {
            faults.crashes = Some(random_crash_plan(&mut rng, seed));
            config.wal_path = Some(path.to_string_lossy().into_owned());
            config.wal_sync_every = rng.gen_range(1..4usize);
            config.wal_snapshot_every = rng.gen_range(8..64usize);
        }
        let run = LocalCluster::new(n_transient, n_reserved)
            .with_backend(backend)
            .with_config(config)
            .run_with_faults(dag, faults.clone());
        if let Some(path) = &wal {
            if wal_dump_path.is_some() {
                if let Ok(bytes) = std::fs::read(path) {
                    last_wal_image = Some((seed, bytes));
                }
            }
            std::fs::remove_file(path).ok();
        }
        let result = match run {
            Ok(r) => r,
            Err(e) => {
                if let RuntimeError::Stalled { diagnostics } = &e {
                    stall_reports.push(format!(
                        "seed {seed} shape {name} stalled:\n{diagnostics}\n"
                    ));
                }
                println!("{seed:>5}  {name:<10} JOB FAILED: {e}");
                bad += 1;
                continue;
            }
        };
        let mut probs = violations(&result, &faults);
        if encode_outputs(&result) != baselines[shape] {
            probs.push("outputs diverged from fault-free baseline".into());
        }
        let verdict = if probs.is_empty() { "ok" } else { "VIOLATION" };
        println!(
            "{seed:>5}  {name:<10} {:>5} {:>4} {:>7} {:>5} {:>5} {:>5} {:>5} {:>4} {:>5} {:>5} {:>6} {:>5}  {verdict}",
            faults.evictions.len(),
            faults.reserved_failures.len(),
            faults
                .master_failure_after
                .map(|n| n.to_string())
                .unwrap_or_else(|| "-".into()),
            result.metrics.task_failures,
            result.metrics.speculative_launches,
            result.metrics.blacklisted_executors,
            result.metrics.tasks_launched,
            result.metrics.oom_injected,
            result.metrics.blocks_spilled,
            result.metrics.pushes_deferred,
            result.metrics.final_epoch,
            result.metrics.wal_recoveries,
        );
        for p in &probs {
            println!("       !! {p}");
        }
        if network {
            println!(
                "       net: dropped={} dup={} retx={} dedup={} max_retx={} dead={}",
                result.metrics.messages_dropped,
                result.metrics.messages_duplicated,
                result.metrics.messages_retransmitted,
                result.metrics.messages_deduplicated,
                result.metrics.max_message_retransmissions,
                result.metrics.executors_declared_dead,
            );
        }
        if reconfig {
            println!(
                "       reconfig: committed={} aborted={} fenced={} final_epoch={}",
                result.metrics.reconfigs_committed,
                result.metrics.reconfigs_aborted,
                result.metrics.frames_fenced,
                result.metrics.final_epoch,
            );
        }
        if crash {
            println!(
                "       crash: recoveries={} frames_replayed={} truncated={} snapshot_restores={}",
                result.metrics.wal_recoveries,
                result.metrics.wal_frames_replayed,
                result.metrics.wal_frames_truncated,
                result.metrics.wal_snapshot_restores,
            );
        }
        total_failures += result.metrics.task_failures;
        total_spec += result.metrics.speculative_launches;
        total_oom += result.metrics.oom_injected;
        total_spills += result.metrics.blocks_spilled;
        total_commits += result.metrics.reconfigs_committed;
        total_aborts += result.metrics.reconfigs_aborted;
        total_recoveries += result.metrics.wal_recoveries;
        total_frames_truncated += result.metrics.wal_frames_truncated;
        total_snapshot_restores += result.metrics.wal_snapshot_restores;
        last_journal = Some(result.journal);
        if probs.is_empty() {
            ok += 1;
        } else {
            bad += 1;
        }
    }
    if let (Some(path), Some(journal)) = (&journal_path, &last_journal) {
        if let Some(dir) = std::path::Path::new(path)
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
        {
            std::fs::create_dir_all(dir).expect("create trace directory");
        }
        std::fs::write(path, journal.chrome_trace()).expect("write Chrome trace");
        println!("wrote Chrome trace of the last seed to {path}");
    }
    if let (Some(path), Some((dump_seed, bytes))) = (&wal_dump_path, &last_wal_image) {
        if let Some(dir) = std::path::Path::new(path)
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
        {
            std::fs::create_dir_all(dir).expect("create dump directory");
        }
        let dump = pado_core::runtime::wal::dump_image(bytes, &format!("chaos seed {dump_seed}"));
        std::fs::write(path, dump).expect("write WAL dump");
        println!("wrote WAL frame dump of seed {dump_seed} to {path}");
    }
    if let Some(path) = &stall_diag_path {
        if !stall_reports.is_empty() {
            if let Some(dir) = std::path::Path::new(path)
                .parent()
                .filter(|d| !d.as_os_str().is_empty())
            {
                std::fs::create_dir_all(dir).expect("create stall-diag directory");
            }
            std::fs::write(path, stall_reports.join("\n")).expect("write stall diagnostics");
            println!(
                "wrote stall diagnostics for {} wedged seed(s) to {path}",
                stall_reports.len()
            );
        }
    }
    println!(
        "\n{ok}/{n_seeds} seeds clean, {bad} violating; \
         {total_failures} injected task failures survived, {total_spec} speculative launches, \
         {total_oom} injected allocation failures, {total_spills} blocks spilled, \
         {total_commits} reconfigs committed, {total_aborts} aborted; \
         crash: {total_recoveries} recoveries, {total_frames_truncated} frames truncated, \
         {total_snapshot_restores} snapshot restores"
    );
    if bad > 0 {
        std::process::exit(1);
    }
}
