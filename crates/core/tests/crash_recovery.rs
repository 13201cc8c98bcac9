//! Seeded crash-recovery matrix: the master is killed at handler
//! boundaries / WAL-append counts across 110 seeds, sometimes with
//! seeded bit-flip + truncation corruption of the WAL file itself, and
//! every recovered run is checked against a crash-free baseline.
//!
//! Invariants enforced per seed:
//! - outputs byte-identical to the crash-free run (codec-encoded),
//! - the journal replays cleanly through every invariant law, including
//!   law 10 (a recovered run is a consistent continuation: fenced
//!   pre-crash attempts never report terminally, and every
//!   `WalRecovered` pairs with a `MasterRecovered`),
//! - no double-commits across the crash (a second `TaskCommitted`
//!   needs an intervening `TaskReverted`),
//! - the reported metrics equal what the journal derives, so the
//!   recovery statistics (`wal_recoveries`, frames replayed/truncated,
//!   snapshot restores) are exactly the journal's story,
//! - recoveries never exceed the planned crash budget.

use std::collections::HashMap;
use std::fs;

use pado_core::runtime::{
    temp_wal_path, CrashPlan, FaultPlan, JobEvent, JobResult, LocalCluster, RuntimeConfig,
    WalCorruption,
};
use pado_dag::codec::encode_batch;
use pado_dag::{CombineFn, LogicalDag, ParDoFn, Pipeline, SourceFn, TaskInput, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 110;

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

fn crash_config(
    wal_path: Option<String>,
    sync_every: usize,
    wal_snapshot_every: usize,
) -> RuntimeConfig {
    RuntimeConfig {
        slots_per_executor: 2,
        event_timeout_ms: 10_000,
        max_task_attempts: 3,
        executor_fault_threshold: 2,
        speculation_floor_ms: 50,
        tick_ms: 5,
        wal_path,
        wal_sync_every: sync_every,
        wal_snapshot_every,
        ..Default::default()
    }
}

/// Encode every output collection; byte equality here is the strongest
/// form of "the crash did not change the answer".
fn encode_outputs(result: &JobResult) -> Vec<(String, Vec<u8>)> {
    result
        .outputs
        .iter()
        .map(|(name, records)| (name.clone(), encode_batch(records).expect("encodes")))
        .collect()
}

/// One randomized crash schedule: a trigger style (fixed handler
/// boundary, every-k-th WAL append, or probabilistic per boundary), a
/// crash budget, and sometimes file corruption between crash and
/// recovery.
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

fn check_crash_invariants(seed: u64, result: &JobResult, plan: &CrashPlan) {
    // Every recovered run must replay cleanly through the generic
    // invariant checker — law 10 (crash-recovery continuation) included.
    pado_core::runtime::assert_clean(&result.journal, true);

    // The recovery statistics on the result are exactly what the
    // journal derives (modulo the four wire-level counters the journal
    // cannot see).
    let mut derived = result.journal.derive_metrics();
    derived.messages_dropped = result.metrics.messages_dropped;
    derived.messages_duplicated = result.metrics.messages_duplicated;
    derived.messages_deduplicated = result.metrics.messages_deduplicated;
    derived.max_message_retransmissions = result.metrics.max_message_retransmissions;
    assert_eq!(
        derived, result.metrics,
        "seed {seed}: journal-derived metrics drifted from reported metrics"
    );

    let events = result.journal.to_events();

    // Commit-once across the crash: a durable commit must not re-commit
    // after recovery, and a lost commit must revert before relaunching.
    let mut committed: HashMap<(usize, usize), bool> = HashMap::new();
    for e in &events {
        match e {
            JobEvent::TaskCommitted { fop, index, .. } => {
                let slot = committed.entry((*fop, *index)).or_insert(false);
                assert!(
                    !*slot,
                    "seed {seed}: double commit of task {fop}.{index} across the crash"
                );
                *slot = true;
            }
            JobEvent::TaskReverted { fop, index } => {
                committed.insert((*fop, *index), false);
            }
            _ => {}
        }
    }

    // Every WAL recovery pairs with a master recovery, and the injector
    // never exceeds its crash budget.
    let master_recoveries = events
        .iter()
        .filter(|e| matches!(e, JobEvent::MasterRecovered))
        .count();
    assert_eq!(
        result.metrics.wal_recoveries, master_recoveries,
        "seed {seed}: a WAL-armed master must recover through the WAL every time"
    );
    assert!(
        result.metrics.wal_recoveries <= plan.max_crashes,
        "seed {seed}: {} recoveries exceed the crash budget {}",
        result.metrics.wal_recoveries,
        plan.max_crashes
    );
}

/// The 110-seed matrix: randomized crash schedules (three trigger
/// styles), randomized durability knobs, occasional evictions layered on
/// top, and seeded WAL-file corruption on ~30% of seeds.
#[test]
fn crash_matrix_preserves_outputs() {
    let shapes: Vec<(&str, LogicalDag)> = vec![
        ("wordcount", wordcount_dag()),
        ("side_input", side_input_dag()),
    ];
    let baselines: Vec<Vec<(String, Vec<u8>)>> = shapes
        .iter()
        .map(|(name, dag)| {
            let r = LocalCluster::new(2, 2)
                .with_config(crash_config(None, 1, 64))
                .run(dag)
                .unwrap_or_else(|e| panic!("crash-free baseline {name} failed: {e}"));
            encode_outputs(&r)
        })
        .collect();

    for seed in 0..SEEDS {
        let shape = (seed % shapes.len() as u64) as usize;
        let (name, dag) = &shapes[shape];
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(7));
        let n_transient = rng.gen_range(1..4usize);
        let n_reserved = rng.gen_range(1..3usize);
        let sync_every = rng.gen_range(1..4usize);
        let wal_snapshot_every = rng.gen_range(8..64usize);
        let plan = random_crash_plan(&mut rng, seed);
        let evictions = if rng.gen_bool(0.25) {
            vec![(rng.gen_range(1..10usize), rng.gen_range(0..3usize))]
        } else {
            Vec::new()
        };
        let wal = temp_wal_path(&format!("crash-matrix-{seed}"));
        let faults = FaultPlan {
            evictions,
            crashes: Some(plan),
            ..Default::default()
        };
        let result = LocalCluster::new(n_transient, n_reserved)
            .with_config(crash_config(
                Some(wal.to_string_lossy().into_owned()),
                sync_every,
                wal_snapshot_every,
            ))
            .run_with_faults(dag, faults.clone())
            .unwrap_or_else(|e| panic!("seed {seed} ({name}, {plan:?}) failed: {e}"));
        fs::remove_file(&wal).ok();
        assert_eq!(
            encode_outputs(&result),
            baselines[shape],
            "seed {seed} ({name}): outputs diverged from crash-free baseline"
        );
        check_crash_invariants(seed, &result, &plan);
    }
}

/// Exhaustive boundary sweep: kill the master at every single handler
/// boundary of the fixed wordcount job. Recovery must be correct no
/// matter which message the crash lands after.
#[test]
fn every_handler_boundary_recovers() {
    let dag = wordcount_dag();
    let baseline = encode_outputs(
        &LocalCluster::new(2, 2)
            .with_config(crash_config(None, 1, 64))
            .run(&dag)
            .expect("crash-free baseline"),
    );
    let mut recoveries_observed = 0usize;
    for boundary in 1..=32u64 {
        let wal = temp_wal_path(&format!("crash-boundary-{boundary}"));
        let plan = CrashPlan {
            seed: boundary,
            after_handled_frames: Some(boundary),
            max_crashes: 1,
            ..Default::default()
        };
        let result = LocalCluster::new(2, 2)
            .with_config(crash_config(
                Some(wal.to_string_lossy().into_owned()),
                1,
                16,
            ))
            .run_with_faults(
                &dag,
                FaultPlan {
                    crashes: Some(plan),
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("boundary {boundary} failed: {e}"));
        fs::remove_file(&wal).ok();
        assert_eq!(
            encode_outputs(&result),
            baseline,
            "boundary {boundary}: outputs diverged from crash-free baseline"
        );
        check_crash_invariants(boundary, &result, &plan);
        // A short job may complete before a high boundary is reached
        // (the handled-frame count varies with executor timing), but the
        // low boundaries are always hit.
        if boundary <= 6 {
            assert_eq!(
                result.metrics.wal_recoveries, 1,
                "boundary {boundary}: expected exactly one recovery"
            );
        }
        recoveries_observed += result.metrics.wal_recoveries;
    }
    assert!(
        recoveries_observed >= 12,
        "sweep injected only {recoveries_observed} recoveries; the boundary \
         schedule is not exercising the crash path"
    );
}

/// Crash injection needs no `wal_path`: the master keeps its log in
/// memory, and the recovered run matches the crash-free baseline byte
/// for byte.
#[test]
fn crashes_without_wal_path_recover_from_memory() {
    let dag = wordcount_dag();
    let baseline = encode_outputs(
        &LocalCluster::new(2, 2)
            .with_config(crash_config(None, 1, 64))
            .run(&dag)
            .expect("crash-free baseline"),
    );
    let plan = CrashPlan {
        after_handled_frames: Some(3),
        max_crashes: 1,
        ..Default::default()
    };
    let result = LocalCluster::new(2, 2)
        .with_config(crash_config(None, 1, 64))
        .run_with_faults(
            &dag,
            FaultPlan {
                crashes: Some(plan),
                ..Default::default()
            },
        )
        .expect("job completes");
    assert_eq!(encode_outputs(&result), baseline);
    assert!(
        result.metrics.wal_recoveries >= 1,
        "the crash plan must kill the master at least once"
    );
    check_crash_invariants(3, &result, &plan);
}

/// The legacy `master_failure_after` fault routes through WAL recovery,
/// with a WAL file and with the in-memory log alike: the run reports a
/// `WalRecovered` event for its one master restart.
#[test]
fn legacy_master_failure_uses_wal() {
    let dag = wordcount_dag();
    for wal in [Some(temp_wal_path("crash-legacy-route")), None] {
        let result = LocalCluster::new(2, 2)
            .with_config(crash_config(
                wal.as_ref().map(|p| p.to_string_lossy().into_owned()),
                1,
                16,
            ))
            .run_with_faults(
                &dag,
                FaultPlan {
                    master_failure_after: Some(3),
                    ..Default::default()
                },
            )
            .expect("job completes");
        if let Some(path) = &wal {
            fs::remove_file(path).ok();
        }
        let master_recoveries = result
            .journal
            .to_events()
            .iter()
            .filter(|e| matches!(e, JobEvent::MasterRecovered))
            .count();
        assert_eq!(master_recoveries, 1, "wal {wal:?}");
        assert_eq!(
            result.metrics.wal_recoveries, 1,
            "wal {wal:?}: a killed master must recover by replaying the log"
        );
        pado_core::runtime::assert_clean(&result.journal, true);
    }
}
