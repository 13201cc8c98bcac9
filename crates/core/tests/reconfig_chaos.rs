//! Seeded reconfiguration chaos: every seed runs a job with 1–2
//! scheduled mid-job reconfigurations (stage migrations and transient
//! drains) layered on top of moderate container/UDF chaos, and must
//! still produce outputs byte-identical to the fault-free, unreconfigured
//! baseline. Some seeds add injected spill-file disk faults and the
//! eviction-storm policy hook, so the two-phase transaction is exercised
//! against every abort trigger: evictions mid-prepare, prepare timeouts,
//! master restarts, and nonexistent target stages.
//!
//! Invariants enforced per seed:
//! - outputs byte-identical to the fault-free baseline (codec-encoded),
//! - the journal replays cleanly through `assert_clean` (laws 1–9,
//!   including epoch fencing: no task commits under a stale epoch and
//!   every `ReconfigPrepared` resolves),
//! - journal-derived metrics equal the reported metrics,
//! - every requested reconfiguration resolves as committed or aborted,
//!   and the final epoch equals the commit count.

use pado_core::compiler::Placement;
use pado_core::runtime::{
    ChaosPlan, FaultPlan, JobEvent, JobResult, LocalCluster, ReconfigChange, ReconfigTrigger,
    RuntimeConfig, ScheduledReconfig, SpillFaultPlan,
};
use pado_dag::codec::encode_batch;
use pado_dag::{CombineFn, LogicalDag, ParDoFn, Pipeline, SourceFn, TaskInput, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 110;
const MAX_TASK_ATTEMPTS: usize = 4;
/// Strictly below the retry budget so chaos alone can never exhaust a
/// task's attempts: every seeded job must complete.
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

fn reconfig_config(storm_threshold: usize) -> RuntimeConfig {
    RuntimeConfig {
        slots_per_executor: 2,
        event_timeout_ms: 10_000,
        max_task_attempts: MAX_TASK_ATTEMPTS,
        executor_fault_threshold: 2,
        speculation_floor_ms: 50,
        tick_ms: 5,
        // Short enough that a wedged prepare aborts well inside the
        // event timeout; long enough that quiesce normally succeeds.
        reconfig_prepare_timeout_ms: 500,
        reconfig_storm_threshold: storm_threshold,
        ..Default::default()
    }
}

/// Encode every output collection; byte equality here is the strongest
/// form of "reconfiguration did not change the answer".
fn encode_outputs(result: &JobResult) -> Vec<(String, Vec<u8>)> {
    result
        .outputs
        .iter()
        .map(|(name, records)| (name.clone(), encode_batch(records).expect("encodes")))
        .collect()
}

/// 1–2 reconfigurations against the progress clock. Stage indices run
/// past the real stage count on purpose: a migration naming a
/// nonexistent stage must abort cleanly, not wedge or corrupt.
fn random_reconfigs(rng: &mut StdRng, n_transient: usize) -> Vec<ScheduledReconfig> {
    (0..rng.gen_range(1..3usize))
        .map(|_| {
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
            ScheduledReconfig {
                after_done_events: rng.gen_range(1..8usize),
                plan: change.into(),
                trigger: ReconfigTrigger::Chaos,
            }
        })
        .collect()
}

fn random_fault_plan(rng: &mut StdRng, seed: u64, n_transient: usize) -> FaultPlan {
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
    let spill_faults = rng.gen_bool(0.3).then(|| SpillFaultPlan {
        seed: seed ^ 0x5349_4C4C,
        write_prob: rng.gen_range(0.0..0.3),
        read_prob: rng.gen_range(0.0..0.3),
    });
    FaultPlan {
        evictions,
        reserved_failures,
        master_failure_after,
        chaos: Some(ChaosPlan {
            seed,
            error_prob: 0.10,
            panic_prob: 0.05,
            oom_prob: 0.0,
            delay_prob: 0.20,
            delay_ms: 8,
            max_faults_per_task: MAX_FAULTS_PER_TASK,
        }),
        budget_shrinks: Vec::new(),
        first_attempt_delays: Vec::new(),
        first_attempt_done_delays: Vec::new(),
        network: None,
        reconfigs: random_reconfigs(rng, n_transient),
        spill_faults,
        crashes: None,
    }
}

fn check_reconfig_invariants(seed: u64, result: &JobResult) {
    // Laws 1–9: commit-once, retry budgets, epoch fencing, every
    // prepared transaction resolves, aborted reconfigs leave the job
    // completable (the run finishing at all already proves the last).
    pado_core::runtime::assert_clean(&result.journal, true);

    // The metrics surfaced on the result must be exactly what the
    // journal derives (modulo the four wire-level counters the journal
    // cannot see, which we copy over before comparing).
    let mut derived = result.journal.derive_metrics();
    derived.messages_dropped = result.metrics.messages_dropped;
    derived.messages_duplicated = result.metrics.messages_duplicated;
    derived.messages_deduplicated = result.metrics.messages_deduplicated;
    derived.max_message_retransmissions = result.metrics.max_message_retransmissions;
    assert_eq!(
        derived, result.metrics,
        "seed {seed}: journal-derived metrics drifted from reported metrics"
    );

    // Transactions balance: every request resolves, and the epoch moved
    // once per commit — no silent applies, no lost transactions.
    let m = &result.metrics;
    let requested = result
        .journal
        .to_events()
        .iter()
        .filter(|e| matches!(e, JobEvent::ReconfigRequested { .. }))
        .count();
    assert_eq!(
        requested,
        m.reconfigs_committed + m.reconfigs_aborted,
        "seed {seed}: unresolved reconfiguration transactions: {m:?}"
    );
    assert_eq!(
        m.final_epoch, m.reconfigs_committed as u64,
        "seed {seed}: epoch drifted from commit count: {m:?}"
    );
}

#[test]
fn hundred_seeds_of_reconfig_chaos_preserve_outputs() {
    let shapes: Vec<(&str, LogicalDag)> = vec![
        ("wordcount", wordcount_dag()),
        ("side_input", side_input_dag()),
    ];
    let baselines: Vec<Vec<(String, Vec<u8>)>> = shapes
        .iter()
        .map(|(name, dag)| {
            let r = LocalCluster::new(2, 2)
                .with_config(reconfig_config(0))
                .run(dag)
                .unwrap_or_else(|e| panic!("fault-free baseline {name} failed: {e}"));
            encode_outputs(&r)
        })
        .collect();

    for seed in 0..SEEDS {
        let shape = (seed % shapes.len() as u64) as usize;
        let (name, dag) = &shapes[shape];
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5245_434F_4E46);
        let n_transient = rng.gen_range(2..4usize);
        let n_reserved = rng.gen_range(1..3usize);
        // A quarter of the seeds arm the eviction-storm policy hook, so
        // chaos evictions can also trigger the degrade-to-reserved path.
        let storm_threshold = if rng.gen_bool(0.25) { 2 } else { 0 };
        let faults = random_fault_plan(&mut rng, seed, n_transient);
        let result = LocalCluster::new(n_transient, n_reserved)
            .with_config(reconfig_config(storm_threshold))
            .run_with_faults(dag, faults.clone())
            .unwrap_or_else(|e| panic!("seed {seed} ({name}, {faults:?}) failed: {e}"));
        assert_eq!(
            encode_outputs(&result),
            baselines[shape],
            "seed {seed} ({name}): outputs diverged from fault-free baseline"
        );
        check_reconfig_invariants(seed, &result);
    }
}

/// A three-stage chain whose last combine is two shuffle boundaries away
/// from the source: when the reconfig trigger fires on the first done
/// event (a Read task), the middle stage cannot have committed yet, so
/// repartitioning the last stage is still feasible at commit time.
fn two_combine_dag() -> LogicalDag {
    let p = Pipeline::new();
    p.read(
        "Read",
        4,
        SourceFn::from_vec(
            (0..12i64)
                .map(|i| Value::pair(Value::from(format!("k{}", i % 5)), Value::from(i)))
                .collect(),
        ),
    )
    .combine_per_key("A", CombineFn::sum_i64())
    .par_do("Shift", ParDoFn::per_element(|kv, emit| emit(kv.clone())))
    .combine_per_key("B", CombineFn::sum_i64())
    .sink("Out");
    p.build().unwrap()
}

/// Repartitioning changes bucketing (and therefore output order), so the
/// byte-identical matrix above deliberately excludes it. Here we pin it
/// deterministically: repartition the still-pending final combine before
/// its producers commit, and check value-equality under sorting instead.
#[test]
fn repartition_of_pending_stage_commits_and_preserves_values() {
    let dag = two_combine_dag();
    let baseline = LocalCluster::new(2, 2)
        .with_config(reconfig_config(0))
        .run(&dag)
        .expect("baseline run failed");
    let mut base_out: Vec<String> = baseline.outputs["Out"]
        .iter()
        .map(|v| format!("{v:?}"))
        .collect();
    base_out.sort();

    // Fire after the first terminal task report (a Read task): combine B
    // (fop 3 — its in-edge is a shuffle, so rebucketing is safe) is
    // pending and its producer stage has not committed, so the
    // transaction must quiesce, commit, and rebuild B at the new
    // parallelism.
    let result = LocalCluster::new(2, 2)
        .with_config(reconfig_config(0))
        .with_reconfig(
            1,
            ReconfigChange::Repartition {
                fop: 3,
                parallelism: 3,
            }
            .into(),
        )
        .run(&dag)
        .expect("repartitioned run failed");
    let mut out: Vec<String> = result.outputs["Out"]
        .iter()
        .map(|v| format!("{v:?}"))
        .collect();
    out.sort();

    assert_eq!(out, base_out, "repartitioning changed the answer");
    pado_core::runtime::assert_clean(&result.journal, true);
    let m = &result.metrics;
    assert_eq!(
        m.reconfigs_committed, 1,
        "the repartition should have committed: {m:?}"
    );
    assert_eq!(m.final_epoch, 1);
    let requested = result
        .journal
        .to_events()
        .iter()
        .filter(|e| matches!(e, JobEvent::ReconfigRequested { .. }))
        .count();
    assert_eq!(requested, m.reconfigs_committed + m.reconfigs_aborted);
}
