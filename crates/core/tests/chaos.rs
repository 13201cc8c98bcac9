//! Seeded chaos harness: randomized fault plans (evictions, reserved
//! failures, master restarts) combined with probabilistic UDF faults and
//! delays, each seed checked against a fault-free baseline.
//!
//! Invariants enforced per seed:
//! - outputs byte-identical to the fault-free run (codec-encoded),
//! - per-task failures stay under the retry budget,
//! - no double-commits (a second `TaskCommitted` needs an intervening
//!   `TaskReverted`),
//! - `task_failures` in metrics equals the event log,
//! - launch counts bounded by faults actually injected/simulated.

use std::collections::HashMap;

use pado_core::runtime::{ChaosPlan, FaultPlan, JobEvent, JobResult, LocalCluster, RuntimeConfig};
use pado_dag::codec::encode_batch;
use pado_dag::{CombineFn, LogicalDag, ParDoFn, Pipeline, SourceFn, TaskInput, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 110;
const MAX_TASK_ATTEMPTS: usize = 3;
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

fn chaos_config() -> RuntimeConfig {
    RuntimeConfig {
        slots_per_executor: 2,
        event_timeout_ms: 10_000,
        max_task_attempts: MAX_TASK_ATTEMPTS,
        executor_fault_threshold: 2,
        speculation_floor_ms: 50,
        tick_ms: 5,
        ..Default::default()
    }
}

/// Encode every output collection; byte equality here is the strongest
/// form of "faults did not change the answer".
fn encode_outputs(result: &JobResult) -> Vec<(String, Vec<u8>)> {
    result
        .outputs
        .iter()
        .map(|(name, records)| (name.clone(), encode_batch(records).expect("encodes")))
        .collect()
}

fn random_fault_plan(rng: &mut StdRng, seed: u64) -> FaultPlan {
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
    FaultPlan {
        evictions,
        reserved_failures,
        master_failure_after,
        chaos: Some(ChaosPlan {
            seed,
            error_prob: 0.15,
            panic_prob: 0.10,
            oom_prob: 0.0,
            delay_prob: 0.20,
            delay_ms: 8,
            max_faults_per_task: MAX_FAULTS_PER_TASK,
        }),
        budget_shrinks: Vec::new(),
        first_attempt_delays: Vec::new(),
        first_attempt_done_delays: Vec::new(),
        network: None,
        reconfigs: Vec::new(),
        spill_faults: None,
        crashes: None,
    }
}

fn check_invariants(seed: u64, result: &JobResult) {
    // Every seeded run must replay cleanly through the generic
    // invariant checker before the harness-specific checks below.
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

    let events = result.journal.to_events();
    let events = &events;

    // Retry budget: chaos injection is capped below the budget, so no
    // task may ever reach `max_task_attempts` user-code failures.
    let mut failures: HashMap<(usize, usize), usize> = HashMap::new();
    for e in events {
        if let JobEvent::TaskFailed { fop, index, .. } = e {
            *failures.entry((*fop, *index)).or_default() += 1;
        }
    }
    for (task, n) in &failures {
        assert!(
            *n < MAX_TASK_ATTEMPTS,
            "seed {seed}: task {task:?} burned {n} attempts (budget {MAX_TASK_ATTEMPTS})"
        );
    }
    // The journal survives master restarts, so the failure metric
    // always equals the event count.
    let total_failures: usize = failures.values().sum();
    assert_eq!(
        result.metrics.task_failures, total_failures,
        "seed {seed}: metric and event log disagree on failures"
    );

    // Commit-once: a re-commit requires an intervening revert.
    let mut committed: HashMap<(usize, usize), bool> = HashMap::new();
    for e in events {
        match e {
            JobEvent::TaskCommitted { fop, index, .. } => {
                let slot = committed.entry((*fop, *index)).or_insert(false);
                assert!(!*slot, "seed {seed}: double commit of task {fop}.{index}");
                *slot = true;
            }
            JobEvent::TaskReverted { fop, index } => {
                committed.insert((*fop, *index), false);
            }
            _ => {}
        }
    }

    // Launch counts are bounded by actual fault activity. Container
    // losses and master recoveries can silently drop a running attempt
    // (Running -> Pending without a revert event), so they bound the
    // slack globally.
    let container_losses = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                JobEvent::ContainerEvicted(_) | JobEvent::ReservedFailed(_)
            )
        })
        .count();
    let recoveries = events
        .iter()
        .filter(|e| matches!(e, JobEvent::MasterRecovered))
        .count();
    let mut launches: HashMap<(usize, usize), usize> = HashMap::new();
    let mut reverts: HashMap<(usize, usize), usize> = HashMap::new();
    let mut speculations: HashMap<(usize, usize), usize> = HashMap::new();
    for e in events {
        match e {
            JobEvent::TaskLaunched { fop, index, .. } => {
                *launches.entry((*fop, *index)).or_default() += 1;
            }
            JobEvent::TaskReverted { fop, index } => {
                *reverts.entry((*fop, *index)).or_default() += 1;
            }
            JobEvent::SpeculativeLaunched { fop, index, .. } => {
                *speculations.entry((*fop, *index)).or_default() += 1;
            }
            _ => {}
        }
    }
    for (task, n) in &launches {
        let bound = 1
            + failures.get(task).copied().unwrap_or(0)
            + reverts.get(task).copied().unwrap_or(0)
            + speculations.get(task).copied().unwrap_or(0)
            + container_losses
            + recoveries;
        assert!(
            *n <= bound,
            "seed {seed}: task {task:?} launched {n} times, bound {bound}"
        );
    }

    // The ledger balances exactly, master restarts included: WAL replay
    // restores `first_attempted` from the `TaskLaunched` frames, which
    // are synced every frame.
    assert_eq!(
        result.metrics.tasks_launched,
        result.metrics.original_tasks
            + result.metrics.relaunched_tasks
            + result.metrics.speculative_launches,
        "seed {seed}: launch ledger out of balance: {:?}",
        result.metrics
    );
}

#[test]
fn hundred_seeds_of_chaos_preserve_outputs() {
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

    for seed in 0..SEEDS {
        let shape = (seed % shapes.len() as u64) as usize;
        let (name, dag) = &shapes[shape];
        let mut rng = StdRng::seed_from_u64(seed);
        let n_transient = rng.gen_range(1..4usize);
        let n_reserved = rng.gen_range(1..3usize);
        let faults = random_fault_plan(&mut rng, seed);
        let result = LocalCluster::new(n_transient, n_reserved)
            .with_config(chaos_config())
            .run_with_faults(dag, faults.clone())
            .unwrap_or_else(|e| panic!("seed {seed} ({name}, {faults:?}) failed: {e}"));
        assert_eq!(
            encode_outputs(&result),
            baselines[shape],
            "seed {seed} ({name}): outputs diverged from fault-free baseline"
        );
        check_invariants(seed, &result);
    }
}
