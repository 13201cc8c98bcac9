//! Allocation proofs for the block data plane, via the global `Value`
//! clone counter: routing and pushing N records costs zero record clones
//! on one-to-one, gather, and broadcast edges, zero on a hash shuffle of
//! a columnar block (the vectorized kernel copies primitives), exactly N
//! on a hash shuffle of a heterogeneous row block, and an end-to-end
//! broadcast job stays O(records) instead of O(records × consumers).
//!
//! The counter is process-global and the test harness runs tests on
//! threads, so every counting test serializes on one mutex and measures
//! deltas only while holding it.

use std::sync::Mutex;

use pado_core::exec::route;
use pado_core::runtime::{LocalCluster, RuntimeConfig};
use pado_dag::value::clone_count;
use pado_dag::{block_from_vec, DepType, ParDoFn, Pipeline, SourceFn, TaskInput, Value};

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn route_clones_zero_records_on_sharing_edges_and_n_on_shuffle() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let n = 10_000usize;
    // Plain I64 records: one counter tick per record clone, no recursion.
    let block = block_from_vec((0..n as i64).map(Value::from).collect());

    let before = clone_count();
    let one_to_one = route(&block, DepType::OneToOne, 3, 8);
    let broadcast = route(&block, DepType::OneToMany, 0, 8);
    let gather = route(&block, DepType::ManyToOne, 5, 4);
    assert_eq!(
        clone_count() - before,
        0,
        "narrow and broadcast edges must share blocks, not clone records"
    );
    assert_eq!(one_to_one[3].len(), n);
    assert_eq!(broadcast.iter().map(|b| b.len()).sum::<usize>(), 8 * n);
    assert_eq!(gather[1].len(), n);

    // Columnar shuffle: the vectorized kernel buckets by copying column
    // primitives, never cloning a Value.
    let before = clone_count();
    let shuffled = route(&block, DepType::ManyToMany, 0, 8);
    assert_eq!(
        clone_count() - before,
        0,
        "a columnar hash shuffle must not clone records"
    );
    assert_eq!(shuffled.iter().map(|b| b.len()).sum::<usize>(), n);
}

#[test]
fn heterogeneous_shuffle_falls_back_to_one_clone_per_record() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let n = 1_000usize;
    // A Unit sentinel defeats column analysis, forcing the row path.
    let mut records: Vec<Value> = (0..n as i64 - 1).map(Value::from).collect();
    records.push(Value::Unit);
    let block = block_from_vec(records);
    assert!(block.columns().is_none(), "block must be heterogeneous");

    let before = clone_count();
    let shuffled = route(&block, DepType::ManyToMany, 0, 8);
    assert_eq!(
        clone_count() - before,
        n as u64,
        "the row shuffle clones each record exactly once"
    );
    assert_eq!(shuffled.iter().map(|b| b.len()).sum::<usize>(), n);
}

/// End-to-end: broadcasting N records to P consumer tasks — through the
/// master's location table, side-input packaging, and executor cache —
/// must cost far fewer than N record clones in total. The pre-refactor
/// plane deep-cloned the broadcast per consumer task (≥ N×P clones).
#[test]
fn broadcast_job_clones_far_fewer_records_than_the_dataset() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let n = 10_000i64;
    let consumers = 8usize;

    let p = Pipeline::new();
    let bcast = p.read(
        "Bcast",
        1,
        SourceFn::new(move |_, _| (0..n).map(Value::from).collect()),
    );
    let data = p.read(
        "Data",
        consumers,
        SourceFn::new(|i, _| vec![Value::from(i as i64)]),
    );
    data.par_do_with_side(
        "Scan",
        &bcast,
        ParDoFn::new(|input: TaskInput<'_>, emit| {
            let sum: i64 = input
                .side
                .unwrap_or(&[])
                .iter()
                .map(|v| v.as_i64().unwrap_or(0))
                .sum();
            for v in input.main() {
                emit(Value::from(v.as_i64().unwrap() + sum));
            }
        }),
    )
    .sink("Out");
    let dag = p.build().unwrap();

    let config = RuntimeConfig {
        slots_per_executor: 2,
        ..Default::default()
    };
    let before = clone_count();
    let result = LocalCluster::new(2, 2)
        .with_config(config)
        .run(&dag)
        .expect("broadcast job");
    let delta = clone_count() - before;

    assert_eq!(result.outputs["Out"].len(), consumers);
    let budget = (n as u64) / 10;
    assert!(
        delta < budget,
        "broadcast job cloned {delta} records; budget {budget} \
         (the cloning plane needed at least {})",
        n as u64 * consumers as u64
    );
}
