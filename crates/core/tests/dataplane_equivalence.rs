//! Equivalence suite for the block-based data plane: a naive cloning
//! reference plane executes the same physical plans single-threaded —
//! per-consumer routing, owned `Vec<Value>` partitions, no sharing, no
//! pre-aggregation — and every cluster run must match it byte-for-byte
//! (codec-encoded), including runs under seeded chaos. This pins the
//! refactor's contract: sharing blocks instead of cloning records never
//! changes a single output byte.

use std::collections::BTreeMap;

use pado_core::compiler::{compile, InputSlot, PhysicalPlan};
use pado_core::exec::{apply_chain, route, route_hash};
use pado_core::runtime::master::required_src_indices;
use pado_core::runtime::{ChaosPlan, FaultPlan, LocalCluster, RuntimeConfig};
use pado_dag::codec::encode_batch;
use pado_dag::{
    block_from_vec, Block, CombineFn, DepType, LogicalDag, MainSlot, ParDoFn, Pipeline, SourceFn,
    TaskInput, Value,
};

/// The pre-refactor routing semantics: clone every record into its
/// bucket, once per consumer that asks.
fn route_reference(
    records: &[Value],
    dep: DepType,
    src_index: usize,
    dst_parallelism: usize,
) -> Vec<Vec<Value>> {
    let p = dst_parallelism.max(1);
    let mut buckets: Vec<Vec<Value>> = vec![Vec::new(); p];
    match dep {
        DepType::OneToOne | DepType::ManyToOne => {
            buckets[src_index % p].extend(records.iter().cloned());
        }
        DepType::OneToMany => {
            for b in &mut buckets {
                b.extend(records.iter().cloned());
            }
        }
        DepType::ManyToMany => {
            for r in records {
                let i = (route_hash(r) % p as u64) as usize;
                buckets[i].push(r.clone());
            }
        }
    }
    buckets
}

/// Executes a physical plan single-threaded with cloning assembly: every
/// task's inputs are materialized as fresh owned vectors, routed per
/// consumer, exactly as the pre-refactor master did.
fn run_reference(dag: &LogicalDag, plan: &PhysicalPlan) -> BTreeMap<String, Vec<Value>> {
    let n = plan.fops.len();
    let mut outputs: Vec<Vec<Vec<Value>>> = vec![Vec::new(); n];
    let mut done = vec![false; n];
    while done.iter().any(|d| !d) {
        let mut progressed = false;
        for f in 0..n {
            if done[f] || !plan.in_edges(f).iter().all(|e| done[e.src]) {
                continue;
            }
            let fop = &plan.fops[f];
            let dst_par = fop.parallelism;
            outputs[f] = (0..dst_par)
                .map(|index| {
                    let mut mains: Vec<MainSlot> = Vec::new();
                    let mut sides: BTreeMap<usize, Block> = BTreeMap::new();
                    for e in plan.in_edges(f) {
                        let src_par = plan.fops[e.src].parallelism;
                        match e.slot {
                            InputSlot::Main(_) => {
                                let mut part: Vec<Value> = Vec::new();
                                for si in required_src_indices(&e, index, src_par, dst_par) {
                                    let records = &outputs[e.src][si];
                                    match e.dep {
                                        DepType::ManyToMany => part.extend(
                                            route_reference(records, e.dep, si, dst_par)[index]
                                                .iter()
                                                .cloned(),
                                        ),
                                        _ => part.extend(records.iter().cloned()),
                                    }
                                }
                                mains.push(MainSlot::from_vec(part));
                            }
                            InputSlot::Side => {
                                let mut all = Vec::new();
                                for part in outputs[e.src].iter().take(src_par) {
                                    all.extend(part.iter().cloned());
                                }
                                sides.insert(e.member, block_from_vec(all));
                            }
                        }
                    }
                    apply_chain(dag, fop, index, &mains, &sides)
                        .unwrap_or_else(|e| panic!("reference task {f}.{index} failed: {e}"))
                })
                .collect();
            done[f] = true;
            progressed = true;
        }
        assert!(progressed, "physical plan has an input cycle");
    }

    let mut result: BTreeMap<String, Vec<Value>> = BTreeMap::new();
    for (f, parts) in outputs.iter().enumerate() {
        if !plan.out_edges(f).is_empty() {
            continue;
        }
        let name = dag.op(plan.fops[f].tail()).name.clone();
        let entry = result.entry(name).or_default();
        for part in parts {
            entry.extend(part.iter().cloned());
        }
    }
    result
}

fn encode(outputs: &BTreeMap<String, Vec<Value>>) -> Vec<(String, Vec<u8>)> {
    outputs
        .iter()
        .map(|(name, records)| (name.clone(), encode_batch(records).expect("encodes")))
        .collect()
}

fn ints(n: i64) -> Vec<Value> {
    (0..n).map(Value::from).collect()
}

/// Shuffle-heavy: ManyToMany into a keyed combine, then a gather.
fn wordcount_dag() -> LogicalDag {
    let p = Pipeline::new();
    p.read(
        "Read",
        4,
        SourceFn::new(|i, _| {
            (0..40)
                .map(|j| Value::from(format!("w{}", (i as i64 * 17 + j) % 13)))
                .collect()
        }),
    )
    .par_do(
        "Pair",
        ParDoFn::per_element(|w, emit| emit(Value::pair(w.clone(), Value::from(1i64)))),
    )
    .combine_per_key("Count", CombineFn::sum_i64())
    .sink("Out");
    p.build().unwrap()
}

/// Broadcast-heavy: a side input fanned out to every consumer task.
fn broadcast_dag() -> LogicalDag {
    let p = Pipeline::new();
    let bcast = p.read("Bcast", 3, SourceFn::from_vec(ints(30)));
    let data = p.read("Data", 4, SourceFn::from_vec(ints(12)));
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

/// Gather-heavy: group-by-key over a shuffle, list-valued outputs.
fn groupby_dag() -> LogicalDag {
    let p = Pipeline::new();
    p.read(
        "Read",
        3,
        SourceFn::new(|i, _| {
            (0..20)
                .map(|j| Value::pair(Value::from((i as i64 + j) % 7), Value::from(j)))
                .collect()
        }),
    )
    .group_by_key("Group")
    .sink("Out");
    p.build().unwrap()
}

/// Columnar float keys with the full bit-level zoo — `NaN`, `-0.0`,
/// `+0.0` — through a keyed combine. The vectorized grouping kernel
/// hashes these by their bits and sorts the distinct keys by
/// `total_cmp`; outputs must still be byte-identical to the row path's
/// `BTreeMap`.
fn floatkeys_dag() -> LogicalDag {
    let p = Pipeline::new();
    p.read(
        "Read",
        3,
        SourceFn::new(|i, _| {
            (0..24)
                .map(|j| {
                    let key = match j % 6 {
                        0 => 0.0f64,
                        1 => -0.0,
                        2 => f64::NAN,
                        3 => 1.5,
                        4 => -2.25,
                        _ => i as f64 + 0.5,
                    };
                    Value::pair(Value::from(key), Value::from(j as i64))
                })
                .collect()
        }),
    )
    .combine_per_key("SumPerKey", CombineFn::sum_i64())
    .sink("Out");
    p.build().unwrap()
}

fn shapes() -> Vec<(&'static str, LogicalDag)> {
    vec![
        ("wordcount", wordcount_dag()),
        ("broadcast", broadcast_dag()),
        ("groupby", groupby_dag()),
        ("floatkeys", floatkeys_dag()),
    ]
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        slots_per_executor: 2,
        event_timeout_ms: 10_000,
        max_task_attempts: 3,
        executor_fault_threshold: 2,
        speculation_floor_ms: 50,
        tick_ms: 5,
        ..Default::default()
    }
}

#[test]
fn new_route_matches_cloning_reference_on_all_edge_types() {
    let records: Vec<Value> = (0..200)
        .map(|i| Value::pair(Value::from(i % 23), Value::from(i)))
        .collect();
    let block = block_from_vec(records.clone());
    for dep in [
        DepType::OneToOne,
        DepType::OneToMany,
        DepType::ManyToOne,
        DepType::ManyToMany,
    ] {
        for (src, par) in [(0usize, 1usize), (2, 4), (5, 3), (7, 16)] {
            let new: Vec<Vec<Value>> = route(&block, dep, src, par)
                .iter()
                .map(|b| b.to_vec())
                .collect();
            let old = route_reference(&records, dep, src, par);
            assert_eq!(new, old, "route diverged: {dep:?} src={src} par={par}");
        }
    }
}

/// The vectorized kernels against their row oracle, directly: for every
/// grouping/combining operator over columnar inputs — i64, f64 (with
/// `NaN` and signed zeros), and string keys, spread across several
/// blocks — `apply_op` (kernel path) must produce exactly the records
/// of `apply_op_rows` (BTreeMap path).
#[test]
fn vectorized_kernels_match_row_oracle() {
    use pado_core::exec::{apply_op, apply_op_rows};

    let p = Pipeline::new();
    let src = p.read("Src", 1, SourceFn::from_vec(Vec::new()));
    src.group_by_key("G").sink("O1");
    src.combine_per_key("CK", CombineFn::sum_f64()).sink("O2");
    src.aggregate("CG", CombineFn::sum_f64()).sink("O3");
    let dag = p.build().unwrap();
    let op_named = |name: &str| {
        dag.op_ids()
            .find(|&id| dag.op(id).name == name)
            .expect("op exists")
    };

    let i64_keys: Vec<Value> = (0..300)
        .map(|i| Value::pair(Value::from(i % 17), Value::from(i as f64 / 3.0)))
        .collect();
    let f64_keys: Vec<Value> = (0..300)
        .map(|i| {
            let key = match i % 5 {
                0 => f64::NAN,
                1 => 0.0,
                2 => -0.0,
                _ => (i % 13) as f64 * 0.5,
            };
            Value::pair(Value::from(key), Value::from(i as f64))
        })
        .collect();
    let str_keys: Vec<Value> = (0..300)
        .map(|i| Value::pair(Value::from(format!("k{}", i % 11)), Value::from(i as f64)))
        .collect();

    for (what, rows) in [("i64", i64_keys), ("f64", f64_keys), ("str", str_keys)] {
        // Split across blocks so the kernels exercise multi-part gathers.
        let mains = [MainSlot::from_blocks(vec![
            block_from_vec(rows[..100].to_vec()),
            block_from_vec(rows[100..250].to_vec()),
            block_from_vec(rows[250..].to_vec()),
        ])];
        for b in mains[0].parts() {
            assert!(b.columns().is_some(), "{what}: input must be columnar");
        }
        for op in ["G", "CK", "CG"] {
            let input = pado_dag::TaskInput::new(&mains, None);
            let fast = apply_op(&dag, op_named(op), input).unwrap();
            let slow = apply_op_rows(&dag, op_named(op), input).unwrap();
            assert_eq!(
                encode_batch(&fast).unwrap(),
                encode_batch(&slow).unwrap(),
                "{what}/{op}: kernel diverged from row oracle"
            );
        }
    }
}

/// Mistyped records through grouping operators fail with a readable
/// error instead of being silently dropped (the pre-fix behavior).
#[test]
fn non_pair_records_error_instead_of_vanishing() {
    use pado_core::exec::apply_op;

    let p = Pipeline::new();
    let src = p.read("Src", 1, SourceFn::from_vec(Vec::new()));
    src.group_by_key("G").sink("O1");
    src.combine_per_key("CK", CombineFn::sum_i64()).sink("O2");
    let dag = p.build().unwrap();
    let op_named = |name: &str| {
        dag.op_ids()
            .find(|&id| dag.op(id).name == name)
            .expect("op exists")
    };

    let mains = [MainSlot::from_vec(vec![
        Value::pair(Value::from(1i64), Value::from(2i64)),
        Value::from(42i64), // not a pair
    ])];
    for (op, what) in [("G", "GroupByKey"), ("CK", "keyed Combine")] {
        let input = pado_dag::TaskInput::new(&mains, None);
        let err = apply_op(&dag, op_named(op), input).expect_err("must fail");
        assert!(
            err.reason().contains(what) && err.reason().contains("42"),
            "{op}: unreadable error: {err}"
        );
    }
}

#[test]
fn cluster_outputs_match_cloning_reference_plane() {
    for (name, dag) in shapes() {
        let plan = compile(&dag).unwrap();
        let expected = encode(&run_reference(&dag, &plan));
        let result = LocalCluster::new(2, 2)
            .with_config(config())
            .run(&dag)
            .unwrap_or_else(|e| panic!("{name}: cluster run failed: {e}"));
        assert_eq!(
            encode(&result.outputs),
            expected,
            "{name}: block data plane diverged from cloning reference"
        );
        pado_core::runtime::assert_clean(&result.journal, true);
    }
}

/// Chaos runs — evictions, reserved failures, master restarts, injected
/// UDF faults — must still land byte-for-byte on the reference answer.
#[test]
fn chaos_outputs_match_cloning_reference_plane() {
    for (name, dag) in shapes() {
        let plan = compile(&dag).unwrap();
        let expected = encode(&run_reference(&dag, &plan));
        for seed in 0..8u64 {
            let faults = FaultPlan {
                evictions: vec![(2 + (seed as usize % 3), seed as usize % 2)],
                reserved_failures: if seed % 3 == 0 { vec![(4, 0)] } else { vec![] },
                master_failure_after: (seed % 4 == 1).then_some(3),
                chaos: Some(ChaosPlan {
                    seed,
                    error_prob: 0.15,
                    panic_prob: 0.10,
                    oom_prob: 0.0,
                    delay_prob: 0.15,
                    delay_ms: 5,
                    max_faults_per_task: 2,
                }),
                budget_shrinks: Vec::new(),
                first_attempt_delays: Vec::new(),
                first_attempt_done_delays: Vec::new(),
                network: None,
                reconfigs: Vec::new(),
                spill_faults: None,
                crashes: None,
            };
            let result = LocalCluster::new(2, 2)
                .with_config(config())
                .run_with_faults(&dag, faults)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: chaos run failed: {e}"));
            assert_eq!(
                encode(&result.outputs),
                expected,
                "{name} seed {seed}: chaos run diverged from reference"
            );
            pado_core::runtime::assert_clean(&result.journal, true);
        }
    }
}

/// NaN payloads (quiet, negative, custom, signalling) and both zero
/// signs: every one of them is its own key under `Value`'s total order.
fn float_zoo() -> Vec<f64> {
    vec![
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff8_dead_beef_cafe),
        f64::from_bits(0x7ff0_0000_0000_0001),
        0.0,
        -0.0,
        1.5,
        -2.25,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ]
}

/// Keys of one scalar kind, `n` of them drawn from `distinct` values.
fn keys_of(kind: &str, n: usize, distinct: usize) -> Vec<Value> {
    let zoo = float_zoo();
    (0..n)
        .map(|i| {
            // 7 is coprime to every `distinct` used here, so the draws
            // cover all values while groups interleave in the input.
            let d = (i * 7) % distinct;
            match kind {
                "i64" => Value::from(d as i64 * 1_000_003 - 500),
                "f64" => Value::from(zoo.get(d).copied().unwrap_or(d as f64 * 0.25)),
                "str" => Value::from(format!("key-{d:03}")),
                "bytes" => Value::Bytes(std::sync::Arc::from(format!("b{d}").as_bytes())),
                _ => unreachable!("unknown key kind {kind}"),
            }
        })
        .collect()
}

/// The hash-grouping kernels against the row oracle on every key kind
/// and input shape: all duplicates, all distinct, a single record, and
/// a scattered mix, spread over several blocks. `GroupByKey` and keyed
/// `Combine` must encode byte-identically to the `BTreeMap` path, which
/// pins both the distinct-key order (NaN payloads and -0.0/+0.0 apart)
/// and the in-group value order.
#[test]
fn hash_kernels_match_row_oracle_on_every_key_kind() {
    use pado_core::exec::apply_op_rows;
    use pado_core::kernels::{combine_keyed, gather_pairs, group_by_key};

    let p = Pipeline::new();
    let src = p.read("Src", 1, SourceFn::from_vec(Vec::new()));
    src.group_by_key("G").sink("O1");
    src.combine_per_key("CK", CombineFn::sum_i64()).sink("O2");
    let dag = p.build().unwrap();
    let op_named = |name: &str| {
        dag.op_ids()
            .find(|&id| dag.op(id).name == name)
            .expect("op exists")
    };
    let sum = CombineFn::sum_i64();

    for kind in ["i64", "f64", "str", "bytes"] {
        for (shape, n, distinct) in [
            ("all-duplicate", 40, 1),
            ("all-distinct", 10, 10),
            ("single", 1, 1),
            ("mixed", 200, 10),
        ] {
            let rows: Vec<Value> = keys_of(kind, n, distinct)
                .into_iter()
                .enumerate()
                .map(|(i, k)| Value::pair(k, Value::from(i as i64)))
                .collect();
            let cut = n / 3;
            let mains = [MainSlot::from_blocks(vec![
                block_from_vec(rows[..cut].to_vec()),
                block_from_vec(rows[cut..].to_vec()),
            ])];
            let (keys, vals) = gather_pairs(&mains)
                .unwrap_or_else(|| panic!("{kind}/{shape}: input must be columnar"));
            let input = TaskInput::new(&mains, None);
            for (op, fast) in [
                ("G", group_by_key(&keys, &vals)),
                ("CK", combine_keyed(&keys, &vals, &sum)),
            ] {
                let slow = apply_op_rows(&dag, op_named(op), input).unwrap();
                assert_eq!(fast.len(), distinct.min(n), "{kind}/{shape}/{op}: groups");
                assert_eq!(
                    encode_batch(&fast).unwrap(),
                    encode_batch(&slow).unwrap(),
                    "{kind}/{shape}/{op}: hash kernel diverged from row oracle"
                );
            }
        }
    }
}

/// The old keyed pre-aggregation: a `BTreeMap` fold in arrival order.
fn preaggregate_reference(records: &[Value], f: &CombineFn) -> Vec<Value> {
    let mut accs: BTreeMap<Value, Value> = BTreeMap::new();
    for rec in records {
        let (k, v) = (rec.key().unwrap(), rec.val().unwrap());
        let acc = accs.remove(k).unwrap_or_else(|| f.identity());
        accs.insert(k.clone(), f.merge(acc, v.clone()));
    }
    accs.into_iter().map(|(k, v)| Value::pair(k, v)).collect()
}

/// Keys of every kind in one partition, so no column layout applies.
fn mixed_kind_pairs(n: usize) -> Vec<Value> {
    let zoo = float_zoo();
    (0..n)
        .map(|i| {
            let key = match i % 6 {
                0 => Value::from((i % 5) as i64),
                1 => Value::from(zoo[i % zoo.len()]),
                2 => Value::from(format!("s{}", i % 4)),
                3 => Value::Bytes(std::sync::Arc::from(&[(i % 3) as u8][..])),
                4 => Value::Unit,
                _ => Value::list(vec![Value::from((i % 2) as i64)]),
            };
            Value::pair(key, Value::from(i as i64))
        })
        .collect()
}

/// `KeyedCombiner` (through `preaggregate`) emits exactly the old
/// `BTreeMap` fold's bytes over mixed-kind keys, float oddities and
/// empty partitions, and reports the same records-minus-groups count.
#[test]
fn keyed_combiner_matches_btreemap_preaggregation() {
    use pado_core::exec::RecordSink;
    use pado_core::runtime::executor::{preaggregate, KeyedCombiner};

    let f = CombineFn::sum_i64();
    for n in [0usize, 1, 7, 300] {
        let records = mixed_kind_pairs(n);
        let expected = preaggregate_reference(&records, &f);

        let mut combiner = KeyedCombiner::new(&f);
        for rec in records.clone() {
            combiner.push(rec).unwrap();
        }
        let pushed = combiner.pushed();
        let streamed = combiner.finish();
        let batch = preaggregate(records, &f, true).unwrap();
        assert_eq!(
            encode_batch(&streamed).unwrap(),
            encode_batch(&expected).unwrap(),
            "n={n}: KeyedCombiner diverged from the BTreeMap fold"
        );
        assert_eq!(
            encode_batch(&batch).unwrap(),
            encode_batch(&expected).unwrap()
        );
        // The count journals record: records pushed minus groups.
        assert_eq!(pushed - streamed.len(), n - expected.len(), "n={n}");
    }
}

/// A map fused behind a source whose keys mix kinds; parallelism above
/// the record count leaves some partitions empty.
fn mixed_map_dag(partitions: usize) -> LogicalDag {
    let p = Pipeline::new();
    p.read("Read", partitions, SourceFn::from_vec(ints(40)))
        .par_do(
            "Map",
            ParDoFn::per_element(|v, emit| {
                let i = v.as_i64().unwrap() as usize;
                emit(mixed_kind_pairs(i + 1).pop().unwrap());
            }),
        )
        .combine_per_key("Reduce", CombineFn::sum_i64())
        .sink("Out");
    p.build().unwrap()
}

/// Streaming the map's output into a `KeyedCombiner` through
/// `apply_chain_into` gives the same bytes and the same pre-aggregated
/// count as collecting it with `apply_chain` and folding afterwards —
/// on every partition, empty ones included — and `apply_chain` itself
/// is unchanged.
#[test]
fn streamed_chain_preaggregation_matches_collect_then_fold() {
    use pado_core::exec::apply_chain_into;
    use pado_core::runtime::executor::{combine_consumer, KeyedCombiner};

    for partitions in [3usize, 64] {
        let dag = mixed_map_dag(partitions);
        let plan = compile(&dag).unwrap();
        let map = plan
            .fops
            .iter()
            .find(|f| f.chain.len() == 2)
            .expect("source and map fuse into one chain");
        let (f, keyed) = combine_consumer(&dag, &plan, map.id).expect("combine consumer");
        assert!(keyed);
        let mut empty = 0;
        for index in 0..partitions {
            let collected = apply_chain(&dag, map, index, &[], &BTreeMap::new()).unwrap();
            let expected = preaggregate_reference(&collected, &f);

            let mut streamed: Vec<Value> = Vec::new();
            apply_chain_into(&dag, map, index, &[], &BTreeMap::new(), &mut streamed).unwrap();
            assert_eq!(
                streamed, collected,
                "apply_chain is apply_chain_into into a Vec"
            );

            let mut combiner = KeyedCombiner::new(&f);
            apply_chain_into(&dag, map, index, &[], &BTreeMap::new(), &mut combiner).unwrap();
            let pushed = combiner.pushed();
            let out = combiner.finish();
            assert_eq!(
                encode_batch(&out).unwrap(),
                encode_batch(&expected).unwrap(),
                "partitions={partitions} index={index}: streamed combine diverged"
            );
            assert_eq!(pushed - out.len(), collected.len() - expected.len());
            empty += usize::from(collected.is_empty());
        }
        assert_eq!(
            empty,
            partitions.saturating_sub(40),
            "empty partitions covered"
        );
    }
}

/// A non-pair record reaching the streaming combiner — as the first
/// record or mid-stream — fails the task with the pre-aggregation error,
/// and a cluster run reports the same reason once retries run out.
#[test]
fn non_pair_record_fails_streamed_preaggregation() {
    use pado_core::exec::apply_chain_into;
    use pado_core::runtime::executor::{combine_consumer, KeyedCombiner};
    use pado_core::RuntimeError;

    const REASON: &str = "preaggregate: keyed combine requires key-value Pair records";
    for bad_at in [0i64, 5] {
        let p = Pipeline::new();
        p.read("Read", 2, SourceFn::from_vec(ints(20)))
            .par_do(
                "Map",
                ParDoFn::per_element(move |v, emit| {
                    let i = v.as_i64().unwrap();
                    if i / 2 == bad_at {
                        emit(Value::from(i));
                    } else {
                        emit(Value::pair(Value::from(i % 3), Value::from(i)));
                    }
                }),
            )
            .combine_per_key("Reduce", CombineFn::sum_i64())
            .sink("Out");
        let dag = p.build().unwrap();
        let plan = compile(&dag).unwrap();
        let map = plan.fops.iter().find(|f| f.chain.len() == 2).unwrap();
        let (f, _) = combine_consumer(&dag, &plan, map.id).unwrap();
        for index in 0..2 {
            let mut combiner = KeyedCombiner::new(&f);
            let err = apply_chain_into(&dag, map, index, &[], &BTreeMap::new(), &mut combiner)
                .expect_err("a non-pair record must fail the task");
            assert!(err.reason().starts_with(REASON), "bad_at={bad_at}: {err}");
            assert_eq!(
                combiner.pushed(),
                bad_at as usize,
                "pushed before the failure"
            );
        }

        let err = LocalCluster::new(2, 2)
            .with_config(config())
            .run(&dag)
            .expect_err("the job must fail");
        match err {
            RuntimeError::TaskFailed { reason, .. } => {
                assert!(reason.contains(REASON), "bad_at={bad_at}: {reason}")
            }
            other => panic!("bad_at={bad_at}: expected TaskFailed, got {other}"),
        }
    }
}
