//! Per-layer attribution from outside the runtime: each layer's public
//! functions replayed on one job's data under a span, and task-attempt
//! intervals rebuilt from the journal's timestamps.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use pado_core::compiler::{compile_with, FopId, InputSlot, PhysicalPlan, Placement, PlanConfig};
use pado_core::exec::{apply_chain, route};
use pado_core::runtime::executor::{combine_consumer, preaggregate};
use pado_core::runtime::master::required_src_indices;
use pado_core::runtime::store::BlockRef;
use pado_core::runtime::{
    invariants, EventJournal, ExecutorStore, JobEvent, Journal, RuntimeConfig, WalRecord, WalWriter,
};
use pado_dag::{block_from_vec, colcodec, Block, DepType, LogicalDag, MainSlot, Value};

use crate::trace::Tracer;

/// The outputs of a single-threaded replay of a plan.
pub struct SerialReplay {
    /// Every task's output, in plan order.
    pub blocks: Vec<((FopId, usize), Block)>,
    /// Sink outputs keyed like `JobResult::outputs`.
    pub outputs: BTreeMap<String, Vec<Value>>,
}

/// Executes `plan` task by task on this thread through
/// `exec::apply_chain` (plus the transient-side pre-aggregation the
/// runtime applies) and `exec::route` on every output edge — the
/// single-threaded baseline of the job. Inputs are assembled the way the
/// master assembles them, so the outputs must equal the cluster's.
pub fn serial_replay(
    dag: &LogicalDag,
    plan: &PhysicalPlan,
    config: &RuntimeConfig,
    tracer: &mut Tracer,
    job: u64,
    parent: usize,
) -> Result<SerialReplay, String> {
    let mut outputs: HashMap<(FopId, usize), Block> = HashMap::new();
    let mut routed: HashMap<(FopId, usize, usize), Vec<Block>> = HashMap::new();
    let mut blocks = Vec::new();
    for fop in &plan.fops {
        let in_edges = plan.in_edges(fop.id);
        let out_edges = plan.out_edges(fop.id);
        let preagg = if fop.placement == Placement::Transient && config.partial_aggregation {
            combine_consumer(dag, plan, fop.id)
        } else {
            None
        };
        for index in 0..fop.parallelism {
            let mut mains = Vec::new();
            let mut sides = BTreeMap::new();
            for e in &in_edges {
                let src_par = plan.fops[e.src].parallelism;
                let missing =
                    |si: usize| format!("input {}.{si} of task {}.{index} missing", e.src, fop.id);
                match e.slot {
                    InputSlot::Main(_) => {
                        let mut parts = Vec::new();
                        for si in required_src_indices(e, index, src_par, fop.parallelism) {
                            let part = if e.dep == DepType::ManyToMany {
                                routed
                                    .get(&(e.src, si, fop.parallelism))
                                    .and_then(|b| b.get(index))
                            } else {
                                outputs.get(&(e.src, si))
                            };
                            parts.push(Arc::clone(part.ok_or_else(|| missing(si))?));
                        }
                        mains.push(MainSlot::from_blocks(parts));
                    }
                    InputSlot::Side => {
                        let side = if src_par == 1 {
                            Arc::clone(outputs.get(&(e.src, 0)).ok_or_else(|| missing(0))?)
                        } else {
                            let mut all = Vec::new();
                            for si in 0..src_par {
                                let part = outputs.get(&(e.src, si)).ok_or_else(|| missing(si))?;
                                all.extend(part.iter().cloned());
                            }
                            block_from_vec(all)
                        };
                        sides.insert(e.member, side);
                    }
                }
            }
            let out = tracer.time("exec.apply_chain", job, Some(parent), || {
                let out = apply_chain(dag, fop, index, &mains, &sides)?;
                match &preagg {
                    Some((f, keyed)) => preaggregate(out, f, *keyed),
                    None => Ok(out),
                }
            });
            let block = block_from_vec(out.map_err(|e| format!("task {}.{index}: {e}", fop.id))?);
            for e in &out_edges {
                let dst_par = plan.fops[e.dst].parallelism;
                let buckets = tracer.time("exec.route", job, Some(parent), || {
                    route(&block, e.dep, index, dst_par)
                });
                if e.dep == DepType::ManyToMany {
                    routed.insert((fop.id, index, dst_par), buckets);
                }
            }
            outputs.insert((fop.id, index), Arc::clone(&block));
            blocks.push(((fop.id, index), block));
        }
    }
    let mut sinks: BTreeMap<String, Vec<Value>> = BTreeMap::new();
    for ((f, _), block) in &blocks {
        if plan.out_edges(*f).is_empty() {
            let name = dag.op(plan.fops[*f].tail()).name.clone();
            sinks.entry(name).or_default().extend(block.iter().cloned());
        }
    }
    Ok(SerialReplay {
        blocks,
        outputs: sinks,
    })
}

/// Byte counts of the codec replay.
pub struct CodecBytes {
    /// Σ `Block::encoded_len` over the task outputs.
    pub encoded: usize,
    /// Σ `Block::raw_len` (row encoding) over the same blocks.
    pub raw: usize,
}

/// Sizes and encodes every task output through `Block::encoded_len` and
/// `colcodec::encode_block`, on fresh copies so no memoized layout or
/// size is reused. Returns the fresh (now sized) blocks with the counts.
pub fn replay_codec(
    replay: &SerialReplay,
    tracer: &mut Tracer,
    job: u64,
    parent: usize,
) -> Result<(Vec<(BlockRef, Block)>, CodecBytes), String> {
    let fresh: Vec<(BlockRef, Block)> = replay
        .blocks
        .iter()
        .map(|((fop, index), b)| {
            let r = BlockRef::Output {
                fop: *fop,
                index: *index,
            };
            (r, block_from_vec(b.rows().to_vec()))
        })
        .collect();
    let encoded = tracer.time("codec.encode", job, Some(parent), || {
        let mut total = 0usize;
        for (_, b) in &fresh {
            total += b.encoded_len();
            colcodec::encode_block(b).map_err(|e| e.to_string())?;
        }
        Ok::<_, String>(total)
    })?;
    let raw = fresh.iter().map(|(_, b)| b.raw_len()).sum();
    Ok((fresh, CodecBytes { encoded, raw }))
}

/// Replays the job's output blocks through one executor store at the
/// workload's budget: `admit_or_spill` for every block, then `get` for
/// every block (reloading what spilled).
pub fn replay_store(
    blocks: &[(BlockRef, Block)],
    config: &RuntimeConfig,
    tracer: &mut Tracer,
    job: u64,
    parent: usize,
) -> Result<(), String> {
    let mut store = ExecutorStore::new(
        0,
        config.executor_memory_bytes,
        config.cache_capacity_bytes,
        Journal::new(),
    );
    tracer.time("store.admit", job, Some(parent), || {
        for (r, b) in blocks {
            store.admit_or_spill(*r, b).map_err(|e| e.to_string())?;
        }
        Ok::<_, String>(())
    })?;
    tracer.time("store.get", job, Some(parent), || {
        for (r, _) in blocks {
            store.get(*r).map_err(|e| e.to_string())?;
        }
        Ok(())
    })
}

/// The job's journal as owned `(stage, event)` pairs, cloned before any
/// timed replay so the replays time the layer, not the clone.
fn journal_events(journal: &EventJournal) -> Vec<(Option<usize>, JobEvent)> {
    journal
        .records()
        .iter()
        .map(|r| (r.stage, r.event.clone()))
        .collect()
}

/// Appends the job's journal to a fresh WAL through `WalWriter::append`
/// at the configured sync and snapshot intervals; removes the file.
pub fn replay_wal(
    journal: &EventJournal,
    config: &RuntimeConfig,
    path: &Path,
    tracer: &mut Tracer,
    job: u64,
    parent: usize,
) -> Result<(), String> {
    let records: Vec<WalRecord> = journal_events(journal)
        .into_iter()
        .map(|(stage, event)| WalRecord::Event { stage, event })
        .collect();
    let mut wal = WalWriter::create(
        path,
        Arc::new(AtomicU64::new(0)),
        config.wal_sync_every,
        config.wal_snapshot_every,
    )
    .map_err(|e| e.to_string())?;
    let appended = tracer.time("wal.append", job, Some(parent), || {
        for r in &records {
            wal.append(r)?;
        }
        wal.sync()
    });
    drop(wal);
    let _ = std::fs::remove_file(path);
    appended.map_err(|e| e.to_string())
}

/// Emits the job's events into a fresh journal through `Journal::emit`.
pub fn replay_journal(journal: &EventJournal, tracer: &mut Tracer, job: u64, parent: usize) {
    let events = journal_events(journal);
    let fresh = Journal::new();
    tracer.time("journal.emit", job, Some(parent), || {
        for (stage, event) in events {
            fresh.emit(stage, event);
        }
    });
}

/// Runs the invariant checker over the job's journal; returns the
/// violations.
pub fn replay_invariants(
    journal: &EventJournal,
    tracer: &mut Tracer,
    job: u64,
    parent: usize,
) -> Vec<String> {
    tracer.time("invariants.check", job, Some(parent), || {
        invariants::check(journal, true)
            .iter()
            .map(ToString::to_string)
            .collect()
    })
}

/// Compiles the DAG under a span; returns the plan.
pub fn replay_compile(
    dag: &LogicalDag,
    tracer: &mut Tracer,
    job: u64,
    parent: usize,
) -> Result<PhysicalPlan, String> {
    tracer
        .time("compile", job, Some(parent), || {
            compile_with(dag, &PlanConfig::default())
        })
        .map_err(|e| e.to_string())
}

/// Task-attempt intervals of one job, from journal timestamps.
#[derive(Debug, Default)]
pub struct AttemptTimes {
    /// `TaskLaunched` → `TaskStarted`, µs.
    pub queue_us: Vec<u64>,
    /// `TaskStarted` → `TaskCommitted` (or `TaskFailed`), µs.
    pub run_us: Vec<u64>,
}

/// Rebuilds each attempt's queue and run intervals from the journal and
/// records them as spans under `job_span`, offset by `origin_us` (the
/// tracer time at which the job started).
pub fn attempt_spans(
    journal: &EventJournal,
    tracer: &mut Tracer,
    job: u64,
    job_span: usize,
    origin_us: u64,
) -> AttemptTimes {
    let mut launched: HashMap<u64, u64> = HashMap::new();
    let mut started: HashMap<u64, u64> = HashMap::new();
    let mut times = AttemptTimes::default();
    for r in journal.records() {
        match &r.event {
            JobEvent::TaskLaunched { attempt, .. }
            | JobEvent::SpeculativeLaunched { attempt, .. } => {
                launched.insert(*attempt, r.at_us);
            }
            JobEvent::TaskStarted { attempt, .. } => {
                if let Some(&l) = launched.get(attempt) {
                    times.queue_us.push(r.at_us.saturating_sub(l));
                    tracer.record(
                        "task.queue",
                        job,
                        Some(job_span),
                        origin_us + l,
                        origin_us + r.at_us,
                    );
                }
                started.insert(*attempt, r.at_us);
            }
            JobEvent::TaskCommitted { attempt, .. } | JobEvent::TaskFailed { attempt, .. } => {
                if let Some(s) = started.remove(attempt) {
                    times.run_us.push(r.at_us.saturating_sub(s));
                    tracer.record(
                        "task.run",
                        job,
                        Some(job_span),
                        origin_us + s,
                        origin_us + r.at_us,
                    );
                }
            }
            _ => {}
        }
    }
    times
}
