//! The Pado master: container manager, task scheduler, eviction and fault
//! tolerance (§3.2.1, §3.2.3, §3.2.5, §3.2.6).
//!
//! The master executes the stage DAG stage-by-stage in topological order.
//! When a stage becomes runnable it first *assigns* the stage's
//! reserved-side tasks to reserved executors (so transient tasks know their
//! push destinations), then launches tasks as their inputs become
//! available. A transient task's completed output is immediately pushed to
//! the reserved executors hosting its consumer tasks and committed —
//! recorded in the master's location table — so it escapes the threat of
//! evictions.
//!
//! On a transient container eviction, only the evicted executor's
//! uncommitted work is relaunched: running attempts and any outputs whose
//! sole location was the evicted container. Committed stage outputs on
//! reserved executors are never recomputed. On a (rare) reserved executor
//! failure, the master pauses descendant stages, walks ancestor stages in
//! topological order, and relaunches exactly the tasks whose preserved
//! outputs were lost.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use pado_dag::{block_from_vec, Block, DepType, MainSlot, Value};
use parking_lot::Mutex;

use crate::compiler::{FopId, InputSlot, Placement, PlanEdge};
use crate::error::RuntimeError;
use crate::exec::route;
use crate::runtime::backend::{CancelToken, ExecBackend, SimBackend, StallProbe, WorkerPool};
use crate::runtime::cache::CacheKey;
use crate::runtime::clock::Clock;
use crate::runtime::executor::{combine_consumer, ExecutorHandle, JobContext};
use crate::runtime::fault::FaultInjector;
use crate::runtime::journal::{
    EventJournal, Journal, JournalMeta, MAX_RETRANSMISSIONS_PER_MESSAGE,
};
use crate::runtime::message::{
    AttemptId, ExecId, ExecutorMsg, InjectedFault, MasterMsg, SideData, TaskSpec,
};
use crate::runtime::metrics::JobMetrics;
use crate::runtime::policy::{Candidate, RoundRobinCacheAware, SchedulingPolicy, TaskToPlace};
use crate::runtime::reconfig::{ReconfigChange, ReconfigPlan, ReconfigTrigger, ScheduledReconfig};
use crate::runtime::store::{
    block_bytes, BlockRef, ExecutorStore, SpillFaultPlan, StoreError, StoreHandle,
};
use crate::runtime::transport::{
    mix64, DedupWindow, Direction, ExecIn, FaultyLink, NetPolicy, NetworkFault, ReliableSender,
    TransportCounters, Wire,
};
use crate::runtime::wal::{RecoveredState, WalCorruption, WalRecord, WalSnapshot, WalWriter};

/// Probabilistic user-code fault injection, decided deterministically per
/// `(seed, task, launch ordinal)` so every chaos run is exactly
/// reproducible from its seed.
///
/// Faults count against the per-task cap `max_faults_per_task`; keeping
/// the cap below the runtime's `max_task_attempts` guarantees a chaos run
/// can always complete. Delays are not faults and are never capped.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// Seed for the injection decisions.
    pub seed: u64,
    /// Probability a launch fails with a user-function error.
    pub error_prob: f64,
    /// Probability a launch fails with a user-function panic.
    pub panic_prob: f64,
    /// Probability a launch stalls before computing (straggler).
    pub delay_prob: f64,
    /// Maximum injected stall in milliseconds (actual stall is uniform in
    /// `1..=delay_ms`).
    pub delay_ms: u64,
    /// Probability a launch fails with a mid-task allocation failure
    /// (the executor-store budget exhausted at the worst moment). Counts
    /// against `max_faults_per_task` like errors and panics.
    pub oom_prob: f64,
    /// Injected error/panic/OOM budget per task across all its launches.
    pub max_faults_per_task: usize,
}

/// The master-crash chaos family: kills the master at handler
/// boundaries and recovers it from the write-ahead log.
///
/// A crash is evaluated after every handled frame (the only points an
/// in-process master can die without leaving a handler half-applied; a
/// real process crash mid-handler loses the same unsynced WAL suffix).
/// Any satisfied trigger fires, up to `max_crashes` total. All decisions
/// are deterministic in `(seed, handled-frame ordinal)`, except the
/// append-count trigger, whose clock advances with concurrent executor
/// emissions — recovery must be correct at *any* boundary, so the
/// trigger's exact landing spot is allowed to float.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrashPlan {
    /// Seed for the probabilistic handler-boundary trigger.
    pub seed: u64,
    /// Crash once every `n` handled frames (exhaustive boundary sweeps
    /// set this to each boundary in turn with `max_crashes = 1`).
    pub after_handled_frames: Option<u64>,
    /// Crash when the WAL has absorbed another `k` appends.
    pub every_kth_append: Option<u64>,
    /// Probability of crashing at each handled-frame boundary.
    pub handler_prob: f64,
    /// Total crash budget for the run (0 disables the family).
    pub max_crashes: usize,
    /// Seeded corruption applied to the WAL image at each crash, before
    /// recovery scans it (bit flips and torn-tail truncation).
    pub corruption: Option<WalCorruption>,
}

/// Scheduled faults injected deterministically while a job runs.
///
/// Thresholds count *processed task completions*: `(n, k)` fires when the
/// master has handled `n` valid task completions, targeting the `k`-th
/// alive executor of the relevant kind (in id order).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Transient container evictions.
    pub evictions: Vec<(usize, usize)>,
    /// Reserved executor machine failures.
    pub reserved_failures: Vec<(usize, usize)>,
    /// Kill the master after this many completions; the replacement
    /// recovers by replaying the write-ahead log (kept in memory when
    /// `RuntimeConfig::wal_path` is unset).
    pub master_failure_after: Option<usize>,
    /// Probabilistic user-code fault injection (chaos testing).
    pub chaos: Option<ChaosPlan>,
    /// Stall the *first* attempt of task `(fop, index)` by the given
    /// milliseconds — a targeted straggler, used to exercise speculative
    /// execution deterministically.
    pub first_attempt_delays: Vec<(FopId, usize, u64)>,
    /// Stall the *first* attempt of task `(fop, index)` by the given
    /// milliseconds *after* it computes, before its `TaskDone` is sent —
    /// deterministically exercising the computed-but-unreported window.
    pub first_attempt_done_delays: Vec<(FopId, usize, u64)>,
    /// Seeded network faults on the master↔executor control plane
    /// (`None` = perfectly reliable transport).
    pub network: Option<NetworkFault>,
    /// Scheduled executor-store budget shrinks `(n, k, bytes)`: after `n`
    /// processed completions, shrink the `k`-th alive *reserved*
    /// executor's store budget to `bytes` (memory-pressure chaos). The
    /// applied budget clamps up to pinned occupancy, so a shrink can
    /// squeeze but never strand a running attempt.
    pub budget_shrinks: Vec<(usize, usize, usize)>,
    /// Reconfiguration transactions scheduled against the same
    /// completion clock as the other fault families (the chaos family's
    /// random mid-job reconfigs, and the explicit API's deterministic
    /// ones, both ride here).
    pub reconfigs: Vec<ScheduledReconfig>,
    /// Seeded spill-I/O fault injection on every executor store
    /// (`None` = the disk tier never fails).
    pub spill_faults: Option<SpillFaultPlan>,
    /// Master crashes recovered from the write-ahead log (kept in memory
    /// when `RuntimeConfig::wal_path` is unset).
    pub crashes: Option<CrashPlan>,
}

// The event schema lives with the journal; re-exported here because the
// events were born in this module and callers still import them from it.
pub use crate::runtime::journal::JobEvent;

/// Out-of-band fault-injection endpoint: the resource manager's direct
/// channel to the master. Messages sent here bypass the faulty network.
#[derive(Debug, Clone)]
pub struct Injector {
    tx: Sender<Wire<MasterMsg>>,
}

impl Injector {
    /// Delivers a resource-manager notice (eviction, reserved failure)
    /// directly to the master.
    pub fn send(&self, msg: MasterMsg) {
        let _ = self.tx.send(Wire::Direct(msg));
    }
}

/// The result of a completed job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Output records per terminal operator (keyed by operator name),
    /// concatenated in task-index order.
    pub outputs: BTreeMap<String, Vec<Value>>,
    /// Execution counters, derived from the journal (plus the wire-level
    /// transport counters the journal cannot see).
    pub metrics: JobMetrics,
    /// The canonically-ordered execution journal.
    pub journal: EventJournal,
}

#[derive(Debug, Clone)]
enum TaskState {
    Pending,
    /// One or more in-flight attempts (more than one only while a
    /// speculative duplicate races the original; first commit wins).
    Running {
        attempts: Vec<(AttemptId, ExecId)>,
    },
    Done {
        locations: Vec<ExecId>,
    },
}

#[derive(Debug)]
struct ExecInfo {
    handle: ExecutorHandle,
    alive: bool,
    busy: usize,
    cached: HashSet<CacheKey>,
    /// This executor's byte-accounted memory domain, shared with its
    /// worker slots: the master admits pushes, pins task inputs, and
    /// applies chaos budget shrinks through it.
    store: StoreHandle,
    /// Reliable (retransmitting) endpoint of the master→executor wire.
    out: ReliableSender<ExecutorMsg, ExecIn>,
    /// Duplicate suppression for frames this executor sends the master.
    dedup: DedupWindow,
    /// Last time any frame (heartbeat, ack, or report) arrived from this
    /// executor — the failure detector's input.
    last_heartbeat: Instant,
    /// Whether the detector already flagged the current silence (so one
    /// quiet spell counts one missed-heartbeat, not one per tick).
    hb_flagged: bool,
}

/// Why an executor was lost, for loss-specific accounting. All kinds
/// share the recovery path: revert uncommitted work, keep committed
/// blocks that survive elsewhere, spawn a replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LossKind {
    /// The resource manager reclaimed a transient container.
    Eviction,
    /// A reserved executor's machine failed (§3.2.6).
    ReservedFailure,
    /// The heartbeat failure detector timed the executor out.
    DeclaredDead,
}

/// Side-input traffic of one launch, embedded in its journal event (the
/// journal is the metrics source of truth, so the bytes ride the event).
#[derive(Debug, Clone, Copy, Default)]
struct SideStats {
    sent: usize,
    saved: usize,
    misses: usize,
}

/// A cross-executor push the destination store had no headroom for:
/// parked under backpressure and retried with exponential backoff until
/// the destination frees memory (or the push becomes obsolete).
#[derive(Debug, Clone)]
struct DeferredPush {
    fop: FopId,
    index: usize,
    dest: ExecId,
    next_try: Instant,
    backoff_ms: u64,
}

/// One in-flight two-phase reconfiguration transaction. At most one
/// exists at a time: a second request aborts immediately rather than
/// queueing (the caller retries once the first resolves).
#[derive(Debug, Clone, Copy)]
struct ActiveReconfig {
    id: u64,
    plan: ReconfigPlan,
    /// In-flight attempts at request time (reported in `ReconfigPrepared`
    /// as how much work the prepare phase had to quiesce).
    quiesce_wait: usize,
    /// Past this instant an unquiesced prepare aborts.
    deadline: Instant,
}

/// Eager routing results keyed like [`Master::routed`]: `(fop, index,
/// dst_par)` → the source block the buckets were computed from plus the
/// buckets themselves.
type EagerRouteCache = Arc<Mutex<HashMap<(FopId, usize, usize), (Block, Vec<Block>)>>>;

/// The master event loop for one job.
pub struct Master {
    job: Arc<JobContext>,
    tx: Sender<Wire<MasterMsg>>,
    rx: Receiver<Wire<MasterMsg>>,
    /// Seeded network-fault policy shared with every executor's links.
    net: Option<Arc<NetPolicy>>,
    /// Transport counters shared with every link in the job.
    counters: Arc<TransportCounters>,
    executors: BTreeMap<ExecId, ExecInfo>,
    next_exec_id: ExecId,
    policy: Box<dyn SchedulingPolicy>,

    tasks: Vec<Vec<TaskState>>,
    first_attempted: Vec<Vec<bool>>,
    /// The location table's data side: every committed output, as a shared
    /// block created once by the finishing executor.
    outputs: HashMap<(FopId, usize), Block>,
    result_parts: BTreeMap<(FopId, usize), Block>,
    /// Memoized shuffle routing: buckets of output `(fop, index)` hashed
    /// to `dst_par` consumers. Shared by every consumer task (and every
    /// relaunch) that reads the same output at the same parallelism, so a
    /// shuffle's record pass happens once per output, not once per
    /// consumer. Invalidated whenever the source output changes.
    routed: HashMap<(FopId, usize, usize), Vec<Block>>,
    /// Memoized concatenation of a multi-part broadcast dataset, keyed by
    /// producer fop. Invalidated with [`Master::invalidate_derived`].
    side_cache: HashMap<FopId, Block>,
    assigned: HashMap<(FopId, usize), ExecId>,
    attempt_of: HashMap<AttemptId, (FopId, usize)>,
    next_attempt: AttemptId,

    /// Shared writer handle of the execution journal. Executor worker
    /// slots and transport endpoints hold clones; the master itself emits
    /// every scheduling, commit, and fault event through it. Metrics are
    /// *derived* from the journal on demand, never mirrored by hand.
    journal: Journal,
    /// Plan facts embedded in every frozen journal (what the invariant
    /// checker replays against).
    meta: JournalMeta,
    stage_completed: Vec<bool>,
    done_events: usize,
    faults: FaultPlan,
    fault_cursor_evict: usize,
    fault_cursor_fail: usize,
    master_failed: bool,

    // --- Durability domain ---
    /// The write-ahead log, armed when the run can kill its master (a
    /// `wal_path`, `master_failure_after`, or `crashes`). Shared with
    /// the journal (whose emissions it makes durable); the
    /// master additionally appends location-table deltas and compacting
    /// snapshots through it.
    wal: Option<Arc<Mutex<WalWriter>>>,
    /// Crashes the crash chaos family has injected so far.
    crashes_injected: usize,
    /// Handled (progress-bearing) frames — the crash family's
    /// handler-boundary clock.
    handled_frames: u64,

    // --- Task-failure domain ---
    /// Executors that exhausted their fault threshold: no new work, but
    /// they stay alive so their committed outputs remain readable.
    blacklisted: HashSet<ExecId>,
    /// User-code failures per executor (toward the blacklist threshold).
    exec_failures: HashMap<ExecId, usize>,
    /// User-code failures per task (toward the retry budget).
    task_failure_counts: HashMap<(FopId, usize), usize>,
    /// Injected error/panic count per task (toward the chaos cap).
    injected_faults: HashMap<(FopId, usize), usize>,
    /// Launch ordinal per task, driving deterministic chaos decisions.
    launch_seq: HashMap<(FopId, usize), usize>,
    /// Wall-clock launch time of each in-flight attempt.
    launch_times: HashMap<AttemptId, Instant>,
    /// Completed attempt durations (ms) per fop, for straggler medians.
    fop_durations: Vec<Vec<u64>>,
    /// In-flight attempts that are speculative duplicates.
    speculative: HashSet<AttemptId>,

    // --- Transport / delivery domain ---
    /// Every attempt whose terminal report (`TaskDone` or `TaskFailed`)
    /// was already processed. The by-construction idempotence keystone:
    /// the dedup windows suppress most duplicate deliveries, but any
    /// replay that slips past them (window overflow, reordering across a
    /// restart) hits this set and becomes a complete no-op — no double
    /// commit, no double slot-free, no double retry charge. Part of the
    /// replicated completion log: WAL recovery restores it, so a
    /// recovered master still rejects replays of pre-crash reports.
    completed_attempts: HashSet<AttemptId>,

    // --- Memory-pressure domain ---
    /// Cross-executor pushes deferred for lack of destination headroom,
    /// retried with backoff (push backpressure).
    deferred_pushes: Vec<DeferredPush>,
    /// Input blocks each in-flight attempt has pinned on its executor;
    /// unpinned when the attempt reports terminally (or wholesale on
    /// executor loss / master restart).
    attempt_pins: HashMap<AttemptId, (ExecId, Vec<BlockRef>)>,
    /// Cursor into `faults.budget_shrinks`.
    fault_cursor_shrink: usize,

    // --- Reconfiguration domain ---
    /// The reconfiguration epoch: shared with every master→executor
    /// sender (envelopes stamp it at first transmit) and advanced by
    /// exactly one at each transaction commit.
    epoch: Arc<AtomicU64>,
    /// The in-flight two-phase transaction, if any (at most one).
    reconfig: Option<ActiveReconfig>,
    next_reconfig_id: u64,
    /// Transient executors drained ahead of predicted eviction: still
    /// alive (their container was not reclaimed) but no new attempt
    /// lands on them and their blocks have migrated to reserved stores.
    drained: HashSet<ExecId>,
    /// Live placement per fop: seeded from the frozen plan, rewritten
    /// by committed `MigrateStage` changes. Every placement decision
    /// reads this overlay, never the plan.
    placement: Vec<Placement>,
    /// Live task count per fop, rewritten by committed `Repartition`.
    parallelism: Vec<usize>,
    /// The epoch each in-flight attempt launched under (the belt under
    /// the wire-level fence: a cross-epoch attempt never commits).
    attempt_epochs: HashMap<AttemptId, u64>,
    /// Cursor into `faults.reconfigs`.
    fault_cursor_reconfig: usize,
    /// Evictions handled so far — the storm-policy trigger input.
    evictions_seen: usize,

    // --- Execution-backend plumbing ---
    /// The scheduling clock (wall on both stock backends; manual in
    /// timer-order tests). Every master-side timer reads through it.
    clock: Clock,
    /// The shared worker pool, when the backend uses one: executors run
    /// task bodies on it and the master submits eager routing to it.
    pool: Option<Arc<WorkerPool>>,
    /// Inbound frames drained per loop wakeup before control work reruns
    /// (1 on the sim backend — the original loop shape).
    frame_batch: usize,
    /// Whether committed shuffle outputs are routed eagerly on the pool.
    eager_routing: bool,
    /// Completed eager routing results, keyed like [`Master::routed`]
    /// and carrying the source block they were computed from: consumed
    /// by [`Master::routed_bucket`] only when the source still matches
    /// the live output (an eviction or repartition in between makes the
    /// entry stale, and the lazy fallback recomputes).
    eager_routed: EagerRouteCache,
    /// The run-wide cooperative cancellation token (inert on the sim
    /// backend): checked at the top of every scheduling pass, so a
    /// supervisor-initiated abort unwinds through the normal shutdown
    /// path — pool quiesced, journal frozen — instead of being leaked.
    cancel: CancelToken,
    /// Progress counters published for the threaded backend's hang
    /// watchdog, when one is armed.
    probe: Option<Arc<StallProbe>>,
}

impl Master {
    /// Creates a master and spawns the initial containers.
    ///
    /// # Errors
    ///
    /// Fails when the write-ahead log cannot be created (a
    /// `RuntimeConfig::wal_path` that cannot be opened) or its genesis
    /// snapshot cannot be written.
    pub fn new(
        job: Arc<JobContext>,
        n_transient: usize,
        n_reserved: usize,
        faults: FaultPlan,
    ) -> Result<Self, RuntimeError> {
        Self::with_backend(job, n_transient, n_reserved, faults, &SimBackend)
    }

    /// Creates a master wired for a specific execution backend: its
    /// clock, worker pool, frame-batch width, and routing strategy are
    /// installed before the first executor spawns (executors need the
    /// pool at spawn time).
    ///
    /// # Errors
    ///
    /// Same as [`Master::new`].
    pub fn with_backend(
        job: Arc<JobContext>,
        n_transient: usize,
        n_reserved: usize,
        faults: FaultPlan,
        backend: &dyn ExecBackend,
    ) -> Result<Self, RuntimeError> {
        let (tx, rx) = crossbeam::channel::unbounded();
        let net = faults.network.clone().map(NetPolicy::new);
        let counters = Arc::new(TransportCounters::default());
        let n_fops = job.plan.fops.len();
        let tasks = (0..n_fops)
            .map(|f| vec![TaskState::Pending; job.plan.fops[f].parallelism])
            .collect::<Vec<_>>();
        let first_attempted = (0..n_fops)
            .map(|f| vec![false; job.plan.fops[f].parallelism])
            .collect();
        let n_stages = job.plan.stage_dag.stages.len();
        let meta = JournalMeta {
            n_stages,
            stage_of: job.plan.fops.iter().map(|f| f.stage).collect(),
            parallelism: job.plan.fops.iter().map(|f| f.parallelism).collect(),
            required: (0..n_fops)
                .map(|f| {
                    let dst_par = job.plan.fops[f].parallelism;
                    (0..dst_par)
                        .map(|i| {
                            let mut req = Vec::new();
                            for e in job.plan.in_edges(f) {
                                let src_par = job.plan.fops[e.src].parallelism;
                                for si in required_src_indices(&e, i, src_par, dst_par) {
                                    req.push((e.src, si));
                                }
                            }
                            req
                        })
                        .collect()
                })
                .collect(),
            max_task_attempts: job.config.max_task_attempts,
            retransmit_bound: MAX_RETRANSMISSIONS_PER_MESSAGE,
            executor_memory_bytes: job.config.executor_memory_bytes,
        };
        let placement: Vec<Placement> = job.plan.fops.iter().map(|f| f.placement).collect();
        let parallelism: Vec<usize> = job.plan.fops.iter().map(|f| f.parallelism).collect();
        // The epoch cell is shared three ways: every master→executor
        // sender stamps envelopes with it, and the WAL writer stamps
        // every frame with it (so fencing survives a recovery replay).
        let epoch = Arc::new(AtomicU64::new(0));
        // A run that can kill its master arms a WAL: in the file at
        // `wal_path` when one is named, otherwise in memory. Fault-free
        // runs arm none. The sink must be armed before the journal is
        // cloned out to executors: every clone copies the sink, and a
        // late arm would leave executor emissions volatile.
        let mut journal = Journal::new();
        let stamp = Arc::clone(&epoch);
        let (sync, snap) = (job.config.wal_sync_every, job.config.wal_snapshot_every);
        let writer = match &job.config.wal_path {
            Some(path) => Some(WalWriter::create(Path::new(path), stamp, sync, snap)?),
            None if faults.master_failure_after.is_some() || faults.crashes.is_some() => {
                Some(WalWriter::in_memory(stamp, sync, snap))
            }
            None => None,
        };
        let wal = writer.map(|writer| {
            let sink = Arc::new(Mutex::new(writer));
            journal.arm_wal(Arc::clone(&sink));
            sink
        });
        let mut master = Master {
            job,
            tx,
            rx,
            net,
            counters,
            executors: BTreeMap::new(),
            next_exec_id: 0,
            policy: Box::new(RoundRobinCacheAware::default()),
            tasks,
            first_attempted,
            outputs: HashMap::new(),
            result_parts: BTreeMap::new(),
            routed: HashMap::new(),
            side_cache: HashMap::new(),
            assigned: HashMap::new(),
            attempt_of: HashMap::new(),
            next_attempt: 1,
            journal,
            meta,
            stage_completed: vec![false; n_stages],
            done_events: 0,
            faults,
            fault_cursor_evict: 0,
            fault_cursor_fail: 0,
            master_failed: false,
            wal,
            crashes_injected: 0,
            handled_frames: 0,
            blacklisted: HashSet::new(),
            exec_failures: HashMap::new(),
            task_failure_counts: HashMap::new(),
            injected_faults: HashMap::new(),
            launch_seq: HashMap::new(),
            launch_times: HashMap::new(),
            fop_durations: vec![Vec::new(); n_fops],
            speculative: HashSet::new(),
            completed_attempts: HashSet::new(),
            deferred_pushes: Vec::new(),
            attempt_pins: HashMap::new(),
            fault_cursor_shrink: 0,
            epoch,
            reconfig: None,
            next_reconfig_id: 0,
            drained: HashSet::new(),
            placement,
            parallelism,
            attempt_epochs: HashMap::new(),
            fault_cursor_reconfig: 0,
            evictions_seen: 0,
            clock: backend.clock(),
            pool: backend.pool(),
            frame_batch: backend.frame_batch().max(1),
            eager_routing: backend.eager_routing(),
            eager_routed: Arc::new(Mutex::new(HashMap::new())),
            cancel: backend.cancel(),
            probe: backend.stall_probe(),
        };
        // Arm the pool's detach journal so a worker leaked past the
        // shutdown grace is recorded in this run's own event stream.
        if let Some(pool) = &master.pool {
            pool.arm_journal(master.journal.clone());
        }
        for _ in 0..n_reserved {
            master.spawn_executor(Placement::Reserved);
        }
        for _ in 0..n_transient {
            master.spawn_executor(Placement::Transient);
        }
        // Genesis snapshot: the plan's frozen shape (parallelism,
        // placement) is durable before any event, so a recovery replay
        // always knows how many tasks each fop has — even when the
        // first crash lands before the first completion.
        master.append_wal_snapshot()?;
        Ok(master)
    }

    /// An endpoint evictions and failures can be injected through
    /// externally. Injected messages model resource-manager actions, so
    /// they ride the out-of-band [`Wire::Direct`] path and bypass the
    /// faulty network — an eviction notice is not a datagram.
    pub fn injector(&self) -> Injector {
        Injector {
            tx: self.tx.clone(),
        }
    }

    /// Replaces the task scheduling policy (§3.2.3's pluggable policy).
    pub fn set_policy(&mut self, policy: Box<dyn SchedulingPolicy>) {
        self.policy = policy;
    }

    fn spawn_executor(&mut self, kind: Placement) -> ExecId {
        let id = self.next_exec_id;
        self.next_exec_id += 1;
        let store = ExecutorStore::handle(
            id,
            self.job.config.executor_memory_bytes,
            self.job.config.cache_capacity_bytes,
            self.journal.clone(),
        );
        if let Some(sf) = self.faults.spill_faults {
            store.lock().set_spill_faults(sf);
        }
        let handle = ExecutorHandle::spawn(
            id,
            kind,
            Arc::clone(&self.job),
            self.tx.clone(),
            self.net.clone(),
            Arc::clone(&self.counters),
            self.journal.clone(),
            Arc::clone(&store),
            self.pool.clone(),
            self.cancel.clone(),
        );
        let link = FaultyLink::new(
            handle.inbound(),
            id,
            Direction::ToExecutor,
            self.net.clone(),
            Arc::clone(&self.counters),
        );
        let seed = self.net.as_ref().map_or(0, |p| p.seed());
        let out = ReliableSender::new(
            link,
            id,
            |from, seq, epoch, payload| {
                ExecIn::Net(Wire::Msg {
                    from,
                    seq,
                    epoch,
                    payload,
                })
            },
            self.job.config.transport_inflight_cap,
            Duration::from_millis(self.job.config.retransmit_base_ms),
            Duration::from_millis(self.job.config.retransmit_max_ms),
            seed ^ mix64(id as u64),
        )
        .with_journal(self.journal.clone(), false)
        .with_epoch(Arc::clone(&self.epoch));
        self.executors.insert(
            id,
            ExecInfo {
                handle,
                alive: true,
                busy: 0,
                cached: HashSet::new(),
                store,
                out,
                dedup: DedupWindow::new(self.job.config.transport_dedup_window),
                last_heartbeat: self.clock.now(),
                hb_flagged: false,
            },
        );
        id
    }

    /// Runs the job to completion.
    ///
    /// # Errors
    ///
    /// Fails with [`RuntimeError::Wedged`] if no progress is made within
    /// the configured timeout, with [`RuntimeError::TaskFailed`] when a
    /// task exhausts its retry budget in user code, and with
    /// [`RuntimeError::Invariant`] on internal scheduler bugs. Executors
    /// are stopped and joined on every exit path.
    pub fn run(mut self) -> Result<JobResult, RuntimeError> {
        let outcome = self.run_loop();
        // Join executors before freezing the journal so every in-flight
        // executor-side emission (task starts, retransmissions) lands.
        self.shutdown();
        outcome.map(|()| self.collect_result())
    }

    /// The tick-driven master event loop: waits up to one tick for a
    /// frame, then re-evaluates retransmissions, the failure detector,
    /// stragglers, the wedge timeout, and the schedule. Ticks make all of
    /// these responsive even while no completions arrive.
    fn run_loop(&mut self) -> Result<(), RuntimeError> {
        self.schedule()?;
        let tick = Duration::from_millis(self.job.config.tick_ms.max(1));
        let timeout = Duration::from_millis(self.job.config.event_timeout_ms);
        let mut last_progress = self.clock.now();
        let mut last_spec_check = self.clock.now();
        while !self.complete() {
            // Cooperative cancellation point: a supervisor abort (wall
            // clock, watchdog) unwinds here through the normal shutdown
            // path — executors joined, pool quiesced, journal frozen —
            // instead of the run being leaked.
            if self.cancel.is_cancelled() {
                let reason = "run cancelled by backend supervisor".to_string();
                self.journal.emit(
                    None,
                    JobEvent::RunAborted {
                        reason: reason.clone(),
                    },
                );
                return Err(RuntimeError::Aborted(reason));
            }
            if let Some(probe) = &self.probe {
                probe.tick();
                probe.record(self.launch_times.len(), self.rx.len());
            }
            match self.rx.recv_timeout(tick) {
                Ok(frame) => {
                    // Only substantive deliveries reset the wedge timer:
                    // heartbeats, acks, and suppressed duplicates prove
                    // the wire is alive, not that the job is advancing.
                    if self.handle_frame(frame)? {
                        last_progress = self.clock.now();
                        self.handled_frames += 1;
                        // The crash family fires here — the handler
                        // boundary — so recovery never sees a frame's
                        // effects half-applied.
                        self.maybe_crash()?;
                    }
                    // The threaded backend drains a burst of already-
                    // queued frames before rerunning the control work
                    // below, amortizing pump/schedule passes across
                    // concurrent completions. The sim backend keeps the
                    // original one-frame-per-wakeup shape (batch = 1).
                    for _ in 1..self.frame_batch {
                        let Some(frame) = self.rx.try_recv() else {
                            break;
                        };
                        if self.handle_frame(frame)? {
                            last_progress = self.clock.now();
                            self.handled_frames += 1;
                            self.maybe_crash()?;
                        }
                    }
                    self.note_stage_transitions();
                    self.maybe_wal_snapshot()?;
                }
                Err(RecvTimeoutError::Timeout) => {
                    let waited = self.clock.now().saturating_duration_since(last_progress);
                    if waited >= timeout {
                        let journal = self.frozen_journal();
                        let metrics = Box::new(self.snapshot_metrics(&journal));
                        return Err(RuntimeError::Wedged {
                            waited_ms: waited.as_millis() as u64,
                            events: journal.to_events(),
                            metrics,
                        });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(RuntimeError::Disconnected("executors".into()));
                }
            }
            self.pump_transport()?;
            self.retry_deferred_pushes()?;
            self.pump_reconfig();
            // Straggler checks are time-gated so a burst of completions
            // does not rescan the task table once per message.
            if self.clock.now().saturating_duration_since(last_spec_check) >= tick {
                last_spec_check = self.clock.now();
                self.maybe_speculate()?;
            }
            self.schedule()?;
        }
        // In-flight commits can finish the job while a transaction is
        // still preparing; resolve it so the journal never ends with an
        // open prepare.
        self.abort_reconfig("job completed before the transaction could commit".into());
        Ok(())
    }

    /// Dispatches one wire frame. Returns whether it constituted job
    /// progress (for the wedge timer).
    fn handle_frame(&mut self, frame: Wire<MasterMsg>) -> Result<bool, RuntimeError> {
        match frame {
            Wire::Heartbeat { from } => {
                self.note_liveness(from);
                Ok(false)
            }
            Wire::Ack { from, seq } => {
                self.note_liveness(from);
                if let Some(info) = self.executors.get_mut(&from) {
                    if info.alive {
                        info.out.on_ack(seq);
                    }
                }
                Ok(false)
            }
            Wire::Msg {
                from,
                seq,
                epoch: env_epoch,
                payload,
            } => {
                self.note_liveness(from);
                let Some(info) = self.executors.get_mut(&from) else {
                    return Ok(false);
                };
                if !info.alive {
                    // Frames from an evicted or declared-dead executor are
                    // dropped unacknowledged; the container is being torn
                    // down out-of-band anyway.
                    return Ok(false);
                }
                info.out.link().send(ExecIn::Net(Wire::Ack { from, seq }));
                // Dedup before the epoch fence: retransmissions of frames
                // already handled are suppressed here, keeping the window
                // floor advancing whatever their stamp says.
                if !info.dedup.fresh(seq) {
                    self.counters.deduplicated.fetch_add(1, Ordering::Relaxed);
                    return Ok(false);
                }
                // The epoch fence: payloads stamped before the last
                // committed reconfiguration are acknowledged (above) but
                // never handled, so no pre-commit message can commit a
                // task into the post-commit world.
                if env_epoch < self.epoch.load(Ordering::Relaxed) {
                    self.journal.emit(
                        None,
                        JobEvent::StaleFrameFenced {
                            exec: from,
                            seq,
                            epoch: env_epoch,
                        },
                    );
                    self.handle_fenced(payload)?;
                    return Ok(false);
                }
                self.handle(payload)?;
                Ok(true)
            }
            Wire::Direct(msg) => {
                self.handle(msg)?;
                Ok(true)
            }
        }
    }

    /// Records proof of life from an executor: any frame counts, so a
    /// partitioned-then-healed executor revives on its first retransmitted
    /// report even before its next heartbeat.
    fn note_liveness(&mut self, exec: ExecId) {
        if let Some(info) = self.executors.get_mut(&exec) {
            if info.alive {
                info.last_heartbeat = self.clock.now();
                info.hb_flagged = false;
            }
        }
    }

    /// Drives the transport between frames: retransmits due unacked
    /// messages, releases delayed frames, and runs the heartbeat failure
    /// detector. Silence past `4×heartbeat_interval` flags the executor
    /// (slow: tasks on it will look like stragglers and feed speculation);
    /// silence past `dead_executor_timeout_ms` declares it dead and routes
    /// into the eviction recovery path.
    fn pump_transport(&mut self) -> Result<(), RuntimeError> {
        let now = self.clock.now();
        let miss_after = Duration::from_millis(
            self.job
                .config
                .heartbeat_interval_ms
                .saturating_mul(4)
                .max(1),
        );
        let dead_after = Duration::from_millis(self.job.config.dead_executor_timeout_ms);
        let mut dead: Vec<ExecId> = Vec::new();
        for (&id, info) in self.executors.iter_mut() {
            if !info.alive {
                continue;
            }
            info.out.pump(now)?;
            let age = now.duration_since(info.last_heartbeat);
            if age >= dead_after {
                dead.push(id);
            } else if age >= miss_after && !info.hb_flagged {
                info.hb_flagged = true;
                self.journal.emit(None, JobEvent::HeartbeatMissed(id));
            }
        }
        for id in dead {
            self.on_executor_lost(id, LossKind::DeclaredDead);
        }
        Ok(())
    }

    /// Retries pushes parked under backpressure. Entries become due on
    /// their backoff clock, or immediately when a pin release frees
    /// headroom on their destination (see [`Self::release_attempt_pins`]).
    /// A retry succeeds when the destination store freed headroom (pins
    /// released, budget restored); the destination then joins the
    /// output's location set and `PushResumed` is journaled. Obsolete entries — output
    /// reverted or gone, destination dead — are dropped silently: the
    /// producer-local copy (or a recomputation) serves instead.
    fn retry_deferred_pushes(&mut self) -> Result<(), RuntimeError> {
        if self.deferred_pushes.is_empty() {
            return Ok(());
        }
        let now = self.clock.now();
        let max_backoff = self.job.config.retransmit_max_ms.max(1);
        let mut parked: Vec<DeferredPush> = Vec::new();
        for mut p in std::mem::take(&mut self.deferred_pushes) {
            if now < p.next_try {
                parked.push(p);
                continue;
            }
            if !matches!(self.tasks[p.fop][p.index], TaskState::Done { .. }) {
                continue;
            }
            let Some(output) = self.outputs.get(&(p.fop, p.index)).map(Arc::clone) else {
                continue;
            };
            let Some(info) = self.executors.get(&p.dest) else {
                continue;
            };
            if !info.alive {
                continue;
            }
            let r = BlockRef::Output {
                fop: p.fop,
                index: p.index,
            };
            let admitted = info.store.lock().admit(r, &output);
            match admitted {
                Ok(()) => {
                    self.journal.emit(
                        Some(self.meta.stage_of[p.fop]),
                        JobEvent::PushResumed {
                            fop: p.fop,
                            index: p.index,
                            exec: p.dest,
                            bytes: block_bytes(&output),
                        },
                    );
                    if let TaskState::Done { locations } = &mut self.tasks[p.fop][p.index] {
                        if !locations.contains(&p.dest) {
                            locations.push(p.dest);
                        }
                    }
                    self.append_wal_locations(p.fop, p.index)?;
                }
                // A spill-I/O fault parks the push exactly like missing
                // headroom: back off and retry, never fail the job.
                Err(StoreError::NoHeadroom { .. } | StoreError::SpillUnreadable { .. }) => {
                    p.backoff_ms = p.backoff_ms.saturating_mul(2).min(max_backoff);
                    p.next_try = now + Duration::from_millis(p.backoff_ms);
                    parked.push(p);
                }
                Err(StoreError::TooLarge { bytes, budget }) => {
                    return Err(RuntimeError::MemoryExceeded {
                        bytes,
                        budget,
                        context: format!(
                            "push of output {}.{} to executor {}",
                            p.fop, p.index, p.dest
                        ),
                    });
                }
            }
        }
        self.deferred_pushes = parked;
        Ok(())
    }

    /// The journal frozen into its canonical, replayable form.
    fn frozen_journal(&self) -> EventJournal {
        self.journal.freeze(self.meta.clone())
    }

    /// The job metrics at this moment: every counter the journal can see
    /// is derived from it; the wire-level counts (drops, duplicates,
    /// dedup suppressions, the transmission high-water mark) happen below
    /// the journal's causal horizon inside the simulated network, so they
    /// fold in from the shared transport counters.
    fn snapshot_metrics(&self, journal: &EventJournal) -> JobMetrics {
        let mut m = journal.derive_metrics();
        m.messages_dropped = self.counters.dropped.load(Ordering::Relaxed) as usize;
        m.messages_duplicated = self.counters.duplicated.load(Ordering::Relaxed) as usize;
        m.messages_deduplicated = self.counters.deduplicated.load(Ordering::Relaxed) as usize;
        m.max_message_retransmissions = self
            .counters
            .max_transmissions
            .load(Ordering::Relaxed)
            .saturating_sub(1) as usize;
        m
    }

    fn complete(&self) -> bool {
        (0..self.job.plan.stage_dag.stages.len()).all(|s| self.stage_complete(s))
    }

    fn stage_complete(&self, stage: usize) -> bool {
        self.job.plan.stage_fops(stage).iter().all(|&f| {
            self.tasks[f]
                .iter()
                .all(|t| matches!(t, TaskState::Done { .. }))
        })
    }

    fn stage_runnable(&self, stage: usize) -> bool {
        !self.stage_complete(stage)
            && self.job.plan.stage_dag.stages[stage]
                .parents
                .iter()
                .all(|&p| self.stage_complete(p))
    }

    /// Emits `StageCompleted` / `StageReopened` events on transitions.
    /// Loss-caused reopens are emitted eagerly (with `recompute: true`)
    /// inside [`Master::on_executor_lost`]; any flip still unlogged here
    /// is a master-restart rollback, not a recomputation.
    fn note_stage_transitions(&mut self) {
        for stage in 0..self.stage_completed.len() {
            let now = self.stage_complete(stage);
            if now != self.stage_completed[stage] {
                self.journal.emit(
                    Some(stage),
                    if now {
                        JobEvent::StageCompleted(stage)
                    } else {
                        JobEvent::StageReopened {
                            stage,
                            recompute: false,
                        }
                    },
                );
                self.stage_completed[stage] = now;
            }
        }
    }

    fn handle(&mut self, msg: MasterMsg) -> Result<(), RuntimeError> {
        match msg {
            MasterMsg::TaskDone {
                exec,
                attempt,
                output,
                preaggregated,
                cache_hit,
                cached_keys,
            } => self.on_task_done(exec, attempt, output, preaggregated, cache_hit, cached_keys),
            MasterMsg::TaskFailed {
                exec,
                attempt,
                reason,
            } => self.on_task_failed(exec, attempt, reason),
            MasterMsg::Evict { exec } => {
                self.on_executor_lost(exec, LossKind::Eviction);
                Ok(())
            }
            MasterMsg::FailReserved { exec } => {
                self.on_executor_lost(exec, LossKind::ReservedFailure);
                Ok(())
            }
        }
    }

    /// Administrative processing of a payload the epoch fence rejected.
    /// The executor freed a worker slot whether or not the master honors
    /// the report, so slot, pin, and idempotence bookkeeping still apply —
    /// but no commit, task-state change, or retry charge may result.
    ///
    /// A stale-stamped report from an attempt the master still considers
    /// current is impossible (prepare quiesces every current attempt
    /// before the epoch can advance, and an attempt's report is stamped
    /// at or above its launch epoch); if one ever arrives it falls
    /// through to the normal handler, whose own staleness belts keep the
    /// job live rather than wedging a Running task forever.
    fn handle_fenced(&mut self, msg: MasterMsg) -> Result<(), RuntimeError> {
        let (exec, attempt) = match &msg {
            MasterMsg::TaskDone { exec, attempt, .. }
            | MasterMsg::TaskFailed { exec, attempt, .. } => (*exec, *attempt),
            // Resource-manager notices ride the un-fenced Direct path;
            // one arriving here is already epoch-agnostic.
            MasterMsg::Evict { .. } | MasterMsg::FailReserved { .. } => return self.handle(msg),
        };
        let current = self
            .attempt_of
            .get(&attempt)
            .map(|&(f, i)| {
                matches!(
                    &self.tasks[f][i],
                    TaskState::Running { attempts } if attempts.iter().any(|&(a, _)| a == attempt)
                )
            })
            .unwrap_or(false);
        if current {
            return self.handle(msg);
        }
        if !self.completed_attempts.insert(attempt) {
            return Ok(());
        }
        self.release_attempt_pins(attempt);
        if let Some(info) = self.executors.get_mut(&exec) {
            if info.alive {
                info.busy = info.busy.saturating_sub(1);
            }
        }
        self.attempt_of.remove(&attempt);
        self.launch_times.remove(&attempt);
        self.speculative.remove(&attempt);
        self.attempt_epochs.remove(&attempt);
        Ok(())
    }

    /// Total in-flight attempts (the prepare phase's quiesce condition
    /// counts these down to zero).
    fn running_attempts(&self) -> usize {
        self.tasks
            .iter()
            .flatten()
            .map(|t| match t {
                TaskState::Running { attempts } => attempts.len(),
                _ => 0,
            })
            .sum()
    }

    /// Opens a reconfiguration transaction: journals the request and
    /// either admits it into the prepare phase or aborts it on the spot
    /// (another transaction in flight, or an infeasible change). Returns
    /// the transaction id.
    fn request_reconfig(&mut self, plan: ReconfigPlan, trigger: ReconfigTrigger) -> u64 {
        let id = self.next_reconfig_id;
        self.next_reconfig_id += 1;
        self.journal.emit(
            None,
            JobEvent::ReconfigRequested {
                reconfig: id,
                trigger,
                change: plan.change,
            },
        );
        if self.reconfig.is_some() {
            self.journal.emit(
                None,
                JobEvent::ReconfigAborted {
                    reconfig: id,
                    reason: "another reconfiguration is already in flight".into(),
                },
            );
            return id;
        }
        if let Err(reason) = self.reconfig_feasible(plan.change) {
            self.journal.emit(
                None,
                JobEvent::ReconfigAborted {
                    reconfig: id,
                    reason,
                },
            );
            return id;
        }
        self.reconfig = Some(ActiveReconfig {
            id,
            plan,
            quiesce_wait: self.running_attempts(),
            deadline: self.clock.now()
                + Duration::from_millis(self.job.config.reconfig_prepare_timeout_ms),
        });
        id
    }

    /// Whether a change can possibly commit, checked at request time so
    /// a doomed transaction aborts before pausing the scheduler.
    fn reconfig_feasible(&self, change: ReconfigChange) -> Result<(), String> {
        match change {
            ReconfigChange::MigrateStage { stage, to } => {
                if stage >= self.meta.n_stages {
                    return Err(format!(
                        "stage {stage} does not exist (plan has {} stages)",
                        self.meta.n_stages
                    ));
                }
                if to == Placement::Transient && self.pool_candidates(Placement::Transient) == 0 {
                    return Err("no alive transient executor to migrate onto".into());
                }
                Ok(())
            }
            ReconfigChange::Repartition { fop, parallelism } => {
                if fop >= self.tasks.len() {
                    return Err(format!(
                        "fop {fop} does not exist (plan has {} fops)",
                        self.tasks.len()
                    ));
                }
                if parallelism == 0 {
                    return Err("cannot repartition to zero tasks".into());
                }
                let untouched = self.tasks[fop]
                    .iter()
                    .all(|t| matches!(t, TaskState::Pending))
                    && self.first_attempted[fop].iter().all(|&b| !b);
                if !untouched {
                    return Err(format!(
                        "fop {fop} already has launched or finished tasks; repartition \
                         applies only to pending stages"
                    ));
                }
                let producers_clean = self.job.plan.in_edges(fop).iter().all(|e| {
                    self.tasks[e.src]
                        .iter()
                        .all(|t| !matches!(t, TaskState::Done { .. }))
                });
                if !producers_clean {
                    return Err(format!(
                        "a producer of fop {fop} already committed output bucketed at the \
                         old parallelism"
                    ));
                }
                // One-to-one edges pair task i with task i: shrinking the
                // consumer below the producer (or growing the producer
                // past the consumer) would orphan partner outputs — data
                // silently dropped, not rebucketed.
                for e in self.job.plan.in_edges(fop) {
                    if e.dep == DepType::OneToOne && parallelism < self.parallelism[e.src] {
                        return Err(format!(
                            "fop {fop} has a one-to-one input from fop {} ({} tasks); \
                             repartitioning below that would orphan producer outputs",
                            e.src, self.parallelism[e.src]
                        ));
                    }
                }
                for e in self.job.plan.out_edges(fop) {
                    if e.dep == DepType::OneToOne && parallelism > self.parallelism[e.dst] {
                        return Err(format!(
                            "fop {fop} feeds fop {} one-to-one ({} tasks); repartitioning \
                             past that would orphan its own outputs",
                            e.dst, self.parallelism[e.dst]
                        ));
                    }
                }
                Ok(())
            }
            ReconfigChange::DrainTransient { .. } => {
                if self.pool_candidates(Placement::Transient) < 2 {
                    return Err("draining needs at least two alive transient executors \
                         (one to drain, one to keep running transient tasks)"
                        .into());
                }
                Ok(())
            }
        }
    }

    /// Alive, schedulable executors of a pool (not blacklisted, not
    /// already drained).
    fn pool_candidates(&self, kind: Placement) -> usize {
        self.executors
            .iter()
            .filter(|(id, e)| {
                e.alive
                    && e.handle.kind == kind
                    && !self.blacklisted.contains(id)
                    && !self.drained.contains(id)
            })
            .count()
    }

    /// Drives the in-flight transaction one step per loop iteration:
    /// commit once quiesced, abort once past the prepare deadline. Also
    /// hosts the eviction-storm policy trigger.
    fn pump_reconfig(&mut self) {
        self.maybe_fire_storm_policy();
        let Some(txn) = self.reconfig else {
            return;
        };
        let quiesced = self.running_attempts() == 0 && self.deferred_pushes.is_empty();
        if quiesced {
            self.journal.emit(
                None,
                JobEvent::ReconfigPrepared {
                    reconfig: txn.id,
                    quiesced: txn.quiesce_wait,
                },
            );
            match self.apply_change(txn.plan.change) {
                Ok(()) => {
                    let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
                    self.journal.emit(None, JobEvent::EpochAdvanced { epoch });
                    self.journal.emit(
                        None,
                        JobEvent::ReconfigCommitted {
                            reconfig: txn.id,
                            change: txn.plan.change,
                            epoch,
                        },
                    );
                    self.reconfig = None;
                    self.broadcast_epoch(epoch);
                }
                Err(reason) => self.abort_reconfig(reason),
            }
        } else if self.clock.now() >= txn.deadline {
            self.abort_reconfig(format!(
                "prepare timed out after {} ms without quiescing",
                self.job.config.reconfig_prepare_timeout_ms
            ));
        }
    }

    /// The policy hook: once `reconfig_storm_threshold` evictions have
    /// landed, degrade transient-placed work to the reserved pool, one
    /// stage per transaction (candidates disappear as they migrate, so
    /// the hook naturally stops firing).
    fn maybe_fire_storm_policy(&mut self) {
        let threshold = self.job.config.reconfig_storm_threshold;
        if threshold == 0 || self.reconfig.is_some() || self.evictions_seen < threshold {
            return;
        }
        let candidate = (0..self.meta.n_stages).find(|&s| {
            self.job.plan.stage_fops(s).iter().any(|&f| {
                self.placement[f] == Placement::Transient
                    && self.tasks[f]
                        .iter()
                        .any(|t| !matches!(t, TaskState::Done { .. }))
            })
        });
        if let Some(stage) = candidate {
            self.request_reconfig(
                ReconfigPlan::from(ReconfigChange::MigrateStage {
                    stage,
                    to: Placement::Reserved,
                }),
                ReconfigTrigger::Policy,
            );
        }
    }

    /// Rolls back the in-flight transaction, if any. Nothing was applied
    /// during prepare, so rollback is the act of not applying: the old
    /// placement is intact and scheduling resumes on it immediately.
    fn abort_reconfig(&mut self, reason: String) {
        if let Some(txn) = self.reconfig.take() {
            self.journal.emit(
                None,
                JobEvent::ReconfigAborted {
                    reconfig: txn.id,
                    reason,
                },
            );
        }
    }

    /// Applies a change at commit point (the job is quiesced). An error
    /// aborts the transaction; every partial effect an erroring path may
    /// leave behind (extra block copies on reserved stores) is additive
    /// and harmless under the old placement.
    fn apply_change(&mut self, change: ReconfigChange) -> Result<(), String> {
        // The world may have moved between request and commit (evictions
        // during prepare); re-check feasibility before touching state.
        self.reconfig_feasible(change)?;
        match change {
            ReconfigChange::MigrateStage { stage, to } => {
                for f in 0..self.placement.len() {
                    if self.meta.stage_of[f] == stage {
                        self.placement[f] = to;
                    }
                }
                // Receiver assignments reflect the old pool; drop the
                // ones that have not produced data yet so the next
                // scheduling pass re-derives them under the new pool.
                let tasks = &self.tasks;
                let stage_of = &self.meta.stage_of;
                self.assigned.retain(|&(f, i), _| {
                    stage_of[f] != stage || matches!(tasks[f][i], TaskState::Done { .. })
                });
                Ok(())
            }
            ReconfigChange::Repartition { fop, parallelism } => {
                self.tasks[fop] = vec![TaskState::Pending; parallelism];
                self.first_attempted[fop] = vec![false; parallelism];
                self.parallelism[fop] = parallelism;
                self.assigned.retain(|&(f, _), _| f != fop);
                // Shuffle buckets are keyed by consumer parallelism and
                // broadcast concatenations by producer identity; both may
                // reference the old partitioning — rebuild on demand.
                self.routed.clear();
                self.side_cache.clear();
                Ok(())
            }
            ReconfigChange::DrainTransient { nth } => {
                let candidates: Vec<ExecId> = self
                    .executors
                    .iter()
                    .filter(|(id, e)| {
                        e.alive
                            && e.handle.kind == Placement::Transient
                            && !self.blacklisted.contains(id)
                            && !self.drained.contains(id)
                    })
                    .map(|(&id, _)| id)
                    .collect();
                // Feasibility re-checked above guarantees candidates,
                // but a crash-recovered master may disagree with the
                // requesting one — abort rather than index into nothing.
                let Some(&victim) = candidates.get(nth % candidates.len().max(1)) else {
                    return Err("no drain candidate survived the prepare phase".into());
                };
                self.migrate_blocks_off(victim)?;
                self.drained.insert(victim);
                Ok(())
            }
        }
    }

    /// Moves every output whose *only* location is `victim` onto an
    /// alive reserved store, then retires the victim's copies. Performed
    /// at commit point under quiescence, so nothing is pinned. A block
    /// no reserved store can take aborts the drain; copies admitted
    /// before the failure stay (each was recorded as a valid location
    /// the moment it landed).
    fn migrate_blocks_off(&mut self, victim: ExecId) -> Result<(), String> {
        let mut on_victim: Vec<(FopId, usize)> = Vec::new();
        for f in 0..self.tasks.len() {
            for i in 0..self.tasks[f].len() {
                if matches!(
                    &self.tasks[f][i],
                    TaskState::Done { locations } if locations.contains(&victim)
                ) {
                    on_victim.push((f, i));
                }
            }
        }
        let reserved: Vec<ExecId> = self
            .executors
            .iter()
            .filter(|(id, e)| {
                e.alive && e.handle.kind == Placement::Reserved && !self.blacklisted.contains(id)
            })
            .map(|(&id, _)| id)
            .collect();
        for &(f, i) in &on_victim {
            let sole = matches!(
                &self.tasks[f][i],
                TaskState::Done { locations } if locations.len() == 1
            );
            // Sink-safe outputs and multi-location blocks need no copy:
            // dropping the victim's location below loses nothing.
            if !sole || self.result_parts.contains_key(&(f, i)) {
                continue;
            }
            let Some(output) = self.outputs.get(&(f, i)).map(Arc::clone) else {
                continue;
            };
            let r = BlockRef::Output { fop: f, index: i };
            let mut admitted = None;
            for &d in &reserved {
                let ok = self
                    .executors
                    .get(&d)
                    .map(|info| info.store.lock().admit(r, &output).is_ok())
                    .unwrap_or(false);
                if ok {
                    admitted = Some(d);
                    break;
                }
            }
            let Some(d) = admitted else {
                return Err(format!(
                    "no reserved store had headroom for block {f}.{i} ({} B)",
                    block_bytes(&output)
                ));
            };
            if let TaskState::Done { locations } = &mut self.tasks[f][i] {
                locations.push(d);
            }
        }
        // Every sole-location block now has a reserved copy: retire the
        // victim's locations and release its store residency.
        for (f, i) in on_victim {
            if let TaskState::Done { locations } = &mut self.tasks[f][i] {
                locations.retain(|&l| l != victim);
            }
            if let Some(info) = self.executors.get(&victim) {
                info.store
                    .lock()
                    .remove_unpinned(BlockRef::Output { fop: f, index: i });
            }
            self.append_wal_locations(f, i).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Reliably tells every alive executor about the committed epoch.
    /// The envelopes of these (and all later) messages already carry the
    /// new stamp; the explicit payload lets the executor adopt it even
    /// with no task traffic.
    fn broadcast_epoch(&mut self, epoch: u64) {
        for info in self.executors.values_mut() {
            if info.alive {
                info.out.send(ExecutorMsg::AdvanceEpoch(epoch));
            }
        }
    }

    fn on_task_done(
        &mut self,
        exec: ExecId,
        attempt: AttemptId,
        output: Block,
        preaggregated: usize,
        cache_hit: bool,
        cached_keys: Vec<CacheKey>,
    ) -> Result<(), RuntimeError> {
        // Idempotence by construction: one terminal report per attempt is
        // ever processed. A duplicate delivery that slipped past the
        // dedup window must not re-commit, re-charge, or free a busy slot
        // a second time.
        if !self.completed_attempts.insert(attempt) {
            return Ok(());
        }
        // The attempt is over, win or lose: its input pins release before
        // any staleness check, so even a discarded report frees memory.
        self.release_attempt_pins(attempt);
        // Refresh the container manager's view of the executor cache.
        if let Some(info) = self.executors.get_mut(&exec) {
            if info.alive {
                info.cached = cached_keys.into_iter().collect();
                info.busy = info.busy.saturating_sub(1);
            }
        }
        // The commit protocol: an output is processed exactly once, and
        // only for an attempt the master considers current. Stale attempts
        // (evicted containers, fenced masters, losing speculative
        // duplicates) are discarded.
        let Some(&(fop, index)) = self.attempt_of.get(&attempt) else {
            return Ok(());
        };
        let valid = matches!(
            &self.tasks[fop][index],
            TaskState::Running { attempts } if attempts.iter().any(|&(a, _)| a == attempt)
        );
        if !valid {
            return Ok(());
        }
        // The belt under the wire-level epoch fence: an attempt launched
        // before the last committed reconfiguration never commits after
        // it. Unreachable when the fence holds (prepare quiesces every
        // current attempt before the epoch advances), but a discarded
        // report must keep the job live: the task reverts to pending and
        // relaunches under the new epoch.
        let launch_epoch = self.attempt_epochs.remove(&attempt).unwrap_or(0);
        if launch_epoch != self.epoch.load(Ordering::Relaxed) {
            if let TaskState::Running { attempts } = &mut self.tasks[fop][index] {
                attempts.retain(|&(a, _)| a != attempt);
                if attempts.is_empty() {
                    self.tasks[fop][index] = TaskState::Pending;
                }
            }
            self.attempt_of.remove(&attempt);
            self.launch_times.remove(&attempt);
            self.speculative.remove(&attempt);
            return Ok(());
        }
        self.attempt_of.remove(&attempt);
        if let Some(t0) = self.launch_times.remove(&attempt) {
            self.fop_durations[fop]
                .push(self.clock.now().saturating_duration_since(t0).as_millis() as u64);
        }
        // First commit wins: if this was the speculative duplicate, it
        // beat the original. Either way every other in-flight attempt of
        // this task becomes a loser — unregistered now, so its eventual
        // completion is stale and only frees its executor slot.
        let speculative = self.speculative.remove(&attempt);
        if let TaskState::Running { attempts } = &self.tasks[fop][index] {
            let losers: Vec<AttemptId> = attempts
                .iter()
                .map(|&(a, _)| a)
                .filter(|&a| a != attempt)
                .collect();
            for a in losers {
                self.attempt_of.remove(&a);
                self.launch_times.remove(&a);
                self.speculative.remove(&a);
                self.attempt_epochs.remove(&a);
            }
        }
        let locations = self.commit_locations(fop, index, exec, &output)?;
        let bytes = block_bytes(&output);
        let pushed =
            self.placement[fop] == Placement::Transient && locations.iter().any(|l| l != &exec);
        if self.job.plan.out_edges(fop).is_empty() {
            // Terminal operator: the output is written to the job sink and
            // is safe regardless of container fate. Sink and location
            // table share the block.
            self.result_parts.insert((fop, index), Arc::clone(&output));
        }
        // A recommit after a revert replaces the output; anything routed
        // from the old version must not be served for the new one.
        self.invalidate_derived(fop, index);
        self.outputs.insert((fop, index), output);
        self.tasks[fop][index] = TaskState::Done { locations };
        self.submit_eager_routing(fop, index);
        self.journal.emit(
            Some(self.meta.stage_of[fop]),
            JobEvent::TaskCommitted {
                fop,
                index,
                attempt,
                exec,
                speculative,
                bytes_pushed: if pushed { bytes } else { 0 },
                preaggregated,
                cache_hit,
            },
        );
        // The commit's durable half: `TaskCommitted` carries no location
        // set, so the location table rides its own WAL frame.
        self.append_wal_locations(fop, index)?;

        self.done_events += 1;
        self.fire_due_faults()?;
        Ok(())
    }

    /// Releases the input blocks an attempt pinned at launch. Tolerates
    /// unknown attempts: master unit tests (and fenced pre-restart
    /// attempts) report completions the pin table never saw.
    ///
    /// Releasing pins is the one event that creates durable headroom on
    /// a store, so pushes parked against that executor become due
    /// immediately. Timed backoff alone starves here: the scheduler
    /// re-pins freed bytes for the next waiting task within the same
    /// loop iteration, while a clock-gated retry lands milliseconds
    /// late and finds the store full again.
    fn release_attempt_pins(&mut self, attempt: AttemptId) {
        if let Some((exec, refs)) = self.attempt_pins.remove(&attempt) {
            if let Some(info) = self.executors.get(&exec) {
                let mut s = info.store.lock();
                for r in refs {
                    s.unpin(r);
                }
            }
            let now = self.clock.now();
            let base = self.job.config.retransmit_base_ms.max(1);
            for p in &mut self.deferred_pushes {
                if p.dest == exec {
                    p.next_try = now;
                    p.backoff_ms = base;
                }
            }
        }
    }

    /// Handles a user-code failure (error or caught panic) of one task
    /// attempt: reverts the attempt, charges the task's retry budget and
    /// the executor's fault threshold, and fails the job terminally once
    /// the budget is exhausted.
    fn on_task_failed(
        &mut self,
        exec: ExecId,
        attempt: AttemptId,
        reason: String,
    ) -> Result<(), RuntimeError> {
        // Same idempotence gate as `on_task_done`: an attempt reports
        // terminally once, however many times the network replays it.
        if !self.completed_attempts.insert(attempt) {
            return Ok(());
        }
        self.release_attempt_pins(attempt);
        if let Some(info) = self.executors.get_mut(&exec) {
            if info.alive {
                info.busy = info.busy.saturating_sub(1);
            }
        }
        // Stale failures (already-discarded attempts) only free the slot.
        let Some(&(fop, index)) = self.attempt_of.get(&attempt) else {
            return Ok(());
        };
        let current = matches!(
            &self.tasks[fop][index],
            TaskState::Running { attempts } if attempts.iter().any(|&(a, _)| a == attempt)
        );
        if !current {
            return Ok(());
        }
        self.attempt_of.remove(&attempt);
        self.launch_times.remove(&attempt);
        self.speculative.remove(&attempt);
        self.attempt_epochs.remove(&attempt);
        self.journal.emit(
            Some(self.meta.stage_of[fop]),
            JobEvent::TaskFailed {
                fop,
                index,
                attempt,
                exec,
            },
        );
        // An allocation failure mid-prepare is a signal the quiesce is
        // fighting memory pressure: roll the transaction back rather
        // than let the prepare window starve the retry.
        if self.reconfig.is_some() && reason.contains("allocation failure") {
            self.abort_reconfig(format!(
                "allocation failure in task {fop}.{index} mid-prepare"
            ));
        }
        if let TaskState::Running { attempts } = &mut self.tasks[fop][index] {
            attempts.retain(|&(a, _)| a != attempt);
            if attempts.is_empty() {
                self.tasks[fop][index] = TaskState::Pending;
            }
        }

        let failures = {
            let f = self.task_failure_counts.entry((fop, index)).or_insert(0);
            *f += 1;
            *f
        };
        if failures >= self.job.config.max_task_attempts {
            return Err(RuntimeError::TaskFailed {
                fop,
                index,
                attempts: failures,
                reason,
                events: self.frozen_journal().to_events(),
            });
        }

        let exec_faults = {
            let f = self.exec_failures.entry(exec).or_insert(0);
            *f += 1;
            *f
        };
        if exec_faults >= self.job.config.executor_fault_threshold
            && !self.blacklisted.contains(&exec)
        {
            self.blacklist(exec);
        }
        Ok(())
    }

    /// Blacklists an executor after repeated user-code failures: it gets
    /// no new work but stays alive, so outputs already committed to it
    /// remain readable. A replacement container takes over its share.
    fn blacklist(&mut self, exec: ExecId) {
        self.blacklisted.insert(exec);
        self.journal.emit(None, JobEvent::ExecutorBlacklisted(exec));
        // Re-route receiver assignments that have not yet produced data.
        let stale: Vec<(FopId, usize)> = self
            .assigned
            .iter()
            .filter(|(&(f, i), &e)| {
                e == exec && !matches!(self.tasks[f][i], TaskState::Done { .. })
            })
            .map(|(&k, _)| k)
            .collect();
        for k in stale {
            self.assigned.remove(&k);
        }
        // An unknown executor (a fault-injected blacklist of an id the
        // master never spawned) has nothing to replace.
        let Some(kind) = self.executors.get(&exec).map(|e| e.handle.kind) else {
            return;
        };
        let replacement = self.spawn_executor(kind);
        self.journal
            .emit(None, JobEvent::ContainerAdded(replacement));
    }

    /// Where a completed task's output now lives: reserved anchors keep it
    /// locally; transient tasks push it to the reserved executors assigned
    /// to their consumer tasks (escaping evictions); transient tasks with
    /// only transient consumers keep it locally, still at risk.
    ///
    /// Every location is backed by a store admission. The producer-local
    /// copy admits unconditionally (spilling itself to disk when memory
    /// has no headroom — a commit never stalls on its own output). A
    /// cross-executor push the destination cannot take is *deferred*
    /// (journaled `PushDeferred`, retried with backoff); only an output
    /// larger than a whole store budget fails the job, as
    /// [`RuntimeError::MemoryExceeded`].
    fn commit_locations(
        &mut self,
        fop: FopId,
        index: usize,
        exec: ExecId,
        output: &Block,
    ) -> Result<Vec<ExecId>, RuntimeError> {
        let r = BlockRef::Output { fop, index };
        let mut dests: Vec<ExecId> = Vec::new();
        if self.placement[fop] != Placement::Reserved {
            for e in self.job.plan.out_edges(fop) {
                if self.placement[e.dst] != Placement::Reserved {
                    continue;
                }
                for di in 0..self.parallelism[e.dst] {
                    if let Some(&d) = self.assigned.get(&(e.dst, di)) {
                        if d != exec && !dests.contains(&d) {
                            dests.push(d);
                        }
                    }
                }
            }
        }
        let mut locations: Vec<ExecId> = Vec::new();
        for d in dests {
            let Some(info) = self.executors.get(&d) else {
                continue;
            };
            if !info.alive {
                continue;
            }
            let admitted = info.store.lock().admit(r, output);
            match admitted {
                Ok(()) => locations.push(d),
                // A spill-I/O fault while making room is the same outcome
                // as no room: the push defers and retries like any other
                // backpressured push — a disk hiccup never fails the job.
                Err(StoreError::NoHeadroom { .. } | StoreError::SpillUnreadable { .. }) => {
                    self.journal.emit(
                        Some(self.meta.stage_of[fop]),
                        JobEvent::PushDeferred {
                            fop,
                            index,
                            exec: d,
                            bytes: block_bytes(output),
                        },
                    );
                    self.deferred_pushes.push(DeferredPush {
                        fop,
                        index,
                        dest: d,
                        next_try: self.clock.now()
                            + Duration::from_millis(self.job.config.retransmit_base_ms.max(1)),
                        backoff_ms: self.job.config.retransmit_base_ms.max(1),
                    });
                }
                Err(StoreError::TooLarge { bytes, budget }) => {
                    return Err(RuntimeError::MemoryExceeded {
                        bytes,
                        budget,
                        context: format!("push of output {fop}.{index} to executor {d}"),
                    });
                }
            }
        }
        if locations.is_empty() {
            // No push landed (reserved anchor, transient-only consumers,
            // or every destination backpressured): the producer keeps the
            // output, spilling its own memory if it must.
            let admitted = self
                .executors
                .get(&exec)
                .map(|info| info.store.lock().admit_or_spill(r, output));
            match admitted {
                None | Some(Ok(())) => {}
                Some(Err(StoreError::TooLarge { bytes, budget })) => {
                    return Err(RuntimeError::MemoryExceeded {
                        bytes,
                        budget,
                        context: format!("output {fop}.{index} committed on executor {exec}"),
                    });
                }
                // A spill-write fault left the producer unable to account
                // the block. The data itself lives in the master's shared
                // location table either way, so the commit stands; only
                // the store-side residency record is missing, and an
                // eviction of this executor reverts the task as usual.
                Some(Err(StoreError::NoHeadroom { .. } | StoreError::SpillUnreadable { .. })) => {}
            }
            locations.push(exec);
        }
        Ok(locations)
    }

    fn fire_due_faults(&mut self) -> Result<(), RuntimeError> {
        while self.fault_cursor_evict < self.faults.evictions.len()
            && self.faults.evictions[self.fault_cursor_evict].0 <= self.done_events
        {
            let (_, k) = self.faults.evictions[self.fault_cursor_evict];
            self.fault_cursor_evict += 1;
            if let Some(victim) = self.nth_alive(Placement::Transient, k) {
                self.on_executor_lost(victim, LossKind::Eviction);
            }
        }
        while self.fault_cursor_fail < self.faults.reserved_failures.len()
            && self.faults.reserved_failures[self.fault_cursor_fail].0 <= self.done_events
        {
            let (_, k) = self.faults.reserved_failures[self.fault_cursor_fail];
            self.fault_cursor_fail += 1;
            if let Some(victim) = self.nth_alive(Placement::Reserved, k) {
                self.on_executor_lost(victim, LossKind::ReservedFailure);
            }
        }
        while self.fault_cursor_shrink < self.faults.budget_shrinks.len()
            && self.faults.budget_shrinks[self.fault_cursor_shrink].0 <= self.done_events
        {
            let (_, k, bytes) = self.faults.budget_shrinks[self.fault_cursor_shrink];
            self.fault_cursor_shrink += 1;
            if let Some(victim) = self.nth_alive(Placement::Reserved, k) {
                if let Some(info) = self.executors.get(&victim) {
                    // The store spills what it can and journals the
                    // applied budget (clamped up to pinned occupancy).
                    info.store.lock().set_budget(bytes);
                }
            }
        }
        while self.fault_cursor_reconfig < self.faults.reconfigs.len()
            && self.faults.reconfigs[self.fault_cursor_reconfig].after_done_events
                <= self.done_events
        {
            let scheduled = self.faults.reconfigs[self.fault_cursor_reconfig];
            self.fault_cursor_reconfig += 1;
            self.request_reconfig(scheduled.plan, scheduled.trigger);
        }
        if let Some(n) = self.faults.master_failure_after {
            if !self.master_failed && self.done_events >= n {
                self.master_failed = true;
                self.crash_and_recover(None)?;
            }
        }
        Ok(())
    }

    fn nth_alive(&self, kind: Placement, k: usize) -> Option<ExecId> {
        let alive: Vec<ExecId> = self
            .executors
            .iter()
            .filter(|(_, e)| e.alive && e.handle.kind == kind)
            .map(|(&id, _)| id)
            .collect();
        if alive.is_empty() {
            None
        } else {
            Some(alive[k % alive.len()])
        }
    }

    /// Handles the loss of a container: eviction (transient), machine
    /// failure (reserved), or a heartbeat-detector death sentence.
    /// Uncommitted attempts revert to pending; outputs whose only
    /// location died are reverted, which for reserved failures re-opens
    /// completed ancestor stages exactly as §3.2.6 prescribes.
    fn on_executor_lost(&mut self, exec: ExecId, kind_of_loss: LossKind) {
        let Some(info) = self.executors.get_mut(&exec) else {
            return;
        };
        if !info.alive {
            return;
        }
        info.alive = false;
        info.cached.clear();
        // The kill is a resource-manager action, delivered out-of-band:
        // it reaches even an executor the network has partitioned away.
        info.handle.stop();
        // Its memory died with it: drop the store's contents (and spill
        // files) without journaling — the loss event itself tells the
        // invariant checker to clear the executor's replayed state.
        info.store.lock().clear_silent();
        let kind = info.handle.kind;
        self.attempt_pins.retain(|_, (e, _)| *e != exec);
        self.deferred_pushes.retain(|p| p.dest != exec);
        // A drained executor that finally dies needs no special recovery
        // (its blocks migrated at drain time); it just stops counting
        // against the drain bookkeeping.
        self.drained.remove(&exec);
        if kind_of_loss == LossKind::Eviction {
            self.evictions_seen += 1;
        }
        // Any loss invalidates the quiesce a prepare phase is waiting
        // for: roll the transaction back and let normal recovery run
        // under the old placement (which is still fully runnable).
        if self.reconfig.is_some() {
            self.abort_reconfig(format!("executor {exec} lost mid-prepare"));
        }
        // Sync the stage bracket first: a commit in the same frame may
        // have just completed a stage whose `StageCompleted` is not yet
        // logged, and the reopen below must nest inside it.
        self.note_stage_transitions();
        self.journal.emit(
            None,
            match kind_of_loss {
                LossKind::ReservedFailure => JobEvent::ReservedFailed(exec),
                LossKind::Eviction => JobEvent::ContainerEvicted(exec),
                LossKind::DeclaredDead => JobEvent::ExecutorDeclaredDead(exec),
            },
        );

        let complete_before: Vec<bool> = (0..self.job.plan.stage_dag.stages.len())
            .map(|s| self.stage_complete(s))
            .collect();

        // Revert running attempts scheduled on the lost executor. A task
        // racing a speculative duplicate keeps its surviving attempts.
        let mut dropped_attempts: Vec<AttemptId> = Vec::new();
        for ts in &mut self.tasks {
            for t in ts.iter_mut() {
                if let TaskState::Running { attempts } = t {
                    dropped_attempts.extend(
                        attempts
                            .iter()
                            .filter(|&&(_, e)| e == exec)
                            .map(|&(a, _)| a),
                    );
                    attempts.retain(|&(_, e)| e != exec);
                    if attempts.is_empty() {
                        *t = TaskState::Pending;
                    }
                }
            }
        }
        for a in dropped_attempts {
            self.attempt_of.remove(&a);
            self.launch_times.remove(&a);
            self.speculative.remove(&a);
            self.attempt_epochs.remove(&a);
        }
        // Destroy data whose only copy lived on the lost executor.
        for f in 0..self.tasks.len() {
            for i in 0..self.tasks[f].len() {
                let lost = if let TaskState::Done { locations } = &mut self.tasks[f][i] {
                    locations.retain(|&l| l != exec);
                    locations.is_empty() && !self.result_parts.contains_key(&(f, i))
                } else {
                    false
                };
                if lost {
                    self.outputs.remove(&(f, i));
                    self.invalidate_derived(f, i);
                    self.tasks[f][i] = TaskState::Pending;
                    self.journal.emit(
                        Some(self.meta.stage_of[f]),
                        JobEvent::TaskReverted { fop: f, index: i },
                    );
                }
            }
        }
        // Invalidate receiver assignments pointing at the lost executor.
        self.assigned.retain(|_, &mut e| e != exec);

        // Completed stages the loss re-opened (reserved-failure
        // recomputation, §3.2.6) are logged eagerly with `recompute:
        // true`; flipping the bracket state here keeps
        // `note_stage_transitions` from double-logging them.
        for (s, was_complete) in complete_before.iter().enumerate() {
            if *was_complete && !self.stage_complete(s) {
                self.journal.emit(
                    Some(s),
                    JobEvent::StageReopened {
                        stage: s,
                        recompute: true,
                    },
                );
                self.stage_completed[s] = false;
            }
        }

        // The resource manager immediately provides a replacement.
        let replacement = self.spawn_executor(kind);
        self.journal
            .emit(None, JobEvent::ContainerAdded(replacement));
    }

    /// The master's durable progress record, built from live state. The
    /// completed-attempt set is sorted so the frame bytes are a pure
    /// function of the state, never of hash-map iteration order.
    fn wal_snapshot(&self) -> WalSnapshot {
        let mut completed_attempts: Vec<AttemptId> =
            self.completed_attempts.iter().copied().collect();
        completed_attempts.sort_unstable();
        let mut committed: Vec<(FopId, usize, Vec<ExecId>)> = Vec::new();
        for f in 0..self.tasks.len() {
            for (i, t) in self.tasks[f].iter().enumerate() {
                if let TaskState::Done { locations } = t {
                    committed.push((f, i, locations.clone()));
                }
            }
        }
        WalSnapshot {
            epoch: self.epoch.load(Ordering::Relaxed),
            next_attempt: self.next_attempt,
            completed_attempts,
            committed,
            first_attempted: self.first_attempted.clone(),
            parallelism: self.parallelism.clone(),
            placement: self.placement.clone(),
            // Store residency reseeds from the Block* events that follow
            // the snapshot; recovery never consumes it, so the snapshot
            // does not chase executor store locks to record it.
            resident: Vec::new(),
        }
    }

    /// Appends (and syncs) a compacting snapshot frame. A no-op without
    /// an armed WAL.
    fn append_wal_snapshot(&mut self) -> Result<(), RuntimeError> {
        let Some(wal) = self.wal.as_ref().map(Arc::clone) else {
            return Ok(());
        };
        let snap = self.wal_snapshot();
        let mut w = wal.lock();
        w.append(&WalRecord::Snapshot(snap))?;
        w.sync()
    }

    /// Appends a snapshot when the writer's event clock says one is due
    /// (`RuntimeConfig::wal_snapshot_every` events since the last).
    fn maybe_wal_snapshot(&mut self) -> Result<(), RuntimeError> {
        let due = match &self.wal {
            Some(wal) => wal.lock().snapshot_due(),
            None => return Ok(()),
        };
        if due {
            self.append_wal_snapshot()?;
        }
        Ok(())
    }

    /// Makes the current location set of task `(fop, index)` durable.
    /// `TaskCommitted` events carry no locations, so every mutation of a
    /// committed output's location set rides its own WAL frame; an empty
    /// set records the output as gone.
    fn append_wal_locations(&mut self, fop: FopId, index: usize) -> Result<(), RuntimeError> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        let locations = match self.tasks.get(fop).and_then(|ts| ts.get(index)) {
            Some(TaskState::Done { locations }) => locations.clone(),
            _ => Vec::new(),
        };
        wal.lock().append(&WalRecord::Locations {
            fop,
            index,
            locations,
        })
    }

    /// Evaluates the crash family's triggers at a handler boundary and
    /// kills/recovers the master when one fires.
    fn maybe_crash(&mut self) -> Result<(), RuntimeError> {
        let Some(plan) = self.faults.crashes else {
            return Ok(());
        };
        if self.crashes_injected >= plan.max_crashes {
            return Ok(());
        }
        let round = self.crashes_injected as u64 + 1;
        let mut due = false;
        if let Some(n) = plan.after_handled_frames {
            due |= self.handled_frames >= n.saturating_mul(round);
        }
        if let Some(k) = plan.every_kth_append {
            let appends = self.wal.as_ref().map_or(0, |w| w.lock().total_appends());
            due |= k > 0 && appends >= k.saturating_mul(round);
        }
        if plan.handler_prob > 0.0 {
            due |= FaultInjector::new(plan.seed)
                .crash_boundary(self.handled_frames)
                .unit()
                < plan.handler_prob;
        }
        if !due {
            return Ok(());
        }
        self.crashes_injected += 1;
        self.crash_and_recover(plan.corruption.as_ref())
    }

    /// Kills the master and rebuilds it from the write-ahead log: the
    /// unsynced WAL suffix is lost (the simulated page cache), optional
    /// seeded corruption mangles the surviving image, and the recovery
    /// scan replays the longest valid prefix.
    fn crash_and_recover(
        &mut self,
        corruption: Option<&WalCorruption>,
    ) -> Result<(), RuntimeError> {
        let wal = self.wal.clone().ok_or_else(|| {
            RuntimeError::Invariant("master killed without an armed write-ahead log".into())
        })?;
        let rec = wal.lock().crash_and_recover(corruption)?;
        self.recover_from_wal(rec)
    }

    /// Rebuilds every piece of master state the WAL replay carries:
    /// the completion log, the block location table (refetched from
    /// surviving executor stores), the reconfiguration epoch, and the
    /// shape overlays. Everything else is in-memory state of the dead
    /// master and resets: attempt accounting (retry budgets, executor
    /// fault counts), in-flight attempts, pins and deferred pushes.
    /// Chaos-injection bookkeeping deliberately survives — it models the
    /// *test harness's* fault schedule, not master state, keeping
    /// injected faults bounded per task across the restart. Transport
    /// sessions (sequence numbers, dedup windows) also continue: the
    /// in-process model restarts master *state*, not its sockets.
    fn recover_from_wal(&mut self, rec: RecoveredState) -> Result<(), RuntimeError> {
        // The in-memory journal survives (replicated progress record);
        // the recovery markers are the first thing the new master logs,
        // and law 10 fences every in-flight pre-crash attempt at the
        // `MasterRecovered` mark.
        self.journal.emit(None, JobEvent::MasterRecovered);
        self.journal.emit(
            None,
            JobEvent::WalRecovered {
                frames_replayed: rec.frames_replayed,
                frames_truncated: rec.frames_truncated,
                snapshot_restored: rec.snapshot_restored,
            },
        );
        // An in-flight transaction is in-memory state the recovered
        // master never heard of: it resolves as an abort.
        self.abort_reconfig("master restarted mid-transaction".into());
        // Pins belong to fenced pre-crash attempts; the executors
        // outlive the master, so their memory holds lift now. Deferred
        // pushes die with the dead master's queue.
        let pins: Vec<(AttemptId, (ExecId, Vec<BlockRef>))> = self.attempt_pins.drain().collect();
        for (_, (exec, refs)) in pins {
            if let Some(info) = self.executors.get(&exec) {
                let mut s = info.store.lock();
                for r in refs {
                    s.unpin(r);
                }
            }
        }
        self.deferred_pushes.clear();
        let done_before: Vec<Vec<bool>> = self
            .tasks
            .iter()
            .map(|ts| {
                ts.iter()
                    .map(|t| matches!(t, TaskState::Done { .. }))
                    .collect()
            })
            .collect();

        // Shape overlays: the genesis snapshot makes the replayed shape
        // available from the first frame; if interior corruption
        // destroyed every snapshot, restart from the plan's frozen
        // shape and recompute everything.
        let n_fops = self.job.plan.fops.len();
        if rec.parallelism.len() == n_fops && rec.placement.len() == n_fops {
            self.parallelism = rec.parallelism.clone();
            self.placement = rec.placement.clone();
            self.first_attempted = rec.first_attempted.clone();
        } else {
            self.parallelism = self.job.plan.fops.iter().map(|f| f.parallelism).collect();
            self.placement = self.job.plan.fops.iter().map(|f| f.placement).collect();
            self.first_attempted = self.parallelism.iter().map(|&p| vec![false; p]).collect();
        }
        // Re-apply committed placement changes the replay could not
        // fold by itself (they need the plan's stage table).
        // `Repartition` replays inside the WAL fold; a committed
        // `DrainTransient`'s drained set deliberately persists as
        // harness state (DESIGN.md §14).
        for change in &rec.reconfig_changes {
            if let ReconfigChange::MigrateStage { stage, to } = change {
                for f in 0..self.placement.len() {
                    if self.meta.stage_of[f] == *stage {
                        self.placement[f] = *to;
                    }
                }
            }
        }
        if self.first_attempted.len() != n_fops {
            self.first_attempted = self.parallelism.iter().map(|&p| vec![false; p]).collect();
        }
        for f in 0..n_fops {
            if self.first_attempted[f].len() != self.parallelism[f] {
                self.first_attempted[f] = vec![false; self.parallelism[f]];
            }
        }

        self.tasks = self
            .parallelism
            .iter()
            .map(|&p| vec![TaskState::Pending; p])
            .collect();
        self.outputs.clear();
        self.routed.clear();
        self.side_cache.clear();

        let alive: HashSet<ExecId> = self
            .executors
            .iter()
            .filter(|(_, e)| e.alive)
            .map(|(&id, _)| id)
            .collect();
        // Rebuild the location table: every replayed commit whose
        // locations still point at alive executors refetches its block
        // from their stores; sink-safe terminal outputs fall back to
        // the durable result parts; anything else recomputes.
        let mut committed: Vec<((FopId, usize), Vec<ExecId>)> =
            rec.committed.iter().map(|(&k, v)| (k, v.clone())).collect();
        committed.sort_unstable_by_key(|&(k, _)| k);
        for ((f, i), locations) in committed {
            if f >= n_fops || i >= self.parallelism[f] {
                // A frame from a stale shape (or one that survived the
                // CRC by chance): drop it, the task table has no slot.
                continue;
            }
            let locs: Vec<ExecId> = locations
                .into_iter()
                .filter(|l| alive.contains(l))
                .collect();
            let mut block: Option<Block> = None;
            for &l in &locs {
                let fetched = self.executors.get(&l).and_then(|info| {
                    info.store
                        .lock()
                        .get(BlockRef::Output { fop: f, index: i })
                        .ok()
                        .flatten()
                });
                if fetched.is_some() {
                    block = fetched;
                    break;
                }
            }
            let terminal = self.job.plan.out_edges(f).is_empty();
            let block = block.or_else(|| {
                if terminal {
                    self.result_parts.get(&(f, i)).map(Arc::clone)
                } else {
                    None
                }
            });
            let Some(block) = block else {
                continue;
            };
            if terminal {
                self.result_parts.insert((f, i), Arc::clone(&block));
            }
            self.outputs.insert((f, i), block);
            self.tasks[f][i] = TaskState::Done { locations: locs };
        }
        // Result parts of tasks the log no longer believes committed
        // must not leak into the job output: their tasks recompute and
        // re-commit identical bytes.
        let tasks = &self.tasks;
        self.result_parts.retain(|&(f, i), _| {
            matches!(
                tasks.get(f).and_then(|ts| ts.get(i)),
                Some(TaskState::Done { .. })
            )
        });

        // The idempotence keystone is *replaced*, not merged: the WAL's
        // completed-attempt set is the replicated completion log, and
        // pre-crash reports replayed by the network must still bounce.
        self.completed_attempts = rec.completed_attempts.clone();
        // The epoch only moves forward, so pre-crash frames stay fenced.
        self.epoch.fetch_max(rec.epoch, Ordering::Relaxed);
        // Fence every attempt the pre-crash master issued.
        self.next_attempt = rec.max_attempt.max(self.next_attempt) + 1_000_000;
        self.attempt_of.clear();
        self.assigned.clear();
        self.launch_times.clear();
        self.speculative.clear();
        self.task_failure_counts.clear();
        self.exec_failures.clear();
        self.attempt_epochs.clear();
        for info in self.executors.values_mut() {
            if info.alive {
                info.busy = 0;
            }
        }
        // Log every commit the crash rolled back; recomputation follows.
        for (f, was) in done_before.iter().enumerate() {
            for (i, &was_done) in was.iter().enumerate() {
                let now_done = matches!(
                    self.tasks.get(f).and_then(|ts| ts.get(i)),
                    Some(TaskState::Done { .. })
                );
                if was_done && !now_done && f < n_fops && i < self.parallelism[f] {
                    self.journal.emit(
                        Some(self.meta.stage_of[f]),
                        JobEvent::TaskReverted { fop: f, index: i },
                    );
                }
            }
        }
        self.note_stage_transitions();
        // A fresh snapshot compacts the replay for the next crash and
        // resets the writer's snapshot clock.
        self.append_wal_snapshot()
    }

    /// One scheduling pass: over every runnable stage, assign reserved
    /// receivers first, then launch every ready pending task with the
    /// round-robin, cache-aware policy.
    fn schedule(&mut self) -> Result<(), RuntimeError> {
        // Prepare phase: no new attempts launch while a reconfiguration
        // transaction is quiescing — otherwise the running set never
        // drains and prepare can only time out.
        if self.reconfig.is_some() {
            return Ok(());
        }
        for stage in self.job.plan.stage_dag.topo_order() {
            if !self.stage_runnable(stage) {
                continue;
            }
            self.assign_receivers(stage);
            // Reserved receivers launch as soon as their inputs are ready;
            // transient tasks fill free slots round-robin.
            let fops = self.job.plan.stage_fops(stage);
            let mut ordered: Vec<FopId> = fops
                .iter()
                .copied()
                .filter(|&f| self.placement[f] == Placement::Reserved)
                .collect();
            ordered.extend(
                fops.iter()
                    .copied()
                    .filter(|&f| self.placement[f] == Placement::Transient),
            );
            for f in ordered {
                for i in 0..self.tasks[f].len() {
                    if matches!(self.tasks[f][i], TaskState::Pending) && self.task_ready(f, i) {
                        self.launch(f, i)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Pre-assigns each reserved task of the stage to a reserved executor
    /// so transient producers know their push destinations (§3.2.3: "the
    /// task scheduler first schedules and sets up the tasks placed on
    /// reserved executors").
    fn assign_receivers(&mut self, stage: usize) {
        let reserved: Vec<ExecId> = self
            .executors
            .iter()
            .filter(|(id, e)| {
                e.alive && e.handle.kind == Placement::Reserved && !self.blacklisted.contains(id)
            })
            .map(|(&id, _)| id)
            .collect();
        if reserved.is_empty() {
            return;
        }
        let mut cursor = 0usize;
        for f in self.job.plan.stage_fops(stage) {
            if self.placement[f] != Placement::Reserved {
                continue;
            }
            for i in 0..self.parallelism[f] {
                self.assigned.entry((f, i)).or_insert_with(|| {
                    let e = reserved[cursor % reserved.len()];
                    cursor += 1;
                    e
                });
            }
        }
    }

    /// Whether all of a task's inputs are available.
    fn task_ready(&self, fop: FopId, index: usize) -> bool {
        for e in self.job.plan.in_edges(fop) {
            let src_par = self.parallelism[e.src];
            let dst_par = self.parallelism[fop];
            for si in required_src_indices(&e, index, src_par, dst_par) {
                if !matches!(self.tasks[e.src][si], TaskState::Done { .. }) {
                    return false;
                }
            }
        }
        true
    }

    fn launch(&mut self, fop: FopId, index: usize) -> Result<(), RuntimeError> {
        let placement = self.placement[fop];
        let cache_pref = self.cache_preference(fop);
        let Some(exec) = self.pick_executor(placement, fop, index, cache_pref) else {
            return Ok(()); // No free executor; retry on the next event.
        };

        // Admission control: a task launches only when every main input
        // can be pinned on its executor. A refusal leaves the task
        // pending — other tasks keep scheduling, and this one retries
        // once running attempts release their pins.
        let Some(pins) = self.pin_inputs(fop, index, exec)? else {
            return Ok(());
        };

        let attempt = self.next_attempt;
        self.next_attempt += 1;

        let (mains, sides, side_stats) = self.assemble_inputs(fop, index, exec)?;
        let preaggregate = placement == Placement::Transient
            && self.job.config.partial_aggregation
            && combine_consumer(&self.job.dag, &self.job.plan, fop).is_some();
        let inject = self.decide_injection(fop, index);

        // Launch accounting.
        let relaunch = self.first_attempted[fop][index];
        if !relaunch {
            self.first_attempted[fop][index] = true;
        }
        self.journal.emit(
            Some(self.meta.stage_of[fop]),
            JobEvent::TaskLaunched {
                fop,
                index,
                attempt,
                exec,
                relaunch,
                side_bytes_sent: side_stats.sent,
                side_bytes_saved: side_stats.saved,
                side_cache_misses: side_stats.misses,
            },
        );
        self.attempt_of.insert(attempt, (fop, index));
        self.launch_times.insert(attempt, self.clock.now());
        self.attempt_pins.insert(attempt, (exec, pins));
        self.attempt_epochs
            .insert(attempt, self.epoch.load(Ordering::Relaxed));
        self.tasks[fop][index] = TaskState::Running {
            attempts: vec![(attempt, exec)],
        };
        let info = self.executors.get_mut(&exec).ok_or_else(|| {
            RuntimeError::Invariant(format!("picked executor {exec} is not registered"))
        })?;
        info.busy += 1;
        info.out.send(ExecutorMsg::Run(TaskSpec {
            attempt,
            fop,
            index,
            mains,
            sides,
            preaggregate,
            inject,
        }));
        Ok(())
    }

    /// Admission control at launch: pins every main-input block of task
    /// `(fop, index)` on `exec`'s store *before* the attempt exists, so
    /// a running task's inputs can never spill (or be shed) under it.
    /// Shuffle consumers pin only their routed bucket, never the whole
    /// source output — pinning full `ManyToMany` inputs would deadlock
    /// tight budgets outright.
    ///
    /// Returns `Ok(None)` on a headroom refusal: the pins taken so far
    /// roll back and the task stays pending (the scheduler reorders
    /// around it and retries once running attempts release memory).
    /// When the task's own requirement alone exceeds the budget on an
    /// otherwise-empty store, no amount of waiting can help — that is a
    /// terminal [`RuntimeError::MemoryExceeded`], not a deferral.
    fn pin_inputs(
        &mut self,
        fop: FopId,
        index: usize,
        exec: ExecId,
    ) -> Result<Option<Vec<BlockRef>>, RuntimeError> {
        let dst_par = self.parallelism[fop];
        let mut wanted: Vec<(BlockRef, Block)> = Vec::new();
        for e in self.job.plan.in_edges(fop) {
            if !matches!(e.slot, InputSlot::Main(_)) {
                continue;
            }
            let src_par = self.parallelism[e.src];
            for si in required_src_indices(&e, index, src_par, dst_par) {
                let (r, block) = match e.dep {
                    DepType::ManyToMany => (
                        BlockRef::Bucket {
                            fop: e.src,
                            index: si,
                            dst_par,
                            dst: index,
                        },
                        self.routed_bucket(e.src, si, dst_par, index),
                    ),
                    _ => (
                        BlockRef::Output {
                            fop: e.src,
                            index: si,
                        },
                        self.outputs.get(&(e.src, si)).map(Arc::clone),
                    ),
                };
                let block = block.ok_or_else(|| {
                    RuntimeError::Invariant(format!(
                        "task {fop}.{index} admission ran before input {}.{si} was ready",
                        e.src
                    ))
                })?;
                wanted.push((r, block));
            }
        }
        if wanted.is_empty() {
            return Ok(Some(Vec::new()));
        }
        let store = self
            .executors
            .get(&exec)
            .map(|info| Arc::clone(&info.store))
            .ok_or_else(|| {
                RuntimeError::Invariant(format!("picked executor {exec} is not registered"))
            })?;
        let mut s = store.lock();
        let mut pinned: Vec<BlockRef> = Vec::new();
        let mut pinned_bytes = 0usize;
        for (r, data) in &wanted {
            match s.pin(*r, data) {
                Ok(()) => {
                    pinned.push(*r);
                    pinned_bytes += block_bytes(data);
                }
                Err(StoreError::NoHeadroom {
                    needed,
                    budget,
                    resident,
                }) => {
                    // Refusal with nothing resident but our own pins
                    // means the requirement itself is over budget.
                    let only_us = resident <= pinned_bytes;
                    for p in pinned {
                        s.unpin(p);
                    }
                    if only_us {
                        return Err(RuntimeError::MemoryExceeded {
                            bytes: pinned_bytes + needed,
                            budget,
                            context: format!("inputs of task {fop}.{index} on executor {exec}"),
                        });
                    }
                    return Ok(None);
                }
                Err(StoreError::TooLarge { bytes, budget }) => {
                    for p in pinned {
                        s.unpin(p);
                    }
                    return Err(RuntimeError::MemoryExceeded {
                        bytes,
                        budget,
                        context: format!("input {r} of task {fop}.{index} on executor {exec}"),
                    });
                }
                Err(StoreError::SpillUnreadable { .. }) => {
                    // A spilled copy rotted on disk. The store already
                    // dropped the corrupt entry, so treat this like a
                    // headroom refusal: the task stays pending and the
                    // next admission re-pins from the master's copy.
                    for p in pinned {
                        s.unpin(p);
                    }
                    return Ok(None);
                }
            }
        }
        Ok(Some(pinned))
    }

    /// Decides fault injection for the next launch of task `(fop, index)`,
    /// combining targeted first-attempt delays with the probabilistic
    /// chaos plan. Decisions depend only on `(seed, task, launch
    /// ordinal)`, so a chaos run replays identically from its seed.
    fn decide_injection(&mut self, fop: FopId, index: usize) -> Option<InjectedFault> {
        let ordinal = {
            let c = self.launch_seq.entry((fop, index)).or_insert(0);
            let o = *c;
            *c += 1;
            o
        };
        if ordinal == 0 {
            if let Some(&(_, _, ms)) = self
                .faults
                .first_attempt_delays
                .iter()
                .find(|&&(f, i, _)| f == fop && i == index)
            {
                return Some(InjectedFault::Delay(ms));
            }
            if let Some(&(_, _, ms)) = self
                .faults
                .first_attempt_done_delays
                .iter()
                .find(|&&(f, i, _)| f == fop && i == index)
            {
                return Some(InjectedFault::DelayDone(ms));
            }
        }
        let chaos = self.faults.chaos.as_ref()?;
        // Keyed by (task identity, per-task launch ordinal) — causal
        // identifiers, so the same seed hits the same launches on both
        // backends.
        let d =
            FaultInjector::new(chaos.seed).task_launch(fop as u64, index as u64, ordinal as u64);
        let u = d.unit();
        let injected = self.injected_faults.entry((fop, index)).or_insert(0);
        if *injected < chaos.max_faults_per_task {
            if u < chaos.error_prob {
                *injected += 1;
                return Some(InjectedFault::Error);
            }
            if u < chaos.error_prob + chaos.panic_prob {
                *injected += 1;
                return Some(InjectedFault::Panic);
            }
            if u < chaos.error_prob + chaos.panic_prob + chaos.oom_prob {
                *injected += 1;
                return Some(InjectedFault::Oom);
            }
        }
        if u < chaos.error_prob + chaos.panic_prob + chaos.oom_prob + chaos.delay_prob {
            let ms = 1 + d.span(chaos.delay_ms);
            // Half the stalls land before the compute (a straggler), half
            // after it (output computed, report not yet sent) — the window
            // where evictions and partitions race the TaskDone.
            return Some(if d.coin(0x0D0E) {
                InjectedFault::Delay(ms)
            } else {
                InjectedFault::DelayDone(ms)
            });
        }
        None
    }

    /// Straggler mitigation: for every fop with enough completed-attempt
    /// samples, duplicate any single-attempt task whose elapsed time
    /// exceeds `speculation_multiplier` × the fop's median duration
    /// (floored by `speculation_floor_ms`). First commit wins.
    fn maybe_speculate(&mut self) -> Result<(), RuntimeError> {
        if !self.job.config.speculation || self.reconfig.is_some() {
            return Ok(());
        }
        let min_samples = self.job.config.speculation_min_samples.max(1);
        let mult = self.job.config.speculation_multiplier;
        let floor = self.job.config.speculation_floor_ms;
        let mut stragglers: Vec<(FopId, usize, ExecId)> = Vec::new();
        for f in 0..self.tasks.len() {
            if self.fop_durations[f].len() < min_samples {
                continue;
            }
            let mut durs = self.fop_durations[f].clone();
            durs.sort_unstable();
            let Some(&median) = durs.get(durs.len() / 2) else {
                continue;
            };
            let threshold = ((median as f64 * mult) as u64).max(floor);
            for i in 0..self.tasks[f].len() {
                if let TaskState::Running { attempts } = &self.tasks[f][i] {
                    // Never stack duplicates: one speculative race at a time.
                    if attempts.len() != 1 {
                        continue;
                    }
                    let (a, e) = attempts[0];
                    let now = self.clock.now();
                    let elapsed = self
                        .launch_times
                        .get(&a)
                        .map(|t| now.saturating_duration_since(*t).as_millis() as u64);
                    if elapsed.is_some_and(|ms| ms > threshold) {
                        stragglers.push((f, i, e));
                    }
                }
            }
        }
        for (f, i, avoid) in stragglers {
            self.launch_speculative(f, i, avoid)?;
        }
        Ok(())
    }

    /// Launches a speculative duplicate of a straggling attempt on a
    /// different executor. The duplicate shares the task's identity, so
    /// whichever attempt finishes first commits and the other is
    /// discarded by the commit protocol (never double-committed).
    fn launch_speculative(
        &mut self,
        fop: FopId,
        index: usize,
        avoid: ExecId,
    ) -> Result<(), RuntimeError> {
        let kind = self.placement[fop];
        let slots = self.job.config.slots_per_executor.max(1);
        let pick = self
            .executors
            .iter()
            .filter(|(&id, e)| {
                e.alive
                    && e.handle.kind == kind
                    && e.busy < slots
                    && id != avoid
                    && !self.blacklisted.contains(&id)
                    && !self.drained.contains(&id)
            })
            .max_by_key(|(&id, e)| (slots - e.busy, std::cmp::Reverse(id)))
            .map(|(&id, _)| id);
        let Some(exec) = pick else {
            return Ok(()); // No spare executor: keep waiting on the original.
        };

        // Speculation is strictly optional work: when the spare executor
        // has no headroom to pin the inputs, skip it rather than defer.
        let Some(pins) = self.pin_inputs(fop, index, exec)? else {
            return Ok(());
        };

        let attempt = self.next_attempt;
        self.next_attempt += 1;
        let (mains, sides, side_stats) = self.assemble_inputs(fop, index, exec)?;
        let preaggregate = kind == Placement::Transient
            && self.job.config.partial_aggregation
            && combine_consumer(&self.job.dag, &self.job.plan, fop).is_some();
        let inject = self.decide_injection(fop, index);

        self.journal.emit(
            Some(self.meta.stage_of[fop]),
            JobEvent::SpeculativeLaunched {
                fop,
                index,
                attempt,
                exec,
                side_bytes_sent: side_stats.sent,
                side_bytes_saved: side_stats.saved,
                side_cache_misses: side_stats.misses,
            },
        );
        self.attempt_of.insert(attempt, (fop, index));
        self.launch_times.insert(attempt, self.clock.now());
        self.attempt_pins.insert(attempt, (exec, pins));
        self.attempt_epochs
            .insert(attempt, self.epoch.load(Ordering::Relaxed));
        self.speculative.insert(attempt);
        if let TaskState::Running { attempts } = &mut self.tasks[fop][index] {
            attempts.push((attempt, exec));
        }
        let info = self.executors.get_mut(&exec).ok_or_else(|| {
            RuntimeError::Invariant(format!("speculative executor {exec} is not registered"))
        })?;
        info.busy += 1;
        info.out.send(ExecutorMsg::Run(TaskSpec {
            attempt,
            fop,
            index,
            mains,
            sides,
            preaggregate,
            inject,
        }));
        Ok(())
    }

    /// A cacheable side-input key of this fop, if any (used for
    /// cache-aware scheduling).
    fn cache_preference(&self, fop: FopId) -> Option<CacheKey> {
        self.job
            .plan
            .in_edges(fop)
            .iter()
            .find(|e| e.slot == InputSlot::Side && e.cache)
            .map(|e| e.src)
    }

    /// The default scheduling policy (§3.2.3): prefer an executor that
    /// caches the task's input; otherwise round-robin over alive
    /// executors with a free task slot. Reserved tasks go to their
    /// pre-assigned receiver.
    fn pick_executor(
        &mut self,
        kind: Placement,
        fop: FopId,
        index: usize,
        cache_pref: Option<CacheKey>,
    ) -> Option<ExecId> {
        if kind == Placement::Reserved {
            if let Some(&e) = self.assigned.get(&(fop, index)) {
                if self.executors.get(&e).map(|i| i.alive) == Some(true)
                    && !self.blacklisted.contains(&e)
                {
                    return Some(e);
                }
            }
            // The assigned receiver died or was blacklisted; fall through
            // to any reserved.
        }
        let slots = self.job.config.slots_per_executor.max(1);
        let candidates: Vec<Candidate> = self
            .executors
            .iter()
            .filter(|(id, e)| {
                e.alive
                    && e.handle.kind == kind
                    && e.busy < slots
                    && !self.blacklisted.contains(id)
                    && !self.drained.contains(id)
            })
            .map(|(&id, e)| Candidate {
                exec: id,
                free_slots: slots - e.busy,
                has_cached_input: cache_pref.map(|k| e.cached.contains(&k)).unwrap_or(false),
            })
            .collect();
        self.policy.pick(
            TaskToPlace {
                fop,
                index,
                cache_pref,
            },
            &candidates,
        )
    }

    /// Routes and packages a task's inputs.
    ///
    /// Main inputs are slots of shared blocks: narrow edges hand the
    /// producer's output block itself to the consumer, and shuffles hand
    /// the consumer its memoized bucket block. Assembling a task clones
    /// zero records (the one record pass per shuffled output happens in
    /// [`Master::routed_bucket`], shared across consumers and relaunches).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Invariant`] when a required input is not
    /// materialized — a scheduler bug (`task_ready` must gate every
    /// launch), surfaced instead of panicking the master.
    #[allow(clippy::type_complexity)]
    fn assemble_inputs(
        &mut self,
        fop: FopId,
        index: usize,
        exec: ExecId,
    ) -> Result<(Vec<MainSlot>, BTreeMap<usize, SideData>, SideStats), RuntimeError> {
        let dst_par = self.parallelism[fop];
        let mut mains: Vec<MainSlot> = Vec::new();
        let mut sides: BTreeMap<usize, SideData> = BTreeMap::new();
        let mut stats = SideStats::default();
        for e in self.job.plan.in_edges(fop) {
            let src_par = self.parallelism[e.src];
            match e.slot {
                InputSlot::Main(_) => {
                    let mut parts: Vec<Block> = Vec::new();
                    for si in required_src_indices(&e, index, src_par, dst_par) {
                        let block = match e.dep {
                            DepType::ManyToMany => self.routed_bucket(e.src, si, dst_par, index),
                            _ => self.outputs.get(&(e.src, si)).map(Arc::clone),
                        };
                        parts.push(block.ok_or_else(|| {
                            RuntimeError::Invariant(format!(
                                "task {fop}.{index} launched before input {}.{si} was ready",
                                e.src
                            ))
                        })?);
                    }
                    mains.push(MainSlot::from_blocks(parts));
                }
                InputSlot::Side => {
                    let records = self.side_records(e.src, src_par);
                    let bytes = block_bytes(&records);
                    let key = e.cache.then_some(e.src);
                    let expect_cached = key
                        .map(|k| self.executors[&exec].cached.contains(&k))
                        .unwrap_or(false);
                    if expect_cached {
                        stats.saved += bytes;
                    } else {
                        stats.sent += bytes;
                        if key.is_some() {
                            stats.misses += 1;
                        }
                    }
                    sides.insert(
                        e.member,
                        SideData {
                            key,
                            records,
                            expect_cached,
                        },
                    );
                }
            }
        }
        Ok((mains, sides, stats))
    }

    /// The shuffle bucket `dst_index` of output `(src, si)` hashed to
    /// `dst_par` consumers, routing (one record pass, the only record
    /// clones in the data plane) at most once per output.
    fn routed_bucket(
        &mut self,
        src: FopId,
        si: usize,
        dst_par: usize,
        dst_index: usize,
    ) -> Option<Block> {
        let key = (src, si, dst_par);
        if !self.routed.contains_key(&key) {
            let records = self.outputs.get(&(src, si))?;
            // An eager (pool-computed) result is only trusted when it was
            // routed from the exact block that is still the live output:
            // a revert-and-recommit in between leaves a stale entry whose
            // source pointer no longer matches, and the lazy path below
            // recomputes from the fresh block.
            let eager = self
                .pool
                .as_ref()
                .and_then(|_| self.eager_routed.lock().remove(&key));
            let buckets = match eager {
                Some((source, buckets)) if Arc::ptr_eq(&source, records) => buckets,
                _ => route(records, DepType::ManyToMany, si, dst_par),
            };
            self.routed.insert(key, buckets);
        }
        self.routed
            .get(&key)
            .and_then(|buckets| buckets.get(dst_index))
            .map(Arc::clone)
    }

    /// Submits the hash-shuffle routing of a freshly committed output to
    /// the worker pool (threaded backend only), so the record pass runs
    /// in parallel with other producers instead of serially inside the
    /// master at consumer-launch time. Best-effort: a full pool queue
    /// skips the submission and [`Master::routed_bucket`] routes lazily.
    fn submit_eager_routing(&mut self, fop: FopId, index: usize) {
        if !self.eager_routing {
            return;
        }
        let Some(pool) = &self.pool else { return };
        let Some(records) = self.outputs.get(&(fop, index)) else {
            return;
        };
        let mut submitted: HashSet<usize> = HashSet::new();
        for e in self.job.plan.out_edges(fop) {
            if e.dep != DepType::ManyToMany || !matches!(e.slot, InputSlot::Main(_)) {
                continue;
            }
            let dst_par = self.parallelism[e.dst];
            if self.routed.contains_key(&(fop, index, dst_par)) || !submitted.insert(dst_par) {
                continue;
            }
            let records = Arc::clone(records);
            let map = Arc::clone(&self.eager_routed);
            pool.try_submit(Box::new(move || {
                let buckets = route(&records, DepType::ManyToMany, index, dst_par);
                map.lock().insert((fop, index, dst_par), (records, buckets));
            }));
        }
    }

    /// Drops everything derived from output `(fop, index)` — shuffle
    /// buckets and broadcast concatenations — when that output is reverted
    /// or replaced, and releases the unpinned store residency of the
    /// output and its routed buckets on every executor (a pinned copy is
    /// left for its running attempt to finish with).
    fn invalidate_derived(&mut self, fop: FopId, index: usize) {
        let bucket_pars: Vec<usize> = self
            .routed
            .keys()
            .filter(|&&(f, i, _)| f == fop && i == index)
            .map(|&(_, _, p)| p)
            .collect();
        self.routed.retain(|&(f, i, _), _| f != fop || i != index);
        if self.pool.is_some() {
            // Pending eager results for the replaced output are stale
            // (the source-pointer check would reject them anyway; this
            // just frees them early).
            self.eager_routed
                .lock()
                .retain(|&(f, i, _), _| f != fop || i != index);
        }
        self.side_cache.remove(&fop);
        for info in self.executors.values() {
            let mut s = info.store.lock();
            s.remove_unpinned(BlockRef::Output { fop, index });
            for &dst_par in &bucket_pars {
                for dst in 0..dst_par {
                    s.remove_unpinned(BlockRef::Bucket {
                        fop,
                        index,
                        dst_par,
                        dst,
                    });
                }
            }
        }
    }

    /// The full broadcast dataset of a producer fop, as one shared block.
    /// Single-part producers share their output block outright; multi-part
    /// concatenations are built once and memoized.
    fn side_records(&mut self, src: FopId, src_par: usize) -> Block {
        if src_par == 1 {
            if let Some(r) = self.outputs.get(&(src, 0)) {
                return Arc::clone(r);
            }
        }
        if let Some(b) = self.side_cache.get(&src) {
            return Arc::clone(b);
        }
        let mut all = Vec::new();
        for si in 0..src_par {
            if let Some(r) = self.outputs.get(&(src, si)) {
                all.extend(r.iter().cloned());
            }
        }
        let block = block_from_vec(all);
        self.side_cache.insert(src, Arc::clone(&block));
        block
    }

    fn collect_result(&self) -> JobResult {
        let mut outputs: BTreeMap<String, Vec<Value>> = BTreeMap::new();
        for ((fop, _idx), records) in &self.result_parts {
            let name = self
                .job
                .dag
                .op(self.job.plan.fops[*fop].tail())
                .name
                .clone();
            outputs
                .entry(name)
                .or_default()
                .extend(records.iter().cloned());
        }
        let journal = self.frozen_journal();
        let metrics = self.snapshot_metrics(&journal);
        JobResult {
            outputs,
            metrics,
            journal,
        }
    }

    fn shutdown(&mut self) {
        for (_, info) in std::mem::take(&mut self.executors) {
            info.handle.stop();
            info.handle.join();
        }
        // Threaded backend: joining executors only joins their control
        // threads — task bodies run on the shared pool. Wait for it to
        // drain so every straggling journal emission (e.g. a loser
        // attempt's TaskStarted) lands before the journal freezes.
        let in_flight = match &self.pool {
            Some(pool) => {
                pool.wait_quiesce(Duration::from_secs(10));
                pool.in_flight()
            }
            None => 0,
        };
        // Every run — clean, aborted, or stalled — records the pool
        // quiesce outcome; law 11 requires the count to be zero, and
        // requires this marker after any abort marker.
        self.journal
            .emit(None, JobEvent::PoolQuiesced { in_flight });
    }

    /// A clone of the live journal writer handle: the threaded backend's
    /// supervisor samples progress through it and captures the event
    /// tail into stall diagnostics.
    pub fn journal_handle(&self) -> Journal {
        self.journal.clone()
    }

    /// The cooperative cancellation token this master observes.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }
}

/// Which producer task indices a consumer task needs along an edge.
pub fn required_src_indices(
    edge: &PlanEdge,
    dst_index: usize,
    src_par: usize,
    dst_par: usize,
) -> Vec<usize> {
    match edge.dep {
        DepType::OneToOne => {
            if dst_index < src_par {
                vec![dst_index]
            } else {
                Vec::new()
            }
        }
        DepType::OneToMany | DepType::ManyToMany => (0..src_par).collect(),
        DepType::ManyToOne => (0..src_par)
            .filter(|si| si % dst_par.max(1) == dst_index)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::InputSlot;

    fn edge(dep: DepType) -> PlanEdge {
        PlanEdge {
            src: 0,
            dst: 1,
            dep,
            slot: InputSlot::Main(0),
            cache: false,
            cross_stage: false,
            member: 0,
        }
    }

    #[test]
    fn required_indices_one_to_one() {
        assert_eq!(
            required_src_indices(&edge(DepType::OneToOne), 2, 4, 4),
            vec![2]
        );
        assert!(required_src_indices(&edge(DepType::OneToOne), 5, 4, 8).is_empty());
    }

    #[test]
    fn required_indices_wide_edges_need_all() {
        assert_eq!(
            required_src_indices(&edge(DepType::ManyToMany), 0, 3, 2),
            vec![0, 1, 2]
        );
        assert_eq!(
            required_src_indices(&edge(DepType::OneToMany), 1, 2, 5),
            vec![0, 1]
        );
    }

    #[test]
    fn required_indices_many_to_one_partitions_by_modulo() {
        assert_eq!(
            required_src_indices(&edge(DepType::ManyToOne), 0, 5, 2),
            vec![0, 2, 4]
        );
        assert_eq!(
            required_src_indices(&edge(DepType::ManyToOne), 1, 5, 2),
            vec![1, 3]
        );
    }

    // --- Evict/commit race regression tests ---
    //
    // These drive the master's private `handle` directly, manufacturing
    // the in-flight attempt state, because the end-to-end path cannot
    // deterministically order an eviction against an in-flight TaskDone
    // (the chaos suites cover the stochastic orderings).

    fn test_master() -> Master {
        use pado_dag::{Pipeline, SourceFn};
        let p = Pipeline::new();
        p.read("R", 1, SourceFn::from_vec(vec![Value::from(1i64)]))
            .sink("S");
        let dag = p.build().unwrap();
        let plan = crate::compiler::compile(&dag).unwrap();
        let job = Arc::new(JobContext {
            dag,
            plan,
            config: crate::runtime::RuntimeConfig::default(),
        });
        Master::new(job, 1, 1, FaultPlan::default())
            .expect("wal-less master creation is infallible")
    }

    /// The canonical event log, frozen from the live journal.
    fn events(m: &Master) -> Vec<JobEvent> {
        m.frozen_journal().to_events()
    }

    /// The journal-derived metrics, as `run()` would report them.
    fn derived(m: &Master) -> JobMetrics {
        let journal = m.frozen_journal();
        m.snapshot_metrics(&journal)
    }

    /// A fop with no consumers (its output goes to the job sink).
    fn terminal_fop(m: &Master) -> FopId {
        (0..m.job.plan.fops.len())
            .find(|&f| m.job.plan.out_edges(f).is_empty())
            .expect("plan has a terminal fop")
    }

    fn done_msg(exec: ExecId, attempt: AttemptId) -> MasterMsg {
        MasterMsg::TaskDone {
            exec,
            attempt,
            output: block_from_vec(vec![Value::from(1i64)]),
            preaggregated: 0,
            cache_hit: false,
            cached_keys: Vec::new(),
        }
    }

    #[test]
    fn task_done_after_evict_is_discarded_consistently() {
        let mut m = test_master();
        let f = terminal_fop(&m);
        let exec: ExecId = 1; // Spawn order is reserved-first: 1 is transient.
        m.tasks[f][0] = TaskState::Running {
            attempts: vec![(7, exec)],
        };
        m.attempt_of.insert(7, (f, 0));
        m.executors.get_mut(&exec).unwrap().busy = 1;

        m.handle(MasterMsg::Evict { exec }).unwrap();
        assert!(
            matches!(m.tasks[f][0], TaskState::Pending),
            "eviction reverts the in-flight attempt"
        );
        assert_eq!(derived(&m).evictions, 1);

        // The TaskDone the evicted executor had in flight lands late: it
        // must be a complete no-op — no panic, no commit, no resurrected
        // task state, relaunch bookkeeping untouched.
        let commits_before = events(&m)
            .iter()
            .filter(|e| matches!(e, JobEvent::TaskCommitted { .. }))
            .count();
        m.handle(done_msg(exec, 7)).unwrap();
        assert!(matches!(m.tasks[f][0], TaskState::Pending));
        assert!(m.outputs.is_empty());
        let commits_after = events(&m)
            .iter()
            .filter(|e| matches!(e, JobEvent::TaskCommitted { .. }))
            .count();
        assert_eq!(commits_before, commits_after, "no post-evict commit");
        m.shutdown();
    }

    #[test]
    fn evict_after_task_done_keeps_committed_terminal_output() {
        let mut m = test_master();
        let f = terminal_fop(&m);
        let exec: ExecId = 1;
        m.tasks[f][0] = TaskState::Running {
            attempts: vec![(7, exec)],
        };
        m.attempt_of.insert(7, (f, 0));
        m.executors.get_mut(&exec).unwrap().busy = 1;

        m.handle(done_msg(exec, 7)).unwrap();
        assert!(matches!(m.tasks[f][0], TaskState::Done { .. }));
        assert_eq!(m.executors[&exec].busy, 0);

        // The other ordering: eviction lands after the commit. Terminal
        // outputs live in the job sink, so the task must stay Done (no
        // revert, no relaunch) even though its only executor location died.
        m.handle(MasterMsg::Evict { exec }).unwrap();
        assert!(
            matches!(m.tasks[f][0], TaskState::Done { .. }),
            "committed terminal output survives the eviction"
        );
        assert!(!events(&m)
            .iter()
            .any(|e| matches!(e, JobEvent::TaskReverted { .. })));
        m.shutdown();
    }

    #[test]
    fn duplicate_task_done_is_idempotent() {
        let mut m = test_master();
        let f = terminal_fop(&m);
        let exec: ExecId = 1;
        m.tasks[f][0] = TaskState::Running {
            attempts: vec![(7, exec)],
        };
        m.attempt_of.insert(7, (f, 0));
        // Two busy slots: a duplicate delivery must not free the second.
        m.executors.get_mut(&exec).unwrap().busy = 2;

        m.handle(done_msg(exec, 7)).unwrap();
        m.handle(done_msg(exec, 7)).unwrap();
        assert_eq!(
            m.executors[&exec].busy, 1,
            "duplicate TaskDone must not double-free a busy slot"
        );
        let commits = events(&m)
            .iter()
            .filter(|e| matches!(e, JobEvent::TaskCommitted { .. }))
            .count();
        assert_eq!(commits, 1, "first-commit-wins under duplicate delivery");
        m.shutdown();
    }

    #[test]
    fn duplicate_task_failed_charges_budget_once() {
        let mut m = test_master();
        let f = terminal_fop(&m);
        let exec: ExecId = 1;
        m.tasks[f][0] = TaskState::Running {
            attempts: vec![(9, exec)],
        };
        m.attempt_of.insert(9, (f, 0));
        m.executors.get_mut(&exec).unwrap().busy = 2;

        let fail = |m: &mut Master| {
            m.handle(MasterMsg::TaskFailed {
                exec,
                attempt: 9,
                reason: "injected".into(),
            })
            .unwrap()
        };
        fail(&mut m);
        fail(&mut m);
        assert_eq!(derived(&m).task_failures, 1, "one failure, not two");
        assert_eq!(m.task_failure_counts[&(f, 0)], 1, "retry charged once");
        assert_eq!(m.executors[&exec].busy, 1);
        m.shutdown();
    }

    // --- Reconfiguration transaction tests ---

    #[test]
    fn quiesced_reconfig_commits_and_advances_the_epoch() {
        let mut m = test_master();
        let f = terminal_fop(&m);
        let before = m.placement[f];
        let id = m.request_reconfig(
            ReconfigChange::MigrateStage {
                stage: m.meta.stage_of[f],
                to: Placement::Reserved,
            }
            .into(),
            ReconfigTrigger::Api,
        );
        assert!(m.reconfig.is_some(), "transaction opened");
        // Nothing is running, so the very next pump quiesces and commits.
        m.pump_reconfig();
        assert!(m.reconfig.is_none(), "transaction resolved");
        assert_eq!(m.epoch.load(Ordering::Relaxed), 1);
        assert_eq!(m.placement[f], Placement::Reserved);
        assert_ne!(
            before,
            Placement::Reserved,
            "the migration changed something"
        );
        let evs = events(&m);
        let prepared = evs
            .iter()
            .position(
                |e| matches!(e, JobEvent::ReconfigPrepared { reconfig, .. } if *reconfig == id),
            )
            .expect("ReconfigPrepared journaled");
        let advanced = evs
            .iter()
            .position(|e| matches!(e, JobEvent::EpochAdvanced { epoch: 1 }))
            .expect("EpochAdvanced journaled");
        let committed = evs
            .iter()
            .position(
                |e| matches!(e, JobEvent::ReconfigCommitted { reconfig, epoch: 1, .. } if *reconfig == id),
            )
            .expect("ReconfigCommitted journaled");
        assert!(
            prepared < advanced && advanced < committed,
            "prepare, epoch advance, and commit journal in order: {evs:?}"
        );
        let d = derived(&m);
        assert_eq!(d.reconfigs_committed, 1);
        assert_eq!(d.final_epoch, 1);
        m.shutdown();
    }

    #[test]
    fn eviction_mid_prepare_aborts_and_rolls_back() {
        let mut m = test_master();
        let f = terminal_fop(&m);
        let exec: ExecId = 1; // Transient (reserved spawn first).
        m.tasks[f][0] = TaskState::Running {
            attempts: vec![(7, exec)],
        };
        m.attempt_of.insert(7, (f, 0));
        m.executors.get_mut(&exec).unwrap().busy = 1;
        let before = m.placement.clone();

        let id = m.request_reconfig(
            ReconfigChange::MigrateStage {
                stage: m.meta.stage_of[f],
                to: Placement::Reserved,
            }
            .into(),
            ReconfigTrigger::Api,
        );
        // One attempt in flight: the pump must keep waiting, not commit.
        m.pump_reconfig();
        assert!(m.reconfig.is_some(), "prepare waits for the quiesce");

        // The eviction lands mid-prepare: the transaction rolls back and
        // the old placement stays runnable.
        m.handle(MasterMsg::Evict { exec }).unwrap();
        assert!(m.reconfig.is_none(), "transaction aborted");
        assert_eq!(m.epoch.load(Ordering::Relaxed), 0, "no epoch advance");
        assert_eq!(m.placement, before, "rollback left the placement alone");
        assert!(
            matches!(m.tasks[f][0], TaskState::Pending),
            "the reverted task is still runnable under the old placement"
        );
        let evs = events(&m);
        assert!(evs
            .iter()
            .any(|e| matches!(e, JobEvent::ReconfigAborted { reconfig, .. } if *reconfig == id)));
        assert!(!evs
            .iter()
            .any(|e| matches!(e, JobEvent::EpochAdvanced { .. })));
        let d = derived(&m);
        assert_eq!(d.reconfigs_aborted, 1);
        assert_eq!(d.final_epoch, 0);
        m.shutdown();
    }

    #[test]
    fn concurrent_reconfig_requests_are_rejected() {
        let mut m = test_master();
        let f = terminal_fop(&m);
        let stage = m.meta.stage_of[f];
        // Hold the first transaction open with a manufactured running attempt.
        m.tasks[f][0] = TaskState::Running {
            attempts: vec![(7, 1)],
        };
        m.attempt_of.insert(7, (f, 0));
        let change = ReconfigChange::MigrateStage {
            stage,
            to: Placement::Reserved,
        };
        let first = m.request_reconfig(change.into(), ReconfigTrigger::Api);
        let second = m.request_reconfig(change.into(), ReconfigTrigger::Api);
        assert_ne!(first, second);
        let evs = events(&m);
        assert!(evs.iter().any(
            |e| matches!(e, JobEvent::ReconfigAborted { reconfig, reason } if *reconfig == second
                && reason.contains("already in flight"))
        ));
        assert!(m.reconfig.is_some_and(|t| t.id == first));
        m.shutdown();
    }

    // --- Clock-abstraction regression test (timer-order sensitivity) ---
    //
    // Every master timer (speculation, heartbeats, deferred pushes,
    // reconfig deadlines) must read `self.clock`, never wall time
    // directly: the threaded backend shares the implementation, and a
    // stray `Instant::now()` would make timer order depend on host
    // scheduling. Driving speculation off a manual clock — no sleeps —
    // proves the timer path is fully clock-routed.

    #[test]
    fn speculation_timer_fires_on_clock_advance_not_wall_time() {
        let mut m = test_master();
        m.clock = Clock::manual();
        let f = terminal_fop(&m);
        // Run the straggler on the kind the fop is NOT placed on, so the
        // single executor of the placed kind is free to host the
        // duplicate (the picker skips the straggler's own executor).
        let exec: ExecId = if m.placement[f] == Placement::Reserved {
            1
        } else {
            0
        };
        m.tasks[f][0] = TaskState::Running {
            attempts: vec![(7, exec)],
        };
        m.attempt_of.insert(7, (f, 0));
        m.executors.get_mut(&exec).unwrap().busy = 1;
        m.launch_times.insert(7, m.clock.now());
        // Median 10ms × 3.0 multiplier, floored to speculation_floor_ms
        // (200ms): the attempt becomes a straggler only past 200ms.
        m.fop_durations[f] = vec![10, 10, 10];

        m.maybe_speculate().unwrap();
        assert!(
            !events(&m)
                .iter()
                .any(|e| matches!(e, JobEvent::SpeculativeLaunched { .. })),
            "no virtual time has passed: the attempt is not yet a straggler"
        );

        m.clock.advance_ms(201);
        m.maybe_speculate().unwrap();
        assert!(
            events(&m)
                .iter()
                .any(|e| matches!(e, JobEvent::SpeculativeLaunched { .. })),
            "advancing the manual clock past the threshold must trigger \
             the speculative duplicate without any wall-clock waiting"
        );
        m.shutdown();
    }
}
