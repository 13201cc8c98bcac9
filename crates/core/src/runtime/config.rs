//! Runtime configuration.

/// Tunables of the in-process Pado runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Task slots (worker threads) per executor (§3.2.3).
    pub slots_per_executor: usize,
    /// Capacity of each executor's task-input cache in bytes (§3.2.7).
    /// The cache lives *inside* the executor store budget, so this must
    /// not exceed `executor_memory_bytes`.
    pub cache_capacity_bytes: usize,
    /// Byte budget of each executor's block store — preserved outputs,
    /// pushed partitions, and the input cache combined. `usize::MAX`
    /// (the default) disables accounting; anything smaller makes the
    /// store spill unpinned blocks to disk under pressure, defers
    /// pushes without headroom, and refuses launches whose inputs
    /// cannot be pinned.
    pub executor_memory_bytes: usize,
    /// Whether transient tasks pre-aggregate their combine-bound outputs
    /// before pushing (task output partial aggregation, §3.2.7).
    pub partial_aggregation: bool,
    /// Milliseconds the master waits for any event before declaring the
    /// job wedged (defensive; never reached in healthy runs).
    pub event_timeout_ms: u64,
    /// Retry budget per task: total attempts (first launch included) a
    /// task may consume through user-code failures before the job fails
    /// terminally with [`crate::RuntimeError::TaskFailed`]. Eviction- and
    /// reserved-failure-driven relaunches do not count against it.
    pub max_task_attempts: usize,
    /// User-code failures on one executor before the master blacklists it
    /// (stops scheduling onto it) and spawns a replacement container.
    pub executor_fault_threshold: usize,
    /// Whether the master launches speculative duplicates of straggling
    /// task attempts (first-commit-wins).
    pub speculation: bool,
    /// An attempt is a straggler when its elapsed time exceeds this
    /// multiple of the fop's median attempt duration.
    pub speculation_multiplier: f64,
    /// Attempts are never speculated before running at least this long,
    /// whatever the median says (guards against duplicating sub-millisecond
    /// tasks whose median rounds to zero).
    pub speculation_floor_ms: u64,
    /// Completed attempt durations required per fop before its median is
    /// trusted for speculation.
    pub speculation_min_samples: usize,
    /// Master scheduling-loop tick in milliseconds: the granularity at
    /// which straggler checks and the wedge timeout are evaluated.
    pub tick_ms: u64,
    /// Milliseconds between executor heartbeats.
    pub heartbeat_interval_ms: u64,
    /// Heartbeat silence after which the master declares an executor dead
    /// and relaunches its uncommitted tasks (its committed blocks stay
    /// served). Must leave room for several retransmission rounds, so a
    /// lossy-but-connected executor is never mistaken for a dead one.
    pub dead_executor_timeout_ms: u64,
    /// Initial retransmission backoff for an unacknowledged control
    /// message, in milliseconds; doubles per retry.
    pub retransmit_base_ms: u64,
    /// Ceiling of the exponential retransmission backoff, in milliseconds.
    pub retransmit_max_ms: u64,
    /// Maximum unacknowledged control messages in flight per link
    /// direction; further sends queue in order behind the window.
    pub transport_inflight_cap: usize,
    /// Receiver-side dedup window: out-of-order sequence numbers tracked
    /// per link direction. Must be at least the in-flight cap, or fresh
    /// messages could evict dedup state for live ones.
    pub transport_dedup_window: usize,
    /// Milliseconds a reconfiguration transaction may spend in its
    /// prepare phase (quiescing in-flight attempts) before it aborts and
    /// rolls back to the old placement.
    pub reconfig_prepare_timeout_ms: u64,
    /// Eviction-storm policy hook: after this many transient evictions
    /// the master requests a reconfiguration migrating the lowest
    /// still-incomplete transient stage to the reserved pool. `0` (the
    /// default) disables the hook.
    pub reconfig_storm_threshold: usize,
    /// Path of the master's durable write-ahead log (master fault
    /// tolerance, §3.2.6). With `None` (the default) a run whose fault
    /// plan can kill the master (`master_failure_after` or `crashes`)
    /// keeps the log in memory, and any other run arms no WAL.
    pub wal_path: Option<String>,
    /// Sync (make durable) the WAL after this many appends. `1` syncs
    /// every frame — the strongest guarantee and the default; larger
    /// values batch, accepting that a crash loses the unsynced suffix.
    pub wal_sync_every: usize,
    /// Append a compacting state snapshot after this many event frames,
    /// bounding the suffix recovery must replay and providing the
    /// fallback target for interior corruption.
    pub wal_snapshot_every: usize,
    /// Worker threads in the threaded backend's shared pool (ignored by
    /// the sim backend, which gives each executor dedicated slot
    /// threads).
    pub threaded_workers: usize,
    /// Capacity of the threaded backend's bounded pool job queue. The
    /// master submits eager routing work with a non-blocking try-send
    /// against this bound; executor task bodies queue behind it.
    pub threaded_channel_capacity: usize,
    /// Wall-clock milliseconds the threaded backend waits for the master
    /// thread before aborting the job (the backstop against a deadlock
    /// in the parallel plumbing). Must exceed `event_timeout_ms` so the
    /// master's own wedge detector always fires first on a merely-idle
    /// job.
    pub threaded_wallclock_timeout_ms: u64,
    /// Whether the threaded backend runs a hang watchdog: a supervisor
    /// thread sampling progress (journal length, pool in-flight count,
    /// outstanding attempts) that cancels a stalled run and surfaces
    /// `RuntimeError::Stalled` with a diagnostics snapshot. Only
    /// meaningful on the threaded backend; rejected on the sim backend
    /// (whose loop is the progress detector already).
    pub stall_watchdog: bool,
    /// Milliseconds between watchdog progress samples. Must stay below
    /// `threaded_wallclock_timeout_ms`, or the wall-clock abort always
    /// fires first and the watchdog's diagnostics never materialize.
    pub stall_sample_interval_ms: u64,
    /// Consecutive no-progress samples (with work outstanding) before
    /// the watchdog declares the run stalled.
    pub stall_samples: u64,
    /// Milliseconds a cancelled run gets to unwind cooperatively —
    /// master loop observing the token, executor control threads
    /// exiting, pool quiescing — before its threads are detached as a
    /// last resort. Also bounds how long the pool's `Drop` joins wedged
    /// workers.
    pub cancel_grace_ms: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            slots_per_executor: 4,
            cache_capacity_bytes: 64 << 20,
            executor_memory_bytes: usize::MAX,
            partial_aggregation: true,
            event_timeout_ms: 30_000,
            max_task_attempts: 4,
            executor_fault_threshold: 3,
            speculation: true,
            speculation_multiplier: 3.0,
            speculation_floor_ms: 200,
            speculation_min_samples: 3,
            tick_ms: 25,
            heartbeat_interval_ms: 50,
            dead_executor_timeout_ms: 1_500,
            retransmit_base_ms: 80,
            retransmit_max_ms: 640,
            transport_inflight_cap: 64,
            transport_dedup_window: 1_024,
            reconfig_prepare_timeout_ms: 1_000,
            reconfig_storm_threshold: 0,
            wal_path: None,
            wal_sync_every: 1,
            wal_snapshot_every: 64,
            threaded_workers: 4,
            threaded_channel_capacity: 256,
            threaded_wallclock_timeout_ms: 60_000,
            stall_watchdog: false,
            stall_sample_interval_ms: 500,
            stall_samples: 6,
            cancel_grace_ms: 2_000,
        }
    }
}

impl RuntimeConfig {
    /// Rejects configurations whose interactions are nonsensical — e.g. a
    /// retransmission backoff that outlives the dead-executor timeout
    /// would declare every executor dead before a single lost message
    /// could be retried. Called by the cluster harness before a job runs.
    pub fn validate(&self) -> Result<(), String> {
        if self.tick_ms == 0 {
            return Err("tick_ms must be at least 1".into());
        }
        if self.tick_ms >= self.event_timeout_ms {
            return Err(format!(
                "tick_ms ({}) must be below event_timeout_ms ({}) or the wedge \
                 timeout never fires",
                self.tick_ms, self.event_timeout_ms
            ));
        }
        if self.transport_dedup_window == 0 {
            return Err("transport_dedup_window must be at least 1".into());
        }
        if self.transport_inflight_cap == 0 {
            return Err("transport_inflight_cap must be at least 1".into());
        }
        if self.transport_inflight_cap > self.transport_dedup_window {
            return Err(format!(
                "transport_inflight_cap ({}) must not exceed transport_dedup_window \
                 ({}): more in-flight messages than dedup slots lets fresh sends \
                 evict dedup state for live ones",
                self.transport_inflight_cap, self.transport_dedup_window
            ));
        }
        if self.retransmit_base_ms == 0 {
            return Err("retransmit_base_ms must be at least 1".into());
        }
        if self.retransmit_base_ms > self.retransmit_max_ms {
            return Err(format!(
                "retransmit_base_ms ({}) must not exceed retransmit_max_ms ({})",
                self.retransmit_base_ms, self.retransmit_max_ms
            ));
        }
        if self.retransmit_base_ms >= self.dead_executor_timeout_ms {
            return Err(format!(
                "retransmit_base_ms ({}) must be below dead_executor_timeout_ms \
                 ({}): a lost message must get at least one retry before its \
                 executor can be declared dead",
                self.retransmit_base_ms, self.dead_executor_timeout_ms
            ));
        }
        if self.executor_memory_bytes == 0 {
            return Err(
                "executor_memory_bytes must be at least 1 (use usize::MAX for \
                        unlimited)"
                    .into(),
            );
        }
        if self.cache_capacity_bytes > self.executor_memory_bytes {
            return Err(format!(
                "cache_capacity_bytes ({}) must not exceed executor_memory_bytes \
                 ({}): the input cache lives inside the executor store budget",
                self.cache_capacity_bytes, self.executor_memory_bytes
            ));
        }
        if self.heartbeat_interval_ms == 0 {
            return Err("heartbeat_interval_ms must be at least 1".into());
        }
        if self.heartbeat_interval_ms >= self.dead_executor_timeout_ms {
            return Err(format!(
                "heartbeat_interval_ms ({}) must be below dead_executor_timeout_ms \
                 ({}) or every executor is declared dead before its first beat",
                self.heartbeat_interval_ms, self.dead_executor_timeout_ms
            ));
        }
        if self.reconfig_prepare_timeout_ms == 0 {
            return Err(
                "reconfig_prepare_timeout_ms must be at least 1: a zero prepare \
                 window aborts every reconfiguration before it can quiesce a \
                 single in-flight attempt"
                    .into(),
            );
        }
        if self.reconfig_prepare_timeout_ms >= self.event_timeout_ms {
            return Err(format!(
                "reconfig_prepare_timeout_ms ({}) must be below event_timeout_ms \
                 ({}): a prepare phase pauses scheduling, so it must resolve \
                 before the wedge detector can mistake it for a stuck job",
                self.reconfig_prepare_timeout_ms, self.event_timeout_ms
            ));
        }
        if self.wal_sync_every == 0 {
            return Err(
                "wal_sync_every must be at least 1: a zero sync interval would \
                 never make any appended frame durable"
                    .into(),
            );
        }
        if self.wal_path.is_some() {
            if self.wal_snapshot_every == 0 {
                return Err(
                    "wal_snapshot_every must be at least 1 when a WAL path is set: \
                     a zero snapshot interval demands a compaction after every \
                     event, which degenerates the log into snapshot spam with no \
                     replayable suffix"
                        .into(),
                );
            }
            if self.wal_sync_every > self.wal_snapshot_every {
                return Err(format!(
                    "wal_sync_every ({}) must not exceed wal_snapshot_every ({}): \
                     batching syncs past a snapshot boundary could make a \
                     compacting snapshot durable before the events it compacts, \
                     leaving the recovery scan a hole the simulated backend \
                     cannot order around",
                    self.wal_sync_every, self.wal_snapshot_every
                ));
            }
            if let Some(p) = &self.wal_path {
                if p.is_empty() {
                    return Err("wal_path must not be an empty string".into());
                }
            }
        }
        if self.threaded_workers == 0 {
            return Err("threaded_workers must be at least 1".into());
        }
        if self.threaded_channel_capacity == 0 {
            return Err("threaded_channel_capacity must be at least 1".into());
        }
        if self.threaded_wallclock_timeout_ms <= self.event_timeout_ms {
            return Err(format!(
                "threaded_wallclock_timeout_ms ({}) must exceed event_timeout_ms \
                 ({}): the wall-clock abort is a deadlock backstop and must never \
                 fire before the master's own wedge detector can report a stuck \
                 job with its diagnostics",
                self.threaded_wallclock_timeout_ms, self.event_timeout_ms
            ));
        }
        if self.cancel_grace_ms == 0 {
            return Err(
                "cancel_grace_ms must be at least 1: a zero grace period detaches \
                 every cancelled run's threads immediately instead of letting \
                 them unwind cooperatively"
                    .into(),
            );
        }
        if self.stall_watchdog {
            if self.stall_sample_interval_ms == 0 {
                return Err("stall_sample_interval_ms must be at least 1 when the \
                            stall watchdog is enabled"
                    .into());
            }
            if self.stall_samples == 0 {
                return Err("stall_samples must be at least 1 when the stall \
                            watchdog is enabled"
                    .into());
            }
            if self.stall_sample_interval_ms >= self.threaded_wallclock_timeout_ms {
                return Err(format!(
                    "stall_sample_interval_ms ({}) must be below \
                     threaded_wallclock_timeout_ms ({}): a watchdog that cannot \
                     complete one sample before the wall-clock abort fires can \
                     never produce its diagnostics",
                    self.stall_sample_interval_ms, self.threaded_wallclock_timeout_ms
                ));
            }
        }
        Ok(())
    }

    /// Validates settings whose sanity depends on the execution backend,
    /// on top of [`RuntimeConfig::validate`]. Called by the cluster
    /// harness once the backend is chosen.
    pub fn validate_for_backend(
        &self,
        backend: crate::runtime::backend::BackendKind,
    ) -> Result<(), String> {
        self.validate()?;
        if self.stall_watchdog && backend == crate::runtime::backend::BackendKind::Sim {
            return Err(
                "stall_watchdog requires the threaded backend: the sim backend \
                 runs the master inline on the caller's thread, where the \
                 master's own wedge detector is the progress watchdog"
                    .into(),
            );
        }
        Ok(())
    }

    /// Validates settings whose sanity depends on the cluster shape, on
    /// top of [`RuntimeConfig::validate`]. Called by the cluster harness
    /// with the total executor count.
    pub fn validate_with_cluster(&self, n_executors: usize) -> Result<(), String> {
        self.validate()?;
        if self.reconfig_storm_threshold > 0 && n_executors < 2 {
            return Err(format!(
                "reconfig_storm_threshold ({}) is set but the cluster has only \
                 {} executor(s): migrating a stage off the transient pool needs \
                 somewhere else to put it",
                self.reconfig_storm_threshold, n_executors
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = RuntimeConfig::default();
        assert!(c.slots_per_executor >= 1);
        assert!(c.cache_capacity_bytes > 0);
        assert!(c.partial_aggregation);
        assert!(c.max_task_attempts >= 1);
        assert!(c.executor_fault_threshold >= 1);
        assert!(c.speculation_multiplier > 1.0);
        assert!(c.tick_ms >= 1);
        // Ticks must subdivide the wedge timeout, or it never fires.
        assert!(c.tick_ms < c.event_timeout_ms);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_tick() {
        let c = RuntimeConfig {
            tick_ms: 0,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("tick_ms"));
    }

    #[test]
    fn validate_rejects_tick_at_or_above_event_timeout() {
        let c = RuntimeConfig {
            tick_ms: 500,
            event_timeout_ms: 500,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("event_timeout_ms"));
    }

    #[test]
    fn validate_rejects_zero_dedup_window() {
        let c = RuntimeConfig {
            transport_dedup_window: 0,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("transport_dedup_window"));
    }

    #[test]
    fn validate_rejects_inflight_cap_beyond_dedup_window() {
        let c = RuntimeConfig {
            transport_inflight_cap: 128,
            transport_dedup_window: 64,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("transport_inflight_cap"));
    }

    #[test]
    fn validate_rejects_backoff_at_or_above_dead_timeout() {
        let c = RuntimeConfig {
            retransmit_base_ms: 2_000,
            retransmit_max_ms: 4_000,
            dead_executor_timeout_ms: 1_500,
            ..RuntimeConfig::default()
        };
        assert!(c
            .validate()
            .unwrap_err()
            .contains("dead_executor_timeout_ms"));
    }

    #[test]
    fn validate_rejects_inverted_backoff_bounds() {
        let c = RuntimeConfig {
            retransmit_base_ms: 100,
            retransmit_max_ms: 50,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("retransmit_max_ms"));
    }

    #[test]
    fn validate_rejects_cache_beyond_executor_budget() {
        let c = RuntimeConfig {
            cache_capacity_bytes: 2 << 20,
            executor_memory_bytes: 1 << 20,
            ..RuntimeConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert!(err.contains("cache_capacity_bytes"));
        assert!(err.contains("executor_memory_bytes"));
    }

    #[test]
    fn validate_rejects_zero_executor_budget() {
        let c = RuntimeConfig {
            executor_memory_bytes: 0,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("executor_memory_bytes"));
    }

    #[test]
    fn validate_rejects_zero_reconfig_prepare_timeout() {
        let c = RuntimeConfig {
            reconfig_prepare_timeout_ms: 0,
            ..RuntimeConfig::default()
        };
        assert!(c
            .validate()
            .unwrap_err()
            .contains("reconfig_prepare_timeout_ms"));
    }

    #[test]
    fn validate_rejects_prepare_timeout_at_or_above_event_timeout() {
        let c = RuntimeConfig {
            reconfig_prepare_timeout_ms: 30_000,
            event_timeout_ms: 30_000,
            ..RuntimeConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert!(err.contains("reconfig_prepare_timeout_ms"));
        assert!(err.contains("event_timeout_ms"));
    }

    #[test]
    fn validate_rejects_storm_threshold_on_single_executor_cluster() {
        let c = RuntimeConfig {
            reconfig_storm_threshold: 2,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().is_ok(), "shape-independent checks still pass");
        let err = c.validate_with_cluster(1).unwrap_err();
        assert!(err.contains("reconfig_storm_threshold"));
        assert!(c.validate_with_cluster(2).is_ok());
    }

    #[test]
    fn validate_rejects_zero_wal_sync_interval() {
        let c = RuntimeConfig {
            wal_sync_every: 0,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("wal_sync_every"));
    }

    #[test]
    fn validate_rejects_zero_wal_snapshot_interval() {
        let c = RuntimeConfig {
            wal_path: Some("/tmp/pado-test.wal".into()),
            wal_snapshot_every: 0,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("wal_snapshot_every"));
        // Without a WAL path the check is skipped; the in-memory log
        // clamps the interval to 1.
        let c = RuntimeConfig {
            wal_snapshot_every: 0,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_sync_interval_beyond_snapshot_interval() {
        let c = RuntimeConfig {
            wal_path: Some("/tmp/pado-test.wal".into()),
            wal_sync_every: 128,
            wal_snapshot_every: 64,
            ..RuntimeConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert!(err.contains("wal_sync_every"));
        assert!(err.contains("wal_snapshot_every"));
    }

    #[test]
    fn validate_rejects_empty_wal_path() {
        let c = RuntimeConfig {
            wal_path: Some(String::new()),
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("wal_path"));
    }

    #[test]
    fn validate_rejects_zero_threaded_workers() {
        let c = RuntimeConfig {
            threaded_workers: 0,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("threaded_workers"));
    }

    #[test]
    fn validate_rejects_zero_threaded_channel_capacity() {
        let c = RuntimeConfig {
            threaded_channel_capacity: 0,
            ..RuntimeConfig::default()
        };
        assert!(c
            .validate()
            .unwrap_err()
            .contains("threaded_channel_capacity"));
    }

    #[test]
    fn validate_rejects_wallclock_timeout_at_or_below_event_timeout() {
        let c = RuntimeConfig {
            threaded_wallclock_timeout_ms: 30_000,
            event_timeout_ms: 30_000,
            ..RuntimeConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert!(err.contains("threaded_wallclock_timeout_ms"));
        assert!(err.contains("event_timeout_ms"));
    }

    #[test]
    fn validate_rejects_zero_cancel_grace() {
        let c = RuntimeConfig {
            cancel_grace_ms: 0,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("cancel_grace_ms"));
    }

    #[test]
    fn validate_rejects_zero_watchdog_knobs_only_when_armed() {
        // Disarmed: zero watchdog knobs are inert and ignored.
        let c = RuntimeConfig {
            stall_sample_interval_ms: 0,
            stall_samples: 0,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().is_ok());
        let c = RuntimeConfig {
            stall_watchdog: true,
            stall_sample_interval_ms: 0,
            ..RuntimeConfig::default()
        };
        assert!(c
            .validate()
            .unwrap_err()
            .contains("stall_sample_interval_ms"));
        let c = RuntimeConfig {
            stall_watchdog: true,
            stall_samples: 0,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("stall_samples"));
    }

    #[test]
    fn validate_rejects_sample_interval_at_or_above_wallclock_timeout() {
        let c = RuntimeConfig {
            stall_watchdog: true,
            stall_sample_interval_ms: 60_000,
            threaded_wallclock_timeout_ms: 60_000,
            ..RuntimeConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert!(err.contains("stall_sample_interval_ms"));
        assert!(err.contains("threaded_wallclock_timeout_ms"));
    }

    #[test]
    fn validate_rejects_watchdog_on_the_sim_backend() {
        use crate::runtime::backend::BackendKind;
        let c = RuntimeConfig {
            stall_watchdog: true,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().is_ok(), "backend-independent checks pass");
        let err = c.validate_for_backend(BackendKind::Sim).unwrap_err();
        assert!(err.contains("stall_watchdog"));
        assert!(c.validate_for_backend(BackendKind::Threaded).is_ok());
    }

    #[test]
    fn validate_rejects_heartbeat_at_or_above_dead_timeout() {
        let c = RuntimeConfig {
            heartbeat_interval_ms: 1_500,
            dead_executor_timeout_ms: 1_500,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("heartbeat_interval_ms"));
    }
}
