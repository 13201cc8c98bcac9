//! The three paper workloads as the benchmark runs them: inputs from
//! the `pado-workloads` generators, the cluster shape, the fault
//! scenario, and the per-job output check against each workload's
//! single-threaded reference.

use std::collections::BTreeMap;
use std::path::Path;

use pado_core::runtime::{BackendKind, FaultPlan, LocalCluster, RuntimeConfig};
use pado_dag::{LogicalDag, Value};
use pado_workloads::{als, mlr, mr, AlsConfig, MlrConfig, MrConfig};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["mr-pageviews", "mlr-iterative", "als-transient"];

/// Cluster shape shared by every workload: 4 transient and 2 reserved
/// executors with 2 slots each, on a 2-worker threaded pool (the core
/// count of the host the figures in `CHANGES.md` were taken on).
const TRANSIENT: usize = 4;
const RESERVED: usize = 2;
const SLOTS: usize = 2;
/// Worker threads of the threaded backend's pool.
pub const THREADED_WORKERS: usize = 2;

/// Transient evictions injected into every `als-transient` job.
const ALS_EVICTIONS: usize = 10;
/// Absolute tolerance for the floating-point workloads' outputs.
const FLOAT_TOL: f64 = 1e-9;

#[derive(Debug, Clone)]
enum Spec {
    /// Shuffle-heavy: string parsing, keyed combine, hash shuffle.
    Mr(MrConfig),
    /// Broadcast-heavy: hundreds of small tasks around a cached model.
    Mlr(MlrConfig),
    /// Transient scenario: evictions, a store budget, and a WAL.
    Als {
        cfg: AlsConfig,
        /// Per-executor store budget in bytes.
        budget: usize,
        /// Completion count past which no eviction is scheduled.
        eviction_horizon: u64,
    },
}

/// The single-threaded reference output of a workload.
#[derive(Debug, Clone)]
pub enum Reference {
    /// Total views per page.
    Mr(BTreeMap<String, i64>),
    /// The final model.
    Mlr(Vec<f64>),
    /// The final item factors.
    Als(BTreeMap<i64, Vec<f64>>),
}

/// One workload at one seed and scale.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The workload's CLI name.
    pub name: &'static str,
    seed: u64,
    spec: Spec,
}

/// SplitMix64: the benchmark's own seed mixer (independent of the
/// engine's, so the program sees only the generated inputs).
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// Builds a workload by name. `smoke` shrinks every input to a size
    /// that runs in milliseconds, for the self-test.
    pub fn new(name: &str, seed: u64, smoke: bool) -> Result<Self, String> {
        let data_seed = mix(seed, 1);
        let (name, spec) = match name {
            "mr-pageviews" => (
                NAMES[0],
                Spec::Mr(if smoke {
                    MrConfig {
                        pages: 200,
                        records: 20_000,
                        partitions: 4,
                        reducers: 2,
                        seed: data_seed,
                    }
                } else {
                    MrConfig {
                        pages: 5_000,
                        records: 2_000_000,
                        partitions: 16,
                        reducers: 8,
                        seed: data_seed,
                    }
                }),
            ),
            "mlr-iterative" => (
                NAMES[1],
                Spec::Mlr(if smoke {
                    MlrConfig {
                        samples: 400,
                        features: 8,
                        classes: 3,
                        partitions: 4,
                        iterations: 2,
                        seed: data_seed,
                        ..MlrConfig::default()
                    }
                } else {
                    MlrConfig {
                        samples: 20_000,
                        features: 32,
                        classes: 8,
                        partitions: 16,
                        iterations: 10,
                        seed: data_seed,
                        ..MlrConfig::default()
                    }
                }),
            ),
            "als-transient" => (
                NAMES[2],
                if smoke {
                    // Under half the ~13 KB unconstrained peak, so the
                    // smoke job spills; its largest input pin still fits.
                    Spec::Als {
                        cfg: AlsConfig {
                            users: 40,
                            items: 20,
                            ratings: 600,
                            rank: 4,
                            iterations: 2,
                            partitions: 4,
                            shuffle: 2,
                            seed: data_seed,
                            ..AlsConfig::default()
                        },
                        budget: 5_000,
                        eviction_horizon: 30,
                    }
                } else {
                    // About 90% of the ~535 KB peak store occupancy the
                    // same job reaches on the sim backend with no budget,
                    // so a job spills ~36 blocks. Each spill creates and
                    // deletes a file, and on ext4 without a journal the
                    // cost of creating one grows with the files deleted
                    // in the last one to six minutes; at a quarter of the
                    // peak (~470 spills a job) that history, not the
                    // program, set the job time.
                    Spec::Als {
                        cfg: AlsConfig {
                            users: 800,
                            items: 400,
                            ratings: 20_000,
                            rank: 8,
                            iterations: 4,
                            partitions: 16,
                            shuffle: 8,
                            seed: data_seed,
                            ..AlsConfig::default()
                        },
                        budget: 480_000,
                        eviction_horizon: 200,
                    }
                },
            ),
            other => {
                return Err(format!(
                    "unknown workload {other:?}; expected one of {}",
                    NAMES.join(", ")
                ))
            }
        };
        Ok(Workload { name, seed, spec })
    }

    /// Builds the logical DAG, generating the inputs it embeds.
    pub fn dag(&self) -> LogicalDag {
        match &self.spec {
            Spec::Mr(c) => mr::dag(c),
            Spec::Mlr(c) => mlr::dag(c),
            Spec::Als { cfg, .. } => als::dag(cfg),
        }
    }

    /// Input records one job reads.
    pub fn input_records(&self) -> usize {
        match &self.spec {
            Spec::Mr(c) => c.records,
            Spec::Mlr(c) => c.samples,
            Spec::Als { cfg, .. } => cfg.ratings,
        }
    }

    /// The single-threaded reference result.
    pub fn reference(&self) -> Reference {
        match &self.spec {
            Spec::Mr(c) => Reference::Mr(mr::reference(c)),
            Spec::Mlr(c) => Reference::Mlr(mlr::reference(c)),
            Spec::Als { cfg, .. } => Reference::Als(als::reference(cfg)),
        }
    }

    /// The per-executor store budget (`usize::MAX` = unlimited).
    pub fn budget(&self) -> usize {
        match &self.spec {
            Spec::Als { budget, .. } => *budget,
            _ => usize::MAX,
        }
    }

    /// Whether jobs arm a write-ahead log.
    pub fn uses_wal(&self) -> bool {
        matches!(self.spec, Spec::Als { .. })
    }

    /// The runtime configuration: defaults except the cluster shape and,
    /// for `als-transient`, the store budget (with the cache tier at a
    /// quarter of it, as the dataplane bench sizes it) and the WAL path.
    pub fn config(&self, wal: Option<&Path>) -> RuntimeConfig {
        let mut c = RuntimeConfig {
            slots_per_executor: SLOTS,
            threaded_workers: THREADED_WORKERS,
            ..RuntimeConfig::default()
        };
        let budget = self.budget();
        if budget != usize::MAX {
            c.executor_memory_bytes = budget;
            c.cache_capacity_bytes = c.cache_capacity_bytes.min(budget / 4);
        }
        c.wal_path = wal.map(|p| p.to_string_lossy().into_owned());
        c
    }

    /// The cluster one job runs on.
    pub fn cluster(&self, backend: BackendKind, wal: Option<&Path>) -> LocalCluster {
        LocalCluster::new(TRANSIENT, RESERVED)
            .with_backend(backend)
            .with_config(self.config(wal))
    }

    /// The fault schedule of job number `job`: none for the fault-free
    /// workloads; for `als-transient`, evictions at completion counts
    /// drawn from `(seed, job)`, so each job of a run meets a different
    /// schedule and a run's median averages over schedules.
    pub fn faults(&self, job: u64) -> FaultPlan {
        let Spec::Als {
            eviction_horizon, ..
        } = self.spec
        else {
            return FaultPlan::default();
        };
        let job_seed = mix(self.seed, 0x1000 + job);
        let mut evictions: Vec<(usize, usize)> = (0..ALS_EVICTIONS as u64)
            .map(|i| {
                let h = mix(job_seed, i);
                (
                    1 + (h % eviction_horizon) as usize,
                    ((h >> 32) % TRANSIENT as u64) as usize,
                )
            })
            .collect();
        evictions.sort_unstable();
        FaultPlan {
            evictions,
            ..FaultPlan::default()
        }
    }

    /// Checks one job's outputs against the reference: exactly for MR,
    /// within [`FLOAT_TOL`] for MLR and ALS.
    pub fn check(
        &self,
        reference: &Reference,
        outputs: &BTreeMap<String, Vec<Value>>,
    ) -> Result<(), String> {
        let sink = |name: &str| {
            outputs
                .get(name)
                .ok_or_else(|| format!("{}: sink {name:?} missing", self.name))
        };
        match reference {
            Reference::Mr(want) => {
                let got = mr::result_to_map(sink("Out")?);
                if &got != want {
                    return Err(format!(
                        "{}: {} pages differ from the reference ({} expected)",
                        self.name,
                        diff_count(&got, want),
                        want.len()
                    ));
                }
            }
            Reference::Mlr(want) => {
                let got = sink("Model Out")?
                    .first()
                    .and_then(Value::as_vector)
                    .ok_or_else(|| format!("{}: model output is not a vector", self.name))?;
                close(self.name, "model", got, want)?;
            }
            Reference::Als(want) => {
                let got = als::result_to_map(sink("Factors Out")?);
                if got.len() != want.len() {
                    return Err(format!(
                        "{}: {} item factors, expected {}",
                        self.name,
                        got.len(),
                        want.len()
                    ));
                }
                for ((gi, gf), (wi, wf)) in got.iter().zip(want) {
                    if gi != wi {
                        return Err(format!("{}: item {gi} where {wi} expected", self.name));
                    }
                    close(self.name, &format!("item {gi}"), gf, wf)?;
                }
            }
        }
        Ok(())
    }
}

fn diff_count<K: Ord, V: PartialEq>(a: &BTreeMap<K, V>, b: &BTreeMap<K, V>) -> usize {
    let missing = b.keys().filter(|k| !a.contains_key(k)).count();
    missing + a.iter().filter(|(k, v)| b.get(k) != Some(v)).count()
}

fn close(workload: &str, what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{workload}: {what} has {} values, expected {}",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(want)
        .position(|(g, w)| (g - w).abs() > FLOAT_TOL || g.is_nan() != w.is_nan())
    {
        Some(i) => Err(format!(
            "{workload}: {what}[{i}] = {} but the reference has {}",
            got[i], want[i]
        )),
        None => Ok(()),
    }
}
