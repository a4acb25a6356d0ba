//! The benchmark's three workloads. Each one deploys a cluster through the
//! public `ClusterBuilder`/`Session`/`presets` API, runs one closed batch
//! of jobs, and checks the batch's outputs. Nothing here reaches inside
//! the simulator: host time is read around the API calls, simulated
//! results come from `JobResult` and the engine's `Stats`.

use std::time::Instant;

use accelmr_des::{ActorCost, QueueStats, SimDuration};
use accelmr_dfs::{DfsConfig, NameNode};
use accelmr_hybrid::presets::{self, AesMapper};
use accelmr_hybrid::{AdaptivePiKernel, CellEnvFactory, MixedEnvFactory};
use accelmr_mapred::{
    ChurnSchedule, ClusterBuilder, JobBuilder, JobResult, MrCluster, MrConfig, PreemptionTuning,
    SchedulerPolicy, SumReducer,
};
use accelmr_net::NodeId;

/// A benchmark workload, named as on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 1000-worker terasort under a join/leave wave: fabric-bound.
    TerasortChurn,
    /// 256 Cell nodes encrypting 4 TiB from and back to DFS: feed-bound.
    EncryptFeed,
    /// 1000 half-accelerated workers, 9 Pi jobs from 3 tenants under
    /// fair share with preemption: control-plane-bound.
    PiTenants,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::TerasortChurn,
        Workload::EncryptFeed,
        Workload::PiTenants,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TerasortChurn => "terasort_churn",
            Workload::EncryptFeed => "encrypt_feed",
            Workload::PiTenants => "pi_tenants",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload once. `profile` turns on the engine's per-actor
    /// cost profiling (the traced run).
    pub fn run(self, seed: u64, profile: bool) -> Run {
        match self {
            Workload::TerasortChurn => terasort_churn(seed, profile),
            Workload::EncryptFeed => encrypt_feed(seed, profile),
            Workload::PiTenants => pi_tenants(seed, profile),
        }
    }
}

/// The simulated quantities that must repeat exactly across runs of one
/// workload and seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Events the engine dispatched over the whole run.
    pub events: u64,
    /// First submission to last completion, in simulated nanoseconds.
    pub makespan_ns: u64,
    /// Fabric flows completed.
    pub flows_done: u64,
    /// Task attempts over all jobs.
    pub attempts: u64,
    /// Every job's aggregated key/value output, in submission order.
    pub kv: Vec<Vec<(u64, u64)>>,
}

/// What one run of a workload leaves for the report.
pub struct Run {
    /// Host seconds from `ClusterBuilder::deploy` to the last submission.
    pub setup_s: f64,
    /// Host seconds from the first `Session` call to the end of the run.
    pub wall_s: f64,
    /// Factor that scales this run's host times to the reference machine
    /// speed ([`crate::calibrate`]); 1 until the caller calibrates.
    pub scale: f64,
    /// Jobs submitted.
    pub jobs: usize,
    /// `(job, reason)` for every failed job and every failed output check.
    pub failures: Vec<(String, String)>,
    /// Exact simulated outcome.
    pub fingerprint: Fingerprint,
    /// Engine counters, in name order.
    pub counters: Vec<(&'static str, u64)>,
    /// Event-core counters.
    pub queue: QueueStats,
    /// Per-actor-class host cost; empty unless the run was profiled.
    pub actor_costs: Vec<ActorCost>,
    /// Completed map-task durations over all jobs, sorted (simulated s).
    pub map_task_s: Vec<f64>,
    /// Tasks that completed (maps plus reduces) over all jobs.
    pub tasks_ok: u64,
    /// Occupied slot-seconds over all jobs (simulated).
    pub slot_seconds: f64,
    /// Slot-seconds discarded by preemption over all jobs (simulated).
    pub wasted_slot_seconds: f64,
    /// Record reads served node-locally / remotely, over all jobs.
    pub local_reads: u64,
    /// See `local_reads`.
    pub remote_reads: u64,
}

impl Run {
    /// Jobs that failed or failed an output check.
    pub fn failed_jobs(&self) -> usize {
        let mut names: Vec<&str> = self.failures.iter().map(|(j, _)| j.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    }

    /// Simulated makespan in seconds.
    pub fn makespan_s(&self) -> f64 {
        self.fingerprint.makespan_ns as f64 / 1e9
    }

    /// Reads an engine counter (0 when the run never touched it).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|&&(k, _)| k == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// Host timestamps around one run, plus the simulated outcome, folded
/// into a [`Run`] by [`finish`].
struct Timed {
    setup_started: Instant,
    submitted: Instant,
    session_opened: Instant,
    ended: Instant,
    events: u64,
}

/// Collects a run's results. `jobs` pairs each result with its
/// submission delay; `failures` holds the workload's own output checks.
fn finish(
    cluster: &MrCluster,
    t: Timed,
    jobs: &[(SimDuration, JobResult)],
    mut failures: Vec<(String, String)>,
) -> Run {
    let stats = cluster.sim.stats();
    for (_, r) in jobs.iter().filter(|(_, r)| !r.succeeded) {
        failures.push((r.name.clone(), format!("failed: {:?}", r.error)));
    }
    let makespan = jobs
        .iter()
        .map(|(delay, r)| *delay + r.elapsed)
        .max()
        .unwrap_or(SimDuration::ZERO);
    let mut map_task_s: Vec<f64> = jobs
        .iter()
        .flat_map(|(_, r)| r.task_times.iter().map(|d| d.as_secs_f64()))
        .collect();
    map_task_s.sort_by(f64::total_cmp);
    Run {
        setup_s: (t.submitted - t.setup_started).as_secs_f64(),
        wall_s: (t.ended - t.session_opened).as_secs_f64(),
        scale: 1.0,
        jobs: jobs.len(),
        failures,
        fingerprint: Fingerprint {
            events: t.events,
            makespan_ns: makespan.as_nanos(),
            flows_done: stats.counter("net.flows_done"),
            attempts: jobs.iter().map(|(_, r)| u64::from(r.attempts)).sum(),
            kv: jobs.iter().map(|(_, r)| r.kv.clone()).collect(),
        },
        counters: stats.counters_sorted(),
        queue: stats.queue(),
        actor_costs: stats.actor_costs(),
        map_task_s,
        tasks_ok: jobs
            .iter()
            .map(|(_, r)| u64::from(r.map_tasks + r.reduce_tasks))
            .sum(),
        slot_seconds: jobs.iter().map(|(_, r)| r.slot_seconds).sum(),
        wasted_slot_seconds: jobs.iter().map(|(_, r)| r.wasted_slot_seconds).sum(),
        local_reads: jobs.iter().map(|(_, r)| r.local_reads).sum(),
        remote_reads: jobs.iter().map(|(_, r)| r.remote_reads).sum(),
    }
}

/// Deploys `builder`, with profiling when asked; returns the cluster and
/// the instant set-up started.
fn deploy(builder: ClusterBuilder, profile: bool) -> (MrCluster, Instant) {
    let started = Instant::now();
    let mut cluster = builder.deploy();
    if profile {
        cluster.sim.enable_profiling();
    }
    (cluster, started)
}

/// Ends a run at the last job completion: dispatches what is left at that
/// instant and returns the engine's cumulative event count.
fn events_at_completion(cluster: &mut MrCluster) -> u64 {
    let now = cluster.sim.now();
    cluster.sim.run_until(now).events
}

const TERASORT_WORKERS: usize = 1000;
const TERASORT_BLOCKS: u64 = 6 * 1000;
const BLOCK_BYTES: u64 = 64 << 20;

/// `churn_scale`'s 1k scenario: a replicated terasort while 60 nodes join
/// and every 19th worker leaves over simulated [12 s, 52 s], then a 180 s
/// drain so DFS repair finishes.
fn terasort_churn(seed: u64, profile: bool) -> Run {
    let mr = MrConfig {
        tt_dead_after: SimDuration::from_secs(12),
        max_attempts: 30,
        ..MrConfig::default()
    };
    let dfs = DfsConfig {
        dead_after: SimDuration::from_secs(12),
        ..DfsConfig::default()
    };
    let builder = ClusterBuilder::new()
        .seed(seed)
        .workers(TERASORT_WORKERS)
        .mr(mr)
        .dfs(dfs);
    let (mut cluster, setup_started) = deploy(builder, profile);
    let leaves: Vec<NodeId> = (1..=TERASORT_WORKERS as u32)
        .step_by(19)
        .map(NodeId)
        .collect();
    let input_bytes = TERASORT_BLOCKS * BLOCK_BYTES;

    let session_opened = Instant::now();
    let mut session = cluster.session();
    let joined = session.churn(ChurnSchedule::wave(
        60,
        &leaves,
        SimDuration::from_secs(12),
        SimDuration::from_secs(40),
    ));
    session.submit(
        presets::terasort_replicated("/gray", input_bytes, 64, 3)
            .map_tasks(TERASORT_BLOCKS as usize),
    );
    let submitted = Instant::now();
    let result = session.run();
    let resume = cluster.sim.now();
    let events = cluster
        .sim
        .run_until(resume + SimDuration::from_secs(180))
        .events;
    let ended = Instant::now();

    let mut failures = Vec::new();
    if result.kv != [(0, input_bytes)] {
        failures.push((
            result.name.clone(),
            format!("kv {:?}, expected [(0, {input_bytes})]", result.kv),
        ));
    }
    let under = cluster
        .sim
        .actor_ref::<NameNode>(cluster.dfs.namenode)
        .map(NameNode::under_replicated_blocks);
    if under != Some(0) {
        failures.push((
            result.name.clone(),
            format!("under-replicated blocks after drain: {under:?}"),
        ));
    }
    if !result.dispatch_log.iter().any(|(_, n)| joined.contains(n)) {
        failures.push((
            result.name.clone(),
            "no task dispatched to a joined node".into(),
        ));
    }
    let t = Timed {
        setup_started,
        submitted,
        session_opened,
        ended,
        events,
    };
    finish(&cluster, t, &[(SimDuration::ZERO, result)], failures)
}

const ENCRYPT_WORKERS: usize = 256;
const ENCRYPT_TASKS: usize = 2 * ENCRYPT_WORKERS;
const ENCRYPT_BYTES_PER_TASK: u64 = 8 << 30;

/// The paper's Fig. 4 data path scaled up: Cell mappers on every node
/// encrypt 4 TiB read from DFS (replication 1) and write the ciphertext
/// back (replication 1).
fn encrypt_feed(seed: u64, profile: bool) -> Run {
    let builder = ClusterBuilder::new()
        .seed(seed)
        .workers(ENCRYPT_WORKERS)
        .env(CellEnvFactory::default());
    let (mut cluster, setup_started) = deploy(builder, profile);
    let input_bytes = ENCRYPT_TASKS as u64 * ENCRYPT_BYTES_PER_TASK;

    let session_opened = Instant::now();
    let mut session = cluster.session();
    session.submit(
        presets::encrypt_seeded(AesMapper::Cell, "/plain", input_bytes, seed)
            .map_tasks(ENCRYPT_TASKS),
    );
    let submitted = Instant::now();
    let result = session.run();
    let events = events_at_completion(&mut cluster);
    let ended = Instant::now();

    let mut failures = Vec::new();
    if result.bytes_read != input_bytes || result.bytes_output != input_bytes {
        failures.push((
            result.name.clone(),
            format!(
                "read {} B, wrote {} B, expected {input_bytes} B each",
                result.bytes_read, result.bytes_output
            ),
        ));
    }
    if result.map_tasks as usize != ENCRYPT_TASKS {
        failures.push((
            result.name.clone(),
            format!(
                "{} map tasks succeeded, expected {ENCRYPT_TASKS}",
                result.map_tasks
            ),
        ));
    }
    let t = Timed {
        setup_started,
        submitted,
        session_opened,
        ended,
        events,
    };
    finish(&cluster, t, &[(SimDuration::ZERO, result)], failures)
}

const PI_WORKERS: usize = 1000;
const PI_JOBS: usize = 9;
const PI_TENANTS: usize = 3;
const PI_SAMPLES: u64 = 1_000_000_000_000;
const PI_TASKS: usize = 4000;

/// Nine Pi jobs from three tenants, 20 s apart, on 1000 workers of which
/// half are Cell-accelerated, under fair share with balanced preemption.
fn pi_tenants(seed: u64, profile: bool) -> Run {
    let builder = ClusterBuilder::new()
        .seed(seed)
        .workers(PI_WORKERS)
        .env(MixedEnvFactory::half())
        .mr(MrConfig {
            scheduler: SchedulerPolicy::FairShare,
            preemption: PreemptionTuning::balanced(),
            ..MrConfig::default()
        });
    let (mut cluster, setup_started) = deploy(builder, profile);

    let session_opened = Instant::now();
    let mut session = cluster.session();
    let handles: Vec<_> = (0..PI_JOBS)
        .map(|i| {
            let delay = SimDuration::from_secs(20 * i as u64);
            let job = JobBuilder::new(format!("pi-{i}"))
                .synthetic(PI_SAMPLES)
                .kernel(AdaptivePiKernel::new(seed.wrapping_add(i as u64)))
                .map_tasks(PI_TASKS)
                .rpc_aggregate(SumReducer {
                    cycles_per_byte: 1.0,
                })
                .tenant(format!("tenant-{}", i % PI_TENANTS));
            (delay, session.submit_after(delay, job))
        })
        .collect();
    let submitted = Instant::now();
    session.run_until_complete();
    let events = events_at_completion(&mut cluster);
    let ended = Instant::now();

    let jobs: Vec<(SimDuration, JobResult)> = handles
        .into_iter()
        .map(|(delay, h)| (delay, h.result()))
        .collect();
    let mut failures = Vec::new();
    for (_, r) in &jobs {
        let estimate = presets::pi_estimate(r);
        if !estimate.is_some_and(|pi| (pi - std::f64::consts::PI).abs() <= 1e-4) {
            failures.push((r.name.clone(), format!("Pi estimate {estimate:?}")));
        }
        if r.value(1) != Some(PI_SAMPLES) {
            failures.push((
                r.name.clone(),
                format!("{:?} samples counted, expected {PI_SAMPLES}", r.value(1)),
            ));
        }
    }
    let t = Timed {
        setup_started,
        submitted,
        session_opened,
        ended,
        events,
    };
    finish(&cluster, t, &jobs, failures)
}
