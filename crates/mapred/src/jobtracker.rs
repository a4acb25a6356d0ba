//! The JobTracker: job lifecycle, split computation, scheduling, recovery.
//!
//! Faithful to Hadoop 0.19 as the paper ran it: the JobTracker learns about
//! TaskTrackers from their heartbeats, computes splits
//! (`split = FileSize / NumMappers`, records of one DFS block — Figure 3),
//! dispatches tasks *on heartbeats*, detects dead TaskTrackers by
//! heartbeat silence and re-executes their tasks, and optionally launches
//! speculative duplicates of stragglers.
//!
//! Scheduling *decisions* live behind the [`Scheduler`] trait
//! ([`crate::sched`]): the tracker feeds it observations (heartbeats, task
//! starts/completions with durations and work sizes, node deaths) and asks
//! it for split plans, dispatch picks and speculative placements. Dispatch
//! is *two-level*: every free heartbeat slot first asks the cluster
//! scheduler which job deserves it ([`Scheduler::pick_job`] — multi-tenant
//! fair-share and deadline policies decide here), then the picked job's
//! scheduler which of its tasks to run ([`Scheduler::pick_task`]). The
//! cluster-wide policy comes from [`MrConfig::scheduler`]; a job may carry
//! its own ([`JobSpec::scheduler`]), which gets a private scheduler
//! instance for that job's lifetime governing its within-job decisions
//! (job-level picks stay with the cluster scheduler).

use std::collections::VecDeque;

use accelmr_des::prelude::*;
use accelmr_des::{ExpiryHeap, FxHashMap, FxHashSet};
use accelmr_dfs::msgs::{BlockLoc, LocationsReply, PreloadDone};
use accelmr_dfs::DfsHandle;
use accelmr_net::{NetHandle, NodeId};

use crate::config::{JobId, MrConfig, TaskId};
use crate::job::{
    JobError, JobInput, JobResult, JobSpec, OutputSink, ReduceSpec, TaskDescriptor, TaskWork,
};
use crate::msgs::{AssignTask, JobComplete, KillTask, SubmitJob, TaskReport, TtHeartbeat};
use crate::sched::{
    build_scheduler, task_work_size, ReclaimVictim, SchedView, Scheduler, SplitRequest,
    TaskCompletion, TaskLookup, TaskView,
};

const TIMER_LIVENESS: u64 = 0;
const KIND_INIT: u64 = 1;
const KIND_REDUCE_RPC: u64 = 2;
const KIND_FINALIZE: u64 = 3;

#[inline]
fn job_timer_tag(kind: u64, job: JobId) -> u64 {
    (kind << 32) | job.0 as u64
}

#[inline]
fn unpack_job_timer(tag: u64) -> (u64, JobId) {
    (tag >> 32, JobId(tag as u32))
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Initializing,
    WaitingLocations,
    MapRunning,
    ReduceRpc,
    ReduceRunning,
    Finalizing,
    Done,
}

struct TtInfo {
    actor: ActorId,
    last_heartbeat: SimTime,
    dead: bool,
    /// Progressive-blacklist failure score: bumped per failed attempt,
    /// halved every [`MrConfig::blacklist_probation`]. The node is
    /// blacklisted (skipped by dispatch) while the score is at or above
    /// [`MrConfig::blacklist_threshold`].
    fail_score: u32,
}

struct TaskState {
    work: TaskWork,
    /// Nodes holding input replicas (locality scheduling hint).
    hints: Vec<NodeId>,
    attempts: u32,
    completed: bool,
    /// Running attempts: `(attempt, node, started)`.
    running: Vec<(u32, NodeId, SimTime)>,
    /// Node where the successful attempt ran (shuffle source).
    ran_on: Option<NodeId>,
    is_reduce: bool,
}

/// One completed map attempt's output and the aggregate contributions it
/// folded into the job. Keeping the contributions lets the tracker
/// *subtract* them when the output's node dies and the map must re-execute
/// (otherwise re-execution would double-count kv pairs, digests, and byte
/// totals — exactly-once accounting under churn depends on this).
struct MapOutput {
    node: NodeId,
    pairs: u64,
    /// The attempt's kv pairs as a multiset (pair → count): subtraction-
    /// ready, and never larger than the pair list it summarizes.
    kv_counts: FxHashMap<(u64, u64), u64>,
    digest: (u64, u64),
    bytes_read: u64,
    /// Output size: shuffle partitioning input *and* the amount to
    /// subtract from `JobState::bytes_output` on loss.
    bytes_output: u64,
    local_reads: u64,
    remote_reads: u64,
}

struct JobState {
    spec: JobSpec,
    client: (ActorId, NodeId),
    submitted: SimTime,
    phase: Phase,
    tasks: Vec<TaskState>,
    pending: VecDeque<TaskId>,
    map_count: u32,
    reduce_count: u32,
    maps_completed: u32,
    reduces_completed: u32,
    // Aggregation.
    attempts_total: u32,
    failed_attempts: u32,
    speculative_attempts: u32,
    bytes_read: u64,
    bytes_output: u64,
    local_reads: u64,
    remote_reads: u64,
    kv: Vec<(u64, u64)>,
    digest_acc: u64,
    digest_count: u64,
    task_times: Vec<SimDuration>,
    /// Every dispatch, in order: `(task, node)`.
    dispatch_log: Vec<(TaskId, NodeId)>,
    /// Map outputs (and their folded contributions) for the shuffle.
    map_outputs: FxHashMap<TaskId, MapOutput>,
    succeeded: bool,
    /// Typed cause of failure, for [`JobResult::error`].
    error: Option<JobError>,
    /// Last instant the job dispatched or completed an attempt (or was
    /// submitted): the watchdog input. Maintained unconditionally; only
    /// *checked* when [`MrConfig::job_stall_timeout`] is set.
    last_progress: SimTime,
    // Fairness accounting: the integral of concurrently running attempts
    // over time (slot-seconds) and its step timeline. Maintained by
    // `note_share` at every change of the job's occupied-slot count.
    running_now: u32,
    share_last_change: SimTime,
    slot_seconds: f64,
    share_timeline: Vec<(SimTime, u32)>,
    /// Attempts of *this* job killed by preemptive reclamation.
    preempted_attempts: u32,
    /// Victim runtime discarded on this job's behalf (it was the
    /// beneficiary of the kills), already folded into `slot_seconds` —
    /// preemption charges the killing tenant for the work it wasted.
    wasted_slot_seconds: f64,
    /// Incomplete tasks with at least one running attempt, maintained
    /// incrementally at every `running`/`completed` mutation — the
    /// dispatchability input speculation-aware job picks read every free
    /// heartbeat slot (previously an O(tasks) scan per slot).
    running_tasks: u32,
}

impl JobState {
    fn record_bytes(&self) -> u64 {
        match &self.spec.input {
            JobInput::File { record_bytes, .. } => record_bytes.unwrap_or(64 << 20),
            JobInput::Synthetic { .. } => 0,
        }
    }

    /// Records a change of `delta` attempts in the job's occupied-slot
    /// count at `now`: integrates the previous level into `slot_seconds`
    /// and appends to the share timeline (coalescing same-instant steps).
    /// Negative deltas saturate at zero defensively — the call sites only
    /// subtract attempts they actually removed from `running`.
    fn note_share(&mut self, now: SimTime, delta: i64) {
        if delta == 0 {
            return;
        }
        self.slot_seconds +=
            self.running_now as f64 * now.since(self.share_last_change).as_secs_f64();
        self.share_last_change = now;
        self.running_now = (self.running_now as i64 + delta).max(0) as u32;
        match self.share_timeline.last_mut() {
            Some((t, level)) if *t == now => *level = self.running_now,
            _ => self.share_timeline.push((now, self.running_now)),
        }
    }

    /// Whether every map output a shuffle needs is currently available.
    /// Reduce dispatch is held while this is false (a map output was lost
    /// to a node death and its task is re-executing); rebuilt fetches are
    /// only correct against a complete output set. Trivially true for
    /// non-shuffle jobs.
    fn shuffle_ready(&self) -> bool {
        match &self.spec.reduce {
            ReduceSpec::Shuffle { .. } => {
                self.map_count > 0 && self.map_outputs.len() as u32 == self.map_count
            }
            _ => true,
        }
    }

    /// Whether pending reduce entries are currently withheld from dispatch
    /// (the churn-transient "shuffle with lost outputs" state: a reduce
    /// task exists but the output set it would fetch from is incomplete).
    /// The one condition shared by `pick_task`'s eligibility filter and
    /// `pick_job_for`'s view construction — they must never diverge, or a
    /// job the job-level policies see as runnable would decline dispatch.
    fn withholds_reduces(&self) -> bool {
        !self.shuffle_ready() && self.tasks.len() != self.map_count as usize
    }
}

/// The cluster-wide scheduler, running on the head node next to the
/// NameNode (the paper's Power6 JS22 blade).
pub struct JobTracker {
    cfg: MrConfig,
    net: NetHandle,
    dfs: DfsHandle,
    node: NodeId,
    tts: FxHashMap<NodeId, TtInfo>,
    jobs: FxHashMap<u32, JobState>,
    next_job: u32,
    /// The cluster-wide scheduler ([`MrConfig::scheduler`]). Long-lived, so
    /// adaptive policies learn across jobs within a session.
    scheduler: Box<dyn Scheduler>,
    /// Private scheduler instances for jobs carrying their own policy
    /// ([`JobSpec::scheduler`]); removed when the job completes.
    job_scheds: FxHashMap<u32, Box<dyn Scheduler>>,
    /// Epoch-fenced attempts `(job, task, attempt)`: attempts that were
    /// requeued when their node was declared dead. A fenced attempt's
    /// eventual report — from a falsely-declared-dead tracker that kept
    /// running, or one that heartbeats again after a partition heal — is
    /// rejected wholesale, keeping kv/digest accounting exactly-once (the
    /// re-execution's report is the one that counts).
    fenced: FxHashSet<(u32, u32, u32)>,
    /// Next instant the probation sweep halves every blacklist score.
    blacklist_decay_at: SimTime,
    /// Lazily-invalidated deadline heap driving the liveness sweep: one
    /// entry per live TaskTracker, pushed at registration/resurrection
    /// only (heartbeats just move `TtInfo::last_heartbeat`, the
    /// authoritative deadline input). Makes the per-tick sweep cost
    /// proportional to trackers near their deadline instead of O(cluster).
    expiry: ExpiryHeap<NodeId>,
    /// Live (registered, not declared dead) workers, ascending —
    /// maintained at registration, resurrection, and death so
    /// `total_slots`/`live_nodes` stop re-scanning `tts` per decision.
    live: Vec<NodeId>,
}

/// Resolves the scheduler for `job`: its private override if it has one,
/// the cluster default otherwise. A free function over the two fields so
/// callers can keep disjoint borrows of the rest of the tracker.
fn sched_mut<'a>(
    overrides: &'a mut FxHashMap<u32, Box<dyn Scheduler>>,
    default: &'a mut Box<dyn Scheduler>,
    job: u32,
) -> &'a mut dyn Scheduler {
    if overrides.contains_key(&job) {
        overrides.get_mut(&job).expect("checked").as_mut()
    } else {
        default.as_mut()
    }
}

/// Sorted `(node, bytes, pairs)` map-output list plus total pairs — the
/// shuffle partitioning input, shared by initial reduce-task construction
/// and the fetch rebuild at (re-)dispatch.
fn shuffle_outputs(map_outputs: &FxHashMap<TaskId, MapOutput>) -> (Vec<(NodeId, u64, u64)>, u64) {
    let mut outputs: Vec<(NodeId, u64, u64)> = map_outputs
        .values()
        .map(|mo| (mo.node, mo.bytes_output, mo.pairs))
        .collect();
    outputs.sort_unstable_by_key(|&(n, b, p)| (n, b, p));
    let total_pairs: u64 = outputs.iter().map(|&(_, _, p)| p).sum();
    (outputs, total_pairs)
}

/// Reducer `r`'s fetch list: an even share of every map output.
fn reduce_fetches(outputs: &[(NodeId, u64, u64)], reducers: usize, r: usize) -> Vec<(NodeId, u64)> {
    outputs
        .iter()
        .map(|&(node, bytes, _)| {
            let share = bytes / reducers as u64 + u64::from((bytes % reducers as u64) > r as u64);
            (node, share)
        })
        .collect()
}

/// Snapshot of one task for scheduler decisions.
fn task_view(ts: &TaskState) -> TaskView<'_> {
    TaskView {
        hints: &ts.hints,
        is_reduce: ts.is_reduce,
        completed: ts.completed,
        running: &ts.running,
        size: task_work_size(&ts.work),
    }
}

/// Lazy [`TaskLookup`] over the tracker's task table: snapshots are built
/// per probe instead of materializing an O(tasks) `Vec<TaskView>` for
/// every scheduler decision (the dominant per-heartbeat cost at 10k
/// nodes — most decisions touch a handful of tasks or none at all).
struct TaskStateLookup<'a>(&'a [TaskState]);

impl std::fmt::Debug for TaskStateLookup<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TaskStateLookup({} tasks)", self.0.len())
    }
}

impl TaskLookup for TaskStateLookup<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn get(&self, idx: usize) -> TaskView<'_> {
        task_view(&self.0[idx])
    }
}

/// Debug-build invariant check for the incrementally maintained per-job
/// counters the [`SchedView`] aggregates are built from. Compiles to
/// nothing in release builds.
fn debug_check_counters(job: &JobState) {
    debug_assert_eq!(
        job.running_now as usize,
        job.tasks.iter().map(|t| t.running.len()).sum::<usize>(),
        "running_now diverged from the task table"
    );
    debug_assert_eq!(
        job.running_tasks as usize,
        job.tasks
            .iter()
            .filter(|t| !t.completed && !t.running.is_empty())
            .count(),
        "running_tasks diverged from the task table"
    );
}

impl JobTracker {
    /// Builds a JobTracker on `node` (normally the head node).
    pub fn new(cfg: MrConfig, net: NetHandle, dfs: DfsHandle, node: NodeId) -> Self {
        let scheduler = build_scheduler(cfg.scheduler, &cfg);
        JobTracker {
            cfg,
            net,
            dfs,
            node,
            tts: FxHashMap::default(),
            jobs: FxHashMap::default(),
            next_job: 0,
            scheduler,
            job_scheds: FxHashMap::default(),
            fenced: FxHashSet::default(),
            blacklist_decay_at: SimTime::ZERO,
            expiry: ExpiryHeap::new(),
            live: Vec::new(),
        }
    }

    /// Marks `node` live: inserts into the sorted live list (no-op when
    /// already present, e.g. a registration racing a first heartbeat).
    fn note_tt_live(&mut self, node: NodeId) {
        if let Err(pos) = self.live.binary_search(&node) {
            self.live.insert(pos, node);
        }
    }

    /// Removes `node` from the sorted live list.
    fn note_tt_dead(&mut self, node: NodeId) {
        if let Ok(pos) = self.live.binary_search(&node) {
            self.live.remove(pos);
        }
    }

    /// Whether `node` is currently held out of dispatch by the progressive
    /// blacklist. Always `false` with the knob unset (the default).
    fn is_blacklisted(&self, node: NodeId) -> bool {
        match (self.cfg.blacklist_threshold, self.tts.get(&node)) {
            (Some(th), Some(tt)) => tt.fail_score >= th,
            _ => false,
        }
    }

    /// Scores a failed attempt against its node and enters the node into
    /// the blacklist at the threshold. Inert with the knob unset.
    fn note_node_failure(&mut self, ctx: &mut Ctx<'_>, node: NodeId) {
        let Some(th) = self.cfg.blacklist_threshold else {
            return;
        };
        if let Some(tt) = self.tts.get_mut(&node) {
            tt.fail_score += 1;
            if tt.fail_score == th {
                ctx.stats().incr("mr.blacklist_entries");
            }
        }
    }

    /// Probation decay: every [`MrConfig::blacklist_probation`], halve all
    /// failure scores, so a blacklisted node that stops failing drifts
    /// back into service instead of being banned forever. Runs on the
    /// liveness tick; inert with blacklisting unset.
    fn decay_blacklist(&mut self, now: SimTime) {
        if self.cfg.blacklist_threshold.is_none() {
            return;
        }
        if self.blacklist_decay_at == SimTime::ZERO {
            self.blacklist_decay_at = now + self.cfg.blacklist_probation;
            return;
        }
        if now < self.blacklist_decay_at {
            return;
        }
        // Catch up arithmetically: k elapsed probation periods halve every
        // score k times, which is one shift — the old per-period loop
        // walked the whole tracker map once per missed period (quadratic
        // after a long idle gap on a big cluster). A u32 score is zero
        // after 32 halvings, so the shift saturates there.
        let period = self.cfg.blacklist_probation;
        let k = now.since(self.blacklist_decay_at).as_nanos() / period.as_nanos().max(1) + 1;
        let shift = k.min(32) as u32;
        // audit:allow(map-order): per-node score halving is independent per entry; order is unobservable and no events issue here
        for tt in self.tts.values_mut() {
            tt.fail_score >>= shift;
        }
        self.blacklist_decay_at += period * k;
    }

    /// Total live map slots — O(1) off the maintained live list (the old
    /// full-map scan ran at the top of every dispatch decision, turning
    /// each free heartbeat slot into an O(cluster) walk).
    fn total_slots(&self) -> usize {
        self.live.len() * self.cfg.map_slots_per_node
    }

    /// Asks the job's scheduler how to split `total` work items into map
    /// tasks. (`split = FileSize/NumMappers` under the default uniform
    /// plan; adaptive policies may oversplit or weight by node speed.)
    fn plan_splits(&mut self, job_id: JobId, total: u64) -> Option<Vec<u64>> {
        let default_tasks = self.total_slots().max(1);
        let (kernel, requested) = {
            let job = self.jobs.get(&job_id.0)?;
            (job.spec.kernel.name(), job.spec.num_map_tasks)
        };
        let req = SplitRequest {
            job: job_id,
            kernel,
            total,
            requested_tasks: requested,
            default_tasks,
            live_nodes: &self.live,
            slots_per_node: self.cfg.map_slots_per_node,
        };
        let sched = sched_mut(&mut self.job_scheds, &mut self.scheduler, job_id.0);
        Some(sched.plan_splits(&req).split(total))
    }

    /// Builds map tasks for a file job once locations are known.
    fn build_file_tasks(&mut self, job_id: JobId, view: &accelmr_dfs::msgs::FileView) {
        let record_bytes = self
            .jobs
            .get(&job_id.0)
            .map(|j| j.record_bytes().max(1))
            .unwrap_or(1);
        let total_records = view.len.div_ceil(record_bytes);
        // Balanced division of whole records across tasks (the paper's
        // split = FileSize/NumMappers with 64 MB records, under the
        // default plan).
        let Some(counts) = self.plan_splits(job_id, total_records) else {
            return;
        };
        let Some(job) = self.jobs.get_mut(&job_id.0) else {
            return;
        };
        let mut next_record = 0u64;
        for records in counts {
            if records == 0 {
                continue;
            }
            let start = next_record * record_bytes;
            let end = ((next_record + records) * record_bytes).min(view.len);
            next_record += records;
            let blocks: Vec<BlockLoc> = view
                .blocks
                .iter()
                .filter(|b| b.offset < end && b.offset + b.len > start)
                .cloned()
                .collect();
            let mut hints: Vec<NodeId> = Vec::new();
            for b in &blocks {
                for &r in &b.replicas {
                    if !hints.contains(&r) {
                        hints.push(r);
                    }
                }
            }
            let (path, file_seed) = (view.path.clone(), view.seed);
            job.tasks.push(TaskState {
                work: TaskWork::MapRange {
                    path,
                    file_seed,
                    start,
                    end,
                    record_bytes,
                    blocks,
                },
                hints,
                attempts: 0,
                completed: false,
                running: Vec::new(),
                ran_on: None,
                is_reduce: false,
            });
            job.pending.push_back(TaskId(job.tasks.len() as u32 - 1));
        }
        job.map_count = job.tasks.len() as u32;
        job.phase = Phase::MapRunning;
    }

    fn build_synthetic_tasks(&mut self, job_id: JobId, total_units: u64) {
        let Some(counts) = self.plan_splits(job_id, total_units) else {
            return;
        };
        let Some(job) = self.jobs.get_mut(&job_id.0) else {
            return;
        };
        for (i, &units) in counts.iter().enumerate() {
            let i = i as u64;
            job.tasks.push(TaskState {
                work: TaskWork::MapUnits { units, index: i },
                hints: Vec::new(),
                attempts: 0,
                completed: false,
                running: Vec::new(),
                ran_on: None,
                is_reduce: false,
            });
            job.pending.push_back(TaskId(i as u32));
        }
        job.map_count = job.tasks.len() as u32;
        job.phase = Phase::MapRunning;
    }

    /// Picks the next pending task for `node` by asking the job's
    /// scheduler. `None` when the queue is dry — or when the scheduler
    /// holds the node back (adaptive admission control).
    ///
    /// While a shuffle's map outputs are incomplete (a node death forced
    /// map re-execution), reduce tasks are withheld from the scheduler's
    /// view: their fetch lists can only be rebuilt against a complete
    /// output set. In static runs every pending entry is always eligible,
    /// so the scheduler sees exactly the historical view.
    fn pick_task(&mut self, job_id: u32, node: NodeId) -> Option<TaskId> {
        let slots_per_node = self.cfg.map_slots_per_node;
        let cluster_slots = self.total_slots();
        let sched = sched_mut(&mut self.job_scheds, &mut self.scheduler, job_id);
        let job = self.jobs.get_mut(&job_id)?;
        if job.pending.is_empty() {
            return None;
        }
        // Fast path whenever every pending entry is eligible: the output
        // set is complete, or no reduce task even exists yet (the whole
        // map phase) — only the churn-transient "shuffle with lost
        // outputs" state pays for filtering.
        if !job.withholds_reduces() {
            debug_check_counters(job);
            let idx = {
                let tasks = TaskStateLookup(&job.tasks);
                let view = SchedView {
                    job: JobId(job_id),
                    kernel: job.spec.kernel.name(),
                    tenant: &job.spec.tenant,
                    weight: job.spec.weight,
                    deadline: job.spec.deadline,
                    submitted: job.submitted,
                    eligible: true,
                    cluster_slots,
                    pending: job.pending.make_contiguous(),
                    tasks: &tasks,
                    running_slots: job.running_now as usize,
                    running_incomplete: job.running_tasks as usize,
                    completed_task_times: &job.task_times,
                    slots_per_node,
                };
                sched.pick_task(&view, node)?
            };
            return job.pending.remove(idx);
        }
        let eligible: Vec<usize> = job
            .pending
            .iter()
            .enumerate()
            .filter(|&(_, tid)| !job.tasks[tid.0 as usize].is_reduce)
            .map(|(i, _)| i)
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let pending_view: Vec<TaskId> = eligible.iter().map(|&i| job.pending[i]).collect();
        let idx = {
            let tasks = TaskStateLookup(&job.tasks);
            let view = SchedView {
                job: JobId(job_id),
                kernel: job.spec.kernel.name(),
                tenant: &job.spec.tenant,
                weight: job.spec.weight,
                deadline: job.spec.deadline,
                submitted: job.submitted,
                eligible: true,
                cluster_slots,
                pending: &pending_view,
                tasks: &tasks,
                running_slots: job.running_now as usize,
                running_incomplete: job.running_tasks as usize,
                completed_task_times: &job.task_times,
                slots_per_node,
            };
            sched.pick_task(&view, node)?
        };
        job.pending.remove(eligible[idx])
    }

    fn assign(&mut self, ctx: &mut Ctx<'_>, job_id: u32, task: TaskId, node: NodeId) {
        let Some(tt) = self.tts.get(&node) else {
            return;
        };
        let tt_actor = tt.actor;
        let Some(job) = self.jobs.get_mut(&job_id) else {
            return;
        };
        // Reduce fetch lists are rebuilt from the *current* map outputs at
        // every dispatch: after churn, a re-executed map's output lives on
        // a different node than when the reduce task was first planned.
        // Dispatch is gated on `shuffle_ready`, so the set is complete.
        if job.tasks[task.0 as usize].is_reduce && job.shuffle_ready() {
            let reducers = job.reduce_count as usize;
            let r = (task.0 - job.map_count) as usize;
            let (outputs, total_pairs) = shuffle_outputs(&job.map_outputs);
            if let TaskWork::Reduce { fetches, pairs, .. } = &mut job.tasks[task.0 as usize].work {
                *fetches = reduce_fetches(&outputs, reducers, r);
                *pairs = total_pairs / reducers as u64;
            }
        }
        let ts = &mut job.tasks[task.0 as usize];
        ts.attempts += 1;
        job.attempts_total += 1;
        let attempt = ts.attempts;
        let was_active = !ts.completed && !ts.running.is_empty();
        ts.running.push((attempt, node, ctx.now()));
        if !ts.completed && !was_active {
            job.running_tasks += 1;
        }
        job.dispatch_log.push((task, node));
        let reduce_merge_time = if ts.is_reduce {
            match (&job.spec.reduce, &ts.work) {
                (ReduceSpec::Shuffle { reducer, .. }, TaskWork::Reduce { fetches, pairs, .. }) => {
                    let bytes: u64 = fetches.iter().map(|&(_, b)| b).sum();
                    Some(reducer.reduce_time(bytes, *pairs))
                }
                _ => None,
            }
        } else {
            None
        };
        let output = if ts.is_reduce {
            match &ts.work {
                TaskWork::Reduce {
                    write_output: true,
                    output_path,
                    ..
                } => OutputSink::Dfs {
                    path: output_path.clone(),
                    replication: None,
                },
                _ => OutputSink::Discard,
            }
        } else {
            job.spec.output.clone()
        };
        let descriptor = TaskDescriptor {
            job: JobId(job_id),
            task,
            attempt,
            work: ts.work.clone(),
            kernel: job.spec.kernel.clone(),
            output,
            reduce_merge_time,
        };
        job.note_share(ctx.now(), 1);
        job.last_progress = ctx.now();
        ctx.stats().incr("mr.assignments");
        let now = ctx.now();
        let has_override = self.job_scheds.contains_key(&job_id);
        let sched = sched_mut(&mut self.job_scheds, &mut self.scheduler, job_id);
        sched.on_task_started(JobId(job_id), task, node, now);
        if has_override {
            // The cluster scheduler owns job-level decisions for *every*
            // job, so it observes starts/completions even when a per-job
            // override handles the job's task-level decisions.
            self.scheduler
                .on_task_started(JobId(job_id), task, node, now);
        }
        let (net, my) = (self.net, self.node);
        net.unicast(ctx, my, node, tt_actor, 1024, AssignTask { descriptor });
    }

    /// Heartbeat-driven scheduling for one TaskTracker: every free slot
    /// first asks the cluster scheduler *which job* deserves it
    /// ([`Scheduler::pick_job`] — the job-level half of the two-level
    /// decision), then the picked job's scheduler which task. A job that
    /// declines a regular dispatch (queue dry, or adaptive admission
    /// control) is offered a speculative straggler copy before being
    /// retired from this heartbeat's candidates. Under the default
    /// lowest-id job picker this reproduces the historical "drain each job
    /// regular-then-speculative in ascending id order" loop event for
    /// event — proven by the golden multi-job traces
    /// (`job_level_dispatch_is_trace_equivalent`).
    fn schedule_on(&mut self, ctx: &mut Ctx<'_>, node: NodeId, mut free: usize) {
        // A blacklisted tracker stays registered and keeps heartbeating
        // (its slots still count toward the cluster total) but is handed
        // no work — regular or speculative — until probation decays its
        // failure score back under the threshold.
        if self.is_blacklisted(node) {
            ctx.stats().incr("mr.blacklist_skips");
            return;
        }
        // Jobs retired for this heartbeat (nothing left to offer), and
        // jobs whose regular queue declined (skip straight to speculation
        // on their next pick — `pick_task` cannot start returning `Some`
        // again within one heartbeat, since dispatch only shrinks queues).
        let mut exhausted: Vec<u32> = Vec::new();
        let mut regular_declined: Vec<u32> = Vec::new();
        while free > 0 {
            let Some(job_id) = self.pick_job_for(node, &exhausted) else {
                break;
            };
            if !regular_declined.contains(&job_id) {
                if let Some(task) = self.pick_task(job_id, node) {
                    self.assign(ctx, job_id, task, node);
                    free -= 1;
                    continue;
                }
                regular_declined.push(job_id);
            }
            // Speculative duplicates once the job's queue is dry (or held
            // back).
            if self.cfg.speculative {
                if let Some(task) = self.pick_straggler(ctx.now(), job_id, node) {
                    if let Some(job) = self.jobs.get_mut(&job_id) {
                        job.speculative_attempts += 1;
                    }
                    ctx.stats().incr("mr.speculative_launches");
                    self.assign(ctx, job_id, task, node);
                    free -= 1;
                    continue;
                }
            }
            exhausted.push(job_id);
        }
        // Preemptive slot reclamation: only once the node is out of free
        // slots may a policy name running attempts to kill and requeue —
        // the slots free (and re-dispatch) at this node's next heartbeat.
        // Inert unless `MrConfig::preemption` enables it, which keeps every
        // historical trace byte-identical (pinned by the goldens).
        if free == 0 {
            self.reclaim_on(ctx, node);
        }
    }

    /// Asks the cluster scheduler to [`reclaim`](Scheduler::reclaim) slots
    /// on the saturated `node` and executes the kills it names. Like every
    /// job-level decision the ask goes to the *cluster* scheduler only.
    fn reclaim_on(&mut self, ctx: &mut Ctx<'_>, node: NodeId) {
        if !self.cfg.preemption.enabled() {
            return;
        }
        for victim in self.pick_victims(node, ctx.now()) {
            self.preempt(ctx, victim, node);
        }
    }

    /// Builds the same per-job view slice as [`pick_job_for`] (no jobs
    /// retired — reclamation is asked once per heartbeat) and collects the
    /// cluster scheduler's victims. Returns nothing when no job could even
    /// take a reclaimed slot, so idle heartbeats never pay for views.
    fn pick_victims(&mut self, node: NodeId, now: SimTime) -> Vec<ReclaimVictim> {
        let cluster_slots = self.total_slots();
        let slots_per_node = self.cfg.map_slots_per_node;
        let mut ids: Vec<u32> = self
            .jobs
            .iter()
            .filter(|(_, j)| matches!(j.phase, Phase::MapRunning | Phase::ReduceRunning))
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        if ids.is_empty() {
            return Vec::new();
        }
        for id in &ids {
            if let Some(job) = self.jobs.get_mut(id) {
                job.pending.make_contiguous();
            }
        }
        // Eligibility mirrors dispatch: a beneficiary must have pending
        // work (withheld reduces excluded) — speculation never justifies a
        // kill, so the speculative arm of `pick_job_for`'s dispatchability
        // is deliberately absent here.
        let filtered: Vec<(Option<Vec<TaskId>>, bool)> = ids
            .iter()
            .map(|id| {
                let job = &self.jobs[id];
                let filt: Option<Vec<TaskId>> = job.withholds_reduces().then(|| {
                    job.pending
                        .iter()
                        .copied()
                        .filter(|tid| !job.tasks[tid.0 as usize].is_reduce)
                        .collect()
                });
                let pending_len = filt.as_ref().map_or(job.pending.len(), Vec::len);
                (filt, pending_len > 0)
            })
            .collect();
        if !filtered.iter().any(|(_, dispatchable)| *dispatchable) {
            return Vec::new();
        }
        let lookups: Vec<TaskStateLookup<'_>> = ids
            .iter()
            .map(|id| TaskStateLookup(&self.jobs[id].tasks))
            .collect();
        let views: Vec<SchedView<'_>> = ids
            .iter()
            .zip(&lookups)
            .zip(&filtered)
            .map(|((id, tasks), (filt, dispatchable))| {
                let job = &self.jobs[id];
                let pending: &[TaskId] = match filt {
                    Some(p) => p,
                    None => job.pending.as_slices().0,
                };
                SchedView {
                    job: JobId(*id),
                    kernel: job.spec.kernel.name(),
                    tenant: &job.spec.tenant,
                    weight: job.spec.weight,
                    deadline: job.spec.deadline,
                    submitted: job.submitted,
                    eligible: *dispatchable,
                    cluster_slots,
                    pending,
                    tasks,
                    running_slots: job.running_now as usize,
                    running_incomplete: job.running_tasks as usize,
                    completed_task_times: &job.task_times,
                    slots_per_node,
                }
            })
            .collect();
        self.scheduler.reclaim(&views, node, now)
    }

    /// Executes one preemption kill: removes the attempt from its task's
    /// running list, requeues the task (unless a speculative sibling still
    /// runs it), fences the attempt so its eventual completion report is
    /// rejected (the PR-8 zombie path, reused verbatim), re-bills the
    /// discarded slot-seconds from the victim job to the beneficiary, and
    /// tells the TaskTracker to kill the attempt. The freed slot surfaces
    /// in the node's next heartbeat.
    ///
    /// Exactly-once needs no kv/digest surgery here: a *running* map
    /// attempt has folded nothing into the job (folding happens only on a
    /// successful report), and the fence guarantees at most one of
    /// {preemption kill, natural completion} takes effect.
    fn preempt(&mut self, ctx: &mut Ctx<'_>, v: ReclaimVictim, node: NodeId) {
        let now = ctx.now();
        let Some(tt) = self.tts.get(&node) else {
            return;
        };
        let tt_actor = tt.actor;
        let Some(job) = self.jobs.get_mut(&v.job.0) else {
            debug_assert!(false, "reclaim named unknown job {}", v.job);
            return;
        };
        let Some(ts) = job.tasks.get_mut(v.task.0 as usize) else {
            debug_assert!(false, "reclaim named unknown task {}/{}", v.job, v.task);
            return;
        };
        debug_assert!(
            !ts.is_reduce && !ts.completed,
            "reclaim named a reduce or completed task {}/{}",
            v.job,
            v.task
        );
        if ts.is_reduce || ts.completed {
            return;
        }
        let Some(pos) = ts
            .running
            .iter()
            .position(|&(a, n, _)| a == v.attempt && n == node)
        else {
            debug_assert!(false, "reclaim named attempt not running on node");
            return;
        };
        let (_, _, started) = ts.running.remove(pos);
        if ts.running.is_empty() {
            job.pending.push_back(v.task);
            // The guard above established `!ts.completed`, so this task
            // was counted active until its sole attempt died just now.
            job.running_tasks -= 1;
        }
        job.note_share(now, -1);
        // Charge the killing tenant: the victim's discarded runtime moves
        // from its slot-seconds to the beneficiary's, and is reported as
        // the beneficiary's wasted work.
        let elapsed = now.since(started).as_secs_f64();
        job.slot_seconds -= elapsed;
        job.preempted_attempts += 1;
        self.fenced.insert((v.job.0, v.task.0, v.attempt));
        if let Some(b) = self.jobs.get_mut(&v.beneficiary.0) {
            b.slot_seconds += elapsed;
            b.wasted_slot_seconds += elapsed;
        }
        ctx.stats().incr("mr.preemptions");
        let kill = KillTask {
            job: v.job,
            task: v.task,
            attempt: v.attempt,
        };
        let (net, my) = (self.net, self.node);
        net.unicast(ctx, my, node, tt_actor, 128, kill);
    }

    /// Asks the cluster scheduler which active job the next free slot on
    /// `node` should serve. Builds one view per active job — ineligible
    /// entries (retired this heartbeat, or with nothing dispatchable) stay
    /// in the slice so tenant shares account every running attempt — and
    /// validates the pick against the eligibility the views advertise.
    /// Job-level decisions always go to the cluster scheduler; per-job
    /// overrides only govern decisions within their own job.
    fn pick_job_for(&mut self, node: NodeId, exhausted: &[u32]) -> Option<u32> {
        let cluster_slots = self.total_slots();
        let slots_per_node = self.cfg.map_slots_per_node;
        let speculative = self.cfg.speculative;
        let mut ids: Vec<u32> = self
            .jobs
            .iter()
            .filter(|(_, j)| matches!(j.phase, Phase::MapRunning | Phase::ReduceRunning))
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        if ids.is_empty() {
            return None;
        }
        // Make every pending queue contiguous first (needs `&mut`); the
        // immutable view pass below can then slice it.
        for id in &ids {
            if let Some(job) = self.jobs.get_mut(id) {
                job.pending.make_contiguous();
            }
        }
        // Owned pending snapshots for jobs in the churn-transient "shuffle
        // with lost outputs" state, where reduce entries are withheld from
        // dispatch (`JobState::withholds_reduces`, the same condition
        // `pick_task` applies); `None` = borrow the queue as-is. Computed
        // together with per-job dispatchability so heartbeats with nothing
        // to hand out (the common idle case, and every `schedule_on`'s
        // terminating call) return before any task views are built.
        let filtered: Vec<(Option<Vec<TaskId>>, bool)> = ids
            .iter()
            .map(|id| {
                let job = &self.jobs[id];
                debug_check_counters(job);
                let filt: Option<Vec<TaskId>> = job.withholds_reduces().then(|| {
                    job.pending
                        .iter()
                        .copied()
                        .filter(|tid| !job.tasks[tid.0 as usize].is_reduce)
                        .collect()
                });
                let pending_len = filt.as_ref().map_or(job.pending.len(), Vec::len);
                // `running_tasks` is the incrementally maintained count of
                // incomplete tasks with a running attempt — what the old
                // O(tasks) `any` scan recomputed per free slot.
                let dispatchable = pending_len > 0 || (speculative && job.running_tasks > 0);
                (filt, dispatchable)
            })
            .collect();
        if !ids
            .iter()
            .zip(&filtered)
            .any(|(id, (_, dispatchable))| *dispatchable && !exhausted.contains(id))
        {
            return None;
        }
        let lookups: Vec<TaskStateLookup<'_>> = ids
            .iter()
            .map(|id| TaskStateLookup(&self.jobs[id].tasks))
            .collect();
        let views: Vec<SchedView<'_>> = ids
            .iter()
            .zip(&lookups)
            .zip(&filtered)
            .map(|((id, tasks), (filt, dispatchable))| {
                let job = &self.jobs[id];
                let pending: &[TaskId] = match filt {
                    Some(p) => p,
                    None => job.pending.as_slices().0,
                };
                SchedView {
                    job: JobId(*id),
                    kernel: job.spec.kernel.name(),
                    tenant: &job.spec.tenant,
                    weight: job.spec.weight,
                    deadline: job.spec.deadline,
                    submitted: job.submitted,
                    eligible: *dispatchable && !exhausted.contains(id),
                    cluster_slots,
                    pending,
                    tasks,
                    running_slots: job.running_now as usize,
                    running_incomplete: job.running_tasks as usize,
                    completed_task_times: &job.task_times,
                    slots_per_node,
                }
            })
            .collect();
        let pick = self.scheduler.pick_job(&views, node)?;
        let valid = views.iter().any(|v| v.job == pick && v.eligible);
        debug_assert!(valid, "scheduler picked ineligible job {pick}");
        valid.then_some(pick.0)
    }

    /// Asks the job's scheduler for a straggler to speculatively
    /// duplicate on `node`.
    fn pick_straggler(&mut self, now: SimTime, job_id: u32, node: NodeId) -> Option<TaskId> {
        let slots_per_node = self.cfg.map_slots_per_node;
        let cluster_slots = self.total_slots();
        let sched = sched_mut(&mut self.job_scheds, &mut self.scheduler, job_id);
        let job = self.jobs.get_mut(&job_id)?;
        let tasks = TaskStateLookup(&job.tasks);
        let view = SchedView {
            job: JobId(job_id),
            kernel: job.spec.kernel.name(),
            tenant: &job.spec.tenant,
            weight: job.spec.weight,
            deadline: job.spec.deadline,
            submitted: job.submitted,
            eligible: true,
            cluster_slots,
            pending: job.pending.make_contiguous(),
            tasks: &tasks,
            running_slots: job.running_now as usize,
            running_incomplete: job.running_tasks as usize,
            completed_task_times: &job.task_times,
            slots_per_node,
        };
        let pick = sched.pick_straggler(&view, node, now)?;
        // No speculative reduce copies while the shuffle's map outputs are
        // incomplete: a duplicate dispatched now would be rebuilt against
        // a partial output set (see `assign`).
        if job.tasks[pick.0 as usize].is_reduce && !job.shuffle_ready() {
            return None;
        }
        Some(pick)
    }

    fn handle_report(&mut self, ctx: &mut Ctx<'_>, report: TaskReport) {
        let job_id = report.job.0;
        // Epoch fence: the attempt was requeued when its node was declared
        // dead, so this report is from a zombie execution. Reject it
        // before it can touch running lists, pending queues, or kv/digest
        // folds — the re-executed attempt's report is the real one.
        if self.fenced.remove(&(job_id, report.task.0, report.attempt)) {
            ctx.stats().incr("mr.fenced_reports");
            return;
        }
        if !report.ok {
            self.note_node_failure(ctx, report.node);
        }
        let Some(job) = self.jobs.get_mut(&job_id) else {
            return;
        };
        let (removed, was_active) = {
            let Some(ts) = job.tasks.get_mut(report.task.0 as usize) else {
                return;
            };
            let was_active = !ts.completed && !ts.running.is_empty();
            let before = ts.running.len();
            ts.running
                .retain(|&(a, n, _)| !(a == report.attempt && n == report.node));
            ((before - ts.running.len()) as i64, was_active)
        };
        job.note_share(ctx.now(), -removed);
        let ts = &mut job.tasks[report.task.0 as usize];
        let is_active = !ts.completed && !ts.running.is_empty();
        if was_active && !is_active {
            job.running_tasks -= 1;
        }

        if !report.ok {
            job.failed_attempts += 1;
            ctx.stats().incr("mr.attempt_failures");
            if !ts.completed {
                if ts.attempts >= self.cfg.max_attempts {
                    job.succeeded = false;
                    job.error = Some(JobError::TaskFailed {
                        task: report.task,
                        attempts: ts.attempts,
                    });
                    self.finalize(ctx, JobId(job_id));
                } else {
                    job.pending.push_back(report.task);
                }
            }
            return;
        }

        if ts.completed {
            // Speculative loser or zombie after recovery: drop the result.
            ctx.stats().incr("mr.stale_reports");
            return;
        }
        ts.completed = true;
        ts.ran_on = Some(report.node);
        // Kill other in-flight attempts of the same task — and stop
        // billing their slots to the job: the kill frees the slot, and a
        // killed attempt never reports back (a natural-completion race
        // arrives as a stale report and must not double-subtract, which is
        // why the entries leave `running` here, at kill time).
        let others: Vec<(u32, NodeId)> = ts.running.iter().map(|&(a, n, _)| (a, n)).collect();
        ts.running.clear();
        if is_active {
            // The task was still counted active after the winner's entry
            // left `running` (speculative siblings in flight); completion
            // retires it now.
            job.running_tasks -= 1;
        }
        let is_reduce = ts.is_reduce;
        let kernel = job.spec.kernel.name();
        // The work the attempt performed, for throughput learning: samples
        // for synthetic tasks, actual bytes read otherwise.
        let work = match &ts.work {
            TaskWork::MapUnits { units, .. } => *units,
            _ => report.metrics.bytes_read,
        };

        job.note_share(ctx.now(), -(others.len() as i64));
        job.last_progress = ctx.now();
        job.bytes_read += report.metrics.bytes_read;
        job.bytes_output += report.metrics.bytes_output;
        job.local_reads += report.metrics.local_reads;
        job.remote_reads += report.metrics.remote_reads;
        job.kv.extend(report.kv.iter().copied());
        job.digest_acc = job.digest_acc.wrapping_add(report.digest.0);
        job.digest_count += report.digest.1;
        job.task_times.push(report.metrics.elapsed);
        if is_reduce {
            job.reduces_completed += 1;
        } else if matches!(job.spec.reduce, ReduceSpec::Shuffle { .. }) {
            // Only shuffles consume map outputs — and only shuffles can
            // lose one to a node death and need the folded contributions
            // back out; other reduce shapes skip the retention entirely.
            job.maps_completed += 1;
            let mut kv_counts: FxHashMap<(u64, u64), u64> = FxHashMap::default();
            for &pair in &report.kv {
                *kv_counts.entry(pair).or_default() += 1;
            }
            job.map_outputs.insert(
                report.task,
                MapOutput {
                    node: report.node,
                    pairs: report.kv.len() as u64,
                    kv_counts,
                    digest: report.digest,
                    bytes_read: report.metrics.bytes_read,
                    bytes_output: report.metrics.bytes_output,
                    local_reads: report.metrics.local_reads,
                    remote_reads: report.metrics.remote_reads,
                },
            );
        } else {
            job.maps_completed += 1;
        }

        let completion = TaskCompletion {
            job: report.job,
            task: report.task,
            node: report.node,
            kernel,
            is_reduce,
            elapsed: report.metrics.elapsed,
            work,
        };
        let has_override = self.job_scheds.contains_key(&job_id);
        let sched = sched_mut(&mut self.job_scheds, &mut self.scheduler, job_id);
        sched.on_task_completed(&completion);
        if has_override {
            // Job-level policies (deadline duration models, fair-share)
            // must not go blind on jobs carrying a task-level override:
            // the cluster scheduler observes every job's completions.
            self.scheduler.on_task_completed(&completion);
        }

        for (attempt, node) in others {
            if let Some(tt) = self.tts.get(&node) {
                let kill = KillTask {
                    job: report.job,
                    task: report.task,
                    attempt,
                };
                let (net, my, actor) = (self.net, self.node, tt.actor);
                net.unicast(ctx, my, node, actor, 128, kill);
            }
        }

        self.check_phase(ctx, JobId(job_id));
    }

    fn check_phase(&mut self, ctx: &mut Ctx<'_>, job_id: JobId) {
        let (phase, maps_done, reduces_done) = {
            let Some(job) = self.jobs.get(&job_id.0) else {
                return;
            };
            (
                job.phase,
                job.maps_completed == job.map_count,
                job.reduce_count > 0 && job.reduces_completed == job.reduce_count,
            )
        };
        match phase {
            Phase::MapRunning if maps_done => {
                let reduce = self.jobs.get(&job_id.0).map(|j| match &j.spec.reduce {
                    ReduceSpec::None => 0u8,
                    ReduceSpec::RpcAggregate { .. } => 1,
                    ReduceSpec::Shuffle { .. } => 2,
                });
                match reduce {
                    Some(0) | None => self.finalize(ctx, job_id),
                    Some(1) => {
                        // Lightweight reducer at the JobTracker.
                        let dur = {
                            let job = self.jobs.get_mut(&job_id.0).expect("job exists");
                            job.phase = Phase::ReduceRpc;
                            let ReduceSpec::RpcAggregate { reducer } = &job.spec.reduce else {
                                unreachable!()
                            };
                            let pairs = job.kv.len() as u64;
                            reducer.reduce_time(16 * pairs, pairs)
                        };
                        ctx.after(dur, job_timer_tag(KIND_REDUCE_RPC, job_id));
                    }
                    Some(_) => self.start_shuffle(ctx, job_id),
                }
            }
            // `maps_done` too: a node death during the reduce phase may
            // have invalidated a completed map (contributions subtracted,
            // re-execution pending). Finalizing on reduce completion alone
            // would ship a "succeeded" result missing that map's kv and
            // digest; the re-executed map's own report re-triggers this
            // check.
            Phase::ReduceRunning if reduces_done && maps_done => {
                self.finalize(ctx, job_id);
            }
            _ => {}
        }
    }

    fn start_shuffle(&mut self, ctx: &mut Ctx<'_>, job_id: JobId) {
        let Some(job) = self.jobs.get_mut(&job_id.0) else {
            return;
        };
        let ReduceSpec::Shuffle {
            reducers,
            write_output,
            ..
        } = &job.spec.reduce
        else {
            return;
        };
        let reducers = *reducers;
        let write_output = *write_output;
        let output_path = match &job.spec.output {
            OutputSink::Dfs { path, .. } => format!("{path}-reduced"),
            _ => format!("/{}-reduced", job.spec.name),
        };
        // Partition every map output evenly across reducers.
        let (outputs, total_pairs) = shuffle_outputs(&job.map_outputs);
        for r in 0..reducers {
            job.tasks.push(TaskState {
                work: TaskWork::Reduce {
                    fetches: reduce_fetches(&outputs, reducers, r),
                    pairs: total_pairs / reducers as u64,
                    write_output,
                    output_path: output_path.clone(),
                },
                hints: Vec::new(),
                attempts: 0,
                completed: false,
                running: Vec::new(),
                ran_on: None,
                is_reduce: true,
            });
            job.pending.push_back(TaskId(job.tasks.len() as u32 - 1));
        }
        job.reduce_count = reducers as u32;
        job.phase = Phase::ReduceRunning;
        ctx.stats().incr("mr.shuffles_started");
    }

    fn finalize(&mut self, ctx: &mut Ctx<'_>, job_id: JobId) {
        if let Some(job) = self.jobs.get_mut(&job_id.0) {
            if job.phase == Phase::Finalizing || job.phase == Phase::Done {
                return;
            }
            job.phase = Phase::Finalizing;
        }
        ctx.after(
            self.cfg.job_finalize_time,
            job_timer_tag(KIND_FINALIZE, job_id),
        );
    }

    fn complete(&mut self, ctx: &mut Ctx<'_>, job_id: JobId) {
        let (scheduler, node_throughput) = {
            let Some(job) = self.jobs.get(&job_id.0) else {
                return;
            };
            let kernel = job.spec.kernel.name();
            let sched = sched_mut(&mut self.job_scheds, &mut self.scheduler, job_id.0);
            (sched.name(), sched.throughput_estimates(kernel))
        };
        let Some(job) = self.jobs.get_mut(&job_id.0) else {
            return;
        };
        job.phase = Phase::Done;
        let now = ctx.now();
        // Flush the slot-seconds integral to the completion instant.
        job.slot_seconds += job.running_now as f64 * now.since(job.share_last_change).as_secs_f64();
        job.share_last_change = now;
        // Final aggregate for RpcAggregate jobs.
        let kv = match &job.spec.reduce {
            ReduceSpec::RpcAggregate { reducer } | ReduceSpec::Shuffle { reducer, .. } => {
                reducer.aggregate(&job.kv)
            }
            ReduceSpec::None => job.kv.clone(),
        };
        let result = JobResult {
            job: job_id,
            name: job.spec.name.clone(),
            succeeded: job.succeeded,
            error: job.error,
            elapsed: now - job.submitted,
            tenant: job.spec.tenant.clone(),
            weight: job.spec.weight,
            deadline: job.spec.deadline,
            deadline_met: job.spec.deadline.map(|d| now <= d),
            slot_seconds: job.slot_seconds,
            share_timeline: job.share_timeline.clone(),
            preempted_attempts: job.preempted_attempts,
            wasted_slot_seconds: job.wasted_slot_seconds,
            map_tasks: job.map_count,
            reduce_tasks: job.reduce_count,
            attempts: job.attempts_total,
            failed_attempts: job.failed_attempts,
            speculative_attempts: job.speculative_attempts,
            bytes_read: job.bytes_read,
            bytes_output: job.bytes_output,
            local_reads: job.local_reads,
            remote_reads: job.remote_reads,
            kv,
            digest: (job.digest_acc, job.digest_count),
            task_times: job.task_times.clone(),
            scheduler,
            dispatch_log: job.dispatch_log.clone(),
            node_throughput,
        };
        let client = job.client;
        // A per-job scheduler override dies with its job.
        self.job_scheds.remove(&job_id.0);
        ctx.stats().incr("mr.jobs_completed");
        let (net, my) = (self.net, self.node);
        net.unicast(ctx, my, client.1, client.0, 2048, JobComplete { result });
    }

    /// A node joined (registration of a previously-unknown TaskTracker):
    /// feed the schedulers and re-plan any job whose splits were computed
    /// against the old worker set but has not dispatched anything yet.
    fn handle_node_join(&mut self, ctx: &mut Ctx<'_>, node: NodeId) {
        ctx.stats().incr("mr.node_joins");
        self.scheduler.on_node_join(node);
        // audit:allow(map-order): per-job schedulers are mutually independent state; the join feed order across jobs is unobservable and no events issue here
        for sched in self.job_scheds.values_mut() {
            sched.on_node_join(node);
        }
        self.replan_unassigned(ctx);
    }

    /// Re-plans the splits of every job that is running its map phase but
    /// has dispatched nothing — its plan predates the current worker set,
    /// so rebuilding it lets the join participate from the first wave.
    /// Jobs with attempts in flight are left alone: their pending queue is
    /// simply drained onto the new node by heartbeat dispatch.
    fn replan_unassigned(&mut self, ctx: &mut Ctx<'_>) {
        let mut job_ids: Vec<u32> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.phase == Phase::MapRunning && j.attempts_total == 0)
            .map(|(&id, _)| id)
            .collect();
        job_ids.sort_unstable();
        for job_id in job_ids {
            let input = {
                let Some(job) = self.jobs.get_mut(&job_id) else {
                    continue;
                };
                job.tasks.clear();
                job.pending.clear();
                job.map_count = 0;
                // No attempts ever dispatched (the replan filter), so the
                // active-task count resets with the table.
                job.running_tasks = 0;
                job.spec.input.clone()
            };
            ctx.stats().incr("mr.jobs_replanned");
            match input {
                JobInput::Synthetic { total_units } => {
                    self.build_synthetic_tasks(JobId(job_id), total_units);
                }
                JobInput::File { path, .. } => {
                    // Re-fetch locations: the fresh view also reflects any
                    // re-replication since the original plan.
                    if let Some(job) = self.jobs.get_mut(&job_id) {
                        job.phase = Phase::WaitingLocations;
                    }
                    let (dfs, node) = (self.dfs.clone(), self.node);
                    dfs.get_locations(ctx, node, &path, job_id as u64);
                }
            }
        }
    }

    /// Declares silent TaskTrackers dead and re-queues their work. The
    /// sweep drains the expiry heap instead of walking every tracker: only
    /// trackers whose recorded deadline elapsed surface, so an all-quiet
    /// tick costs O(1) regardless of cluster size. The old full scan
    /// visited ascending node ids; the drained set is sorted (and deduped
    /// — resurrections can leave superseded entries) so the newly-dead are
    /// processed in exactly the historical order, keeping traces
    /// byte-identical.
    fn check_liveness(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.decay_blacklist(now);
        let mut newly_fenced: Vec<(u32, u32, u32)> = Vec::new();
        let tts = &self.tts;
        let window = self.cfg.tt_dead_after;
        // Expired ⇔ the authoritative deadline passed: `last + window <
        // now` is the old `now - last > window` rule verbatim, so a
        // tracker whose grace ends exactly at `now` survives this tick.
        let mut newly_dead = self.expiry.expired(now, |node| {
            let tt = tts.get(&node)?;
            if tt.dead {
                return None;
            }
            Some(tt.last_heartbeat + window)
        });
        newly_dead.sort_unstable();
        newly_dead.dedup();
        for &node in &newly_dead {
            self.tts
                .get_mut(&node)
                .expect("expired keys are tracked")
                .dead = true;
            self.note_tt_dead(node);
        }
        for node in newly_dead {
            ctx.stats().incr("mr.tasktrackers_declared_dead");
            self.scheduler.on_node_dead(node);
            // audit:allow(map-order): per-job schedulers are mutually independent state; the observation feed order across jobs is unobservable and no events issue here
            for sched in self.job_scheds.values_mut() {
                sched.on_node_dead(node);
            }
            let mut job_ids: Vec<u32> = self.jobs.keys().copied().collect();
            job_ids.sort_unstable();
            for job_id in job_ids {
                let Some(job) = self.jobs.get_mut(&job_id) else {
                    continue;
                };
                if matches!(job.phase, Phase::Done | Phase::Finalizing) {
                    continue;
                }
                let needs_shuffle = matches!(job.spec.reduce, ReduceSpec::Shuffle { .. })
                    && job.phase != Phase::Done;
                let mut vanished = 0i64;
                for (i, ts) in job.tasks.iter_mut().enumerate() {
                    let tid = TaskId(i as u32);
                    // Running attempts on the dead node vanish — and are
                    // *fenced*: should the node turn out to be alive
                    // (heartbeat loss, partition), the zombie executions'
                    // eventual reports must not fold a second copy of the
                    // work into the job.
                    let before = ts.running.len();
                    ts.running.retain(|&(a, n, _)| {
                        if n != node {
                            return true;
                        }
                        newly_fenced.push((job_id, i as u32, a));
                        false
                    });
                    vanished += (before - ts.running.len()) as i64;
                    if before != ts.running.len() && !ts.completed && ts.running.is_empty() {
                        job.pending.push_back(tid);
                        // Active → inactive: its last attempt just vanished.
                        job.running_tasks -= 1;
                    }
                    // Completed map outputs on the dead node are lost for
                    // unfinished shuffles: re-execute those maps — during
                    // the reduce phase too (reduce dispatch is then held
                    // until the re-executed outputs land; in-flight
                    // fetches off the dead node abort and requeue). The
                    // lost attempt's folded contributions are subtracted
                    // so re-execution keeps exactly-once accounting.
                    if needs_shuffle
                        && matches!(job.phase, Phase::MapRunning | Phase::ReduceRunning)
                        && ts.completed
                        && ts.ran_on == Some(node)
                        && !ts.is_reduce
                    {
                        ts.completed = false;
                        ts.ran_on = None;
                        if !ts.running.is_empty() {
                            // Defensive: a completed task's running list is
                            // cleared at completion, so this stays zero —
                            // but un-completing a task with attempts in
                            // flight would make it active again.
                            job.running_tasks += 1;
                        }
                        job.maps_completed -= 1;
                        if let Some(mo) = job.map_outputs.remove(&tid) {
                            job.bytes_read -= mo.bytes_read;
                            job.bytes_output -= mo.bytes_output;
                            job.local_reads -= mo.local_reads;
                            job.remote_reads -= mo.remote_reads;
                            job.digest_acc = job.digest_acc.wrapping_sub(mo.digest.0);
                            job.digest_count -= mo.digest.1;
                            // Multiset subtraction in one pass (shuffle
                            // aggregates are order-independent, so retain
                            // is safe; per-pair scans would be quadratic).
                            let mut drop = mo.kv_counts;
                            job.kv.retain(|p| match drop.get_mut(p) {
                                Some(c) if *c > 0 => {
                                    *c -= 1;
                                    false
                                }
                                _ => true,
                            });
                        }
                        job.pending.push_back(tid);
                    }
                }
                job.note_share(now, -vanished);
            }
        }
        for key in newly_fenced {
            self.fenced.insert(key);
        }
        self.check_watchdog(ctx, now);
    }

    /// Job-level liveness watchdog: a job with *nothing running* and no
    /// dispatch or completion for [`MrConfig::job_stall_timeout`] cannot
    /// make progress (unservable input, every candidate node dead or
    /// blacklisted) and is terminated with a typed
    /// [`JobError::Stalled`] instead of hanging the session. Jobs with
    /// attempts in flight are never declared stalled — slow tasks are the
    /// I/O watchdogs' and speculation's problem, not this one's.
    fn check_watchdog(&mut self, ctx: &mut Ctx<'_>, now: SimTime) {
        let Some(timeout) = self.cfg.job_stall_timeout else {
            return;
        };
        let mut stalled: Vec<u32> = self
            .jobs
            .iter()
            .filter(|(_, j)| !matches!(j.phase, Phase::Done | Phase::Finalizing))
            .filter(|(_, j)| j.running_now == 0 && now.since(j.last_progress) > timeout)
            .map(|(&id, _)| id)
            .collect();
        stalled.sort_unstable();
        for id in stalled {
            if let Some(job) = self.jobs.get_mut(&id) {
                job.succeeded = false;
                job.error = Some(JobError::Stalled {
                    idle_for: now.since(job.last_progress),
                });
            }
            ctx.stats().incr("mr.jobs_stalled");
            self.finalize(ctx, JobId(id));
        }
    }
}

impl Actor for JobTracker {
    fn name(&self) -> String {
        "mr.jobtracker".into()
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Start => {
                ctx.after(self.cfg.heartbeat_interval, TIMER_LIVENESS);
            }
            Event::Timer {
                tag: TIMER_LIVENESS,
                ..
            } => {
                self.check_liveness(ctx);
                ctx.rearm_after(self.cfg.heartbeat_interval, TIMER_LIVENESS);
            }
            Event::Timer { tag, .. } => {
                let (kind, job_id) = unpack_job_timer(tag);
                match kind {
                    KIND_INIT => {
                        let input = self.jobs.get(&job_id.0).map(|j| j.spec.input.clone());
                        match input {
                            Some(JobInput::File { path, .. }) => {
                                if let Some(job) = self.jobs.get_mut(&job_id.0) {
                                    job.phase = Phase::WaitingLocations;
                                }
                                let (dfs, node) = (self.dfs.clone(), self.node);
                                dfs.get_locations(ctx, node, &path, job_id.0 as u64);
                            }
                            Some(JobInput::Synthetic { total_units }) => {
                                self.build_synthetic_tasks(job_id, total_units);
                            }
                            None => {}
                        }
                    }
                    KIND_REDUCE_RPC => {
                        if let Some(job) = self.jobs.get_mut(&job_id.0) {
                            job.reduce_count = 1;
                            job.reduces_completed = 1;
                        }
                        self.finalize(ctx, job_id);
                    }
                    KIND_FINALIZE => self.complete(ctx, job_id),
                    _ => {}
                }
            }
            Event::Msg { msg, .. } => {
                if msg.is::<SubmitJob>() {
                    let submit = msg.downcast::<SubmitJob>().expect("checked");
                    let id = self.next_job;
                    self.next_job += 1;
                    // A job carrying its own policy gets a private,
                    // job-lifetime scheduler instance.
                    if let Some(policy) = submit.spec.scheduler {
                        self.job_scheds
                            .insert(id, build_scheduler(policy, &self.cfg));
                    }
                    self.jobs.insert(
                        id,
                        JobState {
                            spec: submit.spec,
                            client: (submit.reply, submit.reply_node),
                            submitted: ctx.now(),
                            phase: Phase::Initializing,
                            tasks: Vec::new(),
                            pending: VecDeque::new(),
                            map_count: 0,
                            reduce_count: 0,
                            maps_completed: 0,
                            reduces_completed: 0,
                            attempts_total: 0,
                            failed_attempts: 0,
                            speculative_attempts: 0,
                            bytes_read: 0,
                            bytes_output: 0,
                            local_reads: 0,
                            remote_reads: 0,
                            kv: Vec::new(),
                            digest_acc: 0,
                            digest_count: 0,
                            task_times: Vec::new(),
                            dispatch_log: Vec::new(),
                            map_outputs: FxHashMap::default(),
                            succeeded: true,
                            error: None,
                            last_progress: ctx.now(),
                            running_now: 0,
                            share_last_change: ctx.now(),
                            slot_seconds: 0.0,
                            share_timeline: Vec::new(),
                            preempted_attempts: 0,
                            wasted_slot_seconds: 0.0,
                            running_tasks: 0,
                        },
                    );
                    ctx.stats().incr("mr.jobs_submitted");
                    ctx.after(self.cfg.job_init_time, job_timer_tag(KIND_INIT, JobId(id)));
                } else if msg.is::<LocationsReply>() {
                    let reply = msg.downcast::<LocationsReply>().expect("checked");
                    let job_id = JobId(reply.tag as u32);
                    match reply.view {
                        Some(view) => self.build_file_tasks(job_id, &view),
                        None => {
                            if let Some(job) = self.jobs.get_mut(&job_id.0) {
                                job.succeeded = false;
                            }
                            self.finalize(ctx, job_id);
                        }
                    }
                } else if msg.is::<TtHeartbeat>() {
                    let hb = msg.downcast::<TtHeartbeat>().expect("checked");
                    ctx.stats().incr("mr.heartbeats");
                    let now = ctx.now();
                    // A heartbeat from a tracker we declared dead means the
                    // declaration was a false positive (heartbeat loss, or
                    // a healed partition): resurrect it. Its pre-death
                    // attempts were requeued and fenced at declaration
                    // time, so any stale reports this heartbeat carries
                    // are rejected in `handle_report` — the node rejoins
                    // with a clean slate. Genuinely crashed trackers never
                    // heartbeat again, so this path is unreachable outside
                    // chaos runs.
                    let is_new = !self.tts.contains_key(&hb.node);
                    let entry = self.tts.entry(hb.node).or_insert(TtInfo {
                        actor: ActorId::ENGINE,
                        last_heartbeat: now,
                        dead: false,
                        fail_score: 0,
                    });
                    entry.last_heartbeat = now;
                    let resurrected = entry.dead;
                    if is_new || resurrected {
                        // (Re-)entering liveness tracking: one fresh heap
                        // entry at the current deadline; any superseded
                        // entry from a previous incarnation is dropped at
                        // pop time. Heartbeats from an already-live
                        // tracker never touch the heap.
                        self.expiry.schedule(now + self.cfg.tt_dead_after, hb.node);
                        self.note_tt_live(hb.node);
                    }
                    if resurrected {
                        let entry = self.tts.get_mut(&hb.node).expect("just inserted");
                        entry.dead = false;
                        ctx.stats().incr("mr.tt_resurrections");
                        self.scheduler.on_node_join(hb.node);
                        // audit:allow(map-order): per-job schedulers are mutually independent state; the join feed order across jobs is unobservable and no events issue here
                        for sched in self.job_scheds.values_mut() {
                            sched.on_node_join(hb.node);
                        }
                    }
                    if is_new {
                        // Discovery by heartbeat alone (no registration
                        // observed): still a join for the schedulers.
                        self.handle_node_join(ctx, hb.node);
                    }
                    self.scheduler.on_heartbeat(hb.node, hb.free_slots, now);
                    // audit:allow(map-order): per-job schedulers are mutually independent state; the heartbeat feed order across jobs is unobservable and no events issue here
                    for sched in self.job_scheds.values_mut() {
                        sched.on_heartbeat(hb.node, hb.free_slots, now);
                    }
                    for report in hb.completed {
                        self.handle_report(ctx, report);
                    }
                    if let Some(tt) = self.tts.get(&hb.node) {
                        if !tt.dead {
                            self.schedule_on(ctx, hb.node, hb.free_slots);
                        }
                    }
                } else if let Some(reg) = msg.peek::<RegisterTaskTracker>() {
                    let (node, actor) = (reg.node, reg.actor);
                    let is_new = !self.tts.contains_key(&node);
                    self.register_tt_at(node, actor, ctx.now());
                    if is_new {
                        self.handle_node_join(ctx, node);
                    }
                } else if msg.is::<PreloadDone>() {
                    // Ignored: preloads are driven by clients.
                }
            }
        }
    }
}

/// Registers the TaskTracker actor for a node — delivered at deploy and
/// on each mid-session join right after spawning, because heartbeats alone cannot carry `ActorId`s
/// through the typed fabric.
#[derive(Debug, Clone, Copy)]
pub struct RegisterTaskTracker {
    /// Worker node.
    pub node: NodeId,
    /// Its TaskTracker actor.
    pub actor: ActorId,
}

impl JobTracker {
    /// Installs the TaskTracker actor for `node`. `now` seeds the liveness
    /// clock: a node registering mid-session must not be declared dead
    /// before its first heartbeat (at deploy `now` is zero, matching the
    /// historical behavior exactly).
    pub(crate) fn register_tt_at(&mut self, node: NodeId, actor: ActorId, now: SimTime) {
        if let Some(t) = self.tts.get_mut(&node) {
            t.actor = actor;
            return;
        }
        self.tts.insert(
            node,
            TtInfo {
                actor,
                last_heartbeat: now,
                dead: false,
                fail_score: 0,
            },
        );
        // Enter liveness tracking with a full silence window from `now` —
        // a tracker registering one tick before the sweep fires must not
        // be declared dead before it ever had a chance to heartbeat.
        self.expiry.schedule(now + self.cfg.tt_dead_after, node);
        self.note_tt_live(node);
    }
}
