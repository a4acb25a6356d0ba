//! Cluster assembly: the [`MrCluster`] bundle that
//! [`ClusterBuilder::deploy`](crate::ClusterBuilder::deploy) returns, and
//! the [`MrHandle`] actors use to reach the MapReduce runtime. Jobs run
//! through [`MrCluster::session`].

use std::sync::Arc;

use accelmr_des::prelude::*;
use accelmr_dfs::DfsHandle;
use accelmr_net::{NetHandle, NodeId, NodeRegistry};

use crate::config::MrConfig;
use crate::job::JobSpec;
use crate::jobtracker::{JobTracker, RegisterTaskTracker};
use crate::kernel::NodeEnvFactory;
use crate::msgs::SubmitJob;
use crate::session::ElasticCtx;
use crate::tasktracker::TaskTracker;

/// Handle to a deployed MapReduce runtime.
#[derive(Clone)]
pub struct MrHandle {
    /// The JobTracker actor.
    pub jobtracker: ActorId,
    /// Node the JobTracker runs on.
    pub head_node: NodeId,
    /// Live `node → TaskTracker actor` registry. Shared (not a snapshot):
    /// joins and departures are visible to every handle clone immediately.
    pub tasktrackers: NodeRegistry,
    /// The network fabric.
    pub net: NetHandle,
}

impl MrHandle {
    /// TaskTracker actor on `node`, if any.
    pub fn tasktracker_on(&self, node: NodeId) -> Option<ActorId> {
        self.tasktrackers.get(node)
    }

    /// Submits a job; the calling actor receives
    /// [`JobComplete`](crate::msgs::JobComplete).
    pub fn submit(&self, ctx: &mut Ctx<'_>, my_node: NodeId, spec: JobSpec) {
        let submit = SubmitJob {
            spec,
            reply: ctx.self_id(),
            reply_node: my_node,
        };
        self.net
            .unicast(ctx, my_node, self.head_node, self.jobtracker, 4096, submit);
    }
}

/// A file to preload before running a job.
#[derive(Clone, Debug)]
pub struct PreloadSpec {
    /// DFS path.
    pub path: String,
    /// Length in bytes.
    pub len: u64,
    /// Block size override.
    pub block_size: Option<u64>,
    /// Replication override.
    pub replication: Option<usize>,
    /// Content seed.
    pub seed: u64,
}

/// Everything a deployed simulation needs in one bundle.
pub struct MrCluster {
    /// The simulation world.
    pub sim: Sim,
    /// Network handle.
    pub net: NetHandle,
    /// DFS handle.
    pub dfs: DfsHandle,
    /// MapReduce handle.
    pub mr: MrHandle,
    /// Worker node ids present at deploy (joins are not appended here;
    /// consult `mr.tasktrackers` / `dfs.datanodes` for the live set).
    pub workers: Vec<NodeId>,
    /// Elasticity context retained for mid-session joins: the configs and
    /// environment factory new nodes are built from.
    pub(crate) elastic: ElasticCtx,
    /// Next fresh `NodeId` a join gets. Lives on the cluster, not the
    /// session, so ids are never reused across sessions.
    pub(crate) next_node: u32,
}

/// Deploys fabric + DFS + MapReduce over `n_workers` nodes into a fresh
/// simulation: the fabric, the NameNode and DataNodes, then the
/// JobTracker on the head node and one TaskTracker per worker, each with
/// an environment from `env`. The cluster retains `env` and the configs so
/// sessions can build nodes joining mid-run.
pub(crate) fn deploy(
    seed: u64,
    n_workers: usize,
    net_cfg: accelmr_net::NetConfig,
    dfs_cfg: accelmr_dfs::DfsConfig,
    mr_cfg: MrConfig,
    env: Arc<dyn NodeEnvFactory>,
    materialized: bool,
) -> MrCluster {
    // A workerless cluster can never complete a job: the JobTracker would
    // wait forever for TaskTrackers that don't exist.
    assert!(n_workers > 0, "cluster needs at least one worker node");
    // Reject configs that would hang or mis-detect dead trackers (zero
    // slots, zero heartbeat, dead-timeout within one heartbeat). Call
    // `MrConfig::validate` directly for the typed error.
    if let Err(e) = mr_cfg.validate() {
        panic!("invalid MrConfig: {e}");
    }
    let mut sim = Sim::new(seed);
    let workers: Vec<NodeId> = (1..=n_workers as u32).map(NodeId).collect();
    let fabric = sim.spawn(Box::new(accelmr_net::Fabric::new(net_cfg, n_workers + 1)));
    let net = NetHandle { fabric };
    let dfs = accelmr_dfs::deploy_dfs(
        &mut sim,
        net,
        &dfs_cfg,
        NodeId::HEAD,
        &workers,
        materialized,
    );
    let mr = deploy_mr(&mut sim, net, &dfs, &mr_cfg, &workers, env.as_ref());
    MrCluster {
        sim,
        net,
        dfs,
        mr,
        // Worker ids are 1..=n_workers; the next join gets the next id.
        next_node: n_workers as u32 + 1,
        workers,
        elastic: ElasticCtx {
            dfs_cfg,
            mr_cfg,
            materialized,
            env,
        },
    }
}

/// Spawns the JobTracker on the head node and one TaskTracker per worker,
/// registering each with the JobTracker.
fn deploy_mr(
    sim: &mut Sim,
    net: NetHandle,
    dfs: &DfsHandle,
    cfg: &MrConfig,
    workers: &[NodeId],
    env: &dyn NodeEnvFactory,
) -> MrHandle {
    let head_node = NodeId::HEAD;
    let jobtracker = sim.spawn(Box::new(JobTracker::new(
        cfg.clone(),
        net,
        dfs.clone(),
        head_node,
    )));
    let mut tts = Vec::with_capacity(workers.len());
    for (i, &w) in workers.iter().enumerate() {
        let tt = TaskTracker::new(
            cfg.clone(),
            net,
            dfs.clone(),
            w,
            head_node,
            jobtracker,
            env.build(i),
        );
        let id = sim.spawn(Box::new(tt));
        tts.push((w, id));
        sim.post(
            jobtracker,
            Box::new(RegisterTaskTracker { node: w, actor: id }),
        );
    }
    MrHandle {
        jobtracker,
        head_node,
        tasktrackers: NodeRegistry::new(tts),
        net,
    }
}
