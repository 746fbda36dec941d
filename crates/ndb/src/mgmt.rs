//! Management node actor: configuration anchor and, crucially, the
//! **arbitrator** that resolves split-brain scenarios (§IV-A2).
//!
//! During a network partition, the first cohort of datanodes to reach the
//! active arbitrator wins; datanodes outside the winning cohort are told to
//! shut down, and datanodes that cannot reach any arbitrator at all shut
//! themselves down. Management nodes heartbeat each other so that the
//! arbitrator role fails over (lowest-index alive management node wins).
//!
//! The active management node also drives **online node-group
//! reconfiguration**: on a [`ReconfigReq`] it broadcasts an
//! [`EpochPrepare`] (coordinators switch to union write chains, gaining
//! nodes start scoped copy-fragment pulls), collects [`MigrationDone`]
//! reports from every datanode active under the new map, and then commits
//! the epoch with an [`EpochCommit`] broadcast.

use crate::messages::{
    ArbGrant, ArbPing, ArbPong, ArbRejoin, ArbRequest, ArbShutdown, EpochCommit, EpochPrepare,
    MgmtHeartbeat, MigrationDone, ReconfigReq,
};
use simnet::{Actor, Ctx, FastSet, NodeId, Payload, SimDuration, SimTime};
use std::any::Any;
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
struct TickMgmt;
/// Periodic retry of an in-flight reconfiguration: re-broadcasts the
/// `EpochPrepare` until every expected `MigrationDone` arrives (covers
/// lost announcements and datanodes that restarted mid-migration).
#[derive(Debug, Clone)]
struct TickReconfig;

/// An in-flight node-group reconfiguration at the active management node.
#[derive(Debug)]
struct Reconfig {
    epoch: u64,
    from_groups: u32,
    to_groups: u32,
    /// Datanode indices (active under the new map) that reported
    /// `MigrationDone` for this epoch.
    done: BTreeSet<u32>,
    /// Number of reports required: the new map's active length.
    expect: usize,
}

/// How long a decided arbitration episode stays authoritative before the
/// arbitrator forgets it (allows re-forming after recovery).
const EPISODE_TTL: SimDuration = SimDuration::from_secs(5);

/// The management-node actor.
pub struct MgmtActor {
    /// My index in the management list (0 = default arbitrator).
    my_rank: usize,
    /// All management node ids, rank order.
    mgmt_ids: Vec<NodeId>,
    /// Heartbeat period between management nodes.
    interval: SimDuration,
    /// Time without a heartbeat from a lower-ranked peer before this node
    /// considers it dead and takes over arbitration.
    failover_deadline: SimDuration,
    /// Last heartbeat seen per management peer.
    last_hb: Vec<SimTime>,
    /// The cohort granted survival in the current episode, if any.
    episode: Option<(FastSet<u32>, SimTime)>,
    /// Grants issued (for tests).
    pub grants: u64,
    /// Shutdown orders issued (for tests).
    pub shutdowns: u64,
    /// Rejoins accepted after node restarts (for tests).
    pub rejoins: u64,
    /// Datanode ids, index order (empty when reconfiguration is unused).
    datanode_ids: Vec<NodeId>,
    /// Replication factor (for computing the new map's active length).
    replication: usize,
    /// Latest committed partition-map epoch (0 = the deployment map).
    committed_epoch: u64,
    /// Active node-group count under the committed epoch.
    committed_groups: u32,
    /// Reconfiguration in flight, if any (one at a time).
    reconfig: Option<Reconfig>,
    /// Epoch commits driven to completion (for tests/benches).
    pub reconfigs_committed: u64,
}

impl MgmtActor {
    /// Creates the management actor with the given rank among `mgmt_ids`.
    pub fn new(my_rank: usize, mgmt_ids: Vec<NodeId>, interval: SimDuration) -> Self {
        let n = mgmt_ids.len();
        MgmtActor {
            my_rank,
            mgmt_ids,
            interval,
            failover_deadline: interval * 4,
            last_hb: vec![SimTime::ZERO; n],
            episode: None,
            grants: 0,
            shutdowns: 0,
            rejoins: 0,
            datanode_ids: Vec::new(),
            replication: 1,
            committed_epoch: 0,
            committed_groups: 0,
            reconfig: None,
            reconfigs_committed: 0,
        }
    }

    /// Overrides the arbitrator failover deadline (defaults to four
    /// heartbeat intervals).
    pub fn with_failover_deadline(mut self, deadline: SimDuration) -> Self {
        self.failover_deadline = deadline;
        self
    }

    /// Wires the datanode fleet for online node-group reconfiguration:
    /// the datanode ids (index order), the replication factor, and the
    /// node-group count active at deployment.
    pub fn with_datanodes(
        mut self,
        datanode_ids: Vec<NodeId>,
        replication: usize,
        initial_groups: usize,
    ) -> Self {
        self.datanode_ids = datanode_ids;
        self.replication = replication.max(1);
        self.committed_groups = initial_groups as u32;
        self
    }

    /// Latest committed partition-map epoch at this management node.
    pub fn committed_epoch(&self) -> u64 {
        self.committed_epoch
    }

    /// Active node-group count under the committed epoch.
    pub fn committed_groups(&self) -> u32 {
        self.committed_groups
    }

    /// Whether a reconfiguration is currently in flight at this node.
    pub fn reconfig_in_flight(&self) -> bool {
        self.reconfig.is_some()
    }

    /// Whether this node currently believes it is the active arbitrator
    /// (exposed for the chaos invariant checker: after a heal, exactly one
    /// management node may believe this).
    pub fn believes_active(&self, now: SimTime) -> bool {
        self.is_active(now)
    }

    /// Whether this node currently believes it is the active arbitrator:
    /// every lower-ranked management node looks dead to it.
    fn is_active(&self, now: SimTime) -> bool {
        let deadline = self.failover_deadline;
        (0..self.my_rank).all(|r| now.saturating_since(self.last_hb[r]) > deadline)
    }

    fn episode_cohort(&mut self, now: SimTime) -> Option<&FastSet<u32>> {
        if let Some((_, at)) = &self.episode {
            if now.saturating_since(*at) > EPISODE_TTL {
                self.episode = None;
            }
        }
        self.episode.as_ref().map(|(c, _)| c)
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
        let me = self.my_rank as u32;
        for (r, &id) in self.mgmt_ids.iter().enumerate() {
            if r != self.my_rank {
                ctx.send_sized(id, 32, MgmtHeartbeat { from: me });
            }
        }
        ctx.schedule(self.interval, TickMgmt);
    }

    fn on_ping(&mut self, ctx: &mut Ctx<'_>, from_node: NodeId, m: ArbPing) {
        let now = ctx.now();
        if !self.is_active(now) {
            return; // only the active arbitrator answers
        }
        // If an episode has been decided and this datanode lost, order it down.
        if let Some(cohort) = self.episode_cohort(now) {
            if !cohort.contains(&m.from) {
                self.shutdowns += 1;
                ctx.send_sized(from_node, 32, ArbShutdown);
                return;
            }
        }
        ctx.send_sized(from_node, 32, ArbPong);
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_>, from_node: NodeId, m: ArbRequest) {
        let now = ctx.now();
        if !self.is_active(now) {
            return;
        }
        match self.episode_cohort(now) {
            None => {
                // First cohort to ask wins the episode (§IV-A2: "the
                // arbitrator accepts the first set of database nodes to
                // contact it and tells the remaining set to shutdown").
                self.episode = Some((m.cohort.iter().copied().collect(), now));
                self.grants += 1;
                ctx.send_sized(from_node, 32, ArbGrant);
            }
            Some(cohort) => {
                if cohort.contains(&m.from) {
                    self.grants += 1;
                    ctx.send_sized(from_node, 32, ArbGrant);
                } else {
                    self.shutdowns += 1;
                    ctx.send_sized(from_node, 32, ArbShutdown);
                }
            }
        }
    }

    // --- Online node-group reconfiguration --------------------------------

    fn on_reconfig_req(&mut self, ctx: &mut Ctx<'_>, m: ReconfigReq) {
        let now = ctx.now();
        if !self.is_active(now) || self.datanode_ids.is_empty() {
            return; // only the active arbitrator drives reconfiguration
        }
        if self.reconfig.is_some() {
            return; // one reconfiguration at a time
        }
        let provisioned = (self.datanode_ids.len() / self.replication).max(1);
        let target = (m.target_groups as usize).clamp(1, provisioned) as u32;
        if target == self.committed_groups {
            return; // already there
        }
        let epoch = self.committed_epoch + 1;
        let expect = target as usize * self.replication;
        self.reconfig = Some(Reconfig {
            epoch,
            from_groups: self.committed_groups,
            to_groups: target,
            done: BTreeSet::new(),
            expect,
        });
        self.broadcast_prepare(ctx);
        ctx.schedule(self.interval * 4, TickReconfig);
    }

    fn broadcast_prepare(&mut self, ctx: &mut Ctx<'_>) {
        let (epoch, from_groups, to_groups) = match &self.reconfig {
            Some(r) => (r.epoch, r.from_groups, r.to_groups),
            None => return,
        };
        let msg = EpochPrepare { epoch, from_groups, to_groups };
        for &dn in &self.datanode_ids {
            ctx.send_sized(dn, 48, msg);
        }
    }

    fn on_migration_done(&mut self, ctx: &mut Ctx<'_>, m: MigrationDone) {
        let committed = {
            let r = match &mut self.reconfig {
                Some(r) if r.epoch == m.epoch => r,
                _ => return, // stale or unknown epoch
            };
            r.done.insert(m.from);
            r.done.len() >= r.expect
        };
        if !committed {
            return;
        }
        let r = self.reconfig.take().expect("checked above");
        self.committed_epoch = r.epoch;
        self.committed_groups = r.to_groups;
        self.reconfigs_committed += 1;
        let msg = EpochCommit { epoch: r.epoch, groups: r.to_groups };
        for &dn in &self.datanode_ids {
            ctx.send_sized(dn, 48, msg);
        }
    }

    fn on_tick_reconfig(&mut self, ctx: &mut Ctx<'_>) {
        if self.reconfig.is_none() {
            return; // committed meanwhile; let the timer die
        }
        // Re-broadcast the prepare: datanodes treat it idempotently and
        // re-send a lost `MigrationDone`; a datanode that restarted and
        // lost its pending state re-learns it.
        self.broadcast_prepare(ctx);
        ctx.schedule(self.interval * 4, TickReconfig);
    }

    /// A restarted datanode announces itself: forget its previous
    /// incarnation. Stale-identity fix — without this, a node that died
    /// during a decided episode would be ordered down again on its first
    /// ping after the restart, even though it recovered legitimately.
    fn on_rejoin(&mut self, ctx: &mut Ctx<'_>, m: ArbRejoin) {
        let now = ctx.now();
        // Touch the episode first so an expired one is dropped, not edited.
        let _ = self.episode_cohort(now);
        if let Some((cohort, _)) = &mut self.episode {
            cohort.insert(m.from);
        }
        self.rejoins += 1;
    }
}

impl Actor for MgmtActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        for t in &mut self.last_hb {
            *t = now;
        }
        ctx.schedule(self.interval, TickMgmt);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Box<dyn Payload>) {
        let any = msg.into_any();
        let any = match any.downcast::<ArbPing>() {
            Ok(m) => return self.on_ping(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<ArbRequest>() {
            Ok(m) => return self.on_request(ctx, from, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<ArbRejoin>() {
            Ok(m) => return self.on_rejoin(ctx, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<ReconfigReq>() {
            Ok(m) => return self.on_reconfig_req(ctx, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<MigrationDone>() {
            Ok(m) => return self.on_migration_done(ctx, *m),
            Err(m) => m,
        };
        let any = match any.downcast::<TickReconfig>() {
            Ok(_) => return self.on_tick_reconfig(ctx),
            Err(m) => m,
        };
        let any = match any.downcast::<MgmtHeartbeat>() {
            Ok(m) => {
                self.last_hb[m.from as usize] = ctx.now();
                return;
            }
            Err(m) => m,
        };
        match any.downcast::<TickMgmt>() {
            Ok(_) => self.on_tick(ctx),
            Err(m) => debug_assert!(false, "mgmt got unknown message {m:?}"),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
