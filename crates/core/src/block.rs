//! The block storage layer: datanodes (DNs) that store the blocks of large
//! files (> 128 KB), heartbeat to the namenodes, and execute re-replication
//! commands from the leader (§IV-C).
//!
//! Small files never reach this layer: their data lives inline in the
//! metadata store on NVMe next to their metadata (§II-A3).

use crate::namenode::BlockDnHeartbeat;
use crate::view::FsView;
use simnet::{Actor, Ctx, DiskOp, FastMap, NodeId, Payload, SimDuration};
use std::any::Any;
use std::sync::Arc;

/// Lane-class name for the datanode I/O pool.
pub fn dn_lane() -> &'static str {
    "io"
}

#[derive(Debug, Clone)]
struct TickHb;

/// Namenode → datanode: persist a block (server-side placement path). The
/// first datanode stores and forwards the payload down the `pipeline`, as
/// the HDFS write pipeline does — so replication traffic (including its
/// cross-AZ hops) is on the wire.
#[derive(Debug, Clone)]
pub struct StoreBlock {
    /// Block id.
    pub block: u64,
    /// Bytes.
    pub len: u64,
    /// Owning file inode.
    pub inode: u64,
    /// Remaining replica targets (datanode indices) downstream.
    pub pipeline: Vec<u32>,
}

/// Namenode → datanode: drop a block (file deleted).
#[derive(Debug, Clone, Copy)]
pub struct InvalidateBlock {
    /// Block id.
    pub block: u64,
}

/// Leader → surviving datanode: copy `block` to `target` (re-replication
/// after a datanode failure).
#[derive(Debug, Clone, Copy)]
pub struct ReplicateBlockCmd {
    /// Block id.
    pub block: u64,
    /// Owning file inode.
    pub inode: u64,
    /// Destination datanode index.
    pub target: u32,
    /// The leader namenode to ack to.
    pub leader: NodeId,
}

/// Datanode → datanode: the block bytes of a re-replication copy.
#[derive(Debug, Clone, Copy)]
pub struct CopyBlock {
    /// Block id.
    pub block: u64,
    /// Bytes.
    pub len: u64,
    /// Owning file inode.
    pub inode: u64,
    /// Leader to ack to once stored.
    pub leader: NodeId,
}

/// Datanode → leader: a re-replication copy completed.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaCopied {
    /// Block id.
    pub block: u64,
    /// Owning file inode.
    pub inode: u64,
    /// Datanode now holding the new replica.
    pub new_dn: u32,
}

/// The block-storage datanode actor.
pub struct BlockDnActor {
    view: Arc<FsView>,
    /// My block-datanode index.
    pub my_idx: u32,
    /// Stored blocks: id → (len, inode).
    blocks: FastMap<u64, (u64, u64)>,
    /// Heartbeat period.
    pub heartbeat: SimDuration,
}

impl BlockDnActor {
    /// Creates block datanode `my_idx`.
    pub fn new(view: Arc<FsView>, my_idx: u32) -> Self {
        BlockDnActor {
            view,
            my_idx,
            blocks: FastMap::default(),
            heartbeat: SimDuration::from_millis(500),
        }
    }

    /// Number of blocks stored.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Whether a block is stored here.
    pub fn has_block(&self, block: u64) -> bool {
        self.blocks.contains_key(&block)
    }

    /// Total stored bytes.
    pub fn stored_bytes(&self) -> u64 {
        self.blocks.values().map(|&(len, _)| len).sum()
    }
}

impl Actor for BlockDnActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(self.heartbeat, TickHb);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Box<dyn Payload>) {
        let any = msg.into_any();
        let any = match any.downcast::<TickHb>() {
            Ok(_) => {
                for &nn in &self.view.nn_ids {
                    ctx.send_sized(nn, 48, BlockDnHeartbeat { dn_idx: self.my_idx });
                }
                ctx.schedule(self.heartbeat, TickHb);
                return;
            }
            Err(m) => m,
        };
        let any = match any.downcast::<StoreBlock>() {
            Ok(m) => {
                ctx.execute(dn_lane(), SimDuration::from_micros(60));
                let done = ctx.disk_io(DiskOp::Write, m.len);
                self.blocks.insert(m.block, (m.len, m.inode));
                // Forward the payload down the write pipeline.
                let mut rest = m.pipeline.clone();
                if !rest.is_empty() {
                    let next = rest.remove(0);
                    if let Some(&node) = self.view.dn_ids.get(next as usize) {
                        let fwd = StoreBlock { pipeline: rest, ..*m };
                        ctx.send_sized_from(done, node, m.len.max(1024), fwd);
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let any = match any.downcast::<InvalidateBlock>() {
            Ok(m) => {
                self.blocks.remove(&m.block);
                return;
            }
            Err(m) => m,
        };
        let any = match any.downcast::<ReplicateBlockCmd>() {
            Ok(m) => {
                if let Some(&(len, inode)) = self.blocks.get(&m.block) {
                    // Read from disk, then stream to the target.
                    let done = ctx.disk_io(DiskOp::Read, len);
                    if let Some(&target) = self.view.dn_ids.get(m.target as usize) {
                        ctx.send_sized_from(
                            done,
                            target,
                            len.max(1024),
                            CopyBlock { block: m.block, len, inode, leader: m.leader },
                        );
                    }
                }
                return;
            }
            Err(m) => m,
        };
        match any.downcast::<CopyBlock>() {
            Ok(m) => {
                ctx.execute(dn_lane(), SimDuration::from_micros(60));
                let done = ctx.disk_io(DiskOp::Write, m.len);
                self.blocks.insert(m.block, (m.len, m.inode));
                ctx.send_sized_from(
                    done,
                    m.leader,
                    64,
                    ReplicaCopied { block: m.block, inode: m.inode, new_dn: self.my_idx },
                );
            }
            Err(m) => debug_assert!(false, "block dn got unknown message {m:?}"),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
