//! Deployment: materializes a full HopsFS / HopsFS-CL cluster — NDB
//! metadata storage, namenodes, block datanodes — into a simulation, and
//! bulk-loads an initial namespace.

use crate::block::BlockDnActor;
use crate::client::{ClientStats, FsClientActor, OpSource};
use crate::cloudstore::{CloudStoreActor, CloudStoreState};
use crate::config::{BlockBackend, FsConfig};
use crate::meta::{encode_sequence, FsSchema, InodeRecord};
use crate::namenode::{NameNodeActor, NN_WORKER};
use crate::types::InodeId;
use crate::view::FsView;
use ndb::{NdbCluster, Schema};
use simnet::{AzId, Disk, FastMap, HostId, LaneClassSpec, Location, NodeId, NodeSpec, Simulation};
use std::sync::Mutex;
use std::sync::Arc;

/// Bulk-loader id space: the sequence row starts here, so directly loaded
/// inodes use ids below it.
const BULK_ID_CEILING: u64 = 1 << 20;

/// A deployed HopsFS cluster.
pub struct FsCluster {
    /// Shared deployment view.
    pub view: Arc<FsView>,
    /// The underlying NDB cluster handle.
    pub ndb: NdbCluster,
    /// Object-store accounting when the cloud block backend is enabled.
    pub cloud: Option<Arc<Mutex<CloudStoreState>>>,
    bulk_next_id: u64,
    bulk_dirs: FastMap<String, u64>,
}

/// Builds the full stack into `sim`: the NDB cluster, `cfg.nn_count`
/// namenodes, and `dn_count` block-storage datanodes, plus the bootstrap
/// rows (root inode and id sequence).
///
/// # Panics
///
/// Panics if the configuration is inconsistent (e.g. no AZs).
pub fn build_fs_cluster(sim: &mut Simulation, cfg: FsConfig, dn_count: usize) -> FsCluster {
    let mut schema = Schema::new();
    let fs = FsSchema::register(&mut schema, cfg.read_backup_tables());
    let ndb = ndb::build_cluster(sim, cfg.ndb.clone(), schema, &cfg.azs);

    // Namenodes: round-robin over the deployment AZs, each on its own host.
    let mut nn_ids = Vec::with_capacity(cfg.nn_count);
    let mut nn_locations = Vec::with_capacity(cfg.nn_count);
    let mut nn_domains = Vec::with_capacity(cfg.nn_count);
    let nn_lanes = vec![LaneClassSpec::new(NN_WORKER, cfg.nn_costs.worker_threads)];

    // Pre-compute ids so the FsView can be built before the actors.
    let base = sim.node_count() as u32;
    for i in 0..cfg.nn_count {
        let az = cfg.azs[i % cfg.azs.len()];
        nn_ids.push(NodeId(base + i as u32));
        nn_locations.push(Location { az, host: HostId(base + i as u32) });
        nn_domains.push(if cfg.az_aware { Some(az) } else { None });
    }
    let dn_base = base + cfg.nn_count as u32;
    let mut dn_ids = Vec::with_capacity(dn_count);
    let mut dn_azs = Vec::with_capacity(dn_count);
    for i in 0..dn_count {
        dn_ids.push(NodeId(dn_base + i as u32));
        dn_azs.push(cfg.azs[i % cfg.azs.len()]);
    }
    let cloud_base = dn_base + dn_count as u32;
    let cloud_ids: Vec<NodeId> = if cfg.block_backend == BlockBackend::CloudStore {
        (0..cfg.azs.len()).map(|i| NodeId(cloud_base + i as u32)).collect()
    } else {
        Vec::new()
    };
    let controller_base = cloud_base + cloud_ids.len() as u32;
    let controller_id = cfg.elastic.enabled.then_some(NodeId(controller_base));

    let view = FsView {
        ndb: Arc::clone(&ndb.view),
        fs,
        config: cfg,
        nn_ids: nn_ids.clone(),
        nn_locations: nn_locations.clone(),
        nn_domains,
        dn_ids: dn_ids.clone(),
        dn_azs: dn_azs.clone(),
        cloud_ids: cloud_ids.clone(),
        controller_id,
    }
    .shared();

    for i in 0..view.config.nn_count {
        let spec = NodeSpec::new(format!("nn-{i}"), nn_locations[i])
            .with_lanes(nn_lanes.clone())
            .with_layer("namenode");
        let id = sim.add_node(spec, Box::new(NameNodeActor::new(Arc::clone(&view), i)));
        assert_eq!(id, nn_ids[i], "node id prediction drifted");
    }
    for i in 0..dn_count {
        let loc = Location { az: dn_azs[i], host: HostId(dn_base + i as u32) };
        let spec = NodeSpec::new(format!("blockdn-{i}"), loc)
            .with_lanes(vec![LaneClassSpec::new(crate::block::dn_lane(), 8)])
            .with_disk(Disk::new(800_000_000))
            .with_layer("blockdn");
        let id = sim.add_node(spec, Box::new(BlockDnActor::new(Arc::clone(&view), i as u32)));
        assert_eq!(id, dn_ids[i], "node id prediction drifted");
    }

    // Cloud object-store front-ends (one per AZ), sharing regional state.
    let cloud = if view.config.block_backend == BlockBackend::CloudStore {
        let state = CloudStoreState::shared();
        for (i, &az) in view.config.azs.iter().enumerate() {
            let loc = Location { az, host: HostId(cloud_base + i as u32) };
            let id = sim.add_node(
                NodeSpec::new(format!("cloudstore-{az}"), loc).with_layer("cloudstore"),
                Box::new(CloudStoreActor::new(Arc::clone(&state))),
            );
            assert_eq!(id, cloud_ids[i], "node id prediction drifted");
        }
        Some(state)
    } else {
        None
    };

    // The namenode pool controller (see `crate::elastic`): its own host in
    // the first AZ, outside the serving path.
    if let Some(cid) = controller_id {
        let loc = Location { az: view.config.azs[0], host: HostId(controller_base) };
        let id = sim.add_node(
            NodeSpec::new("nn-controller", loc).with_layer("elastic"),
            Box::new(crate::elastic::ElasticController::new(Arc::clone(&view))),
        );
        assert_eq!(id, cid, "node id prediction drifted");
    }

    let mut cluster = FsCluster {
        view,
        ndb,
        cloud,
        bulk_next_id: InodeId::ROOT.0 + 1,
        bulk_dirs: FastMap::default(),
    };
    cluster.bulk_dirs.insert("/".to_string(), InodeId::ROOT.0);

    // Bootstrap rows: the root inode and the id sequence.
    let fsv = cluster.view.fs;
    cluster.ndb.load_row(
        sim,
        fsv.inodes,
        FsSchema::inode_key(InodeId::NONE, ""),
        InodeRecord::dir(InodeId::ROOT, 0).encode(),
    );
    cluster.ndb.load_row(
        sim,
        fsv.sequences,
        FsSchema::sequence_key("ids"),
        encode_sequence(BULK_ID_CEILING),
    );
    cluster
}

impl FsCluster {
    /// Bulk-creates a directory (and its ancestors) directly in the metadata
    /// store, bypassing the protocol — for pre-loading benchmark namespaces.
    /// Returns the directory's inode id.
    ///
    /// # Panics
    ///
    /// Panics if the bulk id space is exhausted or the path is invalid.
    pub fn bulk_mkdir_p(&mut self, sim: &mut Simulation, path: &str) -> u64 {
        let p = crate::path::FsPath::parse(path).expect("valid path");
        let mut cur = "/".to_string();
        let mut cur_id = InodeId::ROOT.0;
        for comp in p.components() {
            let child = if cur == "/" { format!("/{comp}") } else { format!("{cur}/{comp}") };
            cur_id = match self.bulk_dirs.get(&child) {
                Some(&id) => id,
                None => {
                    let id = self.alloc_bulk_id();
                    let rec = InodeRecord::dir(InodeId(id), 0);
                    let parent = *self.bulk_dirs.get(&cur).expect("ancestor loaded");
                    self.ndb.load_row(
                        sim,
                        self.view.fs.inodes,
                        FsSchema::inode_key(InodeId(parent), comp),
                        rec.encode(),
                    );
                    self.bulk_dirs.insert(child.clone(), id);
                    id
                }
            };
            cur = child;
        }
        cur_id
    }

    /// Bulk-creates an (empty or inline) file; ancestors are created as
    /// needed. Returns the file's inode id.
    ///
    /// # Panics
    ///
    /// Panics on invalid paths or bulk id exhaustion.
    pub fn bulk_add_file(&mut self, sim: &mut Simulation, path: &str, size: u64) -> u64 {
        let p = crate::path::FsPath::parse(path).expect("valid path");
        let parent_path = p.parent().expect("file cannot be root").to_string();
        let parent = self.bulk_mkdir_p(sim, &parent_path);
        let id = self.alloc_bulk_id();
        let mut rec = InodeRecord::file(InodeId(id), 0, self.view.config.block_replication);
        rec.size = size;
        if size > 0 && size < self.view.config.small_file_max {
            rec.inline_len = size as u32;
            self.ndb.load_row(
                sim,
                self.view.fs.small_files,
                FsSchema::small_file_key(InodeId(id)),
                bytes::Bytes::from(vec![0u8; size as usize]),
            );
        }
        self.ndb.load_row(
            sim,
            self.view.fs.inodes,
            FsSchema::inode_key(InodeId(parent), p.name().expect("file has a name")),
            rec.encode(),
        );
        id
    }

    fn alloc_bulk_id(&mut self) -> u64 {
        let id = self.bulk_next_id;
        self.bulk_next_id += 1;
        assert!(id < BULK_ID_CEILING, "bulk namespace too large");
        id
    }

    /// Adds a client session actor in `az`. AZ-awareness follows the cluster
    /// configuration.
    pub fn add_client(
        &self,
        sim: &mut Simulation,
        az: AzId,
        source: Box<dyn OpSource>,
        stats: Arc<Mutex<ClientStats>>,
    ) -> NodeId {
        let host = HostId(sim.node_count() as u32);
        let domain = if self.view.config.az_aware { Some(az) } else { None };
        let actor = FsClientActor::new(Arc::clone(&self.view), domain, source, stats);
        sim.add_node(
            NodeSpec::new("fs-client", Location { az, host }).with_layer("fs-client"),
            Box::new(actor),
        )
    }

    /// Adds an open-loop client session in `az`: Poisson arrivals at
    /// `rate_per_sec`, an AIMD in-flight window, and a bounded arrival
    /// queue of `queue_cap` (see [`crate::openloop::OpenLoopClientActor`]).
    pub fn add_open_loop_client(
        &self,
        sim: &mut Simulation,
        az: AzId,
        source: Box<dyn OpSource>,
        stats: Arc<Mutex<ClientStats>>,
        rate_per_sec: f64,
        queue_cap: usize,
    ) -> NodeId {
        let host = HostId(sim.node_count() as u32);
        let actor = crate::openloop::OpenLoopClientActor::new(
            Arc::clone(&self.view),
            source,
            stats,
            rate_per_sec,
            queue_cap,
        );
        sim.add_node(
            NodeSpec::new("ol-client", Location { az, host }).with_layer("fs-client"),
            Box::new(actor),
        )
    }
}

/// Builds only the [`FsView`] (fake node ids), for pure-function tests such
/// as placement.
pub fn build_fs_view_for_tests(cfg: FsConfig, dn_count: usize) -> Arc<FsView> {
    let mut schema = Schema::new();
    let fs = FsSchema::register(&mut schema, cfg.read_backup_tables());
    let ndb_view = ndb::ClusterView {
        config: cfg.ndb.clone(),
        schema,
        pmap: ndb::PartitionMap::new(&cfg.ndb),
        datanode_ids: (0..cfg.ndb.datanodes.len() as u32).map(NodeId).collect(),
        datanode_locations: (0..cfg.ndb.datanodes.len())
            .map(|i| Location { az: cfg.azs[i % cfg.azs.len()], host: HostId(i as u32) })
            .collect(),
        mgmt_ids: vec![NodeId(1000)],
    }
    .shared();
    let nn = cfg.nn_count;
    let azs = cfg.azs.clone();
    FsView {
        ndb: ndb_view,
        fs,
        nn_ids: (2000..2000 + nn as u32).map(NodeId).collect(),
        nn_locations: (0..nn)
            .map(|i| Location { az: azs[i % azs.len()], host: HostId(2000 + i as u32) })
            .collect(),
        nn_domains: (0..nn)
            .map(|i| if cfg.az_aware { Some(azs[i % azs.len()]) } else { None })
            .collect(),
        dn_ids: (3000..3000 + dn_count as u32).map(NodeId).collect(),
        dn_azs: (0..dn_count).map(|i| azs[i % azs.len()]).collect(),
        cloud_ids: Vec::new(),
        controller_id: None,
        config: cfg,
    }
    .shared()
}
