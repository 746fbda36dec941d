//! Repository benchmark: the performance of the simulated HopsFS-CL and
//! CephFS deployments, and the simulator's own cost, end to end and layer by
//! layer.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload spotify-cl --seed 7 --seconds 10 --trace 0
//! ```
//!
//! A run repeats one *cell* of its workload until `--seconds` of wall-clock
//! time have passed, and at least [`MIN_CELLS`] times. A cell deploys the
//! simulated cluster and bulk-loads its namespace (`setup_s`), then
//! simulates a warm-up and a measurement window under closed-loop client
//! sessions (`host_run_s`; the simulated metrics cover the window). Host
//! times are CPU time of the one thread that runs the simulation; the
//! end-to-end ones are scaled to a fixed host speed, measured by a reference
//! workload timed before every cell.
//!
//! Every cell of a run is simulated from the run's seed, so every cell must
//! replay the first one exactly up to the end of its window (checked by
//! fingerprint). The first cell then stops its sessions, lets the cluster
//! drain, and is audited: cluster invariants, replica agreement, and every
//! path against a sequential model of the acknowledged operations. The
//! simulated metrics come from the first cell; host times are medians over
//! all cells.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer ones with `--trace 1`. Per-layer numbers
//! come from the simulation's always-on metrics registry and the actors'
//! counters, so both modes simulate exactly the same cells.

use cephsim::{build_ceph_cluster, BalanceMode, CephClientActor, CephCluster, CephConfig};
use hopsfs::meta::{FsSchema, InodeRecord};
use hopsfs::{
    build_fs_cluster, check_invariants, fragment_divergence, ClientStats, FsClientActor, FsCluster,
    FsConfig, FsOk, FsOp, FsResult, InodeId, NameNodeActor, OpKind, OpSource,
};
use rand::rngs::StdRng;
use simnet::{AzId, Histogram, NodeId, SimDuration, SimTime, Simulation};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workload::{MicroOp, MicroSource, Mix, Namespace, NamespaceSpec, SpotifySource};

const USAGE: &str =
    "usage: perfbench --workload <spotify-cl|spotify-ceph|create-cl|cached-read-cl> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Fewest cells a run measures, however long each one takes.
const MIN_CELLS: usize = 5;
/// Scale-down factor of every deployment (thread pools and CPU costs), as in
/// the figure benches. Simulated rates are reported as simulated, unscaled.
const SCALE: usize = 8;
/// Metadata servers: namenodes or MDSs, one per AZ.
const SERVERS: usize = 3;
/// Metadata storage nodes: NDB datanodes or OSDs.
const STORAGE_NODES: usize = 6;
/// Simulated time the cluster gets to finish in-flight work after the
/// sessions stop, before the audit.
const DRAIN: SimDuration = SimDuration::from_secs(2);
/// CPU seconds [`reference_s`] takes on the machine the bounds in
/// `BENCHMARK.json` were set on (a shared 2-core x86-64 VM).
const REFERENCE_S: f64 = 0.04;

/// The workloads, each chosen to stress a different path through the layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// The paper's Spotify mix on HopsFS-CL: clients → AZ-local namenodes →
    /// NDB transactions, with no client cache (leases off).
    SpotifyCl,
    /// The same mix on the CephFS baseline: kernel-cache hits, the
    /// single-lock MDS, and the journal on the OSDs.
    SpotifyCeph,
    /// createFile only on HopsFS-CL: every op is an NDB write transaction
    /// (locks, 2PC, redo log), so no read cache can help.
    CreateCl,
    /// A read-heavy zipf mix on HopsFS-CL with leased client caching on, so
    /// most reads never leave the client.
    CachedReadCl,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SpotifyCl,
        Workload::SpotifyCeph,
        Workload::CreateCl,
        Workload::CachedReadCl,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SpotifyCl => "spotify-cl",
            Workload::SpotifyCeph => "spotify-ceph",
            Workload::CreateCl => "create-cl",
            Workload::CachedReadCl => "cached-read-cl",
        }
    }

    fn is_ceph(self) -> bool {
        self == Workload::SpotifyCeph
    }

    /// Closed-loop client sessions, spread round-robin over the three AZs.
    fn sessions(self) -> u64 {
        match self {
            // Lease hits complete in 5 µs of simulated time, so few sessions
            // already issue many ops.
            Workload::CachedReadCl => 6,
            _ => 24,
        }
    }

    /// Simulated warm-up before the window: leader election and client
    /// discovery settle; with leases on, namenodes grant leases only once
    /// the election-visibility window (~6 s after boot) has passed.
    fn warmup(self) -> SimDuration {
        match self {
            Workload::CachedReadCl => SimDuration::from_secs(8),
            _ => SimDuration::from_secs(1),
        }
    }

    /// Simulated measurement window, long enough that the simulated
    /// metrics vary little from seed to seed.
    fn window(self) -> SimDuration {
        match self {
            Workload::SpotifyCeph => SimDuration::from_secs(20),
            Workload::CachedReadCl => SimDuration::from_secs(4),
            _ => SimDuration::from_secs(2),
        }
    }

    fn namespace(self) -> NamespaceSpec {
        match self {
            // 360 files: the whole namespace fits the 4096-entry lease cache.
            Workload::CachedReadCl => NamespaceSpec {
                users: 60,
                dirs_per_user: 2,
                files_per_dir: 3,
                zipf_s: 1.1,
                ..NamespaceSpec::default()
            },
            // 4800 files: more than the CephFS client cache (1024 entries).
            _ => NamespaceSpec::default(),
        }
    }

    fn private_dir(self, session: u64) -> String {
        match self {
            Workload::CreateCl => MicroSource::private_dir_for(session),
            _ => SpotifySource::private_dir_for(session),
        }
    }

    fn source(self, ns: &Arc<Namespace>, session: u64) -> Box<dyn OpSource> {
        let ns = Arc::clone(ns);
        match self {
            Workload::SpotifyCl | Workload::SpotifyCeph => {
                Box::new(SpotifySource::new(ns, Mix::SPOTIFY, session))
            }
            Workload::CreateCl => Box::new(MicroSource::new(MicroOp::Create, ns, session, 0)),
            Workload::CachedReadCl => Box::new(SpotifySource::new(ns, Mix::READ_HEAVY, session)),
        }
    }
}

/// One path's expected state.
#[derive(Debug, Clone, Copy)]
struct Expect {
    dir: bool,
    /// Permission set by the last acknowledged setPerm, if any.
    perm: Option<u16>,
}

/// What a lookup found at a path.
struct Found {
    dir: bool,
    perm: u16,
    /// A subtree-operation lock flag is still set on the inode.
    locked: bool,
}

/// The namespace that the acknowledged operations imply, applied in
/// acknowledgement order. Sessions mutate disjoint private directories
/// (setPerm on shared files always writes the same bits), so one sequential
/// model holds for the whole concurrent run.
#[derive(Default)]
struct Model {
    live: BTreeMap<String, Expect>,
    /// Paths an acknowledged delete or rename removed.
    gone: BTreeSet<String>,
}

impl Model {
    /// Adds `path` and every ancestor as directories.
    fn add_dirs(&mut self, path: &str) {
        let mut cur = String::new();
        for name in path.split('/').filter(|n| !n.is_empty()) {
            cur.push('/');
            cur.push_str(name);
            self.live.entry(cur.clone()).or_insert(Expect {
                dir: true,
                perm: None,
            });
        }
    }

    fn add(&mut self, path: String, dir: bool) {
        self.gone.remove(&path);
        self.live.insert(path, Expect { dir, perm: None });
    }

    fn apply(&mut self, op: &FsOp) {
        match op {
            FsOp::Mkdir { path } => self.add(path.to_string(), true),
            FsOp::Create { path, .. } => self.add(path.to_string(), false),
            FsOp::SetPerm { path, perm } => {
                if let Some(e) = self.live.get_mut(&path.to_string()) {
                    e.perm = Some(*perm);
                }
            }
            FsOp::Delete { path, .. } => {
                self.take_subtree(&path.to_string());
            }
            FsOp::Rename { src, dst } => {
                let (src, dst) = (src.to_string(), dst.to_string());
                for (path, e) in self.take_subtree(&src) {
                    let moved = format!("{dst}{}", &path[src.len()..]);
                    self.gone.remove(&moved);
                    self.live.insert(moved, e);
                }
            }
            _ => {}
        }
    }

    /// Removes `root` and everything under it, returning what was removed.
    fn take_subtree(&mut self, root: &str) -> Vec<(String, Expect)> {
        let keys: Vec<String> = self
            .live
            .range(root.to_string()..)
            .take_while(|(k, _)| k.starts_with(root))
            .filter(|(k, _)| k.len() == root.len() || k[root.len()..].starts_with('/'))
            .map(|(k, _)| k.clone())
            .collect();
        keys.into_iter()
            .map(|k| {
                let e = self.live.remove(&k).expect("key was just listed");
                self.gone.insert(k.clone());
                (k, e)
            })
            .collect()
    }

    /// Checks every live path and every removed one against `lookup`.
    fn check(&self, lookup: impl Fn(&str) -> Result<Option<Found>, String>) -> Result<(), String> {
        for (path, want) in &self.live {
            let got = lookup(path)?.ok_or_else(|| format!("{path}: acknowledged but missing"))?;
            if got.dir != want.dir {
                return Err(format!(
                    "{path}: directory flag is {}, expected {}",
                    got.dir, want.dir
                ));
            }
            if want.perm.is_some_and(|p| p != got.perm) {
                return Err(format!(
                    "{path}: permission {:o} lost an acknowledged setPerm",
                    got.perm
                ));
            }
            if got.locked {
                return Err(format!("{path}: subtree lock left behind"));
            }
        }
        for path in &self.gone {
            if lookup(path)?.is_some() {
                return Err(format!("{path}: deleted or renamed away but still present"));
            }
        }
        Ok(())
    }

    fn digest(&self) -> u64 {
        let mut s = String::new();
        for (path, e) in &self.live {
            s.push_str(&format!("{path}:{e:?};"));
        }
        for path in &self.gone {
            s.push_str(&format!("-{path};"));
        }
        fnv1a(&s)
    }
}

/// What the benchmark sees at its boundary with the client sessions, shared
/// by all sessions of a cell.
struct Probe {
    /// The measurement window; sessions issue nothing from its end on.
    window: (SimTime, SimTime),
    /// Latency of every op that completed inside the window, ns.
    latencies_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    model: Model,
}

/// Wraps a workload's op source: stops issuing at the end of the window and
/// reports every op's latency and outcome to the [`Probe`].
struct Session {
    inner: Box<dyn OpSource>,
    probe: Arc<Mutex<Probe>>,
    /// When the op in flight was issued.
    issued: Option<SimTime>,
}

impl OpSource for Session {
    fn next_op(&mut self, rng: &mut StdRng, now: SimTime) -> Option<FsOp> {
        let mut probe = self.probe.lock().expect("probe lock");
        if let Some(at) = self.issued.take() {
            // Sessions have no think time: the next op is requested at the
            // instant the previous one completed.
            if now >= probe.window.0 && now < probe.window.1 {
                probe.latencies_ns.push(now.saturating_since(at).as_nanos());
            }
        }
        if now >= probe.window.1 {
            return None;
        }
        drop(probe);
        let op = self.inner.next_op(rng, now)?;
        self.issued = Some(now);
        Some(op)
    }

    fn on_result(&mut self, op: &FsOp, result: &FsResult) {
        self.inner.on_result(op, result);
        let mut probe = self.probe.lock().expect("probe lock");
        probe.attempted += 1;
        match result {
            Ok(_) => probe.model.apply(op),
            Err(_) => probe.failed += 1,
        }
    }
}

enum System {
    Fs(FsCluster),
    Ceph(CephCluster),
}

/// One deployed cell.
struct Cell {
    sim: Simulation,
    system: System,
    stats: Arc<Mutex<ClientStats>>,
    probe: Arc<Mutex<Probe>>,
    clients: Vec<NodeId>,
}

/// Host CPU seconds spent in each phase of a cell.
#[derive(Debug, Default, Clone, Copy)]
struct Phases {
    deploy: f64,
    load: f64,
    warmup: f64,
    window: f64,
}

type Metric = (&'static str, f64, &'static str);

/// Everything one cell measured.
struct CellResult {
    phases: Phases,
    /// Simulation events inside the window.
    events: u64,
    /// Equal for every cell of a run.
    fingerprint: u64,
    attempted: u64,
    failed: u64,
    audit: Result<(), String>,
    /// Ops that completed inside the window.
    samples: usize,
    ops_per_s: f64,
    mean_ms: f64,
    p99_ms: f64,
    layers: Vec<Metric>,
}

fn deploy(w: Workload, seed: u64, phases: &mut Phases) -> Cell {
    let start = SimTime::ZERO + w.warmup();
    let probe = Arc::new(Mutex::new(Probe {
        window: (start, start + w.window()),
        latencies_ns: Vec::new(),
        attempted: 0,
        failed: 0,
        model: Model::default(),
    }));
    let stats = ClientStats::shared();
    stats.lock().expect("stats lock").recording = false;
    let mut sim = Simulation::new(seed);

    let t = thread_cpu_s();
    let mut system = if w.is_ceph() {
        let mut cfg = CephConfig::paper(SERVERS, BalanceMode::Dynamic, false);
        cfg.osd_count = STORAGE_NODES;
        System::Ceph(build_ceph_cluster(&mut sim, cfg.scaled_down(SCALE)))
    } else {
        let mut cfg = FsConfig::hopsfs_cl(STORAGE_NODES, 3, SERVERS).scaled_down(SCALE);
        cfg.lease.enabled = w == Workload::CachedReadCl;
        cfg.lease.ttl = SimDuration::from_secs(30);
        System::Fs(build_fs_cluster(&mut sim, cfg, 0))
    };
    phases.deploy = thread_cpu_s() - t;

    let t = thread_cpu_s();
    let ns = Arc::new(Namespace::generate(&w.namespace()));
    let private: Vec<String> = (0..w.sessions()).map(|s| w.private_dir(s)).collect();
    match &mut system {
        System::Fs(c) => {
            ns.load_hopsfs(&mut sim, c, 0);
            for d in &private {
                c.bulk_mkdir_p(&mut sim, d);
            }
        }
        System::Ceph(c) => {
            ns.load_ceph(c, 0);
            for d in &private {
                c.bulk_mkdir_p(d);
            }
        }
    }
    let mut clients = Vec::new();
    for s in 0..w.sessions() {
        let az = AzId((s % 3) as u8);
        let session = Box::new(Session {
            inner: w.source(&ns, s),
            probe: Arc::clone(&probe),
            issued: None,
        });
        clients.push(match &system {
            System::Fs(c) => c.add_client(&mut sim, az, session, Arc::clone(&stats)),
            System::Ceph(c) => c.add_client(&mut sim, az, session, Arc::clone(&stats)),
        });
    }
    if let System::Ceph(c) = &mut system {
        c.apply_pinning();
        prewarm(&mut sim, c, &ns, &clients);
    }
    phases.load = thread_cpu_s() - t;

    {
        let model = &mut probe.lock().expect("probe lock").model;
        for d in ns.dirs.iter().chain(&private) {
            model.add_dirs(d);
        }
        for f in &ns.files {
            model.add(f.clone(), false);
        }
    }
    Cell {
        sim,
        system,
        stats,
        probe,
        clients,
    }
}

/// Gives every CephFS session the capability cache of a long-warmed
/// cluster, as the figure benches do: the hottest files' attributes (up to
/// the client cache's capacity) and every directory listing.
fn prewarm(sim: &mut Simulation, c: &CephCluster, ns: &Namespace, clients: &[NodeId]) {
    let mut warm: HashMap<(String, bool), FsOk> = HashMap::new();
    {
        let store = c.ns.lock().expect("namespace lock");
        for f in ns.files.iter().take(c.config.costs.client_cache_entries) {
            if let Some(e) = store.get(f) {
                warm.insert((f.clone(), false), FsOk::Attrs(e.attrs()));
            }
        }
        for d in &ns.dirs {
            if let Ok(listing) = store.list(d) {
                warm.insert((d.clone(), true), FsOk::Listing(listing));
            }
        }
    }
    let warm = Arc::new(warm);
    for &id in clients {
        sim.actor_mut::<CephClientActor>(id).prewarm = Some(Arc::clone(&warm));
    }
}

/// Deploys and runs one cell; with `audit`, also drains and audits it (the
/// fingerprint ties every other cell of the run to the audited one).
fn run_cell(w: Workload, seed: u64, audit: bool) -> CellResult {
    let mut phases = Phases::default();
    let mut cell = deploy(w, seed, &mut phases);
    let (start, end) = cell.probe.lock().expect("probe lock").window;

    let t = thread_cpu_s();
    cell.sim.run_until(start);
    phases.warmup = thread_cpu_s() - t;

    cell.stats.lock().expect("stats lock").recording = true;
    cell.sim.metrics_mut().clear();
    let events_before = cell.sim.events_processed();
    let t = thread_cpu_s();
    cell.sim.run_until(end);
    phases.window = thread_cpu_s() - t;
    let events_end = cell.sim.events_processed();
    let events = events_end - events_before;

    let (ops, reads, verdicts) = {
        let mut st = cell.stats.lock().expect("stats lock");
        st.recording = false;
        let reads: u64 = [OpKind::Open, OpKind::Stat, OpKind::List]
            .into_iter()
            .map(|k| st.ok_of(k))
            .sum();
        (
            st.total_ok() + st.total_err(),
            reads,
            format!("{:?}{:?}", st.ok_per_kind, st.err_per_kind),
        )
    };
    let layers = layer_metrics(&cell, w.window(), ops, reads, events);
    let mut lat = cell.probe.lock().expect("probe lock").latencies_ns.clone();
    lat.sort_unstable();
    let lat_sum: u64 = lat.iter().sum();
    let fingerprint = fnv1a(&format!(
        "events={events_end};verdicts={verdicts};lat={}/{lat_sum};model={:x}",
        lat.len(),
        cell.probe.lock().expect("probe lock").model.digest()
    ));

    let audit = if audit {
        cell.sim.run_until(end + DRAIN);
        check_cell(&cell)
    } else {
        Ok(())
    };
    let probe = cell.probe.lock().expect("probe lock");
    CellResult {
        phases,
        events,
        fingerprint,
        attempted: probe.attempted,
        failed: probe.failed,
        audit,
        samples: lat.len(),
        ops_per_s: ops as f64 / w.window().as_secs_f64(),
        mean_ms: lat_sum as f64 / lat.len().max(1) as f64 / 1e6,
        // Nearest-rank percentile over the exact samples.
        p99_ms: lat
            .get((lat.len() * 99).div_ceil(100).saturating_sub(1))
            .copied()
            .unwrap_or(0) as f64
            / 1e6,
        layers,
    }
}

fn hist_sum(h: &Histogram) -> f64 {
    h.mean() * h.count() as f64
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Per-layer metrics of the measurement window, from the simulation's
/// metrics registry (the namenodes' hint-cache counters cover the whole
/// cell).
fn layer_metrics(
    cell: &Cell,
    window: SimDuration,
    ops: u64,
    reads: u64,
    events: u64,
) -> Vec<Metric> {
    let m = cell.sim.metrics();
    let per_op = |x: f64| x / ops.max(1) as f64;
    let (server, storage, server_ids, storage_ids) = match &cell.system {
        System::Fs(c) => ("namenode", "ndb", &c.view.nn_ids, &c.view.ndb.datanode_ids),
        System::Ceph(c) => ("ceph-mds", "ceph-osd", &c.mds_ids, &c.osd_ids),
    };
    let service_ns = |layer: &str| {
        m.iter_cpu()
            .filter(|&(l, _, _)| l == layer)
            .fold(0.0, |sum, (_, _, c)| sum + hist_sum(&c.service))
    };
    // Lane-thread time the nodes could have spent working in the window.
    let capacity_ns = |ids: &[NodeId]| {
        let threads: usize = ids
            .iter()
            .map(|&id| {
                let lanes = cell.sim.lanes(id);
                lanes
                    .snapshot_busy()
                    .iter()
                    .map(|&(class, _)| lanes.threads(class))
                    .sum::<usize>()
            })
            .sum();
        (threads as f64 * window.as_nanos() as f64).max(1.0)
    };
    let lane_wait_ns = m
        .iter_cpu()
        .fold(0.0, |sum, (_, _, c)| sum + hist_sum(&c.queue));
    let lock_waits: u64 = m
        .iter_hists()
        .filter(|&(_, name, _)| name == "lock_wait_ns" || name == "journal_stall_ns")
        .map(|(_, _, h)| h.count())
        .sum();
    let retries: u64 = m
        .iter_counters()
        .filter(|&(_, name, _)| name == "op_retries")
        .map(|(_, _, v)| v)
        .sum();
    let (msgs, cross_az) = m
        .iter_net()
        .fold((0u64, 0u64), |(n, b), (src, dst, h, bytes)| {
            (n + h.count(), if src == dst { b } else { b + bytes })
        });
    let cache_hits =
        m.counter("fs-client", "lease_cache_hits") + m.counter("ceph-client", "cache_hits");
    let (hint_hits, hint_misses) = match &cell.system {
        System::Fs(c) => c.view.nn_ids.iter().fold((0, 0), |(h, mi), &id| {
            let s = &cell.sim.actor::<NameNodeActor>(id).stats;
            (h + s.cache_hits, mi + s.cache_misses)
        }),
        System::Ceph(_) => (0, 0),
    };
    vec![
        ("client_cache_hit_pct", pct(cache_hits, reads), "%"),
        (
            "nn_hint_cache_hit_pct",
            pct(hint_hits, hint_hits + hint_misses),
            "%",
        ),
        (
            "server_busy_pct",
            100.0 * service_ns(server) / capacity_ns(server_ids),
            "%",
        ),
        (
            "storage_busy_pct",
            100.0 * service_ns(storage) / capacity_ns(storage_ids),
            "%",
        ),
        (
            "server_cpu_us_per_op",
            per_op(service_ns(server)) / 1e3,
            "us",
        ),
        (
            "storage_cpu_us_per_op",
            per_op(service_ns(storage)) / 1e3,
            "us",
        ),
        ("lane_wait_us_per_op", per_op(lane_wait_ns) / 1e3, "us"),
        ("lock_waits", lock_waits as f64, "count"),
        ("retries", retries as f64, "count"),
        ("tx_aborts", m.counter("ndb", "tx_aborts") as f64, "count"),
        ("msgs_per_op", per_op(msgs as f64), "count"),
        ("cross_az_bytes_per_op", per_op(cross_az as f64), "B"),
        ("events_per_op", per_op(events as f64), "count"),
    ]
}

/// Audits a drained cell: cluster invariants, replica agreement, and the
/// final namespace against the model of acknowledged operations.
fn check_cell(cell: &Cell) -> Result<(), String> {
    let probe = cell.probe.lock().expect("probe lock");
    match &cell.system {
        System::Fs(c) => {
            let report = check_invariants(&cell.sim, &c.view, &cell.clients);
            if !report.clean() {
                return Err(format!("cluster invariants violated: {report:?}"));
            }
            let diverged = fragment_divergence(&cell.sim, &c.view);
            if !diverged.is_empty() {
                return Err(format!(
                    "{} NDB fragments differ between replicas",
                    diverged.len()
                ));
            }
            if let Some(id) = cell
                .clients
                .iter()
                .find(|&&id| !cell.sim.actor::<FsClientActor>(id).done)
            {
                return Err(format!("session {id:?} never stopped"));
            }
            probe.model.check(|path| fs_lookup(&cell.sim, c, path))
        }
        System::Ceph(c) => {
            if let Some(id) = cell
                .clients
                .iter()
                .find(|&&id| !cell.sim.actor::<CephClientActor>(id).done)
            {
                return Err(format!("session {id:?} never stopped"));
            }
            let store = c.ns.lock().expect("namespace lock");
            probe.model.check(|path| {
                Ok(store.get(path).map(|e| Found {
                    dir: e.is_dir,
                    perm: e.perm,
                    locked: false,
                }))
            })
        }
    }
}

/// Resolves `path` by reading the inode rows straight from every NDB replica
/// (bypassing the namenodes); every replica must hold the same row.
fn fs_lookup(sim: &Simulation, c: &FsCluster, path: &str) -> Result<Option<Found>, String> {
    let replicas = c.view.ndb.config.replication_factor;
    let mut parent = InodeId::ROOT;
    let mut found = None;
    for name in path.split('/').filter(|n| !n.is_empty()) {
        let copies = c
            .ndb
            .peek_row(sim, c.view.fs.inodes, &FsSchema::inode_key(parent, name));
        if copies.is_empty() {
            return Ok(None);
        }
        if copies.len() != replicas || copies.iter().any(|r| r != &copies[0]) {
            return Err(format!(
                "{path}: {} of {replicas} replicas of {name:?} hold diverging rows",
                copies.len()
            ));
        }
        let rec = InodeRecord::decode(&copies[0]);
        parent = InodeId(rec.id);
        found = Some(Found {
            dir: rec.is_dir,
            perm: rec.perm,
            locked: rec.sto_locked,
        });
    }
    Ok(found)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("thread_cpu_s assumes the 64-bit Linux clock_gettime ABI");

/// CPU time the calling thread has used, in seconds. Each cell runs on
/// this one thread, so this is the simulator's cost without the time the
/// host gave to other work: steadier than wall-clock on a shared machine.
fn thread_cpu_s() -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live, properly laid out local.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Times a fixed CPU workload in the simulator's style (ordered and hashed
/// maps, string values, a sort) that does not touch the code under test.
/// A shared host's speed drifts by tens of percent over minutes; timing
/// this next to every cell lets host times be reported at a fixed speed.
fn reference_s() -> f64 {
    let t = thread_cpu_s();
    let mut ordered: BTreeMap<u64, u64> = BTreeMap::new();
    let mut hashed: HashMap<u64, String> = HashMap::new();
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
    for i in 0..60_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ordered.insert(x % 100_000, i);
        hashed.insert(x % 50_000, format!("/user/u{}/d{i}", x % 97));
        if let Some((_, v)) = ordered.range(x % 100_000..).next() {
            acc = acc.wrapping_add(*v);
        }
        if let Some(v) = hashed.get(&(i % 50_000)) {
            acc = acc.wrapping_add(v.len() as u64);
        }
    }
    let mut values: Vec<u64> = ordered.into_values().collect();
    values.sort_unstable_by_key(|v| v.rotate_left(7));
    std::hint::black_box((acc, values));
    thread_cpu_s() - t
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {value:?}: not a non-negative number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let begun = Instant::now();
    let mut cells: Vec<CellResult> = Vec::new();
    let mut references = Vec::new();
    while cells.len() < MIN_CELLS || begun.elapsed().as_secs_f64() < args.seconds {
        references.push(reference_s());
        cells.push(run_cell(args.workload, args.seed, cells.is_empty()));
    }
    let reference = median(references);

    let first = &cells[0];
    let mut problems = Vec::new();
    for (i, c) in cells.iter().enumerate() {
        if let Err(e) = &c.audit {
            problems.push(format!("cell {i}: {e}"));
        }
        if c.fingerprint != first.fingerprint {
            problems.push(format!("cell {i} did not replay cell 0 exactly"));
        }
    }
    if first.samples == 0 {
        problems.push("no operation completed inside the window".to_string());
    }
    let host = |f: fn(&Phases) -> f64| median(cells.iter().map(|c| f(&c.phases)).collect());
    let mut metrics: Vec<Metric> = if args.trace {
        let mut m = first.layers.clone();
        m.extend([
            ("host_deploy_ms", host(|p| p.deploy) * 1e3, "ms"),
            ("host_load_ms", host(|p| p.load) * 1e3, "ms"),
            ("host_warmup_ms", host(|p| p.warmup) * 1e3, "ms"),
            ("host_window_ms", host(|p| p.window) * 1e3, "ms"),
            (
                "host_ns_per_event",
                host(|p| p.window) * 1e9 / first.events.max(1) as f64,
                "ns",
            ),
            ("host_reference_ms", reference * 1e3, "ms"),
        ]);
        m
    } else {
        // At the reference machine's speed (see `reference_s`).
        let at_reference = REFERENCE_S / reference;
        vec![
            ("sim_ops_per_s", first.ops_per_s, "ops/s"),
            ("sim_mean_ms", first.mean_ms, "ms"),
            ("sim_p99_ms", first.p99_ms, "ms"),
            (
                "host_run_s",
                host(|p| p.warmup + p.window) * at_reference,
                "s",
            ),
            ("setup_s", host(|p| p.deploy + p.load) * at_reference, "s"),
        ]
    };
    for (name, value, _) in &mut metrics {
        if !value.is_finite() {
            problems.push(format!("{name} is not a number"));
            *value = 0.0;
        }
    }

    eprintln!(
        "perfbench {} seed {}: {} cells, {} ops in the window of cell 0",
        args.workload.name(),
        args.seed,
        cells.len(),
        first.samples
    );
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<24} {value:>14.4} {unit}");
    }
    for p in &problems {
        eprintln!("  INCORRECT: {p}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        cells.iter().map(|c| c.attempted).sum::<u64>(),
        cells.iter().map(|c| c.failed).sum::<u64>(),
        body.join(", ")
    );
}
