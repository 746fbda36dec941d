//! Leased client-side metadata caching with namenode push invalidation.
//!
//! The workload is ~95% reads over a skewed namespace, yet in base HopsFS
//! every read pays a full client→NN→NDB round trip. This module takes the
//! read hot path off the metadata layers entirely while keeping staleness
//! machine-checkably bounded:
//!
//! - **Grants.** A successful read (`stat`/`open`/`ls`) carries back a
//!   [`LeaseGrant`]: the resolved ancestor-id chain, a staleness *anchor*
//!   (the time of the op's first database read — every row the result was
//!   built from is at least this fresh) and an expiry of `anchor + ttl`.
//!   The granting namenode registers the client as a holder under **every**
//!   id in the chain, so an invalidation of any ancestor finds all holders
//!   below it.
//! - **Local serving.** The client caches the result keyed by
//!   `(path, kind)` — the chain gives each entry the same
//!   `(parent id, name)` identity the NN-side [`crate::HintCache`] uses —
//!   and serves repeat reads locally with zero NN round trips while
//!   `now < expiry`.
//! - **Push invalidation.** A conflicting mutation completes commit-then-
//!   revoke-then-ack: after its transaction commits, the originating
//!   namenode opens a *revoke round* ([`LeaseRevokeReq`] to every
//!   namenode), each namenode pushes [`LeaseInvalidate`] to its conflicting
//!   holders and replies [`LeaseRevokeAck`] once every pushed client
//!   acknowledged or its lease expired, and only then is the mutation
//!   acknowledged to its issuer. Recursive delete/rename rides the subtree
//!   operation (STO) protocol: because holders are registered under every
//!   chain id, invalidating the subtree *root* id reaches every holder
//!   below it in one message per holder.
//! - **Failure fences.** A restarted namenode lost its holder table, so it
//!   withholds revoke acks until `restart + ttl` (every lease it granted
//!   before crashing has expired by then). A dead namenode is waited out
//!   the same way: `detection + ttl` after it drops from the active set.
//!   A partitioned *client* is waited out per holder: the granting NN acks
//!   once the holder's lease expires. Staleness is therefore bounded by
//!   `ttl` in every failure mode, at the cost of mutation latency under
//!   failures — the classic lease trade-off.
//! - **Reordering guards.** Pushes can overtake in-flight grants on the
//!   size-dependent wire, so clients keep short-lived *tombstones*: a grant
//!   whose anchor does not postdate the conflicting commit is refused.
//!   Namenodes keep the mirror-image *fences* and refuse to grant from
//!   reads that may predate a known conflicting commit.
//!
//! Inode ids come from a durable global sequence and are never reused, so
//! id-based invalidation is also the *generation guard*: a lease granted on
//! id `X` can never validate a read of a same-named successor file, whose
//! chain ends in a fresh id `Y` (see the create-after-delete regression
//! tests in `crates/core/tests/fs.rs`).
//!
//! Every map walked in an order that feeds message emission or eviction is
//! a `BTreeMap`, because same-seed replay must be bit-identical. The
//! client cache's hash indexes are walked only to collect what one
//! invalidation drops, where order decides nothing.

use crate::path::FsPath;
use crate::types::FsOk;
use simnet::{FastMap, FastSet, SimDuration, SimTime};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Cache-entry kind index: `stat` results.
pub const KIND_STAT: u8 = 0;
/// Cache-entry kind index: `open` (block-location) results.
pub const KIND_OPEN: u8 = 1;
/// Cache-entry kind index: `ls` (listing) results.
pub const KIND_LIST: u8 = 2;

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

/// Lease piggybacked on a successful read response.
#[derive(Debug, Clone)]
pub struct LeaseGrant {
    /// Resolved ancestor-id chain, root-first, ending in the target id.
    pub ids: Vec<u64>,
    /// The target inode id (last element of `ids`).
    pub target: u64,
    /// For `ls` results: the listed directory's id (registered separately —
    /// a listing is invalidated by *membership* changes of this directory,
    /// not only by mutations of entries the chain covers).
    pub listing_dir: Option<u64>,
    /// Staleness anchor: the time of the op's first database read. Every
    /// row in the result is at least this fresh.
    pub anchor: SimTime,
    /// `anchor + ttl`; the client may serve locally while `now < expiry`.
    pub expiry: SimTime,
    /// Node id of the granting namenode (lease renewals go back to it).
    pub granted_by: u32,
}

/// Conflict summary piggybacked on a successful mutation response: which
/// ids the mutation made stale. The issuing client applies it to its own
/// cache (self-invalidation) and reports the ack to the [`LeaseMonitor`].
#[derive(Debug, Clone)]
pub struct MutationNotice {
    /// Ids whose entries (and everything cached beneath them, via chain
    /// membership) are now stale.
    pub targets: Vec<u64>,
    /// Directory ids whose *listings* are now stale (membership changed).
    pub listing_dirs: Vec<u64>,
    /// When the originating namenode learned of the commit. Upper bound on
    /// the commit point: any read anchored at or before this may be stale.
    pub commit_time: SimTime,
    /// When the originating namenode *issued* the commit. Lower bound on
    /// the commit point: a read anchored at or before this is definitely
    /// pre-mutation. The monitor flags on this bound so that fresh reads
    /// racing the commit are never miscounted as violations.
    pub commit_floor: SimTime,
    /// False for ambiguous idempotent-retry acks (the original attempt's
    /// commit time is unknown, so the monitor cannot soundly flag them);
    /// invalidation still runs, only the coherence bookkeeping is skipped.
    pub monitored: bool,
}

/// Origin namenode → every namenode: revoke leases conflicting with a
/// committed mutation. Resent each sweep tick until acked; processing is
/// idempotent (a namenode with no matching unexpired holders acks
/// immediately).
#[derive(Debug, Clone)]
pub struct LeaseRevokeReq {
    /// Round id, unique per originating namenode.
    pub round: u64,
    /// Originating namenode index (for the ack).
    pub origin_idx: u32,
    /// Ids to chain-invalidate.
    pub targets: Vec<u64>,
    /// Directory ids whose listings to invalidate.
    pub listing_dirs: Vec<u64>,
    /// Commit upper bound; becomes the fence/tombstone time.
    pub commit_time: SimTime,
}

/// Namenode → origin namenode: all conflicting holders of this namenode
/// have acknowledged the invalidation or their leases expired.
#[derive(Debug, Clone, Copy)]
pub struct LeaseRevokeAck {
    /// Round id from the request.
    pub round: u64,
    /// Acking namenode index.
    pub nn_idx: u32,
}

/// Namenode → client: drop conflicting cache entries now.
#[derive(Debug, Clone)]
pub struct LeaseInvalidate {
    /// Revoke-round id (echoed in the ack).
    pub round: u64,
    /// Index of the namenode that originated the revoke round. Round ids
    /// are only unique per origin, so pushes (and their acks) carry both.
    pub origin_idx: u32,
    /// Ids to chain-invalidate.
    pub targets: Vec<u64>,
    /// Directory ids whose listings to invalidate.
    pub listing_dirs: Vec<u64>,
    /// Commit upper bound; the client tombstones these ids until past it.
    pub commit_time: SimTime,
}

/// Client → namenode: conflicting entries dropped.
#[derive(Debug, Clone, Copy)]
pub struct LeaseInvalidateAck {
    /// Round id from the push.
    pub round: u64,
    /// Origin namenode index from the push.
    pub origin_idx: u32,
}

/// One entry a client asks to renew.
#[derive(Debug, Clone)]
pub struct RenewItem {
    /// Cache key path (echoed in the ack).
    pub path: String,
    /// Cache key kind (echoed in the ack).
    pub kind: u8,
    /// The entry's id chain (all must still be registered).
    pub ids: Vec<u64>,
    /// The entry's listing registration, if any.
    pub listing_dir: Option<u64>,
    /// The entry's staleness anchor (checked against fences).
    pub anchor: SimTime,
}

/// Client → granting namenode: extend these leases. Handled as
/// *maintenance-class* work behind the admission gate — cache refresh never
/// competes with interactive ops; a shed renewal is silently dropped and
/// the entry simply expires.
#[derive(Debug, Clone)]
pub struct LeaseRenew {
    /// Entries to renew.
    pub items: Vec<RenewItem>,
}

/// Namenode → client: which renewals were granted, with new expiries.
#[derive(Debug, Clone)]
pub struct LeaseRenewAck {
    /// `(path, kind, new expiry)` per renewed entry; refused entries are
    /// simply absent and will expire.
    pub renewed: Vec<(String, u8, SimTime)>,
}

// ---------------------------------------------------------------------------
// Client-side cache
// ---------------------------------------------------------------------------

/// One leased cache entry.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The cached read result.
    pub value: FsOk,
    /// Resolved ancestor-id chain, root-first, ending in the target.
    pub chain: Vec<u64>,
    /// Target inode id.
    pub target: u64,
    /// Listing registration (Some for `ls` entries).
    pub listing_dir: Option<u64>,
    /// Staleness anchor inherited from the grant (renewals keep it: the
    /// *data* is still only as fresh as its first read).
    pub anchor: SimTime,
    /// Serve-until bound.
    pub expiry: SimTime,
    /// Granting namenode's node id (renewal routing).
    pub granted_by: u32,
}

/// A cache-key path, borrowed: the rendered form (`"/a/b"`, which renewals
/// carry on the wire) or the parsed [`FsPath`] an operation already holds.
/// Both find the same entry, and a lookup neither renders nor copies it.
#[derive(Debug, Clone, Copy)]
pub enum PathRef<'a> {
    /// Rendered path.
    Str(&'a str),
    /// Parsed path.
    Parsed(&'a FsPath),
}

impl<'a> From<&'a str> for PathRef<'a> {
    fn from(s: &'a str) -> Self {
        PathRef::Str(s)
    }
}

impl<'a> From<&'a String> for PathRef<'a> {
    fn from(s: &'a String) -> Self {
        PathRef::Str(s)
    }
}

impl<'a> From<&'a FsPath> for PathRef<'a> {
    fn from(p: &'a FsPath) -> Self {
        PathRef::Parsed(p)
    }
}

impl PathRef<'_> {
    /// Hashes the components, so both forms of one path hash alike.
    fn hash_components<H: Hasher>(self, state: &mut H) {
        match self {
            PathRef::Str(s) => s.split('/').filter(|c| !c.is_empty()).for_each(|c| c.hash(state)),
            PathRef::Parsed(p) => p.components().iter().for_each(|c| c.hash(state)),
        }
    }

    /// Whether both name the same rendered path.
    fn same(self, other: PathRef<'_>) -> bool {
        match (self, other) {
            (PathRef::Str(a), PathRef::Str(b)) => a == b,
            (PathRef::Parsed(a), PathRef::Parsed(b)) => a == b,
            (PathRef::Str(s), PathRef::Parsed(p)) | (PathRef::Parsed(p), PathRef::Str(s)) => {
                renders_as(p, s)
            }
        }
    }

    fn render(self) -> String {
        match self {
            PathRef::Str(s) => s.to_string(),
            PathRef::Parsed(p) => p.to_string(),
        }
    }
}

/// `p.to_string() == s`, without rendering `p`.
fn renders_as(p: &FsPath, s: &str) -> bool {
    if p.is_root() {
        return s == "/";
    }
    let mut rest = s;
    for c in p.components() {
        match rest.strip_prefix('/').and_then(|r| r.strip_prefix(c.as_str())) {
            Some(r) => rest = r,
            None => return false,
        }
    }
    rest.is_empty()
}

/// Owned `(path, kind)` key of the key index.
#[derive(Debug)]
struct Key {
    path: String,
    kind: u8,
}

/// Borrowed view of a [`Key`], so a `(PathRef, kind)` probe finds an owned
/// key without building one (the idiom of [`crate::HintCache`]).
trait KeyView {
    fn path(&self) -> PathRef<'_>;
    fn kind(&self) -> u8;
}

impl KeyView for Key {
    fn path(&self) -> PathRef<'_> {
        PathRef::Str(&self.path)
    }
    fn kind(&self) -> u8 {
        self.kind
    }
}

impl KeyView for (PathRef<'_>, u8) {
    fn path(&self) -> PathRef<'_> {
        self.0
    }
    fn kind(&self) -> u8 {
        self.1
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for Key {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

// `Key` hashes and compares through this view too, so owned keys and
// borrowed probes agree by construction.
impl Hash for dyn KeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.kind().hash(state);
        self.path().hash_components(state);
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.kind() == other.kind() && self.path().same(other.path())
    }
}

impl Eq for dyn KeyView + '_ {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn KeyView).hash(state);
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        (self as &dyn KeyView) == (other as &dyn KeyView)
    }
}

impl Eq for Key {}

/// A cached entry and the key it is filed under.
#[derive(Debug)]
struct Slot {
    path: String,
    kind: u8,
    entry: CacheEntry,
}

/// Client-side leased metadata cache: `(path, kind)` → [`CacheEntry`],
/// bounded by evicting the earliest-expiring entry, with tombstones
/// guarding against pushes overtaking in-flight grants.
///
/// Entries live in slots addressed by `u32` handles. Besides the key index,
/// every chain id and every listed directory (of `ls` entries) indexes the
/// handles of its entries, so an invalidation visits only the entries it
/// drops. Eviction and renewal go by `(expiry, path string, kind)` order:
/// the order of every `LeaseRenew` batch depends on it, and string order
/// differs from component order (`/a-x` sorts before `/a/b`).
#[derive(Debug, Default)]
pub struct LeaseCache {
    /// Entry slots; `None` marks a free one (listed in `free`).
    slots: Vec<Option<Slot>>,
    free: Vec<u32>,
    by_key: FastMap<Key, u32>,
    /// Eviction and renewal order: earliest expiry first.
    by_expiry: BTreeMap<(SimTime, String, u8), u32>,
    /// chain id → entries whose chain contains it.
    by_id: FastMap<u64, FastSet<u32>>,
    /// listed directory id → `ls` entries listing it.
    by_listing: FastMap<u64, FastSet<u32>>,
    /// id → latest conflicting commit upper bound; grants anchored at or
    /// before it are refused.
    tombstones: BTreeMap<u64, SimTime>,
    listing_tombstones: BTreeMap<u64, SimTime>,
    cap: usize,
}

impl LeaseCache {
    /// A cache bounded to `cap` entries.
    pub fn new(cap: usize) -> Self {
        LeaseCache { cap: cap.max(1), ..LeaseCache::default() }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Whether no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Looks up a valid entry; lazily drops it if the lease expired.
    /// Returns `None` on miss or expiry.
    pub fn get<'p>(
        &mut self,
        path: impl Into<PathRef<'p>>,
        kind: u8,
        now: SimTime,
    ) -> Option<&CacheEntry> {
        let ix = self.find(path.into(), kind)?;
        if now >= self.slot(ix).entry.expiry {
            self.drop_slot(ix);
            return None;
        }
        Some(&self.slot(ix).entry)
    }

    /// Installs a granted entry. Refused (returning `false`) when a
    /// tombstone shows a conflicting mutation may postdate the grant's
    /// anchor — the late-arriving grant would reintroduce stale data.
    pub fn insert<'p>(
        &mut self,
        path: impl Into<PathRef<'p>>,
        kind: u8,
        entry: CacheEntry,
    ) -> bool {
        let blocked = entry.chain.iter().any(|id| {
            self.tombstones.get(id).is_some_and(|&t| entry.anchor <= t)
        }) || entry.listing_dir.is_some_and(|d| {
            self.listing_tombstones.get(&d).is_some_and(|&t| entry.anchor <= t)
        });
        if blocked {
            return false;
        }
        let path = path.into();
        self.remove(path, kind);
        while self.len() >= self.cap {
            match self.by_expiry.values().next() {
                Some(&victim) => self.drop_slot(victim),
                None => break,
            }
        }
        let ix = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 cache slots")
        });
        for &id in &entry.chain {
            self.by_id.entry(id).or_default().insert(ix);
        }
        if let (KIND_LIST, Some(d)) = (kind, entry.listing_dir) {
            self.by_listing.entry(d).or_default().insert(ix);
        }
        let path = path.render();
        self.by_key.insert(Key { path: path.clone(), kind }, ix);
        self.by_expiry.insert((entry.expiry, path.clone(), kind), ix);
        self.slots[ix as usize] = Some(Slot { path, kind, entry });
        true
    }

    /// Drops one entry.
    pub fn remove<'p>(&mut self, path: impl Into<PathRef<'p>>, kind: u8) {
        if let Some(ix) = self.find(path.into(), kind) {
            self.drop_slot(ix);
        }
    }

    /// Extends one entry's lease (renewal); the anchor is unchanged.
    pub fn extend<'p>(&mut self, path: impl Into<PathRef<'p>>, kind: u8, expiry: SimTime) {
        let Some(ix) = self.find(path.into(), kind) else {
            return;
        };
        let slot = self.slots[ix as usize].as_mut().expect("indexed slot is live");
        // Re-file under the new expiry without copying the path: the probe
        // borrows the slot's string for the lookup, the index keeps its own.
        let probe = (slot.entry.expiry, std::mem::take(&mut slot.path), kind);
        let ((_, path, _), _) =
            self.by_expiry.remove_entry(&probe).expect("expiry index tracks every entry");
        slot.path = probe.1;
        slot.entry.expiry = expiry;
        self.by_expiry.insert((expiry, path, kind), ix);
    }

    /// Applies an invalidation: drops every entry whose chain contains a
    /// target id and every listing of a listed directory, then tombstones
    /// the ids until past `commit_time`. Returns the number dropped.
    pub fn invalidate(
        &mut self,
        targets: &[u64],
        listing_dirs: &[u64],
        commit_time: SimTime,
    ) -> u64 {
        let mut doomed: Vec<u32> = Vec::new();
        for id in targets {
            doomed.extend(self.by_id.get(id).into_iter().flatten());
        }
        for d in listing_dirs {
            doomed.extend(self.by_listing.get(d).into_iter().flatten());
        }
        // An entry may be doomed more than once (two targets in its chain,
        // or a target and its listing); count and drop it once.
        let mut dropped = 0;
        for ix in doomed {
            if self.slots[ix as usize].is_some() {
                self.drop_slot(ix);
                dropped += 1;
            }
        }
        for &id in targets {
            let t = self.tombstones.entry(id).or_insert(commit_time);
            *t = (*t).max(commit_time);
        }
        for &id in listing_dirs {
            let t = self.listing_tombstones.entry(id).or_insert(commit_time);
            *t = (*t).max(commit_time);
        }
        dropped
    }

    /// Entries expiring within `margin` that are still alive — the renewal
    /// candidates, earliest expiry first, at most `max`, grouped by
    /// granting namenode by the caller.
    pub fn renewal_candidates(
        &self,
        now: SimTime,
        margin: SimDuration,
        max: usize,
    ) -> Vec<(String, u8)> {
        self.by_expiry
            .keys()
            .filter(|(exp, _, _)| *exp > now && exp.saturating_since(now) <= margin)
            .take(max)
            .map(|(_, p, k)| (p.clone(), *k))
            .collect()
    }

    /// Borrow an entry without an expiry check (renewal bookkeeping).
    pub fn peek<'p>(&self, path: impl Into<PathRef<'p>>, kind: u8) -> Option<&CacheEntry> {
        self.find(path.into(), kind).map(|ix| &self.slot(ix).entry)
    }

    /// Drops expired entries and stale tombstones. `horizon` is how long a
    /// tombstone can matter (`ttl` + revoke margin): any grant it would
    /// refuse has already expired by then.
    pub fn sweep(&mut self, now: SimTime, horizon: SimDuration) {
        while let Some((&(exp, _, _), &ix)) = self.by_expiry.first_key_value() {
            if exp > now {
                break;
            }
            self.drop_slot(ix);
        }
        self.tombstones.retain(|_, &mut t| now.saturating_since(t) <= horizon);
        self.listing_tombstones.retain(|_, &mut t| now.saturating_since(t) <= horizon);
    }

    /// Drops everything (client restart: registrations at namenodes will
    /// be acked-or-expired; the cache itself must not survive).
    pub fn clear(&mut self) {
        *self = LeaseCache::new(self.cap);
    }

    fn find(&self, path: PathRef<'_>, kind: u8) -> Option<u32> {
        self.by_key.get(&(path, kind) as &dyn KeyView).copied()
    }

    fn slot(&self, ix: u32) -> &Slot {
        self.slots[ix as usize].as_ref().expect("indexed slot is live")
    }

    /// Frees a live slot and unfiles it from every index.
    fn drop_slot(&mut self, ix: u32) {
        let Slot { path, kind, entry } =
            self.slots[ix as usize].take().expect("indexed slot is live");
        self.free.push(ix);
        self.by_key.remove(&(PathRef::Str(&path), kind) as &dyn KeyView);
        for id in &entry.chain {
            unfile(&mut self.by_id, *id, ix);
        }
        if let (KIND_LIST, Some(d)) = (kind, entry.listing_dir) {
            unfile(&mut self.by_listing, d, ix);
        }
        self.by_expiry.remove(&(entry.expiry, path, kind));
    }
}

/// Removes `ix` from `id`'s handle set, dropping the set once empty.
fn unfile(index: &mut FastMap<u64, FastSet<u32>>, id: u64, ix: u32) {
    if let Some(set) = index.get_mut(&id) {
        set.remove(&ix);
        if set.is_empty() {
            index.remove(&id);
        }
    }
}

// ---------------------------------------------------------------------------
// Namenode-side lease table
// ---------------------------------------------------------------------------

/// Namenode-side record of lease holders, keyed by inode id. A grant
/// registers the client under every chain id, so subtree invalidation of a
/// root id finds every holder beneath it without walking anything.
#[derive(Debug, Default)]
pub struct LeaseTable {
    /// id → holder client node → lease expiry.
    holders: BTreeMap<u64, BTreeMap<u32, SimTime>>,
    /// listed directory id → holder client node → lease expiry.
    listing_holders: BTreeMap<u64, BTreeMap<u32, SimTime>>,
    /// id → latest known conflicting commit upper bound; reads anchored at
    /// or before a fence must not be granted.
    fences: BTreeMap<u64, SimTime>,
    listing_fences: BTreeMap<u64, SimTime>,
}

impl LeaseTable {
    /// Registers `client` as holder of every id in `ids` (and the listing,
    /// if any) until `expiry`.
    pub fn register(&mut self, ids: &[u64], listing_dir: Option<u64>, client: u32, expiry: SimTime) {
        for &id in ids {
            let slot = self.holders.entry(id).or_default().entry(client).or_insert(expiry);
            *slot = (*slot).max(expiry);
        }
        if let Some(d) = listing_dir {
            let slot = self.listing_holders.entry(d).or_default().entry(client).or_insert(expiry);
            *slot = (*slot).max(expiry);
        }
    }

    /// Whether a read anchored at `anchor` is safe to grant: no id in the
    /// chain (nor the listing) has a conflicting commit at or after it.
    pub fn grant_ok(&self, ids: &[u64], listing_dir: Option<u64>, anchor: SimTime) -> bool {
        ids.iter().all(|id| self.fences.get(id).is_none_or(|&f| anchor > f))
            && listing_dir
                .is_none_or(|d| self.listing_fences.get(&d).is_none_or(|&f| anchor > f))
    }

    /// Records a conflicting commit against these ids (future grants from
    /// possibly-stale reads are refused).
    pub fn apply_fences(&mut self, targets: &[u64], listing_dirs: &[u64], commit_time: SimTime) {
        for &id in targets {
            let f = self.fences.entry(id).or_insert(commit_time);
            *f = (*f).max(commit_time);
        }
        for &id in listing_dirs {
            let f = self.listing_fences.entry(id).or_insert(commit_time);
            *f = (*f).max(commit_time);
        }
    }

    /// Removes and returns the conflicting holders with unexpired leases:
    /// everyone registered under a target id, plus everyone holding a
    /// listing of a listed directory. The returned map carries each
    /// holder's latest lease expiry — the push round waits no longer than
    /// that for a missing ack.
    pub fn revoke_holders(
        &mut self,
        targets: &[u64],
        listing_dirs: &[u64],
        now: SimTime,
    ) -> BTreeMap<u32, SimTime> {
        let mut out: BTreeMap<u32, SimTime> = BTreeMap::new();
        for &id in targets {
            if let Some(hs) = self.holders.remove(&id) {
                for (client, exp) in hs {
                    if exp > now {
                        let slot = out.entry(client).or_insert(exp);
                        *slot = (*slot).max(exp);
                    }
                }
            }
        }
        for &id in listing_dirs {
            if let Some(hs) = self.listing_holders.remove(&id) {
                for (client, exp) in hs {
                    if exp > now {
                        let slot = out.entry(client).or_insert(exp);
                        *slot = (*slot).max(exp);
                    }
                }
            }
        }
        out
    }

    /// Whether `client` still holds every id in `ids` (and the listing)
    /// unexpired — the renewal validity check. Combined with the fence
    /// check on the entry's anchor by the caller.
    pub fn still_held(
        &self,
        ids: &[u64],
        listing_dir: Option<u64>,
        client: u32,
        now: SimTime,
    ) -> bool {
        ids.iter().all(|id| {
            self.holders
                .get(id)
                .and_then(|hs| hs.get(&client))
                .is_some_and(|&exp| exp > now)
        }) && listing_dir.is_none_or(|d| {
            self.listing_holders
                .get(&d)
                .and_then(|hs| hs.get(&client))
                .is_some_and(|&exp| exp > now)
        })
    }

    /// Extends `client`'s registration on every id in `ids` (renewal).
    pub fn extend(&mut self, ids: &[u64], listing_dir: Option<u64>, client: u32, expiry: SimTime) {
        self.register(ids, listing_dir, client, expiry);
    }

    /// Drops expired holder registrations and fences older than `horizon`
    /// (a fence only matters while a read anchored before it could still
    /// produce an unexpired grant).
    pub fn sweep(&mut self, now: SimTime, horizon: SimDuration) {
        self.holders.retain(|_, hs| {
            hs.retain(|_, &mut exp| exp > now);
            !hs.is_empty()
        });
        self.listing_holders.retain(|_, hs| {
            hs.retain(|_, &mut exp| exp > now);
            !hs.is_empty()
        });
        self.fences.retain(|_, &mut f| now.saturating_since(f) <= horizon);
        self.listing_fences.retain(|_, &mut f| now.saturating_since(f) <= horizon);
    }

    /// Number of ids with at least one registered holder.
    pub fn held_ids(&self) -> usize {
        self.holders.len()
    }
}

// ---------------------------------------------------------------------------
// Coherence monitor
// ---------------------------------------------------------------------------

/// Shared (per-experiment) observer for the `lease_coherence` invariant:
/// *no read is ever served from a cache entry whose lease outlived an acked
/// conflicting mutation.*
///
/// Mutating clients report each unambiguous mutation ack (`record_ack`);
/// every locally served read is checked (`check_serve`): serving at time
/// `s ≥ ack` from an entry anchored at or before the mutation's commit
/// floor — i.e. from data that provably predates the mutation — is a
/// violation. Entries granted after the commit floor are fresh reads of
/// their ids and never flagged.
#[derive(Debug, Default)]
pub struct LeaseMonitor {
    /// target id → (commit floor, ack time) per acked conflicting mutation.
    target_acks: BTreeMap<u64, Vec<(SimTime, SimTime)>>,
    /// listed dir id → (commit floor, ack time).
    listing_acks: BTreeMap<u64, Vec<(SimTime, SimTime)>>,
    /// Confirmed violations (must stay 0).
    pub violations: u64,
    /// Locally served reads checked.
    pub serves_checked: u64,
    /// Mutation acks recorded.
    pub acks_recorded: u64,
}

impl LeaseMonitor {
    /// Records an acked conflicting mutation observed at `ack_time`.
    pub fn record_ack(&mut self, notice: &MutationNotice, ack_time: SimTime) {
        if !notice.monitored {
            return;
        }
        self.acks_recorded += 1;
        for &id in &notice.targets {
            self.target_acks.entry(id).or_default().push((notice.commit_floor, ack_time));
        }
        for &id in &notice.listing_dirs {
            self.listing_acks.entry(id).or_default().push((notice.commit_floor, ack_time));
        }
    }

    /// Checks one locally served read; returns `true` (and counts) on a
    /// coherence violation.
    pub fn check_serve(&mut self, entry: &CacheEntry, kind: u8, now: SimTime) -> bool {
        self.serves_checked += 1;
        let stale = |acks: &BTreeMap<u64, Vec<(SimTime, SimTime)>>, id: u64| {
            acks.get(&id)
                .is_some_and(|v| v.iter().any(|&(floor, ack)| entry.anchor <= floor && ack <= now))
        };
        let hit = entry.chain.iter().any(|&id| stale(&self.target_acks, id))
            || (kind == KIND_LIST
                && entry.listing_dir.is_some_and(|d| stale(&self.listing_acks, d)));
        if hit {
            self.violations += 1;
        }
        hit
    }
}

/// Maps an [`crate::ops::OpKind`] to its cache-kind index; `None` for
/// mutations (they are never cached).
pub fn cache_kind(kind: crate::ops::OpKind) -> Option<u8> {
    match kind {
        crate::ops::OpKind::Stat => Some(KIND_STAT),
        crate::ops::OpKind::Open => Some(KIND_OPEN),
        crate::ops::OpKind::List => Some(KIND_LIST),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{InodeAttrs, InodeId, Perm};

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn attrs(id: u64) -> FsOk {
        FsOk::Attrs(InodeAttrs {
            id: InodeId(id),
            is_dir: false,
            perm: Perm::default(),
            owner: 0,
            group: 0,
            size: 0,
            mtime: 0,
            replication: 3,
            inline_len: 0,
        })
    }

    fn entry(chain: &[u64], anchor: SimTime, expiry: SimTime) -> CacheEntry {
        CacheEntry {
            value: attrs(*chain.last().unwrap()),
            chain: chain.to_vec(),
            target: *chain.last().unwrap(),
            listing_dir: None,
            anchor,
            expiry,
            granted_by: 0,
        }
    }

    #[test]
    fn serves_until_expiry_then_lazily_drops() {
        let mut c = LeaseCache::new(16);
        assert!(c.insert("/a/f", KIND_STAT, entry(&[1, 2, 3], t(0), t(100))));
        assert!(c.get("/a/f", KIND_STAT, t(50)).is_some());
        assert!(c.get("/a/f", KIND_STAT, t(100)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn chain_invalidation_kills_subtree_in_one_call() {
        let mut c = LeaseCache::new(16);
        c.insert("/a/b/x", KIND_STAT, entry(&[1, 2, 5, 7], t(0), t(100)));
        c.insert("/a/b/y", KIND_OPEN, entry(&[1, 2, 5, 8], t(0), t(100)));
        c.insert("/a/c", KIND_STAT, entry(&[1, 2, 6], t(0), t(100)));
        // Invalidate subtree root id 5: both entries under it die, /a/c lives.
        assert_eq!(c.invalidate(&[5], &[], t(10)), 2);
        assert!(c.get("/a/b/x", KIND_STAT, t(11)).is_none());
        assert!(c.get("/a/c", KIND_STAT, t(11)).is_some());
    }

    #[test]
    fn listing_invalidation_spares_attr_entries() {
        let mut c = LeaseCache::new(16);
        let mut list = entry(&[1, 2], t(0), t(100));
        list.listing_dir = Some(2);
        c.insert("/a", KIND_LIST, list);
        c.insert("/a", KIND_STAT, entry(&[1, 2], t(0), t(100)));
        c.insert("/a/f", KIND_STAT, entry(&[1, 2, 9], t(0), t(100)));
        // A create in /a (dir id 2) kills the listing but not attrs of /a
        // or of existing children.
        assert_eq!(c.invalidate(&[], &[2], t(10)), 1);
        assert!(c.get("/a", KIND_LIST, t(11)).is_none());
        assert!(c.get("/a", KIND_STAT, t(11)).is_some());
        assert!(c.get("/a/f", KIND_STAT, t(11)).is_some());
    }

    #[test]
    fn tombstone_refuses_stale_inflight_grant_but_not_fresh() {
        let mut c = LeaseCache::new(16);
        c.invalidate(&[5], &[], t(50));
        // Grant anchored before the conflicting commit: refused.
        assert!(!c.insert("/a/b", KIND_STAT, entry(&[1, 5], t(40), t(140))));
        // Grant anchored after it: fresh read, accepted.
        assert!(c.insert("/a/b", KIND_STAT, entry(&[1, 5], t(60), t(160))));
    }

    #[test]
    fn eviction_prefers_earliest_expiry() {
        let mut c = LeaseCache::new(2);
        c.insert("/a", KIND_STAT, entry(&[1, 2], t(0), t(100)));
        c.insert("/b", KIND_STAT, entry(&[1, 3], t(0), t(300)));
        c.insert("/c", KIND_STAT, entry(&[1, 4], t(0), t(200)));
        assert_eq!(c.len(), 2);
        assert!(c.get("/a", KIND_STAT, t(1)).is_none(), "earliest expiry evicted");
        assert!(c.get("/b", KIND_STAT, t(1)).is_some());
        assert!(c.get("/c", KIND_STAT, t(1)).is_some());
    }

    #[test]
    fn table_registers_chain_and_revokes_by_root() {
        let mut tab = LeaseTable::default();
        tab.register(&[1, 2, 5, 7], None, 100, t(100));
        tab.register(&[1, 2, 5, 8], None, 101, t(120));
        tab.register(&[1, 3], None, 102, t(100));
        // Revoking subtree root 5 finds both holders below it, not client 102.
        let holders = tab.revoke_holders(&[5], &[], t(0));
        assert_eq!(holders.keys().copied().collect::<Vec<_>>(), vec![100, 101]);
        assert_eq!(holders[&101], t(120));
        // Expired holders are not returned.
        let holders = tab.revoke_holders(&[3], &[], t(200));
        assert!(holders.is_empty());
    }

    #[test]
    fn fences_refuse_possibly_stale_grants() {
        let mut tab = LeaseTable::default();
        tab.apply_fences(&[5], &[2], t(50));
        assert!(!tab.grant_ok(&[1, 5], None, t(50)), "anchor at fence: refused");
        assert!(tab.grant_ok(&[1, 5], None, t(51)), "anchor after fence: ok");
        assert!(!tab.grant_ok(&[1], Some(2), t(40)), "listing fence applies");
        assert!(tab.grant_ok(&[1], Some(2), t(60)));
    }

    #[test]
    fn renewal_requires_all_ids_held() {
        let mut tab = LeaseTable::default();
        tab.register(&[1, 2, 7], None, 100, t(100));
        assert!(tab.still_held(&[1, 2, 7], None, 100, t(50)));
        assert!(!tab.still_held(&[1, 2, 7], None, 100, t(100)), "expired");
        assert!(!tab.still_held(&[1, 2, 9], None, 100, t(50)), "unheld id");
        // Revocation of an ancestor drops the registration mid-chain.
        tab.revoke_holders(&[2], &[], t(0));
        assert!(!tab.still_held(&[1, 2, 7], None, 100, t(50)));
    }

    #[test]
    fn monitor_flags_pre_commit_serve_after_ack_only() {
        let mut m = LeaseMonitor::default();
        let notice = MutationNotice {
            targets: vec![7],
            listing_dirs: vec![2],
            commit_time: t(52),
            commit_floor: t(50),
            monitored: true,
        };
        m.record_ack(&notice, t(60));
        // Entry anchored before the commit floor, served after the ack.
        assert!(m.check_serve(&entry(&[1, 2, 7], t(40), t(140)), KIND_STAT, t(70)));
        // Same entry served *before* the ack: legal (mutation not yet acked).
        assert!(!m.check_serve(&entry(&[1, 2, 7], t(40), t(140)), KIND_STAT, t(55)));
        // Entry anchored after the floor: fresh read, never flagged.
        assert!(!m.check_serve(&entry(&[1, 2, 7], t(51), t(151)), KIND_STAT, t(70)));
        // Unrelated chain: never flagged.
        assert!(!m.check_serve(&entry(&[1, 3, 9], t(40), t(140)), KIND_STAT, t(70)));
        assert_eq!(m.violations, 1);
    }

    #[test]
    fn sweep_prunes_expired_state() {
        let mut c = LeaseCache::new(16);
        c.insert("/a", KIND_STAT, entry(&[1, 2], t(0), t(100)));
        c.invalidate(&[9], &[], t(10));
        c.sweep(t(200), SimDuration::from_millis(50));
        assert!(c.is_empty());
        // Tombstone pruned: an old-anchor grant would now be expired anyway.
        assert!(c.insert("/x", KIND_STAT, entry(&[1, 9], t(5), t(205))));

        let mut tab = LeaseTable::default();
        tab.register(&[1, 2], None, 100, t(100));
        tab.apply_fences(&[5], &[], t(10));
        tab.sweep(t(200), SimDuration::from_millis(50));
        assert_eq!(tab.held_ids(), 0);
        assert!(tab.grant_ok(&[5], None, t(5)));
    }
}
