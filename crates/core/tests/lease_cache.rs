//! The indexed client lease cache against a reference that finds what an
//! invalidation drops by scanning every entry: random sequences of every
//! cache operation must give the same return values, length and renewal
//! candidates at each step. Also checks that lookups allocate nothing.

use hopsfs::lease::{CacheEntry, KIND_LIST, KIND_OPEN, KIND_STAT};
use hopsfs::{FsOk, FsPath, InodeAttrs, InodeId, LeaseCache};
use proptest::prelude::*;
use simnet::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

thread_local! {
    /// Allocations made by the current thread (tests run on parallel threads).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell`, whose access never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with this `layout`; the caller's
        // guarantees for `new_size` carry over.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Reference: the cache as a key map plus an expiry order, with
/// invalidation scanning every entry.
#[derive(Debug, Default)]
struct ScanCache {
    entries: BTreeMap<(String, u8), CacheEntry>,
    by_expiry: BTreeSet<(SimTime, String, u8)>,
    tombstones: BTreeMap<u64, SimTime>,
    listing_tombstones: BTreeMap<u64, SimTime>,
    cap: usize,
}

impl ScanCache {
    fn new(cap: usize) -> Self {
        ScanCache { cap: cap.max(1), ..ScanCache::default() }
    }

    fn get(&mut self, path: &str, kind: u8, now: SimTime) -> Option<&CacheEntry> {
        let expired = now >= self.entries.get(&(path.to_string(), kind))?.expiry;
        if expired {
            self.remove(path, kind);
            return None;
        }
        self.entries.get(&(path.to_string(), kind))
    }

    fn insert(&mut self, path: &str, kind: u8, entry: CacheEntry) -> bool {
        let blocked = entry
            .chain
            .iter()
            .any(|id| self.tombstones.get(id).is_some_and(|&t| entry.anchor <= t))
            || entry.listing_dir.is_some_and(|d| {
                self.listing_tombstones.get(&d).is_some_and(|&t| entry.anchor <= t)
            });
        if blocked {
            return false;
        }
        self.remove(path, kind);
        while self.entries.len() >= self.cap {
            let Some((_, p, k)) = self.by_expiry.iter().next().cloned() else { break };
            self.remove(&p, k);
        }
        self.by_expiry.insert((entry.expiry, path.to_string(), kind));
        self.entries.insert((path.to_string(), kind), entry);
        true
    }

    fn remove(&mut self, path: &str, kind: u8) {
        if let Some(e) = self.entries.remove(&(path.to_string(), kind)) {
            self.by_expiry.remove(&(e.expiry, path.to_string(), kind));
        }
    }

    fn extend(&mut self, path: &str, kind: u8, expiry: SimTime) {
        if let Some(e) = self.entries.get_mut(&(path.to_string(), kind)) {
            self.by_expiry.remove(&(e.expiry, path.to_string(), kind));
            e.expiry = expiry;
            self.by_expiry.insert((expiry, path.to_string(), kind));
        }
    }

    fn invalidate(&mut self, targets: &[u64], listing_dirs: &[u64], commit_time: SimTime) -> u64 {
        let doomed: Vec<(String, u8)> = self
            .entries
            .iter()
            .filter(|(key, e)| {
                e.chain.iter().any(|id| targets.contains(id))
                    || (key.1 == KIND_LIST
                        && e.listing_dir.is_some_and(|d| listing_dirs.contains(&d)))
            })
            .map(|(key, _)| key.clone())
            .collect();
        for (path, kind) in &doomed {
            self.remove(path, *kind);
        }
        for &id in targets {
            let t = self.tombstones.entry(id).or_insert(commit_time);
            *t = (*t).max(commit_time);
        }
        for &id in listing_dirs {
            let t = self.listing_tombstones.entry(id).or_insert(commit_time);
            *t = (*t).max(commit_time);
        }
        doomed.len() as u64
    }

    fn renewal_candidates(
        &self,
        now: SimTime,
        margin: SimDuration,
        max: usize,
    ) -> Vec<(String, u8)> {
        self.by_expiry
            .iter()
            .filter(|(exp, _, _)| *exp > now && exp.saturating_since(now) <= margin)
            .take(max)
            .map(|(_, p, k)| (p.clone(), *k))
            .collect()
    }

    fn peek(&self, path: &str, kind: u8) -> Option<&CacheEntry> {
        self.entries.get(&(path.to_string(), kind))
    }

    fn sweep(&mut self, now: SimTime, horizon: SimDuration) {
        while let Some((exp, p, k)) = self.by_expiry.iter().next().cloned() {
            if exp > now {
                break;
            }
            self.remove(&p, k);
        }
        self.tombstones.retain(|_, &mut t| now.saturating_since(t) <= horizon);
        self.listing_tombstones.retain(|_, &mut t| now.saturating_since(t) <= horizon);
    }

    fn clear(&mut self) {
        *self = ScanCache::new(self.cap);
    }
}

/// Paths with root-first id chains that share ancestors. Each path has two
/// chains, the second ending in a fresh id (the path deleted and created
/// again). `/a-x` sorts between `/a` and `/a/b` as a string, though it is
/// no descendant of `/a`.
const TREE: &[(&str, [u64; 4], [u64; 4], usize)] = &[
    ("/", [1, 0, 0, 0], [1, 0, 0, 0], 1),
    ("/a", [1, 2, 0, 0], [1, 20, 0, 0], 2),
    ("/a/b", [1, 2, 3, 0], [1, 2, 30, 0], 3),
    ("/a/b/c", [1, 2, 3, 4], [1, 2, 3, 40], 4),
    ("/a-x", [1, 5, 0, 0], [1, 50, 0, 0], 2),
    ("/a/c", [1, 2, 6, 0], [1, 2, 60, 0], 3),
    ("/z", [1, 7, 0, 0], [1, 70, 0, 0], 2),
    ("/z/q", [1, 7, 8, 0], [1, 7, 80, 0], 3),
];

/// Every id some chain holds, plus one no chain holds.
const IDS: &[u64] = &[1, 2, 3, 4, 5, 6, 7, 8, 20, 30, 40, 50, 60, 70, 80, 99];

const KINDS: [u8; 3] = [KIND_STAT, KIND_OPEN, KIND_LIST];

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

#[derive(Debug, Clone)]
enum Op {
    /// `(path, kind, reborn chain, listing choice, anchor, lifetime, granter)`;
    /// listing choice 0 = none, 1 = the parent's id, 2 = the target's id.
    Insert(usize, usize, bool, u64, u64, u64, u32),
    /// `(path, kind, probe by parsed path, now)`.
    Get(usize, usize, bool, u64),
    Peek(usize, usize, bool),
    /// `(path, kind, probe by parsed path, new expiry)`.
    Extend(usize, usize, bool, u64),
    Remove(usize, usize, bool),
    /// `(target indexes into IDS, listing-dir indexes, commit time)`.
    Invalidate(Vec<usize>, Vec<usize>, u64),
    /// `(now, horizon)`.
    Sweep(u64, u64),
    Clear,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let path = 0..TREE.len();
    let kind = 0..KINDS.len();
    let insert = move || {
        ((0..TREE.len(), 0..KINDS.len(), any::<bool>()), (0u64..3, 0u64..60, 1u64..60, 0u32..3))
            .prop_map(|((p, k, reborn), (listing, anchor, life, by))| {
                Op::Insert(p, k, reborn, listing, anchor, life, by)
            })
    };
    let id_ixs = || proptest::collection::vec(0..IDS.len(), 0..3);
    // Inserts weigh four times and a clear is rare, so the cache often
    // runs full and evicts.
    prop_oneof![
        insert(),
        insert(),
        insert(),
        insert(),
        (path.clone(), kind.clone(), any::<bool>(), 0u64..120)
            .prop_map(|(p, k, parsed, now)| Op::Get(p, k, parsed, now)),
        (path.clone(), kind.clone(), any::<bool>())
            .prop_map(|(p, k, parsed)| Op::Peek(p, k, parsed)),
        (path.clone(), kind.clone(), any::<bool>(), 0u64..120)
            .prop_map(|(p, k, parsed, exp)| Op::Extend(p, k, parsed, exp)),
        (path, kind, any::<bool>()).prop_map(|(p, k, parsed)| Op::Remove(p, k, parsed)),
        (id_ixs(), id_ixs(), 0u64..120).prop_map(|(ts, ls, at)| Op::Invalidate(ts, ls, at)),
        (0u64..120, 0u64..40, 0u8..16).prop_map(|(now, horizon, c)| {
            if c == 0 {
                Op::Clear
            } else {
                Op::Sweep(now, horizon)
            }
        }),
    ]
}

fn chain(p: usize, reborn: bool) -> Vec<u64> {
    let (_, first, second, depth) = TREE[p];
    (if reborn { second } else { first })[..depth].to_vec()
}

/// Everything an entry holds, comparable across the two caches.
type Seen = (FsOk, Vec<u64>, u64, Option<u64>, SimTime, SimTime, u32);

fn seen(e: Option<&CacheEntry>) -> Option<Seen> {
    e.map(|e| {
        (
            e.value.clone(),
            e.chain.clone(),
            e.target,
            e.listing_dir,
            e.anchor,
            e.expiry,
            e.granted_by,
        )
    })
}

fn value(serial: u64) -> FsOk {
    FsOk::Attrs(InodeAttrs {
        id: InodeId(serial),
        is_dir: false,
        perm: Default::default(),
        owner: 0,
        group: 0,
        size: serial,
        mtime: 0,
        replication: 3,
        inline_len: 0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_cache_matches_scanning_reference(
        cap in 1usize..7,
        ops in proptest::collection::vec(op_strategy(), 1..160),
    ) {
        let parsed: Vec<FsPath> = TREE.iter().map(|(s, ..)| FsPath::parse(s).expect("valid")).collect();
        let mut cache = LeaseCache::new(cap);
        let mut reference = ScanCache::new(cap);
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Insert(p, k, reborn, listing, anchor, life, by) => {
                    let ids = chain(p, reborn);
                    let listing_dir = match listing {
                        0 => None,
                        1 => Some(ids[ids.len().saturating_sub(2)]),
                        _ => ids.last().copied(),
                    };
                    let entry = CacheEntry {
                        value: value(step as u64),
                        target: *ids.last().expect("non-empty chain"),
                        chain: ids,
                        listing_dir,
                        anchor: t(anchor),
                        expiry: t(anchor + life),
                        granted_by: by,
                    };
                    let (path, kind) = (TREE[p].0, KINDS[k]);
                    // Insert by either form too: both must file the same key.
                    let got = if step % 2 == 0 {
                        cache.insert(path, kind, entry.clone())
                    } else {
                        cache.insert(&parsed[p], kind, entry.clone())
                    };
                    prop_assert_eq!(got, reference.insert(path, kind, entry), "step {}: {:?}", step, op);
                }
                Op::Get(p, k, by_parsed, now) => {
                    let (path, kind) = (TREE[p].0, KINDS[k]);
                    let got = if by_parsed {
                        seen(cache.get(&parsed[p], kind, t(now)))
                    } else {
                        seen(cache.get(path, kind, t(now)))
                    };
                    prop_assert_eq!(got, seen(reference.get(path, kind, t(now))), "step {}: {:?}", step, op);
                }
                Op::Peek(p, k, by_parsed) => {
                    let (path, kind) = (TREE[p].0, KINDS[k]);
                    let got = if by_parsed {
                        seen(cache.peek(&parsed[p], kind))
                    } else {
                        seen(cache.peek(path, kind))
                    };
                    prop_assert_eq!(got, seen(reference.peek(path, kind)), "step {}: {:?}", step, op);
                }
                Op::Extend(p, k, by_parsed, exp) => {
                    let (path, kind) = (TREE[p].0, KINDS[k]);
                    if by_parsed {
                        cache.extend(&parsed[p], kind, t(exp));
                    } else {
                        cache.extend(path, kind, t(exp));
                    }
                    reference.extend(path, kind, t(exp));
                }
                Op::Remove(p, k, by_parsed) => {
                    let (path, kind) = (TREE[p].0, KINDS[k]);
                    if by_parsed {
                        cache.remove(&parsed[p], kind);
                    } else {
                        cache.remove(path, kind);
                    }
                    reference.remove(path, kind);
                }
                Op::Invalidate(ref ts, ref ls, at) => {
                    let targets: Vec<u64> = ts.iter().map(|&i| IDS[i]).collect();
                    let dirs: Vec<u64> = ls.iter().map(|&i| IDS[i]).collect();
                    prop_assert_eq!(
                        cache.invalidate(&targets, &dirs, t(at)),
                        reference.invalidate(&targets, &dirs, t(at)),
                        "step {}: {:?}", step, op
                    );
                }
                Op::Sweep(now, horizon) => {
                    let horizon = SimDuration::from_millis(horizon);
                    cache.sweep(t(now), horizon);
                    reference.sweep(t(now), horizon);
                }
                Op::Clear => {
                    cache.clear();
                    reference.clear();
                }
            }
            prop_assert_eq!(cache.len(), reference.entries.len(), "step {}: {:?}", step, op);
            prop_assert_eq!(cache.is_empty(), reference.entries.is_empty());
            for (now, margin, max) in [(0, 200, usize::MAX), (step as u64 % 60, 25, 3)] {
                let margin = SimDuration::from_millis(margin);
                prop_assert_eq!(
                    cache.renewal_candidates(t(now), margin, max),
                    reference.renewal_candidates(t(now), margin, max),
                    "step {}: {:?}", step, op
                );
            }
        }
        // Whatever survived is served identically by both caches.
        for (p, (path, ..)) in TREE.iter().enumerate() {
            for kind in KINDS {
                prop_assert_eq!(seen(cache.peek(&parsed[p], kind)), seen(reference.peek(path, kind)));
            }
        }
    }
}

/// A lease hit, a peek, a renewal and a removal look the entry up by its
/// parsed or rendered path without building an owned key.
#[test]
fn lookups_do_not_allocate() {
    let mut cache = LeaseCache::new(16);
    let entry = |ids: &[u64]| CacheEntry {
        value: value(ids[ids.len() - 1]),
        chain: ids.to_vec(),
        target: ids[ids.len() - 1],
        listing_dir: None,
        anchor: t(0),
        expiry: t(100),
        granted_by: 0,
    };
    for (p, (path, ..)) in TREE.iter().enumerate() {
        cache.insert(*path, KIND_STAT, entry(&chain(p, false)));
    }
    // One removal and re-insert first, so the free-slot list has room.
    let path = FsPath::parse("/a/b/c").expect("valid");
    cache.remove(&path, KIND_STAT);
    cache.insert(&path, KIND_STAT, entry(&[1, 2, 3, 4]));

    let before = allocs();
    assert!(cache.get(&path, KIND_STAT, t(10)).is_some());
    assert!(cache.get("/a/b/c", KIND_STAT, t(10)).is_some());
    assert!(cache.get(&path, KIND_OPEN, t(10)).is_none());
    assert!(cache.peek(&path, KIND_STAT).is_some());
    cache.extend(&path, KIND_STAT, t(150));
    cache.extend("/a/b/c", KIND_STAT, t(160));
    cache.remove(&path, KIND_STAT);
    assert_eq!(allocs() - before, 0, "a lookup allocated");
    assert!(cache.peek("/a/b/c", KIND_STAT).is_none());
}
