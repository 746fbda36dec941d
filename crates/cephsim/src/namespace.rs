//! The CephFS namespace and the subtree-ownership map.
//!
//! The namespace *content* is a single in-memory structure shared (via
//! `Arc<Mutex<…>>` — the simulation is single-threaded) by all MDS actors;
//! *ownership* — which MDS is allowed to serve a path — follows the subtree
//! map maintained by the monitor's balancer or by static pinning. This
//! simplification (documented in `DESIGN.md`) models exactly the costs the
//! paper attributes to CephFS — single-threaded MDS CPU, journaling, caps,
//! balancing — without simulating dirfrag content migration byte-for-byte;
//! migrations instead charge an export/import pause on the source MDS.

use hopsfs::types::{DirEntry, FsError, InodeAttrs, InodeId, Perm};
use simnet::FastMap;
use std::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One namespace entry.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Inode id (unique).
    pub id: u64,
    /// Directory flag.
    pub is_dir: bool,
    /// Size in bytes.
    pub size: u64,
    /// Modification time (virtual ns).
    pub mtime: u64,
    /// Permission bits.
    pub perm: u16,
}

impl Entry {
    /// Converts to client-facing attributes.
    pub fn attrs(&self) -> InodeAttrs {
        InodeAttrs {
            id: InodeId(self.id),
            is_dir: self.is_dir,
            perm: Perm(self.perm),
            owner: 0,
            group: 0,
            size: self.size,
            mtime: self.mtime,
            replication: 3,
            inline_len: 0,
        }
    }
}

/// The shared namespace store.
#[derive(Debug)]
pub struct CephNamespace {
    /// Path → entry. Root is `/`.
    entries: FastMap<String, Entry>,
    /// Dir path → child names (sorted for deterministic listings).
    children: FastMap<String, BTreeMap<String, ()>>,
    next_id: u64,
}

fn parent_of(path: &str) -> (&str, &str) {
    match path.rfind('/') {
        Some(0) => ("/", &path[1..]),
        Some(i) => (&path[..i], &path[i + 1..]),
        None => ("/", path),
    }
}

impl CephNamespace {
    /// POSIX path-prefix check: every proper ancestor of `path` must exist
    /// and be a directory (`NotFound` / `NotDir` otherwise).
    fn check_prefix(&self, path: &str) -> Result<(), FsError> {
        let mut end = 0usize;
        let bytes = path.as_bytes();
        for i in 1..bytes.len() {
            if bytes[i] == b'/' {
                let anc = &path[..i];
                match self.entries.get(anc) {
                    None => return Err(FsError::NotFound),
                    Some(e) if !e.is_dir => return Err(FsError::NotDir),
                    Some(_) => {}
                }
                end = i;
            }
        }
        let _ = end;
        Ok(())
    }

    /// Looks up an entry with POSIX prefix semantics.
    fn resolve(&self, path: &str) -> Result<&Entry, FsError> {
        self.check_prefix(path)?;
        self.entries.get(path).ok_or(FsError::NotFound)
    }

    /// Creates a namespace containing only the root.
    pub fn new() -> Self {
        let mut ns =
            CephNamespace { entries: FastMap::default(), children: FastMap::default(), next_id: 2 };
        ns.entries.insert(
            "/".to_string(),
            Entry { id: 1, is_dir: true, size: 0, mtime: 0, perm: 0o755 },
        );
        ns.children.insert("/".to_string(), BTreeMap::new());
        ns
    }

    /// New shared handle.
    pub fn shared() -> Arc<Mutex<CephNamespace>> {
        Arc::new(Mutex::new(Self::new()))
    }

    /// Number of entries (including root).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether only the root exists.
    pub fn is_empty(&self) -> bool {
        self.entries.len() <= 1
    }

    /// Looks up an entry.
    pub fn get(&self, path: &str) -> Option<&Entry> {
        self.entries.get(path)
    }

    /// Stat with POSIX prefix semantics.
    pub fn stat(&self, path: &str) -> Result<InodeAttrs, FsError> {
        if path == "/" {
            return Ok(self.entries["/"].attrs());
        }
        self.resolve(path).map(|e| e.attrs())
    }

    /// Creates a directory. Errors mirror POSIX.
    pub fn mkdir(&mut self, path: &str, now: u64) -> Result<(), FsError> {
        self.insert(path, true, 0, now)
    }

    /// Creates a file.
    pub fn create(&mut self, path: &str, size: u64, now: u64) -> Result<(), FsError> {
        self.insert(path, false, size, now)
    }

    fn insert(&mut self, path: &str, is_dir: bool, size: u64, now: u64) -> Result<(), FsError> {
        self.check_prefix(path)?;
        if self.entries.contains_key(path) {
            return Err(FsError::AlreadyExists);
        }
        let (parent, name) = parent_of(path);
        match self.entries.get(parent) {
            None => return Err(FsError::NotFound),
            Some(p) if !p.is_dir => return Err(FsError::NotDir),
            Some(_) => {}
        }
        let id = self.next_id;
        self.next_id += 1;
        self.entries.insert(path.to_string(), Entry { id, is_dir, size, mtime: now, perm: if is_dir { 0o755 } else { 0o644 } });
        if is_dir {
            self.children.insert(path.to_string(), BTreeMap::new());
        }
        self.children.get_mut(parent).expect("parent is a dir").insert(name.to_string(), ());
        Ok(())
    }

    /// Removes a file or directory.
    pub fn delete(&mut self, path: &str, recursive: bool) -> Result<u64, FsError> {
        let entry = self.resolve(path)?.clone();
        if entry.is_dir {
            let kids = self.children.get(path).map(|c| c.len()).unwrap_or(0);
            if kids > 0 && !recursive {
                return Err(FsError::NotEmpty);
            }
            if kids > 0 {
                let kid_names: Vec<String> = self.children[path].keys().cloned().collect();
                for name in kid_names {
                    let child = format!("{}/{}", if path == "/" { "" } else { path }, name);
                    self.delete(&child, true)?;
                }
            }
            self.children.remove(path);
        }
        self.entries.remove(path);
        let (parent, name) = parent_of(path);
        if let Some(c) = self.children.get_mut(parent) {
            c.remove(name);
        }
        Ok(entry.id)
    }

    /// Atomic rename (with subtree path rewrite — CephFS pays this through
    /// its dirfrag structures; here path keys must move).
    pub fn rename(&mut self, src: &str, dst: &str) -> Result<(), FsError> {
        // Resolve both parent chains before the entries (matching HopsFS's
        // walk order, so the two systems report identical error kinds).
        self.check_prefix(src)?;
        self.check_prefix(dst)?;
        if !self.entries.contains_key(src) {
            return Err(FsError::NotFound);
        }
        if self.entries.contains_key(dst) {
            return Err(FsError::AlreadyExists);
        }
        let (dparent, dname) = parent_of(dst);
        match self.entries.get(dparent) {
            None => return Err(FsError::NotFound),
            Some(p) if !p.is_dir => return Err(FsError::NotDir),
            Some(_) => {}
        }
        // Collect src and every path under it by walking the child maps, so
        // the cost is the subtree's size, not the namespace's.
        let mut moved = vec![src.to_string()];
        let mut next = 0;
        while next < moved.len() {
            let dir = &moved[next];
            let kids: Vec<String> = match self.children.get(dir) {
                Some(c) => c.keys().map(|name| format!("{dir}/{name}")).collect(),
                None => Vec::new(),
            };
            moved.extend(kids);
            next += 1;
        }
        for old in moved {
            let new = format!("{dst}{}", &old[src.len()..]);
            if let Some(e) = self.entries.remove(&old) {
                self.entries.insert(new.clone(), e);
            }
            if let Some(c) = self.children.remove(&old) {
                self.children.insert(new, c);
            }
        }
        let (sparent, sname) = parent_of(src);
        if let Some(c) = self.children.get_mut(sparent) {
            c.remove(sname);
        }
        self.children
            .get_mut(dparent)
            .expect("validated above")
            .insert(dname.to_string(), ());
        Ok(())
    }

    /// Directory listing.
    pub fn list(&self, path: &str) -> Result<Vec<DirEntry>, FsError> {
        let entry = self.resolve(path)?;
        if !entry.is_dir {
            let (_, name) = parent_of(path);
            return Ok(vec![DirEntry { name: name.to_string(), attrs: entry.attrs() }]);
        }
        let kids = self.children.get(path).expect("dir has child map");
        Ok(kids
            .keys()
            .map(|name| {
                let child = format!("{}/{}", if path == "/" { "" } else { path }, name);
                DirEntry { name: name.clone(), attrs: self.entries[&child].attrs() }
            })
            .collect())
    }

    /// Appends bytes to a file.
    pub fn append(&mut self, path: &str, bytes: u64, now: u64) -> Result<(), FsError> {
        self.check_prefix(path)?;
        match self.entries.get_mut(path) {
            None => Err(FsError::NotFound),
            Some(e) if e.is_dir => Err(FsError::IsDir),
            Some(e) => {
                e.size += bytes;
                e.mtime = now;
                Ok(())
            }
        }
    }

    /// Sets permission bits.
    pub fn set_perm(&mut self, path: &str, perm: u16) -> Result<(), FsError> {
        self.check_prefix(path)?;
        match self.entries.get_mut(path) {
            Some(e) => {
                e.perm = perm;
                Ok(())
            }
            None => Err(FsError::NotFound),
        }
    }
}

impl Default for CephNamespace {
    fn default() -> Self {
        Self::new()
    }
}

/// Subtree → MDS ownership map, shared by clients, MDSs and the monitor.
#[derive(Debug)]
pub struct SubtreeMap {
    /// (path prefix, owner). Deepest matching prefix wins; `/` is always
    /// present.
    assignments: Vec<(String, usize)>,
    /// Hot prefixes whose metadata is read-replicated across all MDSs
    /// (CephFS replicates hot dirfrags so any MDS can serve their reads;
    /// the authority still takes all mutations).
    replicated: Vec<String>,
    /// MDS count, for spreading replicated reads.
    mds_count: usize,
    /// Version bump per rebalance (for stats).
    pub version: u64,
}

impl SubtreeMap {
    /// Everything owned by MDS 0 initially (CephFS starts with the root
    /// authoritative on one MDS).
    pub fn new() -> Self {
        SubtreeMap {
            assignments: vec![("/".to_string(), 0)],
            replicated: Vec::new(),
            mds_count: 1,
            version: 0,
        }
    }

    /// Sets the MDS count used to spread replicated-subtree reads.
    pub fn set_mds_count(&mut self, n: usize) {
        self.mds_count = n.max(1);
    }

    /// Marks a prefix's metadata as read-replicated on every MDS.
    pub fn replicate(&mut self, prefix: &str) {
        if !self.replicated.iter().any(|p| p == prefix) {
            self.replicated.push(prefix.to_string());
            self.version += 1;
        }
    }

    /// Whether some replicated prefix covers `path`.
    pub fn is_replicated(&self, path: &str) -> bool {
        self.replicated.iter().any(|prefix| {
            path == prefix
                || (path.starts_with(prefix.as_str())
                    && path.as_bytes().get(prefix.len()) == Some(&b'/'))
        })
    }

    /// Number of read-replicated prefixes.
    pub fn replicated_count(&self) -> usize {
        self.replicated.len()
    }

    /// The MDS that should serve a *read* of `path`: any MDS when the
    /// path's subtree is read-replicated (spread by `salt`), otherwise the
    /// authority.
    pub fn read_owner_of(&self, path: &str, salt: u64) -> usize {
        if self.is_replicated(path) {
            (salt % self.mds_count as u64) as usize
        } else {
            self.owner_of(path)
        }
    }

    /// New shared handle.
    pub fn shared() -> Arc<Mutex<SubtreeMap>> {
        Arc::new(Mutex::new(Self::new()))
    }

    /// The MDS that owns `path` (deepest matching prefix).
    pub fn owner_of(&self, path: &str) -> usize {
        let mut best = (0usize, 0usize); // (prefix len, owner)
        for (prefix, owner) in &self.assignments {
            let matches = prefix == "/"
                || path == prefix
                || (path.starts_with(prefix.as_str())
                    && path.as_bytes().get(prefix.len()) == Some(&b'/'));
            if matches && prefix.len() >= best.0 {
                best = (prefix.len(), *owner);
            }
        }
        best.1
    }

    /// Pins a subtree to an MDS (returns the previous owner).
    pub fn assign(&mut self, prefix: &str, owner: usize) -> usize {
        self.version += 1;
        if let Some(slot) = self.assignments.iter_mut().find(|(p, _)| p == prefix) {
            let old = slot.1;
            slot.1 = owner;
            return old;
        }
        let old = self.owner_of(prefix);
        self.assignments.push((prefix.to_string(), owner));
        old
    }

    /// Current assignments.
    pub fn assignments(&self) -> &[(String, usize)] {
        &self.assignments
    }
}

impl Default for SubtreeMap {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mkdir_create_list() {
        let mut ns = CephNamespace::new();
        ns.mkdir("/a", 1).unwrap();
        ns.create("/a/f", 10, 2).unwrap();
        assert_eq!(ns.mkdir("/a", 3), Err(FsError::AlreadyExists));
        assert_eq!(ns.create("/missing/f", 0, 3), Err(FsError::NotFound));
        assert_eq!(ns.create("/a/f/x", 0, 3), Err(FsError::NotDir));
        let l = ns.list("/a").unwrap();
        assert_eq!(l.len(), 1);
        assert_eq!(l[0].name, "f");
        assert_eq!(l[0].attrs.size, 10);
    }

    #[test]
    fn delete_semantics() {
        let mut ns = CephNamespace::new();
        ns.mkdir("/d", 0).unwrap();
        ns.create("/d/f", 0, 0).unwrap();
        assert_eq!(ns.delete("/d", false), Err(FsError::NotEmpty));
        ns.delete("/d", true).unwrap();
        assert!(ns.get("/d").is_none());
        assert!(ns.get("/d/f").is_none());
        assert_eq!(ns.delete("/d", false), Err(FsError::NotFound));
    }

    #[test]
    fn rename_moves_subtree_paths() {
        let mut ns = CephNamespace::new();
        ns.mkdir("/a", 0).unwrap();
        ns.mkdir("/a/sub", 0).unwrap();
        ns.create("/a/sub/f", 0, 0).unwrap();
        ns.mkdir("/b", 0).unwrap();
        ns.rename("/a/sub", "/b/moved").unwrap();
        assert!(ns.get("/a/sub").is_none());
        assert!(ns.get("/b/moved").is_some());
        assert!(ns.get("/b/moved/f").is_some());
        assert_eq!(ns.list("/a").unwrap().len(), 0);
    }

    #[test]
    fn rename_moves_exactly_the_subtree_and_its_child_maps() {
        let mut ns = CephNamespace::new();
        for d in ["/a", "/a/sub", "/a/sub/deep", "/a/subway", "/a/subway/x", "/b"] {
            ns.mkdir(d, 0).unwrap();
        }
        for f in ["/a/sub/f", "/a/sub/deep/g", "/a/sub.txt", "/a/subway/x/h"] {
            ns.create(f, 0, 0).unwrap();
        }
        ns.rename("/a/sub", "/b/moved").unwrap();
        let sorted = |keys: Vec<&String>| {
            let mut v: Vec<String> = keys.into_iter().cloned().collect();
            v.sort();
            v
        };
        assert_eq!(
            sorted(ns.entries.keys().collect()),
            [
                "/",
                "/a",
                "/a/sub.txt",
                "/a/subway",
                "/a/subway/x",
                "/a/subway/x/h",
                "/b",
                "/b/moved",
                "/b/moved/deep",
                "/b/moved/deep/g",
                "/b/moved/f",
            ]
        );
        assert_eq!(
            sorted(ns.children.keys().collect()),
            ["/", "/a", "/a/subway", "/a/subway/x", "/b", "/b/moved", "/b/moved/deep"]
        );
        let names = |dir: &str| -> Vec<String> {
            ns.list(dir).unwrap().into_iter().map(|e| e.name).collect()
        };
        assert_eq!(names("/a"), ["sub.txt", "subway"]);
        assert_eq!(names("/b"), ["moved"]);
        assert_eq!(names("/b/moved"), ["deep", "f"]);
        assert_eq!(names("/b/moved/deep"), ["g"]);
        assert_eq!(names("/a/subway/x"), ["h"]);
    }

    #[test]
    fn subtree_map_deepest_prefix_wins() {
        let mut m = SubtreeMap::new();
        m.assign("/user", 1);
        m.assign("/user/bob", 2);
        assert_eq!(m.owner_of("/etc"), 0);
        assert_eq!(m.owner_of("/user/alice/f"), 1);
        assert_eq!(m.owner_of("/user/bob"), 2);
        assert_eq!(m.owner_of("/user/bob/x/y"), 2);
        // No false prefix matches on siblings.
        assert_eq!(m.owner_of("/user/bobby"), 1);
    }

    #[test]
    fn reassign_returns_previous_owner() {
        let mut m = SubtreeMap::new();
        assert_eq!(m.assign("/x", 3), 0);
        assert_eq!(m.assign("/x", 4), 3);
        assert_eq!(m.owner_of("/x"), 4);
    }
}
