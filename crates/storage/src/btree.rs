//! A disk-resident B⁺-tree over fixed-width composite keys.
//!
//! Used for every ordered access path in the engine: atom directories
//! (`atom_no → version-chain head`), attribute value indexes
//! (`(encoded value, rid) → rid`) and the time index
//! (`(tt_start, rid) → rid`).
//!
//! Layout:
//!
//! * page 0 — meta: magic, root page id, entry count;
//! * leaves — sorted `(key.hi, key.lo, value)` triples (24 bytes each) plus
//!   a `next_leaf` pointer forming the scan chain;
//! * internals — sorted separator keys with child pointers; child `i`
//!   covers keys in `[key[i-1], key[i])` (child 0 covers `< key[0]`).
//!
//! Concurrency: one writer at a time (the engine applies commits one
//! after another), any number of readers beside it. A reader descends
//! latch-coupled: it holds a node's page latch until it holds the child's,
//! so it never follows a pointer the writer is about to move. The writer
//! changes one leaf under that leaf's write latch alone; an insert whose
//! leaf overflows takes write latches from the meta page down to the leaf
//! first, so a reader meets every level of the split either before or
//! after it. A split writes the new right sibling before the left node
//! links to it, so a scan walking the leaf chain (one leaf latched at a
//! time) sees each entry once. Deletion is *lazy* — entries are removed
//! but nodes are never merged, a policy many production trees (e.g.
//! PostgreSQL pre-vacuum) share; after a mass removal, [`BTree::compact`]
//! repacks the survivors into dense nodes so scans stop paying for emptied
//! pages.

use crate::buffer::{BufferPool, FileId, PageMut, PageRef};
use crate::keys::BKey;
use crate::page::{Page, PageKind, PAGE_SIZE};
use std::sync::Arc;
use tcom_kernel::{Error, PageId, Result};

const BTREE_MAGIC: u64 = 0x5443_4254_5245_0001; // "TCBTREE" v1

// Meta page offsets.
const META_MAGIC: usize = 8;
const META_ROOT: usize = 16;
const META_COUNT: usize = 24;

// Node header offsets (after the 8-byte common page header).
const NODE_NKEYS: usize = 8;
const NODE_NEXT: usize = 12; // leaves only: next-leaf page id
const ENTRIES: usize = 16;

const LEAF_STRIDE: usize = 24; // hi(8) lo(8) val(8)
const INT_STRIDE: usize = 20; // hi(8) lo(8) child(4)

/// Maximum entries in a leaf node at the default fanout.
const LEAF_CAP: usize = (PAGE_SIZE - ENTRIES) / LEAF_STRIDE;
/// Maximum separator entries in an internal node at the default fanout.
const INT_CAP: usize = (PAGE_SIZE - ENTRIES - 4) / INT_STRIDE;

/// A disk-resident B⁺-tree bound to one buffer-pool file.
pub struct BTree {
    pool: Arc<BufferPool>,
    file: FileId,
    leaf_cap: usize,
    int_cap: usize,
}

#[derive(Clone)]
struct LeafNode {
    entries: Vec<(BKey, u64)>,
    next: PageId,
}

#[derive(Clone)]
struct IntNode {
    /// children.len() == keys.len() + 1
    keys: Vec<BKey>,
    children: Vec<PageId>,
}

impl BTree {
    /// Formats a fresh tree (meta page + empty root leaf).
    pub fn create(pool: Arc<BufferPool>, file: FileId) -> Result<BTree> {
        let t = BTree {
            pool,
            file,
            leaf_cap: LEAF_CAP,
            int_cap: INT_CAP,
        };
        {
            let (meta_id, mut meta) = t.pool.create(file, PageKind::Meta)?;
            if meta_id != PageId(0) {
                return Err(Error::internal("btree meta page must be page 0"));
            }
            meta.write_u64(META_MAGIC, BTREE_MAGIC);
            meta.write_u64(META_COUNT, 0);
        }
        let root = t.alloc_leaf(LeafNode {
            entries: Vec::new(),
            next: PageId::INVALID,
        })?;
        {
            let mut meta = t.pool.fetch_write(file, PageId(0))?;
            meta.write_u32(META_ROOT, root.0);
        }
        Ok(t)
    }

    /// Opens an existing tree, validating the meta page.
    pub fn open(pool: Arc<BufferPool>, file: FileId) -> Result<BTree> {
        {
            let meta = pool.fetch_read(file, PageId(0))?;
            if meta.read_u64(META_MAGIC) != BTREE_MAGIC {
                return Err(Error::corruption("bad btree file magic"));
            }
        }
        Ok(BTree {
            pool,
            file,
            leaf_cap: LEAF_CAP,
            int_cap: INT_CAP,
        })
    }

    /// Test/ablation hook: restricts node fanout so that splits are
    /// exercised with small key counts. Caps below 2 are rejected.
    pub fn with_fanout(mut self, leaf_cap: usize, int_cap: usize) -> BTree {
        assert!(leaf_cap >= 2 && int_cap >= 2, "fanout must be at least 2");
        self.leaf_cap = leaf_cap.min(LEAF_CAP);
        self.int_cap = int_cap.min(INT_CAP);
        self
    }

    fn root(&self) -> Result<PageId> {
        let meta = self.pool.fetch_read(self.file, PageId(0))?;
        Ok(PageId(meta.read_u32(META_ROOT)))
    }

    /// The latched leaf whose key range holds `key`, reached latch-coupled
    /// from the meta page: each node stays latched until its child is.
    fn leaf_for(&self, key: BKey) -> Result<PageRef<'_>> {
        let meta = self.pool.fetch_read(self.file, PageId(0))?;
        let mut page = self
            .pool
            .fetch_read(self.file, PageId(meta.read_u32(META_ROOT)))?;
        drop(meta);
        loop {
            match page.kind()? {
                PageKind::BTreeInternal => {
                    let node = Self::load_int(&page)?;
                    let child = node.children[child_index(&node.keys, key)];
                    page = self.pool.fetch_read(self.file, child)?;
                }
                PageKind::BTreeLeaf => return Ok(page),
                k => {
                    return Err(Error::corruption(format!(
                        "unexpected page kind {k:?} in btree"
                    )))
                }
            }
        }
    }

    fn set_root(&self, root: PageId) -> Result<()> {
        let mut meta = self.pool.fetch_write(self.file, PageId(0))?;
        meta.write_u32(META_ROOT, root.0);
        Ok(())
    }

    /// Number of entries.
    pub fn len(&self) -> Result<u64> {
        let meta = self.pool.fetch_read(self.file, PageId(0))?;
        Ok(meta.read_u64(META_COUNT))
    }

    /// True iff the tree has no entries.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    fn bump_count(&self, delta: i64) -> Result<()> {
        let mut meta = self.pool.fetch_write(self.file, PageId(0))?;
        let c = meta.read_u64(META_COUNT) as i64 + delta;
        meta.write_u64(META_COUNT, c as u64);
        Ok(())
    }

    // ---- node (de)serialization ----

    fn load_leaf(page: &Page) -> Result<LeafNode> {
        let n = page.read_u16(NODE_NKEYS) as usize;
        if ENTRIES + n * LEAF_STRIDE > PAGE_SIZE {
            return Err(Error::corruption("leaf nkeys out of range"));
        }
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            let off = ENTRIES + i * LEAF_STRIDE;
            entries.push((
                BKey::new(page.read_u64(off), page.read_u64(off + 8)),
                page.read_u64(off + 16),
            ));
        }
        Ok(LeafNode {
            entries,
            next: PageId(page.read_u32(NODE_NEXT)),
        })
    }

    fn store_leaf(page: &mut Page, node: &LeafNode) {
        page.set_kind(PageKind::BTreeLeaf);
        page.write_u16(NODE_NKEYS, node.entries.len() as u16);
        page.write_u32(NODE_NEXT, node.next.0);
        for (i, (k, v)) in node.entries.iter().enumerate() {
            let off = ENTRIES + i * LEAF_STRIDE;
            page.write_u64(off, k.hi);
            page.write_u64(off + 8, k.lo);
            page.write_u64(off + 16, *v);
        }
    }

    fn load_int(page: &Page) -> Result<IntNode> {
        let n = page.read_u16(NODE_NKEYS) as usize;
        if ENTRIES + n * INT_STRIDE + 4 > PAGE_SIZE {
            return Err(Error::corruption("internal nkeys out of range"));
        }
        let mut keys = Vec::with_capacity(n);
        let mut children = Vec::with_capacity(n + 1);
        children.push(PageId(page.read_u32(NODE_NEXT))); // child0 reuses the slot
        for i in 0..n {
            let off = ENTRIES + i * INT_STRIDE;
            keys.push(BKey::new(page.read_u64(off), page.read_u64(off + 8)));
            children.push(PageId(page.read_u32(off + 16)));
        }
        Ok(IntNode { keys, children })
    }

    fn store_int(page: &mut Page, node: &IntNode) {
        debug_assert_eq!(node.children.len(), node.keys.len() + 1);
        page.set_kind(PageKind::BTreeInternal);
        page.write_u16(NODE_NKEYS, node.keys.len() as u16);
        page.write_u32(NODE_NEXT, node.children[0].0);
        for (i, k) in node.keys.iter().enumerate() {
            let off = ENTRIES + i * INT_STRIDE;
            page.write_u64(off, k.hi);
            page.write_u64(off + 8, k.lo);
            page.write_u32(off + 16, node.children[i + 1].0);
        }
    }

    fn alloc_leaf(&self, node: LeafNode) -> Result<PageId> {
        let (pid, mut page) = self.pool.create(self.file, PageKind::BTreeLeaf)?;
        Self::store_leaf(&mut page, &node);
        Ok(pid)
    }

    fn alloc_int(&self, node: IntNode) -> Result<PageId> {
        let (pid, mut page) = self.pool.create(self.file, PageKind::BTreeInternal)?;
        Self::store_int(&mut page, &node);
        Ok(pid)
    }

    // ---- point operations ----

    /// Looks up a key.
    pub fn get(&self, key: BKey) -> Result<Option<u64>> {
        let node = Self::load_leaf(&*self.leaf_for(key)?)?;
        Ok(node
            .entries
            .binary_search_by_key(&key, |e| e.0)
            .ok()
            .map(|i| node.entries[i].1))
    }

    /// Inserts or replaces; returns the previous value if the key existed.
    pub fn insert(&self, key: BKey, value: u64) -> Result<Option<u64>> {
        self.update(key, |_| Some(value))
    }

    /// Removes a key; returns its value if present. Lazy (no rebalancing).
    pub fn remove(&self, key: BKey) -> Result<Option<u64>> {
        self.update(key, |_| None)
    }

    /// Sets the value under `key` to `f` of its current value (`None` when
    /// absent) in one descent: `None` from `f` removes the key (lazily, no
    /// rebalancing). Returns the previous value.
    pub fn update(
        &self,
        key: BKey,
        f: impl FnOnce(Option<u64>) -> Option<u64>,
    ) -> Result<Option<u64>> {
        // This is the tree's one writer, so the path it reads cannot move
        // before it latches the leaf.
        let mut pid = self.root()?;
        let mut page = loop {
            let page = self.pool.fetch_read(self.file, pid)?;
            match page.kind()? {
                PageKind::BTreeInternal => {
                    let node = Self::load_int(&page)?;
                    pid = node.children[child_index(&node.keys, key)];
                }
                PageKind::BTreeLeaf => {
                    drop(page);
                    break self.pool.fetch_write(self.file, pid)?;
                }
                k => {
                    return Err(Error::corruption(format!(
                        "unexpected page kind {k:?} in btree"
                    )))
                }
            }
        };
        let mut node = Self::load_leaf(&page)?;
        let found = node.entries.binary_search_by_key(&key, |e| e.0);
        let old = found.ok().map(|i| node.entries[i].1);
        let new = f(old);
        match (found, new) {
            (Ok(i), Some(value)) => node.entries[i].1 = value,
            (Ok(i), None) => {
                node.entries.remove(i);
            }
            (Err(_), None) => return Ok(None),
            (Err(i), Some(value)) => node.entries.insert(i, (key, value)),
        }
        if node.entries.len() <= self.leaf_cap {
            Self::store_leaf(&mut page, &node);
            // Readers latch the meta page before any node: never hold a
            // node while waiting for it.
            drop(page);
        } else {
            drop(page);
            self.split(key, node)?;
        }
        let delta = new.is_some() as i64 - old.is_some() as i64;
        if delta != 0 {
            self.bump_count(delta)?;
        }
        Ok(old)
    }

    /// Stores `leaf`, the overfull new content of the leaf holding `key`,
    /// split in two, and carries the split up as far as it goes. Every
    /// node on the path is write-latched, from the meta page down, before
    /// any changes, and stays so until all have; each new right sibling is
    /// written before its left node or parent names it.
    fn split(&self, key: BKey, mut leaf: LeafNode) -> Result<()> {
        let mut meta = self.pool.fetch_write(self.file, PageId(0))?;
        let root = PageId(meta.read_u32(META_ROOT));
        let mut path: Vec<(PageMut<'_>, IntNode)> = Vec::new();
        let mut pid = root;
        let mut page = loop {
            let page = self.pool.fetch_write(self.file, pid)?;
            if page.kind()? != PageKind::BTreeInternal {
                break page;
            }
            let node = Self::load_int(&page)?;
            pid = node.children[child_index(&node.keys, key)];
            path.push((page, node));
        };
        // The upper half moves to a fresh right sibling.
        let right_entries = leaf.entries.split_off(leaf.entries.len() / 2);
        let mut sep = right_entries[0].0;
        let mut right = self.alloc_leaf(LeafNode {
            entries: right_entries,
            next: leaf.next,
        })?;
        leaf.next = right;
        Self::store_leaf(&mut page, &leaf);
        while let Some((mut page, mut node)) = path.pop() {
            let pos = child_index(&node.keys, sep);
            node.keys.insert(pos, sep);
            node.children.insert(pos + 1, right);
            if node.keys.len() <= self.int_cap {
                Self::store_int(&mut page, &node);
                return Ok(());
            }
            // Split internal node: the middle key moves *up*.
            let mid = node.keys.len() / 2;
            let up_key = node.keys[mid];
            right = self.alloc_int(IntNode {
                keys: node.keys.split_off(mid + 1),
                children: node.children.split_off(mid + 1),
            })?;
            node.keys.pop(); // the up_key leaves this node
            Self::store_int(&mut page, &node);
            sep = up_key;
        }
        let new_root = self.alloc_int(IntNode {
            keys: vec![sep],
            children: vec![root, right],
        })?;
        meta.write_u32(META_ROOT, new_root.0);
        Ok(())
    }

    // ---- range operations ----

    /// Calls `f(key, value)` for every entry with `lo <= key < hi`, in key
    /// order. `f` returning `false` stops the scan.
    pub fn scan_range(
        &self,
        lo: BKey,
        hi: BKey,
        mut f: impl FnMut(BKey, u64) -> Result<bool>,
    ) -> Result<()> {
        // Walk the leaf chain from the leaf that would contain `lo`.
        let mut page = self.leaf_for(lo)?;
        loop {
            let node = Self::load_leaf(&page)?;
            drop(page);
            for (k, v) in &node.entries {
                if *k < lo {
                    continue;
                }
                if *k >= hi {
                    return Ok(());
                }
                if !f(*k, *v)? {
                    return Ok(());
                }
            }
            if node.next.is_invalid() {
                return Ok(());
            }
            page = self.pool.fetch_read(self.file, node.next)?;
        }
    }

    /// Collects a range into a vector (convenience for small ranges).
    pub fn range_vec(&self, lo: BKey, hi: BKey) -> Result<Vec<(BKey, u64)>> {
        let mut out = Vec::new();
        self.scan_range(lo, hi, |k, v| {
            out.push((k, v));
            Ok(true)
        })?;
        Ok(out)
    }

    /// The smallest entry, if any.
    pub fn first(&self) -> Result<Option<(BKey, u64)>> {
        let mut out = None;
        self.scan_range(BKey::MIN, BKey::MAX, |k, v| {
            out = Some((k, v));
            Ok(false)
        })?;
        Ok(out)
    }

    /// Repacks the tree into dense nodes, reusing its existing pages.
    ///
    /// Lazy deletion leaves emptied leaves on the scan chain, so after a
    /// mass removal (say, a segment swap pruning most of a time index)
    /// range scans still walk every historical leaf page. Compaction
    /// collects the live entries, packs them into full leaves over the
    /// tree's own pages, and rebuilds the internal levels above them.
    /// Pages the dense form no longer needs stay allocated — the file
    /// never shrinks — but become unreachable from the new root, so
    /// probes and scans touch only dense nodes afterwards.
    ///
    /// Callers must exclude readers as well as other writers: the rebuild
    /// overwrites nodes the old root still references before the root
    /// pointer moves.
    pub fn compact(&self) -> Result<()> {
        let entries = self.range_vec(BKey::MIN, BKey::MAX)?;
        let mut reusable = Vec::new();
        self.collect_pages(self.root()?, &mut reusable)?;
        let mut free = reusable.into_iter();
        let mut take = |pool: &Arc<BufferPool>, file: FileId| -> Result<PageId> {
            match free.next() {
                Some(pid) => Ok(pid),
                None => Ok(pool.create(file, PageKind::BTreeLeaf)?.0),
            }
        };

        // Leaf level: full leaves chained in key order (one empty leaf
        // when the tree holds nothing).
        let chunks: Vec<&[(BKey, u64)]> = if entries.is_empty() {
            vec![&[]]
        } else {
            entries.chunks(self.leaf_cap).collect()
        };
        let ids: Vec<PageId> = chunks
            .iter()
            .map(|_| take(&self.pool, self.file))
            .collect::<Result<_>>()?;
        let mut level: Vec<(BKey, PageId)> = Vec::with_capacity(ids.len());
        for (i, chunk) in chunks.iter().enumerate() {
            let node = LeafNode {
                entries: chunk.to_vec(),
                next: ids.get(i + 1).copied().unwrap_or(PageId::INVALID),
            };
            let mut page = self.pool.fetch_write(self.file, ids[i])?;
            Self::store_leaf(&mut page, &node);
            level.push((chunk.first().map_or(BKey::MIN, |e| e.0), ids[i]));
        }

        // Internal levels: each node takes up to `int_cap + 1` children;
        // the first child's low key becomes the node's own low key one
        // level up, the rest become its separators.
        while level.len() > 1 {
            let mut above = Vec::with_capacity(level.len() / (self.int_cap + 1) + 1);
            for group in level.chunks(self.int_cap + 1) {
                let node = IntNode {
                    keys: group[1..].iter().map(|(k, _)| *k).collect(),
                    children: group.iter().map(|(_, pid)| *pid).collect(),
                };
                let pid = take(&self.pool, self.file)?;
                let mut page = self.pool.fetch_write(self.file, pid)?;
                Self::store_int(&mut page, &node);
                above.push((group[0].0, pid));
            }
            level = above;
        }
        self.set_root(level[0].1)
    }

    /// Every node page of the subtree rooted at `pid` (pre-order).
    fn collect_pages(&self, pid: PageId, out: &mut Vec<PageId>) -> Result<()> {
        out.push(pid);
        let children = {
            let page = self.pool.fetch_read(self.file, pid)?;
            match page.kind()? {
                PageKind::BTreeInternal => Self::load_int(&page)?.children,
                _ => return Ok(()),
            }
        };
        for c in children {
            self.collect_pages(c, out)?;
        }
        Ok(())
    }

    /// Height of the tree (1 = root is a leaf). Diagnostic.
    pub fn height(&self) -> Result<u32> {
        let mut h = 1;
        let mut pid = self.root()?;
        loop {
            let page = self.pool.fetch_read(self.file, pid)?;
            match page.kind()? {
                PageKind::BTreeInternal => {
                    let node = Self::load_int(&page)?;
                    pid = node.children[0];
                    h += 1;
                }
                _ => return Ok(h),
            }
        }
    }
}

/// Index of the child subtree that covers `key`:
/// number of separator keys `<= key`.
fn child_index(keys: &[BKey], key: BKey) -> usize {
    match keys.binary_search(&key) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;
    use std::path::PathBuf;

    fn tmpfile(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("tcom-bt-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn tree(name: &str, frames: usize) -> (BTree, PathBuf) {
        let path = tmpfile(name);
        let dm = Arc::new(DiskManager::open(&path).unwrap());
        let pool = BufferPool::new(frames);
        let file = pool.register_file(dm);
        (BTree::create(pool, file).unwrap(), path)
    }

    fn k(hi: u64) -> BKey {
        BKey::new(hi, 0)
    }

    #[test]
    fn empty_tree() {
        let (t, path) = tree("empty", 8);
        assert!(t.is_empty().unwrap());
        assert_eq!(t.get(k(5)).unwrap(), None);
        assert_eq!(t.remove(k(5)).unwrap(), None);
        assert_eq!(t.first().unwrap(), None);
        assert_eq!(t.height().unwrap(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn insert_get_replace() {
        let (t, path) = tree("igr", 8);
        assert_eq!(t.insert(k(10), 100).unwrap(), None);
        assert_eq!(t.insert(k(20), 200).unwrap(), None);
        assert_eq!(t.get(k(10)).unwrap(), Some(100));
        assert_eq!(t.insert(k(10), 111).unwrap(), Some(100));
        assert_eq!(t.get(k(10)).unwrap(), Some(111));
        assert_eq!(t.len().unwrap(), 2);
        let _ = std::fs::remove_file(&path);
    }

    /// `update` sees the old value, writes what `f` returns, removes on
    /// `None`, leaves a missing key alone on `None`, and keeps `len` exact,
    /// also when the insert it makes splits leaves.
    #[test]
    fn update_reads_writes_and_removes() {
        let (t, path) = tree("update", 32);
        let t = t.with_fanout(4, 4);
        let add = |key: u64, by: i64| {
            t.update(k(key), |old| {
                let n = old.unwrap_or(0) as i64 + by;
                (n > 0).then_some(n as u64)
            })
            .unwrap()
        };
        for i in 0..40 {
            assert_eq!(add(i, 1), None);
        }
        assert!(t.height().unwrap() > 2);
        assert_eq!(add(7, 2), Some(1));
        assert_eq!(t.get(k(7)).unwrap(), Some(3));
        assert_eq!(add(8, -1), Some(1));
        assert_eq!(t.get(k(8)).unwrap(), None);
        assert_eq!(add(99, -1), None);
        assert_eq!(t.get(k(99)).unwrap(), None);
        assert_eq!(t.len().unwrap(), 39);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn leaf_splits_preserve_order() {
        let (t, path) = tree("split", 32);
        let t = t.with_fanout(4, 4);
        for i in (0..100u64).rev() {
            t.insert(k(i), i * 2).unwrap();
        }
        assert!(t.height().unwrap() > 2);
        for i in 0..100u64 {
            assert_eq!(t.get(k(i)).unwrap(), Some(i * 2), "key {i}");
        }
        let all = t.range_vec(BKey::MIN, BKey::MAX).unwrap();
        assert_eq!(all.len(), 100);
        for (i, (key, val)) in all.iter().enumerate() {
            assert_eq!(key.hi, i as u64);
            assert_eq!(*val, i as u64 * 2);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn random_inserts_match_model() {
        use rand::prelude::*;
        let (t, path) = tree("model", 64);
        let t = t.with_fanout(8, 8);
        let mut rng = StdRng::seed_from_u64(42);
        let mut model = std::collections::BTreeMap::new();
        for _ in 0..3000 {
            let key = BKey::new(rng.gen_range(0..500), rng.gen_range(0..4));
            let val: u64 = rng.gen_range(0..1_000_000);
            let expect_old = model.insert(key, val);
            assert_eq!(t.insert(key, val).unwrap(), expect_old);
        }
        assert_eq!(t.len().unwrap(), model.len() as u64);
        for (key, val) in &model {
            assert_eq!(t.get(*key).unwrap(), Some(*val));
        }
        let all = t.range_vec(BKey::MIN, BKey::MAX).unwrap();
        let expect: Vec<(BKey, u64)> = model.iter().map(|(kk, vv)| (*kk, *vv)).collect();
        assert_eq!(all, expect);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn random_mixed_ops_match_model() {
        use rand::prelude::*;
        let (t, path) = tree("mixed", 64);
        let t = t.with_fanout(6, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let mut model = std::collections::BTreeMap::new();
        for step in 0..5000 {
            let key = BKey::new(rng.gen_range(0..300), 0);
            if rng.gen_bool(0.6) {
                let val: u64 = step;
                assert_eq!(t.insert(key, val).unwrap(), model.insert(key, val));
            } else {
                assert_eq!(t.remove(key).unwrap(), model.remove(&key));
            }
        }
        assert_eq!(t.len().unwrap(), model.len() as u64);
        let all = t.range_vec(BKey::MIN, BKey::MAX).unwrap();
        let expect: Vec<(BKey, u64)> = model.iter().map(|(kk, vv)| (*kk, *vv)).collect();
        assert_eq!(all, expect);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn range_scan_bounds() {
        let (t, path) = tree("range", 32);
        let t = t.with_fanout(4, 4);
        for i in 0..50u64 {
            t.insert(k(i * 10), i).unwrap();
        }
        // [100, 200) -> keys 100,110,...,190
        let r = t.range_vec(k(100), k(200)).unwrap();
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].0, k(100));
        assert_eq!(r[9].0, k(190));
        // empty range
        assert!(t.range_vec(k(5), k(9)).unwrap().is_empty());
        // early stop
        let mut n = 0;
        t.scan_range(BKey::MIN, BKey::MAX, |_, _| {
            n += 1;
            Ok(n < 7)
        })
        .unwrap();
        assert_eq!(n, 7);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_hi_disambiguated_by_lo() {
        let (t, path) = tree("dup", 16);
        for lo in 0..20u64 {
            t.insert(BKey::new(42, lo), lo + 1000).unwrap();
        }
        t.insert(k(41), 1).unwrap();
        t.insert(k(43), 2).unwrap();
        let r = t.range_vec(BKey::min_for(42), BKey::max_for(42)).unwrap();
        assert_eq!(r.len(), 20);
        assert!(r
            .iter()
            .enumerate()
            .all(|(i, (key, v))| key.lo == i as u64 && *v == i as u64 + 1000));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn persists_across_reopen() {
        let path = tmpfile("persist");
        {
            let dm = Arc::new(DiskManager::open(&path).unwrap());
            let pool = BufferPool::new(16);
            let file = pool.register_file(dm);
            let t = BTree::create(pool.clone(), file).unwrap().with_fanout(4, 4);
            for i in 0..200u64 {
                t.insert(k(i), i + 7).unwrap();
            }
            pool.flush_and_sync().unwrap();
        }
        {
            let dm = Arc::new(DiskManager::open(&path).unwrap());
            let pool = BufferPool::new(16);
            let file = pool.register_file(dm);
            let t = BTree::open(pool, file).unwrap();
            assert_eq!(t.len().unwrap(), 200);
            for i in 0..200u64 {
                assert_eq!(t.get(k(i)).unwrap(), Some(i + 7));
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_after_mass_removal_densifies() {
        let (t, path) = tree("compact", 256);
        let t = t.with_fanout(4, 4);
        for i in 0..2000u64 {
            t.insert(k(i), i).unwrap();
        }
        let tall = t.height().unwrap();
        // Remove 95%: lazy deletion keeps every leaf on the chain.
        for i in 0..2000u64 {
            if i % 20 != 0 {
                t.remove(k(i)).unwrap();
            }
        }
        assert_eq!(t.height().unwrap(), tall, "removal never restructures");
        t.compact().unwrap();
        assert!(
            t.height().unwrap() < tall,
            "dense form of 100 entries must be shorter than the 2000-entry tree"
        );
        assert_eq!(t.len().unwrap(), 100);
        let all = t.range_vec(BKey::MIN, BKey::MAX).unwrap();
        assert_eq!(all.len(), 100);
        for (i, (key, val)) in all.iter().enumerate() {
            assert_eq!(key.hi, i as u64 * 20);
            assert_eq!(*val, i as u64 * 20);
        }
        for i in 0..2000u64 {
            assert_eq!(t.get(k(i)).unwrap(), (i % 20 == 0).then_some(i), "key {i}");
        }
        // The compacted tree keeps working as a live index.
        for i in 0..500u64 {
            t.insert(k(i * 2 + 100_000), i).unwrap();
        }
        assert_eq!(t.len().unwrap(), 600);
        assert_eq!(
            t.range_vec(k(100_000), BKey::MAX).unwrap().len(),
            500,
            "post-compact inserts must be scannable"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_empty_and_full_trees() {
        let (t, path) = tree("compact-edge", 64);
        let t = t.with_fanout(4, 4);
        t.compact().unwrap();
        assert!(t.is_empty().unwrap());
        assert_eq!(t.height().unwrap(), 1);
        for i in 0..300u64 {
            t.insert(k(i), i).unwrap();
        }
        // Compacting with nothing removed is a harmless repack.
        t.compact().unwrap();
        assert_eq!(t.len().unwrap(), 300);
        let all = t.range_vec(BKey::MIN, BKey::MAX).unwrap();
        assert_eq!(all.len(), 300);
        assert!(all
            .iter()
            .enumerate()
            .all(|(i, (key, _))| key.hi == i as u64));
        // Remove everything: the dense form is a single empty leaf.
        for i in 0..300u64 {
            t.remove(k(i)).unwrap();
        }
        t.compact().unwrap();
        assert_eq!(t.height().unwrap(), 1);
        assert!(t.range_vec(BKey::MIN, BKey::MAX).unwrap().is_empty());
        t.insert(k(7), 7).unwrap();
        assert_eq!(t.get(k(7)).unwrap(), Some(7));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_survives_reopen() {
        let path = tmpfile("compact-persist");
        {
            let dm = Arc::new(DiskManager::open(&path).unwrap());
            let pool = BufferPool::new(64);
            let file = pool.register_file(dm);
            let t = BTree::create(pool.clone(), file).unwrap().with_fanout(4, 4);
            for i in 0..1000u64 {
                t.insert(k(i), i + 1).unwrap();
            }
            for i in 0..1000u64 {
                if i % 10 != 0 {
                    t.remove(k(i)).unwrap();
                }
            }
            t.compact().unwrap();
            pool.flush_and_sync().unwrap();
        }
        {
            let dm = Arc::new(DiskManager::open(&path).unwrap());
            let pool = BufferPool::new(64);
            let file = pool.register_file(dm);
            let t = BTree::open(pool, file).unwrap();
            assert_eq!(t.len().unwrap(), 100);
            for i in (0..1000u64).step_by(10) {
                assert_eq!(t.get(k(i)).unwrap(), Some(i + 1));
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn full_fanout_bulk() {
        let (t, path) = tree("bulk", 256);
        for i in 0..20_000u64 {
            t.insert(k(i.wrapping_mul(2_654_435_761) % 1_000_003), i)
                .unwrap();
        }
        assert!(t.height().unwrap() >= 2);
        // All lookups succeed.
        for i in 0..20_000u64 {
            let key = k(i.wrapping_mul(2_654_435_761) % 1_000_003);
            assert!(t.get(key).unwrap().is_some());
        }
        let _ = std::fs::remove_file(&path);
    }
}
