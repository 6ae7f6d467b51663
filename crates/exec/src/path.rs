//! Invocation paths: hash-consed chains of call sites.
//!
//! The paper (§5, "Backpropagation cache implementation") keys each cached
//! forward value by "the InvokeOp's topological position within the SubGraph
//! combined with the key of the parent InvokeOp, guaranteeing uniqueness".
//! [`PathKey`] is exactly that: a persistent linked list of
//! [`CallSiteId`]s from the root frame, with a precomputed running hash so
//! map lookups don't walk the chain. Gradient SubGraphs reuse the forward
//! call-site ids, so a backward frame reconstructs the identical path and
//! finds its forward twin's activations.
//!
//! # Hash-consing
//!
//! Path nodes are **interned** in an [`Interner`] keyed by `(parent
//! pointer, call site)`, and each run owns one: the executor's
//! `RunContext` creates it empty at submit and drops it once the run's
//! handle and last frame are gone. [`Interner::child`] is therefore a
//! table lookup: extending the same parent with the same site twice
//! returns the *same* `Arc` both times, so
//!
//! * within a run, structurally equal paths are **pointer-equal** — a
//!   backward frame's cache probe matches its forward twin's key without
//!   walking the chain;
//! * re-deriving a path the run has already seen allocates nothing —
//!   child-key creation is a lookup, not an allocation + rehash.
//!
//! Uniqueness only has to hold among the frames of one execution, so the
//! table holds exactly one run's paths and is bounded by that run. Keys
//! from different tables are still comparable: the structural backstop in
//! [`PartialEq`] walks both chains when the pointers differ. Dropping a
//! key (or a whole table) never recurses down the parent spine — a node's
//! `Drop` unlinks exclusively owned ancestors iteratively, so a
//! 20 000-deep tail recursion cannot overflow the stack on teardown.
//!
//! # Example
//!
//! ```
//! use rdg_exec::{Interner, PathKey};
//! use rdg_graph::CallSiteId;
//!
//! let paths = Interner::new();
//! let fwd = paths.child(&paths.child(&PathKey::root(), CallSiteId(3)), CallSiteId(7));
//! // The backward pass rebuilds the path from scratch…
//! let bwd = paths.child(&paths.child(&PathKey::root(), CallSiteId(3)), CallSiteId(7));
//! // …and gets the identical interned node back.
//! assert!(fwd.ptr_eq(&bwd));
//! assert_eq!(fwd, bwd);
//! assert_eq!(fwd.sites(), vec![CallSiteId(3), CallSiteId(7)]);
//! ```

use parking_lot::Mutex;
use rdg_graph::CallSiteId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

#[derive(Debug)]
struct PathNode {
    parent: PathKey,
    site: CallSiteId,
    hash: u64,
    len: u32,
}

impl Drop for PathNode {
    fn drop(&mut self) {
        // Unlink an exclusively owned ancestor chain iteratively; the
        // default drop glue would recurse once per node and overflow the
        // stack on deep recursion paths.
        let mut parent = self.parent.0.take();
        while let Some(node) = parent {
            match Arc::into_inner(node) {
                // Steal the grandparent first so dropping `inner` at the
                // end of this iteration cannot recurse.
                Some(mut inner) => parent = inner.parent.0.take(),
                None => break, // other holders remain; they clean up later
            }
        }
    }
}

/// An invocation path: the chain of call sites from the root frame.
///
/// Cheap to clone (one `Arc` bump) and to extend (one [`Interner`]
/// lookup); structurally equal paths from one table are pointer-equal
/// (see the module docs), so equality is usually a pointer compare and
/// hashing reads a precomputed value.
#[derive(Clone, Debug, Default)]
pub struct PathKey(Option<Arc<PathNode>>);

/// Identity for the root path's hash (FNV-1a offset basis).
const ROOT_HASH: u64 = 0xcbf29ce484222325;

/// Interner key: the parent node's address (0 for the root) plus the site.
type InternKey = (usize, u32);

/// A multiplicative hasher for [`InternKey`]s — the keys are already
/// well-distributed pointers, so SipHash would be wasted work on the
/// invoke hot path.
#[derive(Default)]
struct FxLiteHasher(u64);

impl Hasher for FxLiteHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0xff51afd7ed558ccd);
    }
}

/// A hash-consing table of path nodes, keyed by `(parent pointer, call
/// site)`. Each executor run owns one (see the module docs); it holds a
/// strong reference to every node it produced, so the parent addresses in
/// its keys stay valid for the table's whole life.
#[derive(Default)]
pub struct Interner {
    map: Mutex<HashMap<InternKey, PathKey, BuildHasherDefault<FxLiteHasher>>>,
}

impl Interner {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// `parent` extended with `site`: the interned node when this table
    /// already holds one, a fresh node (inserted) otherwise.
    pub fn child(&self, parent: &PathKey, site: CallSiteId) -> PathKey {
        let key: InternKey = (parent.addr(), site.0);
        let mut map = self.map.lock();
        if let Some(k) = map.get(&key) {
            return k.clone();
        }
        let parent_hash = parent.hash_value();
        // Mixing function: a 64-bit FNV-style combine keeps chains cheap and
        // collision-resistant enough for a cache (equality still verifies).
        let hash = parent_hash
            .wrapping_mul(0x100000001b3)
            .wrapping_add(0x9e3779b97f4a7c15 ^ (site.0 as u64).wrapping_mul(0xff51afd7ed558ccd));
        let k = PathKey(Some(Arc::new(PathNode {
            parent: parent.clone(),
            site,
            hash,
            len: parent.len() + 1,
        })));
        map.insert(key, k.clone());
        k
    }

    /// Path nodes held.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Returns `true` when the table holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PathKey {
    /// The root path (the main graph's frame).
    pub fn root() -> Self {
        PathKey(None)
    }

    /// Address of the interned node (0 for the root): this path's part of
    /// the interner key of its children.
    fn addr(&self) -> usize {
        self.0.as_ref().map_or(0, |a| Arc::as_ptr(a) as usize)
    }

    /// Number of call sites in the path (0 for the root).
    pub fn len(&self) -> u32 {
        self.0.as_ref().map_or(0, |n| n.len)
    }

    /// Returns `true` for the root path.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// The precomputed chain hash.
    pub fn hash_value(&self) -> u64 {
        self.0.as_ref().map_or(ROOT_HASH, |n| n.hash)
    }

    /// The sites from root to leaf (diagnostics; allocates).
    pub fn sites(&self) -> Vec<CallSiteId> {
        let mut out = Vec::with_capacity(self.len() as usize);
        let mut cur = &self.0;
        while let Some(n) = cur {
            out.push(n.site);
            cur = &n.parent.0;
        }
        out.reverse();
        out
    }

    /// Returns `true` when `self` and `other` share the same interned node
    /// (or are both the root). For keys from one [`Interner`] this
    /// coincides with structural equality.
    pub fn ptr_eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl PartialEq for PathKey {
    fn eq(&self, other: &Self) -> bool {
        // Interning makes pointer equality complete within one table; the
        // structural walk is the backstop for keys from different tables.
        if self.ptr_eq(other) {
            return true;
        }
        if self.hash_value() != other.hash_value() || self.len() != other.len() {
            return false;
        }
        let (mut a, mut b) = (&self.0, &other.0);
        loop {
            match (a, b) {
                (None, None) => return true,
                (Some(x), Some(y)) => {
                    if Arc::ptr_eq(x, y) {
                        return true;
                    }
                    if x.site != y.site {
                        return false;
                    }
                    a = &x.parent.0;
                    b = &y.parent.0;
                }
                _ => return false,
            }
        }
    }
}

impl Eq for PathKey {}

impl Hash for PathKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash_value());
    }
}

impl std::fmt::Display for PathKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "/")?;
        for s in self.sites() {
            write!(f, "{}/", s.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `sites` interned root-to-leaf into `paths`.
    fn build(paths: &Interner, sites: impl IntoIterator<Item = u32>) -> PathKey {
        sites
            .into_iter()
            .fold(PathKey::root(), |p, s| paths.child(&p, CallSiteId(s)))
    }

    #[test]
    fn root_is_empty() {
        let r = PathKey::root();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r, PathKey::root());
    }

    #[test]
    fn children_extend_and_differ() {
        let it = Interner::new();
        let r = PathKey::root();
        let a = it.child(&r, CallSiteId(1));
        let b = it.child(&r, CallSiteId(2));
        assert_eq!(a.len(), 1);
        assert_ne!(a, b);
        assert_ne!(a, r);
        let aa = it.child(&a, CallSiteId(2));
        let bb = it.child(&b, CallSiteId(1));
        // Different orderings of the same sites must differ.
        assert_ne!(aa, bb);
    }

    #[test]
    fn reconstructed_paths_are_equal() {
        // The backward pass rebuilds paths from scratch; equality must hold
        // structurally, not just by pointer — including for the same path
        // built in two separate tables, where only the structural backstop
        // in `PartialEq` can match them.
        let it = Interner::new();
        let other = Interner::new();
        let fwd = build(&it, [3, 7]);
        let bwd = build(&it, [3, 7]);
        let foreign = build(&other, [3, 7]);
        assert!(!foreign.ptr_eq(&fwd), "separate tables intern separately");
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |p: &PathKey| {
            let mut s = DefaultHasher::new();
            p.hash(&mut s);
            s.finish()
        };
        for k in [&bwd, &foreign] {
            assert_eq!(&fwd, k);
            assert_eq!(fwd.hash_value(), k.hash_value());
            assert_eq!(h(&fwd), h(k));
        }
        assert_ne!(foreign, build(&other, [3, 8]));
    }

    #[test]
    fn interning_makes_paths_pointer_equal() {
        let it = Interner::new();
        let path = || build(&it, [41, 42]);
        let a = path();
        let b = path();
        assert!(a.ptr_eq(&b), "interned twins must share the node");
        // Clones stay pointer-equal, of course.
        assert!(a.clone().ptr_eq(&b));
        // And re-creating the key does not grow the table.
        let before = it.len();
        assert_eq!(before, 2);
        let _c = path();
        assert_eq!(it.len(), before);
    }

    #[test]
    fn sites_round_trip() {
        let p = build(&Interner::new(), [1, 5, 9]);
        assert_eq!(p.sites(), vec![CallSiteId(1), CallSiteId(5), CallSiteId(9)]);
        assert_eq!(p.to_string(), "/1/5/9/");
    }

    #[test]
    fn deep_paths_do_not_collide() {
        // Build many distinct deep paths and check pairwise inequality via a
        // set (hash collisions would surface as set collisions + eq failure).
        use std::collections::HashSet;
        let it = Interner::new();
        let mut set = HashSet::new();
        for i in 0..100u32 {
            assert!(set.insert(build(&it, (0..20u32).map(|j| i * 31 + j))));
        }
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        // Many threads racing to intern the same chain in one table must
        // all observe pointer-equal keys.
        let it = Interner::new();
        let keys: Vec<PathKey> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| build(&it, 7_000_000..7_000_064)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for k in &keys[1..] {
            assert!(keys[0].ptr_eq(k));
        }
    }

    #[test]
    fn deep_chain_drops_without_recursion() {
        // 20 000 nodes, the depth the executor's tail-recursion test
        // reaches. Dropping the table first leaves the leaf key as the only
        // holder of the whole spine; default drop glue would then recurse
        // once per node and overflow the stack.
        const DEPTH: u32 = 20_000;
        let it = Interner::new();
        let leaf = build(&it, 0..DEPTH);
        assert_eq!(leaf.len(), DEPTH);
        assert_eq!(it.len(), DEPTH as usize);
        drop(it);
        drop(leaf);
    }

    #[test]
    fn key_outliving_its_table_keeps_its_spine() {
        let it = Interner::new();
        let prefix = build(&it, [60, 61]);
        let live = it.child(&prefix, CallSiteId(62));
        let _sibling = build(&it, [60, 61, 70, 71]);
        drop(prefix);
        drop(it);
        assert_eq!(live.len(), 3);
        assert_eq!(
            live.sites(),
            vec![CallSiteId(60), CallSiteId(61), CallSiteId(62)]
        );
        assert_eq!(live, build(&Interner::new(), [60, 61, 62]));
    }
}
