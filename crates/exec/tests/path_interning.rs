//! Property-based coverage for `PathKey` hash-consing invariants.
//!
//! The executor and the backprop cache both lean on three properties of a
//! run's path table (`Interner`):
//!
//! 1. **Equality ⇔ pointer equality** — two paths built in one table from
//!    the same site sequence share the same interned node (and conversely,
//!    pointer-equal paths are trivially equal). This is what makes
//!    backward-pass cache probes a pointer compare.
//! 2. **Hash stability** — a path's hash is a pure function of its site
//!    sequence, so keys built independently (forward vs. backward pass)
//!    collide onto the same cache shard and bucket.
//! 3. **Deep-recursion keys** — thousand-site chains behave like shallow
//!    ones: no stack overflow on construction, drop, or comparison, and
//!    prefix sharing keeps re-derivation cheap.

use proptest::prelude::*;
use rdg_exec::{Interner, PathKey};
use rdg_graph::CallSiteId;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn build(paths: &Interner, sites: &[u32]) -> PathKey {
    sites
        .iter()
        .fold(PathKey::root(), |p, &s| paths.child(&p, CallSiteId(s)))
}

fn std_hash(p: &PathKey) -> u64 {
    let mut h = DefaultHasher::new();
    p.hash(&mut h);
    h.finish()
}

proptest! {
    /// Rebuilding any site sequence yields the same interned node:
    /// equality, pointer equality, and both hash views all agree.
    #[test]
    fn equality_is_pointer_equality(sites in prop::collection::vec(0u32..50, 0..24)) {
        let it = Interner::new();
        let a = build(&it, &sites);
        let b = build(&it, &sites);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.ptr_eq(&b), "equal paths must share the interned node");
        prop_assert_eq!(a.hash_value(), b.hash_value());
        prop_assert_eq!(std_hash(&a), std_hash(&b));
        prop_assert_eq!(a.len() as usize, sites.len());
    }

    /// Distinct site sequences produce unequal, non-pointer-equal keys
    /// with (overwhelmingly) different hashes.
    #[test]
    fn distinct_sequences_differ(
        (a, b) in (
            prop::collection::vec(0u32..50, 0..16),
            prop::collection::vec(0u32..50, 0..16),
        )
    ) {
        if a == b {
            return; // the shim has no prop_assume; skip colliding draws
        }
        let it = Interner::new();
        let ka = build(&it, &a);
        let kb = build(&it, &b);
        prop_assert_ne!(&ka, &kb);
        prop_assert!(!ka.ptr_eq(&kb));
    }

    /// A clone is indistinguishable from the original, and extending a
    /// shared prefix in two orders keeps the prefix node shared while the
    /// leaves differ.
    #[test]
    fn prefix_sharing_holds(
        (prefix, x, y) in (prop::collection::vec(0u32..50, 1..12), 0u32..50, 50u32..100)
    ) {
        let it = Interner::new();
        let p = build(&it, &prefix);
        prop_assert!(p.clone().ptr_eq(&p));
        let px = it.child(&p, CallSiteId(x));
        let py = it.child(&p, CallSiteId(y));
        prop_assert_ne!(&px, &py);
        // Both children were built from the same interned parent, so
        // rebuilding either from scratch finds the same node again.
        let rebuilt = it.child(&build(&it, &prefix), CallSiteId(x));
        prop_assert!(rebuilt.ptr_eq(&px));
    }

    /// The precomputed hash equals a fresh structural recomputation —
    /// i.e. interning never changes the hash a non-interned chain would
    /// have had (the mixing formula is the contract).
    #[test]
    fn hash_matches_structural_recomputation(sites in prop::collection::vec(0u32..1000, 0..20)) {
        let k = build(&Interner::new(), &sites);
        let mut h: u64 = 0xcbf29ce484222325;
        for &s in &sites {
            h = h
                .wrapping_mul(0x100000001b3)
                .wrapping_add(0x9e3779b97f4a7c15 ^ (s as u64).wrapping_mul(0xff51afd7ed558ccd));
        }
        prop_assert_eq!(k.hash_value(), h);
    }
}

/// Deep-recursion keys: a 20 000-site chain (the depth the executor's
/// tail-recursion test reaches) builds, compares, and re-derives without
/// stack overflow, and the second derivation is fully shared.
#[test]
fn deep_recursion_keys_are_safe_and_shared() {
    const DEPTH: u32 = 20_000;
    let sites: Vec<u32> = (0..DEPTH).map(|i| 1_000_000 + (i % 7)).collect();
    let it = Interner::new();
    let p = build(&it, &sites);
    assert_eq!(p.len(), DEPTH);
    let q = build(&it, &sites);
    assert_eq!(p, q);
    assert!(p.ptr_eq(&q), "deep re-derivation must hit the table");
    // The re-derivation allocated nothing: one node per site.
    assert_eq!(it.len(), DEPTH as usize);
    // Dropping deep chains must not recurse, whichever of the table and
    // the keys goes last.
    drop(p);
    drop(it);
    drop(q);
}

/// Sites round-trip through deep keys (leaf-to-root walk + reverse).
#[test]
fn deep_sites_round_trip() {
    let sites: Vec<u32> = (0..5_000).map(|i| 2_000_000 + i).collect();
    let p = build(&Interner::new(), &sites);
    let got: Vec<u32> = p.sites().iter().map(|s| s.0).collect();
    assert_eq!(got, sites);
}
