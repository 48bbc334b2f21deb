//! Bounded LRU cache of recently completed shared-fragment outputs,
//! keyed by plan fingerprint.
//!
//! When a sharing group with pivot φ finishes, the pages φ produced can
//! serve any *later* arrival whose own pivot is subsumed by φ: the
//! dispatcher replays the cached pages through the member's residual
//! filter instead of re-running φ. Entries are bucketed by
//! [`cordoba_exec::subsume::fingerprint`]; a hit additionally requires
//! the full subsumption test, so fingerprint collisions are harmless.
//!
//! An entry is inserted when its group dispatches (in-flight) and
//! becomes servable once its capture sink has drained the pivot without
//! faults (`ready`). The cache is bounded: insertion past capacity
//! evicts the least recently used entry.

use cordoba_exec::subsume::subsume_residual;
use cordoba_exec::PhysicalPlan;
use cordoba_storage::Page;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

/// One cached fragment: the pivot that produced it and its output pages.
#[derive(Clone)]
pub struct CachedFragment {
    /// Fingerprint of the pivot (bucket key).
    fingerprint: u64,
    /// The pivot plan whose output the pages are.
    pub(crate) pivot: PhysicalPlan,
    /// Captured output pages, filled by the capture sink as the group
    /// runs.
    pub(crate) pages: Rc<RefCell<Vec<Arc<Page>>>>,
    /// Set by the capture sink when the pivot drained without faults;
    /// only ready entries are servable.
    pub ready: Rc<Cell<bool>>,
}

impl CachedFragment {
    /// A fresh in-flight entry (not yet servable).
    pub fn in_flight(fingerprint: u64, pivot: PhysicalPlan) -> Self {
        Self {
            fingerprint,
            pivot,
            pages: Rc::new(RefCell::new(Vec::new())),
            ready: Rc::new(Cell::new(false)),
        }
    }
}

/// Bounded LRU of [`CachedFragment`]s with hit/miss/evict counters.
pub struct FragmentCache {
    capacity: usize,
    /// LRU order: front = least recently used.
    entries: VecDeque<CachedFragment>,
    /// Lookups that found a servable subsuming fragment.
    pub(crate) hits: u64,
    /// Lookups that found none.
    pub(crate) misses: u64,
    /// Entries displaced by inserts past capacity.
    pub(crate) evictions: u64,
}

impl FragmentCache {
    /// A cache holding at most `capacity` fragments.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: VecDeque::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Finds a ready entry in the `fingerprint` bucket whose pivot
    /// subsumes `narrow`, marking it most recently used. Counts a hit
    /// or a miss.
    pub fn lookup(&mut self, fingerprint: u64, narrow: &PhysicalPlan) -> Option<CachedFragment> {
        let found = self.entries.iter().position(|e| {
            e.fingerprint == fingerprint
                && e.ready.get()
                && subsume_residual(&e.pivot, narrow).is_some()
        });
        match found.and_then(|i| self.entries.remove(i)) {
            Some(entry) => {
                self.hits += 1;
                self.entries.push_back(entry.clone());
                Some(entry)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a fresh entry as most recently used, evicting from the
    /// LRU end past capacity.
    pub fn insert(&mut self, entry: CachedFragment) {
        self.entries.push_back(entry);
        while self.entries.len() > self.capacity {
            self.entries.pop_front();
            self.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordoba_exec::expr::{CmpOp, Predicate};
    use cordoba_exec::subsume::fingerprint;
    use cordoba_exec::OpCost;

    fn banded(lo: i64, hi: i64) -> PhysicalPlan {
        PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan {
                table: "t".into(),
                cost: OpCost::default(),
            }),
            predicate: Predicate::And(vec![
                Predicate::col_cmp(0, CmpOp::Ge, lo),
                Predicate::col_cmp(0, CmpOp::Lt, hi),
            ]),
            cost: OpCost::default(),
        }
    }

    fn ready_entry(lo: i64, hi: i64) -> CachedFragment {
        let pivot = banded(lo, hi);
        let e = CachedFragment::in_flight(fingerprint(&pivot), pivot);
        e.ready.set(true);
        e
    }

    #[test]
    fn lookup_requires_ready_and_subsumption() {
        let mut cache = FragmentCache::new(4);
        let wide = banded(0, 100);
        let entry = CachedFragment::in_flight(fingerprint(&wide), wide.clone());
        cache.insert(entry.clone());
        // In-flight: not servable.
        assert!(cache.lookup(fingerprint(&wide), &banded(10, 20)).is_none());
        assert_eq!(cache.misses, 1);
        entry.ready.set(true);
        assert!(cache.lookup(fingerprint(&wide), &banded(10, 20)).is_some());
        assert_eq!(cache.hits, 1);
        // Wider than the cached pivot: no hit.
        assert!(cache.lookup(fingerprint(&wide), &banded(-5, 100)).is_none());
        assert_eq!(cache.misses, 2);
    }

    #[test]
    fn eviction_is_lru_and_counted() {
        let mut cache = FragmentCache::new(2);
        cache.insert(ready_entry(0, 10));
        cache.insert(ready_entry(0, 20));
        // Touch the narrower entry so the (0,20) one becomes LRU.
        let fp = fingerprint(&banded(0, 10));
        assert!(cache.lookup(fp, &banded(1, 9)).is_some());
        // A third insert (over another table, so it can never serve
        // this bucket) displaces the LRU (0,20) entry.
        let other = PhysicalPlan::Scan {
            table: "u".into(),
            cost: OpCost::default(),
        };
        let e = CachedFragment::in_flight(fingerprint(&other), other);
        e.ready.set(true);
        cache.insert(e);
        assert_eq!(cache.evictions, 1);
        assert_eq!(cache.entries.len(), 2);
        // (0,20) was evicted; (0,10) survives but cannot cover (12,18).
        assert!(cache.lookup(fp, &banded(1, 9)).is_some());
        assert!(cache.lookup(fp, &banded(12, 18)).is_none());
    }
}
