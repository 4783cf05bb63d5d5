//! LRU document store over a node's registered cache region.
//!
//! Tracks which documents live at which offsets of the cache region and in
//! what recency order; the bytes themselves live in the registered region so
//! remote proxies can fetch them with one-sided RDMA. Placement reuses the
//! DDSS free-list allocator.
//!
//! Recency is a doubly linked list threaded through the map's own entries
//! by document id — least recent at `head`, most recent at `tail` — so a
//! touch is an unlink and a push to the back, an eviction pops the head, and
//! neither allocates: the map is the only node storage, and it grows to the
//! most documents ever resident once.

use dc_ddss::alloc::FreeListAllocator;
use dc_sim::fxhash::FxHashMap;

/// Document identifier within one working set.
pub type DocId = u32;

#[derive(Debug, Clone, Copy)]
struct Entry {
    offset: usize,
    size: usize,
    /// Next less recently used document.
    prev: Option<DocId>,
    /// Next more recently used document.
    next: Option<DocId>,
}

/// An evicted document: `(doc, offset, size)`.
pub type Evicted = (DocId, usize, usize);

/// LRU bookkeeping for a cache region of fixed byte capacity.
pub struct LruStore {
    map: FxHashMap<DocId, Entry>,
    /// Least recently used document: the next victim.
    head: Option<DocId>,
    /// Most recently used document.
    tail: Option<DocId>,
    alloc: FreeListAllocator,
    bytes_used: usize,
    /// Eviction buffer handed back through [`LruStore::recycle`].
    spare: Vec<Evicted>,
}

impl LruStore {
    /// A store managing `capacity` bytes.
    pub fn new(capacity: usize) -> LruStore {
        LruStore {
            map: FxHashMap::default(),
            head: None,
            tail: None,
            alloc: FreeListAllocator::new(capacity),
            bytes_used: 0,
            spare: Vec::new(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.alloc.capacity()
    }

    /// Bytes of cached documents (excluding allocator rounding).
    pub fn bytes_used(&self) -> usize {
        self.bytes_used
    }

    /// Number of cached documents.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `doc` is cached (does not touch recency).
    pub fn contains(&self, doc: DocId) -> bool {
        self.map.contains_key(&doc)
    }

    /// Look up `doc`, refreshing its recency. Returns `(offset, size)`.
    pub fn get(&mut self, doc: DocId) -> Option<(usize, usize)> {
        let e = *self.map.get(&doc)?;
        if e.next.is_some() {
            self.unlink(e);
            self.push_back(doc);
        }
        Some((e.offset, e.size))
    }

    /// Peek without touching recency.
    pub fn peek(&self, doc: DocId) -> Option<(usize, usize)> {
        self.map.get(&doc).map(|e| (e.offset, e.size))
    }

    /// Reserve space for `doc` of `size` bytes, evicting least-recently-used
    /// documents as needed. Returns the offset and the eviction list, or
    /// `None` if `size` exceeds the whole capacity. `doc` must not already
    /// be cached. Hand the list back with [`LruStore::recycle`] once read.
    pub fn insert(&mut self, doc: DocId, size: usize) -> Option<(usize, Vec<Evicted>)> {
        assert!(!self.map.contains_key(&doc), "insert of cached doc {doc}");
        if size == 0 || size > self.alloc.capacity() {
            return None;
        }
        let mut evicted = std::mem::take(&mut self.spare);
        let offset = loop {
            if let Some(off) = self.alloc.allocate(size) {
                break off;
            }
            // Evict the least recently used entry and retry.
            let victim = self.head?;
            let e = self
                .map
                .remove(&victim)
                .expect("recency list/map divergence");
            self.unlink(e);
            self.alloc.free(e.offset, e.size);
            self.bytes_used -= e.size;
            evicted.push((victim, e.offset, e.size));
        };
        let e = Entry {
            offset,
            size,
            prev: None,
            next: None,
        };
        self.map.insert(doc, e);
        self.push_back(doc);
        self.bytes_used += size;
        Some((offset, evicted))
    }

    /// Take an eviction list back: the next insert reuses its buffer.
    pub fn recycle(&mut self, mut evicted: Vec<Evicted>) {
        evicted.clear();
        self.spare = evicted;
    }

    /// Remove `doc` explicitly (e.g. invalidation). Returns its placement.
    pub fn remove(&mut self, doc: DocId) -> Option<(usize, usize)> {
        let e = self.map.remove(&doc)?;
        self.unlink(e);
        self.alloc.free(e.offset, e.size);
        self.bytes_used -= e.size;
        Some((e.offset, e.size))
    }

    /// The entry of `doc`, which the recency list names.
    fn entry(&mut self, doc: DocId) -> &mut Entry {
        self.map.get_mut(&doc).expect("recency list/map divergence")
    }

    /// Close the recency list over `e`'s place in it (`e` itself is left
    /// as it was).
    fn unlink(&mut self, e: Entry) {
        match e.prev {
            Some(p) => self.entry(p).next = e.next,
            None => self.head = e.next,
        }
        match e.next {
            Some(n) => self.entry(n).prev = e.prev,
            None => self.tail = e.prev,
        }
    }

    /// Link `doc`, already in the map, in as the most recently used.
    fn push_back(&mut self, doc: DocId) {
        let prev = self.tail.replace(doc);
        match prev {
            Some(t) => self.entry(t).next = Some(doc),
            None => self.head = Some(doc),
        }
        let e = self.entry(doc);
        e.prev = prev;
        e.next = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_and_recency() {
        let mut s = LruStore::new(1024);
        let (off_a, ev) = s.insert(1, 100).unwrap();
        assert!(ev.is_empty());
        assert_eq!(s.get(1), Some((off_a, 100)));
        assert_eq!(s.get(2), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.bytes_used(), 100);
    }

    #[test]
    fn eviction_follows_lru_order() {
        let mut s = LruStore::new(300);
        s.insert(1, 96).unwrap();
        s.insert(2, 96).unwrap();
        s.insert(3, 96).unwrap();
        // Touch 1 so 2 becomes the LRU.
        s.get(1);
        let (_, evicted) = s.insert(4, 150).unwrap();
        let victims: Vec<DocId> = evicted.iter().map(|&(d, _, _)| d).collect();
        assert!(victims.contains(&2), "victims: {victims:?}");
        assert!(!victims.contains(&1) || victims[0] != 1, "1 evicted first");
        assert!(s.contains(4));
    }

    #[test]
    fn oversized_insert_rejected_without_damage() {
        let mut s = LruStore::new(100);
        s.insert(1, 50).unwrap();
        assert!(s.insert(2, 200).is_none());
        assert!(s.contains(1), "rejected insert must not evict");
    }

    #[test]
    fn remove_frees_space() {
        let mut s = LruStore::new(200);
        s.insert(1, 96).unwrap();
        s.insert(2, 96).unwrap();
        assert!(s.insert(3, 96).unwrap().1.len() == 1); // had to evict
        s.remove(3).unwrap();
        let (_, ev) = s.insert(4, 96).unwrap();
        assert!(ev.is_empty(), "freed space not reused: {ev:?}");
    }

    #[test]
    fn eviction_cascades_until_fit() {
        let mut s = LruStore::new(400);
        for d in 0..4 {
            s.insert(d, 96).unwrap();
        }
        let (_, ev) = s.insert(10, 390).unwrap();
        assert_eq!(ev.len(), 4, "all residents evicted for a huge doc");
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "insert of cached doc")]
    fn double_insert_panics() {
        let mut s = LruStore::new(100);
        s.insert(1, 10).unwrap();
        s.insert(1, 10).unwrap();
    }

    #[test]
    fn peek_does_not_touch() {
        let mut s = LruStore::new(200);
        s.insert(1, 96).unwrap();
        s.insert(2, 96).unwrap();
        s.peek(1); // no recency effect
        let (_, ev) = s.insert(3, 96).unwrap();
        assert_eq!(ev[0].0, 1, "peek must not refresh LRU position");
    }
}
