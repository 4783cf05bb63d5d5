//! Registered memory regions and remote addressing.
//!
//! A node registers a region of memory with its NIC and hands out a
//! [`RemoteAddr`] (node, region, offset) — the analogue of an
//! (rkey, virtual address) pair. One-sided verbs and remote atomics operate
//! on these addresses without the target CPU's involvement.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;

/// Identifier of a registered memory region within a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// A remote memory location: the target of one-sided verbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RemoteAddr {
    /// Node owning the registered region.
    pub node: crate::cluster::NodeId,
    /// Region within that node.
    pub region: RegionId,
    /// Byte offset within the region.
    pub offset: usize,
}

impl RemoteAddr {
    /// The address `delta` bytes further into the same region.
    #[inline]
    pub fn at(self, delta: usize) -> RemoteAddr {
        RemoteAddr {
            offset: self.offset + delta,
            ..self
        }
    }
}

/// `write_bytes` payloads shorter than this are copied into the flat bytes
/// instead of being recorded as an extent. Below a few cache lines the copy
/// is cheaper than the map operation and the later punch, an inline `Bytes`
/// has no shared buffer to hold in the first place, and keeping lock words,
/// index entries and headers out of the map keeps it one entry per payload.
const EXTENT_MIN: usize = 256;

/// Granule of the flat bytes: a paged region gets its backing store one
/// granule at a time, on the first flat write into each. A granule rather
/// than a 4 KiB page because the flat writes that land in big regions are
/// headers and index words: coopcache's 8-byte document header costs 512
/// bytes, not a page (the sweep behind the size is in DESIGN.md §9). The
/// table stays one 8-byte entry per granule, 64 KiB for a 4 MiB region.
const GRANULE: usize = 512;

/// Regions shorter than this are one exact, zeroed buffer: a lock-word table
/// or a kernel-statistics block costs its length and reaches its bytes with
/// no table lookup.
const PAGED_MIN: usize = 4096;

type Granule = Box<[u8; GRANULE]>;

/// What an untouched granule, or a fresh small region, reads as.
static ZEROS: [u8; ZEROS_LEN] = [0; ZEROS_LEN];

/// The larger of the two lengths [`ZEROS`] stands in for.
const ZEROS_LEN: usize = if GRANULE > PAGED_MIN {
    GRANULE
} else {
    PAGED_MIN
};

thread_local! {
    /// Granules of dropped regions, waiting for the next region to write
    /// one. A granule is allocated only when this list is empty, that is
    /// when every granule made on the thread is alive, so the list never
    /// holds more than the most granules alive at once on it. Regions are
    /// `Rc`, so a region drops on the thread that made its granules.
    static FREE_GRANULES: RefCell<Vec<Granule>> = const { RefCell::new(Vec::new()) };
}

/// A zeroed granule for a first write: a recycled one, zeroed again, else
/// new. Out of line: the in-granule paths stay a lookup and a copy.
#[inline(never)]
fn fresh_granule() -> Granule {
    match FREE_GRANULES.with(|free| free.borrow_mut().pop()) {
        Some(mut granule) => {
            granule.fill(0);
            granule
        }
        None => Box::new([0; GRANULE]),
    }
}

/// `start..start + len` cut at granule boundaries, as `(offset, len)` pieces.
fn pieces(start: usize, len: usize) -> impl Iterator<Item = (usize, usize)> {
    let end = start + len;
    let mut at = start;
    std::iter::from_fn(move || {
        let n = (end - at).min(GRANULE - at % GRANULE);
        at += n;
        (n > 0).then_some((at - n, n))
    })
}

/// Payloads a region shares with whoever wrote them: non-overlapping
/// `offset → payload` ranges inside the region.
type Extents = BTreeMap<usize, Bytes>;

/// A region's flat bytes, by region length.
enum Flat {
    /// A region shorter than [`PAGED_MIN`], zeroed when registered.
    Small(Box<[u8]>),
    /// One entry per [`GRANULE`] of the region; `None` reads as zeros and
    /// is materialised by the first flat write that touches it.
    Paged(Box<[Option<Granule>]>),
}

/// What a region holds: flat bytes, and payloads it shares with whoever
/// wrote them.
///
/// The observable content is always that of one flat byte array. `extents`
/// take precedence over the flat bytes beneath them; the flat bytes are
/// authoritative everywhere else. Every write first *punches* its range out
/// of the extents (trimming or splitting them with zero-copy slices), so a
/// byte is never described twice.
struct Store {
    len: usize,
    flat: Flat,
    extents: Extents,
}

impl Store {
    /// End of the access `offset..offset + len`; panics when it overruns the
    /// region (an rkey violation — always a bug in protocol code).
    #[inline]
    fn end_of(&self, what: &str, offset: usize, len: usize) -> usize {
        match offset.checked_add(len) {
            Some(end) if end <= self.len => end,
            _ => self.refuse(what, offset, len),
        }
    }

    /// The panic of [`Store::end_of`], kept out of line: every lock-word and
    /// kernel-statistics access runs the check.
    #[cold]
    #[inline(never)]
    fn refuse(&self, what: &str, offset: usize, len: usize) -> ! {
        match offset.checked_add(len) {
            None => panic!("region {what} offset overflow"),
            Some(end) => panic!(
                "region {what} out of bounds: {offset}..{end} > {}",
                self.len
            ),
        }
    }

    /// The flat bytes at `start..start + len` when they lie inside one
    /// granule — every lock word, header and kernel-statistics block — found
    /// with one lookup; `None` when the range crosses a granule boundary.
    #[inline]
    fn in_granule(&self, start: usize, len: usize) -> Option<&[u8]> {
        let granules = match &self.flat {
            Flat::Small(bytes) => return Some(&bytes[start..start + len]),
            Flat::Paged(granules) => granules,
        };
        let at = start % GRANULE;
        if at + len > GRANULE {
            return None;
        }
        // `get`: an empty access at the end of a region a whole number of
        // granules long names the granule past the table.
        Some(match granules.get(start / GRANULE) {
            Some(Some(granule)) => &granule[at..at + len],
            _ => &ZEROS[..len],
        })
    }

    /// [`Store::in_granule`] for writing: the granule is materialised.
    /// `None` also for an empty range, which may name the granule past the
    /// table.
    #[inline]
    fn in_granule_mut(&mut self, start: usize, len: usize) -> Option<&mut [u8]> {
        let granules = match &mut self.flat {
            Flat::Small(bytes) => return Some(&mut bytes[start..start + len]),
            Flat::Paged(granules) => granules,
        };
        let at = start % GRANULE;
        if at + len > GRANULE || len == 0 {
            return None;
        }
        let granule = granules[start / GRANULE].get_or_insert_with(fresh_granule);
        Some(&mut granule[at..at + len])
    }

    /// Copy the flat bytes at `start..start + dst.len()` into `dst`.
    #[inline]
    fn copy_out(&self, start: usize, dst: &mut [u8]) {
        if let Some(src) = self.in_granule(start, dst.len()) {
            return dst.copy_from_slice(src);
        }
        for (at, n) in pieces(start, dst.len()) {
            let src = self.in_granule(at, n).expect("a piece lies in one granule");
            dst[at - start..at - start + n].copy_from_slice(src);
        }
    }

    /// Copy `src` into the flat bytes at `start`, materialising each granule
    /// it touches.
    #[inline]
    fn copy_in(&mut self, start: usize, src: &[u8]) {
        if let Some(dst) = self.in_granule_mut(start, src.len()) {
            return dst.copy_from_slice(src);
        }
        for (at, n) in pieces(start, src.len()) {
            let dst = self
                .in_granule_mut(at, n)
                .expect("a piece lies in one granule");
            dst.copy_from_slice(&src[at - start..at - start + n]);
        }
    }

    /// The region's bytes at `start..end`, copied out.
    fn assemble(&self, start: usize, end: usize) -> Vec<u8> {
        let mut out = vec![0; end - start];
        self.copy_out(start, &mut out);
        if !self.extents.is_empty() {
            overlay(&self.extents, start, &mut out);
        }
        out
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        if let Flat::Paged(granules) = &mut self.flat {
            let granules = granules.iter_mut().filter_map(Option::take);
            // `try_with`: a region dropped while the thread is being torn
            // down frees its granules instead.
            let _ = FREE_GRANULES.try_with(|free| free.borrow_mut().extend(granules));
        }
    }
}

/// The extents that intersect `start..end`, in offset order.
fn overlapping(
    extents: &Extents,
    start: usize,
    end: usize,
) -> impl Iterator<Item = (usize, &Bytes)> {
    // At most one extent starting before `start` can reach into the range.
    let head = extents
        .range(..start)
        .next_back()
        .filter(|&(&at, ext)| at + ext.len() > start);
    head.into_iter()
        .chain(extents.range(start..end))
        .map(|(&at, ext)| (at, ext))
}

/// Remove `start..end` from the extents: whatever they held there is about
/// to be overwritten in the flat bytes or by a new extent. Out of line, like
/// [`overlay`]: the flat paths stay a bounds check, an `is_empty()` and a
/// copy.
#[inline(never)]
fn punch(extents: &mut Extents, start: usize, end: usize) {
    if let Some((&at, ext)) = extents.range_mut(..start).next_back() {
        let ext_end = at + ext.len();
        if ext_end > start {
            let tail = (ext_end > end).then(|| ext.slice(end - at..));
            *ext = ext.slice(..start - at);
            if let Some(tail) = tail {
                // The range was strictly inside this one extent.
                extents.insert(end, tail);
                return;
            }
        }
    }
    while let Some((at, len)) = extents
        .range(start..end)
        .next()
        .map(|(&at, ext)| (at, ext.len()))
    {
        let ext = extents.remove(&at).expect("extent just seen");
        if at + len > end {
            extents.insert(end, ext.slice(end - at..));
        }
    }
}

/// Lay the extents' bytes over `dst`, a copy of the flat bytes at
/// `start..start + dst.len()`.
#[inline(never)]
fn overlay(extents: &Extents, start: usize, dst: &mut [u8]) {
    let end = start + dst.len();
    for (at, ext) in overlapping(extents, start, end) {
        let (lo, hi) = (at.max(start), (at + ext.len()).min(end));
        dst[lo - start..hi - start].copy_from_slice(&ext[lo - at..hi - at]);
    }
}

/// Backing storage of one registered region. Shared (`Rc`) so that node-local
/// writers — e.g. the CPU model updating kernel statistics — can update it
/// without going through the region table.
///
/// A region behaves as a flat array of bytes, zero when registered. Besides
/// copying bytes in ([`RegionData::write`]) it can *hold* a payload
/// ([`RegionData::write_bytes`]): the caller's `Bytes` is recorded as a
/// shared extent and [`RegionData::read_bytes`] hands windows of it back, so
/// a payload that passes through registered memory is never copied on the
/// host — the analogue of the NIC moving bytes the CPU never touches. Any
/// later write over part of an extent trims it, and reads that straddle
/// extents and flat bytes assemble exactly what a flat array would hold.
/// A `Bytes` handed out is immutable and so is a snapshot: it keeps the
/// content it was sampled with whatever is written afterwards. The price is
/// the usual one of windowed buffers — an extent, or a small window read out
/// of it, keeps its whole backing buffer alive.
#[derive(Clone)]
pub struct RegionData {
    store: Rc<RefCell<Store>>,
}

impl RegionData {
    /// A zeroed region of `len` bytes. A region of [`PAGED_MIN`] bytes or
    /// more allocates only its granule table: backing store comes a granule
    /// at a time with the first writes.
    pub fn new(len: usize) -> Self {
        let flat = if len < PAGED_MIN {
            Flat::Small(ZEROS[..len].into())
        } else {
            Flat::Paged(vec![None; len.div_ceil(GRANULE)].into_boxed_slice())
        };
        RegionData {
            store: Rc::new(RefCell::new(Store {
                len,
                flat,
                extents: Extents::new(),
            })),
        }
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.store.borrow().len
    }

    /// Whether the region has zero length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(offset, len)` of every payload the region currently holds, in
    /// offset order — what tests check the no-overlap invariant against.
    pub fn extents(&self) -> Vec<(usize, usize)> {
        let s = self.store.borrow();
        s.extents.iter().map(|(&at, e)| (at, e.len())).collect()
    }

    /// Copy `buf.len()` bytes into the region at `offset`.
    ///
    /// Panics if the write overruns the region (an rkey violation — always a
    /// bug in protocol code).
    pub fn write(&self, offset: usize, buf: &[u8]) {
        let mut s = self.store.borrow_mut();
        let end = s.end_of("write", offset, buf.len());
        if !s.extents.is_empty() {
            punch(&mut s.extents, offset, end);
        }
        s.copy_in(offset, buf);
    }

    /// Make the region hold `buf` at `offset` without copying it: the region
    /// reads back exactly as after `write(offset, buf)`, and reads inside the
    /// range return windows of `buf` itself. Short payloads are copied.
    pub fn write_bytes(&self, offset: usize, buf: &Bytes) {
        if buf.len() < EXTENT_MIN {
            return self.write(offset, buf);
        }
        let mut s = self.store.borrow_mut();
        let end = s.end_of("write", offset, buf.len());
        match s.extents.get_mut(&offset) {
            // A slot reused for a payload of the same size (the steady
            // state of an LRU over equal-sized documents): nothing to trim.
            Some(ext) if ext.len() == buf.len() => *ext = buf.clone(),
            _ => {
                punch(&mut s.extents, offset, end);
                s.extents.insert(offset, buf.clone());
            }
        }
    }

    /// Copy `len` bytes out of the region at `offset`.
    pub fn read(&self, offset: usize, len: usize) -> Vec<u8> {
        let s = self.store.borrow();
        let end = s.end_of("read", offset, len);
        s.assemble(offset, end)
    }

    /// Snapshot `len` bytes at `offset` into a [`Bytes`] payload: a window
    /// of the held payload when one extent covers the range, else a copy —
    /// allocation-free for short reads (lock words, atomics results). This
    /// is the verb-path variant of [`RegionData::read`].
    pub fn read_bytes(&self, offset: usize, len: usize) -> Bytes {
        let s = self.store.borrow();
        let end = s.end_of("read", offset, len);
        let first = if s.extents.is_empty() {
            None
        } else {
            overlapping(&s.extents, offset, end).next()
        };
        match (first, s.in_granule(offset, len)) {
            (None, Some(flat)) => Bytes::copy_from_slice(flat),
            (Some((at, ext)), _) if at <= offset && end <= at + ext.len() => {
                ext.slice(offset - at..end - at)
            }
            _ => Bytes::from(s.assemble(offset, end)),
        }
    }

    /// Copy the `N` bytes at `offset` out onto the stack: the fixed-size,
    /// allocation-free variant of [`RegionData::read`] under the decoding
    /// verbs (a lock word, the kernel-statistics block).
    pub fn read_array<const N: usize>(&self, offset: usize) -> [u8; N] {
        let s = self.store.borrow();
        s.end_of("read", offset, N);
        let mut out = [0; N];
        s.copy_out(offset, &mut out);
        if !s.extents.is_empty() {
            overlay(&s.extents, offset, &mut out);
        }
        out
    }

    /// Read a little-endian u64 at an 8-byte-aligned `offset`.
    pub fn read_u64(&self, offset: usize) -> u64 {
        assert_eq!(offset % 8, 0, "atomic access must be 8-byte aligned");
        u64::from_le_bytes(self.read_array(offset))
    }

    /// Write a little-endian u64 at an 8-byte-aligned `offset`.
    pub fn write_u64(&self, offset: usize, v: u64) {
        assert_eq!(offset % 8, 0, "atomic access must be 8-byte aligned");
        self.write(offset, &v.to_le_bytes());
    }

    /// NIC-side compare-and-swap on the u64 at `offset`; returns the prior
    /// value (the swap happened iff the return equals `expect`).
    pub fn cas_u64(&self, offset: usize, expect: u64, swap: u64) -> u64 {
        self.update_u64(offset, |old| (old == expect).then_some(swap))
    }

    /// NIC-side fetch-and-add (wrapping) on the u64 at `offset`; returns the
    /// prior value.
    pub fn faa_u64(&self, offset: usize, add: u64) -> u64 {
        self.update_u64(offset, |old| Some(old.wrapping_add(add)))
    }

    /// Read the u64 at an 8-byte-aligned `offset` and store `f`'s value for
    /// it, if any, under one borrow and one granule lookup (an aligned word
    /// never crosses a granule); returns the prior value.
    #[inline]
    fn update_u64(&self, offset: usize, f: impl FnOnce(u64) -> Option<u64>) -> u64 {
        assert_eq!(offset % 8, 0, "atomic access must be 8-byte aligned");
        let mut s = self.store.borrow_mut();
        let end = s.end_of("read", offset, 8);
        let Store { flat, extents, .. } = &mut *s;
        // `None`: the word's granule was never written.
        let slot = match flat {
            Flat::Small(bytes) => Some(&mut bytes[offset..end]),
            Flat::Paged(granules) => granules[offset / GRANULE]
                .as_deref_mut()
                .map(|granule| &mut granule[offset % GRANULE..][..8]),
        };
        let mut word = [0; 8];
        if let Some(bytes) = &slot {
            word.copy_from_slice(bytes);
        }
        if !extents.is_empty() {
            overlay(extents, offset, &mut word);
        }
        let old = u64::from_le_bytes(word);
        if let Some(new) = f(old) {
            if !extents.is_empty() {
                punch(extents, offset, end);
            }
            match slot {
                Some(bytes) => bytes.copy_from_slice(&new.to_le_bytes()),
                None => s.copy_in(offset, &new.to_le_bytes()),
            }
        }
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trips() {
        let r = RegionData::new(64);
        r.write(8, b"abcdef");
        assert_eq!(r.read(8, 6), b"abcdef");
        assert_eq!(r.read(0, 8), vec![0; 8]); // untouched prefix stays zero
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_past_end_panics() {
        let r = RegionData::new(16);
        r.write(10, &[0; 8]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_past_end_panics() {
        let r = RegionData::new(16);
        r.read(0, 17);
    }

    #[test]
    fn read_bytes_matches_read() {
        let r = RegionData::new(64);
        r.write(8, b"abcdef");
        assert_eq!(&r.read_bytes(8, 6)[..], &r.read(8, 6)[..]);
        assert_eq!(r.read_bytes(0, 64).len(), 64); // beyond the inline cap
        assert_eq!(&r.read_bytes(0, 64)[..], &r.read(0, 64)[..]);
    }

    #[test]
    fn held_payload_reads_back_as_the_writers_buffer() {
        let r = RegionData::new(4096);
        let doc = Bytes::from(vec![7u8; 1024]);
        r.write_bytes(512, &doc);
        assert_eq!(r.extents(), vec![(512, 1024)]);
        assert_eq!(r.read_bytes(512, 1024).as_ptr(), doc.as_ptr());
        assert_eq!(r.read_bytes(600, 100).as_ptr(), doc[88..].as_ptr());
        // A read that leaves the extent is assembled, flat bytes included.
        r.write(504, &[1; 8]);
        let mut expect = vec![1u8; 8];
        expect.extend_from_slice(&[7; 16]);
        assert_eq!(&r.read_bytes(504, 24)[..], &expect[..]);
        // The same slot reused for a payload of the same size.
        let next = Bytes::from(vec![9u8; 1024]);
        let before = r.read_bytes(512, 1024);
        r.write_bytes(512, &next);
        assert_eq!(r.extents(), vec![(512, 1024)]);
        assert_eq!(r.read_bytes(512, 1024).as_ptr(), next.as_ptr());
        assert_eq!(before, doc, "a handed-out window is a snapshot");
    }

    #[test]
    fn a_write_punches_its_range_out_of_a_held_payload() {
        let r = RegionData::new(4096);
        let doc = Bytes::from((0..=255u8).cycle().take(1024).collect::<Vec<u8>>());
        r.write_bytes(0, &doc);
        r.write_u64(256, u64::MAX);
        assert_eq!(r.extents(), vec![(0, 256), (264, 760)]);
        let mut expect = doc.to_vec();
        expect[256..264].fill(0xFF);
        assert_eq!(r.read(0, 1024), expect);
        assert_eq!(r.read_u64(256), u64::MAX);
        assert_eq!(
            r.read_u64(248),
            u64::from_le_bytes(doc[248..256].try_into().unwrap())
        );
        // What is left of the payload is still the writer's buffer.
        assert_eq!(r.read_bytes(264, 760).as_ptr(), doc[264..].as_ptr());
    }

    #[test]
    fn short_payloads_are_copied_not_held() {
        let r = RegionData::new(1024);
        r.write_bytes(0, &Bytes::from(vec![3u8; EXTENT_MIN - 1]));
        assert!(r.extents().is_empty());
        assert_eq!(
            r.read(0, EXTENT_MIN),
            [vec![3u8; EXTENT_MIN - 1], vec![0]].concat()
        );
        r.write_bytes(0, &Bytes::from(vec![4u8; EXTENT_MIN]));
        assert_eq!(r.extents(), vec![(0, EXTENT_MIN)]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn held_write_past_end_panics() {
        let r = RegionData::new(1024);
        r.write_bytes(512, &Bytes::from(vec![0u8; 513]));
    }

    #[test]
    fn u64_round_trip_little_endian() {
        let r = RegionData::new(32);
        r.write_u64(16, 0x0102_0304_0506_0708);
        assert_eq!(r.read_u64(16), 0x0102_0304_0506_0708);
        assert_eq!(r.read(16, 1), vec![0x08]); // LE lowest byte first
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn unaligned_atomic_panics() {
        let r = RegionData::new(32);
        r.read_u64(4);
    }

    #[test]
    fn cas_succeeds_only_on_match() {
        let r = RegionData::new(8);
        assert_eq!(r.cas_u64(0, 0, 42), 0); // matched: swapped in 42
        assert_eq!(r.read_u64(0), 42);
        assert_eq!(r.cas_u64(0, 0, 99), 42); // mismatched: unchanged
        assert_eq!(r.read_u64(0), 42);
        assert_eq!(r.cas_u64(0, 42, 7), 42); // matched again
        assert_eq!(r.read_u64(0), 7);
    }

    #[test]
    fn faa_wraps() {
        let r = RegionData::new(8);
        r.write_u64(0, u64::MAX);
        assert_eq!(r.faa_u64(0, 2), u64::MAX);
        assert_eq!(r.read_u64(0), 1);
    }

    /// Indices of the granules a paged region has materialised.
    fn materialised(r: &RegionData) -> Vec<usize> {
        let s = r.store.borrow();
        let Flat::Paged(granules) = &s.flat else {
            panic!("the region is paged");
        };
        (0..granules.len())
            .filter(|&i| granules[i].is_some())
            .collect()
    }

    #[test]
    fn only_written_pages_are_materialised() {
        let r = RegionData::new(8 << 20);
        r.write_u64((8 << 20) - 8, 1);
        r.write_bytes(GRANULE, &Bytes::from(vec![7u8; 16 << 10]));
        let Flat::Paged(granules) = &r.store.borrow().flat else {
            panic!("an 8 MiB region is paged");
        };
        assert_eq!(granules.len(), (8 << 20) / GRANULE);
        assert_eq!(
            materialised(&r),
            vec![granules.len() - 1],
            "a held payload takes no granule"
        );
        // A region shorter than the paging threshold is its own bytes, no
        // granule table.
        let small = RegionData::new(PAGED_MIN - 1);
        assert!(matches!(&small.store.borrow().flat, Flat::Small(b) if b.len() == PAGED_MIN - 1));
    }

    #[test]
    fn a_small_write_materialises_one_granule() {
        // Coopcache's layout: an 8-byte header at the start of every 8 KiB
        // slot, the document held behind it.
        const SLOT: usize = 8 << 10;
        let r = RegionData::new(4 << 20);
        let headers = (4 << 20) / SLOT;
        for i in 0..headers {
            r.write(i * SLOT, &(i as u64).to_le_bytes());
        }
        let flat_bytes = |r: &RegionData| materialised(r).len() * GRANULE;
        assert_eq!(flat_bytes(&r), headers * 512, "a header costs 512 bytes");
        // A 16 KiB document held from slot 0 on, over slot 1's header, takes
        // no granule.
        let before = materialised(&r);
        r.write_bytes(8, &Bytes::from(vec![5u8; 16 << 10]));
        assert_eq!(r.extents(), vec![(8, 16 << 10)]);
        assert_eq!(materialised(&r), before, "a held payload materialises none");
        assert_eq!(r.read_u64(SLOT * 3), 3);
    }

    #[test]
    fn remote_addr_offsets_compose() {
        let a = RemoteAddr {
            node: crate::cluster::NodeId(3),
            region: RegionId(1),
            offset: 100,
        };
        let b = a.at(28);
        assert_eq!(b.offset, 128);
        assert_eq!(b.node, a.node);
        assert_eq!(b.region, a.region);
    }

    #[test]
    fn shared_handles_alias_storage() {
        let r = RegionData::new(8);
        let alias = r.clone();
        alias.write_u64(0, 5);
        assert_eq!(r.read_u64(0), 5);
    }
}
