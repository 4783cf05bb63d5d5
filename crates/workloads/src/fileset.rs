//! Document working sets for the caching experiments.
//!
//! Figure 6 sweeps uniform file sizes (8k/16k/32k/64k) over working sets
//! sized relative to the proxies' aggregate cache. The generator also
//! supports mixed-size sets for the ablation benches.

use std::sync::OnceLock;

use crate::arrival::SplitMix;

/// A set of documents, identified by dense ids with per-document sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSet {
    sizes: Vec<usize>,
}

impl FileSet {
    /// `count` documents, all of `size` bytes (the Figure 6 configuration).
    pub fn uniform(count: usize, size: usize) -> FileSet {
        assert!(count > 0 && size > 0);
        FileSet::checked(vec![size; count])
    }

    /// A heavy-tailed mix: documents cycle through the given sizes.
    pub fn cycled(count: usize, sizes: &[usize]) -> FileSet {
        assert!(count > 0 && !sizes.is_empty());
        FileSet::checked((0..count).map(|i| sizes[i % sizes.len()]).collect())
    }

    /// Every document must own a distinct window that lies inside the
    /// pattern.
    fn checked(sizes: Vec<usize>) -> FileSet {
        assert!(
            sizes.len() <= START_SPAN,
            "{} documents exceed the {START_SPAN} distinct content windows",
            sizes.len()
        );
        let largest = sizes.iter().copied().max().unwrap_or(0);
        assert!(
            largest <= MAX_DOC_BYTES,
            "{largest}-byte document exceeds the {MAX_DOC_BYTES}-byte content window"
        );
        FileSet { sizes }
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether the set is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Size of document `id`.
    pub fn size(&self, id: usize) -> usize {
        self.sizes[id]
    }

    /// Byte `offset` of document `id`'s content: the shared pattern read at
    /// the document's window. The one definition of document content —
    /// [`FileSet::content`] hands out the same bytes as a slice.
    pub fn content_byte(id: usize, offset: usize) -> u8 {
        assert!(offset < MAX_DOC_BYTES, "offset {offset} beyond any window");
        pattern()[window_start(id) + offset]
    }

    /// The first `n` bytes of document `id`'s content, borrowed from the
    /// shared pattern: transfers are verified end to end without storing or
    /// regenerating the working set.
    pub fn content(&self, id: usize, n: usize) -> &'static [u8] {
        assert!(n <= self.size(id));
        let start = window_start(id);
        &pattern()[start..start + n]
    }
}

/// Window starts are taken modulo this (a power of two), so up to this many
/// documents get distinct starts.
const START_SPAN: usize = 256 * 1024;
/// Largest document: the pattern extends this far past the last start.
const MAX_DOC_BYTES: usize = 256 * 1024;
/// Distance between consecutive documents' starts. Odd, so multiplication
/// permutes `0..START_SPAN`: two ids below it never share a start.
const START_STRIDE: usize = 4099;

/// Where document `id`'s window begins in the pattern. A function of the id
/// alone, so a read of the wrong document or of a reallocated cache slot
/// compares against a differently aligned stretch and fails verification.
fn window_start(id: usize) -> usize {
    id.wrapping_mul(START_STRIDE) % START_SPAN
}

/// The content pattern: `START_SPAN + MAX_DOC_BYTES` pseudo-random bytes
/// (splitmix64 output, no period within the buffer), built on first use and
/// shared by every document of every set in the process.
fn pattern() -> &'static [u8] {
    static PATTERN: OnceLock<Vec<u8>> = OnceLock::new();
    PATTERN.get_or_init(|| {
        let mut rng = SplitMix::new(0x0d0c_5e75);
        let mut buf = Vec::with_capacity(START_SPAN + MAX_DOC_BYTES);
        while buf.len() < START_SPAN + MAX_DOC_BYTES {
            buf.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        buf
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_set_sizes() {
        let fs = FileSet::uniform(100, 8192);
        assert_eq!(fs.len(), 100);
        assert!((0..100).all(|i| fs.size(i) == 8192));
    }

    #[test]
    fn cycled_sizes_repeat() {
        let fs = FileSet::cycled(5, &[1, 2, 3]);
        assert_eq!(
            (0..5).map(|i| fs.size(i)).collect::<Vec<_>>(),
            vec![1, 2, 3, 1, 2]
        );
    }

    #[test]
    fn content_is_deterministic_and_varies() {
        let a = FileSet::content_byte(3, 7);
        assert_eq!(a, FileSet::content_byte(3, 7));
        let fs = FileSet::uniform(2, 64);
        let c0 = fs.content(0, 64);
        let c1 = fs.content(1, 64);
        assert_ne!(c0, c1);
    }

    #[test]
    fn content_slice_equals_content_byte() {
        let fs = FileSet::cycled(300, &[1, 777, 16 * 1024]);
        for id in [0, 1, 2, 63, 64, 299] {
            let n = fs.size(id);
            let bytes: Vec<u8> = (0..n).map(|off| FileSet::content_byte(id, off)).collect();
            assert_eq!(fs.content(id, n), &bytes[..], "doc {id}");
        }
    }

    #[test]
    fn ids_in_one_set_never_share_a_window_start() {
        // The largest set the constructor admits: every start is distinct.
        let mut seen = vec![false; START_SPAN];
        for id in 0..START_SPAN {
            let start = window_start(id);
            assert!(!seen[start], "doc {id} reuses window start {start}");
            seen[start] = true;
        }
        // And distinct starts mean distinct bytes, or a stale-slot read
        // would pass verification: neighbouring Figure 6 documents differ.
        let fs = FileSet::uniform(4096, 8192);
        for id in 1..4096 {
            assert_ne!(fs.content(id - 1, 8192), fs.content(id, 8192));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the")]
    fn document_larger_than_the_window_is_rejected() {
        FileSet::uniform(1, MAX_DOC_BYTES + 1);
    }
}
