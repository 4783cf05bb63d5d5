//! Parallel parameter-sweep helper.
//!
//! Every experiment cell is an independent, seeded, single-threaded
//! simulation, so sweeps parallelize perfectly across OS threads. A bounded
//! worker pool (one worker per available core) pulls cell indices from a
//! shared counter — on a single-core host this degrades gracefully to a
//! sequential run with no oversubscription overhead.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Map `f` over `items` with up to `available_parallelism` worker threads,
/// preserving input order in the output.
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len().max(1));
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                out.lock().expect("sweep output poisoned")[i] = Some(r);
            });
        }
    });
    out.into_inner()
        .expect("sweep output poisoned")
        .into_iter()
        .map(|r| r.expect("sweep cell missing"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_covers_all_items() {
        let items: Vec<u64> = (0..57).collect();
        let out = parallel_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn works_on_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn simulation_cells_are_thread_safe() {
        // Each closure invocation builds its own Sim; results match the
        // sequential baseline exactly.
        let sizes = [1usize, 64, 1024];
        let put = |&s: &usize| {
            let ctx = crate::scenario::RunCtx::pinned();
            let fabric = dc_fabric::FabricModel::calibrated_2007();
            crate::fig3a::put_latency_ns(&ctx, &fabric, dc_ddss::Coherence::Null, s)
        };
        let par = parallel_map(&sizes, put);
        let seq: Vec<u64> = sizes.iter().map(put).collect();
        assert_eq!(par, seq);
    }
}
