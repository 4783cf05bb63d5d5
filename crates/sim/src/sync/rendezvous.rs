//! Keyed rendezvous: any number of waiters, each parked under its own key.
//!
//! The shape every request/response demultiplexer needs — a caller parks
//! under a correlation id, whoever later learns that id hands it the value
//! — as one map instead of a map of oneshot senders: value and waker sit
//! inline in the slot, so parking allocates nothing, and the wait future
//! evicts its own key when it completes *or is dropped mid-wait*, so an
//! abandoned wait cannot leak a slot.

use std::cell::RefCell;
use std::fmt::Debug;
use std::future::Future;
use std::hash::Hash;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

use crate::fxhash::FxHashMap;

struct Slot<T> {
    val: Option<T>,
    waker: Option<Waker>,
}

/// A table of parked waiters keyed by `K`, each awaiting one `T`.
pub struct Rendezvous<K, T> {
    slots: RefCell<FxHashMap<K, Slot<T>>>,
}

impl<K, T> Default for Rendezvous<K, T> {
    fn default() -> Self {
        Rendezvous {
            slots: RefCell::default(),
        }
    }
}

impl<K: Copy + Eq + Hash + Debug, T> Rendezvous<K, T> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Park under `key` — the slot exists from this call on, so a value may
    /// arrive before the returned future is first polled. Panics if `key`
    /// already has a waiter.
    pub fn wait(&self, key: K) -> Wait<'_, K, T> {
        let slot = Slot {
            val: None,
            waker: None,
        };
        let prev = self.slots.borrow_mut().insert(key, slot);
        assert!(
            prev.is_none(),
            "rendezvous key {key:?} already has a waiter"
        );
        Wait { table: self, key }
    }

    /// Hand `val` to the waiter parked under `key` and wake it. `false` —
    /// and `val` is dropped — if nobody is parked there (never was, gave up,
    /// or was already served).
    pub fn fulfil(&self, key: K, val: T) -> bool {
        let waker = match self.slots.borrow_mut().get_mut(&key) {
            Some(slot) if slot.val.is_none() => {
                slot.val = Some(val);
                slot.waker.take()
            }
            _ => return false,
        };
        if let Some(w) = waker {
            w.wake();
        }
        true
    }

    /// Whether a waiter is parked under `key` (served or not, until its
    /// future completes or is dropped).
    pub fn contains(&self, key: K) -> bool {
        self.slots.borrow().contains_key(&key)
    }

    /// Number of parked waiters.
    pub fn len(&self) -> usize {
        self.slots.borrow().len()
    }

    /// Whether nobody is parked.
    pub fn is_empty(&self) -> bool {
        self.slots.borrow().is_empty()
    }
}

/// Future returned by [`Rendezvous::wait`]; owns its key's slot.
pub struct Wait<'a, K: Eq + Hash, T> {
    table: &'a Rendezvous<K, T>,
    key: K,
}

impl<K: Eq + Hash, T> Future for Wait<'_, K, T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut slots = self.table.slots.borrow_mut();
        let slot = slots.get_mut(&self.key).expect("slot outlives its wait");
        match slot.val.take() {
            Some(v) => Poll::Ready(v),
            None => {
                slot.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

impl<K: Eq + Hash, T> Drop for Wait<'_, K, T> {
    fn drop(&mut self) {
        self.table.slots.borrow_mut().remove(&self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::us;
    use crate::Sim;
    use std::rc::Rc;

    #[test]
    fn fulfil_before_first_poll_is_delivered() {
        let sim = Sim::new();
        let v = sim.run_to(async {
            let table = Rendezvous::new();
            let wait = table.wait(7u64);
            assert!(table.fulfil(7, "early"));
            wait.await
        });
        assert_eq!(v, "early");
    }

    #[test]
    fn wait_then_fulfil_wakes_the_waiter() {
        let sim = Sim::new();
        let h = sim.handle();
        let table = Rc::new(Rendezvous::new());
        let t2 = Rc::clone(&table);
        let hh = h.clone();
        h.spawn(async move {
            hh.sleep(us(3)).await;
            assert!(t2.fulfil(1u32, 9u32));
        });
        let t3 = Rc::clone(&table);
        let (v, at) = sim.run_to(async move { (t3.wait(1).await, h.now()) });
        assert_eq!((v, at), (9, us(3)));
        assert!(table.is_empty(), "a completed wait keeps no slot");
    }

    #[test]
    fn dropped_waiter_evicts_its_key() {
        let table: Rendezvous<u64, ()> = Rendezvous::new();
        let wait = table.wait(5);
        assert!(table.contains(5));
        assert_eq!(table.len(), 1);
        drop(wait);
        assert!(!table.contains(5));
        assert!(!table.fulfil(5, ()), "a waiter that gave up takes nothing");
    }

    #[test]
    fn fulfil_without_a_taker_returns_false() {
        let table = Rendezvous::new();
        assert!(!table.fulfil(1u64, 'a'), "unknown key");
        let _wait = table.wait(1);
        assert!(table.fulfil(1, 'b'));
        assert!(!table.fulfil(1, 'c'), "already served");
    }

    #[test]
    #[should_panic(expected = "already has a waiter")]
    fn duplicate_key_panics() {
        let table: Rendezvous<u32, ()> = Rendezvous::new();
        let _first = table.wait(3);
        let _second = table.wait(3);
    }
}
