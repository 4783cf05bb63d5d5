//! Property tests of the executor and synchronization primitives.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use proptest::prelude::*;

use dc_sim::sync::{channel, Semaphore};
use dc_sim::Sim;

proptest! {
    /// Sleeps of arbitrary durations complete at exactly their deadlines and
    /// time never runs backwards.
    #[test]
    fn sleeps_complete_exactly(durs in prop::collection::vec(0u64..1_000_000, 1..60)) {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<(u64, u64)>>> = Rc::default();
        for &d in &durs {
            let log = Rc::clone(&log);
            let h = sim.handle();
            sim.spawn(async move {
                h.sleep(d).await;
                log.borrow_mut().push((d, h.now()));
            });
        }
        sim.run();
        let log = log.borrow();
        prop_assert_eq!(log.len(), durs.len());
        for &(d, at) in log.iter() {
            prop_assert_eq!(d, at, "sleep({}) completed at {}", d, at);
        }
        // Completion order is deadline order.
        for w in log.windows(2) {
            prop_assert!(w[1].1 >= w[0].1);
        }
    }

    /// A semaphore of `permits` never admits more than `permits` holders,
    /// serves everyone, and total throughput equals total work.
    #[test]
    fn semaphore_capacity_is_never_exceeded(
        permits in 1usize..5,
        jobs in prop::collection::vec((0u64..500, 1u64..400), 1..40)
    ) {
        let sim = Sim::new();
        let sem = Semaphore::new(permits);
        let active: Rc<std::cell::Cell<usize>> = Rc::default();
        let peak: Rc<std::cell::Cell<usize>> = Rc::default();
        let served: Rc<std::cell::Cell<usize>> = Rc::default();
        for &(arrive, hold) in &jobs {
            let sem = sem.clone();
            let active = Rc::clone(&active);
            let peak = Rc::clone(&peak);
            let served = Rc::clone(&served);
            let h = sim.handle();
            sim.spawn(async move {
                h.sleep(arrive).await;
                let _p = sem.acquire_permit().await;
                active.set(active.get() + 1);
                peak.set(peak.get().max(active.get()));
                h.sleep(hold).await;
                active.set(active.get() - 1);
                served.set(served.get() + 1);
            });
        }
        sim.run();
        prop_assert!(peak.get() <= permits, "peak {} > permits {}", peak.get(), permits);
        prop_assert_eq!(served.get(), jobs.len());
        prop_assert_eq!(active.get(), 0);
    }

    /// Channels deliver every message exactly once, in send order.
    #[test]
    fn channel_delivers_in_order(msgs in prop::collection::vec(any::<u32>(), 0..200)) {
        let sim = Sim::new();
        let (tx, mut rx) = channel();
        let expected = msgs.clone();
        let h = sim.handle();
        sim.spawn(async move {
            for (i, m) in msgs.into_iter().enumerate() {
                h.sleep((i as u64 % 7) * 10).await;
                tx.send(m).unwrap();
            }
        });
        let got = sim.run_to(async move {
            let mut got = Vec::new();
            while let Some(m) = rx.recv().await {
                got.push(m);
            }
            got
        });
        prop_assert_eq!(got, expected);
    }
}

/// `(grants as (acquirer, instant) in grant order, permits left)` of a
/// weighted FIFO semaphore, computed without the executor. At one instant
/// arrivals come before releases, each in index order. An arrival takes its
/// permits at once only if nobody queues and they fit; a release grants the
/// head of the queue for as long as the head's request fits.
fn reference_grants(
    permits: usize,
    acquirers: &[(u64, usize)],
    releases: &[(u64, usize)],
) -> (Vec<(usize, u64)>, usize) {
    let arrivals = acquirers.iter().enumerate().map(|(i, &(t, _))| (t, 0, i));
    let refills = releases.iter().enumerate().map(|(j, &(t, _))| (t, 1, j));
    let mut events: Vec<(u64, u8, usize)> = arrivals.chain(refills).collect();
    events.sort_unstable();
    let (mut avail, mut queue, mut grants) = (permits, VecDeque::new(), Vec::new());
    for (t, kind, k) in events {
        if kind == 0 && queue.is_empty() && acquirers[k].1 <= avail {
            avail -= acquirers[k].1;
            grants.push((k, t));
        } else if kind == 0 {
            queue.push_back(k);
        } else {
            avail += releases[k].1;
            while let Some(&head) = queue.front().filter(|&&h| acquirers[h].1 <= avail) {
                avail -= acquirers[head].1;
                grants.push((queue.pop_front().expect("head"), t));
            }
        }
    }
    (grants, avail)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `acquire_many` / `release_many` grant in the reference queue's order,
    /// at its instants, and leave its count. When every request is for one
    /// permit (`unit`), that is a plain FIFO semaphore: the k-th arrival is
    /// the k-th woken, and exactly min(waiters, permits + released) wake.
    #[test]
    fn weighted_semaphore_matches_the_reference_queue(
        permits in 0usize..4,
        acquirers in prop::collection::vec((0u64..50, 1usize..5), 1..20),
        releases in prop::collection::vec((0u64..60, 1usize..6), 0..20),
        unit in any::<bool>(),
    ) {
        let acquirers: Vec<(u64, usize)> = acquirers
            .into_iter()
            .map(|(t, need)| (t, if unit { 1 } else { need }))
            .collect();
        let releases: Vec<(u64, usize)> = releases
            .into_iter()
            .map(|(t, n)| (t, if unit { 1 } else { n }))
            .collect();
        let sim = Sim::new();
        let sem = Semaphore::new(permits);
        let grants: Rc<RefCell<Vec<(usize, u64)>>> = Rc::default();
        // Acquirers are spawned first, so at one instant their timers fire
        // before the releases'.
        for (i, &(at, need)) in acquirers.iter().enumerate() {
            let (sem, grants, h) = (sem.clone(), Rc::clone(&grants), sim.handle());
            sim.spawn(async move {
                h.sleep(at).await;
                sem.acquire_many(need).await;
                grants.borrow_mut().push((i, h.now()));
            });
        }
        for &(at, n) in &releases {
            let (sem, h) = (sem.clone(), sim.handle());
            sim.spawn(async move {
                h.sleep(at).await;
                sem.release_many(n);
            });
        }
        sim.run();
        let (want, left) = reference_grants(permits, &acquirers, &releases);
        prop_assert_eq!(&*grants.borrow(), &want);
        prop_assert_eq!(sem.available(), left);
        if unit {
            let mut by_arrival: Vec<usize> = (0..acquirers.len()).collect();
            by_arrival.sort_by_key(|&i| acquirers[i].0);
            let woken = want.len();
            prop_assert_eq!(woken, acquirers.len().min(permits + releases.len()));
            let order: Vec<usize> = want.iter().map(|&(i, _)| i).collect();
            prop_assert_eq!(&order[..], &by_arrival[..woken]);
        }
    }
}
