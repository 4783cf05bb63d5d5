//! Property tests of the executor and synchronization primitives.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::Poll;

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

/// One release of the weighted-semaphore property: at `at`, return `n`
/// permits, then, if `pick` is set, drop one pending waiter's `Acquire`.
#[derive(Clone, Copy, Debug)]
struct Release {
    at: u64,
    n: usize,
    pick: Option<usize>,
}

/// What the reference queue says a program does.
struct Reference {
    /// `(acquirer, instant)` in grant order.
    grants: Vec<(usize, u64)>,
    /// Permits left at the end.
    left: usize,
    /// The waiter each release dropped, if any.
    victims: Vec<Option<usize>>,
}

/// Grant the head of `queue` for as long as its request fits; returns the
/// acquirers granted, in order.
fn grant_heads(queue: &mut VecDeque<usize>, avail: &mut usize, need: &[usize]) -> Vec<usize> {
    let mut granted = Vec::new();
    while let Some(&head) = queue.front().filter(|&&h| need[h] <= *avail) {
        *avail -= need[head];
        granted.push(queue.pop_front().expect("head"));
    }
    granted
}

/// A weighted FIFO semaphore, computed without the executor. At one instant
/// arrivals come before releases, each in index order, and no two releases
/// share an instant. An arrival takes its permits at once only if nobody
/// queues and they fit; a release grants the head of the queue for as long
/// as the head's request fits. A release with a `pick` then drops one of the
/// waiters it just granted (which have not polled yet) or one still queued:
/// the first hands its permits back, the second leaves the queue, and either
/// way the head is granted again while it fits.
fn reference_grants(permits: usize, acquirers: &[(u64, usize)], releases: &[Release]) -> Reference {
    let need: Vec<usize> = acquirers.iter().map(|&(_, n)| n).collect();
    let arrivals = acquirers.iter().enumerate().map(|(i, &(t, _))| (t, 0, i));
    let refills = releases.iter().enumerate().map(|(j, r)| (r.at, 1, j));
    let mut events: Vec<(u64, u8, usize)> = arrivals.chain(refills).collect();
    events.sort_unstable();
    let (mut avail, mut queue, mut grants) = (permits, VecDeque::new(), Vec::new());
    let mut victims = vec![None; releases.len()];
    for (t, kind, k) in events {
        if kind == 0 {
            if queue.is_empty() && need[k] <= avail {
                avail -= need[k];
                grants.push((k, t));
            } else {
                queue.push_back(k);
            }
            continue;
        }
        avail += releases[k].n;
        let mut fresh = grant_heads(&mut queue, &mut avail, &need);
        let pending: Vec<usize> = fresh.iter().chain(&queue).copied().collect();
        if let (Some(p), false) = (releases[k].pick, pending.is_empty()) {
            let v = pending[p % pending.len()];
            victims[k] = Some(v);
            if let Some(pos) = fresh.iter().position(|&g| g == v) {
                fresh.remove(pos);
                avail += need[v];
            } else {
                queue.retain(|&q| q != v);
            }
            fresh.extend(grant_heads(&mut queue, &mut avail, &need));
        }
        grants.extend(fresh.into_iter().map(|g| (g, t)));
    }
    Reference {
        grants,
        left: avail,
        victims,
    }
}

/// An acquirer's `Acquire` while it is pending.
type Slot = Rc<RefCell<Option<Pin<Box<dyn Future<Output = ()>>>>>>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `acquire_many` / `release_many` grant in the reference queue's order,
    /// at its instants, and leave its count, also when waiters are dropped
    /// while queued or after their grant but before they poll (`abandon`).
    /// When every request is for one permit (`unit`) and nobody abandons,
    /// that is a plain FIFO semaphore: the k-th arrival is the k-th woken,
    /// and exactly min(waiters, permits + released) wake.
    #[test]
    fn weighted_semaphore_matches_the_reference_queue(
        permits in 0usize..4,
        acquirers in prop::collection::vec((0u64..50, 1usize..5), 1..20),
        releases in prop::collection::vec((0u64..60, 1usize..6, 0usize..1000), 0..20),
        unit in any::<bool>(),
        abandon in any::<bool>(),
    ) {
        // Everything happens on multiples of 32; release j is shifted by j
        // so that no two releases share an instant.
        let acquirers: Vec<(u64, usize)> = acquirers
            .into_iter()
            .map(|(t, need)| (t * 32, if unit { 1 } else { need }))
            .collect();
        let releases: Vec<Release> = releases
            .into_iter()
            .enumerate()
            .map(|(j, (t, n, p))| Release {
                at: t * 32 + j as u64,
                n: if unit { 1 } else { n },
                pick: abandon.then_some(p),
            })
            .collect();
        let want = reference_grants(permits, &acquirers, &releases);
        let sim = Sim::new();
        let sem = Semaphore::new(permits);
        let grants: Rc<RefCell<Vec<(usize, u64)>>> = Rc::default();
        let slots: Vec<Slot> = acquirers.iter().map(|_| Rc::default()).collect();
        // Acquirers are spawned first, so at one instant their timers fire
        // before the releases'.
        for (i, &(at, need)) in acquirers.iter().enumerate() {
            let (sem, grants, h) = (sem.clone(), Rc::clone(&grants), sim.handle());
            let slot = Rc::clone(&slots[i]);
            sim.spawn(async move {
                h.sleep(at).await;
                *slot.borrow_mut() = Some(Box::pin(sem.acquire_many(need)));
                // Ready(false) once a release has dropped the `Acquire`.
                let observed = std::future::poll_fn(|cx| {
                    let mut s = slot.borrow_mut();
                    let Some(fut) = s.as_mut() else {
                        return Poll::Ready(false);
                    };
                    let ready = fut.as_mut().poll(cx).is_ready();
                    if ready {
                        *s = None;
                    }
                    if ready { Poll::Ready(true) } else { Poll::Pending }
                })
                .await;
                if observed {
                    grants.borrow_mut().push((i, h.now()));
                }
            });
        }
        for (r, victim) in releases.iter().zip(&want.victims) {
            let (sem, h, r) = (sem.clone(), sim.handle(), *r);
            let victim = victim.map(|v| Rc::clone(&slots[v]));
            sim.spawn(async move {
                h.sleep(r.at).await;
                sem.release_many(r.n);
                if let Some(slot) = victim {
                    let fut = slot.borrow_mut().take();
                    assert!(fut.is_some(), "the reference's victim is not pending");
                    drop(fut);
                }
            });
        }
        sim.run();
        prop_assert_eq!(&*grants.borrow(), &want.grants);
        prop_assert_eq!(sem.available(), want.left);
        if unit && !abandon {
            let mut by_arrival: Vec<usize> = (0..acquirers.len()).collect();
            by_arrival.sort_by_key(|&i| acquirers[i].0);
            let woken = want.grants.len();
            prop_assert_eq!(woken, acquirers.len().min(permits + releases.len()));
            let order: Vec<usize> = want.grants.iter().map(|&(i, _)| i).collect();
            prop_assert_eq!(&order[..], &by_arrival[..woken]);
        }
    }
}
