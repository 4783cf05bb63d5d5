//! A node's port table: which ports are bound, and each bound endpoint's
//! mailbox.
//!
//! A mailbox is a slot — a queue's head and tail, its length, the receiver's
//! waker and a live flag — and the messages of every mailbox on the node sit
//! in one arena, linked through `next`, with freed nodes chained on an
//! intrusive free list (the timer wheel's arena, `dc_sim`'s `wheel.rs`, is
//! the same pattern). A dead slot is chained the same way, through its
//! `head`. Binding a port takes a dead slot or appends one, and delivering
//! takes a free node or appends one, so once the table has grown to a run's
//! peak of bound ports and queued messages neither allocates, where a
//! channel per port cost a reference-counted cell per bind and a queue
//! buffer on its first delivery (four of each per SDP connection).
//!
//! The wake order is an unbounded channel's, which nothing scheduled may
//! tell apart: a delivery queues the message, then takes the registered
//! waker and wakes it; a receive pops, or registers its waker if the mailbox
//! is empty; unbinding wakes a waker still registered (a receive abandoned
//! mid-wait leaves one), as dropping a channel's last sender does, and drops
//! what was queued.

use std::task::{Context, Poll, Waker};

use dc_sim::fxhash::FxHashMap;

use crate::cluster::Message;

const NIL: u32 = u32::MAX;

/// One port's mailbox. While dead, `head` links the free slot chain.
struct Mailbox {
    head: u32,
    tail: u32,
    len: u32,
    live: bool,
    waker: Option<Waker>,
}

/// One queued message in the arena. `msg` is `None` only while the node
/// rests on the free list.
struct Node {
    msg: Option<Message>,
    next: u32,
}

pub(crate) struct PortTable {
    /// Bound port → its slot.
    bound: FxHashMap<u16, u32>,
    slots: Vec<Mailbox>,
    /// Head of the dead slot chain through `Mailbox::head` (`NIL` = empty).
    free_slot: u32,
    nodes: Vec<Node>,
    /// Head of the free node chain through `Node::next` (`NIL` = empty).
    free_node: u32,
}

impl PortTable {
    pub(crate) fn new() -> Self {
        PortTable {
            bound: FxHashMap::default(),
            slots: Vec::new(),
            free_slot: NIL,
            nodes: Vec::new(),
            free_node: NIL,
        }
    }

    /// Bind `port` to a fresh, empty mailbox and return its slot, or `None`
    /// if the port is already bound.
    pub(crate) fn bind(&mut self, port: u16) -> Option<u32> {
        if self.bound.contains_key(&port) {
            return None;
        }
        let empty = Mailbox {
            head: NIL,
            tail: NIL,
            len: 0,
            live: true,
            waker: None,
        };
        let slot = match self.free_slot {
            NIL => {
                self.slots.push(empty);
                (self.slots.len() - 1) as u32
            }
            slot => {
                self.free_slot = self.slots[slot as usize].head;
                self.slots[slot as usize] = empty;
                slot
            }
        };
        self.bound.insert(port, slot);
        Some(slot)
    }

    /// Unbind `port` from `slot`: its queued messages are dropped and the
    /// slot is freed. Returns the waker a receive left registered, which the
    /// caller wakes.
    pub(crate) fn unbind(&mut self, port: u16, slot: u32) -> Option<Waker> {
        let removed = self.bound.remove(&port);
        debug_assert_eq!(
            removed,
            Some(slot),
            "port {port} unbound from a slot it does not hold"
        );
        while self.pop(slot).is_some() {}
        let mailbox = &mut self.slots[slot as usize];
        mailbox.live = false;
        mailbox.head = self.free_slot;
        self.free_slot = slot;
        mailbox.waker.take()
    }

    /// The mailbox bound to `port`, if any.
    pub(crate) fn slot(&self, port: u16) -> Option<u32> {
        self.bound.get(&port).copied()
    }

    /// Queue `msg` in `slot`'s mailbox and wake its receiver, if one waits.
    pub(crate) fn push(&mut self, slot: u32, msg: Message) {
        let queued = Node {
            msg: Some(msg),
            next: NIL,
        };
        let node = match self.free_node {
            NIL => {
                self.nodes.push(queued);
                (self.nodes.len() - 1) as u32
            }
            node => {
                self.free_node = self.nodes[node as usize].next;
                self.nodes[node as usize] = queued;
                node
            }
        };
        let mailbox = &mut self.slots[slot as usize];
        debug_assert!(mailbox.live, "delivery to a dead mailbox");
        match mailbox.tail {
            NIL => mailbox.head = node,
            tail => self.nodes[tail as usize].next = node,
        }
        mailbox.tail = node;
        mailbox.len += 1;
        if let Some(w) = mailbox.waker.take() {
            w.wake();
        }
    }

    /// The oldest message in `slot`'s mailbox, if any.
    pub(crate) fn pop(&mut self, slot: u32) -> Option<Message> {
        let mailbox = &mut self.slots[slot as usize];
        debug_assert!(mailbox.live, "receive from a dead mailbox");
        let node = mailbox.head;
        if node == NIL {
            return None;
        }
        let n = &mut self.nodes[node as usize];
        mailbox.head = n.next;
        if mailbox.head == NIL {
            mailbox.tail = NIL;
        }
        mailbox.len -= 1;
        n.next = self.free_node;
        self.free_node = node;
        n.msg.take()
    }

    /// The oldest message in `slot`'s mailbox, or `Pending` with `cx`'s
    /// waker registered to be woken by the next delivery.
    pub(crate) fn poll_pop(&mut self, slot: u32, cx: &mut Context<'_>) -> Poll<Message> {
        if let Some(msg) = self.pop(slot) {
            return Poll::Ready(msg);
        }
        self.slots[slot as usize].waker = Some(cx.waker().clone());
        Poll::Pending
    }

    /// Messages queued in `slot`'s mailbox.
    pub(crate) fn len(&self, slot: u32) -> usize {
        self.slots[slot as usize].len as usize
    }
}
