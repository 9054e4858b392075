//! The event calendar: a priority queue ordered by `(time, seq)`, stored as
//! one heap entry per *run* of same-instant events.
//!
//! `seq` is a monotonically increasing sequence number assigned at insertion
//! time, which gives **stable FIFO tie-breaking**: two events scheduled for
//! the same instant pop in scheduling order. Without this, `BinaryHeap`'s
//! unspecified ordering of equal keys would make runs non-reproducible.
//!
//! # Runs
//!
//! A broadcast to `P − 1` peers schedules `P − 1` deliveries back to back,
//! all at the same instant. Giving each its own heap entry makes the heap
//! `P` times larger than it needs to be and pays a `log n` sift per message.
//! The calendar therefore groups events into **runs**: a run is a maximal
//! sequence of consecutive pushes (consecutive `seq`) at the same
//! [`SimTime`].
//!
//! * A run is keyed by `(time, seq of its first event)`.
//! * Its front event is stored inline in the run; the remaining events are
//!   a singly linked list through a free-listed node pool, so a run of
//!   one or two events (gossip, point-to-point traffic) allocates nothing.
//! * The newest run is **open** and lives outside the heap: pushes at its
//!   instant append to it. A push at any other instant closes it (moves it
//!   into the heap) and opens a new run.
//! * `pop` takes the earlier of the open run and the heap top by
//!   `(time, seq)`, then takes that run's front event. A run leaves the
//!   heap only when it is empty.
//!
//! # Why the pop order is exactly `(time, seq)`
//!
//! The seqs of a run are contiguous, and every seq belongs to exactly one
//! run, so no other run holds a seq inside a run's range. Comparing two
//! runs by their first event therefore orders *all* their events: if run
//! `A` sorts before run `B`, every event of `A` sorts before every event of
//! `B` under `(time, seq)`. Draining the earliest run front to back, at its
//! first event's key, yields the same sequence a heap of individual
//! `(time, seq)` entries would. Popping from the front never breaks
//! contiguity, and an open run only grows at its back with the next seq.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// End-of-list marker for pool links.
const NIL: u32 = u32::MAX;

/// Nodes per pool chunk (a power of two). The pool grows one chunk at a
/// time instead of doubling one buffer, so growing it never holds two
/// copies of the pool at once.
const CHUNK_SHIFT: u32 = 12;
const CHUNK: usize = 1 << CHUNK_SHIFT;

/// A run of same-instant events with consecutive seqs.
struct Run<E> {
    time: SimTime,
    /// Seq of the run's first event: the run's key while it drains.
    seq: u64,
    /// The run's front event.
    front: E,
    /// Pool index of the second event, or [`NIL`].
    rest: u32,
}

impl<E> Run<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Run<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Run<E> {}

impl<E> Ord for Run<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order: BinaryHeap is a max-heap, we want earliest first.
        other.key().cmp(&self.key())
    }
}
impl<E> PartialOrd for Run<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The open run and the pool index of its last event ([`NIL`] when the
/// front is the only event).
struct Open<E> {
    run: Run<E>,
    tail: u32,
}

struct Node<E> {
    /// `None` while the node is on the free list.
    event: Option<E>,
    /// Next event of the same run, or next free node.
    next: u32,
}

/// Storage for the non-front events of all runs: fixed-size chunks of
/// nodes, with freed nodes recycled through an intrusive free list.
struct Pool<E> {
    chunks: Vec<Vec<Node<E>>>,
    /// Head of the free list, or [`NIL`].
    free: u32,
    /// Nodes ever created (live or free).
    len: u32,
}

impl<E> Pool<E> {
    fn new() -> Self {
        Pool {
            chunks: Vec::new(),
            free: NIL,
            len: 0,
        }
    }

    #[inline]
    fn node(chunks: &mut [Vec<Node<E>>], i: u32) -> &mut Node<E> {
        &mut chunks[(i >> CHUNK_SHIFT) as usize][i as usize & (CHUNK - 1)]
    }

    /// Store `event` in a node with no successor; returns its index.
    fn alloc(&mut self, event: E) -> u32 {
        let fresh = Node {
            event: Some(event),
            next: NIL,
        };
        let i = self.free;
        if i != NIL {
            let node = Self::node(&mut self.chunks, i);
            self.free = node.next;
            *node = fresh;
            return i;
        }
        let i = self.len;
        assert!(i != NIL, "event pool exhausted");
        if (i as usize).is_multiple_of(CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.chunks[(i >> CHUNK_SHIFT) as usize].push(fresh);
        self.len += 1;
        i
    }

    /// Free node `i`; returns its event and its successor.
    fn take(&mut self, i: u32) -> (E, u32) {
        let node = Self::node(&mut self.chunks, i);
        let event = node.event.take().expect("pool node is live");
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = i;
        (event, next)
    }

    /// Link node `i` after node `tail`.
    #[inline]
    fn link(&mut self, tail: u32, i: u32) {
        Self::node(&mut self.chunks, tail).next = i;
    }
}

/// Take the front event of a run that holds at least two events, moving
/// the second one forward.
#[inline]
fn advance<E>(run: &mut Run<E>, pool: &mut Pool<E>) -> E {
    let (next_ev, next) = pool.take(run.rest);
    run.rest = next;
    std::mem::replace(&mut run.front, next_ev)
}

/// A deterministic event calendar.
pub struct EventQueue<E> {
    /// Closed runs, earliest `(time, seq)` on top.
    heap: BinaryHeap<Run<E>>,
    /// The newest run, still accepting same-instant pushes.
    open: Option<Open<E>>,
    pool: Pool<E>,
    len: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty calendar.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            open: None,
            pool: Pool::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedule `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        if let Some(open) = &mut self.open {
            if open.run.time == time {
                let i = self.pool.alloc(event);
                if open.tail == NIL {
                    open.run.rest = i;
                } else {
                    self.pool.link(open.tail, i);
                }
                open.tail = i;
                return;
            }
        }
        let run = Run {
            time,
            seq,
            front: event,
            rest: NIL,
        };
        if let Some(closed) = self.open.replace(Open { run, tail: NIL }) {
            self.heap.push(closed.run);
        }
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let open_first = match (&self.open, self.heap.peek()) {
            (Some(open), Some(top)) => open.run.key() < top.key(),
            (open, _) => open.is_some(),
        };
        let popped = match &mut self.open {
            Some(open) if open_first => {
                if open.run.rest == NIL {
                    let Open { run, .. } = self.open.take()?;
                    (run.time, run.front)
                } else {
                    let event = advance(&mut open.run, &mut self.pool);
                    if open.run.rest == NIL {
                        open.tail = NIL;
                    }
                    (open.run.time, event)
                }
            }
            _ => {
                let mut top = self.heap.peek_mut()?;
                if top.rest == NIL {
                    let run = PeekMut::pop(top);
                    (run.time, run.front)
                } else {
                    // The key is unchanged, so the sift on drop stops at once.
                    (top.time, advance(&mut top, &mut self.pool))
                }
            }
        };
        self.len -= 1;
        Some(popped)
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let open = self.open.as_ref().map(|o| o.run.time);
        open.into_iter()
            .chain(self.heap.peek().map(|r| r.time))
            .min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the calendar is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled (diagnostic).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), "c");
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_tie_breaking_at_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), 1);
        q.push(SimTime(10), 2);
        assert_eq!(q.pop(), Some((SimTime(10), 1)));
        q.push(SimTime(10), 3);
        // 2 was scheduled before 3.
        assert_eq!(q.pop(), Some((SimTime(10), 2)));
        assert_eq!(q.pop(), Some((SimTime(10), 3)));
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime(42), ());
        q.push(SimTime(7), ());
        assert_eq!(q.peek_time(), Some(SimTime(7)));
    }

    #[test]
    fn len_and_counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime(1), ());
        q.push(SimTime(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn freed_pool_nodes_are_reused() {
        let mut q = EventQueue::new();
        for round in 0..3u64 {
            for i in 0..(2 * CHUNK as u64) {
                q.push(SimTime(round), i);
            }
            while q.pop().is_some() {}
        }
        assert_eq!(q.pool.chunks.len(), 2, "pool grew past one burst");
    }
}
