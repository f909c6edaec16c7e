//! The discrete-event core: a binary-heap event queue with a virtual clock
//! and stable tie-breaking.
//!
//! This is the engine the cluster simulation is built on, in the style of
//! queueing/cluster simulators (dslab, kubernetriks): events are scheduled at
//! absolute virtual times, the queue pops them in `(time, sequence)` order,
//! and the clock jumps from event to event. Same-time events fire in the
//! order they were scheduled (the monotonically increasing sequence number),
//! so a run is a pure function of the initial seed — no hash-map iteration
//! order or floating-point comparison ambiguity can reorder it.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled event: when it fires, its tie-breaking sequence number and
/// the payload.
#[derive(Debug, Clone)]
pub struct Scheduled<E> {
    /// Virtual time at which the event fires.
    pub time: SimTime,
    /// Scheduling sequence number: earlier-scheduled events fire first among
    /// events with the same timestamp.
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the earliest
        // (time, seq) first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic discrete-event queue with a virtual clock.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    next_seq: u64,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at virtual time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            processed: 0,
        }
    }

    /// The current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The time of the next pending event, without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|next| next.time)
    }

    /// Number of events still pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute virtual time `at` and returns its
    /// sequence number.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current virtual time (scheduling
    /// into the past is always a model bug).
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> u64 {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled {
            time: at,
            seq,
            event,
        });
        seq
    }

    /// Schedules `event` `delay_ns` nanoseconds from now.
    pub fn schedule_after_ns(&mut self, delay_ns: u64, event: E) -> u64 {
        self.schedule_at(self.now.after_ns(delay_ns), event)
    }

    /// Pops the next event, advancing the virtual clock to its timestamp.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let next = self.heap.pop()?;
        debug_assert!(next.time >= self.now, "heap returned an event out of order");
        self.now = next.time;
        self.processed += 1;
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(30), "c");
        q.schedule_at(SimTime(10), "a");
        q.schedule_at(SimTime(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|s| s.event).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime(30));
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn same_time_events_fire_in_scheduling_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|s| s.event).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_only_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_after_ns(100, ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop().unwrap();
        assert_eq!(q.now(), SimTime(100));
        // schedule_after_ns is relative to the advanced clock.
        q.schedule_after_ns(50, ());
        assert_eq!(q.pop().unwrap().time, SimTime(150));
    }

    #[test]
    fn interleaved_scheduling_keeps_global_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), 1u32);
        q.schedule_at(SimTime(40), 4);
        assert_eq!(q.pop().unwrap().event, 1);
        // Scheduled mid-run, before the pending event.
        q.schedule_at(SimTime(20), 2);
        q.schedule_at(SimTime(30), 3);
        let rest: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|s| s.event).collect();
        assert_eq!(rest, vec![2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), ());
        q.pop().unwrap();
        q.schedule_at(SimTime(5), ());
    }
}
