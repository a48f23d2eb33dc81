//! Latency and bandwidth primitives used by every timed component.

use ar_types::Cycle;
use std::collections::{BinaryHeap, VecDeque};

/// An entry of the latency queue, ordered by readiness time (earliest first).
#[derive(Debug)]
struct Timed<T> {
    ready_at: Cycle,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Timed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.ready_at == other.ready_at && self.seq == other.seq
    }
}
impl<T> Eq for Timed<T> {}
impl<T> PartialOrd for Timed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Timed<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest item is popped first.
        other.ready_at.cmp(&self.ready_at).then(other.seq.cmp(&self.seq))
    }
}

/// A queue whose items only become visible once the simulation clock reaches
/// their readiness time. Items with equal readiness are delivered in push
/// order (FIFO), which preserves per-link packet ordering.
#[derive(Debug)]
pub struct LatencyQueue<T> {
    heap: BinaryHeap<Timed<T>>,
    next_seq: u64,
}

impl<T> Default for LatencyQueue<T> {
    fn default() -> Self {
        LatencyQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }
}

impl<T> LatencyQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty queue with room for `capacity` in-flight items, so a
    /// component whose occupancy bound is known up front (e.g. a vault's
    /// controller-queue depth) never grows the heap on the hot path.
    pub fn with_capacity(capacity: usize) -> Self {
        LatencyQueue { heap: BinaryHeap::with_capacity(capacity), next_seq: 0 }
    }

    /// Inserts an item that becomes ready at the given cycle.
    pub fn push_at(&mut self, ready_at: Cycle, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Timed { ready_at, seq, item });
    }

    /// Inserts an item that becomes ready `delay` cycles after `now`.
    pub fn push_after(&mut self, now: Cycle, delay: Cycle, item: T) {
        self.push_at(now.saturating_add(delay), item);
    }

    /// Removes and returns one item whose readiness time is `<= now`.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if self.heap.peek().map(|t| t.ready_at <= now).unwrap_or(false) {
            self.heap.pop().map(|t| t.item)
        } else {
            None
        }
    }

    /// Removes and returns all items ready at or before `now`.
    pub fn drain_ready(&mut self, now: Cycle) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(item) = self.pop_ready(now) {
            out.push(item);
        }
        out
    }

    /// Earliest readiness time among queued items.
    pub fn next_ready_at(&self) -> Option<Cycle> {
        self.heap.peek().map(|t| t.ready_at)
    }

    /// Number of queued items (ready or not).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns true if the queue holds no items.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Visits the queued items ordered by (readiness time, insertion order) —
    /// exactly the order `pop_ready` would deliver them. Checkpoint snapshots
    /// serialize this order and replay it through `push_at` on restore, which
    /// assigns fresh sequence numbers that preserve the relative order.
    pub fn state_entries(&self) -> Vec<(Cycle, &T)> {
        let mut timed: Vec<&Timed<T>> = self.heap.iter().collect();
        timed.sort_by_key(|t| (t.ready_at, t.seq));
        timed.into_iter().map(|t| (t.ready_at, &t.item)).collect()
    }
}

/// A bandwidth-limited, in-order link.
///
/// Packets pushed into the link are delivered after a fixed propagation
/// latency plus a serialization delay of `ceil(bytes / bytes_per_cycle)`
/// cycles; back-to-back packets queue behind each other, so a congested link
/// naturally builds up delay. The number of bytes transferred is tracked for
/// the energy model.
#[derive(Debug)]
pub struct BandwidthLink<T> {
    latency: Cycle,
    bytes_per_cycle: u32,
    /// Cycle at which the link becomes free to start serializing a new packet.
    free_at: Cycle,
    in_flight: VecDeque<(Cycle, T)>,
    /// Total bytes ever pushed through the link.
    bytes_transferred: u64,
    /// Total packets ever pushed through the link.
    packets_transferred: u64,
    /// Cumulative queueing delay (cycles spent waiting for the link).
    queueing_cycles: u64,
}

impl<T> BandwidthLink<T> {
    /// Creates a link with the given propagation latency (cycles) and
    /// bandwidth (bytes per cycle).
    pub fn new(latency: Cycle, bytes_per_cycle: u32) -> Self {
        BandwidthLink {
            latency,
            bytes_per_cycle: bytes_per_cycle.max(1),
            free_at: 0,
            in_flight: VecDeque::new(),
            bytes_transferred: 0,
            packets_transferred: 0,
            queueing_cycles: 0,
        }
    }

    /// Sends a packet of `bytes` bytes at cycle `now`; it will be delivered
    /// after queueing + serialization + propagation. Returns the arrival
    /// cycle, so callers can schedule an event-driven wake-up for it.
    pub fn send(&mut self, now: Cycle, bytes: u32, item: T) -> Cycle {
        let start = self.free_at.max(now);
        self.queueing_cycles += start - now;
        let serialization = (bytes as u64).div_ceil(self.bytes_per_cycle as u64).max(1);
        let done = start + serialization;
        self.free_at = done;
        self.bytes_transferred += u64::from(bytes);
        self.packets_transferred += 1;
        let arrives_at = done + self.latency;
        self.in_flight.push_back((arrives_at, item));
        arrives_at
    }

    /// The oldest in-flight packet with its arrival cycle, if any.
    pub fn next_arrival(&self) -> Option<(Cycle, &T)> {
        self.in_flight.front().map(|(at, item)| (*at, item))
    }

    /// Removes and returns one packet that has fully arrived by `now`.
    pub fn pop_arrived(&mut self, now: Cycle) -> Option<T> {
        if self.in_flight.front().map(|(t, _)| *t <= now).unwrap_or(false) {
            self.in_flight.pop_front().map(|(_, item)| item)
        } else {
            None
        }
    }

    /// Cycle at which the link can start serializing a new packet.
    pub fn free_at(&self) -> Cycle {
        self.free_at
    }

    /// Number of packets currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Total bytes ever sent over the link.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes_transferred
    }

    /// Total packets ever sent over the link.
    pub fn packets_transferred(&self) -> u64 {
        self.packets_transferred
    }

    /// Cumulative cycles packets spent waiting for the link to become free.
    pub fn queueing_cycles(&self) -> u64 {
        self.queueing_cycles
    }

    /// Returns true if nothing is in flight.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Visits the in-flight packets oldest first, each with its arrival cycle.
    pub fn in_flight_entries(&self) -> impl Iterator<Item = (Cycle, &T)> {
        self.in_flight.iter().map(|(at, item)| (*at, item))
    }

    /// Restores the mutable link state from a checkpoint: the next-free cycle
    /// and the three traffic counters. In-flight packets are re-appended
    /// separately via [`BandwidthLink::restore_in_flight`], oldest first.
    pub fn restore_state(
        &mut self,
        free_at: Cycle,
        bytes_transferred: u64,
        packets_transferred: u64,
        queueing_cycles: u64,
    ) {
        self.free_at = free_at;
        self.bytes_transferred = bytes_transferred;
        self.packets_transferred = packets_transferred;
        self.queueing_cycles = queueing_cycles;
    }

    /// Re-appends one checkpointed in-flight packet with its arrival cycle.
    /// Must be called in the order produced by
    /// [`BandwidthLink::in_flight_entries`] to preserve delivery order.
    pub fn restore_in_flight(&mut self, arrives_at: Cycle, item: T) {
        debug_assert!(
            self.in_flight.back().map(|(at, _)| *at <= arrives_at).unwrap_or(true),
            "in-flight packets must be restored oldest first"
        );
        self.in_flight.push_back((arrives_at, item));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_queue_orders_by_time() {
        let mut q = LatencyQueue::new();
        q.push_at(10, "b");
        q.push_at(5, "a");
        q.push_at(10, "c");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_ready(4), None);
        assert_eq!(q.pop_ready(5), Some("a"));
        assert_eq!(q.pop_ready(9), None);
        // FIFO among equal-time items.
        assert_eq!(q.pop_ready(10), Some("b"));
        assert_eq!(q.pop_ready(10), Some("c"));
        assert!(q.is_empty());
    }

    #[test]
    fn latency_queue_push_after_and_drain() {
        let mut q = LatencyQueue::new();
        q.push_after(100, 5, 1);
        q.push_after(100, 2, 2);
        assert_eq!(q.next_ready_at(), Some(102));
        let drained = q.drain_ready(105);
        assert_eq!(drained, vec![2, 1]);
    }

    #[test]
    fn bandwidth_link_serializes_packets() {
        let mut link: BandwidthLink<u32> = BandwidthLink::new(3, 16);
        // 64-byte packet takes 4 cycles to serialize + 3 latency = arrives at 7.
        assert_eq!(link.send(0, 64, 1), 7);
        assert_eq!(link.next_arrival(), Some((7, &1)));
        assert_eq!(link.pop_arrived(6), None);
        assert_eq!(link.pop_arrived(7), Some(1));
        assert_eq!(link.bytes_transferred(), 64);
    }

    #[test]
    fn bandwidth_link_back_to_back_queues() {
        let mut link: BandwidthLink<u32> = BandwidthLink::new(0, 16);
        link.send(0, 64, 1); // serializes 0..4
        link.send(0, 64, 2); // waits, serializes 4..8
        assert_eq!(link.queueing_cycles(), 4);
        assert_eq!(link.pop_arrived(4), Some(1));
        assert_eq!(link.pop_arrived(7), None);
        assert_eq!(link.pop_arrived(8), Some(2));
        assert!(link.is_idle());
    }

    #[test]
    fn bandwidth_link_preserves_order() {
        let mut link: BandwidthLink<u32> = BandwidthLink::new(1, 1000);
        for i in 0..10 {
            link.send(i as u64, 8, i);
        }
        let mut got = Vec::new();
        for now in 0..40 {
            while let Some(x) = link.pop_arrived(now) {
                got.push(x);
            }
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(link.packets_transferred(), 10);
    }
}
