//! The Message Interface (MI) of Section 3.1.2.
//!
//! The `Update` and `Gather` ISA extensions write their operands into special
//! registers of the per-core Message Interface, which packetises them into
//! active command packets and hands them to an HMC controller port. Here the
//! MI is a bounded queue per core: the core stalls issuing further offload
//! instructions when the queue is full, and the system drains the queue into
//! the memory network at the network clock rate.

use ar_types::{Addr, ReduceOp, ThreadId};
use std::collections::VecDeque;

/// The payload of an offload instruction captured by the MI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OffloadKind {
    /// `Update(src1, src2, target, op)`.
    Update {
        /// Operation to perform near data.
        op: ReduceOp,
        /// First source operand address.
        src1: Addr,
        /// Optional second source operand address.
        src2: Option<Addr>,
        /// Optional immediate operand.
        imm: Option<f64>,
        /// Target (accumulator) address identifying the flow.
        target: Addr,
    },
    /// `Gather(target, num_threads)`.
    Gather {
        /// Target (accumulator) address identifying the flow.
        target: Addr,
        /// Reduction operation of the flow.
        op: ReduceOp,
        /// Number of threads participating in the implicit barrier.
        num_threads: u32,
    },
}

/// One offload command queued in a core's Message Interface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffloadCommand {
    /// The thread (== core in this model) that issued the command.
    pub thread: ThreadId,
    /// The command payload.
    pub kind: OffloadKind,
}

/// The per-core Message Interface: a bounded FIFO of offload commands.
#[derive(Debug, Clone)]
pub struct MessageInterface {
    queue: VecDeque<OffloadCommand>,
    depth: usize,
    accepted: u64,
    rejected: u64,
}

impl MessageInterface {
    /// Creates an MI with the given queue depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "MI queue depth must be non-zero");
        // Reserved up front so the hot path never touches the allocator.
        MessageInterface { queue: VecDeque::with_capacity(depth), depth, accepted: 0, rejected: 0 }
    }

    /// Returns true if another command can be accepted.
    pub fn has_space(&self) -> bool {
        self.queue.len() < self.depth
    }

    /// Attempts to enqueue a command. Returns false (and counts a rejection)
    /// when the queue is full.
    pub fn try_push(&mut self, cmd: OffloadCommand) -> bool {
        if !self.has_space() {
            self.rejected += 1;
            return false;
        }
        self.accepted += 1;
        self.queue.push_back(cmd);
        true
    }

    /// Removes the oldest queued command.
    pub fn pop(&mut self) -> Option<OffloadCommand> {
        self.queue.pop_front()
    }

    /// Iterates the queued commands front (oldest) to back.
    pub fn iter(&self) -> impl Iterator<Item = &OffloadCommand> {
        self.queue.iter()
    }

    /// The configured queue depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Peeks at the oldest queued command.
    pub fn peek(&self) -> Option<&OffloadCommand> {
        self.queue.front()
    }

    /// Current queue occupancy.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns true if no commands are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Commands accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Push attempts rejected because the queue was full (a proxy for core
    /// stall pressure from offloading).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Replaces the queue contents and acceptance counters with checkpointed
    /// state. The caller (`Core::load_state`) validates the queue length
    /// against the configured depth.
    pub(crate) fn load_state(&mut self, queue: Vec<OffloadCommand>, accepted: u64, rejected: u64) {
        self.queue.clear();
        self.queue.extend(queue);
        self.accepted = accepted;
        self.rejected = rejected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(target: u64) -> OffloadCommand {
        OffloadCommand {
            thread: ThreadId::new(0),
            kind: OffloadKind::Update {
                op: ReduceOp::Sum,
                src1: Addr::new(64),
                src2: None,
                imm: None,
                target: Addr::new(target),
            },
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let mut mi = MessageInterface::new(4);
        assert!(mi.try_push(update(1)));
        assert!(mi.try_push(update(2)));
        assert_eq!(mi.len(), 2);
        match mi.pop().unwrap().kind {
            OffloadKind::Update { target, .. } => assert_eq!(target, Addr::new(1)),
            _ => panic!("expected update"),
        }
    }

    #[test]
    fn full_queue_rejects() {
        let mut mi = MessageInterface::new(2);
        assert!(mi.try_push(update(1)));
        assert!(mi.try_push(update(2)));
        assert!(!mi.has_space());
        assert!(!mi.try_push(update(3)));
        assert_eq!(mi.accepted(), 2);
        assert_eq!(mi.rejected(), 1);
    }

    #[test]
    fn drain_to_empty() {
        let mut mi = MessageInterface::new(8);
        for i in 0..5 {
            mi.try_push(update(i));
        }
        let mut n = 0;
        while mi.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
        assert!(mi.is_empty());
        assert!(mi.peek().is_none());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_depth_panics() {
        let _ = MessageInterface::new(0);
    }
}
