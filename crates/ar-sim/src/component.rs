//! The event-driven component layer of the simulation kernel.
//!
//! The original system model advanced in lock-step: every core, router, AR
//! engine, DRAM channel and HMC vault was ticked on every cycle, so almost
//! all wall-clock time went into visiting components with nothing to do. The
//! types in this module invert that relationship: a [`Component`] *requests*
//! the next cycle at which it has internal work ([`NextWake`]), a
//! [`Scheduler`] keeps the calendar of those requests, and the system driver
//! only wakes components that are due.
//!
//! # Contract
//!
//! The equivalence of the event-driven kernel with the lock-step reference
//! rests on two rules every `Component` implementation must obey:
//!
//! 1. **Spurious wakes are harmless.** Waking a component at a cycle where it
//!    has no due work must be a behavioural no-op (identical observable state
//!    and statistics afterwards). The lock-step driver exploits this by
//!    waking everything on every cycle.
//! 2. **Wake requests are conservative.** After `wake(now)` returns
//!    `NextWake::At(t)`, the component must have no observable state change
//!    scheduled strictly before `t`; after `NextWake::Idle` it must be inert
//!    until externally stimulated (a push, an injected packet, a delivered
//!    completion). Whoever stimulates a sleeping component is responsible for
//!    re-arming it in the scheduler.
//!
//! Under these rules, skipping a cycle in which no component is due is
//! exactly equivalent to simulating it — which is what
//! `ar_system::System::run` does, and what the lock-step-vs-event-driven
//! equivalence tests verify end to end.
//!
//! # Example
//!
//! ```
//! use ar_sim::{Component, NextWake, SchedCtx, Scheduler};
//! use ar_types::Cycle;
//!
//! /// A timer that fires once, `delay` cycles after being armed.
//! struct Timer {
//!     fire_at: Option<Cycle>,
//!     fired: u32,
//! }
//!
//! impl Component for Timer {
//!     fn next_wake(&self, _now: Cycle) -> NextWake {
//!         NextWake::from_next(self.fire_at)
//!     }
//!     fn wake(&mut self, now: Cycle, _ctx: &mut SchedCtx) -> NextWake {
//!         if self.fire_at == Some(now) {
//!             self.fire_at = None;
//!             self.fired += 1;
//!         }
//!         self.next_wake(now)
//!     }
//! }
//!
//! let mut timer = Timer { fire_at: Some(7), fired: 0 };
//! let mut sched: Scheduler<&'static str> = Scheduler::new();
//! sched.schedule_next(timer.next_wake(0), "timer");
//! assert_eq!(sched.next_cycle(), Some(7));
//! let due = sched.pop_due(7);
//! assert!(due.contains("timer"));
//! let mut ctx = SchedCtx::new(7);
//! assert_eq!(timer.wake(7, &mut ctx), NextWake::Idle);
//! assert_eq!(timer.fired, 1);
//! ```

use crate::events::EventQueue;
use ar_types::Cycle;
use std::collections::BTreeSet;

/// When a component next has internal work to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextWake {
    /// Wake the component at the given cycle (the scheduler clamps requests
    /// that are already in the past to the next processed cycle).
    At(Cycle),
    /// The component has no internal work: it sleeps until an external
    /// stimulus re-arms it.
    Idle,
}

impl NextWake {
    /// Builds a wake request from an optional next-event cycle.
    pub fn from_next(next: Option<Cycle>) -> NextWake {
        match next {
            Some(at) => NextWake::At(at),
            None => NextWake::Idle,
        }
    }

    /// The earlier of two wake requests (`Idle` is the neutral element).
    pub fn min_with(self, other: NextWake) -> NextWake {
        match (self, other) {
            (NextWake::At(a), NextWake::At(b)) => NextWake::At(a.min(b)),
            (NextWake::At(a), NextWake::Idle) | (NextWake::Idle, NextWake::At(a)) => {
                NextWake::At(a)
            }
            (NextWake::Idle, NextWake::Idle) => NextWake::Idle,
        }
    }

    /// Folds an optional cycle into this wake request.
    pub fn min_opt(self, next: Option<Cycle>) -> NextWake {
        self.min_with(NextWake::from_next(next))
    }

    /// The requested cycle, if any.
    pub fn cycle(self) -> Option<Cycle> {
        match self {
            NextWake::At(at) => Some(at),
            NextWake::Idle => None,
        }
    }

    /// Returns true if the component requested to sleep.
    pub fn is_idle(self) -> bool {
        self == NextWake::Idle
    }
}

/// Context handed to a component while it is being woken.
///
/// Currently it only carries the cycle being processed; it exists as the
/// extension point for driver-mediated services a component may need
/// mid-wake, without having to change every `wake` signature.
#[derive(Debug, Clone, Copy)]
pub struct SchedCtx {
    now: Cycle,
}

impl SchedCtx {
    /// Creates a context for the cycle being processed.
    pub fn new(now: Cycle) -> Self {
        SchedCtx { now }
    }

    /// The cycle being processed.
    pub fn now(&self) -> Cycle {
        self.now
    }
}

/// A timed simulation component scheduled through wake-up requests instead of
/// per-cycle polling.
pub trait Component {
    /// The next cycle at which this component has internal work, assuming no
    /// further external stimulus. Must be conservative: no observable state
    /// change may be pending strictly before the returned cycle.
    fn next_wake(&self, now: Cycle) -> NextWake;

    /// Performs all work due at `now` and returns the new wake request.
    /// Waking a component with no due work must be a behavioural no-op.
    fn wake(&mut self, now: Cycle, ctx: &mut SchedCtx) -> NextWake;
}

/// The wake-up calendar of a set of components identified by `K`.
///
/// Scheduling is liberal by design: duplicate or spurious entries are cheap
/// because [`Scheduler::pop_due`] deduplicates into a set and waking an idle
/// component is a no-op. The correctness requirement is only that every cycle
/// at which some component has due work carries at least one entry.
///
/// # Event-triggered wakes
///
/// Components that sleep on an external event (a blocked core waiting for a
/// memory response, a drained vault waiting for nothing at all) return
/// [`NextWake::Idle`] and leave the calendar entirely; whoever delivers the
/// event re-arms them with [`Scheduler::wake`] (fire at the next processed
/// cycle) or [`Scheduler::schedule`] (fire at a known future cycle).
#[derive(Debug)]
pub struct Scheduler<K> {
    queue: EventQueue<K>,
}

impl<K: Ord + Copy> Default for Scheduler<K> {
    fn default() -> Self {
        Scheduler { queue: EventQueue::new() }
    }
}

impl<K: Ord + Copy> Scheduler<K> {
    /// Creates an empty calendar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a wake-up of component `key` at cycle `at`.
    pub fn schedule(&mut self, at: Cycle, key: K) {
        self.queue.schedule(at, key);
    }

    /// Schedules a wake-up from a component's [`NextWake`] request
    /// (`Idle` requests are dropped).
    pub fn schedule_next(&mut self, wake: NextWake, key: K) {
        if let NextWake::At(at) = wake {
            self.schedule(at, key);
        }
    }

    /// Arms an *event-triggered* wake of `key`: the component is woken at the
    /// next cycle the driver processes, whenever that is. This is how an
    /// external stimulus re-arms a component that reported
    /// [`NextWake::Idle`] without the stimulator having to know the clock.
    ///
    /// ```
    /// use ar_sim::Scheduler;
    ///
    /// let mut sched: Scheduler<&str> = Scheduler::new();
    /// let _ = sched.pop_due(41); // driver has processed up to cycle 41
    /// sched.wake("vault");
    /// assert!(sched.pop_due(42).contains("vault"));
    /// ```
    pub fn wake(&mut self, key: K) {
        // Cycle 0 is clamped by the event queue to the last popped cycle, so
        // the entry becomes due immediately without rewinding time.
        self.schedule(0, key);
    }

    /// The earliest cycle with a scheduled wake-up.
    pub fn next_cycle(&self) -> Option<Cycle> {
        self.queue.next_at()
    }

    /// Removes every wake-up scheduled at or before `now` and returns the
    /// (deduplicated) set of components to wake.
    pub fn pop_due(&mut self, now: Cycle) -> BTreeSet<K> {
        let mut due = BTreeSet::new();
        while let Some((_, key)) = self.queue.pop_due(now) {
            due.insert(key);
        }
        due
    }

    /// Allocation-free variant of [`Scheduler::pop_due`] for the hot driver
    /// loop: fills `due` with the sorted, deduplicated keys scheduled at or
    /// before `now` (clearing it first).
    pub fn pop_due_into(&mut self, now: Cycle, due: &mut Vec<K>) {
        due.clear();
        while let Some((_, key)) = self.queue.pop_due(now) {
            due.push(key);
        }
        due.sort_unstable();
        due.dedup();
    }

    /// Number of scheduled wake-ups (duplicates included).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns true if no wake-ups are scheduled.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A component that performs one unit of work per cycle for `remaining`
    /// cycles, then idles until `push`ed again.
    struct Worker {
        remaining: u32,
        work_done: u32,
    }

    impl Worker {
        fn push(&mut self, units: u32) {
            self.remaining += units;
        }
    }

    impl Component for Worker {
        fn next_wake(&self, now: Cycle) -> NextWake {
            if self.remaining > 0 {
                NextWake::At(now + 1)
            } else {
                NextWake::Idle
            }
        }

        fn wake(&mut self, now: Cycle, _ctx: &mut SchedCtx) -> NextWake {
            if self.remaining > 0 {
                self.remaining -= 1;
                self.work_done += 1;
            }
            self.next_wake(now)
        }
    }

    #[test]
    fn next_wake_min_folds_correctly() {
        assert_eq!(NextWake::At(3).min_with(NextWake::At(7)), NextWake::At(3));
        assert_eq!(NextWake::Idle.min_with(NextWake::At(7)), NextWake::At(7));
        assert_eq!(NextWake::At(7).min_with(NextWake::Idle), NextWake::At(7));
        assert_eq!(NextWake::Idle.min_with(NextWake::Idle), NextWake::Idle);
        assert_eq!(NextWake::Idle.min_opt(Some(4)), NextWake::At(4));
        assert_eq!(NextWake::At(2).min_opt(None), NextWake::At(2));
        assert_eq!(NextWake::Idle.cycle(), None);
        assert!(NextWake::Idle.is_idle());
    }

    #[test]
    fn scheduler_pops_due_keys_deduplicated() {
        let mut sched: Scheduler<u32> = Scheduler::new();
        sched.schedule(5, 1);
        sched.schedule(5, 1); // duplicate
        sched.schedule(5, 2);
        sched.schedule(9, 3);
        assert_eq!(sched.next_cycle(), Some(5));
        let due = sched.pop_due(5);
        assert_eq!(due.into_iter().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(sched.next_cycle(), Some(9));
        assert!(sched.pop_due(8).is_empty());
        assert!(!sched.is_empty());
        assert_eq!(sched.pop_due(100).len(), 1);
        assert!(sched.is_empty());
    }

    #[test]
    fn wake_fires_at_the_next_processed_cycle() {
        let mut sched: Scheduler<u32> = Scheduler::new();
        sched.schedule(7, 1);
        assert!(sched.pop_due(7).contains(&1));
        // Event-triggered wake after the clock reached 7: due immediately.
        sched.wake(2);
        assert_eq!(sched.next_cycle(), Some(7));
        assert!(sched.pop_due(7).contains(&2));
    }

    #[test]
    fn idle_requests_are_not_scheduled() {
        let mut sched: Scheduler<u32> = Scheduler::new();
        sched.schedule_next(NextWake::Idle, 1);
        assert!(sched.is_empty());
        sched.schedule_next(NextWake::At(3), 1);
        assert_eq!(sched.len(), 1);
    }

    #[test]
    fn component_wake_and_rearm_cycle() {
        // Drive a Worker exactly the way the system driver does: wake it only
        // when due, re-arm from its NextWake, re-arm on external stimulus.
        let mut worker = Worker { remaining: 2, work_done: 0 };
        let mut sched: Scheduler<&'static str> = Scheduler::new();
        sched.schedule(0, "worker");

        let mut now = 0;
        let mut processed = Vec::new();
        while let Some(next) = sched.next_cycle() {
            now = next.max(now);
            let due = sched.pop_due(now);
            if due.contains("worker") {
                processed.push(now);
                let mut ctx = SchedCtx::new(now);
                let wake = worker.wake(now, &mut ctx);
                sched.schedule_next(wake, "worker");
            }
        }
        // Two units of work, one per cycle, then idle: cycles 0 and 1 only.
        assert_eq!(processed, vec![0, 1]);
        assert_eq!(worker.work_done, 2);
        assert_eq!(worker.next_wake(now), NextWake::Idle);

        // External stimulus: the caller must re-arm the sleeping component.
        worker.push(1);
        sched.schedule_next(worker.next_wake(5), "worker");
        assert_eq!(sched.next_cycle(), Some(6));
        let due = sched.pop_due(6);
        assert!(due.contains("worker"));
        let mut ctx = SchedCtx::new(6);
        assert_eq!(worker.wake(6, &mut ctx), NextWake::Idle);
        assert_eq!(worker.work_done, 3);
    }

    #[test]
    fn spurious_wake_is_a_no_op() {
        let mut worker = Worker { remaining: 0, work_done: 0 };
        let mut ctx = SchedCtx::new(4);
        assert_eq!(worker.wake(4, &mut ctx), NextWake::Idle);
        assert_eq!(worker.work_done, 0);
    }
}
