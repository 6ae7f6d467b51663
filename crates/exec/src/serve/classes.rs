//! The serving core: per-class admission lanes and every admission and
//! wave decision made over them, as one clock-free state machine.
//!
//! [`Dispatcher`] owns the lanes, the wave controller
//! ([`WaveController`]), and the admission lifecycle (open or closed,
//! live client count). Callers pass `now_ns` into every decision, so the
//! same code runs under the live loop's wall clock (held under the
//! `ServeQueue` state mutex) and under the virtual clock of
//! [`super::test_support::ScriptedServe`]. What differs between the two is
//! only what surrounds the core: real threads, tickets, and the executor
//! on one side; simulated worker lanes and scripted service times on the
//! other.
//!
//! The admission queue is not one deque but one per [`Priority`] class.
//! Arrival order within a class is FIFO; *across* classes the dispatcher
//! picks by **effective class**: a request's class index, minus one
//! promotion for every `aging_step` it has waited. Strict priority for
//! fresh requests, bounded starvation for old ones — a `Batch` request
//! left behind by a hot `Interactive` stream promotes itself one class
//! per aging step until it competes at `Interactive` level, where the
//! earliest-enqueued request wins.

use super::controller::{predicted_wait_ns, WaveController};
use super::{Priority, ServeConfig};
use std::collections::VecDeque;

/// One queued entry: the payload plus everything the pop rule and the
/// latency split need to know about it.
pub(crate) struct Queued<T> {
    /// The request payload (feeds + ticket channel in the live queue,
    /// a bare id in the scripted harness).
    pub item: T,
    /// Admission class, fixed at submit time.
    pub class: Priority,
    /// Enqueue timestamp, nanoseconds on the owning queue's clock.
    pub enqueued_ns: u64,
    /// Global admission sequence number (total order on submissions).
    pub seq: u64,
    /// Absolute end-to-end deadline on the owning queue's clock, if the
    /// request carries an SLO. The pop rule ignores it — eviction of
    /// expired entries is the dispatcher core's decision at pop time.
    pub deadline_ns: Option<u64>,
}

/// Why [`Dispatcher::admit`] turned a request away.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// Admission is closed (shutdown, or the last client dropped).
    Closed,
    /// The request's class lane is at capacity.
    Full,
    /// Predictive shedding: the predicted queue wait already overruns the
    /// request's deadline.
    Shed,
}

/// One wave formed by [`Dispatcher::next_wave`].
pub(crate) struct Wave<T> {
    /// The controller's wave target when the wave formed.
    pub target: usize,
    /// The requests to run, in pop order.
    pub dispatched: Vec<Queued<T>>,
    /// Requests popped past their deadline, in pop order: evicted instead
    /// of dispatched, so they consume no wave slots.
    pub evicted: Vec<Queued<T>>,
}

/// The serving state machine. `T` is the request payload: feeds plus the
/// result channel in the live loop, a bare id in the scripted twin.
pub(crate) struct Dispatcher<T> {
    lanes: [VecDeque<Queued<T>>; Priority::COUNT],
    /// Nanoseconds of queue wait that promote a request one class.
    /// `0` collapses every lane to effective class 0 — global FIFO by
    /// enqueue time, a class-blind queue.
    aging_step_ns: u64,
    /// Admission sequence number of the next accepted request.
    next_seq: u64,
    controller: WaveController,
    workers: usize,
    capacity: usize,
    predictive_shed_from: Option<Priority>,
    /// `false` once shutdown began: admission is refused, queued requests
    /// still drain.
    open: bool,
    /// Live client handles; dropping the last one closes admission.
    clients: usize,
    /// Non-empty waves dispatched so far.
    waves: u64,
}

impl<T> Dispatcher<T> {
    /// A core with one client, open admission, and `config`'s capacity,
    /// sizing, aging, and predictive-shed gate, draining through
    /// `workers` lanes.
    pub(crate) fn new(config: &ServeConfig, workers: usize) -> Self {
        let workers = workers.max(1);
        Dispatcher {
            lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            aging_step_ns: config.aging_step.as_nanos().min(u64::MAX as u128) as u64,
            next_seq: 0,
            controller: WaveController::new(config.sizing, config.batch_multiple, workers),
            workers,
            capacity: config.capacity.max(1),
            predictive_shed_from: config.predictive_shed_from,
            open: true,
            clients: 1,
            waves: 0,
        }
    }

    /// Admits `item` into `class`'s lane at `now_ns`, carrying the absolute
    /// `deadline_ns` of an SLO request. The checks run in a fixed order —
    /// closed, lane full, predictive shed — and a refused item comes back
    /// with the reason, so a blocking caller can retry it.
    ///
    /// The predictive shed applies to SLO requests of a class at or past
    /// [`ServeConfig::predictive_shed_from`] once the controller has a
    /// service estimate: the request is shed when
    /// `now + predicted_wait > deadline`, with the predicted wait
    /// `lane depth × EWMA ÷ workers`.
    pub(crate) fn admit(
        &mut self,
        class: Priority,
        item: T,
        now_ns: u64,
        deadline_ns: Option<u64>,
    ) -> Result<(), (Refusal, T)> {
        if !self.open {
            return Err((Refusal::Closed, item));
        }
        let depth = self.len_class(class);
        if depth >= self.capacity {
            return Err((Refusal::Full, item));
        }
        if let (Some(deadline), Some(from)) = (deadline_ns, self.predictive_shed_from) {
            let ewma = self.service_ewma_ns();
            if class >= from && ewma > 0 {
                let predicted = predicted_wait_ns(depth, ewma, self.workers);
                if now_ns.saturating_add(predicted) > deadline {
                    return Err((Refusal::Shed, item));
                }
            }
        }
        self.push(class, item, now_ns, deadline_ns);
        Ok(())
    }

    /// Appends to `class`'s lane, stamping `now_ns` and the next global
    /// sequence number; SLO requests carry their absolute deadline.
    fn push(&mut self, class: Priority, item: T, now_ns: u64, deadline_ns: Option<u64>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.lanes[class.index()].push_back(Queued {
            item,
            class,
            enqueued_ns: now_ns,
            seq,
            deadline_ns,
        });
    }

    /// Effective class index of a queued entry at `now_ns`: the nominal
    /// index minus one promotion per full aging step waited, floored at
    /// class 0 (`Interactive`).
    fn effective(&self, q: &Queued<T>, now_ns: u64) -> usize {
        if self.aging_step_ns == 0 {
            return 0;
        }
        let waited = now_ns.saturating_sub(q.enqueued_ns);
        q.class
            .index()
            .saturating_sub((waited / self.aging_step_ns) as usize)
    }

    /// Pops the next request to dispatch at `now_ns`.
    ///
    /// Deterministic selection among the lane *heads* (FIFO makes each
    /// head the oldest — and therefore most-aged — entry of its lane):
    /// lowest effective class wins; ties go to the earliest enqueue
    /// timestamp, then the lowest sequence number. Consequences, proved
    /// over arbitrary traces by `tests/serve_qos.rs`:
    ///
    /// * a request never dispatches after a *later-submitted* request of
    ///   an equal or lower class (strict priority + class FIFO);
    /// * once a request has waited `class_index × aging_step`, nothing
    ///   submitted after that point — any class — can pass it (the
    ///   anti-starvation bound).
    fn pop_next(&mut self, now_ns: u64) -> Option<Queued<T>> {
        let mut best: Option<(usize, (usize, u64, u64))> = None;
        for (lane, dq) in self.lanes.iter().enumerate() {
            if let Some(head) = dq.front() {
                let key = (self.effective(head, now_ns), head.enqueued_ns, head.seq);
                if best.as_ref().map_or(true, |(_, k)| key < *k) {
                    best = Some((lane, key));
                }
            }
        }
        best.map(|(lane, _)| self.lanes[lane].pop_front().expect("non-empty lane"))
    }

    /// Forms the next wave at `now_ns`: pops up to the controller's target
    /// with the aged-priority rule, evicting every popped request whose
    /// deadline has passed (`now >= deadline`). `None` when nothing is
    /// queued; a wave whose every pop was evicted comes back with no
    /// dispatched requests and does not count as a wave.
    pub(crate) fn next_wave(&mut self, now_ns: u64) -> Option<Wave<T>> {
        if self.len() == 0 {
            return None;
        }
        let target = self.controller.target();
        let mut wave = Wave {
            target,
            dispatched: Vec::with_capacity(target),
            evicted: Vec::new(),
        };
        while wave.dispatched.len() < target {
            let Some(q) = self.pop_next(now_ns) else {
                break;
            };
            if q.deadline_ns.is_some_and(|d| now_ns >= d) {
                wave.evicted.push(q);
            } else {
                wave.dispatched.push(q);
            }
        }
        if !wave.dispatched.is_empty() {
            self.waves += 1;
        }
        Some(wave)
    }

    /// Feeds the controller one finished wave: its request count and its
    /// dispatch → last-completion drain time.
    pub(crate) fn observe_wave(&mut self, len: usize, drain_ns: u64) {
        self.controller.observe_wave(len, drain_ns);
    }

    /// Closes admission; queued requests still drain.
    pub(crate) fn close(&mut self) {
        self.open = false;
    }

    /// Counts one more client handle.
    pub(crate) fn add_client(&mut self) {
        self.clients += 1;
    }

    /// Counts one client handle gone. Returns `true` when it was the last,
    /// which closes admission.
    pub(crate) fn drop_client(&mut self) -> bool {
        self.clients = self.clients.saturating_sub(1);
        let last = self.clients == 0;
        if last {
            self.open = false;
        }
        last
    }

    /// Whether admission is open.
    pub(crate) fn is_open(&self) -> bool {
        self.open
    }

    /// Requests queued across all lanes.
    pub(crate) fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// Requests queued in `class`'s lane (each lane has its own capacity).
    pub(crate) fn len_class(&self, class: Priority) -> usize {
        self.lanes[class.index()].len()
    }

    /// The worker count waves drain through.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Non-empty waves dispatched so far.
    pub(crate) fn waves(&self) -> u64 {
        self.waves
    }

    /// The wave target the next wave will use.
    pub(crate) fn wave_target(&self) -> usize {
        self.controller.target()
    }

    /// The controller's service EWMA, nanoseconds (`None` before the
    /// first observation, and always under fixed sizing).
    pub(crate) fn ewma_ns(&self) -> Option<f64> {
        self.controller.ewma_ns()
    }

    /// The service EWMA as whole nanoseconds, `0` meaning no estimate. A
    /// sub-nanosecond EWMA floors to 1 so it never reads as "none".
    pub(crate) fn service_ewma_ns(&self) -> u64 {
        self.controller.ewma_ns().map_or(0, |e| e.max(1.0) as u64)
    }
}

/// The mid-service cancel predicate: a dispatched request is cancelled
/// when the join reaches it at `now_ns` past its deadline and its run
/// has not finished. A finished run keeps its result, however late.
pub(crate) fn cancels_in_flight(
    deadline_ns: Option<u64>,
    now_ns: u64,
    finished: impl FnOnce() -> bool,
) -> bool {
    deadline_ns.is_some_and(|d| now_ns >= d) && !finished()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use Priority::{Batch, BestEffort, Interactive};

    const STEP: u64 = 1_000;

    /// A core whose lanes age one class per `aging_step_ns`.
    fn lanes<T>(aging_step_ns: u64) -> Dispatcher<T> {
        let config = ServeConfig {
            aging_step: Duration::from_nanos(aging_step_ns),
            ..ServeConfig::default()
        };
        Dispatcher::new(&config, 1)
    }

    #[test]
    fn strict_priority_between_fresh_lanes() {
        let mut q = lanes(STEP);
        q.push(Batch, "b", 0, None);
        q.push(BestEffort, "e", 1, None);
        q.push(Interactive, "i", 2, None);
        assert_eq!(q.pop_next(3).unwrap().item, "i");
        assert_eq!(q.pop_next(3).unwrap().item, "b");
        assert_eq!(q.pop_next(3).unwrap().item, "e");
        assert!(q.pop_next(3).is_none());
    }

    #[test]
    fn fifo_within_a_class() {
        let mut q = lanes(STEP);
        for i in 0..4u32 {
            q.push(Batch, i, i as u64, None);
        }
        for i in 0..4u32 {
            assert_eq!(q.pop_next(10).unwrap().item, i);
        }
    }

    #[test]
    fn aged_batch_overtakes_fresh_interactive() {
        let mut q = lanes(STEP);
        q.push(Batch, "old-batch", 0, None);
        q.push(Interactive, "fresh", STEP + 5, None);
        // At STEP+5 the batch head has one promotion: effective class 0,
        // and the earlier enqueue time wins the tie.
        assert_eq!(q.pop_next(STEP + 5).unwrap().item, "old-batch");
        assert_eq!(q.pop_next(STEP + 5).unwrap().item, "fresh");
    }

    #[test]
    fn best_effort_needs_two_steps_to_reach_interactive() {
        let mut q = lanes(STEP);
        q.push(BestEffort, "be", 0, None);
        q.push(Interactive, "i1", STEP + 1, None);
        // One step waited: effective 1 — still behind Interactive.
        assert_eq!(q.pop_next(STEP + 2).unwrap().item, "i1");
        q.push(Interactive, "i2", 2 * STEP + 1, None);
        // Two steps waited: effective 0, earlier enqueue wins.
        assert_eq!(q.pop_next(2 * STEP + 2).unwrap().item, "be");
        assert_eq!(q.pop_next(2 * STEP + 2).unwrap().item, "i2");
    }

    #[test]
    fn zero_aging_step_is_global_fifo() {
        let mut q = lanes(0);
        q.push(BestEffort, "first", 0, None);
        q.push(Interactive, "second", 1, None);
        q.push(Batch, "third", 2, None);
        assert_eq!(q.pop_next(2).unwrap().item, "first");
        assert_eq!(q.pop_next(2).unwrap().item, "second");
        assert_eq!(q.pop_next(2).unwrap().item, "third");
    }

    #[test]
    fn deadlines_ride_through_push_and_pop_untouched() {
        let mut q = lanes(STEP);
        q.push(Interactive, "plain", 0, None);
        q.push(Batch, "slo", 1, Some(5_000));
        let first = q.pop_next(2).unwrap();
        assert_eq!(first.item, "plain");
        assert_eq!(first.deadline_ns, None);
        // The pop rule never looks at the deadline: an expired entry is
        // still *popped* (and then evicted by the dispatcher), so lane
        // order stays a pure function of (class, enqueue time, seq).
        let second = q.pop_next(10_000).unwrap();
        assert_eq!(second.item, "slo");
        assert_eq!(second.deadline_ns, Some(5_000));
    }

    #[test]
    fn lane_lengths_track_pushes_and_pops() {
        let mut q: Dispatcher<u8> = lanes(STEP);
        assert_eq!(q.len(), 0);
        q.push(Interactive, 1, 0, None);
        q.push(Interactive, 2, 0, None);
        q.push(Batch, 3, 0, None);
        assert_eq!(q.len_class(Interactive), 2);
        assert_eq!(q.len_class(Batch), 1);
        assert_eq!(q.len_class(BestEffort), 0);
        assert_eq!(q.len(), 3);
        q.pop_next(0);
        assert_eq!(q.len_class(Interactive), 1);
        assert_eq!(q.len(), 2);
    }
}
