//! The worker ready queue (paper Figure 4).
//!
//! Operations enter one global FIFO ready queue as their dependencies
//! resolve, and idle execution threads dequeue from the front.
//!
//! Transfer is **batched**: [`ReadyQueue::push_batch`] enqueues a whole
//! wave of newly-ready operations under one lock acquisition, and
//! [`ReadyQueue::pop_batch`] lets a worker drain several runnable
//! operations per round-trip. On the executor's hot path this replaces one
//! lock/notify cycle *per operation* with one per wave.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

struct State<T> {
    queue: VecDeque<T>,
    stop_tokens: usize,
    /// Workers currently blocked in `wait` (for fair batch splitting).
    waiting: usize,
}

/// How many tasks one `pop_batch` may claim from a queue of `len` tasks
/// when `waiting` other workers are blocked on the same queue.
///
/// A greedy drain would let one worker walk off with an entire sibling
/// wave and serialize work the other workers should run in parallel, so
/// the batch is capped at a fair share: the queue is split among the known
/// waiters plus the caller, and never less than half is left behind when
/// there is more than one task (covering workers that are momentarily busy
/// rather than parked).
fn fair_take(len: usize, waiting: usize, max: usize) -> usize {
    let shares = (waiting + 1).max(2);
    max.min(len).min(len.div_ceil(shares).max(1))
}

/// A multi-producer multi-consumer FIFO ready queue with blocking pop and
/// batched push/pop.
pub struct ReadyQueue<T> {
    state: Mutex<State<T>>,
    cond: Condvar,
}

impl<T> Default for ReadyQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ReadyQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        ReadyQueue {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                stop_tokens: 0,
                waiting: 0,
            }),
            cond: Condvar::new(),
        }
    }

    /// Enqueues a task at the back.
    pub fn push(&self, item: T) {
        self.state.lock().queue.push_back(item);
        self.cond.notify_one();
    }

    /// Enqueues a wave of tasks under **one** lock acquisition, waking as
    /// many workers as there are new tasks.
    pub fn push_batch(&self, items: impl IntoIterator<Item = T>) {
        let mut st = self.state.lock();
        let before = st.queue.len();
        st.queue.extend(items);
        let pushed = st.queue.len() - before;
        drop(st);
        match pushed {
            0 => {}
            1 => {
                self.cond.notify_one();
            }
            _ => {
                self.cond.notify_all();
            }
        }
    }

    /// Blocking pop; `None` means a stop token was consumed (worker exits).
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock();
        loop {
            if let Some(t) = st.queue.pop_front() {
                return Some(t);
            }
            if st.stop_tokens > 0 {
                st.stop_tokens -= 1;
                return None;
            }
            st.waiting += 1;
            self.cond.wait(&mut st);
            st.waiting -= 1;
        }
    }

    /// Blocking batched pop: waits for work, then drains a **fair share**
    /// of the queue — at most `max` tasks, and never more than the caller's
    /// split of the available work given the other blocked workers — into
    /// `buf` under the single lock acquisition.
    /// Returns `false` iff a stop token was consumed instead (in which case
    /// `buf` is untouched).
    ///
    /// Stop tokens are only consumed when no work is available, so a
    /// `false` return always means `buf` received nothing.
    pub fn pop_batch(&self, buf: &mut Vec<T>, max: usize) -> bool {
        let max = max.max(1);
        let mut st = self.state.lock();
        loop {
            if !st.queue.is_empty() {
                let take = fair_take(st.queue.len(), st.waiting, max);
                buf.extend(st.queue.drain(..take));
                return true;
            }
            if st.stop_tokens > 0 {
                st.stop_tokens -= 1;
                return false;
            }
            st.waiting += 1;
            self.cond.wait(&mut st);
            st.waiting -= 1;
        }
    }

    /// Sends `n` stop tokens, releasing `n` blocked workers.
    pub fn stop(&self, n: usize) {
        self.state.lock().stop_tokens += n;
        self.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_preserves_order() {
        let q = ReadyQueue::new();
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn push_batch_preserves_fifo_order() {
        let q = ReadyQueue::new();
        q.push(1);
        q.push_batch([2, 3, 4]);
        for want in 1..=4 {
            assert_eq!(q.pop(), Some(want));
        }
    }

    #[test]
    fn fair_take_splits_work() {
        // A lone caller still leaves half behind (momentarily-busy peers).
        assert_eq!(fair_take(8, 0, 8), 4);
        // Known waiters shrink the share further.
        assert_eq!(fair_take(8, 3, 8), 2);
        // `max` caps the share; a single task is always takeable.
        assert_eq!(fair_take(10, 0, 4), 4);
        assert_eq!(fair_take(1, 5, 8), 1);
        assert_eq!(fair_take(2, 0, 8), 1);
    }

    #[test]
    fn pop_batch_drains_fair_shares_in_order() {
        let q = ReadyQueue::new();
        q.push_batch(0..10);
        let mut buf = Vec::new();
        assert!(q.pop_batch(&mut buf, 4));
        assert!(
            !buf.is_empty() && buf.len() <= 4,
            "first batch is bounded by max, got {}",
            buf.len()
        );
        while buf.len() < 10 {
            assert!(q.pop_batch(&mut buf, 100));
        }
        assert_eq!(buf, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pop_batch_consumes_stop_token_only_when_empty() {
        let q = ReadyQueue::new();
        q.push(7);
        q.stop(1);
        let mut buf = Vec::new();
        assert!(q.pop_batch(&mut buf, 8), "work is served before the stop");
        assert_eq!(buf, vec![7]);
        buf.clear();
        assert!(!q.pop_batch(&mut buf, 8));
        assert!(buf.is_empty());
    }

    #[test]
    fn stop_tokens_release_workers() {
        let q = Arc::new(ReadyQueue::<u32>::new());
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.stop(1);
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn concurrent_producers_consumers_drain_everything() {
        let q = Arc::new(ReadyQueue::<u64>::new());
        let mut producers = Vec::new();
        for t in 0..4u64 {
            let q = Arc::clone(&q);
            producers.push(std::thread::spawn(move || {
                for i in 0..100 {
                    q.push(t * 1000 + i);
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..4 {
            let q = Arc::clone(&q);
            consumers.push(std::thread::spawn(move || {
                let mut got = 0u64;
                let mut buf = Vec::new();
                while q.pop_batch(&mut buf, 8) {
                    got += buf.len() as u64;
                    buf.clear();
                }
                got
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        q.stop(4);
        let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 400);
    }
}
