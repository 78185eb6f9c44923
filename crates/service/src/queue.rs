//! The service's job queue: one bounded FIFO shared by every worker.
//!
//! A job that reaches the queue costs 100 µs or more to run and its
//! hand-off is dominated by the worker's thread wake-up, not by this
//! lock: `pipeline_bench` cannot tell one `Mutex<VecDeque>` + `Condvar`
//! from per-worker queues with stealing on any workload (CHANGES.md,
//! PR 12). Which worker pops a job affects timing only, never results —
//! jobs carry their own deterministic noise seeds.

use crate::sync::lock;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a [`WorkQueue::push`] bounced; the job comes back either way.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushError<T> {
    /// The queue is closed (service shutting down).
    Closed(T),
    /// The queue is at capacity: the service is overloaded and the job
    /// should be shed, not buffered without bound.
    Full(T),
}

struct State<T> {
    jobs: VecDeque<T>,
    /// Cleared by [`WorkQueue::close`]; workers drain and exit.
    open: bool,
}

/// A multi-producer, multi-consumer FIFO queue.
pub(crate) struct WorkQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    /// Most jobs the queue holds; 0 disables the bound.
    capacity: usize,
}

impl<T> WorkQueue<T> {
    /// A queue bounded to `capacity` jobs (0 = unbounded).
    pub(crate) fn new(capacity: usize) -> Self {
        WorkQueue {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                open: true,
            }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Enqueue a job and wake one idle worker. Returns the job back if
    /// the queue is closed or at capacity — the caller sheds the load
    /// instead of buffering it.
    pub(crate) fn push(&self, job: T) -> Result<(), PushError<T>> {
        let mut state = lock(&self.state);
        if !state.open {
            return Err(PushError::Closed(job));
        }
        if self.capacity != 0 && state.jobs.len() >= self.capacity {
            return Err(PushError::Full(job));
        }
        state.jobs.push_back(job);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Dequeue the oldest job, parking until one arrives. Returns `None`
    /// only when the queue is closed *and* fully drained, so no admitted
    /// job is ever dropped on shutdown.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut state = lock(&self.state);
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if !state.open {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Close the queue: pending jobs are still drained by `pop`, further
    /// pushes bounce, and idle workers wake up to exit.
    pub(crate) fn close(&self) {
        lock(&self.state).open = false;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    #[test]
    fn pops_in_fifo_order() {
        let q: WorkQueue<u32> = WorkQueue::new(0);
        for v in [1, 2, 3] {
            q.push(v).unwrap();
        }
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    /// The popper parks on an empty queue and is woken by the push: the
    /// channel proves it had not returned before the push happened.
    #[test]
    fn pop_blocks_until_push() {
        let q: Arc<WorkQueue<u32>> = Arc::new(WorkQueue::new(0));
        let (tx, rx) = channel();
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let got = q.pop();
                tx.send(got).unwrap();
            })
        };
        assert!(
            rx.recv_timeout(std::time::Duration::from_millis(30))
                .is_err(),
            "pop returned with nothing queued"
        );
        q.push(99).unwrap();
        assert_eq!(rx.recv().unwrap(), Some(99));
        popper.join().unwrap();
    }

    #[test]
    fn close_drains_then_returns_none() {
        let q: WorkQueue<u32> = WorkQueue::new(0);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(
            q.push(3),
            Err(PushError::Closed(3)),
            "pushes bounce after close"
        );
        // Already-admitted jobs are still drained, in order.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        // Parked workers wake up and exit on close.
        let open: Arc<WorkQueue<u32>> = Arc::new(WorkQueue::new(0));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&open);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        open.close();
        for w in workers {
            assert_eq!(w.join().unwrap(), None);
        }
    }

    #[test]
    fn full_at_exactly_capacity() {
        let q: WorkQueue<u32> = WorkQueue::new(4);
        for v in 0..4 {
            q.push(v).unwrap();
        }
        assert_eq!(q.push(99), Err(PushError::Full(99)));
        // Draining one slot makes room again.
        assert_eq!(q.pop(), Some(0));
        q.push(99).unwrap();
        assert_eq!(q.push(100), Err(PushError::Full(100)));
    }

    #[test]
    fn zero_capacity_means_unbounded() {
        let q: WorkQueue<u32> = WorkQueue::new(0);
        for v in 0..10_000 {
            q.push(v).unwrap();
        }
    }

    /// Hammer the queue from many producers and consumers: every pushed
    /// job is popped exactly once.
    #[test]
    fn concurrent_push_pop_loses_nothing() {
        let q: Arc<WorkQueue<u64>> = Arc::new(WorkQueue::new(0));
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 500;
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.push(p * PER_PRODUCER + i).unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expect: Vec<u64> = (0..PRODUCERS * PER_PRODUCER).collect();
        assert_eq!(all, expect, "every job popped exactly once");
    }
}
