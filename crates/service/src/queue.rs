//! The service's job queue: one bounded FIFO, and the one bound on how
//! many pipelines execute at once.
//!
//! A job's hand-off is dominated by thread wake-ups, not by this lock:
//! a job that crosses to a parked worker pays the worker's wake-up and
//! then its caller's (50–120 µs on a 2-core box), more than every traced
//! stage of a small query together. So the thread that waits for a job
//! is the one that runs it: `Ticket::wait` takes its own job back off
//! the queue ([`WorkQueue::take`]) and runs it there, and
//! [`WorkQueue::push`] wakes a worker only when the submitter cannot run
//! the job at once — the queue already held a job (a burst one caller
//! cannot drain alone), or the query nests too deep for the caller's
//! stack — or when someone else waits on a queued job
//! ([`WorkQueue::nudge`], and a caller whose job a worker already took,
//! in [`WorkQueue::take`]). A WAL's fsync is not a reason: the service's
//! log flusher runs it while the caller runs the job.
//! Workers and callers take jobs under one count of running jobs, each
//! holding a [`Slot`] until its pipeline ends, so `slots` bounds the
//! pipelines executing at once on any thread. Which thread runs a job
//! affects timing only, never results — jobs carry their own
//! deterministic noise seeds.

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
    /// Queued jobs, oldest first, each under the id `push` returned.
    jobs: VecDeque<(u64, T)>,
    next_id: u64,
    /// Jobs taken off the queue, by a worker or a caller, whose pipeline
    /// still holds its [`Slot`]. Never above [`WorkQueue::slots`].
    running: usize,
    /// Jobs taken off the queue whose [`Slot`] is not yet dropped:
    /// `running`, plus those past their pipeline that are still settling
    /// and answering. [`WorkQueue::wait_idle`] waits for it to reach 0.
    taken: usize,
    /// Cleared by [`WorkQueue::close`]; workers drain and exit.
    open: bool,
    /// Workers parked in `pop`: tests wait for a quiet pool with it.
    #[cfg(test)]
    parked: usize,
}

impl<T> State<T> {
    /// A job is queued and a slot is free for it.
    fn wants_worker(&self, slots: usize) -> bool {
        !self.jobs.is_empty() && self.running < slots
    }
}

/// A multi-producer, multi-consumer FIFO queue.
pub(crate) struct WorkQueue<T> {
    state: Mutex<State<T>>,
    /// Where idle workers park; callers never wait on it.
    available: Condvar,
    /// Where [`WorkQueue::wait_idle`] waits for the last taken job.
    idle: Condvar,
    /// Most jobs the queue holds.
    capacity: usize,
    /// Most jobs running at once, on any thread (≥ 1).
    slots: usize,
}

impl<T> WorkQueue<T> {
    /// A queue bounded to `capacity` queued jobs and `slots` running
    /// ones (clamped to ≥ 1).
    pub(crate) fn new(capacity: usize, slots: usize) -> Self {
        WorkQueue {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                next_id: 0,
                running: 0,
                taken: 0,
                open: true,
                #[cfg(test)]
                parked: 0,
            }),
            available: Condvar::new(),
            idle: Condvar::new(),
            capacity,
            slots: slots.max(1),
        }
    }

    /// Enqueue a job and return the id its submitter takes it back by.
    /// A worker is woken only when `wake` is set or the queue already
    /// held a job; otherwise the job waits for [`WorkQueue::take`] or
    /// [`WorkQueue::nudge`]. Returns the job back if the queue is
    /// closed or at capacity — the caller sheds the load instead of
    /// buffering it.
    pub(crate) fn push(&self, job: T, wake: bool) -> Result<u64, PushError<T>> {
        let mut state = lock(&self.state);
        if !state.open {
            return Err(PushError::Closed(job));
        }
        if state.jobs.len() >= self.capacity {
            return Err(PushError::Full(job));
        }
        let wake = wake || !state.jobs.is_empty();
        let id = state.next_id;
        state.next_id += 1;
        state.jobs.push_back((id, job));
        drop(state);
        if wake {
            self.available.notify_one();
        }
        Ok(id)
    }

    /// Take job `id` back to run it on the calling thread. `None` when a
    /// worker already has it, when every slot is busy (the job stays
    /// queued for a worker) or once the queue is closed (the workers
    /// drain it). A caller refused because a worker has its job is about
    /// to block on that worker: if other jobs are queued behind it — the
    /// rest of a fan-out — and a slot is free, a worker is woken for them.
    pub(crate) fn take(&self, id: u64) -> Option<(T, Slot<'_, T>)> {
        let mut state = lock(&self.state);
        let at = state.jobs.iter().position(|(queued, _)| *queued == id);
        if let Some(at) = at.filter(|_| state.open && state.running < self.slots) {
            let (_, job) = state.jobs.remove(at)?;
            state.running += 1;
            state.taken += 1;
            return Some((job, Slot::new(self)));
        }
        let wake = state.wants_worker(self.slots);
        drop(state);
        if wake {
            self.available.notify_one();
        }
        None
    }

    /// Someone is waiting on a queued job whose submitter may not run it
    /// soon — the ticket was dropped, or another request coalesced onto
    /// it: wake a worker if a job is queued and a slot is free.
    pub(crate) fn nudge(&self) {
        let wake = lock(&self.state).wants_worker(self.slots);
        if wake {
            self.available.notify_one();
        }
    }

    /// A worker's next job: the oldest, once one is queued and a slot is
    /// free, parking until then. Returns `None` only when the queue is
    /// closed *and* fully drained, so no admitted job is ever dropped on
    /// shutdown.
    pub(crate) fn pop(&self) -> Option<(T, Slot<'_, T>)> {
        let mut state = lock(&self.state);
        loop {
            if state.running < self.slots {
                if let Some((_, job)) = state.jobs.pop_front() {
                    state.running += 1;
                    state.taken += 1;
                    return Some((job, Slot::new(self)));
                }
            }
            if !state.open && state.jobs.is_empty() {
                return None;
            }
            #[cfg(test)]
            {
                state.parked += 1;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            #[cfg(test)]
            {
                state.parked -= 1;
            }
        }
    }

    /// Block until `workers` workers are parked in `pop`, so that nothing
    /// but a wake-up can hand them a job.
    #[cfg(test)]
    pub(crate) fn wait_parked(&self, workers: usize) {
        while lock(&self.state).parked < workers {
            std::thread::yield_now();
        }
    }

    /// Close the queue: pending jobs are still drained by `pop`, further
    /// pushes bounce, and idle workers wake up to exit.
    pub(crate) fn close(&self) {
        lock(&self.state).open = false;
        self.available.notify_all();
    }

    /// Block until every job taken off the queue — by a worker or by its
    /// submitter — has dropped its [`Slot`]. After [`WorkQueue::close`]
    /// nothing more can be taken, so this is the moment the last job has
    /// finished.
    pub(crate) fn wait_idle(&self) {
        let mut state = lock(&self.state);
        while state.taken > 0 {
            state = self
                .idle
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// A taken job's hold on the queue: one of its running slots until
/// [`Slot::free`] (the pipeline is over) or the drop, and a job
/// [`WorkQueue::wait_idle`] waits for until the drop (settled and
/// answered). Freeing the slot wakes a worker if jobs are still queued.
pub(crate) struct Slot<'a, T> {
    queue: &'a WorkQueue<T>,
    running: bool,
}

impl<'a, T> Slot<'a, T> {
    fn new(queue: &'a WorkQueue<T>) -> Self {
        Slot {
            queue,
            running: true,
        }
    }

    /// The pipeline is over: give the slot to the next job.
    pub(crate) fn free(&mut self) {
        if self.running {
            self.release(false);
        }
    }

    /// Free the slot if still held and, when `finished`, count the job
    /// out of `taken`.
    fn release(&mut self, finished: bool) {
        let queue = self.queue;
        let mut state = lock(&queue.state);
        let freed = std::mem::take(&mut self.running);
        if freed {
            state.running -= 1;
        }
        let wake = freed && state.wants_worker(queue.slots);
        let mut idle = false;
        if finished {
            state.taken -= 1;
            idle = state.taken == 0 && !state.open;
        }
        drop(state);
        if wake {
            queue.available.notify_one();
        }
        if idle {
            queue.idle.notify_all();
        }
    }
}

impl<T> Drop for Slot<'_, T> {
    fn drop(&mut self) {
        self.release(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    /// Pop a job as a worker and free its slot at once.
    fn pop_one<T>(q: &WorkQueue<T>) -> Option<T> {
        q.pop().map(|(job, _slot)| job)
    }

    /// Take a job back as its caller and free its slot at once.
    fn take_one<T>(q: &WorkQueue<T>, id: u64) -> Option<T> {
        q.take(id).map(|(job, _slot)| job)
    }

    #[test]
    fn pops_in_fifo_order() {
        let q: WorkQueue<u32> = WorkQueue::new(usize::MAX, 1);
        for v in [1, 2, 3] {
            q.push(v, true).unwrap();
        }
        assert_eq!(pop_one(&q), Some(1));
        assert_eq!(pop_one(&q), Some(2));
        assert_eq!(pop_one(&q), Some(3));
    }

    /// The popper parks on an empty queue and is woken by the push: the
    /// channel proves it had not returned before the push happened.
    #[test]
    fn pop_blocks_until_push() {
        let q: Arc<WorkQueue<u32>> = Arc::new(WorkQueue::new(usize::MAX, 1));
        let (tx, rx) = channel();
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let got = pop_one(&q);
                tx.send(got).unwrap();
            })
        };
        assert!(
            rx.recv_timeout(std::time::Duration::from_millis(30))
                .is_err(),
            "pop returned with nothing queued"
        );
        q.push(99, true).unwrap();
        assert_eq!(rx.recv().unwrap(), Some(99));
        popper.join().unwrap();
    }

    /// A job pushed without a wake onto an empty queue is its
    /// submitter's: a parked worker stays parked, the submitter takes it
    /// back, and only one job behind another wakes a worker.
    #[test]
    fn a_lone_job_waits_for_its_submitter() {
        let q: Arc<WorkQueue<u32>> = Arc::new(WorkQueue::new(usize::MAX, 2));
        let (tx, rx) = channel();
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                while let Some(job) = pop_one(&q) {
                    tx.send(job).unwrap();
                }
            })
        };
        q.wait_parked(1);
        let mine = q.push(1, false).unwrap();
        assert!(
            rx.recv_timeout(std::time::Duration::from_millis(30))
                .is_err(),
            "a worker was woken for a lone job"
        );
        assert_eq!(take_one(&q, mine), Some(1));
        assert_eq!(take_one(&q, mine), None, "taken once");
        // A burst: the second push finds the first queued and wakes.
        q.push(2, false).unwrap();
        q.push(3, false).unwrap();
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
        // A nudge (a dropped ticket, a coalesced request) wakes one too.
        q.wait_parked(1);
        q.push(4, false).unwrap();
        q.nudge();
        assert_eq!(rx.recv().unwrap(), 4);
        q.close();
        worker.join().unwrap();
    }

    /// A fan-out of two on two slots keeps both busy: the second push
    /// wakes a worker, which pops the first job; the caller, refused its
    /// own job, wakes the other worker for the second instead of leaving
    /// it queued behind the first.
    #[test]
    fn a_caller_refused_its_job_wakes_a_worker_for_the_rest() {
        let q: Arc<WorkQueue<u32>> = Arc::new(WorkQueue::new(usize::MAX, 2));
        let (tx, rx) = channel();
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (q, tx) = (Arc::clone(&q), tx.clone());
                std::thread::spawn(move || {
                    // Hold the slot until the test has seen both jobs.
                    while let Some((job, slot)) = q.pop() {
                        let (done, hold) = channel::<()>();
                        tx.send((job, done)).unwrap();
                        let _ = hold.recv();
                        drop(slot);
                    }
                })
            })
            .collect();
        q.wait_parked(2);
        let first = q.push(1, false).unwrap();
        q.push(2, false).unwrap();
        let (job, first_done) = rx.recv().unwrap();
        assert_eq!(job, 1);
        assert!(take_one(&q, first).is_none(), "a worker has it");
        let (job, second_done) = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the second job was left queued behind the first");
        assert_eq!(job, 2);
        drop((first_done, second_done));
        q.close();
        for worker in workers {
            worker.join().unwrap();
        }
    }

    /// `wait_idle` outlasts a job its caller took: freeing the slot is not
    /// enough, the drop is.
    #[test]
    fn wait_idle_waits_for_taken_jobs() {
        let q: Arc<WorkQueue<u32>> = Arc::new(WorkQueue::new(usize::MAX, 1));
        let mine = q.push(1, false).unwrap();
        let (_, mut slot) = q.take(mine).unwrap();
        slot.free();
        assert_eq!(lock(&q.state).running, 0);
        q.close();
        let (tx, rx) = channel();
        let stopper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                q.wait_idle();
                tx.send(()).unwrap();
            })
        };
        assert!(
            rx.recv_timeout(std::time::Duration::from_millis(30))
                .is_err(),
            "wait_idle returned while a taken job was still running"
        );
        drop(slot);
        rx.recv().unwrap();
        stopper.join().unwrap();
    }

    /// `slots` bounds running jobs across workers and callers: a caller
    /// is refused while every slot is busy (its job stays queued), and
    /// dropping a slot frees it.
    #[test]
    fn slots_bound_workers_and_callers_together() {
        let q: WorkQueue<u32> = WorkQueue::new(usize::MAX, 1);
        let a = q.push(1, false).unwrap();
        let b = q.push(2, false).unwrap();
        let (job, slot) = q.take(a).unwrap();
        assert_eq!(job, 1);
        assert_eq!(take_one(&q, b), None, "the one slot is busy");
        drop(slot);
        assert_eq!(take_one(&q, b), Some(2), "the slot is free again");
        assert_eq!(lock(&q.state).running, 0);
        // Closed: callers leave their jobs to the draining workers.
        let c = q.push(3, false).unwrap();
        q.close();
        assert_eq!(take_one(&q, c), None);
        assert_eq!(pop_one(&q), Some(3));
        assert_eq!(pop_one(&q), None);
    }

    /// A worker woken while a caller holds the only slot stays parked
    /// until the slot is dropped.
    #[test]
    fn a_worker_waits_for_a_free_slot() {
        let q: Arc<WorkQueue<u32>> = Arc::new(WorkQueue::new(usize::MAX, 1));
        let (tx, rx) = channel();
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                while let Some(job) = pop_one(&q) {
                    tx.send(job).unwrap();
                }
            })
        };
        q.wait_parked(1);
        let mine = q.push(1, false).unwrap();
        let (_, slot) = q.take(mine).unwrap();
        q.push(2, true).unwrap();
        assert!(
            rx.recv_timeout(std::time::Duration::from_millis(30))
                .is_err(),
            "a worker ran past the slot bound"
        );
        drop(slot);
        assert_eq!(rx.recv().unwrap(), 2);
        q.close();
        worker.join().unwrap();
    }

    #[test]
    fn close_drains_then_returns_none() {
        let q: WorkQueue<u32> = WorkQueue::new(usize::MAX, 1);
        q.push(1, true).unwrap();
        q.push(2, true).unwrap();
        q.close();
        assert_eq!(
            q.push(3, true),
            Err(PushError::Closed(3)),
            "pushes bounce after close"
        );
        // Already-admitted jobs are still drained, in order.
        assert_eq!(pop_one(&q), Some(1));
        assert_eq!(pop_one(&q), Some(2));
        assert_eq!(pop_one(&q), None);
        // Parked workers wake up and exit on close.
        let open: Arc<WorkQueue<u32>> = Arc::new(WorkQueue::new(usize::MAX, 2));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&open);
                std::thread::spawn(move || pop_one(&q))
            })
            .collect();
        open.close();
        for w in workers {
            assert_eq!(w.join().unwrap(), None);
        }
    }

    #[test]
    fn full_at_exactly_capacity() {
        let q: WorkQueue<u32> = WorkQueue::new(4, 1);
        for v in 0..4 {
            q.push(v, true).unwrap();
        }
        assert_eq!(q.push(99, true), Err(PushError::Full(99)));
        // Draining one slot makes room again.
        assert_eq!(pop_one(&q), Some(0));
        q.push(99, true).unwrap();
        assert_eq!(q.push(100, true), Err(PushError::Full(100)));
    }

    /// Hammer the queue from many producers and consumers: every pushed
    /// job is popped exactly once.
    #[test]
    fn concurrent_push_pop_loses_nothing() {
        let q: Arc<WorkQueue<u64>> = Arc::new(WorkQueue::new(usize::MAX, 4));
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 500;
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = pop_one(&q) {
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
                        q.push(p * PER_PRODUCER + i, true).unwrap();
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
