//! Bounded MPSC request queues: many client sessions push, one serving
//! rank drains. The bound is the admission-control surface — a full queue
//! either blocks the submitter (backpressure) or rejects the request,
//! depending on the server's [`crate::AdmissionPolicy`].
//!
//! The items sit in a `Mutex<VecDeque>` whose critical sections are O(1):
//! a push appends one item, a drain *swaps* the whole deque with the
//! (empty) batch buffer the serve loop owns, so neither side allocates in
//! steady state and neither holds the lock while the other's work runs.
//! Nobody waits on that mutex for long and nobody sleeps on it: the
//! drainer and blocked producers wait on two [`WakeSource`]s (poll, yield,
//! then sleep — see `rma::wait`), so a push makes no system call unless
//! the drainer is asleep.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use parking_lot::Mutex;
use rma::WakeSource;

/// A blocking bounded MPSC queue.
pub(crate) struct BoundedQueue<T> {
    items: Mutex<VecDeque<T>>,
    /// `items.len()`, stored under the lock so waiters can poll it
    /// without taking the lock.
    len: AtomicUsize,
    /// Set under the lock: a push either lands before the close (and is
    /// drained) or is refused.
    closed: AtomicBool,
    cap: usize,
    /// The drainer waits here; pushes, [`BoundedQueue::close`] and
    /// [`BoundedQueue::wake`] signal it.
    ready: WakeSource,
    /// Producers blocked on a full queue wait here; drains and close
    /// signal it.
    space: WakeSource,
}

/// Why a push did not take effect.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushError<T> {
    /// Queue at capacity (admission control: retry or shed).
    Full(T),
    /// Queue closed by shutdown: the request was not accepted.
    Closed(T),
}

impl<T> BoundedQueue<T> {
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "queue capacity must be positive");
        Self {
            items: Mutex::new(VecDeque::with_capacity(cap.min(1024))),
            len: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            cap,
            ready: WakeSource::new(),
            space: WakeSource::new(),
        }
    }

    /// Non-blocking push; fails when full or closed.
    pub fn try_push(&self, t: T) -> Result<(), PushError<T>> {
        let mut g = self.items.lock();
        if self.closed.load(Ordering::Relaxed) {
            return Err(PushError::Closed(t));
        }
        if g.len() >= self.cap {
            return Err(PushError::Full(t));
        }
        g.push_back(t);
        self.len.store(g.len(), Ordering::Release);
        drop(g);
        self.ready.notify();
        Ok(())
    }

    /// Blocking push: waits while the queue is full (backpressure). Fails
    /// only if the queue closes while waiting.
    pub fn push_wait(&self, mut t: T) -> Result<(), PushError<T>> {
        loop {
            match self.try_push(t) {
                Err(PushError::Full(back)) => t = back,
                done => return done,
            }
            self.space.wait_until(|| {
                self.len.load(Ordering::Acquire) < self.cap || self.closed.load(Ordering::Acquire)
            });
        }
    }

    /// Wait until the queue is non-empty or closed, or `also()` holds;
    /// then move up to `max` queued items to the back of `batch`. Returns
    /// whether the queue is closed (a closed queue is still drained until
    /// empty). `also` is the drainer's other reason to get up; whoever
    /// makes it true calls [`BoundedQueue::wake`].
    pub fn drain_wait(
        &self,
        batch: &mut VecDeque<T>,
        max: usize,
        mut also: impl FnMut() -> bool,
    ) -> bool {
        self.ready.wait_until(|| {
            self.len.load(Ordering::Acquire) > 0 || self.closed.load(Ordering::Acquire) || also()
        });
        let mut g = self.items.lock();
        let closed = self.closed.load(Ordering::Relaxed);
        let took = g.len().min(max);
        if took == g.len() && batch.is_empty() {
            // the common case: hand the whole deque over and leave the
            // caller's empty one (and its capacity) behind
            std::mem::swap(&mut *g, batch);
        } else {
            batch.extend(g.drain(..took));
        }
        self.len.store(g.len(), Ordering::Release);
        drop(g);
        if took > 0 {
            self.space.notify();
        }
        closed
    }

    /// Make the drainer re-check its `also` condition.
    pub fn wake(&self) {
        self.ready.notify();
    }

    /// Close the queue: submitters fail fast, the drainer keeps going
    /// until empty.
    pub fn close(&self) {
        {
            let _g = self.items.lock();
            self.closed.store(true, Ordering::Release);
        }
        self.ready.notify();
        self.space.notify();
    }

    /// Current depth (admission metrics).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// One drain into a fresh batch: `(items, closed)`.
    fn drain<T>(q: &BoundedQueue<T>, max: usize) -> (Vec<T>, bool) {
        let mut batch = VecDeque::new();
        let closed = q.drain_wait(&mut batch, max, || false);
        (batch.into(), closed)
    }

    #[test]
    fn bounded_push_and_drain() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.len(), 2);
        let (batch, closed) = drain(&q, 10);
        assert_eq!(batch, vec![1, 2]);
        assert!(!closed);
        assert_eq!(q.len(), 0);
    }

    /// `max` caps a drain, FIFO order survives both the swap and the
    /// partial path, and a non-empty batch buffer is appended to.
    #[test]
    fn drain_respects_max_and_order() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let mut batch = VecDeque::new();
        q.drain_wait(&mut batch, 2, || false);
        assert_eq!(batch, [0, 1]);
        assert_eq!(q.len(), 3);
        q.drain_wait(&mut batch, 8, || false);
        assert_eq!(batch, [0, 1, 2, 3, 4]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn close_rejects_and_drains_remaining() {
        let q = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(PushError::Closed(8)));
        assert_eq!(q.push_wait(9), Err(PushError::Closed(9)));
        let (batch, closed) = drain(&q, 10);
        assert_eq!(batch, vec![7]);
        assert!(closed);
    }

    #[test]
    fn blocking_push_applies_backpressure() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(0u64).unwrap();
        let q2 = q.clone();
        let pusher = std::thread::spawn(move || q2.push_wait(1).is_ok());
        // the pusher must be blocked until we drain
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 1, "push_wait overran the bound");
        let (b1, _) = drain(&q, 1);
        assert_eq!(b1, vec![0]);
        assert!(pusher.join().unwrap());
        let (b2, _) = drain(&q, 1);
        assert_eq!(b2, vec![1]);
    }

    /// A close releases a producer blocked on a full queue.
    #[test]
    fn close_unblocks_a_blocked_producer() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(0u64).unwrap();
        let q2 = q.clone();
        let pusher = std::thread::spawn(move || q2.push_wait(1));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(pusher.join().unwrap(), Err(PushError::Closed(1)));
    }

    /// Regression: a spurious (or unrelated) wakeup used to be treated as
    /// a timeout, returning an empty batch early. `drain_wait` must keep
    /// waiting until an item arrives.
    #[test]
    fn drain_wait_survives_spurious_wakeups() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let q2 = q.clone();
        let waker = std::thread::spawn(move || {
            // wakes with nothing enqueued (models a spurious wake)
            for _ in 0..3 {
                std::thread::sleep(Duration::from_millis(5));
                q2.wake();
            }
            std::thread::sleep(Duration::from_millis(5));
            q2.try_push(42).unwrap();
        });
        let (batch, closed) = drain(&q, 8);
        waker.join().unwrap();
        assert_eq!(batch, vec![42], "woke early without an item");
        assert!(!closed);
    }

    /// The drainer's other reason to get up: `wake` after `also` turned
    /// true ends the wait with an empty batch.
    #[test]
    fn wake_ends_the_wait_once_also_holds() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let flag = Arc::new(AtomicBool::new(false));
        let (q2, f2) = (q.clone(), flag.clone());
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            f2.store(true, Ordering::Release);
            q2.wake();
        });
        let t0 = Instant::now();
        let mut batch = VecDeque::new();
        let closed = q.drain_wait(&mut batch, 8, || flag.load(Ordering::Acquire));
        waker.join().unwrap();
        assert!(batch.is_empty() && !closed);
        assert!(
            t0.elapsed() < rma::wait::SAFETY_TIMEOUT / 2,
            "missed the wake"
        );
    }

    /// A close while waiting still wakes the drainer promptly.
    #[test]
    fn drain_wait_wakes_on_close() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let q2 = q.clone();
        let closer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            q2.close();
        });
        let t0 = Instant::now();
        let (batch, closed) = drain(&q, 8);
        closer.join().unwrap();
        assert!(batch.is_empty());
        assert!(closed);
        assert!(
            t0.elapsed() < rma::wait::SAFETY_TIMEOUT / 2,
            "missed the close"
        );
    }

    /// Eight producers push 10 000 numbered items each through a small
    /// queue (so they block on it constantly) while it is drained in
    /// small bites and closed mid-stream. What comes out is, per
    /// producer, exactly the pushes that were accepted, in order: nothing
    /// lost, nothing twice, nothing overtaking.
    #[test]
    fn racing_close_keeps_fifo_and_loses_nothing() {
        const PRODUCERS: usize = 8;
        const ITEMS: u32 = 10_000;
        let q: BoundedQueue<(usize, u32)> = BoundedQueue::new(64);
        let (accepted, drained) = std::thread::scope(|s| {
            let q = &q;
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    s.spawn(move || {
                        for seq in 0..ITEMS {
                            if q.push_wait((p, seq)).is_err() {
                                return seq;
                            }
                        }
                        ITEMS
                    })
                })
                .collect();
            let drainer = s.spawn(move || {
                let mut next = [0u32; PRODUCERS];
                let mut batch = VecDeque::new();
                let mut total = 0u32;
                loop {
                    let closed = q.drain_wait(&mut batch, 16, || false);
                    if closed && batch.is_empty() {
                        return next;
                    }
                    assert!(batch.len() <= 16 && q.len() <= 64);
                    for (p, seq) in batch.drain(..) {
                        assert_eq!(seq, next[p], "producer {p} out of order");
                        next[p] += 1;
                        total += 1;
                    }
                    if total >= ITEMS * PRODUCERS as u32 / 2 {
                        q.close();
                    }
                }
            });
            let accepted: Vec<u32> = producers.into_iter().map(|p| p.join().unwrap()).collect();
            (accepted, drainer.join().unwrap())
        });
        assert_eq!(accepted, drained, "accepted pushes vs drained items");
        assert!(
            accepted.iter().any(|&n| n < ITEMS),
            "the close came too late"
        );
    }

    /// `Block` admission parks: a producer stuck on a full queue for half
    /// a second yields a few µs and then sleeps — at most 2 clock ticks
    /// (20 ms) of CPU, where a spinning producer would burn all 50.
    #[cfg(target_os = "linux")]
    #[test]
    fn blocked_producer_parks_instead_of_spinning() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(0u64).unwrap();
        let (tid_tx, tid_rx) = std::sync::mpsc::channel();
        let q2 = q.clone();
        let pusher = std::thread::spawn(move || {
            let me = std::fs::read_link("/proc/thread-self").unwrap();
            tid_tx.send(me.file_name().unwrap().to_owned()).unwrap();
            q2.push_wait(1).is_ok()
        });
        let tid = tid_rx.recv().unwrap();
        let cpu_ticks = || {
            let path = std::path::Path::new("/proc/self/task")
                .join(&tid)
                .join("stat");
            let stat = std::fs::read_to_string(path).unwrap();
            // utime and stime: fields 14 and 15, counted past the
            // parenthesised command name
            let fields: Vec<&str> = stat
                .rsplit_once(')')
                .unwrap()
                .1
                .split_whitespace()
                .collect();
            fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
        };
        std::thread::sleep(Duration::from_millis(20));
        let before = cpu_ticks();
        std::thread::sleep(Duration::from_millis(500));
        let used = cpu_ticks() - before;
        assert_eq!(q.len(), 1, "the producer got past the bound");
        assert!(used <= 2, "a blocked producer used {used} ticks");
        let (b, _) = drain(&q, 1);
        assert_eq!(b, vec![0]);
        assert!(pusher.join().unwrap());
    }
}
