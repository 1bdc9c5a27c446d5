//! A poisonable barrier.
//!
//! `std::sync::Barrier` deadlocks the whole fabric if one rank panics while
//! the others wait (the panicking thread never arrives). This barrier adds
//! MPI-abort-like semantics: a panicking rank *poisons* the barrier, which
//! wakes every waiter with a panic of its own, so the failure propagates to
//! the test/benchmark harness instead of hanging it.
//!
//! Arrival is one atomic counter and a generation word; waiting is
//! [`WakeSource::wait_until`] on the generation, so ranks that arrive
//! within a few microseconds of each other — every collective of a
//! balanced kernel — pass without a system call, and a rank that waits
//! long sleeps.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use crate::wait::WakeSource;

/// A reusable N-party barrier that can be poisoned.
#[derive(Debug)]
pub struct PoisonBarrier {
    n: usize,
    /// Parties that arrived in the current generation.
    arrived: AtomicUsize,
    /// Completed generations; waiters wait for it to move.
    generation: AtomicU64,
    poisoned: AtomicBool,
    wake: WakeSource,
}

impl PoisonBarrier {
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        Self {
            n,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            wake: WakeSource::new(),
        }
    }

    /// Wait for all parties. Panics if the barrier is (or becomes)
    /// poisoned.
    pub fn wait(&self) {
        self.check_poison();
        // read before arriving: the generation cannot move until this
        // party has arrived too
        let my_gen = self.generation.load(Ordering::Acquire);
        // AcqRel: the arrivals form one release sequence, so the last
        // arriver has every party's earlier writes and hands them on
        // through the generation store below
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // reset before releasing: nobody re-arrives until the
            // generation moves
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(my_gen + 1, Ordering::Release);
            self.wake.notify();
            return;
        }
        self.wake.wait_until(|| {
            self.generation.load(Ordering::Acquire) != my_gen
                || self.poisoned.load(Ordering::Acquire)
        });
        self.check_poison();
    }

    fn check_poison(&self) {
        if self.poisoned.load(Ordering::Acquire) {
            panic!("fabric barrier poisoned: a peer rank panicked");
        }
    }

    /// Poison the barrier, waking all current and future waiters with a
    /// panic.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.wake.notify();
    }

    /// Has the barrier been poisoned?
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_synchronization() {
        let b = Arc::new(PoisonBarrier::new(4));
        let counter = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let b = b.clone();
                let c = counter.clone();
                s.spawn(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                    b.wait();
                    // all increments must be visible after the barrier
                    assert_eq!(c.load(Ordering::SeqCst), 4);
                    b.wait();
                });
            }
        });
    }

    #[test]
    fn reusable_across_generations() {
        let b = Arc::new(PoisonBarrier::new(2));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let b = b.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        b.wait();
                    }
                });
            }
        });
    }

    #[test]
    fn poison_wakes_waiters() {
        let b = Arc::new(PoisonBarrier::new(2));
        let waiter = {
            let b = b.clone();
            std::thread::spawn(move || {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.wait()));
                r.is_err()
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        b.poison();
        assert!(waiter.join().unwrap(), "waiter must observe the poison");
        assert!(b.is_poisoned());
    }

    /// Poison must reach a waiter wherever it is: still polling (poison
    /// right behind its arrival), yielding (a few µs in) or asleep (long
    /// after the yield rounds) — and well before a safety nap would.
    #[test]
    fn poison_reaches_every_phase_of_a_wait() {
        for delay in [0u64, 5, 50_000] {
            let b = Arc::new(PoisonBarrier::new(2));
            let arriving = Arc::new(AtomicBool::new(false));
            let waiter = {
                let (b, arriving) = (b.clone(), arriving.clone());
                std::thread::spawn(move || {
                    arriving.store(true, Ordering::Release);
                    let t0 = std::time::Instant::now();
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.wait()));
                    (r.is_err(), t0.elapsed())
                })
            };
            while !arriving.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            let t0 = std::time::Instant::now();
            while t0.elapsed() < std::time::Duration::from_micros(delay) {
                std::hint::spin_loop();
            }
            b.poison();
            let (panicked, waited) = waiter.join().unwrap();
            assert!(panicked, "poison {delay} µs in: the waiter returned");
            assert!(
                waited < crate::wait::SAFETY_TIMEOUT / 2,
                "poison {delay} µs in: seen after {waited:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "poisoned")]
    fn wait_after_poison_panics() {
        let b = PoisonBarrier::new(1);
        b.poison();
        b.wait();
    }
}
