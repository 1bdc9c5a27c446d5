//! The one cross-thread wait primitive: poll, yield, and only then sleep.
//!
//! Every hand-off in the repository — rank ↔ rank at the fabric barrier,
//! session → rank at a request queue, rank → session at a ticket — is one
//! thread waiting for a condition another thread is about to make true.
//! Sleeping for it is the expensive way to wait: on the 2-vCPU host the
//! benchmark runs on, a polled cache line crosses cores in 0.25 µs while
//! waking a thread that sleeps costs 15–20 µs (condvar ping-pong 29–31 µs
//! per round trip), and most of these waits end within a microsecond or
//! two. Spinning for it is the wrong cheap way: with more runnable
//! threads than cores a spinner holds the core its peer needs (three
//! busy threads on two cores ran *slower* than sleeping did).
//!
//! [`WakeSource::wait_until`] therefore waits in three phases:
//!
//! 1. **poll** the condition once — the common case under load;
//! 2. **yield** the core (`thread::yield_now`) and re-poll, for a bounded
//!    number of rounds (`YIELD_ROUNDS`). On a host with an idle core the
//!    yield returns at once (≈ 0.2 µs) and the phase is a polite poll
//!    lasting about one wake; on an oversubscribed host each yield hands
//!    the core to whoever is runnable — usually the peer being waited
//!    for — and the waiter burns nothing while it is off the core.
//!    Spending one wake's cost before sleeping is the competitive rule of
//!    Karlin, Li, Manasse & Owicki (SOSP '91): never worse than twice the
//!    better of "always sleep" and "never sleep";
//! 3. **sleep** on a condvar, registered as a sleeper, until notified. A
//!    sleep is cut into naps of at most [`SAFETY_TIMEOUT`]; a nap that
//!    ends re-checks the condition and goes straight back to sleep, so a
//!    long wait (an idle server) yields once at its start and costs no
//!    CPU after.
//!
//! [`WakeSource::notify`] makes a system call only when a sleeper is
//! registered: an unwaited notify is one fence and one load.
//!
//! ## Why no wake is lost
//!
//! The notifier *publishes* (makes the condition true with a store of at
//! least `Release` strength), then calls `notify`; the waiter *registers*,
//! then re-checks the condition. Both sides are "store, `SeqCst` fence,
//! load" on crossed locations (Dekker's pattern):
//!
//! ```text
//! waiter                               notifier
//!   sleepers += 1                        condition := true
//!   fence(SeqCst)            F_w         fence(SeqCst)            F_n
//!   lock; check condition                if sleepers != 0 { lock; unlock; notify_all }
//! ```
//!
//! The two fences are totally ordered. If `F_n` comes first, the waiter's
//! check (sequenced after `F_w`) observes the published condition and
//! never sleeps. If `F_w` comes first, the notifier's load (sequenced
//! after `F_n`) observes the registration and takes the lock; the waiter
//! holds that lock from its check until the condvar has atomically
//! released it, so the notifier gets it either before the check (which
//! then sees the condition — the lock orders it) or after the waiter is
//! parked (and `notify_all` wakes it). [`SAFETY_TIMEOUT`] is not part of
//! this argument: it bounds the damage of a caller that publishes without
//! notifying, and turns such a bug into a visible stall instead of a hang.

use std::sync::atomic::{fence, AtomicU32, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Yields before a waiter sleeps. A yield that finds nothing else to run
/// costs ≈ 0.2 µs, so 100 rounds of useless yielding are ≈ 20 µs — one
/// measured wake (15–20 µs on the benchmark host), which is what the
/// competitive rule says to spend. Counted in rounds, not time, on
/// purpose: a yield that *does* run a peer is progress, not waste, and
/// must not use up the budget (a 20 µs time budget measured the same
/// 790 k ops/s on `oltp_read_mostly` until the ranks got 5 % faster, then
/// lost 4 % because waiters fell asleep sooner). `oltp_read_mostly` at
/// 25 / 60 / 100 / 160 / 400 rounds: 655 k / 730 k / 790 k / 770 k /
/// 720 k ops/s. A constant, not an option — the rule's guarantee holds
/// for any value near the wake cost, and nothing a deployment knows about
/// itself would pick a better one.
const YIELD_ROUNDS: u32 = 100;

/// Longest single nap of a sleeping waiter: the bound on how long a waiter
/// can outlive its condition if a notifier forgot to notify.
pub const SAFETY_TIMEOUT: Duration = Duration::from_secs(1);

/// A place threads wait for conditions that other threads make true.
///
/// The source knows nothing about the condition: callers keep it in their
/// own atomics, pass a closure that reads them, and call
/// [`WakeSource::notify`] after every store that can make a waiter's
/// closure true.
#[derive(Debug, Default)]
pub struct WakeSource {
    /// Waiters in (or entering) the sleep phase.
    sleepers: AtomicU32,
    lock: Mutex<()>,
    cv: Condvar,
}

impl WakeSource {
    pub const fn new() -> Self {
        Self {
            sleepers: AtomicU32::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Wait until `cond()` holds. `cond` runs on the caller's thread, in
    /// the sleep phase under this source's lock: it must be cheap, must
    /// not panic, and must not notify this source.
    pub fn wait_until(&self, mut cond: impl FnMut() -> bool) {
        if cond() {
            return;
        }
        for _ in 0..YIELD_ROUNDS {
            std::thread::yield_now();
            if cond() {
                return;
            }
        }
        // register, fence, re-check under the lock: the waiter's half of
        // the protocol in the module docs
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        while !cond() {
            guard = self
                .cv
                .wait_timeout(guard, SAFETY_TIMEOUT)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        drop(guard);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wake every sleeping waiter so it re-checks its condition. Call
    /// after publishing; costs a fence and a load when nobody sleeps.
    pub fn notify(&self) {
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) != 0 {
            // taking the lock orders this wake after a waiter's
            // check-then-park (see the module docs)
            drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
            self.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn already_true_returns_without_waiting() {
        let src = WakeSource::new();
        let mut polls = 0;
        src.wait_until(|| {
            polls += 1;
            true
        });
        assert_eq!(polls, 1);
        assert_eq!(src.sleepers.load(Ordering::SeqCst), 0);
    }

    /// The condition turns true during the yield rounds: caught there,
    /// without ever registering as a sleeper. (The closure flips it on
    /// its third poll, so the exit is in that phase on any host.)
    #[test]
    fn becomes_true_while_yielding() {
        let src = WakeSource::new();
        let flag = AtomicBool::new(false);
        let mut polls = 0;
        src.wait_until(|| {
            polls += 1;
            if polls == 3 {
                flag.store(true, Ordering::Release);
            }
            flag.load(Ordering::Acquire)
        });
        assert_eq!(polls, 3);
        assert_eq!(src.sleepers.load(Ordering::SeqCst), 0);
    }

    /// The condition turns true long after the yield rounds: the waiter
    /// is asleep and the notify must wake it well before a safety nap
    /// would.
    #[test]
    fn becomes_true_while_sleeping() {
        let src = Arc::new(WakeSource::new());
        let flag = Arc::new(AtomicBool::new(false));
        let publisher = {
            let (src, flag) = (src.clone(), flag.clone());
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                flag.store(true, Ordering::Release);
                src.notify();
            })
        };
        let t0 = Instant::now();
        src.wait_until(|| flag.load(Ordering::Acquire));
        let waited = t0.elapsed();
        publisher.join().unwrap();
        assert!(waited >= Duration::from_millis(20), "{waited:?}");
        assert!(waited < SAFETY_TIMEOUT / 2, "woken by a nap: {waited:?}");
        assert_eq!(src.sleepers.load(Ordering::SeqCst), 0);
    }

    /// A publish without a notify is a caller bug; the safety nap bounds
    /// what it costs.
    #[test]
    fn safety_nap_bounds_a_missing_notify() {
        let src = Arc::new(WakeSource::new());
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = flag.clone();
        let publisher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            f2.store(true, Ordering::Release); // no notify
        });
        let t0 = Instant::now();
        src.wait_until(|| flag.load(Ordering::Acquire));
        publisher.join().unwrap();
        assert!(t0.elapsed() < SAFETY_TIMEOUT * 3);
    }

    #[test]
    fn notify_without_sleepers_touches_nothing() {
        let src = WakeSource::new();
        // holding the lock would deadlock a notify that took it
        let _guard = src.lock.lock().unwrap();
        src.notify();
    }
}
