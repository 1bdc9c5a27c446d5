//! Real-thread tests of the hand-off primitives (`rma::wait`,
//! `rma::barrier`): torture runs that would expose a lost wake, an
//! oversubscribed barrier that a spin-only design livelocks on, and a
//! property test over notify/wait interleavings.
//!
//! A lost wake does not hang these tests — a sleeping waiter re-checks
//! its condition after [`SAFETY_TIMEOUT`] — it shows as one hand-off that
//! took a second. Every test therefore gates on the *slowest* hand-off,
//! with a bound far above scheduling noise and far below that nap.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rma::wait::SAFETY_TIMEOUT;
use rma::{PoisonBarrier, WakeSource};

/// Slowest tolerated hand-off.
const STALL: Duration = Duration::from_millis(50);

/// How long a deliberately late party stays away: long enough for its
/// peers to use up their yield rounds and fall asleep.
const LATE: Duration = Duration::from_micros(100);

/// `parties` threads cross one barrier `generations` times. Returns the
/// slowest single wait *of a party that was not itself made to wait by a
/// latecomer*: parties that arrive together pass in the poll or yield
/// phase, so every 512 generations one party (in turn) sleeps [`LATE`]
/// first — its peers go to sleep on the barrier and the latecomer's
/// arrival has to wake them. Between waits every thread bumps a shared
/// counter, and checks after each wait that all of the generation's
/// bumps are visible — the barrier's memory-ordering contract.
fn cross_barrier(parties: usize, generations: u64) -> Duration {
    let barrier = PoisonBarrier::new(parties);
    let bumps = AtomicU64::new(0);
    let slowest = std::thread::scope(|s| {
        let threads: Vec<_> = (0..parties)
            .map(|me| {
                let (barrier, bumps) = (&barrier, &bumps);
                s.spawn(move || {
                    let mut slowest = Duration::ZERO;
                    for g in 1..=generations {
                        bumps.fetch_add(1, Ordering::Relaxed);
                        let late_party = (g % 512 == 0).then_some((g / 512) as usize % parties);
                        if late_party == Some(me) {
                            std::thread::sleep(LATE);
                        }
                        let t0 = Instant::now();
                        barrier.wait();
                        // a wake that works costs the sleepers tens of
                        // µs on top of the latecomer's nap; a lost one,
                        // a second
                        let waited = t0.elapsed();
                        let excused = if late_party.is_some() {
                            LATE * 4
                        } else {
                            Duration::ZERO
                        };
                        slowest = slowest.max(waited.saturating_sub(excused));
                        // everyone's bump of this generation, and at most
                        // the early birds' of the next
                        let seen = bumps.load(Ordering::Relaxed);
                        let all = g * parties as u64;
                        assert!(
                            (all..all + parties as u64).contains(&seen),
                            "generation {g}: saw {seen} bumps, expected {all}.."
                        );
                    }
                    slowest
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("barrier thread panicked"))
            .max()
            .expect("at least one party")
    });
    assert_eq!(bumps.load(Ordering::Relaxed), generations * parties as u64);
    slowest
}

/// Hand-off torture: two threads, 200 000 generations. The two mostly
/// arrive within a microsecond of each other (poll and yield phases) and
/// 390 times one of them is late enough for the other to sleep.
#[test]
fn two_party_barrier_never_stalls() {
    let t0 = Instant::now();
    let slowest = cross_barrier(2, 200_000);
    assert!(slowest < STALL, "a barrier wait took {slowest:?}");
    assert!(t0.elapsed() < Duration::from_secs(60), "{:?}", t0.elapsed());
}

/// Oversubscription: eight parties on however few cores. Waiters that
/// only spun would hold the cores the late arrivers need; here they yield
/// them. CI runs this under `taskset -c 0` as well.
#[test]
fn eight_party_barrier_on_few_cores() {
    let t0 = Instant::now();
    let slowest = cross_barrier(8, 10_000);
    assert!(slowest < SAFETY_TIMEOUT / 2, "a wait took {slowest:?}");
    assert!(t0.elapsed() < Duration::from_secs(60), "{:?}", t0.elapsed());
}

/// Short pauses busy-wait: a few µs must land in the poll or yield phase
/// of a peer's wait, which a sleep's granularity would not allow. Long
/// ones sleep: a waiter only uses up its yield rounds and falls asleep
/// when the cores have nothing else to run.
fn pause(us: u64) {
    if us >= 100 {
        std::thread::sleep(Duration::from_micros(us));
        return;
    }
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_micros(us) {
        std::hint::spin_loop();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One publisher, one to three waiters, one wake source. The
    /// publisher pauses a random 0–400 µs before each publish and the
    /// waiters think a random 0–400 µs between waits, so publishes land
    /// before the wait, in its poll, in its yield phase (≈ 20 µs) and in
    /// its sleep. No waiter may see a generation
    /// later than half a safety nap after it was published: a lost wake
    /// would take a whole one.
    #[test]
    fn no_waiter_outlives_its_condition(
        waiters in 1usize..4,
        gaps_us in prop::collection::vec(0u64..400, 1..40),
        think_us in prop::collection::vec(0u64..400, 1..8),
    ) {
        let src = WakeSource::new();
        let generation = AtomicU64::new(0);
        let t0 = Instant::now();
        // when each generation was published, ns since t0
        let published: Vec<AtomicU64> = gaps_us.iter().map(|_| AtomicU64::new(0)).collect();
        let slowest = std::thread::scope(|s| {
            s.spawn(|| {
                for (g, &gap) in gaps_us.iter().enumerate() {
                    pause(gap);
                    published[g].store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    generation.store(g as u64 + 1, Ordering::Release);
                    src.notify();
                }
            });
            let threads: Vec<_> = (0..waiters)
                .map(|w| {
                    let (src, generation, published, think_us) =
                        (&src, &generation, &published, &think_us);
                    s.spawn(move || {
                        let mut slowest = 0u64;
                        for g in 0..published.len() {
                            pause(think_us[(g + w) % think_us.len()]);
                            src.wait_until(|| generation.load(Ordering::Acquire) > g as u64);
                            let now = t0.elapsed().as_nanos() as u64;
                            let late = now.saturating_sub(published[g].load(Ordering::Relaxed));
                            slowest = slowest.max(late);
                        }
                        slowest
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("waiter panicked"))
                .max()
                .expect("at least one waiter")
        });
        prop_assert!(
            Duration::from_nanos(slowest) < SAFETY_TIMEOUT / 2,
            "a waiter saw its generation {:?} late",
            Duration::from_nanos(slowest)
        );
    }
}

/// A notify reaches every sleeper of its source, not just one: barrier
/// generations and queue closes release many waiters at once.
#[test]
fn notify_wakes_all_waiters_of_one_source() {
    let src = Arc::new(WakeSource::new());
    let go = Arc::new(AtomicU64::new(0));
    let waiters: Vec<_> = (0..4)
        .map(|_| {
            let (src, go) = (src.clone(), go.clone());
            std::thread::spawn(move || {
                let t0 = Instant::now();
                src.wait_until(|| go.load(Ordering::Acquire) == 1);
                t0.elapsed()
            })
        })
        .collect();
    // long enough for all four to be asleep
    std::thread::sleep(Duration::from_millis(30));
    go.store(1, Ordering::Release);
    src.notify();
    for w in waiters {
        let waited = w.join().unwrap();
        assert!(waited < SAFETY_TIMEOUT / 2, "woken by a nap: {waited:?}");
    }
}
