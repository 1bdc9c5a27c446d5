//! Fabric execution backends: one `RankCtx` surface, two clocks.
//!
//! Every one-sided operation in this crate executes as a real memory
//! operation either way — ranks are OS threads, windows are `AtomicU64`
//! arrays, CAS/FADD are genuine hardware atomics. What a *backend*
//! chooses is the **clock** that prices the execution:
//!
//! * [`BackendKind::Sim`] — the LogGP model of [`crate::cost`]: every
//!   operation advances a per-rank virtual clock by its modeled cost
//!   (Aries-calibrated constants). Deterministic, hardware-independent,
//!   and the substrate of the claim table (`results/BENCH_paper.json`).
//! * [`BackendKind::Wall`] — real wall-clock shared-memory execution:
//!   cost charges are no-ops and the rank clock reads a monotonic
//!   [`std::time::Instant`] anchored at the start of [`crate::Fabric::run`].
//!   Operation/byte counters keep counting identically, so the same
//!   workload yields the same [`crate::RankReport`] op counts with a
//!   `wall_time_ns` instead of a `sim_time_ns`. Timings are
//!   nondeterministic (true contention, cache behavior, scheduler) —
//!   that is the point: this backend is how the cost model is checked
//!   against the hardware (`bench/bin/backend_compare`).
//!
//! Selection: [`crate::FabricBuilder::backend`] wins; otherwise the
//! `GDI_FABRIC_BACKEND` environment variable (`sim` | `wall`); otherwise
//! [`BackendKind::Sim`].

use std::time::Instant;

use crate::cost::SimClock;

/// Which execution backend a fabric prices its operations with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// LogGP-simulated time on a virtual per-rank clock (deterministic).
    #[default]
    Sim,
    /// Real wall-clock time; cost charges are no-ops (nondeterministic).
    Wall,
}

/// Environment variable overriding the default backend (`sim` | `wall`).
pub const BACKEND_ENV: &str = "GDI_FABRIC_BACKEND";

impl BackendKind {
    /// Resolve the process-default backend from `GDI_FABRIC_BACKEND`
    /// (unset or empty means [`BackendKind::Sim`]). Panics on an
    /// unrecognized value so a typo cannot silently fall back to the
    /// simulator.
    pub fn from_env() -> Self {
        match std::env::var(BACKEND_ENV) {
            Ok(v) => {
                let t = v.trim();
                if t.is_empty() {
                    BackendKind::Sim
                } else {
                    t.parse().unwrap_or_else(|e: String| panic!("{e}"))
                }
            }
            Err(_) => BackendKind::Sim,
        }
    }

    /// Stable lowercase label (`"sim"` / `"wall"`), used for series
    /// names, metrics and the environment override.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Wall => "wall",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "sim" | "loggp" => Ok(BackendKind::Sim),
            "wall" | "real" => Ok(BackendKind::Wall),
            other => Err(format!(
                "unknown fabric backend {other:?} (expected \"sim\" or \"wall\")"
            )),
        }
    }
}

/// The per-rank clock behind every charge in [`crate::RankCtx`]: a
/// [`SimClock`] that cost charges advance, or a wall anchor that ignores
/// them and reads real elapsed time.
///
/// Not `Sync`: it lives on its rank's thread, like the `SimClock` it
/// generalizes. The wall anchor is the same `Instant` on every rank of a
/// run, so wall times are comparable across ranks.
#[derive(Debug)]
pub(crate) struct FabricTime {
    backend: BackendKind,
    sim: SimClock,
    epoch: Instant,
}

impl FabricTime {
    pub(crate) fn new(backend: BackendKind, epoch: Instant) -> Self {
        Self {
            backend,
            sim: SimClock::new(),
            epoch,
        }
    }

    #[inline]
    pub(crate) fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The active backend's current time in nanoseconds: simulated ns on
    /// [`BackendKind::Sim`], real elapsed ns since the run's epoch on
    /// [`BackendKind::Wall`].
    #[inline]
    pub(crate) fn now_ns(&self) -> f64 {
        match self.backend {
            BackendKind::Sim => self.sim.now_ns(),
            BackendKind::Wall => self.wall_ns(),
        }
    }

    /// Charge `ns` of modeled cost: advances the simulated clock, no-op
    /// on the wall backend (real operations price themselves).
    #[inline]
    pub(crate) fn advance(&self, ns: f64) {
        if self.backend == BackendKind::Sim {
            self.sim.advance(ns);
        }
    }

    /// Reconcile to a collective's outcome (`max` peer clock + modeled
    /// collective cost): sets the simulated clock, no-op on the wall
    /// backend — real barriers already synchronize real time.
    #[inline]
    pub(crate) fn reconcile(&self, ns: f64) {
        if self.backend == BackendKind::Sim {
            self.sim.set_ns(ns);
        }
    }

    /// Final simulated time (0 on a wall run: nothing ever charged).
    #[inline]
    pub(crate) fn sim_ns(&self) -> f64 {
        self.sim.now_ns()
    }

    /// Real elapsed nanoseconds since the run's epoch (measured on both
    /// backends — on a sim run this is the simulator's own overhead).
    #[inline]
    pub(crate) fn wall_ns(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip_through_parse() {
        for k in [BackendKind::Sim, BackendKind::Wall] {
            assert_eq!(k.label().parse::<BackendKind>().unwrap(), k);
            assert_eq!(format!("{k}").parse::<BackendKind>().unwrap(), k);
        }
        assert_eq!("REAL".parse::<BackendKind>().unwrap(), BackendKind::Wall);
        assert_eq!(" sim ".parse::<BackendKind>().unwrap(), BackendKind::Sim);
        assert!("aries".parse::<BackendKind>().is_err());
    }

    #[test]
    fn sim_time_ignores_wall_and_vice_versa() {
        let epoch = Instant::now();
        let sim = FabricTime::new(BackendKind::Sim, epoch);
        sim.advance(123.0);
        assert_eq!(sim.now_ns(), 123.0);
        sim.reconcile(1000.0);
        assert_eq!(sim.now_ns(), 1000.0);

        let wall = FabricTime::new(BackendKind::Wall, epoch);
        wall.advance(1e12); // must not jump the wall clock a kilosecond
        wall.reconcile(1e12);
        assert_eq!(wall.sim_ns(), 0.0, "wall backend never accrues sim time");
        let t0 = wall.now_ns();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(
            wall.now_ns() - t0 >= 1_000_000.0,
            "wall clock advances with real time"
        );
        assert!(wall.now_ns() < 1e12, "charges must not move the wall clock");
    }
}
