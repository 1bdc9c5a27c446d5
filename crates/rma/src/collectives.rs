//! Collective operations over the fabric.
//!
//! The paper's key OLAP/OLSP design choice (§3.3) is to express global
//! queries as *collective transactions* implemented with MPI-style collective
//! communication: all ranks call the routine, enabling tuned O(log P)
//! algorithms with well-defined semantics. This module provides that layer:
//! barrier, broadcast, reductions, all-gather, personalized all-to-all and
//! exclusive scan.
//!
//! Data moves through a per-rank exchange board; simulated clocks are
//! reconciled at every collective (`max` over ranks + the collective's
//! modeled cost), matching the synchronizing nature of these operations.
//! Shared results (broadcast, gathers) are cloned out of the board; the
//! personalized all-to-all moves each row to its one reader instead, so
//! the bulk data of a load, a checkpoint's routing or a frontier exchange
//! is never held twice.

use std::any::Any;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::fabric::RankCtx;
use crate::stats::Counter;

impl<'a> RankCtx<'a> {
    /// Generic exchange: publish `contrib`, observe every rank's
    /// contribution, produce a result. Two barrier phases keep consecutive
    /// collectives from interfering. `coll_bytes` is the modeled per-rank
    /// payload for cost accounting; `cost_ns` the modeled collective cost.
    fn exchange<T, R>(
        &self,
        contrib: T,
        coll_bytes: usize,
        cost_ns: f64,
        f: impl FnOnce(&[Arc<T>]) -> R,
    ) -> R
    where
        T: Send + Sync + 'static,
    {
        let me = self.rank();
        *self.shared.boards[me].lock() = Some(Arc::new(contrib));
        // Publish clock alongside the payload.
        let max_clock = {
            self.shared.clocks[me].store(
                self.clock.now_ns().to_bits(),
                std::sync::atomic::Ordering::Release,
            );
            self.shared.barrier.wait();
            (0..self.nranks())
                .map(|r| {
                    f64::from_bits(self.shared.clocks[r].load(std::sync::atomic::Ordering::Acquire))
                })
                .fold(0.0, f64::max)
        };
        let views: Vec<Arc<T>> = (0..self.nranks())
            .map(|r| {
                let any: Arc<dyn Any + Send + Sync> = self.shared.boards[r]
                    .lock()
                    .clone()
                    .expect("collective called by all ranks");
                any.downcast::<T>()
                    .expect("mismatched collective payload types")
            })
            .collect();
        let out = f(&views);
        self.shared.barrier.wait();
        *self.shared.boards[me].lock() = None;
        self.clock.reconcile(max_clock + cost_ns);
        self.count(Counter::Collectives, 1);
        self.count(Counter::CollBytes, coll_bytes as u64);
        out
    }

    /// Synchronize all ranks (and, on the sim backend, their simulated
    /// clocks — wall clocks synchronize themselves through the real
    /// barrier wait).
    pub fn barrier(&self) {
        self.probe_fault(crate::faults::points::FABRIC_COLLECTIVE);
        let max = self.clock_sync();
        self.clock
            .reconcile(max + self.cost_model().barrier(self.nranks()));
        self.count(Counter::Collectives, 1);
    }

    /// Broadcast `val` from `root` to all ranks. Non-root ranks pass `None`.
    pub fn bcast<T: Clone + Send + Sync + 'static>(&self, root: usize, val: Option<T>) -> T {
        let bytes = std::mem::size_of::<T>();
        let cost = self.cost_model().reduce_like(self.nranks(), bytes);
        self.exchange(val, bytes, cost, |views| {
            views[root]
                .as_ref()
                .clone()
                .expect("bcast root must supply a value")
        })
    }

    /// Sum-allreduce of a `u64`.
    pub fn allreduce_sum_u64(&self, v: u64) -> u64 {
        let cost = self.cost_model().reduce_like(self.nranks(), 8);
        self.exchange(v, 8, cost, |views| views.iter().map(|x| **x).sum())
    }

    /// Wrapping sum-allreduce of a `u64` (sums of full-range values,
    /// where overflow is part of the contract instead of a bug).
    pub fn allreduce_wrapping_sum_u64(&self, v: u64) -> u64 {
        let cost = self.cost_model().reduce_like(self.nranks(), 8);
        self.exchange(v, 8, cost, |views| {
            views.iter().fold(0u64, |a, x| a.wrapping_add(**x))
        })
    }

    /// Max-allreduce of a `u64`.
    pub fn allreduce_max_u64(&self, v: u64) -> u64 {
        let cost = self.cost_model().reduce_like(self.nranks(), 8);
        self.exchange(v, 8, cost, |views| {
            views.iter().map(|x| **x).max().unwrap_or(0)
        })
    }

    /// Min-allreduce of a `u64`.
    pub fn allreduce_min_u64(&self, v: u64) -> u64 {
        let cost = self.cost_model().reduce_like(self.nranks(), 8);
        self.exchange(v, 8, cost, |views| {
            views.iter().map(|x| **x).min().unwrap_or(u64::MAX)
        })
    }

    /// Sum-allreduce of an `f64`.
    pub fn allreduce_sum_f64(&self, v: f64) -> f64 {
        let cost = self.cost_model().reduce_like(self.nranks(), 8);
        self.exchange(v, 8, cost, |views| views.iter().map(|x| **x).sum())
    }

    /// Max-allreduce of an `f64`.
    pub fn allreduce_max_f64(&self, v: f64) -> f64 {
        let cost = self.cost_model().reduce_like(self.nranks(), 8);
        self.exchange(v, 8, cost, |views| {
            views.iter().map(|x| **x).fold(f64::NEG_INFINITY, f64::max)
        })
    }

    /// Logical-OR allreduce (used for collective-transaction abort voting).
    pub fn allreduce_any(&self, v: bool) -> bool {
        let cost = self.cost_model().reduce_like(self.nranks(), 1);
        self.exchange(v, 1, cost, |views| views.iter().any(|x| **x))
    }

    /// Element-wise sum-allreduce of equal-length `f64` vectors.
    pub fn allreduce_sum_f64_vec(&self, v: Vec<f64>) -> Vec<f64> {
        let bytes = v.len() * 8;
        let cost = self.cost_model().reduce_like(self.nranks(), bytes);
        self.exchange(v, bytes, cost, |views| {
            let n = views[0].len();
            let mut acc = vec![0.0f64; n];
            for view in views {
                debug_assert_eq!(view.len(), n, "allreduce vectors must match");
                for (a, x) in acc.iter_mut().zip(view.iter()) {
                    *a += *x;
                }
            }
            acc
        })
    }

    /// Gather one value from every rank, in rank order.
    pub fn allgather<T: Clone + Send + Sync + 'static>(&self, v: T) -> Vec<T> {
        let bytes = std::mem::size_of::<T>();
        let cost = self.cost_model().allgather(self.nranks(), bytes);
        self.exchange(v, bytes, cost, |views| {
            views.iter().map(|x| x.as_ref().clone()).collect()
        })
    }

    /// Gather a variable-length vector from every rank (concatenated in rank
    /// order is up to the caller; this returns per-rank vectors).
    pub fn allgatherv<T: Clone + Send + Sync + 'static>(&self, v: Vec<T>) -> Vec<Vec<T>> {
        let bytes = v.len() * std::mem::size_of::<T>();
        let cost = self.cost_model().allgather(self.nranks(), bytes);
        self.exchange(v, bytes, cost, |views| {
            views.iter().map(|x| x.as_ref().clone()).collect()
        })
    }

    /// Personalized all-to-all: `rows[t]` is sent to rank `t`; the result's
    /// element `s` is what rank `s` sent to this rank.
    ///
    /// Rows move, they are not copied: the board holds one slot per
    /// destination and each receiver takes its own row out of every
    /// sender's board, so a row's allocation changes hands once and the
    /// exchange holds no second copy of the data.
    ///
    /// This is the backbone of the OLAP workloads (frontier exchange in BFS,
    /// contribution delivery in PageRank/CDLP/WCC, feature pushes in GNN).
    pub fn alltoallv<T: Send + 'static>(&self, rows: Vec<Vec<T>>) -> Vec<Vec<T>> {
        assert_eq!(
            rows.len(),
            self.nranks(),
            "alltoallv needs one row per rank"
        );
        let me = self.rank();
        let elem = std::mem::size_of::<T>();
        let sent: usize = rows
            .iter()
            .enumerate()
            .filter(|(t, _)| *t != me)
            .map(|(_, r)| r.len() * elem)
            .sum();
        let peers = rows
            .iter()
            .enumerate()
            .filter(|(t, r)| *t != me && !r.is_empty())
            .count();
        // Received bytes become known only after the exchange; model the
        // send side here and the receive side inside the closure via a
        // second charge. To keep the clock reconciliation single-shot we
        // fold both into the modeled cost using the observed receive size.
        let cost_model = *self.cost_model();
        let recvd_cell = std::cell::Cell::new(0usize);
        let board: Vec<Mutex<Vec<T>>> = rows.into_iter().map(Mutex::new).collect();
        let out = self.exchange(board, sent, 0.0, |views| {
            let mut recv: Vec<Vec<T>> = Vec::with_capacity(views.len());
            let mut rbytes = 0usize;
            for (s, view) in views.iter().enumerate() {
                // each slot has exactly one reader: rank `me` takes row
                // `me` of every board
                let row = std::mem::take(&mut *view[me].lock());
                if s != me {
                    rbytes += row.len() * elem;
                }
                recv.push(row);
            }
            recvd_cell.set(rbytes);
            recv
        });
        self.clock
            .advance(cost_model.alltoallv(peers, sent, recvd_cell.get()));
        out
    }

    /// Exclusive prefix sum over ranks: rank `i` receives `Σ_{j<i} v_j`.
    pub fn exscan_sum_u64(&self, v: u64) -> u64 {
        let me = self.rank();
        let cost = self.cost_model().reduce_like(self.nranks(), 8);
        self.exchange(v, 8, cost, |views| views[..me].iter().map(|x| **x).sum())
    }
}

#[cfg(test)]
mod tests {
    use crate::{CostModel, FabricBuilder};

    fn fabric(n: usize) -> crate::Fabric {
        FabricBuilder::new(n).cost(CostModel::default()).build()
    }

    #[test]
    fn allreduce_sums() {
        let f = fabric(5);
        let r = f.run(|ctx| ctx.allreduce_sum_u64(ctx.rank() as u64 + 1));
        assert_eq!(r, vec![15; 5]);
    }

    #[test]
    fn allreduce_wrapping_sum_wraps() {
        let f = fabric(3);
        let r = f.run(|ctx| ctx.allreduce_wrapping_sum_u64(u64::MAX - ctx.rank() as u64));
        // 3·MAX − 3 ≡ −6 (mod 2^64)
        assert_eq!(r, vec![u64::MAX - 5; 3]);
    }

    #[test]
    fn allreduce_max_min() {
        let f = fabric(4);
        let r = f.run(|ctx| {
            let max = ctx.allreduce_max_u64(ctx.rank() as u64 * 10);
            let min = ctx.allreduce_min_u64(ctx.rank() as u64 * 10 + 3);
            (max, min)
        });
        assert!(r.iter().all(|&(mx, mn)| mx == 30 && mn == 3));
    }

    #[test]
    fn allreduce_f64_and_any() {
        let f = fabric(3);
        let r = f.run(|ctx| {
            let s = ctx.allreduce_sum_f64(0.5);
            let m = ctx.allreduce_max_f64(-(ctx.rank() as f64));
            let any = ctx.allreduce_any(ctx.rank() == 2);
            let none = ctx.allreduce_any(false);
            (s, m, any, none)
        });
        for (s, m, any, none) in r {
            assert!((s - 1.5).abs() < 1e-12);
            assert_eq!(m, 0.0);
            assert!(any);
            assert!(!none);
        }
    }

    #[test]
    fn allreduce_vec() {
        let f = fabric(4);
        let r = f.run(|ctx| ctx.allreduce_sum_f64_vec(vec![ctx.rank() as f64; 3]));
        assert!(r.iter().all(|v| *v == vec![6.0, 6.0, 6.0]));
    }

    #[test]
    fn bcast_from_each_root() {
        for root in 0..3 {
            let f = fabric(3);
            let r = f.run(|ctx| {
                let val = if ctx.rank() == root {
                    Some(format!("hello-{root}"))
                } else {
                    None
                };
                ctx.bcast(root, val)
            });
            assert!(r.iter().all(|s| *s == format!("hello-{root}")));
        }
    }

    #[test]
    fn allgather_in_rank_order() {
        let f = fabric(6);
        let r = f.run(|ctx| ctx.allgather(ctx.rank() as u32 * 2));
        for got in r {
            assert_eq!(got, vec![0, 2, 4, 6, 8, 10]);
        }
    }

    #[test]
    fn allgatherv_variable_lengths() {
        let f = fabric(4);
        let r = f.run(|ctx| {
            let mine: Vec<u64> = (0..ctx.rank() as u64).collect();
            ctx.allgatherv(mine)
        });
        for got in r {
            assert_eq!(got.len(), 4);
            for (rank, row) in got.iter().enumerate() {
                assert_eq!(row.len(), rank);
            }
        }
    }

    #[test]
    fn alltoallv_transposes() {
        let f = fabric(4);
        let r = f.run(|ctx| {
            // rank s sends value s*10 + t to rank t
            let rows: Vec<Vec<u64>> = (0..4)
                .map(|t| vec![ctx.rank() as u64 * 10 + t as u64])
                .collect();
            ctx.alltoallv(rows)
        });
        for (t, recv) in r.iter().enumerate() {
            for (s, row) in recv.iter().enumerate() {
                assert_eq!(row, &vec![s as u64 * 10 + t as u64]);
            }
        }
    }

    #[test]
    fn alltoallv_empty_rows() {
        let f = fabric(3);
        let r = f.run(|ctx| {
            let rows: Vec<Vec<u8>> = vec![Vec::new(); 3];
            ctx.alltoallv(rows)
        });
        assert!(r.iter().all(|recv| recv.iter().all(|row| row.is_empty())));
    }

    #[test]
    fn exscan() {
        let f = fabric(5);
        let r = f.run(|ctx| ctx.exscan_sum_u64(ctx.rank() as u64 + 1));
        assert_eq!(r, vec![0, 1, 3, 6, 10]);
    }

    #[test]
    fn collectives_reconcile_clocks() {
        // sim-semantics test: pinned to the sim backend (the wall clock
        // cannot be charged forward)
        let f = crate::FabricBuilder::new(4)
            .cost(CostModel::default())
            .backend(crate::BackendKind::Sim)
            .build();
        f.run(|ctx| {
            if ctx.rank() == 2 {
                ctx.charge_ns(1_000_000.0); // one rank is "slow"
            }
            ctx.barrier();
            // after the barrier, everyone's clock is at least the slow
            // rank's time
            assert!(ctx.now_ns() >= 1_000_000.0);
        });
    }

    #[test]
    fn repeated_collectives_do_not_interfere() {
        let f = fabric(4);
        let r = f.run(|ctx| {
            let mut acc = 0u64;
            for i in 0..50 {
                acc = acc.wrapping_add(ctx.allreduce_sum_u64(i + ctx.rank() as u64));
            }
            acc
        });
        assert!(r.windows(2).all(|w| w[0] == w[1]));
    }
}
