//! Bulk load holds the graph once: the memory bound as a deterministic
//! test.
//!
//! A counting global allocator (this file is its own test binary, so no
//! other suite runs under it) measures the peak of live heap bytes over a
//! collective bulk load of a scale-12 graph at P = 2, above the level the
//! load started at (the callers' vertex and edge lists are part of that
//! level). The routed half-edges — two 24-byte records per edge — are the
//! one copy of the edge list a load cannot avoid; the bound is
//! [`HALF_EDGE_MULTIPLE`] times their bytes. A load that keeps every
//! decoded holder alive until its last write, or an all-to-all that
//! delivers a copy of each row beside the sender's, stays far above it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gda::{EdgeSpec, GdaDb, VertexSpec};
use graphgen::load::{edge_spec, install_metadata, vertex_spec};
use graphgen::{sized_config, GraphSpec};
use rma::CostModel;

/// Live and peak heap bytes of the whole process.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// The live level at entry to the load.
static BASE: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters beside the
// calls touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with this `layout`, and this allocator is `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`, plus the caller's `new_size` contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes of one routed half-edge (local app, remote app, label and
/// direction: the wire record of `gda::bulk`).
const HALF_EDGE_BYTES: usize = 24;
/// The bound: peak live heap over the load ≤ this many times the routed
/// half-edge bytes. (Measured at scale 12, P = 2: 1.05× when each holder
/// is built, written and dropped in turn and rows move; 1.94× when every
/// decoded holder stayed alive until the last write and alltoallv cloned
/// its rows.)
const HALF_EDGE_MULTIPLE: f64 = 1.5;

#[test]
fn bulk_load_peak_heap_is_bounded_by_the_routed_half_edges() {
    let spec = GraphSpec::new(12, 4);
    let p = 2;
    let (db, fabric) = GdaDb::with_fabric("bulk-mem", sized_config(&spec, p), p, CostModel::zero());
    let edges: usize = fabric
        .run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let meta = install_metadata(&eng, &spec.lpg);
            let vertices: Vec<VertexSpec> = spec
                .vertices_for_rank(ctx.rank(), p)
                .into_iter()
                .map(|app| vertex_spec(&spec, &meta, app))
                .collect();
            let edges: Vec<EdgeSpec> = spec
                .edges_for_rank(ctx.rank(), p)
                .into_iter()
                .map(|(u, v)| edge_spec(&spec, &meta, u, v))
                .collect();
            let n = edges.len();
            // every rank holds its inputs before the level is taken
            ctx.barrier();
            if ctx.rank() == 0 {
                let live = LIVE.load(Ordering::Relaxed);
                BASE.store(live, Ordering::Relaxed);
                PEAK.store(live, Ordering::Relaxed);
            }
            ctx.barrier();
            let report = eng.bulk_load(vertices, edges).unwrap();
            ctx.barrier();
            assert_eq!(report.dangling_edges, 0);
            n
        })
        .into_iter()
        .sum();
    let peak = PEAK.load(Ordering::Relaxed) - BASE.load(Ordering::Relaxed);
    let routed = 2 * edges * HALF_EDGE_BYTES;
    eprintln!(
        "bulk load peak: {peak} bytes over entry for {routed} routed half-edge bytes ({:.2}×)",
        peak as f64 / routed as f64
    );
    assert!(
        (peak as f64) <= HALF_EDGE_MULTIPLE * routed as f64,
        "bulk load held {peak} bytes over entry for {routed} routed half-edge bytes"
    );
}
