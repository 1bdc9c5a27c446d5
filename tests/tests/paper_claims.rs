//! Shape checks for the paper's headline experimental claims, at test
//! scale: these assert the *relationships* the figures show (who wins, by
//! roughly what factor), which is the contract of this reproduction.

use gdi_bench::{spec_for, BackendKind, OlapAlgo, ViewMode};
use graphgen::{GraphSpec, LpgConfig};
use workloads::oltp::Mix;

const SCALE: u32 = 9;
const OPS: usize = 150;

// Every claim below is a relationship of the LogGP cost model, so the
// runs are pinned to the simulated backend: the suite must stay green
// under a `GDI_FABRIC_BACKEND=wall` environment, where these ratios
// would be hardware noise.
fn gda_oltp(nranks: usize, spec: &GraphSpec, mix: &Mix, ops: usize) -> (f64, f64) {
    gdi_bench::gda_oltp(BackendKind::Sim, nranks, spec, mix, ops)
}
fn janus_oltp(nranks: usize, spec: &GraphSpec, mix: &Mix, ops: usize) -> (f64, f64) {
    gdi_bench::janus_oltp(BackendKind::Sim, nranks, spec, mix, ops)
}
fn neo4j_oltp(nranks: usize, spec: &GraphSpec, mix: &Mix, ops: usize) -> (f64, f64) {
    gdi_bench::neo4j_oltp(BackendKind::Sim, nranks, spec, mix, ops)
}
fn gda_olap(nranks: usize, spec: &GraphSpec, algo: OlapAlgo) -> f64 {
    gdi_bench::gda_olap(BackendKind::Sim, nranks, spec, algo, ViewMode::Tx)
}
fn neo4j_olap(nranks: usize, spec: &GraphSpec, algo: OlapAlgo) -> f64 {
    gdi_bench::neo4j_olap(BackendKind::Sim, nranks, spec, algo)
}
fn graph500_bfs(nranks: usize, spec: &GraphSpec) -> f64 {
    gdi_bench::graph500_bfs(BackendKind::Sim, nranks, spec)
}

#[test]
fn oltp_ordering_gda_beats_janus_beats_neo4j() {
    // Fig. 4 / Fig. 5: GDA outperforms JanusGraph and Neo4j "by more than
    // an order of magnitude in both metrics"
    let spec = spec_for(SCALE, 1, LpgConfig::default());
    let nranks = 4;
    let (gda, _) = gda_oltp(nranks, &spec, &Mix::LINKBENCH, OPS);
    let (janus, _) = janus_oltp(nranks, &spec, &Mix::LINKBENCH, OPS);
    let (neo, _) = neo4j_oltp(nranks, &spec, &Mix::LINKBENCH, OPS);
    assert!(
        gda > 10.0 * janus,
        "GDA ({gda:.4} MQ/s) must beat JanusGraph ({janus:.4}) by >10x"
    );
    assert!(
        janus > neo,
        "JanusGraph ({janus:.4}) must beat Neo4j ({neo:.4})"
    );
}

#[test]
fn oltp_throughput_scales_with_ranks() {
    // Fig. 4a/4b: "adding more servers consistently improves the
    // throughput in both strong and weak scaling". The paper's plots start
    // at 8 servers; we compare two *distributed* points (2 vs 8 ranks) so
    // the local-vs-remote crossover at P=1 does not distort the check.
    let spec2 = spec_for(SCALE, 1, LpgConfig::default());
    let (t2, _) = gda_oltp(2, &spec2, &Mix::READ_MOSTLY, OPS);
    let spec8 = spec_for(SCALE + 2, 1, LpgConfig::default());
    let (t8, _) = gda_oltp(8, &spec8, &Mix::READ_MOSTLY, OPS);
    assert!(
        t8 > 1.5 * t2,
        "weak scaling 2→8 ranks must increase throughput: {t2:.4} → {t8:.4}"
    );
}

#[test]
fn write_mixes_fail_more_than_read_mixes() {
    // Fig. 4 annotations: failed-transaction percentages appear on the
    // write-heavy mixes (LB/WI), not on RM/RI
    let spec = spec_for(7, 5, LpgConfig::default()); // small graph → contention
    let nranks = 6;
    let (_, fail_rm) = gda_oltp(nranks, &spec, &Mix::READ_MOSTLY, 250);
    let (_, fail_wi) = gda_oltp(nranks, &spec, &Mix::WRITE_INTENSIVE, 250);
    assert!(
        fail_wi >= fail_rm,
        "write-intensive failure rate ({fail_wi:.4}) must be >= read-mostly ({fail_rm:.4})"
    );
    assert!(fail_rm < 0.02, "read-mostly failures must be negligible");
    assert!(
        fail_wi < 0.25,
        "WI failures stay low (paper: <2%), got {fail_wi}"
    );
}

#[test]
fn gda_bfs_within_small_factor_of_graph500() {
    // §6.5: "GDA is at most 2–4× slower than Graph500, and sometimes ...
    // comparable"; allow a looser band at tiny scale
    let spec = spec_for(SCALE, 2, LpgConfig::default());
    let nranks = 4;
    let gda = gda_olap(nranks, &spec, OlapAlgo::Bfs);
    let g500 = graph500_bfs(nranks, &spec);
    let ratio = gda / g500;
    assert!(
        ratio < 8.0,
        "GDA BFS must stay within a small factor of Graph500, got {ratio:.2}x"
    );
    assert!(
        ratio > 0.5,
        "suspicious: GDA much faster than the raw kernel"
    );
}

#[test]
fn neo4j_olap_orders_of_magnitude_slower() {
    // Fig. 6e: Neo4j BFS vs GDA BFS
    let spec = spec_for(SCALE, 2, LpgConfig::default());
    let nranks = 4;
    let gda = gda_olap(nranks, &spec, OlapAlgo::Bfs);
    let neo = neo4j_olap(nranks, &spec, OlapAlgo::Bfs);
    assert!(
        neo > 10.0 * gda,
        "Neo4j BFS ({neo:.5}s) must be >10x slower than GDA ({gda:.5}s)"
    );
}

#[test]
fn lcc_costs_more_than_bfs() {
    // §6.5: LCC has complexity O(n + m^1.5) vs O(n + m) for BFS, so its
    // runtime must dominate on the same graph
    let spec = spec_for(8, 3, LpgConfig::default());
    let nranks = 2;
    let bfs = gda_olap(nranks, &spec, OlapAlgo::Bfs);
    let lcc = gda_olap(nranks, &spec, OlapAlgo::Lcc);
    assert!(
        lcc > bfs,
        "LCC ({lcc:.5}s) must cost more than BFS ({bfs:.5}s)"
    );
}

#[test]
fn gnn_runtime_grows_with_feature_dimension() {
    // Fig. 6c/6d: larger k → longer runtimes
    let spec = spec_for(7, 4, LpgConfig::bare());
    let nranks = 2;
    let t4 = gda_olap(nranks, &spec, OlapAlgo::Gnn { layers: 1, k: 4 });
    let t64 = gda_olap(nranks, &spec, OlapAlgo::Gnn { layers: 1, k: 64 });
    assert!(
        t64 > 2.0 * t4,
        "k=64 ({t64:.5}s) must cost well beyond k=4 ({t4:.5}s)"
    );
}

#[test]
fn khop_runtime_increases_with_k() {
    let spec = spec_for(SCALE, 2, LpgConfig::default());
    let nranks = 2;
    let t2 = gda_olap(nranks, &spec, OlapAlgo::Khop(2));
    let t4 = gda_olap(nranks, &spec, OlapAlgo::Khop(4));
    assert!(
        t4 >= t2,
        "4-hop ({t4:.6}s) must cost at least 2-hop ({t2:.6}s)"
    );
}
