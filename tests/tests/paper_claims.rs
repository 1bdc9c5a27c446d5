//! The paper's headline claims at smoke size. Every claim — its
//! predicate and its smoke configuration — is defined once, in
//! `gdi_bench::paper`; this suite runs that table once and asserts its
//! rows. The named tests keep the claims `paper_claims` has always
//! checked, each at its original scale, rank count and op budget; the
//! last asserts every other row of the table too.

use std::sync::OnceLock;

use gdi_bench::paper::{self, Claim};

/// The smoke-size claim table, evaluated once for all tests.
fn smoke() -> &'static [Claim] {
    static ROWS: OnceLock<Vec<Claim>> = OnceLock::new();
    ROWS.get_or_init(|| paper::run(true))
}

fn assert_pass(ids: &[&str]) {
    for id in ids {
        let row = smoke().iter().find(|c| c.id == *id);
        let row = row.unwrap_or_else(|| panic!("the claim table has no row {id}"));
        assert!(row.pass, "{}", paper::render(std::slice::from_ref(row)));
    }
}

#[test]
fn oltp_ordering_gda_beats_janus_beats_neo4j() {
    assert_pass(&["fig4c.gda_10x_janus", "fig4c.janus_beats_neo4j"]);
}

#[test]
fn oltp_throughput_scales_with_ranks() {
    assert_pass(&["fig4a.rm_weak_scaling"]);
}

#[test]
fn write_mixes_fail_more_than_read_mixes() {
    assert_pass(&[
        "fig4c.wi_fails_more_than_rm",
        "fig4c.rm_failures_negligible",
        "fig4c.wi_failures_low",
    ]);
}

#[test]
fn gda_bfs_within_small_factor_of_graph500() {
    assert_pass(&["fig6e.bfs_near_graph500"]);
}

#[test]
fn neo4j_olap_orders_of_magnitude_slower() {
    assert_pass(&["fig6e.neo4j_bfs_10x_slower"]);
}

#[test]
fn lcc_costs_more_than_bfs() {
    assert_pass(&["fig6b.lcc_costs_more_than_bfs"]);
}

#[test]
fn gnn_runtime_grows_with_feature_dimension() {
    assert_pass(&["fig6c.gnn_grows_with_k"]);
}

#[test]
fn khop_runtime_increases_with_k() {
    assert_pass(&["fig6e.khop_grows_with_k"]);
}

#[test]
fn every_claim_passes_at_smoke_size() {
    let failed: Vec<Claim> = smoke().iter().filter(|c| !c.pass).cloned().collect();
    assert!(failed.is_empty(), "{}", paper::render(&failed));
    let mut ids: Vec<&str> = smoke().iter().map(|c| c.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), smoke().len(), "claim ids are unique");
}
