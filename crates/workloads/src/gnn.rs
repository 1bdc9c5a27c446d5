//! Graph Neural Network workload: graph convolution forward pass
//! (Listing 2; Fig. 6c/6d).
//!
//! The paper trains a graph convolution model through GDI: feature vectors
//! are vertex properties; each layer aggregates neighbor features
//! (summation), applies an MLP (a dense `k×k` transform) and a
//! non-linearity, and writes the new features back with
//! `GDI_UpdatePropertyOfVertex` — a collective transaction per layer. The
//! feature dimension `k` is the scaling knob of Fig. 6c/6d
//! (`k ∈ {4, 16, 64, 256, 500}`).

use gda::GdaRank;
use gdi::{AccessMode, Datatype, EntityType, Multiplicity, PTypeId, PropertyValue, SizeType};
use graphgen::kronecker::hash3;

use crate::analytics::CsrView;

/// GNN configuration.
#[derive(Debug, Clone, Copy)]
pub struct GnnConfig {
    /// Number of graph-convolution layers.
    pub layers: usize,
    /// Feature dimension `k`.
    pub k: usize,
    /// Seed for weights and feature initialization.
    pub seed: u64,
}

/// Collective: register the feature-vector property type (`Double`, fixed
/// size `k`) and return its handle on every rank.
pub fn install_feature_ptype(eng: &GdaRank, k: usize) -> PTypeId {
    if eng.rank() == 0 {
        eng.create_ptype(
            "feature_vec",
            Datatype::Double,
            EntityType::Vertex,
            Multiplicity::Single,
            SizeType::Fixed,
            k,
        )
        .expect("feature ptype");
    }
    eng.ctx().barrier();
    eng.refresh_meta();
    eng.meta().ptype_from_name("feature_vec").unwrap()
}

/// Deterministic initial feature of a vertex.
fn init_feature(seed: u64, app: u64, k: usize) -> Vec<f64> {
    (0..k)
        .map(|j| {
            let h = hash3(seed, app, 0xFEA7 + j as u64);
            (h % 2048) as f64 / 2048.0 - 0.5
        })
        .collect()
}

/// Deterministic MLP weight `W[i][j] ∈ [-0.5, 0.5] / sqrt(k)`.
fn weight(seed: u64, layer: usize, i: usize, j: usize, k: usize) -> f64 {
    let h = hash3(seed ^ 0x3141, (layer * 1_000_003 + i) as u64, j as u64);
    ((h % 4096) as f64 / 4096.0 - 0.5) / (k as f64).sqrt()
}

/// Collective: initialize every local vertex's feature property
/// (collective write transaction).
pub fn init_features(eng: &GdaRank, view: &CsrView, ptype: PTypeId, cfg: &GnnConfig) {
    let tx = eng.begin_collective(AccessMode::ReadWrite);
    for (i, &vid) in view.vids.iter().enumerate() {
        let f = init_feature(cfg.seed, view.apps[i], cfg.k);
        tx.update_property(vid, ptype, &PropertyValue::F64Vec(f))
            .expect("feature init");
    }
    tx.commit().expect("feature init commit");
}

/// One graph-convolution layer (Listing 2's loop body): aggregate incoming
/// neighbor features, transform, write back. Returns the Frobenius norm of
/// the new local feature matrix (a cheap training-progress proxy).
pub fn conv_layer(
    eng: &GdaRank,
    view: &CsrView,
    ptype: PTypeId,
    cfg: &GnnConfig,
    layer: usize,
) -> f64 {
    let ctx = eng.ctx();
    let k = cfg.k;

    // read current features
    let tx = eng.begin_collective(AccessMode::ReadOnly);
    let mut feats = vec![0.0f64; view.len() * k];
    for (&vid, f) in view.vids.iter().zip(feats.chunks_exact_mut(k)) {
        match tx.property(vid, ptype).expect("feature read") {
            Some(PropertyValue::F64Vec(v)) => {
                let take = v.len().min(k);
                f[..take].copy_from_slice(&v[..take]);
            }
            Some(PropertyValue::F64(x)) => f[0] = x,
            _ => {}
        }
    }
    tx.commit().expect("feature fetch commit");

    // aggregate (sum) over the out-neighborhood: one flat row of `k`
    // sums per halo slot — a remote target's contributions are combined
    // on its ghost, and the ghost slice is all that travels
    let mut agg = vec![0.0f64; view.halo_len() * k];
    for (i, f) in feats.chunks_exact(k).enumerate() {
        for &t in view.out(i) {
            for (a, x) in agg[t as usize * k..][..k].iter_mut().zip(f) {
                *a += x;
            }
        }
    }
    view.push_ghosts(ctx, &mut agg, k, 0.0, |a, b| *a += b);
    ctx.charge_cpu((view.len() * k * k) as u64 + 1);

    // transform + non-linearity + write-back; the vertex's own feature
    // joins the sum (self-loop in the convolution)
    let tx = eng.begin_collective(AccessMode::ReadWrite);
    let mut norm = 0.0f64;
    let mut h = vec![0.0f64; k];
    for (i, &vid) in view.vids.iter().enumerate() {
        for ((x, f), a) in h.iter_mut().zip(&feats[i * k..]).zip(&agg[i * k..]) {
            *x = f + a;
        }
        // MLP: out = tanh(W · h)
        let mut out = vec![0.0f64; k];
        for (r, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (c, x) in h.iter().enumerate() {
                acc += weight(cfg.seed, layer, r, c, k) * x;
            }
            *o = acc.tanh();
            norm += *o * *o;
        }
        tx.update_property(vid, ptype, &PropertyValue::F64Vec(out))
            .expect("feature update");
    }
    tx.commit().expect("feature update commit");
    ctx.allreduce_sum_f64(norm).sqrt()
}

/// Full forward pass: `cfg.layers` convolution layers (the Fig. 6c/6d
/// workload). Returns the per-layer global feature norms.
pub fn train_forward(eng: &GdaRank, view: &CsrView, ptype: PTypeId, cfg: &GnnConfig) -> Vec<f64> {
    (0..cfg.layers)
        .map(|l| conv_layer(eng, view, ptype, cfg, l))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytics::build_view;
    use gda::GdaDb;
    use graphgen::{load_into, sized_config, GraphSpec, LpgConfig};
    use rma::CostModel;

    fn run_gnn(nranks: usize, cfg_gnn: GnnConfig) -> Vec<f64> {
        let spec = GraphSpec {
            scale: 5,
            edge_factor: 4,
            seed: 5,
            lpg: LpgConfig::bare(),
        };
        let mut cfg = sized_config(&spec, nranks);
        // feature vectors need extra block capacity
        cfg.blocks_per_rank *= 4;
        let (db, fabric) = GdaDb::with_fabric("gnn", cfg, nranks, CostModel::default());
        let norms = fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            load_into(&eng, &spec);
            let apps = spec.vertices_for_rank(ctx.rank(), ctx.nranks());
            let view = build_view(&eng, &apps);
            let pt = install_feature_ptype(&eng, cfg_gnn.k);
            init_features(&eng, &view, pt, &cfg_gnn);
            train_forward(&eng, &view, pt, &cfg_gnn)
        });
        norms[0].clone()
    }

    #[test]
    fn forward_pass_is_deterministic_and_rank_independent() {
        let cfg = GnnConfig {
            layers: 2,
            k: 4,
            seed: 77,
        };
        let a = run_gnn(1, cfg);
        let b = run_gnn(3, cfg);
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(
                (x - y).abs() < 1e-9,
                "result depends on rank count: {x} vs {y}"
            );
        }
        assert!(a.iter().all(|n| n.is_finite() && *n > 0.0));
    }

    #[test]
    fn feature_dimension_respected() {
        let cfg = GnnConfig {
            layers: 1,
            k: 7,
            seed: 1,
        };
        let f = init_feature(cfg.seed, 42, cfg.k);
        assert_eq!(f.len(), 7);
        assert!(f.iter().all(|x| (-0.5..=0.5).contains(x)));
        // weights are bounded
        let w = weight(1, 0, 3, 4, 7);
        assert!(w.abs() <= 0.5);
    }
}
