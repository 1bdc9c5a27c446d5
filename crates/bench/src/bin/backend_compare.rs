//! Backend divergence report: where the LogGP simulation and real
//! wall-clock shared-memory execution disagree.
//!
//! Two phases:
//!
//! 1. **micro** — at P=2 every RMA op class is timed under both
//!    backends with the same loop. Absolute wall nanoseconds depend on
//!    the host, so each class is normalized by the local-read cost of
//!    its own backend; the report compares the LogGP-predicted relative
//!    cost against the measured one and flags classes where they
//!    disagree by more than 2x.
//! 2. **end-to-end** — the Read-Mostly OLTP point runs paired sim/wall
//!    at each P (capped at 8). Scaling curves are normalized to the
//!    smallest P and a >2x disagreement between the predicted and the
//!    measured curve is flagged.
//!
//! Expected flagged rows on a laptop-class host: `local_atomic` /
//! `remote_*` (shared-memory loads cost the same regardless of the
//! "owner" rank, while LogGP charges o+L+g for remoteness) and
//! `log_write_1k` (the wall backend performs no real log-device I/O, it
//! only counts bytes). The report exists to make exactly this gap
//! visible, not to hide it.
//!
//! Writes `results/BENCH_backend_compare.json` (skipped under
//! `--smoke`, which also shrinks rep counts and the rank sweep).

use gdi_bench::{emit, emit_json_unless_smoke, oltp, spec_for, RunParams, System};
use graphgen::LpgConfig;
use rma::{BackendKind, CostModel, FabricBuilder, WinId};
use std::hint::black_box;
use workloads::oltp::Mix;

struct MicroRow {
    class: &'static str,
    sim_ns: f64,
    wall_ns: f64,
}

/// Time every op class once under `backend` at P=2; returns
/// (class, active-clock ns per op) rows measured on rank 0.
fn micro(backend: BackendKind, reps: u64, creps: u64) -> Vec<(&'static str, f64)> {
    let fabric = FabricBuilder::new(2)
        .window(1 << 20)
        .cost(CostModel::default())
        .backend(backend)
        .build();
    let per_rank = fabric.run(move |ctx| {
        let w = WinId(0);
        let mut rows: Vec<(&'static str, f64)> = Vec::new();
        if ctx.rank() == 0 {
            let mut time = |name: &'static str, f: &mut dyn FnMut()| {
                let t0 = ctx.now_ns();
                for _ in 0..reps {
                    f();
                }
                rows.push((name, (ctx.now_ns() - t0) / reps as f64));
            };
            time("local_read", &mut || {
                black_box(ctx.get_u64(w, 0, 7));
            });
            time("remote_read", &mut || {
                black_box(ctx.get_u64(w, 1, 7));
            });
            let mut buf = [0u8; 64];
            time("remote_read_64B", &mut || {
                ctx.get_bytes(w, 1, 128, &mut buf);
                black_box(buf[0]);
            });
            time("remote_write", &mut || ctx.put_u64(w, 1, 9, 1));
            time("local_atomic", &mut || {
                black_box(ctx.fadd_u64(w, 0, 11, 1));
            });
            time("remote_atomic", &mut || {
                black_box(ctx.fadd_u64(w, 1, 11, 1));
            });
            time("flushed_write", &mut || {
                ctx.put_u64(w, 1, 13, 2);
                ctx.flush(1);
            });
            time("nb_batch_8_writes", &mut || {
                ctx.begin_nb_batch();
                for i in 0..8 {
                    ctx.put_u64(w, 1, 16 + i, i as u64);
                }
                ctx.flush(1);
                ctx.end_nb_batch();
            });
            time("log_write_1k", &mut || ctx.record_log_write(1024));
        }
        ctx.barrier();
        // collectives need both ranks in lockstep; rank 0 keeps the time
        let t0 = ctx.now_ns();
        for _ in 0..creps {
            ctx.barrier();
        }
        let barrier_ns = (ctx.now_ns() - t0) / creps as f64;
        let t1 = ctx.now_ns();
        for _ in 0..creps {
            black_box(ctx.allreduce_sum_u64(1));
        }
        let allreduce_ns = (ctx.now_ns() - t1) / creps as f64;
        if ctx.rank() == 0 {
            rows.push(("barrier", barrier_ns));
            rows.push(("allreduce_sum", allreduce_ns));
        }
        rows
    });
    per_rank.into_iter().next().unwrap()
}

fn divergence_flag(ratio: f64) -> &'static str {
    if !(0.5..=2.0).contains(&ratio) {
        " <-- >2x"
    } else {
        ""
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let params = RunParams::from_env();
    let (reps, creps) = if smoke {
        (2_000, 100)
    } else {
        (200_000, 5_000)
    };

    // ---- phase 1: micro op classes at P=2 ----------------------------
    eprintln!("  [backend_compare] micro op classes (P=2, {reps} reps) ...");
    let sim_rows = micro(BackendKind::Sim, reps, creps);
    let wall_rows = micro(BackendKind::Wall, reps, creps);
    let rows: Vec<MicroRow> = sim_rows
        .iter()
        .map(|&(class, sim_ns)| MicroRow {
            class,
            sim_ns,
            wall_ns: wall_rows
                .iter()
                .find(|(c, _)| *c == class)
                .map(|&(_, ns)| ns)
                .unwrap_or(f64::NAN),
        })
        .collect();
    let sim_base = rows[0].sim_ns; // local_read is the normalization base
    let wall_base = rows[0].wall_ns;

    let mut out = String::from(
        "### Backend compare — LogGP simulation vs wall-clock execution\n\
         # relative costs are normalized by each backend's local_read;\n\
         # `div` = measured_rel / predicted_rel, flagged outside [0.5, 2]\n",
    );
    out.push_str(&format!(
        "{:<18} {:>12} {:>12} {:>12} {:>12} {:>8}\n",
        "op class", "sim ns/op", "wall ns/op", "predicted x", "measured x", "div"
    ));
    let mut micro_json: Vec<String> = Vec::new();
    let mut flagged_micro = 0usize;
    for r in &rows {
        let predicted = r.sim_ns / sim_base;
        let measured = r.wall_ns / wall_base;
        let div = measured / predicted;
        let flag = divergence_flag(div);
        if !flag.is_empty() {
            flagged_micro += 1;
        }
        out.push_str(&format!(
            "{:<18} {:>12.1} {:>12.1} {:>12.2} {:>12.2} {:>8.2}{flag}\n",
            r.class, r.sim_ns, r.wall_ns, predicted, measured, div
        ));
        micro_json.push(format!(
            "{{\"class\":\"{}\",\"sim_ns\":{:.3},\"wall_ns\":{:.3},\
             \"predicted_rel\":{:.4},\"measured_rel\":{:.4},\
             \"divergence\":{:.4},\"flagged\":{}}}",
            r.class,
            r.sim_ns,
            r.wall_ns,
            predicted,
            measured,
            div,
            !flag.is_empty()
        ));
    }

    // ---- phase 2: end-to-end OLTP scaling, paired sim/wall -----------
    let ranks: Vec<usize> = if smoke {
        vec![1, 2]
    } else {
        params.ranks.iter().copied().filter(|&p| p <= 8).collect()
    };
    let scale = if smoke { 6 } else { params.base_scale.min(12) };
    let ops = if smoke { 300 } else { params.ops_per_rank };
    let spec = spec_for(scale, params.seed, LpgConfig::default());
    out.push_str(&format!(
        "\nend-to-end Read-Mostly OLTP, 2^{scale} vertices, {ops} ops/rank \
         (throughput on each backend's own clock, scaling normalized to P={}):\n",
        ranks.first().copied().unwrap_or(1)
    ));
    out.push_str(&format!(
        "{:<6} {:>12} {:>12} {:>10} {:>10} {:>8}\n",
        "ranks", "sim MQ/s", "wall MQ/s", "sim x", "wall x", "div"
    ));
    let mut e2e: Vec<(usize, f64, f64)> = Vec::new();
    for &p in &ranks {
        eprintln!("  [backend_compare] end-to-end P={p} ...");
        let run = |backend| oltp(System::Gda, backend, p, &spec, &Mix::READ_MOSTLY, ops).mqps;
        let (sim_mqps, wall_mqps) = (run(BackendKind::Sim), run(BackendKind::Wall));
        e2e.push((p, sim_mqps, wall_mqps));
    }
    let (_, sim0, wall0) = e2e[0];
    let mut e2e_json: Vec<String> = Vec::new();
    let mut flagged_e2e = 0usize;
    for &(p, sim_mqps, wall_mqps) in &e2e {
        let sim_norm = sim_mqps / sim0;
        let wall_norm = wall_mqps / wall0;
        let div = wall_norm / sim_norm;
        let flag = divergence_flag(div);
        if !flag.is_empty() {
            flagged_e2e += 1;
        }
        out.push_str(&format!(
            "{:<6} {:>12.4} {:>12.4} {:>10.2} {:>10.2} {:>8.2}{flag}\n",
            p, sim_mqps, wall_mqps, sim_norm, wall_norm, div
        ));
        e2e_json.push(format!(
            "{{\"nranks\":{p},\"sim_mqps\":{sim_mqps:.6},\"wall_mqps\":{wall_mqps:.6},\
             \"sim_norm\":{sim_norm:.4},\"wall_norm\":{wall_norm:.4},\
             \"divergence\":{div:.4},\"flagged\":{}}}",
            !flag.is_empty()
        ));
    }
    out.push_str(&format!(
        "\n{flagged_micro} op classes and {flagged_e2e} scaling points diverge >2x \
         (wall timings are host-dependent and non-gating)\n"
    ));

    emit("backend_compare", &out);
    let json = format!(
        "{{\"bench\":\"backend_compare\",\"micro\":{{\"nranks\":2,\"reps\":{reps},\
         \"classes\":[{}]}},\"end_to_end\":{{\"scale\":{scale},\"ops_per_rank\":{ops},\
         \"points\":[{}]}},\"flagged_micro\":{flagged_micro},\"flagged_e2e\":{flagged_e2e}}}",
        micro_json.join(","),
        e2e_json.join(",")
    );
    emit_json_unless_smoke("backend_compare", &json, smoke);

    // sanity, both backends: every class must have been measured, and
    // the sim side must reproduce the model's structure (remote reads
    // cost more than local ones under LogGP)
    assert_eq!(rows.len(), 11, "missing op classes");
    for r in &rows {
        assert!(
            r.sim_ns > 0.0 && r.wall_ns.is_finite() && r.wall_ns >= 0.0,
            "{}: bad measurement sim={} wall={}",
            r.class,
            r.sim_ns,
            r.wall_ns
        );
    }
    let remote = rows.iter().find(|r| r.class == "remote_read").unwrap();
    assert!(
        remote.sim_ns > sim_base,
        "LogGP remote read should cost more than local"
    );
    println!("backend_compare: report complete");
}
