//! `alltoallv` moves rows, it does not copy them.
//!
//! The element type below is not `Clone`, so the collective cannot copy
//! it; the pointer check shows that no row was rebuilt on the way either:
//! each received row is the very allocation its sender built.

use rma::{BackendKind, CostModel, FabricBuilder};

/// A payload the collective cannot clone.
#[derive(Debug, PartialEq, Eq)]
struct Token(u64);

#[test]
fn alltoallv_hands_each_row_to_its_reader() {
    for backend in [BackendKind::Sim, BackendKind::Wall] {
        for p in [1, 2, 4] {
            let fabric = FabricBuilder::new(p)
                .cost(CostModel::default())
                .backend(backend)
                .build();
            fabric.run(|ctx| {
                let me = ctx.rank() as u64;
                // rank s sends rank t the tokens s·100 + t, t + 1 of them
                let rows: Vec<Vec<Token>> = (0..p as u64)
                    .map(|t| (0..=t).map(|_| Token(me * 100 + t)).collect())
                    .collect();
                let sent: Vec<usize> = rows.iter().map(|r| r.as_ptr() as usize).collect();
                let recv = ctx.alltoallv(rows);
                let sent_by = ctx.allgatherv(sent);
                let t = me;
                for (s, row) in recv.iter().enumerate() {
                    let want: Vec<Token> = (0..=t).map(|_| Token(s as u64 * 100 + t)).collect();
                    assert_eq!(row, &want, "{backend:?} P={p}: row {s} → {t}");
                    assert_eq!(
                        row.as_ptr() as usize,
                        sent_by[s][t as usize],
                        "{backend:?} P={p}: row {s} → {t} was copied"
                    );
                }
            });
        }
    }
}
