//! The paper's evaluation as one claim table: every claim of Figs. 4–6,
//! Tables 1–3 and §6.6–6.8 as a predicate over numbers measured on the
//! simulated fabric (`gdi_bench::paper` defines them).
//!
//! ```sh
//! cargo run --release -p gdi-bench --bin paper            # writes results/BENCH_paper.json
//! cargo run --release -p gdi-bench --bin paper -- --smoke # small sizes, writes nothing
//! ```
//!
//! The exit status is 0 whatever the verdicts: a failing claim is a
//! result, committed with its numbers.

use gdi_bench::{emit_json_unless_smoke, paper};

fn main() {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => {
                eprintln!("paper: unknown argument `{other}` (usage: paper [--smoke])");
                std::process::exit(2);
            }
        }
    }
    let start = std::time::Instant::now();
    let rows = paper::run(smoke);
    print!("{}", paper::render(&rows));
    emit_json_unless_smoke("paper", &paper::to_json(&rows, smoke), smoke);
    eprintln!("[paper: {:.1} s]", start.elapsed().as_secs_f64());
}
