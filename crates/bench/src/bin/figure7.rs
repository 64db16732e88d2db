//! Regenerates Figure 7 (per-layer drawdown and timing breakdown).

use prdnn_bench::scale::{Scale, Task1Params};
use prdnn_bench::task1;

fn main() {
    prdnn_bench::apply_threads_arg();
    let scale = Scale::from_env();
    eprintln!("running Task 1 at scale {scale:?} (set PRDNN_SCALE=tiny|small|full to change)");
    let mut params = Task1Params::for_scale(scale);
    // Figure 7 uses a single repair-set size (the paper's 400-point run).
    if let Some(&pair) = params
        .point_counts
        .iter()
        .rev()
        .nth(1)
        .or(params.point_counts.last())
    {
        params.point_counts = vec![pair];
    }
    let results = task1::run(&params);
    println!("{}", task1::format_figure7(&results));
}
