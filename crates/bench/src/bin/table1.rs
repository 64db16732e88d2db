//! Regenerates Table 1 (Task 1 summary).  Scale via `PRDNN_SCALE`.

use prdnn_bench::scale::{Scale, Task1Params};
use prdnn_bench::task1;

fn main() {
    prdnn_bench::apply_threads_arg();
    let scale = Scale::from_env();
    eprintln!("running Task 1 at scale {scale:?} (set PRDNN_SCALE=tiny|small|full to change)");
    let results = task1::run(&Task1Params::for_scale(scale));
    println!("{}", task1::format_table1(&results));
}
