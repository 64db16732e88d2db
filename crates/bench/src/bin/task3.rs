//! Regenerates the §7.3 Task 3 results (2-D polytope ACAS-style repair).

use prdnn_bench::scale::{Scale, Task3Params};
use prdnn_bench::task3;

fn main() {
    prdnn_bench::apply_threads_arg();
    let scale = Scale::from_env();
    eprintln!("running Task 3 at scale {scale:?} (set PRDNN_SCALE=tiny|small|full to change)");
    let results = task3::run(&Task3Params::for_scale(scale));
    println!("{}", task3::format_task3(&results));
}
