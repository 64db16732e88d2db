//! Regenerates Table 2 (Task 2: 1-D polytope repair vs fine-tuning).

use prdnn_bench::scale::{Scale, Task2Params};
use prdnn_bench::task2;

fn main() {
    prdnn_bench::apply_threads_arg();
    let scale = Scale::from_env();
    eprintln!("running Task 2 at scale {scale:?} (set PRDNN_SCALE=tiny|small|full to change)");
    let results = task2::run(&Task2Params::for_scale(scale));
    println!("{}", task2::format_table2(&results));
}
