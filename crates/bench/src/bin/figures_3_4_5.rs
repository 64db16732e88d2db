//! Regenerates the data behind Figures 3, 4, 5, and 6 (the running example).

use prdnn_bench::figures;

fn main() {
    prdnn_bench::apply_threads_arg();
    println!("{}", figures::format_figures());
}
