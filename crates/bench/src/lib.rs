//! Experiment harness reproducing every table and figure of the PRDNN
//! evaluation (§7) on the synthetic workloads of `prdnn-datasets`.
//!
//! Each experiment runs at a configurable [`Scale`]: the paper's exact
//! workload sizes (SqueezeNet, 752 NAE images, 100 repair lines, 150k key
//! points) assume Gurobi and a 32-core machine, so the default scale keeps
//! the identical pipeline but shrinks the specification sizes; the *shape*
//! of the results (who wins, where the time goes) is what is reproduced.
//! `EXPERIMENTS.md` records the measured numbers next to the paper's.
//!
//! | Paper artefact | Regenerate with |
//! |---|---|
//! | Table 1 | `cargo run --release -p prdnn-bench --bin table1` |
//! | Table 2 | `cargo run --release -p prdnn-bench --bin table2` |
//! | Table 3 | `cargo run --release -p prdnn-bench --bin table3` |
//! | Table 4 | `cargo run --release -p prdnn-bench --bin table4` |
//! | Figure 7 | `cargo run --release -p prdnn-bench --bin figure7` |
//! | Figures 3–6 | `cargo run --release -p prdnn-bench --bin figures_3_4_5` |
//! | §7.3 (Task 3) | `cargo run --release -p prdnn-bench --bin task3` |

pub mod figures;
pub mod metrics;
pub mod scale;
pub mod stats;
pub mod task1;
pub mod task2;
pub mod task3;

pub use metrics::Classifier;
pub use scale::Scale;

/// Applies the bench binaries' `--threads N` (or `--threads=N`) knob by
/// exporting it as `PRDNN_THREADS` before any thread pool exists.
///
/// Precedence, highest first: this flag / `PRDNN_THREADS`, then the
/// machine's available parallelism.  Call this at the top of `main`, before
/// any repair runs.
pub fn apply_threads_arg() {
    if let Some(n) = flag_value("--threads")
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        std::env::set_var("PRDNN_THREADS", n.to_string());
    }
    eprintln!(
        "thread pool: {} threads (override with --threads N or PRDNN_THREADS)",
        prdnn_par::default_threads()
    );
}

/// Scans the process arguments for `<flag> value` or `<flag>=value`,
/// returning the last occurrence (matching the knobs' last-wins
/// behaviour).  Shared by [`apply_threads_arg`] and the bench binaries'
/// own flags.
pub fn flag_value(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    let mut found = None;
    while let Some(arg) = args.next() {
        let value = if arg == flag {
            args.next()
        } else {
            arg.strip_prefix(flag)
                .and_then(|rest| rest.strip_prefix('='))
                .map(str::to_owned)
        };
        if value.is_some() {
            found = value;
        }
    }
    found
}
