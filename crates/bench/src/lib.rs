//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Every binary accepts the same flags:
//!
//! * `--scale=F`   dataset scale factor (default 0.25; `--full` sets 1.0 — the
//!   paper shapes — and switches the learned methods to their paper budgets),
//! * `--seed=N`    base seed (default 7),
//! * `--csv=DIR`   additionally write each table as a CSV file under `DIR`,
//! * `--threads=N` cap worker threads for the parallel kernels and the trainer
//!   (default: the machine's available parallelism).
//!
//! Run one with `cargo run -p mvi-bench --release --bin <name>`; each binary
//! is named after the paper artifact it regenerates (`table1_datasets`,
//! `fig5_conventional`, …), and `run_all` runs the whole evaluation section
//! in sequence. The repository README and `ARCHITECTURE.md` map the
//! paper's sections to crates.

use mvi_eval::report::Table;
use mvi_eval::{experiments::ExpConfig, MethodBudget};
use std::io::Write as _;
use std::path::PathBuf;

/// Parsed command-line options shared by all regeneration binaries.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Experiment configuration (scale, seed, method budget).
    pub exp: ExpConfig,
    /// Optional directory for CSV output.
    pub csv_dir: Option<PathBuf>,
}

impl BenchArgs {
    /// Parses `std::env::args`; unknown flags abort with usage help.
    pub fn parse() -> Self {
        let mut exp = ExpConfig::default();
        let mut csv_dir = None;
        for arg in std::env::args().skip(1) {
            if arg == "--full" {
                exp.scale = 1.0;
                exp.budget = MethodBudget::Paper;
            } else if let Some(v) = arg.strip_prefix("--scale=") {
                exp.scale = v.parse().unwrap_or_else(|_| usage(&arg));
            } else if let Some(v) = arg.strip_prefix("--seed=") {
                exp.seed = v.parse().unwrap_or_else(|_| usage(&arg));
            } else if let Some(v) = arg.strip_prefix("--csv=") {
                csv_dir = Some(PathBuf::from(v));
            } else if let Some(v) = arg.strip_prefix("--threads=") {
                let n: usize = v.parse().unwrap_or_else(|_| usage(&arg));
                if n == 0 {
                    usage(&arg);
                }
                mvi_parallel::configure_threads(n);
            } else {
                usage(&arg);
            }
        }
        Self { exp, csv_dir }
    }

    /// Prints tables to stdout and, when `--csv` was given, writes one CSV per
    /// table (file name derived from the title).
    pub fn emit(&self, tables: &[Table]) {
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        for t in tables {
            let _ = writeln!(lock, "{}", t.render());
        }
        if let Some(dir) = &self.csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            for t in tables {
                let name: String = t
                    .title
                    .chars()
                    .map(|c| if c.is_alphanumeric() { c } else { '_' })
                    .collect::<String>()
                    .trim_matches('_')
                    .to_lowercase();
                let path = dir.join(format!("{name}.csv"));
                std::fs::write(&path, t.to_csv()).expect("write csv");
                let _ = writeln!(lock, "wrote {}", path.display());
            }
        }
    }

    /// Sweep points for the Fig 6/7/9 x-axes, thinned at small scales so smoke
    /// runs stay fast.
    pub fn pct_points(&self) -> Vec<f64> {
        if self.exp.scale < 0.15 {
            vec![0.1, 1.0]
        } else {
            vec![0.1, 0.4, 0.7, 1.0]
        }
    }

    /// Blackout block-size sweep for Fig 6.
    pub fn blackout_sizes(&self) -> Vec<usize> {
        if self.exp.scale < 0.15 {
            vec![10, 40]
        } else {
            vec![10, 40, 70, 100]
        }
    }
}

fn usage(arg: &str) -> ! {
    eprintln!("unrecognized argument: {arg}");
    eprintln!("usage: <bin> [--scale=F] [--seed=N] [--full] [--csv=DIR] [--threads=N]");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_args_are_quick_scale() {
        let args = BenchArgs { exp: ExpConfig::default(), csv_dir: None };
        assert_eq!(args.exp.scale, 0.25);
        assert_eq!(args.pct_points().len(), 4);
        assert_eq!(args.blackout_sizes().len(), 4);
    }

    #[test]
    fn smoke_scale_thins_sweeps() {
        let args = BenchArgs { exp: ExpConfig::smoke(), csv_dir: None };
        assert_eq!(args.pct_points().len(), 2);
        assert_eq!(args.blackout_sizes().len(), 2);
    }
}
