//! End-to-end and per-layer benchmark for the gcr workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-cg|chaos|scale-hpl --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root: the metric declaration is read from
//! `BENCHMARK.json` there. With `--trace 0` the last stdout line carries
//! every end-to-end metric (medians over the repeats that fit in
//! `--seconds`); with `--trace 1` the run first measures the same untraced
//! repeats, then runs the traced rungs twice and prints every per-layer
//! metric. The line before the result holds the run's detail: git revision,
//! `available_parallelism`, sample counts and quartiles, and digests.
//! `perfbench/METRICS.md` explains each workload and metric.

mod chaos_mix;
mod churn;
mod ladder;
mod layers;
mod paper_cg;
mod report;
mod scale_hpl;
mod stats;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Declaration, Run};

/// The seed whose outcome digests are pinned.
pub const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "usage: perfbench --workload paper-cg|chaos|scale-hpl \
                     [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperCg,
    Chaos,
    ScaleHpl,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "paper-cg" => Ok(Workload::PaperCg),
            "chaos" => Ok(Workload::Chaos),
            "scale-hpl" => Ok(Workload::ScaleHpl),
            other => Err(format!("unknown workload `{other}`")),
        }
    }

    fn label(self) -> &'static str {
        match self {
            Workload::PaperCg => "paper-cg",
            Workload::Chaos => "chaos",
            Workload::ScaleHpl => "scale-hpl",
        }
    }
}

/// Checked command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    workload: Workload,
    /// Input seed; [`DEFAULT_SEED`] also checks the pinned digests.
    pub seed: u64,
    /// Host seconds to keep repeating the untraced measurement.
    pub seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            let num = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: bad number `{v}`"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value()?)?),
                "--seed" => seed = num(value()?)?,
                "--seconds" => seconds = num(value()?)?,
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace expects 0 or 1, got `{v}`")),
                    }
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if !(1..=600).contains(&seconds) {
            return Err("--seconds must be in 1..=600".to_string());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }

    /// Whether the pinned digests apply.
    pub fn pinned(&self) -> bool {
        self.seed == DEFAULT_SEED
    }

    /// Keep repeating while this is true: at least three passes (so
    /// `setup_s` is a median), then until `--seconds` have gone by.
    pub fn more(&self, start: Instant, passes: usize) -> bool {
        passes < 3 || start.elapsed() < Duration::from_secs(self.seconds)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let decl = match Declaration::load(Path::new("BENCHMARK.json")) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e} (run from the repository root)");
            return ExitCode::from(2);
        }
    };
    let mut run = Run::default();
    match args.workload {
        Workload::PaperCg => paper_cg::measure(&args, &mut run),
        Workload::Chaos => chaos_mix::measure(&args, &mut run),
        Workload::ScaleHpl => scale_hpl::measure(&args, &mut run),
    }
    if args.trace {
        // The untraced repeats above are the baseline the tracing overhead
        // is measured against; only the traced run's metrics are printed.
        let wall = stats::median(run.samples.get("wall_s").map_or(&[][..], |v| v));
        run.samples.clear();
        run.scenario_ms.clear();
        match args.workload {
            Workload::PaperCg => paper_cg::traced(&args, &mut run, wall),
            Workload::Chaos => chaos_mix::traced(&args, &mut run, wall),
            Workload::ScaleHpl => scale_hpl::traced(&args, &mut run, wall),
        }
    }
    match report::finish(
        args.workload.label(),
        args.seed,
        args.seconds,
        args.trace,
        &decl,
        run,
    ) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
