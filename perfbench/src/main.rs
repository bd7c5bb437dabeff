//! The DISTINCT benchmark: one seeded workload per invocation, timed end
//! to end, with a traced variant that splits the time by layer.
//!
//! ```text
//! distinct-perfbench --workload <paper_durable|laptop_dedupe|laptop_updates>
//!                    --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run is one or more *cycles* of *rounds*, one round per world, each
//! world a catalog generated (untimed) from a seed derived from `--seed`;
//! while `--seconds` have not passed, another whole cycle over the same
//! worlds follows, so every run weighs each world alike. A round is everything a user pays after generation:
//! `prepare`, `train` where the workload trains, the resolve phase, and
//! the update batches where there are any, each operation issued after
//! the previous one completed (a closed loop with one client). Every
//! metric is the median over the rounds; averaging over several worlds
//! keeps one unusual catalog (a slow SVM fit, say) from setting a run's
//! figures.
//!
//! With `--trace 0` the library's entry points are called as a user calls
//! them. With `--trace 1` (built with the `trace` feature, which installs
//! the counting allocator) entry points that span several layers are
//! replaced by the public calls they make, each timed, and durable I/O
//! goes through a counting [`vfs::TimedVfs`]; see [`layers`].
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`
//! holding every metric the run measured. The process exits 1 when any
//! operation failed or any output check did not hold, and 2 on a usage or
//! set-up error.

mod laptop_dedupe;
mod laptop_updates;
mod layers;
mod metrics;
mod paper_durable;
mod stats;
mod vfs;

use metrics::{Metrics, Ops};
use std::path::PathBuf;
use std::time::Instant;

/// Everything a workload needs from the command line.
pub struct Ctx {
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Cycles over the worlds go on until this much wall time has passed.
    pub seconds: f64,
    /// Traced run: decomposed entry points and per-layer counters.
    pub trace: bool,
    /// Scratch directory for durable run directories, removed at exit.
    pub work: PathBuf,
}

impl Ctx {
    /// Run `round` once per world, and repeat that whole cycle until
    /// `seconds` have passed since the first round started; return each
    /// round's metrics. Round `i` gets the seed of world `i % worlds`;
    /// world 0's seed is the run's seed. Stopping only between cycles keeps
    /// the mix of worlds (and with it every median, `pairwise_f1` among
    /// them) independent of how fast the rounds ran.
    ///
    /// `peak_rss_mb` is read after the first round: the process high-water
    /// mark only grows, and later rounds would add allocator
    /// fragmentation from the engines they dropped.
    pub fn rounds(
        &self,
        worlds: usize,
        mut round: impl FnMut(usize, u64, &mut Metrics) -> Result<(), String>,
    ) -> Result<Vec<Metrics>, String> {
        let start = Instant::now();
        let mut out = Vec::new();
        while out.is_empty()
            || out.len() % worlds != 0
            || start.elapsed().as_secs_f64() < self.seconds
        {
            let i = out.len();
            let world_seed = self
                .seed
                .wrapping_add(((i % worlds) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut m = Metrics::default();
            round(i, world_seed, &mut m)?;
            eprintln!(
                "round {i} (world seed {world_seed}): setup_s {:.3} resolve_s {:.3} total_s {:.3}",
                m.get("setup_s"),
                m.get("resolve_s"),
                m.get("total_s")
            );
            if i == 0 {
                if let Some(rss) = distinct::peak_rss_bytes() {
                    m.set("peak_rss_mb", "MB", rss as f64 / (1024.0 * 1024.0));
                }
            }
            out.push(m);
        }
        Ok(out)
    }
}

const USAGE: &str =
    "usage: distinct-perfbench --workload <paper_durable|laptop_dedupe|laptop_updates> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Every flag is required.
fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad(&"not a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        }),
        _ => Err("--workload, --seed, --seconds and --trace are all required".into()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.trace != distinct_bench::metering_enabled() {
        eprintln!(
            "--trace {} needs a build {} the `trace` feature",
            u8::from(args.trace),
            if args.trace { "with" } else { "without" }
        );
        std::process::exit(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: std::env::current_dir()
            .unwrap_or_default()
            .join(".bench_build")
            .join(format!("perfbench-work-{}", std::process::id())),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let mut ops = Ops::default();
    let result = match args.workload.as_str() {
        "paper_durable" => paper_durable::run(&ctx, &mut ops),
        "laptop_dedupe" => laptop_dedupe::run(&ctx, &mut ops),
        "laptop_updates" => laptop_updates::run(&ctx, &mut ops),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let rounds = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            std::process::exit(2);
        }
    };
    let mut folded = metrics::fold(&rounds);
    folded.set(
        "failed_frac",
        "ratio",
        ops.failed as f64 / ops.attempted.max(1) as f64,
    );
    folded.set("rounds", "count", rounds.len() as f64);
    println!("{}", folded.to_json(&ops));
    if !ops.correct() {
        std::process::exit(1);
    }
}
