//! `perfbench`: the repository's socket-level benchmark.
//!
//! Each run starts a fresh cluster (`dahliac gateway` in front of two
//! `dahliac serve --threads 1` shards on loopback), drives one workload
//! through the public `dahlia_server` clients over the v1 wire, checks
//! every output, and prints one JSON result as its last stdout line.
//! `--trace 1` runs the workload's per-layer attribution instead; see
//! `README.md` beside this crate.
//!
//! ```text
//! perfbench --dahliac PATH --workload sweep-cold|warm-routed|edit-loop|all
//!           --seed N --seconds S --trace 0|1 [--out DIR]
//! ```

mod cluster;
mod designs;
mod edit_loop;
mod layers;
mod load;
mod sweep_cold;
mod warm_routed;

use std::path::PathBuf;
use std::process::ExitCode;

use dahlia_server::json::{obj, Json};

/// Runs at least this long are full runs; shorter ones are tagged
/// `quick` and stored apart, so they never mix with full-run numbers.
const FULL_RUN_SECONDS: u64 = 30;

const WORKLOADS: [&str; 3] = ["sweep-cold", "warm-routed", "edit-loop"];

const USAGE: &str = "usage: perfbench --dahliac PATH \
    --workload sweep-cold|warm-routed|edit-loop|all --seed N --seconds S --trace 0|1 [--out DIR]";

pub struct Ctx {
    pub dahliac: PathBuf,
    pub out: PathBuf,
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Ctx {
    fn mode(&self) -> &'static str {
        if self.seconds >= FULL_RUN_SECONDS {
            "full"
        } else {
            "quick"
        }
    }

    /// Where this run's files go: `<out>/<mode>/<workload>-seed<N>-<kind>`.
    fn result_path(&self, kind: &str) -> PathBuf {
        self.out
            .join(self.mode())
            .join(format!("{}-seed{}-{kind}", self.workload, self.seed))
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// One workload's outcome: operations attempted and failed, the
/// benchmark's metrics, and extra rows that are printed and stored but
/// are not part of the benchmark's contract.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub extra: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    fn metrics_json(metrics: &[Metric], prefix: &str) -> Vec<(String, Json)> {
        metrics
            .iter()
            .map(|m| {
                (
                    format!("{prefix}{}", m.name),
                    obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect()
    }
}

/// Write the traced run's span dump beside its result.
pub fn write_spans(ctx: &Ctx, rows: &layers::PathRows) -> std::io::Result<()> {
    let path = ctx.result_path("spans.tsv");
    std::fs::create_dir_all(path.parent().expect("result paths have a parent"))?;
    std::fs::write(path, rows.spans_tsv())
}

/// The commit under test: `BENCH_COMMIT` if set, else `git rev-parse`
/// when the working directory is a git checkout, else "unknown".
fn commit() -> String {
    if let Ok(c) = std::env::var("BENCH_COMMIT") {
        return c;
    }
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn parse_args() -> Result<(Ctx, Vec<&'static str>), String> {
    let mut args = std::env::args().skip(1);
    let mut get = std::collections::HashMap::new();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        get.insert(flag, value);
    }
    let mut take = |k: &str| get.remove(k).ok_or(format!("missing {k}"));
    let workload = take("--workload")?;
    let seed = take("--seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds = take("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be an integer")?;
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let dahliac = PathBuf::from(take("--dahliac")?);
    let out = get
        .remove("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_results"));
    if let Some(k) = get.keys().next() {
        return Err(format!("unknown flag {k}"));
    }
    if !dahliac.is_file() {
        return Err(format!("no dahliac binary at {}", dahliac.display()));
    }
    let workloads: Vec<&'static str> = match workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w => vec![*WORKLOADS
            .iter()
            .find(|&&x| x == w)
            .ok_or(format!("unknown workload `{w}`"))?],
    };
    let ctx = Ctx {
        dahliac,
        out,
        workload: workloads[0],
        seed,
        seconds,
        trace,
    };
    Ok((ctx, workloads))
}

fn print_table(ctx: &Ctx, r: &Report) {
    println!(
        "== {} (seed {}, {} s, trace {}): {} attempted, {} failed, failed_frac {:.6}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64
    );
    for m in &r.metrics {
        println!("  {:<28} {:>16.3} {}", m.name, m.value, m.unit);
    }
    for m in &r.extra {
        println!("  ({:<26}) {:>16.3} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let (mut ctx, workloads) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = commit();
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics = Vec::new();
    for &w in &workloads {
        ctx.workload = w;
        let report = match w {
            "sweep-cold" => sweep_cold::run(&ctx),
            "warm-routed" => warm_routed::run(&ctx),
            _ => edit_loop::run(&ctx),
        };
        let r = match report {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {w}: {e}");
                return ExitCode::from(1);
            }
        };
        print_table(&ctx, &r);
        let tags = obj([
            ("mode", Json::Str(ctx.mode().into())),
            ("workload", Json::Str(ctx.workload.into())),
            ("seed", Json::Num(ctx.seed as f64)),
            ("seconds", Json::Num(ctx.seconds as f64)),
            ("trace", Json::Bool(ctx.trace)),
            ("commit", Json::Str(commit.clone())),
            ("nproc", Json::Num(nproc as f64)),
        ]);
        let stored = obj([
            ("tags", tags.clone()),
            ("attempted", Json::Num(r.attempted as f64)),
            ("failed", Json::Num(r.failed as f64)),
            ("metrics", Json::Obj(Report::metrics_json(&r.metrics, ""))),
            ("extra", Json::Obj(Report::metrics_json(&r.extra, ""))),
        ]);
        let path = ctx.result_path(if ctx.trace {
            "trace.json"
        } else {
            "result.json"
        });
        let written = std::fs::create_dir_all(path.parent().expect("result paths have a parent"))
            .and_then(|()| std::fs::write(&path, stored.emit() + "\n"));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("{}", obj([("tags", tags)]).emit());
        attempted += r.attempted;
        failed += r.failed;
        let prefix = if workloads.len() > 1 {
            format!("{w}.")
        } else {
            String::new()
        };
        metrics.extend(Report::metrics_json(&r.metrics, &prefix));
    }
    let result = obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.emit());
    ExitCode::SUCCESS
}
