//! The ChGraph benchmark: one command, four workloads, end-to-end metrics
//! from an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! python3 perfbench/run.py --workload sim-pr --seed 0 --seconds 10 --trace 0
//! ```
//!
//! `run.py` builds this package and `chgraphd` in release mode and then runs
//! this binary with the same arguments plus `--chgraphd <path>`. The last
//! line of standard output is the JSON result; the lines before it print
//! every metric with its unit and sample count, the host, the failing cells
//! and the fidelity line. See `perfbench/README.md` for the workloads, the
//! metrics and the layer each per-layer metric should move.

mod check;
mod cpu;
mod host;
mod layers;
mod serve;
mod sim;
mod stats;
mod trace;

use chg_serve::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The seed whose results are pinned in `pins.txt`. It reproduces the
/// named stand-in datasets exactly.
pub const DEFAULT_SEED: u64 = 0;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;

/// The end-to-end metrics every workload reports and `BENCHMARK.json`
/// gates. The workload-specific ones are printed beside them.
pub const GATED: &[&str] = &["cpu_s", "setup_s", "peak_rss_mb"];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["sim-pr", "prep-cold", "figures-grid", "serve-mix"];

/// Run parameters shared by every workload.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Requested measuring time.
    pub seconds: f64,
    /// Records spans in the traced run; disabled otherwise.
    pub tracer: Tracer,
    /// Always disabled: used by the untraced passes of a traced run.
    pub off: Tracer,
    /// Host threads (`chg_bench::default_threads`).
    pub threads: usize,
    /// Scratch directory inside the checkout (disk caches, span files).
    pub work_dir: PathBuf,
    /// The `chgraphd` binary (serve-mix only).
    pub chgraphd: Option<PathBuf>,
}

impl Ctx {
    /// Timed passes for a workload whose pass takes about `nominal_s` at
    /// the commit that defined the benchmark: a fixed amount of work per
    /// `--seconds`, so every run of one commit measures the same passes.
    pub fn passes(&self, nominal_s: f64) -> usize {
        ((self.seconds / nominal_s).round() as usize).max(2)
    }

    /// The tracer for timed pass `i`: a traced run interleaves untraced and
    /// traced passes (untraced, traced, traced, untraced, ...), so both
    /// costs come from the same process and a steady drift in host speed
    /// cancels out of the overhead.
    pub fn pass_tracer(&self, i: usize) -> &Tracer {
        if self.is_traced_pass(i) {
            &self.tracer
        } else {
            &self.off
        }
    }

    /// Whether timed pass `i` is traced.
    pub fn is_traced_pass(&self, i: usize) -> bool {
        self.tracer.enabled() && matches!(i % 4, 1 | 2)
    }
}

/// One end-to-end metric as printed.
pub struct Metric {
    /// Name (see the README).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Samples it was computed from.
    pub samples: usize,
    /// Extra detail, e.g. the tail percentile.
    pub detail: String,
}

impl Metric {
    /// A metric without extra detail.
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric { name, unit, value, samples, detail: String::new() }
    }
}

/// What a workload run produced.
pub struct Outcome {
    /// End-to-end metrics (every gated one plus the workload's own).
    pub metrics: Vec<Metric>,
    /// Per-layer metrics (filled in the traced run).
    pub layers: layers::Layers,
    /// The correctness tally.
    pub check: check::Checker,
    /// Extra report lines.
    pub notes: Vec<String>,
    /// Traced run only: whether traced passes reproduced the untraced
    /// passes' simulated statistics.
    pub traced_identical: bool,
}

/// Wall-clock seconds of `work`.
pub fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = work();
    (out, t.elapsed().as_secs_f64())
}

/// What one set-up repetition or timed pass cost.
#[derive(Clone, Copy, Debug)]
pub struct Cost {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU seconds of the processes doing the work (see [`cpu`]).
    pub cpu_s: f64,
    /// Median CPU seconds of the host kernel run just before and just after
    /// the work (see [`host`]).
    pub kernel_s: f64,
}

/// The median CPU seconds of `costs`, in reference-host seconds: scaled by
/// [`host::scale`] over the kernel times around the same pieces of work.
fn scaled_cpu_s(costs: &[Cost]) -> Option<f64> {
    let cpu = stats::median(&costs.iter().map(|c| c.cpu_s).collect::<Vec<_>>())?;
    Some(cpu * host::scale(&costs.iter().map(|c| c.kernel_s).collect::<Vec<_>>()))
}

/// Peak resident memory of process `pid` (`self` for this one), in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The `setup_s` metric: the median CPU seconds of the set-up
/// repetitions, in reference-host seconds (see [`host`]). Each repetition's
/// raw CPU and wall time and kernel time are printed beside it.
pub fn setup_metric(reps: &[Cost]) -> Metric {
    let mut m = Metric::new("setup_s", "s", scaled_cpu_s(reps).expect("set-up ran"), reps.len());
    m.detail = format!("cpu/wall/kernel per rep {}", cost_list(reps));
    m
}

/// The `cpu_s` metric (in reference-host seconds, see [`host`]) and the
/// `wall_s` metric, medians over the untraced timed passes, and the tracing
/// overhead: the median wall time of a traced pass minus that of an
/// untraced one.
pub fn pass_metrics(ctx: &Ctx, passes: &[Cost]) -> (Vec<Metric>, Option<f64>) {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for (i, &c) in passes.iter().enumerate() {
        if ctx.is_traced_pass(i) {
            traced.push(c);
        } else {
            plain.push(c);
        }
    }
    let median =
        |cs: &[Cost], f: fn(&Cost) -> f64| stats::median(&cs.iter().map(f).collect::<Vec<_>>());
    let cpu = scaled_cpu_s(&plain).expect("at least one untraced pass");
    let wall = median(&plain, |c| c.wall_s).expect("at least one untraced pass");
    let overhead = median(&traced, |c| c.wall_s).map(|t| t - wall);
    let mut m = Metric::new("cpu_s", "s", cpu, plain.len());
    m.detail = format!("cpu/wall/kernel per pass {}", cost_list(passes));
    (vec![m, Metric::new("wall_s", "s", wall, plain.len())], overhead)
}

fn cost_list(costs: &[Cost]) -> String {
    let each = |c: &Cost| format!("{:.3}/{:.3}/{:.4}", c.cpu_s, c.wall_s, c.kernel_s);
    costs.iter().map(each).collect::<Vec<_>>().join(" ")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    chgraphd: Option<PathBuf>,
    work_dir: PathBuf,
    print_pins: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: chg-perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>\n\
         \x20                    [--chgraphd <path>] [--work-dir <dir>]\n\
         \x20      chg-perfbench --print-pins   (regenerate pins.txt for the default seed)",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        chgraphd: None,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
        print_pins: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-pins" {
            args.print_pins = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "bad --seconds")?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--chgraphd" => args.chgraphd = Some(PathBuf::from(value)),
            "--work-dir" => args.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.print_pins && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if args.print_pins {
        print!("{}", sim::print_pins());
        return ExitCode::SUCCESS;
    }
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("error: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        off: Tracer::new(false),
        threads: chg_bench::default_threads(),
        work_dir: args.work_dir,
        chgraphd: args.chgraphd,
    };
    let outcome = match args.workload.as_str() {
        "sim-pr" => sim::sim_pr(&ctx),
        "prep-cold" => sim::prep_cold(&ctx),
        "figures-grid" => sim::figures_grid(&ctx),
        "serve-mix" => serve::serve_mix(&ctx),
        _ => unreachable!("workload validated in parse_args"),
    };
    let outcome = match outcome {
        Ok(o) if o.check.attempted > 0 => o,
        Ok(_) => {
            eprintln!("error: no operation was checked");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if ctx.tracer.enabled() {
        let path = ctx.work_dir.join(format!("spans-{}-seed{}.tsv", args.workload, ctx.seed));
        match ctx.tracer.write_tsv(&path) {
            Ok(()) => println!("spans: {} written to {}", ctx.tracer.spans().len(), path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
    report(&args.workload, &ctx, outcome);
    ExitCode::SUCCESS
}

/// Prints the human-readable report and, last, the JSON result line.
fn report(workload: &str, ctx: &Ctx, mut out: Outcome) {
    let host = chg_bench::HostMeta::collect();
    println!(
        "workload {workload}  seed {}  seconds {}  trace {}  threads {}",
        ctx.seed,
        ctx.seconds,
        ctx.tracer.enabled() as u8,
        ctx.threads
    );
    println!(
        "host: {}",
        Json::obj(vec![
            ("cpu", Json::Str(host.cpu.clone())),
            ("available_cores", Json::U64(host.available_cores as u64)),
            ("os", Json::Str(host.os.clone())),
            ("arch", Json::Str(host.arch.clone())),
            ("date", Json::Str(host.date())),
        ])
    );
    let error_rate = stats::error_rate(out.check.failed, out.check.attempted);
    out.metrics.push(Metric::new("error_rate", "ratio", error_rate, out.check.attempted as usize));
    for m in &out.metrics {
        println!(
            "  {:<20} {:>16.6} {:<6} n={}{}",
            m.name,
            m.value,
            m.unit,
            m.samples,
            if m.detail.is_empty() { String::new() } else { format!("  ({})", m.detail) }
        );
    }
    for note in &out.notes {
        println!("{note}");
    }
    println!(
        "checked {} operations, {} failed, {} failing cells",
        out.check.attempted,
        out.check.failed,
        out.check.failures.len()
    );
    for (cell, why) in &out.check.failures {
        println!("  FAIL {cell}: {why}");
    }
    let mut correct = out.check.failed == 0;
    let metrics: Vec<(String, Json)> = if ctx.tracer.enabled() {
        if !out.traced_identical {
            println!("  FAIL traced passes changed simulated statistics");
            correct = false;
        }
        println!("per-layer:");
        out.layers
            .finish()
            .into_iter()
            .map(|(name, unit, value)| {
                println!("  {name:<34} {value:>18.6} {unit}");
                (name.to_string(), value_json(value, unit))
            })
            .collect()
    } else {
        GATED
            .iter()
            .map(|&name| {
                let m = out
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .expect("every workload reports every gated metric");
                (name.to_string(), value_json(m.value, m.unit))
            })
            .collect()
    };
    let result = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::U64(out.check.attempted)),
        ("failed".to_string(), Json::U64(out.check.failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    println!("{result}");
}

fn value_json(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::F64(value)), ("unit", Json::Str(unit.to_string()))])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// and workloads this program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the package");
        let doc = chg_serve::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| e.get(field).and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads", "name"), WORKLOADS);
        let mut gated = names("end_to_end", "name");
        gated.sort();
        let mut want: Vec<&str> = GATED.to_vec();
        want.sort();
        assert_eq!(gated, want);
        let per_layer: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| {
                let f = |k: &str| e.get(k).and_then(Json::as_str).unwrap().to_string();
                (f("name"), f("unit"), f("better"))
            })
            .collect();
        let want: Vec<(String, String, String)> = layers::PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(per_layer, want);
    }
}
