//! The `serve-mix` workload: a closed loop of client connections against a
//! `chgraphd` started in set-up.

use crate::check::{cell, Checker};
use crate::host::HostClock;
use crate::layers::{Layers, PASS, SETUP};
use crate::sim::splitmix64;
use crate::stats::{median, ratio, tail};
use crate::trace::{SpanId, Tracer};
use crate::{cpu, pass_metrics, peak_rss_mb, timed, Ctx, Metric, Outcome, SETUP_REPS};
use chg_bench::{load_scaled, Scale};
use chg_serve::{ArtifactSource, Client, ClientError, RunRequest, RunResult, StatsReport};
use chgraph::{ExecutionReport, PreparedOags, RunConfig};
use hyperalgos::Workload;
use hypergraph::datasets::Dataset;
use oag::OagConfig;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Dataset scale of every request: short requests on warm artifacts.
const SCALE: f64 = 0.1;
/// One heavy-overlap and one light-overlap stand-in, fixed by name.
const DATASETS: [Dataset; 2] = [Dataset::LiveJournal, Dataset::WebTrackers];
const ALGOS: [Workload; 3] = [Workload::Bfs, Workload::Bc, Workload::Mis];
const RUNTIMES: [&str; 2] = ["hygra", "chgraph"];
/// Fresh `W_min` values a miss draws from, per dataset. The daemon's OAG
/// LRU (8 entries) holds the two warm keys and the six most recent misses,
/// so a value comes round again only after it has been evicted.
const MISS_W_MIN: std::ops::RangeInclusive<u32> = 4..=19;
/// Each pass sends every warm kind (algorithm × runtime × dataset) this
/// many times...
const WARM_REPEATS: usize = 7;
/// ...and each miss kind (algorithm × dataset, under chgraph) this many
/// times: 12 misses in 96 requests, one in eight.
const MISS_REPEATS: usize = 2;
/// Daemon workers and client connections.
const WORKERS: usize = 2;
/// Nominal pass time at the commit that defined the benchmark.
const SERVE_PASS_S: f64 = 0.6;

fn algo_wire(w: Workload) -> &'static str {
    match w {
        Workload::Bfs => "bfs",
        Workload::Bc => "bc",
        Workload::Mis => "mis",
        _ => unreachable!("serve-mix sends bfs, bc and mis"),
    }
}

/// One request of the schedule.
#[derive(Clone, Copy, Debug)]
struct Req {
    id: u64,
    algo: Workload,
    runtime: &'static str,
    dataset: Dataset,
    /// `Some` for a miss: a `W_min` the daemon does not hold.
    w_min: Option<u32>,
}

impl Req {
    fn wire(&self) -> RunRequest {
        let mut r = RunRequest::new(algo_wire(self.algo), self.runtime, self.dataset.abbrev());
        r.scale = SCALE;
        r.wmin = self.w_min;
        r
    }

    fn cell(&self) -> String {
        let w = self.w_min.unwrap_or(OagConfig::new().w_min);
        cell("serve-mix", self.algo.abbrev(), self.dataset.abbrev(), w, self.runtime)
    }
}

/// Seeded generator for the request order and miss schedule.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

fn warm_kinds() -> Vec<Req> {
    let mut v = Vec::new();
    for dataset in DATASETS {
        for algo in ALGOS {
            for runtime in RUNTIMES {
                v.push(Req { id: 0, algo, runtime, dataset, w_min: None });
            }
        }
    }
    v
}

/// The request schedule: `passes` shuffled passes of every warm kind
/// `WARM_REPEATS` times plus `MISS_REPEATS` misses per (algorithm,
/// dataset), whose `W_min` values walk a seeded permutation of
/// `MISS_W_MIN` per dataset.
fn schedule(seed: u64, passes: usize) -> Vec<Vec<Req>> {
    let mut rng = Rng(seed ^ 0x5E_57E0_u64);
    let pools: Vec<Vec<u32>> = DATASETS
        .iter()
        .map(|_| {
            let mut p: Vec<u32> = MISS_W_MIN.collect();
            rng.shuffle(&mut p);
            p
        })
        .collect();
    let mut cursor = vec![0usize; DATASETS.len()];
    let mut id = 0u64;
    (0..passes)
        .map(|_| {
            let mut pass = Vec::new();
            for _ in 0..WARM_REPEATS {
                pass.extend(warm_kinds());
            }
            for _ in 0..MISS_REPEATS {
                for (d, &dataset) in DATASETS.iter().enumerate() {
                    for algo in ALGOS {
                        let w = pools[d][cursor[d] % pools[d].len()];
                        cursor[d] += 1;
                        pass.push(Req { id: 0, algo, runtime: "chgraph", dataset, w_min: Some(w) });
                    }
                }
            }
            rng.shuffle(&mut pass);
            for r in &mut pass {
                r.id = id;
                id += 1;
            }
            pass
        })
        .collect()
}

/// Computes every cell serve-mix can request in process, exactly as the
/// daemon does, and hands each result to `emit` (for `--print-pins`).
pub fn pin_cells(mut emit: impl FnMut(String, Result<ExecutionReport, String>)) {
    for dataset in DATASETS {
        let g = load_scaled(dataset, Scale(SCALE));
        for w_min in std::iter::once(None).chain(MISS_W_MIN.map(Some)) {
            let cfg = match w_min {
                Some(w) => RunConfig::new().with_oag(OagConfig::new().with_w_min(w)),
                None => RunConfig::new(),
            };
            let p = PreparedOags::build(&g, &cfg);
            let runtimes: &[&'static str] = if w_min.is_some() { &["chgraph"] } else { &RUNTIMES };
            for algo in ALGOS {
                for &runtime in runtimes {
                    let req = Req { id: 0, algo, runtime, dataset, w_min };
                    emit(req.cell(), crate::sim::run(algo, runtime, &g, &cfg, Some(&p)));
                }
            }
        }
    }
}

/// A running `chgraphd`; killed on drop if it was not stopped.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn start(bin: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &WORKERS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("chgraphd exited before listening".into());
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.strip_prefix("chgraphd listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or_default().to_string();
                return Ok(Daemon { child, _stdout: stdout, addr });
            }
        }
    }

    /// Asks the daemon to drain and waits for it to exit.
    fn stop(&mut self) -> Result<(), String> {
        let mut c = Client::connect(self.addr.as_str()).map_err(|e| format!("connect: {e}"))?;
        c.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("chgraphd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("chgraphd did not drain within 30 s".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Starts a daemon and sends it the warm set (every warm kind once).
fn start_warm(
    bin: &Path,
    tr: &Tracer,
    root: Option<SpanId>,
) -> Result<(Daemon, Vec<Done>), String> {
    let d = tr.span("serve.start", root, None, |_| Daemon::start(bin))?;
    let mut c = Some(
        Client::connect_ready(d.addr.as_str(), Duration::from_secs(30))
            .map_err(|e| format!("connect: {e}"))?,
    );
    let warm = warm_kinds()
        .into_iter()
        .map(|req| {
            let (result, rtt_s) =
                timed(|| tr.span("serve.request", root, None, |_| send(&mut c, &d.addr, &req)));
            Done { req, rtt_s, result }
        })
        .collect();
    Ok((d, warm))
}

/// What one request came back with.
struct Done {
    req: Req,
    rtt_s: f64,
    result: Result<RunResult, String>,
}

fn send(client: &mut Option<Client>, addr: &str, req: &Req) -> Result<RunResult, String> {
    if client.is_none() {
        *client = Some(Client::connect(addr).map_err(|e| format!("connect: {e}"))?);
    }
    let c = client.as_mut().expect("connected above");
    match c.run(req.wire()) {
        Ok(r) => Ok(r),
        Err(e) => {
            // A broken connection is replaced for the next request.
            if !matches!(e, ClientError::Server { .. }) {
                *client = None;
            }
            Err(format!("{e}"))
        }
    }
}

fn check_reply(check: &mut Checker, d: &Done) {
    let fp = d.result.as_ref().map_err(Clone::clone).and_then(|r| {
        u64::from_str_radix(&r.fingerprint, 16)
            .map_err(|_| format!("bad fingerprint {:?}", r.fingerprint))
    });
    check.check(&d.req.cell(), fp);
}

fn stats(addr: &str) -> Result<StatsReport, String> {
    Client::connect(addr).and_then(|mut c| c.stats()).map_err(|e| format!("stats: {e}"))
}

/// BFS, BC and MIS under hygra and chgraph at scale 0.1 on LJ and WEB; one
/// request in eight names a `W_min` the daemon does not hold and pays for
/// an OAG build. The seed drives the request order and the miss schedule;
/// the daemon's datasets are fixed by name.
pub fn serve_mix(ctx: &Ctx) -> Result<Outcome, String> {
    let bin = ctx.chgraphd.as_deref().ok_or("serve-mix needs --chgraphd <path>")?;
    let tr = &ctx.tracer;
    let clients = WORKERS.min(ctx.threads).max(1);
    let mut check = Checker::pinned("serve-mix/");

    // Set-up: start the daemon, send the warm set and stop it again, so its
    // CPU time is counted once it has exited. The daemon the passes use is
    // started the same way and kept.
    let mut clock = HostClock::new();
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        let (warm, cost) = clock.measure(
            || cpu::process() + cpu::children(),
            || {
                tr.span(SETUP, None, None, |root| {
                    let (mut d, warm) = start_warm(bin, tr, root)?;
                    d.stop()?;
                    Ok::<_, String>(warm)
                })
            },
        );
        setup.push(cost);
        for w in &warm? {
            check_reply(&mut check, w);
        }
    }
    let (mut daemon, warm) = start_warm(bin, &ctx.off, None)?;
    for w in &warm {
        check_reply(&mut check, w);
    }
    let (addr, pid) = (daemon.addr.clone(), daemon.child.id());

    let n = ctx.passes(SERVE_PASS_S);
    let plan = schedule(ctx.seed, n);
    let before = stats(&addr)?;
    let conns: Vec<Mutex<Option<Client>>> = (0..clients)
        .map(|_| {
            Client::connect(addr.as_str())
                .map(Some)
                .map(Mutex::new)
                .map_err(|e| format!("connect: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let mut passes = Vec::new();
    let mut done: Vec<Done> = Vec::new();
    for (i, reqs) in plan.iter().enumerate() {
        let ptr = ctx.pass_tracer(i);
        let slots: Vec<Mutex<Option<Done>>> = reqs.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let ((), cost) = clock.measure(
            || cpu::process() + cpu::live_threads(pid),
            || {
                ptr.span(PASS, None, None, |root| {
                    std::thread::scope(|s| {
                        for conn in &conns {
                            let (next, slots, addr) = (&next, &slots, addr.as_str());
                            s.spawn(move || {
                                let mut conn = conn.lock().expect("one thread per connection");
                                loop {
                                    let k = next.fetch_add(1, Ordering::Relaxed);
                                    let Some(req) = reqs.get(k) else { break };
                                    let (result, rtt_s) = timed(|| {
                                        ptr.span("serve.request", root, Some(req.id), |_| {
                                            send(&mut conn, addr, req)
                                        })
                                    });
                                    *slots[k].lock().expect("slot written once") =
                                        Some(Done { req: *req, rtt_s, result });
                                }
                            });
                        }
                    });
                })
            },
        );
        passes.push(cost);
        for slot in slots {
            done.push(slot.into_inner().expect("no panics").expect("every request was sent"));
        }
    }
    drop(conns);
    let after = stats(&addr)?;
    let rss = peak_rss_mb(&pid.to_string()).unwrap_or(0.0);
    daemon.stop()?;

    // Correctness, and traced passes against untraced ones.
    let mut seen: HashMap<String, String> = HashMap::new();
    let mut traced_identical = true;
    for d in &done {
        check_reply(&mut check, d);
        if let Ok(r) = &d.result {
            let prev = seen.entry(d.req.cell()).or_insert_with(|| r.fingerprint.clone());
            traced_identical &= *prev == r.fingerprint;
        }
    }

    let ms = |d: &Done| if d.result.is_ok() { d.rtt_s * 1e3 } else { f64::INFINITY };
    let latencies: Vec<f64> = done.iter().map(ms).collect();
    let ok = done.iter().filter(|d| d.result.is_ok()).count();
    let (timed_metrics, overhead) = pass_metrics(ctx, &passes);
    let total: f64 = passes.iter().map(|c| c.wall_s).sum();
    let mut metrics = vec![crate::setup_metric(&setup)];
    metrics.extend(timed_metrics);
    metrics.extend([
        Metric::new("peak_rss_mb", "MB", rss, 1),
        Metric::new("req_per_s", "1/s", ok as f64 / total, done.len()),
        Metric::new("latency_p50_ms", "ms", median(&latencies).unwrap_or(0.0), latencies.len()),
    ]);
    if let Some(t) = tail(&latencies) {
        let mut m = Metric::new("latency_tail_ms", "ms", t.value, t.samples);
        m.detail = format!("p{:.1} of {}", t.percentile, t.samples);
        metrics.push(m);
    }

    let mut layers = Layers::default();
    if ctx.tracer.enabled() {
        serve_layers(&mut layers, &done, &before, &after, n as f64);
        layers.set("trace.overhead_s", overhead.unwrap_or(0.0));
        layers.add_span_times(&ctx.tracer.spans());
    }
    Ok(Outcome { metrics, layers, check, notes: Vec::new(), traced_identical })
}

/// Per-layer metrics of serve-mix: exact per-request times from each reply
/// and the daemon's counters over the timed section, per pass.
fn serve_layers(
    l: &mut Layers,
    done: &[Done],
    before: &StatsReport,
    after: &StatsReport,
    passes: f64,
) {
    let ok: Vec<(&Req, f64, &RunResult)> = done
        .iter()
        .filter_map(|d| d.result.as_ref().ok().map(|r| (&d.req, d.rtt_s * 1e3, r)))
        .collect();
    let p50 = |v: Vec<f64>| median(&v).unwrap_or(0.0);
    l.set(
        "serve.prepare_ms_p50",
        p50(ok.iter().map(|(_, _, r)| r.prepare_micros as f64 / 1e3).collect()),
    );
    l.set(
        "serve.execute_ms_p50",
        p50(ok.iter().map(|(_, _, r)| r.execute_micros as f64 / 1e3).collect()),
    );
    l.set(
        "serve.overhead_ms_p50",
        p50(ok
            .iter()
            .map(|(_, rtt, r)| rtt - (r.prepare_micros + r.execute_micros) as f64 / 1e3)
            .collect()),
    );
    let by_source = |s: ArtifactSource| {
        p50(ok.iter().filter(|(_, _, r)| r.artifact_source == s).map(|(_, rtt, _)| *rtt).collect())
    };
    l.set("serve.hit_latency_ms_p50", by_source(ArtifactSource::LruHit));
    l.set("serve.miss_latency_ms_p50", by_source(ArtifactSource::Built));
    l.set("serve.queue_wait_ms_p50", after.queue_wait_latency.p50_micros as f64 / 1e3);
    for (req, _, r) in &ok {
        let span = if req.runtime == "hygra" {
            "chgraph.execute_s.hygra"
        } else {
            "chgraph.execute_s.chgraph"
        };
        l.add(span, r.execute_micros as f64 / 1e6 / passes);
        l.add("chgraph.iterations", r.iterations as f64 / passes);
        l.add("archsim.dram_accesses", r.dram_accesses as f64 / passes);
        l.add("archsim.sim_cycles", r.cycles as f64 / passes);
    }
    let (a, b) = (&after.artifacts, &before.artifacts);
    let hits = (a.graph_hits + a.oag_hits - b.graph_hits - b.oag_hits) as f64;
    let misses = (a.graph_misses + a.oag_misses - b.graph_misses - b.oag_misses) as f64;
    l.set("serve.artifact_hits", hits / passes);
    l.set("serve.artifact_misses", misses / passes);
    l.set("serve.artifact_hit_ratio", ratio(hits, hits + misses));
    l.set("serve.coalesced", (a.coalesced - b.coalesced) as f64 / passes);
    l.set("serve.evictions", (a.evictions - b.evictions) as f64 / passes);
    let (a, b) = (&after.requests, &before.requests);
    l.set("serve.rejected_overload", (a.rejected_overload - b.rejected_overload) as f64 / passes);
    l.set("serve.protocol_errors", (a.protocol_errors - b.protocol_errors) as f64 / passes);
    l.set("serve.deduped", (a.deduped - b.deduped) as f64 / passes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_one_in_eight_misses() {
        let a = schedule(7, 3);
        let b = schedule(7, 3);
        let c = schedule(8, 3);
        let key =
            |p: &Vec<Vec<Req>>| -> Vec<String> { p.iter().flatten().map(Req::cell).collect() };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        for pass in &a {
            assert_eq!(pass.len(), 96);
            assert_eq!(pass.iter().filter(|r| r.w_min.is_some()).count(), 12);
        }
        // Request ids are unique across the run.
        let mut ids: Vec<u64> = a.iter().flatten().map(|r| r.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 3 * 96);
    }

    #[test]
    fn a_miss_key_returns_only_after_the_lru_evicted_it() {
        // The OAG LRU holds 8 keys: the two warm ones and the six most
        // recent misses. A miss key must not recur within six misses.
        for seed in 0..20 {
            let plan = schedule(seed, 8);
            let misses: Vec<(Dataset, u32)> =
                plan.iter().flatten().filter_map(|r| r.w_min.map(|w| (r.dataset, w))).collect();
            let mut last: HashMap<(Dataset, u32), usize> = HashMap::new();
            for (i, key) in misses.iter().enumerate() {
                if let Some(j) = last.insert(*key, i) {
                    assert!(i - j > 6, "seed {seed}: {key:?} recurs after {} misses", i - j);
                }
            }
        }
    }
}
