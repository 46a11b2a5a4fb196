//! One serving benchmark for the MicroScopiQ runtime.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <chat-http|batch-decode|rag-long> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` deploys the serving stack (set up nine times, four before
//! the traffic and five after; the median is `setup_s`), drives it with
//! the workload for `--seconds`, checks a sample of the outputs bitwise
//! against an offline session, and prints the end-to-end metrics. `--trace 1` runs the workload twice on fresh
//! deployments, half the time each — untraced, then through the traced
//! engine — and prints the per-layer metrics. The last stdout line is
//! one JSON object; any output mismatch or failed self-check makes the
//! exit code non-zero. `perfbench/DESIGN.md` documents the choices.

mod check;
mod deploy;
mod drive;
mod stats;
mod trace;
mod workload;

use check::{check_outputs, compare_runs};
use deploy::{deploy, Deployment, MODEL};
use drive::{Obs, Shared, Window};
use microscopiq_runtime::{HistogramSnapshot, MetricsSnapshot, RuntimeEngine};
use stats::{beyond, current_tid, now_ns, percentile};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use trace::{layer_table, profile_steps, Call, LayerInfo, TracedEngine, KERNELS, KINDS};
use workload::{Mix, Spec, Traffic};

/// Deployments per `--trace 0` run; `setup_s` is their median. The
/// first `SETUPS_BEFORE` come before the traffic (the last of them is the
/// one driven) and the rest after it, so the median samples host speed,
/// which drifts at second to minute scale, across the whole run.
const SETUPS: usize = 9;
const SETUPS_BEFORE: usize = 4;
/// Traffic runs this long before the window opens, so the decoded-tile
/// cache, the prefix cache and the batch reach steady state.
const WARMUP_NS: u64 = 2_000_000_000;
/// Minimum share of traced step wall time the attributed classes must
/// cover.
const MIN_COVERAGE: f64 = 0.95;

struct Args {
    mix: Mix,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let mix = Mix::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let num = |flag: &str| -> Result<f64, String> {
        get(flag)?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        mix,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// Process, generator and host state at one window edge.
struct Edge {
    proc_cpu: f64,
    gen_cpu: f64,
    steal: u64,
    ticks: u64,
    snap: MetricsSnapshot,
}

fn edge(tids: &[u32], dep: &Deployment) -> Edge {
    let (steal, ticks) = stats::host_ticks();
    let proc_cpu = stats::process_cpu_s();
    let gen_cpu = tids.iter().map(|&tid| stats::thread_cpu_s(tid)).sum();
    Edge {
        proc_cpu,
        gen_cpu,
        steal,
        ticks,
        snap: dep.server.fleet().worker(0).metrics_snapshot(),
    }
}

/// One driven deployment: observations plus the window edges.
struct RunData {
    window: Window,
    obs: Vec<Obs>,
    issued: Vec<microscopiq_runtime::GenRequest>,
    start: Edge,
    end: Edge,
    /// Server snapshot once every stream drained.
    last: MetricsSnapshot,
    peak_rss_mb: f64,
}

fn sleep_until(t: u64) {
    let now = now_ns();
    if t > now {
        std::thread::sleep(Duration::from_nanos(t - now));
    }
}

fn drive(dep: &Deployment, spec: Spec, seed: u64, seconds: f64) -> RunData {
    let traffic = Mutex::new(Traffic::new(spec, seed, MODEL.vocab));
    let results = Mutex::new(Vec::new());
    // The coordinating thread counts as load generator too.
    let tids = Mutex::new(vec![current_tid()]);
    let released = AtomicBool::new(false);
    let origin = now_ns();
    let w0 = origin + WARMUP_NS;
    let window = Window {
        w0,
        w1: w0 + (seconds * 1e9) as u64,
    };
    let shared = Shared {
        spec,
        traffic: &traffic,
        window,
        origin,
        results: &results,
        tids: &tids,
        released: &released,
        counted_live: AtomicUsize::new(0),
    };
    let fleet = dep.server.fleet();
    let addr = dep.server.addr();
    let (start, end) = std::thread::scope(|s| {
        s.spawn(|| drive::run(&shared, addr, &fleet));
        let expected = 1 + if spec.mix == Mix::ChatHttp {
            spec.clients
        } else {
            1
        };
        while tids.lock().expect("tids").len() < expected {
            std::thread::sleep(Duration::from_millis(1));
        }
        let tid_list = tids.lock().expect("tids").clone();
        sleep_until(window.w0);
        let start = edge(&tid_list, dep);
        sleep_until(window.w1);
        let end = edge(&tid_list, dep);
        released.store(true, Ordering::SeqCst);
        (start, end)
    });
    drop(fleet);
    let last = dep.server.fleet().worker(0).metrics_snapshot();
    let mut obs = results.into_inner().expect("results");
    obs.sort_by_key(|o| o.idx);
    RunData {
        window,
        obs,
        issued: traffic.into_inner().expect("traffic").issued().to_vec(),
        start,
        end,
        last,
        peak_rss_mb: stats::peak_rss_mb(),
    }
}

/// Client-side figures of one run.
struct Client {
    secs: f64,
    counted: usize,
    ok: usize,
    failed: usize,
    refused: usize,
    tokens_in_window: usize,
    tokens_total: usize,
    ttft_ms: Vec<f64>,
    itl_ms: Vec<f64>,
    slo_met: usize,
    cpu_ms_per_token: f64,
    gen_cpu_frac: f64,
    steal_frac: f64,
}

fn client_figures(spec: &Spec, run: &RunData) -> Client {
    let w = run.window;
    let secs = (w.w1 - w.w0) as f64 / 1e9;
    let counted: Vec<&Obs> = run.obs.iter().filter(|o| o.counted(w)).collect();
    let tokens_in_window = run
        .obs
        .iter()
        .flat_map(|o| o.token_at.iter())
        .filter(|&&t| t >= w.w0 && t < w.w1)
        .count();
    let mut ttft_ms = Vec::new();
    let mut itl_ms = Vec::new();
    let mut slo_met = 0;
    for o in &counted {
        let Some(&first) = o.token_at.first() else {
            continue;
        };
        let ttft = (first - o.due) as f64 / 1e6;
        ttft_ms.push(ttft);
        let own: Vec<f64> = o
            .token_at
            .windows(2)
            .map(|p| (p[1] - p[0]) as f64 / 1e6)
            .collect();
        if o.ok() && ttft <= spec.slo_ttft_ms && percentile(&own, 99.0) <= spec.slo_itl_ms {
            slo_met += 1;
        }
        itl_ms.extend(own);
    }
    let proc_cpu = run.end.proc_cpu - run.start.proc_cpu;
    let gen_cpu = run.end.gen_cpu - run.start.gen_cpu;
    let ok = counted.iter().filter(|o| o.ok()).count();
    Client {
        secs,
        counted: counted.len(),
        ok,
        failed: counted.len() - ok,
        refused: counted.iter().filter(|o| o.refused).count(),
        tokens_in_window,
        tokens_total: run.obs.iter().map(|o| o.tokens.len()).sum(),
        ttft_ms,
        itl_ms,
        slo_met,
        cpu_ms_per_token: (proc_cpu - gen_cpu) * 1e3 / tokens_in_window.max(1) as f64,
        gen_cpu_frac: gen_cpu / proc_cpu.max(1e-9),
        steal_frac: (run.end.steal - run.start.steal) as f64
            / (run.end.ticks - run.start.ticks).max(1) as f64,
    }
}

/// Ordered `(name, value, unit)` rows of a result.
type Metrics = Vec<(String, f64, &'static str)>;

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn report(metrics: &Metrics) {
    for (name, value, unit) in metrics {
        println!("  {name:<36} {value:>14.4} {unit}");
    }
}

/// Self-check outcomes; any failure fails the run.
#[derive(Default)]
struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn require(&mut self, ok: bool, what: String) {
        println!("  check {:<4} {what}", if ok { "ok" } else { "FAIL" });
        if !ok {
            self.failures.push(what);
        }
    }
}

/// Output check plus the server-counter identity, shared by both modes.
/// Returns the checks and how many requests counted in the window failed
/// or were served wrong.
fn common_checks(
    dep: &Deployment,
    spec: &Spec,
    seed: u64,
    run: &RunData,
    c: &Client,
) -> (Checks, usize) {
    let mut checks = Checks::default();
    let out = check_outputs(&dep.model, spec, seed, &run.issued, &run.obs);
    println!(
        "  outputs: {} recomputed offline ({} digest requests + {} seeded sample of {} completed)",
        out.checked,
        spec.digest_requests,
        out.sampled,
        run.obs.iter().filter(|o| o.ok()).count()
    );
    println!(
        "  digest of the first {} requests: {:016x}",
        spec.digest_requests, out.digest
    );
    checks.require(
        out.mismatched.is_empty(),
        format!(
            "served tokens equal the offline session (mismatched: {:?})",
            out.mismatched
        ),
    );
    let streamed = run.last.counter("microscopiq_tokens_streamed_total");
    checks.require(
        streamed == c.tokens_total as u64,
        format!(
            "client-counted tokens {} == microscopiq_tokens_streamed_total {}",
            c.tokens_total, streamed
        ),
    );
    for o in run.obs.iter().filter(|o| !o.ok()).take(3) {
        println!("  request {} failed: {:?}", o.idx, o.error);
    }
    let failed = run
        .obs
        .iter()
        .filter(|o| o.counted(run.window) && (!o.ok() || out.mismatched.contains(&o.idx)))
        .count();
    (checks, failed)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    stats::epoch();
    let spec = args.mix.spec();
    let ok = if args.trace {
        run_traced(&args, &spec)
    } else {
        run_untraced(&args, &spec)
    };
    if !ok {
        std::process::exit(1);
    }
}

fn untraced_deploy() -> Deployment {
    deploy(|_| |_| RuntimeEngine::parallel())
}

/// An untraced deployment whose set-up time is added to `setups`.
fn timed_deploy(setups: &mut Vec<f64>) -> Deployment {
    let d = untraced_deploy();
    setups.push(d.setup_s());
    d
}

fn run_untraced(args: &Args, spec: &Spec) -> bool {
    let mut setups = Vec::new();
    for _ in 1..SETUPS_BEFORE {
        timed_deploy(&mut setups).server.shutdown();
    }
    let dep = timed_deploy(&mut setups);
    let run = drive(&dep, *spec, args.seed, args.seconds);
    let c = client_figures(spec, &run);
    println!(
        "workload {} seed {}: sent {} ok {} failed {} (refused {}) in a {:.1} s window",
        spec.name, args.seed, c.counted, c.ok, c.failed, c.refused, c.secs
    );
    println!(
        "  samples: ttft {} ({} beyond p90), itl {} ({} beyond p99); host steal {:.3}, generator cpu share {:.3}",
        c.ttft_ms.len(),
        beyond(&c.ttft_ms, 90.0),
        c.itl_ms.len(),
        beyond(&c.itl_ms, 99.0),
        c.steal_frac,
        c.gen_cpu_frac
    );
    let (checks, failed) = common_checks(&dep, spec, args.seed, &run, &c);
    dep.server.shutdown();
    for _ in SETUPS_BEFORE..SETUPS {
        timed_deploy(&mut setups).server.shutdown();
    }
    println!("  setups (s): {setups:.3?}");
    let metrics: Metrics = vec![
        ("setup_s".into(), percentile(&setups, 50.0), "s"),
        (
            "output_tok_s".into(),
            c.tokens_in_window as f64 / c.secs,
            "tok/s",
        ),
        ("cpu_ms_per_token".into(), c.cpu_ms_per_token, "ms"),
        ("ttft_p50_ms".into(), percentile(&c.ttft_ms, 50.0), "ms"),
        ("ttft_p90_ms".into(), percentile(&c.ttft_ms, 90.0), "ms"),
        ("itl_p50_ms".into(), percentile(&c.itl_ms, 50.0), "ms"),
        ("itl_p99_ms".into(), percentile(&c.itl_ms, 99.0), "ms"),
        (
            "slo_met_frac".into(),
            c.slo_met as f64 / c.counted.max(1) as f64,
            "fraction",
        ),
        ("peak_rss_mb".into(), run.peak_rss_mb, "MiB"),
        (
            "ok_frac".into(),
            (c.counted - failed) as f64 / c.counted.max(1) as f64,
            "fraction",
        ),
    ];
    report(&metrics);
    let correct = checks.failures.is_empty();
    print_result(correct, c.counted, failed, &metrics);
    correct
}

/// A counter's growth over the window: the whole family, or the one
/// series whose labels include `labels` (every layer is W4, so each
/// kernel and op has a single `bits` series).
fn delta(run: &RunData, name: &str, labels: &[(&str, &str)]) -> f64 {
    let at = |snap: &MetricsSnapshot| {
        if labels.is_empty() {
            snap.counter(name)
        } else {
            snap.counter_with(name, labels).unwrap_or(0)
        }
    };
    (at(&run.end.snap) - at(&run.start.snap)) as f64
}

/// A histogram family (all label series merged) over the window.
fn hist(run: &RunData, name: &str) -> HistogramSnapshot {
    let end = run.end.snap.histogram_merged(name).unwrap_or_default();
    let start = run.start.snap.histogram_merged(name).unwrap_or_default();
    end.since(&start)
}

fn gauge(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.gauge(name).unwrap_or(0) as f64
}

/// Whether the client had a request outstanding over all of `[a, b]`.
fn busy_oracle(obs: &[Obs]) -> impl Fn(u64, u64) -> bool {
    let mut spans: Vec<(u64, u64)> = obs.iter().map(|o| (o.sent, o.done.max(o.sent))).collect();
    spans.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for (a, b) in spans {
        match merged.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => merged.push((a, b)),
        }
    }
    move |a, b| {
        let i = merged.partition_point(|s| s.0 <= a);
        i > 0 && merged[i - 1].1 >= b
    }
}

fn run_traced(args: &Args, spec: &Spec) -> bool {
    let half = args.seconds / 2.0;
    // Untraced reference half.
    let dep_u = untraced_deploy();
    let run_u = drive(&dep_u, *spec, args.seed, half);
    let cu = client_figures(spec, &run_u);
    dep_u.server.shutdown();

    // Traced half on a fresh deployment.
    let log: Arc<Mutex<Vec<Call>>> = Arc::new(Mutex::new(Vec::with_capacity(1 << 18)));
    let mut layers: Arc<Vec<LayerInfo>> = Arc::new(Vec::new());
    let dep = {
        let log = Arc::clone(&log);
        let layers = &mut layers;
        deploy(move |model| {
            *layers = Arc::new(layer_table(model));
            let layers = Arc::clone(layers);
            move |_| TracedEngine::new(Arc::clone(&layers), Arc::clone(&log))
        })
    };
    let run = drive(&dep, *spec, args.seed, half);
    let c = client_figures(spec, &run);
    println!(
        "workload {} seed {} (traced): sent {} ok {} failed {} (refused {}) in a {:.1} s window; untraced half: sent {} ok {}",
        spec.name, args.seed, c.counted, c.ok, c.failed, c.refused, c.secs, cu.counted, cu.ok
    );
    let (mut checks, failed) = common_checks(&dep, spec, args.seed, &run, &c);
    dep.server.shutdown();
    let calls = std::mem::take(&mut *log.lock().expect("call log"));

    let (common, differ) = compare_runs(&run.obs, &run_u.obs);
    checks.require(
        differ.is_empty() && common > 0,
        format!("traced outputs equal untraced outputs on {common} common requests (differ: {differ:?})"),
    );
    let w = run.window;
    let prof = profile_steps(
        &calls,
        &layers,
        MODEL.n_layers,
        w.w0,
        w.w1,
        busy_oracle(&run.obs),
    );
    checks.require(
        prof.coverage() >= MIN_COVERAGE && prof.malformed == 0,
        format!(
            "linears + attention + norm/act + outside-forward cover {:.4} of {} traced steps (>= {MIN_COVERAGE}; malformed {})",
            prof.coverage(),
            prof.complete,
            prof.malformed
        ),
    );
    let hits = delta(&run, "microscopiq_prefix_cache_hits", &[]);
    let misses = delta(&run, "microscopiq_prefix_cache_misses", &[]);
    let reused = delta(&run, "microscopiq_prefix_cache_tokens_reused", &[]);
    let prefill_tokens = delta(&run, "microscopiq_prefill_tokens_total", &[]);
    if spec.mix != Mix::RagLong {
        // Unshared prompts never repeat a leading token pair, so a hit
        // can reuse at most the one first token (a 128-token vocabulary
        // cannot keep first tokens distinct past 128 prompts).
        checks.require(
            reused <= hits,
            format!("bypass workload reuses at most one incidental token per prefix hit ({reused} tokens over {hits} hits)"),
        );
    }

    let in_window = |call: &&Call| call.start >= w.w0 && call.start < w.w1;
    let window_calls: Vec<&Call> = calls.iter().filter(in_window).collect();
    let span_us = |keep: &dyn Fn(&Call) -> bool| -> Vec<f64> {
        window_calls
            .iter()
            .filter(|c| keep(c))
            .map(|c| (c.end - c.start) as f64 / 1e3)
            .collect()
    };
    let linear_s: f64 = window_calls
        .iter()
        .map(|c| (c.end - c.start) as f64 / 1e9)
        .sum();
    let known = |c: &&&Call| (c.layer as usize) < layers.len();
    let macs: f64 = window_calls
        .iter()
        .filter(known)
        .map(|c| {
            let l = &layers[c.layer as usize];
            (l.d_row * l.d_col) as f64 * f64::from(c.m)
        })
        .sum();
    let bytes: f64 = window_calls
        .iter()
        .filter(known)
        .map(|c| layers[c.layer as usize].packed_bytes as f64)
        .sum();
    let per_step = |ns: u64| ns as f64 / 1e6 / prof.complete.max(1) as f64;
    for (k, kernel) in KERNELS.iter().enumerate() {
        for (op, gemv) in [("gemm", false), ("gemv", true)] {
            let us = span_us(&|c| usize::from(c.kernel) == k && (c.m == 1) == gemv);
            if !us.is_empty() {
                println!(
                    "  spans {kernel}.{op}: {} calls, {:.1} ms, p50 {:.1} us",
                    us.len(),
                    us.iter().sum::<f64>() / 1e3,
                    percentile(&us, 50.0)
                );
            }
        }
    }

    let counted: Vec<&Obs> = run.obs.iter().filter(|o| o.counted(w)).collect();
    let is_http = spec.mix == Mix::ChatHttp;
    let head_ms: Vec<f64> = counted
        .iter()
        .filter(|o| o.head > 0)
        .map(|o| (o.head - o.sent) as f64 / 1e6)
        .collect();
    let submit_us: Vec<f64> = counted
        .iter()
        .filter(|o| o.submit_ns > 0)
        .map(|o| o.submit_ns as f64 / 1e3)
        .collect();
    let lag_ms: Vec<f64> = counted
        .iter()
        .map(|o| (o.sent - o.due) as f64 / 1e6)
        .collect();
    let server_ttft_ms = hist(&run, "microscopiq_ttft_us").percentile(50.0) / 1e3;
    let server_itl_ms = hist(&run, "microscopiq_inter_token_us").percentile(50.0) / 1e3;
    let net = |v: f64| if is_http { v } else { 0.0 };
    let cache_hits = delta(&run, "microscopiq_cache_events_total", &[("event", "hit")]);
    let cache_misses = delta(&run, "microscopiq_cache_events_total", &[("event", "miss")]);

    let mut m: Metrics = vec![
        ("setup.quantize_s".into(), dep.quantize_s, "s"),
        ("setup.bind_s".into(), dep.bind_s, "s"),
        (
            "net.head_ms_p50".into(),
            net(percentile(&head_ms, 50.0)),
            "ms",
        ),
        (
            "net.ttft_gap_ms".into(),
            net(percentile(&c.ttft_ms, 50.0) - server_ttft_ms),
            "ms",
        ),
        (
            "net.itl_gap_ms".into(),
            net(percentile(&c.itl_ms, 50.0) - server_itl_ms),
            "ms",
        ),
        ("net.errors".into(), net(c.failed as f64), "count"),
        (
            "server.submit_us_p50".into(),
            percentile(&submit_us, 50.0),
            "us",
        ),
        (
            "server.queue_wait_ms_p50".into(),
            hist(&run, "microscopiq_queue_wait_us").percentile(50.0) / 1e3,
            "ms",
        ),
        (
            "server.queue_wait_ms_p99".into(),
            hist(&run, "microscopiq_queue_wait_us").percentile(99.0) / 1e3,
            "ms",
        ),
        (
            "server.admit_to_first_token_ms_p50".into(),
            hist(&run, "microscopiq_admit_to_first_token_us").percentile(50.0) / 1e3,
            "ms",
        ),
        (
            "server.refused".into(),
            delta(&run, "microscopiq_requests_rejected_total", &[])
                + delta(&run, "microscopiq_requests_shed_total", &[])
                + c.refused as f64,
            "count",
        ),
        (
            "session.steps".into(),
            delta(&run, "microscopiq_scheduler_steps_total", &[]),
            "count",
        ),
        (
            "session.batch_requests_mean".into(),
            hist(&run, "microscopiq_step_batch_requests").mean(),
            "requests",
        ),
        (
            "session.step_tokens_mean".into(),
            hist(&run, "microscopiq_step_new_tokens").mean(),
            "tokens",
        ),
        ("session.prefill_tokens".into(), prefill_tokens, "tokens"),
        (
            "session.prefill_chunks".into(),
            delta(&run, "microscopiq_prefill_chunks_total", &[]),
            "count",
        ),
        (
            "session.preemptions".into(),
            delta(&run, "microscopiq_preemptions_total", &[]),
            "count",
        ),
        (
            "session.recompute_tokens".into(),
            delta(&run, "microscopiq_recompute_tokens_total", &[]),
            "tokens",
        ),
        (
            "session.step_ms_p50".into(),
            percentile(&prof.step_ms, 50.0),
            "ms",
        ),
        (
            "session.step_ms_p99".into(),
            percentile(&prof.step_ms, 99.0),
            "ms",
        ),
        (
            "session.busy_frac".into(),
            prof.busy as f64 / 1e9 / c.secs,
            "fraction",
        ),
        (
            "fm.attention_ms_per_step".into(),
            per_step(prof.attention),
            "ms",
        ),
        (
            "fm.norm_act_ms_per_step".into(),
            per_step(prof.norm_act),
            "ms",
        ),
        (
            "fm.outside_forward_ms_per_step".into(),
            per_step(prof.outside),
            "ms",
        ),
        (
            "kv.peak_bytes".into(),
            gauge(&run.end.snap, "microscopiq_kv_peak_bytes"),
            "bytes",
        ),
    ];
    for (k, kind) in KINDS.iter().enumerate() {
        m.push((
            format!("kernels.{kind}.ms_per_step"),
            per_step(prof.per_kind[k]),
            "ms",
        ));
    }
    m.extend([
        (
            "kernels.linear_frac".into(),
            prof.linear() as f64 / prof.wall.max(1) as f64,
            "fraction",
        ),
        (
            "kernels.gemv_call_us_p50".into(),
            percentile(&span_us(&|c| c.m == 1), 50.0),
            "us",
        ),
        (
            "kernels.gemm_call_us_p50".into(),
            percentile(&span_us(&|c| c.m > 1), 50.0),
            "us",
        ),
        (
            "kernels.gmac_per_s".into(),
            macs / 1e9 / linear_s.max(1e-12),
            "GMAC/s",
        ),
        (
            "kernels.packed_gb_per_s".into(),
            bytes / 1e9 / linear_s.max(1e-12),
            "GB/s",
        ),
    ]);
    for kernel in KERNELS {
        for op in ["gemm", "gemv"] {
            m.push((
                format!("kernels.calls.{kernel}.{op}"),
                delta(
                    &run,
                    "microscopiq_kernel_calls_total",
                    &[("kernel", kernel), ("op", op)],
                ),
                "count",
            ));
        }
    }
    m.extend([
        (
            "cache.hit_ratio".into(),
            cache_hits / (cache_hits + cache_misses).max(1.0),
            "fraction",
        ),
        (
            "cache.resident_bytes".into(),
            gauge(&run.end.snap, "microscopiq_cache_resident_bytes"),
            "bytes",
        ),
        (
            "prefix.hit_ratio".into(),
            hits / (hits + misses).max(1.0),
            "fraction",
        ),
        (
            "prefix.reused_token_frac".into(),
            reused / (reused + prefill_tokens).max(1.0),
            "fraction",
        ),
        (
            "prefix.evictions".into(),
            delta(&run, "microscopiq_prefix_cache_evictions", &[]),
            "count",
        ),
        (
            "prefix.resident_bytes".into(),
            gauge(&run.end.snap, "microscopiq_prefix_cache_resident_bytes"),
            "bytes",
        ),
        ("gen.lag_ms_p99".into(), percentile(&lag_ms, 99.0), "ms"),
        ("gen.cpu_frac".into(), c.gen_cpu_frac, "fraction"),
        ("host.steal_frac".into(), c.steal_frac, "fraction"),
        (
            "trace.overhead_frac".into(),
            c.cpu_ms_per_token / cu.cpu_ms_per_token - 1.0,
            "fraction",
        ),
        ("trace.step_coverage".into(), prof.coverage(), "fraction"),
    ]);
    report(&m);
    let correct = checks.failures.is_empty();
    print_result(correct, c.counted, failed, &m);
    correct
}
