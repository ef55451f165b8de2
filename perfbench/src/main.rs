//! The repository benchmark. One command runs one workload for a fixed
//! time, checks the program's outputs, and prints the end-to-end metrics
//! (`--trace 0`) or, from a separately traced run, the per-layer metrics
//! (`--trace 1`). The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mesh-steal --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads, metrics and what each layer metric should move are described
//! in `perfbench/WORKLOADS.md`.

// The repository's lint bans wall-clock reads to keep simulated results
// deterministic; a benchmark measures wall-clock time by design.
#![allow(clippy::disallowed_methods)]

mod des;
mod spans;
mod threaded;

use spans::{totals_under, NameTotals, Tracer};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use threaded::{Coupling, Detail, PipeRun, Reference};
use zipper_transports::TransportKind;

/// End-to-end metrics, printed by every workload with tracing off.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("delivered_gb_per_s", "GB/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every workload from the traced run. A
/// layer a workload does not exercise reads 0.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("hpcsim.events", "count"),
        ("hpcsim.ns_per_event", "ns"),
        ("hpcsim.build_s", "s"),
        ("hpcsim.run_s", "s"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for kind in TransportKind::ALL {
        v.push((format!("zipper-transports.{}.run_s", des::slug(kind)), "s"));
        v.push((
            format!("zipper-transports.{}.events", des::slug(kind)),
            "count",
        ));
    }
    v.extend(
        [
            ("zipper-policy.preflight_s", "s"),
            ("zipper-apps.generate_s", "s"),
            ("zipper-apps.generate_gb_per_s", "GB/s"),
            ("zipper-apps.analysis_s", "s"),
            ("zipper-apps.analysis_gb_per_s", "GB/s"),
            ("zipper-apps.inline_gb_per_s", "GB/s"),
            ("zipper-core.write_s", "s"),
            ("zipper-core.read_wait_s", "s"),
            ("zipper-core.steal_fraction", "ratio"),
            ("zipper-core.blocks_written", "count"),
            ("zipper-core.blocks", "count"),
            ("zipper-core.net_messages", "count"),
            ("zipper-core.pfs_blocks", "count"),
            ("zipper-core.tcp.sends", "count"),
            ("zipper-core.tcp.send_s", "s"),
            ("zipper-core.tcp.send_gb_per_s", "GB/s"),
            ("zipper-pfs.puts", "count"),
            ("zipper-pfs.gets", "count"),
            ("zipper-pfs.put_s", "s"),
            ("zipper-pfs.get_s", "s"),
            ("zipper-trace.detail_overhead_ratio", "ratio"),
            ("zipper-trace.detail_off_wall_s", "s"),
            ("bench.trace_overhead_ratio", "ratio"),
            ("bench.untraced_wall_s", "s"),
            ("bench.samples", "count"),
            ("bench.spans", "count"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    DesScaleout,
    DesFig2,
    MeshSteal,
    TcpStream,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("des-scaleout", Workload::DesScaleout),
        ("des-fig2", Workload::DesFig2),
        ("mesh-steal", Workload::MeshSteal),
        ("tcp-stream", Workload::TcpStream),
    ];

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .expect("listed")
            .0
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut get = HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        get.insert(flag.as_str(), value.as_str());
    }
    let need = |k: &str| get.get(k).copied().ok_or(format!("missing {k}"));
    let workload = need("--workload")?;
    let workload = Workload::ALL
        .iter()
        .find(|(n, _)| *n == workload)
        .map(|&(_, w)| w)
        .ok_or(format!("unknown workload {workload}"))?;
    let num =
        |k: &str| -> Result<u64, String> { need(k)?.parse().map_err(|e| format!("{k}: {e}")) };
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    if get.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds and --trace".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace,
    })
}

/// What a run found: counts for the result line, the outcome of each
/// correctness check, and the metrics it measured.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    checks: Vec<(String, bool)>,
    metrics: HashMap<String, f64>,
    /// Human-readable lines printed before the result.
    notes: Vec<String>,
}

impl Outcome {
    /// Record one outcome of a named check; a check passes only if every
    /// outcome recorded under its name did.
    fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        match self.checks.iter_mut().find(|(n, _)| *n == name) {
            Some((_, passed)) => *passed &= ok,
            None => self.checks.push((name, ok)),
        }
    }

    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// First quartile, median and third quartile (linear interpolation).
fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |q: f64| {
        if s.is_empty() {
            return 0.0;
        }
        let x = q * (s.len() - 1) as f64;
        let (i, f) = (x.floor() as usize, x.fract());
        s[i] + (s[(i + 1).min(s.len() - 1)] - s[i]) * f
    };
    (at(0.25), at(0.5), at(0.75))
}

fn describe(name: &str, unit: &str, v: &[f64]) -> String {
    let (q1, m, q3) = quartiles(v);
    format!(
        "  {name:<22} median {m:>12.6} {unit:<5} (q1 {q1:.6}, q3 {q3:.6}, n = {})",
        v.len()
    )
}

/// Resident memory of this process now, MiB (`VmRSS`).
fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// How often the memory sampler reads the resident set.
const RSS_PERIOD: Duration = Duration::from_millis(10);

/// Run `f` while a sampler thread reads the resident set every
/// `RSS_PERIOD`; returns `f`'s result and the largest sample, MiB.
fn with_peak_rss<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = rss_mib();
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(RSS_PERIOD);
                peak = peak.max(rss_mib());
            }
            peak
        });
        let out = f();
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        let peak = sampler.join().expect("memory sampler");
        (out, peak.max(rss_mib()))
    })
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

// ---------------------------------------------------------------- DES

/// One iteration of a DES workload: every transport once.
fn des_iteration(w: &des::DesWorkload, detail: bool, tracer: &Tracer) -> Vec<des::KindRun> {
    let root = tracer.open();
    let runs: Vec<des::KindRun> = w
        .kinds
        .iter()
        .map(|&k| des::run_kind(k, &w.spec, detail, tracer, root.id))
        .collect();
    tracer.close(root, "perfbench.iteration", None, None, 0);
    runs
}

fn des_setup(runs: &[des::KindRun]) -> Duration {
    runs.iter().map(|r| r.setup).sum()
}

fn des_wall(runs: &[des::KindRun]) -> Duration {
    runs.iter().map(|r| r.run).sum()
}

/// Count failed runs (and a broken Fig. 2 shape as one more) and record
/// the checks of one iteration against the first iteration's fingerprints.
fn des_checks(out: &mut Outcome, runs: &[des::KindRun], first: &[des::KindRun], fig2: bool) {
    for (r, f) in runs.iter().zip(first) {
        let name = r.kind.name();
        let deterministic = r.fingerprint() == f.fingerprint();
        out.attempted += 1;
        if !(r.clean && r.preflight_accepted && deterministic) {
            out.failed += 1;
        }
        out.check(
            format!("{name}: preflight accepts the spec"),
            r.preflight_accepted,
        );
        out.check(format!("{name}: run is clean"), r.clean);
        out.check(
            format!("{name}: same seed repeats events, virtual end-to-end and XmitWait"),
            deterministic,
        );
    }
    if fig2 {
        let best = runs.iter().min_by_key(|r| r.end_to_end).map(|r| r.kind);
        let shape = best == Some(TransportKind::Zipper);
        out.failed += u64::from(!shape);
        out.check(
            "Fig. 2 shape: Zipper has the lowest virtual end-to-end time",
            shape,
        );
    }
}

/// How long a run repeats set-up alone before it measures, and the fewest
/// and most cycles it makes. Together with the set-up of every iteration
/// these make `setup_s` a median of many samples: a few hundred where
/// set-up takes a millisecond or less and single samples scatter widely,
/// a few dozen on des-scaleout. The cap keeps the loopback connections of
/// tcp-stream's cycles far below the ephemeral port range.
const SETUP_SECONDS: Duration = Duration::from_secs(2);
const MIN_SETUP_CYCLES: usize = 20;
const MAX_SETUP_CYCLES: usize = 400;

/// Repeat `cycle` for `SETUP_SECONDS`, within the cycle bounds; returns
/// each cycle's set-up time in seconds.
fn setup_cycles(mut cycle: impl FnMut() -> Duration) -> Vec<f64> {
    let end = Instant::now() + SETUP_SECONDS;
    let mut samples = Vec::new();
    while samples.len() < MIN_SETUP_CYCLES
        || (samples.len() < MAX_SETUP_CYCLES && Instant::now() < end)
    {
        samples.push(secs(cycle()));
    }
    samples
}

fn run_des(args: &Args, out: &mut Outcome) {
    let fig2 = args.workload == Workload::DesFig2;
    let w = if fig2 {
        des::fig2(args.seed)
    } else {
        des::scaleout(args.seed)
    };
    let payload = des::payload_bytes(&w.spec) * w.kinds.len() as u64;
    let mut setup = setup_cycles(|| {
        w.kinds
            .iter()
            .map(|&k| des::setup_only(k, &w.spec, w.detail))
            .sum()
    });
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let off = Tracer::off();
    let traced = Tracer::on();
    let (mut wall, mut gbps, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_iters: Vec<Vec<des::KindRun>> = Vec::new();
    let mut flipped_wall = Vec::new();
    let mut first: Option<Vec<des::KindRun>> = None;
    // Every run's determinism is checked against the first iteration: an
    // untraced run makes at least two, a traced run one of each kind.
    let min_iterations = if args.trace { 1 } else { 2 };
    while wall.len() < min_iterations || Instant::now() < deadline {
        let (runs, peak) = with_peak_rss(|| des_iteration(&w, w.detail, &off));
        rss.push(peak);
        let first = first.get_or_insert_with(|| runs.clone());
        des_checks(out, &runs, first, fig2);
        setup.push(secs(des_setup(&runs)));
        wall.push(secs(des_wall(&runs)));
        gbps.push(payload as f64 / 1e9 / secs(des_wall(&runs)));
        if args.trace {
            let runs = des_iteration(&w, w.detail, &traced);
            des_checks(out, &runs, first, fig2);
            traced_iters.push(runs);
            // The program's own trace detail, flipped. At the scale-out
            // rank count a detailed run takes minutes, so only des-fig2
            // measures it.
            if fig2 {
                let runs = des_iteration(&w, !w.detail, &off);
                des_checks(out, &runs, first, fig2);
                flipped_wall.push(secs(des_wall(&runs)));
            }
        }
    }
    out.notes.push(format!(
        "{} sim + {} analysis ranks, {} steps, {} transport(s), trace detail {}",
        w.spec.sim_ranks,
        w.spec.ana_ranks,
        w.spec.steps,
        w.kinds.len(),
        if w.detail { "on" } else { "off" }
    ));
    let last = first.expect("ran at least once");
    let events: u64 = last.iter().map(|r| r.events).sum();
    out.notes.push(format!(
        "  events per iteration {events} (exact); virtual end-to-end {}",
        last.iter()
            .map(|r| format!("{} {}", des::slug(r.kind), r.end_to_end))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if !args.trace {
        out.notes.push(describe("setup_s", "s", &setup));
        out.notes.push(describe("wall_s", "s", &wall));
        out.notes
            .push(describe("delivered_gb_per_s", "GB/s", &gbps));
        let eps: Vec<f64> = wall.iter().map(|w| events as f64 / w).collect();
        out.notes.push(describe("des_events_per_s", "1/s", &eps));
        out.notes.push(describe("peak_rss_mib", "MiB", &rss));
        out.set("setup_s", median(&setup));
        out.set("wall_s", median(&wall));
        out.set("delivered_gb_per_s", median(&gbps));
        out.set("peak_rss_mib", median(&rss));
        return;
    }
    // Per-layer metrics from the traced iterations.
    let per = |f: &dyn Fn(&[des::KindRun]) -> f64| -> f64 {
        median(&traced_iters.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let sum = |runs: &[des::KindRun], f: &dyn Fn(&des::KindRun) -> Duration| {
        secs(runs.iter().map(f).sum())
    };
    out.set("hpcsim.events", events as f64);
    out.set("hpcsim.build_s", per(&|r| sum(r, &|k| k.build)));
    out.set("hpcsim.run_s", per(&|r| sum(r, &|k| k.engine)));
    out.set(
        "hpcsim.ns_per_event",
        per(&|r| sum(r, &|k| k.engine) * 1e9 / events as f64),
    );
    out.set(
        "zipper-policy.preflight_s",
        per(&|r| sum(r, &|k| k.preflight)),
    );
    for (i, kind) in w.kinds.iter().enumerate() {
        let slug = des::slug(*kind);
        out.set(
            format!("zipper-transports.{slug}.run_s"),
            per(&|r| secs(r[i].run)),
        );
        out.set(
            format!("zipper-transports.{slug}.events"),
            last[i].events as f64,
        );
    }
    let traced_wall = per(&|r| secs(des_wall(r)));
    let untraced = median(&wall);
    if !flipped_wall.is_empty() {
        let (on, bare) = if w.detail {
            (untraced, median(&flipped_wall))
        } else {
            (median(&flipped_wall), untraced)
        };
        out.set("zipper-trace.detail_overhead_ratio", on / bare);
        out.set("zipper-trace.detail_off_wall_s", bare);
    }
    out.set("bench.trace_overhead_ratio", traced_wall / untraced);
    out.set("bench.untraced_wall_s", untraced);
    out.set("bench.samples", traced_iters.len() as f64);
    write_spans(args, out, &traced);
}

// ----------------------------------------------------------- threaded

/// Count one iteration's failures (bad blocks, runtime failures, and a
/// wrong analysis result as one more) and record its checks.
fn pipe_checks(out: &mut Outcome, r: &PipeRun) {
    let moments_ok = r.moment_rel_err <= threaded::MOMENT_RTOL;
    out.attempted += r.blocks_expected;
    out.failed += r.blocks_bad + r.runtime_failures + u64::from(!moments_ok);
    out.check(
        "every (src, step, idx) block arrives exactly once with a matching checksum",
        r.blocks_bad == 0,
    );
    out.check("the runtime reports no failures", r.runtime_failures == 0);
    out.check(
        format!(
            "moments match the single-threaded reference within {:e} relative",
            threaded::MOMENT_RTOL
        ),
        moments_ok,
    );
}

fn gbps(r: &PipeRun) -> f64 {
    r.delivered_bytes as f64 / 1e9 / secs(r.wall)
}

fn run_threaded(args: &Args, out: &mut Outcome) {
    let coupling = match args.workload {
        Workload::MeshSteal => Coupling::MeshSteal,
        _ => Coupling::Tcp,
    };
    let reference = Reference::compute(args.seed, threaded::STEPS);
    out.notes.push(format!(
        "1 producer + 1 consumer app thread, {} MiB per iteration in {} KiB blocks, {} cores",
        reference.bytes >> 20,
        threaded::BLOCK_BYTES >> 10,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    let mut setup = setup_cycles(|| {
        let (t, failures) = threaded::setup_only(coupling, args.seed);
        out.attempted += 1;
        out.failed += failures;
        out.check("set-up-only cycles report no failures", failures == 0);
        t
    });
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let off = Tracer::off();
    let mut untraced: Vec<PipeRun> = Vec::new();
    let mut rss = Vec::new();
    let mut traced: Vec<(PipeRun, Tracer)> = Vec::new();
    let (mut full, mut bare) = (Vec::new(), Vec::new());
    let mut max_err = 0.0f64;
    let min_iterations = if args.trace { 1 } else { 3 };
    while untraced.len() < min_iterations || Instant::now() < deadline {
        let (r, peak) = with_peak_rss(|| {
            threaded::iteration(coupling, args.seed, &reference, &off, Detail::Default)
        });
        pipe_checks(out, &r);
        setup.push(secs(r.setup));
        rss.push(peak);
        max_err = max_err.max(r.moment_rel_err);
        untraced.push(r);
        if args.trace {
            let tracer = Tracer::on();
            let r = threaded::iteration(coupling, args.seed, &reference, &tracer, Detail::Default);
            pipe_checks(out, &r);
            traced.push((r, tracer));
            for (detail, into) in [(Detail::Full, &mut full), (Detail::Off, &mut bare)] {
                let r = threaded::iteration(coupling, args.seed, &reference, &off, detail);
                pipe_checks(out, &r);
                into.push(secs(r.wall));
            }
        }
    }
    out.notes.push(format!(
        "  largest relative moment difference from the reference: {max_err:e}"
    ));
    let col = |runs: &[PipeRun], f: &dyn Fn(&PipeRun) -> f64| -> Vec<f64> {
        runs.iter().map(f).collect()
    };
    let steal = col(&untraced, &|r| {
        r.blocks_stolen as f64 / r.blocks_written as f64
    });
    if !args.trace {
        let wall = col(&untraced, &|r| secs(r.wall));
        let rate = col(&untraced, &gbps);
        out.notes.push(describe("setup_s", "s", &setup));
        out.notes.push(describe("wall_s", "s", &wall));
        out.notes
            .push(describe("delivered_gb_per_s", "GB/s", &rate));
        out.notes.push(describe("steal_fraction", "ratio", &steal));
        out.notes.push(describe("peak_rss_mib", "MiB", &rss));
        out.set("setup_s", median(&setup));
        out.set("wall_s", median(&wall));
        out.set("delivered_gb_per_s", median(&rate));
        out.set("peak_rss_mib", median(&rss));
        return;
    }
    // Per-layer metrics: medians over the traced iterations of each
    // iteration's span totals.
    let totals: Vec<HashMap<&str, NameTotals>> = traced
        .iter()
        .map(|(_, t)| {
            let spans = t.spans();
            let root = spans
                .iter()
                .find(|s| s.name == "perfbench.iteration")
                .expect("iteration span")
                .id;
            totals_under(&spans, root)
        })
        .collect();
    let tot = |name: &str, f: &dyn Fn(&NameTotals) -> f64| -> f64 {
        median(
            &totals
                .iter()
                .map(|t| t.get(name).map_or(0.0, f))
                .collect::<Vec<_>>(),
        )
    };
    let time = |t: &NameTotals| t.total_ns as f64 / 1e9;
    let rate = |t: &NameTotals| {
        if t.total_ns == 0 {
            0.0
        } else {
            t.bytes as f64 / t.total_ns as f64
        }
    };
    let count = |t: &NameTotals| t.count as f64;
    out.set(
        "zipper-apps.generate_s",
        tot("zipper-apps.generate_block", &time),
    );
    out.set(
        "zipper-apps.generate_gb_per_s",
        tot("zipper-apps.generate_block", &rate),
    );
    out.set("zipper-apps.analysis_s", tot("zipper-apps.analysis", &time));
    out.set(
        "zipper-apps.analysis_gb_per_s",
        tot("zipper-apps.analysis", &rate),
    );
    out.set("zipper-apps.inline_gb_per_s", reference.inline_gb_per_s());
    out.set("zipper-core.write_s", tot("zipper-core.write_slab", &time));
    out.set("zipper-core.read_wait_s", tot("zipper-core.read", &time));
    let traced_runs: Vec<&PipeRun> = traced.iter().map(|(r, _)| r).collect();
    let med = |f: &dyn Fn(&PipeRun) -> f64| -> f64 {
        median(&traced_runs.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    out.set(
        "zipper-core.steal_fraction",
        med(&|r| r.blocks_stolen as f64 / r.blocks_written as f64),
    );
    out.set(
        "zipper-core.blocks_written",
        med(&|r| r.blocks_written as f64),
    );
    out.set(
        "zipper-core.blocks",
        med(&|r| (r.blocks_expected - r.blocks_bad) as f64),
    );
    out.set("zipper-core.pfs_blocks", med(&|r| r.blocks_from_pfs as f64));
    let sends = tot("zipper-core.tcp.send", &count);
    out.set(
        "zipper-core.net_messages",
        if coupling == Coupling::Tcp {
            sends
        } else {
            med(&|r| r.net_messages as f64)
        },
    );
    out.set("zipper-core.tcp.sends", sends);
    out.set("zipper-core.tcp.send_s", tot("zipper-core.tcp.send", &time));
    out.set(
        "zipper-core.tcp.send_gb_per_s",
        tot("zipper-core.tcp.send", &rate),
    );
    out.set("zipper-pfs.puts", tot("zipper-pfs.put", &count));
    out.set("zipper-pfs.gets", tot("zipper-pfs.get", &count));
    out.set("zipper-pfs.put_s", tot("zipper-pfs.put", &time));
    out.set("zipper-pfs.get_s", tot("zipper-pfs.get", &time));
    let untraced_wall = median(&col(&untraced, &|r| secs(r.wall)));
    out.set(
        "bench.trace_overhead_ratio",
        med(&|r| secs(r.wall)) / untraced_wall,
    );
    out.set("bench.untraced_wall_s", untraced_wall);
    out.set(
        "zipper-trace.detail_overhead_ratio",
        median(&full) / median(&bare),
    );
    out.set("zipper-trace.detail_off_wall_s", median(&bare));
    out.set("bench.samples", traced.len() as f64);
    out.notes
        .push(describe("steal_fraction (untraced)", "ratio", &steal));
    let last = traced.last().map(|(_, t)| t.clone()).expect("traced once");
    write_spans(args, out, &last);
}

// -------------------------------------------------------------- output

/// Print the self-time table of the traced run and write its spans out.
fn write_spans(args: &Args, out: &mut Outcome, tracer: &Tracer) {
    let spans = tracer.spans();
    out.set("bench.spans", spans.len() as f64);
    let mut by_name: HashMap<&str, NameTotals> = HashMap::new();
    for root in spans.iter().filter(|s| s.parent.is_none()) {
        for (name, t) in totals_under(&spans, root.id) {
            let e = by_name.entry(name).or_default();
            e.count += t.count;
            e.total_ns += t.total_ns;
            e.self_ns += t.self_ns;
            e.bytes += t.bytes;
        }
    }
    let mut rows: Vec<_> = by_name.into_iter().collect();
    rows.sort_by_key(|(name, _)| *name);
    out.notes.push(format!(
        "  spans of the last traced iteration(s): {} ({} roots)",
        spans.len(),
        spans.iter().filter(|s| s.parent.is_none()).count()
    ));
    out.notes.push(format!(
        "  {:<34} {:>9} {:>12} {:>12}",
        "span", "count", "total_s", "self_s"
    ));
    for (name, t) in rows {
        out.notes.push(format!(
            "  {:<34} {:>9} {:>12.6} {:>12.6}",
            name,
            t.count,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        ));
    }
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!(
        "{}-seed{}.spans.jsonl",
        args.workload.name(),
        args.seed
    ));
    let written =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, spans::to_jsonl(&spans)));
    out.notes.push(match written {
        Ok(()) => format!("  spans written to {}", path.display()),
        Err(e) => format!("  spans not written ({}): {e}", path.display()),
    });
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(|(n, _)| n).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match args.workload {
        Workload::DesScaleout | Workload::DesFig2 => run_des(&args, &mut out),
        Workload::MeshSteal | Workload::TcpStream => run_threaded(&args, &mut out),
    }
    for line in &out.notes {
        println!("{line}");
    }
    let failed_fraction = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  failed_fraction        {failed_fraction} ({} of {} attempted)",
        out.failed, out.attempted
    );
    for (name, ok) in &out.checks {
        println!("  check {}: {name}", if *ok { "ok  " } else { "FAIL" });
    }
    let wanted: Vec<(String, &str)> = if args.trace {
        per_layer_names()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name.as_str()).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    let correct = out.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric and workload names this program prints are the ones
    /// `BENCHMARK.json` declares, each once.
    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let declared: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().expect("closing quote"))
            .collect();
        let mut printed: Vec<String> = Workload::ALL.iter().map(|(n, _)| n.to_string()).collect();
        printed.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        printed.extend(per_layer_names().into_iter().map(|(n, _)| n));
        assert_eq!(declared, printed);
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.75, 2.5, 3.25));
        assert_eq!(median(&[7.0]), 7.0);
    }
}
