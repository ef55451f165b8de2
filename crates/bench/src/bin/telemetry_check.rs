//! CI gate for flight-recorder exports: validate that every file an
//! example produced is well-formed, that the congestion counters
//! actually made it into the export, and that causal flow events (when
//! present) are correctly paired.
//!
//! Usage: `telemetry_check [--causal] [--preflight] FILE...` — `.json`
//! files are checked as Chrome traces (balanced JSON with a
//! `traceEvents` array), `.jsonl` files line by line. `--causal`
//! additionally runs a tiny deterministic DES workflow in-process and
//! asserts the critical-path engine's invariants (acyclic path,
//! contiguous hops, attribution bounded by the makespan, ×1.0 what-if
//! identity, verdict agreement with the §4.4 model). `--preflight` runs
//! the static plan verifier over the whole conformance scenario set —
//! including the seeded plans the CI matrices derive from
//! `ZIPPER_CHAOS_SEED`/`ZIPPER_GATE_SEED` — so a seeded matrix failure
//! is classified up front as plan-invalid (preflight rejects it here)
//! vs conformance-broken (preflight accepts it and the later diff
//! failed); crafted-bad plans double as a self-test of the rejection
//! codes. Exits nonzero on the first failure, so a CI step can run an
//! example with `ZIPPER_EXPORT_DIR` set and then gate on this.

use std::process::ExitCode;
use std::time::Duration;
use zipper_model::Prediction;
use zipper_policy::{Preflight, PreflightInput, ZvCode};
use zipper_trace::export::{validate_json, validate_jsonl};
use zipper_trace::{Bucket, CausalGraph, CriticalPath};
use zipper_transports::{run, TransportKind, WorkflowSpec};
use zipper_types::{
    BackpressureScript, ChaosEntity, ChaosFault, ChaosPlan, GateRule, Rank, RecoveryPolicy,
    RoutingPolicy,
};
use zipper_workflow::ModelFit;

fn check(path: &str) -> Result<String, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    if body.is_empty() {
        return Err("empty export".into());
    }
    if path.ends_with(".jsonl") {
        let events = validate_jsonl(&body)?;
        if events < 2 {
            return Err(format!("only {events} events — no spans exported"));
        }
        let flows = body.matches("\"type\":\"flow\"").count();
        Ok(format!("{events} events ({flows} flow records)"))
    } else if path.ends_with(".json") {
        validate_json(&body)?;
        if !body.contains("\"traceEvents\"") {
            return Err("not a Chrome trace: missing traceEvents".into());
        }
        if !body.contains("net.bytes") {
            return Err("no telemetry counters in trace".into());
        }
        // Causal flow events ride in pairs: every `s` (start) needs its
        // binding `f` (finish) or Perfetto draws dangling arrows.
        let starts = body.matches("\"cat\":\"causal\",\"ph\":\"s\"").count();
        let finishes = body.matches("\"cat\":\"causal\",\"ph\":\"f\"").count();
        if starts != finishes {
            return Err(format!(
                "unbalanced flow events: {starts} starts vs {finishes} finishes"
            ));
        }
        Ok(format!(
            "{} bytes of Chrome trace ({starts} flow pairs)",
            body.len()
        ))
    } else {
        Err("unknown extension (expected .json or .jsonl)".into())
    }
}

/// Run the tiny deterministic CFD workflow on the DES and hold the
/// causal engine to its invariants. Same spec as the golden-file tests,
/// so CI exercises the exact configuration the snapshots pin.
fn check_causal_invariants() -> Result<String, String> {
    let mut spec = WorkflowSpec::cfd(2, 1, 2);
    spec.ranks_per_node = 2;
    spec.staging_servers = 1;
    spec.decaf_links = 1;
    let r = run(TransportKind::Zipper, &spec);
    if !r.is_clean() {
        return Err(format!("run not clean: {:?} {:?}", r.fault, r.deadlocked));
    }
    let graph = CausalGraph::build(&r.trace, &r.causal);
    let path = CriticalPath::extract(&graph).ok_or("no critical path extracted")?;
    if path.hops.is_empty() {
        return Err("empty critical path".into());
    }
    for pair in path.hops.windows(2) {
        if pair[0].dst != pair[1].src {
            return Err("hops do not chain contiguously".into());
        }
    }
    for h in &path.hops {
        if h.src >= h.dst {
            return Err("non-forward hop: path not acyclic".into());
        }
    }
    let (total, makespan) = (path.attribution.total(), graph.makespan());
    if total > makespan {
        return Err(format!("path weight {total} exceeds makespan {makespan}"));
    }
    let wf = graph.what_if(Bucket::Comp, 1.0);
    let measured = makespan.as_nanos() as f64;
    if (wf.predicted_ns - measured).abs() > 1.0 {
        return Err(format!(
            "×1.0 what-if does not reproduce the makespan: {} vs {measured}",
            wf.predicted_ns
        ));
    }
    let verdict = path.attribution.verdict();
    let fit = ModelFit::from_trace(
        &r.trace,
        r.end_to_end,
        &Prediction::from_input(&spec.model_input()),
    );
    if !fit.agrees_with(verdict) {
        return Err(format!(
            "verdict {verdict} disagrees with model argmax {}",
            fit.verdict()
        ));
    }
    Ok(format!(
        "{} hops, verdict {verdict}, weight {total} / makespan {makespan}",
        path.hops.len()
    ))
}

/// The conformance suite's scenario shape as a `PreflightInput` (same
/// parameters as `policy_conformance::Scenario::default`).
fn scenario_input() -> PreflightInput {
    PreflightInput {
        producers: 2,
        consumers: 2,
        steps: 2,
        blocks_per_rank_step: 4,
        producer_slots: 16,
        consumer_slots: 256,
        high_water_mark: 8,
        concurrent_transfer: false,
        preserve: false,
        routing: RoutingPolicy::SourceAffine,
        recovery: RecoveryPolicy::default(),
        eos_watchdog: false,
        chaos: None,
        backpressure: None,
    }
}

/// The Config C backpressure script (`policy_conformance`): wire 2 held
/// until 3 cumulative steals, wire 4 until a 4th.
fn config_c_script(producers: usize) -> BackpressureScript {
    let mut script = BackpressureScript::new();
    for p in 0..producers {
        script = script
            .with(Rank(p as u32), 2, GateRule::OpenAfterSteals(3))
            .with(Rank(p as u32), 4, GateRule::OpenAfterSteals(4));
    }
    script
}

/// splitmix64 — the same mixer the seeded conformance configs use, so
/// preflight sees the exact plans the seed matrix will run.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e9b5);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn env_seed(var: &str) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Every plan the conformance suites run, as (name, preflight input).
/// The seeded entries read `ZIPPER_CHAOS_SEED`/`ZIPPER_GATE_SEED` like
/// the tests do, so the CI matrix preflights exactly what it will run.
fn conformance_plans() -> Vec<(String, PreflightInput)> {
    let mut plans = Vec::new();
    plans.push((
        "config A (source-affine, message-only)".into(),
        scenario_input(),
    ));

    let mut b = scenario_input();
    b.concurrent_transfer = true;
    b.preserve = true;
    b.routing = RoutingPolicy::RoundRobin;
    plans.push(("config B (round-robin + concurrent + Preserve)".into(), b));

    let mut c = scenario_input();
    c.concurrent_transfer = true;
    c.routing = RoutingPolicy::RoundRobin;
    c.backpressure = Some(config_c_script(2));
    plans.push(("config C (scripted partial stealing)".into(), c));

    let mut d = scenario_input();
    d.preserve = true;
    d.routing = RoutingPolicy::RoundRobin;
    d.eos_watchdog = true;
    d.chaos = Some(
        ChaosPlan::new()
            .with(ChaosEntity::Sender(Rank(0)), 2, ChaosFault::DropWire)
            .with(ChaosEntity::Sender(Rank(0)), 4, ChaosFault::CorruptWire)
            .with(ChaosEntity::Sender(Rank(0)), 9, ChaosFault::DropEos)
            .with(ChaosEntity::Sender(Rank(1)), 1, ChaosFault::FailSend)
            .with(
                ChaosEntity::Sender(Rank(1)),
                3,
                ChaosFault::DelayWire(Duration::from_millis(2)),
            )
            .with(ChaosEntity::Output(Rank(0)), 2, ChaosFault::PfsWriteFail),
    );
    plans.push(("config D (chaos degradation)".into(), d));

    let mut e = scenario_input();
    e.high_water_mark = 0;
    e.concurrent_transfer = true;
    e.preserve = true;
    e.routing = RoutingPolicy::RoundRobin;
    e.recovery = RecoveryPolicy {
        writer_cooldown: Duration::from_millis(1),
        max_writer_revivals: 1,
        max_consumer_restarts: 1,
    };
    e.chaos = Some(
        ChaosPlan::new()
            .with(ChaosEntity::Sender(Rank(0)), 1, ChaosFault::DetachSender)
            .with(ChaosEntity::Sender(Rank(1)), 1, ChaosFault::DetachSender)
            .with(
                ChaosEntity::Sender(Rank(1)),
                2,
                ChaosFault::DelayWire(Duration::from_millis(1)),
            )
            .with(ChaosEntity::Writer(Rank(0)), 2, ChaosFault::PfsWriteFail)
            .with(ChaosEntity::Analysis(Rank(1)), 3, ChaosFault::CrashApp),
    );
    plans.push(("config E (chaos recovery)".into(), e));

    // Seeded chaos: 4 producers, message-only, Preserve, round-robin —
    // ordinals confined to the 8 data wires.
    let chaos_seed = env_seed("ZIPPER_CHAOS_SEED");
    let mut state = chaos_seed;
    let kinds = [
        ChaosFault::DropWire,
        ChaosFault::CorruptWire,
        ChaosFault::DelayWire(Duration::from_micros(200)),
        ChaosFault::FailSend,
    ];
    let mut plan = ChaosPlan::new();
    for p in 0..4 {
        let ordinal = 1 + splitmix(&mut state) % 8;
        let kind = kinds[(splitmix(&mut state) % kinds.len() as u64) as usize];
        plan = plan.with(ChaosEntity::Sender(Rank(p as u32)), ordinal, kind);
    }
    let mut seeded_chaos = scenario_input();
    seeded_chaos.producers = 4;
    seeded_chaos.preserve = true;
    seeded_chaos.routing = RoutingPolicy::RoundRobin;
    seeded_chaos.chaos = Some(plan);
    plans.push((format!("seeded chaos (seed {chaos_seed})"), seeded_chaos));

    // DropEos in concurrent mode, watchdog armed.
    let mut dropped = scenario_input();
    dropped.concurrent_transfer = true;
    dropped.eos_watchdog = true;
    dropped.chaos =
        Some(ChaosPlan::new().with(ChaosEntity::Sender(Rank(0)), 9, ChaosFault::DropEos));
    plans.push(("dropped EOS, concurrent".into(), dropped));

    // Seeded gate: one credit window per producer inside the 8-block run.
    let gate_seed = env_seed("ZIPPER_GATE_SEED");
    let mut state = gate_seed.wrapping_mul(0x5851_f42d_4c95_7f2d);
    let mut script = BackpressureScript::new();
    for p in 0..2 {
        let wire = 1 + splitmix(&mut state) % 3;
        let target = 1 + splitmix(&mut state) % (8 - wire - 1);
        script = script.with(Rank(p as u32), wire, GateRule::OpenAfterSteals(target));
    }
    let mut seeded_gate = scenario_input();
    seeded_gate.concurrent_transfer = true;
    seeded_gate.routing = RoutingPolicy::RoundRobin;
    seeded_gate.backpressure = Some(script);
    plans.push((format!("seeded gate (seed {gate_seed})"), seeded_gate));

    // A credit window already met when reached: wire 3 asks for the 2
    // steals wire 2's window already earned; wire 5 needs a 3rd.
    let mut met_early = scenario_input();
    met_early.concurrent_transfer = true;
    met_early.routing = RoutingPolicy::RoundRobin;
    let mut script = BackpressureScript::new();
    for p in 0..2 {
        script = script
            .with(Rank(p as u32), 2, GateRule::OpenAfterSteals(2))
            .with(Rank(p as u32), 3, GateRule::OpenAfterSteals(2))
            .with(Rank(p as u32), 5, GateRule::OpenAfterSteals(3));
    }
    met_early.backpressure = Some(script);
    plans.push(("met-early gate window".into(), met_early));

    // Gate + chaos composed on the same wire (each producer's wire 2
    // held until 3 steals; p0's released wire dropped, p1's delayed).
    let mut composed = scenario_input();
    composed.concurrent_transfer = true;
    composed.routing = RoutingPolicy::RoundRobin;
    let mut script = BackpressureScript::new();
    for p in 0..2 {
        script = script.with(Rank(p as u32), 2, GateRule::OpenAfterSteals(3));
    }
    composed.backpressure = Some(script);
    composed.chaos = Some(
        ChaosPlan::new()
            .with(ChaosEntity::Sender(Rank(0)), 2, ChaosFault::DropWire)
            .with(
                ChaosEntity::Sender(Rank(1)),
                2,
                ChaosFault::DelayWire(Duration::from_micros(100)),
            ),
    );
    plans.push(("gate + chaos on one wire".into(), composed));

    plans
}

/// Crafted-bad plans that must be rejected with their documented code —
/// a self-test that the verifier's rejection surface is alive before CI
/// trusts its acceptance verdicts.
fn negative_plans() -> Vec<(&'static str, PreflightInput, ZvCode)> {
    let mut unsat = scenario_input();
    unsat.concurrent_transfer = true;
    unsat.backpressure =
        Some(BackpressureScript::new().with(Rank(0), 6, GateRule::OpenAfterSteals(5)));

    let mut dead = scenario_input();
    dead.chaos =
        Some(ChaosPlan::new().with(ChaosEntity::Sender(Rank(0)), 99, ChaosFault::DropWire));

    let mut crash = scenario_input();
    crash.chaos =
        Some(ChaosPlan::new().with(ChaosEntity::Analysis(Rank(0)), 2, ChaosFault::CrashApp));

    let mut overflow = scenario_input();
    overflow.blocks_per_rank_step = zipper_policy::preflight::TAG_BLOCK_LIMIT + 1;

    vec![
        (
            "unsatisfiable gate window",
            unsat,
            ZvCode::UnsatisfiableWindow,
        ),
        ("dead chaos ordinal", dead, ZvCode::DeadOrdinal),
        ("zero-budget CrashApp", crash, ZvCode::UnhealedCrash),
        ("tag-overflow spec", overflow, ZvCode::TagBlockOverflow),
    ]
}

/// `--preflight`: every conformance plan is accepted with zero errors,
/// every crafted-bad plan is rejected with its documented code.
fn check_preflight() -> Result<String, String> {
    let plans = conformance_plans();
    let mut accepted = 0;
    for (name, input) in &plans {
        let report = Preflight::check(input);
        if report.is_rejected() {
            return Err(format!(
                "{name} rejected by preflight:\n{}",
                report.render()
            ));
        }
        accepted += 1;
    }
    let negatives = negative_plans();
    let mut rejected = 0;
    for (name, input, want) in &negatives {
        let report = Preflight::check(input);
        if !report.is_rejected() {
            return Err(format!(
                "{name} accepted but must be rejected:\n{}",
                report.render()
            ));
        }
        if !report.has(*want) {
            return Err(format!(
                "{name} rejected without {} ({want:?}):\n{}",
                want.code(),
                report.render()
            ));
        }
        rejected += 1;
    }
    Ok(format!(
        "{accepted} conformance plans accepted, {rejected}/{} negative plans rejected with \
         their documented codes",
        negatives.len()
    ))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let causal = args.iter().any(|a| a == "--causal");
    let preflight = args.iter().any(|a| a == "--preflight");
    args.retain(|a| a != "--causal" && a != "--preflight");
    if args.is_empty() && !causal && !preflight {
        eprintln!("usage: telemetry_check [--causal] [--preflight] FILE...");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    if preflight {
        match check_preflight() {
            Ok(detail) => println!("ok   static preflight: {detail}"),
            Err(why) => {
                eprintln!("FAIL static preflight: {why}");
                failed = true;
            }
        }
    }
    if causal {
        match check_causal_invariants() {
            Ok(detail) => println!("ok   critical-path invariants: {detail}"),
            Err(why) => {
                eprintln!("FAIL critical-path invariants: {why}");
                failed = true;
            }
        }
    }
    for path in &args {
        match check(path) {
            Ok(detail) => println!("ok   {path}: {detail}"),
            Err(why) => {
                eprintln!("FAIL {path}: {why}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
