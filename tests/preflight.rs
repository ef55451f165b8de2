//! Static preflight conformance: the verifier's verdicts are held
//! against both substrates.
//!
//! * Every plan the decision/causal conformance suites run (Configs
//!   A–E, the seeded chaos/gate plans, the DropEos-concurrent plan, the
//!   gate+chaos composition) passes `Preflight::check` with zero
//!   errors — the verifier never rejects a plan the substrates prove
//!   runnable.
//! * Each crafted negative plan is rejected with its documented `ZV`
//!   code (the codes are listed in DESIGN.md "Static preflight").
//! * The statically derived causal skeleton matches the
//!   decision-determined part of the edge multiset the DES causal
//!   engine records at runtime (Configs B, C, E).
//! * Property: a randomly generated plan the verifier *accepts* runs to
//!   completion on the DES with no EOS watchdog and no timeout —
//!   "accepted ⇒ completes" — and the seeded CI generators never
//!   produce a rejected plan for any seed.

use std::time::Duration;
use zipper_policy::ZvCode;
use zipper_trace::CausalGraph;
use zipper_transports::spec::{sim_config, ClusterLayout, WorkflowSpec};
use zipper_transports::zipper::{build_recorded, reclassify_causal};
use zipper_types::{
    BackpressureScript, ChaosEntity, ChaosFault, ChaosPlan, GateRule, Rank, RecoveryPolicy,
    RoutingPolicy, SimTime,
};

const BLOCK: u64 = 16 << 10;

/// The conformance suite's default scenario shape
/// (`policy_conformance::Scenario::default`) as a DES spec.
fn base_spec() -> WorkflowSpec {
    let mut s = WorkflowSpec::synthetic(zipper_apps::Complexity::Linear, 2, 2, 4 * BLOCK, BLOCK);
    s.steps = 2;
    s.ranks_per_node = 2;
    s.producer_slots = 16;
    s.high_water_mark = 8;
    s
}

/// The Config C backpressure script: wire 2 held until 3 cumulative
/// steals, wire 4 until a 4th, on every producer.
fn config_c_script(producers: usize) -> BackpressureScript {
    let mut script = BackpressureScript::new();
    for p in 0..producers {
        script = script
            .with(Rank(p as u32), 2, GateRule::OpenAfterSteals(3))
            .with(Rank(p as u32), 4, GateRule::OpenAfterSteals(4));
    }
    script
}

fn config_b_spec() -> WorkflowSpec {
    let mut s = base_spec();
    s.concurrent_transfer = true;
    s.preserve = true;
    s.routing = RoutingPolicy::RoundRobin;
    s
}

fn config_c_spec() -> WorkflowSpec {
    let mut s = base_spec();
    s.concurrent_transfer = true;
    s.routing = RoutingPolicy::RoundRobin;
    s.backpressure = Some(config_c_script(2));
    s
}

/// A credit window already met when reached: wire 3 repeats wire 2's
/// cumulative target (equal targets are valid), wire 5 needs one more.
fn met_early_spec() -> WorkflowSpec {
    let mut s = config_c_spec();
    let mut script = BackpressureScript::new();
    for p in 0..2 {
        script = script
            .with(Rank(p as u32), 2, GateRule::OpenAfterSteals(2))
            .with(Rank(p as u32), 3, GateRule::OpenAfterSteals(2))
            .with(Rank(p as u32), 5, GateRule::OpenAfterSteals(3));
    }
    s.backpressure = Some(script);
    s
}

fn config_d_spec() -> WorkflowSpec {
    let mut s = base_spec();
    s.preserve = true;
    s.routing = RoutingPolicy::RoundRobin;
    s.virtual_eos_timeout = Some(SimTime::from_nanos(1_000_000_000));
    s.chaos = Some(
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
    s
}

fn config_e_spec() -> WorkflowSpec {
    let mut s = base_spec();
    s.high_water_mark = 0;
    s.concurrent_transfer = true;
    s.preserve = true;
    s.routing = RoutingPolicy::RoundRobin;
    s.recovery = RecoveryPolicy {
        writer_cooldown: Duration::from_millis(1),
        max_writer_revivals: 1,
        max_consumer_restarts: 1,
    };
    s.chaos = Some(
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
    s
}

/// Every conformance-suite plan must be accepted with zero errors.
#[test]
fn conformance_plans_pass_preflight_clean() {
    let plans: Vec<(&str, WorkflowSpec)> = vec![
        ("config A", base_spec()),
        ("config B", config_b_spec()),
        ("config C", config_c_spec()),
        ("config D", config_d_spec()),
        ("config E", config_e_spec()),
        ("dropped EOS concurrent", {
            let mut s = base_spec();
            s.concurrent_transfer = true;
            s.virtual_eos_timeout = Some(SimTime::from_nanos(1_000_000_000));
            s.chaos =
                Some(ChaosPlan::new().with(ChaosEntity::Sender(Rank(0)), 9, ChaosFault::DropEos));
            s
        }),
        ("met-early gate window", met_early_spec()),
        ("gate + chaos composed", {
            let mut s = base_spec();
            s.concurrent_transfer = true;
            s.routing = RoutingPolicy::RoundRobin;
            let mut script = BackpressureScript::new();
            for p in 0..2 {
                script = script.with(Rank(p as u32), 2, GateRule::OpenAfterSteals(3));
            }
            s.backpressure = Some(script);
            s.chaos = Some(
                ChaosPlan::new()
                    .with(ChaosEntity::Sender(Rank(0)), 2, ChaosFault::DropWire)
                    .with(
                        ChaosEntity::Sender(Rank(1)),
                        2,
                        ChaosFault::DelayWire(Duration::from_micros(100)),
                    ),
            );
            s
        }),
    ];
    for (name, spec) in &plans {
        spec.validate()
            .unwrap_or_else(|e| panic!("{name}: spec invalid: {e}"));
        let report = spec.preflight();
        assert!(
            !report.is_rejected(),
            "{name} must pass preflight clean:\n{}",
            report.render()
        );
    }
}

/// Each crafted negative plan is rejected with its documented distinct
/// diagnostic code.
#[test]
fn negative_plans_reject_with_documented_codes() {
    // ZV011: statically unsatisfiable OpenAfterSteals window.
    let mut s = config_c_spec();
    s.backpressure = Some(BackpressureScript::new().with(Rank(0), 6, GateRule::OpenAfterSteals(5)));
    let report = s.preflight();
    assert!(report.is_rejected());
    assert!(
        report.has(ZvCode::UnsatisfiableWindow),
        "{}",
        report.render()
    );

    // ZV010: a window scripted twice on one wire.
    let mut s = config_c_spec();
    s.backpressure = Some(
        BackpressureScript::new()
            .with(Rank(0), 2, GateRule::OpenAfterSteals(1))
            .with(Rank(0), 2, GateRule::OpenAfterSteals(2)),
    );
    let report = s.preflight();
    assert!(report.is_rejected());
    assert!(report.has(ZvCode::MalformedScript), "{}", report.render());

    // ZV020: dead chaos ordinal (sender performs 10 ops in config A's
    // shape: 8 data wires + 2 EOS marks).
    let mut s = base_spec();
    s.chaos = Some(ChaosPlan::new().with(ChaosEntity::Sender(Rank(0)), 11, ChaosFault::DropWire));
    let report = s.preflight();
    assert!(report.is_rejected());
    assert!(report.has(ZvCode::DeadOrdinal), "{}", report.render());

    // ZV030: CrashApp with a zero restart budget.
    let mut s = base_spec();
    s.chaos = Some(ChaosPlan::new().with(ChaosEntity::Analysis(Rank(0)), 2, ChaosFault::CrashApp));
    let report = s.preflight();
    assert!(report.is_rejected());
    assert!(report.has(ZvCode::UnhealedCrash), "{}", report.render());

    // ZV004: per-step block count past the 24-bit tag field.
    let mut s = base_spec();
    s.block_size = 1;
    s.bytes_per_rank_step = zipper_policy::preflight::TAG_BLOCK_LIMIT + 1;
    let report = s.preflight();
    assert!(report.is_rejected());
    assert!(report.has(ZvCode::TagBlockOverflow), "{}", report.render());

    // The five codes are pairwise distinct — each negative plan gets its
    // own diagnostic, not a shared catch-all.
    let codes = [
        ZvCode::MalformedScript,
        ZvCode::UnsatisfiableWindow,
        ZvCode::DeadOrdinal,
        ZvCode::UnhealedCrash,
        ZvCode::TagBlockOverflow,
    ];
    for (i, a) in codes.iter().enumerate() {
        for b in &codes[i + 1..] {
            assert_ne!(a.code(), b.code());
        }
    }
}

/// Run a spec on the DES with causal recording and return the runtime
/// edge profile.
fn des_edge_profile(spec: &WorkflowSpec) -> std::collections::BTreeMap<String, u64> {
    let layout = ClusterLayout::new(spec, 0);
    let mut sim = hpcsim::Simulator::new(sim_config(spec, &layout));
    sim.set_trace_detail(true);
    sim.enable_causal();
    let _policies = build_recorded(&mut sim, spec, &layout);
    let r = sim.run();
    assert!(r.is_clean(), "DES run not clean: {r:?}");
    let mut causal = sim.take_causal().expect("causal enabled");
    reclassify_causal(&mut causal);
    let trace = sim.into_trace();
    let g = CausalGraph::build(&trace, &causal);
    g.edge_profile()
        .into_iter()
        .map(|(sig, n)| (sig, n as u64))
        .collect()
}

/// The statically derived causal skeleton equals the
/// decision-determined part of the runtime edge multiset, per config.
#[test]
fn skeleton_matches_des_edge_profile() {
    for (name, spec) in [
        ("config B", config_b_spec()),
        ("config C", config_c_spec()),
        ("met-early gate window", met_early_spec()),
        ("config E", config_e_spec()),
    ] {
        let report = spec.preflight();
        assert!(!report.is_rejected(), "{name}: {}", report.render());
        assert!(report.pinned, "{name}: conformance configs are pinned");
        assert!(report.skeleton.is_acyclic(), "{name}");
        let profile = des_edge_profile(&spec);
        if let Err(why) = report.skeleton.matches_profile(&profile) {
            panic!("{name}: {why}");
        }
    }
}

/// The workflow gate: preflight refuses a provably-deadlocking plan
/// without spawning a thread, and a clean plan it accepts runs end to end.
#[test]
fn preflight_gates_the_threaded_run() {
    use zipper_types::{ByteSize, GlobalPos, PreserveMode, StepId, WorkflowConfig};
    use zipper_workflow::{
        preflight_workflow, run_workflow_traced, NetworkOptions, StorageOptions, TraceOptions,
    };

    let mut cfg = WorkflowConfig {
        producers: 2,
        consumers: 2,
        steps: 2,
        bytes_per_rank_step: ByteSize::bytes(4 * BLOCK),
        ..Default::default()
    };
    cfg.tuning.block_size = ByteSize::bytes(BLOCK);
    cfg.tuning.producer_slots = 16;
    cfg.tuning.high_water_mark = 8;
    cfg.tuning.concurrent_transfer = true;
    cfg.tuning.preserve = PreserveMode::Preserve;
    cfg.tuning.routing = RoutingPolicy::RoundRobin;

    let produce = |rank: Rank, writer: &zipper_core::ZipperWriter| {
        for s in 0..2u64 {
            let payload = vec![rank.0 as u8; 4 * BLOCK as usize];
            writer.write_slab(StepId(s), GlobalPos::default(), payload.into());
        }
    };
    let consume = |_: Rank, reader: &zipper_core::ZipperReader| {
        while reader.read().is_some() {}
    };

    // A dead-ordinal plan is refused before any thread spawns.
    let bad = ChaosPlan::new().with(ChaosEntity::Sender(Rank(0)), 99, ChaosFault::DropWire);
    let report = preflight_workflow(&cfg, &NetworkOptions::default().with_chaos(bad));
    assert!(
        report.is_rejected(),
        "dead-ordinal plan must be refused: {}",
        report.render()
    );
    assert!(report.has(ZvCode::DeadOrdinal), "{}", report.render());

    // A clean (empty) plan passes preflight and runs end to end.
    let net = NetworkOptions::default();
    let preflight = preflight_workflow(&cfg, &net);
    assert!(!preflight.is_rejected(), "{}", preflight.render());
    let (workflow, results) = run_workflow_traced(
        &cfg,
        net,
        StorageOptions::Memory,
        TraceOptions::off(),
        produce,
        consume,
    );
    workflow.assert_complete();
    assert_eq!(results.len(), 2);
}

/// splitmix64 — the seeded conformance generators' mixer.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e9b5);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The existing seeded CI generators never produce a verifier-rejected
/// plan: any seed the chaos/gate matrices pick yields a plan preflight
/// accepts (so a seeded matrix failure is always conformance-broken,
/// never plan-invalid).
#[test]
fn seeded_generators_never_produce_rejected_plans() {
    for seed in 0..64u64 {
        // The seeded chaos generator: 4 producers, message-only,
        // Preserve, round-robin, ordinals confined to the 8 data wires.
        let mut state = seed;
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
        let mut s = base_spec();
        s.sim_ranks = 4;
        s.bytes_per_rank_step = 4 * BLOCK;
        s.preserve = true;
        s.routing = RoutingPolicy::RoundRobin;
        s.chaos = Some(plan);
        let report = s.preflight();
        assert!(
            !report.is_rejected(),
            "seeded chaos (seed {seed}) rejected:\n{}",
            report.render()
        );

        // The seeded gate generator: one credit window per producer,
        // wire 1..=3, target inside the remaining block budget.
        let mut state = seed.wrapping_mul(0x5851_f42d_4c95_7f2d);
        let mut script = BackpressureScript::new();
        for p in 0..2 {
            let wire = 1 + splitmix(&mut state) % 3;
            let target = 1 + splitmix(&mut state) % (8 - wire - 1);
            script = script.with(Rank(p as u32), wire, GateRule::OpenAfterSteals(target));
        }
        let mut s = base_spec();
        s.concurrent_transfer = true;
        s.routing = RoutingPolicy::RoundRobin;
        s.backpressure = Some(script);
        let report = s.preflight();
        assert!(
            !report.is_rejected(),
            "seeded gate (seed {seed}) rejected:\n{}",
            report.render()
        );
    }
}

/// Build a random plan from raw draws. Deliberately allowed to generate
/// bad plans (dead ordinals, unsatisfiable windows, unhealed crashes):
/// the property filters on the verifier's verdict.
#[allow(clippy::too_many_arguments)]
fn random_spec(
    producers: usize,
    consumers: usize,
    steps: u64,
    blocks_per_step: u64,
    pinned_hwm: bool,
    concurrent: bool,
    preserve: bool,
    chaos_draws: &[(u8, u64, u8)],
    gate_draw: Option<(u64, u64)>,
    budgets: (u32, u32),
) -> WorkflowSpec {
    let mut s = WorkflowSpec::synthetic(
        zipper_apps::Complexity::Linear,
        producers,
        consumers,
        blocks_per_step * BLOCK,
        BLOCK,
    );
    s.steps = steps;
    s.ranks_per_node = 2;
    s.producer_slots = 64;
    let n = steps * blocks_per_step;
    s.high_water_mark = if pinned_hwm { n as usize } else { 2 };
    s.concurrent_transfer = concurrent;
    s.preserve = preserve;
    s.routing = RoutingPolicy::RoundRobin;
    s.recovery = RecoveryPolicy {
        writer_cooldown: Duration::from_millis(1),
        max_writer_revivals: budgets.0,
        max_consumer_restarts: budgets.1,
    };
    let mut plan = ChaosPlan::new();
    for &(entity_kind, ordinal, fault_kind) in chaos_draws {
        let fault = match fault_kind % 6 {
            0 => ChaosFault::DropWire,
            1 => ChaosFault::CorruptWire,
            2 => ChaosFault::DelayWire(Duration::from_micros(50)),
            3 => ChaosFault::FailSend,
            4 => ChaosFault::DropEos,
            _ => ChaosFault::PfsWriteFail,
        };
        let ev = match entity_kind % 4 {
            0 => (ChaosEntity::Sender(Rank(0)), fault),
            1 => (
                ChaosEntity::Writer(Rank((ordinal % producers as u64) as u32)),
                ChaosFault::PfsWriteFail,
            ),
            2 => (
                ChaosEntity::Analysis(Rank((ordinal % consumers as u64) as u32)),
                ChaosFault::CrashApp,
            ),
            _ => (ChaosEntity::Sender(Rank((producers - 1) as u32)), fault),
        };
        plan = plan.with(ev.0, 1 + ordinal, ev.1);
    }
    s.chaos = (!plan.is_empty()).then_some(plan);
    if let Some((wire, target)) = gate_draw {
        s.backpressure = Some(BackpressureScript::new().with(
            Rank(0),
            1 + wire,
            GateRule::OpenAfterSteals(1 + target),
        ));
    }
    s
}

mod accepted_implies_completion {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The soundness theorem the verifier exists for: a plan
        /// preflight accepts — with NO EOS watchdog armed — runs to
        /// completion on the DES (no deadlock, no fault, no abandoned
        /// rank). Rejected plans are skipped: the property is
        /// "accepted ⇒ completes", not "rejected ⇒ hangs" (rejection is
        /// allowed to be conservative).
        #[test]
        fn verifier_accepted_plans_complete_on_the_des(
            producers in 1usize..4,
            consumers in 1usize..3,
            steps in 1u64..3,
            blocks_per_step in 2u64..5,
            pinned_hwm in proptest::bool::ANY,
            concurrent in proptest::bool::ANY,
            preserve in proptest::bool::ANY,
            chaos in proptest::collection::vec((0u8..4, 0u64..14, 0u8..6), 0..3),
            gate_wire in 0u64..8,
            gate_target in 0u64..8,
            with_gate in proptest::bool::ANY,
            revivals in 0u32..2,
            restarts in 0u32..2,
        ) {
            let spec = random_spec(
                producers,
                consumers,
                steps,
                blocks_per_step,
                pinned_hwm,
                concurrent,
                preserve,
                &chaos,
                with_gate.then_some((gate_wire, gate_target)),
                (revivals, restarts),
            );
            let report = spec.preflight();
            if report.is_rejected() {
                // The plan is refused; nothing to run.
                if std::env::var("ZIPPER_PREFLIGHT_STATS").is_ok() {
                    eprintln!("rejected");
                }
                return Ok(());
            }
            if std::env::var("ZIPPER_PREFLIGHT_STATS").is_ok() {
                eprintln!("accepted (pinned={})", report.pinned);
            }
            // Accepted ⇒ the spec is also structurally valid...
            prop_assert!(spec.validate().is_ok(), "accepted but validate fails: {:?}", spec.validate());
            // ...and the DES run completes cleanly with no watchdog.
            let layout = ClusterLayout::new(&spec, 0);
            let mut sim = hpcsim::Simulator::new(sim_config(&spec, &layout));
            let _policies = build_recorded(&mut sim, &spec, &layout);
            let r = sim.run();
            prop_assert!(
                r.is_clean(),
                "verifier-accepted plan did not complete: {:?}\n{}",
                r,
                report.render()
            );
        }
    }
}
