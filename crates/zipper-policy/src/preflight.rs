//! Static preflight verification: prove a plan safe before either
//! substrate runs it.
//!
//! The paper's §4.4 analytical model predicts workflow behavior *before*
//! execution; this module does the same for plan *safety*. Given the
//! abstract shape of a workflow (rank counts, block schedule, tuning
//! knobs) plus the optional user-supplied scripts — a
//! [`ChaosPlan`], a
//! [`BackpressureScript`], a
//! [`RecoveryPolicy`] — [`Preflight::check`]
//! symbolically executes the policy kernel ([`ProducerPolicy`]'s shared
//! router rotation, Algorithm 1's high-water steal condition, the EOS
//! fan-out) over the abstract block schedule, without spawning a thread
//! or a virtual process, and emits typed `ZV0xx` diagnostics with
//! entity + ordinal provenance.
//!
//! ## What is proved vs heuristic
//!
//! The symbolic walk is **exact** ("pinned") whenever the decision
//! sequence is interleaving-independent, which covers three regimes:
//!
//! * message-only mode (`concurrent_transfer = false`) — one sender
//!   thread, one take order;
//! * a detached sender ([`ChaosFault::DetachSender`]) — every block
//!   drains through the writer in production order;
//! * `high_water_mark >= blocks_per_rank` — occupancy can never exceed
//!   the threshold, so Algorithm 1 never fires a *voluntary* steal and
//!   the only disk traffic is the scripted credit windows, which steal
//!   deterministically.
//!
//! Every conformance configuration in the differential test harness
//! falls into one of these regimes, which is what lets the verifier's
//! verdicts be conformance-tested against both substrates. Outside them
//! (concurrent transfer with a low high-water mark) the walk degrades to
//! *bounds*: ordinals beyond any possible schedule are still rejected
//! ([`ZvCode::DeadOrdinal`]), ordinals inside the feasible range produce
//! [`ZvCode::UnprovableOrdinal`] warnings, and EOS-threatening faults
//! without a watchdog are conservatively rejected (the "accepted ⇒ the
//! DES run completes" property is kept sound by construction).
//!
//! ## Diagnostics
//!
//! Every diagnostic carries a stable [`ZvCode`] (rendered as `ZV0xx`),
//! a severity, and — where it concerns one scripted event — the chaos
//! entity and ordinal it is about. Errors reject the plan
//! ([`PreflightReport::is_rejected`]); warnings flag proven degradations
//! (watchdog completions, fail-soft writer death); lints flag inert
//! configuration. The full table lives in `DESIGN.md` ("Static
//! preflight").

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use crate::eos::Channel;
use crate::producer::ProducerPolicy;
use zipper_types::{
    BackpressureScript, BlockId, ChaosEntity, ChaosFault, ChaosPlan, ChaosScope, GateRule,
    GateStep, GateWalk, Rank, RecoveryPolicy, RoutingPolicy, ScriptError, StepId, WorkflowConfig,
};

/// Widest step index the wire tag format can carry (32-bit step field;
/// kept in sync with `zipper-transports::spec::tag` by a parity test
/// there).
pub const TAG_STEP_LIMIT: u64 = (1 << 32) - 1;
/// Widest per-step block index the wire tag format can carry (24-bit
/// info field).
pub const TAG_BLOCK_LIMIT: u64 = (1 << 24) - 1;

/// How bad a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The plan is rejected: running it would hang, crash unhealed, or
    /// exceed a protocol bound.
    Error,
    /// The plan runs to completion but through a proven degradation
    /// (watchdog timeout, fail-soft writer death, inert window).
    Warning,
    /// Inert or wasteful configuration worth knowing about.
    Lint,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Lint => "lint",
        })
    }
}

/// Stable diagnostic codes. The numeric blocks group by subject:
/// `ZV00x` configuration, `ZV01x` backpressure scripts, `ZV02x` chaos
/// plans, `ZV03x` recovery, `ZV04x` termination/causality, `ZV05x`
/// lints.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ZvCode {
    /// ZV001: a config scalar is zero or inconsistent.
    InvalidConfig,
    /// ZV002: `high_water_mark >= producer_slots` — the writer could
    /// never relieve a full buffer.
    HighWaterMark,
    /// ZV003: step count exceeds the 32-bit wire-tag step field.
    TagStepOverflow,
    /// ZV004: per-step block count exceeds the 24-bit wire-tag field.
    TagBlockOverflow,
    /// ZV010: structurally malformed backpressure script (0-ordinal
    /// wire, duplicate/unsorted windows, regressing targets).
    MalformedScript,
    /// ZV011: an `OpenAfterSteals` target is unreachable — statically
    /// (`wire + target > blocks_per_rank`) or dynamically (chaos kills
    /// enough wires that the armed window starves, or a detached sender
    /// can never arm it while the producer is wedged on a full buffer).
    UnsatisfiableWindow,
    /// ZV012: a gate window addresses a producer rank that does not
    /// exist.
    GateRankOutOfRange,
    /// ZV013: a credit window that can never arm (message-only mode,
    /// detached sender, or a wire ordinal past the last attempted wire);
    /// every interpreter fails open, so this is a warning.
    InertWindow,
    /// ZV020: a chaos ordinal beyond the operation count its entity will
    /// ever perform — the fault can never fire.
    DeadOrdinal,
    /// ZV021: the schedule is not pinned and the ordinal is inside the
    /// feasible range, but liveness cannot be proved.
    UnprovableOrdinal,
    /// ZV022: two faults scripted on the same (entity, ordinal) — only
    /// the first ever fires, and which is "first" is an accident of plan
    /// order.
    ConflictingFaults,
    /// ZV023: a chaos entity addresses a rank that does not exist.
    EntityOutOfRange,
    /// ZV024: `DetachSender` without `concurrent_transfer` — there is no
    /// writer to drain the detached rank's blocks.
    DetachWithoutWriter,
    /// ZV025: an `Output` entity scripted while Preserve mode is off —
    /// the output path does not exist.
    OutputWithoutPreserve,
    /// ZV026: a fault kind the addressed entity never interprets (for
    /// example `PfsWriteFail` on a sender); it fires as a silent no-op.
    InertFault,
    /// ZV030: `CrashApp` beyond the consumer restart budget — the rank
    /// halts and its deliveries are lost.
    UnhealedCrash,
    /// ZV031: `PfsWriteFail` beyond the writer revival budget — the
    /// writer dies and the rank degrades to message-only (fail-soft by
    /// construction, the sender covers the disk channel's EOS).
    WriterFailSoft,
    /// ZV032: a healed crash must replay a non-empty backlog, but
    /// Preserve mode is off so no backlog was ever stored.
    ReplayWithoutPreserve,
    /// ZV033: a detached rank's writer provably dies with blocks
    /// undrained — the detached sender takes nothing, so the producer
    /// wedges forever.
    DetachedWriterDeath,
    /// ZV040: a consumer provably (or, unpinned, possibly) misses EOS
    /// marks and has no watchdog — it blocks forever.
    EosStarvation,
    /// ZV041: a consumer misses EOS marks but completes through its
    /// watchdog timeout.
    WatchdogDegradation,
    /// ZV042: the statically derived causal skeleton has a cycle
    /// (internal invariant; decision-determined edges are a DAG by
    /// construction).
    SkeletonCycle,
    /// ZV050: a recovery budget no scripted fault can ever consume.
    UnusedRecoveryBudget,
    /// ZV051: a zero-duration `Hold` window — a no-op.
    ZeroHold,
}

impl ZvCode {
    /// The stable `ZV0xx` code string.
    pub fn code(self) -> &'static str {
        match self {
            ZvCode::InvalidConfig => "ZV001",
            ZvCode::HighWaterMark => "ZV002",
            ZvCode::TagStepOverflow => "ZV003",
            ZvCode::TagBlockOverflow => "ZV004",
            ZvCode::MalformedScript => "ZV010",
            ZvCode::UnsatisfiableWindow => "ZV011",
            ZvCode::GateRankOutOfRange => "ZV012",
            ZvCode::InertWindow => "ZV013",
            ZvCode::DeadOrdinal => "ZV020",
            ZvCode::UnprovableOrdinal => "ZV021",
            ZvCode::ConflictingFaults => "ZV022",
            ZvCode::EntityOutOfRange => "ZV023",
            ZvCode::DetachWithoutWriter => "ZV024",
            ZvCode::OutputWithoutPreserve => "ZV025",
            ZvCode::InertFault => "ZV026",
            ZvCode::UnhealedCrash => "ZV030",
            ZvCode::WriterFailSoft => "ZV031",
            ZvCode::ReplayWithoutPreserve => "ZV032",
            ZvCode::DetachedWriterDeath => "ZV033",
            ZvCode::EosStarvation => "ZV040",
            ZvCode::WatchdogDegradation => "ZV041",
            ZvCode::SkeletonCycle => "ZV042",
            ZvCode::UnusedRecoveryBudget => "ZV050",
            ZvCode::ZeroHold => "ZV051",
        }
    }

    /// The fixed severity of this code.
    pub fn severity(self) -> Severity {
        match self {
            ZvCode::InvalidConfig
            | ZvCode::HighWaterMark
            | ZvCode::TagStepOverflow
            | ZvCode::TagBlockOverflow
            | ZvCode::MalformedScript
            | ZvCode::UnsatisfiableWindow
            | ZvCode::GateRankOutOfRange
            | ZvCode::DeadOrdinal
            | ZvCode::ConflictingFaults
            | ZvCode::EntityOutOfRange
            | ZvCode::DetachWithoutWriter
            | ZvCode::OutputWithoutPreserve
            | ZvCode::UnhealedCrash
            | ZvCode::ReplayWithoutPreserve
            | ZvCode::DetachedWriterDeath
            | ZvCode::EosStarvation
            | ZvCode::SkeletonCycle => Severity::Error,
            ZvCode::InertWindow
            | ZvCode::UnprovableOrdinal
            | ZvCode::InertFault
            | ZvCode::WriterFailSoft
            | ZvCode::WatchdogDegradation => Severity::Warning,
            ZvCode::UnusedRecoveryBudget | ZvCode::ZeroHold => Severity::Lint,
        }
    }
}

/// One finding, with entity + ordinal provenance when it concerns a
/// single scripted event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: ZvCode,
    pub entity: Option<ChaosEntity>,
    pub ordinal: Option<u64>,
    pub message: String,
}

impl Diagnostic {
    fn plain(code: ZvCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            entity: None,
            ordinal: None,
            message: message.into(),
        }
    }

    fn at(code: ZvCode, entity: ChaosEntity, ordinal: u64, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            entity: Some(entity),
            ordinal: Some(ordinal),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code.code(), self.code.severity())?;
        if let Some(e) = self.entity {
            write!(f, " [{e:?}")?;
            if let Some(o) = self.ordinal {
                write!(f, " @ ordinal {o}")?;
            }
            write!(f, "]")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The statically derived causal-edge skeleton: the decision-determined
/// part of the runtime causal engine's edge multiset, as `"kind:src=>dst"`
/// role signatures with predicted counts (the same shape
/// `CausalGraph::edge_profile` renders at runtime, restricted to the
/// kinds whose counts the policy kernel alone determines — `wire`, `eos`,
/// `steal`, `pfs`; `queue` and `gate` edges depend on runtime buffering
/// and stay outside the skeleton).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CausalSkeleton {
    /// Predicted `"kind:src=>dst"` → count, zero-count entries omitted.
    pub edges: BTreeMap<String, u64>,
}

/// Edge kinds whose multiset is fully decision-determined.
const SKELETON_KINDS: [&str; 4] = ["wire", "eos", "steal", "pfs"];

impl CausalSkeleton {
    fn add(&mut self, sig: &str, n: u64) {
        if n > 0 {
            *self.edges.entry(sig.to_string()).or_insert(0) += n;
        }
    }

    /// Kahn's algorithm over the role graph (self-edges are intra-stage
    /// and skipped): true when the predicted edges form a DAG.
    pub fn is_acyclic(&self) -> bool {
        let mut nodes: BTreeSet<&str> = BTreeSet::new();
        let mut arcs: BTreeSet<(&str, &str)> = BTreeSet::new();
        for sig in self.edges.keys() {
            let Some((_, pair)) = sig.split_once(':') else {
                continue;
            };
            let Some((src, dst)) = pair.split_once("=>") else {
                continue;
            };
            nodes.insert(src);
            nodes.insert(dst);
            if src != dst {
                arcs.insert((src, dst));
            }
        }
        let mut indeg: BTreeMap<&str, usize> = nodes.iter().map(|&n| (n, 0)).collect();
        for &(_, dst) in &arcs {
            *indeg.get_mut(dst).expect("dst is a node") += 1;
        }
        let mut ready: Vec<&str> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&n, _)| n)
            .collect();
        let mut removed = 0;
        while let Some(n) = ready.pop() {
            removed += 1;
            for &(src, dst) in &arcs {
                if src == n {
                    let d = indeg.get_mut(dst).expect("dst is a node");
                    *d -= 1;
                    if *d == 0 {
                        ready.push(dst);
                    }
                }
            }
        }
        removed == nodes.len()
    }

    /// Compare against a runtime `edge_profile`, ignoring profile entries
    /// outside the decision-determined kinds. `Err` carries a readable
    /// mismatch description.
    pub fn matches_profile(&self, profile: &BTreeMap<String, u64>) -> Result<(), String> {
        let runtime: BTreeMap<&String, u64> = profile
            .iter()
            .filter(|(sig, &n)| {
                n > 0
                    && sig
                        .split_once(':')
                        .is_some_and(|(k, _)| SKELETON_KINDS.contains(&k))
            })
            .map(|(sig, &n)| (sig, n))
            .collect();
        let predicted: BTreeMap<&String, u64> = self.edges.iter().map(|(s, &n)| (s, n)).collect();
        if runtime == predicted {
            return Ok(());
        }
        let mut msg = String::from("causal skeleton mismatch:");
        for (sig, &n) in &predicted {
            match runtime.get(sig) {
                Some(&m) if m == n => {}
                Some(&m) => msg.push_str(&format!("\n  {sig}: predicted {n}, runtime {m}")),
                None => msg.push_str(&format!("\n  {sig}: predicted {n}, runtime absent")),
            }
        }
        for (sig, &m) in &runtime {
            if !predicted.contains_key(sig) {
                msg.push_str(&format!("\n  {sig}: predicted absent, runtime {m}"));
            }
        }
        Err(msg)
    }
}

/// Everything the verifier needs to know about a plan, substrate-free.
/// Build one from a [`WorkflowConfig`] via [`PreflightInput::from_config`]
/// (the threaded runtime's shape) or populate the fields directly (the
/// DES does, from its `WorkflowSpec`).
#[derive(Clone, Debug)]
pub struct PreflightInput {
    pub producers: usize,
    pub consumers: usize,
    pub steps: u64,
    pub blocks_per_rank_step: u64,
    pub producer_slots: usize,
    pub consumer_slots: usize,
    pub high_water_mark: usize,
    pub concurrent_transfer: bool,
    pub preserve: bool,
    pub routing: RoutingPolicy,
    pub recovery: RecoveryPolicy,
    /// Whether the consumer runs an EOS watchdog (threaded
    /// `eos_timeout`, DES `virtual_eos_timeout`).
    pub eos_watchdog: bool,
    pub chaos: Option<ChaosPlan>,
    pub backpressure: Option<BackpressureScript>,
}

impl PreflightInput {
    /// The threaded runtime's shape, without scripts (set `chaos` and
    /// `backpressure` after).
    pub fn from_config(cfg: &WorkflowConfig) -> Self {
        PreflightInput {
            producers: cfg.producers,
            consumers: cfg.consumers,
            steps: cfg.steps,
            blocks_per_rank_step: cfg.blocks_per_rank_step(),
            producer_slots: cfg.tuning.producer_slots,
            consumer_slots: cfg.tuning.consumer_slots,
            high_water_mark: cfg.tuning.high_water_mark,
            concurrent_transfer: cfg.tuning.concurrent_transfer,
            preserve: cfg.tuning.preserve.is_preserve(),
            routing: cfg.tuning.routing,
            recovery: cfg.tuning.recovery,
            eos_watchdog: cfg.tuning.eos_timeout.is_some(),
            chaos: None,
            backpressure: None,
        }
    }

    /// Blocks each producer rank emits over the whole run.
    fn blocks_per_rank(&self) -> u64 {
        self.steps * self.blocks_per_rank_step
    }

    fn chaos_ref(&self) -> &[zipper_types::ChaosEvent] {
        self.chaos
            .as_ref()
            .map(|p| p.events.as_slice())
            .unwrap_or(&[])
    }

    /// `entity`'s view of the chaos plan: the same scope both runtimes
    /// interpret.
    fn scope(&self, entity: ChaosEntity) -> ChaosScope {
        match &self.chaos {
            Some(plan) => plan.scope(entity),
            None => ChaosPlan::new().scope(entity),
        }
    }

    /// Exact-walk regime for the rank whose sender scope is `sender` (see
    /// the module docs).
    fn pinned(&self, sender: &ChaosScope) -> bool {
        !self.concurrent_transfer
            || sender.detached()
            || self.high_water_mark as u64 >= self.blocks_per_rank()
    }
}

/// The verifier's verdict: diagnostics, the causal skeleton (exact only
/// when the whole schedule is pinned), and whether the walk was exact.
#[derive(Clone, Debug, Default)]
pub struct PreflightReport {
    pub diagnostics: Vec<Diagnostic>,
    pub skeleton: CausalSkeleton,
    /// True when every rank's schedule was walked exactly; false when
    /// any rank degraded to bounds (the skeleton is then empty).
    pub pinned: bool,
}

impl PreflightReport {
    /// Error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.code.severity() == Severity::Error)
    }

    /// Warning-severity diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.code.severity() == Severity::Warning)
    }

    /// True when any error-severity diagnostic was emitted: the plan
    /// must not run.
    pub fn is_rejected(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Whether a given code was emitted.
    pub fn has(&self, code: ZvCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        let errors = self.errors().count();
        let warnings = self.warnings().count();
        let lints = self.diagnostics.len() - errors - warnings;
        let verdict = if errors > 0 { "REJECTED" } else { "ACCEPTED" };
        let mode = if self.pinned {
            "pinned schedule"
        } else {
            "heuristic bounds"
        };
        let mut out = format!(
            "preflight: {verdict} ({errors} errors, {warnings} warnings, {lints} lints; {mode})"
        );
        for d in &self.diagnostics {
            out.push_str(&format!("\n  {d}"));
        }
        if self.pinned && !self.skeleton.edges.is_empty() {
            out.push_str("\n  causal skeleton:");
            for (sig, n) in &self.skeleton.edges {
                out.push_str(&format!("\n    {sig} x{n}"));
            }
        }
        out
    }
}

/// Deliveries per consumer, summed over every pinned producer's walk.
#[derive(Clone, Debug)]
struct Deliveries {
    /// DATA blocks delivered over the message channel (corrupted and
    /// dropped frames excluded).
    net: Vec<u64>,
    /// Disk-id notifications delivered (one PFS fetch each).
    disk: Vec<u64>,
    /// EOS marks delivered (both channels).
    eos: Vec<u64>,
}

/// The verifier entry point.
pub struct Preflight;

impl Preflight {
    /// Statically verify `input`. Never runs either substrate.
    pub fn check(input: &PreflightInput) -> PreflightReport {
        let mut d = Vec::new();
        check_config(input, &mut d);
        check_script_shape(input, &mut d);
        check_chaos_shape(input, &mut d);
        if d.iter()
            .any(|x: &Diagnostic| x.code.severity() == Severity::Error)
        {
            // Structural errors make the symbolic walk meaningless (a
            // rank out of range, a malformed script): report and stop.
            return PreflightReport {
                diagnostics: d,
                skeleton: CausalSkeleton::default(),
                pinned: false,
            };
        }

        let mut all_pinned = true;
        let q = vec![0; input.consumers];
        let mut delivered = Deliveries {
            net: q.clone(),
            disk: q.clone(),
            eos: q,
        };
        for rank in 0..input.producers {
            let sender = input.scope(ChaosEntity::Sender(Rank(rank as u32)));
            if input.pinned(&sender) {
                walk_rank(input, rank, &sender, &mut delivered, &mut d);
            } else {
                all_pinned = false;
                bound_rank(input, rank, &sender, &mut d);
            }
        }

        if all_pinned {
            check_consumers(input, &delivered, &mut d);
        } else {
            bound_consumers(input, &mut d);
        }
        check_recovery_lints(input, &mut d);

        let skeleton = if all_pinned {
            let s = build_skeleton(&delivered);
            if !s.is_acyclic() {
                d.push(Diagnostic::plain(
                    ZvCode::SkeletonCycle,
                    "statically derived causal skeleton is cyclic",
                ));
            }
            s
        } else {
            CausalSkeleton::default()
        };

        d.sort_by_key(|x| {
            (
                x.code.severity(),
                x.code,
                x.entity.map(entity_sort_key),
                x.ordinal,
            )
        });
        PreflightReport {
            diagnostics: d,
            skeleton,
            pinned: all_pinned,
        }
    }
}

fn entity_sort_key(e: ChaosEntity) -> (u8, u32) {
    match e {
        ChaosEntity::Sender(r) => (0, r.0),
        ChaosEntity::Writer(r) => (1, r.0),
        ChaosEntity::Output(r) => (2, r.0),
        ChaosEntity::Analysis(r) => (3, r.0),
    }
}

/// ZV001–ZV004: configuration scalars and wire-tag bounds.
fn check_config(input: &PreflightInput, d: &mut Vec<Diagnostic>) {
    let mut bad = |what: &str| {
        d.push(Diagnostic::plain(
            ZvCode::InvalidConfig,
            format!("{what} must be at least 1"),
        ));
    };
    if input.producers == 0 {
        bad("producer count");
    }
    if input.consumers == 0 {
        bad("consumer count");
    }
    if input.steps == 0 {
        bad("step count");
    }
    if input.blocks_per_rank_step == 0 {
        bad("blocks per rank-step");
    }
    if input.producer_slots == 0 {
        bad("producer buffer slots");
    }
    if input.consumer_slots == 0 {
        bad("consumer buffer slots");
    }
    if input.producer_slots > 0 && input.high_water_mark >= input.producer_slots {
        d.push(Diagnostic::plain(
            ZvCode::HighWaterMark,
            format!(
                "high-water mark {} must be below the producer buffer's {} slots \
                 (Algorithm 1 could never relieve a full buffer)",
                input.high_water_mark, input.producer_slots
            ),
        ));
    }
    if input.steps > TAG_STEP_LIMIT {
        d.push(Diagnostic::plain(
            ZvCode::TagStepOverflow,
            format!(
                "{} steps exceed the wire tag's 32-bit step field (max {TAG_STEP_LIMIT})",
                input.steps
            ),
        ));
    }
    if input.blocks_per_rank_step > TAG_BLOCK_LIMIT {
        d.push(Diagnostic::plain(
            ZvCode::TagBlockOverflow,
            format!(
                "{} blocks per rank-step exceed the wire tag's 24-bit block field \
                 (max {TAG_BLOCK_LIMIT})",
                input.blocks_per_rank_step
            ),
        ));
    }
}

/// ZV010–ZV012, ZV051: backpressure-script structure, before any walk.
/// ZV010/ZV011 are [`BackpressureScript::validate`]'s verdict — the one
/// both runtimes apply — against the rank's block count.
fn check_script_shape(input: &PreflightInput, d: &mut Vec<Diagnostic>) {
    let Some(script) = &input.backpressure else {
        return;
    };
    for &(rank, ref w) in &script.gates {
        if rank.idx() >= input.producers {
            d.push(Diagnostic::plain(
                ZvCode::GateRankOutOfRange,
                format!(
                    "gate window on producer rank {} but the workflow has {} producers",
                    rank.idx(),
                    input.producers
                ),
            ));
        }
        if matches!(w.rule, GateRule::Hold(dur) if dur.is_zero()) {
            d.push(Diagnostic::plain(
                ZvCode::ZeroHold,
                format!(
                    "rank {} wire {} holds for zero time (no-op)",
                    rank.idx(),
                    w.wire
                ),
            ));
        }
    }
    match script.validate(Some(input.blocks_per_rank())) {
        Ok(()) => {}
        Err(ScriptError::Malformed(why)) => {
            d.push(Diagnostic::plain(ZvCode::MalformedScript, why));
        }
        Err(ScriptError::Unsatisfiable(why)) => {
            d.push(Diagnostic::plain(ZvCode::UnsatisfiableWindow, why));
        }
    }
}

/// ZV022–ZV026 (shape half): per-event checks that need no walk.
fn check_chaos_shape(input: &PreflightInput, d: &mut Vec<Diagnostic>) {
    let events = input.chaos_ref();
    let mut seen: BTreeSet<((u8, u32), u64)> = BTreeSet::new();
    for ev in events {
        let (kind, rank) = entity_sort_key(ev.entity);
        let in_range = match ev.entity {
            ChaosEntity::Sender(r) | ChaosEntity::Writer(r) => r.idx() < input.producers,
            ChaosEntity::Output(r) | ChaosEntity::Analysis(r) => r.idx() < input.consumers,
        };
        if !in_range {
            d.push(Diagnostic::at(
                ZvCode::EntityOutOfRange,
                ev.entity,
                ev.ordinal,
                format!(
                    "{:?} does not exist ({} producers, {} consumers)",
                    ev.entity, input.producers, input.consumers
                ),
            ));
            continue;
        }
        if ev.fault == ChaosFault::DetachSender {
            match ev.entity {
                ChaosEntity::Sender(_) if !input.concurrent_transfer => {
                    d.push(Diagnostic::at(
                        ZvCode::DetachWithoutWriter,
                        ev.entity,
                        ev.ordinal,
                        "DetachSender without concurrent_transfer: no writer exists to \
                         drain the detached rank's blocks"
                            .to_string(),
                    ));
                }
                ChaosEntity::Sender(_) => {}
                _ => {
                    d.push(Diagnostic::at(
                        ZvCode::InertFault,
                        ev.entity,
                        ev.ordinal,
                        "DetachSender only detaches senders; on this entity it is a no-op"
                            .to_string(),
                    ));
                }
            }
            continue;
        }
        if ev.ordinal == 0 {
            d.push(Diagnostic::at(
                ZvCode::DeadOrdinal,
                ev.entity,
                ev.ordinal,
                "chaos ordinals are 1-based; ordinal 0 never fires".to_string(),
            ));
            continue;
        }
        if !seen.insert(((kind, rank), ev.ordinal)) {
            d.push(Diagnostic::at(
                ZvCode::ConflictingFaults,
                ev.entity,
                ev.ordinal,
                format!(
                    "two faults scripted on {:?} ordinal {}: only the first in plan \
                     order ever fires",
                    ev.entity, ev.ordinal
                ),
            ));
        }
        // Fault kinds the entity's interpreter never matches fire as
        // silent no-ops on both substrates.
        let inert = match ev.entity {
            ChaosEntity::Sender(_) => {
                matches!(ev.fault, ChaosFault::PfsWriteFail | ChaosFault::CrashApp)
            }
            ChaosEntity::Writer(_) | ChaosEntity::Output(_) => ev.fault != ChaosFault::PfsWriteFail,
            ChaosEntity::Analysis(_) => ev.fault != ChaosFault::CrashApp,
        };
        if inert {
            d.push(Diagnostic::at(
                ZvCode::InertFault,
                ev.entity,
                ev.ordinal,
                format!(
                    "{:?} never interprets {:?}: the fault fires as a silent no-op",
                    ev.entity, ev.fault
                ),
            ));
        }
        if let ChaosEntity::Output(_) = ev.entity {
            if !input.preserve {
                d.push(Diagnostic::at(
                    ZvCode::OutputWithoutPreserve,
                    ev.entity,
                    ev.ordinal,
                    "Output entity scripted but Preserve mode is off: the output path \
                     does not exist"
                        .to_string(),
                ));
            }
        }
        if let ChaosEntity::Writer(_) = ev.entity {
            if !input.concurrent_transfer {
                d.push(Diagnostic::at(
                    ZvCode::DeadOrdinal,
                    ev.entity,
                    ev.ordinal,
                    "no writer thread exists in message-only mode: the fault can never \
                     fire"
                        .to_string(),
                ));
            }
        }
    }
}

/// Count one operation of `scope` and return the fault striking it. A
/// scope without faults is never ticked, so read `ops()` only from one
/// that has faults.
fn strike(scope: &ChaosScope) -> Option<ChaosFault> {
    if scope.is_empty() {
        None
    } else {
        scope.next()
    }
}

/// One pinned rank's symbolic state: the policy kernel (router rotation
/// and revival budget), the gate walk, the writer's chaos scope, and the
/// producer buffer.
struct RankWalk {
    policy: ProducerPolicy,
    gate: GateWalk,
    writer: ChaosScope,
    /// Blocks not yet taken, in production order.
    pending: VecDeque<BlockId>,
}

impl RankWalk {
    /// One writer put of `block`, through any revivals. True when the
    /// block was stored (the steal is credited to the gate); false when
    /// the writer died: the block returns to the front of the buffer and
    /// the gate fails open.
    fn writer_put(&mut self, block: BlockId, delivered: &mut Deliveries) -> bool {
        loop {
            // A faulted put re-takes and re-routes the block (the double
            // route is intentional on both substrates).
            let dest = self.policy.route_disk(block);
            if strike(&self.writer) == Some(ChaosFault::PfsWriteFail) {
                if self.policy.try_revive_writer() {
                    continue;
                }
                self.gate.cancel();
                self.pending.push_front(block);
                return false;
            }
            // Disk-id notifications are plain sends outside the sender's
            // dead-destination bookkeeping: always delivered.
            delivered.disk[dest.idx()] += 1;
            self.gate.note_steal();
            return true;
        }
    }
}

/// Symbolically execute one pinned rank: the sender/writer take order,
/// the shared router rotation, the gate walk, and the chaos scopes —
/// exactly the decision sequence both substrates would produce. Adds the
/// rank's deliveries to `delivered`.
fn walk_rank(
    input: &PreflightInput,
    rank: usize,
    sender: &ChaosScope,
    delivered: &mut Deliveries,
    d: &mut Vec<Diagnostic>,
) {
    let n = input.blocks_per_rank();
    let r = Rank(rank as u32);
    let sender_entity = ChaosEntity::Sender(r);
    let writer_entity = ChaosEntity::Writer(r);
    let detached = sender.detached();
    let has_writer = input.concurrent_transfer;
    let mut w = RankWalk {
        policy: ProducerPolicy::new(
            r,
            input.consumers,
            input.routing,
            input.high_water_mark,
            input.concurrent_transfer,
        )
        .with_recovery(input.recovery),
        gate: GateWalk::new(
            input
                .backpressure
                .as_ref()
                .map(|s| s.windows_for(r))
                .unwrap_or_default(),
        ),
        writer: input.scope(writer_entity),
        // Blocks in production order: steps outer, per-step index inner.
        pending: (0..input.steps)
            .flat_map(|s| {
                (0..input.blocks_per_rank_step).map(move |i| BlockId::new(r, StepId(s), i as u32))
            })
            .collect(),
    };
    let mut dead = vec![false; input.consumers];

    if detached {
        // Every block drains through the writer in production order. A
        // scripted credit window can never arm (the sender passes no data
        // wires); whether that wedges the run depends on whether the
        // producer can finish filling the buffer (see ZV011/ZV013 below).
        let credit_wires: Vec<u64> = w
            .gate
            .unreached()
            .iter()
            .filter(|win| matches!(win.rule, GateRule::OpenAfterSteals(_)))
            .map(|win| win.wire)
            .collect();
        if !credit_wires.is_empty() {
            if n > input.producer_slots as u64 {
                d.push(Diagnostic::plain(
                    ZvCode::UnsatisfiableWindow,
                    format!(
                        "rank {rank}: detached sender can never arm its credit window and \
                         the producer wedges on a full buffer ({n} blocks > {} slots) \
                         before the queue can close",
                        input.producer_slots
                    ),
                ));
            } else {
                for wire in credit_wires {
                    d.push(Diagnostic::plain(
                        ZvCode::InertWindow,
                        format!(
                            "rank {rank} wire {wire}: detached sender never arms this window; \
                             it fails open when the drained queue closes"
                        ),
                    ));
                }
            }
        }
        while let Some(b) = w.pending.pop_front() {
            if !w.writer_put(b, delivered) {
                d.push(Diagnostic::plain(
                    ZvCode::DetachedWriterDeath,
                    format!(
                        "rank {rank}: writer dies at put attempt {} past its revival \
                         budget with {} blocks undrained; the detached sender takes \
                         nothing, so the producer wedges forever",
                        w.writer.ops(),
                        w.pending.len()
                    ),
                ));
                break;
            }
        }
    } else {
        // Sender take order, with the scripted windows' steal phases
        // interleaved exactly where the gate arms them.
        while let Some(b) = w.pending.pop_front() {
            let dest = w.policy.route_net(b);
            if dead[dest.idx()] {
                // Skipped sends tick neither the gate nor the chaos scope.
                continue;
            }
            let (wire, step) = w.gate.pass_data_wire();
            if let GateStep::AwaitSteals(target) = step {
                if has_writer {
                    // The writer drains the buffer until the window opens;
                    // its death fails the gate open and the held wire
                    // proceeds.
                    while w.gate.steal_phase() {
                        let Some(s) = w.pending.pop_front() else {
                            d.push(Diagnostic::plain(
                                ZvCode::UnsatisfiableWindow,
                                format!(
                                    "rank {rank} wire {wire}: the armed window needs {target} \
                                     cumulative steals but the buffer drains at {}",
                                    w.gate.steals()
                                ),
                            ));
                            break;
                        };
                        if !w.writer_put(s, delivered) {
                            d.push(Diagnostic::plain(
                                ZvCode::WriterFailSoft,
                                format!(
                                    "rank {rank}: writer dies at put attempt {} past its \
                                     revival budget; the rank degrades to message-only and \
                                     the sender covers the disk channel's EOS (fail-soft by \
                                     construction)",
                                    w.writer.ops()
                                ),
                            ));
                        }
                    }
                } else {
                    // Message-only: the gate was failed open at spawn; the
                    // window is inert.
                    d.push(Diagnostic::plain(
                        ZvCode::InertWindow,
                        format!(
                            "rank {rank} wire {wire}: no writer exists in message-only \
                             mode; the credit window fails open at spawn"
                        ),
                    ));
                }
            }
            // The held wire transmits: one chaos-counted send.
            match strike(sender) {
                Some(ChaosFault::FailSend) => dead[dest.idx()] = true,
                Some(ChaosFault::DropWire) | Some(ChaosFault::CorruptWire) => {}
                _ => delivered.net[dest.idx()] += 1,
            }
        }

        // Inert windows past the last attempted wire (chaos can shrink the
        // wire count below a scripted ordinal): they fail open at close.
        if has_writer {
            for win in w.gate.unreached() {
                if matches!(win.rule, GateRule::OpenAfterSteals(_)) {
                    d.push(Diagnostic::plain(
                        ZvCode::InertWindow,
                        format!(
                            "rank {rank} wire {}: only {} data wires are ever attempted; \
                             the window never arms and fails open at close",
                            win.wire,
                            w.gate.wires()
                        ),
                    ));
                }
            }
        }
    }

    // Queue closed. A live writer drains nothing more in a pinned
    // schedule (hwm >= n keeps Algorithm 1 quiet; detached already
    // drained everything) and retires Drained.

    // Net EOS fan-out: chaos-counted sends in consumer-rank order,
    // attempted (and delivered) even toward dead destinations. Only a
    // sender scope with faults is consulted per mark.
    let marks = w.policy.announce_eos(Channel::Net);
    if sender.is_empty() {
        for target in &marks {
            delivered.eos[target.idx()] += 1;
        }
    } else {
        for target in &marks {
            match sender.next() {
                Some(ChaosFault::DropEos)
                | Some(ChaosFault::FailSend)
                | Some(ChaosFault::DropWire)
                | Some(ChaosFault::CorruptWire) => {}
                _ => delivered.eos[target.idx()] += 1,
            }
        }
    }
    // Disk EOS fan-out (concurrent only): plain uncounted sends, covered
    // by the sender when the writer died — always delivered.
    for target in w.policy.announce_eos(Channel::Disk) {
        delivered.eos[target.idx()] += 1;
    }

    // Sender-entity ordinal liveness against the exact op count: the
    // gate's data wires (the same stream the sender scope counts), then
    // the Net EOS marks.
    let wires = w.gate.wires();
    let sender_ops = wires + marks.len() as u64;
    for &(ord, _) in sender.faults() {
        if ord > sender_ops {
            d.push(Diagnostic::at(
                ZvCode::DeadOrdinal,
                sender_entity,
                ord,
                format!(
                    "sender performs exactly {sender_ops} chaos-counted operations \
                     ({wires} data wires + {} EOS marks); ordinal {ord} never fires",
                    marks.len()
                ),
            ));
        }
    }
    // Writer-entity ordinal liveness.
    if has_writer {
        for &(ord, _) in w.writer.faults() {
            if ord > w.writer.ops() {
                d.push(Diagnostic::at(
                    ZvCode::DeadOrdinal,
                    writer_entity,
                    ord,
                    format!(
                        "writer performs exactly {} put attempts; ordinal {ord} never fires",
                        w.writer.ops()
                    ),
                ));
            }
        }
    }
}

/// Bounds-only verdicts for an unpinned rank (concurrent transfer with a
/// low high-water mark): reject what no schedule could reach, warn about
/// what cannot be proved.
fn bound_rank(input: &PreflightInput, rank: usize, sender: &ChaosScope, d: &mut Vec<Diagnostic>) {
    let n = input.blocks_per_rank();
    let q = input.consumers as u64;
    let sender_entity = ChaosEntity::Sender(Rank(rank as u32));
    let writer_entity = ChaosEntity::Writer(Rank(rank as u32));
    let sender_max = n + q; // every block by wire, plus the Net EOS marks
    let writer_max = n + input.recovery.max_writer_revivals as u64;
    for &(ord, _) in sender.faults() {
        if ord > sender_max {
            d.push(Diagnostic::at(
                ZvCode::DeadOrdinal,
                sender_entity,
                ord,
                format!(
                    "no schedule gives the sender more than {sender_max} operations \
                     ({n} wires + {q} EOS marks); ordinal {ord} never fires"
                ),
            ));
        } else {
            d.push(Diagnostic::at(
                ZvCode::UnprovableOrdinal,
                sender_entity,
                ord,
                format!(
                    "schedule not pinned (concurrent transfer, high-water mark {} < {n} \
                     blocks): ordinal {ord} is within [1, {sender_max}] but its liveness \
                     depends on the steal interleaving",
                    input.high_water_mark
                ),
            ));
        }
    }
    for &(ord, _) in input.scope(writer_entity).faults() {
        if ord > writer_max {
            d.push(Diagnostic::at(
                ZvCode::DeadOrdinal,
                writer_entity,
                ord,
                format!(
                    "no schedule gives the writer more than {writer_max} put attempts; \
                     ordinal {ord} never fires"
                ),
            ));
        } else {
            d.push(Diagnostic::at(
                ZvCode::UnprovableOrdinal,
                writer_entity,
                ord,
                format!(
                    "schedule not pinned: writer ordinal {ord} is within [1, {writer_max}] \
                     but its liveness depends on the steal interleaving"
                ),
            ));
        }
    }
}

/// Consumer-side verdicts from the exact per-rank walks' deliveries: EOS
/// completion classification, analysis crash/restart arithmetic,
/// output-path liveness.
fn check_consumers(input: &PreflightInput, delivered: &Deliveries, d: &mut Vec<Diagnostic>) {
    let channels = if input.concurrent_transfer { 2u64 } else { 1 };
    let eos_expected = input.producers as u64 * channels;
    for qr in 0..input.consumers {
        let entity = ChaosEntity::Analysis(Rank(qr as u32));
        let output_entity = ChaosEntity::Output(Rank(qr as u32));
        let items = delivered.net[qr] + delivered.disk[qr];
        let net_stored = if input.preserve { delivered.net[qr] } else { 0 };
        let eos_seen = delivered.eos[qr];

        // EOS classification: every interpreter path either completes by
        // protocol, completes by watchdog, or hangs.
        if eos_seen < eos_expected {
            if input.eos_watchdog {
                d.push(Diagnostic::plain(
                    ZvCode::WatchdogDegradation,
                    format!(
                        "consumer {qr} sees {eos_seen}/{eos_expected} EOS marks and \
                         completes through its watchdog timeout"
                    ),
                ));
            } else {
                d.push(Diagnostic::plain(
                    ZvCode::EosStarvation,
                    format!(
                        "consumer {qr} sees only {eos_seen}/{eos_expected} EOS marks and \
                         has no watchdog: it blocks forever"
                    ),
                ));
            }
        }

        // Analysis read walk: one chaos-counted read per delivered item,
        // per replayed backlog item, plus the final Closed read. A healed
        // crash requeues the current epoch's backlog at the front (the
        // crashing read's item is analysed first, then re-read).
        let analysis = input.scope(entity);
        let crash_faults = analysis.faults();
        let crashes: Vec<u64> = crash_faults
            .iter()
            .filter(|&&(_, f)| f == ChaosFault::CrashApp)
            .map(|&(o, _)| o)
            .collect();
        let mut items_left = items;
        let mut replays_left = 0u64;
        let mut epoch_reads = 0u64;
        let mut restarts_used = 0u32;
        let mut ordinal = 0u64;
        let mut halted = false;
        let total_reads = loop {
            ordinal += 1;
            let is_closed_read = items_left == 0 && replays_left == 0;
            if crashes.contains(&ordinal) {
                if restarts_used >= input.recovery.max_consumer_restarts {
                    d.push(Diagnostic::at(
                        ZvCode::UnhealedCrash,
                        entity,
                        ordinal,
                        format!(
                            "consumer {qr} crashes at read {ordinal} with its restart \
                             budget ({}) exhausted: the rank halts and {} undelivered \
                             reads are lost",
                            input.recovery.max_consumer_restarts,
                            items_left + replays_left
                        ),
                    ));
                    halted = true;
                    break ordinal;
                }
                restarts_used += 1;
                // The crashing read consumed its item; the epoch's prior
                // reads are requeued for re-analysis.
                if !is_closed_read {
                    if replays_left > 0 {
                        replays_left -= 1;
                    } else {
                        items_left -= 1;
                    }
                }
                if epoch_reads > 0 && !input.preserve {
                    d.push(Diagnostic::at(
                        ZvCode::ReplayWithoutPreserve,
                        entity,
                        ordinal,
                        format!(
                            "consumer {qr}'s healed crash at read {ordinal} must replay \
                             a backlog of {epoch_reads}, but Preserve mode is off so no \
                             backlog was stored"
                        ),
                    ));
                }
                replays_left += epoch_reads;
                epoch_reads = if is_closed_read { 0 } else { 1 };
                continue;
            }
            if is_closed_read {
                break ordinal;
            }
            if replays_left > 0 {
                replays_left -= 1;
            } else {
                items_left -= 1;
            }
            epoch_reads += 1;
        };
        for &(ord, fault) in crash_faults {
            if fault != ChaosFault::CrashApp {
                continue; // inert, flagged in the shape pass
            }
            if ord > total_reads && !halted {
                d.push(Diagnostic::at(
                    ZvCode::DeadOrdinal,
                    entity,
                    ord,
                    format!(
                        "consumer {qr}'s application performs exactly {total_reads} reads \
                         ({items} deliveries plus replays and the final Closed read); \
                         ordinal {ord} never fires"
                    ),
                ));
            }
        }

        // Output-path ordinal liveness: one Preserve put attempt per
        // net-delivered block.
        for &(ord, fault) in input.scope(output_entity).faults() {
            if fault != ChaosFault::PfsWriteFail {
                continue; // inert, flagged in the shape pass
            }
            if !input.preserve {
                continue; // ZV025 already emitted in the shape pass
            }
            if ord > net_stored {
                d.push(Diagnostic::at(
                    ZvCode::DeadOrdinal,
                    output_entity,
                    ord,
                    format!(
                        "consumer {qr}'s output path performs exactly {net_stored} \
                         Preserve put attempts; ordinal {ord} never fires"
                    ),
                ));
            }
        }
    }
}

/// Conservative consumer-side verdicts when any rank is unpinned: keep
/// the "accepted ⇒ the DES run completes" theorem sound.
fn bound_consumers(input: &PreflightInput, d: &mut Vec<Diagnostic>) {
    let total = input.blocks_per_rank() * input.producers as u64;
    // A mark-killing sender fault could land on an EOS ordinal under some
    // interleaving; without a watchdog that is a possible hang — reject.
    if !input.eos_watchdog {
        for ev in input.chaos_ref() {
            let mark_killing = matches!(
                ev.fault,
                ChaosFault::DropEos
                    | ChaosFault::FailSend
                    | ChaosFault::DropWire
                    | ChaosFault::CorruptWire
            );
            if matches!(ev.entity, ChaosEntity::Sender(_)) && mark_killing && ev.ordinal > 0 {
                d.push(Diagnostic::at(
                    ZvCode::EosStarvation,
                    ev.entity,
                    ev.ordinal,
                    format!(
                        "schedule not pinned: {:?} could land on an EOS mark under some \
                         interleaving and no watchdog exists — possible hang; add an EOS \
                         timeout or pin the schedule",
                        ev.fault
                    ),
                ));
            }
        }
    }
    for qr in 0..input.consumers {
        let entity = ChaosEntity::Analysis(Rank(qr as u32));
        let crashes: Vec<u64> = input
            .scope(entity)
            .faults()
            .iter()
            .filter(|&&(_, f)| f == ChaosFault::CrashApp)
            .map(|&(o, _)| o)
            .collect();
        let max_reads = total + total + 1; // every block here, fully replayed, plus Closed
        for &ord in &crashes {
            if ord > max_reads {
                d.push(Diagnostic::at(
                    ZvCode::DeadOrdinal,
                    entity,
                    ord,
                    format!("no schedule gives consumer {qr} more than {max_reads} reads"),
                ));
            } else if crashes.len() as u32 > input.recovery.max_consumer_restarts {
                d.push(Diagnostic::at(
                    ZvCode::UnhealedCrash,
                    entity,
                    ord,
                    format!(
                        "consumer {qr} scripts {} crashes against a restart budget of {}: \
                         under some interleaving the rank halts",
                        crashes.len(),
                        input.recovery.max_consumer_restarts
                    ),
                ));
            } else if !input.preserve && ord > 1 {
                d.push(Diagnostic::at(
                    ZvCode::ReplayWithoutPreserve,
                    entity,
                    ord,
                    format!(
                        "consumer {qr}'s crash at read {ord} may need a backlog replay \
                         and Preserve mode is off"
                    ),
                ));
            } else {
                d.push(Diagnostic::at(
                    ZvCode::UnprovableOrdinal,
                    entity,
                    ord,
                    format!(
                        "schedule not pinned: consumer {qr}'s read count depends on the \
                         steal interleaving"
                    ),
                ));
            }
        }
    }
}

/// ZV050: budgets nothing can consume.
fn check_recovery_lints(input: &PreflightInput, d: &mut Vec<Diagnostic>) {
    let events = input.chaos_ref();
    let writer_faults = events.iter().any(|ev| {
        matches!(ev.entity, ChaosEntity::Writer(_)) && ev.fault == ChaosFault::PfsWriteFail
    });
    if input.recovery.max_writer_revivals > 0 && !writer_faults {
        d.push(Diagnostic::plain(
            ZvCode::UnusedRecoveryBudget,
            format!(
                "writer revival budget of {} with no scripted PfsWriteFail to consume it",
                input.recovery.max_writer_revivals
            ),
        ));
    }
    let crashes = events.iter().any(|ev| {
        matches!(ev.entity, ChaosEntity::Analysis(_)) && ev.fault == ChaosFault::CrashApp
    });
    if input.recovery.max_consumer_restarts > 0 && !crashes {
        d.push(Diagnostic::plain(
            ZvCode::UnusedRecoveryBudget,
            format!(
                "consumer restart budget of {} with no scripted CrashApp to consume it",
                input.recovery.max_consumer_restarts
            ),
        ));
    }
}

/// Predict the decision-determined causal-edge multiset from the exact
/// walks' deliveries. Signatures follow `CausalGraph::edge_profile`'s
/// role grammar (`"kind:seg0/segN(src)=>seg0/segN(dst)"`, EOS edges
/// coarse-grained to the first path segment).
fn build_skeleton(delivered: &Deliveries) -> CausalSkeleton {
    let mut s = CausalSkeleton::default();
    let wire: u64 = delivered.net.iter().sum();
    let eos: u64 = delivered.eos.iter().sum();
    let steal: u64 = delivered.disk.iter().sum();
    s.add("wire:sim/send=>ana/recv", wire);
    s.add("eos:sim=>ana", eos);
    s.add("steal:sim/writer=>ana/recv", steal);
    // One PFS fetch per delivered disk-id notification; the causal engine
    // records each fetch as a read-lane self-edge.
    s.add("pfs:ana/read=>ana/read", steal);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Config C's shape: 2 producers, 2 consumers, 8 blocks per rank,
    /// hwm = 8 (pinned), concurrent, scripted credit windows.
    fn config_c_input() -> PreflightInput {
        PreflightInput {
            producers: 2,
            consumers: 2,
            steps: 2,
            blocks_per_rank_step: 4,
            producer_slots: 16,
            consumer_slots: 8,
            high_water_mark: 8,
            concurrent_transfer: true,
            preserve: false,
            routing: RoutingPolicy::RoundRobin,
            recovery: RecoveryPolicy::default(),
            eos_watchdog: false,
            chaos: None,
            backpressure: Some(
                BackpressureScript::new()
                    .with(Rank(0), 2, GateRule::OpenAfterSteals(3))
                    .with(Rank(0), 4, GateRule::OpenAfterSteals(4))
                    .with(Rank(1), 2, GateRule::OpenAfterSteals(3))
                    .with(Rank(1), 4, GateRule::OpenAfterSteals(4)),
            ),
        }
    }

    #[test]
    fn config_c_walk_reproduces_the_steal_schedule() {
        let input = config_c_input();
        let report = Preflight::check(&input);
        assert!(!report.is_rejected(), "{}", report.render());
        assert!(report.pinned);
        // Per rank: 4 stolen (blocks 2,3,4,7), 4 by wire.
        assert_eq!(report.skeleton.edges["wire:sim/send=>ana/recv"], 8);
        assert_eq!(report.skeleton.edges["steal:sim/writer=>ana/recv"], 8);
        assert_eq!(report.skeleton.edges["pfs:ana/read=>ana/read"], 8);
        // 2 producers x 2 consumers x 2 channels.
        assert_eq!(report.skeleton.edges["eos:sim=>ana"], 8);
        assert!(report.skeleton.is_acyclic());
    }

    /// Config D's exact degradation arithmetic (the documented
    /// conformance expectations: c0 sees 1 EOS mark and stores 4 blocks,
    /// c1 completes with 6 stores).
    #[test]
    fn config_d_walk_matches_documented_degradation() {
        use ChaosEntity::*;
        use ChaosFault::*;
        let input = PreflightInput {
            producers: 2,
            consumers: 2,
            steps: 2,
            blocks_per_rank_step: 4,
            producer_slots: 16,
            consumer_slots: 8,
            high_water_mark: 4,
            concurrent_transfer: false,
            preserve: true,
            routing: RoutingPolicy::RoundRobin,
            recovery: RecoveryPolicy::default(),
            eos_watchdog: true,
            chaos: Some(
                ChaosPlan::new()
                    .with(Sender(Rank(0)), 2, DropWire)
                    .with(Sender(Rank(0)), 4, CorruptWire)
                    .with(Sender(Rank(0)), 9, DropEos)
                    .with(Sender(Rank(1)), 1, FailSend)
                    .with(Sender(Rank(1)), 3, DelayWire(Duration::from_millis(2)))
                    .with(Output(Rank(0)), 2, PfsWriteFail),
            ),
            backpressure: None,
        };
        let report = Preflight::check(&input);
        assert!(!report.is_rejected(), "{}", report.render());
        // c0 misses p0's dropped Net mark: watchdog completion.
        assert!(
            report.has(ZvCode::WatchdogDegradation),
            "{}",
            report.render()
        );
        // Net deliveries: c0 = p0's wires 1,3,5,7 = 4; c1 = 2 (p0) + 4 (p1).
        assert_eq!(report.skeleton.edges["wire:sim/send=>ana/recv"], 10);
        // EOS marks: p0 drops c0's; p1's marks both arrive (one toward a
        // dead destination).
        assert_eq!(report.skeleton.edges["eos:sim=>ana"], 3);
        assert!(!report
            .skeleton
            .edges
            .contains_key("steal:sim/writer=>ana/recv"));
    }

    /// Config E's shape: detached senders, a healed writer fault (the
    /// double route), a healed consumer crash.
    #[test]
    fn config_e_walk_heals_everything() {
        use ChaosEntity::*;
        use ChaosFault::*;
        let input = PreflightInput {
            producers: 2,
            consumers: 2,
            steps: 2,
            blocks_per_rank_step: 4,
            producer_slots: 16,
            consumer_slots: 8,
            high_water_mark: 0,
            concurrent_transfer: true,
            preserve: true,
            routing: RoutingPolicy::RoundRobin,
            recovery: RecoveryPolicy {
                writer_cooldown: Duration::from_millis(1),
                max_writer_revivals: 1,
                max_consumer_restarts: 1,
            },
            eos_watchdog: false,
            chaos: Some(
                ChaosPlan::new()
                    .with(Sender(Rank(0)), 0, DetachSender)
                    .with(Sender(Rank(1)), 0, DetachSender)
                    .with(Sender(Rank(1)), 2, DelayWire(Duration::from_millis(1)))
                    .with(Writer(Rank(0)), 2, PfsWriteFail)
                    .with(Analysis(Rank(1)), 3, CrashApp),
            ),
            backpressure: None,
        };
        let report = Preflight::check(&input);
        assert!(!report.is_rejected(), "{}", report.render());
        assert!(report.pinned, "detached ranks are pinned");
        // All 16 blocks drain through the writers; rank 0's failed put
        // re-routes, so rank 0 records 9 routes but still 8 puts.
        assert_eq!(report.skeleton.edges["steal:sim/writer=>ana/recv"], 16);
        assert!(!report
            .skeleton
            .edges
            .contains_key("wire:sim/send=>ana/recv"));
        assert_eq!(report.skeleton.edges["eos:sim=>ana"], 8);
    }

    #[test]
    fn statically_unsatisfiable_window_is_rejected() {
        let mut input = config_c_input();
        input.backpressure =
            Some(BackpressureScript::new().with(Rank(0), 6, GateRule::OpenAfterSteals(5)));
        let report = Preflight::check(&input);
        assert!(report.is_rejected());
        assert!(
            report.has(ZvCode::UnsatisfiableWindow),
            "{}",
            report.render()
        );
    }

    #[test]
    fn dead_sender_ordinal_is_rejected() {
        let mut input = config_c_input();
        input.backpressure = None;
        // 8 wires + 2 EOS marks = 10 sender ops; ordinal 11 is dead.
        input.chaos =
            Some(ChaosPlan::new().with(ChaosEntity::Sender(Rank(0)), 11, ChaosFault::DropWire));
        let report = Preflight::check(&input);
        assert!(report.is_rejected());
        assert!(report.has(ZvCode::DeadOrdinal), "{}", report.render());
        // Ordinal 10 (the last EOS mark) is alive.
        input.chaos = Some(ChaosPlan::new().with(
            ChaosEntity::Sender(Rank(0)),
            10,
            ChaosFault::DelayWire(Duration::from_micros(1)),
        ));
        assert!(!Preflight::check(&input).is_rejected());
    }

    #[test]
    fn zero_budget_crash_is_rejected_with_unhealed_crash() {
        let mut input = config_c_input();
        input.backpressure = None;
        input.chaos =
            Some(ChaosPlan::new().with(ChaosEntity::Analysis(Rank(0)), 2, ChaosFault::CrashApp));
        let report = Preflight::check(&input);
        assert!(report.is_rejected());
        assert!(report.has(ZvCode::UnhealedCrash), "{}", report.render());
    }

    #[test]
    fn tag_overflow_is_rejected() {
        let mut input = config_c_input();
        input.steps = TAG_STEP_LIMIT + 1;
        assert!(Preflight::check(&input).has(ZvCode::TagStepOverflow));
        let mut input = config_c_input();
        input.blocks_per_rank_step = TAG_BLOCK_LIMIT + 1;
        assert!(Preflight::check(&input).has(ZvCode::TagBlockOverflow));
    }

    #[test]
    fn conflicting_faults_on_one_ordinal_are_rejected() {
        let mut input = config_c_input();
        input.backpressure = None;
        input.chaos = Some(
            ChaosPlan::new()
                .with(ChaosEntity::Sender(Rank(0)), 3, ChaosFault::DropWire)
                .with(ChaosEntity::Sender(Rank(0)), 3, ChaosFault::FailSend),
        );
        let report = Preflight::check(&input);
        assert!(report.has(ZvCode::ConflictingFaults), "{}", report.render());
    }

    #[test]
    fn eos_starvation_without_watchdog_is_rejected() {
        let mut input = config_c_input();
        input.backpressure = None;
        input.eos_watchdog = false;
        // Ordinal 9 is the first Net EOS mark (toward consumer 0).
        input.chaos =
            Some(ChaosPlan::new().with(ChaosEntity::Sender(Rank(0)), 9, ChaosFault::DropEos));
        let report = Preflight::check(&input);
        assert!(report.has(ZvCode::EosStarvation), "{}", report.render());
        // The same plan with a watchdog degrades instead of hanging.
        input.eos_watchdog = true;
        let report = Preflight::check(&input);
        assert!(!report.is_rejected(), "{}", report.render());
        assert!(report.has(ZvCode::WatchdogDegradation));
    }

    #[test]
    fn detached_writer_death_is_a_provable_hang() {
        use ChaosEntity::*;
        use ChaosFault::*;
        let mut input = config_c_input();
        input.backpressure = None;
        input.chaos = Some(
            ChaosPlan::new()
                .with(Sender(Rank(0)), 0, DetachSender)
                .with(Writer(Rank(0)), 3, PfsWriteFail),
        );
        let report = Preflight::check(&input);
        assert!(report.is_rejected());
        assert!(
            report.has(ZvCode::DetachedWriterDeath),
            "{}",
            report.render()
        );
    }

    #[test]
    fn nondetached_writer_death_is_fail_soft() {
        use ChaosEntity::*;
        use ChaosFault::*;
        let mut input = config_c_input();
        input.backpressure = None;
        // hwm >= n keeps the schedule pinned; without a scripted window
        // the writer never takes, so give it one steal to die on.
        input.backpressure =
            Some(BackpressureScript::new().with(Rank(0), 2, GateRule::OpenAfterSteals(1)));
        input.chaos = Some(ChaosPlan::new().with(Writer(Rank(0)), 1, PfsWriteFail));
        let report = Preflight::check(&input);
        assert!(!report.is_rejected(), "{}", report.render());
        assert!(report.has(ZvCode::WriterFailSoft), "{}", report.render());
    }

    #[test]
    fn entity_out_of_range_is_rejected() {
        let mut input = config_c_input();
        input.backpressure = None;
        input.chaos =
            Some(ChaosPlan::new().with(ChaosEntity::Analysis(Rank(7)), 1, ChaosFault::CrashApp));
        assert!(Preflight::check(&input).has(ZvCode::EntityOutOfRange));
    }

    #[test]
    fn inert_fault_kinds_warn() {
        let mut input = config_c_input();
        input.backpressure = None;
        input.chaos =
            Some(ChaosPlan::new().with(ChaosEntity::Sender(Rank(0)), 1, ChaosFault::PfsWriteFail));
        let report = Preflight::check(&input);
        assert!(!report.is_rejected());
        assert!(report.has(ZvCode::InertFault), "{}", report.render());
    }

    #[test]
    fn message_only_windows_are_inert_not_deadlocks() {
        let mut input = config_c_input();
        input.concurrent_transfer = false;
        let report = Preflight::check(&input);
        assert!(!report.is_rejected(), "{}", report.render());
        assert!(report.has(ZvCode::InertWindow));
    }

    #[test]
    fn unpinned_schedule_degrades_to_bounds() {
        let mut input = config_c_input();
        input.backpressure = None;
        input.high_water_mark = 2; // < 8 blocks, concurrent: unpinned
        input.chaos = Some(ChaosPlan::new().with(
            ChaosEntity::Sender(Rank(0)),
            5,
            ChaosFault::DelayWire(Duration::from_micros(1)),
        ));
        let report = Preflight::check(&input);
        assert!(!report.pinned);
        assert!(report.skeleton.edges.is_empty());
        assert!(report.has(ZvCode::UnprovableOrdinal), "{}", report.render());
        assert!(!report.is_rejected(), "{}", report.render());
        // An ordinal past any feasible schedule is still rejected.
        input.chaos =
            Some(ChaosPlan::new().with(ChaosEntity::Sender(Rank(0)), 99, ChaosFault::DropWire));
        assert!(Preflight::check(&input).has(ZvCode::DeadOrdinal));
    }

    #[test]
    fn unpinned_mark_killer_without_watchdog_is_conservatively_rejected() {
        let mut input = config_c_input();
        input.backpressure = None;
        input.high_water_mark = 2;
        input.eos_watchdog = false;
        input.chaos =
            Some(ChaosPlan::new().with(ChaosEntity::Sender(Rank(0)), 5, ChaosFault::DropEos));
        let report = Preflight::check(&input);
        assert!(report.is_rejected());
        assert!(report.has(ZvCode::EosStarvation), "{}", report.render());
    }

    #[test]
    fn unused_recovery_budget_lints() {
        let mut input = config_c_input();
        input.backpressure = None;
        input.recovery.max_writer_revivals = 2;
        let report = Preflight::check(&input);
        assert!(!report.is_rejected());
        assert!(report.has(ZvCode::UnusedRecoveryBudget));
    }

    #[test]
    fn render_includes_codes_and_verdict() {
        let mut input = config_c_input();
        input.backpressure =
            Some(BackpressureScript::new().with(Rank(0), 6, GateRule::OpenAfterSteals(5)));
        let r = Preflight::check(&input).render();
        assert!(r.contains("REJECTED"), "{r}");
        assert!(r.contains("ZV011"), "{r}");
    }

    #[test]
    fn zero_ordinal_fault_is_dead() {
        let mut input = config_c_input();
        input.backpressure = None;
        input.chaos =
            Some(ChaosPlan::new().with(ChaosEntity::Sender(Rank(0)), 0, ChaosFault::DropWire));
        assert!(Preflight::check(&input).has(ZvCode::DeadOrdinal));
    }

    #[test]
    fn zero_config_scalars_are_rejected() {
        let mut input = config_c_input();
        input.consumers = 0;
        assert!(Preflight::check(&input).has(ZvCode::InvalidConfig));
        let mut input = config_c_input();
        input.consumer_slots = 0;
        assert!(Preflight::check(&input).has(ZvCode::InvalidConfig));
        let mut input = config_c_input();
        input.high_water_mark = input.producer_slots;
        assert!(Preflight::check(&input).has(ZvCode::HighWaterMark));
    }
}
