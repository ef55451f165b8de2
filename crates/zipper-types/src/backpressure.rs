//! Scripted virtual-time backpressure: substrate-independent flow-control
//! windows.
//!
//! The paper's Algorithm 1 steal decisions are *backpressure-driven*: the
//! sender stalls on a congested link, the producer queue rises past the
//! high-water mark, and the writer thread steals the overflow to the PFS.
//! Reproducing a particular partial steal schedule therefore requires
//! reproducing a particular congestion pattern — something wall-clock
//! sleeps cannot do deterministically, and virtual time cannot share with
//! the threaded runtime.
//!
//! A [`BackpressureScript`] solves this the same way [`crate::ChaosPlan`]
//! scripts faults: by *operation ordinal*, never by time. Each
//! [`GateWindow`] addresses one (sender rank, data-wire ordinal) and
//! declares when the gate re-opens:
//!
//! * [`GateRule::OpenAfterSteals`] — the wire is held until the rank's
//!   writer has stolen a cumulative number of blocks. This is the
//!   deterministic conformance currency: both substrates hold the same
//!   wire while the same blocks drain through the writer, so the policy
//!   kernel sees an identical queue-depth evolution and makes an
//!   identical partial steal schedule.
//! * [`GateRule::Hold`] — the wire is held for a fixed span (wall time on
//!   the threaded runtime, the same span of virtual time on the DES).
//!   This models a congested NIC for throughput experiments (the Fig. 14
//!   sweeps); it involves no writer coordination.
//!
//! Data-wire ordinals are 1-based and count the same stream the chaos
//! engine's sender scope counts: data-carrying wires actually attempted,
//! in route order. Disk-only ID flushes, EOS markers, and sends skipped
//! for dead destinations are *not* counted.
//!
//! One plain-data machine, [`GateWalk`], walks a rank's windows and says
//! what the sender does with each data wire ([`GateStep`]). It has no
//! clock and no lock; three drivers supply the waiting. The threaded
//! [`SenderGate`] wraps it in a mutex and condition variable: the sender
//! thread passes it before each data wire, and while a steal window is
//! armed the writer treats the queue as over the high-water mark
//! ([`SenderGate::steal_phase`]) — exactly what real backpressure
//! produces. The DES turns its steps into engine gate ops, and static
//! preflight walks it symbolically. Every blocking path fails open: a
//! retired writer or a drained sender calls [`GateWalk::cancel`].

use crate::ids::Rank;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// When a gated wire is allowed through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateRule {
    /// Hold the wire until the rank's writer has stolen this many blocks
    /// *cumulatively* (an absolute target, not an increment). Targets of
    /// successive windows must be non-decreasing.
    OpenAfterSteals(u64),
    /// Hold the wire for a fixed span, charged to `net.backpressure_ns`.
    Hold(Duration),
}

/// One scripted gate: the `wire`-th data wire (1-based) of a sender is
/// held per `rule`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GateWindow {
    pub wire: u64,
    pub rule: GateRule,
}

/// A substrate-independent backpressure script: plain data, interpreted
/// by the threaded runtime's [`SenderGate`] and by the DES's flow-control
/// gate events.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BackpressureScript {
    pub gates: Vec<(Rank, GateWindow)>,
}

impl BackpressureScript {
    /// An empty script (no gates).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: hold sender `rank`'s `wire`-th data wire per `rule`.
    pub fn with(mut self, rank: Rank, wire: u64, rule: GateRule) -> Self {
        self.gates.push((rank, GateWindow { wire, rule }));
        self
    }

    /// True when nothing is scripted.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The windows scripted for `rank`, sorted by wire ordinal.
    pub fn windows_for(&self, rank: Rank) -> Vec<GateWindow> {
        let mut v: Vec<GateWindow> = self
            .gates
            .iter()
            .filter(|(r, _)| *r == rank)
            .map(|&(_, w)| w)
            .collect();
        v.sort_by_key(|w| w.wire);
        v
    }

    /// Structural validation: per rank, wire ordinals must be ≥ 1 and
    /// strictly increasing, and `OpenAfterSteals` targets non-decreasing
    /// (they are cumulative). With `blocks_per_rank` known, each steal
    /// window must also be satisfiable: the sender sends `wire` blocks
    /// and the writer steals `target`, so `wire + target` cannot exceed
    /// the rank's total production — an unsatisfiable window would stall
    /// the sender forever (the interpreters still fail open, but the run
    /// would no longer exercise the scripted schedule).
    pub fn validate(&self, blocks_per_rank: Option<u64>) -> Result<(), ScriptError> {
        let mut ranks: Vec<Rank> = self.gates.iter().map(|&(r, _)| r).collect();
        ranks.sort_by_key(|r| r.0);
        ranks.dedup();
        for rank in ranks {
            let windows = self.windows_for(rank);
            let mut last_wire = 0u64;
            let mut last_target = 0u64;
            for w in &windows {
                if w.wire == 0 {
                    return Err(ScriptError::Malformed(format!(
                        "rank {}: gate wire ordinals are 1-based",
                        rank.0
                    )));
                }
                if w.wire <= last_wire {
                    return Err(ScriptError::Malformed(format!(
                        "rank {}: duplicate or unsorted gate at wire {}",
                        rank.0, w.wire
                    )));
                }
                last_wire = w.wire;
                if let GateRule::OpenAfterSteals(target) = w.rule {
                    if target < last_target {
                        return Err(ScriptError::Malformed(format!(
                            "rank {}: steal target {} at wire {} regresses below {} \
                             (targets are cumulative)",
                            rank.0, target, w.wire, last_target
                        )));
                    }
                    last_target = target;
                    if let Some(total) = blocks_per_rank {
                        if w.wire + target > total {
                            return Err(ScriptError::Unsatisfiable(format!(
                                "rank {}: window at wire {} needs {} sent + {} stolen \
                                 but the rank produces only {} blocks",
                                rank.0, w.wire, w.wire, target, total
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Why [`BackpressureScript::validate`] rejected a script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScriptError {
    /// Structurally malformed: a 0 wire ordinal, a duplicate wire, or a
    /// regressing cumulative steal target.
    Malformed(String),
    /// A credit window needs more blocks sent plus stolen than the rank
    /// produces: it can never open.
    Unsatisfiable(String),
}

impl std::fmt::Display for ScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScriptError::Malformed(why) | ScriptError::Unsatisfiable(why) => f.write_str(why),
        }
    }
}

/// What the sender does with one data wire, as decided by a [`GateWalk`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateStep {
    /// Ungated, or a credit window failed open: transmit now.
    Pass,
    /// A `Hold` window: hold the wire for this span, then transmit.
    Hold(Duration),
    /// A credit window armed: hold the wire until the writer has stolen
    /// this many blocks cumulatively. A target already met opens at once.
    AwaitSteals(u64),
}

/// The window walk of one rank's [`BackpressureScript`]: plain data, no
/// clock, no lock. It owns the data-wire and steal counters, the armed
/// credit window, the arm count, and the fail-open flag; each substrate
/// drives it and supplies the waiting (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct GateWalk {
    /// The rank's windows, sorted by wire ordinal.
    windows: Vec<GateWindow>,
    /// Index of the next window not yet reached.
    next: usize,
    /// Data wires counted so far (the last one's 1-based ordinal).
    wires: u64,
    /// Blocks the writer has stolen so far.
    steals: u64,
    /// Cumulative target of the last credit window armed.
    armed: Option<u64>,
    /// Credit windows armed so far.
    arms: u64,
    /// Every present and future credit window fails open.
    cancelled: bool,
}

impl GateWalk {
    /// Walk `windows` ([`BackpressureScript::windows_for`] gives one
    /// rank's; they are sorted here by wire ordinal either way).
    pub fn new(mut windows: Vec<GateWindow>) -> Self {
        windows.sort_by_key(|w| w.wire);
        GateWalk {
            windows,
            ..GateWalk::default()
        }
    }

    /// Count one data wire: its 1-based ordinal and what the sender must
    /// do with it. A credit window arms even when its target is already
    /// met; once cancelled, credit windows pass and `Hold` windows hold.
    pub fn pass_data_wire(&mut self) -> (u64, GateStep) {
        self.wires += 1;
        let step = match self.windows.get(self.next) {
            Some(w) if w.wire == self.wires => {
                self.next += 1;
                match w.rule {
                    GateRule::Hold(d) => GateStep::Hold(d),
                    GateRule::OpenAfterSteals(_) if self.cancelled => GateStep::Pass,
                    GateRule::OpenAfterSteals(target) => {
                        self.armed = Some(target);
                        self.arms += 1;
                        GateStep::AwaitSteals(target)
                    }
                }
            }
            _ => GateStep::Pass,
        };
        (self.wires, step)
    }

    /// Whether an armed credit window is unmet: the sender is held, and
    /// the writer steals every buffered block.
    pub fn steal_phase(&self) -> bool {
        !self.cancelled && self.armed.is_some_and(|target| self.steals < target)
    }

    /// The writer stole one block.
    pub fn note_steal(&mut self) {
        self.steals += 1;
    }

    /// Fail open: no credit window holds the sender from now on.
    pub fn cancel(&mut self) {
        self.cancelled = true;
    }

    /// The arm count at which the first credit window with an unmet target
    /// is armed (met windows are skipped: nothing to steal for them), or
    /// `None` when none is left or the walk is cancelled.
    pub fn pending_arm(&self) -> Option<u64> {
        if self.cancelled {
            return None;
        }
        self.windows
            .iter()
            .filter_map(|w| match w.rule {
                GateRule::OpenAfterSteals(target) => Some(target),
                GateRule::Hold(_) => None,
            })
            .position(|target| self.steals < target)
            .map(|i| i as u64 + 1)
    }

    /// Credit windows armed so far.
    pub fn arms(&self) -> u64 {
        self.arms
    }

    /// Data wires counted so far.
    pub fn wires(&self) -> u64 {
        self.wires
    }

    /// Blocks stolen so far.
    pub fn steals(&self) -> u64 {
        self.steals
    }

    /// The windows no data wire has reached yet.
    pub fn unreached(&self) -> &[GateWindow] {
        &self.windows[self.next..]
    }
}

type Waker = Box<dyn Fn() + Send + Sync>;

/// The threaded driver of one rank's [`GateWalk`].
///
/// Shared between the rank's sender thread (which calls
/// [`SenderGate::pass_data_wire`] and blocks inside it) and its writer
/// thread (which polls [`SenderGate::steal_phase`] inside the queue's
/// take predicate and reports [`SenderGate::note_steal`]). The optional
/// waker lets an armed window nudge a writer parked on the queue's
/// condition variable; it is always invoked *outside* the gate lock
/// (lock order anywhere in the runtime is queue → gate, never both
/// held).
pub struct SenderGate {
    walk: Mutex<GateWalk>,
    opened: Condvar,
    waker: Mutex<Option<Waker>>,
}

impl SenderGate {
    /// Interpret one rank's `windows`.
    pub fn new(windows: Vec<GateWindow>) -> Self {
        SenderGate {
            walk: Mutex::new(GateWalk::new(windows)),
            opened: Condvar::new(),
            waker: Mutex::new(None),
        }
    }

    /// Register the callback an arming window uses to wake the writer
    /// (typically the producer queue's `nudge`).
    pub fn set_waker(&self, f: impl Fn() + Send + Sync + 'static) {
        *self.waker.lock().unwrap() = Some(Box::new(f));
    }

    fn wake(&self) {
        if let Some(f) = self.waker.lock().unwrap().as_ref() {
            f();
        }
    }

    /// Count one data wire; if it is gated, hold until the window opens.
    /// Returns the wire's ordinal and the time spent held (zero for
    /// ungated wires), which the caller charges to `net.backpressure_ns`.
    // Threaded-substrate driver: Hold sleeps the real sender and the
    // armed-window wait is timed on the wall clock; the DES drives the
    // same walk in virtual time.
    #[allow(clippy::disallowed_methods)]
    pub fn pass_data_wire(&self) -> (u64, Duration) {
        let mut g = self.walk.lock().unwrap();
        let (wire, step) = g.pass_data_wire();
        match step {
            GateStep::Pass => (wire, Duration::ZERO),
            GateStep::Hold(d) => {
                drop(g);
                if !d.is_zero() {
                    std::thread::sleep(d);
                }
                (wire, d)
            }
            GateStep::AwaitSteals(_) => {
                if !g.steal_phase() {
                    return (wire, Duration::ZERO); // target already met
                }
                drop(g);
                // The writer may be parked on the queue below the
                // high-water mark (nudge) or between windows inside
                // `await_steal_window` (notify); wake both paths so the
                // armed window is observed.
                self.opened.notify_all();
                self.wake();
                let t0 = Instant::now();
                let mut g = self.walk.lock().unwrap();
                while g.steal_phase() {
                    g = self.opened.wait(g).unwrap();
                }
                drop(g);
                // The window opened, which changes the writer's predicate
                // back; wake it again so it re-parks at its normal
                // threshold instead of stealing past the window.
                self.wake();
                (wire, t0.elapsed())
            }
        }
    }

    /// Whether a steal window is armed and unmet — the writer's take
    /// predicate treats this exactly like queue-over-high-water-mark.
    pub fn steal_phase(&self) -> bool {
        self.walk.lock().unwrap().steal_phase()
    }

    /// The writer stole one block; open any window this satisfies.
    pub fn note_steal(&self) {
        self.walk.lock().unwrap().note_steal();
        self.opened.notify_all();
    }

    /// Fail every window open: the writer retired (no steals can come),
    /// or the sender drained (no wire can arm a window). Releases a
    /// sender held on an unmet window and a writer parked in
    /// [`SenderGate::await_steal_window`].
    pub fn cancel(&self) {
        self.walk.lock().unwrap().cancel();
        self.opened.notify_all();
    }

    /// Writer-side park between windows: block until an unmet steal
    /// window is armed (returns `true` — go steal) or no window can ever
    /// arm again (cancelled, or every remaining window's cumulative
    /// target is already met — returns `false` — retire).
    ///
    /// The threaded queue reports "closed" to the writer as soon as the
    /// app finishes, even while the sender still holds undrained blocks
    /// behind a scripted gate; without this park the writer would retire
    /// between windows and fail the rest of the script open, diverging
    /// from the DES (whose writer waits on the window gate, not the
    /// buffer).
    pub fn await_steal_window(&self) -> bool {
        let mut g = self.walk.lock().unwrap();
        loop {
            if g.steal_phase() {
                return true;
            }
            if g.pending_arm().is_none() {
                return false;
            }
            g = self.opened.wait(g).unwrap();
        }
    }

    /// Blocks stolen so far (test observability).
    pub fn steals(&self) -> u64 {
        self.walk.lock().unwrap().steals()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn script_windows_are_per_rank_and_sorted() {
        let s = BackpressureScript::new()
            .with(Rank(1), 4, GateRule::OpenAfterSteals(2))
            .with(Rank(0), 2, GateRule::Hold(Duration::from_millis(1)))
            .with(Rank(1), 2, GateRule::OpenAfterSteals(1));
        assert!(!s.is_empty());
        let w1 = s.windows_for(Rank(1));
        assert_eq!(w1.len(), 2);
        assert_eq!(w1[0].wire, 2);
        assert_eq!(w1[1].wire, 4);
        assert_eq!(s.windows_for(Rank(2)), Vec::new());
        s.validate(Some(8)).unwrap();
    }

    #[test]
    fn validate_rejects_bad_scripts() {
        let zero = BackpressureScript::new().with(Rank(0), 0, GateRule::OpenAfterSteals(1));
        assert!(zero.validate(None).is_err());
        let dup = BackpressureScript::new()
            .with(Rank(0), 3, GateRule::OpenAfterSteals(1))
            .with(Rank(0), 3, GateRule::OpenAfterSteals(2));
        assert!(dup.validate(None).is_err());
        let regress = BackpressureScript::new()
            .with(Rank(0), 2, GateRule::OpenAfterSteals(3))
            .with(Rank(0), 5, GateRule::OpenAfterSteals(1));
        assert!(regress.validate(None).is_err());
        let unsat = BackpressureScript::new().with(Rank(0), 4, GateRule::OpenAfterSteals(5));
        assert!(unsat.validate(Some(8)).is_err());
        assert!(unsat.validate(None).is_ok(), "satisfiability needs totals");
    }

    const HOLD: GateRule = GateRule::Hold(Duration::from_millis(3));
    const HELD: GateStep = GateStep::Hold(Duration::from_millis(3));

    fn walk(windows: &[(u64, GateRule)]) -> GateWalk {
        GateWalk::new(
            windows
                .iter()
                .map(|&(wire, rule)| GateWindow { wire, rule })
                .collect(),
        )
    }

    #[test]
    fn walk_returns_ordinals_and_arms_met_windows_open() {
        use GateRule::OpenAfterSteals as Credit;
        let mut walk = walk(&[(3, Credit(2)), (2, HOLD), (4, Credit(2))]);
        assert_eq!(walk.pass_data_wire(), (1, GateStep::Pass));
        assert_eq!(walk.pass_data_wire(), (2, HELD));
        assert_eq!(walk.pass_data_wire(), (3, GateStep::AwaitSteals(2)));
        assert!(walk.steal_phase());
        walk.note_steal();
        walk.note_steal();
        assert!(!walk.steal_phase(), "target met: the window opened");
        // Wire 4's window is met when reached: it still arms (the DES
        // writer counts arms) but holds nothing.
        assert_eq!(walk.pass_data_wire(), (4, GateStep::AwaitSteals(2)));
        assert_eq!(walk.arms(), 2);
        assert!(!walk.steal_phase());
        assert_eq!(walk.pass_data_wire(), (5, GateStep::Pass));
    }

    #[test]
    fn cancel_passes_credit_windows_but_still_holds() {
        use GateRule::OpenAfterSteals as Credit;
        let mut walk = walk(&[(1, Credit(5)), (2, HOLD), (3, Credit(6))]);
        assert_eq!(walk.pass_data_wire().1, GateStep::AwaitSteals(5));
        walk.cancel();
        assert!(!walk.steal_phase(), "cancel releases the armed window");
        assert_eq!(walk.pending_arm(), None);
        assert_eq!(walk.pass_data_wire().1, HELD);
        assert_eq!(walk.pass_data_wire().1, GateStep::Pass);
        assert_eq!(walk.arms(), 1, "a cancelled credit window never arms");
    }

    #[test]
    fn pending_arm_skips_met_windows() {
        use GateRule::OpenAfterSteals as Credit;
        let mut walk = walk(&[(2, Credit(2)), (3, HOLD), (4, Credit(2)), (5, Credit(3))]);
        assert_eq!(walk.pending_arm(), Some(1));
        walk.note_steal();
        walk.note_steal();
        // Both target-2 windows are met; the third credit window is next.
        assert_eq!(walk.pending_arm(), Some(3));
        walk.note_steal();
        assert_eq!(walk.pending_arm(), None, "every target met");
    }

    #[test]
    fn ungated_wires_pass_without_blocking() {
        let gate = SenderGate::new(vec![GateWindow {
            wire: 3,
            rule: GateRule::OpenAfterSteals(1),
        }]);
        assert_eq!(gate.pass_data_wire().1, Duration::ZERO); // wire 1
        assert_eq!(gate.pass_data_wire().1, Duration::ZERO); // wire 2
        assert!(!gate.steal_phase());
    }

    #[test]
    fn steal_window_blocks_until_target_met() {
        let gate = Arc::new(SenderGate::new(vec![GateWindow {
            wire: 1,
            rule: GateRule::OpenAfterSteals(2),
        }]));
        let g2 = gate.clone();
        let writer = std::thread::spawn(move || {
            while !g2.steal_phase() {
                std::thread::yield_now();
            }
            g2.note_steal();
            assert!(g2.steal_phase(), "one steal of two leaves the window armed");
            g2.note_steal();
        });
        let (_, held) = gate.pass_data_wire();
        writer.join().unwrap();
        assert!(!gate.steal_phase(), "window disarmed after opening");
        assert_eq!(gate.steals(), 2);
        let _ = held; // duration is timing-dependent; reaching here is the assertion
    }

    #[test]
    fn satisfied_or_cancelled_windows_fail_open() {
        let gate = SenderGate::new(vec![
            GateWindow {
                wire: 1,
                rule: GateRule::OpenAfterSteals(1),
            },
            GateWindow {
                wire: 2,
                rule: GateRule::OpenAfterSteals(5),
            },
        ]);
        gate.note_steal();
        assert_eq!(
            gate.pass_data_wire().1,
            Duration::ZERO,
            "target already met: no hold"
        );
        gate.cancel();
        assert_eq!(
            gate.pass_data_wire().1,
            Duration::ZERO,
            "retired writer cancels the window"
        );
        assert!(!gate.steal_phase());
    }

    #[test]
    fn hold_window_sleeps_and_reports() {
        let gate = SenderGate::new(vec![GateWindow {
            wire: 2,
            rule: GateRule::Hold(Duration::from_millis(20)),
        }]);
        assert_eq!(gate.pass_data_wire().1, Duration::ZERO);
        // Timed test of the real hold: wall clock is the thing under test.
        #[allow(clippy::disallowed_methods)]
        let t0 = Instant::now();
        let (_, held) = gate.pass_data_wire();
        assert_eq!(held, Duration::from_millis(20));
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn waker_fires_on_arm_and_disarm() {
        let gate = Arc::new(SenderGate::new(vec![GateWindow {
            wire: 1,
            rule: GateRule::OpenAfterSteals(1),
        }]));
        let nudges = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let n2 = nudges.clone();
        gate.set_waker(move || {
            n2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        let g2 = gate.clone();
        let writer = std::thread::spawn(move || {
            while !g2.steal_phase() {
                std::thread::yield_now();
            }
            g2.note_steal();
        });
        gate.pass_data_wire();
        writer.join().unwrap();
        assert_eq!(nudges.load(std::sync::atomic::Ordering::Relaxed), 2);
    }
}
