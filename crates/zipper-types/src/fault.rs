//! The deterministic chaos engine: substrate-independent fault scripts.
//!
//! A [`ChaosPlan`] is a *scripted* schedule of multi-fault events
//! addressed by entity and operation ordinal — "the 3rd send of producer 1
//! is dropped", "the 2nd PFS put of writer 0 fails", "analysis rank 1
//! crashes on its 5th read". Periodic faults are the same data:
//! [`ChaosPlan::every`] expands "every N-th operation" into one event per
//! struck ordinal, so there is one fault script. Because ordinals count
//! an entity's *own* operations (never wall or virtual time), the same
//! plan is interpretable by the threaded runtime and the discrete-event
//! simulator, and both degrade through the same policy-kernel decision
//! sequence — the property the fault-conformance tests assert.
//!
//! Ordinal conventions (what each entity counts, identically on both
//! substrates):
//!
//! * **Sender** — one stream of wire sends: data-carrying messages first
//!   (in route order), then the EOS markers fanned out at end-of-stream.
//!   Disk-only ID flushes are *not* counted (the substrates batch them
//!   differently). Sends skipped because the destination is already dead
//!   are not counted either.
//! * **Writer** — PFS `put` attempts of the producer's work-stealing
//!   writer thread.
//! * **Output** — PFS `put` attempts of the consumer's Preserve-mode
//!   output path.
//! * **Analysis** — the consumer application's read calls.

use crate::ids::Rank;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// An entity a chaos event addresses: one rank's sender thread, writer
/// thread, Preserve output path, or analysis application.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChaosEntity {
    /// Producer `rank`'s message-channel sender.
    Sender(Rank),
    /// Producer `rank`'s work-stealing writer thread.
    Writer(Rank),
    /// Consumer `rank`'s Preserve-mode output path.
    Output(Rank),
    /// Consumer `rank`'s analysis application.
    Analysis(Rank),
}

/// What goes wrong when a scheduled ordinal is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosFault {
    /// The send fails with a transport error (the destination is treated
    /// as dead by the sender from then on).
    FailSend,
    /// The wire is silently dropped: the send "succeeds" but nothing
    /// arrives.
    DropWire,
    /// The wire arrives corrupted and is discarded by the transport
    /// (trace-equivalent to a drop; the corruption is visible in
    /// metrics, not in policy decisions).
    CorruptWire,
    /// The wire is delayed by this much before delivery (wall time on
    /// the threaded runtime, the same span of virtual time on the DES).
    DelayWire(Duration),
    /// An end-of-stream marker is swallowed in flight — the trigger for
    /// the consumer's EOS watchdog.
    DropEos,
    /// The PFS write fails (writer retires, or Preserve store is lost).
    PfsWriteFail,
    /// The application crashes at this ordinal (consumer: panic inside
    /// its read loop).
    CrashApp,
    /// Structural, ordinal-free: the producer's sender takes no blocks
    /// at all, so with `high_water_mark = 0` every block drains through
    /// the writer in production order — the deterministic steal schedule
    /// the recovery conformance config relies on. Requires
    /// `concurrent_transfer`.
    DetachSender,
}

/// One scripted fault: `fault` strikes `entity`'s `ordinal`-th operation
/// (1-based; see the module docs for what each entity counts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosEvent {
    pub entity: ChaosEntity,
    pub ordinal: u64,
    pub fault: ChaosFault,
}

/// A substrate-independent chaos script: plain data, interpreted by the
/// threaded runtime's injection wrappers and by the DES's virtual
/// processes through per-entity [`ChaosScope`]s.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    pub events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: schedule `fault` on `entity`'s `ordinal`-th operation.
    /// [`ChaosFault::DetachSender`] is ordinal-free; pass 0.
    pub fn with(mut self, entity: ChaosEntity, ordinal: u64, fault: ChaosFault) -> Self {
        self.events.push(ChaosEvent {
            entity,
            ordinal,
            fault,
        });
        self
    }

    /// Builder: schedule `fault` on every `period`-th operation of
    /// `entity` — ordinals `period, 2·period, …` up to and including
    /// `through`. The plan stays plain data (one event per struck
    /// ordinal), so preflight and the DES read a periodic script exactly
    /// like a hand-written one. Panics on `period == 0` and on the
    /// ordinal-free [`ChaosFault::DetachSender`].
    pub fn every(self, entity: ChaosEntity, period: u64, through: u64, fault: ChaosFault) -> Self {
        assert!(period >= 1, "fault period must be at least 1");
        assert!(
            fault != ChaosFault::DetachSender,
            "DetachSender is ordinal-free and cannot repeat"
        );
        (period..=through)
            .step_by(period as usize)
            .fold(self, |plan, ordinal| plan.with(entity, ordinal, fault))
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Extract `entity`'s view of the plan: its scheduled (ordinal,
    /// fault) pairs plus a live operation counter.
    pub fn scope(&self, entity: ChaosEntity) -> ChaosScope {
        let mut faults: Vec<(u64, ChaosFault)> = Vec::new();
        let mut detached = false;
        for ev in self.events.iter().filter(|ev| ev.entity == entity) {
            if ev.fault == ChaosFault::DetachSender {
                detached = true;
            } else {
                faults.push((ev.ordinal, ev.fault));
            }
        }
        faults.sort_by_key(|&(ord, _)| ord);
        ChaosScope {
            faults,
            ops: AtomicU64::new(0),
            detached,
        }
    }
}

/// One entity's live view of a [`ChaosPlan`]: the faults scheduled for
/// it, and the operation counter that decides when they strike. Shared
/// across consumer-restart incarnations so ordinal counting continues
/// over a recovery boundary.
#[derive(Debug)]
pub struct ChaosScope {
    faults: Vec<(u64, ChaosFault)>,
    ops: AtomicU64,
    detached: bool,
}

impl ChaosScope {
    /// Count one operation; returns the fault scheduled for this
    /// ordinal, if any (the first one scripted, when several share it).
    pub fn next(&self) -> Option<ChaosFault> {
        let n = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        // `faults` is sorted stably by ordinal, so the partition point is
        // the first event scripted for `n`.
        let i = self.faults.partition_point(|&(ord, _)| ord < n);
        self.faults
            .get(i)
            .filter(|&&(ord, _)| ord == n)
            .map(|&(_, f)| f)
    }

    /// Whether this entity is structurally detached
    /// ([`ChaosFault::DetachSender`]).
    pub fn detached(&self) -> bool {
        self.detached
    }

    /// True when no ordinal faults are scheduled (detachment aside).
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scheduled (ordinal, fault) pairs, sorted by ordinal
    /// (detachment aside).
    pub fn faults(&self) -> &[(u64, ChaosFault)] {
        &self.faults
    }

    /// Operations counted so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ordinals at which `scope` strikes over its first `ops` operations.
    fn struck(scope: &ChaosScope, ops: u64) -> Vec<(u64, ChaosFault)> {
        (1..=ops)
            .filter_map(|n| scope.next().map(|f| (n, f)))
            .collect()
    }

    #[test]
    fn every_generates_periodic_ordinals() {
        use ChaosFault::{DropWire, PfsWriteFail};
        let e = ChaosEntity::Writer(Rank(1));
        let s = ChaosPlan::new().every(e, 3, 10, DropWire).scope(e);
        assert_eq!(
            struck(&s, 12),
            [(3, DropWire), (6, DropWire), (9, DropWire)]
        );
        // Period 1 strikes every operation up to `through`, none after.
        let s = ChaosPlan::new().every(e, 1, 2, PfsWriteFail).scope(e);
        assert_eq!(struck(&s, 4), [(1, PfsWriteFail), (2, PfsWriteFail)]);
        // `through < period`: nothing is scheduled.
        assert!(ChaosPlan::new().every(e, 5, 4, DropWire).is_empty());
    }

    #[test]
    fn scope_returns_the_first_fault_on_a_shared_ordinal() {
        use ChaosFault::{DropEos, DropWire, FailSend};
        let e = ChaosEntity::Sender(Rank(0));
        let s = ChaosPlan::new()
            .every(e, 2, 6, FailSend)
            .with(e, 4, DropEos)
            .every(e, 4, 8, DropWire)
            .scope(e);
        let want = [(2, FailSend), (4, FailSend), (6, FailSend), (8, DropWire)];
        assert_eq!(struck(&s, 9), want);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn every_rejects_zero_period() {
        let _ = ChaosPlan::new().every(ChaosEntity::Sender(Rank(0)), 0, 4, ChaosFault::DropWire);
    }

    #[test]
    #[should_panic(expected = "ordinal-free")]
    fn every_rejects_detach_sender() {
        let e = ChaosEntity::Sender(Rank(0));
        let _ = ChaosPlan::new().every(e, 1, 4, ChaosFault::DetachSender);
    }

    #[test]
    fn scope_fires_faults_at_their_ordinals() {
        let plan = ChaosPlan::new()
            .with(ChaosEntity::Sender(Rank(0)), 2, ChaosFault::DropWire)
            .with(ChaosEntity::Sender(Rank(0)), 4, ChaosFault::FailSend)
            .with(ChaosEntity::Sender(Rank(1)), 1, ChaosFault::DropEos);
        let s0 = plan.scope(ChaosEntity::Sender(Rank(0)));
        assert_eq!(s0.next(), None);
        assert_eq!(s0.next(), Some(ChaosFault::DropWire));
        assert_eq!(s0.next(), None);
        assert_eq!(s0.next(), Some(ChaosFault::FailSend));
        assert_eq!(s0.next(), None);
        // Rank 1's events are invisible to rank 0's scope and vice versa.
        let s1 = plan.scope(ChaosEntity::Sender(Rank(1)));
        assert_eq!(s1.next(), Some(ChaosFault::DropEos));
        // Writers are a different entity from senders of the same rank.
        let w0 = plan.scope(ChaosEntity::Writer(Rank(0)));
        assert!(w0.is_empty());
        assert_eq!(w0.next(), None);
    }

    #[test]
    fn detach_is_structural_not_ordinal() {
        let plan = ChaosPlan::new().with(ChaosEntity::Sender(Rank(2)), 0, ChaosFault::DetachSender);
        let s = plan.scope(ChaosEntity::Sender(Rank(2)));
        assert!(s.detached());
        assert!(s.is_empty());
        assert_eq!(s.next(), None);
        assert!(!plan.scope(ChaosEntity::Sender(Rank(3))).detached());
    }

    #[test]
    fn scope_counting_is_shared_across_handles() {
        // The scope is one counter: callers observing it from different
        // incarnations (consumer restarts) keep a single ordinal stream.
        let plan = ChaosPlan::new().with(ChaosEntity::Analysis(Rank(0)), 3, ChaosFault::CrashApp);
        let s = std::sync::Arc::new(plan.scope(ChaosEntity::Analysis(Rank(0))));
        assert_eq!(s.next(), None);
        let s2 = s.clone();
        assert_eq!(s2.next(), None);
        assert_eq!(s.next(), Some(ChaosFault::CrashApp));
    }
}
