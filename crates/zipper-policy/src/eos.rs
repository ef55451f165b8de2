//! The fully-asynchronous end-of-stream protocol (§4.3).
//!
//! Zipper has no global barrier between the two applications: each producer
//! announces end-of-stream independently, on every channel it used, and each
//! consumer keeps analyzing until it has seen every mark it expects. This
//! module holds both halves of that protocol as pure bookkeeping — the
//! producer-side fan-out lives in
//! [`ProducerPolicy::announce_eos`](crate::ProducerPolicy::announce_eos),
//! the consumer-side completion tracking in [`EosTracker`]. At paper scale
//! every producer announces to every consumer on both channels (2·p·q
//! marks), so the tracker answers "complete?" in O(1) per mark.

use zipper_types::Rank;

/// Which of the two transfer channels of the concurrent-transfer
/// optimization carried a block (or an EOS mark).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Channel {
    /// The message-passing channel (sender thread → receiver thread).
    Net,
    /// The file channel through the PFS (writer thread → reader thread).
    Disk,
}

impl Channel {
    /// The channels active under a given `concurrent_transfer` setting:
    /// `[Net]` for message-only runs, `[Net, Disk]` with the dual-channel
    /// optimization on.
    pub fn active(concurrent_transfer: bool) -> &'static [Channel] {
        if concurrent_transfer {
            &[Channel::Net, Channel::Disk]
        } else {
            &[Channel::Net]
        }
    }
}

/// Progress of a consumer toward end of stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EosProgress {
    /// Marks are still outstanding; keep receiving.
    Pending,
    /// Every producer has announced on every active channel.
    Complete,
}

impl EosProgress {
    pub fn is_complete(self) -> bool {
        matches!(self, EosProgress::Complete)
    }
}

/// Consumer-side completion tracking: one mark per (producer, channel).
///
/// Duplicate marks are ignored (at-least-once delivery is fine), and marks
/// on an inactive channel are ignored too, so a stray `Disk` mark in a
/// message-only run cannot make completion fire early or late.
#[derive(Clone, Debug)]
pub struct EosTracker {
    /// `marks[p]` = [net seen, disk seen] for producer `p`.
    marks: Vec<[bool; 2]>,
    /// New marks on active channels so far, so `seen()` and
    /// `is_complete()` are O(1).
    seen: usize,
    concurrent: bool,
}

impl EosTracker {
    /// Track `producers` upstream ranks under the given channel mode.
    ///
    /// # Panics
    /// If `producers` is zero — a consumer with no upstream never completes.
    pub fn new(producers: usize, concurrent_transfer: bool) -> Self {
        assert!(producers > 0, "EOS tracker needs at least one producer");
        EosTracker {
            marks: vec![[false; 2]; producers],
            seen: 0,
            concurrent: concurrent_transfer,
        }
    }

    fn channels(&self) -> &'static [Channel] {
        Channel::active(self.concurrent)
    }

    /// Total marks this consumer must see: producers × active channels.
    pub fn expected(&self) -> usize {
        self.marks.len() * self.channels().len()
    }

    /// Marks seen so far (deduplicated).
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Producers that have announced on *every* active channel. The EOS
    /// watchdog reports progress in these whole-producer units.
    pub fn producers_done(&self) -> usize {
        self.marks
            .iter()
            .filter(|m| self.channels().iter().all(|&c| m[c as usize]))
            .count()
    }

    /// Record a mark from `producer` on `channel`. Returns `true` if the
    /// mark was new (first sighting on an active channel), `false` for
    /// duplicates and inactive-channel marks.
    ///
    /// # Panics
    /// If `producer` is out of range.
    pub fn note(&mut self, producer: Rank, channel: Channel) -> bool {
        assert!(
            producer.idx() < self.marks.len(),
            "EOS mark from unknown producer {producer:?}"
        );
        if !self.channels().contains(&channel) {
            return false;
        }
        let slot = &mut self.marks[producer.idx()][channel as usize];
        let new = !std::mem::replace(slot, true);
        self.seen += usize::from(new);
        new
    }

    /// Whether every expected mark has arrived.
    pub fn is_complete(&self) -> bool {
        self.seen == self.expected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_only_expects_one_mark_per_producer() {
        let mut t = EosTracker::new(3, false);
        assert_eq!(t.expected(), 3);
        for p in 0..3 {
            assert!(!t.is_complete());
            assert!(t.note(Rank(p), Channel::Net));
        }
        assert!(t.is_complete());
        assert_eq!(t.producers_done(), 3);
    }

    #[test]
    fn dual_channel_needs_both_marks() {
        let mut t = EosTracker::new(2, true);
        assert_eq!(t.expected(), 4);
        t.note(Rank(0), Channel::Net);
        t.note(Rank(1), Channel::Net);
        assert!(!t.is_complete());
        assert_eq!(t.producers_done(), 0, "no producer fully done yet");
        t.note(Rank(0), Channel::Disk);
        assert_eq!(t.producers_done(), 1);
        t.note(Rank(1), Channel::Disk);
        assert!(t.is_complete());
    }

    #[test]
    fn duplicates_and_inactive_channels_are_ignored() {
        let mut t = EosTracker::new(1, false);
        assert!(t.note(Rank(0), Channel::Net));
        assert!(!t.note(Rank(0), Channel::Net), "duplicate");
        assert!(!t.note(Rank(0), Channel::Disk), "inactive channel");
        assert_eq!(t.seen(), 1);
        assert!(t.is_complete());
    }

    #[test]
    #[should_panic(expected = "unknown producer")]
    fn out_of_range_producer_rejected() {
        EosTracker::new(1, true).note(Rank(1), Channel::Net);
    }
}
