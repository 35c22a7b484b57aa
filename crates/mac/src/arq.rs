//! Selective-repeat ARQ (paper Section IV-C4).
//!
//! When an exposed terminal transmits concurrently with an ongoing frame,
//! the two transmissions rarely end at the same instant, so plain 802.11
//! stop-and-wait ACKs are often corrupted by the tail of the other data
//! frame. CO-MAP therefore runs a **selective-repeat** window: the sender
//! pushes up to `W_send` frames with consecutive sequence numbers, moving
//! on after an ACK timeout instead of retransmitting immediately, and only
//! resends the frames its ACKs report missing once the window has been
//! swept.
//!
//! The types here are pure window bookkeeping — the simulator decides
//! *when* to send and how long `t_ACKwait` is.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// A link-layer sequence number.
pub type Seq = u64;

/// Error returned when an operation names a sequence number that is not
/// currently in the send window (never enqueued, already delivered, or
/// abandoned past the retry limit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownSeq(pub Seq);

impl fmt::Display for UnknownSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sequence {} not in send window", self.0)
    }
}

impl std::error::Error for UnknownSeq {}

/// A selective-repeat acknowledgment: everything below `base` has been
/// received, plus the frames flagged in `bitmap` (bit `i` ⇔ `base + i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ack {
    /// Lowest sequence number **not** yet received in order.
    pub base: Seq,
    /// Out-of-order receptions above `base`.
    pub bitmap: u64,
}

impl Ack {
    /// Whether this ACK acknowledges `seq`.
    pub fn acknowledges(&self, seq: Seq) -> bool {
        if seq < self.base {
            true
        } else {
            let offset = seq - self.base;
            offset < 64 && (self.bitmap >> offset) & 1 == 1
        }
    }
}

#[derive(Debug, Clone)]
struct SendEntry {
    seq: Seq,
    payload_bytes: u32,
    acked: bool,
    attempts: u32,
}

/// Sender-side selective-repeat window.
///
/// ```rust
/// use comap_mac::arq::{SelectiveRepeatReceiver, SelectiveRepeatSender};
///
/// let mut tx = SelectiveRepeatSender::new(4);
/// let mut rx = SelectiveRepeatReceiver::new();
/// let s0 = tx.enqueue(500).unwrap();
/// let s1 = tx.enqueue(500).unwrap();
/// // s0 is lost, s1 arrives:
/// tx.mark_sent(s0).unwrap();
/// tx.mark_sent(s1).unwrap();
/// assert!(rx.on_frame(s1));
/// tx.on_ack(rx.ack());
/// // Only s0 still needs (re)sending.
/// assert_eq!(tx.next_to_send(), Some(s0));
/// ```
#[derive(Debug, Clone)]
pub struct SelectiveRepeatSender {
    window_size: usize,
    window: VecDeque<SendEntry>,
    next_seq: Seq,
    delivered: u64,
}

impl SelectiveRepeatSender {
    /// Creates a sender with window `W_send`.
    ///
    /// # Panics
    ///
    /// Panics if `window_size` is zero or above 64 (the ACK bitmap width).
    pub fn new(window_size: usize) -> Self {
        assert!(
            (1..=64).contains(&window_size),
            "window size must be in 1..=64, got {window_size}"
        );
        SelectiveRepeatSender {
            window_size,
            window: VecDeque::new(),
            next_seq: 0,
            delivered: 0,
        }
    }

    /// The configured window size.
    pub fn window_size(&self) -> usize {
        self.window_size
    }

    /// Whether a new frame can enter the window.
    pub fn has_room(&self) -> bool {
        self.window.len() < self.window_size
    }

    /// Admits a new `payload_bytes`-byte frame, returning its sequence
    /// number, or `None` when the window is full.
    pub fn enqueue(&mut self, payload_bytes: u32) -> Option<Seq> {
        if !self.has_room() {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.window.push_back(SendEntry {
            seq,
            payload_bytes,
            acked: false,
            attempts: 0,
        });
        Some(seq)
    }

    /// The next frame the selective-repeat discipline would transmit:
    /// unacked, fewest attempts first (so the first sweep sends everything
    /// once before any retransmission), FIFO among equals.
    pub fn next_to_send(&self) -> Option<Seq> {
        self.window
            .iter()
            .filter(|e| !e.acked)
            .min_by_key(|e| (e.attempts, e.seq))
            .map(|e| e.seq)
    }

    /// Payload size of an in-window frame.
    pub fn payload_of(&self, seq: Seq) -> Option<u32> {
        self.window
            .iter()
            .find(|e| e.seq == seq)
            .map(|e| e.payload_bytes)
    }

    /// Number of transmission attempts already made for `seq`.
    pub fn attempts_of(&self, seq: Seq) -> Option<u32> {
        self.window
            .iter()
            .find(|e| e.seq == seq)
            .map(|e| e.attempts)
    }

    /// Records that `seq` went on the air once.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSeq`] if `seq` is not in the window.
    pub fn mark_sent(&mut self, seq: Seq) -> Result<(), UnknownSeq> {
        let entry = self
            .window
            .iter_mut()
            .find(|e| e.seq == seq)
            .ok_or(UnknownSeq(seq))?;
        entry.attempts += 1;
        Ok(())
    }

    /// Applies an ACK, marking in-window frames delivered and sliding the
    /// window. Returns the number of frames newly confirmed delivered.
    pub fn on_ack(&mut self, ack: Ack) -> usize {
        self.on_ack_with(ack, |_| {})
    }

    /// Like [`on_ack`](Self::on_ack), but reports each newly confirmed
    /// sequence number (in window order) to `newly_acked` — the hook
    /// instrumentation uses to close per-frame latency spans without
    /// changing the window bookkeeping.
    pub fn on_ack_with(&mut self, ack: Ack, mut newly_acked: impl FnMut(Seq)) -> usize {
        let mut newly = 0;
        for entry in &mut self.window {
            if !entry.acked && ack.acknowledges(entry.seq) {
                entry.acked = true;
                newly += 1;
                newly_acked(entry.seq);
            }
        }
        while matches!(self.window.front(), Some(e) if e.acked) {
            self.window.pop_front();
            self.delivered += 1;
        }
        newly
    }

    /// Drops an in-window frame after exhausting its retries (the frame is
    /// lost for good, as 802.11 does past the retry limit). Frames are
    /// never silently skipped otherwise.
    pub fn abandon(&mut self, seq: Seq) {
        if let Some(idx) = self.window.iter().position(|e| e.seq == seq) {
            self.window.remove(idx);
        }
    }

    /// Frames currently in the window (sent or not) that are unacked.
    pub fn outstanding(&self) -> usize {
        self.window.iter().filter(|e| !e.acked).count()
    }

    /// `true` once every in-window frame has been sent at least once — the
    /// point at which the paper's discipline switches to retransmissions.
    pub fn window_swept(&self) -> bool {
        self.window.iter().all(|e| e.attempts > 0)
    }

    /// Total frames confirmed delivered over the lifetime of the sender.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

/// Receiver-side selective-repeat window: tracks which sequence numbers
/// arrived and builds cumulative-plus-bitmap ACKs.
#[derive(Debug, Clone, Default)]
pub struct SelectiveRepeatReceiver {
    next_expected: Seq,
    out_of_order: BTreeSet<Seq>,
}

impl SelectiveRepeatReceiver {
    /// Creates an empty receiver window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a frame arrival. Returns `true` if the frame is new (it
    /// should count toward goodput) and `false` for duplicates.
    pub fn on_frame(&mut self, seq: Seq) -> bool {
        if seq < self.next_expected || self.out_of_order.contains(&seq) {
            return false;
        }
        self.out_of_order.insert(seq);
        while self.out_of_order.remove(&self.next_expected) {
            self.next_expected += 1;
        }
        true
    }

    /// Builds the ACK describing the current reception state.
    pub fn ack(&self) -> Ack {
        let mut bitmap = 0u64;
        for &seq in &self.out_of_order {
            let offset = seq - self.next_expected;
            if offset < 64 {
                bitmap |= 1 << offset;
            }
        }
        Ack {
            base: self.next_expected,
            bitmap,
        }
    }

    /// Lowest sequence number not yet received.
    pub fn next_expected(&self) -> Seq {
        self.next_expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_delivery_slides_window() {
        let mut tx = SelectiveRepeatSender::new(4);
        let mut rx = SelectiveRepeatReceiver::new();
        for _ in 0..4 {
            let seq = tx.enqueue(100).unwrap();
            tx.mark_sent(seq).unwrap();
            assert!(rx.on_frame(seq));
            tx.on_ack(rx.ack());
        }
        assert_eq!(tx.delivered(), 4);
        assert_eq!(tx.outstanding(), 0);
        assert!(tx.has_room());
    }

    #[test]
    fn window_fills_and_rejects() {
        let mut tx = SelectiveRepeatSender::new(2);
        assert!(tx.enqueue(10).is_some());
        assert!(tx.enqueue(10).is_some());
        assert_eq!(tx.enqueue(10), None);
    }

    #[test]
    fn loss_is_reported_and_retransmitted() {
        let mut tx = SelectiveRepeatSender::new(3);
        let mut rx = SelectiveRepeatReceiver::new();
        let s: Vec<Seq> = (0..3).map(|_| tx.enqueue(100).unwrap()).collect();
        // s0 lost; s1, s2 arrive.
        tx.mark_sent(s[0]).unwrap();
        tx.mark_sent(s[1]).unwrap();
        tx.mark_sent(s[2]).unwrap();
        assert!(rx.on_frame(s[1]));
        assert!(rx.on_frame(s[2]));
        let ack = rx.ack();
        assert_eq!(ack.base, 0);
        assert!(ack.acknowledges(s[1]) && ack.acknowledges(s[2]));
        assert!(!ack.acknowledges(s[0]));
        tx.on_ack(ack);
        assert!(tx.window_swept());
        assert_eq!(tx.next_to_send(), Some(s[0]));
        // Retransmission succeeds.
        tx.mark_sent(s[0]).unwrap();
        assert!(rx.on_frame(s[0]));
        tx.on_ack(rx.ack());
        assert_eq!(tx.delivered(), 3);
        assert_eq!(tx.outstanding(), 0);
    }

    #[test]
    fn first_sweep_before_retransmissions() {
        let mut tx = SelectiveRepeatSender::new(3);
        let s: Vec<Seq> = (0..3).map(|_| tx.enqueue(100).unwrap()).collect();
        assert_eq!(tx.next_to_send(), Some(s[0]));
        tx.mark_sent(s[0]).unwrap();
        // Even with s0 unacked, the sweep continues to s1 and s2 first.
        assert_eq!(tx.next_to_send(), Some(s[1]));
        tx.mark_sent(s[1]).unwrap();
        assert_eq!(tx.next_to_send(), Some(s[2]));
        tx.mark_sent(s[2]).unwrap();
        // Now the retransmission pass starts at the oldest unacked.
        assert_eq!(tx.next_to_send(), Some(s[0]));
    }

    #[test]
    fn duplicates_do_not_count_twice() {
        let mut rx = SelectiveRepeatReceiver::new();
        assert!(rx.on_frame(0));
        assert!(!rx.on_frame(0));
        assert!(rx.on_frame(2));
        assert!(!rx.on_frame(2));
        assert_eq!(rx.next_expected(), 1);
    }

    #[test]
    fn ack_bitmap_reports_gaps() {
        let mut rx = SelectiveRepeatReceiver::new();
        rx.on_frame(0);
        rx.on_frame(2);
        rx.on_frame(5);
        let ack = rx.ack();
        assert_eq!(ack.base, 1);
        assert!(ack.acknowledges(0));
        assert!(!ack.acknowledges(1));
        assert!(ack.acknowledges(2));
        assert!(!ack.acknowledges(3));
        assert!(ack.acknowledges(5));
    }

    #[test]
    fn on_ack_with_reports_each_newly_acked_seq_once() {
        let mut tx = SelectiveRepeatSender::new(4);
        let mut rx = SelectiveRepeatReceiver::new();
        let s: Vec<Seq> = (0..3).map(|_| tx.enqueue(100).unwrap()).collect();
        for &seq in &s {
            tx.mark_sent(seq).unwrap();
        }
        rx.on_frame(s[0]);
        rx.on_frame(s[2]);
        let mut reported = Vec::new();
        let newly = tx.on_ack_with(rx.ack(), |seq| reported.push(seq));
        assert_eq!(newly, 2);
        assert_eq!(reported, vec![s[0], s[2]]);
        // A duplicate ACK reports nothing new.
        reported.clear();
        assert_eq!(tx.on_ack_with(rx.ack(), |seq| reported.push(seq)), 0);
        assert!(reported.is_empty());
    }

    #[test]
    fn abandon_removes_frame() {
        let mut tx = SelectiveRepeatSender::new(2);
        let s0 = tx.enqueue(10).unwrap();
        let s1 = tx.enqueue(10).unwrap();
        tx.abandon(s0);
        assert_eq!(tx.outstanding(), 1);
        assert_eq!(tx.next_to_send(), Some(s1));
        assert!(tx.has_room());
    }

    #[test]
    fn marking_unknown_seq_is_an_error() {
        let mut tx = SelectiveRepeatSender::new(2);
        assert_eq!(tx.mark_sent(99), Err(UnknownSeq(99)));
        assert_eq!(UnknownSeq(99).to_string(), "sequence 99 not in send window");
    }

    #[test]
    #[should_panic(expected = "window size must be")]
    fn oversized_window_panics() {
        let _ = SelectiveRepeatSender::new(65);
    }
}
