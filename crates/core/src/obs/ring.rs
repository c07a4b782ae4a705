//! Per-thread bounded event ring.
//!
//! One [`Ring`] belongs to one producer at a time: the engine's install
//! loop, its `cgraph-trigger` drain, the serve loop, or the store
//! bridge.  The producer writes events, a
//! drainer reads them out after the producer has quiesced (between
//! rounds, or at export time).  Within that discipline the ring is
//! lock-free and wait-free on the hot path:
//!
//! * every slot is `EVENT_WORDS` plain [`AtomicU64`] words — no
//!   `UnsafeCell`, no `unsafe` anywhere in this module.  Even a misuse
//!   (two producers racing) can only interleave *words* and produce a
//!   garbled event that [`Event::unpack`] rejects; it cannot corrupt
//!   memory,
//! * a push is `EVENT_WORDS` relaxed stores plus one release store of
//!   `head` — no CAS loop, no allocation, no syscall,
//! * when the ring is full the producer **drops the oldest** event
//!   (advances `tail` by one) and bumps a `dropped` counter, so a burst
//!   never blocks the pipeline and the loss is observable rather than
//!   silent.
//!
//! `head` and `tail` are monotonic event sequence numbers (never
//! wrapped); the slot index is `seq & mask`.  The drainer acquires
//! `head`, reads `tail..head`, then release-stores `tail = head`.

use std::sync::atomic::{AtomicU64, Ordering};

use super::event::{Event, EVENT_WORDS};

/// Default per-thread ring capacity, in events.  At 40 bytes per event
/// this is 640 KiB per ring.  One `cgraph-trigger` ring records every
/// chunk span of an engine's run: the serve-loop test's run of a few
/// hundred jobs puts 6494 events there, which this holds before
/// drop-oldest engages.
pub const DEFAULT_RING_EVENTS: usize = 1 << 14;

/// A single-producer bounded ring of packed [`Event`]s.
pub struct Ring {
    /// Thread name this ring records for (Chrome trace `thread_name`).
    name: String,
    /// `capacity - 1`; capacity is always a power of two.
    mask: u64,
    /// `capacity * EVENT_WORDS` atomic words.
    slots: Box<[AtomicU64]>,
    /// Next event sequence number to write (producer-owned).
    head: AtomicU64,
    /// Next event sequence number to read (advanced by the producer on
    /// overflow and by the drainer on drain).
    tail: AtomicU64,
    /// Events discarded by drop-oldest since creation.
    dropped: AtomicU64,
}

impl Ring {
    /// Creates a ring able to hold `capacity` events (rounded up to a
    /// power of two, minimum 8).
    pub fn new(name: &str, capacity: usize) -> Ring {
        let cap = capacity.max(8).next_power_of_two();
        let words = cap * EVENT_WORDS;
        let slots: Box<[AtomicU64]> = (0..words).map(|_| AtomicU64::new(0)).collect();
        Ring {
            name: name.to_string(),
            mask: (cap as u64) - 1,
            slots,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        (self.mask + 1) as usize
    }

    /// Thread name this ring belongs to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Events lost to drop-oldest so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently buffered (len, not capacity).
    pub fn len(&self) -> usize {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        (head - tail) as usize
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Producer-side append.  Never blocks; drops the oldest event when
    /// full.
    pub fn push(&self, ev: &Event) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head - tail > self.mask {
            // Full: overwrite the oldest slot.  fetch_add (not store)
            // so a concurrent drain advancing tail cannot be undone.
            self.tail.fetch_add(1, Ordering::AcqRel);
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let base = ((head & self.mask) as usize) * EVENT_WORDS;
        for (i, w) in ev.pack().iter().enumerate() {
            self.slots[base + i].store(*w, Ordering::Relaxed);
        }
        self.head.store(head + 1, Ordering::Release);
    }

    /// Drains all buffered events in recording order.  Call while the
    /// producer is quiescent (between rounds / at export); a racing
    /// producer can at worst garble individual events, which decode to
    /// `None` and are skipped.
    pub fn drain(&self) -> Vec<Event> {
        let head = self.head.load(Ordering::Acquire);
        let mut tail = self.tail.load(Ordering::Acquire);
        let mut out = Vec::with_capacity((head - tail) as usize);
        while tail < head {
            let base = ((tail & self.mask) as usize) * EVENT_WORDS;
            let mut words = [0u64; EVENT_WORDS];
            for (i, w) in words.iter_mut().enumerate() {
                *w = self.slots[base + i].load(Ordering::Relaxed);
            }
            if let Some(ev) = Event::unpack(words) {
                out.push(ev);
            }
            tail += 1;
        }
        self.tail.store(head, Ordering::Release);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::event::{EventKind, NONE};
    use super::*;

    fn ev(seq: u64) -> Event {
        Event {
            kind: EventKind::Install,
            thread: 1,
            job: seq as u32,
            shard: NONE,
            round: 0,
            start_ns: seq,
            dur_ns: 0,
            value: seq,
        }
    }

    #[test]
    fn fifo_drain() {
        let r = Ring::new("t", 16);
        for i in 0..10 {
            r.push(&ev(i));
        }
        let out = r.drain();
        assert_eq!(out.len(), 10);
        assert!(out.iter().enumerate().all(|(i, e)| e.value == i as u64));
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let r = Ring::new("t", 8);
        let cap = r.capacity() as u64;
        for i in 0..cap + 5 {
            r.push(&ev(i));
        }
        assert_eq!(r.dropped(), 5);
        let out = r.drain();
        assert_eq!(out.len(), cap as usize);
        // The *oldest* five are gone; the newest `cap` survive in order.
        assert_eq!(out.first().unwrap().value, 5);
        assert_eq!(out.last().unwrap().value, cap + 4);
    }

    #[test]
    fn drain_then_refill() {
        let r = Ring::new("t", 8);
        for i in 0..6 {
            r.push(&ev(i));
        }
        assert_eq!(r.drain().len(), 6);
        for i in 6..9 {
            r.push(&ev(i));
        }
        let out = r.drain();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].value, 6);
        assert_eq!(r.dropped(), 0);
    }
}
