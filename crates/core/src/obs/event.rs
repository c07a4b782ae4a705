//! The typed span event every tracing ring carries.
//!
//! An [`Event`] is a fixed-size value — five `u64` words — so a ring
//! buffer can store it as plain atomic words with no allocation, no
//! `UnsafeCell`, and no per-event `Drop`.  The packing is lossless for
//! every field the pipeline stamps: event kind (8 bits), recording
//! thread (16 bits), shard (24 bits), job and round (32 bits each,
//! [`NONE`] when not applicable), plus three full words for start
//! timestamp, duration, and a kind-specific value (bytes, chunk count,
//! queue depth, …).

/// Sentinel for "this event has no job / shard / round".
pub const NONE: u32 = u32::MAX;

/// What a span event measured.  The discriminants are stable: they are
/// the on-ring byte and the JSONL `kind` field.  Bytes 0–2 belonged to
/// the retired I/O-thread kinds and stay unassigned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Main loop installed one fetched partition: ledger charges plus
    /// trigger-chunk handoff.
    Install = 3,
    /// A compute worker drained one trigger chunk.
    TriggerChunk = 4,
    /// End-of-round Push stage (batched sorted push, all finishing jobs).
    Push = 5,
    /// One snapshot-store `apply`: record append + current-index rebuild.
    ApplyRebuild = 6,
    /// Payload bytes appended to a WAL segment.
    WalAppend = 7,
    /// One WAL segment fsync.
    WalFsync = 8,
    /// Capacity enforcement dropped a resident payload to the WAL.
    Spill = 9,
    /// A spilled payload was faulted back in from the WAL.
    Rehydrate = 10,
    /// Admission controller held an arrival past its arrival instant.
    AdmitDefer = 11,
    /// Admission controller released a wave entry into the engine.
    AdmitRelease = 12,
    /// One serve-loop engine round (wavefront step while jobs are open).
    ServeRound = 13,
    /// Compaction checkpoint walk.
    Checkpoint = 14,
    /// Crash-recovery WAL replay.
    RecoveryReplay = 15,
    /// The fault plane retried an operation after a transient fault
    /// (value = retries burned by that operation).
    FaultRetry = 16,
    /// A slot fetch exhausted its retry budget (or drew a permanent
    /// fault) and its interested jobs were quarantined.
    FaultQuarantine = 17,
    /// A lane's fetch circuit breaker opened.
    BreakerTrip = 18,
    /// Serve-loop load shedding rejected an arrival at the admission
    /// door (value = backlog depth at rejection).
    AdmitShed = 19,
}

impl EventKind {
    /// Stable human-readable name (Chrome trace `name`, JSONL `kind`).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Install => "install",
            EventKind::TriggerChunk => "trigger_chunk",
            EventKind::Push => "push",
            EventKind::ApplyRebuild => "apply_rebuild",
            EventKind::WalAppend => "wal_append",
            EventKind::WalFsync => "wal_fsync",
            EventKind::Spill => "spill",
            EventKind::Rehydrate => "rehydrate",
            EventKind::AdmitDefer => "admit_defer",
            EventKind::AdmitRelease => "admit_release",
            EventKind::ServeRound => "serve_round",
            EventKind::Checkpoint => "checkpoint",
            EventKind::RecoveryReplay => "recovery_replay",
            EventKind::FaultRetry => "fault_retry",
            EventKind::FaultQuarantine => "fault_quarantine",
            EventKind::BreakerTrip => "breaker_trip",
            EventKind::AdmitShed => "admit_shed",
        }
    }

    /// Inverse of the `repr(u8)` discriminant; `None` for bytes no kind
    /// uses (a garbled ring slot decodes to `None`, never to UB).
    pub fn from_u8(b: u8) -> Option<EventKind> {
        Some(match b {
            3 => EventKind::Install,
            4 => EventKind::TriggerChunk,
            5 => EventKind::Push,
            6 => EventKind::ApplyRebuild,
            7 => EventKind::WalAppend,
            8 => EventKind::WalFsync,
            9 => EventKind::Spill,
            10 => EventKind::Rehydrate,
            11 => EventKind::AdmitDefer,
            12 => EventKind::AdmitRelease,
            13 => EventKind::ServeRound,
            14 => EventKind::Checkpoint,
            15 => EventKind::RecoveryReplay,
            16 => EventKind::FaultRetry,
            17 => EventKind::FaultQuarantine,
            18 => EventKind::BreakerTrip,
            19 => EventKind::AdmitShed,
            _ => return None,
        })
    }
}

/// One recorded span, fully decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    pub kind: EventKind,
    /// Index of the recording thread's ring (maps to a thread name in
    /// the drained [`TraceDump`](super::TraceDump)).
    pub thread: u16,
    /// Job id, or [`NONE`].
    pub job: u32,
    /// Shard / partition id, or [`NONE`].  Truncated to 24 bits on the
    /// ring (no store in this workspace exceeds 2^24 partitions).
    pub shard: u32,
    /// Engine round, or [`NONE`].
    pub round: u32,
    /// Nanoseconds since the observer's epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
    /// Kind-specific payload: bytes, chunk count, queue depth, seq, …
    pub value: u64,
}

/// Words of ring storage per event.
pub const EVENT_WORDS: usize = 5;

impl Event {
    /// Packs into the five-word ring representation.
    pub fn pack(&self) -> [u64; EVENT_WORDS] {
        let w0 = (self.kind as u64)
            | ((self.thread as u64) << 8)
            | (((self.shard as u64) & 0xFF_FFFF) << 24);
        let w1 = (self.job as u64) | ((self.round as u64) << 32);
        [w0, w1, self.start_ns, self.dur_ns, self.value]
    }

    /// Decodes a five-word slot; `None` if the kind byte is garbled.
    pub fn unpack(w: [u64; EVENT_WORDS]) -> Option<Event> {
        let kind = EventKind::from_u8((w[0] & 0xFF) as u8)?;
        let shard24 = ((w[0] >> 24) & 0xFF_FFFF) as u32;
        Some(Event {
            kind,
            thread: ((w[0] >> 8) & 0xFFFF) as u16,
            job: (w[1] & 0xFFFF_FFFF) as u32,
            shard: if shard24 == 0xFF_FFFF { NONE } else { shard24 },
            round: (w[1] >> 32) as u32,
            start_ns: w[2],
            dur_ns: w[3],
            value: w[4],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrips() {
        let ev = Event {
            kind: EventKind::Install,
            thread: 513,
            job: 7,
            shard: 1234,
            round: 42,
            start_ns: u64::MAX - 3,
            dur_ns: 17,
            value: 1 << 50,
        };
        assert_eq!(Event::unpack(ev.pack()), Some(ev));
    }

    #[test]
    fn none_shard_survives() {
        let ev = Event {
            kind: EventKind::Push,
            thread: 0,
            job: NONE,
            shard: NONE,
            round: 3,
            start_ns: 1,
            dur_ns: 2,
            value: 0,
        };
        let back = Event::unpack(ev.pack()).unwrap();
        assert_eq!(back.shard, NONE);
        assert_eq!(back.job, NONE);
    }

    #[test]
    fn every_kind_roundtrips_through_u8() {
        for b in 0u8..=255 {
            if let Some(k) = EventKind::from_u8(b) {
                assert_eq!(k as u8, b);
                assert!(!k.name().is_empty());
            }
        }
        assert!(EventKind::from_u8(200).is_none());
        for retired in 0u8..3 {
            assert!(EventKind::from_u8(retired).is_none());
        }
    }
}
