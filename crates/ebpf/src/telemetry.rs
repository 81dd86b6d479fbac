//! The typed telemetry record schema for kernel→user reporting.
//!
//! Telemetry programs emit fixed-size records over a ring buffer
//! (via [`crate::HelperId::RingbufOutput`]) and bump per-CPU
//! counters in a [`crate::MapKind::PerCpuArray`] stats map. This
//! module owns the wire format both sides agree on:
//!
//! * every record is exactly [`TELEMETRY_RECORD_BYTES`] bytes — five
//!   little-endian `u64` fields: kind tag, virtual timestamp, file
//!   id, start page, page count;
//! * the per-CPU stats map is indexed by the `STAT_SLOT_*`
//!   constants; userspace reads the lane-merged sums.
//!
//! The userspace decoder ([`TelemetryRecord::decode`]) is total: a
//! record of the wrong size or with an unknown kind tag is a
//! [`TelemetryDecodeError`], never a panic, because ring contents
//! are program-controlled data.

use std::fmt;

use crate::map::MapDef;

/// Size in bytes of every encoded [`TelemetryRecord`]: five
/// little-endian `u64` fields.
pub const TELEMETRY_RECORD_BYTES: usize = 40;

/// Default telemetry ring capacity in bytes. Sized so one restore's
/// worth of records (one per prefetch group plus the completion
/// marker, 48 bytes each with the ring header) fits with room to
/// spare at the largest shipped group count — `drops == 0` at
/// default sizing is a CI invariant.
pub const DEFAULT_TELEMETRY_RING_BYTES: u32 = 64 * 1024;

/// Map definition for a telemetry stats map: a per-CPU array of
/// [`STAT_SLOTS`] `u64` counters.
pub fn telemetry_stats_def() -> MapDef {
    MapDef::percpu_array(8, STAT_SLOTS)
}

/// Map definition for a telemetry ring buffer of the default
/// capacity ([`DEFAULT_TELEMETRY_RING_BYTES`]).
pub fn telemetry_ring_def() -> MapDef {
    MapDef::ringbuf(DEFAULT_TELEMETRY_RING_BYTES)
}

/// Per-CPU stats map slot: prefetches issued.
pub const STAT_SLOT_ISSUED: u32 = 0;
/// Per-CPU stats map slot: pages requested across all prefetches.
pub const STAT_SLOT_PAGES: u32 = 1;
/// Per-CPU stats map slot: ring-buffer reservations that failed
/// with `-ENOSPC` (the record was dropped).
pub const STAT_SLOT_ENOSPC: u32 = 2;
/// Number of slots a telemetry stats map carries.
pub const STAT_SLOTS: u32 = 3;

const KIND_PREFETCH_ISSUED: u64 = 1;
const KIND_PREFETCH_COMPLETED: u64 = 2;

/// One kernel→user telemetry record.
///
/// # Examples
///
/// ```
/// use snapbpf_ebpf::{TelemetryRecord, TELEMETRY_RECORD_BYTES};
///
/// let rec = TelemetryRecord::PrefetchIssued {
///     now_ns: 10,
///     file: 3,
///     start_page: 64,
///     pages: 16,
/// };
/// let bytes = rec.encode();
/// assert_eq!(bytes.len(), TELEMETRY_RECORD_BYTES);
/// assert_eq!(TelemetryRecord::decode(&bytes).unwrap(), rec);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryRecord {
    /// The prefetch program asked the kernel to read ahead one
    /// contiguous page group.
    PrefetchIssued {
        /// Virtual time the program observed (`bpf_ktime_get_ns`).
        now_ns: u64,
        /// Snapshot file id the group belongs to.
        file: u64,
        /// First page of the group.
        start_page: u64,
        /// Pages in the group.
        pages: u64,
    },
    /// The prefetch program finished walking its group list.
    PrefetchCompleted {
        /// Virtual time the program observed.
        now_ns: u64,
        /// Groups issued during this invocation.
        groups: u64,
        /// Total pages across those groups.
        pages: u64,
    },
}

/// Why a byte slice failed to decode as a [`TelemetryRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryDecodeError {
    /// The record was not exactly [`TELEMETRY_RECORD_BYTES`] long.
    WrongSize(usize),
    /// The kind tag is not one this schema defines.
    UnknownKind(u64),
}

impl fmt::Display for TelemetryDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryDecodeError::WrongSize(n) => write!(
                f,
                "telemetry record is {n} bytes, expected {TELEMETRY_RECORD_BYTES}"
            ),
            TelemetryDecodeError::UnknownKind(k) => {
                write!(f, "unknown telemetry record kind {k}")
            }
        }
    }
}

impl std::error::Error for TelemetryDecodeError {}

impl TelemetryRecord {
    /// The kind tag this record encodes with (word 0 of the wire
    /// format). Programs staging records on the stack store the same
    /// value.
    pub fn kind_tag(&self) -> u64 {
        match self {
            TelemetryRecord::PrefetchIssued { .. } => KIND_PREFETCH_ISSUED,
            TelemetryRecord::PrefetchCompleted { .. } => KIND_PREFETCH_COMPLETED,
        }
    }

    /// Encodes to the fixed [`TELEMETRY_RECORD_BYTES`] wire format.
    pub fn encode(&self) -> [u8; TELEMETRY_RECORD_BYTES] {
        let words: [u64; 5] = match *self {
            TelemetryRecord::PrefetchIssued {
                now_ns,
                file,
                start_page,
                pages,
            } => [KIND_PREFETCH_ISSUED, now_ns, file, start_page, pages],
            TelemetryRecord::PrefetchCompleted {
                now_ns,
                groups,
                pages,
            } => [KIND_PREFETCH_COMPLETED, now_ns, groups, pages, 0],
        };
        let mut out = [0u8; TELEMETRY_RECORD_BYTES];
        for (i, w) in words.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Decodes one ring record.
    ///
    /// # Errors
    ///
    /// [`TelemetryDecodeError`] for a wrong-sized slice or an
    /// unknown kind tag.
    pub fn decode(bytes: &[u8]) -> Result<TelemetryRecord, TelemetryDecodeError> {
        if bytes.len() != TELEMETRY_RECORD_BYTES {
            return Err(TelemetryDecodeError::WrongSize(bytes.len()));
        }
        let word =
            |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8-byte word"));
        match word(0) {
            KIND_PREFETCH_ISSUED => Ok(TelemetryRecord::PrefetchIssued {
                now_ns: word(1),
                file: word(2),
                start_page: word(3),
                pages: word(4),
            }),
            KIND_PREFETCH_COMPLETED => Ok(TelemetryRecord::PrefetchCompleted {
                now_ns: word(1),
                groups: word(2),
                pages: word(3),
            }),
            k => Err(TelemetryDecodeError::UnknownKind(k)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_round_trip() {
        let records = [
            TelemetryRecord::PrefetchIssued {
                now_ns: 1,
                file: 2,
                start_page: 3,
                pages: 4,
            },
            TelemetryRecord::PrefetchCompleted {
                now_ns: u64::MAX,
                groups: 7,
                pages: 1 << 40,
            },
        ];
        for rec in records {
            let bytes = rec.encode();
            assert_eq!(TelemetryRecord::decode(&bytes).unwrap(), rec);
        }
    }

    #[test]
    fn kind_tags_are_stable_wire_format() {
        let rec = TelemetryRecord::PrefetchIssued {
            now_ns: 0,
            file: 0,
            start_page: 0,
            pages: 0,
        };
        assert_eq!(rec.kind_tag(), 1);
        assert_eq!(rec.encode()[0], 1);
    }

    #[test]
    fn bad_inputs_decode_to_errors_not_panics() {
        assert_eq!(
            TelemetryRecord::decode(&[0u8; 39]),
            Err(TelemetryDecodeError::WrongSize(39))
        );
        let mut bytes = [0u8; TELEMETRY_RECORD_BYTES];
        bytes[0] = 99;
        assert_eq!(
            TelemetryRecord::decode(&bytes),
            Err(TelemetryDecodeError::UnknownKind(99))
        );
        let e = TelemetryRecord::decode(&bytes).unwrap_err();
        assert!(e.to_string().contains("99"));
        // Kind 3 was an in-band drop record that no program wrote.
        bytes[0] = 3;
        assert_eq!(
            TelemetryRecord::decode(&bytes),
            Err(TelemetryDecodeError::UnknownKind(3))
        );
    }
}
