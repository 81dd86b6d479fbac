//! eBPF maps: the shared state between programs and userspace.
//!
//! SnapBPF stores the captured working-set offsets in a map during
//! the record phase and loads the grouped offsets back in through a
//! map before triggering the prefetch program (paper §3.1, steps ①
//! and ③ of Figure 1). Three map types are provided:
//!
//! * **array** — fixed number of fixed-size values, like
//!   `BPF_MAP_TYPE_ARRAY`; keys are `u32` indices,
//! * **hash** — like `BPF_MAP_TYPE_HASH`, bounded capacity,
//! * **ring buffer** — like `BPF_MAP_TYPE_RINGBUF`, a byte FIFO the
//!   program appends records to and userspace drains,
//! * **per-CPU array** — like `BPF_MAP_TYPE_PERCPU_ARRAY`: every
//!   entry has one private slot per CPU. A program only ever touches
//!   its own CPU's slot (no cross-CPU contention); a userspace read
//!   merges the slots by summing each 8-byte lane, the standard
//!   stats-aggregation idiom.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;

use snapbpf_sim::Tracer;

/// Number of simulated CPUs a [`MapKind::PerCpuArray`] map carries
/// slots for. Fixed (and small) so per-CPU storage stays cheap; the
/// interpreter clamps its current-CPU id into `0..NCPUS`.
pub const NCPUS: u32 = 4;

/// Identifier of a map within a [`MapSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MapId(u32);

impl MapId {
    /// The raw index.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Reconstructs a map id from its raw index (e.g. when decoding
    /// bytecode). The id is *not* validated here; a program
    /// referencing a map that does not exist in the target
    /// [`MapSet`] is rejected by the verifier at load time.
    pub const fn from_raw(index: u32) -> MapId {
        MapId(index)
    }
}

impl fmt::Display for MapId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "map#{}", self.0)
    }
}

/// Map type and shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapKind {
    /// Array map: `max_entries` values of `value_size` bytes, keyed
    /// by `u32` index; entries are zero-initialized and always
    /// present.
    Array,
    /// Hash map: up to `max_entries` entries with `key_size`-byte
    /// keys.
    Hash,
    /// Ring buffer: `max_entries` is the buffer capacity in bytes;
    /// `key_size` and `value_size` are ignored.
    RingBuf,
    /// Per-CPU array: `max_entries` entries of `value_size` bytes
    /// *per CPU* ([`NCPUS`] slots each). Programs address their
    /// current CPU's slot; userspace lookups merge slots by summing
    /// each 8-byte little-endian lane (so `value_size` must be a
    /// multiple of 8).
    PerCpuArray,
}

/// Definition of a map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MapDef {
    /// The map type.
    pub kind: MapKind,
    /// Key size in bytes (4 for arrays).
    pub key_size: u32,
    /// Value size in bytes.
    pub value_size: u32,
    /// Capacity: entries for array/hash, bytes for ring buffers.
    pub max_entries: u32,
}

impl MapDef {
    /// An array map of `max_entries` × `value_size`-byte values.
    pub const fn array(value_size: u32, max_entries: u32) -> Self {
        MapDef {
            kind: MapKind::Array,
            key_size: 4,
            value_size,
            max_entries,
        }
    }

    /// A hash map.
    pub const fn hash(key_size: u32, value_size: u32, max_entries: u32) -> Self {
        MapDef {
            kind: MapKind::Hash,
            key_size,
            value_size,
            max_entries,
        }
    }

    /// A ring buffer of `capacity_bytes` bytes.
    pub const fn ringbuf(capacity_bytes: u32) -> Self {
        MapDef {
            kind: MapKind::RingBuf,
            key_size: 0,
            value_size: 0,
            max_entries: capacity_bytes,
        }
    }

    /// A per-CPU array map of `max_entries` × `value_size`-byte
    /// values per CPU (`value_size` must be a multiple of 8 so
    /// userspace reads can lane-sum the CPU slots).
    pub const fn percpu_array(value_size: u32, max_entries: u32) -> Self {
        MapDef {
            kind: MapKind::PerCpuArray,
            key_size: 4,
            value_size,
            max_entries,
        }
    }
}

/// Errors from map operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// Unknown map id.
    NoSuchMap(MapId),
    /// Key size did not match the definition.
    BadKeySize {
        /// The map.
        map: MapId,
        /// Expected key size.
        expected: u32,
        /// Provided key size.
        got: usize,
    },
    /// Value size did not match the definition.
    BadValueSize {
        /// The map.
        map: MapId,
        /// Expected value size.
        expected: u32,
        /// Provided value size.
        got: usize,
    },
    /// Array index out of bounds.
    IndexOutOfBounds {
        /// The map.
        map: MapId,
        /// The index.
        index: u32,
        /// Number of entries.
        max_entries: u32,
    },
    /// Hash map is full.
    Full(MapId),
    /// Ring buffer has insufficient free space for this record right
    /// now (it would fit an empty ring — the drop is transient and
    /// counted).
    RingFull {
        /// The map.
        map: MapId,
        /// Ring capacity in bytes.
        capacity: u32,
        /// Size of the rejected record's payload in bytes (an 8-byte
        /// header is charged on top).
        record_len: usize,
    },
    /// The record can never fit: even an empty ring of this capacity
    /// could not hold it. Rejected up front, *not* counted as a drop
    /// (it is a caller bug, not backpressure).
    RingRecordTooLarge {
        /// The map.
        map: MapId,
        /// Ring capacity in bytes.
        capacity: u32,
        /// Size of the rejected record's payload in bytes (an 8-byte
        /// header is charged on top).
        record_len: usize,
    },
    /// Operation not supported by this map kind.
    WrongKind(MapId),
    /// Definition is invalid (zero sizes or entries).
    BadDefinition(&'static str),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::NoSuchMap(id) => write!(f, "no such map: {id}"),
            MapError::BadKeySize { map, expected, got } => {
                write!(f, "{map}: key size {got}, expected {expected}")
            }
            MapError::BadValueSize { map, expected, got } => {
                write!(f, "{map}: value size {got}, expected {expected}")
            }
            MapError::IndexOutOfBounds {
                map,
                index,
                max_entries,
            } => {
                write!(
                    f,
                    "{map}: index {index} out of bounds ({max_entries} entries)"
                )
            }
            MapError::Full(id) => write!(f, "{id}: map full"),
            MapError::RingFull {
                map,
                capacity,
                record_len,
            } => write!(
                f,
                "{map}: ring buffer full ({record_len}-byte record + 8-byte header \
                 does not fit, capacity {capacity} bytes)"
            ),
            MapError::RingRecordTooLarge {
                map,
                capacity,
                record_len,
            } => write!(
                f,
                "{map}: {record_len}-byte record + 8-byte header exceeds the whole \
                 ring (capacity {capacity} bytes)"
            ),
            MapError::WrongKind(id) => write!(f, "{id}: operation unsupported for map kind"),
            MapError::BadDefinition(why) => write!(f, "bad map definition: {why}"),
        }
    }
}

impl std::error::Error for MapError {}

#[derive(Debug, Clone)]
enum MapStorage {
    Array {
        values: Vec<u8>, // max_entries * value_size, zero-initialized
    },
    Hash {
        entries: HashMap<Vec<u8>, Vec<u8>>,
    },
    Ring {
        records: VecDeque<Vec<u8>>,
        used_bytes: u32,
        dropped: u64,
    },
    PerCpuArray {
        // NCPUS consecutive per-CPU blocks of max_entries *
        // value_size bytes each, zero-initialized.
        values: Vec<u8>,
    },
}

#[derive(Debug, Clone)]
struct MapInstance {
    def: MapDef,
    storage: MapStorage,
}

/// The set of maps visible to a program and its userspace loader.
///
/// # Examples
///
/// ```
/// use snapbpf_ebpf::{MapDef, MapSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut maps = MapSet::new();
/// let offsets = maps.create(MapDef::array(8, 1024))?;
///
/// maps.array_store_u64(offsets, 0, 42)?;
/// assert_eq!(maps.array_load_u64(offsets, 0)?, 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct MapSet {
    maps: Vec<MapInstance>,
    trace: Tracer,
}

impl MapSet {
    /// Creates an empty map set.
    pub fn new() -> Self {
        MapSet::default()
    }

    /// Attaches the structured trace handle map-operation counters
    /// report through.
    pub fn set_tracer(&mut self, trace: Tracer) {
        self.trace = trace;
    }

    /// Creates a map from a definition and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::BadDefinition`] for zero-size values,
    /// zero-capacity maps, or array keys that are not 4 bytes.
    pub fn create(&mut self, def: MapDef) -> Result<MapId, MapError> {
        self.trace.incr("ebpf.map.creates");
        if def.max_entries == 0 {
            return Err(MapError::BadDefinition("max_entries must be positive"));
        }
        let storage = match def.kind {
            MapKind::Array => {
                if def.key_size != 4 {
                    return Err(MapError::BadDefinition("array maps use 4-byte keys"));
                }
                if def.value_size == 0 {
                    return Err(MapError::BadDefinition("value_size must be positive"));
                }
                MapStorage::Array {
                    values: vec![0; def.max_entries as usize * def.value_size as usize],
                }
            }
            MapKind::Hash => {
                if def.key_size == 0 || def.value_size == 0 {
                    return Err(MapError::BadDefinition(
                        "hash maps need key and value sizes",
                    ));
                }
                MapStorage::Hash {
                    entries: HashMap::new(),
                }
            }
            MapKind::RingBuf => MapStorage::Ring {
                records: VecDeque::new(),
                used_bytes: 0,
                dropped: 0,
            },
            MapKind::PerCpuArray => {
                if def.key_size != 4 {
                    return Err(MapError::BadDefinition("per-cpu arrays use 4-byte keys"));
                }
                if def.value_size == 0 || !def.value_size.is_multiple_of(8) {
                    return Err(MapError::BadDefinition(
                        "per-cpu array value_size must be a positive multiple of 8",
                    ));
                }
                MapStorage::PerCpuArray {
                    values: vec![
                        0;
                        NCPUS as usize * def.max_entries as usize * def.value_size as usize
                    ],
                }
            }
        };
        let id = MapId(self.maps.len() as u32);
        self.maps.push(MapInstance { def, storage });
        Ok(id)
    }

    /// The definition of a map.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::NoSuchMap`] for an unknown id.
    pub fn def(&self, id: MapId) -> Result<MapDef, MapError> {
        self.instance(id).map(|m| m.def)
    }

    /// Number of maps created.
    pub fn len(&self) -> usize {
        self.maps.len()
    }

    /// `true` when no maps exist.
    pub fn is_empty(&self) -> bool {
        self.maps.is_empty()
    }

    fn instance(&self, id: MapId) -> Result<&MapInstance, MapError> {
        self.maps.get(id.0 as usize).ok_or(MapError::NoSuchMap(id))
    }

    fn instance_mut(&mut self, id: MapId) -> Result<&mut MapInstance, MapError> {
        self.maps
            .get_mut(id.0 as usize)
            .ok_or(MapError::NoSuchMap(id))
    }

    /// Looks up a value by key bytes, returning a copy.
    ///
    /// Array maps treat the key as a little-endian `u32` index and
    /// always find in-bounds entries (they are pre-initialized to
    /// zero), exactly like the kernel's array maps. A per-CPU array
    /// lookup is the *userspace merge view*: the returned
    /// `value_size` bytes are the wrapping sum of each 8-byte
    /// little-endian lane across all [`NCPUS`] CPU slots.
    ///
    /// # Errors
    ///
    /// Key-size mismatches and unknown maps are errors; a missing
    /// hash key or out-of-bounds array index is `Ok(None)`.
    pub fn lookup(&self, id: MapId, key: &[u8]) -> Result<Option<Vec<u8>>, MapError> {
        self.trace.incr("ebpf.map.lookups");
        let inst = self.instance(id)?;
        match &inst.storage {
            MapStorage::Array { values } => {
                let idx = array_index(id, &inst.def, key)?;
                match idx {
                    Some(i) => {
                        let vs = inst.def.value_size as usize;
                        Ok(Some(values[i * vs..(i + 1) * vs].to_vec()))
                    }
                    None => Ok(None),
                }
            }
            MapStorage::Hash { entries } => {
                check_key(id, &inst.def, key)?;
                Ok(entries.get(key).cloned())
            }
            MapStorage::Ring { .. } => Err(MapError::WrongKind(id)),
            MapStorage::PerCpuArray { values } => {
                let idx = array_index(id, &inst.def, key)?;
                match idx {
                    Some(i) => {
                        let vs = inst.def.value_size as usize;
                        let stride = inst.def.max_entries as usize * vs;
                        let mut merged = vec![0u8; vs];
                        for cpu in 0..NCPUS as usize {
                            let slot = &values[cpu * stride + i * vs..cpu * stride + (i + 1) * vs];
                            for lane in 0..vs / 8 {
                                let a = u64::from_le_bytes(
                                    merged[lane * 8..lane * 8 + 8].try_into().expect("8 bytes"),
                                );
                                let b = u64::from_le_bytes(
                                    slot[lane * 8..lane * 8 + 8].try_into().expect("8 bytes"),
                                );
                                merged[lane * 8..lane * 8 + 8]
                                    .copy_from_slice(&a.wrapping_add(b).to_le_bytes());
                            }
                        }
                        Ok(Some(merged))
                    }
                    None => Ok(None),
                }
            }
        }
    }

    /// Inserts or updates a value.
    ///
    /// # Errors
    ///
    /// Size mismatches, unknown maps, out-of-bounds array indices,
    /// and full hash maps are errors.
    pub fn update(&mut self, id: MapId, key: &[u8], value: &[u8]) -> Result<(), MapError> {
        self.trace.incr("ebpf.map.updates");
        let inst = self.instance_mut(id)?;
        if value.len() != inst.def.value_size as usize {
            return Err(MapError::BadValueSize {
                map: id,
                expected: inst.def.value_size,
                got: value.len(),
            });
        }
        match &mut inst.storage {
            MapStorage::Array { values } => {
                let idx = array_index(id, &inst.def, key)?.ok_or(MapError::IndexOutOfBounds {
                    map: id,
                    index: u32::from_le_bytes(key.try_into().expect("checked")),
                    max_entries: inst.def.max_entries,
                })?;
                let vs = inst.def.value_size as usize;
                values[idx * vs..(idx + 1) * vs].copy_from_slice(value);
                Ok(())
            }
            MapStorage::Hash { entries } => {
                check_key(id, &inst.def, key)?;
                if !entries.contains_key(key) && entries.len() >= inst.def.max_entries as usize {
                    return Err(MapError::Full(id));
                }
                entries.insert(key.to_vec(), value.to_vec());
                Ok(())
            }
            MapStorage::Ring { .. } => Err(MapError::WrongKind(id)),
            // A userspace update seeds CPU 0's slot and zeroes the
            // rest, so the merged (lane-summed) read-back equals the
            // written value — and writing zeros resets every slot.
            MapStorage::PerCpuArray { values } => {
                let idx = array_index(id, &inst.def, key)?.ok_or(MapError::IndexOutOfBounds {
                    map: id,
                    index: u32::from_le_bytes(key.try_into().expect("checked")),
                    max_entries: inst.def.max_entries,
                })?;
                let vs = inst.def.value_size as usize;
                let stride = inst.def.max_entries as usize * vs;
                for cpu in 0..NCPUS as usize {
                    let slot = &mut values[cpu * stride + idx * vs..cpu * stride + (idx + 1) * vs];
                    if cpu == 0 {
                        slot.copy_from_slice(value);
                    } else {
                        slot.fill(0);
                    }
                }
                Ok(())
            }
        }
    }

    /// Deletes a hash-map entry. Deleting array entries is not
    /// supported (as in the kernel).
    ///
    /// # Errors
    ///
    /// Unknown maps, wrong kinds, and key-size mismatches are
    /// errors; deleting a missing key returns `Ok(false)`.
    pub fn delete(&mut self, id: MapId, key: &[u8]) -> Result<bool, MapError> {
        self.trace.incr("ebpf.map.deletes");
        let inst = self.instance_mut(id)?;
        match &mut inst.storage {
            MapStorage::Hash { entries } => {
                check_key(id, &inst.def, key)?;
                Ok(entries.remove(key).is_some())
            }
            MapStorage::Array { .. } | MapStorage::Ring { .. } | MapStorage::PerCpuArray { .. } => {
                Err(MapError::WrongKind(id))
            }
        }
    }

    /// Number of live entries (hash) or total entries (array).
    ///
    /// # Errors
    ///
    /// Unknown maps and ring buffers are errors.
    pub fn entry_count(&self, id: MapId) -> Result<u32, MapError> {
        let inst = self.instance(id)?;
        match &inst.storage {
            MapStorage::Array { .. } | MapStorage::PerCpuArray { .. } => Ok(inst.def.max_entries),
            MapStorage::Hash { entries } => Ok(entries.len() as u32),
            MapStorage::Ring { .. } => Err(MapError::WrongKind(id)),
        }
    }

    /// Appends a record to a ring buffer.
    ///
    /// # Errors
    ///
    /// [`MapError::RingRecordTooLarge`] when the record (plus its
    /// 8-byte header) exceeds the whole ring — rejected up front and
    /// *not* counted as a drop; [`MapError::RingFull`] when it would
    /// fit an empty ring but not the current free space (this one
    /// increments the drop counter, as the kernel does);
    /// [`MapError::WrongKind`] for non-ring maps.
    pub fn ring_push(&mut self, id: MapId, record: &[u8]) -> Result<(), MapError> {
        self.trace.incr("ebpf.map.ring_pushes");
        let inst = self.instance_mut(id)?;
        match &mut inst.storage {
            MapStorage::Ring {
                records,
                used_bytes,
                dropped,
            } => {
                let capacity = inst.def.max_entries;
                let needed = record.len() as u32 + 8; // 8-byte record header
                if needed > capacity {
                    return Err(MapError::RingRecordTooLarge {
                        map: id,
                        capacity,
                        record_len: record.len(),
                    });
                }
                if *used_bytes + needed > capacity {
                    *dropped += 1;
                    return Err(MapError::RingFull {
                        map: id,
                        capacity,
                        record_len: record.len(),
                    });
                }
                *used_bytes += needed;
                records.push_back(record.to_vec());
                Ok(())
            }
            _ => Err(MapError::WrongKind(id)),
        }
    }

    /// Pops the oldest ring-buffer record (userspace consumption).
    ///
    /// # Errors
    ///
    /// [`MapError::WrongKind`] for non-ring maps.
    pub fn ring_pop(&mut self, id: MapId) -> Result<Option<Vec<u8>>, MapError> {
        self.trace.incr("ebpf.map.ring_pops");
        let inst = self.instance_mut(id)?;
        match &mut inst.storage {
            MapStorage::Ring {
                records,
                used_bytes,
                ..
            } => Ok(records.pop_front().inspect(|r| {
                *used_bytes -= r.len() as u32 + 8;
            })),
            _ => Err(MapError::WrongKind(id)),
        }
    }

    /// Number of records dropped because the ring was full.
    ///
    /// # Errors
    ///
    /// [`MapError::WrongKind`] for non-ring maps.
    pub fn ring_dropped(&self, id: MapId) -> Result<u64, MapError> {
        let inst = self.instance(id)?;
        match &inst.storage {
            MapStorage::Ring { dropped, .. } => Ok(*dropped),
            _ => Err(MapError::WrongKind(id)),
        }
    }

    // ---- Convenience accessors used heavily by loaders and tests ----

    /// Reads a `u64` from an array map of 8-byte values.
    ///
    /// # Errors
    ///
    /// Out-of-bounds indices and non-8-byte values are errors.
    pub fn array_load_u64(&self, id: MapId, index: u32) -> Result<u64, MapError> {
        let v =
            self.lookup(id, &index.to_le_bytes())?
                .ok_or_else(|| MapError::IndexOutOfBounds {
                    map: id,
                    index,
                    max_entries: self.def(id).map(|d| d.max_entries).unwrap_or(0),
                })?;
        let bytes: [u8; 8] = v
            .as_slice()
            .try_into()
            .map_err(|_| MapError::BadValueSize {
                map: id,
                expected: 8,
                got: v.len(),
            })?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Writes a `u64` into an array map of 8-byte values.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MapSet::array_load_u64`].
    pub fn array_store_u64(&mut self, id: MapId, index: u32, value: u64) -> Result<(), MapError> {
        self.update(id, &index.to_le_bytes(), &value.to_le_bytes())
    }

    /// Direct read of a byte range of an array map's backing store —
    /// the interpreter's map-value pointers resolve through this.
    pub(crate) fn array_raw(&self, id: MapId) -> Result<(&[u8], MapDef), MapError> {
        let inst = self.instance(id)?;
        match &inst.storage {
            MapStorage::Array { values } => Ok((values, inst.def)),
            _ => Err(MapError::WrongKind(id)),
        }
    }

    /// Direct mutable access to an array map's backing store.
    pub(crate) fn array_raw_mut(&mut self, id: MapId) -> Result<(&mut Vec<u8>, MapDef), MapError> {
        let inst = self.instance_mut(id)?;
        let def = inst.def;
        match &mut inst.storage {
            MapStorage::Array { values } => Ok((values, def)),
            _ => Err(MapError::WrongKind(id)),
        }
    }

    /// Reads the merged (lane-summed across CPUs) `u64` at `index`
    /// of a per-CPU array map of 8-byte values — the userspace view
    /// telemetry drains consume.
    ///
    /// # Errors
    ///
    /// Out-of-bounds indices, non-8-byte values, and non-per-CPU
    /// maps are errors.
    pub fn percpu_load_merged_u64(&self, id: MapId, index: u32) -> Result<u64, MapError> {
        let def = self.def(id)?;
        if def.kind != MapKind::PerCpuArray {
            return Err(MapError::WrongKind(id));
        }
        if def.value_size != 8 {
            return Err(MapError::BadValueSize {
                map: id,
                expected: 8,
                got: def.value_size as usize,
            });
        }
        let v = self
            .lookup(id, &index.to_le_bytes())?
            .ok_or(MapError::IndexOutOfBounds {
                map: id,
                index,
                max_entries: def.max_entries,
            })?;
        Ok(u64::from_le_bytes(
            v.as_slice().try_into().expect("8 bytes"),
        ))
    }

    /// Direct read of one CPU's block of a per-CPU array map — the
    /// interpreter's map-value pointers resolve through this.
    pub(crate) fn percpu_raw(&self, id: MapId, cpu: u32) -> Result<(&[u8], MapDef), MapError> {
        let inst = self.instance(id)?;
        match &inst.storage {
            MapStorage::PerCpuArray { values } => {
                let stride = inst.def.max_entries as usize * inst.def.value_size as usize;
                let cpu = (cpu % NCPUS) as usize;
                Ok((&values[cpu * stride..(cpu + 1) * stride], inst.def))
            }
            _ => Err(MapError::WrongKind(id)),
        }
    }

    /// Direct mutable access to one CPU's block of a per-CPU array
    /// map.
    pub(crate) fn percpu_raw_mut(
        &mut self,
        id: MapId,
        cpu: u32,
    ) -> Result<(&mut [u8], MapDef), MapError> {
        let inst = self.instance_mut(id)?;
        let def = inst.def;
        match &mut inst.storage {
            MapStorage::PerCpuArray { values } => {
                let stride = def.max_entries as usize * def.value_size as usize;
                let cpu = (cpu % NCPUS) as usize;
                Ok((&mut values[cpu * stride..(cpu + 1) * stride], def))
            }
            _ => Err(MapError::WrongKind(id)),
        }
    }

    /// Direct access to a hash-map value's bytes.
    pub(crate) fn hash_raw(&self, id: MapId, key: &[u8]) -> Result<Option<&[u8]>, MapError> {
        let inst = self.instance(id)?;
        match &inst.storage {
            MapStorage::Hash { entries } => Ok(entries.get(key).map(|v| v.as_slice())),
            _ => Err(MapError::WrongKind(id)),
        }
    }

    /// Direct mutable access to a hash-map value's bytes.
    pub(crate) fn hash_raw_mut(
        &mut self,
        id: MapId,
        key: &[u8],
    ) -> Result<Option<&mut [u8]>, MapError> {
        let inst = self.instance_mut(id)?;
        match &mut inst.storage {
            MapStorage::Hash { entries } => Ok(entries.get_mut(key).map(|v| v.as_mut_slice())),
            _ => Err(MapError::WrongKind(id)),
        }
    }
}

fn check_key(id: MapId, def: &MapDef, key: &[u8]) -> Result<(), MapError> {
    if key.len() != def.key_size as usize {
        return Err(MapError::BadKeySize {
            map: id,
            expected: def.key_size,
            got: key.len(),
        });
    }
    Ok(())
}

/// Decodes an array key; `Ok(None)` for out-of-bounds.
fn array_index(id: MapId, def: &MapDef, key: &[u8]) -> Result<Option<usize>, MapError> {
    check_key(id, def, key)?;
    let idx = u32::from_le_bytes(key.try_into().expect("checked size"));
    if idx >= def.max_entries {
        Ok(None)
    } else {
        Ok(Some(idx as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_map_lifecycle() {
        let mut maps = MapSet::new();
        let m = maps.create(MapDef::array(8, 4)).unwrap();
        // Pre-initialized to zero.
        assert_eq!(maps.array_load_u64(m, 0).unwrap(), 0);
        maps.array_store_u64(m, 3, 99).unwrap();
        assert_eq!(maps.array_load_u64(m, 3).unwrap(), 99);
        // Out of bounds.
        assert!(maps.array_load_u64(m, 4).is_err());
        assert!(maps.array_store_u64(m, 4, 1).is_err());
        assert_eq!(maps.entry_count(m).unwrap(), 4);
    }

    #[test]
    fn hash_map_lifecycle() {
        let mut maps = MapSet::new();
        let m = maps.create(MapDef::hash(8, 8, 2)).unwrap();
        let k1 = 1u64.to_le_bytes();
        let k2 = 2u64.to_le_bytes();
        let k3 = 3u64.to_le_bytes();
        assert_eq!(maps.lookup(m, &k1).unwrap(), None);
        maps.update(m, &k1, &10u64.to_le_bytes()).unwrap();
        maps.update(m, &k2, &20u64.to_le_bytes()).unwrap();
        assert_eq!(maps.entry_count(m).unwrap(), 2);
        // Capacity enforced for new keys, updates still allowed.
        assert_eq!(
            maps.update(m, &k3, &30u64.to_le_bytes()),
            Err(MapError::Full(m))
        );
        maps.update(m, &k1, &11u64.to_le_bytes()).unwrap();
        assert_eq!(
            maps.lookup(m, &k1).unwrap().unwrap(),
            11u64.to_le_bytes().to_vec()
        );
        assert!(maps.delete(m, &k1).unwrap());
        assert!(!maps.delete(m, &k1).unwrap());
    }

    #[test]
    fn key_and_value_sizes_enforced() {
        let mut maps = MapSet::new();
        let m = maps.create(MapDef::hash(4, 8, 8)).unwrap();
        assert!(matches!(
            maps.lookup(m, &[0u8; 8]),
            Err(MapError::BadKeySize { .. })
        ));
        assert!(matches!(
            maps.update(m, &[0u8; 4], &[0u8; 4]),
            Err(MapError::BadValueSize { .. })
        ));
    }

    #[test]
    fn ring_buffer_fifo_and_capacity() {
        let mut maps = MapSet::new();
        let r = maps.create(MapDef::ringbuf(64)).unwrap();
        maps.ring_push(r, &[1, 2, 3]).unwrap(); // 11 bytes with header
        maps.ring_push(r, &[4, 5]).unwrap(); // 10 bytes
                                             // 64 - 21 = 43 left; a 40-byte record (48 with header) fails.
        assert_eq!(
            maps.ring_push(r, &[0u8; 40]),
            Err(MapError::RingFull {
                map: r,
                capacity: 64,
                record_len: 40
            })
        );
        assert_eq!(maps.ring_dropped(r).unwrap(), 1);
        assert_eq!(maps.ring_pop(r).unwrap().unwrap(), vec![1, 2, 3]);
        assert_eq!(maps.ring_pop(r).unwrap().unwrap(), vec![4, 5]);
        assert_eq!(maps.ring_pop(r).unwrap(), None);
        // Space reclaimed after popping.
        maps.ring_push(r, &[0u8; 40]).unwrap();
    }

    #[test]
    fn ring_record_larger_than_the_ring_is_rejected_up_front() {
        let mut maps = MapSet::new();
        let r = maps.create(MapDef::ringbuf(32)).unwrap();
        // 32 bytes of payload + 8-byte header > 32-byte ring: can
        // never fit, distinct error, no drop counted.
        let err = maps.ring_push(r, &[0u8; 32]).unwrap_err();
        assert_eq!(
            err,
            MapError::RingRecordTooLarge {
                map: r,
                capacity: 32,
                record_len: 32
            }
        );
        assert_eq!(maps.ring_dropped(r).unwrap(), 0, "not backpressure");
        let msg = err.to_string();
        assert!(msg.contains("32-byte record"), "{msg}");
        assert!(msg.contains("capacity 32"), "{msg}");
        // The boundary case (exactly capacity with header) fits.
        maps.ring_push(r, &[0u8; 24]).unwrap();
    }

    #[test]
    fn ring_full_message_names_capacity_and_record_size() {
        let mut maps = MapSet::new();
        let r = maps.create(MapDef::ringbuf(40)).unwrap();
        maps.ring_push(r, &[0u8; 16]).unwrap();
        let msg = maps.ring_push(r, &[0u8; 16]).unwrap_err().to_string();
        assert!(msg.contains("16-byte record"), "{msg}");
        assert!(msg.contains("capacity 40"), "{msg}");
    }

    #[test]
    fn ring_drain_under_pressure_keeps_order_and_exact_drop_accounting() {
        // fill → drop-counted → drain → refill: surviving records
        // come out in push order and every rejected push is counted
        // exactly once.
        let mut maps = MapSet::new();
        let r = maps.create(MapDef::ringbuf(64)).unwrap();
        let mut pushed = Vec::new();
        let mut dropped = 0u64;
        for i in 0u8..12 {
            // 8-byte payload + 8-byte header = 16 bytes; 4 fit in 64.
            match maps.ring_push(r, &[i; 8]) {
                Ok(()) => pushed.push(i),
                Err(MapError::RingFull { .. }) => dropped += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!(pushed, vec![0, 1, 2, 3]);
        assert_eq!(dropped, 8);
        assert_eq!(maps.ring_dropped(r).unwrap(), dropped);
        // Drain in FIFO order.
        for &i in &pushed {
            assert_eq!(maps.ring_pop(r).unwrap().unwrap(), vec![i; 8]);
        }
        assert_eq!(maps.ring_pop(r).unwrap(), None);
        // Refill works and the drop counter keeps accumulating from
        // where it was, never resetting on drain.
        for i in 100u8..104 {
            maps.ring_push(r, &[i; 8]).unwrap();
        }
        assert_eq!(maps.ring_push(r, &[9; 8]), {
            Err(MapError::RingFull {
                map: r,
                capacity: 64,
                record_len: 8,
            })
        });
        assert_eq!(maps.ring_dropped(r).unwrap(), dropped + 1);
        assert_eq!(maps.ring_pop(r).unwrap().unwrap(), vec![100; 8]);
    }

    #[test]
    fn percpu_array_merges_lanes_across_cpus() {
        let mut maps = MapSet::new();
        let m = maps.create(MapDef::percpu_array(16, 4)).unwrap();
        // Zero-initialized merge view.
        assert_eq!(
            maps.lookup(m, &0u32.to_le_bytes()).unwrap().unwrap(),
            vec![0u8; 16]
        );
        // Write distinct values into each CPU's slot of entry 2.
        for cpu in 0..NCPUS {
            let (block, def) = maps.percpu_raw_mut(m, cpu).unwrap();
            let vs = def.value_size as usize;
            block[2 * vs..2 * vs + 8].copy_from_slice(&(10 + cpu as u64).to_le_bytes());
            block[2 * vs + 8..2 * vs + 16].copy_from_slice(&(cpu as u64).to_le_bytes());
        }
        let merged = maps.lookup(m, &2u32.to_le_bytes()).unwrap().unwrap();
        // Lane 0: (10+0)+(10+1)+(10+2)+(10+3) = 46; lane 1: 0+1+2+3 = 6.
        assert_eq!(u64::from_le_bytes(merged[0..8].try_into().unwrap()), 46);
        assert_eq!(u64::from_le_bytes(merged[8..16].try_into().unwrap()), 6);
        // Out of bounds reads as None, like plain arrays.
        assert_eq!(maps.lookup(m, &4u32.to_le_bytes()).unwrap(), None);
        assert_eq!(maps.entry_count(m).unwrap(), 4);
    }

    #[test]
    fn percpu_array_update_resets_every_slot() {
        let mut maps = MapSet::new();
        let m = maps.create(MapDef::percpu_array(8, 2)).unwrap();
        for cpu in 0..NCPUS {
            let (block, _) = maps.percpu_raw_mut(m, cpu).unwrap();
            block[0..8].copy_from_slice(&7u64.to_le_bytes());
        }
        assert_eq!(maps.percpu_load_merged_u64(m, 0).unwrap(), 7 * NCPUS as u64);
        // A userspace write seeds CPU 0 and zeroes the rest: merged
        // read-back equals the written value.
        maps.update(m, &0u32.to_le_bytes(), &5u64.to_le_bytes())
            .unwrap();
        assert_eq!(maps.percpu_load_merged_u64(m, 0).unwrap(), 5);
        maps.update(m, &0u32.to_le_bytes(), &0u64.to_le_bytes())
            .unwrap();
        assert_eq!(maps.percpu_load_merged_u64(m, 0).unwrap(), 0);
        // Out-of-bounds writes error like plain arrays; deletes are
        // unsupported.
        assert!(maps
            .update(m, &2u32.to_le_bytes(), &1u64.to_le_bytes())
            .is_err());
        assert_eq!(
            maps.delete(m, &0u32.to_le_bytes()),
            Err(MapError::WrongKind(m))
        );
    }

    #[test]
    fn percpu_array_definitions_validated() {
        let mut maps = MapSet::new();
        // Lane merge needs 8-byte-multiple values.
        assert!(maps.create(MapDef::percpu_array(4, 2)).is_err());
        assert!(maps.create(MapDef::percpu_array(0, 2)).is_err());
        assert!(maps.create(MapDef::percpu_array(8, 0)).is_err());
        assert!(maps
            .create(MapDef {
                kind: MapKind::PerCpuArray,
                key_size: 8,
                value_size: 8,
                max_entries: 1
            })
            .is_err());
        // percpu_load_merged_u64 guards kind and value size.
        let a = maps.create(MapDef::array(8, 1)).unwrap();
        assert_eq!(
            maps.percpu_load_merged_u64(a, 0),
            Err(MapError::WrongKind(a))
        );
        let wide = maps.create(MapDef::percpu_array(16, 1)).unwrap();
        assert!(matches!(
            maps.percpu_load_merged_u64(wide, 0),
            Err(MapError::BadValueSize { .. })
        ));
        let m = maps.create(MapDef::percpu_array(8, 1)).unwrap();
        assert!(matches!(
            maps.percpu_load_merged_u64(m, 9),
            Err(MapError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn wrong_kind_operations_rejected() {
        let mut maps = MapSet::new();
        let a = maps.create(MapDef::array(8, 1)).unwrap();
        let r = maps.create(MapDef::ringbuf(32)).unwrap();
        assert_eq!(maps.ring_push(a, &[1]), Err(MapError::WrongKind(a)));
        assert_eq!(maps.lookup(r, &[]), Err(MapError::WrongKind(r)));
        assert_eq!(
            maps.delete(a, &0u32.to_le_bytes()),
            Err(MapError::WrongKind(a))
        );
    }

    #[test]
    fn bad_definitions_rejected() {
        let mut maps = MapSet::new();
        assert!(maps.create(MapDef::array(0, 4)).is_err());
        assert!(maps.create(MapDef::array(8, 0)).is_err());
        assert!(maps
            .create(MapDef {
                kind: MapKind::Array,
                key_size: 8,
                value_size: 8,
                max_entries: 1
            })
            .is_err());
        assert!(maps.create(MapDef::hash(0, 8, 1)).is_err());
    }

    #[test]
    fn unknown_map_errors() {
        let maps = MapSet::new();
        let ghost = MapId(7);
        assert_eq!(maps.lookup(ghost, &[]), Err(MapError::NoSuchMap(ghost)));
        assert_eq!(maps.def(ghost), Err(MapError::NoSuchMap(ghost)));
    }

    #[test]
    fn error_display_smoke() {
        assert!(MapError::Full(MapId(1)).to_string().contains("full"));
        assert!(MapError::BadDefinition("x").to_string().contains("x"));
    }
}
