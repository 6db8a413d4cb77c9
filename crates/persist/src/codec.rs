//! The versioned binary checkpoint format.
//!
//! A checkpoint file is a *document*:
//!
//! ```text
//! header   := magic[8] version:u32 doc_kind:u8 section_count:u32
//! section  := tag[4] payload_len:u64 payload_crc32:u32 payload[payload_len]
//! document := header section*
//! ```
//!
//! All integers are little-endian. Each section's payload is protected
//! by its own CRC-32 (reflected IEEE), so any single flipped bit in a
//! payload is detected; the header fields are protected structurally
//! (magic, version, known tags, exact length accounting, and a
//! trailing-bytes check). Compound documents nest recursively: a
//! window checkpoint's `CUR`/`BAS`/`WIN`/`SNP` sections carry complete
//! embedded documents, so the same encode/decode pair handles every layer.
//!
//! Document kinds and their section sequences (order is fixed and
//! enforced):
//!
//! | kind | sections |
//! |---|---|
//! | 1 `Sketch`   | `CFG` `MET` `LVL`* |
//! | 2 `Tracking` | `SKC`(nested Sketch) `TRM` `TRK`* |
//! | 3 (retired)  | — rejected as an unknown kind; never reuse the byte |
//! | 4 `Sharded`  | `SHD` `SNP`(nested Sketch)* |
//! | 5 `Window`   | `WND` `CUR`(nested Tracking) `BAS`(nested Sketch) `WIN`(nested Sketch) `SNP`(nested Sketch)* |
//!
//! Version-evolution rules: `FORMAT_VERSION` bumps on any change to
//! the byte layout; readers reject versions newer than they know
//! (`UnsupportedVersion`), and a future reader that keeps
//! compatibility code may accept older ones. Unknown section tags are
//! an error, not skipped — a checkpoint is a complete state capture,
//! so "unknown but ignorable" sections do not exist at this layer.
//! The last byte of `CFG` is the retired hash-family tag: encoders
//! write 0 (multiply-shift, the only family) and decoders reject any
//! other value. See DESIGN.md §12 for the full specification.

use dcs_core::{GroupBy, LevelSlabs, SketchConfig, SketchState, TrackingLevelState, TrackingState};

use crate::error::PersistError;
use crate::wire::{crc32, ByteReader, ByteWriter};

/// The first eight bytes of every checkpoint file.
pub const MAGIC: [u8; 8] = *b"DCSCKPT\0";

/// The newest (and currently only) checkpoint format version.
pub const FORMAT_VERSION: u32 = 1;

const KIND_SKETCH: u8 = 1;
const KIND_TRACKING: u8 = 2;
// Kind byte 3 is retired: it was the epoch-manager document, whose
// writer is gone. Decoders reject it as an unknown kind, and it must
// never be reused — an old kind-3 file would decode as the new kind.
const KIND_SHARDED: u8 = 4;
const KIND_WINDOW: u8 = 5;

const TAG_CFG: [u8; 4] = *b"CFG\0";
const TAG_MET: [u8; 4] = *b"MET\0";
const TAG_LVL: [u8; 4] = *b"LVL\0";
const TAG_SKC: [u8; 4] = *b"SKC\0";
const TAG_TRM: [u8; 4] = *b"TRM\0";
const TAG_TRK: [u8; 4] = *b"TRK\0";
const TAG_CUR: [u8; 4] = *b"CUR\0";
const TAG_SNP: [u8; 4] = *b"SNP\0";
const TAG_SHD: [u8; 4] = *b"SHD\0";
const TAG_WND: [u8; 4] = *b"WND\0";
const TAG_BAS: [u8; 4] = *b"BAS\0";
const TAG_WIN: [u8; 4] = *b"WIN\0";

fn tag_name(tag: [u8; 4]) -> String {
    tag.iter()
        .take_while(|&&b| b != 0)
        .map(|&b| char::from(b))
        .collect()
}

/// The persistent state of a sharded ingest pipeline: one basic-sketch
/// state per shard (in shard order) plus the distribution cursor.
///
/// Captured only at *ring-drained* positions: the engine flushes every
/// worker ring before snapshotting, so the per-shard states cover
/// everything dispatched and the document never records an in-flight
/// item. Restore re-checks that the shard counts sum exactly to
/// `updates_distributed` (overflow included), because the cursor is
/// what absolute-position routing resumes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedCheckpoint {
    /// Total updates distributed across the shards so far — the
    /// absolute stream position routing resumes from.
    pub updates_distributed: u64,
    /// Per-shard sketch states, in shard index order.
    pub shards: Vec<SketchState>,
}

/// The persistent state of a windowed monitor: the cumulative tracking
/// sketch, the epoch base (the cumulative counter state at the last
/// rotation, from which the next epoch delta is differenced), the
/// ring-of-deltas accumulator, and the retained per-epoch deltas.
///
/// The accumulator is persisted **explicitly** rather than recomputed
/// from the deltas on restore: the accumulator a long-running window
/// converges to carries levels that have been merged in and then
/// subtracted back to zero, and recomputing from the surviving deltas
/// would drop those zeroed levels — restoring a state that is
/// query-equivalent but not bit-identical to the one saved. Persisting
/// it keeps kill-and-resume runs bit-identical to uninterrupted ones
/// (the property the window equivalence suite pins).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowCheckpoint {
    /// Ring capacity in epochs (`N`; always ≥ 1).
    pub epochs: u64,
    /// Total number of epoch rotations so far.
    pub epochs_rotated: u64,
    /// State of the cumulative (all-time) tracking sketch.
    pub current: TrackingState,
    /// The cumulative counter state at the last rotation.
    pub base: SketchState,
    /// The ring accumulator: the sum of the retained deltas, with its
    /// exact level allocation preserved.
    pub window: SketchState,
    /// Retained per-epoch delta sketches, oldest first; at most
    /// `epochs` of them.
    pub deltas: Vec<SketchState>,
}

/// Everything the persistence layer can checkpoint, as one tagged
/// union — the document kind on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Checkpoint {
    /// A basic [`dcs_core::DistinctCountSketch`].
    Sketch(SketchState),
    /// A [`dcs_core::TrackingDcs`] with its tracking structures.
    Tracking(TrackingState),
    /// A sharded ingest pipeline: per-shard sketches + stream cursor.
    Sharded(ShardedCheckpoint),
    /// A windowed monitor: cumulative sketch + ring-of-deltas window.
    Window(WindowCheckpoint),
}

impl Checkpoint {
    /// A short human-readable name for the document kind.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Checkpoint::Sketch(_) => "sketch",
            Checkpoint::Tracking(_) => "tracking",
            Checkpoint::Sharded(_) => "sharded",
            Checkpoint::Window(_) => "window",
        }
    }

    fn kind_byte(&self) -> u8 {
        match self {
            Checkpoint::Sketch(_) => KIND_SKETCH,
            Checkpoint::Tracking(_) => KIND_TRACKING,
            Checkpoint::Sharded(_) => KIND_SHARDED,
            Checkpoint::Window(_) => KIND_WINDOW,
        }
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn push_section(sections: &mut Vec<([u8; 4], Vec<u8>)>, tag: [u8; 4], payload: Vec<u8>) {
    sections.push((tag, payload));
}

fn config_payload(config: &SketchConfig) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(u64::try_from(config.num_tables()).unwrap_or(u64::MAX));
    w.put_u64(u64::try_from(config.buckets_per_table()).unwrap_or(u64::MAX));
    w.put_u32(config.max_levels());
    w.put_u64(config.seed());
    let (group_tag, bits) = match config.group_by() {
        GroupBy::Destination => (0u8, 0u8),
        GroupBy::Source => (1, 0),
        GroupBy::DestinationPrefix { bits } => (2, bits),
        GroupBy::SourcePrefix { bits } => (3, bits),
    };
    w.put_u8(group_tag);
    w.put_u8(bits);
    // Retired hash-family tag: 0 is multiply-shift, the only family.
    w.put_u8(0);
    w.into_bytes()
}

fn level_payload(slab: &LevelSlabs) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(slab.level);
    w.put_u64(u64::try_from(slab.counts.len()).unwrap_or(u64::MAX));
    for &c in &slab.counts {
        w.put_i64(c);
    }
    w.put_u64(u64::try_from(slab.key_sums.len()).unwrap_or(u64::MAX));
    for &s in &slab.key_sums {
        w.put_u64(s);
    }
    w.put_u64(u64::try_from(slab.fp_sums.len()).unwrap_or(u64::MAX));
    for &s in &slab.fp_sums {
        w.put_u64(s);
    }
    w.into_bytes()
}

fn tracking_level_payload(level: &TrackingLevelState) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(level.level);
    w.put_u64(u64::try_from(level.singletons.len()).unwrap_or(u64::MAX));
    for &(packed, count) in &level.singletons {
        w.put_u64(packed);
        w.put_u32(count);
    }
    w.put_u64(u64::try_from(level.heap_slots.len()).unwrap_or(u64::MAX));
    for &(priority, group) in &level.heap_slots {
        w.put_u64(priority);
        w.put_u32(group);
    }
    w.put_u64(level.heap_underflows);
    w.put_u64(level.heap_overflows);
    w.put_u64(level.heap_adjusts);
    w.into_bytes()
}

fn sketch_sections(state: &SketchState, sections: &mut Vec<([u8; 4], Vec<u8>)>) {
    push_section(sections, TAG_CFG, config_payload(&state.config));
    let mut met = ByteWriter::new();
    met.put_u64(state.updates_processed);
    met.put_i64(state.net_updates);
    push_section(sections, TAG_MET, met.into_bytes());
    for slab in &state.levels {
        push_section(sections, TAG_LVL, level_payload(slab));
    }
}

fn assemble(kind: u8, sections: Vec<([u8; 4], Vec<u8>)>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(&MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u8(kind);
    w.put_u32(u32::try_from(sections.len()).unwrap_or(u32::MAX));
    for (tag, payload) in sections {
        w.put_bytes(&tag);
        w.put_u64(u64::try_from(payload.len()).unwrap_or(u64::MAX));
        w.put_u32(crc32(&payload));
        w.put_bytes(&payload);
    }
    w.into_bytes()
}

/// Encodes a checkpoint into its on-disk byte representation.
///
/// Encoding is deterministic: the same state always produces the same
/// bytes (the golden-fixture tests pin this down).
pub fn encode(checkpoint: &Checkpoint) -> Vec<u8> {
    let mut sections = Vec::new();
    match checkpoint {
        Checkpoint::Sketch(state) => sketch_sections(state, &mut sections),
        Checkpoint::Tracking(state) => {
            push_section(
                &mut sections,
                TAG_SKC,
                encode(&Checkpoint::Sketch(state.sketch.clone())),
            );
            let mut trm = ByteWriter::new();
            trm.put_u64(state.untracked_decrements);
            push_section(&mut sections, TAG_TRM, trm.into_bytes());
            for level in &state.levels {
                push_section(&mut sections, TAG_TRK, tracking_level_payload(level));
            }
        }
        Checkpoint::Sharded(sharded) => {
            let mut shd = ByteWriter::new();
            shd.put_u64(sharded.updates_distributed);
            shd.put_u32(u32::try_from(sharded.shards.len()).unwrap_or(u32::MAX));
            push_section(&mut sections, TAG_SHD, shd.into_bytes());
            for shard in &sharded.shards {
                push_section(
                    &mut sections,
                    TAG_SNP,
                    encode(&Checkpoint::Sketch(shard.clone())),
                );
            }
        }
        Checkpoint::Window(window) => {
            let mut wnd = ByteWriter::new();
            wnd.put_u64(window.epochs);
            wnd.put_u64(window.epochs_rotated);
            wnd.put_u32(u32::try_from(window.deltas.len()).unwrap_or(u32::MAX));
            push_section(&mut sections, TAG_WND, wnd.into_bytes());
            push_section(
                &mut sections,
                TAG_CUR,
                encode(&Checkpoint::Tracking(window.current.clone())),
            );
            push_section(
                &mut sections,
                TAG_BAS,
                encode(&Checkpoint::Sketch(window.base.clone())),
            );
            push_section(
                &mut sections,
                TAG_WIN,
                encode(&Checkpoint::Sketch(window.window.clone())),
            );
            for delta in &window.deltas {
                push_section(
                    &mut sections,
                    TAG_SNP,
                    encode(&Checkpoint::Sketch(delta.clone())),
                );
            }
        }
    }
    assemble(checkpoint.kind_byte(), sections)
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Section<'a> {
    tag: [u8; 4],
    payload: &'a [u8],
}

/// Walks the document framing: validates magic and version, reads the
/// section table, and checks every section's CRC. Returns the document
/// kind and the sections in file order.
fn read_document(bytes: &[u8]) -> Result<(u8, Vec<Section<'_>>), PersistError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take(8, "magic")?;
    if magic != MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(magic);
        return Err(PersistError::BadMagic { found });
    }
    let version = r.u32("format version")?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let kind = r.u8("document kind")?;
    let section_count = r.u32("section count")?;
    let mut sections = Vec::new();
    for index in 0..section_count {
        let tag_bytes = r.take(4, "section tag")?;
        let mut tag = [0u8; 4];
        tag.copy_from_slice(tag_bytes);
        let len_raw = r.u64("section length")?;
        let len = usize::try_from(len_raw).map_err(|_| PersistError::Corrupt {
            context: format!("section {index} length {len_raw} does not fit in memory"),
        })?;
        let expected = r.u32("section checksum")?;
        let payload = r.take(len, "section payload")?;
        let actual = crc32(payload);
        if actual != expected {
            return Err(PersistError::ChecksumMismatch {
                section: tag_name(tag),
                expected,
                actual,
            });
        }
        sections.push(Section { tag, payload });
    }
    r.expect_end()?;
    Ok((kind, sections))
}

/// Returns the byte offset of every top-level section boundary in a
/// valid document: the end of the header, then the end of each section
/// (the final entry is the file length). The corruption-matrix tests
/// use this to truncate a checkpoint at exactly every boundary.
pub fn section_offsets(bytes: &[u8]) -> Result<Vec<usize>, PersistError> {
    let (_, sections) = read_document(bytes)?;
    // Header: magic(8) + version(4) + kind(1) + section count(4).
    let mut offset = 8 + 4 + 1 + 4;
    let mut offsets = vec![offset];
    for section in &sections {
        // Frame: tag(4) + length(8) + crc(4) + payload.
        offset += 4 + 8 + 4 + section.payload.len();
        offsets.push(offset);
    }
    Ok(offsets)
}

fn decode_config(payload: &[u8]) -> Result<SketchConfig, PersistError> {
    let mut r = ByteReader::new(payload);
    let num_tables_raw = r.u64("config num_tables")?;
    let num_tables = usize::try_from(num_tables_raw).map_err(|_| PersistError::Corrupt {
        context: format!("config num_tables {num_tables_raw} does not fit in memory"),
    })?;
    let buckets_raw = r.u64("config buckets_per_table")?;
    let buckets = usize::try_from(buckets_raw).map_err(|_| PersistError::Corrupt {
        context: format!("config buckets_per_table {buckets_raw} does not fit in memory"),
    })?;
    let max_levels = r.u32("config max_levels")?;
    let seed = r.u64("config seed")?;
    let group_tag = r.u8("config group_by tag")?;
    let bits = r.u8("config group_by bits")?;
    let family_tag = r.u8("config hash_family")?;
    r.expect_end()?;
    let prefix_bits = |bits: u8| -> Result<u8, PersistError> {
        if (1..=32).contains(&bits) {
            Ok(bits)
        } else {
            Err(PersistError::Corrupt {
                context: format!("config prefix bits {bits} outside 1..=32"),
            })
        }
    };
    let group_by = match group_tag {
        0 => GroupBy::Destination,
        1 => GroupBy::Source,
        2 => GroupBy::DestinationPrefix {
            bits: prefix_bits(bits)?,
        },
        3 => GroupBy::SourcePrefix {
            bits: prefix_bits(bits)?,
        },
        other => {
            return Err(PersistError::Corrupt {
                context: format!("unknown group_by tag {other}"),
            })
        }
    };
    if family_tag != 0 {
        return Err(PersistError::Corrupt {
            context: format!("unsupported hash_family tag {family_tag} (only 0, multiply-shift)"),
        });
    }
    SketchConfig::builder()
        .num_tables(num_tables)
        .buckets_per_table(buckets)
        .max_levels(max_levels)
        .seed(seed)
        .group_by(group_by)
        .build()
        .map_err(PersistError::State)
}

fn decode_level(payload: &[u8]) -> Result<LevelSlabs, PersistError> {
    let mut r = ByteReader::new(payload);
    let level = r.u32("level index")?;
    let count_len = r.element_count(8, "level counter slab")?;
    let mut counts = Vec::with_capacity(count_len);
    for _ in 0..count_len {
        counts.push(r.i64("level counter")?);
    }
    let key_len = r.element_count(8, "level key-sum slab")?;
    let mut key_sums = Vec::with_capacity(key_len);
    for _ in 0..key_len {
        key_sums.push(r.u64("level key sum")?);
    }
    let fp_len = r.element_count(8, "level fp-sum slab")?;
    let mut fp_sums = Vec::with_capacity(fp_len);
    for _ in 0..fp_len {
        fp_sums.push(r.u64("level fp sum")?);
    }
    r.expect_end()?;
    Ok(LevelSlabs {
        level,
        counts,
        key_sums,
        fp_sums,
    })
}

fn decode_tracking_level(payload: &[u8]) -> Result<TrackingLevelState, PersistError> {
    let mut r = ByteReader::new(payload);
    let level = r.u32("tracking level index")?;
    let singleton_len = r.element_count(12, "tracking singleton list")?;
    let mut singletons = Vec::with_capacity(singleton_len);
    for _ in 0..singleton_len {
        let packed = r.u64("singleton key")?;
        let count = r.u32("singleton count")?;
        singletons.push((packed, count));
    }
    let heap_len = r.element_count(12, "tracking heap slots")?;
    let mut heap_slots = Vec::with_capacity(heap_len);
    for _ in 0..heap_len {
        let priority = r.u64("heap slot priority")?;
        let group = r.u32("heap slot group")?;
        heap_slots.push((priority, group));
    }
    let heap_underflows = r.u64("heap underflow counter")?;
    let heap_overflows = r.u64("heap overflow counter")?;
    let heap_adjusts = r.u64("heap adjust counter")?;
    r.expect_end()?;
    Ok(TrackingLevelState {
        level,
        singletons,
        heap_slots,
        heap_underflows,
        heap_overflows,
        heap_adjusts,
    })
}

fn expect_tag(section: &Section<'_>, tag: [u8; 4]) -> Result<(), PersistError> {
    if section.tag == tag {
        Ok(())
    } else {
        Err(PersistError::Corrupt {
            context: format!(
                "expected section {:?}, found {:?}",
                tag_name(tag),
                tag_name(section.tag)
            ),
        })
    }
}

fn decode_sketch_sections(sections: &[Section<'_>]) -> Result<SketchState, PersistError> {
    if sections.len() < 2 {
        return Err(PersistError::Corrupt {
            context: format!(
                "sketch document has {} section(s), needs at least CFG and MET",
                sections.len()
            ),
        });
    }
    expect_tag(&sections[0], TAG_CFG)?;
    expect_tag(&sections[1], TAG_MET)?;
    let config = decode_config(sections[0].payload)?;
    let mut met = ByteReader::new(sections[1].payload);
    let updates_processed = met.u64("updates_processed")?;
    let net_updates = met.i64("net_updates")?;
    met.expect_end()?;
    let mut levels = Vec::with_capacity(sections.len() - 2);
    for section in &sections[2..] {
        expect_tag(section, TAG_LVL)?;
        levels.push(decode_level(section.payload)?);
    }
    Ok(SketchState {
        config,
        updates_processed,
        net_updates,
        levels,
    })
}

fn decode_nested_sketch(payload: &[u8], what: &str) -> Result<SketchState, PersistError> {
    match decode(payload)? {
        Checkpoint::Sketch(state) => Ok(state),
        other => Err(PersistError::Corrupt {
            context: format!("{what}: embedded document is {:?}", other.kind_name()),
        }),
    }
}

fn decode_nested_tracking(payload: &[u8], what: &str) -> Result<TrackingState, PersistError> {
    match decode(payload)? {
        Checkpoint::Tracking(state) => Ok(state),
        other => Err(PersistError::Corrupt {
            context: format!("{what}: embedded document is {:?}", other.kind_name()),
        }),
    }
}

/// Decodes a checkpoint document, validating framing, CRCs, and
/// structural consistency. Never panics on any input.
///
/// Decoding validates the *representation*; the restored-state
/// constructors ([`dcs_core::DistinctCountSketch::from_state`] and
/// friends) validate the *semantics* — both must pass before any live
/// structure is built.
pub fn decode(bytes: &[u8]) -> Result<Checkpoint, PersistError> {
    let (kind, sections) = read_document(bytes)?;
    match kind {
        KIND_SKETCH => Ok(Checkpoint::Sketch(decode_sketch_sections(&sections)?)),
        KIND_TRACKING => {
            if sections.len() < 2 {
                return Err(PersistError::Corrupt {
                    context: format!(
                        "tracking document has {} section(s), needs at least SKC and TRM",
                        sections.len()
                    ),
                });
            }
            expect_tag(&sections[0], TAG_SKC)?;
            expect_tag(&sections[1], TAG_TRM)?;
            let sketch = decode_nested_sketch(sections[0].payload, "SKC section")?;
            let mut trm = ByteReader::new(sections[1].payload);
            let untracked_decrements = trm.u64("untracked_decrements")?;
            trm.expect_end()?;
            let mut levels = Vec::with_capacity(sections.len() - 2);
            for section in &sections[2..] {
                expect_tag(section, TAG_TRK)?;
                levels.push(decode_tracking_level(section.payload)?);
            }
            Ok(Checkpoint::Tracking(TrackingState {
                sketch,
                levels,
                untracked_decrements,
            }))
        }
        KIND_SHARDED => {
            if sections.is_empty() {
                return Err(PersistError::Corrupt {
                    context: "sharded document has no sections, needs at least SHD".into(),
                });
            }
            expect_tag(&sections[0], TAG_SHD)?;
            let mut shd = ByteReader::new(sections[0].payload);
            let updates_distributed = shd.u64("updates distributed")?;
            let shard_count = shd.u32("shard count")?;
            shd.expect_end()?;
            let mut shards = Vec::with_capacity(sections.len() - 1);
            for section in &sections[1..] {
                expect_tag(section, TAG_SNP)?;
                shards.push(decode_nested_sketch(section.payload, "SNP section")?);
            }
            if u64::try_from(shards.len()).unwrap_or(u64::MAX) != u64::from(shard_count) {
                return Err(PersistError::Corrupt {
                    context: format!(
                        "sharded document declares {shard_count} shard(s) but carries {}",
                        shards.len()
                    ),
                });
            }
            Ok(Checkpoint::Sharded(ShardedCheckpoint {
                updates_distributed,
                shards,
            }))
        }
        KIND_WINDOW => {
            if sections.len() < 4 {
                return Err(PersistError::Corrupt {
                    context: format!(
                        "window document has {} section(s), needs at least \
                         WND, CUR, BAS, and WIN",
                        sections.len()
                    ),
                });
            }
            expect_tag(&sections[0], TAG_WND)?;
            expect_tag(&sections[1], TAG_CUR)?;
            expect_tag(&sections[2], TAG_BAS)?;
            expect_tag(&sections[3], TAG_WIN)?;
            let mut wnd = ByteReader::new(sections[0].payload);
            let epochs = wnd.u64("window ring capacity")?;
            let epochs_rotated = wnd.u64("window epochs rotated")?;
            let delta_count = wnd.u32("window delta count")?;
            wnd.expect_end()?;
            let current = decode_nested_tracking(sections[1].payload, "CUR section")?;
            let base = decode_nested_sketch(sections[2].payload, "BAS section")?;
            let window = decode_nested_sketch(sections[3].payload, "WIN section")?;
            let mut deltas = Vec::with_capacity(sections.len() - 4);
            for section in &sections[4..] {
                expect_tag(section, TAG_SNP)?;
                deltas.push(decode_nested_sketch(section.payload, "SNP section")?);
            }
            if u64::try_from(deltas.len()).unwrap_or(u64::MAX) != u64::from(delta_count) {
                return Err(PersistError::Corrupt {
                    context: format!(
                        "window document declares {delta_count} delta(s) but carries {}",
                        deltas.len()
                    ),
                });
            }
            Ok(Checkpoint::Window(WindowCheckpoint {
                epochs,
                epochs_rotated,
                current,
                base,
                window,
                deltas,
            }))
        }
        other => Err(PersistError::Corrupt {
            context: format!("unknown document kind {other}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::{DestAddr, DistinctCountSketch, SourceAddr, TrackingDcs};

    fn config(seed: u64) -> SketchConfig {
        // Small dimensions keep the encoded documents in the tens of
        // KB; the exhaustive truncation test below decodes every
        // prefix, which is quadratic in document length.
        SketchConfig::builder()
            .num_tables(2)
            .buckets_per_table(8)
            .max_levels(5)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn sample_sketch(seed: u64, pairs: u32) -> SketchState {
        let mut sketch = DistinctCountSketch::new(config(seed));
        for s in 0..pairs {
            sketch.insert(SourceAddr(s), DestAddr(s % 5));
        }
        sketch.to_state()
    }

    fn sample_tracking(seed: u64, pairs: u32) -> TrackingState {
        let mut t = TrackingDcs::new(config(seed));
        for s in 0..pairs {
            t.insert(SourceAddr(s), DestAddr(s % 5));
        }
        t.to_state()
    }

    #[test]
    fn sketch_document_roundtrips() {
        let state = sample_sketch(1, 300);
        let bytes = encode(&Checkpoint::Sketch(state.clone()));
        assert_eq!(decode(&bytes).unwrap(), Checkpoint::Sketch(state));
    }

    #[test]
    fn tracking_document_roundtrips() {
        let state = sample_tracking(2, 400);
        let bytes = encode(&Checkpoint::Tracking(state.clone()));
        assert_eq!(decode(&bytes).unwrap(), Checkpoint::Tracking(state));
    }

    #[test]
    fn sharded_document_roundtrips() {
        let sharded = ShardedCheckpoint {
            updates_distributed: 777,
            shards: vec![
                sample_sketch(4, 80),
                sample_sketch(4, 90),
                sample_sketch(4, 10),
            ],
        };
        let bytes = encode(&Checkpoint::Sharded(sharded.clone()));
        assert_eq!(decode(&bytes).unwrap(), Checkpoint::Sharded(sharded));
    }

    #[test]
    fn window_document_roundtrips() {
        let window = WindowCheckpoint {
            epochs: 3,
            epochs_rotated: 11,
            current: sample_tracking(12, 150),
            base: sample_sketch(12, 150),
            window: sample_sketch(12, 60),
            deltas: vec![sample_sketch(12, 20), sample_sketch(12, 40)],
        };
        let bytes = encode(&Checkpoint::Window(window.clone()));
        assert_eq!(decode(&bytes).unwrap(), Checkpoint::Window(window));
    }

    #[test]
    fn window_document_with_empty_ring_roundtrips() {
        let window = WindowCheckpoint {
            epochs: 4,
            epochs_rotated: 0,
            current: sample_tracking(13, 30),
            base: sample_sketch(13, 30),
            window: DistinctCountSketch::new(config(13)).to_state(),
            deltas: Vec::new(),
        };
        let bytes = encode(&Checkpoint::Window(window.clone()));
        assert_eq!(decode(&bytes).unwrap(), Checkpoint::Window(window));
    }

    #[test]
    fn window_document_delta_count_mismatch_is_rejected() {
        let window = WindowCheckpoint {
            epochs: 3,
            epochs_rotated: 2,
            current: sample_tracking(14, 40),
            base: sample_sketch(14, 40),
            window: sample_sketch(14, 40),
            deltas: vec![sample_sketch(14, 10)],
        };
        let bytes = encode(&Checkpoint::Window(window));
        let boundaries = section_offsets(&bytes).unwrap();
        // Drop the trailing SNP section and patch the section count in
        // the header (offset 13, after magic+version): the declared
        // delta count in WND no longer matches.
        let mut truncated = bytes[..boundaries[boundaries.len() - 2]].to_vec();
        truncated[13] -= 1;
        assert!(matches!(
            decode(&truncated),
            Err(PersistError::Corrupt { context }) if context.contains("declares 1 delta")
        ));
    }

    #[test]
    fn empty_sketch_roundtrips() {
        let state = DistinctCountSketch::new(config(5)).to_state();
        let bytes = encode(&Checkpoint::Sketch(state.clone()));
        assert_eq!(decode(&bytes).unwrap(), Checkpoint::Sketch(state));
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = encode(&Checkpoint::Tracking(sample_tracking(6, 250)));
        let b = encode(&Checkpoint::Tracking(sample_tracking(6, 250)));
        assert_eq!(a, b);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode(&Checkpoint::Sketch(sample_sketch(7, 10)));
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(PersistError::BadMagic { .. })));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = encode(&Checkpoint::Sketch(sample_sketch(8, 10)));
        // Version field sits right after the 8-byte magic.
        bytes[8] = 0xff;
        assert!(matches!(
            decode(&bytes),
            Err(PersistError::UnsupportedVersion { found, .. }) if found != FORMAT_VERSION
        ));
    }

    #[test]
    fn unknown_document_kind_is_rejected() {
        let bytes = encode(&Checkpoint::Sketch(sample_sketch(9, 10)));
        // Kind byte sits after magic(8) + version(4). Kind 3 is the
        // retired epoch-manager document.
        for kind in [3, 99] {
            let mut patched = bytes.clone();
            patched[12] = kind;
            assert!(
                matches!(decode(&patched), Err(PersistError::Corrupt { .. })),
                "kind {kind}"
            );
        }
    }

    #[test]
    fn config_family_byte_is_zero_and_nonzero_is_corrupt() {
        let configs = [
            config(0),
            SketchConfig::paper_default(),
            SketchConfig::builder()
                .num_tables(5)
                .buckets_per_table(1 << 20)
                .max_levels(64)
                .seed(u64::MAX)
                .group_by(GroupBy::SourcePrefix { bits: 24 })
                .build()
                .unwrap(),
            config(3).regroup(GroupBy::Source),
            config(4).regroup(GroupBy::DestinationPrefix { bits: 16 }),
        ];
        for config in &configs {
            let mut payload = config_payload(config);
            assert_eq!(payload.last(), Some(&0), "{config:?}");
            assert_eq!(decode_config(&payload).unwrap(), *config);
            *payload.last_mut().unwrap() = 1;
            assert!(
                matches!(
                    decode_config(&payload),
                    Err(PersistError::Corrupt { context }) if context.contains("hash_family")
                ),
                "{config:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&Checkpoint::Sketch(sample_sketch(10, 10)));
        bytes.push(0);
        assert!(matches!(
            decode(&bytes),
            Err(PersistError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn payload_bit_flip_is_a_checksum_mismatch() {
        let bytes = encode(&Checkpoint::Sketch(sample_sketch(11, 100)));
        let boundaries = section_offsets(&bytes).unwrap();
        // Flip one bit inside the first section's payload (just past
        // its 16-byte frame header).
        let mut flipped = bytes.clone();
        let target = boundaries[0] + 16 + 2;
        flipped[target] ^= 0x10;
        assert!(matches!(
            decode(&flipped),
            Err(PersistError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn section_offsets_cover_the_whole_file() {
        let bytes = encode(&Checkpoint::Tracking(sample_tracking(12, 150)));
        let offsets = section_offsets(&bytes).unwrap();
        assert_eq!(*offsets.last().unwrap(), bytes.len());
        assert!(offsets.len() >= 3, "SKC + TRM + at least one TRK");
        for pair in offsets.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn truncation_at_every_offset_is_an_error_not_a_panic() {
        let bytes = encode(&Checkpoint::Sketch(sample_sketch(13, 60)));
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "decode of {cut}-byte prefix unexpectedly succeeded"
            );
        }
    }

    #[test]
    fn mismatched_snapshot_count_is_corrupt() {
        let sharded = ShardedCheckpoint {
            updates_distributed: 70,
            shards: vec![sample_sketch(14, 60), sample_sketch(14, 10)],
        };
        let bytes = encode(&Checkpoint::Sharded(sharded));
        // Drop the final SNP section and fix up the section count so the
        // framing stays valid; the declared shard count now lies.
        let offsets = section_offsets(&bytes).unwrap();
        let mut shortened = bytes[..offsets[offsets.len() - 2]].to_vec();
        // Section count is a u32 at offset 13 (magic 8 + version 4 + kind 1).
        let old_count = u32::from_le_bytes([bytes[13], bytes[14], bytes[15], bytes[16]]);
        shortened[13..17].copy_from_slice(&(old_count - 1).to_le_bytes());
        assert!(matches!(
            decode(&shortened),
            Err(PersistError::Corrupt { context }) if context.contains("declares 2 shard")
        ));
    }
}
