//! Write provenance: why a memory write happened and which heap space it
//! targeted.
//!
//! The paper's central analytical move is *attribution* — write rationing
//! works because, broken down by cause and space, nursery/mutator writes
//! dominate the PCM write stream. A [`WriteTag`] is the vocabulary for that
//! breakdown: a packed `(cause, space)` pair small enough to store per cache
//! line and to travel with dirty lines through the cache hierarchy until
//! they are written back to a memory controller.
//!
//! Tags are advisory metadata: they never influence simulation behaviour,
//! only accounting. The packed representation is a `u8` (cause in the low
//! nibble, space in the high nibble) so a disabled profiler stores nothing
//! and an enabled one stores one byte per cached line.

/// Why a line was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum WriteCause {
    /// Application (mutator) store: field write, array write, allocation
    /// zeroing, or the write barrier's fast path.
    #[default]
    Mutator = 0,
    /// GC copying a survivor out of the nursery (or observer space).
    NurseryEvac = 1,
    /// GC copying or compacting an object already in the mature heap.
    MatureCopy = 2,
    /// Runtime metadata: remembered-set buffers, mark state, forwarding
    /// pointers, metadata-slot maintenance.
    Metadata = 3,
    /// The OS page manager migrating a physical page between sockets.
    OsMigration = 4,
    /// Transparent page remapping after a wear-out retirement.
    WearRemap = 5,
    /// Anything not otherwise attributed (native/malloc traffic, boot-time
    /// image writes).
    Other = 6,
}

impl WriteCause {
    /// Every cause, in stable export order.
    pub const ALL: [WriteCause; 7] = [
        WriteCause::Mutator,
        WriteCause::NurseryEvac,
        WriteCause::MatureCopy,
        WriteCause::Metadata,
        WriteCause::OsMigration,
        WriteCause::WearRemap,
        WriteCause::Other,
    ];

    /// Stable snake_case name used in exported JSON.
    pub fn name(self) -> &'static str {
        match self {
            WriteCause::Mutator => "mutator",
            WriteCause::NurseryEvac => "nursery_evac",
            WriteCause::MatureCopy => "mature_copy",
            WriteCause::Metadata => "metadata",
            WriteCause::OsMigration => "os_migration",
            WriteCause::WearRemap => "wear_remap",
            WriteCause::Other => "other",
        }
    }

    fn from_raw(raw: u8) -> Self {
        *WriteCause::ALL
            .get(raw as usize)
            .unwrap_or(&WriteCause::Other)
    }
}

/// Which heap space a write targeted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum SpaceTag {
    /// The DRAM (or PCM, under PCM-Only) nursery.
    Nursery = 0,
    /// The observer space (KG-W write partitioning).
    Observer = 1,
    /// Mature space bound to DRAM.
    MatureDram = 2,
    /// Mature space bound to PCM.
    MaturePcm = 3,
    /// Large-object spaces (either socket).
    Large = 4,
    /// Metadata spaces (remset buffers, metadata slots).
    Meta = 5,
    /// Not a managed-heap address (native heap, boot image) or unknown.
    #[default]
    Other = 6,
}

impl SpaceTag {
    /// Every space, in stable export order.
    pub const ALL: [SpaceTag; 7] = [
        SpaceTag::Nursery,
        SpaceTag::Observer,
        SpaceTag::MatureDram,
        SpaceTag::MaturePcm,
        SpaceTag::Large,
        SpaceTag::Meta,
        SpaceTag::Other,
    ];

    /// Stable snake_case name used in exported JSON.
    pub fn name(self) -> &'static str {
        match self {
            SpaceTag::Nursery => "nursery",
            SpaceTag::Observer => "observer",
            SpaceTag::MatureDram => "mature_dram",
            SpaceTag::MaturePcm => "mature_pcm",
            SpaceTag::Large => "large",
            SpaceTag::Meta => "meta",
            SpaceTag::Other => "other",
        }
    }

    fn from_raw(raw: u8) -> Self {
        *SpaceTag::ALL.get(raw as usize).unwrap_or(&SpaceTag::Other)
    }
}

/// A packed `(cause, space)` provenance tag: cause in the low nibble,
/// space in the high nibble.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WriteTag(u8);

impl WriteTag {
    /// The default tag: an unattributed write (`Other`/`Other`).
    pub const OTHER: WriteTag =
        WriteTag((WriteCause::Other as u8) | ((SpaceTag::Other as u8) << 4));

    /// Packs a cause and a space into one byte.
    pub fn new(cause: WriteCause, space: SpaceTag) -> Self {
        WriteTag((cause as u8) | ((space as u8) << 4))
    }

    /// The raw packed byte (stored per cache line by the profiler).
    pub fn raw(self) -> u8 {
        self.0
    }

    /// Reconstructs a tag from its packed byte. Out-of-range nibbles decode
    /// as `Other`.
    pub fn from_raw(raw: u8) -> Self {
        WriteTag::new(
            WriteCause::from_raw(raw & 0x0f),
            SpaceTag::from_raw(raw >> 4),
        )
    }

    /// The cause nibble.
    pub fn cause(self) -> WriteCause {
        WriteCause::from_raw(self.0 & 0x0f)
    }

    /// The space nibble.
    pub fn space(self) -> SpaceTag {
        SpaceTag::from_raw(self.0 >> 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrips_every_pair() {
        for &cause in &WriteCause::ALL {
            for &space in &SpaceTag::ALL {
                let tag = WriteTag::new(cause, space);
                assert_eq!(tag.cause(), cause);
                assert_eq!(tag.space(), space);
                assert_eq!(WriteTag::from_raw(tag.raw()), tag);
            }
        }
    }

    #[test]
    fn out_of_range_nibbles_decode_as_other() {
        let tag = WriteTag::from_raw(0xff);
        assert_eq!(tag.cause(), WriteCause::Other);
        assert_eq!(tag.space(), SpaceTag::Other);
    }

    #[test]
    fn names_are_stable_and_distinct() {
        let causes: std::collections::HashSet<_> =
            WriteCause::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(causes.len(), WriteCause::ALL.len());
        let spaces: std::collections::HashSet<_> = SpaceTag::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(spaces.len(), SpaceTag::ALL.len());
        assert_eq!(WriteCause::Mutator.name(), "mutator");
        assert_eq!(SpaceTag::MaturePcm.name(), "mature_pcm");
    }

    #[test]
    fn default_tag_is_unattributed() {
        assert_eq!(WriteTag::OTHER.cause(), WriteCause::Other);
        assert_eq!(WriteTag::OTHER.space(), SpaceTag::Other);
        assert_eq!(WriteTag::from_raw(WriteTag::OTHER.raw()), WriteTag::OTHER);
    }
}
