//! Shared eviction-mode behaviour.
//!
//! Spark fixes, per application, what happens to eviction victims: MEM_ONLY
//! discards them (recompute on miss), MEM_AND_DISK spills them (reload on
//! miss). The paper points out this inflexibility (§3.2); LRU, LRC and MRD
//! are parameterized by the same two modes, while Blaze chooses per
//! partition.

use blaze_engine::{Admission, VictimAction};

/// What a baseline does with eviction victims and on admission overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictMode {
    /// Victims are discarded; misses recompute from lineage (MEM_ONLY).
    MemOnly,
    /// Victims spill to disk; misses reload from disk (MEM_AND_DISK).
    MemDisk,
}

impl EvictMode {
    /// The action applied to each eviction victim.
    pub fn victim_action(self) -> VictimAction {
        match self {
            EvictMode::MemOnly => VictimAction::Discard,
            EvictMode::MemDisk => VictimAction::ToDisk,
        }
    }

    /// Placement when a block cannot fit in memory even after eviction.
    pub fn admission_fallback(self) -> Admission {
        match self {
            EvictMode::MemOnly => Admission::Skip,
            EvictMode::MemDisk => Admission::Disk,
        }
    }

    /// Suffix used in system names.
    pub fn label(self) -> &'static str {
        match self {
            EvictMode::MemOnly => "MEM_ONLY",
            EvictMode::MemDisk => "MEM+DISK",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_map_to_actions() {
        assert_eq!(EvictMode::MemOnly.victim_action(), VictimAction::Discard);
        assert_eq!(EvictMode::MemDisk.victim_action(), VictimAction::ToDisk);
        assert_eq!(EvictMode::MemOnly.admission_fallback(), Admission::Skip);
        assert_eq!(EvictMode::MemDisk.admission_fallback(), Admission::Disk);
    }
}
