//! The compared systems (§7.1) as cache-controller factories.

use blaze_core::{BlazeConfig, BlazeController, ProfileResult};
use blaze_engine::CacheController;
use blaze_policies::{
    AlluxioController, EvictMode, FifoController, LeCaRController, LfuController, LrcController,
    LruController, MrdController, TinyLfuController,
};

/// One of the systems compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Recomputation-based Spark (LRU, discard on eviction).
    SparkMemOnly,
    /// Checkpoint-based Spark (LRU, spill on eviction).
    SparkMemDisk,
    /// Spark over an Alluxio-style serialized tiered store.
    SparkAlluxio,
    /// LRC on MEM+DISK Spark (Fig. 9) .
    Lrc,
    /// MRD on MEM+DISK Spark (Fig. 9).
    Mrd,
    /// Full Blaze (profiled).
    Blaze,
    /// Full Blaze with the serialized in-memory tier enabled: the decision
    /// layer picks per partition among m/s/d/u instead of m/d/u (the §7.2
    /// serialized-memory regime as a solver-visible state).
    BlazeSerTier,
    /// Full Blaze without the dependency-extraction phase (Fig. 13).
    BlazeNoProfile,
    /// The +AutoCache ablation (Fig. 11).
    AutoCache,
    /// The +CostAware ablation (Fig. 11).
    CostAware,
    /// LRC on MEM_ONLY Spark (Fig. 12).
    LrcMemOnly,
    /// MRD on MEM_ONLY Spark (Fig. 12).
    MrdMemOnly,
    /// Blaze restricted to memory states (Fig. 12).
    BlazeMemOnly,
    /// FIFO baseline (considered conventional policy, §7.1).
    Fifo,
    /// LFU baseline.
    Lfu,
    /// LFUDA baseline.
    Lfuda,
    /// TinyLFU baseline.
    TinyLfu,
    /// LeCaR baseline.
    LeCaR,
    /// GDWheel-style cost-aware baseline.
    GdWheel,
}

impl SystemKind {
    /// Every system, in declaration order.
    pub fn all() -> [SystemKind; 19] {
        [
            SystemKind::SparkMemOnly,
            SystemKind::SparkMemDisk,
            SystemKind::SparkAlluxio,
            SystemKind::Lrc,
            SystemKind::Mrd,
            SystemKind::Blaze,
            SystemKind::BlazeSerTier,
            SystemKind::BlazeNoProfile,
            SystemKind::AutoCache,
            SystemKind::CostAware,
            SystemKind::LrcMemOnly,
            SystemKind::MrdMemOnly,
            SystemKind::BlazeMemOnly,
            SystemKind::Fifo,
            SystemKind::Lfu,
            SystemKind::Lfuda,
            SystemKind::TinyLfu,
            SystemKind::LeCaR,
            SystemKind::GdWheel,
        ]
    }

    /// The systems of the paper's headline comparison (Fig. 9/10), in order.
    pub fn headline() -> [SystemKind; 6] {
        [
            SystemKind::SparkMemOnly,
            SystemKind::SparkMemDisk,
            SystemKind::SparkAlluxio,
            SystemKind::Lrc,
            SystemKind::Mrd,
            SystemKind::Blaze,
        ]
    }

    /// The memory-only systems of Fig. 12, in order.
    pub fn mem_only() -> [SystemKind; 4] {
        [
            SystemKind::SparkMemOnly,
            SystemKind::LrcMemOnly,
            SystemKind::MrdMemOnly,
            SystemKind::BlazeMemOnly,
        ]
    }

    /// The ablation ladder of Fig. 11, in order.
    pub fn ablation() -> [SystemKind; 4] {
        [SystemKind::SparkMemDisk, SystemKind::AutoCache, SystemKind::CostAware, SystemKind::Blaze]
    }

    /// True if the system needs a dependency-extraction run.
    pub fn needs_profile(&self) -> bool {
        matches!(
            self,
            SystemKind::Blaze
                | SystemKind::BlazeSerTier
                | SystemKind::AutoCache
                | SystemKind::CostAware
                | SystemKind::BlazeMemOnly
        )
    }

    /// Builds the controller (a fresh instance per run).
    pub fn make_controller(&self, profile: Option<ProfileResult>) -> Box<dyn CacheController> {
        match self {
            SystemKind::SparkMemOnly => Box::new(LruController::new(EvictMode::MemOnly)),
            SystemKind::SparkMemDisk => Box::new(LruController::new(EvictMode::MemDisk)),
            SystemKind::SparkAlluxio => Box::new(AlluxioController::new()),
            SystemKind::Lrc => Box::new(LrcController::new(EvictMode::MemDisk)),
            SystemKind::Mrd => Box::new(MrdController::new(EvictMode::MemDisk)),
            SystemKind::Blaze => Box::new(BlazeController::new(BlazeConfig::full(), profile)),
            SystemKind::BlazeSerTier => {
                Box::new(BlazeController::new(BlazeConfig::full_ser_tier(), profile))
            }
            SystemKind::BlazeNoProfile => Box::new(BlazeController::new(BlazeConfig::full(), None)),
            SystemKind::AutoCache => {
                Box::new(BlazeController::new(BlazeConfig::auto_cache_only(), profile))
            }
            SystemKind::CostAware => {
                Box::new(BlazeController::new(BlazeConfig::cost_aware(), profile))
            }
            SystemKind::LrcMemOnly => Box::new(LrcController::new(EvictMode::MemOnly)),
            SystemKind::MrdMemOnly => Box::new(MrdController::new(EvictMode::MemOnly)),
            SystemKind::BlazeMemOnly => {
                Box::new(BlazeController::new(BlazeConfig::full_mem_only(), profile))
            }
            SystemKind::Fifo => Box::new(FifoController::new(EvictMode::MemDisk)),
            SystemKind::Lfu => Box::new(LfuController::new(EvictMode::MemDisk)),
            SystemKind::Lfuda => Box::new(LfuController::with_dynamic_aging(EvictMode::MemDisk)),
            SystemKind::TinyLfu => Box::new(TinyLfuController::new(EvictMode::MemDisk)),
            SystemKind::LeCaR => Box::new(LeCaRController::new(EvictMode::MemDisk)),
            SystemKind::GdWheel => {
                Box::new(blaze_policies::GdWheelController::new(EvictMode::MemDisk))
            }
        }
    }

    /// Display label used in figures.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::SparkMemOnly => "Spark (MEM)",
            SystemKind::SparkMemDisk => "Spark (MEM+DISK)",
            SystemKind::SparkAlluxio => "Spark+Alluxio",
            SystemKind::Lrc => "LRC",
            SystemKind::Mrd => "MRD",
            SystemKind::Blaze => "Blaze",
            SystemKind::BlazeSerTier => "Blaze (SER)",
            SystemKind::BlazeNoProfile => "Blaze w/o Profiling",
            SystemKind::AutoCache => "+AutoCache",
            SystemKind::CostAware => "+CostAware",
            SystemKind::LrcMemOnly => "LRC (MEM)",
            SystemKind::MrdMemOnly => "MRD (MEM)",
            SystemKind::BlazeMemOnly => "Blaze (MEM)",
            SystemKind::Fifo => "FIFO",
            SystemKind::Lfu => "LFU",
            SystemKind::Lfuda => "LFUDA",
            SystemKind::TinyLfu => "TinyLFU",
            SystemKind::LeCaR => "LeCaR",
            SystemKind::GdWheel => "GDWheel",
        }
    }

    /// The command-line names of the system, canonical first: the canonical
    /// name is what tools print and put into file names, the rest are
    /// accepted aliases. The one table every binary parses systems with.
    pub fn names(&self) -> &'static [&'static str] {
        match self {
            SystemKind::SparkMemOnly => &["spark_mem_only", "mem"],
            SystemKind::SparkMemDisk => &["spark_mem_disk", "memdisk"],
            SystemKind::SparkAlluxio => &["alluxio"],
            SystemKind::Lrc => &["lrc"],
            SystemKind::Mrd => &["mrd"],
            SystemKind::Blaze => &["blaze"],
            SystemKind::BlazeSerTier => &["blaze_ser_tier"],
            SystemKind::BlazeNoProfile => &["blaze_no_profile"],
            SystemKind::AutoCache => &["autocache"],
            SystemKind::CostAware => &["costaware"],
            SystemKind::LrcMemOnly => &["lrc_mem_only"],
            SystemKind::MrdMemOnly => &["mrd_mem_only"],
            SystemKind::BlazeMemOnly => &["blaze_mem_only"],
            SystemKind::Fifo => &["fifo"],
            SystemKind::Lfu => &["lfu"],
            SystemKind::Lfuda => &["lfuda"],
            SystemKind::TinyLfu => &["tinylfu"],
            SystemKind::LeCaR => &["lecar"],
            SystemKind::GdWheel => &["gdwheel"],
        }
    }

    /// The canonical command-line name (the first of [`SystemKind::names`]).
    pub fn key(&self) -> &'static str {
        self.names()[0]
    }

    /// The system one of [`SystemKind::names`] denotes (ASCII
    /// case-insensitive), if any.
    pub fn from_name(name: &str) -> Option<SystemKind> {
        Self::all().into_iter().find(|k| k.names().iter().any(|n| n.eq_ignore_ascii_case(name)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_factory_builds_every_system() {
        for kind in SystemKind::all() {
            let c = kind.make_controller(None);
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn every_cli_name_parses_back_to_its_system() {
        let mut seen = std::collections::BTreeSet::new();
        for kind in SystemKind::all() {
            for &name in kind.names() {
                assert!(seen.insert(name), "{name} names two systems");
                assert_eq!(SystemKind::from_name(name), Some(kind));
                assert_eq!(SystemKind::from_name(&name.to_ascii_uppercase()), Some(kind));
            }
        }
        for app in crate::App::all() {
            for &name in app.names() {
                assert!(seen.insert(name), "{name} names an app and a system or two apps");
                assert_eq!(crate::App::from_name(name), Some(app));
            }
        }
        assert_eq!(SystemKind::from_name("nope"), None);
        assert_eq!(crate::App::from_name("nope"), None);
    }

    #[test]
    fn headline_matches_fig9_order() {
        let labels: Vec<&str> = SystemKind::headline().iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec!["Spark (MEM)", "Spark (MEM+DISK)", "Spark+Alluxio", "LRC", "MRD", "Blaze"]
        );
    }

    #[test]
    fn profile_requirements() {
        assert!(SystemKind::Blaze.needs_profile());
        assert!(!SystemKind::BlazeNoProfile.needs_profile());
        assert!(!SystemKind::SparkMemOnly.needs_profile());
    }
}
