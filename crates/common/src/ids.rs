//! Strongly typed identifiers for the entities of the dataflow model.
//!
//! Using newtypes instead of bare integers prevents the classic bug class of
//! passing an RDD id where a job id is expected, and gives every id a
//! uniform, greppable `Display` form (`rdd-12`, `job-3`, ...), mirroring the
//! `Rx`/`Sx`/`Jobx` labels the paper uses in its lineage figures.

use std::fmt;

macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw numeric value of this identifier.
            pub fn raw(self) -> u32 {
                self.0
            }

            /// Returns the identifier following this one.
            pub fn next(self) -> Self {
                Self(self.0 + 1)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "-{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                Self(v)
            }
        }
    };
}

define_id!(
    /// Identifier of a logical dataset (RDD) in the lineage plan.
    RddId,
    "rdd"
);
define_id!(
    /// Identifier of a job (one action trigger; one iteration in iterative workloads).
    JobId,
    "job"
);
define_id!(
    /// Identifier of an executor in the simulated cluster.
    ExecutorId,
    "exec"
);

/// Identifier of one materialized data partition: an (RDD, partition index) pair.
///
/// This is the granularity at which Blaze makes caching decisions (paper §3.1
/// argues dataset-granularity caching is too coarse).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId {
    /// The logical dataset this partition belongs to.
    pub rdd: RddId,
    /// The partition index within the dataset.
    pub partition: u32,
}

impl BlockId {
    /// Creates a block id from an RDD id and a partition index.
    pub fn new(rdd: RddId, partition: u32) -> Self {
        Self { rdd, partition }
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.rdd, self.partition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn display_forms_are_stable() {
        assert_eq!(RddId(12).to_string(), "rdd-12");
        assert_eq!(JobId(3).to_string(), "job-3");
        assert_eq!(ExecutorId(1).to_string(), "exec-1");
        assert_eq!(BlockId::new(RddId(5), 2).to_string(), "rdd-5[2]");
    }

    #[test]
    fn next_increments() {
        assert_eq!(RddId(0).next(), RddId(1));
        assert_eq!(JobId(41).next().raw(), 42);
    }

    #[test]
    fn block_ids_hash_and_order() {
        let a = BlockId::new(RddId(1), 0);
        let b = BlockId::new(RddId(1), 1);
        let c = BlockId::new(RddId(2), 0);
        assert!(a < b && b < c);
        let set: HashSet<_> = [a, b, c, a].into_iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn from_u32_round_trips() {
        let id: RddId = 9u32.into();
        assert_eq!(id.raw(), 9);
    }
}
