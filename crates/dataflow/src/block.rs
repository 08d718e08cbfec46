//! Type-erased materialized partitions.
//!
//! The lineage plan is type-erased (operators of arbitrary element types live
//! in one graph), so materialized partition data crosses the plan boundary as
//! [`Block`]s: cheaply clonable, immutable, `Any`-erased vectors that carry
//! their own element count and estimated byte size. Typed [`Dataset`]
//! operators downcast blocks back at the edges; a failed downcast is a
//! [`BlazeError::TypeMismatch`] rather than a panic.
//!
//! A map task's shuffle output crosses the same boundary as [`Buckets`]:
//! only the buckets that hold records, each tagged with its reducer.
//!
//! [`Dataset`]: crate::dataset::Dataset

use blaze_common::error::{BlazeError, Result};
use blaze_common::sizeof::SizeOf;
use blaze_common::ByteSize;
use std::any::{Any, TypeId};
use std::fmt::Display;
use std::sync::Arc;

/// Bound for element types storable in datasets.
///
/// Everything materialized by the engine must be shareable across (simulated)
/// tasks, clonable for recomputation, and size-estimable for the memory
/// store. The blanket implementation makes any suitable type a `Data`.
pub trait Data: Clone + Send + Sync + SizeOf + 'static {}

impl<T: Clone + Send + Sync + SizeOf + 'static> Data for T {}

/// One materialized partition: an immutable, type-erased vector of elements.
///
/// Cloning a block is at most an `Arc` bump; blocks are never mutated after
/// construction (partitions are immutable in the RDD model).
#[derive(Clone)]
pub struct Block {
    payload: Payload,
    len: usize,
    bytes: ByteSize,
}

/// What a block holds. Most shuffle buckets of a wide shuffle are empty, so
/// an empty block allocates nothing: it remembers only its element type,
/// which keeps a wrong-type read an error. The function pointer fits in the
/// `Arc`'s niche, so `Block` stays 32 bytes — drivers memoize tens of
/// thousands of tiny blocks and a wider `Block` is measurable there.
#[derive(Clone)]
enum Payload {
    Empty(fn() -> TypeId),
    Full(Arc<dyn Any + Send + Sync>),
}

impl Block {
    /// Materializes a block from a vector of elements, estimating its size.
    pub fn from_vec<T: Data>(items: Vec<T>) -> Self {
        if items.is_empty() {
            return Self {
                payload: Payload::Empty(TypeId::of::<T>),
                len: 0,
                bytes: ByteSize::ZERO,
            };
        }
        let bytes = blaze_common::sizeof::slice_size(&items);
        Self { len: items.len(), bytes, payload: Payload::Full(Arc::new(items)) }
    }

    /// An empty block of type `T`.
    pub fn empty<T: Data>() -> Self {
        Self::from_vec(Vec::<T>::new())
    }

    /// Returns the number of elements in the partition.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true if the partition holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the estimated in-memory footprint of the partition.
    pub fn bytes(&self) -> ByteSize {
        self.bytes
    }

    /// Borrows the elements as a typed slice.
    ///
    /// Fails with [`BlazeError::TypeMismatch`] if the block does not hold
    /// elements of type `T`; `context` is included in the error for
    /// diagnosis. It is formatted only then, so an operator passes
    /// `format_args!` and a successful read allocates nothing.
    pub fn as_slice<T: Data>(&self, context: impl Display) -> Result<&[T]> {
        match &self.payload {
            Payload::Empty(elem) => (elem() == TypeId::of::<T>()).then_some(&[][..]),
            Payload::Full(items) => items.downcast_ref::<Vec<T>>().map(Vec::as_slice),
        }
        .ok_or_else(|| BlazeError::TypeMismatch { context: context.to_string() })
    }

    /// Returns a copy of the typed elements.
    pub fn to_vec<T: Data>(&self, context: impl Display) -> Result<Vec<T>> {
        Ok(self.as_slice::<T>(context)?.to_vec())
    }
}

impl std::fmt::Debug for Block {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Block").field("len", &self.len).field("bytes", &self.bytes).finish()
    }
}

/// One map task's shuffle output: the buckets that hold records, each tagged
/// with the reduce partition it is addressed to, in ascending reducer order.
///
/// A bucket that is absent holds no records. A wide shuffle over small map
/// tasks leaves most of its buckets empty (`km_tiny_tasks`: 123 of every
/// 128), so a reduce task gathers only what exists, and no layer holds one
/// block per (map, reducer) pair. Cloning is one `Arc` bump: a map task, its
/// commit event and the shuffle store share one list.
#[derive(Clone, Debug)]
pub struct Buckets(Arc<[(usize, Block)]>);

impl Buckets {
    /// The output of a map task for a shuffle into `n` reduce partitions,
    /// from `(reducer, bucket)` pairs. An empty bucket given here is kept
    /// and reads like an absent one; `write_buckets` gives none.
    ///
    /// Fails with [`BlazeError::Execution`] if a reducer is `>= n` or the
    /// reducers are not strictly ascending.
    pub fn new(n: usize, buckets: impl IntoIterator<Item = (usize, Block)>) -> Result<Self> {
        // Checked while collecting, so an exact-size input is copied once.
        let (mut next, mut bad) = (0, None);
        let list = buckets
            .into_iter()
            .map(|(r, bucket)| {
                if bad.is_none() && (r < next || r >= n) {
                    bad = Some((r, next));
                }
                next = r.saturating_add(1);
                (r, bucket)
            })
            .collect();
        match bad {
            None => Ok(Self(list)),
            Some((r, _)) if r >= n => Err(BlazeError::Execution(format!(
                "map-side output addresses reducer {r} of a shuffle into {n} partitions"
            ))),
            Some((r, next)) => Err(BlazeError::Execution(format!(
                "map-side output addresses reducer {r} after reducer {}; buckets must be in \
                 ascending reducer order",
                next - 1
            ))),
        }
    }

    /// The bucket addressed to `reducer`, if it holds records.
    pub fn get(&self, reducer: usize) -> Option<&Block> {
        let i = self.0.binary_search_by_key(&reducer, |&(r, _)| r).ok()?;
        Some(&self.0[i].1)
    }

    /// The buckets held, with their reducers, in ascending reducer order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Block)> {
        self.0.iter().map(|(r, b)| (*r, b))
    }

    /// Estimated size of every bucket together.
    pub fn bytes(&self) -> ByteSize {
        self.0.iter().map(|(_, b)| b.bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_typed_data() {
        let b = Block::from_vec(vec![1u64, 2, 3]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.as_slice::<u64>("t").unwrap(), &[1, 2, 3]);
        assert_eq!(b.to_vec::<u64>("t").unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn wrong_type_is_an_error_not_a_panic() {
        let b = Block::from_vec(vec![1u64, 2, 3]);
        let err = b.as_slice::<String>("rdd-7[2]").unwrap_err();
        assert_eq!(err, BlazeError::TypeMismatch { context: "rdd-7[2]".into() });
    }

    #[test]
    fn size_estimate_tracks_contents() {
        let small = Block::from_vec(vec![0u8; 100]);
        let large = Block::from_vec(vec![0u64; 100]);
        assert_eq!(small.bytes(), ByteSize::from_bytes(100));
        assert_eq!(large.bytes(), ByteSize::from_bytes(800));
    }

    #[test]
    fn clones_share_payload() {
        let b = Block::from_vec(vec![String::from("x")]);
        let c = b.clone();
        assert_eq!(c.len(), b.len());
        assert_eq!(c.bytes(), b.bytes());
    }

    #[test]
    fn empty_block_keeps_its_element_type_without_a_payload() {
        // A drained vector still owns capacity; the block must not keep it.
        let mut drained = vec![1u32, 2, 3];
        drained.clear();
        for b in [Block::empty::<u32>(), Block::from_vec(drained)] {
            assert!(matches!(b.payload, Payload::Empty(_)));
            assert!(b.is_empty());
            assert_eq!(b.len(), 0);
            assert_eq!(b.bytes(), ByteSize::ZERO);
            assert_eq!(b.as_slice::<u32>("t").unwrap(), &[] as &[u32]);
            assert_eq!(b.to_vec::<u32>("t").unwrap(), Vec::<u32>::new());
            let err = b.as_slice::<u64>("rdd-3[0]").unwrap_err();
            assert_eq!(err, BlazeError::TypeMismatch { context: "rdd-3[0]".into() });
        }
    }

    #[test]
    fn buckets_hold_the_listed_reducers_and_reject_a_bad_index() {
        let b = |r: usize| (r, Block::from_vec(vec![r as u64]));
        let list = Buckets::new(8, [b(1), b(4), b(7)]).unwrap();
        assert_eq!(list.iter().map(|(r, _)| r).collect::<Vec<_>>(), [1, 4, 7]);
        assert_eq!(list.get(4).unwrap().as_slice::<u64>("t").unwrap(), &[4]);
        assert!([0, 5, 8, usize::MAX].iter().all(|&r| list.get(r).is_none()));
        assert_eq!(list.bytes(), ByteSize::from_bytes(24));
        assert_eq!(Buckets::new(3, []).unwrap().iter().count(), 0);

        let err = |n: usize, list: Vec<(usize, Block)>| Buckets::new(n, list).unwrap_err();
        let past = |r: usize, n: usize| {
            BlazeError::Execution(format!(
                "map-side output addresses reducer {r} of a shuffle into {n} partitions"
            ))
        };
        assert_eq!(err(8, vec![b(1), b(8)]), past(8, 8));
        assert_eq!(err(0, vec![b(0)]), past(0, 0));
        assert_eq!(err(8, vec![b(usize::MAX), b(2)]), past(usize::MAX, 8));
        let order = |r: usize, prev: usize| {
            BlazeError::Execution(format!(
                "map-side output addresses reducer {r} after reducer {prev}; buckets must be in \
                 ascending reducer order"
            ))
        };
        assert_eq!(err(8, vec![b(4), b(2)]), order(2, 4));
        assert_eq!(err(8, vec![b(3), b(3)]), order(3, 3));
        // The first bad index is the one reported.
        assert_eq!(err(8, vec![b(5), b(1), b(9)]), order(1, 5));
    }

    #[test]
    fn block_is_four_words() {
        // Set-up paths memoize tens of thousands of tiny blocks; the empty
        // arm must live in the `Arc`'s niche, not beside it.
        assert_eq!(std::mem::size_of::<Block>(), 32);
    }
}
