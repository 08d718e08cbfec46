//! Type-erased materialized partitions.
//!
//! The lineage plan is type-erased (operators of arbitrary element types live
//! in one graph), so materialized partition data crosses the plan boundary as
//! [`Block`]s: cheaply clonable, immutable, `Any`-erased vectors that carry
//! their own element count and estimated byte size. Typed [`Dataset`]
//! operators downcast blocks back at the edges; a failed downcast is a
//! [`BlazeError::TypeMismatch`] rather than a panic.
//!
//! [`Dataset`]: crate::dataset::Dataset

use blaze_common::error::{BlazeError, Result};
use blaze_common::sizeof::SizeOf;
use blaze_common::ByteSize;
use std::any::{Any, TypeId};
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
    /// diagnosis.
    pub fn as_slice<T: Data>(&self, context: &str) -> Result<&[T]> {
        match &self.payload {
            Payload::Empty(elem) => (elem() == TypeId::of::<T>()).then_some(&[][..]),
            Payload::Full(items) => items.downcast_ref::<Vec<T>>().map(Vec::as_slice),
        }
        .ok_or_else(|| BlazeError::TypeMismatch { context: context.to_string() })
    }

    /// Returns a copy of the typed elements.
    pub fn to_vec<T: Data>(&self, context: &str) -> Result<Vec<T>> {
        Ok(self.as_slice::<T>(context)?.to_vec())
    }
}

impl std::fmt::Debug for Block {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Block").field("len", &self.len).field("bytes", &self.bytes).finish()
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
    fn block_is_four_words() {
        // Set-up paths memoize tens of thousands of tiny blocks; the empty
        // arm must live in the `Arc`'s niche, not beside it.
        assert_eq!(std::mem::size_of::<Block>(), 32);
    }
}
