//! Deep memory-size accounting — EnviroMeter's Pympler equivalent.
//!
//! The paper's Figure 7(a) compares "the memory required to store" each
//! queryable representation (raw points, R-tree, VP-tree, model cover),
//! "accurately measured using the Pympler library". This crate provides the
//! same capability for Rust values: [`DeepSize`] reports the total bytes a
//! value keeps alive — its inline size plus every byte of heap memory owned
//! by it, transitively, including allocation capacity (a `Vec` with spare
//! capacity holds that memory whether or not it is used, exactly like a
//! Python list's over-allocation).
//!
//! Every crate that defines a measurable structure implements [`DeepSize`]
//! for it; the Figure 7(a) harness simply calls
//! [`DeepSize::deep_size_of`] on the four representations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

/// Total bytes kept alive by a value: inline size + owned heap, transitive.
pub trait DeepSize {
    /// Bytes of heap memory owned by this value (excluding its own inline
    /// representation). Implementations recurse into children.
    fn heap_size(&self) -> usize;

    /// Total footprint: the value's inline size plus [`DeepSize::heap_size`].
    fn deep_size_of(&self) -> usize
    where
        Self: Sized,
    {
        std::mem::size_of::<Self>() + self.heap_size()
    }
}

macro_rules! impl_flat {
    ($($t:ty),* $(,)?) => {
        $(impl DeepSize for $t {
            #[inline]
            fn heap_size(&self) -> usize { 0 }
        })*
    };
}

impl_flat!(
    u8,
    u16,
    u32,
    u64,
    u128,
    usize,
    i8,
    i16,
    i32,
    i64,
    i128,
    isize,
    f32,
    f64,
    bool,
    char,
    ()
);

impl<T: DeepSize> DeepSize for Vec<T> {
    fn heap_size(&self) -> usize {
        // The backing buffer covers the full capacity; occupied slots add
        // their transitive heap, spare capacity is raw bytes.
        self.capacity() * std::mem::size_of::<T>()
            + self.iter().map(DeepSize::heap_size).sum::<usize>()
    }
}

impl<T: DeepSize> DeepSize for Box<T> {
    fn heap_size(&self) -> usize {
        std::mem::size_of::<T>() + self.as_ref().heap_size()
    }
}

impl<T: DeepSize> DeepSize for Option<T> {
    fn heap_size(&self) -> usize {
        self.as_ref().map_or(0, DeepSize::heap_size)
    }
}

impl<T: DeepSize> DeepSize for [T] {
    fn heap_size(&self) -> usize {
        self.iter().map(DeepSize::heap_size).sum()
    }
}

impl<T: DeepSize, const N: usize> DeepSize for [T; N] {
    fn heap_size(&self) -> usize {
        self.iter().map(DeepSize::heap_size).sum()
    }
}

impl DeepSize for String {
    fn heap_size(&self) -> usize {
        self.capacity()
    }
}

impl DeepSize for &str {
    fn heap_size(&self) -> usize {
        0 // borrowed, not owned
    }
}

impl<A: DeepSize, B: DeepSize> DeepSize for (A, B) {
    fn heap_size(&self) -> usize {
        self.0.heap_size() + self.1.heap_size()
    }
}

impl<A: DeepSize, B: DeepSize, C: DeepSize> DeepSize for (A, B, C) {
    fn heap_size(&self) -> usize {
        self.0.heap_size() + self.1.heap_size() + self.2.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_have_inline_size_only() {
        assert_eq!(42u64.deep_size_of(), 8);
        assert_eq!(1.5f64.deep_size_of(), 8);
        assert_eq!(true.deep_size_of(), 1);
    }

    #[test]
    fn vec_counts_capacity_not_len() {
        let mut v: Vec<u64> = Vec::with_capacity(100);
        v.push(1);
        let expected = std::mem::size_of::<Vec<u64>>() + 100 * 8;
        assert_eq!(v.deep_size_of(), expected);
    }

    #[test]
    fn empty_vec_has_no_heap() {
        let v: Vec<u64> = Vec::new();
        assert_eq!(v.heap_size(), 0);
    }

    #[test]
    fn nested_vec_recurses() {
        let v: Vec<Vec<u8>> = vec![Vec::with_capacity(10), Vec::with_capacity(20)];
        let inline_of_inner = std::mem::size_of::<Vec<u8>>();
        let expected_heap = v.capacity() * inline_of_inner + 10 + 20;
        assert_eq!(v.heap_size(), expected_heap);
    }

    #[test]
    fn boxed_value_counts_pointee() {
        let b = Box::new(7u64);
        assert_eq!(b.deep_size_of(), std::mem::size_of::<Box<u64>>() + 8);
    }

    #[test]
    fn box_of_vec_recurses() {
        let b: Box<Vec<u64>> = Box::new(Vec::with_capacity(4));
        let expected =
            std::mem::size_of::<Box<Vec<u64>>>() + std::mem::size_of::<Vec<u64>>() + 4 * 8;
        assert_eq!(b.deep_size_of(), expected);
    }

    #[test]
    fn option_none_is_free() {
        let none: Option<Box<u64>> = None;
        assert_eq!(none.heap_size(), 0);
        let some: Option<Box<u64>> = Some(Box::new(1));
        assert_eq!(some.heap_size(), 8);
    }

    #[test]
    fn string_counts_capacity() {
        let mut s = String::with_capacity(64);
        s.push('x');
        assert_eq!(s.heap_size(), 64);
    }

    #[test]
    fn tuples_sum_children() {
        let t = (vec![0u8; 8], String::from("hello"));
        assert_eq!(t.heap_size(), 8 + "hello".len());
    }

    #[test]
    fn arrays_sum_children() {
        let a: [Vec<u8>; 2] = [vec![0; 3], vec![0; 5]];
        assert_eq!(a.heap_size(), 8);
    }
}
