//! Deterministic structural fingerprints.
//!
//! Memoization layers (the profiler's step cache, the engine's
//! graph-analysis memo, the sweep-cell dedup and the serve result store in
//! `pim-sim`) key on the *content* of a value, not its address. A type
//! states that content by implementing [`Fingerprint`]: it feeds exactly
//! the fields that decide its behaviour to a [`Hasher`], floats through
//! `f64::to_bits`. Types without floats derive [`Hash`] instead. Adding a
//! field to a fingerprinted type is a compile error in its implementation
//! (they destructure `self`), so a new field can never silently merge two
//! cache cells.
//!
//! [`of`] and [`of_hash`] finish a [`DefaultHasher`], whose keys are
//! fixed, so a fingerprint is stable within and across processes of one
//! build.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A value with an explicit structural identity.
///
/// # Examples
///
/// ```
/// use pim_common::fingerprint::{self, Fingerprint};
/// use std::hash::{Hash, Hasher};
///
/// struct Rate {
///     name: &'static str,
///     per_second: f64,
/// }
///
/// impl Fingerprint for Rate {
///     fn fingerprint<H: Hasher>(&self, state: &mut H) {
///         let Rate { name, per_second } = self;
///         name.hash(state);
///         per_second.fingerprint(state);
///     }
/// }
///
/// let a = Rate { name: "a", per_second: 1.5 };
/// let b = Rate { name: "a", per_second: 2.5 };
/// assert_eq!(fingerprint::of(&a), fingerprint::of(&Rate { name: "a", per_second: 1.5 }));
/// assert_ne!(fingerprint::of(&a), fingerprint::of(&b));
/// ```
pub trait Fingerprint {
    /// Feeds every field that determines the value's behaviour to `state`.
    fn fingerprint<H: Hasher>(&self, state: &mut H);
}

impl Fingerprint for f64 {
    fn fingerprint<H: Hasher>(&self, state: &mut H) {
        self.to_bits().hash(state);
    }
}

impl<T: Fingerprint> Fingerprint for [T] {
    fn fingerprint<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for item in self {
            item.fingerprint(state);
        }
    }
}

/// The 64-bit fingerprint of a [`Fingerprint`] value.
pub fn of<T: Fingerprint + ?Sized>(value: &T) -> u64 {
    let mut state = DefaultHasher::new();
    value.fingerprint(&mut state);
    state.finish()
}

/// The 64-bit fingerprint of a float-free value through its [`Hash`]
/// impl, under the same fixed keys as [`of`].
///
/// # Examples
///
/// ```
/// use pim_common::fingerprint::of_hash;
/// assert_eq!(of_hash(&(1, "a")), of_hash(&(1, "a")));
/// assert_ne!(of_hash(&(1, "a")), of_hash(&(2, "a")));
/// ```
pub fn of_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut state = DefaultHasher::new();
    value.hash(&mut state);
    state.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_values_fingerprint_identically() {
        let a = vec![1.5f64, 2.25];
        let b = a.clone();
        assert_eq!(of(a.as_slice()), of(b.as_slice()));
        assert_eq!(of_hash("Conv2D"), of_hash("Conv2D"));
    }

    #[test]
    fn distinct_values_fingerprint_distinctly() {
        assert_ne!(of(&1.0f64), of(&2.0f64));
        assert_ne!(of(&0.0f64), of(&-0.0f64));
        assert_ne!(of_hash("x"), of_hash("y"));
        // The length prefix keeps element boundaries apart.
        assert_ne!(of([1.0f64].as_slice()), of([1.0f64, 0.0].as_slice()));
    }
}
