//! Recycled `Rc` handles.
//!
//! Two sites hand out `Rc`-shared values at a steady rate, and everyone
//! else drops each one a while later: a log's AppendEntries list buffers,
//! once the last message carrying one is delivered, and C-Raft's
//! global-state entries, once every log and stable state holding one has
//! compacted past it. A [`Recycler`] keeps a handle to each value it hands
//! out and hands the oldest one out again once nobody else holds it.
//!
//! The soundness rule is the `Rc`'s own: a kept value is reused only while
//! [`Rc::get_mut`] proves the recycler's handle is the only one, so a value
//! any log, stable state, message or list still holds is never written.
//!
//! The rule is oldest first and O(1) per take: a take looks at the oldest
//! kept handle only, and makes a new value when that one is still shared.
//! The values are dropped in roughly the order they were handed out, so the
//! oldest is the first to come free. The caller bounds how many handles are
//! kept by a quantity it already has; past the bound the oldest handle is
//! forgotten, so a value held for good (a message parked by a partition, a
//! crashed site's stable state) stops blocking the queue after that many
//! takes.

use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

/// A queue of handles to values it handed out, reused oldest first once
/// unique. See the module docs.
pub struct Recycler<T> {
    kept: VecDeque<Rc<T>>,
}

impl<T> Default for Recycler<T> {
    /// An empty recycler; it allocates nothing until it keeps a handle.
    fn default() -> Self {
        Recycler {
            kept: VecDeque::new(),
        }
    }
}

impl<T> fmt::Debug for Recycler<T> {
    /// The number of kept handles.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Recycler({} kept)", self.kept.len())
    }
}

impl<T> Recycler<T> {
    /// A handle nobody else holds: the oldest kept one if it is unique,
    /// still holding its old value for the caller to rewrite through
    /// [`Rc::get_mut`], else `make()` in a new one. Pass it to
    /// [`Recycler::keep`] once it is filled.
    pub(crate) fn take(&mut self, make: impl FnOnce() -> T) -> Rc<T> {
        self.reuse().unwrap_or_else(|| Rc::new(make()))
    }

    /// The oldest kept handle, if [`Rc::get_mut`] proves it unique.
    fn reuse(&mut self) -> Option<Rc<T>> {
        Rc::get_mut(self.kept.front_mut()?)?;
        self.kept.pop_front()
    }

    /// Keeps a handle to `handle`'s value for a later take. With `bound`
    /// handles already kept, the oldest is forgotten first; a bound of 0
    /// keeps nothing.
    pub(crate) fn keep(&mut self, handle: &Rc<T>, bound: usize) {
        if bound == 0 {
            return;
        }
        if self.kept.len() >= bound {
            self.kept.pop_front();
        }
        self.kept.push_back(Rc::clone(handle));
    }

    /// `value` in a handle: the oldest kept one rewritten when it is
    /// unique, else a new one; kept under `bound` either way.
    pub fn share(&mut self, value: T, bound: usize) -> Rc<T> {
        let handle = match self.reuse() {
            Some(mut old) => {
                *Rc::get_mut(&mut old).expect("a reused handle is unique") = value;
                old
            }
            None => Rc::new(value),
        };
        self.keep(&handle, bound);
        handle
    }

    /// How many handles are kept.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.kept.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_handle_held_elsewhere_is_never_rewritten() {
        let mut pool = Recycler::default();
        let held = pool.share(vec![1, 2, 3], 8);
        let next = pool.share(vec![4], 8);
        assert!(!Rc::ptr_eq(&held, &next), "a held value gets no successor");
        assert_eq!(*held, [1, 2, 3]);
        // A clone elsewhere keeps it shared too.
        let copy = Rc::clone(&held);
        drop(held);
        drop(next);
        let third = pool.share(vec![5], 8);
        assert!(!Rc::ptr_eq(&copy, &third));
        assert_eq!(*copy, [1, 2, 3]);
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn the_oldest_unique_handle_is_the_one_reused() {
        let mut pool = Recycler::default();
        let (a, b, c) = (pool.share(1, 8), pool.share(2, 8), pool.share(3, 8));
        let (pa, pb) = (Rc::as_ptr(&a), Rc::as_ptr(&b));
        drop((a, b));
        let d = pool.share(4, 8);
        assert_eq!(Rc::as_ptr(&d), pa, "the oldest free handle comes first");
        assert_eq!(*d, 4);
        let e = pool.take(|| 0);
        assert_eq!(Rc::as_ptr(&e), pb);
        assert_eq!(*e, 2, "a taken handle still holds its old value");
        // The oldest kept handle is now `c`, still held: a new one is made.
        pool.keep(&e, 8);
        let f = pool.take(|| 6);
        assert!(!Rc::ptr_eq(&f, &c) && !Rc::ptr_eq(&f, &e));
        assert_eq!(*f, 6);
    }

    #[test]
    fn a_pool_of_shared_handles_stops_growing_at_its_bound() {
        let mut pool = Recycler::default();
        let held: Vec<_> = (0..10).map(|v| pool.share(v, 4)).collect();
        assert_eq!(pool.len(), 4);
        // The oldest were forgotten, the newest four kept.
        assert_eq!(Rc::strong_count(&held[0]), 1);
        assert_eq!(Rc::strong_count(&held[9]), 2);
        assert!(held.iter().enumerate().all(|(v, h)| **h == v));
        let mut none = Recycler::default();
        let _kept = none.share(0, 0);
        assert_eq!(none.len(), 0, "a bound of 0 keeps nothing");
    }
}
