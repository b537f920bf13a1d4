//! Access-stream abstraction connecting workload generators to the
//! simulator.

use std::sync::Arc;

use crate::access::Access;

/// A lazily generated, per-GPU sequence of memory accesses.
///
/// Implementors are the workload generators in `grit-workloads`; the system
/// runner pulls one access at a time so multi-hundred-million-access traces
/// never need to be materialized.
pub trait AccessStream {
    /// Produces the next access, or `None` when the GPU's work is done.
    fn next_access(&mut self) -> Option<Access>;

    /// Optional estimate of the total accesses this stream will produce
    /// (used only for progress reporting; `None` if unknown).
    fn len_hint(&self) -> Option<u64> {
        None
    }
}

/// Blanket impl so `Box<dyn AccessStream>` is itself a stream.
impl<S: AccessStream + ?Sized> AccessStream for Box<S> {
    fn next_access(&mut self) -> Option<Access> {
        (**self).next_access()
    }

    fn len_hint(&self) -> Option<u64> {
        (**self).len_hint()
    }
}

/// A stream backed by a pre-materialized, immutably shared trace.
///
/// The trace lives behind an `Arc<[Access]>`, so cloning a stream (or
/// re-running the same workload under a different policy) shares the
/// underlying accesses instead of copying them: the stream itself is just a
/// shared trace plus a private cursor.
///
/// ```
/// use grit_sim::{Access, AccessStream, PageId, SliceStream};
/// let mut s = SliceStream::new(vec![Access::read(PageId(1), 0)]);
/// assert!(s.next_access().is_some());
/// assert!(s.next_access().is_none());
/// ```
#[derive(Clone, Debug)]
pub struct SliceStream {
    trace: Arc<[Access]>,
    pos: usize,
}

impl Default for SliceStream {
    fn default() -> Self {
        SliceStream {
            trace: Arc::from(Vec::new()),
            pos: 0,
        }
    }
}

impl SliceStream {
    /// Wraps a vector of accesses.
    pub fn new(accesses: Vec<Access>) -> Self {
        SliceStream {
            trace: accesses.into(),
            pos: 0,
        }
    }

    /// Wraps an already-shared trace without copying it.
    pub fn from_shared(trace: Arc<[Access]>) -> Self {
        SliceStream { trace, pos: 0 }
    }

    /// The shared trace backing this stream.
    pub fn shared(&self) -> Arc<[Access]> {
        Arc::clone(&self.trace)
    }

    /// A fresh stream over the same shared trace, rewound to the start.
    pub fn reset_clone(&self) -> Self {
        SliceStream {
            trace: Arc::clone(&self.trace),
            pos: 0,
        }
    }

    /// Accesses remaining.
    pub fn remaining(&self) -> usize {
        self.trace.len() - self.pos
    }
}

impl AccessStream for SliceStream {
    fn next_access(&mut self) -> Option<Access> {
        let a = self.trace.get(self.pos).copied();
        if a.is_some() {
            self.pos += 1;
        }
        a
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.trace.len() as u64)
    }
}

impl FromIterator<Access> for SliceStream {
    fn from_iter<T: IntoIterator<Item = Access>>(iter: T) -> Self {
        SliceStream::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PageId;

    #[test]
    fn slice_stream_yields_in_order_then_none() {
        let acc = vec![Access::read(PageId(1), 0), Access::write(PageId(2), 1)];
        let mut s = SliceStream::new(acc.clone());
        assert_eq!(s.len_hint(), Some(2));
        assert_eq!(s.next_access(), Some(acc[0]));
        assert_eq!(s.remaining(), 1);
        assert_eq!(s.next_access(), Some(acc[1]));
        assert_eq!(s.next_access(), None);
        assert_eq!(s.next_access(), None);
    }

    #[test]
    fn boxed_stream_is_a_stream() {
        let mut s: Box<dyn AccessStream> =
            Box::new(SliceStream::new(vec![Access::read(PageId(9), 5)]));
        assert_eq!(s.len_hint(), Some(1));
        assert!(s.next_access().is_some());
        assert!(s.next_access().is_none());
    }

    #[test]
    fn from_iterator_collects() {
        let s: SliceStream = (0..5).map(|i| Access::read(PageId(i), 0)).collect();
        assert_eq!(s.remaining(), 5);
    }

    #[test]
    fn clones_share_one_trace_with_private_cursors() {
        let mut a: SliceStream = (0..3).map(|i| Access::read(PageId(i), 0)).collect();
        let shared = a.shared();
        a.next_access();
        let mut b = SliceStream::from_shared(shared);
        assert!(Arc::ptr_eq(&a.trace, &b.trace));
        assert_eq!(a.remaining(), 2);
        assert_eq!(b.remaining(), 3);
        assert_eq!(b.next_access(), Some(Access::read(PageId(0), 0)));
        let c = a.reset_clone();
        assert!(Arc::ptr_eq(&a.trace, &c.trace));
        assert_eq!(c.remaining(), 3);
    }
}
