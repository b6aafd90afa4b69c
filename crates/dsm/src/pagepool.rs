//! A shared free-list of page-sized byte boxes.
//!
//! One pool per cluster, shared (via `Arc`) with its [`crate::store::DiffStore`]:
//! every subsystem that materializes a page — frame data, twins, master
//! copies — draws from the same free-list and returns to it, so a
//! recycled cluster's steady state moves boxes in a closed loop instead
//! of allocating on one side and pooling on the other. (A master-copy
//! fetch needs no box of its own: the store lends the master in place
//! and the fetcher copies it into its frame.)

use parking_lot::Mutex;

/// See module docs.
#[derive(Debug)]
pub(crate) struct PagePool {
    page_size: usize,
    free: Mutex<Vec<Box<[u8]>>>,
}

impl PagePool {
    pub fn new(page_size: usize) -> Self {
        PagePool {
            page_size,
            free: Mutex::new(Vec::new()),
        }
    }

    /// A zero-filled page box, pooled if one is free.
    pub fn take_zeroed(&self) -> Box<[u8]> {
        match self.free.lock().pop() {
            Some(mut b) => {
                b.fill(0);
                b
            }
            None => vec![0u8; self.page_size].into_boxed_slice(),
        }
    }

    /// A copy of `src` (which must be page-sized), pooled if one is free.
    pub fn take_copy(&self, src: &[u8]) -> Box<[u8]> {
        debug_assert_eq!(src.len(), self.page_size);
        match self.free.lock().pop() {
            Some(mut b) => {
                b.copy_from_slice(src);
                b
            }
            None => src.to_vec().into_boxed_slice(),
        }
    }

    /// Return a box to the pool. Wrong-sized boxes (a cluster rebuilt
    /// with another page size) are dropped instead.
    pub fn give(&self, b: Box<[u8]>) {
        if b.len() == self.page_size {
            self.free.lock().push(b);
        }
    }

    /// Return many boxes at once.
    pub fn give_all(&self, boxes: impl IntoIterator<Item = Box<[u8]>>) {
        let mut free = self.free.lock();
        free.extend(boxes.into_iter().filter(|b| b.len() == self.page_size));
    }

    /// Free everything beyond `cap` boxes — a backstop so a transient
    /// high-water mark (one unusually paging-heavy job) does not pin
    /// its peak footprint forever.
    pub fn trim(&self, cap: usize) {
        let mut free = self.free.lock();
        if free.len() > cap {
            free.truncate(cap);
            free.shrink_to_fit();
        }
    }

    /// Boxes currently pooled.
    pub fn len(&self) -> usize {
        self.free.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxes_cycle_and_wrong_sizes_drop() {
        let p = PagePool::new(64);
        let a = p.take_zeroed();
        assert_eq!(a.len(), 64);
        assert!(a.iter().all(|&b| b == 0));
        p.give(a);
        assert_eq!(p.len(), 1);
        let src = [7u8; 64];
        let b = p.take_copy(&src);
        assert_eq!(p.len(), 0, "copy must reuse the pooled box");
        assert_eq!(&b[..], &src[..]);
        p.give(vec![0u8; 32].into_boxed_slice());
        assert_eq!(p.len(), 0, "wrong-sized box must be dropped");
        p.give_all([b, vec![0u8; 16].into_boxed_slice()]);
        assert_eq!(p.len(), 1);
        p.trim(0);
        assert_eq!(p.len(), 0);
    }
}
