//! A recycling arena for packet payload buffers.
//!
//! Every packet on the NoC carries a `Vec<u8>` payload. Busy workloads
//! (line-rate IPv4, 8 Gb/s video) inject tens of packets per simulated
//! microsecond, and allocating a fresh vector per packet — plus one more
//! for every marshalled DSOC message — made the allocator a measurable
//! slice of the busy-path profile. [`PayloadPool`] keeps consumed payload
//! buffers on a free list: the platform returns each packet's buffer when
//! the packet is ejected and consumed, and every producer (service replies,
//! ingress invocations, handler-synthesized messages) draws from the pool
//! instead of the allocator.
//!
//! Recycled buffers are handed out cleared and zero-filled to the requested
//! length, exactly like the `vec![0; n]` they replace, so pooling is
//! invisible to the simulation: payload contents, packet timing and
//! reports are bit-identical with or without it.

/// A free list of payload buffers.
///
/// # Examples
///
/// ```
/// use nw_noc::PayloadPool;
///
/// let mut pool = PayloadPool::new();
/// let buf = pool.take_zeroed(64);
/// assert_eq!(buf, vec![0u8; 64]);
/// pool.put(buf);
/// // The next request reuses the returned buffer's allocation.
/// let again = pool.take_zeroed(16);
/// assert_eq!(again.len(), 16);
/// assert!(again.capacity() >= 64);
/// assert_eq!(pool.recycled(), 1);
/// ```
#[derive(Debug, Default)]
pub struct PayloadPool {
    free: Vec<Vec<u8>>,
    recycled: u64,
    allocated: u64,
    taken: u64,
    returned: u64,
}

/// Snapshot-oriented clone: free-list buffers are all length 0, so a
/// derived clone would shed their allocations and hand the restored
/// platform a pool of zero-capacity buffers — observably different free
/// list behavior, since `put` drops capacity-0 returns. Cloning capacity
/// instead of contents keeps the restored pool's ledger trajectory
/// bit-identical to the original's.
impl Clone for PayloadPool {
    fn clone(&self) -> Self {
        PayloadPool {
            free: self
                .free
                .iter()
                .map(|v| Vec::with_capacity(v.capacity()))
                .collect(),
            recycled: self.recycled,
            allocated: self.allocated,
            taken: self.taken,
            returned: self.returned,
        }
    }
}

impl PayloadPool {
    /// Buffers retained at most; returns beyond this are dropped so a
    /// traffic burst cannot pin an unbounded free list.
    pub const MAX_FREE: usize = 4096;

    /// Creates an empty pool.
    pub fn new() -> Self {
        PayloadPool::default()
    }

    /// Takes an empty buffer (length 0), reusing a recycled allocation when
    /// one is available.
    #[inline]
    pub fn take(&mut self) -> Vec<u8> {
        self.taken += 1;
        match self.free.pop() {
            Some(v) => {
                self.recycled += 1;
                v
            }
            None => {
                self.allocated += 1;
                Vec::new()
            }
        }
    }

    /// Takes a buffer of `len` zero bytes — content-identical to
    /// `vec![0u8; len]`, minus the allocation when a recycled buffer fits.
    #[inline]
    pub fn take_zeroed(&mut self, len: usize) -> Vec<u8> {
        let mut v = self.take();
        v.resize(len, 0);
        v
    }

    /// Grows `data` with zero padding to `len` bytes (a no-op when already
    /// long enough), drawing a pooled buffer instead of allocating when
    /// `data` owns no storage yet. The single home of the "pad a payload
    /// to its declared wire size" policy.
    #[inline]
    pub fn pad_zeroed(&mut self, data: &mut Vec<u8>, len: usize) {
        if data.len() >= len {
            return;
        }
        if data.capacity() == 0 {
            *data = self.take_zeroed(len);
        } else {
            data.resize(len, 0);
        }
    }

    /// Returns a consumed buffer to the free list. The buffer is cleared
    /// here (cheap: `Vec::clear` on `u8` is a length reset) so takes never
    /// see stale bytes. Zero-capacity buffers and overflow beyond
    /// [`PayloadPool::MAX_FREE`] are dropped.
    #[inline]
    pub fn put(&mut self, mut v: Vec<u8>) {
        self.returned += 1;
        if v.capacity() == 0 || self.free.len() >= Self::MAX_FREE {
            return;
        }
        v.clear();
        self.free.push(v);
    }

    /// Buffers handed out from the free list so far.
    pub fn recycled(&self) -> u64 {
        self.recycled
    }

    /// Buffers that had to be allocated fresh.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Buffers currently on the free list.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// Buffers acquired but not yet returned: `taken - returned`.
    ///
    /// A quiesced platform with a finite workload must report zero — every
    /// payload buffer handed out was eventually consumed and recycled. The
    /// count is signed because the pool also accepts buffers it never
    /// handed out (a packet built from a caller-owned `Vec` is still
    /// recycled on consumption), which can push returns past takes.
    pub fn outstanding(&self) -> i64 {
        self.taken as i64 - self.returned as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_zeroed_matches_vec_macro() {
        let mut pool = PayloadPool::new();
        for len in [0usize, 1, 7, 64, 1000] {
            assert_eq!(pool.take_zeroed(len), vec![0u8; len]);
        }
    }

    #[test]
    fn recycled_buffers_are_cleared_and_zeroed() {
        let mut pool = PayloadPool::new();
        pool.put(vec![0xAB; 128]);
        let v = pool.take_zeroed(32);
        assert_eq!(v, vec![0u8; 32], "no stale bytes may leak through");
        assert!(v.capacity() >= 128, "allocation was reused");
        assert_eq!(pool.recycled(), 1);
        assert_eq!(pool.allocated(), 0);
    }

    #[test]
    fn zero_capacity_buffers_are_not_retained() {
        let mut pool = PayloadPool::new();
        pool.put(Vec::new());
        assert_eq!(pool.free_len(), 0);
        let _ = pool.take_zeroed(4);
        assert_eq!(pool.allocated(), 1);
    }

    #[test]
    fn outstanding_tracks_the_take_put_balance() {
        let mut pool = PayloadPool::new();
        let a = pool.take_zeroed(8);
        let b = pool.take();
        assert_eq!(pool.outstanding(), 2);
        pool.put(a);
        pool.put(b); // zero-capacity: dropped, but still a return
        assert_eq!(pool.outstanding(), 0);
        pool.put(vec![1; 4]); // caller-owned buffer recycled at consumption
        assert_eq!(pool.outstanding(), -1);
    }

    #[test]
    fn clone_preserves_free_list_capacities_and_ledger() {
        let mut pool = PayloadPool::new();
        pool.put(vec![0xCD; 96]);
        let held = pool.take_zeroed(8);
        let copy = pool.clone();
        assert_eq!(copy.free_len(), pool.free_len());
        assert_eq!(copy.outstanding(), pool.outstanding());
        assert_eq!(copy.recycled(), pool.recycled());
        drop(held);
        let mut copy = copy;
        pool.put(vec![0xEE; 32]);
        copy.put(vec![0xEE; 32]);
        // A recycled draw on the clone reuses a real allocation, exactly
        // like the original — the clone did not shed free-list capacity.
        let a = pool.take_zeroed(4);
        let b = copy.take_zeroed(4);
        assert!(a.capacity() > 0 && b.capacity() > 0);
        assert_eq!(pool.recycled(), copy.recycled());
        assert_eq!(pool.allocated(), copy.allocated());
    }

    #[test]
    fn free_list_is_bounded() {
        let mut pool = PayloadPool::new();
        for _ in 0..(PayloadPool::MAX_FREE + 10) {
            pool.put(vec![1; 8]);
        }
        assert_eq!(pool.free_len(), PayloadPool::MAX_FREE);
    }
}
