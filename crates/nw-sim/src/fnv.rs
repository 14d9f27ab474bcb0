//! The one FNV-1a (64-bit) every recorded digest in the workspace uses.
//!
//! The golden tables pin FNV-1a values recorded once; they stay
//! comparable only while every one of them hashes the same way, so the
//! hash lives here and nowhere else.

/// A running 64-bit FNV-1a hash.
///
/// # Examples
///
/// ```
/// use nw_sim::Fnv1a;
///
/// assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
/// let mut h = Fnv1a::new();
/// h.bytes(b"a");
/// assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
/// // A word is its eight little-endian bytes.
/// let (mut w, mut b) = (Fnv1a::new(), Fnv1a::new());
/// w.word(7);
/// b.bytes(&7u64.to_le_bytes());
/// assert_eq!(w, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The hash of no bytes: FNV-1a's offset basis.
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Extends the hash over `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Extends the hash over `v`'s little-endian bytes.
    pub fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}
