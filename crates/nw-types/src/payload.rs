//! Message payloads as the simulator carries them: a length and a head.
//!
//! The model simulates the sizes and timing of what crosses the NoC, never
//! its contents: a marshalled DSOC message is a 16-byte header followed by
//! a zero body, and a service reply or egress packet is all zeros. So a
//! [`Payload`] stores the length and the first [`Payload::HEAD_BYTES`]
//! bytes; every byte past them is zero by construction. It is `Copy` and
//! owns no heap storage, however long the message it stands for.

use std::fmt;
use std::num::NonZeroU32;

/// A payload of [`Payload::len`] bytes whose first
/// [`Payload::HEAD_BYTES`] are [`Payload::head`] and whose rest are zero.
///
/// # Examples
///
/// ```
/// use nw_types::Payload;
///
/// let p = Payload::with_head(40, &[1, 2, 3]);
/// assert_eq!(p.len(), 40);
/// assert_eq!(&p.head()[..4], &[1, 2, 3, 0]);
/// let bytes = p.to_vec();
/// assert_eq!(bytes.len(), 40);
/// assert!(bytes[3..].iter().all(|&b| b == 0));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Payload {
    /// The length plus one: a `NonZeroU32` lends an `Option` around a
    /// payload-carrying struct its niche, which keeps a NoC slab slot
    /// (`Option<Packet>`) at 64 bytes.
    len_plus_one: NonZeroU32,
    /// The first bytes; zero from the length on.
    head: [u8; Payload::HEAD_BYTES],
}

impl Payload {
    /// Bytes a payload stores; every byte after them is zero.
    pub const HEAD_BYTES: usize = 16;

    /// The largest length a payload can have.
    pub const MAX_LEN: usize = u32::MAX as usize - 1;

    /// The empty payload.
    pub const EMPTY: Payload = Payload {
        len_plus_one: NonZeroU32::MIN,
        head: [0; Payload::HEAD_BYTES],
    };

    /// `len` zero bytes.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`Payload::MAX_LEN`].
    #[inline]
    pub fn zeroed(len: usize) -> Payload {
        let mut p = Payload::EMPTY;
        p.pad_to(len);
        p
    }

    /// `len` bytes that start with `head` and are zero after it.
    ///
    /// # Panics
    ///
    /// Panics if `head` is longer than [`Payload::HEAD_BYTES`] or than
    /// `len`, or if `len` exceeds [`Payload::MAX_LEN`].
    #[inline]
    pub fn with_head(len: usize, head: &[u8]) -> Payload {
        assert!(
            head.len() <= Self::HEAD_BYTES.min(len),
            "a {}-byte head for a {len}-byte payload",
            head.len()
        );
        let mut p = Payload::zeroed(len);
        p.head[..head.len()].copy_from_slice(head);
        p
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        (self.len_plus_one.get() - 1) as usize
    }

    /// Whether the payload has no bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first [`Payload::HEAD_BYTES`] bytes, zero from the length on.
    #[inline]
    pub fn head(&self) -> &[u8; Payload::HEAD_BYTES] {
        &self.head
    }

    /// The first byte, when there is one.
    #[inline]
    pub fn first_mut(&mut self) -> Option<&mut u8> {
        (!self.is_empty()).then_some(&mut self.head[0])
    }

    /// Grows the payload with zero bytes to `len` (a no-op when it is at
    /// least that long already).
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`Payload::MAX_LEN`].
    #[inline]
    pub fn pad_to(&mut self, len: usize) {
        if len > self.len() {
            assert!(len <= Self::MAX_LEN, "a {len}-byte payload");
            // `len < u32::MAX`, so the sum is a nonzero `u32`.
            self.len_plus_one = NonZeroU32::new(len as u32 + 1).expect("len + 1 > 0");
        }
    }

    /// The payload's bytes.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut bytes = vec![0; self.len()];
        let n = self.len().min(Self::HEAD_BYTES);
        bytes[..n].copy_from_slice(&self.head[..n]);
        bytes
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.len().min(Self::HEAD_BYTES);
        f.debug_struct("Payload")
            .field("len", &self.len())
            .field("head", &&self.head[..n])
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_payload_is_a_length_and_a_head_and_owns_no_heap() {
        assert_eq!(std::mem::size_of::<Payload>(), 20);
        assert_eq!(std::mem::size_of::<Option<Payload>>(), 20, "a niche");
        assert!(Payload::EMPTY.is_empty());
    }

    #[test]
    fn materialised_bytes_round_trip() {
        for len in [0usize, 1, 15, 16, 17, 300, 70_000] {
            let head: Vec<u8> = (1..=len.min(16) as u8).collect();
            let p = Payload::with_head(len, &head);
            let bytes = p.to_vec();
            assert_eq!(bytes.len(), len);
            assert_eq!(&bytes[..head.len()], &head[..]);
            assert!(bytes[head.len()..].iter().all(|&b| b == 0));
            assert_eq!(Payload::zeroed(len).to_vec(), vec![0; len]);
        }
    }

    #[test]
    fn padding_only_grows_and_keeps_the_head() {
        let mut p = Payload::with_head(3, &[7, 8, 9]);
        p.pad_to(2);
        assert_eq!(p.len(), 3);
        p.pad_to(48);
        assert_eq!(p, Payload::with_head(48, &[7, 8, 9]));
        p.pad_to(Payload::MAX_LEN);
        assert_eq!(p.len(), Payload::MAX_LEN);
    }

    #[test]
    #[should_panic(expected = "payload")]
    fn a_length_past_the_maximum_panics() {
        Payload::zeroed(Payload::MAX_LEN + 1);
    }

    #[test]
    fn only_a_nonempty_payload_has_a_first_byte() {
        let mut empty = Payload::EMPTY;
        assert_eq!(empty.first_mut(), None);
        let mut p = Payload::with_head(24, &[0x11; 16]);
        *p.first_mut().expect("24 bytes") ^= 0xA5;
        assert_eq!(p.head()[0], 0x11 ^ 0xA5);
        assert_eq!(p.head()[1], 0x11);
    }
}
