//! The DSOC on-wire message format.
//!
//! Marshalled invocations and replies are what actually crosses the NoC as
//! packet payload. The format is a fixed 16-byte little-endian header
//! followed by the argument/result bytes:
//!
//! ```text
//! offset  size  field
//! 0       1     kind (1 = invocation, 2 = reply)
//! 1       1     reserved (must be 0)
//! 2       4     object id
//! 6       2     method id
//! 8       4     sequence number (correlates replies with calls)
//! 12      4     body length
//! 16      n     body
//! ```
//!
//! The sequence number is the **invocation tag**: every marshalled request
//! carries a fresh one, and a conforming runtime's reply to a twoway
//! invocation echoes the request's sequence number (rather than drawing a
//! new one), so a request/reply pair correlates on the wire end-to-end —
//! the hook the platform's per-invocation latency telemetry hangs off.
//!
//! The header is written by one private writer, whether into bytes
//! ([`Message::encode`]) or a [`Payload`]
//! ([`MessageHeader::zeroed_payload`]), and read by one private parser,
//! whether from bytes ([`MessageView::decode`]) or a payload
//! ([`MessageHeader::decode`]): the runtime's traffic is header-only
//! payloads, whose bodies are zero.

// WR01: a truncating `as` on an encode/decode path drops wire bits
// silently; `try_from` fails loudly instead.
#![deny(clippy::cast_possible_truncation)]

use crate::app::MethodId;
use nw_types::{ObjectId, Payload};
use std::fmt;

/// Message kind discriminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// A method invocation (request).
    Invocation,
    /// A reply to a twoway invocation.
    Reply,
}

impl MessageKind {
    fn to_byte(self) -> u8 {
        match self {
            MessageKind::Invocation => 1,
            MessageKind::Reply => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(MessageKind::Invocation),
            2 => Some(MessageKind::Reply),
            _ => None,
        }
    }
}

/// Errors from [`Message::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than the fixed header.
    TooShort {
        /// Bytes available.
        have: usize,
    },
    /// Unknown kind byte.
    BadKind(u8),
    /// Reserved byte was not zero.
    BadReserved(u8),
    /// Body length field disagrees with the available bytes.
    LengthMismatch {
        /// Declared body length.
        declared: usize,
        /// Actual trailing bytes.
        actual: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::TooShort { have } => {
                write!(f, "message needs at least 16 bytes, got {have}")
            }
            DecodeError::BadKind(b) => write!(f, "unknown message kind {b}"),
            DecodeError::BadReserved(b) => write!(f, "reserved byte must be 0, got {b}"),
            DecodeError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "declared body length {declared} but {actual} bytes present"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A marshalled DSOC message.
///
/// # Examples
///
/// ```
/// use nw_dsoc::{Message, MessageKind, MethodId};
/// use nw_types::ObjectId;
///
/// let m = Message::invocation(ObjectId(3), MethodId(1), 42, vec![0xAB; 20]);
/// let bytes = m.encode();
/// let back = Message::decode(&bytes)?;
/// assert_eq!(back, m);
/// assert_eq!(back.wire_len(), 36);
/// # Ok::<(), nw_dsoc::DecodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Invocation or reply.
    pub kind: MessageKind,
    /// Target (for invocations) or originating (for replies) object.
    pub object: ObjectId,
    /// Target method.
    pub method: MethodId,
    /// Correlation sequence number.
    pub seq: u32,
    /// Marshalled argument or result bytes.
    pub body: Vec<u8>,
}

impl Message {
    /// Fixed header size in bytes.
    pub const HEADER_LEN: usize = 16;

    /// Creates an invocation message.
    pub fn invocation(object: ObjectId, method: MethodId, seq: u32, body: Vec<u8>) -> Self {
        Message {
            kind: MessageKind::Invocation,
            object,
            method,
            seq,
            body,
        }
    }

    /// Creates a reply message.
    pub fn reply(object: ObjectId, method: MethodId, seq: u32, body: Vec<u8>) -> Self {
        Message {
            kind: MessageKind::Reply,
            object,
            method,
            seq,
            body,
        }
    }

    /// Total encoded length.
    pub fn wire_len(&self) -> usize {
        Self::HEADER_LEN + self.body.len()
    }

    /// Encodes to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the encoded form to `out` — the allocation-reuse variant of
    /// [`Message::encode`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.wire_len());
        out.extend_from_slice(&self.header().encode());
        out.extend_from_slice(&self.body);
    }

    /// Appends the encoding of a message whose body is `body_len` zero
    /// bytes directly to `out`, without materializing the body vector.
    ///
    /// Byte-identical to `Message { kind, object, method, seq, body:
    /// vec![0; body_len] }.encode()`, and to the bytes of
    /// [`MessageHeader::zeroed_payload`] for the same fields.
    #[inline]
    pub fn encode_zeroed_into(
        kind: MessageKind,
        object: ObjectId,
        method: MethodId,
        seq: u32,
        body_len: usize,
        out: &mut Vec<u8>,
    ) {
        let header = MessageHeader {
            kind,
            object,
            method,
            seq,
            body_len,
        };
        out.reserve(Self::HEADER_LEN + body_len);
        out.extend_from_slice(&header.encode());
        out.resize(out.len() + body_len, 0);
    }

    /// The message's header fields.
    fn header(&self) -> MessageHeader {
        MessageHeader {
            kind: self.kind,
            object: self.object,
            method: self.method,
            seq: self.seq,
            body_len: self.body.len(),
        }
    }

    /// Decodes from bytes.
    ///
    /// # Errors
    ///
    /// See [`DecodeError`]; any malformed header or length mismatch is
    /// rejected rather than guessed at.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let v = MessageView::decode(bytes)?;
        Ok(Message {
            kind: v.kind,
            object: v.object,
            method: v.method,
            seq: v.seq,
            body: v.body.to_vec(),
        })
    }
}

/// The fixed header of a message: every field but the body's bytes.
///
/// # Examples
///
/// ```
/// use nw_dsoc::{Message, MessageHeader, MessageKind, MethodId};
/// use nw_types::ObjectId;
///
/// let h = MessageHeader {
///     kind: MessageKind::Invocation,
///     object: ObjectId(3),
///     method: MethodId(1),
///     seq: 42,
///     body_len: 20,
/// };
/// let payload = h.zeroed_payload();
/// assert_eq!(payload.len(), 36);
/// assert_eq!(payload.to_vec(), Message::invocation(ObjectId(3), MethodId(1), 42, vec![0; 20]).encode());
/// assert_eq!(MessageHeader::decode(&payload), Ok(h));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MessageHeader {
    /// Invocation or reply.
    pub kind: MessageKind,
    /// Target (for invocations) or originating (for replies) object.
    pub object: ObjectId,
    /// Target method.
    pub method: MethodId,
    /// Correlation sequence number.
    pub seq: u32,
    /// Body length in bytes.
    pub body_len: usize,
}

impl MessageHeader {
    /// The header's wire bytes: the format's one header writer.
    ///
    /// # Panics
    ///
    /// Panics if the object id or the body length does not fit its `u32`
    /// wire field.
    #[inline]
    fn encode(&self) -> [u8; Message::HEADER_LEN] {
        let object = u32::try_from(self.object.0).expect("object id fits the u32 wire field");
        let body_len = u32::try_from(self.body_len).expect("body fits the u32 length field");
        let mut head = [0; Message::HEADER_LEN];
        head[0] = self.kind.to_byte();
        head[2..6].copy_from_slice(&object.to_le_bytes());
        head[6..8].copy_from_slice(&self.method.0.to_le_bytes());
        head[8..12].copy_from_slice(&self.seq.to_le_bytes());
        head[12..16].copy_from_slice(&body_len.to_le_bytes());
        head
    }

    /// The payload of the message with this header and a zero body: the
    /// header is its head.
    ///
    /// # Panics
    ///
    /// Panics if the object id or the body length does not fit its `u32`
    /// wire field.
    #[inline]
    pub fn zeroed_payload(&self) -> Payload {
        Payload::with_head(Message::HEADER_LEN + self.body_len, &self.encode())
    }

    /// Decodes the header of the message `payload` carries.
    ///
    /// # Errors
    ///
    /// Exactly the [`DecodeError`] [`MessageView::decode`] returns for the
    /// payload's bytes; on success the fields are the view's, with
    /// `body_len` its body's length.
    #[inline]
    pub fn decode(payload: &Payload) -> Result<Self, DecodeError> {
        Self::parse(payload.head(), payload.len())
    }

    /// The format's one header reader: `head` holds the first bytes (at
    /// least [`Message::HEADER_LEN`] when `total` does) of a message
    /// `total` bytes long.
    #[inline]
    fn parse(head: &[u8], total: usize) -> Result<Self, DecodeError> {
        if total < Message::HEADER_LEN {
            return Err(DecodeError::TooShort { have: total });
        }
        let kind = MessageKind::from_byte(head[0]).ok_or(DecodeError::BadKind(head[0]))?;
        if head[1] != 0 {
            return Err(DecodeError::BadReserved(head[1]));
        }
        let object = u32::from_le_bytes(head[2..6].try_into().expect("fixed slice"));
        let method = u16::from_le_bytes(head[6..8].try_into().expect("fixed slice"));
        let seq = u32::from_le_bytes(head[8..12].try_into().expect("fixed slice"));
        let len = u32::from_le_bytes(head[12..16].try_into().expect("fixed slice")) as usize;
        let actual = total - Message::HEADER_LEN;
        if len != actual {
            return Err(DecodeError::LengthMismatch {
                declared: len,
                actual,
            });
        }
        Ok(MessageHeader {
            kind,
            object: ObjectId(object as usize),
            method: MethodId(method),
            seq,
            body_len: actual,
        })
    }
}

/// A decoded message borrowing its body from the wire bytes.
///
/// The dispatch hot path only inspects the header fields, so copying the
/// body out (as [`Message::decode`] must, to own it) is wasted work there.
/// Validation is identical to [`Message::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageView<'a> {
    /// Invocation or reply.
    pub kind: MessageKind,
    /// Target (for invocations) or originating (for replies) object.
    pub object: ObjectId,
    /// Target method.
    pub method: MethodId,
    /// Correlation sequence number.
    pub seq: u32,
    /// Marshalled argument or result bytes, borrowed.
    pub body: &'a [u8],
}

impl<'a> MessageView<'a> {
    /// Decodes a message without copying the body.
    ///
    /// # Errors
    ///
    /// See [`DecodeError`] — the same rejections as [`Message::decode`].
    #[inline]
    pub fn decode(bytes: &'a [u8]) -> Result<Self, DecodeError> {
        let h = MessageHeader::parse(bytes, bytes.len())?;
        Ok(MessageView {
            kind: h.kind,
            object: h.object,
            method: h.method,
            seq: h.seq,
            body: &bytes[Message::HEADER_LEN..],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_empty_body() {
        let m = Message::reply(ObjectId(0), MethodId(0), 0, vec![]);
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
        assert_eq!(m.wire_len(), 16);
    }

    #[test]
    fn roundtrip_large_ids() {
        let m = Message::invocation(ObjectId(70_000), MethodId(65_535), u32::MAX, vec![7; 300]);
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn too_short_rejected() {
        assert_eq!(
            Message::decode(&[1, 0, 0]),
            Err(DecodeError::TooShort { have: 3 })
        );
    }

    #[test]
    fn bad_kind_rejected() {
        let mut b = Message::invocation(ObjectId(1), MethodId(1), 1, vec![]).encode();
        b[0] = 9;
        assert_eq!(Message::decode(&b), Err(DecodeError::BadKind(9)));
    }

    #[test]
    fn bad_reserved_rejected() {
        let mut b = Message::invocation(ObjectId(1), MethodId(1), 1, vec![]).encode();
        b[1] = 1;
        assert_eq!(Message::decode(&b), Err(DecodeError::BadReserved(1)));
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut b = Message::invocation(ObjectId(1), MethodId(1), 1, vec![1, 2, 3]).encode();
        b.pop();
        assert_eq!(
            Message::decode(&b),
            Err(DecodeError::LengthMismatch {
                declared: 3,
                actual: 2
            })
        );
    }

    #[test]
    fn encode_zeroed_into_matches_encode() {
        for len in [0usize, 1, 17, 300] {
            let m = Message::invocation(ObjectId(9), MethodId(3), 77, vec![0u8; len]);
            let mut out = Vec::new();
            Message::encode_zeroed_into(
                MessageKind::Invocation,
                ObjectId(9),
                MethodId(3),
                77,
                len,
                &mut out,
            );
            assert_eq!(out, m.encode());
        }
    }

    #[test]
    fn view_decode_matches_owned_decode() {
        let m = Message::reply(ObjectId(5), MethodId(2), 1234, vec![7, 8, 9]);
        let bytes = m.encode();
        let v = MessageView::decode(&bytes).unwrap();
        assert_eq!(v.kind, m.kind);
        assert_eq!(v.object, m.object);
        assert_eq!(v.method, m.method);
        assert_eq!(v.seq, m.seq);
        assert_eq!(v.body, &m.body[..]);
        // And the same rejections.
        assert_eq!(
            MessageView::decode(&bytes[..10]),
            Err(DecodeError::TooShort { have: 10 })
        );
    }

    #[test]
    fn header_layout_is_stable() {
        let m = Message::invocation(
            ObjectId(0x01020304),
            MethodId(0x0506),
            0x0708090A,
            vec![0xFF],
        );
        let b = m.encode();
        assert_eq!(b[0], 1);
        assert_eq!(&b[2..6], &[0x04, 0x03, 0x02, 0x01]);
        assert_eq!(&b[6..8], &[0x06, 0x05]);
        assert_eq!(&b[8..12], &[0x0A, 0x09, 0x08, 0x07]);
        assert_eq!(&b[12..16], &[1, 0, 0, 0]);
        assert_eq!(b[16], 0xFF);
    }
}
