//! NoC packet-tag codec for request/response correlation.
//!
//! Every synchronous round trip on the platform — a DSOC twoway call, a
//! remote memory read, an accelerator request — carries a tag identifying
//! the requesting hardware thread, so the reply can wake exactly that
//! context without decoding payloads. The layout:
//!
//! ```text
//! bit 63        reply flag (set on the response leg)
//! bits 48..63   requesting PE index
//! bits 40..48   requesting thread index
//! bits 32..40   retry token (attempt correlation; 0 unless the
//!               resilience layer re-issues a timed-out request)
//! bits 0..32    expected reply payload bytes (service nodes size their
//!               response from this)
//! ```
//!
//! The retry token echoes through service nodes untouched (replies are
//! built with [`RequestTag::encode_reply`] on the decoded tag), so a
//! requester can tell a live attempt's reply from a stale one that
//! arrived after its timeout fired. Token 0 — the only value ever used
//! when fault injection is off — encodes bit-identically to the historical
//! tokenless layout.

use nw_types::{PeId, ThreadId};

const REPLY_FLAG: u64 = 1 << 63;
const PE_SHIFT: u32 = 48;
const TID_SHIFT: u32 = 40;
const TOKEN_SHIFT: u32 = 32;
const PE_MASK: u64 = 0x7FFF;
const TID_MASK: u64 = 0xFF;
const TOKEN_MASK: u64 = 0xFF;
const BYTES_MASK: u64 = (1 << 32) - 1;

/// A decoded request tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTag {
    /// Requesting PE.
    pub pe: PeId,
    /// Requesting hardware thread.
    pub tid: ThreadId,
    /// Retry attempt token (0 for first attempts and whenever the
    /// resilience layer is off).
    pub token: u8,
    /// Expected reply payload size in bytes.
    pub reply_bytes: u64,
}

// Every retry entry holds one (`calls::PendingCall`, one per hardware
// thread under a retry policy): the heap footprint's `mix-fork-faults`
// rows, the one rig with a policy, grow by any growth per thread.
const _: () = assert!(std::mem::size_of::<RequestTag>() <= 32);

impl RequestTag {
    /// Encodes the request-leg tag.
    ///
    /// # Panics
    ///
    /// Panics if the PE index exceeds 15 bits, the thread index exceeds
    /// 8 bits, or `reply_bytes` exceeds 32 bits — all far beyond any
    /// plausible platform.
    pub fn encode(self) -> u64 {
        assert!(self.pe.0 as u64 <= PE_MASK, "PE index too large for tag");
        assert!(
            self.tid.0 as u64 <= TID_MASK,
            "thread index too large for tag"
        );
        assert!(
            self.reply_bytes <= BYTES_MASK,
            "reply size too large for tag"
        );
        ((self.pe.0 as u64) << PE_SHIFT)
            | ((self.tid.0 as u64) << TID_SHIFT)
            | ((self.token as u64) << TOKEN_SHIFT)
            | self.reply_bytes
    }

    /// Encodes the reply-leg tag (reply flag set).
    pub fn encode_reply(self) -> u64 {
        self.encode() | REPLY_FLAG
    }

    /// Decodes either leg.
    pub fn decode(tag: u64) -> RequestTag {
        RequestTag {
            pe: PeId(((tag >> PE_SHIFT) & PE_MASK) as usize),
            tid: ThreadId(((tag >> TID_SHIFT) & TID_MASK) as usize),
            token: ((tag >> TOKEN_SHIFT) & TOKEN_MASK) as u8,
            reply_bytes: tag & BYTES_MASK,
        }
    }
}

/// Whether a tag is a reply-leg tag.
pub fn is_reply(tag: u64) -> bool {
    tag & REPLY_FLAG != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let t = RequestTag {
            pe: PeId(129),
            tid: ThreadId(7),
            token: 0,
            reply_bytes: 24,
        };
        let enc = t.encode();
        assert!(!is_reply(enc));
        assert_eq!(RequestTag::decode(enc), t);
        let rep = t.encode_reply();
        assert!(is_reply(rep));
        assert_eq!(RequestTag::decode(rep), t);
    }

    #[test]
    fn zero_tag_decodes_to_defaults() {
        let t = RequestTag::decode(0);
        assert_eq!(t.pe, PeId(0));
        assert_eq!(t.tid, ThreadId(0));
        assert_eq!(t.token, 0);
        assert_eq!(t.reply_bytes, 0);
        assert!(!is_reply(0));
    }

    #[test]
    fn extremes_roundtrip() {
        let t = RequestTag {
            pe: PeId(0x7FFF),
            tid: ThreadId(0xFF),
            token: 0xFF,
            reply_bytes: BYTES_MASK,
        };
        assert_eq!(RequestTag::decode(t.encode_reply()), t);
    }

    #[test]
    fn zero_token_matches_tokenless_layout() {
        // The historical layout had no token field; bits 32..40 were the
        // upper bits of reply_bytes. Token 0 with any realistic reply size
        // (< 4 GiB) must therefore encode to the identical word, keeping
        // faults-off runs bit-identical to pre-resilience builds.
        let t = RequestTag {
            pe: PeId(12),
            tid: ThreadId(3),
            token: 0,
            reply_bytes: 4096,
        };
        let legacy = (12u64 << 48) | (3u64 << 40) | 4096;
        assert_eq!(t.encode(), legacy);
    }

    #[test]
    fn token_survives_reply_leg() {
        let t = RequestTag {
            pe: PeId(4),
            tid: ThreadId(1),
            token: 17,
            reply_bytes: 64,
        };
        let echoed = RequestTag::decode(t.encode());
        assert_eq!(echoed.token, 17);
        assert_eq!(RequestTag::decode(echoed.encode_reply()).token, 17);
    }

    #[test]
    #[should_panic(expected = "PE index too large")]
    fn oversized_pe_panics() {
        RequestTag {
            pe: PeId(1 << 20),
            tid: ThreadId(0),
            token: 0,
            reply_bytes: 0,
        }
        .encode();
    }
}
