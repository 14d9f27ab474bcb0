//! Property tests for the DSOC wire format: roundtrip identity, decoder
//! robustness against arbitrary bytes, and agreement of the header-only
//! payload path with the byte codec.

use nw_dsoc::{Message, MessageHeader, MessageKind, MessageView, MethodId};
use nw_types::ObjectId;
use proptest::prelude::*;

proptest! {
    // Pinned effort for CI determinism; override with PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode is the identity for any message.
    #[test]
    fn roundtrip(
        kind in prop_oneof![Just(MessageKind::Invocation), Just(MessageKind::Reply)],
        object in 0usize..1_000_000,
        method in any::<u16>(),
        seq in any::<u32>(),
        body in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let m = Message { kind, object: ObjectId(object), method: MethodId(method), seq, body };
        let decoded = Message::decode(&m.encode()).expect("own encoding decodes");
        prop_assert_eq!(decoded, m);
    }

    /// Decoding arbitrary bytes never panics, and any accepted input
    /// re-encodes to exactly the same bytes (no lossy acceptance).
    #[test]
    fn decode_is_total_and_lossless(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(m) = Message::decode(&bytes) {
            prop_assert_eq!(m.encode(), bytes);
        }
    }

    /// Truncating a valid message always fails to decode.
    #[test]
    fn truncation_rejected(
        body in prop::collection::vec(any::<u8>(), 1..64),
        cut in 1usize..16,
    ) {
        let m = Message::invocation(ObjectId(1), MethodId(2), 3, body);
        let enc = m.encode();
        let cut = cut.min(enc.len());
        prop_assert!(Message::decode(&enc[..enc.len() - cut]).is_err());
    }

    /// The runtime's header-only payload and the byte codec agree: the
    /// payload's bytes are `encode_zeroed_into`'s, its header decode is the
    /// view's in every field, and after the fault layer's corruption (byte
    /// 0 XOR 0xA5) both reject it with the same error.
    #[test]
    fn a_zeroed_payload_is_the_zeroed_encoding(
        kind in prop_oneof![Just(MessageKind::Invocation), Just(MessageKind::Reply)],
        object in 0usize..=u32::MAX as usize,
        method in any::<u16>(),
        seq in any::<u32>(),
        body_len in prop_oneof![Just(0usize), 1usize..64, 64usize..4_096, 65_537usize..300_000],
    ) {
        let header = MessageHeader { kind, object: ObjectId(object), method: MethodId(method), seq, body_len };
        let mut payload = header.zeroed_payload();
        let mut bytes = Vec::new();
        Message::encode_zeroed_into(kind, ObjectId(object), MethodId(method), seq, body_len, &mut bytes);
        prop_assert_eq!(payload.to_vec(), bytes.clone());

        let decoded = MessageHeader::decode(&payload).expect("own payload decodes");
        let view = MessageView::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(decoded, header);
        prop_assert_eq!(
            (decoded.kind, decoded.object, decoded.method, decoded.seq, decoded.body_len),
            (view.kind, view.object, view.method, view.seq, view.body.len())
        );
        prop_assert!(view.body.iter().all(|&b| b == 0));

        *payload.first_mut().expect("a header is 16 bytes") ^= 0xA5;
        bytes[0] ^= 0xA5;
        let rejected = MessageHeader::decode(&payload).expect_err("corrupted kind");
        prop_assert_eq!(Some(rejected), MessageView::decode(&bytes).err());
    }
}
