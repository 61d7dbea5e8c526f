//! Property tests: the binary codec round-trips every well-formed value
//! and reports exact sizes.

use bytes::{Buf, Bytes};
use ftscp_intervals::codec;
use ftscp_intervals::{aggregate, Interval};
use ftscp_vclock::{ProcessId, VectorClock};
use proptest::prelude::*;

fn clock_strategy(width: usize) -> impl Strategy<Value = VectorClock> {
    proptest::collection::vec(proptest::num::u32::ANY, width).prop_map(VectorClock::from_components)
}

fn interval_strategy() -> impl Strategy<Value = Interval> {
    (1usize..8).prop_flat_map(|width| {
        (
            0u32..64,
            proptest::num::u64::ANY,
            clock_strategy(width),
            clock_strategy(width),
        )
            .prop_map(|(p, seq, lo, hi)| Interval::local(ProcessId(p), seq, lo, hi))
    })
}

/// Mixed-tenant batches: 1–6 groups over one clock width (one
/// connection serves one network), each group fanning out to 1–4
/// arbitrary predicate ids.
fn tenant_groups_strategy() -> impl Strategy<Value = Vec<(Vec<u32>, Interval)>> {
    (1usize..8).prop_flat_map(|width| {
        proptest::collection::vec(
            (
                proptest::collection::vec(0u32..1_000_000, 1..5),
                (
                    0u32..64,
                    proptest::num::u64::ANY,
                    clock_strategy(width),
                    clock_strategy(width),
                )
                    .prop_map(|(p, seq, lo, hi)| Interval::local(ProcessId(p), seq, lo, hi)),
            ),
            1..7,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn clock_round_trip(c in clock_strategy(6)) {
        let mut buf = bytes::BytesMut::new();
        codec::encode_clock_delta(&c, None, &mut buf);
        prop_assert_eq!(buf.len(), codec::encoded_clock_delta_len(&c, None));
        let mut b = buf.freeze();
        prop_assert_eq!(codec::decode_clock_delta(&mut b, None).unwrap(), c);
    }

    #[test]
    fn local_interval_round_trip(iv in interval_strategy()) {
        let mut bytes = codec::interval_to_bytes_delta(&iv);
        prop_assert_eq!(bytes.len(), codec::encoded_interval_delta_len(&iv, None));
        prop_assert_eq!(codec::decode_interval_delta(&mut bytes, None).unwrap(), iv);
    }

    /// Aggregations (with multi-entry coverage and level tags) round-trip.
    #[test]
    fn aggregated_interval_round_trip(
        a in interval_strategy(),
        seq in proptest::num::u64::ANY,
        level in 0u32..16,
    ) {
        // Build a second interval of the same width so aggregation works.
        let b = Interval::local(
            ProcessId(a.source.0 + 1),
            a.seq.wrapping_add(1),
            a.lo.clone(),
            a.hi.clone(),
        );
        let agg = aggregate(&[a, b], ProcessId(99), seq, level);
        let mut bytes = codec::interval_to_bytes_delta(&agg);
        prop_assert_eq!(bytes.len(), codec::encoded_interval_delta_len(&agg, None));
        prop_assert_eq!(codec::decode_interval_delta(&mut bytes, None).unwrap(), agg);
    }

    /// Any truncation of a valid encoding fails cleanly (no panic).
    #[test]
    fn truncation_never_panics(iv in interval_strategy(), cut_frac in 0.0f64..1.0) {
        let bytes = codec::interval_to_bytes_delta(&iv);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            let mut t = bytes.clone();
            t.truncate(cut);
            prop_assert!(codec::decode_interval_delta(&mut t, None).is_err());
        }
    }

    /// Arbitrary garbage either fails or decodes without panicking.
    #[test]
    fn garbage_never_panics(data in proptest::collection::vec(proptest::num::u8::ANY, 0..64)) {
        let mut b = Bytes::from(data);
        let _ = codec::decode_interval_delta(&mut b, None); // must not panic
    }

    /// Any mixed-tenant batch round-trips exactly — standalone or
    /// against a connection base — and the size query is exact. The
    /// in-frame delta chain (group i encoded against group i−1's `lo`)
    /// must be transparent to the caller.
    #[test]
    fn tenant_batch_round_trip(
        groups in tenant_groups_strategy(),
        with_base in proptest::bool::ANY,
    ) {
        // A width-matched connection base, when requested; standalone
        // otherwise (what a resync or cold connection sends).
        let base = if with_base { Some(groups[0].1.lo.clone()) } else { None };
        let mut buf = bytes::BytesMut::new();
        codec::encode_tenant_batch(&groups, base.as_ref(), &mut buf);
        let bytes = buf.freeze();
        prop_assert_eq!(
            bytes.len(),
            codec::encoded_tenant_batch_len(&groups, base.as_ref())
        );
        let mut b = bytes.clone();
        prop_assert_eq!(codec::decode_tenant_batch(&mut b, base.as_ref()).unwrap(), groups);
        prop_assert_eq!(b.remaining(), 0, "decode must consume the frame exactly");
    }

    /// Any truncation of a valid batch fails cleanly (no panic, no
    /// partial-group success masquerading as a full decode).
    #[test]
    fn tenant_batch_truncation_never_panics(
        groups in tenant_groups_strategy(),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut buf = bytes::BytesMut::new();
        codec::encode_tenant_batch(&groups, None, &mut buf);
        let bytes = buf.freeze();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            let mut t = bytes.clone();
            t.truncate(cut);
            prop_assert!(codec::decode_tenant_batch(&mut t, None).is_err());
        }
    }
}
