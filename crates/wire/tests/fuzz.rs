//! Parser robustness: arbitrary bytes never panic, encode→parse is the
//! identity for every valid header, the checksum matches a byte-wise
//! RFC 1071 oracle, and the encoded layout is pinned byte for byte.

use clue_core::ClueHeader;
use clue_trie::{Ip4, Ip6, Prefix};
use clue_wire::{checksum, option::decode_clue_option, Ipv4Packet, Ipv6Packet, WireError};
use proptest::prelude::*;

/// RFC 1071 the slow way: one byte at a time, high byte first, an odd
/// trailing byte padded with zero, carries folded at the end.
fn checksum_oracle(data: &[u8]) -> u16 {
    let mut sum = 0u64;
    for (i, &b) in data.iter().enumerate() {
        sum += if i % 2 == 0 { u64::from(b) << 8 } else { u64::from(b) };
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// A header for `10.1.2.3` from `192.0.2.1` carrying a clue of
/// `clue_len` bits (none at 0), indexed when `index` is set.
fn clued_v4(clue_len: u8, index: Option<u16>) -> Ipv4Packet {
    let dst = Ip4(0x0A01_0203);
    let mut pkt = Ipv4Packet::new(Ip4(0xC000_0201), dst, 6);
    if clue_len > 0 {
        let bmp = Prefix::new(dst, clue_len);
        pkt.clue = match index {
            Some(i) => ClueHeader::with_indexed_clue(&bmp, i),
            None => ClueHeader::with_clue(&bmp),
        };
    }
    pkt
}

/// [`clued_v4`] with a non-zero identification, so a field swap shows.
fn golden_v4(clue_len: u8, index: Option<u16>) -> Vec<u8> {
    let mut pkt = clued_v4(clue_len, index);
    pkt.identification = 0x1234;
    pkt.to_bytes()
}

#[test]
fn clued_ipv4_header_matches_golden_bytes() {
    #[rustfmt::skip]
    let want = [
        0x46, 0x00, 0x00, 0x18, 0x12, 0x34, 0x00, 0x00, 0x40, 0x06, 0x2C, 0xA4,
        0xC0, 0x00, 0x02, 0x01, 0x0A, 0x01, 0x02, 0x03, 0x5E, 0x03, 0x0F, 0x00,
    ];
    assert_eq!(golden_v4(16, None), want);
}

#[test]
fn indexed_ipv4_header_matches_golden_bytes() {
    #[rustfmt::skip]
    let want = [
        0x47, 0x00, 0x00, 0x1C, 0x12, 0x34, 0x00, 0x00, 0x40, 0x06, 0xB3, 0xDE,
        0xC0, 0x00, 0x02, 0x01, 0x0A, 0x01, 0x02, 0x03, 0x5E, 0x05, 0x97, 0xBE,
        0xEF, 0x00, 0x00, 0x00,
    ];
    assert_eq!(golden_v4(24, Some(0xBEEF)), want);
}

#[test]
fn an_ihl_flip_that_drops_the_whole_option_can_evade_the_checksum() {
    // The one single-bit corruption the Internet checksum cannot always
    // see: IHL 7 → 5 removes the option words from the sum while the
    // flip itself subtracts 0x200. When the dropped words sum to
    // −0x200 (mod 0xFFFF) — here a /32 clue indexed 0xFA00 — the
    // shortened header verifies. The bit-flip property below excludes
    // exactly this flip.
    let mut bytes = clued_v4(32, Some(0xFA00)).to_bytes();
    bytes[0] ^= 0b10;
    let parsed = Ipv4Packet::parse(&bytes).expect("the checksum misses this flip");
    assert_eq!(parsed.clue, ClueHeader::none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ipv4_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = Ipv4Packet::parse(&bytes);
    }

    #[test]
    fn ipv6_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let _ = Ipv6Packet::parse(&bytes);
    }

    #[test]
    fn ipv4_roundtrip_is_identity(
        src in any::<u32>(),
        dst in any::<u32>(),
        ttl in any::<u8>(),
        proto in any::<u8>(),
        ident in any::<u16>(),
        clue_len in 0u8..=32,
        index in proptest::option::of(any::<u16>()),
    ) {
        let mut pkt = Ipv4Packet::new(Ip4(src), Ip4(dst), proto);
        pkt.ttl = ttl;
        pkt.identification = ident;
        if clue_len > 0 {
            let bmp = Prefix::new(Ip4(dst), clue_len);
            pkt.clue = match index {
                Some(i) => ClueHeader::with_indexed_clue(&bmp, i),
                None => ClueHeader::with_clue(&bmp),
            };
        }
        let bytes = pkt.to_bytes();
        let back = Ipv4Packet::parse(&bytes).expect("own output parses");
        prop_assert_eq!(back.src, pkt.src);
        prop_assert_eq!(back.dst, pkt.dst);
        prop_assert_eq!(back.ttl, ttl);
        prop_assert_eq!(back.protocol, proto);
        prop_assert_eq!(back.identification, ident);
        prop_assert_eq!(back.clue, pkt.clue);
    }

    #[test]
    fn ipv6_roundtrip_is_identity(
        src in any::<u128>(),
        dst in any::<u128>(),
        hops in any::<u8>(),
        nh in any::<u8>(),
        tc in any::<u8>(),
        flow in 0u32..(1 << 20),
        clue_len in 0u8..=128,
    ) {
        // The hop-by-hop protocol number itself would be ambiguous as a
        // transport next-header; skip that corner.
        prop_assume!(nh != clue_wire::HOP_BY_HOP);
        let mut pkt = Ipv6Packet::new(Ip6(src), Ip6(dst), nh);
        pkt.hop_limit = hops;
        pkt.traffic_class = tc;
        pkt.flow_label = flow;
        if clue_len > 0 {
            pkt.clue = ClueHeader::with_clue(&Prefix::new(Ip6(dst), clue_len));
        }
        let bytes = pkt.to_bytes();
        let back = Ipv6Packet::parse(&bytes).expect("own output parses");
        prop_assert_eq!(back.src, pkt.src);
        prop_assert_eq!(back.dst, pkt.dst);
        prop_assert_eq!(back.hop_limit, hops);
        prop_assert_eq!(back.next_header, nh);
        prop_assert_eq!(back.traffic_class, tc);
        prop_assert_eq!(back.flow_label, flow);
        prop_assert_eq!(back.clue, pkt.clue);
    }

    #[test]
    fn clue_option_decode_never_panics_and_errors_are_typed(
        body in proptest::collection::vec(any::<u8>(), 0..8),
    ) {
        // The option decoder sees raw attacker-controlled bytes; the
        // only acceptable outcomes are a decoded header or one of the
        // two typed option errors — never a panic, never a clue the
        // decoder could not have encoded.
        for res in [decode_clue_option::<Ip4>(&body), decode_clue_option::<Ip6>(&body)] {
            match res {
                Ok(header) => prop_assert!(header.clue.is_some()),
                Err(WireError::BadOption) | Err(WireError::BadClue) => {}
                Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn ipv4_truncation_reports_the_exact_cut(
        clue_len in 1u8..=32,
        index in proptest::option::of(any::<u16>()),
        cut_seed in any::<u16>(),
    ) {
        // Every strict prefix of a valid clued packet fails to parse,
        // and when the failure is `Truncated` it names the cut point
        // exactly — degradation diagnostics the chaos harness trusts.
        let bytes = clued_v4(clue_len, index).to_bytes();
        let cut = cut_seed as usize % bytes.len();
        match Ipv4Packet::parse(&bytes[..cut]) {
            Ok(_) => prop_assert!(false, "a {cut}-byte prefix of {} parsed", bytes.len()),
            Err(WireError::Truncated { needed, got }) => {
                prop_assert_eq!(got, cut);
                prop_assert!(needed > got);
            }
            Err(_) => {} // another typed error (checksum, IHL) is fine
        }
    }

    #[test]
    fn ipv6_truncation_reports_the_exact_cut(
        clue_len in 1u8..=128,
        cut_seed in any::<u16>(),
    ) {
        let dst = Ip6(0x2001_0db8_0000_0000_0000_0000_0000_0001);
        let bytes = Ipv6Packet::new(Ip6(0x2001_0db8_ffff_0000_0000_0000_0000_0002), dst, 6)
            .with_clue(ClueHeader::with_clue(&Prefix::new(dst, clue_len)))
            .to_bytes();
        let cut = cut_seed as usize % bytes.len();
        match Ipv6Packet::parse(&bytes[..cut]) {
            Ok(_) => prop_assert!(false, "a {cut}-byte prefix of {} parsed", bytes.len()),
            Err(WireError::Truncated { needed, got }) => {
                prop_assert_eq!(got, cut);
                prop_assert!(needed > got);
            }
            Err(_) => {}
        }
    }

    #[test]
    fn checksum_matches_the_bytewise_oracle(
        data in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        prop_assert_eq!(checksum(&data), checksum_oracle(&data));
    }

    #[test]
    fn ipv4_bitflips_never_verify_or_panic(
        flip_seed in any::<u16>(),
        flip_bit in 0u8..8,
        clue_len in 0u8..=32,
        index in proptest::option::of(any::<u16>()),
    ) {
        let mut bytes = clued_v4(clue_len, index).to_bytes();
        let flip_byte = flip_seed as usize % bytes.len();
        // IHL 7 → 5 on an indexed header: see
        // `an_ihl_flip_that_drops_the_whole_option_can_evade_the_checksum`.
        prop_assume!(!(flip_byte == 0 && flip_bit == 1 && bytes.len() == 28));
        bytes[flip_byte] ^= 1 << flip_bit;
        // Every other single-bit flip either breaks a structural check
        // (version, IHL, length, option) or moves the one's-complement
        // sum by ±2^k, which the checksum always catches.
        prop_assert!(
            Ipv4Packet::parse(&bytes).is_err(),
            "bit {flip_bit} of byte {flip_byte} flipped, still parsed"
        );
    }
}
