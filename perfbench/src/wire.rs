//! The benchmark's own IPv4 header encoder.
//!
//! Input headers are built here, not with the program's codec, and the
//! program's re-encoded output is compared byte for byte against what
//! this encoder produces for the reference decision. The layout is the
//! one `clue-wire` documents: a 20-byte header plus, when a clue is
//! attached, the 3-byte experimental option (kind 0x5E, length 3, clue
//! byte = prefix length - 1) padded with End-of-Options to 24 bytes.

/// The experimental IP option kind that carries the clue.
const CLUE_OPTION_KIND: u8 = 0x5E;

/// The header fields the benchmark varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
    /// Identification field.
    pub ident: u16,
    /// Time to live.
    pub ttl: u8,
    /// The clue's prefix length (1..=32), `None` for no clue option.
    pub clue_len: Option<u8>,
}

/// Appends the encoded header to `out` and returns its length.
pub fn encode(h: &Header, out: &mut Vec<u8>) -> usize {
    let len = if h.clue_len.is_some() { 24 } else { 20 };
    let start = out.len();
    out.extend_from_slice(&[0x40 | (len / 4) as u8, 0]);
    out.extend_from_slice(&(len as u16).to_be_bytes());
    out.extend_from_slice(&h.ident.to_be_bytes());
    out.extend_from_slice(&[0, 0, h.ttl, 17, 0, 0]);
    out.extend_from_slice(&h.src.to_be_bytes());
    out.extend_from_slice(&h.dst.to_be_bytes());
    if let Some(l) = h.clue_len {
        out.extend_from_slice(&[CLUE_OPTION_KIND, 3, l - 1, 0]);
    }
    let sum = checksum(&out[start..]);
    out[start + 10..start + 12].copy_from_slice(&sum.to_be_bytes());
    len
}

/// RFC 1071 Internet checksum of `data`.
fn checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = data
        .chunks(2)
        .map(|w| u32::from(w[0]) << 8 | u32::from(*w.get(1).unwrap_or(&0)))
        .sum();
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_core::ClueHeader;
    use clue_trie::{Ip4, Prefix};
    use clue_wire::Ipv4Packet;

    #[test]
    fn matches_the_program_codec() {
        for clue_len in [None, Some(1), Some(19), Some(32)] {
            let h = Header {
                src: 0xC633_6407,
                dst: 0x0A01_0203,
                ident: 77,
                ttl: 64,
                clue_len,
            };
            let mut ours = Vec::new();
            encode(&h, &mut ours);
            let clue = clue_len.map_or(ClueHeader::none(), |l| {
                ClueHeader::with_clue(&Prefix::of_address(Ip4(h.dst), l))
            });
            let mut pkt = Ipv4Packet::new(Ip4(h.src), Ip4(h.dst), 17).with_clue(clue);
            pkt.identification = h.ident;
            pkt.total_length = ours.len() as u16;
            assert_eq!(ours, pkt.to_bytes(), "clue {clue_len:?}");
            assert_eq!(Ipv4Packet::parse(&ours).expect("valid header"), pkt);
        }
    }
}
