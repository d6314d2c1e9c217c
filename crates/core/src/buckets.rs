//! The flat, length-indexed clue buckets the stride and compressed
//! backends probe.
//!
//! Clues have at most `A::BITS + 1` distinct lengths (≤33 for IPv4), so
//! the per-clue probe is "pick the window for this length, one
//! multiply-shift home slot, linear scan" over one flat slot array — no
//! SipHash, no FxHash, one predictable cache line for the common case.
//! The slot inlines the entry's payload, so a Final lookup resolves
//! with a single data-dependent load. Both backends hold the identical
//! structure (one [`Arc`](std::sync::Arc) each), so bucket behaviour
//! and the single mandatory [`Cost::hash_probe`](clue_trie::Cost::hash_probe)
//! charge cannot drift between them.

use clue_trie::{Address, Prefix};

use crate::flow::{ClueIndex, NO_TAG};
use crate::frozen::{FrozenEngine, NONE_NODE};
use crate::prefetch::prefetch_read;

/// Empty-slot sentinel in a clue bucket (the slot's `cont` field).
const EMPTY_SLOT: u32 = u32::MAX;

/// Occupied-and-final sentinel in a clue bucket's `cont` field: the
/// inlined entry has no Claim-1 continuation. Distinct from
/// [`EMPTY_SLOT`]; real continuation vertices are dense indices far
/// below either sentinel.
const FINAL_SLOT: u32 = u32::MAX - 1;

/// `fd_len` value marking an absent FD field in a [`BucketSlot`].
const NO_FD: u8 = u8::MAX;

/// Descriptor of one length's open-addressed region inside the shared
/// flat slot array: clues of length `l` live in
/// `slots[offset .. offset + mask + 1]`, a power-of-two window at most
/// half full, so a multiply-shift home index plus a short linear scan
/// always terminates on an empty slot. Lengths with no clues point at
/// the shared always-empty sentinel slot 0 (`mask == 0`), so the probe
/// needs no emptiness branch. One flat array (instead of a `Vec` per
/// length) keeps the probe to two dependent loads: this 12-byte
/// descriptor, then the slot itself.
#[derive(Debug, Clone, Copy)]
struct BucketDesc {
    offset: u32,
    /// `capacity - 1` of the window (0 for the empty sentinel).
    mask: u32,
    /// `64 - log2(capacity)` — the multiply-shift downshift.
    shift: u32,
}

const EMPTY_DESC: BucketDesc = BucketDesc { offset: 0, mask: 0, shift: 63 };

/// One probe slot with the clue entry's payload inlined: a Final-class
/// lookup — the overwhelming steady-state majority — resolves with a
/// single data-dependent load (the frozen path needs the hash slot
/// *and* a separate entry record). The FD prefix is stored unpacked
/// (bits + length, [`NO_FD`] for none) and the struct is 16-aligned so
/// an IPv4 slot is 16 bytes and never straddles a cache line.
#[derive(Debug, Clone, Copy)]
#[repr(align(16))]
struct BucketSlot<A: Address> {
    key: A,
    /// Bits of the inlined FD field ([`Address::ZERO`] when absent).
    fd_bits: A,
    /// Inlined continuation: a vertex index into the walk arena,
    /// [`FINAL_SLOT`] when the entry is final, or [`EMPTY_SLOT`] when
    /// the slot is vacant.
    cont: u32,
    /// Length of the inlined FD prefix, [`NO_FD`] when absent.
    fd_len: u8,
}

/// Fibonacci multiply-shift over the (masked) clue bits; the high bits
/// of the product index the bucket window. At width 128 the two halves
/// are folded first.
#[inline]
fn fold_hash<A: Address>(bits: A) -> u64 {
    let x = bits.to_u128();
    (((x >> 64) as u64) ^ (x as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The clue buckets compiled from a frozen snapshot: per-length
/// power-of-two probe windows over one shared slot array (slot 0 the
/// always-empty sentinel), with a parallel FD tag array resolving into
/// the snapshot's tag dictionary. A probed entry is its absolute slot
/// index.
#[derive(Debug)]
pub struct ClueBuckets<A: Address> {
    /// Per-length windows into `slots`, indexed by clue length.
    desc: Vec<BucketDesc>,
    /// All length windows back to back.
    slots: Vec<BucketSlot<A>>,
    /// Per-slot FD tag ([`NO_TAG`] when the slot has none) — the tagged
    /// twin of the inlined `fd_bits`/`fd_len`, kept parallel rather
    /// than widening the probed slot.
    fd_tags: Vec<u32>,
}

impl<A: Address> ClueBuckets<A> {
    /// Builds the buckets in canonical (sorted-clue) order so
    /// compilation stays a pure function of the snapshot. FD tags are
    /// read off the frozen entries — the tag dictionary itself is
    /// assigned at freeze time, shared by every backend compiled from
    /// the snapshot.
    pub(crate) fn build(frozen: &FrozenEngine<A>) -> Self {
        let mut by_len: Vec<Vec<(A, u32)>> = vec![Vec::new(); A::BITS as usize + 1];
        let mut sorted: Vec<_> = frozen.raw_map().iter().map(|(clue, &i)| (*clue, i)).collect();
        sorted.sort_by_key(|(clue, _)| *clue);
        for (clue, i) in sorted {
            by_len[clue.len() as usize].push((clue.bits(), i));
        }
        let vacant =
            BucketSlot { key: A::ZERO, fd_bits: A::ZERO, cont: EMPTY_SLOT, fd_len: NO_FD };
        let entries = frozen.raw_entries();
        let mut desc_v = Vec::with_capacity(by_len.len());
        let mut slots = vec![vacant];
        let mut fd_tags = vec![NO_TAG];
        for keys in by_len {
            if keys.is_empty() {
                desc_v.push(EMPTY_DESC);
                continue;
            }
            let cap = (keys.len() * 2).next_power_of_two().max(2);
            let desc = BucketDesc {
                offset: slots.len() as u32,
                mask: (cap - 1) as u32,
                shift: 64 - cap.trailing_zeros(),
            };
            slots.resize(slots.len() + cap, vacant);
            fd_tags.resize(slots.len(), NO_TAG);
            for (bits, entry) in keys {
                let e = &entries[entry as usize];
                let cont = if e.cont == NONE_NODE { FINAL_SLOT } else { e.cont };
                let (fd_bits, fd_len) = match e.fd {
                    Some(p) => (p.bits(), p.len()),
                    None => (A::ZERO, NO_FD),
                };
                let mut k = (fold_hash(bits) >> desc.shift) as u32;
                loop {
                    let i = (desc.offset + (k & desc.mask)) as usize;
                    if slots[i].cont == EMPTY_SLOT {
                        slots[i] = BucketSlot { key: bits, fd_bits, cont, fd_len };
                        fd_tags[i] = e.fd_tag;
                        break;
                    }
                    debug_assert!(slots[i].key != bits, "duplicate clue in bucket");
                    k = k.wrapping_add(1);
                }
            }
            desc_v.push(desc);
        }
        ClueBuckets { desc: desc_v, slots, fd_tags }
    }

    /// Bytes of the buckets (descriptors, slots, FD tags).
    pub(crate) fn bytes(&self) -> u64 {
        (core::mem::size_of_val(self.desc.as_slice())
            + core::mem::size_of_val(self.slots.as_slice())
            + core::mem::size_of_val(self.fd_tags.as_slice())) as u64
    }

    /// The probe from counter `k` (the multiply-shift home) of length
    /// `len`'s window: one descriptor read, then a linear scan that in
    /// the half-full steady state touches a single slot. Returns the
    /// matching slot index and the bytes the scan dereferenced (the
    /// descriptor plus every slot visited) — the profiled path's byte
    /// model; the plain probe discards it.
    #[inline]
    pub(crate) fn probe_scan(&self, len: u8, bits: A, mut k: u32) -> (Option<usize>, u64) {
        let d = self.desc[len as usize];
        let mut bytes = core::mem::size_of::<BucketDesc>() as u64;
        loop {
            let i = (d.offset + (k & d.mask)) as usize;
            let slot = &self.slots[i];
            bytes += core::mem::size_of::<BucketSlot<A>>() as u64;
            if slot.cont == EMPTY_SLOT {
                return (None, bytes);
            }
            if slot.key == bits {
                return (Some(i), bytes);
            }
            k = k.wrapping_add(1);
        }
    }
}

impl<A: Address> ClueIndex<A> for ClueBuckets<A> {
    type Entry = usize;

    const PREFETCHABLE: bool = true;

    #[inline]
    fn home(&self, clue: Prefix<A>) -> u32 {
        (fold_hash(clue.bits()) >> self.desc[clue.len() as usize].shift) as u32
    }

    #[inline]
    fn prefetch(&self, len: u8, home: u32) {
        let d = self.desc[len as usize];
        prefetch_read(&self.slots[(d.offset + (home & d.mask)) as usize]);
    }

    #[inline]
    fn probe(&self, clue: Prefix<A>, home: u32) -> Option<usize> {
        self.probe_scan(clue.len(), clue.bits(), home).0
    }

    #[inline]
    fn continuation(&self, entry: usize) -> Option<u32> {
        let cont = self.slots[entry].cont;
        (cont != FINAL_SLOT).then_some(cont)
    }

    #[inline]
    fn fd(&self, entry: usize) -> Option<Prefix<A>> {
        let slot = &self.slots[entry];
        (slot.fd_len != NO_FD).then(|| Prefix::new(slot.fd_bits, slot.fd_len))
    }

    #[inline]
    fn fd_tag(&self, entry: usize) -> u32 {
        self.fd_tags[entry]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ClueEngine, EngineConfig, Method};
    use clue_lookup::Family;
    use clue_trie::Ip4;

    fn p(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    #[test]
    fn buckets_find_every_clue_and_only_clues() {
        let sender = vec![p("10.0.0.0/8"), p("10.1.0.0/16"), p("192.168.0.0/16")];
        let receiver = vec![
            p("10.0.0.0/8"),
            p("10.1.0.0/16"),
            p("10.1.2.0/24"),
            p("10.2.0.0/16"),
            p("192.168.0.0/16"),
        ];
        let frozen = ClueEngine::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Advance),
        )
        .freeze()
        .unwrap();
        let buckets = ClueBuckets::build(&frozen);
        let get = |clue: Prefix<Ip4>| buckets.probe(clue, buckets.home(clue));
        for (clue, &i) in frozen.raw_map() {
            let entry = &frozen.raw_entries()[i as usize];
            let slot = get(*clue).unwrap_or_else(|| panic!("clue {clue} missing from its bucket"));
            assert_eq!(buckets.slots[slot].key, clue.bits());
            assert_eq!(buckets.fd(slot), entry.fd, "inlined FD diverges for {clue}");
            assert_eq!(buckets.fd_tag(slot), entry.fd_tag, "FD tag diverges for {clue}");
            let want = (entry.cont != NONE_NODE).then_some(entry.cont);
            assert_eq!(buckets.continuation(slot), want, "continuation diverges for {clue}");
        }
        assert!(get(p("10.1.2.0/24")).is_none(), "receiver-only route is no clue");
        assert!(get(p("0.0.0.0/0")).is_none(), "length-0 window is the empty sentinel");
    }
}
