//! Longest-prefix-match engines and their cost models.
//!
//! The paper's §8 cites NPSE \[9\]: "In comparison with CAM-based look-up
//! methods, it relies on an SRAM-based approach that is more memory and
//! power-efficient." Experiment T5 reproduces that comparison with four
//! engines sharing one trait:
//!
//! * [`LinearTable`] — the obviously-correct reference (and the property
//!   tests' oracle).
//! * [`BinaryTrie`] — one bit per level.
//! * [`MultibitTrie`] — stride-`k` SRAM trie with controlled prefix
//!   expansion: the NPSE stand-in. Fewer memory accesses per lookup at the
//!   cost of expanded entries.
//! * [`CamTable`] — a ternary-CAM cost model: single-cycle lookups but every
//!   cell burns compare energy on every search, and TCAM cells are ~16×
//!   SRAM area per stored bit.

use std::fmt;

/// An IPv4 prefix: the top `len` bits of `addr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    /// Network address (host bits must be zero — constructors mask them).
    pub addr: u32,
    /// Prefix length in bits, 0..=32.
    pub len: u8,
}

impl Prefix {
    /// Creates a prefix, masking host bits.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn new(addr: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} exceeds 32");
        Prefix {
            addr: addr & Self::mask(len),
            len,
        }
    }

    /// Network mask for a prefix length.
    pub fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// Whether this prefix covers `addr`.
    pub fn matches(&self, addr: u32) -> bool {
        (addr & Self::mask(self.len)) == self.addr
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.addr.to_be_bytes();
        write!(f, "{}.{}.{}.{}/{}", b[0], b[1], b[2], b[3], self.len)
    }
}

/// A longest-prefix-match table mapping prefixes to next-hop ids.
pub trait LpmTable {
    /// Inserts (or replaces) a route.
    fn insert(&mut self, prefix: Prefix, next_hop: u32);

    /// Longest-prefix-match lookup.
    fn lookup(&self, addr: u32) -> Option<u32>;

    /// Number of installed routes.
    fn route_count(&self) -> usize;

    /// Storage bits consumed by the engine (T5's memory axis).
    fn storage_bits(&self) -> u64;

    /// Memory accesses per lookup in the worst case (T5's latency axis —
    /// multiply by the SRAM access time; 1 for CAM).
    fn worst_case_accesses(&self) -> u32;

    /// Energy per lookup in picojoules (T5's power axis).
    fn lookup_energy_pj(&self) -> f64;

    /// Engine name for reports.
    fn name(&self) -> &'static str;
}

/// Energy to read one 32-bit SRAM word (order-of-magnitude, 0.13 µm).
const SRAM_READ_PJ_PER_WORD: f64 = 2.0;
/// Energy for one TCAM cell compare.
const TCAM_COMPARE_PJ_PER_BIT: f64 = 0.015;

/// The linear-scan reference implementation.
#[derive(Debug, Clone, Default)]
pub struct LinearTable {
    routes: Vec<(Prefix, u32)>,
}

impl LinearTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        LinearTable::default()
    }
}

impl LpmTable for LinearTable {
    fn insert(&mut self, prefix: Prefix, next_hop: u32) {
        if let Some(r) = self.routes.iter_mut().find(|(p, _)| *p == prefix) {
            r.1 = next_hop;
        } else {
            self.routes.push((prefix, next_hop));
        }
    }

    fn lookup(&self, addr: u32) -> Option<u32> {
        self.routes
            .iter()
            .filter(|(p, _)| p.matches(addr))
            .max_by_key(|(p, _)| p.len)
            .map(|&(_, nh)| nh)
    }

    fn route_count(&self) -> usize {
        self.routes.len()
    }

    fn storage_bits(&self) -> u64 {
        // 32b addr + 6b len + 32b next hop per route.
        self.routes.len() as u64 * 70
    }

    fn worst_case_accesses(&self) -> u32 {
        self.routes.len() as u32
    }

    fn lookup_energy_pj(&self) -> f64 {
        self.routes.len() as f64 * SRAM_READ_PJ_PER_WORD * 2.0
    }

    fn name(&self) -> &'static str {
        "linear"
    }
}

#[derive(Debug, Clone, Default)]
struct BinNode {
    next_hop: Option<u32>,
    children: [Option<Box<BinNode>>; 2],
}

/// A unibit (binary) trie.
#[derive(Debug, Clone, Default)]
pub struct BinaryTrie {
    root: BinNode,
    routes: usize,
    nodes: u64,
}

impl BinaryTrie {
    /// Creates an empty trie.
    pub fn new() -> Self {
        BinaryTrie {
            root: BinNode::default(),
            routes: 0,
            nodes: 1,
        }
    }
}

impl LpmTable for BinaryTrie {
    fn insert(&mut self, prefix: Prefix, next_hop: u32) {
        let mut node = &mut self.root;
        for i in 0..prefix.len {
            let bit = ((prefix.addr >> (31 - i)) & 1) as usize;
            if node.children[bit].is_none() {
                node.children[bit] = Some(Box::new(BinNode::default()));
                self.nodes += 1;
            }
            node = node.children[bit].as_mut().expect("just ensured");
        }
        if node.next_hop.replace(next_hop).is_none() {
            self.routes += 1;
        }
    }

    fn lookup(&self, addr: u32) -> Option<u32> {
        let mut node = &self.root;
        let mut best = node.next_hop;
        for i in 0..32 {
            let bit = ((addr >> (31 - i)) & 1) as usize;
            match &node.children[bit] {
                Some(c) => {
                    node = c;
                    if node.next_hop.is_some() {
                        best = node.next_hop;
                    }
                }
                None => break,
            }
        }
        best
    }

    fn route_count(&self) -> usize {
        self.routes
    }

    fn storage_bits(&self) -> u64 {
        // Per node: 2 child pointers (~22b each) + next hop (32b) + flag.
        self.nodes * (2 * 22 + 32 + 1)
    }

    fn worst_case_accesses(&self) -> u32 {
        32
    }

    fn lookup_energy_pj(&self) -> f64 {
        // One node word per level on average ~ prefix depth; use worst case.
        32.0 * SRAM_READ_PJ_PER_WORD
    }

    fn name(&self) -> &'static str {
        "binary-trie"
    }
}

#[derive(Debug, Clone)]
struct MbNode {
    /// Next hop per expanded slot, with the originating prefix length so
    /// longer prefixes win on overwrite (controlled prefix expansion).
    slots: Vec<Option<(u8, u32)>>,
    children: Vec<Option<Box<MbNode>>>,
}

impl MbNode {
    fn new(fanout: usize) -> Self {
        MbNode {
            slots: vec![None; fanout],
            children: (0..fanout).map(|_| None).collect(),
        }
    }
}

/// A multibit-stride trie with controlled prefix expansion — the SRAM-based
/// NPSE-style engine.
#[derive(Debug, Clone)]
pub struct MultibitTrie {
    root: MbNode,
    stride: u8,
    routes: usize,
    nodes: u64,
}

impl MultibitTrie {
    /// Creates a trie with the given stride (bits consumed per level).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= stride <= 8`.
    pub fn new(stride: u8) -> Self {
        assert!((1..=8).contains(&stride), "stride {stride} out of 1..=8");
        MultibitTrie {
            root: MbNode::new(1 << stride),
            stride,
            routes: 0,
            nodes: 1,
        }
    }
}

/// The `stride`-bit index field starting at bit offset `consumed` of `addr`,
/// zero-padded past bit 31 (so strides that do not divide 32 work).
fn level_index(addr: u32, consumed: u8, stride: u8) -> usize {
    let window = if consumed == 0 {
        addr
    } else if consumed >= 32 {
        0
    } else {
        addr << consumed
    };
    (window >> (32 - stride)) as usize
}

impl LpmTable for MultibitTrie {
    fn insert(&mut self, prefix: Prefix, next_hop: u32) {
        let stride = self.stride;
        let fanout = 1usize << stride;
        let mut node = &mut self.root;
        let mut consumed = 0u8;
        // Descend while the prefix covers whole strides.
        while prefix.len - consumed >= stride {
            let idx = level_index(prefix.addr, consumed, stride);
            consumed += stride;
            if consumed == prefix.len {
                // Exact stride boundary: single slot.
                let slot = &mut node.slots[idx];
                let had = slot.is_some_and(|(l, _)| l == prefix.len);
                if slot.is_none_or(|(l, _)| l <= prefix.len) {
                    *slot = Some((prefix.len, next_hop));
                }
                if !had {
                    self.routes += 1;
                }
                return;
            }
            if node.children[idx].is_none() {
                node.children[idx] = Some(Box::new(MbNode::new(fanout)));
                self.nodes += 1;
            }
            node = node.children[idx].as_mut().expect("just ensured");
        }
        // Partial last stride: controlled prefix expansion over the unused
        // low bits of the index field (prefix host bits are zero, so the
        // base index has them cleared already).
        let rem = prefix.len - consumed;
        let base = level_index(prefix.addr, consumed, stride);
        let span = 1usize << (stride - rem);
        let mut inserted_new = false;
        for k in 0..span {
            let idx = base + k;
            let slot = &mut node.slots[idx];
            match *slot {
                Some((l, _)) if l > prefix.len => {}
                _ => {
                    if slot.is_none_or(|(l, _)| l < prefix.len) {
                        inserted_new = true;
                    }
                    *slot = Some((prefix.len, next_hop));
                }
            }
        }
        if inserted_new {
            self.routes += 1;
        }
    }

    fn lookup(&self, addr: u32) -> Option<u32> {
        let stride = self.stride;
        let mut node = &self.root;
        let mut consumed = 0u8;
        let mut best: Option<(u8, u32)> = None;
        loop {
            let idx = level_index(addr, consumed, stride);
            if let Some(s) = node.slots[idx] {
                if best.is_none_or(|(l, _)| s.0 >= l) {
                    best = Some(s);
                }
            }
            consumed = consumed.saturating_add(stride);
            if consumed >= 32 {
                break;
            }
            match &node.children[idx] {
                Some(c) => node = c,
                None => break,
            }
        }
        best.map(|(_, nh)| nh)
    }

    fn route_count(&self) -> usize {
        self.routes
    }

    fn storage_bits(&self) -> u64 {
        let fanout = 1u64 << self.stride;
        // Per slot: next hop (32b) + length (6b) + child pointer (22b).
        self.nodes * fanout * (32 + 6 + 22)
    }

    fn worst_case_accesses(&self) -> u32 {
        32u32.div_ceil(self.stride as u32)
    }

    fn lookup_energy_pj(&self) -> f64 {
        f64::from(self.worst_case_accesses()) * SRAM_READ_PJ_PER_WORD * 2.0
    }

    fn name(&self) -> &'static str {
        "multibit-trie"
    }
}

/// A ternary CAM cost model: functionally an LPM table, with the energy and
/// area characteristics of parallel-compare hardware.
#[derive(Debug, Clone, Default)]
pub struct CamTable {
    routes: Vec<(Prefix, u32)>,
}

impl CamTable {
    /// Creates an empty CAM.
    pub fn new() -> Self {
        CamTable::default()
    }

    /// TCAM-to-SRAM area ratio per stored bit (a TCAM cell is ~16 transistors
    /// versus 6 for SRAM, plus match lines) — used by T5's area comparison.
    pub const AREA_RATIO_VS_SRAM: f64 = 2.7;
}

impl LpmTable for CamTable {
    fn insert(&mut self, prefix: Prefix, next_hop: u32) {
        if let Some(r) = self.routes.iter_mut().find(|(p, _)| *p == prefix) {
            r.1 = next_hop;
        } else {
            self.routes.push((prefix, next_hop));
        }
    }

    fn lookup(&self, addr: u32) -> Option<u32> {
        // Hardware compares all entries in parallel and priority-encodes the
        // longest match; functionally identical to the linear scan.
        self.routes
            .iter()
            .filter(|(p, _)| p.matches(addr))
            .max_by_key(|(p, _)| p.len)
            .map(|&(_, nh)| nh)
    }

    fn route_count(&self) -> usize {
        self.routes.len()
    }

    fn storage_bits(&self) -> u64 {
        // 32 ternary bits (value+mask = 2 stored bits each) + 32b SRAM next
        // hop per entry.
        self.routes.len() as u64 * (32 * 2 + 32)
    }

    fn worst_case_accesses(&self) -> u32 {
        1
    }

    fn lookup_energy_pj(&self) -> f64 {
        // Every ternary cell compares on every search.
        self.routes.len() as f64 * 64.0 * TCAM_COMPARE_PJ_PER_BIT
    }

    fn name(&self) -> &'static str {
        "tcam"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engines() -> Vec<Box<dyn LpmTable>> {
        vec![
            Box::new(LinearTable::new()),
            Box::new(BinaryTrie::new()),
            Box::new(MultibitTrie::new(4)),
            Box::new(MultibitTrie::new(8)),
            Box::new(MultibitTrie::new(1)),
            Box::new(CamTable::new()),
        ]
    }

    fn ip(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
    }

    #[test]
    fn prefix_masking_and_match() {
        let p = Prefix::new(ip(10, 1, 2, 3), 16);
        assert_eq!(p.addr, ip(10, 1, 0, 0));
        assert!(p.matches(ip(10, 1, 255, 255)));
        assert!(!p.matches(ip(10, 2, 0, 0)));
        assert_eq!(p.to_string(), "10.1.0.0/16");
        assert_eq!(Prefix::mask(0), 0);
        assert_eq!(Prefix::mask(32), u32::MAX);
    }

    #[test]
    fn longest_match_wins_on_all_engines() {
        for mut t in engines() {
            t.insert(Prefix::new(ip(10, 0, 0, 0), 8), 1);
            t.insert(Prefix::new(ip(10, 1, 0, 0), 16), 2);
            t.insert(Prefix::new(ip(10, 1, 2, 0), 24), 3);
            assert_eq!(t.lookup(ip(10, 1, 2, 9)), Some(3), "{}", t.name());
            assert_eq!(t.lookup(ip(10, 1, 9, 9)), Some(2), "{}", t.name());
            assert_eq!(t.lookup(ip(10, 9, 9, 9)), Some(1), "{}", t.name());
            assert_eq!(t.lookup(ip(11, 0, 0, 0)), None, "{}", t.name());
            assert_eq!(t.route_count(), 3, "{}", t.name());
        }
    }

    #[test]
    fn default_route_matches_everything() {
        for mut t in engines() {
            t.insert(Prefix::new(0, 0), 99);
            assert_eq!(t.lookup(ip(1, 2, 3, 4)), Some(99), "{}", t.name());
            t.insert(Prefix::new(ip(1, 0, 0, 0), 8), 5);
            assert_eq!(t.lookup(ip(1, 2, 3, 4)), Some(5), "{}", t.name());
            assert_eq!(t.lookup(ip(9, 9, 9, 9)), Some(99), "{}", t.name());
        }
    }

    #[test]
    fn host_routes_and_reinsert() {
        for mut t in engines() {
            t.insert(Prefix::new(ip(192, 168, 0, 1), 32), 7);
            assert_eq!(t.lookup(ip(192, 168, 0, 1)), Some(7), "{}", t.name());
            assert_eq!(t.lookup(ip(192, 168, 0, 2)), None, "{}", t.name());
            t.insert(Prefix::new(ip(192, 168, 0, 1), 32), 8);
            assert_eq!(t.lookup(ip(192, 168, 0, 1)), Some(8), "{}", t.name());
        }
    }

    #[test]
    fn odd_prefix_lengths_on_multibit() {
        // Lengths that straddle stride boundaries exercise expansion.
        for stride in [3u8, 4, 5, 8] {
            let mut t = MultibitTrie::new(stride);
            let mut reference = LinearTable::new();
            for (i, len) in [1u8, 7, 9, 13, 17, 22, 27, 31].iter().enumerate() {
                let p = Prefix::new(ip(172, 16, 0, 0) | (i as u32) << 8, *len);
                t.insert(p, i as u32);
                reference.insert(p, i as u32);
            }
            for probe in [
                ip(172, 16, 0, 1),
                ip(172, 16, 1, 0),
                ip(172, 17, 0, 0),
                ip(172, 0, 0, 0),
                ip(128, 0, 0, 0),
            ] {
                assert_eq!(
                    t.lookup(probe),
                    reference.lookup(probe),
                    "stride {stride} probe {probe:#010x}"
                );
            }
        }
    }

    #[test]
    fn multibit_accesses_shrink_with_stride() {
        assert_eq!(MultibitTrie::new(1).worst_case_accesses(), 32);
        assert_eq!(MultibitTrie::new(4).worst_case_accesses(), 8);
        assert_eq!(MultibitTrie::new(8).worst_case_accesses(), 4);
    }

    #[test]
    fn cam_energy_grows_with_entries_trie_does_not() {
        let mut cam = CamTable::new();
        let mut trie = MultibitTrie::new(4);
        for i in 0..1000u32 {
            let p = Prefix::new(i << 12, 24);
            cam.insert(p, i);
            trie.insert(p, i);
        }
        // CAM search energy scales with table size; the trie's does not.
        assert!(cam.lookup_energy_pj() > 10.0 * trie.lookup_energy_pj());
        assert_eq!(cam.worst_case_accesses(), 1);
    }

    #[test]
    #[should_panic(expected = "out of 1..=8")]
    fn bad_stride_panics() {
        let _ = MultibitTrie::new(0);
    }

    #[test]
    #[should_panic(expected = "exceeds 32")]
    fn bad_prefix_len_panics() {
        let _ = Prefix::new(0, 33);
    }
}
