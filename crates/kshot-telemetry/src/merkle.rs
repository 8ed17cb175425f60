//! Merkle digest roll-up for fleet-scale state attestation.
//!
//! A campaign proving "every machine converged to the same applied
//! state" used to carry one 32-byte digest per machine and compare the
//! vector at the end — O(machines) resident memory for a property that
//! is really one bit. [`DigestTree`] replaces the vector with a
//! deterministic incremental Merkle accumulator over the digests *in
//! canonical machine order*:
//!
//! * **O(log n) frontier.** The accumulator holds only the canonical
//!   forest of perfect subtrees covering the appended range (a Merkle
//!   mountain range), never the leaves. A million machines cost ~20
//!   resident nodes.
//! * **Order-fixed append.** Leaf `i` must be appended at position `i`;
//!   the forest shape — and therefore the root — is a pure function of
//!   the leaf sequence, independent of worker count, pipeline depth, or
//!   scheduling.
//! * **Adjacent-range merge.** A tree over machines `[a, b)` merges
//!   with a tree over `[b, c)` into exactly the tree sequential appends
//!   over `[a, c)` would have built, in O(log n). Offline readers use
//!   this to join roll-ups reconstructed from shard lines.
//! * **Root equality replaces digest-vector equality.** Two campaigns
//!   over the same machine count converged to identical per-machine
//!   state iff their roots are byte-identical (modulo SHA-256
//!   collisions).
//!
//! Node hashes are domain-separated SHA-256: leaves enter raw (they are
//! already digests), interior nodes hash `0x01 ‖ left ‖ right`, and the
//! root "bags" the forest peaks left to right with `0x02 ‖ acc ‖ peak`,
//! so a peak list can never be confused with an interior combine. The
//! crate stays dependency-free: the compression function lives here and
//! is cross-checked against `kshot-crypto`'s SHA-256 by the fleet's
//! roll-up tests.

/// One 32-byte leaf or node digest.
pub type Digest = [u8; 32];

/// The root of a tree with no leaves (no machines appended).
pub const EMPTY_ROOT: Digest = [0; 32];

/// A frontier node: one perfect subtree of the covered range. `(level,
/// index)` identify it positionally — it covers leaves `[index <<
/// level, (index + 1) << level)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontierNode {
    /// Height of the subtree (0 = a single leaf).
    pub level: u32,
    /// Position of the subtree among its level's aligned slots.
    pub index: u64,
    /// The subtree's Merkle hash.
    pub hash: Digest,
}

impl FrontierNode {
    /// First leaf position covered by this node.
    pub fn first_leaf(&self) -> u64 {
        self.index << self.level
    }

    /// One past the last leaf position covered by this node.
    pub fn end_leaf(&self) -> u64 {
        (self.index + 1) << self.level
    }
}

/// Errors from [`DigestTree::merge`] and [`DigestTree::from_frontier`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MerkleError {
    /// `merge` was given a tree that does not start exactly where this
    /// one ends.
    NotAdjacent {
        /// One past this tree's last appended position.
        expected_start: u64,
        /// Where the offered tree actually starts.
        actual_start: u64,
    },
    /// A deserialized frontier does not tile its declared `[start,
    /// next)` range (gap, overlap, or misalignment at `position`).
    BadFrontier {
        /// Leaf position at which tiling broke.
        position: u64,
    },
}

impl std::fmt::Display for MerkleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MerkleError::NotAdjacent {
                expected_start,
                actual_start,
            } => write!(
                f,
                "merge ranges not adjacent: expected start {expected_start}, got {actual_start}"
            ),
            MerkleError::BadFrontier { position } => {
                write!(f, "frontier does not tile its range at leaf {position}")
            }
        }
    }
}

impl std::error::Error for MerkleError {}

/// Deterministic incremental Merkle accumulator over machine digests in
/// canonical machine order. See the module docs for the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestTree {
    /// Absolute position of the first leaf this tree covers.
    start: u64,
    /// Absolute position the next [`append`](Self::append) lands at.
    next: u64,
    /// Canonical forest of the covered range, ascending by first leaf.
    /// Invariant: no two adjacent nodes are combinable siblings.
    nodes: Vec<FrontierNode>,
}

impl Default for DigestTree {
    fn default() -> Self {
        DigestTree::new()
    }
}

impl DigestTree {
    /// An empty tree whose first append lands at position 0.
    pub fn new() -> DigestTree {
        DigestTree::starting_at(0)
    }

    /// An empty tree whose first append lands at `start` — the form a
    /// worker uses for its contiguous machine range.
    pub fn starting_at(start: u64) -> DigestTree {
        DigestTree {
            start,
            next: start,
            nodes: Vec::new(),
        }
    }

    /// Build a tree by appending every digest of `leaves` in order,
    /// starting at position 0 — the digest-vector form the roll-up
    /// replaces, kept for root-vs-vector equality proofs.
    pub fn from_leaves(leaves: &[Digest]) -> DigestTree {
        let mut tree = DigestTree::new();
        for leaf in leaves {
            tree.append(*leaf);
        }
        tree
    }

    /// Absolute position of the first covered leaf.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// One past the last appended position (where the next append goes).
    pub fn end(&self) -> u64 {
        self.next
    }

    /// Number of leaves appended.
    pub fn len(&self) -> u64 {
        self.next - self.start
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.next == self.start
    }

    /// Append the digest for the next machine in canonical order.
    pub fn append(&mut self, leaf: Digest) {
        self.nodes.push(FrontierNode {
            level: 0,
            index: self.next,
            hash: leaf,
        });
        self.next += 1;
        self.coalesce_tail();
    }

    /// Combine the tail of the forest while its last two nodes are
    /// aligned siblings. Appends only ever create combinable pairs at
    /// the tail, so this keeps the forest canonical in O(log n)
    /// amortized per append.
    fn coalesce_tail(&mut self) {
        while self.nodes.len() >= 2 {
            let r = self.nodes[self.nodes.len() - 1];
            let l = self.nodes[self.nodes.len() - 2];
            if l.level == r.level && l.index.is_multiple_of(2) && r.index == l.index + 1 {
                let parent = FrontierNode {
                    level: l.level + 1,
                    index: l.index >> 1,
                    hash: combine(&l.hash, &r.hash),
                };
                self.nodes.truncate(self.nodes.len() - 2);
                self.nodes.push(parent);
            } else {
                break;
            }
        }
    }

    /// Fold a tree covering the range immediately after this one into
    /// this one. The result is exactly the tree sequential appends over
    /// the union range would have built.
    ///
    /// # Errors
    ///
    /// [`MerkleError::NotAdjacent`] when `right` does not start at
    /// [`end`](Self::end); `self` is unchanged.
    pub fn merge(&mut self, right: &DigestTree) -> Result<(), MerkleError> {
        if right.start != self.next {
            return Err(MerkleError::NotAdjacent {
                expected_start: self.next,
                actual_start: right.start,
            });
        }
        // Pushing right's canonical nodes in ascending order recreates
        // the combine cascade sequential appends would have run: every
        // new combinable pair forms at the tail.
        for node in &right.nodes {
            self.nodes.push(*node);
            self.coalesce_tail();
        }
        self.next = right.next;
        Ok(())
    }

    /// The Merkle root over everything appended so far: the forest
    /// peaks bagged left to right. [`EMPTY_ROOT`] for an empty tree; a
    /// single machine's root is its digest.
    pub fn root(&self) -> Digest {
        let mut peaks = self.nodes.iter();
        let Some(first) = peaks.next() else {
            return EMPTY_ROOT;
        };
        let mut acc = first.hash;
        for peak in peaks {
            acc = bag(&acc, &peak.hash);
        }
        acc
    }

    /// The resident frontier, ascending by first covered leaf —
    /// O(log n) nodes. Streamed into worker shards so an offline reader
    /// can re-merge worker trees without per-machine digests.
    pub fn frontier(&self) -> &[FrontierNode] {
        &self.nodes
    }

    /// Rebuild a tree from a serialized frontier (`nodes` ascending, as
    /// [`frontier`](Self::frontier) produced them) covering `[start,
    /// start + len)`.
    ///
    /// # Errors
    ///
    /// [`MerkleError::BadFrontier`] when the nodes do not tile the
    /// declared range.
    pub fn from_frontier(
        start: u64,
        len: u64,
        nodes: Vec<FrontierNode>,
    ) -> Result<DigestTree, MerkleError> {
        let mut cursor = start;
        for node in &nodes {
            if node.first_leaf() != cursor {
                return Err(MerkleError::BadFrontier { position: cursor });
            }
            cursor = node.end_leaf();
        }
        if cursor != start + len {
            return Err(MerkleError::BadFrontier { position: cursor });
        }
        let mut tree = DigestTree {
            start,
            next: start + len,
            nodes,
        };
        // A canonical producer never emits combinable siblings, but
        // coalescing an already-canonical forest is a no-op — cheap
        // insurance against a hand-built frontier.
        tree.coalesce_tail();
        Ok(tree)
    }

    /// Bytes resident in the accumulator — the O(log n) frontier plus
    /// the fixed header.
    pub fn resident_bytes(&self) -> u64 {
        (std::mem::size_of::<DigestTree>()
            + self.nodes.capacity() * std::mem::size_of::<FrontierNode>()) as u64
    }
}

/// Interior combine: `SHA-256(0x01 ‖ left ‖ right)`.
fn combine(left: &Digest, right: &Digest) -> Digest {
    tagged_pair_hash(0x01, left, right)
}

/// Peak bagging: `SHA-256(0x02 ‖ acc ‖ peak)` — domain-separated from
/// interior combines so a bagged root can't alias a subtree hash.
fn bag(acc: &Digest, peak: &Digest) -> Digest {
    tagged_pair_hash(0x02, acc, peak)
}

fn tagged_pair_hash(tag: u8, a: &Digest, b: &Digest) -> Digest {
    let mut buf = [0u8; 65];
    buf[0] = tag;
    buf[1..33].copy_from_slice(a);
    buf[33..].copy_from_slice(b);
    sha256(&buf)
}

/// Lowercase hex of a digest — the form roots travel in shard lines and
/// benchmark artefacts.
pub fn digest_hex(digest: &Digest) -> String {
    let mut out = String::with_capacity(64);
    for byte in digest {
        out.push(char::from_digit((byte >> 4) as u32, 16).expect("nibble"));
        out.push(char::from_digit((byte & 0xF) as u32, 16).expect("nibble"));
    }
    out
}

/// Parse a 64-char lowercase/uppercase hex digest. `None` on any
/// malformed input.
pub fn digest_from_hex(hex: &str) -> Option<Digest> {
    let bytes = hex.as_bytes();
    if bytes.len() != 64 {
        return None;
    }
    let mut out = [0u8; 32];
    for (i, pair) in bytes.chunks_exact(2).enumerate() {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out[i] = ((hi << 4) | lo) as u8;
    }
    Some(out)
}

// --- SHA-256 (FIPS 180-4), kept local so the telemetry crate stays
// dependency-free. Cross-checked against kshot-crypto's implementation
// by the fleet roll-up tests.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256 of `data`.
fn sha256(data: &[u8]) -> Digest {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut padded = Vec::with_capacity(data.len() + 72);
    padded.extend_from_slice(data);
    padded.push(0x80);
    while padded.len() % 64 != 56 {
        padded.push(0);
    }
    padded.extend_from_slice(&bit_len.to_be_bytes());
    let mut w = [0u32; 64];
    for block in padded.chunks_exact(64) {
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("four bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
        h[5] = h[5].wrapping_add(f);
        h[6] = h[6].wrapping_add(g);
        h[7] = h[7].wrapping_add(hh);
    }
    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(i: u64) -> Digest {
        let mut d = [0u8; 32];
        d[..8].copy_from_slice(&i.to_le_bytes());
        d[31] = 0xA5;
        d
    }

    #[test]
    fn sha256_matches_fips_vectors() {
        // FIPS 180-4 "abc" and empty-string vectors.
        assert_eq!(
            digest_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            digest_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn empty_and_single_roots() {
        let mut t = DigestTree::new();
        assert_eq!(t.root(), EMPTY_ROOT);
        assert!(t.is_empty());
        t.append(leaf(0));
        // One machine's root is its digest — no fake padding sibling.
        assert_eq!(t.root(), leaf(0));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn frontier_stays_logarithmic() {
        let mut t = DigestTree::new();
        for i in 0..1_000_000u64 {
            t.append(leaf(i % 7));
        }
        // 1e6 < 2^20: at most 20 peaks.
        assert!(t.frontier().len() <= 20, "{} peaks", t.frontier().len());
        assert!(t.resident_bytes() < 4096);
    }

    #[test]
    fn root_depends_on_order_and_content() {
        let a = DigestTree::from_leaves(&[leaf(1), leaf(2), leaf(3)]);
        let b = DigestTree::from_leaves(&[leaf(1), leaf(3), leaf(2)]);
        let c = DigestTree::from_leaves(&[leaf(1), leaf(2), leaf(3)]);
        assert_ne!(a.root(), b.root());
        assert_eq!(a.root(), c.root());
        // A prefix has a different root than the full sequence.
        let p = DigestTree::from_leaves(&[leaf(1), leaf(2)]);
        assert_ne!(p.root(), a.root());
    }

    #[test]
    fn merge_of_adjacent_ranges_equals_sequential_appends() {
        let leaves: Vec<Digest> = (0..157).map(leaf).collect();
        let reference = DigestTree::from_leaves(&leaves);
        // Every 3-way contiguous split must reassemble to the same tree.
        for i in [0usize, 1, 5, 64, 100, 156, 157] {
            for j in [i, i + 1, 128, 157] {
                let j = j.clamp(i, 157);
                let mut left = DigestTree::starting_at(0);
                leaves[..i].iter().for_each(|l| left.append(*l));
                let mut mid = DigestTree::starting_at(i as u64);
                leaves[i..j].iter().for_each(|l| mid.append(*l));
                let mut right = DigestTree::starting_at(j as u64);
                leaves[j..].iter().for_each(|l| right.append(*l));
                left.merge(&mid).expect("adjacent");
                left.merge(&right).expect("adjacent");
                assert_eq!(left, reference, "split at {i}/{j}");
                assert_eq!(left.root(), reference.root());
            }
        }
    }

    #[test]
    fn merge_rejects_non_adjacent_ranges() {
        let mut a = DigestTree::from_leaves(&[leaf(0), leaf(1)]);
        let b = DigestTree::starting_at(5);
        assert_eq!(
            a.merge(&b),
            Err(MerkleError::NotAdjacent {
                expected_start: 2,
                actual_start: 5
            })
        );
        // Failed merge leaves the accumulator usable.
        a.append(leaf(2));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn frontier_round_trips() {
        let tree = DigestTree::from_leaves(&(0..13).map(leaf).collect::<Vec<_>>());
        let rebuilt = DigestTree::from_frontier(0, 13, tree.frontier().to_vec()).expect("tiles");
        assert_eq!(rebuilt, tree);
        // A gap in the frontier is rejected.
        let mut nodes = tree.frontier().to_vec();
        nodes.remove(1);
        assert!(matches!(
            DigestTree::from_frontier(0, 13, nodes),
            Err(MerkleError::BadFrontier { .. })
        ));
    }

    #[test]
    fn hex_round_trips() {
        let d = leaf(0xDEAD_BEEF);
        assert_eq!(digest_from_hex(&digest_hex(&d)), Some(d));
        assert_eq!(digest_from_hex("zz"), None);
        assert_eq!(digest_from_hex(&"0".repeat(63)), None);
    }
}
