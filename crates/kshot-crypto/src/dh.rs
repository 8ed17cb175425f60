//! Finite-field Diffie–Hellman key agreement.
//!
//! The paper (§V-B/§V-C) uses Diffie–Hellman to establish a fresh session
//! key between the SGX enclave and the SMM handler before *every* patch
//! ("this cryptographic key is dynamically changed before each kernel patch
//! to guard against replay attacks"). The `mem_RW` shared region carries
//! the public values; the derived session key drives the [`crate::ChaCha20`]
//! payload cipher and [`crate::hmac`] package MACs.
//!
//! Entropy is supplied by the caller as raw bytes so this crate stays
//! dependency-free; the enclave/SMM components pass in RNG output.

use crate::bignum::BigUint;
use crate::sha256::Sha256;

/// A Diffie–Hellman group (prime modulus and generator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DhParams {
    p: BigUint,
    g: BigUint,
}

impl DhParams {
    /// Construct a group from an explicit prime and generator.
    ///
    /// # Panics
    ///
    /// Panics if `p < 3` or `g < 2` — such groups are degenerate.
    pub fn new(p: BigUint, g: BigUint) -> Self {
        assert!(
            p.cmp_to(&BigUint::from_u64(3)) != std::cmp::Ordering::Less,
            "DH modulus too small"
        );
        assert!(
            g.cmp_to(&BigUint::from_u64(2)) != std::cmp::Ordering::Less,
            "DH generator too small"
        );
        Self { p, g }
    }

    /// The default group used by the reproduction: a 512-bit safe prime
    /// (generated with `openssl dhparam`-style procedure), generator 2.
    ///
    /// Chosen so that per-patch key generation stays fast in debug builds
    /// while still exercising full multi-limb bignum arithmetic; the
    /// paper's 5.2 µs SMM key-generation figure is modelled separately by
    /// the calibrated cost model in `kshot-machine`.
    pub fn default_group() -> Self {
        // 2^512 - 569 is prime (a well-known "Crandall" prime near 2^512),
        // and (p-1)/2 has large factors; adequate for a simulation.
        let p = BigUint::from_u64(1)
            .shl(512)
            .checked_sub(&BigUint::from_u64(569))
            .expect("2^512 > 569");
        Self::new(p, BigUint::from_u64(2))
    }

    /// RFC 3526 MODP group 14 (2048-bit), for full-strength runs.
    pub fn modp_2048() -> Self {
        let p = BigUint::from_hex(concat!(
            "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1",
            "29024E088A67CC74020BBEA63B139B22514A08798E3404DD",
            "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245",
            "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED",
            "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D",
            "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F",
            "83655D23DCA3AD961C62F356208552BB9ED529077096966D",
            "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B",
            "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9",
            "DE2BCBF6955817183995497CEA956AE515D2261898FA0510",
            "15728E5A8AACAA68FFFFFFFFFFFFFFFF"
        ))
        .expect("valid RFC 3526 hex");
        Self::new(p, BigUint::from_u64(2))
    }

    /// The prime modulus.
    pub fn prime(&self) -> &BigUint {
        &self.p
    }

    /// The generator.
    pub fn generator(&self) -> &BigUint {
        &self.g
    }
}

/// A private/public DH key pair within a group.
#[derive(Debug, Clone)]
pub struct DhKeyPair {
    private: BigUint,
    public: BigUint,
}

impl DhKeyPair {
    /// Derive a key pair from caller-supplied entropy bytes.
    ///
    /// The private exponent is `entropy mod (p − 2) + 2`, guaranteeing
    /// `2 ≤ x < p`. At least 16 bytes of entropy are required.
    ///
    /// # Errors
    ///
    /// Returns `Err` if fewer than 16 entropy bytes are supplied.
    pub fn from_entropy(params: &DhParams, entropy: &[u8]) -> Result<Self, DhError> {
        if entropy.len() < 16 {
            return Err(DhError::InsufficientEntropy {
                need: 16,
                have: entropy.len(),
            });
        }
        let two = BigUint::from_u64(2);
        let span = params
            .p
            .checked_sub(&two)
            .expect("modulus ≥ 3 by construction");
        let private = BigUint::from_bytes_be(entropy).rem(&span).add(&two);
        let public = params.g.modpow(&private, &params.p);
        Ok(Self { private, public })
    }

    /// The public value to be shared with the peer.
    pub fn public(&self) -> &BigUint {
        &self.public
    }

    /// Compute the shared secret with the peer's public value and derive a
    /// 32-byte session key via SHA-256 over the secret's big-endian bytes.
    ///
    /// # Errors
    ///
    /// Rejects degenerate peer values (`0`, `1`, `p−1`, or ≥ `p`), which
    /// would let an active attacker force a predictable key.
    pub fn agree(&self, params: &DhParams, peer_public: &BigUint) -> Result<SessionKey, DhError> {
        use std::cmp::Ordering::*;
        let pm1 = params
            .p
            .checked_sub(&BigUint::from_u64(1))
            .expect("modulus ≥ 3");
        let bad = peer_public.is_zero()
            || peer_public.cmp_to(&BigUint::one()) == Equal
            || peer_public.cmp_to(&pm1) == Equal
            || peer_public.cmp_to(&params.p) != Less;
        if bad {
            return Err(DhError::InvalidPeerPublic);
        }
        let secret = peer_public.modpow(&self.private, &params.p);
        let mut h = Sha256::new();
        h.update(b"kshot-dh-kdf-v1");
        h.update(&secret.to_bytes_be());
        Ok(SessionKey(h.finalize()))
    }
}

/// A 32-byte symmetric session key derived from a DH agreement.
#[derive(Clone, PartialEq, Eq)]
pub struct SessionKey(pub [u8; 32]);

impl SessionKey {
    /// Key bytes, sized for [`crate::ChaCha20`].
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Derive a per-message nonce from a sequence number.
    ///
    /// Distinct sequence numbers yield distinct nonces under the same key,
    /// which is all ChaCha20 requires.
    pub fn nonce_for(&self, sequence: u64) -> [u8; 12] {
        let mut n = [0u8; 12];
        n[..8].copy_from_slice(&sequence.to_le_bytes());
        n[8..].copy_from_slice(&[0x6b, 0x73, 0x68, 0x74]); // "ksht"
        n
    }
}

impl std::fmt::Debug for SessionKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "SessionKey(<32 bytes>)")
    }
}

/// Errors from DH key agreement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DhError {
    /// Not enough entropy bytes were supplied to generate a private key.
    InsufficientEntropy {
        /// Minimum bytes required.
        need: usize,
        /// Bytes supplied.
        have: usize,
    },
    /// The peer's public value is degenerate or out of range.
    InvalidPeerPublic,
}

impl std::fmt::Display for DhError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DhError::InsufficientEntropy { need, have } => {
                write!(f, "insufficient entropy: need {need} bytes, have {have}")
            }
            DhError::InvalidPeerPublic => write!(f, "peer public value is degenerate"),
        }
    }
}

impl std::error::Error for DhError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn entropy(tag: u8) -> Vec<u8> {
        (0..32u8)
            .map(|i| i.wrapping_mul(31).wrapping_add(tag))
            .collect()
    }

    #[test]
    fn agreement_produces_shared_key() {
        let params = DhParams::default_group();
        let alice = DhKeyPair::from_entropy(&params, &entropy(1)).unwrap();
        let bob = DhKeyPair::from_entropy(&params, &entropy(2)).unwrap();
        let k1 = alice.agree(&params, bob.public()).unwrap();
        let k2 = bob.agree(&params, alice.public()).unwrap();
        assert_eq!(k1.as_bytes(), k2.as_bytes());
    }

    #[test]
    fn distinct_entropy_distinct_keys() {
        let params = DhParams::default_group();
        let a1 = DhKeyPair::from_entropy(&params, &entropy(1)).unwrap();
        let a2 = DhKeyPair::from_entropy(&params, &entropy(3)).unwrap();
        assert_ne!(a1.public().to_bytes_be(), a2.public().to_bytes_be());
    }

    #[test]
    fn eavesdropper_with_wrong_private_gets_wrong_key() {
        let params = DhParams::default_group();
        let alice = DhKeyPair::from_entropy(&params, &entropy(1)).unwrap();
        let bob = DhKeyPair::from_entropy(&params, &entropy(2)).unwrap();
        let eve = DhKeyPair::from_entropy(&params, &entropy(9)).unwrap();
        let real = alice.agree(&params, bob.public()).unwrap();
        let guess = eve.agree(&params, bob.public()).unwrap();
        assert_ne!(real.as_bytes(), guess.as_bytes());
    }

    #[test]
    fn rejects_degenerate_peer_values() {
        let params = DhParams::default_group();
        let alice = DhKeyPair::from_entropy(&params, &entropy(1)).unwrap();
        let pm1 = params.prime().checked_sub(&BigUint::one()).unwrap();
        for bad in [
            BigUint::zero(),
            BigUint::one(),
            pm1,
            params.prime().clone(),
            params.prime().add(&BigUint::from_u64(5)),
        ] {
            assert_eq!(alice.agree(&params, &bad), Err(DhError::InvalidPeerPublic));
        }
    }

    #[test]
    fn rejects_insufficient_entropy() {
        let params = DhParams::default_group();
        assert!(matches!(
            DhKeyPair::from_entropy(&params, &[1, 2, 3]),
            Err(DhError::InsufficientEntropy { .. })
        ));
    }

    #[test]
    fn nonce_distinct_per_sequence() {
        let k = SessionKey([0u8; 32]);
        assert_ne!(k.nonce_for(0), k.nonce_for(1));
        assert_eq!(k.nonce_for(7), k.nonce_for(7));
    }

    #[test]
    fn modp_2048_parses() {
        let params = DhParams::modp_2048();
        assert_eq!(params.prime().bit_len(), 2048);
    }

    /// Known-answer values for fixed entropy, pinned so that no bignum
    /// change can silently move the key schedule: alice's public value
    /// and the session key both sides derive.
    #[test]
    fn known_answer_public_and_session_key() {
        let cases = [
            (
                DhParams::default_group(),
                concat!(
                    "74de8f2a83870a8d110cd3822499938b2044657304518a1cf85cd76afcdc583c",
                    "07c0c6e446c63d7c0a27bd75ca21a041be145d178a24e0ee7686ff39f8287437",
                ),
                "662e409d2ef1e3416196fc71ed77a3d248753ae5c36a0f8488444fbbdf71d5b0",
            ),
            (
                DhParams::modp_2048(),
                concat!(
                    "a7fca5d6b2c37859e41ee514885cb0f2964a3481e5d730e86d982dbb9a6ef00d",
                    "0d7e59bd3494182dcb0fb95416923972f325416b3ff5e4ecb080e9e3c9104d53",
                    "8cdf9d1bc2894c1529cc6fae01444acb3bbdaa169fc398287f04aa11bf6fd88f",
                    "7d659867b873ce8a5123e37629f345929f71cdb1d77724c488741d5421deb700",
                    "6d2cc7dca545840097c66885d29bf756784cb86b3fba337dd641c3ffafdb497c",
                    "5a583169d751beeb0fae437502ca622536e815809353d2b49b4cfaf1d394870d",
                    "653bb8582d3c738346861960afc0ad2971b1b606b54443bf3b8293cf24619712",
                    "a29843b93a49b33fb671e4d63ee72337fea1982eff348527dfcd00a66d218328",
                ),
                "67b0f2e7834ab10cdbcc69f0f9712e3e34eb70703dfd9cc94635325a0f9fa05d",
            ),
        ];
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        for (params, want_public, want_key) in cases {
            let alice = DhKeyPair::from_entropy(&params, &entropy(1)).unwrap();
            let bob = DhKeyPair::from_entropy(&params, &entropy(2)).unwrap();
            assert_eq!(hex(&alice.public().to_bytes_be()), want_public);
            let key = alice.agree(&params, bob.public()).unwrap();
            assert_eq!(hex(key.as_bytes()), want_key);
            assert_eq!(bob.agree(&params, alice.public()).unwrap(), key);
        }
    }

    #[test]
    fn debug_never_leaks_key() {
        let k = SessionKey([0xAA; 32]);
        let s = format!("{k:?}");
        assert!(!s.contains("aa") && !s.contains("AA") && !s.contains("170"));
    }
}
