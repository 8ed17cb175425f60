//! Property tests over the crypto substrate: bignum laws, cipher
//! round-trips, DH agreement, and hash consistency, plus a differential
//! test of `modpow` against a square-and-multiply oracle.

use kshot_crypto::bignum::BigUint;
use kshot_crypto::chacha::ChaCha20;
use kshot_crypto::dh::{DhKeyPair, DhParams};
use kshot_crypto::hmac::hmac_sha256;
use kshot_crypto::sha256::{sha256, Sha256};
use proptest::prelude::*;

fn arb_biguint() -> impl Strategy<Value = BigUint> {
    prop::collection::vec(any::<u8>(), 0..40).prop_map(|b| BigUint::from_bytes_be(&b))
}

fn from_limbs(limbs: &[u64]) -> BigUint {
    let bytes: Vec<u8> = limbs.iter().rev().flat_map(|l| l.to_be_bytes()).collect();
    BigUint::from_bytes_be(&bytes)
}

/// Reference `base^exp mod m`: right-to-left square-and-multiply built
/// only from the public `mul` and `rem`.
fn modpow_oracle(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    let mut result = BigUint::one().rem(m);
    let mut b = base.rem(m);
    for i in 0..exp.bit_len() {
        if exp.bit(i) {
            result = result.mul(&b).rem(m);
        }
        b = b.mul(&b).rem(m);
    }
    result
}

/// An odd modulus of 1–32 limbs; `shape` 1 sets every top-limb bit, 2
/// makes the top limb 1 (the shortest value of that width).
fn odd_modulus(mut limbs: Vec<u64>, shape: u8) -> BigUint {
    let top = limbs.len() - 1;
    match shape {
        1 => limbs[top] = u64::MAX,
        2 => limbs[top] = 1,
        _ => limbs[top] |= 1,
    }
    limbs[0] |= 1;
    from_limbs(&limbs)
}

/// An exponent of exactly `bits` significant bits (0 gives zero, 1 gives
/// one).
fn exponent(limbs: &[u64], bits: usize) -> BigUint {
    if bits == 0 {
        return BigUint::zero();
    }
    let mut e = from_limbs(limbs).rem(&BigUint::one().shl(bits - 1));
    e = e.add(&BigUint::one().shl(bits - 1));
    assert_eq!(e.bit_len(), bits);
    e
}

/// A base relative to `m`: 0, `m − 1`, at or above `m`, or below `m`.
fn base_for(m: &BigUint, limbs: &[u64], kind: u8) -> BigUint {
    let r = from_limbs(limbs);
    match kind {
        0 => BigUint::zero(),
        1 => m.checked_sub(&BigUint::one()).unwrap(),
        2 => m.add(&r),
        _ => r.rem(m),
    }
}

#[test]
fn modpow_matches_oracle_on_edge_moduli_and_dh_primes() {
    let m3 = BigUint::from_u64(3);
    let all_ones_1 = BigUint::from_u64(u64::MAX);
    let all_ones_32 = BigUint::one()
        .shl(64 * 32)
        .checked_sub(&BigUint::one())
        .unwrap();
    let moduli = [
        m3,
        all_ones_1,
        all_ones_32,
        DhParams::default_group().prime().clone(),
        DhParams::modp_2048().prime().clone(),
    ];
    let big = from_limbs(&[0x0123_4567_89ab_cdef; 40]);
    for m in &moduli {
        let pm1 = m.checked_sub(&BigUint::one()).unwrap();
        let bases = [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from_u64(2),
            pm1.clone(),
            m.clone(),
            m.add(&BigUint::one()),
            big.clone(),
        ];
        let exps = [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from_u64(2),
            BigUint::from_u64(15),
            BigUint::from_u64(16),
            BigUint::from_u64(0x1_0001),
            exponent(&[u64::MAX; 4], 255),
            pm1.clone(),
        ];
        for b in &bases {
            for e in &exps {
                assert_eq!(
                    b.modpow(e, m),
                    modpow_oracle(b, e, m),
                    "{b:?}^{e:?} mod {m:?}"
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn bytes_roundtrip(n in arb_biguint()) {
        let bytes = n.to_bytes_be();
        prop_assert_eq!(BigUint::from_bytes_be(&bytes), n);
    }

    #[test]
    fn add_commutes(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn mul_commutes_and_distributes(a in arb_biguint(), b in arb_biguint(), c in arb_biguint()) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn sub_inverts_add(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(a.add(&b).checked_sub(&b).unwrap(), a);
    }

    #[test]
    fn div_rem_invariant(a in arb_biguint(), d in arb_biguint()) {
        prop_assume!(!d.is_zero());
        let (q, r) = a.div_rem(&d);
        prop_assert!(r.cmp_to(&d) == std::cmp::Ordering::Less);
        prop_assert_eq!(q.mul(&d).add(&r), a);
    }

    #[test]
    fn modpow_product_law(a in arb_biguint(), x in 0u64..50, y in 0u64..50, m in arb_biguint()) {
        // a^(x+y) ≡ a^x · a^y (mod m)
        prop_assume!(m.cmp_to(&BigUint::from_u64(2)) != std::cmp::Ordering::Less);
        let ax = a.modpow(&BigUint::from_u64(x), &m);
        let ay = a.modpow(&BigUint::from_u64(y), &m);
        let axy = a.modpow(&BigUint::from_u64(x + y), &m);
        prop_assert_eq!(ax.mul(&ay).rem(&m), axy);
    }

    #[test]
    fn shl_is_mul_by_power_of_two(a in arb_biguint(), k in 0usize..130) {
        let two_k = {
            let mut t = BigUint::one();
            for _ in 0..k { t = t.mul(&BigUint::from_u64(2)); }
            t
        };
        prop_assert_eq!(a.shl(k), a.mul(&two_k));
    }

    #[test]
    fn chacha_roundtrip(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                        data in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut enc = data.clone();
        ChaCha20::new(&key, &nonce).apply(&mut enc);
        ChaCha20::new(&key, &nonce).apply(&mut enc);
        prop_assert_eq!(enc, data);
    }

    #[test]
    fn sha256_incremental_equals_oneshot(data in prop::collection::vec(any::<u8>(), 0..600),
                                         split in any::<prop::sample::Index>()) {
        let k = split.index(data.len() + 1);
        let mut h = Sha256::new();
        h.update(&data[..k]);
        h.update(&data[k..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn hmac_distinguishes_keys_and_messages(k1 in any::<[u8; 16]>(), k2 in any::<[u8; 16]>(),
                                            m in prop::collection::vec(any::<u8>(), 1..64)) {
        prop_assume!(k1 != k2);
        prop_assert_ne!(hmac_sha256(&k1, &m), hmac_sha256(&k2, &m));
    }

    #[test]
    fn dh_agreement_always_symmetric(e1 in any::<[u8; 24]>(), e2 in any::<[u8; 24]>()) {
        let params = DhParams::default_group();
        let a = DhKeyPair::from_entropy(&params, &e1).unwrap();
        let b = DhKeyPair::from_entropy(&params, &e2).unwrap();
        let k1 = a.agree(&params, b.public()).unwrap();
        let k2 = b.agree(&params, a.public()).unwrap();
        prop_assert_eq!(k1.as_bytes(), k2.as_bytes());
    }

    #[test]
    fn modpow_matches_oracle_on_odd_moduli(
        m_limbs in prop::collection::vec(any::<u64>(), 1..=32),
        shape in 0u8..3,
        e_limbs in prop::collection::vec(any::<u64>(), 5),
        e_bits in 0usize..300,
        b_limbs in prop::collection::vec(any::<u64>(), 0..40),
        b_kind in 0u8..4,
    ) {
        let m = odd_modulus(m_limbs, shape);
        let e = exponent(&e_limbs, e_bits);
        let b = base_for(&m, &b_limbs, b_kind);
        prop_assert_eq!(b.modpow(&e, &m), modpow_oracle(&b, &e, &m));
    }
}
