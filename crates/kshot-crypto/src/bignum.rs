//! Arbitrary-precision unsigned integers.
//!
//! Just enough big-integer arithmetic to support finite-field
//! Diffie–Hellman: comparison, addition, subtraction, schoolbook
//! multiplication, Knuth Algorithm D division, and modular
//! exponentiation. Limbs are 64-bit, little-endian, and always
//! normalized (no high zero limbs; zero is the empty limb vector).
//!
//! Odd moduli of up to 32 limbs (2048 bits) — every DH group — are
//! exponentiated with Montgomery (CIOS) multiplication on fixed-size
//! stack limb arrays and a 4-bit fixed window, so the exponent loop never
//! touches the heap. Other moduli fall back to binary square-and-multiply
//! over [`BigUint::mul`] and [`BigUint::rem`].

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// # Examples
///
/// ```
/// use kshot_crypto::BigUint;
///
/// let a = BigUint::from_u64(7);
/// let m = BigUint::from_u64(13);
/// // 7^3 mod 13 = 343 mod 13 = 5
/// assert_eq!(a.modpow(&BigUint::from_u64(3), &m), BigUint::from_u64(5));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian 64-bit limbs, normalized.
    limbs: Vec<u64>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        Self { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        Self::from_u64(1)
    }

    /// Construct from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            Self { limbs: vec![v] }
        }
    }

    /// Construct from big-endian bytes (leading zeros allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut chunk_iter = bytes.rchunks(8);
        for chunk in &mut chunk_iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut n = Self { limbs };
        n.normalize();
        n
    }

    /// Serialize to minimal big-endian bytes (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the most significant limb.
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip.min(7)..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Parse from a hexadecimal string (no `0x` prefix, whitespace
    /// ignored).
    ///
    /// Returns `None` on non-hex characters.
    pub fn from_hex(s: &str) -> Option<Self> {
        let mut nibbles = Vec::with_capacity(s.len());
        for c in s.chars() {
            if c.is_whitespace() {
                continue;
            }
            nibbles.push(c.to_digit(16)? as u8);
        }
        // Convert nibbles (big-endian) to bytes.
        let mut bytes = Vec::with_capacity(nibbles.len() / 2 + 1);
        let odd = nibbles.len() % 2 == 1;
        let mut it = nibbles.into_iter();
        if odd {
            bytes.push(it.next().unwrap());
        }
        while let (Some(hi), Some(lo)) = (it.next(), it.next()) {
            bytes.push((hi << 4) | lo);
        }
        Some(Self::from_bytes_be(&bytes))
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(hi) => self.limbs.len() * 64 - hi.leading_zeros() as usize,
        }
    }

    /// Value of bit `i` (LSB is bit 0).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let off = i % 64;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u128;
        for (i, &l) in long.iter().enumerate() {
            let s = l as u128 + *short.get(i).unwrap_or(&0) as u128 + carry;
            out.push(s as u64);
            carry = s >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self − other`, or `None` if the result would be negative.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self.cmp_to(other) == Ordering::Less {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i128;
        for i in 0..self.limbs.len() {
            let d = self.limbs[i] as i128 - *other.limbs.get(i).unwrap_or(&0) as i128 - borrow;
            if d < 0 {
                out.push((d + (1i128 << 64)) as u64);
                borrow = 1;
            } else {
                out.push(d as u64);
                borrow = 0;
            }
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        Some(n)
    }

    /// `self × other` (schoolbook).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = a as u128 * b as u128 + out[i + j] as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Three-way comparison.
    pub fn cmp_to(&self, other: &BigUint) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for i in (0..self.limbs.len()).rev() {
                    match self.limbs[i].cmp(&other.limbs[i]) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }

    /// Quotient and remainder of `self ÷ divisor` (Knuth Algorithm D).
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero BigUint");
        match self.cmp_to(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            return self.div_rem_limb(divisor.limbs[0]);
        }
        // D1: normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let v = divisor.shl(shift);
        let u = self.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;
        let mut un = u.limbs.clone();
        un.push(0); // u has n+m+1 limbs with an extra high limb
        let vn = &v.limbs;
        let mut q = vec![0u64; m + 1];
        let b = 1u128 << 64;
        // D2–D7: main loop.
        for j in (0..=m).rev() {
            // D3: estimate qhat.
            let top = (un[j + n] as u128) << 64 | un[j + n - 1] as u128;
            let mut qhat = top / vn[n - 1] as u128;
            let mut rhat = top % vn[n - 1] as u128;
            while qhat >= b || qhat * vn[n - 2] as u128 > (rhat << 64 | un[j + n - 2] as u128) {
                qhat -= 1;
                rhat += vn[n - 1] as u128;
                if rhat >= b {
                    break;
                }
            }
            // D4: multiply and subtract.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let t = un[j + i] as i128 - (p as u64) as i128 - borrow;
                if t < 0 {
                    un[j + i] = (t + b as i128) as u64;
                    borrow = 1;
                } else {
                    un[j + i] = t as u64;
                    borrow = 0;
                }
            }
            let t = un[j + n] as i128 - carry as i128 - borrow;
            // D5/D6: if we subtracted too much, add back.
            if t < 0 {
                un[j + n] = (t + b as i128) as u64;
                qhat -= 1;
                let mut carry2 = 0u128;
                for i in 0..n {
                    let s = un[j + i] as u128 + vn[i] as u128 + carry2;
                    un[j + i] = s as u64;
                    carry2 = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry2 as u64);
            } else {
                un[j + n] = t as u64;
            }
            q[j] = qhat as u64;
        }
        // D8: denormalize the remainder.
        let mut rem_limbs = un[..n].to_vec();
        if shift > 0 {
            for i in 0..n {
                let hi = if i + 1 < n { un[i + 1] } else { 0 };
                rem_limbs[i] = (un[i] >> shift) | (hi << (64 - shift));
            }
        }
        let mut quot = BigUint { limbs: q };
        quot.normalize();
        let mut rem = BigUint { limbs: rem_limbs };
        rem.normalize();
        (quot, rem)
    }

    fn div_rem_limb(&self, d: u64) -> (BigUint, BigUint) {
        let mut q = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        let mut quot = BigUint { limbs: q };
        quot.normalize();
        (quot, BigUint::from_u64(rem as u64))
    }

    /// `self mod m`.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        self.div_rem(m).1
    }

    /// Modular exponentiation `self^exp mod m`.
    ///
    /// Odd moduli of up to 32 limbs go through the Montgomery
    /// fixed-window kernel; the rest use binary square-and-multiply. Both give the same value for every input.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modpow with zero modulus");
        if m.cmp_to(&BigUint::one()) == Ordering::Equal {
            return BigUint::zero();
        }
        if exp.is_zero() {
            return BigUint::one();
        }
        if m.is_even() {
            return self.modpow_binary(exp, m);
        }
        match m.limbs.len() {
            1..=4 => self.modpow_mont::<4>(exp, m),
            5..=8 => self.modpow_mont::<8>(exp, m),
            9..=16 => self.modpow_mont::<16>(exp, m),
            17..=MONT_MAX_LIMBS => self.modpow_mont::<MONT_MAX_LIMBS>(exp, m),
            _ => self.modpow_binary(exp, m),
        }
    }

    /// Right-to-left binary square-and-multiply, one `mul` + `rem` per
    /// step. Used for even moduli, which Montgomery reduction cannot
    /// handle, and for moduli wider than `MONT_MAX_LIMBS`.
    fn modpow_binary(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        let mut result = BigUint::one();
        let mut base = self.rem(m);
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = result.mul(&base).rem(m);
            }
            if i + 1 < exp.bit_len() {
                base = base.mul(&base).rem(m);
            }
        }
        result
    }

    /// Left-to-right 4-bit fixed-window exponentiation in the Montgomery
    /// domain `R = 2^(64·N)`, for an odd `m` of at most `N` limbs and a
    /// nonzero `exp`. `n0'` and `R² mod m` cost one inversion and one
    /// `shl` + `rem` per call; the power table and accumulator live on
    /// the stack.
    fn modpow_mont<const N: usize>(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        let mm = Mont::<N>::new(m);
        let base = mm.to_mont(&self.rem(m).limbs);
        // powers[d − 1] = base^d in Montgomery form. Zero digits are
        // skipped and the top digit is nonzero, so base^0 is never read.
        let mut powers = [base; (1 << WINDOW) - 1];
        for d in 1..powers.len() {
            powers[d] = mm.mul(&powers[d - 1], &base);
        }
        let windows = exp.bit_len().div_ceil(WINDOW);
        let mut acc = powers[exp.window(windows - 1) - 1];
        for w in (0..windows - 1).rev() {
            for _ in 0..WINDOW {
                acc = mm.mul(&acc, &acc);
            }
            let digit = exp.window(w);
            if digit != 0 {
                acc = mm.mul(&acc, &powers[digit - 1]);
            }
        }
        let mut one = [0u64; N];
        one[0] = 1;
        let mut out = BigUint {
            limbs: mm.mul(&acc, &one).to_vec(),
        };
        out.normalize();
        out
    }

    /// The `WINDOW`-bit digit `w` of `self` (bits `w·WINDOW ..
    /// (w+1)·WINDOW`). `WINDOW` divides 64, so a digit never straddles
    /// two limbs.
    fn window(&self, w: usize) -> usize {
        let bit = w * WINDOW;
        let limb = self.limbs.get(bit / 64).copied().unwrap_or(0);
        ((limb >> (bit % 64)) & ((1 << WINDOW) - 1)) as usize
    }
}

/// Widest modulus, in limbs, that [`BigUint::modpow`] exponentiates in
/// the Montgomery domain (RFC 3526 MODP-2048 is exactly this wide).
const MONT_MAX_LIMBS: usize = 32;

/// Exponent bits consumed per table lookup in the Montgomery kernel.
const WINDOW: usize = 4;

/// Montgomery arithmetic modulo an odd `m`, zero-padded to `N` limbs,
/// with `R = 2^(64·N)`.
struct Mont<const N: usize> {
    m: [u64; N],
    /// `−m⁻¹ mod 2^64`.
    n0: u64,
    /// `R² mod m`, for converting into Montgomery form.
    r2: [u64; N],
}

impl<const N: usize> Mont<N> {
    fn new(m: &BigUint) -> Self {
        debug_assert!(!m.is_even() && m.limbs.len() <= N);
        let m_limbs = pad::<N>(&m.limbs);
        // Newton's iteration doubles the correct low bits of m⁻¹ each
        // step; an odd m is its own inverse mod 8, so five steps reach 96.
        let mut inv = m_limbs[0];
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m_limbs[0].wrapping_mul(inv)));
        }
        Mont {
            m: m_limbs,
            n0: inv.wrapping_neg(),
            r2: pad::<N>(&BigUint::one().shl(128 * N).rem(m).limbs),
        }
    }

    /// `a` (at most `N` limbs, below `m`) in Montgomery form.
    fn to_mont(&self, a: &[u64]) -> [u64; N] {
        self.mul(&pad::<N>(a), &self.r2)
    }

    /// Montgomery product `a·b·R⁻¹ mod m` (CIOS), for `a, b < m`.
    fn mul(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        // t holds N+2 limbs: t[..N], then `hi` and the transient `top`.
        let mut t = [0u64; N];
        let mut hi = 0u64;
        for &ai in a {
            let mut c = 0u64;
            for (tj, &bj) in t.iter_mut().zip(b) {
                (*tj, c) = mac(*tj, ai, bj, c);
            }
            let (s, top) = hi.overflowing_add(c);
            hi = s;
            let u = t[0].wrapping_mul(self.n0);
            let (_, mut c) = mac(t[0], u, self.m[0], 0);
            for j in 1..N {
                (t[j - 1], c) = mac(t[j], u, self.m[j], c);
            }
            let (s, carry) = hi.overflowing_add(c);
            t[N - 1] = s;
            hi = top as u64 + carry as u64;
        }
        // t < 2m: subtract m once if t ≥ m.
        if hi != 0 || !lt(&t, &self.m) {
            let mut borrow = false;
            for (tj, &mj) in t.iter_mut().zip(&self.m) {
                let (d, b1) = tj.overflowing_sub(mj);
                let (d, b2) = d.overflowing_sub(borrow as u64);
                *tj = d;
                borrow = b1 || b2;
            }
        }
        t
    }
}

/// `t + a·b + c` as (low, high) limbs; cannot overflow 128 bits.
#[inline(always)]
fn mac(t: u64, a: u64, b: u64, c: u64) -> (u64, u64) {
    let r = t as u128 + a as u128 * b as u128 + c as u128;
    (r as u64, (r >> 64) as u64)
}

/// `a < b` over equal-width little-endian limb arrays.
fn lt<const N: usize>(a: &[u64; N], b: &[u64; N]) -> bool {
    for j in (0..N).rev() {
        if a[j] != b[j] {
            return a[j] < b[j];
        }
    }
    false
}

/// Zero-extend normalized limbs to `N`.
fn pad<const N: usize>(limbs: &[u64]) -> [u64; N] {
    let mut out = [0u64; N];
    out[..limbs.len()].copy_from_slice(limbs);
    out
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{self})")
    }
}

impl fmt::Display for BigUint {
    /// Hexadecimal, no prefix.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                write!(f, "{limb:x}")?;
            } else {
                write!(f, "{limb:016x}")?;
            }
        }
        Ok(())
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_to(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn roundtrip_bytes() {
        let cases: &[&[u8]] = &[
            &[],
            &[1],
            &[0, 0, 1],
            &[0xff; 8],
            &[1, 2, 3, 4, 5, 6, 7, 8, 9],
            &[0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 0, 0, 0, 1],
        ];
        for &c in cases {
            let n = BigUint::from_bytes_be(c);
            let back = n.to_bytes_be();
            // Leading zeros are stripped.
            let canonical: Vec<u8> = c.iter().copied().skip_while(|&b| b == 0).collect();
            assert_eq!(back, canonical);
        }
    }

    #[test]
    fn from_hex_parses() {
        assert_eq!(BigUint::from_hex("ff").unwrap(), big(255));
        assert_eq!(
            BigUint::from_hex("1 0000 0000 0000 0000").unwrap(),
            big(1).shl(64)
        );
        assert_eq!(BigUint::from_hex("0").unwrap(), BigUint::zero());
        assert!(BigUint::from_hex("xyz").is_none());
    }

    #[test]
    fn display_hex() {
        assert_eq!(big(0).to_string(), "0");
        assert_eq!(big(0xdead).to_string(), "dead");
        let two_limb = big(0xab).shl(64).add(&big(5));
        assert_eq!(two_limb.to_string(), "ab0000000000000005");
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = BigUint::from_hex("ffffffffffffffffffffffffffffffff").unwrap();
        let b = BigUint::from_hex("123456789abcdef0123456789abcdef").unwrap();
        let s = a.add(&b);
        assert_eq!(s.checked_sub(&b).unwrap(), a);
        assert_eq!(s.checked_sub(&a).unwrap(), b);
        assert_eq!(b.checked_sub(&a), None);
    }

    #[test]
    fn add_carries_across_limbs() {
        let max = BigUint::from_hex("ffffffffffffffff").unwrap();
        assert_eq!(max.add(&big(1)), big(1).shl(64));
    }

    #[test]
    fn mul_small_and_large() {
        assert_eq!(big(7).mul(&big(6)), big(42));
        assert_eq!(big(0).mul(&big(6)), BigUint::zero());
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let max = BigUint::from_hex("ffffffffffffffff").unwrap();
        let sq = max.mul(&max);
        let expect = big(1)
            .shl(128)
            .checked_sub(&big(1).shl(65))
            .unwrap()
            .add(&big(1));
        assert_eq!(sq, expect);
    }

    #[test]
    fn div_rem_invariant_small() {
        for a in [0u64, 1, 2, 41, 42, 43, 1000, u64::MAX] {
            for d in [1u64, 2, 3, 7, 41, 1 << 32, u64::MAX] {
                let (q, r) = big(a).div_rem(&big(d));
                assert_eq!(q, big(a / d), "{a}/{d}");
                assert_eq!(r, big(a % d), "{a}%{d}");
            }
        }
    }

    #[test]
    fn div_rem_multi_limb() {
        // a = d*q + r with multi-limb operands.
        let d = BigUint::from_hex("facefeedfacefeedfacefeed").unwrap();
        let q = BigUint::from_hex("1234567890abcdef1234567890").unwrap();
        let r = BigUint::from_hex("deadbeef").unwrap();
        assert!(r.cmp_to(&d) == Ordering::Less);
        let a = d.mul(&q).add(&r);
        let (qq, rr) = a.div_rem(&d);
        assert_eq!(qq, q);
        assert_eq!(rr, r);
    }

    #[test]
    fn div_rem_triggers_addback_path() {
        // A case chosen to exercise the D6 add-back correction:
        // u = 0x7fff...8000...0000, v = 0x8000...0000 0001-style patterns.
        let u = BigUint::from_hex("80000000000000000000000000000000").unwrap();
        let v = BigUint::from_hex("80000000000000000000000000000001").unwrap();
        let (q, r) = u.div_rem(&v);
        assert!(q.is_zero());
        assert_eq!(r, u);
        // And a genuinely large quotient near the correction boundary.
        let u2 = BigUint::from_hex("7fffffffffffffff8000000000000000").unwrap();
        let v2 = BigUint::from_hex("8000000000000000ffffffffffffffff").unwrap();
        let (q2, r2) = u2.div_rem(&v2);
        assert_eq!(v2.mul(&q2).add(&r2), u2);
        assert!(r2.cmp_to(&v2) == Ordering::Less);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = big(1).div_rem(&BigUint::zero());
    }

    #[test]
    fn modpow_small_cases() {
        assert_eq!(big(2).modpow(&big(10), &big(1000)), big(24)); // 1024 mod 1000
        assert_eq!(big(7).modpow(&big(0), &big(13)), big(1));
        assert_eq!(big(0).modpow(&big(5), &big(13)), BigUint::zero());
        assert_eq!(big(5).modpow(&big(117), &big(19)), {
            // 5^117 mod 19 via Fermat: 5^18 ≡ 1, 117 = 6*18+9 → 5^9 mod 19 = 1953125 mod 19
            big(1953125 % 19)
        });
        // modulus 1 → 0
        assert_eq!(big(9).modpow(&big(9), &big(1)), BigUint::zero());
    }

    #[test]
    fn modpow_matches_fermat_on_prime() {
        // p prime → a^(p-1) ≡ 1 (mod p) for a not divisible by p.
        let p = BigUint::from_hex("ffffffffffffffc5").unwrap(); // large 64-bit prime
        let pm1 = p.checked_sub(&big(1)).unwrap();
        for a in [2u64, 3, 65537, 0xdeadbeef] {
            assert_eq!(big(a).modpow(&pm1, &p), big(1), "a={a}");
        }
    }

    #[test]
    fn bit_len_and_bits() {
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(big(1).bit_len(), 1);
        assert_eq!(big(0xff).bit_len(), 8);
        assert_eq!(big(1).shl(100).bit_len(), 101);
        assert!(big(1).shl(100).bit(100));
        assert!(!big(1).shl(100).bit(99));
        assert!(!big(1).shl(100).bit(101));
    }

    #[test]
    fn shl_partial_bits() {
        assert_eq!(big(1).shl(0), big(1));
        assert_eq!(big(1).shl(3), big(8));
        assert_eq!(big(0x8000_0000_0000_0000).shl(1), big(1).shl(64));
    }

    #[test]
    fn ordering() {
        assert!(big(1) < big(2));
        assert!(big(1).shl(64) > big(u64::MAX));
        assert_eq!(big(5).cmp_to(&big(5)), Ordering::Equal);
    }
}
