//! Per-patch Diffie–Hellman cost: one key generation (`g^x mod p`) and
//! one agreement (`peer^x mod p`) on each group the SMM handler can use.
//!
//! Every live patch runs nine of these modpows (four in the SGX server
//! session, two in enclave staging, two in the SMM key exchange, one in
//! key rotation), so this is the host-side cost the calibrated
//! `smm_keygen` figure stands in for.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use kshot_crypto::dh::{DhKeyPair, DhParams};
use kshot_crypto::sha256;

fn bench_dh(c: &mut Criterion) {
    let mut group = c.benchmark_group("dh/modpow");
    for (label, params) in [
        ("default-512", DhParams::default_group()),
        ("modp-2048", DhParams::modp_2048()),
    ] {
        let peer = DhKeyPair::from_entropy(&params, &sha256(b"peer")).unwrap();
        // Fresh hash-derived entropy per sample, like the per-patch RNG
        // draws: a random 256-bit exponent has ~1/16 zero windows.
        group.bench_with_input(BenchmarkId::new("keygen", label), &params, |b, p| {
            let mut counter = 0u64;
            b.iter(|| {
                counter += 1;
                DhKeyPair::from_entropy(p, &sha256(&counter.to_le_bytes())).unwrap()
            })
        });
        let own = DhKeyPair::from_entropy(&params, &sha256(b"own")).unwrap();
        group.bench_with_input(BenchmarkId::new("agree", label), &params, |b, p| {
            b.iter(|| own.agree(p, peer.public()).unwrap())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(200);
    targets = bench_dh
}
criterion_main!(benches);
