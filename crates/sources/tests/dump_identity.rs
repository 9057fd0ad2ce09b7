//! Generator identity: the demo ecosystem's dumps are pinned by hash to
//! the text generated under the `rand` stand-in gmbench measured with, so
//! the in-tree PRNG provably draws the same streams and every gmbench
//! dataset stays byte-identical.

use sources::ecosystem::{Ecosystem, EcosystemParams};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn demo_7_dumps_hash_to_the_pinned_values() {
    let eco = Ecosystem::generate(EcosystemParams::demo(7));
    let got: Vec<(&str, u64)> = eco
        .dumps
        .iter()
        .map(|d| (d.name.as_str(), fnv1a64(d.text.as_bytes())))
        .collect();
    assert_eq!(got, PINNED);
}

const PINNED: [(&str, u64); 14] = [
    ("LocusLink", 0xa975e7a00bfd9bea),
    ("GO", 0x251f8c5a66257e02),
    ("Unigene", 0x443419b891085a33),
    ("Enzyme", 0x9098ad4c5cb04bbd),
    ("Hugo", 0x55f23f4be6bfa050),
    ("OMIM", 0x542da26fc09525ed),
    ("NetAffx", 0x30a1406f621d55a9),
    ("SwissProt", 0xdd56eb15774fd937),
    ("InterPro", 0xc3750e08e0459f44),
    ("GeneMap", 0xd289bcbe8ab4cea4),
    ("PathwayDB01", 0x9305c2780c5989e2),
    ("MarkerSet02", 0xb7025f7381f67b37),
    ("CloneLib03", 0x119a8a90994d1964),
    ("ExprStudy04", 0xc906d5b6948b4239),
];
