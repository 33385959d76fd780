//! Shared digest helpers for the pin suites.
//!
//! A pin suite folds everything a run reports into 64-bit FNV-1a digests
//! and compares them with constants generated on an earlier commit, so a
//! change that moves any simulated number shows up as a moved digest.
//! Include it with `#[path = "common/pins.rs"] mod pins;`.
//!
//! Set `PINS_PRINT=1` (and pass `--nocapture`) to have
//! [`assert_pinned`] print each computed table as Rust source before it
//! compares, which is how a new table is generated.

// Each suite uses a subset of these helpers.
#![allow(dead_code)]

use heardof::core::process::ProcessSet;

/// The FNV-1a offset basis: the digest of nothing.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One step of the digest (FNV-1a over the value's eight bytes).
pub fn fold(h: u64, x: u64) -> u64 {
    x.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Folds one process set as its two 64-bit membership words.
pub fn fold_set(h: u64, set: ProcessSet) -> u64 {
    let mut words = [0u64; 2];
    for q in set.iter() {
        words[q.index() / 64] |= 1 << (q.index() % 64);
    }
    fold(fold(h, words[0]), words[1])
}

/// Asserts that the digest table `got` equals `pinned`. With `PINS_PRINT`
/// set, first prints `got` as the Rust source of a constant named `name`.
pub fn assert_pinned(name: &str, got: &[u64], pinned: &[u64]) {
    if std::env::var_os("PINS_PRINT").is_some() {
        let mut src = format!("#[rustfmt::skip]\nconst {name}: [u64; {}] = [\n", got.len());
        for row in got.chunks(3) {
            let row: Vec<String> = row
                .iter()
                .map(|h| {
                    let q = |s: u32| (h >> s) & 0xffff;
                    format!("0x{:04x}_{:04x}_{:04x}_{:04x},", q(48), q(32), q(16), q(0))
                })
                .collect();
            src += &format!("    {}\n", row.join(" "));
        }
        println!("{src}];");
    }
    assert_eq!(got, pinned, "{name}: a pinned digest moved\n{got:#018x?}");
}
