//! 64-bit SimHash — the locality-sensitive hash Facebook's IAB computes
//! over page text and DOM elements to detect client-side cloaking
//! (Table 8, after Duan et al.'s Cloaker Catcher).
//!
//! Similar token streams map to hashes with small Hamming distance; the
//! property tests check both locality (small edits → small distance) and
//! separation (unrelated streams → large distance, in expectation).
//!
//! The hot path is branch-free: instead of 64 data-dependent vote
//! branches per token, each nibble of the feature hash indexes a spread
//! table that scatters its 4 bits into 4 × 16-bit counter lanes packed in
//! one `u64` — 16 table loads and adds per token, no branches. Lanes are
//! flushed to wide counters before they can saturate, so the result is
//! exact for streams of any length; [`simhash64_scalar`] keeps the
//! original voting loop as the equivalence oracle.

/// FNV-1a, used as the per-token 64-bit feature hash.
fn fnv1a(token: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in token.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// `SPREAD[n]` scatters the 4 bits of nibble `n` into four 16-bit lanes:
/// bit `b` of the nibble lands at bit `16·b`, so adding `SPREAD[n]` bumps
/// four independent ones-counters at once.
const SPREAD: [u64; 16] = {
    let mut table = [0u64; 16];
    let mut n = 0;
    while n < 16 {
        let mut v = 0u64;
        let mut b = 0;
        while b < 4 {
            if (n >> b) & 1 == 1 {
                v |= 1 << (16 * b);
            }
            b += 1;
        }
        table[n] = v;
        n += 1;
    }
    table
};

/// Drain the packed lane accumulators into the wide per-bit counters.
#[inline]
fn flush_lanes(counts: &mut [u64; 64], acc: &mut [u64; 16]) {
    for (i, a) in acc.iter_mut().enumerate() {
        for lane in 0..4 {
            counts[4 * i + lane] += (*a >> (16 * lane)) & 0xFFFF;
        }
        *a = 0;
    }
}

/// SimHash over a token stream: count each feature bit's ones, then set
/// output bit `i` iff bit `i` was set in more than half the tokens —
/// exactly the sign of the scalar vote sum (`2·ones > n ⇔ votes > 0`).
pub fn simhash64<'a, I: IntoIterator<Item = &'a str>>(tokens: I) -> u64 {
    let mut counts = [0u64; 64];
    let mut acc = [0u64; 16];
    let mut pending: u32 = 0;
    let mut n: u64 = 0;
    for token in tokens {
        let h = fnv1a(token);
        n += 1;
        for (i, a) in acc.iter_mut().enumerate() {
            *a += SPREAD[((h >> (4 * i)) & 0xF) as usize];
        }
        pending += 1;
        // A 16-bit lane saturates at 65,535 ones; flush before the next
        // token could overflow it.
        if pending == u16::MAX as u32 {
            flush_lanes(&mut counts, &mut acc);
            pending = 0;
        }
    }
    if n == 0 {
        return 0;
    }
    flush_lanes(&mut counts, &mut acc);
    let mut out = 0u64;
    for (bit, &ones) in counts.iter().enumerate() {
        out |= u64::from(2 * ones > n) << bit;
    }
    out
}

/// The original branchy voting loop, kept as the scalar oracle the
/// branch-free path is property-tested against (and as the ablation
/// baseline in the `simhash` bench group).
pub fn simhash64_scalar<'a, I: IntoIterator<Item = &'a str>>(tokens: I) -> u64 {
    let mut votes = [0i64; 64];
    let mut any = false;
    for token in tokens {
        any = true;
        let h = fnv1a(token);
        for (bit, vote) in votes.iter_mut().enumerate() {
            if h & (1u64 << bit) != 0 {
                *vote += 1;
            } else {
                *vote -= 1;
            }
        }
    }
    if !any {
        return 0;
    }
    let mut out = 0u64;
    for (bit, &vote) in votes.iter().enumerate() {
        if vote > 0 {
            out |= 1u64 << bit;
        }
    }
    out
}

/// Hamming distance between two hashes.
#[cfg(test)]
pub fn hamming(a: u64, b: u64) -> u32 {
    (a ^ b).count_ones()
}

/// Convenience: simhash of whitespace-split text.
pub fn simhash_text(text: &str) -> u64 {
    simhash64(text.split_whitespace())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_streams_identical_hash() {
        let a = simhash_text("the quick brown fox jumps over the lazy dog");
        let b = simhash_text("the quick brown fox jumps over the lazy dog");
        assert_eq!(a, b);
        assert_eq!(hamming(a, b), 0);
    }

    #[test]
    fn small_edit_small_distance() {
        let base: Vec<String> = (0..200).map(|i| format!("token{i}")).collect();
        let mut edited = base.clone();
        edited[5] = "changed".into();
        edited[100] = "words".into();
        let a = simhash64(base.iter().map(String::as_str));
        let b = simhash64(edited.iter().map(String::as_str));
        assert!(hamming(a, b) <= 12, "distance {}", hamming(a, b));
    }

    #[test]
    fn unrelated_streams_far_apart() {
        let a: Vec<String> = (0..200).map(|i| format!("alpha{i}")).collect();
        let b: Vec<String> = (0..200).map(|i| format!("omega{i}")).collect();
        let d = hamming(
            simhash64(a.iter().map(String::as_str)),
            simhash64(b.iter().map(String::as_str)),
        );
        assert!(d >= 16, "distance {d}");
    }

    #[test]
    fn empty_stream_is_zero() {
        assert_eq!(simhash64(std::iter::empty::<&str>()), 0);
        assert_eq!(simhash64_scalar(std::iter::empty::<&str>()), 0);
    }

    #[test]
    fn spread_table_scatters_nibble_bits() {
        for (n, spread) in SPREAD.iter().enumerate() {
            for b in 0..4 {
                assert_eq!((spread >> (16 * b)) & 0xFFFF, ((n >> b) & 1) as u64);
            }
        }
    }

    #[test]
    fn lane_flush_survives_streams_longer_than_a_lane() {
        // 70,000 tokens of the same word crosses the 65,535 per-lane
        // ceiling; without the flush every saturated lane would corrupt
        // its neighbor. One word in the majority must dominate the hash.
        let tokens = vec!["constant"; 70_000];
        assert_eq!(simhash64(tokens.iter().copied()), super::fnv1a("constant"));
        // And a mixed long stream still matches the scalar oracle.
        let mixed: Vec<String> = (0..70_000).map(|i| format!("t{}", i % 7)).collect();
        assert_eq!(
            simhash64(mixed.iter().map(String::as_str)),
            simhash64_scalar(mixed.iter().map(String::as_str)),
        );
    }

    proptest! {
        #[test]
        fn prop_hamming_symmetric(a in any::<u64>(), b in any::<u64>()) {
            prop_assert_eq!(hamming(a, b), hamming(b, a));
            prop_assert_eq!(hamming(a, a), 0);
        }

        #[test]
        fn prop_deterministic(tokens in proptest::collection::vec("[a-z]{1,8}", 0..50)) {
            let a = simhash64(tokens.iter().map(String::as_str));
            let b = simhash64(tokens.iter().map(String::as_str));
            prop_assert_eq!(a, b);
        }

        #[test]
        fn prop_branch_free_matches_scalar_oracle(
            tokens in proptest::collection::vec("[ -~]{0,12}", 0..200)
        ) {
            prop_assert_eq!(
                simhash64(tokens.iter().map(String::as_str)),
                simhash64_scalar(tokens.iter().map(String::as_str))
            );
        }

        #[test]
        fn prop_single_token_hash_matches_feature_sign(token in "[a-z]{1,12}") {
            // With one token every vote is ±1, so the simhash equals the
            // token's feature hash.
            let h = simhash64([token.as_str()]);
            prop_assert_eq!(h, super::fnv1a(&token));
        }
    }
}
