//! Blocked (4×u64) row primitives: the innermost loops of the bit
//! kernel, manually unrolled.
//!
//! Every word loop in [`crate::bits`] — row ORs in compose, the
//! `new = next & !seen` writeback of the semi-naive fixpoint, the
//! accelerated `base | closure` gather of delta maintenance — funnels
//! through this module, one function per primitive. The pure OR/AND
//! loops are an explicit 4-words-at-a-time unroll (`chunks_exact(4)` +
//! scalar remainder), giving the backend an unambiguous 256-bit unit;
//! the fixpoint writebacks ([`claim_new`] / [`claim_new_accum`]) keep
//! the straight-line zip shape and hoist the loop-carried
//! `changed`/`grew` accumulator into one OR-reduced word (a manual
//! unroll measurably pessimizes the backend's own, wider unroll
//! there). No unstable features, no intrinsics.
//!
//! The one-word-at-a-time spelling these replaced (1.07–1.15× slower
//! on every measured shape) survives only in this file's test module,
//! as the referee the unrolled loops are compared against on every
//! remainder length.

// ---------------------------------------------------------------------
// dst |= src
// ---------------------------------------------------------------------

/// `dst |= src`, word-wise. Slices must have equal length.
pub fn or_into(dst: &mut [u64], src: &[u64]) {
    let mut d = dst.chunks_exact_mut(4);
    let mut s = src.chunks_exact(4);
    for (dc, sc) in (&mut d).zip(&mut s) {
        dc[0] |= sc[0];
        dc[1] |= sc[1];
        dc[2] |= sc[2];
        dc[3] |= sc[3];
    }
    for (a, &b) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *a |= b;
    }
}

// ---------------------------------------------------------------------
// dst |= src, reporting change
// ---------------------------------------------------------------------

/// `dst |= src`, returning whether any bit of `dst` flipped.
/// The change accumulator is a single OR-reduced word, checked once at
/// the end — no per-word branch.
pub fn or_into_changed(dst: &mut [u64], src: &[u64]) -> bool {
    let mut diff = 0u64;
    let mut d = dst.chunks_exact_mut(4);
    let mut s = src.chunks_exact(4);
    for (dc, sc) in (&mut d).zip(&mut s) {
        let n0 = dc[0] | sc[0];
        let n1 = dc[1] | sc[1];
        let n2 = dc[2] | sc[2];
        let n3 = dc[3] | sc[3];
        diff |= (n0 ^ dc[0]) | (n1 ^ dc[1]) | (n2 ^ dc[2]) | (n3 ^ dc[3]);
        dc[0] = n0;
        dc[1] = n1;
        dc[2] = n2;
        dc[3] = n3;
    }
    for (a, &b) in d.into_remainder().iter_mut().zip(s.remainder()) {
        let next = *a | b;
        diff |= next ^ *a;
        *a = next;
    }
    diff != 0
}

// ---------------------------------------------------------------------
// dst &= !src
// ---------------------------------------------------------------------

/// `dst &= !src`, word-wise (set difference on rows).
pub fn andnot_into(dst: &mut [u64], src: &[u64]) {
    let mut d = dst.chunks_exact_mut(4);
    let mut s = src.chunks_exact(4);
    for (dc, sc) in (&mut d).zip(&mut s) {
        dc[0] &= !sc[0];
        dc[1] &= !sc[1];
        dc[2] &= !sc[2];
        dc[3] &= !sc[3];
    }
    for (a, &b) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *a &= !b;
    }
}

// ---------------------------------------------------------------------
// dst |= a | b
// ---------------------------------------------------------------------

/// `dst |= a | b` — the accelerated gather of delta maintenance
/// (`base[w] | closure_old[w]` in one pass). All three slices must have
/// equal length.
pub fn or2_into(dst: &mut [u64], a: &[u64], b: &[u64]) {
    let mut d = dst.chunks_exact_mut(4);
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for ((dc, xs), ys) in (&mut d).zip(&mut ac).zip(&mut bc) {
        dc[0] |= xs[0] | ys[0];
        dc[1] |= xs[1] | ys[1];
        dc[2] |= xs[2] | ys[2];
        dc[3] |= xs[3] | ys[3];
    }
    for ((d, &x), &y) in d
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
    {
        *d |= x | y;
    }
}

// ---------------------------------------------------------------------
// dst |= src₀ | src₁ | …  (row gather)
// ---------------------------------------------------------------------

/// OR every `src` row into `dst` (the compose/closure gather:
/// many source rows accumulated into one destination). The sources are
/// consumed in *pairs* through [`or2_into`] — one read+write pass over
/// `dst` per two gathered rows, the row-level blocking that halves
/// destination traffic. All rows must share `dst`'s length.
pub fn or_gather_into<'a, I>(dst: &mut [u64], srcs: I)
where
    I: IntoIterator<Item = &'a [u64]>,
{
    let mut srcs = srcs.into_iter();
    while let Some(first) = srcs.next() {
        match srcs.next() {
            Some(second) => or2_into(dst, first, second),
            None => {
                or_into(dst, first);
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// new = next & !seen; seen |= new; delta = new  (semi-naive writeback)
// ---------------------------------------------------------------------

/// The semi-naive writeback: per word, `new = next & !seen`,
/// `seen |= new`, `delta = new` (overwriting the consumed delta row).
/// Returns whether any new bit was claimed.
///
/// Unlike the two-slice primitives, the fastest spelling here is *not*
/// a manual 4-wide unroll: three zipped streams already vectorize
/// cleanly, and hand-unrolling them pessimizes the backend's own
/// (wider) unroll. What matters is the `grew` accumulator as one
/// OR-reduced word — a per-word `new != 0` compare is the loop-carried
/// dependency that keeps the loop from vectorizing.
pub fn claim_new(next: &[u64], seen: &mut [u64], delta: &mut [u64]) -> bool {
    let mut grew = 0u64;
    for ((&nx, sw), dw) in next.iter().zip(seen.iter_mut()).zip(delta.iter_mut()) {
        let new = nx & !*sw;
        *sw |= new;
        *dw = new;
        grew |= new;
    }
    grew != 0
}

// ---------------------------------------------------------------------
// new = step & !seen; seen |= new; delta |= new  (seed accumulation)
// ---------------------------------------------------------------------

/// The seeding writeback of delta maintenance: like [`claim_new`] but
/// the delta row *accumulates* (`delta |= new`) — one source row can be
/// seeded by several Δ groups before the propagation rounds consume it.
/// Same shape as [`claim_new`]: straight-line triple zip, `grew` as
/// one OR-reduced word.
pub fn claim_new_accum(step: &[u64], seen: &mut [u64], delta: &mut [u64]) -> bool {
    let mut grew = 0u64;
    for ((&sw, se), dw) in step.iter().zip(seen.iter_mut()).zip(delta.iter_mut()) {
        let new = sw & !*se;
        *se |= new;
        *dw |= new;
        grew |= new;
    }
    grew != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    // The one-word-at-a-time referees: the spelling every primitive
    // above must agree with.

    fn or_into_scalar(dst: &mut [u64], src: &[u64]) {
        for (a, &b) in dst.iter_mut().zip(src) {
            *a |= b;
        }
    }

    fn or_into_changed_scalar(dst: &mut [u64], src: &[u64]) -> bool {
        let mut changed = false;
        for (a, &b) in dst.iter_mut().zip(src) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    fn andnot_into_scalar(dst: &mut [u64], src: &[u64]) {
        for (a, &b) in dst.iter_mut().zip(src) {
            *a &= !b;
        }
    }

    fn or2_into_scalar(dst: &mut [u64], a: &[u64], b: &[u64]) {
        for (d, (&x, &y)) in dst.iter_mut().zip(a.iter().zip(b)) {
            *d |= x | y;
        }
    }

    fn claim_new_scalar(next: &[u64], seen: &mut [u64], delta: &mut [u64]) -> bool {
        let mut grew = false;
        for (k, &nx) in next.iter().enumerate() {
            let new = nx & !seen[k];
            seen[k] |= new;
            delta[k] = new;
            grew |= new != 0;
        }
        grew
    }

    fn claim_new_accum_scalar(step: &[u64], seen: &mut [u64], delta: &mut [u64]) -> bool {
        let mut grew = false;
        for (k, &sw) in step.iter().enumerate() {
            let new = sw & !seen[k];
            seen[k] |= new;
            delta[k] |= new;
            grew |= new != 0;
        }
        grew
    }

    fn words(seed: u64, len: usize) -> Vec<u64> {
        // Deterministic splitmix64 stream — enough entropy to exercise
        // every lane of the 4-wide blocks and the remainders.
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect()
    }

    #[test]
    fn blocked_matches_scalar_on_every_length() {
        // Lengths 0..=17 cover empty, sub-block, exact-block and
        // remainder shapes.
        for len in 0..=17usize {
            let next = words(1, len);
            let src = words(2, len);
            let b2 = words(3, len);

            let mut d1 = words(4, len);
            let mut d2 = d1.clone();
            or_into(&mut d1, &src);
            or_into_scalar(&mut d2, &src);
            assert_eq!(d1, d2, "or_into len={len}");

            let mut d1 = words(5, len);
            let mut d2 = d1.clone();
            let c1 = or_into_changed(&mut d1, &src);
            let c2 = or_into_changed_scalar(&mut d2, &src);
            // Idempotent re-OR reports no change.
            let mut d3 = d2.clone();
            assert!(!or_into_changed(&mut d3, &src));
            assert_eq!((d1, c1), (d2, c2), "or_into_changed len={len}");

            let mut d1 = words(6, len);
            let mut d2 = d1.clone();
            andnot_into(&mut d1, &src);
            andnot_into_scalar(&mut d2, &src);
            assert_eq!(d1, d2, "andnot_into len={len}");

            let mut d1 = words(7, len);
            let mut d2 = d1.clone();
            or2_into(&mut d1, &src, &b2);
            or2_into_scalar(&mut d2, &src, &b2);
            assert_eq!(d1, d2, "or2_into len={len}");

            let mut seen1 = words(8, len);
            let mut seen2 = seen1.clone();
            let mut delta1 = words(9, len);
            let mut delta2 = delta1.clone();
            let g1 = claim_new(&next, &mut seen1, &mut delta1);
            let g2 = claim_new_scalar(&next, &mut seen2, &mut delta2);
            assert_eq!(
                (seen1, delta1, g1),
                (seen2, delta2, g2),
                "claim_new len={len}"
            );

            let mut seen1 = words(10, len);
            let mut seen2 = seen1.clone();
            let mut delta1 = words(11, len);
            let mut delta2 = delta1.clone();
            let g1 = claim_new_accum(&next, &mut seen1, &mut delta1);
            let g2 = claim_new_accum_scalar(&next, &mut seen2, &mut delta2);
            assert_eq!(
                (seen1, delta1, g1),
                (seen2, delta2, g2),
                "claim_new_accum len={len}"
            );
        }
    }

    #[test]
    fn claim_new_claims_exactly_the_unseen_bits() {
        let next = vec![0b1111u64; 5];
        let mut seen = vec![0b0101u64; 5];
        let mut delta = vec![u64::MAX; 5];
        assert!(claim_new(&next, &mut seen, &mut delta));
        assert_eq!(seen, vec![0b1111u64; 5]);
        // Overwrites the consumed delta row.
        assert_eq!(delta, vec![0b1010u64; 5]);
        // Nothing left to claim: delta must end all-zero.
        let mut delta2 = vec![u64::MAX; 5];
        assert!(!claim_new(&next, &mut seen, &mut delta2));
        assert_eq!(delta2, vec![0u64; 5]);
    }
}
