//! Seeded inputs.  Everything a run feeds the program — repair specs, eval
//! payloads, `lin_regions` slices — is drawn here from the workload seed,
//! so one seed always yields the same operation sequence and the program
//! only ever sees the generated inputs.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Inputs per eval payload.
pub const EVAL_BATCH: usize = 4;

/// Distinct payloads in the hot pool.
pub const HOT_POOL: u64 = 16;

/// Half-width of the uniform noise that makes each unique payload unique.
const PAYLOAD_NOISE: f64 = 0.02;

/// An independent RNG stream of `seed`: each use of randomness (specs,
/// warm-up, each client connection, each payload) gets its own stream, so
/// adding draws to one never shifts another.
pub fn stream(seed: u64, stream: u64) -> StdRng {
    let mut x = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // splitmix64 finaliser: nearby (seed, stream) pairs land far apart.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    StdRng::seed_from_u64(x ^ (x >> 31))
}

/// Stream ids, one per use.
pub mod streams {
    /// The timed repair specs.
    pub const SPECS: u64 = 1;
    /// The untimed warm-up operation.
    pub const WARMUP: u64 = 2;
    /// The hot payload pool.
    pub const HOT: u64 = 3;
    /// Read sequence of serving connection `c` is `READS + c`.
    pub const READS: u64 = 16;
    /// Payload `item` is drawn from stream `PAYLOAD + item`.
    pub const PAYLOAD: u64 = 1 << 40;
}

/// `n_ops` point-repair specs, each `per_op` distinct indices into a pool
/// of `pool_len` images.
pub fn point_specs(
    mut rng: StdRng,
    n_ops: usize,
    pool_len: usize,
    per_op: usize,
) -> Vec<Vec<usize>> {
    let mut all: Vec<usize> = (0..pool_len).collect();
    (0..n_ops)
        .map(|_| {
            all.shuffle(&mut rng);
            all[..per_op].to_vec()
        })
        .collect()
}

/// `n_ops` polytope-repair specs of two lines each: consecutive pairs of
/// seeded permutations of `0..n_lines`.  Every pass over a permutation
/// uses each line once, so the lines a run covers barely depend on the
/// seed; the seed draws how they are paired and ordered.
pub fn line_pairs(mut rng: StdRng, n_ops: usize, n_lines: usize) -> Vec<[usize; 2]> {
    let mut pairs = Vec::with_capacity(n_ops);
    let mut perm: Vec<usize> = (0..n_lines).collect();
    while pairs.len() < n_ops {
        perm.shuffle(&mut rng);
        for pair in perm.chunks_exact(2) {
            if pairs.len() == n_ops {
                break;
            }
            pairs.push([pair[0], pair[1]]);
        }
    }
    pairs
}

/// What a read asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReadKind {
    /// `eval` of a unique payload (the cache-miss path).
    Eval,
    /// `eval` of a payload from the hot pool (the cache-hit path).
    EvalCached,
    /// `lin_regions` of a unique 2-D slice.
    LinRegions,
}

/// One read of a sequence.  `item` names the payload: a unique id for
/// [`ReadKind::Eval`] and [`ReadKind::LinRegions`], a hot-pool slot for
/// [`ReadKind::EvalCached`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Read {
    /// What the read asks.
    pub kind: ReadKind,
    /// Which payload it sends.
    pub item: u64,
}

/// `n` reads of a closed-loop connection, kinds drawn with `weights`
/// (eval, cached eval, lin_regions).  Unique items are numbered from
/// `first_item`.
pub fn reads(mut rng: StdRng, n: usize, weights: [u32; 3], first_item: u64) -> Vec<Read> {
    let total: u32 = weights.iter().sum();
    (0..n as u64)
        .map(|k| {
            let roll = rng.gen_range(0..total);
            let kind = if roll < weights[0] {
                ReadKind::Eval
            } else if roll < weights[0] + weights[1] {
                ReadKind::EvalCached
            } else {
                ReadKind::LinRegions
            };
            let item = match kind {
                ReadKind::EvalCached => rng.gen_range(0..HOT_POOL),
                _ => first_item + k,
            };
            Read { kind, item }
        })
        .collect()
}

/// The eval payload of `read`: [`EVAL_BATCH`] images drawn from `base`,
/// each offset by uniform noise so that unique payloads never repeat.
/// Hot-pool slots draw from their own stream, so slot `s` is the same
/// payload for the whole run.
pub fn eval_payload(seed: u64, read: Read, base: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut rng = match read.kind {
        ReadKind::EvalCached => stream(seed ^ streams::HOT, read.item),
        _ => stream(seed, streams::PAYLOAD + read.item),
    };
    (0..EVAL_BATCH)
        .map(|_| {
            let image = &base[rng.gen_range(0..base.len())];
            image
                .iter()
                .map(|&p| p + rng.gen_range(-PAYLOAD_NOISE..PAYLOAD_NOISE))
                .collect()
        })
        .collect()
}

/// The corners of the unique φ8 slice of `read`, a 2-D polygon in the
/// collision-avoidance network's input space.
pub fn phi8_slice(seed: u64, read: Read) -> Vec<Vec<f64>> {
    let mut rng = stream(seed, streams::PAYLOAD + read.item);
    prdnn_datasets::acas::random_phi8_slices(1, &mut rng)[0].corners()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(seed: u64) -> (Vec<Vec<usize>>, Vec<[usize; 2]>, Vec<Read>) {
        (
            point_specs(stream(seed, streams::SPECS), 20, 100, 15),
            line_pairs(stream(seed, streams::SPECS), 200, 271),
            reads(stream(seed, streams::READS), 500, [2, 2, 1], 0),
        )
    }

    #[test]
    fn one_seed_yields_the_same_sequence_and_another_a_different_one() {
        assert_eq!(sequence(7), sequence(7));
        let (points, lines, reads) = sequence(8);
        let other = sequence(7);
        assert_ne!(points, other.0);
        assert_ne!(lines, other.1);
        assert_ne!(reads, other.2);

        let base = vec![vec![0.0; 3], vec![1.0; 3]];
        let read = reads[0];
        assert_eq!(eval_payload(8, read, &base), eval_payload(8, read, &base));
        assert_ne!(eval_payload(8, read, &base), eval_payload(9, read, &base));
        let lin = Read {
            kind: ReadKind::LinRegions,
            item: 3,
        };
        assert_eq!(phi8_slice(8, lin), phi8_slice(8, lin));
        assert_ne!(phi8_slice(8, lin), phi8_slice(9, lin));
    }

    #[test]
    fn specs_are_well_formed() {
        let (points, lines, reads) = sequence(1);
        for spec in &points {
            let mut sorted = spec.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 15, "point spec repeats an image");
        }
        // The first 135 pairs use every line of the first permutation once.
        let mut used: Vec<usize> = lines[..135].iter().flatten().copied().collect();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), 270);
        assert!(reads.iter().any(|r| r.kind == ReadKind::LinRegions));
        assert!(reads
            .iter()
            .filter(|r| r.kind == ReadKind::EvalCached)
            .all(|r| r.item < HOT_POOL));
    }
}
