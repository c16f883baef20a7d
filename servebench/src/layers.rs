//! Generator-side timing of the §3 combinatorics and the block codec,
//! called on the run's own input blocks. The same code runs in every
//! server receiver (rank/decode) and every transmitter (unrank/encode).

use rstp_codec::BlockCodec;
use rstp_combinatorics::MultisetCodec;
use rstp_core::Message;
use std::hint::black_box;
use std::time::Instant;

/// Mean nanoseconds per call of each function.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodecTimes {
    /// `MultisetCodec::unrank`.
    pub unrank_ns: f64,
    /// `MultisetCodec::rank`.
    pub rank_ns: f64,
    /// `BlockCodec::encode_block`.
    pub encode_block_ns: f64,
    /// `BlockCodec::decode_block`.
    pub decode_block_ns: f64,
}

/// Blocks timed per call site, at most.
const MAX_BLOCKS: usize = 4096;
/// Passes over the blocks, so each figure covers enough calls.
const PASSES: usize = 8;

fn ns_per(start: Instant, calls: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Times the four calls on the full blocks of `inputs` for alphabet `k`
/// and burst size `burst`, checking that every block round-trips.
///
/// # Errors
///
/// A codec error, or a block that does not decode to its own bits.
pub fn time_codec(k: u64, burst: u64, inputs: &[Vec<Message>]) -> Result<CodecTimes, String> {
    let codec = BlockCodec::new(k, burst).map_err(|e| e.to_string())?;
    let multi = MultisetCodec::new(k, burst).map_err(|e| e.to_string())?;
    let bits = codec.bits_per_block() as usize;
    let blocks: Vec<&[Message]> = inputs
        .iter()
        .flat_map(|x| x.chunks_exact(bits))
        .take(MAX_BLOCKS)
        .collect();
    if blocks.is_empty() {
        return Err("no full input block to time".into());
    }
    let calls = blocks.len() * PASSES;

    let mut bursts = Vec::with_capacity(blocks.len());
    let start = Instant::now();
    for pass in 0..PASSES {
        for b in &blocks {
            let burst = black_box(codec.encode_block(black_box(b))).map_err(|e| e.to_string())?;
            if pass == 0 {
                bursts.push(burst);
            }
        }
    }
    let encode_block_ns = ns_per(start, calls);

    let sets = bursts
        .iter()
        .map(|p| codec.collect(p))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let start = Instant::now();
    for pass in 0..PASSES {
        for (set, block) in sets.iter().zip(&blocks) {
            let got = black_box(codec.decode_block(black_box(set))).map_err(|e| e.to_string())?;
            if pass == 0 && got.as_slice() != *block {
                return Err("a block did not decode to its own bits".into());
            }
        }
    }
    let decode_block_ns = ns_per(start, calls);

    let mut ranks = Vec::with_capacity(sets.len());
    let start = Instant::now();
    for pass in 0..PASSES {
        for set in &sets {
            let r = black_box(multi.rank(black_box(set))).map_err(|e| e.to_string())?;
            if pass == 0 {
                ranks.push(r);
            }
        }
    }
    let rank_ns = ns_per(start, calls);

    let start = Instant::now();
    for pass in 0..PASSES {
        for (&r, set) in ranks.iter().zip(&sets) {
            let got = black_box(multi.unrank(black_box(r))).map_err(|e| e.to_string())?;
            if pass == 0 && &got != set {
                return Err("a rank did not unrank to its own multiset".into());
            }
        }
    }
    let unrank_ns = ns_per(start, calls);

    Ok(CodecTimes {
        unrank_ns,
        rank_ns,
        encode_block_ns,
        decode_block_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstp_sim::harness::random_input;

    #[test]
    fn times_are_positive_and_blocks_round_trip() {
        let inputs = vec![random_input(256, 1), random_input(256, 2)];
        let t = time_codec(4, 8, &inputs).expect("timing");
        assert!(t.unrank_ns > 0.0 && t.rank_ns > 0.0);
        assert!(t.encode_block_ns > 0.0 && t.decode_block_ns > 0.0);
    }

    #[test]
    fn inputs_shorter_than_a_block_are_refused() {
        assert!(time_codec(4, 8, &[vec![true; 3]]).is_err());
    }
}
