//! Compact identification of one subtask transfer.
//!
//! Network tags and scheduler tokens are bare `u64`s; this module packs
//! `(iteration, worker, kind, tensor, partition)` into one and back.
//! Layout (MSB→LSB): 16-bit iteration, 8-bit worker, 2-bit kind, 14-bit
//! tensor, 24-bit partition — comfortably above every experiment in the
//! repository (≤ 64 workers, ≤ 54 tensors, ≤ 7 000 partitions of the
//! largest tensor at the smallest δ swept). The iteration field's top
//! bit is bit 63, the co-tenant burst marker
//! ([`BG_TAG`](crate::traffic::BG_TAG)), so tokens name iterations below
//! [`ITER_LIMIT`] only.

use bs_core::CommKind;

/// A fully-decoded subtask identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Token {
    /// Training iteration the gradient belongs to.
    pub iter: u64,
    /// Worker index (for PS: which worker pushes/pulls; for all-reduce:
    /// unused, 0).
    pub worker: usize,
    /// Push / Pull / AllReduce.
    pub kind: CommKind,
    /// Tensor (layer) index.
    pub tensor: u32,
    /// Partition index within the tensor.
    pub part: u32,
}

/// Iterations a token can name: `0..ITER_LIMIT` (2^15). A run may train
/// at most this many iterations.
pub const ITER_LIMIT: u64 = 1 << (ITER_BITS - 1);

const ITER_BITS: u32 = 16;
const WORKER_BITS: u32 = 8;
const KIND_BITS: u32 = 2;
const TENSOR_BITS: u32 = 14;
const PART_BITS: u32 = 24;

impl Token {
    /// Packs into a `u64`. Panics if any field exceeds its bit budget —
    /// better a loud failure than a silently-corrupted experiment.
    pub fn pack(self) -> u64 {
        assert!(self.iter < ITER_LIMIT, "iteration overflow");
        assert!(self.worker < (1 << WORKER_BITS), "worker overflow");
        assert!(self.tensor < (1 << TENSOR_BITS), "tensor overflow");
        assert!(self.part < (1 << PART_BITS), "partition overflow");
        let kind = match self.kind {
            CommKind::Push => 0u64,
            CommKind::Pull => 1,
            CommKind::AllReduce => 2,
        };
        (self.iter << (WORKER_BITS + KIND_BITS + TENSOR_BITS + PART_BITS))
            | ((self.worker as u64) << (KIND_BITS + TENSOR_BITS + PART_BITS))
            | (kind << (TENSOR_BITS + PART_BITS))
            | ((self.tensor as u64) << PART_BITS)
            | self.part as u64
    }

    /// Unpacks from a `u64`. Panics on a kind field no token packs.
    pub fn unpack(v: u64) -> Token {
        Token::try_unpack(v).unwrap_or_else(|| {
            panic!(
                "corrupt token: kind bits {}",
                (v >> (TENSOR_BITS + PART_BITS)) & ((1 << KIND_BITS) - 1)
            )
        })
    }

    /// Unpacks from a `u64`, or `None` on a kind field no token packs.
    pub fn try_unpack(v: u64) -> Option<Token> {
        let part = (v & ((1 << PART_BITS) - 1)) as u32;
        let tensor = ((v >> PART_BITS) & ((1 << TENSOR_BITS) - 1)) as u32;
        let kind = match (v >> (TENSOR_BITS + PART_BITS)) & ((1 << KIND_BITS) - 1) {
            0 => CommKind::Push,
            1 => CommKind::Pull,
            2 => CommKind::AllReduce,
            _ => return None,
        };
        let worker =
            ((v >> (KIND_BITS + TENSOR_BITS + PART_BITS)) & ((1 << WORKER_BITS) - 1)) as usize;
        let iter = v >> (WORKER_BITS + KIND_BITS + TENSOR_BITS + PART_BITS);
        Some(Token {
            iter,
            worker,
            kind,
            tensor,
            part,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_representative_values() {
        for (iter, worker, kind, tensor, part) in [
            (0u64, 0usize, CommKind::Push, 0u32, 0u32),
            (499, 63, CommKind::Pull, 53, 6_866),
            (32_767, 255, CommKind::AllReduce, 16_383, 16_777_215),
        ] {
            let t = Token {
                iter,
                worker,
                kind,
                tensor,
                part,
            };
            assert_eq!(Token::unpack(t.pack()), t);
        }
    }

    #[test]
    fn distinct_tokens_pack_distinctly() {
        let a = Token {
            iter: 1,
            worker: 2,
            kind: CommKind::Push,
            tensor: 3,
            part: 4,
        };
        let mut b = a;
        b.kind = CommKind::Pull;
        assert_ne!(a.pack(), b.pack());
        let mut c = a;
        c.part = 5;
        assert_ne!(a.pack(), c.pack());
    }

    #[test]
    #[should_panic(expected = "iteration overflow")]
    fn iterations_stay_clear_of_the_burst_bit() {
        Token {
            iter: ITER_LIMIT,
            worker: 0,
            kind: CommKind::Push,
            tensor: 0,
            part: 0,
        }
        .pack();
    }

    #[test]
    #[should_panic(expected = "worker overflow")]
    fn overflow_is_loud() {
        Token {
            iter: 0,
            worker: 256,
            kind: CommKind::Push,
            tensor: 0,
            part: 0,
        }
        .pack();
    }
}
