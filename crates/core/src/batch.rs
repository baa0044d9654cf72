//! Batch assembly (§3.2 ➀): variable-size packets are cut and assembled
//! into fixed-size batches at each input port's per-output SRAM queues.
//! Packets may straddle two batches.

use std::collections::VecDeque;

use rip_sim::VecPool;
use rip_traffic::{FlowKey, Packet};
use rip_units::{DataSize, SimTime};
use serde::{Deserialize, Serialize};

/// A contiguous piece of one packet inside a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Chunk {
    /// The packet id.
    pub packet: u64,
    /// Byte offset of this chunk within the packet.
    pub offset: u64,
    /// Chunk length.
    pub len: DataSize,
    /// True if this chunk carries the packet's last byte.
    pub is_last: bool,
    /// The packet's arrival time (threaded through for delay stats).
    pub arrival: SimTime,
    /// The packet's flow (threaded through for egress lane hashing).
    pub flow: FlowKey,
}

/// One fixed-size batch of packet data for a single output (§3.2:
/// "variable-size packets arrive at per-output queues, where they are
/// cut and assembled into fixed-size batches").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Batch {
    /// Input port that formed the batch.
    pub input: usize,
    /// Output the batch is destined to.
    pub output: usize,
    /// Per-(input, output) batch sequence number.
    pub seq: u64,
    /// The packet chunks packed into the batch, in FIFO order.
    pub chunks: Vec<Chunk>,
    /// Padding bytes appended (only for timeout/bypass flushes).
    pub padding: DataSize,
}

impl Batch {
    /// Total payload bytes (excluding padding).
    pub fn payload(&self) -> DataSize {
        self.chunks.iter().map(|c| c.len).sum()
    }

    /// Payload + padding; always equals the configured batch size `k`.
    pub fn size(&self) -> DataSize {
        self.payload() + self.padding
    }

    /// [`Batch::payload`] of a batch of size `k`, derived from its
    /// padding instead of summed over its chunks.
    pub fn payload_in(&self, k: DataSize) -> DataSize {
        debug_assert_eq!(self.size(), k, "a batch is always k bytes");
        k - self.padding
    }
}

/// Per-output VOQ state inside one input port.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Voq {
    /// Queued (packet id, current offset, total size, arrival, flow).
    pending: VecDeque<(u64, u64, DataSize, SimTime, FlowKey)>,
    /// Total queued bytes.
    queued: DataSize,
    /// Next batch sequence number.
    next_seq: u64,
}

/// The batch assembler of one input port: N per-output VOQs feeding
/// fixed-size batches, with packet straddling and optional padded
/// flushes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchAssembler {
    input: usize,
    batch_size: DataSize,
    voqs: Vec<Voq>,
}

impl BatchAssembler {
    /// An assembler for `input` with `outputs` VOQs and batch size `k`.
    pub fn new(input: usize, outputs: usize, batch_size: DataSize) -> Self {
        assert!(outputs > 0 && !batch_size.is_zero());
        assert!(
            batch_size.is_byte_aligned(),
            "batch size must be whole bytes"
        );
        BatchAssembler {
            input,
            batch_size,
            voqs: vec![Voq::default(); outputs],
        }
    }

    /// Bytes queued for `output` (not yet emitted in a batch).
    pub fn queued(&self, output: usize) -> DataSize {
        self.voqs[output].queued
    }

    /// Total bytes queued across all outputs.
    pub fn total_queued(&self) -> DataSize {
        self.voqs.iter().map(|v| v.queued).sum()
    }

    /// Enqueue a packet and return any batches completed by it
    /// (usually 0 or 1; more for packets larger than a batch).
    ///
    /// Convenience wrapper over [`BatchAssembler::push_into`] that
    /// allocates a fresh result vector — use `push_into` on hot paths.
    pub fn push(&mut self, p: &Packet) -> Vec<Batch> {
        let mut out = Vec::new();
        let mut pool = VecPool::new(0);
        self.push_into(p, &mut pool, &mut out);
        out
    }

    /// Enqueue a packet, appending any batches it completes to `out`
    /// (usually 0 or 1; more for packets larger than a batch). Chunk
    /// storage for new batches is drawn from `pool`, so a caller that
    /// retires drained batches back into the pool forms batches with no
    /// steady-state allocation.
    pub fn push_into(&mut self, p: &Packet, pool: &mut VecPool<Chunk>, out: &mut Vec<Batch>) {
        assert!(p.output < self.voqs.len(), "output out of range");
        assert!(!p.size.is_zero(), "empty packet");
        let voq = &mut self.voqs[p.output];
        voq.pending.push_back((p.id, 0, p.size, p.arrival, p.flow));
        voq.queued += p.size;
        while self.voqs[p.output].queued >= self.batch_size {
            let b = self.form_batch(p.output, false, pool);
            out.push(b);
        }
    }

    /// Force out a padded batch from the partial VOQ contents of
    /// `output` (timeout flush / bypass). Returns `None` if empty.
    pub fn flush(&mut self, output: usize) -> Option<Batch> {
        let mut pool = VecPool::new(0);
        self.flush_with(output, &mut pool)
    }

    /// [`BatchAssembler::flush`] drawing chunk storage from `pool`.
    pub fn flush_with(&mut self, output: usize, pool: &mut VecPool<Chunk>) -> Option<Batch> {
        if self.voqs[output].queued.is_zero() {
            return None;
        }
        Some(self.form_batch(output, true, pool))
    }

    /// Build one batch from the head of `output`'s VOQ. With `pad`,
    /// allows a partial fill topped up with padding.
    fn form_batch(&mut self, output: usize, pad: bool, pool: &mut VecPool<Chunk>) -> Batch {
        let k = self.batch_size;
        let voq = &mut self.voqs[output];
        debug_assert!(pad || voq.queued >= k);
        let mut remaining = k;
        let mut chunks = pool.get();
        while !remaining.is_zero() {
            let Some((id, offset, size, arrival, flow)) = voq.pending.front().copied() else {
                break;
            };
            let left = DataSize::from_bytes(size.bytes() - offset);
            let take = left.min(remaining);
            let is_last = take == left;
            chunks.push(Chunk {
                packet: id,
                offset,
                len: take,
                is_last,
                arrival,
                flow,
            });
            remaining -= take;
            voq.queued -= take;
            if is_last {
                voq.pending.pop_front();
            } else {
                voq.pending.front_mut().expect("nonempty").1 = offset + take.bytes();
            }
        }
        let seq = voq.next_seq;
        voq.next_seq += 1;
        Batch {
            input: self.input,
            output,
            seq,
            chunks,
            padding: remaining,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(id: u64, output: usize, bytes: u64) -> Packet {
        Packet::new(id, 0, output, DataSize::from_bytes(bytes), SimTime::ZERO)
    }

    fn asm() -> BatchAssembler {
        BatchAssembler::new(0, 4, DataSize::from_kib(1))
    }

    #[test]
    fn no_batch_until_k_bytes() {
        let mut a = asm();
        assert!(a.push(&pkt(1, 0, 500)).is_empty());
        assert_eq!(a.queued(0), DataSize::from_bytes(500));
        let batches = a.push(&pkt(2, 0, 600));
        assert_eq!(batches.len(), 1);
        assert_eq!(a.queued(0), DataSize::from_bytes(76)); // 1100 - 1024
    }

    #[test]
    fn straddling_splits_a_packet_across_batches() {
        let mut a = asm();
        a.push(&pkt(1, 0, 500));
        let batches = a.push(&pkt(2, 0, 600));
        let b = &batches[0];
        assert_eq!(b.chunks.len(), 2);
        assert_eq!(b.chunks[0].packet, 1);
        assert!(b.chunks[0].is_last);
        assert_eq!(b.chunks[1].packet, 2);
        assert_eq!(b.chunks[1].len, DataSize::from_bytes(524));
        assert!(!b.chunks[1].is_last);
        assert_eq!(b.size(), DataSize::from_kib(1));
        assert_eq!(b.padding, DataSize::ZERO);
        // The rest of packet 2 surfaces in the next (padded) flush.
        let tail = a.flush(0).unwrap();
        assert_eq!(tail.chunks.len(), 1);
        assert_eq!(tail.chunks[0].packet, 2);
        assert_eq!(tail.chunks[0].offset, 524);
        assert!(tail.chunks[0].is_last);
        assert_eq!(tail.padding, DataSize::from_bytes(1024 - 76));
        assert_eq!(tail.size(), DataSize::from_kib(1));
    }

    #[test]
    fn jumbo_packet_fills_multiple_batches() {
        let mut a = asm();
        let batches = a.push(&pkt(1, 2, 3000));
        assert_eq!(batches.len(), 2);
        assert!(batches.iter().all(|b| b.output == 2));
        assert_eq!(batches[0].seq, 0);
        assert_eq!(batches[1].seq, 1);
        assert_eq!(a.queued(2), DataSize::from_bytes(3000 - 2048));
        // Only the final chunk is marked last.
        assert!(!batches[0].chunks[0].is_last);
        assert!(!batches[1].chunks[0].is_last);
        let tail = a.flush(2).unwrap();
        assert!(tail.chunks[0].is_last);
    }

    #[test]
    fn outputs_are_independent() {
        let mut a = asm();
        a.push(&pkt(1, 0, 1000));
        a.push(&pkt(2, 1, 1000));
        assert!(a.push(&pkt(3, 0, 100)).len() == 1);
        assert_eq!(a.queued(1), DataSize::from_bytes(1000));
        assert_eq!(a.total_queued(), DataSize::from_bytes(76 + 1000));
    }

    #[test]
    fn flush_on_empty_is_none() {
        let mut a = asm();
        assert!(a.flush(3).is_none());
    }

    #[test]
    fn byte_conservation_across_many_pushes() {
        let mut a = asm();
        let mut in_bytes = 0u64;
        let mut out_bytes = 0u64;
        for i in 0..500u64 {
            let size = 40 + (i * 97) % 1400;
            in_bytes += size;
            for b in a.push(&pkt(i, (i % 4) as usize, size)) {
                out_bytes += b.payload().bytes();
            }
        }
        for o in 0..4 {
            while let Some(b) = a.flush(o) {
                out_bytes += b.payload().bytes();
            }
        }
        assert_eq!(in_bytes, out_bytes);
        assert_eq!(a.total_queued(), DataSize::ZERO);
    }

    #[test]
    fn chunk_order_preserves_fifo_within_output() {
        let mut a = asm();
        let mut batches = Vec::new();
        for i in 0..20u64 {
            batches.extend(a.push(&pkt(i, 0, 300)));
        }
        while let Some(b) = a.flush(0) {
            batches.push(b);
        }
        // Concatenate chunk ids: packet ids must be non-decreasing and
        // offsets within a packet increasing.
        let mut last: Option<(u64, u64)> = None;
        for b in &batches {
            for c in &b.chunks {
                if let Some((lp, lo)) = last {
                    assert!(c.packet > lp || (c.packet == lp && c.offset > lo));
                }
                last = Some((c.packet, c.offset));
            }
        }
    }
}
