//! Tail and head SRAM stages (§3.2 ➁ and ➄).
//!
//! Physically these are `N` SRAM modules each holding one slice of every
//! batch (the cyclical crossbar keeps all modules in lockstep, one
//! staggered slot apart). Because the modules advance in lockstep, the
//! simulator tracks whole batches and frames; the per-module slice view
//! is exercised by the crossbar unit tests.

use std::collections::VecDeque;

use rip_units::DataSize;
use serde::{Deserialize, Serialize};

use crate::batch::{Batch, Chunk};

/// One frame: `K/k` batches for a single output, possibly padded.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Frame {
    /// The destination output.
    pub output: usize,
    /// The batches packed into the frame, FIFO order.
    pub batches: Vec<Batch>,
    /// Whole-batch padding added to fill the frame (bypass/padded sends).
    pub padded_batches: u64,
}

impl Frame {
    /// Payload bytes (excluding batch- and frame-level padding).
    pub fn payload(&self) -> DataSize {
        self.batches.iter().map(|b| b.payload()).sum()
    }

    /// Every chunk of the frame, batch by batch.
    pub fn chunks(&self) -> impl Iterator<Item = &Chunk> {
        self.batches.iter().flat_map(|b| &b.chunks)
    }
}

/// Occupancy accounting shared by the tail and head SRAM.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct SramOccupancy {
    /// Current bytes held.
    pub bytes: DataSize,
    /// Peak bytes held.
    pub peak: DataSize,
}

impl SramOccupancy {
    fn add(&mut self, d: DataSize) {
        self.bytes += d;
        self.peak = self.peak.max(self.bytes);
    }

    fn sub(&mut self, d: DataSize) {
        self.bytes = self.bytes.saturating_sub(d);
    }
}

/// The tail SRAM (§3.2 ➁): batches arrive striped over the `N` modules,
/// accumulate in per-output queues, and graduate into frames of `K/k`
/// batches which enter a logical FIFO toward the HBM writer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TailSram {
    batches_per_frame: u64,
    /// Per-output batch accumulation queues.
    forming: Vec<VecDeque<Batch>>,
    occupancy: SramOccupancy,
}

impl TailSram {
    /// A tail SRAM for `outputs` outputs with `batches_per_frame` = K/k.
    pub fn new(outputs: usize, batches_per_frame: u64) -> Self {
        assert!(outputs > 0 && batches_per_frame > 0);
        TailSram {
            batches_per_frame,
            forming: vec![VecDeque::new(); outputs],
            occupancy: SramOccupancy::default(),
        }
    }

    /// Accept one batch; returns a full frame if this batch completed
    /// one (§3.2: "when the queue size of a module reaches K/k batch
    /// slices, it forms a new frame slice").
    pub fn push_batch(&mut self, batch: Batch) -> Option<Frame> {
        let o = batch.output;
        self.occupancy.add(batch.size());
        self.forming[o].push_back(batch);
        if self.forming[o].len() as u64 >= self.batches_per_frame {
            let batches: Vec<Batch> = self.forming[o]
                .drain(..self.batches_per_frame as usize)
                .collect();
            let size: DataSize = batches.iter().map(|b| b.size()).sum();
            self.occupancy.sub(size);
            Some(Frame {
                output: o,
                batches,
                padded_batches: 0,
            })
        } else {
            None
        }
    }

    /// Take whatever is queued for `output` as a padded frame (§4
    /// "Latency and bypass"). Returns `None` if nothing is queued.
    pub fn take_padded_frame(&mut self, output: usize) -> Option<Frame> {
        if self.forming[output].is_empty() {
            return None;
        }
        let batches: Vec<Batch> = self.forming[output].drain(..).collect();
        let size: DataSize = batches.iter().map(|b| b.size()).sum();
        self.occupancy.sub(size);
        let padded = self.batches_per_frame - batches.len() as u64;
        Some(Frame {
            output,
            batches,
            padded_batches: padded,
        })
    }

    /// Batches currently forming for `output`.
    pub fn forming_len(&self, output: usize) -> usize {
        self.forming[output].len()
    }

    /// Occupancy accounting.
    pub fn occupancy(&self) -> SramOccupancy {
        self.occupancy
    }
}

/// The head SRAM (§3.2 ➄): per-output frame buffers drained by the
/// output ports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeadSram {
    /// Per-output buffered frames.
    frames: Vec<VecDeque<Frame>>,
    /// Per-output limit, in frames.
    limit: usize,
    occupancy: SramOccupancy,
}

impl HeadSram {
    /// A head SRAM for `outputs` outputs holding up to `limit` frames
    /// each.
    pub fn new(outputs: usize, limit: usize) -> Self {
        assert!(outputs > 0 && limit > 0);
        HeadSram {
            frames: vec![VecDeque::new(); outputs],
            limit,
            occupancy: SramOccupancy::default(),
        }
    }

    /// True if `output` can accept another frame.
    pub fn has_room(&self, output: usize) -> bool {
        self.frames[output].len() < self.limit
    }

    /// Buffer a frame for its output.
    ///
    /// # Panics
    /// Panics if the output is full — the read engine must check
    /// [`HeadSram::has_room`] before fetching a frame.
    pub fn push_frame(&mut self, frame: Frame) {
        let o = frame.output;
        assert!(self.has_room(o), "head SRAM overflow on output {o}");
        self.occupancy.add(frame.payload());
        self.frames[o].push_back(frame);
    }

    /// Pop the next batch for `output`, cutting frames back into
    /// batches FIFO.
    pub fn pop_batch(&mut self, output: usize) -> Option<Batch> {
        let q = &mut self.frames[output];
        loop {
            let front = q.front_mut()?;
            if front.batches.is_empty() {
                q.pop_front();
                continue;
            }
            let batch = front.batches.remove(0);
            if front.batches.is_empty() {
                q.pop_front();
            }
            self.occupancy.sub(batch.payload());
            return Some(batch);
        }
    }

    /// Frames currently buffered for `output`.
    pub fn frames_buffered(&self, output: usize) -> usize {
        self.frames[output].len()
    }

    /// True if `output` has any batch to drain.
    pub fn has_data(&self, output: usize) -> bool {
        self.frames[output].iter().any(|f| !f.batches.is_empty())
    }

    /// Occupancy accounting.
    pub fn occupancy(&self) -> SramOccupancy {
        self.occupancy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Chunk;
    use rip_units::SimTime;

    fn batch(output: usize, seq: u64, bytes: u64) -> Batch {
        Batch {
            input: 0,
            output,
            seq,
            chunks: vec![Chunk {
                packet: seq,
                offset: 0,
                len: DataSize::from_bytes(bytes),
                is_last: true,
                arrival: SimTime::ZERO,
                flow: rip_traffic::FlowKey {
                    src_ip: 1,
                    dst_ip: 2,
                    src_port: 3,
                    dst_port: 4,
                    proto: 6,
                },
            }],
            padding: DataSize::from_bytes(1024 - bytes),
        }
    }

    #[test]
    fn tail_forms_frame_after_k_over_k_batches() {
        let mut t = TailSram::new(4, 4);
        for seq in 0..3 {
            assert!(t.push_batch(batch(1, seq, 1000)).is_none());
        }
        assert_eq!(t.forming_len(1), 3);
        let f = t.push_batch(batch(1, 3, 1000)).expect("frame forms");
        assert_eq!(f.batches.len(), 4);
        assert_eq!(f.output, 1);
        assert_eq!(f.padded_batches, 0);
        assert_eq!(t.forming_len(1), 0);
        // Occupancy returned to zero.
        assert_eq!(t.occupancy().bytes, DataSize::ZERO);
        assert_eq!(t.occupancy().peak, DataSize::from_bytes(4096));
    }

    #[test]
    fn tail_outputs_are_independent() {
        let mut t = TailSram::new(2, 2);
        t.push_batch(batch(0, 0, 100));
        t.push_batch(batch(1, 0, 100));
        assert!(t.push_batch(batch(0, 1, 100)).is_some());
        assert_eq!(t.forming_len(1), 1);
    }

    #[test]
    fn padded_frame_takes_partial_contents() {
        let mut t = TailSram::new(2, 4);
        t.push_batch(batch(0, 0, 500));
        let f = t.take_padded_frame(0).expect("partial frame");
        assert_eq!(f.batches.len(), 1);
        assert_eq!(f.padded_batches, 3);
        assert!(t.take_padded_frame(0).is_none());
    }

    #[test]
    fn head_buffers_and_cuts_frames() {
        let mut h = HeadSram::new(2, 2);
        assert!(h.has_room(0));
        let f = Frame {
            output: 0,
            batches: vec![batch(0, 0, 700), batch(0, 1, 800)],
            padded_batches: 0,
        };
        h.push_frame(f);
        assert_eq!(h.frames_buffered(0), 1);
        assert!(h.has_data(0));
        let b0 = h.pop_batch(0).unwrap();
        assert_eq!(b0.seq, 0);
        let b1 = h.pop_batch(0).unwrap();
        assert_eq!(b1.seq, 1);
        assert!(h.pop_batch(0).is_none());
        assert!(!h.has_data(0));
        assert_eq!(h.occupancy().bytes, DataSize::ZERO);
    }

    #[test]
    fn head_room_limit_enforced() {
        let mut h = HeadSram::new(1, 1);
        h.push_frame(Frame {
            output: 0,
            batches: vec![batch(0, 0, 100)],
            padded_batches: 0,
        });
        assert!(!h.has_room(0));
    }

    #[test]
    #[should_panic(expected = "head SRAM overflow")]
    fn head_overflow_panics() {
        let mut h = HeadSram::new(1, 1);
        for seq in 0..2 {
            h.push_frame(Frame {
                output: 0,
                batches: vec![batch(0, seq, 100)],
                padded_batches: 0,
            });
        }
    }

    #[test]
    fn empty_frames_are_skipped_by_pop() {
        let mut h = HeadSram::new(1, 4);
        h.push_frame(Frame {
            output: 0,
            batches: vec![],
            padded_batches: 4,
        });
        h.push_frame(Frame {
            output: 0,
            batches: vec![batch(0, 9, 64)],
            padded_batches: 3,
        });
        let b = h.pop_batch(0).unwrap();
        assert_eq!(b.seq, 9);
        assert!(h.pop_batch(0).is_none());
    }
}
