//! Intra-frame preemption (§3.2.3) — EDM's mechanism for keeping small
//! memory messages out from behind large Ethernet frames.
//!
//! **TX side** ([`PreemptMux`]): a per-link multiplexer holding two queues —
//! memory messages (as atomic block groups) and non-memory frame blocks.
//! Each PHY clock cycle it emits exactly one 66-bit block. Because memory
//! messages are bracketed `/MS/…/MT/` runs whose interior `/MD/` blocks are
//! contextually identified, a memory message is never itself interleaved;
//! but a *frame* can be suspended at any block boundary, a whole memory
//! message inserted, and the frame resumed — which is precisely the
//! intra-frame preemption the MAC layer cannot do.
//!
//! **RX side** ([`RxReorderBuffer`]): memory blocks are extracted and
//! delivered immediately (zero added latency); frame blocks are buffered
//! until their `/T/` arrives and then released contiguously, because the
//! standard PCS decoder and MAC expect a frame's blocks in consecutive
//! cycles. The buffering cost (one frame's transmission time, worst case)
//! is paid by non-memory traffic only, matching the paper.

use crate::block::Block;
use std::collections::VecDeque;

/// TX scheduling policy between memory and non-memory blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TxPolicy {
    /// Alternate fairly between the two classes when both have traffic
    /// (the paper's default).
    #[default]
    Fair,
    /// Strictly prioritize memory blocks over non-memory blocks.
    MemoryFirst,
}

/// The per-link TX multiplexer.
#[derive(Debug)]
pub struct PreemptMux {
    policy: TxPolicy,
    /// Queue of memory messages, each an atomic run of blocks.
    mem: VecDeque<VecDeque<Block>>,
    /// Queue of non-memory (frame) blocks, already encoded.
    frame: VecDeque<Block>,
    /// Remaining blocks of a memory message currently being transmitted.
    in_flight_mem: VecDeque<Block>,
    /// For [`TxPolicy::Fair`]: whose turn it is when both classes compete.
    mem_turn: bool,
    /// Total idle blocks emitted (both queues empty) — IFG accounting.
    idle_blocks: u64,
    /// Total blocks emitted.
    total_blocks: u64,
}

impl PreemptMux {
    /// Creates a multiplexer with the given policy.
    pub fn new(policy: TxPolicy) -> Self {
        PreemptMux {
            policy,
            mem: VecDeque::new(),
            frame: VecDeque::new(),
            in_flight_mem: VecDeque::new(),
            mem_turn: true,
            idle_blocks: 0,
            total_blocks: 0,
        }
    }

    /// Enqueues a memory message (an atomic block run, e.g. from
    /// [`crate::mem_codec::encode_message`]).
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty or contains a non-memory block.
    pub fn enqueue_memory(&mut self, blocks: Vec<Block>) {
        assert!(!blocks.is_empty(), "empty memory message");
        assert!(
            blocks.iter().all(|b| b.is_memory()),
            "non-memory block in memory message"
        );
        self.mem.push_back(blocks.into());
    }

    /// Enqueues the blocks of a non-memory Ethernet frame.
    pub fn enqueue_frame(&mut self, blocks: Vec<Block>) {
        self.frame.extend(blocks);
    }

    /// Pending memory blocks (including the in-flight message).
    pub fn pending_memory_blocks(&self) -> usize {
        self.in_flight_mem.len() + self.mem.iter().map(|m| m.len()).sum::<usize>()
    }

    /// Pending non-memory blocks.
    pub fn pending_frame_blocks(&self) -> usize {
        self.frame.len()
    }

    /// Idle blocks emitted so far.
    pub fn idle_blocks(&self) -> u64 {
        self.idle_blocks
    }

    /// Total blocks emitted so far.
    pub fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    /// Emits the block for this PHY clock cycle.
    ///
    /// Exactly one block leaves per cycle; `/E/` idles fill empty slots
    /// (the stream never stalls, as on a real link).
    pub fn tick(&mut self) -> Block {
        self.total_blocks += 1;
        // Rule 1: never split a memory message once started.
        if let Some(b) = self.in_flight_mem.pop_front() {
            return b;
        }
        let mem_ready = !self.mem.is_empty();
        let frame_ready = !self.frame.is_empty();
        let take_mem = match (mem_ready, frame_ready) {
            (false, false) => {
                self.idle_blocks += 1;
                return Block::Idle;
            }
            (true, false) => true,
            (false, true) => false,
            (true, true) => match self.policy {
                TxPolicy::MemoryFirst => true,
                TxPolicy::Fair => {
                    let turn = self.mem_turn;
                    self.mem_turn = !self.mem_turn;
                    turn
                }
            },
        };
        if take_mem {
            let mut msg = self.mem.pop_front().expect("mem_ready");
            let first = msg.pop_front().expect("non-empty message");
            self.in_flight_mem = msg;
            first
        } else {
            self.frame.pop_front().expect("frame_ready")
        }
    }

    /// Drains the mux, returning every remaining block in emission order
    /// (no idles).
    pub fn drain(&mut self) -> Vec<Block> {
        let mut out = Vec::new();
        while self.pending_memory_blocks() + self.pending_frame_blocks() > 0 {
            out.push(self.tick());
        }
        out
    }
}

impl Default for PreemptMux {
    fn default() -> Self {
        PreemptMux::new(TxPolicy::Fair)
    }
}

/// Output of one RX push: extracted memory blocks and any completed frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RxOutput {
    /// Memory blocks, delivered with zero buffering delay.
    pub mem: Vec<Block>,
    /// A completed non-memory frame (contiguous `/S/ /D/* /T/` run),
    /// released only once its `/T/` arrived.
    pub frame: Option<Vec<Block>>,
}

/// Errors from [`RxReorderBuffer::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxError {
    /// A frame block arrived inside a memory-message bracket; the TX mux
    /// never produces this, so it indicates corruption.
    FrameBlockInMemBracket,
    /// `/MT/` or `/MD/` without a preceding `/MS/`.
    OrphanMemoryBlock,
    /// A second `/S/` arrived before the previous frame's `/T/`.
    NestedFrame,
}

impl std::fmt::Display for RxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RxError::FrameBlockInMemBracket => write!(f, "frame block inside /MS/../MT/ bracket"),
            RxError::OrphanMemoryBlock => write!(f, "memory continuation without /MS/"),
            RxError::NestedFrame => write!(f, "/S/ while a frame is already open"),
        }
    }
}

impl std::error::Error for RxError {}

/// The RX-side reorder buffer of §3.2.3.
#[derive(Debug, Default)]
pub struct RxReorderBuffer {
    /// Open memory-message bracket: blocks collected since `/MS/`.
    in_mem_bracket: bool,
    /// Buffered blocks of the (possibly preempted) open frame.
    frame_buf: Vec<Block>,
    frame_open: bool,
    /// High-water mark of the frame buffer, to check the bound the paper
    /// states (bounded by the maximum frame size).
    frame_buf_high_water: usize,
}

impl RxReorderBuffer {
    /// Creates an empty reorder buffer.
    pub fn new() -> Self {
        RxReorderBuffer::default()
    }

    /// Highest frame-buffer occupancy seen, in blocks.
    pub fn frame_buf_high_water(&self) -> usize {
        self.frame_buf_high_water
    }

    /// Processes one received block.
    ///
    /// # Errors
    ///
    /// Returns an [`RxError`] for block sequences the TX mux cannot
    /// legally produce (indicating corruption).
    pub fn push(&mut self, block: Block) -> Result<RxOutput, RxError> {
        let mut out = RxOutput::default();
        if self.in_mem_bracket {
            match block {
                Block::Data(d) | Block::MemData(d) => out.mem.push(Block::MemData(d)),
                Block::MemTerminate { .. } => {
                    out.mem.push(block);
                    self.in_mem_bracket = false;
                }
                Block::Idle => {} // permissible gap inside circuit, dropped
                Block::Start(_) | Block::Terminate { .. } => {
                    return Err(RxError::FrameBlockInMemBracket)
                }
                Block::MemStart(_)
                | Block::MemSingle { .. }
                | Block::Notify { .. }
                | Block::Grant { .. } => return Err(RxError::FrameBlockInMemBracket),
            }
            return Ok(out);
        }
        match block {
            Block::Idle => {}
            Block::MemStart(_) => {
                self.in_mem_bracket = true;
                out.mem.push(block);
            }
            Block::MemSingle { .. } | Block::Notify { .. } | Block::Grant { .. } => {
                out.mem.push(block);
            }
            Block::MemData(_) | Block::MemTerminate { .. } => {
                return Err(RxError::OrphanMemoryBlock)
            }
            Block::Start(_) => {
                if self.frame_open {
                    return Err(RxError::NestedFrame);
                }
                self.frame_open = true;
                self.frame_buf.push(block);
                self.frame_buf_high_water = self.frame_buf_high_water.max(self.frame_buf.len());
            }
            Block::Data(_) => {
                if !self.frame_open {
                    // A /D/ with no open frame and no open bracket: the TX
                    // mux cannot produce this.
                    return Err(RxError::OrphanMemoryBlock);
                }
                self.frame_buf.push(block);
                self.frame_buf_high_water = self.frame_buf_high_water.max(self.frame_buf.len());
            }
            Block::Terminate { .. } => {
                if !self.frame_open {
                    return Err(RxError::OrphanMemoryBlock);
                }
                self.frame_buf.push(block);
                self.frame_buf_high_water = self.frame_buf_high_water.max(self.frame_buf.len());
                self.frame_open = false;
                out.frame = Some(std::mem::take(&mut self.frame_buf));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;
    use crate::mem_codec::{encode_message, MemMessage};

    fn mem_blocks(len: usize) -> Vec<Block> {
        encode_message(&MemMessage::new(1, 0, vec![0xAB; len]))
    }

    #[test]
    fn memory_preempts_mid_frame() {
        let mut mux = PreemptMux::new(TxPolicy::Fair);
        mux.enqueue_frame(encode_frame(&[0u8; 1500]).unwrap());
        // Let the frame get going.
        let first = mux.tick();
        assert!(matches!(first, Block::Start(_)));
        let _ = mux.tick();
        // A memory message arrives mid-frame.
        mux.enqueue_memory(mem_blocks(8));
        // Within the next few slots the memory message must appear —
        // long before the 1500 B frame would have finished (188 blocks).
        let mut saw_ms_at = None;
        for i in 0..8 {
            if matches!(mux.tick(), Block::MemStart(_)) {
                saw_ms_at = Some(i);
                break;
            }
        }
        let pos = saw_ms_at.expect("memory message never started");
        assert!(pos <= 2, "memory had to wait {pos} slots under Fair");
    }

    #[test]
    fn memory_message_is_atomic() {
        let mut mux = PreemptMux::new(TxPolicy::Fair);
        mux.enqueue_frame(encode_frame(&[0u8; 200]).unwrap());
        mux.enqueue_memory(mem_blocks(64)); // 10 blocks
        let stream = mux.drain();
        // Find the /MS/.. /MT/ bracket and assert no frame blocks inside.
        let ms = stream
            .iter()
            .position(|b| matches!(b, Block::MemStart(_)))
            .unwrap();
        let mt = stream
            .iter()
            .position(|b| matches!(b, Block::MemTerminate { .. }))
            .unwrap();
        assert!(mt > ms);
        assert_eq!(mt - ms, 9, "64 B message spans exactly 10 blocks");
        for b in &stream[ms..=mt] {
            assert!(b.is_memory(), "frame block inside memory bracket: {b}");
        }
    }

    #[test]
    fn fair_policy_alternates_between_classes() {
        let mut mux = PreemptMux::new(TxPolicy::Fair);
        mux.enqueue_frame(encode_frame(&[0u8; 512]).unwrap());
        for _ in 0..4 {
            mux.enqueue_memory(mem_blocks(1)); // 2 blocks each
        }
        let stream = mux.drain();
        // Between two consecutive memory messages there must be at least one
        // frame block (fairness), and the frame must finish eventually.
        let frame_blocks = stream.iter().filter(|b| b.is_frame()).count();
        assert_eq!(frame_blocks, crate::frame::blocks_for_frame(512));
        assert!(stream.iter().any(|b| b.is_memory()));
    }

    #[test]
    fn memory_first_policy_drains_memory() {
        let mut mux = PreemptMux::new(TxPolicy::MemoryFirst);
        mux.enqueue_frame(encode_frame(&[0u8; 64]).unwrap());
        mux.enqueue_memory(mem_blocks(8));
        mux.enqueue_memory(mem_blocks(8));
        let stream = mux.drain();
        let last_mem = stream.iter().rposition(|b| b.is_memory()).unwrap();
        let first_frame = stream.iter().position(|b| b.is_frame()).unwrap();
        assert!(
            last_mem < first_frame,
            "memory blocks must all precede frame blocks"
        );
    }

    #[test]
    fn idle_when_empty() {
        let mut mux = PreemptMux::default();
        assert_eq!(mux.tick(), Block::Idle);
        assert_eq!(mux.idle_blocks(), 1);
        assert_eq!(mux.total_blocks(), 1);
    }

    #[test]
    fn rx_reassembles_preempted_frame() {
        let mut mux = PreemptMux::new(TxPolicy::Fair);
        let frame: Vec<u8> = (0..200).map(|i| i as u8).collect();
        mux.enqueue_frame(encode_frame(&frame).unwrap());
        mux.enqueue_memory(mem_blocks(16));
        mux.enqueue_memory(mem_blocks(8));
        let stream = mux.drain();

        let mut rx = RxReorderBuffer::new();
        let mut mem_out = Vec::new();
        let mut frames = Vec::new();
        for b in stream {
            let out = rx.push(b).unwrap();
            mem_out.extend(out.mem);
            if let Some(f) = out.frame {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 1);
        let decoded = crate::frame::decode_frame(&frames[0]).unwrap();
        assert_eq!(decoded, frame, "frame must survive preemption intact");
        // Both memory messages extracted: 2 brackets.
        let starts = mem_out
            .iter()
            .filter(|b| matches!(b, Block::MemStart(_)))
            .count();
        assert_eq!(starts, 2);
    }

    #[test]
    fn rx_delivers_memory_with_zero_buffering() {
        let mut rx = RxReorderBuffer::new();
        let blocks = mem_blocks(8);
        for b in blocks {
            let out = rx.push(b.clone()).unwrap();
            // Every memory block is emitted the same cycle it arrives.
            assert_eq!(out.mem.len(), 1);
        }
    }

    #[test]
    fn rx_frame_buffer_bounded_by_frame_size() {
        let mut mux = PreemptMux::new(TxPolicy::Fair);
        let frame = vec![0u8; 1518];
        mux.enqueue_frame(encode_frame(&frame).unwrap());
        for _ in 0..20 {
            mux.enqueue_memory(mem_blocks(32));
        }
        let mut rx = RxReorderBuffer::new();
        for b in mux.drain() {
            rx.push(b).unwrap();
        }
        assert!(rx.frame_buf_high_water() <= crate::frame::blocks_for_frame(1518));
    }

    #[test]
    fn rx_rejects_orphan_memory_continuation() {
        let mut rx = RxReorderBuffer::new();
        assert_eq!(
            rx.push(Block::MemTerminate {
                bytes: [0; 7],
                len: 0
            })
            .unwrap_err(),
            RxError::OrphanMemoryBlock
        );
    }

    #[test]
    fn rx_rejects_frame_block_inside_bracket() {
        let mut rx = RxReorderBuffer::new();
        rx.push(Block::MemStart([0; 7])).unwrap();
        assert_eq!(
            rx.push(Block::Start([0; 7])).unwrap_err(),
            RxError::FrameBlockInMemBracket
        );
    }

    #[test]
    fn rx_rejects_nested_frame() {
        let mut rx = RxReorderBuffer::new();
        rx.push(Block::Start([0; 7])).unwrap();
        assert_eq!(
            rx.push(Block::Start([0; 7])).unwrap_err(),
            RxError::NestedFrame
        );
    }

    #[test]
    fn notify_and_grant_pass_straight_through() {
        let mut rx = RxReorderBuffer::new();
        let n = Block::Notify {
            dest: 2,
            msg_id: 1,
            size: 64,
        };
        let g = Block::Grant {
            dest: 2,
            msg_id: 1,
            chunk: 64,
        };
        assert_eq!(rx.push(n.clone()).unwrap().mem, vec![n]);
        assert_eq!(rx.push(g.clone()).unwrap().mem, vec![g]);
    }
}
