//! Ablation (§4.2.1 claim): EDM maintains near-constant remote-memory
//! latency under interference from IP traffic, thanks to intra-frame
//! preemption — while a MAC-layer fabric must wait out entire frames.
//!
//! Sweeps interfering frame sizes and compares the wait a small memory
//! message suffers (in PHY block slots) under three policies: EDM fair
//! preemption, EDM memory-first, and no preemption (MAC behaviour).

use std::path::Path;

use edm_phy::frame::{blocks_for_frame, encode_frame};
use edm_phy::mem_codec::{encode_message, MemMessage};
use edm_phy::preempt::{PreemptMux, TxPolicy};
use edm_phy::{Block, BLOCK_CLOCK};

/// Blocks the memory message waits when it arrives `progress` blocks into
/// the frame's transmission under `policy`.
fn wait_blocks(frame_len: usize, progress: usize, policy: TxPolicy) -> usize {
    let mut mux = PreemptMux::new(policy);
    mux.enqueue_frame(encode_frame(&vec![0u8; frame_len]).expect("valid frame"));
    for _ in 0..progress {
        mux.tick();
    }
    mux.enqueue_memory(encode_message(&MemMessage::new(1, 0, vec![0xAA; 8])));
    let mut waited = 0;
    loop {
        if matches!(mux.tick(), Block::MemStart(_)) {
            return waited;
        }
        waited += 1;
        assert!(waited < 10_000, "memory message starved");
    }
}

/// MAC layer: the message waits for the rest of the frame.
fn mac_wait_blocks(frame_len: usize, progress: usize) -> usize {
    blocks_for_frame(frame_len) - progress
}

pub fn run(_out: &Path) {
    println!("Intra-frame preemption ablation: 8 B memory message arriving");
    println!("10 blocks into an interfering frame's transmission");
    println!();
    println!(
        "{:<16} {:>14} {:>14} {:>14}",
        "frame size", "EDM fair", "EDM mem-first", "MAC (no preempt)"
    );
    for frame_len in [64usize, 256, 512, 1500, 9000] {
        let progress = 10.min(blocks_for_frame(frame_len) - 1);
        let fair = wait_blocks(frame_len, progress, TxPolicy::Fair);
        let first = wait_blocks(frame_len, progress, TxPolicy::MemoryFirst);
        let mac = mac_wait_blocks(frame_len, progress);
        println!(
            "{:<16} {:>11} ns {:>11} ns {:>11} ns",
            format!("{frame_len} B"),
            (BLOCK_CLOCK * fair as u64).as_ns(),
            (BLOCK_CLOCK * first as u64).as_ns(),
            (BLOCK_CLOCK * mac as u64).as_ns(),
        );
    }
    println!();
    println!(
        "paper: failure to preempt a 1500 B frame costs 120 ns at 100 G \
         (720 ns for 9 KB jumbo); EDM's wait is a constant couple of block \
         slots regardless of frame size — this is why EDM held ~300 ns \
         under IP interference in the testbed (§4.2.1)."
    );
}
