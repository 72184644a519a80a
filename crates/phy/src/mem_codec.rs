//! EDM memory-message ⇄ PHY-block encoding (§3.2.1).
//!
//! A memory message travels as `/MS/` (7-byte header: destination port,
//! message id, length) followed by `/MD/` data blocks and a final `/MT_r/`
//! carrying the 0–7 remaining bytes. Messages of up to 6 bytes whose header
//! context is already established on a point-to-point hop can instead use a
//! single `/MST/` block — the paper's "a memory message in EDM can be as
//! small as a single PHY block".
//!
//! Unlike an Ethernet frame (minimum 9 blocks), an 8 B read request is
//! 2 blocks and a 64 B read response is 10 — this granularity difference is
//! the source of EDM's bandwidth advantage for small messages (Figure 6).

use crate::block::Block;
use core::fmt;

/// A memory message at the PHY boundary: routing header plus raw payload.
///
/// The payload is opaque here; `edm-core` serializes RREQ/WREQ/RMWREQ/RRES
/// semantics into it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemMessage {
    dest: u16,
    msg_id: u8,
    payload: Vec<u8>,
}

impl MemMessage {
    /// Creates a message to switch port `dest` with the given id and payload.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds `u16::MAX` bytes (the `/MS/` header's
    /// 16-bit length field, §3.1.4).
    pub fn new(dest: u16, msg_id: u8, payload: Vec<u8>) -> Self {
        assert!(
            payload.len() <= u16::MAX as usize,
            "memory message payload exceeds 16-bit length field"
        );
        MemMessage {
            dest,
            msg_id,
            payload,
        }
    }

    /// Destination switch port.
    pub fn dest(&self) -> u16 {
        self.dest
    }

    /// Message id (distinguishes messages of one source–destination pair).
    pub fn msg_id(&self) -> u8 {
        self.msg_id
    }

    /// The message payload.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }
}

/// Errors from [`decode_message`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemCodecError {
    /// Block run did not start with `/MS/` or `/MST/`.
    MissingStart,
    /// Block run ended without `/MT/`.
    Unterminated,
    /// A non-memory block appeared inside the message bracket.
    ForeignBlock,
    /// Header length field disagrees with the actual payload length.
    LengthMismatch {
        /// Length claimed by the `/MS/` header.
        header: usize,
        /// Bytes actually carried by the blocks.
        actual: usize,
    },
}

impl fmt::Display for MemCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemCodecError::MissingStart => {
                write!(f, "memory message must start with /MS/ or /MST/")
            }
            MemCodecError::Unterminated => write!(f, "memory message missing /MT/ terminator"),
            MemCodecError::ForeignBlock => write!(f, "non-memory block inside memory message"),
            MemCodecError::LengthMismatch { header, actual } => write!(
                f,
                "header claims {header} payload bytes but blocks carry {actual}"
            ),
        }
    }
}

impl std::error::Error for MemCodecError {}

fn header_bytes(msg: &MemMessage) -> [u8; 7] {
    let mut h = [0u8; 7];
    h[0..2].copy_from_slice(&msg.dest.to_le_bytes());
    h[2] = msg.msg_id;
    h[3..5].copy_from_slice(&(msg.payload.len() as u16).to_le_bytes());
    h
}

/// Encodes a memory message as `/MS/ [/MD/…] /MT_r/`.
///
/// ```
/// use edm_phy::mem_codec::{encode_message, MemMessage};
/// // A 64 B read response: /MS/ + 8 x /MD/ + /MT0/ = 10 blocks.
/// let blocks = encode_message(&MemMessage::new(1, 0, vec![0; 64]));
/// assert_eq!(blocks.len(), 10);
/// // An 8 B read request: /MS/ + /MD/ + /MT0/ = 3 blocks.
/// let blocks = encode_message(&MemMessage::new(1, 0, vec![0; 8]));
/// assert_eq!(blocks.len(), 3);
/// ```
pub fn encode_message(msg: &MemMessage) -> Vec<Block> {
    let mut blocks = Vec::with_capacity(2 + msg.payload.len() / 8);
    blocks.push(Block::MemStart(header_bytes(msg)));
    let mut chunks = msg.payload.chunks_exact(8);
    for c in &mut chunks {
        let mut d = [0u8; 8];
        d.copy_from_slice(c);
        blocks.push(Block::MemData(d));
    }
    let rem = chunks.remainder();
    let mut tail = [0u8; 7];
    tail[..rem.len()].copy_from_slice(rem);
    blocks.push(Block::MemTerminate {
        bytes: tail,
        len: rem.len() as u8,
    });
    blocks
}

/// Encodes a payload of at most 6 bytes as a single `/MST/` block.
///
/// # Errors
///
/// Returns the payload back if it exceeds 6 bytes.
pub fn encode_single(payload: &[u8]) -> Result<Block, usize> {
    if payload.len() > 6 {
        return Err(payload.len());
    }
    let mut bytes = [0u8; 6];
    bytes[..payload.len()].copy_from_slice(payload);
    Ok(Block::MemSingle {
        bytes,
        len: payload.len() as u8,
    })
}

/// Decodes a block run produced by [`encode_message`] (or a lone `/MST/`).
///
/// Accepts `/D/` blocks in place of `/MD/` (they are indistinguishable on
/// the wire; context is the bracket).
///
/// # Errors
///
/// See [`MemCodecError`] for the failure cases.
pub fn decode_message(blocks: &[Block]) -> Result<MemMessage, MemCodecError> {
    let mut it = blocks.iter();
    let header = match it.next() {
        Some(Block::MemStart(h)) => *h,
        Some(Block::MemSingle { bytes, len }) => {
            return Ok(MemMessage::new(0, 0, bytes[..*len as usize].to_vec()));
        }
        _ => return Err(MemCodecError::MissingStart),
    };
    let dest = u16::from_le_bytes([header[0], header[1]]);
    let msg_id = header[2];
    let claimed = u16::from_le_bytes([header[3], header[4]]) as usize;
    let mut payload = Vec::with_capacity(claimed);
    loop {
        match it.next() {
            Some(Block::MemData(d)) | Some(Block::Data(d)) => payload.extend_from_slice(d),
            Some(Block::MemTerminate { bytes, len }) => {
                payload.extend_from_slice(&bytes[..*len as usize]);
                break;
            }
            Some(_) => return Err(MemCodecError::ForeignBlock),
            None => return Err(MemCodecError::Unterminated),
        }
    }
    if payload.len() != claimed {
        return Err(MemCodecError::LengthMismatch {
            header: claimed,
            actual: payload.len(),
        });
    }
    Ok(MemMessage {
        dest,
        msg_id,
        payload,
    })
}

/// Number of PHY blocks a memory message of `payload_len` bytes occupies.
pub fn blocks_for_message(payload_len: usize) -> usize {
    // /MS/ + full /MD/ blocks + /MT/ with the remainder.
    2 + payload_len / 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_sizes() {
        for len in [0usize, 1, 7, 8, 9, 24, 63, 64, 100, 256, 1024, 4096] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 37 % 253) as u8).collect();
            let msg = MemMessage::new(211, 42, payload.clone());
            let blocks = encode_message(&msg);
            assert_eq!(blocks.len(), blocks_for_message(len));
            let back = decode_message(&blocks).unwrap();
            assert_eq!(back, msg, "roundtrip failed for len {len}");
        }
    }

    #[test]
    fn rreq_is_three_blocks_and_frame_is_nine() {
        // The bandwidth story of §2.4: an 8 B RREQ costs 3 blocks in EDM
        // versus a 64 B minimum frame (9 blocks + IFG) at the MAC layer.
        assert_eq!(blocks_for_message(8), 3);
        assert!(blocks_for_message(8) < crate::frame::blocks_for_frame(64));
    }

    #[test]
    fn single_block_message() {
        let block = encode_single(&[1, 2, 3]).unwrap();
        let msg = decode_message(std::slice::from_ref(&block)).unwrap();
        assert_eq!(msg.payload(), &[1, 2, 3]);
        assert_eq!(encode_single(&[0; 7]).unwrap_err(), 7);
    }

    #[test]
    fn header_fields_preserved() {
        let msg = MemMessage::new(511, 255, vec![9; 17]);
        let back = decode_message(&encode_message(&msg)).unwrap();
        assert_eq!(back.dest(), 511);
        assert_eq!(back.msg_id(), 255);
    }

    #[test]
    fn decode_accepts_plain_data_blocks() {
        // On the wire /MD/ and /D/ are identical; the decoder must accept
        // either representation inside the bracket.
        let msg = MemMessage::new(4, 5, vec![0xEE; 16]);
        let mut blocks = encode_message(&msg);
        for b in blocks.iter_mut() {
            if let Block::MemData(d) = b {
                *b = Block::Data(*d);
            }
        }
        assert_eq!(decode_message(&blocks).unwrap(), msg);
    }

    #[test]
    fn missing_start_rejected() {
        assert_eq!(
            decode_message(&[Block::Idle]).unwrap_err(),
            MemCodecError::MissingStart
        );
        assert_eq!(
            decode_message(&[]).unwrap_err(),
            MemCodecError::MissingStart
        );
    }

    #[test]
    fn unterminated_rejected() {
        let mut blocks = encode_message(&MemMessage::new(0, 0, vec![1; 8]));
        blocks.pop();
        assert_eq!(
            decode_message(&blocks).unwrap_err(),
            MemCodecError::Unterminated
        );
    }

    #[test]
    fn foreign_block_rejected() {
        let mut blocks = encode_message(&MemMessage::new(0, 0, vec![1; 8]));
        blocks.insert(1, Block::Start([0; 7]));
        assert_eq!(
            decode_message(&blocks).unwrap_err(),
            MemCodecError::ForeignBlock
        );
    }

    #[test]
    fn length_mismatch_rejected() {
        let msg = MemMessage::new(0, 0, vec![1; 8]);
        let mut blocks = encode_message(&msg);
        blocks.insert(2, Block::MemData([0; 8])); // extra data block
        assert_eq!(
            decode_message(&blocks).unwrap_err(),
            MemCodecError::LengthMismatch {
                header: 8,
                actual: 16
            }
        );
    }

    #[test]
    #[should_panic(expected = "exceeds 16-bit length field")]
    fn oversized_payload_panics() {
        let _ = MemMessage::new(0, 0, vec![0; 70_000]);
    }
}
