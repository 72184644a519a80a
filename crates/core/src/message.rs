//! EDM's remote-memory message types (§2.3) and their wire serialization.
//!
//! | Message  | Origin        | Contents |
//! |----------|---------------|----------|
//! | `RREQ`   | compute node  | remote address + byte count |
//! | `WREQ`   | compute node  | remote address + byte count + data |
//! | `RMWREQ` | compute node  | remote address + opcode + operands |
//! | `RRES`   | memory node   | read data / RMW result |
//!
//! The defining property of this traffic is how *small* it is: an RREQ is
//! 8 B of control information, far below Ethernet's 64 B minimum frame.

use core::fmt;
use edm_memory::rmw::RmwOp;

/// Opcode tags in the serialized form.
const TAG_RREQ: u8 = 1;
const TAG_WREQ: u8 = 2;
const TAG_RMWREQ: u8 = 3;
const TAG_RRES: u8 = 4;

const RMW_CAS: u8 = 0;
const RMW_FAA: u8 = 1;
const RMW_SWAP: u8 = 2;
const RMW_AND: u8 = 3;
const RMW_OR: u8 = 4;
const RMW_XOR: u8 = 5;
const RMW_MIN: u8 = 6;
const RMW_MAX: u8 = 7;

/// A remote-memory request or response message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemOp {
    /// Read request: read `len` bytes at `addr`.
    Read {
        /// Remote memory address.
        addr: u64,
        /// Bytes to read.
        len: u32,
    },
    /// Write request: write `data` at `addr`.
    Write {
        /// Remote memory address.
        addr: u64,
        /// Data to write.
        data: Vec<u8>,
    },
    /// Atomic read-modify-write request.
    Rmw {
        /// Remote memory address.
        addr: u64,
        /// The modify operation.
        op: RmwOp,
    },
    /// Read response carrying the data (or the RMW original value).
    ReadResponse {
        /// The returned bytes.
        data: Vec<u8>,
    },
}

impl MemOp {
    /// The *nominal* message size used throughout the paper's accounting:
    /// RREQ counts as its 8 B of control information; WREQ and RRES count
    /// as their data payload; RMWREQ counts address+opcode+operands.
    pub fn nominal_bytes(&self) -> u32 {
        match self {
            MemOp::Read { .. } => 8,
            MemOp::Write { data, .. } => data.len() as u32,
            MemOp::Rmw { op, .. } => op.request_bytes(),
            MemOp::ReadResponse { data } => data.len() as u32,
        }
    }

    /// Size of the response this request elicits (`None` for one-sided
    /// writes). Known *a priori* from the request itself — the property the
    /// scheduler exploits for implicit read-demand notification (§3.1.1).
    pub fn response_bytes(&self) -> Option<u32> {
        match self {
            MemOp::Read { len, .. } => Some(*len),
            MemOp::Rmw { op, .. } => Some(op.response_bytes()),
            MemOp::Write { .. } | MemOp::ReadResponse { .. } => None,
        }
    }

    /// Serializes to the byte payload carried in `/M*/` blocks.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            MemOp::Read { addr, len } => {
                out.push(TAG_RREQ);
                out.extend_from_slice(&addr.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            MemOp::Write { addr, data } => {
                out.push(TAG_WREQ);
                out.extend_from_slice(&addr.to_le_bytes());
                out.extend_from_slice(&(data.len() as u32).to_le_bytes());
                out.extend_from_slice(data);
            }
            MemOp::Rmw { addr, op } => {
                out.push(TAG_RMWREQ);
                out.extend_from_slice(&addr.to_le_bytes());
                let (code, a, b) = match *op {
                    RmwOp::CompareAndSwap { expected, desired } => (RMW_CAS, expected, desired),
                    RmwOp::FetchAdd(x) => (RMW_FAA, x, 0),
                    RmwOp::Swap(x) => (RMW_SWAP, x, 0),
                    RmwOp::And(x) => (RMW_AND, x, 0),
                    RmwOp::Or(x) => (RMW_OR, x, 0),
                    RmwOp::Xor(x) => (RMW_XOR, x, 0),
                    RmwOp::Min(x) => (RMW_MIN, x, 0),
                    RmwOp::Max(x) => (RMW_MAX, x, 0),
                };
                out.push(code);
                out.extend_from_slice(&a.to_le_bytes());
                out.extend_from_slice(&b.to_le_bytes());
            }
            MemOp::ReadResponse { data } => {
                out.push(TAG_RRES);
                out.extend_from_slice(&(data.len() as u32).to_le_bytes());
                out.extend_from_slice(data);
            }
        }
        out
    }

    /// Deserializes a payload produced by [`MemOp::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] describing what was malformed.
    pub fn from_bytes(bytes: &[u8]) -> Result<MemOp, CodecError> {
        fn take<const N: usize>(b: &[u8], at: usize) -> Result<[u8; N], CodecError> {
            b.get(at..at + N)
                .and_then(|s| s.try_into().ok())
                .ok_or(CodecError::Truncated)
        }
        let tag = *bytes.first().ok_or(CodecError::Truncated)?;
        match tag {
            TAG_RREQ => Ok(MemOp::Read {
                addr: u64::from_le_bytes(take(bytes, 1)?),
                len: u32::from_le_bytes(take(bytes, 9)?),
            }),
            TAG_WREQ => {
                let addr = u64::from_le_bytes(take(bytes, 1)?);
                let len = u32::from_le_bytes(take(bytes, 9)?) as usize;
                let data = bytes.get(13..13 + len).ok_or(CodecError::Truncated)?;
                Ok(MemOp::Write {
                    addr,
                    data: data.to_vec(),
                })
            }
            TAG_RMWREQ => {
                let addr = u64::from_le_bytes(take(bytes, 1)?);
                let code = *bytes.get(9).ok_or(CodecError::Truncated)?;
                let a = u64::from_le_bytes(take(bytes, 10)?);
                let b = u64::from_le_bytes(take(bytes, 18)?);
                let op = match code {
                    RMW_CAS => RmwOp::CompareAndSwap {
                        expected: a,
                        desired: b,
                    },
                    RMW_FAA => RmwOp::FetchAdd(a),
                    RMW_SWAP => RmwOp::Swap(a),
                    RMW_AND => RmwOp::And(a),
                    RMW_OR => RmwOp::Or(a),
                    RMW_XOR => RmwOp::Xor(a),
                    RMW_MIN => RmwOp::Min(a),
                    RMW_MAX => RmwOp::Max(a),
                    other => return Err(CodecError::BadRmwOpcode(other)),
                };
                Ok(MemOp::Rmw { addr, op })
            }
            TAG_RRES => {
                let len = u32::from_le_bytes(take(bytes, 1)?) as usize;
                let data = bytes.get(5..5 + len).ok_or(CodecError::Truncated)?;
                Ok(MemOp::ReadResponse {
                    data: data.to_vec(),
                })
            }
            other => Err(CodecError::BadTag(other)),
        }
    }
}

impl fmt::Display for MemOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemOp::Read { addr, len } => write!(f, "RREQ[{addr:#x}, {len} B]"),
            MemOp::Write { addr, data } => write!(f, "WREQ[{addr:#x}, {} B]", data.len()),
            MemOp::Rmw { addr, op } => write!(f, "RMWREQ[{addr:#x}, {op}]"),
            MemOp::ReadResponse { data } => write!(f, "RRES[{} B]", data.len()),
        }
    }
}

/// Errors deserializing a [`MemOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Payload ended before the message was complete.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// Unknown RMW opcode.
    BadRmwOpcode(u8),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "message payload truncated"),
            CodecError::BadTag(t) => write!(f, "unknown message tag {t}"),
            CodecError::BadRmwOpcode(o) => write!(f, "unknown RMW opcode {o}"),
        }
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(op: MemOp) {
        let bytes = op.to_bytes();
        assert_eq!(MemOp::from_bytes(&bytes).unwrap(), op);
    }

    #[test]
    fn roundtrip_all_variants() {
        roundtrip(MemOp::Read {
            addr: 0xDEAD_BEEF,
            len: 64,
        });
        roundtrip(MemOp::Write {
            addr: 0x1000,
            data: vec![1, 2, 3],
        });
        roundtrip(MemOp::Rmw {
            addr: 8,
            op: RmwOp::CompareAndSwap {
                expected: 1,
                desired: 2,
            },
        });
        for op in [
            RmwOp::FetchAdd(9),
            RmwOp::Swap(9),
            RmwOp::And(9),
            RmwOp::Or(9),
            RmwOp::Xor(9),
            RmwOp::Min(9),
            RmwOp::Max(9),
        ] {
            roundtrip(MemOp::Rmw { addr: 16, op });
        }
        roundtrip(MemOp::ReadResponse {
            data: vec![7; 1024],
        });
    }

    #[test]
    fn nominal_sizes_match_paper() {
        // §2.3 / §4.2: RREQ is 8 B; CAS RMWREQ is 24 B.
        assert_eq!(MemOp::Read { addr: 0, len: 64 }.nominal_bytes(), 8);
        assert_eq!(
            MemOp::Rmw {
                addr: 0,
                op: RmwOp::CompareAndSwap {
                    expected: 0,
                    desired: 0
                }
            }
            .nominal_bytes(),
            24
        );
        assert_eq!(
            MemOp::Write {
                addr: 0,
                data: vec![0; 64]
            }
            .nominal_bytes(),
            64
        );
    }

    #[test]
    fn implicit_demand_from_request() {
        // §3.1.1: the RREQ itself announces the RRES demand.
        let rreq = MemOp::Read { addr: 0, len: 4096 };
        assert_eq!(rreq.response_bytes(), Some(4096));
        let wreq = MemOp::Write {
            addr: 0,
            data: vec![0; 10],
        };
        assert_eq!(wreq.response_bytes(), None, "writes are one-sided");
    }

    #[test]
    fn truncation_detected() {
        let bytes = MemOp::ReadResponse { data: vec![1; 50] }.to_bytes();
        assert_eq!(
            MemOp::from_bytes(&bytes[..20]).unwrap_err(),
            CodecError::Truncated
        );
        assert_eq!(MemOp::from_bytes(&[]).unwrap_err(), CodecError::Truncated);
    }

    #[test]
    fn bad_tags_detected() {
        assert_eq!(
            MemOp::from_bytes(&[99, 0, 0]).unwrap_err(),
            CodecError::BadTag(99)
        );
        let mut cas = MemOp::Rmw {
            addr: 0,
            op: RmwOp::FetchAdd(0),
        }
        .to_bytes();
        cas[9] = 200;
        assert_eq!(
            MemOp::from_bytes(&cas).unwrap_err(),
            CodecError::BadRmwOpcode(200)
        );
    }

    #[test]
    fn display_is_informative() {
        let s = format!(
            "{}",
            MemOp::Read {
                addr: 0x10,
                len: 64
            }
        );
        assert!(s.contains("RREQ"));
    }
}
