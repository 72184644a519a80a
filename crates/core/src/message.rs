//! EDM's remote-memory message types (§2.3) and their paper-accounting
//! sizes. The functional testbed carries `MemOp` values and byte counts;
//! the `/M*/` block framing of memory messages is `edm_phy::mem_codec`.
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

#[cfg(test)]
mod tests {
    use super::*;

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
