//! Exact wire-cost accounting: MAC-layer vs PHY-layer transport of memory
//! messages.
//!
//! This module quantifies limitations 1–2 of §2.4 (minimum frame size and
//! inter-frame gap) and EDM's corresponding gains, and is the computational
//! core of the Figure 6 reproduction (requests/second under YCSB mixes).

use crate::mem_codec::blocks_for_message;
use crate::BLOCK_WIRE_BITS;
use edm_sim::Bandwidth;

/// Ethernet preamble + start-frame delimiter, bytes.
pub const PREAMBLE_BYTES: u64 = 8;
/// Ethernet MAC header (dst, src, EtherType), bytes.
pub const MAC_HEADER_BYTES: u64 = 14;
/// Frame check sequence, bytes.
pub const FCS_BYTES: u64 = 4;
/// Minimum MAC frame (header + payload + FCS), bytes.
pub const MIN_FRAME_BYTES: u64 = 64;
/// Inter-frame gap, bytes.
pub const IFG_BYTES: u64 = 12;

/// Per-message protocol header overhead above the MAC layer, in bytes.
///
/// These are the encapsulations the testbed baselines carry inside each
/// Ethernet frame (§4.2 baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encapsulation {
    /// Raw Ethernet: no L3+ headers.
    RawEthernet,
    /// RoCEv2: IP (20) + UDP (8) + InfiniBand BTH (12) + ICRC (4).
    RoCEv2,
    /// Hardware-offloaded TCP/IP: IP (20) + TCP (20).
    TcpIp,
}

impl Encapsulation {
    /// Header bytes this encapsulation adds inside the MAC payload.
    pub fn header_bytes(self) -> u64 {
        match self {
            Encapsulation::RawEthernet => 0,
            Encapsulation::RoCEv2 => 20 + 8 + 12 + 4,
            Encapsulation::TcpIp => 20 + 20,
        }
    }
}

/// Bytes on the wire to carry `payload` bytes in one MAC frame with the
/// given encapsulation — including preamble, MAC header, FCS, minimum-frame
/// padding, and IFG.
///
/// ```
/// use edm_phy::overhead::{mac_wire_bytes, Encapsulation};
/// // An 8 B read request over raw Ethernet still costs a full minimum
/// // frame plus preamble and IFG: 8 + 64 + 12 = 84 bytes for 8 useful ones.
/// assert_eq!(mac_wire_bytes(8, Encapsulation::RawEthernet), 84);
/// ```
pub fn mac_wire_bytes(payload: u64, encap: Encapsulation) -> u64 {
    let l2_payload = payload + encap.header_bytes();
    let frame = (MAC_HEADER_BYTES + l2_payload + FCS_BYTES).max(MIN_FRAME_BYTES);
    PREAMBLE_BYTES + frame + IFG_BYTES
}

/// Wire bits for an EDM memory message of `payload` bytes: `/MS/` header
/// block + data blocks + `/MT/`, at 66 bits per block.
///
/// EDM additionally repurposes IFG slots, so no inter-message gap is
/// charged.
pub fn edm_wire_bits(payload: u64) -> u64 {
    blocks_for_message(payload as usize) as u64 * BLOCK_WIRE_BITS
}

/// Wire bits for the MAC path (wire bytes × 8, plus the 64b/66b line-code
/// expansion so both paths are measured at the same point on the wire).
pub fn mac_wire_bits(payload: u64, encap: Encapsulation) -> u64 {
    mac_wire_bytes(payload, encap) * 8 * 66 / 64
}

/// Goodput fraction (useful payload bits / wire bits) for the MAC path.
pub fn mac_goodput(payload: u64, encap: Encapsulation) -> f64 {
    payload as f64 * 8.0 / mac_wire_bits(payload, encap) as f64
}

/// Goodput fraction for the EDM PHY path.
pub fn edm_goodput(payload: u64) -> f64 {
    payload as f64 * 8.0 / edm_wire_bits(payload) as f64
}

/// Messages per second a link can carry for a repeating request pattern.
///
/// `wire_bits_per_msg` is the per-message wire cost (e.g. from
/// [`edm_wire_bits`] or [`mac_wire_bits`] summed over the request mix).
pub fn messages_per_second(link: Bandwidth, wire_bits_per_msg: f64) -> f64 {
    assert!(wire_bits_per_msg > 0.0);
    link.as_bps() as f64 / wire_bits_per_msg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_frame_waste_for_8b_rreq() {
        // §2.4 limitation 1: "an 88% bandwidth wastage while sending 8 B
        // RREQ messages using minimum-sized Ethernet frames" — i.e. only
        // 8/64+ of the frame is useful. Counting preamble+IFG it is worse.
        let wire = mac_wire_bytes(8, Encapsulation::RawEthernet);
        let waste = 1.0 - 8.0 / wire as f64;
        assert!(waste > 0.88, "waste {waste} should exceed 88%");
    }

    #[test]
    fn ifg_overhead_for_64b_frames() {
        // §2.4 limitation 2: 16% overhead for 64 B frames from the 12 B IFG
        // (12/76 of header+IFG ≈ 16% of the frame+IFG budget).
        let with_ifg = mac_wire_bytes(42, Encapsulation::RawEthernet); // 64B frame
        let frame_only = with_ifg - IFG_BYTES - PREAMBLE_BYTES;
        assert_eq!(frame_only, 64);
        let overhead = IFG_BYTES as f64 / (frame_only) as f64;
        assert!((overhead - 0.1875).abs() < 0.001); // 12/64
    }

    #[test]
    fn edm_beats_mac_for_small_messages() {
        for payload in [1u64, 8, 16, 24, 32, 64] {
            assert!(
                edm_wire_bits(payload) < mac_wire_bits(payload, Encapsulation::RawEthernet),
                "EDM must be cheaper at {payload} B"
            );
        }
    }

    #[test]
    fn goodput_gap_narrows_for_large_messages() {
        let small_gap = edm_goodput(8) / mac_goodput(8, Encapsulation::RoCEv2);
        let large_gap = edm_goodput(4096) / mac_goodput(4096, Encapsulation::RoCEv2);
        assert!(small_gap > 3.0, "small-message gap {small_gap} too small");
        assert!(large_gap < 1.3, "large-message gap {large_gap} too big");
    }

    #[test]
    fn rocev2_headers() {
        assert_eq!(Encapsulation::RoCEv2.header_bytes(), 44);
        assert_eq!(Encapsulation::TcpIp.header_bytes(), 40);
        assert_eq!(Encapsulation::RawEthernet.header_bytes(), 0);
    }

    #[test]
    fn messages_per_second_sane() {
        let link = Bandwidth::from_gbps(25);
        // 8 B RREQ as one EDM message: 3 blocks * 66 bits = 198 bits.
        let mps = messages_per_second(link, edm_wire_bits(8) as f64);
        assert!(mps > 100e6, "25G link should carry >100M small msgs/s");
    }
}
