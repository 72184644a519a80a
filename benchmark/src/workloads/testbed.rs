//! `testbed_kv`: the functional fabric — real payloads through
//! `phy::mem_codec`, the dense `Scheduler` and the byte-moving
//! `MemoryController`, with writes and atomic RMWs beside reads. The
//! only workload on that path, and the one that can check data.

use super::{mix, Outcomes, RepOut, Workload};
use crate::layers::{self, Layers};
use crate::trace::Tracer;
use edm_core::testbed::{Completion, Fabric, TestbedConfig};
use edm_memory::{MemoryController, RmwOp};
use edm_phy::mem_codec::{decode_message, encode_message, MemMessage};
use edm_phy::pcs::{PcsRx, PcsTx};
use edm_phy::preempt::TxPolicy;
use edm_sim::{Duration, Rng, Time};
use std::hint::black_box;

const OPS: u64 = 600_000;
/// Nodes 0..8 issue, nodes 8..16 serve.
const SIDE: u64 = 8;
const ISSUE_GAP: Duration = Duration::from_ns(40);
/// 64 B slots per (issuer, peer) pair. Only the pair's issuer writes
/// them, cycling, so two writes to one slot are far apart in time and
/// "the bytes last written" is well defined.
const SLOTS: u64 = 64;
const LINE: u64 = 64;
/// One shared fetch-add counter per memory node, past the slots.
const COUNTER_ADDR: u64 = 0x10_0000;
/// Table 1: EDM's unloaded 64 B remote read, fabric only.
const TABLE1_READ_PS: u64 = 299_520;

#[derive(Debug, Clone, Copy)]
enum Op {
    Read { peer: u16, addr: u64 },
    Write { peer: u16, addr: u64, version: u64 },
    FetchAdd { peer: u16, delta: u64 },
}

fn slot_addr(issuer: u64, slot: u64) -> u64 {
    (issuer * SLOTS + slot) * LINE
}

/// The 64 bytes version `version` of the line at (`peer`, `addr`) holds:
/// address, version, then words derived from both — a read can be checked
/// without knowing which write it raced.
fn payload(peer: u16, addr: u64, version: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(LINE as usize);
    p.extend_from_slice(&addr.to_le_bytes());
    p.extend_from_slice(&version.to_le_bytes());
    for k in 0..6 {
        p.extend_from_slice(&mix(addr ^ (peer as u64) << 48, version * 8 + k).to_le_bytes());
    }
    p
}

pub struct TestbedKv {
    ops: u64,
    seed: u64,
}

impl TestbedKv {
    pub fn build(seed: u64, scale_div: u64) -> Self {
        TestbedKv {
            ops: OPS / scale_div,
            seed,
        }
    }

    /// Builds the fabric, seeds version 0 of every slot and issues the op
    /// stream. `record` receives what was issued, by op id.
    fn issue(&self, mut record: Option<&mut Vec<Op>>) -> Fabric {
        let mut f = Fabric::new(TestbedConfig {
            nodes: 2 * SIDE as usize,
            ..TestbedConfig::default()
        });
        for peer in SIDE..2 * SIDE {
            for issuer in 0..SIDE {
                for slot in 0..SLOTS {
                    let addr = slot_addr(issuer, slot);
                    f.seed_memory(peer as u16, addr, &payload(peer as u16, addr, 0));
                }
            }
        }
        let mut rng = Rng::seed_from(self.seed);
        // Writes issued so far per (issuer, peer): picks the next slot
        // and, with the cycle count, its version.
        let mut written = [[0u64; SIDE as usize]; SIDE as usize];
        let mut at = Time::ZERO;
        for i in 0..self.ops {
            // Round-robin pairs: each sees an op every 64 x 40 ns, well
            // inside the switch's X = 3 bound on active messages per pair.
            let issuer = i % SIDE;
            let peer = (SIDE + (i / SIDE + issuer) % SIDE) as u16;
            let op = match rng.below(100) {
                0..=49 => Op::Read {
                    peer,
                    addr: slot_addr(issuer, rng.below(SLOTS)),
                },
                50..=94 => {
                    let n = &mut written[issuer as usize][(peer as u64 - SIDE) as usize];
                    *n += 1;
                    Op::Write {
                        peer,
                        addr: slot_addr(issuer, (*n - 1) % SLOTS),
                        version: (*n - 1) / SLOTS + 1,
                    }
                }
                _ => Op::FetchAdd {
                    peer,
                    delta: 1 + rng.below(7),
                },
            };
            let node = issuer as u16;
            match op {
                Op::Read { peer, addr } => f.read(at, node, peer, addr, LINE as u32),
                Op::Write {
                    peer,
                    addr,
                    version,
                } => f.write(at, node, peer, addr, payload(peer, addr, version)),
                Op::FetchAdd { peer, delta } => {
                    f.rmw(at, node, peer, COUNTER_ADDR, RmwOp::FetchAdd(delta))
                }
            };
            if let Some(r) = record.as_deref_mut() {
                r.push(op);
            }
            at += ISSUE_GAP;
        }
        f
    }

    /// Reads return bytes some write (or the seed) put there, no older
    /// than the last write that had landed when the read was issued and
    /// no newer than the last one issued before it returned; fetch-adds
    /// form one chain per counter and sum to its final value; after the
    /// fabric drains, every slot holds its last version.
    fn verify(&self, f: &mut Fabric, issued: &[Op]) -> Vec<String> {
        let mut errors = Vec::new();
        let n = self.ops as usize;
        let by_id = |cs: &[Completion]| {
            let mut v: Vec<Option<usize>> = vec![None; cs.len()];
            for (i, c) in cs.iter().enumerate() {
                if let Some(slot) = v.get_mut(c.op_id as usize) {
                    *slot = Some(i);
                }
            }
            v
        };
        // Write windows per (peer, addr), in version order.
        let cs = f.completions();
        let ids = by_id(cs);
        let line =
            |peer: u16, addr: u64| ((peer as u64 - SIDE) * SIDE * SLOTS + addr / LINE) as usize;
        let mut writes: Vec<Vec<(Time, Time)>> = vec![Vec::new(); (SIDE * SIDE * SLOTS) as usize];
        let mut sums = [0u64; SIDE as usize];
        let mut chains: Vec<Vec<(u64, u64)>> = vec![Vec::new(); SIDE as usize];
        let mut bad_reads = 0u64;
        for (id, op) in issued.iter().enumerate() {
            let Some(c) = ids[id].map(|i| &cs[i]) else {
                continue; // counted as failed by the caller
            };
            match *op {
                Op::Write {
                    peer,
                    addr,
                    version,
                } => {
                    let w = &mut writes[line(peer, addr)];
                    if w.len() as u64 + 1 != version {
                        errors.push(format!("write {id}: version {version} out of order"));
                    }
                    w.push((c.issued, c.completed));
                }
                Op::FetchAdd { peer, delta } => {
                    let orig = u64::from_le_bytes(c.data[..8].try_into().expect("8 B RRES"));
                    sums[(peer as u64 - SIDE) as usize] += delta;
                    chains[(peer as u64 - SIDE) as usize].push((orig, delta));
                }
                Op::Read { .. } => {}
            }
        }
        for (id, op) in issued.iter().enumerate() {
            let (Op::Read { peer, addr }, Some(c)) = (*op, ids[id].map(|i| &cs[i])) else {
                continue;
            };
            let got = u64::from_le_bytes(c.data[8..16].try_into().expect("64 B line"));
            let w = &writes[line(peer, addr)];
            let landed = w.iter().take_while(|(_, done)| *done <= c.issued).count() as u64;
            let started = w.iter().take_while(|(at, _)| *at <= c.completed).count() as u64;
            if c.data != payload(peer, addr, got) || got < landed || got > started {
                bad_reads += 1;
            }
        }
        if bad_reads > 0 {
            errors.push(format!(
                "{bad_reads} reads returned bytes no write could explain"
            ));
        }
        for (m, chain) in chains.iter_mut().enumerate() {
            chain.sort_unstable();
            let mut expect = 0;
            for &(orig, delta) in chain.iter() {
                if orig != expect {
                    errors.push(format!(
                        "counter {m}: fetch-add saw {orig}, chain expects {expect}"
                    ));
                    break;
                }
                expect += delta;
            }
        }

        // Drain, then read everything back through the fabric.
        let quiet = Time::ZERO + ISSUE_GAP * self.ops + Duration::from_us(100);
        let mut finals = Vec::new();
        for peer in SIDE..2 * SIDE {
            let peer = peer as u16;
            finals.push((f.read(quiet, 0, peer, COUNTER_ADDR, 8), peer, COUNTER_ADDR));
            for issuer in 0..SIDE {
                for slot in 0..SLOTS {
                    let addr = slot_addr(issuer, slot);
                    // Spread over issuers and time to stay under X.
                    let at = quiet + Duration::from_us(1) * (slot + 1);
                    finals.push((
                        f.read(at, issuer as u16, peer, addr, LINE as u32),
                        peer,
                        addr,
                    ));
                }
            }
        }
        f.run();
        let cs = f.completions();
        let ids = by_id(cs);
        for (id, peer, addr) in finals {
            let Some(c) = ids.get(id as usize).copied().flatten().map(|i| &cs[i]) else {
                errors.push(format!("read-back {id} never completed"));
                continue;
            };
            let ok = if addr == COUNTER_ADDR {
                c.data == sums[(peer as u64 - SIDE) as usize].to_le_bytes()
            } else {
                c.data == payload(peer, addr, writes[line(peer, addr)].len() as u64)
            };
            if !ok {
                errors.push(format!(
                    "node {peer} addr {addr:#x}: not the bytes last written"
                ));
            }
        }
        if ids.len() < n {
            errors.push("completions missing".into());
        }
        errors
    }
}

impl Workload for TestbedKv {
    fn unit(&self) -> &'static str {
        "op"
    }

    fn rep(&mut self, tr: &mut Tracer, check: bool) -> RepOut {
        let mut issued = Vec::new();
        let engine = tr.begin("engine");
        let span = tr.begin("fabric.issue");
        let mut f = self.issue(check.then_some(&mut issued));
        tr.end(span);
        let span = tr.begin("fabric.run");
        f.run();
        tr.end(span);
        let span = tr.begin("sink");
        let mut out = Outcomes::new();
        // `completions()` is the whole log; `completion(id)` scans it.
        for c in f.completions() {
            out.delivered(c.op_id, c.issued.as_ps(), c.completed.as_ps());
        }
        tr.end(span);
        tr.end(engine);
        let errors = if check {
            self.verify(&mut f, &issued)
        } else {
            Vec::new()
        };
        RepOut {
            units: out.delivered,
            attempted: self.ops,
            failed: self.ops - out.delivered.min(self.ops),
            hist: out.hist,
            makespan_ps: out.last_ps,
            digest: out.digest,
            counts: Vec::new(),
            errors,
        }
    }

    /// Table 1's headline: the latency model's EDM read is 299.52 ns
    /// exactly, and one unloaded 64 B read on the 2-node testbed (which
    /// adds message serialization and the DRAM access) lands above it.
    fn cross_check(&mut self, _warm: &RepOut) -> Vec<String> {
        let mut errors = Vec::new();
        let model = edm_core::latency::edm_read().total().as_ps();
        if model != TABLE1_READ_PS {
            errors.push(format!(
                "latency::edm_read().total() = {model} ps, Table 1 says {TABLE1_READ_PS}"
            ));
        }
        let read = unloaded_read_ps();
        if !(TABLE1_READ_PS..=2 * TABLE1_READ_PS).contains(&read) {
            errors.push(format!(
                "unloaded 64 B read took {read} ps on the testbed; Table 1's fabric part is {TABLE1_READ_PS}"
            ));
        }
        errors
    }

    fn layers(&mut self, warm: &RepOut, tr: &mut Tracer, l: &mut Layers) {
        let ops = warm.units as f64;
        let (engine_ns, _) = tr.median_total("engine");
        l.put(
            "core.fabric_issue_ns",
            tr.median_total("fabric.issue").0 / ops,
        );
        l.put(
            "core.fabric_run_ns_per_op",
            tr.median_total("fabric.run").0 / ops,
        );
        let (sink_ns, _) = tr.median_total("sink");
        l.put("sim.sink_ns_per_unit", sink_ns / ops);
        let read = unloaded_read_ps();
        l.put("core.unloaded_read_ns", read as f64 / 1e3);
        l.put(
            "core.table1_gap_ns",
            (read as f64 - TABLE1_READ_PS as f64) / 1e3,
        );

        // Functional DDR4 controller: a 64 B write then a 64 B read.
        const N: u64 = 1 << 15;
        let line = payload(8, 0, 1);
        let mut mc = MemoryController::ddr4();
        let mut now = Time::ZERO;
        let controller_ns = layers::min_ns(5, || {
            for i in 0..N {
                let addr = (i % 4096) * LINE;
                black_box(mc.write(now, addr, &line));
                black_box(mc.read(now, addr, LINE as usize));
                now += ISSUE_GAP;
            }
        }) / (2 * N) as f64;
        l.put("memory.controller_ns", controller_ns);

        // PHY: one 64 B write message through mem_codec, and 66-bit
        // blocks through the PCS pipeline including the scrambler.
        let msg = MemMessage::new(9, 0, line.clone());
        l.put(
            "phy.codec_ns_per_msg",
            layers::min_ns(5, || {
                for _ in 0..N {
                    let blocks = encode_message(black_box(&msg));
                    black_box(decode_message(&blocks).expect("round trip"));
                }
            }) / N as f64,
        );
        let mut tx = PcsTx::new(TxPolicy::Fair);
        let mut rx = PcsRx::assume_locked();
        let mut blocks = 0u64;
        let pcs_ns = layers::min_ns(5, || {
            blocks = 0;
            for _ in 0..N / 8 {
                tx.send_message(&msg);
                while !tx.is_idle() {
                    black_box(rx.receive(tx.tick()).expect("clean link"));
                    blocks += 1;
                }
            }
        });
        l.put("phy.pcs_ns_per_block", pcs_ns / blocks as f64);
        l.put("sched.dense_round_ns_144", layers::dense_round_ns());
        l.put("sim.hist_record_ns", layers::hist_record_ns());

        // Every op is one controller access at the memory node.
        l.put_shares(
            engine_ns,
            &[("sink", sink_ns), ("memory", controller_ns * ops)],
        );
    }
}

/// Simulated latency of one 64 B read on an idle 2-node fabric.
fn unloaded_read_ps() -> u64 {
    let mut f = Fabric::new(TestbedConfig::default());
    f.seed_memory(1, 0, &[7u8; LINE as usize]);
    let id = f.read(Time::ZERO, 0, 1, 0, LINE as u32);
    f.run();
    f.completion(id)
        .expect("the read completes")
        .latency()
        .as_ps()
}
