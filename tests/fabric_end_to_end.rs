//! Cross-crate integration: applications (locks, fan-in reads, alternating
//! traffic) running over the full EDM fabric — host stacks, scheduler,
//! switch, DRAM.

use edm_core::testbed::{Fabric, TestbedConfig};
use edm_memory::rmw::RmwOp;
use edm_sim::{Duration, Time};

#[test]
fn distributed_lock_with_remote_cas() {
    // Two compute nodes contend for a lock word on a memory node using
    // RMWREQ compare-and-swap; exactly one wins each round.
    let mut fabric = Fabric::new(TestbedConfig {
        nodes: 3,
        ..TestbedConfig::default()
    });
    let lock_addr = 0x4000;
    let cas = |f: &mut Fabric, at: Time, node| {
        f.rmw(
            at,
            node,
            2,
            lock_addr,
            RmwOp::CompareAndSwap {
                expected: 0,
                desired: node as u64 + 1,
            },
        )
    };
    let a = cas(&mut fabric, Time::ZERO, 0);
    let b = cas(&mut fabric, Time::from_ns(50), 1);
    fabric.run();
    let ra = u64::from_le_bytes(
        fabric
            .completion(a)
            .unwrap()
            .data
            .clone()
            .try_into()
            .unwrap(),
    );
    let rb = u64::from_le_bytes(
        fabric
            .completion(b)
            .unwrap()
            .data
            .clone()
            .try_into()
            .unwrap(),
    );
    assert!(
        (ra == 0) ^ (rb == 0),
        "exactly one CAS must win: a saw {ra}, b saw {rb}"
    );
}

#[test]
fn fan_in_reads_all_serve_correctly() {
    // Many compute nodes read distinct regions of one memory node; the
    // scheduler serializes the shared downlink but every byte arrives.
    let n = 9;
    let mut fabric = Fabric::new(TestbedConfig {
        nodes: n,
        ..TestbedConfig::default()
    });
    let memory: u16 = (n - 1) as u16;
    for i in 0..n - 1 {
        let pattern = vec![i as u8 + 1; 512];
        fabric.seed_memory(memory, (i as u64) * 0x1000, &pattern);
    }
    let ops: Vec<u64> = (0..n - 1)
        .map(|i| fabric.read(Time::ZERO, i as u16, memory, (i as u64) * 0x1000, 512))
        .collect();
    fabric.run();
    for (i, op) in ops.iter().enumerate() {
        let c = fabric.completion(*op).expect("read completed");
        assert_eq!(c.data, vec![i as u8 + 1; 512], "reader {i} data");
    }
}

#[test]
fn sustained_alternating_traffic_keeps_latency_bounded() {
    // A closed loop of writes and reads; the unloaded fabric must show no
    // latency drift (no leaked scheduler state, no queue growth).
    let mut fabric = Fabric::new(TestbedConfig::default());
    let mut ops = Vec::new();
    let mut t = Time::ZERO;
    for i in 0..50u64 {
        t += Duration::from_us(2);
        if i % 2 == 0 {
            ops.push(fabric.write(t, 0, 1, 0x8000 + i * 64, vec![i as u8; 64]));
        } else {
            ops.push(fabric.read(t, 0, 1, 0x8000 + (i - 1) * 64, 64));
        }
    }
    fabric.run();
    let latencies: Vec<f64> = ops
        .iter()
        .map(|op| fabric.completion(*op).expect("done").latency().as_ns_f64())
        .collect();
    let first = latencies[..10].iter().sum::<f64>() / 10.0;
    let last = latencies[40..].iter().sum::<f64>() / 10.0;
    assert!(
        (last - first).abs() / first < 0.2,
        "latency drifted: first {first:.0} ns vs last {last:.0} ns"
    );
    for (i, l) in latencies.iter().enumerate() {
        assert!(*l < 600.0, "op {i} latency {l} ns exceeds unloaded bound");
    }
}
