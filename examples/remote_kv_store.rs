//! A remote key-value store over the EDM fabric (the §4.2.2 application).
//!
//! The entire store lives on the memory node; the compute node issues a
//! YCSB-A mix of reads (1 KB objects) and updates (100 B) through EDM
//! remote reads/writes. Reports per-op latency and the projected
//! requests/second against the RoCEv2 baseline (the Figure 6 comparison).
//!
//! Run with: `cargo run --release --example remote_kv_store`

use edm_core::testbed::{Fabric, TestbedConfig};
use edm_core::throughput::{edm_throughput, rdma_throughput, RequestMix};
use edm_memory::KvStore;
use edm_sim::rng::Zipf;
use edm_sim::{Bandwidth, Duration, Rng, Summary, Time};
use edm_workloads::{OpKind, OpMix, YcsbWorkload};

fn main() {
    // --- Build the store layout (a directory the client learns once) and
    // seed the memory node's DRAM with each object at its slot address.
    let mut directory = KvStore::new(4096, 1024);
    let object = vec![0x5A; 1024];
    for key in 0..512u64 {
        directory.put(Time::ZERO, key, &object).expect("store fits");
    }

    let mut fabric = Fabric::new(TestbedConfig::default());
    for key in 0..512u64 {
        let addr = directory.value_addr(key).expect("key present");
        fabric.seed_memory(1, addr, &object);
    }

    // --- Issue a YCSB-A mix from the compute node (closed loop), sampled
    // the way the closed-loop application tier samples its tenants.
    let mix = OpMix::remote(YcsbWorkload {
        keys: 512,
        ..YcsbWorkload::a()
    });
    let zipf = Zipf::new(mix.ycsb.keys, mix.ycsb.zipf_theta);
    let mut rng = Rng::seed_from(7);
    let mut issued = Vec::new();
    let mut t = Time::ZERO;
    for _ in 0..200 {
        t += Duration::from_us(2);
        let op = mix.sample(&zipf, &mut rng);
        let addr = directory.value_addr(op.key).expect("key present");
        match op.kind {
            OpKind::Read => issued.push(("read", fabric.read(t, 0, 1, addr, 1024))),
            OpKind::Update => issued.push((
                "update",
                fabric.write(t, 0, 1, addr, vec![0xEE; mix.ycsb.update_bytes as usize]),
            )),
            OpKind::Rmw | OpKind::Local => unreachable!("a remote mix without RMWs"),
        }
    }
    fabric.run();

    let mut reads = Summary::new();
    let mut updates = Summary::new();
    for (kind, id) in &issued {
        let c = fabric.completion(*id).expect("op completed");
        match *kind {
            "read" => reads.record_duration(c.latency()),
            _ => updates.record_duration(c.latency()),
        }
    }

    println!("Remote KV store over EDM (YCSB-A, 512 x 1 KB objects):");
    println!(
        "  {} reads   : mean {:.0} ns, p99 {:.0} ns",
        reads.count(),
        reads.mean(),
        reads.percentile(99.0)
    );
    println!(
        "  {} updates : mean {:.0} ns, p99 {:.0} ns",
        updates.count(),
        updates.mean(),
        updates.percentile(99.0)
    );

    // --- The Figure 6 throughput comparison on a 25 G link.
    let link = Bandwidth::from_gbps(25);
    println!();
    println!("Projected saturation throughput (Figure 6 model):");
    for (name, mix) in [
        ("YCSB-A", RequestMix::ycsb_a()),
        ("YCSB-B", RequestMix::ycsb_b()),
        ("YCSB-F", RequestMix::ycsb_f()),
    ] {
        let edm = edm_throughput(link, &mix).requests_per_sec / 1e6;
        let rdma = rdma_throughput(link, &mix).requests_per_sec / 1e6;
        println!(
            "  {name}: EDM {edm:6.2} Mrps vs RDMA {rdma:6.2} Mrps ({:.1}x)",
            edm / rdma
        );
    }
}
