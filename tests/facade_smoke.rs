//! Smoke test for the `edm` facade crate: the crate-level quickstart must
//! keep working through the re-exported paths only (no direct `edm_*`
//! dependencies), and every advertised re-export must resolve.
//!
//! The same quickstart also runs as a doctest on `src/lib.rs`; this test
//! pins it at integration-test granularity so `cargo test --test
//! facade_smoke` can gate the facade alone.

use edm::fabric::{Fabric, TestbedConfig};
use edm::sim::{Duration, Time};

#[test]
fn quickstart_read_roundtrip() {
    let mut fabric = Fabric::new(TestbedConfig::default());
    fabric.seed_memory(1, 0, b"hello, remote memory");
    let op = fabric.read(Time::ZERO, 0, 1, 0, 20);
    fabric.run();
    let done = fabric.completion(op).expect("read completes");
    assert_eq!(done.data, b"hello, remote memory");
    assert!(done.latency() < Duration::from_ns(1000));
}

#[test]
fn quickstart_write_then_read() {
    let mut fabric = Fabric::new(TestbedConfig::default());
    let w = fabric.write(Time::ZERO, 0, 1, 0x40, b"persisted".to_vec());
    fabric.run();
    assert!(fabric.completion(w).is_some());

    let r = fabric.read(Time::from_us(1), 0, 1, 0x40, 9);
    fabric.run();
    assert_eq!(
        fabric.completion(r).expect("read completes").data,
        b"persisted"
    );
}

#[test]
fn reexported_modules_resolve() {
    // One symbol per re-export; a broken facade path fails to compile.
    let _ = edm::latency::edm_read();
    let _ = edm::message::MemOp::Read { addr: 0, len: 8 }.to_bytes();
    let _ = edm::stack::compute_node_read_cycles();
    let _ = edm::throughput::RequestMix::ycsb_a();
    let _ = edm::shim::PAGE_BYTES;
    let _ = edm::phy::scramble::Scrambler::default();
    let _ = edm::sched::OrderedList::<u8>::new();
    let _ = edm::memory::DramConfig::ddr4_2400();
    let _ = edm::sim::Rng::seed_from(1);
    let _ = edm::workloads::traces::AppTrace::all();
    let protocols = edm::baselines::prelude::all_protocols();
    assert_eq!(protocols.len(), 7, "EDM + 6 baselines");
}
