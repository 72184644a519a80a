//! Memory pin for a switch domain's per-pair state.
//!
//! A pair needs state only while it holds messages (§3.1.2: X announced
//! notifications, the rest in the sender's FIFO), so what a
//! `SwitchDomain` holds must grow with its ports, not with their
//! square. Each check bounds the live bytes a domain holds by
//! `PER_PORT` bytes per port: a fresh domain's, and a domain's after one
//! message has crossed every pair. A dense table of even one word per
//! pair is 8 B × ports per port, and fails both.
//!
//! This file is its own test binary, so its counting allocator sees
//! nothing but its tests; each counts only the thread that runs it.

use edm_core::sim::{DomainGrant, DomainOffer, SwitchDomain};
use edm_sched::SchedulerConfig;
use edm_sim::Time;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

/// The most a domain may hold per port, in bytes.
const PER_PORT: usize = 1024;

thread_local! {
    /// Live bytes the thread allocated since it started counting, if it
    /// counts.
    static LIVE: Cell<Option<isize>> = const { Cell::new(None) };
}

struct Counting;

impl Counting {
    fn add(bytes: isize) {
        LIVE.with(|live| {
            if let Some(n) = live.get() {
                live.set(Some(n + bytes));
            }
        });
    }
}

// SAFETY: every call forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are the caller's; the counter is a
// thread-local cell and never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::add(layout.size() as isize);
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s
        // contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::add(layout.size() as isize);
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, so from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) };
        Self::add(-(layout.size() as isize));
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            Self::add(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Builds a domain with `make` and returns it with the live bytes the
/// building left allocated: what the domain holds.
fn held<T>(make: impl FnOnce() -> T) -> (T, usize) {
    LIVE.with(|live| live.set(Some(0)));
    let made = make();
    let bytes = LIVE.with(|live| live.take()).expect("counting");
    (made, bytes.max(0) as usize)
}

fn domain(ports: usize) -> SwitchDomain {
    SwitchDomain::new(SchedulerConfig::default_for_ports(ports))
}

#[test]
fn a_new_domain_holds_memory_linear_in_its_ports() {
    let ports = 1024;
    let (_dom, bytes) = held(|| domain(ports));
    assert!(
        bytes <= PER_PORT * ports,
        "a new {ports}-port domain holds {bytes} B, over {PER_PORT} B per port"
    );
}

/// Offers one 64 B message on each `(src, dst)` pair at `now`, then runs
/// the rounds they ask for and delivers every chunk as it is granted,
/// until none is left. Returns when the last round ran.
fn carry(dom: &mut SwitchDomain, now: Time, pairs: impl Iterator<Item = (u16, u16)>) -> Time {
    let mut polls = BTreeSet::new();
    for (token, (src, dst)) in pairs.enumerate() {
        let offer = DomainOffer {
            src,
            dst,
            bytes: 64,
            limit: 3,
            token: token as u64,
        };
        polls.extend(dom.offer(now, offer));
    }
    let mut last = now;
    while let Some(at) = polls.pop_first() {
        let Some(round) = dom.poll(at) else {
            continue;
        };
        polls.extend(round.next_poll);
        let grants: Vec<DomainGrant> = round.grants.to_vec();
        for g in grants {
            polls.extend(dom.deliver(at, g.slot, g.chunk_bytes, |_, _| {}));
        }
        last = at;
    }
    assert_eq!(dom.msg_slots_live(), 0, "every message delivered");
    last
}

#[test]
fn a_domain_keeps_no_state_for_pairs_it_carried() {
    // One message on every one of 256² pairs, in waves of 256 — wave k
    // sends from each source s to (s + k) mod 256 — each drained before
    // the next. A pair's entry must leave with its message.
    let ports = 256u16;
    let (_dom, bytes) = held(|| {
        let mut dom = domain(ports as usize);
        let mut now = Time::ZERO;
        for k in 0..ports {
            let wave = (0..ports).map(|s| (s, (s + k) % ports));
            now = carry(&mut dom, now, wave);
        }
        dom
    });
    assert!(
        bytes <= PER_PORT * ports as usize,
        "after carrying every pair a {ports}-port domain holds {bytes} B, \
         over {PER_PORT} B per port"
    );
}
