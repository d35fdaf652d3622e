//! The record decoders must not trust a count field with their memory:
//! each caps what it reserves up front (`n.min(1024 | 4096 | 65_536)`)
//! and lets a short body fail as truncated. This binary counts every
//! allocation, feeds the decoders maximal counts followed by one element,
//! and asserts an error with a bounded peak allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use iw_metrics::Histogram;
use iw_sim::record::{decode_aggregate, decode_result, encode_aggregate, encode_result};
use iw_sim::{ContactEdge, DeviceResult, FaultCounters, FleetAggregate, ReliabilityCounters};

/// The system allocator, tracking live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged to the system allocator.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the peak bytes it held live on
/// top of what was live before.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

/// `buf` cut right after the count field found `back` bytes before the
/// first occurrence of `marker`, with the count set to `count` (its
/// little-endian bytes) and one `marker` element following.
fn max_count_then_one(buf: &[u8], marker: &[u8], back: usize, count: &[u8]) -> Vec<u8> {
    let at = buf
        .windows(marker.len())
        .position(|w| w == marker)
        .expect("marker encoded")
        - back;
    let mut out = buf[..at].to_vec();
    out.extend_from_slice(count);
    out.extend_from_slice(marker);
    out
}

fn device_result(edges: Vec<ContactEdge>, sync_sample: u64) -> DeviceResult {
    let mut sync_attempts = Histogram::new();
    sync_attempts.record(sync_sample);
    DeviceResult {
        device: 7,
        env: "env".into(),
        subject: "subject".into(),
        policy: "policy".into(),
        days: 1.0,
        detections: 3,
        browned_out: false,
        final_soc: 0.5,
        stored_j: 1.0,
        consumed_j: 2.0,
        events: 10,
        queue_high_water: 4,
        sync_attempts,
        sync_backoff_us: Histogram::new(),
        uptime: 1.0,
        faults: FaultCounters::default(),
        reliability: ReliabilityCounters::default(),
        conservation_j: 0.0,
        scenario: true,
        contacts_observed: 1,
        contacts_missed: 0,
        contacts_uplinked: 1,
        scan_energy_j: 0.25,
        infected_seed: false,
        contact_edges: edges,
        adaptive: false,
        target_m4: 0,
        target_ibex: 0,
        target_cluster: 0,
        backoff_skips: 0,
        sync_stretches: 0,
    }
}

#[test]
fn maximal_counts_with_short_bodies_fail_within_bounded_memory() {
    let (epoch, device, peer) = (0xa5a5_0001u32, 7u32, 0x5a5a_0002u32);
    let edge = ContactEdge {
        epoch,
        device,
        peer,
    };
    let sample = 0x1234_5678_9abcu64;
    let record = encode_result(&device_result(vec![edge], sample));

    // A device record's contact edges: (epoch, peer) after a u32 count.
    let edge_bytes = [epoch.to_le_bytes(), peer.to_le_bytes()].concat();
    let edges = max_count_then_one(&record, &edge_bytes, 4, &u32::MAX.to_le_bytes());
    // A histogram's (bucket, count) pairs: after its min and max (both
    // `sample`) comes the u16 pair count.
    let min_max = [sample.to_le_bytes(), sample.to_le_bytes()].concat();
    let mut pairs = max_count_then_one(&record, &min_max, 0, &[]);
    pairs.extend_from_slice(&u16::MAX.to_le_bytes());
    pairs.extend_from_slice(&[0; 10]);

    for (what, buf) in [("device edges", edges), ("histogram pairs", pairs)] {
        let (res, peak) = peak_of(|| decode_result(&buf));
        assert!(res.is_err(), "{what}: {res:?}");
        // Uncapped, the pairs alone would reserve 1 MiB, the edges 48 GiB.
        assert!(peak < 128 << 10, "{what}: peak {peak} B");
    }

    // A shard aggregate's contact edges: (epoch, device, peer) after a u32
    // count.
    let mut agg = FleetAggregate::with_policies([], 0);
    agg.scenario = true;
    agg.edges.push(edge);
    let encoded = encode_aggregate(&agg);
    let edge_bytes = [
        epoch.to_le_bytes(),
        device.to_le_bytes(),
        peer.to_le_bytes(),
    ]
    .concat();
    let buf = max_count_then_one(&encoded, &edge_bytes, 4, &u32::MAX.to_le_bytes());
    let (res, peak) = peak_of(|| decode_aggregate(&buf));
    assert!(res.is_err(), "aggregate edges: {res:?}");
    // 65 536 reserved edges are 768 KiB; uncapped, 48 GiB.
    assert!(peak < 2 << 20, "aggregate edges: peak {peak} B");
}
