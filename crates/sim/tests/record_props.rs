//! Property tests for the fleet record codec: encode → decode must be
//! the identity on arbitrary `DeviceResult`s — bit-exact on every f64 —
//! and corrupt input must fail cleanly, never panic or mis-decode.

use iw_metrics::Histogram;
use iw_sim::record::{
    decode_aggregate, decode_epoch, decode_heartbeat, decode_result, decode_stats,
    decode_stream_frame, encode_epoch, encode_heartbeat, encode_result, encode_stats, read_frame,
    EpochBeat, Heartbeat, RecordError, StreamFrame, WorkerStats, AGGREGATE_VERSION,
    AGGREGATE_VERSION_V2, AGGREGATE_VERSION_V3, EPOCH_TAG, HEARTBEAT_TAG, RECORD_VERSION,
    RECORD_VERSION_MIN, STATS_VERSION,
};
use iw_sim::{ContactEdge, DeviceResult, FaultCounters, FaultKind, ReliabilityCounters};
use proptest::prelude::*;

/// Full-range NaN-free f64s: exact bit patterns drawn from the whole
/// u64 space (subnormals, ±0, ±∞, `MAX`, `MIN_POSITIVE`, …), with the
/// NaN payloads remapped — NaN would break `PartialEq` round-trip
/// comparison, and no fleet statistic can legitimately be NaN.
fn extreme_f64() -> BoxedStrategy<f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::MAX),
        Just(-f64::MAX),
        Just(f64::MIN_POSITIVE),
        Just(f64::EPSILON),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        (-1e9f64..1e9).boxed(),
        any::<u64>().prop_map(|bits| {
            let v = f64::from_bits(bits);
            if v.is_nan() {
                1.5e308
            } else {
                v
            }
        }),
    ]
    .boxed()
}

/// Label strings covering the empty string, non-ASCII UTF-8 and plain
/// policy names.
fn label() -> BoxedStrategy<String> {
    prop_oneof![
        Just(String::new()),
        Just("fixed-24".to_string()),
        Just("aware-24".to_string()),
        Just("bürö-ß·µW".to_string()),
        (0u32..10_000).prop_map(|n| format!("env-{n}")),
    ]
    .boxed()
}

/// A leading byte for arbitrary input: any byte, or one that passes a
/// decoder's version/tag check so the body reaches the field parsers.
fn any_tag() -> BoxedStrategy<u8> {
    prop_oneof![
        any::<u8>(),
        Just(RECORD_VERSION_MIN),
        Just(RECORD_VERSION),
        Just(AGGREGATE_VERSION_V2),
        Just(AGGREGATE_VERSION_V3),
        Just(AGGREGATE_VERSION),
        Just(HEARTBEAT_TAG),
        Just(EPOCH_TAG),
        Just(STATS_VERSION),
    ]
    .boxed()
}

/// Builds a histogram by recording each sample — any
/// recorded-values-built histogram is in canonical form by
/// construction.
fn hist_of(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

/// Scenario block inputs: (observed/missed/uplinked counters, scan
/// energy J, infected-seed flag, (epoch, peer) contact edges).
type ScenarioArgs<'a> = (&'a [u64], f64, bool, &'a [(u32, u32)]);

#[allow(clippy::too_many_arguments)]
fn build_result(
    device: u64,
    days: f64,
    detections: u64,
    browned: u8,
    floats: &[f64],
    events: u64,
    telemetry: (u64, &[u64], &[u64]),
    fault_counts: &[u64],
    rel_counts: &[u64],
    env: String,
    subject: String,
    policy: String,
    scenario: Option<ScenarioArgs>,
    attribution: Option<[u64; 5]>,
) -> DeviceResult {
    let mut faults = FaultCounters::default();
    for (kind, &count) in FaultKind::ALL.into_iter().zip(fault_counts) {
        faults.set(kind, count);
    }
    let reliability = ReliabilityCounters {
        downtime_us: rel_counts[0],
        brownouts: rel_counts[1],
        recoveries: rel_counts[2],
        recovery_us: rel_counts[3],
        degraded_windows: rel_counts[4],
        skipped_acquisitions: rel_counts[5],
        sync_episodes: rel_counts[6],
        sync_ok: rel_counts[7],
        sync_retried: rel_counts[8],
        sync_dropped: rel_counts[9],
    };
    DeviceResult {
        device: device as usize,
        env,
        subject,
        policy,
        days,
        detections,
        browned_out: browned != 0,
        final_soc: floats[0],
        stored_j: floats[1],
        consumed_j: floats[2],
        events,
        queue_high_water: telemetry.0,
        sync_attempts: hist_of(telemetry.1),
        sync_backoff_us: hist_of(telemetry.2),
        uptime: floats[3],
        faults,
        reliability,
        conservation_j: floats[4],
        scenario: scenario.is_some(),
        contacts_observed: scenario.map_or(0, |s| s.0[0]),
        contacts_missed: scenario.map_or(0, |s| s.0[1]),
        contacts_uplinked: scenario.map_or(0, |s| s.0[2]),
        scan_energy_j: scenario.map_or(0.0, |s| s.1),
        infected_seed: scenario.is_some_and(|s| s.2),
        contact_edges: scenario.map_or_else(Vec::new, |s| {
            // The wire form carries (epoch, peer) only; the device field
            // is implied by the record, truncated to u32 on decode.
            s.3.iter()
                .map(|&(epoch, peer)| ContactEdge {
                    epoch,
                    device: device as u32,
                    peer,
                })
                .collect()
        }),
        adaptive: attribution.is_some(),
        target_m4: attribution.map_or(0, |a| a[0]),
        target_ibex: attribution.map_or(0, |a| a[1]),
        target_cluster: attribution.map_or(0, |a| a[2]),
        backoff_skips: attribution.map_or(0, |a| a[3]),
        sync_stretches: attribution.map_or(0, |a| a[4]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn record_round_trip_is_exact(
        device in any::<u64>(),
        days in extreme_f64(),
        detections in any::<u64>(),
        browned in 0u8..2,
        floats in prop::collection::vec(extreme_f64(), 5),
        events in any::<u64>(),
        queue_high_water in any::<u64>(),
        attempts in prop::collection::vec(any::<u64>(), 0..24),
        backoffs in prop::collection::vec(any::<u64>(), 0..24),
        fault_counts in prop::collection::vec(any::<u64>(), 8),
        rel_counts in prop::collection::vec(any::<u64>(), 10),
        env in label(),
        subject in label(),
        policy in label(),
        scn_flag in any::<bool>(),
        scn_counts in prop::collection::vec(any::<u64>(), 3),
        scn_energy in extreme_f64(),
        scn_seeded in any::<bool>(),
        scn_edges in prop::collection::vec((any::<u32>(), any::<u32>()), 0..24),
        pol_flag in any::<bool>(),
        pol_counts in prop::collection::vec(any::<u64>(), 5),
    ) {
        let scenario = scn_flag.then_some((
            scn_counts.as_slice(), scn_energy, scn_seeded, scn_edges.as_slice(),
        ));
        let attribution = pol_flag.then(|| {
            [pol_counts[0], pol_counts[1], pol_counts[2], pol_counts[3], pol_counts[4]]
        });
        let r = build_result(
            device, days, detections, browned, &floats, events,
            (queue_high_water, &attempts, &backoffs),
            &fault_counts, &rel_counts, env, subject, policy,
            scenario, attribution,
        );
        let bytes = encode_result(&r);
        let back = decode_result(&bytes).expect("well-formed record");
        prop_assert_eq!(&r, &back);
        prop_assert_eq!(r.digest(), back.digest());
        prop_assert_eq!(&r.contact_edges, &back.contact_edges);
        prop_assert_eq!(r.scan_energy_j.to_bits(), back.scan_energy_j.to_bits());
        prop_assert_eq!(&r.sync_attempts, &back.sync_attempts);
        prop_assert_eq!(&r.sync_backoff_us, &back.sync_backoff_us);
        // PartialEq treats -0.0 == 0.0; the codec contract is stronger:
        // exact bit patterns.
        prop_assert_eq!(r.days.to_bits(), back.days.to_bits());
        prop_assert_eq!(r.final_soc.to_bits(), back.final_soc.to_bits());
        prop_assert_eq!(r.stored_j.to_bits(), back.stored_j.to_bits());
        prop_assert_eq!(r.consumed_j.to_bits(), back.consumed_j.to_bits());
        prop_assert_eq!(r.uptime.to_bits(), back.uptime.to_bits());
        prop_assert_eq!(r.conservation_j.to_bits(), back.conservation_j.to_bits());
        for kind in FaultKind::ALL {
            prop_assert_eq!(r.faults.get(kind), back.faults.get(kind));
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        tag in any_tag(),
        body in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&body);
        // Every decoder returns Ok or Err; a panic fails the case.
        let _ = decode_result(&bytes);
        let _ = decode_aggregate(&bytes);
        let _ = decode_heartbeat(&bytes);
        let _ = decode_epoch(&bytes);
        let _ = decode_stats(&bytes);
        let _ = decode_stream_frame(&bytes);
        // The same bytes as a frame stream: every Ok(Some) frame consumes
        // at least five bytes, so the loop ends.
        let mut stream = std::io::Cursor::new(&bytes);
        while let Ok(Some(frame)) = read_frame(&mut stream) {
            let _ = decode_stream_frame(&frame);
        }
    }

    #[test]
    fn truncated_records_error_instead_of_panicking(
        detections in any::<u64>(),
        floats in prop::collection::vec(extreme_f64(), 5),
        attempts in prop::collection::vec(any::<u64>(), 0..24),
        fault_counts in prop::collection::vec(any::<u64>(), 8),
        rel_counts in prop::collection::vec(any::<u64>(), 10),
        cut_seed in any::<u64>(),
    ) {
        let r = build_result(
            7, 1.0, detections, 1, &floats, 3,
            (11, &attempts, &attempts),
            &fault_counts, &rel_counts,
            "indoor-6h".into(), "baseline".into(), "aware-24".into(),
            Some((&[5, 1, 4], 0.03, true, &[(0, 9), (2, 3)])),
            Some([12, 7, 3, 2, 1]),
        );
        let bytes = encode_result(&r);
        let cut = (cut_seed as usize) % bytes.len();
        match decode_result(&bytes[..cut]) {
            Err(RecordError::Truncated) => {}
            other => {
                return Err(format!(
                    "cut at {cut}/{} gave {other:?}, expected Truncated",
                    bytes.len()
                ));
            }
        }
    }

    #[test]
    fn corrupt_version_and_trailing_bytes_are_rejected(
        wrong_version in 5u8..=u8::MAX,
        junk in 1usize..16,
    ) {
        let r = build_result(
            1, 0.5, 10, 0, &[0.5, 1.0, 1.0, 1.0, 0.0], 2,
            (0, &[], &[]),
            &[0; 8], &[0; 10],
            "e".into(), "s".into(), "p".into(),
            None, None,
        );
        let mut bytes = encode_result(&r);
        // Trailing garbage after a valid record.
        let mut padded = bytes.clone();
        padded.extend(std::iter::repeat_n(0xAAu8, junk));
        match decode_result(&padded) {
            Err(RecordError::Trailing(n)) => prop_assert_eq!(n, junk),
            other => return Err(format!("expected Trailing, got {other:?}")),
        }
        // Unknown version byte.
        bytes[0] = wrong_version;
        match decode_result(&bytes) {
            Err(RecordError::Version(v)) => prop_assert_eq!(v, wrong_version),
            other => return Err(format!("expected Version, got {other:?}")),
        }
    }

    #[test]
    fn heartbeat_round_trip_and_truncation(
        shard in any::<u32>(),
        of in any::<u32>(),
        elapsed_s in extreme_f64(),
        counts in prop::collection::vec(any::<u64>(), 5),
        sim_days in extreme_f64(),
        rss_flag in any::<bool>(),
        rss_val in any::<u64>(),
        cut_seed in any::<u64>(),
    ) {
        let rss = rss_flag.then_some(rss_val);
        let hb = Heartbeat {
            shard,
            of,
            elapsed_s,
            devices_done: counts[0],
            devices_total: counts[1],
            sim_days,
            events: counts[2],
            fault_episodes: counts[3],
            brownouts: counts[4],
            rss_bytes: rss,
        };
        let bytes = encode_heartbeat(&hb);
        prop_assert_eq!(decode_heartbeat(&bytes).expect("well-formed heartbeat"), hb);
        match decode_stream_frame(&bytes) {
            Ok(StreamFrame::Heartbeat(back)) => prop_assert_eq!(back, hb),
            other => return Err(format!("expected Heartbeat frame, got {other:?}")),
        }
        let cut = (cut_seed as usize) % bytes.len();
        match decode_heartbeat(&bytes[..cut]) {
            Err(RecordError::Truncated) => {}
            other => return Err(format!("cut at {cut} gave {other:?}, expected Truncated")),
        }
    }

    #[test]
    fn worker_stats_round_trip_and_truncation(
        rss_flag in any::<bool>(),
        rss_val in any::<u64>(),
        wall_s in extreme_f64(),
        records in any::<u64>(),
        cut_seed in any::<u64>(),
    ) {
        let rss = rss_flag.then_some(rss_val);
        let s = WorkerStats {
            peak_rss_bytes: rss,
            wall_s,
            records,
        };
        let bytes = encode_stats(&s);
        prop_assert_eq!(decode_stats(&bytes).expect("well-formed stats"), s);
        let cut = (cut_seed as usize) % bytes.len();
        match decode_stats(&bytes[..cut]) {
            Err(RecordError::Truncated) => {}
            other => return Err(format!("cut at {cut} gave {other:?}, expected Truncated")),
        }
    }

    #[test]
    fn stream_decoder_skips_the_auxiliary_tag_range(
        tag in 0x40u8..=0x7f,
        body in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // Forward compatibility: an old coordinator must keep draining
        // a stream containing telemetry kinds it has never heard of —
        // except the heartbeat and epoch-beat tags, which decode fully.
        let mut frame = vec![tag];
        frame.extend_from_slice(&body);
        match decode_stream_frame(&frame) {
            Ok(StreamFrame::Skipped(t)) => prop_assert_eq!(t, tag),
            Ok(StreamFrame::Heartbeat(_) | StreamFrame::Epoch(_))
            | Err(RecordError::Truncated | RecordError::Trailing(_) | RecordError::Malformed(_)) => {
                prop_assert!(
                    tag == 0x48 || tag == 0x45,
                    "only the heartbeat and epoch tags decode fully, got {tag:#x}"
                );
            }
            other => return Err(format!("tag {tag:#x} gave {other:?}")),
        }
    }

    #[test]
    fn epoch_beats_round_trip_and_truncation(
        shard in any::<u32>(),
        epoch in any::<u32>(),
        contacts in any::<u64>(),
        edges in any::<u64>(),
        cut_seed in any::<u64>(),
    ) {
        let beat = EpochBeat { shard, epoch, contacts, edges };
        let bytes = encode_epoch(&beat);
        prop_assert_eq!(decode_epoch(&bytes).expect("well-formed epoch beat"), beat);
        match decode_stream_frame(&bytes) {
            Ok(StreamFrame::Epoch(back)) => prop_assert_eq!(back, beat),
            other => return Err(format!("expected Epoch frame, got {other:?}")),
        }
        let cut = (cut_seed as usize) % bytes.len();
        match decode_epoch(&bytes[..cut]) {
            Err(RecordError::Truncated) => {}
            other => return Err(format!("cut at {cut} gave {other:?}, expected Truncated")),
        }
    }

    #[test]
    fn v4_decoder_reads_historical_record_streams(
        device in any::<u64>(),
        detections in any::<u64>(),
        floats in prop::collection::vec(extreme_f64(), 5),
        fault_counts in prop::collection::vec(any::<u64>(), 8),
        rel_counts in prop::collection::vec(any::<u64>(), 10),
        env in label(),
        subject in label(),
        policy in label(),
    ) {
        // A version-1 writer knew neither the telemetry block, the
        // scenario block nor the adaptive-policy block; a version-2
        // writer only the first; a version-3 writer the first two. All
        // encodings are strict prefixes-with-gaps of today's layout, so
        // we reconstruct them by surgery on the v4 bytes (the telemetry
        // block is 8 bytes of queue mark plus two empty 42-byte
        // histograms when unused, at fixed offset 218; the scenario and
        // adaptive-policy blocks each collapse to one trailing flag
        // byte when inactive).
        let r = build_result(
            device, 1.25, detections, 0, &floats, 11,
            (0, &[], &[]),
            &fault_counts, &rel_counts, env, subject, policy,
            None, None,
        );
        let v4 = encode_result(&r);
        let mut v3 = v4.clone();
        prop_assert_eq!(v3.pop(), Some(0));
        v3[0] = 0x03;
        prop_assert_eq!(decode_result(&v3).expect("v3 decode"), r.clone());
        let mut v2 = v3.clone();
        prop_assert_eq!(v2.pop(), Some(0));
        v2[0] = 0x02;
        prop_assert_eq!(decode_result(&v2).expect("v2 decode"), r.clone());
        let mut v1 = Vec::new();
        v1.extend_from_slice(&v4[..218]);
        v1.extend_from_slice(&v4[218 + 8 + 42 + 42..v4.len() - 2]);
        v1[0] = 0x01;
        let back = decode_result(&v1).expect("v1 decode");
        prop_assert_eq!(back.digest(), r.digest());
        prop_assert_eq!(back, r);
    }
}
