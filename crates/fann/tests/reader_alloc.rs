//! The FANN text readers take untrusted files: a network or training set
//! from disk, or a deployed detector bundle. This binary counts every
//! allocation, mutates written files (runs of digits, huge counts,
//! dropped and repeated lines) and requires each reader to return without
//! panicking and with a peak allocation bounded by a multiple of the
//! input length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use iw_fann::format::{read_data, read_net, write_data, write_net};
use iw_fann::format_fixed::{read_fixed_net, write_fixed_net};
use iw_fann::{FixedNet, Mlp, TrainData};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Most bytes a reader may hold per input byte, plus a fixed allowance.
/// A connection record of about 16 characters becomes a few parsed
/// strings and one weight.
const BYTES_PER_INPUT_BYTE: usize = 64;
const FIXED_ALLOWANCE: usize = 64 << 10;

/// The files the mutations start from: a float network, its fixed-point
/// export and a training set, all small.
fn written_files() -> [String; 3] {
    let mut rng = StdRng::seed_from_u64(11);
    let mut net = Mlp::new(&[3, 4, 2]);
    net.randomize_weights(&mut rng, 0.5);
    let fixed = FixedNet::export(&net).expect("exportable");
    let mut data = TrainData::new();
    for _ in 0..4 {
        let input = (0..3).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let output = (0..2).map(|_| rng.gen_range(0.0f32..1.0)).collect();
        data.push(input, output);
    }
    [write_net(&net), write_fixed_net(&fixed), write_data(&data)]
}

/// Applies one to three mutations drawn from `seed` to `text`: a digit
/// replaced by a run of digits, a number replaced by a huge count, a line
/// dropped, or a line repeated.
fn mutate(text: &str, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    for _ in 0..rng.gen_range(1..4usize) {
        if lines.is_empty() {
            break;
        }
        let at = rng.gen_range(0..lines.len());
        match rng.gen_range(0..4u32) {
            0 => {
                let line = &lines[at];
                let digits: Vec<usize> = line
                    .match_indices(|c: char| c.is_ascii_digit())
                    .map(|(i, _)| i)
                    .collect();
                if let Some(&i) = digits.get(rng.gen_range(0..digits.len().max(1))) {
                    let run = "9".repeat(rng.gen_range(2..40usize));
                    lines[at] = format!("{}{run}{}", &line[..i], &line[i + 1..]);
                }
            }
            1 => {
                let huge = [
                    "4294967297".to_string(),
                    "3000000001".to_string(),
                    u64::MAX.to_string(),
                    usize::MAX.to_string(),
                    "99999999999999999999999".to_string(),
                ];
                let huge = &huge[rng.gen_range(0..huge.len())];
                let line = &lines[at];
                let numbers: Vec<(usize, usize)> = number_spans(line);
                if let Some(&(start, end)) = numbers.get(rng.gen_range(0..numbers.len().max(1))) {
                    lines[at] = format!("{}{huge}{}", &line[..start], &line[end..]);
                }
            }
            2 => {
                lines.remove(at);
            }
            _ => {
                let copies = rng.gen_range(1..50usize);
                let line = lines[at].clone();
                for _ in 0..copies {
                    lines.insert(at, line.clone());
                }
            }
        }
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Byte spans of the runs of ASCII digits in `line`.
fn number_spans(line: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = None;
    for (i, c) in line.char_indices().chain([(line.len(), ' ')]) {
        match (c.is_ascii_digit(), start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                spans.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    spans
}

/// Runs `read` on `text` and checks its peak allocation; a panic fails
/// the test on its own.
fn check<T>(what: &str, text: &str, read: impl FnOnce(&str) -> T) -> Result<(), String> {
    let (_, peak) = peak_of(|| read(text));
    let bound = BYTES_PER_INPUT_BYTE * text.len() + FIXED_ALLOWANCE;
    prop_assert!(
        peak <= bound,
        "{}: peak {} B for {} input bytes",
        what,
        peak,
        text.len()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every reader, on every mutated file, returns (an error or a
    /// value) within the allocation bound. This is the binary's only
    /// test, so nothing else allocates while the counter is read.
    #[test]
    fn mutated_files_fail_or_parse_within_bounded_memory(seed in any::<u64>()) {
        let [net, fixed, data] = written_files();
        prop_assert!(read_net(&net).is_ok() && read_fixed_net(&fixed).is_ok() && read_data(&data).is_ok());
        check("read_net", &mutate(&net, seed), read_net)?;
        check("read_fixed_net", &mutate(&fixed, seed), read_fixed_net)?;
        check("read_data", &mutate(&data, seed), read_data)?;
    }
}
