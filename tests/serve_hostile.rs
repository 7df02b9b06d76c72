//! Hostile-input campaign against the daemon's one frame reader.
//!
//! Seeded mutations of valid `brs2` frames — requests, section runs and
//! batches — go to a live `Server`, one connection per frame: truncated
//! frames, flipped bytes, inflated and deflated length fields, unknown
//! section ids and opcodes. Every frame must draw error frames (or, when
//! the mutation left a valid request, answers) or a clean hang-up:
//!
//! * no panic anywhere in the process — a counting panic hook sees
//!   even the panics the worker pool catches, and a panicking
//!   connection thread would otherwise die silently;
//! * no `code::INTERNAL` reply, the code of a caught pipeline panic;
//! * every reply is a well-formed frame;
//! * afterwards the daemon still answers `health` on a fresh
//!   connection.
//!
//! The campaign is deterministic (a fixed seed, one frame at a time).

use std::io::{ErrorKind, Write as _};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use br_serve::proto2::{self, code, kind, sec, Frame2, Incoming};
use br_serve::server::{ServeConfig, Server};
use br_workloads::rng::SmallRng;

static PANICS: AtomicUsize = AtomicUsize::new(0);

/// The paper's Figure 1 program: small enough that a mutation leaving
/// a valid request costs little pipeline time.
const FIGURE1: &str = r#"
int main() {
    int c; int x; int y; int z;
    x = 0; y = 0; z = 0;
    c = getchar();
    while (c != -1) {
        if (c == ' ') x += 1;
        else if (c == '\n') y += 1;
        else z += 1;
        c = getchar();
    }
    putint(x); putint(y); putint(z);
    return 0;
}
"#;

const CASES: usize = 400;

/// A valid frame and the offsets of the fields worth mutating.
#[derive(Clone)]
struct Seed {
    wire: Vec<u8>,
    /// Offsets of little-endian `u32` length fields.
    lengths: Vec<usize>,
    /// Offsets of opcode and section-id bytes.
    ids: Vec<usize>,
}

/// Append a section run at `out`'s end, recording its field offsets.
fn push_sections(out: &mut Vec<u8>, sections: &[(u8, &[u8])], seed: &mut Seed) {
    for (id, bytes) in sections {
        seed.ids.push(out.len());
        seed.lengths.push(out.len() + 1);
        out.push(*id);
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    }
}

/// A single-request frame.
fn single(k: u8, sections: &[(u8, &[u8])]) -> Seed {
    let mut seed = Seed {
        wire: Vec::new(),
        lengths: vec![16],
        ids: vec![4],
    };
    let mut wire = header(k, 0);
    push_sections(&mut wire, sections, &mut seed);
    seed.wire = finish(wire);
    seed
}

/// A request's `(section id, bytes)` pairs.
type Sections<'a> = Vec<(u8, &'a [u8])>;

/// A batch frame of `(opcode, sections)` items.
fn batch(items: &[(u8, Sections<'_>)]) -> Seed {
    let mut seed = Seed {
        wire: Vec::new(),
        lengths: vec![16],
        ids: vec![4],
    };
    let mut wire = header(kind::BATCH, proto2::flags::BATCH);
    for (k, sections) in items {
        let item = wire.len();
        seed.ids.push(item);
        seed.lengths.push(item + 1);
        wire.push(*k);
        wire.extend_from_slice(&[0; 4]);
        push_sections(&mut wire, sections, &mut seed);
        let len = (wire.len() - item - 5) as u32;
        wire[item + 1..item + 5].copy_from_slice(&len.to_le_bytes());
    }
    seed.wire = finish(wire);
    seed
}

fn header(k: u8, flags: u8) -> Vec<u8> {
    let mut wire = Vec::new();
    Frame2 {
        kind: k,
        flags,
        code: 0,
        aux: 0,
        payload: Vec::new(),
    }
    .write_to(&mut wire)
    .expect("header");
    wire
}

/// Patch the header's payload length now that the payload is written.
fn finish(mut wire: Vec<u8>) -> Vec<u8> {
    let len = (wire.len() - proto2::HEADER2) as u32;
    wire[16..20].copy_from_slice(&len.to_le_bytes());
    wire
}

fn seeds(module: &str) -> Vec<Seed> {
    let train = b"the quick brown fox\njumps over\n the lazy dog\n".as_slice();
    let hash = proto2::module_hash(module.as_bytes()).to_le_bytes();
    let text = module.as_bytes();
    let reorder = vec![
        (sec::MODULE, text),
        (sec::TRAIN, train),
        (sec::OPTIONS, b"exhaustive 0\nstatic 1".as_slice()),
    ];
    let by_hash = vec![(sec::MODULE_HASH, hash.as_slice()), (sec::TRAIN, train)];
    let unknown = (!proto2::module_hash(module.as_bytes())).to_le_bytes();
    let profile = vec![(sec::MODULE, text), (sec::INPUT, train)];
    vec![
        single(kind::REORDER, &reorder),
        single(kind::REORDER, &by_hash),
        single(
            kind::REORDER,
            &[(sec::MODULE_HASH, &unknown), (sec::TRAIN, train)],
        ),
        single(
            kind::MEASURE,
            &[
                (sec::ORIGINAL, text),
                (sec::REORDERED_HASH, &hash),
                (sec::INPUT, train),
            ],
        ),
        single(kind::PROFILE, &profile),
        single(
            kind::CACHEPUT,
            &[(sec::KEY, b"00000000000000ff"), (sec::BODY, b"body")],
        ),
        single(kind::HEALTH, &[]),
        single(kind::METRICS, &[]),
        batch(&[
            (kind::REORDER, by_hash.clone()),
            (kind::PROFILE, profile),
            (kind::REORDER, reorder),
        ]),
    ]
}

/// Apply one to three seeded mutations.
fn mutate(seed: &Seed, rng: &mut SmallRng) -> Vec<u8> {
    let mut wire = seed.wire.clone();
    for _ in 0..rng.gen_range(1..=3usize) {
        match rng.gen_range(0..5u32) {
            // Truncate anywhere, the header included.
            0 => wire.truncate(rng.gen_range(0..wire.len().max(1))),
            // Flip bits in one byte.
            1 if !wire.is_empty() => {
                let at = rng.gen_range(0..wire.len());
                wire[at] ^= rng.gen_range(1..=255u8);
            }
            // Inflate (or deflate) a length field.
            2 => {
                let at = seed.lengths[rng.gen_range(0..seed.lengths.len())];
                if at + 4 <= wire.len() {
                    let old = u32::from_le_bytes(wire[at..at + 4].try_into().expect("4 bytes"));
                    let new = match rng.gen_range(0..4u32) {
                        0 => old.saturating_add(rng.gen_range(1..=64u32)),
                        1 => old.saturating_sub(rng.gen_range(1..=64u32)),
                        2 => proto2::MAX_PAYLOAD as u32 + rng.gen_range(1..=64u32),
                        _ => u32::MAX - rng.gen_range(0..=64u32),
                    };
                    wire[at..at + 4].copy_from_slice(&new.to_le_bytes());
                }
            }
            // An unknown (or wrong) section id or opcode.
            3 => {
                let at = seed.ids[rng.gen_range(0..seed.ids.len())];
                if at < wire.len() {
                    wire[at] = rng.gen_range(0..=255u8);
                }
            }
            // Garbage in place of the frame prefix.
            _ => {
                for b in wire.iter_mut().take(4) {
                    *b = rng.gen_range(0..=255u8);
                }
            }
        }
    }
    // A mutation that turns a frame into `shutdown` would end the
    // campaign, not test it: keep the header opcode off that value.
    if wire.len() > 4 && wire.starts_with(proto2::MAGIC2) && wire[4] == kind::SHUTDOWN {
        wire[4] = kind::HEALTH;
    }
    wire
}

#[derive(Default, Debug)]
struct Tally {
    ok: usize,
    hangups: usize,
    by_code: std::collections::BTreeMap<u16, usize>,
}

/// Check one reply frame (and, for a batch, each item).
fn check(case: usize, reply: &Frame2, tally: &mut Tally) {
    if reply.kind == kind::OK {
        tally.ok += 1;
        if reply.flags & proto2::flags::BATCH != 0 {
            let items = proto2::batch_replies(&reply.payload)
                .unwrap_or_else(|e| panic!("case {case}: malformed batch reply: {e}"));
            for item in items {
                assert_ne!(item.code, code::INTERNAL, "case {case}: a caught panic");
                *tally.by_code.entry(item.code).or_default() += 1;
            }
        }
        return;
    }
    assert_eq!(reply.kind, kind::ERROR, "case {case}: unknown reply kind");
    assert_ne!(
        reply.code,
        code::INTERNAL,
        "case {case}: a caught panic: {}",
        reply.payload_text()
    );
    *tally.by_code.entry(reply.code).or_default() += 1;
}

/// Send each frame's bytes on its own connection and half-close, then
/// read each connection's replies until the daemon hangs up. Opening a
/// chunk of connections at once lets the daemon accept them together.
fn exchange(addr: &str, frames: &[(usize, Vec<u8>)], tally: &mut Tally) {
    let streams: Vec<TcpStream> = frames
        .iter()
        .map(|(_, wire)| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            // The daemon may hang up before reading everything (a
            // garbage prefix); a failed write is that hang-up, early.
            let _ = stream.write_all(wire);
            let _ = stream.shutdown(Shutdown::Write);
            stream
        })
        .collect();
    for ((case, _), mut stream) in frames.iter().zip(streams) {
        loop {
            match proto2::read_request(&mut stream) {
                Ok(Some(Incoming::Frame(reply))) => check(*case, &reply, tally),
                Ok(None) => break,
                Err(e) if e.kind() == ErrorKind::ConnectionReset => break,
                Ok(Some(Incoming::Oversized { len, .. })) => {
                    panic!("case {case}: the daemon sent a {len}-byte reply")
                }
                Err(e) => panic!("case {case}: unreadable reply: {e}"),
            }
        }
        tally.hangups += 1;
    }
}

#[test]
fn mutated_brs2_frames_draw_errors_or_hangups_and_never_a_panic() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        previous(info);
    }));

    let mut module = br_minic::compile(FIGURE1, &br_minic::Options::default()).expect("compiles");
    br_opt::optimize(&mut module);
    let module = br_ir::print_module(&module);

    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        cache_dir: None,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();
    let stop = server.shutdown_handle();
    let daemon = std::thread::spawn(move || server.wait());

    let seeds = seeds(&module);
    let mut rng = SmallRng::seed_from_u64(0x5eed_b452);
    let mut tally = Tally::default();
    let start = Instant::now();
    // Each valid seed once, in order, so the hash-referenced seeds find
    // the module interned; then the mutants, a chunk at a time. No
    // mutant's answer depends on another's.
    for (case, seed) in seeds.iter().enumerate() {
        exchange(&addr, &[(case, seed.wire.clone())], &mut tally);
    }
    let mutants: Vec<(usize, Vec<u8>)> = (0..CASES)
        .map(|case| {
            let seed = &seeds[rng.gen_range(0..seeds.len())];
            (seeds.len() + case, mutate(seed, &mut rng))
        })
        .collect();
    for chunk in mutants.chunks(16) {
        exchange(&addr, chunk, &mut tally);
    }
    let elapsed = start.elapsed();

    let mut fresh = br_serve::Client2::connect(&addr).expect("daemon still accepts");
    let health = fresh
        .call(&Frame2::request(kind::HEALTH, &[]))
        .expect("daemon still answers");
    assert_eq!(health.kind, kind::OK);
    drop(fresh);
    stop.store(true, Ordering::SeqCst);
    daemon.join().expect("daemon thread").expect("clean drain");

    assert_eq!(
        PANICS.load(Ordering::SeqCst),
        0,
        "panics during the campaign"
    );
    assert_eq!(tally.hangups, seeds.len() + CASES);
    // The campaign reached the reader's refusals and the endpoints'.
    for c in [code::PROTOCOL, code::BAD_REQUEST, code::NEED_MODULE] {
        assert!(
            tally.by_code.get(&c).copied().unwrap_or(0) > 0,
            "no reply with code {c}: {tally:?}"
        );
    }
    assert!(tally.ok > 0, "{tally:?}");
    println!("{CASES} mutated frames in {elapsed:?}: {tally:?}");
}
