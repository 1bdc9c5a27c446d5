//! A window's capacity is address space, not memory: creating one makes
//! no page resident, writing a word makes its page resident, and words
//! nobody wrote read 0 through every access path.
//!
//! Resident memory is read from `/proc/self/statm`, so this binary runs
//! on Linux only. Every test holds [`ONE_AT_A_TIME`]: the resident set is
//! process-wide.

#![cfg(target_os = "linux")]

use std::sync::Mutex;

use rma::{BackendKind, FabricBuilder, WinId, Window, WORD_BYTES};

const MIB: usize = 1 << 20;
const GIB: usize = 1 << 30;
/// The page size the write test strides by (the smallest Linux page).
const PAGE: usize = 4096;

/// Serializes the tests: one test's pages would show in another's
/// measurement.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Resident bytes of this process: `/proc/self/statm`'s second field
/// (pages) times the page size.
fn resident_bytes() -> usize {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("read /proc/self/statm");
    let pages: usize = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .expect("statm's second field is the resident page count");
    pages * page_size()
}

/// The kernel's page size: `AT_PAGESZ` (6) in `/proc/self/auxv`, a list
/// of native-word `(type, value)` pairs.
fn page_size() -> usize {
    const AT_PAGESZ: usize = 6;
    const W: usize = std::mem::size_of::<usize>();
    let auxv = std::fs::read("/proc/self/auxv").expect("read /proc/self/auxv");
    auxv.chunks_exact(2 * W)
        .map(|pair| {
            let word = |b: &[u8]| usize::from_ne_bytes(b.try_into().expect("one native word"));
            (word(&pair[..W]), word(&pair[W..]))
        })
        .find(|&(key, _)| key == AT_PAGESZ)
        .map(|(_, value)| value)
        .expect("auxv carries AT_PAGESZ")
}

#[test]
fn a_gib_window_is_not_resident() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let before = resident_bytes();
    let w = Window::new(GIB);
    let grew = resident_bytes().saturating_sub(before);
    assert_eq!(w.len_bytes(), GIB);
    assert!(
        grew < 16 * MIB,
        "a 1 GiB window made {} MiB resident at creation",
        grew / MIB
    );
}

#[test]
fn written_pages_become_resident() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let span = 64 * MIB;
    let w = Window::new(2 * span);
    let before = resident_bytes();
    for byte in (0..span).step_by(PAGE) {
        w.store(byte / WORD_BYTES, 1);
    }
    let grew = resident_bytes().saturating_sub(before);
    // every page of the span is touched once; nothing beyond it is
    assert!(
        (span - span / 16..span + 16 * MIB).contains(&grew),
        "one word per page over {} MiB made {} MiB resident",
        span / MIB,
        grew / MIB
    );
    assert_eq!(w.load(span / WORD_BYTES - PAGE / WORD_BYTES), 1);
    assert_eq!(w.load(span / WORD_BYTES), 0);
}

#[test]
fn untouched_words_read_zero() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let w = Window::new(256 * MIB);
    let last = w.len_words() - 1;
    w.store(0, 7);
    for idx in [1, w.len_words() / 2, last] {
        assert_eq!(w.load(idx), 0, "load of word {idx}");
    }
    let mut bytes = [0xEE_u8; 3 * WORD_BYTES + 5];
    w.read_bytes(w.len_bytes() - bytes.len() - 3, &mut bytes);
    assert_eq!(bytes, [0; 3 * WORD_BYTES + 5], "bulk read of the tail");
    assert_eq!(
        w.cas(last, 0, 9),
        0,
        "a CAS expecting 0 on an untouched word"
    );
    assert_eq!(w.load(last), 9);

    // the same through one-sided accesses to another rank's window
    let fabric = FabricBuilder::new(2)
        .backend(BackendKind::Sim)
        .window(64 * MIB)
        .build();
    let seen = fabric.run(|ctx| {
        let peer = 1 - ctx.rank();
        let far = 64 * MIB / WORD_BYTES - 1 - ctx.rank();
        let mut bytes = [0xEE_u8; 2 * WORD_BYTES + 3];
        ctx.get_bytes(WinId(0), peer, 32 * MIB + 1, &mut bytes);
        let cas = ctx.cas_u64(WinId(0), peer, far, 0, 5);
        (bytes, cas, ctx.aget_u64(WinId(0), peer, far))
    });
    for (rank, (bytes, cas, after)) in seen.into_iter().enumerate() {
        assert_eq!(bytes, [0; 2 * WORD_BYTES + 3], "rank {rank}'s get_bytes");
        assert_eq!(cas, 0, "rank {rank}'s CAS saw a non-zero word");
        assert_eq!(after, 5, "rank {rank}'s CAS did not land");
    }
}
