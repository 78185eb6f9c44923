//! Fault-injection harness for the budget WAL: an in-memory
//! [`Storage`] backend that models crashes, torn writes, bit rot, and
//! injected I/O errors at every write site.
//!
//! [`FaultStorage`] keeps two byte buffers: `durable` (what survives a
//! crash) and `buffered` (appended but not yet synced — the OS page
//! cache). `sync` promotes buffered bytes to durable; [`crash`] throws
//! the buffered bytes away; [`crash_at`] additionally tears the
//! durable bytes at an arbitrary offset, modeling a power cut midway
//! through a sector write. Handles are cheap clones sharing one
//! backing store, so a test can hand one clone to a service, "kill" it,
//! and boot a second service over the same bytes.
//!
//! Fault knobs cover every write site the WAL has: failing the Nth
//! append, the Nth sync, compaction's `replace`, and short (torn)
//! writes that persist a prefix of the record before erroring. Syncs
//! can also be *held* ([`pause_syncs`]): a held sync has started but not
//! finished, appends keep landing behind it, and on release it promotes
//! only the bytes that were there when it began — what an fsync
//! guarantees, and what lets a test pin the interleavings group commit
//! depends on without sleeping.
//!
//! [`crash`]: FaultStorage::crash
//! [`crash_at`]: FaultStorage::crash_at
//! [`pause_syncs`]: FaultStorage::pause_syncs

use crate::sync::lock;
use crate::wal::Storage;
use std::io;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

#[derive(Debug, Default)]
struct State {
    durable: Vec<u8>,
    buffered: Vec<u8>,
    appends: u64,
    syncs: u64,
    /// Appends beyond this count fail (`None` = never fail).
    fail_appends_after: Option<u64>,
    /// Syncs beyond this count fail (`None` = never fail).
    fail_syncs_after: Option<u64>,
    /// Fail compaction's whole-log replacement.
    fail_replace: bool,
    /// The next append persists only this many bytes, then errors.
    short_write_next: Option<usize>,
    /// Syncs block after starting until [`FaultStorage::resume_syncs`].
    syncs_paused: bool,
    /// Syncs currently blocked by the pause.
    syncs_held: u64,
}

#[derive(Debug, Default)]
struct Shared {
    state: Mutex<State>,
    syncs_resumed: Condvar,
}

/// A cloneable, shared, in-memory [`Storage`] with fault injection.
/// See the module docs for the crash model.
#[derive(Debug, Clone, Default)]
pub struct FaultStorage(Arc<Shared>);

impl FaultStorage {
    /// An empty, fault-free storage.
    pub fn new() -> FaultStorage {
        FaultStorage::default()
    }

    fn state(&self) -> MutexGuard<'_, State> {
        lock(&self.0.state)
    }

    /// Hold every sync that starts from now on: it blocks, in flight,
    /// until [`FaultStorage::resume_syncs`].
    pub fn pause_syncs(&self) {
        self.state().syncs_paused = true;
    }

    /// Let the held syncs (and all later ones) finish.
    pub fn resume_syncs(&self) {
        self.state().syncs_paused = false;
        self.0.syncs_resumed.notify_all();
    }

    /// Syncs that have started and are being held by the pause.
    pub fn syncs_held(&self) -> u64 {
        self.state().syncs_held
    }

    /// Storage pre-seeded with `bytes` as its durable contents (for
    /// replaying a captured or hand-truncated log).
    pub fn with_bytes(bytes: &[u8]) -> FaultStorage {
        let s = FaultStorage::new();
        s.state().durable = bytes.to_vec();
        s
    }

    /// Let the first `n` appends succeed, then fail every later one.
    pub fn fail_appends_after(&self, n: u64) {
        self.state().fail_appends_after = Some(n);
    }

    /// Let the first `n` syncs succeed, then fail every later one.
    pub fn fail_syncs_after(&self, n: u64) {
        self.state().fail_syncs_after = Some(n);
    }

    /// Make compaction's `replace` fail.
    pub fn fail_replace(&self, fail: bool) {
        self.state().fail_replace = fail;
    }

    /// Tear the next append: persist only its first `prefix` bytes,
    /// then report an error.
    pub fn short_write_next(&self, prefix: usize) {
        self.state().short_write_next = Some(prefix);
    }

    /// Clear every armed fault.
    pub fn clear_faults(&self) {
        let mut s = self.state();
        s.fail_appends_after = None;
        s.fail_syncs_after = None;
        s.fail_replace = false;
        s.short_write_next = None;
    }

    /// Crash: unsynced (buffered) bytes are lost; durable bytes remain.
    pub fn crash(&self) {
        self.state().buffered.clear();
    }

    /// Crash and tear: everything (durable + buffered) past byte
    /// `offset` is lost, modeling a power cut mid-sector.
    pub fn crash_at(&self, offset: usize) {
        let mut s = self.state();
        let mut all = std::mem::take(&mut s.durable);
        all.extend_from_slice(&s.buffered);
        all.truncate(offset);
        s.durable = all;
        s.buffered.clear();
    }

    /// Flip one bit of the stored bytes (durable first, then buffered).
    pub fn flip_bit(&self, byte: usize, bit: u8) {
        let mut s = self.state();
        let d = s.durable.len();
        if byte < d {
            s.durable[byte] ^= 1 << (bit & 7);
        } else if byte - d < s.buffered.len() {
            let i = byte - d;
            s.buffered[i] ^= 1 << (bit & 7);
        }
    }

    /// The crash-surviving bytes.
    pub fn durable_bytes(&self) -> Vec<u8> {
        self.state().durable.clone()
    }

    /// Length of the crash-surviving bytes.
    pub fn durable_len(&self) -> usize {
        self.state().durable.len()
    }

    /// Total bytes written (durable + still-buffered).
    pub fn total_len(&self) -> usize {
        let s = self.state();
        s.durable.len() + s.buffered.len()
    }

    /// Appends attempted so far (failed ones included).
    pub fn appends(&self) -> u64 {
        self.state().appends
    }

    /// Syncs attempted so far (failed ones included).
    pub fn syncs(&self) -> u64 {
        self.state().syncs
    }
}

impl Storage for FaultStorage {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        let mut s = self.state();
        s.appends += 1;
        if let Some(prefix) = s.short_write_next.take() {
            let keep = prefix.min(bytes.len());
            let partial = bytes[..keep].to_vec();
            s.buffered.extend_from_slice(&partial);
            return Err(io::Error::other("injected short write"));
        }
        if let Some(limit) = s.fail_appends_after {
            if s.appends > limit {
                return Err(io::Error::other("injected append error"));
            }
        }
        s.buffered.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self) -> io::Result<()> {
        let mut s = self.state();
        s.syncs += 1;
        let nth = s.syncs;
        // An fsync covers what was written before it began, no more:
        // bytes appended while this one is held stay buffered.
        let began_with = s.buffered.len();
        s.syncs_held += 1;
        while s.syncs_paused {
            s = self
                .0
                .syncs_resumed
                .wait(s)
                .unwrap_or_else(PoisonError::into_inner);
        }
        s.syncs_held -= 1;
        // Checked on the way out, so a test can arm the failure of a
        // sync it is holding.
        if s.fail_syncs_after.is_some_and(|limit| nth > limit) {
            return Err(io::Error::other("injected sync error"));
        }
        // A crash while held already dropped them.
        let State {
            durable, buffered, ..
        } = &mut *s;
        let covered = began_with.min(buffered.len());
        durable.extend(buffered.drain(..covered));
        Ok(())
    }

    fn read(&self) -> io::Result<Vec<u8>> {
        // Readers before a crash see the page cache too, exactly like a
        // file reader would.
        let s = self.state();
        let mut all = s.durable.clone();
        all.extend_from_slice(&s.buffered);
        Ok(all)
    }

    fn replace(&self, bytes: &[u8]) -> io::Result<()> {
        let mut s = self.state();
        if s.fail_replace {
            return Err(io::Error::other("injected replace error"));
        }
        // Replacement is atomic and durable (tmp-write + fsync + rename).
        s.durable = bytes.to_vec();
        s.buffered.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_promotes_buffered_bytes_and_crash_drops_them() {
        let s = FaultStorage::new();
        s.append(b"abc").unwrap();
        assert_eq!(s.durable_len(), 0);
        assert_eq!(s.read().unwrap(), b"abc");
        s.sync().unwrap();
        assert_eq!(s.durable_len(), 3);
        s.append(b"def").unwrap();
        s.crash();
        assert_eq!(s.read().unwrap(), b"abc");
    }

    #[test]
    fn crash_at_tears_mid_byte_stream() {
        let s = FaultStorage::new();
        s.append(b"abcdef").unwrap();
        s.sync().unwrap();
        s.crash_at(2);
        assert_eq!(s.read().unwrap(), b"ab");
    }

    #[test]
    fn clones_share_the_backing_store() {
        let a = FaultStorage::new();
        let b = a.clone();
        a.append(b"xy").unwrap();
        a.sync().unwrap();
        assert_eq!(b.read().unwrap(), b"xy");
    }

    #[test]
    fn injected_faults_fire_and_clear() {
        let s = FaultStorage::new();
        s.fail_appends_after(1);
        s.append(b"a").unwrap();
        assert!(s.append(b"b").is_err());
        s.clear_faults();
        s.append(b"c").unwrap();

        s.fail_syncs_after(0);
        assert!(s.sync().is_err());
        s.clear_faults();
        s.sync().unwrap();

        s.fail_replace(true);
        assert!(s.replace(b"z").is_err());
        s.fail_replace(false);
        s.replace(b"z").unwrap();
        assert_eq!(s.read().unwrap(), b"z");
    }

    #[test]
    fn held_sync_covers_only_what_preceded_it() {
        let s = FaultStorage::new();
        s.append(b"ab").unwrap();
        s.pause_syncs();
        std::thread::scope(|scope| {
            let syncing = scope.spawn(|| s.sync());
            while s.syncs_held() == 0 {
                std::thread::yield_now();
            }
            // An append lands while the sync is in flight…
            s.append(b"cd").unwrap();
            assert_eq!(s.durable_len(), 0, "held: nothing promoted yet");
            s.resume_syncs();
            syncing.join().unwrap().unwrap();
        });
        // …and is not covered by it.
        assert_eq!(s.durable_bytes(), b"ab");
        assert_eq!(s.read().unwrap(), b"abcd");
        s.sync().unwrap();
        assert_eq!(s.durable_bytes(), b"abcd");
    }

    #[test]
    fn short_write_persists_a_prefix_then_errors() {
        let s = FaultStorage::new();
        s.short_write_next(2);
        assert!(s.append(b"abcd").is_err());
        s.sync().unwrap();
        assert_eq!(s.read().unwrap(), b"ab");
        // One-shot: the next append goes through whole.
        s.append(b"ef").unwrap();
        s.sync().unwrap();
        assert_eq!(s.read().unwrap(), b"abef");
    }
}
