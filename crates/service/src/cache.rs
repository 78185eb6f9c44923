//! The sharded, memory-bounded noisy-answer cache with built-in
//! single-flight coalescing.
//!
//! Keyed on the **canonical AST form** of the query (see
//! [`flex_sql::canonical`]) plus the privacy parameters, the cache stores
//! already-released noised answers. Re-serving a released answer is
//! post-processing of a differentially-private output, so a cache hit
//! costs **zero** additional privacy budget — the textbook way to absorb
//! heavy repeated traffic (dashboards, retried queries, many analysts
//! asking the same question) without budget blowup.
//!
//! Only the *noised* rows are stored; true rows never enter the cache.
//!
//! ## Sharding
//!
//! The map is split into [`AnswerCache::shards`] lock-striped shards
//! keyed by the hash of the [`CacheKey`], so concurrent lookups of
//! different queries take different locks and cache-hit throughput
//! scales with cores instead of serializing on one global mutex. Shard
//! placement is pure scheduling — it is derived from the key hash, never
//! fed into noise seeds or result bytes, so the shard count is *not*
//! part of the release fingerprint and can be retuned freely.
//!
//! Stripes and shard maps are hashed with [`KeyHash`], seeded afresh for
//! every cache: a folded multiply per word costs a fraction of SipHash
//! over a canonical text, and since no two caches place keys alike, no
//! analyst can aim texts at one stripe to evict another analyst's answer
//! (whose next request would be charged again).
//!
//! ## Sharing
//!
//! A released answer is allocated once, as the entry's
//! `Arc<CachedAnswer>`; every response carrying it — the computing
//! request's, each coalesced waiter's and each hit's — reads it and its
//! canonical text (the key's `Arc<str>`) through one reply handle, the
//! private `Reply`, which [`Text`], [`Columns`] and [`Rows`] share. So a
//! hit costs the same whatever the answer's size. A miss allocates one
//! handle for its own response and every coalesced waiter's; a memo entry
//! keeps one of its own, so a memo hit counts references only on that
//! handle, which its thread alone uses.
//!
//! ## Single-flight
//!
//! Each shard slot (private `Slot`) is either a `Ready` released answer
//! or a `Pending` in-flight computation carrying the requesters
//! waiting to piggyback on the release. Folding the pending map into the
//! cache shards makes the miss → coalesce → admit decision **one** shard
//! lock acquisition (see [`AnswerCache::admit`]) instead of the two
//! global ones (pending lock + cache lock) it used to take.
//!
//! ## Memory bound
//!
//! Ready entries are byte-accounted (key text + serialized-result size,
//! see [`CachedAnswer::cost_bytes`]) against a per-shard slice of the
//! configured budget, and evicted by CLOCK beyond either the entry-count
//! or the byte bound: a shard keeps its ready keys in a ring, oldest
//! first, and each entry has a `referenced` bit that a hit sets (only
//! when it is clear, so a hot entry's line is not written on every hit).
//! The sweep takes the oldest key; a referenced one has its bit cleared
//! and goes to the back — its second chance — and the first unreferenced
//! one is evicted. So an answer used since the sweep last passed it
//! outlives one that was not, and an eviction is amortized O(1) instead
//! of a scan of the shard. `len`/`bytes`/`evictions` are served from
//! per-shard atomics, so metrics reads never contend with the query path.
//!
//! ## Text memo
//!
//! Beside the cache sits the text memo: exact SQL text → the cache entry
//! its answer was served from, for texts whose answer was already served
//! from the cache. A repeat of such a text needs no key, so the service
//! looks the text up before it parses and, on an answer still cached,
//! skips parse, canonicalize, print and the cache's lock. The memo is
//! striped by thread (`sync::thread_stripe`), not by text: a
//! thread looks up and fills only its own stripe, so a memo hit takes
//! one uncontended lock and reads two flags of the entry — its `live`
//! flag, which the cache clears under its shard lock when it evicts or
//! replaces the entry, and its `referenced` bit — and writes no line
//! another thread's hit reads: the response it builds holds the memo
//! entry's own reply handle, made when this thread memoized the text,
//! and never the shared text's or answer's `Arc`. An entry whose answer
//! left the cache, or that was released at other privacy parameters,
//! still names its canonical text: the service looks that key up in the
//! cache ([`AnswerCache::get`]) and, on a hit, points the entry at the
//! new cache entry. A memo entry holds its answer's `Arc`, so an evicted
//! answer stays allocated until the memo sweeps or refreshes the entry
//! (a stale entry gets no second chance).

use crate::sync::{lock, thread_stripe, THREAD_STRIPES};
use flex_core::PrivacyParams;
use flex_db::{KeyHash, Value};
use std::collections::hash_map::Entry as MapEntry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock, Mutex};

/// Default shard count for [`AnswerCache::new`]: enough stripes that a
/// multi-core cache-hit storm rarely collides on one lock, few enough
/// that per-shard capacity slices stay useful.
pub const DEFAULT_CACHE_SHARDS: usize = 16;

/// Texts each thread's stripe of the service's text memo keeps per
/// answer the cache may hold: room for every cached answer to be reached
/// through this many spellings by every thread.
pub const MEMO_TEXTS_PER_ANSWER: usize = 4;

/// Longest SQL text, and longest canonical text, in bytes, that the
/// service's text memo keeps; a longer one always takes the full parse.
/// With the entry bound this caps each memo stripe at about twice this
/// many bytes of text per entry, plus the answers of the entries whose
/// answer has left the cache.
pub const MEMO_MAX_TEXT_BYTES: usize = 1024;

/// Cache key: canonical SQL text plus exact privacy parameters (the same
/// query at a different ε is a different release).
///
/// The key hashes as one word, a digest of the text and the parameters
/// taken once when the key is built (seeded per process, so no analyst
/// can aim texts at one digest): choosing a shard and finding a slot
/// never reads the text again, and an eviction finds its entry without
/// touching the evicted text. Equal keys have equal digests; equality
/// still compares the text.
#[derive(Debug, Clone)]
pub struct CacheKey {
    canonical_sql: Arc<str>,
    epsilon_bits: u64,
    delta_bits: u64,
    digest: u64,
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &Self) -> bool {
        self.digest == other.digest
            && (self.epsilon_bits, self.delta_bits) == (other.epsilon_bits, other.delta_bits)
            && self.canonical_sql == other.canonical_sql
    }
}

impl Eq for CacheKey {}

impl Hash for CacheKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}

/// The seed of every [`CacheKey`] digest in this process.
static KEY_DIGEST: LazyLock<KeyHash> = LazyLock::new(KeyHash::default);

impl CacheKey {
    /// Key a canonical query at exact (bitwise) privacy parameters.
    pub fn new(canonical_sql: String, params: PrivacyParams) -> Self {
        Self::shared(canonical_sql.into(), params)
    }

    /// Key a canonical text that is already shared (say, by the text
    /// memo), without copying it.
    pub fn shared(canonical_sql: Arc<str>, params: PrivacyParams) -> Self {
        let (epsilon_bits, delta_bits) = (params.epsilon.to_bits(), params.delta.to_bits());
        CacheKey {
            digest: KEY_DIGEST.hash_one((&*canonical_sql, epsilon_bits, delta_bits)),
            canonical_sql,
            epsilon_bits,
            delta_bits,
        }
    }

    /// The canonicalized SQL this key was built from.
    pub fn canonical_sql(&self) -> &str {
        &self.canonical_sql
    }

    /// The canonicalized SQL this key was built from, as the allocation
    /// the key holds.
    pub fn shared_sql(&self) -> &Arc<str> {
        &self.canonical_sql
    }

    /// Bytes this key contributes to an entry's cache cost.
    fn cost_bytes(&self) -> usize {
        self.canonical_sql.len() + 2 * std::mem::size_of::<u64>()
    }

    /// Whether this key is at exactly `params`.
    fn is_at(&self, params: PrivacyParams) -> bool {
        (self.epsilon_bits, self.delta_bits) == (params.epsilon.to_bits(), params.delta.to_bits())
    }
}

/// A released noisy answer.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedAnswer {
    /// Output column names.
    pub columns: Vec<String>,
    /// Noised rows only — label cells pass through, aggregate cells carry
    /// Laplace noise. No true values.
    pub rows: Vec<Vec<Value>>,
    /// Number of joins in the query (telemetry passthrough).
    pub join_count: usize,
}

impl CachedAnswer {
    /// Approximate serialized size of this answer in bytes, used for the
    /// cache's memory accounting: column names, per-row vector overhead
    /// and per-value payload (strings by length, scalars by width).
    pub fn cost_bytes(&self) -> usize {
        let header = std::mem::size_of::<Self>();
        let columns: usize = self
            .columns
            .iter()
            .map(|c| c.len() + std::mem::size_of::<String>())
            .sum();
        let rows: usize = self
            .rows
            .iter()
            .map(|row| {
                std::mem::size_of::<Vec<Value>>()
                    + row
                        .iter()
                        .map(|v| {
                            std::mem::size_of::<Value>()
                                + match v {
                                    Value::Str(s) => s.len(),
                                    _ => 0,
                                }
                        })
                        .sum::<usize>()
            })
            .sum();
        header + columns + rows
    }
}

/// One reply as every response built from it reads it: the canonical
/// text (the cache key's allocation) and the released answer (the cache
/// entry's). Shared, never copied, by the three views of a
/// [`ServiceResponse`](crate::ServiceResponse): a miss makes one for its
/// response and its coalesced waiters, and a memo entry one of its own,
/// so the responses a thread serves from the memo count references on a
/// handle no other thread's hit touches.
#[derive(Debug)]
pub(crate) struct Reply {
    pub(crate) canonical_sql: Arc<str>,
    pub(crate) answer: Arc<CachedAnswer>,
}

impl Reply {
    /// A handle on `answer`, released under the key whose text is
    /// `canonical_sql`.
    pub(crate) fn new(canonical_sql: &Arc<str>, answer: &Arc<CachedAnswer>) -> Arc<Self> {
        Arc::new(Reply {
            canonical_sql: Arc::clone(canonical_sql),
            answer: Arc::clone(answer),
        })
    }
}

/// A field of a released answer, read through the [`Reply`] its response
/// holds (an `Arc` clone, never a copy): compared and printed as the
/// value it derefs to.
macro_rules! reply_view {
    (@view $(#[$doc:meta])* $name:ident: $target:ty = |$reply:ident| $read:expr) => {
        $(#[$doc])*
        #[derive(Clone)]
        pub struct $name(pub(crate) Arc<Reply>);

        impl Deref for $name {
            type Target = $target;
            fn deref(&self) -> &$target {
                let $reply = &*self.0;
                $read
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                (**self).fmt(f)
            }
        }

        impl PartialEq for $name {
            fn eq(&self, other: &Self) -> bool {
                **self == **other
            }
        }
    };
    ($(#[$doc:meta])* $name:ident: [$item:ty] = |$reply:ident| $read:expr) => {
        reply_view! { @view $(#[$doc])* $name: [$item] = |$reply| $read }

        impl<'a> IntoIterator for &'a $name {
            type Item = &'a $item;
            type IntoIter = std::slice::Iter<'a, $item>;
            fn into_iter(self) -> Self::IntoIter {
                self.iter()
            }
        }
    };
    ($(#[$doc:meta])* $name:ident: $target:ty = |$reply:ident| $read:expr) => {
        reply_view! { @view $(#[$doc])* $name: $target = |$reply| $read }
    };
}

reply_view! {
    /// The canonical text a released answer was computed for (also its
    /// cache key), read as `str`.
    Text: str = |r| &r.canonical_sql
}

reply_view! {
    /// The output column names of a released answer, read as `[String]`.
    Columns: [String] = |r| &r.answer.columns
}

reply_view! {
    /// The noised rows of a released answer, read as `[Vec<Value>]`. Two
    /// responses for one release point at the same rows (`std::ptr::eq`).
    Rows: [Vec<Value>] = |r| &r.answer.rows
}

impl std::fmt::Display for Text {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self)
    }
}

/// The text serializes as the string it reads as.
impl serde_json::ToJson for Text {
    fn to_json(&self) -> serde_json::Value {
        (**self).to_json()
    }
}

/// Column names serialize as the array of names they read as.
impl serde_json::ToJson for Columns {
    fn to_json(&self) -> serde_json::Value {
        (**self).to_json()
    }
}

/// Outcome of [`AnswerCache::admit`] — the one-lock miss/coalesce/admit
/// decision for a submitted query.
#[derive(Debug)]
pub enum Admission<C, E> {
    /// The key holds a released answer: serve it, zero budget.
    Hit(Released),
    /// An identical computation is in flight; the caller's waiter was
    /// parked on it and will be handed the release (or its failure).
    Coalesced,
    /// No entry and nothing in flight: the admission closure succeeded
    /// (carrying e.g. a budget [`crate::ledger::Charge`]) and a pending
    /// slot now marks this computation as in flight. The caller **must**
    /// eventually call [`AnswerCache::complete`] or [`AnswerCache::fail`]
    /// for the key, or later identical requests will coalesce forever.
    Admitted(C),
    /// No entry and nothing in flight, but the admission closure refused
    /// (e.g. budget rejection); nothing was recorded.
    Rejected(E),
}

/// The flags a ready entry shares with the memo entries that point at
/// it.
#[derive(Debug)]
struct EntryFlags {
    /// Set while the entry is in the cache; cleared under its shard lock
    /// when the entry is evicted or replaced. A hit that races the
    /// eviction may serve the answer once more: it was released, so that
    /// is still free post-processing.
    live: AtomicBool,
    /// The CLOCK bit: set by a hit, cleared by the sweep that passes it.
    referenced: AtomicBool,
}

impl EntryFlags {
    /// Whether the entry is still in the cache.
    fn is_live(&self) -> bool {
        self.live.load(Ordering::Relaxed)
    }

    /// Mark the entry used since the sweep last passed it. The bit is
    /// written only when clear, so hits on a hot entry write nothing.
    fn touch(&self) {
        if !self.referenced.load(Ordering::Relaxed) {
            self.referenced.store(true, Ordering::Relaxed);
        }
    }
}

/// A released answer as a ready entry holds it, handed out by a hit:
/// reads as the [`CachedAnswer`], and carries the entry's flags, so the
/// text memo can point at the entry and tell when it leaves the cache.
#[derive(Debug, Clone)]
pub struct Released {
    answer: Arc<CachedAnswer>,
    flags: Arc<EntryFlags>,
}

impl Released {
    fn new(answer: Arc<CachedAnswer>) -> Self {
        let flags = EntryFlags {
            live: AtomicBool::new(true),
            referenced: AtomicBool::new(false),
        };
        Released {
            answer,
            flags: Arc::new(flags),
        }
    }

    /// The answer, as the one allocation every response shares.
    pub fn answer(&self) -> &Arc<CachedAnswer> {
        &self.answer
    }
}

impl Deref for Released {
    type Target = CachedAnswer;
    fn deref(&self) -> &CachedAnswer {
        &self.answer
    }
}

#[derive(Debug)]
struct Entry {
    hit: Released,
    /// Byte cost (key + answer) charged against the shard's budget.
    cost: usize,
}

/// Entries taken out under a shard lock, dropped once it is released:
/// freeing an answer's rows holds no lock. The first needs no
/// allocation; a sweep rarely evicts more than one.
#[derive(Default)]
struct Evicted {
    first: Option<Entry>,
    rest: Vec<Entry>,
}

impl Evicted {
    fn push(&mut self, e: Entry) {
        match self.first {
            None => self.first = Some(e),
            Some(_) => self.rest.push(e),
        }
    }
}

/// One shard slot: a released answer, or an in-flight computation with
/// its piggybacking waiters. Pending slots are never evicted and never
/// byte-accounted — they are bounded by in-flight computations, not by
/// cache capacity.
#[derive(Debug)]
enum Slot<W> {
    Ready(Entry),
    Pending(Vec<W>),
}

#[derive(Debug)]
struct ShardInner<W> {
    map: HashMap<CacheKey, Slot<W>, KeyHash>,
    /// The keys of the ready entries, oldest first: the CLOCK sweep
    /// takes the front.
    ring: VecDeque<CacheKey>,
}

impl<W> Default for ShardInner<W> {
    fn default() -> Self {
        ShardInner {
            map: HashMap::default(),
            ring: VecDeque::new(),
        }
    }
}

#[derive(Debug)]
struct Shard<W> {
    inner: Mutex<ShardInner<W>>,
    /// Ready entries in this shard (mirrors the map, readable lock-free).
    len: AtomicUsize,
    /// Byte cost of the ready entries (readable lock-free).
    bytes: AtomicUsize,
    /// Entries evicted by the count or byte bound since construction.
    evictions: AtomicU64,
}

impl<W> Default for Shard<W> {
    fn default() -> Self {
        Shard {
            inner: Mutex::new(ShardInner::default()),
            len: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
            evictions: AtomicU64::new(0),
        }
    }
}

/// A sharded, bounded, thread-safe CLOCK map from canonical queries to
/// released answers, with built-in single-flight coalescing (see the
/// module docs). `W` is the caller's waiter handle type parked on
/// in-flight computations; plain cache users can leave it at `()`.
#[derive(Debug)]
pub struct AnswerCache<W = ()> {
    shards: Box<[Shard<W>]>,
    /// Chooses a key's shard; seeded per cache.
    stripes: KeyHash,
    /// Max ready entries per shard (total capacity / shard count).
    capacity_per_shard: usize,
    /// Max ready-entry bytes per shard (0 = unbounded).
    max_bytes_per_shard: usize,
    /// Total entry capacity; 0 disables ready storage entirely (pending
    /// slots still coalesce).
    capacity: usize,
}

impl<W> AnswerCache<W> {
    /// A cache holding at most `capacity` answers across
    /// [`DEFAULT_CACHE_SHARDS`] shards with no byte bound
    /// (`capacity = 0` is legal and caches nothing).
    pub fn new(capacity: usize) -> Self {
        Self::with_config(capacity, 0, DEFAULT_CACHE_SHARDS)
    }

    /// A cache with explicit entry capacity, total byte budget
    /// (`max_bytes = 0` = unbounded) and shard count (clamped to ≥ 1).
    /// Both bounds are split evenly across shards.
    pub fn with_config(capacity: usize, max_bytes: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        AnswerCache {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            stripes: KeyHash::default(),
            capacity_per_shard: capacity.div_ceil(shards).max(usize::from(capacity > 0)),
            max_bytes_per_shard: max_bytes.div_ceil(shards),
            capacity,
        }
    }

    /// Number of lock stripes.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The index of `key`'s shard.
    fn stripe(&self, key: &CacheKey) -> usize {
        (self.stripes.hash_one(key) as usize) % self.shards.len()
    }

    fn shard_for(&self, key: &CacheKey) -> &Shard<W> {
        &self.shards[self.stripe(key)]
    }

    /// Look up a released answer, marking it used. In-flight (pending)
    /// keys read as a miss — use [`AnswerCache::admit`] to coalesce onto
    /// them.
    pub fn get(&self, key: &CacheKey) -> Option<Released> {
        let inner = lock(&self.shard_for(key).inner);
        match inner.map.get(key) {
            Some(Slot::Ready(e)) => {
                e.hit.flags.touch();
                Some(e.hit.clone())
            }
            _ => None,
        }
    }

    /// The one-lock hot-path decision for a submitted query: under a
    /// single shard-lock acquisition, either serve a released answer
    /// ([`Admission::Hit`]), park `waiter` on an identical in-flight
    /// computation ([`Admission::Coalesced`]), or run `admit` (typically
    /// budget admission control) and — on success — mark the computation
    /// in flight ([`Admission::Admitted`]).
    ///
    /// `admit` runs while the shard lock is held, so its success and the
    /// pending-slot insertion are atomic: concurrent identical
    /// submissions can never each charge budget for the same release.
    /// Lock ordering: the cache shard lock is taken **before** any
    /// ledger shard lock, never the reverse.
    pub fn admit<C, E>(
        &self,
        key: &CacheKey,
        waiter: impl FnOnce() -> W,
        admit: impl FnOnce() -> Result<C, E>,
    ) -> Admission<C, E> {
        let mut inner = lock(&self.shard_for(key).inner);
        // One lookup decides, and a miss inserts where it looked.
        match inner.map.entry(key.clone()) {
            MapEntry::Occupied(mut slot) => match slot.get_mut() {
                Slot::Ready(e) => {
                    e.hit.flags.touch();
                    Admission::Hit(e.hit.clone())
                }
                Slot::Pending(waiters) => {
                    waiters.push(waiter());
                    Admission::Coalesced
                }
            },
            MapEntry::Vacant(slot) => match admit() {
                Ok(c) => {
                    slot.insert(Slot::Pending(Vec::new()));
                    Admission::Admitted(c)
                }
                Err(e) => Admission::Rejected(e),
            },
        }
    }

    /// Publish a released answer for `key` and return the waiters parked
    /// on its pending slot, all under one shard-lock acquisition — at no
    /// instant can a concurrent [`AnswerCache::admit`] see the key in
    /// neither state, so exactly one computation is ever paid for.
    /// Evicts ready entries by CLOCK beyond the shard's entry or byte
    /// budget (the sweep passes only the older entries, so the freshly
    /// published answer survives unless it alone exceeds the shard byte
    /// budget). An answer passed as an `Arc` is stored as that
    /// allocation.
    pub fn complete(&self, key: CacheKey, answer: impl Into<Arc<CachedAnswer>>) -> Vec<W> {
        let answer = answer.into();
        let shard = self.shard_for(&key);
        if self.capacity == 0 {
            return match lock(&shard.inner).map.remove(&key) {
                Some(Slot::Pending(waiters)) => waiters,
                _ => Vec::new(),
            };
        }
        let cost = key.cost_bytes() + answer.cost_bytes();
        let ready = Slot::Ready(Entry {
            hit: Released::new(answer),
            cost,
        });
        // What leaves the cache is freed after the lock is released.
        let mut evicted = Evicted::default();
        let mut inner = lock(&shard.inner);
        // The slot is replaced where it sits: the map keeps the key it
        // already holds, and `key` is only inserted when there is none.
        let (waiters, fresh) = match inner.map.get_mut(&key) {
            Some(slot) => match std::mem::replace(slot, ready) {
                Slot::Pending(waiters) => (waiters, true),
                Slot::Ready(e) => {
                    // Re-publishing over a ready entry (e.g. plain
                    // `insert`): retire the old entry first; the key
                    // keeps its place in the ring.
                    e.hit.flags.live.store(false, Ordering::Relaxed);
                    shard.len.fetch_sub(1, Ordering::Relaxed);
                    shard.bytes.fetch_sub(e.cost, Ordering::Relaxed);
                    evicted.push(e);
                    (Vec::new(), false)
                }
            },
            None => {
                inner.map.insert(key.clone(), ready);
                (Vec::new(), true)
            }
        };
        shard.len.fetch_add(1, Ordering::Relaxed);
        shard.bytes.fetch_add(cost, Ordering::Relaxed);
        self.evict_over_budget(shard, &mut inner, &mut evicted);
        // A fresh key joins the ring after the sweep, so the sweep never
        // takes it unless it alone exceeds the budget.
        if fresh {
            if self.over_budget(shard) {
                if let Some(Slot::Ready(e)) = inner.map.remove(&key) {
                    Self::evicted(shard, e, &mut evicted);
                }
            } else {
                inner.ring.push_back(key);
            }
        }
        drop(inner);
        drop(evicted);
        waiters
    }

    /// Drop the pending slot for a failed computation and return its
    /// waiters (so they can be handed the failure). A no-op for ready or
    /// absent keys.
    pub fn fail(&self, key: &CacheKey) -> Vec<W> {
        let shard = self.shard_for(key);
        let mut inner = lock(&shard.inner);
        match inner.map.get(key) {
            Some(Slot::Pending(_)) => match inner.map.remove(key) {
                Some(Slot::Pending(waiters)) => waiters,
                _ => unreachable!("slot changed under the shard lock"),
            },
            _ => Vec::new(),
        }
    }

    /// Whether the shard holds more ready entries, or bytes, than its
    /// budget.
    fn over_budget(&self, shard: &Shard<W>) -> bool {
        let bytes = shard.bytes.load(Ordering::Relaxed);
        shard.len.load(Ordering::Relaxed) > self.capacity_per_shard
            || (self.max_bytes_per_shard > 0 && bytes > self.max_bytes_per_shard)
    }

    /// Sweep the ring until the shard is within both budgets: the oldest
    /// key, if referenced since the sweep last passed it, has its bit
    /// cleared and goes to the back; otherwise it is evicted (one map
    /// lookup either way). A key is passed over once per bit a hit set,
    /// so an eviction is amortized O(1).
    fn evict_over_budget(
        &self,
        shard: &Shard<W>,
        inner: &mut ShardInner<W>,
        evicted: &mut Evicted,
    ) {
        while self.over_budget(shard) {
            let Some(key) = inner.ring.pop_front() else {
                return;
            };
            let MapEntry::Occupied(slot) = inner.map.entry(key) else {
                unreachable!("the ring holds the ready keys");
            };
            let Slot::Ready(e) = slot.get() else {
                unreachable!("the ring holds the ready keys");
            };
            if e.hit.flags.referenced.swap(false, Ordering::Relaxed) {
                inner.ring.push_back(slot.key().clone());
            } else if let Slot::Ready(e) = slot.remove() {
                Self::evicted(shard, e, evicted);
            }
        }
    }

    /// Account for a ready entry taken out of the map by the count or byte
    /// bound, clear its `live` flag, and hold it for dropping after the
    /// lock.
    fn evicted(shard: &Shard<W>, e: Entry, evicted: &mut Evicted) {
        e.hit.flags.live.store(false, Ordering::Relaxed);
        shard.len.fetch_sub(1, Ordering::Relaxed);
        shard.bytes.fetch_sub(e.cost, Ordering::Relaxed);
        shard.evictions.fetch_add(1, Ordering::Relaxed);
        evicted.push(e);
    }

    /// Store a released answer directly (no single-flight bookkeeping),
    /// evicting entries by CLOCK beyond the shard budgets.
    pub fn insert(&self, key: CacheKey, answer: CachedAnswer) {
        let _ = self.complete(key, answer);
    }

    /// Number of cached (ready) answers, from per-shard atomics — never
    /// takes a shard lock, so metrics reads cannot contend with the
    /// query path.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.len.load(Ordering::Relaxed))
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Byte cost of all cached answers, from per-shard atomics (lock-free).
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.bytes.load(Ordering::Relaxed))
            .sum()
    }

    /// Entries evicted by the count or byte bound since construction,
    /// from per-shard atomics (lock-free).
    pub fn evictions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.evictions.load(Ordering::Relaxed))
            .sum()
    }
}

/// One memoized text: the key its answer was released under, the flags
/// of the cache entry holding that answer, and the stripe's own reply
/// handle on it.
#[derive(Debug)]
struct MemoEntry {
    /// The canonical text (shared with the cache key) at the privacy
    /// parameters of the release.
    key: CacheKey,
    flags: Arc<EntryFlags>,
    /// What every response served from this entry holds.
    reply: Arc<Reply>,
    /// The stripe's own CLOCK bit: the stripe is one thread's, so a hit
    /// writes it without touching a shared line.
    referenced: bool,
}

/// One thread's stripe of the memo.
#[derive(Debug, Default)]
struct MemoTexts {
    map: HashMap<Arc<str>, MemoEntry, KeyHash>,
    /// The texts, oldest first: the CLOCK sweep takes the front.
    ring: VecDeque<Arc<str>>,
}

impl MemoTexts {
    /// Evict one text by CLOCK, as the cache does; a text whose answer
    /// has left the cache gets no second chance.
    fn evict_one(&mut self) {
        while let Some(text) = self.ring.pop_front() {
            let entry = (self.map.get_mut(&text)).expect("the ring holds the memoized texts");
            if std::mem::take(&mut entry.referenced) && entry.flags.is_live() {
                self.ring.push_back(text);
            } else {
                self.map.remove(&text);
                return;
            }
        }
    }
}

/// A stripe on lines of its own, so two threads' stripes never share one
/// (two 64-byte lines: x86 fetches them in adjacent pairs).
#[derive(Debug, Default)]
#[repr(align(128))]
struct MemoStripe(Mutex<MemoTexts>);

/// What the memo knows of a text, at some privacy parameters.
#[derive(Debug)]
pub(crate) enum Memoized {
    /// Its answer, still in the cache: serve it through the stripe's
    /// own handle.
    Hit(Arc<Reply>),
    /// Its cache key at these parameters, but no live answer for them:
    /// look the key up in the cache.
    Key(CacheKey),
    /// Nothing: take the full path.
    Unknown,
}

/// A bounded, thread-safe map from exact SQL text to the cache entry its
/// answer was served from, one stripe per thread (see the module docs).
/// Keys are compared by their full text, never by hash alone; texts or
/// canonical texts longer than [`MEMO_MAX_TEXT_BYTES`] are never kept.
#[derive(Debug)]
pub(crate) struct TextMemo {
    stripes: Box<[MemoStripe]>,
    /// Max texts per stripe; 0 disables the memo.
    capacity_per_stripe: usize,
}

impl TextMemo {
    /// A memo for a cache of `cache_capacity` answers: each thread's
    /// stripe keeps at most [`MEMO_TEXTS_PER_ANSWER`] texts per answer.
    /// `cache_capacity = 0` keeps nothing.
    pub(crate) fn new(cache_capacity: usize) -> Self {
        TextMemo {
            stripes: (0..THREAD_STRIPES).map(|_| MemoStripe::default()).collect(),
            capacity_per_stripe: cache_capacity.saturating_mul(MEMO_TEXTS_PER_ANSWER),
        }
    }

    /// Whether `sql` is a text the memo could keep.
    fn keeps(&self, sql: &str) -> bool {
        self.capacity_per_stripe > 0 && sql.len() <= MEMO_MAX_TEXT_BYTES
    }

    /// The calling thread's stripe.
    fn mine(&self) -> std::sync::MutexGuard<'_, MemoTexts> {
        lock(&self.stripes[thread_stripe()].0)
    }

    /// What the calling thread's stripe knows of `sql` at `params`. A hit
    /// reads the cache entry's two flags and writes only this stripe.
    pub(crate) fn get(&self, sql: &str, params: PrivacyParams) -> Memoized {
        if !self.keeps(sql) {
            return Memoized::Unknown;
        }
        let mut texts = self.mine();
        let Some(entry) = texts.map.get_mut(sql) else {
            return Memoized::Unknown;
        };
        if entry.key.is_at(params) && entry.flags.is_live() {
            entry.flags.touch();
            entry.referenced = true;
            return Memoized::Hit(Arc::clone(&entry.reply));
        }
        Memoized::Key(CacheKey::shared(Arc::clone(entry.key.shared_sql()), params))
    }

    /// Remember, in the calling thread's stripe, that `sql` was served
    /// `hit` under `key` (the canonical text kept as the key's
    /// allocation), and return the reply handle to serve it with: the
    /// stripe's new one, or a fresh one for a text the memo does not
    /// keep. A text already there is pointed at `hit`; past the stripe's
    /// bound the sweep evicts a text.
    pub(crate) fn insert(&self, sql: &str, key: &CacheKey, hit: &Released) -> Arc<Reply> {
        let reply = Reply::new(key.shared_sql(), hit.answer());
        if !self.keeps(sql) || key.canonical_sql().len() > MEMO_MAX_TEXT_BYTES {
            return reply;
        }
        let mut texts = self.mine();
        let entry = MemoEntry {
            key: key.clone(),
            flags: Arc::clone(&hit.flags),
            reply: Arc::clone(&reply),
            referenced: false,
        };
        if let Some(old) = texts.map.get_mut(sql) {
            *old = MemoEntry {
                referenced: true,
                ..entry
            };
            return reply;
        }
        if texts.map.len() >= self.capacity_per_stripe {
            texts.evict_one();
        }
        let text: Arc<str> = sql.into();
        texts.ring.push_back(Arc::clone(&text));
        texts.map.insert(text, entry);
        reply
    }

    /// Texts held, across all stripes.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.stripes.iter().map(|s| lock(&s.0).map.len()).sum()
    }

    /// The most texts one stripe holds.
    #[cfg(test)]
    pub(crate) fn bound(&self) -> usize {
        self.capacity_per_stripe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(eps: f64) -> PrivacyParams {
        PrivacyParams::new(eps, 1e-8).unwrap()
    }

    fn answer(v: i64) -> CachedAnswer {
        CachedAnswer {
            columns: vec!["count".to_string()],
            rows: vec![vec![Value::Int(v)]],
            join_count: 0,
        }
    }

    /// A single-shard cache so CLOCK order is observable deterministically.
    fn striped(capacity: usize) -> AnswerCache {
        AnswerCache::with_config(capacity, 0, 1)
    }

    #[test]
    fn hit_and_miss() {
        let cache: AnswerCache = AnswerCache::new(8);
        let k1 = CacheKey::new("SELECT 1".into(), params(1.0));
        assert!(cache.get(&k1).is_none());
        cache.insert(k1.clone(), answer(1));
        assert_eq!(*cache.get(&k1).unwrap(), answer(1));
        // Same SQL at a different epsilon is a different release.
        let k2 = CacheKey::new("SELECT 1".into(), params(0.5));
        assert!(cache.get(&k2).is_none());
    }

    /// An answer used since the sweep last passed it outlives one that
    /// was not; the sweep clears the bit, so without another use it is
    /// the next to go.
    #[test]
    fn clock_eviction_prefers_unreferenced_entries() {
        let cache = striped(2);
        let key = |s: &str| CacheKey::new(s.into(), params(1.0));
        cache.insert(key("a"), answer(1));
        cache.insert(key("b"), answer(2));
        cache.get(&key("a")); // `a` is referenced, `b` is not
        cache.insert(key("c"), answer(3));
        assert_eq!((cache.len(), cache.evictions()), (2, 1));
        // The sweep gave `a` its second chance and cleared its bit.
        cache.insert(key("d"), answer(4));
        assert_eq!((cache.len(), cache.evictions()), (2, 2));
        assert!(cache.get(&key("a")).is_none());
        assert!(cache.get(&key("b")).is_none());
        assert!(cache.get(&key("c")).is_some());
        assert!(cache.get(&key("d")).is_some());
    }

    /// A hit's answer knows whether its entry is still cached: eviction
    /// and replacement both retire it.
    #[test]
    fn evicted_and_replaced_entries_are_not_live() {
        let cache = striped(1);
        let (ka, kb) = (
            CacheKey::new("a".into(), params(1.0)),
            CacheKey::new("b".into(), params(1.0)),
        );
        cache.insert(ka.clone(), answer(1));
        let first = cache.get(&ka).unwrap();
        assert!(first.flags.is_live());
        cache.insert(ka.clone(), answer(2));
        let second = cache.get(&ka).unwrap();
        assert!(!first.flags.is_live() && second.flags.is_live());
        cache.insert(kb.clone(), answer(3));
        assert!(!second.flags.is_live());
        assert!(cache.get(&kb).unwrap().flags.is_live());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache: AnswerCache = AnswerCache::new(0);
        let k = CacheKey::new("a".into(), params(1.0));
        cache.insert(k.clone(), answer(1));
        assert!(cache.is_empty());
        assert!(cache.get(&k).is_none());
        assert_eq!(cache.bytes(), 0);
    }

    /// The byte bound evicts by CLOCK even when the entry count is within
    /// capacity, and the byte gauge tracks exactly the live entries.
    #[test]
    fn byte_bound_evicts_by_clock() {
        let a = answer(1);
        let key_of = |s: &str| CacheKey::new(s.to_string(), params(1.0));
        let unit = key_of("q0").cost_bytes() + a.cost_bytes();
        // Room for two entries, not three.
        let cache = AnswerCache::<()>::with_config(1024, 2 * unit + unit / 2, 1);
        cache.insert(key_of("q0"), answer(1));
        cache.insert(key_of("q1"), answer(2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.bytes(), 2 * unit);
        cache.get(&key_of("q0")); // q1 is the one not referenced
        cache.insert(key_of("q2"), answer(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key_of("q0")).is_some());
        assert!(
            cache.get(&key_of("q1")).is_none(),
            "unreferenced entry evicted"
        );
        assert!(cache.get(&key_of("q2")).is_some());
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.bytes(), 2 * unit);
    }

    /// admit() resolves hit / coalesce / admit / reject under one lock,
    /// and complete()/fail() hand back exactly the parked waiters.
    #[test]
    fn single_flight_lifecycle() {
        let cache: AnswerCache<u32> = AnswerCache::new(8);
        let k = CacheKey::new("q".into(), params(1.0));

        // First requester is admitted (the admit closure runs).
        match cache.admit(&k, || 1, || Ok::<_, ()>("charge")) {
            Admission::Admitted(c) => assert_eq!(c, "charge"),
            other => panic!("expected Admitted, got {other:?}"),
        }
        // Identical requests coalesce; the admit closure must NOT run.
        for w in [2u32, 3] {
            match cache.admit(
                &k,
                || w,
                || -> Result<&str, ()> { panic!("admission must not run for a coalesced request") },
            ) {
                Admission::Coalesced => {}
                other => panic!("expected Coalesced, got {other:?}"),
            }
        }
        // Completion publishes the answer and returns the two waiters.
        let waiters = cache.complete(k.clone(), answer(9));
        assert_eq!(waiters, vec![2, 3]);
        // Later requests hit.
        match cache.admit(&k, || 4, || Ok::<_, ()>("unused")) {
            Admission::Hit(a) => assert_eq!(*a, answer(9)),
            other => panic!("expected Hit, got {other:?}"),
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn failed_flight_releases_waiters_and_clears_slot() {
        let cache: AnswerCache<u32> = AnswerCache::new(8);
        let k = CacheKey::new("q".into(), params(1.0));
        assert!(matches!(
            cache.admit(&k, || 0, || Ok::<_, ()>(())),
            Admission::Admitted(())
        ));
        assert!(matches!(
            cache.admit(&k, || 7, || Err::<(), _>("no")),
            Admission::Coalesced
        ));
        assert_eq!(cache.fail(&k), vec![7]);
        assert!(cache.get(&k).is_none());
        // The slot is free again: a retry is admitted, not coalesced.
        assert!(matches!(
            cache.admit(&k, || 0, || Ok::<_, ()>(())),
            Admission::Admitted(())
        ));
    }

    #[test]
    fn rejected_admission_records_nothing() {
        let cache: AnswerCache<u32> = AnswerCache::new(8);
        let k = CacheKey::new("q".into(), params(1.0));
        match cache.admit(&k, || 0, || Err::<(), _>("over budget")) {
            Admission::Rejected(e) => assert_eq!(e, "over budget"),
            other => panic!("expected Rejected, got {other:?}"),
        }
        // Nothing pending: the next request is admitted, not coalesced.
        assert!(matches!(
            cache.admit(&k, || 0, || Ok::<_, ()>(())),
            Admission::Admitted(())
        ));
    }

    /// Pending slots survive eviction pressure (they are not ready
    /// entries) and zero capacity (single-flight still coalesces).
    #[test]
    fn pending_slots_are_never_evicted() {
        let cache: AnswerCache<u32> = AnswerCache::with_config(1, 0, 1);
        let inflight = CacheKey::new("inflight".into(), params(1.0));
        assert!(matches!(
            cache.admit(&inflight, || 0, || Ok::<_, ()>(())),
            Admission::Admitted(())
        ));
        // Churn enough ready entries through the 1-entry shard to evict
        // everything evictable.
        for i in 0..8 {
            cache.insert(CacheKey::new(format!("q{i}"), params(1.0)), answer(i));
        }
        assert_eq!(cache.len(), 1, "capacity 1 shard holds one ready entry");
        // The pending slot is still there: identical requests coalesce.
        assert!(matches!(
            cache.admit(&inflight, || 9, || Ok::<_, ()>(())),
            Admission::Coalesced
        ));
        assert_eq!(cache.complete(inflight, answer(0)), vec![9]);

        // And with capacity 0: no ready storage, but coalescing works.
        let disabled: AnswerCache<u32> = AnswerCache::with_config(0, 0, 4);
        let k = CacheKey::new("q".into(), params(1.0));
        assert!(matches!(
            disabled.admit(&k, || 0, || Ok::<_, ()>(())),
            Admission::Admitted(())
        ));
        assert!(matches!(
            disabled.admit(&k, || 5, || Ok::<_, ()>(())),
            Admission::Coalesced
        ));
        assert_eq!(disabled.complete(k.clone(), answer(1)), vec![5]);
        assert!(disabled.get(&k).is_none(), "nothing stored at capacity 0");
    }

    /// Shard count is invisible to cache semantics: the same operation
    /// sequence yields the same hits/misses at 1, 4 and 16 shards when
    /// capacity is not the binding constraint.
    #[test]
    fn shard_count_does_not_change_observable_state() {
        for shards in [1, 4, 16] {
            // Capacity is split per shard, so give every shard headroom
            // for the worst-case placement of all 32 keys.
            let cache = AnswerCache::<()>::with_config(512 * shards, 0, shards);
            assert_eq!(cache.shards(), shards);
            let keys: Vec<CacheKey> = (0..32)
                .map(|i| CacheKey::new(format!("SELECT {i}"), params(1.0)))
                .collect();
            for (i, k) in keys.iter().enumerate() {
                cache.insert(k.clone(), answer(i as i64));
            }
            for (i, k) in keys.iter().enumerate() {
                assert_eq!(
                    *cache.get(k).unwrap(),
                    answer(i as i64),
                    "shards = {shards}"
                );
            }
            assert_eq!(cache.len(), 32, "shards = {shards}");
            assert_eq!(cache.evictions(), 0, "shards = {shards}");
        }
    }

    /// The lock-free gauges agree with the locked map contents.
    #[test]
    fn gauges_track_contents() {
        let cache: AnswerCache = AnswerCache::new(64);
        assert_eq!((cache.len(), cache.bytes(), cache.evictions()), (0, 0, 0));
        let k = CacheKey::new("SELECT COUNT(*) FROM t".into(), params(0.5));
        let a = answer(42);
        let expect = k.cost_bytes() + a.cost_bytes();
        cache.insert(k.clone(), a);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), expect);
        // Re-inserting the same key replaces, not duplicates, the cost.
        cache.insert(k, answer(43));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), expect);
    }

    /// Stripes are chosen by a hash seeded per cache: two caches spread
    /// the same keys differently, so no text can be aimed at one stripe
    /// (filling it would evict another analyst's answer, and that
    /// analyst's next request would be charged again). Unseeded, every
    /// cache would place all 256 keys alike. (The memo is striped by
    /// thread, so no text chooses its stripe.)
    #[test]
    fn stripes_are_seeded_per_cache() {
        let keys: Vec<CacheKey> = (0..256)
            .map(|i| CacheKey::new(format!("SELECT {i}"), params(1.0)))
            .collect();
        let stripes = |c: &AnswerCache| keys.iter().map(|k| c.stripe(k)).collect::<Vec<_>>();
        let caches = [AnswerCache::new(1), AnswerCache::new(1)];
        assert_ne!(stripes(&caches[0]), stripes(&caches[1]));
        // And each spreads them: every stripe gets some of the 256.
        let mut used = [false; DEFAULT_CACHE_SHARDS];
        stripes(&caches[0]).iter().for_each(|&s| used[s] = true);
        assert!(used.iter().all(|&u| u), "{used:?}");
    }

    /// Memoize `sql` → `canonical` at ε = 1 in the calling thread's
    /// stripe, pointing at a live answer of its own.
    fn memoize(memo: &TextMemo, sql: &str, canonical: &str) {
        let key = CacheKey::new(canonical.to_string(), params(1.0));
        memo.insert(sql, &key, &Released::new(Arc::new(answer(0))));
    }

    /// The canonical text the calling thread's stripe serves `sql` as at
    /// ε = 1, if it serves a hit.
    fn served(memo: &TextMemo, sql: &str) -> Option<String> {
        match memo.get(sql, params(1.0)) {
            Memoized::Hit(reply) => Some(reply.canonical_sql.to_string()),
            _ => None,
        }
    }

    #[test]
    fn memo_maps_exact_text_and_evicts_by_clock() {
        // Capacity 1 answer × 4 texts per stripe.
        let memo = TextMemo::new(1);
        assert_eq!(memo.bound(), MEMO_TEXTS_PER_ANSWER);
        for i in 0..4 {
            memoize(&memo, &format!("select {i}"), &format!("SELECT {i}"));
        }
        assert_eq!(served(&memo, "select 0").as_deref(), Some("SELECT 0"));
        // By full text: a prefix, a case change or a trailing space is
        // another text.
        for other in ["select ", "SELECT 0", "select 0 "] {
            assert!(
                matches!(memo.get(other, params(1.0)), Memoized::Unknown),
                "{other:?}"
            );
        }
        // `select 0` was used since it was memoized, `select 1` was not.
        memoize(&memo, "select 4", "SELECT 4");
        assert_eq!(memo.len(), 4);
        assert_eq!(served(&memo, "select 1"), None);
        assert_eq!(served(&memo, "select 0").as_deref(), Some("SELECT 0"));
        assert_eq!(served(&memo, "select 4").as_deref(), Some("SELECT 4"));
    }

    /// The length bound holds for the canonical text too, and a text of
    /// exactly the bound is kept.
    #[test]
    fn memo_length_bound_covers_both_texts() {
        let memo = TextMemo::new(8);
        memoize(&memo, "select 1", &"x".repeat(MEMO_MAX_TEXT_BYTES + 1));
        assert_eq!(memo.len(), 0);
        let fits = format!("select 1{}", " ".repeat(MEMO_MAX_TEXT_BYTES - 8));
        memoize(&memo, &fits, "SELECT 1");
        assert_eq!(served(&memo, &fits).as_deref(), Some("SELECT 1"));
    }

    /// A memo entry points at the cache entry: once the cache evicts it,
    /// or at other params, the memo hands back the key instead of the
    /// answer.
    #[test]
    fn a_memo_entry_goes_stale_with_its_cache_entry() {
        let cache = striped(1);
        let memo = TextMemo::new(1);
        let key = CacheKey::new("SELECT 1".into(), params(1.0));
        cache.insert(key.clone(), answer(1));
        memo.insert("select 1", &key, &cache.get(&key).unwrap());
        match memo.get("select 1", params(1.0)) {
            Memoized::Hit(reply) => assert_eq!(*reply.answer, answer(1)),
            other => panic!("expected a hit, got {other:?}"),
        }
        let at_half = CacheKey::new("SELECT 1".into(), params(0.5));
        assert!(matches!(memo.get("select 1", params(0.5)), Memoized::Key(k) if k == at_half));
        cache.insert(CacheKey::new("SELECT 2".into(), params(1.0)), answer(2));
        assert!(matches!(memo.get("select 1", params(1.0)), Memoized::Key(k) if k == key));
    }

    /// Each thread fills its own stripe, and a flood of texts keeps every
    /// stripe within its bound while the texts a thread keeps hitting
    /// stay.
    #[test]
    fn a_text_flood_keeps_each_memo_stripe_within_its_bound() {
        let memo = TextMemo::new(2);
        let bound = memo.bound();
        std::thread::scope(|scope| {
            for t in 0..2 {
                let memo = &memo;
                scope.spawn(move || {
                    let hot = format!("hot {t}");
                    memoize(memo, &hot, "SELECT 0");
                    let mine = || lock(&memo.stripes[thread_stripe()].0).map.len();
                    for i in 0..20 * bound {
                        memoize(memo, &format!("flood {t} {i}"), "SELECT 1");
                        assert!(mine() <= bound);
                        assert!(served(memo, &hot).is_some(), "the hot text was evicted");
                    }
                    assert_eq!(mine(), bound);
                });
            }
        });
        assert!(memo.len() <= 2 * bound);
    }
}
