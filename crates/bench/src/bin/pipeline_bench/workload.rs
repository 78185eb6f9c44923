//! The four traffic mixes and their request streams.
//!
//! A stream is a pure function of `(seed, client id)`: it is rendered to
//! SQL text before the clock starts and the service sees nothing else.
//! Shapes follow `flex_workloads::uber::workload` (city × window filter
//! counts, the public-city histogram, `trips ⋈ drivers`) and Table 5's
//! Q1 (`trips ⋈ drivers ⋈ cities`); the literals are drawn here so a
//! workload can make every request fresh or make requests repeat.

use flex_workloads::uber::{date_2016, UberConfig};
use flex_workloads::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a workload picks its next query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reuse {
    /// A fixed pool of canonical queries, Zipf-selected, each request
    /// rendered as one of [`VARIANTS`] textual variants.
    Pool(usize),
    /// Every request carries a literal no other request has.
    Fresh,
}

/// One traffic mix: data size, analyst population, reuse and durability.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub trips: usize,
    pub drivers: usize,
    pub riders: usize,
    pub user_tags: usize,
    pub analysts: usize,
    pub reuse: Reuse,
    /// Ledger writes through a WAL with `FsyncPolicy::Always`.
    pub wal: bool,
    /// Requests of client 0 replayed by the serial and traced passes.
    pub serial_k: usize,
    /// Requests rendered per client; a client that outruns them wraps.
    /// For `Fresh` workloads this is far above the cache's 1024 entries,
    /// so a wrapped request is evicted long before it comes round again.
    pub seq_len: usize,
}

/// Textual variants of one query: lower-case keywords, extra whitespace,
/// swapped `=` operands, reversed `AND` conjuncts.
pub const VARIANTS: usize = 4;

/// Analyst and query skew (both Zipf) on every workload.
const ZIPF_S: f64 = 1.1;

/// Largest client count a stream is defined for; fresh literals are
/// interleaved by this stride so they never collide across clients.
pub const MAX_CLIENTS: usize = 4;

const FRONTDOOR: Spec = Spec {
    name: "frontdoor-cold",
    trips: 250,
    drivers: 40,
    riders: 80,
    user_tags: 40,
    analysts: 1024,
    reuse: Reuse::Fresh,
    wal: false,
    // Two WAL records per admission: 2 × 2000 stays under the 4096-record
    // snapshot threshold, so the serial pass's log is never compacted and
    // bytes per admission is exact.
    serial_k: 2000,
    seq_len: 1 << 16,
};

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "repeat-hot",
        analysts: 64,
        reuse: Reuse::Pool(256),
        serial_k: 8192,
        seq_len: 1 << 18,
        ..FRONTDOOR
    },
    Spec {
        name: "scan-cold",
        trips: 100_000,
        drivers: 4_000,
        riders: 10_000,
        user_tags: 4_000,
        analysts: 64,
        // Eight full turns of the 40-step shape × window cycle.
        serial_k: 320,
        seq_len: 1 << 12,
        ..FRONTDOOR
    },
    FRONTDOOR,
    // Byte-for-byte the frontdoor-cold request stream, through the WAL, on
    // 16× the data: with fsync at four fifths of latency (frontdoor-cold's
    // 250 trips) the virtual disk's drift alone spread p95 by 0.24 between
    // runs. So the two are not a same-data pair; what the WAL adds is read
    // inside this workload, from `service.ledger.charge_settle_wal_ns`
    // against `service.ledger.charge_settle_ns`.
    Spec {
        name: "ledger-durable",
        trips: 4_000,
        drivers: 400,
        riders: 1_000,
        user_tags: 400,
        wal: true,
        ..FRONTDOOR
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    pub fn data(&self, seed: u64, smoke: bool) -> UberConfig {
        // A smoke run keeps the mix and shrinks only the big table, so
        // the unit test stays quick in an unoptimized build.
        let shrink = if smoke && self.trips > 20_000 { 5 } else { 1 };
        UberConfig {
            cities: 30,
            drivers: self.drivers / shrink,
            riders: self.riders / shrink,
            trips: self.trips / shrink,
            user_tags: self.user_tags / shrink,
            seed,
        }
    }
}

/// One request: which rendered text, sent as which analyst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub text: u32,
    pub analyst: u32,
}

/// One client's pre-rendered request sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    pub texts: Vec<String>,
    pub requests: Vec<Request>,
}

impl Stream {
    pub fn sql(&self, i: usize) -> &str {
        &self.texts[self.requests[i % self.requests.len()].text as usize]
    }

    pub fn analyst(&self, i: usize) -> usize {
        self.requests[i % self.requests.len()].analyst as usize
    }
}

pub fn analyst_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("analyst-{i:04}")).collect()
}

/// A `WHERE` conjunct kept structured so a variant can swap or reorder.
enum Conj {
    /// `lhs = rhs`, symmetric.
    Eq(String, String),
    /// Any other predicate, printed as written (`{AND}` marks a keyword).
    Raw(String),
}

/// A query kept in pieces; `{KW}` placeholders mark keywords so the
/// lower-case variant never touches a string literal.
struct Parts {
    select: &'static str,
    from: &'static str,
    join_on: Vec<(&'static str, &'static str, &'static str)>,
    conjuncts: Vec<Conj>,
    group_by: Option<&'static str>,
}

impl Parts {
    fn render(&self, variant: usize) -> String {
        let v = variant % VARIANTS;
        let (lower, wide, swap, reverse) = (v == 0, v == 1, v == 2, v == 3);
        let kw = |k: &str| {
            if lower {
                k.to_lowercase()
            } else {
                k.to_string()
            }
        };
        let gap = if wide { "\n   " } else { " " };
        let eq = |l: &str, r: &str| {
            let (l, r) = if swap { (r, l) } else { (l, r) };
            if wide {
                format!("{l}  =  {r}")
            } else {
                format!("{l} = {r}")
            }
        };
        let mut sql = format!(
            "{}{gap}{}{gap}{} {}",
            kw("SELECT"),
            if lower {
                self.select.to_lowercase()
            } else {
                self.select.to_string()
            },
            kw("FROM"),
            self.from
        );
        for (table, l, r) in &self.join_on {
            sql.push_str(&format!(
                "{gap}{} {table} {} {}",
                kw("JOIN"),
                kw("ON"),
                eq(l, r)
            ));
        }
        let mut conjuncts: Vec<String> = self
            .conjuncts
            .iter()
            .map(|c| match c {
                Conj::Eq(l, r) => eq(l, r),
                Conj::Raw(text) => text
                    .replace("{BETWEEN}", &kw("BETWEEN"))
                    .replace("{AND}", &kw("AND")),
            })
            .collect();
        if reverse {
            conjuncts.reverse();
        }
        let and = format!("{gap}{} ", kw("AND"));
        sql.push_str(&format!("{gap}{} {}", kw("WHERE"), conjuncts.join(&and)));
        if let Some(g) = self.group_by {
            sql.push_str(&format!("{gap}{} {g}", kw("GROUP BY")));
        }
        sql
    }
}

const VEHICLES: [&str; 3] = ["car", "motorbike", "suv"];
const CITY_NAMES: [&str; 4] = ["san francisco", "sydney", "hanoi", "hong kong"];

/// Shape of step `i` of a stream (or of a pool): a fixed ten-step cycle
/// (4 filter counts, 2 city histograms, 2 two-way joins, 2 three-way
/// joins), so every stretch has the same mix and the latency percentiles
/// sit inside one shape's spread, not on the edge between two.
const SHAPE_CYCLE: [u8; 10] = [0, 2, 0, 1, 3, 0, 2, 1, 0, 3];

/// Date-window lengths in days (a day, a week, a month, a quarter), one
/// per turn of the shape cycle. Cycled like the shapes, not drawn: the
/// window sets a query's population, the population sets its relative
/// error, and drawing it made `median_rel_error_pct` swing by half from
/// seed to seed.
const WINDOW_DAYS: [u32; 4] = [1, 7, 30, 90];

/// Literal `unique` is folded into the fare threshold: 7919 is coprime
/// to 4·10⁶, so distinct `unique < 4·10⁶` give distinct five-decimal
/// thresholds spread over the fare range [3, 43).
fn fare_threshold(unique: u64) -> String {
    assert!(unique < 4_000_000, "fresh-literal space exhausted");
    let step = (unique * 7919) % 4_000_000;
    format!("{:.5}", 3.0 + step as f64 * 1e-5)
}

fn date_window(step: usize, rng: &mut StdRng) -> (String, String) {
    let len = WINDOW_DAYS[(step / SHAPE_CYCLE.len()) % WINDOW_DAYS.len()] - 1;
    let lo = rng.gen_range(0..366 - len);
    (date_2016(lo), date_2016(lo + len))
}

/// The query at `step` of a stream or pool; `unique` makes its literal
/// fresh.
fn parts(step: usize, unique: u64, rng: &mut StdRng) -> Parts {
    let fare = fare_threshold(unique);
    let city = rng.gen_range(1..=12).to_string();
    match SHAPE_CYCLE[step % SHAPE_CYCLE.len()] {
        0 => {
            let (lo, hi) = date_window(step, rng);
            Parts {
                select: "COUNT(*)",
                from: "trips",
                join_on: vec![],
                conjuncts: vec![
                    Conj::Eq("city_id".into(), city),
                    Conj::Raw(format!("trip_date {{BETWEEN}} '{lo}' {{AND}} '{hi}'")),
                    Conj::Eq("status".into(), "'completed'".into()),
                    Conj::Raw(format!("fare > {fare}")),
                ],
                group_by: None,
            }
        }
        1 => {
            let (lo, hi) = date_window(step, rng);
            Parts {
                select: "c.name, COUNT(*)",
                from: "trips t",
                join_on: vec![("cities c", "t.city_id", "c.id")],
                conjuncts: vec![
                    Conj::Raw(format!("t.trip_date {{BETWEEN}} '{lo}' {{AND}} '{hi}'")),
                    Conj::Raw(format!("t.fare > {fare}")),
                ],
                group_by: Some("c.name"),
            }
        }
        2 => Parts {
            select: "COUNT(*)",
            from: "trips t",
            join_on: vec![("drivers d", "t.driver_id", "d.id")],
            conjuncts: vec![
                Conj::Eq("d.city_id".into(), city),
                Conj::Eq(
                    "d.vehicle".into(),
                    format!("'{}'", VEHICLES[rng.gen_range(0..VEHICLES.len())]),
                ),
                Conj::Eq("t.status".into(), "'completed'".into()),
                Conj::Raw(format!("t.fare > {fare}")),
            ],
            group_by: None,
        },
        _ => Parts {
            select: "COUNT(DISTINCT d.id)",
            from: "trips t",
            join_on: vec![
                ("drivers d", "t.driver_id", "d.id"),
                ("cities c", "t.city_id", "c.id"),
            ],
            conjuncts: vec![
                Conj::Eq(
                    "c.name".into(),
                    format!("'{}'", CITY_NAMES[rng.gen_range(0..CITY_NAMES.len())]),
                ),
                Conj::Eq("t.status".into(), "'completed'".into()),
                Conj::Raw("d.city_id <> t.city_id".into()),
                Conj::Raw(format!("t.fare > {fare}")),
            ],
            group_by: None,
        },
    }
}

/// Client `client`'s stream for `spec` under `seed`. `ledger-durable`
/// and `frontdoor-cold` share every field this reads, so their streams
/// are byte-identical.
pub fn stream(spec: &Spec, seed: u64, client: usize) -> Stream {
    assert!(client < MAX_CLIENTS);
    let mut rng = StdRng::seed_from_u64(seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9));
    let analysts = Zipf::new(spec.analysts, ZIPF_S);
    match spec.reuse {
        Reuse::Pool(pool) => {
            // The pool depends on the seed alone: all clients draw from
            // the same canonical queries.
            let mut pool_rng = StdRng::seed_from_u64(seed);
            let mut texts = Vec::with_capacity(pool * VARIANTS);
            for q in 0..pool {
                let p = parts(q, q as u64, &mut pool_rng);
                texts.extend((0..VARIANTS).map(|v| p.render(v)));
            }
            let queries = Zipf::new(pool, ZIPF_S);
            let requests = (0..spec.seq_len)
                .map(|_| Request {
                    text: (queries.sample(&mut rng) * VARIANTS + rng.gen_range(0..VARIANTS)) as u32,
                    analyst: analysts.sample(&mut rng) as u32,
                })
                .collect();
            Stream { texts, requests }
        }
        Reuse::Fresh => {
            let mut texts = Vec::with_capacity(spec.seq_len);
            let mut requests = Vec::with_capacity(spec.seq_len);
            for i in 0..spec.seq_len {
                let unique = (i * MAX_CLIENTS + client) as u64;
                let p = parts(i, unique, &mut rng);
                texts.push(p.render(rng.gen_range(0..VARIANTS)));
                requests.push(Request {
                    text: i as u32,
                    analyst: analysts.sample(&mut rng) as u32,
                });
            }
            Stream { texts, requests }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_sql::{canonical_sql, parse_query};
    use std::collections::HashSet;

    fn small(name: &str) -> Spec {
        Spec {
            seq_len: 2000,
            ..spec(name).unwrap()
        }
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        for s in SPECS {
            let s = small(s.name);
            assert_eq!(stream(&s, 7, 1), stream(&s, 7, 1), "{}", s.name);
            assert_ne!(stream(&s, 7, 1), stream(&s, 8, 1), "{}", s.name);
            assert_ne!(stream(&s, 7, 0), stream(&s, 7, 1), "{}", s.name);
        }
    }

    #[test]
    fn ledger_durable_replays_the_frontdoor_stream() {
        let a = stream(&small("frontdoor-cold"), 11, 0);
        let b = stream(&small("ledger-durable"), 11, 0);
        assert_eq!(a, b);
    }

    /// Guards against the canonicalizer folding the "fresh" literal: if
    /// two requests shared a canonical key the second would be a cache
    /// hit and the workload would no longer be cold.
    #[test]
    fn every_cold_request_has_its_own_canonical_key() {
        for name in ["scan-cold", "frontdoor-cold", "ledger-durable"] {
            let s = small(name);
            let mut keys = HashSet::new();
            for client in 0..MAX_CLIENTS {
                let st = stream(&s, 3, client);
                for text in &st.texts {
                    let q = parse_query(text).unwrap_or_else(|e| panic!("{e}: {text}"));
                    assert!(keys.insert(canonical_sql(&q)), "repeated key: {text}");
                }
            }
            assert_eq!(keys.len(), MAX_CLIENTS * s.seq_len);
        }
    }

    #[test]
    fn repeat_hot_variants_collapse_to_one_key_per_pool_query() {
        let s = small("repeat-hot");
        let Reuse::Pool(pool) = s.reuse else {
            panic!("repeat-hot draws from a pool");
        };
        let st = stream(&s, 5, 0);
        assert_eq!(st.texts.len(), pool * VARIANTS);
        let mut keys = HashSet::new();
        for group in st.texts.chunks(VARIANTS) {
            let distinct_texts: HashSet<&String> = group.iter().collect();
            assert_eq!(distinct_texts.len(), VARIANTS, "variants differ as text");
            let canon: HashSet<String> = group
                .iter()
                .map(|t| canonical_sql(&parse_query(t).unwrap()))
                .collect();
            assert_eq!(canon.len(), 1, "variants of one query: {group:?}");
            keys.extend(canon);
        }
        assert_eq!(keys.len(), pool, "pool queries are distinct");
    }
}
