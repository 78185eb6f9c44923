//! Helpers shared by the suites that pin a digest over every query text
//! the repository ships.

/// FNV-1a, 64-bit: written out so a pinned digest does not depend on the
/// toolchain's `DefaultHasher`.
pub fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The four textual variants `pipeline_bench` renders of each of its
/// shapes: lower-case keywords, extra whitespace, swapped `=` operands,
/// reversed `AND` conjuncts.
pub fn bench_shape_variants() -> Vec<String> {
    struct Shape {
        select: &'static str,
        from: &'static str,
        joins: &'static [(&'static str, &'static str, &'static str)],
        conjuncts: &'static [Result<(&'static str, &'static str), &'static str>],
        group_by: Option<&'static str>,
    }
    let shapes = [
        Shape {
            select: "COUNT(*)",
            from: "trips",
            joins: &[],
            conjuncts: &[
                Ok(("city_id", "5")),
                Err("trip_date {BETWEEN} '2016-03-01' {AND} '2016-03-30'"),
                Ok(("status", "'completed'")),
                Err("fare > 12.34567"),
            ],
            group_by: None,
        },
        Shape {
            select: "c.name, COUNT(*)",
            from: "trips t",
            joins: &[("cities c", "t.city_id", "c.id")],
            conjuncts: &[
                Err("t.trip_date {BETWEEN} '2016-06-01' {AND} '2016-06-07'"),
                Err("t.fare > 3.00100"),
            ],
            group_by: Some("c.name"),
        },
        Shape {
            select: "COUNT(*)",
            from: "trips t",
            joins: &[("drivers d", "t.driver_id", "d.id")],
            conjuncts: &[
                Ok(("d.city_id", "7")),
                Ok(("d.vehicle", "'suv'")),
                Ok(("t.status", "'completed'")),
                Err("t.fare > 27.91300"),
            ],
            group_by: None,
        },
        Shape {
            select: "COUNT(DISTINCT d.id)",
            from: "trips t",
            joins: &[
                ("drivers d", "t.driver_id", "d.id"),
                ("cities c", "t.city_id", "c.id"),
            ],
            conjuncts: &[
                Ok(("c.name", "'hong kong'")),
                Ok(("t.status", "'completed'")),
                Err("d.city_id <> t.city_id"),
                Err("t.fare > 42.99999"),
            ],
            group_by: None,
        },
    ];
    let mut out = Vec::new();
    for s in &shapes {
        for v in 0..4 {
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
            let select = if lower {
                s.select.to_lowercase()
            } else {
                s.select.to_string()
            };
            let mut sql = format!(
                "{}{gap}{select}{gap}{} {}",
                kw("SELECT"),
                kw("FROM"),
                s.from
            );
            for (table, l, r) in s.joins {
                sql += &format!("{gap}{} {table} {} {}", kw("JOIN"), kw("ON"), eq(l, r));
            }
            let mut conjuncts: Vec<String> = (s.conjuncts.iter())
                .map(|c| match c {
                    Ok((l, r)) => eq(l, r),
                    Err(raw) => raw
                        .replace("{BETWEEN}", &kw("BETWEEN"))
                        .replace("{AND}", &kw("AND")),
                })
                .collect();
            if reverse {
                conjuncts.reverse();
            }
            let and = format!("{gap}{} ", kw("AND"));
            sql += &format!("{gap}{} {}", kw("WHERE"), conjuncts.join(&and));
            if let Some(g) = s.group_by {
                sql += &format!("{gap}{} {g}", kw("GROUP BY"));
            }
            out.push(sql);
        }
    }
    out
}
