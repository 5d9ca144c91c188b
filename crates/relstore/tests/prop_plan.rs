//! Property tests for the planned, pipelined executor.
//!
//! Two contracts from the query-engine refactor:
//!
//! 1. **Result equivalence** — over generated schemas, data, and
//!    queries, the cost-informed planner + pipelined executor must
//!    produce the same results as the retained naive reference
//!    executor (`Database::query_naive`): exact sequences when the
//!    query orders by a unique key, multisets otherwise, and for
//!    `LIMIT` a correctly-sized subset of the unlimited result.
//! 2. **EXPLAIN consistency** — the rendered `EXPLAIN` output comes
//!    from the same [`PhysicalPlan`] the executor runs, so the
//!    operators named in the plan are exactly the operators
//!    [`ExecMetrics`] says executed.
//! 3. **DML equivalence** — `UPDATE` and `DELETE` find their rows
//!    through the same access-path chooser as `SELECT`, and must affect
//!    exactly the rows the naive reference selects with the same
//!    WHERE clause.

use std::collections::BTreeMap;
use webfindit_base::prop::{cases, pick};
use webfindit_base::rng::StdRng;
use webfindit_relstore::sql::{parse_statement, Statement};
use webfindit_relstore::{plan_select, Database, Datum, Dialect, ExecOutcome};

const WORDS: [&str; 5] = ["ward", "icu", "lab", "er", "hospice"];

/// A fresh two-table database with `n1`/`n2` generated rows.
///
/// `t1(id pk, a indexed, b, c)` and `t2(id pk, t1_id indexed, d)`;
/// every non-key column is nullable and NULLs are generated, so the
/// properties exercise three-valued logic, NULL grouping, and the
/// rule that NULL never equi-joins.
fn gen_db(rng: &mut StdRng) -> Database {
    let mut db = Database::new("prop", Dialect::Canonical);
    db.execute("CREATE TABLE t1 (id INT PRIMARY KEY, a INT, b TEXT, c DOUBLE)")
        .unwrap();
    db.execute("CREATE INDEX t1_a ON t1 (a)").unwrap();
    db.execute("CREATE TABLE t2 (id INT PRIMARY KEY, t1_id INT, d TEXT)")
        .unwrap();
    db.execute("CREATE INDEX t2_t1 ON t2 (t1_id)").unwrap();

    let n1 = rng.gen_range(0..40usize);
    for id in 0..n1 {
        let a = if rng.gen_bool(0.15) {
            "NULL".to_owned()
        } else {
            rng.gen_range(0..10usize).to_string()
        };
        let b = if rng.gen_bool(0.15) {
            "NULL".to_owned()
        } else {
            format!("'{}'", pick(rng, &WORDS))
        };
        let c = if rng.gen_bool(0.15) {
            "NULL".to_owned()
        } else {
            format!(
                "{}.{}",
                rng.gen_range(0..100usize),
                rng.gen_range(0..10usize)
            )
        };
        db.execute(&format!("INSERT INTO t1 VALUES ({id}, {a}, {b}, {c})"))
            .unwrap();
    }
    let n2 = rng.gen_range(0..40usize);
    for id in 0..n2 {
        let fk = if rng.gen_bool(0.15) {
            "NULL".to_owned()
        } else {
            rng.gen_range(0..40usize).to_string()
        };
        let d = format!("'{}'", pick(rng, &WORDS));
        db.execute(&format!("INSERT INTO t2 VALUES ({id}, {fk}, {d})"))
            .unwrap();
    }
    db
}

/// A random predicate over `t1` columns (optionally qualified).
fn gen_pred(rng: &mut StdRng, qualify: bool) -> String {
    let q = if qualify { "t1." } else { "" };
    let k = rng.gen_range(0..10usize);
    let v = rng.gen_range(0..40usize);
    let w = pick(rng, &WORDS);
    let atoms = [
        format!("{q}a = {k}"),
        format!("{q}a > {k}"),
        format!("{q}a <= {k}"),
        format!("{q}id BETWEEN {} AND {}", v.min(20), v.min(20) + 10),
        format!("{q}id >= {v}"),
        format!("{q}b = '{w}'"),
        format!("{q}c >= {k}0.5"),
        format!("{q}b IS NULL"),
    ];
    match rng.gen_range(0..4usize) {
        0 => format!("{} AND {}", pick(rng, &atoms), pick(rng, &atoms)),
        1 => format!("{} OR {}", pick(rng, &atoms), pick(rng, &atoms)),
        _ => pick(rng, &atoms).clone(),
    }
}

/// A generated query: the SQL, whether its output order is fully
/// determined (ORDER BY over a unique key), and the LIMIT if any.
struct GenQuery {
    sql: String,
    ordered: bool,
    limit: Option<usize>,
}

fn gen_query(rng: &mut StdRng) -> GenQuery {
    match rng.gen_range(0..4usize) {
        // Single-table scan/filter, optional DISTINCT / ORDER BY id / LIMIT.
        0 => {
            let distinct = if rng.gen_bool(0.3) { "DISTINCT " } else { "" };
            let cols = if distinct.is_empty() {
                "id, a, b, c"
            } else {
                "a, b"
            };
            let mut sql = format!("SELECT {distinct}{cols} FROM t1");
            if rng.gen_bool(0.8) {
                sql.push_str(&format!(" WHERE {}", gen_pred(rng, false)));
            }
            // A unique order key only exists when id is projected.
            let ordered = distinct.is_empty() && rng.gen_bool(0.5);
            if ordered {
                sql.push_str(" ORDER BY id");
            }
            let limit = rng.gen_bool(0.4).then(|| rng.gen_range(1..8usize));
            if let Some(n) = limit {
                sql.push_str(&format!(" LIMIT {n}"));
            }
            GenQuery {
                sql,
                ordered,
                limit,
            }
        }
        // Aggregation over t1.
        1 => {
            let having = if rng.gen_bool(0.4) {
                " HAVING COUNT(*) > 1"
            } else {
                ""
            };
            let ordered = rng.gen_bool(0.5);
            let order = if ordered { " ORDER BY a" } else { "" };
            let mut sql = format!(
                "SELECT a, COUNT(*) n, SUM(c) s, MIN(id) lo FROM t1{} GROUP BY a{having}{order}",
                if rng.gen_bool(0.5) {
                    format!(" WHERE {}", gen_pred(rng, false))
                } else {
                    String::new()
                }
            );
            let limit = rng.gen_bool(0.3).then(|| rng.gen_range(1..5usize));
            if let Some(n) = limit {
                sql.push_str(&format!(" LIMIT {n}"));
            }
            GenQuery {
                sql,
                ordered,
                limit,
            }
        }
        // Equi-join on the indexed foreign key (inner or left).
        2 => {
            let kind = if rng.gen_bool(0.5) {
                "JOIN"
            } else {
                "LEFT JOIN"
            };
            let mut sql = format!("SELECT t1.id, t1.b, t2.d FROM t1 {kind} t2 ON t1.id = t2.t1_id");
            if rng.gen_bool(0.6) {
                sql.push_str(&format!(" WHERE {}", gen_pred(rng, true)));
            }
            let limit = rng.gen_bool(0.3).then(|| rng.gen_range(1..8usize));
            if let Some(n) = limit {
                sql.push_str(&format!(" LIMIT {n}"));
            }
            GenQuery {
                sql,
                ordered: false,
                limit,
            }
        }
        // Join + aggregate.
        _ => {
            let ordered = rng.gen_bool(0.5);
            let order = if ordered { " ORDER BY t2.d" } else { "" };
            let sql = format!(
                "SELECT t2.d, COUNT(*) n FROM t1 JOIN t2 ON t1.id = t2.t1_id \
                 GROUP BY t2.d{order}"
            );
            // t2.d has duplicates across groups? No — GROUP BY t2.d makes
            // each output row's key unique, so ORDER BY t2.d is total.
            GenQuery {
                sql,
                ordered,
                limit: None,
            }
        }
    }
}

/// Canonical text form of a row, NULL-safe, for multiset comparison.
fn canon(row: &[Datum]) -> String {
    let parts: Vec<String> = row.iter().map(|d| format!("{d:?}")).collect();
    parts.join("|")
}

fn multiset(rows: &[Vec<Datum>]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| canon(r)).collect();
    v.sort();
    v
}

#[test]
fn planned_executor_matches_the_naive_reference() {
    cases(60, |rng| {
        let mut db = gen_db(rng);
        for _ in 0..4 {
            let q = gen_query(rng);
            let planned = db
                .execute(&q.sql)
                .unwrap_or_else(|e| panic!("planned {}: {e}", q.sql))
                .rows()
                .unwrap_or_else(|| panic!("{}: expected rows", q.sql))
                .clone();
            let naive = db
                .query_naive(&q.sql)
                .unwrap_or_else(|e| panic!("naive {}: {e}", q.sql));
            assert_eq!(planned.columns, naive.columns, "columns for {}", q.sql);
            match (q.limit, q.ordered) {
                // LIMIT without a total order: both executors may keep
                // different rows. The planned result must be the right
                // size and a sub-multiset of the unlimited result.
                (Some(_), false) => {
                    assert_eq!(planned.rows.len(), naive.rows.len(), "{}", q.sql);
                    let unlimited = q.sql[..q.sql.rfind(" LIMIT").unwrap()].to_owned();
                    let full = multiset(&db.query_naive(&unlimited).unwrap().rows);
                    for row in &planned.rows {
                        assert!(
                            full.contains(&canon(row)),
                            "{}: row {:?} not in unlimited result",
                            q.sql,
                            row
                        );
                    }
                }
                // A total order: exact sequence equality.
                (_, true) => {
                    assert_eq!(planned.rows, naive.rows, "{}", q.sql);
                }
                // No order: multiset equality.
                (None, false) => {
                    assert_eq!(multiset(&planned.rows), multiset(&naive.rows), "{}", q.sql);
                }
            }
        }
    });
}

/// Build a small fixed database whose queries exercise every physical
/// operator at least once.
fn fixed_db() -> Database {
    let mut db = Database::new("fixed", Dialect::Canonical);
    db.execute("CREATE TABLE t1 (id INT PRIMARY KEY, a INT, b TEXT, c DOUBLE)")
        .unwrap();
    db.execute("CREATE INDEX t1_a ON t1 (a)").unwrap();
    db.execute("CREATE TABLE t2 (id INT PRIMARY KEY, t1_id INT, d TEXT)")
        .unwrap();
    db.execute("CREATE INDEX t2_t1 ON t2 (t1_id)").unwrap();
    db.execute(
        "INSERT INTO t1 VALUES (0, 1, 'ward', 1.5), (1, 1, 'icu', 2.5), \
         (2, 2, 'lab', NULL), (3, NULL, 'er', 4.0), (4, 3, 'ward', 0.5)",
    )
    .unwrap();
    db.execute("INSERT INTO t2 VALUES (0, 1, 'x'), (1, 1, 'y'), (2, 3, 'x'), (3, NULL, 'z')")
        .unwrap();
    db
}

#[test]
fn explain_names_the_operators_that_ran() {
    let mut db = fixed_db();
    // One query per plan shape; together they cover every operator:
    // seq scan, index scan (point and range), filter, nested-loop join,
    // hash join, index join, hash aggregate, project, distinct, sort,
    // limit.
    let queries = [
        "SELECT id, b FROM t1",
        "SELECT id FROM t1 WHERE id = 2",
        "SELECT id FROM t1 WHERE a > 1 AND b = 'ward'",
        "SELECT id, b FROM t1 WHERE id BETWEEN 1 AND 3",
        "SELECT t1.b, t2.d FROM t1 JOIN t2 ON t1.id = t2.t1_id",
        "SELECT t1.b, t2.d FROM t1 LEFT JOIN t2 ON t1.id = t2.t1_id WHERE t1.a = 1",
        "SELECT t1.b, t2.d FROM t1, t2 LIMIT 3",
        "SELECT a, COUNT(*) n FROM t1 GROUP BY a HAVING COUNT(*) > 1 ORDER BY n DESC",
        "SELECT DISTINCT b FROM t1 ORDER BY b LIMIT 2",
    ];
    for sql in queries {
        let stmt = parse_statement(sql).unwrap();
        let Statement::Select(select) = stmt else {
            panic!("{sql}: expected SELECT");
        };
        // Plan once against the live catalog; take the operator list
        // and rendering the planner would hand to EXPLAIN.
        let (expected_ops, rendered) = {
            let plan = plan_select(&select, db.tables()).unwrap();
            (plan.operator_names(), plan.render())
        };

        // Execute: metrics must list exactly the planned operators.
        db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let ran = db.last_exec_metrics().expect("metrics after SELECT");
        assert_eq!(ran.operators, expected_ops, "operators for {sql}");

        // EXPLAIN must render that same plan, line for line.
        let explained = db
            .execute(&format!("EXPLAIN {sql}"))
            .unwrap()
            .rows()
            .expect("EXPLAIN rows")
            .clone();
        let lines: Vec<String> = explained
            .rows
            .iter()
            .map(|r| match &r[0] {
                Datum::Text(t) => t.clone(),
                other => panic!("EXPLAIN row {other:?}"),
            })
            .collect();
        assert_eq!(lines, rendered, "EXPLAIN text for {sql}");
    }
}

/// A table for the DML property: `d(id pk, k indexed, u, tag)`, with
/// ids inserted in random order and some rows deleted, so slot order
/// differs from key order and the heap holds tombstones. `k` and `u`
/// are nullable; `u` has no index.
fn gen_dml_db(rng: &mut StdRng) -> Database {
    let mut db = Database::new("dml", Dialect::Canonical);
    db.execute("CREATE TABLE d (id INT PRIMARY KEY, k INT, u DOUBLE, tag INT)")
        .unwrap();
    db.execute("CREATE INDEX d_k ON d (k)").unwrap();
    let n = rng.gen_range(0..40i64);
    let mut ids: Vec<i64> = (0..n).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    for id in ids {
        let k = if rng.gen_bool(0.15) {
            "NULL".to_owned()
        } else {
            rng.gen_range(0..8i64).to_string()
        };
        let u = if rng.gen_bool(0.15) {
            "NULL".to_owned()
        } else {
            format!("{}.5", rng.gen_range(0..20i64))
        };
        db.execute(&format!("INSERT INTO d VALUES ({id}, {k}, {u}, 0)"))
            .unwrap();
    }
    for _ in 0..rng.gen_range(0..4usize) {
        let id = rng.gen_range(0..40i64);
        db.execute(&format!("DELETE FROM d WHERE id = {id}"))
            .unwrap();
    }
    db
}

/// A literal for a DML conjunct: mostly an integer near the data, but
/// also a fractional number, NULL, or a text value.
fn gen_literal(rng: &mut StdRng) -> String {
    match rng.gen_range(0..10u32) {
        0 => "NULL".to_owned(),
        1 => "'x'".to_owned(),
        2..=3 => format!("{}.5", rng.gen_range(-1..40i64)),
        _ => rng.gen_range(-1..40i64).to_string(),
    }
}

/// A WHERE clause of 1–3 AND-ed eq/range/BETWEEN conjuncts over the
/// primary key, the indexed column, and the unindexed column.
fn gen_dml_where(rng: &mut StdRng) -> String {
    let parts: Vec<String> = (0..rng.gen_range(1..4usize))
        .map(|_| {
            let col = *pick(rng, &["id", "k", "u"]);
            let lit = gen_literal(rng);
            match rng.gen_range(0..7u32) {
                0 => format!("{col} = {lit}"),
                1 => format!("{col} < {lit}"),
                2 => format!("{col} <= {lit}"),
                3 => format!("{col} > {lit}"),
                4 => format!("{col} >= {lit}"),
                5 => format!("{lit} > {col}"),
                _ => format!("{col} BETWEEN {lit} AND {}", gen_literal(rng)),
            }
        })
        .collect();
    parts.join(" AND ")
}

/// The whole table, keyed by id, through the naive reference.
fn table_by_id(db: &Database) -> BTreeMap<i64, Vec<Datum>> {
    db.query_naive("SELECT id, k, u, tag FROM d")
        .unwrap()
        .rows
        .into_iter()
        .map(|r| match r[0] {
            Datum::Int(id) => (id, r),
            ref other => panic!("id {other:?}"),
        })
        .collect()
}

/// Ids the naive reference selects with `w`. Comparisons and BETWEEN
/// never raise an error (a NULL or cross-type operand makes them
/// unknown), so every generated predicate evaluates on every row.
fn naive_ids(db: &Database, w: &str) -> Vec<i64> {
    let sql = format!("SELECT id FROM d WHERE {w}");
    let rs = db
        .query_naive(&sql)
        .unwrap_or_else(|e| panic!("naive {sql}: {e}"));
    let mut ids: Vec<i64> = rs
        .rows
        .iter()
        .map(|r| match r[0] {
            Datum::Int(id) => id,
            ref other => panic!("id {other:?}"),
        })
        .collect();
    ids.sort_unstable();
    ids
}

fn affected(outcome: ExecOutcome, sql: &str) -> usize {
    match outcome {
        ExecOutcome::Count(n) => n,
        other => panic!("{sql}: expected a count, got {other:?}"),
    }
}

#[test]
fn update_and_delete_affect_exactly_the_naive_selection() {
    cases(120, |rng| {
        let mut db = gen_dml_db(rng);
        for _ in 0..4 {
            let w = gen_dml_where(rng);
            let ids = naive_ids(&db, &w);
            let before = table_by_id(&db);
            let (sql, expected) = if rng.gen_bool(0.5) {
                let mut expected = before.clone();
                for id in &ids {
                    let row = expected.get_mut(id).unwrap();
                    row[3] = match row[3] {
                        Datum::Int(t) => Datum::Int(t + 1),
                        ref other => panic!("tag {other:?}"),
                    };
                }
                (format!("UPDATE d SET tag = tag + 1 WHERE {w}"), expected)
            } else {
                let mut expected = before.clone();
                for id in &ids {
                    expected.remove(id);
                }
                (format!("DELETE FROM d WHERE {w}"), expected)
            };
            let n = affected(
                db.execute(&sql).unwrap_or_else(|e| panic!("{sql}: {e}")),
                &sql,
            );
            assert_eq!(n, ids.len(), "{sql}: affected {n}, naive selects {ids:?}");
            assert_eq!(table_by_id(&db), expected, "{sql}");
        }
    });
}
