//! Logical → physical planning for SELECT statements, and the one
//! base-table access-path chooser SELECT, UPDATE and DELETE share.
//!
//! [`plan_select`] turns a parsed [`SelectStmt`] into a [`PhysicalPlan`]
//! operator tree using lightweight per-table statistics (live row
//! count, per-indexed-column distinct key count — see
//! [`Table::stats`]). The pipelined executor in [`crate::exec`] runs
//! the tree directly, and `EXPLAIN` renders the *same* tree via
//! [`PhysicalPlan::render`], so the description can never drift from
//! what actually executes.
//!
//! Costing is deliberately simple: an equality sarg on an indexed
//! column is estimated at `rows / distinct_keys`, a range sarg at
//! `rows / 4`, and joins multiply. Those estimates only steer two
//! decisions — which sarg serves the base access path, and whether an
//! inner equi-join probes the inner index per left row (`IxJoin`)
//! instead of building a hash table (`HashJoin`).
//!
//! UPDATE and DELETE find their rows through [`dml_candidates`], which
//! asks the same chooser as [`plan_select`], so a PK equality or a
//! bounded key range is an index probe for writes as well as reads.

use crate::expr::{BinOp, Expr};
use crate::sql::ast::{JoinKind, OrderKey, SelectItem, SelectStmt};
use crate::storage::{IndexKind, Table};
use crate::types::Datum;
use crate::{RelError, RelResult};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::Bound;

/// The table layout of a joined row: which bindings cover which column
/// ranges of the concatenated row. Shared by the planner (column
/// resolution, sarg extraction) and both executors (expression
/// evaluation contexts).
#[derive(Debug, Clone)]
pub struct Layout {
    /// `(binding, column names, start offset)` per FROM item.
    pub(crate) parts: Vec<(String, Vec<String>, usize)>,
    pub(crate) width: usize,
}

impl Layout {
    pub(crate) fn new() -> Layout {
        Layout {
            parts: Vec::new(),
            width: 0,
        }
    }

    pub(crate) fn push(&mut self, binding: String, columns: Vec<String>) {
        let start = self.width;
        self.width += columns.len();
        self.parts.push((binding, columns, start));
    }

    /// Resolve `table.name` or bare `name` to an absolute offset.
    pub(crate) fn resolve(&self, table: Option<&str>, name: &str) -> RelResult<usize> {
        let lname = name.to_ascii_lowercase();
        match table {
            Some(t) => {
                let lt = t.to_ascii_lowercase();
                let (_, cols, start) = self
                    .parts
                    .iter()
                    .find(|(b, _, _)| *b == lt)
                    .ok_or_else(|| RelError::NoSuchTable(lt.clone()))?;
                cols.iter()
                    .position(|c| *c == lname)
                    .map(|i| start + i)
                    .ok_or(RelError::NoSuchColumn(format!("{lt}.{lname}")))
            }
            None => {
                let mut found = None;
                for (b, cols, start) in &self.parts {
                    if let Some(i) = cols.iter().position(|c| *c == lname) {
                        if found.is_some() {
                            return Err(RelError::AmbiguousColumn(format!(
                                "{lname} (in {b} and another table)"
                            )));
                        }
                        found = Some(start + i);
                    }
                }
                found.ok_or(RelError::NoSuchColumn(lname))
            }
        }
    }
}

/// Look up a table in the catalog map (names are lowercase).
pub(crate) fn lookup<'a>(tables: &'a HashMap<String, Table>, name: &str) -> RelResult<&'a Table> {
    let lower = name.to_ascii_lowercase();
    tables.get(&lower).ok_or(RelError::NoSuchTable(lower))
}

/// Split a conjunction into its AND-ed parts.
pub(crate) fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            let mut v = conjuncts(left);
            v.extend(conjuncts(right));
            v
        }
        other => vec![other],
    }
}

/// Expand the select list into `(expression, output name)` pairs.
pub(crate) fn expand_items(
    items: &[SelectItem],
    layout: &Layout,
) -> RelResult<Vec<(Expr, String)>> {
    let mut out = Vec::new();
    for item in items {
        match item {
            SelectItem::Wildcard => {
                for (binding, cols, _) in &layout.parts {
                    for c in cols {
                        out.push((Expr::qcol(binding.clone(), c.clone()), c.clone()));
                    }
                }
            }
            SelectItem::QualifiedWildcard(t) => {
                let lt = t.to_ascii_lowercase();
                let part = layout
                    .parts
                    .iter()
                    .find(|(b, _, _)| *b == lt)
                    .ok_or(RelError::NoSuchTable(lt.clone()))?;
                for c in &part.1 {
                    out.push((Expr::qcol(lt.clone(), c.clone()), c.clone()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = match alias {
                    Some(a) => a.to_ascii_lowercase(),
                    None => match expr {
                        Expr::Column { name, .. } => name.clone(),
                        other => other.to_sql().to_ascii_lowercase(),
                    },
                };
                out.push((expr.clone(), name));
            }
        }
    }
    Ok(out)
}

/// If `on` is `left_col = right_col` with one side in the existing layout
/// and the other in the newly joined table, return their offsets
/// (`left_offset`, `right_column_index`).
pub(crate) fn equi_join_offsets(
    on: &Expr,
    layout: &Layout,
    right_binding: &str,
    right: &Table,
) -> Option<(usize, usize)> {
    let (a, b) = match on {
        Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } => (&**left, &**right),
        _ => return None,
    };
    let classify = |e: &Expr| -> Option<(Option<String>, String)> {
        match e {
            Expr::Column { table, name } => Some((table.clone(), name.clone())),
            _ => None,
        }
    };
    let (at, an) = classify(a)?;
    let (bt, bn) = classify(b)?;
    let right_col = |t: &Option<String>, n: &str| -> Option<usize> {
        match t {
            Some(t) if t == right_binding => right.schema.column_index(n),
            Some(_) => None,
            None => right.schema.column_index(n),
        }
    };
    let left_off =
        |t: &Option<String>, n: &str| -> Option<usize> { layout.resolve(t.as_deref(), n).ok() };
    // a on left, b on right?
    if let (Some(lo), Some(rc)) = (left_off(&at, &an), right_col(&bt, &bn)) {
        // ensure b genuinely refers to the right table when unqualified:
        // prefer the right side interpretation only if the left layout
        // cannot resolve it unambiguously as well.
        if bt.as_deref() == Some(right_binding) || left_off(&bt, &bn).is_none() {
            return Some((lo, rc));
        }
    }
    if let (Some(lo), Some(rc)) = (left_off(&bt, &bn), right_col(&at, &an)) {
        if at.as_deref() == Some(right_binding) || left_off(&at, &an).is_none() {
            return Some((lo, rc));
        }
    }
    None
}

/// A sargable predicate served directly by a B-tree index.
#[derive(Debug, Clone, PartialEq)]
pub enum Sarg {
    /// `column = literal` point lookup.
    Eq(Datum),
    /// A key range (`<`, `<=`, `>`, `>=`, `BETWEEN`).
    Range {
        /// Lower bound on the index key.
        lo: Bound<Datum>,
        /// Upper bound on the index key.
        hi: Bound<Datum>,
    },
}

impl Sarg {
    /// The slots of `t` this sarg selects through the index over
    /// `col_idx` (empty when that column has no usable index).
    pub(crate) fn probe(&self, t: &Table, col_idx: usize) -> Vec<usize> {
        match self {
            Sarg::Eq(v) => t.index_lookup(col_idx, v),
            Sarg::Range { lo, hi } => t.index_range(col_idx, lo.as_ref(), hi.as_ref()),
        }
        .unwrap_or_default()
    }
}

/// Full-table scan node.
#[derive(Debug, Clone)]
pub struct SeqScanNode {
    pub(crate) table: String,
    pub(crate) rows: usize,
}

/// Index point-lookup / range-scan node.
#[derive(Debug, Clone)]
pub struct IxScanNode {
    pub(crate) table: String,
    pub(crate) column: String,
    pub(crate) col_idx: usize,
    pub(crate) sarg: Sarg,
    pub(crate) via: IndexKind,
    pub(crate) est_rows: usize,
}

/// Nested-loop join node (cross joins, non-equi inner joins, and all
/// left joins).
#[derive(Debug, Clone)]
pub struct NlJoinNode {
    pub(crate) input: Box<PhysicalPlan>,
    pub(crate) table: String,
    pub(crate) kind: JoinKind,
    pub(crate) on: Option<Expr>,
    /// Layout of the combined row (left side plus this join's table),
    /// used to evaluate `on`.
    pub(crate) layout: Layout,
    pub(crate) right_width: usize,
    pub(crate) right_rows: usize,
}

/// Hash equi-join node: build on the inner (right) table, probe with
/// each left row.
#[derive(Debug, Clone)]
pub struct HashJoinNode {
    pub(crate) input: Box<PhysicalPlan>,
    pub(crate) table: String,
    pub(crate) on_sql: String,
    pub(crate) left_off: usize,
    pub(crate) right_col: usize,
    pub(crate) build_rows: usize,
}

/// Index equi-join node: probe the inner table's index per left row
/// instead of building a hash table. Chosen when the inner join key is
/// indexed and the estimated outer cardinality is no larger than the
/// inner table.
#[derive(Debug, Clone)]
pub struct IxJoinNode {
    pub(crate) input: Box<PhysicalPlan>,
    pub(crate) table: String,
    pub(crate) on_sql: String,
    pub(crate) left_off: usize,
    pub(crate) right_col: usize,
    pub(crate) via: IndexKind,
}

/// Residual predicate filter node. The planner always keeps the full
/// WHERE clause here even when a sarg was pushed into an index scan, so
/// three-valued logic, coercions, and evaluation errors behave exactly
/// as in the reference executor.
#[derive(Debug, Clone)]
pub struct FilterNode {
    pub(crate) input: Box<PhysicalPlan>,
    pub(crate) pred: Expr,
    pub(crate) layout: Layout,
}

/// Hash-grouping aggregate node; also evaluates HAVING and the final
/// projection for aggregate queries.
#[derive(Debug, Clone)]
pub struct HashAggregateNode {
    pub(crate) input: Box<PhysicalPlan>,
    pub(crate) group_by: Vec<Expr>,
    pub(crate) having: Option<Expr>,
    pub(crate) select_exprs: Vec<(Expr, String)>,
    pub(crate) columns: Vec<String>,
    pub(crate) order_by: Vec<OrderKey>,
    pub(crate) layout: Layout,
}

/// Streaming projection node for non-aggregate queries; also computes
/// hidden ORDER BY keys per row.
#[derive(Debug, Clone)]
pub struct ProjectNode {
    pub(crate) input: Box<PhysicalPlan>,
    pub(crate) select_exprs: Vec<(Expr, String)>,
    pub(crate) columns: Vec<String>,
    pub(crate) order_by: Vec<OrderKey>,
    pub(crate) layout: Layout,
}

/// Duplicate-elimination node (`SELECT DISTINCT`).
#[derive(Debug, Clone)]
pub struct DistinctNode {
    pub(crate) input: Box<PhysicalPlan>,
}

/// Materializing sort node (`ORDER BY`).
#[derive(Debug, Clone)]
pub struct SortNode {
    pub(crate) input: Box<PhysicalPlan>,
    pub(crate) keys: Vec<OrderKey>,
}

/// Row-limit node; the executor stops pulling from its input once the
/// limit is reached.
#[derive(Debug, Clone)]
pub struct LimitNode {
    pub(crate) input: Box<PhysicalPlan>,
    pub(crate) n: u64,
}

/// A physical operator tree. Produced by [`plan_select`], executed by
/// [`crate::exec::execute_plan`], and rendered for `EXPLAIN` by
/// [`PhysicalPlan::render`] — one structure, no separate description
/// path.
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    /// Full-table scan.
    SeqScan(SeqScanNode),
    /// Index point lookup or range scan.
    IxScan(IxScanNode),
    /// Nested-loop join.
    NlJoin(Box<NlJoinNode>),
    /// Hash equi-join.
    HashJoin(Box<HashJoinNode>),
    /// Index-probing equi-join.
    IxJoin(Box<IxJoinNode>),
    /// Residual predicate filter.
    Filter(Box<FilterNode>),
    /// Hash grouping + aggregation + HAVING + projection.
    HashAggregate(Box<HashAggregateNode>),
    /// Streaming projection.
    Project(Box<ProjectNode>),
    /// Duplicate elimination.
    Distinct(Box<DistinctNode>),
    /// Materializing sort.
    Sort(Box<SortNode>),
    /// Row limit with pull-stop.
    Limit(Box<LimitNode>),
}

impl PhysicalPlan {
    /// Stable operator name, also recorded in
    /// [`crate::exec::ExecMetrics::operators`] when the operator runs.
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalPlan::SeqScan(_) => "seq scan",
            PhysicalPlan::IxScan(_) => "index scan",
            PhysicalPlan::NlJoin(_) => "nested-loop join",
            PhysicalPlan::HashJoin(_) => "hash join",
            PhysicalPlan::IxJoin(_) => "index join",
            PhysicalPlan::Filter(_) => "filter",
            PhysicalPlan::HashAggregate(_) => "hash aggregate",
            PhysicalPlan::Project(_) => "project",
            PhysicalPlan::Distinct(_) => "distinct",
            PhysicalPlan::Sort(_) => "sort",
            PhysicalPlan::Limit(_) => "limit",
        }
    }

    /// The node's input, if it has one (scans are leaves).
    pub fn input(&self) -> Option<&PhysicalPlan> {
        match self {
            PhysicalPlan::SeqScan(_) | PhysicalPlan::IxScan(_) => None,
            PhysicalPlan::NlJoin(n) => Some(&n.input),
            PhysicalPlan::HashJoin(n) => Some(&n.input),
            PhysicalPlan::IxJoin(n) => Some(&n.input),
            PhysicalPlan::Filter(n) => Some(&n.input),
            PhysicalPlan::HashAggregate(n) => Some(&n.input),
            PhysicalPlan::Project(n) => Some(&n.input),
            PhysicalPlan::Distinct(n) => Some(&n.input),
            PhysicalPlan::Sort(n) => Some(&n.input),
            PhysicalPlan::Limit(n) => Some(&n.input),
        }
    }

    /// Operator names bottom-up (leaf first), matching the order the
    /// executor records them in `ExecMetrics::operators`.
    pub fn operator_names(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        fn walk(p: &PhysicalPlan, out: &mut Vec<&'static str>) {
            if let Some(i) = p.input() {
                walk(i, out);
            }
            out.push(p.name());
        }
        walk(self, &mut out);
        out
    }

    /// Output column names of the plan (from its projection node).
    pub fn output_columns(&self) -> &[String] {
        match self {
            PhysicalPlan::Project(n) => &n.columns,
            PhysicalPlan::HashAggregate(n) => &n.columns,
            other => other.input().map(|i| i.output_columns()).unwrap_or(&[]),
        }
    }

    /// Render the plan as indented `EXPLAIN` lines, root operator
    /// first.
    pub fn render(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut Vec<String>) {
        let pad = "  ".repeat(depth);
        match self {
            PhysicalPlan::SeqScan(n) => {
                out.push(format!("{pad}seq scan {} ({} rows)", n.table, n.rows));
            }
            PhysicalPlan::IxScan(n) => match &n.sarg {
                Sarg::Eq(v) => out.push(format!(
                    "{pad}index lookup {}.{} = {} via {} (~{} rows)",
                    n.table, n.column, v, n.via, n.est_rows
                )),
                Sarg::Range { lo, hi } => {
                    let mut cond = String::new();
                    match lo {
                        Bound::Included(v) => {
                            let _ = write!(cond, "{} >= {}", n.column, v);
                        }
                        Bound::Excluded(v) => {
                            let _ = write!(cond, "{} > {}", n.column, v);
                        }
                        Bound::Unbounded => {}
                    }
                    match hi {
                        Bound::Included(v) => {
                            if !cond.is_empty() {
                                cond.push_str(" AND ");
                            }
                            let _ = write!(cond, "{} <= {}", n.column, v);
                        }
                        Bound::Excluded(v) => {
                            if !cond.is_empty() {
                                cond.push_str(" AND ");
                            }
                            let _ = write!(cond, "{} < {}", n.column, v);
                        }
                        Bound::Unbounded => {}
                    }
                    out.push(format!(
                        "{pad}index range scan {}.{} via {} (~{} rows)",
                        n.table, cond, n.via, n.est_rows
                    ));
                }
            },
            PhysicalPlan::NlJoin(n) => {
                match (n.kind, &n.on) {
                    (JoinKind::Cross, _) => out.push(format!(
                        "{pad}cross join {} ({} rows)",
                        n.table, n.right_rows
                    )),
                    (JoinKind::Inner, Some(on)) => out.push(format!(
                        "{pad}nested-loop inner join {} on {}",
                        n.table,
                        on.to_sql()
                    )),
                    (JoinKind::Left, Some(on)) => out.push(format!(
                        "{pad}nested-loop left join {} on {}",
                        n.table,
                        on.to_sql()
                    )),
                    (kind, None) => out.push(format!("{pad}nested-loop {kind:?} join {}", n.table)),
                }
                n.input.render_into(depth + 1, out);
            }
            PhysicalPlan::HashJoin(n) => {
                out.push(format!(
                    "{pad}hash join {} on {} (build {} rows)",
                    n.table, n.on_sql, n.build_rows
                ));
                n.input.render_into(depth + 1, out);
            }
            PhysicalPlan::IxJoin(n) => {
                out.push(format!(
                    "{pad}index join {} on {} via {}",
                    n.table, n.on_sql, n.via
                ));
                n.input.render_into(depth + 1, out);
            }
            PhysicalPlan::Filter(n) => {
                out.push(format!("{pad}filter: {}", n.pred.to_sql()));
                n.input.render_into(depth + 1, out);
            }
            PhysicalPlan::HashAggregate(n) => {
                if n.group_by.is_empty() {
                    out.push(format!("{pad}aggregate over all rows"));
                } else {
                    let keys: Vec<String> = n.group_by.iter().map(Expr::to_sql).collect();
                    out.push(format!("{pad}hash group by: {}", keys.join(", ")));
                }
                if let Some(h) = &n.having {
                    out.push(format!("{pad}having: {}", h.to_sql()));
                }
                out.push(format!("{pad}project: {}", n.columns.join(", ")));
                n.input.render_into(depth + 1, out);
            }
            PhysicalPlan::Project(n) => {
                out.push(format!("{pad}project: {}", n.columns.join(", ")));
                n.input.render_into(depth + 1, out);
            }
            PhysicalPlan::Distinct(n) => {
                out.push(format!("{pad}distinct"));
                n.input.render_into(depth + 1, out);
            }
            PhysicalPlan::Sort(n) => {
                let keys: Vec<String> = n
                    .keys
                    .iter()
                    .map(|k| {
                        let mut s = k.expr.to_sql();
                        if k.desc {
                            s.push_str(" DESC");
                        }
                        s
                    })
                    .collect();
                out.push(format!("{pad}sort: {}", keys.join(", ")));
                n.input.render_into(depth + 1, out);
            }
            PhysicalPlan::Limit(n) => {
                out.push(format!("{pad}limit: {}", n.n));
                n.input.render_into(depth + 1, out);
            }
        }
    }
}

/// One sarg candidate extracted from a WHERE conjunct.
struct SargCandidate {
    col_idx: usize,
    column: String,
    sarg: Sarg,
    via: IndexKind,
    distinct: usize,
}

/// Extract an index-servable predicate from one conjunct, resolved
/// against the base table (offsets below `base_arity` in `layout`).
/// Conjuncts that reference other bindings, fail to resolve, or compare
/// non-literals are simply not sargable — the residual filter still
/// evaluates them.
fn sarg_of(
    conjunct: &Expr,
    layout: &Layout,
    base: &Table,
    base_arity: usize,
) -> Option<SargCandidate> {
    let (table, name, sarg) = match conjunct {
        Expr::Binary { op, left, right } => {
            let (col, lit, flipped) = match (&**left, &**right) {
                (Expr::Column { table, name }, Expr::Literal(d)) => ((table, name), d, false),
                (Expr::Literal(d), Expr::Column { table, name }) => ((table, name), d, true),
                _ => return None,
            };
            let sarg = match op {
                BinOp::Eq => Sarg::Eq(lit.clone()),
                // Range ops never match NULL; skip null literals.
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge if !lit.is_null() => {
                    // Normalize `lit < col` to `col > lit`, etc.
                    let op = if flipped {
                        match op {
                            BinOp::Lt => BinOp::Gt,
                            BinOp::Le => BinOp::Ge,
                            BinOp::Gt => BinOp::Lt,
                            BinOp::Ge => BinOp::Le,
                            _ => unreachable!(),
                        }
                    } else {
                        *op
                    };
                    match op {
                        BinOp::Lt => Sarg::Range {
                            lo: Bound::Unbounded,
                            hi: Bound::Excluded(lit.clone()),
                        },
                        BinOp::Le => Sarg::Range {
                            lo: Bound::Unbounded,
                            hi: Bound::Included(lit.clone()),
                        },
                        BinOp::Gt => Sarg::Range {
                            lo: Bound::Excluded(lit.clone()),
                            hi: Bound::Unbounded,
                        },
                        BinOp::Ge => Sarg::Range {
                            lo: Bound::Included(lit.clone()),
                            hi: Bound::Unbounded,
                        },
                        _ => unreachable!(),
                    }
                }
                _ => return None,
            };
            (col.0, col.1, sarg)
        }
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => match (&**expr, &**low, &**high) {
            (Expr::Column { table, name }, Expr::Literal(lo), Expr::Literal(hi))
                if !lo.is_null() && !hi.is_null() =>
            {
                (
                    table,
                    name,
                    Sarg::Range {
                        lo: Bound::Included(lo.clone()),
                        hi: Bound::Included(hi.clone()),
                    },
                )
            }
            _ => return None,
        },
        _ => return None,
    };
    let off = layout.resolve(table.as_deref(), name).ok()?;
    if off >= base_arity {
        return None; // not a base-table column
    }
    let via = base.index_kind(off)?;
    // The B-tree compares with the total sort order, which coincides
    // with SQL comparison only within the column's own type family.
    // Equality sargs are safe for any literal (a key either compares
    // group-equal or is absent); range sargs additionally require a
    // literal the column's type can represent, which the residual
    // filter would otherwise handle via numeric coercion. Keep ranges
    // to literals matching the stored type family.
    if let Sarg::Range { lo, hi } = &sarg {
        let col_type = base.schema.columns[off].data_type;
        for b in [lo, hi] {
            if let Bound::Included(v) | Bound::Excluded(v) = b {
                v.coerce(col_type)?;
            }
        }
    }
    Some(SargCandidate {
        col_idx: off,
        column: base.schema.columns[off].name.clone(),
        sarg,
        via,
        distinct: base
            .index_distinct(off)
            .unwrap_or_else(|| base.len().max(1)),
    })
}

/// The tighter of two bounds on one side of a range: the one whose
/// value lies further in direction `wins` (`Greater` for lower
/// bounds, `Less` for upper ones) under the B-tree's total order
/// (`sort_cmp`). At equal values `Excluded` beats `Included`.
fn tighter(a: Bound<Datum>, b: Bound<Datum>, wins: Ordering) -> Bound<Datum> {
    match (&a, &b) {
        (Bound::Unbounded, _) => b,
        (_, Bound::Unbounded) => a,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            match x.sort_cmp(y) {
                Ordering::Equal if matches!(b, Bound::Excluded(_)) => b,
                Ordering::Equal => a,
                ord if ord == wins => a,
                _ => b,
            }
        }
    }
}

/// The base-table access path: the best index sarg the WHERE clause
/// offers, or `None` for a full scan. Shared by SELECT planning and
/// by UPDATE/DELETE candidate selection ([`dml_candidates`]).
///
/// Range sargs on the same column are intersected into one bounded
/// range (`id >= a AND id < b` scans only `[a, b)`); contradictory
/// bounds become an inverted range, which [`Table::index_range`]
/// answers with no slots. Then equality beats range, and among those
/// the most selective (highest distinct count) index wins; on a tie
/// the later conjunct wins.
fn choose_access(
    filter: &Expr,
    layout: &Layout,
    base: &Table,
    base_arity: usize,
) -> Option<SargCandidate> {
    let mut cands: Vec<SargCandidate> = Vec::new();
    for mut cand in conjuncts(filter)
        .into_iter()
        .filter_map(|c| sarg_of(c, layout, base, base_arity))
    {
        let col = cand.col_idx;
        if let Sarg::Range { lo, hi } = &mut cand.sarg {
            let earlier = cands
                .iter()
                .position(|p| p.col_idx == col && matches!(p.sarg, Sarg::Range { .. }));
            if let Some(Sarg::Range { lo: lo0, hi: hi0 }) = earlier.map(|i| cands.remove(i).sarg) {
                *lo = tighter(
                    lo0,
                    std::mem::replace(lo, Bound::Unbounded),
                    Ordering::Greater,
                );
                *hi = tighter(hi0, std::mem::replace(hi, Bound::Unbounded), Ordering::Less);
            }
        }
        cands.push(cand);
    }
    cands
        .into_iter()
        .max_by_key(|c| (matches!(c.sarg, Sarg::Eq(_)), c.distinct))
}

/// Slots an UPDATE or DELETE over `t` (bound as `binding`) must look
/// at: the index probe of [`choose_access`] when a sarg applies,
/// otherwise every live slot. Always in slot order, so the statement
/// meets its rows in the order a table scan would; the caller still
/// evaluates the full WHERE clause on each candidate.
pub(crate) fn dml_candidates(t: &Table, binding: &str, filter: Option<&Expr>) -> Vec<usize> {
    let mut layout = Layout::new();
    layout.push(binding.to_owned(), t.schema.column_names());
    match filter.and_then(|f| choose_access(f, &layout, t, t.schema.arity())) {
        Some(c) => {
            let mut slots = c.sarg.probe(t, c.col_idx);
            slots.sort_unstable();
            slots
        }
        None => t.scan().map(|(slot, _)| slot).collect(),
    }
}

/// Build the physical plan for `stmt` against the current catalog.
///
/// Planning never executes row-level work, so `EXPLAIN` is free; it
/// does resolve tables (errors early, like the executor would) and
/// reads table statistics for its access-path and join decisions.
pub fn plan_select(stmt: &SelectStmt, tables: &HashMap<String, Table>) -> RelResult<PhysicalPlan> {
    let base = lookup(tables, &stmt.from.name)?;
    let base_name = stmt.from.name.to_ascii_lowercase();
    let base_arity = base.schema.arity();

    // Build the full layout up front (join table lookups error here,
    // preserving the reference executor's error precedence), keeping a
    // prefix snapshot per join for ON resolution.
    let mut layout = Layout::new();
    layout.push(
        stmt.from.binding().to_ascii_lowercase(),
        base.schema.column_names(),
    );
    let mut prefixes: Vec<Layout> = Vec::with_capacity(stmt.joins.len());
    let mut join_tables: Vec<&Table> = Vec::with_capacity(stmt.joins.len());
    for join in &stmt.joins {
        let right = lookup(tables, &join.table.name)?;
        prefixes.push(layout.clone());
        join_tables.push(right);
        layout.push(
            join.table.binding().to_ascii_lowercase(),
            right.schema.column_names(),
        );
    }

    if let Some(filter) = &stmt.filter {
        if filter.contains_aggregate() {
            return Err(RelError::AggregateMisuse(
                "aggregate in WHERE; use HAVING".into(),
            ));
        }
    }

    // ---- Base access path: best sarg over the base table's indexes.
    let stats = base.stats();
    let mut plan;
    let mut est_rows: f64;
    let best = stmt
        .filter
        .as_ref()
        .and_then(|filter| choose_access(filter, &layout, base, base_arity));
    match best {
        Some(cand) => {
            let est = match cand.sarg {
                Sarg::Eq(_) => (stats.rows / cand.distinct.max(1)).max(1),
                Sarg::Range { .. } => (stats.rows / 4).max(1),
            };
            est_rows = est as f64;
            plan = PhysicalPlan::IxScan(IxScanNode {
                table: base_name,
                column: cand.column,
                col_idx: cand.col_idx,
                sarg: cand.sarg,
                via: cand.via,
                est_rows: est,
            });
        }
        None => {
            est_rows = stats.rows as f64;
            plan = PhysicalPlan::SeqScan(SeqScanNode {
                table: base_name,
                rows: stats.rows,
            });
        }
    }

    // ---- Joins.
    for (i, join) in stmt.joins.iter().enumerate() {
        let right = join_tables[i];
        let right_binding = join.table.binding().to_ascii_lowercase();
        let right_name = join.table.name.to_ascii_lowercase();
        let mut after = prefixes[i].clone();
        after.push(right_binding.clone(), right.schema.column_names());

        let equi = match (&join.kind, &join.on) {
            (JoinKind::Inner, Some(on)) => {
                equi_join_offsets(on, &prefixes[i], &right_binding, right)
            }
            _ => None,
        };
        match (join.kind, equi) {
            (JoinKind::Inner, Some((left_off, right_col))) => {
                let on_sql = join.on.as_ref().expect("inner join has ON").to_sql();
                let via = right.index_kind(right_col);
                let part_tables: Vec<&Table> = std::iter::once(base)
                    .chain(join_tables[..i].iter().copied())
                    .collect();
                let compatible =
                    types_joinable(&prefixes[i], &part_tables, left_off, right, right_col);
                let distinct = right.index_distinct(right_col).unwrap_or(1).max(1);
                if let (Some(via), true) = (via, compatible && est_rows <= right.len() as f64) {
                    plan = PhysicalPlan::IxJoin(Box::new(IxJoinNode {
                        input: Box::new(plan),
                        table: right_name,
                        on_sql,
                        left_off,
                        right_col,
                        via,
                    }));
                } else {
                    plan = PhysicalPlan::HashJoin(Box::new(HashJoinNode {
                        input: Box::new(plan),
                        table: right_name,
                        on_sql,
                        left_off,
                        right_col,
                        build_rows: right.len(),
                    }));
                }
                est_rows *= (right.len() as f64 / distinct as f64).max(1.0);
            }
            (kind, _) => {
                if kind == JoinKind::Cross || kind == JoinKind::Inner {
                    est_rows *= right.len().max(1) as f64;
                }
                plan = PhysicalPlan::NlJoin(Box::new(NlJoinNode {
                    input: Box::new(plan),
                    table: right_name,
                    kind,
                    on: join.on.clone(),
                    layout: after,
                    right_width: right.schema.arity(),
                    right_rows: right.len(),
                }));
            }
        }
    }

    // ---- Residual WHERE filter (always the full predicate).
    if let Some(filter) = &stmt.filter {
        plan = PhysicalPlan::Filter(Box::new(FilterNode {
            input: Box::new(plan),
            pred: filter.clone(),
            layout: layout.clone(),
        }));
    }

    // ---- Projection / aggregation.
    let select_exprs = expand_items(&stmt.items, &layout)?;
    let columns: Vec<String> = select_exprs.iter().map(|(_, n)| n.clone()).collect();
    let has_aggregates = select_exprs.iter().any(|(e, _)| e.contains_aggregate())
        || stmt
            .having
            .as_ref()
            .map(Expr::contains_aggregate)
            .unwrap_or(false)
        || stmt.order_by.iter().any(|k| k.expr.contains_aggregate());
    if has_aggregates || !stmt.group_by.is_empty() {
        plan = PhysicalPlan::HashAggregate(Box::new(HashAggregateNode {
            input: Box::new(plan),
            group_by: stmt.group_by.clone(),
            having: stmt.having.clone(),
            select_exprs,
            columns,
            order_by: stmt.order_by.clone(),
            layout: layout.clone(),
        }));
    } else {
        plan = PhysicalPlan::Project(Box::new(ProjectNode {
            input: Box::new(plan),
            select_exprs,
            columns,
            order_by: stmt.order_by.clone(),
            layout: layout.clone(),
        }));
    }

    if stmt.distinct {
        plan = PhysicalPlan::Distinct(Box::new(DistinctNode {
            input: Box::new(plan),
        }));
    }
    if !stmt.order_by.is_empty() {
        plan = PhysicalPlan::Sort(Box::new(SortNode {
            input: Box::new(plan),
            keys: stmt.order_by.clone(),
        }));
    }
    if let Some(n) = stmt.limit {
        plan = PhysicalPlan::Limit(Box::new(LimitNode {
            input: Box::new(plan),
            n,
        }));
    }
    Ok(plan)
}

/// True when the left join key's declared type and the right key's type
/// compare identically under both the B-tree order and hash-equality —
/// i.e. the index probe is allowed to replace the hash join.
/// `part_tables[i]` is the table behind `prefix.parts[i]`.
fn types_joinable(
    prefix: &Layout,
    part_tables: &[&Table],
    left_off: usize,
    right: &Table,
    right_col: usize,
) -> bool {
    use crate::types::DataType;
    let lt = prefix
        .parts
        .iter()
        .enumerate()
        .find(|(_, (_, cols, start))| left_off >= *start && left_off < start + cols.len())
        .map(|(pi, (_, _, start))| part_tables[pi].schema.columns[left_off - start].data_type);
    let rt = right.schema.columns[right_col].data_type;
    match lt {
        Some(lt) => {
            let numeric = |t: DataType| matches!(t, DataType::Int | DataType::Double);
            lt == rt || (numeric(lt) && numeric(rt))
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};
    use crate::sql::ast::Statement;
    use crate::sql::parse_statement;
    use crate::types::DataType;

    fn catalog() -> HashMap<String, Table> {
        let mut dept = Table::new(TableSchema::new(
            "dept",
            vec![
                Column::new("dept_id", DataType::Int).primary_key(),
                Column::new("name", DataType::Text),
            ],
        ));
        for (id, name) in [(1, "cardiology"), (2, "oncology")] {
            dept.insert(vec![Datum::Int(id), Datum::Text(name.into())])
                .unwrap();
        }
        let mut emp = Table::new(TableSchema::new(
            "emp",
            vec![
                Column::new("emp_id", DataType::Int).primary_key(),
                Column::new("dept_id", DataType::Int),
                Column::new("salary", DataType::Double),
            ],
        ));
        for (id, d, s) in [(1, 1, 10.0), (2, 1, 20.0), (3, 2, 30.0), (4, 2, 40.0)] {
            emp.insert(vec![Datum::Int(id), Datum::Int(d), Datum::Double(s)])
                .unwrap();
        }
        emp.create_index("emp_dept", 1).unwrap();
        let mut m = HashMap::new();
        m.insert("dept".into(), dept);
        m.insert("emp".into(), emp);
        m
    }

    fn plan(sql: &str) -> PhysicalPlan {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => plan_select(&s, &catalog()).unwrap(),
            other => panic!("not a select: {other:?}"),
        }
    }

    #[test]
    fn equality_sarg_beats_scan_even_with_joins() {
        // The old executor refused to use indexes under joins.
        let p = plan(
            "SELECT e.salary FROM emp e JOIN dept d ON e.dept_id = d.dept_id \
             WHERE e.emp_id = 3",
        );
        let names = p.operator_names();
        assert!(names.contains(&"index scan"), "{names:?}");
        assert!(!names.contains(&"seq scan"), "{names:?}");
    }

    #[test]
    fn range_predicates_become_index_range_scans() {
        let p = plan("SELECT salary FROM emp WHERE emp_id BETWEEN 2 AND 3");
        assert!(p.operator_names().contains(&"index scan"));
        let text = p.render().join("\n");
        assert!(
            text.contains("index range scan emp.emp_id >= 2 AND emp_id <= 3"),
            "{text}"
        );

        let p = plan("SELECT salary FROM emp WHERE 2 < emp_id");
        let text = p.render().join("\n");
        assert!(text.contains("index range scan emp.emp_id > 2"), "{text}");
    }

    #[test]
    fn unindexed_or_non_literal_predicates_scan() {
        let p = plan("SELECT emp_id FROM emp WHERE salary > 15");
        assert!(p.operator_names().contains(&"seq scan"));
        let p = plan("SELECT emp_id FROM emp WHERE emp_id = dept_id");
        assert!(p.operator_names().contains(&"seq scan"));
    }

    #[test]
    fn equality_preferred_over_range() {
        let p = plan("SELECT salary FROM emp WHERE emp_id > 1 AND dept_id = 2");
        let text = p.render().join("\n");
        // dept_id = 2 (equality, secondary) wins over emp_id > 1 (range, pk).
        assert!(
            text.contains("index lookup emp.dept_id = 2 via secondary index"),
            "{text}"
        );
    }

    #[test]
    fn index_join_when_inner_key_indexed_and_outer_small() {
        let p = plan("SELECT d.name, e.salary FROM dept d JOIN emp e ON d.dept_id = e.dept_id");
        let names = p.operator_names();
        assert!(names.contains(&"index join"), "{names:?}");
        let text = p.render().join("\n");
        assert!(text.contains("index join emp"), "{text}");
    }

    #[test]
    fn hash_join_when_inner_key_unindexed_nl_otherwise() {
        // dept.name has no index → equi-join falls back to hash join.
        let p = plan("SELECT 1 FROM emp e JOIN dept d ON e.salary = d.name");
        assert!(p.operator_names().contains(&"hash join"));
        // Non-equi ON → nested loops.
        let p = plan("SELECT 1 FROM emp e JOIN dept d ON e.dept_id < d.dept_id");
        assert!(p.operator_names().contains(&"nested-loop join"));
    }

    #[test]
    fn render_and_operator_names_come_from_one_tree() {
        let p = plan(
            "SELECT dept_id, COUNT(*) n FROM emp GROUP BY dept_id \
             HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 3",
        );
        assert_eq!(
            p.operator_names(),
            vec!["seq scan", "hash aggregate", "sort", "limit"]
        );
        let text = p.render().join("\n");
        for needle in [
            "limit: 3",
            "sort: n DESC",
            "hash group by: dept_id",
            "having: (COUNT(*) > 1)",
            "project: dept_id, n",
            "seq scan emp (4 rows)",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in {text}");
        }
    }

    #[test]
    fn pk_point_builds_the_canonical_tree() {
        // Index lookup, residual filter, projection.
        let p = plan("SELECT salary FROM emp WHERE emp_id = 3");
        assert_eq!(p.operator_names(), vec!["index scan", "filter", "project"]);
        let text = p.render().join("\n");
        assert!(
            text.contains("index lookup emp.emp_id = 3 via PRIMARY KEY (~1 rows)"),
            "{text}"
        );
        assert!(text.contains("filter: (emp_id = 3)"), "{text}");

        // Qualified and flipped forms take the same path.
        let p = plan("SELECT e.salary FROM emp e WHERE 3 = e.emp_id");
        assert_eq!(p.operator_names(), vec!["index scan", "filter", "project"]);

        // Non-PK equality, extra conjuncts, and wrappers plan around
        // the same access path.
        let p = plan("SELECT salary FROM emp WHERE dept_id = 2");
        assert!(p.render().join("\n").contains("via secondary index"));
        let p = plan("SELECT salary FROM emp WHERE emp_id = 3 AND salary > 0");
        assert!(p.operator_names().contains(&"index scan"));
        let p = plan("SELECT COUNT(*) FROM emp WHERE emp_id = 3");
        assert!(p.operator_names().contains(&"hash aggregate"));
        let p = plan("SELECT salary FROM emp WHERE emp_id = 3 LIMIT 1");
        assert!(p.operator_names().contains(&"limit"));
    }

    /// `items(id pk, grp indexed, amount)` with ids 1..=100 and
    /// `grp = id % 10`.
    fn items() -> HashMap<String, Table> {
        let mut items = Table::new(TableSchema::new(
            "items",
            vec![
                Column::new("id", DataType::Int).primary_key(),
                Column::new("grp", DataType::Int),
                Column::new("amount", DataType::Int),
            ],
        ));
        for id in 1..=100 {
            items
                .insert(vec![Datum::Int(id), Datum::Int(id % 10), Datum::Int(0)])
                .unwrap();
        }
        items.create_index("items_grp", 1).unwrap();
        HashMap::from([("items".to_string(), items)])
    }

    /// The plan's rendering, its result rows, and its metrics.
    fn run_items(sql: &str) -> (String, Vec<crate::types::Row>, crate::exec::ExecMetrics) {
        let tables = items();
        let Statement::Select(s) = parse_statement(sql).unwrap() else {
            panic!("not a select: {sql}");
        };
        let p = plan_select(&s, &tables).unwrap();
        let (rs, m) = crate::exec::execute_plan(&p, &tables).unwrap();
        (p.render().join("\n"), rs.rows, m)
    }

    #[test]
    fn two_sided_range_scans_only_the_bounded_keys() {
        let (text, rows, m) = run_items("SELECT id FROM items WHERE id >= 10 AND id < 20");
        assert!(
            text.contains("index range scan items.id >= 10 AND id < 20 via PRIMARY KEY"),
            "{text}"
        );
        assert_eq!(rows.len(), 10);
        assert_eq!(m.rows_scanned, 10, "{m:?}");
        assert_eq!(m.index_hits, 10, "{m:?}");

        // Bound order in the WHERE clause does not matter.
        let (text, _, m) = run_items("SELECT id FROM items WHERE id < 20 AND 10 <= id");
        assert!(text.contains("items.id >= 10 AND id < 20"), "{text}");
        assert_eq!(m.rows_scanned, 10, "{m:?}");
    }

    #[test]
    fn range_intersection_keeps_the_tighter_bound() {
        let (text, _, _) = run_items("SELECT id FROM items WHERE id >= 5 AND id >= 7");
        assert!(
            text.contains("index range scan items.id >= 7 via"),
            "{text}"
        );
        let (text, _, _) = run_items("SELECT id FROM items WHERE id <= 9 AND id <= 30");
        assert!(
            text.contains("index range scan items.id <= 9 via"),
            "{text}"
        );
        // BETWEEN intersects like any other pair of bounds.
        let (text, rows, m) =
            run_items("SELECT id FROM items WHERE id BETWEEN 3 AND 50 AND id < 6");
        assert!(text.contains("items.id >= 3 AND id < 6"), "{text}");
        assert_eq!((rows.len(), m.rows_scanned), (3, 3));
    }

    #[test]
    fn range_intersection_prefers_excluded_at_equal_values() {
        let (text, rows, _) = run_items("SELECT id FROM items WHERE id >= 7 AND id > 7");
        assert!(text.contains("index range scan items.id > 7 via"), "{text}");
        assert_eq!(rows.first(), Some(&vec![Datum::Int(8)]));
        let (text, _, _) = run_items("SELECT id FROM items WHERE id > 7 AND id >= 7");
        assert!(text.contains("index range scan items.id > 7 via"), "{text}");
        let (text, _, _) = run_items("SELECT id FROM items WHERE id < 9 AND id <= 9");
        assert!(text.contains("index range scan items.id < 9 via"), "{text}");
    }

    #[test]
    fn contradictory_bounds_return_no_rows() {
        for sql in [
            "SELECT id FROM items WHERE id > 20 AND id < 10",
            "SELECT id FROM items WHERE id > 7 AND id < 7",
            "SELECT id FROM items WHERE id > 7 AND id <= 7",
            "SELECT id FROM items WHERE grp > 8 AND grp < 2",
        ] {
            let (text, rows, m) = run_items(sql);
            assert!(text.contains("index range scan"), "{sql}: {text}");
            assert!(rows.is_empty(), "{sql}: {rows:?}");
            assert_eq!(m.rows_scanned, 0, "{sql}: {m:?}");
        }
    }

    #[test]
    fn secondary_index_ranges_intersect_the_same_way() {
        let (text, rows, m) = run_items("SELECT id FROM items WHERE grp >= 3 AND grp < 5");
        assert!(
            text.contains("index range scan items.grp >= 3 AND grp < 5 via secondary index"),
            "{text}"
        );
        // grp 3 and 4: ten ids each.
        assert_eq!((rows.len(), m.rows_scanned), (20, 20));
        let (text, _, _) = run_items("SELECT id FROM items WHERE grp > 3 AND grp >= 3");
        assert!(text.contains("items.grp > 3 via secondary index"), "{text}");
    }

    #[test]
    fn output_columns_surface_through_wrappers() {
        let p = plan("SELECT DISTINCT salary s FROM emp ORDER BY s LIMIT 2");
        assert_eq!(p.output_columns(), ["s"]);
    }
}
