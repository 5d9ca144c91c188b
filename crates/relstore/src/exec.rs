//! Query execution: pipelined pull-based operators over a physical plan.
//!
//! [`execute_select`] plans the statement with
//! [`crate::plan::plan_select`] and runs the resulting
//! [`PhysicalPlan`] tree with a pull-based (iterator-style) executor:
//! each operator produces one row per `next` call, so `LIMIT` stops
//! pulling — and therefore stops scanning — as soon as it is
//! satisfied. An [`ExecMetrics`] struct threads through the operator
//! tree counting rows/bytes scanned, index hits, and rows spilled to
//! sorts/aggregation, and records the name of every operator that ran.
//!
//! The previous vector-at-a-time interpreter is retained verbatim as
//! [`execute_select_naive`]: it is the semantic reference for the
//! differential property tests and the baseline for the E10 benchmark.

use crate::expr::{eval, AggFunc, BinOp, EvalContext, Expr};
use crate::plan::{
    conjuncts, equi_join_offsets, expand_items, lookup, plan_select, Layout, PhysicalPlan,
};
use crate::sql::ast::{Join, JoinKind, OrderKey, SelectStmt};
use crate::storage::Table;
use crate::types::{Datum, Row};
use crate::{RelError, RelResult};
use std::collections::{HashMap, HashSet, VecDeque};

/// A query result: named columns and rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// Render as a fixed-width text table (used by examples and the
    /// figure-regeneration binaries; Figure 6 is exactly this view).
    pub fn to_text_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|d| d.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!(" {:<w$} |", c, w = widths[i]));
        }
        out.push('\n');
        sep(&mut out);
        for row in &rendered {
            out.push('|');
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!(" {:<w$} |", cell, w = widths[i]));
            }
            out.push('\n');
        }
        sep(&mut out);
        out.push_str(&format!("{} row(s)\n", self.rows.len()));
        out
    }
}

/// Execution counters threaded through the pipelined operator tree.
///
/// Rows/bytes are counted where storage is actually touched (scans,
/// hash-build sides, index probes); `rows_spilled` counts rows
/// materialized by blocking operators (sort, hash aggregation);
/// `operators` lists every plan operator that ran, bottom-up, and is
/// guaranteed to match [`PhysicalPlan::operator_names`] of the plan
/// that produced it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecMetrics {
    /// Rows read from table heaps (scans, join build/probe reads).
    pub rows_scanned: u64,
    /// Approximate bytes of those rows.
    pub bytes_scanned: u64,
    /// Index entries returned by point lookups / range scans / probes.
    pub index_hits: u64,
    /// Rows materialized by blocking operators (sort, aggregation).
    pub rows_spilled: u64,
    /// Rows delivered to the client.
    pub rows_output: u64,
    /// Operators that actually ran, leaf first.
    pub operators: Vec<&'static str>,
}

struct LayoutRow<'a> {
    layout: &'a Layout,
    row: &'a [Datum],
}

impl EvalContext for LayoutRow<'_> {
    fn resolve_column(&self, table: Option<&str>, name: &str) -> RelResult<Datum> {
        Ok(self.row[self.layout.resolve(table, name)?].clone())
    }
}

/// Group context: resolves columns from a representative row and
/// aggregates from the precomputed per-group table.
struct GroupRow<'a> {
    layout: &'a Layout,
    representative: &'a [Datum],
    aggregates: &'a [(Expr, Datum)],
}

impl EvalContext for GroupRow<'_> {
    fn resolve_column(&self, table: Option<&str>, name: &str) -> RelResult<Datum> {
        Ok(self.representative[self.layout.resolve(table, name)?].clone())
    }

    fn resolve_aggregate(&self, expr: &Expr) -> RelResult<Datum> {
        self.aggregates
            .iter()
            .find(|(e, _)| e == expr)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| RelError::AggregateMisuse("aggregate not precomputed".into()))
    }
}

/// If `expr` is `col = literal` (either side), return them. Used only
/// by the naive reference executor; the planner's sarg extraction in
/// `plan.rs` is qualifier-aware.
fn eq_col_literal(expr: &Expr) -> Option<(&str, &Datum)> {
    if let Expr::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = expr
    {
        match (&**left, &**right) {
            (Expr::Column { name, .. }, Expr::Literal(d)) => return Some((name, d)),
            (Expr::Literal(d), Expr::Column { name, .. }) => return Some((name, d)),
            _ => {}
        }
    }
    None
}

fn datum_bytes(d: &Datum) -> u64 {
    match d {
        Datum::Null | Datum::Bool(_) => 1,
        Datum::Text(s) => 8 + s.len() as u64,
        _ => 8,
    }
}

fn row_bytes(row: &[Datum]) -> u64 {
    row.iter().map(datum_bytes).sum()
}

// ---------------------------------------------------------------------
// Pipelined executor: lower half produces joined rows, upper half
// produces (visible row, hidden sort keys) pairs.
// ---------------------------------------------------------------------

trait RowOp {
    fn next(&mut self, m: &mut ExecMetrics) -> RelResult<Option<Row>>;
}

trait KeyedOp {
    fn next(&mut self, m: &mut ExecMetrics) -> RelResult<Option<(Row, Vec<Datum>)>>;
}

struct SeqScanExec<'a> {
    iter: Box<dyn Iterator<Item = &'a Row> + 'a>,
}

impl RowOp for SeqScanExec<'_> {
    fn next(&mut self, m: &mut ExecMetrics) -> RelResult<Option<Row>> {
        match self.iter.next() {
            Some(r) => {
                m.rows_scanned += 1;
                m.bytes_scanned += row_bytes(r);
                Ok(Some(r.clone()))
            }
            None => Ok(None),
        }
    }
}

struct IxScanExec<'a> {
    table: &'a Table,
    slots: std::vec::IntoIter<usize>,
}

impl RowOp for IxScanExec<'_> {
    fn next(&mut self, m: &mut ExecMetrics) -> RelResult<Option<Row>> {
        for slot in self.slots.by_ref() {
            if let Some(r) = self.table.row(slot) {
                m.rows_scanned += 1;
                m.bytes_scanned += row_bytes(r);
                return Ok(Some(r.clone()));
            }
        }
        Ok(None)
    }
}

struct FilterExec<'a> {
    input: Box<dyn RowOp + 'a>,
    pred: &'a Expr,
    layout: &'a Layout,
}

impl RowOp for FilterExec<'_> {
    fn next(&mut self, m: &mut ExecMetrics) -> RelResult<Option<Row>> {
        while let Some(row) = self.input.next(m)? {
            let ctx = LayoutRow {
                layout: self.layout,
                row: &row,
            };
            if matches!(eval(self.pred, &ctx)?, Datum::Bool(true)) {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

struct NlJoinExec<'a> {
    input: Box<dyn RowOp + 'a>,
    right_rows: Vec<&'a Row>,
    right_width: usize,
    kind: JoinKind,
    on: Option<&'a Expr>,
    layout: &'a Layout,
    cur_left: Option<Row>,
    idx: usize,
    matched: bool,
}

impl RowOp for NlJoinExec<'_> {
    fn next(&mut self, m: &mut ExecMetrics) -> RelResult<Option<Row>> {
        loop {
            if self.cur_left.is_none() {
                match self.input.next(m)? {
                    Some(l) => {
                        self.cur_left = Some(l);
                        self.idx = 0;
                        self.matched = false;
                    }
                    None => return Ok(None),
                }
            }
            let l = self.cur_left.as_ref().expect("left row set above");
            while self.idx < self.right_rows.len() {
                let r = self.right_rows[self.idx];
                self.idx += 1;
                let mut row = l.clone();
                row.extend(r.iter().cloned());
                match (self.kind, self.on) {
                    (JoinKind::Cross, _) => return Ok(Some(row)),
                    (_, Some(on)) => {
                        let ctx = LayoutRow {
                            layout: self.layout,
                            row: &row,
                        };
                        if matches!(eval(on, &ctx)?, Datum::Bool(true)) {
                            self.matched = true;
                            return Ok(Some(row));
                        }
                    }
                    (_, None) => return Ok(Some(row)),
                }
            }
            // Right side exhausted for this left row.
            let l = self.cur_left.take().expect("left row present");
            if self.kind == JoinKind::Left && !self.matched {
                let mut row = l;
                row.extend(std::iter::repeat_n(Datum::Null, self.right_width));
                return Ok(Some(row));
            }
        }
    }
}

struct HashJoinExec<'a> {
    input: Box<dyn RowOp + 'a>,
    ht: HashMap<String, Vec<&'a Row>>,
    left_off: usize,
    pending: VecDeque<Row>,
}

impl RowOp for HashJoinExec<'_> {
    fn next(&mut self, m: &mut ExecMetrics) -> RelResult<Option<Row>> {
        loop {
            if let Some(row) = self.pending.pop_front() {
                return Ok(Some(row));
            }
            match self.input.next(m)? {
                None => return Ok(None),
                Some(l) => {
                    if l[self.left_off].is_null() {
                        continue; // NULL never equi-matches
                    }
                    let mut key = String::new();
                    l[self.left_off].group_key(&mut key);
                    if let Some(matches) = self.ht.get(&key) {
                        for r in matches {
                            let mut row = l.clone();
                            row.extend(r.iter().cloned());
                            self.pending.push_back(row);
                        }
                    }
                }
            }
        }
    }
}

struct IxJoinExec<'a> {
    input: Box<dyn RowOp + 'a>,
    right: &'a Table,
    left_off: usize,
    right_col: usize,
    pending: VecDeque<Row>,
}

impl RowOp for IxJoinExec<'_> {
    fn next(&mut self, m: &mut ExecMetrics) -> RelResult<Option<Row>> {
        loop {
            if let Some(row) = self.pending.pop_front() {
                return Ok(Some(row));
            }
            match self.input.next(m)? {
                None => return Ok(None),
                Some(l) => {
                    if l[self.left_off].is_null() {
                        continue;
                    }
                    let slots = self
                        .right
                        .index_lookup(self.right_col, &l[self.left_off])
                        .unwrap_or_default();
                    m.index_hits += slots.len() as u64;
                    for s in slots {
                        if let Some(r) = self.right.row(s) {
                            m.rows_scanned += 1;
                            m.bytes_scanned += row_bytes(r);
                            let mut row = l.clone();
                            row.extend(r.iter().cloned());
                            self.pending.push_back(row);
                        }
                    }
                }
            }
        }
    }
}

struct ProjectExec<'a> {
    input: Box<dyn RowOp + 'a>,
    select_exprs: &'a [(Expr, String)],
    columns: &'a [String],
    order_by: &'a [OrderKey],
    layout: &'a Layout,
}

impl KeyedOp for ProjectExec<'_> {
    fn next(&mut self, m: &mut ExecMetrics) -> RelResult<Option<(Row, Vec<Datum>)>> {
        match self.input.next(m)? {
            None => Ok(None),
            Some(row) => {
                let ctx = LayoutRow {
                    layout: self.layout,
                    row: &row,
                };
                let mut out = Vec::with_capacity(self.select_exprs.len());
                for (e, _) in self.select_exprs {
                    out.push(eval(e, &ctx)?);
                }
                let mut keys = Vec::with_capacity(self.order_by.len());
                for k in self.order_by {
                    keys.push(order_key_value(&k.expr, &ctx, self.columns, &out)?);
                }
                Ok(Some((out, keys)))
            }
        }
    }
}

struct HashAggregateExec<'a> {
    input: Box<dyn RowOp + 'a>,
    group_by: &'a [Expr],
    having: Option<&'a Expr>,
    select_exprs: &'a [(Expr, String)],
    columns: &'a [String],
    order_by: &'a [OrderKey],
    layout: &'a Layout,
    out: Option<std::vec::IntoIter<(Row, Vec<Datum>)>>,
}

impl KeyedOp for HashAggregateExec<'_> {
    fn next(&mut self, m: &mut ExecMetrics) -> RelResult<Option<(Row, Vec<Datum>)>> {
        if self.out.is_none() {
            // Blocking operator: drain the input, then group.
            let mut rows = Vec::new();
            while let Some(r) = self.input.next(m)? {
                rows.push(r);
            }
            m.rows_spilled += rows.len() as u64;
            let produced = aggregate_rows(
                &rows,
                self.group_by,
                self.having,
                self.select_exprs,
                self.order_by,
                self.columns,
                self.layout,
            )?;
            self.out = Some(produced.into_iter());
        }
        Ok(self.out.as_mut().expect("materialized above").next())
    }
}

struct DistinctExec<'a> {
    input: Box<dyn KeyedOp + 'a>,
    seen: HashSet<String>,
}

impl KeyedOp for DistinctExec<'_> {
    fn next(&mut self, m: &mut ExecMetrics) -> RelResult<Option<(Row, Vec<Datum>)>> {
        while let Some((row, keys)) = self.input.next(m)? {
            let mut key = String::new();
            for d in &row {
                d.group_key(&mut key);
            }
            if self.seen.insert(key) {
                return Ok(Some((row, keys)));
            }
        }
        Ok(None)
    }
}

struct SortExec<'a> {
    input: Box<dyn KeyedOp + 'a>,
    descs: Vec<bool>,
    out: Option<std::vec::IntoIter<(Row, Vec<Datum>)>>,
}

impl KeyedOp for SortExec<'_> {
    fn next(&mut self, m: &mut ExecMetrics) -> RelResult<Option<(Row, Vec<Datum>)>> {
        if self.out.is_none() {
            let mut all = Vec::new();
            while let Some(pair) = self.input.next(m)? {
                all.push(pair);
            }
            m.rows_spilled += all.len() as u64;
            let descs = &self.descs;
            all.sort_by(|(_, ka), (_, kb)| {
                for (i, desc) in descs.iter().enumerate() {
                    let ord = ka[i].sort_cmp(&kb[i]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            self.out = Some(all.into_iter());
        }
        Ok(self.out.as_mut().expect("materialized above").next())
    }
}

struct LimitExec<'a> {
    input: Box<dyn KeyedOp + 'a>,
    remaining: u64,
}

impl KeyedOp for LimitExec<'_> {
    fn next(&mut self, m: &mut ExecMetrics) -> RelResult<Option<(Row, Vec<Datum>)>> {
        if self.remaining == 0 {
            return Ok(None); // stop pulling — upstream scans stop too
        }
        match self.input.next(m)? {
            Some(pair) => {
                self.remaining -= 1;
                Ok(Some(pair))
            }
            None => {
                self.remaining = 0;
                Ok(None)
            }
        }
    }
}

/// Build the row-producing lower half of the pipeline.
fn build_rowop<'a>(
    plan: &'a PhysicalPlan,
    tables: &'a HashMap<String, Table>,
    m: &mut ExecMetrics,
) -> RelResult<Box<dyn RowOp + 'a>> {
    match plan {
        PhysicalPlan::SeqScan(n) => {
            let t = lookup(tables, &n.table)?;
            m.operators.push(plan.name());
            Ok(Box::new(SeqScanExec {
                iter: Box::new(t.scan().map(|(_, r)| r)),
            }))
        }
        PhysicalPlan::IxScan(n) => {
            let t = lookup(tables, &n.table)?;
            let slots = n.sarg.probe(t, n.col_idx);
            m.index_hits += slots.len() as u64;
            m.operators.push(plan.name());
            Ok(Box::new(IxScanExec {
                table: t,
                slots: slots.into_iter(),
            }))
        }
        PhysicalPlan::NlJoin(n) => {
            let input = build_rowop(&n.input, tables, m)?;
            let right = lookup(tables, &n.table)?;
            let right_rows: Vec<&Row> = right.scan().map(|(_, r)| r).collect();
            m.rows_scanned += right_rows.len() as u64;
            m.bytes_scanned += right_rows.iter().map(|r| row_bytes(r)).sum::<u64>();
            m.operators.push(plan.name());
            Ok(Box::new(NlJoinExec {
                input,
                right_rows,
                right_width: n.right_width,
                kind: n.kind,
                on: n.on.as_ref(),
                layout: &n.layout,
                cur_left: None,
                idx: 0,
                matched: false,
            }))
        }
        PhysicalPlan::HashJoin(n) => {
            let input = build_rowop(&n.input, tables, m)?;
            let right = lookup(tables, &n.table)?;
            let mut ht: HashMap<String, Vec<&Row>> = HashMap::new();
            for (_, r) in right.scan() {
                m.rows_scanned += 1;
                m.bytes_scanned += row_bytes(r);
                if r[n.right_col].is_null() {
                    continue;
                }
                let mut key = String::new();
                r[n.right_col].group_key(&mut key);
                ht.entry(key).or_default().push(r);
            }
            m.operators.push(plan.name());
            Ok(Box::new(HashJoinExec {
                input,
                ht,
                left_off: n.left_off,
                pending: VecDeque::new(),
            }))
        }
        PhysicalPlan::IxJoin(n) => {
            let input = build_rowop(&n.input, tables, m)?;
            let right = lookup(tables, &n.table)?;
            m.operators.push(plan.name());
            Ok(Box::new(IxJoinExec {
                input,
                right,
                left_off: n.left_off,
                right_col: n.right_col,
                pending: VecDeque::new(),
            }))
        }
        PhysicalPlan::Filter(n) => {
            let input = build_rowop(&n.input, tables, m)?;
            m.operators.push(plan.name());
            Ok(Box::new(FilterExec {
                input,
                pred: &n.pred,
                layout: &n.layout,
            }))
        }
        other => Err(RelError::Unsupported(format!(
            "operator {} cannot feed a row pipeline",
            other.name()
        ))),
    }
}

/// Build the keyed upper half of the pipeline.
fn build_keyed<'a>(
    plan: &'a PhysicalPlan,
    tables: &'a HashMap<String, Table>,
    m: &mut ExecMetrics,
) -> RelResult<Box<dyn KeyedOp + 'a>> {
    match plan {
        PhysicalPlan::Limit(n) => {
            let input = build_keyed(&n.input, tables, m)?;
            m.operators.push(plan.name());
            Ok(Box::new(LimitExec {
                input,
                remaining: n.n,
            }))
        }
        PhysicalPlan::Sort(n) => {
            let input = build_keyed(&n.input, tables, m)?;
            m.operators.push(plan.name());
            Ok(Box::new(SortExec {
                input,
                descs: n.keys.iter().map(|k| k.desc).collect(),
                out: None,
            }))
        }
        PhysicalPlan::Distinct(n) => {
            let input = build_keyed(&n.input, tables, m)?;
            m.operators.push(plan.name());
            Ok(Box::new(DistinctExec {
                input,
                seen: HashSet::new(),
            }))
        }
        PhysicalPlan::Project(n) => {
            let input = build_rowop(&n.input, tables, m)?;
            m.operators.push(plan.name());
            Ok(Box::new(ProjectExec {
                input,
                select_exprs: &n.select_exprs,
                columns: &n.columns,
                order_by: &n.order_by,
                layout: &n.layout,
            }))
        }
        PhysicalPlan::HashAggregate(n) => {
            let input = build_rowop(&n.input, tables, m)?;
            m.operators.push(plan.name());
            Ok(Box::new(HashAggregateExec {
                input,
                group_by: &n.group_by,
                having: n.having.as_ref(),
                select_exprs: &n.select_exprs,
                columns: &n.columns,
                order_by: &n.order_by,
                layout: &n.layout,
                out: None,
            }))
        }
        other => Err(RelError::Unsupported(format!(
            "plan root {} lacks a projection",
            other.name()
        ))),
    }
}

/// Execute a previously planned [`PhysicalPlan`], returning the result
/// set and the execution metrics it generated.
pub fn execute_plan(
    plan: &PhysicalPlan,
    tables: &HashMap<String, Table>,
) -> RelResult<(ResultSet, ExecMetrics)> {
    let mut m = ExecMetrics::default();
    let mut op = build_keyed(plan, tables, &mut m)?;
    let mut rows = Vec::new();
    while let Some((row, _)) = op.next(&mut m)? {
        m.rows_output += 1;
        rows.push(row);
    }
    drop(op);
    Ok((
        ResultSet {
            columns: plan.output_columns().to_vec(),
            rows,
        },
        m,
    ))
}

/// Execute a SELECT against the given tables (plan + pipeline).
pub fn execute_select(stmt: &SelectStmt, tables: &HashMap<String, Table>) -> RelResult<ResultSet> {
    execute_select_with_metrics(stmt, tables).map(|(rs, _)| rs)
}

/// Execute a SELECT and return the [`ExecMetrics`] alongside the rows.
pub fn execute_select_with_metrics(
    stmt: &SelectStmt,
    tables: &HashMap<String, Table>,
) -> RelResult<(ResultSet, ExecMetrics)> {
    let plan = plan_select(stmt, tables)?;
    execute_plan(&plan, tables)
}

/// Describe the plan `execute_select` would run, without executing it.
///
/// This renders the *same* [`PhysicalPlan`] the executor runs — there
/// is no separate description path to drift.
pub fn explain_select(
    stmt: &SelectStmt,
    tables: &HashMap<String, Table>,
) -> RelResult<Vec<String>> {
    Ok(plan_select(stmt, tables)?.render())
}

/// Evaluate an ORDER BY key: a bare column naming an output alias sorts
/// by the output column; otherwise the expression is evaluated in `ctx`.
fn order_key_value(
    expr: &Expr,
    ctx: &dyn EvalContext,
    columns: &[String],
    out_row: &[Datum],
) -> RelResult<Datum> {
    if let Expr::Column { table: None, name } = expr {
        if let Some(i) = columns.iter().position(|c| c == name) {
            return Ok(out_row[i].clone());
        }
    }
    eval(expr, ctx)
}

/// Group `rows`, compute aggregates, apply HAVING, and evaluate the
/// select list and ORDER BY keys per surviving group. Shared between
/// the pipelined `HashAggregateExec` and the naive reference executor.
#[allow(clippy::too_many_arguments)]
fn aggregate_rows(
    rows: &[Row],
    group_by: &[Expr],
    having: Option<&Expr>,
    select_exprs: &[(Expr, String)],
    order_by: &[OrderKey],
    columns: &[String],
    layout: &Layout,
) -> RelResult<Vec<(Row, Vec<Datum>)>> {
    let groups = build_groups(rows, group_by, layout)?;
    let mut produced = Vec::with_capacity(groups.len());
    for group in groups {
        let aggregates = compute_aggregates(&group, select_exprs, having, order_by, layout)?;
        let representative: &[Datum] = group.first().map(|r| r.as_slice()).unwrap_or(&[]);
        // An empty representative only happens for zero-row ungrouped
        // aggregates; column references would error there, which is
        // the correct SQL behaviour for e.g. `SELECT x, COUNT(*)`.
        let dummy: Row;
        let rep = if representative.is_empty() {
            dummy = vec![Datum::Null; layout.width];
            &dummy[..]
        } else {
            representative
        };
        let ctx = GroupRow {
            layout,
            representative: rep,
            aggregates: &aggregates,
        };
        if let Some(having) = having {
            if !matches!(eval(having, &ctx)?, Datum::Bool(true)) {
                continue;
            }
        }
        let mut out = Vec::with_capacity(select_exprs.len());
        for (e, _) in select_exprs {
            out.push(eval(e, &ctx)?);
        }
        let mut keys = Vec::with_capacity(order_by.len());
        for k in order_by {
            keys.push(order_key_value(&k.expr, &ctx, columns, &out)?);
        }
        produced.push((out, keys));
    }
    Ok(produced)
}

/// Execute a SELECT with the original vector-at-a-time interpreter.
///
/// Retained as the semantic reference: the differential property tests
/// assert the pipelined executor produces the same rows, and the E10
/// benchmark uses it as the baseline. Indexes are only consulted for
/// single-table equality predicates, matching the pre-planner
/// behaviour.
pub fn execute_select_naive(
    stmt: &SelectStmt,
    tables: &HashMap<String, Table>,
) -> RelResult<ResultSet> {
    // ---- FROM + JOIN -------------------------------------------------
    let base = lookup(tables, &stmt.from.name)?;
    let mut layout = Layout::new();
    layout.push(
        stmt.from.binding().to_ascii_lowercase(),
        base.schema.column_names(),
    );

    // Index-assisted base scan: single-table query with an indexable
    // equality conjunct.
    let mut rows: Vec<Row> = if stmt.joins.is_empty() {
        let mut indexed: Option<Vec<Row>> = None;
        if let Some(filter) = &stmt.filter {
            for c in conjuncts(filter) {
                if let Some((col, value)) = eq_col_literal(c) {
                    if let Some(ci) = base.schema.column_index(col) {
                        if let Some(slots) = base.index_lookup(ci, value) {
                            indexed = Some(
                                slots
                                    .into_iter()
                                    .filter_map(|s| base.row(s).cloned())
                                    .collect(),
                            );
                            break;
                        }
                    }
                }
            }
        }
        indexed.unwrap_or_else(|| base.scan().map(|(_, r)| r.clone()).collect())
    } else {
        base.scan().map(|(_, r)| r.clone()).collect()
    };

    for join in &stmt.joins {
        rows = apply_join(rows, &mut layout, join, tables)?;
    }

    // ---- WHERE --------------------------------------------------------
    if let Some(filter) = &stmt.filter {
        if filter.contains_aggregate() {
            return Err(RelError::AggregateMisuse(
                "aggregate in WHERE; use HAVING".into(),
            ));
        }
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            let ctx = LayoutRow {
                layout: &layout,
                row: &row,
            };
            if matches!(eval(filter, &ctx)?, Datum::Bool(true)) {
                kept.push(row);
            }
        }
        rows = kept;
    }

    // ---- Grouping / projection ----------------------------------------
    let select_exprs = expand_items(&stmt.items, &layout)?;
    let has_aggregates = select_exprs.iter().any(|(e, _)| e.contains_aggregate())
        || stmt
            .having
            .as_ref()
            .map(Expr::contains_aggregate)
            .unwrap_or(false)
        || stmt.order_by.iter().any(|k| k.expr.contains_aggregate());

    let columns: Vec<String> = select_exprs.iter().map(|(_, n)| n.clone()).collect();

    // Each produced row carries hidden sort keys after the visible columns.
    let mut produced: Vec<(Row, Vec<Datum>)> = if has_aggregates || !stmt.group_by.is_empty() {
        aggregate_rows(
            &rows,
            &stmt.group_by,
            stmt.having.as_ref(),
            &select_exprs,
            &stmt.order_by,
            &columns,
            &layout,
        )?
    } else {
        let mut produced = Vec::with_capacity(rows.len());
        for row in &rows {
            let ctx = LayoutRow {
                layout: &layout,
                row,
            };
            let mut out = Vec::with_capacity(select_exprs.len());
            for (e, _) in &select_exprs {
                out.push(eval(e, &ctx)?);
            }
            let mut keys = Vec::with_capacity(stmt.order_by.len());
            for k in &stmt.order_by {
                keys.push(order_key_value(&k.expr, &ctx, &columns, &out)?);
            }
            produced.push((out, keys));
        }
        produced
    };

    // ---- DISTINCT -------------------------------------------------------
    if stmt.distinct {
        let mut seen = HashSet::new();
        produced.retain(|(row, _)| {
            let mut key = String::new();
            for d in row {
                d.group_key(&mut key);
            }
            seen.insert(key)
        });
    }

    // ---- ORDER BY -------------------------------------------------------
    if !stmt.order_by.is_empty() {
        let descs: Vec<bool> = stmt.order_by.iter().map(|k| k.desc).collect();
        produced.sort_by(|(_, ka), (_, kb)| {
            for (i, desc) in descs.iter().enumerate() {
                let ord = ka[i].sort_cmp(&kb[i]);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    // ---- LIMIT ----------------------------------------------------------
    if let Some(n) = stmt.limit {
        produced.truncate(n as usize);
    }

    Ok(ResultSet {
        columns,
        rows: produced.into_iter().map(|(r, _)| r).collect(),
    })
}

/// Attach one join step to the current row set (naive executor).
fn apply_join(
    left_rows: Vec<Row>,
    layout: &mut Layout,
    join: &Join,
    tables: &HashMap<String, Table>,
) -> RelResult<Vec<Row>> {
    let right = lookup(tables, &join.table.name)?;
    let right_binding = join.table.binding().to_ascii_lowercase();
    let right_cols = right.schema.column_names();
    let right_width = right_cols.len();

    // Try the hash-join fast path for inner equi-joins.
    let equi = match (&join.kind, &join.on) {
        (JoinKind::Inner, Some(on)) => equi_join_offsets(on, layout, &right_binding, right),
        _ => None,
    };

    layout.push(right_binding.clone(), right_cols);

    let right_rows: Vec<&Row> = right.scan().map(|(_, r)| r).collect();

    let mut out = Vec::new();
    match join.kind {
        JoinKind::Cross => {
            for l in &left_rows {
                for r in &right_rows {
                    let mut row = l.clone();
                    row.extend(r.iter().cloned());
                    out.push(row);
                }
            }
        }
        JoinKind::Inner => {
            if let Some((l_off, r_off)) = equi {
                // Hash join: build on the right side.
                let mut ht: HashMap<String, Vec<&Row>> = HashMap::new();
                for r in &right_rows {
                    if r[r_off].is_null() {
                        continue; // NULL never equi-matches
                    }
                    let mut key = String::new();
                    r[r_off].group_key(&mut key);
                    ht.entry(key).or_default().push(r);
                }
                for l in &left_rows {
                    if l[l_off].is_null() {
                        continue;
                    }
                    let mut key = String::new();
                    l[l_off].group_key(&mut key);
                    if let Some(matches) = ht.get(&key) {
                        for r in matches {
                            let mut row = l.clone();
                            row.extend(r.iter().cloned());
                            out.push(row);
                        }
                    }
                }
            } else {
                let on = join.on.as_ref().expect("inner join has ON");
                for l in &left_rows {
                    for r in &right_rows {
                        let mut row = l.clone();
                        row.extend(r.iter().cloned());
                        let ctx = LayoutRow { layout, row: &row };
                        if matches!(eval(on, &ctx)?, Datum::Bool(true)) {
                            out.push(row);
                        }
                    }
                }
            }
        }
        JoinKind::Left => {
            let on = join.on.as_ref().expect("left join has ON");
            for l in &left_rows {
                let mut matched = false;
                for r in &right_rows {
                    let mut row = l.clone();
                    row.extend(r.iter().cloned());
                    let ctx = LayoutRow { layout, row: &row };
                    if matches!(eval(on, &ctx)?, Datum::Bool(true)) {
                        matched = true;
                        out.push(row);
                    }
                }
                if !matched {
                    let mut row = l.clone();
                    row.extend(std::iter::repeat_n(Datum::Null, right_width));
                    out.push(row);
                }
            }
        }
    }
    Ok(out)
}

/// Partition rows into groups by the GROUP BY keys (one all-encompassing
/// group when the key list is empty).
fn build_groups(rows: &[Row], group_by: &[Expr], layout: &Layout) -> RelResult<Vec<Vec<Row>>> {
    if group_by.is_empty() {
        return Ok(vec![rows.to_vec()]);
    }
    let mut order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, Vec<Row>> = HashMap::new();
    for row in rows {
        let ctx = LayoutRow { layout, row };
        let mut key = String::new();
        for g in group_by {
            eval(g, &ctx)?.group_key(&mut key);
        }
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(row.clone());
    }
    Ok(order
        .into_iter()
        .map(|k| groups.remove(&k).expect("key present"))
        .collect())
}

/// Compute every aggregate appearing in SELECT, HAVING, or ORDER BY for
/// one group.
fn compute_aggregates(
    group: &[Row],
    select_exprs: &[(Expr, String)],
    having: Option<&Expr>,
    order_by: &[OrderKey],
    layout: &Layout,
) -> RelResult<Vec<(Expr, Datum)>> {
    let mut agg_exprs: Vec<&Expr> = Vec::new();
    for (e, _) in select_exprs {
        e.collect_aggregates(&mut agg_exprs);
    }
    if let Some(h) = having {
        h.collect_aggregates(&mut agg_exprs);
    }
    for k in order_by {
        k.expr.collect_aggregates(&mut agg_exprs);
    }

    let mut out = Vec::with_capacity(agg_exprs.len());
    for agg in agg_exprs {
        let (func, arg, distinct) = match agg {
            Expr::Aggregate {
                func,
                arg,
                distinct,
            } => (*func, arg.as_deref(), *distinct),
            _ => unreachable!("collect_aggregates returns aggregates"),
        };
        let value = run_aggregate(func, arg, distinct, group, layout)?;
        out.push((agg.clone(), value));
    }
    Ok(out)
}

fn run_aggregate(
    func: AggFunc,
    arg: Option<&Expr>,
    distinct: bool,
    group: &[Row],
    layout: &Layout,
) -> RelResult<Datum> {
    // Gather the non-null argument values (COUNT(*) counts rows directly).
    let mut values: Vec<Datum> = Vec::new();
    match arg {
        None => {
            return Ok(Datum::Int(group.len() as i64));
        }
        Some(a) => {
            if a.contains_aggregate() {
                return Err(RelError::AggregateMisuse("nested aggregate".into()));
            }
            for row in group {
                let ctx = LayoutRow { layout, row };
                let v = eval(a, &ctx)?;
                if !v.is_null() {
                    values.push(v);
                }
            }
        }
    }
    if distinct {
        let mut seen = HashSet::new();
        values.retain(|v| {
            let mut k = String::new();
            v.group_key(&mut k);
            seen.insert(k)
        });
    }
    Ok(match func {
        AggFunc::Count => Datum::Int(values.len() as i64),
        AggFunc::Sum | AggFunc::Avg => {
            if values.is_empty() {
                Datum::Null
            } else {
                let mut all_int = true;
                let mut sum = 0f64;
                let mut isum = 0i64;
                for v in &values {
                    match v {
                        Datum::Int(i) => {
                            isum = isum.wrapping_add(*i);
                            sum += *i as f64;
                        }
                        Datum::Double(d) => {
                            all_int = false;
                            sum += d;
                        }
                        other => {
                            return Err(RelError::TypeMismatch {
                                expected: "numeric aggregate input".into(),
                                found: format!("{other}"),
                            })
                        }
                    }
                }
                if func == AggFunc::Sum {
                    if all_int {
                        Datum::Int(isum)
                    } else {
                        Datum::Double(sum)
                    }
                } else {
                    Datum::Double(sum / values.len() as f64)
                }
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<Datum> = None;
            for v in values {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = match v.sql_cmp(&b) {
                            Some(std::cmp::Ordering::Less) => func == AggFunc::Min,
                            Some(std::cmp::Ordering::Greater) => func == AggFunc::Max,
                            _ => false,
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            best.unwrap_or(Datum::Null)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};
    use crate::sql::ast::Statement;
    use crate::sql::parse_statement;
    use crate::types::DataType;

    fn catalog() -> HashMap<String, Table> {
        let mut patient = Table::new(TableSchema::new(
            "patient",
            vec![
                Column::new("patient_id", DataType::Int).primary_key(),
                Column::new("name", DataType::Text),
                Column::new("gender", DataType::Text),
            ],
        ));
        for (id, name, g) in [
            (1, "Alice", "F"),
            (2, "Bob", "M"),
            (3, "Carol", "F"),
            (4, "Dan", "M"),
        ] {
            patient
                .insert(vec![
                    Datum::Int(id),
                    Datum::Text(name.into()),
                    Datum::Text(g.into()),
                ])
                .unwrap();
        }

        let mut history = Table::new(TableSchema::new(
            "history",
            vec![
                Column::new("patient_id", DataType::Int),
                Column::new("description", DataType::Text),
                Column::new("cost", DataType::Double),
            ],
        ));
        for (pid, desc, cost) in [
            (1, "flu", 100.0),
            (1, "checkup", 50.0),
            (2, "fracture", 900.0),
            (3, "flu", 120.0),
        ] {
            history
                .insert(vec![
                    Datum::Int(pid),
                    Datum::Text(desc.into()),
                    Datum::Double(cost),
                ])
                .unwrap();
        }

        let mut m = HashMap::new();
        m.insert("patient".to_string(), patient);
        m.insert("history".to_string(), history);
        m
    }

    fn run(sql: &str) -> ResultSet {
        let stmt = parse_statement(sql).unwrap();
        match stmt {
            Statement::Select(s) => execute_select(&s, &catalog()).unwrap(),
            other => panic!("not a select: {other:?}"),
        }
    }

    fn run_err(sql: &str) -> RelError {
        let stmt = parse_statement(sql).unwrap();
        match stmt {
            Statement::Select(s) => execute_select(&s, &catalog()).unwrap_err(),
            other => panic!("not a select: {other:?}"),
        }
    }

    fn run_with_metrics(sql: &str) -> (ResultSet, ExecMetrics) {
        let stmt = parse_statement(sql).unwrap();
        match stmt {
            Statement::Select(s) => execute_select_with_metrics(&s, &catalog()).unwrap(),
            other => panic!("not a select: {other:?}"),
        }
    }

    #[test]
    fn select_star() {
        let rs = run("SELECT * FROM patient");
        assert_eq!(rs.columns, vec!["patient_id", "name", "gender"]);
        assert_eq!(rs.rows.len(), 4);
    }

    #[test]
    fn where_filter_and_projection() {
        let rs = run("SELECT name FROM patient WHERE gender = 'F' ORDER BY name");
        assert_eq!(
            rs.rows,
            vec![
                vec![Datum::Text("Alice".into())],
                vec![Datum::Text("Carol".into())]
            ]
        );
    }

    #[test]
    fn index_lookup_path_gives_same_answer() {
        // patient_id is the PK; the executor should use the index.
        let rs = run("SELECT name FROM patient WHERE patient_id = 3");
        assert_eq!(rs.rows, vec![vec![Datum::Text("Carol".into())]]);
        // Equality that matches nothing.
        let rs = run("SELECT name FROM patient WHERE patient_id = 99");
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn inner_join_hash_path() {
        let rs = run("SELECT p.name, h.description FROM patient p \
             JOIN history h ON p.patient_id = h.patient_id ORDER BY p.name, h.description");
        assert_eq!(rs.rows.len(), 4);
        assert_eq!(rs.rows[0][0], Datum::Text("Alice".into()));
    }

    #[test]
    fn left_join_pads_nulls() {
        let rs = run("SELECT p.name, h.description FROM patient p \
             LEFT JOIN history h ON p.patient_id = h.patient_id \
             WHERE h.description IS NULL");
        assert_eq!(rs.rows, vec![vec![Datum::Text("Dan".into()), Datum::Null]]);
    }

    #[test]
    fn cross_join_cardinality() {
        let rs = run("SELECT * FROM patient a, patient b");
        assert_eq!(rs.rows.len(), 16);
    }

    #[test]
    fn group_by_with_aggregates_and_having() {
        let rs = run(
            "SELECT p.name, COUNT(*) n, SUM(h.cost) total FROM patient p \
             JOIN history h ON p.patient_id = h.patient_id \
             GROUP BY p.name HAVING COUNT(*) >= 2",
        );
        assert_eq!(rs.columns, vec!["name", "n", "total"]);
        assert_eq!(
            rs.rows,
            vec![vec![
                Datum::Text("Alice".into()),
                Datum::Int(2),
                Datum::Double(150.0)
            ]]
        );
    }

    #[test]
    fn ungrouped_aggregates_over_empty_input() {
        let rs = run("SELECT COUNT(*), SUM(cost), MIN(cost) FROM history WHERE cost > 10000");
        assert_eq!(rs.rows, vec![vec![Datum::Int(0), Datum::Null, Datum::Null]]);
    }

    #[test]
    fn avg_min_max() {
        let rs = run("SELECT AVG(cost), MIN(cost), MAX(cost) FROM history");
        assert_eq!(
            rs.rows,
            vec![vec![
                Datum::Double(292.5),
                Datum::Double(50.0),
                Datum::Double(900.0)
            ]]
        );
    }

    #[test]
    fn count_distinct() {
        let rs = run("SELECT COUNT(DISTINCT description) FROM history");
        assert_eq!(rs.rows, vec![vec![Datum::Int(3)]]);
    }

    #[test]
    fn distinct_rows() {
        let rs = run("SELECT DISTINCT gender FROM patient ORDER BY gender");
        assert_eq!(
            rs.rows,
            vec![vec![Datum::Text("F".into())], vec![Datum::Text("M".into())]]
        );
    }

    #[test]
    fn order_by_desc_and_alias_and_limit() {
        let rs = run("SELECT name, patient_id pid FROM patient ORDER BY pid DESC LIMIT 2");
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][1], Datum::Int(4));
        assert_eq!(rs.rows[1][1], Datum::Int(3));
    }

    #[test]
    fn order_by_aggregate() {
        let rs = run(
            "SELECT patient_id, COUNT(*) FROM history GROUP BY patient_id \
             ORDER BY COUNT(*) DESC, patient_id LIMIT 1",
        );
        assert_eq!(rs.rows, vec![vec![Datum::Int(1), Datum::Int(2)]]);
    }

    #[test]
    fn ambiguous_column_detected() {
        assert!(matches!(
            run_err(
                "SELECT patient_id FROM patient p JOIN history h ON p.patient_id = h.patient_id"
            ),
            RelError::AmbiguousColumn(_)
        ));
    }

    #[test]
    fn aggregate_in_where_rejected() {
        assert!(matches!(
            run_err("SELECT * FROM history WHERE COUNT(*) > 1"),
            RelError::AggregateMisuse(_)
        ));
    }

    #[test]
    fn unknown_table_and_column() {
        assert!(matches!(
            run_err("SELECT * FROM ghosts"),
            RelError::NoSuchTable(_)
        ));
        assert!(matches!(
            run_err("SELECT nope FROM patient"),
            RelError::NoSuchColumn(_)
        ));
    }

    #[test]
    fn expression_projection_names() {
        let rs = run("SELECT cost * 2 FROM history LIMIT 1");
        assert_eq!(rs.columns, vec!["(cost * 2)"]);
    }

    #[test]
    fn text_table_rendering() {
        let rs = run("SELECT name FROM patient WHERE patient_id = 1");
        let text = rs.to_text_table();
        assert!(text.contains("| name"));
        assert!(text.contains("| Alice"));
        assert!(text.contains("1 row(s)"));
    }

    #[test]
    fn qualified_wildcard() {
        let rs =
            run("SELECT h.* FROM patient p JOIN history h ON p.patient_id = h.patient_id LIMIT 1");
        assert_eq!(rs.columns, vec!["patient_id", "description", "cost"]);
    }

    #[test]
    fn limit_stops_pulling_from_the_scan() {
        let (rs, m) = run_with_metrics("SELECT name FROM patient LIMIT 2");
        assert_eq!(rs.rows.len(), 2);
        // Pull-based pipeline: only the two delivered rows were scanned.
        assert_eq!(m.rows_scanned, 2);
        assert_eq!(m.rows_output, 2);
    }

    #[test]
    fn metrics_operators_match_the_plan() {
        let tables = catalog();
        for sql in [
            "SELECT * FROM patient",
            "SELECT name FROM patient WHERE patient_id = 3",
            "SELECT p.name FROM patient p JOIN history h ON p.patient_id = h.patient_id",
            "SELECT gender, COUNT(*) FROM patient GROUP BY gender ORDER BY gender LIMIT 1",
            "SELECT DISTINCT gender FROM patient",
        ] {
            let stmt = match parse_statement(sql).unwrap() {
                Statement::Select(s) => s,
                other => panic!("not a select: {other:?}"),
            };
            let plan = plan_select(&stmt, &tables).unwrap();
            let (_, m) = execute_plan(&plan, &tables).unwrap();
            assert_eq!(m.operators, plan.operator_names(), "{sql}");
        }
    }

    #[test]
    fn index_scan_counts_hits_and_joined_queries_use_indexes() {
        // The pre-planner executor refused to use indexes under joins;
        // the sarg on patient_id must now hit the PK index.
        let (rs, m) = run_with_metrics(
            "SELECT p.name, h.description FROM patient p \
             JOIN history h ON p.patient_id = h.patient_id WHERE p.patient_id = 1",
        );
        assert_eq!(rs.rows.len(), 2);
        assert!(m.index_hits >= 1, "{m:?}");
        assert!(
            m.operators.contains(&"index scan"),
            "expected index scan in {:?}",
            m.operators
        );
    }

    #[test]
    fn planned_matches_naive_on_the_corpus() {
        let tables = catalog();
        for sql in [
            "SELECT * FROM patient",
            "SELECT name FROM patient WHERE patient_id = 3",
            "SELECT name FROM patient WHERE patient_id > 2 ORDER BY name",
            "SELECT p.name, h.cost FROM patient p JOIN history h \
             ON p.patient_id = h.patient_id ORDER BY p.name, h.cost",
            "SELECT p.name, h.description FROM patient p LEFT JOIN history h \
             ON p.patient_id = h.patient_id ORDER BY p.name, h.description",
            "SELECT gender, COUNT(*) n, SUM(patient_id) FROM patient \
             GROUP BY gender ORDER BY gender",
            "SELECT DISTINCT description FROM history ORDER BY description",
            "SELECT COUNT(*) FROM patient WHERE patient_id BETWEEN 2 AND 3",
        ] {
            let stmt = match parse_statement(sql).unwrap() {
                Statement::Select(s) => s,
                other => panic!("not a select: {other:?}"),
            };
            let planned = execute_select(&stmt, &tables).unwrap();
            let naive = execute_select_naive(&stmt, &tables).unwrap();
            assert_eq!(planned, naive, "{sql}");
        }
    }
}
