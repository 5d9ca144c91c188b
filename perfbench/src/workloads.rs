//! The three workloads: how each op is generated from the seed, how it
//! runs untraced (`Processor::submit`, the measured path) and traced
//! (the same statement driven through each layer's public functions,
//! with spans), and how its answer is checked.

use crate::spans::{Recorder, OP_READ, OP_WRITE};
use crate::world::{initial_amount, initial_sum, item, World, BENCH_SITE, ROWS};
use std::collections::BTreeMap;
use std::sync::Arc;
use webfindit::processor::{Processor, Response};
use webfindit::value_map::value_to_result_set;
use webfindit::wire::cdr::ByteOrder;
use webfindit::wire::giop::{self, GiopMessage};
use webfindit::wire::{Ior, Value};
use webfindit::{BrowserSession, DiscoveryEngine, FedExecutor, FedOutcome, Federation};
use webfindit_base::rng::StdRng;
use webfindit_base::sync::Mutex;
use webfindit_connect::{CompensatingConnection, Connection};
use webfindit_relstore::{Database, Datum};
use webfindit_tassili::{parse, Statement};

/// Consecutive ids one `bulk_rw` range read returns.
const RANGE: i64 = 2_000;
/// The coalition the federated union spans, and the site asking.
const COALITION: &str = "Research";
const FED_ORIGIN: &str = "QUT Research";
/// Ops run through `submit` during set-up so caches and channels are
/// warm before timing.
const WARM_OPS: usize = 64;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    PointLookup,
    FederatedUnion,
    BulkRw,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "point_lookup" => Some(Workload::PointLookup),
            "federated_union" => Some(Workload::FederatedUnion),
            "bulk_rw" => Some(Workload::BulkRw),
            _ => None,
        }
    }

    /// Closed-loop clients, at most the machine's two cores.
    pub fn clients(self) -> usize {
        match self {
            Workload::FederatedUnion => 1,
            Workload::PointLookup | Workload::BulkRw => 2,
        }
    }
}

/// One statement, as drawn from a client's seeded stream.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Point(i64),
    Fed(usize),
    Range(i64),
    Update(i64),
}

impl Op {
    pub fn class(self) -> &'static str {
        match self {
            Op::Update(_) => OP_WRITE,
            _ => OP_READ,
        }
    }
}

/// A client's private state: its input stream, its browser session, and
/// what it has had acknowledged.
pub struct Client {
    pub id: usize,
    rng: StdRng,
    session: BrowserSession,
    /// Acknowledged `+1` updates per id.
    pub acked: BTreeMap<i64, i64>,
    /// Rows the client's reads carried back (the base of
    /// `relstore.rows_scanned_per_row`).
    pub rows_out: u64,
}

/// The deployment plus everything a run needs to drive and check it.
pub struct Bench {
    pub world: World,
    seed: u64,
    workload: Workload,
    processor: Processor,
    engine: DiscoveryEngine,
    fedex: FedExecutor,
    /// Federated filter constants and the sequential
    /// (`set_fed_workers(1)`) reference answer of each.
    fed_refs: Vec<(i64, FedOutcome)>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Bench {
    /// Deploy, load, compute references, and warm: everything `setup_s`
    /// times.
    pub fn setup(seed: u64, workload: Workload) -> Result<Bench, String> {
        let world = World::build(seed)?;
        let fed = Arc::clone(world.fed());
        let mut bench = Bench {
            processor: Processor::new(Arc::clone(&fed)),
            engine: DiscoveryEngine::new(Arc::clone(&fed)),
            fedex: FedExecutor::new(Arc::clone(&fed)),
            world,
            seed,
            workload,
            fed_refs: Vec::new(),
        };
        if workload == Workload::FederatedUnion {
            bench.fed_refs = fed_references(&fed)?;
        }
        let mut warm = bench.client(usize::MAX);
        for _ in 0..WARM_OPS {
            let op = match bench.next_op(&mut warm) {
                Op::Update(k) => Op::Point(k),
                op => op,
            };
            bench.run_op(&mut warm, op)?;
        }
        Ok(bench)
    }

    pub fn fed(&self) -> &Arc<Federation> {
        self.world.fed()
    }

    pub fn client(&self, id: usize) -> Client {
        let site = match self.workload {
            Workload::FederatedUnion => FED_ORIGIN,
            _ => BENCH_SITE,
        };
        Client {
            id,
            rng: StdRng::seed_from_u64(self.seed ^ (id as u64).wrapping_mul(0xA076_1D64_78BD_642F)),
            session: BrowserSession::new(site),
            acked: BTreeMap::new(),
            rows_out: 0,
        }
    }

    pub fn next_op(&self, c: &mut Client) -> Op {
        match self.workload {
            Workload::PointLookup => Op::Point(c.rng.gen_range(1..=ROWS)),
            Workload::FederatedUnion => Op::Fed(c.rng.gen_range(0..self.fed_refs.len())),
            // Client 0 reads ranges, client 1 writes; the warm-up
            // client reads.
            Workload::BulkRw if c.id == 1 => Op::Update(c.rng.gen_range(1..=ROWS)),
            Workload::BulkRw => Op::Range(c.rng.gen_range(1..=ROWS - RANGE + 1)),
        }
    }

    fn text(&self, op: Op) -> String {
        match op {
            Op::Point(k) => native(&format!("select * from items where id = {k}")),
            Op::Range(a) => native(&format!(
                "select * from items where id >= {a} and id < {}",
                a + RANGE
            )),
            Op::Update(k) => native(&format!(
                "update items set amount = amount + 1 where id = {k}"
            )),
            Op::Fed(i) => fed_statement(self.fed_refs[i].0),
        }
    }

    /// The measured path: one statement through `Processor::submit`,
    /// then its check. Returns the statement's latency in µs.
    pub fn run_op(&self, c: &mut Client, op: Op) -> Result<f64, String> {
        let text = self.text(op);
        let t = std::time::Instant::now();
        let resp = self.processor.submit(&mut c.session, &text, None);
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        self.check(c, op, resp.map_err(err)?)?;
        Ok(us)
    }

    /// The traced path: the statement driven layer by layer, then each
    /// layer below the ORB replayed on its own for attribution.
    pub fn run_traced(&self, c: &mut Client, op: Op, rec: &mut Recorder) -> Result<f64, String> {
        let text = self.text(op);
        let root = rec.reserve();
        let t0 = rec.now();
        let stmt = parse(&text).map_err(err)?;
        rec.span(root, root, "tassili.parse", t0);
        match stmt {
            Statement::Native { instance, query } => {
                let t = rec.now();
                let ior = self
                    .fed()
                    .naming_client()
                    .resolve(&format!("isi/{instance}"))
                    .map_err(err)?;
                rec.span(root, root, "orb.naming.resolve", t);
                let t = rec.now();
                let v = self
                    .fed()
                    .invoke(&ior, "execute", &[Value::string(query.clone())])
                    .map_err(err)?;
                let invoke = rec.span(root, root, "orb.invoke", t);
                let t = rec.now();
                let resp = decode_native(&v)?;
                rec.span(root, root, "core.processor.decode", t);
                let us = rec.close(root, root, 0, op.class(), t0);
                self.check(c, op, resp)?;
                let executed = Executed {
                    ior: &ior,
                    url: &self.world.bench.url,
                    db: &self.world.db,
                    server_order: self.orb_order(BENCH_SITE)?,
                    query: &query,
                    reply: v,
                    write: op.class() == OP_WRITE,
                };
                self.replay_native(rec, root, invoke, executed)?;
                Ok(us)
            }
            stmt @ Statement::FedInvoke { .. } => {
                let t = rec.now();
                let outcome = self
                    .fedex
                    .execute(&self.engine, &c.session.site, &stmt, None)
                    .map_err(err)?;
                let exec = rec.span(root, root, "core.fedquery.execute", t);
                c.session.last_degraded = outcome.degraded.clone();
                let us = rec.close(root, root, 0, op.class(), t0);
                self.check(c, op, Response::Federated(Box::new(outcome)))?;
                self.replay_fed(rec, root, exec, &c.session.site, &stmt)?;
                Ok(us)
            }
            other => Err(format!("no traced path for {other}")),
        }
    }

    /// Metadata and federation stages of a federated statement, each
    /// called on its own, plus one member's ship replayed layer by layer.
    fn replay_fed(
        &self,
        rec: &mut Recorder,
        op: u64,
        exec: u64,
        origin: &str,
        stmt: &Statement,
    ) -> Result<(), String> {
        let fed = self.fed();
        let t = rec.now();
        fed.coalition_members(COALITION).map_err(err)?;
        let members = rec.span(op, exec, "core.federation.coalition_members", t);
        let codb = fed.site(origin).map_err(err)?.codb_ior;
        let t = rec.now();
        fed.invoke(&codb, "members", &[Value::string(COALITION)])
            .map_err(err)?;
        rec.span(op, members, "codb.members", t);
        let t = rec.now();
        let plan = self.fedex.plan(&self.engine, origin, stmt).map_err(err)?;
        rec.span(op, exec, "core.fedquery.plan", t);

        let ship = plan
            .ship
            .iter()
            .find(|p| p.language == "SQL")
            .ok_or("federated plan ships no SQL subquery")?;
        let site = fed.site(&ship.site).map_err(err)?;
        let ior = fed
            .naming_client()
            .resolve(&format!("isi/{}", ship.site))
            .map_err(err)?;
        let t = rec.now();
        let v = fed
            .invoke(&ior, "execute", &[Value::string(ship.native.clone())])
            .map_err(err)?;
        let invoke = rec.span(op, exec, "orb.invoke", t);
        let parts = webfindit_connect::parse_url(&site.url).ok_or("bad site url")?;
        let db = fed
            .registry()
            .relational(parts.vendor, parts.instance)
            .map_err(err)?;
        let executed = Executed {
            ior: &ior,
            url: &site.url,
            db: &db,
            server_order: self.orb_order(&ship.site)?,
            query: &ship.native,
            reply: v,
            write: false,
        };
        self.replay_native(rec, op, invoke, executed)
    }

    /// The layers under one `execute` invocation, each called on its
    /// own after the op: GIOP encode and decode of the request and
    /// reply, the wrapper (`DriverManager::get_connection` +
    /// `CompensatingConnection::execute`), and the site's `Database`
    /// under its mutex. A write is replayed in a rolled-back
    /// transaction on the `Database` only, so it is applied once.
    fn replay_native(
        &self,
        rec: &mut Recorder,
        op: u64,
        invoke: u64,
        executed: Executed<'_>,
    ) -> Result<(), String> {
        let Executed {
            ior,
            url,
            db,
            server_order,
            query,
            reply,
            write,
        } = executed;
        let key = ior.iiop_profile().map(|p| p.object_key).unwrap_or_default();
        let client_order = self.fed().client_orb().byte_order();
        let t = rec.now();
        let req = giop::request(1, key, "execute", vec![Value::string(query)])
            .encode(client_order)
            .map_err(err)?;
        let rep = giop::reply_ok(1, reply).encode(server_order).map_err(err)?;
        rec.span(op, invoke, "wire.encode", t);
        let t = rec.now();
        GiopMessage::decode_frame(&req).map_err(err)?;
        GiopMessage::decode_frame(&rep).map_err(err)?;
        rec.span(op, invoke, "wire.decode", t);

        if write {
            let t = rec.now();
            let mut db = db.lock();
            rec.span(op, invoke, "relstore.lock_wait", t);
            db.begin().map_err(err)?;
            let t = rec.now();
            let r = db.execute(query);
            rec.span(op, invoke, "relstore.execute", t);
            db.rollback().map_err(err)?;
            r.map_err(err)?;
            return Ok(());
        }
        let connect = rec.reserve();
        let t = rec.now();
        let inner = self.fed().manager().get_connection(url).map_err(err)?;
        CompensatingConnection::new(inner)
            .execute(query)
            .map_err(err)?;
        rec.close(connect, op, invoke, "connect.execute", t);
        let t = rec.now();
        let mut db = db.lock();
        rec.span(op, connect, "relstore.lock_wait", t);
        let t = rec.now();
        db.execute(query).map_err(err)?;
        rec.span(op, connect, "relstore.execute", t);
        Ok(())
    }

    fn orb_order(&self, site: &str) -> Result<ByteOrder, String> {
        let site = self.fed().site(site).map_err(err)?;
        Ok(self.fed().orb(&site.orb_name).map_err(err)?.byte_order())
    }

    /// Check one answer exactly; a wrong answer is a failed op.
    fn check(&self, c: &mut Client, op: Op, resp: Response) -> Result<(), String> {
        match (op, resp) {
            (Op::Point(k), Response::Table(rs)) => {
                if rs.rows != [item(self.seed, k)] {
                    return Err(format!("id {k}: got {:?}", rs.rows));
                }
                c.rows_out += 1;
            }
            (Op::Range(a), Response::Table(rs)) => {
                let mut ids: Vec<i64> = rs
                    .rows
                    .iter()
                    .filter_map(|r| match r.first() {
                        Some(Datum::Int(i)) => Some(*i),
                        _ => None,
                    })
                    .collect();
                ids.sort_unstable();
                if ids != (a..a + RANGE).collect::<Vec<_>>() {
                    return Err(format!(
                        "range {a}: {} rows, not ids {a}..{}",
                        rs.rows.len(),
                        a + RANGE
                    ));
                }
                c.rows_out += rs.rows.len() as u64;
            }
            (Op::Update(k), Response::Scalar(s)) => {
                if s != "1 row(s) affected" {
                    return Err(format!("update {k}: {s}"));
                }
                *c.acked.entry(k).or_default() += 1;
            }
            (Op::Fed(i), Response::Federated(o)) => {
                let reference = &self.fed_refs[i].1;
                if !o.degraded.is_empty() {
                    return Err(format!("federated union degraded: {:?}", o.degraded));
                }
                if o.columns != reference.columns || o.rows != reference.rows {
                    return Err("federated merge differs from the sequential reference".into());
                }
                c.rows_out += o.stats.rows_shipped;
            }
            (op, other) => return Err(format!("{op:?}: unexpected {other:?}")),
        }
        Ok(())
    }

    /// After the timed windows of `bulk_rw`: power-cycle the bench ORB so
    /// recovery runs over the simulated disk, then read back every
    /// acknowledged update and the table's total. Returns the restart's
    /// duration in ms and the number of failed checks.
    pub fn durability(&self, acked: &BTreeMap<i64, i64>) -> Result<(f64, u64), String> {
        let fed = self.fed();
        let orb = &self.world.bench.orb_name;
        fed.kill_orb(orb).map_err(err)?;
        let t = std::time::Instant::now();
        fed.restart_orb(orb).map_err(err)?;
        let recovery_ms = t.elapsed().as_nanos() as f64 / 1e6;

        let mut session = BrowserSession::new(BENCH_SITE);
        let mut failed = 0;
        for (&k, &n) in acked {
            let text = native(&format!("select amount from items where id = {k}"));
            let want = Datum::Int(initial_amount(self.seed, k) + n);
            match self.processor.submit(&mut session, &text, None) {
                Ok(Response::Table(rs)) if rs.rows == [vec![want.clone()]] => {}
                other => {
                    failed += 1;
                    eprintln!("durability: id {k} should read {want}, got {other:?}");
                }
            }
        }
        let total: i64 = acked.values().sum();
        let want = Datum::Int(initial_sum(self.seed) + total);
        let text = native("select sum(amount) from items");
        match self.processor.submit(&mut session, &text, None) {
            Ok(Response::Table(rs)) if rs.rows == [vec![want.clone()]] => {}
            other => {
                failed += 1;
                eprintln!("durability: sum(amount) should be {want}, got {other:?}");
            }
        }
        Ok((recovery_ms, failed))
    }
}

/// One `execute` invocation to replay: where it ran, what it asked and
/// what came back.
struct Executed<'a> {
    ior: &'a Ior,
    url: &'a str,
    db: &'a Arc<Mutex<Database>>,
    server_order: ByteOrder,
    query: &'a str,
    reply: Value,
    write: bool,
}

fn native(query: &str) -> String {
    format!("Submit Native '{query}' To Instance {BENCH_SITE};")
}

fn fed_statement(min_funding: i64) -> String {
    format!(
        "Invoke ResearchProjects.Funding((ResearchProjects.Funding >= {min_funding})) \
         At Coalition {COALITION};"
    )
}

/// What `Processor` makes of an ISI answer to a native statement.
fn decode_native(v: &Value) -> Result<Response, String> {
    if v.field("columns").is_some() {
        return Ok(Response::Table(value_to_result_set(v).map_err(err)?));
    }
    match v.field("count") {
        Some(n) => Ok(Response::Scalar(format!("{n} row(s) affected"))),
        None => Err(format!("unexpected ISI answer {v}")),
    }
}

/// Every funding the coalition holds is a filter constant (so each
/// filter keeps at least one row); compute the sequential reference
/// answer of each. Ops draw constants uniformly, so the rows a statement
/// ships average out the same whatever the seed.
fn fed_references(fed: &Arc<Federation>) -> Result<Vec<(i64, FedOutcome)>, String> {
    let mut serial = Processor::new(Arc::clone(fed));
    serial.set_fed_workers(1);
    let mut session = BrowserSession::new(FED_ORIGIN);
    let mut run = |text: &str| match serial.submit(&mut session, text, None) {
        Ok(Response::Federated(o)) if o.degraded.is_empty() && !o.rows.is_empty() => Ok(*o),
        other => Err(format!("federated reference for {text}: {other:?}")),
    };
    let mut fundings: Vec<i64> = run(&fed_statement(0))?
        .rows
        .iter()
        .filter_map(|r| r.last()?.parse::<f64>().ok())
        .map(|f| f.floor() as i64)
        .collect();
    fundings.sort_unstable();
    fundings.dedup();
    if fundings.is_empty() {
        return Err("the coalition's answer holds no numeric funding".into());
    }
    fundings
        .into_iter()
        .map(|c| Ok((c, run(&fed_statement(c))?)))
        .collect()
}
