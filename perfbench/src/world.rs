//! The deployment under test: the 14-site healthcare federation plus
//! "Bench Registry", a durable relational site generated from the seed.

use std::sync::Arc;
use webfindit::federation::{SiteHandle, SiteSpec, SiteVendor};
use webfindit::wire::cdr::ByteOrder;
use webfindit::Federation;
use webfindit_base::sync::Mutex;
use webfindit_healthcare::{build_healthcare, HealthcareDeployment};
use webfindit_relstore::file_mgr::SimVfs;
use webfindit_relstore::{Column, DataType, Database, Datum, Dialect, Row, TableSchema};

/// Name of the generated site (and of its database instance).
pub const BENCH_SITE: &str = "Bench Registry";
/// The ORB hosting only the generated site, so killing it power-cycles
/// nothing else.
pub const BENCH_ORB: &str = "BenchORB";
/// Rows in `items`; ids run `1..=ROWS`.
pub const ROWS: i64 = 100_000;

/// One deployed federation with handles the benchmark reads from.
pub struct World {
    pub dep: HealthcareDeployment,
    pub bench: SiteHandle,
    pub db: Arc<Mutex<Database>>,
}

impl World {
    pub fn fed(&self) -> &Arc<Federation> {
        &self.dep.fed
    }

    /// Deploy the healthcare federation and the generated site.
    pub fn build(seed: u64) -> Result<World, String> {
        let dep = build_healthcare(seed).map_err(|e| e.to_string())?;
        let fed = Arc::clone(&dep.fed);
        fed.add_orb(
            BENCH_ORB,
            "bench.webfindit.net",
            9100,
            ByteOrder::LittleEndian,
        )
        .map_err(|e| e.to_string())?;

        let mut db = Database::new(BENCH_SITE, Dialect::Oracle);
        let schema = TableSchema::new(
            "items",
            vec![
                Column::new("id", DataType::Int).primary_key(),
                Column::new("grp", DataType::Int),
                Column::new("name", DataType::Text),
                Column::new("amount", DataType::Int),
            ],
        );
        let rows: Vec<Row> = (1..=ROWS).map(|k| item(seed, k)).collect();
        db.import_table(schema, rows).map_err(|e| e.to_string())?;
        db.make_durable(SimVfs::new()).map_err(|e| e.to_string())?;

        let spec = SiteSpec {
            name: BENCH_SITE.to_owned(),
            orb: BENCH_ORB.to_owned(),
            vendor: SiteVendor::Relational(Dialect::Oracle),
            host: "bench.webfindit.net".to_owned(),
            information_type: "Benchmark registry".to_owned(),
            documentation_url: "http://docs.webfindit.net/Bench_Registry".to_owned(),
            interface: Vec::new(),
        };
        let bench = fed
            .add_relational_site(spec, db)
            .map_err(|e| e.to_string())?;
        let parts = webfindit_connect::parse_url(&bench.url).ok_or("bad bench site url")?;
        let db = fed
            .registry()
            .relational(parts.vendor, parts.instance)
            .map_err(|e| e.to_string())?;
        Ok(World { dep, bench, db })
    }

    pub fn shutdown(&self) {
        self.dep.fed.shutdown();
    }
}

/// The generated row for id `k`: a pure function of the seed, so every
/// check can recompute what the database must hold.
pub fn item(seed: u64, k: i64) -> Row {
    let h = mix(seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    vec![
        Datum::Int(k),
        Datum::Int((h % 100) as i64),
        Datum::Text(format!("item-{k:06}-{:04x}", (h >> 16) & 0xffff)),
        Datum::Int(initial_amount(seed, k)),
    ]
}

/// `amount` of row `k` as loaded.
pub fn initial_amount(seed: u64, k: i64) -> i64 {
    let h = mix(seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    ((h >> 32) % 10_000) as i64
}

/// `sum(amount)` over the loaded table.
pub fn initial_sum(seed: u64) -> i64 {
    (1..=ROWS).map(|k| initial_amount(seed, k)).sum()
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
