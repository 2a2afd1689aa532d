//! The `pmv-cli` session: a small command language over the library's
//! own host — one [`pmv_core::EpochDb`] (in memory, or
//! `EpochDb::open_durable` under `--data-dir`), which owns every view.
//! `load` is `EpochDb::with_write`, `pmv` is `EpochDb::register` (so the
//! PMV001–PMV006 verifier gates it), `query` is `EpochDb::query`,
//! `checkpoint` is `EpochDb::checkpoint`, and the reporting commands
//! iterate `EpochDb::views`.
//!
//! ```text
//! load tpcr 0.01                         generate TPC-R data at scale s (once, first)
//! tables                                 list relations
//! template <name> <SQL>                  define a template (see parser)
//! pmv <template> [f=N] [l=N] [policy=clock|2q]
//! query <template> <binding> …           run through the PMV pipeline
//! plain <template> <binding> …           run without the PMV
//! explain <template> <binding> …         show the plan
//! stats [<template>]                     PMV statistics
//! metrics [--format prometheus|json]     per-phase latency + counter export
//! profile [--json]                       contention / template-cost / stage profile
//! trace [--tail N]                       query lifecycle traces
//! advisor                                recommend PMVs from the trace
//! checkpoint                             write a durable snapshot (needs --data-dir)
//! help | quit
//! ```
//!
//! Bindings: one per `?` slot, in order. Equality slots take
//! `[v1,v2,…]`; interval slots take `[lo..hi,lo2..hi2,…]` (half-open).
//! Integer and 'string' values are supported.

pub mod profile;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use pmv_cache::PolicyKind;
use pmv_core::{
    AdvisorConfig, Discretizer, Durability, EpochDb, PartialViewDef, PmvAdvisor, PmvConfig,
    QueryOutcome, SharedPmv, VerifyOptions, ViewSpec,
};
use pmv_query::{
    parse_template, CondForm, Condition, Database, Interval, QueryInstance, QueryTemplate,
};
use pmv_storage::Value;
use pmv_workload::tpcr::{self, TpcrConfig};

/// Typed CLI errors. Each class maps to a distinct process exit code so
/// scripts and CI can tell a usage mistake from an engine failure:
///
/// | code | class |
/// |------|-----------------------------------------|
/// | 0    | success (incl. `quit`)                  |
/// | 1    | I/O (unreadable script, read failure)   |
/// | 2    | usage: bad command/options/bindings     |
/// | 3    | storage-layer error                     |
/// | 4    | query-layer error (incl. budget/fault)  |
/// | 5    | PMV-layer (core) error                  |
/// | 6    | durability error (WAL/checkpoint/recovery) |
///
/// Errors are classified by *root cause*: a `CoreError` wrapping a
/// `QueryError` wrapping a `StorageError` exits with the storage code.
#[derive(Debug)]
pub enum CliError {
    /// Bad command, option, or binding syntax (exit code 2).
    Usage(String),
    /// Storage-layer failure (exit code 3).
    Storage(pmv_storage::StorageError),
    /// Query-layer failure (exit code 4).
    Query(pmv_query::QueryError),
    /// PMV-layer failure (exit code 5).
    Core(pmv_core::CoreError),
    /// Durability-layer failure: WAL append, checkpoint write, or
    /// recovery (exit code 6).
    Durability(String),
    /// `quit` / `exit` was entered (exit code 0).
    Quit,
}

impl CliError {
    /// The process exit code for this error class.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Quit => 0,
            CliError::Usage(_) => 2,
            CliError::Storage(_) => 3,
            CliError::Query(_) => 4,
            CliError::Core(_) => 5,
            CliError::Durability(_) => 6,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Storage(e) => write!(f, "storage error: {e}"),
            CliError::Query(e) => write!(f, "query error: {e}"),
            CliError::Core(e) => write!(f, "{e}"),
            CliError::Durability(msg) => write!(f, "durability error: {msg}"),
            CliError::Quit => write!(f, "bye"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<pmv_storage::StorageError> for CliError {
    fn from(e: pmv_storage::StorageError) -> Self {
        CliError::Storage(e)
    }
}

impl From<pmv_query::QueryError> for CliError {
    fn from(e: pmv_query::QueryError) -> Self {
        match e {
            pmv_query::QueryError::Storage(s) => CliError::Storage(s),
            other => CliError::Query(other),
        }
    }
}

impl From<pmv_core::CoreError> for CliError {
    fn from(e: pmv_core::CoreError) -> Self {
        match e {
            pmv_core::CoreError::Query(q) => CliError::from(q),
            pmv_core::CoreError::Durability(msg) => CliError::Durability(msg),
            other => CliError::Core(other),
        }
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Parse a policy option value (`pmv … policy=…` and checkpointed view
/// specs share this spelling).
fn parse_policy(v: &str) -> Result<PolicyKind, CliError> {
    match v.to_ascii_lowercase().as_str() {
        "clock" => Ok(PolicyKind::Clock),
        "2q" => Ok(PolicyKind::TwoQ),
        other => Err(usage(format!("unknown policy '{other}'"))),
    }
}

/// The spelling stored in checkpoint view specs — must round-trip
/// through [`parse_policy`] (the display names `PolicyKind::name`
/// returns do not).
fn policy_spec_name(p: PolicyKind) -> &'static str {
    match p {
        PolicyKind::Clock => "clock",
        PolicyKind::TwoQ => "2q",
    }
}

/// The discretizers `pmv` registers and `analyze` verifies: none for an
/// equality-form condition, a simple default grid for an interval-form
/// one (the advisor learns better dividers from the observed trace).
fn default_discretizers(template: &QueryTemplate) -> Vec<Option<Discretizer>> {
    template
        .cond_templates()
        .iter()
        .map(|ct| match ct.form {
            CondForm::Equality => None,
            CondForm::Interval => Some(Discretizer::int_grid(0, 100, 64)),
        })
        .collect()
}

/// An interactive session: a command shell over the library's own host —
/// one [`EpochDb`] (in memory, or durable when opened on a data
/// directory), which owns every registered view. The session itself
/// keeps only what the command language adds: template names and SQL
/// text, the advisor's trace, and the flight recorder it attaches to
/// each view.
pub struct Session {
    db: EpochDb,
    /// Template name → (template, SQL text). The SQL is kept so a
    /// checkpoint can record it for re-parsing at recovery.
    templates: HashMap<String, (Arc<QueryTemplate>, String)>,
    advisor: PmvAdvisor,
    /// Anomaly flight recorder, present on durable sessions (dumps
    /// spool under `<data-dir>/flight/`).
    flight: Option<Arc<pmv_obs::FlightRecorder>>,
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// Fresh session with an empty database. Pure in-memory: no WAL, no
    /// checkpoints, zero durability overhead.
    pub fn new() -> Self {
        Self::over(EpochDb::new(Database::new()))
    }

    fn over(db: EpochDb) -> Self {
        Session {
            db,
            templates: HashMap::new(),
            advisor: PmvAdvisor::new(),
            flight: None,
        }
    }

    /// Durable session on `data_dir` (`--data-dir`): recover the newest
    /// checkpoint plus the WAL tail, re-register every PMV recorded in
    /// the checkpoint's view specs, and keep the directory open for
    /// `checkpoint` commands. Returns the session and a one-line
    /// recovery summary for the banner.
    pub fn with_data_dir(data_dir: &std::path::Path) -> Result<(Self, String), CliError> {
        let (db, meta) = EpochDb::open_durable(data_dir, Arc::new(pmv_obs::ObsRegistry::new()))?;
        let mut s = Self::over(db);
        // Views first: a spec this build cannot re-register fails the
        // open before the session writes anything into the directory.
        for spec in &meta.views {
            s.reattach_view(spec)?;
        }
        // Durable sessions get a flight recorder spooling under
        // `<data-dir>/flight/` (bounded; oldest dumps evicted first).
        // Diagnostics only: if the spool cannot open, the session still
        // serves. `PMV_FLIGHT_LATENCY_MS` arms the latency trigger;
        // breaker/quarantine/degradation triggers are always armed.
        if let Ok(spool) = pmv_wal::DiskSpool::open(&data_dir.join("flight"), 256 * 1024) {
            let fr = Arc::new(pmv_obs::FlightRecorder::new(Box::new(spool), 16));
            if let Some(ms) = std::env::var("PMV_FLIGHT_LATENCY_MS")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
            {
                fr.set_latency_threshold(Some(std::time::Duration::from_millis(ms)));
            }
            for view in s.db.views() {
                view.attach_flight(Arc::clone(&fr));
            }
            s.flight = Some(fr);
        }
        let info = s.durability()?.recovery_info().clone();
        let summary = if !info.checkpoint_found && info.replayed_records == 0 {
            format!(
                "data dir {}: initialized (no prior state)",
                data_dir.display()
            )
        } else {
            let mut text = format!(
                "recovered from {}: checkpoint lsn {}, {} WAL record(s) replayed \
                 ({} delta(s)), {} view(s) re-registered",
                data_dir.display(),
                info.checkpoint_lsn,
                info.replayed_records,
                info.replayed_deltas,
                meta.views.len(),
            );
            if info.torn_tail {
                text.push_str(", torn WAL tail truncated");
            }
            if info.checkpoints_skipped > 0 {
                let _ = write!(
                    text,
                    ", {} corrupt checkpoint(s) skipped",
                    info.checkpoints_skipped
                );
            }
            text
        };
        Ok((s, summary))
    }

    /// The durability engine, or the error every durable-only command
    /// reports on an in-memory session.
    fn durability(&self) -> Result<&Arc<Durability>, CliError> {
        self.db.durability().ok_or_else(|| {
            CliError::Durability(
                "no data directory (start with --data-dir to enable checkpoints)".to_string(),
            )
        })
    }

    /// Register one view with the host — the verifier gate
    /// (PMV001–PMV006) and the one-PMV-per-template rule are its — and
    /// hook it to the session's flight recorder.
    fn register(
        &mut self,
        def: PartialViewDef,
        config: PmvConfig,
        shards: Option<usize>,
    ) -> Result<(), CliError> {
        let view = self.db.register(def, config, shards)?;
        if let Some(fr) = &self.flight {
            view.attach_flight(Arc::clone(fr));
        }
        Ok(())
    }

    /// Rebuild one PMV registration from its checkpointed spec: re-parse
    /// the template SQL against the recovered catalog, restore the
    /// discretizers from their divider points, and register a *cold*
    /// view (the store refills from observed results, per the paper's
    /// for-free maintenance — cached content is never checkpointed).
    fn reattach_view(&mut self, spec: &ViewSpec) -> Result<(), CliError> {
        let template = parse_template(&spec.name, &spec.sql, &self.db.read())?;
        self.templates
            .insert(spec.name.clone(), (template.clone(), spec.sql.clone()));
        let config = PmvConfig::new(spec.f, spec.l, parse_policy(&spec.policy)?);
        let discretizers = spec
            .dividers
            .iter()
            .map(|d| d.as_ref().map(|vals| Discretizer::from_raw(vals.clone())))
            .collect();
        let def = PartialViewDef::new(format!("pmv_{}", spec.name), template, discretizers)?;
        // `shards: 0` is a spec written before every view was sharded:
        // it gets the default shard count.
        self.register(def, config, (spec.shards > 0).then_some(spec.shards))
    }

    /// The re-creation recipe of every registered view, by template
    /// name — what a checkpoint stores beside the data.
    fn view_specs(&self) -> Vec<ViewSpec> {
        let mut specs: Vec<ViewSpec> = self
            .templates
            .iter()
            .filter_map(|(name, (template, sql))| {
                let v = self.db.view_for(template)?;
                Some(ViewSpec {
                    name: name.clone(),
                    sql: sql.clone(),
                    f: v.config().f,
                    l: v.config().l,
                    policy: policy_spec_name(v.config().policy).to_string(),
                    shards: v.shard_count(),
                    dividers: (0..template.cond_count())
                        .map(|i| v.def().discretizer(i).map(|d| d.dividers().to_vec()))
                        .collect(),
                })
            })
            .collect();
        specs.sort_by(|a, b| a.name.cmp(&b.name));
        specs
    }

    fn template(&self, name: &str) -> Result<Arc<QueryTemplate>, CliError> {
        self.templates
            .get(name)
            .map(|(t, _)| Arc::clone(t))
            .ok_or_else(|| usage(format!("unknown template '{name}'")))
    }

    /// Execute one command line; returns the text to print.
    pub fn execute(&mut self, line: &str) -> Result<String, CliError> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(String::new());
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match cmd.to_ascii_lowercase().as_str() {
            "help" => Ok(HELP.to_string()),
            "load" => self.cmd_load(rest),
            "tables" => self.cmd_tables(),
            "template" => self.cmd_template(rest),
            "pmv" => self.cmd_pmv(rest),
            "analyze" => self.cmd_analyze(rest),
            "query" => self.cmd_query(rest, Mode::Pmv),
            "plain" => self.cmd_query(rest, Mode::Plain),
            "explain" => self.cmd_query(rest, Mode::Explain),
            "stats" => self.cmd_stats(rest),
            "health" => self.cmd_health(),
            "metrics" => self.cmd_metrics(rest),
            "profile" => self.cmd_profile(rest),
            "trace" => self.cmd_trace(rest),
            "revalidate" => self.cmd_revalidate(rest),
            "checkpoint" => self.cmd_checkpoint(),
            "advisor" => self.cmd_advisor(),
            "quit" | "exit" => Err(CliError::Quit),
            other => Err(usage(format!("unknown command '{other}' (try: help)"))),
        }
    }

    fn cmd_load(&mut self, rest: &str) -> Result<String, CliError> {
        let mut parts = rest.split_whitespace();
        match parts.next() {
            Some("tpcr") => {
                let scale: f64 = parts
                    .next()
                    .unwrap_or("0.01")
                    .parse()
                    .map_err(|_| usage("bad scale factor"))?;
                // A bulk load is setup-path work (`EpochDb::with_write`:
                // republished without maintenance), sound only before
                // anything is served — and nothing can be served from an
                // empty catalog.
                if !self.db.pin().is_empty() {
                    return Err(usage(
                        "load: the database already holds relations (load once, first)",
                    ));
                }
                let (customers, orders, lineitems) =
                    self.db.with_write(|db| -> Result<_, CliError> {
                        tpcr::generate(
                            db,
                            &TpcrConfig {
                                scale,
                                seed: 0xc0ffee,
                                pad: false,
                                date_supplier_pool: Some(2),
                            },
                        )?;
                        tpcr::standard_indexes(db)?;
                        Ok((db.len("customer")?, db.len("orders")?, db.len("lineitem")?))
                    })?;
                let mut out = format!(
                    "loaded TPC-R at s={scale}: {customers} customers, {orders} orders, \
                     {lineitems} lineitems (indexed)",
                );
                // Bulk loads bypass the WAL (it carries commit deltas,
                // not DDL/loads), so a durable session checkpoints
                // immediately — the load is on disk before the prompt
                // returns.
                if self.db.durability().is_some() {
                    let note = self.cmd_checkpoint()?;
                    out.push('\n');
                    out.push_str(&note);
                }
                Ok(out)
            }
            _ => Err(usage("usage: load tpcr <scale>")),
        }
    }

    fn cmd_tables(&mut self) -> Result<String, CliError> {
        let snap = self.db.pin();
        let mut out = String::new();
        for name in ["customer", "orders", "lineitem"] {
            if let Ok(n) = snap.len(name) {
                let _ = writeln!(out, "{name}: {n} tuples");
            }
        }
        if out.is_empty() {
            out.push_str("(no known tables; use `load tpcr <scale>`)\n");
        }
        Ok(out)
    }

    fn cmd_template(&mut self, rest: &str) -> Result<String, CliError> {
        let (name, sql) = rest
            .split_once(char::is_whitespace)
            .ok_or_else(|| usage("usage: template <name> <SQL>"))?;
        // The host keys views by template identity and never drops one,
        // so a name that already serves a PMV cannot be rebound.
        if let Some((old, _)) = self.templates.get(name) {
            if self.db.view_for(old).is_some() {
                return Err(usage(format!(
                    "template '{name}' has a PMV; define the new SQL under another name"
                )));
            }
        }
        let t = parse_template(name, sql.trim(), &self.db.read())?;
        let summary = format!(
            "template '{}': {} relation(s), {} join(s), {} fixed pred(s), {} condition slot(s)",
            name,
            t.relations().len(),
            t.joins().len(),
            t.fixed_preds().len(),
            t.cond_count()
        );
        self.templates
            .insert(name.to_string(), (t, sql.trim().to_string()));
        Ok(summary)
    }

    fn cmd_pmv(&mut self, rest: &str) -> Result<String, CliError> {
        let mut parts = rest.split_whitespace();
        let name = parts
            .next()
            .ok_or_else(|| usage("usage: pmv <template> [f=N] [l=N] [policy=...]"))?;
        let template = self.template(name)?;
        let mut config = PmvConfig::default();
        for opt in parts {
            let (k, v) = opt
                .split_once('=')
                .ok_or_else(|| usage(format!("bad option '{opt}'")))?;
            match k {
                "f" => config.f = v.parse().map_err(|_| usage("bad f"))?,
                "l" => config.l = v.parse().map_err(|_| usage("bad l"))?,
                "policy" => config.policy = parse_policy(v)?,
                other => return Err(usage(format!("unknown option '{other}'"))),
            }
        }
        let discretizers = default_discretizers(&template);
        let def = PartialViewDef::new(format!("pmv_{name}"), template, discretizers)?;
        let summary = format!(
            "PMV for '{}': F={}, L={}, policy={} (epoch serving)",
            name,
            config.f,
            config.l,
            config.policy.name(),
        );
        self.register(def, config, None)?;
        Ok(summary)
    }

    /// Run the static verifier over a template with the same default
    /// discretizer choice `pmv` would make, without registering
    /// anything. `json` switches to the machine-readable rendering;
    /// `sarif` emits the same SARIF 2.1.0 document shape the
    /// `pmv-analyze` binary produces, so PMV001–PMV006 feed the same
    /// code-scanning surfaces as the source rules.
    fn cmd_analyze(&mut self, rest: &str) -> Result<String, CliError> {
        let mut parts = rest.split_whitespace();
        let name = parts.next().ok_or_else(|| {
            usage("usage: analyze <template> [f=N] [l=N] [budget=BYTES] [json|sarif]")
        })?;
        let template = self.template(name)?;
        let mut config = PmvConfig::default();
        let mut opts = VerifyOptions::default();
        let mut json = false;
        let mut sarif = false;
        for opt in parts {
            if opt == "json" {
                json = true;
                continue;
            }
            if opt == "sarif" {
                sarif = true;
                continue;
            }
            let (k, v) = opt
                .split_once('=')
                .ok_or_else(|| usage(format!("bad option '{opt}'")))?;
            match k {
                "f" => config.f = v.parse().map_err(|_| usage("bad f"))?,
                "l" => config.l = v.parse().map_err(|_| usage("bad l"))?,
                "budget" => opts.byte_budget = Some(v.parse().map_err(|_| usage("bad budget"))?),
                other => return Err(usage(format!("unknown option '{other}'"))),
            }
        }
        let discretizers = default_discretizers(&template);
        let report = pmv_core::verify_parts(&template, &discretizers, &config, &opts);
        if sarif {
            return Ok(pmv_analysis::sarif::verifier_sarif(&report).to_string());
        }
        if json {
            return Ok(pmv_analysis::sarif::verify_json(&report).to_string());
        }
        let verdict = if report.denied() {
            "DENIED (registration would be rejected)"
        } else if report.diagnostics.is_empty() {
            "clean"
        } else {
            "accepted with warnings"
        };
        Ok(format!("analyze '{name}': {verdict}\n{report}"))
    }

    fn bind(&self, template: &Arc<QueryTemplate>, args: &str) -> Result<QueryInstance, CliError> {
        let bindings = parse_bindings(args).map_err(usage)?;
        if bindings.len() != template.cond_count() {
            return Err(usage(format!(
                "template has {} condition slot(s), got {} binding(s)",
                template.cond_count(),
                bindings.len()
            )));
        }
        let conds: Vec<Condition> = bindings
            .into_iter()
            .zip(template.cond_templates())
            .map(|(b, ct)| match (b, ct.form) {
                (Binding::Values(vs), CondForm::Equality) => Ok(Condition::Equality(vs)),
                (Binding::Ranges(rs), CondForm::Interval) => Ok(Condition::Intervals(rs)),
                (Binding::Values(_), CondForm::Interval) => {
                    Err(usage("interval slot needs [lo..hi] ranges"))
                }
                (Binding::Ranges(_), CondForm::Equality) => {
                    Err(usage("equality slot needs [v1,v2] values"))
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(template.bind(conds)?)
    }

    fn cmd_query(&mut self, rest: &str, mode: Mode) -> Result<String, CliError> {
        let (name, args) = rest
            .split_once(char::is_whitespace)
            .map(|(n, a)| (n, a.trim()))
            .unwrap_or((rest, ""));
        let template = self.template(name)?;
        let q = self.bind(&template, args)?;
        self.advisor.observe(&q);
        match mode {
            Mode::Explain => Ok(pmv_query::explain(&*self.db.pin(), &q)),
            Mode::Plain => {
                let (rows, _, elapsed) = pmv_core::run_plain(&self.db.read(), &q)?;
                Ok(format!("{} row(s) in {elapsed:?} (no PMV)", rows.len()))
            }
            Mode::Pmv => {
                let view = self
                    .db
                    .view_for(&template)
                    .ok_or_else(|| usage(format!("no PMV for '{name}' (use: pmv {name})")))?;
                Ok(format_outcome(&self.db.query(&view, &q)?))
            }
        }
    }

    fn cmd_health(&mut self) -> Result<String, CliError> {
        let mut out = String::new();
        for v in self.db.views().iter().map(SharedPmv::metrics) {
            let _ = writeln!(
                out,
                "{}: {} (error rate {:.3}, trips {}, degraded queries {}, quarantine events {}, \
                 last verified {}ms ago, {} shard(s) quarantined)",
                v.name,
                v.health,
                v.error_rate,
                v.trips,
                v.counter("degraded_queries"),
                v.counter("quarantine_events"),
                v.last_verified_age_ms,
                v.gauge("quarantined_shards"),
            );
        }
        if out.is_empty() {
            out.push_str("(no PMVs yet)\n");
        }
        if let Some(dur) = self.db.durability() {
            let info = dur.recovery_info();
            let _ = writeln!(
                out,
                "durability: dir {}, durable lsn {}, {} WAL segment(s), {} active byte(s)",
                dur.dir().display(),
                dur.durable_lsn(),
                dur.segment_count(),
                dur.active_segment_bytes(),
            );
            let _ = writeln!(
                out,
                "recovery: checkpoint {} (lsn {}), {} record(s) / {} delta(s) replayed, \
                 torn tail: {}, corrupt checkpoints skipped: {}",
                if info.checkpoint_found {
                    "loaded"
                } else {
                    "none"
                },
                info.checkpoint_lsn,
                info.replayed_records,
                info.replayed_deltas,
                if info.torn_tail { "truncated" } else { "no" },
                info.checkpoints_skipped,
            );
        }
        Ok(out)
    }

    /// The exportable telemetry: every view in registration order, then
    /// the host's `__db` row ([`EpochDb::metrics`]).
    fn view_metrics(&self) -> Vec<pmv_obs::ViewMetrics> {
        let mut views: Vec<_> = self.db.views().iter().map(SharedPmv::metrics).collect();
        views.push(self.db.metrics());
        views
    }

    /// `metrics [--format prometheus|json]` — default is a human
    /// summary; the other formats are scrape/pipe-ready.
    fn cmd_metrics(&mut self, rest: &str) -> Result<String, CliError> {
        let mut format = "human";
        let mut parts = rest.split_whitespace();
        while let Some(opt) = parts.next() {
            let value = match opt.strip_prefix("--format") {
                Some("") => parts
                    .next()
                    .ok_or_else(|| usage("usage: metrics [--format prometheus|json]"))?,
                Some(eq) => eq
                    .strip_prefix('=')
                    .ok_or_else(|| usage(format!("bad option '{opt}'")))?,
                None => opt,
            };
            match value {
                "prometheus" | "json" | "human" => format = value,
                other => return Err(usage(format!("unknown metrics format '{other}'"))),
            }
        }
        if self.db.views().is_empty() {
            return Ok("(no PMVs yet)\n".to_string());
        }
        let views = self.view_metrics();
        match format {
            "prometheus" => Ok(pmv_obs::to_prometheus(&views)),
            "json" => Ok(pmv_wal::telemetry::metrics_json(&views).to_string()),
            _ => {
                let mut out = String::new();
                for v in &views {
                    let _ = writeln!(
                        out,
                        "{} [{}] queries={} error_rate={:.3}",
                        v.name,
                        v.health,
                        v.counter("queries"),
                        v.error_rate
                    );
                    for (phase, snap) in &v.phases {
                        if snap.count() == 0 {
                            continue;
                        }
                        let _ = writeln!(
                            out,
                            "  {phase:<12} n={:<6} p50={:?} p90={:?} p99={:?} max={:?}",
                            snap.count(),
                            snap.quantile(0.5),
                            snap.quantile(0.9),
                            snap.quantile(0.99),
                            snap.max(),
                        );
                    }
                }
                Ok(out)
            }
        }
    }

    /// `profile [--json]` — a live profile report for this session:
    /// contention sites ranked by total lock wait, templates by
    /// serving+maintenance cost, pipeline stages by share of recorded
    /// time. The offline twin (`pmv-profile`) derives the same report
    /// from the metrics in each view's latest flight dump.
    fn cmd_profile(&mut self, rest: &str) -> Result<String, CliError> {
        let mut json = false;
        for opt in rest.split_whitespace() {
            match opt {
                "--json" | "json" => json = true,
                other => return Err(usage(format!("usage: profile [--json] (got '{other}')"))),
            }
        }
        let report = self.live_profile();
        Ok(if json {
            profile::profile_json(&report).to_string()
        } else {
            report.render_human()
        })
    }

    /// The live [`pmv_obs::ProfileReport`]: the one derivation over
    /// every view's metrics and the host's `__db` row, plus session
    /// notes.
    fn live_profile(&self) -> pmv_obs::ProfileReport {
        let mut report = pmv_obs::ProfileReport::from_views("live session", &self.view_metrics());
        if let Some(fr) = &self.flight {
            report.notes.push(format!(
                "{} flight dump(s) written this session",
                fr.dumps_written()
            ));
        }
        let ss = self.db.snap_stats();
        report.notes.push(format!(
            "snapshot publishes: {} ({} entry reuse(s), {} recapture(s), reuse ratio {:.2})",
            ss.publishes,
            ss.reused,
            ss.recaptured,
            ss.reuse_ratio()
        ));
        report
    }

    /// `trace [--tail N]` — the last N lifecycle traces per PMV
    /// (default 10), oldest first.
    fn cmd_trace(&mut self, rest: &str) -> Result<String, CliError> {
        let mut n = 10usize;
        let mut parts = rest.split_whitespace();
        while let Some(opt) = parts.next() {
            let value = match opt.strip_prefix("--tail") {
                Some("") => parts
                    .next()
                    .ok_or_else(|| usage("usage: trace [--tail N]"))?,
                Some(eq) => eq
                    .strip_prefix('=')
                    .ok_or_else(|| usage(format!("bad option '{opt}'")))?,
                None => opt,
            };
            n = value.parse().map_err(|_| usage("bad tail count"))?;
        }
        let views = self.db.views();
        if views.is_empty() {
            return Ok("(no PMVs yet)\n".to_string());
        }
        let mut out = String::new();
        for trace in views.iter().flat_map(|v| v.obs().trace().tail(n)) {
            // Display already ends each trace with a newline.
            let _ = write!(out, "{trace}");
        }
        if out.is_empty() {
            out.push_str("(no traces recorded yet; run some queries)\n");
        }
        Ok(out)
    }

    fn cmd_revalidate(&mut self, rest: &str) -> Result<String, CliError> {
        let mut out = String::new();
        let db = self.db.read();
        for v in self.db.views() {
            let name = v.def().template().name();
            if !rest.is_empty() && rest != name {
                continue;
            }
            let removed = v.revalidate(&db)?;
            let _ = writeln!(
                out,
                "{name}: {removed} stale tuple(s) removed, now {}",
                v.health()
            );
        }
        if out.is_empty() {
            out.push_str("(no matching PMV)\n");
        }
        Ok(out)
    }

    /// `checkpoint` — [`EpochDb::checkpoint`] with the registered views'
    /// specs: the published snapshot (catalog, heaps with exact row ids,
    /// indexes) goes to the data directory via write-temp +
    /// atomic-rename, then WAL segments wholly behind the checkpoint LSN
    /// are pruned. Requires `--data-dir`.
    fn cmd_checkpoint(&mut self) -> Result<String, CliError> {
        let dur = Arc::clone(self.durability()?);
        let views = self.view_specs();
        let n_views = views.len();
        let path = self.db.checkpoint(views)?;
        Ok(format!(
            "checkpoint written: {} (lsn {}, {n_views} view spec(s), {} WAL segment(s) live)",
            path.display(),
            self.db.durable_lsn().unwrap_or(0),
            dur.segment_count(),
        ))
    }

    fn cmd_stats(&mut self, rest: &str) -> Result<String, CliError> {
        let mut out = String::new();
        for v in self.db.views() {
            let name = v.def().template().name();
            if !rest.is_empty() && rest != name {
                continue;
            }
            let s = v.stats();
            let _ = writeln!(
                out,
                "{name}: {} queries, hit {:.1}%, {} tuples served early, \
                 store {} entries / {} tuples / {} bytes, policy {}, {} shard(s)",
                s.queries,
                s.hit_probability() * 100.0,
                s.partial_tuples_served,
                v.entry_count(),
                v.tuple_count(),
                v.byte_size(),
                v.config().policy.name(),
                v.shard_count(),
            );
            out.push_str(&maintenance_line(&s));
        }
        if out.is_empty() {
            out.push_str("(no PMVs yet)\n");
        }
        Ok(out)
    }

    fn cmd_advisor(&mut self) -> Result<String, CliError> {
        let recs = self.advisor.recommend(&AdvisorConfig {
            min_queries: 3,
            ..Default::default()
        })?;
        if recs.is_empty() {
            return Ok("no recommendations yet (run more queries)".to_string());
        }
        let mut out = String::new();
        for r in recs {
            let _ = writeln!(
                out,
                "recommend PMV '{}' for template '{}': F={}, L={}, observed {} queries (mean h {:.1})",
                r.def.name(),
                r.def.template().name(),
                r.config.f,
                r.config.l,
                r.queries,
                r.mean_h,
            );
        }
        Ok(out)
    }
}

/// One indented line of maintenance/upquery telemetry for `stats`:
/// what the delta-key-index, bridge-join and upquery paths have done so
/// far.
fn maintenance_line(s: &pmv_core::PmvStats) -> String {
    format!(
        "  maint: {} index removals, {} joins ({} join rows), \
         {} upqueries ({} rows refilled)\n",
        s.maint_index_removals,
        s.maint_coalesced_joins,
        s.maint_join_rows,
        s.upqueries,
        s.upquery_rows,
    )
}

enum Mode {
    Pmv,
    Plain,
    Explain,
}

/// Human rendering of a PMV query outcome.
fn format_outcome(out: &QueryOutcome) -> String {
    let mut text = format!(
        "{} row(s) immediately in {:?}, {} after execution ({:?}); hit={}",
        out.partial.len(),
        out.timings.o2,
        out.remaining.len(),
        out.timings.exec,
        out.bcp_hit
    );
    if let Some(d) = &out.degraded {
        let _ = write!(
            text,
            "\n  DEGRADED ({}): partial results only, staleness ≤ {:?}",
            d.reason, d.staleness
        );
    }
    for t in out.partial.iter().take(5) {
        let _ = write!(text, "\n  early: {t}");
    }
    text
}

/// A parsed binding: values for an equality slot, ranges for an interval
/// slot.
#[derive(Debug, PartialEq)]
enum Binding {
    Values(Vec<Value>),
    Ranges(Vec<Interval>),
}

/// Parse `[1,2] ['a'] [10..20,30..40]` into bindings.
fn parse_bindings(args: &str) -> Result<Vec<Binding>, String> {
    let mut out = Vec::new();
    let mut rest = args.trim();
    while !rest.is_empty() {
        if !rest.starts_with('[') {
            return Err(format!("expected '[' at '{rest}'"));
        }
        let end = rest.find(']').ok_or("missing ']'")?;
        let inner = &rest[1..end];
        out.push(parse_binding(inner)?);
        rest = rest[end + 1..].trim_start();
    }
    Ok(out)
}

fn parse_binding(inner: &str) -> Result<Binding, String> {
    let items: Vec<&str> = inner
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if items.is_empty() {
        return Err("empty binding".to_string());
    }
    if items[0].contains("..") {
        let mut ranges = Vec::with_capacity(items.len());
        for item in items {
            let (lo, hi) = item.split_once("..").ok_or(format!("bad range '{item}'"))?;
            let lo = parse_value(lo.trim())?;
            let hi = parse_value(hi.trim())?;
            ranges.push(Interval {
                lo: std::ops::Bound::Included(lo),
                hi: std::ops::Bound::Excluded(hi),
            });
        }
        Ok(Binding::Ranges(ranges))
    } else {
        items
            .into_iter()
            .map(parse_value)
            .collect::<Result<_, _>>()
            .map(Binding::Values)
    }
}

fn parse_value(s: &str) -> Result<Value, String> {
    if let Some(stripped) = s.strip_prefix('\'').and_then(|x| x.strip_suffix('\'')) {
        return Ok(Value::str(stripped));
    }
    if let Ok(i) = s.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Ok(f) = s.parse::<f64>() {
        return Ok(Value::from(f));
    }
    Err(format!("cannot parse value '{s}'"))
}

const HELP: &str = "\
commands:
  load tpcr <scale>                 generate TPC-R data
  tables                            list relations
  template <name> <SQL>             define a template (slots: col = ? | col BETWEEN ?)
  pmv <template> [f=N] [l=N] [policy=clock|2q]
  analyze <template> [f=N] [l=N] [budget=BYTES] [json|sarif]   static verifier (PMV001-PMV006)
  query <template> [v,..] [lo..hi,..]   run through the PMV
  plain <template> <bindings>       run without the PMV
  explain <template> <bindings>     show the plan
  stats [<template>]                PMV statistics
  health                            per-PMV circuit-breaker state
  metrics [--format prometheus|json]   per-phase latency + counter export
  profile [--json]                  contention / template-cost / stage profile
  trace [--tail N]                  last N query lifecycle traces per PMV
  revalidate [<template>]           re-derive cached tuples, lift quarantine
  checkpoint                        write a snapshot checkpoint (needs --data-dir)
  advisor                           recommend PMVs from the observed trace
  help | quit";

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded_session() -> Session {
        let mut s = Session::new();
        s.execute("load tpcr 0.001").unwrap();
        s.execute(
            "template t1 SELECT * FROM orders, lineitem \
             WHERE orders.orderkey = lineitem.orderkey \
             AND orders.orderdate = ? AND lineitem.suppkey = ?",
        )
        .unwrap();
        s
    }

    /// An (orderdate, suppkey) combination that actually has rows, so a
    /// hit serves a non-empty partial.
    fn hot_binding(s: &Session) -> (i64, i64) {
        let db = s.db.read();
        let orders = db.relation("orders").unwrap();
        let (_, o) = orders.iter().next().unwrap();
        let okey = o.get(0).as_int().unwrap();
        let date = o.get(2).as_int().unwrap();
        let lines = db.relation("lineitem").unwrap();
        let supp = lines
            .iter()
            .find(|(_, l)| l.get(0).as_int() == Some(okey))
            .unwrap()
            .1
            .get(1)
            .as_int()
            .unwrap();
        (date, supp)
    }

    #[test]
    fn full_session_flow() {
        let mut s = loaded_session();
        let out = s.execute("pmv t1 f=3 l=1000 policy=2q").unwrap();
        assert!(out.contains("F=3"));
        assert!(out.contains("2Q"));
        // Query twice: second should hit (2Q needs two admissions, so
        // warm three times).
        for _ in 0..3 {
            s.execute("query t1 [100] [1]").unwrap();
        }
        let out = s.execute("query t1 [100] [1]").unwrap();
        assert!(out.contains("hit="), "{out}");
        let stats = s.execute("stats").unwrap();
        assert!(stats.contains("t1:"), "{stats}");
        let plain = s.execute("plain t1 [100] [1]").unwrap();
        assert!(plain.contains("no PMV"));
    }

    #[test]
    fn epoch_mode_session_flow() {
        let mut s = Session::new();
        s.execute("load tpcr 0.001").unwrap();
        s.execute(
            "template t1 SELECT * FROM orders, lineitem \
             WHERE orders.orderkey = lineitem.orderkey \
             AND orders.orderdate = ? AND lineitem.suppkey = ?",
        )
        .unwrap();
        let out = s.execute("pmv t1 f=3 l=1000").unwrap();
        assert!(out.contains("epoch serving"), "{out}");
        let (date, supp) = hot_binding(&s);
        // Early queries fill through the pinned snapshot (first
        // admissions are probationary), later ones hit.
        for _ in 0..3 {
            s.execute(&format!("query t1 [{date}] [{supp}]")).unwrap();
        }
        let out = s.execute(&format!("query t1 [{date}] [{supp}]")).unwrap();
        assert!(out.contains("hit=true"), "{out}");
        assert!(!out.starts_with("0 row(s)"), "hit must serve rows: {out}");
        let stats = s.execute("stats").unwrap();
        assert!(stats.contains("shard(s)"), "{stats}");
        let health = s.execute("health").unwrap();
        assert!(health.contains("t1: healthy"), "{health}");
        let metrics = s.execute("metrics").unwrap();
        assert!(metrics.contains("pmv_t1 [healthy] queries=4"), "{metrics}");
        let reval = s.execute("revalidate").unwrap();
        assert!(reval.contains("t1: 0 stale tuple(s) removed"), "{reval}");
        let trace = s.execute("trace").unwrap();
        assert!(trace.contains("query 'pmv_t1'"), "{trace}");
    }

    #[test]
    fn profile_command_reports_live_session() {
        let mut s = Session::new();
        s.execute("load tpcr 0.001").unwrap();
        s.execute(
            "template t1 SELECT * FROM orders, lineitem \
             WHERE orders.orderkey = lineitem.orderkey \
             AND orders.orderdate = ? AND lineitem.suppkey = ?",
        )
        .unwrap();
        s.execute("pmv t1 f=3 l=1000").unwrap();
        for _ in 0..3 {
            s.execute("query t1 [100] [1]").unwrap();
        }
        let out = s.execute("profile").unwrap();
        assert!(out.contains("pmv-profile report — live session"), "{out}");
        // The template row is derived from the view's own counters.
        assert!(out.contains("t1"), "{out}");
        assert!(out.contains("pipeline stage breakdown"), "{out}");
        // Two publishes: the empty database at open, the load. Reads
        // pin the published snapshot; they never publish.
        assert!(out.contains("snapshot publishes: 2"), "{out}");
        let json: serde_json::Value =
            serde_json::from_str(&s.execute("profile --json").unwrap()).unwrap();
        assert_eq!(json["source"], "live session");
        assert_eq!(json["templates"][0]["template"], "t1");
        assert_eq!(json["templates"][0]["queries"], 3u64);
        assert!(matches!(
            s.execute("profile bogus"),
            Err(CliError::Usage(_))
        ));
    }

    /// Reads pin the published snapshot: however many queries run after
    /// the one `load`, the publish count stays at its post-load value.
    #[test]
    fn reads_never_publish_a_snapshot() {
        fn publishes(s: &mut Session) -> u64 {
            let prom = s.execute("metrics --format prometheus").unwrap();
            let line = prom
                .lines()
                .find(|l| l.starts_with("pmv_snap_publishes_total{view=\"__db\"}"));
            line.map_or(0, |l| l.rsplit(' ').next().unwrap().parse().unwrap())
        }
        let mut s = loaded_session();
        s.execute("pmv t1").unwrap();
        let after_load = publishes(&mut s);
        for i in 0..5 {
            s.execute(&format!("query t1 [{}] [1]", 100 + i)).unwrap();
        }
        assert_eq!(publishes(&mut s), after_load);
    }

    #[test]
    fn metrics_export_carries_derived_series_and_db_pseudo_view() {
        let mut s = loaded_session();
        s.execute("pmv t1").unwrap();
        s.execute("query t1 [100] [1]").unwrap();
        let prom = s.execute("metrics --format prometheus").unwrap();
        // One cold query: a miss, derived at export from the counters.
        assert!(
            prom.contains("pmv_o2_miss_total{view=\"pmv_t1\"} 1"),
            "{prom}"
        );
        assert!(
            prom.contains("pmv_o2_partial_total{view=\"pmv_t1\"} 0"),
            "{prom}"
        );
        assert!(prom.contains("pmv_o3_rows_scanned_total{view=\"pmv_t1\"}"));
        assert!(!prom.contains("acct_"), "{prom}");
        assert!(
            prom.contains("pmv_snap_publishes_total{view=\"__db\"}"),
            "{prom}"
        );
        assert!(
            prom.contains("pmv_snap_reuse_ratio{view=\"__db\"}"),
            "{prom}"
        );
        let json = s.execute("metrics --format json").unwrap();
        assert!(json.contains("\"o3_rows_scanned\""), "{json}");
        assert!(json.contains("\"name\":\"__db\""), "{json}");
    }

    /// `pmv` goes through the host's verifier gate: a definition the
    /// verifier denies is a PMV-layer error (exit code 5) that registers
    /// nothing, and `analyze` names the same diagnostic.
    #[test]
    fn pmv_on_a_denied_definition_registers_nothing() {
        let mut s = loaded_session();
        // The fixed predicate pins the condition attribute: every bcp
        // but suppkey = 1 is dead (PMV006).
        s.execute(
            "template dead SELECT * FROM orders, lineitem \
             WHERE orders.orderkey = lineitem.orderkey \
             AND lineitem.suppkey = 1 AND lineitem.suppkey = ?",
        )
        .unwrap();
        let e = s.execute("pmv dead").unwrap_err();
        assert_eq!(e.exit_code(), 5, "{e}");
        assert!(e.to_string().contains("PMV006"), "{e}");
        assert!(s.execute("stats").unwrap().contains("no PMVs"));
        assert!(matches!(
            s.execute("query dead [1]"),
            Err(CliError::Usage(m)) if m.contains("no PMV")
        ));
        let out = s.execute("analyze dead").unwrap();
        assert!(out.contains("DENIED") && out.contains("PMV006"), "{out}");
    }

    /// The host's rules are the session's: one PMV per template, a
    /// template serving a PMV keeps its name, and `load` is setup-path
    /// work that runs once, before anything else.
    #[test]
    fn host_preconditions_are_reported_not_bypassed() {
        let mut s = loaded_session();
        s.execute("pmv t1").unwrap();
        let e = s.execute("pmv t1 f=5").unwrap_err();
        assert_eq!(e.exit_code(), 5, "{e}");
        assert!(e.to_string().contains("already has a PMV"), "{e}");
        let e = s
            .execute("template t1 SELECT * FROM orders WHERE orders.orderdate = ?")
            .unwrap_err();
        assert!(matches!(&e, CliError::Usage(m) if m.contains("has a PMV")));
        let e = s.execute("load tpcr 0.001").unwrap_err();
        assert!(matches!(&e, CliError::Usage(m) if m.contains("already holds")));
        assert!(s.execute("query t1 [100] [1]").is_ok());
    }

    #[test]
    fn explain_prints_plan() {
        let mut s = loaded_session();
        let out = s.execute("explain t1 [100] [1]").unwrap();
        assert!(out.contains("drive: orders"), "{out}");
        assert!(out.contains("join: lineitem"), "{out}");
    }

    #[test]
    fn analyze_reports_verdicts() {
        let mut s = loaded_session();
        // All-equality template with default config: clean.
        let out = s.execute("analyze t1").unwrap();
        assert!(out.contains("clean"), "{out}");
        // A one-byte budget cannot hold L·F·At: PMV004 denial.
        let out = s.execute("analyze t1 budget=1").unwrap();
        assert!(out.contains("DENIED"), "{out}");
        assert!(out.contains("PMV004"), "{out}");
        // JSON mode is machine-readable and carries the same code.
        let out = s.execute("analyze t1 budget=1 json").unwrap();
        assert!(out.starts_with("{\"denied\":true"), "{out}");
        assert!(out.contains("\"code\":\"PMV004\""), "{out}");
        // Unknown template is a usage error.
        assert!(matches!(s.execute("analyze nope"), Err(CliError::Usage(_))));
    }

    #[test]
    fn analyze_sarif_mode() {
        let mut s = loaded_session();
        let out = s.execute("analyze t1 budget=1 sarif").unwrap();
        assert!(out.contains("\"version\":\"2.1.0\""), "{out}");
        assert!(out.contains("\"name\":\"pmv-verify\""), "{out}");
        assert!(out.contains("\"ruleId\":\"PMV004\""), "{out}");
        assert!(out.contains("\"level\":\"error\""), "{out}");
        // Verifier results describe a definition, not a file: no
        // locations array may appear.
        assert!(!out.contains("physicalLocation"), "{out}");
        // Clean verdict still renders a document, with zero results.
        let out = s.execute("analyze t1 sarif").unwrap();
        assert!(out.contains("\"results\":[]"), "{out}");
    }

    #[test]
    fn advisor_recommends_after_queries() {
        let mut s = loaded_session();
        s.execute("pmv t1").unwrap();
        for i in 0..5 {
            s.execute(&format!("query t1 [{i}] [1]")).unwrap();
        }
        let out = s.execute("advisor").unwrap();
        assert!(out.contains("recommend PMV"), "{out}");
        assert!(out.contains("template 't1'"), "{out}");
    }

    #[test]
    fn binding_parser() {
        assert_eq!(
            parse_bindings("[1,2] ['x']").unwrap(),
            vec![
                Binding::Values(vec![Value::Int(1), Value::Int(2)]),
                Binding::Values(vec![Value::str("x")]),
            ]
        );
        let r = parse_bindings("[10..20,30..40]").unwrap();
        match &r[0] {
            Binding::Ranges(ivs) => {
                assert_eq!(ivs.len(), 2);
                assert!(ivs[0].contains(&Value::Int(10)));
                assert!(!ivs[0].contains(&Value::Int(20)));
            }
            other => panic!("expected ranges, got {other:?}"),
        }
        assert!(parse_bindings("[1").is_err());
        assert!(parse_bindings("nope").is_err());
        assert!(parse_bindings("[]").is_err());
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let mut s = Session::new();
        assert!(s.execute("bogus").is_err());
        assert!(s
            .execute("template t SELECT * FROM nosuch WHERE nosuch.x = ?")
            .is_err());
        assert!(s.execute("query missing [1]").is_err());
        assert!(s.execute("load tpcr abc").is_err());
        // Comments and blanks are fine.
        assert_eq!(s.execute("# a comment").unwrap(), "");
        assert_eq!(s.execute("   ").unwrap(), "");
        // Arity mismatch.
        let mut s = loaded_session();
        assert!(s.execute("query t1 [1]").is_err());
        // Interval binding on an equality slot.
        assert!(s.execute("query t1 [1..2] [1]").is_err());
        // Neither maintenance option exists: maintenance has one path.
        for opt in ["maint=indexed", "heavy=1"] {
            let e = s.execute(&format!("pmv t1 {opt}")).unwrap_err();
            let key = opt.split('=').next().unwrap();
            assert!(
                matches!(&e, CliError::Usage(m) if *m == format!("unknown option '{key}'")),
                "{e:?}"
            );
        }
    }

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pmv_cli_durable").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_session_roundtrips_through_checkpoint() {
        let dir = scratch_dir("roundtrip");
        {
            let (mut s, banner) = Session::with_data_dir(&dir).unwrap();
            assert!(banner.contains("initialized"), "{banner}");
            // The load auto-checkpoints so the data survives a crash
            // right after the prompt returns.
            let out = s.execute("load tpcr 0.001").unwrap();
            assert!(out.contains("checkpoint written"), "{out}");
            s.execute(
                "template t1 SELECT * FROM orders, lineitem \
                 WHERE orders.orderkey = lineitem.orderkey \
                 AND orders.orderdate = ? AND lineitem.suppkey = ?",
            )
            .unwrap();
            s.execute("pmv t1 f=3 l=500 policy=2q").unwrap();
            let out = s.execute("checkpoint").unwrap();
            assert!(out.contains("1 view spec(s)"), "{out}");
        }
        // Reopen: catalog, data, template, and PMV all come back without
        // re-running any setup command.
        let (mut s, banner) = Session::with_data_dir(&dir).unwrap();
        assert!(banner.contains("recovered from"), "{banner}");
        assert!(banner.contains("1 view(s) re-registered"), "{banner}");
        let tables = s.execute("tables").unwrap();
        assert!(tables.contains("orders:"), "{tables}");
        for _ in 0..3 {
            s.execute("query t1 [100] [1]").unwrap();
        }
        let stats = s.execute("stats").unwrap();
        assert!(stats.contains("policy 2Q"), "{stats}");
        let health = s.execute("health").unwrap();
        assert!(health.contains("durability: dir"), "{health}");
        assert!(health.contains("recovery: checkpoint loaded"), "{health}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_epoch_session_restores_shard_count() {
        let dir = scratch_dir("epoch_shards");
        {
            let (mut s, _) = Session::with_data_dir(&dir).unwrap();
            s.execute("load tpcr 0.001").unwrap();
            s.execute(
                "template t1 SELECT * FROM orders, lineitem \
                 WHERE orders.orderkey = lineitem.orderkey \
                 AND orders.orderdate = ? AND lineitem.suppkey = ?",
            )
            .unwrap();
            s.execute("pmv t1 f=3 l=1000").unwrap();
            s.execute("checkpoint").unwrap();
        }
        let (mut s, _) = Session::with_data_dir(&dir).unwrap();
        let before = s.execute("stats").unwrap();
        let (mut s2, _) = Session::with_data_dir(&dir).unwrap();
        assert_eq!(before, s2.execute("stats").unwrap(), "shard count drifted");
        // The re-attached view is cold; it refills and then hits.
        let (date, supp) = hot_binding(&s);
        let query = format!("query t1 [{date}] [{supp}]");
        s.execute(&query).unwrap();
        let out = s.execute(&query).unwrap();
        assert!(out.contains("hit=true"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Data directories written before every view was sharded carry
    /// `shards: 0` in their view specs (the old locked mode); epoch-mode
    /// ones carry the shard count. Both reopen, re-register the view and
    /// answer.
    #[test]
    fn view_specs_with_and_without_a_shard_count_reopen() {
        for shards in [0usize, 4] {
            let dir = scratch_dir(&format!("spec_shards_{shards}"));
            {
                let (mut s, _) = Session::with_data_dir(&dir).unwrap();
                s.execute("load tpcr 0.001").unwrap();
                s.execute(
                    "template t1 SELECT * FROM orders, lineitem \
                     WHERE orders.orderkey = lineitem.orderkey \
                     AND orders.orderdate = ? AND lineitem.suppkey = ?",
                )
                .unwrap();
                s.execute("pmv t1 f=3 l=1000").unwrap();
                let mut specs = s.view_specs();
                specs[0].shards = shards;
                s.db.checkpoint(specs).unwrap();
            }
            let (mut s, banner) = Session::with_data_dir(&dir).unwrap();
            assert!(banner.contains("1 view(s) re-registered"), "{banner}");
            let out = s.execute("query t1 [100] [1]").unwrap();
            assert!(out.contains("hit="), "{out}");
            let stats = s.execute("stats").unwrap();
            assert!(stats.contains("t1: 1 queries"), "{stats}");
            if shards > 0 {
                assert!(stats.contains(&format!("{shards} shard(s)")), "{stats}");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// One view type, one host: every per-view report names a view once.
    #[test]
    fn reports_list_each_view_once() {
        let mut s = loaded_session();
        s.execute("pmv t1").unwrap();
        s.execute("query t1 [100] [1]").unwrap();
        let count = |text: &str, needle: &str| text.matches(needle).count();
        assert_eq!(count(&s.execute("health").unwrap(), "t1: "), 1);
        assert_eq!(count(&s.execute("stats").unwrap(), "t1: "), 1);
        assert_eq!(count(&s.execute("metrics").unwrap(), "pmv_t1 ["), 1);
        let json = s.execute("metrics --format json").unwrap();
        assert_eq!(count(&json, "\"name\":\"pmv_t1\""), 1, "{json}");
        assert_eq!(count(&s.execute("trace").unwrap(), "query 'pmv_t1'"), 1);
        assert_eq!(count(&s.execute("revalidate").unwrap(), "t1: "), 1);
        let profile = s.execute("profile --json").unwrap();
        assert_eq!(count(&profile, "\"template\":\"t1\""), 1, "{profile}");
    }

    /// Every file and directory under `dir`, with file contents.
    fn dir_image(dir: &std::path::Path) -> Vec<(std::path::PathBuf, Option<Vec<u8>>)> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                out.push((path.clone(), None));
                out.extend(dir_image(&path));
            } else {
                let bytes = std::fs::read(&path).unwrap();
                out.push((path, Some(bytes)));
            }
        }
        out.sort();
        out
    }

    /// A checkpoint whose view spec names a policy this build does not
    /// have (`lru`) fails the open with a usage error naming it, and
    /// leaves the data directory exactly as it was.
    #[test]
    fn checkpoint_naming_a_deleted_policy_is_a_usage_error() {
        let dir = scratch_dir("deleted_policy");
        {
            let (db, _) =
                EpochDb::open_durable(&dir, Arc::new(pmv_obs::ObsRegistry::new())).unwrap();
            db.with_write(|db| {
                let config = TpcrConfig {
                    scale: 0.001,
                    seed: 0xc0ffee,
                    pad: false,
                    date_supplier_pool: Some(2),
                };
                tpcr::generate(db, &config)?;
                tpcr::standard_indexes(db)
            })
            .unwrap();
            db.checkpoint(vec![ViewSpec {
                name: "t1".to_string(),
                sql: "SELECT * FROM orders, lineitem \
                      WHERE orders.orderkey = lineitem.orderkey \
                      AND orders.orderdate = ? AND lineitem.suppkey = ?"
                    .to_string(),
                f: 3,
                l: 100,
                policy: "lru".to_string(),
                shards: 1,
                dividers: vec![None, None],
            }])
            .unwrap();
        }
        let before = dir_image(&dir);
        let e = Session::with_data_dir(&dir)
            .err()
            .expect("a deleted policy must not reopen");
        assert_eq!(e.exit_code(), 2, "{e}");
        assert!(
            matches!(&e, CliError::Usage(m) if m.contains("'lru'")),
            "{e:?}"
        );
        assert_eq!(
            dir_image(&dir),
            before,
            "the failed open changed the directory"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_session_opens_flight_spool() {
        let dir = scratch_dir("flight_spool");
        let (mut s, _) = Session::with_data_dir(&dir).unwrap();
        assert!(dir.join("flight").is_dir(), "spool dir created at open");
        let out = s.execute("profile").unwrap();
        assert!(
            out.contains("0 flight dump(s) written this session"),
            "{out}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_without_data_dir_is_a_durability_error() {
        let mut s = Session::new();
        let e = s.execute("checkpoint").unwrap_err();
        assert!(matches!(e, CliError::Durability(_)), "{e}");
        assert_eq!(e.exit_code(), 6);
        assert!(e.to_string().contains("--data-dir"), "{e}");
    }

    #[test]
    fn quit_signals_termination() {
        let mut s = Session::new();
        assert!(matches!(s.execute("quit").unwrap_err(), CliError::Quit));
    }

    #[test]
    fn errors_carry_distinct_exit_codes() {
        let mut s = Session::new();
        let e = s.execute("bogus").unwrap_err();
        assert!(matches!(e, CliError::Usage(_)));
        assert_eq!(e.exit_code(), 2);
        // Template over a missing relation: root cause is the catalog
        // lookup, so it classifies as a storage error.
        let e = s
            .execute("template t SELECT * FROM nosuch WHERE nosuch.x = ?")
            .unwrap_err();
        assert!(matches!(e, CliError::Storage(_)));
        assert_eq!(e.exit_code(), 3);
        assert!(matches!(CliError::Quit.exit_code(), 0));
        // Root-cause classification unwraps nested errors.
        let nested = CliError::from(pmv_core::CoreError::Query(pmv_query::QueryError::Storage(
            pmv_storage::StorageError::UnknownRelation("r".to_string()),
        )));
        assert!(matches!(nested, CliError::Storage(_)));
        assert_eq!(nested.exit_code(), 3);
    }

    #[test]
    fn metrics_command_formats() {
        let mut s = loaded_session();
        assert!(s.execute("metrics").unwrap().contains("no PMVs"));
        s.execute("pmv t1").unwrap();
        for _ in 0..3 {
            s.execute("query t1 [100] [1]").unwrap();
        }
        let human = s.execute("metrics").unwrap();
        assert!(human.contains("pmv_t1 [healthy] queries=3"), "{human}");
        assert!(human.contains("ttfr"), "{human}");
        let prom = s.execute("metrics --format prometheus").unwrap();
        assert!(
            prom.contains("pmv_queries_total{view=\"pmv_t1\"} 3"),
            "{prom}"
        );
        assert!(
            prom.contains("pmv_phase_latency_seconds_count{view=\"pmv_t1\",phase=\"full\"} 3"),
            "{prom}"
        );
        let json = s.execute("metrics --format=json").unwrap();
        assert!(json.contains("\"name\":\"pmv_t1\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(matches!(
            s.execute("metrics --format bogus"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn trace_command_tails_lifecycles() {
        let mut s = loaded_session();
        assert!(s.execute("trace").unwrap().contains("no PMVs"));
        s.execute("pmv t1").unwrap();
        for i in 0..4 {
            s.execute(&format!("query t1 [{i}] [1]")).unwrap();
        }
        let out = s.execute("trace --tail 2").unwrap();
        assert_eq!(
            out.lines().filter(|l| l.contains("query 'pmv_t1'")).count(),
            2,
            "{out}"
        );
        assert!(out.contains("FirstResults"), "{out}");
        let all = s.execute("trace").unwrap();
        assert_eq!(
            all.lines().filter(|l| l.contains("query 'pmv_t1'")).count(),
            4,
            "{all}"
        );
        assert!(matches!(
            s.execute("trace --tail nope"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn health_and_revalidate_commands() {
        let mut s = loaded_session();
        assert!(s.execute("health").unwrap().contains("no PMVs"));
        s.execute("pmv t1").unwrap();
        s.execute("query t1 [100] [1]").unwrap();
        let out = s.execute("health").unwrap();
        // One line per view, rendered from its metrics; only the age
        // depends on the clock.
        let (head, rest) = out.trim_end().split_once("last verified ").unwrap();
        let (age, tail) = rest.split_once("ms ago").unwrap();
        assert_eq!(
            head,
            "pmv_t1: healthy (error rate 0.000, trips 0, degraded queries 0, \
             quarantine events 0, "
        );
        assert!(age.parse::<u64>().is_ok(), "{out}");
        assert_eq!(tail, ", 0 shard(s) quarantined)");
        let out = s.execute("revalidate").unwrap();
        assert!(out.contains("t1: 0 stale tuple(s) removed"), "{out}");
        assert!(s
            .execute("revalidate nope")
            .unwrap()
            .contains("no matching"));
    }
}
