//! Regenerate every table and figure of the paper from a finished run.
//!
//! Each section pairs the measured values with the paper's published
//! numbers so the shape comparison of EXPERIMENTS.md falls straight out of
//! `Report::render_text()`. Scale-dependent quantities (counts, volumes)
//! are compared as ratios/rankings; scale-invariant ones (percentages,
//! orderings, who-wins) directly.
//!
//! Every generation path funnels into one section pipeline,
//! `render_sections`, which renders the paper from a sealed
//! [`AnalysisFrame`] plus the three inputs no event carries (volume scale,
//! planted bait, final fleet snapshot). [`Report::generate`] folds the
//! in-memory store's chunks on scoped workers, merges and seals;
//! [`Report::from_journal_streaming`] folds a journal's replay one segment
//! at a time, never holding the event store; [`Report::from_shards`] folds
//! the segments of several journal directories on scoped worker threads,
//! straight from the segment decoder, and merges the partial frames into
//! one global report; and [`LiveReport`] keeps a running fold over a
//! journal that is still being written. Every path is pinned byte for byte
//! to the committed golden `tests/golden/report.txt`
//! (`tests/golden_report.rs`).

use crate::deployment::DeploymentPlan;
use crate::runner::{ExperimentConfig, ExperimentResult};
use decoy_analysis::behavior::{BehaviorTable, FamilyBehavior};
use decoy_analysis::classify::{Behavior, BehaviorProfile, ClassCounts};
use decoy_analysis::ecdf::{retention_days, single_day_fraction, Ecdf};
use decoy_analysis::fleet::{fleet_totals, fleet_uptime, ListenerUptime};
use decoy_analysis::fold::{fold_blocks, PartialFrame};
use decoy_analysis::frame::{AnalysisFrame, FrameKind, FrameKindRef, FrameView, Partition};
use decoy_analysis::honeytokens::{detect_reuse, HoneytokenReport};
use decoy_analysis::intel::{coverage, IntelFeed};
use decoy_analysis::tables;
use decoy_analysis::tagging::CampaignTag;
use decoy_analysis::timeseries::{hourly_series, HourlySeries};
use decoy_analysis::upset::{upset, UpSet};
use decoy_base::health::FleetHealth;
use decoy_base::time::EXPERIMENT_START;
use decoy_geo::{GeoDb, GeoEnricher};
use decoy_store::journal::read_segment;
use decoy_store::{
    decode_segment, ConfigVariant, Dbms, InteractionLevel, JournalError, JournalErrorKind,
    JournalReader, JournalTail, RecoveryStats, SegmentVerdict,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::net::IpAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::ScopedJoinHandle;

/// The medium/high honeypot families of §6.
pub const MED_HIGH_FAMILIES: [Dbms; 4] =
    [Dbms::Elastic, Dbms::MongoDb, Dbms::Postgres, Dbms::Redis];

/// Distance threshold used when cutting the Ward dendrogram. Chosen so
/// campaign-identical bots collapse while distinct scripts stay apart
/// (validated against the Table 8 cluster counts in EXPERIMENTS.md).
pub const CLUSTER_CUT: f64 = 0.05;

/// One generated section.
#[derive(Debug, Clone)]
pub struct Section {
    /// Artifact id, e.g. `Table 5`.
    pub id: String,
    /// Title.
    pub title: String,
    /// Preformatted body.
    pub body: String,
}

/// The full report.
pub struct Report {
    /// Sections in paper order.
    pub sections: Vec<Section>,
}

impl Report {
    /// Build every artifact from a finished run.
    ///
    /// Folds the store's chunks into [`PartialFrame`]s on every core,
    /// merges and seals them ([`AnalysisFrame::build_with`], the only full
    /// walk of the log), then renders every section concurrently from that
    /// shared view. Sections land in paper order regardless of completion
    /// order.
    pub fn generate(result: &ExperimentResult) -> Report {
        let enricher = GeoEnricher::new(Arc::clone(&result.geo));
        let frame = AnalysisFrame::build_with(&result.store, &enricher);
        let sections = render_sections(
            &frame,
            result.config.scale,
            &fake_data_bait(&result.plan),
            result.fleet.as_ref(),
        );
        Report { sections }
    }

    /// Build every artifact from a spooled journal directory instead of a
    /// live run: the journal's strict replay ([`JournalReader::replay`])
    /// pushes each recovered record, borrowed from its segment's buffer,
    /// into a running [`PartialFrame`], which is sealed once at the end.
    /// Peak memory is bounded by the largest single segment plus the fold
    /// itself — the whole event store is never resident. Recovery is the
    /// strict replay's ([`decoy_store::recover_full_store`] returns the same
    /// [`RecoveryStats`]): the fold stops at the first corruption or
    /// sequence gap, later decodable records are counted as dropped, and a
    /// torn tail on the final segment (the normal crash shape) is truncated
    /// silently. On a fault-free journal of a run with the same config, the
    /// rendered report is byte-identical to the one the original process
    /// would have produced.
    pub fn from_journal_streaming(
        config: ExperimentConfig,
        dir: impl AsRef<std::path::Path>,
    ) -> std::io::Result<(Report, RecoveryStats)> {
        let reader = JournalReader::open(dir)?;
        let enricher = GeoEnricher::new(GeoDb::builtin());
        let mut partial = PartialFrame::new(0);
        let stats = reader.replay(|event| partial.push(event, &enricher));
        let frame = partial.seal();
        let plan =
            DeploymentPlan::scaled_with(config.seed, config.deployment_scale, config.extensions);
        let sections = render_sections(&frame, config.scale, &fake_data_bait(&plan), None);
        Ok((Report { sections }, stats))
    }

    /// Join several journal directories — shards of one logical run, keyed
    /// by global sequence number — into a single report.
    ///
    /// The (directory, segment) jobs are split into contiguous blocks, one
    /// per scoped worker thread: [`std::thread::available_parallelism`] of
    /// them, and at most one per segment. A worker decodes each file of its
    /// block straight into a per-segment [`PartialFrame`] anchored at its
    /// first sequence number ([`decode_segment`] hands over one borrowed
    /// record at a time, so no segment's events are ever collected or
    /// copied) and merges that into its own running partial; the main
    /// thread merges the workers' partials in block order. Each worker
    /// holds one raw segment and its partial in flight, beside its running
    /// partial with its own string and source tables, so peak memory grows
    /// with the number of workers: the 2.82 M-event join at the benchmark's
    /// default scale peaked at 176, 181, 186 and 203 MB with 1, 2, 4 and 8
    /// workers, of which the rows and indices take 124 MB (44 bytes per
    /// event). The merge keeps the longest copy of
    /// every segment that the shards hold, so for shards that hold whole or
    /// damaged copies of one journal's segment files neither shard order on
    /// the command line nor how the segments fell to the workers changes
    /// the report.
    ///
    /// Each segment's verdict is applied to the returned [`RecoveryStats`]
    /// in (directory, segment) order. The join is lenient per shard (a
    /// shard's own torn tail is swallowed as truncation); the first
    /// unreadable or corrupt segment is reported at its position within its
    /// own directory; and if the union of shards leaves a hole in the
    /// global sequence range, the first gap is surfaced as a
    /// [`JournalErrorKind::SequenceGap`] while the report still renders
    /// from everything that survived.
    pub fn from_shards<P: AsRef<std::path::Path>>(
        config: ExperimentConfig,
        dirs: &[P],
    ) -> std::io::Result<(Report, RecoveryStats)> {
        let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
        Report::join_shards(config, dirs, workers)
    }

    /// [`Report::from_shards`] on `workers` scoped worker threads.
    fn join_shards<P: AsRef<std::path::Path>>(
        config: ExperimentConfig,
        dirs: &[P],
        workers: usize,
    ) -> std::io::Result<(Report, RecoveryStats)> {
        let mut jobs = Vec::new();
        for dir in dirs {
            let reader = JournalReader::open(dir)?;
            jobs.extend(reader.segment_paths().iter().cloned().enumerate());
        }
        let enricher = GeoEnricher::new(GeoDb::builtin());
        let (merged, mut stats) = fold_segments(&jobs, &enricher, workers);
        stats.records_kept = merged.span();
        if stats.error.is_none() {
            if let Some((expected, found)) = coverage_gap(&merged.run_ranges()) {
                stats.error = Some(JournalError {
                    segment: 0,
                    offset: 0,
                    kind: JournalErrorKind::SequenceGap { expected, found },
                });
            }
        }
        let frame = merged.seal();
        let plan =
            DeploymentPlan::scaled_with(config.seed, config.deployment_scale, config.extensions);
        let sections = render_sections(&frame, config.scale, &fake_data_bait(&plan), None);
        Ok((Report { sections }, stats))
    }

    /// Render everything as a text report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for section in &self.sections {
            let _ = writeln!(out, "==== {} — {} ====", section.id, section.title);
            out.push_str(&section.body);
            out.push('\n');
        }
        out
    }

    /// Find a section by id.
    pub fn section(&self, id: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.id == id)
    }
}

// ---------------------------------------------------------------------------
// The section pipeline — shared by every frame-based generation path
// ---------------------------------------------------------------------------

/// Render every section of the paper, in order, from one sealed
/// [`AnalysisFrame`]. This is the single section pipeline: the batch path
/// ([`Report::generate`]), the streaming paths
/// ([`Report::from_journal_streaming`], [`LiveReport`]) and the shard join
/// ([`Report::from_shards`]) all feed it a frame plus the three inputs no
/// event carries — the volume scale, the planted bait credentials, and the
/// optional final fleet snapshot.
///
/// The sections run on scoped threads. One of them builds the
/// [`BehaviorTable`], the single derivation of every medium/high source's
/// behavior; Tables 8–11, Figure 5 and the §6 intel gap format it once it
/// is joined, while the other sections keep running.
fn render_sections(
    frame: &AnalysisFrame,
    scale: f64,
    bait: &[(String, String)],
    fleet: Option<&FleetHealth>,
) -> Vec<Section> {
    std::thread::scope(|s| {
        let low = frame.view(Partition::Low);
        let mh = frame.view(Partition::MedHigh);
        let all = frame.view(Partition::All);
        let behavior = s.spawn(move || BehaviorTable::build(mh, &MED_HIGH_FAMILIES, CLUSTER_CUT));
        let summary = s.spawn(move || sec5_summary(low, scale));
        // one pass renders all five hourly figures (Figures 2, 6–9)
        let hourly = s.spawn(move || hourly_figures(low));
        let leading = [
            s.spawn(move || fig3(low)),
            s.spawn(move || fmt_table5(tables::logins_by_country(low))),
            s.spawn(move || fmt_table6(tables::asn_table(low))),
            s.spawn(move || fmt_table7(tables::astype_login_ips(low))),
            s.spawn(move || fmt_table12(tables::top_credentials(low, Dbms::Mssql, 10))),
            s.spawn(move || fmt_fig4(upset(mh, &MED_HIGH_FAMILIES))),
        ];
        let trailing = [
            s.spawn(move || fmt_sec5_control(tables::control_group_summary(low))),
            s.spawn(move || fmt_sec6_config(sec6_config_data(all))),
            s.spawn(move || fmt_sec6_fake_data(&detect_reuse(all, bait))),
        ];
        let noisy = s.spawn(move || noisy_sources(low));
        let closing = [
            s.spawn(move || sec_detectability(all)),
            s.spawn(move || fmt_fleet(fleet_uptime(frame.health_events()), fleet)),
        ];
        let panicked = "report section thread panicked";
        let join = |h: ScopedJoinHandle<'_, Section>| h.join().expect(panicked);
        let table = behavior.join().expect(panicked);
        let mut sections = vec![join(summary)];
        sections.extend(hourly.join().expect(panicked));
        sections.extend(leading.into_iter().map(join));
        sections.push(fmt_table8(&table));
        sections.push(fmt_table9(&table));
        sections.push(fmt_table10(tables::exploit_countries(&table)));
        sections.push(fmt_table11(tables::astype_behavior(&table)));
        let retention = &retention_days(mh, EXPERIMENT_START)[&None];
        sections.push(fmt_fig5(fig5_samples(&table, retention)));
        sections.extend(trailing.into_iter().map(join));
        sections.push(fmt_sec6_intel(&noisy.join().expect(panicked), &table));
        sections.extend(closing.into_iter().map(join));
        sections
    })
}

/// Fold the shard join's segments on `workers` scoped workers (see
/// [`Report::from_shards`]) through [`fold_blocks`], the block split and
/// in-order merge the batch build uses too. `jobs` holds each segment's
/// position within its own directory and its path, in (directory, segment)
/// order; each worker folds one contiguous block of them. Returns the
/// merged partial and the stats of every segment's verdict, applied in job
/// order; `records_kept` and the coverage check are left to the caller.
fn fold_segments(
    jobs: &[(usize, PathBuf)],
    enricher: &GeoEnricher,
    workers: usize,
) -> (PartialFrame, RecoveryStats) {
    let (merged, blocks) = fold_blocks(jobs, workers, |jobs| fold_block(jobs, enricher));
    let mut stats = RecoveryStats::default();
    for verdict in blocks.into_iter().flatten() {
        let (dropped, truncated, error) = match verdict {
            Ok(verdict) => (
                verdict.records_dropped,
                verdict.bytes_truncated,
                verdict.error,
            ),
            Err(unreadable) => (0, 0, Some(unreadable)),
        };
        stats.count_segment(dropped, truncated);
        if stats.error.is_none() {
            stats.error = error;
        }
    }
    (merged, stats)
}

/// One worker's share of [`fold_segments`]: read each segment file into
/// the worker's one buffer, decode it straight into its own
/// [`PartialFrame`] and merge that into the worker's running partial.
/// Returns the partial and each segment's verdict in order; an unreadable
/// segment is a [`JournalErrorKind::Io`] error at its position.
fn fold_block(
    jobs: &[(usize, PathBuf)],
    enricher: &GeoEnricher,
) -> (PartialFrame, Vec<Result<SegmentVerdict, JournalError>>) {
    let mut folded = PartialFrame::new(0);
    let mut verdicts = Vec::with_capacity(jobs.len());
    let mut buf = Vec::new();
    for (position, path) in jobs {
        let segment = u32::try_from(*position).unwrap_or(u32::MAX);
        let mut partial: Option<PartialFrame> = None;
        verdicts.push(match read_segment(path, &mut buf) {
            Ok(()) => Ok(decode_segment(&buf, segment, |seq, event| {
                partial
                    .get_or_insert_with(|| PartialFrame::new(seq))
                    .push(event, enricher)
            })),
            Err(err) => Err(JournalError {
                segment,
                offset: 0,
                kind: JournalErrorKind::Io {
                    message: err.to_string(),
                },
            }),
        });
        if let Some(partial) = partial {
            folded = PartialFrame::merge(folded, partial);
        }
    }
    (folded, verdicts)
}

/// First hole in a merged frame's sequence coverage, as `(expected, found)`
/// — `None` when the runs cover a contiguous range starting at 0.
fn coverage_gap(ranges: &[(u64, u64)]) -> Option<(u64, u64)> {
    let mut expected = 0u64;
    for &(start, end) in ranges {
        if start != expected {
            return Some((expected, start));
        }
        expected = end;
    }
    None
}

// ---------------------------------------------------------------------------
// Live report
// ---------------------------------------------------------------------------

/// A live, incrementally folded report over a journal directory that is
/// still being written — report-as-you-ingest.
///
/// Each [`poll`](LiveReport::poll) drains the records the journal has
/// completed since the last poll (via [`JournalTail`], which never reads a
/// frame that could still be half-written) into a running [`PartialFrame`];
/// [`render`](LiveReport::render) seals a snapshot of the fold and renders
/// the full report from it, so a reader can re-render every N seconds while
/// the experiment is still running. Once the writer has closed the journal
/// and a final poll has drained it, the rendered report is byte-identical
/// to [`Report::from_journal_streaming`] over the finished directory.
pub struct LiveReport {
    scale: f64,
    bait: Vec<(String, String)>,
    enricher: GeoEnricher,
    tail: JournalTail,
    partial: PartialFrame,
    events_seen: u64,
}

impl LiveReport {
    /// Open a live view over `dir`. Infallible: a directory that does not
    /// exist yet simply has nothing to fold until the writer creates it.
    pub fn open(config: &ExperimentConfig, dir: impl AsRef<std::path::Path>) -> LiveReport {
        let plan =
            DeploymentPlan::scaled_with(config.seed, config.deployment_scale, config.extensions);
        LiveReport {
            scale: config.scale,
            bait: fake_data_bait(&plan),
            enricher: GeoEnricher::new(GeoDb::builtin()),
            tail: JournalTail::open(dir),
            partial: PartialFrame::new(0),
            events_seen: 0,
        }
    }

    /// Drain every record the journal has completed since the last poll
    /// into the running fold; returns how many events were folded. An `Err`
    /// is a transient I/O failure (retry later); journal damage parks the
    /// tail permanently and surfaces in [`journal_error`](Self::journal_error).
    pub fn poll(&mut self) -> std::io::Result<usize> {
        let events = self.tail.poll()?;
        for event in &events {
            self.partial.push(event, &self.enricher);
        }
        self.events_seen = self.events_seen.saturating_add(events.len() as u64);
        Ok(events.len())
    }

    /// Seal a snapshot of the current fold and render the full report from
    /// it. The running fold is untouched, so polling can continue.
    pub fn render(&self) -> Report {
        let frame = self.partial.clone().seal();
        Report {
            sections: render_sections(&frame, self.scale, &self.bait, None),
        }
    }

    /// Total events folded so far.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// The journal damage the tail has parked on (sticky), if any.
    pub fn journal_error(&self) -> Option<&JournalError> {
        self.tail.error()
    }
}

// ---------------------------------------------------------------------------
// Section 5 summary
// ---------------------------------------------------------------------------

fn fmt_sec5_summary(
    scan: &tables::ScanningSummary,
    brute: &tables::BruteforceSummary,
    scale: f64,
) -> Section {
    let mssql = brute.per_dbms.get(&Dbms::Mssql).copied().unwrap_or(0);
    let mut body = String::new();
    let _ = writeln!(body, "scale factor: {scale}");
    let _ = writeln!(
        body,
        "unique source IPs: {} (paper: 3,340 × scale = {:.0})",
        scan.unique_ips,
        3340.0 * scale
    );
    let _ = writeln!(
        body,
        "institutional sources: {} (paper: 1,468; share {:.1}% vs paper 44%)",
        scan.institutional_ips,
        100.0 * scan.institutional_ips as f64 / scan.unique_ips.max(1) as f64
    );
    for (country, n) in scan.country_counts.iter().take(3) {
        let _ = writeln!(
            body,
            "  {country}: {n} sources ({:.1}%)",
            100.0 * *n as f64 / scan.unique_ips.max(1) as f64
        );
    }
    let _ = writeln!(
        body,
        "login attempts: {} total, {} MSSQL ({:.2}%; paper: 18,162,811 total, 99.53% MSSQL)",
        brute.total_logins,
        mssql,
        100.0 * mssql as f64 / brute.total_logins.max(1) as f64
    );
    let _ = writeln!(body, "brute-force clients: {} (paper: 599)", brute.clients);
    // the paper's "average number of brute-force attempts per client"
    // divides by the full client population (18,162,811 / 3,380 ≈ 5,373)
    let _ = writeln!(
        body,
        "attempts per client (all clients): {:.0} (paper: 5,373); per brute-forcer: {:.0}",
        brute.total_logins as f64 / scan.unique_ips.max(1) as f64,
        brute.avg_attempts_per_client
    );
    Section {
        id: "Section 5".into(),
        title: "low-interaction headline statistics".into(),
        body,
    }
}

fn sec5_summary(low: FrameView<'_>, scale: f64) -> Section {
    fmt_sec5_summary(
        &tables::scanning_summary(low),
        &tables::bruteforce_summary(low),
        scale,
    )
}

// ---------------------------------------------------------------------------
// Figures 2, 6–9
// ---------------------------------------------------------------------------

fn fmt_fig2(series: &HourlySeries, id: &str, what: &str) -> Section {
    let mut body = String::new();
    let _ = writeln!(
        body,
        "clients/hour mean: {:.1}   new clients/hour mean: {:.2}   total unique: {}",
        series.mean_clients_per_hour(),
        series.mean_new_clients_per_hour(),
        series.total_unique_clients()
    );
    body.push_str(&sparkline(
        &series
            .buckets
            .iter()
            .map(|b| b.unique_clients as f64)
            .collect::<Vec<_>>(),
        80,
    ));
    body.push('\n');
    Section {
        id: id.into(),
        title: format!("hourly client IPs, {what}"),
        body,
    }
}

/// The hourly figures in report order: Figure 2 over every low-interaction
/// family, Figures 6–9 over one family each.
const HOURLY_FIGURES: [(Option<Dbms>, &str); 5] = [
    (None, "Figure 2"),
    (Some(Dbms::Mssql), "Figure 6"),
    (Some(Dbms::MySql), "Figure 7"),
    (Some(Dbms::Postgres), "Figure 8"),
    (Some(Dbms::Redis), "Figure 9"),
];

fn hourly_figures(low: FrameView<'_>) -> Vec<Section> {
    let series = hourly_series(low, EXPERIMENT_START, 480);
    HOURLY_FIGURES
        .iter()
        .map(|&(dbms, id)| {
            let what = dbms.map_or("all low-interaction honeypots", |d| d.label());
            fmt_fig2(&series[&dbms], id, what)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------------

/// Figure 3's per-DBMS panels, in order.
const FIG3_DBMS: [Dbms; 4] = [Dbms::MySql, Dbms::Postgres, Dbms::Redis, Dbms::Mssql];

/// Format Figure 3 from the per-panel retention of [`retention_days`].
fn fmt_fig3(retention: &BTreeMap<Option<Dbms>, BTreeMap<IpAddr, usize>>) -> Section {
    let mut body = String::new();
    for dbms in FIG3_DBMS {
        let ecdf = Ecdf::new(retention[&Some(dbms)].values().map(|&d| d as f64).collect());
        let _ = writeln!(
            body,
            "{:<11} n={:<5} P(days<=1)={:.2} P(<=3)={:.2} P(<=10)={:.2}",
            dbms.label(),
            ecdf.len(),
            ecdf.eval(1.0),
            ecdf.eval(3.0),
            ecdf.eval(10.0)
        );
    }
    let _ = writeln!(
        body,
        "single-day fraction (all low): {:.2} (paper: 0.43)",
        single_day_fraction(&retention[&None])
    );
    Section {
        id: "Figure 3".into(),
        title: "client retention CDF, low interaction".into(),
        body,
    }
}

fn fig3(low: FrameView<'_>) -> Section {
    fmt_fig3(&retention_days(low, EXPERIMENT_START))
}

// ---------------------------------------------------------------------------
// Tables 5–7, 12
// ---------------------------------------------------------------------------

fn fmt_table5(rows: Vec<tables::CountryLoginRow>) -> Section {
    let mut body = format!(
        "{:<8} {:>12} {:>11} {:>9} {:>9} {:>12}\n",
        "Country", "#Logins", "#IP/Total", "#MySQL", "#PSQL", "#MSSQL"
    );
    for row in rows.iter().take(10) {
        let _ = writeln!(
            body,
            "{:<8} {:>12} {:>5}/{:<5} {:>9} {:>9} {:>12}",
            row.country,
            row.logins,
            row.ips_with_logins,
            row.ips_total,
            row.per_dbms.get(&Dbms::MySql).copied().unwrap_or(0),
            row.per_dbms.get(&Dbms::Postgres).copied().unwrap_or(0),
            row.per_dbms.get(&Dbms::Mssql).copied().unwrap_or(0),
        );
    }
    body.push_str("paper top-3 by volume: RU (16.6M), CN (884k), EE (161k)\n");
    Section {
        id: "Table 5".into(),
        title: "top countries by login attempts".into(),
        body,
    }
}

fn fmt_table6(rows: Vec<tables::AsnRow>) -> Section {
    let mut body = format!(
        "{:<45} {:>6} {:>8} {:>10} {:>8} {:>10}\n",
        "AS", "#IPs", "share%", "#Logins", "MySQL", "MSSQL"
    );
    for row in rows.iter().filter(|r| r.asn != 0).take(10) {
        let _ = writeln!(
            body,
            "{:<45} {:>6} {:>7.2}% {:>10} {:>8} {:>10}",
            format!("{} (AS{})", row.name, row.asn),
            row.ips,
            100.0 * row.share,
            row.logins,
            row.per_dbms.get(&Dbms::MySql).copied().unwrap_or(0),
            row.per_dbms.get(&Dbms::Mssql).copied().unwrap_or(0),
        );
    }
    body.push_str(
        "paper top-3 by IPs: HURRICANE 19.25%, GOOGLE-CLOUD 16.77%, DIGITALOCEAN 11.74%\n",
    );
    Section {
        id: "Table 6".into(),
        title: "top ASes by IP count with login distribution".into(),
        body,
    }
}

fn fmt_table7(counts: BTreeMap<decoy_geo::AsType, usize>) -> Section {
    let mut body = format!("{:<12} {:>8}\n", "Category", "IPs");
    let mut rows: Vec<_> = counts.iter().collect();
    rows.sort_by(|a, b| b.1.cmp(a.1));
    for (t, n) in rows {
        let _ = writeln!(body, "{:<12} {:>8}", t.label(), n);
    }
    body.push_str("paper: Hosting 286, Telecom 103, Unknown 148 lead the table\n");
    Section {
        id: "Table 7".into(),
        title: "#IPs by AS type that attempted logins".into(),
        body,
    }
}

fn fmt_table12(stats: tables::CredentialStats) -> Section {
    let mut body = format!(
        "{:<16} {:>9}   {:<16} {:>9}\n",
        "Username", "count", "Password", "count"
    );
    for i in 0..10 {
        let u = stats
            .top_usernames
            .get(i)
            .map(|(u, n)| (u.as_str(), *n))
            .unwrap_or(("-", 0));
        let p = stats
            .top_passwords
            .get(i)
            .map(|(p, n)| (p.as_str(), *n))
            .unwrap_or(("-", 0));
        let password_display = if p.0.is_empty() { "\"\"" } else { p.0 };
        let _ = writeln!(
            body,
            "{:<16} {:>9}   {:<16} {:>9}",
            u.0, u.1, password_display, p.1
        );
    }
    let _ = writeln!(
        body,
        "unique combos: {}  usernames: {}  passwords: {} (paper: 240,131 / 14,540 / 226,961)",
        stats.unique_combinations, stats.unique_usernames, stats.unique_passwords
    );
    body.push_str("paper top username: sa; top pairs: sa/123, admin/123456, hbv7/\"\"\n");
    Section {
        id: "Table 12".into(),
        title: "top MSSQL usernames and passwords".into(),
        body,
    }
}

// ---------------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------------

fn fmt_fig4(u: UpSet) -> Section {
    let mut body = format!(
        "sources: {} total, {} exclusive to one family, {} on several\n",
        u.total(),
        u.exclusive_total(),
        u.multi_total()
    );
    for (combo, n) in u.sorted().into_iter().take(12) {
        let label: Vec<&str> = combo.iter().map(|d| d.label()).collect();
        let _ = writeln!(body, "{:>6}  {}", n, label.join(" ∩ "));
    }
    let _ = writeln!(body, "set sizes:");
    for (dbms, n) in &u.set_sizes {
        let _ = writeln!(body, "  {:<11} {}", dbms.label(), n);
    }
    body.push_str("paper: PostgreSQL 1,955 > Elastic 1,237 ≳ MongoDB 1,233 > Redis 980; most IPs hit one family\n");
    Section {
        id: "Figure 4".into(),
        title: "intersection of IPs across medium/high honeypots".into(),
        body,
    }
}

// ---------------------------------------------------------------------------
// Table 8
// ---------------------------------------------------------------------------

fn fmt_table8(table: &BehaviorTable<'_>) -> Section {
    let mut body = format!(
        "{:<11} {:>6} {:>10} {:>10} {:>11} {:>7}\n",
        "DBMS", "#IP", "Scanning", "Scouting", "Exploiting", "#Cls."
    );
    let paper: BTreeMap<Dbms, (usize, usize, usize, usize, usize)> = [
        (Dbms::Elastic, (1237, 608, 627, 2, 60)),
        (Dbms::MongoDb, (1233, 706, 465, 62, 30)),
        (Dbms::Postgres, (1955, 1140, 593, 222, 79)),
        (Dbms::Redis, (980, 676, 266, 38, 26)),
    ]
    .into_iter()
    .collect();
    for family in table.families() {
        let dbms = family.dbms;
        let counts = ClassCounts::from_profiles(table.profiles(Some(dbms)).values());
        let p = paper[&dbms];
        let _ = writeln!(
            body,
            "{:<11} {:>6} {:>10} {:>10} {:>11} {:>7}   paper: {} IPs ({}/{}/{}), {} cls",
            dbms.label(),
            counts.total(),
            counts.scanning,
            counts.scouting,
            counts.exploiting,
            family.refined_clusters,
            p.0,
            p.1,
            p.2,
            p.3,
            p.4
        );
    }
    Section {
        id: "Table 8".into(),
        title: "classification and clusters per medium/high family".into(),
        body,
    }
}

// ---------------------------------------------------------------------------
// Table 9
// ---------------------------------------------------------------------------

/// Table 9's rows for one family: per tag, the tagged sources and the set
/// of plain-cut clusters they fall into.
fn table9_rollup(family: &FamilyBehavior) -> BTreeMap<CampaignTag, (usize, BTreeSet<usize>)> {
    let mut per_tag: BTreeMap<CampaignTag, (usize, BTreeSet<usize>)> = BTreeMap::new();
    for (src, src_tags) in &family.tags {
        for tag in src_tags {
            let entry = per_tag.entry(*tag).or_default();
            entry.0 += 1;
            if let Some(label) = family.clusters.assignments.get(src) {
                entry.1.insert(*label);
            }
        }
    }
    per_tag
}

fn fmt_table9(table: &BehaviorTable<'_>) -> Section {
    let mut body = format!(
        "{:<28} {:<11} {:>6} {:>6}\n",
        "Attack", "Honeypot", "#IP", "#Cls"
    );
    // paper (tag, dbms) → #IPs
    let paper: BTreeMap<(CampaignTag, Dbms), usize> = [
        ((CampaignTag::RdpScan, Dbms::Redis), 14),
        ((CampaignTag::JdwpScan, Dbms::Redis), 2),
        ((CampaignTag::RdpScan, Dbms::Postgres), 164),
        ((CampaignTag::CraftCmsProbe, Dbms::Elastic), 2),
        ((CampaignTag::VmwareRecon, Dbms::Elastic), 15),
        ((CampaignTag::BruteForce, Dbms::Redis), 5),
        ((CampaignTag::BruteForce, Dbms::Postgres), 84),
        ((CampaignTag::PrivilegeManipulation, Dbms::Postgres), 25),
        ((CampaignTag::MongoRansom, Dbms::MongoDb), 62),
        ((CampaignTag::P2pInfect, Dbms::Redis), 35),
        ((CampaignTag::AbcBot, Dbms::Redis), 1),
        ((CampaignTag::Kinsing, Dbms::Postgres), 196),
        ((CampaignTag::Lucifer, Dbms::Elastic), 2),
        ((CampaignTag::RedisCve20220543, Dbms::Redis), 1),
    ]
    .into_iter()
    .collect();
    for family in table.families() {
        let dbms = family.dbms;
        for (tag, (ips, cluster_set)) in table9_rollup(family) {
            let paper_note = paper
                .get(&(tag, dbms))
                .map(|n| format!("   paper: {n} IPs"))
                .unwrap_or_default();
            let _ = writeln!(
                body,
                "{:<28} {:<11} {:>6} {:>6}{}",
                tag.label(),
                dbms.label(),
                ips,
                cluster_set.len(),
                paper_note
            );
        }
    }
    Section {
        id: "Table 9".into(),
        title: "honeypot attacks by type".into(),
        body,
    }
}

// ---------------------------------------------------------------------------
// Tables 10, 11
// ---------------------------------------------------------------------------

fn fmt_table10(rows: Vec<tables::ExploitCountryRow>) -> Section {
    let mut body = format!(
        "{:<9} {:>5} {:>8} {:>8} {:>6} {:>6}\n",
        "Country", "#IP", "Elastic", "MongoDB", "PSQL", "Redis"
    );
    for row in rows.iter().take(10) {
        let _ = writeln!(
            body,
            "{:<9} {:>5} {:>8} {:>8} {:>6} {:>6}",
            row.country,
            row.ips,
            row.per_dbms.get(&Dbms::Elastic).copied().unwrap_or(0),
            row.per_dbms.get(&Dbms::MongoDb).copied().unwrap_or(0),
            row.per_dbms.get(&Dbms::Postgres).copied().unwrap_or(0),
            row.per_dbms.get(&Dbms::Redis).copied().unwrap_or(0),
        );
    }
    body.push_str("paper top-3: US 52 (39 PSQL), CN 45 (22 PSQL, 21 Redis), BG 32 (29 MongoDB)\n");
    Section {
        id: "Table 10".into(),
        title: "exploiting IPs by country and family".into(),
        body,
    }
}

fn fmt_table11(t: BTreeMap<decoy_geo::AsType, BTreeMap<Behavior, usize>>) -> Section {
    let mut body = format!(
        "{:<12} {:>9} {:>9} {:>11}\n",
        "AS Type", "Scanning", "Scouting", "Exploiting"
    );
    for (as_type, per_behavior) in &t {
        let _ = writeln!(
            body,
            "{:<12} {:>9} {:>9} {:>11}",
            as_type.label(),
            per_behavior.get(&Behavior::Scanning).copied().unwrap_or(0),
            per_behavior.get(&Behavior::Scouting).copied().unwrap_or(0),
            per_behavior
                .get(&Behavior::Exploiting)
                .copied()
                .unwrap_or(0),
        );
    }
    body.push_str(
        "paper: Hosting dominates exploitation (264); Security ASes show zero exploiting\n",
    );
    Section {
        id: "Table 11".into(),
        title: "AS type × behavior class".into(),
        body,
    }
}

// ---------------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------------

/// Figure 5's samples: the primary class and days active of every profiled
/// medium/high source, in address order.
fn fig5_samples<'t>(
    table: &BehaviorTable<'_>,
    retention: &'t BTreeMap<IpAddr, usize>,
) -> impl Iterator<Item = (Behavior, usize)> + 't {
    let profiles = table.profiles(None).into_iter();
    profiles.filter_map(|(src, profile)| Some((profile.primary(), *retention.get(&src)?)))
}

fn fmt_fig5(samples: impl Iterator<Item = (Behavior, usize)>) -> Section {
    let mut per_class: BTreeMap<Behavior, Vec<f64>> = BTreeMap::new();
    for (class, days) in samples {
        per_class.entry(class).or_default().push(days as f64);
    }
    let mut body = String::new();
    let mut medians: BTreeMap<Behavior, f64> = BTreeMap::new();
    for (class, samples) in per_class {
        let ecdf = Ecdf::new(samples);
        let median = ecdf.quantile(0.5).unwrap_or(0.0);
        medians.insert(class, median);
        let _ = writeln!(
            body,
            "{:<11} n={:<5} median days={:<4} P(<=1)={:.2} P(<=5)={:.2} P(<=15)={:.2}",
            class.label(),
            ecdf.len(),
            median,
            ecdf.eval(1.0),
            ecdf.eval(5.0),
            ecdf.eval(15.0)
        );
    }
    let ordered = medians.get(&Behavior::Exploiting).copied().unwrap_or(0.0)
        >= medians.get(&Behavior::Scanning).copied().unwrap_or(0.0);
    let _ = writeln!(
        body,
        "exploiters most persistent: {} (paper: yes)",
        if ordered { "yes" } else { "no" }
    );
    Section {
        id: "Figure 5".into(),
        title: "retention CDF by behavior class, medium/high".into(),
        body,
    }
}

// ---------------------------------------------------------------------------
// Section 5 control group
// ---------------------------------------------------------------------------

fn fmt_sec5_control(s: tables::ControlGroupSummary) -> Section {
    let mut body = String::new();
    let _ = writeln!(
        body,
        "single-service IPs: {}   multi-service IPs: {}   overlap: {}",
        s.single_ips, s.multi_ips, s.overlap
    );
    let _ = writeln!(
        body,
        "brute-forcers exclusive to single: {}   exclusive to multi: {}",
        s.brute_single_only, s.brute_multi_only
    );
    body.push_str(
        "paper: 1,720 single / 3,163 multi / 1,543 overlap; 41 vs 295 exclusive brute-forcers
",
    );
    Section {
        id: "Section 5 control".into(),
        title: "multi- vs single-service control group".into(),
        body,
    }
}

// ---------------------------------------------------------------------------
// Section 6 config effects
// ---------------------------------------------------------------------------

fn sec6_config_data(all: FrameView<'_>) -> (u64, u64, usize) {
    let mut open = 0u64;
    let mut restricted = 0u64;
    let mut type_walks = 0usize;
    for e in all.events() {
        if e.honeypot.dbms == Dbms::Postgres
            && e.honeypot.level == InteractionLevel::Medium
            && matches!(e.kind, FrameKind::LoginAttempt { .. })
        {
            match e.honeypot.config {
                ConfigVariant::LoginDisabled => restricted += 1,
                _ => open += 1,
            }
        }
        if e.honeypot.dbms == Dbms::Redis
            && e.honeypot.config == ConfigVariant::FakeData
            && matches!(all.kind(e), FrameKindRef::Command { raw, .. } if raw.starts_with("TYPE "))
        {
            type_walks += 1;
        }
    }
    (open, restricted, type_walks)
}

fn fmt_sec6_config((open, restricted, type_walks): (u64, u64, usize)) -> Section {
    let ratio = restricted as f64 / open.max(1) as f64;
    let mut body = String::new();
    let _ = writeln!(
        body,
        "medium PG logins: open config {open}, restricted {restricted} (ratio {ratio:.2}; paper 29,217 / 14,084 = 2.07)"
    );
    let _ = writeln!(
        body,
        "TYPE-walk commands on fake-data Redis: {type_walks} (paper: behavior unique to fake-data config)"
    );
    Section {
        id: "Section 6 config".into(),
        title: "honeypot configuration effects".into(),
        body,
    }
}

// ---------------------------------------------------------------------------
// Section 6 fake-data knowledge
// ---------------------------------------------------------------------------

/// Collect the bait planted across all fake-data Redis instances. Takes the
/// deployment plan rather than a run result so the journal-streaming paths —
/// which reconstruct the plan deterministically from the config — can share
/// it.
fn fake_data_bait(plan: &DeploymentPlan) -> Vec<(String, String)> {
    let mut bait: Vec<(String, String)> = Vec::new();
    for inst in &plan.instances {
        if inst.id.dbms == Dbms::Redis && inst.id.config == ConfigVariant::FakeData {
            bait.extend(crate::deployment::fake_redis_entries(inst.seed));
        }
    }
    bait
}

fn fmt_sec6_fake_data(report: &HoneytokenReport) -> Section {
    let mut body = String::new();
    let _ = writeln!(
        body,
        "bait credentials planted: {}   sources exhibiting knowledge: {}   reuse attempts: {}",
        report.bait_planted,
        report.knowing_sources.len(),
        report.reuse_attempts
    );
    for (src, knowledge) in report.knowing_sources.iter().take(8) {
        let sites: Vec<&str> = knowledge.reuse_sites.iter().map(|d| d.label()).collect();
        let _ = writeln!(
            body,
            "  {src}: harvested {} keys, reused {} passwords on {}",
            knowledge.harvested_keys.len(),
            knowledge.reused_passwords.len(),
            sites.join("/")
        );
    }
    body.push_str(
        "paper objective (§4.2): assess whether adversaries exhibit knowledge of the data
",
    );
    Section {
        id: "Section 6 fake data".into(),
        title: "bait-data knowledge (honeytoken tripwire)".into(),
        body,
    }
}

// ---------------------------------------------------------------------------
// Section 6 intel
// ---------------------------------------------------------------------------

fn fmt_sec6_intel(noisy: &BTreeSet<IpAddr>, table: &BehaviorTable<'_>) -> Section {
    let feeds = IntelFeed::paper_feeds();
    let brute_pop: BTreeMap<IpAddr, BehaviorProfile> = noisy
        .iter()
        .map(|&ip| {
            (
                ip,
                BehaviorProfile {
                    scanning: true,
                    scouting: true,
                    exploiting: false,
                },
            )
        })
        .collect();
    let mut exploiters = table.profiles(None);
    exploiters.retain(|_, p| p.exploiting);
    let brute_cov = coverage(&feeds, &brute_pop, |_| true);
    let exploit_cov = coverage(&feeds, &exploiters, |ip| noisy.contains(&ip));
    let mut body = format!(
        "{:<12} {:>22} {:>22}\n",
        "Feed", "brute-forcers listed", "exploiters listed"
    );
    for (b, e) in brute_cov.iter().zip(&exploit_cov) {
        let _ = writeln!(
            body,
            "{:<12} {:>14} ({:>5.1}%) {:>14} ({:>5.1}%)",
            b.feed,
            b.listed,
            100.0 * b.fraction(),
            e.listed,
            100.0 * e.fraction()
        );
    }
    body.push_str("paper: greynoise 21%/11%, abuseipdb 65%/15%, team-cymru 48%/2%, feodo 0/0\n");
    Section {
        id: "Section 6 intel".into(),
        title: "threat-intelligence coverage gap".into(),
        body,
    }
}

/// The §6 intel noisy set: sources that brute-forced the low fleet.
fn noisy_sources(low: FrameView<'_>) -> BTreeSet<IpAddr> {
    tables::login_sources(low)
        .into_iter()
        .zip(low.frame().sources())
        .filter_map(|(logged_in, &ip)| logged_in.then_some(ip))
        .collect()
}

// ---------------------------------------------------------------------------
// Detectability (§7 arms race)
// ---------------------------------------------------------------------------

fn sec_detectability(all: FrameView<'_>) -> Section {
    let mut rows: BTreeMap<&'static str, (BTreeSet<IpAddr>, u64)> = BTreeMap::new();
    for e in all.events() {
        if let FrameKindRef::Command { raw, .. } = all.kind(e) {
            if decoy_analysis::detect::is_fingerprint_probe(raw) {
                let entry = rows.entry(e.honeypot.dbms.label()).or_default();
                entry.0.insert(all.src(e));
                entry.1 = entry.1.saturating_add(1);
            }
        }
    }
    fmt_detectability(&rows)
}

/// The defender's half of the fingerprinting arms race: which families the
/// anti-honeypot probe battery touched, from how many sources. The
/// offensive half — how detectable *our* fleet is — lives in the
/// `fingerprint_scorecard` binary and its ratcheted baseline.
fn fmt_detectability(rows: &BTreeMap<&'static str, (BTreeSet<IpAddr>, u64)>) -> Section {
    let mut body = String::new();
    if rows.is_empty() {
        body.push_str("no fingerprinting probes observed\n");
    } else {
        let _ = writeln!(body, "{:<14} {:>8} {:>8}", "Family", "sources", "probes");
        for (family, (sources, probes)) in rows {
            let _ = writeln!(body, "{:<14} {:>8} {:>8}", family, sources.len(), probes);
        }
    }
    body.push_str("fleet surface: see FINGERPRINT_BASELINE.json (fingerprint_scorecard --check)\n");
    Section {
        id: "Detectability".into(),
        title: "Fingerprinting probes observed and fleet surface (§7)".into(),
        body,
    }
}

// ---------------------------------------------------------------------------
// Fleet health
// ---------------------------------------------------------------------------

/// Format the supervised-fleet uptime table from pre-folded rows plus the
/// optional final snapshot. The rows are folded from the frame's carried
/// health events ([`AnalysisFrame::health_events`]).
fn fmt_fleet(rows: Vec<ListenerUptime>, fleet: Option<&FleetHealth>) -> Section {
    let totals = fleet_totals(&rows);
    let mut body = String::new();
    match fleet {
        Some(fleet) => {
            let _ = writeln!(body, "final snapshot: {}", fleet.summary());
        }
        None => body.push_str("direct mode: no supervised listeners\n"),
    }
    if rows.is_empty() {
        body.push_str("no health transitions logged (fault-free run)\n");
    } else {
        let _ = writeln!(
            body,
            "{:<34} {:>11} {:>8} {:>4} {:>8}  final state",
            "Honeypot", "transitions", "degraded", "down", "restarts"
        );
        for row in &rows {
            let _ = writeln!(
                body,
                "{:<34} {:>11} {:>8} {:>4} {:>8}  {}",
                row.honeypot.to_string(),
                row.transitions,
                row.degraded,
                row.down,
                row.restarts,
                row.final_state.label()
            );
        }
        let _ = writeln!(
            body,
            "total: {} listeners touched, {} restarts, {} ended down",
            totals.listeners, totals.restarts, totals.down
        );
    }
    Section {
        id: "Fleet health".into(),
        title: "supervised listener uptime".into(),
        body,
    }
}

// ---------------------------------------------------------------------------
// CSV export
// ---------------------------------------------------------------------------

/// Export plot-ready CSV artifacts for the paper's figures into `dir`:
/// hourly series (Figure 2 and 6–9), retention samples (Figures 3 and 5),
/// and the UpSet intersections (Figure 4). Returns the files written.
/// Like [`Report::generate`], this builds one [`AnalysisFrame`] and derives
/// every artifact from it.
pub fn export_csv(
    result: &ExperimentResult,
    dir: &std::path::Path,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    use std::io::Write as _;
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let frame = AnalysisFrame::build(&result.store, &result.geo);
    let low = frame.view(Partition::Low);
    let med_high = frame.view(Partition::MedHigh);

    // Figures 2, 6–9: hourly series
    let series = hourly_series(low, EXPERIMENT_START, 480);
    for (name, dbms) in [
        ("fig2_hourly_all", None),
        ("fig6_hourly_mssql", Some(Dbms::Mssql)),
        ("fig7_hourly_mysql", Some(Dbms::MySql)),
        ("fig8_hourly_postgres", Some(Dbms::Postgres)),
        ("fig9_hourly_redis", Some(Dbms::Redis)),
    ] {
        let path = dir.join(format!("{name}.csv"));
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "hour,unique_clients,new_clients,cumulative_clients")?;
        for (hour, b) in series[&dbms].buckets.iter().enumerate() {
            writeln!(
                f,
                "{hour},{},{},{}",
                b.unique_clients, b.new_clients, b.cumulative_clients
            )?;
        }
        written.push(path);
    }

    // Figure 3: retention per DBMS (one sample row per source)
    {
        let path = dir.join("fig3_retention_low.csv");
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "dbms,days_active")?;
        let retention = retention_days(low, EXPERIMENT_START);
        for dbms in FIG3_DBMS {
            for days in retention[&Some(dbms)].values() {
                writeln!(f, "{},{days}", dbms.label())?;
            }
        }
        written.push(path);
    }

    // Figure 5: retention per behavior class
    {
        let path = dir.join("fig5_retention_behavior.csv");
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "class,days_active")?;
        // the report's table, so the CSV holds the figure's own samples
        let table = BehaviorTable::build(med_high, &MED_HIGH_FAMILIES, CLUSTER_CUT);
        let retention = &retention_days(med_high, EXPERIMENT_START)[&None];
        for (class, days) in fig5_samples(&table, retention) {
            writeln!(f, "{},{days}", class.label())?;
        }
        written.push(path);
    }

    // Figure 4: UpSet intersections
    {
        let path = dir.join("fig4_upset.csv");
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "combination,sources")?;
        for (combo, n) in upset(med_high, &MED_HIGH_FAMILIES).sorted() {
            let label: Vec<&str> = combo.iter().map(|d| d.label()).collect();
            writeln!(f, "{},{n}", label.join("+"))?;
        }
        written.push(path);
    }
    Ok(written)
}

/// Render a series as a one-line unicode sparkline, downsampled to `width`.
fn sparkline(values: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let chunk = values.len().div_ceil(width);
    let buckets: Vec<f64> = values
        .chunks(chunk)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    let max = buckets.iter().cloned().fold(f64::MIN, f64::max).max(1e-9);
    buckets
        .iter()
        .map(|&v| BARS[((v / max * 7.0).round() as usize).min(7)])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_direct, ExperimentConfig};
    use decoy_store::{JournalConfig, JournalWriter};

    /// The shard join renders the batch report at every worker count from
    /// 1 to 8: a small run journaled into 16 KiB segments, split over two
    /// directories, so the workers' blocks cut the segments, and the
    /// directories, at every offset.
    #[test]
    fn shard_join_renders_the_batch_report_at_every_worker_count() {
        let config = ExperimentConfig::direct(5, 0.0001);
        let result = run_direct(config.clone()).unwrap();
        let batch = Report::generate(&result).render_text();
        let root = std::env::temp_dir().join(format!("decoy-shard-workers-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let spool = root.join("spool");
        let journal = JournalWriter::open(JournalConfig {
            segment_bytes: 16 * 1024,
            fsync: false,
            ..JournalConfig::spool(&spool)
        })
        .unwrap();
        result
            .store
            .read(|log| log.iter().for_each(|event| journal.append(event)));
        journal.close().unwrap();
        let segments = JournalReader::open(&spool)
            .unwrap()
            .segment_paths()
            .to_vec();
        assert!(segments.len() >= 8, "{} segments", segments.len());
        let shards = [root.join("a"), root.join("b")];
        for (i, segment) in segments.iter().enumerate() {
            let shard = &shards[usize::from(2 * i >= segments.len())];
            std::fs::create_dir_all(shard).unwrap();
            std::fs::copy(segment, shard.join(segment.file_name().unwrap())).unwrap();
        }
        for workers in 1..=8 {
            let (report, stats) = Report::join_shards(config.clone(), &shards, workers).unwrap();
            assert_eq!(stats.error, None, "{workers} workers");
            assert_eq!(
                stats.records_kept,
                result.store.len() as u64,
                "{workers} workers"
            );
            assert!(report.render_text() == batch, "{workers} workers");
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn report_generates_all_sections() {
        let result = run_direct(ExperimentConfig::direct(21, 0.02)).unwrap();
        let report = Report::generate(&result);
        for id in [
            "Section 5",
            "Figure 2",
            "Figure 3",
            "Table 5",
            "Table 6",
            "Table 7",
            "Table 12",
            "Figure 4",
            "Table 8",
            "Table 9",
            "Table 10",
            "Table 11",
            "Figure 5",
            "Section 5 control",
            "Section 6 config",
            "Section 6 intel",
            "Section 6 fake data",
            "Figure 6",
            "Figure 9",
            "Detectability",
            "Fleet health",
        ] {
            assert!(report.section(id).is_some(), "missing {id}");
        }
        let text = report.render_text();
        assert!(text.contains("==== Table 5"));
        assert!(text.len() > 2000, "{}", text.len());
    }

    #[test]
    fn report_shape_checks_hold_in_direct_mode() {
        let result = run_direct(ExperimentConfig::direct(22, 0.02)).unwrap();
        let report = Report::generate(&result);

        // Table 5: Russia must top the login table (the 4 heavy hitters).
        let t5 = &report.section("Table 5").unwrap().body;
        let first_row = t5.lines().nth(1).unwrap();
        assert!(
            first_row.starts_with("RU"),
            "Table 5 first row: {first_row}"
        );

        // Table 12: `sa` leads usernames.
        let t12 = &report.section("Table 12").unwrap().body;
        assert!(t12.lines().next().unwrap().contains("Username"));
        assert!(t12.lines().nth(1).unwrap().starts_with("sa"), "{t12}");

        // Section 6: restricted PG collects about twice the open logins.
        let cfg = &report.section("Section 6 config").unwrap().body;
        let ratio: f64 = cfg
            .split("ratio ")
            .nth(1)
            .and_then(|s| s.split(';').next())
            .and_then(|s| s.trim().parse().ok())
            .unwrap();
        assert!(
            (1.2..6.0).contains(&ratio),
            "restricted/open ratio {ratio} (paper 2.07; noisy at small scale)"
        );

        // Figure 5: exploiters are the most persistent class.
        let f5 = &report.section("Figure 5").unwrap().body;
        assert!(f5.contains("exploiters most persistent: yes"), "{f5}");
    }

    #[test]
    fn csv_export_writes_all_figures() {
        let result = run_direct(ExperimentConfig::direct(23, 0.005)).unwrap();
        let dir = std::env::temp_dir().join(format!("decoy-csv-{}", std::process::id()));
        let files = export_csv(&result, &dir).unwrap();
        assert_eq!(files.len(), 8);
        for path in &files {
            let text = std::fs::read_to_string(path).unwrap();
            assert!(text.lines().count() > 1, "{path:?} is empty");
            // header + consistent column counts
            let cols = text.lines().next().unwrap().split(',').count();
            assert!(text.lines().all(|l| l.split(',').count() == cols));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[], 10), "");
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0], 4);
        assert_eq!(s.chars().count(), 4);
        let down = sparkline(&(0..100).map(|i| i as f64).collect::<Vec<_>>(), 10);
        assert_eq!(down.chars().count(), 10);
    }
}
