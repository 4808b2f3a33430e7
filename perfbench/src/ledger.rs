//! The per-layer ledger of the traced run: each layer timed from
//! outside, by calling its public functions on the workload's exact
//! events and payloads, in stack order core → proto → tenant → journal
//! → obs.
//!
//! Every call is wrapped in a span (capped per layer so the trace stays
//! small); the layer's figure is the median of [`REPS`] whole passes.

use crate::spans::Spans;
use crate::stats::median;
use crate::workload::{tenant_session, Spec, TenantStream};
use dbp_proto::{fast, Backend};
use dbp_server::journal::{read_journal, Journal, JournalHeader};
use dbp_server::span::{Phase, RequestSpan};
use dbp_server::tenant::Tenant;
use dbp_server::{Client, DbpServer, Quotas, ServerConfig};
use std::path::Path;
use std::time::Instant;

/// Whole passes per layer; the median is reported.
const REPS: usize = 3;
/// Per-call spans recorded per layer and pass.
const SPAN_CAP: usize = 2_048;

/// One named figure with its unit.
pub type Metric = (String, f64, &'static str);

/// The quotas the daemon runs the workload with.
fn quotas(spec: &Spec) -> Quotas {
    let cap = spec.quotas.then_some(1_000_000_000_000);
    Quotas {
        max_open_bins: cap,
        max_active_items: cap,
        max_events_per_sec: cap,
    }
}

/// Times `pass` [`REPS`] times under a span named `layer`; `pass` gets
/// the recorder and the span to parent its per-call spans to, and
/// returns the units of work it did. Returns the median ns per unit.
fn timed<F>(spans: &mut Spans, parent: usize, layer: &str, mut pass: F) -> Result<f64, String>
where
    F: FnMut(&mut Spans, usize) -> Result<u64, String>,
{
    let mut per_unit = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let span = spans.open(layer, Some(parent));
        let t = Instant::now();
        let units = pass(spans, span)?;
        let ns = t.elapsed().as_nanos() as f64;
        spans.close(span);
        per_unit.push(ns / units.max(1) as f64);
    }
    Ok(median(&per_unit))
}

/// Measures every in-process layer on `streams`. `dir` is scratch
/// space for journals.
pub fn measure(
    spec: &Spec,
    streams: &[TenantStream],
    spans: &mut Spans,
    parent: usize,
    dir: &Path,
) -> Result<Vec<Metric>, String> {
    let mut m: Vec<Metric> = Vec::new();
    let events: u64 = streams.iter().map(|s| s.events.len() as u64).sum();
    let frames: u64 = streams.iter().map(|s| s.frames.frames.len() as u64).sum();

    // core: the session alone, built as the daemon builds the tenant's.
    let mut peak = 0;
    let core = timed(spans, parent, "core.apply", |spans, span| {
        for s in streams {
            let mut session = tenant_session(spec, &s.name, s.grid);
            for (i, f) in s.frames.frames.iter().enumerate() {
                let t = Instant::now();
                for e in &s.events[f.events.clone()] {
                    session.apply(e).map_err(|e| format!("core: {e}"))?;
                }
                if i < SPAN_CAP {
                    spans.add_between("Session::apply", t, Instant::now(), span);
                }
            }
            peak = peak.max(session.metrics().peak_open_bins);
        }
        Ok(events)
    })?;
    m.push(("core.apply_ns_per_event".into(), core, "ns"));
    m.push(("core.peak_open_bins".into(), peak as f64, "count"));

    // proto: decode every request payload, encode every answer.
    let mut hits = 0u64;
    let decode = timed(spans, parent, "proto.decode", |spans, span| {
        hits = 0;
        for s in streams {
            for i in 0..s.frames.frames.len() {
                let t = Instant::now();
                let parsed = fast::parse_request_traced(s.frames.payload(i));
                hits += u64::from(std::hint::black_box(parsed).is_some());
                if i < SPAN_CAP {
                    spans.add_between("fast::parse_request_traced", t, Instant::now(), span);
                }
            }
        }
        Ok(events)
    })?;
    let mut bytes = 0u64;
    let mut out = Vec::new();
    let encode = timed(spans, parent, "proto.encode", |spans, span| {
        bytes = 0;
        for s in streams {
            for (i, f) in s.frames.frames.iter().enumerate() {
                let t = Instant::now();
                out.clear();
                let bins = &s.bins[f.events.clone()];
                match bins {
                    [bin] => fast::write_bin_response_traced(&mut out, *bin, None),
                    _ => fast::write_bins_response_traced(&mut out, bins, None),
                }
                std::hint::black_box(&out);
                if i < SPAN_CAP {
                    spans.add_between("fast::write_bins_response_traced", t, Instant::now(), span);
                }
                bytes += (out.len() + f.payload.len()) as u64;
            }
        }
        Ok(events)
    })?;
    m.push(("proto.decode_ns_per_event".into(), decode, "ns"));
    m.push(("proto.encode_ns_per_event".into(), encode, "ns"));
    m.push((
        "proto.fast_hit_frac".into(),
        hits as f64 / frames as f64,
        "frac",
    ));
    m.push((
        "proto.bytes_per_event".into(),
        bytes as f64 / events as f64,
        "B",
    ));

    // tenant: quota admission + session + journal, no socket.
    let (mut quota_ns, mut refusals) = (0u64, 0u64);
    let tenant_dir = dir.join("tenant");
    let tenant = timed(spans, parent, "tenant.batch", |spans, span| {
        (quota_ns, refusals) = (0, 0);
        let _ = std::fs::remove_dir_all(&tenant_dir);
        for s in streams {
            let hello = spec.hello(&s.name, s.grid);
            let mut tenant = Tenant::create(&hello, quotas(spec), Some(&tenant_dir))
                .map_err(|e| format!("tenant: {e}"))?;
            for (i, f) in s.frames.frames.iter().enumerate() {
                let batch = &s.events[f.events.clone()];
                let t = Instant::now();
                let mut request = RequestSpan::new("batch", batch.len() as u64, None, 0);
                let placed = match batch {
                    [event] => tenant.apply(event, &mut request).map(drop),
                    _ => tenant.batch(batch, &mut request).map(drop),
                };
                placed.map_err(|e| format!("tenant: {e:?}"))?;
                quota_ns += request.phase_ns[Phase::Quota as usize];
                refusals += u64::from(request.quota_refused);
                if i < SPAN_CAP {
                    spans.add_between("Tenant::batch", t, Instant::now(), span);
                }
            }
        }
        Ok(events)
    })?;
    let _ = std::fs::remove_dir_all(&tenant_dir);
    m.push(("tenant.batch_ns_per_event".into(), tenant, "ns"));
    m.push((
        "tenant.quota_ns_per_frame".into(),
        quota_ns as f64 / frames as f64,
        "ns",
    ));
    m.push(("tenant.refusals".into(), refusals as f64, "count"));

    // journal: append every frame, then read and replay the files.
    let journal_dir = dir.join("journal");
    let append = timed(spans, parent, "journal.append", |spans, span| {
        let _ = std::fs::remove_dir_all(&journal_dir);
        for s in streams {
            let header = JournalHeader {
                tenant: s.name.clone(),
                algo: "FirstFit".into(),
                backend: Backend::Auto,
                grid: Some(s.grid),
                shards: 1,
                telemetry: false,
            };
            let mut journal =
                Journal::create(&journal_dir, &header).map_err(|e| format!("journal: {e}"))?;
            for (i, f) in s.frames.frames.iter().enumerate() {
                let t = Instant::now();
                journal
                    .append(&s.events[f.events.clone()])
                    .map_err(|e| format!("journal: {e}"))?;
                if i < SPAN_CAP {
                    spans.add_between("Journal::append", t, Instant::now(), span);
                }
            }
        }
        Ok(frames)
    })?;
    let journal_bytes: u64 = streams
        .iter()
        .map(|s| dbp_server::journal::journal_path(&journal_dir, &s.name))
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|meta| meta.len())
        .sum();
    let read = timed(spans, parent, "journal.read", |spans, span| {
        for s in streams {
            let path = dbp_server::journal::journal_path(&journal_dir, &s.name);
            let t = Instant::now();
            read_journal(&path).map_err(|e| format!("read_journal: {e}"))?;
            spans.add_between("read_journal", t, Instant::now(), span);
        }
        Ok(events)
    })?;
    let replay = timed(spans, parent, "journal.replay", |spans, span| {
        for s in streams {
            let path = dbp_server::journal::journal_path(&journal_dir, &s.name);
            let recovered = read_journal(&path).map_err(|e| format!("read_journal: {e}"))?;
            let t = Instant::now();
            Tenant::recover(recovered, quotas(spec), &journal_dir)
                .map_err(|e| format!("Tenant::recover: {e:?}"))?;
            spans.add_between("Tenant::recover", t, Instant::now(), span);
        }
        Ok(events)
    })?;
    let _ = std::fs::remove_dir_all(&journal_dir);
    m.push(("journal.append_ns_per_frame".into(), append, "ns"));
    m.push((
        "journal.bytes_per_event".into(),
        journal_bytes as f64 / events as f64,
        "B",
    ));
    m.push(("journal.read_ns_per_event".into(), read, "ns"));
    m.push(("journal.replay_ns_per_event".into(), replay, "ns"));

    m.push((
        "obs.page_build_us".into(),
        page_build_us(spec, streams, spans, parent)?,
        "us",
    ));
    Ok(m)
}

/// Median time of one exposition-page build (`registry_snapshot`, the
/// build the daemon runs inline every `publish_every` events), with the
/// workload's tenants attached and a few frames served.
fn page_build_us(
    spec: &Spec,
    streams: &[TenantStream],
    spans: &mut Spans,
    parent: usize,
) -> Result<f64, String> {
    let server = DbpServer::start(ServerConfig {
        quotas: quotas(spec),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("in-process server: {e:?}"))?;
    let mut clients = Vec::new();
    for s in streams {
        let mut client = Client::builder("firstfit")
            .tenant(s.name.clone())
            .grid(s.grid)
            .without_journal()
            .connect(server.local_addr())
            .map_err(|e| format!("in-process client: {e}"))?;
        for f in s.frames.frames.iter().take(64) {
            match client.ingest(&s.events[f.events.clone()]) {
                Ok(_) => {}
                Err(e) => return Err(format!("in-process ingest: {e}")),
            }
        }
        clients.push(client);
    }
    let span = spans.open("obs.page_build", Some(parent));
    let mut us = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        std::hint::black_box(server.registry_snapshot());
        let end = Instant::now();
        us.push((end - t).as_secs_f64() * 1e6);
        spans.add_between("DbpServer::registry_snapshot", t, end, span);
    }
    spans.close(span);
    drop(clients);
    server.stop();
    Ok(median(&us))
}
