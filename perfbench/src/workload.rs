//! The benchmark's workloads: seeded event streams, their pre-encoded
//! wire frames, and the in-process reference every served placement is
//! checked against.
//!
//! Everything here is set-up work. It runs before the daemon is
//! spawned and is excluded from every timing.

use dbp_analysis::certify_packing;
use dbp_core::algo::by_name;
use dbp_core::session::Session;
use dbp_core::{BinId, Instance, ItemId, PackingOutcome};
use dbp_numeric::{rat, Rational};
use dbp_proto::{fast, write_frame_bytes, Event, Hello, TickGrid};
use dbp_workloads::random::ArrivalDist;
use dbp_workloads::{GamingConfig, RandomWorkload};
use std::ops::Range;

/// Offered rate of the `interactive` open loop, in events per second.
/// One pipelined connection serves well over 100k single-event frames
/// per second on a 2-core box, so this sits far below the knee.
pub const INTERACTIVE_RATE: f64 = 10_000.0;

/// A workload's shape: how the stream is generated and served.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// Tenants, one connection and one client thread each.
    pub tenants: usize,
    /// Events per wire frame (1 = single-event `arrive`/`depart` frames).
    pub batch: usize,
    /// Open-loop offered rate; `None` is a closed loop.
    pub rate: Option<f64>,
    /// Daemon journals every tenant, killed and restarted mid-stream.
    pub journal: bool,
    /// Per-tenant quotas are switched on (set far above the load).
    pub quotas: bool,
    /// Frames placed after the restart (journaled workloads only).
    pub tail_frames: usize,
}

/// Every workload the benchmark knows, in the order the doc lists them.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "interactive",
        tenants: 1,
        batch: 1,
        rate: Some(INTERACTIVE_RATE),
        journal: false,
        quotas: true,
        tail_frames: 0,
    },
    Spec {
        name: "bulk-10k",
        tenants: 1,
        batch: 1024,
        rate: None,
        journal: false,
        quotas: false,
        tail_frames: 0,
    },
    Spec {
        name: "durable",
        tenants: 2,
        batch: 64,
        rate: None,
        journal: true,
        quotas: false,
        tail_frames: 16,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// The hello frame for tenant `tenant`; the reference session and
    /// the in-process layer measurements use the same settings.
    pub fn hello(&self, tenant: &str, grid: TickGrid) -> Hello {
        let mut hello = Hello::new(tenant, "firstfit");
        hello.grid = Some(grid);
        hello.journal = self.journal;
        hello
    }
}

/// Pre-encoded wire frames over one tenant's event stream.
#[derive(Debug, Default)]
pub struct Frames {
    /// Every frame, length prefix included, back to back.
    pub wire: Vec<u8>,
    /// Per frame: its bytes in `wire`, its payload (without the length
    /// line) in `wire`, and its events in the stream.
    pub frames: Vec<FrameRef>,
}

/// One frame's position in [`Frames::wire`] and in the event stream.
#[derive(Debug, Clone)]
pub struct FrameRef {
    /// The whole frame.
    pub bytes: Range<usize>,
    /// The JSON payload.
    pub payload: Range<usize>,
    /// The events it carries.
    pub events: Range<usize>,
}

impl Frames {
    /// Encodes `events` in frames of `batch` events. A traced encoding
    /// stamps frame `i` with request id `i + 1`.
    pub fn encode(events: &[Event], batch: usize, traced: bool) -> Frames {
        let mut out = Frames::default();
        let mut payload = Vec::new();
        for (i, chunk) in events.chunks(batch).enumerate() {
            let trace = traced.then_some(i as u64 + 1);
            payload.clear();
            if batch == 1 {
                fast::write_event_request_traced(&mut payload, &chunk[0], trace);
            } else {
                fast::write_batch_request_traced(&mut payload, chunk, trace);
            }
            let start = out.wire.len();
            write_frame_bytes(&mut out.wire, &payload).expect("writing to a Vec cannot fail");
            let end = out.wire.len();
            // The frame is `<len>\n<payload>\n`.
            let payload_start = end - 1 - payload.len();
            let first = i * batch;
            out.frames.push(FrameRef {
                bytes: start..end,
                payload: payload_start..end - 1,
                events: first..first + chunk.len(),
            });
        }
        out
    }

    /// The raw bytes of frame `i`.
    pub fn frame(&self, i: usize) -> &[u8] {
        &self.wire[self.frames[i].bytes.clone()]
    }

    /// The JSON payload of frame `i`.
    pub fn payload(&self, i: usize) -> &[u8] {
        &self.wire[self.frames[i].payload.clone()]
    }
}

/// One tenant's stream with its reference answers.
#[derive(Debug)]
pub struct TenantStream {
    /// Tenant key on the wire.
    pub name: String,
    /// Declared tick grid (times × T and sizes × S are integers).
    pub grid: TickGrid,
    /// The stream as an instance (item `i` is `ItemId(i)`).
    pub instance: Instance,
    /// Arrivals and departures in time order, departures first at
    /// equal times.
    pub events: Vec<Event>,
    /// Untraced frames.
    pub frames: Frames,
    /// The reference placement of every event.
    pub bins: Vec<BinId>,
    /// The reference outcome, certified.
    pub outcome: PackingOutcome,
    /// Peak simultaneously open bins in the reference replay.
    pub peak_open_bins: usize,
    /// Frames served before the kill (all of them without a journal).
    pub prefix_frames: usize,
}

impl TenantStream {
    /// Events served before the kill.
    pub fn prefix_events(&self) -> usize {
        self.frames.frames[..self.prefix_frames]
            .last()
            .map_or(0, |f| f.events.end)
    }

    /// The paper's lower bound `max(vol, span)` on the optimum.
    pub fn lower_bound(&self) -> Rational {
        self.instance.vol().max(self.instance.span())
    }
}

/// How big the streams are: the real run, or a seconds-long smoke run
/// for the benchmark's own self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper.
    Full,
    /// Tiny streams; every code path, none of the regimes.
    Smoke,
}

/// Builds every tenant's stream for `spec` from `seed`, replays each
/// through an in-process reference session, and certifies the
/// reference outcome with the paper's `(µ+3)·vol + span` check.
pub fn build(spec: &Spec, seed: u64, scale: Scale) -> Result<Vec<TenantStream>, String> {
    (0..spec.tenants)
        .map(|t| {
            let tenant_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ t as u64;
            let (instance, grid) = instance_for(spec, tenant_seed, scale);
            let events = stream_of(&instance);
            let name = format!("t{t}");
            let (bins, outcome, peak_open_bins) = reference(spec, &name, grid, &events)?;
            certify(&instance, &outcome, scale)?;
            let frames = Frames::encode(&events, spec.batch, false);
            let prefix_frames = frames.frames.len().saturating_sub(spec.tail_frames);
            Ok(TenantStream {
                name,
                grid,
                instance,
                events,
                frames,
                bins,
                outcome,
                peak_open_bins,
                prefix_frames,
            })
        })
        .collect()
}

/// Checks a finished outcome against the paper's Theorem 1 certificate
/// `usage ≤ (µ+3)·vol + span`: the `theorem1-vol-span` check of
/// `certify_packing`, computed the same way. The full report adds
/// structural checks that grow faster than linearly (23 s at 20k
/// items), so it runs on smoke-size streams only.
pub fn certify(instance: &Instance, outcome: &PackingOutcome, scale: Scale) -> Result<(), String> {
    if scale == Scale::Smoke {
        let report = certify_packing(instance, outcome, true);
        if !report.all_passed() {
            return Err(format!("outcome fails certification:\n{report}"));
        }
        return Ok(());
    }
    let mu = instance.mu().unwrap_or(Rational::ONE);
    let bound = (mu + Rational::from_int(3)) * instance.vol() + instance.span();
    if outcome.total_usage() > bound {
        return Err(format!(
            "usage {} exceeds (µ+3)·vol + span = {bound}",
            outcome.total_usage()
        ));
    }
    Ok(())
}

/// The workload's instance and the tick grid its hello declares.
fn instance_for(spec: &Spec, seed: u64, scale: Scale) -> (Instance, TickGrid) {
    let smoke = scale == Scale::Smoke;
    match spec.name {
        // §I cloud gaming: minutes on a 1-minute grid, GPU shares of
        // 1/8, 1/4 and 1/2, µ = 240/5 = 48. About 4.6k sessions an
        // hour at the diurnal peak hold about 1k servers open.
        "interactive" => {
            let config = GamingConfig {
                seed,
                peak_sessions_per_hour: if smoke { 100 } else { 4_600 },
                ..GamingConfig::default()
            };
            (config.generate().instance, TickGrid::new(1, 8))
        }
        // Random µ = 4, sizes uniform on the 1/16 grid. Arrivals are
        // uniform over a horizon chosen for the target concurrency:
        // about 15k items in flight hold about 10k bins open (bulk),
        // about 150 hold about 100 (durable).
        _ => {
            let (items, in_flight) = match (spec.name, smoke) {
                ("bulk-10k", false) => (300_000, 15_000),
                ("durable", false) => (80_000, 150),
                _ => (2_000, 60),
            };
            let mut workload = RandomWorkload::with_mu(items, rat(4, 1), seed);
            // Mean duration 2.5: in flight = items · 2.5 / horizon.
            let horizon = (items as i128 * 5) / (2 * in_flight as i128);
            workload.arrivals = ArrivalDist::Uniform {
                horizon: rat(horizon, 1),
            };
            (workload.generate(), TickGrid::new(16, 16))
        }
    }
}

/// The instance as an event stream: by time, departures before
/// arrivals at equal times, then by item id.
fn stream_of(instance: &Instance) -> Vec<Event> {
    let mut keyed: Vec<(Rational, bool, u32, Event)> = Vec::with_capacity(2 * instance.len());
    for (i, item) in instance.items().iter().enumerate() {
        let id = ItemId(i as u32);
        keyed.push((
            item.arrival(),
            true,
            id.0,
            Event::Arrive {
                id,
                size: item.size,
                time: item.arrival(),
            },
        ));
        keyed.push((
            item.departure(),
            false,
            id.0,
            Event::Depart {
                id,
                time: item.departure(),
            },
        ));
    }
    keyed.sort_by_key(|k| (k.0, k.1, k.2));
    keyed.into_iter().map(|k| k.3).collect()
}

/// A session built exactly as the daemon builds the tenant's.
pub fn tenant_session(spec: &Spec, tenant: &str, grid: TickGrid) -> Session<'static> {
    let hello = spec.hello(tenant, grid);
    let algo = dbp_server::tenant::canonical_algo(&hello.algo).expect("the benchmark's algorithm");
    let mut builder = Session::builder(by_name(algo).expect("canonical names build"))
        .backend(hello.backend)
        .grid(grid);
    if !hello.journal {
        builder = builder.without_checkpoints();
    }
    builder.build().expect("a grid-declared session builds")
}

fn reference(
    spec: &Spec,
    tenant: &str,
    grid: TickGrid,
    events: &[Event],
) -> Result<(Vec<BinId>, PackingOutcome, usize), String> {
    let mut session = tenant_session(spec, tenant, grid);
    let bins = events
        .iter()
        .map(|e| session.apply(e))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("reference replay rejected an event: {e}"))?;
    let peak = session.metrics().peak_open_bins;
    let outcome = session
        .finish()
        .map_err(|e| format!("reference finish failed: {e}"))?;
    Ok((bins, outcome, peak))
}
