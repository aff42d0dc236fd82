//! The subcommand implementations, each behind the table of what it
//! accepts.

use crate::args::{Args, Command};
use crate::CliError;
use enviro_data::csv::{read_csv, write_csv};
use enviro_data::{Dataset, LausanneSim, Pollutant, QueryTuple, RawTuple, SimConfig, WindowSpec};
use enviro_geo::{Point, Polyline};
use enviro_meter::{default_parallelism, AdKmnConfig, EnviroMeter, QueryMethod};
use enviro_net::{
    BinaryCodec, Clock, ConcurrentTransport, EnviroClient, EnviroServer, IngestConfig, IngestState,
    IngestStats, LinkProfile, LoopbackWire, ModelMaintenance, RetryPolicy, SimulatedLink,
    SystemClock, TransportConfig, VirtualClock, Wire,
};
use enviro_schedule::sync::Arc;
use enviro_storage::{WalConfig, WalStore};
use std::io::Write;

/// The window length `H` of a platform, and of a new store, when no
/// `--window-secs` is given: 4 h.
const DEFAULT_WINDOW_SECS: i64 = 4 * 3_600;

// Flag lines that more than one command reads, each declared once.
const TIME: &[&str] = &["--time T  seconds, or 90m, 8h, 2d"];
const METHOD: &[&str] = &["[--method M]  ad-kmn, naive, rtree, vptree, kdtree, grid or idw"];
const DATASET: &[&str] = &["[--pollutant P]  what the CSV measures: CO2, CO, NO2, O3, PM10, PM2.5"];
const WINDOW_SECS: &str = "[--window-secs S]  window length H in seconds; a store keeps its own";
/// Read by [`PlatformConfig::parse`].
const PLATFORM: &[&str] = &[
    "[--window N]  window by count, N tuples each",
    WINDOW_SECS,
    "[--tau PCT]  Ad-KMN's error threshold, in percent",
    "[--radius R]  the raw-data methods' radius, in metres",
];
/// Read by [`store_window_secs`].
const STORE: &[&str] = &["--dir DIR  the store's directory", WINDOW_SECS];

/// Every command, in the order `enviro` lists them.
static COMMANDS: [Command; 11] = [
    Command {
        table: "simulate: generate a community-sensed dataset (CSV)
                --out FILE  the CSV to write
                [--hours N]  hours to simulate
                [--days N]  days to simulate, instead of --hours
                [--interval SECS]  seconds between readings
                [--seed N]  the simulation's seed",
        groups: &[],
        run: cmd_simulate,
    },
    Command {
        table: "info FILE: summarize a dataset",
        groups: &[DATASET],
        run: cmd_info,
    },
    Command {
        table: "query FILE: interpolate the pollutant value at a time and position
                --x X  east coordinate, in metres
                --y Y  north coordinate, in metres",
        groups: &[TIME, METHOD, DATASET, PLATFORM],
        run: cmd_query,
    },
    Command {
        table: "heatmap FILE: render the model cover as a PPM image
                [--out FILE]  the PPM image to write
                [--cols N]  grid columns
                [--rows N]  grid rows
                [--ascii]  print the map as ASCII art",
        groups: &[TIME, DATASET, PLATFORM],
        run: cmd_heatmap,
    },
    Command {
        table: "route FILE: evaluate a route and print the OSHA summary
                --points \"X,Y;X,Y;...\"  the route's vertices, in metres
                --start T  when the walk starts
                [--speed MPS]  walking speed, in m/s
                [--interval SECS]  seconds between fixes",
        groups: &[METHOD, DATASET, PLATFORM],
        run: cmd_route,
    },
    Command {
        table: "serve FILE: run the concurrent server and drive it with in-process clients
                [--workers N]  requests served at once, each on its client's thread
                [--batch B]  queries per frame
                [--clients K]  query clients
                [--requests M]  queries per client
                [--max-queue Q]  clients that may wait their turn; overload is shed with Busy \
                replies
                [--deadline-ms MS]  each client's per-request deadline
                [--retries R]  each client's retry budget
                [--ingest DIR]  also stream FILE into the store at DIR and answer from its \
                covers; takes --window-secs, not --window, and only the ad-kmn method",
        groups: &[METHOD, DATASET, PLATFORM],
        run: cmd_serve,
    },
    Command {
        table: "ingest FILE: replay a dataset through the WAL-backed durable write path
                [--rate N]  tuples per second
                [--batch B]  tuples per frame
                [--source ID]  the client's source id
                [--virtual-clock]  pace on a virtual clock, without sleeping",
        groups: &[STORE, DATASET],
        run: cmd_ingest,
    },
    Command {
        table: "store ingest FILE: append a dataset to a store, creating it if absent",
        groups: &[STORE],
        run: cmd_store_ingest,
    },
    Command {
        table: "store export: write a store's tuples as CSV
                --out FILE  the CSV to write",
        groups: &[STORE],
        run: cmd_store_export,
    },
    Command {
        table: "store stats: summarize a store",
        groups: &[STORE],
        run: cmd_store_stats,
    },
    Command {
        table: "store compact: seal every window of a store",
        groups: &[STORE],
        run: cmd_store_compact,
    },
];

/// Lists the commands whose names start with `prefix`.
fn usage(prefix: &str) -> String {
    let mut text = format!("usage: enviro {prefix}<command> [flags]\n\ncommands:\n");
    for (synopsis, summary) in COMMANDS.iter().map(Command::head) {
        if synopsis.starts_with(prefix) {
            text += &format!("  {synopsis:<20}{summary}\n");
        }
    }
    text + "\nrun `enviro <command> --help` for the command's flags"
}

/// Routes a raw argument list to its command, parses the rest against the
/// command's table, then prints the command's help or runs it.
pub fn dispatch(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let words: Vec<&str> = argv.iter().take(2).map(String::as_str).collect();
    let (name, rest, prefix) = match words[..] {
        [] | ["help" | "--help", ..] => return print(out, &usage("")),
        ["store"] | ["store", "--help"] => return print(out, &usage("store ")),
        ["store", sub] => (format!("store {sub}"), &argv[2..], "store "),
        [cmd, ..] => (cmd.to_string(), &argv[1..], ""),
    };
    let Some(command) = COMMANDS.iter().find(|c| c.is(&name)) else {
        let listing = usage(prefix);
        return Err(CliError::usage(format!(
            "unknown command {name:?}\n{listing}"
        )));
    };
    let args = Args::parse(rest, command)?;
    if args.help {
        print(out, &command.help())
    } else {
        (command.run)(&args, out)
    }
}

fn print(out: &mut dyn Write, text: &str) -> Result<(), CliError> {
    writeln!(out, "{text}").map_err(io_err)
}

fn io_err(e: std::io::Error) -> CliError {
    CliError::runtime(format!("I/O error: {e}"))
}

/// Reads the CSV named by the first positional, its values measuring
/// `--pollutant`.
fn load_dataset(args: &Args) -> Result<Dataset, CliError> {
    let pollutant: Pollutant = args
        .get("pollutant")
        .unwrap_or("CO2")
        .parse()
        .map_err(CliError::usage)?;
    load_csv(args, pollutant)
}

fn load_csv(args: &Args, pollutant: Pollutant) -> Result<Dataset, CliError> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::usage("missing dataset path (CSV)"))?;
    let file = std::fs::File::open(path)
        .map_err(|e| CliError::runtime(format!("cannot open {path}: {e}")))?;
    read_csv(pollutant, file).map_err(|e| CliError::runtime(format!("{path}: {e}")))
}

/// The most cells `enviro heatmap` renders (2048 × 2048); larger grids are
/// refused as usage errors rather than attempted.
const MAX_HEATMAP_CELLS: u64 = 1 << 22;

/// The most fixes `enviro route` records; a slower or longer walk is refused
/// as a usage error rather than allocated.
const MAX_ROUTE_FIXES: usize = 1_000_000;

/// The most tuples `enviro simulate` generates (about 9.5 years of both bus
/// lines at the default 60-s sampling); a longer run is refused as a usage
/// error rather than allocated.
const MAX_SIM_TUPLES: i64 = 10_000_000;

/// The platform flags (`--window` | `--window-secs`, `--tau`,
/// `--radius`), parsed before any dataset is read.
#[derive(Debug)]
struct PlatformConfig {
    spec: WindowSpec,
    adkmn: AdKmnConfig,
    radius: f64,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        Self {
            spec: WindowSpec::ByDuration(DEFAULT_WINDOW_SECS),
            adkmn: AdKmnConfig::default(),
            radius: 1_000.0,
        }
    }
}

impl PlatformConfig {
    /// Parses the platform flags. A bad value is a usage error before any
    /// library call sees it.
    fn parse(args: &Args) -> Result<Self, CliError> {
        let defaults = Self::default();
        let spec = match (args.get("window"), window_secs_flag(args)?) {
            (Some(_), Some(_)) => {
                return Err(CliError::usage("give either --window or --window-secs"))
            }
            (Some(_), None) => WindowSpec::ByCount(args.require_parsed("window")?),
            (None, Some(secs)) => WindowSpec::ByDuration(secs),
            (None, None) => defaults.spec,
        };
        if spec == WindowSpec::ByCount(0) {
            return Err(CliError::usage("--window must be positive"));
        }
        let tau_percent: f64 = args.get_or("tau", defaults.adkmn.tau_percent)?;
        let radius: f64 = args.get_or("radius", defaults.radius)?;
        if !(tau_percent.is_finite() && tau_percent >= 0.0 && radius.is_finite() && radius >= 0.0) {
            return Err(CliError::usage(
                "--tau and --radius must be finite and non-negative",
            ));
        }
        let adkmn = AdKmnConfig {
            tau_percent,
            ..defaults.adkmn
        };
        Ok(Self {
            spec,
            adkmn,
            radius,
        })
    }

    /// Stands the platform up over `dataset`.
    fn platform(&self, dataset: Dataset) -> EnviroMeter {
        EnviroMeter::new(dataset, self.spec, self.adkmn.clone(), self.radius)
    }
}

/// Parses the platform flags, then loads the dataset and stands the
/// platform up.
fn load_platform(args: &Args) -> Result<EnviroMeter, CliError> {
    let config = PlatformConfig::parse(args)?;
    Ok(config.platform(load_dataset(args)?))
}

/// `--window-secs`, when given; it must be positive.
fn window_secs_flag(args: &Args) -> Result<Option<i64>, CliError> {
    let secs = args
        .get("window-secs")
        .map(|_| args.require_parsed("window-secs"));
    match secs.transpose()? {
        Some(secs) if secs <= 0 => Err(CliError::usage("--window-secs must be positive")),
        secs => Ok(secs),
    }
}

/// The CLI's one store rule: the store at `dir` has the window length its
/// `WINDOW_SECS` record names. Where `dir` holds no store, a command that
/// may create one (`create`) takes `--window-secs` or
/// [`DEFAULT_WINDOW_SECS`], and any other is refused without creating
/// anything. A `--window-secs` that disagrees with the record is a usage
/// error naming both.
fn store_window_secs(args: &Args, dir: &str, create: bool) -> Result<i64, CliError> {
    let asked = window_secs_flag(args)?;
    let recorded = WalStore::recorded_window_secs(dir)
        .map_err(|e| CliError::runtime(format!("{dir}: {e}")))?;
    match (recorded, asked) {
        (Some(stored), Some(asked)) if stored != asked => Err(CliError::usage(format!(
            "--window-secs {asked} disagrees with the store at {dir}, \
             which records window_secs {stored}"
        ))),
        (Some(stored), _) => Ok(stored),
        (None, asked) if create => Ok(asked.unwrap_or(DEFAULT_WINDOW_SECS)),
        (None, _) => Err(CliError::runtime(format!("no store at {dir}"))),
    }
}

/// The ingesting server that `serve --ingest` and `ingest` stand up: the
/// ingest state at a store directory, its maintenance worker, and a server
/// that answers from that store alone.
struct Ingest {
    server: Arc<EnviroServer<BinaryCodec>>,
    state: Arc<IngestState>,
    maintenance: ModelMaintenance,
}

impl Ingest {
    /// Opens (or creates) the ingest state at `dir` with the platform's
    /// window, pollutant and Ad-KMN configuration, publishes the covers of
    /// the windows the store still holds open, so the server answers its
    /// whole history from the start, then spawns the maintenance worker.
    fn open(dir: &str, pollutant: Pollutant, config: &PlatformConfig) -> Result<Self, CliError> {
        let WindowSpec::ByDuration(window_secs) = config.spec else {
            return Err(CliError::usage("a store windows by duration, not by count"));
        };
        let wal = WalConfig {
            window_secs,
            ..WalConfig::default()
        };
        let ingest = IngestConfig {
            pollutant,
            adkmn: config.adkmn.clone(),
            ..IngestConfig::default()
        };
        let state = IngestState::open(std::path::Path::new(dir), wal, ingest)
            .map_err(|e| CliError::runtime(format!("cannot open ingest dir {dir}: {e}")))?;
        state
            .rebuild_dirty_now()
            .map_err(|e| CliError::runtime(format!("cover rebuild failed: {e}")))?;
        let state = Arc::new(state);
        let platform = config.platform(Dataset::new(pollutant));
        let server = EnviroServer::new(platform, BinaryCodec, QueryMethod::ModelCover)
            .with_ingest(Arc::clone(&state));
        let maintenance = ModelMaintenance::spawn(Arc::clone(&state))
            .map_err(|e| CliError::runtime(format!("cannot spawn maintenance: {e}")))?;
        let server = Arc::new(server);
        Ok(Self {
            server,
            state,
            maintenance,
        })
    }

    /// Publishes whatever is still pending, so the summary reflects the
    /// whole run, and returns the final counters and cover generation. The
    /// worker is shut down first: a pass of its own racing this one could
    /// publish an older cover over a newer one.
    fn finish(self) -> Result<(IngestStats, u64), CliError> {
        drop(self.maintenance);
        self.state
            .rebuild_dirty_now()
            .map_err(|e| CliError::runtime(format!("cover rebuild failed: {e}")))?;
        Ok((self.state.stats(), self.state.generation()))
    }
}

fn parse_method(args: &Args) -> Result<QueryMethod, CliError> {
    match args
        .get("method")
        .unwrap_or("ad-kmn")
        .to_ascii_lowercase()
        .as_str()
    {
        "ad-kmn" | "adkmn" | "cover" | "model-cover" => Ok(QueryMethod::ModelCover),
        "naive" => Ok(QueryMethod::Naive),
        "rtree" | "r-tree" => Ok(QueryMethod::RTree),
        "vptree" | "vp-tree" => Ok(QueryMethod::VpTree),
        "kdtree" | "kd-tree" => Ok(QueryMethod::KdTree),
        "grid" => Ok(QueryMethod::Grid),
        "idw" => Ok(QueryMethod::Idw),
        other => Err(CliError::usage(format!("unknown --method {other:?}"))),
    }
}

fn cmd_simulate(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let out_path = args.require("out")?;
    let duration_secs = match (args.has("hours"), args.has("days")) {
        (false, false) => Some(24 * 3_600),
        (true, false) => args.get_or("hours", 0i64)?.checked_mul(3_600),
        (false, true) => args.get_or("days", 0i64)?.checked_mul(86_400),
        (true, true) => return Err(CliError::usage("give either --hours or --days")),
    };
    let interval: i64 = args.get_or("interval", 60)?;
    let duration_secs = match duration_secs {
        Some(d) if d > 0 && interval > 0 => d,
        _ => {
            return Err(CliError::usage(
                "--hours, --days and --interval must be positive and in range",
            ))
        }
    };
    let config = SimConfig {
        duration_secs,
        sampling_interval_secs: interval,
        seed: args.get_or("seed", SimConfig::default().seed)?,
        ..SimConfig::default()
    };
    let sim = LausanneSim::lausanne(config);
    if duration_secs / interval > MAX_SIM_TUPLES / sim.lines().len() as i64 {
        return Err(CliError::usage(format!(
            "the run would exceed {MAX_SIM_TUPLES} tuples; shorten it or raise --interval"
        )));
    }
    let dataset = sim.generate();
    let mut file = std::io::BufWriter::new(
        std::fs::File::create(out_path)
            .map_err(|e| CliError::runtime(format!("cannot create {out_path}: {e}")))?,
    );
    write_csv(&dataset, &mut file).map_err(io_err)?;
    writeln!(
        out,
        "wrote {} tuples ({} bus lines, {} s sampling) to {out_path}",
        dataset.len(),
        sim.lines().len(),
        sim.config().sampling_interval_secs
    )
    .map_err(io_err)?;
    Ok(())
}

fn cmd_info(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let dataset = load_dataset(args)?;
    writeln!(out, "tuples:    {}", dataset.len()).map_err(io_err)?;
    writeln!(out, "pollutant: {}", dataset.pollutant()).map_err(io_err)?;
    if let Some((from, to)) = dataset.time_span() {
        writeln!(out, "time span: {from} .. {to}").map_err(io_err)?;
    }
    let b = dataset.bounds();
    if !b.is_empty() {
        writeln!(
            out,
            "extent:    {:.1} x {:.1} km",
            b.width() / 1_000.0,
            b.height() / 1_000.0
        )
        .map_err(io_err)?;
    }
    if let Some(s) = dataset.stats() {
        writeln!(
            out,
            "values:    min {:.1}  mean {:.1}  max {:.1}  sd {:.1} {}",
            s.min,
            s.mean,
            s.max,
            s.std_dev,
            dataset.pollutant().unit()
        )
        .map_err(io_err)?;
    }
    Ok(())
}

fn cmd_query(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let time = args.time("time")?;
    let x: f64 = args.require_parsed("x")?;
    let y: f64 = args.require_parsed("y")?;
    let method = parse_method(args)?;
    let platform = load_platform(args)?;
    let pollutant = platform.engine().dataset().pollutant();
    let q = QueryTuple::new(time, Point::new(x, y));
    match platform.point_query(&q, method) {
        Some(v) => {
            let level = pollutant.classify(v);
            writeln!(
                out,
                "{v:.1} {} at ({x}, {y}) {time} via {method} — {level}",
                pollutant.unit()
            )
            .map_err(io_err)?;
        }
        None => writeln!(out, "no data within radius for ({x}, {y}) at {time}").map_err(io_err)?,
    }
    Ok(())
}

fn cmd_heatmap(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let time = args.time("time")?;
    let cols = args.get_or("cols", 96u32)?;
    let rows = args.get_or("rows", 64u32)?;
    if cols == 0 || rows == 0 || u64::from(cols) * u64::from(rows) > MAX_HEATMAP_CELLS {
        return Err(CliError::usage(format!(
            "--cols and --rows must be positive, with at most {MAX_HEATMAP_CELLS} cells"
        )));
    }
    let platform = load_platform(args)?;
    let hm = platform
        .heatmap(time, cols, rows)
        .ok_or_else(|| CliError::runtime("no data to render".to_string()))?;
    if args.has("ascii") {
        write!(out, "{}", hm.to_ascii()).map_err(io_err)?;
    }
    if let Some(path) = args.get("out") {
        std::fs::write(path, hm.to_ppm())
            .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))?;
        let (lo, hi) = hm.value_range();
        writeln!(
            out,
            "wrote {cols}x{rows} heatmap ({lo:.0}..{hi:.0} {}) to {path}",
            hm.pollutant.unit()
        )
        .map_err(io_err)?;
    } else if !args.has("ascii") {
        return Err(CliError::usage("give --out FILE.ppm and/or --ascii"));
    }
    Ok(())
}

fn cmd_route(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let start = args.time("start")?;
    let speed: f64 = args.get_or("speed", 1.4)?;
    let interval: i64 = args.get_or("interval", 60)?;
    if !(speed.is_finite() && speed > 0.0) || interval <= 0 {
        return Err(CliError::usage(
            "--speed and --interval must be finite and positive",
        ));
    }
    let vertices = parse_points(args.require("points")?)?;
    if vertices.len() < 2 {
        return Err(CliError::usage("--points needs at least two x,y pairs"));
    }
    let method = parse_method(args)?;
    let walk = Polyline::new(vertices);
    let steps = (walk.length() / (speed * interval as f64)).ceil();
    if steps.is_nan() || steps >= MAX_ROUTE_FIXES as f64 {
        return Err(CliError::usage(format!(
            "the route needs more than {MAX_ROUTE_FIXES} fixes; raise --speed or --interval"
        )));
    }
    let fixes = steps as usize + 1;
    // The last fix is the latest: if its time fits an i64, every fix's does.
    if interval
        .checked_mul(steps as i64)
        .and_then(|span| start.as_secs().checked_add(span))
        .is_none()
    {
        return Err(CliError::usage(
            "the route's last fix would fall past the latest time; lower --start or --interval",
        ));
    }
    let platform = load_platform(args)?;
    let trajectory: Vec<QueryTuple> = (0..fixes)
        .map(|i| {
            QueryTuple::new(
                start + i as i64 * interval,
                walk.point_at(i as f64 * interval as f64 * speed),
            )
        })
        .collect();
    let route = platform.record_route(&trajectory, method);
    let summary = route.summary();
    writeln!(out, "{}", summary.advisory).map_err(io_err)?;
    writeln!(
        out,
        "points: {} recorded, {} answered; route length {:.0} m",
        summary.recorded,
        summary.answered,
        walk.length()
    )
    .map_err(io_err)?;
    Ok(())
}

/// Counts wire bytes crossing an [`EnviroClient`] session.
struct MeteredWire<W> {
    inner: W,
    bytes: u64,
}

impl<W: Wire> Wire for MeteredWire<W> {
    fn exchange(&mut self, request: &[u8]) -> Result<&[u8], enviro_net::TransportError> {
        self.bytes += request.len() as u64;
        let reply = self.inner.exchange(request)?;
        self.bytes += reply.len() as u64;
        Ok(reply)
    }
}

fn cmd_serve(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let method = parse_method(args)?;
    let workers: usize = args.get_or("workers", default_parallelism())?;
    let batch: usize = args.get_or("batch", 64)?;
    let clients: usize = args.get_or("clients", 4)?;
    let requests: usize = args.get_or("requests", 10_000)?;
    let max_queue: usize = args.get_or("max-queue", TransportConfig::default().max_queue)?;
    let defaults = RetryPolicy::default();
    let policy = RetryPolicy {
        deadline_ms: args.get_or("deadline-ms", defaults.deadline_ms)?,
        max_retries: args.get_or("retries", defaults.max_retries)?,
    };
    if workers == 0 || batch == 0 || clients == 0 || requests == 0 || max_queue == 0 {
        return Err(CliError::usage(
            "--workers, --batch, --clients, --requests and --max-queue must be positive",
        ));
    }
    let mut config = PlatformConfig::parse(args)?;
    let ingest_dir = args.get("ingest");
    if let Some(dir) = ingest_dir {
        // An ingesting server answers from the covers of its store, which
        // windows by duration and fits them with Ad-KMN.
        if args.has("window") {
            return Err(CliError::usage(
                "--ingest windows by duration: use --window-secs, not --window",
            ));
        }
        if method != QueryMethod::ModelCover {
            return Err(CliError::usage(format!(
                "--ingest answers from model covers, not with --method {method}"
            )));
        }
        config.spec = WindowSpec::ByDuration(store_window_secs(args, dir, true)?);
    }
    let dataset = load_dataset(args)?;
    let pollutant = dataset.pollutant();
    let (from, to) = dataset
        .time_span()
        .ok_or_else(|| CliError::runtime("dataset is empty".to_string()))?;
    let bounds = dataset.bounds();
    // With --ingest the server answers from the store at DIR alone, and
    // the dataset's tuples are streamed into it through the durable write
    // path while the query clients run. Without it, every per-window
    // structure is built up front (in parallel across the worker count)
    // so the measured load sees steady-state serving.
    let (server, ingest, stream): (_, _, &[RawTuple]) = match ingest_dir {
        Some(dir) => {
            let ingest = Ingest::open(dir, pollutant, &config)?;
            (Arc::clone(&ingest.server), Some(ingest), dataset.tuples())
        }
        None => {
            let platform = config.platform(dataset);
            platform.engine().prepare_parallel(method, workers);
            let server = EnviroServer::new(platform, BinaryCodec, method);
            (Arc::new(server), None, &[])
        }
    };
    let transport =
        ConcurrentTransport::spawn_shared_with(server, TransportConfig { workers, max_queue })
            .map_err(|e| CliError::runtime(format!("cannot start the transport: {e}")))?;

    // Each client walks its own diagonal of the dataset's extent over its
    // full time span: deterministic, allocation-cheap, and distinct per
    // client so cross-session reply mixups would surface as misses.
    let span_secs = (to - from).max(1);
    let trajectories: Vec<Vec<QueryTuple>> = (0..clients)
        .map(|k| {
            (0..requests)
                .map(|i| {
                    let f = i as f64 / requests.max(1) as f64;
                    let g = ((i + k * 7919) % requests.max(1)) as f64 / requests.max(1) as f64;
                    QueryTuple::new(
                        from + (f * span_secs as f64) as i64,
                        Point::new(
                            bounds.min.x + g * bounds.width(),
                            bounds.min.y + (1.0 - g) * bounds.height(),
                        ),
                    )
                })
                .collect()
        })
        .collect();

    let start = std::time::Instant::now();
    type ClientResult = (u64, usize, usize, u64, enviro_net::ResilienceStats);
    type ServeOutcome = (Vec<ClientResult>, Option<enviro_net::IngestReport>);
    let (results, ingest_report): ServeOutcome = std::thread::scope(|scope| {
        // The durable write path runs concurrently with the query load:
        // one extra session streams the dataset as `IngestBatch` frames.
        let ingest_handle = (!stream.is_empty()).then(|| {
            let transport = &transport;
            let stream = &stream;
            scope.spawn(move || {
                let mut wire = transport.session();
                let mut client = EnviroClient::new(BinaryCodec, pollutant)
                    .with_batch(batch)
                    .with_retry_policy(policy);
                client.ingest_resilient(&mut wire, 0xC11, stream)
            })
        });
        let handles: Vec<_> = trajectories
            .iter()
            .map(|traj| {
                let transport = &transport;
                scope.spawn(move || {
                    let mut wire = MeteredWire {
                        inner: transport.session(),
                        bytes: 0,
                    };
                    let mut client = EnviroClient::new(BinaryCodec, pollutant)
                        .with_batch(batch)
                        .with_retry_policy(policy);
                    let mut outcomes = Vec::new();
                    client.query_resilient(&mut wire, traj, &mut outcomes);
                    let answered = outcomes.iter().filter(|o| o.value().is_some()).count();
                    let unavailable = outcomes.iter().filter(|o| o.is_unavailable()).count() as u64;
                    let completed = outcomes.len() - unavailable as usize;
                    (
                        wire.bytes,
                        completed,
                        answered,
                        unavailable,
                        client.resilience_stats(),
                    )
                })
            })
            .collect();
        let results = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or((0, 0, 0, 0, enviro_net::ResilienceStats::default()))
            })
            .collect();
        let report = ingest_handle.and_then(|h| h.join().ok());
        (results, report)
    });
    let elapsed = start.elapsed().as_secs_f64();

    let total: usize = results.iter().map(|r| r.1).sum();
    let answered: usize = results.iter().map(|r| r.2).sum();
    let bytes: u64 = results.iter().map(|r| r.0).sum();
    let unavailable: u64 = results.iter().map(|r| r.3).sum();
    let retries: u64 = results.iter().map(|r| r.4.retries).sum();
    let busy: u64 = results.iter().map(|r| r.4.busy_replies).sum();
    if total == 0 {
        return Err(CliError::runtime("no queries completed".to_string()));
    }
    writeln!(
        out,
        "served {total} queries ({answered} answered) with {workers} workers, \
         batch {batch}, {clients} clients"
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "throughput: {:.0} queries/s; wire: {:.1} bytes/query; elapsed {:.3} s",
        total as f64 / elapsed.max(1e-9),
        bytes as f64 / total as f64,
        elapsed
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "resilience: {retries} retries, {busy} busy replies, {} shed by server, \
         {unavailable} unavailable",
        transport.shed_total()
    )
    .map_err(io_err)?;
    if let Some(ingest) = ingest {
        let (stats, generation) = ingest.finish()?;
        let report = ingest_report.unwrap_or_default();
        writeln!(
            out,
            "ingest: {} tuples acked, {} failed, {} late, durable {}, \
             {} windows published, generation {generation}",
            report.acked_tuples,
            report.failed_tuples,
            stats.late_tuples,
            stats.durable_tuples,
            stats.published_windows,
        )
        .map_err(io_err)?;
    }
    Ok(())
}

fn cmd_ingest(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let dir = args.require("dir")?;
    let rate: f64 = args.get_or("rate", 1_000.0)?;
    let batch: usize = args.get_or("batch", 64)?;
    let source: u64 = args.get_or("source", 1)?;
    if !rate.is_finite() || rate <= 0.0 || batch == 0 {
        return Err(CliError::usage("--rate and --batch must be positive"));
    }
    let config = PlatformConfig {
        spec: WindowSpec::ByDuration(store_window_secs(args, dir, true)?),
        ..PlatformConfig::default()
    };
    let dataset = load_dataset(args)?;
    let pollutant = dataset.pollutant();

    let ingest = Ingest::open(dir, pollutant, &config)?;

    let clock: Box<dyn Clock> = if args.has("virtual-clock") {
        Box::new(VirtualClock::new())
    } else {
        Box::new(SystemClock::new())
    };
    let mut link = SimulatedLink::new(LinkProfile::IDEAL);
    let mut wire = LoopbackWire::new(&*ingest.server, &mut link);
    let mut client = EnviroClient::new(BinaryCodec, pollutant).with_batch(batch);

    let start_ms = clock.now_ms();
    let mut sent = 0u64;
    let mut acked = 0u64;
    let mut failed = 0u64;
    let mut durable = 0u64;
    for chunk in dataset.tuples().chunks(batch) {
        let report = client.ingest_resilient(&mut wire, source, chunk);
        acked += report.acked_tuples;
        failed += report.failed_tuples;
        durable = durable.max(report.durable_upto);
        sent += chunk.len() as u64;
        // Pace the replay: sleep until `sent` tuples' worth of virtual (or
        // real) time has elapsed at the target rate.
        let target_ms = start_ms + (sent as f64 / rate * 1_000.0) as u64;
        let now = clock.now_ms();
        if target_ms > now {
            clock.sleep_ms(target_ms - now);
        }
    }
    let (stats, generation) = ingest.finish()?;
    let elapsed = (clock.now_ms() - start_ms) as f64 / 1_000.0;
    writeln!(
        out,
        "ingested {acked} tuples ({failed} failed) at target {rate:.0} tuples/s; \
         durable {durable}, {} late; {} windows published (generation {generation}); \
         elapsed {elapsed:.3} s",
        stats.late_tuples, stats.published_windows,
    )
    .map_err(io_err)?;
    Ok(())
}

/// Opens the store at `--dir` under the store rule ([`store_window_secs`]);
/// only `store ingest` may `create` one.
fn open_store(args: &Args, create: bool) -> Result<WalStore, CliError> {
    let dir = args.require("dir")?;
    let config = WalConfig {
        window_secs: store_window_secs(args, dir, create)?,
        ..WalConfig::default()
    };
    WalStore::open(dir, config).map_err(|e| CliError::runtime(format!("{dir}: {e}")))
}

fn cmd_store_ingest(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let dataset = load_csv(args, Pollutant::Co2)?;
    let mut store = open_store(args, true)?;
    let before = store.durable_upto();
    store
        .append_batch(dataset.tuples())
        .map_err(|e| CliError::runtime(e.to_string()))?;
    // Late and rejected counts start at zero on every open, so they are
    // this command's alone.
    let s = store.stats();
    writeln!(
        out,
        "ingested {} tuples ({} late, {} rejected); store now holds {} tuples in {} windows",
        s.durable_tuples - before,
        s.late_tuples,
        s.rejected_tuples,
        s.durable_tuples,
        s.memtable_windows + s.sealed_windows
    )
    .map_err(io_err)
}

fn cmd_store_export(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let (dir, out_path) = (args.require("dir")?, args.require("out")?);
    let tuples = open_store(args, false)?
        .tuples()
        .map_err(|e| CliError::runtime(format!("{dir}: {e}")))?;
    let dataset = Dataset::from_tuples(Pollutant::Co2, tuples).map_err(CliError::runtime)?;
    let mut file = std::io::BufWriter::new(
        std::fs::File::create(out_path)
            .map_err(|e| CliError::runtime(format!("cannot create {out_path}: {e}")))?,
    );
    write_csv(&dataset, &mut file).map_err(io_err)?;
    writeln!(out, "exported {} tuples to {out_path}", dataset.len()).map_err(io_err)
}

fn cmd_store_stats(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let s = open_store(args, false)?.stats();
    writeln!(
        out,
        "durable tuples: {}  open windows: {} ({} tuples)  sealed windows: {} ({} tuples)  \
         wal: {} segments, {} bytes  recovered-torn-tail: {}",
        s.durable_tuples,
        s.memtable_windows,
        s.memtable_tuples,
        s.sealed_windows,
        s.sealed_tuples,
        s.wal_segments,
        s.wal_bytes,
        s.recovered_torn_tail
    )
    .map_err(io_err)
}

fn cmd_store_compact(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let mut store = open_store(args, false)?;
    let before = store.stats();
    // Sealing every window leaves a store with no open windows: the WAL
    // shrinks to one empty segment.
    if let Some(max) = store.max_window_id() {
        store
            .seal_windows_before(max.saturating_add(1))
            .map_err(|e| CliError::runtime(e.to_string()))?;
    }
    let after = store.stats();
    writeln!(
        out,
        "sealed {} windows; WAL {} segments ({} bytes) -> {} ({} bytes); \
         {} tuples in {} sealed windows",
        after.sealed_windows - before.sealed_windows,
        before.wal_segments,
        before.wal_bytes,
        after.wal_segments,
        after.wal_bytes,
        after.durable_tuples,
        after.sealed_windows
    )
    .map_err(io_err)
}

/// Parses `"x,y;x,y;…"` into points.
fn parse_points(raw: &str) -> Result<Vec<Point>, CliError> {
    raw.split(';')
        .filter(|s| !s.trim().is_empty())
        .map(|pair| {
            let mut it = pair.split(',');
            let x = it
                .next()
                .and_then(|v| v.trim().parse::<f64>().ok())
                .ok_or_else(|| CliError::usage(format!("bad point {pair:?}")))?;
            let y = it
                .next()
                .and_then(|v| v.trim().parse::<f64>().ok())
                .ok_or_else(|| CliError::usage(format!("bad point {pair:?}")))?;
            if it.next().is_some() || !(x.is_finite() && y.is_finite()) {
                return Err(CliError::usage(format!("bad point {pair:?}")));
            }
            Ok(Point::new(x, y))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cmd(argv: &[&str]) -> (i32, String) {
        let args: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let code = crate::run(&args, &mut out);
        (code, String::from_utf8(out).expect("utf8 output"))
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("enviro-cli-{name}-{}", std::process::id()))
    }

    #[test]
    fn no_args_prints_usage() {
        let (code, out) = run_cmd(&[]);
        assert_eq!(code, 0);
        assert!(out.contains("usage: enviro"));
    }

    #[test]
    fn unknown_command_fails_with_usage_code() {
        let (code, _) = run_cmd(&["frobnicate"]);
        assert_eq!(code, 2);
    }

    #[test]
    fn simulate_then_info_query_heatmap_route() {
        let csv = temp_path("pipeline.csv");
        let csv_str = csv.to_str().unwrap();
        let (code, out) = run_cmd(&["simulate", "--hours", "6", "--seed", "3", "--out", csv_str]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("wrote 720 tuples"), "{out}");

        let (code, out) = run_cmd(&["info", csv_str]);
        assert_eq!(code, 0);
        assert!(out.contains("tuples:    720"), "{out}");
        assert!(out.contains("pollutant: CO2"));

        let (code, out) = run_cmd(&["query", csv_str, "--time", "2h", "--x", "0", "--y", "-200"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("ppm"), "{out}");
        assert!(out.contains("Ad-KMN"), "{out}");

        let ppm = temp_path("map.ppm");
        let (code, out) = run_cmd(&[
            "heatmap",
            csv_str,
            "--time",
            "2h",
            "--out",
            ppm.to_str().unwrap(),
            "--cols",
            "16",
            "--rows",
            "12",
        ]);
        assert_eq!(code, 0, "{out}");
        let img = std::fs::read(&ppm).unwrap();
        assert!(img.starts_with(b"P6\n16 12\n255\n"));

        let (code, out) = run_cmd(&[
            "route",
            csv_str,
            "--start",
            "1h",
            "--points",
            "0,-200;500,0;800,100",
            "--speed",
            "2.0",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("Average CO2"), "{out}");

        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&ppm).ok();
    }

    #[test]
    fn store_roundtrip() {
        let csv = temp_path("store-src.csv");
        let back = temp_path("store-back.csv");
        let dir = temp_path("store-dir");
        let _ = std::fs::remove_dir_all(&dir);
        let (code, _) = run_cmd(&["simulate", "--hours", "2", "--out", csv.to_str().unwrap()]);
        assert_eq!(code, 0);
        let (code, out) = run_cmd(&[
            "store",
            "ingest",
            csv.to_str().unwrap(),
            "--dir",
            dir.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("ingested 240 tuples"), "{out}");
        let (code, out) = run_cmd(&[
            "store",
            "export",
            "--dir",
            dir.to_str().unwrap(),
            "--out",
            back.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        let a = std::fs::read_to_string(&csv).unwrap();
        let b = std::fs::read_to_string(&back).unwrap();
        assert_eq!(a, b, "store round trip must be lossless");
        let (code, out) = run_cmd(&["store", "stats", "--dir", dir.to_str().unwrap()]);
        assert_eq!(code, 0);
        assert!(out.contains("tuples: 240"), "{out}");
        let (code, out) = run_cmd(&["store", "compact", "--dir", dir.to_str().unwrap()]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("240 tuples"), "{out}");
        // Every window is sealed now, so re-ingesting the same readings
        // drops them all as late, and says so.
        let (code, out) = run_cmd(&[
            "store",
            "ingest",
            csv.to_str().unwrap(),
            "--dir",
            dir.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains("ingested 0 tuples (240 late, 0 rejected)"),
            "{out}"
        );
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&back).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_stats_reads_an_ingest_directory() {
        let csv = temp_path("store-ingest-src.csv");
        let dir = temp_path("store-ingest-wal");
        let other = temp_path("store-ingest-wal-2h");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&other);
        run_cmd(&["simulate", "--hours", "2", "--out", csv.to_str().unwrap()]);
        let ingest = |dir: &std::path::Path, extra: &[&str]| {
            let (csv, dir) = (csv.to_str().unwrap(), dir.to_str().unwrap());
            let mut argv = vec![
                "ingest",
                csv,
                "--dir",
                dir,
                "--rate",
                "1000",
                "--virtual-clock",
            ];
            argv.extend_from_slice(extra);
            run_cmd(&argv)
        };
        let (code, out) = ingest(&dir, &[]);
        assert_eq!(code, 0, "{out}");
        let (code, out) = run_cmd(&["store", "stats", "--dir", dir.to_str().unwrap()]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("durable tuples: 240"), "{out}");
        // A directory written with another window length is read with the
        // window it records, not misread.
        let (code, out) = ingest(&other, &["--window-secs", "7200"]);
        assert_eq!(code, 0, "{out}");
        let (code, out) = run_cmd(&["store", "stats", "--dir", other.to_str().unwrap()]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("durable tuples: 240"), "{out}");
        std::fs::remove_file(&csv).ok();
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&other).ok();
    }

    #[test]
    fn serve_drives_concurrent_load() {
        let csv = temp_path("serve.csv");
        run_cmd(&["simulate", "--hours", "4", "--out", csv.to_str().unwrap()]);
        let (code, out) = run_cmd(&[
            "serve",
            csv.to_str().unwrap(),
            "--workers",
            "2",
            "--batch",
            "16",
            "--clients",
            "2",
            "--requests",
            "200",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("served 400 queries"), "{out}");
        assert!(out.contains("queries/s"), "{out}");
        assert!(out.contains("bytes/query"), "{out}");
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn serve_rejects_zero_workers() {
        let csv = temp_path("serve-zero.csv");
        run_cmd(&["simulate", "--hours", "1", "--out", csv.to_str().unwrap()]);
        let (code, _) = run_cmd(&["serve", csv.to_str().unwrap(), "--workers", "0"]);
        assert_eq!(code, 2);
        let (code, _) = run_cmd(&["serve", csv.to_str().unwrap(), "--max-queue", "0"]);
        assert_eq!(code, 2);
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn out_of_range_numeric_flags_are_usage_errors() {
        let csv = temp_path("bad-flags.csv");
        let csv_str = csv.to_str().unwrap();
        run_cmd(&["simulate", "--hours", "2", "--out", csv_str]);
        let query = ["query", csv_str, "--time", "1h", "--x", "0", "--y", "0"];
        let route = ["route", csv_str, "--start", "1h", "--points", "0,0;100,0"];
        let route_from = ["route", csv_str, "--points", "0,0;100,0"];
        let heatmap = ["heatmap", csv_str, "--time", "1h", "--ascii"];
        let query_at = ["query", csv_str, "--x", "0", "--y", "0"];
        let sim_out = temp_path("bad-flags-sim.csv");
        let simulate = ["simulate", "--out", sim_out.to_str().unwrap()];
        let cases: [(&[&str], &[&str]); 23] = [
            (&query, &["--radius", "-1"]),
            (&query, &["--radius", "NaN"]),
            (&query, &["--window", "0"]),
            (&query, &["--window-secs", "0"]),
            (&query, &["--window-secs", "-5"]),
            (&query, &["--tau", "-1"]),
            (&query, &["--tau", "NaN"]),
            (&query_at, &["--time", "200000000000000d"]),
            (&query_at, &["--time", "9223372036854775807h"]),
            (&route, &["--speed", "NaN"]),
            (&route, &["--speed", "inf"]),
            (&route, &["--speed", "1e-12"]),
            (&route, &["--speed", "1e-300"]),
            (&route, &["--interval", "9223372036854775807"]),
            (&route_from, &["--start", "9223372036854775807"]),
            (&heatmap, &["--cols", "0"]),
            (&heatmap, &["--rows", "0"]),
            (&heatmap, &["--cols", "100000", "--rows", "100000"]),
            (&simulate, &["--hours", "-5"]),
            (&simulate, &["--hours", "0"]),
            (&simulate, &["--interval", "0"]),
            (&simulate, &["--days", "200000000000000"]),
            (&simulate, &["--days", "100000"]),
        ];
        for (command, flags) in cases {
            let argv: Vec<&str> = command.iter().chain(flags).copied().collect();
            let (code, out) = run_cmd(&argv);
            assert_eq!(code, 2, "{flags:?}: {out}");
        }
        // The defaults those flags replace are accepted.
        for command in [&query[..], &route, &heatmap] {
            let (code, out) = run_cmd(command);
            assert_eq!(code, 0, "{command:?}: {out}");
        }
        assert!(!sim_out.exists(), "a refused simulate wrote its output");
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn serve_with_tiny_queue_sheds_but_still_answers_everything() {
        let csv = temp_path("serve-shed.csv");
        run_cmd(&["simulate", "--hours", "2", "--out", csv.to_str().unwrap()]);
        // A one-slot queue under two clients can shed a request whenever
        // one client's next frame lands before the worker has taken the
        // other's; the resilient clients must absorb every Busy via retries.
        let (code, out) = run_cmd(&[
            "serve",
            csv.to_str().unwrap(),
            "--workers",
            "1",
            "--max-queue",
            "1",
            "--batch",
            "8",
            "--clients",
            "2",
            "--requests",
            "100",
            "--deadline-ms",
            "30000",
            "--retries",
            "1000",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("served 200 queries"), "{out}");
        assert!(out.contains("resilience:"), "{out}");
        assert!(out.contains("0 unavailable"), "{out}");
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn ingest_replays_at_rate_on_a_virtual_clock() {
        let csv = temp_path("ingest-replay.csv");
        let dir = temp_path("ingest-replay-wal");
        let _ = std::fs::remove_dir_all(&dir);
        run_cmd(&["simulate", "--hours", "2", "--out", csv.to_str().unwrap()]);
        let (code, out) = run_cmd(&[
            "ingest",
            csv.to_str().unwrap(),
            "--dir",
            dir.to_str().unwrap(),
            "--rate",
            "120",
            "--batch",
            "32",
            "--virtual-clock",
        ]);
        assert_eq!(code, 0, "{out}");
        // 2 simulated hours at 60 s sampling = 240 tuples; at 120 tuples/s
        // the virtual-clock pacing makes the replay exactly 2 s long.
        assert!(out.contains("ingested 240 tuples (0 failed)"), "{out}");
        assert!(out.contains("durable 240"), "{out}");
        assert!(out.contains("elapsed 2.000 s"), "{out}");
        assert!(out.contains("windows published"), "{out}");
        std::fs::remove_file(&csv).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_rejects_bad_rate() {
        let csv = temp_path("ingest-bad-rate.csv");
        let dir = temp_path("ingest-bad-rate-wal");
        run_cmd(&["simulate", "--hours", "1", "--out", csv.to_str().unwrap()]);
        let (code, _) = run_cmd(&[
            "ingest",
            csv.to_str().unwrap(),
            "--dir",
            dir.to_str().unwrap(),
            "--rate",
            "0",
        ]);
        assert_eq!(code, 2);
        std::fs::remove_file(&csv).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_with_ingest_streams_the_write_path_under_query_load() {
        let csv = temp_path("serve-ingest.csv");
        let dir = temp_path("serve-ingest-wal");
        let _ = std::fs::remove_dir_all(&dir);
        run_cmd(&["simulate", "--hours", "2", "--out", csv.to_str().unwrap()]);
        let (code, out) = run_cmd(&[
            "serve",
            csv.to_str().unwrap(),
            "--workers",
            "2",
            "--batch",
            "16",
            "--clients",
            "2",
            "--requests",
            "100",
            "--ingest",
            dir.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("served 200 queries"), "{out}");
        assert!(out.contains("ingest: 240 tuples acked, 0 failed"), "{out}");
        assert!(out.contains("durable 240"), "{out}");
        std::fs::remove_file(&csv).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A reopened store's open windows are published before the setup
    /// returns, so its server answers the history from the first query,
    /// with no wait for the maintenance worker.
    #[test]
    fn the_ingest_setup_answers_the_open_history_at_once() {
        let dir = temp_path("ingest-setup-history");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_str = dir.to_str().unwrap();
        let config = PlatformConfig::default();
        let sim = LausanneSim::lausanne(SimConfig {
            duration_secs: 2 * 3_600,
            ..SimConfig::default()
        });
        let history = sim.generate();
        let ingest = Ingest::open(dir_str, Pollutant::Co2, &config).unwrap();
        ingest.state.ingest(1, 1, history.tuples()).unwrap();
        ingest.finish().unwrap();

        let ingest = Ingest::open(dir_str, Pollutant::Co2, &config).unwrap();
        let first = history.tuples()[0];
        let reply = ingest.server.handle(&enviro_net::Request::Query {
            time: first.time,
            pos: first.pos,
        });
        assert!(
            matches!(reply, enviro_net::Response::Value { .. }),
            "{reply:?}"
        );
        ingest.finish().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_ingest_setup_fits_with_the_platforms_tau() {
        let dir = temp_path("ingest-setup-tau");
        let _ = std::fs::remove_dir_all(&dir);
        let argv: Vec<String> = ["--tau", "5"].iter().map(|s| s.to_string()).collect();
        let serve = COMMANDS.iter().find(|c| c.is("serve")).unwrap();
        let config = PlatformConfig::parse(&Args::parse(&argv, serve).unwrap()).unwrap();
        let ingest = Ingest::open(dir.to_str().unwrap(), Pollutant::Co2, &config).unwrap();
        let adkmn = &ingest.state.config().adkmn;
        assert_eq!(adkmn.tau_percent, 5.0);
        assert_eq!(*adkmn, config.adkmn);
        ingest.finish().unwrap();
        assert_eq!(
            WalStore::recorded_window_secs(&dir).unwrap(),
            Some(DEFAULT_WINDOW_SECS)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_with_ingest_refuses_count_windows() {
        let dir = temp_path("serve-ingest-count-wal");
        let (code, out) = run_cmd(&[
            "serve",
            "no-such-file.csv",
            "--window",
            "120",
            "--ingest",
            dir.to_str().unwrap(),
        ]);
        assert_eq!(code, 2, "{out}");
        assert!(!dir.exists());
    }

    #[test]
    fn serve_with_ingest_refuses_non_cover_methods() {
        let dir = temp_path("serve-ingest-naive-wal");
        let (code, out) = run_cmd(&[
            "serve",
            "no-such-file.csv",
            "--method",
            "naive",
            "--ingest",
            dir.to_str().unwrap(),
        ]);
        assert_eq!(code, 2, "{out}");
        assert!(!dir.exists());
    }

    #[test]
    fn query_requires_time() {
        let csv = temp_path("notime.csv");
        run_cmd(&["simulate", "--hours", "1", "--out", csv.to_str().unwrap()]);
        let (code, _) = run_cmd(&["query", csv.to_str().unwrap(), "--x", "0", "--y", "0"]);
        assert_eq!(code, 2);
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn query_method_selection() {
        let csv = temp_path("methods.csv");
        run_cmd(&["simulate", "--hours", "2", "--out", csv.to_str().unwrap()]);
        for m in [
            "naive", "rtree", "vptree", "kdtree", "grid", "idw", "ad-kmn",
        ] {
            let (code, out) = run_cmd(&[
                "query",
                csv.to_str().unwrap(),
                "--time",
                "1h",
                "--x",
                "0",
                "--y",
                "-200",
                "--method",
                m,
            ]);
            assert_eq!(code, 0, "{m}: {out}");
        }
        let (code, _) = run_cmd(&[
            "query",
            csv.to_str().unwrap(),
            "--time",
            "1h",
            "--x",
            "0",
            "--y",
            "0",
            "--method",
            "quantum",
        ]);
        assert_eq!(code, 2);
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn parse_points_rejects_garbage() {
        assert!(parse_points("1,2;3,4").is_ok());
        assert!(parse_points("1,2;nope").is_err());
        assert!(parse_points("1,2,3").is_err());
        assert!(parse_points("0,0;NaN,0").is_err());
        assert_eq!(parse_points("").unwrap().len(), 0);
    }

    #[test]
    fn every_table_line_declares_one_flag() {
        for command in &COMMANDS {
            let (synopsis, summary) = command.head();
            assert!(!summary.is_empty(), "{synopsis} has no summary");
            let help = command.help();
            let mut names = Vec::new();
            for line in help.lines().skip(3) {
                let line = line.trim_start();
                let (spelling, flag_help) = line.split_once("  ").unwrap();
                assert!(
                    !flag_help.trim().is_empty(),
                    "{synopsis}: {line:?} has no help"
                );
                let bare = spelling
                    .strip_prefix('[')
                    .map_or(Some(spelling), |s| s.strip_suffix(']'));
                let words: Vec<&str> = bare.unwrap().split(' ').collect();
                assert!(
                    words.len() <= 2 && words[0].starts_with("--"),
                    "{synopsis}: {line:?}"
                );
                assert!(
                    !names.contains(&words[0]),
                    "{synopsis} declares {} twice",
                    words[0]
                );
                names.push(words[0]);
            }
            assert_eq!(names.len(), command.usage().matches("--").count());
        }
    }

    #[test]
    fn missing_file_is_runtime_error() {
        let (code, _) = run_cmd(&["info", "/definitely/not/here.csv"]);
        assert_eq!(code, 1);
    }
}
