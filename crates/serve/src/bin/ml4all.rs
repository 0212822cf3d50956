//! The `ml4all` command line: the paper's declarative interface as an
//! interactive REPL (or one-shot `-e` executor), plus the `serve`
//! subcommand that exposes an engine over TCP.
//!
//! ```text
//! $ ml4all
//! ml4all> Q1 = run logistic() on train.csv having epsilon 0.01;
//! [Q1] trained with SGD-lazy-shuffle: 2062 iterations, 7.2 simulated s
//! ml4all> explain logistic() on train.csv having epsilon 0.01;
//! #   plan                 est.iter  prep(s)  iter(s)   total(s)  platforms
//! 1   SGD-lazy-shuffle     2062      ...
//! ml4all> persist Q1 on model.txt;
//! [persisted model.txt]
//! ml4all> predict on test.csv with model.txt;
//! [predictions: 600 points, mse 0.583, accuracy 85.3%]
//!
//! $ ML4ALL_WORKERS=4 ml4all serve --addr 127.0.0.1:7878
//! ml4all-serve listening on 127.0.0.1:7878 (protocols 1-2, rng stream 3)
//! ```
//!
//! Options: `-e "<stmt>"` (execute and exit, repeatable),
//! `--data-dir <dir>` (base for relative paths), `--help`; see
//! `ml4all serve --help` for the server flags. `ML4ALL_WORKERS` sizes the
//! process's one worker pool, which runs every job and verb.

use std::io::{BufRead, Write};

use ml4all::{render_report, Engine, Session, SessionOutput, Trained, RNG_STREAM_VERSION};
use ml4all_serve::{
    Client, ServeConfig, Server, TenantQuota, PROTOCOL_RAW_WEIGHTS, PROTOCOL_VERSION,
};

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("serve") {
        args.next();
        serve_main(args);
        return;
    }
    if args.peek().map(String::as_str) == Some("stats") {
        args.next();
        stats_main(args);
        return;
    }
    let mut statements: Vec<String> = Vec::new();
    let mut data_dir = String::from(".");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-e" | "--execute" => match args.next() {
                Some(stmt) => statements.push(stmt),
                None => {
                    eprintln!("-e requires a statement");
                    std::process::exit(2);
                }
            },
            "--data-dir" => match args.next() {
                Some(dir) => data_dir = dir,
                None => {
                    eprintln!("--data-dir requires a path");
                    std::process::exit(2);
                }
            },
            "-h" | "--help" => {
                print_help();
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}; try --help");
                std::process::exit(2);
            }
        }
    }

    let session = Session::new(Engine::new().with_data_dir(&data_dir));

    if !statements.is_empty() {
        for stmt in statements {
            if !run_statement(&session, &stmt) {
                std::process::exit(1);
            }
        }
        return;
    }

    // Interactive REPL.
    println!("ml4all — cost-based gradient-descent optimizer");
    println!("statements: run / explain / persist / predict  (\\q to quit, \\h for help)");
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        print!("ml4all> ");
        std::io::stdout().flush().ok();
        buffer.clear();
        match stdin.lock().read_line(&mut buffer) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let line = buffer.trim();
        match line {
            "" => continue,
            "\\q" | "quit" | "exit" => break,
            "\\h" | "help" => {
                print_help();
                continue;
            }
            _ => {
                run_statement(&session, line);
            }
        }
    }
}

/// `ml4all serve`: boot a serving front end and block until killed.
fn serve_main(mut args: std::iter::Peekable<impl Iterator<Item = String>>) {
    let mut config = ServeConfig::default();
    let mut data_dir = String::from(".");
    let mut state_dir: Option<String> = None;
    let mut calibrate = false;
    let mut replan = false;
    let bad = |flag: &str, what: &str| -> ! {
        eprintln!("{flag} requires {what}");
        std::process::exit(2);
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(addr) => config.addr = addr,
                None => bad("--addr", "host:port"),
            },
            "--data-dir" => match args.next() {
                Some(dir) => data_dir = dir,
                None => bad("--data-dir", "a path"),
            },
            "--state-dir" => match args.next() {
                Some(dir) => state_dir = Some(dir),
                None => bad("--state-dir", "a path"),
            },
            "--calibrate" => calibrate = true,
            "--replan" => replan = true,
            "--max-frame" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.max_frame = v,
                None => bad("--max-frame", "a byte count"),
            },
            "--global-in-flight" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.global_in_flight = v,
                None => bad("--global-in-flight", "a job count"),
            },
            "--max-in-flight" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.default_quota.max_in_flight = v,
                None => bad("--max-in-flight", "a job count"),
            },
            "--max-queued-bytes" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.default_quota.max_queued_bytes = v,
                None => bad("--max-queued-bytes", "a byte count"),
            },
            // --quota TENANT=IN_FLIGHT:QUEUED_BYTES, repeatable.
            "--quota" => match args.next().as_deref().and_then(parse_quota) {
                Some((tenant, quota)) => config.tenant_quotas.push((tenant, quota)),
                None => bad("--quota", "TENANT=IN_FLIGHT:QUEUED_BYTES"),
            },
            "--max-write-buffer" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.max_write_buffer = v,
                None => bad("--max-write-buffer", "a byte count"),
            },
            "-h" | "--help" => {
                print_serve_help();
                return;
            }
            other => {
                eprintln!("unknown serve argument {other:?}; try `ml4all serve --help`");
                std::process::exit(2);
            }
        }
    }
    let mut engine = Engine::new().with_data_dir(&data_dir);
    if calibrate {
        engine = engine.with_calibration();
    }
    if replan {
        engine = engine.with_replanning();
    }
    if let Some(dir) = &state_dir {
        engine = engine.with_state_dir(dir);
    }
    match Server::start(engine, config) {
        Ok(server) => {
            println!(
                "ml4all-serve listening on {} (protocols {PROTOCOL_VERSION}-{PROTOCOL_RAW_WEIGHTS}, \
                 rng stream {RNG_STREAM_VERSION})",
                server.local_addr()
            );
            // Serve until the process is killed.
            loop {
                std::thread::park();
            }
        }
        Err(e) => {
            eprintln!("failed to bind: {e}");
            std::process::exit(1);
        }
    }
}

/// `ml4all stats`: connect to a running server and print the tenant's
/// admission/job table plus the process-wide reactor counters.
fn stats_main(mut args: std::iter::Peekable<impl Iterator<Item = String>>) {
    let mut addr = String::from("127.0.0.1:7878");
    let mut tenant = String::from("default");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => addr = a,
                None => {
                    eprintln!("--addr requires host:port");
                    std::process::exit(2);
                }
            },
            "--tenant" => match args.next() {
                Some(t) => tenant = t,
                None => {
                    eprintln!("--tenant requires a name");
                    std::process::exit(2);
                }
            },
            "-h" | "--help" => {
                println!(
                    "usage: ml4all stats [--addr HOST:PORT] [--tenant NAME]\n\n\
                     prints the tenant's admission counters and job table, then\n\
                     the server-wide reactor counters (ServerStats verb)."
                );
                return;
            }
            other => {
                eprintln!("unknown stats argument {other:?}; try `ml4all stats --help`");
                std::process::exit(2);
            }
        }
    }
    let run = || -> Result<(), Box<dyn std::error::Error>> {
        let mut client = Client::connect(&addr)?;
        client.hello(&tenant)?;
        let stats = client.stats()?;
        println!("tenant {tenant:?} @ {addr}");
        println!(
            "  admission: {} in flight (quota {}), {} queued ({} of {} queued bytes); \
             global {} of {}",
            stats.in_flight,
            stats.quota_max_in_flight,
            stats.queued,
            stats.queued_bytes,
            stats.quota_max_queued_bytes,
            stats.global_in_flight,
            stats.global_capacity
        );
        println!(
            "  plan cache: {} hits, {} misses, {} entries",
            stats.plan_cache_hits, stats.plan_cache_misses, stats.plan_cache_len
        );
        if let Some(generation) = stats.calibration_generation {
            println!(
                "  calibration: gen {}, residual conf {:.2}, {} replans",
                generation,
                stats.calibration_confidence.unwrap_or(0.0),
                stats.replans
            );
        }
        if stats.jobs.is_empty() {
            println!("  jobs: none");
        } else {
            println!("  jobs:");
            for job in &stats.jobs {
                println!(
                    "    #{:<6} {:<10} {}",
                    job.job,
                    job.status,
                    job.name.as_deref().unwrap_or("-")
                );
            }
        }
        let server = client.server_stats()?;
        println!("server ({} backend)", server.backend);
        println!(
            "  connections: {} active / {} total; {} slow-consumer disconnects",
            server.active_connections, server.total_connections, server.slow_consumer_disconnects
        );
        println!(
            "  reactor: {} wakeups, {} partial writes, {} bytes in, {} bytes out",
            server.wakeups, server.partial_writes, server.bytes_in, server.bytes_out
        );
        Ok(())
    };
    if let Err(e) = run() {
        eprintln!("stats failed: {e}");
        std::process::exit(1);
    }
}

fn parse_quota(spec: &str) -> Option<(String, TenantQuota)> {
    let (tenant, rest) = spec.split_once('=')?;
    let (in_flight, queued_bytes) = rest.split_once(':')?;
    Some((
        tenant.to_string(),
        TenantQuota {
            max_in_flight: in_flight.parse().ok()?,
            max_queued_bytes: queued_bytes.parse().ok()?,
        },
    ))
}

fn run_statement(session: &Session, stmt: &str) -> bool {
    match session.execute(stmt) {
        Ok(SessionOutput::Trained(Trained { name, summary, .. })) => {
            println!(
                "[{name}] trained with {}: {} iterations, {:.1} simulated s \
                 (converged: {}; optimizer overhead {:.1} s)",
                summary.plan,
                summary.iterations,
                summary.sim_time_s,
                summary.converged,
                summary.speculation_s
            );
            true
        }
        Ok(SessionOutput::Persisted { path }) => {
            println!("[persisted {}]", path.display());
            true
        }
        Ok(SessionOutput::Predicted(p)) => {
            match p.accuracy {
                Some(acc) => println!(
                    "[predictions: {} points, mse {:.3}, accuracy {:.1}%]",
                    p.predictions.len(),
                    p.mse,
                    acc * 100.0
                ),
                None => println!(
                    "[predictions: {} points, mse {:.3}]",
                    p.predictions.len(),
                    p.mse
                ),
            }
            true
        }
        Ok(SessionOutput::Explained { report }) => {
            print!("{}", render_report(&report));
            println!(
                "[optimizer would run {} at {:.3} estimated s]",
                report.best().plan,
                report.best().total_s
            );
            true
        }
        Err(e) => {
            eprintln!("error: {e}");
            false
        }
    }
}

fn print_help() {
    println!(
        "\
usage: ml4all [--data-dir DIR] [-e STATEMENT]...
       ml4all serve [--addr HOST:PORT] [--state-dir DIR] ...
       ml4all stats [--addr HOST:PORT] [--tenant NAME]

statements (Appendix A of the paper, plus the explain verb):
  [NAME =] run <task> on <dataset> [having ...] [using ...];
      task: classification | regression | hinge() | logistic() | squared()
      dataset: a LIBSVM/CSV file, optionally with columns (file:2, file:4-20),
               or a Table 2 analog by name (adult, covtype, rcv1, ...)
      having: time 1h30m, epsilon 0.01, max iter 1000
      using:  algorithm SGD|BGD|MGD, step 1, sampler shuffled, batch 1000
  explain [run] <task> on <dataset> [having ...] [using ...];
      print the optimizer's full costed plan table (cost, estimated
      iterations, Java/Spark platform mapping) instead of executing
  persist NAME on <path>;
  [NAME =] predict on <dataset> with <model-file-or-result-name>;
"
    );
}

fn print_serve_help() {
    println!(
        "\
usage: ml4all serve [options]

Training jobs, explain and predict all run on the process's one worker
pool, in a fairness lane per tenant; ML4ALL_WORKERS=N sizes it (default:
the machine's available parallelism).

options:
  --addr HOST:PORT       bind address (default 127.0.0.1:0, ephemeral)
  --data-dir DIR         base directory for dataset/model paths
  --state-dir DIR        durability root: plan cache, bound models, and job
                         checkpoints persist here and survive restarts
  --calibrate            online cost-model calibration: refit unit costs and
                         residuals from measured jobs (profile persists under
                         --state-dir)
  --replan               deterministic mid-flight replanning when the
                         iteration count observed convergence implies
                         leaves 0.5-2x the plan's priced count
  --max-frame BYTES      frame payload cap (default 1 MiB)
  --global-in-flight N   max concurrent jobs across tenants (default 8)
  --max-in-flight N      default per-tenant in-flight quota (default 4)
  --max-queued-bytes N   default per-tenant queued-byte quota (default 256 KiB)
  --quota T=N:BYTES      per-tenant override, repeatable
  --max-write-buffer N   per-connection outbound buffer cap before the peer
                         is dropped as a slow consumer (default 4 MiB)
"
    );
}
