//! `nascentd` — the optimize+certify pipeline as a long-running service.
//!
//! ```text
//! nascentd [--addr HOST:PORT] [--workers N] [--queue N]
//! ```
//!
//! Serves `POST /optimize`, `POST /certify`, `GET /healthz`, and
//! `GET /metrics` over HTTP/1.1 (one request per connection). Request
//! bodies are JSON objects whose fields spell exactly like the
//! `nascentc` flag values:
//!
//! ```text
//! curl -s localhost:7878/certify -d '{
//!   "program": "program p\n integer a(1:10)\n integer i\n do i = 1, 10\n  a(i) = i\n enddo\n print a(5)\nend\n",
//!   "scheme": "LLS", "kind": "prx", "implications": "all",
//!   "discharge": "off", "engine": "vm"
//! }'
//! ```
//!
//! All requests share one [`nascent_driver::Pipeline`] and its
//! fleet-wide result cache; identical concurrent requests compute once.
//! The cache keeps the 4 096 newest outcomes (first in, first out), and
//! the native tier's compile cache the 256 newest binaries, deleting an
//! evicted binary once no run holds it. Both capacities are constants;
//! `/metrics` counts their evictions.

use std::process::ExitCode;

use nascent_driver::service::{start, ServiceConfig};

const USAGE: &str = "usage: nascentd [--addr HOST:PORT] [--workers N] [--queue N]

  --addr HOST:PORT  bind address (default 127.0.0.1:7878; port 0 picks one)
  --workers N       worker threads (default: available parallelism)
  --queue N         admitted-request limit before 503
                    (default: workers * 16, floored at 128)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServiceConfig {
        addr: "127.0.0.1:7878".into(),
        ..ServiceConfig::default()
    };
    let mut queue_set = false;
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> Result<String, String> {
            let flag = args[*i].clone();
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let result = match args[i].as_str() {
            "--addr" => value(&mut i).map(|v| config.addr = v),
            "--workers" => value(&mut i).and_then(|v| {
                v.parse::<usize>()
                    .map(|n| config.workers = n.max(1))
                    .map_err(|_| format!("bad --workers value `{v}`"))
            }),
            "--queue" => value(&mut i).and_then(|v| {
                v.parse::<usize>()
                    .map(|n| {
                        config.queue_limit = n.max(1);
                        queue_set = true;
                    })
                    .map_err(|_| format!("bad --queue value `{v}`"))
            }),
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown option `{other}`")),
        };
        if let Err(e) = result {
            eprintln!("nascentd: {e}");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
        i += 1;
    }
    if !queue_set {
        config.queue_limit = (config.workers * 16).max(128);
    }
    let workers = config.workers;
    let queue_limit = config.queue_limit;
    let handle = match start(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("nascentd: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "nascentd listening on {} ({} workers, queue limit {})",
        handle.addr, workers, queue_limit
    );
    // the service runs until the process is killed
    loop {
        std::thread::park();
    }
}
