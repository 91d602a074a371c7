//! `mshc` — command-line front end for the simulated-evolution MSHC suite.
//!
//! ```text
//! mshc generate --tasks 100 --machines 20 --connectivity high --out wl.json
//! mshc run --algo se --instance wl.json --iters 500 --gantt
//! mshc run --algo heft --tasks 50 --machines 8
//! mshc compare --tasks 100 --machines 20 --ccr 1.0 --wall 5
//! mshc info --instance wl.json
//! ```

mod args;
mod commands;

use commands::Error;
use std::io::ErrorKind;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let status = match commands::dispatch(&argv, &mut std::io::stdout().lock()) {
        Ok(()) => 0,
        // The reader closed the pipe (`mshc generate | head`): nobody
        // reads the rest, and nothing went wrong.
        Err(Error::Output(e)) if e.kind() == ErrorKind::BrokenPipe => 0,
        Err(e @ Error::Output(_)) => {
            eprintln!("error: {e}");
            2
        }
        Err(e @ Error::Command(_)) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            2
        }
    };
    std::process::exit(status);
}
