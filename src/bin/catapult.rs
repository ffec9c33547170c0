//! The `catapult` command-line tool. All logic lives in
//! [`catapult::cli`]; this wrapper forwards arguments and prints.

use std::io::{ErrorKind, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match catapult::cli::run(&args) {
        Ok(out) => {
            let mut stdout = std::io::stdout().lock();
            match writeln!(stdout, "{out}").and_then(|()| stdout.flush()) {
                Ok(()) => {}
                // The reader closed the pipe early (`catapult … | head`):
                // it has all it wanted, so this is a normal exit.
                Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
                Err(e) => {
                    eprintln!("catapult: cannot write to stdout: {e}");
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}
