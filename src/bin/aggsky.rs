//! The `aggsky` command-line tool; see `aggsky help`.

use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match aggsky::cli::run_command(&args) {
        Ok(out) => {
            // A reader that closes the pipe early (`aggsky generate … |
            // head`) has all the output it wants: a broken pipe ends the
            // output, not the process.
            let mut stdout = std::io::stdout().lock();
            if let Err(err) = stdout.write_all(out.as_bytes()).and_then(|()| stdout.flush()) {
                if err.kind() != std::io::ErrorKind::BrokenPipe {
                    eprintln!("error: writing the output: {err}");
                    std::process::exit(1);
                }
            }
        }
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}
