//! `hybridmem` — the command-line entry point. All logic lives in the
//! library crate (`hybridmem_cli`) so it is unit-testable.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout().lock();
    if let Err(error) = hybridmem_cli::run(args, &mut stdout) {
        // A closed pipe (e.g. `hybridmem list | head`) is not a failure.
        if error.to_string().contains("Broken pipe") {
            return;
        }
        eprintln!("error: {error}");
        std::process::exit(1);
    }
}
