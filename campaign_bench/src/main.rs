//! Campaign benchmark command line. Prints human-readable lines, then the
//! result object as the last line of standard output; exits 1 when the
//! correctness gate fails and 2 on a usage error.

use campaign_bench::{run, Args, USAGE};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args);
    for line in &outcome.lines {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for e in &outcome.errors {
        eprintln!("correctness gate: {e}");
    }
    println!("{}", outcome.json());
    if !outcome.correct() {
        std::process::exit(1);
    }
}
