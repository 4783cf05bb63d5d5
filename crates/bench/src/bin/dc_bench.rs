//! Command-line entry point; `dc-bench help` prints the interface ([`dc_bench::cli`]).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(dc_bench::cli::run(&args, &mut std::io::stdout().lock()));
}
