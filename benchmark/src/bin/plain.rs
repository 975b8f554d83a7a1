//! The plain pass (`--trace 0`): the system allocator, no counting.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(ddr_benchmark::run(&args));
}
