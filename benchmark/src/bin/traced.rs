//! The traced pass (`--trace 1`): the counting allocator is installed, so
//! the `alloc.*` per-layer metrics can be measured.

#[global_allocator]
static ALLOC: ddr_benchmark::alloc::CountingAlloc = ddr_benchmark::alloc::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(ddr_benchmark::run(&args));
}
