//! The `standing` binary: installs the counting allocator and hands the command
//! line to the library.

use genealog_metrics::TrackingAllocator;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(genealog_standing::cli::run(&args, &ALLOC));
}
