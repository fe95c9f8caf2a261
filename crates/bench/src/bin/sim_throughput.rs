//! `sim_throughput` — host-side simulator speed on a straight-line ALU
//! hot loop and a mixed load/store loop, on the accelerated engine and on
//! the reference interpreter (`LZ_ACCEL=0`).
//!
//! Prints one line of JSON to stdout (CI captures it as
//! `BENCH_sim_throughput.json`); a human-readable summary goes to stderr.
//!
//! ```text
//! sim_throughput [INSNS]      default 20000000
//! ```

fn main() {
    let insns: u64 =
        std::env::args().nth(1).map(|s| s.parse().expect("INSNS must be an integer")).unwrap_or(20_000_000);
    let r = lz_bench::throughput::run(insns);
    eprintln!(
        "sim_throughput: alu {:.2} vs {:.2} MIPS ({:.2}x), mem {:.2} vs {:.2} MIPS ({:.2}x), cycles match: {}",
        r.alu.mips_on(),
        r.alu.mips_off(),
        r.alu.speedup(),
        r.mem.mips_on(),
        r.mem.mips_off(),
        r.mem.speedup(),
        r.cycles_match(),
    );
    println!("{}", r.json());
    if !r.cycles_match() {
        std::process::exit(1);
    }
}
