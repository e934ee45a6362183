//! The footprint table: "The implementation consumes a mere 41.6KB of code
//! and 3.59KB of data memory" (Abstract), against the MICA2's 128 KB flash
//! and 4 KB RAM.

use agilla::MemoryModel;
use agilla_bench::{BenchArgs, Table};

fn main() {
    let _args = BenchArgs::parse(); // uniform CLI: rejects typo'd flags
    let model = MemoryModel::paper();
    println!("Memory footprint (paper: 41.6 KB code, 3.59 KB data)\n");
    let mut t = Table::new(vec!["component", "code B", "data B"]);
    for line in model.lines() {
        t.row(vec![
            line.component.to_string(),
            line.rom.to_string(),
            line.ram.to_string(),
        ]);
    }
    t.row(vec![
        "TOTAL".into(),
        model.total_rom().to_string(),
        model.total_ram().to_string(),
    ]);
    t.print();
    println!(
        "\nTotals: {:.1} KB code ({:.0}% of 128 KB flash), {:.2} KB data ({:.0}% of 4 KB RAM)",
        model.total_rom() as f64 / 1024.0,
        100.0 * model.rom_fraction(),
        model.total_ram() as f64 / 1024.0,
        100.0 * model.ram_fraction(),
    );
}
