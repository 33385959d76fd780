//! Experiment binary `thm3` — prints artifact E3 (Theorem 3).

fn main() {
    bench::experiments::thm3_table(1.0, 2.0, 10).print();
}
