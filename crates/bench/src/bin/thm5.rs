//! Experiment binary `thm5` — prints artifact E5 (Theorem 5).

fn main() {
    bench::experiments::thm5_table(1.0, 2.0, 10).print();
}
