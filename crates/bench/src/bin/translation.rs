//! Experiment binary `translation` — prints artifact T8 (Theorem 8, the `P_k → P_su` translation).

fn main() {
    bench::experiments::translation_table(200).print();
}
