// Seeded obs-discipline fixture: eager trace label and unannotated worker
// metric commit.

pub fn seeded() {
    obs.trace(1, format!("eager label"));
    obs.trace(1, || format!("lazy label"));
    m.cells.inc();
    m.cells.inc(); // worker-metric-ok: fixture counter, order-free
}
