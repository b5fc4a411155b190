//! Spans the benchmark records around its own calls into the program
//! (workload → pass/probe → session → build/run/hash), kept in memory and
//! printed, with each name's self time, when the traced run ends.

use std::collections::BTreeMap;
use std::time::Instant;

struct Record {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    ns: u64,
}

#[derive(Default)]
pub struct Spans {
    records: Vec<Record>,
}

impl Spans {
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        self.records.push(Record {
            name,
            parent,
            start: Instant::now(),
            ns: 0,
        });
        self.records.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let r = &mut self.records[id];
        r.ns = r.start.elapsed().as_nanos() as u64;
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Per span name: count, total ms and self ms (total minus children).
    pub fn print(&self) {
        let mut child_ns = vec![0u64; self.records.len()];
        for r in &self.records {
            if let Some(p) = r.parent {
                child_ns[p] += r.ns;
            }
        }
        let mut by_name: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for (i, r) in self.records.iter().enumerate() {
            let path = self.path(i);
            let e = by_name.entry(path).or_default();
            e.0 += 1;
            e.1 += r.ns;
            e.2 += r.ns.saturating_sub(child_ns[i]);
        }
        println!(
            "{:<44} {:>6} {:>11} {:>11}",
            "span", "count", "total ms", "self ms"
        );
        for (path, (count, total, own)) in by_name {
            println!(
                "{path:<44} {count:>6} {:>11.3} {:>11.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }

    fn path(&self, mut i: usize) -> String {
        let mut parts = vec![self.records[i].name];
        while let Some(p) = self.records[i].parent {
            parts.push(self.records[p].name);
            i = p;
        }
        parts.reverse();
        parts.join("/")
    }
}
