//! Workload descriptors (Table III).

use std::fmt;

/// Which benchmark to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Persistent vector, insert/update, 8 stores/tx, write-only.
    Vector,
    /// Persistent hashmap, insert/update, 8 stores/tx, write-only.
    Hashmap,
    /// Persistent queue, enqueue/dequeue, 4 stores/tx, write-only.
    Queue,
    /// Persistent red-black tree, insert/update, 2-10 stores/tx.
    RbTree,
    /// Persistent B-tree, insert/update, 2-12 stores/tx.
    BTree,
    /// YCSB over the N-store row store, 80 % update / 20 % read, Zipfian.
    Ycsb,
    /// TPC-C New-Order over the N-store row store, 40 % write / 60 % read.
    Tpcc,
}

impl WorkloadKind {
    /// All Table III workloads in presentation order.
    pub const ALL: [WorkloadKind; 7] = [
        WorkloadKind::Vector,
        WorkloadKind::Hashmap,
        WorkloadKind::Queue,
        WorkloadKind::RbTree,
        WorkloadKind::BTree,
        WorkloadKind::Ycsb,
        WorkloadKind::Tpcc,
    ];

    /// The five synthetic data-structure workloads.
    pub const SYNTHETIC: [WorkloadKind; 5] = [
        WorkloadKind::Vector,
        WorkloadKind::Hashmap,
        WorkloadKind::Queue,
        WorkloadKind::RbTree,
        WorkloadKind::BTree,
    ];
}

impl WorkloadKind {
    /// The benchmark's short name (`vector`, `ycsb`, ...).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Vector => "vector",
            WorkloadKind::Hashmap => "hashmap",
            WorkloadKind::Queue => "queue",
            WorkloadKind::RbTree => "rbtree",
            WorkloadKind::BTree => "btree",
            WorkloadKind::Ycsb => "ycsb",
            WorkloadKind::Tpcc => "tpcc",
        }
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully parameterized workload instance (one Table III row + dataset
/// size).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Which benchmark.
    pub kind: WorkloadKind,
    /// Item / value size in bytes (Table III datasets: 64 B and 1 KB items;
    /// YCSB values of 512 B / 1 KB).
    pub item_bytes: u64,
    /// Items per core-private structure.
    pub items: u64,
    /// Zipfian skew for item selection (YCSB standard 0.99).
    pub zipf_theta: f64,
    /// Update fraction for mixed workloads (YCSB; the paper's mix is 0.8).
    pub update_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadSpec {
    /// The paper's default parameterization for `kind` with 64-byte items.
    pub fn small(kind: WorkloadKind) -> Self {
        WorkloadSpec {
            kind,
            item_bytes: 64,
            items: 4096,
            zipf_theta: 0.99,
            update_fraction: 0.8,
            seed: 42,
        }
    }

    /// The 1 KB-item dataset of Table III (512 B values for YCSB's small
    /// dataset are selected explicitly by the harness).
    pub fn large(kind: WorkloadKind) -> Self {
        WorkloadSpec {
            item_bytes: 1024,
            items: 1024,
            ..Self::small(kind)
        }
    }

    /// Table III metadata: (stores per tx description, write/read mix).
    pub fn table_iii_row(&self) -> (&'static str, &'static str) {
        match self.kind {
            WorkloadKind::Vector => ("8", "100%/0%"),
            WorkloadKind::Hashmap => ("8", "100%/0%"),
            WorkloadKind::Queue => ("4", "100%/0%"),
            WorkloadKind::RbTree => ("2-10", "100%/0%"),
            WorkloadKind::BTree => ("2-12", "100%/0%"),
            WorkloadKind::Ycsb => ("8-32", "80%/20%"),
            WorkloadKind::Tpcc => ("10-35", "40%/60%"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_display() {
        for k in WorkloadKind::ALL {
            assert!(!k.to_string().is_empty());
        }
    }

    #[test]
    fn spec_defaults_match_table_iii() {
        let s = WorkloadSpec::small(WorkloadKind::Ycsb);
        assert_eq!(s.table_iii_row(), ("8-32", "80%/20%"));
        assert_eq!(s.zipf_theta, 0.99);
        let l = WorkloadSpec::large(WorkloadKind::Vector);
        assert_eq!(l.item_bytes, 1024);
    }
}
