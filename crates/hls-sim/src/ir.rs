//! The kernel IR consumed by the HLS toolchain simulator.
//!
//! A [`Kernel`] is a loop nest over partitioned arrays — the level of
//! abstraction at which a traditional HLS tool makes its banking,
//! scheduling, and binding decisions. Both the Dahlia backend (lowering a
//! typed surface program) and the MachSuite baselines (hand-built, standing
//! in for the original C with `#pragma HLS` annotations) produce this IR.

/// A complete kernel: arrays plus a loop-nest body.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel name (reported in estimates).
    pub name: String,
    /// Array declarations (on-chip memories).
    pub arrays: Vec<ArrayDecl>,
    /// Top-level statements.
    pub body: Vec<Stmt>,
    /// Target clock in MHz (the paper synthesizes at 250 MHz).
    pub clock_mhz: f64,
    /// Pipeline innermost loops (HLS default behaviour).
    pub pipeline: bool,
}

impl Kernel {
    /// A kernel with the given name and defaults matching the paper's
    /// experimental setup.
    pub fn new(name: impl Into<String>) -> Kernel {
        Kernel {
            name: name.into(),
            arrays: Vec::new(),
            body: Vec::new(),
            clock_mhz: 250.0,
            pipeline: true,
        }
    }

    /// Add an array and return `self` for chaining.
    pub fn array(mut self, a: ArrayDecl) -> Kernel {
        self.arrays.push(a);
        self
    }

    /// Add a top-level statement and return `self` for chaining.
    pub fn stmt(mut self, s: Stmt) -> Kernel {
        self.body.push(s);
        self
    }

    /// Find an array by name.
    pub fn array_named(&self, name: &str) -> Option<&ArrayDecl> {
        self.arrays.iter().find(|a| a.name == name)
    }
}

/// An on-chip array with cyclic partitioning.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDecl {
    /// Array name.
    pub name: String,
    /// Element width in bits.
    pub elem_bits: u32,
    /// Dimension sizes, outermost first.
    pub dims: Vec<u64>,
    /// Cyclic partitioning factor per dimension (1 = unpartitioned).
    pub partition: Vec<u64>,
    /// Read/write ports per bank (BRAMs have 1 or 2).
    pub ports: u32,
}

impl ArrayDecl {
    /// An unpartitioned single-ported array.
    pub fn new(name: impl Into<String>, elem_bits: u32, dims: &[u64]) -> ArrayDecl {
        ArrayDecl {
            name: name.into(),
            elem_bits,
            dims: dims.to_vec(),
            partition: vec![1; dims.len()],
            ports: 1,
        }
    }

    /// Set cyclic partition factors (one per dimension).
    pub fn partitioned(mut self, factors: &[u64]) -> ArrayDecl {
        assert_eq!(factors.len(), self.dims.len(), "one factor per dimension");
        self.partition = factors.to_vec();
        self
    }

    /// Set the per-bank port count.
    pub fn with_ports(mut self, ports: u32) -> ArrayDecl {
        self.ports = ports;
        self
    }

    /// Total number of banks, saturating at `u64::MAX`.
    pub fn total_banks(&self) -> u64 {
        self.partition
            .iter()
            .fold(1u64, |n, p| n.saturating_mul(*p))
            .max(1)
    }

    /// Total number of elements.
    pub fn total_elems(&self) -> u64 {
        self.dims.iter().product::<u64>().max(1)
    }

    /// Does every partition factor evenly divide its dimension?
    ///
    /// When it does not, the HLS tool silently pads banks and adds
    /// bounds-handling hardware (the Fig. 4c pitfall).
    pub fn evenly_banked(&self) -> bool {
        self.dims
            .iter()
            .zip(&self.partition)
            .all(|(d, p)| d % p.max(&1) == 0)
    }
}

/// A statement: a loop or a straight-line operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A counted loop.
    Loop(Loop),
    /// A compute operation with its memory accesses.
    Op(Op),
}

/// A counted loop with an unroll directive.
#[derive(Debug, Clone, PartialEq)]
pub struct Loop {
    /// Iterator name (referenced by [`Idx::var`]).
    pub var: String,
    /// Trip count.
    pub trips: u64,
    /// `#pragma HLS UNROLL FACTOR=` equivalent.
    pub unroll: u64,
    /// Loop body.
    pub body: Vec<Stmt>,
}

impl Loop {
    /// A sequential loop.
    pub fn new(var: impl Into<String>, trips: u64) -> Loop {
        Loop {
            var: var.into(),
            trips,
            unroll: 1,
            body: Vec::new(),
        }
    }

    /// Set the unroll factor.
    pub fn unrolled(mut self, factor: u64) -> Loop {
        self.unroll = factor.max(1);
        self
    }

    /// Append a body statement.
    pub fn stmt(mut self, s: Stmt) -> Loop {
        self.body.push(s);
        self
    }

    /// Wrap into a [`Stmt`].
    pub fn into_stmt(self) -> Stmt {
        Stmt::Loop(self)
    }
}

/// Operation kinds with distinct datapath costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Integer add/sub/compare.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Floating add/sub.
    FAdd,
    /// Floating multiply.
    FMul,
    /// Floating divide / sqrt (long latency).
    FDiv,
    /// Bitwise logic / select.
    Logic,
    /// Pure data movement.
    Copy,
}

impl OpKind {
    /// Pipeline latency in cycles.
    pub fn latency(self) -> u64 {
        match self {
            OpKind::IntAlu => 1,
            OpKind::IntMul => 3,
            OpKind::FAdd => 4,
            OpKind::FMul => 4,
            OpKind::FDiv => 16,
            OpKind::Logic => 1,
            OpKind::Copy => 0,
        }
    }

    /// LUT cost per instance (32-bit datapath).
    pub fn luts(self) -> u64 {
        match self {
            OpKind::IntAlu => 40,
            OpKind::IntMul => 90,
            OpKind::FAdd => 220,
            OpKind::FMul => 130,
            OpKind::FDiv => 800,
            OpKind::Logic => 16,
            OpKind::Copy => 0,
        }
    }

    /// DSP blocks per instance.
    pub fn dsps(self) -> u64 {
        match self {
            OpKind::IntMul => 3,
            OpKind::FAdd => 2,
            OpKind::FMul => 3,
            OpKind::FDiv => 0,
            _ => 0,
        }
    }
}

/// A compute operation: `kind` applied to values read from `reads`,
/// written to `writes`.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Datapath operation.
    pub kind: OpKind,
    /// Memory reads feeding the op.
    pub reads: Vec<Access>,
    /// Memory writes of the result.
    pub writes: Vec<Access>,
}

impl Op {
    /// A compute op with no memory traffic.
    pub fn compute(kind: OpKind) -> Op {
        Op {
            kind,
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    /// Add a read access.
    pub fn read(mut self, a: Access) -> Op {
        self.reads.push(a);
        self
    }

    /// Add a write access.
    pub fn write(mut self, a: Access) -> Op {
        self.writes.push(a);
        self
    }

    /// Wrap into a [`Stmt`].
    pub fn into_stmt(self) -> Stmt {
        Stmt::Op(self)
    }
}

/// A (multi-dimensional) array access with one index pattern per dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct Access {
    /// Array name.
    pub array: String,
    /// Index pattern per dimension.
    pub idx: Vec<Idx>,
}

impl Access {
    /// Build an access.
    pub fn new(array: impl Into<String>, idx: Vec<Idx>) -> Access {
        Access {
            array: array.into(),
            idx,
        }
    }
}

/// An affine (or opaque) index pattern for one dimension.
#[derive(Debug, Clone, PartialEq)]
pub enum Idx {
    /// `stride * var + offset`.
    Affine {
        /// Loop iterator driving this index.
        var: String,
        /// Multiplier.
        stride: i64,
        /// Additive constant.
        offset: i64,
    },
    /// A compile-time constant.
    Const(i64),
    /// Data-dependent / unanalyzable (the tool assumes any bank).
    Dynamic,
}

impl Idx {
    /// `var` with stride 1, offset 0.
    pub fn var(v: impl Into<String>) -> Idx {
        Idx::Affine {
            var: v.into(),
            stride: 1,
            offset: 0,
        }
    }

    /// `stride * var + offset`.
    pub fn affine(v: impl Into<String>, stride: i64, offset: i64) -> Idx {
        Idx::Affine {
            var: v.into(),
            stride,
            offset,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_banks_and_evenness() {
        let a = ArrayDecl::new("m", 32, &[512, 512]).partitioned(&[8, 1]);
        assert_eq!(a.total_banks(), 8);
        assert_eq!(a.total_elems(), 512 * 512);
        assert!(a.evenly_banked());
        let b = ArrayDecl::new("m", 32, &[512]).partitioned(&[7]);
        assert!(!b.evenly_banked());
    }

    #[test]
    fn builders_compose() {
        let k = Kernel::new("k")
            .array(ArrayDecl::new("a", 32, &[16]).partitioned(&[2]))
            .stmt(
                Loop::new("i", 16)
                    .unrolled(2)
                    .stmt(
                        Op::compute(OpKind::IntAlu)
                            .read(Access::new("a", vec![Idx::var("i")]))
                            .into_stmt(),
                    )
                    .into_stmt(),
            );
        assert_eq!(k.arrays.len(), 1);
        assert!(k.array_named("a").is_some());
        assert!(k.array_named("b").is_none());
    }

    #[test]
    fn op_kind_costs_ordered() {
        assert!(OpKind::FDiv.latency() > OpKind::FMul.latency());
        assert!(OpKind::FAdd.luts() > OpKind::IntAlu.luts());
        assert_eq!(OpKind::Copy.luts(), 0);
    }
}
