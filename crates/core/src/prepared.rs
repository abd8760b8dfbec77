//! Decode-once program preparation for simulation sweeps.
//!
//! A parallel sweep (the `spice-farm` engine) runs the same workload program
//! under many jobs — sequential and Spice, different thread counts,
//! different seeds. Everything immutable about such a run can be built
//! exactly once and shared: the (possibly transformed) [`Program`] and its
//! [`DecodedProgram`] execution form. [`PreparedProgram`] is that bundle,
//! with the shared pieces behind [`Arc`] so instantiating a machine for one
//! more job is two reference-count bumps plus a fresh memory — no re-decode.
//! That memory is a zeroed allocation on demand-zero pages with only the
//! globals written, so instantiation never copies or scans the heap.
//!
//! [`SimBackend::load`](crate::backend::SimBackend) is itself implemented
//! over [`PreparedProgram::spice`], so a serial run and a sweep job execute
//! the same preparation logic by construction — which is what keeps farm
//! artifacts byte-identical to serially produced ones.
//!
//! Preparation wall-time is recorded in
//! [`build_nanos`](PreparedProgram::build_nanos), so harness-performance
//! reporting can split one-time decode/transform cost from per-cycle
//! simulation dispatch cost.

use std::sync::Arc;
use std::time::Instant;

use spice_ir::exec::{BackendError, LoadOptions};
use spice_ir::lint::lint_spice;
use spice_ir::{DecodedProgram, FuncId, Program};
use spice_sim::{Machine, MachineConfig};

use crate::analysis::LoopAnalysis;
use crate::pipeline::SpiceRunner;
use crate::predictor::PredictorOptions;
use crate::transform::{SpiceOptions, SpiceParallelLoop, SpiceTransform};

/// What kind of execution a [`PreparedProgram`] was prepared for.
#[derive(Debug, Clone)]
enum PreparedKind {
    /// Untransformed program, run one core at a time through
    /// [`run_sequential`](crate::pipeline::run_sequential).
    Sequential,
    /// Spice-transformed program plus the transform's loop description; each
    /// instantiation gets its own [`SpiceRunner`] over the shared loop.
    Spice(Box<SpiceParallelLoop>),
}

/// An immutable, shareable preparation of one program for one machine
/// configuration: decoded form and (for Spice runs) the transformed loop.
/// Build once, instantiate per job.
#[derive(Debug, Clone)]
pub struct PreparedProgram {
    program: Arc<Program>,
    decoded: Arc<DecodedProgram>,
    config: MachineConfig,
    kind: PreparedKind,
    build_nanos: u128,
}

impl PreparedProgram {
    /// Prepares `program` for sequential execution on `config`: decode only,
    /// no transformation.
    #[must_use]
    pub fn sequential(config: MachineConfig, program: Program) -> Self {
        let started = Instant::now();
        let decoded = Arc::new(DecodedProgram::new(&program));
        PreparedProgram {
            program: Arc::new(program),
            decoded,
            config,
            kind: PreparedKind::Sequential,
            build_nanos: started.elapsed().as_nanos(),
        }
    }

    /// Prepares `program` for Spice execution: loop analysis, the Spice
    /// transformation with `threads` threads and `predictor`, and the
    /// machine configuration adjustments [`SimBackend::load`] performs
    /// (cores, heap reservation, conflict detection and granularity).
    ///
    /// [`SimBackend::load`]: crate::backend::SimBackend
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] if the loop cannot be analysed or
    /// transformed.
    pub fn spice(
        base_config: MachineConfig,
        threads: usize,
        predictor: PredictorOptions,
        mut program: Program,
        kernel: FuncId,
        options: LoadOptions,
    ) -> Result<Self, BackendError> {
        let started = Instant::now();
        let analysis = match options.loop_header {
            Some(h) => LoopAnalysis::analyze(&program, kernel, h),
            None => LoopAnalysis::analyze_outermost(&program, kernel),
        }
        .map_err(|e| BackendError::Analysis(e.to_string()))?;
        let mut predictor = predictor;
        if predictor.initial_work_estimate.is_none() {
            predictor.initial_work_estimate = options.work_estimate;
        }
        let spice = SpiceTransform::new(SpiceOptions {
            threads,
            predictor,
            conflict_policy: options.conflict_policy,
        })
        .apply(&mut program, &analysis)
        .map_err(|e| BackendError::Analysis(e.to_string()))?;
        // The machine's memory is sized by the program's globals plus the
        // larger of the machine's own heap reservation and the one the
        // caller requested — so both backends honor `LoadOptions::heap_words`
        // and a workload cannot fit on one substrate but not the other.
        let mut config = base_config.with_cores(threads);
        config.heap_words = config.heap_words.max(options.heap_words);
        // The machine's conflict detection backs the generated `spec.check`
        // instructions; skip the tracking entirely when the policy asserts
        // independence (the checks are not emitted either).
        config.conflict_detection = options.conflict_policy.detects();
        config.conflict_granularity_log2 = options.conflict_granularity_log2;
        // Redundant with the gate inside `SpiceTransform::apply`, but it
        // re-checks the program *here*, immediately before decode — so any
        // future post-transform rewrite that corrupts the protocol is caught
        // at preparation time in debug builds.
        if cfg!(debug_assertions) {
            if let Err(errs) = lint_spice(&program, &spice.protocol()) {
                let rendered: Vec<String> = errs.iter().map(|e| e.render(&program)).collect();
                panic!(
                    "PreparedProgram::spice produced a program that fails \
                     speculation-safety lints:\n{}",
                    rendered.join("\n")
                );
            }
        }
        let decoded = Arc::new(DecodedProgram::new(&program));
        Ok(PreparedProgram {
            program: Arc::new(program),
            decoded,
            config,
            kind: PreparedKind::Spice(Box::new(spice)),
            build_nanos: started.elapsed().as_nanos(),
        })
    }

    /// Wall-clock nanoseconds the preparation took (analysis + transform +
    /// decode). This is the one-time cost a sweep amortizes and a
    /// harness-performance report must not charge to simulation.
    #[must_use]
    pub fn build_nanos(&self) -> u128 {
        self.build_nanos
    }

    /// The machine configuration instantiations run under.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Whether this preparation carries a Spice transformation.
    #[must_use]
    pub fn is_spice(&self) -> bool {
        matches!(self.kind, PreparedKind::Spice(_))
    }

    /// Threads the Spice transform was generated for; 1 for sequential
    /// preparations.
    #[must_use]
    pub fn threads(&self) -> usize {
        match &self.kind {
            PreparedKind::Sequential => 1,
            PreparedKind::Spice(spice) => spice.threads,
        }
    }

    /// Instantiates a fresh machine over the shared program state: shared
    /// `Arc`s for the program and its decoded form, and its own memory with
    /// the globals materialized (see [`Machine::from_shared`]). Mutations of
    /// one instantiation never touch another.
    #[must_use]
    pub fn machine(&self) -> Machine {
        Machine::from_shared(
            self.config.clone(),
            Arc::clone(&self.program),
            Arc::clone(&self.decoded),
        )
    }

    /// A fresh runner for the prepared Spice loop, or `None` for sequential
    /// preparations. Runner state (predictions, feedback) is per-job.
    #[must_use]
    pub fn runner(&self) -> Option<SpiceRunner> {
        match &self.kind {
            PreparedKind::Sequential => None,
            PreparedKind::Spice(spice) => Some(SpiceRunner::new((**spice).clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_sequential;
    use spice_ir::builder::FunctionBuilder;
    use spice_ir::interp::FlatMemory;
    use spice_ir::{BinOp, Operand};

    fn list_sum_program(capacity: i64) -> (Program, FuncId, i64) {
        let mut program = Program::new();
        let nodes = program.add_global("nodes", capacity * 2);
        let mut b = FunctionBuilder::new("list_sum");
        let head = b.param();
        let pre = b.new_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let c = b.copy(head);
        let sum = b.copy(0i64);
        b.br(pre);
        b.switch_to(pre);
        b.br(header);
        b.switch_to(header);
        let done = b.binop(BinOp::Eq, c, 0i64);
        b.cond_br(done, exit, body);
        b.switch_to(body);
        let w = b.load(c, 0);
        let s = b.binop(BinOp::Add, sum, w);
        b.copy_into(sum, s);
        let nx = b.load(c, 1);
        b.copy_into(c, nx);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(Operand::Reg(sum)));
        let f = program.add_func(b.finish());
        (program, f, nodes)
    }

    fn write_list(mem: &mut FlatMemory, base: i64, weights: &[i64]) {
        for (i, w) in weights.iter().enumerate() {
            let addr = base + 2 * i as i64;
            let next = if i + 1 < weights.len() { addr + 2 } else { 0 };
            mem.write(addr, *w).unwrap();
            mem.write(addr + 1, next).unwrap();
        }
    }

    /// Two machines instantiated from one preparation share the decoded
    /// program (pointer-equal Arcs) yet have fully independent memory.
    #[test]
    fn instantiations_share_decode_but_not_memory() {
        let (program, f, nodes) = list_sum_program(64);
        let prepared = PreparedProgram::sequential(MachineConfig::test_tiny(1), program);
        assert!(!prepared.is_spice());
        assert!(prepared.runner().is_none());
        assert_eq!(prepared.threads(), 1);

        let mut a = prepared.machine();
        let mut b = prepared.machine();
        assert!(std::ptr::eq(a.program(), b.program()), "program is shared");

        write_list(a.mem_mut(), nodes, &[5, 6, 7]);
        write_list(b.mem_mut(), nodes, &[10, 20, 30]);
        let (_, ra) = run_sequential(&mut a, f, &[nodes]).unwrap();
        let (_, rb) = run_sequential(&mut b, f, &[nodes]).unwrap();
        assert_eq!(ra, Some(18));
        assert_eq!(rb, Some(60), "b unaffected by a's memory writes");
    }

    /// A Spice preparation instantiated twice runs both jobs to the correct
    /// result with per-job runner state.
    #[test]
    fn spice_preparation_supports_independent_jobs() {
        let (program, f, nodes) = list_sum_program(64);
        let prepared = PreparedProgram::spice(
            MachineConfig::test_tiny(2),
            2,
            PredictorOptions::default(),
            program,
            f,
            LoadOptions::new(4096, Some(16)),
        )
        .unwrap();
        assert!(prepared.is_spice());
        assert_eq!(prepared.threads(), 2);
        assert!(prepared.build_nanos() > 0);

        for weights in [vec![1i64, 2, 3, 4], vec![5i64; 8]] {
            let expected: i64 = weights.iter().sum();
            let mut machine = prepared.machine();
            let mut runner = prepared.runner().unwrap();
            write_list(machine.mem_mut(), nodes, &weights);
            for _ in 0..3 {
                let report = runner.run_invocation(&mut machine, &[nodes]).unwrap();
                assert_eq!(report.return_value, Some(expected));
            }
        }
    }

    /// A machine's memory is exactly what `FlatMemory::for_program` builds
    /// for its program and the prepared configuration: same words, same
    /// allocation cursor.
    fn assert_memory_is_fresh_image(prepared: &PreparedProgram) {
        let machine = prepared.machine();
        let expected = FlatMemory::for_program(machine.program(), prepared.config().heap_words);
        assert_eq!(machine.mem().heap_next(), expected.heap_next());
        assert!(machine.mem().words() == expected.words(), "memory differs");
    }

    #[test]
    fn sequential_machine_memory_equals_program_image() {
        let (mut program, _, _) = list_sum_program(64);
        program.add_global_init("seed", 4, vec![7, -8, 9]);
        let prepared = PreparedProgram::sequential(MachineConfig::test_tiny(1), program);
        assert_memory_is_fresh_image(&prepared);
    }

    /// The Spice preparation's heap is the larger of the machine's own
    /// reservation and `LoadOptions::heap_words`, and the transform's
    /// initialized globals are materialized.
    #[test]
    fn spice_machine_memory_equals_program_image() {
        let (program, f, _) = list_sum_program(64);
        let base = MachineConfig::test_tiny(2);
        let requested = base.heap_words * 2;
        let prepared = PreparedProgram::spice(
            base,
            2,
            PredictorOptions::default(),
            program,
            f,
            LoadOptions::new(requested, Some(16)),
        )
        .unwrap();
        assert_eq!(prepared.config().heap_words, requested);
        assert_memory_is_fresh_image(&prepared);
    }
}
