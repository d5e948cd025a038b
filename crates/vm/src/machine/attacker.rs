//! The attacker API: the threat model of §2, made executable.
//!
//! The attacker has full control over *regular* process memory (arbitrary
//! reads and writes, modelling input-controlled corruption primitives),
//! but cannot modify the code segment and cannot name safe-region
//! addresses unless isolation is off or a guess happens to land.

use crate::config::Isolation;
use crate::trap::Trap;

use super::Machine;

/// Result of probing a guessed safe-region address under information
/// hiding (§3.2.3: "most failed guessing attempts would crash the
/// program").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuessOutcome {
    /// The guess hit inside the live safe region: hiding is breached.
    Hit,
    /// The guess landed on unmapped memory: the process crashes (and a
    /// deployment would notice the crash storm).
    Crash,
    /// The guess landed on ordinary regular memory: silently wrong.
    Miss,
}

/// Why an attacker memory operation was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackerError {
    /// Target is in the write-protected code/rodata image.
    CodeImmutable,
    /// Target is inside the safe region and isolation blocks it.
    IsolationBlocked,
    /// Target address is unmapped (the "write" would crash the victim).
    Unmapped,
}

impl<'m> Machine<'m> {
    /// Arbitrary attacker write to regular memory (threat model §2).
    ///
    /// Fails against the code segment (read-executable, not writable),
    /// and against the safe region whenever any isolation mechanism is
    /// active — under information hiding the attacker cannot *name*
    /// these addresses, which this API models as a refusal.
    pub fn attacker_write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), AttackerError> {
        for (i, b) in bytes.iter().enumerate() {
            let a = addr + i as u64;
            if self.layout.in_safe_region(a) && self.config.isolation != Isolation::None {
                return Err(AttackerError::IsolationBlocked);
            }
            match self.mem.write_u8(a, *b) {
                Ok(()) => {}
                Err(crate::mem::MemError::WriteProtected { .. }) => {
                    return Err(AttackerError::CodeImmutable)
                }
                Err(crate::mem::MemError::Unmapped { .. }) => return Err(AttackerError::Unmapped),
            }
        }
        Ok(())
    }

    /// One guessing attempt against the hidden safe region: the attacker
    /// picks an address and dereferences it through a corrupted pointer.
    pub fn attacker_guess(&self, addr: u64) -> GuessOutcome {
        if self.layout.in_safe_region(addr) {
            return GuessOutcome::Hit;
        }
        // Outside the safe region: mapped regular memory is a miss,
        // anything else crashes the process.
        if self.mem.read_u8(addr).is_ok() {
            GuessOutcome::Miss
        } else {
            GuessOutcome::Crash
        }
    }

    /// The number of equally likely safe-region bases under information
    /// hiding: the denominator of a guessing attack's success chance.
    pub fn guess_space(&self) -> u64 {
        crate::layout::Layout::safe_base_candidates()
    }

    /// Runs the machine until just before `main` returns, then lets a
    /// closure corrupt memory, then resumes. Used by unit tests that
    /// need surgical mid-execution corruption without a full exploit.
    ///
    /// Always executes on the step-walking reference engine regardless
    /// of `VmConfig::engine`: stopping after exactly `steps_before`
    /// instructions requires single-stepping, which the bytecode
    /// engine's dispatch loop does not expose (and the two engines are
    /// observationally identical, so verdicts are unaffected).
    pub fn run_with_midpoint_corruption<F>(
        &mut self,
        input: &[u8],
        steps_before: u64,
        corrupt: F,
    ) -> super::RunOutcome
    where
        F: FnOnce(&mut Machine<'m>),
    {
        self.run.input = input.to_vec();
        self.run.input_pos = 0;
        let image = std::sync::Arc::clone(&self.image);
        let module = &image.module;
        let main = module.func_by_name("main").expect("main exists");
        if let Err(trap) = self.enter_main(main) {
            return super::RunOutcome {
                status: crate::trap::ExitStatus::Trapped(trap),
                stats: self.run.stats,
                output: self.run.output.join("\n"),
            };
        }
        let mut status = None;
        for _ in 0..steps_before {
            match self.step(module) {
                Ok(Some(exit)) => {
                    status = Some(exit);
                    break;
                }
                Ok(None) => {}
                Err(t) => {
                    status = Some(crate::trap::ExitStatus::Trapped(t));
                    break;
                }
            }
        }
        if status.is_none() {
            corrupt(self);
            status = Some(loop {
                match self.step(module) {
                    Ok(Some(exit)) => break exit,
                    Ok(None) => {}
                    Err(t) => break crate::trap::ExitStatus::Trapped(t),
                }
            });
        }
        let status = match status.expect("status set") {
            crate::trap::ExitStatus::Trapped(Trap::ProgramExit(c)) => {
                crate::trap::ExitStatus::Exited(c)
            }
            s => s,
        };
        self.finalize_stats();
        super::RunOutcome {
            status,
            stats: self.run.stats,
            output: self.run.output.join("\n"),
        }
    }
}
