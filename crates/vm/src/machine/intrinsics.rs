//! The libc-like intrinsics, including the attack surface
//! (`read_input`, unchecked `strcpy`, `system`).

use levee_ir::prelude::*;

use crate::probe::TouchKind;
use crate::trap::Trap;

use super::{Machine, V};

impl<'m> Machine<'m> {
    pub(crate) fn exec_intrinsic(
        &mut self,
        which: Intrinsic,
        args: Vec<V>,
        dest: Option<ValueId>,
    ) -> Result<(), Trap> {
        let ret = match which {
            Intrinsic::Malloc => {
                let size = args[0].raw;
                let a = self.heap.malloc(size).map_err(|_| Trap::OutOfMemory)?;
                self.mem.map_zero(a.addr, size.max(8).next_power_of_two());
                Some(self.v_data(a.addr, a.addr, a.addr + size, a.id))
            }
            Intrinsic::Calloc => {
                let size = args[0].raw * args[1].raw;
                let a = self.heap.malloc(size).map_err(|_| Trap::OutOfMemory)?;
                self.mem.map_zero(a.addr, size.max(8).next_power_of_two());
                self.bulk_fill(a.addr, 0, size)?;
                Some(self.v_data(a.addr, a.addr, a.addr + size, a.id))
            }
            Intrinsic::Free => {
                let addr = args[0].raw;
                // An invalid free is a heap-corruption bug: crash.
                self.heap.free(addr).map_err(|_| Trap::Unmapped { addr })?;
                None
            }
            Intrinsic::Memcpy | Intrinsic::Memmove => {
                let (d, s, n) = (args[0].raw, args[1].raw, args[2].raw);
                self.bulk_copy(d, s, n)?;
                Some(args[0])
            }
            Intrinsic::Memset => {
                let (d, b, n) = (args[0].raw, args[1].raw as u8, args[2].raw);
                self.bulk_fill(d, b, n)?;
                Some(args[0])
            }
            Intrinsic::Memcmp => {
                let (a, b, n) = (args[0].raw, args[1].raw, args[2].raw);
                let mut r = 0i64;
                for i in 0..n {
                    let x = self.read_byte(a + i)?;
                    let y = self.read_byte(b + i)?;
                    if x != y {
                        r = x as i64 - y as i64;
                        break;
                    }
                }
                self.run.stats.cycles += n / 4;
                Some(V::int(r as u64))
            }
            Intrinsic::Strcpy => {
                let (d, s) = (args[0].raw, args[1].raw);
                let bytes = self.read_cstr(s)?;
                self.write_bytes(d, &bytes)?;
                self.write_byte(d + bytes.len() as u64, 0)?;
                Some(args[0])
            }
            Intrinsic::Strncpy => {
                let (d, s, n) = (args[0].raw, args[1].raw, args[2].raw);
                let mut bytes = self.read_cstr(s)?;
                bytes.truncate(n as usize);
                self.write_bytes(d, &bytes)?;
                for i in bytes.len() as u64..n {
                    self.write_byte(d + i, 0)?;
                }
                Some(args[0])
            }
            Intrinsic::Strcat => {
                let (d, s) = (args[0].raw, args[1].raw);
                let dlen = self.read_cstr(d)?.len() as u64;
                let bytes = self.read_cstr(s)?;
                self.write_bytes(d + dlen, &bytes)?;
                self.write_byte(d + dlen + bytes.len() as u64, 0)?;
                Some(args[0])
            }
            Intrinsic::Strncat => {
                let (d, s, n) = (args[0].raw, args[1].raw, args[2].raw);
                let dlen = self.read_cstr(d)?.len() as u64;
                let mut bytes = self.read_cstr(s)?;
                bytes.truncate(n as usize);
                self.write_bytes(d + dlen, &bytes)?;
                self.write_byte(d + dlen + bytes.len() as u64, 0)?;
                Some(args[0])
            }
            Intrinsic::Strlen => {
                let s = self.read_cstr(args[0].raw)?;
                self.run.stats.cycles += s.len() as u64 / 4;
                Some(V::int(s.len() as u64))
            }
            Intrinsic::Strcmp => {
                let a = self.read_cstr(args[0].raw)?;
                let b = self.read_cstr(args[1].raw)?;
                let r = match a.cmp(&b) {
                    std::cmp::Ordering::Less => -1i64,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                };
                Some(V::int(r as u64))
            }
            Intrinsic::PrintInt => {
                let v = args[0].raw as i64;
                self.run.output.push(v.to_string());
                None
            }
            Intrinsic::PrintStr => {
                let s = self.read_cstr(args[0].raw)?;
                self.run
                    .output
                    .push(String::from_utf8_lossy(&s).into_owned());
                None
            }
            Intrinsic::ReadInput => {
                // read_input(buf, maxlen): maxlen < 0 means "unbounded"
                // (gets-style) — THE classic vulnerability.
                let buf = args[0].raw;
                let maxlen = args[1].raw as i64;
                let remaining = self.run.input.len() - self.run.input_pos;
                let n = if maxlen < 0 {
                    remaining
                } else {
                    remaining.min(maxlen as usize)
                };
                let bytes: Vec<u8> =
                    self.run.input[self.run.input_pos..self.run.input_pos + n].to_vec();
                self.run.input_pos += n;
                self.write_bytes(buf, &bytes)?;
                Some(V::int(n as u64))
            }
            Intrinsic::InputLen => Some(V::int((self.run.input.len() - self.run.input_pos) as u64)),
            Intrinsic::Setjmp => {
                self.do_setjmp(args[0], dest)?;
                return Ok(()); // dest already written
            }
            Intrinsic::Longjmp => {
                self.do_longjmp(args[0], args[1])?;
                return Ok(());
            }
            Intrinsic::System => {
                // A legitimate, direct call to system() is benign in our
                // model (returns 0). Reaching system() *indirectly* is
                // handled as a transfer to its pseudo-entry and never
                // gets here.
                Some(V::int(0))
            }
            Intrinsic::Rand => Some(V::int(self.next_rand())),
            Intrinsic::Exit => {
                return Err(Trap::ProgramExit(args[0].raw as i64));
            }
            Intrinsic::AbortProg => return Err(Trap::ProgramAbort),
        };
        if let (Some(d), Some(v)) = (dest, ret) {
            self.set_reg(d, v);
        }
        self.recycle_vec(args);
        Ok(())
    }

    // ---- byte helpers shared by the string functions ----------------------

    pub(crate) fn read_byte(&mut self, addr: u64) -> Result<u8, Trap> {
        self.isolation_check(addr, MemSpace::Regular)?;
        self.charge_mem(addr, true, TouchKind::Read, 1);
        self.run.stats.mem_ops += 1;
        self.mem.read_u8(addr).map_err(Self::mem_trap)
    }

    pub(crate) fn write_byte(&mut self, addr: u64, b: u8) -> Result<(), Trap> {
        self.isolation_check(addr, MemSpace::Regular)?;
        self.charge_mem(addr, true, TouchKind::Write, 1);
        self.run.stats.mem_ops += 1;
        self.mem.write_u8(addr, b).map_err(Self::mem_trap)
    }

    pub(crate) fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), Trap> {
        for (i, b) in bytes.iter().enumerate() {
            self.write_byte(addr + i as u64, *b)?;
        }
        Ok(())
    }

    pub(crate) fn read_cstr(&mut self, addr: u64) -> Result<Vec<u8>, Trap> {
        let mut out = Vec::new();
        for i in 0..1 << 20 {
            let b = self.read_byte(addr + i)?;
            if b == 0 {
                return Ok(out);
            }
            out.push(b);
        }
        Err(Trap::Unmapped { addr })
    }
}
