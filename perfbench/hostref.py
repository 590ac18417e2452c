"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of a CPU drifts by a quarter or more within
seconds to minutes, as other tenants come and go, and that drift swamps
the run-to-run spread of any end-to-end time.  :class:`HostProbe` therefore
runs this kernel twice a second *during* a pass's timed region, on a timer
signal in the pass's own process, and times it.  ``workloads.py`` takes
the probe's time out of ``wall_s`` and reports the pass's wall time
rescaled to a nominal host speed, ``wall_norm_s``.

The kernel imports nothing from ``repro``, so a change to the program
cannot speed it up or slow it down.  It mixes what the program spends its
time on: a small stack interpreter in pure Python (list and dict traffic,
integer arithmetic, branches) and numpy operations on lane-sized arrays.
It must never change: its timing is the unit ``wall_norm_s`` is measured
in, and a changed kernel makes old and new figures incomparable.

    python3 perfbench/hostref.py     # prints a few reference timings
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: A typical mean time of one :func:`kernel` call as the probe measures it
#: inside a pass, on the host the baseline was recorded on (a shared 2-core
#: Xeon VM).  ``wall_norm_s`` is a pass's ``wall_s`` times
#: ``NOMINAL_KERNEL_S`` over the mean kernel time measured during the
#: pass: the pass time on a host running at that reference speed.
NOMINAL_KERNEL_S = 0.03

#: A counted loop for the interpreter, as (opcode, operand) pairs.  The
#: variables are slots: 0 is the counter, 1 the accumulator.
_PROGRAM = (
    ("push", 0), ("store", 0), ("push", 1), ("store", 1),
    # loop head (pc 4)
    ("load", 0), ("push", 400), ("lt", None), ("jz", 24),
    ("load", 1), ("load", 0), ("mul", None), ("push", 8191), ("mod", None),
    ("load", 0), ("push", 3), ("and", None), ("jz", 19),
    ("push", 7), ("add", None),
    # pc 19
    ("store", 1),
    ("load", 0), ("push", 1), ("add", None), ("store", 0),
    # pc 24 jumps back unless done
    ("load", 0), ("push", 400), ("lt", None), ("jnz", 4), ("load", 1), ("halt", None),
)

#: The operand stack and the variable slots, made once and written in
#: place.  The kernel allocates no containers: a probe that grew or built
#: lists or dicts inside the program's process was seen to shift the
#: program's ``peak_rss_mb``.
_STACK = [0] * 8
_SLOTS = [0] * 2


def _interpret(program: tuple, reps: int) -> int:
    total = 0
    stack, slots = _STACK, _SLOTS
    for _ in range(reps):
        sp = 0
        pc = 0
        while True:
            op, arg = program[pc]
            pc += 1
            if op == "push":
                stack[sp] = arg
                sp += 1
            elif op == "load":
                stack[sp] = slots[arg]
                sp += 1
            elif op == "store":
                sp -= 1
                slots[arg] = stack[sp]
            elif op == "halt":
                total += stack[sp - 1]
                break
            elif op == "jz":
                sp -= 1
                if not stack[sp]:
                    pc = arg
            elif op == "jnz":
                sp -= 1
                if stack[sp]:
                    pc = arg
            else:
                sp -= 1
                b = stack[sp]
                a = stack[sp - 1]
                if op == "add":
                    stack[sp - 1] = a + b
                elif op == "mul":
                    stack[sp - 1] = a * b
                elif op == "mod":
                    stack[sp - 1] = a % b
                elif op == "and":
                    stack[sp - 1] = a & b
                else:  # lt
                    stack[sp - 1] = int(a < b)
    return total


class _Lanes:
    """Lockstep lane updates on 128-wide int64 arrays, allocation-free.

    Every buffer is allocated once, and each call starts from the same
    state, so a call neither grows nor reshapes the program's heap: the
    probe must not move ``peak_rss_mb``.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.pc0 = rng.integers(0, 64, size=128)
        self.regs0 = rng.integers(0, 1 << 20, size=(8, 128))
        self.table = rng.integers(0, 64, size=64)
        self.pc = np.empty_like(self.pc0)
        self.regs = np.empty_like(self.regs0)
        self.active = np.empty(128, dtype=bool)
        self.tmp = np.empty_like(self.pc0)
        self.tmp2 = np.empty_like(self.pc0)

    def __call__(self, steps: int) -> int:
        pc, regs, active, tmp, tmp2 = self.pc, self.regs, self.active, self.tmp, self.tmp2
        np.copyto(pc, self.pc0)
        np.copyto(regs, self.regs0)
        for step in range(steps):
            np.bitwise_and(pc, 3, out=tmp)
            np.not_equal(tmp, step & 3, out=active)
            operand = regs[step & 7]
            target = regs[(step + 1) & 7]
            np.multiply(operand, 3, out=tmp)
            np.add(tmp, pc, out=tmp)
            np.right_shift(operand, 1, out=tmp2)
            np.copyto(target, tmp2)
            np.copyto(target, tmp, where=active)
            np.add(pc, operand, out=tmp)
            np.bitwise_and(tmp, 63, out=tmp)
            np.take(self.table, tmp, out=pc)
        return int(regs[0, 0] & 0xFFFF)


_lanes = _Lanes()


def kernel() -> int:
    """One unit of reference work, about 0.025 s on the nominal host."""
    return _interpret(_PROGRAM, 7) + _lanes(1400)


class HostProbe:
    """Times one :func:`kernel` call every ``period`` seconds of a region.

    The mean of those times, rather than their median, is the host's speed
    over the region: a pass's wall time adds up its fast and slow
    stretches, and so does the mean.

    The calls run from a ``SIGALRM`` handler, so they interrupt the
    program between Python bytecodes, in the main thread.  The timer is
    one-shot and re-armed after each call, so calls never nest.  Threads
    started while :func:`block_in_new_threads` is active never receive the
    signal.  ``spent_s`` is the total time of the calls, handler included,
    which the caller takes out of the region's wall time.
    """

    def __init__(self, period: float = 0.5):
        self.period = period
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame) -> None:
        entered = time.perf_counter()
        kernel()
        done = time.perf_counter()
        self.samples.append(done - entered)
        signal.setitimer(signal.ITIMER_REAL, self.period)
        self.spent_s += time.perf_counter() - entered

    def start(self) -> "HostProbe":
        kernel()  # warm the kernel's code and numpy paths
        signal.signal(signal.SIGALRM, self._tick)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        signal.setitimer(signal.ITIMER_REAL, self.period)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_s(self) -> float:
        """Mean kernel time over the region (one extra call if it had none)."""
        if not self.samples:
            started = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - started)
        return statistics.fmean(self.samples)


def block_in_new_threads() -> None:
    """Block ``SIGALRM`` in this thread, and so in every thread it starts.

    Call before starting helper threads; :meth:`HostProbe.start` unblocks
    it again in the calling (main) thread only.
    """
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})


if __name__ == "__main__":
    kernel()
    for _ in range(5):
        samples = []
        end = time.perf_counter() + 1.0
        while time.perf_counter() < end:
            started = time.perf_counter()
            kernel()
            samples.append(time.perf_counter() - started)
        print(f"kernel mean over 1 s: {statistics.fmean(samples):.5f} s")
