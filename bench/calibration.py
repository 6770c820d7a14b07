"""A fixed piece of work whose time tracks the speed of this machine.

The benchmark runs it right before every job execution and divides the
job's time by it, which cancels the machine's drift between fast and slow
states (see README.md).  It is the benchmark's own code and never calls the
program, so a change to the program cannot move it.  The mix resembles the
engine's: tuple stacks copied on push and pop, dict lookups on small tuple
keys, and short strings.
"""

from time import perf_counter

# Scale of calibrated times: the loop's time on this benchmark's reference
# machine state, so calibrated values read as seconds there.
REFERENCE_S = 0.003


def calibration_loop() -> int:
    seen = {}
    stack = ()
    for i in range(1500):
        stack = stack + (i & 3,) if (i * 7919) % 11 < 6 else stack[:-1]
        key = (i & 15, len(stack), stack[-4:])
        if key not in seen:
            seen[key] = stack
    words = {format(i, "b") for i in range(400)}
    return len(seen) + len(words)


def calibration_seconds() -> float:
    start = perf_counter()
    calibration_loop()
    return perf_counter() - start
