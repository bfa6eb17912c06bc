"""Runs the commands it reads on stdin, one at a time, and reports each
one's exit status, wall time and peak RSS, and the time of a reference
loop run just before it.

It is a separate, small process because a child's ru_maxrss starts at the
resident size of the process that spawned it: spawned straight from the
benchmark, every command would report at least the benchmark's own size.
Start it with `python -S` in the directory and environment the commands
need.  One JSON line each way per command: the request is
[argv, stdout path, stderr path]; the replies are {"pid": n} once the
command started, then {"status": s, "wall_s": t, "ref_s": r,
"maxrss_kb": k}, where r is the reference's wall time.

Before each command it times a reference: a fresh interpreter that runs
fixed pure-Python work not touching datex (filling and probing a dict of
int keys with mask arithmetic, the kind of work the entropy memo does).
The shared host's speed drifts by up to 1.8x over minutes; the reference
drifts with it, so a command's wall time over the reference's is steadier
than either.  Measured on a 2-CPU shared host: over 200 s of pipeline
passes on one seed, pass wall time spread 12% (quartiles over median)
and wall over the reference 3%; over five solve-linear runs on seeds 1-5,
pass wall time spread 35% (range over median) and the ratio 6%.  The
reference is a fresh process each time because a loop kept in one
process keeps that process's memory layout, and its speed relative to
the commands then differed from process to process by up to 15%.
"""

import json
import os
import sys
from time import perf_counter

# The reference: a fresh interpreter that fills a dict of 2^15 int keys
# and looks every key up again with mask arithmetic.
REFERENCE = """
import random
rng = random.Random(0)
table = {rng.getrandbits(48): i for i in range(1 << 15)}
acc = 0
for key in table:
    acc ^= table[key] | (key & 0xFFFF)
    acc = (acc << 1 | acc >> 15) & 0xFFFF
"""


def reference():
    t0 = perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-S", "-c", REFERENCE],
                         os.environ)
    _, status = os.waitpid(pid, 0)
    if status:
        raise RuntimeError(f"reference loop exited with status {status}")
    return perf_counter() - t0


def main():
    for line in sys.stdin:
        argv, out_path, err_path = json.loads(line)
        ref = reference()
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
        t0 = perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        print(json.dumps({"pid": pid}), flush=True)
        _, status, usage = os.wait4(pid, 0)
        wall = perf_counter() - t0
        print(json.dumps({"status": os.waitstatus_to_exitcode(status),
                          "wall_s": wall, "ref_s": ref,
                          "maxrss_kb": usage.ru_maxrss}),
              flush=True)


if __name__ == "__main__":
    main()
