"""Run one command under a time limit; report its time, peak RSS and CPU speed.

    python -S perfbench/launch.py REPORT_FD TIMEOUT_S COMMAND...

Writes "seconds exit_code maxrss_kib timed_out speed" to REPORT_FD, the
seconds running from the fork to the exit of the command.  The command is
forked from this small process rather than from the benchmark driver,
because Linux carries the forking process's peak RSS into a child's: forked
from here, the child's own peak is the one reported.  A command past its
limit is killed and reaped here.

``speed`` is how fast the CPU ran while the command did.  This process and
the command are pinned to one CPU, and every PROBE_EVERY_S this process
times a fixed piece of interpreter work, PROBE, by its own CPU time, which
excludes the slices the command runs in.  ``speed`` is the mean over the
probes of REF_PROBE_S divided by the probe's time: 1 when the CPU runs the
probe in REF_PROBE_S, less when another tenant of a shared host slows the
core.  The command's seconds times ``speed`` is its time at the reference
speed.  The probes take about one percent of the CPU from the command.
"""

import os
import select
import signal
import sys
import time

PROBE_EVERY_S = 0.05
# CPU time of one PROBE under Python 3.11 on a 2-vCPU Xeon guest, in the
# faster of the two speeds its cores alternate between on a shared host.
REF_PROBE_S = 0.00034


def probe() -> float:
    start = time.thread_time()
    table = {}
    for i in range(3000):
        table[i & 63] = (i, i * 3)
    return time.thread_time() - start


def main() -> int:
    report, timeout, cmd = int(sys.argv[1]), float(sys.argv[2]), sys.argv[3:]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = time.monotonic()
    pid = os.fork()
    if pid == 0:
        try:
            os.execv(cmd[0], cmd)
        finally:
            os._exit(127)
    exited = select.poll()
    pidfd = os.pidfd_open(pid)
    exited.register(pidfd, select.POLLIN)
    speeds = []
    expired = False
    while True:
        speeds.append(REF_PROBE_S / max(probe(), 1e-9))
        left = start + timeout - time.monotonic()
        if left <= 0:
            expired = True
            os.kill(pid, signal.SIGKILL)
            break
        if exited.poll(min(PROBE_EVERY_S, left) * 1000):
            break
    _, status, usage = os.wait4(pid, 0)
    end = time.monotonic()
    os.close(pidfd)
    speed = sum(speeds) / len(speeds)
    os.write(report, (f"{end - start!r} {os.waitstatus_to_exitcode(status)} "
                      f"{usage.ru_maxrss} {int(expired)} {speed!r}").encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
