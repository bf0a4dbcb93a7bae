"""Run one `hecke` command as `python3 -m hecke.cli` would, and record its
peak resident memory.

Usage: python3 perfbench/launch.py <hecke arguments...>

At exit the peak (VmHWM of /proc/self/status, in kB) is written to the file
named by PERFBENCH_RSS_OUT.  The max RSS that os.wait4 reports cannot be
used: Linux carries the spawning process's resident size over into the
child's, and the runner's own size, which grows while it checks large
outputs, would hide the command's.
"""

import atexit
import os
import runpy


def report_peak() -> None:
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(os.environ["PERFBENCH_RSS_OUT"], "w") as out:
        out.write(peak)


atexit.register(report_peak)
runpy.run_module("hecke.cli", run_name="__main__", alter_sys=True)
