"""Set-up probe: import hecke, then build each field named on the command line.

Usage: python3 perfbench/probe.py [p:k ...]

Prints one JSON object: the import time and the build time of each field,
in seconds, measured inside this fresh process.
"""

import json
import sys
import time

start = time.perf_counter()
import hecke.cli  # noqa: E402  (the import is what is timed)
from hecke.gf import Field  # noqa: E402

import_s = time.perf_counter() - start
builds = []
for spec in sys.argv[1:]:
    p, k = map(int, spec.split(":"))
    start = time.perf_counter()
    Field(p, k)
    builds.append(time.perf_counter() - start)
print(json.dumps({"import_s": import_s, "build_s": builds}))
