"""Reference job: a fixed piece of pure-Python work, run in a fresh process.

run.py times it between the benchmarked commands.  The host's speed drifts
while a run lasts (other tenants of a shared machine), and a command's time
is scaled by how long this job took just before and just after it.  The job
mixes what the `hecke` commands spend their time on: small tuples as dict
keys, modular integer arithmetic and sorting.
"""

table = {}
for i in range(60_000):
    key = (i % 31, i * 7 % 97)
    table[key] = (table.get(key, 0) * 3 + i) % 1009
rows = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
checksum = sum(a * b + v for (a, b), v in rows) % 65521
assert 0 <= checksum < 65521
