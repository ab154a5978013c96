"""Write bench/pins.json: values the correctness gate compares against.

The pins were taken at the commit that introduced the benchmark and are
the reference for outputs with no independent route (cycle edge ideals,
corner sequences, verify case names).  Re-run only to pin new inputs, and
only on a commit whose answers have been checked by other means:

    python3 bench/make_pins.py
"""
from __future__ import annotations

import json
import sys

import run
import workloads as wl
from reference import render


def main() -> int:
    mods = run.load_program()
    oracle, recursion, verify = mods["oracle"], mods["recursion"], mods["verify"]
    pinned = {render(tree) for size in wl.SIZES
              for tree, spec, _ in wl.ORACLE_LADDER[size] if spec[0] == "pinned"}
    pinned |= {render(wl.BIG_PRIME_OP[size]) for size in wl.SIZES}
    pinned.add(render(wl.DEFECT_OP[0]))
    tables = {}
    for name in sorted(pinned):
        ideal = mods["cli"].build_ideal(name)
        by_prime = [oracle.graded_betti(ideal, p).sorted_entries()
                    for p in (2, 32003, wl.BIG_PRIME)]
        if any(entries != by_prime[0] for entries in by_prime):
            raise SystemExit(f"{name}: tables differ across characteristics")
        tables[name] = by_prime[0]
    corner = {}
    for size in wl.SIZES:
        for n, s, t in wl.corner_keys(size):
            corner[f"{n},{s},{t}"] = wl.strip(
                recursion.corner_rec(n, s, t, i) for i in range(n + 1))
            recursion.clear_caches()
    names = {"all": [r.case for r in verify.run_suite("all")]}
    for suite in wl.TINY_SUITES:
        names[suite] = [r.case for r in verify.run_suite(suite)]
    with open(wl.PINS_PATH, "w") as handle:
        json.dump({"oracle": tables, "corner": corner, "verify": names}, handle,
                  separators=(",", ":"))
        handle.write("\n")
    print(f"pinned {len(tables)} tables, {len(corner)} corner sequences, "
          f"{len(names['all'])} verify cases", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
