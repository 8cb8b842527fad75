"""Measure the cost of each unit of work that cryslift.budget counts.

Run from the root of a checkout:

    python3 scripts/unit_costs.py

Each line runs one command at two sizes, each three times in a fresh
interpreter (the least time and the median memory of the three), and
prints the difference in wall time and in peak RSS divided by the
difference in units: the marginal seconds and bytes per unit, with each
command's start-up and fixed cost taken out.  The time
is that of ``cryslift.cli.main`` alone, with its output written to
/dev/null.  budget.COSTS holds, per unit, about the largest of its lines,
less what a line also measures: a sweep instance's weights (7 at d = 7),
and the d = 1 instance of each report row and cell.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

CHILD = r"""
import json, os, resource, sys, time
sys.path.insert(0, sys.argv[1])
import numpy  # the oracle imports it on its first call: no part of its cost
from cryslift.cli import main
argv = json.load(open(sys.argv[2]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
stdout, sys.stdout = sys.stdout, open(os.devnull, "w")
started = time.perf_counter()
code = main(argv)
seconds = time.perf_counter() - started
sys.stdout = stdout
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps([code, seconds, (after - before) * 1024]))
"""


def run(argv: list[str]) -> tuple[float, int]:
    """(least seconds, median peak RSS growth in bytes) of three runs: the
    largest let one noisy run set a unit's memory."""
    with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
        json.dump(argv, fh)  # past 128 KB an argument cannot go on a command line
        fh.flush()
        runs = []
        for _ in range(3):
            out = subprocess.run([sys.executable, "-c", CHILD, SRC, fh.name],
                                 capture_output=True, text=True, check=True)
            code, seconds, grown = json.loads(out.stdout)
            if code != 0:
                raise SystemExit(f"exit {code}: cryslift {' '.join(argv)[:200]}")
            runs.append((seconds, grown))
    return min(s for s, _ in runs), sorted(g for _, g in runs)[1]


def zeros(n: int) -> str:
    return ",".join(["0"] * n)


def lift(p, f, e, d, t):
    return ["lift", "--p", str(p), "--f", str(f), "--e", str(e), "--d", str(d),
            "--t", str(t), "--theta-bar", "0", "--a", zeros(e * f)]


def matrix(command, n, k):
    argv = [command, "--a", ",".join(["1"] * n), "--b", ",".join(["0"] * (k - 1) + [str(n)])]
    return argv + ["--m", "3"] if command == "regular" else argv


def sweep(p_values, bits, e_max, thetas, record, *more):
    return ["sweep", "--p-values", p_values, "--max-field-bits", str(bits), "--f-max", "1",
            "--e-max", str(e_max), "--d-max", "1", "--thetas-per-cell", str(thetas),
            "--record", record, *more]


def primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n, i)))
    return [i for i in range(n) if sieve[i]]


def instances(lo: int, hi: int) -> int:
    return sum(p - 1 for p in primes_below(hi + 1) if p >= lo)


# (unit, what varies, argv at size x, units at size x, the two sizes)
MEASUREMENTS = [
    ("lift weights", "p=2 f=1 e=1000, d", lambda d: lift(2, 1, 1000, d, 1),
     lambda d: 1000 * d, (128, 512)),
    ("lift weights", "p=3 f=1 d=3, e", lambda e: lift(3, 1, e, 3, 2),
     lambda e: 3 * e, (14000, 56000)),
    ("lift weights", "p=3 f=1 d=1, e", lambda e: lift(3, 1, e, 1, 2),
     lambda e: e, (50000, 200000)),
    ("lift weights", "p=2 f=256 e=64, d", lambda d: lift(2, 256, 64, d, 2 ** 256 - 1),
     lambda d: 256 * 64 * d, (4, 16)),
    ("matrix entries", "transport n x 1, n", lambda n: matrix("transport", n, 1),
     lambda n: n, (50000, 200000)),
    ("matrix entries", "transport n x n, n", lambda n: matrix("transport", n, n),
     lambda n: n * n, (300, 700)),
    ("matrix entries", "regular n x 2, n", lambda n: matrix("regular", n, 2),
     lambda n: 2 * n, (50000, 200000)),
    ("matrix entries", "regular n x n, n", lambda n: matrix("regular", n, n),
     lambda n: n * n, (300, 700)),
    ("oracle group elements", "q=2, d", lambda d: ["induction", "--q", "2", "--d", str(d),
                                                  "--b", "1"], lambda d: 2 ** d - 1, (20, 22)),
    ("oracle group elements", "q=3, d", lambda d: ["induction", "--q", "3", "--d", str(d),
                                                  "--b", "1"], lambda d: 3 ** d - 1, (11, 13)),
    ("oracle group elements", "d=2, q", lambda q: ["induction", "--q", str(q), "--d", "2",
                                                  "--b", "1"], lambda q: q * q - 1, (1000, 2000)),
    ("sweep instances", "p=4099 e=1 d=1, thetas", lambda n: sweep("4099", 13, 1, n, "failures"),
     lambda n: n, (1, 4096)),
    ("sweep instances", "p=3 f=1 e=1 d=7, thetas",
     lambda n: ["sweep", "--p-values", "3", "--max-field-bits", "12", "--f-max", "1",
                "--e-max", "1", "--d-max", "7", "--thetas-per-cell", str(n),
                "--record", "failures"], lambda n: n, (4, 1024)),
    ("sweep instances", "p=2 f=1 e=1 d=1..10, thetas",
     lambda n: ["sweep", "--p-values", "2", "--max-field-bits", "10", "--f-max", "1",
                "--e-max", "1", "--d-max", "10", "--thetas-per-cell", str(n),
                "--record", "failures"],
     lambda n: sum(min(2 ** d - 1, n) for d in range(1, 11)), (4, 1023)),
    ("sweep instances", "p=2^31-1 e=1 d=1, thetas (sampled)",
     lambda n: sweep(str(2 ** 31 - 1), 31, 1, n, "failures"), lambda n: n, (10000, 200000)),
    ("report rows", "record all, p in 4000-hi, every theta", lambda hi: sweep(
        f"4000-{hi}", 13, 1, "all", "all"), lambda hi: instances(4000, hi), (4100, 4400)),
    ("cells", "p in 2-hi, one d=1 instance each, both t", lambda hi: sweep(
        f"2-{hi}", 17, 1, 1, "failures", "--t-with-p"),
     lambda hi: 2 * len(primes_below(hi + 1)), (20000, 65536)),
]


def main() -> None:
    print(f"Python {sys.version.split()[0]}")
    for unit, varies, argv, units, (small, large) in MEASUREMENTS:
        (s0, b0), (s1, b1) = run(argv(small)), run(argv(large))
        n = units(large) - units(small)
        print(f"{unit:22} {varies:40} {(s1 - s0) / n * 1e9:9.0f} ns {(b1 - b0) / n:7.0f} B",
              flush=True)
    # primality: each integer of a --p-values range, in process (no cells run)
    sys.path.insert(0, SRC)
    from cryslift.cli import _p_values

    for lo in (2, 2 ** 64 - 2 ** 16):
        text = f"{lo}-{lo + 2 ** 16 - 1}"
        started = time.perf_counter()
        _p_values(text, 64)
        per = (time.perf_counter() - started) / 2 ** 16
        print(f"{'integers tested for primality':22} {'from ' + str(lo):40} {per * 1e9:9.0f} ns")


if __name__ == "__main__":
    main()
