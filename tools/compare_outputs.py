"""Run one fixed list of opuckit commands from two source trees and diff what they do.

    python3 tools/compare_outputs.py OLD_ROOT NEW_ROOT

Each command runs as `python -m opuckit.cli ARGV` with PYTHONPATH set to
ROOT/src, in a fresh temporary directory, so its relative --out paths land
there.  Both trees run a command in a directory of the same path, made
anew for each and holding the input files of INPUTS (the `--values`,
`--measure-json` and `--config` files), so a path a command prints is the
same on both sides.
The exit code, stdout, stderr and every file in the directory afterwards
are compared byte for byte.  Each difference is printed; the exit code is 1
if there is any and 0 if there is none.  A change meant to leave every
output alone (a refactor, a speed-up) must report none.  For a differing
.csv file whose header and row count match, the largest relative change of
each changed numeric column is printed below it.  The 58 commands
take about 31 s for both trees together on a 2-core Intel Xeon under
CPython 3.11.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SWEEP_FAMILIES = (
    ("--family", "power", "--c", "0.9", "--gamma", "0.1"),
    ("--family", "power", "--c", "0.9", "--gamma", "0.5"),
    ("--family", "rotated", "--c", "0.7", "--gamma", "0.3", "--beta", "1.0"),
    ("--family", "random", "--seed", "3", "--cap", "0.5"),
    ("--family", "random", "--seed", "4", "--cap", "0.5"),
)

PROBE_N = ("--n-list", "250,500,1000,2000")

# values.json: 120 entries of modulus 0.6 / (n+1)^0.2 turning by 1.3 radians
# a step, as [re, im] pairs, which the explicit family reads into a tuple.
# The two measure files are read by --measure-json: 64 samples of the
# positive weight 1 + cos(t)/2 + sin(2t)/4, and the first 40 of those
# entries as a Bernstein-Szego prefix.  config.json holds a flat key and a
# key scoped to sumrule.
VALUES = [
    [0.6 * math.cos(1.3 * n) / (n + 1) ** 0.2, 0.6 * math.sin(1.3 * n) / (n + 1) ** 0.2]
    for n in range(120)
]
INPUTS = {
    "values.json": json.dumps(VALUES),
    "sampled.json": json.dumps(
        {
            "kind": "sampled",
            "weights": [
                1 + math.cos(2 * math.pi * j / 64) / 2 + math.sin(4 * math.pi * j / 64) / 4
                for j in range(64)
            ],
        }
    ),
    "bernstein_szego.json": json.dumps({"kind": "bernstein_szego", "alphas": VALUES[:40]}),
    "config.json": json.dumps({"seed": 6, "sumrule": {"m": "1,2", "n-list": "100,400"}}),
}
EXPLICIT = ("--family", "explicit", "--values", "values.json")
CONSTANT = ("--family", "constant", "--c", "0.4", "--c-imag", "0.2")

COMMANDS = (
    # the sweep at each order on a 8192 grid, and the large sweep
    *(
        ["sumrule", "report", *family, "--m", m, "--n-list", "1000,1500,2000", "--grid", "8192",
         "--out", "report.csv"]
        for family in SWEEP_FAMILIES
        for m in ("1", "2", "3")
    ),
    *(
        ["sumrule", "report", *family, "--m", "1,2,3", "--n-list", "1000,10000,100000,200000",
         "--out", "large.csv"]
        for family in SWEEP_FAMILIES
    ),
    # absorption probes, the last --k one refused
    ["absorb", "probe", "--family", "power", "--c", "0.8", "--gamma", "0.3", "--m", "2", "--k", "2",
     *PROBE_N, "--out", "absorb.csv"],
    ["absorb", "probe", "--family", "rotated", "--c", "0.7", "--gamma", "0.5", "--beta", "1.3",
     "--m", "3", "--k", "3", *PROBE_N, "--out", "absorb.csv"],
    ["absorb", "probe", "--family", "power", "--c", "0.6", "--gamma", "0.4", "--m", "3", "--k", "2",
     *PROBE_N],
    ["absorb", "probe", "--family", "power", "--c", "0.5", "--m", "3", "--k", "0"],
    # several difference orders in one monomial, and a window read from a tuple
    *(
        ["absorb", "probe", "--family", "random", "--seed", "5", "--cap", "0.9", "--m", "4",
         "--k", k, *PROBE_N, "--out", "absorb.csv"]
        for k in ("2", "4")
    ),
    ["absorb", "probe", *EXPLICIT, "--m", "3", "--k", "2", "--n-list", "10,50,100",
     "--out", "absorb.csv"],
    *(
        ["absorb", "probe", "--family", "power", "--c", "0.8", "--gamma", "0.3", "--m", "3",
         "--r", r, *PROBE_N, "--out", "ratio.csv"]
        for r in ("1", "2")
    ),
    # measures, the grid-8 weight refused
    *(
        ["measure", "weight", "--family", "rotated", "--c", "0.3", "--gamma", "0.5", "--beta", "0.7",
         "--n", "9", "--grid", grid, "--out", "weight.json"]
        for grid in ("4096", "8")
    ),
    ["measure", "moments", "--family", "power", "--c", "0.9", "--gamma", "0.3", "--n", "2000",
     "--grid", "4096", "--kmax", "12"],
    ["measure", "moments", "--family", "random", "--seed", "5", "--cap", "0.3", "--n", "9",
     "--kmax", "8"],
    ["measure", "functional", "--family", "power", "--c", "0.5", "--gamma", "0.6", "--n", "200",
     "--m", "2"],
    # a 101-entry prefix, past the kernel's renormalisation stride
    ["measure", "weight", "--family", "power", "--c", "0.8", "--gamma", "0.2", "--n", "100",
     "--grid", "512", "--out", "weight.json"],
    # measures read from a file, sampled and Bernstein-Szego
    *(
        ["measure", action, "--measure-json", name, "--m", "2", "--grid", "256", "--kmax", "6"]
        for name in ("sampled.json", "bernstein_szego.json")
        for action in ("functional", "weight", "moments")
    ),
    # every family kind generated, the last to a file
    *(
        ["generate", *family, "--n", "40"]
        for family in (SWEEP_FAMILIES[0], SWEEP_FAMILIES[2], SWEEP_FAMILIES[3], CONSTANT)
    ),
    ["generate", *EXPLICIT, "--n", "119", "--out", "values_out.json"],
    # the sweep on the two families no sweep above reads, with their sidecars
    ["sumrule", "report", *CONSTANT, "--m", "1,2", "--n-list", "10,100,1000", "--out",
     "report.csv"],
    ["sumrule", "report", *EXPLICIT, "--m", "1,2,3", "--n-list", "10,60,119", "--out",
     "report.csv"],
    # defaults from a config file: the flat seed and the scoped orders and N list
    ["--config", "config.json", "sumrule", "report", "--family", "random", "--out", "report.csv"],
    # exact Gram arithmetic
    ["gram", "certify", "--m-max", "12"],
    ["gram", "identity", "--m-max", "8"],
    *(["gram", "export", "--m", m, "--out", "gram.json"] for m in ("6", "9", "12")),
    ["verify", "--suite", "all"],
    # argparse output
    ["--help"],
    ["sumrule", "--help"],
    ["sumrule", "report", "--family", "nonsense"],
)


def run(root: Path, argv: list, cwd: Path) -> tuple:
    """(exit code, stdout, stderr, {relative path: bytes}) of one command run in cwd."""
    for name, text in INPUTS.items():
        (cwd / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "opuckit.cli", *argv], cwd=cwd, env=env, capture_output=True
    )
    files = {
        str(path.relative_to(cwd)): path.read_bytes()
        for path in sorted(cwd.rglob("*"))
        if path.is_file()
    }
    return done.returncode, done.stdout, done.stderr, files


def differences(old: tuple, new: tuple) -> list[str]:
    """Names of the parts of two run results that differ."""
    diffs = [name for name, a, b in zip(("exit code", "stdout", "stderr"), old, new) if a != b]
    old_files, new_files = old[3], new[3]
    for path in sorted(old_files.keys() | new_files.keys()):
        if old_files.get(path) != new_files.get(path):
            diffs.append(f"file {path}")
    return diffs


def csv_changes(old: bytes, new: bytes) -> dict | None:
    """{column: largest |new - old| / max(|old|, |new|)} over the changed numeric cells.

    Lines starting with # are skipped; the first other line is the header.
    None if the headers or the row counts differ.
    """
    tables = [
        [line.split(",") for line in text.decode().splitlines() if not line.startswith("#")]
        for text in (old, new)
    ]
    if not all(tables) or tables[0][0] != tables[1][0] or len(tables[0]) != len(tables[1]):
        return None
    changes = {}
    for old_row, new_row in zip(tables[0][1:], tables[1][1:]):
        for name, a, b in zip(tables[0][0], old_row, new_row):
            try:
                a, b = float(a), float(b)
            except ValueError:
                continue
            if a != b and not (math.isnan(a) and math.isnan(b)):
                change = abs(b - a) / max(abs(a), abs(b))
                changes[name] = max(changes.get(name, 0.0), change)
    return changes


def main(args: list) -> int:
    if len(args) != 2:
        print("usage: python3 tools/compare_outputs.py OLD_ROOT NEW_ROOT", file=sys.stderr)
        return 2
    old_root, new_root = (Path(a).resolve() for a in args)
    for root in (old_root, new_root):
        if not (root / "src" / "opuckit" / "cli.py").is_file():
            print(f"{root} holds no src/opuckit/cli.py", file=sys.stderr)
            return 2
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "run"
        for argv in COMMANDS:
            results = []
            for root in (old_root, new_root):
                work.mkdir()
                results.append(run(root, argv, work))
                shutil.rmtree(work)
            diffs = differences(*results)
            line = " ".join(argv)
            if diffs:
                differing += 1
                print(f"DIFFERS  {line}: {', '.join(diffs)}")
                old_files, new_files = results[0][3], results[1][3]
                for path in sorted(old_files.keys() & new_files.keys()):
                    if path.endswith(".csv") and old_files[path] != new_files[path]:
                        changes = csv_changes(old_files[path], new_files[path])
                        moved = "header or rows differ" if changes is None else ", ".join(
                            f"{name} {change:.2g}" for name, change in changes.items()
                        )
                        print(f"         {path}: largest relative change {moved or 'none'}")
            else:
                print(f"same     {line} (exit {results[0][0]}, {len(results[0][3])} files)")
    print(f"{len(COMMANDS)} commands, {differing} with a difference")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
