"""A standing list of source mutants, each one exact edit that named tests
must kill: a measure of what the suite can see, re-checked after every
refactor instead of claimed once in prose.

A mutant is (name, file, old, new, tests): replace the one occurrence of
old in src/<file> with new, then run the tests (files or node ids, relative
to the repository root) with pytest -x. A failing test, or a test module
that fails to import, kills the mutant. Passing tests let it survive,
which means a missing test or an equivalent mutant. An old string that
does not occur exactly once is an error, so a refactor that moves the code
fails loudly instead of skipping the mutant.

Each mutant runs on a copy of src/ in a temporary directory, put first on
PYTHONPATH; the child checks that latticechains is imported from that copy
before it runs a test, and not from the checkout or an installed package.

    python tests/mutants.py             # every mutant
    python tests/mutants.py NAME ...    # only these

One line per mutant; exit 0 if every one is killed, 1 if one survives, 2 on
an error (an unknown name, an edit that does not apply, a child that fails
otherwise). Standard library only; pytest must be importable.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

WALK_TESTS = ("tests/test_enumeration.py", "tests/test_verification.py")
CLI = "latticechains/cli.py"
ENUMERATION = "latticechains/enumeration.py"
GEOMETRY = "latticechains/geometry.py"
MONTECARLO = "latticechains/montecarlo.py"
MONTECARLO_TESTS = ("tests/test_montecarlo.py",)
POLYALGEBRA = "latticechains/polyalgebra.py"
VERIFICATION = "latticechains/verification.py"
PACKED_TESTS = ("tests/test_verification.py", "tests/test_polyalgebra.py")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple


MUTANTS = (
    # the targeted walk: its two seeds and its two slope bounds
    Mutant("walk-seed-D", ENUMERATION,
           "_walk((), 1, 1, i, n)", "_walk((), 1, 0, i, n)", WALK_TESTS),
    Mutant("walk-seed-C", ENUMERATION,
           "_walk((), 1, 0, i, j)", "_walk((), 1, 1, i, j)", WALK_TESTS),
    Mutant("walk-low-bound-equal", ENUMERATION,
           "range(x * py // px + 1, (x * rem_y", "range(x * py // px, (x * rem_y", WALK_TESTS),
    Mutant("walk-high-bound-equal", ENUMERATION,
           "(x * rem_y - 1) // rem_x + 1)", "x * rem_y // rem_x + 1)", WALK_TESTS),
    # the region walk: its two seeds and its body
    Mutant("region-seed-D", ENUMERATION,
           "_region([max_b] * (max_b - 1), 1, 1)", "_region([max_b] * (max_b - 1), 1, 0)",
           WALK_TESTS),
    Mutant("region-seed-C", ENUMERATION,
           "_region(caps, 1, 0)", "_region(caps, 1, 1)", WALK_TESTS),
    Mutant("region-prune-minus-1", ENUMERATION,
           "if y // x < room - y:", "if y // x < room - y - 1:", WALK_TESTS),
    Mutant("region-prune-this-column", ENUMERATION,
           "room = top[X + x + 1] - Y", "room = top[X + x] - Y", WALK_TESTS),
    Mutant("region-low-bound-equal", ENUMERATION,
           "low = x * py // px + 1", "low = x * py // px", WALK_TESTS),
    Mutant("region-low-bound-plus-2", ENUMERATION,
           "low = x * py // px + 1", "low = x * py // px + 2", WALK_TESTS),
    Mutant("region-gcd-one", ENUMERATION,
           "+ gcd(x, y), k)", "+ 1, k)", WALK_TESTS),
    Mutant("region-cross-sign", ENUMERATION,
           "key + X * y - x * Y", "key - X * y + x * Y", WALK_TESTS),
    Mutant("region-cap-minus-1", ENUMERATION,
           "high = top[X + x] - Y", "high = top[X + x] - Y - 1", WALK_TESTS),
    Mutant("region-k-fixed", ENUMERATION,
           "k += 1", "k += 0", WALK_TESTS),
    Mutant("region-x-range-minus-1", ENUMERATION,
           "for x in range(1, len(caps) + 1 - X):", "for x in range(1, len(caps) - X):",
           WALK_TESTS),
    # the one pass over a chain: its slope rule, the fault it names, and
    # the CSV loader's check of its cells all at once
    Mutant("check-steps-slope-less", GEOMETRY,
           "if px * y <= x * py", "if px * y < x * py", ("tests/test_enumeration.py",)),
    Mutant("check-steps-last-slope-fault", GEOMETRY,
           "if px * y <= x * py and fault is None:", "if px * y <= x * py:",
           ("tests/test_cli_properties.py",)),
    Mutant("csv-cells-no-canonical-compare", CLI,
           "canonical = list(map(str, values)) == cells", "canonical = True",
           ("tests/test_cli.py",)),
    # the coin loop: stream 2's coin rule, in a table and with none, and the
    # last chunk's place in the mask
    Mutant("coin-table-less-equal", MONTECARLO,
           "(d < num) << digit", "(d <= num) << digit", MONTECARLO_TESTS),
    Mutant("coin-no-table-less-equal", MONTECARLO,
           "self.bit if digit < self.num", "self.bit if digit <= self.num", MONTECARLO_TESTS),
    Mutant("decoder-last-chunk-shift", MONTECARLO,
           "fragments(last, npoints - last)", "fragments(last + 1, npoints - last)",
           MONTECARLO_TESTS),
    Mutant("hull-no-column-minima", MONTECARLO,
           "key = mask & ~((mask | tops) - starts)", "key = mask", MONTECARLO_TESTS),
    # the verdict's threshold: only a real |z| between 4 and 4.5 sees it
    Mutant("verdict-threshold-plus-half", MONTECARLO,
           "abs(z) > Z_THRESHOLD", "abs(z) > Z_THRESHOLD + 0.5", ("tests/test_cli.py",)),
    # the packed checks: their refusals, the Laurent shift, a unit sum's
    # exponent and the rule that lets one verdict reuse another
    Mutant("packs-to-parity", VERIFICATION,
           "if (top - key) & 1:", "if False:", PACKED_TESTS),
    Mutant("key-signature-parity", VERIFICATION,
           "if odd:", "if False:", ("tests/test_verification.py", "tests/test_explorer.py")),
    Mutant("packed-negative-power", POLYALGEBRA,
           "elif b < 0:", "elif False:", PACKED_TESTS),
    Mutant("packed-laurent-shift", POLYALGEBRA,
           "if a < low:", "if False:", PACKED_TESTS),
    Mutant("fold-negative-power", POLYALGEBRA,
           "if power < 0:", "if False:", PACKED_TESTS),
    Mutant("unit-sum-k", VERIFICATION,
           "(h, k - 1, mult)", "(h, k, mult)", PACKED_TESTS),
    Mutant("same-keys-counter-equality", VERIFICATION,
           "same_keys = d_keys.items() == c_keys.items()", "same_keys = d_keys == c_keys",
           PACKED_TESTS),
)

# runs in the child: refuse to test anything but the mutated copy
CHILD = """\
import sys
from pathlib import Path
import latticechains
if Path(latticechains.__file__).resolve().parent.parent != Path(sys.argv[1]).resolve():
    print(f"latticechains imported from {latticechains.__file__}, not the copy", file=sys.stderr)
    sys.exit(100)
import pytest
sys.exit(pytest.main(sys.argv[2:]))
"""


def apply(mutant: Mutant, source: str) -> str:
    """The source with the mutant's edit made; ValueError unless old occurs
    exactly once."""
    count = source.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {count} times in {mutant.file}")
    return source.replace(mutant.old, mutant.new)


def run(mutant: Mutant) -> str:
    """'killed' or 'survived': the mutant's tests on a mutated copy of src/.
    RuntimeError if the child ends any other way than pass or fail, and
    subprocess.TimeoutExpired after ten minutes."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = src / mutant.file
        target.write_text(apply(mutant, target.read_text()))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH")))))
        child = subprocess.run(
            [sys.executable, "-c", CHILD, str(src), "-x", "-q", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    if child.returncode == 0:
        return "survived"
    # 1: a test failed; 2 with a collection error: a test module failed to import
    if child.returncode == 1 or child.returncode == 2 and "during collection" in child.stdout:
        return "killed"
    raise RuntimeError(f"{mutant.name}: the child exited {child.returncode}\n"
                       f"{child.stdout[-2000:]}{child.stderr[-2000:]}")


def main(argv: list) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    survived = 0
    for mutant in [by_name[name] for name in argv] or MUTANTS:
        start = time.perf_counter()
        try:
            outcome = run(mutant)
        except (ValueError, RuntimeError, subprocess.TimeoutExpired) as err:
            print(f"error     {mutant.name}: {err}", file=sys.stderr)
            return 2
        survived += outcome == "survived"
        print(f"{outcome:<9} {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
