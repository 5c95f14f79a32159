"""Bernoulli point-selection process cross-checking the unit sums.

Each trial flips an exact coin of bias x for every interior point of the
triangle, takes the convex chain hull of the chosen points, and tallies
the resulting polygon. The law of the hull is
    prob(P) = (1-x)^u(P) * x^(v(P)-2)
and the empirical table is compared row by row against those exact
rationals via binomial z-scores.

Randomness contract (stream 2): with x = num/den and n interior points,
let M = den^n. Trial t under seed s reads nblocks = ceil((bits(M) + 64) /
256) blocks sha256(s, t, b), each packed as three big-endian 64-bit
words, and concatenates their digests into one integer r, first block
most significant. r is accepted if r < limit, the largest multiple of M
below 2^(256 nblocks); otherwise the trial reads the next nblocks blocks
(this happens with probability below 2^-64). Then r mod M is uniform on
range(M), and point p (in triangle_interior_points order) is chosen iff
base-den digit p of r mod M is < num: n independent exact coins of bias
num/den, with no floats anywhere. A trial's outcome depends only on
(seed, trial index), so splitting the trial range across processes
changes nothing; merged tallies are identical to the serial run.

The coin loop reads this stream unchanged, BATCH trials per list pass:
one list of draws, each redrawn in place on rejection so the hash
requests stay in trial order, then one decoding pass per chunk of digits
and one Counter.update per batch.

Hulls are tallied by their vertex chain. A chosen point directly above
another chosen point lies strictly above the hull's lower boundary, so
it is never a lower-hull vertex: only the column minima matter. Each
distinct mask is cut down to them (column x is a contiguous bit range
of the mask, y increasing, so its minimum is the range's lowest set
bit, and one subtraction finds every column's at once), and the counts
are summed per set of minima. Each set, already in lexicographic order
between (0,0) and (i,j), goes straight to geometry.lower_hull with no
sort and no checks, and the counts are summed per vertex tuple. Only
then is each distinct chain checked, once, by geometry.check_chain: the
table's keys are vertex tuples, as enumerate_polygons lists them. At (5,7),
x = 1/3, 20,000 trials and seed 7, 3,289 masks give 180 sets of column
minima and 23 hulls.
"""

from __future__ import annotations

import os
import struct
from collections import Counter
from fractions import Fraction
from hashlib import sha256
from itertools import groupby
from math import inf, sqrt
from operator import itemgetter
from typing import NamedTuple

from .enumeration import enumerate_polygons
from .geometry import FrozenSlots, PolygonStats, TriangleSpec, check_chain, lower_hull, triangle_interior_points


class SimulationConfig(FrozenSlots):
    __slots__ = _fields = ("spec", "x", "trials", "seed")

    def __init__(self, spec: TriangleSpec, x: Fraction, trials: int, seed: int):
        x = Fraction(x)
        if not 0 < x < 1:
            raise ValueError(f"x must lie strictly between 0 and 1, got {x}")
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        for name, value in zip(self._fields, (spec, x, trials, seed)):
            object.__setattr__(self, name, value)


class FrequencyTable(NamedTuple):
    counts: dict  # a hull's vertex tuple -> nonnegative int

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def exact_prob(s: PolygonStats, x) -> Fraction:
    """The law of the hull at x for a polygon with these stats."""
    x = Fraction(x)
    if not 0 < x < 1:
        raise ValueError(f"x must lie strictly between 0 and 1, got {x}")
    return (1 - x) ** s.u * x ** (s.v_count - 2)


STREAM = 2  # version of the randomness contract above, printed with the results

# Coins are decoded a chunk of digits at a time through a table of at most
# this many entries; the stream itself does not depend on the chunk width.
TABLE_SIZE = 4096

BATCH = 4096  # trials per list pass; it bounds the lists' memory, not the stream


class _Coin:
    """A digit's fragment with no table, for den**2 > TABLE_SIZE: coin[d] is d < num."""

    def __init__(self, num: int):
        self.num = num

    def __getitem__(self, digit: int) -> int:
        return 1 if digit < self.num else 0  # an int, so a one-point mask is one too


def mask_decoder(num: int, den: int, npoints: int):
    """The map from a list of r in range(den**npoints) to the list of their
    chosen-point bitmasks: bit p is set iff base-den digit p of r (least
    significant first) is < num. The digits are read `width` at a time, the
    most with den**width <= TABLE_SIZE, one list pass per chunk, through a
    table mapping each chunk value to its mask fragment; with one digit per
    chunk the fragment is the coin and no table is built."""
    width = 1
    while den ** (width + 1) <= TABLE_SIZE:
        width += 1
    if width == 1:
        table = _Coin(num)  # den may be far larger than TABLE_SIZE
    else:
        table = [0]
        for digit in range(width):
            table = [frag | (d < num) << digit for d in range(den) for frag in table]
    chunk = den ** width
    full = (1 << npoints) - 1
    # the last chunk's zero digits past npoints decode as chosen: drop them
    trim = npoints % width or npoints == 0

    def decode(residues: list) -> list:
        masks = [table[r % chunk] for r in residues]
        for shift in range(width, npoints, width):
            residues = [r // chunk for r in residues]
            masks = [m | table[r % chunk] << shift for m, r in zip(masks, residues)]
        return [m & full for m in masks] if trim else masks

    return decode


def _count_masks(seed: int, start: int, stop: int, num: int, den: int, npoints: int) -> Counter:
    """Tally chosen-point bitmasks for trials start..stop-1 (stream 2), a
    batch of BATCH trials per list pass."""
    modulus = den ** npoints
    nblocks = -(-(modulus.bit_length() + 64) // 256)
    span = 1 << (256 * nblocks)
    limit = span - span % modulus
    decode = mask_decoder(num, den, npoints)
    pack = struct.Struct(">QQQ").pack
    from_bytes = int.from_bytes
    sha = sha256

    def draw(trial: int, block: int) -> int:
        """The trial's first draw below limit from block on."""
        while (r := from_bytes(b"".join([sha(pack(seed, trial, b)).digest()
                                         for b in range(block, block + nblocks)]), "big")) >= limit:
            block += nblocks
        return r

    single = nblocks == 1  # the common case, up to ~120 points at den 3: no join
    tallies = Counter()
    for first in range(start, stop, BATCH):
        # a rejected draw is redrawn in place, so hash requests stay in trial order
        residues = [(r if r < limit else draw(t, nblocks)) % modulus
                    for t in range(first, min(first + BATCH, stop))
                    for r in [from_bytes(sha(pack(seed, t, 0)).digest(), "big") if single
                              else draw(t, 0)]]
        tallies.update(decode(residues))
    return tallies


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has
    one, which a CPU limit can make smaller than the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _hull_counts(tallies, spec: TriangleSpec) -> dict:
    """The vertex tuple -> count table of a mask -> count tally: each mask
    is cut down to its column minima, the counts are summed per set of
    minima, one lower hull is built per set and summed by vertex chain,
    then each distinct chain is checked once, by check_chain."""
    # column x is a contiguous bit range, y increasing from its first bit
    columns = []  # (x, first bit, ones over the column's height)
    starts = tops = first = 0  # each column's first bit, and its top bit
    for x, points in groupby(triangle_interior_points(spec), key=itemgetter(0)):
        height = len(list(points))
        columns.append((x, first, (1 << height) - 1))
        starts |= 1 << first
        tops |= 1 << (first + height - 1)
        first += height
    # In each column, (mask | tops) - starts clears the lowest set bit, sets
    # the bits below it and keeps those above, so mask & ~ of it is the
    # column's lowest set bit of mask, or nothing. The forced top bit keeps
    # every column at least its start: no borrow crosses into the next.
    minima: dict[int, int] = {}
    for mask, c in tallies.items():
        key = mask & ~((mask | tops) - starts)
        minima[key] = minima.get(key, 0) + c
    origin, corner = (0, 0), (spec.i, spec.j)
    chains: dict[tuple, int] = {}
    for key, c in minima.items():
        lowest = [(x, seg.bit_length()) for x, first, ones in columns if (seg := key >> first & ones)]
        chain = lower_hull([origin, *lowest, corner])
        chains[chain] = chains.get(chain, 0) + c
    for chain in chains:
        check_chain(chain, spec)
    return chains


def simulate(config: SimulationConfig, jobs: int = 1) -> FrequencyTable:
    """Run config.trials rounds; deterministic for fixed (seed, trials)."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    npoints = config.spec.interior_count
    num, den = config.x.numerator, config.x.denominator

    # never more worker processes than usable CPUs (the pool starts all of
    # its workers at the first submit), no pool for one worker, and one
    # chunk of trials per worker
    workers = min(jobs, _usable_cpus())
    if workers == 1 or config.trials < 2 * workers:
        tallies = _count_masks(config.seed, 0, config.trials, num, den, npoints)
    else:
        from concurrent.futures import ProcessPoolExecutor  # only this branch pays for it

        per = -(-config.trials // workers)
        bounds = [(t, min(t + per, config.trials)) for t in range(0, config.trials, per)]
        tallies = Counter()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_count_masks, config.seed, a, b, num, den, npoints)
                for a, b in bounds
            ]
            for fut in futures:
                tallies.update(fut.result())
    return FrequencyTable(_hull_counts(tallies, config.spec))


class ComparisonRow(NamedTuple):
    vertices: tuple
    count: int
    empirical: float
    exact: Fraction
    z: float
    flagged: bool


class ComparisonReport(NamedTuple):
    config: SimulationConfig
    rows: tuple
    exact_total: Fraction
    z_threshold: float

    @property
    def flagged_rows(self) -> tuple:
        return tuple(r for r in self.rows if r.flagged)

    @property
    def ok(self) -> bool:
        return self.exact_total == 1 and not self.flagged_rows


def compare(table: FrequencyTable, config: SimulationConfig,
            z_threshold: float = 4.0) -> ComparisonReport:
    """One row per family member (zero counts included), enumeration order."""
    family = list(enumerate_polygons(config.spec))
    known = {vertices for vertices, _ in family}
    for vertices in table.counts:
        if vertices not in known:
            raise ValueError(f"table contains a polygon outside the family: {vertices}")
    if table.total != config.trials:
        raise ValueError(f"table holds {table.total} trials, config says {config.trials}")

    rows = []
    exact_total = Fraction(0)
    for vertices, stats in family:
        p = exact_prob(stats, config.x)
        exact_total += p
        count = table.counts.get(vertices, 0)
        emp = count / config.trials
        sigma = sqrt(float(p * (1 - p)) / config.trials)
        if sigma == 0.0:
            z = 0.0 if emp == float(p) else inf
        else:
            z = (emp - float(p)) / sigma
        rows.append(ComparisonRow(vertices, count, emp, p, z, abs(z) > z_threshold))
    return ComparisonReport(config, tuple(rows), exact_total, z_threshold)
