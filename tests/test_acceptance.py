"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every check is exact unless the criterion itself states a tolerance
(the Monte Carlo one uses 4 binomial standard errors).
"""

import random
import time
from fractions import Fraction
from math import gcd

from latticechains.cli import main
from latticechains.enumeration import enumerate_D, enumerate_polygons
from latticechains.explorer import (
    Signature,
    is_unit_multiset,
    match_signature,
    search_unit_multisets,
    triangle_signature,
    triangle_signatures,
)
from latticechains.geometry import TriangleSpec, chain_steps, pair_cross_sum, pair_gcd_sum, polygon_stats
from latticechains.montecarlo import SimulationConfig, compare, simulate
from latticechains.polyalgebra import QHalfPoly, UnitPoly
from latticechains.verification import (
    rhs_main,
    unit_sum,
    unit_sum_process,
    verify_all,
)

from scan_oracles import u_count
from test_enumeration import oracle_D, shear, unshear
from test_geometry import oracle_boundary_scan, oracle_interior_scan, random_hull
from test_polyalgebra import Q_MINUS_ONE, power


def report(number: int, failures: list, detail: str):
    status = "FAIL" if failures else "PASS"
    print(f"\n[criterion {number}] {status} {detail}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def test_criterion_1_identity_sweep_to_12():
    started = time.perf_counter()
    failures = []
    pairs = 0
    for n in range(2, 13):
        for i in range(1, n):
            pairs += 1
            if verify_all(i, n).lhs != rhs_main(i, n):
                failures.append((i, n))
    elapsed = time.perf_counter() - started
    if elapsed >= 60:
        failures.append(f"took {elapsed:.1f}s, budget 60s")
    report(1, failures, f"{pairs} pairs, exact equality, {elapsed:.2f}s")


def test_criterion_2_hand_values_against_composition_oracle():
    failures = []
    for (i, n), doubled in [((1, 2), 1), ((2, 5), 3), ((3, 7), 7)]:
        expected = QHalfPoly.monomial(doubled)
        if verify_all(i, n).lhs != expected:
            failures.append((i, n, "package value"))
        # independent recomputation: brute-force compositions, Fraction slopes
        oracle_value = sum(
            (
                power(Q_MINUS_ONE, len(steps) - 1)
                * QHalfPoly.monomial(
                    2 * (1 - len(steps))
                    + pair_cross_sum(steps)
                    + sum(gcd(a, b) for a, b in steps)
                )
                for steps in oracle_D(i, n)
            ),
            start=QHalfPoly(),
        )
        if oracle_value != expected:
            failures.append((i, n, "oracle value"))
    report(2, failures, "(1,2)->q^(1/2), (2,5)->q^(3/2), (3,7)->q^(7/2)")


def test_criterion_3_unit_sums_collapse_for_all_specs_to_8():
    started = time.perf_counter()
    failures = []
    one = UnitPoly.one()
    for i in range(1, 9):
        for j in range(1, 9):
            spec = TriangleSpec(i, j)
            if unit_sum(spec) != one:
                failures.append((i, j, "statement form"))
            if unit_sum_process(spec) != one:
                failures.append((i, j, "process form"))
    elapsed = time.perf_counter() - started
    if elapsed >= 120:
        failures.append(f"took {elapsed:.1f}s, budget 120s")
    report(3, failures, f"64 triangles, both sums equal 1, {elapsed:.2f}s")


def test_criterion_4_bijection_and_doubled_exponent_identity():
    failures = []
    elements = 0
    for n in range(2, 11):
        for i in range(1, n):
            spec = TriangleSpec(i, n - i)
            g = gcd(i, n - i)
            d_list = list(enumerate_D(i, n))
            polygons = list(enumerate_polygons(spec))
            c_list = [chain_steps(p.vertices)[0] for p in polygons]
            if [shear(d) for d in d_list] != c_list:
                failures.append((i, n, "forward map"))
            if [unshear(c) for c in c_list] != d_list:
                failures.append((i, n, "inverse map"))
            for d, c, p in zip(d_list, c_list, polygons):
                elements += 1
                if unshear(shear(d)) != d:
                    failures.append((i, n, d, "roundtrip"))
                if pair_cross_sum(c) != pair_cross_sum(d):
                    failures.append((i, n, d, "cross sum"))
                if pair_gcd_sum(c) != pair_gcd_sum(d):
                    failures.append((i, n, d, "gcd sum"))
                s = p.stats
                lhs = 2 * (1 - len(d)) + pair_cross_sum(d) + pair_gcd_sum(d)
                rhs = 2 * (-(len(d) - 1) + s.interior + s.boundary) - 2 - g
                if lhs != rhs:
                    failures.append((i, n, d, "exponent"))
    report(4, failures, f"{elements} elements over 1<=i<n<=10, all exact")


def test_criterion_5_pick_formula_with_scan_oracles():
    failures = []
    checked = 0
    for i in range(1, 9):
        for j in range(1, 9):
            for p in enumerate_polygons(TriangleSpec(i, j)):
                if p.stats.k == 1:
                    continue
                checked += 1
                s = p.stats
                verts = list(p.vertices)
                interior = oracle_interior_scan(verts)
                boundary = oracle_boundary_scan(verts)
                if s.interior != interior:
                    failures.append((i, j, p.vertices, "interior"))
                if s.boundary != boundary:
                    failures.append((i, j, p.vertices, "boundary"))
                if s.area2 != 2 * interior + boundary - 2:
                    failures.append((i, j, p.vertices, "pick"))
    rng = random.Random(52901)
    randomized = 0
    while randomized < 200:
        poly, _, spec = random_hull(rng)
        if len(poly) == 2:
            continue
        randomized += 1
        s = polygon_stats(poly, spec)
        if s.area2 != 2 * oracle_interior_scan(list(poly)) + s.boundary - 2:
            failures.append((poly, "pick/random"))
    report(5, failures, f"{checked} enumerated + {randomized} random chains")


def test_criterion_6_u_accounting():
    failures = []
    checked = 0
    for i in range(1, 9):
        for j in range(1, 9):
            spec = TriangleSpec(i, j)
            for p in enumerate_polygons(spec):
                checked += 1
                if p.stats.u != u_count(p.vertices, spec):
                    failures.append((i, j, p.vertices, "u"))
    report(6, failures, f"{checked} polygons, u equals the scan count")


def test_criterion_7_monte_carlo_cross_check():
    started = time.perf_counter()
    failures = []
    runs = [
        (TriangleSpec(2, 3), Fraction(1, 2), 2026_08),
        (TriangleSpec(3, 4), Fraction(1, 3), 2026_19),
    ]
    for spec, x, seed in runs:
        config = SimulationConfig(spec, x, 10 ** 6, seed)
        result = compare(simulate(config), config)
        if result.exact_total != 1:
            failures.append((spec, "normalization"))
        for row in result.rows:
            if abs(row.z) > 4.0:
                failures.append((spec, row.vertices, f"z={row.z:.2f}"))
    elapsed = time.perf_counter() - started
    if elapsed >= 30:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    report(7, failures, f"2 configs x 10^6 trials, all |z| <= 4, {elapsed:.2f}s")


def test_criterion_8_explorer():
    failures = []
    sig34 = triangle_signature(3, 4)
    if sig34 != Signature(((3, 0), (2, 1), (1, 1), (0, 1))):
        failures.append("signature(3,4)")
    if not is_unit_multiset(sig34):
        failures.append("is_unit_multiset(signature(3,4))")
    found = search_unit_multisets(1, 1, 2)
    if found != [Signature(((1, 0), (0, 1)))]:
        failures.append(f"search(1,1,2) -> {found}")
    if (2, 3) not in match_signature(Signature(((1, 0), (0, 1))), triangle_signatures(4, 4)):
        failures.append("match does not recover (2,3)")
    report(8, failures, "signature, search, and match all agree")


def test_criterion_9_determinism(tmp_path, capsys):
    failures = []

    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    commands = [
        ("verify", "--i", "3", "--n", "7"),
        ("verify", "--all-up-to", "6"),
        ("enumerate", "--i", "4", "--j", "5", "--format", "json"),
        ("enumerate", "--i", "4", "--j", "5", "--format", "csv"),
        ("simulate", "--i", "3", "--j", "4", "--x", "1/3",
         "--trials", "2000", "--seed", "9"),
        ("explore", "--max-a", "2", "--max-b", "2", "--max-size", "3",
         "--max-m", "5", "--max-n", "5"),
    ]
    for argv in commands:
        if run(*argv) != run(*argv):
            failures.append(argv[0])

    serial = run("simulate", "--i", "3", "--j", "4", "--x", "1/2",
                 "--trials", "1000", "--seed", "4", "--jobs", "1")
    parallel = run("simulate", "--i", "3", "--j", "4", "--x", "1/2",
                   "--trials", "1000", "--seed", "4", "--jobs", "4")
    if serial != parallel:
        failures.append("simulate parallel vs serial")

    for run_dir in ["r1", "r2"]:
        code = main(["render", "--i", "3", "--j", "4",
                     "--out-dir", str(tmp_path / run_dir)])
        capsys.readouterr()
        if code != 0:
            failures.append(f"render {run_dir}")
    for index in range(4):
        a = (tmp_path / "r1" / f"poly_{index}.svg").read_bytes()
        b = (tmp_path / "r2" / f"poly_{index}.svg").read_bytes()
        if a != b:
            failures.append(f"render poly_{index}")

    report(9, failures, "repeated and parallel invocations byte-identical")
