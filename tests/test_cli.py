"""End-to-end command tests: exit codes, schemas, determinism."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import latticechains
import latticechains.cli as cli
from latticechains import geometry
from latticechains.cli import (
    CSV_COLUMNS,
    FIELDS,
    PolygonRecord,
    main,
    records_from_csv,
    records_from_json,
    records_to_csv,
    records_to_json,
)
from latticechains.enumeration import enumerate_polygons, region_D
from latticechains.geometry import PolygonStats, TriangleSpec
from latticechains.polyalgebra import QHalfPoly

from check_oracles import edited
from scan_oracles import interior_count, segment_lattice_count, u_count


CSV_HEADER_LINE = ",".join(CSV_COLUMNS) + "\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_single_pair(capsys):
    code, out, _ = run(capsys, "verify", "--i", "2", "--n", "5")
    assert code == 0
    assert "q^(3/2)" in out
    assert "PASS" in out
    assert "pairs pass" not in out


def test_verify_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--all-up-to", "8")
    assert code == 0
    assert "28/28 pairs pass" in out


def test_a_sweep_of_one_pair_ends_on_its_summary(capsys):
    assert run(capsys, "verify", "--all-up-to", "2") == (
        0, "i=1 n=2: lhs = q^(1/2), rhs = q^(1/2)  PASS\n1/1 pairs pass\n", "")
    assert run(capsys, "verify", "--i", "1", "--n", "2") == (
        0, "i=1 n=2: lhs = q^(1/2), rhs = q^(1/2)  PASS\n", "")


def test_a_sweep_out_of_memory_exits_two(capsys, monkeypatch):
    # the sweep holds every pair's histograms before its first line, so a
    # sweep too large for memory is refused with nothing printed
    def exhausted(max_n):
        raise MemoryError

    monkeypatch.setattr(cli, "verify_up_to", exhausted)
    assert run(capsys, "verify", "--all-up-to", "100000") == (
        2, "", "sweep ran out of memory; lower --all-up-to\n")


VERIFY_FAILURE_REPORT = """\
i=2 n=5: lhs = q^(3/2), rhs = q^(5/2)  FAIL
  first failed check: d_form
  d_form: FAIL
  polygon_form: pass
  unit_sum: pass
  unit_sum_process: pass
  form_consistency: pass
  term ledger (k, key, multiplicity, doubled exponent):
    k=1 key=1 mult=1 exp2=1
    k=2 key=3 mult=1 exp2=1
"""


def test_verify_failure_report_is_pinned(capsys, monkeypatch):
    import latticechains.verification as verification

    monkeypatch.setattr(
        verification, "rhs_main", lambda i, n: QHalfPoly.monomial(i * (n - i) - n + 4)
    )
    code, out, _ = run(capsys, "verify", "--i", "2", "--n", "5")
    assert code == 1
    assert out == VERIFY_FAILURE_REPORT


def test_a_wrong_polygon_target_fails_polygon_form_alone(capsys, monkeypatch):
    # polygon_form's target is no longer d_form's, so it is packed on its
    # own and fails, while unit_sum, on the same histogram, still passes
    import latticechains.verification as verification

    monkeypatch.setattr(verification, "rhs_main_via_polygons",
                        lambda spec: QHalfPoly.monomial(spec.i * spec.j - spec.n + spec.g + 6))
    code, out, _ = run(capsys, "verify", "--i", "2", "--n", "5")
    assert code == 1
    assert out.startswith("i=2 n=5: lhs = q^(3/2), rhs = q^(3/2)  FAIL\n"
                          "  first failed check: polygon_form\n")
    assert re.findall(r"  (\w+): FAIL\n", out) == ["polygon_form"]


WRONG_D_WALK_REPORT = """\
i=2 n=5: lhs = q^(3/2), rhs = q^(3/2)  FAIL
  first failed check: form_consistency
  d_form: pass
  polygon_form: pass
  unit_sum: pass
  unit_sum_process: pass
  form_consistency: FAIL
  term ledger (k, key, multiplicity, doubled exponent):
    k=1 key=1 mult=1 exp2=1
    k=2 key=1 mult=1 exp2=-1
    k=3 key=3 mult=1 exp2=-1
"""


def test_a_failing_sweep_prints_each_pair_as_verify_does(capsys, monkeypatch):
    import latticechains.verification as verification

    monkeypatch.setattr(
        verification, "rhs_main", lambda i, n: QHalfPoly.monomial(i * (n - i) - n + 4)
    )
    blocks = []
    for n in range(2, 6):
        for i in range(1, n):
            code, out, _ = run(capsys, "verify", "--i", str(i), "--n", str(n))
            assert code == 1
            blocks.append(out)
    assert "  first failed check: d_form\n" in blocks[0]
    code, out, _ = run(capsys, "verify", "--all-up-to", "5")
    assert code == 1
    assert out == "".join(blocks) + "0/10 pairs pass\n"


def test_a_wrong_d_walk_is_reported_in_full(capsys, monkeypatch):
    # the three chains of test_form_consistency_catches_a_wrong_d_walk, two
    # of them invalid: the ledger lists their keys as the checks read them,
    # k = 3 among them, more steps than i = 2 allows
    import latticechains.verification as verification

    wrong = (((2, 5),), ((1, 1), (1, 1), (1, 1)), ((1, 3), (1, 2)))
    monkeypatch.setattr(verification, "chains_D", lambda i, n: iter(wrong))
    code, out, _ = run(capsys, "verify", "--i", "2", "--n", "5")
    assert code == 1
    assert out == WRONG_D_WALK_REPORT


EMPTY_CHAIN_REPORT = """\
i=2 n=5: lhs = not a polynomial (a term has k < 1), rhs = q^(3/2)  FAIL
  first failed check: d_form
  d_form: FAIL
  polygon_form: pass
  unit_sum: pass
  unit_sum_process: pass
  form_consistency: FAIL
  term ledger (k, key, multiplicity, doubled exponent):
    k=0 key=0 mult=1 exp2=2
    k=1 key=1 mult=1 exp2=1
    k=2 key=3 mult=1 exp2=1
"""


def test_a_term_with_no_steps_is_reported_as_no_polynomial(capsys, monkeypatch):
    # the empty chain has k = 0: (q - 1)^-1 is no polynomial, so the report
    # says so in place of an lhs
    import latticechains.verification as verification

    real = verification.chains_D
    monkeypatch.setattr(verification, "chains_D", lambda i, n: iter([*real(i, n), ()]))
    assert run(capsys, "verify", "--i", "2", "--n", "5") == (1, EMPTY_CHAIN_REPORT, "")


def test_a_sweep_with_a_term_of_no_steps_fails_each_pair_without_a_traceback(
        capsys, monkeypatch):
    import latticechains.verification as verification

    hists = {pair: {**keys, (0, 0): 1} for pair, keys in region_D(5).items()}
    monkeypatch.setattr(verification, "region_D", lambda max_b: hists)
    code, out, err = run(capsys, "verify", "--all-up-to", "5")
    assert (code, err) == (1, "")
    assert out.count(": lhs = not a polynomial (a term has k < 1), rhs = ") == 10
    assert out.count("    k=0 key=0 mult=1 exp2=2\n") == 10
    assert out.endswith("\n0/10 pairs pass\n")


LEDGER_ROW = re.compile(r"    k=(\d+) key=(-?\d+) mult=(\d+) exp2=(-?\d+)")


@pytest.mark.parametrize("kind", ["drop", "key", "mult"])
def test_a_sweep_ledger_lists_the_histogram_its_checks_read(capsys, monkeypatch, kind):
    # one edit of that kind to every pair's D histogram, so every pair fails
    # form_consistency at least; each block lists the edited histogram, not
    # the chains a second walk would find, and folds to the lhs it prints
    import latticechains.verification as verification

    hists = {(i, n): edited(keys, [(kind, i * n, (-2, -1, 1, 2)[(i + n) % 4], 5)], False)
             for (i, n), keys in region_D(6).items()}
    monkeypatch.setattr(verification, "region_D", lambda max_b: hists)
    code, out, _ = run(capsys, "verify", "--all-up-to", "6")
    assert code == 1
    assert out.endswith("\n0/15 pairs pass\n")
    blocks = re.split(r"^(?=i=)", out, flags=re.M)[1:]
    assert len(blocks) == 15
    for block in blocks:
        i, n, lhs = re.match(r"i=(\d+) n=(\d+): lhs = (.*), rhs = ", block).groups()
        rows = [tuple(map(int, row)) for row in LEDGER_ROW.findall(block)]
        assert {(key, k): mult for k, key, mult, _ in rows} == hists[int(i), int(n)]
        assert len(rows) == len(hists[int(i), int(n)])
        assert [(k, key) for k, key, _, _ in rows] == sorted((k, key) for k, key, _, _ in rows)
        # (q - 1)^(k-1) q^(exp2/2) = v^(exp2 + 2k - 2) (1 - v^-2)^(k-1)
        folded = QHalfPoly.fold_terms({(exp2 + 2 * k - 2, k - 1): mult for k, _, mult, exp2 in rows})
        assert folded.render() == lhs, block


# the directory holding the package this suite imported: src/ in a checkout,
# site-packages after an install, so the subprocesses run that same package
SRC = str(Path(latticechains.__file__).resolve().parents[1])


def cli_env(unbuffered=False):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_ends_quietly(unbuffered, fmt):
    # the reader takes one line of a 547 KB document, then closes the pipe;
    # unbuffered, one large write would come back short and the text layer
    # would drop the rest without an error
    with subprocess.Popen(
        [sys.executable, "-m", "latticechains", "enumerate", "--i", "12", "--j", "12",
         "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(unbuffered),
    ) as proc:
        proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err == b""


WRITING_COMMANDS = [
    ["verify", "--i", "2", "--n", "5"],
    ["enumerate", "--i", "9", "--j", "9"],
    ["simulate", "--i", "2", "--j", "3", "--x", "1/2", "--trials", "100"],
]


def assert_refused_in_one_line(proc):
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [*WRITING_COMMANDS, ["render", "--i", "2", "--j", "3",
                                                      "--out-dir", "figs"]],
                         ids=lambda argv: argv[0])
def test_a_full_stdout_exits_two_with_one_line(argv, tmp_path):
    # render's files can be written, so its stdout is what fails
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "latticechains", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=cli_env(),
                              cwd=tmp_path, timeout=60)
    assert_refused_in_one_line(proc)
    assert proc.stderr.startswith("cannot write output: [Errno 28]")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, stdout", [
    (["verify", "--i", "2", "--n", "5"], "/dev/full"),  # the report cannot be written
    (["verify", "--i", "2"], os.devnull),  # a usage error
], ids=["full-stdout", "usage-error"])
def test_a_full_stderr_keeps_exit_two(argv, stdout):
    # the one line for stderr cannot be written either; it must not turn
    # exit 2 into the exit 1 of a failed check
    with open(stdout, "w") as out, open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "latticechains", *argv], stdout=out,
                              stderr=full, env=cli_env(), timeout=60)
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", WRITING_COMMANDS, ids=lambda argv: argv[0])
def test_a_closed_stdout_descriptor_exits_two_with_one_line(argv):
    proc = subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', sys.executable,
                           "-m", "latticechains", *argv],
                          stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=60)
    assert_refused_in_one_line(proc)


FULL = "cannot write output: [Errno 28] No space left on device\n"

# argv, shell redirections, then the stdout and stderr that reach the test
EXIT_MATRIX = {
    "usage-error-full-stderr": (["nonsense"], ">/dev/null 2>/dev/full", "", ""),
    "bad-option-full-stderr": (["simulate", "--i", "2", "--j", "3", "--x", "3/2", "--trials", "5"],
                               "2>/dev/full", "", ""),
    "help-full-stdout": (["--help"], ">/dev/full", "", FULL),
    # --seed takes any nonnegative int; SimulationConfig refuses this one
    "seed-past-64-bits": (["simulate", "--i", "2", "--j", "3", "--x", "1/2", "--trials", "5",
                           "--seed", "18446744073709551616"], "", "",
                          "seed must fit in 64 unsigned bits\n"),
    "subcommand-help-full-stdout": (["verify", "--help"], ">/dev/full", "", FULL),
    "closed-stdout-full-stderr": (["verify", "--i", "2", "--n", "5"], ">&- 2>/dev/full", "", ""),
    # the one-command parser leaves --bogus over, so the full parser refuses it
    "leftover-argument-full-stderr": (["verify", "--i", "2", "--n", "5", "--bogus"],
                                      "2>/dev/full", "", ""),
    # render's second file is a directory, so it refuses after writing one
    "render-refusal-full-stderr": (["render", "--i", "2", "--j", "3", "--out-dir", "figs"],
                                   "2>/dev/full", "wrote figs/poly_0.svg\n", ""),
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("case", sorted(EXIT_MATRIX))
def test_every_refusal_exits_two(case, unbuffered, tmp_path):
    # no line a refusal writes, argparse's included, may turn exit 2 into
    # 120 (a failed final flush) or 1 (an uncaught write error), nor cost
    # the stdout a command wrote before it refused
    argv, redirections, stdout, stderr = EXIT_MATRIX[case]
    (tmp_path / "figs" / "poly_1.svg").mkdir(parents=True)
    proc = subprocess.run(["sh", "-c", f'exec "$0" "$@" {redirections}', sys.executable,
                           "-m", "latticechains", *argv],
                          capture_output=True, text=True, env=cli_env(unbuffered),
                          cwd=tmp_path, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, stdout, stderr)


def test_verify_usage_errors(capsys):
    assert run(capsys, "verify", "--i", "3", "--n", "3")[0] == 2
    assert run(capsys, "verify", "--i", "2")[0] == 2
    assert run(capsys, "verify")[0] == 2
    assert run(capsys, "verify", "--i", "1", "--n", "2", "--all-up-to", "5")[0] == 2
    assert run(capsys, "verify", "--all-up-to", "1")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_a_leftover_argument_gets_the_full_parsers_usage_error(capsys):
    assert run(capsys, "verify", "--i", "2", "--n", "5", "--bogus") == (
        2, "",
        "usage: latticechains [-h] {verify,enumerate,simulate,explore,render} ...\n"
        "latticechains: error: unrecognized arguments: --bogus\n")


# argvs for the one-command parser and the full one: help, usage errors,
# abbreviations, "--", leftovers, and a valid run of each command
PARSE_MATRIX = [
    [], ["--help"], ["-h"], ["-h", "verify"], ["nonsense"], ["Verify"],
    ["--bogus", "verify", "--i", "2", "--n", "5"], ["--", "verify", "--i", "2", "--n", "5"],
    ["verify", "--help"], ["verify", "-h"], ["verify", "--h"], ["verify", "--i", "2", "--n", "5"],
    ["verify", "--al", "5"], ["verify", "--all-up-to=5"], ["verify", "--i=2", "--n=5"],
    ["verify"], ["verify", "--i"], ["verify", "--i", "x"], ["verify", "--i", "0"],
    ["verify", "--i", "-5"], ["verify", "-5"], ["verify", "--i", "2", "--n", "5", "--bogus"],
    ["verify", "--i", "2", "--n", "5", "extra"], ["verify", "--", "--i", "2"],
    ["verify", "--i", "2", "--n", "5", "--"], ["verify", "enumerate"],
    ["enumerate", "--help"], ["enumerate", "--i", "3", "--j", "4"],
    ["enumerate", "--i", "3", "--j", "4", "--fo", "csv"], ["enumerate", "--i", "3"],
    ["enumerate", "--i", "3", "--j", "4", "--format", "xml"],
    ["enumerate", "--i", "3", "--j", "4", "--format"], ["enumerate", "verify", "--i", "2"],
    ["simulate", "--help"], ["simulate", "--i", "2", "--j", "3", "--x", "1/2", "--trials", "10"],
    ["simulate", "--i", "2", "--j", "3", "--x", "3/2", "--trials", "10"],
    ["simulate", "--i", "2", "--j", "3", "--x", "1/2", "--trials", "10", "--z", "nan"],
    ["simulate", "--i", "2", "--j", "3", "--x", "1/2", "--trials", "10", "--seed", "-1"],
    ["simulate", "--i", "2", "--j", "3", "--x", "1/2"],
    ["explore", "--help"], ["explore", "--max-a", "1", "--max-b", "1", "--max-size", "2"],
    ["explore", "--max-a", "1", "--max-b", "1", "--max-size", "2", "--collapse-sets"],
    ["explore", "--max-a", "1", "--max-b", "1", "--max-size", "2", "--collapse-sets=1"],
    ["explore", "--max-a", "1", "--max-b", "1", "--max-size", "2", "--max", "3"],
    ["explore", "--max-a", "1", "--max-b", "1", "--max-size", "2", "--node-cap", "0"],
    ["render", "--help"], ["render", "--i", "2", "--j", "3", "--out-dir", "figs"],
    ["render", "--i", "2", "--j", "3"], ["render", "--i", "2", "--j", "3", "--out-dir"],
    ["render", "--out-dir", "figs", "--i", "2", "--j", "3", "--bogus=1"],
]


def parse_outcome(capsys, parse, argv):
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSE_MATRIX, ids=lambda argv: " ".join(argv) or "(none)")
def test_the_one_command_parser_agrees_with_the_full_one(capsys, argv):
    one = parse_outcome(capsys, cli.parse_args, argv)
    full = parse_outcome(capsys, cli.build_parser().parse_args, argv)
    assert one == full
    if isinstance(full[0], argparse.Namespace):
        assert one[0].func is full[0].func is cli.COMMANDS[argv[0]][2]


def test_every_command_is_in_the_parse_matrix():
    assert {argv[0] for argv in PARSE_MATRIX if argv[1:] == ["--help"]} == set(cli.COMMANDS)


@pytest.mark.parametrize("argv, built", [
    (["verify", "--i", "1", "--n", "2"], 1),
    (["enumerate", "--i", "2", "--j", "2"], 1),
    (["simulate", "--i", "2", "--j", "3", "--x", "1/2", "--trials", "10"], 1),
    (["explore", "--max-a", "1", "--max-b", "1", "--max-size", "2"], 1),
    (["render", "--i", "1", "--j", "2", "--out-dir", "figs"], 1),
    (["--help"], 1 + len(cli.COMMANDS)),
], ids=lambda value: value[0] if isinstance(value, list) else str(value))
def test_a_command_builds_only_its_own_parser(capsys, monkeypatch, tmp_path, argv, built):
    constructed = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            constructed.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", CountingParser)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert len(constructed) == built, constructed


def test_enumerate_json_round_trip(capsys):
    code, out, _ = run(capsys, "enumerate", "--i", "2", "--j", "3", "--format", "json")
    assert code == 0
    records = records_from_json(out)
    assert len(records) == 2
    assert records == list(enumerate_polygons(TriangleSpec(2, 3)))
    assert json.loads(out)[0]["vertices"] == [[0, 0], [2, 3]]


def test_enumerate_csv_schema(capsys):
    code, out, _ = run(capsys, "enumerate", "--i", "3", "--j", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,vCount,iP,bP,area2,u,exponentDoubled,vertices"
    assert len(lines) == 1 + 4
    assert records_from_csv(out) == list(enumerate_polygons(TriangleSpec(3, 4)))


def scanned_stats(vertices, spec) -> PolygonStats:
    """A chain polygon's stats from its vertices by brute force: i(P) and
    u(P) by lattice scans, b(P) by the gcd of each edge, area by shoelace."""
    k = len(vertices) - 1
    edges = list(zip(vertices, vertices[1:] + vertices[:1]))
    interior = interior_count(vertices, spec)
    if k == 1:  # the 2-gon's boundary is its one segment
        boundary = segment_lattice_count(*vertices)
    else:
        boundary = sum(segment_lattice_count(a, b) - 1 for a, b in edges)
    area2 = sum(ax * by - bx * ay for (ax, ay), (bx, by) in edges)
    return PolygonStats(k, k + 1, interior, boundary, area2, u_count(vertices, spec),
                        2 * (interior + boundary - (k - 1)))


def test_listed_records_match_the_scan_oracles():
    # each record enumerate_polygons lists, against scans of its vertices
    checked = 0
    for i in range(1, 9):
        for j in range(1, 9):
            spec = TriangleSpec(i, j)
            for vertices, stats in enumerate_polygons(spec):
                assert stats == scanned_stats(vertices, spec), vertices
                checked += 1
    assert checked == 876


def test_record_keys_pair_with_the_stats_fields_by_name():
    # the schema reads PolygonStats in field order, so a reordered field
    # would put its value under another key
    assert dict(zip(FIELDS, PolygonStats._fields)) == {
        "k": "k", "vCount": "v_count", "iP": "interior", "bP": "boundary",
        "area2": "area2", "u": "u", "exponentDoubled": "exponent_doubled"}
    assert len(FIELDS) == len(PolygonStats._fields)


def test_enumerate_single_polygon(capsys):
    code, out, _ = run(capsys, "enumerate", "--i", "1", "--j", "1")
    assert code == 0
    assert len(records_from_json(out)) == 1


def test_enumerate_rejects_unknown_format(capsys):
    assert run(capsys, "enumerate", "--i", "2", "--j", "3", "--format", "xml")[0] == 2


def test_record_validation_catches_tampering():
    record = list(enumerate_polygons(TriangleSpec(2, 3)))[1]
    broken = PolygonRecord(
        record.vertices,
        record.stats._replace(interior=record.stats.interior + 1),
    )
    with pytest.raises(ValueError):
        broken.validate()
    text = records_to_json([broken])
    with pytest.raises(ValueError):
        records_from_json(text)


@pytest.mark.parametrize("field,value", [
    ("k", True), ("interior", False), ("u", 1.0), ("area2", 0.0),
], ids=["bool-k", "bool-interior", "float-u", "float-area2"])
def test_record_validation_refuses_a_stats_field_that_is_not_an_int(field, value):
    # the 2-gon of (2,3): k=1, interior=0, u=1, area2=0, each equal to its stand-in
    record = next(enumerate_polygons(TriangleSpec(2, 3)))
    broken = PolygonRecord(record.vertices, record.stats._replace(**{field: value}))
    assert broken.stats == record.stats
    with pytest.raises(TypeError):
        broken.validate()
    for load, write in ((records_from_json, records_to_json), (records_from_csv, records_to_csv)):
        with pytest.raises(ValueError):
            load(write([broken]))


@pytest.mark.parametrize("vertices", [
    ((0, 0), (True, True)), ((False, 0), (1, 1)), ((0, False), (1, 1)), ((0, 0), [1, 1]),
], ids=["bool-end", "bool-origin-x", "bool-origin-y", "list-vertex"])
def test_record_validation_refuses_a_vertex_that_is_not_a_pair_of_ints(vertices):
    broken = PolygonRecord(vertices, next(enumerate_polygons(TriangleSpec(1, 1))).stats)
    with pytest.raises(TypeError):
        broken.validate()


def test_each_loader_validates_each_record_once_and_builds_each_triangle_once(monkeypatch):
    records = list(enumerate_polygons(TriangleSpec(8, 9))) + list(enumerate_polygons(TriangleSpec(3, 4)))
    validated, specs = [], []
    validate = PolygonRecord.validate

    def counting_validate(self, *args):
        validated.append(self)
        return validate(self, *args)

    def counting_spec(i, j):
        specs.append((i, j))
        return TriangleSpec(i, j)

    monkeypatch.setattr(PolygonRecord, "validate", counting_validate)
    monkeypatch.setattr(geometry, "TriangleSpec", counting_spec)
    for load, write in ((records_from_json, records_to_json), (records_from_csv, records_to_csv)):
        validated.clear()
        specs.clear()
        assert load(write(records)) == records
        assert validated == records
        assert specs == [(8, 9), (3, 4)]


GOOD_JSON_FIELDS = '"vertices": [[0, 0], [1, 1]], "k": 1, "vCount": 2, "iP": 0, "bP": 2, "area2": 0, "u": 0'


@pytest.mark.parametrize("load,text", [
    (records_from_csv, CSV_HEADER_LINE + "1,2,3,4,5,6,7\n"),
    (records_from_csv, CSV_HEADER_LINE + '1,2,0,2,0,0,4,"[[0,0],[1,1]]",extra\n'),
    (records_from_csv, CSV_HEADER_LINE + "1,2,0,2,0,0,4,[]\n"),
    (records_from_csv, CSV_HEADER_LINE + '1,2,0,2,0,0,4,"[[0,0],[1]]"\n'),
    (records_from_csv, CSV_HEADER_LINE + '1,2,0,2,0,1,4,"[[0,0],[2.9,3.5]]"\n'),
    (records_from_csv, CSV_HEADER_LINE + '1,2,0,2,0,1,4,"[[0,0],[true,3]]"\n'),
    (records_from_csv, CSV_HEADER_LINE + ' 1,2,0,2,0,1,4,"[[0,0],[2,3]]"\n'),
    (records_from_csv, CSV_HEADER_LINE + '+1,2,0,2,0,1,4,"[[0,0],[2,3]]"\n'),
    (records_from_csv, CSV_HEADER_LINE + '0_1,2,0,2,0,1,4,"[[0,0],[2,3]]"\n'),
    (records_from_csv, CSV_HEADER_LINE + '\u0661,2,0,2,0,1,4,"[[0,0],[2,3]]"\n'),
    (records_from_csv, CSV_HEADER_LINE + '01,2,0,2,0,1,4,"[[0,0],[2,3]]"\n'),
    (records_from_csv, CSV_HEADER_LINE + '1,2,0,2,0,1,4,"' + "[" * 30000 + '"\n'),
    (records_from_json, "[{}]"),
    (records_from_json, "[1]"),
    (records_from_json, "[[]]"),
    (records_from_json, "[{" + GOOD_JSON_FIELDS + ', "exponentDoubled": Infinity}]'),
    (records_from_json, "[{" + GOOD_JSON_FIELDS + ', "exponentDoubled": 4.5}]'),
    (records_from_json, "[{" + GOOD_JSON_FIELDS + ', "exponentDoubled": "4"}]'),
    (records_from_json, "[{" + GOOD_JSON_FIELDS + ', "exponentDoubled": 4, "bogus": 1}]'),
], ids=["csv-short-row", "csv-long-row", "csv-no-vertices", "csv-bad-vertex",
        "csv-float-vertex", "csv-bool-vertex", "csv-space-int", "csv-plus-int",
        "csv-underscore-int", "csv-nonascii-digit", "csv-leading-zero", "csv-deep-vertices",
        "json-empty-object", "json-number", "json-list", "json-infinity",
        "json-float", "json-string", "json-extra-key"])
def test_loaders_name_the_malformed_record(load, text):
    with pytest.raises(ValueError, match="record 1: "):
        load(text)


def test_json_loader_rejects_non_list():
    with pytest.raises(ValueError):
        records_from_json('{"k": 1}')


@pytest.mark.parametrize("load,text", [
    (records_from_json, "[" * 100000 + "]" * 100000),
    (records_from_csv, CSV_HEADER_LINE + '1,2,0,2,0,1,4,"' + "0" * 131073 + '"\n'),
], ids=["json-deep-document", "csv-oversized-field"])
def test_loaders_refuse_documents_past_parser_limits(load, text):
    with pytest.raises(ValueError):
        load(text)


def test_csv_loader_rejects_wrong_header():
    good = records_to_csv(list(enumerate_polygons(TriangleSpec(2, 3))))
    with pytest.raises(ValueError):
        records_from_csv(good.replace("vCount", "vcount"))


def test_simulate_small_run(capsys):
    code, out, _ = run(
        capsys, "simulate", "--i", "1", "--j", "1", "--x", "1/3", "--trials", "10"
    )
    assert code == 0
    assert "1.000000" in out
    assert "exact probabilities sum to 1: yes" in out


def test_simulate_rejects_bad_fractions(capsys):
    assert run(capsys, "simulate", "--i", "2", "--j", "3", "--x", "3/2",
               "--trials", "10")[0] == 2
    assert run(capsys, "simulate", "--i", "2", "--j", "3", "--x", "abc",
               "--trials", "10")[0] == 2
    assert run(capsys, "simulate", "--i", "2", "--j", "3", "--x", "0/5",
               "--trials", "10")[0] == 2


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "-1", "1e400"])
def test_simulate_rejects_bad_z_threshold(capsys, threshold):
    code, _, err = run(capsys, "simulate", "--i", "2", "--j", "3", "--x", "1/2",
                       "--trials", "10", f"--z-threshold={threshold}")
    assert code == 2
    assert "threshold" in err


def test_simulate_z_violation_exits_one(capsys):
    # 101 trials over 2 polygons cannot both sit exactly on 1/2
    code, out, _ = run(
        capsys, "simulate", "--i", "2", "--j", "3", "--x", "1/2",
        "--trials", "101", "--seed", "7", "--z-threshold", "0.000001",
    )
    assert code == 1
    assert "beyond |z|" in out


def test_simulate_deterministic_output(capsys):
    argv = ["simulate", "--i", "3", "--j", "4", "--x", "1/3",
            "--trials", "500", "--seed", "11"]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    assert first[0] == 0


def test_simulate_stream_2_golden_output(capsys):
    code, out, _ = run(capsys, "simulate", "--i", "3", "--j", "4", "--x", "1/3",
                       "--trials", "2000", "--seed", "9")
    assert code == 0
    assert out == (
        "triangle (3,4), x = 1/3, trials = 2000, seed = 9, stream = 2\n"
        "polygon                                  count  empirical      exact        z\n"
        "(0,0)-(3,4)                                548   0.274000       8/27   -2.184\n"
        "(0,0)-(1,1)-(3,4)                          276   0.138000       4/27   -1.278\n"
        "(0,0)-(2,1)-(3,4)                          693   0.346500        1/3   +1.249\n"
        "(0,0)-(2,2)-(3,4)                          483   0.241500        2/9   +2.074\n"
        "exact probabilities sum to 1: yes\n"
        "no |z| above threshold 4.0\n"
    )


def test_simulate_parallel_output_matches_serial(capsys):
    base = ["simulate", "--i", "3", "--j", "4", "--x", "1/2",
            "--trials", "300", "--seed", "5"]
    serial = run(capsys, *base, "--jobs", "1")
    parallel = run(capsys, *base, "--jobs", "3")
    assert serial == parallel


def test_explore_small_bounds(capsys):
    code, out, _ = run(capsys, "explore", "--max-a", "1", "--max-b", "1",
                       "--max-size", "2", "--max-m", "4", "--max-n", "4")
    assert code == 0
    assert "found 1 unit multiset(s)" in out
    assert "{(1,0),(0,1)}" in out
    assert "(2,3)" in out and "(3,2)" in out


def test_explore_empty_result(capsys):
    code, out, _ = run(capsys, "explore", "--max-a", "0", "--max-b", "1",
                       "--max-size", "1", "--max-m", "2", "--max-n", "2")
    assert code == 0
    assert "found 0 unit multiset(s)" in out


def test_explore_huge_max_a_finishes(capsys):
    code, out, _ = run(capsys, "explore", "--max-a", "1000000", "--max-b", "1",
                       "--max-size", "2", "--max-m", "2", "--max-n", "2")
    assert code == 0
    assert "found 1 unit multiset(s)\n{(1,0),(0,1)}\n" in out


def test_explore_cap_reports_and_exits_two(capsys):
    code, _, err = run(capsys, "explore", "--max-a", "3", "--max-b", "3",
                       "--max-size", "5", "--node-cap", "10")
    assert code == 2
    assert "search cap hit" in err


def test_explore_refuses_a_huge_search_in_bounded_time():
    # each pair costs b + 1 units of the cap, so with b up to 3000 the
    # default cap ends the search in about a second
    proc = subprocess.run([sys.executable, "-m", "latticechains", "explore", "--max-a", "3000",
                           "--max-b", "3000", "--max-size", "3000"],
                          capture_output=True, text=True, env=cli_env(), timeout=60)
    assert_refused_in_one_line(proc)
    assert "search cap hit" in proc.stderr


def test_explore_out_of_memory_exits_two(capsys, monkeypatch):
    # a search too large for the memory it may use is refused, not a traceback
    # with exit 1, which means a failed mathematical check
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "search_unit_multisets", exhausted)
    code, out, err = run(capsys, "explore", "--max-a", "3", "--max-b", "3",
                         "--max-size", "5")
    assert code == 2
    assert out == ""
    assert "search ran out of memory" in err


def test_explore_triangle_box_out_of_memory_exits_two(capsys, monkeypatch):
    # the signatures of every triangle up to (max-m, max-n) are built before
    # the first line, so a box too large for memory is refused with nothing printed
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "triangle_signatures", exhausted)
    assert run(capsys, "explore", "--max-a", "1", "--max-b", "1", "--max-size", "2",
               "--max-m", "100000", "--max-n", "100000") == (
        2, "", "triangle box ran out of memory; lower --max-m or --max-n\n")


@pytest.mark.parametrize("collapse", [[], ["--collapse-sets"]])
def test_explore_prints_what_the_whole_box_gives(capsys, monkeypatch, collapse):
    # the 154 multisets of (5,4,8), against every box up to 8x8, matched in
    # the box filtered by their sizes and in the whole box
    argv = ["explore", "--max-a", "5", "--max-b", "4", "--max-size", "8", *collapse]
    real = cli.triangle_signatures
    for max_m in range(1, 9):
        for max_n in range(1, 9):
            box = ["--max-m", str(max_m), "--max-n", str(max_n)]
            filtered = run(capsys, *argv, *box)
            with monkeypatch.context() as whole:
                whole.setattr(cli, "triangle_signatures", lambda m, n, sizes=None: real(m, n))
                assert run(capsys, *argv, *box) == filtered, box


@pytest.mark.parametrize("argv, built", [
    # the benchmark workload: sizes {2, 3, 4}, 13 of 49 triangles
    (("--max-a", "4", "--max-b", "3", "--max-size", "4", "--max-m", "7", "--max-n", "7"), 13),
    # its stated inputs: sizes 2 to 6, 20 of 64
    (("--max-a", "4", "--max-b", "3", "--max-size", "6", "--max-m", "8", "--max-n", "8"), 20),
    # collapsing shrinks the sizes, so every one of the 64 is built
    (("--max-a", "4", "--max-b", "3", "--max-size", "4", "--collapse-sets"), 64),
])
def test_explore_builds_the_signatures_of_found_sizes_only(capsys, monkeypatch, argv, built):
    import latticechains.explorer as explorer

    calls = []
    real = explorer.key_signature
    monkeypatch.setattr(explorer, "key_signature", lambda *args: calls.append(1) or real(*args))
    assert run(capsys, "explore", *argv)[0] == 0
    assert len(calls) == built


def test_explore_collapse_sets_refuses_a_box_past_its_limit(capsys):
    # collapsing walks every triangle of the box, so the legs' sum is capped
    # before the search starts; a long thin box at the cap still runs
    argv = ["explore", "--max-a", "5", "--max-b", "4", "--max-size", "8", "--collapse-sets"]
    assert run(capsys, *argv, "--max-m", "30", "--max-n", "7") == (
        2, "", "--collapse-sets needs --max-m + --max-n <= 36, got 37\n")
    assert run(capsys, *argv, "--max-m", "1", "--max-n", str(10**9))[0] == 2
    code, out, _ = run(capsys, *argv, "--max-m", "30", "--max-n", "6")
    assert code == 0
    assert "  triangles up to (30,6): (2,3), (2,4), (3,2), (3,3), (4,2)\n" in out


def test_explore_collapse_sets_flag(capsys):
    code, out, _ = run(capsys, "explore", "--max-a", "3", "--max-b", "1",
                       "--max-size", "4", "--max-m", "4", "--max-n", "4",
                       "--collapse-sets")
    assert code == 0
    assert out == EXPLORE_COLLAPSE_SETS


def test_render_writes_one_svg_per_polygon(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    code, out, _ = run(capsys, "render", "--i", "3", "--j", "4",
                       "--out-dir", str(out_dir))
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["poly_0.svg", "poly_1.svg", "poly_2.svg", "poly_3.svg"]
    body = (out_dir / "poly_1.svg").read_text()
    assert body.startswith("<svg ")
    assert body.count("<circle") == 3 + 3  # interior dots + chain vertices
    assert 'stroke-width="3"' in body  # emphasized hypotenuse


def test_render_golden_svgs(tmp_path, capsys):
    code, _, _ = run(capsys, "render", "--i", "3", "--j", "4", "--out-dir", str(tmp_path))
    assert code == 0
    bodies = [(tmp_path / f"poly_{k}.svg").read_text() for k in range(4)]
    assert bodies == [RENDER_3_4_POLY_0, RENDER_3_4_POLY_1, RENDER_3_4_POLY_2, RENDER_3_4_POLY_3]


def test_render_5_7_is_pinned(tmp_path, capsys):
    # sha256 of the stdout, with the out dir named "figs", then of all 23
    # figures in index order, chains of one to four steps
    out_dir = tmp_path / "figs"
    code, out, _ = run(capsys, "render", "--i", "5", "--j", "7", "--out-dir", str(out_dir))
    assert code == 0
    assert len(list(out_dir.iterdir())) == 23
    digest = hashlib.sha256(out.replace(str(out_dir), "figs").encode())
    for k in range(23):
        digest.update((out_dir / f"poly_{k}.svg").read_bytes())
    assert digest.hexdigest() == "91f57758a2bdf42304177ccf45c5ed71d3ad7c8b167568e63263803b4dfde278"


def test_render_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "render", "--i", "2", "--j", "3", "--out-dir", str(a))
    run(capsys, "render", "--i", "2", "--j", "3", "--out-dir", str(b))
    for name in ["poly_0.svg", "poly_1.svg"]:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_render_reports_io_failure(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    code, _, err = run(capsys, "render", "--i", "1", "--j", "1",
                       "--out-dir", str(blocker))
    assert code == 2
    assert "blocked" in err


def test_enumerate_byte_identical_across_runs(capsys):
    for fmt in ["json", "csv"]:
        argv = ["enumerate", "--i", "4", "--j", "5", "--format", fmt]
        assert run(capsys, *argv) == run(capsys, *argv)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_enumerate_golden_output(capsys, fmt):
    code, out, _ = run(capsys, "enumerate", "--i", "3", "--j", "4", "--format", fmt)
    assert code == 0
    assert out == {"csv": ENUMERATE_3_4_CSV, "json": ENUMERATE_3_4_JSON}[fmt]


def test_importing_the_cli_leaves_out_the_process_pool():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, latticechains.cli; "
         "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"],
        capture_output=True, text=True, env=cli_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_importing_the_cli_leaves_out_openssl_where_the_builtin_hash_imports():
    # simulate's coins hash with CPython's built-in SHA-256 where the build has
    # it; hashlib would load OpenSSL (_hashlib) into every command's start-up
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import latticechains.cli\n"
         "openssl = '_hashlib' in set(sys.modules) - before\n"
         "builtin = False\n"
         "for name in ('_sha2', '_sha256'):\n"
         "    try:\n"
         "        __import__(name)\n"
         "        builtin = True\n"
         "    except ImportError:\n"
         "        pass\n"
         "print(builtin, openssl)"],
        capture_output=True, text=True, env=cli_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout in ("True False\n", "False True\n", "False False\n")


def test_simulate_without_the_builtin_hash_prints_the_same_bytes():
    # an interpreter built without _sha2 or _sha256 falls back to hashlib
    argv, digest = PINNED_STDOUT["simulate-5-7"]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
         "import hashlib\n"
         "from latticechains import cli, montecarlo\n"
         "assert montecarlo.sha256 is hashlib.sha256\n"
         "sys.exit(cli.main(sys.argv[1:]))",
         *argv],
        capture_output=True, env=cli_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_importing_the_cli_leaves_out_dataclasses_and_inspect():
    # start-up is most of a short command, and these two cost it about 17 ms;
    # only what the import adds counts, so a site hook that preloads one passes
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import latticechains.cli; "
         "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"],
        capture_output=True, text=True, env=cli_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "latticechains", "verify", "--i", "1", "--n", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "q^(1/2)" in proc.stdout


# ---------------------------------------------------------------- golden outputs

ENUMERATE_3_4_CSV = """\
k,vCount,iP,bP,area2,u,exponentDoubled,vertices
1,2,0,2,0,3,4,"[[0,0],[3,4]]"
2,3,0,3,1,2,4,"[[0,0],[1,1],[3,4]]"
2,3,2,3,5,0,8,"[[0,0],[2,1],[3,4]]"
2,3,0,4,2,1,6,"[[0,0],[2,2],[3,4]]"
"""


ENUMERATE_3_4_JSON = """\
[
  {
    "vertices": [
      [
        0,
        0
      ],
      [
        3,
        4
      ]
    ],
    "k": 1,
    "vCount": 2,
    "iP": 0,
    "bP": 2,
    "area2": 0,
    "u": 3,
    "exponentDoubled": 4
  },
  {
    "vertices": [
      [
        0,
        0
      ],
      [
        1,
        1
      ],
      [
        3,
        4
      ]
    ],
    "k": 2,
    "vCount": 3,
    "iP": 0,
    "bP": 3,
    "area2": 1,
    "u": 2,
    "exponentDoubled": 4
  },
  {
    "vertices": [
      [
        0,
        0
      ],
      [
        2,
        1
      ],
      [
        3,
        4
      ]
    ],
    "k": 2,
    "vCount": 3,
    "iP": 2,
    "bP": 3,
    "area2": 5,
    "u": 0,
    "exponentDoubled": 8
  },
  {
    "vertices": [
      [
        0,
        0
      ],
      [
        2,
        2
      ],
      [
        3,
        4
      ]
    ],
    "k": 2,
    "vCount": 3,
    "iP": 0,
    "bP": 4,
    "area2": 2,
    "u": 1,
    "exponentDoubled": 6
  }
]
"""


RENDER_3_4_POLY_0 = """\
<svg xmlns="http://www.w3.org/2000/svg" width="128" height="160" viewBox="0 0 128 160">
  <rect width="128" height="160" fill="white"/>
  <polygon points="16,144 112,144 112,16" fill="none" stroke="#555555" stroke-width="1.5"/>
  <line x1="16" y1="144" x2="112" y2="16" stroke="#2b6cb0" stroke-width="3"/>
  <polygon points="16,144 112,16" fill="#f6c345" fill-opacity="0.25" stroke="none"/>
  <polyline points="16,144 112,16" fill="none" stroke="#b7791f" stroke-width="2.5"/>
  <circle cx="48" cy="112" r="3" fill="#333333"/>
  <circle cx="80" cy="112" r="3" fill="#333333"/>
  <circle cx="80" cy="80" r="3" fill="#333333"/>
  <circle cx="16" cy="144" r="4" fill="#b7791f"/>
  <circle cx="112" cy="16" r="4" fill="#b7791f"/>
</svg>
"""


RENDER_3_4_POLY_1 = """\
<svg xmlns="http://www.w3.org/2000/svg" width="128" height="160" viewBox="0 0 128 160">
  <rect width="128" height="160" fill="white"/>
  <polygon points="16,144 112,144 112,16" fill="none" stroke="#555555" stroke-width="1.5"/>
  <line x1="16" y1="144" x2="112" y2="16" stroke="#2b6cb0" stroke-width="3"/>
  <polygon points="16,144 48,112 112,16" fill="#f6c345" fill-opacity="0.25" stroke="none"/>
  <polyline points="16,144 48,112 112,16" fill="none" stroke="#b7791f" stroke-width="2.5"/>
  <circle cx="48" cy="112" r="3" fill="#333333"/>
  <circle cx="80" cy="112" r="3" fill="#333333"/>
  <circle cx="80" cy="80" r="3" fill="#333333"/>
  <circle cx="16" cy="144" r="4" fill="#b7791f"/>
  <circle cx="48" cy="112" r="4" fill="#b7791f"/>
  <circle cx="112" cy="16" r="4" fill="#b7791f"/>
</svg>
"""


RENDER_3_4_POLY_2 = """\
<svg xmlns="http://www.w3.org/2000/svg" width="128" height="160" viewBox="0 0 128 160">
  <rect width="128" height="160" fill="white"/>
  <polygon points="16,144 112,144 112,16" fill="none" stroke="#555555" stroke-width="1.5"/>
  <line x1="16" y1="144" x2="112" y2="16" stroke="#2b6cb0" stroke-width="3"/>
  <polygon points="16,144 80,112 112,16" fill="#f6c345" fill-opacity="0.25" stroke="none"/>
  <polyline points="16,144 80,112 112,16" fill="none" stroke="#b7791f" stroke-width="2.5"/>
  <circle cx="48" cy="112" r="3" fill="#333333"/>
  <circle cx="80" cy="112" r="3" fill="#333333"/>
  <circle cx="80" cy="80" r="3" fill="#333333"/>
  <circle cx="16" cy="144" r="4" fill="#b7791f"/>
  <circle cx="80" cy="112" r="4" fill="#b7791f"/>
  <circle cx="112" cy="16" r="4" fill="#b7791f"/>
</svg>
"""


RENDER_3_4_POLY_3 = """\
<svg xmlns="http://www.w3.org/2000/svg" width="128" height="160" viewBox="0 0 128 160">
  <rect width="128" height="160" fill="white"/>
  <polygon points="16,144 112,144 112,16" fill="none" stroke="#555555" stroke-width="1.5"/>
  <line x1="16" y1="144" x2="112" y2="16" stroke="#2b6cb0" stroke-width="3"/>
  <polygon points="16,144 80,80 112,16" fill="#f6c345" fill-opacity="0.25" stroke="none"/>
  <polyline points="16,144 80,80 112,16" fill="none" stroke="#b7791f" stroke-width="2.5"/>
  <circle cx="48" cy="112" r="3" fill="#333333"/>
  <circle cx="80" cy="112" r="3" fill="#333333"/>
  <circle cx="80" cy="80" r="3" fill="#333333"/>
  <circle cx="16" cy="144" r="4" fill="#b7791f"/>
  <circle cx="80" cy="80" r="4" fill="#b7791f"/>
  <circle cx="112" cy="16" r="4" fill="#b7791f"/>
</svg>
"""


EXPLORE_COLLAPSE_SETS = """\
search bounds: a <= 3, b <= 1, size <= 4
found 3 unit multiset(s)
{(1,0),(0,1)}
  triangles up to (4,4): (2,3), (2,4), (3,2), (3,3), (4,2)
{(2,0),(1,1),(0,1)}
  triangles up to (4,4): none
{(3,0),(2,1),(1,1),(0,1)}
  triangles up to (4,4): (3,4), (4,3)
"""


# sha256 of the stdout of each command perfbench runs, and of a longer sweep
PINNED_STDOUT = {
    "verify-sweep-13": (
        ("verify", "--all-up-to", "13"),
        "789cdefcd9bd86d178e467aca2a30022218a34a886d45fecbb48b7809abe2570"),
    "verify-sweep-18": (
        ("verify", "--all-up-to", "18"),
        "6ea8d9287ff20cf0ce68639c793b33e2d5dfbdd3388a85dec7f31ee367fede7b"),
    "simulate-5-7": (
        ("simulate", "--i", "5", "--j", "7", "--x", "1/3", "--trials", "20000",
         "--seed", "7", "--jobs", "1"),
        "6d196785e7ca04fc7f133b538cbec517fe33ac04afdc8ae088c73df51899c8f5"),
    "explore-4-3-4": (
        ("explore", "--max-a", "4", "--max-b", "3", "--max-size", "4",
         "--max-m", "7", "--max-n", "7"),
        "7ecbfe989364e718f0f1e02d2078cea7c65d5629e6db9aa0b1469c7154f88c3c"),
    "enumerate-8-9-csv": (
        ("enumerate", "--i", "8", "--j", "9", "--format", "csv"),
        "3453ae838ff173398788f2947bc33e37ed7b0373777a0c792890551c5ffe2fa0"),
    "enumerate-8-9-json": (
        ("enumerate", "--i", "8", "--j", "9", "--format", "json"),
        "b7a9ded64a338b9da12ba4c2fc3d28af9b7320c71e567b5398fa1c47294bc682"),
}


@pytest.mark.parametrize("name", PINNED_STDOUT)
def test_benchmark_commands_stdout_is_pinned(capsys, name):
    argv, digest = PINNED_STDOUT[name]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_three_chunk_simulate_stdout_is_pinned(capsys):
    # 15 interior points at den 3 decode in chunks of 7, 7 and 1 digits; the
    # benchmark's (5,7) has 12 points, only two chunks
    code, out, _ = run(capsys, "simulate", "--i", "6", "--j", "7", "--x", "1/3",
                       "--trials", "50000", "--seed", "7", "--jobs", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "574dbd6880ba7de875481b82317773ad18aa238b41f936ce8d8e9ee8ac235ba6"
