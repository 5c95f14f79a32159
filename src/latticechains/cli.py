"""Command-line surface: verify, enumerate, simulate, explore, render.

Exit codes: 0 all checks pass (or help was written), 1 a mathematical check
failed (the report says which), 2 a refusal, whose line only `refuse` writes:
a usage or configuration error, a stdout that cannot be written, help
included (one line on stderr), or stdout closed by its reader (quietly:
`| head` is normal use). An unwritable stderr changes no exit code, and
stdout already written is kept. Identical arguments give byte-identical
stdout and files.

Each command is written once, in `COMMANDS`. A run that starts with a
command's name builds only that command's parser; help, an unknown command
and arguments that parser leaves over go to the full parser `build_parser`
makes from the same table, so help and usage errors are its, byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .enumeration import enumerate_polygons
from .geometry import (CSV_COLUMNS, FIELDS, PolygonRecord, PolygonStats, TriangleSpec, _points,
                       triangle_interior_points)
from .montecarlo import STREAM, Z_THRESHOLD, SimulationConfig, compare, simulate
from .explorer import _NODE_CAP, SearchCapExceeded, match_signature, search_unit_multisets, triangle_signatures
from .verification import verify_all, verify_up_to

def records_to_json(records) -> str:
    """json.dumps([r.to_json_obj() for r in records], indent=2) + "\n", byte
    for byte, for records of int fields with at least one vertex each. It
    is written by hand since json encodes in pure Python once indent is set."""
    objects = []
    for vertices, stats in records:
        points = ",\n".join([f"      [\n        {x},\n        {y}\n      ]" for x, y in vertices])
        fields = ",\n".join([f'    "{key}": {value}' for key, value in zip(FIELDS, stats)])
        objects.append(f'  {{\n    "vertices": [\n{points}\n    ],\n{fields}\n  }}')
    if not objects:
        return "[]\n"
    return "[\n" + ",\n".join(objects) + "\n]\n"


def _load_record(number: int, parse, raw, specs: dict) -> PolygonRecord:
    """parse(raw) builds record `number` (1-based) and its validate checks
    it against the load's `specs`; any malformed field, and any
    disagreement with recomputation, is a ValueError naming it."""
    try:
        record = parse(raw)
        record.validate(specs)
    except (ValueError, TypeError, KeyError, IndexError, OverflowError, RecursionError) as exc:
        raise ValueError(f"record {number}: {exc}") from exc
    return record


def records_from_json(text: str) -> list:
    try:
        data = json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"JSON document nested too deeply: {exc}") from exc
    if not isinstance(data, list):
        raise ValueError("expected a JSON list of records")
    specs = {}
    return [_load_record(number, PolygonRecord.from_json_obj, obj, specs)
            for number, obj in enumerate(data, start=1)]


def records_to_csv(records) -> str:
    """What csv.writer(lineterminator="\n") writes for the header and, per
    record, its stats and the compact JSON of its vertices, for records of
    int fields with at least one vertex each. No int cell needs quoting, and
    the vertices cell always holds a comma, so it is always quoted."""
    rows = [",".join(CSV_COLUMNS)]
    for vertices, stats in records:
        points = ",".join([f"[{x},{y}]" for x, y in vertices])
        rows.append(f'{",".join(map(str, stats))},"[{points}]"')
    rows.append("")
    return "\n".join(rows)


def records_from_csv(text: str) -> list:
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ValueError(f"malformed CSV: {exc}") from exc
    if not rows or rows[0] != CSV_COLUMNS:
        raise ValueError(f"expected header {','.join(CSV_COLUMNS)}")
    specs = {}
    return [_load_record(number, _record_from_csv_row, row, specs)
            for number, row in enumerate(rows[1:], start=1)]


def _record_from_csv_row(row: list) -> PolygonRecord:
    """The record a row stands for, unchecked but for its cells: each scalar
    cell only in the canonical form the writer emits (so not 2.9, true, +1,
    01 or ' 1'), the vertices cell through JSON. The cells are checked all
    at once; on any fault, one at a time, so the first bad cell is named."""
    if len(row) != len(CSV_COLUMNS):
        raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(row)}")
    *cells, vertices = row
    try:
        values = list(map(int, cells))
        canonical = list(map(str, values)) == cells
    except ValueError:
        canonical = False
    if not canonical:
        values = [_canonical_int(cell) for cell in cells]
    return PolygonRecord(_points(json.loads(vertices)), PolygonStats(*values))


def _canonical_int(cell: str) -> int:
    value = int(cell)
    if cell != str(value):
        raise ValueError(f"integer cell {cell!r} is not in canonical form")
    return value


# ---------------------------------------------------------------- commands

def refuse(message=None) -> int:
    """Exit 2's one path: write `message` as one line on stderr, after
    whatever argparse left there. A stderr that cannot take it goes to
    devnull; stdout is not touched, so what a command wrote is kept."""
    try:
        if message:
            sys.stderr.write(message + "\n")
        sys.stderr.flush()
    except OSError:
        _to_devnull(sys.stderr)
    return 2


def _to_devnull(stream) -> None:
    # the interpreter's final flush of what the stream holds then cannot fail
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def cmd_verify(args) -> int:
    if args.all_up_to is not None:
        if args.i is not None or args.n is not None:
            return refuse("--all-up-to cannot be combined with --i/--n")
        if args.all_up_to < 2:
            return refuse(f"--all-up-to needs N >= 2, got {args.all_up_to}")
        try:  # both walks run here, holding every pair's histograms
            reports = verify_up_to(args.all_up_to)
        except MemoryError:
            return refuse("sweep ran out of memory; lower --all-up-to")
    else:
        if args.i is None or args.n is None:
            return refuse("need either --i and --n, or --all-up-to")
        if not 1 <= args.i < args.n:
            return refuse(f"need 1 <= i < n, got i={args.i}, n={args.n}")
        reports = [verify_all(args.i, args.n)]

    pairs = failures = 0
    for report in reports:
        pairs += 1
        verdict = "PASS" if report.all_passed else "FAIL"
        rhs = report.rhs.render()
        if report.lhs is report.rhs:  # a passing d_form prints its rhs as lhs
            lhs = rhs
        elif report.lhs is None:
            lhs = "not a polynomial (a term has k < 1)"
        else:
            lhs = report.lhs.render()
        print(f"i={report.spec.i} n={report.spec.n}: lhs = {lhs}, rhs = {rhs}  {verdict}")
        if not report.all_passed:
            failures += 1
            print(f"  first failed check: {report.failed_check}")
            for name, ok in report.checks:
                print(f"  {name}: {'pass' if ok else 'FAIL'}")
            print("  term ledger (k, key, multiplicity, doubled exponent):")
            for key, k in sorted(report.d_keys, key=lambda term: term[::-1]):
                print(f"    k={k} key={key} mult={report.d_keys[key, k]} exp2={key + 2 - 2 * k}")
    if args.all_up_to is not None:
        print(f"{pairs - failures}/{pairs} pairs pass")
    return 1 if failures else 0


def cmd_enumerate(args) -> int:
    records = enumerate_polygons(TriangleSpec(args.i, args.j))
    text = records_to_json(records) if args.format == "json" else records_to_csv(records)
    # ASCII slices of at most PIPE_BUF bytes (Linux): a pipe takes each whole
    # or raises, even unbuffered, where one short write would drop the rest
    for start in range(0, len(text), 4096):
        sys.stdout.write(text[start:start + 4096])
    return 0


def cmd_simulate(args) -> int:
    try:
        config = SimulationConfig(TriangleSpec(args.i, args.j), args.x, args.trials, args.seed)
    except ValueError as exc:
        return refuse(str(exc))
    table = simulate(config, jobs=args.jobs)
    report = compare(table, config)

    print(f"triangle ({args.i},{args.j}), x = {config.x}, trials = {config.trials}, "
          f"seed = {config.seed}, stream = {STREAM}")
    print(f"{'polygon':<36} {'count':>9} {'empirical':>10} {'exact':>10} {'z':>8}")
    for row in report.rows:
        name = "-".join(f"({x},{y})" for x, y in row.vertices)
        flag = "  <-- |z| above threshold" if row.flagged else ""
        print(f"{name:<36} {row.count:>9} {row.empirical:>10.6f} {str(row.exact):>10} {row.z:>+8.3f}{flag}")
    print(f"exact probabilities sum to 1: {'yes' if report.exact_total == 1 else 'NO (' + str(report.exact_total) + ')'}")
    if report.ok:
        print(f"no |z| above threshold {Z_THRESHOLD}")
        return 0
    if report.flagged_rows:
        print(f"{len(report.flagged_rows)} polygon(s) beyond |z| = {Z_THRESHOLD}")
    if report.exact_total != 1:
        print(f"exact probabilities sum to {report.exact_total}, not 1")
    return 1


# --collapse-sets walks every triangle of the box: at (5,4,8) an 18x18 box,
# at this sum, takes about a second and 20x20 about three
COLLAPSE_MAX_LEGS = 36


def cmd_explore(args) -> int:
    if args.collapse_sets and args.max_m + args.max_n > COLLAPSE_MAX_LEGS:
        return refuse(f"--collapse-sets needs --max-m + --max-n <= {COLLAPSE_MAX_LEGS}, "
                      f"got {args.max_m + args.max_n}")
    try:
        found = search_unit_multisets(args.max_a, args.max_b, args.max_size,
                                      node_cap=args.node_cap)
    except SearchCapExceeded as exc:
        return refuse(f"search cap hit: {exc}; raise --node-cap to finish the search")
    except MemoryError:
        return refuse("search ran out of memory; lower --max-a, --max-b or --max-size")
    try:
        # collapsing shrinks a multiset, so only exact matching filters by size
        sizes = None if args.collapse_sets else {len(sig) for sig in found}
        signatures = triangle_signatures(args.max_m, args.max_n, sizes) if found else {}
    except MemoryError:
        return refuse("triangle box ran out of memory; lower --max-m or --max-n")
    if args.collapse_sets:
        found = list(dict.fromkeys(sig.as_set() for sig in found))
        signatures = {mn: sig.as_set() for mn, sig in signatures.items()}
    print(f"search bounds: a <= {args.max_a}, b <= {args.max_b}, size <= {args.max_size}")
    print(f"found {len(found)} unit multiset(s)")
    for sig in found:
        matches = match_signature(sig, signatures)
        shown = ", ".join(f"({m},{n})" for m, n in matches) if matches else "none"
        pairs = ",".join(f"({a},{b})" for a, b in sorted(sig.pairs, reverse=True))
        print("{" + pairs + "}")
        print(f"  triangles up to ({args.max_m},{args.max_n}): {shown}")
    return 0


SCALE = 32
PAD = 16


def render_svg(vertices, spec: TriangleSpec) -> str:
    width = spec.i * SCALE + 2 * PAD
    height = spec.j * SCALE + 2 * PAD

    def sx(x: int) -> int:
        return PAD + x * SCALE

    def sy(y: int) -> int:
        return PAD + (spec.j - y) * SCALE

    tri = " ".join(f"{sx(x)},{sy(y)}" for x, y in spec.corners)
    chain_pts = " ".join(f"{sx(x)},{sy(y)}" for x, y in vertices)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'  <rect width="{width}" height="{height}" fill="white"/>',
        f'  <polygon points="{tri}" fill="none" stroke="#555555" stroke-width="1.5"/>',
        f'  <line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(spec.i)}" y2="{sy(spec.j)}" '
        f'stroke="#2b6cb0" stroke-width="3"/>',
        f'  <polygon points="{chain_pts}" fill="#f6c345" fill-opacity="0.25" stroke="none"/>',
        f'  <polyline points="{chain_pts}" fill="none" stroke="#b7791f" stroke-width="2.5"/>',
    ]
    for x, y in triangle_interior_points(spec):
        lines.append(f'  <circle cx="{sx(x)}" cy="{sy(y)}" r="3" fill="#333333"/>')
    for x, y in vertices:
        lines.append(f'  <circle cx="{sx(x)}" cy="{sy(y)}" r="4" fill="#b7791f"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_render(args) -> int:
    spec = TriangleSpec(args.i, args.j)
    for index, (vertices, _) in enumerate(enumerate_polygons(spec)):
        path = os.path.join(args.out_dir, f"poly_{index}.svg")
        try:
            os.makedirs(args.out_dir, exist_ok=True)
            with open(path, "w") as fh:
                fh.write(render_svg(vertices, spec))
        except OSError as exc:
            return refuse(f"cannot write under {args.out_dir}: {exc}")
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------- arg plumbing

def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return value


def unit_fraction(text: str) -> Fraction:
    try:
        num, den = text.split("/")
        value = Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a fraction like 1/2, got {text!r}")
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"x must lie strictly between 0 and 1, got {text}")
    return value


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse swallows a failed write of its help; let it reach main
        (file or sys.stdout).write(self.format_help())


def _verify_arguments(parser) -> None:
    parser.add_argument("--i", type=positive_int)
    parser.add_argument("--n", type=positive_int)
    parser.add_argument("--all-up-to", type=positive_int, metavar="N")


def _enumerate_arguments(parser) -> None:
    parser.add_argument("--i", type=positive_int, required=True)
    parser.add_argument("--j", type=positive_int, required=True)
    parser.add_argument("--format", choices=["json", "csv"], default="json")


def _simulate_arguments(parser) -> None:
    parser.add_argument("--i", type=positive_int, required=True)
    parser.add_argument("--j", type=positive_int, required=True)
    parser.add_argument("--x", type=unit_fraction, required=True, metavar="P/Q")
    parser.add_argument("--trials", type=positive_int, required=True)
    parser.add_argument("--seed", type=nonnegative_int, default=0)
    parser.add_argument("--jobs", type=positive_int, default=1)


def _explore_arguments(parser) -> None:
    parser.add_argument("--max-a", type=nonnegative_int, required=True)
    parser.add_argument("--max-b", type=nonnegative_int, required=True)
    parser.add_argument("--max-size", type=positive_int, required=True)
    parser.add_argument("--max-m", type=positive_int, default=8)
    parser.add_argument("--max-n", type=positive_int, default=8)
    parser.add_argument("--node-cap", type=positive_int, default=_NODE_CAP,
                        help="most units of coefficient work, b + 1 per (a, b) pair "
                             "placed or folded; hitting it exits 2 (default %(default)s)")
    parser.add_argument("--collapse-sets", action="store_true",
                        help="compare signatures with multiplicities dropped; this walks "
                             f"every triangle of the box, so it needs --max-m + --max-n <= "
                             f"{COLLAPSE_MAX_LEGS}")


def _render_arguments(parser) -> None:
    parser.add_argument("--i", type=positive_int, required=True)
    parser.add_argument("--j", type=positive_int, required=True)
    parser.add_argument("--out-dir", required=True)


# Each command once, in help order: its help line, the function that adds
# its arguments and the function that runs it.
COMMANDS = {
    "verify": ("check the identity for one (i,n) or a sweep", _verify_arguments, cmd_verify),
    "enumerate": ("list the polygon family with statistics", _enumerate_arguments, cmd_enumerate),
    "simulate": ("run the point-selection process and compare", _simulate_arguments, cmd_simulate),
    "explore": ("search exponent multisets summing to 1", _explore_arguments, cmd_explore),
    "render": ("write one SVG figure per polygon", _render_arguments, cmd_render),
}


def _command_parser(parser, name: str) -> argparse.ArgumentParser:
    _, add_arguments, func = COMMANDS[name]
    add_arguments(parser)
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """Every command's parser, under the one that names the commands: what
    parse_args falls back to for help, usage errors and unknown commands."""
    parser = _Parser(
        prog="latticechains",
        description="Exact verification of the convex chain identity and its process form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _command_parser(sub.add_parser(name, help=help_text), name)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """build_parser().parse_args(argv), building one parser when argv[0]
    names a command: the one add_parser builds for it, whose help and errors
    are those it writes under the full parser. Arguments it leaves over make
    the full parser's "unrecognized arguments" error, so they go to it."""
    if argv and argv[0] in COMMANDS:
        parser = _command_parser(_Parser(prog=f"latticechains {argv[0]}"), argv[0])
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    if sys.stdout is None:  # started with descriptor 1 closed
        return refuse("cannot write output: stdout is closed")
    try:
        try:
            args = parse_args(sys.argv[1:] if argv is None else argv)
        except SystemExit as exc:  # argparse wrote its help (0) or a usage error (2)
            status = refuse() if exc.code else 0
        else:
            status = args.func(args)
        sys.stdout.flush()
    except OSError as exc:
        # stdout closed by its reader (quietly: `| head` is normal use) or unwritable
        _to_devnull(sys.stdout)
        return refuse(None if isinstance(exc, BrokenPipeError) else f"cannot write output: {exc}")
    return status
