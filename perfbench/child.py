"""One workload iteration in a fresh process, spawned by run.py.

    python3 child.py --src DIR --report FILE [--trace RUN_ID] -- verify --all-up-to 17
    python3 child.py --src DIR --report FILE -- roundtrip 10 11

A latticechains command runs through ``latticechains.cli.main``, the console
entry point; its stdout is forwarded unchanged. ``roundtrip I J`` runs
``enumerate`` in CSV and JSON, reloads both outputs with the validating
loaders and prints whether the reloaded records equal the emitted ones.
The report file receives the exit code, the time around the command and,
with --trace, every span and count.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def roundtrip(cli, i: str, j: str) -> tuple[int, str, int]:
    emitted = {}
    for fmt in ("csv", "json"):
        code, emitted[fmt] = run_cli(cli, ["enumerate", "--i", i, "--j", j, "--format", fmt])
        if code:
            return code, "", 0
    from_csv = cli.records_from_csv(emitted["csv"])
    from_json = cli.records_from_json(emitted["json"])
    json_equal = [r.to_json_obj() for r in from_json] == json.loads(emitted["json"])
    summary = (
        f"reloaded {len(from_csv)} csv records and {len(from_json)} json records\n"
        f"json records equal emitted: {'yes' if json_equal else 'no'}\n"
        f"csv records equal json records: {'yes' if from_csv == from_json else 'no'}\n"
    )
    return 0, summary, sum(len(t) for t in emitted.values())


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", metavar="RUN_ID")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(args.trace)
        tracer.time_imports()
    import latticechains.cli as cli

    src = Path(args.src).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"latticechains was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    if tracer:
        tracer.install()

    work_started = perf_counter()
    if command[0] == "roundtrip":
        code, out, output_bytes = roundtrip(cli, *command[1:])
    else:
        code, out = run_cli(cli, command)
        output_bytes = len(out)
    work_s = perf_counter() - work_started
    sys.stdout.write(out)
    sys.stdout.flush()

    report = {"exit_code": code, "work_s": work_s}
    if tracer:
        tracer.counts["cli.output_bytes"] += output_bytes
        report["trace"] = tracer.dump()
    Path(args.report).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
