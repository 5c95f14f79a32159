"""The record writers as the standard library writes them, kept as oracles
for latticechains.cli.records_to_json and records_to_csv, which format the
same bytes by hand."""

import csv
import io
import json

from latticechains.cli import CSV_COLUMNS


def json_oracle(records) -> str:
    return json.dumps([r.to_json_obj() for r in records], indent=2) + "\n"


def csv_oracle(records) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([
            *r.stats,
            json.dumps([list(v) for v in r.vertices], separators=(",", ":")),
        ])
    return out.getvalue()
