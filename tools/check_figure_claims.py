#!/usr/bin/env python3
"""Checks figure-bench tables against the paper's qualitative claims.

Usage: check_figure_claims.py <result_dir>
       check_figure_claims.py --self-test

The golden diff (diff_bench_json.py) only proves that a run reproduces an
earlier run, so a wrong clock pinned into a golden passes it. This check reads
the BENCH_fig*.json tables in <result_dir> and asserts the shapes the paper
reports (Volgushev et al., EuroSys 2019, section 7), not our own numbers:

  (a) every column is non-decreasing in records, and DNF/OOM cells occur
      only as a suffix of the column;
  (b) fig 4: Conclave is Spark-bound. At every executed row with >= 100k
      records, conclave <= 1.5 x insecure spark; no executed conclave cell
      exceeds the first modeled one; sharemind-only DNFs by the last row;
  (c) fig 5 (agg, join), fig 6 and fig 7 (three panels): at the largest row,
      the hybrid/Conclave column beats the plain MPC/SMCQL column, or that
      column is DNF/OOM.

Claims (b) and (c) apply to the tables that are present, so a directory
holding only a fig 4 run is checked too. A named column missing from its
table is a failure, never a silent pass.

Exit status: 0 when every claim holds; 1 when one fails or no BENCH_fig*.json
table is found.
"""

import json
import pathlib
import sys

# (b): fig 4's Spark-bound claim.
FIG4 = "fig4_market"
FIG4_MIN_RECORDS = 100_000
FIG4_SPARK_FACTOR = 1.5

# (c): table -> (hybrid/Conclave column, plain MPC/SMCQL column).
HYBRID_BEATS_MPC = {
    "fig5_agg": ("hybrid agg", "sharemind agg"),
    "fig5_join": ("hybrid join", "sharemind join"),
    "fig6_credit": ("conclave", "sharemind-only"),
    "fig7_aspirin": ("conclave", "smcql"),
    "fig7_comorbidity": ("conclave", "smcql"),
    "fig7_cdiff": ("conclave", "smcql"),
}


def seconds(cell):
    """The cell's virtual seconds, or None for a DNF/OOM/skipped cell."""
    return cell["virtual_seconds"] if cell["kind"] == "seconds" else None


def column(table, name, out):
    """(records, cell) pairs of column `name`, or None (with a problem line)."""
    if name not in table["columns"]:
        out.append(f"  column {name!r} missing")
        return None
    index = table["columns"].index(name)
    return [(row["records"], row["cells"][index]) for row in table["rows"]]


def check_monotone(table, out):
    """(a): non-decreasing columns; DNF/OOM only as a suffix."""
    for name in table["columns"]:
        previous = None
        stopped_at = None
        for records, cell in column(table, name, out):
            value = seconds(cell)
            if value is None:
                if stopped_at is None:
                    stopped_at = records
            elif stopped_at is not None:
                out.append(
                    f"  {name!r} runs at {records} records after DNF/OOM at "
                    f"{stopped_at}"
                )
            elif previous is not None and value < previous[1]:
                out.append(
                    f"  {name!r} decreases: {previous[1]} at {previous[0]} -> "
                    f"{value} at {records} records"
                )
            if value is not None:
                previous = (records, value)


def check_fig4(table, out):
    """(b): Conclave within a small factor of insecure Spark, no executed
    point above the model, sharemind-only out of budget at the top."""
    conclave = column(table, "conclave", out)
    spark = column(table, "insecure spark", out)
    sharemind = column(table, "sharemind-only", out)
    if conclave is None or spark is None or sharemind is None:
        return
    modeled = [seconds(c) for _, c in conclave if c.get("modeled")]
    executed = [(r, seconds(c)) for r, c in conclave if not c.get("modeled")]
    if not modeled or modeled[0] is None:
        out.append("  no modeled conclave cell to bound the executed series")
    else:
        for records, value in executed:
            if value is not None and value > modeled[0]:
                out.append(
                    f"  executed conclave {value} at {records} records exceeds "
                    f"the first modeled cell {modeled[0]}"
                )
    compared = 0
    for (records, cell), (_, spark_cell) in zip(conclave, spark):
        if cell.get("modeled") or records < FIG4_MIN_RECORDS:
            continue
        value, spark_value = seconds(cell), seconds(spark_cell)
        if value is None or spark_value is None:
            out.append(f"  no conclave/spark pair at {records} records")
        elif value > FIG4_SPARK_FACTOR * spark_value:
            out.append(
                f"  conclave {value} > {FIG4_SPARK_FACTOR} x insecure spark "
                f"{spark_value} at {records} records"
            )
        compared += 1
    if compared == 0:
        out.append(f"  no executed row with >= {FIG4_MIN_RECORDS} records")
    if seconds(sharemind[-1][1]) is not None:
        out.append(
            f"  sharemind-only still runs at the last row "
            f"({sharemind[-1][0]} records)"
        )


def check_hybrid_beats_mpc(table, hybrid_name, mpc_name, out):
    """(c): at the largest row, hybrid < plain MPC, or plain MPC is DNF/OOM."""
    hybrid = column(table, hybrid_name, out)
    mpc = column(table, mpc_name, out)
    if hybrid is None or mpc is None:
        return
    records, hybrid_cell = hybrid[-1]
    hybrid_value, mpc_value = seconds(hybrid_cell), seconds(mpc[-1][1])
    if mpc_value is None:
        return
    if hybrid_value is None or hybrid_value >= mpc_value:
        out.append(
            f"  {hybrid_name!r} {hybrid_value} does not beat {mpc_name!r} "
            f"{mpc_value} at {records} records"
        )


def check_table(name, table):
    """Returns a list of violated-claim lines (empty when every claim holds)."""
    out = []
    check_monotone(table, out)
    if name == FIG4:
        check_fig4(table, out)
    if name in HYBRID_BEATS_MPC:
        check_hybrid_beats_mpc(table, *HYBRID_BEATS_MPC[name], out)
    return out


def run_check(result_dir):
    paths = sorted(result_dir.glob("BENCH_fig*.json"))
    if not paths:
        print(f"no BENCH_fig*.json tables found in {result_dir}", file=sys.stderr)
        return 1
    failures = 0
    for path in paths:
        name = path.stem[len("BENCH_"):]
        try:
            problems = check_table(name, json.loads(path.read_text()))
        except (json.JSONDecodeError, OSError, KeyError, IndexError) as error:
            problems = [f"  unreadable: {error!r}"]
        if problems:
            failures += 1
            print(f"{path.name}: violates the paper's claims", file=sys.stderr)
            for line in problems:
                print(line, file=sys.stderr)
        else:
            print(f"OK {path.name}")
    if failures:
        print(f"{failures} figure table(s) violate the paper's claims",
              file=sys.stderr)
        return 1
    print(f"all {len(paths)} figure tables show the paper's claims")
    return 0


def self_test():
    """Regression cases for the claims themselves, run in CI before the check."""

    def cell(value, modeled=False):
        if value is None:
            return {"kind": "dnf"}
        return {"kind": "seconds", "virtual_seconds": value, "modeled": modeled}

    def table(columns, rows):
        return {
            "columns": columns,
            "rows": [
                {"records": records, "cells": cells} for records, cells in rows
            ],
        }

    def fig4(conclave_100k):
        return table(
            ["sharemind-only", "insecure spark", "conclave"],
            [
                (10, [cell(0.21), cell(4.0), cell(4.12)]),
                (1000, [cell(6.4), cell(4.0), cell(4.12)]),
                (100000, [cell(1587.7), cell(4.031), cell(conclave_100k)]),
                (100000000,
                 [cell(None), cell(34.8, True), cell(27.2, True)]),
            ],
        )

    assert check_table(FIG4, fig4(4.162)) == []
    # The pinned retired-concat clock: 24.048 s against Spark's 4.031 s.
    assert any("1.5 x" in line for line in check_table(FIG4, fig4(24.048)))
    # Full-scale shape of the same defect: executed point above the model.
    high = fig4(4.162)
    high["rows"].insert(3, {"records": 10000000, "cells": [
        cell(None), cell(7.1), cell(2008.3)]})
    assert any("first modeled" in line for line in check_table(FIG4, high))
    # Sharemind-only must be out of budget by the last row.
    running = fig4(4.162)
    running["rows"][-1]["cells"][0] = cell(9000.0)
    assert any("still runs" in line for line in check_table(FIG4, running))
    # A fig 4 table without executed >= 100k rows cannot show the claim.
    short = fig4(4.162)
    del short["rows"][2]
    assert any("no executed row" in line for line in check_table(FIG4, short))

    # (a): a decrease, and a value after DNF, both fail in any table; a flat
    # column ending in DNF passes.
    def series(*values):
        return table(["x"], [(i, [cell(v)]) for i, v in enumerate(values, 1)])

    assert any("decreases" in line
               for line in check_table("fig1_join", series(2.0, 1.0)))
    assert any("after DNF" in line
               for line in check_table("fig1_join", series(None, 1.0)))
    assert check_table("fig1_join", series(1.0, 1.0, None, None)) == []

    # (c): hybrid must win at the largest row unless plain MPC is DNF.
    def fig6(sharemind, conclave):
        return table(["sharemind-only", "conclave"],
                     [(10, [cell(4.04), cell(4.05)]),
                      (30000, [cell(sharemind), cell(conclave)])])

    assert check_table("fig6_credit", fig6(2772.8, 95.4)) == []
    assert check_table("fig6_credit", fig6(None, 95.4)) == []
    assert check_table("fig6_credit", fig6(90.0, 95.4))
    assert check_table("fig6_credit", fig6(2772.8, None))
    # A renamed column is a failure, not a silent pass.
    renamed = fig6(2772.8, 95.4)
    renamed["columns"][1] = "hybrid"
    assert any("missing" in line for line in check_table("fig6_credit", renamed))
    print("self-test passed")
    return 0


def main():
    args = sys.argv[1:]
    if args == ["--self-test"]:
        sys.exit(self_test())
    if len(args) != 1:
        sys.exit(__doc__)
    sys.exit(run_check(pathlib.Path(args[0])))


if __name__ == "__main__":
    main()
