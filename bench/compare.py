"""Compare two benchmark result files, one row per workload x metric.

    python bench/compare.py A.json B.json

Each row gives both medians, the ratio B/A **with A as its base**, the
metric's bound from ``BENCHMARK.json`` and a verdict:

* ``ok`` — B is no worse than A by more than the bound;
* ``worse`` — it is;
* ``unresolved`` — A's own run-to-run spread, the distance between its
  quartiles over its median, is wider than the bound, so this pair of
  files cannot tell.

Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def compare(spec: dict, a: dict, b: dict, exact: tuple[str, ...] = ()) -> list[dict]:
    """Rows for every workload both files hold.

    Metrics named in ``exact`` must agree exactly, whatever their bound:
    the A/A gate passes the simulated-clock metrics and the digest, which
    two sets of the same commit and seed reproduce bit for bit.
    """
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a["workloads"] or workload not in b["workloads"]:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sa = a["workloads"][workload]["end_to_end"][name]
            sb = b["workloads"][workload]["end_to_end"][name]
            ma, mb = sa["median"], sb["median"]
            if metric["better"] == "lower":
                worsening = (mb - ma) / ma
            else:
                worsening = (ma - mb) / ma
            spread = (sa["q3"] - sa["q1"]) / ma
            if name in exact:
                status = "ok" if ma == mb else "worse"
            elif spread > bound:
                status = "unresolved"
            else:
                status = "worse" if worsening > bound else "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "a": ma,
                    "b": mb,
                    "ratio_b_over_a": mb / ma,
                    "bound": bound,
                    "a_spread": spread,
                    "status": status,
                }
            )
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':18s} {'metric':14s} {'A median':>14s} {'B median':>14s} "
        f"{'B/A (base A)':>13s} {'bound':>6s} {'A spread':>9s}  status"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:18s} {r['metric']:14s} {r['a']:14.6f} {r['b']:14.6f} "
            f"{r['ratio_b_over_a']:13.4f} {r['bound']:6.3f} {r['a_spread']:9.4f}  "
            f"{r['status']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    files = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            files.append(json.load(fh))
    rows = compare(spec, *files)
    print(render(rows))
    return 1 if any(r["status"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
