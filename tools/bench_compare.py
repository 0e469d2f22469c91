#!/usr/bin/env python3
"""Gate a BENCH_*.json perf report against a committed baseline.

Compares the machine-portable ratios under "derived" (same-run comparisons:
the fit's pool speedup, shard contention, and sweep rates and restore times
over a reference pass the bench runs beside them) and exits non-zero when
the candidate regresses more than --tolerance below the baseline.
Absolute rates (consumers/sec, readings/sec) are recorded in the reports for
the trajectory but never gated: they measure the machine as much as the
code.  Improvements never fail the gate.

The pool speedups only compare like with like when both reports ran the
same pool width, so reports whose "pool_workers" differ are not compared:
the gate prints both widths and exits 2 (exit 1 means a regression).  Pin
the candidate's width with FDETA_THREADS to match the baseline's.

With --append-history, the candidate report is additionally archived under
bench/history/ keyed by the git revision recorded inside it, seeding the
long-run perf trajectory (one JSON per revision; re-runs of the same
revision overwrite, so the history holds the latest numbers per rev).

Usage:
    bench_compare.py BASELINE.json CANDIDATE.json [--tolerance 0.20]
                     [--keys fit_pool_speedup,warm_restore_vs_reference]
                     [--append-history [DIR]]
"""

import argparse
import json
import os
import sys


def load_report(path):
    """Returns (pool_workers, derived metrics) of a perf report."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    derived = doc.get("derived")
    if not isinstance(derived, dict) or not derived:
        sys.exit(f"{path}: no 'derived' metrics to compare")
    return doc.get("pool_workers"), {
        key: value
        for key, value in derived.items()
        if isinstance(value, (int, float))
    }


def append_history(candidate_path, history_dir):
    """Archive the candidate report under history_dir keyed by its git rev."""
    with open(candidate_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    rev = doc.get("git_rev")
    if not isinstance(rev, str) or not rev or rev == "unknown":
        sys.exit(
            f"{candidate_path}: no usable 'git_rev' to key the history entry"
        )
    bench = doc.get("bench", "bench")
    os.makedirs(history_dir, exist_ok=True)
    out_path = os.path.join(history_dir, f"{bench}_{rev}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=False)
        fh.write("\n")
    print(f"history: archived {candidate_path} -> {out_path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="maximum allowed fractional regression (default 0.20)",
    )
    parser.add_argument(
        "--keys",
        default="",
        help="comma-separated derived keys to gate (default: all shared)",
    )
    parser.add_argument(
        "--append-history",
        nargs="?",
        const=os.path.join(os.path.dirname(__file__), "..", "bench",
                           "history"),
        default=None,
        metavar="DIR",
        help="archive the candidate under DIR (default bench/history/) "
        "keyed by its git_rev",
    )
    args = parser.parse_args()

    if args.append_history is not None:
        append_history(args.candidate, args.append_history)

    base_workers, base = load_report(args.baseline)
    cand_workers, cand = load_report(args.candidate)
    if base_workers != cand_workers:
        print(
            f"MISMATCH: pool_workers {base_workers} in {args.baseline} vs "
            f"{cand_workers} in {args.candidate}; the reports measure "
            f"different pool widths and are not compared (set FDETA_THREADS "
            f"to the baseline's width)"
        )
        return 2
    keys = [k for k in args.keys.split(",") if k] or sorted(
        set(base) & set(cand)
    )
    if not keys:
        sys.exit("no shared derived metrics between baseline and candidate")

    failures = []
    print(f"{'metric':<32} {'baseline':>12} {'candidate':>12} {'delta':>8}")
    for key in keys:
        if key not in base or key not in cand:
            # A metric added (or retired) by this PR is trajectory, not a
            # regression; it starts gating once both sides carry it.
            print(f"{key:<32} {'-':>12} {'-':>12}   (unshared, skipped)")
            continue
        b, c = float(base[key]), float(cand[key])
        verdict = ""
        if b == 0:
            # A zero baseline ratio carries no regression information: equal
            # is equal and anything positive is an improvement, so neither
            # can fail the gate.
            delta = 0.0
            verdict = "  (zero baseline)" if c == 0 else "  improvement"
        else:
            delta = (c - b) / b
            if b > 0 and c < b * (1.0 - args.tolerance):
                verdict = "  REGRESSION"
                failures.append(f"{key} ({b:.4g} -> {c:.4g}, {delta:+.1%})")
        print(f"{key:<32} {b:>12.4g} {c:>12.4g} {delta:>+7.1%}{verdict}")

    if failures:
        detail = "\n".join(f"  {f}" for f in failures)
        print(
            f"\nFAIL: {len(failures)} derived metric(s) regressed more than "
            f"{args.tolerance:.0%} vs {args.baseline}:\n{detail}"
        )
        return 1
    print(f"\nOK: no derived metric regressed more than {args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
