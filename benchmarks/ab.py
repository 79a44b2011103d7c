"""Paired A/B throughput gate: perfbench on two revisions, run in pairs.

Run from a git checkout::

    python3 benchmarks/ab.py BASE HEAD [--workload sim ...] [--out ab.json]

Each side is ``src/`` of its revision beside the *head's* ``perfbench/``,
both taken with ``git archive``, so the benchmark code is identical on
both sides.  Per workload (default: every workload in BENCHMARK.json)
the driver runs ``PAIRS`` pairs of fresh-process ``perfbench/run.py``
runs of ``BENCHMARK.json``'s ``run_seconds`` on one seed; the base runs
first in even pairs, the head in odd ones.  For every end-to-end metric
it reports each side's median and quartiles, the median per-pair ratio
(head over base) and the pairs the head won, and judges:

* **gain** -- the head wins at least nine tenths of the pairs (ties
  count for neither side) and the medians differ by more than the
  base's interquartile range;
* **regression** -- the head's median is worse than the base's by more
  than the bound: ``BOUNDS`` where it names the pairing, else the
  metric's ``bound`` in BENCHMARK.json;
* **failure** -- a run that crashed, printed ``"correct": false`` or
  counted ``failed > 0``.

Exits 1 on any regression or failure, 0 otherwise; a gain is reported,
never required.  ``--out`` writes the verdicts and every run's metric
values (in pair order) as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PAIRS = 10
SEED = 1
#: Tighter than BENCHMARK.json's bound: the throughput budget of the
#: simulator and replay gate this driver replaced.
BOUNDS = {
    (workload, "events_per_s"): 0.20
    for workload in ("sim", "replay", "replay-bounded")
}
#: A gain needs the head to win at least this share of the pairs.
WIN_SHARE = 0.9


def _git(*args: str) -> bytes:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True
    ).stdout


def _checkout(rev: str, head: str, into: Path) -> None:
    """``src/`` of ``rev`` and ``perfbench/`` of ``head`` in ``into``."""
    into.mkdir()
    for tree, path in ((rev, "src"), (head, "perfbench")):
        subprocess.run(
            ["tar", "-x", "-C", str(into)],
            input=_git("archive", tree, path),
            check=True,
        )


def _run(side: Path, workload: str) -> dict:
    """One fresh-process perfbench run; its last line, or a failure."""
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", str(SPEC["run_seconds"]),
        ],
        cwd=side,
        capture_output=True,
        text=True,
    )
    lines = done.stdout.splitlines()
    if done.returncode or not lines:
        return {"correct": False, "error": done.stderr[-2000:]}
    return json.loads(lines[-1])


def _failed(run: dict) -> bool:
    return run.get("correct") is not True or run.get("failed", 1) > 0


def _spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(base: list, head: list, better: str, bound: float) -> dict:
    """The verdict on one metric: pair i ran base[i] and head[i]."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    b, h = _spread(base), _spread(head)
    return {
        "base": b,
        "head": h,
        "ratio": statistics.median(y / x for x, y in zip(base, head)),
        "wins": wins,
        "bound": bound,
        "gain": wins >= WIN_SHARE * len(base)
        and sign * (h["median"] - b["median"]) > b["q3"] - b["q1"],
        "regression": sign * (b["median"] - h["median"]) > bound * b["median"],
    }


def judge(workload: str, pairs: list) -> dict:
    """The gate's verdict on one workload's ``(base, head)`` run pairs."""
    failed = sum(_failed(run) for pair in pairs for run in pair)
    metrics = {}
    if all("metrics" in run for pair in pairs for run in pair):
        for spec in SPEC["end_to_end"]:
            name = spec["name"]
            metrics[name] = compare(
                [base["metrics"][name]["value"] for base, _ in pairs],
                [head["metrics"][name]["value"] for _, head in pairs],
                spec["better"],
                BOUNDS.get((workload, name), spec["bound"]),
            )
    regressed = any(m["regression"] for m in metrics.values())
    return {
        "failed_runs": failed,
        "ok": len(metrics) == len(SPEC["end_to_end"])
        and not failed and not regressed,
        "metrics": metrics,
        "errors": [run["error"] for pair in pairs for run in pair
                   if "error" in run],
    }


def _report(workload: str, verdict: dict) -> None:
    print(f"{workload}: {verdict['failed_runs']} failed run(s)")
    for name, m in verdict["metrics"].items():
        sides = "  ".join(
            f"{side} {m[side]['median']:.4g} [{m[side]['q1']:.4g}, "
            f"{m[side]['q3']:.4g}]"
            for side in ("base", "head")
        )
        tag = "REGRESSION" if m["regression"] else "gain" if m["gain"] else "-"
        print(f"  {name:<17} {sides}  ratio {m['ratio']:.3f}  "
              f"wins {m['wins']}/{len(m['base']['values'])}  {tag}")


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="base revision")
    parser.add_argument("head", help="head revision")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", help="write the JSON report here")
    args = parser.parse_args(argv)

    result = {
        side: {"rev": rev,
               "src": _git("rev-parse", f"{rev}:src").decode().strip()}
        for side, rev in (("base", args.base), ("head", args.head))
    }
    result.update(pairs=PAIRS, seconds=SPEC["run_seconds"], seed=SEED,
                  workloads={})
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        base, head = Path(scratch, "base"), Path(scratch, "head")
        _checkout(args.base, args.head, base)
        _checkout(args.head, args.head, head)
        for workload in args.workload or names:
            pairs = []
            for i in range(PAIRS):
                first, second = (base, head) if i % 2 == 0 else (head, base)
                runs = {first: _run(first, workload)}
                runs[second] = _run(second, workload)
                pairs.append((runs[base], runs[head]))
                print(f"{workload} pair {i + 1}/{PAIRS}", file=sys.stderr)
            verdict = judge(workload, pairs)
            result["workloads"][workload] = verdict
            _report(workload, verdict)
    result["ok"] = all(v["ok"] for v in result["workloads"].values())
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print("A/B gate " + ("passed" if result["ok"] else "FAILED"))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
