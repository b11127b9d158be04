"""Check that reports stay byte-identical to a base revision's.

Runs `scripts/report_hashes.py` (this tree's copy, so that both sides hash the
same runs) on this tree's `src` and on the `src` of a `git worktree` of the
base revision, at one and at two BLAS threads.  Any hash that differs between
the two trees at the same thread count fails the check, unless its name is
listed in `scripts/report_hashes_allowed.txt` (one name a line; `#` starts a
comment), which is how a change that means to alter or remove a report says
so.  A listed name fails the check too when neither tree prints such an output
or its hash equals the base's at both thread counts, so a stale entry cannot
hide a later change.  A hash of this tree that differs between one and two
threads always fails.  Run from a git checkout with the base revision fetched:

    python3 scripts/check_report_hashes.py BASE_REVISION
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "report_hashes.py"
ALLOWED = ROOT / "scripts" / "report_hashes_allowed.txt"
THREADS = ("1", "2")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def allowed_names() -> set[str]:
    lines = ALLOWED.read_text(encoding="utf-8").splitlines()
    return {name for name in (line.split("#", 1)[0].strip() for line in lines) if name}


def report_hashes(src: Path, threads: str, workdir: str) -> dict[str, str]:
    """The hashes of `src`'s package at `threads` BLAS threads; fails unless
    `kmbdf` is imported from `src`."""
    env = {**os.environ, "PYTHONPATH": str(src), **dict.fromkeys(THREAD_VARS, threads)}
    where = subprocess.run([sys.executable, "-c", "import kmbdf; print(kmbdf.__file__)"],
                           env=env, cwd=workdir, check=True, capture_output=True, text=True)
    if not Path(where.stdout.strip()).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"kmbdf imported from {where.stdout.strip()}, not from {src}")
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(SCRIPT)],
                         env=env, cwd=workdir, check=True, capture_output=True, text=True)
    return json.loads(run.stdout)


def differing(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the revision to compare with, e.g. origin/main or HEAD~1")
    args = parser.parse_args(argv)
    allowed, failed, heads, changed, names = allowed_names(), False, [], set(), set()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "base"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", str(tree), args.base],
                       check=True, capture_output=True)
        try:
            for threads in THREADS:
                head = report_hashes(ROOT / "src", threads, tmp)
                heads.append(head)
                base = report_hashes(tree / "src", threads, tmp)
                names |= head.keys() | base.keys()
                diff = differing(head, base)
                changed.update(diff)
                unexpected = [k for k in diff if k not in allowed]
                failed |= bool(unexpected)
                print(json.dumps({"threads": threads, "hashes": len(head),
                                  "differ": diff, "unexpected": unexpected}))
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=True)
    by_threads = differing(*heads)
    unknown = sorted(allowed - names)
    unchanged = sorted((allowed & names) - changed)
    print(json.dumps({"differ_between_threads": by_threads,
                      "allowed_unknown": unknown, "allowed_unchanged": unchanged}))
    failed |= bool(by_threads or unknown or unchanged)
    if failed:
        print(f"reports differ between threads or from {args.base}, or "
              f"{ALLOWED.relative_to(ROOT)} names an output that is unknown or unchanged; "
              f"it must name exactly the outputs that a change alters on purpose", file=sys.stderr)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
