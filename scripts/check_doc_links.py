"""Docs link check: every file the repo's markdown names exists.

Scans README.md and docs/**/*.md and fails (exit 1) when a relative
markdown link/image target, or a repo path inside an inline code span
or fenced block (`` `benchmarks/e2e/run.py` ``,
`` `python examples/quickstart.py` ``, a bare `` `bench_*.py` `` meaning
``benchmarks/``), does not exist in the checkout.  External links
(http/https/mailto) and pure in-page anchors are skipped — this is a
rot check for file references, not a crawler.

Run from anywhere:  python scripts/check_doc_links.py
"""

from __future__ import annotations

import os
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
CODE_SPAN = re.compile(r"`([^`]+)`")
#: Repo-root-relative paths named inside code; a bare
#: ``bench_x.py`` is shorthand for ``benchmarks/bench_x.py``.
CODE_PATH = re.compile(
    r"(?<![\w./-])"
    r"((?:src|tests|benchmarks|examples|scripts|docs)/[\w./-]+\.(?:py|md)"
    r"|bench_\w+\.py)\b"
)


def doc_files() -> list[Path]:
    docs = [REPO / "README.md"]
    docs.extend(sorted((REPO / "docs").glob("**/*.md")))
    return [d for d in docs if d.exists()]


def check(path: Path) -> list[str]:
    problems = []
    where = os.path.relpath(path, REPO)
    fenced = False
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        for target in LINK.findall(line):
            if target.startswith(SKIP_PREFIXES):
                continue
            candidate = target.split("#", 1)[0]
            if not candidate:
                continue
            resolved = (path.parent / candidate).resolve()
            if not resolved.exists():
                problems.append(f"{where}:{number}: broken link -> {target}")
        for span in [line] if fenced else CODE_SPAN.findall(line):
            for named in CODE_PATH.findall(span):
                target = named if "/" in named else f"benchmarks/{named}"
                if not (REPO / target).exists():
                    problems.append(f"{where}:{number}: no such file -> `{named}`")
    return problems


def main() -> int:
    files = doc_files()
    problems = [p for f in files for p in check(f)]
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"checked {len(files)} file(s): "
          f"{'OK' if not problems else f'{len(problems)} broken link(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
