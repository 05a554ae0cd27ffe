#!/usr/bin/env python
"""Fail on broken relative links and stale file paths in the repo's Markdown docs.

Scans the documentation tier — ``README.md``, ``docs/*.md``, the
package-level READMEs and the verification recipe
(``.claude/skills/verify/SKILL.md``, which names test files and scripts) —
for two kinds of reference to the working tree:

* Markdown links: every *relative* target must exist (anchors and external
  ``http(s)``/``mailto`` targets are ignored; absolute paths are rejected
  as unportable);
* backticked repo paths: every word of an inline code span that starts with
  one of the top-level trees (``src/``, ``tests/``, ``benchmarks/``,
  ``scripts/``, ``docs/``, ``ledger/``, ``examples/``) must name a file or
  directory that exists, after dropping a pytest node id (``::Test``) or a
  line reference (``:42``).  Globs and placeholders (``*``, ``{a,b}``,
  ``<dir>``) are skipped.

Run by the CI lint job and by ``tests/test_docs_links.py``, so a file
rename that orphans a docs link or path fails before merge.

Usage::

    python scripts/check_doc_links.py            # checks the default set
    python scripts/check_doc_links.py FILE...    # checks specific files
"""

from __future__ import annotations

import glob
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Inline Markdown links: [text](target); images share the syntax.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Inline code spans (single backticks; a span never crosses a line).
_CODE_RE = re.compile(r"`([^`\n]+)`")

#: The top-level trees a backticked path is checked under.
_PATH_PREFIXES = ("src/", "tests/", "benchmarks/", "scripts/", "docs/", "ledger/", "examples/")

#: Characters that make a path a glob or a placeholder, which is not checked.
_PATTERN_CHARS = frozenset("*?[]{}<>…")

DEFAULT_DOCS = (
    ["README.md", "ROADMAP.md"]
    + sorted(glob.glob("docs/*.md", root_dir=REPO_ROOT))
    + ["benchmarks/README.md", "src/repro/engine/README.md", ".claude/skills/verify/SKILL.md"]
)


def backticked_paths(text: str) -> list:
    """The repo paths the inline code spans of ``text`` name, in order."""
    paths = []
    for span in _CODE_RE.findall(text):
        for word in span.split():
            if not word.startswith(_PATH_PREFIXES) or _PATTERN_CHARS.intersection(word):
                continue
            paths.append(re.split(r"::|:\d", word, maxsplit=1)[0].rstrip(".,;:)"))
    return paths


def check_file(path: str) -> list:
    """Broken-link and missing-path messages for one Markdown file (empty when clean)."""
    problems = []
    full = os.path.join(REPO_ROOT, path)
    with open(full, encoding="utf-8") as handle:
        text = handle.read()
    for target in backticked_paths(text):
        if not os.path.exists(os.path.join(REPO_ROOT, target)):
            problems.append(f"{path}: backticked path {target!r} does not exist")
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        if target.startswith("/"):
            problems.append(f"{path}: absolute link {target!r} is unportable")
            continue
        resolved = os.path.normpath(
            os.path.join(os.path.dirname(full), target.split("#", 1)[0])
        )
        if not os.path.exists(resolved):
            problems.append(f"{path}: broken relative link {target!r}")
    return problems


def main(argv) -> int:
    """Check every given (or default) doc; print problems; non-zero on any."""
    docs = argv or [doc for doc in DEFAULT_DOCS if os.path.exists(os.path.join(REPO_ROOT, doc))]
    problems = []
    for path in docs:
        problems.extend(check_file(path))
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} broken doc link(s) or path(s)", file=sys.stderr)
        return 1
    print(f"doc links and paths OK ({len(docs)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
