"""The docs tier must not contain broken relative links or stale file paths.

Thin pytest wrapper around ``scripts/check_doc_links.py`` (which CI also
runs as a lint step), so a rename that orphans a README/docs link or a
backticked ``src/``/``tests/``/... path fails the tier-1 suite locally too.
"""

import importlib.util
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_doc_links", os.path.join(REPO_ROOT, "scripts", "check_doc_links.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_have_no_broken_relative_links():
    checker = _load_checker()
    problems = []
    for path in checker.DEFAULT_DOCS:
        if os.path.exists(os.path.join(checker.REPO_ROOT, path)):
            problems.extend(checker.check_file(path))
    assert not problems, "\n".join(problems)


def test_default_set_covers_the_docs_tier():
    checker = _load_checker()
    assert "README.md" in checker.DEFAULT_DOCS
    assert "docs/architecture.md" in checker.DEFAULT_DOCS
    assert "docs/benchmarks.md" in checker.DEFAULT_DOCS
    assert ".claude/skills/verify/SKILL.md" in checker.DEFAULT_DOCS


def test_the_verification_recipe_names_only_existing_paths():
    checker = _load_checker()
    assert checker.check_file(".claude/skills/verify/SKILL.md") == []


def test_a_backticked_path_to_a_missing_file_fails(tmp_path):
    checker = _load_checker()
    doc = tmp_path / "doc.md"
    doc.write_text(
        "| the facade | `src/repro/api.py` |\n"
        "Run `tests/test_docs_links.py::test_default_set_covers_the_docs_tier`,\n"
        "`python scripts/check_doc_links.py docs/api.md` or `ledger/run.py:1`;\n"
        "globs and placeholders (`src/repro/*.py`, `src/repro/{rdf,sparql}`,\n"
        "`ledger/<work dir>/graph.nt`) and other words (`harness.py`) pass.\n",
        encoding="utf-8",
    )
    assert checker.check_file(str(doc)) == [
        f"{doc}: backticked path 'src/repro/api.py' does not exist"
    ]
    assert checker.main([str(doc)]) == 1
