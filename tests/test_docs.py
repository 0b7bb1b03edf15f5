"""Docs stay navigable: the documented corpus exists and its links resolve.

The CI docs job runs this module (plus every ``examples/*.py`` script) so a moved
file or a renamed doc page fails the build instead of silently breaking the
README's navigation.  Only intra-repo links are checked — external URLs are
deliberately left alone (no network in CI).
"""

from __future__ import annotations

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: markdown inline links: [text](target); bare anchors and images included
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _doc_files() -> list[Path]:
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def test_documentation_corpus_exists():
    names = {path.name for path in _doc_files()}
    assert "README.md" in names
    assert "architecture.md" in names
    assert "performance.md" in names


def test_intra_repo_links_resolve():
    missing: list[str] = []
    for doc in _doc_files():
        for match in LINK_PATTERN.finditer(doc.read_text()):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue  # pure in-page anchor
            resolved = (doc.parent / path_part).resolve()
            if not resolved.exists():
                missing.append(f"{doc.relative_to(REPO_ROOT)} -> {target}")
    assert not missing, "broken intra-repo links:\n" + "\n".join(missing)


def test_quickstart_example_is_runnable_source():
    quickstart = REPO_ROOT / "examples" / "quickstart.py"
    assert quickstart.exists()
    compile(quickstart.read_text(), str(quickstart), "exec")
