"""Every citation into DESIGN.md, and every file or symbol a text names,
resolves.

The scanned texts are the code, tests, benchmarks, examples, workflows,
the verify skill, ``pytest.ini`` and DESIGN.md itself; ``bench/`` is not
scanned (it changes only with the benchmark), but a path into it must
exist like any other.  Five kinds of reference are checked:

- ``DESIGN.md §N`` / ``DESIGN §N`` (lists and ranges such as
  ``§1, §12`` or ``§6–7`` included) and, inside DESIGN.md, any bare
  ``§N``: a ``## §N`` heading exists;
- ``§N, "Title"`` (comma optional): the quoted title is a prefix of a
  ``### `` heading inside section N, after whitespace normalisation;
- a repo-relative path (``tests/helpers.py``, ``core/brisa.py`` under
  ``src/repro``, globs included) or a bare ``*.md`` name: the file
  exists.  Paths under the git-ignored output directories are exempt;
- ``path::name`` (``::Class::method`` chains included): each name is a
  ``def``, a ``class`` or a module-level assignment of that file;
- ``ROADMAP item N`` (``ROADMAP.md items 7 and 11``, ``item 3(b)``): N
  is a numbered open item of ROADMAP.md, not a ``*(Done in PR …)*``
  stub.

Comment markers are stripped and lines joined before matching, so a
reference may wrap across lines.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DESIGN = ROOT / "DESIGN.md"
ROADMAP = ROOT / "ROADMAP.md"

SCANNED_DIRS = ("src", "tests", "benchmarks", "examples", ".claude", ".github")
SCANNED_FILES = ("pytest.ini", "DESIGN.md")
SCANNED_SUFFIXES = {".py", ".md", ".yml"}
#: This file's probes are broken on purpose.
SKIPPED = "tests/test_doc_references.py"
#: Where a path relative to the package (``core/brisa.py``) resolves.
PATH_ROOTS = (ROOT, ROOT / "src" / "repro", ROOT / "src")
#: Git-ignored output directories: what a run writes there need not exist.
OUTPUT_DIRS = ("benchmarks/run/", "bench/out/")

SECTION_CLUSTER = re.compile(
    r"DESIGN(?:\.md)?,?\s+(§\d+(?:[–-]\d+)?(?:\s*(?:,|/|and)\s*§\d+(?:[–-]\d+)?)*)"
)
BARE_SECTION = re.compile(r"§(\d+)(?:[–-](\d+))?(?![\d-])")
SUBREF = re.compile(r"§(\d+),?\s+[\"“]([^\"”]+)[\"”]")
PATH = re.compile(
    r"(?<![\w./$*{}-])((?:[\w.*-]+/)+[\w*-][\w.*-]*\.(?:py|md|yml|json|txt|ini|dot))(?![\w/])"
)
BARE_MD = re.compile(r"(?<![\w./$*{}-])([A-Za-z][\w-]*\.md)\b")
SYMBOL = re.compile(r"((?:[\w.-]+/)*[\w.-]+\.py)::\s*(\w+(?:::\w+)*)")
COMMENT_MARK = re.compile(r"^\s*(?:#+|//|\*)?\s?")
ITEM = r"\d+(?:\([a-z]\))?"
ROADMAP_REF = re.compile(
    rf"ROADMAP(?:\.md)?,?\s+items?\s+({ITEM}(?:\s*(?:,|and)\s*{ITEM})*)"
)


def scanned_files() -> list[Path]:
    files = [ROOT / name for name in SCANNED_FILES]
    for top in SCANNED_DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if (
                path.is_file()
                and path.suffix in SCANNED_SUFFIXES
                and path.relative_to(ROOT).as_posix() != SKIPPED
            ):
                files.append(path)
    return files


def flatten(text: str) -> str:
    """One line per file: comment markers stripped, lines joined by a
    space, so a citation wrapped across comment lines still matches."""
    return " ".join(COMMENT_MARK.sub("", line) for line in text.splitlines())


def norm(text: str) -> str:
    return " ".join(text.split())


def design_sections() -> dict[int, list[str]]:
    """``## §N`` -> the normalised ``### `` headings inside it."""
    sections: dict[int, list[str]] = {}
    current = None
    for line in DESIGN.read_text(encoding="utf-8").splitlines():
        head = re.match(r"## §(\d+)\b", line)
        if head:
            current = int(head.group(1))
            sections[current] = []
        elif line.startswith("### ") and current is not None:
            sections[current].append(norm(line[4:]))
        elif line.startswith("## "):
            current = None
    return sections


def roadmap_items(text: str) -> dict[int, bool]:
    """ROADMAP.md's numbered open items -> whether the item is a
    ``*(Done in PR …)*`` stub."""
    start = text.find("\n## Open items")
    end = text.find("\n## ", start + 1)
    section = text[start:end] if start >= 0 else ""
    return {
        int(m.group(1)): m.group(2).startswith("*(Done in PR")
        for m in re.finditer(r"^(\d+)\.\s+(.*)$", section, re.MULTILINE)
    }


def expand(cluster: str) -> list[int]:
    numbers = []
    for m in BARE_SECTION.finditer(cluster):
        lo = int(m.group(1))
        hi = int(m.group(2)) if m.group(2) else lo
        numbers.extend(range(lo, hi + 1))
    return numbers


def section_refs(rel: str, flat: str) -> list[int]:
    if rel == "DESIGN.md":
        # Paper sections are Roman (§II-F); a digit is a DESIGN section.
        return expand(flat)
    refs = []
    for m in SECTION_CLUSTER.finditer(flat):
        refs.extend(expand(m.group(1)))
    return refs


def path_exists(ref: str) -> bool:
    if ref.startswith(OUTPUT_DIRS):
        return True
    return any(any(base.glob(ref)) if "*" in ref else (base / ref).exists()
               for base in PATH_ROOTS)


def defines(source: str, name: str) -> bool:
    return re.search(
        rf"^\s*(?:async\s+def|def|class)\s+{name}\b|^{name}\s*(?::[^=\n]*)?=",
        source,
        re.MULTILINE,
    ) is not None


def resolve_file(ref: str) -> Path | None:
    for base in PATH_ROOTS:
        if (base / ref).is_file():
            return base / ref
    return None


def problems_in(
    rel: str,
    text: str,
    sections: dict[int, list[str]],
    items: dict[int, bool] | None = None,
) -> list[str]:
    """What does not resolve in one text (``rel`` is its repo path);
    ``items`` defaults to ROADMAP.md's."""
    if items is None:
        items = roadmap_items(ROADMAP.read_text(encoding="utf-8"))
    flat = flatten(text)
    problems = []
    for m in ROADMAP_REF.finditer(flat):
        for n in map(int, re.findall(r"\d+", m.group(1))):
            if n not in items:
                problems.append(f"{rel}: ROADMAP item {n} does not exist")
            elif items[n]:
                problems.append(f"{rel}: ROADMAP item {n} is a done stub")
    for n in section_refs(rel, flat):
        if n not in sections:
            problems.append(f"{rel}: DESIGN.md §{n} has no '## §{n}' heading")
    for m in SUBREF.finditer(flat):
        n, title = int(m.group(1)), norm(m.group(2))
        preceding = flat[max(0, m.start() - 16) : m.start()]
        cited = rel == "DESIGN.md" or re.search(r"DESIGN(?:\.md)?,?\s+$", preceding)
        if cited and not any(h.startswith(title) for h in sections.get(n, ())):
            problems.append(f'{rel}: §{n}, "{title}" names no ### heading of §{n}')
    for m in PATH.finditer(flat):
        if not path_exists(m.group(1)):
            problems.append(f"{rel}: path {m.group(1)} does not exist")
    for m in BARE_MD.finditer(flat):
        if not path_exists(m.group(1)):
            problems.append(f"{rel}: {m.group(1)} does not exist")
    for m in SYMBOL.finditer(flat):
        target = resolve_file(m.group(1))
        if target is None:
            continue  # reported as a missing path above
        source = target.read_text(encoding="utf-8")
        for name in m.group(2).split("::"):
            if not defines(source, name):
                problems.append(f"{rel}: {m.group(1)}::{name} is not defined there")
    return problems


def test_every_design_section_is_numbered_once():
    numbers = [int(m) for m in re.findall(r"^## §(\d+)\b", DESIGN.read_text(), re.MULTILINE)]
    assert numbers == sorted(set(numbers)), numbers


def test_every_reference_resolves():
    sections = design_sections()
    items = roadmap_items(ROADMAP.read_text(encoding="utf-8"))
    problems = []
    for path in scanned_files():
        rel = path.relative_to(ROOT).as_posix()
        problems += problems_in(rel, path.read_text(encoding="utf-8"), sections, items)
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize(
    "text, problem",
    [
        ("see EXPERIMENTS.md", "EXPERIMENTS.md does not exist"),
        ("# (DESIGN.md\n# §99)", "DESIGN.md §99 has no"),
        ("DESIGN.md §1, §98", "DESIGN.md §98 has no"),
        ("DESIGN.md §6–99", "DESIGN.md §99 has no"),
        ('DESIGN.md §1, "No such heading"', '§1, "No such heading" names no'),
        ("tests/no_such_file.py", "path tests/no_such_file.py does not exist"),
        ("tests/helpers.py::no_such_helper", "tests/helpers.py::no_such_helper is not"),
    ],
)
def test_the_checker_catches(text, problem):
    problems = problems_in("tests/probe.py", text, design_sections())
    assert any(problem in p for p in problems), problems


def test_the_checker_resolves_roadmap_items():
    """Items come from the numbered list under ``## Open items`` only."""
    roadmap = (
        "1. **An aim, not an item.**\n"
        "## Open items\n"
        "3. **An open item.**\n"
        "   (a) a sub-item\n"
        "4. *(Done in PR 9: what landed.)*\n"
        "## Recent\n"
        "5. **Not an item either.**\n"
    )
    items = roadmap_items(roadmap)
    assert items == {3: False, 4: True}
    sections = design_sections()

    def problems(text):
        return problems_in("tests/probe.py", text, sections, items)

    assert problems("ROADMAP item 3(a); ROADMAP.md item 3") == []
    assert problems("# see ROADMAP\n# item 1") == [
        "tests/probe.py: ROADMAP item 1 does not exist"
    ]
    assert problems("ROADMAP items 3 and 5") == [
        "tests/probe.py: ROADMAP item 5 does not exist"
    ]
    assert problems("ROADMAP item 4's numbers") == [
        "tests/probe.py: ROADMAP item 4 is a done stub"
    ]


def test_the_checker_accepts_what_exists():
    text = (
        "DESIGN.md §1, §12 and DESIGN §6–7; core/brisa.py, ROADMAP.md, "
        "benchmarks/run/BENCH_*.json, tests/helpers.py::cache_free"
    )
    assert problems_in("tests/probe.py", text, design_sections()) == []
