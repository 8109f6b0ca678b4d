"""Every backticked ``repro.…`` name and repo path in the docs resolves,
and so does every ``from repro… import …`` line in their code blocks.

README.md, DESIGN.md and BENCHMARKS.md point readers at the code by
name, so a rename that forgets them fails here.  MIGRATION.md names
removed API on purpose and perfbench/README.md belongs to the benchmark,
so neither is read.
"""

import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "BENCHMARKS.md")
#: A documented path starts with one of these tracked directories (or
#: ``repro/``, read under ``src/``); generated output such as ``site/``
#: is not checked.
TOP = ("src", "tests", "examples", "perfbench", "benchmarks", ".github", "repro")

FENCE = re.compile(r"```.*?```", re.S)
IMPORT = re.compile(r"^\s*from (repro[\w.]*) import ([\w, ]+)$", re.M)
SPAN = re.compile(r"(?<!`)`([^`\n]+)`(?!`)")
NAME = re.compile(r"repro(?:\.\w+)+")
PATH = re.compile(r"[\w.-]+(?:/[\w.-]*)+")
LINES = re.compile(r":\d+(?:[–-]\d+)?$")  # a ``path:12`` or ``path:3–9`` suffix


def references():
    """``(doc, reference)`` for every name or path the docs backtick."""
    refs = []
    for doc in DOCS:
        text = FENCE.sub("", (ROOT / doc).read_text())
        for span in SPAN.findall(text):
            span = LINES.sub("", span.strip())
            name = NAME.match(span)
            if name:
                refs.append((doc, name.group(0)))
            elif PATH.fullmatch(span) and span.split("/")[0] in TOP:
                refs.append((doc, span))
    return refs


def code_imports():
    """``(doc, "module.name")`` for every name a code block imports from
    ``repro``."""
    refs = []
    for doc in DOCS:
        for block in FENCE.findall((ROOT / doc).read_text()):
            for module, names in IMPORT.findall(block):
                refs += [
                    (doc, f"{module}.{name.split()[0]}") for name in names.split(",")
                ]
    return refs


def resolves(ref: str) -> bool:
    if "/" in ref:
        return (ROOT / "src" / ref if ref.startswith("repro/") else ROOT / ref).exists()
    parts = ref.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_every_doc_reference_resolves():
    refs = references()
    assert len(refs) > 100, "the extractor found too few references"
    assert [(doc, ref) for doc, ref in refs if not resolves(ref)] == []


def test_every_code_block_import_resolves():
    imports = code_imports()
    assert len(imports) > 5, "the extractor found too few imports"
    assert [(doc, ref) for doc, ref in imports if not resolves(ref)] == []
