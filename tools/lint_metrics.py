#!/usr/bin/env python3
"""Metric- and span-name lint: keep src/ and docs/OBSERVABILITY.md in sync.

Extracts every metric registration literal in src/ --
``counter("...")``, ``gauge("...")``, ``histogram("...")``, and the
``STAT(member, "...")`` entries of the stats-struct X-macro lists
(skyway/sender.hh, skyway/inputbuffer.hh) -- and every
backticked dotted metric name in the "Metric namespace" section of
docs/OBSERVABILITY.md, then fails if either set has an entry the other
lacks. Span names get the same two-way check: every
``SKYWAY_SPAN("...")`` literal in src/ against the backticked names in
the docs' "Instrumented spans:" list. Registered as the `lint-metrics`
CTest target.
"""

import pathlib
import re
import sys

REG_RE = re.compile(
    r'\b(?:(?:counter|gauge|histogram)\(|STAT\(\s*\w+\s*,)\s*"([a-z0-9_.]+)"'
)
DOC_RE = re.compile(r"`([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)`")
SPAN_RE = re.compile(r'\bSKYWAY_SPAN\(\s*"([A-Za-z0-9_.]+)"')
DOC_SPAN_RE = re.compile(r"`([a-z][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)+)`")


def code_names(src: pathlib.Path, pattern: re.Pattern) -> dict:
    names = {}
    for path in sorted(src.rglob("*.cc")) + sorted(src.rglob("*.hh")):
        for i, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1
        ):
            for name in pattern.findall(line):
                names.setdefault(name, f"{path}:{i}")
    return names


def doc_names(doc: pathlib.Path) -> dict:
    text = doc.read_text(encoding="utf-8")
    start = text.find("### Metric namespace")
    if start < 0:
        sys.exit(f"lint-metrics: no 'Metric namespace' section in {doc}")
    end = text.find("\n## ", start)
    section = text[start : end if end > 0 else len(text)]
    names = {}
    for i, line in enumerate(section.splitlines(), 1):
        for name in DOC_RE.findall(line):
            names.setdefault(name, f"{doc} (section line {i})")
    return names


def doc_span_names(doc: pathlib.Path) -> dict:
    """Backticked names in the "Instrumented spans:" paragraph."""
    text = doc.read_text(encoding="utf-8")
    start = text.find("Instrumented spans:")
    if start < 0:
        sys.exit(f"lint-metrics: no 'Instrumented spans:' list in {doc}")
    end = text.find("\n\n", start)
    para = text[start : end if end > 0 else len(text)]
    return {name: f"{doc} (span list)" for name in DOC_SPAN_RE.findall(para)}


def drift(kind: str, code: dict, docs: dict) -> list:
    failures = []
    for name in sorted(set(code) - set(docs)):
        failures.append(
            f"{kind} in code but missing from the docs: "
            f"{name} ({code[name]})"
        )
    for name in sorted(set(docs) - set(code)):
        failures.append(
            f"{kind} documented but never used in src/: "
            f"{name} ({docs[name]})"
        )
    return failures


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    doc = root / "docs" / "OBSERVABILITY.md"
    code = code_names(root / "src", REG_RE)
    spans = code_names(root / "src", SPAN_RE)

    failures = drift("metric", code, doc_names(doc))
    failures += drift("span", spans, doc_span_names(doc))

    if failures:
        print("lint-metrics FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(
        f"lint-metrics OK: {len(code)} metric names and {len(spans)} "
        f"span names match between src/ and docs/OBSERVABILITY.md"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
