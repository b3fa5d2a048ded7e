"""Regenerate QUERIES.md from the QUERIES dict + docstrings.

Usage: python tools/gen_queries_md.py
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from eristropy_ray.pipelines import queries as q  # noqa: E402


QUERIES_MD = Path(__file__).resolve().parent.parent / "QUERIES.md"


def queries_md() -> str:
    """The QUERIES.md text for the current registry."""
    lines = [
        "# Query surface — operator index",
        "",
        "One row per `queries()` entry (the driver gate runs all of them at",
        "sf0.01; `oracle` = hash-exact DuckDB twin, `rows-only` = pytest-backed).",
        "Docstring first lines are the authoritative description; this table is",
        "generated from them (tools/gen_queries_md.py).",
        "",
        "| Query | Oracle | What / scale shape |",
        "|---|---|---|",
    ]
    for name, fn in q.QUERIES.items():
        doc = inspect.getdoc(fn) or ""
        first = " ".join(doc.split("\n\n")[0].split())
        if len(first) > 220:
            first = first[:217] + "..."
        has = "oracle" if name in q.ORACLE_SQL else "rows-only"
        lines.append(f"| `{name}` | {has} | {first} |")
    lines.append("")
    return "\n".join(lines)


def main() -> None:
    QUERIES_MD.write_text(queries_md())


if __name__ == "__main__":
    main()
