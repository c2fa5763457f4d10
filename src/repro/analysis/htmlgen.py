"""Tiny deterministic HTML + inline-SVG builders for the report.

No templating engine, no third-party JS or CSS: the report subsystem
emits a single self-contained file a reviewer can open from a CI
artifact, attach to a PR, or diff byte-for-byte against a golden copy.
Everything here is a pure function of its arguments — same inputs, same
bytes — which is the property the golden-file tests pin.

Numbers are formatted through :func:`fmt` (fixed ``%g``-style rendering,
no locale), text through :func:`esc` (HTML entity escaping), charts as
hand-rolled inline SVG (:func:`bar_chart`) sized in plain integers so no
float jitter ever reaches an attribute.
"""

from __future__ import annotations

import html
from typing import Sequence

__all__ = [
    "bar_chart",
    "esc",
    "fmt",
    "page",
    "section",
    "table",
]

#: the entire stylesheet, inlined into every page — intentionally small
STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 64rem;
       color: #1a1a2e; line-height: 1.45; }
h1 { border-bottom: 2px solid #1a1a2e; padding-bottom: .3rem; }
h2 { margin-top: 2.2rem; }
table { border-collapse: collapse; margin: .8rem 0; }
th, td { border: 1px solid #b8b8c8; padding: .25rem .6rem; text-align: left; }
th { background: #eef; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.note { color: #555; font-size: .9em; }
svg { margin: .4rem 0; }
""".strip()


def esc(text: object) -> str:
    """HTML-escape anything (rendered via ``str``)."""
    return html.escape(str(text), quote=True)


def fmt(value: object, digits: int = 4) -> str:
    """Deterministic number rendering (falls back to ``str`` for non-floats).

    Floats use ``%.{digits}g`` — locale-free, exponent-stable, and short
    enough to keep tables readable.  Integers (and bools) print as-is.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "-"
    return f"%.{digits}g" % value


def table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    numeric: Sequence[int] = (),
) -> str:
    """An HTML table; columns listed in ``numeric`` are right-aligned.

    Cell values pass through :func:`fmt` then :func:`esc`.
    """
    numeric_set = set(numeric)
    parts = ["<table>", "<tr>"]
    parts.extend(f"<th>{esc(header)}</th>" for header in headers)
    parts.append("</tr>")
    for row in rows:
        parts.append("<tr>")
        for column, cell in enumerate(row):
            css = ' class="num"' if column in numeric_set else ""
            parts.append(f"<td{css}>{esc(fmt(cell))}</td>")
        parts.append("</tr>")
    parts.append("</table>")
    return "".join(parts)


def section(title: str, *bodies: str) -> str:
    """An ``<h2>`` section wrapping pre-rendered body fragments."""
    return f"<h2>{esc(title)}</h2>\n" + "\n".join(bodies)


def page(title: str, *bodies: str, generated_from: str = "") -> str:
    """A complete standalone HTML document.

    ``generated_from`` is a *stable* provenance line (e.g. a store path or
    record count) — never a timestamp, which would break byte-stability.
    """
    provenance = (
        f'<p class="note">{esc(generated_from)}</p>' if generated_from else ""
    )
    body = "\n".join(bodies)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        f"<title>{esc(title)}</title>\n<style>\n{STYLE}\n</style>\n</head>\n"
        f"<body>\n<h1>{esc(title)}</h1>\n{provenance}\n{body}\n</body>\n</html>\n"
    )


# ---------------------------------------------------------------------- #
# inline SVG charts
# ---------------------------------------------------------------------- #
_BAR_COLORS = ("#4363d8", "#3cb44b", "#e6194b", "#911eb4", "#f58231", "#469990")


def _scaled(value: float, maximum: float, span: int) -> int:
    """Map ``value`` in [0, maximum] onto integer pixels in [0, span]."""
    if maximum <= 0:
        return 0
    return int(round(span * (value / maximum)))


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 640,
    bar_height: int = 18,
    caption: str = "",
) -> str:
    """A horizontal bar chart as inline SVG (one bar per label).

    Bars are scaled against the maximum value; every coordinate is an
    integer, so rendering is byte-stable.  Empty input renders an empty
    note instead of degenerate SVG.
    """
    if not labels:
        return '<p class="note">no data</p>'
    label_span = 220
    value_span = width - label_span - 80
    maximum = max(values) if values else 0.0
    row = bar_height + 6
    height = row * len(labels) + 8
    parts = [
        f'<svg width="{width}" height="{height}" role="img" '
        f'aria-label="{esc(caption or "bar chart")}">'
    ]
    for index, (label, value) in enumerate(zip(labels, values)):
        y = 4 + index * row
        bar = max(1, _scaled(value, maximum, value_span))
        color = _BAR_COLORS[index % len(_BAR_COLORS)]
        parts.append(
            f'<text x="{label_span - 8}" y="{y + bar_height - 5}" '
            f'text-anchor="end" font-size="12">{esc(label)}</text>'
        )
        parts.append(
            f'<rect x="{label_span}" y="{y}" width="{bar}" '
            f'height="{bar_height}" fill="{color}"></rect>'
        )
        parts.append(
            f'<text x="{label_span + bar + 6}" y="{y + bar_height - 5}" '
            f'font-size="12">{esc(fmt(float(value)))}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)
