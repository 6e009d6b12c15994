"""Self-contained static HTML reports for sweep analyses.

One call — :func:`render_html_report` — turns a
:class:`~repro.analysis.streaming.SweepAnalysis` plus its rendered
figures into a single HTML file with **no external references**: figures
are inlined as base64 ``data:`` URIs, styling is an embedded stylesheet,
and no script tags are emitted.  The file can be attached to a CI run,
mailed around, or opened from a USB stick years later and still render.

Output is deterministic for identical input (no timestamps, no random
ids), which lets CI pin report bytes alongside the merge byte-identity
check.
"""

from __future__ import annotations

import html
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.analysis.figures import FigureArtifact
from repro.analysis.streaming import SweepAnalysis, group_table

_STYLE = """
body { font-family: Helvetica, Arial, sans-serif; margin: 2rem auto;
       max-width: 72rem; padding: 0 1rem; color: #0b0b0b;
       background: #fcfcfb; }
h1 { font-size: 1.4rem; }
h2 { font-size: 1.1rem; margin-top: 2rem; }
p.meta { color: #52514e; }
table { border-collapse: collapse; margin: 0.75rem 0; font-size: 0.85rem; }
th, td { padding: 0.3rem 0.7rem; text-align: right;
         border-bottom: 1px solid #e7e6e2; }
th { color: #52514e; font-weight: 600; }
th.label, td.label { text-align: left; font-family: ui-monospace,
                     SFMono-Regular, Menlo, monospace; }
td.bad { color: #e34948; font-weight: 600; }
figure { margin: 1.5rem 0; }
figure img { max-width: 100%; height: auto; border: 1px solid #e7e6e2; }
figcaption { color: #52514e; font-size: 0.85rem; margin-top: 0.25rem; }
code { background: #f1f0ec; padding: 0.1rem 0.3rem; border-radius: 3px; }
"""


def _esc(text: object) -> str:
    return html.escape(str(text), quote=True)


def _table(
    columns: Sequence[Tuple[str, int]], rows: Iterable[Sequence[str]]
) -> List[str]:
    """An HTML table of escaped text cells.

    ``columns`` are ``(header, width)`` pairs as
    :func:`~repro.analysis.streaming.group_table` returns them: a width
    of 0 marks a free-text column, set in the label style.  A non-zero
    count in a ``fail`` column is flagged.
    """

    def cell(tag: str, column: Tuple[str, int], text: str) -> str:
        name, width = column
        if width == 0:
            attrs = ' class="label"'
        elif tag == "td" and name == "fail" and text != "0":
            attrs = ' class="bad"'
        else:
            attrs = ""
        return f"<{tag}{attrs}>{_esc(text)}</{tag}>"

    head = "".join(cell("th", column, column[0]) for column in columns)
    lines = ["<table>", f"<thead><tr>{head}</tr></thead>", "<tbody>"]
    for cells in rows:
        tds = "".join(cell("td", column, text) for column, text in zip(columns, cells))
        lines.append(f"<tr>{tds}</tr>")
    lines += ["</tbody>", "</table>"]
    return lines


def _failures_section(analysis: SweepAnalysis) -> List[str]:
    if not analysis.failed:
        return []
    lines = ["<h2>Failed cells</h2>"]
    shown = len(analysis.failures)
    if analysis.failed > shown:
        lines.append(
            f'<p class="meta">{analysis.failed} cell(s) failed; the first '
            f"{shown} are listed.</p>"
        )
    return lines + _table([("cell", 0), ("exception", 0)], analysis.failures)


def render_html_report(
    analysis: SweepAnalysis,
    figures: Sequence[FigureArtifact] = (),
    *,
    source: Optional[str] = None,
) -> str:
    """One self-contained HTML page for an analysed sweep.

    ``figures`` (from :func:`~repro.analysis.figures.render_figures`)
    are embedded inline as base64 SVG data URIs; ``source`` names the
    row file in the header.  The output references nothing external and contains no
    scripts, and is byte-identical for identical input.
    """
    meta_bits = [
        f"{analysis.rows_read} row(s) read",
        f"{analysis.cells} cell(s)",
        f"{len(analysis.groups)} group(s)",
        f"{analysis.failed} failed",
    ]
    if analysis.stale_rows:
        meta_bits.append(f"{analysis.stale_rows} stale row(s) skipped")
    if analysis.group_by:
        meta_bits.append(
            "grouped by " + ", ".join(
                f"<code>{_esc(name)}</code>" for name in analysis.group_by
            )
        )
    lines = [
        "<!DOCTYPE html>",
        '<html lang="en">',
        "<head>",
        '<meta charset="utf-8"/>',
        "<title>Sweep report</title>",
        f"<style>{_STYLE}</style>",
        "</head>",
        "<body>",
        "<h1>Sweep report</h1>",
    ]
    if source:
        lines.append(f'<p class="meta">Source: <code>{_esc(source)}</code></p>')
    lines.append(f'<p class="meta">{" · ".join(meta_bits)}</p>')
    lines.append("<h2>Groups</h2>")
    if analysis.groups:
        lines.extend(_table(*group_table(analysis)))
    else:
        lines.append('<p class="meta">No current-schema rows found.</p>')
    lines.extend(_failures_section(analysis))
    if figures:
        lines.append("<h2>Figures</h2>")
        for artifact in figures:
            lines.append("<figure>")
            lines.append(
                f'<img src="{artifact.data_uri()}" '
                f'alt="{_esc(artifact.title)}"/>'
            )
            lines.append(f"<figcaption>{_esc(artifact.title)}</figcaption>")
            lines.append("</figure>")
    lines += ["</body>", "</html>"]
    return "\n".join(lines)


__all__ = ["render_html_report"]
