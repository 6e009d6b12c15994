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
import math
from typing import List, Optional, Sequence

from repro.analysis.figures import FigureArtifact
from repro.analysis.streaming import GroupStats, SweepAnalysis

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


def _fmt_metric(value: float) -> str:
    return f"{value:.3f}" if math.isfinite(value) else "-"


def _fmt_percent(value: float) -> str:
    return f"{100.0 * value:.1f}%" if math.isfinite(value) else "-"


def _group_row(analysis: SweepAnalysis, group: GroupStats) -> str:
    final = group.metrics.get("final_accuracy")
    best = group.metrics.get("best_accuracy")

    def stat(moments, attribute: str) -> str:
        if moments is None or moments.count == 0:
            return "-"
        return _fmt_metric(getattr(moments, attribute))

    cells = [
        f'<td class="label">{_esc(analysis.group_label(group.key))}</td>',
        f"<td>{group.cells}</td>",
        f'<td class="bad">{group.failed}</td>' if group.failed
        else "<td>0</td>",
        f"<td>{stat(final, 'mean')}</td>",
        f"<td>{stat(final, 'std')}</td>",
        f"<td>{stat(final, 'minimum')}</td>",
        f"<td>{stat(final, 'maximum')}</td>",
        f"<td>{stat(best, 'mean')}</td>",
    ]
    if analysis.has_delivery:
        deliv = group.delivery.get("delivery_rate")
        worst = group.delivery.get("worst_deliv")
        late = group.delivery.get("late")
        cells.append(
            f"<td>{_fmt_percent(deliv.mean if deliv and deliv.count else float('nan'))}</td>"
        )
        cells.append(
            f"<td>{_fmt_percent(worst.minimum if worst and worst.count else float('nan'))}</td>"
        )
        cells.append(
            f"<td>{int(round(late.total)) if late and late.count else 0}</td>"
        )
    tally = " ".join(
        f"{name}:{count}"
        for name, count in sorted(group.classifications.items())
    )
    cells.append(f'<td class="label">{_esc(tally) if tally else "-"}</td>')
    return "<tr>" + "".join(cells) + "</tr>"


def _groups_table(analysis: SweepAnalysis) -> List[str]:
    head = [
        '<th class="label">group</th>', "<th>cells</th>", "<th>failed</th>",
        "<th>final</th>", "<th>±std</th>", "<th>min</th>", "<th>max</th>",
        "<th>best</th>",
    ]
    if analysis.has_delivery:
        head += ["<th>deliv%</th>", "<th>wrst%</th>", "<th>late</th>"]
    head.append('<th class="label">classes</th>')
    lines = ["<table>", "<thead><tr>" + "".join(head) + "</tr></thead>",
             "<tbody>"]
    for group in analysis.groups.values():
        lines.append(_group_row(analysis, group))
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
    lines.append("<table>")
    lines.append(
        '<thead><tr><th class="label">cell</th>'
        '<th class="label">exception</th></tr></thead>'
    )
    lines.append("<tbody>")
    for cell_id, exception in analysis.failures:
        lines.append(
            f'<tr><td class="label">{_esc(cell_id)}</td>'
            f'<td class="label">{_esc(exception)}</td></tr>'
        )
    lines += ["</tbody>", "</table>"]
    return lines


def render_html_report(
    analysis: SweepAnalysis,
    figures: Sequence[FigureArtifact] = (),
    *,
    title: str = "Sweep report",
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
        f"<title>{_esc(title)}</title>",
        f"<style>{_STYLE}</style>",
        "</head>",
        "<body>",
        f"<h1>{_esc(title)}</h1>",
    ]
    if source:
        lines.append(f'<p class="meta">Source: <code>{_esc(source)}</code></p>')
    lines.append(f'<p class="meta">{" · ".join(meta_bits)}</p>')
    lines.append("<h2>Groups</h2>")
    if analysis.groups:
        lines.extend(_groups_table(analysis))
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
