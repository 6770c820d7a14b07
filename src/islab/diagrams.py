"""Arc diagrams as standalone SVG documents.

Arcs bow above a position axis, one stroke style per owning machine, and
the two inner segments of a crossing decomposition are shaded behind the
axis so the interleaving is visible at a glance.
"""

from __future__ import annotations

from .arcs import SegmentDecomposition

_STEP = 26
_MARGIN = 34
_AXIS_GAP = 52
_ARC_ROOM = 150

_OWNER_STYLE = {
    1: ("#2563a8", "none"),
    2: ("#c0392b", "6 4"),
}
_SHADE = {2: "#f3e3b8", 3: "#cfe0f2"}


def _x(pos: float) -> float:
    return _MARGIN + (pos - 0.5) * _STEP


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def render_arcs(
    word: str,
    arcs,
    decomposition: SegmentDecomposition | None = None,
    title: str | None = None,
) -> str:
    """SVG text for the word, its arcs, and an optional segment split.

    `arcs` is any iterable of objects with push_pos, pop_pos and owner
    attributes, 1-based positions.  Same-position arcs are drawn as short
    loops so nothing silently disappears.
    """
    arcs = sorted(arcs, key=lambda a: (a.push_pos, a.pop_pos, a.owner))
    n = max(len(word), 1)
    width = 2 * _MARGIN + n * _STEP
    axis_y = _ARC_ROOM + 18
    height = axis_y + _AXIS_GAP
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if decomposition is not None:
        for seg, (lo, hi) in enumerate(decomposition.intervals(word), start=1):
            if seg in _SHADE and hi > lo:
                x0 = _MARGIN + lo * _STEP
                out.append(
                    f'<rect x="{x0}" y="14" width="{(hi - lo) * _STEP}" '
                    f'height="{axis_y - 14}" fill="{_SHADE[seg]}"/>'
                )
    if title:
        out.append(
            f'<text x="{_MARGIN}" y="12" font-size="11" '
            f'font-family="monospace" fill="#333">{_esc(title)}</text>'
        )
    out.append(
        f'<line x1="{_MARGIN}" y1="{axis_y}" x2="{width - _MARGIN}" '
        f'y2="{axis_y}" stroke="#444" stroke-width="1"/>'
    )
    for pos, ch in enumerate(word, start=1):
        out.append(
            f'<text x="{_x(pos)}" y="{axis_y + 18}" font-size="13" '
            f'font-family="monospace" text-anchor="middle">{_esc(ch)}</text>'
        )
        if pos == 1 or pos % 5 == 0 or pos == len(word):
            out.append(
                f'<text x="{_x(pos)}" y="{axis_y + 34}" font-size="9" '
                f'fill="#777" font-family="monospace" '
                f'text-anchor="middle">{pos}</text>'
            )
    for arc in arcs:
        stroke, dash = _OWNER_STYLE.get(arc.owner, ("#555", "2 2"))
        dash_attr = f' stroke-dasharray="{dash}"' if dash != "none" else ""
        if arc.push_pos == arc.pop_pos:
            x = _x(arc.push_pos)
            out.append(
                f'<path d="M {x - 4:.1f} {axis_y} C {x - 6:.1f} '
                f'{axis_y - 16} {x + 6:.1f} {axis_y - 16} {x + 4:.1f} '
                f'{axis_y}" fill="none" stroke="{stroke}" '
                f'stroke-width="1.6"{dash_attr}/>'
            )
            continue
        x1, x2 = _x(arc.push_pos), _x(arc.pop_pos)
        span = arc.pop_pos - arc.push_pos
        ry = min(_ARC_ROOM - 10, 16 + span * 7)
        out.append(
            f'<path d="M {x1:.1f} {axis_y} A {(x2 - x1) / 2:.1f} {ry:.1f} '
            f'0 0 1 {x2:.1f} {axis_y}" fill="none" stroke="{stroke}" '
            f'stroke-width="1.6"{dash_attr}/>'
        )
    legend_y = 24
    for owner in (1, 2):
        if any(a.owner == owner for a in arcs):
            stroke, dash = _OWNER_STYLE[owner]
            dash_attr = f' stroke-dasharray="{dash}"' if dash != "none" else ""
            lx = width - _MARGIN - 120
            ly = legend_y
            out.append(
                f'<line x1="{lx}" y1="{ly}" x2="{lx + 28}" y2="{ly}" '
                f'stroke="{stroke}" stroke-width="1.6"{dash_attr}/>'
            )
            out.append(
                f'<text x="{lx + 34}" y="{ly + 4}" font-size="10" '
                f'font-family="monospace" fill="#333">machine {owner}</text>'
            )
            legend_y += 16
    out.append("</svg>")
    return "\n".join(out)


def render_pair_analysis(analysis, title: str | None = None) -> str:
    """Diagram for a two-machine crossing analysis: both matchings plus
    the first crossing pair's inner segments shaded."""
    arcs = []
    for matching in (analysis.matching_1, analysis.matching_2):
        arcs.extend(matching.arcs)
    decomposition = None
    if analysis.crossings:
        decomposition = analysis.crossings[0].decomposition
    return render_arcs(
        analysis.matching_1.word, arcs, decomposition=decomposition, title=title
    )
