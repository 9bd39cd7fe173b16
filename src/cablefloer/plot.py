"""Static lattice plots of a rank table: Alexander across, Maslov up."""

from __future__ import annotations

from .homology import RankTable

#: largest Alexander x Maslov bounding box render_ascii draws, one character per cell
MAX_ASCII_CELLS = 2_000_000


def emit_plot(table: RankTable, fmt: str) -> str:
    if not table.ranks:
        raise ValueError("cannot plot an empty rank table")
    if fmt == "ascii":
        return render_ascii(table)
    if fmt == "svg":
        return render_svg(table)
    raise ValueError(f"unknown plot format {fmt!r}")


def _rank_char(rank: int) -> str:
    return str(rank) if rank < 10 else "#"


def render_ascii(table: RankTable) -> str:
    """Character grid; one cell per lattice point, rank digit where nonzero.

    Refuses (ValueError) a bounding box of more than MAX_ASCII_CELLS cells.
    """
    ranks = table.ranks  # a property: read once, not per cell
    a_values = [a for a, _ in ranks]
    m_values = [m for _, m in ranks]
    a_min, a_max = min(a_values), max(a_values)
    m_min, m_max = min(m_values), max(m_values)
    cells = (a_max - a_min + 1) * (m_max - m_min + 1)
    if cells > MAX_ASCII_CELLS:
        raise ValueError(f"ascii plot needs {cells} cells, more than {MAX_ASCII_CELLS}; "
                         "use the svg or tsv format")
    label_width = max(len(str(m_min)), len(str(m_max)))
    lines = []
    for m in range(m_max, m_min - 1, -1):
        row = "".join(
            _rank_char(ranks[(a, m)]) if (a, m) in ranks else "."
            for a in range(a_min, a_max + 1)
        )
        lines.append(f"{m:>{label_width}} |{row}")
    lines.append(" " * label_width + " +" + "-" * (a_max - a_min + 1))
    left = str(a_min)
    right = str(a_max)
    gap = (a_max - a_min + 1) - len(left) - len(right)
    lines.append(" " * (label_width + 2) + left + " " * max(gap, 1) + right)
    return "\n".join(lines) + "\n"


def render_svg(table: RankTable) -> str:
    """SVG 1.1 scatter with rank labels; byte-identical for identical input."""
    cell = 14
    pad = 30
    a_values = [a for a, _ in table.ranks]
    m_values = [m for _, m in table.ranks]
    a_min, a_max = min(a_values), max(a_values)
    m_min, m_max = min(m_values), max(m_values)
    width = (a_max - a_min) * cell + 2 * pad
    height = (m_max - m_min) * cell + 2 * pad

    def x(a: int) -> int:
        return pad + (a - a_min) * cell

    def y(m: int) -> int:
        return pad + (m_max - m) * cell

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if a_min <= 0 <= a_max:
        parts.append(
            f'<line x1="{x(0)}" y1="{pad - cell}" x2="{x(0)}" y2="{height - pad + cell}" '
            'stroke="#cccccc" stroke-width="1"/>'
        )
    if m_min <= 0 <= m_max:
        parts.append(
            f'<line x1="{pad - cell}" y1="{y(0)}" x2="{width - pad + cell}" y2="{y(0)}" '
            'stroke="#cccccc" stroke-width="1"/>'
        )
    for a, m, rank in table.entries():
        parts.append(f'<circle cx="{x(a)}" cy="{y(m)}" r="4" fill="black"/>')
        parts.append(
            f'<text x="{x(a) + 5}" y="{y(m) - 5}" font-family="monospace" '
            f'font-size="9" fill="#555555">{rank}</text>'
        )
    parts.append(
        f'<text x="{width - pad}" y="{height - 8}" font-family="monospace" '
        'font-size="10" text-anchor="end">alexander</text>'
    )
    parts.append(
        '<text x="8" y="14" font-family="monospace" font-size="10">maslov</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
