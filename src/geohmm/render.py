"""SVG rendering of a model as a metric state map.

State positions come from the weighted least-squares embedding of the
relation means (information-weighted by the inverse variances, so
well-estimated relations dominate). Solid arrows mark each state's most
likely outgoing transition; dashed arrows mark any other transition with
probability at least DASHED_THRESHOLD. Arrow lengths follow the embedded
geometry, i.e. they are drawn to scale.
"""

from __future__ import annotations

import numpy as np

from .estimation import embed_positions, project_headings
from .model import GeoHmm

DASHED_THRESHOLD = 0.2
MARGIN = 40.0          # px on every side; a canvas must exceed 2 * MARGIN


def embed_model_positions(model: GeoHmm) -> tuple:
    """Least-squares (x, y, theta) per state from the relation means."""
    R = model.relations
    theta, _ = project_headings(R.mu_theta, R.kappa_theta)
    x, y = embed_positions(R.mu_x, R.mu_y, 1.0 / R.var_x, 1.0 / R.var_y,
                           theta, model.mode)
    return x, y, theta


def _fmt(v: float) -> str:
    return "%.4f" % v


def render_svg(model: GeoHmm, width: int = 640, height: int = 480) -> str:
    """Render the embedded state map as an SVG document string."""
    x, y, theta = embed_model_positions(model)
    n = model.n_states

    span_x = max(x.max() - x.min(), 1e-9)
    span_y = max(y.max() - y.min(), 1e-9)
    scale = min((width - 2 * MARGIN) / span_x, (height - 2 * MARGIN) / span_y)

    def to_px(xi, yi):
        # SVG y grows downward; flip to keep the map right-handed.
        px = MARGIN + (xi - x.min()) * scale
        py = height - MARGIN - (yi - y.min()) * scale
        return px, py

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<defs><marker id="arrow" markerWidth="8" markerHeight="8" '
        'refX="7" refY="3" orient="auto">'
        '<path d="M0,0 L7,3 L0,6 z" fill="black"/></marker></defs>',
        '<rect width="100%" height="100%" fill="white"/>',
    ]

    for i in range(n):
        order = np.argsort(-model.A[i])
        best = int(order[0])
        for j in range(n):
            if j == i:
                continue
            prob = model.A[i, j]
            if j != best and prob < DASHED_THRESHOLD:
                continue
            x1, y1 = to_px(x[i], y[i])
            x2, y2 = to_px(x[j], y[j])
            dash = '' if j == best else ' stroke-dasharray="6,4"'
            lines.append(
                '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black" '
                'stroke-width="1.2" marker-end="url(#arrow)"%s/>'
                % (_fmt(x1), _fmt(y1), _fmt(x2), _fmt(y2), dash))

    for i in range(n):
        px, py = to_px(x[i], y[i])
        radius = 9.0 if i == model.start_state else 6.0
        fill = "#ffd27f" if i == model.start_state else "#9fc5e8"
        lines.append('<circle cx="%s" cy="%s" r="%s" fill="%s" '
                     'stroke="black"/>' % (_fmt(px), _fmt(py),
                                           _fmt(radius), fill))
        lines.append('<text x="%s" y="%s" font-size="9" '
                     'text-anchor="middle">%d</text>'
                     % (_fmt(px), _fmt(py + 3.0), i))

    lines.append('</svg>')
    return "\n".join(lines) + "\n"
