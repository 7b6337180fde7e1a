import xml.etree.ElementTree as ET

import numpy as np
import pytest

from errstat.inference import BootstrapPlan
from errstat.render import (
    CORR_ELLIPSE,
    RANK_HEATMAP,
    SIP_DISK,
    render_abs_ecdf,
    render_delta_ecdf,
    render_matrix,
)
from errstat.sip import delta_ecdf

SVG_NS = "{http://www.w3.org/2000/svg}"


def glyphs(svg):
    root = ET.fromstring(svg)  # parse also proves well-formedness
    return [el for el in root.iter() if el.get("class") == "glyph"]


def test_spec_validation():
    with pytest.raises(ValueError):
        render_matrix(np.eye(2), ["A", "B"], "pie_chart")
    with pytest.raises(ValueError):
        render_matrix(np.eye(2), ["A", "B"], CORR_ELLIPSE, size_px=100)
    with pytest.raises(ValueError, match="square matrix"):
        render_matrix(np.eye(3)[:2], ["A", "B"], CORR_ELLIPSE)
    with pytest.raises(ValueError, match=r"SIP values must be in \[0, 1\]"):
        render_matrix(np.array([[0.0, 1.5], [0.5, 0.0]]), ["A", "B"], SIP_DISK)
    with pytest.raises(ValueError, match="label count"):
        render_matrix(np.eye(2), ["A", "B", "C"], RANK_HEATMAP)


def test_corr_matrix_k2_glyphs_and_slants():
    values = np.array([[1.0, -1.0], [-1.0, 1.0]])
    svg = render_matrix(values, ["A", "B"], CORR_ELLIPSE)
    els = glyphs(svg)
    assert len(els) == 4
    # fully saturated colors, right slant for +1 and left slant for -1
    offdiag = [e for e in els if "rotate(45" in e.get("transform")]
    diag = [e for e in els if "rotate(-45" in e.get("transform")]
    assert len(offdiag) == 2 and len(diag) == 2
    assert all(e.get("fill") == "#0571b0" for e in diag)
    assert all(e.get("fill") == "#ca0020" for e in offdiag)


def test_corr_matrix_rejects_out_of_range():
    with pytest.raises(ValueError):
        render_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]), ["A", "B"], CORR_ELLIPSE)


def test_sip_disk_midpoint_is_white():
    values = np.array([[0.0, 0.5], [0.5, 0.0]])
    svg = render_matrix(values, ["A", "B"], SIP_DISK)
    fills = [e.get("fill") for e in glyphs(svg) if float(e.get("r")) > 0]
    assert fills and all(f == "#ffffff" for f in fills)


def test_sip_disk_area_proportional_to_value():
    values = np.array([[0.0, 0.25], [1.0, 0.0]])
    svg = render_matrix(values, ["A", "B"], SIP_DISK)
    radii = sorted(float(e.get("r")) for e in glyphs(svg))
    assert radii[0] == radii[1] == 0.0
    assert radii[3] == pytest.approx(2.0 * radii[2], rel=1e-3)  # area ratio 4


def test_sip_disk_diagonal_must_be_zero():
    with pytest.raises(ValueError):
        render_matrix(np.array([[0.2, 0.5], [0.5, 0.0]]), ["A", "B"], SIP_DISK)


def test_rank_heatmap_identity():
    svg = render_matrix(np.eye(3), ["A", "B", "C"], RANK_HEATMAP)
    els = glyphs(svg)
    assert len(els) == 9
    dark = [e for e in els if e.get("fill") != "#ffffff"]
    assert len(dark) == 3


def test_rank_heatmap_rejects_bad_rows():
    with pytest.raises(ValueError):
        render_matrix(np.array([[0.9, 0.3], [0.1, 0.7]]), ["A", "B"], RANK_HEATMAP)


def test_matrix_size_scales():
    svg = render_matrix(np.eye(2), ["A", "B"], RANK_HEATMAP, size_px=300)
    root = ET.fromstring(svg)
    assert root.get("width") == "300"
    assert root.get("version") == "1.1"


def test_delta_ecdf_render():
    rng = np.random.default_rng(3)
    report = delta_ecdf(rng.normal(size=20), rng.normal(size=20),
                        BootstrapPlan(B=150, seed=1), labels=("mBJ", "LDA"),
                        uncertainty_bar=0.3)
    svg = render_delta_ecdf(report)
    root = ET.fromstring(svg)
    texts = [el.text for el in root.iter(f"{SVG_NS}text")]
    assert any(t.startswith("SIP") for t in texts)
    assert any(t.startswith("dMUE") for t in texts)
    classes = [el.get("class") for el in root.iter()]
    assert "band" in classes and "ecdf" in classes and "ubar" in classes
    with pytest.raises(ValueError):
        render_delta_ecdf(report, size_px=100)


def test_abs_ecdf_render():
    rng = np.random.default_rng(5)
    e1, e2 = rng.normal(size=30), rng.normal(size=30)
    svg = render_abs_ecdf(e1, e2, ("A", "B"), stats={"A": (0.8, 2.1), "B": (0.7, 1.9)})
    root = ET.fromstring(svg)
    curves = [el for el in root.iter(f"{SVG_NS}polyline") if el.get("class") == "ecdf"]
    assert len(curves) == 2
    dashed = [el for el in root.iter(f"{SVG_NS}polyline") if el.get("stroke-dasharray")]
    assert len(dashed) == 4  # MUE + Q95 per method
    with pytest.raises(ValueError):
        render_abs_ecdf(e1, e2, ("A", "B"), size_px=100)
