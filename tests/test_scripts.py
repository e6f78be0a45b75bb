"""Every experiment script imports against the current package API.

Each script runs its experiment only under its ``__main__`` guard, so
importing it checks its imports and module-level code without simulating.
The reciprocal-component flow of compare_flow_modes.py is checked against
the conversion the package used to carry.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from velometer.config import FlowConfig
from velometer.normal_flow import FlowBatch, _corrected_flows

SCRIPT_DIR = Path(__file__).resolve().parent.parent / "scripts"
SCRIPTS = sorted(SCRIPT_DIR.glob("*.py"))


def load_script(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_imports(path):
    assert callable(load_script(path).main)


def reciprocal_flows(grads, cfg=None):
    """compare_flow_modes' conversion of the corrected rows of gradients
    (K, 2): (kept gradient indices, direction, magnitude)."""
    cfg = cfg or FlowConfig()
    script = load_script(SCRIPT_DIR / "compare_flow_modes.py")
    direction, magnitude, ok = _corrected_flows(grads, cfg)
    idx = np.flatnonzero(ok)
    # the rows' x carries the gradient index through the row selection
    flows = FlowBatch(0.0, idx, idx, direction[idx], magnitude[idx],
                      np.zeros(len(idx)))
    out = script.reciprocal_flows(flows, cfg)
    return out.x, out.direction, out.magnitude


def reference_benosman_flows(grads, cfg):
    """The package's former reciprocal conversion of fitted gradients."""
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 1.0 / grads
        magnitude = np.hypot(w[:, 0], w[:, 1])
        direction = w / magnitude[:, None]
    ok = ((np.hypot(grads[:, 0], grads[:, 1]) > cfg.min_grad)
          & np.isfinite(w).all(axis=1)
          & (magnitude <= cfg.max_flow) & (magnitude > 0))
    return direction, magnitude, ok


def test_benosman_overestimates_diagonal():
    grad = np.array([[0.01, 0.01]])
    kept, n, mag = reciprocal_flows(grad)
    assert list(kept) == [0]
    assert np.allclose(mag[0] * n[0], [100.0, 100.0], atol=1e-9)
    assert abs(mag[0] - np.hypot(100, 100)) < 1e-9
    _, mag_ok, _ = _corrected_flows(grad, FlowConfig())
    # reciprocal components inflate the magnitude by |grad|^2 structure
    assert mag[0] > mag_ok[0]


def test_benosman_rejects_axis_aligned_gradient():
    # the corrected flow keeps it (50 px/s); 1 / 0 is not a flow
    kept, _, _ = reciprocal_flows(np.array([[0.02, 0.0]]))
    assert len(kept) == 0


def test_reciprocal_flows_match_the_former_conversion():
    rng = np.random.default_rng(5)
    n = 20000
    angle = rng.uniform(0, 2 * np.pi, n)
    gnorm = 10.0 ** rng.uniform(-5, 0, n)
    grads = gnorm[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    grads[:50, 0] = 0.0                         # axis-aligned: rejected
    grads[50:100, 1] = -0.0
    cfg = FlowConfig(max_flow=2000.0)
    direction, magnitude, ok = reference_benosman_flows(grads, cfg)
    kept, got_n, got_mag = reciprocal_flows(grads, cfg)
    # every reciprocal row is a corrected row, and the same rows are kept
    assert np.all(_corrected_flows(grads, cfg)[2][ok])
    assert np.array_equal(kept, np.flatnonzero(ok))
    assert 1000 < len(kept) < n - 1000
    assert np.all(np.abs(got_mag - magnitude[ok]) <= 1e-12 * magnitude[ok])
    assert np.all(np.abs(got_n - direction[ok])
                  <= 1e-12 * np.abs(direction[ok]))
