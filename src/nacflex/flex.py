"""One-parameter flexible realisations built from NAC-colourings.

Every vertex gets the position p_theta(v) = x[B(v)] + Rot(theta) @ y[R(v)],
where B(v) / R(v) are v's blue / red monochromatic components and x, y are
per-component base vectors.  A red edge has both endpoints in one red
component, so its length |x[B(u)] - x[B(v)]| is independent of theta and
positive because the endpoints lie in distinct blue components with distinct
base vectors (a blue path joining them would close a cycle with exactly one
red edge); blue edges are symmetric.  Rotating theta therefore preserves all
edge lengths while generically moving other distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .graphs import ComponentLabelling, Graph
from .nac import Colour, EdgeColouring, monochromatic_components, nac_check
from .randmodels import RandomSource

__all__ = ["FlexFamily", "FlexReport", "build_flex", "sample_positions", "verify_flex"]

MIN_BASE_SEPARATION = 1e-3
MAX_BASE_DRAWS = 1000


@dataclass(eq=False)
class FlexFamily:
    """Per-component base vectors defining the one-parameter motion."""

    graph: Graph
    colouring: EdgeColouring
    red_components: ComponentLabelling
    blue_components: ComponentLabelling
    x: np.ndarray  # (blue component count, 2)
    y: np.ndarray  # (red component count, 2)


@dataclass(frozen=True)
class FlexReport:
    max_edge_drift: float
    max_pair_variation: float
    min_edge_length: float
    n_samples: int


def _min_pairwise_distance(points: np.ndarray) -> float:
    if len(points) < 2:
        return np.inf
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    return float(dist[np.triu_indices(len(points), k=1)].min())


def build_flex(c: EdgeColouring, src: RandomSource) -> FlexFamily:
    """Sample generic base vectors from the unit box for a NAC-colouring.

    Vectors are redrawn, up to MAX_BASE_DRAWS times, until each family is
    pairwise separated by at least MIN_BASE_SEPARATION; deterministic given
    the source.  Raises PreconditionError when no draw is separated.
    """
    if not nac_check(c).is_nac:
        raise PreconditionError("colouring is not a NAC-colouring")
    g = c.graph
    red_lab = monochromatic_components(c, Colour.RED)
    blue_lab = monochromatic_components(c, Colour.BLUE)
    rng = src.generator()
    for _ in range(MAX_BASE_DRAWS):
        x = rng.random((blue_lab.count, 2))
        y = rng.random((red_lab.count, 2))
        if (
            _min_pairwise_distance(x) >= MIN_BASE_SEPARATION
            and _min_pairwise_distance(y) >= MIN_BASE_SEPARATION
        ):
            return FlexFamily(g, c, red_lab, blue_lab, x, y)
    raise PreconditionError("could not sample separated base vectors")


def sample_positions(f: FlexFamily, theta: float) -> np.ndarray:
    """(n, 2) vertex positions at rotation angle theta."""
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    base = f.x[np.array(f.blue_components.labels, dtype=np.intp)]
    spin = f.y[np.array(f.red_components.labels, dtype=np.intp)]
    return base + spin @ rot.T


def verify_flex(f: FlexFamily, n_samples: int = 64) -> FlexReport:
    """Sample the motion on a uniform angle grid (theta=0 included).

    Reports the largest edge-length drift from theta=0, the largest variation
    of any vertex-pair distance, and the smallest edge length seen.
    """
    if n_samples < 1:
        raise PreconditionError("n_samples must be >= 1")
    g = f.graph
    thetas = 2.0 * np.pi * np.arange(n_samples) / n_samples
    positions = np.stack([sample_positions(f, t) for t in thetas])
    if g.m:
        eu = np.array([e[0] for e in g.edges])
        ev = np.array([e[1] for e in g.edges])
        d = positions[:, eu, :] - positions[:, ev, :]
        lengths = np.sqrt((d**2).sum(axis=2))
        drift = float(np.abs(lengths - lengths[0]).max())
        min_len = float(lengths.min())
    else:
        drift = 0.0
        min_len = np.inf
    iu, iv = np.triu_indices(g.n, k=1)
    if len(iu):
        pd = positions[:, iu, :] - positions[:, iv, :]
        pdist = np.sqrt((pd**2).sum(axis=2))
        variation = float((pdist.max(axis=0) - pdist.min(axis=0)).max())
    else:
        variation = 0.0
    return FlexReport(drift, variation, min_len, n_samples)
