"""TIGER/Line-like synthetic road and hydrography features.

The TIGER/Line 97 CDs are not available offline, so we synthesize MBR
sets with the properties that drive the paper's measurements:

* **Roads** — the large relation.  Real TIGER road records are chain
  segments: tiny, elongated MBRs, dense around population centers with
  a rural background grid.  We draw segment centers from a mixture of
  Gaussian city clusters and a uniform background, lengths from a
  lognormal, and orientations biased toward axis-parallel (street
  grids).  Feature extents scale as ``sqrt(area / n)``: at the paper's
  full cardinalities this gives realistic segment lengths (a few
  hundred meters in NJ), and under down-scaling it keeps the
  square-root rule invariant, because a sweep-line then cuts
  Theta(sqrt(N)) rectangles at any scale.  It does *not* keep the
  join selectivity (output pairs / road count, 0.3-0.6 in Table 2)
  invariant: that drifts with scale, as below.
* **Hydro** — the small relation (the paper's ratio is roughly 4-8x
  fewer objects).  Rivers are correlated random walks emitting a chain
  of consecutive segment MBRs; lakes are rounder blobs clustered like
  the terrain.  River walks start near city clusters (cities grow on
  rivers), which correlates road x hydro output with the settlements.
* **Landuse** — a third relation for multi-way join experiments:
  medium-sized polygon MBRs around the same city centers.

Output pairs per road, measured with PQ (1/1024 and 1/256 are the
repo's ``quick`` and ``default`` rungs; 1/64 and 1/16 are one-off runs
recorded in ROADMAP.md, with configurations written for them):

=========  ======  =====  =====  =====
Dataset    1/1024  1/256  1/64   1/16
=========  ======  =====  =====  =====
NJ         0.81    0.29   0.51   0.60
NY         0.38    0.33   0.74   0.62
DISK1      0.64    0.58   0.64   0.67
DISK4-6    0.86    0.63   0.71   0.73
DISK1-3    0.58    0.70   0.71   0.72
DISK1-6    0.62    0.66   0.76   0.92
=========  ======  =====  =====  =====

Whether the generator should hold this steady, or a ladder test should
carry the drift, is open (ROADMAP.md, item 6(c)/(d)).

Properties the tests verify: the square-root rule (the number of
rectangles cut by any horizontal sweep-line stays O(sqrt(N)), the
observation of Gueting & Schilling the paper cites), the cardinality
ratios, and float32-exactness of all coordinates.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.data.generator import _to_rects
from repro.geom.rect import Rect


def city_layout(region: Rect, layout_seed: int,
                n_cities: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared settlement layout for all relations of one dataset.

    Roads, hydro and landuse of the same dataset must cluster around
    the *same* population centers (cities grow on rivers); deriving the
    layout from a single seed makes their spatial correlation — and
    hence the join selectivity — a property of the generator instead of
    an accident of independent random draws.
    """
    rng = np.random.default_rng(10_000_019 * (layout_seed + 1))
    cx = rng.uniform(region.xlo, region.xhi, n_cities)
    cy = rng.uniform(region.ylo, region.yhi, n_cities)
    weights = rng.dirichlet(np.ones(n_cities) * 0.8)
    return cx, cy, weights


def _n_cities(n_roads_scale: int) -> int:
    """Settlement count grows with the square root of the feature count."""
    return max(4, int(np.sqrt(n_roads_scale) / 2))


def make_roads(n: int, region: Rect, seed: int = 1,
               id_base: int = 0, layout_seed: int = None) -> List[Rect]:
    """``n`` road-segment MBRs inside ``region``."""
    if n <= 0:
        return []
    rng = np.random.default_rng(seed)
    span_x = region.xhi - region.xlo
    span_y = region.yhi - region.ylo
    if layout_seed is None:
        layout_seed = seed
    cx, cy, weights = city_layout(region, layout_seed, _n_cities(n))
    n_cities = len(cx)

    frac_urban = 0.7
    n_urban = int(n * frac_urban)
    n_rural = n - n_urban

    assign = rng.choice(n_cities, size=n_urban, p=weights)
    sigma = 0.035
    ux = cx[assign] + rng.normal(0.0, sigma * span_x, n_urban)
    uy = cy[assign] + rng.normal(0.0, sigma * span_y, n_urban)
    rx = rng.uniform(region.xlo, region.xhi, n_rural)
    ry = rng.uniform(region.ylo, region.yhi, n_rural)
    px = np.concatenate([ux, rx])
    py = np.concatenate([uy, ry])

    # Segment lengths: lognormal around the sqrt(area/n) scale that
    # keeps the square-root rule scale-invariant (not the selectivity:
    # see the module docstring).
    base_len = 0.55 * np.sqrt(span_x * span_y / n)
    length = rng.lognormal(np.log(base_len), 0.6, n)
    # Orientation: half axis-parallel (street grids), half free.
    angle = rng.uniform(0.0, np.pi, n)
    snap = rng.random(n) < 0.5
    angle[snap] = np.round(angle[snap] / (np.pi / 2)) * (np.pi / 2)
    dx = np.abs(np.cos(angle)) * length
    dy = np.abs(np.sin(angle)) * length

    xlo = np.clip(px - dx / 2, region.xlo, region.xhi)
    xhi = np.clip(px + dx / 2, region.xlo, region.xhi)
    ylo = np.clip(py - dy / 2, region.ylo, region.yhi)
    yhi = np.clip(py + dy / 2, region.ylo, region.yhi)
    return _to_rects(xlo, xhi, ylo, yhi, id_base)


def make_hydro(n: int, region: Rect, seed: int = 2,
               id_base: int = 0, layout_seed: int = None) -> List[Rect]:
    """``n`` hydrography MBRs: river segment chains plus lake blobs."""
    if n <= 0:
        return []
    rng = np.random.default_rng(seed)
    span_x = region.xhi - region.xlo
    span_y = region.yhi - region.ylo
    # Same settlement layout as the dataset's roads (n_hydro ~ n_roads/6).
    if layout_seed is None:
        layout_seed = seed
    cx, cy, weights = city_layout(region, layout_seed, _n_cities(n * 6))
    n_cities = len(cx)

    n_river = int(n * 0.65)
    n_lake = n - n_river

    # Rivers: correlated random walks that start near a city.
    segs_per_river = 40
    step = 0.6 * np.sqrt(span_x * span_y / max(n, 1))
    xs = np.empty(n_river)
    ys = np.empty(n_river)
    xe = np.empty(n_river)
    ye = np.empty(n_river)
    k = 0
    while k < n_river:
        city = rng.choice(n_cities, p=weights)
        x = float(np.clip(cx[city] + rng.normal(0.0, 0.02 * span_x),
                          region.xlo, region.xhi))
        y = float(np.clip(cy[city] + rng.normal(0.0, 0.02 * span_y),
                          region.ylo, region.yhi))
        heading = rng.uniform(0.0, 2 * np.pi)
        remaining = min(segs_per_river, n_river - k)
        for _ in range(remaining):
            heading += rng.normal(0.0, 0.5)
            nx = x + np.cos(heading) * step * rng.lognormal(0.0, 0.4)
            ny = y + np.sin(heading) * step * rng.lognormal(0.0, 0.4)
            nx = float(np.clip(nx, region.xlo, region.xhi))
            ny = float(np.clip(ny, region.ylo, region.yhi))
            xs[k], xe[k] = min(x, nx), max(x, nx)
            ys[k], ye[k] = min(y, ny), max(y, ny)
            x, y = nx, ny
            k += 1
    xs, xe, ys, ye = xs[:k], xe[:k], ys[:k], ye[:k]
    rivers = _to_rects(xs, xe, ys, ye, id_base)

    # Lakes: rounder, larger blobs with the city-cluster skew.
    assign = rng.choice(n_cities, size=n_lake, p=weights)
    lx = cx[assign] + rng.normal(0.0, 0.06 * span_x, n_lake)
    ly = cy[assign] + rng.normal(0.0, 0.06 * span_y, n_lake)
    size = rng.lognormal(
        np.log(0.5 * np.sqrt(span_x * span_y / max(n, 1))), 0.8, n_lake
    )
    aspect = rng.lognormal(0.0, 0.3, n_lake)
    w = size * aspect
    h = size / aspect
    xlo = np.clip(lx - w / 2, region.xlo, region.xhi)
    xhi = np.clip(lx + w / 2, region.xlo, region.xhi)
    ylo = np.clip(ly - h / 2, region.ylo, region.yhi)
    yhi = np.clip(ly + h / 2, region.ylo, region.yhi)
    lakes = _to_rects(xlo, xhi, ylo, yhi, id_base + len(rivers))
    return rivers + lakes


def make_landuse(n: int, region: Rect, seed: int = 3,
                 id_base: int = 0, layout_seed: int = None) -> List[Rect]:
    """``n`` landuse-parcel MBRs (third relation for multi-way joins)."""
    if n <= 0:
        return []
    rng = np.random.default_rng(seed)
    span_x = region.xhi - region.xlo
    span_y = region.yhi - region.ylo
    if layout_seed is None:
        layout_seed = seed
    cx, cy, weights = city_layout(region, layout_seed, _n_cities(n * 3))
    n_cities = len(cx)
    assign = rng.choice(n_cities, size=n, p=weights)
    px = cx[assign] + rng.normal(0.0, 0.05 * span_x, n)
    py = cy[assign] + rng.normal(0.0, 0.05 * span_y, n)
    size = rng.lognormal(
        np.log(2.5 * np.sqrt(span_x * span_y / max(n, 1))), 0.7, n
    )
    aspect = rng.lognormal(0.0, 0.25, n)
    w = size * aspect
    h = size / aspect
    xlo = np.clip(px - w / 2, region.xlo, region.xhi)
    xhi = np.clip(px + w / 2, region.xlo, region.xhi)
    ylo = np.clip(py - h / 2, region.ylo, region.yhi)
    yhi = np.clip(py + h / 2, region.ylo, region.yhi)
    return _to_rects(xlo, xhi, ylo, yhi, id_base)
