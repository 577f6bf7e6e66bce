"""Region-wide prediction rasters and their statistical comparison.

A raster evaluates the submodel bank at every unmasked grid cell for one
climate snapshot, treating each cell as a virtual target site whose static
attributes come from the DEM and NDVI grids: one ``predict_batch`` call per
source station with per-cell target attributes. Cells are combined by the
``average`` or ``weighted_average`` entry of the ensemble's aggregation
table, with per-cell attribute weights. Rasters from different folds or
methods are compared cell-by-cell with the paired t-test.
"""

from __future__ import annotations

import json
import os
from typing import Mapping, Sequence

import numpy as np

from .core import StationId, write_atomically
from .ensemble import AGGREGATORS, SubmodelBank, attribute_weights
from .errors import DataError, DomainError
from .evaluate import paired_t_test
from .ingest import AttributeGrid

RASTER_METHODS = ("average", "weighted_average", "single")


def generate_raster(
    bank: SubmodelBank,
    climate: Mapping[StationId, Sequence[float]],
    dem: AttributeGrid,
    ndvi: AttributeGrid,
    method: str = "weighted_average",
    source_id: StationId | None = None,
) -> AttributeGrid:
    """Predicted next-window minimum over every unmasked cell.

    ``climate`` maps each participating source station to its 5-value
    reading at the chosen timestamp; stations absent from the mapping sit
    out. Cell weights reuse the bank's frozen normalization bounds, with
    normalized distances clamped into [0, 1] for cells beyond them.
    Cell distances are one ``np.hypot`` over all (source, cell) pairs: it
    disagrees with ``core.geo_distances``'s ``math.hypot`` in the last bit on
    a few pairs, so sharing that routine would change some cells.
    """
    if method not in RASTER_METHODS:
        raise DomainError(f"unknown raster method: {method!r}")
    if not dem.same_geometry(ndvi):
        raise DataError("dem and ndvi grids must share geometry")
    if method == "single":
        if source_id is None:
            raise DomainError("single-source raster needs source_id")
        if source_id not in climate:
            raise DataError(f"no climate snapshot for station {source_id}")
        ids = [source_id]
    else:
        ids = sorted(set(climate) & set(bank.submodels))
        if not ids:
            raise DataError("no climate snapshots for any bank station")
    unknown = sorted(set(climate) - set(bank.submodels))
    if unknown:
        raise DataError(f"climate given for stations not in bank: {unknown}")

    mask = dem.mask & ndvi.mask
    if not mask.any():
        raise DataError("no unmasked cells to predict on")
    lon_g, lat_g = dem.cell_centers()
    lon = lon_g[mask]
    lat = lat_g[mask]
    cell_dem = dem.values[mask]
    cell_ndvi = ndvi.values[mask]
    n_cells = lon.size

    targets = np.column_stack([lon, lat, cell_dem, cell_ndvi])
    preds = np.empty((len(ids), n_cells))
    for i, sid in enumerate(ids):
        snap = np.asarray(climate[sid], dtype=np.float64)
        if snap.shape != (5,):
            raise DataError(f"climate snapshot for {sid} must have 5 values, got {snap.shape}")
        preds[i] = bank.predict_batch(sid, np.broadcast_to(snap, (n_cells, 5)), targets)

    if method == "single":
        cell_values = preds[0]
    else:
        weights = None
        if method == "weighted_average":
            src = bank.attribute_rows(ids)[:, :, None]
            raw = np.stack([np.hypot(src[:, 0] - lon, src[:, 1] - lat),
                            np.abs(src[:, 2] - cell_dem),
                            np.abs(src[:, 3] - cell_ndvi)], axis=-1)
            weights = attribute_weights(bank.normalization.normalize(raw), bank.coefficients)
        cell_values, _ = AGGREGATORS[method](preds, np.ones(preds.shape, dtype=bool), weights)

    values = np.full(dem.values.shape, np.nan)
    values[mask] = cell_values
    return AttributeGrid(dem.origin, dem.cell_size, values, mask)


def compare_rasters(a: AttributeGrid, b: AttributeGrid) -> tuple[float, float]:
    """Paired t-test over cells unmasked in both rasters, row-major order."""
    if not a.same_geometry(b):
        raise DataError("rasters must share geometry to compare")
    joint = a.mask & b.mask
    n = int(joint.sum())
    if n < 2:
        raise DataError(f"need >= 2 jointly unmasked cells, got {n}")
    return paired_t_test(a.values[joint], b.values[joint])


def raster_matrix(rasters: Mapping[str, AttributeGrid]) -> tuple[list[str], np.ndarray]:
    """Pairwise p-value matrix with NaN on the diagonal.

    Returns labels in sorted order and the symmetric matrix of two-sided
    p-values between each pair of rasters.
    """
    labels = sorted(rasters)
    if len(labels) < 2:
        raise DataError("matrix needs at least two rasters")
    n = len(labels)
    out = np.full((n, n), np.nan)
    for i in range(n):
        for j in range(i + 1, n):
            _, p = compare_rasters(rasters[labels[i]], rasters[labels[j]])
            out[i, j] = out[j, i] = p
    return labels, out


def matrix_to_csv(labels: Sequence[str], matrix: np.ndarray) -> str:
    """Symmetric p-value table with an N/A diagonal, mirroring print layouts."""
    lines = ["," + ",".join(labels)]
    for i, label in enumerate(labels):
        cells = []
        for j in range(len(labels)):
            cells.append("N/A" if i == j else repr(float(matrix[i, j])))
        lines.append(label + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def write_png(grid: AttributeGrid, path: str | os.PathLike, sidecar: str | os.PathLike | None = None) -> None:
    """Optional heatmap output, written atomically as every artifact is; requires matplotlib."""
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError as exc:  # pragma: no cover - depends on extras
        raise DataError("png output requires matplotlib (install the png extra)") from exc
    data = grid.values  # NaN at masked cells
    lo = float(np.nanmin(data))
    hi = float(np.nanmax(data))
    fig, ax = plt.subplots(figsize=(6, 6 * grid.nrows / max(grid.ncols, 1)))
    ax.imshow(data, origin="lower", cmap="viridis", vmin=lo, vmax=hi)
    ax.set_axis_off()
    write_atomically(path, lambda fh: fig.savefig(fh, format="png", bbox_inches="tight",
                                                  pad_inches=0), binary=True)
    plt.close(fig)
    if sidecar is not None:
        write_atomically(sidecar, lambda fh: json.dump({"min": lo, "max": hi, "cmap": "viridis"},
                                                       fh, sort_keys=True))
