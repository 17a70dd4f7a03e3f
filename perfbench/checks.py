"""Checks of the pipeline's per-clip outputs against the brute-force oracles
and the properties the method defines. Each check raises CheckFailed."""

from __future__ import annotations

import numpy as np

from evgesture import oracles
from evgesture.classify import PoolingConfig, Signature, TrainedModel
from evgesture.dbs import DbsConfig
from evgesture.events import EventStream, SensorGeometry
from evgesture.network import Layer, Network

# Surfaces and squared distances are sums of at most a few hundred terms
# in [0, 1]; two computations of one value in another order differ far
# below this.
ROUNDING = 1e-9


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def round_trip(generated: EventStream, loaded: EventStream) -> None:
    require(generated == loaded, "EVS1 round trip changed the stream")


def dbs_mask(stream: EventStream, config: DbsConfig, keep_mask: np.ndarray) -> None:
    expected = oracles.dbs_decisions_eager(stream, config)
    differ = np.nonzero(expected != keep_mask)[0]
    require(differ.size == 0,
            f"DBS decision differs from the eager oracle at {differ.size} "
            f"events, first at index {differ[:1].tolist()}")


def order_and_ids(out: EventStream, n_prototypes: int) -> None:
    require(bool(np.all(np.diff(out.t) >= 0)), "output timestamps decrease")
    require(bool(np.all((out.p >= 0) & (out.p < n_prototypes))),
            f"output id outside [0, {n_prototypes})")


def layer_output(layer_in: EventStream, out: EventStream, layer: Layer) -> None:
    """A frozen layer keeps an event iff its surface sums to >= 2R and labels
    it with the nearest bank row; a rounding tie may go either way."""
    surface_config = layer.config.surface_config
    surfaces = oracles.surfaces_bruteforce(layer_in, surface_config)
    threshold = 2 * surface_config.radius
    bank = layer.bank
    j, m = 0, len(out)
    for i, surface in enumerate(surfaces):
        flat = surface.ravel()
        total = float(flat.sum())
        here = (j < m and out.t[j] == layer_in.t[i] and out.x[j] == layer_in.x[i]
                and out.y[j] == layer_in.y[i])
        if total < threshold - ROUNDING or (total < threshold + ROUNDING and not here):
            continue  # dropped as invalid
        require(here, f"event {i} has a valid surface but no output")
        diff = bank - flat
        d2 = np.einsum("ij,ij->i", diff, diff)
        given = int(out.p[j])
        require(d2[given] <= d2.min() + ROUNDING,
                f"event {i} got prototype {given} at squared distance "
                f"{d2[given]:.6g}, nearest is {int(d2.argmin())} at {d2.min():.6g}")
        j += 1
    require(j == m, f"{m - j} output events match no valid input event")


def signature(out: EventStream, geometry: SensorGeometry, pooling: PoolingConfig,
              n_channels: int, sig: Signature) -> None:
    """L1-normalised bincount of end-layer events over the pooling cells."""
    size = pooling.cells * n_channels
    counts = np.zeros(size)
    for t, x, y, p in zip(out.t.tolist(), out.x.tolist(), out.y.tolist(),
                          out.p.tolist()):
        row = min(y * pooling.grid_rows // geometry.height, pooling.grid_rows - 1)
        col = min(x * pooling.grid_cols // geometry.width, pooling.grid_cols - 1)
        counts[(row * pooling.grid_cols + col) * n_channels + p] += 1
    expected = counts / counts.sum() if counts.sum() else counts
    require(sig.values.shape == (size,) and np.array_equal(sig.values, expected),
            "signature is not the normalised bincount of the end layer's events")


def label(model: TrainedModel, sig: Signature, predicted: str) -> None:
    expected = oracles.knn_bruteforce(model, sig)
    require(predicted == expected,
            f"k-NN label {predicted!r}, brute-force oracle says {expected!r}")


def banks(network: Network) -> None:
    for i, layer in enumerate(network.layers, start=1):
        require(layer.bank_full, f"layer {i} bank holds {layer.n_filled} of "
                                 f"{layer.config.n_prototypes} prototypes")
        require(bool(np.all((layer.bank >= 0.0) & (layer.bank <= 1.0))),
                f"layer {i} has a prototype component outside [0, 1]")
