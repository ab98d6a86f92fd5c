"""End-to-end mapping: landmark vector -> Hilbert number -> DHT key.

:class:`ProximityMapper` packages the full pipeline of Section 4.2.1:
quantise a landmark vector onto the grid, walk the m-dimensional Hilbert
curve to get the *Hilbert number*, and rescale that number onto the DHT's
identifier ring so it can be used as a ``put`` key.

Rescaling keeps order: the Hilbert index has ``m * bits`` bits while the
ring has ``space.bits``; the index is shifted so its most significant
bits populate the key.  Order (and therefore locality) is preserved —
only resolution changes.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ProximityError
from repro.idspace import IdentifierSpace
from repro.proximity.hilbert import HilbertCurve
from repro.proximity.landmark_vector import GridQuantizer


class ProximityMapper:
    """Maps landmark vectors to DHT keys, preserving physical locality.

    Parameters
    ----------
    dims:
        Landmark count ``m`` (paper default 15).
    grid_bits:
        Grid order: bits per landmark-space dimension (paper's ``n``
        controls the total cell count ``2^(dims * grid_bits)``).
    quantizer:
        The fitted :class:`GridQuantizer`; build one with
        :meth:`ProximityMapper.fit` when bounds come from measured data.

    Examples
    --------
    >>> vecs = np.array([[0.0, 1.0], [0.1, 1.1], [9.0, 5.0]])
    >>> mapper = ProximityMapper.fit(vecs, grid_bits=3)
    >>> keys = mapper.dht_keys(vecs, IdentifierSpace(bits=16))
    >>> abs(keys[0] - keys[1]) < abs(keys[0] - keys[2])
    True
    """

    def __init__(self, dims: int, grid_bits: int, quantizer: GridQuantizer) -> None:
        if quantizer.bits != grid_bits:
            raise ProximityError(
                f"quantizer bits ({quantizer.bits}) != grid_bits ({grid_bits})"
            )
        self.dims = dims
        self.grid_bits = grid_bits
        self.quantizer = quantizer
        self.curve = HilbertCurve(dims=dims, bits=grid_bits)

    @classmethod
    def fit(
        cls, vectors: np.ndarray, grid_bits: int, margin: float = 0.05
    ) -> "ProximityMapper":
        """Build a mapper whose grid bounds are fitted to ``vectors``."""
        arr = np.asarray(vectors, dtype=np.float64)
        if arr.ndim != 2:
            raise ProximityError("vectors must be a 2-D (n, m) array")
        quant = GridQuantizer.fit(arr, bits=grid_bits, margin=margin)
        return cls(dims=arr.shape[1], grid_bits=grid_bits, quantizer=quant)

    # ------------------------------------------------------------------
    def hilbert_numbers(self, vectors: np.ndarray) -> list[int]:
        """Hilbert number of each landmark vector (arbitrary-precision ints)."""
        cells = self.quantizer.quantize(vectors)
        if cells.shape[1] != self.dims:
            raise ProximityError(
                f"vectors have {cells.shape[1]} dims, expected {self.dims}"
            )
        return self.curve.encode_many(cells)

    def dht_keys(self, vectors: np.ndarray, space: IdentifierSpace) -> np.ndarray:
        """DHT key for each landmark vector on ``space``.

        The Hilbert index's most significant bits become the key, so key
        order equals Hilbert order.
        """
        if space.bits > 62:
            raise ProximityError("dht_keys supports identifier spaces up to 62 bits")
        numbers = self.hilbert_numbers(vectors)
        shift = self.curve.index_bits - space.bits
        if shift >= 0:
            keys = [n >> shift for n in numbers]
        else:
            keys = [n << (-shift) for n in numbers]
        return np.asarray(keys, dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProximityMapper(dims={self.dims}, grid_bits={self.grid_bits})"
