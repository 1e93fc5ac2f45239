"""Vectorized spectrum accounting over a fixed topology.

:class:`SpectrumIndex` compiles the Eq. 4 bookkeeping of a
:class:`~repro.topology.network.Network` into numpy form once: a
fiber x link CSR usage matrix (entry = the link's spectral efficiency
where the link rides the fiber) plus per-link fiber-path segments.
Per-step queries -- every link's capacity headroom for the action mask,
or whole-plan spectrum feasibility -- then reduce to one sparse matvec
and a segmented minimum instead of nested Python loops over fibers and
links.

The arithmetic mirrors the scalar reference implementation on
:class:`Network` exactly (same products, same summation order: CSR rows
accumulate in canonical link order, which is the order
``links_over_fiber`` iterates), so results are bitwise identical.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
import scipy.sparse as sp

from repro.errors import TopologyError
from repro.topology.network import Network


class SpectrumIndex:
    """Precomputed spectrum-constraint arrays for one network."""

    def __init__(self, network: Network):
        self.link_ids = network.link_ids()
        links = [network.links[link_id] for link_id in self.link_ids]
        fiber_ids = list(network.fibers)
        fiber_pos = {fiber_id: i for i, fiber_id in enumerate(fiber_ids)}

        self._spectral_efficiency = np.array(
            [link.spectral_efficiency for link in links], dtype=np.float64
        )
        self._max_spectrum = np.array(
            [network.fibers[fiber_id].max_spectrum for fiber_id in fiber_ids],
            dtype=np.float64,
        )

        # Usage matrix U (fibers x links): U[f, l] = phi_lf * se_l, so
        # spectrum_used = U @ capacities.
        rows, cols, data = [], [], []
        for col, link in enumerate(links):
            for fiber_id in dict.fromkeys(link.fiber_path):
                rows.append(fiber_pos[fiber_id])
                cols.append(col)
                data.append(link.spectral_efficiency)
        self._usage = sp.csr_matrix(
            (data, (rows, cols)),
            shape=(len(fiber_ids), len(self.link_ids)),
        )

        # Per-link fiber-path segments for the segmented min.
        segments: list[int] = []
        offsets: list[int] = []
        for link in links:
            if not link.fiber_path:
                raise TopologyError(
                    f"link {link.id} has an empty fiber path; spectrum "
                    "headroom is undefined"
                )
            offsets.append(len(segments))
            segments.extend(fiber_pos[f] for f in link.fiber_path)
        self._path_fibers = np.array(segments, dtype=np.int64)
        self._path_offsets = np.array(offsets, dtype=np.int64)

    # ------------------------------------------------------------------
    def capacity_vector(self, capacities: Mapping[str, float]) -> np.ndarray:
        """Capacities in canonical link order."""
        return np.fromiter(
            (capacities[link_id] for link_id in self.link_ids),
            dtype=np.float64,
            count=len(self.link_ids),
        )

    def fiber_headroom(self, capacities: Mapping[str, float]) -> np.ndarray:
        """Remaining spectrum per fiber (may be negative if violated)."""
        return self.vector_fiber_headroom(self.capacity_vector(capacities))

    def vector_fiber_headroom(self, vector: np.ndarray) -> np.ndarray:
        """:meth:`fiber_headroom` of a capacity vector in canonical order."""
        return self._max_spectrum - self._usage @ vector

    def link_headroom(self, capacities: Mapping[str, float]) -> np.ndarray:
        """Per-link max additional Gbps (the action-mask input).

        Equals ``Network.link_capacity_headroom`` for every link:
        minimum headroom along the fiber path, clamped at zero,
        converted to Gbps by the link's spectral efficiency.
        """
        return self.binding_link_headroom(self.fiber_headroom(capacities))

    def binding_link_headroom(self, fiber_headroom: np.ndarray) -> np.ndarray:
        """:meth:`link_headroom` from an already computed fiber headroom."""
        binding = np.minimum.reduceat(
            fiber_headroom[self._path_fibers], self._path_offsets
        )
        return np.maximum(binding, 0.0) / self._spectral_efficiency

    def feasible(
        self, capacities: Mapping[str, float], tol: float = 1e-9
    ) -> bool:
        """Whether every fiber satisfies Eq. 4 (``spectrum_feasible``)."""
        return bool(np.all(self.fiber_headroom(capacities) >= -tol))
