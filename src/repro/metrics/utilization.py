"""Server-utilisation metrics (Figure 7), read off the sample stream.

The engines publish one :class:`~repro.cluster.events.ClusterSample` per
node state change on the simulator's event bus; everything in this module
consumes that stream:

* :class:`StreamingUtilization` (re-exported from
  :mod:`repro.cluster.resource_monitor`) keeps O(nodes) running means —
  headline utilisation without any trace.
* :class:`StreamingUtilizationHeatmap` builds the Figure 7 nodes × time
  heat map with **bounded memory**: it bins samples on the fly and, when
  the run outgrows its capacity, merges adjacent bins (doubling the bin
  width), so memory stays O(nodes × bins) regardless of simulation
  length.
"""

from __future__ import annotations

import numpy as np

from repro._checks import require_finite, require_integer
from repro.cluster.events import EventKind
from repro.cluster.resource_monitor import StreamingUtilization

__all__ = [
    "StreamingUtilization",
    "StreamingUtilizationHeatmap",
]


class StreamingUtilizationHeatmap:
    """Figure 7 heat map accumulated from the sample stream, O(1) per step.

    Samples land in uniform time bins of the current width; when a run
    outgrows ``2 × n_bins`` bins, adjacent bins are merged pairwise and
    the width doubles, so the structure never holds more than
    ``2 × n_bins`` (sum, count) pairs per node — bounded memory for any
    simulation length.

    Parameters
    ----------
    n_bins:
        Number of time bins in the rendered heat map, an integer of at
        least one.
    initial_bin_min:
        Starting bin width in minutes, finite and positive (defaults to
        one; it doubles as needed, so only the resolution floor matters).
    """

    def __init__(self, n_bins: int = 48, initial_bin_min: float = 1.0) -> None:
        require_integer("n_bins", n_bins)
        if n_bins < 1:
            raise ValueError("n_bins must be at least 1")
        require_finite("initial_bin_min", initial_bin_min)
        if initial_bin_min <= 0:
            raise ValueError("initial_bin_min must be positive")
        self.n_bins = n_bins
        self._capacity = 2 * n_bins
        self._width = float(initial_bin_min)
        self._sums: dict[int, np.ndarray] = {}
        self._counts: dict[int, np.ndarray] = {}
        self._max_bin = -1

    def attach(self, bus) -> "StreamingUtilizationHeatmap":
        """Subscribe to the :class:`ClusterSample` events on a bus."""
        bus.subscribe(self._on_sample, kinds=(EventKind.CLUSTER_SAMPLE,))
        return self

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    def _on_sample(self, event) -> None:
        times = np.asarray(event.times, dtype=float)
        if times.size == 0:
            return
        while float(times[-1]) // self._width >= self._capacity:
            self._merge()
        indices = (times // self._width).astype(int)
        # Times are ascending, so the occupied bins and their sample
        # counts come out of one np.unique pass; per node only those few
        # bins are touched (a fixed-step event touches exactly one).
        touched, touched_counts = np.unique(indices, return_counts=True)
        self._max_bin = max(self._max_bin, int(indices[-1]))
        samples = event.samples
        for node_id, utilization in zip(samples.node_ids,
                                        samples.util.tolist()):
            sums = self._sums.get(node_id)
            if sums is None:
                sums = np.zeros(self._capacity)
                self._sums[node_id] = sums
                self._counts[node_id] = np.zeros(self._capacity, dtype=int)
            sums[touched] += touched_counts * utilization
            self._counts[node_id][touched] += touched_counts

    def _merge(self) -> None:
        """Merge adjacent bins pairwise; the bin width doubles."""
        for node_id in self._sums:
            sums = self._sums[node_id]
            counts = self._counts[node_id]
            merged_sums = np.zeros(self._capacity)
            merged_counts = np.zeros(self._capacity, dtype=int)
            half = self._capacity // 2
            merged_sums[:half] = sums[0::2] + sums[1::2]
            merged_counts[:half] = counts[0::2] + counts[1::2]
            self._sums[node_id] = merged_sums
            self._counts[node_id] = merged_counts
        self._width *= 2.0
        self._max_bin = self._max_bin // 2

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """The accumulated heat map as ``(bin_times_min, matrix)``.

        ``matrix[i, j]`` is the mean utilisation (%) of the ``i``-th node
        (node-id order) in the ``j``-th of ``n_bins`` equal groups of
        *sampled* bins; ``bin_times_min[j]`` is the group's time centre.
        Bins no sample ever landed in (possible when the simulation step
        is coarser than the current bin width) are skipped when grouping,
        so the rendered map never shows spurious idle columns between
        samples.
        """
        if not self._sums or self._max_bin < 0:
            return np.zeros(self.n_bins), np.zeros((0, self.n_bins))
        node_ids = sorted(self._sums)
        total_counts = np.zeros(self._capacity, dtype=int)
        for node_id in node_ids:
            total_counts += self._counts[node_id]
        sampled = np.nonzero(total_counts)[0]
        if sampled.size == 0:
            return np.zeros(self.n_bins), np.zeros((len(node_ids), self.n_bins))
        groups = np.array_split(sampled, self.n_bins)
        matrix = np.zeros((len(node_ids), self.n_bins))
        bin_times = np.zeros(self.n_bins)
        for j, group in enumerate(groups):
            if group.size == 0:
                continue
            bin_times[j] = 0.5 * (group[0] + group[-1] + 1) * self._width
            for i, node_id in enumerate(node_ids):
                count = self._counts[node_id][group].sum()
                if count:
                    matrix[i, j] = self._sums[node_id][group].sum() / count
        return bin_times, matrix
