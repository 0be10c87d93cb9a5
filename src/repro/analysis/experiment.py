"""Parameter-sweep helpers shared by the benchmark harness and the CLI.

An :class:`ExperimentSweep` runs one scenario function over a grid of
parameter values (optionally with seed replication) and collects rows for
an ASCII table — the shape every experiment in the paper reduces to: one
row per sweep point, one column per protocol or metric.

Sweeps fan out across processes when asked (``jobs > 1``) with a
**two-level scheduler**: the grid is first split into cells (``parameters
x protocols``), and each cell's seed list is sharded into chunks sized
``ceil(seeds / jobs)``, so a *single* large cell with many seeds saturates
every worker instead of binding one core.  Chunks go to a persistent
:class:`~concurrent.futures.ProcessPoolExecutor` (workers stay warm across
sweeps in the same process — imports and module state amortize), submitted
in deterministic chunk-key order ``(cell, chunk)``; free workers steal the
next chunk in that order.

Determinism contract: every cell/seed is an independent, deterministic
simulation, and per-seed partial results are reduced through the
order-canonical merge, a sorted-by-seed fold with ``math.fsum``
(:func:`repro.analysis.metrics.merge_seed_measurements`).  ``jobs=1`` and
``jobs=N`` therefore produce **byte-identical** points and
:meth:`ExperimentSweep.digest` values (asserted by the test suite and the
CI parallel-determinism smoke).  The
only requirement is the usual multiprocessing one: the scenario callable
must be picklable (a module-level function or a callable object of a
module-level class — not a closure).
"""

from __future__ import annotations

import atexit
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.analysis.metrics import measurement_digest, merge_seed_measurements
from repro.analysis.report import Table

if TYPE_CHECKING:  # imported by the first sweep that builds the pool
    from concurrent.futures import ProcessPoolExecutor

#: One unit of parallel work: every seed of one chunk of one cell.
_ChunkKey = tuple[int, int]


def _run_seed_chunk(
    scenario: Callable[[str, Any, int], dict[str, float]],
    parameter: Any,
    protocol: str,
    seeds: tuple[int, ...],
) -> list[dict[str, float]]:
    """Worker-side loop: one cell's seed chunk, measurements in seed order."""
    return [scenario(protocol, parameter, seed) for seed in seeds]


# -- persistent worker pool ----------------------------------------------------
#
# One module-level pool, grown on demand and reused across sweeps, so
# repeated ``run(jobs=N)`` calls (a benchmark suite, the CLI, the perf
# harness) pay the interpreter/import warm-up once.  Workers hold no sweep
# state — every chunk ships its scenario and inputs — so reuse cannot leak
# results between sweeps.

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0


def _get_pool(workers: int) -> ProcessPoolExecutor:
    global _pool, _pool_workers
    if _pool is not None and _pool_workers < workers:
        _pool.shutdown(wait=True)
        _pool = None
    if _pool is None:
        from concurrent.futures import ProcessPoolExecutor

        _pool = ProcessPoolExecutor(max_workers=workers)
        _pool_workers = workers
    return _pool


def shutdown_worker_pool() -> None:
    """Tear down the persistent pool (atexit, and tests that count procs)."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=True)
        _pool = None
        _pool_workers = 0


atexit.register(shutdown_worker_pool)


def _seed_chunks(seeds: Sequence[int], jobs: int) -> list[tuple[int, ...]]:
    """Split ``seeds`` into at most ``jobs`` contiguous chunks.

    Chunk size is ``ceil(len(seeds) / jobs)``: a single cell with 32 seeds
    at ``jobs=4`` becomes 4 chunks of 8, so the whole pool works on it; a
    cell with one seed stays one chunk and parallelism comes from the cell
    level instead.
    """
    size = max(1, -(-len(seeds) // jobs))
    return [tuple(seeds[i : i + size]) for i in range(0, len(seeds), size)]


@dataclass
class SweepPoint:
    """One cell of a sweep: parameter value, protocol, measured values."""

    parameter: Any
    protocol: str
    values: dict[str, float]


@dataclass
class ExperimentSweep:
    """Runs ``scenario(protocol, parameter, seed) -> dict[str, float]``
    over ``parameters x protocols x seeds`` and folds the per-seed
    measurements canonically (sorted-seed merge, fsum means — see
    :func:`repro.analysis.metrics.merge_seed_measurements`)."""

    name: str
    scenario: Callable[[str, Any, int], dict[str, float]]
    parameters: Sequence[Any]
    protocols: Sequence[str]
    seeds: Sequence[int] = (0,)
    points: list[SweepPoint] = field(default_factory=list)

    def _cells(self) -> list[tuple[Any, str]]:
        """The cell grid in its canonical (deterministic) order."""
        return [
            (parameter, protocol)
            for parameter in self.parameters
            for protocol in self.protocols
        ]

    def run(
        self,
        progress: Optional[Callable[[str], None]] = None,
        jobs: Optional[int] = None,
    ) -> "ExperimentSweep":
        """Run the sweep; ``jobs > 1`` shards cells *and* seeds across the
        persistent worker pool.  Results are byte-identical to ``jobs=1``.

        ``jobs=None`` falls back to the ``REPRO_SWEEP_JOBS`` environment
        variable (how ``scripts/run_experiments.py --sweep-jobs`` reaches
        sweeps inside its pytest subprocesses), defaulting to serial.
        """
        if jobs is None:
            env_jobs = os.environ.get("REPRO_SWEEP_JOBS", "")
            jobs = int(env_jobs) if env_jobs.isdigit() else None
        cells = self._cells()
        seeds = list(self.seeds)
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"duplicate seeds in sweep {self.name!r}: {seeds}")
        if jobs is not None and jobs > 1 and len(cells) * len(seeds) > 1:
            measurements = self._run_parallel(cells, seeds, jobs, progress)
        else:
            measurements = {}
            for cell_index, (parameter, protocol) in enumerate(cells):
                for seed in seeds:
                    if progress is not None:
                        progress(f"{self.name}: {protocol} @ {parameter} (seed {seed})")
                    measurements[(cell_index, seed)] = self.scenario(
                        protocol, parameter, seed
                    )
        self._fold(cells, seeds, measurements)
        return self

    def _run_parallel(
        self,
        cells: list[tuple[Any, str]],
        seeds: list[int],
        jobs: int,
        progress: Optional[Callable[[str], None]],
    ) -> dict[tuple[int, int], dict[str, float]]:
        pool = _get_pool(jobs)
        futures: list[tuple[_ChunkKey, tuple[int, ...], Any]] = []
        # Submission order IS the canonical chunk-key order (cell, chunk):
        # the pool hands chunks to free workers in exactly this order, which
        # keeps the "work-stealing" schedule deterministic even though
        # completion order is not.
        for cell_index, (parameter, protocol) in enumerate(cells):
            for chunk_index, chunk in enumerate(_seed_chunks(seeds, jobs)):
                if progress is not None:
                    progress(
                        f"{self.name}: {protocol} @ {parameter} "
                        f"(seeds {chunk[0]}..{chunk[-1]}) [chunk {cell_index}.{chunk_index}]"
                    )
                futures.append(
                    (
                        (cell_index, chunk_index),
                        chunk,
                        pool.submit(
                            _run_seed_chunk, self.scenario, parameter, protocol, chunk
                        ),
                    )
                )
        # Fold by chunk key, never by completion order.
        measurements: dict[tuple[int, int], dict[str, float]] = {}
        for (cell_index, _chunk_index), chunk, future in futures:
            for seed, measured in zip(chunk, future.result()):
                measurements[(cell_index, seed)] = measured
        return measurements

    def _fold(
        self,
        cells: list[tuple[Any, str]],
        seeds: list[int],
        measurements: dict[tuple[int, int], dict[str, float]],
    ) -> None:
        assert len(measurements) == len(cells) * len(seeds)
        for cell_index, (parameter, protocol) in enumerate(cells):
            by_seed = {seed: measurements[(cell_index, seed)] for seed in seeds}
            self.points.append(
                SweepPoint(parameter, protocol, merge_seed_measurements(by_seed))
            )

    def digest(self) -> str:
        """Canonical sha256 over every folded point (full float precision).

        Equal digests mean byte-identical sweep outputs; the parallel
        determinism tests and the CI smoke compare ``jobs=1`` vs ``jobs=N``
        through this.
        """
        return measurement_digest(
            (point.parameter, point.protocol, point.values) for point in self.points
        )

    def value(self, parameter: Any, protocol: str, metric: str) -> float:
        for point in self.points:
            if point.parameter == parameter and point.protocol == protocol:
                return point.values[metric]
        raise KeyError((parameter, protocol, metric))

    def series(self, protocol: str, metric: str) -> list[float]:
        """Metric values for one protocol across the parameter axis."""
        return [self.value(parameter, protocol, metric) for parameter in self.parameters]

    def column(self, parameter: Any, metric: str) -> dict[str, float]:
        """Metric values for one parameter across protocols (a table row).

        The transpose of :meth:`series`; sweep acceptance checks use it to
        assert an invariant (e.g. zero unanswered clients) holds for every
        protocol at one sweep point.
        """
        return {
            protocol: self.value(parameter, protocol, metric)
            for protocol in self.protocols
        }

    def table(self, metric: str, parameter_label: str = "parameter") -> Table:
        """One table: rows = parameters, columns = protocols, cells = metric."""
        table = Table(
            [parameter_label] + list(self.protocols),
            title=f"{self.name}: {metric}",
        )
        for parameter in self.parameters:
            table.add_row(
                parameter,
                *(self.value(parameter, protocol, metric) for protocol in self.protocols),
            )
        return table

    def metrics(self) -> list[str]:
        names: list[str] = []
        for point in self.points:
            for key in point.values:
                if key not in names:
                    names.append(key)
        return names

    def render_all(self, parameter_label: str = "parameter") -> str:
        return "\n\n".join(
            self.table(metric, parameter_label).render() for metric in self.metrics()
        )


def run_sweep(
    name: str,
    scenario: Callable[[str, Any, int], dict[str, float]],
    parameters: Sequence[Any],
    protocols: Sequence[str],
    seeds: Sequence[int] = (0,),
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = None,
) -> ExperimentSweep:
    """Build and run an :class:`ExperimentSweep` in one call.

    The functional entry point the scripts and tests use; ``jobs=N`` shards
    seeds within cells across the persistent worker pool and is
    byte-identical to ``jobs=1`` (compare :meth:`ExperimentSweep.digest`).
    """
    return ExperimentSweep(
        name=name,
        scenario=scenario,
        parameters=parameters,
        protocols=protocols,
        seeds=seeds,
    ).run(progress=progress, jobs=jobs)
