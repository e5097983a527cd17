"""Workload definitions and the seeded input generator.

Each workload is one CLI subcommand run in a closed loop by a single client
over a pool of generated parameter files. Inputs come in rounds of four, one
per defect family (SiV, GeV, SnV, PbV), so every round covers the same
spread of coupling regimes whatever the seed.

Why these workloads:

* ``sweep15`` is the fitting use case: ``spectrum`` at cutoff 15 (dimension
  544, dense route, R computed) on many nearby parameter sets. Its time is
  spread over the dense solve, R in ``classify_levels``, ``assemble`` and the
  CLI, so it shows changes to any of them.
* ``ladder`` is the "time to a converged delta" use case: ``converge`` over
  cutoffs 20, 30 and 40. Cutoff 30 (dimension 1984) takes the dense route and
  cutoff 40 (dimension 3444) the iterative one, so the ladder crosses the
  solver's dense/iterative crossover at dimension 2000. Nearly all of its
  time is in ``solver.solve``; R is not computed. Its commands are too long
  for a steady run on a shared host, so ``BENCHMARK.json`` does not list it
  (see README.md); it runs when asked for by name.
* ``apes`` runs the classical sheet scan, which uses many 4x4
  diagonalizations and no sparse assembly or solver at all. It shows changes
  to ``apes_scan`` and CLI row formatting, and must not move when only the
  solver changes.

Why these ranges: for ``sweep15`` and ``apes`` each of the five parameters
is drawn uniformly within +-15% of a preset value, the neighbourhood a fit
explores around a published set. Across these draws the ground level stays
nondegenerate below the Eu doublet at every cutoff the workloads use, and no
state puts more than 1% of its weight in the top two Fock shells at cutoff
15, so no command fails and R is never truncation-contaminated. The
``sweep15`` pool starts with the four exact presets so that each run also
checks the published splittings.

``ladder`` checks convergence at a chosen set, so it draws within +-2% and
runs its four inputs twice. Over +-15% the iterative solve at cutoff 40
needs 65 to 75 iterations, and its time grows faster than that, so a run of
eight commands would time the draw more than the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

PARAM_KEYS = ("hbar_omega_mev", "lambda_mev", "xi_mev", "f_g_mev", "f_u_mev")

# (hbar_omega, lambda, xi, f_g, f_u) in meV and the reference delta in meV
# that each preset must reproduce within 10% at cutoff 15. The values are the
# published table of the package README; they are kept here so that the
# program under test sees only generated parameter files.
PRESETS: dict[str, tuple[tuple[float, float, float, float, float], float]] = {
    "SiV": ((75.9, 78.3, 45.0, 95.0, 103.0), 6.7),
    "GeV": ((78.2, 88.6, 40.0, 83.0, 112.0), 7.6),
    "SnV": ((81.3, 99.5, 42.0, 67.0, 120.0), 9.3),
    "PbV": ((81.4, 119.0, 36.0, 52.0, 125.0), 10.8),
}
FAMILIES = tuple(PRESETS)
ROUND = len(FAMILIES)


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload.

    Attributes:
        name: Workload name as given to ``--workload``.
        command: CLI arguments after ``--params FILE``; the first one is
            the subcommand.
        warmup: Arguments of the untimed command run once after import.
        pool_size: Distinct inputs generated per run. The loop cycles when
            it runs more commands than this.
        spread: Largest relative change of each parameter from its preset.
        min_rounds: Rounds the timed phase runs at least, however long
            they take.
        presets_first: Whether the pool starts with the four exact presets.
    """

    name: str
    command: tuple[str, ...]
    warmup: tuple[str, ...]
    pool_size: int
    spread: float = 0.15
    min_rounds: int = 1
    presets_first: bool = False

    def argv(self, params_path: str, args: tuple[str, ...] | None = None) -> list[str]:
        args = self.command if args is None else args
        return [args[0], "--params", params_path, *args[1:]]


WORKLOADS: dict[str, Workload] = {
    "sweep15": Workload(
        name="sweep15",
        command=("spectrum", "--cutoff", "15", "--states", "8"),
        warmup=("spectrum", "--cutoff", "15", "--states", "8"),
        pool_size=256,
        presets_first=True,
    ),
    # The warm-up stays below the crossover: a full ladder would add seconds
    # of solver time to every set-up sample.
    "ladder": Workload(
        name="ladder",
        command=("converge", "--cutoffs", "20,30,40", "--states", "8"),
        warmup=("converge", "--cutoffs", "5,10", "--states", "8"),
        pool_size=4,
        spread=0.02,
        min_rounds=2,
    ),
    "apes": Workload(
        name="apes",
        command=("apes", "--xmin", "-4", "--xmax", "4", "--points", "401"),
        warmup=("apes", "--xmin", "-4", "--xmax", "4", "--points", "401"),
        pool_size=2048,
    ),
}


@dataclass(frozen=True)
class Input:
    """One generated parameter set."""

    family: str
    params: tuple[float, float, float, float, float]
    exact_preset: bool

    def text(self) -> str:
        return "".join(f"{k} = {v!r}\n" for k, v in zip(PARAM_KEYS, self.params))

    @property
    def reference_delta(self) -> float | None:
        return PRESETS[self.family][1] if self.exact_preset else None


def generate(workload: Workload, seed: int) -> list[Input]:
    """The input pool of one run; the same seed gives the same pool."""
    rng = random.Random(f"{workload.name}:{seed}")
    pool: list[Input] = []
    for i in range(workload.pool_size):
        family = FAMILIES[i % ROUND]
        base = PRESETS[family][0]
        if workload.presets_first and i < ROUND:
            pool.append(Input(family, base, True))
            continue
        params = tuple(v * rng.uniform(1.0 - workload.spread, 1.0 + workload.spread)
                       for v in base)
        pool.append(Input(family, params, False))
    return pool


def write_pool(pool: list[Input], directory: Path) -> list[str]:
    """Write one parameter file per input; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, item in enumerate(pool):
        path = directory / f"params-{i:05d}.txt"
        path.write_text(item.text(), encoding="utf-8")
        paths.append(str(path))
    return paths
