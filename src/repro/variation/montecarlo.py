"""Monte Carlo sampling of chip speeds under process variation.

Produces the speed *distribution* Section 8 reasons about: every sampled
die gets a delay factor composed of the global variance components plus
the max of many intra-die path draws, and the resulting frequency
population feeds the binning and quoting models.

The intra-die term is sampled *exactly* without materialising the
``count x critical_paths`` matrix of path draws: the maximum of ``k``
iid ``N(0, s)`` variables has CDF ``Phi(x/s)**k``, so one uniform draw
``U`` per die inverts it as ``x = s * Phi^-1(U**(1/k))``.  That turns an
O(count * k) sampling loop into O(count) with the same distribution --
the dominant term of the pre-incremental profile, since the default
component sets model 64 near-critical paths per die.

Sampling is chunked (fixed :data:`CHUNK_SIZE`, per-chunk seeds spawned
from the root seed) and fanned out through :func:`repro.par.sweep
.run_sweep`; because chunk seeding depends only on ``(seed, count)``,
the population is identical for any ``workers`` value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.par.sweep import run_sweep
from repro.variation.components import VariationComponents, VariationError

#: Dies per sweep task.  Fixed (never derived from the worker count) so
#: the chunk seed schedule -- and hence the sampled population -- is a
#: pure function of (seed, count).
CHUNK_SIZE = 8192


@dataclass(frozen=True)
class SpeedDistribution:
    """A sampled population of chip clock frequencies.

    Attributes:
        frequencies_mhz: per-die maximum working frequency, sorted
            ascending.
        nominal_mhz: frequency of a variation-free die.
    """

    frequencies_mhz: np.ndarray
    nominal_mhz: float

    def __post_init__(self) -> None:
        if len(self.frequencies_mhz) == 0:
            raise VariationError("empty distribution")
        if not np.all(np.isfinite(self.frequencies_mhz)):
            raise VariationError("distribution contains non-finite "
                                 "frequencies")

    @property
    def count(self) -> int:
        return len(self.frequencies_mhz)

    def percentile(self, pct: float) -> float:
        """Frequency at a population percentile (0 = slowest die)."""
        if not 0.0 <= pct <= 100.0:
            raise VariationError("percentile must be within [0, 100]")
        return float(np.percentile(self.frequencies_mhz, pct))

    @property
    def median_mhz(self) -> float:
        return self.percentile(50.0)

    @property
    def spread(self) -> float:
        """p99 over p1 frequency ratio -- the shipped-bin spread."""
        return self.percentile(99.0) / self.percentile(1.0)

    def yield_at(self, frequency_mhz: float) -> float:
        """Fraction of dies that work at a given frequency."""
        if frequency_mhz <= 0:
            raise VariationError("frequency must be positive")
        return float(np.mean(self.frequencies_mhz >= frequency_mhz))

    def filtered(
        self,
        min_mhz: float | None = None,
        max_mhz: float | None = None,
    ) -> "SpeedDistribution":
        """Sub-population inside a frequency window.

        Guards the percentile math downstream: a filter that removes
        every sample raises a typed error here instead of letting
        ``np.percentile`` produce NaN from an empty array later.

        Raises:
            VariationError: if no samples survive the filter.
        """
        freqs = self.frequencies_mhz
        if min_mhz is not None:
            freqs = freqs[freqs >= min_mhz]
        if max_mhz is not None:
            freqs = freqs[freqs <= max_mhz]
        if len(freqs) == 0:
            raise VariationError(
                f"no samples remain after filtering to "
                f"[{min_mhz}, {max_mhz}] MHz"
            )
        return SpeedDistribution(
            frequencies_mhz=freqs, nominal_mhz=self.nominal_mhz
        )


# Acklam's rational approximation to the standard normal inverse CDF
# (relative error < 1.2e-9 everywhere) -- scipy's ndtri is not in the
# dependency footprint, and this vectorises cleanly.
_PPF_A = (-3.969683028665376e+01, 2.209460984245205e+02,
          -2.759285104469687e+02, 1.383577518672690e+02,
          -3.066479806614716e+01, 2.506628277459239e+00)
_PPF_B = (-5.447609879822406e+01, 1.615858368580409e+02,
          -1.556989798598866e+02, 6.680131188771972e+01,
          -1.328068155288572e+01)
_PPF_C = (-7.784894002430293e-03, -3.223964580411365e-01,
          -2.400758277161838e+00, -2.549732539343734e+00,
          4.374664141464968e+00, 2.938163982698783e+00)
_PPF_D = (7.784695709041462e-03, 3.224671290700398e-01,
          2.445134137142996e+00, 3.754408661907416e+00)
_PPF_PLOW = 0.02425


def _norm_ppf(p: np.ndarray) -> np.ndarray:
    """Vectorised standard normal quantile function Phi^-1(p).

    ``p <= 0`` maps to ``-inf`` and ``p >= 1`` to ``+inf`` (the exact
    limits), so downstream clipping sees signed infinities rather than
    the NaNs the raw rational form would produce at the endpoints.
    """
    p = np.asarray(p, dtype=np.float64)
    out = np.empty_like(p)
    a, b, c, d = _PPF_A, _PPF_B, _PPF_C, _PPF_D
    lo = (p > 0.0) & (p < _PPF_PLOW)
    hi = (p > 1.0 - _PPF_PLOW) & (p < 1.0)
    mid = (p >= _PPF_PLOW) & (p <= 1.0 - _PPF_PLOW)
    if lo.any():
        q = np.sqrt(-2.0 * np.log(p[lo]))
        out[lo] = (
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
            + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if hi.any():
        q = np.sqrt(-2.0 * np.log(1.0 - p[hi]))
        out[hi] = -(
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
            + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if mid.any():
        q = p[mid] - 0.5
        r = q * q
        out[mid] = (
            ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r
            + a[5]
        ) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r
            + 1.0
        )
    out[p <= 0.0] = -np.inf
    out[p >= 1.0] = np.inf
    return out


def _sample_chunk(task: tuple) -> np.ndarray:
    """One sweep task: sample ``size`` dies' frequencies (unsorted)."""
    seed_seq, size, chip_sigma, intra_sigma, paths, nominal = task
    rng = np.random.default_rng(seed_seq)
    global_shift = rng.normal(0.0, chip_sigma, size=size)
    if intra_sigma > 0.0 and paths > 0:
        # max of `paths` iid N(0, s) draws, via inverse-CDF sampling.
        u = rng.random(size)
        intra_max = intra_sigma * _norm_ppf(u ** (1.0 / paths))
        intra_penalty = np.maximum(intra_max, 0.0)
    else:
        intra_penalty = np.zeros(size)
    delay_factor = (1.0 + global_shift) * (1.0 + intra_penalty)
    delay_factor = np.clip(delay_factor, 0.5, 2.0)
    return nominal / delay_factor


def sample_chip_speeds(
    nominal_mhz: float,
    components: VariationComponents,
    count: int = 20000,
    seed: int = 1,
    workers: int = 1,
) -> SpeedDistribution:
    """Sample a die population.

    Per die: ``delay = (1 + N(0, s_global)) * (1 + max_k N(0, s_intra))``
    where the max runs over the die's independent near-critical paths --
    intra-die variation can only slow a chip down, because *some* path
    always loses the lottery.  The max is sampled in closed form (see
    the module docstring) rather than by drawing every path.

    Args:
        nominal_mhz: variation-free design frequency.
        components: variance components.
        count: dies to sample.
        seed: RNG seed (deterministic population, independent of
            ``workers``).
        workers: process count for the sweep (<= 1 runs in-process).
    """
    if not (nominal_mhz > 0) or not math.isfinite(nominal_mhz):
        raise VariationError("nominal frequency must be positive and "
                             "finite")
    if count < 1:
        raise VariationError("need at least one die")
    profiling = obs.enabled()
    start_s = obs.MONOTONIC() if profiling else 0.0
    sizes = [CHUNK_SIZE] * (count // CHUNK_SIZE)
    if count % CHUNK_SIZE:
        sizes.append(count % CHUNK_SIZE)
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))
    tasks = [
        (seed_seq, size, components.chip_level_sigma, components.intra_die,
         components.critical_paths, nominal_mhz)
        for seed_seq, size in zip(seeds, sizes)
    ]
    parts = run_sweep(
        _sample_chunk, tasks, workers=workers,
        label="variation.montecarlo.sweep",
    )
    freqs = np.sort(np.concatenate(parts))
    if profiling:
        elapsed_s = max(obs.MONOTONIC() - start_s, 1e-9)
        obs.count("variation.montecarlo.samples", count)
        obs.observe("variation.montecarlo.samples_per_sec",
                    count / elapsed_s)
    return SpeedDistribution(frequencies_mhz=freqs, nominal_mhz=nominal_mhz)


def maturity_trend(
    nominal_mhz: float,
    components: VariationComponents,
    quarters: int = 8,
    sigma_decay_per_quarter: float = 0.92,
    speed_gain_per_quarter: float = 1.02,
    count: int = 8000,
    seed: int = 7,
    workers: int = 1,
) -> list[SpeedDistribution]:
    """Model a process maturing over time.

    Each quarter the variance components shrink and the nominal speed
    creeps up (process tweaks, optical shrinks -- Section 8.1.1's Intel
    0.25 um example gained 18% from a 5% shrink mid-generation).
    """
    if quarters < 1:
        raise VariationError("need at least one quarter")
    out = []
    current = components
    nominal = nominal_mhz
    for quarter in range(quarters):
        out.append(
            sample_chip_speeds(nominal, current, count=count,
                               seed=seed + quarter, workers=workers)
        )
        current = current.scaled(sigma_decay_per_quarter)
        nominal *= speed_gain_per_quarter
    return out
