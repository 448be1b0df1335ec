"""The three benchmark workloads: inputs from a seed, one operation, its checks.

Every workload drives the library's public API the way a single closed-loop
caller would: the next operation starts only after the previous one has
returned. An operation has two stages; `op` returns the timing samples of
each, whose medians are reported as `stage1_ms_p50` and `stage2_ms_p50`. README.md in this directory says why each workload
was chosen and which layers it should and should not stress.

The program is always reached through module attributes
(`shaper.encode_block_dm`, `simulate.run`, `midist.mi_curve_optimized`), so
a traced run sees these calls through the rebound names. The checks use
references bound at import, which tracing never touches.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

from signshape import constellation, midist, shaper, simulate
from signshape.constellation import ShapingProfile, induced_pmf, selection_tables
from signshape.midist import awgn_mi, sigma_for_snr
from signshape.shaper import ShaperConfig, effective_probabilities
from signshape.simulate import SimConfig

HERE = Path(__file__).resolve().parent

PROFILE = dict(m=5, probs=(0.04, 0.24))


def serve_two(requests: np.ndarray, capacities) -> np.ndarray:
    """Reservoir serving each symbol under the two-reservoir switch.

    A symbol takes a bit from the reservoir its prefix requests while that
    one lasts; once it is empty, later requests for it go to the other.
    """
    served = requests.copy()
    for src in (0, 1):
        own = requests == src
        served[own & (np.cumsum(own) > capacities[src])] = 1 - src
    return served


# Gauss-Hermite order of the independent MI evaluation below; twice
# awgn_mi's default, which it matches to within 3e-8 bpcu on the sweep.
REFERENCE_ORDER = 128
_NODES, _WEIGHTS = np.polynomial.hermite.hermgauss(REFERENCE_ORDER)


def reference_mi(m: int, probs, snr_db: float) -> float:
    """I(X;Y) of the profile's induced 2^m-ASK pmf at snr_db, in bpcu.

    Written apart from `awgn_mi` so that a change there that misstates MI
    shows: I = sum_i p_i E_z[-log2 sum_j p_j exp(-d_ij (d_ij + 2z) / 2 s^2)],
    d_ij = x_i - x_j, z ~ N(0, s^2), the expectation by quadrature.
    """
    M = 1 << m
    x = np.arange(-(M - 1), M, 2, dtype=float)
    pmf = induced_pmf(m, probs)
    sigma = math.sqrt(float(pmf @ x**2) / 10.0 ** (snr_db / 10.0))
    z = math.sqrt(2.0) * sigma * _NODES
    weights = _WEIGHTS / math.sqrt(math.pi)
    mi = 0.0
    # one symbol at a time, so the check never holds more memory than awgn_mi
    for x_i, p_i in zip(x, pmf):
        if p_i > 0:
            d = (x_i - x)[:, None]
            ratio = pmf @ np.exp(-d * (d + 2.0 * z) / (2.0 * sigma**2))
            mi += p_i * float(-np.log2(ratio) @ weights)
    return float(mi)


class Shape8k:
    """Long-block round trip: encode_block_dm then decode_block, n = 8192.

    Two length-4096 matchers (k = 988 + 3250); unranking dominates encode
    and the Pascal tables dominate set-up time and memory.
    """

    name = "shape-8k"
    n = 8192
    # p95 of the block time needs at least 200 blocks
    min_ops = 200
    count_ops = 20

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        self.config = ShaperConfig(profile=ShapingProfile(**PROFILE), n=self.n)
        self.config.dm_codes
        self.config.constellation
        shaper.selection_tables(PROFILE["m"], len(PROFILE["probs"]))
        self.src, self.flip = selection_tables(PROFILE["m"], len(PROFILE["probs"]))

    def inputs(self, i: int):
        return self.rng.integers(0, 2, self.config.info_length, dtype=np.uint8)

    def op(self, info, span):
        t0 = time.perf_counter()
        with span("bench.stage1"):
            block = shaper.encode_block_dm(self.config, info)
        t1 = time.perf_counter()
        with span("bench.stage2"):
            decoded = shaper.decode_block(block, self.config)
        t2 = time.perf_counter()
        return ([t1 - t0], [t2 - t1]), (block, decoded)

    def check(self, info, outputs) -> tuple[int, int]:
        """(attempted, failed): the block must round-trip bit for bit, and
        the bits each matcher served must have that matcher's weight.

        The second part replays the switch here, from the symbols alone, so
        an encoder and decoder that go wrong together still fail it.
        """
        block, decoded = outputs
        m = PROFILE["m"]
        ranks = np.searchsorted(self.config.constellation.symbols, block.symbols)
        d = ranks & ((1 << (m - 1)) - 1)
        matcher_bits = 1 - ((ranks >> (m - 1)) ^ self.flip[d])
        codes = self.config.dm_codes
        served = serve_two(self.src[d], [c.n for c in codes])
        weights_hold = all(
            int(matcher_bits[served == i].sum()) == code.w for i, code in enumerate(codes)
        )
        return 1, int(not (np.array_equal(decoded, info) and weights_hold))

    def summary(self, stage1, stage2, op_s) -> dict:
        bits = self.config.info_length
        block_ms = 1e3 * np.asarray(op_s)
        return {
            "encode_mbps": (bits / float(np.median(stage1)) / 1e6, "Mb/s"),
            "decode_mbps": (bits / float(np.median(stage2)) / 1e6, "Mb/s"),
            "block_ms_p50": (float(np.median(block_ms)), "ms"),
            "block_ms_p95": (float(np.percentile(block_ms, 95)), "ms"),
            "blocks": (len(block_ms), "count"),
        }


class Mc256:
    """Short-block Monte Carlo: simulate.run in block-dm mode, n = 256.

    One operation runs 1024 blocks at each of 15, 16, 17 and 18 dB; every
    `simulate.run` call is one timing sample, stage 1 holding the 15 and 16 dB
    calls and stage 2 the 17 and 18 dB ones.
    """

    name = "mc-256"
    n = 256
    snrs_db = (15.0, 16.0, 17.0, 18.0)
    blocks = 1024
    # MI tolerance, bpcu. At 1024 x 256 symbols the plug-in histogram
    # estimate sits within about 0.002 of the quadrature value; its bias
    # grows as the symbol count falls.
    mi_tol = 0.01
    # energy tolerance in standard errors of an i.i.d. sample mean
    energy_sigmas = 5.0
    min_ops = 1
    count_ops = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        profile = ShapingProfile(**PROFILE)
        self.config = ShaperConfig(profile=profile, n=self.n)
        self.config.dm_codes
        self.config.constellation
        simulate.selection_tables(profile.m, profile.num_distinct)
        energy = constellation.induced_distribution(profile).average_energy
        self.sigmas = [sigma_for_snr(energy, s) for s in self.snrs_db]
        self._references = None

    def inputs(self, i: int):
        state = np.random.SeedSequence([self.seed, i]).generate_state(len(self.snrs_db))
        return [
            SimConfig(shaper=self.config, noise_std=sigma, num_blocks=self.blocks,
                      rng_seed=int(s))
            for sigma, s in zip(self.sigmas, state)
        ]

    def op(self, configs, span):
        reports = []
        times = ([], [])
        for stage, samples, pair in zip(("bench.stage1", "bench.stage2"), times,
                                        (configs[:2], configs[2:])):
            with span(stage):
                for sim in pair:
                    t0 = time.perf_counter()
                    reports.append(simulate.run(sim))
                    samples.append(time.perf_counter() - t0)
        return times, reports

    def references(self) -> list[tuple[float, float, float]]:
        """Per SNR: (MI, energy, energy standard error) the run should show.

        The switch mixes the two matchers' densities; `effective_probabilities`
        gives the served densities, taken here at the realized matcher
        weights w/len rather than the nominal (0.04, 0.24).
        """
        if self._references is None:
            codes = self.config.dm_codes
            realized = [c.w / c.n for c in codes]
            pmf = induced_pmf(PROFILE["m"], effective_probabilities(*realized, self.n))
            x = np.asarray(self.config.constellation.symbols, dtype=float)
            energy = float(pmf @ x**2)
            spread = math.sqrt(float(pmf @ x**4) - energy**2)
            symbols = self.blocks * self.n
            self._references = [
                (awgn_mi(x, pmf, sigma), energy, spread / math.sqrt(symbols))
                for sigma in self.sigmas
            ]
        return self._references

    def check(self, configs, reports) -> tuple[int, int]:
        failed = 0
        for report, (mi, energy, stderr) in zip(reports, self.references()):
            ok = (
                report.num_symbols == self.blocks * self.n
                and abs(report.mi_estimate - mi) <= self.mi_tol
                and abs(report.empirical_energy - energy) <= self.energy_sigmas * stderr
            )
            failed += not ok
        return len(reports), failed

    def summary(self, stage1, stage2, op_s) -> dict:
        call_s = float(np.median(stage1 + stage2))
        return {"mc_msym_per_s": (self.blocks * self.n / call_s / 1e6, "Msym/s")}


class OptimizeSweep:
    """Profile optimization: two warm-started mi_curve_optimized sweeps.

    Stage 1: 32-ASK, P = 2, 14..18 dB (grid search). Stage 2: 64-ASK,
    P = 16, 28..32 dB (coordinate ascent). Every sweep is one timing sample,
    its time divided by its points. The inputs are these fixed grids;
    the seed does not change them, because the optimizer is deterministic
    and its references were recorded for exactly these points.
    """

    name = "optimize-sweep"
    # (m, P, SNR grid, sweeps per operation). A P=2 sweep takes about a
    # seventh of a P=16 one; three per operation give its median more samples.
    sweeps = (
        (5, 2, (14.0, 15.0, 16.0, 17.0, 18.0), 3),
        (6, 16, (28.0, 29.0, 30.0, 31.0, 32.0), 1),
    )
    # how far a point's reported MI may stand from reference_mi of its
    # profile, and how far that may fall below the recorded optimum, bpcu
    mi_tol = 1e-4
    # two operations, so a run holds at least two P=16 sweeps
    min_ops = 2
    count_ops = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        reference = json.loads((HERE / "reference.json").read_text())
        self.reference = [reference[f"m{m}_P{P}"] for m, P, _, _ in self.sweeps]
        # the first MI evaluation builds the cached quadrature rule
        M = 1 << self.sweeps[0][0]
        midist.awgn_mi(np.arange(-(M - 1), M, 2, dtype=float), np.full(M, 1.0 / M), 1.0)

    def inputs(self, i: int):
        return self.sweeps

    def op(self, sweeps, span):
        curves = []
        times = ([], [])
        for stage, samples, (m, P, grid, repeats) in zip(
            ("bench.stage1", "bench.stage2"), times, sweeps
        ):
            with span(stage):
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    curves.append(midist.mi_curve_optimized(m, P, grid))
                    samples.append((time.perf_counter() - t0) / len(grid))
        return times, curves

    def check(self, sweeps, curves) -> tuple[int, int]:
        expected = [(m, ref) for (m, _, _, repeats), ref in zip(sweeps, self.reference)
                    for _ in range(repeats)]
        failed = attempted = 0
        for curve, (m, ref) in zip(curves, expected):
            attempted += len(ref["snr_db"])
            if list(curve.snr_db) != list(ref["snr_db"]):
                failed += len(ref["snr_db"])
                continue
            for snr, mi, profile, best in zip(
                curve.snr_db, curve.mi_bpcu, curve.profiles, ref["mi_bpcu"]
            ):
                actual = reference_mi(m, profile.probs, snr)
                failed += abs(mi - actual) > self.mi_tol or actual < best - self.mi_tol
        return attempted, failed

    def summary(self, stage1, stage2, op_s) -> dict:
        return {
            "optimize_p2_s_per_point": (float(np.median(stage1)), "s"),
            "optimize_p16_s_per_point": (float(np.median(stage2)), "s"),
        }


WORKLOADS = {w.name: w for w in (Shape8k, Mc256, OptimizeSweep)}
